"""Run every workload over several seeds and summarise, optionally recording
the result as the baseline later changes compare against.

    python3 bench/baseline.py --seeds 1 2 3 4 5 6 7 8 9 10 [--trace] [--write]

Runs ``bench/run.py`` one at a time, so runs never compete for the cores.
For each end-to-end metric it prints the median over seeds and the spread
(third minus first quartile, over the median) next to the metric's bound in
BENCHMARK.json.  With ``--trace`` each workload also gets one traced run on
the first seed, whose input and output digests must equal the untraced
run's: the seed self-check across processes.  ``--write`` stores all of it
in ``bench/BASELINE.json`` with the commit, Python version and core count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

from run import layer_shares

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    result["digests"] = dict(re.findall(r"(input|output) digest (\w+)", proc.stdout))
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def git_head() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    record = {
        "source_commit": git_head(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": SPEC["run_seconds"],
        "seeds": args.seeds,
        "workloads": {},
    }
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = [(seed, run(workload, seed, 0)) for seed in args.seeds]
        entry = {
            "input_digests": {str(s): r["digests"]["input"] for s, r in runs},
            "end_to_end": {},
        }
        print(f"{workload}: {len(runs)} runs, {sum(r['failed'] for _, r in runs)} failed instances")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for _, r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            unit = runs[0][1]["metrics"][name]["unit"]
            entry["end_to_end"][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "unit": unit}
            print(f"  {name:16s} median {med:10.4f} {unit:4s} spread {spread:6.3f} (bound {bound})")
            print("    " + " ".join(f"{v:.4g}" for v in values))
        if args.trace:
            seed = args.seeds[0]
            traced = run(workload, seed, 1)
            if traced["digests"] != runs[0][1]["digests"]:
                raise SystemExit(f"{workload} seed {seed}: traced run saw other inputs or outputs")
            layers = {k: (v["value"], v["unit"]) for k, v in traced["metrics"].items()}
            entry["per_layer"] = {k: value for k, (value, _) in layers.items()}
            entry["layer_shares"] = {
                name: {"self": own, "inclusive": inclusive}
                for name, (own, inclusive) in layer_shares(layers).items()
            }
            print(f"  seed {seed} traced: same inputs and outputs; shares of time inside afo:")
            for name, share in entry["layer_shares"].items():
                if share["inclusive"] > 0:
                    print(f"    {name:42s} self {share['self']:6.1%} inclusive {share['inclusive']:6.1%}")
        record["workloads"][workload] = entry
        sys.stdout.flush()

    if args.write:
        (HERE / "BASELINE.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
