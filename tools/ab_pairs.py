"""Alternating A/B runs of the benchmark on two checkouts.

    python3 tools/ab_pairs.py BASE CHANGE --workload docs extensions --seed 7 --pairs 10

BASE and CHANGE are two full checkouts, for example an export of the parent
commit (``git archive``) and the working tree.  Each pair runs
``bench/run.py --workload W --seed S --seconds T`` once in each checkout,
one after the other, and the side that goes first alternates from pair to
pair.  Runs never overlap.  The workloads named run one after another, and
each gets its own pairs and its own table.  For every end-to-end metric that
``BENCHMARK.json`` declares, the tool prints each side's median and
quartiles, the share of pairs the change won (ties count for neither side),
whether the gain rule holds (the change wins at least nine tenths of the
pairs, the medians differ by more than the distance between the base's
quartiles, and no change run fails a larger share of instances than the
worst base run) and the bound check: WORSE when the change's median is worse
than the base's by more than the metric's bound, unresolved when either
side's quartile spread is wider than the bound and not every change run
reads better than every base run, within otherwise.  A run that attempts no
instance counts as all failed.  Each table is followed by a line holding
every run's metrics of that workload as JSON.  With ``--record PATH`` the
tool also writes one JSON file holding each workload's table and raw runs,
the Python version, ``os.cpu_count()`` and each side's ``git rev-parse HEAD``
(null when the side is not a git checkout).  The exit status is 1 when a
run is incorrect or a bound reads WORSE on any workload, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metrics of one benchmark run in `checkout`, and its correctness."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"error: no result from {checkout} (exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "failed_ratio": result["failed"] / result["attempted"] if result["attempted"] else 1.0,
        **{name: m["value"] for name, m in result["metrics"].items()},
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(base: list[float], change: list[float], better: str, bound: float, fails_more: bool) -> dict:
    """Median, quartiles and pair wins of one metric; the gain rule, which
    never holds when the change `fails_more`; the bound check against
    `bound`, a fraction of the base median."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    bq, cq = quartiles(base), quartiles(change)
    gain = sign * (cq[1] - bq[1])
    allowed = bound * abs(bq[1])
    every_run_better = min(sign * c for c in change) > max(sign * b for b in base)
    if -gain > allowed:
        verdict = "WORSE"
    elif max(bq[2] - bq[0], cq[2] - cq[0]) > allowed and not every_run_better:
        verdict = "unresolved"
    else:
        verdict = "within"
    return {
        "base": bq,
        "change": cq,
        "wins": wins,
        "pairs": len(base),
        "gain_holds": not fails_more and wins >= 0.9 * len(base) and gain > bq[2] - bq[0],
        "bound": verdict,
    }


def run_pairs(base: Path, change: Path, workload: str, seed: int, pairs: int, seconds: float) -> dict[str, list[dict]]:
    """Each side's runs of `workload`, in `pairs` pairs whose first side
    alternates."""
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    for i in range(pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            runs[side].append(run_bench(base if side == "base" else change, workload, seed, seconds))
        b, c = runs["base"][-1], runs["change"][-1]
        print(f"pair {i + 1} ({order[0]} first): instances_per_s {b['instances_per_s']:.4g} -> {c['instances_per_s']:.4g}", flush=True)
    return runs


def report(declared: dict, runs: dict[str, list[dict]]) -> tuple[bool, list[dict]]:
    """Print one row per end-to-end metric; whether every run was correct
    and no bound reads WORSE, and the rows."""
    print(f"{'metric':18s} {'base median [q1, q3]':30s} {'change median [q1, q3]':30s} {'wins':6s} gain rule  bound")
    worst = {side: max(r["failed_ratio"] for r in runs[side]) for side in runs}
    ok = True
    rows = []
    for metric in declared["end_to_end"]:
        name = metric["name"]
        row = compare(
            [r[name] for r in runs["base"]],
            [r[name] for r in runs["change"]],
            metric["better"],
            metric["bound"],
            fails_more=worst["change"] > worst["base"],
        )
        rows.append({"metric": name, **row})
        ok &= row["bound"] != "WORSE"
        base, change = (f"{q2:.4g} [{q1:.4g}, {q3:.4g}]" for q1, q2, q3 in (row["base"], row["change"]))
        wins = f"{row['wins']}/{row['pairs']}"
        print(
            f"{name:18s} {base:30s} {change:30s} {wins:6s} {'holds' if row['gain_holds'] else 'no':10s}"
            f" {row['bound']}"
        )
    for side in ("base", "change"):
        correct = all(r["correct"] for r in runs[side])
        ok &= correct
        print(f"{side}: failed_ratio at most {worst[side]:.6g}, all correct: {correct}")
    return ok, rows


def head(checkout: Path) -> str | None:
    """`git rev-parse HEAD` in the checkout; None when it is not a git checkout."""
    if not (checkout / ".git").exists():
        return None
    return subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True, check=True
    ).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--record", type=Path, metavar="PATH", help="write the tables, the runs and the setting as JSON")
    args = parser.parse_args(argv)

    declared = json.loads((args.base / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else declared["run_seconds"]
    record = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "commits": {"base": head(args.base), "change": head(args.change)},
        "seed": args.seed,
        "pairs": args.pairs,
        "seconds": seconds,
        "workloads": {},
    }
    ok = True
    for workload in args.workload:
        runs = run_pairs(args.base, args.change, workload, args.seed, args.pairs, seconds)
        print(f"workload {workload} seed {args.seed}, {args.pairs} pairs of {seconds:g} s runs")
        workload_ok, rows = report(declared, runs)
        ok &= workload_ok
        print(json.dumps({"workload": workload, "seed": args.seed, "seconds": seconds, "runs": runs}))
        record["workloads"][workload] = {"table": rows, "runs": runs}
    if args.record:
        args.record.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
