"""Benchmark of the afo library and CLI.

    python3 bench/run.py --workload docs --seed 1 --seconds 20 --trace 0

One process and one thread drive a closed loop: a single caller runs one
instance, waits for its answer, then runs the next, cycling through a pool
of inputs made from ``--seed``.  A warm-up pass (untimed) records every
instance's answer; after the timed passes each answer is checked against a
reference computed without the package, and every later pass must give
exactly the warm-up's answer.  See README.md for the workloads.

Times are reported at a fixed reference speed.  The machine this runs on
is shared and its speed drifts by 20% over tens of seconds, so after each
instance the loop also times ``reference_work()``, fixed Python work that
never touches afo, and scales each pass's times by REFERENCE_S over the
mean reference time measured in that pass.  Set-up time is scaled the same
way by a reference interpreter.  The uncalibrated figures are printed too.
An untimed pass under tracemalloc then measures afo's own working memory.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it reports per-layer
self time, calls and counters, and writes every span to
``bench/out/spans-<workload>.jsonl``.  The exit code is 0 only if every
answer was right.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("docs", "extensions", "groupscan")
# pool sizes; a timed pass runs each instance once
POOL = {"docs": 288, "extensions": 240, "groupscan": 54}
# instances the memory pass runs, since tracemalloc makes each call about
# five times slower: whole cycles of the pool's sizes, and all of the
# extensions pool, whose peaks vary most with the wiring
MEMORY_SAMPLE = {"docs": 72, "extensions": 240, "groupscan": 18}
MIN_PASSES = 3
SETUP_REPEATS = 21
SETUP_CODE = "import afo, afo.cli"
SETUP_REFERENCE_CODE = "import argparse, json, dataclasses, pathlib, typing"
# Median wall times, on the machine the baseline was recorded on (2 cores,
# Python 3.11.7), of one reference_work() call and of an interpreter running
# SETUP_REFERENCE_CODE.  Reported times are scaled by these over the
# reference times measured alongside them; see README.md.
REFERENCE_S = 6.5e-4
REFERENCE_SPAWN_S = 0.065


def load_package() -> None:
    """Put the checkout's own sources first on the path, or stop."""
    if not (SRC / "afo" / "__init__.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        raise SystemExit(f"error: no afo sources under {ROOT}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import afo

    if Path(afo.__file__).resolve().parent != SRC / "afo":
        raise SystemExit(f"error: imported afo from {afo.__file__}, not from {SRC}")


def reference_work() -> list[int]:
    """Fixed set and dict churn that never touches afo.  Its time tracks how
    fast this machine runs Python at the moment."""
    acc: dict[frozenset, int] = {}
    for i in range(400):
        key = frozenset((f"a{i % 17}", f"b{i % 23}", f"c{i % 31}"))
        acc[key] = acc.get(key, 0) + len(key | {i % 7})
    return sorted(acc.values())


def setup_seconds() -> float:
    """Time of a fresh interpreter importing afo and afo.cli, at the
    reference speed.

    Each timed interpreter is followed by one that imports only standard
    modules; the median ratio of the two times, times REFERENCE_SPAWN_S, is
    the result.  Timing reference_work() in this process did not track how
    fast a new process starts.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def spawn(code: str) -> float:
        # no timeout: with one, the wait polls in steps of up to 50 ms
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        return perf_counter() - start

    spawn(SETUP_CODE)  # writes the bytecode caches
    raw, ratios = [], []
    for _ in range(SETUP_REPEATS):
        took = spawn(SETUP_CODE)
        raw.append(took)
        ratios.append(took / spawn(SETUP_REFERENCE_CODE))
    print(f"uncalibrated setup: {statistics.median(raw):.4g} s")
    return REFERENCE_SPAWN_S * statistics.median(ratios)


def build(workload: str, seed: int):
    import workloads

    if workload == "docs":
        return workloads.docs(seed, POOL["docs"], OUT / "docs")
    if workload == "extensions":
        return workloads.extensions(seed, POOL["extensions"])
    return workloads.groupscan(seed, POOL["groupscan"])


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8") + b"\0")
    return h.hexdigest()[:16]


def canonical(answer):
    """An answer as plain JSON data with every set sorted, for a digest that
    does not depend on the interpreter's hash seed."""
    if isinstance(answer, Raised):
        return repr(answer)
    if dataclasses.is_dataclass(answer):
        return canonical(vars(answer))
    if isinstance(answer, dict):
        return [[k, canonical(v)] for k, v in sorted(answer.items())]
    if isinstance(answer, (set, frozenset)):
        return sorted(canonical(x) for x in answer)
    if isinstance(answer, (list, tuple)):
        return [canonical(x) for x in answer]
    return answer


class Raised:
    """Stands in for the answer of an instance that raised."""

    def __init__(self, exc: Exception):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, Raised) and other.text == self.text

    def __repr__(self):
        return f"raised {self.text}"


class Loop:
    """Runs passes over the pool and tallies answers that differ from the warm-up's."""

    def __init__(self, pool):
        self.pool = pool
        self.reference = []
        self.runs = [0] * len(pool)
        self.differ = [0] * len(pool)
        self.next_instance = 0

    def _call(self, inst):
        try:
            return inst.run()
        except Exception as exc:  # an unexpected error is a failed instance
            return Raised(exc)

    def _tally(self, i: int, answer) -> None:
        self.runs[i] += 1
        if answer != self.reference[i]:
            self.differ[i] += 1

    def warm_up(self) -> None:
        for i, inst in enumerate(self.pool):
            self.reference.append(self._call(inst))
            self.runs[i] += 1

    def timed_pass(self, tracer=None) -> tuple[list[float], float]:
        """Latency of each instance, and the pass's reference scale.

        One reference_work() call follows each instance, outside its timing,
        so the reference time is measured across the same stretch of time.
        The instance's answer is freed before it, so the reference runs on
        the same heap every time.
        """
        latencies, reference = [], 0.0
        for i, inst in enumerate(self.pool):
            if tracer is not None:
                tracer.instance = self.next_instance
            self.next_instance += 1
            start = perf_counter()
            answer = self._call(inst)
            latencies.append(perf_counter() - start)
            self._tally(i, answer)
            del answer
            # with the collector off, collections that afo's allocations
            # call for happen in afo's own timing, never in the reference's
            gc.disable()
            start = perf_counter()
            reference_work()
            reference += perf_counter() - start
            gc.enable()
        return latencies, REFERENCE_S * len(self.pool) / reference

    def memory_pass(self, count: int) -> list[int]:
        """Bytes each of the first `count` instances allocates at its peak,
        above what was allocated when it started, as tracemalloc counts
        them (untimed).  Each starts on a collected heap, so where the
        collector runs inside it, and with that the peak, depends only on
        the instance."""
        peaks = []
        tracemalloc.start()
        try:
            for i, inst in enumerate(self.pool[:count]):
                gc.collect()
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                answer = self._call(inst)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
                self._tally(i, answer)
                del answer
        finally:
            tracemalloc.stop()
        return peaks

    def check(self) -> tuple[int, int, list[str]]:
        """Attempted and failed instances, and what went wrong."""
        failed, problems = 0, []
        for i, inst in enumerate(self.pool):
            ref = self.reference[i]
            try:
                wrong = repr(ref) if isinstance(ref, Raised) else inst.check(ref)
            except Exception as exc:  # an answer the check cannot even read
                wrong = f"unreadable answer: {type(exc).__name__}: {exc}"
            if wrong:
                problems.append(f"{inst.label}: {wrong}")
                failed += self.runs[i]
            else:
                failed += self.differ[i]
                if self.differ[i]:
                    problems.append(f"{inst.label}: {self.differ[i]} answers differ from the first")
        return sum(self.runs), failed, problems


def end_to_end(loop: Loop, seconds: float, setup_s: float, workload: str) -> dict:
    scaled_passes, scaled, raw = [], [], []
    start = perf_counter()
    while len(scaled_passes) < MIN_PASSES or perf_counter() - start < seconds:
        latencies, scale = loop.timed_pass()
        scaled_passes.append(sum(latencies) * scale)
        scaled.extend(t * scale for t in latencies)
        raw.extend(latencies)
    # read before tracemalloc, whose own tables would count
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    instance_peaks = loop.memory_pass(MEMORY_SAMPLE[workload])
    print(f"{len(scaled_passes)} timed passes, {len(scaled)} latency samples")
    print(
        f"uncalibrated: {len(raw) / sum(raw):.4g} instances/s, "
        f"p50 {statistics.median(raw) * 1e3:.4g} ms, p90 {statistics.quantiles(raw, n=10)[8] * 1e3:.4g} ms"
    )
    return {
        "instances_per_s": (len(loop.pool) / statistics.median(scaled_passes), "1/s"),
        "latency_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(scaled, n=10)[8] * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "instance_peak_kb": (statistics.mean(instance_peaks) / 1024, "KB"),
    }


def layer_shares(metrics: dict) -> dict:
    """Each traced function's self and inclusive time as a share of all self time."""
    inside = sum(metrics[f"{name}.self_s"][0] for name in tracing.NAMES) or 1.0
    return {
        name: (metrics[f"{name}.self_s"][0] / inside, metrics[f"{name}.total_s"][0] / inside)
        for name in tracing.NAMES
    }


def per_layer(loop: Loop, seconds: float, workload: str) -> dict:
    tracer = tracing.Tracer()
    plain, traced, summaries = [], [], []
    start = perf_counter()
    while len(traced) < MIN_PASSES or perf_counter() - start < seconds:
        latencies, scale = loop.timed_pass()
        plain.append(sum(latencies) * scale)
        first = len(tracer.spans)
        with tracer.installed():
            latencies, _ = loop.timed_pass(tracer)
        # the reference work runs ~25% slower while spans pile up, so a
        # traced pass borrows the scale of the untraced pass just before it
        traced.append(sum(latencies) * scale)
        summaries.append(tracer.summary(first, len(tracer.spans), scale))
    tracer.write(OUT / f"spans-{workload}.jsonl")
    print(f"{len(traced)} traced and {len(plain)} untraced passes, {len(tracer.spans)} spans")

    metrics = {}
    for name in tracing.NAMES:
        for kind in ("self_s", "total_s"):
            metrics[f"{name}.{kind}"] = (statistics.median(s[kind][name] for s in summaries), "s")
        metrics[f"{name}.calls"] = (statistics.median(s["calls"][name] for s in summaries), "count")
    print("layer shares of the time spent inside afo (self, inclusive):")
    for name, (self_share, total_share) in layer_shares(metrics).items():
        print(f"  {name:42s} {100 * self_share:6.2f}% {100 * total_share:6.2f}%")
    for counter in tracing.COUNTERS:
        metrics[counter] = (statistics.median(s["counts"][counter] for s in summaries), "count")
    scans = metrics["abstraction.is_conservative.calls"][0]
    metrics["pipeline.group_yield"] = (metrics["pipeline.groups_kept"][0] / scans if scans else 0.0, "ratio")
    metrics["trace_overhead_ratio"] = (statistics.median(traced) / statistics.median(plain), "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_package()
    setup_s = None if args.trace else setup_seconds()

    # the self-check's pool is digested and dropped before the timed pool
    # is built, so the two never sit in memory together
    regenerated = digest(f"{inst.label}\n{inst.text}" for inst in build(args.workload, args.seed))
    pool = build(args.workload, args.seed)
    inputs = digest(f"{inst.label}\n{inst.text}" for inst in pool)
    print(f"workload {args.workload} seed {args.seed}: {len(pool)} inputs, input digest {inputs}")
    if regenerated != inputs:
        print(f"seed self-check FAILED: regenerated inputs have digest {regenerated}")

    loop = Loop(pool)
    loop.warm_up()
    # the pool stays alive for the whole run; keep it out of the collector's scans
    gc.collect()
    gc.freeze()
    if args.trace:
        metrics = per_layer(loop, args.seconds, args.workload)
    else:
        metrics = end_to_end(loop, args.seconds, setup_s, args.workload)

    attempted, failed, problems = loop.check()
    print(f"output digest {digest(json.dumps(canonical(ref)) for ref in loop.reference)}")
    for problem in problems[:20]:
        print(f"  wrong: {problem}")
    correct = failed == 0 and regenerated == inputs
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(f"{args.workload} failed_ratio {failed / attempted:.6g} ({failed} of {attempted} instances)")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
