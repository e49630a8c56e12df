"""Spans around calls into afo's public functions, recorded from outside.

``Tracer.installed()`` swaps each traced function, in every afo module that
holds a reference to it, for a wrapper that records one span per call:
name, start, end, parent span, instance id and a count read from the
return value.  Nothing under ``src/`` changes; leaving the block restores
the originals.  Spans stay in memory until ``write`` dumps them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
from pathlib import Path
from time import perf_counter

TRACED = {
    "cli": ["main", "parse_afo", "build_model"],
    "lattice": ["validate_lattice"],
    "af": ["strongly_connected_components"],
    "semantics": ["preferred", "cf2", "grounded_labelling"],
    "abstraction": ["best_abstraction_of", "is_conservative"],
    "pipeline": [
        "maximal_conservative_subsets",
        "derive_abstract_frameworks",
        "abstract_replace",
        "concretize_extension_sets",
        "sharpen",
    ],
}
NAMES = [f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns]

# counter name, how to read it off one return value, how to combine calls
COUNTS = {
    "semantics.preferred": ("semantics.preferred.extensions", len, sum),
    "af.strongly_connected_components": ("af.scc_max_size", lambda r: max(map(len, r), default=0), max),
    "pipeline.maximal_conservative_subsets": ("pipeline.groups_kept", len, sum),
    "pipeline.derive_abstract_frameworks": ("pipeline.frameworks_derived", lambda r: len(r.frameworks), sum),
}
COUNTERS = [name for name, _, _ in COUNTS.values()]


class Tracer:
    def __init__(self):
        # (name, parent span index or -1, instance id, start, end, count or None)
        self.spans: list[tuple] = []
        self.instance = -1
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        read = COUNTS[name][1] if name in COUNTS else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, parent, self.instance, start, end, None)
            if read is not None:
                spans[idx] = (name, parent, self.instance, start, end, read(result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        swapped = []
        holders = [m for key, m in sorted(sys.modules.items()) if key == "afo" or key.startswith("afo.")]
        try:
            for module, fns in TRACED.items():
                home = importlib.import_module(f"afo.{module}")
                for fn_name in fns:
                    original = getattr(home, fn_name)
                    wrapper = self._wrap(f"{module}.{fn_name}", original)
                    for holder in holders:
                        for attr, value in list(vars(holder).items()):
                            if value is original:
                                setattr(holder, attr, wrapper)
                                swapped.append((holder, attr, original))
            yield self
        finally:
            for holder, attr, original in reversed(swapped):
                setattr(holder, attr, original)

    def summary(self, first: int, last: int, scale: float = 1.0) -> dict:
        """Self time, inclusive time, calls and counters of the spans in
        [first, last), times multiplied by `scale`.  Self time is a span's
        duration minus the time its child spans cover; children of one span
        never overlap."""
        self_s = dict.fromkeys(NAMES, 0.0)
        total_s = dict.fromkeys(NAMES, 0.0)
        calls = dict.fromkeys(NAMES, 0)
        counts: dict[str, list] = {c: [] for c in COUNTERS}
        for name, parent, _, start, end, count in self.spans[first:last]:
            took = (end - start) * scale
            self_s[name] += took
            total_s[name] += took
            calls[name] += 1
            if parent >= first:
                self_s[self.spans[parent][0]] -= took
            if count is not None:
                counts[COUNTS[name][0]].append(count)
        combined = {}
        for name, (counter, _, combine) in COUNTS.items():
            combined[counter] = combine(counts[counter]) if counts[counter] else 0
        return {"self_s": self_s, "total_s": total_s, "calls": calls, "counts": combined}

    def write(self, path: Path) -> None:
        origin = self.spans[0][3] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "name", "parent", "instance", "start_us", "end_us", "count"]) + "\n")
            for idx, (name, parent, instance, start, end, count) in enumerate(self.spans):
                start_us, end_us = round((start - origin) * 1e6, 1), round((end - origin) * 1e6, 1)
                fh.write(json.dumps([idx, name, parent, instance, start_us, end_us, count]) + "\n")
