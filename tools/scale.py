"""Best-of-N times on the scale families that no benchmark pool holds.

    python3 tools/scale.py [--repeat N] [--small]

Each case builds a fresh framework (or document) per repeat, so no graph
index or SCC mask is carried over from an earlier call, and times one call:

* `pipeline.sharpen` on the forking chain (`tests/generators.forking_chain`)
  at k=8 and k=10;
* `preferred` and `cf2` on linked 2-cycles (`linked_two_cycles`) at n=500;
* `preferred` on chained 4-cycles (`chained_four_cycles`) at k=18 with
  their ids renamed in reverse order, so id order runs against the chain;
* `validate_lattice`, `build_model` and `pipeline.sharpen` on
  `flower_document(random.Random(1), h)` at h=1,000 and h=2,000;
* `pipeline.sharpen` on `flower_instance(h)` (10h+2 lattice nodes, one
  3-cycle per hub, each merging at its hub) at h=1,000, 2,000 and 4,000.

``--small`` runs every case at its smallest sizes (k=2 and 3, n=20, k=3,
h=10 and 20, h=10, 20 and 40), as a smoke test.  The output is one line per case: its name,
its size, the best and the median of the repeats, in milliseconds.  The
package and the generators are read from the checkout the script lies in.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from afo import Framework, cf2, preferred, validate_lattice  # noqa: E402
from afo.format import build_model, parse_afo  # noqa: E402
from afo.pipeline import sharpen  # noqa: E402
from generators import (  # noqa: E402
    chained_four_cycles,
    flower_document,
    flower_instance,
    forking_chain,
    linked_two_cycles,
)

FULL = {"chain": (8, 10), "two_cycles": (500,), "four_cycles": (18,), "flower": (1000, 2000), "hubs": (1000, 2000, 4000)}
SMALL = {"chain": (2, 3), "two_cycles": (20,), "four_cycles": (3,), "flower": (10, 20), "hubs": (10, 20, 40)}


def fresh(framework: Framework) -> Framework:
    """An equal framework with no index built yet."""
    return Framework(framework.arglets, framework.attacks)


def reversed_ids(framework: Framework) -> Framework:
    """The framework with its ids renamed so that their order is reversed."""
    ids = sorted(framework.argument_ids(), reverse=True)
    name = {a: f"v{i:04d}" for i, a in enumerate(ids)}
    return Framework.of(
        [(name[a], e) for a, e in framework.arglets],
        [((name[s], se), (name[d], de)) for (s, se), (d, de) in framework.attacks],
    )


def timed(call, repeat: int) -> list[float]:
    """`call()` returns a zero-argument function, set up fresh; the times of
    running each of `repeat` of them, in seconds."""
    times = []
    for _ in range(repeat):
        run = call()
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return times


def cases(sizes: dict[str, tuple[int, ...]]):
    """(name, size, setup) per case, where setup() returns the call to time."""
    for k in sizes["chain"]:
        document = parse_afo(forking_chain(k))[0]

        def run_chain(document=document):
            model = build_model(document)
            return lambda: sharpen(model.framework, model.lattice, model.fmap, model.blocked)

        yield "sharpen forking_chain", f"k={k}", run_chain
    for n in sizes["two_cycles"]:
        framework = linked_two_cycles(n)[0]
        yield "preferred linked_two_cycles", f"n={n}", lambda fw=framework: (lambda f=fresh(fw): preferred(f))
        yield "cf2 linked_two_cycles", f"n={n}", lambda fw=framework: (lambda f=fresh(fw): cf2(f))
    for k in sizes["four_cycles"]:
        framework = reversed_ids(chained_four_cycles(k)[0])
        yield "preferred reversed chained_four_cycles", f"k={k}", lambda fw=framework: (lambda f=fresh(fw): preferred(f))
    for h in sizes["flower"]:
        document = parse_afo(flower_document(random.Random(1), h))[0]
        model = build_model(document)
        yield "validate_lattice flower_document", f"h={h}", lambda d=document: lambda: validate_lattice(d.nodes, d.covers)
        yield "build_model flower_document", f"h={h}", lambda d=document: lambda: build_model(d)

        def run_flower(m=model):
            framework = fresh(m.framework)
            return lambda: sharpen(framework, m.lattice, m.fmap, m.blocked)

        yield "sharpen flower_document", f"h={h}", run_flower
    for h in sizes["hubs"]:
        framework, lattice, fmap, blocked = flower_instance(h)

        def run_hubs(fw=framework, lat=lattice, fmap=fmap, blocked=blocked):
            f = fresh(fw)
            return lambda: sharpen(f, lat, fmap, blocked)

        yield "sharpen flower_instance", f"h={h}", run_hubs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=5, help="runs per case (default 5)")
    parser.add_argument("--small", action="store_true", help="every case at its smallest sizes")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    print(f"{'case':40s} {'size':8s} {'best ms':>10s} {'median ms':>10s}")
    for name, size, setup in cases(SMALL if args.small else FULL):
        times = timed(setup, args.repeat)
        print(f"{name:40s} {size:8s} {min(times) * 1e3:10.3f} {statistics.median(times) * 1e3:10.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
