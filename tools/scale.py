"""Best-of-N times, and peak memory, on the scale families that no
benchmark pool holds.

    python3 tools/scale.py [--repeat N] [--small]

Each case builds a fresh framework (or document) per repeat, so no graph
index or SCC mask is carried over from an earlier call, and times one call:

* `pipeline.sharpen` on the forking chain (`tests/generators.forking_chain`)
  at k=8 and k=10, and `afo sharpen --json` on the same chain written to a
  file (`cli.main`, its stdout sent to a stream that discards it);
* `preferred` and `cf2` on linked 2-cycles (`linked_two_cycles`) at n=500;
* `preferred` on chained 4-cycles (`chained_four_cycles`) at k=18 with
  their ids renamed in reverse order, so id order runs against the chain;
* `load_afo` on `flower_document(random.Random(1), h)` written to a file,
  `parse_afo` on its text (the scan and resolution alone, without the read,
  the lattice's validation and the model), and `validate_lattice`,
  `build_model` and `pipeline.sharpen` on the same document, at h=1,000
  and h=2,000;
* `validate_lattice` on the product of two `flower_diagram(h, 3)`
  lattices (`product_diagram`), where most nodes have two upper covers or
  more, at h=12 and 24 (2,500 and 9,604 nodes), and on
  `flower_diagram(h, 9)` with two atoms `za`, `zb` under two incomparable
  upper bounds added, at h=400 (4,006 nodes), timed until it raises
  NonUniqueJoin for `za` and `zb`, a pair that sorts after nearly all
  others, so the ordered pair loop walks nearly every pair;
* `pipeline.derive_abstract_frameworks` and `pipeline.sharpen` on
  `flower_instance(h)` (10h+2 lattice nodes, one 3-cycle per hub, each
  merging at its hub) at h=1,000, 2,000 and 4,000.

``--small`` runs every case at its smallest sizes (k=2 and 3, n=20, k=3,
h=10 and 20, h=3 and 6, h=3, h=10, 20 and 40), as a smoke test.  The
output is one line per case: its name, its size, the best and the median
of the repeats, in milliseconds, and, for one more call run under
`tracemalloc` after a `gc.collect()`, the peak of memory allocated during
the call and the memory still allocated when it returns, with its result
held.  The package and the generators are read from the checkout the
script lies in.

One run per commit cannot compare two commits: the rows of one commit
read up to 1.5x apart from one process to the next.  To compare, run
three processes per side, interleaved (parent, change, parent, ...), and
take each row's best over a side's processes; the memory columns repeat
exactly in every process.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import random
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from afo import Framework, NonUniqueJoin, cf2, cli, preferred, validate_lattice  # noqa: E402
from afo.format import build_model, load_afo, parse_afo  # noqa: E402
from afo.pipeline import derive_abstract_frameworks, sharpen  # noqa: E402
from generators import (  # noqa: E402
    chained_four_cycles,
    flower_diagram,
    flower_document,
    flower_instance,
    forking_chain,
    linked_two_cycles,
    product_diagram,
)

FULL = {
    "chain": (8, 10),
    "two_cycles": (500,),
    "four_cycles": (18,),
    "flower": (1000, 2000),
    "product": (12, 24),
    "failing": (400,),
    "hubs": (1000, 2000, 4000),
}
SMALL = {
    "chain": (2, 3),
    "two_cycles": (20,),
    "four_cycles": (3,),
    "flower": (10, 20),
    "product": (3, 6),
    "failing": (3,),
    "hubs": (10, 20, 40),
}


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


class Discard(io.TextIOBase):
    """A text stream that drops what is written to it."""

    def write(self, text: str) -> int:
        return len(text)


def quiet_cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(Discard()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"error: afo {' '.join(argv)} exited {code}")


def failing(nodes: list[str], covers: list[tuple[str, str]]):
    """A call that validates the diagram and returns the NonUniqueJoin it
    raises."""

    def run() -> NonUniqueJoin:
        try:
            validate_lattice(nodes, covers)
        except NonUniqueJoin as exc:
            return exc
        raise SystemExit("error: the failing flower validated")

    return run


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


def memory(call) -> tuple[int, int]:
    """The peak of memory allocated while one call set up by `call()` runs,
    and the memory still allocated when it returns, its result held.  A
    collection first starts the cyclic collector's count afresh, so the
    figures do not depend on what the rows before allocated."""
    run = call()
    gc.collect()
    tracemalloc.start()
    try:
        result = run()  # noqa: F841 (held while the memory is read)
        kept, peak = tracemalloc.get_traced_memory()
        return peak, kept
    finally:
        tracemalloc.stop()


def cases(sizes: dict[str, tuple[int, ...]], tmp: Path):
    """(name, size, setup) per case, where setup() returns the call to time;
    files the cases read are written under `tmp`."""
    for k in sizes["chain"]:
        text = forking_chain(k)
        document = parse_afo(text)[0]

        def run_chain(document=document):
            model = build_model(document)
            return lambda: sharpen(model.framework, model.lattice, model.fmap, model.blocked)

        yield "sharpen forking_chain", f"k={k}", run_chain
        path = tmp / f"forking_chain{k}.afo"
        path.write_text(text, encoding="utf-8")
        argv = ["sharpen", str(path), "--json"]
        yield "cli sharpen --json forking_chain", f"k={k}", lambda argv=argv: lambda: quiet_cli(argv)
    for n in sizes["two_cycles"]:
        framework = linked_two_cycles(n)[0]
        yield "preferred linked_two_cycles", f"n={n}", lambda fw=framework: (lambda f=fresh(fw): preferred(f))
        yield "cf2 linked_two_cycles", f"n={n}", lambda fw=framework: (lambda f=fresh(fw): cf2(f))
    for k in sizes["four_cycles"]:
        framework = reversed_ids(chained_four_cycles(k)[0])
        yield "preferred reversed chained_four_cycles", f"k={k}", lambda fw=framework: (lambda f=fresh(fw): preferred(f))
    for h in sizes["flower"]:
        text = flower_document(random.Random(1), h)
        path = tmp / f"flower_document{h}.afo"
        path.write_text(text, encoding="utf-8")
        yield "load_afo flower_document", f"h={h}", lambda p=str(path): lambda: load_afo(p)
        yield "parse_afo flower_document", f"h={h}", lambda t=text: lambda: parse_afo(t)
        document = parse_afo(text)[0]
        model = build_model(document)
        yield "validate_lattice flower_document", f"h={h}", lambda d=document: lambda: validate_lattice(d.nodes, d.covers)
        yield "build_model flower_document", f"h={h}", lambda d=document: lambda: build_model(d)

        def run_flower(m=model):
            framework = fresh(m.framework)
            return lambda: sharpen(framework, m.lattice, m.fmap, m.blocked)

        yield "sharpen flower_document", f"h={h}", run_flower
    for h in sizes["product"]:
        nodes, covers = product_diagram(flower_diagram(h, 3), flower_diagram(h, 3))
        yield "validate_lattice product_diagram", f"n={len(nodes)}", lambda d=(nodes, covers): lambda: validate_lattice(*d)
    for h in sizes["failing"]:
        nodes, covers = flower_diagram(h, 9)
        nodes += ["za", "zb", "zc", "zd"]
        covers += [("bot", "za"), ("bot", "zb"), ("zc", "top"), ("zd", "top")]
        covers += [(z, bound) for z in ("za", "zb") for bound in ("zc", "zd")]
        yield "validate_lattice failing flower", f"n={len(nodes)}", lambda d=(nodes, covers): failing(*d)
    for h in sizes["hubs"]:
        framework, lattice, fmap, blocked = flower_instance(h)

        for call in (derive_abstract_frameworks, sharpen):

            def run_hubs(call=call, fw=framework, lat=lattice, fmap=fmap, blocked=blocked):
                f = fresh(fw)
                return lambda: call(f, lat, fmap, blocked)

            yield f"{call.__name__} flower_instance", f"h={h}", run_hubs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=5, help="runs per case (default 5)")
    parser.add_argument("--small", action="store_true", help="every case at its smallest sizes")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    print(f"{'case':44s} {'size':8s} {'best ms':>10s} {'median ms':>10s} {'peak MiB':>10s} {'kept MiB':>10s}")
    with tempfile.TemporaryDirectory() as tmp:
        for name, size, setup in cases(SMALL if args.small else FULL, Path(tmp)):
            times = timed(setup, args.repeat)
            peak, kept = (n / 2**20 for n in memory(setup))
            best, median = min(times) * 1e3, statistics.median(times) * 1e3
            print(f"{name:44s} {size:8s} {best:10.3f} {median:10.3f} {peak:10.3f} {kept:10.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
