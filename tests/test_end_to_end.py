"""`afo sharpen --json` against `oracle_sharpen`, whole payload by payload,
and `afo abstract --explain` against `oracle_scan`, SCC by SCC.

Each draw is written out as an `.afo` document and run through the CLI;
the reference reads the same text with the former parser and chains the
subset-enumerating references, so nothing on its side comes from the
package.  On a mismatch of `sharpen --json`, the assertion message holds
the document shrunk by delta debugging (`shrink`) to one that still
mismatches.
"""

import json
import random

from afo import AfoDocument, serialize_afo
from afo.cli import main

from generators import conservative_instance, forking_chain, hub_pairs_document, multi_hub_instance, ring_instance
from oracles import oracle_scan, oracle_sharpen
from shrink import shrink

LABELS = {
    "plus_approved_credulous",
    "plus_approved_skeptical",
    "questioned",
    "minus_approved",
    "implied_credulous",
    "implied_skeptical",
}


def afo_text(framework, lattice, fmap, blocked) -> str:
    """The `.afo` document of a generated instance, M given by its members."""
    fields = (lattice.nodes, lattice.covers, blocked, fmap.items(), framework.arglets, framework.attacks)
    return serialize_afo(AfoDocument(*(tuple(sorted(field)) for field in fields)))


def sharpen_mismatches(text, capsys, tmp_path) -> bool:
    """Whether the package accepts the document and its `sharpen --json`
    payload differs from `oracle_sharpen`'s.  A document the package
    rejects does not count; one it accepts, the oracle reads."""
    path = tmp_path / "shrunk.afo"
    path.write_text(text, encoding="utf-8")
    code = main(["sharpen", str(path), "--json"])
    out = capsys.readouterr().out
    return code == 0 and json.loads(out) != oracle_sharpen(text)


def minimal_mismatch(text, capsys, tmp_path) -> str:
    """The assertion message of a `sharpen --json` mismatch."""
    return "minimal mismatching document:\n" + shrink(text, lambda t: sharpen_mismatches(t, capsys, tmp_path))


def _hub_document(rng) -> str:
    names = iter(f"n{i}" for i in range(13))
    pairs = [(next(names), next(names)) for _ in range(rng.randint(0, 2))]
    loners = [next(names) for _ in range(rng.randint(0, 1))]
    squares = [tuple(next(names) for _ in range(4)) for _ in range(rng.randint(1 if not pairs else 0, 2))]
    return hub_pairs_document(pairs, loners, squares)


def _raided_document(rng) -> str:
    """Forks that project alike: raiders out every member of the first
    square, whichever of its two groups is merged."""
    names = iter(f"n{i}" for i in range(15))
    squares = [tuple(next(names) for _ in range(4)) for _ in range(rng.randint(1, 2))]
    pairs = [(next(names), next(names)) for _ in range(rng.randint(0, 1))]
    raiders = [next(names) for _ in range(rng.randint(1, 2))]
    return hub_pairs_document(pairs, (), squares, raiders)


def _documents(rng):
    for _ in range(30):
        yield afo_text(*multi_hub_instance(rng, outsiders=rng.randint(0, 1)))
    for _ in range(10):
        yield afo_text(*conservative_instance(rng)[:4])
    for _ in range(8):
        yield afo_text(*ring_instance(rng))
    for _ in range(8):
        yield _hub_document(rng)
    for _ in range(8):
        yield _raided_document(rng)


def test_sharpen_json_matches_the_end_to_end_oracle(capsys, tmp_path):
    rng = random.Random(1701)
    forking, alike, labels = 0, 0, set()
    for i, text in enumerate(_documents(rng)):
        path = tmp_path / f"doc{i}.afo"
        path.write_text(text, encoding="utf-8")
        assert main(["sharpen", str(path), "--json"]) == 0
        got = json.loads(capsys.readouterr().out)
        assert got == oracle_sharpen(text), minimal_mismatch(text, capsys, tmp_path)
        forking += len(got["sigma"]) >= 2
        alike += len(got["projected"]) < len(got["sigma"])
        labels.update(label for verdict in got["classification"].values() for label in verdict["sharpened"])
    # 27 of 64 at this seed; implied_skeptical, the rarest label, is hit 4 times
    assert forking >= 20
    # documents with two forks that project alike, which only the dedup in
    # `concretize_extension_sets` reports once: 8 at this seed, the raided ones
    assert alike >= 6
    assert labels == LABELS


def test_forking_chain_matches_the_end_to_end_oracle(capsys, tmp_path):
    """k chained squares fork 2^k frameworks whose projections all differ,
    so each verdict is counted over 2^k projections."""
    for k in (1, 2, 3):
        text = forking_chain(k)
        path = tmp_path / f"chain{k}.afo"
        path.write_text(text, encoding="utf-8")
        assert main(["sharpen", str(path), "--json"]) == 0
        got = json.loads(capsys.readouterr().out)
        assert got == oracle_sharpen(text), minimal_mismatch(text, capsys, tmp_path)
        assert len(got["sigma"]) == len(got["projected"]) == 2**k


def _forking_document(rng) -> str:
    """One or two squares, each an SCC keeping two groups, with pairs so
    that two or more SCCs keep some, and up to two clashes: 2-cycles on one
    atom, which keep no group, as their members attack each other through
    equal images.  Names are shuffled, so the SCC order varies."""
    names = [f"n{i}" for i in range(16)]
    rng.shuffle(names)
    names = iter(names)
    squares = [tuple(next(names) for _ in range(4)) for _ in range(rng.randint(1, 2))]
    pairs = [(next(names), next(names)) for _ in range(rng.randint(2 - len(squares), 2))]
    text = hub_pairs_document(pairs, (), squares)
    for _ in range(rng.randint(0, 2)):
        x, y = next(names), next(names)
        text += f"arglet {x} ep\narglet {y} ep\nattack {x}.ep {y}.ep\nattack {y}.ep {x}.ep\n"
    return text


def _id_set(text: str) -> frozenset:
    return frozenset(text[1:-1].split(", "))


def _explained(out: str) -> list:
    """(SCC, [(targets, merged id)], printed "no conservative group") per
    SCC of an `abstract --explain` output, in printed order."""
    sccs = []
    for line in out.splitlines():
        if line.startswith("scc "):
            sccs.append((_id_set(line[4:-1]), [], False))
        elif line.startswith("  group "):
            targets, rest = line[len("  group "):].split(" -> ")
            sccs[-1][1].append((_id_set(targets), rest.split(" at ")[0]))
        elif line == "  no conservative group":
            sccs[-1] = sccs[-1][:2] + (True,)
    return sccs


def test_explain_lists_every_replacement_of_forking_documents(capsys, tmp_path):
    rng = random.Random(2020)
    texts = [_forking_document(rng) for _ in range(24)]
    texts.append(hub_pairs_document([("a+b", "c"), ("a", "b+c")]))
    multi, none, ids = 0, 0, []
    for i, text in enumerate(texts):
        path = tmp_path / f"doc{i}.afo"
        path.write_text(text, encoding="utf-8")
        assert main(["abstract", str(path), "--json"]) == 0
        sigma = json.loads(capsys.readouterr().out)["sigma"]
        merged = {
            (frozenset(p["scc"]), frozenset(p["targets"])): p["abstract"]["id"]
            for f in sigma
            for p in f["provenance"]
        }
        assert main(["abstract", str(path), "--explain"]) == 0
        printed = _explained(capsys.readouterr().out)
        scan = [(scc, steps) for scc, steps in oracle_scan(text) if len(scc) >= 2]
        assert [scc for scc, _, _ in printed] == [scc for scc, _ in scan], text
        for (scc, groups, no_group), (_, steps) in zip(printed, scan):
            assert [targets for targets, _ in groups] == [group for group, _, _ in steps], text
            assert [arg_id for _, arg_id in groups] == [merged[scc, targets] for targets, _ in groups], text
            assert [arg_id for _, arg_id in groups] == [arg_id for _, arg_id, _ in steps], text
            assert no_group == (not steps), text
            multi += len(groups) >= 2
            none += no_group
            ids += [arg_id for _, arg_id in groups]
        assert sum(bool(groups) for _, groups, _ in printed) >= 2, text
    # 34 squares and 27 clashes at this seed
    assert multi >= 30
    assert none >= 20
    assert ids[-2:] == ["a+b+c", "a+b+c'"]
