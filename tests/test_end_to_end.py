"""`afo sharpen --json` against `oracle_sharpen`, whole payload by payload.

Each draw is written out as an `.afo` document and run through the CLI;
the reference reads the same text with the former parser and chains the
subset-enumerating references, so nothing on its side comes from the
package.
"""

import json
import random

from afo import AfoDocument, serialize_afo
from afo.cli import main

from generators import conservative_instance, hub_pairs_document, multi_hub_instance, ring_instance
from oracles import oracle_sharpen

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
        assert got == oracle_sharpen(text), text
        forking += len(got["sigma"]) >= 2
        alike += len(got["projected"]) < len(got["sigma"])
        labels.update(label for verdict in got["classification"].values() for label in verdict["sharpened"])
    # 27 of 64 at this seed; implied_skeptical, the rarest label, is hit 4 times
    assert forking >= 20
    # documents with two forks that project alike, which only the dedup in
    # `concretize_extension_sets` reports once: 8 at this seed, the raided ones
    assert alike >= 6
    assert labels == LABELS
