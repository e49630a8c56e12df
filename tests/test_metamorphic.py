"""Metamorphic relations on frameworks past brute force's reach.

Brute force stops near a dozen arguments; these inputs have 50 to 250.
With no reference answer to compare against, each test checks how the
answer must move when the input moves (Chen et al., "Metamorphic testing:
a review of challenges and opportunities", ACM CSUR 2018).
"""

import json
import random
import re

import pytest

from afo import Framework, cf2, is_admissible, preferred
from afo.cli import main
from afo.format import build_model, parse_afo
from afo.pipeline import sharpen

from generators import (
    chained_four_cycles,
    flower_document,
    forking_chain,
    hub_pairs_document,
    linked_two_cycles,
    ring,
    sparse_framework,
)


def _large():
    """(label, framework, whether cf2 is asked of it).  cf2 is not asked of
    the rings: on one SCC its answer is the naive sets, and a ring of 101
    has billions of them."""
    rng = random.Random(2018)
    out = [
        ("chained 4-cycles k=13", chained_four_cycles(13)[0], True),
        ("chained 4-cycles k=40", chained_four_cycles(40)[0], True),
        ("linked 2-cycles n=50", linked_two_cycles(50)[0], True),
        ("linked 2-cycles n=126", linked_two_cycles(126)[0], True),
        ("ring n=101", ring(101)[0], False),
        ("ring n=250", ring(250)[0], False),
    ]
    for n in (50, 120, 250):
        out.append((f"sparse n={n}", sparse_framework(rng, n, n, density=1.8 / (n - 1)), True))
    return out


LARGE = _large()
CASES = [(label, fw, sem) for label, fw, with_cf2 in LARGE for sem in ((preferred, cf2) if with_cf2 else (preferred,))]
IDS = [f"{label}, {sem.__name__}" for label, _, sem in CASES]


def _renamed(framework, name):
    return Framework.of(
        [(name[a], e) for a, e in framework.arglets],
        [((name[s], se), (name[d], de)) for (s, se), (d, de) in framework.attacks],
    )


def _union(first, second):
    return Framework(first.arglets | second.arglets, first.attacks | second.attacks)


@pytest.mark.parametrize("label, framework, semantics", CASES, ids=IDS)
def test_renaming_ids_renames_the_extensions(label, framework, semantics):
    ids = sorted(framework.argument_ids())
    shuffled = ids[:]
    random.Random(label).shuffle(shuffled)
    # new names in shuffled order, so the id order changes too
    name = {a: f"v{i:03d}" for i, a in enumerate(shuffled)}
    got = semantics(_renamed(framework, name))
    assert len(got) == len(set(got))
    assert set(got) == {frozenset(name[a] for a in e) for e in semantics(framework)}


@pytest.mark.parametrize("label, framework, semantics", CASES, ids=IDS)
def test_a_disjoint_union_gives_the_product_of_the_extensions(label, framework, semantics):
    partner = chained_four_cycles(3)[0]
    partner = _renamed(partner, {a: f"u{a}" for a in partner.argument_ids()})
    want = {e | f for e in semantics(framework) for f in semantics(partner)}
    got = semantics(_union(framework, partner))
    assert len(got) == len(want)
    assert set(got) == want


@pytest.mark.parametrize("label, framework, semantics", CASES, ids=IDS)
def test_an_isolated_argument_joins_every_extension(label, framework, semantics):
    lone = Framework.of([("iso", "xiso")], [])
    got = semantics(_union(framework, lone))
    assert len(got) == len(set(got))
    assert set(got) == {e | {"iso"} for e in semantics(framework)}


@pytest.mark.parametrize("label, framework", [(label, fw) for label, fw, _ in LARGE], ids=[label for label, _, _ in LARGE])
def test_preferred_extensions_are_admissible_and_take_no_more(label, framework):
    ids = framework.argument_ids()
    extensions = preferred(framework)
    # every extension of the small cases, eight of the large ones
    for e in random.Random(label).sample(extensions, min(8, len(extensions))):
        assert is_admissible(framework, e)
        for a in sorted(ids - e):
            assert not is_admissible(framework, e | {a}), a


def _sharpen_bytes(text, capsys, tmp_path) -> str:
    """What `afo sharpen --json` writes for the document."""
    path = tmp_path / "doc.afo"
    path.write_text(text, encoding="utf-8")
    assert main(["sharpen", str(path), "--json"]) == 0
    return capsys.readouterr().out


def test_permuting_one_directive_kind_keeps_the_sharpen_bytes(capsys, tmp_path):
    names = iter(f"n{i:02d}" for i in range(50))
    pairs = [(next(names), next(names)) for _ in range(4)]
    squares = [tuple(next(names) for _ in range(4)) for _ in range(3)]
    lines = hub_pairs_document(pairs, list(names), squares).splitlines()
    rng = random.Random(2002)
    want = _sharpen_bytes("\n".join(lines) + "\n", capsys, tmp_path)
    kinds = sorted({line.split()[0] for line in lines})
    assert kinds == ["arglet", "attack", "cover", "map", "node"]
    for kind in kinds:
        slots = [i for i, line in enumerate(lines) if line.split()[0] == kind]
        moved = [lines[i] for i in slots]
        rng.shuffle(moved)
        permuted = lines[:]
        for i, line in zip(slots, moved):
            permuted[i] = line
        assert _sharpen_bytes("\n".join(permuted) + "\n", capsys, tmp_path) == want, kind


def _kept_groups(payload) -> set:
    """(SCC, targets) of every group a `sharpen --json` payload merges."""
    return {(frozenset(p["scc"]), frozenset(p["targets"])) for f in payload["sigma"] for p in f["provenance"]}


def test_growing_m_blocks_only_what_it_covers(capsys, tmp_path):
    """Adding a `general` node that lies below no kept group's node leaves
    the `sharpen --json` bytes as they are.  Adding a kept group's node
    drops every group at or above it and adds no group, except groups
    inside a dropped one, which the dropped group had kept out as not
    maximal: all other groups stay."""
    rng = random.Random(1212)
    unblocked = blocked_groups = inner_groups = 0
    for hubs in (24, 60, 100):
        text = flower_document(rng, hubs)
        model = build_model(parse_afo(text)[0])
        lat, image, arglets = model.lattice, model.fmap.image, model.framework.arglets
        want = _sharpen_bytes(text, capsys, tmp_path)
        kept = _kept_groups(json.loads(want))
        node = {g: lat.join(image(e) for a, e in arglets if a in g[1]) for g in kept}
        assert len(kept) >= hubs // 3
        free = [v for v in sorted(lat.nodes - model.blocked) if not any(lat.leq(v, n) for n in node.values())]
        for v in rng.sample(free, min(3, len(free))):
            assert _sharpen_bytes(f"{text}general {v}\n", capsys, tmp_path) == want, v
            unblocked += 1
        for v in rng.sample(sorted(set(node.values())), 6):
            got = _kept_groups(json.loads(_sharpen_bytes(f"{text}general {v}\n", capsys, tmp_path)))
            dropped = {g for g in kept if lat.leq(v, node[g])}
            assert dropped and not got & dropped, v
            assert kept - dropped <= got, v
            for scc, targets in got - kept:
                assert any(scc == s and targets < t for s, t in dropped), (v, targets)
            blocked_groups += len(dropped)
            inner_groups += len(got - kept)
    # 18 groups dropped and 4 found inside them at this seed
    assert unblocked == 9
    assert blocked_groups >= 18
    assert inner_groups >= 3


def _cli_bytes(args, text, capsys, tmp_path) -> str:
    path = tmp_path / "doc.afo"
    path.write_text(text, encoding="utf-8")
    assert main([args[0], str(path), *args[1:]]) == 0
    return capsys.readouterr().out


def _renamed_document(text, name) -> str:
    """The document with every lattice node and expression renamed by
    `name`; argument ids stay."""
    out = []
    for line in text.splitlines():
        kind, *rest = line.split()
        if kind == "arglet":
            rest = [rest[0], name[rest[1]]]
        elif kind == "attack":
            rest = [".".join((a, name[e])) for a, e in (end.split(".") for end in rest)]
        else:
            rest = [name[word] for word in rest]
        out.append(" ".join([kind, *rest]))
    return "\n".join(out) + "\n"


def test_renaming_nodes_and_expressions_in_order_renames_the_output(capsys, tmp_path):
    """Lattice nodes and expressions, renamed to v0000, v0001, ... in their
    sorted order, rename the `sharpen --json` and `abstract --explain`
    output and change nothing else.  A merged argument's expression is a
    declared one or its node's name with "#abs" and primes, so it renames
    with its node; the explain output prints merged, blocked and external
    nodes.  Two hubs also carry two declared expressions of different
    lengths, so the one a merge reuses is picked by order alone."""
    rng = random.Random(1203)
    renamed = 0
    for hubs in (24, 80):
        text = flower_document(rng, hubs)
        cycles = sorted({line.split()[1].split("_")[0][1:] for line in text.splitlines() if line.startswith("arglet c")})
        for i in cycles[:2]:
            text += f"map g{i} h{i}\nmap aaa_g{i} h{i}\n"
        words = set(re.findall(r"[\w#']+", text)) - {"node", "cover", "map", "arglet", "attack"}
        model = build_model(parse_afo(text)[0])
        ids = model.framework.argument_ids()
        assert 50 <= len(ids) <= 250
        names = sorted(words - ids)
        name = {old: f"v{i:04d}" for i, old in enumerate(names)}
        assert set(name) == model.lattice.nodes | model.fmap.symbols

        def rename(out):
            def word(match):
                old, primes = match.group(1), match.group(3)
                if match.group(2) and old in model.lattice.nodes:
                    return name[old] + "#abs" + primes
                return name.get(old, old) + match.group(2) + primes

            return re.sub(r"\b(\w+)(#abs|)('*)", word, out)

        other = _renamed_document(text, name)
        for args in (["sharpen", "--json"], ["abstract", "--explain"]):
            want = rename(_cli_bytes(args, text, capsys, tmp_path))
            assert _cli_bytes(args, other, capsys, tmp_path) == want, args
            renamed += want.count("#abs")
    # 1,030 synthetic expressions named across the four outputs at this seed
    assert renamed >= 500


def test_the_forking_chain_forks_and_projects_two_to_the_k_ways():
    """k chained squares keep two groups each, so `sharpen` derives 2^k
    frameworks, one per choice of groups, and no two of them project to
    the same extensions on the concrete ids."""
    for k in range(1, 8):
        model = build_model(parse_afo(forking_chain(k))[0])
        report = sharpen(model.framework, model.lattice, model.fmap, model.blocked)
        assert len(report.derivation.frameworks) == 2**k
        assert len(set(report.projected)) == len(report.projected) == 2**k


def test_a_disjoint_union_of_documents_multiplies_the_forks():
    """Two flower documents over one lattice, the second's ids renamed
    apart, joined into one framework.  Its SCCs are the parts' SCCs, and
    a group is valid only inside its own SCC, even where the other part
    has arguments below the same hub.  So each fork of the union makes one
    fork's replacements of each part, the fork count is the product of the
    parts' counts, and each fork's preferred extensions are the unions of
    one extension of each part's fork."""
    rng = random.Random(2727)
    for hubs in (16, 40):
        first, second = (build_model(parse_afo(flower_document(rng, hubs))[0]) for _ in range(2))
        lat, fmap, blocked = first.lattice, first.fmap, first.blocked
        assert (second.lattice.nodes, second.lattice.covers, second.fmap) == (lat.nodes, lat.covers, fmap)
        parts = [first.framework, _renamed(second.framework, {a: f"u{a}" for a in second.framework.argument_ids()})]
        reports = [sharpen(fw, lat, fmap, blocked) for fw in parts]
        whole = sharpen(_union(*parts), lat, fmap, blocked)
        assert set(whole.concrete) == {e | f for e in reports[0].concrete for f in reports[1].concrete}
        forks = [len(r.derivation.frameworks) for r in reports]
        assert min(forks) >= 4 and len(whole.derivation.frameworks) == forks[0] * forks[1]
        index = [{steps: i for i, steps in enumerate(r.derivation.provenance)} for r in reports]
        ids = parts[0].argument_ids()
        chosen = set()
        for steps, extensions in zip(whole.derivation.provenance, whole.abstract_preferred):
            i = index[0][tuple(s for s in steps if s.targets <= ids)]
            j = index[1][tuple(s for s in steps if not s.targets <= ids)]
            chosen.add((i, j))
            want = {e | f for e in reports[0].abstract_preferred[i] for f in reports[1].abstract_preferred[j]}
            assert len(extensions) == len(want) and set(extensions) == want
        assert len(chosen) == len(whole.derivation.frameworks)
