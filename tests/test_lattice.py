import random
import time
from collections import Counter
from functools import reduce

import pytest

from afo import (
    AfoDocument,
    AfoError,
    CycleInCovers,
    EmptySet,
    NonUniqueJoin,
    NonUniqueMeet,
    RedundantCover,
    UnknownNode,
    serialize_afo,
    validate_lattice,
)
from afo.cli import main

from generators import (
    chain_diagram,
    chain_lattice,
    cube_lattice,
    flat_diagram,
    flower_diagram,
    pentagon_lattice,
    random_lattice,
)
from oracles import (
    oracle_is_upper_set,
    oracle_join,
    oracle_lattice_error,
    oracle_lattice_error_bitsets,
    oracle_leq,
    oracle_lower_covers,
    oracle_meet,
    oracle_up_reach,
    oracle_upward_closure,
    powerset,
)


def test_single_node_lattice():
    lat = validate_lattice(["only"], [])
    assert lat.top == "only" == lat.bottom
    assert lat.join([]) == "only"
    assert lat.lower_covers("only") == frozenset({"only"})


def test_missing_top_rejected():
    with pytest.raises(NonUniqueJoin):
        validate_lattice(["bot", "p", "q"], [("bot", "p"), ("bot", "q")])


def test_non_unique_meet_rejected():
    # c and d share the incomparable lower bounds p and q
    nodes = ["p", "q", "c", "d", "T"]
    covers = [("p", "c"), ("p", "d"), ("q", "c"), ("q", "d"), ("c", "T"), ("d", "T")]
    with pytest.raises((NonUniqueMeet, NonUniqueJoin)):
        validate_lattice(nodes, covers)


def test_cycle_rejected():
    with pytest.raises(CycleInCovers):
        validate_lattice(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(CycleInCovers):
        validate_lattice(["a"], [("a", "a")])


def test_redundant_cover_rejected():
    # a -> b -> c plus the implied a -> c
    with pytest.raises(RedundantCover):
        validate_lattice(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])


def test_empty_and_unknown():
    with pytest.raises(EmptySet):
        validate_lattice([], [])
    with pytest.raises(UnknownNode):
        validate_lattice(["a"], [("a", "ghost")])
    lat = chain_lattice(3)
    queries = [
        lambda: lat.leq("c0", "ghost"),
        lambda: lat.leq("ghost", "c0"),
        lambda: lat.comparable("c0", "ghost"),
        lambda: lat.up_set("ghost"),
        lambda: lat.down_set("ghost"),
        lambda: lat.join(["c0", "ghost"]),
        lambda: lat.meet(["c0", "ghost"]),
        lambda: lat.children("ghost"),
        lambda: lat.lower_covers("ghost"),
        lambda: lat.upward_closure(["c0", "ghost"]),
        lambda: lat.is_upper_set(["c2", "ghost"]),
    ]
    for query in queries:
        with pytest.raises(UnknownNode):
            query()


def test_boardroom_lattice_queries(boardroom):
    lat = boardroom.lattice
    assert lat.leq("Os", "Imp")
    assert lat.leq("Os", "Os")
    assert not lat.leq("Imp", "Liq")
    assert not lat.leq("Liq", "Imp")
    assert lat.join(["Os", "Mp"]) == "Imp"
    assert lat.join(["Os"]) == "Os"
    assert lat.join(["Os", "Liq"]) == "Top"
    assert lat.join([]) == "Bot"
    assert lat.meet([]) == "Top"
    assert lat.lower_covers("Imp") == frozenset({"Os", "Mp", "Ec"})
    assert lat.lower_covers("Bot") == frozenset({"Bot"})
    assert lat.atoms() == frozenset({"Os", "Mp", "Ec", "Liq", "Rev"})


def test_marathon_lower_covers(marathon):
    assert marathon.lattice.lower_covers("H") == frozenset({"Dp", "Br"})


def test_upper_sets(boardroom, marathon):
    lat = marathon.lattice
    assert lat.upward_closure(["Top"]) == frozenset({"Top"})
    assert lat.upward_closure(sorted(lat.nodes)) == frozenset(lat.nodes)
    assert not boardroom.lattice.is_upper_set({"Imp"})
    assert boardroom.lattice.is_upper_set({"Imp", "Top"})


def test_tables_match_oracle_on_random_lattices():
    rng = random.Random(4021)
    for _ in range(40):
        lat = random_lattice(rng)
        nodes = sorted(lat.nodes)
        covers = [(c, p) for p in nodes for c in lat.children(p)]
        reach = oracle_up_reach(nodes, covers)
        bottom = next(n for n in nodes if len(reach[n]) == len(nodes))
        top = next(n for n in nodes if reach[n] == {n})
        lower = {a: frozenset(oracle_lower_covers(nodes, covers, a)) for a in nodes}
        assert lat.atoms() == frozenset(a for a in nodes if a != bottom and lower[a] == {bottom})
        for a in nodes:
            assert lat.up_set(a) == frozenset(reach[a])
            assert lat.down_set(a) == frozenset(m for m in nodes if a in reach[m])
            assert lat.lower_covers(a) == lower[a]
            assert lat.children(a) == (frozenset() if a == bottom else lower[a])
            for b in nodes:
                assert lat.leq(a, b) == oracle_leq(nodes, covers, a, b)
                assert lat.join([a, b]) == oracle_join(nodes, covers, a, b)
                assert lat.meet([a, b]) == oracle_meet(nodes, covers, a, b)
        for _ in range(20):
            subset = rng.sample(nodes, rng.randint(0, min(4, len(nodes))))
            assert lat.join(subset) == reduce(lambda x, y: oracle_join(nodes, covers, x, y), subset, bottom)
            assert lat.meet(subset) == reduce(lambda x, y: oracle_meet(nodes, covers, x, y), subset, top)


def test_groups_below_matches_oracle_on_random_lattices():
    """Per node, the members at or below it in the order given, and whether
    it is their join, against the reachability oracle."""
    rng = random.Random(4022)
    for _ in range(40):
        lat = random_lattice(rng)
        nodes = sorted(lat.nodes)
        covers = [(c, p) for p in nodes for c in lat.children(p)]
        reach = oracle_up_reach(nodes, covers)
        bottom = next(n for n in nodes if len(reach[n]) == len(nodes))
        members = [f"m{i}" for i in range(rng.randint(0, 6))]
        rng.shuffle(members)
        node_of = {m: rng.choice(nodes) for m in members}
        want = {}
        for v in nodes:
            below = [m for m in members if v in reach[node_of[m]]]
            if below:
                join = reduce(lambda x, y: oracle_join(nodes, covers, x, y), (node_of[m] for m in below), bottom)
                want[v] = (below, join == v)
        assert {v: (group, is_join) for v, group, is_join in lat.groups_below(node_of.items())} == want
    with pytest.raises(UnknownNode):
        list(lat.groups_below([("m0", "ghost")]))


def test_order_laws_on_stock_lattices():
    rng = random.Random(911)
    for lat in [pentagon_lattice(), chain_lattice(5), cube_lattice(3), random_lattice(rng)]:
        nodes = sorted(lat.nodes)
        for a in nodes:
            assert lat.join([a, a]) == a
            assert lat.meet([a, a]) == a
            for b in nodes:
                assert lat.join([a, b]) == lat.join([b, a])
                assert lat.meet([a, b]) == lat.meet([b, a])
                assert lat.leq(a, b) == (lat.join([a, b]) == b)
                assert lat.leq(a, b) == (lat.meet([a, b]) == a)
                if lat.leq(a, b) and lat.leq(b, a):
                    assert a == b
                for c in nodes:
                    assert lat.join([lat.join([a, b]), c]) == lat.join([a, lat.join([b, c])])


def test_upward_closure_matches_bruteforce():
    rng = random.Random(77)
    for _ in range(15):
        lat = random_lattice(rng, max_nodes=9)
        nodes = sorted(lat.nodes)
        covers = [(c, p) for p in nodes for c in lat.children(p)]
        gens = rng.sample(nodes, rng.randint(1, len(nodes)))
        closure = lat.upward_closure(gens)
        assert closure == frozenset(oracle_upward_closure(nodes, covers, gens))
        assert lat.is_upper_set(closure)
        # smallest upper set containing the generators
        for candidate in powerset(nodes):
            cset = set(candidate)
            if set(gens) <= cset and oracle_is_upper_set(nodes, covers, cset):
                assert closure <= cset


def _random_diagram(rng):
    """A node list and cover list, mostly not a lattice.

    Half start from a lattice and get up to two edits (a cover dropped, a
    cover or a node added); half are random covers over up to seven nodes,
    mostly upward in index order so that redundant covers and missing
    bounds are common next to cycles.  At most one cover has an unknown
    endpoint or is a self cover: which of two such covers is reported
    depends on the iteration order of a frozenset.
    """
    if rng.random() < 0.5:
        lat = random_lattice(rng, max_nodes=8)
        nodes = sorted(lat.nodes)
        covers = sorted(lat.covers)
        for _ in range(rng.randint(0, 2)):
            edit = rng.randrange(3)
            if edit == 0 and covers:
                covers.remove(rng.choice(covers))
            elif edit == 1:
                covers.append((rng.choice(nodes), rng.choice(nodes)))
            else:
                nodes.append(f"x{len(nodes)}")
    else:
        nodes = [f"n{i}" for i in range(rng.randint(1, 7))]
        covers = []
        for _ in range(rng.randint(0, 2 * len(nodes))):
            i, j = sorted(rng.sample(range(len(nodes)), 2)) if len(nodes) > 1 else (0, 0)
            covers.append((nodes[i], nodes[j]) if rng.random() < 0.9 else (nodes[j], nodes[i]))
    if rng.random() < 0.05:
        covers.append(rng.choice([(rng.choice(nodes), "ghost"), ("ghost", rng.choice(nodes))]))
    loops = [cv for cv in covers if cv[0] == cv[1] or "ghost" in cv]
    covers = [cv for cv in covers if cv not in loops[1:]]
    rng.shuffle(covers)
    return nodes, covers


def test_errors_match_former_validation_on_random_diagrams():
    rng = random.Random(6113)
    seen = {}
    for _ in range(2500):
        nodes, covers = _random_diagram(rng)
        expected = oracle_lattice_error(nodes, covers)
        try:
            lat = validate_lattice(nodes, covers)
        except AfoError as e:
            got = (type(e).__name__, str(e))
        else:
            got = None
            assert lat.covers == frozenset(covers) and lat.nodes == frozenset(nodes)
        assert got == expected, (nodes, covers)
        kind = None if expected is None else "self cover" if "self cover" in expected[1] else expected[0]
        seen[kind] = seen.get(kind, 0) + 1
    # most diagrams are invalid, and every defect is drawn often
    assert seen[None] < 1000
    for kind in ["UnknownNode", "self cover", "CycleInCovers", "RedundantCover", "NonUniqueJoin", "NonUniqueMeet"]:
        assert seen.get(kind, 0) >= 30, seen


def _plant(rng, nodes, covers, reach, defect):
    """A lattice's diagram, given its up reach, with one defect planted, or
    None where there is no room for it.  "implied" adds a cover that a
    longer path already gives; "maximal" and "minimal" add a second maximal
    or minimal node, the latter leaving every join in place; "bounds" adds
    two nodes over one pair, two incomparable nodes or two new nodes over
    the bottom, and a new top over them and the old one, so the pair has
    two minimal upper bounds and the new nodes two maximal lower bounds."""
    nodes, covers = list(nodes), list(covers)

    def fresh():
        nodes.append(f"{rng.choice('Amz')}{len(nodes)}")
        return nodes[-1]

    if defect == "implied":
        given = set(covers)
        for c in rng.sample(nodes, len(nodes)):
            if far := sorted(p for p in reach[c] if p != c and (c, p) not in given):
                covers.append((c, rng.choice(far)))
                break
        else:
            return None
    elif len(nodes) < 2:
        return None
    elif defect == "maximal":
        covers.append((rng.choice([n for n in nodes if reach[n] != {n}]), fresh()))
    elif defect == "minimal":
        above = rng.choice([n for n in nodes if len(reach[n]) < len(nodes)])
        covers.append((fresh(), above))
    else:
        top = next(n for n in nodes if reach[n] == {n})
        bottom = next(n for n in nodes if len(reach[n]) == len(nodes))
        a, b = rng.sample(nodes, 2)
        if rng.random() < 0.5 or a in reach[b] or b in reach[a]:
            a, b = fresh(), fresh()
            covers += [(bottom, a), (bottom, b)]
        roof = fresh()
        covers.append((top, roof))
        for m in (fresh(), fresh()):
            covers += [(a, m), (b, m), (m, roof)]
    rng.shuffle(covers)
    return nodes, covers


def test_errors_match_former_validation_at_scale():
    """Flat lattices up to 300 atoms, chains up to 300 and random lattices
    up to 60 nodes, each as it is and with each defect planted, against
    the former validation on bitsets, and up to 62 nodes also against the
    set-based one, whose pair loop takes seconds beyond that."""
    rng = random.Random(6114)
    diagrams = [flat_diagram(n) for n in (1, 2, 7, 40, 300)]
    diagrams += [chain_diagram(n) for n in (1, 2, 3, 9, 60, 300)]
    for _ in range(30):
        lat = random_lattice(rng, max_nodes=rng.randint(12, 60))
        diagrams.append((sorted(lat.nodes), sorted(lat.covers)))
    seen = Counter()
    for base in diagrams:
        reach = oracle_up_reach(*base)
        for defect in (None, "implied", "maximal", "minimal", "bounds"):
            planted = _plant(rng, *base, reach, defect) if defect else base
            if planted is None:
                continue
            nodes, covers = planted
            expected = oracle_lattice_error_bitsets(nodes, covers)
            if len(nodes) <= 62:
                assert oracle_lattice_error(nodes, covers) == expected, (nodes, covers)
            try:
                lat = validate_lattice(nodes, covers)
            except AfoError as e:
                got = (type(e).__name__, str(e))
            else:
                got = None
                assert lat.covers == frozenset(covers) and lat.nodes == frozenset(nodes)
            assert got == expected, (nodes, covers)
            seen[defect, expected and expected[0]] += 1
    kinds = {(None, None), ("implied", "RedundantCover"), ("maximal", "NonUniqueJoin"), ("minimal", "NonUniqueMeet")}
    assert set(seen) == kinds | {("bounds", "NonUniqueJoin"), ("bounds", "NonUniqueMeet")}
    # every diagram but the one-node chain takes a second maximal or minimal
    # node and a pair with two minimal upper bounds; 36 of 41 have an
    # implied cover
    assert seen[None, None] == seen["maximal", "NonUniqueJoin"] + 1 == seen["minimal", "NonUniqueMeet"] + 1 == len(diagrams)
    assert seen["bounds", "NonUniqueJoin"] + seen["bounds", "NonUniqueMeet"] == len(diagrams) - 1
    assert seen["implied", "RedundantCover"] >= 30 and seen["bounds", "NonUniqueMeet"] >= 5, seen


def test_ontology_scale_lattices_validate_within_a_limit(tmp_path, capsys):
    """A 2,000-atom flat lattice, a flower of 200 hubs over 9 atoms each and
    a 2,000-chain, then `afo validate` on an `.afo` file of that flower.
    On a shared 2-core Xeon under CPython 3.11 this took about 10, 30-50
    and 15 ms for the three lattices and 0.15 s in all; checking every pair
    of nodes took about 2 s for each lattice and 8.5 s in all."""
    start = time.perf_counter()
    flat = validate_lattice(*flat_diagram(2000))
    assert (flat.top, flat.bottom) == ("top", "bot")
    assert flat.join(["a0", "a1999"]) == "top" and flat.meet(["a0", "a1999"]) == "bot"
    nodes, covers = flower_diagram(200, 9)
    flower = validate_lattice(nodes, covers)
    assert (flower.top, flower.bottom) == ("top", "bot")
    assert flower.join(["a7_0", "a7_8"]) == "h7" and flower.meet(["h3", "h150"]) == "bot"
    chain = validate_lattice(*chain_diagram(2000))
    assert (chain.top, chain.bottom) == ("c1999", "c0")
    assert chain.join(["c5", "c1500"]) == "c1500" and chain.meet(["c5", "c1500"]) == "c5"

    arglets = (("x", "e0"), ("y", "e1"), ("z", "e2"))
    document = AfoDocument(
        nodes=tuple(sorted(nodes)),
        covers=tuple(sorted(covers)),
        generals=(),
        assignments=(("e0", "a0_0"), ("e1", "a0_1"), ("e2", "h5")),
        arglets=arglets,
        attacks=((arglets[0], arglets[1]), (arglets[1], arglets[0])),
    )
    path = tmp_path / "flower.afo"
    path.write_text(serialize_afo(document), encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == "ok: 2002 nodes, 3800 covers, 3 arguments, 3 arglets, 2 attacks, M={top}\n"
    assert time.perf_counter() - start < 2.0
