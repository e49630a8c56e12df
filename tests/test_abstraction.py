import random

import pytest

import afo.af
from afo import (
    AbstractionCandidate,
    Argument,
    EmptySet,
    Framework,
    SemanticMap,
    TargetsNotInFramework,
    alpha,
    best_abstraction_of,
    conservativity_report,
    is_abstraction_complete,
    is_abstraction_covering,
    is_abstraction_disjoint,
    is_abstraction_sound,
    is_argument_abstraction,
    is_attack_preserving,
    is_compatible,
    is_conservative,
    is_non_trivial,
    is_valid,
    validate_lattice,
)

from generators import (
    conservative_instance,
    lattice_with_full_coverage,
    mapped_framework,
    multi_hub_instance,
    random_lattice,
    random_map,
)
from oracles import oracle_growth, oracle_is_argument_abstraction, oracle_sccs, oracle_up_reach
from witnesses import (
    CONSERVATIVE_PAIRS,
    CONSERVATIVE_WITNESSES,
    STRUCTURAL_PAIRS,
    STRUCTURAL_WITNESSES,
    WITNESS_LATTICE,
    WITNESS_MAP,
)

STRUCTURAL_PREDICATES = {
    "covering": is_abstraction_covering,
    "disjoint": is_abstraction_disjoint,
    "sound": is_abstraction_sound,
    "complete": is_abstraction_complete,
}


def _args(framework, ids):
    return [Argument(i, framework.argument_expressions(i)) for i in sorted(ids)]


def test_each_structural_witness_fails_exactly_its_condition():
    for name, (a_x, args) in STRUCTURAL_WITNESSES.items():
        for cond, pred in STRUCTURAL_PREDICATES.items():
            held = pred(WITNESS_LATTICE, WITNESS_MAP, a_x, args)
            assert held == (cond != name), f"{name} witness vs {cond}"


def test_structural_pairs():
    assert len(STRUCTURAL_PAIRS) == 12
    for first, second in STRUCTURAL_PAIRS:
        a_x, args = STRUCTURAL_WITNESSES[second]
        assert STRUCTURAL_PREDICATES[first](WITNESS_LATTICE, WITNESS_MAP, a_x, args)
        assert not STRUCTURAL_PREDICATES[second](WITNESS_LATTICE, WITNESS_MAP, a_x, args)


def test_argument_abstraction_on_boardroom(boardroom):
    lat, fmap, fw = boardroom.lattice, boardroom.fmap, boardroom.framework
    imp = Argument("w", frozenset({"focusOnImp"}))
    assert is_argument_abstraction(lat, fmap, imp, _args(fw, {"a1", "a2", "a3"}))
    # a4 talks about liquidity, which improvements do not subsume
    assert not is_argument_abstraction(lat, fmap, imp, _args(fw, {"a1", "a2", "a3", "a4"}))
    # a single argument abstracts itself
    a1 = _args(fw, {"a1"})[0]
    assert is_argument_abstraction(lat, fmap, a1, [a1])


def test_best_abstraction_reuses_declared_expression(boardroom, marathon):
    lat, fmap, fw = boardroom.lattice, boardroom.fmap, boardroom.framework
    candidate, out_map = best_abstraction_of(lat, fmap, _args(fw, {"a1", "a2", "a3"}))
    assert candidate.targets == frozenset({"a1", "a2", "a3"})
    assert candidate.abstract_arg == Argument("a1+a2+a3", frozenset({"focusOnImp"}))
    assert out_map is fmap

    mlat, mmap, mfw = marathon.lattice, marathon.fmap, marathon.framework
    candidate, out_map = best_abstraction_of(mlat, mmap, _args(mfw, {"a1", "a2"}))
    assert candidate.abstract_arg == Argument("a1+a2", frozenset({"HW"}))
    assert out_map is mmap


def test_best_abstraction_of_singleton(boardroom):
    lat, fmap, fw = boardroom.lattice, boardroom.fmap, boardroom.framework
    candidate, _ = best_abstraction_of(lat, fmap, _args(fw, {"a1"}))
    assert candidate.abstract_arg == Argument("a1", frozenset({"focusOnOs"}))


def test_best_abstraction_mints_synthetic_expression():
    fmap = SemanticMap({"ep": "p", "eq": "q"})
    args = [Argument("a1", frozenset({"ep"})), Argument("a2", frozenset({"eq"}))]
    candidate, out_map = best_abstraction_of(WITNESS_LATTICE, fmap, args)
    assert candidate.abstract_arg == Argument("a1+a2", frozenset({"P#abs"}))
    assert out_map.image("P#abs") == "P"
    assert "P#abs" not in fmap.symbols

    taken = SemanticMap({"ep": "p", "eq": "q", "P#abs": "s"})
    candidate, out_map = best_abstraction_of(WITNESS_LATTICE, taken, args)
    assert candidate.abstract_arg.expressions == frozenset({"P#abs'"})
    assert out_map.image("P#abs'") == "P"


def test_best_abstraction_is_least():
    rng = random.Random(314)
    for _ in range(30):
        lat, fmap = lattice_with_full_coverage(rng)
        symbols = sorted(fmap.symbols)
        picked = rng.sample(symbols, rng.randint(1, min(4, len(symbols))))
        args = [Argument(f"a{i}", frozenset({s})) for i, s in enumerate(picked)]
        candidate, out_map = best_abstraction_of(lat, fmap, args)
        node = out_map.image(next(iter(candidate.abstract_arg.expressions)))
        assert node == alpha(lat, fmap, picked)
        # nothing strictly lower abstracts the whole group
        for s in symbols:
            if is_argument_abstraction(lat, fmap, Argument("w", frozenset({s})), args):
                assert lat.leq(node, fmap.image(s))


def test_best_abstraction_is_an_argument_abstraction():
    """The check `best_abstraction_of` once asserted on every call: its
    argument abstracts the targets, read literally by the oracle, on random
    lattices and maps, some leaving the join without an expression."""
    rng = random.Random(2711)
    minted = 0
    for _ in range(300):
        lat = random_lattice(rng)
        fmap = random_map(rng, lat)
        fw = mapped_framework(rng, fmap, max_exprs=rng.randint(1, 3))
        args = _args(fw, rng.sample(sorted(fw.argument_ids()), rng.randint(1, len(fw.argument_ids()))))
        candidate, out_map = best_abstraction_of(lat, fmap, args)
        (symbol,) = candidate.abstract_arg.expressions
        minted += symbol not in fmap.symbols
        targets = [{out_map.image(e) for e in a.expressions} for a in args]
        assert oracle_is_argument_abstraction(oracle_up_reach(lat.nodes, lat.covers), [out_map.image(symbol)], targets)
    assert minted >= 25


def test_best_abstraction_requires_targets():
    with pytest.raises(EmptySet):
        best_abstraction_of(WITNESS_LATTICE, WITNESS_MAP, [])


def test_validity_on_boardroom(boardroom):
    lat, fmap, fw = boardroom.lattice, boardroom.fmap, boardroom.framework
    imp = Argument("w", frozenset({"focusOnImp"}))
    assert is_valid(fw, lat, fmap, AbstractionCandidate(frozenset({"a1", "a2", "a3"}), imp))
    # {a1, a2} can still grow to the whole cycle under the same abstractor
    assert not is_valid(fw, lat, fmap, AbstractionCandidate(frozenset({"a1", "a2"}), imp))
    # targets spanning two components are not a group at all
    assert not is_valid(fw, lat, fmap, AbstractionCandidate(frozenset({"a1", "a4"}), imp))
    with pytest.raises(TargetsNotInFramework):
        is_valid(fw, lat, fmap, AbstractionCandidate(frozenset({"ghost"}), imp))
    with pytest.raises(TargetsNotInFramework):
        is_valid(fw, lat, fmap, AbstractionCandidate(frozenset(), imp))


def test_validity_matches_growth_enumeration():
    """Closed-form validity and the report's growth witnesses against a
    brute-force enumeration of every larger subset of the home SCC: the
    report gives the growths by one member, and each growth holds one."""
    rng = random.Random(1802)
    grown = multi = 0
    for i in range(1000):
        if i % 2:
            lat = random_lattice(rng)
            fmap = random_map(rng, lat)
        else:
            _, lat, fmap, _ = multi_hub_instance(rng)
        fw = mapped_framework(rng, fmap)
        ids, edges = fw.dung_projection()
        sccs = sorted(oracle_sccs(ids, edges), key=lambda c: sorted(c))
        if rng.random() < 0.9:
            scc = sorted(rng.choice(sccs))
            targets = frozenset(rng.sample(scc, rng.randint(1, len(scc))))
        else:
            targets = frozenset(rng.sample(sorted(ids), rng.randint(1, len(ids))))
        symbols = sorted(fmap.symbols)
        if rng.random() < 0.3:
            picked = rng.sample(symbols, min(len(symbols), rng.randint(1, 3)))
        else:
            # one abstractor above each expression of one target, so growth is common
            picked = [
                rng.choice([s for s in symbols if lat.leq(fmap.image(e), fmap.image(s))])
                for e in sorted(fw.argument_expressions(rng.choice(sorted(targets))))
            ]
        a_x = Argument("w", frozenset(picked))
        candidate = AbstractionCandidate(targets, a_x)

        home = next((c for c in sccs if targets <= c), None)
        arg_nodes = {a.arg_id: {fmap.image(e) for e in a.expressions} for a in fw.arguments()}
        abstractor = [fmap.image(e) for e in a_x.expressions]
        reach = oracle_up_reach(lat.nodes, lat.covers)
        growth = [] if home is None else oracle_growth(reach, arg_nodes, abstractor, targets, home)

        assert is_valid(fw, lat, fmap, candidate) == (home is not None and not growth)
        report = conservativity_report(fw, lat, fmap, {lat.top}, candidate)
        assert report.growth_witnesses == tuple(g for g in growth if len(g) == len(targets) + 1)
        assert all(any(set(w) <= set(g) for w in report.growth_witnesses) for g in growth)
        grown += bool(growth)
        multi += len(a_x.expressions) > 1 and bool(growth)
    assert grown >= 80 and multi >= 5


def test_growth_witnesses_one_per_outsider():
    # an 18-argument ring at one node: any superset of two members can grow
    lat = validate_lattice(["bot", "x", "top"], [("bot", "x"), ("x", "top")])
    fmap = SemanticMap({"e": "x"})
    ring = [(f"a{i:02d}", "e") for i in range(18)]
    fw = Framework.of(ring, [(ring[i], ring[(i + 1) % 18]) for i in range(18)])
    candidate = AbstractionCandidate(frozenset({"a00", "a01"}), Argument("w", frozenset({"e"})))
    report = conservativity_report(fw, lat, fmap, {"top"}, candidate)
    assert report.growth_witnesses == tuple(("a00", "a01", f"a{i:02d}") for i in range(2, 18))
    assert not report.valid and not is_valid(fw, lat, fmap, candidate)


def test_validity_runs_tarjan_once_per_framework(monkeypatch):
    """`is_valid` and `conservativity_report` take the targets' SCC from the
    framework's index, so any number of calls on one framework run the
    whole-framework Tarjan once."""
    runs = []
    tarjan = afo.af._sccs
    monkeypatch.setattr(afo.af, "_sccs", lambda ix, within: runs.append(within) or tarjan(ix, within))
    rng = random.Random(1905)
    checked = 0
    for _ in range(20):
        fw, lat, fmap, blocked = multi_hub_instance(rng, outsiders=2)
        ids = sorted(fw.argument_ids())
        symbols = sorted(fmap.symbols)
        runs.clear()
        for _ in range(10):
            targets = frozenset(rng.sample(ids, rng.randint(1, min(3, len(ids)))))
            candidate = AbstractionCandidate(targets, Argument("w", frozenset({rng.choice(symbols)})))
            report = conservativity_report(fw, lat, fmap, blocked, candidate)
            assert is_valid(fw, lat, fmap, candidate) == report.valid
            checked += 1
        assert len(runs) == 1
    assert checked == 200


def test_non_trivial(boardroom):
    lat, fmap = boardroom.lattice, boardroom.fmap
    imp = AbstractionCandidate(
        frozenset({"a1", "a2", "a3"}), Argument("w", frozenset({"focusOnImp"}))
    )
    top = AbstractionCandidate(
        frozenset({"a1", "a2", "a3"}), Argument("w", frozenset({"focusOnAnything"}))
    )
    assert is_non_trivial(lat, fmap, boardroom.blocked, imp)
    assert not is_non_trivial(lat, fmap, boardroom.blocked, top)


def test_compatible(boardroom):
    lat, fmap, fw = boardroom.lattice, boardroom.fmap, boardroom.framework
    assert is_compatible(fw, lat, fmap, {"a1", "a2", "a3"})
    selfish = Framework.of([("s", "focusOnOs")], [(("s", "focusOnOs"), ("s", "focusOnOs"))])
    assert not is_compatible(selfish, lat, fmap, {"s"})


def test_attack_preserving(boardroom, marathon):
    lat, fmap, fw = boardroom.lattice, boardroom.fmap, boardroom.framework
    imp = Argument("w", frozenset({"focusOnImp"}))
    whole = AbstractionCandidate(frozenset({"a1", "a2", "a3"}), imp)
    assert is_attack_preserving(fw, lat, fmap, whole)
    # a3 stays outside and its economy reading sits below the merge
    partial = AbstractionCandidate(frozenset({"a1", "a2"}), imp)
    assert not is_attack_preserving(fw, lat, fmap, partial)

    mlat, mmap, mfw = marathon.lattice, marathon.fmap, marathon.framework
    hw = AbstractionCandidate(frozenset({"a1", "a2"}), Argument("w", frozenset({"HW"})))
    assert is_attack_preserving(mfw, mlat, mmap, hw)


def test_conservative_on_fixtures(boardroom, marathon):
    lat, fmap, fw = boardroom.lattice, boardroom.fmap, boardroom.framework
    candidate, out_map = best_abstraction_of(lat, fmap, _args(fw, {"a1", "a2", "a3"}))
    assert is_conservative(fw, lat, out_map, boardroom.blocked, candidate)

    mlat, mmap, mfw = marathon.lattice, marathon.fmap, marathon.framework
    good, good_map = best_abstraction_of(mlat, mmap, _args(mfw, {"a1", "a2"}))
    assert is_conservative(mfw, mlat, good_map, marathon.blocked, good)
    # merging the whole cycle lands on the top, which M forbids
    whole, whole_map = best_abstraction_of(mlat, mmap, _args(mfw, {"a1", "a2", "a3"}))
    assert not is_conservative(mfw, mlat, whole_map, marathon.blocked, whole)
    assert not is_non_trivial(mlat, whole_map, marathon.blocked, whole)


def test_conservative_witnesses_fail_exactly_one_condition():
    checks = {
        "valid": lambda fw, m, c: is_valid(fw, WITNESS_LATTICE, WITNESS_MAP, c),
        "non_trivial": lambda fw, m, c: is_non_trivial(WITNESS_LATTICE, WITNESS_MAP, m, c),
        "compatible": lambda fw, m, c: is_compatible(fw, WITNESS_LATTICE, WITNESS_MAP, c.targets),
    }
    for name, (fw, blocked, targets, a_x) in CONSERVATIVE_WITNESSES.items():
        candidate = AbstractionCandidate(targets, a_x)
        for cond, check in checks.items():
            assert check(fw, blocked, candidate) == (cond != name), f"{name} vs {cond}"
        assert not is_conservative(fw, WITNESS_LATTICE, WITNESS_MAP, blocked, candidate)


def test_conservative_pairs():
    assert len(CONSERVATIVE_PAIRS) == 6
    checks = {
        "valid": lambda fw, m, c: is_valid(fw, WITNESS_LATTICE, WITNESS_MAP, c),
        "non_trivial": lambda fw, m, c: is_non_trivial(WITNESS_LATTICE, WITNESS_MAP, m, c),
        "compatible": lambda fw, m, c: is_compatible(fw, WITNESS_LATTICE, WITNESS_MAP, c.targets),
    }
    for first, second in CONSERVATIVE_PAIRS:
        fw, blocked, targets, a_x = CONSERVATIVE_WITNESSES[second]
        candidate = AbstractionCandidate(targets, a_x)
        assert checks[first](fw, blocked, candidate)
        assert not checks[second](fw, blocked, candidate)


def test_report_agrees_with_predicates(boardroom, marathon):
    for model, ids in [(boardroom, {"a1", "a2", "a3"}), (marathon, {"a1", "a2"}), (marathon, {"a1", "a2", "a3"})]:
        lat, fmap, fw = model.lattice, model.fmap, model.framework
        candidate, out_map = best_abstraction_of(lat, fmap, _args(fw, ids))
        report = conservativity_report(fw, lat, out_map, model.blocked, candidate)
        assert report.valid == is_valid(fw, lat, out_map, candidate)
        assert report.non_trivial == is_non_trivial(lat, out_map, model.blocked, candidate)
        assert report.compatible == is_compatible(fw, lat, out_map, candidate.targets)
        assert report.attack_preserving == is_attack_preserving(fw, lat, out_map, candidate)
        assert report.conservative == is_conservative(fw, lat, out_map, model.blocked, candidate)
        assert report.merged_node == alpha(lat, out_map, candidate.abstract_arg.expressions)


def test_marathon_report_witnesses(marathon):
    lat, fmap, fw = marathon.lattice, marathon.fmap, marathon.framework
    candidate, out_map = best_abstraction_of(lat, fmap, _args(fw, {"a1", "a2"}))
    report = conservativity_report(fw, lat, out_map, marathon.blocked, candidate)
    assert report.conservative
    assert report.merged_node == "H"
    assert report.blocked_nodes == ("Top",)
    assert ("a3", "Fm", False) in report.external_checks
    assert ("a4", "NoId", False) in report.external_checks


def test_coarser_merges_of_conservative_group_stay_conservative():
    rng = random.Random(2718)
    for _ in range(15):
        fw, lat, fmap, blocked, targets, interval = conservative_instance(rng)
        arg_id = "+".join(sorted(targets))
        for node in interval:
            candidate = AbstractionCandidate(
                targets, Argument(arg_id, frozenset({f"g_{node}"}))
            )
            assert is_conservative(fw, lat, fmap, blocked, candidate)
