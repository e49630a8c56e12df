"""The conservativity report and the ten public predicates against
`oracle_conservativity` and `oracle_abstraction_conditions`, on random
candidates.

The package decides every condition once, on bit masks, and orders the
report's witnesses by bit; the oracles read the definitions on sets, so
the two share nothing but the input.
"""

import random
from collections import Counter

from afo import (
    AbstractionCandidate,
    Argument,
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
)

from generators import mapped_framework, multi_hub_instance, random_lattice, random_map
from oracles import oracle_abstraction_conditions, oracle_conservativity, oracle_is_argument_abstraction, oracle_sccs, oracle_up_reach

STRUCTURAL = {
    "covering": is_abstraction_covering,
    "disjoint": is_abstraction_disjoint,
    "sound": is_abstraction_sound,
    "complete": is_abstraction_complete,
}


def _instance(rng):
    """(framework, lattice, map, M): a random lattice, map and framework of
    up to three expressions per argument, or a multi-hub flower.  M holds
    some lattice nodes and now and then a name outside the lattice."""
    if rng.random() < 0.5:
        lat = random_lattice(rng)
        fmap = random_map(rng, lat)
        fw = mapped_framework(rng, fmap, max_exprs=rng.randint(1, 3), attack_prob=0.25)
        blocked = set(rng.sample(sorted(lat.nodes), rng.randint(0, 2)))
    else:
        fw, lat, fmap, blocked = multi_hub_instance(rng, outsiders=rng.randint(0, 2))
        blocked = set(blocked)
    if rng.random() < 0.3:
        blocked.add("ghost")
    return fw, lat, fmap, blocked


def _candidate(rng, fw, lat, fmap):
    """A target set, inside one SCC most of the time, and an abstract
    argument: the targets' best abstraction, one expression above each
    expression of one target, or one to three random expressions."""
    ids, edges = fw.dung_projection()
    if rng.random() < 0.75:
        scc = sorted(rng.choice(sorted(oracle_sccs(ids, edges), key=sorted)))
        targets = frozenset(rng.sample(scc, rng.randint(1, len(scc))))
    else:
        targets = frozenset(rng.sample(sorted(ids), rng.randint(1, len(ids))))
    pick = rng.random()
    if pick < 0.2:
        return best_abstraction_of(lat, fmap, [Argument(t, fw.argument_expressions(t)) for t in sorted(targets)])
    symbols = sorted(fmap.symbols)
    if pick < 0.6:
        exprs = [
            rng.choice([s for s in symbols if lat.leq(fmap.image(e), fmap.image(s))])
            for e in sorted(fw.argument_expressions(rng.choice(sorted(targets))))
        ]
    else:
        exprs = rng.sample(symbols, min(len(symbols), rng.randint(1, 3)))
    return AbstractionCandidate(targets, Argument("w", frozenset(exprs))), fmap


def test_report_and_predicates_match_the_oracle():
    rng = random.Random(2302)
    seen = Counter()
    for _ in range(500):
        fw, lat, fmap, blocked = _instance(rng)
        reach = oracle_up_reach(lat.nodes, lat.covers)
        arg_nodes = {a.arg_id: {fmap.image(e) for e in a.expressions} for a in fw.arguments()}
        sccs = oracle_sccs(*fw.dung_projection())
        for _ in range(4):
            candidate, cmap = _candidate(rng, fw, lat, fmap)
            targets, a_x = candidate.targets, candidate.abstract_arg
            abstractor = [cmap.image(e) for e in a_x.expressions]
            want = oracle_conservativity(reach, dict(cmap.items()), fw.arglets, fw.attacks, blocked, targets, abstractor)
            report = conservativity_report(fw, lat, cmap, blocked, candidate)
            assert report.candidate == candidate
            assert {field: getattr(report, field) for field in want} == want, (fw, candidate, blocked)

            args = [Argument(t, fw.argument_expressions(t)) for t in sorted(targets)]
            structure = oracle_abstraction_conditions(reach, abstractor, [arg_nodes[t] for t in sorted(targets)])
            assert {name: pred(lat, cmap, a_x, args) for name, pred in STRUCTURAL.items()} == structure, (fw, candidate)
            assert is_argument_abstraction(lat, cmap, a_x, args) == all(structure.values())
            assert is_valid(fw, lat, cmap, candidate) == want["valid"]
            assert is_non_trivial(lat, cmap, blocked, candidate) == want["non_trivial"]
            assert is_compatible(fw, lat, cmap, targets) == want["compatible"]
            assert is_attack_preserving(fw, lat, cmap, candidate) == want["attack_preserving"]
            conservative = want["valid"] and want["non_trivial"] and want["compatible"] and want["attack_preserving"]
            assert is_conservative(fw, lat, cmap, blocked, candidate) == conservative

            absorbed = [oracle_is_argument_abstraction(reach, abstractor, [arg_nodes[t]]) for t in sorted(targets)]
            join = lat.join(n for t in targets for n in arg_nodes[t])
            seen["candidates"] += 1
            seen["several expressions"] += len(abstractor) > 1
            seen["two expressions at one node"] += len(set(abstractor)) < len(abstractor)
            seen["across SCCs"] += not any(targets <= c for c in sccs)
            seen["a target not absorbed"] += not all(absorbed)
            seen["merged off the join"] += want["merged_node"] != join
            seen["self-attack in the targets"] += any(s == d and s[0] in targets for s, d in fw.attacks)
            seen["M outside the lattice"] += not blocked <= lat.nodes
            seen["two or more growths"] += len(want["growth_witnesses"]) >= 2
            seen["not disjoint"] += not structure["disjoint"]
            seen["incomparable inner attack"] += any(
                s[0] in targets and d[0] in targets and not lat.comparable(cmap.image(s[1]), cmap.image(d[1]))
                for s, d in fw.attacks
            )
            seen["an outsider absorbed, a target not"] += not all(absorbed) and any(
                oracle_is_argument_abstraction(reach, abstractor, [arg_nodes[o]])
                for c in sccs
                if targets <= c
                for o in c - targets
            )
    # at this seed 628 of the 2,000 candidates have several expressions,
    # 110 of them two at one node; the rarest case, an outsider absorbed
    # with a target not, comes 87 times
    assert seen["candidates"] == 2000
    assert seen["several expressions"] >= 500
    for case in (
        "across SCCs",
        "a target not absorbed",
        "merged off the join",
        "self-attack in the targets",
        "M outside the lattice",
        "two or more growths",
        "not disjoint",
        "two expressions at one node",
        "incomparable inner attack",
        "an outsider absorbed, a target not",
    ):
        assert seen[case] >= 50, (case, seen)
