import copy
import pickle
import random

import pytest

from afo import (
    Argument,
    Framework,
    UnknownArgument,
    attack_relation,
    has_path,
    preferred,
    strongly_connected_components,
)

from generators import random_framework
from oracles import oracle_sccs, oracle_sccs_ordered, oracle_up_reach


def test_arglets_group_into_arguments():
    fw = Framework.of(
        [("a1", "e1"), ("a1", "e2"), ("a1", "e3"), ("a2", "e1"), ("a2", "e4")],
        [],
    )
    assert fw.argument_ids() == frozenset({"a1", "a2"})
    assert fw.arguments() == [
        Argument("a1", frozenset({"e1", "e2", "e3"})),
        Argument("a2", frozenset({"e1", "e4"})),
    ]
    assert fw.argument_expressions("a2") == frozenset({"e1", "e4"})
    with pytest.raises(UnknownArgument):
        fw.argument_expressions("a3")


def test_attack_endpoints_validated():
    # derived frameworks skip this check (`Framework._trusted`); the public
    # constructor keeps it
    with pytest.raises(UnknownArgument, match="attack target"):
        Framework.of([("a1", "e1")], [(("a1", "e1"), ("a2", "e2"))])
    with pytest.raises(UnknownArgument, match="attack source"):
        Framework.of([("a1", "e1")], [(("a2", "e2"), ("a1", "e1"))])


def test_boardroom_attacks(boardroom):
    fw = boardroom.framework
    assert fw.has_attack("a2", "a1")
    assert not fw.has_attack("a1", "a2")
    assert not fw.has_attack("a5", "a5")
    ids, edges = fw.dung_projection()
    assert ids == frozenset({"a1", "a2", "a3", "a4", "a5"})
    assert edges == frozenset(
        {
            ("a2", "a1"),
            ("a3", "a2"),
            ("a1", "a3"),
            ("a1", "a4"),
            ("a2", "a4"),
            ("a3", "a4"),
            ("a4", "a5"),
        }
    )
    assert attack_relation(fw)["a1"] == {"a3", "a4"}


def test_marathon_projection(marathon):
    _, edges = marathon.framework.dung_projection()
    assert edges == frozenset(
        {
            ("a1", "a2"),
            ("a2", "a3"),
            ("a3", "a1"),
            ("a2", "a4"),
            ("a4", "a5"),
            ("a5", "a4"),
        }
    )


def test_paths(boardroom):
    fw = boardroom.framework
    assert has_path(fw, "a1", "a5")
    assert not has_path(fw, "a5", "a1")
    # around the three-cycle and back to itself
    assert has_path(fw, "a1", "a1")
    assert not has_path(fw, "a5", "a5")
    with pytest.raises(UnknownArgument):
        has_path(fw, "a1", "ghost")


def test_scc_order_on_fixtures(boardroom, marathon):
    assert strongly_connected_components(boardroom.framework) == [
        frozenset({"a1", "a2", "a3"}),
        frozenset({"a4"}),
        frozenset({"a5"}),
    ]
    assert strongly_connected_components(marathon.framework) == [
        frozenset({"a1", "a2", "a3"}),
        frozenset({"a4", "a5"}),
    ]


def test_paths_match_oracle_reach():
    # random_framework draws self-attacks too, so a path may be one edge long
    rng = random.Random(5150)
    for _ in range(120):
        fw = random_framework(rng, attack_prob=rng.choice([0.05, 0.1, 0.2]))
        ids, edges = fw.dung_projection()
        reach = oracle_up_reach(sorted(ids), sorted(edges))
        for src in sorted(ids):
            onward = set().union(*(reach[d] for s, d in edges if s == src))
            for dst in sorted(ids):
                assert has_path(fw, src, dst) == (dst in onward)


def test_sccs_match_oracle_and_topo_order():
    rng = random.Random(8091)
    for _ in range(80):
        fw = random_framework(rng)
        comps = strongly_connected_components(fw)
        ids, edges = fw.dung_projection()
        assert set(comps) == oracle_sccs(sorted(ids), sorted(edges))
        assert comps == oracle_sccs_ordered(ids, edges)
        # partition
        assert sum(len(c) for c in comps) == len(ids)
        index = {a: i for i, c in enumerate(comps) for a in c}
        for src, dst in edges:
            assert index[src] <= index[dst]
        # deterministic
        assert strongly_connected_components(fw) == comps


def test_acyclic_framework_sccs_are_singletons():
    fw = Framework.of(
        [("a", "e1"), ("b", "e2"), ("c", "e3")],
        [(("a", "e1"), ("b", "e2")), (("b", "e2"), ("c", "e3"))],
    )
    assert strongly_connected_components(fw) == [
        frozenset({"a"}),
        frozenset({"b"}),
        frozenset({"c"}),
    ]


def test_indexed_framework_copies_and_pickles():
    """A framework whose index is built copies and pickles, under every
    protocol, into an equal framework that builds its own index."""
    fw = random_framework(random.Random(29), max_args=8)
    want = preferred(fw)
    copies = [copy.copy(fw), copy.deepcopy(fw)]
    copies += [pickle.loads(pickle.dumps(fw, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies:
        assert twin == fw and hash(twin) == hash(fw) and vars(twin) == vars(fw)
        assert preferred(twin) == want
