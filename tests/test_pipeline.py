import random

import pytest

import afo.pipeline
from afo import (
    Argument,
    Framework,
    IdCollision,
    SemanticMap,
    TargetsNotInFramework,
    abstract_replace,
    best_abstraction_of,
    concretize_extension_sets,
    derive_abstract_frameworks,
    is_conservative,
    maximal_conservative_subsets,
    preferred,
    restrict_extensions,
    sharpen,
    validate_lattice,
)
from afo.pipeline import (
    IMPLIED_CREDULOUS,
    IMPLIED_SKEPTICAL,
    MINUS_APPROVED,
    PLUS_APPROVED_CREDULOUS,
    PLUS_APPROVED_SKEPTICAL,
)

from generators import (
    conservative_instance,
    mapped_framework,
    multi_hub_instance,
    random_lattice,
    random_map,
)
from oracles import oracle_maximal_conservative_groups, oracle_sccs, oracle_sigma
from witnesses import WITNESS_LATTICE, WITNESS_MAP

fs = frozenset


def _verdict(report, arg_id):
    return next(v for v in report.verdicts if v.arg_id == arg_id)


def _scanned_groups(model, scc):
    scan = maximal_conservative_subsets(model.framework, model.lattice, model.fmap, model.blocked, scc)
    return [c.targets for c, _ in scan]


def test_maximal_groups_boardroom(boardroom):
    assert _scanned_groups(boardroom, fs({"a1", "a2", "a3"})) == [fs({"a1", "a2", "a3"})]
    assert _scanned_groups(boardroom, fs({"a4"})) == []


def test_maximal_groups_marathon(marathon):
    assert _scanned_groups(marathon, fs({"a1", "a2", "a3"})) == [fs({"a1", "a2"})]
    # the tail two-cycle joins at the top, which M rules out
    assert _scanned_groups(marathon, fs({"a4", "a5"})) == []


def _scan_against_oracle(lat, fmap, fw, blocked):
    """Group counts per SCC, after checking each SCC's groups against the
    subset-enumerating reference and each group's candidate and map against
    a fresh best abstraction of its targets."""
    counts = []
    ids, edges = fw.dung_projection()
    for scc in sorted(oracle_sccs(ids, edges), key=lambda c: sorted(c)):
        scan = maximal_conservative_subsets(fw, lat, fmap, blocked, scc)
        want = oracle_maximal_conservative_groups(
            lat.nodes, lat.covers, dict(fmap.items()), fw.arglets, fw.attacks, blocked, scc
        )
        assert [c.targets for c, _ in scan] == want
        for candidate, xmap in scan:
            args = [Argument(i, fw.argument_expressions(i)) for i in sorted(candidate.targets)]
            assert (candidate, xmap) == best_abstraction_of(lat, fmap, args)
            assert is_conservative(fw, lat, xmap, blocked, candidate)
        counts.append(len(scan))
    return counts


def test_group_scan_matches_subset_oracle():
    rng = random.Random(1802)
    counts = []
    for _ in range(300):
        lat = random_lattice(rng)
        fmap = random_map(rng, lat)
        fw = mapped_framework(rng, fmap, max_exprs=rng.randint(1, 2))
        if rng.random() < 0.5:
            blocked = fs({lat.top})
        else:
            blocked = lat.upward_closure([rng.choice(sorted(lat.nodes))])
        counts += _scan_against_oracle(lat, fmap, fw, blocked)
    # flowers with two or more hubs: one SCC can hold a group per hub
    for _ in range(100):
        fw, lat, fmap, blocked = multi_hub_instance(rng)
        counts += _scan_against_oracle(lat, fmap, fw, blocked)
    for _ in range(50):
        fw, lat, fmap, blocked, _, _ = conservative_instance(rng)
        counts += _scan_against_oracle(lat, fmap, fw, blocked)
    assert sum(1 for c in counts if c) >= 100
    assert sum(1 for c in counts if c >= 2) >= 20


def test_abstract_replace_boardroom(boardroom):
    fw = boardroom.framework
    got = abstract_replace(
        fw, {"a1", "a2", "a3"}, Argument("a1+a2+a3", fs({"focusOnImp"}))
    )
    assert got.arglets == fs(
        {("a1+a2+a3", "focusOnImp"), ("a4", "focusOnLiq"), ("a5", "needRevenue")}
    )
    assert got.attacks == fs(
        {
            (("a1+a2+a3", "focusOnImp"), ("a4", "focusOnLiq")),
            (("a4", "focusOnLiq"), ("a5", "needRevenue")),
        }
    )


def test_abstract_replace_marathon(marathon):
    got = abstract_replace(marathon.framework, {"a1", "a2"}, Argument("a1+a2", fs({"HW"})))
    ids, edges = got.dung_projection()
    assert ids == fs({"a1+a2", "a3", "a4", "a5"})
    assert edges == fs(
        {
            ("a1+a2", "a3"),
            ("a3", "a1+a2"),
            ("a1+a2", "a4"),
            ("a4", "a5"),
            ("a5", "a4"),
        }
    )


def test_abstract_replace_whole_framework():
    fw = Framework.of(
        [("x", "e1"), ("y", "e2")],
        [(("x", "e1"), ("y", "e2")), (("y", "e2"), ("x", "e1"))],
    )
    got = abstract_replace(fw, {"x", "y"}, Argument("x+y", fs({"e3"})))
    assert got.arglets == fs({("x+y", "e3")})
    assert got.attacks == fs()


def test_abstract_replace_errors(boardroom):
    fw = boardroom.framework
    with pytest.raises(TargetsNotInFramework):
        abstract_replace(fw, {"ghost"}, Argument("w", fs({"e"})))
    with pytest.raises(IdCollision):
        abstract_replace(fw, {"a1", "a2"}, Argument("a4", fs({"e"})))


def test_derive_boardroom(boardroom):
    result = derive_abstract_frameworks(
        boardroom.framework, boardroom.lattice, boardroom.fmap, boardroom.blocked
    )
    assert len(result.frameworks) == 1
    only = result.frameworks[0]
    assert only.argument_ids() == fs({"a1+a2+a3", "a4", "a5"})
    (steps,) = result.provenance
    assert len(steps) == 1
    assert steps[0].scc == fs({"a1", "a2", "a3"})
    assert steps[0].targets == fs({"a1", "a2", "a3"})
    assert steps[0].abstract_arg == Argument("a1+a2+a3", fs({"focusOnImp"}))
    assert [preferred(f) for f in result.frameworks] == [[fs({"a1+a2+a3", "a5"})]]


def test_derive_marathon(marathon):
    result = derive_abstract_frameworks(
        marathon.framework, marathon.lattice, marathon.fmap, marathon.blocked
    )
    assert len(result.frameworks) == 1
    assert result.frameworks[0].argument_ids() == fs({"a1+a2", "a3", "a4", "a5"})
    assert preferred(result.frameworks[0]) == [
        fs({"a1+a2", "a5"}),
        fs({"a3", "a4"}),
        fs({"a3", "a5"}),
    ]


def test_derive_without_abstractable_groups_returns_original():
    fw = Framework.of(
        [("a", "ep"), ("b", "eq")],
        [(("a", "ep"), ("b", "eq"))],
    )
    result = derive_abstract_frameworks(fw, WITNESS_LATTICE, WITNESS_MAP, fs({"top"}))
    assert result.frameworks == (fw,)
    assert result.provenance == ((),)


def test_derived_framework_feeds_back_into_sharpen():
    # no expression sits at H, so the merge of a1 and a2 mints one
    lat = validate_lattice(
        ["bot", "x1", "x2", "y", "H", "top"],
        [("bot", "x1"), ("bot", "x2"), ("bot", "y"), ("x1", "H"), ("x2", "H"), ("H", "top"), ("y", "top")],
    )
    fmap = SemanticMap({"e1": "x1", "e2": "x2", "ey": "y"})
    a1, a2, b = ("a1", "e1"), ("a2", "e2"), ("b", "ey")
    fw = Framework.of([a1, a2, b], [(a1, a2), (a2, a1), (b, a1), (a1, b)])
    result = derive_abstract_frameworks(fw, lat, fmap, fs({"top"}))
    (derived,) = result.frameworks
    assert derived.arguments() == [Argument("a1+a2", fs({"H#abs"})), Argument("b", fs({"ey"}))]
    assert result.fmap.image("H#abs") == "H"
    assert "H#abs" not in fmap.symbols

    report = sharpen(derived, lat, result.fmap, fs({"top"}))
    assert report.derivation.frameworks == (derived,)
    assert report.concrete == (fs({"a1+a2"}), fs({"b"}))


def test_restrict_extensions_examples():
    assert restrict_extensions([fs({"a1", "a3"})], {"a1", "a2"}) == [fs({"a1"})]
    assert restrict_extensions([fs({"a4"}), fs({"a2", "a5"})], {"a1", "a2"}) == [fs({"a2"})]
    assert restrict_extensions([], {"a1"}) == []
    # duplicates collapse after projection
    assert restrict_extensions([fs({"a1", "a3"}), fs({"a1", "a4"})], {"a1"}) == [fs({"a1"})]


def test_restrict_extensions_matches_oracle():
    rng = random.Random(555)
    ids = [f"a{i}" for i in range(8)]
    for _ in range(200):
        exts = [
            fs(rng.sample(ids, rng.randint(0, len(ids))))
            for _ in range(rng.randint(0, 5))
        ]
        keep = rng.sample(ids, rng.randint(0, len(ids)))
        got = restrict_extensions(exts, keep)
        assert set(got) == oracle_sigma(exts, keep)
        assert got == sorted(got, key=lambda e: (len(e), tuple(sorted(e))))


def test_concretize_deduplicates(boardroom):
    fw = boardroom.framework
    exts = [fs({"a1+a2+a3", "a5"})]
    assert concretize_extension_sets(fw, [exts, exts]) == [[fs({"a5"})]]


def test_sharpen_boardroom(boardroom):
    report = sharpen(
        boardroom.framework, boardroom.lattice, boardroom.fmap, boardroom.blocked
    )
    assert report.concrete == (fs(),)
    assert report.projected == ((fs({"a5"}),),)
    for arg in ["a1", "a2", "a3", "a4"]:
        v = _verdict(report, arg)
        assert v.concrete_status == "rejected"
        assert v.sharpened == fs({MINUS_APPROVED})
        assert (v.sets_containing, v.extensions_containing) == (0, 0)
    a5 = _verdict(report, "a5")
    assert a5.concrete_status == "rejected"
    assert a5.sharpened == fs({IMPLIED_CREDULOUS, IMPLIED_SKEPTICAL})
    assert (a5.sets_containing, a5.extensions_containing) == (1, 1)


def test_sharpen_marathon(marathon):
    report = sharpen(
        marathon.framework, marathon.lattice, marathon.fmap, marathon.blocked
    )
    assert report.concrete == (fs({"a5"}),)
    assert report.projected == (
        (fs({"a5"}), fs({"a3", "a4"}), fs({"a3", "a5"})),
    )
    assert _verdict(report, "a5").concrete_status == "skeptical"
    assert _verdict(report, "a5").sharpened == fs({PLUS_APPROVED_CREDULOUS})
    assert _verdict(report, "a3").sharpened == fs({IMPLIED_CREDULOUS})
    assert _verdict(report, "a4").sharpened == fs({IMPLIED_CREDULOUS})
    assert _verdict(report, "a1").sharpened == fs({MINUS_APPROVED})
    assert _verdict(report, "a2").sharpened == fs({MINUS_APPROVED})
    a3 = _verdict(report, "a3")
    assert (a3.sets_containing, a3.extensions_containing) == (1, 2)


def test_sharpen_without_groups_runs_preferred_once(monkeypatch):
    # the two-cycle joins at the top, which M rules out
    fw = Framework.of(
        [("a", "ep"), ("b", "er")],
        [(("a", "ep"), ("b", "er")), (("b", "er"), ("a", "ep"))],
    )
    calls = []

    def counting_preferred(framework):
        calls.append(framework)
        return preferred(framework)

    monkeypatch.setattr(afo.pipeline, "preferred", counting_preferred)
    report = sharpen(fw, WITNESS_LATTICE, WITNESS_MAP, fs({"top"}))
    assert report.derivation.frameworks == (fw,)
    assert calls == [fw]
    assert report.abstract_preferred == (report.concrete,)


def test_sharpen_attack_free_framework():
    fw = Framework.of([("a", "ep"), ("b", "eq"), ("c", "er")], [])
    report = sharpen(fw, WITNESS_LATTICE, WITNESS_MAP, fs({"top"}))
    for v in report.verdicts:
        assert v.concrete_status == "skeptical"
        assert PLUS_APPROVED_SKEPTICAL in v.sharpened
        assert PLUS_APPROVED_CREDULOUS in v.sharpened


def _random_mapped_framework(rng):
    symbols = sorted(WITNESS_MAP.symbols)
    n = rng.randint(1, 8)
    arglets = [(f"a{i}", rng.choice(symbols)) for i in range(n)]
    attacks = {
        (src, dst) for src in arglets for dst in arglets if rng.random() < 0.25
    }
    return Framework(fs(arglets), fs(attacks))


def test_derivation_invariants_on_random_frameworks():
    rng = random.Random(8080)
    for _ in range(60):
        fw = _random_mapped_framework(rng)
        original_ids = fw.argument_ids()
        result = derive_abstract_frameworks(fw, WITNESS_LATTICE, WITNESS_MAP, fs({"top"}))
        assert len(result.frameworks) == len(result.provenance) >= 1
        for built, steps in zip(result.frameworks, result.provenance):
            if not steps:
                assert built == fw
            ids = built.argument_ids()
            assert len(ids) <= len(original_ids)
            for step in steps:
                assert len(step.targets) >= 2
                assert not step.targets & ids
                assert step.abstract_arg.arg_id in ids
                assert step.abstract_arg.arg_id == "+".join(sorted(step.targets))
            # projections never mention synthetic ids
            for ext in restrict_extensions(preferred(built), original_ids):
                assert ext <= original_ids


def test_sharpen_reduces_to_concrete_on_acyclic_frameworks():
    rng = random.Random(9090)
    for _ in range(30):
        n = rng.randint(1, 7)
        symbols = sorted(WITNESS_MAP.symbols)
        arglets = [(f"a{i}", rng.choice(symbols)) for i in range(n)]
        attacks = {
            (arglets[i], arglets[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.3
        }
        fw = Framework(fs(arglets), fs(attacks))
        report = sharpen(fw, WITNESS_LATTICE, WITNESS_MAP, fs({"top"}))
        assert report.derivation.frameworks == (fw,)
        for v in report.verdicts:
            if v.concrete_status == "skeptical":
                assert v.sharpened == fs({PLUS_APPROVED_CREDULOUS, PLUS_APPROVED_SKEPTICAL})
            else:
                assert v.concrete_status == "rejected"
                assert v.sharpened == fs({MINUS_APPROVED})
