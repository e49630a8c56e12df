import random

import pytest

import afo.pipeline
from afo import (
    Argument,
    EmptySet,
    Framework,
    IdCollision,
    SemanticMap,
    TargetsNotInFramework,
    UnknownArgument,
    abstract_replace,
    alpha,
    best_abstraction_of,
    concretize_extension_sets,
    derive_abstract_frameworks,
    is_attack_preserving,
    is_compatible,
    is_conservative,
    maximal_conservative_subsets,
    preferred,
    restrict_extensions,
    sharpen,
    strongly_connected_components,
    validate_lattice,
)
from afo.format import build_model, parse_afo
from afo.pipeline import (
    _group_scan,
    _ScanTable,
    IMPLIED_CREDULOUS,
    IMPLIED_SKEPTICAL,
    MINUS_APPROVED,
    PLUS_APPROVED_CREDULOUS,
    PLUS_APPROVED_SKEPTICAL,
    QUESTIONED,
)

from generators import (
    conservative_instance,
    hub_pairs_document,
    mapped_framework,
    multi_hub_instance,
    random_lattice,
    random_map,
    ring_instance,
)
from oracles import oracle_maximal_conservative_groups, oracle_sccs, oracle_sigma, oracle_verdict
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


def test_scan_keeps_no_group_across_sccs():
    # two disjoint 2-cycles under one hub outside M, passed as one "scc"
    lat = validate_lattice(
        ["bot", "pw", "px", "py", "pz", "H", "top"],
        [("bot", p) for p in ("pw", "px", "py", "pz")] + [(p, "H") for p in ("pw", "px", "py", "pz")] + [("H", "top")],
    )
    fmap = SemanticMap({"ew": "pw", "ex": "px", "ey": "py", "ez": "pz"})
    w, x, y, z = ("w", "ew"), ("x", "ex"), ("y", "ey"), ("z", "ez")
    fw = Framework.of([w, x, y, z], [(w, x), (x, w), (y, z), (z, y)])
    blocked = fs({"top"})
    assert maximal_conservative_subsets(fw, lat, fmap, blocked, fs("wxyz")) == []
    for scc in (fs("wx"), fs("yz")):
        assert [c.targets for c, _ in maximal_conservative_subsets(fw, lat, fmap, blocked, scc)] == [scc]
    # part of the SCC w<->x -> y -> u -> z -> w: {w,x} could grow by u
    lat = validate_lattice(
        ["bot", "pw", "px", "pu", "py", "pz", "H", "top"],
        [("bot", p) for p in ("pw", "px", "pu", "py", "pz")]
        + [(p, "H") for p in ("pw", "px", "pu")]
        + [(p, "top") for p in ("H", "py", "pz")],
    )
    fmap = SemanticMap({f"e{a}": f"p{a}" for a in "wxuyz"})
    w, x, u, y, z = ((a, f"e{a}") for a in "wxuyz")
    fw = Framework.of([w, x, u, y, z], [(w, x), (x, w), (x, y), (y, u), (u, z), (z, w)])
    assert maximal_conservative_subsets(fw, lat, fmap, blocked, fs("wx")) == []
    assert [c.targets for c, _ in maximal_conservative_subsets(fw, lat, fmap, blocked, fs("wxuyz"))] == [fs("wxu")]


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


def _join_groups(fw, lat, fmap, blocked, scc):
    """Per node v outside M, read off the lattice one node at a time: the
    SCC members below v when there are two or more and v is their join."""
    node_of = {a: alpha(lat, fmap, fw.argument_expressions(a)) for a in sorted(scc)}
    for v in sorted(lat.nodes - blocked):
        group = [a for a, n in node_of.items() if lat.leq(n, v)]
        if len(group) >= 2 and lat.join(node_of[a] for a in group) == v:
            yield group


def _scan_paths(fw, lat, fmap, blocked):
    """Groups the scan keeps, and join groups rejected by compatibility
    alone or by attack preservation alone, after checking the scan against
    the subset oracle."""
    paths = {"kept": 0, "compatibility": 0, "attack preservation": 0}
    for scc in strongly_connected_components(fw):
        scan = maximal_conservative_subsets(fw, lat, fmap, blocked, scc)
        want = oracle_maximal_conservative_groups(
            lat.nodes, lat.covers, dict(fmap.items()), fw.arglets, fw.attacks, blocked, scc
        )
        assert [c.targets for c, _ in scan] == want
        paths["kept"] += len(scan)
        for group in _join_groups(fw, lat, fmap, blocked, scc):
            candidate, xmap = best_abstraction_of(lat, fmap, [Argument(a, fw.argument_expressions(a)) for a in group])
            compatible = is_compatible(fw, lat, xmap, group)
            preserving = is_attack_preserving(fw, lat, xmap, candidate)
            paths["compatibility"] += preserving and not compatible
            paths["attack preservation"] += compatible and not preserving
    return paths


def test_scan_mask_paths_match_subset_oracle():
    rng = random.Random(1911)
    totals = {"kept": 0, "compatibility": 0, "attack preservation": 0}
    draws = [multi_hub_instance(rng, outsiders=rng.randint(1, 3)) for _ in range(100)]
    draws += [conservative_instance(rng)[:4] for _ in range(20)]
    for _ in range(20):
        pairs = [(f"x{i}", f"y{i}") for i in range(rng.randint(1, 3))]
        model = build_model(parse_afo(hub_pairs_document(pairs, [f"z{i}" for i in range(rng.randint(0, 2))]))[0])
        draws.append((model.framework, model.lattice, model.fmap, model.blocked))
    for fw, lat, fmap, blocked in draws:
        for path, count in _scan_paths(fw, lat, fmap, blocked).items():
            totals[path] += count
    # 139, 12 and 35 at this seed
    assert totals["kept"] >= 100
    assert totals["compatibility"] >= 8
    assert totals["attack preservation"] >= 20


def _checked_join_groups(fw, lat, fmap, blocked, ids):
    """The set-code reference for a scan over any id set: each join group
    checked by `is_conservative` under the map of its best abstraction, the
    maximal ones kept and sorted as the scan sorts them.  Also returns the
    join groups that validity alone rejects."""
    conservative, invalid = [], []
    for group in _join_groups(fw, lat, fmap, blocked, ids):
        candidate, xmap = best_abstraction_of(lat, fmap, [Argument(a, fw.argument_expressions(a)) for a in group])
        if is_conservative(fw, lat, xmap, blocked, candidate):
            conservative.append(candidate.targets)
        elif is_compatible(fw, lat, xmap, group) and is_attack_preserving(fw, lat, xmap, candidate):
            invalid.append(candidate.targets)
    maximal = [g for g in conservative if not any(g < bigger for bigger in conservative)]
    return sorted(maximal, key=lambda g: (-len(g), tuple(sorted(g)))), invalid


def test_scan_matches_set_code_on_any_id_set():
    """Scanned over SCCs, unions of two SCCs and random id sets, the scan
    keeps exactly the maximal join groups that the set-code predicates find
    conservative."""
    rng = random.Random(2215)
    draws = [multi_hub_instance(rng, outsiders=rng.randint(0, 3)) for _ in range(80)]
    draws += [conservative_instance(rng)[:4] for _ in range(30)]
    draws += [ring_instance(rng) for _ in range(30)]
    for _ in range(80):
        lat = random_lattice(rng)
        fmap = random_map(rng, lat)
        draws.append((mapped_framework(rng, fmap, max_exprs=rng.randint(1, 2)), lat, fmap, fs({lat.top})))
    kept_off_scc, invalid = 0, {"across SCCs": 0, "growable": 0}
    for fw, lat, fmap, blocked in draws:
        sccs = strongly_connected_components(fw)
        ids = sorted(fw.argument_ids())
        inputs = sccs + [sccs[i] | sccs[j] for i in range(len(sccs)) for j in range(i + 1, len(sccs))][:3]
        inputs += [fs(rng.sample(ids, rng.randint(2, len(ids)))) for _ in range(3) if len(ids) >= 2]
        for scc in inputs:
            scan = maximal_conservative_subsets(fw, lat, fmap, blocked, scc)
            want, rejected = _checked_join_groups(fw, lat, fmap, blocked, scc)
            assert [c.targets for c, _ in scan] == want
            if scc in sccs:
                assert not rejected
                continue
            kept_off_scc += bool(scan)
            for group in rejected:
                invalid["growable" if any(group <= c for c in sccs) else "across SCCs"] += 1
    # 204, 282 and 45 at this seed; the rings give most growable groups
    assert kept_off_scc >= 170
    assert invalid["across SCCs"] >= 230
    assert invalid["growable"] >= 35


def test_scan_raises_unknown_argument_with_and_without_table(boardroom):
    fw, lat, fmap = boardroom.framework, boardroom.lattice, boardroom.fmap
    for kwargs in ({}, {"table": _ScanTable(fw, lat, fmap)}):
        for scc in ({"a1", "ghost"}, {"ghost"}):
            with pytest.raises(UnknownArgument, match="ghost"):
                maximal_conservative_subsets(fw, lat, fmap, boardroom.blocked, fs(scc), **kwargs)


def test_scan_table_lives_for_one_scan(boardroom, marathon):
    """Nothing the scan builds stays on the framework, and a passed table
    changes no result."""
    rng = random.Random(4321)
    inputs = [(m.framework, m.lattice, m.fmap, m.blocked) for m in (boardroom, marathon)]
    inputs += [multi_hub_instance(rng, outsiders=rng.randint(0, 2)) for _ in range(40)]
    kept = 0
    for fw, lat, fmap, blocked in inputs:
        before = dict(vars(fw))
        sharpen(fw, lat, fmap, blocked)
        scan = _group_scan(fw, lat, fmap, blocked)
        assert vars(fw) == before
        table = _ScanTable(fw, lat, fmap)
        for scc, _ in scan:
            groups = maximal_conservative_subsets(fw, lat, fmap, blocked, scc)
            assert maximal_conservative_subsets(fw, lat, fmap, blocked, scc, table=table) == groups
            kept += len(groups)
    assert kept >= 30


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
    with pytest.raises(TargetsNotInFramework):
        abstract_replace(fw, set(), Argument("w", fs({"e"})))
    with pytest.raises(IdCollision):
        abstract_replace(fw, {"a1", "a2"}, Argument("a4", fs({"e"})))
    # with no arglet to carry them, the group's boundary attacks would vanish
    with pytest.raises(EmptySet):
        abstract_replace(fw, {"a1"}, Argument("z", fs()))


def test_minted_ids_never_collide():
    # an input argument already named a+b; two SCCs that both mint a+b+c
    cases = [
        (hub_pairs_document([("a", "b")], ["a+b"]), {fs({"a", "b"}): "a+b'"}),
        (hub_pairs_document([("a+b", "c"), ("a", "b+c")]), {fs({"a+b", "c"}): "a+b+c", fs({"a", "b+c"}): "a+b+c'"}),
    ]
    for text, minted in cases:
        model = build_model(parse_afo(text)[0])
        report = sharpen(model.framework, model.lattice, model.fmap, model.blocked)
        (steps,) = report.derivation.provenance
        assert {step.targets: step.abstract_arg.arg_id for step in steps} == minted
        (derived,) = report.derivation.frameworks
        assert set(minted.values()) <= derived.argument_ids()


def test_scanned_candidates_replace_as_they_are():
    # an input argument already named a+b, as in test_minted_ids_never_collide
    model = build_model(parse_afo(hub_pairs_document([("a", "b")], ["a+b"]))[0])
    fw = model.framework
    minted = []
    for scc in oracle_sccs(*fw.dung_projection()):
        for candidate, _ in maximal_conservative_subsets(fw, model.lattice, model.fmap, model.blocked, scc):
            derived = abstract_replace(fw, candidate.targets, candidate.abstract_arg)
            assert candidate.abstract_arg.arg_id in derived.argument_ids()
            minted.append(candidate.abstract_arg.arg_id)
    assert minted == ["a+b'"]


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


def _odd_cycle(rng):
    """An odd cycle over the witness symbols, now and then with one more
    argument that it attacks: unless a merge evens it out, every projection
    of its preferred extensions is empty."""
    symbols = sorted(WITNESS_MAP.symbols)
    k = rng.choice([3, 5])
    arglets = [(f"c{i}", rng.choice(symbols)) for i in range(k)]
    attacks = {(arglets[i], arglets[(i + 1) % k]) for i in range(k)}
    if rng.random() < 0.5:
        tail = ("t", rng.choice(symbols))
        attacks.add((rng.choice(arglets), tail))
        arglets.append(tail)
    return Framework.of(arglets, attacks), WITNESS_LATTICE, WITNESS_MAP, fs({"top"})


def test_verdicts_match_label_table_oracle():
    rng = random.Random(1517)
    draws = [(_random_mapped_framework(rng), WITNESS_LATTICE, WITNESS_MAP, fs({"top"})) for _ in range(60)]
    draws += [multi_hub_instance(rng, outsiders=rng.randint(0, 2)) for _ in range(60)]
    draws += [conservative_instance(rng)[:4] for _ in range(20)]
    draws += [_odd_cycle(rng) for _ in range(40)]
    labels, facing_empty = set(), 0
    for fw, lat, fmap, blocked in draws:
        report = sharpen(fw, lat, fmap, blocked)
        for v in report.verdicts:
            want = oracle_verdict(v.arg_id, report.concrete, report.projected)
            assert (v.concrete_status, v.sharpened, v.sets_containing, v.extensions_containing) == want
            labels |= v.sharpened
            facing_empty += () in report.projected
    assert labels == {
        PLUS_APPROVED_CREDULOUS, PLUS_APPROVED_SKEPTICAL, QUESTIONED,
        MINUS_APPROVED, IMPLIED_CREDULOUS, IMPLIED_SKEPTICAL,
    }
    # 285 at this seed; the rarest label, implied_skeptical, is hit 18 times
    assert facing_empty >= 250


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


def test_derivation_computes_sccs_once(monkeypatch):
    """The scan's table computes the framework's SCCs once and validity
    reads its SCC there, so a derivation runs the whole-framework SCC
    computation only once."""
    import afo.abstraction
    import afo.af

    calls = []
    sccs = afo.af.strongly_connected_components

    def counting_sccs(framework):
        calls.append(framework)
        return sccs(framework)

    for module in (afo.af, afo.abstraction, afo.pipeline):
        if hasattr(module, "strongly_connected_components"):
            monkeypatch.setattr(module, "strongly_connected_components", counting_sccs)
    rng = random.Random(443)
    kept = 0
    for _ in range(200):
        fw, lat, fmap, blocked = multi_hub_instance(rng)
        kept += len(derive_abstract_frameworks(fw, lat, fmap, blocked).provenance[0])
    assert kept >= 100
    assert len(calls) == 200


def test_scan_without_table_computes_sccs_only_for_a_candidate_group(monkeypatch):
    """Called without `table=`, the per-SCC scan computes no SCCs for a
    one-id set or when no group passes the node filter, and one set of
    SCCs when some group does."""
    calls = []
    sccs = afo.pipeline.strongly_connected_components
    monkeypatch.setattr(afo.pipeline, "strongly_connected_components", lambda fw: calls.append(fw) or sccs(fw))
    rng = random.Random(447)
    scans = kept = 0
    for _ in range(30):
        fw, lat, fmap, blocked = multi_hub_instance(rng, outsiders=2)
        for scc in sccs(fw):
            assert maximal_conservative_subsets(fw, lat, fmap, blocked, frozenset([min(scc)])) == []
            assert maximal_conservative_subsets(fw, lat, fmap, lat.nodes, scc) == []
            assert not calls
            if len(scc) > 1:
                groups = maximal_conservative_subsets(fw, lat, fmap, blocked, scc)
                assert len(calls) == 1 if groups else len(calls) <= 1
                kept += len(groups)
                scans += 1
                calls.clear()
    assert scans == 30 and kept >= 10  # 14 at this seed


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


def _derivation_inputs(rng):
    for _ in range(60):
        yield _random_mapped_framework(rng), WITNESS_LATTICE, WITNESS_MAP, fs({"top"})
    # flowers with several hubs, where one SCC can keep several groups and fork
    for _ in range(800):
        yield multi_hub_instance(rng)


def test_derivation_invariants_on_random_frameworks():
    rng = random.Random(8080)
    forked = 0
    for fw, lat, fmap, blocked in _derivation_inputs(rng):
        original_ids = fw.argument_ids()
        result = derive_abstract_frameworks(fw, lat, fmap, blocked)
        assert len(result.frameworks) == len(result.provenance) >= 1
        assert len(set(result.frameworks)) == len(result.frameworks)
        forked += len(result.frameworks) > 1
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
    assert forked >= 200


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
