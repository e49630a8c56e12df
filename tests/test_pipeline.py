import dataclasses
import random
import time
import weakref
from itertools import product

import pytest

import afo.abstraction
import afo.af
import afo.pipeline
import afo.semantics
from afo import (
    AbstractionCandidate,
    Argument,
    EmptySet,
    Framework,
    IdCollision,
    ReplacementStep,
    SemanticMap,
    TargetsNotInFramework,
    UnknownArgument,
    UnknownNode,
    abstract_replace,
    alpha,
    best_abstraction_of,
    concretize_extension_sets,
    conservativity_report,
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
from afo.abstraction import _ScanTable
from afo.af import _contract, _Index, _index
from afo.format import build_model, parse_afo
from afo.pipeline import (
    IMPLIED_CREDULOUS,
    IMPLIED_SKEPTICAL,
    MINUS_APPROVED,
    PLUS_APPROVED_CREDULOUS,
    PLUS_APPROVED_SKEPTICAL,
    QUESTIONED,
)
from afo.semantics import _preferred_masks

from generators import (
    conservative_instance,
    flower_document,
    flower_instance,
    forking_chain,
    hub_cycle_instance,
    hub_pairs_document,
    mapped_framework,
    multi_hub_instance,
    random_lattice,
    random_map,
    ring_instance,
)
from oracles import (
    oracle_maximal_conservative_groups,
    oracle_replace_chain,
    oracle_sccs,
    oracle_sharpen,
    oracle_sigma,
    oracle_verdict,
)
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


def test_scan_raises_unknown_argument(boardroom):
    fw, lat, fmap = boardroom.framework, boardroom.lattice, boardroom.fmap
    for scc in ({"a1", "ghost"}, {"ghost"}):
        with pytest.raises(UnknownArgument, match="ghost"):
            maximal_conservative_subsets(fw, lat, fmap, boardroom.blocked, fs(scc))


def test_scan_table_up_masks_match_alpha_and_unknown_nodes_raise():
    """Per bit, the table holds the up mask of its argument's node (the
    join of its expressions' nodes) and that node, on random lattices with
    1 to 3 expressions per argument and on a flower.  An argument of one
    expression holds the lattice's own mask object, not a copy: the
    flower's masks are hundreds of bits wide, so no copy of them is a
    cached small int.  A map that sends an expression to a node outside
    the lattice fails in every entry point that builds a table."""
    rng = random.Random(3001)
    draws = []
    for _ in range(150):
        lat = random_lattice(rng)
        fmap = random_map(rng, lat)
        draws.append((mapped_framework(rng, fmap, max_exprs=rng.randint(1, 3)), lat, fmap))
    draws.append(flower_instance(30)[:3])
    held = several = 0
    for fw, lat, fmap in draws:
        table = _ScanTable(fw, lat, fmap)
        for i, a in enumerate(table.ix.ids):
            exprs = fw.argument_expressions(a)
            node = alpha(lat, fmap, exprs)
            assert table.ups[i] == lat._up[node]
            assert table.nodes[i] == node
            if len(exprs) == 1:
                assert table.ups[i] is lat._up[node]
                held += table.ups[i] > 256
            several += len(exprs) > 1
    # 165 and 187 at this seed, 90 of the first on the flower
    assert held >= 150
    assert several >= 150

    lat = validate_lattice(["bot", "p", "q", "top"], [("bot", "p"), ("bot", "q"), ("p", "top"), ("q", "top")])
    fmap = SemanticMap({"e": "p", "f": "ghost"})
    fw = Framework.of([("a", "e"), ("b", "f")], [(("a", "e"), ("b", "f")), (("b", "f"), ("a", "e"))])
    candidate = AbstractionCandidate(fs({"a", "b"}), Argument("a+b", fs({"e"})))
    calls = [
        lambda: derive_abstract_frameworks(fw, lat, fmap, {"top"}),
        lambda: sharpen(fw, lat, fmap, {"top"}),
        lambda: maximal_conservative_subsets(fw, lat, fmap, {"top"}, fs({"a", "b"})),
        lambda: is_compatible(fw, lat, fmap, {"a", "b"}),
        lambda: conservativity_report(fw, lat, fmap, {"top"}, candidate),
    ]
    for call in calls:
        with pytest.raises(UnknownNode, match="ghost"):
            call()


@pytest.fixture(scope="module")
def flower_1000():
    """`flower_instance(1000)`, built once for the module: validating its
    10,002-node lattice takes about 0.05 s (Python 3.11.7, 2 cores)."""
    return flower_instance(1000)


def test_flower_scale_scan_keeps_one_group_per_hub_within_a_limit(flower_1000):
    """1,000 hubs over 9 petals, one 3-cycle per hub (`flower_instance`):
    the derivation scans all 1,000 SCCs with one table and keeps each
    cycle, merged at its hub under a fresh synthetic symbol.  On a shared
    2-core Xeon under CPython 3.11 the derivation took about 0.06 s; a
    scan that walked every rank of the 10,002-node lattice per SCC, and
    copied every id and the whole map per kept group, took about 1.06 s."""
    framework, lat, fmap, blocked = flower_1000
    start = time.perf_counter()
    result = derive_abstract_frameworks(framework, lat, fmap, blocked)
    elapsed = time.perf_counter() - start
    assert sorted(steps[0].scc for steps in result.replacements) == sorted(strongly_connected_components(framework))
    assert len(result.replacements) == 1000
    for (step,) in result.replacements:
        hub = "h" + min(step.scc)[1:].split("_")[0]
        (symbol,) = step.abstract_arg.expressions
        assert step.targets == step.scc
        assert step.abstract_arg.arg_id == "+".join(sorted(step.scc))
        assert symbol == f"{hub}#abs" and result.fmap.image(symbol) == hub and symbol not in fmap
    assert elapsed < 1.0


def test_flower_scale_sharpen_keeps_every_group_within_a_limit(flower_1000):
    """`sharpen` on the 1,000-hub flower, from a framework with no index
    yet: one fork, built once from all 1,000 replacements.  On a shared
    2-core Xeon under CPython 3.11 it took about 0.08 s; building the fork
    by one `abstract_replace` call per SCC, each a full copy, took about
    1.2 s."""
    framework, lat, fmap, blocked = flower_1000
    framework = Framework(framework.arglets, framework.attacks)
    start = time.perf_counter()
    report = sharpen(framework, lat, fmap, blocked)
    elapsed = time.perf_counter() - start
    derivation = report.derivation
    assert [len(steps) for steps in derivation.replacements] == [1] * 1000
    assert derivation.provenance == (tuple(steps[0] for steps in derivation.replacements),)
    (fork,) = derivation.frameworks
    assert len(fork.argument_ids()) == 1000 and not fork.attacks
    assert all(derivation.fmap.image(f"h{i}#abs") == f"h{i}" for i in range(1000))
    assert elapsed < 0.5


def _fork_inputs(rng):
    """Forking chains, flower documents and multi-hub flowers."""
    texts = [forking_chain(k) for k in range(1, 6)]
    texts += [flower_document(rng, hubs) for hubs in (12, 24, 40) for _ in range(2)]
    for text in texts:
        model = build_model(parse_afo(text)[0])
        yield model.framework, model.lattice, model.fmap, model.blocked
    for _ in range(300):
        yield multi_hub_instance(rng, outsiders=rng.randint(0, 2))


def test_forks_match_the_chain_of_abstract_replace_calls():
    """Each fork, built in one pass, equals one public `abstract_replace`
    call per step of its provenance, in order and in reverse, and passes
    the public constructor's endpoint check; the provenance is the product
    of the per-SCC replacement lists."""
    rng = random.Random(2202)
    forks = forked = 0
    for fw, lat, fmap, blocked in _fork_inputs(rng):
        result = derive_abstract_frameworks(fw, lat, fmap, blocked)
        assert tuple(product(*result.replacements)) == result.provenance
        for steps in result.replacements:
            assert steps and len({step.scc for step in steps}) == 1
        assert len({steps[0].scc for steps in result.replacements}) == len(result.replacements)
        for built, steps in zip(result.frameworks, result.provenance):
            assert built == oracle_replace_chain(fw, steps, abstract_replace)
            assert built == oracle_replace_chain(fw, reversed(steps), abstract_replace)
            assert Framework(built.arglets, built.attacks) == built
        forks += len(result.frameworks)
        forked += len(result.frameworks) > 1
    # 449 forks, 69 inputs with two or more, at this seed
    assert forks >= 400 and forked >= 60


def test_forking_chain_sharpens_within_a_limit():
    """The forking chain at k=8: 256 forks, each a chain of eight SCCs
    with up to 256 preferred extensions, read SCC by SCC.  Measured on
    Python 3.11.7, 2 cores: 0.15 s; with each fork's components searched
    whole, 1.5 s."""
    model = build_model(parse_afo(forking_chain(8))[0])
    start = time.perf_counter()
    report = sharpen(model.framework, model.lattice, model.fmap, model.blocked)
    elapsed = time.perf_counter() - start
    assert len(report.derivation.frameworks) == len(set(report.projected)) == 256
    assert max(map(len, report.abstract_preferred)) == 256
    assert elapsed < 0.75


def test_forks_take_the_sccs_of_their_input():
    """`af._contract` renames the input's SCC masks for a fork: as sets
    they are the fork's own SCCs, and no SCC attacks one listed before it."""
    rng = random.Random(2404)
    checked = 0
    for fw, lat, fmap, blocked in _fork_inputs(rng):
        result = derive_abstract_frameworks(fw, lat, fmap, blocked)
        for built, steps in zip(result.frameworks, result.provenance):
            if built is fw:
                continue
            ix = _Index(built)
            _contract(_index(fw), ix, {a: step.abstract_arg.arg_id for step in steps for a in step.targets})
            names = [frozenset(ix.ids[i] for i in range(len(ix.ids)) if m >> i & 1) for m in ix.sccs]
            fresh = Framework(built.arglets, built.attacks)
            assert set(names) == set(strongly_connected_components(fresh))
            for i, m in enumerate(ix.sccs):
                later = sum(ix.sccs[i + 1 :])
                assert not any(ix.attackers[j] & later for j in range(len(ix.ids)) if m >> j & 1)
            assert preferred(built) == preferred(fresh)
            checked += 1
    assert checked >= 300


def test_sharpen_indexes_only_its_input(monkeypatch):
    """`sharpen` asks `_index` for its input alone, in every module, and
    searches each fork on an index of its own, so only the input keeps an
    index, and each fork, indexed afresh, gives the same answer."""
    indexed = []

    def spy(framework):
        indexed.append(framework)
        return _index(framework)

    for module in (afo.af, afo.abstraction, afo.pipeline, afo.semantics):
        monkeypatch.setattr(module, "_index", spy)
    model = build_model(parse_afo(forking_chain(3))[0])
    fw = model.framework
    report = sharpen(fw, model.lattice, model.fmap, model.blocked)
    forks = report.derivation.frameworks
    assert len(forks) == 8 and fw not in forks
    assert indexed and all(f is fw for f in indexed)
    assert hasattr(fw, "_ix")
    assert not any(hasattr(f, "_ix") for f in forks)
    for f, extensions in zip(forks, report.abstract_preferred):
        assert tuple(preferred(f)) == extensions


def test_sharpen_frees_each_fork_index_before_the_next(monkeypatch):
    """No two fork indexes are alive at once, and none outlives `sharpen`:
    its peak memory holds one fork index at a time."""
    built = []

    class Spy(_Index):
        def __init__(self, framework):
            assert not any(ref() for ref in built)
            super().__init__(framework)
            built.append(weakref.ref(self))

    monkeypatch.setattr(afo.pipeline, "_Index", Spy)
    model = build_model(parse_afo(forking_chain(3))[0])
    sharpen(model.framework, model.lattice, model.fmap, model.blocked)
    assert len(built) == 8 and not any(ref() for ref in built)


def test_best_abstractions_are_built_for_returned_groups_only(monkeypatch):
    """Maximality is a mask test ahead of `best_abstraction_of`, so a group
    inside a larger kept group gets no abstraction built for it."""
    calls = []

    def counted(*args):
        calls.append(args)
        return best_abstraction_of(*args)

    monkeypatch.setattr(afo.pipeline, "best_abstraction_of", counted)
    rng = random.Random(8080)
    returned = 0
    for _ in range(200):
        fw, lat, fmap, blocked = multi_hub_instance(rng, outsiders=1)
        for scc in strongly_connected_components(fw):
            returned += len(maximal_conservative_subsets(fw, lat, fmap, blocked, scc))
    # 163 groups at this seed; building before the filter made 166 calls
    assert returned >= 150
    assert len(calls) == returned


def test_index_lives_on_the_framework_outside_its_value(boardroom, marathon):
    """The graph index is all that `sharpen` leaves on a framework, and it
    stays out of the framework's value: `vars`, `repr`, the hash and
    equality with an unindexed twin are unchanged, and the index equals a
    fresh one."""
    rng = random.Random(4321)
    inputs = [(m.framework, m.lattice, m.fmap, m.blocked) for m in (boardroom, marathon)]
    inputs += [multi_hub_instance(rng, outsiders=rng.randint(0, 2)) for _ in range(40)]
    kept = 0
    for fw, lat, fmap, blocked in inputs:
        before = (dict(vars(fw)), repr(fw), hash(fw))
        twin = Framework(fw.arglets, fw.attacks)
        sharpen(fw, lat, fmap, blocked)
        assert (vars(fw), repr(fw), hash(fw)) == before
        assert fw == twin and twin == fw and hash(twin) == hash(fw)
        assert [f.name for f in dataclasses.fields(fw)] == ["arglets", "attacks"]
        ix, fresh = _index(fw), _Index(fw)
        assert ix is _index(fw) and _index(twin) is not ix
        for index in (ix, fresh):
            index.scc_homes()
        assert all(getattr(ix, slot) == getattr(fresh, slot) for slot in _Index.__slots__)
        for scc in strongly_connected_components(fw):
            kept += len(maximal_conservative_subsets(fw, lat, fmap, blocked, scc))
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
    (derived,) = result.frameworks
    assert derived is fw
    assert result.provenance == ((),) and result.replacements == ()


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


def _rival_document(rng) -> str:
    """Hub pairs and squares (`hub_pairs_document`) where some pairs' first
    member x is in a 2-cycle with a rival at t, a node under the top alone.
    The pair still merges, and its fork's extension {x+y} projects onto the
    empty set, which is dropped; a pair with no rival and nothing else in
    the document projects onto no extension at all."""
    names = iter(f"n{i}" for i in range(14))
    squares = [tuple(next(names) for _ in range(4)) for _ in range(rng.choice((0, 1, 1, 2)))]
    pairs = [(next(names), next(names)) for _ in range(rng.randint(1 - len(squares) // 2, 2 - len(squares) // 2))]
    loners = [next(names) for _ in range(rng.randint(0, 1))]
    text = hub_pairs_document(pairs, loners, squares)
    rivals = [(f"r{i}", x) for i, (x, _) in enumerate(pairs) if rng.random() < 0.6]
    if rivals:
        text += "node t\ncover bot t\ncover t top\nmap et t\n"
    for r, x in rivals:
        text += f"arglet {r} et\nattack {r}.et {x}.ep\nattack {x}.ep {r}.et\n"
    return text


def test_sharpen_projections_and_verdicts_match_the_oracles_across_forks():
    """`sharpen`'s projections and verdicts on hub documents with pairs,
    squares and rivals against `oracle_sharpen`, and each projection
    against `oracle_sigma` of its fork's extensions: empty restrictions are
    dropped, identical projections kept once, and a projection may hold no
    extension."""
    rng = random.Random(2626)
    forking = dropped = empty = 0
    for _ in range(80):
        text = _rival_document(rng)
        model = build_model(parse_afo(text)[0])
        report = sharpen(model.framework, model.lattice, model.fmap, model.blocked)
        want = oracle_sharpen(text)
        assert [[sorted(e) for e in p] for p in report.projected] == want["projected"], text
        got = {
            v.arg_id: {
                "concrete_status": v.concrete_status,
                "sharpened": sorted(v.sharpened),
                "sets_containing": v.sets_containing,
                "extensions_containing": v.extensions_containing,
            }
            for v in report.verdicts
        }
        assert got == want["classification"], text
        ids = model.framework.argument_ids()
        expected = []
        for extensions in report.abstract_preferred:
            projection = tuple(sorted(oracle_sigma(extensions, ids), key=lambda e: (len(e), sorted(e))))
            if projection not in expected:
                expected.append(projection)
            dropped += any(not e & ids for e in extensions)
        assert list(report.projected) == expected
        forking += len(report.derivation.frameworks) >= 2
        empty += () in report.projected
    # at this seed: 57 of 80 draws fork, 89 forks have an extension that
    # restricts to the empty set, and 4 draws have an empty projection
    assert forking >= 50 and dropped >= 70 and empty >= 3


def test_a_projected_set_held_by_two_projections_is_one_object():
    """Each distinct projected set is named once per `sharpen` call and
    shared by every projection that holds it; with no group merged, the one
    projection is the concrete extensions without the empty set, under
    the names `concrete` holds."""
    model = build_model(parse_afo(forking_chain(3))[0])
    report = sharpen(model.framework, model.lattice, model.fmap, model.blocked)
    held = [e for p in report.projected for e in p]
    assert len({id(e) for e in held}) == len(set(held)) < len(held)
    fw = Framework.of(
        [("a", "ep"), ("b", "er")],
        [(("a", "ep"), ("b", "er")), (("b", "er"), ("a", "ep"))],
    )
    report = sharpen(fw, WITNESS_LATTICE, WITNESS_MAP, fs({"top"}))
    ((first, second),) = report.projected
    assert first is report.concrete[0] and second is report.concrete[1]


def test_sharpen_without_groups_runs_preferred_once(monkeypatch):
    # the two-cycle joins at the top, which M rules out
    fw = Framework.of(
        [("a", "ep"), ("b", "er")],
        [(("a", "ep"), ("b", "er")), (("b", "er"), ("a", "ep"))],
    )
    calls = []

    def counting_search(ix):
        calls.append(ix)
        return _preferred_masks(ix)

    monkeypatch.setattr(afo.pipeline, "_preferred_masks", counting_search)
    report = sharpen(fw, WITNESS_LATTICE, WITNESS_MAP, fs({"top"}))
    (derived,) = report.derivation.frameworks
    assert derived is fw and len(calls) == 1 and calls[0] is _index(fw)
    assert report.abstract_preferred == (report.concrete,)
    # the input is no fork: it keeps its index
    assert hasattr(fw, "_ix")


def test_derivation_computes_sccs_once(monkeypatch):
    """The derivation walks the SCC masks of the framework's index, and
    validity reads the same masks, so a derivation runs the
    whole-framework Tarjan only once."""
    runs = []
    tarjan = afo.af._sccs

    def counting_sccs(ix, within):
        if within == ix.everything:
            runs.append(ix)
        return tarjan(ix, within)

    monkeypatch.setattr(afo.af, "_sccs", counting_sccs)
    rng = random.Random(443)
    kept = 0
    for _ in range(200):
        fw, lat, fmap, blocked = multi_hub_instance(rng)
        kept += len(derive_abstract_frameworks(fw, lat, fmap, blocked).provenance[0])
    assert kept >= 100
    assert len(runs) == 200


def test_a_derivation_with_no_candidate_names_nothing(monkeypatch):
    """k-cycles over the atoms of one hub in M, as `groupscan` builds them:
    no SCC has a candidate group, so the derivation runs the private scan
    on each SCC mask and calls neither `strongly_connected_components` nor
    the public scan, and the input is its one framework."""
    import afo.abstraction
    import afo.cli

    public, scans = [], []
    scan = afo.pipeline._scan
    # patched wherever the names are bound, so a direct import is counted too
    for module in (afo, afo.af, afo.abstraction, afo.pipeline, afo.cli):
        for name in ("strongly_connected_components", "maximal_conservative_subsets"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, lambda *args, _name=name, **kwargs: public.append(_name))
    monkeypatch.setattr(afo.pipeline, "_scan", lambda table, within: scans.append(within) or scan(table, within))
    rng = random.Random(2727)
    for i in range(27):
        fw, lat, fmap, blocked = hub_cycle_instance(rng, 7 + i % 3, (i // 3) % 3)
        result = derive_abstract_frameworks(fw, lat, fmap, blocked)
        assert result.frameworks == (fw,) and result.frameworks[0] is fw
        assert result.provenance == ((),) and result.replacements == ()
        assert result.fmap is fmap
        assert scans == [_index(fw).everything]
        scans.clear()
    assert public == []


def test_the_derivation_keeps_what_the_public_scan_keeps():
    """Per SCC, in scan order, the public scan's groups are the
    derivation's replacements for that SCC, with the same merged ids, and
    its maps bind every symbol the derivation minted."""
    rng = random.Random(2728)
    kept = bare = 0
    for _ in range(120):
        fw, lat, fmap, blocked = multi_hub_instance(rng, outsiders=rng.randint(0, 3))
        result = derive_abstract_frameworks(fw, lat, fmap, blocked)
        made = {steps[0].scc: steps for steps in result.replacements}
        for scc in strongly_connected_components(fw):
            groups = maximal_conservative_subsets(fw, lat, fmap, blocked, scc)
            assert made.pop(scc, ()) == tuple(ReplacementStep(scc, c.targets, c.abstract_arg) for c, _ in groups)
            for candidate, xmap in groups:
                for symbol in candidate.abstract_arg.expressions:
                    assert result.fmap.image(symbol) == xmap.image(symbol)
            kept += len(groups)
            bare += len(scc) > 1 and not groups
        assert made == {}
    # 95 groups kept and 54 cycles keeping none at this seed
    assert kept >= 80 and bare >= 40


def test_scan_without_table_runs_tarjan_only_for_a_candidate_group(monkeypatch):
    """The public per-SCC scan, which builds its own table, runs no Tarjan
    for a one-id set or when no group passes the node filter.  Over all the
    scans of one framework it runs Tarjan at most once, and exactly once
    when it keeps a group: the SCC masks stay on the framework's index."""
    runs = []
    tarjan = afo.af._sccs
    monkeypatch.setattr(afo.af, "_sccs", lambda ix, within: runs.append(within) or tarjan(ix, within))
    rng = random.Random(447)
    scans = kept = 0
    for _ in range(30):
        fw, lat, fmap, blocked = multi_hub_instance(rng, outsiders=2)
        comps = strongly_connected_components(Framework(fw.arglets, fw.attacks))
        runs.clear()
        kept_here = 0
        for scc in comps:
            ran = len(runs)
            assert maximal_conservative_subsets(fw, lat, fmap, blocked, frozenset([min(scc)])) == []
            assert maximal_conservative_subsets(fw, lat, fmap, lat.nodes, scc) == []
            assert len(runs) == ran
            if len(scc) > 1:
                kept_here += len(maximal_conservative_subsets(fw, lat, fmap, blocked, scc))
                assert len(runs) == 1 if kept_here else len(runs) <= 1
                scans += 1
        kept += kept_here
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
                assert built is fw
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
