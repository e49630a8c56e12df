import random
import time
from itertools import combinations

import pytest

from afo import (
    CREDULOUS,
    IN,
    OUT,
    SKEPTICAL,
    UNDECIDED,
    Framework,
    UnknownArgument,
    acceptance,
    cf2,
    grounded_labelling,
    has_path,
    is_admissible,
    is_conflict_free,
    maximal_conflict_free_sets,
    preferred,
    preferred_bruteforce,
    strongly_connected_components,
)

import afo.semantics
from afo.af import _Index, _index, _union
from afo.semantics import _extensions, _preferred_in, _preferred_masks, _run, _scc_recursive

from generators import (
    chained_four_cycles,
    linked_two_cycles,
    random_framework,
    random_single_scc_framework,
    ring,
    sparse_framework,
    two_cycle_union,
)
from oracles import (
    oracle_cf2,
    oracle_grounded,
    oracle_maximal_conflict_free,
    oracle_naive_branch,
    oracle_preferred,
    oracle_preferred_dfs,
    oracle_sccs_ordered,
    oracle_sorted_extensions,
)


def _chain():
    return Framework.of(
        [("a", "e1"), ("b", "e2"), ("c", "e3")],
        [(("a", "e1"), ("b", "e2")), (("b", "e2"), ("c", "e3"))],
    )


def _mutual():
    return Framework.of(
        [("x", "e1"), ("y", "e2")],
        [(("x", "e1"), ("y", "e2")), (("y", "e2"), ("x", "e1"))],
    )


def _self_attacker():
    return Framework.of([("s", "e")], [(("s", "e"), ("s", "e"))])


def test_conflict_free(boardroom):
    fw = boardroom.framework
    assert is_conflict_free(fw, set())
    assert is_conflict_free(fw, {"a1", "a5"})
    assert not is_conflict_free(fw, {"a1", "a3"})
    assert not is_conflict_free(fw, {"a4", "a5"})
    with pytest.raises(UnknownArgument):
        is_conflict_free(fw, {"ghost"})


def test_admissible(boardroom, marathon):
    assert is_admissible(boardroom.framework, set())
    assert not is_admissible(boardroom.framework, {"a5"})
    assert is_admissible(marathon.framework, {"a5"})
    assert not is_admissible(marathon.framework, {"a1"})
    assert not is_admissible(_self_attacker(), {"s"})


def test_preferred_on_fixtures(boardroom, marathon):
    # the odd cycle leaves nothing defensible
    assert preferred(boardroom.framework) == [frozenset()]
    assert preferred(marathon.framework) == [frozenset({"a5"})]


def test_preferred_small_frameworks():
    assert preferred(_mutual()) == [frozenset({"x"}), frozenset({"y"})]
    assert preferred(_chain()) == [frozenset({"a", "c"})]
    assert preferred(_self_attacker()) == [frozenset()]
    solo = Framework.of([("a", "e")], [])
    assert preferred(solo) == [frozenset({"a"})]


def test_extension_ordering():
    # smallest first, ties broken by the sorted ids as strings, which here
    # disagree with the order the ids are written in: B < a10 < a9 < b < c
    fs = frozenset
    fw = _dung(
        ["a9", "a10", "b", "c", "B"],
        [("a9", "a10"), ("a10", "a9"), ("B", "b"), ("b", "c"), ("c", "B")],
    )
    assert preferred(fw) == [fs({"a10"}), fs({"a9"})]
    assert cf2(fw) == [
        fs({"B", "a10"}),
        fs({"B", "a9"}),
        fs({"a10", "b"}),
        fs({"a10", "c"}),
        fs({"a9", "b"}),
        fs({"a9", "c"}),
    ]


def _awkward_ids(rng, n):
    """n distinct ids, shuffled, whose string order is not numeric order
    (a10 < a9 < b), in mixed case and with non-ASCII letters."""
    pool = ["a9", "a10", "b", "B", "ab", "Ab", "e", "é", "ß", "Ω", "日本"]
    pool += [f"{p}{i}" for i in range(n) for p in ("a", "B", "é")]
    return rng.sample(list(dict.fromkeys(pool)), n)


def _mask_list(rng, n):
    """The empty and the full mask, random and sparse masks, masks of one
    size that differ in two bits, and duplicates, shuffled."""
    masks = [0, (1 << n) - 1]
    for _ in range(40):
        kind = rng.randrange(3)
        if kind == 0:
            masks.append(rng.getrandbits(n))
        elif kind == 1:
            masks.append(sum(1 << i for i in rng.sample(range(n), min(n, rng.randint(1, 3)))))
        else:
            m = rng.choice(masks)
            ones = [i for i in range(n) if m >> i & 1]
            zeros = [i for i in range(n) if not m >> i & 1]
            if ones and zeros:
                masks.append(m ^ 1 << rng.choice(ones) ^ 1 << rng.choice(zeros))
    masks += rng.sample(masks, 8)
    rng.shuffle(masks)
    return masks


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_extensions_match_set_and_sort_oracle(n):
    # the kernel's way out: masks deduplicated, ordered and named on ints
    rng = random.Random(1200 + n)
    for _ in range(30):
        ids = _awkward_ids(rng, n)
        masks = _mask_list(rng, n)
        got = _extensions(_Index(_dung(ids, [])), masks)
        assert got == oracle_sorted_extensions(sorted(ids), masks)


@pytest.mark.parametrize("free", [61, 64])
def test_semantics_past_64_bits(free):
    """`free` unattacked arguments that attack nothing sort before a tail
    of three 2-cycles and a 3-cycle that attacks one of them, so the tail's
    choices lie at bits 61-69 or 64-72.  Each free argument joins every
    preferred extension, naive set and cf2 extension, so the 2^n oracles
    run on the tail alone; lifted by the free arguments, which sort first,
    their lists keep their order."""
    tail = [f"z{i}" for i in range(9)]
    tail_edges = [("z0", "z1"), ("z1", "z0"), ("z2", "z3"), ("z3", "z2"), ("z4", "z5"), ("z5", "z4")]
    tail_edges += [("z6", "z7"), ("z7", "z8"), ("z8", "z6"), ("z8", "z4")]
    isolated = [f"a{i:02d}" for i in range(free)]
    fw = _dung(isolated + tail, tail_edges)
    lift = frozenset(isolated)
    assert preferred(fw) == [lift | e for e in oracle_preferred(tail, tail_edges)]
    assert cf2(fw) == [lift | e for e in oracle_cf2(tail, tail_edges)]
    naive = maximal_conflict_free_sets(fw)
    assert naive == [lift | e for e in oracle_maximal_conflict_free(tail, tail_edges)]
    assert (len(preferred(fw)), len(cf2(fw)), len(naive)) == (4, 20, 20)
    ids, edges = fw.dung_projection()
    assert strongly_connected_components(fw) == oracle_sccs_ordered(ids, edges)


def test_grounded_on_fixtures(boardroom):
    labels = grounded_labelling(boardroom.framework)
    assert set(labels.values()) == {UNDECIDED}
    chain = grounded_labelling(_chain())
    assert chain == {"a": IN, "b": OUT, "c": IN}
    assert grounded_labelling(_mutual()) == {"x": UNDECIDED, "y": UNDECIDED}


def test_maximal_conflict_free(marathon):
    got = maximal_conflict_free_sets(marathon.framework)
    ids, edges = marathon.framework.dung_projection()
    assert got == oracle_maximal_conflict_free(sorted(ids), sorted(edges))


def test_cf2_on_fixtures(boardroom, marathon):
    assert cf2(boardroom.framework) == [
        frozenset({"a1", "a5"}),
        frozenset({"a2", "a5"}),
        frozenset({"a3", "a5"}),
    ]
    assert cf2(marathon.framework) == [
        frozenset({"a1", "a4"}),
        frozenset({"a1", "a5"}),
        frozenset({"a2", "a5"}),
        frozenset({"a3", "a4"}),
        frozenset({"a3", "a5"}),
    ]


def test_cf2_small_cases():
    assert cf2(_self_attacker()) == [frozenset()]
    assert cf2(_chain()) == [frozenset({"a", "c"})]
    assert cf2(_mutual()) == [frozenset({"x"}), frozenset({"y"})]


def test_cf2_survivors_follow_the_upstream_choice():
    # a <-> b upstream; downstream the cycle c -> e -> d -> c loses d and e
    # under {a} but only e under {b}, which leaves d -> c to decide
    names = ["a", "b", "c", "d", "e"]
    edges = [("a", "b"), ("b", "a"), ("c", "e"), ("e", "d"), ("d", "c"), ("a", "d"), ("a", "e"), ("b", "e")]
    fw = Framework.of([(n, "x") for n in names], [((s, "x"), (d, "x")) for s, d in edges])
    assert cf2(fw) == [frozenset({"a", "c"}), frozenset({"b", "d"})]
    assert cf2(fw) == oracle_cf2(names, edges)


def test_cf2_equals_mcf_on_single_scc():
    rng = random.Random(31337)
    for _ in range(40):
        fw = random_single_scc_framework(rng)
        assert cf2(fw) == maximal_conflict_free_sets(fw)


def test_acceptance_modes(boardroom, marathon):
    assert acceptance(marathon.framework, "a5", SKEPTICAL)
    assert acceptance(marathon.framework, "a5", CREDULOUS)
    assert not acceptance(boardroom.framework, "a5", CREDULOUS)
    assert not acceptance(boardroom.framework, "a1", SKEPTICAL)
    solo = Framework.of([("a", "e")], [])
    assert acceptance(solo, "a", CREDULOUS)
    assert acceptance(solo, "a", SKEPTICAL)
    assert acceptance(marathon.framework, "a4", CREDULOUS, semantics="cf2")
    assert not acceptance(marathon.framework, "a4", SKEPTICAL, semantics="cf2")
    with pytest.raises(UnknownArgument):
        acceptance(solo, "ghost", CREDULOUS)
    with pytest.raises(ValueError):
        acceptance(solo, "a", "sometimes")
    with pytest.raises(ValueError):
        acceptance(solo, "a", CREDULOUS, semantics="stable")


def test_preferred_matches_oracle():
    rng = random.Random(90210)
    for _ in range(60):
        fw = random_framework(rng, max_args=9)
        ids, edges = fw.dung_projection()
        assert preferred(fw) == oracle_preferred(sorted(ids), sorted(edges))
        assert preferred_bruteforce(fw) == preferred(fw)
        assert oracle_preferred_dfs(ids, edges) == preferred(fw)


def test_grounded_matches_oracle():
    rng = random.Random(41)
    for _ in range(60):
        fw = random_framework(rng, max_args=9)
        ids, edges = fw.dung_projection()
        assert grounded_labelling(fw) == oracle_grounded(sorted(ids), sorted(edges))


def test_mcf_matches_oracle():
    rng = random.Random(42)
    for _ in range(60):
        fw = random_framework(rng, max_args=9)
        ids, edges = fw.dung_projection()
        assert maximal_conflict_free_sets(fw) == oracle_maximal_conflict_free(
            sorted(ids), sorted(edges)
        )


def _dung(names, edges):
    return Framework.of([(n, "x") for n in names], [((s, "x"), (d, "x")) for s, d in edges])


def test_naive_sets_match_take_drop_oracle_on_larger_frameworks():
    # 13 to 24 arguments, beyond the 2^n enumeration of
    # oracle_maximal_conflict_free; some self-attack, some have two arglets
    rng = random.Random(2006)
    loops = doubled = 0
    for i in range(40):
        if i % 2:
            fw = sparse_framework(rng, max_args=24, density=rng.choice([0.08, 0.12, 0.16, 0.2, 0.3]))
        else:
            fw = random_single_scc_framework(
                rng, max_args=24, min_args=13, chord_prob=rng.choice([0.02, 0.04, 0.08, 0.15]), doubled=0.3
            )
            assert len(strongly_connected_components(fw)) == 1
        ids, edges = fw.dung_projection()
        expected = oracle_naive_branch(ids, edges)
        assert maximal_conflict_free_sets(fw) == expected
        if i % 2 == 0:
            assert cf2(fw) == expected
        loops += any(s == d for s, d in edges)
        doubled += len(fw.arglets) > len(ids)
    assert loops >= 10 and doubled >= 20


def test_disjoint_triangles_have_three_to_the_k_naive_sets():
    # Moon and Moser's extremal graphs: k disjoint triangles of mutual
    # attacks have 3^k naive sets, the most any 3k arguments can have
    def triangles(k):
        names = [f"t{i}{c}" for i in range(k) for c in "xyz"]
        edges = [(f"t{i}{s}", f"t{i}{d}") for i in range(k) for s in "xyz" for d in "xyz" if s != d]
        return names, edges

    for k in range(1, 8):
        names, edges = triangles(k)
        assert len(maximal_conflict_free_sets(_dung(names, edges))) == 3**k

    # a one-way ring t0x -> t1x -> ... -> t0x makes one SCC, whose naive
    # sets are the cyclic words over x, y, z with no two x adjacent:
    # a(k) = 2 a(k-1) + 2 a(k-2)
    for k, count in [(2, 8), (3, 20), (4, 56), (5, 152), (6, 416), (7, 1136)]:
        names, edges = triangles(k)
        linked = _dung(names, edges + [(f"t{i}x", f"t{(i + 1) % k}x") for i in range(k)])
        assert strongly_connected_components(linked) == [linked.argument_ids()]
        naive = maximal_conflict_free_sets(linked)
        assert len(naive) == count
        assert cf2(linked) == naive


def test_naive_search_cuts_an_excluded_pivot_with_no_open_neighbour():
    # with lowest-id pivot ties the first pivot is c, and the search takes
    # b, c and d in turn, excluding each after its branch.  The branch that
    # takes d leaves e open and b excluded, with no open argument near b:
    # b could join every set of that branch, so the branch is cut ({b,d,e}
    # is found under b)
    names = list("abcdef")
    mutual = ["ab", "ad", "ae", "bc", "bf", "cd", "df", "ef"]
    edges = [(s, d) for u, v in mutual for s, d in ((u, v), (v, u))]
    expected = [frozenset("ce"), frozenset("acf"), frozenset("bde")]
    assert maximal_conflict_free_sets(_dung(names, edges)) == expected
    assert oracle_maximal_conflict_free(names, edges) == expected
    # a self-attacker is never open or excluded, and joins no naive set
    with_g = _dung(names + ["g"], edges + [("g", "g"), ("g", "b")])
    assert maximal_conflict_free_sets(with_g) == expected
    assert cf2(with_g) == expected


def test_semantics_invariants():
    rng = random.Random(1999)
    for _ in range(40):
        fw = random_framework(rng, max_args=8)
        exts = preferred(fw)
        assert exts, "at least the empty set is admissible"
        grounded_in = frozenset(
            a for a, lab in grounded_labelling(fw).items() if lab == IN
        )
        assert is_admissible(fw, grounded_in)
        for ext in exts:
            assert is_admissible(fw, ext)
            assert grounded_in <= ext
        for ext in cf2(fw):
            assert is_conflict_free(fw, ext)
        # every admissible set extends to a preferred extension
        ids = sorted(fw.argument_ids())
        for r in range(len(ids) + 1):
            for combo in combinations(ids, r):
                if is_admissible(fw, combo):
                    assert any(set(combo) <= ext for ext in exts)
        # skeptical acceptance implies credulous acceptance
        for arg in ids:
            if acceptance(fw, arg, SKEPTICAL):
                assert acceptance(fw, arg, CREDULOUS)


def _line(n, attacked):
    """n arguments a0000.. in id order, each attacking the next if `attacked`."""
    arglets = [(f"a{i:04d}", "e") for i in range(n)]
    attacks = zip(arglets, arglets[1:]) if attacked else ()
    return Framework.of(arglets, attacks)


def test_long_inputs_need_no_recursion():
    names = [f"a{i:04d}" for i in range(1500)]
    singletons = [frozenset({a}) for a in names]

    free = _line(1500, attacked=False)
    everything = free.argument_ids()
    assert preferred(free) == [everything]
    assert cf2(free) == [everything]
    assert maximal_conflict_free_sets(free) == [everything]
    assert set(grounded_labelling(free).values()) == {IN}
    # no attacks: Tarjan closes the components in id order, then flips them
    assert strongly_connected_components(free) == singletons[::-1]
    assert not has_path(free, "a0000", "a1499")

    # a chain has one preferred, cf2 and grounded answer, but ~1.32^n
    # naive sets, so maximal_conflict_free_sets is left out here
    chain = _line(1500, attacked=True)
    even = frozenset(f"a{i:04d}" for i in range(0, 1500, 2))
    assert preferred(chain) == [even]
    assert cf2(chain) == [even]
    assert grounded_labelling(chain) == {
        f"a{i:04d}": IN if i % 2 == 0 else OUT for i in range(1500)
    }
    assert strongly_connected_components(chain) == singletons
    assert has_path(chain, "a0000", "a1499")
    assert not has_path(chain, "a1499", "a0000")

    cycle = Framework.of(chain.arglets, chain.attacks | {(("a1499", "e"), ("a0000", "e"))})
    assert strongly_connected_components(cycle) == [everything]
    assert has_path(cycle, "a1499", "a1498")
    assert has_path(cycle, "a0000", "a0000")


def test_preferred_matches_dfs_oracle_on_larger_frameworks():
    # 13 to 20 arguments, some with two arglets, up to two self-attacks
    rng = random.Random(1313)
    for _ in range(60):
        fw = sparse_framework(rng, density=rng.choice([0.08, 0.12, 0.16, 0.2]))
        ids, edges = fw.dung_projection()
        assert preferred(fw) == oracle_preferred_dfs(ids, edges)
    # 6 to 16 arguments in one SCC: a spanning cycle with chords, some
    # arguments with two arglets
    rng = random.Random(1416)
    for _ in range(40):
        fw = random_single_scc_framework(
            rng, max_args=16, min_args=6, chord_prob=rng.choice([0.0, 0.02, 0.05, 0.1]), doubled=0.2
        )
        ids, edges = fw.dung_projection()
        assert preferred(fw) == oracle_preferred_dfs(ids, edges)


def test_two_cycle_family_count():
    # each one-way link a -> c joins two 2-cycles into a chain of two SCCs,
    # where c's 2-cycle has a feeder: 3 choices for the pair under either
    # semantics, so 2^(m - 2L) * 3^L extensions
    rng = random.Random(2024)
    for m in range(1, 11):
        for links in range(m // 2 + 1):
            fw, count = two_cycle_union(rng, m, links)
            exts = preferred(fw)
            assert len(exts) == len(cf2(fw)) == count
            for ext in exts:
                assert is_admissible(fw, ext)


def test_ten_disjoint_two_cycles_have_1024_extensions():
    fw, count = two_cycle_union(random.Random(10), 10, 0)
    assert count == 1024
    assert len(preferred(fw)) == 1024
    assert len(cf2(fw)) == 1024


def test_cf2_matches_definition_oracle():
    rng = random.Random(2005)
    for i in range(120):
        if i % 2:
            fw = random_framework(rng, max_args=9, attack_prob=rng.choice([0.1, 0.2, 0.3]))
        else:
            fw = sparse_framework(rng, min_args=5, max_args=10, density=rng.choice([0.12, 0.2, 0.3]))
        ids, edges = fw.dung_projection()
        assert cf2(fw) == oracle_cf2(ids, edges)


def test_cf2_extensions_are_naive_and_incomparable():
    rng = random.Random(4242)
    for i in range(120):
        if i % 3 == 0:
            fw = random_single_scc_framework(rng)
        else:
            fw = random_framework(rng, max_args=12, attack_prob=rng.choice([0.05, 0.1, 0.2]))
        naive = set(maximal_conflict_free_sets(fw))
        exts = cf2(fw)
        assert exts and set(exts) <= naive
        assert not any(e < f for e in exts for f in exts)


def test_preferred_extensions_are_complete():
    rng = random.Random(5150)
    for _ in range(120):
        fw = random_framework(rng, max_args=14, attack_prob=rng.choice([0.05, 0.1, 0.2]))
        ids, edges = fw.dung_projection()
        attackers = {a: {s for s, d in edges if d == a} for a in ids}
        for ext in preferred(fw):
            hit = {d for s, d in edges if s in ext}
            defended = {a for a in ids if attackers[a] <= hit}
            assert defended <= ext


def _by_size_then_ids(extensions):
    return sorted(extensions, key=lambda e: (len(e), sorted(e)))


def test_forced_attackers_go_in_one_at_a_time():
    # with a undecided, taking b makes a and c must-out, and each has one
    # blank attacker left: d and e, which attack each other.  Taking d
    # first defeats e and leaves c with no attacker to answer it, so the
    # state dies; taking both at once would give the conflicting {b, d, e}
    names = list("abcde")
    edges = [("a", "b"), ("c", "b"), ("d", "a"), ("d", "e"), ("e", "c"), ("e", "d")]
    expected = [frozenset("ae"), frozenset("cd")]
    assert preferred(_dung(names, edges)) == expected
    assert oracle_preferred(names, edges) == expected


def test_chained_four_cycles_have_k_plus_one_extensions():
    for k in range(1, 15):
        fw, expected = chained_four_cycles(k)
        exts = preferred(fw)
        assert len(exts) == k + 1
        assert exts == _by_size_then_ids(expected)
        assert all(is_admissible(fw, e) for e in exts)


def test_linked_two_cycles_have_half_n_plus_one_extensions():
    for n in range(2, 61, 2):
        fw, expected = linked_two_cycles(n)
        exts = preferred(fw)
        assert len(exts) == n // 2 + 1
        assert exts == _by_size_then_ids(expected)


def test_rings_by_parity():
    for n in range(2, 41):
        fw, expected = ring(n)
        exts = preferred(fw)
        assert exts == _by_size_then_ids(expected)
        assert len(exts) == (1 if n % 2 else 2)


def test_preferred_scales_on_rings_and_chained_cycles():
    # measured on Python 3.11.7, 2 cores: the 1,000-ring took 6 ms, the
    # 1,001-ring 5 ms and chained 4-cycles at k=14 4 ms.  A search with no
    # forced attackers that rescans every blank argument after each take
    # took 49 s on each ring and 4.9 s at k=14
    start = time.perf_counter()
    for fw, expected in (ring(1000), ring(1001), chained_four_cycles(14)):
        assert preferred(fw) == _by_size_then_ids(expected)
    assert time.perf_counter() - start < 5.0


def _chain_of_blocks(rng, max_args=12, link_prob=0.15):
    """A random framework of up to `max_args` arguments built as a chain of
    small blocks, each one SCC: a self-attacker, an odd 3-cycle, a 2-cycle,
    a 4-cycle or a lone argument, plus random attacks from earlier blocks
    to later ones only, each with probability `link_prob`, so the blocks
    are its SCCs.  Ids are shuffled, so
    id order does not follow the chain."""
    shapes = {"loop": [(0, 0)], "odd": [(0, 1), (1, 2), (2, 0)], "pair": [(0, 1), (1, 0)], "square": [(0, 1), (1, 2), (2, 3), (3, 0)], "lone": []}
    sizes = {"loop": 1, "odd": 3, "pair": 2, "square": 4, "lone": 1}
    blocks, n = [], 0
    while True:
        shape = rng.choice(sorted(shapes))
        if n + sizes[shape] > max_args:
            break
        blocks.append((shape, list(range(n, n + sizes[shape]))))
        n += sizes[shape]
    edges = {(members[s], members[d]) for shape, members in blocks for s, d in shapes[shape]}
    for i, (_, upper) in enumerate(blocks):
        for _, lower in blocks[i + 1 :]:
            for a in upper:
                for b in lower:
                    if rng.random() < link_prob:
                        edges.add((a, b))
    names = [f"n{i:02d}" for i in range(n)]
    rng.shuffle(names)
    return [names[i] for i in range(n)], [(names[s], names[d]) for s, d in edges], len(blocks)


def test_preferred_matches_both_oracles_on_chains_of_sccs(monkeypatch):
    """The SCC-by-SCC search against `oracle_preferred` and
    `preferred_bruteforce` on chains of small SCCs with self-attackers and
    odd cycles upstream: what an upstream argument that is neither in nor
    out attacks is barred from going in, and many draws bar something."""
    searches = []
    search = afo.semantics._preferred_in

    def counted(ix, live, barred=0):
        searches.append(barred)
        return search(ix, live, barred)

    monkeypatch.setattr(afo.semantics, "_preferred_in", counted)
    rng = random.Random(2005)
    chains = 0
    for i in range(200):
        names, edges, blocks = _chain_of_blocks(rng)
        fw = _dung(names, edges)
        expected = oracle_preferred(names, edges)
        assert preferred(fw) == expected, (names, edges)
        if i % 8 == 0:  # the set-code reference takes some 13 ms a draw
            assert preferred_bruteforce(fw) == expected
        chains += blocks >= 3
    # every draw has three blocks or more; 1,080 base searches, 301 of them
    # with something barred, at this seed
    assert chains >= 180
    assert sum(bool(b) for b in searches) >= 250


def _renamings(fw):
    """The framework with its ids renamed in shuffled and in reversed
    order, so that id order no longer follows the chain."""
    ids = sorted(fw.argument_ids())
    shuffled = random.Random(len(ids)).sample(ids, len(ids))
    for order in (shuffled, ids[::-1]):
        name = {a: f"v{i:04d}" for i, a in enumerate(order)}
        yield name, Framework.of(
            [(name[a], e) for a, e in fw.arglets],
            [((name[s], se), (name[d], de)) for (s, se), (d, de) in fw.attacks],
        )


def test_renamed_chains_match_the_dfs_oracle():
    """Chained 4-cycles and linked 2-cycles whose ids run against the
    chain, against `oracle_preferred_dfs` where it reaches, and against
    the closed forms k + 1 and n/2 + 1 beyond it."""
    small = [chained_four_cycles(k) for k in range(1, 5)] + [linked_two_cycles(n) for n in range(2, 17, 2)]
    for fw, expected in small:
        for name, renamed in _renamings(fw):
            ids, edges = renamed.dung_projection()
            got = preferred(renamed)
            assert got == oracle_preferred_dfs(ids, edges)
            assert set(got) == {frozenset(name[a] for a in e) for e in expected}
    for k, n in ((12, 60), (30, 200)):
        for fw, count in ((chained_four_cycles(k)[0], k + 1), (linked_two_cycles(n)[0], n // 2 + 1)):
            for _, renamed in _renamings(fw):
                assert len(preferred(renamed)) == count


def test_preferred_scales_on_renamed_chains_of_sccs():
    """Reversed chained 4-cycles at k=18 and linked 2-cycles at n=500, SCC
    by SCC.  Measured on Python 3.11.7, 2 cores: 0.5 ms and 26 ms.  The
    search over each whole component took 32.6 s on the first and 0.41 to
    0.87 s on the second."""
    fw, expected = chained_four_cycles(18)
    ((name, reversed_fw),) = [r for r in _renamings(fw)][1:]
    start = time.perf_counter()
    got = preferred(reversed_fw)
    assert time.perf_counter() - start < 0.25
    assert set(got) == {frozenset(name[a] for a in e) for e in expected}
    fw, expected = linked_two_cycles(500)
    start = time.perf_counter()
    got = preferred(fw)
    assert time.perf_counter() - start < 0.25
    assert got == _by_size_then_ids(expected)


def test_the_scc_driver_asks_base_once_per_interface():
    """For an SCC with feeders, `_scc_recursive` asks `base` once per
    distinct interface, the part of a partial answer that attacks a feeder
    or a member, and once in all for an SCC with no feeder.  Run on whole
    frameworks with `preferred`'s base, the driver gives `preferred`'s
    extensions."""
    rng = random.Random(2601)
    frameworks = [linked_two_cycles(40)[0], chained_four_cycles(8)[0]]
    frameworks += [_dung(*_chain_of_blocks(rng, max_args=10, link_prob=0.35)[:2]) for _ in range(60)]
    partials_seen = interfaces_seen = 0
    for fw in frameworks:
        ix = _index(fw)
        sccs = ix.scc_masks()
        asked = []

        def base(scc, live, doubt, asked=asked):
            asked.append(scc)
            return _preferred_in(ix, live, _union(ix.targets, doubt) & live if doubt else 0)

        assert set(_run(_scc_recursive(ix, ix.everything, sccs, base))) == set(_preferred_masks(ix))
        for i, scc in enumerate(sccs):
            feeders = _union(ix.attackers, scc) & ~scc
            if not feeders:
                assert asked.count(scc) == 1
                continue
            near = _union(ix.attackers, feeders | scc)
            partials = _run(_scc_recursive(ix, ix.everything, sccs[:i], lambda *args: base(*args, asked=[])))
            interfaces = {part & near for part in partials}
            assert asked.count(scc) == len(interfaces)
            partials_seen += len(partials)
            interfaces_seen += len(interfaces)
    # 510 partial answers share 313 interfaces at this seed
    assert interfaces_seen < 0.7 * partials_seen


def test_the_fourth_rule_leaves_out_what_nothing_can_defend():
    """An argument that is not out and that no blank argument attacks can
    never be attacked, so nothing it attacks can be defended against it.
    On an odd cycle, once the search leaves one argument undecided, the
    rule leaves the rest undecided in one cascade."""
    for n in (3, 11, 101):
        fw, expected = ring(n)
        assert preferred(fw) == expected
    # the self-attacker s is never out, so x, which it attacks, never goes
    # in; y, which x attacks, defends itself
    names, edges = list("sxy"), [("s", "s"), ("s", "x"), ("x", "y"), ("y", "x")]
    assert preferred(_dung(names, edges)) == oracle_preferred(names, edges) == [frozenset("y")]
    # one SCC: t attacks itself and u, and only v attacks t, so u can go in
    # with v alone
    names, edges = list("tuvw"), [("t", "t"), ("t", "u"), ("u", "v"), ("v", "t"), ("v", "w"), ("w", "v")]
    assert len(strongly_connected_components(_dung(names, edges))) == 1
    assert preferred(_dung(names, edges)) == oracle_preferred(names, edges)


def test_many_components_find_their_sccs_in_linear_time():
    """3,000 disjoint odd 3-cycles, then the same with every other cycle
    attacking the next: 3,000 components of one SCC each, then 1,500 of
    two.  Measured on Python 3.11.7, 2 cores: 0.08 s each.  Walking the
    whole SCC list for every component took 0.87 and 0.48 s."""
    arglets = [(f"c{i:04d}{x}", "e") for i in range(3000) for x in "abc"]
    cycles = [((f"c{i:04d}{s}", "e"), (f"c{i:04d}{d}", "e")) for i in range(3000) for s, d in ("ab", "bc", "ca")]
    links = [((f"c{i:04d}a", "e"), (f"c{i + 1:04d}a", "e")) for i in range(0, 3000, 2)]
    for attacks in (cycles, cycles + links):
        fw = Framework.of(arglets, attacks)
        start = time.perf_counter()
        assert preferred(fw) == [frozenset()]
        assert time.perf_counter() - start < 0.4


def test_a_feeder_put_out_two_sccs_upstream_bars_nothing():
    """a1 of the 2-cycle A attacks b1 of the 3-cycle B, and b1 alone
    attacks the 2-cycle C.  Under a1, b1 is out, put out by an argument
    two SCCs above C that attacks nothing in C and is no feeder of C, so c1
    may go in; read as undecided, b1 would bar it."""
    names = ["a1", "a2", "b1", "b2", "b3", "c1", "c2"]
    edges = [("a1", "a2"), ("a2", "a1"), ("b1", "b2"), ("b2", "b3"), ("b3", "b1"), ("c1", "c2"), ("c2", "c1")]
    edges += [("a1", "b1"), ("b1", "c1")]
    fw = _dung(names, edges)
    assert [c for c in strongly_connected_components(fw) if len(c) > 1] == [{"a1", "a2"}, {"b1", "b2", "b3"}, {"c1", "c2"}]
    fs = frozenset
    assert preferred(fw) == oracle_preferred(names, edges) == [fs({"a2", "c2"}), fs({"a1", "b2", "c1"}), fs({"a1", "b2", "c2"})]
    assert cf2(fw) == oracle_cf2(names, edges)


def test_a_feeder_left_in_doubt_bars_what_it_attacks():
    """The odd cycle A leaves its feeder a1 neither in nor out, so c1, which
    a1 attacks, can never be defended.  x is in under one partial answer
    and attacks c2 of C, so what that answer attacks is not empty, yet a1
    stays in doubt."""
    names = ["a1", "a2", "a3", "c1", "c2", "x", "y"]
    edges = [("a1", "a2"), ("a2", "a3"), ("a3", "a1"), ("c1", "c2"), ("c2", "c1"), ("x", "y"), ("y", "x")]
    edges += [("a1", "c1"), ("x", "c2")]
    fw = _dung(names, edges)
    fs = frozenset
    assert preferred(fw) == oracle_preferred(names, edges) == [fs({"x"}), fs({"c2", "y"})]
    assert cf2(fw) == oracle_cf2(names, edges)


def test_a_cf2_survivor_frame_leaves_out_an_attacker():
    """u puts s1 out, and the survivors s2, s3, s4 of the SCC split into
    the 2-cycle {s2, s3} and {s4}: s1 attacks s2 from outside the frame."""
    names = ["s1", "s2", "s3", "s4", "u"]
    edges = [("u", "s1"), ("s1", "s2"), ("s2", "s3"), ("s3", "s2"), ("s3", "s4"), ("s4", "s1")]
    fw = _dung(names, edges)
    fs = frozenset
    assert cf2(fw) == oracle_cf2(names, edges) == [fs({"s3", "u"}), fs({"s2", "s4", "u"})]
    assert preferred(fw) == oracle_preferred(names, edges)


def test_the_scc_driver_matches_the_oracles_with_fan_in_and_fan_out():
    """`preferred` and `cf2` against `oracle_preferred` and `oracle_cf2` on
    chains of small SCCs with dense links between them, so SCCs have
    several feeders and feed several SCCs.  Unions of 2-cycles with
    one-way links are checked against their closed form in
    `test_two_cycle_family_count`."""
    rng = random.Random(2014)
    fan_in = fan_out = 0
    for _ in range(300):
        names, edges, _ = _chain_of_blocks(rng, max_args=8, link_prob=0.35)
        fw = _dung(names, edges)
        assert preferred(fw) == oracle_preferred(names, edges), (names, edges)
        assert cf2(fw) == oracle_cf2(names, edges), (names, edges)
        sccs = strongly_connected_components(fw)
        home = {a: i for i, scc in enumerate(sccs) for a in scc}
        links = {(home[s], home[d]) for s, d in edges if home[s] != home[d]}
        fan_in += any(sum(d == i for _, d in links) > 1 for i in range(len(sccs)))
        fan_out += any(sum(s == i for s, _ in links) > 1 for i in range(len(sccs)))
    # 188 draws with fan-in and 181 with fan-out at this seed
    assert fan_in >= 150 and fan_out >= 150
