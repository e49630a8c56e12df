import random

import pytest

from afo import (
    EmptySet,
    SemanticMap,
    UnknownExpression,
    alpha,
    canonicalize,
    expr_set_leq,
    gamma,
    is_abstraction,
    is_best_abstraction,
    is_concretization,
    most_general_concretization,
)

from generators import lattice_with_full_coverage, random_lattice, random_map
from oracles import oracle_canonicalize


def test_semantic_map_basics(boardroom):
    fmap = boardroom.fmap
    assert fmap.image("focusOnOs") == "Os"
    assert "focusOnLiq" in fmap.symbols
    assert fmap.preimages("Imp") == frozenset({"focusOnImp"})
    assert fmap.preimages("Bot") == frozenset()
    with pytest.raises(UnknownExpression):
        fmap.image("nope")
    extended = fmap.with_assignment("fresh", "Liq")
    assert extended.image("fresh") == "Liq"
    assert "fresh" not in fmap.symbols
    assert "fresh" in extended and "fresh" not in fmap and "focusOnLiq" in fmap
    # the per-node lists behind `preimages` stay out of the map's value
    assert extended.preimages("Liq") == fmap.preimages("Liq") | {"fresh"}
    assert vars(fmap) == {"_assignments": dict(fmap.items())}
    assert fmap == SemanticMap(dict(fmap.items())) and repr(fmap) == repr(SemanticMap(dict(fmap.items())))


def test_extended_map_reads_as_its_copy(boardroom):
    """A `with_assignment` map reads through to the map it extends, and
    equality, `items()`, `symbols`, `repr`, `image` and `preimages` are
    those of the dict copy with the assignment made, for a new symbol, a
    replaced one and a map extended twice."""
    fmap = boardroom.fmap
    assignments = dict(fmap.items())
    once = fmap.with_assignment("fresh", "Liq")
    cases = [
        (once, {**assignments, "fresh": "Liq"}),
        (fmap.with_assignment("focusOnOs", "Mp"), {**assignments, "focusOnOs": "Mp"}),
        (once.with_assignment("fresher", "Imp"), {**assignments, "fresh": "Liq", "fresher": "Imp"}),
        (once.with_assignment("fresh", "Os"), {**assignments, "fresh": "Os"}),
    ]
    for extended, want in cases:
        copy = SemanticMap(want)
        assert extended == copy and copy == extended and extended != fmap
        assert list(extended.items()) == list(copy.items()) and len(extended.items()) == len(want)
        assert extended.symbols == copy.symbols and repr(extended) == repr(copy)
        for symbol, node in want.items():
            assert symbol in extended and extended.image(symbol) == node
            assert extended.preimages(node) == copy.preimages(node)
        with pytest.raises(UnknownExpression):
            extended.image("nope")
    assert dict(fmap.items()) == assignments


def test_alpha_boardroom(boardroom):
    lat, fmap = boardroom.lattice, boardroom.fmap
    assert alpha(lat, fmap, ["focusOnMp", "focusOnEc"]) == "Imp"
    assert alpha(lat, fmap, ["focusOnMp"]) == "Mp"
    assert alpha(lat, fmap, ["focusOnMp", "focusOnLiq"]) == "Top"
    assert alpha(lat, fmap, []) == "Bot"
    with pytest.raises(UnknownExpression):
        alpha(lat, fmap, ["nope"])


def test_alpha_marathon(marathon):
    assert alpha(marathon.lattice, marathon.fmap, ["Dp", "Br"]) == "H"


def test_gamma_boardroom(boardroom):
    lat, fmap = boardroom.lattice, boardroom.fmap
    assert gamma(lat, fmap, "Imp") == frozenset({"focusOnOs", "focusOnMp", "focusOnEc"})
    # atoms sit just above an expressionless bottom
    assert gamma(lat, fmap, "Os") == frozenset()
    assert gamma(lat, fmap, "Top") == frozenset(
        {"focusOnImp", "focusOnLiq", "needRevenue"}
    )


def test_canonicalize_boardroom(boardroom):
    lat, fmap = boardroom.lattice, boardroom.fmap
    assert canonicalize(lat, fmap, ["focusOnImp"]) == frozenset(
        {"focusOnOs", "focusOnMp", "focusOnEc"}
    )
    assert canonicalize(lat, fmap, []) == frozenset()
    # atoms have nothing to unfold into
    assert canonicalize(lat, fmap, ["focusOnOs"]) == frozenset({"focusOnOs"})
    # top unfolds one level, then Imp unfolds again
    assert canonicalize(lat, fmap, ["focusOnAnything"]) == frozenset(
        {"focusOnOs", "focusOnMp", "focusOnEc", "focusOnLiq", "needRevenue"}
    )


def test_canonicalize_stops_at_uncovered_unfolding(marathon):
    # H unfolds into {Dp, Br}; the atoms do not unfold further
    lat, fmap = marathon.lattice, marathon.fmap
    assert canonicalize(lat, fmap, ["HW"]) == frozenset({"Dp", "Br"})


def test_expr_set_leq(boardroom):
    lat, fmap = boardroom.lattice, boardroom.fmap
    assert expr_set_leq(lat, fmap, ["focusOnMp"], ["focusOnImp"])
    assert not expr_set_leq(lat, fmap, ["focusOnImp"], ["focusOnMp"])
    assert expr_set_leq(
        lat, fmap, ["focusOnImp"], ["focusOnOs", "focusOnMp", "focusOnEc"]
    )
    assert expr_set_leq(
        lat, fmap, ["focusOnOs", "focusOnMp", "focusOnEc"], ["focusOnImp"]
    )
    assert not expr_set_leq(lat, fmap, ["focusOnLiq"], ["focusOnImp"])
    assert expr_set_leq(lat, fmap, [], ["focusOnOs"])


def test_abstraction_predicates(boardroom):
    lat, fmap = boardroom.lattice, boardroom.fmap
    assert is_abstraction(lat, fmap, "focusOnImp", ["focusOnMp", "focusOnEc"])
    assert is_abstraction(lat, fmap, "focusOnAnything", ["focusOnMp", "focusOnEc"])
    assert not is_abstraction(lat, fmap, "focusOnLiq", ["focusOnMp"])
    assert is_best_abstraction(lat, fmap, "focusOnImp", ["focusOnMp", "focusOnEc"])
    assert not is_best_abstraction(
        lat, fmap, "focusOnAnything", ["focusOnMp", "focusOnEc"]
    )
    assert is_best_abstraction(lat, fmap, "focusOnMp", ["focusOnMp"])
    with pytest.raises(EmptySet):
        is_abstraction(lat, fmap, "focusOnImp", [])
    with pytest.raises(EmptySet):
        is_best_abstraction(lat, fmap, "focusOnImp", [])


def test_concretization(boardroom):
    lat, fmap = boardroom.lattice, boardroom.fmap
    assert most_general_concretization(lat, fmap, "focusOnImp") == frozenset(
        {"focusOnOs", "focusOnMp", "focusOnEc"}
    )
    assert is_concretization(lat, fmap, ["focusOnMp", "focusOnEc"], "focusOnImp")
    assert is_concretization(lat, fmap, [], "focusOnImp")
    assert not is_concretization(lat, fmap, ["focusOnLiq"], "focusOnImp")
    # the abstractor refines itself
    assert is_concretization(lat, fmap, ["focusOnImp"], "focusOnImp")


def test_adjunction_fails_at_empty_gamma(boardroom):
    # documents why the law suite skips nodes with an empty concretization:
    # alpha({focusOnOs}) = Os <= Os, yet {focusOnOs} is not below gamma(Os) = {}
    lat, fmap = boardroom.lattice, boardroom.fmap
    exprs = ["focusOnOs"]
    node = "Os"
    assert lat.leq(alpha(lat, fmap, exprs), node)
    assert not expr_set_leq(lat, fmap, exprs, gamma(lat, fmap, node))


def test_canonicalize_matches_oracle_any_rewrite_order():
    rng = random.Random(5150)
    for _ in range(60):
        lat = random_lattice(rng)
        fmap = random_map(rng, lat)
        nodes = sorted(lat.nodes)
        covers = [(c, p) for p in nodes for c in lat.children(p)]
        symbols = sorted(fmap.symbols)
        if not symbols:
            continue
        exprs = rng.sample(symbols, rng.randint(0, min(4, len(symbols))))
        got = canonicalize(lat, fmap, exprs)
        for _ in range(3):
            ref = oracle_canonicalize(nodes, covers, dict(fmap.items()), exprs, rng)
            assert got == frozenset(ref)
        # idempotent
        assert canonicalize(lat, fmap, got) == got


def test_contractivity_and_monotonicity_hold_unconditionally():
    rng = random.Random(6060)
    for _ in range(60):
        lat = random_lattice(rng)
        fmap = random_map(rng, lat)
        symbols = sorted(fmap.symbols)
        for node in sorted(lat.nodes):
            assert lat.leq(alpha(lat, fmap, gamma(lat, fmap, node)), node)
        for _ in range(6):
            small = set(rng.sample(symbols, rng.randint(0, len(symbols))))
            big = small | set(rng.sample(symbols, rng.randint(0, len(symbols))))
            assert lat.leq(alpha(lat, fmap, small), alpha(lat, fmap, big))


def test_adjunction_laws_on_fully_covered_instances():
    rng = random.Random(7071)
    for _ in range(40):
        lat, fmap = lattice_with_full_coverage(rng)
        symbols = sorted(fmap.symbols)
        for node in sorted(lat.nodes):
            concretized = gamma(lat, fmap, node)
            # round trip through alpha is stable on canonical forms
            again = gamma(lat, fmap, alpha(lat, fmap, concretized))
            assert canonicalize(lat, fmap, again) == canonicalize(lat, fmap, concretized)
            if not concretized:
                continue
            for _ in range(4):
                exprs = set(rng.sample(symbols, rng.randint(0, len(symbols))))
                assert lat.leq(alpha(lat, fmap, exprs), node) == expr_set_leq(
                    lat, fmap, exprs, concretized
                )
        for _ in range(6):
            exprs = set(rng.sample(symbols, rng.randint(1, len(symbols))))
            image = alpha(lat, fmap, exprs)
            if not gamma(lat, fmap, image):
                continue
            assert expr_set_leq(lat, fmap, exprs, gamma(lat, fmap, image))
            assert alpha(lat, fmap, gamma(lat, fmap, image)) == image
