"""Acceptance suite: one test per shipped criterion, each printing a
single PASS line with the measured numbers (run with -s to see them)."""

import json
import os
import random
import subprocess
import sys
import time

from afo import (
    AbstractionCandidate,
    Argument,
    alpha,
    canonicalize,
    cf2,
    expr_set_leq,
    gamma,
    grounded_labelling,
    is_abstraction_complete,
    is_abstraction_covering,
    is_abstraction_disjoint,
    is_abstraction_sound,
    is_compatible,
    is_conservative,
    is_non_trivial,
    is_valid,
    maximal_conservative_subsets,
    maximal_conflict_free_sets,
    preferred,
    restrict_extensions,
    sharpen,
)
from afo.cli import main
from afo.pipeline import (
    IMPLIED_CREDULOUS,
    IMPLIED_SKEPTICAL,
    MINUS_APPROVED,
    PLUS_APPROVED_CREDULOUS,
)

from generators import (
    conservative_instance,
    lattice_with_full_coverage,
    random_framework,
    random_single_scc_framework,
)
from oracles import oracle_maximal_conflict_free, oracle_preferred, oracle_sigma
from witnesses import (
    CONSERVATIVE_PAIRS,
    CONSERVATIVE_WITNESSES,
    STRUCTURAL_PAIRS,
    STRUCTURAL_WITNESSES,
    WITNESS_LATTICE,
    WITNESS_MAP,
)

fs = frozenset


def _verdicts(report):
    return {v.arg_id: v for v in report.verdicts}


def test_criterion_1_boardroom_golden_run(boardroom):
    started = time.perf_counter()
    fw = boardroom.framework

    assert preferred(fw) == [fs()]
    assert cf2(fw) == [fs({"a1", "a5"}), fs({"a2", "a5"}), fs({"a3", "a5"})]
    assert set(grounded_labelling(fw).values()) == {"undecided"}

    report = sharpen(fw, boardroom.lattice, boardroom.fmap, boardroom.blocked)
    assert len(report.derivation.frameworks) == 1
    abstracted = report.derivation.frameworks[0]
    assert abstracted.argument_ids() == fs({"a1+a2+a3", "a4", "a5"})
    assert abstracted.dung_projection()[1] == fs(
        {("a1+a2+a3", "a4"), ("a4", "a5")}
    )
    assert report.projected == ((fs({"a5"}),),)

    verdicts = _verdicts(report)
    for arg in ["a1", "a2", "a3", "a4"]:
        assert verdicts[arg].concrete_status == "rejected"
        assert verdicts[arg].sharpened == fs({MINUS_APPROVED})
    assert IMPLIED_SKEPTICAL in verdicts["a5"].sharpened
    assert verdicts["a5"].sharpened == fs({IMPLIED_CREDULOUS, IMPLIED_SKEPTICAL})

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nCRITERION 1 PASS: boardroom golden run exact in {elapsed:.3f}s (< 1s)")


def test_criterion_2_marathon_golden_run(marathon, capsys, fixtures_dir):
    started = time.perf_counter()
    fw = marathon.framework

    assert preferred(fw) == [fs({"a5"})]
    assert cf2(fw) == [
        fs({"a1", "a4"}),
        fs({"a1", "a5"}),
        fs({"a2", "a5"}),
        fs({"a3", "a4"}),
        fs({"a3", "a5"}),
    ]
    groups = maximal_conservative_subsets(
        fw, marathon.lattice, marathon.fmap, marathon.blocked, fs({"a1", "a2", "a3"})
    )
    assert [c.targets for c, _ in groups] == [fs({"a1", "a2"})]

    report = sharpen(fw, marathon.lattice, marathon.fmap, marathon.blocked)
    assert set(report.projected[0]) == {fs({"a3", "a4"}), fs({"a3", "a5"}), fs({"a5"})}
    assert report.projected == ((fs({"a5"}), fs({"a3", "a4"}), fs({"a3", "a5"})),)
    verdicts = _verdicts(report)
    assert verdicts["a5"].sharpened == fs({PLUS_APPROVED_CREDULOUS})
    assert verdicts["a3"].sharpened == fs({IMPLIED_CREDULOUS})
    assert verdicts["a4"].sharpened == fs({IMPLIED_CREDULOUS})
    assert verdicts["a1"].sharpened == fs({MINUS_APPROVED})
    assert verdicts["a2"].sharpened == fs({MINUS_APPROVED})

    assert main(["abstract", str(fixtures_dir / "fix3.afo"), "--explain"]) == 0
    out = capsys.readouterr().out
    assert "group {a1, a2} -> a1+a2 at H (via HW)" in out
    assert "non-trivial: yes (H not in M={Top})" in out
    assert "external a3 at Fm: incomparable" in out
    assert "external a4 at NoId: incomparable" in out
    assert "=> conservative" in out

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nCRITERION 2 PASS: marathon golden run exact in {elapsed:.3f}s (< 1s)")


def test_criterion_3_galois_law_suite():
    started = time.perf_counter()
    rng = random.Random(20260822)
    instances = 200
    checked = {"prop1": 0, "extensive": 0, "aga": 0}
    skipped = {"prop1": 0, "extensive": 0, "aga": 0}

    for _ in range(instances):
        lat, fmap = lattice_with_full_coverage(rng)
        assert len(lat.nodes) <= 12 and len(fmap.symbols) <= 12
        symbols = sorted(fmap.symbols)
        samples = [
            set(rng.sample(symbols, rng.randint(0, len(symbols)))) for _ in range(6)
        ]

        for node in sorted(lat.nodes):
            down = gamma(lat, fmap, node)
            # contractivity, unconditionally
            assert lat.leq(alpha(lat, fmap, down), node)
            # gamma is stable under the round trip, on canonical forms
            again = gamma(lat, fmap, alpha(lat, fmap, down))
            assert canonicalize(lat, fmap, again) == canonicalize(lat, fmap, down)
            # adjunction biconditional, where the node has a concretization
            if not down:
                skipped["prop1"] += 1
                continue
            for exprs in samples:
                assert lat.leq(alpha(lat, fmap, exprs), node) == expr_set_leq(
                    lat, fmap, exprs, down
                )
                checked["prop1"] += 1

        for exprs in samples:
            image = alpha(lat, fmap, exprs)
            # monotonicity, unconditionally
            bigger = exprs | set(rng.sample(symbols, rng.randint(0, len(symbols))))
            assert lat.leq(image, alpha(lat, fmap, bigger))
            # extensivity and idempotence need a non-empty concretization
            if exprs and not gamma(lat, fmap, image):
                skipped["extensive"] += 1
                skipped["aga"] += 1
                continue
            assert expr_set_leq(lat, fmap, exprs, gamma(lat, fmap, image))
            checked["extensive"] += 1
            assert alpha(lat, fmap, gamma(lat, fmap, image)) == image
            checked["aga"] += 1

    assert checked["prop1"] > instances
    assert checked["extensive"] > instances
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(
        f"\nCRITERION 3 PASS: {instances} instances, "
        f"{sum(checked.values())} law checks, {sum(skipped.values())} excluded "
        f"(no concretization), in {elapsed:.2f}s (< 10s)"
    )


def test_criterion_4_independence_witnesses():
    structural = {
        "covering": is_abstraction_covering,
        "disjoint": is_abstraction_disjoint,
        "sound": is_abstraction_sound,
        "complete": is_abstraction_complete,
    }
    assert len(STRUCTURAL_PAIRS) == 12
    for first, second in STRUCTURAL_PAIRS:
        a_x, args = STRUCTURAL_WITNESSES[second]
        assert structural[first](WITNESS_LATTICE, WITNESS_MAP, a_x, args), (first, second)
        assert not structural[second](WITNESS_LATTICE, WITNESS_MAP, a_x, args), (first, second)

    conservativity = {
        "valid": lambda fw, blocked, c: is_valid(fw, WITNESS_LATTICE, WITNESS_MAP, c),
        "non_trivial": lambda fw, blocked, c: is_non_trivial(
            WITNESS_LATTICE, WITNESS_MAP, blocked, c
        ),
        "compatible": lambda fw, blocked, c: is_compatible(
            fw, WITNESS_LATTICE, WITNESS_MAP, c.targets
        ),
    }
    assert len(CONSERVATIVE_PAIRS) == 6
    for first, second in CONSERVATIVE_PAIRS:
        fw, blocked, targets, a_x = CONSERVATIVE_WITNESSES[second]
        candidate = AbstractionCandidate(targets, a_x)
        assert conservativity[first](fw, blocked, candidate), (first, second)
        assert not conservativity[second](fw, blocked, candidate), (first, second)

    print("\nCRITERION 4 PASS: 12 structural + 6 conservativity witness pairs")


def test_criterion_5_coarsening_preserves_conservativity():
    rng = random.Random(1848)
    instances = 100
    candidates = 0
    for _ in range(instances):
        fw, lat, fmap, blocked, targets, interval = conservative_instance(rng)
        arg_id = "+".join(sorted(targets))
        for node in interval:
            candidate = AbstractionCandidate(
                targets, Argument(arg_id, fs({f"g_{node}"}))
            )
            assert is_conservative(fw, lat, fmap, blocked, candidate), (targets, node)
            candidates += 1
    assert candidates >= instances
    print(
        f"\nCRITERION 5 PASS: {instances} generated groups, "
        f"{candidates} coarsenings all conservative"
    )


def test_criterion_6_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(60606)

    for i in range(500):
        fw = random_framework(rng, max_args=12, attack_prob=rng.choice([0.1, 0.25, 0.4]))
        ids, edges = fw.dung_projection()
        assert preferred(fw) == oracle_preferred(sorted(ids), sorted(edges))

    for _ in range(150):
        fw = random_single_scc_framework(rng)
        assert cf2(fw) == maximal_conflict_free_sets(fw)
        ids, edges = fw.dung_projection()
        assert maximal_conflict_free_sets(fw) == oracle_maximal_conflict_free(
            sorted(ids), sorted(edges)
        )

    names = [f"a{i}" for i in range(10)]
    for _ in range(500):
        exts = [
            fs(rng.sample(names, rng.randint(0, len(names))))
            for _ in range(rng.randint(0, 6))
        ]
        keep = rng.sample(names, rng.randint(0, len(names)))
        assert set(restrict_extensions(exts, keep)) == oracle_sigma(exts, keep)

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"\nCRITERION 6 PASS: 500 preferred + 150 cf2 + 500 projection "
        f"oracle agreements in {elapsed:.1f}s (< 60s)"
    )


def test_criterion_7_deterministic_output(fixtures_dir):
    run = [sys.executable, "-m", "afo.cli"]
    for name in ["fix1.afo", "fix3.afo", "mutual.afo", "broken_nonlattice.afo"]:
        seen = set()
        for seed in ["1", "99"]:
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                run + ["sharpen", str(fixtures_dir / name), "--json"],
                capture_output=True,
                env=env,
            )
            seen.add((proc.returncode, proc.stdout, proc.stderr))
        assert len(seen) == 1, f"{name} output varied between runs"
        code = next(iter(seen))[0]
        assert code == (1 if name.startswith("broken") else 0)
        if code == 0:
            json.loads(next(iter(seen))[1])
    print("\nCRITERION 7 PASS: sharpen --json byte-identical across repeated runs")
