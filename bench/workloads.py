"""Seeded inputs for the three workloads, each paired with its output check.

The generators here are the benchmark's own; they do not import
``tests/generators.py``, so editing the tests cannot move the load.  Sizes
are stratified by position in the pool (SCC count, cycle length, framework
size), so every seed gets the same mix and only the wiring is random.

Every check compares the package's answer with one computed without it:
``oracle.py`` for extension sets, and for the derived frameworks the
merges planted by the generator (or, for the shipped fixtures, the ones
the acceptance suite asserts).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import afo.cli
import afo.pipeline
import afo.semantics
from afo import Framework, SemanticMap, validate_lattice

import oracle

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Instance:
    label: str
    text: str  # canonical input; its digest shows a seed regenerates the same load
    run: Callable[[], object]  # the timed call
    check: Callable[[object], "str | None"]  # describes a wrong output, None if right


# ------------------------------------------------------------ reference answers

Arglet = tuple[str, str]
# (scc members, targets, abstract argument id, its expression)
Group = tuple[tuple[str, ...], tuple[str, ...], str, str]


def _dung(arglets, attacks):
    return {a for a, _ in arglets}, {(s[0], d[0]) for s, d in attacks}


def _framework_json(arglets, attacks) -> dict:
    return {
        "arglets": [list(al) for al in sorted(arglets)],
        "attacks": [[list(s), list(d)] for s, d in sorted(attacks)],
    }


def _ext_json(extensions) -> list:
    return [sorted(e) for e in extensions]


def _replace(arglets, attacks, targets, new: Arglet):
    """One merge: the group becomes one arglet, boundary attacks follow it."""
    arglets = {al for al in arglets if al[0] not in targets} | {new}
    moved = set()
    for s, d in attacks:
        s_in, d_in = s[0] in targets, d[0] in targets
        if not (s_in and d_in):
            moved.add((new if s_in else s, new if d_in else d))
    return arglets, moved


def _verdict(arg, concrete, projected) -> dict:
    if all(arg in e for e in concrete):
        status = "skeptical"
    elif any(arg in e for e in concrete):
        status = "credulous"
    else:
        status = "rejected"
    some = any(arg in e for p in projected for e in p)
    every = all(p and all(arg in e for e in p) for p in projected)
    if status == "rejected":
        marks = {"minus_approved": not some, "implied_credulous": some, "implied_skeptical": every}
    else:
        marks = {"plus_approved_credulous": some, "plus_approved_skeptical": every, "questioned": not some}
    return {
        "concrete_status": status,
        "sharpened": sorted(k for k, on in marks.items() if on),
        "sets_containing": sum(1 for p in projected if any(arg in e for e in p)),
        "extensions_containing": sum(1 for p in projected for e in p if arg in e),
    }


def expected_sharpen(arglets, attacks, groups_per_scc: list[list[Group]]) -> dict:
    """The `sharpen --json` payload, given the groups each SCC merges.

    SCCs come upstream first and each SCC's groups largest first, as the
    package orders them; one derived framework per choice of a group in
    every SCC that has one.
    """
    ids, edges = _dung(arglets, attacks)
    sigma, abstract = [], []
    for combo in itertools.product(*[g for g in groups_per_scc if g]):
        als, ats, steps = set(arglets), set(attacks), []
        for scc, targets, new_id, expr in combo:
            als, ats = _replace(als, ats, set(targets), (new_id, expr))
            steps.append(
                {
                    "scc": sorted(scc),
                    "targets": sorted(targets),
                    "abstract": {"id": new_id, "expressions": [expr]},
                }
            )
        sigma.append({"framework": _framework_json(als, ats), "provenance": steps})
        abstract.append(oracle.preferred(*_dung(als, ats)))
    concrete = oracle.preferred(ids, edges)
    projected = []
    for extensions in abstract:
        p = oracle.sort_extensions({e & ids for e in extensions} - {frozenset()})
        if p not in projected:
            projected.append(p)
    return {
        "framework": _framework_json(arglets, attacks),
        "sigma": sigma,
        "concrete": _ext_json(concrete),
        "abstract_preferred": [_ext_json(p) for p in abstract],
        "projected": [_ext_json(p) for p in projected],
        "classification": {a: _verdict(a, concrete, projected) for a in sorted(ids)},
    }


def _mismatch(got: dict, expected: dict) -> "str | None":
    for key, want in expected.items():
        if got.get(key) != want:
            return f"{key} differs from the reference"
    return None


def report_payload(report) -> dict:
    """A SharpeningReport in the shape `sharpen --json` prints, built with
    the CLI's own serialisers; the reference it is compared with is
    `expected_sharpen`."""
    cli = afo.cli
    return {
        "framework": cli._json_framework(report.framework),
        "sigma": cli._json_sigma(report.derivation.frameworks, report.derivation.provenance),
        "concrete": cli._json_extensions(report.concrete),
        "abstract_preferred": [cli._json_extensions(p) for p in report.abstract_preferred],
        "projected": [cli._json_extensions(p) for p in report.projected],
        "classification": cli._json_classification(report),
    }


# ------------------------------------------------------------ .afo text


def afo_text(title, nodes=(), covers=(), generals=(), assignments=(), arglets=(), attacks=()) -> str:
    lines = [f"# {title}"]
    lines += [f"node {n}" for n in nodes]
    lines += [f"cover {c} {p}" for c, p in covers]
    lines += [f"general {g}" for g in generals]
    lines += [f"map {s} {n}" for s, n in assignments]
    lines += [f"arglet {a} {e}" for a, e in sorted(arglets)]
    lines += [f"attack {a}.{e} {b}.{f}" for (a, e), (b, f) in sorted(attacks)]
    return "\n".join(lines) + "\n"


def read_framework(text: str):
    """Arglets and attacks of a .afo text; the lattice lines are skipped."""
    arglets, attacks, sugar = set(), set(), []
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if tokens[:1] == ["arglet"]:
            arglets.add((tokens[1], tokens[2]))
        elif tokens[:1] == ["attack"]:
            first, second = tokens[1:]
            if "." in first:
                attacks.add((tuple(first.split(".")), tuple(second.split("."))))
            else:
                sugar.append((first, second))
    for a, b in sugar:
        attacks.update((s, d) for s in arglets if s[0] == a for d in arglets if d[0] == b)
    return arglets, attacks


# ------------------------------------------------------------ docs


def _sccs_in_doc(rng: random.Random, sizes: list[int], chords: list[bool], links: list[int]):
    """Lattice, map, chained SCCs and the merges the package must find.

    SCC j is a ring of sizes[j] arguments, plus one chord if chords[j], and
    SCC j > 0 is attacked by links[j] arguments of SCC j - 1.

    A flower lattice: hubs over three or four atoms each, two loose atoms
    under the top.  Every argument asserts one atom, distinct within its
    SCC.  The only mergeable group of an SCC is then all its members under
    one hub: any other subset either joins to the top, which is in M, or
    can still grow inside the SCC.  It merges when the hub is not in M and
    no attacker or target outside the group sits under the same hub.
    """
    hubs = [f"h{j}" for j in range(len(sizes) + 1)]
    atoms_of = {h: [f"{h}a{k}" for k in range(rng.randint(3, 4))] for h in hubs}
    loose = ["l0", "l1"]
    hub_of = {a: h for h, atoms in atoms_of.items() for a in atoms}
    in_m = {h for h in hubs if rng.random() < 0.2}
    hub_expr = {h: (f"g{h}" if rng.random() < 0.5 else f"{h}#abs") for h in hubs}

    sccs, atom_of, attacks = [], {}, set()
    for i, size in enumerate(sizes):
        pool = [a for h in rng.sample(hubs, 1 + (rng.random() < 0.7)) for a in atoms_of[h]]
        if len(pool) < size or rng.random() < 0.3:
            pool += loose
        members = [f"s{i}m{j}" for j in range(size)]
        for m, atom in zip(members, rng.sample(pool, size)):
            atom_of[m] = atom
        ring = members[:]
        rng.shuffle(ring)
        edges = {(ring[j], ring[(j + 1) % size]) for j in range(size)}
        while len(edges) < size + chords[i]:
            edges.add(tuple(rng.sample(members, 2)))
        if sccs:
            edges |= {(rng.choice(sccs[-1]), rng.choice(members)) for _ in range(links[i])}
        attacks |= edges
        sccs.append(members)

    groups_per_scc = []
    for members in sccs:
        groups = []
        for h in hubs:
            group = {m for m in members if hub_of.get(atom_of[m]) == h}
            if len(group) < 2 or h in in_m:
                continue
            outside = {d if s in group else s for s, d in attacks if (s in group) != (d in group)}
            if any(hub_of.get(atom_of[o]) == h for o in outside):
                continue
            groups.append((tuple(sorted(members)), tuple(sorted(group)), "+".join(sorted(group)), hub_expr[h]))
        groups_per_scc.append(sorted(groups, key=lambda g: (-len(g[1]), g[1])))

    nodes = ["bot", "top"] + loose + hubs + sorted(hub_of)
    covers = [("bot", a) for a in sorted(hub_of)] + [(a, hub_of[a]) for a in sorted(hub_of)]
    covers += [("bot", a) for a in loose] + [(x, "top") for x in loose + hubs]
    assignments = {f"x{a}": a for a in atom_of.values()}
    assignments.update({e: h for h, e in hub_expr.items() if not e.endswith("#abs")})
    text = afo_text(
        "generated sharpen input",
        nodes=nodes,
        covers=covers,
        generals=["top"] + sorted(in_m),
        assignments=sorted(assignments.items()),
        arglets={(m, f"x{a}") for m, a in atom_of.items()},
        attacks={((s, f"x{atom_of[s]}"), (d, f"x{atom_of[d]}")) for s, d in attacks},
    )
    return text, groups_per_scc


# Merges and projections the acceptance suite asserts for the shipped fixtures.
FIXTURES = {
    "fix1.afo": ([[(("a1", "a2", "a3"), ("a1", "a2", "a3"), "a1+a2+a3", "focusOnImp")]], [[]], [[["a5"]]]),
    "fix3.afo": ([[(("a1", "a2", "a3"), ("a1", "a2"), "a1+a2", "HW")]], [["a5"]], [[["a5"], ["a3", "a4"], ["a3", "a5"]]]),
    "mutual.afo": ([], None, None),
}
BROKEN_FIXTURE = "broken_nonlattice.afo"


def _run_cli(path: Path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = afo.cli.main(["sharpen", str(path), "--json"])
    return code, out.getvalue(), err.getvalue()


def _check_doc(text, groups_per_scc, concrete, projected, output):
    code, out, err = output
    if code != 0:
        return f"exit code {code}: {err.strip()}"
    payload = json.loads(out)
    expected = expected_sharpen(*read_framework(text), groups_per_scc)
    if concrete is not None:
        expected["concrete"] = concrete
    if projected is not None:
        expected["projected"] = projected
    return _mismatch(payload, expected)


def _check_broken(output):
    code, out, err = output
    if code != 1 or out or not err.startswith("error: NonUniqueJoin"):
        return f"expected exit 1 with NonUniqueJoin, got {code}: {err.strip()}"
    return None


def docs(seed: int, count: int, work_dir: Path) -> list[Instance]:
    """`afo sharpen --json` on generated documents plus the shipped fixtures."""
    rng = random.Random(seed)
    work_dir.mkdir(parents=True, exist_ok=True)
    out = []
    for i in range(count):
        # sizes follow the index, so every seed gets the same mix
        n_scc = 2 + i % 3
        text, groups = _sccs_in_doc(
            rng,
            sizes=[3 + (i // 3 + j) % 3 for j in range(n_scc)],
            chords=[(i // 9 + j) % 2 == 1 for j in range(n_scc)],
            links=[1 + (i // 18 + j) % 2 for j in range(n_scc)],
        )
        path = work_dir / f"doc{i:03d}.afo"
        path.write_text(text, encoding="utf-8")
        out.append(Instance(path.name, text, partial(_run_cli, path), partial(_check_doc, text, groups, None, None)))
    for name, (groups, concrete, projected) in FIXTURES.items():
        path = ROOT / "fixtures" / name
        text = path.read_text(encoding="utf-8")
        out.append(Instance(name, text, partial(_run_cli, path), partial(_check_doc, text, groups, concrete, projected)))
    path = ROOT / "fixtures" / BROKEN_FIXTURE
    out.append(Instance(BROKEN_FIXTURE, path.read_text(encoding="utf-8"), partial(_run_cli, path), _check_broken))
    return out


# ------------------------------------------------------------ extensions


def _run_semantics(framework: Framework):
    return (
        afo.semantics.preferred(framework),
        afo.semantics.cf2(framework),
        afo.semantics.grounded_labelling(framework),
    )


def _check_semantics(ids, edges, count, output):
    got_preferred, got_cf2, got_grounded = output
    if count is not None and len(got_preferred) != count:
        return f"{len(got_preferred)} preferred extensions, closed form says {count}"
    if got_preferred != oracle.preferred(ids, edges):
        return "preferred differs from the reference"
    if got_cf2 != oracle.cf2(ids, edges):
        return "cf2 differs from the reference"
    if got_grounded != oracle.brute.oracle_grounded(ids, edges):
        return "grounded labelling differs from the reference"
    return None


def _two_cycles(rng: random.Random, m: int, links: int):
    """m disjoint 2-cycles, plus one-way links between distinct pairs.

    Each preferred extension picks one argument per pair; a link a -> c
    only rules out picking both a and c, so with links on disjoint pairs
    there are 2^(m - 2*links) * 3^links of them.
    """
    names = [f"a{j:02d}" for j in range(2 * m)]
    rng.shuffle(names)
    pairs = [names[2 * j : 2 * j + 2] for j in range(m)]
    edges = {(p[0], p[1]) for p in pairs} | {(p[1], p[0]) for p in pairs}
    chosen = rng.sample(range(m), 2 * links)
    for t in range(links):
        edges.add((rng.choice(pairs[chosen[2 * t]]), rng.choice(pairs[chosen[2 * t + 1]])))
    return names, edges, 2 ** (m - 2 * links) * 3**links


def _sparse(rng: random.Random, n: int, p: float = 0.2):
    """Attacks on round(p * n * (n - 1)) distinct ordered pairs: a fixed
    count rather than a coin per pair, because the work grows exponentially
    with sparseness and a varying count would swamp every other effect."""
    names = [f"a{j:02d}" for j in range(n)]
    pairs = [(s, d) for s in names for d in names if s != d]
    return names, set(rng.sample(pairs, round(p * len(pairs)))), None


def extensions(seed: int, count: int) -> list[Instance]:
    """preferred, cf2 and grounded on in-memory frameworks, as `afo semantics` runs them."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        if i % 2 == 0:
            ids, edges, closed = _two_cycles(rng, m=5 + (i // 2) % 2, links=(i // 4) % 3)
        else:
            ids, edges, closed = _sparse(rng, n=16 + (i // 2) % 5)
        arglets = {(a, f"x{a}") for a in ids}
        attacks = {((s, f"x{s}"), (d, f"x{d}")) for s, d in edges}
        framework = Framework(frozenset(arglets), frozenset(attacks))
        text = afo_text(f"extensions input {i}", arglets=arglets, attacks=attacks)
        out.append(
            Instance(f"ext{i:03d}", text, partial(_run_semantics, framework), partial(_check_semantics, set(ids), edges, closed))
        )
    return out


# ------------------------------------------------------------ groupscan


def _run_sharpen(framework, lattice, fmap, blocked):
    return afo.pipeline.sharpen(framework, lattice, fmap, blocked)


def _check_blocked(arglets, attacks, report):
    # no group may merge: one derived framework, the input itself
    return _mismatch(report_payload(report), expected_sharpen(arglets, attacks, []))


def groupscan(seed: int, count: int) -> list[Instance]:
    """`sharpen` on k-cycles over atoms of one hub that sits in M.

    Every subset of the cycle joins to the hub (or is a single argument),
    so every candidate group is trivial and the scan tries all 2^k - k - 1
    of them.
    """
    rng = random.Random(seed)
    out = []
    for i in range(count):
        k, chords = 7 + i % 3, (i // 3) % 3
        atoms = [f"x{j}" for j in range(k)]
        nodes = ["bot", "hub", "top"] + atoms
        covers = [("bot", a) for a in atoms] + [(a, "hub") for a in atoms] + [("hub", "top")]
        assignments = [("ghub", "hub")] + [(f"e{a}", a) for a in atoms]
        members = [f"c{j}" for j in range(k)]
        expr = dict(zip(members, rng.sample([f"e{a}" for a in atoms], k)))
        ring = members[:]
        rng.shuffle(ring)
        edges = {(ring[j], ring[(j + 1) % k]) for j in range(k)}
        while len(edges) < k + chords:
            edges.add(tuple(rng.sample(members, 2)))
        arglets = {(m, expr[m]) for m in members}
        attacks = {((s, expr[s]), (d, expr[d])) for s, d in edges}
        text = afo_text(
            f"groupscan input {i}", nodes, covers, ["hub"], assignments, arglets, attacks
        )
        lattice = validate_lattice(nodes, covers)
        model = (
            Framework(frozenset(arglets), frozenset(attacks)),
            lattice,
            SemanticMap(dict(assignments)),
            lattice.upward_closure(["hub"]),
        )
        out.append(Instance(f"cycle{i:03d}", text, partial(_run_sharpen, *model), partial(_check_blocked, arglets, attacks)))
    return out
