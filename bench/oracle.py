"""Reference answers for the benchmark's output gate, computed without afo.

Small frameworks go through the 2^n brute force in ``tests/oracles.py``.
Larger ones use the bitmask search below, which only visits conflict-free
sets: the random frameworks of the ``extensions`` workload have up to 20
arguments, where the brute force would take seconds per framework.
Everything takes plain argument ids and (attacker, target) id pairs.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

BRUTE_FORCE_MAX = 12

_spec = importlib.util.spec_from_file_location(
    "afo_test_oracles", Path(__file__).resolve().parent.parent / "tests" / "oracles.py"
)
brute = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(brute)


def sort_extensions(extensions) -> list[frozenset[str]]:
    """The package's print order: by size, then lexicographically."""
    return sorted(set(extensions), key=lambda e: (len(e), tuple(sorted(e))))


def _index(ids, edges):
    order = sorted(ids)
    pos = {a: i for i, a in enumerate(order)}
    attackers = [0] * len(order)
    targets = [0] * len(order)
    for s, d in edges:
        attackers[pos[d]] |= 1 << pos[s]
        targets[pos[s]] |= 1 << pos[d]
    return order, attackers, targets


def _members(order, mask) -> frozenset[str]:
    return frozenset(a for i, a in enumerate(order) if mask >> i & 1)


def _conflict_free(attackers, targets):
    """Every conflict-free mask, with the masks of its attackers and targets."""
    n = len(attackers)
    out = []
    banned0 = sum(1 << i for i in range(n) if attackers[i] >> i & 1)

    def grow(mask, banned, hit_by, hits, start):
        out.append((mask, hit_by, hits))
        for i in range(start, n):
            if banned >> i & 1:
                continue
            grow(
                mask | 1 << i,
                banned | attackers[i] | targets[i],
                hit_by | attackers[i],
                hits | targets[i],
                i + 1,
            )

    grow(0, banned0, 0, 0, 0)
    return out


def _preferred_bitmask(ids, edges) -> list[frozenset[str]]:
    order, attackers, targets = _index(ids, edges)
    admissible = sorted(
        (m for m, hit_by, hits in _conflict_free(attackers, targets) if hit_by & ~hits == 0),
        key=lambda m: -bin(m).count("1"),
    )
    maximal: list[int] = []
    for m in admissible:
        if not any(m & k == m for k in maximal):
            maximal.append(m)
    return sort_extensions(_members(order, m) for m in maximal)


def preferred(ids, edges) -> list[frozenset[str]]:
    if len(ids) <= BRUTE_FORCE_MAX:
        return brute.oracle_preferred(ids, edges)
    return _preferred_bitmask(ids, edges)


def naive(ids, edges) -> list[frozenset[str]]:
    """Maximal conflict-free sets: no outside argument can be added."""
    order, attackers, targets = _index(ids, edges)
    n = len(order)
    out = []
    for m, _, _ in _conflict_free(attackers, targets):
        if all(
            m >> i & 1 or attackers[i] >> i & 1 or (attackers[i] | targets[i]) & m
            for i in range(n)
        ):
            out.append(_members(order, m))
    return sort_extensions(out)


def _sccs_topological(ids, edges) -> list[frozenset[str]]:
    """The components of ``tests/oracles.py``, each after every component
    that attacks it."""
    comps = brute.oracle_sccs(ids, edges)
    comp_of = {a: c for c in comps for a in c}
    upstream = {c: set() for c in comps}
    for s, d in edges:
        if comp_of[s] != comp_of[d]:
            upstream[comp_of[d]].add(comp_of[s])
    order: list[frozenset[str]] = []
    while len(order) < len(comps):
        order.append(min((c for c in comps if c not in order and upstream[c] <= set(order)), key=sorted))
    return order


def cf2(ids, edges) -> list[frozenset[str]]:
    """SCC-recursive cf2 (Baroni, Giacomin and Guida 2005)."""
    ids = frozenset(ids)
    edges = {(s, d) for s, d in edges if s in ids and d in ids}
    if not ids:
        return [frozenset()]
    sccs = _sccs_topological(ids, edges)
    if len(sccs) == 1:
        return naive(ids, edges)
    partials = [frozenset()]
    for scc in sccs:
        grown = []
        for part in partials:
            survivors = frozenset(a for a in scc if not any((b, a) in edges for b in part))
            if not survivors:
                grown.append(part)
                continue
            grown.extend(part | choice for choice in cf2(survivors, edges))
        partials = grown
    return sort_extensions(partials)

