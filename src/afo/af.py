"""Argumentation frameworks over expression-bearing arguments.

The finest unit is the arglet: one argument identifier paired with one
expression it asserts.  Attacks are declared between arglets, which keeps
track of exactly which assertion clashes with which.  Grouping arglets by
identifier recovers the ordinary argument graph, where an argument attacks
another as soon as any of their arglets do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import UnknownArgument

# (argument id, expression)
Arglet = tuple[str, str]


@dataclass(frozen=True)
class Argument:
    arg_id: str
    expressions: frozenset[str]


@dataclass(frozen=True)
class Framework:
    """Arglets plus arglet-level attacks.

    The graph index (`_index`) is built on first use and kept in a slot
    beside the instance dict, so it is no field: equality, hashing, `repr`,
    `vars()`, `dataclasses.fields()`, copies and pickles see only the
    arglets and attacks."""

    __slots__ = ("_ix", "__dict__", "__weakref__")

    arglets: frozenset[Arglet]
    attacks: frozenset[tuple[Arglet, Arglet]]

    def __post_init__(self):
        for src, dst in self.attacks:
            if src not in self.arglets:
                raise UnknownArgument(f"attack source {src!r} is not an arglet of the framework")
            if dst not in self.arglets:
                raise UnknownArgument(f"attack target {dst!r} is not an arglet of the framework")

    def __reduce__(self):
        # copies and pickles carry the fields alone; the frozen class would
        # refuse the index slot on restore, and a copy builds its own
        return type(self), (self.arglets, self.attacks)

    @classmethod
    def _trusted(cls, arglets: frozenset[Arglet], attacks: frozenset[tuple[Arglet, Arglet]]) -> "Framework":
        """A framework built without the endpoint check, for callers whose
        every attack endpoint is one of `arglets` by construction."""
        framework = object.__new__(cls)
        object.__setattr__(framework, "arglets", arglets)
        object.__setattr__(framework, "attacks", attacks)
        return framework

    @staticmethod
    def of(arglets: Iterable[Arglet], attacks: Iterable[tuple[Arglet, Arglet]]) -> "Framework":
        return Framework(frozenset(arglets), frozenset(attacks))

    def argument_ids(self) -> frozenset[str]:
        return frozenset(a for a, _ in self.arglets)

    def argument_expressions(self, arg_id: str) -> frozenset[str]:
        exprs = frozenset(e for a, e in self.arglets if a == arg_id)
        if not exprs:
            raise UnknownArgument(f"no arglet carries id {arg_id!r}")
        return exprs

    def arguments(self) -> list[Argument]:
        by_id: dict[str, set[str]] = {}
        for a, e in self.arglets:
            by_id.setdefault(a, set()).add(e)
        return [Argument(a, frozenset(es)) for a, es in sorted(by_id.items())]

    def has_attack(self, src_id: str, dst_id: str) -> bool:
        return any(a == src_id and b == dst_id for (a, _), (b, _) in self.attacks)

    def dung_projection(self) -> tuple[frozenset[str], frozenset[tuple[str, str]]]:
        """Collapse arglets to argument ids: the plain attack graph."""
        ids = self.argument_ids()
        edges = frozenset((a, b) for (a, _), (b, _) in self.attacks)
        return ids, edges


def attack_relation(framework: Framework) -> dict[str, set[str]]:
    ids, edges = framework.dung_projection()
    out: dict[str, set[str]] = {a: set() for a in sorted(ids)}
    for s, d in edges:
        out[s].add(d)
    return out


def has_path(framework: Framework, src_id: str, dst_id: str) -> bool:
    """Directed attack path of length at least one."""
    ix = _index(framework)
    if src_id not in ix.pos or dst_id not in ix.pos:
        raise UnknownArgument(f"path endpoints {src_id!r}, {dst_id!r} must be argument ids")
    reached = _reach(ix.targets, ix.targets[ix.pos[src_id]], ix.everything)
    return bool(reached >> ix.pos[dst_id] & 1)


def strongly_connected_components(framework: Framework) -> list[frozenset[str]]:
    """SCCs of the argument graph in a topological order, attackers first.

    Ties in the ordering are broken by visiting argument ids
    lexicographically, so the result is deterministic.
    """
    ix = _index(framework)
    ids = ix.ids
    # bit by bit, not from the mask's digits as extensions are named: a
    # cost that follows each SCC's size, not the width of its framework
    return [frozenset({ids[i] for i in _bits(comp)}) for comp in ix.scc_masks()]


# ------------------------------------------------------------ graph index
#
# Every graph question of the package (SCCs, paths, the semantics, the
# group scan and validity) is answered on one index per framework, built on
# first use by `_index` and kept on the framework, with its SCC masks once
# asked for: argument i is bit i of a Python int, in id order.  The index
# names no mask: extensions are named by `semantics._extensions`, SCCs by
# `strongly_connected_components`.  Each walk keeps its own stack, so no
# depth of input can hit the interpreter's recursion limit.


def _index(framework: Framework) -> _Index:
    """The framework's graph index, built on the first call and kept in its
    `_ix` slot, set through `object.__setattr__` as the class is frozen."""
    try:
        return framework._ix
    except AttributeError:
        ix = _Index(framework)
        object.__setattr__(framework, "_ix", ix)
        return ix


def _drop_index(framework: Framework) -> None:
    """Forget the framework's graph index, if it has one; the next
    `_index` call builds it again."""
    try:
        object.__delattr__(framework, "_ix")
    except AttributeError:
        pass


def _contract(parent: Framework, child: Framework, merged: dict[str, str]) -> None:
    """Hand `child` the SCC masks of `parent`, renamed, so that its index
    runs no Tarjan.  `child` must be `parent` with groups merged, each
    inside one SCC of `parent` (as `pipeline.derive_abstract_frameworks`
    builds its forks), and `merged` must map each member of a group to the
    group's id.  Merging arguments of one SCC keeps it strongly connected
    and joins no two SCCs, as a path of `child` lifts to a walk of
    `parent`: so these are the SCCs of `child`, still attackers first,
    though ties may fall otherwise than `_sccs` would break them."""
    source, ix = _index(parent), _index(child)
    pos = ix.pos
    rows = [1 << pos[merged.get(a, a)] for a in source.ids]
    ix.sccs = [_union(rows, comp) for comp in source.scc_masks()]


class _Index:
    """Sorted ids and their bits; per argument the masks of its attackers,
    of its targets and of both; the mask of self-attacking arguments and of
    every argument; and, once asked for, the SCC masks and each bit's SCC.  A
    plain class: a NamedTuple would add its class-building cost to every
    import."""

    __slots__ = ("ids", "pos", "attackers", "targets", "neighbours", "loops", "everything", "sccs", "homes")

    def __init__(self, framework: Framework):
        self.ids = ids = sorted({a for a, _ in framework.arglets})
        self.pos = pos = {a: i for i, a in enumerate(ids)}
        self.attackers = attackers = [0] * len(ids)
        self.targets = targets = [0] * len(ids)
        for (s, _), (d, _) in framework.attacks:
            i, j = pos[s], pos[d]
            attackers[j] |= 1 << i
            targets[i] |= 1 << j
        self.neighbours = [a | t for a, t in zip(attackers, targets)]
        self.loops = sum(1 << i for i, a in enumerate(attackers) if a >> i & 1)
        self.everything = (1 << len(ids)) - 1
        self.sccs: list[int] | None = None
        self.homes: list[int] | None = None

    def scc_masks(self) -> list[int]:
        """The SCC masks of the whole graph, attackers first (`_sccs`): one
        Tarjan run, on the first call."""
        if self.sccs is None:
            self.sccs = _sccs(self, self.everything)
        return self.sccs

    def scc_homes(self) -> list[int]:
        """Per bit, the mask of its SCC, from `scc_masks`, on the first call."""
        if self.homes is None:
            self.homes = homes = [0] * len(self.ids)
            for comp in self.scc_masks():
                for i in _bits(comp):
                    homes[i] = comp
        return self.homes


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _union(adj: list[int], mask: int) -> int:
    """The union of adj[i] over the bits i of `mask`."""
    out = 0
    while mask:
        low = mask & -mask
        out |= adj[low.bit_length() - 1]
        mask ^= low
    return out


def _reach(adj: list[int], seeds: int, within: int) -> int:
    """Everything in `within` reachable along `adj` from the seeds in it,
    those seeds included."""
    seen = frontier = seeds & within
    while frontier:
        frontier = _union(adj, frontier) & within & ~seen
        seen |= frontier
    return seen


def _sccs(ix: _Index, within: int) -> list[int]:
    """Strongly connected components of the graph induced on `within`,
    attackers first: iterative Tarjan, flipped at the end."""
    targets = ix.targets
    index = [-1] * len(targets)
    low = [0] * len(targets)
    counter = 0
    stack: list[int] = []
    on_stack = 0
    components: list[int] = []
    for root in _bits(within):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack |= 1 << root
        work = [(root, _bits(targets[root] & within))]
        while work:
            node, successors = work[-1]
            for nxt in successors:
                if index[nxt] < 0:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack |= 1 << nxt
                    work.append((nxt, _bits(targets[nxt] & within)))
                    break
                if on_stack >> nxt & 1:
                    low[node] = min(low[node], index[nxt])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = 0
                    while True:
                        member = stack.pop()
                        comp |= 1 << member
                        if member == node:
                            break
                    on_stack &= ~comp
                    components.append(comp)
    components.reverse()
    return components
