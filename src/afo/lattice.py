"""Finite lattices described by Hasse diagrams.

A lattice is handed to :func:`validate_lattice` as a set of node ids plus a
set of cover pairs ``(child, parent)`` meaning the parent sits directly above
the child with nothing in between.  Validation rejects cyclic or transitively
implied covers and any pair of nodes without a unique least upper bound or
greatest lower bound.  Both are decided on the masks below: the covers in
one pass over each child's parents, which collects every redundant cover
and reports the first in sorted order, and the joins once per pair of
classes of nodes that share a strict up mask, since two incomparable
nodes' strict up masks meet in all their common upper bounds.  A finite
poset with a bottom in which every pair has a join is a lattice (Davey and
Priestley, *Introduction to Lattices and Order*, CUP 2002), so the meets
need no test of their own.  Only a diagram that fails that test is checked
again pair by pair in sorted order, to name its first failing pair.

The order is kept as bitsets over ranks (Aït-Kaci, Boyer, Lincoln and Nasr,
TOPLAS 1989): nodes are ranked by a linear extension, bottom first, and each
has an ``up`` mask of the ranks at or above it and a ``down`` mask of the
ranks at or below it.  A join is the lowest rank in the AND of the up masks,
a meet the highest rank in the AND of the down masks.

Conventions:

* nodes are plain strings compared by identity of the id;
* ``leq(a, b)`` is the reflexive order derived from the covers;
* collections returned to callers are frozensets; anything that must be
  printed in a stable order is sorted at the presentation layer.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator

from .errors import (
    CycleInCovers,
    EmptySet,
    NonUniqueJoin,
    NonUniqueMeet,
    RedundantCover,
    UnknownNode,
)


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _highest(mask: int) -> int:
    return mask.bit_length() - 1


def _ranks(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FiniteLattice:
    """A validated finite lattice. Build instances via :func:`validate_lattice`."""

    def __init__(self, nodes, covers, ranked, up, down):
        self.nodes: frozenset[str] = nodes
        self.covers: frozenset[tuple[str, str]] = covers
        self.top: str = ranked[-1]
        self.bottom: str = ranked[0]
        self._ranked: list[str] = ranked  # rank -> node, bottom first
        self._up: dict[str, int] = up  # node -> mask of the ranks at or above it
        self._down: dict[str, int] = down  # node -> mask of the ranks at or below it

    def _mask(self, masks: dict[str, int], node: str) -> int:
        try:
            return masks[node]
        except KeyError:
            raise UnknownNode(f"unknown lattice node {node!r}") from None

    def _members(self, mask: int) -> frozenset[str]:
        return frozenset([self._ranked[r] for r in _ranks(mask)])

    def leq(self, a: str, b: str) -> bool:
        """True when a is below or equal to b."""
        return self._mask(self._up, a) & self._mask(self._down, b) != 0

    def comparable(self, a: str, b: str) -> bool:
        return self.leq(a, b) or self.leq(b, a)

    def up_set(self, node: str) -> frozenset[str]:
        """All nodes above or equal to the given node."""
        return self._members(self._mask(self._up, node))

    def down_set(self, node: str) -> frozenset[str]:
        """All nodes below or equal to the given node."""
        return self._members(self._mask(self._down, node))

    def join(self, nodes: Iterable[str]) -> str:
        """Least upper bound of a node set; the bottom element for an empty set."""
        uppers = self._up[self.bottom]
        for n in nodes:
            uppers &= self._mask(self._up, n)
        return self._ranked[_lowest(uppers)]

    def meet(self, nodes: Iterable[str]) -> str:
        """Greatest lower bound of a node set; the top element for an empty set."""
        lowers = self._down[self.top]
        for n in nodes:
            lowers &= self._mask(self._down, n)
        return self._ranked[_highest(lowers)]

    def groups_below(self, pairs: Iterable[tuple[str, str]]) -> Iterator[tuple[str, list[str], bool]]:
        """Given (member, node) pairs, yield one triple per node v at or above
        some member's node: v, the members whose node lies at or below v in
        the order given, and whether v is their join.

        One pass over the members: each joins the group of every rank in its
        node's up mask, and a node is the join of its group when it is the
        lowest rank in the AND of the members' up masks."""
        members: list[str] = []
        below = [0] * len(self._ranked)  # rank -> mask over the members
        common = [-1] * len(self._ranked)  # rank -> AND of the members' up masks
        for i, (member, node) in enumerate(pairs):
            members.append(member)
            up = mask = self._mask(self._up, node)
            while mask:
                low = mask & -mask
                mask ^= low
                r = low.bit_length() - 1
                below[r] |= 1 << i
                common[r] &= up
        for r, group in enumerate(below):
            if group:
                yield self._ranked[r], [members[i] for i in _ranks(group)], _lowest(common[r]) == r

    def lower_covers(self, node: str) -> frozenset[str]:
        """Nodes directly below the given one; the bottom element yields itself.

        This is the granularity at which a node can be unfolded into the
        strictly more specific levels beneath it.
        """
        children = self.children(node)
        return frozenset({node}) if node == self.bottom else children

    def children(self, node: str) -> frozenset[str]:
        """Raw Hasse children, with no special case at the bottom."""
        self._mask(self._up, node)  # raises UnknownNode
        return frozenset(c for c, p in self.covers if p == node)

    def atoms(self) -> frozenset[str]:
        """Nodes covering the bottom element."""
        return frozenset(p for c, p in self.covers if c == self.bottom)

    def upward_closure(self, generators: Iterable[str]) -> frozenset[str]:
        """Smallest upper set containing the generators."""
        out = 0
        for g in generators:
            out |= self._mask(self._up, g)
        return self._members(out)

    def is_upper_set(self, nodes: Iterable[str]) -> bool:
        """True when the set is closed upward under the lattice order."""
        given = closure = 0
        for n in set(nodes):
            up = self._mask(self._up, n)
            given |= up & self._down[n]
            closure |= up
        return closure == given


def _joins_unique(ups: list[int], downs: list[int]) -> bool:
    """True when every pair of ranks has a least upper bound, given the up
    and down masks by rank.  A comparable pair always has one.  For
    incomparable x and y the common upper bounds are exactly strict(x) &
    strict(y), the up masks without their own bits, so the ranks fall into
    classes by strict mask and each pair of classes is tested once, and
    only when some member of one is incomparable with some member of the
    other.  Two members of one class are incomparable, so a class of two
    or more meets itself."""
    everything = (1 << len(ups)) - 1
    strict: list[int] = []
    members: dict[int, int] = {}  # strict mask -> the ranks that have it
    hits: dict[int, int] = {}  # strict mask -> the ranks incomparable with one of them
    for r, (u, d) in enumerate(zip(ups, downs)):
        strict.append(s := u & ~(1 << r))
        members[s] = members.get(s, 0) | 1 << r
        hits[s] = hits.get(s, 0) | everything & ~(u | d)
    done = 0  # ranks of the classes already walked
    for s, own in members.items():
        hit = hits[s] & ~done
        while hit:
            t = strict[_lowest(hit)]
            common = s & t
            if not common or common & ~ups[_lowest(common)]:
                return False
            hit &= ~members[t]
        done |= own
    return True


def validate_lattice(nodes: Iterable[str], covers: Iterable[tuple[str, str]]) -> FiniteLattice:
    """Validate a Hasse diagram and return the lattice it describes.

    Raises EmptySet for an empty node set, UnknownNode for a cover endpoint
    that is not a node, CycleInCovers, RedundantCover for a cover already
    implied transitively, and NonUniqueJoin / NonUniqueMeet when some pair
    of nodes lacks a unique least upper or greatest lower bound.

    Redundant covers are all collected in one pass over each child's
    parents, and the least in sorted order is reported.  Missing bounds are
    found by a bottom test and one join test per pair of classes of nodes
    sharing a strict up mask, where some pair of members is incomparable;
    only when that fails does the loop over sorted node pairs run, so the
    error names the same first pair as a pair-by-pair check.
    """
    node_set = frozenset(nodes)
    if not node_set:
        raise EmptySet("a lattice needs at least one node")
    cover_set = frozenset((c, p) for c, p in covers)
    for c, p in cover_set:
        for end in (c, p):
            if end not in node_set:
                raise UnknownNode(f"cover references unknown node {end!r}")
        if c == p:
            raise CycleInCovers(f"self cover on {c!r}")

    parents: dict[str, list[str]] = {n: [] for n in node_set}
    indeg = dict.fromkeys(node_set, 0)
    for c, p in cover_set:
        parents[c].append(p)
        indeg[p] += 1
    # Kahn's algorithm on child->parent edges ranks the nodes bottom first;
    # leftovers mean a cycle.
    queue = sorted(n for n in node_set if not indeg[n])
    ranked = []
    while queue:
        n = queue.pop()
        ranked.append(n)
        for p in parents[n]:
            indeg[p] -= 1
            if not indeg[p]:
                queue.append(p)
    if len(ranked) != len(node_set):
        raise CycleInCovers("cover relation contains a cycle")

    # Children rank before their parents, so each mask is final before it spreads.
    up = {n: 1 << r for r, n in enumerate(ranked)}
    down = dict(up)
    for n in reversed(ranked):
        for p in parents[n]:
            up[n] |= up[p]
    for n in ranked:
        for p in parents[n]:
            down[p] |= down[n]

    # A cover c -> p is redundant exactly when p lies strictly above another
    # parent of c, so one OR of the parents' strict up masks decides every
    # cover of c; the first redundant cover in sorted order is reported.
    redundant = []
    for c, ps in parents.items():
        if len(ps) > 1:
            above = 0
            for q in ps:
                above |= up[q] & (up[q] - 1)
            redundant += [(c, p) for p in ps if above & up[p] & -up[p]]
    if redundant:
        c, p = min(redundant)
        raise RedundantCover(f"cover {c!r} -> {p!r} is transitively implied")

    # With a bottom, the join of a pair's common lower bounds is their meet,
    # so the bottom and the joins decide the meets too.  The ordered loop
    # runs only when one fails, to report the first pair in sorted order.
    ups = [up[n] for n in ranked]
    if not (ups[0] == (1 << len(ranked)) - 1 and _joins_unique(ups, [down[n] for n in ranked])):
        # The lowest common upper bound is the least one exactly when every
        # common upper bound lies above it; dually for the highest lower bound.
        for a, b in combinations(sorted(node_set), 2):
            uppers = up[a] & up[b]
            if not uppers or uppers & ~up[ranked[_lowest(uppers)]]:
                raise NonUniqueJoin(f"nodes {a!r} and {b!r} have no unique least upper bound")
            lowers = down[a] & down[b]
            if not lowers or lowers & ~down[ranked[_highest(lowers)]]:
                raise NonUniqueMeet(f"nodes {a!r} and {b!r} have no unique greatest lower bound")

    return FiniteLattice(node_set, cover_set, ranked, up, down)
