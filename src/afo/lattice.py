"""Finite lattices described by Hasse diagrams.

A lattice is handed to :func:`validate_lattice` as a set of node ids plus a
set of cover pairs ``(child, parent)`` meaning the parent sits directly above
the child with nothing in between.  Validation rejects cyclic or transitively
implied covers and any pair of nodes without a unique least upper bound or
greatest lower bound.  Both are decided on the masks below: the covers in
one pass over each child's parents, which collects every redundant cover
and reports the first in sorted order, and the joins by one local test.  A
finite poset with a bottom is a lattice exactly when every two upper
covers of a common node (co-covers) have a join (Davey and Priestley,
*Introduction to Lattices and Order*, CUP 2002, for the order facts).
Sketch: for incomparable x and y take a common lower bound m of greatest
height and covers m < x' <= x, m < y' <= y; j = x' v y' exists, x and j
share the lower bound x', higher than m, so by downward induction on that
height k = x v j exists, then k v y, which is x v y.  A node with one
upper cover has a join with every node exactly when that cover has, so
each node is lifted along its chain of single covers to the first node
with none or several, and each distinct pair of co-covers' lifts is
tested once.  In a flower lattice every cover of the bottom lifts to the
top and no pair is tested; in an ontology the pairs come from the concepts
with several parents.  With a bottom the meet of a pair is the join of its
common lower bounds, so the meets need no test of their own.  Only a
diagram that fails is checked again pair by pair in sorted order, to name
its first failing pair.

The order is kept as one bitset per node over ranks (Aït-Kaci, Boyer,
Lincoln and Nasr, TOPLAS 1989): nodes are ranked by a linear extension,
bottom first, and each has an ``up`` mask of the ranks at or above it.  A
node's rank bit is the lowest bit of its up mask, and x <= y exactly when
x's up mask holds y's rank bit.  A join is the lowest rank in the AND of
the up masks; a meet is the highest rank whose up mask holds every given
node's rank bit, and a down set is read off the up masks the same way.

Conventions:

* nodes are plain strings compared by identity of the id;
* ``leq(a, b)`` is the reflexive order derived from the covers;
* collections returned to callers are frozensets; anything that must be
  printed in a stable order is sorted at the presentation layer.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from .af import _bits
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


def _comparable(x: int, y: int) -> bool:
    """Whether the nodes of up masks x and y are comparable: what they share
    holds the rank bit of one, as -x holds x's and only bits x lacks above."""
    common = x & y
    return bool(common & -x or common & -y)


class FiniteLattice:
    """A validated finite lattice. Build instances via :func:`validate_lattice`."""

    def __init__(self, nodes, covers, ranked, up):
        self.nodes: frozenset[str] = nodes
        self.covers: frozenset[tuple[str, str]] = covers
        self.top: str = ranked[-1]
        self.bottom: str = ranked[0]
        self._ranked: list[str] = ranked  # rank -> node, bottom first
        self._up: dict[str, int] = up  # node -> mask of the ranks at or above it

    def _mask(self, node: str) -> int:
        """The node's up mask."""
        try:
            return self._up[node]
        except KeyError:
            raise UnknownNode(f"unknown lattice node {node!r}") from None

    def _members(self, mask: int) -> frozenset[str]:
        return frozenset([self._ranked[r] for r in _bits(mask)])

    def leq(self, a: str, b: str) -> bool:
        """True when a is below or equal to b: a's up mask holds b's rank bit."""
        up, above = self._mask(a), self._mask(b)
        return up & above & -above != 0

    def comparable(self, a: str, b: str) -> bool:
        return _comparable(self._mask(a), self._mask(b))

    def up_set(self, node: str) -> frozenset[str]:
        """All nodes above or equal to the given node."""
        return self._members(self._mask(node))

    def down_set(self, node: str) -> frozenset[str]:
        """All nodes below or equal to the given node: their up masks hold its rank bit."""
        bit = self.rank_mask([node])
        return frozenset([n for n in self._ranked[: bit.bit_length()] if self._up[n] & bit])

    def join(self, nodes: Iterable[str]) -> str:
        """Least upper bound of a node set; the bottom element for an empty set."""
        uppers = self._up[self.bottom]
        for n in nodes:
            uppers &= self._mask(n)
        return self._ranked[_lowest(uppers)]

    def meet(self, nodes: Iterable[str]) -> str:
        """Greatest lower bound of a node set; the top element for an empty set.
        The highest rank whose up mask holds every given node's rank bit."""
        bits = self.rank_mask(nodes)
        if not bits:
            return self.top
        up = self._up
        return next(n for n in reversed(self._ranked[: _lowest(bits) + 1]) if up[n] & bits == bits)

    def rank_mask(self, nodes: Iterable[str]) -> int:
        """The mask of the given nodes' rank bits (the scan's M)."""
        out = 0
        for n in nodes:
            up = self._mask(n)
            out |= up & -up
        return out

    def lower_covers(self, node: str) -> frozenset[str]:
        """Nodes directly below the given one; the bottom element yields itself.

        This is the granularity at which a node can be unfolded into the
        strictly more specific levels beneath it.
        """
        children = self.children(node)
        return frozenset({node}) if node == self.bottom else children

    def children(self, node: str) -> frozenset[str]:
        """Raw Hasse children, with no special case at the bottom."""
        self._mask(node)  # raises UnknownNode
        return frozenset(c for c, p in self.covers if p == node)

    def atoms(self) -> frozenset[str]:
        """Nodes covering the bottom element."""
        return frozenset(p for c, p in self.covers if c == self.bottom)

    def upward_closure(self, generators: Iterable[str]) -> frozenset[str]:
        """Smallest upper set containing the generators."""
        out = 0
        for g in generators:
            out |= self._mask(g)
        return self._members(out)

    def is_upper_set(self, nodes: Iterable[str]) -> bool:
        """True when the set is closed upward: its rank bits hold its up masks."""
        given, closure = set(nodes), 0
        for n in given:
            closure |= self._mask(n)
        return closure == self.rank_mask(given)


def validate_lattice(nodes: Iterable[str], covers: Iterable[tuple[str, str]]) -> FiniteLattice:
    """Validate a Hasse diagram and return the lattice it describes.

    Raises EmptySet for an empty node set, UnknownNode for a cover endpoint
    that is not a node, CycleInCovers, RedundantCover for a cover already
    implied transitively, and NonUniqueJoin / NonUniqueMeet when some pair
    of nodes lacks a unique least upper or greatest lower bound.

    Redundant covers are all collected in one pass over each child's
    parents, and the least in sorted order is reported.  Missing bounds are
    found by a bottom test and, for each node with two or more upper
    covers, one join test per distinct pair of its covers' lifts, a node's
    lift being itself unless it has exactly one upper cover, whose lift it
    then takes; only when that fails does the loop over sorted node pairs
    run, so the error names the same first pair as a pair-by-pair check.
    """
    node_set = frozenset(nodes)
    if not node_set:
        raise EmptySet("a lattice needs at least one node")
    cover_set = frozenset(map(tuple, covers))
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

    # Children rank before their parents, so each mask is final before it
    # spreads.  A node's lift is itself unless it has one upper cover, whose
    # lift it then takes.
    up = {n: 1 << r for r, n in enumerate(ranked)}
    lift = {}
    for n in reversed(ranked):
        ps = parents[n]
        for p in ps:
            up[n] |= up[p]
        lift[n] = lift[ps[0]] if len(ps) == 1 else n

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
    # so the bottom and the joins decide the meets too, and every pair has a
    # join once every two upper covers of a common node have one.  Two such
    # co-covers have a join exactly when their lifts have, so each distinct
    # pair of lifts is tested once per node.  The ordered loop runs only when
    # a test fails, to report the first pair in sorted order; only then are
    # the down masks (the ranks at or below each node) built, for the meets.
    commons = (
        up[a] & up[b]
        for ps in parents.values()
        if len(ps) > 1
        for a, b in combinations({lift[p] for p in ps}, 2)
    )
    if up[ranked[0]] != (1 << len(ranked)) - 1 or any(not c or c & ~up[ranked[_lowest(c)]] for c in commons):
        down = {n: 1 << r for r, n in enumerate(ranked)}
        for n in ranked:
            for p in parents[n]:
                down[p] |= down[n]
        # The lowest common upper bound is the least one exactly when every
        # common upper bound lies above it; dually for the highest lower bound.
        for a, b in combinations(sorted(node_set), 2):
            uppers = up[a] & up[b]
            if not uppers or uppers & ~up[ranked[_lowest(uppers)]]:
                raise NonUniqueJoin(f"nodes {a!r} and {b!r} have no unique least upper bound")
            lowers = down[a] & down[b]
            if not lowers or lowers & ~down[ranked[lowers.bit_length() - 1]]:
                raise NonUniqueMeet(f"nodes {a!r} and {b!r} have no unique greatest lower bound")

    return FiniteLattice(node_set, cover_set, ranked, up)
