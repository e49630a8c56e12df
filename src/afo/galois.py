"""Abstraction and concretization between expression sets and lattice nodes.

Arguments carry expressions; an ontology assigns each expression a node of a
finite semantic lattice.  Two maps connect the powerset of expressions with
the lattice:

* ``alpha`` sends a set of expressions to the join of their nodes, the most
  specific node at least as general as everything in the set;
* ``gamma`` sends a node to every expression sitting directly below it, the
  most general set of expressions the node can stand in for.

Comparing expression sets uses a quotient of plain set inclusion: an
expression whose node can be fully unfolded into expression-covered lower
covers is interchangeable with that unfolding.  ``canonicalize`` rewrites a
set downward until no member can be unfolded further, and ``expr_set_leq``
compares canonical forms by inclusion.  The rewrite only fires when every
lower cover of the node owns at least one expression, so nothing is ever
unfolded into a level the vocabulary cannot express.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterable

from .errors import EmptySet, UnknownExpression
from .lattice import FiniteLattice


@dataclass(init=False)
class SemanticMap:
    """Total assignment of expressions to lattice nodes.

    The expressions per node, which `preimages` reads, are listed on its
    first call and kept in a slot beside the instance dict, so they are no
    field: equality, `repr` and `vars()` see only the assignments."""

    __slots__ = ("_by_node", "__dict__", "__weakref__")

    _assignments: Mapping[str, str]

    def __init__(self, assignments: Mapping[str, str]):
        self._assignments = dict(assignments)

    def __contains__(self, symbol: object) -> bool:
        return symbol in self._assignments

    @property
    def symbols(self) -> frozenset[str]:
        return frozenset(self._assignments)

    def items(self):
        return self._assignments.items()

    def image(self, symbol: str) -> str:
        try:
            return self._assignments[symbol]
        except KeyError:
            raise UnknownExpression(f"expression {symbol!r} has no node assignment") from None

    def preimages(self, node: str) -> frozenset[str]:
        try:
            by_node = self._by_node
        except AttributeError:
            by_node = self._by_node = {}
            for s, n in self._assignments.items():
                by_node.setdefault(n, []).append(s)
        return frozenset(by_node.get(node, ()))

    def with_assignment(self, symbol: str, node: str) -> "SemanticMap":
        """This map with one extra or replaced assignment.  The new map reads
        through to this map's assignments rather than copying them; a map
        made this way is copied once when extended again, so every read
        stays one level deep."""
        base = self._assignments
        out = SemanticMap.__new__(SemanticMap)
        out._assignments = _Extended(base if type(base) is dict else dict(base), symbol, node)
        return out


class _Extended(Mapping):
    """The assignments of a `with_assignment` map: a dict it shares with the
    map it extends, plus one assignment.  Neither is ever written, so the
    sharing is safe; equality, iteration order and `repr` are those of the
    dict copy with the assignment made."""

    __slots__ = ("base", "symbol", "node")

    def __init__(self, base: dict[str, str], symbol: str, node: str):
        self.base, self.symbol, self.node = base, symbol, node

    def __getitem__(self, symbol: str) -> str:
        return self.node if symbol == self.symbol else self.base[symbol]

    def __iter__(self):
        yield from self.base
        if self.symbol not in self.base:
            yield self.symbol

    def __len__(self) -> int:
        return len(self.base) + (self.symbol not in self.base)

    def __repr__(self) -> str:
        return repr(dict(self))


def alpha(lat: FiniteLattice, fmap: SemanticMap, exprs: Iterable[str]) -> str:
    """Most specific node at least as general as every expression in the set.

    The empty set abstracts to the bottom element.
    """
    return lat.join(fmap.image(e) for e in exprs)


def gamma(lat: FiniteLattice, fmap: SemanticMap, node: str) -> frozenset[str]:
    """Expressions assigned to the lower covers of the node.

    Empty when no lower cover of the node carries an expression.
    """
    low = lat.lower_covers(node)
    return frozenset(s for s, n in fmap.items() if n in low)


def _unfoldable(lat: FiniteLattice, fmap: SemanticMap, node: str) -> bool:
    """Whether expressions at this node may be replaced by its unfolding."""
    if node == lat.bottom:
        return False
    return all(fmap.preimages(c) for c in lat.lower_covers(node))


def canonicalize(lat: FiniteLattice, fmap: SemanticMap, exprs: Iterable[str]) -> frozenset[str]:
    """Rewrite a set downward until no member can be unfolded further.

    The result is a normal form: the rewrite order does not matter, and
    canonicalizing twice changes nothing.
    """
    result: set[str] = set()
    seen: set[str] = set()
    stack = list(exprs)
    while stack:
        e = stack.pop()
        if e in seen:
            continue
        seen.add(e)
        node = fmap.image(e)
        if _unfoldable(lat, fmap, node):
            stack.extend(gamma(lat, fmap, node))
        else:
            result.add(e)
    return frozenset(result)


def expr_set_leq(lat: FiniteLattice, fmap: SemanticMap, first: Iterable[str], second: Iterable[str]) -> bool:
    """Set inclusion up to unfolding: compares canonical forms."""
    return canonicalize(lat, fmap, first) <= canonicalize(lat, fmap, second)


def is_abstraction(lat: FiniteLattice, fmap: SemanticMap, abstractor: str, exprs: Iterable[str]) -> bool:
    """Whether one expression is at least as general as a whole set.

    The set must be non-empty; its members and the abstractor must be mapped.
    """
    members = list(exprs)
    if not members:
        raise EmptySet("is_abstraction needs a non-empty expression set")
    return lat.leq(alpha(lat, fmap, members), fmap.image(abstractor))


def is_best_abstraction(lat: FiniteLattice, fmap: SemanticMap, abstractor: str, exprs: Iterable[str]) -> bool:
    """Whether the expression sits exactly at the join of the set's nodes."""
    members = list(exprs)
    if not members:
        raise EmptySet("is_best_abstraction needs a non-empty expression set")
    return fmap.image(abstractor) == alpha(lat, fmap, members)


def most_general_concretization(lat: FiniteLattice, fmap: SemanticMap, abstractor: str) -> frozenset[str]:
    """The largest expression set the abstractor stands in for."""
    return gamma(lat, fmap, fmap.image(abstractor))


def is_concretization(lat: FiniteLattice, fmap: SemanticMap, exprs: Iterable[str], abstractor: str) -> bool:
    """Whether the set refines the abstractor: below its most general concretization."""
    return expr_set_leq(lat, fmap, exprs, most_general_concretization(lat, fmap, abstractor))
