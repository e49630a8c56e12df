"""Merging groups of arguments into a single more general argument.

An argument a_x abstracts a group of arguments when four structural
conditions relate its expressions to theirs (covering, disjoint, sound,
complete).  A candidate merge is worth performing only when it is also
conservative with respect to the framework around it: valid (the group
cannot be grown inside its strongly connected component), non-trivial
(the merged node is not in the too-general region M), compatible (no
attack inside the group between comparable expressions), and attack
preserving (no external neighbor is comparable with the merged node).

Expression e' abstracts expression e when f(e) is below f(e') in the
lattice.  a_x abstracts a non-empty group exactly when it absorbs each
member: every member expression lies below exactly one expression of a_x,
and every expression of a_x lies above some member expression.  So a group
can grow inside its component exactly when all of it and another member
are absorbed.

Each condition is decided in one place, on bit masks: the structural ones
on lattice ranks (`_conditions`), the others on a `_ScanTable`, the table
the group scan in `pipeline` reads and the predicates and the report build.
Both read the lattice's one order table, its up masks: x <= y exactly when
x's up mask holds y's rank bit, the lowest bit of y's up mask.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, reduce
from itertools import chain
from operator import or_
from typing import Iterable, Iterator, Sequence

from .af import Arglet, Argument, Framework, _bits, _index, _union
from .errors import EmptySet, TargetsNotInFramework
from .galois import SemanticMap, alpha
from .lattice import FiniteLattice, _comparable


@dataclass(frozen=True)
class AbstractionCandidate:
    """A target group of argument ids plus the argument meant to replace it."""

    targets: frozenset[str]
    abstract_arg: Argument


def _conditions(bits: Sequence[int], targets: Sequence[Sequence[int]]) -> tuple[bool, bool, bool, bool]:
    """Covering, disjoint, sound and complete, from the rank bit of each
    expression of a_x and the up masks of each target's nodes.  With `once`
    the rank bits and `twice` those two expressions share, a target node's
    `hit` holds the expressions above it: the targets are sound when no
    hit is empty, disjoint when each is one bit outside `twice`."""
    once = twice = 0
    for bit in bits:
        twice |= once & bit
        once |= bit
    hits = [[up & once for up in ups] for ups in targets]
    reaches = [reduce(or_, hs, 0) for hs in hits]
    reached = reduce(or_, reaches, 0)
    return (
        all(all(bit & reach for reach in reaches) for bit in bits if bit & reached),
        not any(hit & (hit - 1) or hit & twice for hit in chain.from_iterable(hits)),
        all(map(all, hits)),
        all(bit & reached for bit in bits),
    )


def _rank_bits(lat: FiniteLattice, fmap: SemanticMap, exprs: Iterable[str]) -> list[int]:
    return [up & -up for up in _ups(lat, fmap, exprs)]


def _ups(lat: FiniteLattice, fmap: SemanticMap, exprs: Iterable[str]) -> list[int]:
    return [lat._mask(fmap.image(e)) for e in exprs]


def _structure(lat: FiniteLattice, fmap: SemanticMap, a_x: Argument, args: Sequence[Argument]) -> tuple[bool, bool, bool, bool]:
    if not args:
        raise EmptySet("abstraction conditions need at least one target argument")
    return _conditions(_rank_bits(lat, fmap, a_x.expressions), [_ups(lat, fmap, a.expressions) for a in args])


def is_abstraction_covering(lat: FiniteLattice, fmap: SemanticMap, a_x: Argument, args: Sequence[Argument]) -> bool:
    """Every participating abstractor draws from every target argument.

    An expression of a_x that abstracts anything at all in the union must
    abstract at least one expression of each single target.
    """
    return _structure(lat, fmap, a_x, args)[0]


def is_abstraction_disjoint(lat: FiniteLattice, fmap: SemanticMap, a_x: Argument, args: Sequence[Argument]) -> bool:
    """No target expression is claimed by two different abstractors."""
    return _structure(lat, fmap, a_x, args)[1]


def is_abstraction_sound(lat: FiniteLattice, fmap: SemanticMap, a_x: Argument, args: Sequence[Argument]) -> bool:
    """Every target expression is below some abstractor."""
    return _structure(lat, fmap, a_x, args)[2]


def is_abstraction_complete(lat: FiniteLattice, fmap: SemanticMap, a_x: Argument, args: Sequence[Argument]) -> bool:
    """Every abstractor earns its place: it abstracts something in the union."""
    return _structure(lat, fmap, a_x, args)[3]


def is_argument_abstraction(lat: FiniteLattice, fmap: SemanticMap, a_x: Argument, args: Sequence[Argument]) -> bool:
    return all(_structure(lat, fmap, a_x, args))


SYNTHETIC_SUFFIX = "#abs"


def _fresh(name: str, taken) -> str:
    while name in taken:
        name += "'"
    return name


def best_abstraction_of(
    lat: FiniteLattice, fmap: SemanticMap, args: Sequence[Argument]
) -> tuple[AbstractionCandidate, SemanticMap]:
    """Single-expression argument sitting exactly at the join of the targets.

    Reuses the lexicographically smallest declared expression at that node;
    otherwise a synthetic expression, fresh against the map's symbols, is
    minted and bound to the node in the returned map.  The combined id joins
    the target ids with '+'; `maximal_conservative_subsets` makes it fresh
    against the framework by the same rule, `_fresh`.

    The result is an argument abstraction of the targets, since the join lies
    above every target expression's node:

    * covering: the one abstractor abstracts every expression of each target;
    * disjoint: one abstractor cannot claim an expression twice;
    * sound: every target expression lies below the abstractor;
    * complete: the abstractor abstracts some expression, as every target has one.
    """
    if not args:
        raise EmptySet("abstraction conditions need at least one target argument")
    node = alpha(lat, fmap, chain.from_iterable(a.expressions for a in args))
    declared = sorted(fmap.preimages(node))
    if declared:
        symbol, out_map = declared[0], fmap
    else:
        symbol = _fresh(node + SYNTHETIC_SUFFIX, fmap)
        out_map = fmap.with_assignment(symbol, node)
    arg_id = "+".join(sorted(a.arg_id for a in args))
    candidate = AbstractionCandidate(
        frozenset(a.arg_id for a in args), Argument(arg_id, frozenset({symbol}))
    )
    return candidate, out_map


def _check_targets(ids: frozenset[str], targets: Iterable[str]) -> frozenset[str]:
    """The targets as a set, checked to be a non-empty subset of `ids`."""
    wanted = frozenset(targets)
    missing = wanted - ids
    if missing:
        raise TargetsNotInFramework(f"not arguments of the framework: {sorted(missing)}")
    if not wanted:
        raise TargetsNotInFramework("empty target set")
    return wanted


def _clashing(lat: FiniteLattice, fmap: SemanticMap, attacks: Iterable[tuple[Arglet, Arglet]]) -> Iterator[tuple[Arglet, Arglet]]:
    """The attacks that join arglets with comparable images, each decided
    on the up masks of the two nodes: one holds the rank bit of the other.
    Equal images count as comparable, so a self-attacking arglet clashes."""
    mask, image = lat._mask, fmap.image
    for s, d in attacks:
        if _comparable(mask(image(s[1])), mask(image(d[1]))):
            yield s, d


_Groups = list[tuple[AbstractionCandidate, SemanticMap]]


class _ScanTable:
    """The conservativity tests, on masks over the framework's index
    (`af._index`, whose SCC masks validity reads) and over lattice ranks:
    one per derivation, per `abstract --explain`, and per call of the
    public scan, a predicate or the report.
    Built eagerly: per bit of the index the up mask of its argument's node
    (`ups`: the lattice's own mask for one expression, the AND of its
    expressions' masks for several), whose lowest bit is that node's rank
    bit, and M as one rank mask (`skip`).  Every other part is built on
    first use: per bit the mask of the arguments it attacks through
    clashing arglets (`conflicts`), which the scan first reads once a group
    passes the node filter; per bit its node (`nodes`), for the report; per
    bit its expressions (`exprs`), once a group is kept or an abstract
    argument of several expressions is tested, and `taken`, the ids merged
    ids must avoid, which every id handed out joins, once a group is kept.
    A table serves one `blocked` set."""

    def __init__(self, framework: Framework, lat: FiniteLattice, fmap: SemanticMap, blocked: frozenset[str] = frozenset()):
        self.framework, self.lat, self.fmap = framework, lat, fmap
        self.ix = ix = _index(framework)
        self.skip = lat.rank_mask(blocked & lat.nodes)
        mask, image, pos = lat._mask, fmap.image, ix.pos
        ups: list = [None] * len(ix.ids)
        for a, e in framework.arglets:
            i, m = pos[a], mask(image(e))
            ups[i] = m if (w := ups[i]) is None else w & m
        self.ups: list[int] = ups

    @cached_property
    def nodes(self) -> list[str]:
        return [self.lat._ranked[(u & -u).bit_length() - 1] for u in self.ups]

    @cached_property
    def conflicts(self) -> list[int]:
        pos = self.ix.pos
        conflicts = [0] * len(pos)
        for (s, _), (d, _) in _clashing(self.lat, self.fmap, self.framework.attacks):
            conflicts[pos[s]] |= 1 << pos[d]
        return conflicts

    @cached_property
    def exprs(self) -> list[list[str]]:
        pos, exprs = self.ix.pos, [[] for _ in self.ups]
        for a, e in self.framework.arglets:
            exprs[pos[a]].append(e)
        return exprs

    @cached_property
    def taken(self) -> set[str]:
        return set(self.ix.ids)

    def mask(self, ids: Iterable[str]) -> int:
        """The mask of `ids`, each an argument of the framework."""
        pos = self.ix.pos
        return sum(1 << pos[a] for a in ids)

    def compatible(self, g: int) -> bool:
        """No member attacks a member through clashing expressions."""
        return not _union(self.conflicts, g) & g

    def outside(self, g: int) -> int:
        return _union(self.ix.neighbours, g) & ~g

    def comparable(self, v: str, within: int) -> bool:
        """Whether some argument of `within` sits at a node comparable with
        v: its up mask holds v's rank bit, or v's up mask holds its own."""
        up, ups = self.lat._up[v], self.ups
        return any(_comparable(up, ups[i]) for i in _bits(within))

    def attack_preserving(self, v: str, g: int) -> bool:
        """No argument outside the group that attacks it or that it attacks
        sits at a node comparable with v."""
        return not self.comparable(v, self.outside(g))

    def absorbed(self, bits: Sequence[int], within: int) -> int:
        """The members of `within` that an abstract argument absorbs, given
        the rank bits of its expressions' nodes: `_conditions` on each
        member alone, on the up masks of the member's nodes.  With one
        expression, at v, a member is absorbed when all its nodes lie below
        v, that is when their join does: when its `ups` entry holds v's
        rank bit."""
        ups = self.ups
        if len(bits) == 1:
            (bit,) = bits
            return sum(1 << i for i in _bits(within) if ups[i] & bit)
        lat, fmap, exprs = self.lat, self.fmap, self.exprs
        return sum(1 << i for i in _bits(within) if all(_conditions(bits, (_ups(lat, fmap, exprs[i]),))[1:]))

    def growth(self, bits: Sequence[int], g: int) -> int | None:
        """The other members of the group's SCC that the abstract argument
        absorbs, given the rank bits of its expressions' nodes: each grows
        the group.  None across SCCs, and 0 unless it absorbs the whole
        group."""
        home = self.ix.scc_homes()[(g & -g).bit_length() - 1]
        if g & ~home:
            return None
        outsiders = self.absorbed(bits, home & ~g)
        return outsiders if outsiders and self.absorbed(bits, g) == g else 0

    def valid(self, bits: Sequence[int], g: int) -> bool:
        return self.growth(bits, g) == 0

    def arguments(self, g: int) -> list[Argument]:
        """The arguments of the bits of `g`, in id order."""
        ids, exprs = self.ix.ids, self.exprs
        return [Argument(ids[i], frozenset(exprs[i])) for i in _bits(g)]

    def renamed(self, groups: _Groups) -> _Groups:
        """The groups with each merged id made fresh against `taken`."""
        out: _Groups = []
        for candidate, xmap in groups:
            arg = candidate.abstract_arg
            if (arg_id := _fresh(arg.arg_id, self.taken)) != arg.arg_id:
                candidate = replace(candidate, abstract_arg=replace(arg, arg_id=arg_id))
            self.taken.add(arg_id)
            out.append((candidate, xmap))
        return out


def is_valid(framework: Framework, lat: FiniteLattice, fmap: SemanticMap, candidate: AbstractionCandidate) -> bool:
    """Targets live inside one SCC and cannot be grown within it.

    Growth means: some strictly larger subset of the same SCC, targets
    included, is still abstracted by the candidate's argument.  The whole
    SCC itself counts as a growth candidate.  Such a subset exists exactly
    when the argument absorbs every target and some other SCC member.
    """
    return conservativity_report(framework, lat, fmap, (), candidate).valid


def is_non_trivial(lat: FiniteLattice, fmap: SemanticMap, blocked: Iterable[str], candidate: AbstractionCandidate) -> bool:
    """The merged node stays outside the too-general upper set."""
    return alpha(lat, fmap, candidate.abstract_arg.expressions) not in set(blocked)


def is_compatible(framework: Framework, lat: FiniteLattice, fmap: SemanticMap, targets: Iterable[str]) -> bool:
    """No attack inside the target group between comparable expressions.

    Equal images count as comparable, so a self-attacking arglet already
    disqualifies its group.
    """
    table = _ScanTable(framework, lat, fmap)
    return table.compatible(table.mask(_check_targets(framework.argument_ids(), targets)))


def is_attack_preserving(framework: Framework, lat: FiniteLattice, fmap: SemanticMap, candidate: AbstractionCandidate) -> bool:
    """Every external attacker or attackee is incomparable with the merge."""
    return conservativity_report(framework, lat, fmap, (), candidate).attack_preserving


def is_conservative(
    framework: Framework, lat: FiniteLattice, fmap: SemanticMap, blocked: Iterable[str], candidate: AbstractionCandidate
) -> bool:
    return conservativity_report(framework, lat, fmap, blocked, candidate).conservative


@dataclass(frozen=True)
class ConservativityReport:
    """Per-condition verdicts with the witnesses that decided them."""

    candidate: AbstractionCandidate
    merged_node: str
    valid: bool
    growth_witnesses: tuple[tuple[str, ...], ...]
    non_trivial: bool
    blocked_nodes: tuple[str, ...]
    compatible: bool
    internal_conflicts: tuple[tuple[str, str, str, str], ...]
    attack_preserving: bool
    external_checks: tuple[tuple[str, str, bool], ...]

    @property
    def conservative(self) -> bool:
        return self.valid and self.non_trivial and self.compatible and self.attack_preserving


def conservativity_report(
    framework: Framework, lat: FiniteLattice, fmap: SemanticMap, blocked: Iterable[str], candidate: AbstractionCandidate
) -> ConservativityReport:
    """Evaluate all four conditions, keeping the evidence for each verdict
    in id order: each growth witness adds one absorbed SCC member to the
    targets, each internal conflict is an attack between clashing arglets
    of the targets, and each external check is a neighbour outside them,
    its node and whether that is comparable with the merged node."""
    return _report(_ScanTable(framework, lat, fmap), blocked, candidate)


def _report(table: _ScanTable, blocked: Iterable[str], candidate: AbstractionCandidate) -> ConservativityReport:
    """`conservativity_report` on a table `abstract --explain` shares."""
    framework, lat, fmap = table.framework, table.lat, table.fmap
    g = table.mask(_check_targets(framework.argument_ids(), candidate.targets))
    ids, pos = table.ix.ids, table.ix.pos
    exprs = candidate.abstract_arg.expressions
    merged = alpha(lat, fmap, exprs)
    blocked_sorted = tuple(sorted(set(blocked)))
    growth = table.growth(_rank_bits(lat, fmap, exprs), g)
    compatible = table.compatible(g)
    targets = [ids[i] for i in _bits(g)]
    return ConservativityReport(
        candidate=candidate,
        merged_node=merged,
        valid=growth == 0,
        growth_witnesses=tuple(tuple(sorted([*targets, ids[i]])) for i in _bits(growth or 0)),
        non_trivial=is_non_trivial(lat, fmap, blocked_sorted, candidate),
        blocked_nodes=blocked_sorted,
        compatible=compatible,
        internal_conflicts=() if compatible else tuple(sorted(
            (s, e1, d, e2) for (s, e1), (d, e2) in _clashing(lat, fmap, framework.attacks) if g >> pos[s] & g >> pos[d] & 1
        )),
        attack_preserving=table.attack_preserving(merged, g),
        external_checks=tuple(
            (ids[i], table.nodes[i], table.comparable(merged, 1 << i)) for i in _bits(table.outside(g))
        ),
    )
