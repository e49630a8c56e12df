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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .af import Argument, Framework, _index
from .errors import EmptySet, TargetsNotInFramework
from .galois import SemanticMap, alpha
from .lattice import FiniteLattice


@dataclass(frozen=True)
class AbstractionCandidate:
    """A target group of argument ids plus the argument meant to replace it."""

    targets: frozenset[str]
    abstract_arg: Argument


def _union_exprs(args: Sequence[Argument]) -> frozenset[str]:
    if not args:
        raise EmptySet("abstraction conditions need at least one target argument")
    out: set[str] = set()
    for a in args:
        out |= a.expressions
    return frozenset(out)


def _abstracts(lat: FiniteLattice, fmap: SemanticMap, abstractor: str, expr: str) -> bool:
    return lat.leq(fmap.image(expr), fmap.image(abstractor))


def is_abstraction_covering(lat: FiniteLattice, fmap: SemanticMap, a_x: Argument, args: Sequence[Argument]) -> bool:
    """Every participating abstractor draws from every target argument.

    An expression of a_x that abstracts anything at all in the union must
    abstract at least one expression of each single target.
    """
    union = _union_exprs(args)
    for ex in a_x.expressions:
        if not any(_abstracts(lat, fmap, ex, e) for e in union):
            continue
        if not all(any(_abstracts(lat, fmap, ex, e) for e in a.expressions) for a in args):
            return False
    return True


def is_abstraction_disjoint(lat: FiniteLattice, fmap: SemanticMap, a_x: Argument, args: Sequence[Argument]) -> bool:
    """No target expression is claimed by two different abstractors."""
    union = _union_exprs(args)
    for e in union:
        owners = sum(1 for ex in a_x.expressions if _abstracts(lat, fmap, ex, e))
        if owners > 1:
            return False
    return True


def is_abstraction_sound(lat: FiniteLattice, fmap: SemanticMap, a_x: Argument, args: Sequence[Argument]) -> bool:
    """Every target expression is below some abstractor."""
    union = _union_exprs(args)
    return all(
        any(_abstracts(lat, fmap, ex, e) for ex in a_x.expressions) for e in union
    )


def is_abstraction_complete(lat: FiniteLattice, fmap: SemanticMap, a_x: Argument, args: Sequence[Argument]) -> bool:
    """Every abstractor earns its place: it abstracts something in the union."""
    union = _union_exprs(args)
    return all(
        any(_abstracts(lat, fmap, ex, e) for e in union) for ex in a_x.expressions
    )


def is_argument_abstraction(lat: FiniteLattice, fmap: SemanticMap, a_x: Argument, args: Sequence[Argument]) -> bool:
    return (
        is_abstraction_covering(lat, fmap, a_x, args)
        and is_abstraction_disjoint(lat, fmap, a_x, args)
        and is_abstraction_sound(lat, fmap, a_x, args)
        and is_abstraction_complete(lat, fmap, a_x, args)
    )


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
    union = _union_exprs(args)
    node = alpha(lat, fmap, union)
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


def _absorbs(framework: Framework, lat: FiniteLattice, fmap: SemanticMap, a_x: Argument, arg_id: str) -> bool:
    """Whether a_x absorbs the argument (see the module docstring): for one
    target, covering holds trivially and the other three conditions say
    exactly that."""
    return is_argument_abstraction(lat, fmap, a_x, [Argument(arg_id, framework.argument_expressions(arg_id))])


def _absorbed_outsiders(
    framework: Framework, lat: FiniteLattice, fmap: SemanticMap, candidate: AbstractionCandidate
) -> tuple[str, ...] | None:
    """In id order, the other members of the targets' SCC that the candidate
    absorbs, none unless it absorbs every target, and None across SCCs."""
    targets = _check_targets(framework.argument_ids(), candidate.targets)
    ix = _index(framework)
    home = ix.members(ix.scc_homes()[ix.pos[min(targets)]])
    if not targets <= home:
        return None
    a_x = candidate.abstract_arg
    if not all(_absorbs(framework, lat, fmap, a_x, t) for t in targets):
        return ()
    return tuple(o for o in sorted(home - targets) if _absorbs(framework, lat, fmap, a_x, o))


def is_valid(framework: Framework, lat: FiniteLattice, fmap: SemanticMap, candidate: AbstractionCandidate) -> bool:
    """Targets live inside one SCC and cannot be grown within it.

    Growth means: some strictly larger subset of the same SCC, targets
    included, is still abstracted by the candidate's argument.  The whole
    SCC itself counts as a growth candidate.  Such a subset exists exactly
    when the argument absorbs every target and some other SCC member.
    """
    return _absorbed_outsiders(framework, lat, fmap, candidate) == ()


def is_non_trivial(lat: FiniteLattice, fmap: SemanticMap, blocked: Iterable[str], candidate: AbstractionCandidate) -> bool:
    """The merged node stays outside the too-general upper set."""
    return alpha(lat, fmap, candidate.abstract_arg.expressions) not in set(blocked)


def _internal_conflicts(framework: Framework, lat: FiniteLattice, fmap: SemanticMap, targets: frozenset[str]) -> tuple[tuple[str, str, str, str], ...]:
    """Attacks inside the targets between comparable expressions, in order."""
    return tuple(
        (src, e1, dst, e2)
        for (src, e1), (dst, e2) in sorted(framework.attacks)
        if src in targets and dst in targets and lat.comparable(fmap.image(e1), fmap.image(e2))
    )


def is_compatible(framework: Framework, lat: FiniteLattice, fmap: SemanticMap, targets: Iterable[str]) -> bool:
    """No attack inside the target group between comparable expressions.

    Equal images count as comparable, so a self-attacking arglet already
    disqualifies its group.
    """
    return not _internal_conflicts(framework, lat, fmap, _check_targets(framework.argument_ids(), targets))


def _external_checks(framework: Framework, lat: FiniteLattice, fmap: SemanticMap, targets: frozenset[str], merged: str) -> tuple[tuple[str, str, bool], ...]:
    """External attackers and attackees in id order, each with its node and
    whether that node is comparable with the merged node."""
    neighbors = {dst for (src, _), (dst, _) in framework.attacks if src in targets and dst not in targets}
    neighbors |= {src for (src, _), (dst, _) in framework.attacks if dst in targets and src not in targets}
    return tuple(
        (ext, ext_node, lat.comparable(merged, ext_node))
        for ext in sorted(neighbors)
        for ext_node in [alpha(lat, fmap, framework.argument_expressions(ext))]
    )


def is_attack_preserving(framework: Framework, lat: FiniteLattice, fmap: SemanticMap, candidate: AbstractionCandidate) -> bool:
    """Every external attacker or attackee is incomparable with the merge."""
    targets = _check_targets(framework.argument_ids(), candidate.targets)
    merged = alpha(lat, fmap, candidate.abstract_arg.expressions)
    return not any(c for _, _, c in _external_checks(framework, lat, fmap, targets, merged))


def is_conservative(
    framework: Framework,
    lat: FiniteLattice,
    fmap: SemanticMap,
    blocked: Iterable[str],
    candidate: AbstractionCandidate,
) -> bool:
    return (
        is_valid(framework, lat, fmap, candidate)
        and is_non_trivial(lat, fmap, blocked, candidate)
        and is_compatible(framework, lat, fmap, candidate.targets)
        and is_attack_preserving(framework, lat, fmap, candidate)
    )


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
    framework: Framework,
    lat: FiniteLattice,
    fmap: SemanticMap,
    blocked: Iterable[str],
    candidate: AbstractionCandidate,
) -> ConservativityReport:
    """Evaluate all four conditions, keeping the evidence for each verdict.
    Each growth witness adds one absorbed SCC member to the targets."""
    targets = _check_targets(framework.argument_ids(), candidate.targets)
    merged = alpha(lat, fmap, candidate.abstract_arg.expressions)
    blocked_sorted = tuple(sorted(set(blocked)))

    outsiders = _absorbed_outsiders(framework, lat, fmap, candidate)
    growth = tuple(tuple(sorted(targets | {o})) for o in outsiders or ())
    conflicts = _internal_conflicts(framework, lat, fmap, targets)
    externals = _external_checks(framework, lat, fmap, targets, merged)

    return ConservativityReport(
        candidate=candidate,
        merged_node=merged,
        valid=outsiders == (),
        growth_witnesses=growth,
        non_trivial=is_non_trivial(lat, fmap, blocked_sorted, candidate),
        blocked_nodes=blocked_sorted,
        compatible=not conflicts,
        internal_conflicts=conflicts,
        attack_preserving=not any(c for _, _, c in externals),
        external_checks=externals,
    )
