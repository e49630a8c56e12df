"""Derivation of abstract-space frameworks and the sharpening of verdicts.

One pass over the strongly connected components of the concrete framework:
each component contributes its maximal conservatively-mergeable target
groups, every accumulated framework is forked once per group, and groups
are replaced by their best abstraction with boundary attacks redirected.
The preferred extensions of every derived framework are then projected
back onto concrete argument ids, and each concrete argument's verdict is
re-read against those projections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .abstraction import AbstractionCandidate, best_abstraction_of, is_conservative
from .af import Argument, Framework, strongly_connected_components
from .errors import IdCollision, TargetsNotInFramework
from .galois import SemanticMap, alpha
from .lattice import FiniteLattice
from .semantics import CREDULOUS, SKEPTICAL, _sorted_extensions, preferred


@dataclass(frozen=True)
class ReplacementStep:
    scc: frozenset[str]
    targets: frozenset[str]
    abstract_arg: Argument


@dataclass(frozen=True)
class AbstractionResult:
    """Derived frameworks, the replacements that built each, and a map that
    covers their expressions, synthetic ones included."""

    frameworks: tuple[Framework, ...]
    provenance: tuple[tuple[ReplacementStep, ...], ...]
    fmap: SemanticMap


def maximal_conservative_subsets(
    framework: Framework,
    lat: FiniteLattice,
    fmap: SemanticMap,
    blocked: Iterable[str],
    scc: frozenset[str],
) -> list[tuple[AbstractionCandidate, SemanticMap]]:
    """Largest target groups (two or more ids) inside one SCC whose best
    abstraction is conservative, none contained in another, largest first.
    Each group comes as the candidate and map `best_abstraction_of` built
    for it; `candidate.targets` is the group.

    A best abstraction at node v absorbs exactly the members below v, so
    the one group that can be valid at v is G_v = {a in scc : alpha(a) <= v},
    and only when v is its join.  Groups are found per node outside M."""
    blocked = frozenset(blocked)
    if len(scc) < 2:
        return []
    node_of = {a: alpha(lat, fmap, framework.argument_expressions(a)) for a in sorted(scc)}
    found: list[tuple[AbstractionCandidate, SemanticMap]] = []
    for v in sorted(lat.nodes - blocked):
        group = frozenset(a for a, node in node_of.items() if lat.leq(node, v))
        if len(group) < 2 or lat.join(node_of[a] for a in group) != v:
            continue
        args = [Argument(i, framework.argument_expressions(i)) for i in sorted(group)]
        candidate, xmap = best_abstraction_of(lat, fmap, args)
        if is_conservative(framework, lat, xmap, blocked, candidate):
            found.append((candidate, xmap))
    maximal = [(c, m) for c, m in found if not any(c.targets < bigger.targets for bigger, _ in found)]
    return sorted(maximal, key=lambda pair: (-len(pair[0].targets), tuple(sorted(pair[0].targets))))


def abstract_replace(framework: Framework, targets: Iterable[str], abstract_arg: Argument) -> Framework:
    """Swap a target group for one argument, rerouting boundary attacks.

    Internal attacks disappear; every attack crossing the group boundary is
    redirected to or from the replacement's arglets; duplicates collapse.
    """
    wanted = frozenset(targets)
    missing = wanted - framework.argument_ids()
    if missing:
        raise TargetsNotInFramework(f"not arguments of the framework: {sorted(missing)}")
    if abstract_arg.arg_id in framework.argument_ids():
        raise IdCollision(f"replacement id {abstract_arg.arg_id!r} already names an argument")

    new_arglets = frozenset((abstract_arg.arg_id, e) for e in abstract_arg.expressions)
    arglets = frozenset(al for al in framework.arglets if al[0] not in wanted) | new_arglets

    attacks: set[tuple[tuple[str, str], tuple[str, str]]] = set()
    for src, dst in framework.attacks:
        s_in, d_in = src[0] in wanted, dst[0] in wanted
        if s_in and d_in:
            continue
        if s_in:
            attacks.update((nal, dst) for nal in new_arglets)
        elif d_in:
            attacks.update((src, nal) for nal in new_arglets)
        else:
            attacks.add((src, dst))
    return Framework(arglets, frozenset(attacks))


def derive_abstract_frameworks(
    framework: Framework,
    lat: FiniteLattice,
    fmap: SemanticMap,
    blocked: Iterable[str],
) -> AbstractionResult:
    """All abstract-space frameworks reachable by one replacement per SCC.

    Components with no qualifying group leave the accumulated frameworks
    untouched; components with several qualifying groups fork them.  Once a
    replacement applies anywhere, the unreplaced original is not kept.
    """
    blocked = frozenset(blocked)
    assignments = dict(fmap.items())
    acc: list[tuple[Framework, tuple[ReplacementStep, ...]]] = [(framework, ())]
    for scc in strongly_connected_components(framework):
        replacements: list[ReplacementStep] = []
        for candidate, xmap in maximal_conservative_subsets(framework, lat, fmap, blocked, scc):
            assignments.update(xmap.items())
            replacements.append(ReplacementStep(scc, candidate.targets, candidate.abstract_arg))
        if replacements:
            acc = [
                (abstract_replace(built, step.targets, step.abstract_arg), steps + (step,))
                for built, steps in acc
                for step in replacements
            ]

    first_steps: dict[Framework, tuple[ReplacementStep, ...]] = {}
    for built, steps in acc:
        first_steps.setdefault(built, steps)
    return AbstractionResult(tuple(first_steps), tuple(first_steps.values()), SemanticMap(assignments))


def restrict_extensions(extensions: Iterable[frozenset[str]], ids: Iterable[str]) -> list[frozenset[str]]:
    """Intersect every extension with the id set; drop empties, deduplicate."""
    keep = frozenset(ids)
    restricted = {e & keep for e in extensions} - {frozenset()}
    return _sorted_extensions(restricted)


def concretize_extension_sets(
    original: Framework, per_framework: Sequence[Sequence[frozenset[str]]]
) -> list[list[frozenset[str]]]:
    """Project each framework's extensions onto the concrete argument ids.

    Projections that come out identical are reported once.
    """
    ids = original.argument_ids()
    seen: set[tuple[frozenset[str], ...]] = set()
    out: list[list[frozenset[str]]] = []
    for extensions in per_framework:
        projected = restrict_extensions(extensions, ids)
        key = tuple(projected)
        if key in seen:
            continue
        seen.add(key)
        out.append(projected)
    return out


# concrete statuses besides SKEPTICAL and CREDULOUS
REJECTED = "rejected"

# sharpened statuses for concretely accepted arguments
PLUS_APPROVED_CREDULOUS = "plus_approved_credulous"
PLUS_APPROVED_SKEPTICAL = "plus_approved_skeptical"
QUESTIONED = "questioned"

# sharpened statuses for concretely rejected arguments
MINUS_APPROVED = "minus_approved"
IMPLIED_CREDULOUS = "implied_credulous"
IMPLIED_SKEPTICAL = "implied_skeptical"


@dataclass(frozen=True)
class ArgumentVerdict:
    arg_id: str
    concrete_status: str
    sharpened: frozenset[str]
    sets_containing: int
    extensions_containing: int


@dataclass(frozen=True)
class SharpeningReport:
    framework: Framework
    concrete: tuple[frozenset[str], ...]
    derivation: AbstractionResult
    abstract_preferred: tuple[tuple[frozenset[str], ...], ...]
    projected: tuple[tuple[frozenset[str], ...], ...]
    verdicts: tuple[ArgumentVerdict, ...]


def _classify(arg: str, accepted: bool, projections: Sequence[Sequence[frozenset[str]]]) -> frozenset[str]:
    in_some = any(arg in ext for p in projections for ext in p)
    in_every = all(p and all(arg in ext for ext in p) for p in projections)
    in_none = not in_some
    out: set[str] = set()
    if accepted:
        if in_some:
            out.add(PLUS_APPROVED_CREDULOUS)
        if in_every:
            out.add(PLUS_APPROVED_SKEPTICAL)
        if in_none:
            out.add(QUESTIONED)
    else:
        if in_none:
            out.add(MINUS_APPROVED)
        if in_some:
            out.add(IMPLIED_CREDULOUS)
        if in_every:
            out.add(IMPLIED_SKEPTICAL)
    return frozenset(out)


def sharpen(
    framework: Framework,
    lat: FiniteLattice,
    fmap: SemanticMap,
    blocked: Iterable[str],
) -> SharpeningReport:
    """Concrete verdicts re-read through the abstract-space projections.

    A derived framework equal to the input (no group merged) takes the
    concrete extensions instead of a second `preferred` run."""
    concrete = preferred(framework)
    derivation = derive_abstract_frameworks(framework, lat, fmap, blocked)
    abstract_preferred = [concrete if f == framework else preferred(f) for f in derivation.frameworks]
    projected = concretize_extension_sets(framework, abstract_preferred)

    verdicts = []
    for arg in sorted(framework.argument_ids()):
        in_all_concrete = all(arg in e for e in concrete)
        in_some_concrete = any(arg in e for e in concrete)
        if in_all_concrete:
            status = SKEPTICAL
        elif in_some_concrete:
            status = CREDULOUS
        else:
            status = REJECTED
        verdicts.append(
            ArgumentVerdict(
                arg_id=arg,
                concrete_status=status,
                sharpened=_classify(arg, status != REJECTED, projected),
                sets_containing=sum(1 for p in projected if any(arg in ext for ext in p)),
                extensions_containing=sum(1 for p in projected for ext in p if arg in ext),
            )
        )

    return SharpeningReport(
        framework=framework,
        concrete=tuple(concrete),
        derivation=derivation,
        abstract_preferred=tuple(tuple(p) for p in abstract_preferred),
        projected=tuple(tuple(p) for p in projected),
        verdicts=tuple(verdicts),
    )
