"""Derivation of abstract-space frameworks and the sharpening of verdicts.

One pass over the strongly connected components of the concrete framework:
each component contributes its maximal conservatively-mergeable target
groups, every accumulated framework is forked once per group, and groups
are replaced by their best abstraction with boundary attacks redirected.
The preferred extensions of every derived framework are then projected
back onto concrete argument ids, and each concrete argument's verdict is
re-read against those projections: per argument, one count of the
extensions holding it in each projection gives every label, through one
table (`_LABELS`).

The group scan reads the framework's graph index (`af._index`, built once
per framework and kept on it, with its SCC masks) and one `_ScanTable`,
built per scan and dropped with it: each argument's lattice node, then,
once some group passes the node filter, the lattice-side bit masks for the
compatibility, attack-preservation and validity tests.  Per component,
`FiniteLattice.groups_below` gathers the members below every node in one
pass over their up masks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import compress
from typing import Iterable, Sequence

from .abstraction import AbstractionCandidate, _check_targets, _fresh, best_abstraction_of
from .af import Argument, Framework, _index, _union, strongly_connected_components
from .errors import EmptySet, IdCollision, UnknownArgument
from .galois import SemanticMap
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
    covers their expressions, synthetic ones included.  Each provenance
    lists its SCCs' replacements in scan order, attackers first."""

    frameworks: tuple[Framework, ...]
    provenance: tuple[tuple[ReplacementStep, ...], ...]
    fmap: SemanticMap


_Groups = list[tuple[AbstractionCandidate, SemanticMap]]


def _renamed(groups: _Groups, taken: set[str]) -> _Groups:
    """The groups with each merged id made fresh against `taken`, which
    every id handed out joins."""
    out: _Groups = []
    for candidate, xmap in groups:
        arg = candidate.abstract_arg
        if (arg_id := _fresh(arg.arg_id, taken)) != arg.arg_id:
            candidate = replace(candidate, abstract_arg=replace(arg, arg_id=arg_id))
        taken.add(arg_id)
        out.append((candidate, xmap))
    return out


class _ScanTable:
    """What one group scan reads of the framework besides its graph index:
    per argument its node, the join of its expressions' nodes, whose up
    mask is the AND of theirs.  The first group to pass the node filter
    builds the rest: per argument the rank bit of its node and the mask of
    the arguments it attacks through comparable expression images.  Bits
    and neighbours come from the framework's index (`af._index`), and
    validity reads the SCC masks kept there."""

    def __init__(self, framework: Framework, lat: FiniteLattice, fmap: SemanticMap):
        self.framework, self.lat, self.fmap = framework, lat, fmap
        self.node: dict[str, str] = {}
        for a, e in framework.arglets:
            self.node[a] = lat.join((self.node.get(a, lat.bottom), fmap.image(e)))
        self.rank: list[int] | None = None
        self.conflicts: list[int] = []

    def mask(self, ids: Iterable[str]) -> int:
        ix = _index(self.framework)
        if self.rank is None:
            up, image = self.lat._up, self.fmap.image
            self.rank = [up[self.node[a]] & -up[self.node[a]] for a in ix.ids]
            self.conflicts = [0] * len(ix.ids)
            for (s, e1), (d, e2) in self.framework.attacks:
                if self.lat.comparable(image(e1), image(e2)):
                    self.conflicts[ix.pos[s]] |= 1 << ix.pos[d]
        return sum(1 << ix.pos[a] for a in ids)

    def compatible(self, g: int) -> bool:
        """No member attacks a member through comparable images."""
        return not _union(self.conflicts, g) & g

    def attack_preserving(self, v: str, g: int) -> bool:
        """No argument outside the group that attacks it or that it attacks
        sits at a node comparable with v."""
        outside = _union(_index(self.framework).neighbours, g) & ~g
        return not (self.lat._up[v] | self.lat._down[v]) & _union(self.rank, outside)

    def valid(self, v: str, g: int) -> bool:
        """The group lies inside one SCC, and no other member of that SCC
        sits at or below v: a best abstraction at v absorbs exactly those,
        so none can grow the group."""
        home = _index(self.framework).scc_homes()[(g & -g).bit_length() - 1]
        return not g & ~home and not self.lat._down[v] & _union(self.rank, home & ~g)


def _arguments(framework: Framework, ids: list[str]) -> list[Argument]:
    """The arguments of `ids`, in that order, from one pass over the
    arglets.  Every id carries an arglet: the scan table gave it a node."""
    exprs: dict[str, set[str]] = {a: set() for a in ids}
    for a, e in framework.arglets:
        if a in exprs:
            exprs[a].add(e)
    return [Argument(a, frozenset(es)) for a, es in exprs.items()]


def maximal_conservative_subsets(
    framework: Framework,
    lat: FiniteLattice,
    fmap: SemanticMap,
    blocked: Iterable[str],
    scc: frozenset[str],
    *,
    table: _ScanTable | None = None,
) -> _Groups:
    """Largest target groups (two or more ids) inside one SCC whose best
    abstraction is conservative, none contained in another, largest first.
    Each group comes as the candidate and map `best_abstraction_of` built
    for it; `candidate.targets` is the group.  Merged ids are fresh against
    the framework, so each candidate can go to `abstract_replace` as it is.

    A best abstraction at node v absorbs exactly the members below v, so
    the one group that can be valid at v is G_v = {a in scc : alpha(a) <= v},
    and only when v is its join.  `FiniteLattice.groups_below` gathers every
    G_v in one pass over the members' up masks.  Groups are kept per node
    outside M, so each is non-trivial by construction.  Validity,
    compatibility and attack preservation are bit-mask tests on a
    `_ScanTable`, which `derive_abstract_frameworks` builds once for all its
    SCCs and which is built here when not passed.  When `scc` is one SCC,
    each G_v is valid by construction; for any other id set, validity keeps
    out every group that spans several SCCs or can be grown.  Maximality is
    a mask test too, so best abstractions are built for kept groups only."""
    blocked = frozenset(blocked)
    if table is None:
        table = _ScanTable(framework, lat, fmap)
    if missing := scc - table.node.keys():
        raise UnknownArgument(f"no arglet carries id {min(missing)!r}")
    if len(scc) < 2:
        return []
    found: list[tuple[int, list[str]]] = []
    for v, group, is_join in lat.groups_below([(a, table.node[a]) for a in sorted(scc)]):
        if not is_join or len(group) < 2 or v in blocked:
            continue
        g = table.mask(group)
        if table.compatible(g) and table.attack_preserving(v, g) and table.valid(v, g):
            found.append((g, group))
    maximal = [group for g, group in found if not any(g & h == g != h for h, _ in found)]
    maximal.sort(key=lambda group: (-len(group), sorted(group)))
    return _renamed([best_abstraction_of(lat, fmap, _arguments(framework, group)) for group in maximal], set(table.node))


def abstract_replace(framework: Framework, targets: Iterable[str], abstract_arg: Argument) -> Framework:
    """Swap a target group for one argument, rerouting boundary attacks.

    Internal attacks disappear; every attack crossing the group boundary is
    redirected to or from the replacement's arglets; duplicates collapse.
    """
    wanted = _check_targets(framework, targets)
    if not abstract_arg.expressions:
        raise EmptySet(f"replacement {abstract_arg.arg_id!r} carries no expression")
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

    SCCs are scanned attackers first, against one `_ScanTable`, and each
    kept group's id is renamed against one set shared by the scan, so merged
    ids stay distinct.  Components with no qualifying group leave the
    accumulated frameworks untouched; components with several qualifying
    groups fork them.  Once a replacement applies anywhere, the unreplaced
    original is not kept.
    """
    blocked = frozenset(blocked)
    table = _ScanTable(framework, lat, fmap)
    taken = set(table.node)
    assignments = dict(fmap.items())
    acc: list[tuple[Framework, tuple[ReplacementStep, ...]]] = [(framework, ())]
    for scc in strongly_connected_components(framework):
        groups = maximal_conservative_subsets(framework, lat, fmap, blocked, scc, table=table)
        replacements: list[ReplacementStep] = []
        for candidate, xmap in _renamed(groups, taken):
            assignments.update(xmap.items())
            replacements.append(ReplacementStep(scc, candidate.targets, candidate.abstract_arg))
        if replacements:
            acc = [
                (abstract_replace(built, step.targets, step.abstract_arg), steps + (step,))
                for built, steps in acc
                for step in replacements
            ]
    # every minted id is distinct, so no two choices build the same framework
    frameworks, provenance = zip(*acc)
    return AbstractionResult(frameworks, provenance, SemanticMap(assignments))


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
    unique = dict.fromkeys(tuple(restrict_extensions(extensions, ids)) for extensions in per_framework)
    return [list(projected) for projected in unique]


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


# a concretely accepted or rejected argument's labels when it is in some,
# in every and in no projected extension
_LABELS = {
    True: (PLUS_APPROVED_CREDULOUS, PLUS_APPROVED_SKEPTICAL, QUESTIONED),
    False: (IMPLIED_CREDULOUS, IMPLIED_SKEPTICAL, MINUS_APPROVED),
}


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
        accepted = sum(arg in e for e in concrete)
        status = SKEPTICAL if accepted == len(concrete) else CREDULOUS if accepted else REJECTED
        counts = [sum(arg in ext for ext in p) for p in projected]
        total = sum(counts)
        # an empty projection holds no extension, so nothing is in all of it
        in_every = all(0 < n == len(p) for n, p in zip(counts, projected))
        verdicts.append(
            ArgumentVerdict(
                arg_id=arg,
                concrete_status=status,
                sharpened=frozenset(compress(_LABELS[status != REJECTED], (total, in_every, not total))),
                sets_containing=sum(map(bool, counts)),
                extensions_containing=total,
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
