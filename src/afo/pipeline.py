"""Derivation of abstract-space frameworks and the sharpening of verdicts.

One pass over the strongly connected components of the concrete framework:
each component contributes its maximal conservatively-mergeable target
groups, each as the replacement of the group by its best abstraction.  The
derived frameworks are the product of those per-component lists, one per
choice of a replacement in every component that has one, and each is built
once, in one pass over the concrete arglets and attacks, with boundary
attacks redirected (`_fork`).  The preferred extensions of every derived
framework are then projected back onto concrete argument ids, and each
concrete argument's verdict is re-read against those projections, on bit
masks (`sharpen`), and one fixed table of the six label sets
(`_SHARPENED`).  `restrict_extensions` and `concretize_extension_sets`
make the same projections on named extensions.

The group scan runs on the framework's graph index (`af._index`, built
once per framework and kept on it, with its SCC masks) from start to end:
`derive_abstract_frameworks` walks the index's SCC masks and hands each
one of two or more arguments to one private scan (`_scan`), which works
on bit indices and masks and returns each kept group as a mask.  Ids
become strings only for what is kept: an SCC and its groups are named,
and their best abstractions built, only when the SCC keeps a group.  The
public `maximal_conservative_subsets` maps its ids onto a mask and runs the
same scan.  The scan reads one `abstraction._ScanTable`, whose tests the
public predicates call too, built per derivation and dropped with it;
its parts are built as the scan first needs them: per bit the up mask
of its argument's node and M's rank mask, then, once some group passes
the node filter, per bit the arguments it attacks through clashing
arglets, for the compatibility test (the other tests read the up masks),
then, once some group is kept, per bit the argument's expressions and the
ids merged ids must avoid.
Per component, the scan gathers from those up masks the members below
each node outside M that two or more of them reach, walking only those
nodes, so a component whose members reach no such node costs one pass
over their up masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain, product
from operator import and_, or_
from typing import Iterable, Sequence

from .abstraction import _check_targets, _Groups, _ScanTable, best_abstraction_of
from .af import Arglet, Argument, Framework, _bits, _contract, _Index, _index
from .errors import EmptySet, IdCollision, UnknownArgument
from .galois import SemanticMap
from .lattice import FiniteLattice, _lowest
from .semantics import CREDULOUS, SKEPTICAL, _extensions, _key, _preferred_masks, _sorted_extensions


@dataclass(frozen=True)
class ReplacementStep:
    scc: frozenset[str]
    targets: frozenset[str]
    abstract_arg: Argument


@dataclass(frozen=True)
class AbstractionResult:
    """Derived frameworks, the replacements that built each, and a map that
    covers their expressions, synthetic ones included.

    `replacements` holds one tuple per SCC that kept a group, in scan order
    (attackers first), of that SCC's replacements, largest group first.
    `provenance` is their product, one replacement per such SCC, the last
    SCC varying fastest, and `frameworks[i]` is the input with the
    replacements of `provenance[i]` made.  With no kept group the one
    framework is the input itself, with an empty provenance."""

    frameworks: tuple[Framework, ...]
    provenance: tuple[tuple[ReplacementStep, ...], ...]
    fmap: SemanticMap
    replacements: tuple[tuple[ReplacementStep, ...], ...]


def maximal_conservative_subsets(
    framework: Framework,
    lat: FiniteLattice,
    fmap: SemanticMap,
    blocked: Iterable[str],
    scc: frozenset[str],
) -> _Groups:
    """Largest target groups (two or more ids) inside one SCC whose best
    abstraction is conservative, none contained in another, largest first.
    Each group comes as the candidate and map `best_abstraction_of` built
    for it; `candidate.targets` is the group.  Merged ids are fresh against
    the framework and against each other, so each candidate can go to
    `abstract_replace` as it is.

    The ids are mapped onto the bits of the framework's index, and the scan
    runs on that mask (`_scan`), as `derive_abstract_frameworks` runs it on
    each SCC mask, with tests made on a `_ScanTable` built here for
    `blocked`.  When `scc` is one SCC, each group is valid by construction;
    for any other id set, validity keeps out every group that spans several
    SCCs or can be grown."""
    table = _ScanTable(framework, lat, fmap, frozenset(blocked))
    pos = table.ix.pos
    if missing := [a for a in scc if a not in pos]:
        raise UnknownArgument(f"no arglet carries id {min(missing)!r}")
    return _named(table, _scan(table, table.mask(scc)))


def _scan(table: _ScanTable, within: int) -> list[int]:
    """The maximal conservative groups of the arguments of `within`, as
    masks over the table's index, largest first and then by their ids.

    A best abstraction at node v absorbs exactly the members below v, so
    the one group that can be valid at v is G_v = {a in within : alpha(a)
    <= v}, and only when v is its join, the lowest rank in the AND of its
    members' up masks.  A first pass over those masks (`table.ups`) finds
    the ranks outside M that two or more members reach, and a second
    gathers G_v and that AND for those ranks only, so each group is
    non-trivial and a mask that reaches no such rank costs one pass.
    Validity, compatibility and attack preservation are bit-mask tests on
    the table.  Maximality is a mask test too."""
    ups = table.ups
    once = twice = 0
    for i in _bits(within):
        up = ups[i]
        twice |= once & up
        once |= up
    twice &= ~table.skip
    if not twice:
        return []
    # keyed by rank, not by rank bit: a key as wide as the lattice
    # would cost a hash as long as the lattice
    below: dict[int, int] = {}  # rank -> mask over the members
    common: dict[int, int] = {}  # rank -> AND of the members' up masks
    for i in _bits(within):
        up = ups[i]
        for r in _bits(up & twice):
            below[r] = below.get(r, 0) | 1 << i
            common[r] = common.get(r, up) & up
    lat = table.lat
    found: list[int] = []
    for r, g in below.items():
        if _lowest(common[r]) != r:
            continue
        v = lat._ranked[r]
        if table.compatible(g) and table.attack_preserving(v, g) and table.valid([1 << r], g):
            found.append(g)
    maximal = [g for g in found if not any(g & h == g != h for h in found)]
    # bits follow id order, so the bit lists order groups as their sorted ids
    maximal.sort(key=lambda g: (-g.bit_count(), list(_bits(g))))
    return maximal


def _named(table: _ScanTable, groups: list[int]) -> _Groups:
    """The best abstraction of each group mask, with its merged id made
    fresh against the table's `taken`, in the order given."""
    return table.renamed([best_abstraction_of(table.lat, table.fmap, table.arguments(g)) for g in groups])


def abstract_replace(framework: Framework, targets: Iterable[str], abstract_arg: Argument) -> Framework:
    """Swap a target group for one argument, rerouting boundary attacks.

    Internal attacks disappear; every attack crossing the group boundary is
    redirected to or from the replacement's arglets; duplicates collapse.
    The checked one-step form of `_fork`.
    """
    ids = framework.argument_ids()
    wanted = _check_targets(ids, targets)
    if not abstract_arg.expressions:
        raise EmptySet(f"replacement {abstract_arg.arg_id!r} carries no expression")
    if abstract_arg.arg_id in ids:
        raise IdCollision(f"replacement id {abstract_arg.arg_id!r} already names an argument")
    return _fork(framework, [(wanted, abstract_arg)])


def _fork(framework: Framework, replacements: Iterable[tuple[frozenset[str], Argument]]) -> Framework:
    """The framework with each (targets, argument) replacement made, in one
    pass over its arglets and one over its attacks: the same framework as
    one `abstract_replace` per replacement, in any order.  The target groups
    must be disjoint, each argument must carry an expression and have an id
    no other argument has.  Every endpoint is an arglet of `framework` or
    of a replacement, so the fork skips the endpoint check."""
    into: dict[str, tuple[Arglet, ...]] = {}
    arglets: set[Arglet] = set()
    for targets, arg in replacements:
        new = tuple((arg.arg_id, e) for e in arg.expressions)
        arglets.update(new)
        into.update(dict.fromkeys(targets, new))
    arglets.update(al for al in framework.arglets if al[0] not in into)
    attacks: set[tuple[Arglet, Arglet]] = set()
    for src, dst in framework.attacks:
        s, d = into.get(src[0]), into.get(dst[0])
        if s is None and d is None:
            attacks.add((src, dst))
        elif s is not d:  # one tuple per group: `s is d` is an internal attack
            attacks.update(product(s or (src,), d or (dst,)))
    return Framework._trusted(frozenset(arglets), frozenset(attacks))


def derive_abstract_frameworks(
    framework: Framework,
    lat: FiniteLattice,
    fmap: SemanticMap,
    blocked: Iterable[str],
) -> AbstractionResult:
    """All abstract-space frameworks reachable by one replacement per SCC.

    The SCC masks of the framework's index are scanned attackers first,
    those of two or more arguments each by `_scan`, against one
    `_ScanTable`.  An SCC and its groups are named only when it keeps a
    group, and each kept group's id is renamed once, against the id set of
    that table, so merged ids stay distinct.  Each SCC that keeps groups
    contributes its list of replacements; the forks are the product of
    those lists, each built once, by `_fork`, from its whole choice.
    Components with no qualifying group change no fork; with no kept group
    anywhere the input itself is the one framework.  The result's map is
    the input map plus the symbols minted for kept groups, built once, or
    the input map itself when none was minted.
    """
    table = _ScanTable(framework, lat, fmap, frozenset(blocked))
    ids = table.ix.ids
    minted: dict[str, str] = {}
    replacements: list[tuple[ReplacementStep, ...]] = []
    for comp in table.ix.scc_masks():
        # every group lies inside its SCC: `sharpen` relies on it when it
        # hands each fork's index the input's SCC masks (`af._contract`)
        groups = _scan(table, comp) if comp & (comp - 1) else []
        if not groups:
            continue
        scc = frozenset([ids[i] for i in _bits(comp)])
        steps = []
        for candidate, xmap in _named(table, groups):
            for symbol in candidate.abstract_arg.expressions:
                if symbol not in fmap:
                    minted[symbol] = xmap.image(symbol)
            steps.append(ReplacementStep(scc, candidate.targets, candidate.abstract_arg))
        replacements.append(tuple(steps))
    if minted:
        assignments = dict(fmap.items())
        assignments.update(minted)
        fmap = SemanticMap(assignments)
    provenance = tuple(product(*replacements))
    # every minted id is distinct, so no two choices build the same framework
    frameworks = tuple(
        _fork(framework, [(step.targets, step.abstract_arg) for step in steps]) if steps else framework
        for steps in provenance
    )
    return AbstractionResult(frameworks, provenance, fmap, tuple(replacements))


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


# a concretely accepted or rejected argument's labels when it is in every
# projected extension, in some but not every one, and in none
_SHARPENED = {
    True: (
        frozenset({PLUS_APPROVED_CREDULOUS, PLUS_APPROVED_SKEPTICAL}),
        frozenset({PLUS_APPROVED_CREDULOUS}),
        frozenset({QUESTIONED}),
    ),
    False: (
        frozenset({IMPLIED_CREDULOUS, IMPLIED_SKEPTICAL}),
        frozenset({IMPLIED_CREDULOUS}),
        frozenset({MINUS_APPROVED}),
    ),
}


def _tally(masks: Iterable[int], width: int) -> list[int]:
    """Per bit below `width`, how many of the masks hold it.  A bit-sliced
    counter: slice j holds bit j of every count, each mask is added with
    its carries, and the slices are read once at the end."""
    slices: list[int] = []
    for carry in masks:
        j = 0
        while carry:
            if j == len(slices):
                slices.append(carry)
                break
            slices[j], carry = slices[j] ^ carry, slices[j] & carry
            j += 1
    counts = [0] * width
    for j, part in enumerate(slices):
        for i in _bits(part):
            counts[i] += 1 << j
    return counts


def sharpen(
    framework: Framework,
    lat: FiniteLattice,
    fmap: SemanticMap,
    blocked: Iterable[str],
) -> SharpeningReport:
    """Concrete verdicts re-read through the abstract-space projections.

    `preferred`'s search (`_preferred_masks`) runs once on the input and
    once on every fork, and each framework's masks are named once.  With no
    group merged, the input is the one derived framework and projects onto
    itself: its masks without 0, under `concrete`'s names.  Each fork is
    searched on an index of its own, which the fork never holds and which
    is freed before the next fork's is built, with its SCC masks taken from
    the input's (`af._contract`: on `docs`, seed 3, 10 pairs of 20 s, 706.1
    instances/s against 692.7 with a Tarjan per fork).  Each of its
    extensions maps onto a mask over the input's ids through one map of ids
    to bits per call, in which merged ids map to nothing.  Projected masks
    drop 0 and are deduplicated and ordered as `_extensions` orders them;
    identical projections are kept once, and each distinct projected mask
    is named once, from an extension that projects onto it, and shared.
    The verdicts read the AND and the OR of the concrete masks and of every
    projected mask (an empty projection puts nothing in all of them), and
    `_tally`'s counts."""
    ix = _index(framework)
    masks = _preferred_masks(ix)
    concrete = _extensions(ix, masks)
    derivation = derive_abstract_frameworks(framework, lat, fmap, blocked)
    if not derivation.replacements:
        abstract_preferred = [concrete]
        layers = [[m for m in masks if m]]
        projected = [tuple(e for e in concrete if e)]
    else:
        # each input id's bit; a merged id is no input id and maps to nothing
        bit_of = {a: 1 << i for i, a in enumerate(ix.ids)}
        bit_of.update((step.abstract_arg.arg_id, 0) for steps in derivation.replacements for step in steps)
        abstract_preferred = []
        unique: dict[tuple[int, ...], None] = {}
        holder: dict[int, frozenset[str]] = {}  # each projected mask -> an extension that projects onto it
        for f, steps in zip(derivation.frameworks, derivation.provenance):
            fx = _Index(f)
            _contract(ix, fx, {a: step.abstract_arg.arg_id for step in steps for a in step.targets})
            named = _extensions(fx, _preferred_masks(fx))
            del fx  # freed before the next fork's index is built
            abstract_preferred.append(named)
            down = {sum(map(bit_of.__getitem__, e)): e for e in named}
            down.pop(0, None)
            holder.update(down)
            unique[tuple(sorted(down, key=_key, reverse=True))] = None
        layers = list(unique)
        keep = frozenset(ix.ids)
        names = {m: e & keep for m, e in holder.items()}
        projected = [tuple(map(names.__getitem__, layer)) for layer in layers]

    skeptical = reduce(and_, masks)
    credulous = reduce(or_, masks)
    every = reduce(and_, chain.from_iterable(layers)) if all(layers) else 0
    some = reduce(or_, chain.from_iterable(layers), 0)
    width = len(ix.ids)
    held = _tally(chain.from_iterable(layers), width)
    sets = _tally((reduce(or_, layer, 0) for layer in layers), width)
    verdicts = []
    for i, arg in enumerate(ix.ids):
        bit = 1 << i
        status = SKEPTICAL if skeptical & bit else CREDULOUS if credulous & bit else REJECTED
        verdicts.append(
            ArgumentVerdict(
                arg_id=arg,
                concrete_status=status,
                sharpened=_SHARPENED[status != REJECTED][0 if every & bit else 1 if some & bit else 2],
                sets_containing=sets[i],
                extensions_containing=held[i],
            )
        )

    return SharpeningReport(
        framework=framework,
        concrete=tuple(concrete),
        derivation=derivation,
        abstract_preferred=tuple(map(tuple, abstract_preferred)),
        projected=tuple(projected),
        verdicts=tuple(verdicts),
    )
