"""Extension semantics over the plain argument graph.

Everything here works on the Dung projection of a framework: arguments and
the attacks between them, expressions ignored.  Extension sets come back
sorted by size then lexicographically so equal inputs always print equally.
The kernel's searches answer in bit masks over the sorted ids; `_extensions`
drops duplicate masks, orders them on one digit string each and names each
survivor from that same string; `preferred` names what its search,
`_preferred_masks`, answers.

`preferred` and `cf2` are both SCC-recursive (`_scc_recursive`): each SCC,
attackers first, chooses under every partial answer upstream, and the two
differ only in the search each SCC gets, labelling search for `preferred`,
naive sets for `cf2`.  Answers travel as bare extension masks; what a
partial answer attacks is worked out only where an SCC has feeders, and
only on what can reach them, once per distinct interface: the part of the
partial answer that attacks a feeder or a member.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress
from typing import Callable, Generator, Iterable

from .af import Framework, _bits, _Index, _index, _reach, _sccs, _union, attack_relation
from .errors import UnknownArgument

IN = "in"
OUT = "out"
UNDECIDED = "undecided"


def _check_subset(framework: Framework, members: Iterable[str]) -> frozenset[str]:
    ids = framework.argument_ids()
    sub = frozenset(members)
    for a in sub:
        if a not in ids:
            raise UnknownArgument(f"{a!r} is not an argument of the framework")
    return sub


def is_conflict_free(framework: Framework, members: Iterable[str]) -> bool:
    sub = _check_subset(framework, members)
    _, edges = framework.dung_projection()
    return not any(s in sub and d in sub for s, d in edges)


def _defends_all(adj: dict[str, set[str]], sub: frozenset[str]) -> bool:
    for attacker, hit in adj.items():
        if attacker in sub or not (hit & sub):
            continue
        if not any(attacker in adj[defender] for defender in sub):
            return False
    return True


def is_admissible(framework: Framework, members: Iterable[str]) -> bool:
    """Conflict-free and defending each member against every attacker."""
    sub = _check_subset(framework, members)
    if not is_conflict_free(framework, sub):
        return False
    return _defends_all(attack_relation(framework), sub)


def _sorted_extensions(extensions: Iterable[frozenset[str]]) -> list[frozenset[str]]:
    return sorted(set(extensions), key=lambda e: (len(e), tuple(sorted(e))))


def _maximal(sets: list[frozenset[str]]) -> list[frozenset[str]]:
    return [s for s in sets if not any(s < t for t in sets)]


# ------------------------------------------------------------ bitmask kernel
#
# preferred, grounded_labelling, maximal_conflict_free_sets and cf2 work on
# the framework's graph index (`af._index`), built once per framework and
# kept on it, so a second call on the same framework, or a call after the
# group scan, builds none; cf2 and preferred take their SCCs from it too.


_DIGITS = bytes.maketrans(b"01", b"\0\1")  # ASCII digits to selector bytes


def _extensions(ix: _Index, masks: Iterable[int]) -> list[frozenset[str]]:
    """The distinct masks in the order of `_sorted_extensions`, each named
    once.  Bit i is the i-th smallest id, so of two masks of one size the
    one holding their lowest differing bit comes first: it holds a 1 where
    the other holds a 0 in its digits, read lowest bit first.  Each mask's
    digits are made once and serve as its sort key (`_key`, built inline)
    and as the selectors of its ids; keys sort last first, so each is
    dropped as it is named."""
    keys = sorted((-m.bit_count(), bin(m)[:1:-1]) for m in set(masks))
    ids, named = ix.ids, []
    # copied from a set, a frozenset's table is sized to fit; filled from an
    # iterator it keeps every resize's slack.  The `extensions` benchmark's
    # instance_peak_kb (seed 3, Python 3.11.7): 31.0 KB; 43.1 without the
    # copy, 34.2 with every key kept to the end
    while keys:
        named.append(frozenset({*compress(ids, keys.pop()[1].encode().translate(_DIGITS))}))
    return named


def _key(mask: int) -> tuple[int, str]:
    """A mask's sort key in `_extensions`, which names masks in descending
    key order: minus its bit count, then its digits lowest bit first."""
    return -mask.bit_count(), bin(mask)[:1:-1]


def _components(ix: _Index, within: int) -> list[int]:
    """Weakly connected components of the graph induced on `within`."""
    out = []
    while within:
        comp = _reach(ix.neighbours, within & -within, within)
        out.append(comp)
        within &= ~comp
    return out


def _product(left: list[int], right: list[int]) -> list[int]:
    """Every union of one mask of `left` with one of `right`."""
    return [a | b for a in left for b in right]


def _grounded(ix: _Index) -> tuple[int, int]:
    """In and out masks of the least fixpoint.  Each argument counts its
    attackers not yet out and goes in when the count reaches zero."""
    pending = [a.bit_count() for a in ix.attackers]
    ready = [i for i, k in enumerate(pending) if not k]
    accepted = defeated = 0
    while ready:
        i = ready.pop()
        accepted |= 1 << i
        fresh = ix.targets[i] & ~defeated
        defeated |= fresh
        for j in _bits(fresh):
            for k in _bits(ix.targets[j]):
                pending[k] -= 1
                if not pending[k]:
                    ready.append(k)
    return accepted, defeated


def _preferred_in(ix: _Index, live: int, barred: int = 0) -> list[int]:
    """Maximal admissible subsets of `live` that hold no argument of
    `barred`, with everything outside `live` out, by labelling search
    (Nofal, Atkinson and Dunne 2014).  `live` is a component of the part
    the grounded labelling leaves undecided, or one SCC of such a component
    with what upstream defeats taken out (`_preferred_scc`).

    A state holds the masks in, out (attacked by in, and everything outside
    `live`), must-out (attacks in, not yet out) and blank (still open); the
    rest is undecided and never goes in: self-attackers, `barred`, and what
    the search or the fourth rule leaves out.  Each step branches on the
    lowest blank argument: in first, then undecided.  Each state is settled
    before it branches, by four rules:

    - a blank argument whose attackers are all out or must-out joins every
      maximal extension of the state, so it goes in;
    - a must-out argument with exactly one blank attacker can be attacked
      back only by that attacker, so it goes in;
    - a state where some must-out argument has no blank attacker has no
      extension, so it is dropped;
    - an argument that is not out and has no blank attacker can never be
      attacked by in, so no blank argument it attacks can be defended
      against it: those become undecided.

    Forced attackers go in one at a time: two of them may attack each
    other, and taking the first then leaves the second's must-out argument
    with no blank attacker, so the state dies instead of yielding a set
    with a conflict.  Each rule reads only what the last change can have
    touched: a blank argument can become takeable only when an attacker
    goes out or must-out, and an argument can lose a blank attacker only
    when one of its attackers leaves blank, so after each change only the
    targets of what left blank are looked at again.  On an odd cycle the
    fourth rule settles in one cascade what the branching would take one
    level per argument.

    The rules drop no maximal extension of a state: each argument they take
    lies in all of them, each argument they leave out lies in none, and a
    dropped state has none.  Because the in branch is searched first, a
    preferred set is found before the search can reach any of its subsets,
    and those are then cut as lying inside it: every set found is maximal.
    """
    attackers, targets = ix.attackers, ix.targets
    found: list[int] = []
    blank = live & ~(ix.loops | barred)
    near = _union(targets, blank)
    # (in, out, must-out, blank, to take, and the arguments the second,
    # fourth and first rules look at again), each state settled when it is
    # popped; the first state's are what has no blank attacker, and what
    # has no attacker in `live` at all
    stack = [(0, ix.everything & ~live, 0, blank, 0, 0, live & ~near, blank & ~(near | _union(targets, live & ~blank)))]
    while stack:
        in_, out, must, blank, take, watch, quiet, ready = stack.pop()
        while True:
            if take:
                i = take.bit_length() - 1
                in_ |= take
                hit = targets[i] & ~out
                out |= hit
                grow = attackers[i] & ~(out | must)
                must = must & ~hit | grow
                blank &= ~(take | hit | grow)
                near = _union(targets, hit | grow)
                ready |= near & blank
                watch |= grow | near & must
                quiet |= near
                take = 0
            elif watch:  # the second and third rules
                y = watch & -watch
                watch ^= y
                if y & must:
                    take = attackers[y.bit_length() - 1] & blank
                    if not take:
                        break  # dead: nothing is left to attack back an attacker of in
                    if take & (take - 1):
                        take = 0  # two blank attackers or more: nothing is forced
            elif quiet:  # the fourth rule
                y = quiet & -quiet
                quiet ^= y
                i = y.bit_length() - 1
                drop = targets[i] & blank
                if drop and not y & out and not attackers[i] & blank:
                    blank ^= drop
                    near = _union(targets, drop)
                    watch |= near & must
                    quiet |= near
            elif ready:  # the first rule
                y = ready & -ready
                ready ^= y
                if y & blank and not attackers[y.bit_length() - 1] & ~(out | must):
                    take = y
            else:
                for f in found:
                    if in_ | blank | f == f:
                        break  # nothing below is larger than a set already found
                else:
                    if not blank:
                        found.append(in_)  # settled, so nothing is left must-out
                    else:
                        low = blank & -blank
                        near = targets[low.bit_length() - 1]
                        # the undecided branch, then the in branch, so the in branch is popped first
                        stack.append((in_, out, must, blank ^ low, 0, near & must, near, 0))
                        stack.append((in_, out, must, blank, low, 0, 0, 0))
                break
    return found


_Choices = list[int]  # the in masks of a search's answers
# a base search's answer for one SCC: its in masks, or a mask of survivors whose answers it needs
_Base = Callable[[int, int, int], "_Choices | int"]
# a frame yields each mask of survivors it needs answers for, is sent them, and returns its own
_Frame = Generator[int, _Choices, _Choices]


def _run(top: _Frame, frame: Callable[[int], _Frame] | None = None) -> _Choices:
    """What `top` returns, on an explicit stack of frames: each mask a
    frame yields is answered by `frame(mask)`, run the same way, and each
    mask is solved once.  A frame whose base never answers with a mask
    needs no `frame`."""
    solved: dict[int, _Choices] = {}
    frames = [(0, top)]
    reply: _Choices | None = None
    while True:
        within, current = frames[-1]
        try:
            wanted = current.send(reply)
        except StopIteration as done:
            frames.pop()
            reply = solved[within] = done.value
            if not frames:
                return reply
            continue
        reply = solved.get(wanted)
        if reply is None:
            frames.append((wanted, frame(wanted)))


def _scc_recursive(ix: _Index, within: int, sccs: list[int], base: _Base) -> _Frame:
    """The SCC-recursive schema (Baroni, Giacomin and Guida, "SCC-recursiveness:
    a general schema for argumentation semantics", AIJ 2005) on the
    sub-framework induced by `within`, whose SCCs are `sccs`, attackers
    first.  Each partial answer, the in mask on the SCCs before one, grows
    by each choice `base(scc, live, doubt)` makes for that SCC, where
    `live` is what of the SCC the partial answer leaves not out and `doubt`
    the upstream arguments, neither in nor out, that attack it.  An SCC
    that nothing upstream attacks is asked once, whole, for all partial
    answers.  For one that has feeders, only the partial answer's in
    arguments that attack a feeder or a member bear on `live` or `doubt`,
    and every feeder is one of them: that part of a partial answer, its
    interface, fixes both, so `base` is asked once per distinct interface
    and its choices are shared by every partial answer that has it.  Asked
    for less than the whole SCC, a base may answer with a mask instead, of
    survivors whose answers it needs: the frame yields that mask and is
    sent the choices back (`_run`).  The frame returns the partial answers
    on all of `sccs`."""
    attackers, targets = ix.attackers, ix.targets
    partials: _Choices = [0]
    for scc in sccs:
        feeders = _union(attackers, scc) & within & ~scc
        if not feeders:
            partials = _product(partials, base(scc, scc, 0))
            continue
        near = _union(attackers, feeders | scc)
        asked: dict[int, _Choices] = {}  # interface -> the SCC's choices under it
        grown: _Choices = []
        for part in partials:
            face = part & near
            choices = asked.get(face)
            if choices is None:
                hit = _union(targets, face)
                choices = base(scc, scc & ~hit, feeders & ~(face | hit))
                if isinstance(choices, int):
                    choices = yield choices
                asked[face] = choices
            grown += [part | c for c in choices]
        partials = grown
    return partials


def _preferred_scc(ix: _Index, comp: int, sccs: list[int]) -> list[int]:
    """Preferred extensions of a component of the grounded-undecided part
    that meets the SCCs `sccs`, attackers first, by the SCC-recursive
    schema (Cerutti, Giacomin, Vallati and Zanella, "An SCC recursive
    meta-algorithm for computing preferred labellings in abstract
    argumentation", KR 2014).  Under a partial answer upstream, what its in
    arguments attack is out, and what an upstream argument neither in nor
    out attacks can never be defended against it, so it is barred from
    going in; the SCC's answers are the labelling search's on the rest,
    with the barred arguments left undecided.  The driver asks once per
    distinct interface, so the search keeps no answers of its own."""
    targets = ix.targets

    def base(scc: int, live: int, doubt: int) -> _Choices:
        return _preferred_in(ix, live, _union(targets, doubt) & live if doubt else 0)

    return _run(_scc_recursive(ix, comp, sccs, base))


def _preferred_masks(ix: _Index) -> list[int]:
    """The preferred extensions as distinct in masks over the sorted ids of
    the index, in no set order: what `preferred` names.

    Every preferred extension holds the grounded extension and nothing it
    attacks, and the undecided rest splits into weakly connected
    components whose choices are independent.  A component inside one SCC
    is searched whole (`_preferred_in`); one that meets several SCCs goes
    SCC by SCC, attackers first (`_preferred_scc`), on the SCC masks the
    index keeps.  The extensions are the grounded extension plus one
    choice per component, so no two are equal.
    """
    accepted, defeated = _grounded(ix)
    per_component = []
    comps = _components(ix, ix.everything & ~(accepted | defeated))
    for comp in comps:
        if len(comps) == 1:
            sccs = [scc & comp for scc in ix.scc_masks() if scc & comp]
        else:  # not a walk of every SCC per component: the SCCs its arguments lie in
            homes, masks = ix.scc_homes(), ix.scc_masks()
            rest, sccs = comp, []
            while rest:  # first their places, attackers first once sorted
                sccs.append(homes[(rest & -rest).bit_length() - 1])
                rest &= ~masks[sccs[-1]]
            if len(sccs) > 1:
                sccs = [masks[p] & comp for p in sorted(sccs)]
        per_component.append(_preferred_in(ix, comp) if len(sccs) == 1 else _preferred_scc(ix, comp, sccs))
    return reduce(_product, per_component, [accepted])


def preferred(framework: Framework) -> list[frozenset[str]]:
    """All maximal admissible sets: the masks of `_preferred_masks` on the
    framework's index, named and ordered by `_extensions`."""
    ix = _index(framework)
    return _extensions(ix, _preferred_masks(ix))


def grounded_labelling(framework: Framework) -> dict[str, str]:
    """Least-fixpoint labelling.

    An argument goes in once all its attackers are out, out once some
    attacker is in; whatever never settles stays undecided.
    """
    ix = _index(framework)
    accepted, defeated = _grounded(ix)
    return {
        a: IN if accepted >> i & 1 else OUT if defeated >> i & 1 else UNDECIDED
        for i, a in enumerate(ix.ids)
    }


def _naive_in(ix: _Index, comp: int) -> list[int]:
    """Maximal conflict-free subsets of a mask: the maximal independent
    sets of its conflict graph without self-attackers, by Bron–Kerbosch
    search with Tomita pivoting (Tomita, Tanaka and Takahashi 2006) over
    an exclusion mask, in O(3^(n/3)).

    A state holds the taken, open and excluded masks; an excluded argument
    was branched on already and may not be added later.  The pivot is the
    open or excluded argument with the fewest open arguments among itself
    and its neighbours, and the state branches on taking each of those in
    turn, excluding it afterwards: every naive set below the state holds
    one of them.  An excluded pivot with none left open could join every
    extension of the state, so the state has no naive set.
    """
    candidates = comp & ~ix.loops
    closed = {i: ix.neighbours[i] | 1 << i for i in _bits(candidates)}
    found: list[int] = []
    stack = [(0, candidates, 0)]
    while stack:
        taken, open_, excluded = stack.pop()
        if not open_:
            if not excluded:
                found.append(taken)
            continue
        fewest = open_.bit_count() + 1
        rest = open_ | excluded
        while rest:
            low = rest & -rest
            rest ^= low
            near = closed[low.bit_length() - 1] & open_
            count = near.bit_count()
            if count < fewest:
                fewest, branch = count, near
                if count <= 1:
                    break
        while branch:
            low = branch & -branch
            branch ^= low
            near = closed[low.bit_length() - 1]
            stack.append((taken | low, open_ & ~near, excluded & ~near))
            open_ ^= low
            excluded |= low
    return found


def maximal_conflict_free_sets(framework: Framework) -> list[frozenset[str]]:
    """Naive sets, by one search over the whole framework, split or not."""
    ix = _index(framework)
    return _extensions(ix, _naive_in(ix, ix.everything))


def _cf2_frame(ix: _Index, within: int) -> _Frame:
    """cf2 of the sub-framework induced by `within`.  Yields each set of
    survivors whose cf2 extensions it needs and is sent them back."""
    sccs = ix.scc_masks() if within == ix.everything else _sccs(ix, within)
    if len(sccs) == 1:
        return _naive_in(ix, within)
    whole: dict[int, _Choices] = {}

    def base(scc: int, live: int, doubt: int) -> _Choices | int:
        if live != scc:
            return live or [0]
        choices = whole.get(scc)
        if choices is None:
            choices = whole[scc] = _naive_in(ix, scc)
        return choices

    return (yield from _scc_recursive(ix, within, sccs, base))


def cf2(framework: Framework) -> list[frozenset[str]]:
    """SCC-recursive semantics.

    Inside a single strongly connected component the maximal conflict-free
    sets are taken; across components the choice made upstream removes the
    arguments it defeats before the downstream component chooses.  The
    recursion runs on an explicit stack of frames, and each survivor set
    is solved once.
    """
    ix = _index(framework)
    return _extensions(ix, _run(_cf2_frame(ix, ix.everything), lambda survivors: _cf2_frame(ix, survivors)))


def preferred_bruteforce(framework: Framework) -> list[frozenset[str]]:
    """Maximal admissible sets by plain enumeration of every subset.

    Reference implementation kept for the CLI cross-check; exponential and
    proud of it.
    """
    from itertools import combinations

    ids = sorted(framework.argument_ids())
    admissible = [
        frozenset(combo)
        for size in range(len(ids) + 1)
        for combo in combinations(ids, size)
        if is_admissible(framework, combo)
    ]
    return _sorted_extensions(_maximal(admissible))


CREDULOUS = "credulous"
SKEPTICAL = "skeptical"


def acceptance(framework: Framework, arg_id: str, mode: str, semantics: str = "preferred") -> bool:
    """Membership quantified over the chosen semantics' extensions."""
    if arg_id not in framework.argument_ids():
        raise UnknownArgument(f"{arg_id!r} is not an argument of the framework")
    if semantics == "preferred":
        extensions = preferred(framework)
    elif semantics == "cf2":
        extensions = cf2(framework)
    else:
        raise ValueError(f"unknown semantics {semantics!r}")
    if mode == CREDULOUS:
        return any(arg_id in e for e in extensions)
    if mode == SKEPTICAL:
        return bool(extensions) and all(arg_id in e for e in extensions)
    raise ValueError(f"unknown acceptance mode {mode!r}")
