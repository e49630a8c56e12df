"""Extension semantics over the plain argument graph.

Everything here works on the Dung projection of a framework: arguments and
the attacks between them, expressions ignored.  Extension sets come back
sorted by size then lexicographically so equal inputs always print equally.
The kernel's searches answer in bit masks over the sorted ids; `_extensions`
drops duplicate masks and orders them as ints, then names each survivor
once, through `_Index.members`.  Naming only the survivors, each through a
set copy, cut the `extensions` benchmark's instance_peak_kb from 42.5 to
38.2 KB (seed 3, Python 3.11.7); see `_Index.members`.
"""

from __future__ import annotations

from typing import Generator, Iterable

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
# group scan, builds none; cf2 takes its top-level SCCs from it too.


def _extensions(ix: _Index, masks: Iterable[int]) -> list[frozenset[str]]:
    """The distinct masks in the order of `_sorted_extensions`, each named
    once.  Bit i is the i-th smallest id, so of two masks of one size the
    one holding their lowest differing bit comes first: it holds a 0 where
    the other holds a 1 in its complement's digits, read lowest first."""
    everything = ix.everything
    ordered = sorted(set(masks), key=lambda m: (m.bit_count(), bin(everything ^ m)[:1:-1]))
    return [ix.members(m) for m in ordered]


def _components(ix: _Index, within: int) -> list[int]:
    """Weakly connected components of the graph induced on `within`."""
    out = []
    while within:
        comp = _reach(ix.neighbours, within & -within, within)
        out.append(comp)
        within &= ~comp
    return out


def _product(per_component: list[list[int]], base: int) -> list[int]:
    """Every union of one answer per component, on top of `base`."""
    combined = [base]
    for answers in per_component:
        combined = [c | a for c in combined for a in answers]
    return combined


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


def _preferred_in(ix: _Index, comp: int) -> list[int]:
    """Maximal admissible subsets of one component of the part the grounded
    labelling leaves undecided, by labelling search (Nofal, Atkinson and
    Dunne 2014).

    A state holds the masks in, out (attacked by in, and everything outside
    the component), must-out (attacks in, not yet out) and blank (still
    open); the rest is undecided and never goes in.  Each step branches on
    the lowest blank argument: in first, then undecided.  Each new state is
    settled when it is made, by three rules:

    - a blank argument whose attackers are all out or must-out joins every
      maximal extension of the state, so it goes in;
    - a must-out argument with exactly one blank attacker can be attacked
      back only by that attacker, so it goes in;
    - a state where some must-out argument has no blank attacker has no
      extension, so it is dropped.

    Forced attackers go in one at a time: two of them may attack each
    other, and taking the first then leaves the second's must-out argument
    with no blank attacker, so the state dies instead of yielding a set
    with a conflict.  A blank argument can become takeable only when an
    attacker goes out or must-out, and a must-out argument can lose a blank
    attacker only when one of its attackers leaves blank, so after each
    take only the targets of what just went out or must-out are looked at
    again, not every blank argument.

    The rules drop no maximal extension of a state: each argument they take
    lies in all of them, and a dropped state has none.  Because the in
    branch is searched first, a preferred set is found before the search
    can reach any of its subsets, and those are then cut as lying inside
    it: every set found is maximal.
    """
    attackers, targets = ix.attackers, ix.targets
    found: list[int] = []
    stack = [(0, ix.everything & ~comp, 0, comp & ~ix.loops)]
    while stack:
        in_, out, must, blank = stack.pop()
        if any(in_ | blank | f == f for f in found):
            continue  # nothing below is larger than a set already found
        if not blank:
            found.append(in_)  # settled, so nothing is left must-out
            continue
        low = blank & -blank
        # the undecided branch, then the in branch, so the in branch is popped first
        for in_, out, must, blank, take, watch in (
            (in_, out, must, blank ^ low, 0, targets[low.bit_length() - 1] & must),
            (in_, out, must, blank, low, 0),
        ):
            ready = 0  # blank arguments an attacker of which went out or must-out
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
                    take = 0
                # the second and third rules, on must-out arguments new or short of a blank attacker
                while watch:
                    y = watch & -watch
                    watch ^= y
                    if y & must:
                        take = attackers[y.bit_length() - 1] & blank
                        if not take & (take - 1):
                            break  # one blank attacker is left, or none
                else:
                    take = 0
                    while ready:  # the first rule
                        y = ready & -ready
                        ready ^= y
                        if y & blank and not attackers[y.bit_length() - 1] & ~(out | must):
                            take = y
                            break
                    else:
                        stack.append((in_, out, must, blank))
                        break
                    continue
                if not take:
                    break  # dead: nothing is left to attack back an attacker of in
    return found


def preferred(framework: Framework) -> list[frozenset[str]]:
    """All maximal admissible sets.

    Every preferred extension holds the grounded extension and nothing it
    attacks, and the undecided rest splits into weakly connected
    components whose choices are independent.  Each component is searched
    on its own and the extensions are the grounded extension plus one
    choice per component.
    """
    ix = _index(framework)
    accepted, defeated = _grounded(ix)
    undecided = ix.everything & ~(accepted | defeated)
    per_component = [_preferred_in(ix, comp) for comp in _components(ix, undecided)]
    return _extensions(ix, _product(per_component, accepted))


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


_Choices = list[tuple[int, int]]  # (extension, the mask it attacks)


def _cf2_frame(ix: _Index, within: int) -> Generator[int, _Choices, _Choices]:
    """cf2 of the sub-framework induced by `within`.  Yields each set of
    survivors whose cf2 extensions it needs and is sent them back."""
    sccs = ix.scc_masks() if within == ix.everything else _sccs(ix, within)
    if len(sccs) == 1:
        return [(m, _union(ix.targets, m)) for m in _naive_in(ix, within)]
    partials: _Choices = [(0, 0)]
    for scc in sccs:
        whole: _Choices | None = None
        grown: _Choices = []
        for part, hit in partials:
            survivors = scc & ~hit
            if survivors == scc:
                if whole is None:
                    whole = [(m, _union(ix.targets, m)) for m in _naive_in(ix, scc)]
                choices = whole
            elif survivors:
                choices = yield survivors
            else:
                choices = [(0, 0)]
            grown.extend((part | c, hit | h) for c, h in choices)
        partials = grown
    return partials


def cf2(framework: Framework) -> list[frozenset[str]]:
    """SCC-recursive semantics.

    Inside a single strongly connected component the maximal conflict-free
    sets are taken; across components the choice made upstream removes the
    arguments it defeats before the downstream component chooses.  The
    recursion runs on an explicit stack of frames, and each survivor set
    is solved once.
    """
    ix = _index(framework)
    solved: dict[int, _Choices] = {}
    frames = [(ix.everything, _cf2_frame(ix, ix.everything))]
    reply: _Choices | None = None
    while True:
        within, frame = frames[-1]
        try:
            wanted = frame.send(reply)
        except StopIteration as done:
            frames.pop()
            reply = solved[within] = done.value
            if not frames:
                return _extensions(ix, (m for m, _ in reply))
            continue
        reply = solved.get(wanted)
        if reply is None:
            frames.append((wanted, _cf2_frame(ix, wanted)))


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
