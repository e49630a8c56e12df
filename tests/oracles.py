"""Reference implementations used to cross-check the package.

Everything here is written from the bare definitions, favouring
obviousness over speed: breadth-first search for the order, bitmask
enumeration of all subsets for the semantics, subset enumeration for
validity and the group scan, set comprehensions for the projections, the
README's label table for the verdicts.  The package's former depth-first
preferred search and take/drop naive-set search are kept for frameworks
too large to enumerate, its former naming and sorting of extension masks
checks the kernel's way out, its former set-based lattice validation pins
which defect is reported (with a bitset form of the same checks for
diagrams too large for it), and its former `.afo` parser, one branch per
directive, pins which error a broken document reports.  `oracle_sharpen`
chains them from an `.afo` text to the whole `sharpen --json` payload.
Nothing imports from the package.
"""

from __future__ import annotations

from itertools import chain, combinations, product


# ------------------------------------------------------------ order theory


def oracle_up_reach(nodes, covers):
    """node -> set of nodes reachable upward (reflexive)."""
    parents = {n: set() for n in nodes}
    for child, parent in covers:
        parents[child].add(parent)
    reach = {}
    for start in nodes:
        seen = {start}
        frontier = [start]
        while frontier:
            cur = frontier.pop()
            for p in parents[cur]:
                if p not in seen:
                    seen.add(p)
                    frontier.append(p)
        reach[start] = seen
    return reach


def oracle_leq(nodes, covers, a, b):
    return b in oracle_up_reach(nodes, covers)[a]


def oracle_join(nodes, covers, a, b):
    """Unique least upper bound, or None."""
    reach = oracle_up_reach(nodes, covers)
    uppers = [u for u in nodes if u in reach[a] and u in reach[b]]
    least = [u for u in uppers if all(v in reach[u] for v in uppers)]
    return least[0] if len(least) == 1 else None


def oracle_meet(nodes, covers, a, b):
    reach = oracle_up_reach(nodes, covers)
    lowers = [m for m in nodes if a in reach[m] and b in reach[m]]
    greatest = [m for m in lowers if all(m in reach[v] for v in lowers)]
    return greatest[0] if len(greatest) == 1 else None


def oracle_upward_closure(nodes, covers, generators):
    reach = oracle_up_reach(nodes, covers)
    out = set()
    for g in generators:
        out |= reach[g]
    return out


def oracle_is_upper_set(nodes, covers, members):
    reach = oracle_up_reach(nodes, covers)
    return all(y in members for x in members for y in reach[x])


def oracle_lower_covers(nodes, covers, node):
    """Hasse children, or the node itself at the unique minimum."""
    children = {c for c, p in covers if p == node}
    if not children:
        return {node}
    return children


def _closure_ups(nodes, covers):
    """Reflexive-transitive up-sets from the cover relation, or None on a cycle."""
    parents = {n: [] for n in nodes}
    for c, p in covers:
        parents[c].append(p)
    # Kahn's algorithm on child->parent edges; leftovers mean a cycle.
    indeg = {n: 0 for n in nodes}
    for c, p in covers:
        indeg[p] += 1
    queue = sorted(n for n in nodes if indeg[n] == 0)
    order = []
    while queue:
        n = queue.pop()
        order.append(n)
        for p in parents[n]:
            indeg[p] -= 1
            if indeg[p] == 0:
                queue.append(p)
    if len(order) != len(nodes):
        return None
    ups = {}
    for n in reversed(order):
        acc = {n}
        for p in parents[n]:
            acc.update(ups[p])
        ups[n] = frozenset(acc)
    return ups


def oracle_lattice_error(nodes, covers):
    """The package's former set-based validation of a Hasse diagram: None
    for a lattice, else (error class name, message) of the first defect, in
    the same order of checks and of sorted cover pairs and node pairs."""
    node_set = frozenset(nodes)
    if not node_set:
        return "EmptySet", "a lattice needs at least one node"
    cover_set = frozenset((c, p) for c, p in covers)
    for c, p in cover_set:
        for end in (c, p):
            if end not in node_set:
                return "UnknownNode", f"cover references unknown node {end!r}"
        if c == p:
            return "CycleInCovers", f"self cover on {c!r}"
    ups = _closure_ups(node_set, cover_set)
    if ups is None:
        return "CycleInCovers", "cover relation contains a cycle"
    for c, p in sorted(cover_set):
        for c2, p2 in cover_set:
            if c2 == c and p2 != p and p in ups[p2]:
                return "RedundantCover", f"cover {c!r} -> {p!r} is transitively implied"
    downs = {n: frozenset(m for m in node_set if n in ups[m]) for n in node_set}
    for a, b in combinations(sorted(node_set), 2):
        uppers = ups[a] & ups[b]
        if len([u for u in uppers if downs[u] & uppers == {u}]) != 1:
            return "NonUniqueJoin", f"nodes {a!r} and {b!r} have no unique least upper bound"
        lowers = downs[a] & downs[b]
        if len([m for m in lowers if ups[m] & lowers == {m}]) != 1:
            return "NonUniqueMeet", f"nodes {a!r} and {b!r} have no unique greatest lower bound"
    return None


def oracle_lattice_error_bitsets(nodes, covers):
    """`oracle_lattice_error` with the pair loop on bitsets: the same checks
    in the same order, where a set of bounds has a least element exactly
    when it is non-empty and lies inside the up set of its first member in
    a linear extension (dually for the greatest).  The set-based loop is
    quartic on a chain (tens of seconds at 300 nodes); this one is
    quadratic.  Diagrams with an unknown node, a self cover or a cycle go
    to the set-based checks, which stop before their pair loop."""
    node_set = frozenset(nodes)
    cover_set = frozenset((c, p) for c, p in covers)
    if not node_set or any(c == p or {c, p} - node_set for c, p in cover_set):
        return oracle_lattice_error(nodes, covers)
    ups = _closure_ups(node_set, cover_set)
    if ups is None:
        return oracle_lattice_error(nodes, covers)
    above = {n: set() for n in node_set}  # the nodes strictly above a parent
    for c, p in cover_set:
        above[c] |= ups[p] - {p}
    for c, p in sorted(cover_set):
        if p in above[c]:
            return "RedundantCover", f"cover {c!r} -> {p!r} is transitively implied"
    # a node's up set outgrows that of every node above it
    order = sorted(node_set, key=lambda n: -len(ups[n]))
    bit = {n: 1 << r for r, n in enumerate(order)}
    up = {n: sum(bit[m] for m in ups[n]) for n in node_set}
    down = dict.fromkeys(node_set, 0)
    for m in node_set:
        for n in ups[m]:
            down[n] |= bit[m]
    for a, b in combinations(sorted(node_set), 2):
        uppers = up[a] & up[b]
        if not uppers or uppers & ~up[order[(uppers & -uppers).bit_length() - 1]]:
            return "NonUniqueJoin", f"nodes {a!r} and {b!r} have no unique least upper bound"
        lowers = down[a] & down[b]
        if not lowers or lowers & ~down[order[lowers.bit_length() - 1]]:
            return "NonUniqueMeet", f"nodes {a!r} and {b!r} have no unique greatest lower bound"
    return None


def oracle_canonicalize(nodes, covers, assignments, exprs, rng):
    """Fixpoint of the downward rewrite, one randomly chosen step at a time."""
    reach = oracle_up_reach(nodes, covers)
    # the unique minimum reaches every node upward
    bottom = next(n for n in nodes if reach[n] == set(nodes))

    current = set(exprs)
    while True:
        expandable = []
        for e in sorted(current):
            node = assignments[e]
            if node == bottom:
                continue
            low = oracle_lower_covers(nodes, covers, node)
            preimages = {c: [s for s, m in assignments.items() if m == c] for c in low}
            if all(preimages[c] for c in low):
                expandable.append((e, {s for c in low for s in preimages[c]}))
        if not expandable:
            return frozenset(current)
        e, replacement = expandable[rng.randrange(len(expandable))]
        current.remove(e)
        current |= replacement


# ------------------------------------------------------- Dung semantics


def _masks(ids, edges):
    order = sorted(ids)
    index = {a: i for i, a in enumerate(order)}
    attackers = [0] * len(order)
    hits = [0] * len(order)
    for s, d in edges:
        attackers[index[d]] |= 1 << index[s]
        hits[index[s]] |= 1 << index[d]
    return order, attackers, hits


def _members(order, mask):
    return frozenset(a for i, a in enumerate(order) if mask >> i & 1)


def oracle_sorted_extensions(ids, masks):
    """The package's former way out of the kernel: each mask named bit by
    bit over `ids` (bit i is ids[i]), duplicates dropped in a set of
    frozensets, then sorted by size and then by the sorted members."""
    return sorted({_members(ids, m) for m in masks}, key=lambda e: (len(e), tuple(sorted(e))))


def oracle_conflict_free(ids, edges, subset):
    order, attackers, _ = _masks(ids, edges)
    mask = sum(1 << order.index(a) for a in subset)
    return all(not (attackers[i] & mask) for i in range(len(order)) if mask >> i & 1)


def oracle_admissible(ids, edges, subset):
    order, attackers, hits = _masks(ids, edges)
    mask = sum(1 << order.index(a) for a in subset)
    if any(attackers[i] & mask for i in range(len(order)) if mask >> i & 1):
        return False
    hit_by_subset = 0
    for i in range(len(order)):
        if mask >> i & 1:
            hit_by_subset |= hits[i]
    return all(
        attackers[i] & ~hit_by_subset == 0 for i in range(len(order)) if mask >> i & 1
    )


def _all_admissible_masks(order, attackers, hits):
    out = []
    for mask in range(1 << len(order)):
        if any(attackers[i] & mask for i in range(len(order)) if mask >> i & 1):
            continue
        hit = 0
        for i in range(len(order)):
            if mask >> i & 1:
                hit |= hits[i]
        if all(attackers[i] & ~hit == 0 for i in range(len(order)) if mask >> i & 1):
            out.append(mask)
    return out


def oracle_preferred(ids, edges):
    """Maximal admissible subsets via full 2^n enumeration."""
    order, attackers, hits = _masks(ids, edges)
    admissible = _all_admissible_masks(order, attackers, hits)
    maximal = [
        m for m in admissible if not any(m != o and m | o == o for o in admissible)
    ]
    return oracle_sorted_extensions(order, maximal)


def oracle_maximal_conflict_free(ids, edges):
    order, attackers, _ = _masks(ids, edges)
    cf = [
        mask
        for mask in range(1 << len(order))
        if all(not (attackers[i] & mask) for i in range(len(order)) if mask >> i & 1)
    ]
    maximal = [m for m in cf if not any(m != o and m | o == o for o in cf)]
    return oracle_sorted_extensions(order, maximal)


def oracle_naive_branch(ids, edges):
    """Maximal conflict-free sets by take/drop search over bitmasks.

    Each step takes the lowest open argument, then drops it; a dropped
    argument waits until some taken neighbour settles it, and the branch
    dies once none can.  Self-attackers are never open.  The package's
    naive-set search before Bron–Kerbosch pivoting, kept as a differential
    reference for frameworks too large for the 2^n enumeration of
    `oracle_maximal_conflict_free`.
    """
    order, attackers, hits = _masks(ids, edges)
    neighbours = [a | h for a, h in zip(attackers, hits)]
    loops = sum(1 << i for i, a in enumerate(attackers) if a >> i & 1)
    found = []
    stack = [(0, (1 << len(order)) - 1 & ~loops, 0)]
    while stack:
        taken, open_, waiting = stack.pop()
        unsettled = 0
        for y in range(len(order)):
            if not waiting >> y & 1:
                continue
            near = neighbours[y]
            if not near & taken:
                if not near & open_:
                    break
                unsettled |= 1 << y
        else:
            if not open_:
                found.append(taken)
                continue
            low = open_ & -open_
            stack.append((taken, open_ ^ low, unsettled | low))
            stack.append((taken | low, open_ & ~(low | neighbours[low.bit_length() - 1]), unsettled))
    return oracle_sorted_extensions(order, found)


def _defends_all(adj, sub):
    for attacker, hit in adj.items():
        if attacker in sub or not (hit & sub):
            continue
        if not any(attacker in adj[defender] for defender in sub):
            return False
    return True


def _maximal(sets):
    return [s for s in sets if not any(s < t for t in sets)]


def oracle_preferred_dfs(ids, edges):
    """Maximal admissible sets by depth-first search over conflict-free
    sets, each checked for defence, then a pairwise maximality filter.

    The package's preferred search before its bitmask kernel, kept as a
    differential reference for frameworks too large for the 2^n
    enumeration of `oracle_preferred`.
    """
    order = sorted(ids)
    adj = {a: set() for a in order}
    for s, d in edges:
        adj[s].add(d)
    admissible = []

    def extend(chosen, start):
        frozen = frozenset(chosen)
        if _defends_all(adj, frozen):
            admissible.append(frozen)
        for i in range(start, len(order)):
            cand = order[i]
            if cand in adj[cand]:
                continue
            if any(cand in adj[c] or c in adj[cand] for c in chosen):
                continue
            chosen.add(cand)
            extend(chosen, i + 1)
            chosen.remove(cand)

    extend(set(), 0)
    return sorted(set(_maximal(admissible)), key=lambda e: (len(e), tuple(sorted(e))))


def oracle_grounded(ids, edges):
    """Least fixpoint labelling by literal rule application."""
    attackers = {a: set() for a in ids}
    for s, d in edges:
        attackers[d].add(s)
    label = {}
    while True:
        new_in = {
            a
            for a in ids
            if a not in label and all(label.get(b) == "out" for b in attackers[a])
        }
        new_out = {
            a
            for a in ids
            if a not in label and any(label.get(b) == "in" for b in attackers[a])
        }
        if not new_in and not new_out:
            break
        for a in new_in:
            label[a] = "in"
        for a in new_out - new_in:
            label[a] = "out"
    return {a: label.get(a, "undecided") for a in ids}


def oracle_sccs(ids, edges):
    """Partition by mutual reachability (length >= 1 paths, plus identity)."""
    reach = {a: set() for a in ids}
    adj = {a: set() for a in ids}
    for s, d in edges:
        adj[s].add(d)
    for start in ids:
        frontier = list(adj[start])
        while frontier:
            cur = frontier.pop()
            if cur in reach[start]:
                continue
            reach[start].add(cur)
            frontier.extend(adj[cur])
    components = set()
    for a in ids:
        comp = {b for b in ids if (b in reach[a] and a in reach[b]) or a == b}
        components.add(frozenset(comp))
    return components


def oracle_sccs_ordered(ids, edges):
    """The package's former SCC list: iterative Tarjan on dicts of sets,
    roots and successors visited in id order, components flipped at the
    end so attackers come first."""
    adj = {a: set() for a in ids}
    for s, d in edges:
        adj[s].add(d)
    index, low = {}, {}
    on_stack, stack, components = set(), [], []
    for root in sorted(adj):
        if root in index:
            continue
        work = [(root, iter(sorted(adj[root])))]
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = len(index)
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(sorted(adj[nxt]))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    comp.add(member)
                    if member == node:
                        break
                components.append(frozenset(comp))
    components.reverse()
    return components


def oracle_cf2(ids, edges):
    """cf2 read from its SCC-recursive definition (Baroni, Giacomin and
    Guida 2005): on a single SCC the extensions are the maximal
    conflict-free sets; otherwise a subset E of the arguments is an
    extension when, for every SCC S, E & S is an extension of the
    framework restricted to the members of S that nothing in E outside S
    attacks.  Every subset of the arguments is tried."""
    edges = set(edges)
    solved = {}

    def extensions(args):
        if args in solved:
            return solved[args]
        inner = {(s, d) for s, d in edges if s in args and d in args}
        sccs = oracle_sccs(args, inner)
        if len(sccs) <= 1:
            out = set(oracle_maximal_conflict_free(args, inner))
        else:
            out = set()
            for combo in powerset(sorted(args)):
                e = frozenset(combo)
                if all(
                    e & scc in extensions(frozenset(a for a in scc if not any((b, a) in inner for b in e - scc)))
                    for scc in sccs
                ):
                    out.add(e)
        solved[args] = out
        return out

    return sorted(extensions(frozenset(ids)), key=lambda e: (len(e), tuple(sorted(e))))


# ------------------------------------------------------ conservativity


def _oracle_join_all(reach, members):
    """Least upper bound of a non-empty node collection."""
    uppers = set.intersection(*(reach[m] for m in members))
    return next(u for u in uppers if uppers <= reach[u])


def oracle_is_argument_abstraction(reach, abstractor, targets):
    """Covering, disjoint, sound and complete, read literally.

    `abstractor` lists the node of each abstractor expression (repeats
    allowed); `targets` holds one node set per target argument.
    """

    def abstracts(x, n):
        return x in reach[n]

    union = set().union(*targets)
    covering = all(
        all(any(abstracts(x, n) for n in t) for t in targets)
        for x in abstractor
        if any(abstracts(x, n) for n in union)
    )
    disjoint = all(sum(1 for x in abstractor if abstracts(x, n)) <= 1 for n in union)
    sound = all(any(abstracts(x, n) for x in abstractor) for n in union)
    complete = all(any(abstracts(x, n) for n in union) for x in abstractor)
    return covering and disjoint and sound and complete


def oracle_growth(reach, arg_nodes, abstractor, targets, home):
    """Strictly larger subsets of `home` containing `targets` that the
    abstractor still abstracts, by size then lexicographically."""
    rest = sorted(set(home) - set(targets))
    return [
        tuple(sorted(set(targets) | set(extra)))
        for size in range(1, len(rest) + 1)
        for extra in combinations(rest, size)
        if oracle_is_argument_abstraction(
            reach, abstractor, [arg_nodes[a] for a in set(targets) | set(extra)]
        )
    ]


def oracle_maximal_conservative_groups(nodes, covers, assignments, arglets, attacks, blocked, scc):
    """Subset scan: every group of two or more SCC members, largest first,
    merged at the join of its nodes and checked against all four
    conservativity conditions; groups inside an earlier hit are skipped."""
    reach = oracle_up_reach(nodes, covers)
    arg_nodes = {}
    for a, e in arglets:
        arg_nodes.setdefault(a, set()).add(assignments[e])

    def comparable(x, y):
        return y in reach[x] or x in reach[y]

    members = sorted(scc)
    chosen = []
    for size in range(len(members), 1, -1):
        for combo in combinations(members, size):
            group = frozenset(combo)
            if any(group < bigger for bigger in chosen):
                continue
            merged = _oracle_join_all(reach, set().union(*(arg_nodes[a] for a in group)))
            neighbours = {d for (s, _), (d, _) in attacks if s in group and d not in group}
            neighbours |= {s for (s, _), (d, _) in attacks if d in group and s not in group}
            conservative = (
                not oracle_growth(reach, arg_nodes, [merged], group, scc)
                and merged not in blocked
                and not any(
                    s in group and d in group and comparable(assignments[se], assignments[de])
                    for (s, se), (d, de) in attacks
                )
                and not any(
                    comparable(merged, _oracle_join_all(reach, arg_nodes[n])) for n in neighbours
                )
            )
            if conservative:
                chosen.append(group)
    return sorted(chosen, key=lambda g: (-len(g), tuple(sorted(g))))


# --------------------------------------------------------- projections


def oracle_sigma(extension_sets, keep):
    keep = frozenset(keep)
    return {e & keep for e in extension_sets} - {frozenset()}


def oracle_verdict(arg, concrete, projections):
    """(concrete status, sharpened labels, projections holding the argument
    in some extension, extensions holding it), from the label table in the
    README: an argument is in every projected extension only when each
    projection has one and all of them hold it."""
    if all(arg in e for e in concrete):
        status = "skeptical"
    elif any(arg in e for e in concrete):
        status = "credulous"
    else:
        status = "rejected"
    holding = [e for p in projections for e in p if arg in e]
    in_some = bool(holding)
    in_every = all(len(p) > 0 for p in projections) and len(holding) == sum(map(len, projections))
    if status == "rejected":
        table = {"minus_approved": not in_some, "implied_credulous": in_some, "implied_skeptical": in_every}
    else:
        table = {"plus_approved_credulous": in_some, "plus_approved_skeptical": in_every, "questioned": not in_some}
    labels = frozenset(label for label, holds in table.items() if holds)
    return status, labels, sum(1 for p in projections if any(arg in e for e in p)), len(holding)


def _oracle_replace(arglets, attacks, targets, new):
    """One merge read off the definition: the targets' arglets give way to
    the one new arglet, attacks inside the group vanish and every attack
    across its boundary moves to the new arglet; repeats collapse."""
    arglets = {al for al in arglets if al[0] not in targets} | {new}
    moved = set()
    for s, d in attacks:
        s_in, d_in = s[0] in targets, d[0] in targets
        if not (s_in and d_in):
            moved.add((new if s_in else s, new if d_in else d))
    return arglets, moved


def oracle_sharpen(text):
    """The `sharpen --json` payload of an `.afo` document, chained from the
    references above: the former parser, the ordered SCCs, the subset scan
    per SCC, one definition-level replacement per chosen group, brute-force
    preferred per derived framework, the projections and the label table.

    A group merges into one arglet at the join of its members' nodes.  Its
    expression is the smallest symbol mapped to that node, else the node's
    name with '#abs' appended, primed until no symbol of the map has it.
    Its id is the targets joined with '+', primed until no argument of the
    framework and no merged id handed out before it has it.  One derived
    framework is built per choice of one group in every SCC that has one,
    earlier SCCs varying slowest."""
    nodes, covers, generals, assignments, arglets, attacks, _ = _oracle_parse(text)
    assignments = dict(assignments)
    reach = oracle_up_reach(nodes, covers)
    top = next(n for n in nodes if all(n in reach[m] for m in nodes))
    blocked = oracle_upward_closure(nodes, covers, generals or [top])
    ids = {a for a, _ in arglets}
    edges = {(s[0], d[0]) for s, d in attacks}

    taken = set(ids)
    per_scc = []
    for scc in oracle_sccs_ordered(ids, edges):
        steps = []
        for group in oracle_maximal_conservative_groups(nodes, covers, assignments, arglets, attacks, blocked, scc):
            node = _oracle_join_all(reach, {assignments[e] for a, e in arglets if a in group})
            symbol = min((s for s, n in assignments.items() if n == node), default=None)
            if symbol is None:
                symbol = node + "#abs"
                while symbol in assignments:
                    symbol += "'"
            arg_id = "+".join(sorted(group))
            while arg_id in taken:
                arg_id += "'"
            taken.add(arg_id)
            steps.append((scc, group, arg_id, symbol))
        if steps:
            per_scc.append(steps)

    def framework_json(als, ats):
        return {"arglets": [list(al) for al in sorted(als)], "attacks": [[list(s), list(d)] for s, d in sorted(ats)]}

    def extensions_json(extensions):
        return [sorted(e) for e in extensions]

    sigma, abstract = [], []
    for combo in product(*per_scc):
        als, ats = set(arglets), set(attacks)
        for _, group, arg_id, symbol in combo:
            als, ats = _oracle_replace(als, ats, group, (arg_id, symbol))
        provenance = [
            {"scc": sorted(scc), "targets": sorted(group), "abstract": {"id": arg_id, "expressions": [symbol]}}
            for scc, group, arg_id, symbol in combo
        ]
        sigma.append({"framework": framework_json(als, ats), "provenance": provenance})
        abstract.append(oracle_preferred({a for a, _ in als}, {(s[0], d[0]) for s, d in ats}))

    concrete = oracle_preferred(ids, edges)
    projected = []
    for extensions in abstract:
        projection = sorted(oracle_sigma(extensions, ids), key=lambda e: (len(e), tuple(sorted(e))))
        if projection not in projected:
            projected.append(projection)
    classification = {}
    for arg in sorted(ids):
        status, labels, sets_containing, extensions_containing = oracle_verdict(arg, concrete, projected)
        classification[arg] = {
            "concrete_status": status,
            "sharpened": sorted(labels),
            "sets_containing": sets_containing,
            "extensions_containing": extensions_containing,
        }
    return {
        "framework": framework_json(arglets, attacks),
        "sigma": sigma,
        "concrete": extensions_json(concrete),
        "abstract_preferred": [extensions_json(p) for p in abstract],
        "projected": [extensions_json(p) for p in projected],
        "classification": classification,
    }


def powerset(items):
    items = list(items)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


# --------------------------------------------------------- the .afo format


class _Rejected(Exception):
    def __init__(self, kind, line, message):
        super().__init__(kind, line, message)
        self.outcome = (kind, line, message)


def _oracle_plain_id(token, line):
    if "." in token:
        raise _Rejected("AfoSyntaxError", line, f"identifier {token!r} may not contain '.'")
    return token


def _oracle_parse(text):
    arity = {"node": 1, "cover": 2, "general": 1, "expr": 1, "map": 2, "arglet": 2, "attack": 2}
    nodes, covers, generals, declared_exprs = {}, {}, {}, {}
    assignments, arglets = {}, {}
    dotted, sugar = [], []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        tokens = body.split()
        keyword, rest = tokens[0], tokens[1:]
        if keyword not in arity:
            raise _Rejected("AfoSyntaxError", lineno, f"unknown directive {keyword!r}")
        if len(rest) != arity[keyword]:
            raise _Rejected("AfoSyntaxError", lineno, f"{keyword} takes {arity[keyword]} argument(s), got {len(rest)}")

        if keyword == "node":
            (name,) = rest
            _oracle_plain_id(name, lineno)
            if name in nodes:
                raise _Rejected("DuplicateDeclaration", lineno, f"node {name!r} already declared")
            nodes[name] = lineno
        elif keyword == "cover":
            child, parent = (_oracle_plain_id(t, lineno) for t in rest)
            if (child, parent) in covers:
                raise _Rejected("DuplicateDeclaration", lineno, f"cover {child} {parent} already declared")
            covers[(child, parent)] = lineno
        elif keyword == "general":
            (name,) = rest
            _oracle_plain_id(name, lineno)
            if name in generals:
                raise _Rejected("DuplicateDeclaration", lineno, f"general {name!r} already declared")
            generals[name] = lineno
        elif keyword == "expr":
            (symbol,) = rest
            _oracle_plain_id(symbol, lineno)
            if symbol in declared_exprs:
                raise _Rejected("DuplicateDeclaration", lineno, f"expr {symbol!r} already declared")
            declared_exprs[symbol] = lineno
        elif keyword == "map":
            symbol, node = (_oracle_plain_id(t, lineno) for t in rest)
            if symbol in assignments:
                raise _Rejected("DuplicateDeclaration", lineno, f"expression {symbol!r} already mapped")
            assignments[symbol] = (node, lineno)
        elif keyword == "arglet":
            arg, symbol = (_oracle_plain_id(t, lineno) for t in rest)
            if (arg, symbol) in arglets:
                raise _Rejected("DuplicateDeclaration", lineno, f"arglet {arg} {symbol} already declared")
            arglets[(arg, symbol)] = lineno
        else:
            first, second = rest
            if ("." in first) != ("." in second):
                raise _Rejected("AfoSyntaxError", lineno, "attack endpoints must both be arglets or both argument ids")
            if "." in first:
                pieces = first.split(".") + second.split(".")
                if len(pieces) != 4 or not all(pieces):
                    raise _Rejected("AfoSyntaxError", lineno, "arglet attack endpoints must look like <arg>.<expr>")
                dotted.append(((pieces[0], pieces[1]), (pieces[2], pieces[3]), lineno))
            else:
                sugar.append((first, second, lineno))

    for (child, parent), lineno in covers.items():
        for name in (child, parent):
            if name not in nodes:
                raise _Rejected("UnknownReference", lineno, f"cover references undeclared node {name!r}")
    for name, lineno in generals.items():
        if name not in nodes:
            raise _Rejected("UnknownReference", lineno, f"general references undeclared node {name!r}")
    for symbol, (node, lineno) in assignments.items():
        if node not in nodes:
            raise _Rejected("UnknownReference", lineno, f"map references undeclared node {node!r}")
    for symbol, lineno in declared_exprs.items():
        if symbol not in assignments:
            raise _Rejected("UnknownReference", lineno, f"expression {symbol!r} is never mapped to a node")
    for (arg, symbol), lineno in arglets.items():
        if symbol not in assignments and symbol not in declared_exprs:
            raise _Rejected("UnknownReference", lineno, f"arglet references undeclared expression {symbol!r}")

    by_arg = {}
    for arg, symbol in arglets:
        by_arg.setdefault(arg, []).append((arg, symbol))

    warnings = []
    attacks = set()
    for src, dst, lineno in dotted:
        for al in (src, dst):
            if al not in arglets:
                raise _Rejected("UnknownReference", lineno, f"attack references undeclared arglet {al[0]}.{al[1]}")
        attacks.add((src, dst))
    for a, b, lineno in sugar:
        for name in (a, b):
            if name not in by_arg:
                raise _Rejected("UnknownReference", lineno, f"attack references unknown argument {name!r}")
        warnings.append(f"W001 line {lineno}: attack {a} {b} expanded to all arglet pairs")
        for sal in by_arg[a]:
            for dal in by_arg[b]:
                attacks.add((sal, dal))

    if not arglets:
        raise _Rejected("AfoSyntaxError", 1, "no framework: at least one arglet is required")

    return (
        tuple(sorted(nodes)),
        tuple(sorted(covers)),
        tuple(sorted(generals)),
        tuple(sorted((s, n) for s, (n, _) in assignments.items())),
        tuple(sorted(arglets)),
        tuple(sorted(attacks)),
        warnings,
    )


def oracle_parse_outcome(text):
    """What the package's former `.afo` parser made of `text`, one branch
    per directive: the document's fields in `AfoDocument` order followed
    by the warnings, or (error class name, line, message) for the first
    error it raised."""
    try:
        return _oracle_parse(text)
    except _Rejected as rejected:
        return rejected.outcome
