"""Seeded random generators for lattices, maps, and frameworks.

Random cover relations are rarely lattices, so lattices are drawn from
shapes that are lattices by construction:

* tree: a tree rooted at the top (every node covered by exactly one
  parent) with a bottom inserted under the leaves; joins are lowest
  common ancestors, meets of incomparable nodes hit the bottom;
* flower: a bottom, atoms partitioned into groups, one hub node per
  group, a top over the hubs and leftover atoms (the shape of the
  shipped fixtures);
* cube: the Boolean lattice over 2 or 3 generators;
* pentagon and chain: small stock orders exercising non-modularity and
  total orders.
"""

from __future__ import annotations

import random

from afo import Framework, SemanticMap, validate_lattice


def tree_lattice(rng: random.Random, max_nodes: int = 12):
    """Random up-tree plus a bottom; every non-root node has one parent."""
    size = rng.randint(3, max_nodes - 1)  # nodes above the bottom
    names = [f"n{i}" for i in range(size)]
    covers = []
    children: dict[str, list[str]] = {names[0]: []}
    # names[0] is the top; attach each next node under an existing one
    for name in names[1:]:
        parent = rng.choice(sorted(children))
        covers.append((name, parent))
        children[parent].append(name)
        children[name] = []
    leaves = [n for n, cs in children.items() if not cs]
    covers.extend(("bot", leaf) for leaf in leaves)
    return validate_lattice(names + ["bot"], covers)


def branching_tree_lattice(rng: random.Random, max_nodes: int = 12):
    """Tree lattice in which every internal node has at least two children."""
    children: dict[str, list[str]] = {"t0": []}
    covers: list[tuple[str, str]] = []
    counter = 1
    # grow by splitting a leaf into 2..3 children while the budget allows;
    # the first split always happens so the shape is never a bare chain
    first = True
    while True:
        leaves = sorted(n for n, cs in children.items() if not cs)
        width = rng.randint(2, 3)
        if counter + width + 1 > max_nodes:
            break
        target = rng.choice(leaves)
        for _ in range(width):
            name = f"t{counter}"
            counter += 1
            covers.append((name, target))
            children[target].append(name)
            children[name] = []
        if not first and rng.random() < 0.35:
            break
        first = False
    leaves = [n for n, cs in children.items() if not cs]
    covers.extend(("bot", leaf) for leaf in leaves)
    return validate_lattice(list(children) + ["bot"], covers)


def flower_lattice(rng: random.Random, max_nodes: int = 12):
    """Bottom, grouped atoms under hub nodes, one top."""
    atom_count = rng.randint(2, max(2, (max_nodes - 2) * 2 // 3))
    atoms = [f"a{i}" for i in range(atom_count)]
    hubs = []
    covers = [("bot", a) for a in atoms]
    pool = atoms[:]
    rng.shuffle(pool)
    top_children = []
    while pool and len(atoms) + len(hubs) + 2 < max_nodes and len(pool) >= 2 and rng.random() < 0.8:
        size = rng.randint(2, min(3, len(pool)))
        # never leave the top with a single lower cover
        if len(pool) - size + len(hubs) + 1 < 2:
            break
        group, pool = pool[:size], pool[size:]
        hub = f"h{len(hubs)}"
        hubs.append(hub)
        covers.extend((a, hub) for a in group)
        top_children.append(hub)
    top_children.extend(pool)
    covers.extend((c, "top") for c in top_children)
    return validate_lattice(atoms + hubs + ["bot", "top"], covers)


def cube_lattice(bits: int = 3):
    """Boolean lattice over `bits` generators."""
    nodes = [format(i, f"0{bits}b") for i in range(1 << bits)]
    covers = [
        (a, b)
        for a in nodes
        for b in nodes
        if bin(int(a, 2) ^ int(b, 2)).count("1") == 1 and int(a, 2) & int(b, 2) == int(a, 2)
    ]
    return validate_lattice(nodes, covers)


def pentagon_lattice():
    nodes = ["bot", "x", "y", "z", "top"]
    covers = [("bot", "x"), ("bot", "y"), ("y", "z"), ("x", "top"), ("z", "top")]
    return validate_lattice(nodes, covers)


def chain_diagram(length: int) -> tuple[list[str], list[tuple[str, str]]]:
    """Nodes and covers of the chain c0 < c1 < ... ."""
    nodes = [f"c{i}" for i in range(length)]
    return nodes, [(nodes[i], nodes[i + 1]) for i in range(length - 1)]


def flat_diagram(atoms: int) -> tuple[list[str], list[tuple[str, str]]]:
    """Nodes and covers of a bottom, `atoms` atoms and a top."""
    names = [f"a{i}" for i in range(atoms)]
    return ["bot", *names, "top"], [("bot", a) for a in names] + [(a, "top") for a in names]


def flower_diagram(hubs: int, petals: int) -> tuple[list[str], list[tuple[str, str]]]:
    """Nodes and covers of a bottom, `hubs` hubs over `petals` atoms each,
    and a top."""
    nodes, covers = ["bot", "top"], []
    for i in range(hubs):
        nodes.append(hub := f"h{i}")
        covers.append((hub, "top"))
        for j in range(petals):
            nodes.append(atom := f"a{i}_{j}")
            covers += [("bot", atom), (atom, hub)]
    return nodes, covers


def chain_lattice(length: int = 4):
    return validate_lattice(*chain_diagram(length))


def random_lattice(rng: random.Random, max_nodes: int = 12):
    pick = rng.randrange(6)
    if pick == 0:
        return tree_lattice(rng, max_nodes)
    if pick == 1:
        return flower_lattice(rng, max_nodes)
    if pick == 2:
        return cube_lattice(rng.choice([2, 3]))
    if pick == 3:
        return pentagon_lattice()
    if pick == 4:
        return chain_lattice(rng.randint(2, 6))
    return branching_tree_lattice(rng, max_nodes)


def random_map(rng: random.Random, lattice, max_exprs: int = 12) -> SemanticMap:
    """Total map of 1..max_exprs expressions onto arbitrary nodes."""
    count = rng.randint(1, max_exprs)
    nodes = sorted(lattice.nodes)
    return SemanticMap({f"e{i}": rng.choice(nodes) for i in range(count)})


def covered_map(rng: random.Random, lattice, max_exprs: int = 12) -> SemanticMap:
    """Map placing at least one expression on every node above the bottom.

    Together with a branching shape this gives the regime where the
    abstraction laws hold without degenerate empty concretizations.
    """
    nodes = sorted(n for n in lattice.nodes if n != lattice.bottom)
    assignments = {}
    for i, node in enumerate(nodes):
        assignments[f"e{i}"] = node
    extra = rng.randint(0, max(0, max_exprs - len(nodes)))
    for j in range(extra):
        assignments[f"x{j}"] = rng.choice(nodes)
    return SemanticMap(assignments)


def lattice_with_full_coverage(rng: random.Random, max_nodes: int = 12):
    """A (lattice, map) pair: branching shape, everything above bottom covered."""
    pick = rng.randrange(3)
    if pick == 0:
        lat = branching_tree_lattice(rng, max_nodes)
    elif pick == 1:
        lat = flower_lattice(rng, max_nodes)
    else:
        lat = cube_lattice(rng.choice([2, 3]))
    return lat, covered_map(rng, lat)


def random_framework(rng: random.Random, max_args: int = 12, attack_prob: float = 0.3) -> Framework:
    """Random arglet framework over a throwaway expression vocabulary."""
    n = rng.randint(1, max_args)
    arglets = []
    for i in range(n):
        for j in range(rng.randint(1, 2)):
            arglets.append((f"a{i}", f"e{i}_{j}"))
    attacks = set()
    for src in arglets:
        for dst in arglets:
            if rng.random() < attack_prob:
                attacks.add((src, dst))
    return Framework(frozenset(arglets), frozenset(attacks))


def sparse_framework(
    rng: random.Random, min_args: int = 13, max_args: int = 20, density: float = 0.15, max_loops: int = 2
) -> Framework:
    """n arguments of one or two arglets, attacks on exactly
    round(density * n * (n - 1)) ordered pairs of distinct arguments, each
    between random arglets of the two, and up to `max_loops` self-attacks.

    A fixed attack count keeps every draw near the sparse regime, where
    many arguments stay undecided and extensions multiply."""
    n = rng.randint(min_args, max_args)
    names = [f"a{i:02d}" for i in range(n)]
    arglets = {a: [(a, f"e{a}_{j}") for j in range(rng.randint(1, 2))] for a in names}
    pairs = [(s, d) for s in names for d in names if s != d]
    chosen = rng.sample(pairs, round(density * len(pairs)))
    chosen += [(a, a) for a in rng.sample(names, rng.randint(0, max_loops))]
    attacks = {(rng.choice(arglets[s]), rng.choice(arglets[d])) for s, d in chosen}
    return Framework.of([al for als in arglets.values() for al in als], attacks)


def _plain(names, edges) -> Framework:
    return Framework.of([(a, f"x{a}") for a in names], [((s, f"x{s}"), (d, f"x{d}")) for s, d in edges])


def two_cycle_union(rng: random.Random, m: int, links: int) -> tuple[Framework, int]:
    """m disjoint 2-cycles plus one-way links between 2*links distinct
    pairs, with its preferred extension count.

    Each extension picks one argument per pair; a link a -> c only rules
    out picking both a and c, so there are 2^(m - 2*links) * 3^links.
    """
    names = [f"a{j:02d}" for j in range(2 * m)]
    rng.shuffle(names)
    pairs = [names[2 * j : 2 * j + 2] for j in range(m)]
    edges = {(p[0], p[1]) for p in pairs} | {(p[1], p[0]) for p in pairs}
    linked = rng.sample(range(m), 2 * links)
    for t in range(links):
        edges.add((rng.choice(pairs[linked[2 * t]]), rng.choice(pairs[linked[2 * t + 1]])))
    return _plain(names, edges), 2 ** (m - 2 * links) * 3**links


def chained_four_cycles(k: int) -> tuple[Framework, list[frozenset[str]]]:
    """k cycles a_i -> b_i -> c_i -> d_i -> a_i plus d_i -> a_{i+1}, with
    their preferred extensions: k SCCs in one chain.

    The first cycle picks {a, c} or {b, d}.  Once a cycle picks {b, d}, its
    d defeats the next a, so every later cycle picks {b, d} too: the
    extensions are the k + 1 ways to pick {a, c} in the first j cycles."""
    cycles = [[f"{x}{i:02d}" for x in "abcd"] for i in range(k)]
    edges = [(c[j], c[(j + 1) % 4]) for c in cycles for j in range(4)]
    edges += [(c[3], after[0]) for c, after in zip(cycles, cycles[1:])]
    names = [x for c in cycles for x in c]
    expected = [frozenset(x for i, c in enumerate(cycles) for x in (c[0::2] if i < j else c[1::2])) for j in range(k + 1)]
    return _plain(names, edges), expected


def linked_two_cycles(n: int) -> tuple[Framework, list[frozenset[str]]]:
    """n/2 2-cycles x_i <-> y_i plus y_i -> x_{i+1}, for even n, with their
    preferred extensions: n/2 SCCs in one chain.

    Once some y_i is in, x_{i+1} is defeated and y_{i+1} defended, so the
    extensions are the n/2 + 1 ways to take x in the first j pairs and y
    in the rest."""
    pairs = [(f"x{i:03d}", f"y{i:03d}") for i in range(n // 2)]
    edges = [e for x, y in pairs for e in ((x, y), (y, x))]
    edges += [(y, after[0]) for (_, y), after in zip(pairs, pairs[1:])]
    names = [a for p in pairs for a in p]
    expected = [frozenset(p[i >= j] for i, p in enumerate(pairs)) for j in range(len(pairs) + 1)]
    return _plain(names, edges), expected


def ring(n: int) -> tuple[Framework, list[frozenset[str]]]:
    """One n-cycle r_0 -> r_1 -> ... -> r_0, a single SCC, with its
    preferred extensions: the even and the odd positions when n is even,
    only the empty set when n is odd."""
    names = [f"r{i:04d}" for i in range(n)]
    edges = [(names[i], names[(i + 1) % n]) for i in range(n)]
    if n % 2:
        return _plain(names, edges), [frozenset()]
    return _plain(names, edges), [frozenset(names[0::2]), frozenset(names[1::2])]


def mapped_framework(
    rng: random.Random, fmap: SemanticMap, max_args: int = 7, max_exprs: int = 2, attack_prob: float = 0.2
) -> Framework:
    """Arguments with 1..max_exprs expressions drawn from the map, on a
    spanning cycle half of the time, plus random arglet attacks."""
    symbols = sorted(fmap.symbols)
    n = rng.randint(1, max_args)
    arglets = []
    for i in range(n):
        for symbol in rng.sample(symbols, min(len(symbols), rng.randint(1, max_exprs))):
            arglets.append((f"a{i}", symbol))
    attacks = {(src, dst) for src in arglets for dst in arglets if rng.random() < attack_prob}
    if rng.random() < 0.5:
        heads = [next(al for al in arglets if al[0] == f"a{i}") for i in range(n)]
        attacks |= {(heads[i], heads[(i + 1) % n]) for i in range(n) if n > 1}
    return Framework(frozenset(arglets), frozenset(attacks))


def random_single_scc_framework(
    rng: random.Random, max_args: int = 8, min_args: int = 1, chord_prob: float = 0.2, doubled: float = 0.0
) -> Framework:
    """Strongly connected framework: a spanning cycle plus random chords
    between arglets, self-attacks among them.  Each argument has a second
    arglet with probability `doubled`."""
    n = rng.randint(min_args, max_args)
    heads = [(f"a{i}", f"e{i}") for i in range(n)]
    arglets = heads + [(a, f"{e}b") for a, e in heads if doubled and rng.random() < doubled]
    attacks = {(heads[i], heads[(i + 1) % n]) for i in range(n)} if n > 1 else set()
    for src in arglets:
        for dst in arglets:
            if rng.random() < chord_prob:
                attacks.add((src, dst))
    return Framework(frozenset(arglets), frozenset(attacks))


def conservative_instance(rng: random.Random):
    """Framework, lattice, and map on which a whole-cycle merge is conservative
    and every coarser merge of the same targets stays conservative.

    Shape: k pairwise-incomparable atoms carrying a k-cycle of arguments, a
    hub above all of them continued by a chain, externals on a separate atom
    incomparable with the whole chain, and M = {top}.
    """
    k = rng.randint(2, 4)
    chain_len = rng.randint(0, 3)
    atoms = [f"x{i}" for i in range(k)]
    interval = ["hub"] + [f"m{i}" for i in range(chain_len)]
    nodes = ["bot", "beta", "top"] + atoms + interval
    covers = [("bot", a) for a in atoms] + [("bot", "beta")]
    covers += [(a, "hub") for a in atoms]
    for lower, upper in zip(interval, interval[1:]):
        covers.append((lower, upper))
    covers += [(interval[-1], "top"), ("beta", "top")]
    lattice = validate_lattice(nodes, covers)

    assignments = {f"e{i}": atoms[i] for i in range(k)}
    assignments["eb"] = "beta"
    for node in interval:
        assignments[f"g_{node}"] = node
    fmap = SemanticMap(assignments)

    arglets = [(f"a{i}", f"e{i}") for i in range(k)]
    attacks = {(arglets[i], arglets[(i + 1) % k]) for i in range(k)}
    externals = rng.randint(1, 2)
    for b in range(externals):
        bal = (f"b{b}", "eb")
        arglets.append(bal)
        victim = arglets[rng.randrange(k)]
        if rng.random() < 0.5:
            attacks.add((bal, victim))
        else:
            attacks.add((victim, bal))
    framework = Framework(frozenset(arglets), frozenset(attacks))

    targets = frozenset(f"a{i}" for i in range(k))
    return framework, lattice, fmap, frozenset({"top"}), targets, interval


def multi_hub_instance(rng: random.Random, outsiders: int = 0):
    """Framework, lattice, map and M = {top} where one SCC can hold a
    conservative group under each of several hubs.

    Shape: a flower with two or three hubs of two or three atoms each and up
    to two loose atoms under the top, one expression per node between
    bottom and top, and a spanning cycle plus chords over arguments on
    distinct atoms.  Now and then one more argument sits on a hub or a
    repeated atom, which can break compatibility.  Each of `outsiders`
    arguments off the cycle sits on an atom or a hub and attacks one cycle
    member or is attacked by it, which can break attack preservation.
    """
    covers = []
    atoms = []
    hubs = [f"h{i}" for i in range(rng.randint(2, 3))]
    for hub in hubs:
        for _ in range(rng.randint(2, 3)):
            atom = f"x{len(atoms)}"
            atoms.append(atom)
            covers += [("bot", atom), (atom, hub)]
        covers.append((hub, "top"))
    for _ in range(rng.randint(0, 2)):
        atom = f"x{len(atoms)}"
        atoms.append(atom)
        covers += [("bot", atom), (atom, "top")]
    lattice = validate_lattice(atoms + hubs + ["bot", "top"], covers)
    fmap = SemanticMap({f"e_{node}": node for node in atoms + hubs})

    picks = rng.sample(atoms, rng.randint(2, min(6, len(atoms))))
    if rng.random() < 0.3:
        picks.append(rng.choice(atoms + hubs))
    rng.shuffle(picks)
    arglets = [(f"a{i}", f"e_{node}") for i, node in enumerate(picks)]
    n = len(arglets)
    attacks = {(arglets[i], arglets[(i + 1) % n]) for i in range(n)}
    attacks |= {(s, d) for s in arglets for d in arglets if s != d and rng.random() < 0.15}
    for i in range(outsiders):
        outsider, member = (f"o{i}", f"e_{rng.choice(atoms + hubs)}"), rng.choice(arglets[:n])
        attacks.add((outsider, member) if rng.random() < 0.5 else (member, outsider))
        arglets.append(outsider)
    framework = Framework(frozenset(arglets), frozenset(attacks))
    return framework, lattice, fmap, frozenset({"top"})


def ring_instance(rng: random.Random):
    """Framework, lattice, map and M = {top}: a ring of 2k arguments, k from
    2 to 4, whose members alternate between the atoms of two hubs.  Only
    the ring's attacks join them, so the members under one hub never attack
    each other, and any of them left out of a group leaves it growable."""
    covers, atoms = [], {hub: [] for hub in ("h0", "h1")}
    for hub, under in atoms.items():
        for _ in range(rng.randint(2, 3)):
            under.append(f"x{sum(map(len, atoms.values()))}")
            covers += [("bot", under[-1]), (under[-1], hub)]
        covers.append((hub, "top"))
    nodes = [x for under in atoms.values() for x in under]
    lattice = validate_lattice(nodes + list(atoms) + ["bot", "top"], covers)
    fmap = SemanticMap({f"e_{x}": x for x in nodes})
    n = 2 * rng.randint(2, 4)
    arglets = [(f"a{i}", f"e_{rng.choice(atoms[f'h{i % 2}'])}") for i in range(n)]
    attacks = {(arglets[i], arglets[(i + 1) % n]) for i in range(n)}
    return Framework.of(arglets, attacks), lattice, fmap, frozenset({"top"})


def hub_pairs_document(pairs, loners=(), squares=()) -> str:
    """`.afo` text over bot < p, q < hub < top with M = {top}.  Each pair
    (x, y) is an SCC of x asserting ep at p and y asserting eq at q that
    attack each other, so it merges at hub into the id "x+y" sorted; each
    loner asserts ep and attacks nothing.

    Squares add a second hub over atoms r and s.  Each square (w, x, y, z)
    is the SCC w -> x -> y -> z -> w with w asserting ep, x er, y eq and z
    es, so it keeps two groups, {w, y} at hub and {x, z} at hub2, and every
    square doubles the number of derived frameworks."""
    lines = ["node bot", "node p", "node q", "node hub", "node top"]
    lines += [f"cover {c} {p}" for c, p in [("bot", "p"), ("bot", "q"), ("p", "hub"), ("q", "hub"), ("hub", "top")]]
    lines += ["map ep p", "map eq q"]
    if squares:
        lines += ["node r", "node s", "node hub2"]
        lines += [f"cover {c} {p}" for c, p in [("bot", "r"), ("bot", "s"), ("r", "hub2"), ("s", "hub2"), ("hub2", "top")]]
        lines += ["map er r", "map es s"]
    for x, y in pairs:
        lines += [f"arglet {x} ep", f"arglet {y} eq", f"attack {x}.ep {y}.eq", f"attack {y}.eq {x}.ep"]
    lines += [f"arglet {z} ep" for z in loners]
    for square in squares:
        ring = list(zip(square, ["ep", "er", "eq", "es"]))
        lines += [f"arglet {a} {e}" for a, e in ring]
        lines += [f"attack {a}.{e} {b}.{f}" for (a, e), (b, f) in zip(ring, ring[1:] + ring[:1])]
    return "\n".join(lines) + "\n"
