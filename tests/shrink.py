"""Delta debugging of `.afo` documents (Zeller and Hildebrandt,
"Simplifying and isolating failure-inducing input", IEEE TSE 2002).

`shrink(text, fails)` takes a document on which `fails` holds and keeps
dropping parts of it while `fails` still holds: first whole lines, then
single tokens of the lines left.  No single line of a lattice node can go
alone, as its covers would name an unknown node and the diagram without
them may be no lattice, so between the two a third pass drops whole nodes,
each with every line that names it, its children joined to its parents.
The result is 1-minimal: dropping any one more line, node or token makes
`fails` false.  `fails` should answer
False, not raise, on a document the package rejects.  Standard library
only.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

from oracles import oracle_lattice_error

T = TypeVar("T")


def ddmin(items: Sequence[T], fails: Callable[[list[T]], bool]) -> list[T]:
    """A 1-minimal sublist of `items`, in their order, on which `fails`
    holds, given that it holds on `items`.  The list is cut into n chunks,
    n = 2 first: a failing chunk becomes the list and n goes back to 2; a
    failing complement of a chunk becomes the list and n drops by one;
    else n doubles, until the chunks are single items.  Each sublist is
    tested once."""
    items = list(items)
    seen: dict[tuple, bool] = {}

    def test(sub: list[T]) -> bool:
        key = tuple(sub)
        if key not in seen:
            seen[key] = fails(sub)
        return seen[key]

    n = 2
    while len(items) >= 2:
        size = -(-len(items) // n)
        chunks = [items[i : i + size] for i in range(0, len(items), size)]
        complements = [[x for c in chunks[:i] + chunks[i + 1 :] for x in c] for i in range(len(chunks))]
        if sub := next((c for c in chunks if test(c)), None):
            items, n = sub, 2
        elif sub := next((c for c in complements if len(chunks) > 2 and test(c)), None):
            items, n = sub, max(n - 1, 2)
        elif n < len(items):
            n = min(2 * n, len(items))
        else:
            break
    return items


def shrink(text: str, fails: Callable[[str], bool]) -> str:
    """A 1-minimal document on which `fails` holds, over lines and nodes,
    then over tokens.  Blank lines go first, and tokens are rejoined by one
    space.  Lines and nodes take turns until neither pass drops anything."""
    lines = [" ".join(line.split()) for line in text.splitlines() if line.split()]
    while True:
        lines = ddmin(lines, lambda sub: fails(_text(sub)))
        fewer = drop_nodes(lines, lambda sub: fails(_text(sub)))
        if fewer == lines:
            break
        lines = fewer
    tokens = ddmin([(i, t) for i, line in enumerate(lines) for t in line.split()], lambda sub: fails(_regroup(sub)))
    return _regroup(tokens)


# per lattice directive, the positions of its arguments that name a node
_NODE_PLACES = {"node": (1,), "cover": (1, 2), "general": (1,), "map": (2,)}


def _names(line: str, node: str) -> bool:
    tokens = line.split()
    return any(i < len(tokens) and tokens[i] == node for i in _NODE_PLACES.get(tokens[0], ()))


def _declared(lines: list[str], keyword: str, arity: int) -> list[list[str]]:
    return [tokens[1:] for tokens in map(str.split, lines) if tokens[:1] == [keyword] and len(tokens) == arity + 1]


def _above(covers: list[tuple[str, str]], node: str) -> set[str]:
    """The nodes the covers lead to from `node`, itself included."""
    seen, todo = {node}, [node]
    while todo:
        child = todo.pop()
        for c, p in covers:
            if c == child and p not in seen:
                seen.add(p)
                todo.append(p)
    return seen


def without_node(lines: list[str], node: str) -> list[str]:
    """The lines without `node` and every line that names it (its `node`,
    `cover`, `general` and `map` lines), its children joined to its
    parents where nothing else leads from one to the other: the order
    among the nodes left is the order they had."""
    covers = [(c, p) for c, p in _declared(lines, "cover", 2)]
    kept = [(c, p) for c, p in covers if node not in (c, p)]
    bridges = [
        f"cover {c} {p}"
        for c, v in covers
        if v == node
        for w, p in covers
        if w == node and p not in _above(kept, c)
    ]
    first = next((i for i, line in enumerate(lines) if _names(line, node) and line.split()[0] == "cover"), len(lines))
    return [line for line in lines[:first] if not _names(line, node)] + bridges + [
        line for line in lines[first:] if not _names(line, node)
    ]


def drop_nodes(lines: list[str], fails: Callable[[list[str]], bool]) -> list[str]:
    """The lines without every lattice node that can go: each declared node
    in turn leaves (`without_node`) when the `node` and `cover` lines left
    still form a lattice and `fails` still holds on what is left."""
    for (node,) in _declared(lines, "node", 1):
        rest = without_node(lines, node)
        nodes = [n for (n,) in _declared(rest, "node", 1)]
        if nodes and oracle_lattice_error(nodes, _declared(rest, "cover", 2)) is None and fails(rest):
            lines = rest
    return lines


def _text(lines) -> str:
    return "".join(line + "\n" for line in lines)


def _regroup(tokens: list[tuple[int, str]]) -> str:
    """The document of the tokens, each tagged with its line's number."""
    lines: dict[int, list[str]] = {}
    for i, token in tokens:
        lines.setdefault(i, []).append(token)
    return _text(" ".join(line) for line in lines.values())
