"""Delta debugging of `.afo` documents (Zeller and Hildebrandt,
"Simplifying and isolating failure-inducing input", IEEE TSE 2002).

`shrink(text, fails)` takes a document on which `fails` holds and keeps
dropping parts of it while `fails` still holds: first whole lines, then
single tokens of the lines left.  The result is 1-minimal: dropping any
one more line, or any one more token, makes `fails` false.  `fails` should
answer False, not raise, on a document the package rejects.  Standard
library only.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

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
    """A 1-minimal document on which `fails` holds, over lines, then over
    tokens.  Blank lines go first, and tokens are rejoined by one space."""
    lines = ddmin([" ".join(line.split()) for line in text.splitlines() if line.split()], lambda sub: fails(_text(sub)))
    tokens = ddmin([(i, t) for i, line in enumerate(lines) for t in line.split()], lambda sub: fails(_regroup(sub)))
    return _regroup(tokens)


def _text(lines) -> str:
    return "".join(line + "\n" for line in lines)


def _regroup(tokens: list[tuple[int, str]]) -> str:
    """The document of the tokens, each tagged with its line's number."""
    lines: dict[int, list[str]] = {}
    for i, token in tokens:
        lines.setdefault(i, []).append(token)
    return _text(" ".join(line) for line in lines.values())
