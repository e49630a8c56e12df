"""The `.afo` interchange format.

One UTF-8 text file carries the whole problem: the lattice, the
expression map, and the framework; a leading byte order mark is ignored.
`#` starts a comment; the rest is whitespace-separated directives, one per
line, in any order:

    node <id>                 declare a lattice node
    cover <child> <parent>    Hasse edge: parent covers child
    general <node>            generator of the too-general upper set M
    expr <symbol>             declare an expression (optional; `map` implies it)
    map <symbol> <node>       assign an expression to a node
    arglet <arg> <symbol>     argument id asserting an expression
    attack <a>.<e> <b>.<f>    arglet-level attack
    attack <a> <b>            sugar: expands to all arglet pairs (warning W001)

Every declared expression must be mapped; dotted attack endpoints must be
declared arglets.  Without a `general` directive M defaults to {top}.
Duplicate attack pairs merge silently; any other duplicate declaration is
an error.  Identifiers may not contain '.', which is reserved for the
attack syntax.
"""

from __future__ import annotations

import codecs
from dataclasses import dataclass
from pathlib import Path

from .af import Arglet, Framework
from .errors import AfoSyntaxError, DuplicateDeclaration, UnknownReference
from .galois import SemanticMap
from .lattice import FiniteLattice, validate_lattice

# keyword -> (arity, message for a repeated declaration, whether it is keyed
# by all its identifiers); repeated attacks merge
_DIRECTIVES = {
    "node": (1, "node {!r} already declared", False),
    "cover": (2, "cover {} {} already declared", True),
    "general": (1, "general {!r} already declared", False),
    "expr": (1, "expr {!r} already declared", False),
    "map": (2, "expression {!r} already mapped", False),
    "arglet": (2, "arglet {} {} already declared", True),
    "attack": (2, None, False),
}


@dataclass(frozen=True)
class AfoDocument:
    """Parsed, resolved content of one `.afo` file; all fields sorted."""

    nodes: tuple[str, ...]
    covers: tuple[tuple[str, str], ...]
    generals: tuple[str, ...]
    assignments: tuple[tuple[str, str], ...]
    arglets: tuple[Arglet, ...]
    attacks: tuple[tuple[Arglet, Arglet], ...]


@dataclass(frozen=True)
class AfoModel:
    lattice: FiniteLattice
    fmap: SemanticMap
    framework: Framework
    blocked: frozenset[str]


def _plain_id(token: str, line: int) -> str:
    if "." in token:
        raise AfoSyntaxError(line, f"identifier {token!r} may not contain '.'")
    return token


def parse_afo(text: str) -> tuple[AfoDocument, list[str]]:
    """Parse and resolve a document; returns it with any warnings."""
    # per keyword, key -> (identifiers, line), the identifiers a tuple without
    # the keyword.  A line's split list keeps room for a dozen tokens, and
    # CPython keeps a freed tuple on a free list per size, where tracemalloc
    # still counts it: storing the lists, or 3-tuples that hold the keyword,
    # raises the loader's peak.  For the same peak `load_afo` lets its file
    # object go before the parse.  A cover or an arglet is keyed by all its
    # identifiers, any other declaration by its first.
    decls: dict[str, dict] = {keyword: {} for keyword in _DIRECTIVES}
    dotted: list[tuple[Arglet, Arglet, int]] = []
    sugar: list[tuple[str, str, int]] = []

    # one split per line, which drops the whitespace `strip()` would; a
    # token holds a '.' only on a line that does
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        keyword = tokens.pop(0)
        try:
            arity, duplicate, whole = _DIRECTIVES[keyword]
        except KeyError:
            raise AfoSyntaxError(lineno, f"unknown directive {keyword!r}") from None
        if len(tokens) != arity:
            raise AfoSyntaxError(lineno, f"{keyword} takes {arity} argument(s), got {len(tokens)}")

        if duplicate is not None:
            rest = tuple(tokens)
            if "." in line:
                for token in rest:
                    _plain_id(token, lineno)
            table = decls[keyword]
            key = rest if whole else rest[0]
            if key in table:
                raise DuplicateDeclaration(lineno, duplicate.format(*rest))
            table[key] = (rest, lineno)
        else:  # attack
            first, second = tokens
            if ("." in first) != ("." in second):
                raise AfoSyntaxError(lineno, "attack endpoints must both be arglets or both argument ids")
            if "." in first:
                pieces = first.split(".") + second.split(".")
                if len(pieces) != 4 or not all(pieces):
                    raise AfoSyntaxError(lineno, "arglet attack endpoints must look like <arg>.<expr>")
                dotted.append(((pieces[0], pieces[1]), (pieces[2], pieces[3]), lineno))
            else:
                sugar.append((first, second, lineno))

    # resolution: everything may forward-reference, so check against the
    # complete declaration sets, and replace each reference in the tables by
    # its declaration's object (the string of a `node` or `map` line, the id
    # of an argument's first `arglet` line, the tuple of an `arglet` line);
    # a failed lookup looks for the reference to report
    nodes, assignments, arglets = decls["node"], decls["map"], decls["arglet"]
    for keyword, places in (("cover", (0, 1)), ("general", (0,)), ("map", (1,))):
        table = decls[keyword]
        for key, (ids, lineno) in table.items():
            try:
                first = ids[0] if keyword == "map" else nodes[ids[0]][0][0]
                table[key] = first if keyword == "general" else (first, nodes[ids[1]][0][0])
            except KeyError:
                for i in places:
                    if ids[i] not in nodes:
                        raise UnknownReference(lineno, f"{keyword} references undeclared node {ids[i]!r}") from None
    for (symbol,), lineno in decls["expr"].values():
        if symbol not in assignments:
            raise UnknownReference(lineno, f"expression {symbol!r} is never mapped to a node")
    # every declared expression is mapped by now
    by_arg: dict[str, list[Arglet]] = {}
    for key, ((arg, symbol), lineno) in arglets.items():
        try:
            symbol = assignments[symbol][0]
        except KeyError:
            raise UnknownReference(lineno, f"arglet references undeclared expression {symbol!r}") from None
        same = by_arg.setdefault(arg, [])
        arglets[key] = arglet = (same[0][0] if same else arg, symbol)
        same.append(arglet)

    warnings: list[str] = []
    attacks: set[tuple[Arglet, Arglet]] = set()
    for src, dst, lineno in dotted:
        try:
            attacks.add((arglets[src], arglets[dst]))
        except KeyError:
            for al in (src, dst):
                if al not in arglets:
                    raise UnknownReference(lineno, f"attack references undeclared arglet {al[0]}.{al[1]}") from None
    for a, b, lineno in sugar:
        for name in (a, b):
            if name not in by_arg:
                raise UnknownReference(lineno, f"attack references unknown argument {name!r}")
        warnings.append(
            f"W001 line {lineno}: attack {a} {b} expanded to all arglet pairs"
        )
        for sal in by_arg[a]:
            for dal in by_arg[b]:
                attacks.add((sal, dal))

    if not arglets:
        raise AfoSyntaxError(1, "no framework: at least one arglet is required")

    document = AfoDocument(
        nodes=tuple(sorted(nodes)),
        covers=tuple(sorted(decls["cover"].values())),
        generals=tuple(sorted(decls["general"].values())),
        assignments=tuple(sorted(assignments.values())),
        arglets=tuple(sorted(arglets.values())),
        attacks=tuple(sorted(attacks)),
    )
    return document, warnings


def serialize_afo(document: AfoDocument) -> str:
    """Canonical text form; parsing it back yields an equal document."""
    lines: list[str] = []
    lines.extend(f"node {n}" for n in document.nodes)
    lines.extend(f"cover {c} {p}" for c, p in document.covers)
    lines.extend(f"general {g}" for g in document.generals)
    lines.extend(f"map {s} {n}" for s, n in document.assignments)
    lines.extend(f"arglet {a} {e}" for a, e in document.arglets)
    lines.extend(f"attack {a}.{e} {b}.{f}" for (a, e), (b, f) in document.attacks)
    return "\n".join(lines) + "\n"


def build_model(document: AfoDocument) -> AfoModel:
    lattice = validate_lattice(document.nodes, document.covers)
    fmap = SemanticMap(dict(document.assignments))
    framework = Framework(frozenset(document.arglets), frozenset(document.attacks))
    generators = document.generals if document.generals else (lattice.top,)
    return AfoModel(lattice, fmap, framework, lattice.upward_closure(generators))


def load_afo(path: str) -> tuple[AfoModel, AfoDocument, list[str]]:
    try:
        file = open(path, "rb")
    except OSError:
        # the path as `Path` spells it (no trailing '/' nor leading './', ''
        # as '.'), which the loader has always read and named in its errors
        file = open(Path(path), "rb")
    # a leading byte order mark is dropped, not decoded by "utf-8-sig",
    # whose error offsets would not count its three bytes
    with file:
        data = file.read().removeprefix(codecs.BOM_UTF8)
    del file  # closed, it still holds memory the parse's peak would count
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # numbered as `parse_afo` numbers lines, by `str.splitlines`
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise AfoSyntaxError(line, f"byte 0x{data[exc.start]:02x} is not valid UTF-8") from None
    del data  # the bytes are not needed while the text is parsed
    document, warnings = parse_afo(text)
    return build_model(document), document, warnings
