"""The `.afo` interchange format.

One text file carries the whole problem: the lattice, the expression map,
and the framework.  `#` starts a comment; the rest is whitespace-separated
directives, one per line, in any order:

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

from dataclasses import dataclass
from pathlib import Path

from .af import Arglet, Framework
from .errors import AfoSyntaxError, DuplicateDeclaration, UnknownReference
from .galois import SemanticMap
from .lattice import FiniteLattice, validate_lattice

_DIRECTIVE_ARITY = {
    "node": 1,
    "cover": 2,
    "general": 1,
    "expr": 1,
    "map": 2,
    "arglet": 2,
    "attack": 2,
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
    nodes: dict[str, int] = {}
    covers: dict[tuple[str, str], int] = {}
    generals: dict[str, int] = {}
    declared_exprs: dict[str, int] = {}
    assignments: dict[str, tuple[str, int]] = {}
    arglets: dict[Arglet, int] = {}
    dotted: list[tuple[Arglet, Arglet, int]] = []
    sugar: list[tuple[str, str, int]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        tokens = body.split()
        keyword, rest = tokens[0], tokens[1:]
        if keyword not in _DIRECTIVE_ARITY:
            raise AfoSyntaxError(lineno, f"unknown directive {keyword!r}")
        if len(rest) != _DIRECTIVE_ARITY[keyword]:
            raise AfoSyntaxError(
                lineno, f"{keyword} takes {_DIRECTIVE_ARITY[keyword]} argument(s), got {len(rest)}"
            )

        if keyword == "node":
            (name,) = rest
            _plain_id(name, lineno)
            if name in nodes:
                raise DuplicateDeclaration(lineno, f"node {name!r} already declared")
            nodes[name] = lineno
        elif keyword == "cover":
            child, parent = (_plain_id(t, lineno) for t in rest)
            if (child, parent) in covers:
                raise DuplicateDeclaration(lineno, f"cover {child} {parent} already declared")
            covers[(child, parent)] = lineno
        elif keyword == "general":
            (name,) = rest
            _plain_id(name, lineno)
            if name in generals:
                raise DuplicateDeclaration(lineno, f"general {name!r} already declared")
            generals[name] = lineno
        elif keyword == "expr":
            (symbol,) = rest
            _plain_id(symbol, lineno)
            if symbol in declared_exprs:
                raise DuplicateDeclaration(lineno, f"expr {symbol!r} already declared")
            declared_exprs[symbol] = lineno
        elif keyword == "map":
            symbol, node = (_plain_id(t, lineno) for t in rest)
            if symbol in assignments:
                raise DuplicateDeclaration(lineno, f"expression {symbol!r} already mapped")
            assignments[symbol] = (node, lineno)
        elif keyword == "arglet":
            arg, symbol = (_plain_id(t, lineno) for t in rest)
            if (arg, symbol) in arglets:
                raise DuplicateDeclaration(lineno, f"arglet {arg} {symbol} already declared")
            arglets[(arg, symbol)] = lineno
        else:  # attack
            first, second = rest
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
    # complete declaration sets
    for (child, parent), lineno in covers.items():
        for name in (child, parent):
            if name not in nodes:
                raise UnknownReference(lineno, f"cover references undeclared node {name!r}")
    for name, lineno in generals.items():
        if name not in nodes:
            raise UnknownReference(lineno, f"general references undeclared node {name!r}")
    for symbol, (node, lineno) in assignments.items():
        if node not in nodes:
            raise UnknownReference(lineno, f"map references undeclared node {node!r}")
    for symbol, lineno in declared_exprs.items():
        if symbol not in assignments:
            raise UnknownReference(lineno, f"expression {symbol!r} is never mapped to a node")
    for (arg, symbol), lineno in arglets.items():
        if symbol not in assignments and symbol not in declared_exprs:
            raise UnknownReference(lineno, f"arglet references undeclared expression {symbol!r}")

    by_arg: dict[str, list[Arglet]] = {}
    for arg, symbol in arglets:
        by_arg.setdefault(arg, []).append((arg, symbol))

    warnings: list[str] = []
    attacks: set[tuple[Arglet, Arglet]] = set()
    for src, dst, lineno in dotted:
        for al in (src, dst):
            if al not in arglets:
                raise UnknownReference(lineno, f"attack references undeclared arglet {al[0]}.{al[1]}")
        attacks.add((src, dst))
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
        covers=tuple(sorted(covers)),
        generals=tuple(sorted(generals)),
        assignments=tuple(sorted((s, n) for s, (n, _) in assignments.items())),
        arglets=tuple(sorted(arglets)),
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
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise AfoSyntaxError(line, f"byte 0x{data[exc.start]:02x} is not valid UTF-8") from None
    document, warnings = parse_afo(text)
    return build_model(document), document, warnings
