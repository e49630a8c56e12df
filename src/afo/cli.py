"""Command line driver and the `.afo` interchange format.

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

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .abstraction import conservativity_report
from .af import Arglet, Framework
from .errors import (
    AfoError,
    AfoSyntaxError,
    DuplicateDeclaration,
    UnknownReference,
)
from .galois import SemanticMap
from .lattice import FiniteLattice, validate_lattice
from .pipeline import (
    SharpeningReport,
    _derive,
    _group_scan,
    _GroupScan,
    sharpen,
)
from .semantics import cf2, grounded_labelling, preferred, preferred_bruteforce

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


# ---------------------------------------------------------------- output


def _fmt_set(items) -> str:
    return "{" + ", ".join(sorted(items)) + "}"


def _json_framework(framework: Framework) -> dict:
    return {
        "arglets": [[a, e] for a, e in sorted(framework.arglets)],
        "attacks": [
            [[s, se], [d, de]] for (s, se), (d, de) in sorted(framework.attacks)
        ],
    }


def _json_extensions(extensions) -> list:
    return [sorted(e) for e in extensions]


def _json_sigma(report_frameworks, provenance) -> list:
    out = []
    for framework, steps in zip(report_frameworks, provenance):
        out.append(
            {
                "framework": _json_framework(framework),
                "provenance": [
                    {
                        "scc": sorted(step.scc),
                        "targets": sorted(step.targets),
                        "abstract": {
                            "id": step.abstract_arg.arg_id,
                            "expressions": sorted(step.abstract_arg.expressions),
                        },
                    }
                    for step in steps
                ],
            }
        )
    return out


def _json_classification(report: SharpeningReport) -> dict:
    return {
        v.arg_id: {
            "concrete_status": v.concrete_status,
            "sharpened": sorted(v.sharpened),
            "sets_containing": v.sets_containing,
            "extensions_containing": v.extensions_containing,
        }
        for v in report.verdicts
    }


def _dump(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _dot(framework: Framework) -> str:
    ids, edges = framework.dung_projection()
    lines = ["digraph framework {"]
    for arg in sorted(ids):
        exprs = ",".join(sorted(framework.argument_expressions(arg)))
        lines.append(f'  "{arg}" [label="{arg}\\n{exprs}"];')
    for src, dst in sorted(edges):
        lines.append(f'  "{src}" -> "{dst}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------ subcommands


def _cmd_validate(args, model: AfoModel, document: AfoDocument) -> int:
    print(
        f"ok: {len(document.nodes)} nodes, {len(document.covers)} covers, "
        f"{len(model.framework.arguments())} arguments, {len(document.arglets)} arglets, "
        f"{len(document.attacks)} attacks, M={_fmt_set(model.blocked)}"
    )
    return 0


def _cmd_semantics(args, model: AfoModel, document: AfoDocument) -> int:
    if args.sem == "grounded":
        labelling = grounded_labelling(model.framework)
        if args.json:
            _dump({"framework": _json_framework(model.framework), "semantics": "grounded", "labelling": labelling})
        else:
            for arg in sorted(labelling):
                print(f"{arg}: {labelling[arg]}")
        return 0
    extensions = preferred(model.framework) if args.sem == "preferred" else cf2(model.framework)
    if args.json:
        _dump(
            {
                "framework": _json_framework(model.framework),
                "semantics": args.sem,
                "concrete": _json_extensions(extensions),
            }
        )
    else:
        for e in extensions:
            print(_fmt_set(e))
    return 0


def _explain(model: AfoModel, scan: _GroupScan) -> None:
    framework, lat = model.framework, model.lattice
    for scc, groups in scan:
        if len(scc) < 2:
            continue
        print(f"scc {_fmt_set(scc)}:")
        if not groups:
            print("  no conservative group")
            continue
        for candidate, xmap in groups:
            report = conservativity_report(framework, lat, xmap, model.blocked, candidate)
            expr = sorted(candidate.abstract_arg.expressions)[0]
            print(f"  group {_fmt_set(candidate.targets)} -> {candidate.abstract_arg.arg_id} at {report.merged_node} (via {expr})")
            growth = "; ".join(_fmt_set(g) for g in report.growth_witnesses)
            print(f"    valid: {'yes (no larger abstractable group in the scc)' if report.valid else 'NO: abstracts ' + growth}")
            print(
                f"    non-trivial: {'yes' if report.non_trivial else 'NO'} "
                f"({report.merged_node} {'not in' if report.non_trivial else 'in'} M={_fmt_set(report.blocked_nodes)})"
            )
            if report.compatible:
                print("    compatible: yes (no comparable internal attack)")
            else:
                pairs = "; ".join(f"{a}.{e1} vs {b}.{e2}" for a, e1, b, e2 in report.internal_conflicts)
                print(f"    compatible: NO ({pairs})")
            print(f"    attack-preserving: {'yes' if report.attack_preserving else 'NO'}")
            for ext, node, comparable in report.external_checks:
                print(f"      external {ext} at {node}: {'COMPARABLE' if comparable else 'incomparable'}")
            print(f"    => {'conservative' if report.conservative else 'not conservative'}")


def _cmd_abstract(args, model: AfoModel, document: AfoDocument) -> int:
    scan = _group_scan(model.framework, model.lattice, model.fmap, model.blocked)
    result = _derive(model.framework, model.fmap, scan)
    if args.explain:
        _explain(model, scan)
    if args.json:
        _dump(
            {
                "framework": _json_framework(model.framework),
                "sigma": _json_sigma(result.frameworks, result.provenance),
            }
        )
    elif not args.explain:
        for i, (framework, steps) in enumerate(zip(result.frameworks, result.provenance), start=1):
            print(f"framework {i}:")
            ids, edges = framework.dung_projection()
            print(f"  arguments: {_fmt_set(ids)}")
            for src, dst in sorted(edges):
                print(f"  attack: {src} -> {dst}")
            for step in steps:
                print(
                    f"  replaced {_fmt_set(step.targets)} in scc {_fmt_set(step.scc)} "
                    f"with {step.abstract_arg.arg_id} [{', '.join(sorted(step.abstract_arg.expressions))}]"
                )
    if args.emit_dot:
        base = Path(args.file)
        for i, framework in enumerate(result.frameworks, start=1):
            target = base.with_suffix(f".abs{i}.dot")
            target.write_text(_dot(framework), encoding="utf-8")
            print(f"wrote {target}", file=sys.stderr)
    return 0


def _cmd_sharpen(args, model: AfoModel, document: AfoDocument) -> int:
    report = sharpen(model.framework, model.lattice, model.fmap, model.blocked)

    if args.oracle:
        checks = [("concrete", model.framework, list(report.concrete))]
        checks.extend(
            (f"abstract[{i}]", fw, list(p))
            for i, (fw, p) in enumerate(zip(report.derivation.frameworks, report.abstract_preferred))
        )
        for label, framework, got in checks:
            expected = preferred_bruteforce(framework)
            if got != expected:
                print(
                    f"oracle mismatch on {label}: enumeration {_json_extensions(got)} "
                    f"!= brute force {_json_extensions(expected)}",
                    file=sys.stderr,
                )
                return 2

    if args.json:
        _dump(
            {
                "framework": _json_framework(report.framework),
                "sigma": _json_sigma(report.derivation.frameworks, report.derivation.provenance),
                "concrete": _json_extensions(report.concrete),
                "abstract_preferred": [_json_extensions(p) for p in report.abstract_preferred],
                "projected": [_json_extensions(p) for p in report.projected],
                "classification": _json_classification(report),
            }
        )
    else:
        print(f"concrete preferred: {', '.join(_fmt_set(e) for e in report.concrete)}")
        print(f"derived frameworks: {len(report.derivation.frameworks)}")
        for i, projection in enumerate(report.projected, start=1):
            print(f"projection {i}: {', '.join(_fmt_set(e) for e in projection) or '(none)'}")
        for v in report.verdicts:
            sharpened = ", ".join(sorted(v.sharpened)) or "(none)"
            print(f"{v.arg_id}: {v.concrete_status} -> {sharpened}")
    return 0


class _Parser(argparse.ArgumentParser):
    # input problems exit 1; 2 is reserved for invariant violations
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="afo", description="lattice-aware argumentation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a .afo file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("semantics", help="extension sets or grounded labelling")
    p.add_argument("file")
    p.add_argument("--sem", required=True, choices=["preferred", "cf2", "grounded"])
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_semantics)

    p = sub.add_parser("abstract", help="derive abstract-space frameworks")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--explain", action="store_true", help="per-condition conservativity verdicts")
    p.add_argument("--emit-dot", action="store_true", help="write a DOT file per derived framework")
    p.set_defaults(func=_cmd_abstract)

    p = sub.add_parser("sharpen", help="full abstraction-sharpened report")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--oracle", action="store_true", help="cross-check preferred sets against brute force")
    p.set_defaults(func=_cmd_sharpen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        model, document, warnings = load_afo(args.file)
        for w in warnings:
            print(w, file=sys.stderr)
        return args.func(args, model, document)
    except AfoError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
