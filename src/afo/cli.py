"""Command line driver: `afo validate|semantics|abstract|sharpen <file>`
on one file in the `.afo` format (see `afo.format`).
"""

from __future__ import annotations

import argparse
import functools
import sys
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .abstraction import AbstractionCandidate, _report, _ScanTable
from .af import Framework, strongly_connected_components
from .errors import AfoError
# parse_afo and build_model stay bound here: bench/tracing.py traces them as afo.cli.*
from .format import AfoModel, build_model, load_afo, parse_afo
from .pipeline import AbstractionResult, SharpeningReport, derive_abstract_frameworks, sharpen
from .semantics import cf2, grounded_labelling, preferred, preferred_bruteforce


# ---------------------------------------------------------------- output


def _fmt_set(items) -> str:
    return "{" + ", ".join(sorted(items)) + "}"


class _Arglets(list):
    """`[[argument, expression], ...]`, written by `_arglets_text`."""

    __slots__ = ()


class _Attacks(list):
    """`[[[source, expression], [target, expression]], ...]`, written by
    `_attacks_text`."""

    __slots__ = ()


class _Verdicts(dict):
    """`{argument: {"concrete_status", "sharpened", "sets_containing",
    "extensions_containing"}}`, written by `_verdicts_text`."""

    __slots__ = ()


def _json_framework(framework: Framework) -> dict:
    return {
        "arglets": _Arglets([[a, e] for a, e in sorted(framework.arglets)]),
        "attacks": _Attacks(
            [[[s, se], [d, de]] for (s, se), (d, de) in sorted(framework.attacks)]
        ),
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
    return _Verdicts(
        {
            v.arg_id: {
                "concrete_status": v.concrete_status,
                "sharpened": sorted(v.sharpened),
                "sets_containing": v.sets_containing,
                "extensions_containing": v.extensions_containing,
            }
            for v in report.verdicts
        }
    )


def _arglets_text(value: _Arglets, indent: str) -> str:
    n1, n2 = "\n" + indent + "  ", "\n" + indent + "    "
    body = ("," + n1).join([f"[{n2}{_quote(a)},{n2}{_quote(e)}{n1}]" for a, e in value])
    return f"[{n1}{body}\n{indent}]"


def _attacks_text(value: _Attacks, indent: str) -> str:
    n1, n2, n3 = "\n" + indent + "  ", "\n" + indent + "    ", "\n" + indent + "      "
    body = ("," + n1).join(
        [
            f"[{n2}[{n3}{_quote(s)},{n3}{_quote(se)}{n2}],{n2}[{n3}{_quote(d)},{n3}{_quote(de)}{n2}]{n1}]"
            for (s, se), (d, de) in value
        ]
    )
    return f"[{n1}{body}\n{indent}]"


def _verdicts_text(value: _Verdicts, indent: str) -> str:
    n1, n2, n3 = "\n" + indent + "  ", "\n" + indent + "    ", "\n" + indent + "      "
    items = []
    for arg in sorted(value):
        v = value[arg]
        sharpened = v["sharpened"]
        marks = f"[{n3}{(',' + n3).join(map(_quote, sharpened))}{n2}]" if sharpened else "[]"
        items.append(
            f"{_quote(arg)}: {{{n2}"
            f'"concrete_status": {_quote(v["concrete_status"])},{n2}'
            f'"extensions_containing": {_json(v["extensions_containing"])},{n2}'
            f'"sets_containing": {_json(v["sets_containing"])},{n2}'
            f'"sharpened": {marks}{n1}}}'
        )
    return f"{{{n1}{(',' + n1).join(items)}\n{indent}}}"


# a tagged value's writer and its plain form
_TEMPLATES = {
    _Arglets: (_arglets_text, list),
    _Attacks: (_attacks_text, list),
    _Verdicts: (_verdicts_text, dict),
}


def _json(value, indent: str = "") -> str:
    """`value` exactly as `json.dumps(value, indent=2, sort_keys=True)`
    writes it, for the types the `_json_*` builders produce: dicts with
    str keys, lists, str and int (not bool).  Anything else is a TypeError.
    The stdlib falls back to its pure-Python encoder once `indent` is set;
    this writer is that encoder cut down to those types.

    Three shapes carry most of the bytes, and their builders tag them:
    `_json_framework` returns its arglets as `_Arglets` and its attacks as
    `_Attacks`, `_json_classification` returns `_Verdicts`.  Each is written
    by a template, one f-string per arglet, attack or argument with indents
    computed once per call, and the bytes stay those of `json.dumps`.  A
    tagged value whose items the template cannot write (a non-str id, a
    bool count) goes to the generic path as its plain form, so it prints,
    or raises, exactly as the plain form would."""
    if type(value) is str:
        return _quote(value)
    if type(value) is int:
        return int.__repr__(value)
    if not value:
        if type(value) is list:
            return "[]"
        if type(value) is dict:
            return "{}"
    inner = indent + "  "
    sep = ",\n" + inner
    if type(value) is list:
        if all(type(item) is str for item in value):
            body = sep.join(map(_quote, value))
        else:
            body = sep.join([_json(item, inner) for item in value])
        return f"[\n{inner}{body}\n{indent}]"
    if type(value) is dict:
        if not all(type(key) is str for key in value):
            raise TypeError(f"keys must be str: {sorted(map(repr, value))}")
        body = sep.join([f"{_quote(key)}: {_json(value[key], inner)}" for key in sorted(value)])
        return f"{{\n{inner}{body}\n{indent}}}"
    tagged = _TEMPLATES.get(type(value))
    if tagged is None:
        raise TypeError(f"{type(value).__name__} is not one of the JSON types afo writes")
    template, plain = tagged
    if not value:
        return _json(plain(), indent)
    try:
        return template(value, indent)
    except (TypeError, ValueError, LookupError):
        return _json(plain(value), indent)


def _dump(payload: dict) -> None:
    print(_json(payload))


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _dot(framework: Framework) -> str:
    lines = ["digraph framework {"]
    for arg in framework.arguments():
        exprs = _dot_escape(",".join(sorted(arg.expressions)))
        lines.append(f'  "{_dot_escape(arg.arg_id)}" [label="{_dot_escape(arg.arg_id)}\\n{exprs}"];')
    for src, dst in sorted(framework.dung_projection()[1]):
        lines.append(f'  "{_dot_escape(src)}" -> "{_dot_escape(dst)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------ subcommands


def _cmd_validate(args, model: AfoModel) -> int:
    print(
        f"ok: {len(model.lattice.nodes)} nodes, {len(model.lattice.covers)} covers, "
        f"{len(model.framework.argument_ids())} arguments, {len(model.framework.arglets)} arglets, "
        f"{len(model.framework.attacks)} attacks, M={_fmt_set(model.blocked)}"
    )
    return 0


def _cmd_semantics(args, model: AfoModel) -> int:
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


def _explain(model: AfoModel, result: AbstractionResult) -> None:
    """Each SCC of two or more arguments with the replacements the
    derivation made in it, in scan order."""
    framework = model.framework
    table = _ScanTable(framework, model.lattice, result.fmap)
    made = {steps[0].scc: steps for steps in result.replacements}
    for scc in strongly_connected_components(framework):
        if len(scc) < 2:
            continue
        print(f"scc {_fmt_set(scc)}:")
        if scc not in made:
            print("  no conservative group")
            continue
        for step in made[scc]:
            candidate = AbstractionCandidate(step.targets, step.abstract_arg)
            report = _report(table, model.blocked, candidate)
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


def _cmd_abstract(args, model: AfoModel) -> int:
    result = derive_abstract_frameworks(model.framework, model.lattice, model.fmap, model.blocked)
    if args.explain:
        _explain(model, result)
    elif args.json:
        _dump(
            {
                "framework": _json_framework(model.framework),
                "sigma": _json_sigma(result.frameworks, result.provenance),
            }
        )
    else:
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


def _cmd_sharpen(args, model: AfoModel) -> int:
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
    shown = p.add_mutually_exclusive_group()
    shown.add_argument("--json", action="store_true")
    shown.add_argument("--explain", action="store_true", help="per-condition conservativity verdicts")
    p.add_argument("--emit-dot", action="store_true", help="write a DOT file per derived framework")
    p.set_defaults(func=_cmd_abstract)

    p = sub.add_parser("sharpen", help="full abstraction-sharpened report")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--oracle", action="store_true", help="cross-check preferred sets against brute force")
    p.set_defaults(func=_cmd_sharpen)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Saves the build only where one process calls main() several times (the
    # benchmark, the tests); a one-shot `afo` run builds it once either way.
    # Built on the first call, not at import; parse_args leaves it unchanged.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        model, _, warnings = load_afo(args.file)
        for w in warnings:
            print(w, file=sys.stderr)
        return args.func(args, model)
    except AfoError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
