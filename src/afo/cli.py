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


def _json_framework(framework: Framework) -> dict:
    return {
        "arglets": [[a, e] for a, e in sorted(framework.arglets)],
        "attacks": [[[s, se], [d, de]] for (s, se), (d, de) in sorted(framework.attacks)],
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


# The writers below return, from the report's own objects, the text that
# `json.dumps(value, indent=2, sort_keys=True)` returns for the value the
# matching `_json_*` builder makes of them; `indent` is the indent of the
# line the value ends on.  The builders stay as their reference.


def _list(texts, indent: str) -> str:
    """A list of item texts already written at `indent` plus two spaces."""
    inner = "\n" + indent + "  "
    body = ("," + inner).join(texts)
    return f"[{inner}{body}\n{indent}]" if body else "[]"


def _dict(items, indent: str) -> str:
    """A dict of (key, text) pairs, in key order, each text written at
    `indent` plus two spaces."""
    inner = "\n" + indent + "  "
    body = ("," + inner).join([f"{_quote(key)}: {text}" for key, text in items])
    return f"{{{inner}{body}\n{indent}}}" if body else "{}"


def _strs(items, indent: str) -> str:
    return _list(map(_quote, items), indent)


def _extensions_text(extensions, indent: str) -> str:
    n2, close = "\n" + indent + "    ", "\n" + indent + "  ]"
    sep = "," + n2
    return _list([f"[{n2}{sep.join(map(_quote, sorted(e)))}{close}" if e else "[]" for e in extensions], indent)


def _arglets_text(arglets, indent: str) -> str:
    n1, n2 = "\n" + indent + "  ", "\n" + indent + "    "
    return _list([f"[{n2}{_quote(a)},{n2}{_quote(e)}{n1}]" for a, e in arglets], indent)


def _attacks_text(attacks, indent: str) -> str:
    n1, n2, n3 = "\n" + indent + "  ", "\n" + indent + "    ", "\n" + indent + "      "
    return _list(
        [
            f"[{n2}[{n3}{_quote(s)},{n3}{_quote(se)}{n2}],{n2}[{n3}{_quote(d)},{n3}{_quote(de)}{n2}]{n1}]"
            for (s, se), (d, de) in attacks
        ],
        indent,
    )


def _framework_text(framework: Framework, indent: str) -> str:
    inner = indent + "  "
    arglets = _arglets_text(sorted(framework.arglets), inner)
    return _dict([("arglets", arglets), ("attacks", _attacks_text(sorted(framework.attacks), inner))], indent)


def _sigma_text(framework: Framework, steps, indent: str) -> str:
    i1, i2, i3, i4 = (indent + " " * n for n in (2, 4, 6, 8))
    provenance = []
    for step in steps:
        merged = step.abstract_arg
        abstract = _dict([("expressions", _strs(sorted(merged.expressions), i4)), ("id", _quote(merged.arg_id))], i3)
        sets = [("scc", _strs(sorted(step.scc), i3)), ("targets", _strs(sorted(step.targets), i3))]
        provenance.append(_dict([("abstract", abstract), *sets], i2))
    return _dict([("framework", _framework_text(framework, i1)), ("provenance", _list(provenance, i1))], indent)


def _verdicts_text(verdicts, indent: str) -> str:
    n2, i2 = "\n" + indent + "    ", indent + "    "
    return _dict(
        [
            (
                v.arg_id,
                f'{{{n2}"concrete_status": {_quote(v.concrete_status)},{n2}'
                f'"extensions_containing": {v.extensions_containing},{n2}'
                f'"sets_containing": {v.sets_containing},{n2}'
                f'"sharpened": {_strs(sorted(v.sharpened), i2)}\n{indent}  }}',
            )
            for v in sorted(verdicts, key=lambda v: v.arg_id)
        ],
        indent,
    )


def _write_json(**sections) -> None:
    """Prints the dict of `sections` as `print(json.dumps(payload, indent=2,
    sort_keys=True))` prints the payload the builders make, one write per
    key: each value is a function returning its text at indent 2, or, for
    a list written one item at a time, an iterable of its items' texts."""
    write = sys.stdout.write
    lead = "{"
    for key in sorted(sections):
        value, head = sections[key], f"{lead}\n  {_quote(key)}: "
        lead = ","
        if callable(value):
            write(head + value())
            continue
        head += "["
        for text in value:
            write(f"{head}\n    {text}")
            head = ","
        write("\n  ]" if head == "," else head + "]")
    write("\n}\n")


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
            _write_json(
                framework=lambda: _framework_text(model.framework, "  "),
                labelling=lambda: _dict([(arg, _quote(labelling[arg])) for arg in sorted(labelling)], "  "),
                semantics=lambda: _quote("grounded"),
            )
        else:
            for arg in sorted(labelling):
                print(f"{arg}: {labelling[arg]}")
        return 0
    extensions = preferred(model.framework) if args.sem == "preferred" else cf2(model.framework)
    if args.json:
        _write_json(
            framework=lambda: _framework_text(model.framework, "  "),
            semantics=lambda: _quote(args.sem),
            concrete=lambda: _extensions_text(extensions, "  "),
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
        _write_json(
            framework=lambda: _framework_text(model.framework, "  "),
            sigma=(_sigma_text(fw, steps, "    ") for fw, steps in zip(result.frameworks, result.provenance)),
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
        derivation = report.derivation
        _write_json(
            framework=lambda: _framework_text(report.framework, "  "),
            sigma=(_sigma_text(fw, steps, "    ") for fw, steps in zip(derivation.frameworks, derivation.provenance)),
            concrete=lambda: _extensions_text(report.concrete, "  "),
            abstract_preferred=(_extensions_text(p, "    ") for p in report.abstract_preferred),
            projected=(_extensions_text(p, "    ") for p in report.projected),
            classification=lambda: _verdicts_text(report.verdicts, "  "),
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
        model, document, warnings = load_afo(args.file)
        del document  # the commands read the model only; the parse tree goes before they run
        for w in warnings:
            print(w, file=sys.stderr)
        return args.func(args, model)
    except AfoError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader of stdout is gone: nothing to report
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
