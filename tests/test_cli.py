import codecs
import functools
import io
import json
import os
import random
import re
import shutil
import string
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from afo import Argument, ArgumentVerdict, Framework, abstract_replace, cf2, grounded_labelling, preferred
from afo.cli import (
    _dict,
    _extensions_text,
    _framework_text,
    _json_classification,
    _json_extensions,
    _json_framework,
    _json_sigma,
    _list,
    _quote,
    _sigma_text,
    _strs,
    _verdicts_text,
    _write_json,
    build_parser,
    main,
)
from afo.format import load_afo
from afo.pipeline import ReplacementStep, derive_abstract_frameworks, sharpen

from generators import forking_chain, hub_pairs_document

RUN = [sys.executable, "-m", "afo.cli"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys, fixtures_dir):
    code, out, err = run_cli(capsys, "validate", str(fixtures_dir / "fix1.afo"))
    assert code == 0
    assert out == "ok: 8 nodes, 11 covers, 5 arguments, 5 arglets, 7 attacks, M={Top}\n"
    assert err == ""


def test_validate_reports_sugar_warnings(capsys, fixtures_dir):
    code, out, err = run_cli(capsys, "validate", str(fixtures_dir / "mutual.afo"))
    assert code == 0
    assert "M={only}" in out
    assert err.count("W001") == 2


def test_validate_broken_lattice(capsys, fixtures_dir):
    code, _, err = run_cli(capsys, "validate", str(fixtures_dir / "broken_nonlattice.afo"))
    assert code == 1
    assert "NonUniqueJoin" in err


def test_missing_file(capsys):
    code, _, err = run_cli(capsys, "validate", "does_not_exist.afo")
    assert code == 1
    assert "error" in err


class ClosedPipe(io.TextIOBase):
    """A stdout whose reader is gone, as under `afo sharpen f --json | head -c 100`."""

    def write(self, text: str) -> int:
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_output_pipe_exits_one_without_an_error_line(capsys, monkeypatch, tmp_path):
    path = tmp_path / "chain.afo"
    path.write_text(forking_chain(6), encoding="utf-8")
    for argv in (["sharpen", str(path), "--json"], ["sharpen", str(path)], ["validate", str(path)]):
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(argv) == 1
        assert capsys.readouterr().err == ""
    # a file that cannot be read still gets its line
    code, _, err = run_cli(capsys, "validate", str(tmp_path))
    assert code == 1 and err.startswith("error: [Errno ")


def test_non_utf8_input_is_a_syntax_error(capsys, tmp_path):
    path = tmp_path / "latin1.afo"
    path.write_bytes(b"node top\r\n# caf\xe9\narglet a e\n")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, out) == (1, "")
    assert err == "error: AfoSyntaxError: line 2: byte 0xe9 is not valid UTF-8\n"


def test_byte_order_mark_is_accepted(capsys, fixtures_dir, tmp_path):
    path = tmp_path / "bom.afo"
    path.write_bytes(codecs.BOM_UTF8 + (fixtures_dir / "fix1.afo").read_bytes())
    assert run_cli(capsys, "validate", str(path)) == run_cli(capsys, "validate", str(fixtures_dir / "fix1.afo"))
    code, out, err = run_cli(capsys, "sharpen", str(path), "--json")
    assert (code, err) == (0, "")
    assert out == run_cli(capsys, "sharpen", str(fixtures_dir / "fix1.afo"), "--json")[1]


def test_byte_order_mark_keeps_bad_byte_lines(capsys, tmp_path):
    path = tmp_path / "bom_latin1.afo"
    path.write_bytes(codecs.BOM_UTF8 + b"node top\r\n# caf\xe9\narglet a e\n")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, out) == (1, "")
    assert err == "error: AfoSyntaxError: line 2: byte 0xe9 is not valid UTF-8\n"


def test_usage_error_exits_one():
    proc = subprocess.run(
        RUN + ["semantics"], capture_output=True, text=True
    )
    assert proc.returncode == 1
    proc = subprocess.run(RUN + ["frobnicate"], capture_output=True, text=True)
    assert proc.returncode == 1


def _golden(fixture, name):
    return (Path(__file__).parent / "golden" / fixture / f"{name}.txt").read_text(encoding="utf-8")


def test_cached_parser_carries_no_state_between_calls(capsys, monkeypatch, fixtures_dir):
    # usage lines wrap at the terminal width, so both runs get the same one
    monkeypatch.setenv("COLUMNS", "80")
    fresh = subprocess.run(RUN + ["semantics"], capture_output=True, text=True)
    with pytest.raises(SystemExit) as exit_info:
        main(["semantics"])
    captured = capsys.readouterr()
    assert (exit_info.value.code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert fresh.returncode == 1 and captured.err.startswith("usage: afo ")

    fix3 = str(fixtures_dir / "fix3.afo")
    for argv, golden in [
        (["semantics", fix3, "--sem", "cf2"], "semantics_sem_cf2"),
        (["semantics", fix3, "--sem", "grounded", "--json"], "semantics_sem_grounded_json"),
        (["abstract", fix3, "--explain"], "abstract_explain"),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert f"exit {code}\n--- stdout\n{out}--- stderr\n{err}" == _golden("fix3", golden), argv
    assert build_parser() is not build_parser()


def test_parser_is_built_on_the_first_call_not_at_import(fixtures_dir):
    probe = (
        "import afo.cli as cli; print(cli._parser.cache_info().currsize); "
        f"cli.main(['validate', {str(fixtures_dir / 'fix1.afo')!r}]); print(cli._parser.cache_info().currsize)"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    assert (proc.returncode, lines[0], lines[-1]) == (0, "0", "1"), proc.stderr


def test_json_output_escapes_like_the_stdlib(capsys, tmp_path):
    # the merge of the two-cycle reuses the expression declared at H
    src = tmp_path / "escapes.afo"
    src.write_text(
        "node Bot\nnode P\nnode Q\nnode H\nnode Top\n"
        "cover Bot P\ncover Bot Q\ncover P H\ncover Q H\ncover H Top\n"
        'map p"ä P\nmap q\\日 Q\nmap 日本 H\n'
        'arglet a"ä p"ä\narglet b\\日 q\\日\n'
        'attack a"ä b\\日\nattack b\\日 a"ä\n',
        encoding="utf-8",
    )
    escaped = ['"a\\"\\u00e4"', '"b\\\\\\u65e5"', '"p\\"\\u00e4"', '"q\\\\\\u65e5"']
    merged = '"\\u65e5\\u672c"'
    for argv, merges in [
        (["sharpen", "--json"], True),
        (["abstract", "--json"], True),
        (["semantics", "--sem", "grounded", "--json"], False),
    ]:
        code, out, _ = run_cli(capsys, argv[0], str(src), *argv[1:])
        assert code == 0, argv
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", argv
        assert all(text in out for text in escaped), argv
        assert (merged in out) == merges, argv


_TEXT = string.ascii_letters + '"\\/\x00\x1f\t\n\r\x7f\u00e4\u00df\u65e5\U0001f642'


def _random_text(rng):
    return "".join(rng.choice(_TEXT) for _ in range(rng.randint(0, 6)))


_MARKS = [
    "implied_credulous",
    "implied_skeptical",
    "minus_approved",
    "plus_approved_credulous",
    "plus_approved_skeptical",
    "questioned",
]


def _random_verdict(rng):
    return {
        "concrete_status": rng.choice(["skeptical", "credulous", "rejected", _random_text(rng)]),
        "sharpened": sorted(rng.sample(_MARKS + [_random_text(rng)], rng.randint(0, 3))),
        "sets_containing": rng.randint(0, 9),
        "extensions_containing": rng.randint(10, 99),
    }


def _random_payload(rng, depth=0):
    """Nested dicts and lists of strings and ints, empty ones included."""
    kind = rng.choice(["text", "int", "texts", "list", "dict"][: 5 if depth < 4 else 2])
    if kind == "text":
        return _random_text(rng)
    if kind == "int":
        return rng.randint(-(10**12), 10**12)
    if kind == "texts":
        return [_random_text(rng) for _ in range(rng.randint(0, 4))]
    if kind == "list":
        return [_random_payload(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    return {_random_text(rng): _random_payload(rng, depth + 1) for _ in range(rng.randint(0, 4))}


def _payload_text(value, indent):
    """`value` written with the CLI's list, dict and string writers."""
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, int):
        return str(value)
    inner = indent + "  "
    if isinstance(value, dict):
        return _dict([(key, _payload_text(value[key], inner)) for key in sorted(value)], indent)
    if all(isinstance(item, str) for item in value):
        return _strs(value, indent)
    return _list([_payload_text(item, inner) for item in value], indent)


def test_json_writer_matches_the_stdlib_on_random_payloads(capsys):
    rng = random.Random(2018)
    for _ in range(2000):
        payload = _random_payload(rng)
        assert _payload_text(payload, "") == json.dumps(payload, indent=2, sort_keys=True)
    # whole documents, handed to _write_json as the commands hand them: a
    # list one item at a time, any other value as one text
    for _ in range(300):
        payload = {_random_text(rng): _random_payload(rng) for _ in range(rng.randint(1, 5))}
        sections = {
            key: (_payload_text(item, "    ") for item in value)
            if isinstance(value, list)
            else functools.partial(_payload_text, value, "  ")
            for key, value in payload.items()
        }
        _write_json(**sections)
        assert capsys.readouterr().out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _random_framework(rng, attack_prob=0.3):
    ids = {_random_text(rng) for _ in range(rng.randint(1, 6))}
    arglets = sorted({(a, _random_text(rng)) for a in ids for _ in range(rng.randint(1, 2))})
    return Framework.of(arglets, [(s, d) for s in arglets for d in arglets if rng.random() < attack_prob])


def _replaced(rng, framework):
    """A fork of `framework` with one group merged, and its provenance."""
    ids = sorted(framework.argument_ids())
    targets = rng.sample(ids, rng.randint(1, len(ids)))
    new_id = "+".join(sorted(targets))
    while new_id in ids:
        new_id += "'"
    merged = Argument(new_id, frozenset(_random_text(rng) for _ in range(rng.randint(1, 2))))
    step = ReplacementStep(frozenset(ids), frozenset(targets), merged)
    return abstract_replace(framework, targets, merged), (step,)


def _dumps(value):
    return json.dumps(value, indent=2, sort_keys=True)


def test_framework_and_classification_writers_write_what_the_stdlib_writes_for_the_builders():
    rng = random.Random(1313)
    frameworks = [_random_framework(rng) for _ in range(300)]
    frameworks += [_random_framework(rng, attack_prob=0) for _ in range(20)]
    frameworks += [Framework.of([("a", "e")], []), Framework.of([('"\\', "\U0001f642")], [])]
    forks = [_replaced(rng, fw) for fw in frameworks[:100]]
    assert sum(not fw.attacks for fw in frameworks) >= 20
    assert sum(len(fw.arglets) == 1 for fw in frameworks) >= 2
    for framework, steps in [(fw, ()) for fw in frameworks] + forks:
        assert _framework_text(framework, "") == _dumps(_json_framework(framework))
        # nested as `sharpen --json` nests a derived framework
        want = _dumps({"sigma": _json_sigma([framework], [steps])})
        assert _dict([("sigma", _list([_sigma_text(framework, steps, "    ")], "  "))], "") == want

    for _ in range(300):
        plain = {_random_text(rng): _random_verdict(rng) for _ in range(rng.randint(0, 6))}
        verdicts = [
            ArgumentVerdict(arg, v["concrete_status"], frozenset(v["sharpened"]), v["sets_containing"], v["extensions_containing"])
            for arg, v in plain.items()
        ]
        report = SimpleNamespace(verdicts=verdicts)
        assert _json_classification(report) == plain
        assert _verdicts_text(verdicts, "") == _dumps(plain)
        assert _dict([("classification", _verdicts_text(verdicts, "  "))], "") == _dumps({"classification": plain})


def test_extension_writer_writes_what_the_stdlib_writes_for_the_builder():
    rng = random.Random(1319)
    lists = [
        [frozenset(_random_text(rng) for _ in range(rng.randint(0, 4))) for _ in range(rng.randint(0, 5))]
        for _ in range(300)
    ]
    frameworks = [_random_framework(rng) for _ in range(100)]
    lists += [preferred(fw) for fw in frameworks] + [cf2(fw) for fw in frameworks]
    assert sum(not extensions for extensions in lists) >= 20
    assert sum(frozenset() in extensions for extensions in lists) >= 20
    for extensions in lists:
        want = _json_extensions(extensions)
        assert _extensions_text(extensions, "") == _dumps(want)
        # nested as `sharpen --json` nests each fork's extensions
        assert _dict([("projected", _list([_extensions_text(extensions, "    ")], "  "))], "") == _dumps({"projected": [want]})


def _builders_payload(argv, path):
    """The payload of `argv` on `path`, built by the CLI's `_json_*` builders."""
    model = load_afo(str(path))[0]
    payload = {"framework": _json_framework(model.framework)}
    if argv[0] == "sharpen":
        report = sharpen(model.framework, model.lattice, model.fmap, model.blocked)
        derivation = report.derivation
        return payload | {
            "sigma": _json_sigma(derivation.frameworks, derivation.provenance),
            "concrete": _json_extensions(report.concrete),
            "abstract_preferred": [_json_extensions(p) for p in report.abstract_preferred],
            "projected": [_json_extensions(p) for p in report.projected],
            "classification": _json_classification(report),
        }
    if argv[0] == "abstract":
        result = derive_abstract_frameworks(model.framework, model.lattice, model.fmap, model.blocked)
        return payload | {"sigma": _json_sigma(result.frameworks, result.provenance)}
    sem = argv[2]
    if sem == "grounded":
        return payload | {"semantics": sem, "labelling": grounded_labelling(model.framework)}
    return payload | {"semantics": sem, "concrete": _json_extensions({"preferred": preferred, "cf2": cf2}[sem](model.framework))}


_ID_CHARS = string.ascii_letters + "\"\\/+'\u00e4\u00df\u65e5\U0001f642"


def test_json_output_of_forking_documents_is_the_stdlib_layout(capsys, tmp_path, fixtures_dir):
    rng = random.Random(1317)
    documents = []
    for i in range(40):
        names = set()
        while len(names) < 24:
            names.add("".join(rng.choice(_ID_CHARS) for _ in range(rng.randint(1, 4))))
        names = iter(sorted(names))
        pairs = [(next(names), next(names)) for _ in range(rng.randint(0, 2))]
        loners = [next(names) for _ in range(rng.randint(1, 2))]
        squares = [tuple(next(names) for _ in range(4)) for _ in range(rng.choice([0, 1, 1, 2, 3]))]
        documents.append(hub_pairs_document(pairs, loners, squares))
    # 2^k forks, the last 64 of them
    documents += [forking_chain(k) for k in range(1, 7)]
    # fix1's odd cycle: an empty preferred extension
    documents += [(fixtures_dir / name).read_text(encoding="utf-8") for name in ("fix1.afo", "fix3.afo")]
    commands = [["sharpen", "--json"], ["abstract", "--json"]]
    commands += [["semantics", "--sem", sem, "--json"] for sem in ("preferred", "cf2", "grounded")]
    forking = 0
    for i, text in enumerate(documents):
        path = tmp_path / f"fork{i}.afo"
        path.write_text(text, encoding="utf-8")
        for argv in commands:
            code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
            assert (code, err) == (0, ""), argv
            payload = _builders_payload(argv, path)
            assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n", (i, argv)
            if argv[0] == "sharpen":
                forking += len(payload["sigma"]) >= 2
    # 34 of the 40 random documents at this seed, and every chain
    assert forking >= 31


def test_module_run_is_clean_and_import_afo_leaves_out_the_cli(fixtures_dir):
    proc = subprocess.run(RUN + ["sharpen", str(fixtures_dir / "fix3.afo")], capture_output=True, text=True)
    golden = (Path(__file__).parent / "golden" / "fix3" / "sharpen.txt").read_text(encoding="utf-8")
    stdout = golden.split("--- stdout\n", 1)[1].split("--- stderr\n", 1)[0]
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", stdout)

    probe = "import sys, afo; print(sorted({'afo.cli', 'argparse'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_semantics_preferred_text(capsys, fixtures_dir):
    code, out, _ = run_cli(
        capsys, "semantics", str(fixtures_dir / "fix1.afo"), "--sem", "preferred"
    )
    assert code == 0
    assert out == "{}\n"
    code, out, _ = run_cli(
        capsys, "semantics", str(fixtures_dir / "fix3.afo"), "--sem", "preferred"
    )
    assert out == "{a5}\n"


def test_semantics_cf2_text(capsys, fixtures_dir):
    code, out, _ = run_cli(
        capsys, "semantics", str(fixtures_dir / "fix3.afo"), "--sem", "cf2"
    )
    assert code == 0
    assert out.splitlines() == [
        "{a1, a4}",
        "{a1, a5}",
        "{a2, a5}",
        "{a3, a4}",
        "{a3, a5}",
    ]


def test_semantics_grounded(capsys, fixtures_dir):
    code, out, _ = run_cli(
        capsys, "semantics", str(fixtures_dir / "fix1.afo"), "--sem", "grounded"
    )
    assert code == 0
    assert out.splitlines() == [f"a{i}: undecided" for i in range(1, 6)]
    code, out, _ = run_cli(
        capsys, "semantics", str(fixtures_dir / "fix1.afo"), "--sem", "grounded", "--json"
    )
    payload = json.loads(out)
    assert payload["semantics"] == "grounded"
    assert payload["labelling"]["a1"] == "undecided"


def test_semantics_json(capsys, fixtures_dir):
    code, out, _ = run_cli(
        capsys, "semantics", str(fixtures_dir / "fix3.afo"), "--sem", "preferred", "--json"
    )
    payload = json.loads(out)
    assert payload["concrete"] == [["a5"]]
    assert ["a1", "Dp"] in payload["framework"]["arglets"]


def test_abstract_text(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "abstract", str(fixtures_dir / "fix1.afo"))
    assert code == 0
    assert "framework 1:" in out
    assert "arguments: {a1+a2+a3, a4, a5}" in out
    assert "attack: a1+a2+a3 -> a4" in out
    assert "replaced {a1, a2, a3} in scc {a1, a2, a3} with a1+a2+a3 [focusOnImp]" in out


def test_abstract_json(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "abstract", str(fixtures_dir / "fix3.afo"), "--json")
    payload = json.loads(out)
    assert set(payload) == {"framework", "sigma"}
    assert len(payload["sigma"]) == 1
    entry = payload["sigma"][0]
    assert entry["provenance"] == [
        {
            "scc": ["a1", "a2", "a3"],
            "targets": ["a1", "a2"],
            "abstract": {"id": "a1+a2", "expressions": ["HW"]},
        }
    ]
    assert ["a1+a2", "HW"] in entry["framework"]["arglets"]


def test_abstract_explain(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "abstract", str(fixtures_dir / "fix3.afo"), "--explain")
    assert code == 0
    assert "scc {a1, a2, a3}:" in out
    assert "group {a1, a2} -> a1+a2 at H (via HW)" in out
    assert "valid: yes" in out
    assert "non-trivial: yes (H not in M={Top})" in out
    assert "compatible: yes" in out
    assert "external a3 at Fm: incomparable" in out
    assert "external a4 at NoId: incomparable" in out
    assert "=> conservative" in out
    assert "scc {a4, a5}:" in out
    assert "no conservative group" in out


def test_abstract_json_and_explain_exclude_each_other(capsys, fixtures_dir):
    for flags in (["--explain", "--json"], ["--json", "--explain"]):
        with pytest.raises(SystemExit) as exc:
            main(["abstract", str(fixtures_dir / "fix3.afo"), *flags])
        captured = capsys.readouterr()
        assert exc.value.code == 1
        assert captured.out == ""
        assert "--json" in captured.err and "--explain" in captured.err
        assert "not allowed with" in captured.err


def test_abstract_explain_scans_each_scc_once(capsys, monkeypatch, fixtures_dir):
    import afo.pipeline

    calls = []
    scan = afo.pipeline._scan

    def counting_scan(table, within):
        calls.append([a for i, a in enumerate(table.ix.ids) if within >> i & 1])
        return scan(table, within)

    monkeypatch.setattr(afo.pipeline, "_scan", counting_scan)
    code, _, _ = run_cli(capsys, "abstract", str(fixtures_dir / "fix3.afo"), "--explain")
    assert code == 0
    assert sorted(calls) == [["a1", "a2", "a3"], ["a4", "a5"]]


def test_abstract_emit_dot(capsys, fixtures_dir, tmp_path):
    src = tmp_path / "fix1.afo"
    shutil.copy(fixtures_dir / "fix1.afo", src)
    code, _, err = run_cli(capsys, "abstract", str(src), "--emit-dot")
    assert code == 0
    dot = tmp_path / "fix1.abs1.dot"
    assert dot.exists()
    text = dot.read_text()
    assert text.startswith("digraph framework {")
    assert '"a1+a2+a3" -> "a4";' in text
    assert 'label="a1+a2+a3\\nfocusOnImp"' in text
    assert str(dot) in err


def test_emit_dot_escapes_quotes_and_backslashes(capsys, tmp_path):
    src = tmp_path / "quoted.afo"
    src.write_text(
        "node Bot\nnode P\nnode Q\nnode Top\n"
        "cover Bot P\ncover Bot Q\ncover P Top\ncover Q Top\n"
        'map p"x P\nmap q Q\n'
        'arglet a"1 p"x\narglet b\\2 q\n'
        'attack a"1 b\\2\nattack b\\2 a"1\n',
        encoding="utf-8",
    )
    code, _, _ = run_cli(capsys, "abstract", str(src), "--emit-dot")
    assert code == 0
    lines = (tmp_path / "quoted.abs1.dot").read_text().splitlines()
    quoted = r'"(?:[^"\\]|\\.)*"'
    assert lines[0] == "digraph framework {" and lines[-1] == "}"
    for line in lines[1:-1]:
        assert re.fullmatch(rf"  {quoted}( \[label={quoted}\]| -> {quoted});", line), line
    assert '  "a\\"1" [label="a\\"1\\np\\"x"];' in lines
    assert '  "b\\\\2" -> "a\\"1";' in lines


def test_sharpen_text(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "sharpen", str(fixtures_dir / "fix1.afo"))
    assert code == 0
    assert "concrete preferred: {}" in out
    assert "derived frameworks: 1" in out
    assert "projection 1: {a5}" in out
    assert "a5: rejected -> implied_credulous, implied_skeptical" in out
    assert "a1: rejected -> minus_approved" in out


def test_sharpen_json_schema(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "sharpen", str(fixtures_dir / "fix3.afo"), "--json")
    payload = json.loads(out)
    assert set(payload) == {
        "framework",
        "sigma",
        "concrete",
        "abstract_preferred",
        "projected",
        "classification",
    }
    assert payload["concrete"] == [["a5"]]
    assert payload["abstract_preferred"] == [[["a1+a2", "a5"], ["a3", "a4"], ["a3", "a5"]]]
    assert payload["projected"] == [[["a5"], ["a3", "a4"], ["a3", "a5"]]]
    a5 = payload["classification"]["a5"]
    assert a5["concrete_status"] == "skeptical"
    assert a5["sharpened"] == ["plus_approved_credulous"]
    a3 = payload["classification"]["a3"]
    assert a3["sets_containing"] == 1
    assert a3["extensions_containing"] == 2


def test_sharpen_when_merged_ids_would_collide(capsys, tmp_path):
    # an input argument already named a+b; two SCCs that both mint a+b+c
    cases = [
        (hub_pairs_document([("a", "b")], ["a+b"]), ["a+b'"]),
        (hub_pairs_document([("a+b", "c"), ("a", "b+c")]), ["a+b+c", "a+b+c'"]),
    ]
    for text, minted in cases:
        path = tmp_path / "collide.afo"
        path.write_text(text)
        code, out, err = run_cli(capsys, "sharpen", str(path), "--json")
        assert (code, err) == (0, "")
        (sigma,) = json.loads(out)["sigma"]
        assert [step["abstract"]["id"] for step in sigma["provenance"]] == minted


def test_sharpen_oracle_passes_on_corpus(fixtures_dir):
    for name in ["fix1.afo", "fix3.afo", "mutual.afo"]:
        proc = subprocess.run(
            RUN + ["sharpen", str(fixtures_dir / name), "--oracle", "--json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        json.loads(proc.stdout)


def test_sharpen_mutual(capsys, fixtures_dir):
    code, out, err = run_cli(capsys, "sharpen", str(fixtures_dir / "mutual.afo"), "--json")
    assert code == 0
    payload = json.loads(out)
    for arg in ["x", "y"]:
        entry = payload["classification"][arg]
        assert entry["concrete_status"] == "credulous"
        assert entry["sharpened"] == ["plus_approved_credulous"]
    assert err.count("W001") == 2


def test_output_is_byte_deterministic(fixtures_dir):
    for name in ["fix1.afo", "fix3.afo", "mutual.afo"]:
        outs = set()
        for seed in ["0", "17", "90001"]:
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                RUN + ["sharpen", str(fixtures_dir / name), "--json"],
                capture_output=True,
                env=env,
            )
            assert proc.returncode == 0
            outs.add(proc.stdout)
        assert len(outs) == 1
