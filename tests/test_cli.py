import json
import os
import shutil
import subprocess
import sys

from afo.cli import main

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


def test_non_utf8_input_is_a_syntax_error(capsys, tmp_path):
    path = tmp_path / "latin1.afo"
    path.write_bytes(b"node top\r\n# caf\xe9\narglet a e\n")
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
