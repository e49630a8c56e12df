import importlib.util
import json
import os
import platform
import shutil
import subprocess
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location("ab_pairs", Path(__file__).parent.parent / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)


def test_gain_rule_and_bound_check():
    base = [100.0, 101, 102, 100, 101, 99, 100, 102, 101, 100]
    faster = [x * 1.2 for x in base]
    assert ab_pairs.compare(base, faster, "higher", 0.15, fails_more=False)["gain_holds"]
    assert not ab_pairs.compare(base, faster, "higher", 0.15, fails_more=True)["gain_holds"]
    assert ab_pairs.compare(base, faster, "higher", 0.15, fails_more=False)["bound"] == "within"
    assert ab_pairs.compare(base, [x * 0.8 for x in base], "higher", 0.15, fails_more=False)["bound"] == "WORSE"
    assert ab_pairs.compare(base, [x * 1.2 for x in base], "lower", 0.15, fails_more=False)["bound"] == "WORSE"
    noisy = [60.0, 140, 70, 130, 100, 100, 65, 135, 90, 110]
    assert ab_pairs.compare(noisy, noisy[::-1], "higher", 0.15, fails_more=False)["bound"] == "unresolved"
    # a spread wider than the bound is resolved when every change run is better
    assert ab_pairs.compare(noisy, [x + 100 for x in noisy], "higher", 0.15, fails_more=False)["bound"] == "within"


def test_a_run_that_attempts_nothing_counts_as_failed(tmp_path):
    (tmp_path / "bench").mkdir()
    result = '{"correct": false, "attempted": 0, "failed": 0, "metrics": {"instances_per_s": {"value": 0}}}'
    (tmp_path / "bench" / "run.py").write_text(f"print({result!r})\n", encoding="utf-8")
    run = ab_pairs.run_bench(tmp_path, "docs", 1, 0.1)
    assert run["failed_ratio"] == 1.0 and run["instances_per_s"] == 0


def _stub_checkout(path, rate):
    """A checkout whose bench/run.py reports `rate` instances/s, correct and
    with nothing failed, on any workload."""
    (path / "bench").mkdir(parents=True)
    result = {"correct": True, "attempted": 10, "failed": 0, "metrics": {"instances_per_s": {"value": rate}}}
    (path / "bench" / "run.py").write_text(f"print({json.dumps(result)!r})\n", encoding="utf-8")
    declared = {"run_seconds": 20, "end_to_end": [{"name": "instances_per_s", "better": "higher", "bound": 0.15}]}
    (path / "BENCHMARK.json").write_text(json.dumps(declared), encoding="utf-8")
    return path


def test_exit_status_is_1_when_a_bound_reads_worse(tmp_path, capsys):
    base = _stub_checkout(tmp_path / "base", 100)
    same = _stub_checkout(tmp_path / "same", 100)
    slower = _stub_checkout(tmp_path / "slower", 80)
    argv = ["--workload", "docs", "extensions", "--seed", "1", "--pairs", "1", "--seconds", "0.1"]
    assert ab_pairs.main([str(base), str(same), *argv]) == 0
    out = capsys.readouterr().out
    assert "workload docs seed 1" in out and "workload extensions seed 1" in out
    assert out.count("instances_per_s    100") == 2 and "WORSE" not in out
    assert ab_pairs.main([str(base), str(slower), *argv]) == 1
    assert capsys.readouterr().out.count("WORSE") == 2


def test_record_writes_tables_runs_and_setting(tmp_path, capsys):
    base = _stub_checkout(tmp_path / "base", 100)
    change = _stub_checkout(tmp_path / "change", 120)
    record = tmp_path / "record.json"
    argv = ["--workload", "docs", "groupscan", "--seed", "3", "--pairs", "1", "--seconds", "0.1", "--record", str(record)]
    assert ab_pairs.main([str(base), str(change), *argv]) == 0
    capsys.readouterr()
    got = json.loads(record.read_text(encoding="utf-8"))
    assert got["python"] == platform.python_version() and got["cpu_count"] == os.cpu_count()
    assert (got["seed"], got["pairs"], got["seconds"]) == (3, 1, 0.1)
    assert got["commits"] == {"base": None, "change": None}
    assert list(got["workloads"]) == ["docs", "groupscan"]
    for workload in got["workloads"].values():
        (row,) = workload["table"]
        assert row["metric"] == "instances_per_s" and row["base"] == [100, 100, 100] and row["wins"] == 1
        assert [r["instances_per_s"] for r in workload["runs"]["change"]] == [120]


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_record_names_the_commit_of_a_git_checkout(tmp_path):
    checkout = _stub_checkout(tmp_path / "repo", 100)

    def git(*args):
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=checkout, capture_output=True, text=True, check=True
        ).stdout.strip()

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "stub")
    assert ab_pairs.head(checkout) == git("rev-parse", "HEAD")
    assert ab_pairs.head(tmp_path) is None
