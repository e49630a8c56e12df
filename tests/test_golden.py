"""Snapshot of every CLI output on every fixture.

Each case runs `main` in-process and compares its exit code, stdout and
stderr with one file under `tests/golden/<fixture>/`.  Outputs must stay
byte-identical; a change that alters one on purpose regenerates the files
with `python tests/test_golden.py` and says why.
"""

import contextlib
import io
from pathlib import Path

import pytest

from afo.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"

COMMANDS = [["validate"]]
COMMANDS += [["semantics", "--sem", sem] + extra for sem in ("preferred", "cf2", "grounded") for extra in ([], ["--json"])]
COMMANDS += [["abstract"] + extra for extra in ([], ["--json"], ["--explain"])]
COMMANDS += [["sharpen"] + extra for extra in ([], ["--json"], ["--oracle"])]

CASES = [(fixture.stem, command) for fixture in sorted(FIXTURES.glob("*.afo")) for command in COMMANDS]


def _golden_path(fixture: str, command: list[str]) -> Path:
    return GOLDEN / fixture / ("_".join(part.lstrip("-") for part in command) + ".txt")


def _render(fixture: str, command: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command[0], str(FIXTURES / f"{fixture}.afo"), *command[1:]])
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


@pytest.mark.parametrize("fixture,command", CASES, ids=[f"{f}:{' '.join(c)}" for f, c in CASES])
def test_cli_output_matches_golden(fixture, command):
    expected = _golden_path(fixture, command).read_text(encoding="utf-8")
    assert _render(fixture, command) == expected


if __name__ == "__main__":
    for fixture, command in CASES:
        path = _golden_path(fixture, command)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(_render(fixture, command), encoding="utf-8")
        print(f"wrote {path}")
