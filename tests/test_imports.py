"""Import hygiene: every name a module of the package imports at module
level is used in that module.  A deletion can leave a helper's import
behind; this catches it without any linter."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "afo"

# bound but never read in their module, on purpose
ALLOWED = {
    # bench/tracing.py wraps them as afo.cli.parse_afo and afo.cli.build_model
    ("cli.py", "parse_afo"),
    ("cli.py", "build_model"),
}


def unused_imports(source: str) -> list[str]:
    """The names bound by the module-level imports of `source` that nothing
    else in it reads, `from __future__` imports aside."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_every_module_level_import_is_used():
    source = "from __future__ import annotations\nimport os, sys as system\nfrom .af import _bits, _union\n\nprint(_bits)\n"
    assert unused_imports(source) == ["os", "system", "_union"]
    assert unused_imports("import os.path\n\nos.sep\n") == []
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 9
    unused = [
        (path.name, name)
        for path in modules
        for name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert sorted(set(unused) - ALLOWED) == []
    assert sorted(ALLOWED - set(unused)) == [], "an allowed import is used now: drop it from ALLOWED"
