"""Source checks on the package that need no linter: an `ast` walk."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gcifc"


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads, lists in `__all__` or
    names in a string annotation. An import on a line marked
    `# noqa: F401` is a deliberate re-export and is skipped."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = alias.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
        notes = [getattr(node, f, None) for f in ("annotation", "returns")]
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used.update(n.id for n in ast.walk(ast.parse(note.value))
                            if isinstance(n, ast.Name))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def test_the_check_sees_an_unused_import(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text("import math\nimport os  # noqa: F401\n"
                   "from .region import (Kind,\n    RateRegion)\n"
                   "def f() -> 'RateRegion':\n    return None\n")
    assert _unused_imports(mod) == ["Kind (line 3)", "math (line 1)"]
