"""Source checks on the package that need no linter: an `ast` walk."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gcifc"
ORACLE = Path(__file__).resolve().parent / "gaussmi.py"


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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + [ORACLE],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def test_the_check_sees_an_unused_import(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text("import math\nimport os  # noqa: F401\n"
                   "from .region import (Kind,\n    RateRegion)\n"
                   "def f() -> 'RateRegion':\n    return None\n")
    assert _unused_imports(mod) == ["Kind (line 3)", "math (line 1)"]


def _private_defs(tree: ast.Module) -> dict[str, int]:
    """A module's private top-level names (one leading underscore): its
    functions, classes and assigned names, with their lines."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        out.update((n, node.lineno) for n in names
                   if n.startswith("_") and not n.startswith("__"))
    return out


def _unread_private(paths) -> list[str]:
    """Private top-level names of the modules in `paths` that no module
    reads: a name is read where it is loaded, taken as an attribute or
    imported by name."""
    trees = {p: ast.parse(p.read_text()) for p in paths}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(f"{p.name}: {name} (line {line})"
                  for p, tree in trees.items()
                  for name, line in _private_defs(tree).items()
                  if name not in read)


def test_no_unread_private_names():
    assert _unread_private(sorted(SRC.glob("*.py"))) == []


def test_the_check_sees_an_unread_private_name(tmp_path):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text("_TABLE = {}\n_X, _Y = 1, 2\n\ndef _used():\n    return _X\n"
                 "\n\ndef _left():\n    return _used()\n\n\nclass _Gone:\n"
                 "    pass\n")
    b.write_text("from .a import _TABLE\nimport a\nprint(a._Y)\n")
    assert _unread_private([a, b]) == ["a.py: _Gone (line 12)",
                                       "a.py: _left (line 8)"]


def _unread_surface(paths) -> list[str]:
    """Modules of a package that no module of it imports by a relative
    import (`cli.py` and `__init__.py` are its entry points), and classes
    of its `errors.py` that no module raises and that are no base of a
    class that is raised."""
    nodes = [n for p in paths for n in ast.walk(ast.parse(p.read_text()))]
    imported = {"cli", "__init__"}
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.level:
            imported.update([node.module] if node.module
                            else [alias.name for alias in node.names])
    raised = {getattr(exc, "id", getattr(exc, "attr", None))
              for exc in (getattr(n.exc, "func", n.exc) for n in nodes
                          if isinstance(n, ast.Raise) and n.exc)}
    classes = [n for p in paths if p.name == "errors.py"
               for n in ast.parse(p.read_text()).body
               if isinstance(n, ast.ClassDef)]
    for cls in reversed(classes):  # each base is defined above its subclasses
        if cls.name in raised:
            raised.update(getattr(b, "id", None) for b in cls.bases)
    return ([f"module {p.name}" for p in paths if p.stem not in imported]
            + [f"errors.py: {c.name}" for c in classes
               if c.name not in raised])


def test_no_unread_package_surface():
    assert _unread_surface(sorted(SRC.glob("*.py"))) == []


def test_the_check_sees_unread_surface(tmp_path):
    files = {"__init__.py": "from .region import f\n",
             "cli.py": "from . import inner\n",
             "region.py": "from .errors import Child\nraise Child('x')\n",
             "inner.py": "from . import errors\nraise errors.Leaf\n",
             "errors.py": "class Base(Exception): pass\n"
                          "class Mid(Base): pass\nclass Child(Mid): pass\n"
                          "class Leaf(Base): pass\n"
                          "class Unraised(Base): pass\n",
             "oracle.py": "import numpy\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert _unread_surface(sorted(tmp_path.glob("*.py"))) == [
        "module oracle.py", "errors.py: Unraised"]


def _scale_calls(path: Path) -> list[str]:
    """Calls of ldexp or frexp in a module, with their lines, outside
    `util.py` (which owns the noise-unit scale) and `outer._mac_max`
    (bc-pr's log-domain kernel)."""
    if path.name == "util.py":
        return []
    tree = ast.parse(path.read_text())
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_mac_max" \
                and path.name == "outer.py":
            skip.update(id(n) for n in ast.walk(node))
    return sorted(f"{path.name}: {name} (line {node.lineno})"
                  for node in ast.walk(tree) if id(node) not in skip
                  for name in [getattr(node, "attr", getattr(node, "id", ""))]
                  if name in ("ldexp", "frexp"))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_scale_decision_lives_in_util(path):
    assert _scale_calls(path) == []


def test_the_scale_check_sees_a_stray_ldexp(tmp_path):
    mod = tmp_path / "outer.py"
    mod.write_text("import math\nfrom numpy import frexp\n\n"
                   "def _mac_max(x):\n    return math.ldexp(x, 1)\n\n"
                   "def f(x):\n    return math.ldexp(x, -1), frexp(x)\n")
    assert _scale_calls(mod) == ["outer.py: frexp (line 8)",
                                 "outer.py: ldexp (line 8)"]
