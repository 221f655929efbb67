"""The referees stay apart from the production path: no module of the package
imports ``starmimo.referee`` when it is itself imported."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "starmimo"


def module_level_imports(tree: ast.Module) -> list[str]:
    """The modules that the import statements run at import time name:
    every statement outside a function body (class bodies and module-level
    ``if``/``try`` blocks included), relative ones with their leading dots."""
    names, pending = [], list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names += [base] + [f"{base.rstrip('.')}.{alias.name}" if node.module else
                               base + alias.name for alias in node.names]
        pending.extend(ast.iter_child_nodes(node))
    return names


def names_referee(name: str) -> bool:
    return name in (".referee", "starmimo.referee") or name.startswith(
        (".referee.", "starmimo.referee."))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_the_referee_at_module_level(path):
    if path.name == "referee.py":
        return
    imported = module_level_imports(ast.parse(path.read_text(), str(path)))
    assert not [name for name in imported if names_referee(name)], path.name


@pytest.mark.parametrize("source, found", [
    ("from .referee import dense_evaluate", True),
    ("from . import referee", True),
    ("import starmimo.referee", True),
    ("from starmimo import referee as r", True),
    ("class A:\n    from .referee import dense_evaluate", True),
    ("try:\n    from .referee import x\nexcept ImportError:\n    pass", True),
    ("def f():\n    from .referee import dense_evaluate", False),
    ("from .rate import sum_se", False),
    ("from . import rate", False),
])
def test_import_scan_sees_every_form(source, found):
    assert any(map(names_referee, module_level_imports(ast.parse(source)))) == found


def test_importing_the_runner_leaves_the_referee_unloaded():
    src = PACKAGE.parent
    done = subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path.insert(0, {str(src)!r}); import starmimo.cli, starmimo; "
         "print('starmimo.referee' in sys.modules, starmimo.cli.__file__)"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded, where = done.stdout.split()
    assert Path(where).resolve().parent == PACKAGE
    assert loaded == "False"
