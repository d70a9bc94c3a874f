"""Every public function or method in ``src/metacsr`` is named, outside
its own definition, in ``src/metacsr`` or ``perfbench/*.py``: code that only
tests call is a second implementation beside the one the program runs."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# a checker, kept for callers outside the program
KEPT = {"autodiff.finite_difference_check"}


def _defs(body, prefix=""):
    """(qualified name, node) of each public function in ``body``, and of
    each public method of a public class there."""
    for node in body:
        if getattr(node, "name", "_").startswith("_"):
            continue
        if isinstance(node, ast.FunctionDef):
            yield prefix + node.name, node
        elif isinstance(node, ast.ClassDef) and not prefix:
            yield from _defs(node.body, f"{node.name}.")


def test_every_public_function_has_a_program_caller():
    package = sorted((ROOT / "src" / "metacsr").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in package + sorted((ROOT / "perfbench").glob("*.py"))}
    refs = [(path, n.id if isinstance(n, ast.Name) else n.attr, n.lineno)
            for path, tree in trees.items() for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))]
    unused = [f"{path.stem}.{name}" for path in package
              for name, node in _defs(trees[path].body)
              if f"{path.stem}.{name}" not in KEPT and not any(
                  ref == node.name and not (
                      where == path and node.lineno <= at <= node.end_lineno)
                  for where, ref, at in refs)]
    assert not unused, f"no caller in the program: {unused}"


def test_every_console_script_imports_and_is_callable():
    """Each ``[project.scripts]`` target in ``pyproject.toml`` names an
    importable module and a callable in it, so a renamed entry fails here
    rather than in the installed command."""
    tomllib = pytest.importorskip("tomllib")     # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        entry = getattr(importlib.import_module(module), attr, None)
        assert callable(entry), (name, target)
