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


# the functions that may call json.loads or json.dumps: the file helpers,
# the config hash (a digest, not a file) and the parse of one flag's text
JSON_CALLERS = {"data.read_json", "data.write_json", "config.core_hash",
                "config._coerce"}


def test_json_files_are_read_and_written_in_one_place():
    """No module calls ``json.load`` or ``json.dump``, and only
    ``JSON_CALLERS`` call ``json.loads`` or ``json.dumps``: one module
    decides how a JSON file is encoded and how a bad one is refused."""
    stray = []
    for path in sorted((ROOT / "src" / "metacsr").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        funcs = sorted((node.lineno, node.end_lineno, node.name)
                       for node in ast.walk(tree)
                       if isinstance(node, ast.FunctionDef))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                stray.append(f"{path.stem}:{node.lineno} imports from json")
            if not (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "json"
                    and node.attr in ("load", "dump", "loads", "dumps")):
                continue
            inner = [name for start, end, name in funcs
                     if start <= node.lineno <= end]
            where = f"{path.stem}.{inner[-1] if inner else '<module>'}"
            if node.attr in ("load", "dump") or where not in JSON_CALLERS:
                stray.append(f"{where}:{node.lineno} calls json.{node.attr}")
    assert not stray, stray
