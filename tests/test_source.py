"""Dead-code check over the package source, with the standard library's ``ast`` only.

In every module but ``__init__.py``, each imported name must be used in that
module, and each module-level private function, class or assignment must be
used somewhere in the package. A line marked ``# noqa: F401`` is exempt (a
deliberate re-export).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "scorescope"


def _used_names(tree: ast.AST) -> set[str]:
    """Names a module reads: loaded variables, attributes, and names it imports from another module."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def _imports(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _private_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [n.id for target in node.targets for n in ast.walk(target) if isinstance(n, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield node.lineno, name


def dead_code(src: Path = SRC) -> list[str]:
    """One line per unused import or unused module-level private name under ``src``."""
    modules = {path: path.read_text(encoding="utf-8") for path in sorted(src.glob("*.py"))}
    trees = {path: ast.parse(text, filename=str(path)) for path, text in modules.items()}
    used_anywhere = set().union(*(_used_names(tree) for tree in trees.values()))
    problems = []
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        lines = modules[path].splitlines()
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        for lineno, name in _imports(tree):
            if name not in loaded and "# noqa: F401" not in lines[lineno - 1]:
                problems.append(f"{path.name}:{lineno}: import {name} is unused")
        for lineno, name in _private_definitions(tree):
            if name not in used_anywhere:
                problems.append(f"{path.name}:{lineno}: {name} is never used")
    return problems


def test_no_unused_import_or_private_name():
    assert dead_code() == []


def test_the_check_finds_an_unused_import_and_a_dead_helper(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import json\nimport math\nfrom os import path  # noqa: F401\n\n\n"
        "def _dead():\n    return math.pi\n\n\n_TABLE = {}\n\n\ndef live():\n    return _TABLE\n",
        encoding="utf-8",
    )
    assert dead_code(tmp_path) == ["mod.py:1: import json is unused", "mod.py:6: _dead is never used"]
