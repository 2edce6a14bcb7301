"""Dead-code check over the package source, with the standard library's ``ast`` only.

In every module, each imported name must be used in that module, and each
module-level private function, class or assignment must be used somewhere in
the package. A line marked ``# noqa: F401`` is exempt (a deliberate
re-export). Each module-level public function or class must be read by a
package module other than ``__init__.py``, by the benchmark or by the
acceptance criteria. For this check a module reads a name when it loads it
as a variable or takes it as an attribute of an imported module; importing
it without using it does not count. The check goes by name only, so a public
name is still taken as read when a local variable of the same name is loaded
anywhere in those files. No module imports a private name from another
package module: a private name is its module's own business. The config
sections that ``cli._apply_section`` accepts must be the sections its
callers apply, so that no section is accepted and then used by no command.
The score-log layout pattern must compile on the oldest Python that
``pyproject.toml`` allows: its possessive quantifiers need Python 3.11.
Last, ``__init__.py`` binds ``__version__`` and nothing else, so every
public name has one home, its module.
"""

import ast
import re
import tomllib
from pathlib import Path

from scorescope import ingest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "scorescope"
READERS = (*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py")


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
        lines = modules[path].splitlines()
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        for lineno, name in _imports(tree):
            if name not in loaded and "# noqa: F401" not in lines[lineno - 1]:
                problems.append(f"{path.name}:{lineno}: import {name} is unused")
        for lineno, name in _private_definitions(tree):
            if name not in used_anywhere:
                problems.append(f"{path.name}:{lineno}: {name} is never used")
    return problems


def _read_names(tree: ast.Module, package_modules: set[str]) -> set[str]:
    """Variables a module loads, and attributes it takes off a module it imports."""
    imported_modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported_modules.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported_modules.update(alias.asname or alias.name for alias in node.names if alias.name in package_modules)
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in imported_modules:
                read.add(node.attr)
    return read


def unread_public_names(src: Path = SRC, readers=READERS) -> list[str]:
    """One line per module-level public function or class under ``src`` that neither a module
    other than ``__init__.py`` nor any of ``readers`` reads."""
    modules = [path for path in sorted(src.glob("*.py")) if path.name != "__init__.py"]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in [*modules, *readers]}
    package_modules = {path.stem for path in modules}
    read = set().union(*(_read_names(tree, package_modules) for tree in trees.values()))
    return [
        f"{path.name}:{node.lineno}: {node.name} is never read"
        for path in modules
        for node in trees[path].body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in read
    ]


def private_imports(src: Path = SRC) -> list[str]:
    """One line per private name that a module under ``src`` imports from another package module."""
    return [
        f"{path.name}:{node.lineno}: imports {alias.name} from {'.' * node.level}{node.module or ''}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]


def config_sections(path: Path = SRC / "cli.py") -> tuple[set[str], set[str]]:
    """The ``known_sections`` literal in ``path`` and the section names its ``_apply_section`` calls pass."""
    known, applied = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "known_sections" for t in node.targets):
            known |= ast.literal_eval(node.value)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_apply_section":
            applied.add(ast.literal_eval(node.args[1]))
    return known, applied


def python_floor(pyproject: Path = ROOT / "pyproject.toml") -> tuple[int, int]:
    """The (major, minor) floor that ``requires-python`` sets, from a ``>=X.Y`` specifier."""
    spec = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["requires-python"]
    major, minor = re.fullmatch(r">=\s*(\d+)\.(\d+)", spec).groups()
    return int(major), int(minor)


def pattern_needs(pattern: str) -> tuple[int, int]:
    """The oldest Python whose ``re`` compiles ``pattern``: possessive quantifiers and atomic groups came in 3.11."""
    return (3, 11) if "(?>" in pattern or re.search(r"[*+?}]\+", pattern) else (3, 0)


def package_bindings(init: Path = SRC / "__init__.py") -> list[str]:
    """One line per module-level name that ``init`` binds besides ``__version__``, imports included."""
    problems = []
    for node in ast.parse(init.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            names = [n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
        problems += [f"{init.name}:{node.lineno}: binds {name}" for name in names if name != "__version__"]
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


def test_the_package_binds_only_its_version():
    assert package_bindings() == []


def test_the_check_finds_each_name_the_package_binds(tmp_path):
    (tmp_path / "__init__.py").write_text(
        '"""Doc."""\n\n__version__ = "1.0"\n\nfrom .mod import run, Model as M\nimport json\n'
        "TABLE = {}\n\n\ndef helper():\n    pass\n\n\nif json:\n    flag = 1\n",
        encoding="utf-8",
    )
    assert package_bindings(tmp_path / "__init__.py") == [
        "__init__.py:5: binds run",
        "__init__.py:5: binds M",
        "__init__.py:6: binds json",
        "__init__.py:7: binds TABLE",
        "__init__.py:10: binds helper",
        "__init__.py:14: binds flag",
    ]


def test_every_public_name_is_read():
    assert unread_public_names() == []


def test_the_check_finds_public_names_that_nothing_uses(tmp_path):
    src, readers = tmp_path / "pkg", tmp_path / "readers"
    src.mkdir()
    readers.mkdir()
    (src / "__init__.py").write_text("from .mod import exported, run\n", encoding="utf-8")
    (src / "mod.py").write_text(
        "class Model:\n    pass\n\n\ndef exported():\n    return Model()\n\n\n"
        "def helper():\n    pass\n\n\ndef benched():\n    pass\n\n\ndef imported():\n    pass\n\n\n"
        "def shadowed():\n    pass\n\n\ndef run():\n    helper()\n",
        encoding="utf-8",
    )
    (src / "other.py").write_text(
        "from . import mod\nfrom .mod import imported\n\nmodel = mod.Model()\nmodel.shadowed()\nmod.run()\n",
        encoding="utf-8",
    )
    (readers / "bench.py").write_text("from pkg.mod import benched\n\nbenched()\n", encoding="utf-8")
    assert unread_public_names(src, [readers / "bench.py"]) == [
        "mod.py:5: exported is never read",
        "mod.py:17: imported is never read",
        "mod.py:21: shadowed is never read",
    ]


def test_no_private_name_is_imported_from_another_module():
    assert private_imports() == []


def test_the_check_finds_a_private_import(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from . import __version__\nfrom ._stats import z_critical\n"
        "from .ingest import _CSV_BATCH_BYTES, read_csv\nfrom json import _default_decoder\n",
        encoding="utf-8",
    )
    assert private_imports(tmp_path) == ["mod.py:3: imports _CSV_BATCH_BYTES from .ingest"]


def test_the_layout_pattern_compiles_on_the_oldest_python_allowed():
    assert python_floor() >= pattern_needs(ingest._CANONICAL.__self__.pattern)


def test_the_check_finds_possessive_syntax_below_its_python(tmp_path):
    (tmp_path / "pyproject.toml").write_text('[project]\nrequires-python = ">=3.10"\n', encoding="utf-8")
    assert python_floor(tmp_path / "pyproject.toml") == (3, 10)
    assert pattern_needs(ingest._CANONICAL.__self__.pattern) == (3, 11)
    assert pattern_needs(r'"(?=([^"]+))\1"') < (3, 10) and pattern_needs(r"(?>a+)b") == (3, 11)


def test_every_accepted_config_section_is_applied():
    known, applied = config_sections()
    assert applied and known == applied


def test_the_check_finds_a_section_no_command_applies(tmp_path):
    (tmp_path / "cli.py").write_text(
        'def _apply_section(instance, section):\n    known_sections = {"a", "gone"}\n\n\n'
        'def cmd(args):\n    return _apply_section(args, "a")\n',
        encoding="utf-8",
    )
    assert config_sections(tmp_path / "cli.py") == ({"a", "gone"}, {"a"})
