"""Every name a library module imports at top level is read somewhere in
it, and every private name a module defines at top level is read somewhere
in the package.

No linter ships with the test dependencies, and code is often deleted
here, so an import or a private helper or constant left behind by a
deletion is caught by these tests.
The package's __init__.py imports names to re-export them, so it is
checked the other way: __all__ holds exactly the names it imports from
its submodules, plus __version__, which must match pyproject.toml.
"""

import ast
from pathlib import Path
from types import ModuleType

import pytest

import respchain as rc

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "respchain"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """The top-level imported names that the module never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).partition(".")[0] for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
            and isinstance(n.ctx, ast.Load)}
    return sorted(imported - read)


def defined_private_names(source):
    """The functions, classes and constants a module defines at top level
    whose names start with '_' (dunder names aside)."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def read_names(source):
    """Every name the module reads, bare or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(ast.parse(source))
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def test_finds_an_unread_private_name():
    source = "_A = 1\n_B, C = 2, 3\ndef _f():\n    return _A\nclass _K: pass\n__all__ = []\n"
    assert defined_private_names(source) - read_names(source) == {"_B", "_K", "_f"}
    assert read_names("import m\nm._f()\n") == {"m", "_f"}


def test_every_private_name_is_read_in_the_package():
    sources = [p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")]
    read = set().union(*map(read_names, sources))
    assert sorted(set().union(*map(defined_private_names, sources)) - read) == []


def test_finds_an_unused_import():
    source = "import math\nimport os.path\nfrom numbers import Real as R\nprint(os.sep)\n"
    assert unused_imports(source) == ["R", "math"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_all_is_the_names_init_imports_from_submodules():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {a.asname or a.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for a in node.names}
    assert len(rc.__all__) == len(set(rc.__all__))
    assert set(rc.__all__) == imported | {"__version__"}
    assert not [n for n in rc.__all__ if isinstance(getattr(rc, n), ModuleType)]


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from respchain import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(rc.__all__)


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        assert tomllib.load(f)["project"]["version"] == rc.__version__
