"""Every name a library module imports at top level is read somewhere in it.

No linter ships with the test dependencies, and code is often deleted
here, so an import left behind by a deletion is caught by this test.
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
