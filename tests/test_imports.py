"""Every name a library module imports at top level is read somewhere in it.

No linter ships with the test dependencies, and code is often deleted
here, so an import left behind by a deletion is caught by this test.
The package's __init__.py is skipped: it imports names to re-export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "respchain"
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
