"""Every module-level import in the library is referenced by its module.

No linter ships with the project, so this walks the syntax tree of each
module in ``src/freeholo`` (``__init__.py`` re-exports and is skipped).
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "freeholo"


def unused_imports(source: str) -> list:
    """Names bound by top-level imports that no ``Name`` node reads."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - used)


def test_unused_imports_finds_what_is_never_read():
    source = "import os\nimport numpy as np\nfrom .a import b, c\nnp.zeros(c)\n"
    assert unused_imports(source) == ["b", "os"]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_library_modules_use_their_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
