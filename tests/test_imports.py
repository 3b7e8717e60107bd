"""No module of the package imports a name that it never reads."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "reclens"


def unused_imports(source: str) -> list[str]:
    """Each name that an import statement of ``source`` binds and that no
    expression of ``source`` reads, as ``name (line n)``.  ``import a.b``
    binds ``a``; ``from __future__`` imports bind nothing."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in read]


def test_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "import numpy as np\n"
        "from json import dumps, loads as read\n"
        "def f():\n"
        "    from typing import Any\n"
        "    return np.zeros(1), dumps\n"
    )
    assert unused_imports(source) == ["Any (line 7)", "os (line 3)",
                                      "read (line 5)"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_reads_every_name_it_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
