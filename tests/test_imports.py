"""No module of the package imports a name that it never reads, no
module-level constant of the package goes unread by it, and no error
message of the package quotes a value whole."""

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


def module_constants(source: str) -> list[str]:
    """Each upper-case name that a module-level statement of ``source``
    binds by assignment."""
    constants = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            constants += [name.id for name in ast.walk(target)
                          if isinstance(name, ast.Name) and name.id.isupper()]
    return list(dict.fromkeys(constants))


def read_names(source: str) -> set[str]:
    """Each name that ``source`` reads, alone or as an attribute."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def unread_constants(sources: dict[str, str]) -> list[str]:
    """Each module-level constant of the modules ``sources`` holds, by
    name, that none of them reads, as ``module.NAME``."""
    read = set().union(*map(read_names, sources.values()))
    return [f"{module}.{name}" for module, source in sorted(sources.items())
            for name in module_constants(source) if name not in read]


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


def test_finds_unread_constants():
    sources = {
        "a": "import b\nLIMIT = 3\nUNUSED: int = 4\n_HIDDEN, size = 5, 6\n"
             "def f():\n    STEP = 1\n    return b.SHARED + STEP\n",
        "b": "from a import LIMIT\nSHARED = 2\nGONE = LIMIT\nGONE += 1\n"
             "if __name__ == '__main__':\n    ORPHAN = 8\n",
    }
    assert unread_constants(sources) == ["a.UNUSED", "a._HIDDEN", "b.GONE"]


def test_package_reads_every_module_constant():
    """A path deleted from the package takes its tuning constants with it."""
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert sum(len(module_constants(s)) for s in sources.values()) > 0
    assert unread_constants(sources) == []


def reclens_errors(source: str) -> set[str]:
    """``ReclensError`` and each class of ``source`` that derives from it,
    directly or through another."""
    errors = {"ReclensError"}
    for node in ast.parse(source).body:
        bases = {getattr(base, "id", None) for base in getattr(node, "bases", ())}
        if isinstance(node, ast.ClassDef) and bases & errors:
            errors.add(node.name)
    return errors


def whole_reprs(source: str, errors: set[str]) -> list[str]:
    """Each value that the message of a raised error of ``errors`` formats
    with ``!r``, as ``line n``: a value is quoted as ``excerpt(repr(...))``,
    so that a long one cannot fill the error line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, "id", None) in errors):
            found += [f"line {value.lineno}" for value in ast.walk(node.exc)
                      if isinstance(value, ast.FormattedValue)
                      and value.conversion == ord("r")]
    return found


def test_finds_whole_reprs():
    errors = reclens_errors(
        "class ReclensError(Exception): pass\n"
        "class ParseError(ReclensError): pass\n"
        "class DeepError(ParseError): pass\n"
        "class Other(Exception): pass\n"
    )
    assert errors == {"ReclensError", "ParseError", "DeepError"}
    source = (
        "def f(x, y):\n"
        "    if x:\n"
        "        raise ParseError(f'bad {x!r}')\n"
        "    if y:\n"
        "        raise DeepError(\n"
        "            f'{x} and {y!r}') from None\n"
        "    raise KeyError(f'unknown {x!r}')\n"
        "def g(x):\n"
        "    raise ReclensError(f'bad {excerpt(repr(x))}, {x!s}')\n"
    )
    assert whole_reprs(source, errors) == ["line 3", "line 6"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_error_messages_quote_excerpts(module):
    errors = reclens_errors((PACKAGE / "errors.py").read_text())
    assert whole_reprs((PACKAGE / module).read_text(), errors) == []
