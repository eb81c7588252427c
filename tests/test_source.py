"""Checks on the package source itself, in place of a linter."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import reranklab

PACKAGE = Path(reranklab.__file__).resolve().parent


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_imported_name_is_used(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    if module == "__init__.py":  # its imports are the package's exports
        used = set(reranklab.__all__)
    else:
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in _imported_names(tree) if name not in used] == []


def _opcodes(parsed):
    """Every opcode name in a parsed regex, its nested parts included."""
    for op, av in parsed:
        yield str(op)
        for part in av if isinstance(av, (tuple, list)) else ():
            for item in part if isinstance(part, list) else (part,):
                if isinstance(item, re._parser.SubPattern):
                    yield from _opcodes(item)


@pytest.mark.skipif(not hasattr(re, "_parser"), reason="re._parser is Python 3.11's")
@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_no_pattern_needs_python_3_11(module):
    # pyproject.toml allows 3.10, whose re compiles no possessive repeat or atomic group
    namespace = vars(importlib.import_module(f"reranklab.{module}"))
    patterns = [value for value in namespace.values() if isinstance(value, re.Pattern)]
    for pattern in patterns:
        found = set(_opcodes(re._parser.parse(pattern.pattern, pattern.flags)))
        assert not found & {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}, pattern.pattern
