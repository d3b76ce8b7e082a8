"""The package stays free of runtime dependencies."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "sheetsentry").glob("*.py"))


def absolute_imports(path: Path) -> list[str]:
    """Every module an ``import`` or an absolute ``from ... import`` names."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_imports_are_stdlib_or_the_package():
    assert SOURCES
    for path in SOURCES:
        for name in absolute_imports(path):
            top = name.partition(".")[0]
            assert top == "sheetsentry" or top in sys.stdlib_module_names, (path.name, name)
