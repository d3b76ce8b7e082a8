"""Shared helpers for building workbooks in tests."""

from __future__ import annotations

import gc
import json
import warnings
from pathlib import Path

import pytest
from hypothesis import settings

from sheetsentry.graph import cyclic_components
from sheetsentry.workbook import (
    BLANK,
    Cell,
    CellAddress,
    CellValue,
    Manifest,
    ScriptModule,
    Sheet,
    Workbook,
    WorkbookSettings,
    col_to_letters,
    parse_address,
)

FIXTURES = Path(__file__).parent / "fixtures"

# CI selects this profile with --hypothesis-profile=ci, so the fuzz
# properties that read it through fuzz_examples() run longer there.
settings.register_profile("ci", max_examples=2000)

# Hypothesis's pytest plugin imports this module, and so libcst where it is
# installed, while it reports a failing property. An old libcst warns on
# import, which under -W error replaces the falsifying example with an
# INTERNALERROR; importing it once here, warnings ignored, keeps the example.
try:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        import hypothesis.extra._patching  # noqa: F401
except ImportError:
    pass

TESTS = Path(__file__).parent


def pytest_collection_modifyitems(items) -> None:
    """Turn warnings into errors in every test here, as CI's ``-W error``
    does; a test's own ``filterwarnings`` marks still take precedence."""
    for item in items:
        if TESTS in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"), append=False)


def fuzz_examples(local: int) -> int:
    """``local`` examples, or the loaded profile's count when that is larger."""
    return max(local, settings.default.max_examples)


def addr(sheet: str, a1: str) -> CellAddress:
    col, row, _, _ = parse_address(a1)
    return CellAddress(sheet, col, row)


def as_value(spec) -> CellValue:
    if isinstance(spec, CellValue):
        return spec
    if isinstance(spec, bool):
        return CellValue.boolean(spec)
    if isinstance(spec, (int, float)):
        return CellValue.number(spec)
    if isinstance(spec, str):
        return CellValue.text(spec)
    if spec is None:
        return BLANK
    raise TypeError(f"cannot build a CellValue from {spec!r}")


def as_cell(spec) -> Cell:
    """Cell from shorthand: a (formula, cached) tuple, a "=..." string
    (formula with blank cache), or a plain value."""
    if isinstance(spec, Cell):
        return spec
    if isinstance(spec, tuple):
        formula, cached = spec
        return Cell(formula=formula, cached=as_value(cached))
    if isinstance(spec, str) and spec.startswith("="):
        return Cell(formula=spec, cached=BLANK)
    return Cell(formula=None, cached=as_value(spec))


def make_workbook(
    sheets: dict[str, dict[str, object]],
    manifest: Manifest | None = None,
    settings: WorkbookSettings | None = None,
    scripts: list[ScriptModule] | None = None,
) -> Workbook:
    built = []
    for name, cells in sheets.items():
        cell_map = {}
        for a1, spec in cells.items():
            col, row, _, _ = parse_address(a1)
            cell_map[(col, row)] = as_cell(spec)
        built.append(Sheet(name=name, cells=cell_map))
    return Workbook(
        sheets=built,
        manifest=manifest if manifest is not None else Manifest(),
        settings=settings if settings is not None else WorkbookSettings(),
        scripts=scripts if scripts is not None else [],
    )


def stored_cells(wb: Workbook) -> list[tuple[CellAddress, Cell]]:
    """Every stored cell of ``wb``: sheet by sheet, in reading order (row,
    then column) within a sheet."""
    return [
        (CellAddress(sheet.name, col, row), cell)
        for sheet in wb.sheets
        for (col, row), cell in sorted(sheet.cells.items(), key=lambda kv: kv[0][::-1])
    ]


def downstream(g, node) -> set:
    """Every node reachable from ``node`` over ``g.dependents``, not
    ``node`` itself unless it sits on a cycle."""
    seen: set = set()
    stack = g.dependents(node)
    while stack:
        cur = stack.pop()
        if cur not in seen:
            seen.add(cur)
            stack += g.dependents(cur)
    return seen


def cycle_nodes(g) -> set:
    """Every node of ``g`` that sits on a cycle."""
    return {node for comp in cyclic_components(g) for node in comp}


def stored_formula_count(wb: Workbook) -> int:
    """Stored cells that hold a formula, counted straight from the sheets."""
    return sum(cell.formula is not None for _, cell in stored_cells(wb))


def scale_grid_doc(n_classes: int = 400, rows_per_class: int = 250) -> dict:
    """Criterion 8's grid: inputs in column A and, in each of ``n_classes``
    columns, ``rows_per_class`` copies of ``=A{row}*k`` with a fresh cache."""
    cells = {}
    for i in range(n_classes):
        col_letters = col_to_letters(2 + i)
        for row in range(1, rows_per_class + 1):
            cells[f"{col_letters}{row}"] = {"f": f"=A{row}*{i + 2}", "v": row * (i + 2)}
    for row in range(1, rows_per_class + 1):
        cells[f"A{row}"] = {"v": row}
    return {
        "manifest": {"specification": "scale smoke model"},
        "sheets": [{"name": "S", "cells": cells}],
    }


def cyclic_garbage(fn) -> int:
    """Call ``fn`` with the cyclic collector paused and return the number of
    objects in the reference cycles it left behind.

    A first young collection empties generation 0. With collection off,
    all that ``fn`` allocates stays there, so collecting generation 0
    afterwards finds exactly the unreachable cycles ``fn`` made. Neither
    collection scans the older generations, so the cost follows ``fn``,
    not the size of the test process.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect(0)
        fn()
        return gc.collect(0)
    finally:
        if enabled:
            gc.enable()


def write_wbjson(tmp_path: Path, doc: dict, name: str = "wb.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _not_json(name: str):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def strict_json(text: str):
    """``json.loads`` that rejects ``NaN`` and ``Infinity``."""
    return json.loads(text, parse_constant=_not_json)


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES
