"""Which stored cells a reference reads: the graph and the engine must agree.

Both ask :meth:`Workbook.resolve` for the sheet and
:meth:`Sheet.column_slices` for the cells of a range. The property below
checks the agreement from outside: every formula cell the engine reads
while evaluating a cell is a precedent of that cell in the view of the
links between formula cells (``formulaview.formula_view``), and a cell
that view leaves out reads none.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sheetsentry.cli import main
from sheetsentry.evaluate import Engine
from sheetsentry.graph import build_graph
from sheetsentry.report import audit_workbook
from sheetsentry.workbook import (
    Cell,
    CellAddress,
    CellValue,
    Sheet,
    ValueKind,
    Workbook,
    load_workbook,
)

from conftest import addr, write_wbjson
from formulaview import formula_view

REF = CellValue.error("#REF!")


@pytest.mark.parametrize(
    "formula",
    [
        "=SUM([X]S!B1:B2)",                # the local range holds a formula cell
        "=VLOOKUP(5,[X]S!A1:B2,1,FALSE)",  # the local table holds the lookup itself
        "=SUM([X]S!C1:C2)",                # inputs only: the local sum would look stale
    ],
)
def test_external_range_is_ref_and_excluded(tmp_path, capsys, formula):
    cells = {
        "A1": {"f": formula, "v": 5},
        "B1": {"f": "=1+1", "v": 2},
        "B2": {"v": 3},
        "C1": {"v": 2},
        "C2": {"v": 3},
    }
    path = write_wbjson(tmp_path, {"sheets": [{"name": "S", "cells": cells}]})

    assert main(["audit", "--format", "json", path]) in (0, 1)
    staleness = json.loads(capsys.readouterr().out)["staleness"]
    assert staleness["external_exclusions"] == [{"sheet": "S", "cell": "A1"}]
    assert staleness["entries"] == []

    engine = Engine(load_workbook(path))
    engine.run()
    assert engine.values[addr("S", "A1")] == REF
    assert addr("S", "A1") in engine.tainted


# --- every formula cell the engine reads is a precedent in the formula graph

SHEETS = ("Data", "Calc")
COLS, ROWS = 3, 4
# qualifiers: none, each sheet in another case, a missing sheet, another workbook
QUALIFIERS = ["", "dATA!", "'DATA'!", "calc!", "CALC!", "Nope!", "[X]Data!", "[X]calc!"]


def _a1(col: int, row: int) -> str:
    return f"{'ABC'[col - 1]}{row}"


CORNER = st.tuples(st.integers(1, COLS), st.integers(1, ROWS))
QUALIFIER = st.sampled_from(QUALIFIERS)


@st.composite
def cell_refs(draw) -> str:
    return draw(QUALIFIER) + _a1(*draw(CORNER))


@st.composite
def range_refs(draw) -> str:
    (c1, r1), (c2, r2) = draw(CORNER), draw(CORNER)
    c1, c2 = sorted((c1, c2))
    r1, r2 = sorted((r1, r2))
    return f"{draw(QUALIFIER)}{_a1(c1, r1)}:{_a1(c2, r2)}"


@st.composite
def formulas(draw) -> str:
    shape = draw(st.sampled_from(["binary", "if", "aggregate", "lookup"]))
    if shape == "binary":
        return f"={draw(cell_refs())}{draw(st.sampled_from('+-*/'))}{draw(cell_refs())}"
    if shape == "if":
        return f"=IF({draw(cell_refs())}>1,{draw(cell_refs())},{draw(cell_refs())})"
    if shape == "aggregate":
        name = draw(st.sampled_from(["SUM", "COUNT", "MAX", "AND"]))
        return f"={name}({draw(range_refs())},{draw(cell_refs())})"
    width = draw(st.integers(1, 2))
    return f"=VLOOKUP({draw(cell_refs())},{draw(range_refs())},{width},FALSE)"


CELL = st.one_of(
    st.none(),
    st.sampled_from([0.0, 1.0, 2.5, -3.0]).map(lambda x: Cell(cached=CellValue.number(x))),
    formulas().map(lambda f: Cell(formula=f, cached=CellValue.number(0.0))),
)


@st.composite
def workbooks(draw) -> Workbook:
    sheets = []
    for name in SHEETS:
        cells = {}
        for col in range(1, COLS + 1):
            for row in range(1, ROWS + 1):
                cell = draw(CELL)
                if cell is not None:
                    cells[col, row] = cell
        sheets.append(Sheet(name, cells))
    return Workbook(sheets=sheets)


class RecordingValues(dict):
    """An engine's value map that records, per evaluated cell, the formula
    cells read while evaluating it.

    ``Engine._cell_value`` and ``Engine._read`` fetch every formula cell's
    value from this map, and the engine stores each result here once it is
    evaluated, which closes that cell's reads.
    """

    def __init__(self, formula_cells) -> None:
        super().__init__()
        self.formula_cells = formula_cells
        self.pending: set[CellAddress] = set()
        self.read_by: dict[CellAddress, set[CellAddress]] = {}

    def get(self, node, default=None):
        if node in self.formula_cells:
            self.pending.add(node)
        return super().get(node, default)

    def __setitem__(self, node, value) -> None:
        self.read_by[node], self.pending = self.pending, set()
        super().__setitem__(node, value)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(workbooks())
def test_engine_reads_only_graph_precedents(wb):
    g = build_graph(wb)
    engine = Engine(wb, graph=g)
    engine.values = recording = RecordingValues(engine.asts)
    engine.run()
    formulas = formula_view(g)
    linked = set(formulas.nodes)
    for node, read in recording.read_by.items():
        if node in linked:
            assert read <= set(formulas.precedents(node)), node
        else:
            assert not read, node
    for value in engine.values.values():
        if value.kind is ValueKind.NUMBER:
            assert math.isfinite(value.value)
    audit_workbook(wb)
