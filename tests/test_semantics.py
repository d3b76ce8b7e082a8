"""The rows of ``docs/semantics.md``, each with its value written by hand.

Each case is one row of a table there: the cells of a one-sheet workbook,
the cells the row is about and the value each must recompute to. The
numeric-text rows are pinned in ``test_evaluate.py``
(``TestScalars::test_numeric_text_grammar``).
"""

from __future__ import annotations

import math
from pathlib import Path

import pytest

from sheetsentry.evaluate import Engine, recompute_workbook
from sheetsentry.workbook import BLANK, CellValue

from conftest import addr, make_workbook

CIRC = CellValue.error("#CIRC!")
NA = CellValue.error("#N/A")
DIV0 = CellValue.error("#DIV/0!")
NAN = CellValue.number(math.nan)
ONE, TWO = CellValue.text("one"), CellValue.text("two")


def documented_rows(section: str) -> list[str]:
    """The table rows of the section of ``docs/semantics.md`` headed ``section``."""
    text = (Path(__file__).parent.parent / "docs" / "semantics.md").read_text(encoding="utf-8")
    start = text.index(f"## {section}\n")
    end = text.find("\n## ", start)
    table = text[start:] if end < 0 else text[start:end]
    return [line for line in table.splitlines() if line.startswith(("| `", "| the same"))]


# Exact-match lookups: per row, the cells, and per cell of interest its
# value and whether it is tainted. The keys sit in column A, the results
# in column B; a "the same" row repeats the row above's cells.
ERROR_TABLE = {"A1": 1, "A2": DIV0, "A3": 3, "B1": "one", "B3": "three",
               "C1": "=VLOOKUP(3,A1:B3,2,FALSE)"}
TAINT_TABLE = {"A1": 1, "A2": "=[X]S!A1", "B1": "one", "C1": "=VLOOKUP(9,A1:B2,2,FALSE)"}
THREE_ROWS = {"B1": "one", "B2": "two", "B3": "three"}
LOOKUP_ROWS = {
    "blank_key": (
        {"A1": "x", "A2": False, "A3": 0, **THREE_ROWS, "C1": "=VLOOKUP(Z1,A1:B3,2,FALSE)"},
        {"C1": (TWO, False)},
    ),
    "casefolded_text": (
        {"A1": "Apple", "B1": "one", "C1": '=VLOOKUP("APPLE",A1:B1,2,FALSE)'}, {"C1": (ONE, False)},
    ),
    "true_is_not_one": (
        {"A1": 1, "A2": True, "B1": "one", "B2": "two", "C1": "=VLOOKUP(TRUE,A1:B2,2,FALSE)"},
        {"C1": (TWO, False)},
    ),
    "nan_key": (
        {"A1": "x", "A2": 5, "A3": 7, **THREE_ROWS, "Z1": NAN, "C1": "=VLOOKUP(Z1,A1:B3,2,FALSE)"},
        {"C1": (TWO, False)},
    ),
    "nan_cell": (
        {"A1": "x", "A2": NAN, "A3": 7, **THREE_ROWS, "C1": "=VLOOKUP(7,A1:B3,2,FALSE)"},
        {"C1": (TWO, False)},
    ),
    "blank_skipped": (
        {"A1": BLANK, "A2": 0, "B1": "one", "B2": "two", "C1": "=VLOOKUP(0,A1:B2,2,FALSE)"},
        {"C1": (TWO, False)},
    ),
    "first_of_equals": (
        {"A1": 2, "A2": 2, "B1": "one", "B2": "two", "C1": "=VLOOKUP(2,A1:B2,2,FALSE)"},
        {"C1": (ONE, False)},
    ),
    "error_stops_scan": (ERROR_TABLE, {"C1": (DIV0, False)}),
    "error_past_tail": (
        {**ERROR_TABLE, "C2": "=VLOOKUP(9,A1:B1,2,FALSE)"}, {"C2": (NA, False)},
    ),
    "tainted_cell_read": (TAINT_TABLE, {"C1": (CellValue.error("#REF!"), True)}),
    "match_above_tainted_cell": (
        {**TAINT_TABLE, "C2": "=VLOOKUP(1,A1:B2,2,FALSE)"}, {"C2": (ONE, False)},
    ),
    "tainted_cell_past_tail": (
        {**TAINT_TABLE, "C3": "=VLOOKUP(9,A1:B1,2,FALSE)"}, {"C3": (NA, False)},
    ),
}


@pytest.mark.parametrize("name", list(LOOKUP_ROWS))
def test_exact_match_lookups(name):
    cells, expected = LOOKUP_ROWS[name]
    engine = Engine(make_workbook({"S": cells}))
    engine.run()
    got = {a1: (engine.values[addr("S", a1)], addr("S", a1) in engine.tainted) for a1 in expected}
    assert got == expected


def test_every_lookup_row_is_documented():
    assert len(documented_rows("Exact-match `VLOOKUP`")) == len(LOOKUP_ROWS)


# a running total and a lookup over a column that holds the cycle B2 <-> C2
# (A2 <-> B2 for the lookup)
TOTALS = {"B1": 1, "B2": "=C2", "C2": "=B2", "B3": 4}
LOOKUP = {"A1": 1, "A2": "=B2", "B2": "=A2", "A3": 3, "B1": "one", "B3": "three"}

CYCLE_ROWS = {
    "two_cell_cycle": ({"A1": "=B1+1", "B1": "=A1+1"}, {"A1": CIRC, "B1": CIRC}),
    "self_loop": ({"A1": "=A1+1"}, {"A1": CIRC}),
    "branch_never_taken": ({"A1": "=IF(TRUE,1,B1)", "B1": "=A1"}, {"A1": CIRC, "B1": CIRC}),
    "range_over_own_cell": ({"A1": 1, "A2": 2, "A3": "=SUM(A1:A3)"}, {"A3": CIRC}),
    "downstream_operator": ({"A1": "=B1", "B1": "=A1", "C1": "=A1+1"}, {"C1": CIRC}),
    "downstream_branch_not_taken": (
        {"A1": "=B1", "B1": "=A1", "C1": "=IF(TRUE,7,A1)"}, {"C1": CellValue.number(7)},
    ),
    "downstream_count": (
        {"A1": "=B1", "B1": "=A1", "A2": 3, "C1": "=COUNT(A1:B2)"}, {"C1": CellValue.number(1)},
    ),
    "running_total_above_member": ({**TOTALS, "D1": "=SUM($B$1:B1)"}, {"D1": CellValue.number(1)}),
    "running_total_over_member": ({**TOTALS, "D3": "=SUM($B$1:B3)"}, {"D3": CIRC}),
    "running_count_over_member": ({**TOTALS, "E3": "=COUNT($B$1:B3)"}, {"E3": CellValue.number(2)}),
    "running_total_on_its_cycle": (
        {"B1": 1, "B2": "=D2", "D2": "=SUM($B$1:B2)"}, {"B2": CIRC, "D2": CIRC},
    ),
    "lookup_above_member": (
        {**LOOKUP, "C1": "=VLOOKUP(1,A1:B3,2,FALSE)"}, {"C1": CellValue.text("one")},
    ),
    "lookup_past_member": ({**LOOKUP, "C2": "=VLOOKUP(3,A1:B3,2,FALSE)"}, {"C2": CIRC}),
}


@pytest.mark.parametrize("name", list(CYCLE_ROWS))
def test_cycles(name):
    cells, expected = CYCLE_ROWS[name]
    values = recompute_workbook(make_workbook({"S": cells}))
    assert {a1: values[addr("S", a1)] for a1 in expected} == expected


def test_every_cycle_row_is_documented():
    assert len(documented_rows("Cycles")) == len(CYCLE_ROWS)
