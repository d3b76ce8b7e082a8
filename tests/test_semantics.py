"""The rows of ``docs/semantics.md``, each with its value written by hand.

Each case is one row of a table there: the cells of a one-sheet workbook,
the cells the row is about and the value each must recompute to. The
numeric-text rows are pinned in ``test_evaluate.py``
(``TestScalars::test_numeric_text_grammar``).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from sheetsentry.evaluate import recompute_workbook
from sheetsentry.workbook import CellValue

from conftest import addr, make_workbook

CIRC = CellValue.error("#CIRC!")

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
    text = (Path(__file__).parent.parent / "docs" / "semantics.md").read_text(encoding="utf-8")
    table = text[text.index("## Cycles"):]
    rows = [line for line in table.splitlines() if line.startswith("| `") or line.startswith("| the same")]
    assert len(rows) == len(CYCLE_ROWS)
