"""Whole-audit metamorphic relations: workbooks that must audit alike.

Each oracle elsewhere checks one stage against its slow twin. These
properties check the whole report instead, between two workbooks that
differ only in a way no finding, class or value may depend on.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from sheetsentry.formula import serialize_formula
from sheetsentry.report import audit_workbook, render_json
from sheetsentry.workbook import Cell, CellValue, Manifest, Sheet, Workbook

from astgen import SHEET_POOL, random_ast
from evalgen import random_acyclic_workbook

CACHED = [CellValue.number(0.0), CellValue.number(7.0), CellValue.text("x"), CellValue.boolean(True)]


@st.composite
def workbooks(draw) -> Workbook:
    """An evalgen sheet, a sheet of astgen formulas copied down in short
    runs, and a sheet of inputs named with an apostrophe."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    [evaluated] = random_acyclic_workbook(rng).sheets
    generated: dict[tuple[int, int], Cell] = {}
    for _ in range(rng.randrange(1, 8)):
        text = "=" + serialize_formula(random_ast(rng, depth=4))
        col, row = rng.randrange(1, 6), rng.randrange(1, 40)
        for copy in range(rng.randrange(1, 4)):
            generated[col, row + copy] = Cell(formula=text, cached=rng.choice(CACHED))
    inputs = {(1, row): Cell(cached=rng.choice(CACHED)) for row in range(1, rng.randrange(2, 9))}
    sheets = [evaluated, Sheet("Data", generated), Sheet("It's", inputs)]
    return Workbook(sheets=sheets, manifest=Manifest(specification="generated"))


def shuffled(wb: Workbook, rng: random.Random) -> Workbook:
    """``wb`` with each sheet's cells stored in another order."""
    sheets = []
    for sheet in wb.sheets:
        items = list(sheet.cells.items())
        rng.shuffle(items)
        sheets.append(Sheet(sheet.name, dict(items)))
    return Workbook(sheets=sheets, manifest=wb.manifest, settings=wb.settings, scripts=wb.scripts)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(workbooks(), st.randoms(use_true_random=False))
def test_cell_order_does_not_change_the_report(wb, rng):
    """Relation (a): shuffling each sheet's cell keys gives the same JSON, byte for byte."""
    assert render_json(audit_workbook(shuffled(wb, rng))) == render_json(audit_workbook(wb))


# the sheet names astgen qualifies references with
NAMED = {name.casefold() for name in SHEET_POOL if name}


@st.composite
def unread_sheets(draw) -> Sheet:
    """A sheet of inputs under a name no astgen reference reads."""
    name = draw(
        st.text(st.sampled_from("AbZ xé!'ıẞ1"), min_size=1, max_size=8).filter(
            lambda name: name.casefold() not in NAMED
        )
    )
    cells = draw(
        st.dictionaries(
            st.tuples(st.integers(1, 30), st.integers(1, 60)), st.sampled_from(CACHED), max_size=20
        )
    )
    return Sheet(name, {key: Cell(cached=value) for key, value in cells.items()})


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(workbooks(), unread_sheets(), st.integers(0, 3))
def test_a_sheet_no_formula_reads_does_not_change_the_report(wb, extra, at):
    """Relation (d): a sheet of inputs that no formula reads, inserted at
    the front, in the middle or at the end, gives the same JSON, byte for byte."""
    assume(all(extra.name.casefold() != sheet.name.casefold() for sheet in wb.sheets))
    sheets = wb.sheets[:at] + [extra] + wb.sheets[at:]
    grown = Workbook(sheets=sheets, manifest=wb.manifest, settings=wb.settings, scripts=wb.scripts)
    assert render_json(audit_workbook(grown)) == render_json(audit_workbook(wb))
