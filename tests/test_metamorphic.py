"""Whole-audit metamorphic relations: workbooks that must audit alike.

Each oracle elsewhere checks one stage against its slow twin. These
properties check the whole report instead, between two workbooks that
differ only in a way no finding, class or value may depend on.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import replace

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from sheetsentry.formula import Binary, NumberLit, Ref, Reference, parse_formula, serialize_formula
from sheetsentry.normalize import copy_classes
from sheetsentry.report import _address_to_json, audit_workbook, render_json, report_to_dict
from sheetsentry.workbook import Cell, CellValue, Manifest, Sheet, Workbook

from astgen import SHEET_POOL, random_ast
from evalgen import random_acyclic_workbook
from test_shapes import map_refs

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


# Names a sheet is renamed to, each with its qualifier in normalized text:
# names that must be quoted (an apostrophe, a boolean, non-ASCII letters,
# a leading dot, a space, a "!"), a reference-shaped name and case variants.
QUALIFIERS = {
    "It's": "'IT''S'!",
    "TRUE": "'TRUE'!",
    "Données": "'DONNÉES'!",
    ".x": "'.X'!",
    "Q1": "Q1!",
    "a b": "'A B'!",
    "x!y": "'X!Y'!",
    "ẞ": "'ẞ'!",
    "Data": "DATA!",
    "DATA": "DATA!",
}


def renamed(wb: Workbook, old: str, new: str) -> Workbook:
    """``wb`` with sheet ``old`` named ``new``, and every reference to
    either name rewritten to the other through ``serialize_formula``, so
    each reference still reads what it read."""
    names = {old.casefold(): new, new.casefold(): old}

    def corner(ref):
        if ref.external is not None or ref.sheet is None:
            return ref
        return replace(ref, sheet=names.get(ref.sheet.casefold(), ref.sheet))

    sheets = []
    for sheet in wb.sheets:
        cells = {}
        for key, cell in sheet.cells.items():
            if cell.formula is not None:
                ast = parse_formula(cell.formula)
                moved = map_refs(ast, corner)
                if moved != ast:
                    cell = replace(cell, formula="=" + serialize_formula(moved))
            cells[key] = cell
        sheets.append(Sheet(new if sheet.name == old else sheet.name, cells))
    return Workbook(sheets=sheets, manifest=wb.manifest, settings=wb.settings, scripts=wb.scripts)


def with_hole(wb: Workbook, sheet: str) -> Workbook:
    """``wb`` with a run of copies on "Data" that read ``sheet``, broken by
    an input: its COPY_CLASS_HOLE finding carries the class's normalized text."""
    cells = dict(wb.sheet("Data").cells)
    for row in range(1, 8):
        ast = Binary("*", Ref(Reference(1, row, sheet=sheet)), NumberLit(3.0))
        cells[8, row] = Cell(formula="=" + serialize_formula(ast))
    cells[8, 4] = Cell(cached=CACHED[1])
    sheets = [Sheet("Data", cells) if s.name == "Data" else s for s in wb.sheets]
    return Workbook(sheets=sheets, manifest=wb.manifest, settings=wb.settings, scripts=wb.scripts)


def swapped(text: str, old: str, new: str) -> str:
    """Normalized text with the local qualifiers of ``old`` and ``new``
    swapped; an external one, which follows a "]", is left as it is."""
    a, b = QUALIFIERS[old], QUALIFIERS[new]
    qualifier = re.compile(rf"(?<![\]\w.'])(?:{re.escape(a)}|{re.escape(b)})")
    return qualifier.sub(lambda m: b if m.group() == a else a, text)


def mapped_back(doc, old: str, new: str):
    """Report data of the renamed workbook with the two names swapped back,
    in addresses and in normalized text."""
    if isinstance(doc, list):
        return [mapped_back(item, old, new) for item in doc]
    if not isinstance(doc, dict):
        return doc
    if doc.keys() == {"sheet", "cell"}:
        return {"sheet": old if doc["sheet"] == new else doc["sheet"], "cell": doc["cell"]}
    back = {key: mapped_back(value, old, new) for key, value in doc.items()}
    if "normalized_formula" in doc:
        back["normalized_formula"] = swapped(doc["normalized_formula"], old, new)
    return back


def classes_data(wb: Workbook) -> list[dict]:
    """The copy classes of ``wb`` in the shape of report data."""
    return [
        {"normalized_formula": c.normalized, "members": [_address_to_json(m) for m in c.members]}
        for c in copy_classes(wb)
    ]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(workbooks(), st.sampled_from(["Data", "It's"]), st.sampled_from(sorted(QUALIFIERS)))
def test_renaming_a_sheet_renames_it_in_the_report(wb, old, new):
    """Relation (c): a sheet renamed, and the references to it rewritten,
    gives the same report and copy classes with the name mapped back."""
    assume(all(new.casefold() != s.name.casefold() for s in wb.sheets if s.name != old))
    wb = with_hole(wb, old)
    other = renamed(wb, old, new)
    got = mapped_back(report_to_dict(audit_workbook(other)), old, new)
    assert json.dumps(got, indent=2, ensure_ascii=False) + "\n" == render_json(audit_workbook(wb))
    assert mapped_back(classes_data(other), old, new) == classes_data(wb)
