"""Address parsing, value model, and interchange loading."""

from __future__ import annotations

import dataclasses
import itertools
import pickle
import re
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheetsentry.cli import main
from sheetsentry.errors import AddressParseError, FormatError, IoError, ValidationError
from sheetsentry.workbook import (
    BLANK,
    CalcMode,
    Cell,
    CellValue,
    MAX_COL,
    MAX_ROW,
    Workbook,
    Sheet,
    ValueKind,
    col_to_letters,
    format_number,
    letters_to_col,
    load_workbook,
    parse_address,
    workbook_from_dict,
)
from sheetsentry.formula import Reference, render_a1
from sheetsentry.metrics import compute_metrics

from conftest import make_workbook, stored_formula_count, write_wbjson


def _cell(cell, key="A1") -> dict:
    return {"sheets": [{"name": "S", "cells": {key: cell}}]}


def _raw_value(number: str) -> str:
    return '{"sheets": [{"name": "S", "cells": {"A1": {"v": %s}}}]}' % number


# cell keys mostly of the pattern [A-Z]+[1-9][0-9]*, some past the bounds,
# some with letters of other cases and scripts, "$", a leading zero, digits
# of other scripts or a line break
KEYS = st.builds(
    lambda letters, digits: letters + digits,
    st.one_of(st.text("AZ", min_size=1, max_size=5), st.text("AZÉa$", max_size=3)),
    st.one_of(
        st.integers(1, 2 * MAX_ROW).map(str),
        st.integers(1, 10**9).map(str),
        st.text("019\u0661\n", max_size=4),
    ),
)


# (test id, document, the FormatError's full text); the first nine ids are
# the ones this table had when it checked only a fragment of the path
SCHEMA_VIOLATIONS = [
    ("doc0-$.sheets", {}, "$.sheets: expected a nonempty array of sheets"),
    ("doc1-$.sheets", {"sheets": []}, "$.sheets: expected a nonempty array of sheets"),
    ("doc2-$", {"sheets": [{"name": "S"}], "extra": 1}, "$: unknown key 'extra'"),
    ("doc3-name", {"sheets": [{"name": ""}]}, "$.sheets[0].name: sheet name must be nonempty"),
    ("doc4-bad", _cell({}, "bad"),
     "$.sheets[0].cells.bad: malformed cell address key 'bad'"),
    ("doc5-.f", _cell({"f": "A1"}),
     "$.sheets[0].cells.A1.f: formula must start with '=' and be nonempty"),
    ("doc6-.v", _cell({"v": {"err": "#X!"}}), "$.sheets[0].cells.A1.v: unknown error code '#X!'"),
    ("doc7-.v", _cell({"v": None}), "$.sheets[0].cells.A1.v: unsupported value type NoneType"),
    ("doc8-calc_mode", {"sheets": [{"name": "S"}], "settings": {"calc_mode": "off"}},
     "$.settings.calc_mode: expected 'automatic' or 'manual', got 'off'"),
    ("list-cell", _cell([]), "$.sheets[0].cells.A1: expected object, got list"),
    ("unknown-cell-key", _cell({"v": 1, "x": 1}), "$.sheets[0].cells.A1: unknown key 'x'"),
    ("null-formula", _cell({"f": None}), "$.sheets[0].cells.A1.f: expected string, got NoneType"),
    ("number-formula", _cell({"f": 3}), "$.sheets[0].cells.A1.f: expected string, got int"),
    ("bare-equals", _cell({"f": "="}),
     "$.sheets[0].cells.A1.f: formula must start with '=' and be nonempty"),
    ("list-value", _cell({"v": []}), "$.sheets[0].cells.A1.v: unsupported value type list"),
    ("nan", _raw_value("NaN"), "$.sheets[0].cells.A1.v: numbers must be finite"),
    ("infinity", _raw_value("Infinity"), "$.sheets[0].cells.A1.v: numbers must be finite"),
    ("1e999", _raw_value("1e999"), "$.sheets[0].cells.A1.v: numbers must be finite"),
    ("10**400", _raw_value(str(10**400)), "$.sheets[0].cells.A1.v: numbers must be finite"),
    ("error-with-extra-key", _cell({"v": {"err": "#N/A", "x": 1}}),
     "$.sheets[0].cells.A1.v: error values must be an object with a single 'err' key"),
    ("error-code-number", _cell({"v": {"err": 3}}),
     "$.sheets[0].cells.A1.v: unknown error code 3"),
    ("row-zero", _cell({}, "A0"), "$.sheets[0].cells.A0: malformed cell address key 'A0'"),
    ("column-past-bound", _cell({}, "ZZZZ1"),
     "$.sheets[0].cells.ZZZZ1: cell address 'ZZZZ1' out of bounds"),
    ("row-past-bound", _cell({}, "A1048577"),
     "$.sheets[0].cells.A1048577: cell address 'A1048577' out of bounds"),
]


def enumerate_columns(max_len: int):
    """Independent oracle: column letters in spreadsheet order (A, B, ..,
    Z, AA, AB, ..) produced by plain enumeration."""
    for length in range(1, max_len + 1):
        for combo in itertools.product(string.ascii_uppercase, repeat=length):
            yield "".join(combo)


class TestParseAddress:
    def test_simple(self):
        assert parse_address("A1") == (1, 1, False, False)

    def test_absolute_flags(self):
        assert parse_address("$B$2") == (2, 2, True, True)
        assert parse_address("$B2") == (2, 2, True, False)
        assert parse_address("B$2") == (2, 2, False, True)

    def test_two_letter_column(self):
        # oracle: bijective base-26, AA = 26*1 + 1 = 27
        assert parse_address("AA10") == (27, 10, False, False)

    def test_column_digits_against_enumeration_oracle(self):
        for index, letters in enumerate(itertools.islice(enumerate_columns(2), 0, 800), start=1):
            assert letters_to_col(letters) == index
            assert col_to_letters(index) == letters

    @pytest.mark.parametrize(
        "bad", ["", "A", "1", "A0", "$A$", "a1", "A-1", "A1B", "ZZZZ1", "A1048577"]
    )
    def test_malformed(self, bad):
        with pytest.raises(AddressParseError):
            parse_address(bad)

    def test_bounds_accepted(self):
        assert parse_address(f"ZZZ{MAX_ROW}") == (MAX_COL, MAX_ROW, False, False)

    @given(
        col=st.integers(min_value=1, max_value=MAX_COL),
        row=st.integers(min_value=1, max_value=MAX_ROW),
        abs_col=st.booleans(),
        abs_row=st.booleans(),
    )
    @settings(max_examples=300)
    def test_render_parse_roundtrip(self, col, row, abs_col, abs_row):
        text = render_a1(Reference(col, row, abs_col, abs_row))
        assert parse_address(text) == (col, row, abs_col, abs_row)


class TestCellValue:
    def test_variants_distinct(self):
        assert CellValue.number(1.0) != CellValue.boolean(True)
        assert CellValue.number(0.0) != BLANK
        assert CellValue.text("1") != CellValue.number(1.0)

    def test_error_codes_restricted(self):
        with pytest.raises(ValueError):
            CellValue.error("#NUM!")

    def test_format_number(self):
        assert format_number(2.0) == "2"
        assert format_number(2.5) == "2.5"
        assert format_number(0.0) == "0"
        assert format_number(1 / 3) == "0.333333333333333"


RECORDS = [
    CellValue.number(2.5), CellValue.text("x"), CellValue.boolean(False),
    CellValue.error("#N/A"), BLANK, Cell(), Cell("=A1"), Cell("=A1*2", CellValue.number(4.0)),
]


class TestRecords:
    """CellValue and Cell define their own ``__init__`` and stay frozen,
    slotted dataclasses: assignment, eq, hash, repr, ``replace`` and pickling
    are the generated ones."""

    @pytest.mark.parametrize("record", RECORDS, ids=repr)
    def test_fields_cannot_be_assigned(self, record):
        for f in dataclasses.fields(record):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, f.name, getattr(record, f.name))
        assert not hasattr(record, "__dict__")

    def test_equal_values_hash_equal(self):
        pairs = [
            (CellValue(ValueKind.NUMBER, 2.0), CellValue.number(2)),
            (CellValue(ValueKind.BLANK), BLANK),
            (Cell("=A1", BLANK), Cell(formula="=A1")),
            (Cell(cached=CellValue.text("t")), Cell(None, CellValue(value="t", kind=ValueKind.TEXT))),
        ]
        for a, b in pairs:
            assert a == b and hash(a) == hash(b)
        assert CellValue.number(1.0) != CellValue.number(2.0)
        assert Cell("=A1") != Cell("=A2")

    def test_repr(self):
        assert repr(CellValue.number(2.5)) == "CellValue(kind=<ValueKind.NUMBER: 'number'>, value=2.5)"
        assert repr(Cell("=A1", CellValue.text("a"))) == (
            "Cell(formula='=A1', cached=CellValue(kind=<ValueKind.TEXT: 'text'>, value='a'))"
        )

    @pytest.mark.parametrize("record", RECORDS, ids=repr)
    def test_replace_and_pickle_round_trip(self, record):
        for f in dataclasses.fields(record):
            again = dataclasses.replace(record, **{f.name: getattr(record, f.name)})
            assert type(again) is type(record) and again == record
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            again = pickle.loads(pickle.dumps(record, protocol))
            assert type(again) is type(record) and again == record
        assert dataclasses.replace(Cell(), formula="=B2") == Cell("=B2", BLANK)
        assert dataclasses.replace(CellValue.number(1.0), value=3.0) == CellValue.number(3.0)

    def test_defaults(self):
        assert (Cell().formula, Cell().cached) == (None, BLANK)
        assert (Cell(formula="=A1").formula, Cell(formula="=A1").cached) == ("=A1", BLANK)
        assert CellValue(ValueKind.BLANK).value is None
        assert CellValue(ValueKind.ERROR).value is None


class TestLoadWorkbook:
    def test_minimal(self, tmp_path):
        path = write_wbjson(
            tmp_path, {"sheets": [{"name": "Sheet1", "cells": {"A1": {"v": 5}}}]}
        )
        wb = load_workbook(path)
        assert len(wb.sheets) == 1
        assert len(list(wb.iter_cells())) == 1
        cell = wb.sheets[0].cell(1, 1)
        assert cell.formula is None
        assert cell.cached == CellValue.number(5)

    def test_formula_cell(self, tmp_path):
        path = write_wbjson(
            tmp_path,
            {"sheets": [{"name": "S", "cells": {"B1": {"f": "=A1", "v": 2}}}]},
        )
        wb = load_workbook(path)
        cell = wb.sheets[0].cell(2, 1)
        assert cell.formula == "=A1"
        assert cell.cached == CellValue.number(2)

    def test_duplicate_sheet_names_any_case(self, tmp_path):
        path = write_wbjson(
            tmp_path, {"sheets": [{"name": "S"}, {"name": "s"}]}
        )
        with pytest.raises(ValidationError):
            load_workbook(path)

    @pytest.mark.parametrize("name", ["[x]y", "[a", "["])
    def test_sheet_name_may_not_start_with_a_bracket(self, tmp_path, capsys, name):
        # no formula could reference it: '[x]y'!A1 is sheet y of workbook x
        path = write_wbjson(tmp_path, {"sheets": [{"name": "S"}, {"name": name}]})
        with pytest.raises(ValidationError):
            load_workbook(path)
        assert main(["audit", path]) == 2
        message = f"sheet name {name!r} may not start with '['"
        assert capsys.readouterr().err == f"sheetsentry: {message}\n"
        # elsewhere in the name a bracket is only a character
        wb = Workbook(sheets=[Sheet("S", {}), Sheet("x[y]", {})])
        assert wb.sheet("X[Y]") is wb.sheets[1]

    def test_value_variants(self, tmp_path):
        path = write_wbjson(
            tmp_path,
            {
                "sheets": [
                    {
                        "name": "S",
                        "cells": {
                            "A1": {"v": "text"},
                            "A2": {"v": True},
                            "A3": {"v": {"err": "#N/A"}},
                        },
                    }
                ]
            },
        )
        wb = load_workbook(path)
        sheet = wb.sheets[0]
        assert sheet.cell(1, 1).cached == CellValue.text("text")
        assert sheet.cell(1, 2).cached == CellValue.boolean(True)
        assert sheet.cell(1, 3).cached == CellValue.error("#N/A")

    def test_blank_cells_not_stored(self, tmp_path):
        path = write_wbjson(
            tmp_path, {"sheets": [{"name": "S", "cells": {"A1": {}}}]}
        )
        wb = load_workbook(path)
        assert list(wb.iter_cells()) == []

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            load_workbook(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(FormatError):
            load_workbook(str(path))

    @pytest.mark.parametrize(
        "doc,text",
        [pytest.param(doc, text, id=case) for case, doc, text in SCHEMA_VIOLATIONS],
    )
    def test_schema_violations_name_the_path(self, tmp_path, doc, text):
        """The full message: the JSON path, then what is wrong there. A
        ``str`` document is written as it stands, for numbers ``json.dumps``
        cannot spell."""
        if isinstance(doc, str):
            path = tmp_path / "wb.json"
            path.write_text(doc, encoding="utf-8")
        else:
            path = write_wbjson(tmp_path, doc)
        with pytest.raises(FormatError) as err:
            load_workbook(str(path))
        assert str(err.value) == text
        assert text.startswith(err.value.path + ": ")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(KEYS, min_size=1, max_size=8))
    def test_cell_keys_match_the_address_pattern(self, keys):
        """The loader's key decoding against the pattern it implements:
        ``[A-Z]+[1-9][0-9]*`` inside the sheet bounds, keys read in order."""
        sheet = {"name": "S", "cells": {key: {"v": 1} for key in keys}}
        expected = {}
        for key in sheet["cells"]:
            m = re.fullmatch(r"([A-Z]+)([1-9][0-9]*)", key)
            if m is None:
                text = f"malformed cell address key {key!r}"
            elif letters_to_col(m[1]) > MAX_COL or int(m[2]) > MAX_ROW:
                text = f"cell address {key!r} out of bounds"
            else:
                expected[(letters_to_col(m[1]), int(m[2]))] = CellValue.number(1)
                continue
            with pytest.raises(FormatError) as err:
                workbook_from_dict({"sheets": [sheet]})
            assert str(err.value) == f"$.sheets[0].cells.{key}: {text}"
            return
        cells = workbook_from_dict({"sheets": [sheet]}).sheets[0].cells
        assert {key: cell.cached for key, cell in cells.items()} == expected

    def test_number_subclasses_load_by_value(self):
        class Count(int):
            pass

        doc = {"sheets": [{"name": "S", "cells": {"A1": {"v": Count(3)}, "A2": {"v": True}}}]}
        cells = workbook_from_dict(doc).sheets[0].cells
        assert cells[(1, 1)].cached == CellValue.number(3)
        assert type(cells[(1, 1)].cached.value) is float
        assert cells[(1, 2)].cached == CellValue.boolean(True)

    def test_defaults(self, tmp_path):
        path = write_wbjson(tmp_path, {"sheets": [{"name": "S"}]})
        wb = load_workbook(path)
        assert wb.manifest.title is None
        assert wb.settings.calc_mode is CalcMode.AUTOMATIC
        assert wb.scripts == []

    def test_manifest_and_scripts(self, tmp_path):
        path = write_wbjson(
            tmp_path,
            {
                "manifest": {
                    "title": "T",
                    "specification": "计算 rates",
                    "assumptions": {"rate_source": "2024 tables"},
                },
                "settings": {"calc_mode": "manual"},
                "sheets": [{"name": "S"}],
                "scripts": [{"name": "M1", "source": "x = 1"}],
            },
        )
        wb = load_workbook(path)
        assert wb.manifest.title == "T"
        assert wb.manifest.assumptions_dict() == {"rate_source": "2024 tables"}
        assert wb.settings.calc_mode is CalcMode.MANUAL
        assert wb.scripts[0].name == "M1"

    def test_duplicate_script_names(self, tmp_path):
        path = write_wbjson(
            tmp_path,
            {
                "sheets": [{"name": "S"}],
                "scripts": [
                    {"name": "M", "source": ""},
                    {"name": "m", "source": ""},
                ],
            },
        )
        with pytest.raises(ValidationError):
            load_workbook(path)

    def test_deterministic_load(self, tmp_path):
        doc = {
            "manifest": {"title": "T"},
            "sheets": [
                {"name": "S", "cells": {"A1": {"v": 1}, "B2": {"f": "=A1", "v": 1}}}
            ],
        }
        path = write_wbjson(tmp_path, doc)
        assert load_workbook(path) == load_workbook(path)


class TestCounts:
    def test_formula_and_value_cells(self):
        wb = make_workbook({"S": {"A1": ("=1+1", 2), "A2": 5}})
        assert compute_metrics(wb).formula_cells == 1
        assert len(list(wb.iter_cells())) == 2

    def test_empty_workbook(self):
        wb = make_workbook({"S": {}})
        assert compute_metrics(wb).formula_cells == 0

    def test_partition_invariant(self):
        wb = make_workbook(
            {"S": {"A1": 1, "A2": ("=A1", 1), "A3": "text", "B9": ("=A2*2", 2)}}
        )
        stored = list(wb.iter_cells())
        assert len(stored) == 4
        assert compute_metrics(wb).formula_cells == stored_formula_count(wb) == 2

    def test_large_sample_formula_count(self):
        # synthetic workbook at the scale of the largest audited sample
        from sheetsentry.workbook import Cell

        cells = {
            (2, row): Cell(formula=f"=A{row}*2", cached=CellValue.number(0))
            for row in range(1, 67014)
        }
        wb = Workbook(sheets=[Sheet("S", cells)])
        assert stored_formula_count(wb) == 67013
