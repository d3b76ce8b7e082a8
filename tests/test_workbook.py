"""Address parsing, value model, and interchange loading."""

from __future__ import annotations

import itertools
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheetsentry.errors import AddressParseError, FormatError, IoError, ValidationError
from sheetsentry.workbook import (
    BLANK,
    CalcMode,
    CellValue,
    MAX_COL,
    MAX_ROW,
    Workbook,
    Sheet,
    col_to_letters,
    format_number,
    letters_to_col,
    load_workbook,
    parse_address,
)
from sheetsentry.formula import Reference, render_a1
from sheetsentry.metrics import compute_metrics

from conftest import make_workbook, stored_formula_count, write_wbjson


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
        "doc,path_fragment",
        [
            ({}, "$.sheets"),
            ({"sheets": []}, "$.sheets"),
            ({"sheets": [{"name": "S"}], "extra": 1}, "$"),
            ({"sheets": [{"name": ""}]}, "name"),
            ({"sheets": [{"name": "S", "cells": {"bad": {}}}]}, "bad"),
            ({"sheets": [{"name": "S", "cells": {"A1": {"f": "A1"}}}]}, ".f"),
            ({"sheets": [{"name": "S", "cells": {"A1": {"v": {"err": "#X!"}}}}]}, ".v"),
            ({"sheets": [{"name": "S", "cells": {"A1": {"v": None}}}]}, ".v"),
            ({"sheets": [{"name": "S"}], "settings": {"calc_mode": "off"}}, "calc_mode"),
        ],
    )
    def test_schema_violations_name_the_path(self, tmp_path, doc, path_fragment):
        path = write_wbjson(tmp_path, doc)
        with pytest.raises(FormatError) as err:
            load_workbook(path)
        assert path_fragment in str(err.value)

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
