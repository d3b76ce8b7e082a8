"""Normalization, copy invariance, and copy-class partitioning."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from sheetsentry.errors import ParseError
from sheetsentry.formula import (
    Binary,
    Call,
    FormulaAst,
    Range,
    RangeRef,
    Ref,
    Reference,
    Unary,
    parse_formula,
)
from sheetsentry.normalize import copy_classes, normalize
from sheetsentry.workbook import CellAddress

from astgen import random_ast
from conftest import addr, make_workbook, stored_formula_count


def norm_text(src: str, origin: CellAddress) -> str:
    return normalize(parse_formula(src), origin)


# --- brute-force translation oracle -----------------------------------------


def translate_ref(ref: Reference, dr: int, dc: int) -> Reference:
    """Shift the relative parts of an internal reference; external links
    are the same link wherever they are copied, so they do not move."""
    if ref.external is not None:
        return ref
    return replace(
        ref,
        row=ref.row if ref.abs_row else ref.row + dr,
        col=ref.col if ref.abs_col else ref.col + dc,
    )


def translate_ast(node: FormulaAst, dr: int, dc: int) -> FormulaAst:
    if isinstance(node, Ref):
        return Ref(translate_ref(node.ref, dr, dc))
    if isinstance(node, Range):
        rng = node.ref
        return Range(
            RangeRef(translate_ref(rng.start, dr, dc), translate_ref(rng.end, dr, dc))
        )
    if isinstance(node, Call):
        return Call(node.name, tuple(translate_ast(a, dr, dc) for a in node.args))
    if isinstance(node, Unary):
        return Unary(node.op, translate_ast(node.operand, dr, dc))
    if isinstance(node, Binary):
        return Binary(node.op, translate_ast(node.left, dr, dc), translate_ast(node.right, dr, dc))
    return node


def bounded_ast(rng: random.Random) -> FormulaAst:
    """Generated formula whose references stay far from the address bounds
    so any small translation keeps them valid."""
    while True:
        ast = random_ast(rng, depth=4)
        refs = []
        _collect(ast, refs)
        if all(100 <= r.col <= 500 and 100 <= r.row <= 500 for r in refs):
            return ast


def _collect(node, out):
    if isinstance(node, Ref):
        out.append(node.ref)
    elif isinstance(node, Range):
        out.extend([node.ref.start, node.ref.end])
    elif isinstance(node, Call):
        for a in node.args:
            _collect(a, out)
    elif isinstance(node, Unary):
        _collect(node.operand, out)
    elif isinstance(node, Binary):
        _collect(node.left, out)
        _collect(node.right, out)


class TestNormalize:
    def test_relative_one_left(self):
        assert norm_text("=A2*2", addr("S", "B2")) == "RC[-1]*2"

    def test_copy_down_invariance(self):
        assert norm_text("=A3*2", addr("S", "B3")) == norm_text("=A2*2", addr("S", "B2"))

    def test_absolute_plus_relative(self):
        # derived by the rendering rule: $A$1 -> R1C1, B5 from C5 -> RC[-1]
        assert norm_text("=$A$1+B5", addr("S", "C5")) == "R1C1+RC[-1]"

    def test_mixed_absolute_parts(self):
        assert norm_text("=$A5", addr("S", "C5")) == "RC1"
        assert norm_text("=A$5", addr("S", "C5")) == "R5C[-2]"

    def test_zero_offset_omits_brackets(self):
        assert norm_text("=B2", addr("S", "B2")) == "RC"

    def test_numeric_literal_canonicalization(self):
        assert norm_text("=A1*2.0", addr("S", "B1")) == norm_text("=A1*2", addr("S", "B1"))

    def test_sheet_qualifier_uppercased(self):
        assert norm_text("=data!A1", addr("S", "B1")) == norm_text(
            "=DATA!A1", addr("S", "B1")
        )
        assert "DATA!" in norm_text("=Data!A1", addr("S", "B1"))

    def test_external_always_absolute(self):
        one = norm_text("=[Rates]S1!A1", addr("S", "B1"))
        two = norm_text("=[Rates]S1!A1", addr("S", "D9"))
        assert one == two == "[RATES]S1!R1C1"

    def test_range_normalization(self):
        assert norm_text("=SUM(B2:B10)", addr("S", "C1")) == "SUM(R[1]C[-1]:R[9]C[-1])"

    def test_functions_uppercase_no_whitespace(self):
        assert norm_text("=if( A1 , 1 , 2 )", addr("S", "B1")) == "IF(RC[-1],1,2)"

    def test_translation_invariance_randomized(self):
        rng = random.Random(2024)
        for _ in range(200):
            ast = bounded_ast(rng)
            origin = CellAddress("S", rng.randrange(100, 500), rng.randrange(100, 500))
            dr, dc = rng.randrange(-50, 51), rng.randrange(-50, 51)
            moved = translate_ast(ast, dr, dc)
            moved_origin = CellAddress("S", origin.col + dc, origin.row + dr)
            assert normalize(moved, moved_origin) == normalize(ast, origin)


class TestDiscrimination:
    CASES = [
        ("=A1", "=$A$1"),
        ("=A1", "=$A1"),
        ("=A1", "=A$1"),
        ("=A1+B1", "=B1+A1"),
        ("=A1", "=A2"),
        ("=A1*2", "=A1*3"),
        ("=SUM(A1:A3)", "=SUM(A1:A4)"),
    ]

    @pytest.mark.parametrize("left,right", CASES)
    def test_unrelated_formulas_differ(self, left, right):
        origin = addr("S", "D4")
        assert norm_text(left, origin) != norm_text(right, origin)

    def test_same_text_different_column_context(self):
        # same source text, but the copies are not column-translations
        assert norm_text("=A2*2", addr("S", "B2")) != norm_text("=A2*2", addr("S", "C2"))


class TestCopyClasses:
    def test_single_class_from_copies(self):
        wb = make_workbook(
            {"S": {"B2": "=A2*2", "B3": "=A3*2", "B4": "=A4*2"}}
        )
        classes = copy_classes(wb)
        assert len(classes) == 1
        assert len(classes[0].members) == 3
        assert classes[0].normalized == "RC[-1]*2"

    def test_two_classes_same_text(self):
        wb = make_workbook({"S": {"B2": "=A2*2", "C2": "=A2*2"}})
        classes = copy_classes(wb)
        texts = sorted(c.normalized for c in classes)
        assert texts == ["RC[-1]*2", "RC[-2]*2"]

    def test_empty_workbook(self):
        wb = make_workbook({"S": {}})
        assert copy_classes(wb) == []

    def test_pooled_across_sheets(self):
        wb = make_workbook({"S1": {"B2": "=A2*2"}, "S2": {"B9": "=A9*2"}})
        assert len(copy_classes(wb)) == 1

    def test_two_dimensional_fill_is_one_class(self):
        cells = {}
        for col_letter, col in (("B", 2), ("C", 3), ("D", 4)):
            for row in (2, 3, 4):
                cells[f"{col_letter}{row}"] = f"={chr(64 + col - 1)}{row - 1}*2"
        wb = make_workbook({"S": cells})
        assert len(copy_classes(wb)) == 1

    def test_partition_invariant(self):
        rng = random.Random(7)
        cells = {}
        for i in range(60):
            col = rng.randrange(2, 8)
            row = rng.randrange(1, 30)
            cells[f"{chr(64 + col)}{row}"] = f"=A{row}*{rng.randrange(2, 5)}"
        wb = make_workbook({"S": cells})
        classes = copy_classes(wb)
        assert sum(len(c.members) for c in classes) == stored_formula_count(wb)
        seen = set()
        for cls in classes:
            for member in cls.members:
                assert member not in seen
                seen.add(member)

    def test_members_sorted_and_representative(self):
        wb = make_workbook({"S": {"B9": "=A9*2", "B2": "=A2*2"}})
        cls = copy_classes(wb)[0]
        assert cls.representative == addr("S", "B2")

    def test_parse_error_names_cell(self):
        wb = make_workbook({"S": {"B1": "=1+"}})
        with pytest.raises(ParseError) as err:
            copy_classes(wb)
        assert "S!B1" in str(err.value)

    def test_unique_formula_count_synthetic_table_row(self):
        # 351 distinct normalized formulas, each fanned over several cells
        cells = {}
        for i in range(351):
            multiplier = i + 2
            col = 2 + (i % 26)
            base_row = 1 + (i // 26) * 40
            for copy in range(3):
                row = base_row + copy
                cells[f"{_letters(col)}{row}"] = f"=A{row}*{multiplier}"
        wb = make_workbook({"S": cells})
        assert stored_formula_count(wb) == 351 * 3
        assert len(copy_classes(wb)) == 351


def _letters(col: int) -> str:
    from sheetsentry.workbook import col_to_letters

    return col_to_letters(col)


class TestPairwiseOracle:
    def test_partition_matches_pairwise_translation(self):
        """Brute-force oracle: two formula cells are copy-equivalent iff
        translating one's AST by their address delta yields the other's."""
        rng = random.Random(11)
        cells = {}
        for i in range(25):
            col = rng.randrange(2, 10)
            row = rng.randrange(2, 20)
            kind = rng.randrange(3)
            if kind == 0:
                cells[f"{_letters(col)}{row}"] = f"=A{row}*2"
            elif kind == 1:
                cells[f"{_letters(col)}{row}"] = f"=$B$1+A{row}"
            else:
                cells[f"{_letters(col)}{row}"] = f"=SUM(A1:A{row})"
        wb = make_workbook({"S": cells})
        asts = {}
        for address, cell in wb.iter_cells():
            if cell.formula:
                asts[address] = parse_formula(cell.formula)

        def equivalent(a1, a2) -> bool:
            dr, dc = a2.row - a1.row, a2.col - a1.col
            return translate_ast(asts[a1], dr, dc) == asts[a2]

        classes = copy_classes(wb)
        class_of = {}
        for idx, cls in enumerate(classes):
            for member in cls.members:
                class_of[member] = idx
        addresses = sorted(asts, key=wb.address_sort_key)
        for i, a1 in enumerate(addresses):
            for a2 in addresses[i + 1 :]:
                same_class = class_of[a1] == class_of[a2]
                assert same_class == equivalent(a1, a2), (a1, a2)
