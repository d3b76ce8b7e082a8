"""Origin-independent formula normalization and copy-equivalence classes.

Two formulas that differ only by a pure copy translation (the same row and
column shift applied to every relative reference) normalize to identical
text, so the number of distinct normalized forms in a workbook is its
unique-formula count. References render in R1C1 style relative to the
cell holding the formula: ``R[-1]C[2]`` for relative parts (the bracket
term is omitted when the offset is zero), ``R5``/``C3`` for absolute
parts. External references keep their workbook and sheet qualifiers and
always render as absolute coordinates: a copied link is still the same
link. Sheet and workbook qualifiers are uppercased because sheet-name
comparison is case-insensitive.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import (
    FormulaAst,
    Reference,
    parse_all_formulas,
    render_ast,
)
from .workbook import CellAddress, Workbook

__all__ = [
    "NormalizedFormula",
    "CopyClass",
    "normalize",
    "copy_classes",
    "unique_formula_count",
]


@dataclass(frozen=True, slots=True)
class NormalizedFormula:
    """Canonical relative-form text of a formula."""

    text: str

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True, slots=True)
class CopyClass:
    """All cells whose formulas share one normalized form.

    ``members`` is sorted by sheet order, then row, then column; the first
    member serves as the class representative in findings.
    """

    normalized: NormalizedFormula
    members: tuple[CellAddress, ...]

    @property
    def representative(self) -> CellAddress:
        return self.members[0]


def _quote_name(name: str) -> str:
    if all(ch.isalnum() or ch in "_." for ch in name) and name and not name[0].isdigit():
        return name
    return f"'{name}'"


def _axis(letter: str, absolute: bool, value: int, origin: int) -> str:
    if absolute:
        return f"{letter}{value}"
    delta = value - origin
    return letter if delta == 0 else f"{letter}[{delta}]"


def _r1c1_cell(ref: Reference, origin: CellAddress) -> str:
    if ref.external is not None:
        return f"R{ref.row}C{ref.col}"
    return _axis("R", ref.abs_row, ref.row, origin.row) + _axis(
        "C", ref.abs_col, ref.col, origin.col
    )


def _r1c1_qualifier(ref: Reference) -> str:
    if ref.external is not None:
        return f"[{ref.external.upper()}]{_quote_name(ref.sheet.upper())}!"
    if ref.sheet is not None:
        return f"{_quote_name(ref.sheet.upper())}!"
    return ""


def normalize(ast: FormulaAst, origin: CellAddress) -> NormalizedFormula:
    """Render a formula in origin-relative form.

    Total on parsed formulas; the origin is the address of the cell that
    holds the formula.
    """
    return NormalizedFormula(
        render_ast(ast, _r1c1_qualifier, lambda ref: _r1c1_cell(ref, origin))
    )


def copy_classes(
    wb: Workbook, asts: dict[CellAddress, FormulaAst] | None = None
) -> list[CopyClass]:
    """Partition all formula cells of a workbook into copy classes.

    Classes are pooled across sheets and keyed by normalized text. The
    result is ordered by each class's first member (sheet order, row,
    column). ``asts`` is :func:`parse_all_formulas` output for ``wb``;
    without it the workbook is parsed here, which raises
    :class:`ParseError` naming the offending cell.
    """
    if asts is None:
        asts = parse_all_formulas(wb)
    groups: dict[str, list[CellAddress]] = {}
    for addr, ast in asts.items():
        groups.setdefault(normalize(ast, addr).text, []).append(addr)
    classes = [
        CopyClass(NormalizedFormula(text), tuple(members))
        for text, members in groups.items()
    ]
    classes.sort(key=lambda c: wb.address_sort_key(c.members[0]))
    return classes


def unique_formula_count(wb: Workbook) -> int:
    """The workbook's unique-formula count: its number of copy classes."""
    return len(copy_classes(wb))
