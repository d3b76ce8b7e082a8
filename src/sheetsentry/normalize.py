"""Origin-independent formula normalization and copy-equivalence classes.

Two formulas that differ only by a pure copy translation (the same row and
column shift applied to every relative reference) normalize to identical
text. :func:`copy_classes` groups a workbook's formula cells by that
text, so ``len(copy_classes(wb))`` is its unique-formula count.
References render in R1C1 style relative to the cell holding the formula:
``R[-1]C[2]`` for relative parts (the bracket term is omitted when the
offset is zero), ``R5``/``C3`` for absolute parts. External references
keep their workbook and sheet qualifiers and always render as absolute
coordinates: a copied link is still the same link. Sheet and workbook
qualifiers are uppercased in the text because sheet-name comparison is
case-insensitive; class identity compares them casefolded, as
:meth:`Workbook.sheet` matches names, so ``'ı'!A1`` and ``'i'!A1`` (two
sheets) are two classes and ``'ẞ'!A1`` and ``'SS'!A1`` (one sheet) one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import (
    FormulaAst,
    Formulas,
    Range,
    Ref,
    Reference,
    Template,
    parse_all_formulas,
    render_ast,
)
from .workbook import CellAddress, Workbook

__all__ = ["CopyClass", "normalize", "copy_classes"]


@dataclass(frozen=True, slots=True)
class CopyClass:
    """All cells whose formulas share one normalized form.

    ``normalized`` is the text :func:`normalize` gives the representative;
    every member gives it, up to the case of sheet and workbook names.
    ``members`` is sorted by sheet order, then row, then column; the first
    member serves as the class representative in findings.
    """

    normalized: str
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


def normalize(ast: FormulaAst, origin: CellAddress) -> str:
    """Render a formula in origin-relative form.

    Total on parsed formulas; the origin is the address of the cell that
    holds the formula.
    """
    return render_ast(ast, _r1c1_qualifier, lambda ref: _r1c1_cell(ref, origin))


def _identity(ast: FormulaAst, origin: CellAddress) -> str:
    """The normalized text with qualifiers casefolded, as the workbook
    matches sheet names: two formulas are copies when these agree."""
    return render_ast(ast, _folded_qualifier, lambda ref: _r1c1_cell(ref, origin))


def _folded_qualifier(ref: Reference) -> str:
    if ref.external is not None:
        return f"[{ref.external.casefold()}]{_quote_name(ref.sheet.casefold())}!"
    if ref.sheet is not None:
        return f"{_quote_name(ref.sheet.casefold())}!"
    return ""


def _qualifier_of(node: Ref | Range) -> Reference:
    """The reference whose sheet and workbook name qualify a reference leaf."""
    return node.ref if isinstance(node, Ref) else node.ref.start


def _relative_values(template: Template) -> tuple[list[int], list[int], list[tuple[int, int]]]:
    """Where the origin enters the normalized text of a formula cell of ``template``.

    The indices of the cell's relative column and row values, which render
    as offsets from the origin, and, per range axis whose corners differ in
    anchoring, the indices of its two values: which corner comes first then
    decides which ``$`` flag each rendered corner carries. References into
    other workbooks render absolute.
    """
    cols: list[int] = []
    rows: list[int] = []
    mixed: list[tuple[int, int]] = []
    for node in template.refs:
        at, flags = template.slots[id(node)]
        if _qualifier_of(node).external is not None:
            continue
        for k in range(0, len(flags), 2):
            if not flags[k]:
                cols.append(at + k)
            if not flags[k + 1]:
                rows.append(at + k + 1)
        if len(flags) == 4:
            mixed += [(at + k, at + k + 2) for k in (0, 1) if flags[k] != flags[k + 2]]
    return cols, rows, mixed


def copy_classes(wb: Workbook, asts: Formulas | None = None) -> list[CopyClass]:
    """Partition all formula cells of a workbook into copy classes.

    Classes are pooled across sheets and keyed by normalized text, with
    sheet and workbook names compared casefolded. The result is ordered by
    each class's first member (sheet order, row, column). ``asts`` is
    :func:`parse_all_formulas` output for ``wb``; without it the workbook
    is parsed here, which raises :class:`ParseError` naming the offending
    cell.

    Cells of one template whose values agree once taken relative to their
    origins have one text, so the text is rendered once per such group,
    from the AST of its first member; groups of equal text, such as
    whitespace and case variants of one formula, then merge.
    """
    if asts is None:
        asts = parse_all_formulas(wb)
    cells = asts.cells
    by_template: dict[Template, list[CellAddress]] = {}
    for addr, cell in cells.items():
        same = by_template.get(cell[0])
        if same is None:
            by_template[cell[0]] = [addr]
        else:
            same.append(addr)
    groups: list[list[CellAddress]] = []
    for template, addrs in by_template.items():
        if len(addrs) == 1:
            groups.append(addrs)
            continue
        cols, rows, mixed = _relative_values(template)
        keyed: dict[tuple, list[CellAddress]] = {}
        for addr in addrs:
            cell = cells[addr]
            key = list(cell)
            for i in cols:
                key[i] -= addr.col
            for i in rows:
                key[i] -= addr.row
            for i, j in mixed:
                key.append(cell[i] > cell[j])
            key = tuple(key)
            members = keyed.get(key)
            if members is None:
                keyed[key] = [addr]
            else:
                members.append(addr)
        groups += keyed.values()
    # per identity: the text of the group with the first member, that
    # member, and every member
    classes: dict[str, tuple[str, CellAddress, list[CellAddress]]] = {}
    merged: set[str] = set()
    for members in groups:
        first = members[0]
        ast = asts[first]
        text = normalize(ast, first)
        identity = text  # unless a sheet or workbook name needs casefolding
        for node in cells[first][0].refs:
            qual = _qualifier_of(node)
            if qual.sheet is not None or qual.external is not None:
                identity = _identity(ast, first)
                break
        found = classes.get(identity)
        if found is None:
            classes[identity] = (text, first, members)
            continue
        if wb.address_sort_key(first) < wb.address_sort_key(found[1]):
            classes[identity] = (text, first, found[2])
        found[2].extend(members)
        merged.add(identity)
    for identity in merged:
        classes[identity][2].sort(key=wb.address_sort_key)
    result = [CopyClass(text, tuple(members)) for text, _, members in classes.values()]
    result.sort(key=lambda c: wb.address_sort_key(c.members[0]))
    return result
