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
A sheet name is quoted by the serializer's rule, so ``'ẞ'!RC[-1]``,
``'TRUE'!RC`` and ``'.X'!RC`` are quoted and ``Q1!RC`` is not.

:func:`copy_classes` builds no AST. It reads each formula cell as its
:class:`~sheetsentry.formula.Template` and hole values, and works out per
template which values enter the text relative to the origin and how the
text is made of fixed pieces and those values. It takes the cells in one
pass, in the reading order :func:`parse_all_formulas` yields them (sheet
order, then row, then column), and relies on that order: each class and
each member list is built in the order its cells come, and never sorted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .formula import (
    Formulas,
    NumberLit,
    Range,
    Ref,
    Reference,
    Template,
    _needs_quote,
    _quote,
    number_literal,
    parse_all_formulas,
    render_pieces,
)
from .workbook import CellAddress, Workbook

__all__ = ["CopyClass", "copy_classes"]


@dataclass(frozen=True, slots=True)
class CopyClass:
    """All cells whose formulas share one normalized form.

    ``normalized`` is the representative's formula in normalized form;
    every member's formula has it, up to the case of sheet and workbook names.
    ``members`` is sorted by sheet order, then row, then column; the first
    member serves as the class representative in findings.
    """

    normalized: str
    members: tuple[CellAddress, ...]

    @property
    def representative(self) -> CellAddress:
        return self.members[0]


def _qualifier(ref: Reference, case: Callable[[str], str] = str.upper) -> str:
    """The workbook and sheet prefix of ``ref``, its names mapped by ``case``:
    upper case in normalized text, casefolded in a class's identity."""
    if ref.sheet is None:
        return ""
    sheet = case(ref.sheet)
    sheet = _quote(sheet) if _needs_quote(sheet) else sheet
    return f"{sheet}!" if ref.external is None else f"[{case(ref.external)}]{sheet}!"


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
    cell. Its cells must be in that reading order, as
    :func:`parse_all_formulas` yields them: classes and members are kept
    in the order their cells come.

    One pass over the cells. A cell's key is its template and its values
    taken relative to its origin; the first cell of a key renders the
    class text from the key alone and joins the class of that text, so
    whitespace and case variants of one formula, which have templates of
    their own, share a class. Later cells of a key join its class directly.
    """
    if asts is None:
        asts = parse_all_formulas(wb)
    shapes: dict[Template, _Shape] = {}
    groups: dict[tuple, list[CellAddress]] = {}
    classes: dict[str, tuple[str, list[CellAddress]]] = {}
    for addr, cell in asts.cells.items():
        shape = shapes.get(cell[0])
        if shape is None:
            shape = shapes[cell[0]] = _Shape(cell[0])
        key = shape.key(cell, addr)
        members = groups.get(key)
        if members is None:
            text, identity = shape.render(key)
            found = classes.get(identity)
            if found is None:
                found = classes[identity] = (text, [])
            members = groups[key] = found[1]
        members.append(addr)
    return [CopyClass(text, tuple(members)) for text, members in classes.values()]


class _Shape:
    """The class key and class text of the formula cells of one template.

    The text is the template's normalized text with a slot per number and
    reference leaf, filled from the key: a number renders its value, a
    relative coordinate its offset from the origin, which the key already
    holds, and an absolute one its value. A range orders its corners per
    axis as :func:`make_range` does, by value, or, where the corners differ
    in anchoring, by the bit the key carries for that axis.
    """

    __slots__ = ("cols", "rows", "mixed", "text", "identity", "holes")

    def __init__(self, template: Template) -> None:
        self.cols, self.rows, self.mixed = _relative_values(template)
        relative = {*self.cols, *self.rows}
        bits = {i: len(template.own) + 1 + k for k, (i, _) in enumerate(self.mixed)}
        texts, folded, self.holes = [""], [""], []
        pieces: list = []
        render_pieces(template.ast, lambda node: node, pieces)
        for piece in pieces:
            if isinstance(piece, str):
                texts[-1] += piece
                folded[-1] += piece
                continue
            at = template.slots[id(piece)][0]
            if isinstance(piece, NumberLit):
                self.holes.append(lambda key, at=at: number_literal(key[at]))
            else:
                qual = _qualifier_of(piece)
                texts[-1] += _qualifier(qual)
                folded[-1] += _qualifier(qual, str.casefold)
                if isinstance(piece, Ref):
                    self.holes.append(_corner(at, relative))
                else:
                    self.holes.append(_range(at, relative, bits))
            texts.append("")
            folded.append("")
        self.text = _format(texts)
        identity = _format(folded)
        self.identity = None if identity == self.text else identity

    def key(self, cell: tuple, addr: CellAddress) -> tuple:
        """The class key of formula cell ``cell`` at ``addr``."""
        key = list(cell)
        for i in self.cols:
            key[i] -= addr.col
        for i in self.rows:
            key[i] -= addr.row
        for i, j in self.mixed:
            key.append(cell[i] > cell[j])
        return tuple(key)

    def render(self, key: tuple) -> tuple[str, str]:
        """The normalized text of the class with key ``key`` and its identity,
        the text with sheet and workbook names casefolded."""
        values = [hole(key) for hole in self.holes]
        text = self.text.format(*values)
        return text, text if self.identity is None else self.identity.format(*values)


def _format(texts: list[str]) -> str:
    """A format string with the given texts around its fields."""
    return "{}".join(text.replace("{", "{{").replace("}", "}}") for text in texts)


def _coordinate(letter: str, i: int, relative: bool) -> Callable[[tuple], str]:
    """The text of the coordinate that key value ``i`` holds."""
    if relative:
        return lambda key: f"{letter}[{key[i]}]" if key[i] else letter
    return lambda key: f"{letter}{key[i]}"


def _corner(at: int, relative: set[int]) -> Callable[[tuple], str]:
    """The text of the reference corner whose column and row are key values
    ``at`` and ``at + 1``."""
    row = _coordinate("R", at + 1, at + 1 in relative)
    col = _coordinate("C", at, at in relative)
    return lambda key: row(key) + col(key)


def _range(at: int, relative: set[int], bits: dict[int, int]) -> Callable[[tuple], str]:
    """The text of the range whose corners as written are key values ``at``
    to ``at + 3``; ``bits`` gives, per mixed-anchor axis, the key value that
    says whether its second corner comes first."""
    rows = _ordered("R", at + 1, at + 3, relative, bits.get(at + 1))
    cols = _ordered("C", at, at + 2, relative, bits.get(at))

    def text(key: tuple) -> str:
        (r1, r2), (c1, c2) = rows(key), cols(key)
        return f"{r1}{c1}:{r2}{c2}"
    return text


def _ordered(
    letter: str, i: int, j: int, relative: set[int], bit: int | None
) -> Callable[[tuple], tuple[str, str]]:
    """The texts of one axis of a range's two corners, lower value first;
    corners anchored alike compare by their key values, relative or not."""
    first, second = _coordinate(letter, i, i in relative), _coordinate(letter, j, j in relative)

    def texts(key: tuple) -> tuple[str, str]:
        swapped = key[i] > key[j] if bit is None else key[bit]
        return (second(key), first(key)) if swapped else (first(key), second(key))
    return texts
