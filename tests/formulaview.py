"""The links between formula cells, cell by cell: the scheduling view's oracle.

:func:`formula_view` builds the view the engine scheduled over before the
prefix chains: an edge u -> v exactly when formula cell v reads formula
cell u, directly or inside a range, and no node off those edges. The
engine now schedules over :attr:`DepGraph.compact`, where a running total
reads one chain node in place of every formula cell above it; tests
compare the two and the full view.
"""

from __future__ import annotations

from functools import partial

from sheetsentry.formula import parse_all_formulas
from sheetsentry.graph import DepGraph, Node, _formula_cells, _references, _resolve
from sheetsentry.workbook import CellAddress


def link_formulas(references) -> dict[Node, list[Node]]:
    """What each formula cell reads of the formula cells, for the cells that
    read any. A cell reference is looked up in its sheet's cell store, so
    no node is made for a read of an input; a range reads the formula cells
    inside it (:func:`_formula_cells`)."""
    reads: dict[Node, list[Node]] = {}
    for addr, sheet, c1, r1, c2, r2, _ in references():
        if c1 == c2 and r1 == r2:
            cell = sheet.cells.get((c1, r1))
            if cell is None or cell.formula is None:
                continue
            found = [CellAddress(sheet.name, c1, r1)]
        else:
            found = _formula_cells(sheet, c1, r1, c2, r2)
        if found:
            reads[addr] = reads[addr] + found if addr in reads else found
    return reads


def formula_view(g: DepGraph) -> DepGraph:
    """The formula cells of ``g``'s workbook and the links between them; its
    own :attr:`DepGraph.compact` has the same links."""
    wb = g.wb
    cells = parse_all_formulas(wb).cells
    plans: dict = {}
    for addr, cell in cells.items():
        if (cell[0], addr.sheet) not in plans:
            plans[cell[0], addr.sheet] = _resolve(wb, cell[0], addr.sheet)
    reads = partial(link_formulas, partial(_references, cells, plans))
    return DepGraph(reads, reads, g.external_links, wb)
