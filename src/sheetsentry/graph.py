"""Cell dependency graph -- precedents, dependents, cycles, ordering, DOT.

:func:`build_graph` keeps the graph by shape. A formula cell is already
held once, as its :class:`Template` and its hole values; the graph adds a
plan per template and sheet (:func:`_resolve`) and the external-link
inventory, nothing per cell. One function, :func:`_references`, reads
each cell's references from its plan and its values. Two views are built
from them, each on first use:

- The cell-level view behind the queries (precedents, dependents, edges,
  DOT). Its nodes are formula cells plus every referenced cell, and its
  edges run precedent -> dependent. A range expands to one edge per
  covered cell up to a cap; a larger range stays a single aggregate
  :class:`RangeNode`, which keeps ordering sound while staying coarse for
  precedent queries. The aggregate reads the formula cells inside it.
- :attr:`DepGraph.compact`, the scheduling view the engine orders
  evaluation by. Its nodes are the formula cells that read or feed a
  formula cell, plus chains of prefix nodes: a :func:`running_total`
  (one column, absolute top row, as in a copied ``=SUM($B$1:B9)``) reads
  one node of its column's chain, which reads the previous node and one
  formula cell. Its edges grow with formula cells plus ranges, not with
  their product (TACO's fixed-head, relative-tail pattern: Tang et al.,
  "Efficient and Compact Spreadsheet Formula Graphs", ICDE 2023).

Both views find the formula cells inside a range in one way, through the
sheet's column index (:meth:`Sheet.column_slices`): a bisection per
occupied column of the range, not a walk over its area or over every
formula cell. A view keeps what its nodes read as its builder returns it
(:attr:`DepGraph.reads`). Only the queries make precedent and dependent
lists of that (:func:`_adjacency`), so an audit builds none, and the
queries sort what they return.

Every reference is resolved by :meth:`Workbook.resolve`, as in the
evaluator. References into other workbooks, cells and ranges alike, become
no edges but entries of the external-link inventory, because the target
lives outside this file's audit boundary; they evaluate to ``#REF!``.
References to missing sheets produce no edges either.

:func:`components` is the one ordering and cycle routine: an iterative
Tarjan pass (R. E. Tarjan, "Depth-first search and linear graph
algorithms", SIAM J. Comput. 1972) over what each node reads, which yields
each strongly connected component once it is complete, so after every
component it reads. The recomputation engine evaluates the formula cells
in the order it yields them over :attr:`DepGraph.compact`;
:func:`topo_order` and :func:`cyclic_components` read it too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import Callable, Iterable, Iterator, Union

from .errors import UnknownNodeError
from .formula import Formulas, RangeRef, Ref, Template, parse_all_formulas, render_a1
from .workbook import CellAddress, Sheet, Workbook, col_to_letters

RANGE_EXPANSION_CAP = 100_000


@dataclass(frozen=True, slots=True)
class RangeNode:
    """A rectangle of cells on one sheet: in the cell-level view, the
    aggregate node standing in for a range too large to expand."""

    sheet: str
    start_col: int
    start_row: int
    end_col: int
    end_row: int

    def qualified(self) -> str:
        return (
            f"{self.sheet}!{col_to_letters(self.start_col)}{self.start_row}:"
            f"{col_to_letters(self.end_col)}{self.end_row}"
        )

    def size(self) -> int:
        return (self.end_col - self.start_col + 1) * (self.end_row - self.start_row + 1)


Node = Union[CellAddress, RangeNode]
Reads = Callable[[], dict[Node, list[Node]]]  # what each node of a view reads


@dataclass(frozen=True, slots=True)
class ExternalLink:
    """One formula-level reference into another workbook."""

    source: CellAddress
    workbook: str
    sheet: str
    target: str


@dataclass(slots=True)
class CycleReport:
    """Every strongly connected component with >= 2 nodes or a self-loop."""

    sccs: list[list[Node]]


class DepGraph:
    """Precedent/dependent graph over one workbook.

    ``reads`` and ``compact_reads`` say, when called, what each node of the
    cell-level view and of :attr:`compact` reads. Each view calls its
    function on first use (:attr:`reads`); the queries make adjacency
    lists of the result (:func:`_adjacency`) and sort what they return.
    """

    def __init__(
        self, reads: Reads, compact_reads: Reads, external_links: list[ExternalLink], wb: Workbook
    ) -> None:
        self._build = reads
        self._build_compact = compact_reads
        self.external_links = external_links
        self.wb = wb
        # rank of each stored sheet name; sort_key asks sheet_rank for other spellings
        self._ranks = {sheet.name: pos for pos, sheet in enumerate(wb.sheets)}

    @cached_property
    def reads(self) -> dict[Node, list[Node]]:
        """What the nodes of this view read, as its builder returns them: every
        formula cell and aggregate of the cell-level view, and the nodes of
        :attr:`compact` that read anything. The queries' :func:`_adjacency`
        drops each list's repeats in place."""
        return self._build()

    @cached_property
    def _view(self) -> tuple[dict[Node, list[Node]], dict[Node, list[Node]]]:
        return _adjacency(self.reads)

    @property
    def _preds(self) -> dict[Node, list[Node]]:
        return self._view[0]

    @property
    def _deps(self) -> dict[Node, list[Node]]:
        return self._view[1]

    @cached_property
    def compact(self) -> DepGraph:
        """The scheduling view: what evaluation has to order, and no more.

        Its nodes are the formula cells that read or feed another formula
        cell and the prefix chains of the running totals over them
        (:func:`_link_formulas`). Formula cell v comes after formula cell u
        in it exactly when v reads u, directly or through a range, so any
        order that puts its precedents first evaluates correctly; no range
        is expanded and inputs and blanks never become nodes. The formula
        cells on its cycles are those of the full view. Its own
        :attr:`compact` is the same view.
        """
        build = self._build_compact
        return DepGraph(build, build, self.external_links, self.wb)

    # -- ordering helpers

    def sort_key(self, node: Node) -> tuple:
        """Sheet order, then row, then column, as :meth:`Workbook.address_sort_key`."""
        rank = self._ranks.get(node.sheet)
        if rank is None:
            rank = self.wb.sheet_rank(node.sheet)
        if isinstance(node, RangeNode):
            return (rank, node.start_row, node.start_col, 1, node.end_row, node.end_col)
        return (rank, node.row, node.col, 0, 0, 0)

    # -- queries

    @property
    def nodes(self) -> list[Node]:
        """All nodes in deterministic order."""
        return sorted(self._preds, key=self.sort_key)

    def node_count(self) -> int:
        return len(self._preds)

    def edge_count(self) -> int:
        return sum(len(v) for v in self._deps.values())

    def precedents(self, node: Node) -> list[Node]:
        """Direct precedents of a node, in deterministic order."""
        if node not in self._preds:
            raise UnknownNodeError(f"not a graph node: {node}")
        return sorted(self._preds[node], key=self.sort_key)

    def dependents(self, node: Node) -> list[Node]:
        """Direct dependents of a node, in deterministic order."""
        if node not in self._deps:
            raise UnknownNodeError(f"not a graph node: {node}")
        return sorted(self._deps[node], key=self.sort_key)

    def edges(self) -> Iterator[tuple[Node, Node]]:
        """Every edge, ordered by source and then by destination."""
        for src in self.nodes:
            for dst in sorted(self._deps[src], key=self.sort_key):
                yield (src, dst)


def build_graph(wb: Workbook, asts: Formulas | None = None) -> DepGraph:
    """Build the dependency graph for a workbook.

    ``asts`` is :func:`parse_all_formulas` output for ``wb``; without it the
    workbook is parsed here, which raises :class:`ParseError` naming the
    cell. The references of a template are resolved once per sheet it is
    used on (:func:`_resolve`), and each cell's external links are collected
    from its own values. Nothing else is kept per cell: the views read each
    cell's nodes from its plan and values on first use.
    """
    if asts is None:
        asts = parse_all_formulas(wb)
    cells = asts.cells
    external_links: list[ExternalLink] = []
    plans: dict[tuple[Template, str], tuple[list, list]] = {}
    for addr, cell in cells.items():
        template = cell[0]
        plan = plans.get((template, addr.sheet))
        if plan is None:
            plan = plans[(template, addr.sheet)] = _resolve(wb, template, addr.sheet)
        for node, book in plan[1]:
            ref = template.reference(cell, node)
            corners = (ref.start, ref.end) if isinstance(ref, RangeRef) else (ref,)
            local = [replace(corner, sheet=None, external=None) for corner in corners]
            target = ":".join(map(render_a1, local))
            external_links.append(ExternalLink(addr, book, corners[0].sheet or "", target))
    references = partial(_references, cells, plans)
    reads = partial(_expand, references, cells)
    return DepGraph(reads, partial(_link_formulas, references, cells), external_links, wb)


def _resolve(wb: Workbook, template: Template, origin_sheet: str) -> tuple[list, list]:
    """The references of ``template`` on ``origin_sheet``, in source order,
    split in two. Per local reference: the stored sheet it reads, the index
    of its first value and, for a range, the ``$`` flags of its corners as
    written (``None`` for a cell). Per reference into another workbook: the
    leaf and that workbook's name. References to missing sheets are left
    out."""
    local, external = [], []
    for node in template.refs:
        found = wb.resolve(node.ref, origin_sheet)
        if isinstance(found, str):
            external.append((node, found))
        elif found is not None:
            at, flags = template.slots[id(node)]
            local.append((found, at, None if type(node) is Ref else flags))
    return local, external


def running_total(flags: tuple[bool, ...], cell: tuple, at: int) -> bool:
    """Whether the range whose corners' values sit at ``at`` in formula cell
    ``cell``, written with the ``$`` flags ``flags``, reads a prefix of one
    column: it spans one column, and its top row, once the corners are
    ordered, is absolute (``$B$2:B9``, ``B9:B$2``). Copies of such a range
    share their head, which the scheduling view's prefix chains and the
    engine's column records are kept by."""
    if cell[at] != cell[at + 2]:
        return False
    return flags[1] if cell[at + 1] <= cell[at + 3] else flags[3]


def _references(
    cells: dict[CellAddress, tuple], plans: dict[tuple[Template, str], tuple[list, list]]
) -> Iterator[tuple[CellAddress, Sheet, int, int, int, int, bool]]:
    """Every local reference of every formula cell, in cell and source order:
    the cell, the sheet read, the rectangle read, as left column, top row,
    right column and bottom row, and whether it is a :func:`running_total`.
    A cell reference is a 1x1 rectangle."""
    for addr, cell in cells.items():
        for sheet, at, flags in plans[cell[0], addr.sheet][0]:
            c1, r1 = cell[at], cell[at + 1]
            if flags is None:
                yield addr, sheet, c1, r1, c1, r1, False
            else:
                c2, r2 = cell[at + 2], cell[at + 3]
                yield (addr, sheet, min(c1, c2), min(r1, r2), max(c1, c2), max(r1, r2),
                       running_total(flags, cell, at))


def _expand(references: Callable, cells: dict[CellAddress, tuple]) -> dict[Node, list[Node]]:
    """What each node of the cell-level view reads.

    Every formula cell is a node. It reads each cell it references and, for
    a range, each covered cell up to :data:`RANGE_EXPANSION_CAP`; a larger
    range is read as one aggregate :class:`RangeNode`, which reads the
    formula cells inside it (:func:`_formula_cells`).
    """
    reads: dict[Node, list[Node]] = {addr: [] for addr in cells}
    for addr, sheet, c1, r1, c2, r2, _ in references():
        if (c2 - c1 + 1) * (r2 - r1 + 1) > RANGE_EXPANSION_CAP:
            node = RangeNode(sheet.name, c1, r1, c2, r2)
            reads[addr].append(node)
            if node not in reads:
                reads[node] = _formula_cells(sheet, c1, r1, c2, r2)
        else:
            cols, rows = range(c1, c2 + 1), range(r1, r2 + 1)
            reads[addr] += [CellAddress(sheet.name, col, row) for col in cols for row in rows]
    return reads


def _link_formulas(references: Callable, cells: dict[CellAddress, tuple]) -> dict[Node, list[Node]]:
    """What each node of the scheduling view reads, for the nodes that read any.

    A formula cell reads the formula cells it references, never an input;
    a formula cell it names is the key it has in ``cells``. A range reads the
    formula cells inside it (:func:`_formula_cells`), except a
    :func:`running_total`, which reads one node of a prefix chain
    (:func:`_prefix_node`). Every path through a chain ends at a formula
    cell inside the range that reads it, so the formula cells on a cycle
    are those of the cell-level view.
    """
    reads: dict[Node, list[Node]] = {}
    chains: dict[tuple[str, int, int], list[Node]] = {}
    addresses = None  # each formula cell's own address, by a plain (sheet, col, row) key
    for addr, sheet, c1, r1, c2, r2, running in references():
        if c1 == c2 and r1 == r2:
            cell = sheet.cells.get((c1, r1))
            if cell is None or cell.formula is None:
                continue
            if addresses is None:
                addresses = dict(zip(cells, cells))
            found = [addresses[sheet.name, c1, r1]]
        elif running:
            found = _prefix_node(reads, chains, sheet, c1, r1, r2)
        else:
            found = _formula_cells(sheet, c1, r1, c2, r2)
        if found:
            reads.setdefault(addr, []).extend(found)
    return reads


def _prefix_node(
    reads: dict[Node, list[Node]], chains: dict[tuple[str, int, int], list[Node]],
    sheet: Sheet, col: int, head: int, tail: int,
) -> list[Node]:
    """The chain node standing for the formula cells of column ``col`` of
    ``sheet`` from row ``head`` to row ``tail``, if there are any.

    There is one chain per sheet, column and first formula cell below the
    head, extended in ``chains`` and ``reads`` as far as ``tail`` asks. Its
    first node is that formula cell, and its *k*-th node a
    :class:`RangeNode` that reads node *k* - 1 and the column's next
    formula cell. So copied running totals cost an edge each plus two per
    formula cell they cover, not the product of the two.
    """
    slices = sheet.column_slices(col, head, col, tail)
    if not slices:
        return []
    [(column, lo, hi)] = slices
    first, last = column.before[lo], column.before[hi]
    if first == last:
        return []
    formulas = column.formulas
    chain = chains.get((sheet.name, col, first))
    if chain is None:
        chain = chains[sheet.name, col, first] = [formulas[first]]
    top = formulas[first].row
    while len(chain) < last - first:
        cell = formulas[first + len(chain)]
        node = RangeNode(sheet.name, col, top, col, cell.row)
        reads[node] = [chain[-1], cell]
        chain.append(node)
    return [chain[last - first - 1]]


def _formula_cells(sheet: Sheet, c1: int, r1: int, c2: int, r2: int) -> list[CellAddress]:
    """The formula cells inside a rectangle of ``sheet``, column by column,
    found through its column index (:meth:`Sheet.column_slices`) whatever
    its area."""
    found: list[CellAddress] = []
    for column, lo, hi in sheet.column_slices(c1, r1, c2, r2):
        found += column.formulas[column.before[lo]:column.before[hi]]
    return found


def _adjacency(
    reads: dict[Node, list[Node]],
) -> tuple[dict[Node, list[Node]], dict[Node, list[Node]]]:
    """Precedent and dependent lists of the graph whose nodes read ``reads``.

    ``reads`` itself becomes the precedent map, with each list's repeats
    dropped (one reference cannot read a cell twice, two can); a node that
    is read but reads nothing joins it with no precedents. Nothing is sorted.
    """
    deps: dict[Node, list[Node]] = {node: [] for node in reads}
    for node, srcs in reads.items():
        if len(srcs) > 1:
            srcs = reads[node] = list(dict.fromkeys(srcs))
        for src in srcs:
            if src in deps:
                deps[src].append(node)
            else:
                deps[src] = [node]
    for node in deps:
        if node not in reads:
            reads[node] = []
    return reads, deps


_DONE = 1 << 62  # above every visit number, so a finished node never lowers a low link


def components(
    reads: dict[Node, list[Node]], roots: Iterable[Node]
) -> Iterator[tuple[list[Node], bool]]:
    """The strongly connected components reachable from ``roots`` in the
    graph where each node reads ``reads.get(node, [])``, each with whether
    it is a cycle (two or more nodes, or one that reads itself).

    One iterative Tarjan pass, taking the roots in the order given and each
    node's reads in list order. A component is yielded once it is complete,
    so after every component it reads and before any that reads it.
    """
    index: dict[Node, int] = {}  # visit number, _DONE once the node's component is out
    stack: list[Node] = []
    looped: set[Node] = set()
    for root in roots:
        if root in index:
            continue
        number = index[root] = len(index)
        stack.append(root)
        work = [[root, iter(reads.get(root, ())), number, number]]  # node, reads left, index, low
        while work:
            frame = work[-1]
            node, it, number, low = frame
            for nxt in it:
                seen = index.get(nxt)
                if seen is None:
                    seen = index[nxt] = len(index)
                    stack.append(nxt)
                    work.append([nxt, iter(reads.get(nxt, ())), seen, seen])
                    break
                if seen < low:
                    low = frame[3] = seen
                elif seen == number:
                    looped.add(node)
            else:
                work.pop()
                if work and low < work[-1][3]:
                    work[-1][3] = low
                if low == number:
                    at = len(stack) - 1
                    while stack[at] is not node:
                        at -= 1
                    comp = stack[at:]
                    del stack[at:]
                    for member in comp:
                        index[member] = _DONE
                    yield comp, len(comp) > 1 or node in looped


def topo_order(g: DepGraph) -> list[Node] | CycleReport:
    """Topological order of the graph, or a :class:`CycleReport`.

    When acyclic, every edge goes forward in the returned order: the nodes
    are taken in sheet order, then row, then column, and the precedents of
    each that are not yet ordered come just before it. When cyclic, the
    report lists every strongly connected component with two or more nodes
    or a self-loop.
    """
    order: list[Node] = []
    for comp, cyclic in components(g._preds, g.nodes):
        if cyclic:
            return CycleReport(cyclic_components(g))
        order += comp
    return order


def cyclic_components(g: DepGraph) -> list[list[Node]]:
    """Strongly connected components that form cycles, deterministically ordered."""
    found = components(g._preds, g._preds)
    sccs = [sorted(comp, key=g.sort_key) for comp, cyclic in found if cyclic]
    sccs.sort(key=lambda comp: g.sort_key(comp[0]))
    return sccs


def to_dot(g: DepGraph) -> str:
    """Render the graph as DOT text.

    One node per cell named ``"Sheet!A1"``, with ``\\`` and ``"`` escaped;
    external links appear as dashed edges out of one box node per external
    workbook.
    """
    lines = ["digraph workbook {"]
    for node in g.nodes:
        lines.append(f"  {_dot_id(node.qualified())};")
    for src, dst in g.edges():
        lines.append(f"  {_dot_id(src.qualified())} -> {_dot_id(dst.qualified())};")
    for book in dict.fromkeys(link.workbook for link in g.external_links):
        lines.append(f"  {_dot_id(f'[{book}]')} [shape=box];")
    for link in g.external_links:
        book, source = _dot_id(f"[{link.workbook}]"), _dot_id(link.source.qualified())
        lines.append(f"  {book} -> {source} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_id(text: str) -> str:
    """``text`` as a quoted DOT ID, its ``\\`` and ``"`` escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'
