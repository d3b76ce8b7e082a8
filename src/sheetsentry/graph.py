"""Cell dependency graph -- precedents, dependents, cycles, ordering, DOT.

:func:`build_graph` keeps ranges compact: each formula cell maps to the
cells and range rectangles (:class:`RangeNode`) it reads. Two views are
built from that form lazily, each on first use:

- The cell-level view behind the queries (precedents, dependents, edges,
  DOT). Its nodes are formula cells plus every referenced cell, and its
  edges run precedent -> dependent. A range expands to one edge per
  covered cell up to a cap; a larger range stays a single aggregate
  :class:`RangeNode`, which keeps ordering sound while staying coarse for
  precedent queries. The aggregate reads the formula cells inside it.
- :attr:`DepGraph.formulas`, the links between formula cells; a formula
  cell on no link is no node. The engine schedules over it.

Both views find the formula cells inside a range in one way,
:func:`_formula_cells`, through the sheet's column index
(:meth:`Sheet.column_slices`). That costs a bisection per occupied column
of the range, not a walk over its area or over every formula cell, so the
formula view's size follows the formulas that read formulas.

Each view says what its nodes read, once each. One builder, :func:`_adjacency`,
turns that into unsorted adjacency lists; the queries sort what they return.

Every reference is resolved by :meth:`Workbook.resolve`, as in the
evaluator. References into other workbooks, cells and ranges alike, become
no edges but entries of the external-link inventory, because the target
lives outside this file's audit boundary; they evaluate to ``#REF!``.
References to missing sheets produce no edges either.

:func:`schedule` is the one scheduler: a Kahn loop that orders every node
off the reference cycles and returns the cycle nodes beside that order.
Both :func:`topo_order` and the recomputation engine use it; one iterative
Tarjan (:func:`cyclic_components`) finds the cycles.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterator, Union

from .errors import UnknownNodeError
from .formula import (
    FormulaAst,
    RangeRef,
    collect_references,
    parse_all_formulas,
    render_a1,
)
from .workbook import CellAddress, Workbook, col_to_letters

RANGE_EXPANSION_CAP = 100_000


@dataclass(frozen=True, slots=True)
class RangeNode:
    """A rectangle of cells on one sheet.

    It is the compact form of a range reference, and in the cell-level view
    the aggregate node standing in for a range too large to expand.
    """

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

    Held compactly: each formula cell maps to the nodes it reads, one per
    reference -- a :class:`CellAddress` for a cell reference, a
    :class:`RangeNode` rectangle for a range. The cell-level view behind
    the queries is expanded from that form on first use; :attr:`formulas`
    resolves the same form to formula cells only. Both views come unsorted
    from :func:`_adjacency`; the queries sort what they return.
    """

    def __init__(
        self,
        refs: dict[CellAddress, list[Node]],
        external_links: list[ExternalLink],
        wb: Workbook,
    ) -> None:
        self._refs = refs
        self.external_links = external_links
        self.wb = wb

    @cached_property
    def _view(self) -> tuple[dict[Node, list[Node]], dict[Node, list[Node]]]:
        return _adjacency(_expand(self._refs, self.wb))

    @property
    def _preds(self) -> dict[Node, list[Node]]:
        return self._view[0]

    @property
    def _deps(self) -> dict[Node, list[Node]]:
        return self._view[1]

    @cached_property
    def formulas(self) -> DepGraph:
        """The links between formula cells, which is all evaluation has to order.

        It has an edge u -> v exactly when formula cell v reads formula cell
        u, directly or through a range, and no node off those edges; a range
        is resolved to the formula cells inside it through its sheet's column
        index (:meth:`Sheet.column_slices`), so no range is expanded and
        inputs and blanks never become nodes. Cycle membership of formula
        cells is the same as in the full view.
        """
        refs = self._refs
        reads: dict[Node, list[Node]] = {}
        for addr, nodes in refs.items():
            found: list[Node] = []
            for node in nodes:
                if type(node) is CellAddress:
                    if node in refs:
                        found.append(node)
                else:
                    found += _formula_cells(self.wb, node)
            if found:  # sized exactly; one reference cannot read a cell twice
                reads[addr] = list(dict.fromkeys(found) if len(nodes) > 1 else found)
        graph = DepGraph(reads, self.external_links, self.wb)
        # every node reads only formula cells, which need no expansion
        graph._view = _adjacency(reads)
        return graph

    # -- ordering helpers

    def sort_key(self, node: Node) -> tuple:
        """Sheet order, then row, then column, as :meth:`Workbook.address_sort_key`."""
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

    def transitive_dependents(self, node: Node) -> set[Node]:
        """Every node reachable downstream of ``node`` (excluding itself)."""
        seen: set[Node] = set()
        stack = list(self._deps.get(node, ()))
        if node not in self._deps:
            raise UnknownNodeError(f"not a graph node: {node}")
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(self._deps[cur])
        return seen


def build_graph(wb: Workbook, asts: dict[CellAddress, FormulaAst] | None = None) -> DepGraph:
    """Build the dependency graph for a workbook.

    ``asts`` is :func:`parse_all_formulas` output for ``wb``; without it the
    workbook is parsed here, which raises :class:`ParseError` naming the
    cell. One walk over the references resolves their sheets and collects
    the external links; ranges stay one :class:`RangeNode` each until a
    query needs the cell-level view.
    """
    if asts is None:
        asts = parse_all_formulas(wb)
    refs: dict[CellAddress, list[Node]] = {}
    external_links: list[ExternalLink] = []
    for addr, ast in asts.items():
        reads: list[Node] = []
        for ref in collect_references(ast):
            found = wb.resolve(ref, addr.sheet)
            if isinstance(found, str):
                corners = (ref.start, ref.end) if isinstance(ref, RangeRef) else (ref,)
                local = [replace(corner, sheet=None, external=None) for corner in corners]
                target = ":".join(map(render_a1, local))
                external_links.append(ExternalLink(addr, found, corners[0].sheet or "", target))
            elif found is None:
                continue
            elif isinstance(ref, RangeRef):
                reads.append(RangeNode(found.name, ref.start.col, ref.start.row,
                                       ref.end.col, ref.end.row))
            else:
                reads.append(CellAddress(found.name, ref.col, ref.row))
        refs[addr] = reads
    return DepGraph(refs, external_links, wb)


def _expand(refs: dict[CellAddress, list[Node]], wb: Workbook) -> dict[Node, list[Node]]:
    """What each node of the cell-level view reads.

    A formula cell reads each cell it references and, for a range, each
    covered cell up to :data:`RANGE_EXPANSION_CAP`; a larger range is read
    as one aggregate :class:`RangeNode`, which reads the formula cells
    inside it (:func:`_formula_cells`).
    """
    reads: dict[Node, list[Node]] = {}
    for addr, nodes in refs.items():
        cells: list[Node] = []
        for node in nodes:
            if type(node) is CellAddress:
                cells.append(node)
            elif node.size() > RANGE_EXPANSION_CAP:
                cells.append(node)
                if node not in reads:
                    reads[node] = _formula_cells(wb, node)
            else:
                cells += [
                    CellAddress(node.sheet, col, row)
                    for col in range(node.start_col, node.end_col + 1)
                    for row in range(node.start_row, node.end_row + 1)
                ]
        reads[addr] = list(dict.fromkeys(cells)) if len(nodes) > 1 else cells
    return reads


def _formula_cells(wb: Workbook, node: RangeNode) -> list[CellAddress]:
    """The formula cells inside a range, column by column, found through its
    sheet's column index (:meth:`Sheet.column_slices`) whatever its area."""
    found: list[CellAddress] = []
    for column, lo, hi in wb.sheet(node.sheet).column_slices(
        node.start_col, node.start_row, node.end_col, node.end_row
    ):
        found += column.formulas[column.before[lo]:column.before[hi]]
    return found


def _adjacency(
    reads: dict[Node, list[Node]],
) -> tuple[dict[Node, list[Node]], dict[Node, list[Node]]]:
    """Precedent and dependent lists of the graph whose nodes read ``reads``.

    Each node's reads must hold no duplicate. ``reads`` itself becomes the
    precedent map; a node that is read but reads nothing joins it with no
    precedents. Nothing is sorted.
    """
    deps: dict[Node, list[Node]] = {node: [] for node in reads}
    for node, srcs in reads.items():
        for src in srcs:
            if src in deps:
                deps[src].append(node)
            else:
                deps[src] = [node]
    for node in deps:
        if node not in reads:
            reads[node] = []
    return reads, deps


def schedule(g: DepGraph) -> tuple[list[Node], set[Node]]:
    """Evaluation order of every node that is not on a cycle, plus the cycle nodes.

    A Kahn loop that pops the ready node with the smallest ``g.sort_key``
    (sheet order, row, column), so every edge between two ordered nodes
    goes forward and ties break the same way on every run. When it stalls,
    the remaining nodes sit on or downstream of cycles: the edges leaving
    cycle nodes are released once and the loop goes on, so nodes downstream
    of a cycle come after everything else they depend on.
    """
    key = g.sort_key
    deps = g._deps
    indegree = {node: len(ps) for node, ps in g._preds.items()}
    # the initial ready set is sorted once; only released nodes go on the heap
    ready = sorted((key(n), n) for n, d in indegree.items() if d == 0)
    next_ready = 0
    heap: list[tuple[tuple, Node]] = []
    order: list[Node] = []
    in_cycle: set[Node] = set()

    def release(node: Node) -> None:
        for dst in deps[node]:
            indegree[dst] -= 1
            if indegree[dst] == 0 and dst not in in_cycle:
                heapq.heappush(heap, (key(dst), dst))

    def drain() -> None:
        nonlocal next_ready
        while True:
            if next_ready < len(ready) and not (heap and heap[0] < ready[next_ready]):
                node = ready[next_ready][1]
                next_ready += 1
            elif heap:
                node = heapq.heappop(heap)[1]
            else:
                return
            order.append(node)
            release(node)

    drain()
    if len(order) < len(indegree):
        in_cycle = cycle_nodes(g)
        for node in in_cycle:
            release(node)
        drain()
    return order, in_cycle


def topo_order(g: DepGraph) -> list[Node] | CycleReport:
    """Topological order of the graph, or a :class:`CycleReport`.

    When acyclic, every edge goes forward in the returned order and ties
    break by sheet order, then row, then column. When cyclic, the report
    lists every strongly connected component with two or more nodes or a
    self-loop.
    """
    order, in_cycle = schedule(g)
    return CycleReport(cyclic_components(g)) if in_cycle else order


def cyclic_components(g: DepGraph) -> list[list[Node]]:
    """Strongly connected components that form cycles, deterministically ordered."""
    sccs = []
    for comp in _tarjan(g):
        if len(comp) > 1 or comp[0] in g._deps[comp[0]]:
            sccs.append(sorted(comp, key=g.sort_key))
    sccs.sort(key=lambda comp: g.sort_key(comp[0]))
    return sccs


def _tarjan(g: DepGraph) -> Iterator[list[Node]]:
    """Iterative Tarjan SCC over the dependency direction."""
    index: dict[Node, int] = {}
    lowlink: dict[Node, int] = {}
    on_stack: set[Node] = set()
    stack: list[Node] = []
    counter = 0

    for root in g._deps:
        if root in index:
            continue
        work: list[tuple[Node, Iterator[Node]]] = [(root, iter(g._deps[root]))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = lowlink[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(g._deps[nxt])))
                    advanced = True
                    break
                if nxt in on_stack:
                    lowlink[node] = min(lowlink[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                comp = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    comp.append(member)
                    if member == node:
                        break
                yield comp


def cycle_nodes(g: DepGraph) -> set[Node]:
    """All nodes that participate in some cycle."""
    return {node for comp in cyclic_components(g) for node in comp}


def to_dot(g: DepGraph) -> str:
    """Render the graph as DOT text.

    One node per cell named ``"Sheet!A1"``; external links appear as dashed
    edges out of one box node per external workbook.
    """
    lines = ["digraph workbook {"]
    for node in g.nodes:
        lines.append(f'  "{node.qualified()}";')
    for src, dst in g.edges():
        lines.append(f'  "{src.qualified()}" -> "{dst.qualified()}";')
    for book in dict.fromkeys(link.workbook for link in g.external_links):
        lines.append(f'  "[{book}]" [shape=box];')
    for link in g.external_links:
        lines.append(f'  "[{link.workbook}]" -> "{link.source.qualified()}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"
