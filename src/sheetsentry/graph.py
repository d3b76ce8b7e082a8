"""Cell dependency graph -- precedents, dependents, cycles, ordering, DOT.

Nodes are cell addresses (formula cells plus every referenced cell).
Edges run precedent -> dependent. Range references expand to one edge per
covered cell up to a cap; a larger range becomes a single aggregate
:class:`RangeNode`, which keeps ordering sound while staying coarse for
precedent queries. References into other workbooks never become edges;
they are collected in the external-link inventory because the target
lives outside this file's audit boundary.

:func:`schedule` is the one scheduler: a Kahn loop that orders every node
off the reference cycles and returns the cycle nodes beside that order.
Both :func:`topo_order` and the recomputation engine use it; one iterative
Tarjan (:func:`cyclic_components`) finds the cycles.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterator, Union

from .errors import UnknownNodeError
from .formula import (
    FormulaAst,
    Reference,
    collect_references,
    parse_all_formulas,
    render_a1,
)
from .workbook import CellAddress, Workbook, col_to_letters

RANGE_EXPANSION_CAP = 100_000


@dataclass(frozen=True, slots=True)
class RangeNode:
    """Aggregate node standing in for a range too large to expand."""

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

    def covers(self, col: int, row: int) -> bool:
        return self.start_col <= col <= self.end_col and self.start_row <= row <= self.end_row


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
    """Immutable precedent/dependent graph over one workbook."""

    def __init__(
        self,
        preds: dict[Node, list[Node]],
        deps: dict[Node, list[Node]],
        external_links: list[ExternalLink],
        sheet_rank: dict[str, int],
    ) -> None:
        self._preds = preds
        self._deps = deps
        self.external_links = external_links
        self._rank = sheet_rank

    # -- ordering helpers

    def sort_key(self, node: Node) -> tuple:
        if isinstance(node, RangeNode):
            return (self._rank.get(node.sheet.casefold(), 1 << 30),
                    node.start_row, node.start_col, 1, node.end_row, node.end_col)
        return (self._rank.get(node.sheet.casefold(), 1 << 30), node.row, node.col, 0, 0, 0)

    # -- queries

    @property
    def nodes(self) -> list[Node]:
        """All nodes in deterministic order."""
        return sorted(self._preds, key=self.sort_key)

    def node_count(self) -> int:
        return len(self._preds)

    def edge_count(self) -> int:
        return sum(len(v) for v in self._deps.values())

    def has_node(self, node: Node) -> bool:
        return node in self._preds

    def precedents(self, node: Node) -> list[Node]:
        """Direct precedents of a node, in deterministic order."""
        if node not in self._preds:
            raise UnknownNodeError(f"not a graph node: {node}")
        return list(self._preds[node])

    def dependents(self, node: Node) -> list[Node]:
        """Direct dependents of a node, in deterministic order."""
        if node not in self._deps:
            raise UnknownNodeError(f"not a graph node: {node}")
        return list(self._deps[node])

    def edges(self) -> Iterator[tuple[Node, Node]]:
        for src in self.nodes:
            for dst in self._deps[src]:
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
    cell. References to sheets that do not exist produce no edges; the
    evaluator reports them as ``#REF!``.
    """
    if asts is None:
        asts = parse_all_formulas(wb)
    preds: dict[Node, set[Node]] = {}
    deps: dict[Node, set[Node]] = {}
    external_links: list[ExternalLink] = []
    big_ranges: dict[RangeNode, None] = {}

    def ensure(node: Node) -> None:
        if node not in preds:
            preds[node] = set()
            deps[node] = set()

    def add_edge(src: Node, dst: Node) -> None:
        ensure(src)
        ensure(dst)
        deps[src].add(dst)
        preds[dst].add(src)

    for addr, ast in asts.items():
        ensure(addr)
        for ref in collect_references(ast):
            if isinstance(ref, Reference):
                if ref.external is not None:
                    external_links.append(
                        ExternalLink(addr, ref.external, ref.sheet or "", render_a1(
                            Reference(ref.col, ref.row, ref.abs_col, ref.abs_row)))
                    )
                    continue
                sheet = _resolve_sheet(wb, ref.sheet, addr)
                if sheet is None:
                    continue
                add_edge(CellAddress(sheet, ref.col, ref.row), addr)
            else:
                start, end = ref.start, ref.end
                if start.external is not None:
                    target = (
                        f"{render_a1(Reference(start.col, start.row, start.abs_col, start.abs_row))}:"
                        f"{render_a1(Reference(end.col, end.row, end.abs_col, end.abs_row))}"
                    )
                    external_links.append(
                        ExternalLink(addr, start.external, start.sheet or "", target)
                    )
                    continue
                sheet = _resolve_sheet(wb, start.sheet, addr)
                if sheet is None:
                    continue
                size = (end.col - start.col + 1) * (end.row - start.row + 1)
                if size > RANGE_EXPANSION_CAP:
                    node = RangeNode(sheet, start.col, start.row, end.col, end.row)
                    big_ranges[node] = None
                    add_edge(node, addr)
                else:
                    for col in range(start.col, end.col + 1):
                        for row in range(start.row, end.row + 1):
                            add_edge(CellAddress(sheet, col, row), addr)

    # aggregate range nodes depend on every formula cell they cover
    if big_ranges:
        per_sheet: dict[str, list[RangeNode]] = {}
        for node in big_ranges:
            per_sheet.setdefault(node.sheet.casefold(), []).append(node)
        for addr in asts:
            for node in per_sheet.get(addr.sheet.casefold(), ()):
                if node.covers(addr.col, addr.row):
                    add_edge(addr, node)

    rank = {sheet.name.casefold(): i for i, sheet in enumerate(wb.sheets)}
    graph = DepGraph({}, {}, external_links, rank)
    key = graph.sort_key
    graph._preds = {
        n: sorted(s, key=key) if len(s) > 1 else list(s) for n, s in preds.items()
    }
    graph._deps = {
        n: sorted(s, key=key) if len(s) > 1 else list(s) for n, s in deps.items()
    }
    return graph


def _resolve_sheet(wb: Workbook, sheet: str | None, origin: CellAddress) -> str | None:
    """Stored sheet name for a reference, or None if the sheet is unknown."""
    if sheet is None:
        return origin.sheet
    found = wb.sheet(sheet)
    return found.name if found is not None else None


def schedule(g: DepGraph, key: Callable[[Node], tuple]) -> tuple[list[Node], set[Node]]:
    """Evaluation order of every node that is not on a cycle, plus the cycle nodes.

    A Kahn loop that pops the ready node with the smallest ``key``, so every
    edge between two ordered nodes goes forward. When it stalls, the
    remaining nodes sit on or downstream of cycles: the edges leaving cycle
    nodes are released once and the loop goes on, so nodes downstream of a
    cycle come after everything else they depend on.
    """
    deps = g._deps
    indegree = {node: len(ps) for node, ps in g._preds.items()}
    heap = [(key(n), n) for n, d in indegree.items() if d == 0]
    heapq.heapify(heap)
    order: list[Node] = []
    in_cycle: set[Node] = set()

    def release(node: Node) -> None:
        for dst in deps[node]:
            indegree[dst] -= 1
            if indegree[dst] == 0 and dst not in in_cycle:
                heapq.heappush(heap, (key(dst), dst))

    def drain() -> None:
        while heap:
            _, node = heapq.heappop(heap)
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
    order, in_cycle = schedule(g, g.sort_key)
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

    for root in g.nodes:
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
    out: set[Node] = set()
    for comp in cyclic_components(g):
        out.update(comp)
    return out


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
    seen_books = []
    for link in g.external_links:
        if link.workbook not in seen_books:
            seen_books.append(link.workbook)
    for book in seen_books:
        lines.append(f'  "[{book}]" [shape=box];')
    for link in g.external_links:
        lines.append(f'  "[{link.workbook}]" -> "{link.source.qualified()}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"
