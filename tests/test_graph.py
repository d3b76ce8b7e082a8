"""Dependency graph construction, ordering, cycles, and DOT output."""

from __future__ import annotations

import random
import re

import pytest

from sheetsentry.errors import UnknownNodeError
from sheetsentry.formula import RangeRef, collect_references, parse_all_formulas
from sheetsentry.graph import (
    RANGE_EXPANSION_CAP,
    CycleReport,
    RangeNode,
    build_graph,
    to_dot,
    topo_order,
)
from sheetsentry.workbook import CellAddress, Sheet, load_workbook
from conftest import FIXTURES, addr, make_workbook
from evalgen import random_acyclic_workbook
from formulaview import formula_view
from test_evaluate import CYCLE_CASES, FORMULA_GRAPH_CASES

RANGE_CAP_CELLS = {"S": {"A5": "=C1", "C1": 2, "B1": "=SUM(A1:A200000)"}}
# Over-cap ranges on two sheets, one qualified in lower case, with formula
# cells inside and outside each of them.
TWO_SHEET_CAP_CELLS = {
    "Data": {
        "A1": 1,
        "A7": "=A1*2",
        "B3": "=A7+1",
        "B150001": "=B3",
        "C2": "=SUM(A1:B200000)",
        "D9": "=C2",
    },
    "Sum": {
        "A1": "=SUM(data!A1:B150000)",
        "B2": "=SUM(data!A2:C120000)+SUM(data!A1:B150000)",
        "C1": "=data!B3",
        "A300000": "=C1",
        "D1": "=SUM(A1:B400000)",
    },
}


class TestBuildGraph:
    def test_simple_edge(self):
        wb = make_workbook({"S": {"A1": 1, "B1": ("=A1*2", 2)}})
        g = build_graph(wb)
        assert g.dependents(addr("S", "A1")) == [addr("S", "B1")]
        assert g.precedents(addr("S", "B1")) == [addr("S", "A1")]

    def test_range_expansion(self):
        wb = make_workbook({"S": {"B1": "=SUM(A1:A3)"}})
        g = build_graph(wb)
        assert g.precedents(addr("S", "B1")) == [
            addr("S", "A1"),
            addr("S", "A2"),
            addr("S", "A3"),
        ]

    def test_external_reference_no_edge(self):
        wb = make_workbook({"S": {"C1": "=[Rates]S1!A1"}})
        g = build_graph(wb)
        assert g.precedents(addr("S", "C1")) == []
        assert len(g.external_links) == 1
        link = g.external_links[0]
        assert (link.workbook, link.sheet, link.target) == ("Rates", "S1", "A1")
        assert link.source == addr("S", "C1")

    def test_external_inventory_empty_iff_no_externals(self):
        wb = make_workbook({"S": {"B1": "=A1+1"}})
        assert build_graph(wb).external_links == []

    def test_duplicate_references_single_edge(self):
        wb = make_workbook({"S": {"B1": "=A1+A1*A1"}})
        g = build_graph(wb)
        assert g.precedents(addr("S", "B1")) == [addr("S", "A1")]
        assert g.edge_count() == 1

    def test_edge_count_matches_pair_count(self):
        wb = make_workbook(
            {"S": {"B1": "=A1+A2", "B2": "=SUM(A1:A3)", "B3": "=B1*B2"}}
        )
        g = build_graph(wb)
        # pairs after range expansion and dedup: B1<-{A1,A2}, B2<-{A1,A2,A3}, B3<-{B1,B2}
        assert g.edge_count() == 7

    def test_cross_sheet_edges_are_ordinary(self):
        wb = make_workbook({"A": {"B1": "=Bee!A1"}, "Bee": {"A1": 5}})
        g = build_graph(wb)
        assert g.precedents(addr("A", "B1")) == [addr("Bee", "A1")]
        assert g.external_links == []

    def test_unknown_sheet_reference_skipped(self):
        wb = make_workbook({"S": {"B1": "=Nowhere!A1"}})
        g = build_graph(wb)
        assert g.precedents(addr("S", "B1")) == []

    def test_unqualified_ref_resolves_to_own_sheet(self):
        wb = make_workbook({"One": {"B1": "=A1"}, "Two": {"A1": 7}})
        g = build_graph(wb)
        assert g.precedents(addr("One", "B1")) == [addr("One", "A1")]


class TestTopoOrder:
    def test_chain(self):
        wb = make_workbook({"S": {"A1": 1, "B1": "=A1", "C1": "=B1"}})
        order = topo_order(build_graph(wb))
        assert order == [addr("S", "A1"), addr("S", "B1"), addr("S", "C1")]

    def test_two_cycle(self):
        wb = make_workbook({"S": {"A1": "=B1", "B1": "=A1"}})
        report = topo_order(build_graph(wb))
        assert isinstance(report, CycleReport)
        assert report.sccs == [[addr("S", "A1"), addr("S", "B1")]]

    def test_self_loop(self):
        wb = make_workbook({"S": {"A1": "=A1+1"}})
        report = topo_order(build_graph(wb))
        assert isinstance(report, CycleReport)
        assert report.sccs == [[addr("S", "A1")]]

    def test_empty_graph(self):
        wb = make_workbook({"S": {}})
        assert topo_order(build_graph(wb)) == []

    def test_every_edge_forward(self):
        wb = make_workbook(
            {
                "S": {
                    "A1": 1,
                    "B1": "=A1+1",
                    "B2": "=SUM(A1:A4)",
                    "C1": "=B1*B2",
                    "D5": "=C1+B1",
                }
            }
        )
        g = build_graph(wb)
        order = topo_order(g)
        position = {node: i for i, node in enumerate(order)}
        assert sorted(position.values()) == list(range(len(order)))
        for src, dst in g.edges():
            assert position[src] < position[dst]

    def test_deterministic_tie_break(self):
        wb = make_workbook({"S": {"A1": 1, "C3": "=A1", "B2": "=A1", "D1": "=A1"}})
        order = topo_order(build_graph(wb))
        assert order == [
            addr("S", "A1"),
            addr("S", "D1"),
            addr("S", "B2"),
            addr("S", "C3"),
        ]


class TestNeighborQueries:
    def test_leaf_has_no_precedents(self):
        wb = make_workbook({"S": {"A1": 1, "B1": "=A1"}})
        g = build_graph(wb)
        assert g.precedents(addr("S", "A1")) == []

    def test_unknown_node(self):
        wb = make_workbook({"S": {"A1": 1, "B1": "=A1"}})
        g = build_graph(wb)
        with pytest.raises(UnknownNodeError):
            g.precedents(addr("S", "Z99"))
        with pytest.raises(UnknownNodeError):
            g.dependents(addr("S", "Z99"))

    def test_transitive_dependents(self):
        wb = make_workbook(
            {"S": {"A1": 1, "B1": "=A1", "C1": "=B1", "D1": "=A1+5", "E1": 3}}
        )
        g = build_graph(wb)
        closure = g.transitive_dependents(addr("S", "A1"))
        assert closure == {addr("S", "B1"), addr("S", "C1"), addr("S", "D1")}


class TestRangeCap:
    def test_oversized_range_becomes_aggregate_node(self):
        g = build_graph(make_workbook(RANGE_CAP_CELLS))
        range_nodes = [n for n in g.nodes if isinstance(n, RangeNode)]
        assert len(range_nodes) == 1
        node = range_nodes[0]
        assert node.start_row == 1 and node.end_row == 200000
        # ordering stays sound: the covered formula cell feeds the aggregate
        assert addr("S", "A5") in g.precedents(node)
        order = topo_order(g)
        position = {n: i for i, n in enumerate(order)}
        assert position[addr("S", "A5")] < position[addr("S", "B1")]


class TestDot:
    def test_dot_output(self):
        wb = make_workbook(
            {"S": {"A1": 1, "B1": "=A1*2", "C1": "=[Rates]S1!A1"}}
        )
        text = to_dot(build_graph(wb))
        assert text.startswith("digraph workbook {")
        assert '"S!A1" -> "S!B1";' in text
        assert '"[Rates]" [shape=box];' in text
        assert '"[Rates]" -> "S!C1" [style=dashed];' in text
        assert text.rstrip().endswith("}")

    def test_dot_deterministic(self):
        wb = make_workbook({"S": {"A1": 1, "B1": "=A1", "B2": "=A1"}})
        assert to_dot(build_graph(wb)) == to_dot(build_graph(wb))

    def test_dot_ids_escape_quotes_and_backslashes(self):
        wb = make_workbook({
            'a"b': {"A1": 1},
            "c\\d": {"A1": 2},
            "S": {"B1": "='a\"b'!A1*2", "B2": "='c\\d'!A1", "C1": "='[x\"y]S'!A1"},
        })
        quoted = r'"((?:[^"\\]|\\.)*)"'
        statement = re.compile(rf"  {quoted}(?: -> {quoted})?(?: \[[a-z=]+\])?;")
        lines = to_dot(build_graph(wb)).splitlines()
        assert lines[0] == "digraph workbook {" and lines[-1] == "}"
        ids = set()
        for line in lines[1:-1]:
            match = statement.fullmatch(line)
            assert match, line
            ids.update(re.sub(r"\\(.)", r"\1", g) for g in match.groups() if g is not None)
        assert ids == {'a"b!A1', "c\\d!A1", "S!B1", "S!B2", '[x"y]', "S!C1"}


def reads_from_asts(wb):
    """What each formula cell references, read from its filled AST rather
    than from the graph's plans: a :class:`CellAddress` per cell reference
    and a :class:`RangeNode` per range, on the sheet :meth:`Workbook.resolve`
    names. References into other workbooks or missing sheets read nothing."""
    asts = parse_all_formulas(wb)
    refs = {}
    for addr_ in asts:
        refs[addr_] = []
        for ref in collect_references(asts[addr_]):
            sheet = wb.resolve(ref, addr_.sheet)
            if not isinstance(sheet, Sheet):
                continue
            if isinstance(ref, RangeRef):
                start, end = ref.start, ref.end
                refs[addr_].append(RangeNode(sheet.name, start.col, start.row, end.col, end.row))
            else:
                refs[addr_].append(CellAddress(sheet.name, ref.col, ref.row))
    return refs


def expand_oracle(refs, key):
    """The cell-level view as it was built before one adjacency builder
    served both views: a set of neighbours per node, every list sorted by
    ``key`` at build time."""
    preds, deps, big_ranges = {}, {}, {}

    def add_edge(src, dst):
        for node in (src, dst):
            preds.setdefault(node, set())
            deps.setdefault(node, set())
        deps[src].add(dst)
        preds[dst].add(src)

    for addr_, reads in refs.items():
        preds.setdefault(addr_, set())
        deps.setdefault(addr_, set())
        for node in reads:
            if isinstance(node, CellAddress):
                add_edge(node, addr_)
            elif node.size() > RANGE_EXPANSION_CAP:
                big_ranges[node] = None
                add_edge(node, addr_)
            else:
                for col in range(node.start_col, node.end_col + 1):
                    for row in range(node.start_row, node.end_row + 1):
                        add_edge(CellAddress(node.sheet, col, row), addr_)
    for node in big_ranges:
        for addr_ in refs:
            if (
                addr_.sheet.casefold() == node.sheet.casefold()
                and node.start_col <= addr_.col <= node.end_col
                and node.start_row <= addr_.row <= node.end_row
            ):
                add_edge(addr_, node)

    def ordered(nodes):
        return {n: sorted(s, key=key) for n, s in nodes.items()}

    return ordered(preds), ordered(deps)


# Copies of one range shape whose corners cross between copies, a range
# written bottom-up, and references into another workbook, to a missing
# sheet and to a sheet named in another case.
SHAPE_CELLS = {
    "S": {
        "A1": 1,
        "A2": "=A1+1",
        **{f"B{r}": f"=SUM($A$3:A{r})" for r in range(1, 6)},
        "C1": "=SUM(A4:A1)+[X]S!A1+Nope!A1+s!A2+SUM(b5:B1)",
    },
}


def oracle_workbooks():
    yield make_workbook(SHAPE_CELLS)
    yield from (load_workbook(str(path)) for path in sorted(FIXTURES.glob("*.json")))
    yield from (make_workbook(cells) for cells in FORMULA_GRAPH_CASES.values())
    yield from (make_workbook({"S": cells}) for cells, _ in CYCLE_CASES.values())
    yield make_workbook(RANGE_CAP_CELLS)
    yield make_workbook(TWO_SHEET_CAP_CELLS)
    rng = random.Random(23)
    yield from (random_acyclic_workbook(rng) for _ in range(30))


def running_totals_over_formulas(rows: int):
    """``A{r} = A{r-1}+1`` and ``B{r} = SUM($A$1:A{r})``: every list has many entries."""
    cells = {"A1": 1}
    for r in range(2, rows + 1):
        cells[f"A{r}"] = f"=A{r - 1}+1"
        cells[f"B{r}"] = f"=SUM($A$1:A{r})"
    return make_workbook({"S": cells})


class TestAdjacency:
    def test_queries_match_the_sorted_set_oracle(self):
        for wb in oracle_workbooks():
            g = build_graph(wb)
            preds, deps = expand_oracle(reads_from_asts(wb), g.sort_key)
            assert g.nodes == sorted(preds, key=g.sort_key)
            assert g.node_count() == len(preds)
            for node in preds:
                assert g.precedents(node) == preds[node]
                assert g.dependents(node) == deps[node]
            assert list(g.edges()) == [
                (src, dst) for src in sorted(deps, key=g.sort_key) for dst in deps[src]
            ]
            assert g.edge_count() == sum(map(len, deps.values()))

    def test_aggregates_read_the_column_index_once_each(self, monkeypatch):
        cells = {f"A{r}": f"=SUM(B{r}:B{r + RANGE_EXPANSION_CAP})" for r in range(1, 21)}
        cells.update({f"C{r}": "=SUM(B1:B200000)" for r in range(1, 6)})
        cells.update({f"B{r}": f"=A{r}" for r in range(1, 40, 3)})
        g = build_graph(make_workbook({"S": cells}))
        forward, calls = Sheet.column_slices, []

        def counting(sheet, *rect):
            calls.append(rect)
            return forward(sheet, *rect)

        monkeypatch.setattr(Sheet, "column_slices", counting)
        assert g.node_count() > 0
        assert len(calls) == 21  # one per distinct over-cap range

    @pytest.mark.parametrize("view", ["cells", "formulas", "compact"])
    def test_building_a_view_calls_no_sort_key(self, view):
        g = build_graph(running_totals_over_formulas(40))
        built = {"cells": g, "formulas": formula_view(g), "compact": g.compact}[view]
        forward, calls = built.sort_key, []

        def counting(node):
            calls.append(node)
            return forward(node)

        built.sort_key = counting
        assert built.node_count() > 0 and built.edge_count() > 0
        assert calls == []
