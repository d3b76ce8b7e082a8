"""Recomputation semantics and staleness detection."""

from __future__ import annotations

import heapq
import math
import random

import pytest

from sheetsentry.evaluate import Engine, recompute_workbook, staleness_report
from sheetsentry.formula import parse_all_formulas
from sheetsentry.graph import (
    CycleReport,
    RangeNode,
    build_graph,
    cycle_nodes,
    schedule,
    topo_order,
)
from sheetsentry.workbook import BLANK, Cell, CellValue, Sheet, Workbook

from conftest import addr, make_workbook, reverse_sort_key
from formulaview import formula_view
from evalgen import engine_to_plain, oracle_evaluate, random_acyclic_workbook


def num(x):
    return CellValue.number(x)


def err(code):
    return CellValue.error(code)


def eval_one(formula: str, cells: dict | None = None):
    cells = dict(cells or {})
    cells["Z99"] = formula
    wb = make_workbook({"S": cells})
    return recompute_workbook(wb)[addr("S", "Z99")]


class TestScalars:
    def test_sum_of_literals(self):
        assert eval_one("=SUM(1,2,3)") == num(6)

    def test_divide_by_zero(self):
        assert eval_one("=1/0") == err("#DIV/0!")

    def test_arithmetic_chain(self):
        # arithmetic series: nine +1 steps over an initial 1
        cells = {"A1": 1}
        for row in range(2, 11):
            cells[f"A{row}"] = f"=A{row - 1}+1"
        wb = make_workbook({"S": cells})
        values = recompute_workbook(wb)
        assert values[addr("S", "A10")] == num(10)

    def test_blank_is_zero_in_arithmetic(self):
        assert eval_one("=A1+5") == num(5)

    def test_numeric_text_coerces(self):
        assert eval_one("=A1*3", {"A1": "2"}) == num(6)

    def test_non_numeric_text_is_value_error(self):
        assert eval_one("=A1*3", {"A1": "two"}) == err("#VALUE!")

    def test_boolean_arithmetic(self):
        assert eval_one("=TRUE+1") == num(2)

    def test_power(self):
        assert eval_one("=2^10") == num(1024)
        assert eval_one("=-2^2") == num(4)  # unary binds tighter
        assert eval_one("=0^-1") == err("#DIV/0!")

    def test_concat_number_rendering(self):
        assert eval_one('="n="&2.50') == CellValue.text("n=2.5")
        assert eval_one("=1/3&\"\"") == CellValue.text("0.333333333333333")

    def test_comparisons(self):
        assert eval_one("=1<2") == CellValue.boolean(True)
        assert eval_one('="abc"="ABC"') == CellValue.boolean(True)  # case-insensitive
        assert eval_one('="a"<"b"') == CellValue.boolean(True)
        assert eval_one('=1<"a"') == CellValue.boolean(True)  # number < text
        assert eval_one('="zzz"<TRUE') == CellValue.boolean(True)  # text < boolean
        assert eval_one("=A1=0") == CellValue.boolean(True)  # blank compares as 0

    def test_error_propagates(self):
        assert eval_one("=1/0+5") == err("#DIV/0!")
        assert eval_one("=IF(1/0,1,2)") == err("#DIV/0!")


class TestFunctions:
    def test_if_branches(self):
        assert eval_one("=IF(1,10,20)") == num(10)
        assert eval_one("=IF(0,10,20)") == num(20)
        assert eval_one("=IF(FALSE,10)") == CellValue.boolean(False)

    def test_if_lazy_guard(self):
        assert eval_one("=IF(A1=0,0,1/A1)", {"A1": 0}) == num(0)

    def test_aggregates_over_range(self):
        cells = {"A1": 1, "A2": 2, "A3": "text", "A4": 4}
        assert eval_one("=SUM(A1:A4)", cells) == num(7)  # text skipped in ranges
        assert eval_one("=COUNT(A1:A4)", cells) == num(3)
        assert eval_one("=AVERAGE(A1:A4)", cells) == num(7 / 3)
        assert eval_one("=MIN(A1:A4)", cells) == num(1)
        assert eval_one("=MAX(A1:A4)", cells) == num(4)

    def test_average_of_nothing(self):
        assert eval_one("=AVERAGE(A1:A3)") == err("#DIV/0!")

    def test_min_of_nothing_is_zero(self):
        assert eval_one("=MIN(A1:A3)") == num(0)

    def test_and_or_not(self):
        assert eval_one("=AND(1,TRUE)") == CellValue.boolean(True)
        assert eval_one("=AND(1,0)") == CellValue.boolean(False)
        assert eval_one("=OR(0,0,1)") == CellValue.boolean(True)
        assert eval_one("=NOT(0)") == CellValue.boolean(True)

    def test_abs_round(self):
        assert eval_one("=ABS(-3)") == num(3)
        assert eval_one("=ROUND(2.5,0)") == num(3)  # half away from zero
        assert eval_one("=ROUND(-2.5,0)") == num(-3)
        assert eval_one("=ROUND(1.25,1)") == num(1.3)
        assert eval_one("=ROUND(1234,-2)") == num(1200)

    def test_unknown_function(self):
        assert eval_one("=NOPE(1)") == err("#NAME?")
        assert eval_one("=FRODD") == err("#NAME?")

    def test_vlookup_exact_match(self):
        # oracle: hand-traced linear scan over (1,10),(2,20),(3,30); key 2 -> 20
        cells = {"A1": 1, "B1": 10, "A2": 2, "B2": 20, "A3": 3, "B3": 30}
        assert eval_one("=VLOOKUP(2,A1:B3,2)", cells) == num(20)

    def test_vlookup_against_linear_scan_oracle(self):
        rng = random.Random(5)
        rows = [(float(rng.randrange(0, 20)), float(rng.randrange(0, 100))) for _ in range(12)]
        cells = {}
        for i, (k, v) in enumerate(rows, start=1):
            cells[f"A{i}"] = k
            cells[f"B{i}"] = v
        for key in range(0, 22):
            expected = next((v for k, v in rows if k == key), None)
            got = eval_one(f"=VLOOKUP({key},A1:B12,2)", cells)
            if expected is None:
                assert got == err("#N/A")
            else:
                assert got == num(expected)

    def test_vlookup_misuse(self):
        cells = {"A1": 1, "B1": 10}
        assert eval_one("=VLOOKUP(1,A1:B1,3)", cells) == err("#REF!")
        assert eval_one("=VLOOKUP(1,A1:B1,0)", cells) == err("#VALUE!")
        assert eval_one("=VLOOKUP(1,5,2)") == err("#VALUE!")
        assert eval_one("=VLOOKUP(1,A1:B1,2,TRUE)", cells) == err("#VALUE!")
        assert eval_one("=VLOOKUP(1,A1:B1,2,FALSE)", cells) == num(10)

    def test_bare_range_is_value_error(self):
        assert eval_one("=A1:A3+1") == err("#VALUE!")


class TestBlankResult:
    """A formula whose result is a blank cell holds 0, as a spreadsheet caches it."""

    @pytest.mark.parametrize("formula", ["=A1", "=IF(TRUE,A1)", "=VLOOKUP(1,B1:C1,2,FALSE)"])
    def test_recomputes_to_zero(self, formula):
        assert eval_one(formula, {"B1": 1}) == num(0)

    def test_readers_see_the_zero(self):
        cells = {"A2": "=A1"}
        assert eval_one("=COUNT(A2)", cells) == num(1)
        assert eval_one('=A2&"x"', cells) == CellValue.text("0x")
        assert eval_one('=A2=""', cells) == CellValue.boolean(False)

    def test_cached_zero_is_not_stale(self):
        assert staleness_report(make_workbook({"S": {"B1": ("=A1", 0)}})).entries == []

    def test_no_cached_value_is_stale(self):
        [entry] = staleness_report(make_workbook({"S": {"B1": "=A1"}})).entries
        assert (entry.cached, entry.recomputed) == (BLANK, num(0))


class TestLiteralOperands:
    """An arithmetic operator whose right operand is a number literal reads
    the literal as a float; every outcome is the generic operator's. A7 is
    blank. Results are compared by ``repr``, so ``-0.0`` keeps its sign."""

    INPUTS = {"A1": 2, "A2": "x", "A3": True, "A4": err("#N/A"), "A5": 1e308, "A6": -3}

    @pytest.mark.parametrize(
        "formula,expected",
        [
            *[(f, err("#VALUE!")) for f in
              ["=A1*1E999", "=A1/1E999", "=A2*1E999", "=A2*2", "=A5*10", "=A6^0.5",
               "=1E999*A4", "=A1+1E999+A4"]],
            ("=A4*1E999", err("#N/A")),
            ("=A4+1", err("#N/A")),
            ("=A3*2", num(2)),
            ("=A7*2", num(0)),
            ("=A1/0", err("#DIV/0!")),
            ("=0^-1", err("#DIV/0!")),
            ("=A6^0", num(1)),
            ("=A6*0", num(-0.0)),
            ("=A6-1.5", num(-4.5)),
            ("=(A1+A6)*2.5", num(-2.5)),
            ("=2*3", num(6)),
            ('="4"/2', num(2)),
        ],
    )
    def test_outcome(self, formula, expected):
        assert repr(eval_one(formula, self.INPUTS)) == repr(expected)

    def test_no_value_is_built_for_the_literal(self, monkeypatch):
        n = 300
        cells = {f"A{r}": r for r in range(1, n + 1)}
        cells.update({f"B{r}": f"=A{r}*{r % 7 + 2}" for r in range(1, n + 1)})
        engine = Engine(make_workbook({"S": cells}))
        built, init = [0], CellValue.__init__

        def counting_init(self, *args, **kwargs):
            built[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(CellValue, "__init__", counting_init)
        engine.run()
        assert built[0] == n  # one result per cell
        assert engine.values[addr("S", f"B{n}")] == num(n * (n % 7 + 2))


class TestWorkbookRecompute:
    def test_simple(self):
        wb = make_workbook({"S": {"A1": 2, "B1": "=A1*3"}})
        assert recompute_workbook(wb) == {addr("S", "B1"): num(6)}

    def test_cycle_yields_circ(self):
        wb = make_workbook({"S": {"A1": "=B1", "B1": "=A1"}})
        values = recompute_workbook(wb)
        assert values[addr("S", "A1")] == err("#CIRC!")
        assert values[addr("S", "B1")] == err("#CIRC!")

    def test_downstream_of_cycle_propagates(self):
        wb = make_workbook({"S": {"A1": "=B1", "B1": "=A1", "C1": "=A1+1"}})
        values = recompute_workbook(wb)
        assert values[addr("S", "C1")] == err("#CIRC!")

    def test_unknown_sheet_is_ref_error(self):
        wb = make_workbook({"S": {"B1": "=Nowhere!A1"}})
        assert recompute_workbook(wb)[addr("S", "B1")] == err("#REF!")

    def test_cross_sheet(self):
        wb = make_workbook({"One": {"B1": "=Two!A1*2"}, "Two": {"A1": 21}})
        assert recompute_workbook(wb)[addr("One", "B1")] == num(42)

    def test_order_independence(self):
        rng = random.Random(42)
        for _ in range(20):
            wb = random_acyclic_workbook(rng)
            assert recompute_workbook(wb) == recompute_reversed(wb)

    def test_oracle_equivalence_smoke(self):
        rng = random.Random(7)
        for _ in range(60):
            wb = random_acyclic_workbook(rng)
            engine_values = recompute_workbook(wb)
            oracle_values = oracle_evaluate(wb)
            assert set(engine_values) == set(oracle_values)
            for address, expected in oracle_values.items():
                assert engine_to_plain(engine_values[address]) == expected, address


CYCLE_CASES = {
    # formula cells between the two cycles and after the second one
    "two_cycles_in_series": (
        {
            "A1": 1,
            "B1": "=A1+C1",
            "C1": "=B1*2",
            "D1": "=C1+1",
            "E1": "=D1+F1",
            "F1": "=E1-1",
            "G1": "=F1*3",
            "H1": "=A1+1",
        },
        [["B1", "C1"], ["E1", "F1"]],
    ),
    # D1 reads both a cycle and the end of a plain input chain
    "cycle_and_input_chain": (
        {
            "A1": 1,
            "A2": "=A1+1",
            "A3": "=A2*2",
            "B1": "=C1+1",
            "C1": "=B1+1",
            "D1": "=A3+B1",
            "D2": "=D1+A3",
            "E1": "=A3*3",
        },
        [["B1", "C1"]],
    ),
    "self_loop": ({"A1": 2, "B1": "=B1+1", "C1": "=B1*A1", "D1": "=A1*3"}, [["B1"]]),
}


class TestCycleScheduling:
    @pytest.mark.parametrize("name", list(CYCLE_CASES))
    def test_matches_oracle_under_both_tie_breaks(self, name):
        cells, _ = CYCLE_CASES[name]
        wb = make_workbook({"S": cells})
        values = recompute_workbook(wb)
        assert values == recompute_reversed(wb)
        oracle_values = oracle_evaluate(wb)
        assert set(values) == set(oracle_values)
        for address, expected in oracle_values.items():
            assert engine_to_plain(values[address]) == expected, address

    @pytest.mark.parametrize("name", list(CYCLE_CASES))
    def test_topo_order_reports_components(self, name):
        cells, components = CYCLE_CASES[name]
        report = topo_order(build_graph(make_workbook({"S": cells})))
        assert isinstance(report, CycleReport)
        assert report.sccs == [[addr("S", a1) for a1 in comp] for comp in components]

    @pytest.mark.parametrize("name", list(CYCLE_CASES))
    def test_schedule_orders_everything_off_the_cycles(self, name):
        cells, components = CYCLE_CASES[name]
        g = build_graph(make_workbook({"S": cells}))
        order, in_cycle = schedule(g)
        assert in_cycle == {addr("S", a1) for comp in components for a1 in comp}
        assert set(order) | in_cycle == set(g.nodes)
        assert len(order) + len(in_cycle) == g.node_count()
        position = {node: i for i, node in enumerate(order)}
        for src, dst in g.edges():
            if src in position and dst in position:
                assert position[src] < position[dst]

    def test_schedule_pops_the_smallest_ready_node(self):
        """Same order as a Kahn loop that keeps every ready node in one heap."""
        rng = random.Random(17)
        workbooks = [make_workbook({"S": cells}) for cells, _ in CYCLE_CASES.values()]
        workbooks += [random_acyclic_workbook(rng) for _ in range(30)]
        for wb in workbooks:
            for g in (build_graph(wb), formula_view(build_graph(wb)), build_graph(wb).compact):
                assert schedule(g) == heap_schedule(g, g.sort_key)
                reverse_sort_key(g)
                assert schedule(g) == heap_schedule(g, g.sort_key)


def recompute_reversed(wb) -> dict:
    """``recompute_workbook`` with the engine popping the largest ready node."""
    engine = Engine(wb)
    reverse_sort_key(engine.graph.compact)
    engine.run()
    return dict(engine.values)


def heap_schedule(g, key):
    """Kahn's algorithm popping the smallest ready node from a single heap."""
    indegree = {node: len(ps) for node, ps in g._preds.items()}
    heap = [(key(n), n) for n, d in indegree.items() if d == 0]
    heapq.heapify(heap)
    order, in_cycle = [], set()

    def drain():
        while heap:
            _, node = heapq.heappop(heap)
            order.append(node)
            release(node)

    def release(node):
        for dst in g._deps[node]:
            indegree[dst] -= 1
            if indegree[dst] == 0 and dst not in in_cycle:
                heapq.heappush(heap, (key(dst), dst))

    drain()
    if len(order) < len(indegree):
        in_cycle = cycle_nodes(g)
        for node in in_cycle:
            release(node)
        drain()
    return order, in_cycle


class TestStaleness:
    def test_consistent_workbook(self):
        wb = make_workbook({"S": {"A1": 2, "B1": ("=A1*3", 6)}})
        report = staleness_report(wb)
        assert report.entries == []
        assert report.external_exclusions == []

    def test_stale_cell_detected(self):
        wb = make_workbook({"S": {"A1": 2, "B1": ("=A1*3", 5)}})
        report = staleness_report(wb)
        assert len(report.entries) == 1
        entry = report.entries[0]
        assert entry.address == addr("S", "B1")
        assert entry.cached == num(5)
        assert entry.recomputed == num(6)
        assert entry.relative_delta == pytest.approx(1 / 6)

    def test_external_dependency_excluded(self):
        wb = make_workbook({"S": {"B1": ("=[X]S!A1", 7)}})
        report = staleness_report(wb)
        assert report.entries == []
        assert report.external_exclusions == [addr("S", "B1")]

    def test_external_taint_propagates(self):
        wb = make_workbook(
            {"S": {"B1": ("=[X]S!A1", 7), "C1": ("=B1*2", 14)}}
        )
        report = staleness_report(wb)
        assert report.entries == []
        assert set(report.external_exclusions) == {addr("S", "B1"), addr("S", "C1")}

    def test_tolerance_absorbs_rounding(self):
        wb = make_workbook({"S": {"A1": 0.1, "B1": ("=A1*3", 0.30000000000000004)}})
        assert staleness_report(wb).entries == []
        wb2 = make_workbook({"S": {"A1": 0.1, "B1": ("=A1*3", 0.3001)}})
        assert len(staleness_report(wb2).entries) == 1

    def test_variant_mismatch(self):
        wb = make_workbook({"S": {"B1": ("=1=1", 1)}})
        report = staleness_report(wb)
        assert len(report.entries) == 1
        assert report.entries[0].relative_delta is None

    def test_cached_nan_is_stale(self):
        # only a Workbook built in memory can cache a NaN; the loader rejects one
        wb = Workbook(sheets=[Sheet("S", {(2, 1): Cell(formula="=1+1", cached=num(math.nan))})])
        [entry] = staleness_report(wb).entries
        assert entry.address == addr("S", "B1")
        assert entry.recomputed == num(2)
        assert entry.relative_delta is None

    def test_idempotent_consistency(self):
        rng = random.Random(3)
        for _ in range(10):
            wb = random_acyclic_workbook(rng)
            values = recompute_workbook(wb)
            rewritten = {}
            for (col, row), cell in wb.sheets[0].cells.items():
                address = addr("S", f"{chr(64 + col)}{row}")
                if cell.formula is not None:
                    rewritten[(col, row)] = Cell(
                        formula=cell.formula, cached=values[address]
                    )
                else:
                    rewritten[(col, row)] = cell
            wb2 = Workbook(sheets=[Sheet("S", rewritten)])
            assert staleness_report(wb2).entries == []


class TestNonFinite:
    """No NaN or infinity reaches a cell value: each becomes ``#VALUE!``."""

    @pytest.mark.parametrize(
        "formula",
        [
            "=ROUND(1,400)",
            "=ROUND(1,-400)",
            '=ROUND(1,"1e999")',
            '="nan"+1',
            '="inf"*1',
            "=1e308*10",
            "=-1e308-1e308",
            "=1e308/1e-308",
            '=ABS("nan")',
            "=1e999",
        ],
    )
    def test_probe_is_value_error(self, formula):
        assert eval_one(formula) == err("#VALUE!")

    @pytest.mark.parametrize("name", ["SUM", "AVERAGE"])
    def test_fsum_overflow_is_value_error(self, name):
        assert eval_one(f"={name}(A1:A2)", {"A1": 1e308, "A2": 1e308}) == err("#VALUE!")
        assert eval_one(f"={name}(A1,A2)", {"A1": 1e308, "A2": 1e308}) == err("#VALUE!")

    def test_finite_neighbours_unchanged(self):
        assert eval_one("=ROUND(1234.5678,-2)") == num(1200)
        assert eval_one('="1e3"+1') == num(1001)
        assert eval_one("=SUM(A1:A2)", {"A1": 1e308, "A2": -1e308}) == num(0)
        assert eval_one("=ROUND(1E300,10)") == num(1e300)
        assert eval_one("=ROUND(-1E300,10)") == num(-1e300)

    @pytest.mark.parametrize(
        "formula",
        ["=SUM(C1:C1)", "=AVERAGE(C1:C1)", "=MIN(C1:C1)", "=MAX(C1:C1)", "=MIN(A1:C1)",
         "=MAX(C1,A1)", "=ABS(C1)", "=-C1", "=SUM(B1,D1)", "=MAX(B1:B1)", "=-D1",
         "=C1", "=+C1", "=IF(TRUE,C1)", "=VLOOKUP(1,C1:C1,1,FALSE)", "=B1",
         "=VLOOKUP(1,A1:A1,C1,FALSE)", "=VLOOKUP(1,A1:A1,B1,FALSE)"],
    )
    def test_non_finite_input_is_value_error(self, formula):
        # only a Workbook built in memory can hold these; the loader rejects them
        inputs = {"A1": 1, "B1": math.inf, "C1": math.nan, "D1": -math.inf}
        assert eval_one(formula, inputs) == err("#VALUE!")

    @pytest.mark.parametrize("formula", ['="nan"+1', '="inf"*1', "=1e308*10", '=ABS("nan")'])
    def test_cached_number_is_stale(self, formula):
        wb = make_workbook({"S": {"B1": (formula, 1)}})
        [entry] = staleness_report(wb).entries
        assert entry.address == addr("S", "B1")
        assert entry.cached == num(1)
        assert entry.recomputed == err("#VALUE!")


# Ranges that cover formula cells, where the formula graph must agree with the cell-level view.
FORMULA_GRAPH_CASES = {
    "range_over_formulas": {
        "S": {"A1": 1, "A2": "=A1+1", "A3": "=A2*2", "B1": "=SUM(A1:A3)", "B2": "=B1+A3"},
    },
    "multi_column_range": {
        "S": {
            "A1": 1, "B1": "=A1*2", "C1": "=B1+1", "A2": "=C1", "B2": 4,
            "D1": "=SUM(A1:C2)", "D2": "=MAX(B1:C1)+D1", "E1": "=SUM(A2:B9)",
        },
    },
    "cross_sheet_case": {
        "Data": {"A1": 2, "A2": "=A1*3", "B2": "=A2+1"},
        "Calc": {"A1": "=SUM(dATA!A1:B2)", "A2": "=data!A2+A1", "B1": "=COUNT('DATA'!A2:A9)"},
    },
    "range_contains_own_cell": {
        "S": {"A1": 1, "A2": 2, "A3": "=SUM(A1:A4)", "B1": "=A3+1", "B2": "=A1*2"},
    },
    "capped_range_over_formula": {
        "S": {"A5": "=C1", "C1": 2, "B1": "=SUM(A1:A200000)", "B2": "=B1+A5", "D1": "=C1*3"},
    },
    # inputs in A, B doubles each, C runs a total over B, D reads inputs only
    "running_total_over_formulas": {
        "S": {
            cell: spec
            for r in range(1, 6)
            for cell, spec in (
                (f"A{r}", r), (f"B{r}", f"=A{r}*2"),
                (f"C{r}", f"=SUM($B$1:B{r})"), (f"D{r}", f"=A{r}+1"),
            )
        },
    },
    # the prefix node B1:B2 sits on the cycle B2 -> D1 -> B2, and B1, which
    # it also stands for, sits downstream of another cycle (H1, H2): E2 must
    # still come after B1
    "prefix_chain_on_a_cycle": {
        "S": {
            "H1": "=H2+1", "H2": "=H1+1", "B1": "=H1*1", "B2": "=D1",
            "D1": "=SUM($B$1:B2)", "E2": "=SUM($B$1:B2)", "E3": "=MAX(B$1:B2)",
        },
    },
}


def full_view_formula_edges(g) -> set:
    """Formula-to-formula edges of the cell-level view: u -> v, or u -> RangeNode -> v."""
    formulas = set(parse_all_formulas(g.wb))
    edges = set()
    for src, dst in g.edges():
        if src not in formulas:
            continue
        if dst in formulas:
            edges.add((src, dst))
        elif isinstance(dst, RangeNode):
            edges.update((src, reader) for reader in g.dependents(dst))
    return edges


def values_over_full_view(wb, pop: str) -> dict:
    """Recompute with the engine scheduled over the cell-level view,
    popping the smallest ("min") or the largest ("max") ready node."""
    g = build_graph(wb)
    g.compact = g
    if pop == "max":
        reverse_sort_key(g)
    engine = Engine(wb, graph=g)
    engine.run()
    return dict(engine.values)


class TestFormulaGraph:
    @pytest.mark.parametrize("name", list(FORMULA_GRAPH_CASES))
    def test_edges_match_the_full_view(self, name):
        wb = make_workbook(FORMULA_GRAPH_CASES[name])
        g = build_graph(wb)
        formulas = formula_view(g)
        edges = full_view_formula_edges(g)
        assert set(formulas.nodes) == {node for edge in edges for node in edge}
        assert set(formulas.edges()) == edges
        for node in formulas.nodes:
            assert formulas.precedents(node) == sorted(
                formulas.precedents(node), key=g.sort_key
            )

    @pytest.mark.parametrize("name", list(FORMULA_GRAPH_CASES))
    def test_cycle_nodes_match_the_full_view(self, name):
        wb = make_workbook(FORMULA_GRAPH_CASES[name])
        g = build_graph(wb)
        assert cycle_nodes(formula_view(g)) == cycle_nodes(g) & set(parse_all_formulas(wb))

    @pytest.mark.parametrize("name", list(FORMULA_GRAPH_CASES))
    @pytest.mark.parametrize("pop", ["min", "max"])
    def test_values_match_the_full_view(self, name, pop):
        wb = make_workbook(FORMULA_GRAPH_CASES[name])
        expected = values_over_full_view(wb, "min")
        recompute = recompute_reversed if pop == "max" else recompute_workbook
        assert recompute(wb) == expected
        assert values_over_full_view(wb, pop) == expected

    def test_cases_exercise_what_they_name(self):
        own = build_graph(make_workbook(FORMULA_GRAPH_CASES["range_contains_own_cell"]))
        assert cycle_nodes(formula_view(own)) == {addr("S", "A3")}
        capped = build_graph(make_workbook(FORMULA_GRAPH_CASES["capped_range_over_formula"]))
        assert any(isinstance(n, RangeNode) for n in capped.nodes)
        assert addr("S", "A5") in formula_view(capped).precedents(addr("S", "B1"))
        cross = build_graph(make_workbook(FORMULA_GRAPH_CASES["cross_sheet_case"]))
        assert formula_view(cross).precedents(addr("Calc", "A1")) == [
            addr("Data", "A2"), addr("Data", "B2"),
        ]
        chained = build_graph(make_workbook(FORMULA_GRAPH_CASES["prefix_chain_on_a_cycle"]))
        on_cycle = cycle_nodes(chained.compact)
        assert RangeNode("S", 2, 1, 2, 2) in on_cycle and addr("S", "B1") not in on_cycle
        assert addr("S", "B1") in chained.compact.precedents(RangeNode("S", 2, 1, 2, 2))

    def test_nodes_are_the_linked_formula_cells(self):
        wb = make_workbook(FORMULA_GRAPH_CASES["running_total_over_formulas"])
        g = formula_view(build_graph(wb))
        assert set(g.nodes) == {addr("S", f"{c}{r}") for c in "BC" for r in range(1, 6)}
        assert g.precedents(addr("S", "C3")) == [addr("S", f"B{r}") for r in (1, 2, 3)]
        assert g.dependents(addr("S", "C3")) == []
        own = formula_view(build_graph(make_workbook({"S": {"A1": "=A1+1", "B1": "=1"}})))
        assert own.nodes == [addr("S", "A1")]

    def test_compact_view_chains_running_totals(self):
        g = build_graph(make_workbook(FORMULA_GRAPH_CASES["running_total_over_formulas"])).compact
        chain = [addr("S", "B1")] + [RangeNode("S", 2, 1, 2, r) for r in range(2, 6)]
        assert set(g.nodes) == {addr("S", f"{c}{r}") for c in "BC" for r in range(1, 6)} | set(chain)
        for k in range(1, 5):
            assert g.precedents(chain[k]) == [chain[k - 1], addr("S", f"B{k + 1}")]
        assert [g.precedents(addr("S", f"C{r}")) for r in range(1, 6)] == [[n] for n in chain]
        assert g.edge_count() == 2 * 4 + 5

    @pytest.mark.parametrize("name", list(FORMULA_GRAPH_CASES))
    @pytest.mark.parametrize("pop", ["min", "max"])
    def test_compact_view_orders_the_formula_links(self, name, pop):
        g = build_graph(make_workbook(FORMULA_GRAPH_CASES[name]))
        formulas, compact = formula_view(g), g.compact
        if pop == "max":
            reverse_sort_key(compact)
        order, in_cycle = schedule(compact)
        assert in_cycle == cycle_nodes(formulas)
        assert set(formulas.nodes) <= set(order) | in_cycle
        position = {node: i for i, node in enumerate(order)}
        for src, dst in formulas.edges():
            if dst not in in_cycle:
                assert src in in_cycle or position[src] < position[dst]

    def test_random_workbooks_match_the_full_view(self):
        rng = random.Random(11)
        for _ in range(30):
            wb = random_acyclic_workbook(rng)
            g = build_graph(wb)
            assert set(formula_view(g).edges()) == full_view_formula_edges(g)
            assert recompute_workbook(wb) == values_over_full_view(wb, "min")
