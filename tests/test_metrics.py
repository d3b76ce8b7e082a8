"""Error model, branch counting, cost model, and script metrics."""

from __future__ import annotations

import gc
import json
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sheetsentry.graph as graph_module
from sheetsentry.cli import main
from sheetsentry.errors import DomainError
from sheetsentry.evaluate import Engine, recompute_workbook, staleness_report
import sheetsentry.formula as formula_module
from sheetsentry.formula import Template, _Parser, parse_all_formulas, parse_formula, tokenize
from sheetsentry.metrics import (
    Analysis,
    compute_metrics,
    error_probability,
    formula_cost,
    script_metrics,
    shape_facts,
)
from sheetsentry.report import audit_workbook
from sheetsentry.rules import RuleConfig, run_rules
from sheetsentry.graph import build_graph
from sheetsentry.workbook import (
    CellValue,
    ScriptModule,
    Workbook,
    col_to_letters,
    load_workbook,
    workbook_from_dict,
)

from classoracle import branch_count
from conftest import FIXTURES, addr, make_workbook, scale_grid_doc, stored_formula_count, write_wbjson
from formulaview import formula_view

# integer percents reported for the six audited sample workbooks
REFERENCE_SAMPLES = [(351, 97), (37, 31), (284, 94), (209, 88), (260, 93), (164, 81)]


class TestErrorProbability:
    def test_sample_row_largest(self):
        # 1 - 0.99**351 = 0.97062... -> 97%
        assert round(100 * error_probability(0.01, 351)) == 97

    def test_sample_row_macro_driven(self):
        # 1 - 0.99**37 = 0.31055... -> 31%
        assert round(100 * error_probability(0.01, 37)) == 31

    @pytest.mark.parametrize("n,pct", REFERENCE_SAMPLES)
    def test_all_sample_rows(self, n, pct):
        assert round(100 * error_probability(0.01, n)) == pct

    def test_zero_formulas(self):
        for p in (0.0, 0.01, 0.5, 1.0):
            assert error_probability(p, 0) == 0.0

    def test_certain_error(self):
        assert error_probability(1.0, 5) == 1.0

    @pytest.mark.parametrize("p,n", [(-0.1, 1), (1.1, 1), (0.01, -1), (0.01, 1.5)])
    def test_domain_violations(self, p, n):
        with pytest.raises(DomainError):
            error_probability(p, n)

    @given(
        p=st.floats(min_value=0.0, max_value=1.0),
        n=st.integers(min_value=0, max_value=2000),
    )
    @settings(max_examples=200)
    def test_monotone_in_n(self, p, n):
        assert error_probability(p, n + 1) >= error_probability(p, n)

    @given(
        p1=st.floats(min_value=0.0, max_value=1.0),
        p2=st.floats(min_value=0.0, max_value=1.0),
        n=st.integers(min_value=0, max_value=2000),
    )
    @settings(max_examples=200)
    def test_monotone_in_p(self, p1, p2, n):
        low, high = sorted((p1, p2))
        assert error_probability(low, n) <= error_probability(high, n)


def nested_ifs(depth: int) -> str:
    """IF nests in the else arm: depth IFs, depth+1 leaf outcomes."""
    src = str(depth + 1)
    for i in range(depth, 0, -1):
        src = f"IF(A{i},{i},{src})"
    return "=" + src


def leaf_count_oracle(node) -> int:
    """Explicit decision-tree enumeration for IF nests built by nested_ifs."""
    from sheetsentry.formula import Call

    if isinstance(node, Call) and node.name == "IF":
        return leaf_count_oracle(node.args[1]) + leaf_count_oracle(node.args[2])
    return 1


def branches(ast) -> int:
    """The branch count the audit reads of a formula: its template's."""
    return shape_facts(Template(ast)).branches


class TestBranchCount:
    def test_no_conditionals(self):
        assert branches(parse_formula("=A1")) == 0

    def test_single_if(self):
        assert branches(parse_formula("=IF(A1,1,2)")) == 2

    def test_six_nested_ifs_report_seven(self):
        ast = parse_formula(nested_ifs(6))
        assert leaf_count_oracle(ast) == 7  # oracle agrees
        assert branches(ast) == 7

    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 6])
    def test_matches_leaf_count_oracle(self, depth):
        ast = parse_formula(nested_ifs(depth))
        assert branches(ast) == leaf_count_oracle(ast)

    def test_if_inside_condition_counts(self):
        ast = parse_formula("=IF(IF(A1,1,0),2,3)")
        assert branches(ast) == 3


class TestCostModel:
    def test_reference_plus_literal(self):
        assert formula_cost(parse_formula("=A1+1")) == 2  # base 1 + operator 1

    def test_vlookup_charges_rows(self):
        assert formula_cost(parse_formula("=VLOOKUP(X1,A1:B100,2)")) >= 100

    def test_direct_reference_cheaper_than_lookup(self):
        lookup = formula_cost(parse_formula("=VLOOKUP(X1,A1:B100,2)"))
        direct = formula_cost(parse_formula("=B7"))
        assert direct < lookup

    def test_lookup_cost_strictly_increasing_in_rows(self):
        costs = [
            formula_cost(parse_formula(f"=VLOOKUP(X1,A1:B{n},2)")) for n in range(2, 40)
        ]
        assert all(b > a for a, b in zip(costs, costs[1:]))

    def test_aggregate_charges_range_cells(self):
        assert formula_cost(parse_formula("=SUM(A1:A9)")) == 10  # base 1 + 9 cells

    def test_total_is_sum_of_cells(self):
        wb = make_workbook(
            {"S": {"B1": "=A1+1", "B2": "=SUM(A1:A9)", "B3": "=VLOOKUP(A1,C1:D50,2)"}}
        )
        total = compute_metrics(wb).cost_estimate
        per_cell = [formula_cost(parse_formula(f)) for f in ("=A1+1", "=SUM(A1:A9)", "=VLOOKUP(A1,C1:D50,2)")]
        assert total == sum(per_cell)

    def test_removing_a_cell_never_increases_total(self):
        cells = {"B1": "=A1+1", "B2": "=SUM(A1:A9)", "B3": "=VLOOKUP(A1,C1:D50,2)"}
        full = compute_metrics(make_workbook({"S": cells})).cost_estimate
        for removed in cells:
            remaining = {k: v for k, v in cells.items() if k != removed}
            partial = compute_metrics(make_workbook({"S": remaining})).cost_estimate
            assert partial <= full


class TestScriptMetrics:
    def test_comment_ratio(self):
        source = "\n".join(["' header", "x = 1", "' note", "y = 2"] + ["z = 3"] * 6)
        (sm,) = script_metrics([ScriptModule("M", source)])
        assert sm.lines == 10
        assert sm.comment_ratio == pytest.approx(0.2)

    def test_empty_module_ratios_are_vacuously_one(self):
        (sm,) = script_metrics([ScriptModule("M", "")])
        assert sm.comment_ratio == 1.0
        assert sm.indent_ratio == 1.0

    def test_rem_comments_counted(self):
        source = "REM top\nrem other\nx = 1\n"
        (sm,) = script_metrics([ScriptModule("M", source)])
        assert sm.comment_ratio == pytest.approx(2 / 3)

    def test_indent_ratio_on_blocks(self):
        source = "Sub M()\n    x = 1\n    y = 2\nEnd Sub\n"
        (sm,) = script_metrics([ScriptModule("M", source)])
        assert sm.indent_ratio == 1.0

    def test_unindented_block_bodies(self):
        source = "Sub M()\nx = 1\ny = 2\nEnd Sub\n"
        (sm,) = script_metrics([ScriptModule("M", source)])
        assert sm.indent_ratio == 0.0

    def test_else_sits_at_opener_level(self):
        source = (
            "Sub M()\n"
            "    If a > 1 Then\n"
            "        x = 1\n"
            "    Else\n"
            "        x = 2\n"
            "    End If\n"
            "End Sub\n"
        )
        (sm,) = script_metrics([ScriptModule("M", source)])
        assert sm.indent_ratio == 1.0

    def test_large_undocumented_unindented_module(self):
        # synthetic reconstruction of the 8000-line anecdote
        chunk = "Sub M{i}()\nx = x + 1\ny = y - 1\nEnd Sub\n"
        source = "".join(chunk.format(i=i) for i in range(2000))
        (sm,) = script_metrics([ScriptModule("Module1", source)])
        assert sm.lines == 8000
        assert sm.comment_ratio == 0.0
        assert sm.indent_ratio == 0.0

    def test_ratio_bounds(self):
        rng = random.Random(9)
        for _ in range(20):
            lines = []
            for _ in range(rng.randrange(0, 40)):
                lines.append(
                    rng.choice(["' c", "x = 1", "  y = 2", "Sub Q()", "End Sub", ""])
                )
            (sm,) = script_metrics([ScriptModule("M", "\n".join(lines))])
            assert 0.0 <= sm.comment_ratio <= 1.0
            assert 0.0 <= sm.indent_ratio <= 1.0


class TestComputeMetrics:
    def test_empty_workbook(self):
        metrics = compute_metrics(make_workbook({"S": {}}))
        assert metrics.formula_cells == 0
        assert metrics.unique_formulae == 0
        assert metrics.error_probability == 0.0
        assert metrics.max_branching == 0
        assert metrics.external_link_count == 0
        assert metrics.script_lines_total == 0
        assert metrics.cost_estimate == 0

    def test_single_formula(self):
        metrics = compute_metrics(make_workbook({"S": {"B1": "=1+1"}}))
        assert metrics.formula_cells == 1
        assert metrics.unique_formulae == 1
        assert metrics.error_probability == pytest.approx(0.01)
        assert metrics.error_probability_pct == 1

    def test_synthetic_ss6_like(self):
        # 164 copy classes -> 81% at the default rate
        wb = synthetic_workbook(164)
        metrics = compute_metrics(wb)
        assert metrics.unique_formulae == 164
        assert metrics.error_probability_pct == 81

    def test_reports_max_branching_and_links(self):
        wb = make_workbook(
            {"S": {"B1": nested_ifs(3), "C1": "=[Rates]S1!A1", "D1": "=[Rates]S1!B2"}}
        )
        metrics = compute_metrics(wb)
        assert metrics.max_branching == 4
        assert metrics.external_link_count == 2

    @pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.json")))
    def test_max_branching_is_the_per_cell_maximum(self, fixture):
        a = Analysis(load_workbook(str(FIXTURES / fixture)))
        per_cell = max(map(branch_count, a.asts.values()), default=0)
        assert compute_metrics(a).max_branching == per_cell


def count_calls(monkeypatch, func) -> list[int]:
    """Rebind every sheetsentry module's name for ``func`` to a counting wrapper."""
    count = [0]

    def counting(*args, **kwargs):
        count[0] += 1
        return func(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "sheetsentry" or name.startswith("sheetsentry."):
            for alias, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, alias, counting)
    return count


class TestOnePassAnalysis:
    def test_audit_parses_each_formula_once(self, fixtures_dir, monkeypatch):
        wb = load_workbook(str(fixtures_dir / "all_rules.json"))
        parses = count_calls(monkeypatch, parse_formula)
        scripts = count_calls(monkeypatch, script_metrics)
        audit_workbook(wb)
        assert parses[0] == stored_formula_count(wb) > 0
        assert scripts[0] == 1

    def test_metrics_never_recompute_values(self, fixtures_dir, monkeypatch):
        def forbidden(self):
            raise AssertionError("compute_metrics recomputed cell values")

        monkeypatch.setattr(Engine, "run", forbidden)
        wb = load_workbook(str(fixtures_dir / "all_rules.json"))
        assert compute_metrics(wb).formula_cells == stored_formula_count(wb)


class TestMemoryFollowsFormulas:
    """Criterion 8's grid holds 100,000 formula cells that read only inputs."""

    def test_formula_view_is_empty(self):
        a = Analysis(workbook_from_dict(scale_grid_doc()))
        assert formula_view(a.graph).node_count() == 0
        assert a.graph.compact.node_count() == 0

    def test_retained_bytes_per_formula_cell(self):
        wb = workbook_from_dict(scale_grid_doc(40, 250))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            a = Analysis(wb)
            compute_metrics(a)
            run_rules(a, RuleConfig())
            assert not a.staleness.entries
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained / len(a.asts) <= 250

    def test_graph_keeps_nothing_per_formula_cell(self):
        """``build_graph`` keeps a plan per template and sheet; the views
        read each cell's nodes from its values when they are built."""
        wb = workbook_from_dict(scale_grid_doc(40, 250))
        asts = parse_all_formulas(wb)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            graph = build_graph(wb, asts)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(asts) == 10_000 and graph.external_links == []
        assert retained < 64 * 1024


class TestParserWork:
    """Parsing costs one call per formula cell but one full parse per shape."""

    def test_scale_grid_parses_one_shape(self, tmp_path, monkeypatch):
        path = write_wbjson(tmp_path, scale_grid_doc())
        wb = load_workbook(path)
        calls = count_calls(monkeypatch, parse_formula)
        # the parser's own lexing; LONG_FORMULA also tokenizes each class once
        tokenizes = [0]
        parses = [0]
        full_parse = _Parser.parse

        def counting_tokenize(src):
            tokenizes[0] += 1
            return tokenize(src)

        def counting_parse(self):
            parses[0] += 1
            return full_parse(self)

        monkeypatch.setattr(formula_module, "tokenize", counting_tokenize)
        monkeypatch.setattr(_Parser, "parse", counting_parse)
        report = audit_workbook(wb)
        assert report.metrics.formula_cells == calls[0] == stored_formula_count(wb) == 100_000
        assert tokenizes[0] == parses[0] == 1  # the one shape, parsed in full once


def synthetic_workbook(n_classes: int):
    """n distinct normalized formulas, each fanned over two cells."""
    cells = {}
    for i in range(n_classes):
        multiplier = i + 2
        col = 2 + (i % 40)
        base_row = 1 + (i // 40) * 10
        for copy in range(2):
            row = base_row + copy
            cells[f"{col_to_letters(col)}{row}"] = (f"=A{row}*{multiplier}", 0)
    return make_workbook({"S": cells})


def running_totals_doc(rows: int) -> dict:
    """``rows`` inputs in column B and ``=SUM($B$2:B{r})`` beside each in column C."""
    cells = {}
    for r in range(2, rows + 2):
        cells[f"B{r}"] = {"v": r}
        cells[f"C{r}"] = {"f": f"=SUM($B$2:B{r})", "v": (r * (r + 1)) // 2 - 1}
    return {"sheets": [{"name": "S", "cells": cells}], "manifest": {"specification": "totals"}}


class TestNoRangeExpansion:
    """An audit schedules over formula cells and never expands a range cell by cell."""

    @pytest.fixture
    def forbid_expansion(self, monkeypatch):
        def forbidden(refs, wb):
            raise AssertionError("a range was expanded cell by cell")

        monkeypatch.setattr(graph_module, "_expand", forbidden)

    def test_audit_and_metrics(self, tmp_path, forbid_expansion, capsys):
        path = write_wbjson(tmp_path, running_totals_doc(800))
        report = audit_workbook(path)
        assert report.metrics.formula_cells == 800
        assert report.stale_entries == ()
        assert compute_metrics(load_workbook(path)).formula_cells == 800
        assert main(["metrics", "--format", "json", path]) == 0
        assert json.loads(capsys.readouterr().out)["formula_cells"] == 800

    def test_audit_builds_no_dependent_lists(self, monkeypatch):
        def forbidden(reads):
            raise AssertionError("dependent lists were built")

        monkeypatch.setattr(graph_module, "_adjacency", forbidden)
        report = audit_workbook(str(FIXTURES / "cycles.json"))
        assert len(report.stale_entries) == 14  # as in its golden file

    def test_views_still_expand_on_demand(self):
        wb = workbook_from_dict(running_totals_doc(20))
        assert build_graph(wb).edge_count() == sum(range(1, 21))


class TestRunningTotalsReadPrefixes:
    """Copied running totals cost their formula cells, not the area of their ranges."""

    ROWS = 1500

    def test_scheduling_edges_grow_with_formula_cells(self):
        """``=A{r}*2`` and ``=SUM($B$1:B{r})``: 3,000 formula cells whose
        formula view has a link per (total, cell above it) pair."""
        cells = {}
        for r in range(1, self.ROWS + 1):
            cells[f"A{r}"] = r
            cells[f"B{r}"] = f"=A{r}*2"
            cells[f"C{r}"] = f"=SUM($B$1:B{r})"
        wb = make_workbook({"S": cells})
        g = build_graph(wb)
        formula_cells = 2 * self.ROWS
        assert g.compact.edge_count() <= 3 * formula_cells
        assert formula_view(g).edge_count() == self.ROWS * (self.ROWS + 1) // 2
        values = recompute_workbook(wb)
        assert values[addr("S", f"C{self.ROWS}")] == CellValue.number(self.ROWS * (self.ROWS + 1))

    def test_recompute_reads_each_range_cell_once(self, monkeypatch):
        """``=SUM($A$1:A{r})`` over inputs: the ranges cover 1,125,750 cells."""
        cells = {f"A{r}": r for r in range(1, self.ROWS + 1)}
        cells.update({f"B{r}": f"=SUM($A$1:A{r})" for r in range(1, self.ROWS + 1)})
        wb = make_workbook({"S": cells})
        reads = []
        original = Engine._read

        def counting_read(self, column, lo, hi):
            reads.append(hi - lo)
            return original(self, column, lo, hi)

        monkeypatch.setattr(Engine, "_read", counting_read)
        values = recompute_workbook(wb)
        assert sum(reads) <= 2 * self.ROWS
        assert values[addr("S", f"B{self.ROWS}")] == CellValue.number(self.ROWS * (self.ROWS + 1) // 2)


class TestPerSheetWorkIsOncePerSheet:
    """Reading order and staleness resolve each sheet once, not once per
    formula cell."""

    ROWS = 120

    @pytest.fixture
    def wb(self):
        """Three sheets of 120 rows each, every row a chain In -> Mid -> Out,
        the references to ``In`` spelled in another case; every tenth
        ``Out`` cell caches a stale value."""
        inputs, mids, outs = {}, {}, {}
        for r in range(1, self.ROWS + 1):
            inputs[f"A{r}"] = r
            inputs[f"B{r}"] = (f"=A{r}*2", 2 * r)
            mids[f"A{r}"] = (f"=in!B{r}+1", 2 * r + 1)
            outs[f"A{r}"] = (f"=Mid!A{r}+IN!B{r}", 4 * r + 1 + (r % 10 == 0))
        return make_workbook({"In": inputs, "Mid": mids, "Out": outs})

    @staticmethod
    def counting(monkeypatch, name):
        calls = []
        original = getattr(Workbook, name)

        def counted(self, *args):
            calls.append(args)
            return original(self, *args)

        monkeypatch.setattr(Workbook, name, counted)
        return calls

    def test_staleness_resolves_each_sheet_once(self, wb, monkeypatch):
        engine = Engine(wb)
        engine.run()
        cell_calls = self.counting(monkeypatch, "cell")
        sheet_calls = self.counting(monkeypatch, "sheet")
        report = staleness_report(wb, engine)
        assert len(engine.asts) >= 300
        assert len(cell_calls) + len(sheet_calls) <= len(wb.sheets)
        assert [e.address for e in report.entries] == [
            addr("Out", f"A{r}") for r in range(10, self.ROWS + 1, 10)
        ]

    def test_reading_order_walks_no_stored_cell_list(self, wb):
        asts = parse_all_formulas(wb)
        assert list(asts) == sorted(asts, key=wb.address_sort_key)
        assert len(asts) == 3 * self.ROWS
