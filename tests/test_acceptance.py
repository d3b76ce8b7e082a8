"""Acceptance criteria: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines alongside pytest's own pass/fail output.
"""

from __future__ import annotations

import json
import random
import time

from sheetsentry.evaluate import recompute_workbook, staleness_report
from sheetsentry.formula import parse_formula, serialize_formula
from sheetsentry.graph import build_graph
from sheetsentry.metrics import compute_metrics, formula_cost
from sheetsentry.normalize import copy_classes
from sheetsentry.report import audit_workbook, render_json, render_text
from sheetsentry.workbook import CellAddress, CellValue, col_to_letters, load_workbook

from astgen import random_ast
from classoracle import normalize
from conftest import addr, downstream, make_workbook, scale_grid_doc, stored_cells
from evalgen import engine_to_plain, oracle_evaluate, random_acyclic_workbook
from test_normalize import bounded_ast, translate_ast

REFERENCE_SAMPLES = [(351, 97), (37, 31), (284, 94), (209, 88), (260, 93), (164, 81)]


def synthetic_workbook(n_classes: int, copies: int = 2):
    cells = {}
    for i in range(n_classes):
        multiplier = i + 2
        col = 2 + (i % 40)
        base_row = 1 + (i // 40) * (copies + 2)
        for copy in range(copies):
            row = base_row + copy
            cells[f"{col_to_letters(col)}{row}"] = (f"=A{row}*{multiplier}", 0)
    return make_workbook({"S": cells})


def test_criterion_1_table_reproduction():
    start = time.perf_counter()
    for n, expected_pct in REFERENCE_SAMPLES:
        wb = synthetic_workbook(n)
        metrics = compute_metrics(wb, p=0.01)
        assert metrics.unique_formulae == n
        assert metrics.error_probability_pct == expected_pct, (n, expected_pct)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(
        f"\nPASS criterion 1: six synthetic workbooks reproduce percents "
        f"{[pct for _, pct in REFERENCE_SAMPLES]} at p=1% ({elapsed:.2f}s)"
    )


def test_criterion_2_unique_formula_properties():
    start = time.perf_counter()
    rng = random.Random(20240131)

    # 1,000 randomized (formula, origin, translation) triples
    for _ in range(1000):
        ast = bounded_ast(rng)
        origin = CellAddress("S", rng.randrange(100, 500), rng.randrange(100, 500))
        dr, dc = rng.randrange(-50, 51), rng.randrange(-50, 51)
        moved = translate_ast(ast, dr, dc)
        moved_origin = CellAddress("S", origin.col + dc, origin.row + dr)
        assert normalize(moved, moved_origin) == normalize(ast, origin)

    # pairwise brute-force oracle agrees with the partition exactly
    for _ in range(30):
        cells = {}
        for _ in range(rng.randrange(8, 30)):
            col = rng.randrange(2, 10)
            row = rng.randrange(2, 24)
            kind = rng.randrange(4)
            if kind == 0:
                cells[f"{col_to_letters(col)}{row}"] = f"=A{row}*2"
            elif kind == 1:
                cells[f"{col_to_letters(col)}{row}"] = f"=$B$1+A{row}"
            elif kind == 2:
                cells[f"{col_to_letters(col)}{row}"] = f"=SUM(A1:A{row})"
            else:
                cells[f"{col_to_letters(col)}{row}"] = f"=IF(A{row}>0,C{row},-1)"
        wb = make_workbook({"S": cells})
        asts = {
            address: parse_formula(cell.formula)
            for address, cell in stored_cells(wb)
            if cell.formula
        }
        class_of = {}
        for idx, cls in enumerate(copy_classes(wb)):
            for member in cls.members:
                class_of[member] = idx
        addresses = sorted(asts, key=wb.address_sort_key)
        for i, a1 in enumerate(addresses):
            for a2 in addresses[i + 1 :]:
                dr, dc = a2.row - a1.row, a2.col - a1.col
                equivalent = translate_ast(asts[a1], dr, dc) == asts[a2]
                assert (class_of[a1] == class_of[a2]) == equivalent, (a1, a2)

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"\nPASS criterion 2: 1,000 translation triples + pairwise oracle "
        f"partitions agree ({elapsed:.2f}s)"
    )


def test_criterion_3_evaluator_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(77)
    for _ in range(500):
        wb = random_acyclic_workbook(rng, max_cells=50)
        engine_values = recompute_workbook(wb)
        oracle_values = oracle_evaluate(wb)
        assert set(engine_values) == set(oracle_values)
        for address, expected in oracle_values.items():
            assert engine_to_plain(engine_values[address]) == expected, address

    cyclic_fixtures = [
        {"A1": "=B1", "B1": "=A1"},
        {"A1": "=A1+1"},
        {"A1": "=B1", "B1": "=C1", "C1": "=A1"},
        {"A1": "=B1*2", "B1": "=SUM(A1:A2)", "A2": "=B1"},
    ]
    for cells in cyclic_fixtures:
        values = recompute_workbook(make_workbook({"S": cells}))
        assert values, cells
        assert all(v == CellValue.error("#CIRC!") for v in values.values()), cells

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"\nPASS criterion 3: 500 random workbooks match the recursive "
        f"oracle; cyclic fixtures all #CIRC! ({elapsed:.2f}s)"
    )


def test_criterion_4_parser_round_trip():
    start = time.perf_counter()
    rng = random.Random(424242)
    for i in range(10_000):
        ast = random_ast(rng, depth=8)
        text = "=" + serialize_formula(ast)
        assert parse_formula(text) == ast, text
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\nPASS criterion 4: 10,000 generated ASTs round-trip ({elapsed:.2f}s)")


def test_criterion_5_rule_fixtures(fixtures_dir):
    per_rule = {
        "spec_missing.json": ("SPEC_MISSING", []),
        "stale_value.json": ("STALE_VALUE", [("Sheet1", "B1")]),
        "external_link.json": ("EXTERNAL_LINK", [("Sheet1", "C1"), ("Sheet1", "C2"), ("Sheet1", "C3")]),
        "copy_class_hole.json": ("COPY_CLASS_HOLE", [("Sheet1", "B5")]),
        "hardcoded_constant.json": (
            "HARDCODED_CONSTANT",
            [("Sheet1", "B1"), ("Sheet1", "B2"), ("Sheet1", "B3")],
        ),
        "deep_nesting.json": ("DEEP_NESTING", [("Sheet1", "B1")]),
        "long_formula.json": ("LONG_FORMULA", [("Sheet1", "B1")]),
        "script_quality.json": ("SCRIPT_QUALITY", []),
        "manual_calc.json": ("MANUAL_CALC", []),
        "lookup_hotspot.json": ("LOOKUP_HOTSPOT", [("Sheet1", "B1")]),
    }
    for fixture, (rule_id, locations) in per_rule.items():
        report = audit_workbook(str(fixtures_dir / fixture))
        assert [f.rule_id for f in report.findings] == [rule_id], fixture
        expected = tuple(addr(s, a1) for s, a1 in locations)
        assert report.findings[0].locations == expected, fixture

    clean = audit_workbook(str(fixtures_dir / "clean.json"))
    assert clean.findings == ()

    combined_path = str(fixtures_dir / "all_rules.json")
    combined = audit_workbook(combined_path)
    assert len(combined.findings) == 10
    assert len({f.rule_id for f in combined.findings}) == 10

    assert render_json(audit_workbook(combined_path)) == render_json(
        audit_workbook(combined_path)
    )
    print("\nPASS criterion 5: per-rule fixtures exact; all-rules fixture yields 10; clean yields 0; byte-equal JSON")


def test_criterion_6_staleness_closure(fixtures_dir, tmp_path):
    base_path = fixtures_dir / "staleness_base.json"
    wb = load_workbook(str(base_path))
    assert staleness_report(wb).entries == []  # consistent before mutation

    doc = json.loads(base_path.read_text())
    doc["sheets"][0]["cells"]["A1"]["v"] = 3  # edit one input, keep outputs
    mutated_path = tmp_path / "mutated.json"
    mutated_path.write_text(json.dumps(doc))

    mutated = load_workbook(str(mutated_path))
    graph = build_graph(mutated)
    closure = {
        node
        for node in downstream(graph, addr("Sheet1", "A1"))
        if isinstance(node, CellAddress)
    }
    assert closure == {addr("Sheet1", "B1"), addr("Sheet1", "C1"), addr("Sheet1", "D1")}

    report = audit_workbook(str(mutated_path))
    stale = [f for f in report.findings if f.rule_id == "STALE_VALUE"]
    assert len(stale) >= 1
    flagged = {f.locations[0] for f in stale}
    assert flagged == closure
    print("\nPASS criterion 6: mutated input flags exactly the dependency closure as stale")


def test_criterion_7_cost_model_direction():
    direct_cost = formula_cost(parse_formula("=B7"))
    previous = None
    for n in range(2, 2000, 13):
        lookup_cost = formula_cost(parse_formula(f"=VLOOKUP(X1,A1:B{n},2)"))
        assert lookup_cost > direct_cost, n
        if previous is not None:
            assert lookup_cost > previous, n
        previous = lookup_cost
    # strict monotonicity over every consecutive n as well
    costs = [formula_cost(parse_formula(f"=VLOOKUP(X1,A1:B{n},2)")) for n in range(2, 120)]
    assert all(b > a for a, b in zip(costs, costs[1:]))
    print("\nPASS criterion 7: replacing lookups with direct references strictly lowers cost; cost strictly increases with table rows")


def test_criterion_8_scale_smoke(tmp_path):
    n_classes = 400
    rows_per_class = 250
    doc = scale_grid_doc(n_classes, rows_per_class)
    path = tmp_path / "scale.json"
    path.write_text(json.dumps(doc))

    start = time.perf_counter()
    report = audit_workbook(str(path))
    text = render_text(report)
    elapsed = time.perf_counter() - start

    assert report.metrics.formula_cells == n_classes * rows_per_class
    assert report.metrics.unique_formulae == n_classes
    assert "Formula cells" in text
    assert not report.stale_entries
    assert elapsed < 10.0, f"audit took {elapsed:.2f}s"
    print(
        f"\nPASS criterion 8: {n_classes * rows_per_class:,} formula cells in "
        f"{n_classes} classes load+audit+report in {elapsed:.2f}s"
    )
