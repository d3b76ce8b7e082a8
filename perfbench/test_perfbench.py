"""Tests of the benchmark itself; run with ``python -m pytest perfbench``.

They are outside the package's ``testpaths`` because the traced runs take
seconds each.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import run
import tracer
import workloads

COUNTERS = [
    "formula.parse_formula.calls", "formula.tokenize.calls", "normalize.normalize.calls",
    "metrics.script_metrics.calls", "workbook.cells", "workbook.formula_cells",
    "normalize.classes", "graph.nodes", "graph.edges", "graph.range_area",
    "evaluate.evaluations", "evaluate.stale_cells", "rules.findings", "report.json_bytes",
]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generator_is_seeded(name):
    first, truth = workloads.generate(name, 7)
    again, truth_again = workloads.generate(name, 7)
    other, _ = workloads.generate(name, 8)
    assert first == again and truth == truth_again
    assert first != other


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counters_repeat_exactly(name, tmp_path):
    """Two traced runs on one seed give identical counters, and both reports
    match the generator's truth."""
    data, truth = workloads.generate(name, 3)
    path = tmp_path / f"{name}.wbjson"
    path.write_bytes(data)
    env = run.child_env()
    runs = []
    for i in range(2):
        out = str(tmp_path / f"traced{i}.json")
        subprocess.run(
            [sys.executable, tracer.__file__, "--mode", "traced", str(path), out],
            env=env, check=True, timeout=run.CHILD_TIMEOUT_S,
        )
        with open(out + ".report", "rb") as fh:
            assert run.check_report(fh.read(), truth["exit_code"], truth) == []
        with open(out) as fh:
            runs.append(json.load(fh)["metrics"])
    first, second = ({k: m[k] for k in COUNTERS} for m in runs)
    assert first == second
    assert first["formula.parse_formula.calls"] >= truth["formula_cells"]
    assert first["evaluate.stale_cells"] == len(truth["stale"])


def test_missing_target_reports_zero(monkeypatch, tmp_path):
    """Targets that do not exist are skipped and report 0; the real ones are
    still wrapped and counted."""
    monkeypatch.syspath_prepend(run.SRC)
    import sheetsentry.report

    assert sheetsentry.report.__file__.startswith(run.PACKAGE)
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + [
        ("graph", "sheetsentry.graph", "no_such_function", False),
        ("evaluate", "sheetsentry.evaluate", "Engine.no_such_method", False),
        ("gone", "sheetsentry.no_such_module", "anything", True),
    ])
    book = workloads.Book(["S"])
    book.put("S", 1, 1, 2.0)
    book.formula(workloads.Formula("S", 2, 1, "=A1*3", "mul:3", frozenset({3.0}),
                                   (("S", 1, 1, 1, 1),)), lambda get: get("S", 1, 1) * 3)
    path = tmp_path / "tiny.wbjson"
    path.write_text(json.dumps(book.document()))
    t = tracer.Tracer()
    t.install()
    try:
        sheetsentry.report.render_json(sheetsentry.report.audit_workbook(str(path)))
    finally:
        t.uninstall()
    assert t.calls("graph.build_graph") == 1
    assert t.calls("formula.parse_formula") >= 1
    assert tracer.layer_counters(t)["graph.edges"] == 1
    assert t.calls("graph.no_such_function") == 0
    assert t.calls("evaluate.Engine.no_such_method") == 0
    assert t.calls("gone.anything") == 0


def test_check_report_flags_crash_and_wrong_counts():
    _, truth = workloads.generate("range_model", 1)
    assert run.check_report(b"Traceback (most recent call last):", 1, truth)
    report = (
        b'{"metrics": {"formula_cells": 1200, "unique_formulae": 3, "error_probability_pct": 2},'
        b' "findings": [], "staleness": {"entries": []}}'
    )
    problems = run.check_report(report, 0, truth)
    assert any(p.startswith("unique_formulae") for p in problems)
    assert any(p.startswith("findings") for p in problems)


def test_refuses_checkout_without_package(tmp_path):
    """Outside a checkout (only the benchmark present) the command fails
    without printing a result."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "tracer.py"):
        (bench / name).write_bytes(open(os.path.join(run.HERE, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "copy_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
