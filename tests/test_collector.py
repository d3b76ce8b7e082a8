"""The pipeline allocates no reference cycles, so the CLI may pause the
cyclic collector for the one command it runs.

``cli.main`` disables automatic collection for the span of a command and
restores the caller's setting on every way out. That is safe only while
the audit, metrics and graph paths leave no cyclic garbage: a per-cell
cycle would then grow memory with the workbook instead of being reclaimed.
The tests here pin that premise and the pause itself.
"""

from __future__ import annotations

import gc
import random
from contextlib import contextmanager

import pytest

from sheetsentry.cli import main
from sheetsentry.errors import FormatError, ParseError
from sheetsentry.graph import build_graph, to_dot
from sheetsentry.metrics import compute_metrics
from sheetsentry.report import audit_workbook
from sheetsentry.workbook import load_workbook

from conftest import FIXTURES, cyclic_garbage, scale_grid_doc, write_wbjson
from evalgen import random_acyclic_workbook
from test_package import SOURCES, absolute_imports

CYCLIC_DOC = {
    "sheets": [{"name": "S", "cells": {
        "A1": {"f": "=B1+1", "v": 0},
        "B1": {"f": "=A1+1", "v": 0},
        "C1": {"f": "=SUM(A1:B1)", "v": 0},
        "D1": {"f": "=C1*2", "v": 0},
    }}],
}
PARSE_ERROR_DOC = {"sheets": [{"name": "S", "cells": {"B1": {"f": "=1+", "v": 1}}}]}
FORMAT_ERROR_DOC = {"sheets": [{"name": "S", "cells": {"B1": {"v": {"err": ["x"]}}}}]}


def graph_summary(path: str) -> None:
    g = build_graph(load_workbook(path))
    g.node_count()
    g.edge_count()
    to_dot(g)


LIBRARY_CALLS = {
    "audit": audit_workbook,
    "metrics": lambda path: compute_metrics(load_workbook(path)),
    "graph": graph_summary,
}


@contextmanager
def collector_set_to(enabled: bool):
    """Run the body with automatic collection on or off, then restore it."""
    before = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        yield
    finally:
        gc.enable() if before else gc.disable()


@pytest.fixture(scope="module")
def grid_path(tmp_path_factory) -> str:
    """Criterion 8's grid as a file: 100,000 formula cells in 400 classes."""
    return write_wbjson(tmp_path_factory.mktemp("grid"), scale_grid_doc())


class TestNoCyclicGarbage:
    @pytest.mark.parametrize("call", sorted(LIBRARY_CALLS))
    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json")))
    def test_fixture(self, name, call):
        path = str(FIXTURES / name)
        assert cyclic_garbage(lambda: LIBRARY_CALLS[call](path)) == 0

    @pytest.mark.parametrize("call", sorted(LIBRARY_CALLS))
    def test_cyclic_formulas(self, tmp_path, call):
        path = write_wbjson(tmp_path, CYCLIC_DOC)
        assert cyclic_garbage(lambda: LIBRARY_CALLS[call](path)) == 0

    @pytest.mark.parametrize("call", sorted(LIBRARY_CALLS))
    @pytest.mark.parametrize("doc, error", [(PARSE_ERROR_DOC, ParseError), (FORMAT_ERROR_DOC, FormatError)])
    def test_typed_errors(self, tmp_path, call, doc, error):
        path = write_wbjson(tmp_path, doc)

        def failing_call():
            try:
                LIBRARY_CALLS[call](path)
            except error:
                return
            raise AssertionError(f"no {error.__name__}")

        assert cyclic_garbage(failing_call) == 0

    @pytest.mark.parametrize("seed", range(30))
    def test_random_workbooks(self, seed):
        def audit_and_graph():
            wb = random_acyclic_workbook(random.Random(seed))
            audit_workbook(wb)
            g = build_graph(wb)
            g.edge_count()
            to_dot(g)

        assert cyclic_garbage(audit_and_graph) == 0


class TestCliPause:
    def test_garbage_is_constant_in_workbook_size(self, grid_path, capsys):
        clean = str(FIXTURES / "clean.json")
        main(["audit", clean])  # first-call imports and compiled patterns
        small = cyclic_garbage(lambda: main(["audit", clean]))
        large = cyclic_garbage(lambda: main(["audit", grid_path]))
        capsys.readouterr()
        assert small == large

    def test_audit_triggers_no_collection(self, grid_path, capsys):
        collections = []

        def count(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        with collector_set_to(True):
            # empty generations, so that building the argument parser (about
            # 500 objects, before the pause) stays under generation 0's threshold
            gc.collect()
            gc.callbacks.append(count)
            try:
                code = main(["audit", grid_path])
            finally:
                gc.callbacks.remove(count)
            after = gc.isenabled()
        capsys.readouterr()
        assert code == 0
        assert collections == []
        assert after

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("case, expected", [
        ("clean.json", 0),
        ("stale_value.json", 1),
        ("missing.json", 2),
        ("crash", 2),
    ])
    def test_collector_state_is_restored(self, monkeypatch, capsys, enabled, case, expected):
        crashed = case == "crash"
        if crashed:
            def crash(*args, **kwargs):
                raise RuntimeError("boom")

            monkeypatch.setattr("sheetsentry.cli.audit_workbook", crash)
            case = "clean.json"
        with collector_set_to(enabled):
            code = main(["audit", str(FIXTURES / case)])
            after = gc.isenabled()
        err = capsys.readouterr().err
        assert code == expected
        assert ("internal error" in err) == crashed
        assert after is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_is_restored_on_interrupt(self, monkeypatch, enabled):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("sheetsentry.cli.audit_workbook", interrupt)
        with collector_set_to(enabled):
            with pytest.raises(KeyboardInterrupt):
                main(["audit", str(FIXTURES / "clean.json")])
            after = gc.isenabled()
        assert after is enabled

    def test_only_the_cli_touches_the_collector(self):
        users = [path.name for path in SOURCES if "gc" in absolute_imports(path)]
        assert users == ["cli.py"]
