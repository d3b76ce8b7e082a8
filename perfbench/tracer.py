"""Outside-in tracing of one in-process audit.

The tracer wraps public functions of sheetsentry's modules from outside the
package: every module-level alias of a target function is rebound to a
timing wrapper, and ``Engine.run`` is replaced on its class. Nothing under
``src/`` changes.

Stage-level calls become spans (name, start, end, parent id, ``ru_maxrss``
at exit), kept in memory. Per-cell hot calls (``parse_formula``,
``tokenize``, ``normalize``) are aggregated per (name, parent) into count,
total and self time, which bounds memory and overhead. A target that no
longer exists, or is never called, reports 0 calls.

Run as a script, it audits one file in a fresh interpreter and writes the
result as JSON::

    python perfbench/tracer.py --mode traced FILE OUT.json
    python perfbench/tracer.py --mode plain FILE OUT.json

``plain`` runs the same audit untraced, for the tracing overhead. The
canonical report text goes to ``OUT.json`` with ``.report`` appended.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from dataclasses import dataclass, field

# (layer, module, attribute, hot). Span names are "<layer>.<attribute>".
TARGETS = [
    ("workbook", "sheetsentry.workbook", "load_workbook", False),
    ("formula", "sheetsentry.formula", "parse_formula", True),
    ("formula", "sheetsentry.formula", "tokenize", True),
    ("normalize", "sheetsentry.normalize", "copy_classes", False),
    ("normalize", "sheetsentry.normalize", "normalize", True),
    ("graph", "sheetsentry.graph", "build_graph", False),
    ("evaluate", "sheetsentry.evaluate", "parse_all_formulas", False),
    ("evaluate", "sheetsentry.evaluate", "Engine.run", False),
    ("evaluate", "sheetsentry.evaluate", "staleness_report", False),
    ("metrics", "sheetsentry.metrics", "compute_metrics", False),
    ("metrics", "sheetsentry.metrics", "recalc_cost", False),
    ("metrics", "sheetsentry.metrics", "script_metrics", False),
    ("rules", "sheetsentry.rules", "run_rules", False),
    ("report", "sheetsentry.report", "audit_workbook", False),
    ("report", "sheetsentry.report", "render_json", False),
]


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class _Frame:
    name: str
    span_id: int | None      # None for hot calls
    child_s: float = 0.0


@dataclass
class Tracer:
    """Spans and hot-call aggregates of the calls made while installed."""

    spans: list[dict] = field(default_factory=list)
    hot: dict[tuple[str, str], list[float]] = field(default_factory=dict)
    returns: dict[str, list] = field(default_factory=dict)   # span name -> (args, result) of last call
    _stack: list[_Frame] = field(default_factory=list)
    _undo: list = field(default_factory=list)

    def install(self) -> None:
        """Wrap every target of the imported sheetsentry modules that exists;
        skip the rest."""
        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "sheetsentry" or name.startswith("sheetsentry."))]
        for layer, module_name, attr, hot in TARGETS:
            module = sys.modules.get(module_name)
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                # a method: replace it on its class
                cls = getattr(module, cls_name, None)
                orig = vars(cls).get(method) if isinstance(cls, type) else None
                if orig is not None:
                    self._rebind(cls, method, self._wrap(f"{layer}.{attr}", orig, hot))
                continue
            orig = getattr(module, attr, None)
            if orig is None:
                continue
            # a function: rebind every module-level alias, wherever it was imported
            wrapper = self._wrap(f"{layer}.{attr}", orig, hot)
            for mod in modules:
                for alias, value in list(vars(mod).items()):
                    if value is orig:
                        self._rebind(mod, alias, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def _rebind(self, owner, name: str, wrapper) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def _wrap(self, name: str, orig, hot: bool):
        stack, spans, aggregates, returns = self._stack, self.spans, self.hot, self.returns
        clock = time.perf_counter

        if hot:
            def hot_wrapper(*args, **kwargs):
                frame = _Frame(name, None)
                stack.append(frame)
                start = clock()
                try:
                    return orig(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    parent = stack[-1].name if stack else ""
                    if stack:
                        stack[-1].child_s += elapsed
                    entry = aggregates.get((name, parent))
                    if entry is None:
                        entry = aggregates[(name, parent)] = [0, 0.0, 0.0]
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += elapsed - frame.child_s
            return hot_wrapper

        def span_wrapper(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1].span_id if stack else None
            span = {"id": span_id, "name": name, "parent": parent}
            spans.append(span)
            frame = _Frame(name, span_id)
            stack.append(frame)
            span["start"] = clock()
            result = None
            try:
                result = orig(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1].child_s += end - span["start"]
                span["end"] = end
                span["self_s"] = end - span["start"] - frame.child_s
                span["maxrss_mb"] = _maxrss_mb()
                returns[name] = [args, result]
        return span_wrapper

    # -- summaries

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name) + sum(
            int(v[0]) for (n, _), v in self.hot.items() if n == name
        )

    def self_s(self, name: str) -> float:
        return sum(s["self_s"] for s in self.spans if s["name"] == name) + sum(
            v[2] for (n, _), v in self.hot.items() if n == name
        )

    def total_s(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name) + sum(
            v[1] for (n, _), v in self.hot.items() if n == name
        )

    def coverage(self, name: str) -> float:
        """Share of the ``name`` spans' time covered by their direct children."""
        ids = {s["id"] for s in self.spans if s["name"] == name}
        total = self.total_s(name)
        if not ids or total <= 0:
            return 0.0
        covered = sum(s["end"] - s["start"] for s in self.spans if s["parent"] in ids)
        covered += sum(v[1] for (_, parent), v in self.hot.items() if parent == name)
        return covered / total

    def to_json(self) -> dict:
        return {
            "spans": self.spans,
            "hot": [
                {"name": n, "parent": p, "calls": int(v[0]), "total_s": v[1], "self_s": v[2]}
                for (n, p), v in sorted(self.hot.items())
            ],
        }


def _result(tracer: Tracer, name: str):
    got = tracer.returns.get(name)
    return (None, None) if got is None else got


def layer_counters(tracer: Tracer) -> dict[str, float]:
    """Per-layer counters read from the objects the wrapped calls returned.

    A counter whose source is missing stays 0, so a refactor that drops a
    target degrades the trace instead of failing the run.
    """
    out: dict[str, float] = {}

    def attempt(key: str, fn) -> None:
        try:
            out[key] = fn()
        except (AttributeError, TypeError, KeyError, IndexError, ZeroDivisionError):
            out[key] = 0

    _, wb = _result(tracer, "workbook.load_workbook")
    attempt("workbook.cells", lambda: sum(len(sheet.cells) for sheet in wb.sheets))
    attempt("workbook.formula_cells", lambda: sum(
        1 for sheet in wb.sheets for cell in sheet.cells.values() if cell.formula is not None))
    formula_cells = out["workbook.formula_cells"]

    _, classes = _result(tracer, "normalize.copy_classes")
    attempt("normalize.classes", lambda: len(classes))
    attempt("normalize.cells_per_class",
            lambda: sum(len(c.members) for c in classes) / len(classes))

    _, graph = _result(tracer, "graph.build_graph")
    attempt("graph.nodes", lambda: graph.node_count())
    attempt("graph.edges", lambda: graph.edge_count())
    attempt("graph.edges_per_formula", lambda: out["graph.edges"] / formula_cells)
    _, asts = _result(tracer, "evaluate.parse_all_formulas")
    attempt("graph.range_area", lambda: range_area(asts.values()))

    args, _ = _result(tracer, "evaluate.Engine.run")
    attempt("evaluate.evaluations", lambda: len(args[0].values))
    _, staleness = _result(tracer, "evaluate.staleness_report")
    attempt("evaluate.stale_cells", lambda: len(staleness.entries))

    _, findings = _result(tracer, "rules.run_rules")
    attempt("rules.findings", lambda: len(findings))
    _, text = _result(tracer, "report.render_json")
    attempt("report.json_bytes", lambda: len(text.encode()))
    return out


def range_area(asts) -> int:
    """Summed area of the in-workbook ranges the formulas reference."""
    from sheetsentry.formula import Range, walk

    area = 0
    for ast in asts:
        for node in walk(ast):
            if isinstance(node, Range) and node.ref.start.external is None:
                rng = node.ref
                area += (rng.end.col - rng.start.col + 1) * (rng.end.row - rng.start.row + 1)
    return area


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric except the overhead, which needs an untraced run."""
    m = {
        "workbook.load_workbook.self_s": tracer.self_s("workbook.load_workbook"),
        "formula.parse_formula.calls": tracer.calls("formula.parse_formula"),
        "formula.parse_formula.self_s": tracer.self_s("formula.parse_formula"),
        "formula.tokenize.calls": tracer.calls("formula.tokenize"),
        "formula.tokenize.self_s": tracer.self_s("formula.tokenize"),
        "normalize.copy_classes.self_s": tracer.self_s("normalize.copy_classes"),
        "normalize.normalize.calls": tracer.calls("normalize.normalize"),
        "normalize.normalize.self_s": tracer.self_s("normalize.normalize"),
        "graph.build_graph.self_s": tracer.self_s("graph.build_graph"),
        "graph.build_graph.maxrss_mb": max(
            (s["maxrss_mb"] for s in tracer.spans if s["name"] == "graph.build_graph"), default=0.0
        ),
        "evaluate.parse_all_formulas.self_s": tracer.self_s("evaluate.parse_all_formulas"),
        "evaluate.Engine.run.self_s": tracer.self_s("evaluate.Engine.run"),
        "evaluate.staleness_report.self_s": tracer.self_s("evaluate.staleness_report"),
        "metrics.compute_metrics.self_s": tracer.self_s("metrics.compute_metrics"),
        "metrics.recalc_cost.self_s": tracer.self_s("metrics.recalc_cost"),
        "metrics.script_metrics.calls": tracer.calls("metrics.script_metrics"),
        "rules.run_rules.self_s": tracer.self_s("rules.run_rules"),
        "report.audit_workbook.total_s": tracer.total_s("report.audit_workbook"),
        "report.audit_workbook.self_s": tracer.self_s("report.audit_workbook"),
        "report.render_json.self_s": tracer.self_s("report.render_json"),
        "trace.coverage_frac": tracer.coverage("report.audit_workbook"),
    }
    m.update(layer_counters(tracer))
    return m


def audit_once(path: str, traced: bool) -> tuple[dict, str]:
    """Audit ``path`` in this process the way ``sheetsentry audit --format json``
    does; returns the measurements and the canonical report text."""
    import sheetsentry.report

    tracer = Tracer()
    if traced:
        tracer.install()
    try:
        start = time.perf_counter()
        # looked up at call time, so the traced run goes through the wrappers
        report = sheetsentry.report.audit_workbook(path)
        text = sheetsentry.report.render_json(report)
        elapsed = time.perf_counter() - start
    finally:
        tracer.uninstall()
    out = {"audit_s": elapsed, "maxrss_mb": _maxrss_mb(),
           "sha256": hashlib.sha256(text.encode()).hexdigest()}
    if traced:
        out["metrics"] = layer_metrics(tracer)
        out["trace"] = tracer.to_json()
    return out, text


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--mode", choices=("traced", "plain"), required=True)
    parser.add_argument("file")
    parser.add_argument("out")
    args = parser.parse_args(argv)

    result, text = audit_once(args.file, traced=args.mode == "traced")
    with open(args.out + ".report", "w", encoding="utf-8") as fh:
        fh.write(text)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
