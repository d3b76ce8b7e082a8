"""Command-line interface.

Subcommands: ``audit`` (full report), ``metrics`` (metrics only),
``graph`` (dependency graph, optionally as DOT), and ``explain`` (rule
documentation). Exit codes: 0 when no finding reaches the ``--fail-on``
severity, 1 when one does, 2 on load/parse failures, bad usage or an
internal error. Exit code 1 never means a crash.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from importlib import import_module

from .errors import SheetSentryError
from .version import VERSION

CONFIG_ENV_VAR = "SHEETSENTRY_CONFIG"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sheetsentry",
        description="Audit spreadsheet workbooks for quality and consistency risks.",
    )
    parser.add_argument("--version", action="version", version=f"sheetsentry {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    audit = sub.add_parser("audit", help="run the full audit pipeline")
    audit.add_argument("files", nargs="+", metavar="FILE")
    audit.add_argument("--config", help="rule configuration JSON file")
    audit.add_argument("--format", choices=("text", "json"), default="text")
    audit.add_argument(
        "--p",
        type=float,
        help="error rate per unique formula (default 0.01)",
    )
    audit.add_argument(
        "--fail-on",
        choices=("info", "warning", "error"),
        default="error",
        help="lowest severity that sets exit code 1 (default error)",
    )

    metrics = sub.add_parser("metrics", help="compute workbook metrics only")
    metrics.add_argument("file", metavar="FILE")
    metrics.add_argument("--format", choices=("text", "json"), default="text")
    metrics.add_argument("--p", type=float)

    graph = sub.add_parser("graph", help="dependency graph inspection")
    graph.add_argument("file", metavar="FILE")
    graph.add_argument("--dot", action="store_true", help="emit Graphviz DOT text")

    explain = sub.add_parser("explain", help="describe a rule and its thresholds")
    explain.add_argument("rule_id", metavar="RULE_ID")

    return parser


def _cmd_audit(args: argparse.Namespace) -> int:
    from .metrics import DEFAULT_ERROR_RATE
    from .report import audit_workbook, render_json, render_text
    from .rules import RuleConfig, Severity

    p = DEFAULT_ERROR_RATE if args.p is None else args.p
    config = os.environ.get(CONFIG_ENV_VAR) if args.config is None else args.config
    cfg = RuleConfig() if config is None else RuleConfig.from_file(config)
    threshold = Severity.from_label(args.fail_on)
    worst = 0
    for path in args.files:
        report = audit_workbook(path, cfg=cfg, p=p)
        if args.format == "json":
            sys.stdout.write(render_json(report))
        else:
            sys.stdout.write(render_text(report))
        if any(f.severity >= threshold for f in report.findings):
            worst = max(worst, 1)
    return worst


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from .metrics import DEFAULT_ERROR_RATE, compute_metrics
    from .report import metrics_table, metrics_to_dict
    from .workbook import load_workbook

    p = DEFAULT_ERROR_RATE if args.p is None else args.p
    metrics = compute_metrics(load_workbook(args.file), p=p)
    if args.format == "json":
        doc = {"workbook": args.file, **metrics_to_dict(metrics)}
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    else:
        sys.stdout.write(metrics_table(metrics) + "\n")
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    from .graph import build_graph, to_dot
    from .workbook import load_workbook

    wb = load_workbook(args.file)
    graph = build_graph(wb)
    if args.dot:
        sys.stdout.write(to_dot(graph))
    else:
        sys.stdout.write(
            f"nodes: {graph.node_count()}\n"
            f"edges: {graph.edge_count()}\n"
            f"external links: {len(graph.external_links)}\n"
        )
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from .rules import RULES, RuleConfig

    info = RULES.get(args.rule_id.upper())
    if info is None:
        sys.stderr.write(
            f"unknown rule id {args.rule_id!r}; known rules: {', '.join(sorted(RULES))}\n"
        )
        return 2
    defaults = RuleConfig()
    lines = [
        f"{info.rule_id}",
        f"  category: {info.category.value}",
        f"  severity: {info.severity.label}",
        f"  detects:  {info.summary}",
        f"  why:      {info.rationale}",
    ]
    if info.config_keys:
        lines.append("  thresholds:")
        for key in info.config_keys:
            value = getattr(defaults, key)
            if isinstance(value, frozenset):
                value = sorted(value)
            lines.append(f"    {key} (default {value})")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


# Each command's handler and the module whose import loads all it runs.
_COMMANDS = {
    "audit": (_cmd_audit, "report"),
    "metrics": (_cmd_metrics, "report"),
    "graph": (_cmd_graph, "graph"),
    "explain": (_cmd_explain, "rules"),
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command, module = _COMMANDS[args.command]
    # Imported before the collector is paused, so that the garbage importing
    # makes is still collected.
    import_module(f".{module}", __package__)
    # A one-shot process whose pipeline allocates no reference cycles
    # (pinned by tests/test_collector.py::TestNoCyclicGarbage): automatic
    # collection would only rescan the live formula cells and graph, so pause it.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return command(args)
    except SheetSentryError as exc:
        sys.stderr.write(f"sheetsentry: {exc}\n")
        return 2
    except Exception as exc:
        sys.stderr.write(f"sheetsentry: internal error: {type(exc).__name__}: {exc}\n")
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
