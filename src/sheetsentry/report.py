"""Audit pipeline and report rendering (text and canonical JSON).

``audit_workbook`` runs the full pipeline -- parse, copy classes,
dependency graph, recomputation, metrics, rules -- and returns an
:class:`AuditReport`. JSON rendering is canonical: fixed key order,
floats limited to 15 significant digits, byte-identical across runs, and
round-trippable via :func:`report_from_json`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any

from .evaluate import StalenessEntry
from .graph import ExternalLink
from .metrics import DEFAULT_ERROR_RATE, Analysis, WorkbookMetrics, compute_metrics
from .rules import Category, Finding, RuleConfig, Severity, run_rules
from .version import VERSION
from .workbook import (
    BLANK,
    CellAddress,
    CellValue,
    Workbook,
    _value_from_json,
    load_workbook,
    parse_address,
)

CATEGORY_ORDER = [
    Category.SPECIFICATION,
    Category.CORRECTNESS,
    Category.AUDITABILITY,
    Category.USABILITY,
    Category.MAINTAINABILITY,
    Category.PERFORMANCE,
]


@dataclass(frozen=True, slots=True)
class AuditReport:
    """Everything one audit run produced, ready to render."""

    workbook: str
    error_rate_p: float
    metrics: WorkbookMetrics
    findings: tuple[Finding, ...]
    stale_entries: tuple[StalenessEntry, ...]
    external_exclusions: tuple[CellAddress, ...]
    external_links: tuple[ExternalLink, ...]
    config: RuleConfig
    tool_version: str = VERSION


def _round15(x: float) -> float:
    return float(f"{x:.15g}")


def _round_value(value: Any) -> Any:
    if isinstance(value, float):
        return _round15(value)
    return value


def _canonical_finding(finding: Finding) -> Finding:
    evidence = tuple((k, _round_value(v)) for k, v in finding.evidence)
    return replace(finding, evidence=evidence)


def audit_workbook(
    source: str | Workbook,
    cfg: RuleConfig | None = None,
    p: float = DEFAULT_ERROR_RATE,
) -> AuditReport:
    """Run the whole audit pipeline over a path or an in-memory workbook."""
    if isinstance(source, Workbook):
        wb = source
        path = ""
    else:
        path = source
        wb = load_workbook(path)
    if cfg is None:
        cfg = RuleConfig()

    analysis = Analysis(wb)
    metrics = compute_metrics(analysis, p=p)
    findings = run_rules(analysis, cfg)
    staleness = analysis.staleness

    stale_entries = tuple(
        StalenessEntry(
            e.address,
            e.cached,
            e.recomputed,
            _round15(e.relative_delta) if e.relative_delta is not None else None,
        )
        for e in staleness.entries
    )
    return AuditReport(
        workbook=path,
        error_rate_p=_round15(p),
        metrics=replace(metrics, error_probability=_round15(metrics.error_probability)),
        findings=tuple(_canonical_finding(f) for f in findings),
        stale_entries=stale_entries,
        external_exclusions=tuple(staleness.external_exclusions),
        external_links=tuple(analysis.graph.external_links),
        config=cfg,
    )


# --- JSON ------------------------------------------------------------------


def _address_to_json(addr: CellAddress) -> dict[str, str]:
    return {"sheet": addr.sheet, "cell": addr.a1()}


def _address_from_json(doc: dict) -> CellAddress:
    col, row, _, _ = parse_address(doc["cell"])
    return CellAddress(doc["sheet"], col, row)


def _stale_value_from_json(entry: dict, key: str, i: int) -> CellValue:
    """A stale entry's cached or recomputed value; ``null`` is a blank."""
    value = entry[key]
    return BLANK if value is None else _value_from_json(value, f"$.staleness.entries[{i}].{key}")


def metrics_to_dict(m: WorkbookMetrics) -> dict[str, Any]:
    """Plain-data form of the metrics, in canonical key order."""
    return {
        "formula_cells": m.formula_cells,
        "unique_formulae": m.unique_formulae,
        "error_probability": m.error_probability,
        "error_probability_pct": m.error_probability_pct,
        "max_branching": m.max_branching,
        "external_link_count": m.external_link_count,
        "script_lines_total": m.script_lines_total,
        "cost_estimate": m.cost_estimate,
    }


def report_to_dict(report: AuditReport) -> dict[str, Any]:
    """Plain-data form of a report, in canonical key order."""
    return {
        "workbook": report.workbook,
        "tool_version": report.tool_version,
        "error_rate_p": report.error_rate_p,
        "metrics": metrics_to_dict(report.metrics),
        "findings": [
            {
                "rule_id": f.rule_id,
                "severity": f.severity.label,
                "category": f.category.value,
                "locations": [_address_to_json(a) for a in f.locations],
                "message": f.message,
                "evidence": {k: v for k, v in f.evidence},
            }
            for f in report.findings
        ],
        "staleness": {
            "stale_count": len(report.stale_entries),
            "entries": [
                {
                    "location": _address_to_json(e.address),
                    "cached": e.cached.to_json(),
                    "recomputed": e.recomputed.to_json(),
                    "relative_delta": e.relative_delta,
                }
                for e in report.stale_entries
            ],
            "external_exclusions": [
                _address_to_json(a) for a in report.external_exclusions
            ],
        },
        "external_links": [
            {
                "source": _address_to_json(link.source),
                "workbook": link.workbook,
                "sheet": link.sheet,
                "target": link.target,
            }
            for link in report.external_links
        ],
        "config": report.config.to_dict(),
    }


def render_json(report: AuditReport) -> str:
    """Canonical JSON text: stable key order, byte-identical across runs."""
    return json.dumps(report_to_dict(report), indent=2, ensure_ascii=False) + "\n"


def report_from_dict(doc: dict[str, Any]) -> AuditReport:
    """Rebuild an :class:`AuditReport` from :func:`report_to_dict` output."""
    m = doc["metrics"]
    metrics = WorkbookMetrics(
        formula_cells=m["formula_cells"],
        unique_formulae=m["unique_formulae"],
        error_probability=m["error_probability"],
        max_branching=m["max_branching"],
        external_link_count=m["external_link_count"],
        script_lines_total=m["script_lines_total"],
        cost_estimate=m["cost_estimate"],
    )
    findings = tuple(
        Finding(
            rule_id=f["rule_id"],
            severity=Severity.from_label(f["severity"]),
            category=Category(f["category"]),
            locations=tuple(_address_from_json(a) for a in f["locations"]),
            message=f["message"],
            evidence=tuple(f["evidence"].items()),
        )
        for f in doc["findings"]
    )
    staleness = doc["staleness"]
    entries = tuple(
        StalenessEntry(
            address=_address_from_json(e["location"]),
            cached=_stale_value_from_json(e, "cached", i),
            recomputed=_stale_value_from_json(e, "recomputed", i),
            relative_delta=e["relative_delta"],
        )
        for i, e in enumerate(staleness["entries"])
    )
    links = tuple(
        ExternalLink(
            source=_address_from_json(entry["source"]),
            workbook=entry["workbook"],
            sheet=entry["sheet"],
            target=entry["target"],
        )
        for entry in doc["external_links"]
    )
    return AuditReport(
        workbook=doc["workbook"],
        error_rate_p=doc["error_rate_p"],
        metrics=metrics,
        findings=findings,
        stale_entries=entries,
        external_exclusions=tuple(
            _address_from_json(a) for a in staleness["external_exclusions"]
        ),
        external_links=links,
        config=RuleConfig.from_dict(doc["config"]),
        tool_version=doc["tool_version"],
    )


def report_from_json(text: str) -> AuditReport:
    return report_from_dict(json.loads(text))


# --- text ------------------------------------------------------------------


def metrics_table(m: WorkbookMetrics) -> str:
    """The two-line headline table: formula cells, unique formulae, error probability."""
    header = f"{'Formula cells':>15}  {'Unique formulae':>16}  {'Error probability':>18}"
    row = f"{m.formula_cells:>15,}  {m.unique_formulae:>16,}  {f'{m.error_probability_pct}%':>18}"
    return f"{header}\n{row}"


def render_text(report: AuditReport) -> str:
    """Human-readable report: metrics summary, then findings by category."""
    lines: list[str] = []
    title = f"Workbook audit: {report.workbook or '(in-memory workbook)'}"
    lines.append(title)
    lines.append("=" * len(title))
    lines.append("")

    m = report.metrics
    lines.append(metrics_table(m))
    lines.append("")
    lines.append(f"error rate per unique formula (p): {report.error_rate_p:g}")
    lines.append(f"max conditional branches:          {m.max_branching}")
    lines.append(f"external links:                    {m.external_link_count}")
    lines.append(f"script lines:                      {m.script_lines_total}")
    lines.append(f"recalculation cost units:          {m.cost_estimate}")
    stale_note = f"stale cells:                       {len(report.stale_entries)}"
    if report.external_exclusions:
        stale_note += f" ({len(report.external_exclusions)} unverifiable external)"
    lines.append(stale_note)
    lines.append("")

    if not report.findings:
        lines.append("No findings.")
        return "\n".join(lines) + "\n"

    lines.append(f"Findings ({len(report.findings)})")
    lines.append("-" * len(lines[-1]))
    for category in CATEGORY_ORDER:
        group = [f for f in report.findings if f.category is category]
        if not group:
            continue
        lines.append(f"{category.value}:")
        for f in group:
            where = ", ".join(a.qualified() for a in f.locations) or "workbook"
            lines.append(f"  [{f.severity.label}] {f.rule_id} at {where}")
            lines.append(f"      {f.message}")
        lines.append("")
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines) + "\n"

