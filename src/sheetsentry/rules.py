"""Configurable audit rules and the engine that runs them.

Each rule inspects one facet of workbook quality and emits findings in a
fixed category: missing specification, external links that break
auditability, stale cached values, literal values punched into copied
formula runs, repeated magic constants, deeply nested conditionals,
overlong formulas, undocumented or unindented script modules, manual
recalculation mode, and expensive lookup formulas. Thresholds live in
:class:`RuleConfig`; the catalog with per-rule rationale is in
``docs/rules.md``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any

from .errors import FormatError
from .formula import tokenize
from .workbook import CalcMode, CellAddress, read_json

if TYPE_CHECKING:  # annotations only: `explain` reads the rules without the pipeline
    from .evaluate import StalenessReport
    from .graph import DepGraph
    from .metrics import Analysis, ScriptMetrics
    from .normalize import CopyClass
    from .workbook import Manifest, Workbook, WorkbookSettings


class Severity(enum.IntEnum):
    INFO = 0
    WARNING = 1
    ERROR = 2

    @property
    def label(self) -> str:
        return self.name.lower()

    @staticmethod
    def from_label(label: str) -> "Severity":
        return Severity[label.upper()]


class Category(enum.Enum):
    CORRECTNESS = "correctness"
    SPECIFICATION = "specification"
    AUDITABILITY = "auditability"
    USABILITY = "usability"
    MAINTAINABILITY = "maintainability"
    PERFORMANCE = "performance"


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule hit: what, where, how bad, and the supporting evidence."""

    rule_id: str
    severity: Severity
    category: Category
    locations: tuple[CellAddress, ...]
    message: str
    evidence: tuple[tuple[str, Any], ...] = ()

    def evidence_dict(self) -> dict[str, Any]:
        return dict(self.evidence)


@dataclass(frozen=True, slots=True)
class RuleInfo:
    rule_id: str
    category: Category
    severity: Severity
    summary: str
    rationale: str
    config_keys: tuple[str, ...] = ()


RULES: dict[str, RuleInfo] = {
    info.rule_id: info
    for info in [
        RuleInfo(
            "SPEC_MISSING",
            Category.SPECIFICATION,
            Severity.WARNING,
            "workbook manifest does not say what the workbook computes",
            "A reviewer cannot judge whether results are right without a "
            "statement of what they are supposed to be.",
        ),
        RuleInfo(
            "STALE_VALUE",
            Category.CORRECTNESS,
            Severity.ERROR,
            "cached cell value differs from the value recomputed from inputs",
            "A saved result that no longer follows from the inputs means the "
            "file was saved in an inconsistent state.",
        ),
        RuleInfo(
            "EXTERNAL_LINK",
            Category.AUDITABILITY,
            Severity.WARNING,
            "formulas pull data from another workbook",
            "Values imported from outside the file cannot be verified from "
            "the file alone.",
            (),
        ),
        RuleInfo(
            "UNDOCUMENTED_IMPORT",
            Category.SPECIFICATION,
            Severity.INFO,
            "an external workbook is referenced but not recorded in manifest assumptions",
            "Without a recorded assumption there is no trace of where the "
            "imported numbers came from.",
        ),
        RuleInfo(
            "COPY_CLASS_HOLE",
            Category.USABILITY,
            Severity.ERROR,
            "a literal value interrupts a contiguous run of copied formulas",
            "The classic overwrite accident: a number pasted over one copy "
            "of a formula.",
            ("min_copy_class_for_hole",),
        ),
        RuleInfo(
            "HARDCODED_CONSTANT",
            Category.MAINTAINABILITY,
            Severity.WARNING,
            "the same numeric literal recurs across many distinct formulas",
            "Changing the number later means hunting through every formula "
            "that might derive from it.",
            ("const_min_repeats", "const_whitelist"),
        ),
        RuleInfo(
            "DEEP_NESTING",
            Category.MAINTAINABILITY,
            Severity.WARNING,
            "a formula has too many conditional branches",
            "Heavily nested IFs are hard to understand and harder to change "
            "safely.",
            ("max_branches",),
        ),
        RuleInfo(
            "LONG_FORMULA",
            Category.MAINTAINABILITY,
            Severity.INFO,
            "a formula is longer than the configured token budget",
            "Long formulas hide mistakes; splitting them into steps makes "
            "them checkable.",
            ("max_formula_tokens",),
        ),
        RuleInfo(
            "SCRIPT_QUALITY",
            Category.MAINTAINABILITY,
            Severity.WARNING,
            "a large script module is undocumented or unindented",
            "Uncommented, unindented procedural code is unlikely to survive "
            "maintenance without new errors.",
            ("script_min_lines", "script_min_comment_ratio", "script_min_indent_ratio"),
        ),
        RuleInfo(
            "MANUAL_CALC",
            Category.PERFORMANCE,
            Severity.WARNING,
            "the workbook is set to manual recalculation",
            "Manual mode makes it easy to read results that no longer "
            "reflect the inputs; the setting leaks into every open workbook.",
        ),
        RuleInfo(
            "LOOKUP_HOTSPOT",
            Category.PERFORMANCE,
            Severity.WARNING,
            "a lookup-heavy formula dominates modeled recalculation cost",
            "Linear-scan lookups over large tables slow recalculation, which "
            "discourages testing and invites manual-calc mode.",
            ("lookup_cost_threshold",),
        ),
    ]
}

DEFAULT_WHITELIST = (0.0, 1.0, -1.0, 100.0)


@dataclass(frozen=True, slots=True)
class RuleConfig:
    """Which rules run and with what thresholds."""

    enabled: frozenset[str] = frozenset(RULES)
    const_min_repeats: int = 3
    const_whitelist: frozenset[float] = frozenset(DEFAULT_WHITELIST)
    max_branches: int = 4
    max_formula_tokens: int = 40
    min_copy_class_for_hole: int = 5
    lookup_cost_threshold: int = 1000
    script_min_lines: int = 100
    script_min_comment_ratio: float = 0.05
    script_min_indent_ratio: float = 0.5

    def __post_init__(self) -> None:
        for key in (
            "const_min_repeats",
            "max_branches",
            "max_formula_tokens",
            "min_copy_class_for_hole",
            "lookup_cost_threshold",
            "script_min_lines",
        ):
            value = getattr(self, key)
            if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
                raise FormatError(f"$.{key}", f"must be a positive integer, got {value!r}")
        for key in ("script_min_comment_ratio", "script_min_indent_ratio"):
            value = getattr(self, key)
            if type(value) not in (int, float) or not 0.0 < value <= 1.0:  # bool excluded
                raise FormatError(f"$.{key}", f"must lie in (0, 1], got {value!r}")
        unknown = set(self.enabled) - set(RULES)
        if unknown:
            raise FormatError("$.enabled", f"unknown rule id {sorted(unknown)[0]!r}")

    @staticmethod
    def from_dict(doc: Any) -> "RuleConfig":
        if not isinstance(doc, dict):
            raise FormatError("$", "rule config must be a JSON object")
        known = {f.name for f in fields(RuleConfig)}
        unknown = set(doc) - known
        if unknown:
            raise FormatError("$", f"unknown key {sorted(unknown)[0]!r}")
        kwargs: dict[str, Any] = {}
        for key, value in doc.items():
            if key == "enabled":
                if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                    raise FormatError("$.enabled", "must be an array of rule ids")
                kwargs[key] = frozenset(value)
            elif key == "const_whitelist":
                if not isinstance(value, list) or not all(
                    isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
                ):
                    raise FormatError("$.const_whitelist", "must be an array of numbers")
                try:
                    kwargs[key] = frozenset(float(v) for v in value)
                except OverflowError:
                    raise FormatError("$.const_whitelist", "numbers must fit a float") from None
            else:
                kwargs[key] = value
        return RuleConfig(**kwargs)

    @staticmethod
    def from_file(path: str) -> "RuleConfig":
        return RuleConfig.from_dict(read_json(path, f"config {path}"))

    def to_dict(self) -> dict[str, Any]:
        """Every field in declaration order; sets become sorted lists."""
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = sorted(value) if isinstance(value, frozenset) else value
        return out


def _finding(
    rule_id: str,
    locations: tuple[CellAddress, ...],
    message: str,
    evidence: tuple[tuple[str, Any], ...] = (),
) -> Finding:
    info = RULES[rule_id]
    return Finding(
        rule_id=rule_id,
        severity=info.severity,
        category=info.category,
        locations=locations,
        message=message,
        evidence=evidence,
    )


def check_spec_presence(manifest: Manifest) -> list[Finding]:
    """Missing or empty manifest specification."""
    if manifest.specification and manifest.specification.strip():
        return []
    return [
        _finding(
            "SPEC_MISSING",
            (),
            "the manifest does not state what this workbook is meant to compute",
        )
    ]


def check_stale_values(staleness: StalenessReport) -> list[Finding]:
    """One error finding per cell whose cached value disagrees with recomputation."""
    findings = []
    for entry in staleness.entries:
        findings.append(
            _finding(
                "STALE_VALUE",
                (entry.address,),
                f"cached value {entry.cached.display()} does not match "
                f"recomputed value {entry.recomputed.display()}",
                (
                    ("cached", entry.cached.to_json()),
                    ("recomputed", entry.recomputed.to_json()),
                    ("relative_delta", entry.relative_delta),
                ),
            )
        )
    return findings


def check_external_links(g: DepGraph, manifest: Manifest, wb: Workbook) -> list[Finding]:
    """One auditability finding per external workbook, plus a specification
    note when the manifest's assumptions never mention that workbook."""
    by_book: dict[str, list[CellAddress]] = {}
    for link in g.external_links:
        by_book.setdefault(link.workbook, []).append(link.source)
    findings = []
    assumptions = manifest.assumptions_dict()
    for book in sorted(by_book, key=str.casefold):
        sources = sorted(set(by_book[book]), key=wb.address_sort_key)
        findings.append(
            _finding(
                "EXTERNAL_LINK",
                tuple(sources),
                f"{len(by_book[book])} reference(s) import data from workbook [{book}]; "
                "imported values cannot be verified from this file",
                (("workbook", book), ("reference_count", len(by_book[book]))),
            )
        )
        needle = book.casefold()
        documented = any(
            needle in key.casefold() or needle in value.casefold()
            for key, value in assumptions.items()
        )
        if not documented:
            findings.append(
                _finding(
                    "UNDOCUMENTED_IMPORT",
                    tuple(sources),
                    f"manifest assumptions do not record where data imported "
                    f"from [{book}] comes from",
                    (("workbook", book),),
                )
            )
    return findings


def check_calc_mode(settings: WorkbookSettings) -> list[Finding]:
    """Manual recalculation mode is a standing staleness risk."""
    if settings.calc_mode is not CalcMode.MANUAL:
        return []
    return [
        _finding(
            "MANUAL_CALC",
            (),
            "workbook is set to manual recalculation; results may silently "
            "lag the inputs",
        )
    ]


def check_hardcoded_constant(analysis: Analysis, cfg: RuleConfig) -> list[Finding]:
    """Numeric literals repeated across many distinct copy classes."""
    cells, shapes = analysis.asts.cells, analysis.shapes
    appearances: dict[float, list[CellAddress]] = {}
    for cls in analysis.classes:
        cell = cells[cls.representative]
        # + 0.0 turns -0.0 into 0.0, so zero keys and reports unsigned
        for value in sorted({value + 0.0 for value in shapes[cell[0]].literals(cell)}):
            appearances.setdefault(value, []).append(cls.representative)
    findings = []
    for value in sorted(appearances):
        if value in cfg.const_whitelist:
            continue
        reps = appearances[value]
        if len(reps) < cfg.const_min_repeats:
            continue
        findings.append(
            _finding(
                "HARDCODED_CONSTANT",
                tuple(reps),
                f"literal {value:g} appears in {len(reps)} distinct formulas; "
                "changing it later means editing each one",
                (("constant", value), ("count", len(reps))),
            )
        )
    return findings


def check_deep_nesting(analysis: Analysis, cfg: RuleConfig) -> list[Finding]:
    """Formulas whose conditional branch count exceeds the budget; reported
    once per copy class at its representative."""
    cells, shapes = analysis.asts.cells, analysis.shapes
    findings = []
    for cls in analysis.classes:
        branches = shapes[cells[cls.representative][0]].branches
        if branches > cfg.max_branches:
            findings.append(
                _finding(
                    "DEEP_NESTING",
                    (cls.representative,),
                    f"formula has {branches} conditional branches "
                    f"(limit {cfg.max_branches})",
                    (("branches", branches), ("class_size", len(cls.members))),
                )
            )
    return findings


def check_long_formula(
    wb: Workbook, classes: list[CopyClass], cfg: RuleConfig
) -> list[Finding]:
    """Formulas longer than the token budget; reported once per copy class."""
    findings = []
    for cls in classes:
        rep = cls.representative
        source = wb.cell(rep).formula
        # every token is at least one character, so a short text fits the budget
        if len(source) - 1 <= cfg.max_formula_tokens:
            continue
        tokens = len(tokenize(source[1:]))
        if tokens > cfg.max_formula_tokens:
            findings.append(
                _finding(
                    "LONG_FORMULA",
                    (rep,),
                    f"formula has {tokens} tokens (limit {cfg.max_formula_tokens})",
                    (("tokens", tokens), ("class_size", len(cls.members))),
                )
            )
    return findings


def check_copy_class_holes(
    wb: Workbook, classes: list[CopyClass], cfg: RuleConfig
) -> list[Finding]:
    """Literal values sitting inside a contiguous one-row or one-column run
    of copied formulas: the signature of an overwritten formula.

    A run's stored cells come from its sheet's column index, so the cost
    follows the stored cells inside the run, not its length."""
    findings = []
    for cls in classes:
        if len(cls.members) < cfg.min_copy_class_for_hole:
            continue
        sheets = {m.sheet for m in cls.members}
        if len(sheets) != 1:
            continue
        cols = {m.col for m in cls.members}
        rows = {m.row for m in cls.members}
        if len(cols) != 1 and len(rows) != 1:
            continue
        c1, r1, c2, r2 = min(cols), min(rows), max(cols), max(rows)
        if (c2 - c1 + 1) * (r2 - r1 + 1) == len(cls.members):
            continue  # no gap, no hole; and the column index need not be built
        name = next(iter(sheets))
        for column, lo, hi in wb.sheet(name).column_slices(c1, r1, c2, r2):
            for row, cell in zip(column.rows[lo:hi], column.cells[lo:hi]):
                if cell.formula is not None:
                    continue
                findings.append(
                    _finding(
                        "COPY_CLASS_HOLE",
                        (CellAddress(name, column.col, row),),
                        f"literal value {cell.cached.display()} interrupts a run of "
                        f"{len(cls.members)} copies of the same formula",
                        (
                            ("normalized_formula", cls.normalized),
                            ("class_size", len(cls.members)),
                        ),
                    )
                )
    return findings


def check_lookup_hotspots(analysis: Analysis, cfg: RuleConfig) -> list[Finding]:
    """Formulas that are both lookup-bearing and expensive under the cost
    model; reported once per copy class."""
    cells, shapes = analysis.asts.cells, analysis.shapes
    findings = []
    for cls in analysis.classes:
        cell = cells[cls.representative]
        facts = shapes[cell[0]]
        if not facts.lookups:
            continue
        cost = facts.cost(cell)
        if cost <= cfg.lookup_cost_threshold:
            continue
        findings.append(
            _finding(
                "LOOKUP_HOTSPOT",
                (cls.representative,),
                f"lookup formula costs {cost} units to recalculate "
                f"(threshold {cfg.lookup_cost_threshold}); consider a direct "
                "reference or a smaller table",
                (
                    ("cost", cost),
                    ("lookup_count", facts.lookups),
                    ("class_size", len(cls.members)),
                ),
            )
        )
    return findings


def check_script_quality(
    scripts_metrics: list[ScriptMetrics], cfg: RuleConfig
) -> list[Finding]:
    """Large script modules that are undocumented or unindented."""
    findings = []
    for sm in scripts_metrics:
        if sm.lines < cfg.script_min_lines:
            continue
        if (
            sm.comment_ratio >= cfg.script_min_comment_ratio
            and sm.indent_ratio >= cfg.script_min_indent_ratio
        ):
            continue
        findings.append(
            _finding(
                "SCRIPT_QUALITY",
                (),
                f"script module {sm.name!r} has {sm.lines} lines with "
                f"{sm.comment_ratio:.0%} comments and {sm.indent_ratio:.0%} "
                "indentation",
                (
                    ("module", sm.name),
                    ("lines", sm.lines),
                    ("comment_ratio", sm.comment_ratio),
                    ("indent_ratio", sm.indent_ratio),
                ),
            )
        )
    return findings


def run_rules(analysis: Analysis, cfg: RuleConfig) -> list[Finding]:
    """Run every enabled rule and return findings sorted by severity
    (descending), then rule id, then first location."""
    wb, classes = analysis.wb, analysis.classes

    on = cfg.enabled
    findings: list[Finding] = []
    if "SPEC_MISSING" in on:
        findings.extend(check_spec_presence(wb.manifest))
    if "STALE_VALUE" in on:
        findings.extend(check_stale_values(analysis.staleness))
    if "EXTERNAL_LINK" in on or "UNDOCUMENTED_IMPORT" in on:
        # one check emits both rules; the filter below drops a disabled one
        findings.extend(check_external_links(analysis.graph, wb.manifest, wb))
    if "MANUAL_CALC" in on:
        findings.extend(check_calc_mode(wb.settings))
    if "HARDCODED_CONSTANT" in on:
        findings.extend(check_hardcoded_constant(analysis, cfg))
    if "DEEP_NESTING" in on:
        findings.extend(check_deep_nesting(analysis, cfg))
    if "LONG_FORMULA" in on:
        findings.extend(check_long_formula(wb, classes, cfg))
    if "COPY_CLASS_HOLE" in on:
        findings.extend(check_copy_class_holes(wb, classes, cfg))
    if "LOOKUP_HOTSPOT" in on:
        findings.extend(check_lookup_hotspots(analysis, cfg))
    if "SCRIPT_QUALITY" in on:
        findings.extend(check_script_quality(analysis.scripts, cfg))

    findings = [f for f in findings if f.rule_id in on]

    def sort_key(f: Finding):
        loc = (1,) + wb.address_sort_key(f.locations[0]) if f.locations else (0,)
        return (-int(f.severity), f.rule_id, loc)

    findings.sort(key=sort_key)
    return findings
