"""The workbook analysis and its quantitative measures.

:class:`Analysis` holds every derived fact about one workbook -- formula
ASTs, copy classes, dependency graph, staleness report, script metrics --
and builds each at most once, on first use. Metrics and rules both read
from it, so one audit parses each formula once and recomputes values only
if something asks for staleness.

The headline number is the chance that a workbook contains at least one
formula error: with an error rate ``p`` per unique formula and ``n``
unique formulas, that chance is ``1 - (1 - p)**n``. The rate applies to
unique formulas rather than formula cells because a copied formula is
written (and reviewed) once. Also computed here: conditional branch
counts, an abstract recalculation cost model, and quality ratios for
embedded script modules.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .errors import DomainError
from .evaluate import Engine, StalenessReport, staleness_report
from .formula import Binary, Call, FormulaAst, Range, Unary, parse_all_formulas, walk
from .graph import DepGraph, build_graph
from .normalize import CopyClass, copy_classes
from .workbook import CellAddress, ScriptModule, Workbook

DEFAULT_ERROR_RATE = 0.01


def error_probability(p: float, n: int) -> float:
    """Probability that at least one of ``n`` unique formulas is wrong."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DomainError(f"n must be a nonnegative integer, got {n!r}")
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p must lie in [0, 1], got {p!r}")
    return 1.0 - (1.0 - p) ** n


@dataclass(frozen=True, slots=True)
class WorkbookMetrics:
    formula_cells: int
    unique_formulae: int
    error_probability: float
    max_branching: int
    external_link_count: int
    script_lines_total: int
    cost_estimate: int

    @property
    def error_probability_pct(self) -> int:
        return round(100.0 * self.error_probability)


@dataclass(frozen=True, slots=True)
class ScriptMetrics:
    """Line counts and documentation/indentation ratios for one module."""

    name: str
    lines: int
    comment_ratio: float
    indent_ratio: float


def branch_count(ast: FormulaAst) -> int:
    """Leaf count of a formula's IF-decision tree; 0 when it has no IF.

    Every IF call adds one leaf outcome over the single unconditional
    path, so a formula with k IF calls reports k + 1 branches.
    """
    ifs = sum(1 for node in walk(ast) if isinstance(node, Call) and node.name == "IF")
    return ifs + 1 if ifs else 0


# Cost model: recalculating a cell costs 1 plus its formula's node costs.
# Aggregates charge the size of each range argument, lookups charge the
# table's row count (a linear scan), other calls charge 1 plus their
# argument count, and every operator application charges 1.
_AGGREGATES = ("SUM", "COUNT", "AVERAGE", "MIN", "MAX")


def _range_cells(rng) -> int:
    return (rng.end.col - rng.start.col + 1) * (rng.end.row - rng.start.row + 1)


def _range_rows(rng) -> int:
    return rng.end.row - rng.start.row + 1


def _node_cost(node: FormulaAst) -> int:
    if isinstance(node, Unary):
        return 1 + _node_cost(node.operand)
    if isinstance(node, Binary):
        return 1 + _node_cost(node.left) + _node_cost(node.right)
    if isinstance(node, Call):
        if node.name in _AGGREGATES:
            total = 0
            for arg in node.args:
                if isinstance(arg, Range):
                    total += _range_cells(arg.ref)
                else:
                    total += 1 + _node_cost(arg)
            return total
        if node.name == "VLOOKUP":
            total = 0
            for i, arg in enumerate(node.args):
                if i == 1 and isinstance(arg, Range):
                    total += _range_rows(arg.ref)
                elif isinstance(arg, Range):
                    total += _range_cells(arg.ref)
                else:
                    total += _node_cost(arg)
            return max(total, 1)
        return 1 + len(node.args) + sum(_node_cost(a) for a in node.args)
    return 0


def formula_cost(ast: FormulaAst) -> int:
    """Modeled recalculation cost of one formula cell (always >= 1).

    A workbook's total is :attr:`WorkbookMetrics.cost_estimate`.
    """
    return 1 + _node_cost(ast)


_COMMENT_RE = re.compile(r"\s*(?:'|rem\b)", re.IGNORECASE)
_OPENER_RE = re.compile(
    r"\s*(?:sub|function|property|if\b.*\bthen\s*$|for|do|while|select|with)\b",
    re.IGNORECASE,
)
_CLOSER_RE = re.compile(
    r"\s*(?:end\s+(?:sub|function|property|if|select|with)|next\b|loop\b|wend\b)",
    re.IGNORECASE,
)
_NEUTRAL_RE = re.compile(r"\s*(?:else\b|elseif\b|case\b)", re.IGNORECASE)


def _module_metrics(module: ScriptModule) -> ScriptMetrics:
    lines = module.source.splitlines()
    nonblank = 0
    comments = 0
    body_lines = 0
    indented = 0
    depth = 0
    for line in lines:
        stripped = line.strip()
        if not stripped:
            continue
        nonblank += 1
        if _COMMENT_RE.match(line):
            comments += 1
        closes = _CLOSER_RE.match(line) is not None
        neutral = _NEUTRAL_RE.match(line) is not None
        if closes:
            depth = max(depth - 1, 0)
        effective_depth = depth - 1 if neutral else depth
        if not closes and effective_depth > 0:
            body_lines += 1
            if line[:1] in (" ", "\t"):
                indented += 1
        if not closes and not _COMMENT_RE.match(line) and _OPENER_RE.match(line):
            depth += 1
    comment_ratio = comments / nonblank if nonblank else 1.0
    indent_ratio = indented / body_lines if body_lines else 1.0
    return ScriptMetrics(
        name=module.name,
        lines=len(lines),
        comment_ratio=comment_ratio,
        indent_ratio=indent_ratio,
    )


def script_metrics(scripts: list[ScriptModule]) -> list[ScriptMetrics]:
    """Per-module line counts and quality ratios.

    A comment line starts with optional whitespace then ``'`` or ``REM``.
    Indentation is measured on lines inside block constructs (Sub,
    Function, Property, multiline If, For, Do, While, Select, With and
    their matching closers; see ``docs/rules.md`` for the keyword list).
    Empty modules report both ratios as 1.0.
    """
    return [_module_metrics(module) for module in scripts]


class Analysis:
    """Everything derived from one workbook, each part built once, on first use."""

    def __init__(self, wb: Workbook) -> None:
        self.wb = wb

    @cached_property
    def asts(self) -> dict[CellAddress, FormulaAst]:
        return parse_all_formulas(self.wb)

    @cached_property
    def classes(self) -> list[CopyClass]:
        return copy_classes(self.wb, self.asts)

    @cached_property
    def graph(self) -> DepGraph:
        return build_graph(self.wb, self.asts)

    @cached_property
    def staleness(self) -> StalenessReport:
        return staleness_report(self.wb, Engine(self.wb, graph=self.graph, asts=self.asts))

    @cached_property
    def scripts(self) -> list[ScriptMetrics]:
        return script_metrics(self.wb.scripts)


def compute_metrics(
    source: Workbook | Analysis, p: float = DEFAULT_ERROR_RATE
) -> WorkbookMetrics:
    """All workbook metrics; never recomputes cell values."""
    a = source if isinstance(source, Analysis) else Analysis(source)
    n = len(a.classes)
    return WorkbookMetrics(
        formula_cells=len(a.asts),
        unique_formulae=n,
        error_probability=error_probability(p, n),
        # copies share their normalized text, hence their IF calls
        max_branching=max(
            (branch_count(a.asts[c.representative]) for c in a.classes), default=0
        ),
        external_link_count=len(a.graph.external_links),
        script_lines_total=sum(s.lines for s in a.scripts),
        cost_estimate=sum(map(formula_cost, a.asts.values())),
    )
