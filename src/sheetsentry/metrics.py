"""The workbook analysis and its quantitative measures.

:class:`Analysis` holds every derived fact about one workbook -- formula
cells, copy classes, dependency graph, staleness report, script metrics --
and builds each at most once, on first use. Metrics and rules both read
from it, so one audit parses each formula once and recomputes values only
if something asks for staleness. A formula cell is held as its shape's
template plus its hole values, and an audit fills no AST: what the rules
and metrics read of a formula -- its literals, IF and VLOOKUP calls and
cost -- is found once per template (:class:`ShapeFacts`) and read with a
cell's values.

The headline number is the chance that a workbook contains at least one
formula error: with an error rate ``p`` per unique formula and ``n``
unique formulas, that chance is ``1 - (1 - p)**n``. The rate applies to
unique formulas rather than formula cells because a copied formula is
written (and reviewed) once. Also computed here: conditional branch
counts, an abstract recalculation cost model, and quality ratios for
embedded script modules.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property

from .errors import DomainError
from .evaluate import Engine, StalenessReport, staleness_report
from .formula import (
    Binary,
    Call,
    FormulaAst,
    Formulas,
    NumberLit,
    Range,
    Template,
    Unary,
    parse_all_formulas,
    walk,
)
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


# Cost model: recalculating a cell costs 1 plus its formula's node costs.
# Aggregates charge the size of each range argument, lookups charge the
# table's row count (a linear scan), other calls charge 1 plus their
# argument count, and every operator application charges 1. The range
# sizes are the only part that differs between cells of one template.
_AGGREGATES = ("SUM", "COUNT", "AVERAGE", "MIN", "MAX")


def _node_cost(node: FormulaAst, ranges: list[tuple[Range, bool]]) -> int:
    """The cost of ``node`` but for the range sizes it charges, which are
    appended to ``ranges`` as (range leaf, charged by rows only)."""
    if isinstance(node, Unary):
        return 1 + _node_cost(node.operand, ranges)
    if isinstance(node, Binary):
        return 1 + _node_cost(node.left, ranges) + _node_cost(node.right, ranges)
    if isinstance(node, Call):
        if node.name in _AGGREGATES:
            total = 0
            for arg in node.args:
                if isinstance(arg, Range):
                    ranges.append((arg, False))
                else:
                    total += 1 + _node_cost(arg, ranges)
            return total
        if node.name == "VLOOKUP":
            total = 0
            charged = False
            for i, arg in enumerate(node.args):
                if isinstance(arg, Range):
                    ranges.append((arg, i == 1))
                    charged = True
                else:
                    total += _node_cost(arg, ranges)
            # a range charges at least 1, so only a lookup without one needs the floor
            return total if charged else max(total, 1)
        return 1 + len(node.args) + sum(_node_cost(a, ranges) for a in node.args)
    return 0


def _size(c1: int, r1: int, c2: int, r2: int, rows_only: bool) -> int:
    rows = abs(r2 - r1) + 1
    return rows if rows_only else rows * (abs(c2 - c1) + 1)


@dataclass(frozen=True, slots=True)
class ShapeFacts:
    """What the rules and metrics read of one template, found once.

    ``numbers`` lists the number leaves the rules count as literals, as
    (cell index, negated): a ``-`` directly over a number makes one
    negative literal. ``ifs`` and ``lookups`` count the IF and VLOOKUP
    calls. ``base`` is the cost of a cell but for its range sizes, and
    ``ranges`` lists each charged range as (index of its first value,
    charged by rows only). A formula cell of the template supplies the
    values.
    """

    numbers: tuple[tuple[int, bool], ...]
    ifs: int
    lookups: int
    base: int
    ranges: tuple[tuple[int, bool], ...]

    @property
    def branches(self) -> int:
        """Leaves of the IF-decision tree of each cell of the template: each IF
        adds one outcome to the unconditional path, so k IFs make k + 1; 0 without."""
        return self.ifs + 1 if self.ifs else 0

    def cost(self, cell: tuple) -> int:
        """The modeled recalculation cost of formula cell ``cell``."""
        return self.base + sum(_size(*cell[at:at + 4], rows_only) for at, rows_only in self.ranges)

    def literals(self, cell: tuple) -> list[float]:
        """The finite numeric literals of formula cell ``cell``, in source order."""
        values = [-cell[at] if negated else cell[at] for at, negated in self.numbers]
        # 1e999 overflows to inf, which no JSON number can carry into evidence
        return [value for value in values if math.isfinite(value)]


def shape_facts(template: Template) -> ShapeFacts:
    """The :class:`ShapeFacts` of ``template``."""
    numbers = []
    negated: set[int] = set()  # the number leaves under a "-"
    ifs = lookups = 0
    for node in walk(template.ast):
        kind = type(node)
        if kind is NumberLit:
            numbers.append((template.slots[id(node)][0], id(node) in negated))
        elif kind is Unary and node.op == "-" and type(node.operand) is NumberLit:
            negated.add(id(node.operand))
        elif kind is Call:
            ifs += node.name == "IF"
            lookups += node.name == "VLOOKUP"
    ranges: list[tuple[Range, bool]] = []
    base = 1 + _node_cost(template.ast, ranges)
    return ShapeFacts(
        tuple(numbers),
        ifs,
        lookups,
        base,
        tuple((template.slots[id(rng)][0], rows_only) for rng, rows_only in ranges),
    )


def formula_cost(ast: FormulaAst) -> int:
    """Modeled recalculation cost of one formula cell (always >= 1).

    A workbook's total is :attr:`WorkbookMetrics.cost_estimate`.
    """
    template = Template(ast)
    return shape_facts(template).cost((template, *template.own))


def _total_cost(cells: dict[CellAddress, tuple], shapes: dict[Template, ShapeFacts]) -> int:
    """The summed :func:`formula_cost` of formula cells ``cells``."""
    total = 0
    for cell in cells.values():
        facts = shapes[cell[0]]
        total += facts.cost(cell) if facts.ranges else facts.base
    return total


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
    def asts(self) -> Formulas:
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

    @cached_property
    def shapes(self) -> dict[Template, ShapeFacts]:
        """The :class:`ShapeFacts` of each template, found on its first lookup."""
        return _ShapeTable()


class _ShapeTable(dict):
    def __missing__(self, template: Template) -> ShapeFacts:
        facts = self[template] = shape_facts(template)
        return facts


def compute_metrics(
    source: Workbook | Analysis, p: float = DEFAULT_ERROR_RATE
) -> WorkbookMetrics:
    """All workbook metrics; never recomputes cell values."""
    a = source if isinstance(source, Analysis) else Analysis(source)
    n = len(a.classes)
    cells, shapes = a.asts.cells, a.shapes
    return WorkbookMetrics(
        formula_cells=len(cells),
        unique_formulae=n,
        error_probability=error_probability(p, n),
        # copies share their normalized text, hence their IF calls, and
        # the cells of one template share its IF calls
        max_branching=max(
            (shapes[t].branches for t in {cells[c.representative][0] for c in a.classes}),
            default=0,
        ),
        external_link_count=len(a.graph.external_links),
        script_lines_total=sum(s.lines for s in a.scripts),
        cost_estimate=_total_cost(cells, shapes),
    )
