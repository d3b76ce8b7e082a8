"""The former slow paths of copy classes and of the per-class rules.

:func:`normalize` renders one AST in origin-relative form, walking it as
the package did before it rendered class texts from the template.
:func:`copy_classes` groups each template's cells by their values taken
relative to the cell, fills one AST per group and renders its text with
:func:`normalize`, merges groups of equal text and sorts members and
classes. :func:`branch_count` and :func:`formula_cost` walk one AST, and
the ``check_*`` functions and the two metrics below walk the
representative's filled AST, as the rules did before they read
per-template facts. The tests compare the package's results with these.
"""

from __future__ import annotations

import math

from sheetsentry.formula import (
    Call,
    FormulaAst,
    Formulas,
    NumberLit,
    Range,
    Ref,
    Reference,
    Template,
    Unary,
    number_literal,
    parse_all_formulas,
    render_pieces,
    walk,
)
from sheetsentry.metrics import _node_cost, _size
from sheetsentry.normalize import CopyClass, _qualifier, _qualifier_of, _relative_values
from sheetsentry.rules import Finding, RuleConfig, _finding
from sheetsentry.workbook import CellAddress, Workbook


def _axis(letter: str, absolute: bool, value: int, origin: int) -> str:
    if absolute:
        return f"{letter}{value}"
    delta = value - origin
    return letter if delta == 0 else f"{letter}[{delta}]"


def _r1c1_cell(ref: Reference, origin: CellAddress) -> str:
    if ref.external is not None:
        return f"R{ref.row}C{ref.col}"
    return _axis("R", ref.abs_row, ref.row, origin.row) + _axis(
        "C", ref.abs_col, ref.col, origin.col
    )


def _render(ast: FormulaAst, origin: CellAddress, qualifier) -> str:
    def leaf(node: NumberLit | Ref | Range) -> str:
        if isinstance(node, NumberLit):
            return number_literal(node.value)
        if isinstance(node, Ref):
            return qualifier(node.ref) + _r1c1_cell(node.ref, origin)
        start, end = node.ref.start, node.ref.end
        return f"{qualifier(start)}{_r1c1_cell(start, origin)}:{_r1c1_cell(end, origin)}"

    pieces: list = []
    render_pieces(ast, leaf, pieces)
    return "".join(pieces)


def normalize(ast: FormulaAst, origin: CellAddress) -> str:
    """A formula in origin-relative form; the origin is the address of the
    cell that holds it. Range corners render in the order the AST holds them."""
    return _render(ast, origin, _qualifier)


def _identity(ast: FormulaAst, origin: CellAddress) -> str:
    """The normalized text with qualifiers casefolded, as the workbook
    matches sheet names: two formulas are copies when these agree."""
    return _render(ast, origin, lambda ref: _qualifier(ref, str.casefold))


def branch_count(ast: FormulaAst) -> int:
    """Leaf count of a formula's IF-decision tree; 0 when it has no IF."""
    ifs = sum(1 for node in walk(ast) if isinstance(node, Call) and node.name == "IF")
    return ifs + 1 if ifs else 0


def formula_cost(ast: FormulaAst) -> int:
    """Modeled recalculation cost of one formula, its range sizes read from the AST."""
    ranges: list[tuple[Range, bool]] = []
    base = 1 + _node_cost(ast, ranges)
    return base + sum(
        _size(rng.ref.start.col, rng.ref.start.row, rng.ref.end.col, rng.ref.end.row, rows_only)
        for rng, rows_only in ranges
    )


def copy_classes(wb: Workbook, asts: Formulas | None = None) -> list[CopyClass]:
    """Copy classes from one filled AST and one rendered text per group of
    a template's cells whose values agree relative to their origins."""
    if asts is None:
        asts = parse_all_formulas(wb)
    cells = asts.cells
    by_template: dict[Template, list[CellAddress]] = {}
    for addr, cell in cells.items():
        by_template.setdefault(cell[0], []).append(addr)
    groups: list[list[CellAddress]] = []
    for template, addrs in by_template.items():
        cols, rows, mixed = _relative_values(template)
        keyed: dict[tuple, list[CellAddress]] = {}
        for addr in addrs:
            cell = cells[addr]
            key = list(cell)
            for i in cols:
                key[i] -= addr.col
            for i in rows:
                key[i] -= addr.row
            for i, j in mixed:
                key.append(cell[i] > cell[j])
            keyed.setdefault(tuple(key), []).append(addr)
        groups += keyed.values()
    # per identity: the text of the group with the first member, that
    # member, and every member
    classes: dict[str, tuple[str, CellAddress, list[CellAddress]]] = {}
    for members in groups:
        first = members[0]
        ast = asts[first]
        text = normalize(ast, first)
        identity = text  # unless a sheet or workbook name needs casefolding
        for node in cells[first][0].refs:
            qual = _qualifier_of(node)
            if qual.sheet is not None or qual.external is not None:
                identity = _identity(ast, first)
                break
        found = classes.get(identity)
        if found is None:
            classes[identity] = (text, first, members)
            continue
        if wb.address_sort_key(first) < wb.address_sort_key(found[1]):
            classes[identity] = (text, first, found[2])
        found[2].extend(members)
    for _, _, members in classes.values():
        members.sort(key=wb.address_sort_key)
    result = [CopyClass(text, tuple(members)) for text, _, members in classes.values()]
    result.sort(key=lambda c: wb.address_sort_key(c.members[0]))
    return result


def _literal_values(ast: FormulaAst) -> list[float]:
    out = []
    skip: set[int] = set()
    for node in walk(ast):
        if id(node) in skip:
            continue
        if isinstance(node, Unary) and node.op == "-" and isinstance(node.operand, NumberLit):
            out.append(-node.operand.value)
            skip.add(id(node.operand))
        elif isinstance(node, NumberLit):
            out.append(node.value)
    return [value for value in out if math.isfinite(value)]


def check_hardcoded_constant(
    classes: list[CopyClass], cfg: RuleConfig, asts: Formulas
) -> list[Finding]:
    appearances: dict[float, list[CellAddress]] = {}
    for cls in classes:
        for value in sorted({value + 0.0 for value in _literal_values(asts[cls.representative])}):
            appearances.setdefault(value, []).append(cls.representative)
    findings = []
    for value in sorted(appearances):
        reps = appearances[value]
        if value in cfg.const_whitelist or len(reps) < cfg.const_min_repeats:
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


def check_deep_nesting(
    classes: list[CopyClass], cfg: RuleConfig, asts: Formulas
) -> list[Finding]:
    findings = []
    for cls in classes:
        branches = branch_count(asts[cls.representative])
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


def check_lookup_hotspots(
    classes: list[CopyClass], cfg: RuleConfig, asts: Formulas
) -> list[Finding]:
    findings = []
    for cls in classes:
        ast = asts[cls.representative]
        lookups = sum(
            1 for node in walk(ast) if isinstance(node, Call) and node.name == "VLOOKUP"
        )
        if not lookups:
            continue
        cost = formula_cost(ast)
        if cost <= cfg.lookup_cost_threshold:
            continue
        findings.append(
            _finding(
                "LOOKUP_HOTSPOT",
                (cls.representative,),
                f"lookup formula costs {cost} units to recalculate "
                f"(threshold {cfg.lookup_cost_threshold}); consider a direct "
                "reference or a smaller table",
                (("cost", cost), ("lookup_count", lookups), ("class_size", len(cls.members))),
            )
        )
    return findings


def max_branching(classes: list[CopyClass], asts: Formulas) -> int:
    return max((branch_count(asts[c.representative]) for c in classes), default=0)


def cost_estimate(asts: Formulas) -> int:
    return sum(formula_cost(ast) for ast in asts.values())
