"""Recomputation engine and stale-value detection.

Recomputes every formula cell from the workbook's literal inputs in
topological order and compares the results against the values cached in
the file. A cached value that disagrees with its recomputed value means
the file was saved in an inconsistent state (edited inputs with manual
recalculation off, overwritten results, and similar hazards).

Semantics follow mainstream spreadsheet behavior: blanks act as zero in
arithmetic and a formula whose result is a blank cell holds 0, comparisons
order mixed types as number < text < boolean, text comparison is
case-insensitive, errors propagate through operators, and cells on a
reference cycle evaluate to ``#CIRC!``. References into
other workbooks, cells and ranges alike, cannot be resolved from a single
file and evaluate to ``#REF!``; cells whose recomputed value is that
``#REF!`` are excluded from staleness entries and reported separately.

Formulas are not interpreted node by node. Each template (see
:class:`sheetsentry.formula.Template`) compiles once per engine into a
tree of closures, and each formula cell runs its template's closures on
its own hole values; no per-cell AST is read. The tree-walking interpreter
this replaced is kept in the tests as the oracle the compiled evaluators
must agree with.

Which stored cells a reference reads is decided in one place, which the
dependency graph asks too: :meth:`Workbook.resolve` names the sheet (or
another workbook, or none; an unqualified reference reads the sheet that
holds the formula, so its evaluator reads that sheet without asking), and
:meth:`Sheet.column_slices` finds a range's
cells in the sheet's column index, built once per sheet on first use. A
range read therefore costs what it returns, not the area it covers: it
visits only the columns inside it and bisects each one's sorted rows.
``SUM``, ``AVERAGE``, ``COUNT``, ``MIN`` and ``MAX`` of a running total
(one column, absolute top row: :func:`sheetsentry.graph.running_total`)
read a prefix record kept per sheet, column and head, which reads each
cell of the column once however many totals cover it; its sums are
Shewchuk's exact partials, so each equals the ``math.fsum`` of the range.
An exact-match ``VLOOKUP`` is answered from a hash index
of its key column over the range's rows, built on first use and shared by
every lookup over the same span; it gives the same answer, error and taint
as a scan of the key column in row order. (The cost model in
:mod:`sheetsentry.metrics` still charges a lookup a linear scan, because it
models spreadsheet recalculation, not this engine.)
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache, partial
from operator import itemgetter
from typing import Callable, Iterator

from .formula import (
    Binary,
    BoolLit,
    Call,
    FormulaAst,
    Formulas,
    NumberLit,
    Range,
    RangeRef,
    Ref,
    Reference,
    Template,
    TextLit,
    Unary,
    parse_all_formulas,
)
from .graph import DepGraph, build_graph, running_total, schedule
from .workbook import (
    BLANK,
    CellAddress,
    CellValue,
    Column,
    Sheet,
    ValueKind,
    Workbook,
    format_number,
)

NUMERIC_TOLERANCE = 1e-9

_DIV0 = CellValue.error("#DIV/0!")
_REF_ERR = CellValue.error("#REF!")
_VALUE_ERR = CellValue.error("#VALUE!")
_NA = CellValue.error("#N/A")
_NAME_ERR = CellValue.error("#NAME?")
_CIRC = CellValue.error("#CIRC!")

_TRUE = CellValue.boolean(True)
_FALSE = CellValue.boolean(False)
_ERROR = ValueKind.ERROR
_NUMBER = ValueKind.NUMBER

# mixed kinds order as number < text < boolean
_KIND_RANK = {ValueKind.NUMBER: 0, ValueKind.TEXT: 1, ValueKind.BOOLEAN: 2}
# the orders (-1, 0, 1) for which each comparison operator holds
_HOLDS_FOR = {
    "=": (0,), "<>": (-1, 1), "<": (-1,), "<=": (-1, 0), ">": (1,), ">=": (0, 1),
}


@dataclass(frozen=True, slots=True)
class StalenessEntry:
    address: CellAddress
    cached: CellValue
    recomputed: CellValue
    relative_delta: float | None


@dataclass(slots=True)
class StalenessReport:
    """Cells whose cached value disagrees with recomputation.

    ``external_exclusions`` lists formula cells that could not be checked
    because their value depends on another workbook.
    """

    entries: list[StalenessEntry]
    external_exclusions: list[CellAddress]


@dataclass(slots=True)
class _LookupIndex:
    """Exact-match answers for one key column over one row span.

    Positions index the column's stored cells. ``first`` maps each value
    before ``stop`` -- by kind, text casefolded, NaN left out -- to its first
    position. ``stop`` is where a scan without a match ends: the first
    error, which is then ``error``, or the end of the span.
    ``tainted_from`` is the first position holding a tainted formula cell.
    """

    rows: list[int]
    stop: int
    error: CellValue | None = None
    first: dict[tuple[ValueKind, object], int] = field(default_factory=dict)
    first_number: int | None = None
    first_nan: int | None = None
    tainted_from: int | None = None

    def match(self, key: CellValue) -> int | None:
        """First position whose value equals ``key`` under ``=``, if any."""
        first = self.first
        kind = key.kind
        if kind is ValueKind.BLANK:
            # a blank key reads as 0, "" or FALSE, as the candidate's kind asks
            hits = (
                first.get((ValueKind.NUMBER, 0.0)),
                first.get((ValueKind.TEXT, "")),
                first.get((ValueKind.BOOLEAN, False)),
                self.first_nan,
            )
        elif kind is ValueKind.NUMBER:
            # NaN orders as equal to every number
            if math.isnan(key.value):
                hits = (self.first_number,)
            else:
                hits = (first.get((kind, key.value)), self.first_nan)
        elif kind is ValueKind.TEXT:
            hits = (first.get((kind, key.value.casefold())),)
        else:
            hits = (first.get((kind, key.value)),)
        return min((pos for pos in hits if pos is not None), default=None)


@dataclass(slots=True)
class _Prefix:
    """Running aggregates of one column's stored cells from position ``lo``
    down, as far as evaluation has asked (positions index the column's
    stored cells).

    ``runs[k]`` describes the cells ``lo .. lo + k``: the ``fsum`` of their
    numbers, how many numbers there are, and the least and greatest of
    them, the first kept among equals as ``min`` and ``max`` keep it.
    ``partials`` are Shewchuk's exact partial sums of the numbers so far,
    the algorithm of ``math.fsum``, so each sum is the ``fsum`` of the
    numbers down to it, bit for bit. ``stop`` is the first position a run
    cannot describe: the end of the column, or a number that made a partial
    NaN or infinite (a NaN or infinite input, or an overflow), from which on
    the range is read directly. ``error`` is the first error with its
    position, and ``tainted_from`` the first position holding a tainted
    formula cell.
    """

    lo: int
    stop: int
    runs: list[tuple[float, int, float, float]] = field(default_factory=list)
    partials: list[float] = field(default_factory=list)
    error: tuple[int, CellValue] | None = None
    tainted_from: int | None = None

    def extend(self, values: list[CellValue], tainted_from: int | None) -> None:
        """Describe the next ``len(values)`` positions, whose values these
        are; ``tainted_from`` is the first of them holding a tainted formula
        cell, if any."""
        if self.tainted_from is None:
            self.tainted_from = tainted_from
        runs, partials = self.runs, self.partials
        total, count, least, most = runs[-1] if runs else (0.0, 0, math.inf, -math.inf)
        for pos, val in enumerate(values, start=self.lo + len(runs)):
            kind = val.kind
            if kind is ValueKind.NUMBER:
                x = num = val.value
                i = 0
                for y in partials:  # math.fsum's loop, partials kept in place
                    if abs(x) < abs(y):
                        x, y = y, x
                    hi = x + y
                    lo = y - (hi - x)
                    if lo:
                        partials[i] = lo
                        i += 1
                    x = hi
                del partials[i:]
                if x:
                    partials.append(x)
                try:
                    if not math.isfinite(x):  # a NaN or infinite number, or an overflow
                        raise OverflowError
                    total = math.fsum(partials)
                except OverflowError:  # as fsum over the range would be
                    self.stop = pos
                    return
                count += 1
                if num < least:
                    least = num
                if num > most:
                    most = num
            elif kind is _ERROR and self.error is None:
                self.error = (pos, val)
            runs.append((total, count, least, most))

    def value(self, name: str, hi: int) -> CellValue:
        """``name`` (``SUM``, ``AVERAGE``, ``COUNT``, ``MIN`` or ``MAX``) over
        positions ``lo .. hi - 1``, all described, as a read would give it."""
        total, count, least, most = self.runs[hi - self.lo - 1]
        if name == "COUNT":
            return CellValue.number(float(count))
        if self.error is not None and self.error[0] < hi:
            return self.error[1]
        if name == "SUM":
            return _finite(total)
        if name == "AVERAGE":
            return _finite(total / count) if count else _DIV0
        if not count:
            return CellValue.number(0.0)
        return _finite(least if name == "MIN" else most)


def _in_order(cells: dict[CellAddress, tuple], linked: set, order: list) -> Iterator[tuple]:
    """``cells``' items in evaluation order: those not ``linked`` in the
    scheduling view as they come, then the formula cells of ``order``.
    A generator, so that no list of a workbook's cells is built."""
    for item in cells.items():
        if item[0] not in linked:
            yield item
    for node in order:
        cell = cells.get(node)
        if cell is not None:
            yield node, cell


class Engine:
    """Evaluates one workbook; reusable for multiple queries."""

    def __init__(
        self,
        wb: Workbook,
        graph: DepGraph | None = None,
        asts: Formulas | None = None,
    ) -> None:
        self.wb = wb
        self.asts = asts if asts is not None else parse_all_formulas(wb)
        self.graph = graph if graph is not None else build_graph(wb, self.asts)
        self.values: dict[CellAddress, CellValue] = {}
        self.tainted: set[CellAddress] = set()
        self._lookups: dict[tuple[str, int, int, int], _LookupIndex] = {}
        self._prefixes: dict[tuple[str, int, int], _Prefix] = {}
        # one evaluator per template, compiled on first use
        self._compiled: dict[Template, Evaluator] = {}
        self._current_tainted = False
        self._ran = False

    # -- orchestration

    def run(self) -> None:
        """Evaluate every formula cell, once.

        The formula cells the scheduling view (:attr:`DepGraph.compact`)
        leaves out read only inputs and go first, in reading order; then its
        cells follow in :func:`schedule`'s order. Any order that puts
        precedents first gives the same values, which the tests check by
        scheduling with the reversed key. Formula cells on a reference cycle
        get ``#CIRC!`` before anything downstream of them is evaluated.
        """
        if self._ran:
            return
        cells = self.asts.cells
        values, tainted, compiled = self.values, self.tainted, self._compiled
        sheets = {sheet.name: sheet for sheet in self.wb.sheets}
        order, in_cycle = schedule(self.graph.compact)
        for node in in_cycle:
            if node in cells:
                values[node] = _CIRC
        linked = in_cycle.union(order)
        work = _in_order(cells, linked, order) if linked else cells.items()
        name = sheet = None
        for node, cell in work:
            if node.sheet != name:  # cells come sheet by sheet, mostly
                name = node.sheet
                sheet = sheets[name]
            evaluator = compiled.get(cell[0])
            if evaluator is None:
                evaluator = compiled[cell[0]] = self._compile(cell[0])
            self._current_tainted = False
            val = evaluator(self, cell, sheet)
            if val.kind is _NUMBER:
                if val.value - val.value != 0.0:
                    # a NaN or infinite input, which only a Workbook built in
                    # memory can hold, read through a reference unchanged
                    val = _VALUE_ERR
            elif val.kind is ValueKind.BLANK:  # as a spreadsheet caches it
                val = _blank_as(_NUMBER)
            values[node] = val
            if self._current_tainted:
                tainted.add(node)
        self._ran = True

    def _compile(self, template: Template) -> Evaluator:
        """The evaluator of a template's cells (see :class:`Template`),
        called with the engine, the cell and the sheet that holds it."""
        return compile_template(template)

    # -- cell/range resolution

    def _sheet(self, ref: Reference | RangeRef, origin_sheet: str) -> Sheet | None:
        """The stored sheet a reference reads, or ``None`` where it reads
        ``#REF!``: a missing sheet, or another workbook, which also taints."""
        found = self.wb.resolve(ref, origin_sheet)
        if isinstance(found, str):
            self._current_tainted = True
            return None
        return found

    def _cell_value(self, sheet: Sheet, col: int, row: int) -> CellValue:
        cell = sheet.cells.get((col, row))
        if cell is None:
            return BLANK
        if cell.formula is None:
            return cell.cached
        addr = CellAddress(sheet.name, col, row)
        got = self.values.get(addr)
        if got is None:
            # only reachable if evaluation order was violated
            raise RuntimeError(f"precedent {addr} not yet evaluated")
        if addr in self.tainted:
            self._current_tainted = True
        return got

    def _read(self, column: Column, lo: int, hi: int) -> list[CellValue]:
        """Values of a column's stored cells ``lo .. hi - 1``, in row order."""
        out = []
        values, tainted = self.values, self.tainted
        formulas = iter(column.formulas[column.before[lo]:column.before[hi]])
        for cell in column.cells[lo:hi]:
            if cell.formula is None:
                out.append(cell.cached)
                continue
            addr = next(formulas)
            got = values.get(addr)
            if got is None:
                # only reachable if evaluation order was violated
                raise RuntimeError(f"precedent {addr} not yet evaluated")
            if addr in tainted:
                self._current_tainted = True
            out.append(got)
        return out

    def _read_apart(self, column: Column, lo: int, hi: int) -> tuple[list[CellValue], int | None]:
        """:meth:`_read` for a record kept across cells, which leaves the
        current cell untainted: the values, and the position of the first
        tainted formula cell among them, if any."""
        outer, self._current_tainted = self._current_tainted, False
        values = self._read(column, lo, hi)
        tainted_from = None
        if self._current_tainted:
            read = column.formulas[column.before[lo]:column.before[hi]]
            first = next(a for a in read if a in self.tainted)
            tainted_from = bisect_left(column.rows, first.row)
        self._current_tainted = outer
        return values, tainted_from

    def _iter_range_cells(self, rng: RangeRef, origin_sheet: str) -> list[CellValue] | None:
        """Values of the stored cells inside a range, in (row, col) order.

        ``None`` when the range reads ``#REF!`` (see :meth:`_sheet`). Only
        the columns inside the range are visited, each by bisecting its rows.
        """
        found = self._sheet(rng, origin_sheet)
        if found is None:
            return None
        reads = found.column_slices(rng.start.col, rng.start.row, rng.end.col, rng.end.row)
        if len(reads) == 1:
            return self._read(*reads[0])
        # SUM, AND and OR return the first error in (row, col) order; a
        # stable sort on the row keeps the columns in order within a row
        merged: list[tuple[int, CellValue]] = []
        for column, lo, hi in reads:
            merged.extend(zip(column.rows[lo:hi], self._read(column, lo, hi)))
        merged.sort(key=itemgetter(0))
        return [val for _, val in merged]

    def _prefix_aggregate(self, name: str, sheet: Sheet, col: int, head: int, tail: int) -> CellValue | None:
        """``name`` over rows ``head .. tail`` of column ``col`` of ``sheet``,
        from the column's prefix record from ``head``; ``None`` where the
        record stops and the range must be read directly.

        The record is extended in row order, reading each cell once, as far
        as the tail asks; the schedule puts every formula cell in the range
        first, as it does for a direct read. A result is the one a direct
        read gives, and taints the same way.
        """
        slices = sheet.column_slices(col, head, col, tail)
        if not slices:
            return _aggregate(name, [])
        [(column, lo, hi)] = slices
        prefix = self._prefixes.get((sheet.name, col, lo))
        if prefix is None:
            prefix = self._prefixes[sheet.name, col, lo] = _Prefix(lo, len(column.cells))
        start = lo + len(prefix.runs)
        if start < hi <= prefix.stop:
            prefix.extend(*self._read_apart(column, start, hi))
        if hi > prefix.stop:
            return None
        if prefix.tainted_from is not None and prefix.tainted_from < hi:
            self._current_tainted = True
        return prefix.value(name, hi)

    # -- lookups

    def _lookup_exact(self, key: CellValue, sheet: Sheet, rng: RangeRef, offset: int) -> CellValue:
        """Exact-match ``VLOOKUP`` from the range's lookup index.

        Answers as a scan of the key column in row order would: the first
        error stops it, blanks are skipped, the first equal value selects
        the row, and the scan taints the result if it reads a tainted cell.
        """
        span = (sheet.name, rng.start.col, rng.start.row, rng.end.row)
        index = self._lookups.get(span)
        if index is None:
            index = self._lookups[span] = self._build_lookup(sheet, *span[1:])
        pos = index.match(key)
        stop = index.stop if pos is None else pos
        if index.tainted_from is not None and index.tainted_from <= stop:
            self._current_tainted = True
        if pos is None:
            return index.error or _NA
        return self._cell_value(sheet, rng.start.col + offset, index.rows[pos])

    def _build_lookup(self, sheet: Sheet, col: int, first_row: int, last_row: int) -> _LookupIndex:
        """Index one key column over one row span.

        Valid for the rest of the run: every formula cell in the span
        precedes any lookup over it in the schedule (or sits on a cycle and
        already holds ``#CIRC!``), and evaluated values never change.
        """
        slices = sheet.column_slices(col, first_row, col, last_row)
        if not slices:
            return _LookupIndex([], stop=0)
        [(column, lo, hi)] = slices
        values, tainted_from = self._read_apart(column, lo, hi)
        index = _LookupIndex(column.rows, stop=hi, tainted_from=tainted_from)
        first = index.first
        for pos, val in enumerate(values, start=lo):
            kind = val.kind
            if kind is ValueKind.NUMBER:
                if index.first_number is None:
                    index.first_number = pos
                if math.isnan(val.value):
                    if index.first_nan is None:
                        index.first_nan = pos
                else:
                    first.setdefault((kind, val.value), pos)
            elif kind is ValueKind.TEXT:
                first.setdefault((kind, val.value.casefold()), pos)
            elif kind is ValueKind.BOOLEAN:
                first.setdefault((kind, val.value), pos)
            elif kind is ValueKind.ERROR:
                # a scan never reads past the first error
                index.stop, index.error = pos, val
                break
        return index


def _blank_as(kind: ValueKind) -> CellValue:
    if kind is ValueKind.NUMBER:
        return CellValue.number(0.0)
    if kind is ValueKind.TEXT:
        return CellValue.text("")
    return _FALSE


def _to_number(val: CellValue) -> float | None:
    if val.kind is ValueKind.NUMBER:
        return val.value
    if val.kind is ValueKind.BLANK:
        return 0.0
    if val.kind is ValueKind.BOOLEAN:
        return 1.0 if val.value else 0.0
    if val.kind is ValueKind.TEXT:
        try:
            num = float(val.value.strip())
        except ValueError:
            return None
        # "nan", "inf" and "1e999" are not numbers a cell can hold
        return num if math.isfinite(num) else None
    return None


def _finite(x: float) -> CellValue:
    """A number result, or ``#VALUE!`` (as for ``^`` overflow) if it is NaN or infinite."""
    return CellValue(_NUMBER, x) if x - x == 0.0 else _VALUE_ERR


def _to_bool(val: CellValue) -> bool | None:
    if val.kind is ValueKind.BOOLEAN:
        return val.value
    if val.kind is ValueKind.NUMBER:
        return val.value != 0
    if val.kind is ValueKind.BLANK:
        return False
    if val.kind is ValueKind.TEXT:
        lowered = val.value.casefold()
        if lowered == "true":
            return True
        if lowered == "false":
            return False
    return None


def _to_text(val: CellValue) -> str:
    if val.kind is ValueKind.TEXT:
        return val.value
    if val.kind is ValueKind.NUMBER:
        return format_number(val.value)
    if val.kind is ValueKind.BOOLEAN:
        return "TRUE" if val.value else "FALSE"
    return ""


def _round_half_away(x: float, digits: int) -> float:
    factor = 10.0 ** digits
    scaled = x * factor
    if math.isinf(scaled):
        return x  # no digit of x lies below 10**-digits
    return math.copysign(math.floor(abs(scaled) + 0.5), x) / factor


def _compare(op: str, left: CellValue, right: CellValue) -> CellValue:
    if left.kind is ValueKind.BLANK and right.kind is ValueKind.BLANK:
        order = 0
    else:
        if left.kind is ValueKind.BLANK:
            left = _blank_as(right.kind)
        elif right.kind is ValueKind.BLANK:
            right = _blank_as(left.kind)
        if left.kind is right.kind:
            if left.kind is ValueKind.TEXT:
                a, b = left.value.casefold(), right.value.casefold()
            else:
                a, b = left.value, right.value
            order = (a > b) - (a < b)
        else:
            a, b = _KIND_RANK[left.kind], _KIND_RANK[right.kind]
            order = (a > b) - (a < b)
    return _TRUE if order in _HOLDS_FOR[op] else _FALSE


# --- compiled evaluation -------------------------------------------------------
#
# Each template compiles once into a tree of closures, one per node, that
# take the engine, the formula cell (its template, then its values) and the
# sheet that holds it. Whatever depends only on the shape -- operators,
# functions, argument counts, constants, where each leaf's values sit -- is
# decided here; an evaluation reads only the cell's values. Operands
# evaluate in source order and the first error wins, as in a spreadsheet.
# An arithmetic operator whose right operand is a number literal reads the
# literal's float from the cell as it is, boxing no value for it.
# The closures never hold the engine, so an engine holding them makes no
# reference cycle.

Evaluator = Callable[["Engine", tuple, Sheet], CellValue]


def compile_template(template: Template) -> Evaluator:
    """The evaluator of every formula cell of ``template``."""
    return _compile(template.ast, template)


def _constant(value: CellValue) -> Evaluator:
    def constant(engine: Engine, cell: tuple, sheet: Sheet) -> CellValue:
        return value
    return constant


# the shared evaluators of the constant results compiling gives most often, by value
_ALWAYS = {val.value: _constant(val) for val in (_TRUE, _FALSE, _VALUE_ERR, _NAME_ERR)}


def _compile(node: FormulaAst, template: Template) -> Evaluator:
    kind = type(node)
    if kind is Ref:
        qual, at = node.ref, template.slots[id(node)][0]
        if qual.sheet is None and qual.external is None:
            return _local_ref(at)

        def ref(engine: Engine, cell: tuple, sheet: Sheet) -> CellValue:
            found = engine._sheet(qual, sheet.name)
            if found is None:
                return _REF_ERR
            return engine._cell_value(found, cell[at], cell[at + 1])
        return ref
    if kind is NumberLit:
        return _number(template.slots[id(node)][0])
    if kind is Binary:
        if type(node.right) is NumberLit and node.op in _ARITH:
            left, apply = _compile(node.left, template), _ARITH[node.op]
            at = template.slots[id(node.right)][0]

            def literal_right(engine: Engine, cell: tuple, sheet: Sheet) -> CellValue:
                a = left(engine, cell, sheet)
                if a.kind is _ERROR:
                    return a
                x, b = a.value if a.kind is _NUMBER else _to_number(a), cell[at]
                # b is infinite where the literal overflowed (1E999)
                return _VALUE_ERR if x is None or b - b != 0.0 else apply(x, b)
            return literal_right
        left, right = _compile(node.left, template), _compile(node.right, template)
        apply = _BINARY[node.op]

        def binary(engine: Engine, cell: tuple, sheet: Sheet) -> CellValue:
            a = left(engine, cell, sheet)
            if a.kind is _ERROR:
                return a
            b = right(engine, cell, sheet)
            if b.kind is _ERROR:
                return b
            return apply(a, b)
        return binary
    if kind is Call:
        compile_call = _CALLS.get(node.name)
        return _ALWAYS["#NAME?"] if compile_call is None else compile_call(node, template)
    if kind is TextLit:
        return _constant(CellValue.text(node.value))
    if kind is Unary:
        operand = _compile(node.operand, template)
        if node.op == "+":
            return operand

        def negate(engine: Engine, cell: tuple, sheet: Sheet) -> CellValue:
            val = operand(engine, cell, sheet)
            if val.kind is _ERROR:
                return val
            num = _to_number(val)
            return _VALUE_ERR if num is None else _finite(-num)
        return negate
    if kind is BoolLit:
        return _ALWAYS[node.value]
    if kind is Range:
        return _ALWAYS["#VALUE!"]  # a bare range is not a scalar
    raise TypeError(f"not a formula node: {node!r}")


# A leaf's evaluator depends only on where its values sit in the cell, so
# templates share them.

@lru_cache(maxsize=1024)
def _local_ref(at: int) -> Evaluator:
    """The evaluator of an unqualified reference whose values sit at ``at``."""
    def local(engine: Engine, cell: tuple, sheet: Sheet) -> CellValue:
        return engine._cell_value(sheet, cell[at], cell[at + 1])
    return local


@lru_cache(maxsize=1024)
def _number(at: int) -> Evaluator:
    """The evaluator of a number leaf whose value sits at ``at``."""
    def number(engine: Engine, cell: tuple, sheet: Sheet) -> CellValue:
        return _finite(cell[at])
    return number


def _arithmetic(op: Callable[[float, float], CellValue]) -> Callable[[CellValue, CellValue], CellValue]:
    def apply(left: CellValue, right: CellValue) -> CellValue:
        a, b = _to_number(left), _to_number(right)
        if a is None or b is None:
            return _VALUE_ERR
        return op(a, b)
    return apply


def _divide(a: float, b: float) -> CellValue:
    return _DIV0 if b == 0 else _finite(a / b)


def _power(a: float, b: float) -> CellValue:
    if a == 0 and b < 0:
        return _DIV0
    try:
        return _finite(math.pow(a, b))
    except (ValueError, OverflowError):
        return _VALUE_ERR


# what each arithmetic operator makes of two numbers
_ARITH: dict[str, Callable[[float, float], CellValue]] = {
    "+": lambda a, b: _finite(a + b),
    "-": lambda a, b: _finite(a - b),
    "*": lambda a, b: _finite(a * b),
    "/": _divide,
    "^": _power,
}
# what each binary operator makes of two operands that are not errors
_BINARY: dict[str, Callable[[CellValue, CellValue], CellValue]] = {
    "&": lambda left, right: CellValue.text(_to_text(left) + _to_text(right)),
    **{op: partial(_compare, op) for op in _HOLDS_FOR},
    **{op: _arithmetic(apply) for op, apply in _ARITH.items()},
}


def _compile_args(node: Call, template: Template) -> list[tuple[Callable | None, Evaluator | None]]:
    """Per argument, what an aggregate reads: ``(range, None)`` for a range
    argument, where ``range(cell)`` is its :class:`RangeRef` in that cell,
    else ``(None, evaluator)``."""
    return [
        (partial(_range_of, template, arg), None) if isinstance(arg, Range)
        else (None, _compile(arg, template))
        for arg in node.args
    ]


def _range_of(template: Template, node: Range, cell: tuple) -> RangeRef:
    return template.reference(cell, node)


def _compile_if(node: Call, template: Template) -> Evaluator:
    args = node.args
    if len(args) not in (2, 3):
        return _ALWAYS["#VALUE!"]
    cond, then = _compile(args[0], template), _compile(args[1], template)
    other = _compile(args[2], template) if len(args) == 3 else _ALWAYS[False]

    def if_(engine: Engine, cell: tuple, sheet: Sheet) -> CellValue:
        val = cond(engine, cell, sheet)
        if val.kind is _ERROR:
            return val
        flag = _to_bool(val)
        if flag is None:
            return _VALUE_ERR
        return (then if flag else other)(engine, cell, sheet)
    return if_


def _compile_aggregate(node: Call, template: Template) -> Evaluator:
    name = node.name
    count_only = name == "COUNT"
    args = _compile_args(node, template)
    running = None
    if len(node.args) == 1 and isinstance(node.args[0], Range):
        running = _compile_running(name, node.args[0], template)

    def aggregate(engine: Engine, cell: tuple, sheet: Sheet) -> CellValue:
        if running is not None:
            got = running(engine, cell, sheet)
            if got is not None:
                return got
        numbers: list[float] = []
        for rng, evaluator in args:
            if rng is not None:
                cells = engine._iter_range_cells(rng(cell), sheet.name)
                if cells is None:
                    return _REF_ERR
                for val in cells:
                    kind = val.kind
                    if kind is ValueKind.NUMBER:
                        numbers.append(val.value)
                    elif kind is ValueKind.ERROR and not count_only:
                        return val
                continue
            val = evaluator(engine, cell, sheet)
            if val.kind is _ERROR:
                if count_only:
                    continue
                return val
            if val.is_blank():
                continue
            num = _to_number(val)
            if num is None:
                if count_only:
                    continue
                return _VALUE_ERR
            numbers.append(num)
        return _aggregate(name, numbers)
    return aggregate


def _compile_running(name: str, node: Range, template: Template) -> Callable:
    """What aggregate ``name`` of the sole range ``node`` gives in a cell
    where that range is a :func:`running_total`, from the engine's prefix
    record; ``None`` elsewhere, or where the range must be read directly."""
    at, flags = template.slots[id(node)]
    qual = node.ref.start
    local = qual.sheet is None and qual.external is None

    def running(engine: Engine, cell: tuple, sheet: Sheet) -> CellValue | None:
        if not running_total(flags, cell, at):
            return None
        found = sheet if local else engine._sheet(qual, sheet.name)
        if found is None:
            return _REF_ERR
        r1, r2 = cell[at + 1], cell[at + 3]
        return engine._prefix_aggregate(name, found, cell[at], min(r1, r2), max(r1, r2))
    return running


def _aggregate(name: str, numbers: list[float]) -> CellValue:
    if name == "COUNT":
        return CellValue.number(float(len(numbers)))
    if name == "AVERAGE" and not numbers:
        return _DIV0
    if name in ("SUM", "AVERAGE"):
        try:
            total = math.fsum(numbers)
        except (OverflowError, ValueError):  # ValueError: inf + -inf
            return _VALUE_ERR
        return _finite(total if name == "SUM" else total / len(numbers))
    if not numbers:
        return CellValue.number(0.0)
    if any(map(math.isnan, numbers)):
        # min and max would drop a NaN unless it comes first
        return _VALUE_ERR
    return _finite(min(numbers) if name == "MIN" else max(numbers))


def _compile_and_or(node: Call, template: Template) -> Evaluator:
    combine = all if node.name == "AND" else any
    args = _compile_args(node, template)

    def and_or(engine: Engine, cell: tuple, sheet: Sheet) -> CellValue:
        flags: list[bool] = []
        for rng, evaluator in args:
            if rng is not None:
                cells = engine._iter_range_cells(rng(cell), sheet.name)
                if cells is None:
                    return _REF_ERR
                for val in cells:
                    if val.kind is _ERROR:
                        return val
                    if val.kind in (ValueKind.BOOLEAN, ValueKind.NUMBER):
                        flags.append(bool(val.value))
                continue
            val = evaluator(engine, cell, sheet)
            if val.kind is _ERROR:
                return val
            if val.is_blank():
                continue
            flag = _to_bool(val)
            if flag is None:
                return _VALUE_ERR
            flags.append(flag)
        if not flags:
            return _VALUE_ERR
        return _TRUE if combine(flags) else _FALSE
    return and_or


def _compile_unary_call(apply: Callable[[CellValue], CellValue]) -> Callable[[Call, Template], Evaluator]:
    """The compiler of a one-argument function that maps a non-error value."""
    def compile_call(node: Call, template: Template) -> Evaluator:
        if len(node.args) != 1:
            return _ALWAYS["#VALUE!"]
        arg = _compile(node.args[0], template)

        def call(engine: Engine, cell: tuple, sheet: Sheet) -> CellValue:
            val = arg(engine, cell, sheet)
            return val if val.kind is _ERROR else apply(val)
        return call
    return compile_call


def _not(val: CellValue) -> CellValue:
    flag = _to_bool(val)
    if flag is None:
        return _VALUE_ERR
    return _FALSE if flag else _TRUE


def _abs(val: CellValue) -> CellValue:
    num = _to_number(val)
    return _VALUE_ERR if num is None else _finite(abs(num))


def _compile_round(node: Call, template: Template) -> Evaluator:
    if len(node.args) != 2:
        return _ALWAYS["#VALUE!"]
    value, digits = (_compile(arg, template) for arg in node.args)

    def round_(engine: Engine, cell: tuple, sheet: Sheet) -> CellValue:
        val = value(engine, cell, sheet)
        if val.kind is _ERROR:
            return val
        digits_val = digits(engine, cell, sheet)
        if digits_val.kind is _ERROR:
            return digits_val
        num, places = _to_number(val), _to_number(digits_val)
        if num is None or places is None:
            return _VALUE_ERR
        try:
            return CellValue.number(_round_half_away(num, int(places)))
        except (OverflowError, ZeroDivisionError, ValueError):
            return _VALUE_ERR
    return round_


def _compile_vlookup(node: Call, template: Template) -> Evaluator:
    args = node.args
    if len(args) not in (3, 4):
        return _ALWAYS["#VALUE!"]
    key_of = _compile(args[0], template)
    if not isinstance(args[1], Range):
        def not_a_table(engine: Engine, cell: tuple, sheet: Sheet) -> CellValue:
            key = key_of(engine, cell, sheet)
            return key if key.kind is _ERROR else _VALUE_ERR
        return not_a_table
    table = partial(_range_of, template, args[1])
    index = _compile(args[2], template)
    approximate = _compile(args[3], template) if len(args) == 4 else None

    def vlookup(engine: Engine, cell: tuple, sheet: Sheet) -> CellValue:
        key = key_of(engine, cell, sheet)
        if key.kind is _ERROR:
            return key
        rng = table(cell)
        col_val = index(engine, cell, sheet)
        if col_val.kind is _ERROR:
            return col_val
        col_num = _to_number(col_val)
        # a NaN or infinite index is only possible in a Workbook built in memory
        if col_num is None or not math.isfinite(col_num) or col_num < 1:
            return _VALUE_ERR
        offset = int(col_num) - 1
        if rng.start.col + offset > rng.end.col:
            return _REF_ERR
        if approximate is not None:
            flag_val = approximate(engine, cell, sheet)
            if flag_val.kind is _ERROR:
                return flag_val
            flag = _to_bool(flag_val)
            if flag is None or flag:
                # only exact-match mode is supported
                return _VALUE_ERR
        found = engine._sheet(rng, sheet.name)
        if found is None:
            return _REF_ERR
        return engine._lookup_exact(key, found, rng, offset)
    return vlookup


_CALLS: dict[str, Callable[[Call, Template], Evaluator]] = {
    "IF": _compile_if,
    **dict.fromkeys(("SUM", "AVERAGE", "MIN", "MAX", "COUNT"), _compile_aggregate),
    "AND": _compile_and_or,
    "OR": _compile_and_or,
    "NOT": _compile_unary_call(_not),
    "ABS": _compile_unary_call(_abs),
    "ROUND": _compile_round,
    "VLOOKUP": _compile_vlookup,
}


def recompute_workbook(wb: Workbook) -> dict[CellAddress, CellValue]:
    """Recompute every formula cell from the workbook's inputs.

    Returns a map from formula-cell address to recomputed value; cells on
    reference cycles map to ``#CIRC!``. A stored input's value is its
    ``Workbook.cell(addr).cached``.
    """
    engine = Engine(wb)
    engine.run()
    return dict(engine.values)


def staleness_report(
    wb: Workbook,
    engine: Engine | None = None,
) -> StalenessReport:
    """Compare cached values against recomputed values.

    A numeric pair is stale when ``|cached - recomputed|`` exceeds
    ``1e-9 * max(1, |recomputed|)``; other pairs are stale on any variant
    or content inequality. Formula cells whose recomputed value is
    ``#REF!`` because of an external link are excluded and listed in
    ``external_exclusions``.
    """
    if engine is None:
        engine = Engine(wb)
    engine.run()
    entries: list[StalenessEntry] = []
    exclusions: list[CellAddress] = []
    values, tainted = engine.values, engine.tainted
    name = stored = None
    for addr in engine.asts.cells:
        sheet, col, row = addr
        if sheet != name:  # cells come sheet by sheet
            name, stored = sheet, wb.sheet(sheet).cells
        cached = stored[(col, row)].cached
        recomputed = values[addr]
        if cached.kind is _NUMBER and recomputed.kind is _NUMBER:
            delta = abs(cached.value - recomputed.value)
            scale = x if (x := abs(recomputed.value)) > 1.0 else 1.0
            if delta > NUMERIC_TOLERANCE * scale:
                entries.append(StalenessEntry(addr, cached, recomputed, delta / scale))
            elif delta != delta:
                # a NaN (only possible in a Workbook built in memory) fails every tolerance
                entries.append(StalenessEntry(addr, cached, recomputed, None))
        elif recomputed.kind is _ERROR and addr in tainted and recomputed == _REF_ERR:
            exclusions.append(addr)
        elif cached != recomputed:
            entries.append(StalenessEntry(addr, cached, recomputed, None))
    return StalenessReport(entries=entries, external_exclusions=exclusions)
