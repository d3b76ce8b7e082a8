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

Which stored cells a reference reads is decided in one place, which the
dependency graph asks too: :meth:`Workbook.resolve` names the sheet (or
another workbook, or none), and :meth:`Sheet.column_slices` finds a range's
cells in the sheet's column index, built once per sheet on first use. A
range read therefore costs what it returns, not the area it covers: it
visits only the columns inside it and bisects each one's sorted rows. An
exact-match ``VLOOKUP`` is answered from a hash index
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
from operator import itemgetter

from .formula import (
    Binary,
    BoolLit,
    Call,
    FormulaAst,
    NumberLit,
    Range,
    RangeRef,
    Ref,
    Reference,
    TextLit,
    Unary,
    parse_all_formulas,
)
from .graph import DepGraph, build_graph, schedule
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


class Engine:
    """Evaluates one workbook; reusable for multiple queries."""

    def __init__(
        self,
        wb: Workbook,
        graph: DepGraph | None = None,
        asts: dict[CellAddress, FormulaAst] | None = None,
    ) -> None:
        self.wb = wb
        self.asts = asts if asts is not None else parse_all_formulas(wb)
        self.graph = graph if graph is not None else build_graph(wb, self.asts)
        self.values: dict[CellAddress, CellValue] = {}
        self.tainted: set[CellAddress] = set()
        self._lookups: dict[tuple[str, int, int, int], _LookupIndex] = {}
        self._current_tainted = False
        self._ran = False

    # -- orchestration

    def run(self) -> None:
        """Evaluate every formula cell, once.

        The formula cells :attr:`DepGraph.formulas` leaves out read only
        inputs and go first, in reading order; then its cells follow in
        :func:`schedule`'s order. Any order that puts precedents first gives
        the same values, which the tests check by scheduling with the
        reversed key. Formula cells on a reference cycle get ``#CIRC!``
        before anything downstream of them is evaluated.
        """
        if self._ran:
            return
        order, in_cycle = schedule(self.graph.formulas)
        for node in in_cycle:
            if node in self.asts:
                self.values[node] = _CIRC
        linked = in_cycle.union(order)
        for node in [addr for addr in self.asts if addr not in linked] + order:
            ast = self.asts.get(node)
            if ast is not None:
                self._current_tainted = False
                val = self._eval(ast, node.sheet)
                if val.kind is ValueKind.NUMBER and not math.isfinite(val.value):
                    # a NaN or infinite input, which only a Workbook built in
                    # memory can hold, read through a reference unchanged
                    val = _VALUE_ERR
                elif val.kind is ValueKind.BLANK:  # as a spreadsheet caches it
                    val = _blank_as(ValueKind.NUMBER)
                self.values[node] = val
                if self._current_tainted:
                    self.tainted.add(node)
        self._ran = True

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

    # -- AST evaluation

    def _eval(self, node: FormulaAst, sheet: str) -> CellValue:
        if isinstance(node, NumberLit):
            return _finite(node.value)
        if isinstance(node, TextLit):
            return CellValue.text(node.value)
        if isinstance(node, BoolLit):
            return _TRUE if node.value else _FALSE
        if isinstance(node, Ref):
            return self._eval_ref(node.ref, sheet)
        if isinstance(node, Range):
            # a bare range is not a scalar
            return _VALUE_ERR
        if isinstance(node, Unary):
            return self._eval_unary(node, sheet)
        if isinstance(node, Binary):
            return self._eval_binary(node, sheet)
        if isinstance(node, Call):
            return self._eval_call(node, sheet)
        raise TypeError(f"not a formula node: {node!r}")

    def _eval_ref(self, ref: Reference, sheet: str) -> CellValue:
        found = self._sheet(ref, sheet)
        if found is None:
            return _REF_ERR
        return self._cell_value(found, ref.col, ref.row)

    def _eval_unary(self, node: Unary, sheet: str) -> CellValue:
        val = self._eval(node.operand, sheet)
        if val.is_error():
            return val
        if node.op == "+":
            return val
        num = _to_number(val)
        if num is None:
            return _VALUE_ERR
        return _finite(-num)

    def _eval_binary(self, node: Binary, sheet: str) -> CellValue:
        left = self._eval(node.left, sheet)
        if left.is_error():
            return left
        right = self._eval(node.right, sheet)
        if right.is_error():
            return right
        op = node.op
        if op == "&":
            return CellValue.text(_to_text(left) + _to_text(right))
        if op in ("=", "<>", "<", "<=", ">", ">="):
            return self._compare(op, left, right)
        a = _to_number(left)
        b = _to_number(right)
        if a is None or b is None:
            return _VALUE_ERR
        if op == "+":
            return _finite(a + b)
        if op == "-":
            return _finite(a - b)
        if op == "*":
            return _finite(a * b)
        if op == "/":
            if b == 0:
                return _DIV0
            return _finite(a / b)
        if op == "^":
            if a == 0 and b < 0:
                return _DIV0
            try:
                return _finite(math.pow(a, b))
            except (ValueError, OverflowError):
                return _VALUE_ERR
        raise ValueError(f"unknown operator {op!r}")

    @staticmethod
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

    # -- function calls

    def _eval_call(self, node: Call, sheet: str) -> CellValue:
        name = node.name
        if name == "IF":
            return self._fn_if(node.args, sheet)
        if name in ("SUM", "AVERAGE", "MIN", "MAX", "COUNT"):
            return self._fn_aggregate(name, node.args, sheet)
        if name in ("AND", "OR"):
            return self._fn_and_or(name, node.args, sheet)
        if name == "NOT":
            return self._fn_not(node.args, sheet)
        if name == "ABS":
            return self._fn_numeric1(abs, node.args, sheet)
        if name == "ROUND":
            return self._fn_round(node.args, sheet)
        if name == "VLOOKUP":
            return self._fn_vlookup(node.args, sheet)
        return _NAME_ERR

    def _fn_if(self, args, sheet: str) -> CellValue:
        if len(args) not in (2, 3):
            return _VALUE_ERR
        cond = self._eval(args[0], sheet)
        if cond.is_error():
            return cond
        flag = _to_bool(cond)
        if flag is None:
            return _VALUE_ERR
        if flag:
            return self._eval(args[1], sheet)
        if len(args) == 3:
            return self._eval(args[2], sheet)
        return _FALSE

    def _fn_aggregate(self, name: str, args, sheet: str) -> CellValue:
        numbers: list[float] = []
        count_only = name == "COUNT"
        for arg in args:
            if isinstance(arg, Range):
                cells = self._iter_range_cells(arg.ref, sheet)
                if cells is None:
                    return _REF_ERR
                for val in cells:
                    kind = val.kind
                    if kind is ValueKind.NUMBER:
                        numbers.append(val.value)
                    elif kind is ValueKind.ERROR and not count_only:
                        return val
            else:
                val = self._eval(arg, sheet)
                if val.is_error():
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

    def _fn_and_or(self, name: str, args, sheet: str) -> CellValue:
        flags: list[bool] = []
        for arg in args:
            if isinstance(arg, Range):
                cells = self._iter_range_cells(arg.ref, sheet)
                if cells is None:
                    return _REF_ERR
                for val in cells:
                    if val.is_error():
                        return val
                    if val.kind in (ValueKind.BOOLEAN, ValueKind.NUMBER):
                        flags.append(bool(val.value))
            else:
                val = self._eval(arg, sheet)
                if val.is_error():
                    return val
                if val.is_blank():
                    continue
                flag = _to_bool(val)
                if flag is None:
                    return _VALUE_ERR
                flags.append(flag)
        if not flags:
            return _VALUE_ERR
        result = all(flags) if name == "AND" else any(flags)
        return _TRUE if result else _FALSE

    def _fn_not(self, args, sheet: str) -> CellValue:
        if len(args) != 1:
            return _VALUE_ERR
        val = self._eval(args[0], sheet)
        if val.is_error():
            return val
        flag = _to_bool(val)
        if flag is None:
            return _VALUE_ERR
        return _FALSE if flag else _TRUE

    def _fn_numeric1(self, fn, args, sheet: str) -> CellValue:
        if len(args) != 1:
            return _VALUE_ERR
        val = self._eval(args[0], sheet)
        if val.is_error():
            return val
        num = _to_number(val)
        if num is None:
            return _VALUE_ERR
        return _finite(fn(num))

    def _fn_round(self, args, sheet: str) -> CellValue:
        if len(args) != 2:
            return _VALUE_ERR
        val = self._eval(args[0], sheet)
        if val.is_error():
            return val
        digits_val = self._eval(args[1], sheet)
        if digits_val.is_error():
            return digits_val
        num = _to_number(val)
        digits = _to_number(digits_val)
        if num is None or digits is None:
            return _VALUE_ERR
        try:
            return CellValue.number(_round_half_away(num, int(digits)))
        except (OverflowError, ZeroDivisionError, ValueError):
            return _VALUE_ERR

    def _fn_vlookup(self, args, sheet: str) -> CellValue:
        if len(args) not in (3, 4):
            return _VALUE_ERR
        key = self._eval(args[0], sheet)
        if key.is_error():
            return key
        if not isinstance(args[1], Range):
            return _VALUE_ERR
        rng = args[1].ref
        col_val = self._eval(args[2], sheet)
        if col_val.is_error():
            return col_val
        col_num = _to_number(col_val)
        # a NaN or infinite index is only possible in a Workbook built in memory
        if col_num is None or not math.isfinite(col_num) or col_num < 1:
            return _VALUE_ERR
        offset = int(col_num) - 1
        if rng.start.col + offset > rng.end.col:
            return _REF_ERR
        if len(args) == 4:
            flag_val = self._eval(args[3], sheet)
            if flag_val.is_error():
                return flag_val
            flag = _to_bool(flag_val)
            if flag is None or flag:
                # only exact-match mode is supported
                return _VALUE_ERR
        found = self._sheet(rng, sheet)
        if found is None:
            return _REF_ERR
        return self._lookup_exact(key, found, rng, offset)

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
        outer = self._current_tainted
        self._current_tainted = False
        values = self._read(column, lo, hi)
        read_tainted, self._current_tainted = self._current_tainted, outer

        index = _LookupIndex(column.rows, stop=hi)
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
        if read_tainted:
            read = column.formulas[column.before[lo]:column.before[hi]]
            first = next(a for a in read if a in self.tainted)
            index.tainted_from = bisect_left(column.rows, first.row)
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
    return CellValue.number(x) if math.isfinite(x) else _VALUE_ERR


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
    return math.copysign(math.floor(abs(scaled) + 0.5), x) / factor


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
    for addr in engine.asts:
        cell = wb.cell(addr)
        recomputed = engine.values[addr]
        if addr in engine.tainted and recomputed == _REF_ERR:
            exclusions.append(addr)
            continue
        cached = cell.cached
        if cached.is_number() and recomputed.is_number():
            delta = abs(cached.value - recomputed.value)
            scale = max(1.0, abs(recomputed.value))
            if math.isnan(delta):
                # a NaN (only possible in a Workbook built in memory) fails every tolerance
                entries.append(StalenessEntry(addr, cached, recomputed, None))
            elif delta > NUMERIC_TOLERANCE * scale:
                entries.append(StalenessEntry(addr, cached, recomputed, delta / scale))
        elif cached != recomputed:
            entries.append(StalenessEntry(addr, cached, recomputed, None))
    return StalenessReport(entries=entries, external_exclusions=exclusions)
