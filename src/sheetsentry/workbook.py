"""Workbook data model and the canonical JSON interchange loader.

A workbook is a list of named sheets, each holding a sparse map of cells.
Cells carry an optional formula source string plus the value cached in the
file. Workbooks are immutable after loading; all operations in this package
are pure reads, so any number of concurrent readers is safe.

Which stored cells a formula reference reads is decided here, for the
dependency graph and the evaluator alike: :meth:`Workbook.resolve` picks
the sheet and :meth:`Sheet.column_slices` the cells of a range.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Any, Iterator, NamedTuple

from .errors import AddressParseError, FormatError, IoError, ValidationError

if TYPE_CHECKING:
    from .formula import RangeRef, Reference

MAX_COL = 18278  # columns A through ZZZ
MAX_ROW = 1 << 20

ERROR_CODES = frozenset({"#DIV/0!", "#REF!", "#VALUE!", "#N/A", "#NAME?", "#CIRC!"})

_ADDRESS_RE = re.compile(r"(\$?)([A-Z]+)(\$?)([1-9][0-9]*)\Z")
_PLAIN_ADDRESS_RE = re.compile(r"([A-Z]+)([1-9][0-9]*)\Z")


def letters_to_col(letters: str) -> int:
    """Decode column letters bijective base-26 (A=1, Z=26, AA=27)."""
    col = 0
    for ch in letters:
        col = col * 26 + (ord(ch) - 64)
    return col


def col_to_letters(col: int) -> str:
    """Inverse of :func:`letters_to_col`."""
    out = ""
    while col > 0:
        col, rem = divmod(col - 1, 26)
        out = chr(rem + 65) + out
    return out


def parse_address(text: str) -> tuple[int, int, bool, bool]:
    """Parse an A1-style address into ``(col, row, abs_col, abs_row)``.

    Raises:
        AddressParseError: if the text is malformed or out of bounds.
    """
    m = _ADDRESS_RE.match(text)
    if m is None:
        raise AddressParseError(f"malformed cell address: {text!r}")
    dollar_col, letters, dollar_row, digits = m.groups()
    col = letters_to_col(letters)
    row = int(digits)
    if col > MAX_COL:
        raise AddressParseError(f"column out of range in {text!r} (max {col_to_letters(MAX_COL)})")
    if row > MAX_ROW:
        raise AddressParseError(f"row out of range in {text!r} (max {MAX_ROW})")
    return col, row, bool(dollar_col), bool(dollar_row)


class ValueKind(Enum):
    NUMBER = "number"
    TEXT = "text"
    BOOLEAN = "boolean"
    ERROR = "error"
    BLANK = "blank"


@dataclass(frozen=True, slots=True)
class CellValue:
    """A stored or computed cell value; exactly one variant.

    ``value`` holds a float for NUMBER, a str for TEXT, a bool for BOOLEAN,
    the error code string for ERROR, and None for BLANK.
    """

    kind: ValueKind
    value: float | str | bool | None = None

    @staticmethod
    def number(x: float) -> "CellValue":
        return CellValue(ValueKind.NUMBER, float(x))

    @staticmethod
    def text(s: str) -> "CellValue":
        return CellValue(ValueKind.TEXT, s)

    @staticmethod
    def boolean(b: bool) -> "CellValue":
        return CellValue(ValueKind.BOOLEAN, bool(b))

    @staticmethod
    def error(code: str) -> "CellValue":
        if code not in ERROR_CODES:
            raise ValueError(f"unknown error code {code!r}")
        return CellValue(ValueKind.ERROR, code)

    def is_blank(self) -> bool:
        return self.kind is ValueKind.BLANK

    def is_number(self) -> bool:
        return self.kind is ValueKind.NUMBER

    def is_error(self) -> bool:
        return self.kind is ValueKind.ERROR

    def display(self) -> str:
        """Short human-readable rendering for messages and reports."""
        if self.kind is ValueKind.BLANK:
            return "(blank)"
        if self.kind is ValueKind.NUMBER:
            return format_number(self.value)
        if self.kind is ValueKind.BOOLEAN:
            return "TRUE" if self.value else "FALSE"
        if self.kind is ValueKind.ERROR:
            return str(self.value)
        return str(self.value)

    def to_json(self) -> Any:
        """Encode in the interchange format's value shape."""
        if self.kind is ValueKind.BLANK:
            return None
        if self.kind is ValueKind.ERROR:
            return {"err": self.value}
        return self.value


BLANK = CellValue(ValueKind.BLANK)


def format_number(x: float) -> str:
    """Canonical decimal text for a number: trailing zeros stripped,
    integral values without a decimal point, at most 15 significant
    digits."""
    if x != x or x in (math.inf, -math.inf):
        return repr(x)
    if x == 0:
        return "0"
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return f"{x:.15g}"


class CellAddress(NamedTuple):
    """Location of a cell: sheet name plus 1-based column and row."""

    sheet: str
    col: int
    row: int

    def a1(self) -> str:
        return f"{col_to_letters(self.col)}{self.row}"

    def qualified(self) -> str:
        return f"{self.sheet}!{self.a1()}"

    def __str__(self) -> str:
        return self.qualified()


@dataclass(frozen=True, slots=True)
class Cell:
    """Formula source (if any) plus the value cached in the file."""

    formula: str | None = None
    cached: CellValue = BLANK


class CalcMode(Enum):
    AUTOMATIC = "automatic"
    MANUAL = "manual"


@dataclass(frozen=True, slots=True)
class WorkbookSettings:
    calc_mode: CalcMode = CalcMode.AUTOMATIC


@dataclass(frozen=True, slots=True)
class ScriptModule:
    """An embedded procedural-code module (opaque macro dialect)."""

    name: str
    source: str


@dataclass(frozen=True, slots=True)
class Manifest:
    """Workbook self-description: what it computes and where imports come from."""

    title: str | None = None
    specification: str | None = None
    assumptions: tuple[tuple[str, str], ...] = ()

    def assumptions_dict(self) -> dict[str, str]:
        return dict(self.assumptions)


@dataclass(frozen=True, slots=True)
class Column:
    """The stored cells of one sheet column, in row order.

    ``formulas`` holds the addresses of the formula cells among them and
    ``before[i]`` counts the formula cells above position ``i``, so the
    formula cells of a slice ``lo:hi`` are ``formulas[before[lo]:before[hi]]``.
    """

    rows: list[int]
    cells: list[Cell]
    formulas: list[CellAddress]
    before: list[int]


@dataclass(slots=True)
class Sheet:
    """One sheet: a name plus a sparse cell map keyed by ``(col, row)``.

    Treat as immutable once part of a workbook; the reading-order cell
    list and the column index are memoized.
    """

    name: str
    cells: dict[tuple[int, int], Cell] = field(default_factory=dict)
    _sorted: list | None = field(default=None, init=False, repr=False, compare=False)
    _columns: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def cell(self, col: int, row: int) -> Cell | None:
        return self.cells.get((col, row))

    def sorted_items(self) -> list[tuple[tuple[int, int], Cell]]:
        """Cells in reading order: by row, then column."""
        if self._sorted is None or len(self._sorted) != len(self.cells):
            self._sorted = sorted(self.cells.items(), key=lambda kv: (kv[0][1], kv[0][0]))
        return self._sorted

    def column_slices(self, c1: int, r1: int, c2: int, r2: int) -> list[tuple[Column, int, int]]:
        """The stored cells inside a rectangle, as ``(column, lo, hi)`` per
        nonempty column in column order: ``column.cells[lo:hi]`` lie inside.

        The column index is built on first use; a rectangle then costs a
        bisection per occupied column inside it, whatever its area.
        """
        if self._columns is None:
            by_col: dict[int, Column] = {}
            for (col, row), cell in self.sorted_items():
                column = by_col.get(col)
                if column is None:
                    column = by_col[col] = Column([], [], [], [0])
                column.rows.append(row)
                column.cells.append(cell)
                if cell.formula is not None:
                    column.formulas.append(CellAddress(self.name, col, row))
                column.before.append(len(column.formulas))
            self._columns = (sorted(by_col), by_col)
        cols, by_col = self._columns
        out = []
        for col in cols[bisect_left(cols, c1):bisect_right(cols, c2)]:
            column = by_col[col]
            lo, hi = bisect_left(column.rows, r1), bisect_right(column.rows, r2)
            if lo < hi:
                out.append((column, lo, hi))
        return out


@dataclass(slots=True)
class Workbook:
    """A loaded workbook. Treat as immutable once constructed."""

    sheets: list[Sheet]
    manifest: Manifest = field(default_factory=Manifest)
    settings: WorkbookSettings = field(default_factory=WorkbookSettings)
    scripts: list[ScriptModule] = field(default_factory=list)
    _sheet_index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.sheets:
            raise ValidationError("workbook must contain at least one sheet")
        index: dict[str, int] = {}
        for pos, sheet in enumerate(self.sheets):
            key = sheet.name.casefold()
            if not sheet.name:
                raise ValidationError("sheet names must be nonempty")
            if key in index:
                raise ValidationError(f"duplicate sheet name {sheet.name!r} (case-insensitive)")
            index[key] = pos
        self._sheet_index = index

    def sheet(self, name: str) -> Sheet | None:
        pos = self._sheet_index.get(name.casefold())
        return self.sheets[pos] if pos is not None else None

    def resolve(self, ref: Reference | RangeRef, origin_sheet: str) -> Sheet | str | None:
        """What a parsed reference in a formula on ``origin_sheet`` reads.

        The name of another workbook for an external reference, ``None``
        for a sheet this workbook lacks, else the stored :class:`Sheet`.
        Sheet names match case-insensitively; an unqualified reference
        reads its own sheet. The graph and the evaluator both ask here.
        """
        head = getattr(ref, "start", ref)  # a range is qualified by its first corner
        if head.external is not None:
            return head.external
        return self.sheet(head.sheet or origin_sheet)

    def sheet_rank(self, name: str) -> int:
        """Position of a sheet in workbook order; used for deterministic sorting."""
        pos = self._sheet_index.get(name.casefold())
        if pos is None:
            raise KeyError(name)
        return pos

    def cell(self, addr: CellAddress) -> Cell | None:
        sheet = self.sheet(addr.sheet)
        if sheet is None:
            return None
        return sheet.cells.get((addr.col, addr.row))

    def iter_cells(self) -> Iterator[tuple[CellAddress, Cell]]:
        """All stored cells in sheet order, then reading order within a sheet."""
        for sheet in self.sheets:
            for (col, row), cell in sheet.sorted_items():
                yield CellAddress(sheet.name, col, row), cell

    def address_sort_key(self, addr: CellAddress) -> tuple[int, int, int]:
        return (self.sheet_rank(addr.sheet), addr.row, addr.col)


# --- interchange loader ----------------------------------------------------


def load_workbook(path: str) -> Workbook:
    """Load and validate a workbook from the JSON interchange format.

    Raises:
        IoError: the file cannot be read.
        FormatError: the JSON violates the schema (message names the path).
        ValidationError: the file parses but breaks a workbook invariant,
            e.g. duplicate sheet names.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except ValueError as exc:
        raise FormatError("$", f"invalid JSON: {exc}") from exc
    return workbook_from_dict(doc)


def workbook_from_dict(doc: Any) -> Workbook:
    """Build a validated :class:`Workbook` from decoded interchange JSON."""
    _expect_object(doc, "$")
    _reject_unknown(doc, "$", {"manifest", "settings", "sheets", "scripts"})

    manifest = _load_manifest(doc.get("manifest"), "$.manifest")
    settings = _load_settings(doc.get("settings"), "$.settings")

    sheets_doc = doc.get("sheets")
    if not isinstance(sheets_doc, list) or not sheets_doc:
        raise FormatError("$.sheets", "expected a nonempty array of sheets")
    sheets = [
        _load_sheet(entry, f"$.sheets[{i}]") for i, entry in enumerate(sheets_doc)
    ]

    scripts = _load_scripts(doc.get("scripts"), "$.scripts")
    return Workbook(sheets=sheets, manifest=manifest, settings=settings, scripts=scripts)


def _expect_object(value: Any, path: str) -> None:
    if not isinstance(value, dict):
        raise FormatError(path, f"expected object, got {type(value).__name__}")


def _reject_unknown(obj: dict, path: str, allowed: set[str]) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise FormatError(path, f"unknown key {sorted(unknown)[0]!r}")


def _expect_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise FormatError(path, f"expected string, got {type(value).__name__}")
    return value


def _load_manifest(doc: Any, path: str) -> Manifest:
    if doc is None:
        return Manifest()
    _expect_object(doc, path)
    _reject_unknown(doc, path, {"title", "specification", "assumptions"})
    title = _expect_str(doc["title"], f"{path}.title") if "title" in doc else None
    spec = (
        _expect_str(doc["specification"], f"{path}.specification")
        if "specification" in doc
        else None
    )
    assumptions: tuple[tuple[str, str], ...] = ()
    if "assumptions" in doc:
        a = doc["assumptions"]
        _expect_object(a, f"{path}.assumptions")
        pairs = []
        for key, value in a.items():
            pairs.append((key, _expect_str(value, f"{path}.assumptions.{key}")))
        assumptions = tuple(pairs)
    return Manifest(title=title, specification=spec, assumptions=assumptions)


def _load_settings(doc: Any, path: str) -> WorkbookSettings:
    if doc is None:
        return WorkbookSettings()
    _expect_object(doc, path)
    _reject_unknown(doc, path, {"calc_mode"})
    mode = doc.get("calc_mode", "automatic")
    if mode not in ("automatic", "manual"):
        raise FormatError(f"{path}.calc_mode", f"expected 'automatic' or 'manual', got {mode!r}")
    return WorkbookSettings(calc_mode=CalcMode(mode))


def _load_sheet(doc: Any, path: str) -> Sheet:
    _expect_object(doc, path)
    _reject_unknown(doc, path, {"name", "cells"})
    if "name" not in doc:
        raise FormatError(f"{path}.name", "sheet name is required")
    name = _expect_str(doc["name"], f"{path}.name")
    if not name:
        raise FormatError(f"{path}.name", "sheet name must be nonempty")
    cells: dict[tuple[int, int], Cell] = {}
    cells_doc = doc.get("cells", {})
    _expect_object(cells_doc, f"{path}.cells")
    for key, cell_doc in cells_doc.items():
        cell_path = f"{path}.cells.{key}"
        m = _PLAIN_ADDRESS_RE.match(key)
        if m is None:
            raise FormatError(cell_path, f"malformed cell address key {key!r}")
        col = letters_to_col(m.group(1))
        row = int(m.group(2))
        if col > MAX_COL or row > MAX_ROW:
            raise FormatError(cell_path, f"cell address {key!r} out of bounds")
        cell = _load_cell(cell_doc, cell_path)
        if cell is not None:
            cells[(col, row)] = cell
    return Sheet(name=name, cells=cells)


def _load_cell(doc: Any, path: str) -> Cell | None:
    _expect_object(doc, path)
    _reject_unknown(doc, path, {"f", "v"})
    formula = None
    if "f" in doc:
        formula = _expect_str(doc["f"], f"{path}.f")
        if not formula.startswith("=") or len(formula) < 2:
            raise FormatError(f"{path}.f", "formula must start with '=' and be nonempty")
    cached = _value_from_json(doc["v"], f"{path}.v") if "v" in doc else BLANK
    if formula is None and cached.is_blank():
        return None  # sparse model: blank cells are not stored
    return Cell(formula=formula, cached=cached)


def _value_from_json(value: Any, path: str) -> CellValue:
    if isinstance(value, bool):
        return CellValue.boolean(value)
    if isinstance(value, (int, float)):
        if not math.isfinite(value):
            raise FormatError(path, "numbers must be finite")
        return CellValue.number(value)
    if isinstance(value, str):
        return CellValue.text(value)
    if isinstance(value, dict):
        if set(value) != {"err"}:
            raise FormatError(path, "error values must be an object with a single 'err' key")
        code = value["err"]
        if code not in ERROR_CODES:
            raise FormatError(path, f"unknown error code {code!r}")
        return CellValue.error(code)
    raise FormatError(path, f"unsupported value type {type(value).__name__}")


def _load_scripts(doc: Any, path: str) -> list[ScriptModule]:
    if doc is None:
        return []
    if not isinstance(doc, list):
        raise FormatError(path, "expected an array of script modules")
    modules = []
    seen = set()
    for i, entry in enumerate(doc):
        entry_path = f"{path}[{i}]"
        _expect_object(entry, entry_path)
        _reject_unknown(entry, entry_path, {"name", "source"})
        if "name" not in entry or "source" not in entry:
            raise FormatError(entry_path, "script modules need 'name' and 'source'")
        name = _expect_str(entry["name"], f"{entry_path}.name")
        source = _expect_str(entry["source"], f"{entry_path}.source")
        key = name.casefold()
        if key in seen:
            raise ValidationError(f"duplicate script module name {name!r}")
        seen.add(key)
        modules.append(ScriptModule(name=name, source=source))
    return modules
