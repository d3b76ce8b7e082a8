"""Column-wise range reads and the exact-match lookup index against scan oracles."""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sheetsentry.evaluate import Engine, compile_template, staleness_report
from sheetsentry.formula import parse_all_formulas
from sheetsentry.workbook import BLANK, Cell, CellValue, Sheet, Workbook, col_to_letters

from conftest import addr, make_workbook
from scanoracle import ScanEngine

NAN = CellValue.number(math.nan)

# Table cells: inputs of every kind, plus formulas that evaluate to a blank,
# an error, or a value tainted by an external reference.
INPUTS = [
    CellValue.number(0.0), CellValue.number(-0.0), CellValue.number(1.0), CellValue.number(2.0),
    CellValue.text("a"), CellValue.text("A"), CellValue.text("b"), CellValue.text(""),
    CellValue.boolean(True), CellValue.boolean(False),
    CellValue.error("#N/A"), CellValue.error("#DIV/0!"), NAN, BLANK,
]
FORMULAS = [
    "=1+1", '="A"', "=TRUE", "=Z99", "=1/0", "=[X]S!A1",
    "=COUNT([X]S!A1)", "=COUNT([X]S!A1)+1", '=IF(COUNT([X]S!A1),1,"b")', "=SUM([X]S!A1:B2)",
]
ROWS, COLS = 6, 3
AGGREGATES = ["SUM", "AVERAGE", "MIN", "MAX", "COUNT", "AND", "OR"]


def plain(val: CellValue) -> tuple:
    """A comparable form of a value: NaN equals NaN, -0.0 differs from 0.0."""
    return (val.kind, repr(val.value))


def outcome(engine_cls, wb: Workbook) -> tuple:
    engine = engine_cls(wb)
    report = staleness_report(wb, engine)
    values = {a: plain(v) for a, v in engine.values.items()}
    entries = [
        (e.address, plain(e.cached), plain(e.recomputed), repr(e.relative_delta))
        for e in report.entries
    ]
    return values, engine.tainted, entries, report.external_exclusions


def a1_range(c1: int, r1: int, c2: int, r2: int) -> str:
    return f"{col_to_letters(c1)}{r1}:{col_to_letters(c2)}{r2}"


def rectangles(max_col: int):
    def build(cols, rows):
        (c1, c2), (r1, r2) = sorted(cols), sorted(rows)
        return (c1, r1, c2, r2)

    col = st.integers(1, max_col)
    row = st.integers(1, ROWS + 1)
    return st.builds(build, st.tuples(col, col), st.tuples(row, row))


TABLE_CELL = st.one_of(
    st.none(),
    st.sampled_from(INPUTS).map(lambda v: Cell(cached=v)),
    st.sampled_from(FORMULAS).map(lambda f: Cell(formula=f, cached=CellValue.number(2.0))),
)
KEY_CELL = st.one_of(st.none(), st.sampled_from(INPUTS[:10] + [NAN, BLANK]))
CACHED = st.sampled_from(INPUTS)
TABLE_SPAN = rectangles(COLS)
ANY_SPAN = rectangles(6)
AGGREGATE = st.sampled_from(AGGREGATES)


@st.composite
def tables(draw) -> Workbook:
    """Columns A-C: the table; D: lookup keys; E: lookups; F: range reads."""
    cells: dict[tuple[int, int], Cell] = {}
    for col in range(1, COLS + 1):
        for row in range(1, ROWS + 1):
            got = draw(TABLE_CELL)
            if got is not None:
                cells[col, row] = got
    for row in range(1, ROWS + 1):
        key = draw(KEY_CELL)
        if key is not None:
            cells[4, row] = Cell(cached=key)
        c1, r1, c2, r2 = draw(TABLE_SPAN)
        offset = draw(st.integers(1, c2 - c1 + 2))
        cells[5, row] = Cell(
            formula=f"=VLOOKUP(D{row},{a1_range(c1, r1, c2, r2)},{offset},FALSE)",
            cached=draw(CACHED),
        )
        # ranges over the lookups, and over themselves, are allowed too
        cells[6, row] = Cell(
            formula=f"={draw(AGGREGATE)}({a1_range(*draw(ANY_SPAN))})",
            cached=draw(CACHED),
        )
    return Workbook(sheets=[Sheet("S", cells)])


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tables())
def test_fast_paths_match_the_scan_oracle(wb):
    assert outcome(Engine, wb) == outcome(ScanEngine, wb)


# One table holding every case the lookup index must reproduce. Keys sit in
# column A, results in column B.
TABLE = {
    "A1": BLANK, "B1": "blank skipped",
    "A2": "Apple", "B2": "first Apple",
    "A3": "apple", "B3": "second apple",
    "A4": True, "B4": "TRUE",
    "A5": "", "B5": "empty text",
    "A6": "=COUNT([X]S!A1)+1", "B6": "tainted 1",
    "A7": 1, "B7": "number 1",
    "A8": False, "B8": "FALSE",
    "A9": 0, "B9": "zero",
    "A10": NAN, "B10": "NaN",
    "A11": 5, "B11": CellValue.error("#N/A"),
    "A12": CellValue.error("#DIV/0!"), "B12": "first error",
    "A13": "late", "B13": "behind the error",
    "A14": CellValue.error("#N/A"), "B14": "second error",
    "C1": NAN,
}
LOOKUPS = {
    "D1": ('"APPLE"', "first Apple"),          # text matches casefolded, first row wins
    "D2": ("TRUE", "TRUE"),                    # TRUE is not the number 1
    "D3": ("1", "tainted 1"),                  # the tainted formula is the first 1
    "D4": ("Z1", "empty text"),                # a blank key: first of 0, "" or FALSE
    "D5": ("5", "NaN"),                        # NaN equals every number key
    "D6": ('"late"', CellValue.error("#DIV/0!")),  # the first error stops the scan
    "D7": ('"pear"', CellValue.error("#DIV/0!")),
    "D8": ("FALSE", "FALSE"),
    "D9": ("C1", "tainted 1"),                 # a NaN key equals the first number
    "E1": ('"Apple"', CellValue.error("#DIV/0!")),  # over A7:B14, below the tainted cell
    "E3": ("Z1", "FALSE"),                     # over A7:B14: FALSE comes before 0
}


def lookup_table() -> Workbook:
    cells = dict(TABLE)
    for a1, (key, _) in LOOKUPS.items():
        table = "A7:B14" if a1 in ("E1", "E3") else "A1:B14"
        cells[a1] = f"=VLOOKUP({key},{table},2,FALSE)"
    cells["E2"] = "=SUM(A1:B14)"  # a multi-column read: B11 is the first error in (row, col) order
    return make_workbook({"S": cells})


def test_lookup_table_cases():
    wb = lookup_table()
    engine = Engine(wb)
    engine.run()
    for a1, (_, expected) in LOOKUPS.items():
        want = expected if isinstance(expected, CellValue) else CellValue.text(expected)
        assert engine.values[addr("S", a1)] == want, a1
    assert engine.values[addr("S", "E2")] == CellValue.error("#N/A")
    tainted = {a.a1() for a in engine.tainted}
    assert tainted == {"A6", "D3", "D5", "D6", "D7", "D8", "D9", "E2"}
    assert outcome(Engine, wb) == outcome(ScanEngine, wb)


def test_each_key_column_cell_is_read_once_per_engine(monkeypatch):
    """2,000 lookups over one 5,000-row table read the key column once."""
    rows, lookups = 5000, 2000
    cells = {}
    for r in range(1, rows + 1):
        cells[f"A{r}"] = float((r * 7919) % rows)
        cells[f"B{r}"] = float(r)
    for r in range(1, lookups + 1):
        cells[f"D{r}"] = f"=VLOOKUP({(r * 13) % rows},$A$1:$B${rows},2,FALSE)"
    wb = make_workbook({"S": cells})

    reads = []
    original = Engine._read

    def counting_read(self, column, lo, hi):
        reads.append(hi - lo)
        return original(self, column, lo, hi)

    monkeypatch.setattr(Engine, "_read", counting_read)
    engine = Engine(wb)
    engine.run()
    assert sum(reads) == rows
    for r in (1, 777, lookups):
        key = (r * 13) % rows
        row = next(q for q in range(1, rows + 1) if (q * 7919) % rows == key)
        assert engine.values[addr("S", f"D{r}")] == CellValue.number(row)


def test_reading_an_unevaluated_formula_raises():
    """The order check: a range or lookup that reaches a formula cell not yet evaluated."""
    wb = make_workbook({"S": {"A1": 3, "A2": "=A1+1", "B1": "=SUM(A1:A2)",
                              "B2": "=VLOOKUP(4,A1:A2,1,FALSE)"}})
    cells = parse_all_formulas(wb).cells
    total, lookup = cells[addr("S", "B1")], cells[addr("S", "B2")]
    sheet = wb.sheet("S")
    for cell in (total, lookup):
        with pytest.raises(RuntimeError, match="not yet evaluated"):
            compile_template(cell[0])(Engine(wb), cell, sheet)
    engine = Engine(wb)
    engine.run()
    assert compile_template(total[0])(engine, total, sheet) == CellValue.number(7)
    assert compile_template(lookup[0])(engine, lookup, sheet) == CellValue.number(4)


# Running totals: a fixed head row over one column, read from the engine's
# prefix records, against ScanEngine, which reads every range in full. BIG
# holds numbers whose sums cancel or overflow, drawn as often as any input.
BIG = [0.0, -0.0, 0.1, 1.0, 1e16, -1e16, 3.3e200, -3.3e200, 1e308, -1e308]
PREFIX_FORMULAS = FORMULAS + ["=1E308", "=-1E308", "=3.3E200", "=-0", "=SUM($A$1:A9)"]
PREFIX_CELL = st.one_of(
    st.none(),
    st.sampled_from(INPUTS + [CellValue.number(math.inf), CellValue.number(-math.inf)]).map(
        lambda v: Cell(cached=v)
    ),
    st.sampled_from(BIG).map(lambda x: Cell(cached=CellValue.number(x))),
    st.sampled_from(BIG).map(lambda x: Cell(cached=CellValue.number(x))),
    st.sampled_from(PREFIX_FORMULAS).map(lambda f: Cell(formula=f, cached=CellValue.number(2.0))),
)
PREFIX_ROWS = 9


@st.composite
def running_totals(draw) -> Workbook:
    """Column A: data; B: running totals over A; C: running totals over B."""
    cells: dict[tuple[int, int], Cell] = {}
    for row in range(1, PREFIX_ROWS + 1):
        got = draw(PREFIX_CELL)
        if got is not None:
            cells[1, row] = got
    heads = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    for col, over in ((2, "A"), (3, "B")):
        for row in range(1, PREFIX_ROWS + 1):
            head = draw(st.sampled_from(heads))
            tail = draw(st.integers(1, PREFIX_ROWS + 1))
            # the head corner may come first or last, and the sheet named or not
            corners = [f"${over}${head}", f"{over}{tail}"]
            if draw(st.booleans()):
                corners.reverse()
            qualifier = draw(st.sampled_from(["", "S!", "[X]S!"]))
            cells[col, row] = Cell(
                formula=f"={draw(AGGREGATE)}({qualifier}{':'.join(corners)})",
                cached=draw(CACHED),
            )
    return Workbook(sheets=[Sheet("S", cells)])


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(running_totals())
def test_running_totals_match_the_scan_oracle(wb):
    assert outcome(Engine, wb) == outcome(ScanEngine, wb)


# Per aggregate and column of data, the value over A1:A{n} for n = 1, 2, ...
RUNNING_CASES = [
    ("MIN", [0.0, -0.0], [0.0, 0.0]),         # equal values keep the first, as min() does
    ("MIN", [-0.0, 0.0], [-0.0, -0.0]),
    ("MAX", [-0.0, 0.0, -0.0], [-0.0, -0.0, -0.0]),
    ("SUM", [3.3e200, 0.1, -3.3e200], [3.3e200, 3.3e200, 0.1]),   # exact, as fsum
    ("SUM", [0.1] * 10, [math.fsum([0.1] * n) for n in range(1, 11)]),
    ("SUM", [1e308, 1e308, -1e308], [1e308, "#VALUE!", "#VALUE!"]),  # fsum overflows
    ("AVERAGE", [None, "x", 4.0, 2.0], ["#DIV/0!", "#DIV/0!", 4.0, 3.0]),
    ("COUNT", [1.0, CellValue.error("#N/A"), True, 2.0], [1.0, 1.0, 1.0, 2.0]),
    ("MAX", [1.0, CellValue.error("#N/A"), 5.0], [1.0, "#N/A", "#N/A"]),
]


@pytest.mark.parametrize("name, column, expected", RUNNING_CASES)
def test_running_total_cases(name, column, expected):
    cells = {f"A{r}": v for r, v in enumerate(column, start=1) if v is not None}
    cells.update({f"B{r}": f"={name}($A$1:A{r})" for r in range(1, len(column) + 1)})
    wb = make_workbook({"S": cells})
    engine = Engine(wb)
    engine.run()
    got = [engine.values[addr("S", f"B{r}")] for r in range(1, len(column) + 1)]
    want = [CellValue.error(x) if isinstance(x, str) else CellValue.number(x) for x in expected]
    assert list(map(plain, got)) == list(map(plain, want))
    assert outcome(Engine, wb) == outcome(ScanEngine, wb)
