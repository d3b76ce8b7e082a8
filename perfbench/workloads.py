"""Seeded workbook generators for the audit benchmark.

Each generator builds a workbook in the JSON interchange format together
with the results an audit of it must report. Those expected results come
from the generator's own model of what it wrote -- which cell reads which,
which formulas are copies of one another, which literals each formula
holds -- and never from sheetsentry, so a wrong report cannot agree with
itself.

The three workloads stress different layers; README.md in this directory
says why each exists. The same seed always yields the same bytes.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass

ERROR_RATE = 0.01                      # sheetsentry's default p per unique formula
NUMERIC_TOLERANCE = 1e-9               # documented staleness tolerance
CONST_WHITELIST = {0.0, 1.0, -1.0, 100.0}
CONST_MIN_REPEATS = 3
MAX_BRANCHES = 4
MAX_FORMULA_TOKENS = 40
MIN_COPY_CLASS_FOR_HOLE = 5
LOOKUP_COST_THRESHOLD = 1000
ERROR_RULES = {"STALE_VALUE", "COPY_CLASS_HOLE"}   # severity "error": exit code 1

# Token shapes from docs/grammar.md, enough for the formulas written here.
_TOKEN_RE = re.compile(
    r"'[^']*'|\$?[A-Za-z]{1,3}\$?[1-9][0-9]*(?![A-Za-z0-9_.])|[A-Za-z_][A-Za-z0-9_.]*"
    r"|[0-9]+(?:\.[0-9]+)?|<>|<=|>=|[-+*/^&=<>(),:!\[\]]"
)


def count_tokens(formula: str) -> int:
    return len(_TOKEN_RE.findall(formula[1:]))


def col_letters(col: int) -> str:
    out = ""
    while col:
        col, rem = divmod(col - 1, 26)
        out = chr(65 + rem) + out
    return out


def a1(col: int, row: int) -> str:
    return f"{col_letters(col)}{row}"


@dataclass(frozen=True)
class Formula:
    sheet: str
    col: int
    row: int
    text: str
    klass: str                 # copy-class key: equal keys <=> copies of one formula
    literals: frozenset        # numeric literals in the formula, as floats
    reads: tuple               # (sheet, c1, r1, c2, r2) rectangles this formula reads
    ifs: int = 0               # IF calls
    lookup_rows: int = 0       # VLOOKUP table rows (0: no lookup)


class Book:
    """A workbook under construction plus the model the expected results come from.

    Values are computed twice: ``saved`` from the inputs as they were when the
    file was last recalculated (these become the cached values), ``current``
    from the inputs as stored now. An edited input differs between the two.
    """

    def __init__(self, sheets: list[str]) -> None:
        self.cells: dict[str, dict[str, dict]] = {name: {} for name in sheets}
        self.saved: dict[tuple, float] = {}
        self.current: dict[tuple, float] = {}
        self.formulas: list[Formula] = []
        self.edited: set[tuple] = set()
        self.excluded: set[tuple] = set()   # external-link cells: never checked for staleness
        self.manifest: dict = {}
        self.settings: dict = {}
        self.scripts: list[dict] = []
        self.external_books: dict[str, bool] = {}   # book -> recorded in assumptions

    def put(self, sheet: str, col: int, row: int, value: float, saved: float | None = None) -> None:
        key = (sheet, col, row)
        self.current[key] = value
        self.saved[key] = value if saved is None else saved
        if saved is not None and saved != value:
            self.edited.add(key)
        self.cells[sheet][a1(col, row)] = {"v": _json_number(value)}

    def formula(self, f: Formula, compute) -> None:
        """Add a formula cell; ``compute(get)`` returns its value given a cell getter."""
        key = (f.sheet, f.col, f.row)
        self.saved[key] = compute(lambda s, c, r: self.saved.get((s, c, r), 0.0))
        self.current[key] = compute(lambda s, c, r: self.current.get((s, c, r), 0.0))
        self.cells[f.sheet][a1(f.col, f.row)] = {"f": f.text, "v": _json_number(self.saved[key])}
        self.formulas.append(f)

    def external(self, sheet: str, col: int, row: int, book: str, target: str,
                 documented: bool, cached: float) -> None:
        text = f"=[{book}]{target}"
        self.cells[sheet][a1(col, row)] = {"f": text, "v": cached}
        self.excluded.add((sheet, col, row))
        self.external_books[book] = documented
        self.formulas.append(
            Formula(sheet, col, row, text, f"ext:{book}:{target}", frozenset(), ())
        )

    # -- output

    def document(self) -> dict:
        doc: dict = {}
        if self.manifest:
            doc["manifest"] = self.manifest
        if self.settings:
            doc["settings"] = self.settings
        doc["sheets"] = [{"name": name, "cells": cells} for name, cells in self.cells.items()]
        if self.scripts:
            doc["scripts"] = self.scripts
        return doc

    def truth(self) -> dict:
        classes: dict[str, list[Formula]] = {}
        for f in self.formulas:
            classes.setdefault(f.klass, []).append(f)
        stale = self._stale()
        closure = self._closure()
        if stale != closure:
            raise AssertionError(
                f"generator bug: {len(stale)} changed values vs closure of {len(closure)}"
            )
        findings = {
            "SPEC_MISSING": 0 if self.manifest.get("specification") else 1,
            "STALE_VALUE": len(stale),
            "EXTERNAL_LINK": len(self.external_books),
            "UNDOCUMENTED_IMPORT": sum(1 for ok in self.external_books.values() if not ok),
            "COPY_CLASS_HOLE": self._holes(classes),
            "HARDCODED_CONSTANT": _repeated_constants(classes),
            "DEEP_NESTING": sum(1 for fs in classes.values() if fs[0].ifs + 1 > MAX_BRANCHES),
            "LONG_FORMULA": sum(
                1 for fs in classes.values() if count_tokens(fs[0].text) > MAX_FORMULA_TOKENS
            ),
            "SCRIPT_QUALITY": len(self.scripts),
            "MANUAL_CALC": 1 if self.settings.get("calc_mode") == "manual" else 0,
            "LOOKUP_HOTSPOT": sum(
                1 for fs in classes.values()
                if fs[0].lookup_rows and 1 + fs[0].lookup_rows > LOOKUP_COST_THRESHOLD
            ),
        }
        n = len(classes)
        return {
            "formula_cells": len(self.formulas),
            "unique_formulae": n,
            "error_probability_pct": round(100.0 * (1.0 - (1.0 - ERROR_RATE) ** n)),
            "stale": sorted(f"{s}!{a1(c, r)}" for s, c, r in stale),
            "findings": {rule: count for rule, count in sorted(findings.items()) if count},
            "exit_code": 1 if any(findings[r] for r in ERROR_RULES) else 0,
        }

    def _stale(self) -> set[tuple]:
        out = set()
        for f in self.formulas:
            key = (f.sheet, f.col, f.row)
            if key in self.excluded:
                continue
            cached, now = self.saved[key], self.current[key]
            if abs(cached - now) > NUMERIC_TOLERANCE * max(1.0, abs(now)):
                out.add(key)
        return out

    def _closure(self) -> set[tuple]:
        """Formula cells that read an edited input, directly or through other
        formulas. Formulas were added in dependency order, so one pass suffices."""
        dirty = set(self.edited)
        out = set()
        for f in self.formulas:
            for sheet, c1, r1, c2, r2 in f.reads:
                if (c2 - c1 + 1) * (r2 - r1 + 1) <= len(dirty):
                    hit = any((sheet, c, r) in dirty
                              for c in range(c1, c2 + 1) for r in range(r1, r2 + 1))
                else:
                    hit = any(s == sheet and c1 <= c <= c2 and r1 <= r <= r2
                              for s, c, r in dirty)
                if hit:
                    key = (f.sheet, f.col, f.row)
                    dirty.add(key)
                    out.add(key)
                    break
        return out

    def _holes(self, classes: dict[str, list[Formula]]) -> int:
        holes = 0
        for fs in classes.values():
            if len(fs) < MIN_COPY_CLASS_FOR_HOLE or len({f.sheet for f in fs}) != 1:
                continue
            sheet = fs[0].sheet
            cols, rows = {f.col for f in fs}, {f.row for f in fs}
            if len(cols) == 1:
                col = next(iter(cols))
                gaps = [(col, r) for r in range(min(rows), max(rows) + 1) if r not in rows]
            elif len(rows) == 1:
                row = next(iter(rows))
                gaps = [(c, row) for c in range(min(cols), max(cols) + 1) if c not in cols]
            else:
                continue
            holes += sum(1 for c, r in gaps if "v" in self.cells[sheet].get(a1(c, r), {})
                         and "f" not in self.cells[sheet][a1(c, r)])
        return holes


def _repeated_constants(classes: dict[str, list[Formula]]) -> int:
    seen: dict[float, int] = {}
    for fs in classes.values():
        for value in fs[0].literals:
            seen[value] = seen.get(value, 0) + 1
    return sum(1 for v, n in seen.items() if n >= CONST_MIN_REPEATS and v not in CONST_WHITELIST)


def _json_number(x: float):
    return int(x) if float(x).is_integer() and abs(x) < 2**53 else x


def _cell(sheet: str, col: int, row: int) -> tuple:
    return (sheet, col, row, col, row)


# --- workloads ---------------------------------------------------------------


def copy_grid(rng: random.Random) -> Book:
    """100,000 formula cells in 400 copy classes: ``=A{r}*k`` over one
    250-row input column, one column per constant k. No findings."""
    rows, n_classes = 250, 400
    book = Book(["Grid"])
    book.manifest = {"specification": "scaled copies of one input column"}
    for r in range(1, rows + 1):
        book.put("Grid", 1, r, float(rng.randint(1, 999)))
    constants = rng.sample(range(2, 10_000), n_classes + 1)
    constants = [k for k in constants if k != 100][:n_classes]
    for i, k in enumerate(constants):
        col = 2 + i
        for r in range(1, rows + 1):
            book.formula(
                Formula("Grid", col, r, f"=A{r}*{k}", f"mul:{k}",
                        frozenset({float(k)}), (_cell("Grid", 1, r),)),
                lambda get, r=r, k=k: get("Grid", 1, r) * k,
            )
    return book


def range_model(rng: random.Random) -> Book:
    """800 running totals ``=SUM($B$2:B{r})`` and 400 exact-match VLOOKUPs
    into a shuffled 1,000-row table: 1,200 formula cells in 2 copy classes
    but about 1.1 M range-expanded graph edges."""
    totals, table_rows, lookups = 800, 1000, 400
    s = "Model"
    book = Book([s])
    book.manifest = {"specification": "running totals and a keyed price lookup"}
    for r in range(2, totals + 2):
        book.put(s, 2, r, float(rng.randint(1, 1000)))
    for r in range(2, totals + 2):
        book.formula(
            Formula(s, 3, r, f"=SUM($B$2:B{r})", "runsum", frozenset(), ((s, 2, 2, 2, r),)),
            lambda get, r=r: math.fsum(get(s, 2, q) for q in range(2, r + 1)),
        )
    keys = rng.sample(range(1000, 1_000_000), table_rows)
    for i, key in enumerate(keys):
        book.put(s, 4, 2 + i, float(key))
        book.put(s, 5, 2 + i, float(rng.randint(1, 100_000)))
    price = {key: book.current[(s, 5, 2 + i)] for i, key in enumerate(keys)}
    last = table_rows + 1
    for r in range(2, lookups + 2):
        key = rng.choice(keys)
        book.put(s, 7, r, float(key))
        book.formula(
            Formula(s, 8, r, f"=VLOOKUP(G{r},$D$2:$E${last},2,FALSE)", "vlookup",
                    frozenset({2.0}), (_cell(s, 7, r), (s, 4, 2, 5, last)),
                    lookup_rows=table_rows),
            lambda get, key=key: price[key],
        )
    return book


SCRIPT_LINES = 150


def audit_mix(rng: random.Random) -> Book:
    """Three sheets, about 40,000 formula cells with roughly two cells per
    copy class, on which every one of the 11 rules fires.

    Calc!A holds one uniquely scaled copy of each input (20,000 classes of
    one cell); Calc!B is a 20,000-long running balance over that formula
    column. Edited inputs near the bottom leave their closure -- about 4,000
    balance cells and the summaries reading them -- stale.
    """
    n, stale_span, table_rows, lookups = 20_000, 4_000, 1200, 40
    book = Book(["Inputs", "Calc", "Summary"])
    book.manifest = {
        "title": "mixed audit model",
        "assumptions": {"rate_source": "rates.xlsx, treasury curve at close"},
    }
    book.settings = {"calc_mode": "manual"}

    # Inputs: one column of inputs, some edited since the last recalculation.
    first_edit = n - stale_span + 1
    edits = {first_edit, *rng.sample(range(first_edit + 1, n + 1), 2)}
    for r in range(1, n + 1):
        saved = float(rng.randint(1, 999))
        book.put("Inputs", 1, r, saved + rng.randint(100, 900) if r in edits else saved, saved)
    book.external("Inputs", 3, 1, "rates.xlsx", "Curve!B2", documented=True, cached=1.05)
    book.external("Inputs", 3, 2, "fx.xlsx", "Rates!C3", documented=False, cached=0.92)
    keys = rng.sample(range(1000, 1_000_000), table_rows)
    for i, key in enumerate(keys):
        book.put("Inputs", 5, 1 + i, float(key))
        book.put("Inputs", 6, 1 + i, float(rng.randint(1, 100_000)))
    price = {key: book.current[("Inputs", 6, 1 + i)] for i, key in enumerate(keys)}
    for r in range(1, lookups + 1):
        book.put("Inputs", 4, r, float(rng.choice(keys)))

    # Calc: unique scale factors, then the running balance over them.
    factors = rng.sample(range(1000, 100_000), n)
    for r, k in enumerate(factors, start=1):
        book.formula(
            Formula("Calc", 1, r, f"=Inputs!A{r}*{k}", f"scale:{k}",
                    frozenset({float(k)}), (_cell("Inputs", 1, r),)),
            lambda get, r=r, k=k: get("Inputs", 1, r) * k,
        )
    book.formula(Formula("Calc", 2, 1, "=A1", "bal0", frozenset(), (_cell("Calc", 1, 1),)),
                 lambda get: get("Calc", 1, 1))
    for r in range(2, n + 1):
        book.formula(
            Formula("Calc", 2, r, f"=B{r - 1}+A{r}", "bal", frozenset(),
                    (_cell("Calc", 2, r - 1), _cell("Calc", 1, r))),
            lambda get, r=r: get("Calc", 2, r - 1) + get("Calc", 1, r),
        )

    s = "Summary"
    vat = 1.19
    magic = frozenset({vat})
    book.formula(Formula(s, 1, 1, f"=Calc!B{n}*{vat}", "gross", magic, (_cell("Calc", 2, n),)),
                 lambda get: get("Calc", 2, n) * vat)
    book.formula(
        Formula(s, 1, 2, f"=SUM(Calc!A1:A{n})*{vat}", "sum_gross", magic, (("Calc", 1, 1, 1, n),)),
        lambda get: math.fsum(get("Calc", 1, r) for r in range(1, n + 1)) * vat,
    )
    book.formula(
        Formula(s, 1, 3, f"=Inputs!A1*{vat}+Inputs!A2", "first_gross", magic,
                (_cell("Inputs", 1, 1), _cell("Inputs", 1, 2))),
        lambda get: get("Inputs", 1, 1) * vat + get("Inputs", 1, 2),
    )
    book.formula(
        Formula(s, 1, 4, f"=(Calc!B{n}-Calc!B1)/{vat}", "net_growth", magic,
                (_cell("Calc", 2, n), _cell("Calc", 2, 1))),
        lambda get: (get("Calc", 2, n) - get("Calc", 2, 1)) / vat,
    )

    # Summary!B pulls the first rows of Calc!A; the shapes below read it.
    pulled = 60
    for r in range(1, pulled + 1):
        book.formula(Formula(s, 2, r, f"=Calc!A{r}", "pull", frozenset(), (_cell("Calc", 1, r),)),
                     lambda get, r=r: get("Calc", 1, r))

    # A copied run with one literal pasted over a formula.
    hole = rng.randint(5, 25)
    for r in range(1, 31):
        if r == hole:
            book.put(s, 3, r, 12345.0)
            continue
        book.formula(
            Formula(s, 3, r, f"=Calc!A{r}+Calc!B{r}", "pair", frozenset(),
                    (_cell("Calc", 1, r), _cell("Calc", 2, r))),
            lambda get, r=r: get("Calc", 1, r) + get("Calc", 2, r),
        )

    # Three nested-IF banding tables, each copied down 40 rows.
    thresholds = rng.sample(range(101, 1000), 12)
    for t in range(3):
        cuts = sorted(thresholds[4 * t:4 * t + 4], reverse=True)
        for r in range(1, 41):
            text = "=" + "".join(f"IF(B{r}>{c * 10_000},{5 - i}," for i, c in enumerate(cuts))
            text += "1" + ")" * 4
            book.formula(
                Formula(s, 4 + t, r, text, f"band:{t}",
                        frozenset({float(c * 10_000) for c in cuts} | {5.0, 4.0, 3.0, 2.0, 1.0}),
                        (_cell(s, 2, r),), ifs=4),
                lambda get, r=r, cuts=cuts: next(
                    (5.0 - i for i, c in enumerate(cuts) if get(s, 2, r) > c * 10_000), 1.0),
            )

    # Long formulas: a 25-term window sum and a 30-term window mean.
    for r in range(1, 11):
        terms = [f"B{r + i}" for i in range(25)]
        book.formula(
            Formula(s, 7, r, "=" + "+".join(terms), "window25", frozenset(), ((s, 2, r, 2, r + 24),)),
            lambda get, r=r: _left_sum(get(s, 2, r + i) for i in range(25)),
        )
        terms = [f"B{r + i}" for i in range(30)]
        book.formula(
            Formula(s, 8, r, "=(" + "+".join(terms) + ")/20", "window30", frozenset({20.0}),
                    ((s, 2, r, 2, r + 29),)),
            lambda get, r=r: _left_sum(get(s, 2, r + i) for i in range(30)) / 20,
        )

    # Keyed lookups into a 1,200-row table on Inputs.
    for r in range(1, lookups + 1):
        key = book.current[("Inputs", 4, r)]
        book.formula(
            Formula(s, 9, r, f"=VLOOKUP(Inputs!D{r},Inputs!$E$1:$F${table_rows},2,FALSE)",
                    "lookup", frozenset({2.0}),
                    (_cell("Inputs", 4, r), ("Inputs", 5, 1, 6, table_rows)),
                    lookup_rows=table_rows),
            lambda get, key=key: price[key],
        )

    lines = ["Sub Recalc()"]
    lines += [f"total = total + Range(\"Calc!A{i}\").Value * {i}" for i in range(1, SCRIPT_LINES - 1)]
    lines.append("End Sub")
    book.scripts = [{"name": "Module1", "source": "\n".join(lines) + "\n"}]
    return book


def _left_sum(values) -> float:
    total = None
    for v in values:
        total = v if total is None else total + v
    return total


WORKLOADS = {"copy_grid": copy_grid, "range_model": range_model, "audit_mix": audit_mix}


def generate(name: str, seed: int) -> tuple[bytes, dict]:
    """Interchange-format bytes and expected audit results for one workload."""
    book = WORKLOADS[name](random.Random(f"{name}:{seed}"))
    data = json.dumps(book.document(), separators=(",", ":")).encode()
    truth = book.truth()
    truth["file_bytes"] = len(data)
    truth["cells"] = sum(len(cells) for cells in book.cells.values())
    return data, truth
