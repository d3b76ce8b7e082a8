"""The engine's former slow paths for range reads and exact-match lookups.

:class:`ScanEngine` reads a range by filtering a sorted list of every
stored cell on the sheet, and answers ``VLOOKUP`` by scanning the key
column in row order. It keeps no column records either, so a running total
is read in full like any other range. The engine itself reads ranges
column by column, and answers running totals and lookups from one record
per sheet, column and head row; tests compare the two.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from sheetsentry.evaluate import Engine, _compare
from sheetsentry.formula import RangeRef
from sheetsentry.workbook import CellValue, Sheet, ValueKind

_NA = CellValue.error("#N/A")


def _stored(sheet: Sheet) -> list[tuple[int, int]]:
    return sorted((row, col) for (col, row) in sheet.cells)


class ScanEngine(Engine):
    def _prefix_aggregate(self, name, sheet, col, head, tail):
        return None  # every running total is read as a range

    def _iter_range_cells(self, rng: RangeRef, origin_sheet: str):
        found = self._sheet(rng, origin_sheet)
        if found is None:
            return None
        stored = _stored(found)
        c1, r1, c2, r2 = rng.start.col, rng.start.row, rng.end.col, rng.end.row
        lo = bisect_left(stored, (r1, 0))
        hi = bisect_right(stored, (r2, 1 << 30))
        return [
            self._cell_value(found, col, row)
            for row, col in stored[lo:hi]
            if c1 <= col <= c2
        ]

    def _lookup_exact(self, key: CellValue, sheet: Sheet, rng: RangeRef, offset: int):
        stored = _stored(sheet)
        lo = bisect_left(stored, (rng.start.row, 0))
        hi = bisect_right(stored, (rng.end.row, 1 << 30))
        first_col = rng.start.col
        for row, col in stored[lo:hi]:
            if col != first_col:
                continue
            candidate = self._cell_value(sheet, col, row)
            if candidate.kind is ValueKind.ERROR:
                return candidate
            if candidate.is_blank():
                continue
            if _compare("=", key, candidate).value:
                return self._cell_value(sheet, first_col + offset, row)
        return _NA
