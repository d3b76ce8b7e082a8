"""Random acyclic workbooks plus an independent recursive evaluator.

The generator wires formulas only to previously created cells, so the
result is acyclic by construction. The oracle evaluates by recursive
substitution with memoization -- no dependency graph, no topological
order -- and implements its own arithmetic for the restricted grammar the
generator emits (numbers, blanks, + - * /, comparisons inside IF
conditions, IF, SUM over a column range of inputs, and running totals
``SUM($C$1:C9)`` over a column of formulas).
"""

from __future__ import annotations

import math
import random

from sheetsentry.workbook import (
    BLANK,
    Cell,
    CellAddress,
    CellValue,
    Sheet,
    ValueKind,
    Workbook,
)


def random_acyclic_workbook(rng: random.Random, max_cells: int = 50) -> Workbook:
    """Inputs in column A, formulas over earlier cells in columns B..E."""
    cells: dict[tuple[int, int], Cell] = {}
    created: list[str] = []

    input_rows = rng.randrange(3, 8)
    for row in range(1, input_rows + 1):
        if rng.random() < 0.2:
            continue  # leave a blank input to exercise blank-as-zero
        value = rng.choice([0.0, 1.0, 2.5, -3.0, float(rng.randrange(-50, 50))])
        cells[(1, row)] = Cell(cached=CellValue.number(value))
        created.append(f"A{row}")

    def operand() -> str:
        if created and rng.random() < 0.75:
            return rng.choice(created)
        return str(rng.randrange(-9, 10))

    n_formulas = rng.randrange(5, max(6, max_cells - input_rows))
    col = 2
    row = 1
    for _ in range(n_formulas):
        kind = rng.random()
        if kind < 0.45:
            op = rng.choice(["+", "-", "*", "/"])
            src = f"={operand()}{op}{operand()}"
        elif kind < 0.75:
            cmp_op = rng.choice(["<", "<=", ">", ">=", "=", "<>"])
            src = f"=IF({operand()}{cmp_op}{operand()},{operand()},{operand()})"
        elif kind < 0.87 or (col == 2 and row == 1):
            hi = rng.randrange(1, input_rows + 1)
            src = f"=SUM(A1:A{hi})"
        else:
            # a running total over a formula column, read up to a created row
            over = rng.randrange(2, col + (row > 1))
            last = row - 1 if over == col else 12
            src = f"=SUM(${chr(64 + over)}$1:{chr(64 + over)}{rng.randrange(1, last + 1)})"
        name = f"{chr(64 + col)}{row}"
        cells[(col, row)] = Cell(formula=src, cached=BLANK)
        created.append(name)
        row += 1
        if row > 12:
            row = 1
            col += 1
    return Workbook(sheets=[Sheet("S", cells)])


# --- independent recursive-substitution oracle -------------------------------


DIV0 = "#DIV/0!"
CIRC = "#CIRC!"


def oracle_evaluate(wb: Workbook) -> dict[CellAddress, object]:
    """Map each formula cell to a float, bool, or error-code string."""
    sheet = wb.sheets[0]
    memo: dict[str, object] = {}
    visiting: set[str] = set()

    def lookup(name: str) -> object:
        col = ord(name[0]) - 64
        row = int(name[1:])
        cell = sheet.cells.get((col, row))
        if cell is None:
            return 0.0  # blank input acts as zero
        if cell.formula is None:
            return cell.cached.value
        return evaluate(name, cell.formula)

    def atom(text: str) -> object:
        if text[0].isalpha():
            return lookup(text)
        return float(text)

    def evaluate(name: str, src: str) -> object:
        if name in memo:
            return memo[name]
        if name in visiting:
            return CIRC
        visiting.add(name)
        result = eval_src(src[1:])
        visiting.discard(name)
        memo[name] = result
        return result

    def eval_src(body: str) -> object:
        if body.startswith("IF("):
            inner = body[3:-1]
            cond, then_part, else_part = split_args(inner)
            flag = eval_condition(cond)
            if isinstance(flag, str):
                return flag
            branch = then_part if flag else else_part
            return atom_or_error(branch)
        if body.startswith("SUM("):
            # SUM(A1:A9) over inputs, or SUM($C$1:C9) over formulas
            start, end = body[4:-1].split(":")
            letter, hi = end[0], int(end[1:])
            total = []
            for row in range(1, hi + 1):
                if (ord(letter) - 64, row) in sheet.cells:
                    value = lookup(f"{letter}{row}")
                    if isinstance(value, str):
                        return value  # the first error in row order
                    total.append(value)
            return math.fsum(total)
        return eval_binary(body)

    def split_args(inner: str):
        parts = []
        depth = 0
        start = 0
        for i, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                parts.append(inner[start:i])
                start = i + 1
        parts.append(inner[start:])
        return parts

    def find_operator(body: str, ops) -> tuple[str, int] | None:
        # operands are single atoms (possibly negative literals), so the
        # operator is the first op character after position 0
        for i in range(1, len(body)):
            two = body[i : i + 2]
            if two in ops:
                return two, i
            if body[i] in ops:
                return body[i], i
        return None

    def eval_condition(cond: str) -> object:
        hit = find_operator(cond, ("<=", ">=", "<>", "<", ">", "="))
        op, pos = hit
        left = atom_or_error(cond[:pos])
        right = atom_or_error(cond[pos + len(op) :])
        if isinstance(left, str):
            return left
        if isinstance(right, str):
            return right
        lnum = coerce(left)
        rnum = coerce(right)
        return {
            "<": lnum < rnum,
            "<=": lnum <= rnum,
            ">": lnum > rnum,
            ">=": lnum >= rnum,
            "=": lnum == rnum,
            "<>": lnum != rnum,
        }[op]

    def coerce(value: object) -> float:
        if isinstance(value, bool):
            return 1.0 if value else 0.0
        return float(value)

    def atom_or_error(text: str) -> object:
        if text.startswith("-"):
            inner = atom_or_error(text[1:])
            if isinstance(inner, str):
                return inner
            return -coerce(inner)
        return atom(text)

    def eval_binary(body: str) -> object:
        hit = find_operator(body, ("+", "-", "*", "/"))
        op, pos = hit
        left = atom_or_error(body[:pos])
        if isinstance(left, str):
            return left
        right = atom_or_error(body[pos + len(op) :])
        if isinstance(right, str):
            return right
        a, b = coerce(left), coerce(right)
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if b == 0:
            return DIV0
        return a / b

    results: dict[CellAddress, object] = {}
    for (col, row), cell in sheet.cells.items():
        if cell.formula is None:
            continue
        name = f"{chr(64 + col)}{row}"
        results[CellAddress("S", col, row)] = evaluate(name, cell.formula)
    return results


def engine_to_plain(value: CellValue) -> object:
    """Project engine values into the oracle's value space."""
    if value.kind is ValueKind.NUMBER:
        return value.value
    if value.kind is ValueKind.BOOLEAN:
        return value.value
    if value.kind is ValueKind.ERROR:
        return value.value
    if value.kind is ValueKind.BLANK:
        return 0.0
    return value.value
