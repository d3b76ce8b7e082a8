"""The engine's former slow path for evaluation: a walk over each cell's AST.

:class:`TreeEngine` evaluates every formula cell by interpreting its AST,
node by node, as the engine did before formulas were compiled per
template. The tests check that the compiled evaluators give the same
values, taint, ``#CIRC!`` cells and external exclusions.

:func:`fill` builds a formula cell's AST from its template and its hole
values, as the package did before the parser became the one AST builder.
It serves :class:`TreeEngine` and the property that a hit in a table of
shapes gives the cell that the text's own parse gives.
"""

from __future__ import annotations

import math

from sheetsentry.evaluate import (
    _DIV0,
    _FALSE,
    _NAME_ERR,
    _REF_ERR,
    _TRUE,
    _VALUE_ERR,
    Engine,
    _compare,
    _finite,
    _round_half_away,
    _to_bool,
    _to_number,
    _to_text,
)
from sheetsentry.formula import (
    Binary,
    BoolLit,
    Call,
    FormulaAst,
    NumberLit,
    Range,
    Ref,
    Reference,
    TextLit,
    Unary,
)
from sheetsentry.workbook import CellValue, Sheet, ValueKind


def fill(cell: tuple) -> FormulaAst:
    """The AST of formula cell ``cell``: a fresh copy of its template's AST
    holding the cell's hole values."""
    template = cell[0]

    def put(node: FormulaAst) -> FormulaAst:
        if isinstance(node, (Ref, Range)):
            return type(node)(template.reference(cell, node))
        if isinstance(node, NumberLit):
            return NumberLit(cell[template.slots[id(node)][0]])
        if isinstance(node, Binary):
            return Binary(node.op, put(node.left), put(node.right))
        if isinstance(node, Unary):
            return Unary(node.op, put(node.operand))
        if isinstance(node, Call):
            return Call(node.name, tuple(map(put, node.args)))
        return node  # no values below: text, boolean

    return put(template.ast)


class TreeEngine(Engine):
    def _compile(self, template):
        return TreeEngine._walk  # the same walk for every template

    def _walk(self, cell: tuple, sheet: Sheet) -> CellValue:
        return self._eval(fill(cell), sheet.name)

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
            return _compare(op, left, right)
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
