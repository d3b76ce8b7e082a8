"""Seeded random generators for formula ASTs and workbooks.

Used by the parser round-trip suite, the normalization property suite,
and the evaluator oracle suite. Everything is driven by an explicit
``random.Random`` so failures are reproducible.
"""

from __future__ import annotations

import random

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
    make_range,
)

FUNCTION_POOL = [
    "IF", "SUM", "MIN", "MAX", "AND", "OR", "NOT", "ABS",
    "ROUND", "VLOOKUP", "COUNT", "AVERAGE", "FRODD", "IPWOP", "CALC.RATE",
]
# TRUE and false lex as booleans, so a qualifier must quote them
SHEET_POOL = [None, None, None, "S1", "Data", "My Sheet", "RATES2024", "It's", "TRUE"]
EXTERNAL_POOL = ["Rates", "Book1.xlsx", "false"]
BINARY_OPS = ["+", "-", "*", "/", "^", "&", "=", "<>", "<", "<=", ">", ">="]
TEXT_ALPHABET = 'abcXYZ 019_."é'


def random_number(rng: random.Random) -> NumberLit:
    roll = rng.random()
    if roll < 0.6:
        return NumberLit(float(rng.randrange(0, 1000)))
    if roll < 0.9:
        return NumberLit(rng.randrange(1, 10000) / 100.0)
    return NumberLit(float(f"{rng.random() * 10 ** rng.randrange(-3, 6):.6g}"))


def random_reference(rng: random.Random, allow_external: bool = True) -> Reference:
    if allow_external and rng.random() < 0.1:
        return Reference(
            col=rng.randrange(1, 200),
            row=rng.randrange(1, 2000),
            abs_col=rng.random() < 0.3,
            abs_row=rng.random() < 0.3,
            sheet=rng.choice(["S1", "Data", "It's", "False"]),
            external=rng.choice(EXTERNAL_POOL),
        )
    return Reference(
        col=rng.randrange(1, 200),
        row=rng.randrange(1, 2000),
        abs_col=rng.random() < 0.3,
        abs_row=rng.random() < 0.3,
        sheet=rng.choice(SHEET_POOL),
        external=None,
    )


def random_range(rng: random.Random, allow_external: bool = True) -> Range:
    start = random_reference(rng, allow_external)
    end = Reference(
        col=min(start.col + rng.randrange(0, 10), 18278),
        row=min(start.row + rng.randrange(0, 50), 1 << 20),
        abs_col=rng.random() < 0.3,
        abs_row=rng.random() < 0.3,
        sheet=start.sheet,
        external=start.external,
    )
    return Range(make_range(start, end))


def random_text(rng: random.Random) -> TextLit:
    n = rng.randrange(0, 8)
    return TextLit("".join(rng.choice(TEXT_ALPHABET + '"') for _ in range(n)))


def random_ast(rng: random.Random, depth: int) -> FormulaAst:
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.4:
            return random_number(rng)
        if roll < 0.55:
            return random_text(rng)
        if roll < 0.65:
            return BoolLit(rng.random() < 0.5)
        if roll < 0.9:
            return Ref(random_reference(rng))
        return random_range(rng)
    roll = rng.random()
    if roll < 0.3:
        name = rng.choice(FUNCTION_POOL)
        args = tuple(random_ast(rng, depth - 1) for _ in range(rng.randrange(0, 4)))
        return Call(name, args)
    if roll < 0.45:
        return Unary(rng.choice(["-", "+"]), random_ast(rng, depth - 1))
    return Binary(
        rng.choice(BINARY_OPS),
        random_ast(rng, depth - 1),
        random_ast(rng, depth - 1),
    )
