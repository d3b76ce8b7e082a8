"""Formula text drawn from a fragment alphabet: every front-end stage is total.

The alphabet mixes references, ranges, every operator, parentheses,
calls, sheet and external qualifiers, literals at and past the float
range, and characters the lexer rejects. The audit of each one leaves
no cyclic garbage.
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sheetsentry.errors import ParseError
from sheetsentry.evaluate import recompute_workbook
from sheetsentry.formula import _BINARY_LEVEL, parse_formula
from sheetsentry.report import audit_workbook, render_json
from sheetsentry.workbook import ValueKind

from conftest import cyclic_garbage, fuzz_examples, make_workbook, strict_json

OPERANDS = ["A1", "B2", "$A$1", "D9", "A1:B2", "A1:D9", "1", "1e308", "1e999", '"x"']
OPENERS = ["", "-", "(", "SUM(", "IF(", "VLOOKUP(", "S!", "'T T'!", "[X]S!"]
FRAGMENTS = [
    *OPERANDS, *OPENERS[1:], *_BINARY_LEVEL, ")", ",", ":", "#", '"', "'",
]


@st.composite
def formulas(draw) -> str:
    """``=`` and at most 12 fragments.

    Half the draws are uniform over the alphabet. Few of those parse, so
    the other half alternate operands and operators, closing each
    parenthesis they open.
    """
    if draw(st.booleans()):
        return "=" + "".join(draw(st.lists(st.sampled_from(FRAGMENTS), max_size=12)))
    frags: list[str] = []
    for i in range(draw(st.integers(1, 3))):
        if i:
            frags.append(draw(st.sampled_from(list(_BINARY_LEVEL))))
        opener = draw(st.sampled_from(OPENERS))
        frags += [opener, draw(st.sampled_from(OPERANDS))]
        if opener.endswith("("):
            frags.append(")")
    return "=" + "".join(frags)


@settings(max_examples=fuzz_examples(400), deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(formulas())
def test_fragment_formulas_audit(formula):
    try:
        parse_formula(formula)
    except ParseError:
        return
    # D9 holds the formula, so "D9" and "A1:D9" read it back as a cycle
    wb = make_workbook({
        "S": {"A1": 1, "B2": 1e308, "A2": "x", "D9": (formula, 0)},
        "T T": {"A1": 2},
    })
    reports = []
    # the audit leaves no reference cycles, which the CLI's paused collector relies on
    assert cyclic_garbage(lambda: reports.append(audit_workbook(wb))) == 0
    strict_json(render_json(reports[0]))
    for val in recompute_workbook(wb).values():
        assert val.kind is not ValueKind.NUMBER or math.isfinite(val.value)
