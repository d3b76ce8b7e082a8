"""Arbitrary JSON documents: the workbook and rule-config loaders are total.

Each loader either returns or raises a :class:`SheetSentryError`. Fully
random documents rarely get past the top-level checks, so half the draws
are near-valid skeletons (the right keys, with any JSON at each value) that
reach sheets, cells, values and every config field.
"""

from __future__ import annotations

from dataclasses import fields

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sheetsentry.errors import SheetSentryError
from sheetsentry.rules import RULES, RuleConfig
from sheetsentry.workbook import ERROR_CODES, workbook_from_dict

from conftest import fuzz_examples

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**400), 10**400)  # past the float range too
    | st.floats()  # NaN and infinities, as json.loads can return them
    | st.text(max_size=8)
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


def mostly(valid, odds: int = 16):
    """``valid``, except that one draw in ``odds`` is any JSON value."""
    return st.integers(1, odds).flatmap(lambda i: JSON if i == 1 else valid)


ERROR_VALUES = st.builds(lambda code: {"err": code}, mostly(st.sampled_from(sorted(ERROR_CODES)), 2))
CELL_KEYS = st.sampled_from(
    ["A1", "B2", "C3", "ZZZ1048576"] * 8 + ["AAAA1", "A1048577", "A0", "a1", "A" + "1" * 5000]
)
CELLS = st.dictionaries(CELL_KEYS, mostly(st.fixed_dictionaries({}, optional={
    "f": mostly(st.sampled_from(["=1", "=A1+1", "="])),
    "v": st.one_of(SCALARS, ERROR_VALUES, JSON),
})), max_size=4)
SHEETS = st.lists(
    mostly(st.fixed_dictionaries({"name": mostly(st.text(min_size=1, max_size=3))}, optional={
        "cells": mostly(CELLS),
    })),
    min_size=1,
    max_size=3,
)
WORKBOOKS = mostly(st.fixed_dictionaries({"sheets": mostly(SHEETS)}, optional={
    "manifest": mostly(st.fixed_dictionaries({}, optional={
        "title": mostly(st.text(max_size=4)),
        "specification": mostly(st.text(max_size=4)),
        "assumptions": mostly(st.dictionaries(st.text(max_size=4), mostly(st.text(max_size=4)))),
    })),
    "settings": mostly(st.fixed_dictionaries({}, optional={
        "calc_mode": mostly(st.sampled_from(["automatic", "manual"])),
    })),
    "scripts": mostly(st.lists(mostly(st.fixed_dictionaries({
        "name": mostly(st.text(max_size=4)),
        "source": mostly(st.text(max_size=20)),
    })), max_size=3)),
}))
CONFIGS = mostly(st.fixed_dictionaries({}, optional={
    **{f.name: mostly(st.integers(1, 10) | st.floats(0, 1), 4) for f in fields(RuleConfig)},
    "enabled": mostly(st.lists(mostly(st.sampled_from(sorted(RULES))), max_size=3)),
    "const_whitelist": mostly(st.lists(SCALARS, max_size=3), 4),
}))


@settings(max_examples=fuzz_examples(300), deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(WORKBOOKS)
def test_any_document_loads_or_raises_a_typed_error(doc):
    try:
        workbook_from_dict(doc)
    except SheetSentryError:
        pass


@settings(max_examples=fuzz_examples(300), deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(CONFIGS)
def test_any_config_loads_or_raises_a_typed_error(doc):
    try:
        RuleConfig.from_dict(doc)
    except SheetSentryError:
        pass
