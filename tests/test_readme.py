"""README's Python examples run as written, against a fixture workbook."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from conftest import FIXTURES

README = Path(__file__).resolve().parents[1] / "README.md"
EXAMPLES = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_examples():
    assert EXAMPLES


@pytest.mark.parametrize("source", EXAMPLES, ids=[f"example{i}" for i in range(len(EXAMPLES))])
def test_readme_example_runs(source, capsys):
    code = source.replace('"model.wbjson"', repr(str(FIXTURES / "all_rules.json")))
    assert code != source, "the example should read model.wbjson"
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out
