"""The CLI's output on every fixture, byte for byte.

Each fixture has one file under ``tests/golden/`` holding, per command, the
exit code, standard output and standard error of ``sheetsentry`` run from
the repository root on the fixture's relative path. The tests rerun each
command in process and compare. After a deliberate change to the output,
rewrite the files with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from sheetsentry.cli import CONFIG_ENV_VAR, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden"
FIXTURE_NAMES = sorted(p.name for p in (Path(__file__).parent / "fixtures").glob("*.json"))
COMMANDS = [
    ["audit", "--format", "json"],
    ["audit", "--format", "text"],
    ["metrics", "--format", "json"],
    ["metrics", "--format", "text"],
    ["graph"],
    ["graph", "--dot"],
]


def run_cli(argv: list[str]) -> dict:
    """Exit code and output of ``sheetsentry ARGV`` run in this process from
    the repository root, with no rule configuration from the environment."""
    out, err = io.StringIO(), io.StringIO()
    config = os.environ.pop(CONFIG_ENV_VAR, None)
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
        if config is not None:
            os.environ[CONFIG_ENV_VAR] = config
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def outputs(fixture: str) -> dict[str, dict]:
    path = f"tests/fixtures/{fixture}"
    return {" ".join(cmd): run_cli(cmd + [path]) for cmd in COMMANDS}


def golden_path(fixture: str) -> Path:
    return GOLDEN / (Path(fixture).stem + ".json")


@pytest.mark.parametrize("fixture", FIXTURE_NAMES)
def test_cli_output_matches_golden(fixture):
    expected = json.loads(golden_path(fixture).read_text(encoding="utf-8"))
    got = outputs(fixture)
    assert list(got) == list(expected)
    for command, result in got.items():
        assert result == expected[command], f"{command} {fixture}"


def test_every_fixture_has_a_golden_file():
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == sorted(
        golden_path(name).name for name in FIXTURE_NAMES
    )


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for fixture in FIXTURE_NAMES:
        text = json.dumps(outputs(fixture), indent=1) + "\n"
        golden_path(fixture).write_text(text, encoding="utf-8")


if __name__ == "__main__":
    record()
    sys.exit(0)
