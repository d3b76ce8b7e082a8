"""The package stays free of runtime dependencies, and importing it costs
only the modules a caller reads."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sheetsentry
from sheetsentry.version import VERSION

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "sheetsentry").glob("*.py"))


def absolute_imports(path: Path) -> list[str]:
    """Every module an ``import`` or an absolute ``from ... import`` names."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_imports_are_stdlib_or_the_package():
    assert SOURCES
    for path in SOURCES:
        for name in absolute_imports(path):
            top = name.partition(".")[0]
            assert top == "sheetsentry" or top in sys.stdlib_module_names, (path.name, name)


# The names the package exported when its __init__ imported every module.
EXPORTS = {
    "errors": "AddressParseError DomainError FormatError IoError LexError ParseError"
    " SheetSentryError UnknownNodeError ValidationError",
    "evaluate": "Engine StalenessEntry StalenessReport recompute_workbook staleness_report",
    "formula": "Binary BoolLit Call FormulaAst NumberLit Range RangeRef Ref Reference TextLit"
    " Token TokenKind Unary collect_references parse_formula serialize_formula tokenize",
    "graph": "CycleReport DepGraph ExternalLink RangeNode build_graph to_dot topo_order",
    "metrics": "Analysis ScriptMetrics WorkbookMetrics compute_metrics error_probability"
    " formula_cost script_metrics",
    "normalize": "CopyClass copy_classes",
    "report": "AuditReport audit_workbook render_json render_text report_from_json report_to_dict",
    "rules": "RULES Category Finding RuleConfig Severity run_rules",
    "version": "VERSION",
    "workbook": "BLANK CalcMode Cell CellAddress CellValue Manifest ScriptModule Sheet ValueKind"
    " Workbook WorkbookSettings load_workbook parse_address",
}
NAMES = sorted(name for names in EXPORTS.values() for name in names.split())
START_UP = {"sheetsentry", "sheetsentry.cli", "sheetsentry.errors", "sheetsentry.version"}
CLEAN = str(Path(__file__).resolve().parent / "fixtures" / "clean.json")
PIPELINE = {f"sheetsentry.{m}" for m in ("evaluate", "graph", "metrics", "normalize", "report")}


def last_line(code: str) -> str:
    """The last line ``code`` prints in a fresh interpreter that imports this package."""
    root = str(Path(sheetsentry.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\n{code}"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    return proc.stdout.splitlines()[-1]


def loaded_after(code: str) -> set[str]:
    """The ``sheetsentry`` modules a fresh interpreter holds after running ``code``."""
    probe = "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'sheetsentry'))"
    return set(last_line(f"{code}\n{probe}").split())


def cli_run(*argv: str) -> str:
    return (
        f"sys.argv = ['sheetsentry', *{list(argv)!r}]\n"
        "import runpy\n"
        "try:\n"
        "    runpy.run_module('sheetsentry.cli', run_name='__main__')\n"
        "except SystemExit:\n"
        "    pass"
    )


class TestImportSurface:
    """Each command imports only the modules it runs."""

    @pytest.mark.parametrize("argv", [["--version"], ["--help"], ["audit"], ["explain"]])
    def test_start_up_loads_no_pipeline(self, argv):
        loaded = loaded_after(cli_run(*argv))
        assert "sheetsentry" in loaded
        assert loaded <= START_UP

    def test_explain_loads_no_pipeline(self):
        loaded = loaded_after(cli_run("explain", "STALE_VALUE"))
        assert "sheetsentry.rules" in loaded
        assert loaded.isdisjoint(PIPELINE)

    @pytest.mark.parametrize("argv", [
        ["audit", "--format", "json", CLEAN], ["metrics", CLEAN], ["graph", "--dot", CLEAN],
        ["explain", "STALE_VALUE"],
    ])
    def test_a_command_imports_nothing_once_the_collector_is_paused(self, argv):
        # garbage made while importing must still be collected
        pause = (
            "import gc\n"
            "disable = gc.disable\n"
            "gc.disable = lambda: (globals().update(paused=set(sys.modules)), disable())"
        )
        late = "print('\\nimported while paused:', *sorted(set(sys.modules) - paused))"
        assert last_line(f"{pause}\n{cli_run(*argv)}\n{late}") == "imported while paused:"

    def test_importing_the_package_loads_only_its_version(self):
        assert loaded_after("import sheetsentry") == {"sheetsentry", "sheetsentry.version"}

    def test_a_name_loads_its_module_on_first_use(self):
        loaded = loaded_after("import sheetsentry\nsheetsentry.RuleConfig\nsheetsentry.normalize")
        assert {"sheetsentry.rules", "sheetsentry.normalize"} <= loaded
        assert loaded.isdisjoint(PIPELINE - {"sheetsentry.normalize"})


class TestExports:
    def test_each_name_is_its_module_attribute(self):
        for module, names in EXPORTS.items():
            defined = importlib.import_module(f"sheetsentry.{module}")
            for name in names.split():
                assert getattr(sheetsentry, name) is getattr(defined, name), name

    def test_version(self):
        assert sheetsentry.__version__ == VERSION

    def test_listed(self):
        assert sorted(sheetsentry.__all__) == NAMES
        assert set(NAMES) <= set(dir(sheetsentry))

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from sheetsentry import *", namespace)
        assert {name: namespace.get(name) for name in NAMES} == {
            name: getattr(sheetsentry, name) for name in NAMES
        }

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="^module 'sheetsentry' has no attribute 'no_such_name'$"):
            sheetsentry.no_such_name
