"""Report rendering, JSON round-trips, CLI behavior, and exit codes."""

from __future__ import annotations

import json

import pytest

from sheetsentry.cli import main
from sheetsentry.formula import MAX_DEPTH
from sheetsentry.normalize import copy_classes
from sheetsentry.report import (
    audit_workbook,
    render_json,
    render_text,
    report_from_json,
    report_to_dict,
)
from sheetsentry.rules import Severity
from sheetsentry.workbook import CellValue, ValueKind, col_to_letters, load_workbook

from conftest import make_workbook, strict_json, write_wbjson


def synthetic_classes(n):
    cells = {}
    for i in range(n):
        multiplier = i + 2
        col = 2 + (i % 40)
        base_row = 1 + (i // 40) * 10
        for copy in range(2):
            row = base_row + copy
            cells[f"{col_to_letters(col)}{row}"] = (f"=A{row}*{multiplier}", 0)
    return make_workbook({"S": cells})


class TestRenderJson:
    def test_round_trip(self, fixtures_dir):
        report = audit_workbook(str(fixtures_dir / "all_rules.json"))
        text = render_json(report)
        assert report_from_json(text) == report

    def test_round_trip_of_stale_values_of_every_kind(self):
        wb = make_workbook({"S": {
            "A1": ("=Z1", 5),          # recomputes to a blank
            "A2": ("=1/0", 1),         # an error
            "A3": ("=1=1", "x"),       # a boolean, cached as text
            "A4": ('="a"', None),      # text, cached as a blank
            "A5": ("=2", CellValue.error("#N/A")),
        }})
        report = audit_workbook(wb)
        kinds = {e.recomputed.kind for e in report.stale_entries}
        kinds |= {e.cached.kind for e in report.stale_entries}
        assert kinds == set(ValueKind)
        assert report_from_json(render_json(report)) == report

    def test_byte_identical(self, fixtures_dir):
        report = audit_workbook(str(fixtures_dir / "all_rules.json"))
        assert render_json(report) == render_json(report)

    def test_percent_presentation(self):
        # 37 unique formulas -> 31% at the default rate
        report = audit_workbook(synthetic_classes(37))
        doc = report_to_dict(report)
        assert doc["metrics"]["error_probability_pct"] == 31
        assert '"error_probability_pct": 31' in render_json(report)

    def test_empty_workbook(self):
        report = audit_workbook(make_workbook({"S": {}}))
        doc = report_to_dict(report)
        assert doc["metrics"]["formula_cells"] == 0
        assert doc["metrics"]["error_probability"] == 0.0
        # the only finding a truly empty workbook produces is the missing spec
        assert [f["rule_id"] for f in doc["findings"]] == ["SPEC_MISSING"]

    def test_fifteen_significant_digits(self, fixtures_dir):
        report = audit_workbook(str(fixtures_dir / "all_rules.json"))
        def check(value):
            if isinstance(value, float):
                assert float(f"{value:.15g}") == value
            elif isinstance(value, dict):
                for v in value.values():
                    check(v)
            elif isinstance(value, list):
                for v in value:
                    check(v)
        check(report_to_dict(report))


class TestRenderText:
    def test_metrics_header(self):
        report = audit_workbook(make_workbook({"S": {"B1": ("=1+1", 2)}}))
        text = render_text(report)
        assert "Formula cells" in text
        assert "Unique formulae" in text
        assert "Error probability" in text

    def test_no_findings_line(self, fixtures_dir):
        report = audit_workbook(str(fixtures_dir / "clean.json"))
        assert "No findings." in render_text(report)

    def test_category_grouping_order(self, fixtures_dir):
        report = audit_workbook(str(fixtures_dir / "all_rules.json"))
        text = render_text(report)
        positions = [
            text.index("specification:"),
            text.index("correctness:"),
            text.index("auditability:"),
            text.index("usability:"),
            text.index("maintainability:"),
            text.index("performance:"),
        ]
        assert positions == sorted(positions)

    def test_single_finding_rendered_under_category(self, fixtures_dir):
        report = audit_workbook(str(fixtures_dir / "manual_calc.json"))
        text = render_text(report)
        assert "performance:" in text
        assert "[warning] MANUAL_CALC at workbook" in text


class TestExitCodes:
    def test_clean_exits_zero(self, fixtures_dir, capsys):
        code = main(["audit", str(fixtures_dir / "clean.json")])
        assert code == 0
        assert "No findings." in capsys.readouterr().out

    def test_default_fail_on_error(self, fixtures_dir):
        # stale value is severity error -> exit 1 at the default threshold
        assert main(["audit", str(fixtures_dir / "stale_value.json")]) == 1
        # warnings alone do not fail at the default threshold
        assert main(["audit", str(fixtures_dir / "manual_calc.json")]) == 0

    def test_fail_on_warning(self, fixtures_dir):
        code = main(["audit", str(fixtures_dir / "manual_calc.json"), "--fail-on", "warning"])
        assert code == 1

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code = main(["audit", str(tmp_path / "missing.wbjson")])
        assert code == 2
        assert "sheetsentry:" in capsys.readouterr().err

    def test_bad_flags_exit_two(self, fixtures_dir):
        with pytest.raises(SystemExit) as exc:
            main(["audit", str(fixtures_dir / "clean.json"), "--format", "yaml"])
        assert exc.value.code == 2

    def test_multiple_files_in_argument_order(self, fixtures_dir, capsys):
        code = main(
            [
                "audit",
                str(fixtures_dir / "clean.json"),
                str(fixtures_dir / "stale_value.json"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert out.index("clean.json") < out.index("stale_value.json")


class TestCliCommands:
    def test_audit_json_format(self, fixtures_dir, capsys):
        main(["audit", str(fixtures_dir / "clean.json"), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["findings"] == []
        assert doc["metrics"]["formula_cells"] == 1

    def test_audit_p_flag(self, fixtures_dir, capsys):
        main(["audit", str(fixtures_dir / "clean.json"), "--format", "json", "--p", "0.5"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["error_rate_p"] == 0.5
        assert doc["metrics"]["error_probability"] == 0.5  # one unique formula

    def test_metrics_command(self, fixtures_dir, capsys):
        code = main(["metrics", str(fixtures_dir / "clean.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "Formula cells" in out

    def test_metrics_json(self, fixtures_dir, capsys):
        main(["metrics", str(fixtures_dir / "clean.json"), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["unique_formulae"] == 1

    def test_graph_dot(self, tmp_path, capsys):
        path = write_wbjson(
            tmp_path,
            {
                "manifest": {"specification": "x"},
                "sheets": [
                    {"name": "S", "cells": {"A1": {"v": 1}, "B1": {"f": "=A1", "v": 1}}}
                ],
            },
        )
        code = main(["graph", path, "--dot"])
        assert code == 0
        out = capsys.readouterr().out
        assert '"S!A1" -> "S!B1";' in out

    def test_graph_summary(self, fixtures_dir, capsys):
        code = main(["graph", str(fixtures_dir / "clean.json")])
        assert code == 0
        assert "edges:" in capsys.readouterr().out

    def test_explain_known_rule(self, capsys):
        code = main(["explain", "LOOKUP_HOTSPOT"])
        assert code == 0
        out = capsys.readouterr().out
        assert "performance" in out
        assert "lookup_cost_threshold" in out

    def test_explain_unknown_rule(self, capsys):
        code = main(["explain", "BOGUS"])
        assert code == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_config_flag(self, fixtures_dir, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"enabled": ["STALE_VALUE"]}))
        code = main(
            [
                "audit",
                str(fixtures_dir / "all_rules.json"),
                "--config",
                str(cfg_path),
                "--format",
                "json",
            ]
        )
        doc = json.loads(capsys.readouterr().out)
        assert [f["rule_id"] for f in doc["findings"]] == ["STALE_VALUE"]
        assert code == 1

    def test_config_env_var_fallback(self, fixtures_dir, tmp_path, capsys, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"enabled": ["MANUAL_CALC"]}))
        monkeypatch.setenv("SHEETSENTRY_CONFIG", str(cfg_path))
        main(["audit", str(fixtures_dir / "all_rules.json"), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert [f["rule_id"] for f in doc["findings"]] == ["MANUAL_CALC"]

    def test_bad_config_exits_two(self, fixtures_dir, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"nope": 1}))
        code = main(
            ["audit", str(fixtures_dir / "clean.json"), "--config", str(cfg_path)]
        )
        assert code == 2

    def test_parse_failure_exits_two(self, tmp_path, capsys):
        path = write_wbjson(
            tmp_path,
            {"sheets": [{"name": "S", "cells": {"B1": {"f": "=1+", "v": 1}}}]},
        )
        code = main(["audit", path])
        assert code == 2
        assert "S!B1" in capsys.readouterr().err

    def test_internal_error_exits_two(self, fixtures_dir, capsys, monkeypatch):
        # a crash must never share exit code 1 with "findings at --fail-on"
        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("sheetsentry.report.audit_workbook", crash)
        code = main(["audit", str(fixtures_dir / "clean.json")])
        assert code == 2
        assert capsys.readouterr().err == "sheetsentry: internal error: RuntimeError: boom\n"


class TestRobustness:
    def test_overflowing_literal_is_a_stale_value(self, tmp_path, capsys):
        path = write_wbjson(tmp_path, {
            "manifest": {"specification": "one overflowing literal"},
            "sheets": [{"name": "S", "cells": {"A1": {"f": "=1e999", "v": 0}}}],
        })
        assert main(["audit", path, "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert [f["rule_id"] for f in doc["findings"]] == ["STALE_VALUE"]
        [entry] = doc["staleness"]["entries"]
        assert entry["recomputed"] == {"err": "#VALUE!"}

    def test_overflowing_literal_is_no_json_constant(self, tmp_path, capsys):
        # in three classes, 1e999 would otherwise be a repeated constant
        path = write_wbjson(tmp_path, {"sheets": [{"name": "S", "cells": {
            "A1": {"v": 1},
            "B1": {"f": "=A1*1e999"}, "B2": {"f": "=A1+1e999"}, "B3": {"f": "=1e999-A1"},
        }}]})
        assert main(["audit", path, "--format", "json"]) == 1
        doc = strict_json(capsys.readouterr().out)
        assert "HARDCODED_CONSTANT" not in [f["rule_id"] for f in doc["findings"]]

    def test_sheet_name_with_an_apostrophe_audits(self, tmp_path, capsys):
        # a quoted name doubles its apostrophe, as a string doubles its quote
        path = write_wbjson(tmp_path, {
            "manifest": {"specification": "a sheet named It's"},
            "sheets": [
                {"name": "It's", "cells": {"A1": {"v": 2}, "A2": {"v": 3}}},
                {"name": "S", "cells": {
                    "A1": {"f": "='It''s'!A1*10", "v": 20},
                    "A2": {"f": "='It''s'!A2*10", "v": 30},
                    "B1": {"f": "=SUM('IT''S'!$A$1:A2)", "v": 5},
                }},
            ],
        })
        assert main(["audit", path, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["staleness"]["entries"] == []
        assert doc["metrics"]["unique_formulae"] == 2
        texts = sorted(c.normalized for c in copy_classes(load_workbook(path)))
        assert texts == ["'IT''S'!RC*10", "SUM('IT''S'!R1C1:R[1]C[-1])"]

    def test_deep_parentheses_audit(self, tmp_path):
        path = write_wbjson(tmp_path, {
            "manifest": {"specification": "deeply parenthesised constant"},
            "sheets": [{"name": "S", "cells": {
                "A1": {"f": "=" + "(" * 300 + "1" + ")" * 300, "v": 1},
            }}],
        })
        assert main(["audit", path]) == 0

    @pytest.mark.parametrize(
        "formula,value",
        [("=" + "+".join(["1"] * MAX_DEPTH), MAX_DEPTH), ("=" + "-" * (MAX_DEPTH - 1) + "1", -1)],
        ids=["sum", "signs"],
    )
    def test_depth_limit_audits(self, tmp_path, formula, value):
        path = write_wbjson(tmp_path, {
            "manifest": {"specification": "a formula at the depth limit"},
            "sheets": [{"name": "S", "cells": {"A1": {"f": formula, "v": value}}}],
        })
        assert main(["audit", path]) == 0

    @pytest.mark.parametrize(
        "formula",
        ["=" + "(" * n + "1" + ")" * n for n in (330, 400, 5000)]
        + ["=" + "-" * n + "1" for n in (MAX_DEPTH, 500, 1000)]
        + ["=" + "+".join(["1"] * n) for n in (MAX_DEPTH + 1, 500)],
        ids=["parens330", "parens400", "parens5000", f"signs{MAX_DEPTH}", "signs500", "signs1000",
             f"sum{MAX_DEPTH + 1}", "sum500"],
    )
    def test_too_deep_is_a_parse_error(self, tmp_path, capsys, formula):
        path = write_wbjson(tmp_path, {"sheets": [{"name": "S", "cells": {"A1": {"f": formula}}}]})
        assert main(["audit", path]) == 2
        assert capsys.readouterr().err == "sheetsentry: S!A1: formula nests too deeply (offset 1)\n"

    @pytest.mark.parametrize("formula", ["=1+#", "=1+"])
    def test_parse_error_names_its_offset_once(self, tmp_path, capsys, formula):
        path = write_wbjson(tmp_path, {"sheets": [{"name": "S", "cells": {"A1": {"f": formula}}}]})
        assert main(["audit", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("sheetsentry: S!A1: ")
        assert err.count("(offset") == 1
        assert err.endswith(" (offset 3)\n")


BIG_INT = "1" + "0" * 400  # past the float range
DEEP = 100_000


def one_cell(key: str, value: str) -> str:
    return '{"sheets": [{"name": "S", "cells": {"%s": {"v": %s}}}]}' % (key, value)


class TestTypedLoadErrors:
    """Documents that used to escape the loader as an internal error."""

    @pytest.mark.parametrize(
        "text,message",
        [
            (one_cell("A1", '{"err": ["x"]}'),
             "$.sheets[0].cells.A1.v: unknown error code ['x']"),
            (one_cell("A1", BIG_INT), "$.sheets[0].cells.A1.v: numbers must be finite"),
            ("[" * DEEP, "$: invalid JSON: nests too deeply to decode"),
            ('{"manifest": {"assumptions": ' + '{"a": ' * DEEP + "1" + "}" * DEEP
             + '}, "sheets": [{"name": "S"}]}', "$: invalid JSON: nests too deeply to decode"),
            (one_cell("A" + "1" * 5000, "1"), "$.sheets[0].cells.A111"),
        ],
        ids=["error-code-list", "401-digit-number", "nested-arrays", "nested-assumptions",
             "5000-digit-row"],
    )
    def test_workbook(self, tmp_path, capsys, text, message):
        path = tmp_path / "wb.json"
        path.write_text(text, encoding="utf-8")
        assert main(["audit", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"sheetsentry: {message}")
        assert "internal error" not in err

    def test_config_whitelist_past_the_float_range(self, fixtures_dir, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"const_whitelist": [%s]}' % BIG_INT, encoding="utf-8")
        code = main(["audit", str(fixtures_dir / "clean.json"), "--config", str(cfg_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "sheetsentry: $.const_whitelist: numbers must fit a float\n"

    @pytest.mark.parametrize("flag", ["file", "--config"])
    def test_unreadable_files_keep_their_messages(self, fixtures_dir, tmp_path, capsys, flag):
        missing = str(tmp_path / "missing.json")
        if flag == "file":
            argv, prefix = ["audit", missing], f"cannot read {missing}: "
        else:
            argv = ["audit", str(fixtures_dir / "clean.json"), "--config", missing]
            prefix = f"cannot read config {missing}: "
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"sheetsentry: {prefix}")


class TestSeverityThreshold:
    def test_exit_is_function_of_findings_and_threshold(self, fixtures_dir):
        report = audit_workbook(str(fixtures_dir / "all_rules.json"))
        worst = max(f.severity for f in report.findings)
        assert worst is Severity.ERROR
        assert main(["audit", str(fixtures_dir / "all_rules.json"), "--fail-on", "info"]) == 1
        assert main(["audit", str(fixtures_dir / "all_rules.json"), "--fail-on", "error"]) == 1
        assert main(["audit", str(fixtures_dir / "clean.json"), "--fail-on", "info"]) == 0
