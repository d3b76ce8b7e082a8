"""Rule engine: per-rule behavior, fixtures, config, and determinism."""

from __future__ import annotations

import json
import math
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sheetsentry import rules
from sheetsentry.errors import FormatError
from sheetsentry.evaluate import staleness_report
from sheetsentry.formula import tokenize
from sheetsentry.graph import build_graph
from sheetsentry.metrics import Analysis, script_metrics
from sheetsentry.normalize import copy_classes
from sheetsentry.report import audit_workbook, render_json
from sheetsentry.rules import (
    RULES,
    Category,
    RuleConfig,
    Severity,
    check_calc_mode,
    check_copy_class_holes,
    check_external_links,
    check_hardcoded_constant,
    check_spec_presence,
    check_stale_values,
)
from sheetsentry.workbook import (
    BLANK,
    CalcMode,
    Cell,
    CellAddress,
    CellValue,
    Manifest,
    ScriptModule,
    Sheet,
    Workbook,
    WorkbookSettings,
    workbook_from_dict,
)

from conftest import addr, fuzz_examples, make_workbook, scale_grid_doc

ALL_RULE_IDS = {
    "SPEC_MISSING",
    "STALE_VALUE",
    "EXTERNAL_LINK",
    "UNDOCUMENTED_IMPORT",
    "COPY_CLASS_HOLE",
    "HARDCODED_CONSTANT",
    "DEEP_NESTING",
    "LONG_FORMULA",
    "SCRIPT_QUALITY",
    "MANUAL_CALC",
    "LOOKUP_HOTSPOT",
}
CORE_RULE_IDS = ALL_RULE_IDS - {"UNDOCUMENTED_IMPORT"}


def audit_fixture(fixtures_dir, name, cfg=None):
    return audit_workbook(str(fixtures_dir / name), cfg=cfg)


class TestRegistry:
    def test_rule_ids(self):
        assert set(RULES) == ALL_RULE_IDS

    def test_categories_fixed(self):
        expected = {
            "SPEC_MISSING": Category.SPECIFICATION,
            "STALE_VALUE": Category.CORRECTNESS,
            "EXTERNAL_LINK": Category.AUDITABILITY,
            "UNDOCUMENTED_IMPORT": Category.SPECIFICATION,
            "COPY_CLASS_HOLE": Category.USABILITY,
            "HARDCODED_CONSTANT": Category.MAINTAINABILITY,
            "DEEP_NESTING": Category.MAINTAINABILITY,
            "LONG_FORMULA": Category.MAINTAINABILITY,
            "SCRIPT_QUALITY": Category.MAINTAINABILITY,
            "MANUAL_CALC": Category.PERFORMANCE,
            "LOOKUP_HOTSPOT": Category.PERFORMANCE,
        }
        assert {rid: info.category for rid, info in RULES.items()} == expected

    def test_severities(self):
        assert RULES["STALE_VALUE"].severity is Severity.ERROR
        assert RULES["COPY_CLASS_HOLE"].severity is Severity.ERROR
        assert RULES["LONG_FORMULA"].severity is Severity.INFO
        assert RULES["UNDOCUMENTED_IMPORT"].severity is Severity.INFO


class TestPerRuleFixtures:
    @pytest.mark.parametrize(
        "fixture,rule_id",
        [
            ("spec_missing.json", "SPEC_MISSING"),
            ("stale_value.json", "STALE_VALUE"),
            ("external_link.json", "EXTERNAL_LINK"),
            ("copy_class_hole.json", "COPY_CLASS_HOLE"),
            ("hardcoded_constant.json", "HARDCODED_CONSTANT"),
            ("deep_nesting.json", "DEEP_NESTING"),
            ("long_formula.json", "LONG_FORMULA"),
            ("script_quality.json", "SCRIPT_QUALITY"),
            ("manual_calc.json", "MANUAL_CALC"),
            ("lookup_hotspot.json", "LOOKUP_HOTSPOT"),
        ],
    )
    def test_each_fixture_triggers_exactly_its_rule(self, fixtures_dir, fixture, rule_id):
        report = audit_fixture(fixtures_dir, fixture)
        assert [f.rule_id for f in report.findings] == [rule_id]

    def test_clean_fixture_yields_nothing(self, fixtures_dir):
        assert audit_fixture(fixtures_dir, "clean.json").findings == ()

    def test_all_rules_fixture_yields_ten(self, fixtures_dir):
        report = audit_fixture(fixtures_dir, "all_rules.json")
        assert len(report.findings) == 10
        assert {f.rule_id for f in report.findings} == CORE_RULE_IDS

    def test_fixture_locations(self, fixtures_dir):
        report = audit_fixture(fixtures_dir, "copy_class_hole.json")
        assert report.findings[0].locations == (addr("Sheet1", "B5"),)
        report = audit_fixture(fixtures_dir, "stale_value.json")
        assert report.findings[0].locations == (addr("Sheet1", "B1"),)

    def test_undocumented_import_pairing(self, fixtures_dir):
        report = audit_fixture(fixtures_dir, "undocumented_import.json")
        assert [f.rule_id for f in report.findings] == [
            "EXTERNAL_LINK",
            "UNDOCUMENTED_IMPORT",
        ]

    def test_determinism_byte_equal(self, fixtures_dir):
        first = render_json(audit_fixture(fixtures_dir, "all_rules.json"))
        second = render_json(audit_fixture(fixtures_dir, "all_rules.json"))
        assert first == second


class TestSpecPresence:
    def test_no_manifest(self):
        assert len(check_spec_presence(Manifest())) == 1

    def test_empty_specification(self):
        assert len(check_spec_presence(Manifest(specification=""))) == 1
        assert len(check_spec_presence(Manifest(specification="   "))) == 1

    def test_present(self):
        manifest = Manifest(specification="Computes premium rates per spec v3 §2")
        assert check_spec_presence(manifest) == []


class TestStaleValuesRule:
    def test_two_stale_cells_two_error_findings(self):
        wb = make_workbook(
            {"S": {"A1": 2, "B1": ("=A1*3", 5), "B2": ("=A1*4", 9)}}
        )
        findings = check_stale_values(staleness_report(wb))
        assert len(findings) == 2
        assert all(f.severity is Severity.ERROR for f in findings)

    def test_consistent_is_silent(self):
        wb = make_workbook({"S": {"A1": 2, "B1": ("=A1*3", 6)}})
        assert check_stale_values(staleness_report(wb)) == []


class TestExternalLinksRule:
    def test_three_cells_one_finding(self):
        wb = make_workbook(
            {
                "S": {
                    "C1": "=[Rates]S1!A1",
                    "C2": "=[Rates]S1!A2",
                    "C3": "=[Rates]S1!B1*2",
                }
            }
        )
        g = build_graph(wb)
        manifest = Manifest(assumptions=(("Rates", "documented"),))
        findings = check_external_links(g, manifest, wb)
        assert len(findings) == 1
        assert findings[0].rule_id == "EXTERNAL_LINK"
        assert len(findings[0].locations) == 3

    def test_no_externals(self):
        wb = make_workbook({"S": {"B1": "=A1"}})
        findings = check_external_links(build_graph(wb), Manifest(), wb)
        assert findings == []

    def test_assumption_key_match_suppresses_note(self):
        wb = make_workbook({"S": {"C1": "=[Rates]S1!A1"}})
        g = build_graph(wb)
        with_key = check_external_links(
            g, Manifest(assumptions=(("Rates", "from actuarial"),)), wb
        )
        assert [f.rule_id for f in with_key] == ["EXTERNAL_LINK"]
        in_value = check_external_links(
            g, Manifest(assumptions=(("rate_source", "the Rates workbook"),)), wb
        )
        assert [f.rule_id for f in in_value] == ["EXTERNAL_LINK"]
        without = check_external_links(g, Manifest(), wb)
        assert [f.rule_id for f in without] == ["EXTERNAL_LINK", "UNDOCUMENTED_IMPORT"]


class TestCalcModeRule:
    def test_manual(self):
        findings = check_calc_mode(WorkbookSettings(calc_mode=CalcMode.MANUAL))
        assert len(findings) == 1
        assert findings[0].locations == ()

    def test_automatic(self):
        assert check_calc_mode(WorkbookSettings()) == []

    def test_manual_with_consistent_values_still_fires(self, fixtures_dir):
        report = audit_fixture(fixtures_dir, "manual_calc.json")
        assert [f.rule_id for f in report.findings] == ["MANUAL_CALC"]


class TestHardcodedConstantRule:
    def _findings(self, formulas, cfg=None):
        analysis = Analysis(make_workbook({"S": formulas}))
        return check_hardcoded_constant(analysis, cfg or RuleConfig())

    def test_three_classes_trigger(self):
        findings = self._findings({"B1": "=A1+65", "B2": "=A2-65", "B3": "=A3*65"})
        assert len(findings) == 1
        assert dict(findings[0].evidence)["constant"] == 65.0
        assert dict(findings[0].evidence)["count"] == 3
        assert len(findings[0].locations) == 3

    def test_below_threshold(self):
        assert self._findings({"B1": "=A1+65", "B2": "=A2-65"}) == []

    def test_whitelisted(self):
        formulas = {f"B{i}": f"=A{i}+1" for i in range(1, 11)}
        assert self._findings(formulas) == []

    def test_copies_count_once(self):
        # ten copies are one class; one appearance, not ten
        formulas = {f"B{i}": f"=A{i}+65" for i in range(1, 11)}
        assert self._findings(formulas) == []

    def test_negative_literal_via_unary(self):
        findings = self._findings({"B1": "=A1+-65", "B2": "=A2*-65", "B3": "=-65+A3"})
        assert len(findings) == 1
        assert dict(findings[0].evidence)["constant"] == -65.0

    def test_zero_is_unsigned_whatever_the_reading_order(self):
        cfg = RuleConfig(const_whitelist=frozenset())
        negative_first = self._findings({"B1": "=A1*-0", "B2": "=A2+0*3", "B3": "=0+A3*4"}, cfg)
        positive_first = self._findings({"B1": "=A1+0*3", "B2": "=A2*-0", "B3": "=0+A3*4"}, cfg)
        for findings in (negative_first, positive_first):
            [finding] = findings
            assert finding.message.startswith("literal 0 appears in 3 distinct formulas")
            assert math.copysign(1.0, dict(finding.evidence)["constant"]) == 1.0
        assert negative_first == positive_first


class TestDeepNestingRule:
    def test_seven_branch_formula(self):
        # six IFs nested in else arms -> 7 leaf branches, over the default 4
        src = "=IF(A1,1,IF(A2,2,IF(A3,3,IF(A4,4,IF(A5,5,IF(A6,6,7))))))"
        wb = make_workbook({"S": {"B1": (src, 7)}})
        report = audit_workbook(wb)
        deep = [f for f in report.findings if f.rule_id == "DEEP_NESTING"]
        assert len(deep) == 1
        assert dict(deep[0].evidence)["branches"] == 7

    def test_five_branch_formula_copied_is_one_finding(self):
        nest = "=IF(A{r},1,IF(B{r},1,IF(C{r},1,IF(D{r},1,1))))"
        cells = {f"E{r}": nest.format(r=r) for r in range(1, 201)}
        wb = make_workbook({"S": cells})
        report = audit_workbook(wb)
        deep = [f for f in report.findings if f.rule_id == "DEEP_NESTING"]
        assert len(deep) == 1
        assert deep[0].locations == (addr("S", "E1"),)
        assert dict(deep[0].evidence)["branches"] == 5

    def test_two_branches_fine(self):
        wb = make_workbook({"S": {"B1": ("=IF(A1,1,2)", 2)}})
        report = audit_workbook(wb)
        assert all(f.rule_id != "DEEP_NESTING" for f in report.findings)


class TestLongFormulaRule:
    @pytest.fixture
    def tokenized(self, monkeypatch):
        """Every text the rule hands to ``tokenize``, in call order."""
        texts = []

        def counting(src):
            texts.append(src)
            return tokenize(src)

        monkeypatch.setattr(rules, "tokenize", counting)
        return texts

    def test_threshold_edge(self, fixtures_dir):
        # 41 tokens fires, 40 does not
        report = audit_fixture(fixtures_dir, "long_formula.json")
        assert [f.rule_id for f in report.findings] == ["LONG_FORMULA"]

        src40 = "=-" + "+".join(f"A{i}" for i in range(1, 21))
        assert len(tokenize(src40[1:])) == 40
        wb = make_workbook({"S": {"B1": (src40, 0)}})
        report = audit_workbook(wb)
        assert all(f.rule_id != "LONG_FORMULA" for f in report.findings)

    def test_one_character_tokens_at_the_budget(self):
        # a text of 41 characters can hold 41 tokens, one of 40 cannot exceed 40
        ones41 = "=" + "+".join("1" * 21)
        ones40 = "=+" + "+".join("1" * 20)
        wb = make_workbook({"S": {"B1": (ones41, 21), "B2": (ones40, 20)}})
        report = audit_workbook(wb)
        assert [f.locations for f in report.findings if f.rule_id == "LONG_FORMULA"] == [
            (addr("S", "B1"),)
        ]

    def test_short_representatives_are_not_tokenized(self, tokenized):
        # criterion 8's grid: 400 classes of "=A{row}*k", none past the budget
        report = audit_workbook(workbook_from_dict(scale_grid_doc()))
        assert report.metrics.unique_formulae == 400
        assert tokenized == []

    def test_long_representative_keeps_its_finding(self, fixtures_dir, tokenized):
        report = audit_fixture(fixtures_dir, "long_formula.json")
        [finding] = report.findings
        assert finding.message == "formula has 41 tokens (limit 40)"
        assert finding.evidence == (("tokens", 41), ("class_size", 1))
        assert len(tokenized) == 1

    def test_figure_like_formula_fires(self):
        src = (
            "=+IF(FRODD<5,IF(DTA=C,G56*J4-IF(B58>TERM,D,J5*SA),"
            "IF(B57>B56,IF(B58>TERM,D,G58*J4-J5*SA),G56)),SA-IF(IPW=1,PR*12,D))"
            "*VLOOKUP($B57,A1:D9,4)"
        )
        wb = make_workbook({"S": {"B1": src}})
        report = audit_workbook(wb)
        assert any(f.rule_id == "LONG_FORMULA" for f in report.findings)


class TestCopyClassHoleRule:
    def _holes(self, cells, threshold=5):
        wb = make_workbook({"S": cells})
        cfg = RuleConfig(min_copy_class_for_hole=threshold)
        return check_copy_class_holes(wb, copy_classes(wb), cfg)

    def test_hole_found(self):
        cells = {f"B{r}": f"=A{r}*100" for r in range(1, 11) if r != 5}
        cells["B5"] = 42
        findings = self._holes(cells)
        assert [f.locations for f in findings] == [(addr("S", "B5"),)]
        assert dict(findings[0].evidence)["normalized_formula"] == "RC[-1]*100"

    def test_below_member_threshold(self):
        cells = {f"B{r}": f"=A{r}*100" for r in (1, 2, 3, 4)}
        cells["B5"] = 42  # outside the bounding segment anyway
        cells_with_gap = {f"B{r}": f"=A{r}*100" for r in (1, 2, 4, 5)}
        cells_with_gap["B3"] = 42
        assert self._holes(cells_with_gap) == []

    def test_full_run_no_hole(self):
        cells = {f"B{r}": f"=A{r}*100" for r in range(1, 11)}
        assert self._holes(cells) == []

    def test_horizontal_run(self):
        cells = {}
        for i, col in enumerate("BCDEFG"):
            if col == "D":
                cells[f"{col}1"] = 9
            else:
                cells[f"{col}1"] = "=B9*100".replace("B9", f"{col}9")
        findings = self._holes(cells)
        assert [f.locations for f in findings] == [(addr("S", "D1"),)]

    def test_empty_gap_is_not_a_hole(self):
        cells = {f"B{r}": f"=A{r}*100" for r in range(1, 11) if r != 5}
        assert self._holes(cells) == []

    def test_different_formula_in_gap_is_not_a_hole(self):
        cells = {f"B{r}": f"=A{r}*100" for r in range(1, 11) if r != 5}
        cells["B5"] = ("=A5+A6", 0)
        assert self._holes(cells) == []

    def test_two_dimensional_class_skipped(self):
        cells = {}
        for col in "BC":
            for r in range(1, 5):
                cells[f"{col}{r}"] = f"=A{r}*100"
        cells["B6"] = 42
        assert self._holes(cells, threshold=4) == []


def probed_holes(wb, classes, cfg):
    """COPY_CLASS_HOLE as it was before it read the column index: every
    position between a run's first and last member is probed with
    ``Workbook.cell``, one loop for column runs and one for row runs."""
    findings = []
    for cls in classes:
        if len(cls.members) < cfg.min_copy_class_for_hole:
            continue
        sheets = {m.sheet for m in cls.members}
        if len(sheets) != 1:
            continue
        cols = {m.col for m in cls.members}
        rows = {m.row for m in cls.members}
        if len(cols) == 1:
            fixed_col = next(iter(cols))
            holes = [
                CellAddress(next(iter(sheets)), fixed_col, row)
                for row in range(min(rows), max(rows) + 1)
                if row not in rows
            ]
        elif len(rows) == 1:
            fixed_row = next(iter(rows))
            holes = [
                CellAddress(next(iter(sheets)), col, fixed_row)
                for col in range(min(cols), max(cols) + 1)
                if col not in cols
            ]
        else:
            continue
        for hole in holes:
            cell = wb.cell(hole)
            if cell is None or cell.formula is not None:
                continue
            findings.append(
                rules._finding(
                    "COPY_CLASS_HOLE",
                    (hole,),
                    f"literal value {cell.cached.display()} interrupts a run of "
                    f"{len(cls.members)} copies of the same formula",
                    (("normalized_formula", cls.normalized), ("class_size", len(cls.members))),
                )
            )
    return findings


MEMBER = Cell(formula="=1+1", cached=BLANK)  # position-free: every copy is one class
GAP_CELLS = st.sampled_from(
    [
        None,  # nothing stored
        Cell(formula=None, cached=BLANK),  # a stored blank, as only memory holds
        Cell(formula=None, cached=CellValue.number(42)),
        Cell(formula=None, cached=CellValue.text("x")),
        Cell(formula="=2*3", cached=CellValue.number(6)),  # another class's formula
        Cell(formula="=A1", cached=BLANK),
    ]
)


@st.composite
def hole_workbooks(draw):
    """One or two small sheets; on the first, one column or row run of
    ``MEMBER`` copies with gaps, over scattered cells of every kind."""
    cells = {}
    anywhere = st.tuples(st.integers(1, 8), st.integers(1, 8))
    for pos in draw(st.lists(anywhere, max_size=10)):
        cells[pos] = draw(GAP_CELLS)
    line, vertical = draw(st.integers(1, 8)), draw(st.booleans())
    for i in range(draw(st.integers(1, 4)), draw(st.integers(5, 9))):
        pos = (line, i) if vertical else (i, line)
        cells[pos] = draw(st.one_of(st.just(MEMBER), st.just(MEMBER), GAP_CELLS))
    if draw(st.integers(0, 3)) == 0:  # a copy off the line may make the class two-dimensional
        cells[draw(anywhere)] = MEMBER
    sheets = [Sheet("S", {pos: cell for pos, cell in cells.items() if cell is not None})]
    if draw(st.integers(0, 3)) == 0:  # copies on a second sheet put the class on two sheets
        sheets.append(Sheet("T", {(2, row): MEMBER for row in range(1, draw(st.integers(1, 3)) + 1)}))
    return Workbook(sheets=sheets)


class TestCopyClassHoleIndex:
    """The rule reads a run's stored cells from the column index, not by
    probing every position the run spans."""

    def test_sparse_run_reads_only_stored_cells(self, monkeypatch):
        cells = {f"B{r}": f"=A{r}*100" for r in (1, 2, 3, 4, 1048576)}
        cells["B500000"] = 42
        cells["B600000"] = ("=A1+A2", 0)
        wb = make_workbook({"S": cells})
        classes = copy_classes(wb)

        def probe(self, address):
            raise AssertionError(f"probed {address}")

        monkeypatch.setattr(Workbook, "cell", probe)
        findings = check_copy_class_holes(wb, classes, RuleConfig(min_copy_class_for_hole=5))
        assert [f.locations for f in findings] == [(addr("S", "B500000"),)]

    @settings(
        max_examples=fuzz_examples(200), deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(hole_workbooks(), st.integers(1, 5))
    def test_matches_the_probing_oracle(self, wb, threshold):
        cfg = RuleConfig(min_copy_class_for_hole=threshold)
        classes = copy_classes(wb)
        assert check_copy_class_holes(wb, classes, cfg) == probed_holes(wb, classes, cfg)


class TestLookupHotspotRule:
    def test_large_lookup_fires(self, fixtures_dir):
        report = audit_fixture(fixtures_dir, "lookup_hotspot.json")
        (finding,) = report.findings
        assert finding.rule_id == "LOOKUP_HOTSPOT"
        assert dict(finding.evidence)["cost"] == 1501
        assert dict(finding.evidence)["lookup_count"] == 1

    def test_small_lookup_quiet(self):
        wb = make_workbook({"S": {"B1": "=VLOOKUP(F1,D1:E50,2)"}})
        report = audit_workbook(wb)
        assert all(f.rule_id != "LOOKUP_HOTSPOT" for f in report.findings)

    def test_expensive_sum_without_lookup_quiet(self):
        wb = make_workbook({"S": {"B1": ("=SUM(A1:A5000)", 0)}})
        report = audit_workbook(wb)
        assert all(f.rule_id != "LOOKUP_HOTSPOT" for f in report.findings)


class TestScriptQualityRule:
    def _report(self, name, source, cfg=None):
        from sheetsentry.rules import check_script_quality

        return check_script_quality(
            script_metrics([ScriptModule(name, source)]), cfg or RuleConfig()
        )

    def test_small_module_quiet(self):
        assert self._report("M", "x = 1\n" * 50) == []

    def test_large_undocumented_fires(self):
        assert len(self._report("M", "x = 1\n" * 200)) == 1

    def test_documented_indented_quiet(self):
        chunk = "' step\nSub M()\n    x = 1\nEnd Sub\n"
        assert self._report("M", chunk * 50) == []


class TestConfig:
    def test_disable_rule_removes_exactly_it(self, fixtures_dir):
        full = audit_fixture(fixtures_dir, "all_rules.json")
        for rule_id in CORE_RULE_IDS:
            cfg = replace(RuleConfig(), enabled=RuleConfig().enabled - {rule_id})
            partial = audit_fixture(fixtures_dir, "all_rules.json", cfg=cfg)
            assert {f.rule_id for f in partial.findings} == CORE_RULE_IDS - {rule_id}
            kept = [f for f in full.findings if f.rule_id != rule_id]
            assert list(partial.findings) == kept

    @pytest.mark.parametrize(
        "check, rule_ids",
        [
            ("check_spec_presence", {"SPEC_MISSING"}),
            ("check_stale_values", {"STALE_VALUE"}),
            ("check_external_links", {"EXTERNAL_LINK", "UNDOCUMENTED_IMPORT"}),
            ("check_calc_mode", {"MANUAL_CALC"}),
            ("check_hardcoded_constant", {"HARDCODED_CONSTANT"}),
            ("check_deep_nesting", {"DEEP_NESTING"}),
            ("check_long_formula", {"LONG_FORMULA"}),
            ("check_copy_class_holes", {"COPY_CLASS_HOLE"}),
            ("check_lookup_hotspots", {"LOOKUP_HOTSPOT"}),
            ("check_script_quality", {"SCRIPT_QUALITY"}),
        ],
    )
    def test_disabled_rule_is_not_run(self, fixtures_dir, monkeypatch, check, rule_ids):
        def refuse(*args):
            raise AssertionError(f"{check} ran with its rules disabled")

        monkeypatch.setattr(f"sheetsentry.rules.{check}", refuse)
        cfg = RuleConfig(enabled=frozenset(RULES) - rule_ids)
        report = audit_fixture(fixtures_dir, "all_rules.json", cfg=cfg)
        assert {f.rule_id for f in report.findings} == CORE_RULE_IDS - rule_ids

    def test_threshold_monotonicity(self, fixtures_dir):
        base = audit_fixture(fixtures_dir, "all_rules.json")
        harder = RuleConfig(
            const_min_repeats=4,
            max_branches=7,
            max_formula_tokens=60,
            min_copy_class_for_hole=12,
            lookup_cost_threshold=3000,
            script_min_lines=300,
        )
        relaxed = audit_fixture(fixtures_dir, "all_rules.json", cfg=harder)
        assert len(relaxed.findings) < len(base.findings)
        for rule_id in (
            "HARDCODED_CONSTANT",
            "DEEP_NESTING",
            "LONG_FORMULA",
            "COPY_CLASS_HOLE",
            "LOOKUP_HOTSPOT",
            "SCRIPT_QUALITY",
        ):
            assert all(f.rule_id != rule_id for f in relaxed.findings)

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"max_branches": 6, "const_whitelist": [0, 1]}))
        cfg = RuleConfig.from_file(str(path))
        assert cfg.max_branches == 6
        assert cfg.const_whitelist == frozenset({0.0, 1.0})

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"max_branchez": 6}))
        with pytest.raises(FormatError):
            RuleConfig.from_file(str(path))

    def test_bad_values_rejected(self):
        with pytest.raises(FormatError):
            RuleConfig(max_branches=0)
        with pytest.raises(FormatError):
            RuleConfig(script_min_comment_ratio=1.5)
        with pytest.raises(FormatError):
            RuleConfig(enabled=frozenset({"NOPE"}))
        for key in ("script_min_comment_ratio", "script_min_indent_ratio"):
            with pytest.raises(FormatError, match=key):
                RuleConfig.from_dict({key: True})


class TestSorting:
    def test_severity_then_rule_then_location(self, fixtures_dir):
        report = audit_fixture(fixtures_dir, "all_rules.json")
        keys = [(-int(f.severity), f.rule_id) for f in report.findings]
        assert keys == sorted(keys)
        assert report.findings[0].severity is Severity.ERROR
        assert report.findings[-1].severity is Severity.INFO
