"""The formula shape as the unit of work.

An audit keeps each formula cell as its shape's template plus its hole
values. Copy classes are keyed on the template and the holes taken
relative to the cell and their texts rendered from the template, graph
nodes are read from the holes, the per-class rules read per-template
facts, and each template compiles once into an evaluator. The tests here
check each fast path against the per-cell slow path it replaced:
normalized text per cell, the filled-AST classes and rules in
``classoracle``, and the tree-walking evaluator in ``evaloracle``.
"""

from __future__ import annotations

import random
import sys
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from sheetsentry import evaluate as evaluate_module
from sheetsentry import formula as formula_module
from sheetsentry import metrics as metrics_module
from sheetsentry import rules as rules_module
from sheetsentry.formula import (
    Binary,
    Call,
    FormulaAst,
    Range,
    Ref,
    Reference,
    Template,
    TokenKind,
    Unary,
    make_range,
    parse_formula,
    serialize_formula,
    tokenize,
)
from sheetsentry.metrics import Analysis, compute_metrics
from sheetsentry.normalize import copy_classes
from sheetsentry.report import audit_workbook, render_json
from sheetsentry.rules import RuleConfig, run_rules
from sheetsentry.workbook import (
    MAX_COL,
    MAX_ROW,
    CellAddress,
    CellValue,
    Sheet,
    Workbook,
    col_to_letters,
    workbook_from_dict,
)

import classoracle
from astgen import random_ast
from conftest import as_cell, fuzz_examples, make_workbook, scale_grid_doc
from evalgen import random_acyclic_workbook
from evaloracle import TreeEngine
from scanoracle import ScanEngine
from test_normalize import translate_ast
from test_range_reads import outcome, plain


def map_refs(node: FormulaAst, fn) -> FormulaAst:
    """``node`` with ``fn`` applied to every reference corner."""
    if isinstance(node, Ref):
        return Ref(fn(node.ref))
    if isinstance(node, Range):
        return Range(make_range(fn(node.ref.start), fn(node.ref.end)))
    if isinstance(node, Call):
        return Call(node.name, tuple(map_refs(a, fn) for a in node.args))
    if isinstance(node, Unary):
        return Unary(node.op, map_refs(node.operand, fn))
    if isinstance(node, Binary):
        return Binary(node.op, map_refs(node.left, fn), map_refs(node.right, fn))
    return node


def in_bounds(node: FormulaAst) -> bool:
    corners = []
    map_refs(node, lambda ref: corners.append(ref) or ref)
    return all(1 <= c.col <= MAX_COL and 1 <= c.row <= MAX_ROW for c in corners)


def respell(rng: random.Random, src: str) -> str:
    """The same formula spelled another way: spaces after tokens, letter case
    outside string literals (sheet and workbook names included), and the
    whole body in redundant parentheses."""
    out = []
    for tok in tokenize(src[1:]):
        lexeme = tok.lexeme
        if tok.kind is not TokenKind.STRING:
            lexeme = "".join(rng.choice([ch.lower(), ch.upper()]) for ch in lexeme)
        out.append(lexeme + " " * rng.choice([0, 0, 1]))
    body = "".join(out)
    return f"=({body})" if rng.random() < 0.3 else "=" + body


# sheet names whose case forms differ under upper() and casefold()
HAZARD_SHEETS = ["ı", "i", "I", "ẞ", "SS", "ss"]


def generated_cells(rng: random.Random) -> dict[tuple[int, int], str]:
    """Generated formulas, each copied to a few random origins, some of its
    copies respelled or given another case of a sheet name."""
    cells: dict[tuple[int, int], str] = {}
    for _ in range(rng.randrange(1, 6)):
        base = random_ast(rng, depth=3)
        if rng.random() < 0.3:
            sheet = rng.choice(HAZARD_SHEETS)
            base = map_refs(base, lambda ref: ref if ref.external else replace(ref, sheet=sheet))
        origin = (rng.randrange(1, 40), rng.randrange(1, 40))
        for _ in range(rng.randrange(1, 5)):
            at = (rng.randrange(1, 40), rng.randrange(1, 40))
            copy = translate_ast(base, at[1] - origin[1], at[0] - origin[0])
            if not in_bounds(copy):
                continue
            src = "=" + serialize_formula(copy)
            if rng.random() < 0.4:
                src = respell(rng, src)
            cells[at] = src
    return cells


def partition(classes) -> set[frozenset[CellAddress]]:
    return {frozenset(c.members) for c in classes}


class TestClassKeys:
    @settings(max_examples=fuzz_examples(200), deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_shape_keys_partition_as_normalized_text(self, rng):
        cells = generated_cells(rng)
        wb = make_workbook({"S": {f"{col_to_letters(c)}{r}": f for (c, r), f in cells.items()}})
        by_text: dict[str, set[CellAddress]] = {}
        for (col, row), src in cells.items():
            at = CellAddress("S", col, row)
            # the slow path: a fresh parse per cell, its text with names casefolded
            text = classoracle._identity(formula_module._parse(src), at)
            by_text.setdefault(text, set()).add(at)
        classes = copy_classes(wb)
        assert partition(classes) == {frozenset(m) for m in by_text.values()}
        for cls in classes:
            rep = cls.representative
            ast = formula_module._parse(cells[rep.col, rep.row])
            assert cls.normalized == classoracle.normalize(ast, rep)

    @settings(max_examples=fuzz_examples(200), deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_classes_and_class_rules_match_the_oracle(self, rng):
        wb = make_workbook({
            name: {f"{col_to_letters(c)}{r}": f for (c, r), f in generated_cells(rng).items()}
            for name in ("S", "T")
        })
        a = Analysis(wb)
        # class order, member order and text, not only the partition
        assert a.classes == classoracle.copy_classes(wb, a.asts)
        # every literal of every class is a finding
        cfg = RuleConfig(
            const_min_repeats=1, const_whitelist=frozenset(), max_branches=1, lookup_cost_threshold=1
        )
        for check in ("check_hardcoded_constant", "check_deep_nesting", "check_lookup_hotspots"):
            got = getattr(rules_module, check)(a, cfg)
            expected = getattr(classoracle, check)(a.classes, cfg, a.asts)
            # repr tells -0.0 from 0.0
            assert repr(got) == repr(expected), check
        for addr, cell in a.asts.cells.items():
            facts, ast = a.shapes[cell[0]], a.asts[addr]
            assert repr(facts.literals(cell)) == repr(classoracle._literal_values(ast))
            assert facts.branches == classoracle.branch_count(ast)
            assert facts.cost(cell) == classoracle.formula_cost(ast)
        metrics = compute_metrics(a)
        assert metrics.max_branching == classoracle.max_branching(a.classes, a.asts)
        assert metrics.cost_estimate == classoracle.cost_estimate(a.asts)

    def test_mixed_anchor_range_copies(self):
        # $B1:A1 copied right swaps its corners once its relative corner passes B
        wb = make_workbook({"S": {"C1": "=SUM($B1:A1)", "D1": "=SUM($B1:B1)", "E1": "=SUM($B1:C1)"}})
        texts = [c.normalized for c in copy_classes(wb)]
        assert texts == ["SUM(RC[-2]:RC2)", "SUM(RC2:RC[-2])"]


def sheet_case_workbook(formulas: dict[str, str], sheets: list[str]) -> Workbook:
    cells = {a1: as_cell(f) for a1, f in formulas.items()}
    main = {}
    for a1, cell in cells.items():
        col = ord(a1[0]) - 64
        main[col, int(a1[1:])] = cell
    return Workbook(sheets=[Sheet("S", main)] + [Sheet(name, {}) for name in sheets])


class TestSheetNameCase:
    """Class identity compares sheet names as the workbook matches them."""

    def test_dotless_i_and_i_are_two_sheets(self):
        wb = sheet_case_workbook({"B1": "='ı'!A1", "C1": "='i'!B1"}, ["ı", "i"])
        assert wb.sheet("ı") is not wb.sheet("i")
        assert compute_metrics(wb).unique_formulae == 2

    def test_sharp_s_and_ss_are_one_sheet(self):
        wb = sheet_case_workbook({"B1": "='ẞ'!A1", "C1": "='SS'!B1"}, ["ẞ"])
        assert wb.sheet("SS") is wb.sheet("ẞ")
        assert compute_metrics(wb).unique_formulae == 1
        [cls] = copy_classes(wb)
        assert cls.members == (CellAddress("S", 2, 1), CellAddress("S", 3, 1))
        # the evidence text is still the representative's normalized text
        expected = classoracle.normalize(parse_formula("='ẞ'!A1"), CellAddress("S", 2, 1))
        assert cls.normalized == expected == "'ẞ'!RC[-1]"


def random_formula_workbook(rng: random.Random) -> Workbook:
    """Generated formulas over a small grid of inputs on two sheets, each
    copied to a few cells, so references hit inputs, blanks, other
    formulas (cycles too), missing sheets and other workbooks."""
    inputs = {}
    for col in range(1, 4):
        for row in range(1, 7):
            if rng.random() < 0.7:
                inputs[f"{col_to_letters(col)}{row}"] = rng.choice(
                    [0, 1, -2.5, 7, "3", "text", "", True, False]
                )

    def squeeze(ref: Reference) -> Reference:
        return replace(ref, col=1 + ref.col % 6, row=1 + ref.row % 8)

    formulas = {}
    for _ in range(rng.randrange(1, 8)):
        base = map_refs(random_ast(rng, depth=3), squeeze)
        for _ in range(rng.randrange(1, 4)):
            col, row = rng.randrange(4, 7), rng.randrange(1, 9)
            copy = translate_ast(base, row - 1, col - 4)
            if in_bounds(copy):
                formulas[f"{col_to_letters(col)}{row}"] = "=" + serialize_formula(copy)
    return make_workbook({"S1": {**inputs, **formulas}, "Data": dict(inputs)})


class TreeScanEngine(TreeEngine, ScanEngine):
    pass


class TestCompiledEvaluation:
    """Compiled evaluators agree with the tree-walking evaluator on values,
    taint, ``#CIRC!`` cells, staleness entries and external exclusions."""

    @settings(max_examples=fuzz_examples(200), deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_generated_formulas(self, rng):
        wb = random_formula_workbook(rng)
        assert outcome(evaluate_module.Engine, wb) == outcome(TreeEngine, wb)
        assert outcome(ScanEngine, wb) == outcome(TreeScanEngine, wb)

    def test_generated_acyclic_workbooks(self):
        for seed in range(60):
            wb = random_acyclic_workbook(random.Random(seed))
            assert outcome(evaluate_module.Engine, wb) == outcome(TreeEngine, wb), seed
            assert outcome(ScanEngine, wb) == outcome(TreeScanEngine, wb), seed

    def test_cycles_and_external_links(self):
        wb = make_workbook({"S": {
            "A1": "=B1+1", "B1": "=A1*2", "C1": "=SUM(A1:B1)",
            "D1": "=[Rates]S1!A1", "D2": "=D1+1", "D3": "=SUM([Rates]S1!A1:A3)", "E1": 4,
        }})
        expected = outcome(TreeEngine, wb)
        assert outcome(evaluate_module.Engine, wb) == expected
        values, tainted, _, exclusions = expected
        assert values[CellAddress("S", 3, 1)] == plain(CellValue.error("#CIRC!"))
        assert exclusions == [CellAddress("S", 4, 1), CellAddress("S", 4, 2), CellAddress("S", 4, 3)]


class TestWorkPerShape:
    """An audit fills no AST: criterion 8's grid (100,000 formula cells,
    400 classes, one shape) and a workbook of small classes."""

    def test_no_ast_and_one_evaluator_per_shape(self, monkeypatch):
        fills, compiles = [0], [0]
        fill, compile_template = Template.fill, evaluate_module.compile_template

        def counting_fill(self, cell):
            fills[0] += 1
            return fill(self, cell)

        def counting_compile(template):
            compiles[0] += 1
            return compile_template(template)

        monkeypatch.setattr(Template, "fill", counting_fill)
        monkeypatch.setattr(evaluate_module, "compile_template", counting_compile)
        a = Analysis(workbook_from_dict(scale_grid_doc()))
        metrics = compute_metrics(a)
        run_rules(a, RuleConfig())
        assert not a.staleness.entries
        shapes = {cell[0] for cell in a.asts.cells.values()}
        assert metrics.formula_cells == 100_000 and metrics.unique_formulae == 400
        assert len(shapes) == 1
        assert fills[0] == 0
        assert compiles[0] == len(shapes)

    def test_audit_of_small_classes_fills_and_renders_no_ast(self, monkeypatch):
        # audit_mix's shape: 2,000 singleton classes on a qualified sheet and
        # a running balance over them, with the per-class rules firing
        calc = {}
        for r in range(1, 2001):
            calc[f"B{r}"] = f"=Inputs!A{r}*{r + 0.5}"
            calc[f"C{r}"] = f"=C{r - 1}+B{r}" if r > 1 else "=B1"
            calc[f"D{r}"] = f"=IF(B{r}>1,IF(B{r}>2,1,-7.5),IF(C{r}>3,3,IF(A{r}>4,-7.5,5)))"
        calc["E1"] = "=VLOOKUP(Inputs!A1,Inputs!$A$1:$A$2000,1)"
        calc["E2"] = "=[Rates]Table!A1*-7.5"
        calc["E3"] = "=-7.5+Inputs!A3"
        wb = make_workbook({"Calc": calc, "Inputs": {f"A{r}": r for r in range(1, 2001)}})

        def refuse(*args, **kwargs):
            raise AssertionError("an audit filled or rendered an AST")

        monkeypatch.setattr(Template, "fill", refuse)
        for module, name in [
            (formula_module, "serialize_formula"),
            (metrics_module, "formula_cost"),
        ]:
            monkeypatch.setattr(module, name, refuse)
        report = audit_workbook(wb)
        render_json(report)
        assert report.metrics.unique_formulae == 2000 + 2 + 1 + 3
        assert {f.rule_id for f in report.findings} >= {
            "HARDCODED_CONSTANT", "DEEP_NESTING", "LOOKUP_HOTSPOT", "STALE_VALUE"
        }

    def test_cells_keep_their_templates(self, monkeypatch):
        # a shape table emptied on every store leaves each cell its template
        monkeypatch.setattr(formula_module, "_SHAPE_TABLE_SIZE", 1)
        formula_module._SHAPES.clear()
        wb = make_workbook({"S": {"A1": 2, "B1": ("=A1*3", 6), "C1": ("=A1+B1", 8), "B2": ("=A2*4", 0)}})
        report = audit_workbook(wb)
        assert report.metrics.unique_formulae == 3
        assert report.stale_entries == ()
        assert len(formula_module._SHAPES) <= 1


def test_oracle_module_is_outside_the_package():
    assert "evaloracle" not in "".join(sys.modules["sheetsentry"].__file__)
    assert not hasattr(evaluate_module.Engine, "_eval")
