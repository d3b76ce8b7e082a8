"""Lexer, parser, serializer, and reference collection."""

from __future__ import annotations

import itertools
import random
import re
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sheetsentry.formula as formula_module
from sheetsentry.errors import LexError, ParseError
from sheetsentry.formula import (
    MAX_DEPTH,
    MAX_ROW,
    Binary,
    Call,
    NumberLit,
    Range,
    RangeRef,
    Ref,
    Reference,
    TextLit,
    TokenKind,
    Unary,
    _BINARY_LEVEL,
    _SHAPE_RE,
    _STRIDE,
    _Parser,
    _shape,
    collect_references,
    make_range,
    parse_formula,
    serialize_formula,
    tokenize,
)

from astgen import random_ast
from conftest import fuzz_examples
from evaloracle import fill


def ref(col, row, abs_col=False, abs_row=False, sheet=None, external=None):
    return Reference(col, row, abs_col, abs_row, sheet, external)


class TestTokenize:
    def test_ref_plus_number(self):
        kinds = [t.kind for t in tokenize("A1+2")]
        assert kinds == [TokenKind.REF, TokenKind.OP, TokenKind.NUMBER]

    def test_if_call(self):
        toks = tokenize("IF(A1>0,1,-1)")
        assert [t.kind for t in toks] == [
            TokenKind.IDENT,
            TokenKind.LPAREN,
            TokenKind.REF,
            TokenKind.OP,
            TokenKind.NUMBER,
            TokenKind.COMMA,
            TokenKind.NUMBER,
            TokenKind.COMMA,
            TokenKind.OP,
            TokenKind.NUMBER,
            TokenKind.RPAREN,
        ]
        assert toks[0].lexeme == "IF"

    def test_string_concat(self):
        toks = tokenize('"a"&"b"')
        assert [t.kind for t in toks] == [TokenKind.STRING, TokenKind.OP, TokenKind.STRING]
        assert toks[0].lexeme == '"a"'

    def test_boolean_tokens(self):
        assert tokenize("TRUE")[0].kind is TokenKind.BOOLEAN
        assert tokenize("false")[0].kind is TokenKind.BOOLEAN

    def test_offsets_strictly_increase(self):
        toks = tokenize("IF( A1 > 0 , 1 , -1 )")
        offsets = [t.offset for t in toks]
        assert offsets == sorted(set(offsets))

    def test_lexeme_reconstruction(self):
        src = 'IF(A1 > 0, "a b", SUM(B2:B10)) & "x"'
        toks = tokenize(src)
        for tok in toks:
            assert src[tok.offset : tok.offset + len(tok.lexeme)] == tok.lexeme
        # gaps between tokens are pure whitespace
        pos = 0
        for tok in toks:
            assert src[pos : tok.offset].strip() == ""
            pos = tok.offset + len(tok.lexeme)
        assert src[pos:].strip() == ""

    def test_illegal_character(self):
        with pytest.raises(LexError) as err:
            tokenize("1 # 2")
        assert err.value.offset == 2

    def test_unterminated_string(self):
        with pytest.raises(LexError) as err:
            tokenize('1&"abc')
        assert err.value.offset == 2

    def test_letters_digits_mix_is_ident(self):
        toks = tokenize("B5E+LOG10X")
        assert [t.kind for t in toks] == [TokenKind.IDENT, TokenKind.OP, TokenKind.IDENT]

    def test_out_of_range_row_demotes_to_ident(self):
        assert tokenize("A1048577")[0].kind is TokenKind.IDENT
        assert tokenize("A1048576")[0].kind is TokenKind.REF


class TestParse:
    def test_if_with_unary(self):
        ast = parse_formula("=IF(A1>0,1,-1)")
        assert ast == Call(
            "IF",
            (
                Binary(">", Ref(ref(1, 1)), NumberLit(0.0)),
                NumberLit(1.0),
                Unary("-", NumberLit(1.0)),
            ),
        )

    def test_sum_range_times_absolute(self):
        ast = parse_formula("=SUM(B2:B10)*$C$1")
        expected = Binary(
            "*",
            Call("SUM", (Range(make_range(ref(2, 2), ref(2, 10))),)),
            Ref(ref(3, 1, True, True)),
        )
        assert ast == expected

    def test_precedence(self):
        assert parse_formula("=1+2*3") == Binary(
            "+", NumberLit(1.0), Binary("*", NumberLit(2.0), NumberLit(3.0))
        )

    def test_left_associativity(self):
        assert parse_formula("=1-2-3") == Binary(
            "-", Binary("-", NumberLit(1.0), NumberLit(2.0)), NumberLit(3.0)
        )

    def test_power_right_associative(self):
        assert parse_formula("=2^3^2") == Binary(
            "^", NumberLit(2.0), Binary("^", NumberLit(3.0), NumberLit(2.0))
        )

    def test_unary_binds_tighter_than_power(self):
        assert parse_formula("=-2^2") == Binary(
            "^", Unary("-", NumberLit(2.0)), NumberLit(2.0)
        )

    def test_comparison_lowest(self):
        ast = parse_formula('=A1&"x"=B1')
        assert isinstance(ast, Binary) and ast.op == "="

    def test_sheet_qualified(self):
        assert parse_formula("=Data!A1") == Ref(ref(1, 1, sheet="Data"))

    def test_ref_shaped_sheet_name(self):
        assert parse_formula("=S1!A1") == Ref(ref(1, 1, sheet="S1"))

    def test_quoted_sheet(self):
        assert parse_formula("='My Sheet'!A1") == Ref(ref(1, 1, sheet="My Sheet"))

    def test_external_reference(self):
        assert parse_formula("=[Rates]S1!A1*2") == Binary(
            "*", Ref(ref(1, 1, sheet="S1", external="Rates")), NumberLit(2.0)
        )

    def test_quoted_sheet_doubles_its_apostrophe(self):
        assert parse_formula("='It''s'!A1") == Ref(ref(1, 1, sheet="It's"))
        assert parse_formula("=''''!A1") == Ref(ref(1, 1, sheet="'"))
        ast = parse_formula("='[Q''s]It''s'!B2")
        assert ast == Ref(ref(2, 2, sheet="It's", external="Q's"))

    def test_quoted_external(self):
        ast = parse_formula("='[Annual Rates]My Sheet'!B2")
        assert ast == Ref(ref(2, 2, sheet="My Sheet", external="Annual Rates"))

    def test_range_corners_normalized(self):
        ast = parse_formula("=SUM(B10:A1)")
        rng = ast.args[0].ref
        assert (rng.start.col, rng.start.row) == (1, 1)
        assert (rng.end.col, rng.end.row) == (2, 10)

    def test_unknown_name_parses(self):
        assert parse_formula("=FRODD") == Call("FRODD", ())
        assert parse_formula("=ipwop+1") == Binary(
            "+", Call("IPWOP", ()), NumberLit(1.0)
        )

    def test_function_names_uppercased(self):
        assert parse_formula("=sum(A1)") == Call("SUM", (Ref(ref(1, 1)),))

    def test_complex_shape(self):
        # same constructs as a deeply nested conditional lookup formula
        src = (
            "=+IF(FRODD<5,IF(DTA=C,G56*J4-IF(B58>TERM,D,J5*SA),"
            "IF(B57>B56,IF(B58>TERM,D,G58*J4-J5*SA),G56)),SA-IF(IPW=1,PR*12,D))"
            "*VLOOKUP($B57,RT,4)"
        )
        ast = parse_formula(src)
        assert isinstance(ast, Binary) and ast.op == "*"

    def test_missing_equals(self):
        with pytest.raises(ParseError):
            parse_formula("1+1")

    def test_error_offset_and_expected(self):
        with pytest.raises(ParseError) as err:
            parse_formula("=1+")
        assert err.value.offset == len("=1+")  # just past the source end
        assert err.value.expected

    def test_error_inside_source(self):
        src = "=SUM(1,)"
        with pytest.raises(ParseError) as err:
            parse_formula(src)
        assert 0 < err.value.offset <= len(src)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_formula("=1 2")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_formula("=(1+2")

    @pytest.mark.parametrize("a,b", itertools.product(_BINARY_LEVEL, repeat=2))
    def test_every_operator_pair_groups_by_the_table(self, a, b):
        one, two, three = NumberLit(1.0), NumberLit(2.0), NumberLit(3.0)
        level_a, level_b = _BINARY_LEVEL[a], _BINARY_LEVEL[b]
        if level_a > level_b or (level_a == level_b and a != "^"):
            expected = Binary(b, Binary(a, one, two), three)
        else:
            expected = Binary(a, one, Binary(b, two, three))
        text = f"1{a}2{b}3"
        assert parse_formula("=" + text) == expected
        assert serialize_formula(expected) == text


class TestSerialize:
    def test_precedence_no_parens(self):
        ast = Binary("+", NumberLit(1.0), Binary("*", NumberLit(2.0), NumberLit(3.0)))
        assert serialize_formula(ast) == "1+2*3"

    def test_parens_needed(self):
        ast = Binary("*", Binary("+", NumberLit(1.0), NumberLit(2.0)), NumberLit(3.0))
        assert serialize_formula(ast) == "(1+2)*3"

    def test_call(self):
        ast = Call("IF", (Ref(ref(1, 1)), NumberLit(1.0), NumberLit(0.0)))
        assert serialize_formula(ast) == "IF(A1,1,0)"

    def test_right_assoc_parens(self):
        left_nested = Binary("^", Binary("^", NumberLit(2.0), NumberLit(3.0)), NumberLit(2.0))
        assert serialize_formula(left_nested) == "(2^3)^2"
        right_nested = Binary("^", NumberLit(2.0), Binary("^", NumberLit(3.0), NumberLit(2.0)))
        assert serialize_formula(right_nested) == "2^3^2"

    def test_unary_wraps_binary(self):
        ast = Unary("-", Binary("+", NumberLit(1.0), NumberLit(2.0)))
        assert serialize_formula(ast) == "-(1+2)"

    def test_equal_level_right_child_keeps_parens(self):
        ast = Binary("-", NumberLit(1.0), Binary("-", NumberLit(2.0), NumberLit(3.0)))
        assert serialize_formula(ast) == "1-(2-3)"

    def test_string_escaping(self):
        assert serialize_formula(TextLit('say "hi"')) == '"say ""hi"""'

    def test_quoted_sheet_rendering(self):
        assert serialize_formula(Ref(ref(1, 1, sheet="My Sheet"))) == "'My Sheet'!A1"
        assert serialize_formula(Ref(ref(1, 1, sheet="It's"))) == "'It''s'!A1"
        external = Ref(ref(1, 1, sheet="It's", external="Q's"))
        assert serialize_formula(external) == "'[Q''s]It''s'!A1"

    @pytest.mark.parametrize(
        "src",
        [
            "='TRUE'!A1",
            "='false'!A1",
            "='[TRUE]S'!A1",
            "='[Book]False'!A1",
            "='$A1'!B2",
            "='Données'!A1",
            "='.x'!A1",
            "=Q1!A1",
            "=TRUE.x!A1",
        ],
    )
    def test_names_that_lex_as_something_else_round_trip(self, src):
        # a name is bare only when it lexes as one name that is not a boolean
        ast = parse_formula(src)
        assert "=" + serialize_formula(ast) == src
        assert parse_formula(src) == ast


class TestCollectReferences:
    def test_two_refs_in_order(self):
        refs = collect_references(parse_formula("=A1+B2"))
        assert refs == [ref(1, 1), ref(2, 2)]

    def test_range_collected_once(self):
        refs = collect_references(parse_formula("=SUM(A1:A9)"))
        assert len(refs) == 1
        assert isinstance(refs[0], RangeRef)

    def test_external(self):
        refs = collect_references(parse_formula("=[Rates]S1!A1*2"))
        assert refs == [ref(1, 1, sheet="S1", external="Rates")]

    def test_source_order(self):
        refs = collect_references(parse_formula("=IF(C1>0,A1,B1)+D1"))
        cols = [r.col for r in refs]
        assert cols == [3, 1, 2, 4]


class TestRoundTrip:
    def test_generated_asts(self):
        rng = random.Random(1234)
        for _ in range(300):
            ast = random_ast(rng, depth=6)
            text = "=" + serialize_formula(ast)
            assert parse_formula(text) == ast, text

    def test_reconstruction_property_on_generated(self):
        rng = random.Random(99)
        for _ in range(100):
            src = serialize_formula(random_ast(rng, depth=5))
            toks = tokenize(src)
            rebuilt = "".join(t.lexeme for t in toks)
            assert rebuilt == src  # canonical text has no whitespace


def outcome(parse, src):
    """The AST, or the error's text, offset and expected set."""
    try:
        return parse(src)
    except ParseError as exc:
        return ("error", str(exc), exc.offset, exc.expected)


def fresh_parse(src):
    """A full parse that never reads the shape table."""
    try:
        tokens = tokenize(src[1:])
    except LexError as exc:
        raise ParseError(exc.message, exc.offset + 1) from exc
    return _Parser(tokens).parse()


def rewrite(src, lexeme_of):
    """``src`` with each token's lexeme replaced by ``lexeme_of(token)``;
    a reference-shaped sheet name (the token before ``!``) is kept."""
    body, out, pos = src[1:], [], 0
    tokens = tokenize(body)
    for tok, after in zip(tokens, tokens[1:] + [None]):
        sheet = after is not None and after.kind is TokenKind.BANG
        out += [body[pos : tok.offset], tok.lexeme if sheet else lexeme_of(tok)]
        pos = tok.offset + len(tok.lexeme)
    return "=" + "".join(out) + body[pos:]


REF_PARTS = re.compile(r"(\$?)([A-Za-z]+)(\$?)([0-9]+)")


def respell(rng, src):
    """Another shape: random spaces after tokens, random letter case outside
    string literals, and the ``$`` of each reference part toggled at random."""

    def lexeme_of(tok):
        lexeme = tok.lexeme
        if tok.kind is TokenKind.REF:
            _, col, _, row = REF_PARTS.fullmatch(lexeme).groups()
            lexeme = rng.choice(["", "$"]) + col + rng.choice(["", "$"]) + row
        if tok.kind is not TokenKind.STRING:
            lexeme = "".join(rng.choice([ch.lower(), ch.upper()]) for ch in lexeme)
        return lexeme + " " * rng.choice([0, 0, 1, 2])

    return rewrite(src, lexeme_of)


def redraw(rng, src):
    """The same shape with other values: every number, column and row drawn
    afresh, some rows past ``MAX_ROW``."""

    def lexeme_of(tok):
        if tok.kind is TokenKind.NUMBER:
            return rng.choice(["0", "7", "12.", ".5", "3.25", "1E5", "2e-3", "1e999"])
        if tok.kind is TokenKind.REF:
            col_abs, _, row_abs, _ = REF_PARTS.fullmatch(tok.lexeme).groups()
            col = "".join(rng.choice("ABCxyz") for _ in range(rng.randint(1, 3)))
            row = rng.choice([1, 250, MAX_ROW, MAX_ROW + 1, 2_000_000, rng.randint(1, 9999)])
            return f"{col_abs}{col}{row_abs}{row}"
        return tok.lexeme

    return rewrite(src, lexeme_of)


def masked_key(src):
    """The shape key by its definition, the oracle of ``_shape``'s: the
    whole split with the number lexemes, column letters and row digits
    blanked out."""
    parts = _SHAPE_RE.split(src)
    masked = parts.copy()
    blanks = [None] * (len(parts) // _STRIDE)
    masked[1::_STRIDE] = masked[4::_STRIDE] = masked[6::_STRIDE] = blanks
    return tuple(masked)


# texts whose words are odd: reference-shaped sheet and workbook names, rows
# past MAX_ROW, quoted names, and texts with no word at all
EDGE_TEXTS = [
    "=Q1!A1", "=Q1!B7", "=Q1 !A1", "=[1]S!A1", "=[2]S!B3", "=[2.5]S!A1", "=[A1]S!A1",
    "=[B7]S!C2", "=A1048576", "=A1048577", "=A2000000", "=$A2000000", "=A1048577!B1",
    "='My Sheet'!A1", "='My Sheet'!xfd9", "='It''s'!A1", "='Q1'!A1", "='[x]y'!A1",
    '="A1"&A1', '="A1"&ZZ77', "=(", "=()", "=+", "=-(", "=",
]


def through(table, src):
    """What ``parse_formula`` gives for ``src`` through the shape table
    ``table``: the cell filled back into an AST and its hole values, or
    the error's outcome and None."""
    cell = outcome(partial(parse_formula, shapes=table), src)
    if cell[0] == "error":
        return cell, None
    return fill(cell), cell[1:]


class TestParseByShape:
    """parse_formula reads texts through the caller's table of shapes; a
    hit gives the cell that the text's own parse gives, and every result,
    AST or error, equals a full parse of the same text."""

    def assert_like_own_parse(self, table, src):
        expected = outcome(fresh_parse, src)
        assert outcome(parse_formula, src) == expected, src
        own = through({}, src)
        assert own[0] == expected, src
        assert through(table, src) == own, src  # a miss, or a hit
        assert through(table, src) == own, src  # now a hit when the shape is shared

    @settings(max_examples=fuzz_examples(300), deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_generated_text_and_its_respellings(self, rng):
        table = {}
        canonical = "=" + serialize_formula(random_ast(rng, depth=5))
        for src in (canonical, respell(rng, canonical)):
            self.assert_like_own_parse(table, src)
            sibling = redraw(rng, src)
            assert _shape(sibling)[1] == _shape(src)[1]
            self.assert_like_own_parse(table, sibling)

    @pytest.mark.parametrize(
        "first,second",
        [
            ("=S1!A1", "=S1!B7"),
            ("=[1]S!A1", "=[2]S!C3"),
            ("=B5:A1", "=C2:D9"),
            ('="A1"&A1', '="A1"&ZZ77'),
            ("=A1.5", "=A1.5"),
            ("=1E5", "=7"),
            ("=.5", "=12."),
            ("=TRUE", "=TRUE"),
            ("='My Sheet'!A1", "='My Sheet'!xfd9"),
            ("=SUM($A$1:B2)", "=SUM($C$9:A1)"),
        ],
    )
    def test_pinned_pairs(self, first, second):
        table = {}
        assert _shape(first)[1] == _shape(second)[1]
        for src in (first, second, first):
            self.assert_like_own_parse(table, src)

    @pytest.mark.parametrize("src", ["=[1]S!A1", "=[A1]S!A1", "=[2.5]S!A1"])
    def test_lexemes_used_as_names_are_never_filled(self, src):
        table = {}
        self.assert_like_own_parse(table, src)
        assert table[_shape(src)[1]] is None

    @pytest.mark.parametrize(
        "first,second",
        [
            ("=Q1!A1", "=Q1!B7"),
            ("=FY2024!$B$2*2", "=FY2024!$C$9*3.5"),
            ("=SUM(Q1 !A1:B2)", "=SUM(Q1 !C3:A1)"),
            ("=[X]B2!A1", "=[X]B2!ZZ40"),
            ("=A1048577!B1", "=A1048577!C2"),
        ],
    )
    def test_reference_shaped_sheet_names_are_filled(self, first, second, monkeypatch):
        table = {}
        assert _shape(first)[1] == _shape(second)[1]
        assert fill(parse_formula(first, shapes=table)) == fresh_parse(first)
        assert table[_shape(first)[1]] is not None
        expected = fresh_parse(second)
        monkeypatch.setattr(formula_module, "tokenize", None)  # a hit never tokenizes
        assert fill(parse_formula(second, shapes=table)) == expected

    @pytest.mark.parametrize("src", ["=$Q1!A1", "=Q$1!A1", "=Q1!A1!B1", "=A1:B1!C1"])
    def test_reference_shaped_sheet_name_errors_alike(self, src):
        table = {}
        parse_formula("=Q1!A1", shapes=table)
        self.assert_like_own_parse(table, src)

    def test_out_of_range_row_demotes_on_a_hit(self):
        table = {}
        assert _shape("=A1048577")[1] == _shape("=A1")[1]
        for src, ast in [
            ("=A1", Ref(ref(1, 1))),
            ("=A1048577", Call("A1048577", ())),
            ("=A1048576", Ref(ref(1, MAX_ROW))),
        ]:
            assert fill(parse_formula(src, shapes=table)) == ast

    def test_out_of_range_row_leaves_the_shape_cacheable(self):
        table = {}
        assert fill(parse_formula("=A1048577", shapes=table)) == Call("A1048577", ())
        assert not table
        parse_formula("=A1", shapes=table)
        parse_formula("=B2", shapes=table)
        assert table[_shape("=A1")[1]] is not None

    def test_absolute_out_of_range_row_errors_alike_on_a_hit(self):
        table = {}
        parse_formula("=$A1", shapes=table)
        with pytest.raises(ParseError) as err:
            parse_formula("=$A2000000", shapes=table)
        assert (str(err.value), err.value.offset) == (
            "reference '$A2000000' out of range (offset 1)", 1,
        )
        self.assert_like_own_parse(table, "=$A2000000")

    def test_errors_are_never_cached(self):
        table = {}
        for src in ("=1+", "=SUM(1,)", '="abc', "=1 # 2"):
            self.assert_like_own_parse(table, src)
        assert not table

    def test_a_hit_neither_tokenizes_nor_parses(self, monkeypatch):
        table = {}
        first = parse_formula("=-1+A1*1", shapes=table)
        monkeypatch.setattr(formula_module, "tokenize", None)
        monkeypatch.setattr(formula_module, "_Parser", None)
        cell = parse_formula("=-2+B3*2", shapes=table)
        assert cell[0] is first[0]
        assert fill(cell) == fresh_parse("=-2+B3*2")

    @settings(max_examples=fuzz_examples(200), deadline=None)
    @given(st.randoms(use_true_random=False), st.lists(st.text("A1$!'\"[]:.eE+ (Q9_", max_size=12)))
    def test_key_partitions_texts_as_the_masked_split(self, rng, junk):
        texts = EDGE_TEXTS + ["=" + text for text in junk]
        for _ in range(4):
            src = "=" + serialize_formula(random_ast(rng, depth=4))
            texts += [src, redraw(rng, src), respell(rng, src)]
            texts.append(redraw(rng, texts[-1]))
        # two texts share a key exactly when they share the masked split
        pairs = {(masked_key(src), _shape(src)[1]) for src in texts}
        assert len(pairs) == len({old for old, _ in pairs}) == len({new for _, new in pairs})

    def test_tables_and_plain_parses_share_nothing(self):
        one, other = {}, {}
        assert parse_formula("=A1*2", shapes=one)[0] is not parse_formula("=B7*3", shapes=other)[0]
        assert parse_formula("=B7*3", shapes=one)[0] is parse_formula("=A1*2", shapes=one)[0]
        assert parse_formula("=A1*2") is not parse_formula("=A1*2")
        assert parse_formula("=A1*2") == parse_formula("=A1*2")

    def test_depth_limit(self):
        at_limit = "=" + "+".join(["1"] * MAX_DEPTH)
        assert parse_formula(at_limit) == fresh_parse(at_limit)
        for src in (at_limit + "+1", "=" + "-" * MAX_DEPTH + "1"):
            with pytest.raises(ParseError) as err:
                parse_formula(src)
            assert (err.value.message, err.value.offset) == ("formula nests too deeply", 1)
