"""Lexer, parser, serializer, and reference collection."""

from __future__ import annotations

import itertools
import random

import pytest

from sheetsentry.errors import LexError, ParseError
from sheetsentry.formula import (
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
    collect_references,
    make_range,
    parse_formula,
    serialize_formula,
    tokenize,
)

from astgen import random_ast


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
