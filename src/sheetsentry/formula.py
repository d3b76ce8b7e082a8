"""Formula lexer, parser, serializer, and reference collection.

The grammar covers arithmetic, comparison and concatenation operators,
function calls, A1-style cell and range references (optionally qualified
with a sheet name or an external ``[workbook]sheet!`` prefix), text and
boolean literals. See ``docs/grammar.md`` for the EBNF.

Operator precedence, low to high: comparisons, ``&``, additive,
multiplicative, ``^``, unary sign. All levels are left-associative except
``^``, which is right-associative; unary sign binds tighter than ``^``.
``_BINARY_LEVEL`` is the one precedence table: the parser climbs it and
the serializer reads it to place parentheses.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, NamedTuple, Union

from .errors import LexError, ParseError
from .workbook import MAX_COL, MAX_ROW, CellAddress, Workbook, letters_to_col, col_to_letters

SUPPORTED_FUNCTIONS = frozenset(
    {"IF", "SUM", "MIN", "MAX", "AND", "OR", "NOT", "ABS", "ROUND", "VLOOKUP", "COUNT", "AVERAGE"}
)


class TokenKind(Enum):
    NUMBER = "number"
    STRING = "string"
    BOOLEAN = "boolean"
    IDENT = "ident"
    REF = "ref"
    OP = "op"
    LPAREN = "lparen"
    RPAREN = "rparen"
    COMMA = "comma"
    COLON = "colon"
    BANG = "bang"
    BRACKET = "bracket"
    EOF = "eof"


class Token(NamedTuple):
    kind: TokenKind
    lexeme: str
    offset: int


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<number>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
    | (?P<string>"(?:[^"]|"")*")
    | (?P<ref>\$?[A-Za-z]{1,3}\$?[1-9][0-9]{0,6}(?![A-Za-z0-9_.$]))
    | (?P<ident>[A-Za-z_][A-Za-z0-9_.]*|'[^']*')
    | (?P<op><>|<=|>=|[=<>+\-*/^&])
    | (?P<lparen>\()
    | (?P<rparen>\))
    | (?P<comma>,)
    | (?P<colon>:)
    | (?P<bang>!)
    | (?P<bracket>[\[\]])
    """,
    re.VERBOSE,
)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*\Z")
_REF_LEXEME_RE = re.compile(r"(\$?)([A-Za-z]{1,3})(\$?)([1-9][0-9]*)\Z")


def tokenize(src: str) -> list[Token]:
    """Lex formula text (without the leading ``=``) into tokens.

    Whitespace between tokens is skipped. Raises :class:`LexError` with the
    offending offset on an illegal character or unterminated literal.
    """
    if not src:
        raise LexError("empty formula", 0)
    tokens: list[Token] = []
    pos = 0
    n = len(src)
    while pos < n:
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            ch = src[pos]
            if ch == '"':
                raise LexError("unterminated string literal", pos)
            if ch == "'":
                raise LexError("unterminated quoted name", pos)
            raise LexError(f"illegal character {ch!r}", pos)
        group = m.lastgroup
        lexeme = m.group()
        if group == "ws":
            pos = m.end()
            continue
        if group == "ref":
            row = int(_REF_LEXEME_RE.match(lexeme).group(4))
            if row > MAX_ROW and "$" not in lexeme:
                # out-of-range rows demote the candidate to a plain name
                kind = TokenKind.IDENT
            else:
                kind = TokenKind.REF
        elif group == "ident":
            if lexeme.upper() in ("TRUE", "FALSE"):
                kind = TokenKind.BOOLEAN
            else:
                kind = TokenKind.IDENT
        else:
            kind = TokenKind[group.upper()]
        tokens.append(Token(kind, lexeme, pos))
        pos = m.end()
    return tokens


# --- AST -------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Reference:
    """A single cell reference, optionally sheet- or workbook-qualified."""

    col: int
    row: int
    abs_col: bool = False
    abs_row: bool = False
    sheet: str | None = None
    external: str | None = None


@dataclass(frozen=True, slots=True)
class RangeRef:
    """A rectangular range; start is the top-left corner after normalization."""

    start: Reference
    end: Reference


@dataclass(frozen=True, slots=True)
class NumberLit:
    value: float


@dataclass(frozen=True, slots=True)
class TextLit:
    value: str


@dataclass(frozen=True, slots=True)
class BoolLit:
    value: bool


@dataclass(frozen=True, slots=True)
class Ref:
    ref: Reference


@dataclass(frozen=True, slots=True)
class Range:
    ref: RangeRef


@dataclass(frozen=True, slots=True)
class Call:
    name: str
    args: tuple["FormulaAst", ...]


@dataclass(frozen=True, slots=True)
class Unary:
    op: str
    operand: "FormulaAst"


@dataclass(frozen=True, slots=True)
class Binary:
    op: str
    left: "FormulaAst"
    right: "FormulaAst"


FormulaAst = Union[NumberLit, TextLit, BoolLit, Ref, Range, Call, Unary, Binary]

_BINARY_LEVEL = {
    "=": 1, "<>": 1, "<": 1, "<=": 1, ">": 1, ">=": 1,
    "&": 2,
    "+": 3, "-": 3,
    "*": 4, "/": 4,
    "^": 5,
}
_UNARY_LEVEL = 6
_ATOM_LEVEL = 7


def make_range(start: Reference, end: Reference) -> RangeRef:
    """Order the corners so start is top-left; flags travel with their axis."""
    c1, ac1, c2, ac2 = start.col, start.abs_col, end.col, end.abs_col
    if c1 > c2:
        c1, ac1, c2, ac2 = c2, ac2, c1, ac1
    r1, ar1, r2, ar2 = start.row, start.abs_row, end.row, end.abs_row
    if r1 > r2:
        r1, ar1, r2, ar2 = r2, ar2, r1, ar1
    qual = {"sheet": start.sheet, "external": start.external}
    return RangeRef(
        Reference(c1, r1, ac1, ar1, **qual),
        Reference(c2, r2, ac2, ar2, **qual),
    )


def number_literal(x: float) -> str:
    """Exact canonical literal for a float: integral values render without a
    decimal point, everything else uses the shortest round-tripping form."""
    if x == 0:
        return "0"
    if x == math.inf:
        # an overflowing literal parses to inf; this one parses back to it
        return "1e999"
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def parse_formula(src: str) -> FormulaAst:
    """Parse formula source (with leading ``=``) into an AST.

    Raises :class:`ParseError` carrying an offset into ``src`` and the set
    of token kinds that were expected at that point, or, at offset 1, when
    the formula nests deeper than the parser's call stack allows.
    """
    if not src.startswith("="):
        raise ParseError("formula must start with '='", 0, frozenset({"="}))
    try:
        tokens = tokenize(src[1:])
    except LexError as exc:
        raise ParseError(exc.message, exc.offset + 1) from exc
    try:
        return _Parser(tokens).parse()
    except RecursionError:
        raise ParseError("formula nests too deeply", 1) from None


def parse_all_formulas(wb: Workbook) -> dict[CellAddress, FormulaAst]:
    """Parse every formula cell once; raises ParseError naming the cell."""
    asts: dict[CellAddress, FormulaAst] = {}
    for addr, cell in wb.iter_cells():
        if cell.formula is None:
            continue
        try:
            asts[addr] = parse_formula(cell.formula)
        except ParseError as exc:
            raise ParseError(
                f"{addr.qualified()}: {exc.message}", exc.offset, exc.expected
            ) from exc
    return asts


class _Parser:
    """Recursive-descent parser over a token list."""

    def __init__(self, tokens: list[Token]) -> None:
        end = tokens[-1].offset + len(tokens[-1].lexeme) if tokens else 0
        self.tokens = tokens + [Token(TokenKind.EOF, "", end)]
        self.pos = 0
        self.attempted: list[str] = []

    # -- token plumbing

    def peek(self, ahead: int = 0) -> Token:
        i = self.pos + ahead
        last = len(self.tokens) - 1
        return self.tokens[i if i < last else last]

    def consume(self, kind: TokenKind, lexeme: str | None = None) -> Token | None:
        tok = self.peek()
        if tok.kind is kind and (lexeme is None or tok.lexeme == lexeme):
            self.pos += 1
            self.attempted = []
            return tok
        self.attempted.append(lexeme if lexeme is not None else kind.value)
        return None

    def expect(self, kind: TokenKind, lexeme: str | None = None) -> Token:
        tok = self.consume(kind, lexeme)
        if tok is None:
            self.fail()
        return tok

    def fail(self) -> None:
        tok = self.peek()
        expected = frozenset(self.attempted)
        got = "end of formula" if tok.kind is TokenKind.EOF else repr(tok.lexeme)
        wanted = ", ".join(sorted(expected)) or "a token"
        raise ParseError(f"expected one of: {wanted}; got {got}", tok.offset + 1, expected)

    # -- grammar

    def parse(self) -> FormulaAst:
        ast = self.expression()
        if self.tokens[self.pos].kind is not TokenKind.EOF:
            self.attempted.append("an operator")
            self.attempted.append("end of formula")
            self.fail()
        return ast

    def expression(self, level: int = 1) -> FormulaAst:
        """Operands joined by operators of at least ``level``, climbing
        ``_BINARY_LEVEL`` (only operator tokens have lexemes in it). The loop
        leaves ``attempted`` to the atoms, where parses can fail."""
        node = self.unary()
        while True:
            op = self.tokens[self.pos].lexeme
            op_level = _BINARY_LEVEL.get(op, 0)
            if op_level < level:
                return node
            self.pos += 1
            # ^ is right-associative: its right operand may hold another ^
            node = Binary(op, node, self.expression(op_level if op == "^" else op_level + 1))

    def unary(self) -> FormulaAst:
        tok = self.tokens[self.pos]
        if tok.kind is TokenKind.OP and (tok.lexeme == "-" or tok.lexeme == "+"):
            self.pos += 1
            return Unary(tok.lexeme, self.unary())
        return self.atom()

    def atom(self) -> FormulaAst:
        tok = self.peek()
        if tok.kind is TokenKind.NUMBER:
            self.pos += 1
            self.attempted = []
            return NumberLit(float(tok.lexeme))
        if tok.kind is TokenKind.STRING:
            self.pos += 1
            self.attempted = []
            return TextLit(tok.lexeme[1:-1].replace('""', '"'))
        if tok.kind is TokenKind.BOOLEAN:
            self.pos += 1
            self.attempted = []
            return BoolLit(tok.lexeme.upper() == "TRUE")
        if tok.kind is TokenKind.BRACKET and tok.lexeme == "[":
            return self.external_reference()
        if tok.kind is TokenKind.IDENT:
            return self.ident_atom()
        if tok.kind is TokenKind.REF:
            if self.peek(1).kind is TokenKind.BANG:
                # a ref-shaped lexeme before '!' is really a sheet name, e.g. S1!A1
                self.pos += 1
                self.attempted = []
                if "$" in tok.lexeme:
                    raise ParseError(
                        f"sheet name may not contain '$': {tok.lexeme!r}",
                        tok.offset + 1,
                        frozenset({"ref"}),
                    )
                self.expect(TokenKind.BANG)
                return self.reference_tail(sheet=tok.lexeme, external=None)
            return self.reference_tail(sheet=None, external=None)
        if self.consume(TokenKind.LPAREN):
            node = self.expression()
            self.expect(TokenKind.RPAREN)
            return node
        for kind in ("number", "string", "boolean", "ident", "ref", "lparen"):
            self.attempted.append(kind)
        self.fail()

    def ident_atom(self) -> FormulaAst:
        tok = self.expect(TokenKind.IDENT)
        if tok.lexeme.startswith("'"):
            inner = tok.lexeme[1:-1]
            self.expect(TokenKind.BANG)
            if inner.startswith("["):
                close = inner.find("]")
                if close <= 1 or close == len(inner) - 1:
                    raise ParseError(
                        f"malformed external qualifier {tok.lexeme!r}",
                        tok.offset + 1,
                        frozenset({"ident"}),
                    )
                return self.reference_tail(sheet=inner[close + 1 :], external=inner[1:close])
            if not inner:
                raise ParseError("empty sheet name", tok.offset + 1, frozenset({"ident"}))
            return self.reference_tail(sheet=inner, external=None)
        if self.peek().kind is TokenKind.BANG:
            self.pos += 1
            self.attempted = []
            return self.reference_tail(sheet=tok.lexeme, external=None)
        if self.consume(TokenKind.LPAREN):
            args: list[FormulaAst] = []
            if not self.consume(TokenKind.RPAREN):
                args.append(self.expression())
                while self.consume(TokenKind.COMMA):
                    args.append(self.expression())
                self.expect(TokenKind.RPAREN)
            return Call(tok.lexeme.upper(), tuple(args))
        # bare unknown name (named ranges are out of scope): zero-argument call
        return Call(tok.lexeme.upper(), ())

    def external_reference(self) -> FormulaAst:
        self.expect(TokenKind.BRACKET, "[")
        wb = self.peek()
        if wb.kind not in (TokenKind.IDENT, TokenKind.REF, TokenKind.NUMBER) or wb.lexeme.startswith("'"):
            self.attempted.append("ident")
            self.fail()
        wb_name = wb.lexeme
        self.pos += 1
        self.attempted = []
        self.expect(TokenKind.BRACKET, "]")
        sheet_tok = self.peek()
        if sheet_tok.kind in (TokenKind.IDENT, TokenKind.REF) and not sheet_tok.lexeme.startswith("'"):
            self.pos += 1
            self.attempted = []
            self.expect(TokenKind.BANG)
            return self.reference_tail(sheet=sheet_tok.lexeme, external=wb_name)
        self.attempted.extend(["ident", "ref"])
        self.fail()

    def reference_tail(self, sheet: str | None, external: str | None) -> FormulaAst:
        start = self.single_reference(sheet, external)
        if self.peek().kind is TokenKind.COLON and self.peek(1).kind is TokenKind.REF:
            self.pos += 1
            self.attempted = []
            end = self.single_reference(sheet, external)
            return Range(make_range(start, end))
        return Ref(start)

    def single_reference(self, sheet: str | None, external: str | None) -> Reference:
        tok = self.expect(TokenKind.REF)
        m = _REF_LEXEME_RE.match(tok.lexeme)
        col = letters_to_col(m.group(2).upper())
        row = int(m.group(4))
        if col > MAX_COL or row > MAX_ROW:
            raise ParseError(
                f"reference {tok.lexeme!r} out of range", tok.offset + 1, frozenset({"ref"})
            )
        return Reference(
            col=col,
            row=row,
            abs_col=bool(m.group(1)),
            abs_row=bool(m.group(3)),
            sheet=sheet,
            external=external,
        )


# --- serialization -----------------------------------------------------------


def _needs_quote(name: str) -> bool:
    return _IDENT_RE.match(name) is None and _REF_LEXEME_RE.match(name) is None


def _qualifier(ref: Reference) -> str:
    if ref.external is not None:
        if _needs_quote(ref.external) or (ref.sheet and _needs_quote(ref.sheet)):
            return f"'[{ref.external}]{ref.sheet}'!"
        return f"[{ref.external}]{ref.sheet}!"
    if ref.sheet is not None:
        if _needs_quote(ref.sheet):
            return f"'{ref.sheet}'!"
        return f"{ref.sheet}!"
    return ""


def render_a1(ref: Reference) -> str:
    """A1-style text for a reference, including any qualifier."""
    return f"{_qualifier(ref)}{_cell_a1(ref)}"


def _cell_a1(ref: Reference) -> str:
    return (
        f"{'$' if ref.abs_col else ''}{col_to_letters(ref.col)}"
        f"{'$' if ref.abs_row else ''}{ref.row}"
    )


def _node_level(node: FormulaAst) -> int:
    if isinstance(node, Binary):
        return _BINARY_LEVEL[node.op]
    if isinstance(node, Unary):
        return _UNARY_LEVEL
    return _ATOM_LEVEL


def render_ast(
    node: FormulaAst,
    qualifier: Callable[[Reference], str],
    cell: Callable[[Reference], str],
) -> str:
    """Render an AST to text with minimal parentheses.

    ``qualifier`` renders a reference's sheet prefix (with its ``!``) and
    ``cell`` its coordinates; a range is the start's qualifier and both
    corners' cells around a ``:``. The normalizer swaps both out to
    produce origin-relative text; everything else is shared.
    """
    if isinstance(node, NumberLit):
        return number_literal(node.value)
    if isinstance(node, TextLit):
        return '"' + node.value.replace('"', '""') + '"'
    if isinstance(node, BoolLit):
        return "TRUE" if node.value else "FALSE"
    if isinstance(node, Ref):
        return qualifier(node.ref) + cell(node.ref)
    if isinstance(node, Range):
        rng = node.ref
        return f"{qualifier(rng.start)}{cell(rng.start)}:{cell(rng.end)}"
    if isinstance(node, Call):
        args = ",".join(render_ast(a, qualifier, cell) for a in node.args)
        return f"{node.name}({args})"
    if isinstance(node, Unary):
        text = render_ast(node.operand, qualifier, cell)
        if _node_level(node.operand) < _UNARY_LEVEL:
            text = f"({text})"
        return f"{node.op}{text}"
    if isinstance(node, Binary):
        level = _BINARY_LEVEL[node.op]
        left = render_ast(node.left, qualifier, cell)
        right = render_ast(node.right, qualifier, cell)
        if node.op == "^":
            # right-associative: any binary left child rebinds without parens
            if isinstance(node.left, Binary):
                left = f"({left})"
            if isinstance(node.right, Binary) and _BINARY_LEVEL[node.right.op] < level:
                right = f"({right})"
        else:
            if _node_level(node.left) < level:
                left = f"({left})"
            if _node_level(node.right) <= level:
                right = f"({right})"
        return f"{left}{node.op}{right}"
    raise TypeError(f"not a formula node: {node!r}")


def serialize_formula(ast: FormulaAst) -> str:
    """Canonical A1-style text (without the leading ``=``).

    ``parse_formula("=" + serialize_formula(ast))`` reproduces ``ast``.
    """
    return render_ast(ast, _qualifier, _cell_a1)


def collect_references(ast: FormulaAst) -> list[Reference | RangeRef]:
    """Every Ref/Range payload in the tree, in left-to-right source order."""
    return [node.ref for node in walk(ast) if isinstance(node, (Ref, Range))]


def walk(node: FormulaAst) -> Iterator[FormulaAst]:
    """Depth-first pre-order traversal of every node in the tree.

    An explicit stack, so a deep tree cannot overflow the call stack and
    each node is yielded once, not through every enclosing generator.
    """
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Binary):
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, Unary):
            stack.append(node.operand)
        elif isinstance(node, Call):
            stack.extend(reversed(node.args))
