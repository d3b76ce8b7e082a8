"""Formula lexer, parser, serializer, and reference collection.

The grammar covers arithmetic, comparison and concatenation operators,
function calls, A1-style cell and range references (optionally qualified
with a sheet name or an external ``[workbook]sheet!`` prefix), text and
boolean literals. See ``docs/grammar.md`` for the EBNF.

Operator precedence, low to high: comparisons, ``&``, additive,
multiplicative, ``^``, unary sign. All levels are left-associative except
``^``, which is right-associative; unary sign binds tighter than ``^``.
``_BINARY_LEVEL`` is the one precedence table: the parser climbs it and
the serializer reads it to place parentheses. ``_needs_quote`` is the one
quoting rule, of formulas and of copy-class texts alike: a sheet or workbook
name is quoted unless it lexes as one name other than ``TRUE`` or ``FALSE``.

Parsing by shape. A workbook repeats a few formula shapes over many
cells, so each shape is tokenized and parsed once and each cell keeps only
what differs from its shape's. One regex split cuts the text into its
words; the shape key is the text with every number lexeme and every
reference's column letters and row digits taken out, picked from the split
in one call. The key keeps everything else: operators, punctuation and
whitespace, string literals, names, and each reference's ``$`` signs. A
reference-shaped sheet name before ``!`` (``Q1!A1``) is a name there, as it
is to the parser.

A shape's :class:`Template` is the AST of the first text of that shape
plus where its holes are: the number leaves and the reference corners. A
formula cell is the tuple of its template and then its hole values --
numbers, columns and rows -- which is what :func:`parse_all_formulas`
keeps per cell, so an audit builds one AST per shape. Whatever depends
only on the shape is worked out once per template by its readers:
copy-class keys and texts (:mod:`sheetsentry.normalize`), graph nodes
(:mod:`sheetsentry.graph`), rule facts and cost (:mod:`sheetsentry.metrics`)
and evaluation (:mod:`sheetsentry.evaluate`). A hit in the table of
shapes gives the cell that the text's own parse gives:

- an error is never cached, so every ``ParseError`` comes from a full parse;
- a text with a row past ``MAX_ROW`` is parsed in full, because the
  tokenizer demotes such a reference to a name or the parser rejects it;
- a shape that uses a number or reference lexeme as a name (``[1]S!A1``,
  ``[A1]S!A1``) is never shared.

Such texts get a template of their own full parse that no other text
shares. The table is a local of :func:`parse_all_formulas`, one per
workbook, and each cell keeps its own template; nothing outlives the
result. A formula deeper than ``MAX_DEPTH`` nodes is a ``ParseError``,
which also bounds the recursion of a compiled evaluator.
"""

from __future__ import annotations

import math
import re
from types import SimpleNamespace
from dataclasses import dataclass
from enum import Enum
from collections.abc import Mapping
from functools import lru_cache
from operator import itemgetter
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


# The kinds as plain attributes: the lexer and the parser compare kinds per
# token, and looking a member up on the enum class costs ten times as much.
_K = SimpleNamespace(**TokenKind.__members__)


class Token(NamedTuple):
    kind: TokenKind
    lexeme: str
    offset: int


# The four word patterns, shared by the tokenizer and the shape split below.
# A ref captures its column ``$``, letters, row ``$`` and row digits.
_NUMBER = r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_STRING = r'"(?:[^"]|"")*"'
_REF = r"(\$?)([A-Za-z]{1,3})(\$?)([1-9][0-9]{0,6})(?![A-Za-z0-9_.$])"
_NAME = r"[A-Za-z_][A-Za-z0-9_.]*|'(?:[^']|'')*'"

_TOKEN_RE = re.compile(
    rf"""
      (?P<ws>\s+)
    | (?P<number>{_NUMBER})
    | (?P<string>{_STRING})
    | (?P<ref>{_REF})
    | (?P<ident>{_NAME})
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

# the kind of every token group but "ref" and "ident", which depend on the lexeme
_GROUP_KIND = {
    group: TokenKind[group.upper()]
    for group in _TOKEN_RE.groupindex
    if group not in ("ws", "ref", "ident")
}
_REF_ROW_GROUP = _TOKEN_RE.groupindex["ref"] + 4  # the ref's row digits
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
        end = m.end()
        if group == "ws":
            pos = end
            continue
        lexeme = m.group()
        kind = _GROUP_KIND.get(group)
        if kind is None:
            if group == "ref":
                # out-of-range rows demote the candidate to a plain name
                demoted = int(m.group(_REF_ROW_GROUP)) > MAX_ROW and "$" not in lexeme
                kind = _K.IDENT if demoted else _K.REF
            elif lexeme.upper() in ("TRUE", "FALSE"):
                kind = _K.BOOLEAN
            else:
                kind = _K.IDENT
        tokens.append(Token(kind, lexeme, pos))
        pos = end
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


# The operands or arguments of each inner node type, in source order; the
# one description of the tree's shape, read by ``walk`` and ``_depth``.
_CHILDREN: dict[type, Callable[..., tuple[FormulaAst, ...]]] = {
    Binary: lambda node: (node.left, node.right),
    Unary: lambda node: (node.operand,),
    Call: lambda node: node.args,
}


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


MAX_DEPTH = 256
"""Deepest AST a formula may parse to, counted in nodes from root to leaf."""


def parse_formula(src: str, *, shapes: dict | None = None) -> FormulaAst | tuple:
    """Parse formula source (with leading ``=``) into an AST.

    Raises :class:`ParseError` carrying an offset into ``src`` and the set
    of token kinds that were expected at that point, or, at offset 1, when
    the formula nests deeper than :data:`MAX_DEPTH` or than the parser's
    call stack allows.

    With ``shapes``, the caller's table of templates by shape (see
    "Parsing by shape" in the module docstring), no AST is built for a
    text of a shape in the table: the result is the text's formula cell,
    its :class:`Template` followed by its hole values. A text of a new
    shape is parsed in full and its template stored.
    """
    if not src.startswith("="):
        raise ParseError("formula must start with '='", 0, frozenset({"="}))
    if shapes is None:
        return _parse(src)
    parts, key = _shape(src)
    template = shapes.get(key)
    cell = None if template is None else template.cell(parts)
    if cell is None:
        ast = _parse(src)
        # a row past MAX_ROW was demoted to a name, which says nothing of the shape
        if key not in shapes and all(int(row) <= MAX_ROW for row in parts[6::_STRIDE] if row):
            template = Template(ast, parts)
            shapes[key] = template if template.numbers is not None else None
        else:
            template = Template(ast)
        cell = (template, *template.own)
    return cell


def _parse(src: str) -> FormulaAst:
    try:
        tokens = tokenize(src[1:])
    except LexError as exc:
        raise ParseError(exc.message, exc.offset + 1) from exc
    try:
        ast = _Parser(tokens).parse()
    except RecursionError:
        raise ParseError("formula nests too deeply", 1) from None
    # every node takes at least one token, so a short formula is never too deep
    if len(tokens) > MAX_DEPTH and _depth(ast) > MAX_DEPTH:
        raise ParseError("formula nests too deeply", 1)
    return ast


def _depth(ast: FormulaAst) -> int:
    """Nodes on the longest root-to-leaf path, measured without recursion."""
    deepest = 0
    stack = [(ast, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        children = _CHILDREN.get(type(node))
        if children is not None:
            stack.extend((child, depth + 1) for child in children(node))
    return deepest


# --- parsing by shape ----------------------------------------------------------
#
# ``_SHAPE_RE.split`` cuts a formula into the text between words and, per
# word, seven groups: number, string, column ``$``, column letters, row
# ``$``, row digits, name. The shape key is the tuple of that list's other
# groups, taken in one ``itemgetter`` call per part count; a template reads
# the number lexemes, column letters and row digits back from the same list
# by index. A reference before ``!`` is split as a name, because the parser
# reads it as a sheet name.

_SHAPE_RE = re.compile(rf"({_NUMBER})|({_STRING})|{_REF}(?!\s*!)|({_NAME})")
_STRIDE = 8  # one piece of text, then the seven groups of the word after it


class Template:
    """A formula shape: the AST of one text of that shape, and where its holes are.

    A formula cell of the shape is the tuple ``(template, *values)``: the
    value of each number leaf, a float, then the column and row of each
    reference corner, two ints, both in source order. A range's corners
    stay as written, so its values are not ordered; :meth:`reference`
    orders them as the parser does. ``slots`` maps each leaf of ``ast``
    that takes values (by ``id``) to the index of its first value in the
    cell and, for a reference, the ``$`` flags of its corners as written
    (column, row per corner). ``refs`` lists the reference leaves in source
    order, and ``own`` the values of the text ``ast`` came from.

    ``numbers`` and ``corners`` locate the number lexemes and each corner's
    first group in a text's split (see ``_SHAPE_RE``). Both are ``None``
    when the template takes its values from ``ast`` alone; no other text
    shares it.
    """

    __slots__ = ("ast", "numbers", "corners", "refs", "slots", "own", "__weakref__")

    def __init__(self, ast: FormulaAst, parts: list | None = None) -> None:
        """The template of ``ast``, filled from the text split into ``parts``
        when that text's lexemes are its leaves; a shape that uses a number
        or reference lexeme as a name (``[1]S!A1``, ``[A1]S!A1``) is not."""
        self.ast = ast
        number_leaves = []
        refs = []
        written = []  # the reference corners, in source order
        for node in walk(ast):
            kind = type(node)
            if kind is NumberLit:
                number_leaves.append(node)
            elif kind is Ref:
                refs.append(node)
                written.append(node.ref)
            elif kind is Range:
                refs.append(node)
                written += (node.ref.start, node.ref.end)
        self.refs = tuple(refs)
        self.numbers = self.corners = None
        if parts is not None:
            numbers, corners = [], []
            for i in range(1, len(parts), _STRIDE):
                if parts[i] is not None:
                    numbers.append(i)
                elif parts[i + 2] is not None:  # a reference's column "$", if any
                    corners.append(i + 2)
            if len(numbers) == len(number_leaves) and len(corners) == len(written):
                self.numbers, self.corners = tuple(numbers), tuple(corners)
        if self.numbers is None:
            flags = [(corner.abs_col, corner.abs_row) for corner in written]
            own = [node.value for node in number_leaves]
            for corner in written:
                own += (corner.col, corner.row)
        else:
            flags = [(parts[i] == "$", parts[i + 2] == "$") for i in self.corners]
            own = self.cell(parts)[1:]
        self.own = tuple(own)
        self.slots: dict[int, tuple[int, tuple[bool, ...]]] = {}
        at = 1
        for node in number_leaves:
            self.slots[id(node)] = (at, ())
            at += 1
        corner = 0
        for node in refs:
            if type(node) is Ref:
                self.slots[id(node)] = (at, flags[corner])
                at += 2
                corner += 1
            else:
                self.slots[id(node)] = (at, flags[corner] + flags[corner + 1])
                at += 4
                corner += 2

    def cell(self, parts: list) -> tuple | None:
        """The formula cell of the text split into ``parts``, or None when a
        reference row is past ``MAX_ROW`` (the parser demotes or rejects it)."""
        cell: list = [self]
        for i in self.numbers:
            cell.append(float(parts[i]))
        for i in self.corners:
            row = int(parts[i + 3])
            if row > MAX_ROW:
                return None
            cell.append(letters_to_col(parts[i + 1].upper()))
            cell.append(row)
        return tuple(cell)

    def reference(self, cell: tuple, node: Ref | Range) -> Reference | RangeRef:
        """What reference leaf ``node`` of ``ast`` reads in formula cell ``cell``."""
        at, flags = self.slots[id(node)]
        if isinstance(node, Ref):
            qual = node.ref
            return Reference(cell[at], cell[at + 1], *flags, qual.sheet, qual.external)
        qual = node.ref.start
        return make_range(
            Reference(cell[at], cell[at + 1], flags[0], flags[1], qual.sheet, qual.external),
            Reference(cell[at + 2], cell[at + 3], flags[2], flags[3], qual.sheet, qual.external),
        )


def _shape(src: str) -> tuple[list, tuple | str]:
    """The split parts of ``src`` and its shape key."""
    parts = _SHAPE_RE.split(src)
    return parts, _kept(len(parts))(parts)


@lru_cache(maxsize=256)
def _kept(n: int) -> itemgetter:
    """The shape key of a split into ``n`` parts: every group but the number
    lexemes, column letters and row digits (a text without words is its own)."""
    return itemgetter(*(i for i in range(n) if i % _STRIDE not in (1, 4, 6)))


class Formulas(Mapping[CellAddress, FormulaAst]):
    """The formula cells of workbook ``wb``, as :func:`parse_all_formulas` read them.

    ``cells`` maps each address to its formula cell, a :class:`Template`
    followed by its hole values, in the order the cells were parsed. As a
    mapping it gives each address's AST, parsed from the cell's text on
    first use and then kept; the audit itself reads none, only ``cells``.
    """

    def __init__(self, cells: dict[CellAddress, tuple], wb: Workbook) -> None:
        self.cells = cells
        self.wb = wb
        self._asts: dict[CellAddress, FormulaAst] = {}

    def __getitem__(self, addr: CellAddress) -> FormulaAst:
        ast = self._asts.get(addr)
        if ast is None:
            if addr not in self.cells:
                raise KeyError(addr)
            ast = self._asts[addr] = _parse(self.wb.cell(addr).formula)
        return ast

    def __contains__(self, addr: object) -> bool:
        return addr in self.cells

    def __iter__(self) -> Iterator[CellAddress]:
        return iter(self.cells)

    def __len__(self) -> int:
        return len(self.cells)


def parse_all_formulas(wb: Workbook) -> Formulas:
    """Parse every formula cell once, in reading order (sheet order, then
    row, then column), with one table of shapes for the workbook; raises
    ParseError naming the cell."""
    cells: dict[CellAddress, tuple] = {}
    shapes: dict[tuple | str, Template | None] = {}
    new = tuple.__new__
    for sheet in wb.sheets:
        found = [(row, col, cell.formula) for (col, row), cell in sheet.cells.items()
                 if cell.formula is not None]
        found.sort()  # (row, col) is unique, so formula texts are never compared
        for row, col, formula in found:
            addr = new(CellAddress, (sheet.name, col, row))  # CellAddress's own __new__, inlined
            try:
                cells[addr] = parse_formula(formula, shapes=shapes)
            except ParseError as exc:
                raise ParseError(
                    f"{addr.qualified()}: {exc.message}", exc.offset, exc.expected
                ) from exc
    return Formulas(cells, wb)


class _Parser:
    """Recursive-descent parser over a token list."""

    def __init__(self, tokens: list[Token]) -> None:
        end = tokens[-1].offset + len(tokens[-1].lexeme) if tokens else 0
        eof = Token(_K.EOF, "", end)
        self.tokens = tokens + [eof, eof]  # a look one past the end reads EOF too
        self.pos = 0
        self.attempted: list[str] = []

    # -- token plumbing

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.pos + ahead]

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
        got = "end of formula" if tok.kind is _K.EOF else repr(tok.lexeme)
        wanted = ", ".join(sorted(expected)) or "a token"
        raise ParseError(f"expected one of: {wanted}; got {got}", tok.offset + 1, expected)

    # -- grammar

    def parse(self) -> FormulaAst:
        ast = self.expression()
        if self.tokens[self.pos].kind is not _K.EOF:
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
        if tok.kind is _K.OP and (tok.lexeme == "-" or tok.lexeme == "+"):
            self.pos += 1
            return Unary(tok.lexeme, self.unary())
        return self.atom()

    def atom(self) -> FormulaAst:
        tok = self.peek()
        if tok.kind is _K.NUMBER:
            self.pos += 1
            self.attempted = []
            return NumberLit(float(tok.lexeme))
        if tok.kind is _K.STRING:
            self.pos += 1
            self.attempted = []
            return TextLit(tok.lexeme[1:-1].replace('""', '"'))
        if tok.kind is _K.BOOLEAN:
            self.pos += 1
            self.attempted = []
            return BoolLit(tok.lexeme.upper() == "TRUE")
        if tok.kind is _K.BRACKET and tok.lexeme == "[":
            return self.external_reference()
        if tok.kind is _K.IDENT:
            return self.ident_atom()
        if tok.kind is _K.REF:
            if self.peek(1).kind is _K.BANG:
                # a ref-shaped lexeme before '!' is really a sheet name, e.g. S1!A1
                self.pos += 1
                self.attempted = []
                if "$" in tok.lexeme:
                    raise ParseError(
                        f"sheet name may not contain '$': {tok.lexeme!r}",
                        tok.offset + 1,
                        frozenset({"ref"}),
                    )
                self.expect(_K.BANG)
                return self.reference_tail(sheet=tok.lexeme, external=None)
            return self.reference_tail(sheet=None, external=None)
        if self.consume(_K.LPAREN):
            node = self.expression()
            self.expect(_K.RPAREN)
            return node
        for kind in ("number", "string", "boolean", "ident", "ref", "lparen"):
            self.attempted.append(kind)
        self.fail()

    def ident_atom(self) -> FormulaAst:
        tok = self.expect(_K.IDENT)
        if tok.lexeme.startswith("'"):
            inner = tok.lexeme[1:-1].replace("''", "'")
            self.expect(_K.BANG)
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
        if self.peek().kind is _K.BANG:
            self.pos += 1
            self.attempted = []
            return self.reference_tail(sheet=tok.lexeme, external=None)
        if self.consume(_K.LPAREN):
            args: list[FormulaAst] = []
            if not self.consume(_K.RPAREN):
                args.append(self.expression())
                while self.consume(_K.COMMA):
                    args.append(self.expression())
                self.expect(_K.RPAREN)
            return Call(tok.lexeme.upper(), tuple(args))
        # bare unknown name (named ranges are out of scope): zero-argument call
        return Call(tok.lexeme.upper(), ())

    def external_reference(self) -> FormulaAst:
        self.expect(_K.BRACKET, "[")
        wb = self.peek()
        if wb.kind not in (_K.IDENT, _K.REF, _K.NUMBER) or wb.lexeme.startswith("'"):
            self.attempted.append("ident")
            self.fail()
        wb_name = wb.lexeme
        self.pos += 1
        self.attempted = []
        self.expect(_K.BRACKET, "]")
        sheet_tok = self.peek()
        if sheet_tok.kind in (_K.IDENT, _K.REF) and not sheet_tok.lexeme.startswith("'"):
            self.pos += 1
            self.attempted = []
            self.expect(_K.BANG)
            return self.reference_tail(sheet=sheet_tok.lexeme, external=wb_name)
        self.attempted.extend(["ident", "ref"])
        self.fail()

    def reference_tail(self, sheet: str | None, external: str | None) -> FormulaAst:
        start = self.single_reference(sheet, external)
        if self.peek().kind is _K.COLON and self.peek(1).kind is _K.REF:
            self.pos += 1
            self.attempted = []
            end = self.single_reference(sheet, external)
            return Range(make_range(start, end))
        return Ref(start)

    def single_reference(self, sheet: str | None, external: str | None) -> Reference:
        tok = self.expect(_K.REF)
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
    """Unless ``name`` lexes as one name, and not as a boolean, it is written quoted."""
    return _IDENT_RE.match(name) is None or name.upper() in ("TRUE", "FALSE")


def _quote(name: str) -> str:
    """``name`` quoted, its ``'`` doubled."""
    return "'" + name.replace("'", "''") + "'"


def _qualifier(ref: Reference) -> str:
    """The workbook and sheet prefix of ``ref``, quoted whole when a name needs it."""
    if ref.external is not None:
        name = f"[{ref.external}]{ref.sheet}"
        quote = _needs_quote(ref.external) or _needs_quote(ref.sheet)
    elif ref.sheet is not None:
        name, quote = ref.sheet, _needs_quote(ref.sheet)
    else:
        return ""
    return (_quote(name) if quote else name) + "!"


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


def render_pieces(node: FormulaAst, leaf: Callable[[FormulaAst], object], out: list) -> None:
    """Append the text of ``node`` to ``out`` in pieces, with minimal
    parentheses: ``leaf(n)`` for each number and reference leaf ``n``,
    strings for everything else. :func:`serialize_formula` joins them; the
    normalizer keeps a template's leaves as slots to fill per copy class.
    """
    if isinstance(node, (NumberLit, Ref, Range)):
        out.append(leaf(node))
    elif isinstance(node, TextLit):
        out.append('"' + node.value.replace('"', '""') + '"')
    elif isinstance(node, BoolLit):
        out.append("TRUE" if node.value else "FALSE")
    elif isinstance(node, Call):
        out.append(node.name + "(")
        for i, arg in enumerate(node.args):
            if i:
                out.append(",")
            render_pieces(arg, leaf, out)
        out.append(")")
    elif isinstance(node, Unary):
        parens = _node_level(node.operand) < _UNARY_LEVEL
        out.append(node.op + "(" if parens else node.op)
        render_pieces(node.operand, leaf, out)
        if parens:
            out.append(")")
    elif isinstance(node, Binary):
        level = _BINARY_LEVEL[node.op]
        if node.op == "^":
            # right-associative: any binary left child rebinds without parens
            left = isinstance(node.left, Binary)
            right = isinstance(node.right, Binary) and _BINARY_LEVEL[node.right.op] < level
        else:
            left = _node_level(node.left) < level
            right = _node_level(node.right) <= level
        if left:
            out.append("(")
        render_pieces(node.left, leaf, out)
        out.append(")" + node.op if left else node.op)
        if right:
            out.append("(")
        render_pieces(node.right, leaf, out)
        if right:
            out.append(")")
    else:
        raise TypeError(f"not a formula node: {node!r}")


def serialize_formula(ast: FormulaAst) -> str:
    """Canonical A1-style text (without the leading ``=``).

    ``parse_formula("=" + serialize_formula(ast))`` reproduces ``ast``.
    """

    def leaf(node: NumberLit | Ref | Range) -> str:
        if isinstance(node, NumberLit):
            return number_literal(node.value)
        if isinstance(node, Ref):
            return render_a1(node.ref)
        return f"{render_a1(node.ref.start)}:{_cell_a1(node.ref.end)}"

    pieces: list = []
    render_pieces(ast, leaf, pieces)
    return "".join(pieces)


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
        children = _CHILDREN.get(type(node))
        if children is not None:
            stack.extend(reversed(children(node)))
