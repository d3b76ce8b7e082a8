"""Exception hierarchy shared across the package."""

from __future__ import annotations


class SheetSentryError(Exception):
    """Base class for every error raised by this package."""


class IoError(SheetSentryError):
    """Reading a workbook file failed at the OS level."""


class FormatError(SheetSentryError):
    """A file violates its schema. ``path`` names the offending JSON path."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path


class ValidationError(SheetSentryError):
    """A file parsed but violates a workbook invariant."""


class AddressParseError(SheetSentryError):
    """A1-style address text is malformed."""


class LexError(SheetSentryError):
    """Illegal character or unterminated literal in formula text.

    ``message`` is the bare message; the offset is appended only to the
    exception's text.
    """

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (offset {offset})")
        self.message = message
        self.offset = offset


class ParseError(SheetSentryError):
    """Formula text does not match the grammar.

    ``offset`` is the position inside the parsed source; ``expected`` is the
    set of token kinds that would have been accepted there. As for
    :class:`LexError`, ``message`` is the text without the offset.
    """

    def __init__(self, message: str, offset: int, expected: frozenset[str] = frozenset()) -> None:
        super().__init__(f"{message} (offset {offset})")
        self.message = message
        self.offset = offset
        self.expected = expected


class DomainError(SheetSentryError):
    """An argument lies outside its mathematical domain."""


class UnknownNodeError(SheetSentryError):
    """The queried address is not a node of the dependency graph."""
