"""Shared exception types."""


class ScopeError(Exception):
    """The request is outside the supported scope (never a wrong answer)."""


class ParseError(Exception):
    """Syntax error in a class expression, with a 0-based character offset."""

    def __init__(self, offset, message):
        super().__init__(f"offset {offset}: {message}")
        self.offset = offset
        self.message = message


class NotSymbolRegular(ValueError):
    """A specialization point where some symbol entry has a zero or pole."""
