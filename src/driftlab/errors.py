"""Shared exception types, and how a message quotes a value."""

#: the most characters of a value's repr, or of a list of keys, that a
#: message quotes
SHOWN_CHARS = 40


def cut(text: str) -> str:
    """text for a message, cut to SHOWN_CHARS characters ending in "..."
    when longer, so a huge config value makes a short line."""
    return text if len(text) <= SHOWN_CHARS else text[: SHOWN_CHARS - 3] + "..."


def shown(value) -> str:
    """repr(value), cut for a message."""
    return cut(repr(value))


class ConfigError(ValueError):
    """A configuration document is malformed or names impossible parameters."""


class FormatError(ValueError):
    """An input file violates its format; carries the offending line number.

    The message reads "<path>: line <line>: <reason>", each prefix there
    when it is known: a parser of text knows the line, and the reader that
    opened the file adds its path.
    """

    def __init__(self, reason: str, line: int | None = None, path: str | None = None):
        self.reason, self.line, self.path = reason, line, path
        message = reason if line is None else f"line {line}: {reason}"
        super().__init__(message if path is None else f"{path}: {message}")
