"""Shared exception types."""


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
