"""Shared exception types."""


class ConfigError(ValueError):
    """A configuration document is malformed or names impossible parameters."""


class FormatError(ValueError):
    """An input file violates its format; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
