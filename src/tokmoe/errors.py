"""Exception types shared across the package.

Every error carries a short stable ``code``; the CLI prints failures as a
single ``error[<code>]: message`` line on stderr.
"""


class TokmoeError(Exception):
    """Base class for all package errors."""

    code = "error"


class DomainError(TokmoeError):
    """An input value is outside the operation's domain."""

    code = "domain"


class DataError(TokmoeError):
    """Corpus content is invalid (missing fields, empty sequences, ...)."""

    code = "data"


class ParseError(DataError):
    """A corpus or config file could not be parsed; names the line."""

    code = "parse"


class ConfigError(TokmoeError):
    """An invalid configuration value or combination."""

    code = "config"


class IntegrityError(TokmoeError):
    """A checkpoint failed its structural or checksum validation."""

    code = "integrity"


class UsageError(TokmoeError):
    """Bad command-line usage: a flag the parser refuses, or a command's own check."""

    code = "usage"
