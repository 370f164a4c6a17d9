"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so scenario code should raise
the most specific type that applies.
"""


class ZenosimError(Exception):
    """Base class for all package errors."""


class ConfigError(ZenosimError):
    """Invalid configuration document or override (CLI exit code 2)."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            prefix = f"line {line}" + (f", column {column}" if column is not None else "")
            message = f"{prefix}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class NumericsError(ZenosimError):
    """A numerical contract was violated during a run (CLI exit code 3)."""


class TruncationError(NumericsError):
    """Fock-space truncation is too small for the requested dynamics."""


class ConvergenceError(ZenosimError):
    """An iterative fit failed to converge (CLI exit code 4)."""
