"""Typed errors, and the one rule of what is a reported failure: only an
`MzinetError`, the base of every class here, becomes a scan row's status or
a command's exit code (2 for a ConfigError, which names its field, else 3).
Any other exception, a bare ValueError or ArithmeticError included, is a
programming error and propagates.  Each class keeps its builtin parent.
"""


class MzinetError(Exception):
    """The base of every typed error: the one class a row or a command catches."""


class ConfigError(MzinetError, ValueError):
    """A network or scenario configuration field is invalid."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


class ScenarioParseError(ConfigError):
    """Scenario file failed to parse; carries line/column when known."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__("scenario", message)


class InfeasibleSplitError(MzinetError, ValueError):
    """Requested splitting probabilities cannot be realized by a cascade."""


class DarkResponseError(MzinetError, RuntimeError):
    """One or more weighted channels have no phase response."""

    def __init__(self, channels, message=None):
        self.channels = tuple(channels)
        super().__init__(
            message or f"no phase response on channel(s) {list(self.channels)}"
        )


class AllocationError(MzinetError, ValueError):
    """Photon-budget allocation is out of range (e.g. n_s >= n_T)."""


class TruncationError(MzinetError, RuntimeError):
    """Fock-space cutoff too small for the requested state."""


class ResourceLimitError(MzinetError, RuntimeError):
    """A brute-force computation would exceed the configured size guard."""


class AnalysisError(MzinetError, RuntimeError):
    """Trace analysis could not be carried out on the given data."""


class RegularizationError(MzinetError, RuntimeError):
    """A noise matrix is numerically not positive semidefinite."""


class PrecisionLossError(MzinetError, ArithmeticError):
    """A computed result lies within its own rounding error, so it has no
    significant digit left."""


class FloatRangeError(MzinetError, OverflowError):
    """A quantity overflows, or a divisor underflows to 0; the message names it."""
