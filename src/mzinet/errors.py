"""Typed errors shared across the toolkit.

Plain ``ValueError``/``IndexError`` are used for simple argument violations;
the classes here exist where callers need to react to a *named* failure mode
(CLI exit codes, per-row scan statuses).
"""


class ConfigError(ValueError):
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


class InfeasibleSplitError(ValueError):
    """Requested splitting probabilities cannot be realized by a cascade."""


class DarkResponseError(RuntimeError):
    """One or more weighted channels have no phase response."""

    def __init__(self, channels, message=None):
        self.channels = tuple(channels)
        super().__init__(
            message or f"no phase response on channel(s) {list(self.channels)}"
        )


class AllocationError(ValueError):
    """Photon-budget allocation is out of range (e.g. n_s >= n_T)."""


class TruncationError(RuntimeError):
    """Fock-space cutoff too small for the requested state."""


class ResourceLimitError(RuntimeError):
    """A brute-force computation would exceed the configured size guard."""


class AnalysisError(RuntimeError):
    """Trace analysis could not be carried out on the given data."""


class RegularizationError(RuntimeError):
    """A noise matrix is numerically not positive semidefinite."""


class PrecisionLossError(ArithmeticError):
    """A computed result lies within its own rounding error, so it has no
    significant digit left."""
