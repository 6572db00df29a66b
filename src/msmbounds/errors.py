"""Exception hierarchy.

Three families matter to the CLI exit-code mapping: configuration
problems (exit 2), data problems (exit 3), numerical failures (exit 4).
"""


class MsmBoundsError(Exception):
    """Base class for all package errors."""


class ConfigError(MsmBoundsError):
    """Bad configuration or usage."""


class DataError(MsmBoundsError):
    """Bad input data."""


class NumericalError(MsmBoundsError):
    """Numerical failure during estimation."""


class MissingColumn(DataError):
    def __init__(self, column):
        self.column = column
        super().__init__(f"missing column: {column!r}")


class ParseError(DataError):
    def __init__(self, row, col, value):
        self.row = row
        self.col = col
        super().__init__(f"cannot parse {value!r} at row {row}, column {col!r}")


class EmptyFile(DataError):
    pass


class RaggedPanel(DataError):
    def __init__(self, unit_id, detail=""):
        self.unit_id = unit_id
        super().__init__(f"ragged panel for id {unit_id!r}" + (f": {detail}" if detail else ""))


class BadFoldCount(ConfigError):
    pass


class SingularDesign(NumericalError):
    pass


class TooManyLevels(DataError):
    pass


class UnseenLevel(DataError, ValueError):
    """A discrete treatment level that the propensity model was not fitted on;
    still the ValueError that it was before it had a type."""


class DegenerateVariance(NumericalError):
    pass


class BadTau(ConfigError):
    pass


class SingularMoment(NumericalError):
    pass


class NoConvergence(NumericalError):
    pass


class NaNRank(NumericalError):
    """A rank rule met NaN values, which have no place in the order."""


class SubsampleTooSmall(ConfigError):
    pass


class NegativeVariance(NumericalError):
    pass


class TooLarge(ConfigError):
    pass


class UnknownDgp(ConfigError):
    pass
