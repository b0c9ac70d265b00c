"""Exception taxonomy used across the package.

The CLI maps these onto process exit codes, so library code should raise
the most specific class that applies instead of bare ValueError.
"""


class CryptocastError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(CryptocastError):
    """Invalid, inconsistent, or unknown configuration."""


class DimensionError(CryptocastError):
    """Array shapes or dtypes are incompatible with the requested operation."""


class DataError(CryptocastError):
    """Problems with input data (files, frames, windows, test inputs)."""


class SchemaError(DataError):
    """A required column is missing or an unknown column was referenced."""


class OrderingError(DataError):
    """Dates are duplicated or not strictly increasing."""


class ParseError(DataError):
    """A cell could not be parsed; the message carries the row number."""


class SizeError(DataError):
    """Too few rows/samples for the requested operation."""


class DegenerateScaleError(DataError):
    """A column is constant or spans more than float64 holds, so min-max
    scaling is undefined."""


class AlignmentError(DataError):
    """Prediction series do not share the same dates."""


class DomainError(DataError):
    """A value lies outside the domain an operation is defined on."""


class NumericalError(CryptocastError):
    """A numerical routine failed (singular system, non-finite result)."""


class DivergenceError(NumericalError):
    """Non-finite training loss or gradient; the message names the epoch."""
