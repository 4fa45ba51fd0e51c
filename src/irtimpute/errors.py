"""Exception hierarchy.

Three broad classes each carry the ``kind`` the CLI prints and its exit
code: usage errors (``usage``, 1), data/validation errors (``data``, 2),
and numerical failures (``numerical``, 3).
"""

from __future__ import annotations


class IrtImputeError(Exception):
    """Base class for all package errors: a data error unless narrower."""

    kind = "data"
    exit_code = 2


class UsageError(IrtImputeError):
    """Bad command-line arguments or option combinations."""

    kind = "usage"
    exit_code = 1


class DataError(IrtImputeError):
    """Invalid, inconsistent, or unusable input data."""


class UnknownLabel(DataError):
    """A data file cell does not match any label declared for its column."""


class CodeOutOfRange(DataError):
    """A category code falls outside 0..arity-1 for its column."""


class DegenerateColumn(DataError):
    """A column cannot be discretized (too few distinct values)."""


class EmptyCategory(DataError):
    """An item update was requested with zero expected count for a category."""


class UnobservedCategory(DataError):
    """A declared category never occurs in the observed data."""


class InsufficientData(DataError):
    """Too few cases to support estimation."""


class NumericalFailure(IrtImputeError):
    """A numerical routine produced non-finite or unusable results."""

    kind = "numerical"
    exit_code = 3


class NewtonDiverged(NumericalFailure):
    """An inner Newton update failed to produce a usable step."""


class SingularCovariance(NumericalFailure):
    """A covariance (sub)matrix could not be inverted, even with ridge."""
