"""Exception and warning types shared across the package."""

from __future__ import annotations


class MddError(Exception):
    """Base class for every error raised by this package."""


class SizeMismatch(MddError, ValueError):
    """Paired inputs disagree on the number of observations."""


class TooFewSamples(MddError, ValueError):
    """The operation needs more observations than were supplied."""


class InvalidLabels(MddError, ValueError):
    """Label codes are not a contiguous 0..R-1 coding with every class present."""


class MetricError(MddError, ValueError):
    """Base class for violations of distance or point-space requirements."""


class NonFinitePoint(MetricError):
    """A point coordinate is NaN or infinite."""


class NotUnitNorm(MetricError):
    """A row intended to lie on the unit sphere is too far from unit norm."""


class DegenerateShape(MetricError):
    """A landmark configuration collapses to a single point after centring."""


class AsymmetricMatrix(MetricError):
    """A precomputed distance matrix is not symmetric within tolerance."""


class NegativeDistance(MetricError):
    """A distance entry is negative."""


class NonzeroDiagonal(MetricError):
    """A distance matrix diagonal entry is not zero within tolerance."""


class NonFiniteEntry(MetricError):
    """A distance matrix entry is NaN or infinite."""


class InvalidB(MddError, ValueError):
    """The permutation replicate count is not a positive integer."""


class InvalidReps(MddError, ValueError):
    """A Monte Carlo replicate count is below the supported minimum."""


class OutOfRangePValue(MddError, ValueError):
    """A p-value lies outside [0, 1]."""


class InvalidR(MddError, ValueError):
    """The requested number of classes is not supported here."""


class InvalidSpec(MddError, ValueError):
    """A scenario or grid specification field is out of range or inconsistent."""


class CsvFormatError(MddError, ValueError):
    """A CSV file could not be parsed; the message names the row and column."""


class GridConfigError(MddError, ValueError):
    """A grid configuration file failed validation; the message carries a
    JSON-pointer-style path to the offending field."""


class DegenerateLabelsWarning(UserWarning):
    """Emitted when a label vector holds a single class, making every
    independence statistic identically zero."""
