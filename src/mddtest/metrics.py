"""Point representations and pairwise distance construction.

Supported spaces: Euclidean rows, the unit sphere under the great-circle
metric, planar landmark configurations under the Riemannian shape
metric, and user-supplied precomputed matrices.  Every constructor
returns a :class:`DistanceMatrix`, checked once on construction by
``DistanceMatrix._adopt``: finite nonnegative entries, exact symmetry as
stored and a zero diagonal.  ``load_precomputed`` is the same check with
tolerances for asymmetry and diagonal.  The public constructors copy
their input once; the builders hand over fresh arrays uncopied.
Euclidean distances take 8 bytes per entry plus row-block temporaries of
about ``16 * max(_CHUNK, n * dim)`` bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AsymmetricMatrix,
    DegenerateShape,
    MetricError,
    NegativeDistance,
    NonFiniteEntry,
    NonFinitePoint,
    NonzeroDiagonal,
    NotUnitNorm,
    TooFewSamples,
)

# Rows this far from unit norm are rejected rather than silently rescaled.
UNIT_NORM_TOL = 1e-9
# Centred landmark configurations with a norm below this are degenerate.
DEGENERATE_SHAPE_TOL = 1e-12
# Precomputed matrices may deviate from symmetry by at most this much;
# smaller deviations are averaged away.
SYMMETRY_TOL = 1e-9
DIAGONAL_TOL = 1e-12
_CHUNK = 1 << 17  # entries per row block of every n^2 pass

POINT_KINDS = ("euclidean", "sphere", "shape")


@dataclass(frozen=True)
class PointSet:
    """A homogeneous sample of points in one of the supported spaces.

    ``data`` is ``(n, p)`` for euclidean and sphere points and
    ``(n, L, 2)`` for planar landmark configurations.
    """

    kind: str
    data: np.ndarray

    def __post_init__(self) -> None:
        self._adopt(np.array(self.data, dtype=np.float64, order="C"))

    @classmethod
    def _from_fresh(cls, kind: str, data: np.ndarray) -> PointSet:
        """Check and wrap, without copying, a fresh float64 array, or one already frozen."""
        self = object.__new__(cls)
        object.__setattr__(self, "kind", kind)
        self._adopt(data)
        return self

    def _adopt(self, data: np.ndarray) -> None:
        if self.kind not in POINT_KINDS:
            raise MetricError(f"unknown point kind {self.kind!r}")
        if self.kind == "shape":
            if data.ndim != 3 or data.shape[2] != 2:
                raise MetricError("shape data must have shape (n, L, 2)")
        elif data.ndim != 2:
            raise MetricError(f"{self.kind} data must have shape (n, p)")
        if data.shape[0] < 2:
            raise TooFewSamples(f"need at least 2 points, got {data.shape[0]}")
        if not np.isfinite(data).all():
            raise NonFinitePoint("point coordinates must be finite")
        if self.kind == "sphere":
            with np.errstate(over="ignore"):  # an overflowing norm reads inf, far from 1
                norms = np.sqrt((data * data).sum(axis=1))
            worst = float(np.abs(norms - 1.0).max())
            if worst > UNIT_NORM_TOL:
                raise NotUnitNorm(
                    f"row norm deviates from 1 by {worst:.3e} (tolerance {UNIT_NORM_TOL:g})"
                )
        if self.kind == "shape":
            if data.shape[1] < 3:
                raise MetricError("landmark configurations need at least 3 landmarks")
            with np.errstate(over="ignore", invalid="ignore"):
                centred = data - data.mean(axis=1, keepdims=True)
                norms = np.sqrt(np.square(centred, out=centred).sum(axis=(1, 2)))
            if not np.isfinite(norms).all():
                raise NonFinitePoint("a configuration overflows float64 when centred and scaled")
            if norms.min() < DEGENERATE_SHAPE_TOL:
                raise DegenerateShape(
                    "a configuration collapses to its centroid; shape is undefined"
                )
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @classmethod
    def euclidean(cls, rows) -> "PointSet":
        return cls("euclidean", rows)

    @classmethod
    def sphere(cls, rows) -> "PointSet":
        return cls("sphere", rows)

    @classmethod
    def shape(cls, configurations) -> "PointSet":
        return cls("shape", configurations)


@dataclass(frozen=True)
class DistanceMatrix:
    """A validated ``(n, n)`` pairwise distance matrix.

    Invariants, checked on every construction: the stored array is
    exactly symmetric, its diagonal is zero (a ``-0.0`` is stored as
    ``+0.0``), and all entries are finite and nonnegative.  The
    constructor copies its input once, whatever its type or layout.
    """

    values: np.ndarray
    n: int = field(init=False)

    def __post_init__(self) -> None:
        self._adopt(np.array(self.values, dtype=np.float64, order="C"))

    @classmethod
    def _from_fresh(cls, values: np.ndarray, symmetry_tol=0.0, diagonal_tol=0.0) -> DistanceMatrix:
        """Check and wrap, without copying, a fresh writeable float64 array that
        no caller holds: ``_adopt`` may repair it in place."""
        self = object.__new__(cls)
        self._adopt(values, symmetry_tol, diagonal_tol)
        return self

    def _adopt(self, values: np.ndarray, symmetry_tol=0.0, diagonal_tol=0.0) -> None:
        """The one check of a distance matrix: square, n >= 2, finite, nonnegative,
        asymmetry and diagonal within their tolerances, in that order.  Skew pairs
        are averaged in place, each half taken before the sum so that entries near
        the float maximum cannot overflow; the diagonal is then set to zero."""
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise AsymmetricMatrix("distance matrix must be square")
        if values.shape[0] < 2:
            raise TooFewSamples(f"need at least 2 observations, got {values.shape[0]}")
        if not np.isfinite(values).all():
            raise NonFiniteEntry("distance matrix holds a non-finite entry")
        if (values < 0.0).any():
            raise NegativeDistance("distance matrix holds a negative entry")
        skew = values != values.T  # one n^2 bool; exactly symmetric entries keep their bits
        if skew.any():  # the two gathers are temporaries, so numpy reuses them in place
            gap = float(np.abs(values[skew] - values.T[skew]).max())
            if gap > symmetry_tol:
                raise AsymmetricMatrix(f"asymmetry {gap:.3e} exceeds tolerance {symmetry_tol:g}")
            values[skew] = values[skew] / 2.0 + values.T[skew] / 2.0
        worst = float(np.abs(np.diagonal(values)).max())
        if worst > diagonal_tol:
            raise NonzeroDiagonal(
                f"diagonal magnitude {worst:.3e} exceeds tolerance {diagonal_tol:g}"
            )
        np.fill_diagonal(values, 0.0)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "n", values.shape[0])


def _row_blocks(count: int, width: int) -> list[slice]:
    """Blocks of ``max(1, _CHUNK // width)`` of ``count`` rows ``width`` entries wide."""
    step = max(1, _CHUNK // max(1, width))
    return [slice(start, start + step) for start in range(0, count, step)]


def _require_kind(points: PointSet, kind: str) -> None:
    if points.kind != kind:
        raise MetricError(f"expected a {kind} point set, got {points.kind!r}")


def euclidean_distances(points: PointSet) -> DistanceMatrix:
    """Pairwise Euclidean distances.

    Every ordered pair, a row block at a time, sums the squares of
    ``x_i - x_j``.  ``x_j - x_i`` is exactly ``-(x_i - x_j)``, so the result
    is exactly symmetric as stored.  It takes 8 bytes per entry, and the
    blocks about ``16 * max(_CHUNK, n * dim)`` bytes.
    """
    _require_kind(points, "euclidean")
    data = points.data
    n, dim = data.shape
    out = np.empty((n, n))
    for rows in _row_blocks(n, n * dim):
        block = out[rows]
        with np.errstate(over="ignore"):
            diff = data[rows, None, :] - data
            np.sqrt(np.einsum("ijk,ijk->ij", diff, diff, out=block), out=block)
        if not np.isfinite(block).all():
            raise NonFiniteEntry("a pairwise distance overflows float64; rescale the points")
    return DistanceMatrix._from_fresh(out)


def _arccos_in_place(cosines: np.ndarray, low: float) -> np.ndarray:
    """``arccos`` of the symmetrised ``cosines`` clamped to ``[low, 1]``,
    with a zero diagonal.  ``(c + c.T) / 2`` makes the result exactly
    symmetric.  Every step after the sum writes into its result, and
    callers pass ``cosines`` as an expression, so it is freed here and
    at most two n^2 float64 arrays are live at once.
    """
    out = cosines + cosines.T
    del cosines
    out /= 2.0
    np.clip(out, low, 1.0, out=out)
    np.arccos(out, out=out)
    np.fill_diagonal(out, 0.0)
    return out


def sphere_distances(points: PointSet) -> DistanceMatrix:
    """Great-circle distances ``arccos(<x_i, x_j>)`` on the unit sphere.

    Rows are renormalised internally (construction already guarantees
    they are within ``UNIT_NORM_TOL`` of unit norm) and inner products
    are clamped to [-1, 1] before taking the arc cosine, so entries lie
    in [0, pi].
    """
    _require_kind(points, "sphere")
    data = points.data
    norms = np.sqrt((data * data).sum(axis=1, keepdims=True))
    unit = data / norms
    return DistanceMatrix._from_fresh(_arccos_in_place(unit @ unit.T, -1.0))


def shape_distances(points: PointSet) -> DistanceMatrix:
    """Riemannian shape distances between planar landmark configurations.

    Each configuration is centred and scaled to a unit-norm complex
    vector; the distance is ``arccos |<z_i, z_j>|``, which removes
    translation, scale and rotation.  Entries lie in [0, pi/2].
    """
    _require_kind(points, "shape")
    z = points.data[:, :, 0] + 1j * points.data[:, :, 1]
    z = z - z.mean(axis=1, keepdims=True)
    z = z / np.linalg.norm(z, axis=1)[:, None]
    return DistanceMatrix._from_fresh(_arccos_in_place(np.abs(z @ z.conj().T), 0.0))


def load_precomputed(matrix) -> DistanceMatrix:
    """A user-supplied distance matrix, copied once and checked as by ``DistanceMatrix``,
    but with asymmetry up to ``SYMMETRY_TOL`` averaged away and a diagonal up to
    ``DIAGONAL_TOL`` set to zero.  ``matrix`` itself is never changed."""
    return _adopt_precomputed(np.array(matrix, dtype=np.float64, order="C"))


def _adopt_precomputed(values: np.ndarray) -> DistanceMatrix:
    """``load_precomputed`` without its copy, for a fresh float64 array no caller holds."""
    return DistanceMatrix._from_fresh(values, SYMMETRY_TOL, DIAGONAL_TOL)


def unit_sphere_embedding(points: PointSet) -> PointSet:
    """Project euclidean rows radially onto the unit sphere.

    Used for coordinate tuples that should be consumed by the
    great-circle metric; rows must have positive norm.
    """
    _require_kind(points, "euclidean")
    norms = np.sqrt((points.data * points.data).sum(axis=1, keepdims=True))
    if norms.min() <= 0.0:
        raise DegenerateShape("cannot project a zero row onto the unit sphere")
    return PointSet._from_fresh("sphere", points.data / norms)
