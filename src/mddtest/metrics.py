"""Point representations and pairwise distance construction.

Supported spaces: Euclidean rows, the unit sphere under the great-circle
metric, planar landmark configurations under the Riemannian shape
metric, and user-supplied precomputed matrices.  Every constructor
returns a :class:`DistanceMatrix` whose invariants are re-checked on
construction: exact symmetry as stored, an exactly zero diagonal, and
finite nonnegative entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AsymmetricMatrix,
    DegenerateShape,
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

POINT_KINDS = ("euclidean", "sphere", "shape")


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    if out is arr:
        out = arr.copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class PointSet:
    """A homogeneous sample of points in one of the supported spaces.

    ``data`` is ``(n, p)`` for euclidean and sphere points and
    ``(n, L, 2)`` for planar landmark configurations.  ``descriptor``
    is free text carried along for reporting (for example which
    generator produced the sample).
    """

    kind: str
    data: np.ndarray
    descriptor: str = ""

    def __post_init__(self) -> None:
        if self.kind not in POINT_KINDS:
            raise ValueError(f"unknown point kind {self.kind!r}")
        data = np.asarray(self.data, dtype=np.float64)
        if self.kind == "shape":
            if data.ndim != 3 or data.shape[2] != 2:
                raise ValueError("shape data must have shape (n, L, 2)")
        elif data.ndim != 2:
            raise ValueError(f"{self.kind} data must have shape (n, p)")
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
                raise ValueError("landmark configurations need at least 3 landmarks")
            with np.errstate(over="ignore", invalid="ignore"):
                centred = data - data.mean(axis=1, keepdims=True)
                norms = np.sqrt((centred * centred).sum(axis=(1, 2)))
            if not np.isfinite(norms).all():
                raise NonFinitePoint("a configuration overflows float64 when centred and scaled")
            if norms.min() < DEGENERATE_SHAPE_TOL:
                raise DegenerateShape(
                    "a configuration collapses to its centroid; shape is undefined"
                )
        object.__setattr__(self, "data", _freeze(data))

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @classmethod
    def euclidean(cls, rows, descriptor: str = "") -> "PointSet":
        return cls("euclidean", np.asarray(rows, dtype=np.float64), descriptor)

    @classmethod
    def sphere(cls, rows, descriptor: str = "") -> "PointSet":
        return cls("sphere", np.asarray(rows, dtype=np.float64), descriptor)

    @classmethod
    def shape(cls, configurations, descriptor: str = "") -> "PointSet":
        return cls("shape", np.asarray(configurations, dtype=np.float64), descriptor)


@dataclass(frozen=True)
class DistanceMatrix:
    """A validated ``(n, n)`` pairwise distance matrix.

    Invariants, re-checked on every construction: the stored array is
    exactly symmetric, its diagonal is exactly zero, and all entries
    are finite and nonnegative.
    """

    values: np.ndarray
    n: int = field(init=False)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise AsymmetricMatrix("distance matrix must be square")
        if values.shape[0] < 2:
            raise TooFewSamples(f"need at least 2 observations, got {values.shape[0]}")
        if not np.isfinite(values).all():
            raise NonFiniteEntry("distance matrix entries must be finite")
        if (values < 0.0).any():
            raise NegativeDistance("distance matrix entries must be nonnegative")
        if np.any(np.diagonal(values) != 0.0):
            raise NonzeroDiagonal("distance matrix diagonal must be exactly zero")
        if not np.array_equal(values, values.T):
            raise AsymmetricMatrix("distance matrix must be exactly symmetric as stored")
        object.__setattr__(self, "values", _freeze(values))
        object.__setattr__(self, "n", values.shape[0])


def _require_kind(points: PointSet, kind: str) -> None:
    if points.kind != kind:
        raise ValueError(f"expected a {kind} point set, got {points.kind!r}")


def euclidean_distances(points: PointSet) -> DistanceMatrix:
    """Pairwise Euclidean distances.

    Each unordered pair is computed once and mirrored, so the result is
    exactly symmetric as stored.
    """
    _require_kind(points, "euclidean")
    data = points.data
    n = points.n
    iu, ju = np.triu_indices(n, 1)
    with np.errstate(over="ignore"):
        diff = data[iu] - data[ju]
        vals = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    if not np.isfinite(vals).all():
        raise NonFiniteEntry("a pairwise distance overflows float64; rescale the points")
    out = np.zeros((n, n))
    out[iu, ju] = vals
    out[ju, iu] = vals
    return DistanceMatrix(out)


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
    gram = unit @ unit.T
    gram = (gram + gram.T) / 2.0  # exact symmetry before the elementwise arccos
    np.clip(gram, -1.0, 1.0, out=gram)
    out = np.arccos(gram)
    np.fill_diagonal(out, 0.0)
    return DistanceMatrix(out)


def _preshapes(points: PointSet) -> np.ndarray:
    """Centred, unit-norm complex landmark vectors, one row per configuration."""
    z = points.data[:, :, 0] + 1j * points.data[:, :, 1]
    z = z - z.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(z, axis=1)
    if norms.min() < DEGENERATE_SHAPE_TOL:
        raise DegenerateShape("a configuration collapses to its centroid; shape is undefined")
    return z / norms[:, None]


def shape_distances(points: PointSet) -> DistanceMatrix:
    """Riemannian shape distances between planar landmark configurations.

    Each configuration is centred and scaled to a unit-norm complex
    vector; the distance is ``arccos |<z_i, z_j>|``, which removes
    translation, scale and rotation.  Entries lie in [0, pi/2].
    """
    _require_kind(points, "shape")
    z = _preshapes(points)
    mag = np.abs(z @ z.conj().T)
    mag = (mag + mag.T) / 2.0
    np.clip(mag, 0.0, 1.0, out=mag)
    out = np.arccos(mag)
    np.fill_diagonal(out, 0.0)
    return DistanceMatrix(out)


def load_precomputed(matrix) -> DistanceMatrix:
    """Validate a user-supplied square distance matrix.

    Entries must be finite and nonnegative, the diagonal zero within
    ``DIAGONAL_TOL``, and any asymmetry at most ``SYMMETRY_TOL``;
    asymmetry within tolerance is removed by averaging the matrix with
    its transpose.
    """
    values = np.asarray(matrix, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise AsymmetricMatrix("precomputed distance matrix must be square")
    if values.shape[0] < 2:
        raise TooFewSamples(f"need at least 2 observations, got {values.shape[0]}")
    if not np.isfinite(values).all():
        raise NonFiniteEntry("precomputed distance matrix holds a non-finite entry")
    if (values < 0.0).any():
        raise NegativeDistance("precomputed distance matrix holds a negative entry")
    gap = float(np.abs(values - values.T).max())
    if gap > SYMMETRY_TOL:
        raise AsymmetricMatrix(
            f"asymmetry {gap:.3e} exceeds tolerance {SYMMETRY_TOL:g}"
        )
    worst_diag = float(np.abs(np.diagonal(values)).max())
    if worst_diag > DIAGONAL_TOL:
        raise NonzeroDiagonal(
            f"diagonal magnitude {worst_diag:.3e} exceeds tolerance {DIAGONAL_TOL:g}"
        )
    # halve before adding, so entries near the float maximum cannot overflow;
    # exactly symmetric entries are kept as they are
    out = values.copy()
    skew = values != values.T
    out[skew] = values[skew] / 2.0 + values.T[skew] / 2.0
    np.fill_diagonal(out, 0.0)
    return DistanceMatrix(out)


def unit_sphere_embedding(points: PointSet) -> PointSet:
    """Project euclidean rows radially onto the unit sphere.

    Used for coordinate tuples that should be consumed by the
    great-circle metric; rows must have positive norm.
    """
    _require_kind(points, "euclidean")
    norms = np.sqrt((points.data * points.data).sum(axis=1, keepdims=True))
    if norms.min() <= 0.0:
        raise DegenerateShape("cannot project a zero row onto the unit sphere")
    return PointSet.sphere(points.data / norms, points.descriptor)
