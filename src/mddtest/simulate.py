"""Synthetic scenario generators for the Monte Carlo studies.

Four scenario families are provided, each a pure function of its spec
and a seed:

* ``sim1`` -- independence variants of the three ``sim2`` columns;
* ``sim2`` -- dependent draws in three columns: spherical coordinate
  tuples with class-dependent angle windows, von Mises-Fisher rows
  with class-dependent mean directions, and Gaussian rows with
  class-dependent means;
* ``sim3`` -- the same three columns with growing dimension;
* ``sim4`` -- planar ellipse landmark configurations whose class is
  carried by the correlation between the two coordinates.

:func:`generate` is the one entry: it draws the labels, lets
:func:`draws_null` decide whether the cell is independent and wraps the
scenario's points.  Labels are drawn iid with proportions
``p_r = 2(1 + (r-1)/(R-1))/(3R)`` and redrawn in full until every class
appears at least once, so the class count inferred downstream always
matches ``R``.

Coordinate-tuple scenarios (column 1) return raw ``(1, theta,
phi, ...)`` rows as a euclidean point set; feed them through
``metrics.unit_sphere_embedding`` when the great-circle metric is
wanted instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidR, InvalidSpec
from .estimator import LabelVector
from .inference import _substream
from .metrics import PointSet

SCENARIOS = ("sim1", "sim2", "sim3", "sim4")

_VMF_CLASS_ANGLES = {5: (4.0, 3.0, 1.0, 5.0, 2.0)}
_GAUSS_CLASS_MEANS = {
    2: (0.0, 0.6),
    5: (4.0 / 3.0, 1.0, 1.0 / 3.0, 5.0 / 3.0, 2.0 / 3.0),
}
_MAX_LABEL_REDRAWS = 10_000
_MAX_VMF_ROUNDS = 10_000


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulation cell.

    ``column`` selects coordinate tuples (1), von Mises-Fisher rows (2)
    or Gaussian rows (3) for sim1-sim3 and is ignored by sim4.
    ``dim`` is the ambient dimension for columns 1-3; sim4 uses
    ``landmarks`` and ``corr`` instead.
    """

    scenario: str
    column: int = 3
    R: int = 2
    n: int = 60
    dim: int = 3
    landmarks: int = 50
    corr: float = 0.0
    null: bool = False

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise InvalidSpec(f"unknown scenario {self.scenario!r}")
        if self.scenario != "sim4" and self.column not in (1, 2, 3):
            raise InvalidSpec(f"column must be 1, 2 or 3, got {self.column}")
        if self.R < 1:
            raise InvalidR(f"the class count must be >= 1, got {self.R}")
        if self.scenario == "sim4" and self.R != 2:
            raise InvalidR(f"the shape scenario is defined for R=2, got R={self.R}")
        if self.n < 2 * self.R:
            raise InvalidSpec(
                f"need n >= 2R so classes can be populated, got n={self.n}, R={self.R}"
            )
        if self.scenario != "sim4":
            min_dim = 3 if self.column == 1 else 2
            if self.dim < min_dim:
                raise InvalidSpec(
                    f"column {self.column} needs dim >= {min_dim}, got {self.dim}"
                )
        else:
            if self.landmarks < 3:
                raise InvalidSpec(f"need at least 3 landmarks, got {self.landmarks}")
            if not 0.0 <= self.corr < 1.0:
                raise InvalidSpec(f"corr must lie in [0, 1), got {self.corr}")
        if self.scenario in ("sim2", "sim3") and self.column == 3:
            _gaussian_means(self.R, self.null)  # raises for a class count without standard means


def label_proportions(R: int) -> np.ndarray:
    """Class proportions ``2(1 + (r-1)/(R-1))/(3R)``; (1/3, 2/3) for R=2."""
    if R < 1:
        raise InvalidR(f"the class count must be >= 1, got {R}")
    if R == 1:
        return np.array([1.0])
    r = np.arange(1, R + 1)
    return 2.0 * (1.0 + (r - 1) / (R - 1)) / (3.0 * R)


def _draw_labels(rng: np.random.Generator, R: int, n: int) -> LabelVector:
    probs = label_proportions(R)
    for _ in range(_MAX_LABEL_REDRAWS):
        codes = rng.choice(R, size=n, p=probs)
        if np.bincount(codes, minlength=R).min() > 0:
            return LabelVector.from_codes(codes.astype(np.int64), R)
    raise InvalidSpec(
        f"could not populate all {R} classes in {n} draws; increase n"
    )


def _noise_draws(rng: np.random.Generator, df: int, size) -> np.ndarray:
    """Student t(df) noise: t(1) for coordinate tuples, t(2) for shapes."""
    return rng.standard_t(df, size=size)


def _sphere_coords(spec: ScenarioSpec, rng, labels: LabelVector, null: bool) -> np.ndarray:
    """Raw coordinate tuples ``(1, theta, phi_1, ..., phi_q)``.

    ``theta`` is uniform on (-pi, pi).  Under independence every
    ``phi`` is uniform on (-pi, pi) with no noise.  Under dependence
    the ``phi`` window depends on the class: with two classes, class 0
    keeps the uniform window and class 1 draws from a narrow window
    plus heavy-tailed noise; with R >= 3 classes the circle is split
    into R equal windows and every class receives noise.  One noise
    draw is taken per observation and added to each of its ``phi``
    coordinates.
    """
    n = spec.n
    q = spec.dim - 2
    theta = rng.uniform(-np.pi, np.pi, size=n)
    if null:
        phi = rng.uniform(-np.pi, np.pi, size=(n, q))
        eps = np.zeros(n)
    elif spec.R == 2:
        # sim2 uses the window (pi/5, 4pi/5); the growing-dimension
        # variant shifts its lower end below zero.
        low = np.pi / 5.0 if spec.scenario != "sim3" else -np.pi / 5.0
        draws = rng.uniform(-np.pi, np.pi, size=(n, q))
        narrow = rng.uniform(low, 4.0 * np.pi / 5.0, size=(n, q))
        in_class1 = labels.codes == 1
        phi = np.where(in_class1[:, None], narrow, draws)
        eps = np.where(in_class1, _noise_draws(rng, 1, n), 0.0)
    else:
        lows = (-1.0 + 2.0 * np.arange(spec.R) / spec.R) * np.pi
        highs = (-1.0 + 2.0 * (np.arange(spec.R) + 1) / spec.R) * np.pi
        unit = rng.uniform(0.0, 1.0, size=(n, q))
        lo = lows[labels.codes][:, None]
        hi = highs[labels.codes][:, None]
        phi = lo + unit * (hi - lo)
        eps = _noise_draws(rng, 1, n)
    return np.column_stack([np.ones(n), theta, phi + eps[:, None]])


def sample_vmf(
    rng: np.random.Generator, mu: np.ndarray, kappa: float, size: int
) -> np.ndarray:
    """Draw unit vectors from a von Mises-Fisher law by rejection.

    The cosine of the angle to ``mu`` is sampled with the beta-envelope
    rejection scheme for its density ``exp(kappa w)(1-w^2)^{(d-3)/2}``;
    a uniform tangent direction supplies the rest.  ``kappa == 0``
    degenerates to the uniform law on the sphere; a ``kappa`` whose
    envelope constant is not finite, or whose ``size`` draws are not all
    accepted within ``_MAX_VMF_ROUNDS`` rounds, raises :class:`InvalidSpec`.
    """
    mu = np.asarray(mu, dtype=np.float64)
    d = mu.size
    if kappa < 0:
        raise InvalidSpec(f"concentration must be >= 0, got {kappa}")
    if kappa == 0.0:
        raw = rng.standard_normal((size, d))
        return raw / np.linalg.norm(raw, axis=1, keepdims=True)
    mu = mu / np.linalg.norm(mu)
    m = d - 1
    # the beta envelope (b, x0, c): every acceptance test subtracts c, so once
    # kappa is so large that x0 rounds to 1, c is -inf, each test compares NaN
    # and the loop would never end
    try:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            b = m / (2.0 * kappa + np.sqrt(4.0 * kappa**2 + m * m))
            x0 = (1.0 - b) / (1.0 + b)
            c = kappa * x0 + m * np.log(1.0 - x0 * x0)
    except OverflowError:  # kappa**2 beyond the float range
        c = -np.inf
    if not np.isfinite(c):
        raise InvalidSpec(
            f"kappa = {kappa} is too large for the von Mises-Fisher sampler in dimension {d}"
        )
    w = np.empty(size)
    filled = rounds = 0
    while filled < size:
        if rounds == _MAX_VMF_ROUNDS:
            # every candidate's acceptance exponent can round below log(u)
            raise InvalidSpec(
                f"kappa = {kappa} is too large for the von Mises-Fisher sampler in "
                f"dimension {d}: {rounds} rejection rounds accepted {filled} of "
                f"{size} draws"
            )
        rounds += 1
        todo = size - filled
        z = rng.beta(m / 2.0, m / 2.0, size=todo)
        cand = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
        u = rng.uniform(0.0, 1.0, size=todo)
        ok = kappa * cand + m * np.log(1.0 - x0 * cand) - c >= np.log(u)
        taken = int(ok.sum())
        w[filled : filled + taken] = cand[ok]
        filled += taken
    tangent = rng.standard_normal((size, d))
    tangent -= np.outer(tangent @ mu, mu)
    tangent /= np.linalg.norm(tangent, axis=1, keepdims=True)
    return w[:, None] * mu[None, :] + np.sqrt(1.0 - w * w)[:, None] * tangent


def _vmf_directions(R: int, dim: int) -> np.ndarray:
    angles = _VMF_CLASS_ANGLES.get(R, tuple(float(r) for r in range(1, R + 1)))
    out = np.zeros((R, dim))
    out[:, 0] = np.cos(angles)
    out[:, 1] = np.sin(angles)
    return out


def _vmf_rows(spec: ScenarioSpec, rng, labels: LabelVector, null: bool) -> np.ndarray:
    """Unit rows from class-wise von Mises-Fisher laws.

    Class ``r`` uses the mean direction ``(cos a_r, sin a_r, 0, ...)``
    built from a scalar class angle (classes 1..R map to angles 1..R,
    except the five-class study which uses the fixed shuffle
    (4, 3, 1, 5, 2)), at concentration 1.  Independence cells draw
    uniformly on the sphere (zero concentration).
    """
    if null:
        return sample_vmf(rng, np.eye(spec.dim)[0], 0.0, spec.n)
    rows = np.empty((spec.n, spec.dim))
    directions = _vmf_directions(spec.R, spec.dim)
    for r in range(spec.R):
        idx = np.flatnonzero(labels.codes == r)
        rows[idx] = sample_vmf(rng, directions[r], 1.0, idx.size)
    return rows


def _gaussian_means(R: int, null: bool) -> np.ndarray:
    if null:
        return np.zeros(R)
    try:
        return np.asarray(_GAUSS_CLASS_MEANS[R])
    except KeyError:
        raise InvalidSpec(f"no standard Gaussian means for R={R}") from None


def _gaussian_rows(spec: ScenarioSpec, rng, labels: LabelVector, null: bool) -> np.ndarray:
    """Gaussian rows, unit variance, the class mean in every coordinate.

    Two classes use means (0, 0.6); five use (4, 3, 1, 5, 2)/3; other
    class counts draw only in null cells, as ``ScenarioSpec`` refuses the rest.
    """
    means = _gaussian_means(spec.R, null)
    return rng.standard_normal((spec.n, spec.dim)) + means[labels.codes][:, None]


ELLIPSE_NOISE_SCALE = 1.0 / 25.0


def _ellipse_shapes(spec: ScenarioSpec, rng, labels: LabelVector, null: bool) -> np.ndarray:
    """Planar landmark configurations sampling circles against ellipses.

    Landmark ``l`` of a configuration with coordinate correlation
    ``rho`` sits at ``(cos(t + a/2) + e, cos(t - a/2) + e)`` with
    ``a = arccos(rho)`` and ``t`` on an equispaced grid inside
    (0, 2 pi).  Class 0 uses correlation zero (a circle); class 1 uses
    ``spec.corr``, so ``corr == 0`` is an exact independence cell.
    ``e`` is one t(2) draw per landmark, shared by both coordinates
    and scaled by ELLIPSE_NOISE_SCALE; the scale keeps the jitter
    floor below the circle-to-ellipse separation once corr reaches
    about 0.15.
    """
    L = spec.landmarks
    t = (np.arange(L) + 0.5) * (2.0 * np.pi / L)
    corr = 0.0 if null else spec.corr
    angle = np.where(labels.codes == 1, np.arccos(corr), np.pi / 2.0)
    eps = _noise_draws(rng, 2, (spec.n, L)) * ELLIPSE_NOISE_SCALE
    configs = np.empty((spec.n, L, 2))
    configs[:, :, 0] = np.cos(t[None, :] + angle[:, None] / 2.0) + eps
    configs[:, :, 1] = np.cos(t[None, :] - angle[:, None] / 2.0) + eps
    return configs


def draws_null(spec: ScenarioSpec) -> bool:
    """Whether a cell draws independent data: sim1 always does."""
    return bool(spec.null) or spec.scenario == "sim1"


def generate(spec: ScenarioSpec, seed: int) -> tuple[PointSet, LabelVector]:
    """The one way to draw a cell: labels, then points, from the ``(seed, 1)``
    substream; :func:`draws_null` decides whether the points depend on the labels."""
    rng = _substream(seed, 1)
    labels = _draw_labels(rng, spec.R, spec.n)
    if spec.scenario == "sim4":
        draw, kind = _ellipse_shapes, "shape"
    else:
        draw = (_sphere_coords, _vmf_rows, _gaussian_rows)[spec.column - 1]
        kind = "sphere" if spec.column == 2 else "euclidean"
    return PointSet._from_fresh(kind, draw(spec, rng, labels, draws_null(spec))), labels
