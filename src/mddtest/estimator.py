"""The metric distributional discrepancy (MDD) estimator.

For a sample with pairwise distances ``d`` and class labels ``y``,
write ``B(i, j)`` for the closed ball centred at observation ``i`` with
radius ``d(i, j)``.  With ``n_r`` observations in class ``r`` and
``p_r = n_r / n``, the empirical ball CDFs are

    F(i, j)   = #{k : d(i, k) <= d(i, j)} / n
    F_r(i, j) = #{k : d(i, k) <= d(i, j), y_k = r} / n_r

and the statistic is the weighted squared discrepancy

    (1 / n^2) * sum_r p_r * sum_{i, j} [F_r(i, j) - F(i, j)]^2 .

The double sum runs over all ordered pairs including ``i == j``; pass
``include_diagonal=False`` to drop the ``i == j`` terms (the ``1/n^2``
normalisation is kept) when probing sensitivity to that choice.

Ball membership compares distances with ``<=`` under exact float
equality, never a tolerance.  Because only comparisons enter, the
statistic is invariant under any strictly increasing transform of the
distances, and the whole computation reduces to integer counts divided
by ``n`` or ``n_r``.

Two engines are provided.  ``estimate_naive`` evaluates the definition
directly, one ball membership matrix per centre (O(R n^3) work), and
serves as the oracle.  ``estimate_fast`` sorts each row once
(O(n^2 log n)), after which an evaluation costs O(R n^2).

The permutation null uses a third form.  With ``z_r`` the class-``r``
indicator and ``K[k, l]`` the number of balls holding both ``k`` and
``l``, the statistic is ``sum_r z_r' K z_r / (n_r n^3)`` minus a term
that permutations leave unchanged; ``K`` costs O(n^3) once per dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidLabels, InvalidSpec, SizeMismatch
from .metrics import DistanceMatrix, _freeze

MAX_EXACT_N = 9741  # class forms z_r' K z_r <= n^4 are exact in float64
_CHUNK = 1 << 17  # indicator entries scored per matrix product


@dataclass(frozen=True)
class LabelVector:
    """Class labels coded 0..R-1 with every class present.

    ``counts[r]`` is the number of observations in class ``r`` and
    ``proportions[r] = counts[r] / n``.
    """

    codes: np.ndarray
    num_classes: int
    counts: np.ndarray = field(init=False)
    proportions: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        codes = np.asarray(self.codes)
        if codes.ndim != 1 or codes.size == 0:
            raise InvalidLabels("labels must form a non-empty 1-d vector")
        if not np.issubdtype(codes.dtype, np.integer):
            raise InvalidLabels("label codes must be integers")
        codes = codes.astype(np.int64)
        r = int(self.num_classes)
        if r < 1:
            raise InvalidLabels("the number of classes must be at least 1")
        if codes.min() < 0 or codes.max() >= r:
            raise InvalidLabels(
                f"label codes must lie in 0..{r - 1}, got range "
                f"[{codes.min()}, {codes.max()}]"
            )
        counts = np.bincount(codes, minlength=r)
        if (counts == 0).any():
            missing = int(np.flatnonzero(counts == 0)[0])
            raise InvalidLabels(
                f"class {missing} has no observations; the class count is "
                "inferred from the data and empty classes are rejected"
            )
        object.__setattr__(self, "codes", _freeze(codes))
        object.__setattr__(self, "num_classes", r)
        object.__setattr__(self, "counts", _freeze(counts))
        object.__setattr__(self, "proportions", _freeze(counts / codes.size))

    @property
    def n(self) -> int:
        return self.codes.size

    @classmethod
    def from_codes(cls, codes, num_classes: int | None = None) -> "LabelVector":
        """Wrap integer codes already in 0..R-1; R is inferred when omitted.

        A declared ``num_classes`` exceeding the observed classes is
        rejected rather than silently padded.
        """
        arr = np.asarray(codes)
        if arr.size == 0:
            raise InvalidLabels("labels must form a non-empty 1-d vector")
        if not np.issubdtype(arr.dtype, np.integer):
            raise InvalidLabels("label codes must be integers")
        inferred = int(arr.max()) + 1 if arr.size else 0
        return cls(arr, inferred if num_classes is None else num_classes)

    @classmethod
    def from_values(cls, values) -> "LabelVector":
        """Encode arbitrary label values as 0..R-1 by sorted unique order.

        NaN is a missing label, not a class, and is rejected.
        """
        arr = np.asarray(values)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidLabels("labels must form a non-empty 1-d vector")
        if np.issubdtype(arr.dtype, np.inexact) and np.isnan(arr).any():
            raise InvalidLabels("labels hold NaN; missing labels are not supported")
        uniques, codes = np.unique(arr, return_inverse=True)
        return cls(codes.astype(np.int64), uniques.size)


@dataclass(frozen=True)
class RankStructure:
    """Per-row sorted order and tie-aware inclusive ball counts.

    ``order[i]`` sorts row ``i`` of the distance matrix ascending
    (stable).  ``sorted_counts[i, t]`` is the inclusive count
    ``#{k : d(i, k) <= s_t}`` for the ``t``-th smallest distance
    ``s_t`` in row ``i``, so ``sorted_counts[i, t] / n`` is the
    empirical ball CDF ``F(i, order[i, t])``.  Runs of equal sorted
    distances share one value, so these counts double as the tie-group
    boundaries (a group ends at position ``sorted_counts[i, t] - 1``).
    ``d(i, i) = 0`` is the row minimum, so ``sorted_counts[i, 0]`` is
    the count of the ball ``B(i, i)``.
    """

    order: np.ndarray
    sorted_counts: np.ndarray
    n: int


@dataclass(frozen=True)
class MddEstimate:
    """The statistic value with its per-class decomposition.

    ``value`` equals ``sum(per_class)``; each ``per_class[r]`` is the
    class-``r`` term ``(p_r / n^2) * sum_{i,j} [F_r(i,j) - F(i,j)]^2``
    and is nonnegative.
    """

    value: float
    per_class: tuple[float, ...]
    n: int
    num_classes: int


def _check_sizes(n_dist: int, labels: LabelVector) -> None:
    if labels.n != n_dist:
        raise SizeMismatch(
            f"distance matrix has {n_dist} observations but labels have {labels.n}"
        )


def estimate_naive(
    d: DistanceMatrix, labels: LabelVector, include_diagonal: bool = True
) -> MddEstimate:
    """Direct evaluation of the definition, used as the oracle engine.

    For each centre ``i`` the full ball membership matrix
    ``member[j, k] = I(d(i, k) <= d(i, j))`` is formed and the class
    counts read off it, with no sorting or shared state.
    """
    _check_sizes(d.n, labels)
    n = d.n
    r = labels.num_classes
    values = d.values
    onehot = (labels.codes[:, None] == np.arange(r)[None, :]).astype(np.float64)
    counts = labels.counts.astype(np.float64)
    per_class_sums = np.zeros(r)
    for i in range(n):
        row = values[i]
        member = (row[None, :] <= row[:, None]).astype(np.float64)
        f_all = member.sum(axis=1) / n
        f_class = (member @ onehot) / counts
        diff = f_class - f_all[:, None]
        if not include_diagonal:
            diff[i, :] = 0.0
        per_class_sums += (diff * diff).sum(axis=0)
    per_class = labels.proportions * per_class_sums / (n * n)
    return MddEstimate(
        value=float(per_class.sum()),
        per_class=tuple(float(v) for v in per_class),
        n=n,
        num_classes=r,
    )


def build_ranks(d: DistanceMatrix) -> RankStructure:
    """Sort each row once and precompute tie-aware inclusive counts."""
    values = d.values
    n = d.n
    order = np.argsort(values, axis=1, kind="stable")
    sorted_d = np.take_along_axis(values, order, axis=1)
    sorted_counts = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        # right bisection on the sorted row gives #{k : d(i,k) <= s_t}
        # under exact equality, which is constant across a tie group.
        sorted_counts[i] = np.searchsorted(sorted_d[i], sorted_d[i], side="right")
    return RankStructure(order=_freeze(order), sorted_counts=_freeze(sorted_counts), n=n)


def estimate_fast(
    ranks: RankStructure, labels: LabelVector, include_diagonal: bool = True
) -> MddEstimate:
    """Evaluate the statistic from a prebuilt :class:`RankStructure`.

    The sums run over sorted positions in a fixed order, so repeated calls
    are bit-identical; they agree with :func:`estimate_naive` to within
    accumulation-order rounding (at most a few ulps).
    """
    _check_sizes(ranks.n, labels)
    n = ranks.n
    pos = ranks.sorted_counts - 1
    f_all = ranks.sorted_counts / n
    sorted_codes = labels.codes[ranks.order]
    sums = np.empty(labels.num_classes)
    for r in range(labels.num_classes):
        cum = np.cumsum(sorted_codes == r, axis=1, dtype=np.int64)
        diff = np.take_along_axis(cum, pos, axis=1) / labels.counts[r] - f_all
        sums[r] = float(np.einsum("ij,ij->", diff, diff))
        if not include_diagonal:  # B(i, i) sits at sorted position 0
            sums[r] -= float(diff[:, 0] @ diff[:, 0])
    per_class = labels.proportions * sums / (n * n)
    return MddEstimate(
        value=float(per_class.sum()),
        per_class=tuple(float(v) for v in per_class),
        n=n,
        num_classes=labels.num_classes,
    )


def _ball_kernel(ranks: RankStructure, include_diagonal: bool = True) -> np.ndarray:
    """``K[k, l]``, the number of balls ``B(i, j)`` holding both ``k`` and ``l``.

    Point ``k`` lies in ``u_i[k] = #{j : d(i, j) >= d(i, k)}`` balls of
    row ``i``, so ``K[k, l] = sum_i min(u_i[k], u_i[l])``.  Without the
    diagonal the balls ``B(i, i)`` go: they are the first tie group of
    each row, where ``u_i = n``, so capping ``u_i`` at ``n - 1``
    subtracts ``Zero' Zero``.  Entries are at most ``n^2``, within int32.
    """
    n = ranks.n
    if n > MAX_EXACT_N:
        raise InvalidSpec(f"exact permutation keys need n <= {MAX_EXACT_N}, got n = {n}")
    cap = n if include_diagonal else n - 1
    kernel = np.zeros((n, n), dtype=np.int32)
    outer = np.empty((n, n), dtype=np.int32)
    u = np.empty(n, dtype=np.int32)
    for i in range(n):
        counts = ranks.sorted_counts[i]
        # a tie group starts where the counts of earlier groups end
        u[ranks.order[i]] = np.minimum(n - np.searchsorted(counts, counts, side="left"), cap)
        np.minimum(u[:, None], u[None, :], out=outer)
        kernel += outer
    return kernel.astype(np.float64)


def _class_forms(kernel: np.ndarray, codings: np.ndarray, num_classes: int) -> np.ndarray:
    """The ``(m, R)`` forms ``z_r' K z_r`` of each row of ``codings`` and class ``r``.

    One matrix product per chunk of ``_CHUNK`` indicator entries; each form
    sums its row in a fixed order, so equal indicators give equal bits.
    """
    m, n = codings.shape
    classes = np.arange(num_classes)[:, None]
    step = max(1, _CHUNK // (n * num_classes))
    out = np.empty((m, num_classes))
    for start in range(0, m, step):
        block = codings[start:start + step]
        z = (block[:, None, :] == classes).reshape(-1, n).astype(np.float64)
        out[start:start + step] = (z * (z @ kernel)).sum(axis=1).reshape(-1, num_classes)
    return out
