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
(O(n^2 log n)), after which every evaluation, including evaluations
under permuted labels, costs O(R n^2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidLabels, SizeMismatch
from .metrics import DistanceMatrix, _freeze


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
    ``s_t`` in row ``i``; runs of equal sorted distances share one
    value, so these counts double as the tie-group boundaries (a group
    ends at position ``sorted_counts[i, t] - 1``).
    ``inclusive_counts[i, j]`` is the same count indexed by the
    original column ``j``, so ``inclusive_counts[i, j] / n`` is exactly
    the empirical ball CDF ``F(i, j)``.
    """

    order: np.ndarray
    sorted_counts: np.ndarray
    inclusive_counts: np.ndarray
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
    inclusive = np.empty((n, n), dtype=np.int64)
    np.put_along_axis(inclusive, order, sorted_counts, axis=1)
    return RankStructure(
        order=_freeze(order),
        sorted_counts=_freeze(sorted_counts),
        inclusive_counts=_freeze(inclusive),
        n=n,
    )


def _class_cumulative(ranks: RankStructure, codes: np.ndarray, r: int) -> np.ndarray:
    """Cumulative class-``r`` membership along each sorted row."""
    member = codes[ranks.order] == r
    return np.cumsum(member, axis=1, dtype=np.int64)


def _fast_terms(
    ranks: RankStructure,
    codes: np.ndarray,
    counts: np.ndarray,
    include_diagonal: bool,
) -> np.ndarray:
    """Per-class sums ``sum_{i,j} [F_r(i,j) - F(i,j)]^2`` from the ranks.

    The inner sums run in sorted-position space (a bijection of the
    column index) with a fixed row-major, class-major accumulation
    order, so repeated calls are bit-identical.
    """
    n = ranks.n
    num_classes = counts.size
    pos = ranks.sorted_counts - 1
    f_all = ranks.sorted_counts / n
    diag_pos = ranks.inclusive_counts.diagonal()[:, None] - 1
    f_all_diag = (diag_pos[:, 0] + 1) / n
    sums = np.empty(num_classes)
    for r in range(num_classes):
        cum = _class_cumulative(ranks, codes, r)
        f_class = np.take_along_axis(cum, pos, axis=1) / counts[r]
        diff = f_class - f_all
        total = float(np.einsum("ij,ij->", diff, diff))
        if not include_diagonal:
            f_class_diag = np.take_along_axis(cum, diag_pos, axis=1)[:, 0] / counts[r]
            d = f_class_diag - f_all_diag
            total -= float(d @ d)
        sums[r] = total
    return sums


def estimate_fast(
    ranks: RankStructure, labels: LabelVector, include_diagonal: bool = True
) -> MddEstimate:
    """Evaluate the statistic from a prebuilt :class:`RankStructure`.

    Agrees with :func:`estimate_naive` to within accumulation-order
    rounding (at most a few ulps); each call costs O(R n^2).
    """
    _check_sizes(ranks.n, labels)
    n = ranks.n
    sums = _fast_terms(ranks, labels.codes, labels.counts, include_diagonal)
    per_class = labels.proportions * sums / (n * n)
    return MddEstimate(
        value=float(per_class.sum()),
        per_class=tuple(float(v) for v in per_class),
        n=n,
        num_classes=labels.num_classes,
    )


def fast_statistic_value(
    ranks: RankStructure,
    codes: np.ndarray,
    counts: np.ndarray,
    proportions: np.ndarray,
    include_diagonal: bool = True,
) -> float:
    """Bare statistic value for a label coding with known class counts.

    This is the permutation hot path: permuting labels leaves
    ``counts`` and ``proportions`` unchanged, so they are passed in
    rather than re-derived.
    """
    n = ranks.n
    sums = _fast_terms(ranks, codes, counts, include_diagonal)
    return float((proportions * sums).sum() / (n * n))
