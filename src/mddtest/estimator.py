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
It is built from one int16 ``n x n`` matrix ``U`` of per-row ball counts,
tile by tile in int32, into the float64 ``K`` the matrix products read:
10 bytes per entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidLabels, InvalidSpec, SizeMismatch
from .metrics import DistanceMatrix, _freeze

MAX_EXACT_N = 9741  # class forms z_r' K z_r <= n^4 are exact in float64
_CHUNK = 1 << 17  # indicator entries scored per matrix product
# ball-kernel tiles: 16 x 128 x 128 int16 scratch is 512 KiB, within L2
_TILE = 128
_TILE_ROWS = 16


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
        proportions = counts / codes.size
        # all three are fresh arrays (astype copies), so they freeze in place
        for arr in (codes, counts, proportions):
            arr.flags.writeable = False
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "num_classes", r)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "proportions", proportions)

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
    """Per-row sorted order and tie-aware inclusive ball counts, as int32.

    ``order[i]`` sorts row ``i`` of the distance matrix ascending; the
    order of tied columns is unspecified and may differ across CPUs, so
    readers take only values that are constant over a tie run.
    ``sorted_counts[i, t]`` is the inclusive count
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
    """Sort the whole matrix row-wise once and count each row's tie runs.

    One pass marks where each row's sorted distances change value, which
    ends a tie run; a reversed running minimum over those run ends gives
    every position the end of its run, ``#{k : d(i, k) <= s_t}`` under
    exact equality.  Both arrays fit int32: an ``n x n`` float64 matrix
    with ``n >= 2^31`` could not be held.
    """
    n = d.n
    order = np.argsort(d.values, axis=1).astype(np.int32)
    sorted_d = np.sort(d.values, axis=1)
    last = np.ones((n, n), dtype=bool)
    np.not_equal(sorted_d[:, 1:], sorted_d[:, :-1], out=last[:, :-1])
    ends = np.where(last, np.arange(1, n + 1, dtype=np.int32), np.int32(n))
    sorted_counts = np.minimum.accumulate(ends[:, ::-1], axis=1)[:, ::-1]
    order.flags.writeable = False
    # the reversed view is copied once, into a contiguous frozen array
    return RankStructure(order=order, sorted_counts=_freeze(sorted_counts), n=n)


def estimate_fast(
    ranks: RankStructure, labels: LabelVector, include_diagonal: bool = True
) -> MddEstimate:
    """Evaluate the statistic from a prebuilt :class:`RankStructure`.

    Each class but the last takes one int32 running count of its members
    along the sorted rows and reads it at every position's tie-run end
    through a single flat index.  At a run end the class counts add up
    to ``sorted_counts``, so the last class's count is what the others
    leave.  The sums run over sorted positions in a fixed order, so
    repeated calls are bit-identical; they agree with
    :func:`estimate_naive` to within accumulation-order rounding (at
    most a few ulps).
    """
    _check_sizes(ranks.n, labels)
    n = ranks.n
    last = labels.num_classes - 1
    # intp, not int32: row * n overflows int32 above n = 46340
    run_end = ranks.sorted_counts - 1 + np.arange(0, n * n, n, dtype=np.intp)[:, None]
    f_all = ranks.sorted_counts / n
    sorted_codes = labels.codes[ranks.order]
    rest = ranks.sorted_counts
    diff = np.empty((n, n))  # reused by every class, so one n^2 float64 is live
    sums = np.empty(labels.num_classes)
    for r in range(labels.num_classes):
        if r < last:
            inside = np.cumsum(sorted_codes == r, axis=1, dtype=np.int32).ravel().take(run_end)
            rest = rest - inside
        else:
            inside = rest
        np.divide(inside, labels.counts[r], out=diff)
        diff -= f_all
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
    subtracts ``Zero' Zero``.

    Every ``u_i`` is stored once as a row of one int16 matrix ``U``
    (``u <= n <= MAX_EXACT_N < 2^15``).  ``K`` is symmetric, so only its
    upper ``_TILE x _TILE`` tiles are built, each as an int32 sum over
    ``_TILE_ROWS`` rows of ``U`` at a time, then mirrored.  Entries are
    at most ``n^2``, exact in int32 and in the float64 ``K`` returned
    for BLAS; the build holds ``U`` and ``K``, 10 bytes per entry.
    """
    n = ranks.n
    if n > MAX_EXACT_N:
        raise InvalidSpec(f"exact permutation keys need n <= {MAX_EXACT_N}, got n = {n}")
    cap = n if include_diagonal else n - 1
    u = np.empty((n, n), dtype=np.int16)
    for i in range(n):
        counts = ranks.sorted_counts[i]
        # a tie group starts where the counts of earlier groups end
        u[i, ranks.order[i]] = np.minimum(n - np.searchsorted(counts, counts, side="left"), cap)
    kernel = np.empty((n, n))
    scratch = np.empty((_TILE_ROWS, _TILE, _TILE), dtype=np.int16)
    for a in range(0, n, _TILE):
        left = u[:, a:a + _TILE, None]
        for b in range(a, n, _TILE):
            right = u[:, None, b:b + _TILE]
            tile = np.zeros((left.shape[1], right.shape[2]), dtype=np.int32)
            for i in range(0, n, _TILE_ROWS):
                block = scratch[:min(_TILE_ROWS, n - i), :tile.shape[0], :tile.shape[1]]
                np.minimum(left[i:i + _TILE_ROWS], right[i:i + _TILE_ROWS], out=block)
                tile += block.sum(axis=0, dtype=np.int32)
            kernel[a:a + tile.shape[0], b:b + tile.shape[1]] = tile
            kernel[b:b + tile.shape[1], a:a + tile.shape[0]] = tile.T
    return kernel


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
