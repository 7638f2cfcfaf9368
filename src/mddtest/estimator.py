"""The metric distributional discrepancy (MDD) estimator.

For a sample with pairwise distances ``d`` and class labels ``y``,
write ``B(i, j)`` for the closed ball centred at observation ``i`` with
radius ``d(i, j)``.  With ``n_r`` observations in class ``r`` and
``p_r = n_r / n``, the empirical ball CDFs are

    F(i, j)   = #{k : d(i, k) <= d(i, j)} / n
    F_r(i, j) = #{k : d(i, k) <= d(i, j), y_k = r} / n_r

and the statistic is the weighted squared discrepancy

    (1 / n^2) * sum_r p_r * sum_{i, j} [F_r(i, j) - F(i, j)]^2 .

The double sum runs over all ordered pairs, ``i == j`` included.

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
from .metrics import DistanceMatrix

MAX_EXACT_N = 9741  # class forms z_r' K z_r <= n^4 are exact in float64
_CHUNK = 1 << 17  # indicator entries per matrix product; n^2 entries per row block
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


def estimate_naive(d: DistanceMatrix, labels: LabelVector) -> MddEstimate:
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
        per_class_sums += (diff * diff).sum(axis=0)
    per_class = labels.proportions * per_class_sums / (n * n)
    return MddEstimate(
        value=float(per_class.sum()),
        per_class=tuple(float(v) for v in per_class),
        n=n,
        num_classes=r,
    )


def _row_blocks(n: int) -> list[slice]:
    """The row blocks of about ``_CHUNK`` entries that the n^2 passes
    walk, so that their temporaries stay block-sized."""
    step = max(1, _CHUNK // n)
    return [slice(start, start + step) for start in range(0, n, step)]


def build_ranks(d: DistanceMatrix) -> RankStructure:
    """Sort the matrix row-wise once and count each row's tie runs.

    Within each row block, a sorted distance equal to the next one is
    not the end of its tie run; a reversed running minimum over the run
    ends ``t + 1`` gives every position the end of its run,
    ``#{k : d(i, k) <= s_t}`` under exact equality.  Every step is
    row-local, so the blocks change no bit.  Both arrays fit int32: an
    ``n x n`` float64 matrix with ``n >= 2^31`` could not be held.
    """
    n = d.n
    order = np.empty((n, n), dtype=np.int32)
    sorted_counts = np.empty((n, n), dtype=np.int32)
    positions = np.arange(1, n + 1, dtype=np.int32)
    for rows in _row_blocks(n):
        order[rows] = np.argsort(d.values[rows], axis=1)
        sorted_d = np.sort(d.values[rows], axis=1)
        counts = sorted_counts[rows]
        counts[:] = positions
        np.copyto(counts[:, :-1], np.int32(n), where=sorted_d[:, 1:] == sorted_d[:, :-1])
        del sorted_d
        np.minimum.accumulate(counts[:, ::-1], axis=1, out=counts[:, ::-1])
    order.flags.writeable = False
    sorted_counts.flags.writeable = False
    return RankStructure(order=order, sorted_counts=sorted_counts, n=n)


def estimate_fast(ranks: RankStructure, labels: LabelVector) -> MddEstimate:
    """Evaluate the statistic from a prebuilt :class:`RankStructure`.

    The sorted class codes are gathered once, in the narrowest integer
    type.  Each class but the last then takes, row block by row block,
    an int32 running count of its members along the sorted rows and
    reads it at every position's tie-run end: the count never falls
    along a row, so a reversed running minimum over the run ends reads
    it.  At a run end the class counts add up to ``sorted_counts``, so
    the last class's count is what the others leave in ``rest``.  One
    n^2 float64 ``diff`` serves every class, and each class sums all of
    it in one call, so the blocks change no bit and repeated calls are
    bit-identical; they agree with :func:`estimate_naive` to within
    accumulation-order rounding (at most a few ulps).
    """
    _check_sizes(ranks.n, labels)
    n = ranks.n
    last = labels.num_classes - 1
    blocks = _row_blocks(n)
    counts = ranks.sorted_counts
    rest = counts
    if last:
        codes = labels.codes.astype(np.min_scalar_type(last))
        sorted_codes = np.empty((n, n), dtype=codes.dtype)
        for rows in blocks:
            np.take(codes, ranks.order[rows], out=sorted_codes[rows])
        rest = np.empty((n, n), dtype=np.int32)
        positions = np.arange(1, n + 1, dtype=np.int32)
    diff = np.empty((n, n))  # reused by every class, so one n^2 float64 is live
    sums = np.empty(labels.num_classes)
    for r in range(labels.num_classes):
        for rows in blocks:
            if r < last:
                inside = np.cumsum(sorted_codes[rows] == r, axis=1, dtype=np.int32)
                np.copyto(inside, np.int32(n), where=counts[rows] != positions)
                np.minimum.accumulate(inside[:, ::-1], axis=1, out=inside[:, ::-1])
                np.subtract(counts[rows] if r == 0 else rest[rows], inside, out=rest[rows])
            else:
                inside = rest[rows]
            np.divide(inside, labels.counts[r], out=diff[rows])
            del inside
            diff[rows] -= counts[rows] / n
        sums[r] = float(np.einsum("ij,ij->", diff, diff))
    per_class = labels.proportions * sums / (n * n)
    return MddEstimate(
        value=float(per_class.sum()),
        per_class=tuple(float(v) for v in per_class),
        n=n,
        num_classes=labels.num_classes,
    )


def _ball_counts(ranks: RankStructure) -> np.ndarray:
    """The int16 ``U[i, k] = u_i[k] = #{j : d(i, j) >= d(i, k)}``.

    In sorted order ``u_i`` is ``n`` minus the start of each position's
    tie group.  A group starts where the count changes, and a running
    maximum carries each start forward; one scatter per row block puts
    the values back in column order.
    """
    n = ranks.n
    u = np.empty((n, n), dtype=np.int16)
    positions = np.arange(n, dtype=np.int32)
    for rows in _row_blocks(n):
        counts = ranks.sorted_counts[rows]
        starts = np.zeros(counts.shape, dtype=np.int32)
        np.copyto(starts[:, 1:], positions[1:], where=counts[:, 1:] != counts[:, :-1])
        np.maximum.accumulate(starts, axis=1, out=starts)
        np.put_along_axis(u[rows], ranks.order[rows], n - starts, axis=1)
    return u


def _ball_kernel(ranks: RankStructure) -> np.ndarray:
    """``K[k, l]``, the number of balls ``B(i, j)`` holding both ``k`` and ``l``.

    Point ``k`` lies in ``u_i[k] = #{j : d(i, j) >= d(i, k)}`` balls of
    row ``i``, so ``K[k, l] = sum_i min(u_i[k], u_i[l])``.

    Every ``u_i`` is stored once as a row of one int16 matrix ``U``
    (``u <= n <= MAX_EXACT_N < 2^15``).  ``K`` is symmetric, so only its
    upper ``_TILE x _TILE`` tiles are built, then mirrored.  A tile sums
    ``_TILE_ROWS`` rows of ``U`` at a time in int16 over groups of
    ``32767 // n >= 3`` rows, which cannot wrap, and adds each group
    into int32.  Entries are at most ``n^2``, exact in int32 and in the
    float64 ``K`` returned for BLAS; the build holds ``U`` and ``K``, 10
    bytes per entry.
    """
    n = ranks.n
    if n > MAX_EXACT_N:
        raise InvalidSpec(f"exact permutation keys need n <= {MAX_EXACT_N}, got n = {n}")
    u = _ball_counts(ranks)
    group = np.iinfo(np.int16).max // n
    kernel = np.empty((n, n))
    scratch = np.empty((_TILE_ROWS, _TILE, _TILE), dtype=np.int16)
    for a in range(0, n, _TILE):
        left = u[:, a:a + _TILE, None]
        for b in range(a, n, _TILE):
            right = u[:, None, b:b + _TILE]
            tile = np.zeros((left.shape[1], right.shape[2]), dtype=np.int32)
            partial = np.empty(tile.shape, dtype=np.int16)
            for start in range(0, n, group):
                end = min(start + group, n)
                partial[:] = 0
                for i in range(start, end, _TILE_ROWS):
                    block = scratch[:min(_TILE_ROWS, end - i), :tile.shape[0], :tile.shape[1]]
                    np.minimum(left[i:i + len(block)], right[i:i + len(block)], out=block)
                    partial += block.sum(axis=0, dtype=np.int16)
                tile += partial
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
