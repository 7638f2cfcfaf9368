"""Building blocks of the reference competitors: distance covariance and
the pairwise 2x2 chi-square test (HHG), adapted to a categorical second
variable.

Categorical labels enter through the discrete metric
``d(y_i, y_j) = I(y_i != y_j)``.  ``inference`` scores whole batches of
label codings with :func:`double_center` (dCov) and
:func:`hhg_statistic_discrete` (HHG).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidLabels, SizeMismatch, TooFewSamples
from .estimator import _CHUNK, RankStructure


def double_center(values: np.ndarray) -> np.ndarray:
    """Subtract row and column means and add back the grand mean."""
    mu_rows = values.mean(axis=1, keepdims=True)
    mu_cols = values.mean(axis=0, keepdims=True)
    mu = values.mean()
    return values - mu_rows - mu_cols + mu


def _chi_squares(n11, r1, c1, m):
    """Pearson chi-squares of 2x2 tables with the given counts, elementwise.

    Tables have ``m`` units, first-row margin ``r1``, first-column
    margin ``c1`` and top-left cell ``n11``; a zero margin gives zero.
    """
    n12 = r1 - n11
    n21 = c1 - n11
    n22 = m - r1 - c1 + n11
    det = n11 * n22 - n12 * n21
    den = r1 * (m - r1) * c1 * (m - c1)
    valid = den > 0
    num = np.zeros(det.shape)
    np.divide(
        m * det.astype(np.float64) ** 2,
        den.astype(np.float64),
        out=num,
        where=valid,
    )
    return num


def hhg_statistic_discrete(
    ranks: RankStructure, codings: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Sums of pairwise 2x2 chi-square statistics when the second
    variable's metric is the discrete one.

    For each ordered pair ``(i, j)`` with ``i != j`` the remaining
    ``n - 2`` observations are cross-classified by
    ``I(d(i, k) <= d(i, j))`` and ``I(d_y(i, k) <= d_y(i, j))``, with
    ``d_y`` the discrete metric on the labels; the Pearson
    chi-squares of those tables are summed.  ``codings`` is an ``(m, n)``
    batch, which gives ``m`` float64 values; every coding must hold
    ``counts[r]`` observations of class ``r``.

    Under the discrete metric only ordered pairs with ``y_i == y_j``
    produce a table without a zero margin.  For such a pair in class
    ``r`` the table is fixed by ``n_r``, the ball count
    ``C[i, j] = #{l : d(i, l) <= d(i, j)}`` and the number ``a`` of
    class members in that ball, so each class tabulates its
    chi-squares over ``(a, C)`` once per call.  A coding sorts its
    members' ball counts per centre and reads ``a`` off the end of each
    tie run.  When no row of distances ties, which is checked once per
    call, every run has length one and ``a`` is the sorted position plus
    one, so the run ends are never built.  Terms are summed centre by
    centre in ascending distance, class by class, so every coding gets
    the bits of a batch of one.
    """
    n = ranks.n
    if n < 3:
        raise TooFewSamples(f"pairwise chi-square needs n >= 3, got {n}")
    codings = np.asarray(codings)
    if codings.ndim != 2 or codings.shape[1] != n:
        raise SizeMismatch(f"codings must be an (m, {n}) batch, got shape {codings.shape}")
    sizes = [int(c) for c in counts]
    if sum(sizes) != n:
        raise InvalidLabels(f"class counts sum to {sum(sizes)}, not n = {n}")
    ball = np.empty((n, n), dtype=np.int32)
    np.put_along_axis(ball, ranks.order, ranks.sorted_counts, axis=1)
    ball = ball.ravel()
    # without distance ties every row's ball counts are 1..n, so no two
    # members of a centre's row share a count and each run has length one
    tie_free = bool((ranks.sorted_counts == np.arange(1, n + 1)).all())
    total = np.zeros(len(codings))
    for r, size in enumerate(sizes):
        if size == 0:
            continue
        n11 = np.arange(-2, size - 1)[:, None]  # a - 2 for a in 0..n_r
        r1 = np.arange(-2, n - 1)  # C - 2 for C in 0..n
        table = _chi_squares(n11, r1, size - 2, n - 2).ravel()
        run_end = np.arange(1, size + 1, dtype=np.int32)
        # without ties sorted position t ends its own run: a = t + 1
        offsets = run_end[1:] * np.int32(n + 1)
        # a quarter of a class-form chunk keeps the int32 and float64
        # temporaries of one chunk near 1 MB
        step = max(1, (_CHUNK >> 2) // (size * size))
        for start in range(0, len(codings), step):
            block = codings[start:start + step]
            members = np.nonzero(block == r)[1]
            if members.size != len(block) * size:
                raise InvalidLabels(
                    f"a coding does not hold {size} observations of class {r}"
                )
            members = members.reshape(len(block), size).astype(np.int32)
            within = ball[members[:, :, None] * np.int32(n) + members[:, None, :]]
            within.sort(axis=2)
            # sorted position 0 is the centre itself, at distance 0
            if tie_free:
                index = within[..., 1:] + offsets
            else:
                # a is the end of the run of equal ball counts, found where
                # the next count differs
                last = np.ones(within.shape, dtype=bool)
                np.not_equal(within[..., 1:], within[..., :-1], out=last[..., :-1])
                ends = np.where(last, run_end, np.int32(size))
                ends = np.minimum.accumulate(ends[..., ::-1], axis=2)[..., ::-1]
                index = ends[..., 1:] * np.int32(n + 1) + within[..., 1:]
            total[start:start + step] += table[index].reshape(len(block), -1).sum(axis=1)
    return total
