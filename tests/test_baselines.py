import numpy as np
import pytest

from conftest import (
    dcov_statistic,
    discrete_label_distances,
    random_distances,
    random_labels,
    traced_peak_bytes,
)

from mddtest import (
    DistanceMatrix,
    InvalidLabels,
    LabelVector,
    SizeMismatch,
    TooFewSamples,
    build_ranks,
    double_center,
    hhg_statistic_discrete,
)
from mddtest.baselines import _chi_squares
from mddtest.inference import _null_pvalues
from mddtest.metrics import _CHUNK, _row_blocks


def test_double_center_worked_example():
    out = double_center(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.array_equal(out, np.array([[-0.5, 0.5], [0.5, -0.5]]))
    rng = np.random.default_rng(1)
    centred = double_center(rng.uniform(size=(7, 7)))
    assert np.abs(centred.sum(axis=0)).max() <= 1e-10
    assert np.abs(centred.sum(axis=1)).max() <= 1e-10


def test_discrete_label_distances_worked_example():
    labels = LabelVector.from_codes(np.array([0, 1, 0]))
    expected = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    assert np.array_equal(discrete_label_distances(labels).values, expected)


def dcov_loops(dx, dy):
    n = len(dx)
    a = [[0.0] * n for _ in range(n)]
    b = [[0.0] * n for _ in range(n)]
    for mat, src in ((a, dx), (b, dy)):
        grand = sum(sum(row) for row in src) / n**2
        for i in range(n):
            for j in range(n):
                row_mean = sum(src[i]) / n
                col_mean = sum(src[k][j] for k in range(n)) / n
                mat[i][j] = src[i][j] - row_mean - col_mean + grand
    return sum(a[i][j] * b[i][j] for i in range(n) for j in range(n)) / n**2


def test_dcov_matches_loop_oracle():
    rng = np.random.default_rng(2)
    for trial in range(6):
        n = int(rng.integers(4, 8))
        dx = random_distances(rng, n, ties=(trial % 2 == 0))
        labels = random_labels(rng, n, 2)
        dy = discrete_label_distances(labels)
        got = dcov_statistic(dx, dy)
        want = dcov_loops(dx.values.tolist(), dy.values.tolist())
        assert isinstance(got, float) and abs(got - want) <= 1e-12
        assert got >= -1e-12


def test_dcov_constant_input_is_zero():
    d0 = DistanceMatrix(np.zeros((5, 5)))
    labels = random_labels(np.random.default_rng(3), 5, 2)
    assert dcov_statistic(d0, discrete_label_distances(labels)) == 0.0


def test_dcov_permutation_fast_path_matches_recomputation():
    rng = np.random.default_rng(4)
    dx = random_distances(rng, 10)
    labels = random_labels(rng, 10, 3)
    a = double_center(dx.values)
    b0 = double_center(discrete_label_distances(labels).values)
    for _ in range(6):
        p = rng.permutation(10)
        fast = float(np.mean(a * b0[np.ix_(p, p)]))
        relabeled = LabelVector.from_codes(labels.codes[p], 3)
        slow = dcov_statistic(dx, discrete_label_distances(relabeled))
        assert abs(fast - slow) <= 1e-12


def test_dcov_joint_relabeling_invariance():
    rng = np.random.default_rng(5)
    dx = random_distances(rng, 9)
    labels = random_labels(rng, 9, 2)
    base = dcov_statistic(dx, discrete_label_distances(labels))
    p = rng.permutation(9)
    moved = dcov_statistic(
        DistanceMatrix(dx.values[np.ix_(p, p)]),
        discrete_label_distances(LabelVector.from_codes(labels.codes[p], 2)),
    )
    assert abs(base - moved) <= 1e-12


def hhg_loops(dx, dy):
    n = len(dx)
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            n11 = n12 = n21 = n22 = 0
            for k in range(n):
                if k == i or k == j:
                    continue
                in_x = dx[i][k] <= dx[i][j]
                in_y = dy[i][k] <= dy[i][j]
                if in_x and in_y:
                    n11 += 1
                elif in_x:
                    n12 += 1
                elif in_y:
                    n21 += 1
                else:
                    n22 += 1
            m = n - 2
            r1 = n11 + n12
            c1 = n11 + n21
            den = r1 * (m - r1) * c1 * (m - c1)
            if den > 0:
                total += m * (n11 * n22 - n12 * n21) ** 2 / den
    return total


def hhg_discrete_loop(ranks, codes, counts):
    """Per-coding oracle for the discrete-metric HHG statistic.

    Each centre's row is walked in sorted order with a running count of
    class members; the chi-squares of each class are summed as one 1-d
    array, centre by centre in ascending distance, and the class sums
    are added in class order.
    """
    n = ranks.n
    m = n - 2
    self_pos = ranks.order == np.arange(n)[:, None]
    pos = ranks.sorted_counts - 1
    total = 0.0
    for r in range(counts.size):
        rows = np.flatnonzero(codes == r)
        if rows.size == 0:
            continue
        member_sorted = codes[ranks.order[rows]] == r
        cum = np.cumsum(member_sorted, axis=1, dtype=np.int64)
        keep = member_sorted & ~self_pos[rows]
        n11 = (np.take_along_axis(cum, pos[rows], axis=1) - 2)[keep]
        r1 = (ranks.sorted_counts[rows] - 2)[keep]
        c1 = int(counts[r]) - 2
        n12 = r1 - n11
        n21 = c1 - n11
        n22 = m - r1 - c1 + n11
        det = n11 * n22 - n12 * n21
        den = r1 * (m - r1) * c1 * (m - c1)
        num = np.zeros(den.shape)
        np.divide(m * det.astype(np.float64) ** 2, den.astype(np.float64), out=num, where=den > 0)
        total += float(num.sum())
    return total


def test_hhg_discrete_fast_path_matches_general():
    rng = np.random.default_rng(7)
    for trial in range(6):
        n = int(rng.integers(6, 14))
        R = int(rng.integers(2, 5))
        dx = random_distances(rng, n, ties=(trial % 2 == 0))
        labels = random_labels(rng, n, R)
        dy = discrete_label_distances(labels)
        want = hhg_loops(dx.values.tolist(), dy.values.tolist())
        (fast,) = hhg_statistic_discrete(build_ranks(dx), labels.codes[None], labels.counts)
        assert abs(want - fast) <= 1e-10 * (1.0 + abs(want))


def _batch_matches_oracle(ranks, codes, rng, permutations=100):
    counts = np.bincount(codes)
    batch = np.array([codes] + [rng.permutation(codes) for _ in range(permutations)])
    want = np.array([hhg_discrete_loop(ranks, c, counts) for c in batch])
    got = hhg_statistic_discrete(ranks, batch, counts)
    # a batch of one gets the bits of its row in the full batch
    ones = np.concatenate([hhg_statistic_discrete(ranks, c[None], counts) for c in batch])
    return got.dtype == np.float64 and np.array_equal(got, want) and np.array_equal(ones, want)


def test_hhg_discrete_batch_is_bitwise_the_per_coding_oracle():
    rng = np.random.default_rng(12)
    cases = []
    for trial in range(6):
        # integer grids: duplicate points, zero distances and long tie runs
        n = int(rng.integers(6, 40))
        cases.append((random_distances(rng, n, ties=True), random_labels(rng, n, 3).codes))
    singleton = np.array([0, 1] * 6 + [2])
    cases.append((random_distances(rng, 13, ties=True), singleton))
    cases.append((random_distances(rng, 13), singleton))
    cases.append((random_distances(rng, 3), np.array([0, 1, 0])))
    # class rows longer than one chunk and than numpy's 8192-element blocks
    cases.append((random_distances(rng, 200), np.arange(200) % 2))
    for dx, codes in cases:
        assert _batch_matches_oracle(build_ranks(dx), codes, rng, 7)
    # a preset-sized integer grid: 30 codings of two classes of 60 span 4 row blocks
    assert len(_row_blocks(30, 4 * 60 * 60)) == 4
    dx = random_distances(rng, 120, ties=True)
    assert _batch_matches_oracle(build_ranks(dx), np.arange(120) % 2, rng, 29)


def test_hhg_discrete_tie_free_batch_is_bitwise_the_oracle():
    rng = np.random.default_rng(14)
    n = 160
    ranks = build_ranks(random_distances(rng, n))
    # continuous points: every row's ball counts are 1..n
    assert np.array_equal(ranks.sorted_counts, np.broadcast_to(np.arange(1, n + 1), (n, n)))
    # 80 and 32 members per class spread 101 codings over 21 and 4 chunks
    for R in (2, 5):
        assert _batch_matches_oracle(ranks, np.arange(n) % R, rng), R


def test_hhg_discrete_one_tied_row_takes_the_general_path():
    rng = np.random.default_rng(15)
    n = 60
    values = random_distances(rng, n).values.copy()
    # observations 3 and 5 are equally far from centre 0, and nothing else ties
    values[0, 5] = values[5, 0] = values[0, 3]
    ranks = build_ranks(DistanceMatrix(values))
    tied_rows = (ranks.sorted_counts != np.arange(1, n + 1)).any(axis=1)
    assert np.array_equal(np.flatnonzero(tied_rows), [0])
    codes = np.arange(n) % 2
    codes[[0, 3, 5]] = 0
    codes[[1, 2, 4]] = 1
    assert _batch_matches_oracle(ranks, codes, rng)


def test_hhg_discrete_empty_class_adds_nothing():
    rng = np.random.default_rng(16)
    codes = np.array([1, 2, 1, 2, 2, 1, 2, 2])
    for ties in (True, False):
        ranks = build_ranks(random_distances(rng, 8, ties=ties))
        batch = np.array([codes] + [rng.permutation(codes) for _ in range(9)])
        got = hhg_statistic_discrete(ranks, batch, np.array([0, 3, 5]))
        want = hhg_statistic_discrete(ranks, batch - 1, np.array([3, 5]))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), ties
        oracle = [hhg_discrete_loop(ranks, c, np.array([0, 3, 5])) for c in batch]
        assert np.array_equal(got, oracle), ties


def test_chi_square_table_peaks_below_four_tables():
    # the table of one class at n = 1000, n_r = 667, as hhg_statistic_discrete builds it
    n, size = 1000, 667
    args = (np.arange(-2, size - 1)[:, None], np.arange(-2, n - 1), size - 2, n - 2)
    table_bytes = (size + 1) * (n + 1) * 8
    assert traced_peak_bytes(_chi_squares, *args) < 4 * table_bytes


def test_hhg_discrete_peaks_near_one_row_block():
    # an integer grid, so the tie path builds its run ends and mask
    rng = np.random.default_rng(16)
    n, size = 160, 80
    ranks = build_ranks(random_distances(rng, n, ties=True))
    codes = np.arange(n) % 2
    batch = np.array([rng.permutation(codes) for _ in range(100)])
    # beside the int32 ball counts and one class's float64 table, a block holds
    # _CHUNK // (4 n_r^2) codings of n_r^2 member pairs, at most 24 bytes a pair
    # at once; 32 leaves room for numpy's cast buffers, but not for a second
    # block's temporaries beside the first
    pairs = _CHUNK // (4 * size * size) * size * size
    bound = 4 * n * n + (size + 1) * (n + 1) * 8 + 32 * pairs
    assert traced_peak_bytes(hhg_statistic_discrete, ranks, batch, np.bincount(codes)) < bound


def test_hhg_discrete_rejects_codes_that_disagree_with_counts():
    ranks = build_ranks(random_distances(np.random.default_rng(13), 8))
    codes = np.array([0, 0, 0, 1, 1, 1, 1, 1])
    for counts in ([4, 4], [5, 3], [3, 4], [3, 4, 1]):
        for given in (codes[None], np.vstack([codes, codes[::-1]])):
            with pytest.raises(InvalidLabels):
                hhg_statistic_discrete(ranks, given, np.array(counts))
    with pytest.raises(InvalidLabels):
        hhg_statistic_discrete(ranks, np.array([[0, 0, 0, 1, 1, 1, 1, 2]]), np.array([3, 5]))


def test_hhg_single_class_is_zero():
    rng = np.random.default_rng(8)
    dx = random_distances(rng, 7)
    labels = LabelVector.from_codes(np.zeros(7, dtype=np.int64))
    assert hhg_statistic_discrete(build_ranks(dx), labels.codes[None], labels.counts) == [0.0]


def test_baseline_size_checks():
    rng = np.random.default_rng(10)
    ranks = build_ranks(random_distances(rng, 5))
    codes = np.array([0, 0, 1, 1, 1])
    # a single 1-d coding, a batch of the wrong width and a 3-d stack
    for given in (codes, codes[None, :4], codes[None, None]):
        with pytest.raises(SizeMismatch):
            hhg_statistic_discrete(ranks, given, np.array([2, 3]))
    want = hhg_statistic_discrete(ranks, codes[None], np.array([2, 3]))
    assert np.array_equal(hhg_statistic_discrete(ranks, [codes.tolist()], [2, 3]), want)
    with pytest.raises(TooFewSamples):
        hhg_statistic_discrete(build_ranks(DistanceMatrix(np.zeros((2, 2)))), [[0, 1]], [1, 1])


def test_baselines_detect_strong_dependence():
    rng = np.random.default_rng(11)
    codes = rng.integers(0, 2, size=40)
    while np.bincount(codes, minlength=2).min() == 0:
        codes = rng.integers(0, 2, size=40)
    from mddtest import PointSet, euclidean_distances

    pts = rng.standard_normal((40, 2)) + 4.0 * codes[:, None]
    dx = euclidean_distances(PointSet.euclidean(pts))
    labels = LabelVector.from_codes(codes)
    pvals = _null_pvalues(dx, labels, ("dcov", "hhg"), 199, 13)
    assert pvals["dcov"] <= 0.01 and pvals["hhg"] <= 0.01
