from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    euclidean_pair_distances,
    exact_statistic,
    random_distances,
    random_labels,
    traced_bytes_per_entry,
)

from mddtest import (
    DistanceMatrix,
    InvalidLabels,
    LabelVector,
    PointSet,
    RankStructure,
    SizeMismatch,
    build_ranks,
    estimate_fast,
    estimate_naive,
    euclidean_distances,
    hhg_statistic_discrete,
    permutation_test,
)
from mddtest import metrics
from mddtest.estimator import (
    _TILE,
    _TILE_ROWS,
    MddEstimate,
    _ball_counts,
    _ball_kernel,
    _class_forms,
)
from mddtest.metrics import _row_blocks

TWO_POINT_D = DistanceMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
TWO_POINT_Y = LabelVector.from_codes(np.array([0, 1]))


def test_two_point_value_is_exactly_one_eighth():
    value, per_class = exact_statistic(TWO_POINT_D.values, [0, 1], 2)
    assert value == Fraction(1, 8)
    assert per_class == [Fraction(1, 16), Fraction(1, 16)]
    naive = estimate_naive(TWO_POINT_D, TWO_POINT_Y)
    fast = estimate_fast(build_ranks(TWO_POINT_D), TWO_POINT_Y)
    assert naive.value == 0.125
    assert fast.value == 0.125
    assert naive.per_class == (0.0625, 0.0625)
    assert fast.per_class == (0.0625, 0.0625)
    assert naive.n == 2 and naive.num_classes == 2


def test_rank_structure_worked_row():
    d = DistanceMatrix(
        np.array(
            [
                [0.0, 5.0, 2.0, 2.0],
                [5.0, 0.0, 3.0, 4.0],
                [2.0, 3.0, 0.0, 1.0],
                [2.0, 4.0, 1.0, 0.0],
            ]
        )
    )
    ranks = build_ranks(d)
    assert ranks.n == 4
    # row 0 distances (0, 5, 2, 2): closed-ball counts by column
    assert ranks.sorted_counts[0][np.argsort(ranks.order[0])].tolist() == [1, 4, 3, 3]
    assert ranks.sorted_counts[0].tolist() == [1, 3, 3, 4]
    assert d.values[0][ranks.order[0]].tolist() == [0.0, 2.0, 2.0, 5.0]


def sorted_counts_loop(values):
    """Per-row oracle: right bisection of each sorted row on itself."""
    return np.stack([np.searchsorted(row, row, side="right") for row in np.sort(values, axis=1)])


def tie_heavy_instances(seed, count):
    """3 x 3 integer-grid samples with n >= 17, so points repeat; every
    other one has its zero distances stored as -0.0."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        n = int(rng.integers(17, 41))
        values = random_distances(rng, n, ties=True).values.copy()
        if trial % 2:
            values[values == 0.0] = -0.0
        yield rng, DistanceMatrix(values)


def test_sorted_counts_match_the_per_row_bisection():
    off_diagonal_equal = np.full((6, 6), 2.5)
    np.fill_diagonal(off_diagonal_equal, 0.0)
    signed_zeros = np.array([[0.0, -0.0, 1.0], [-0.0, 0.0, -0.0], [1.0, -0.0, -0.0]])
    matrices = [TWO_POINT_D, DistanceMatrix(off_diagonal_equal), DistanceMatrix(signed_zeros)]
    matrices += [d for _, d in tie_heavy_instances(47, 8)]
    for d in matrices:
        assert np.array_equal(build_ranks(d).sorted_counts, sorted_counts_loop(d.values))
    assert build_ranks(DistanceMatrix(off_diagonal_equal)).sorted_counts[:, 1:].min() == 6
    assert build_ranks(DistanceMatrix(signed_zeros)).sorted_counts.tolist() == [
        [2, 2, 3], [3, 3, 3], [2, 2, 3]
    ]


def test_rank_consumers_ignore_the_order_within_ties():
    moved_any = False
    for rng, d in tie_heavy_instances(53, 6):
        n = d.n
        ranks = build_ranks(d)
        # sort each row by tie run first and a random key second
        shuffled = np.stack([
            row[np.lexsort((rng.random(n), counts))]
            for row, counts in zip(ranks.order, ranks.sorted_counts)
        ])
        moved_any |= not np.array_equal(shuffled, ranks.order)
        other = RankStructure(order=shuffled, sorted_counts=ranks.sorted_counts, n=n)
        labels = random_labels(rng, n, 3)
        codings = np.stack([rng.permutation(labels.codes) for _ in range(4)])
        assert estimate_fast(other, labels) == estimate_fast(ranks, labels)
        assert np.array_equal(_ball_kernel(other), _ball_kernel(ranks))
        assert (
            permutation_test(other, labels, 19, seed=n).p_value
            == permutation_test(ranks, labels, 19, seed=n).p_value
        )
        assert np.array_equal(
            hhg_statistic_discrete(other, codings, labels.counts),
            hhg_statistic_discrete(ranks, codings, labels.counts),
        )
    assert moved_any


def ball_counts_loop(ranks):
    """Per-row oracle for ``U``: a tie group starts where the counts of
    earlier groups end, found by one left bisection per row."""
    n = ranks.n
    u = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        counts = ranks.sorted_counts[i]
        u[i, ranks.order[i]] = n - np.searchsorted(counts, counts, side="left")
    return u


def ball_kernel_loop(ranks):
    """Per-row oracle: add ``min(u_i[k], u_i[l])`` one row ``i`` at a time."""
    n = ranks.n
    kernel = np.zeros((n, n), dtype=np.int64)
    for u in ball_counts_loop(ranks):
        kernel += np.minimum(u[:, None], u[None, :])
    return kernel


def ball_kernel_definition(values):
    """``K[k, l] = sum_i sum_j [d_ik <= d_ij][d_il <= d_ij]``.  Counts stay
    below 2^53, so the float products are exact."""
    n = len(values)
    kernel = np.zeros((n, n))
    for row in values:
        member = (row[None, :] <= row[:, None]).astype(np.float64)  # k in B(i, j)
        kernel += member.T @ member
    return kernel


def test_ball_kernel_matches_both_oracles_around_the_tile_size():
    rng = np.random.default_rng(61)
    for n in (2, 3, _TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 1):
        for ties in (False, True):
            d = random_distances(rng, n, ties=ties)
            ranks = build_ranks(d)
            kernel = _ball_kernel(ranks)
            assert kernel.dtype == np.float64
            assert np.array_equal(kernel, ball_kernel_loop(ranks)), (n, ties)
            # the definition costs O(n^4); two tiles are covered by the loop
            if n <= _TILE + 1:
                assert np.array_equal(kernel, ball_kernel_definition(d.values))


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(
    points=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=2, max_size=12),
)
def test_ball_kernel_matches_the_definition_on_tie_heavy_samples(points):
    d = euclidean_distances(PointSet.euclidean(np.array(points, dtype=np.float64)))
    ranks = build_ranks(d)
    kernel = _ball_kernel(ranks)
    assert np.array_equal(kernel, ball_kernel_definition(d.values))
    assert np.array_equal(kernel, ball_kernel_loop(ranks))


def ball_kernel_row_sums(u):
    """``K @ 1`` from ``U`` in O(n^2 log n): row ``i`` adds, for each ``k``,
    ``sum_l min(u_i[k], u_i[l])``, the entries below ``u_i[k]`` plus
    ``u_i[k]`` once for each of the rest."""
    n = len(u)
    out = np.zeros(n, dtype=np.int64)
    for row in u:
        ascending = np.sort(row)
        below = np.searchsorted(ascending, row)
        out += np.concatenate(([0], np.cumsum(ascending)))[below] + row * (n - below)
    return out


def test_ball_kernel_is_exact_where_an_int16_sum_takes_fewer_than_tile_rows():
    # from n = 2048 on, an int16 sum takes 32767 // n rows, fewer than
    # _TILE_ROWS; with nine points in ten at one site most minima are n,
    # so the int16 sums come as close to wrapping as they can
    n = 2049
    rng = np.random.default_rng(67)
    points = np.where(rng.random((n, 1)) < 0.9, 0.0, rng.standard_normal((n, 3)))
    ranks = build_ranks(euclidean_distances(PointSet.euclidean(points)))
    assert np.iinfo(np.int16).max // n < _TILE_ROWS
    kernel = _ball_kernel(ranks)
    u = ball_counts_loop(ranks)
    assert np.array_equal(np.diag(kernel), u.sum(axis=0))
    assert np.array_equal(kernel.sum(axis=1), ball_kernel_row_sums(u))


def test_ball_kernel_holds_u_k_and_one_strip_of_scratch():
    # U and K take 10 bytes per entry and one strip's int16 scratch 2 KiB
    # per observation, 4 more at n = 500; a wider strip would pass 20
    n = 500
    ranks = build_ranks(random_distances(np.random.default_rng(71), n))
    assert traced_bytes_per_entry(n, _ball_kernel, ranks) < 20


def estimate_fast_per_class(ranks, labels):
    """Per-class oracle: every class, the last included, reads its own
    running count at the tie-run ends."""
    n = ranks.n
    run_end = ranks.sorted_counts - 1 + np.arange(0, n * n, n, dtype=np.intp)[:, None]
    f_all = ranks.sorted_counts / n
    sorted_codes = labels.codes[ranks.order]
    sums = np.empty(labels.num_classes)
    for r in range(labels.num_classes):
        cum = np.cumsum(sorted_codes == r, axis=1, dtype=np.int32)
        diff = cum.ravel().take(run_end) / labels.counts[r] - f_all
        sums[r] = float(np.einsum("ij,ij->", diff, diff))
    per_class = labels.proportions * sums / (n * n)
    return MddEstimate(
        value=float(per_class.sum()),
        per_class=tuple(float(v) for v in per_class),
        n=n,
        num_classes=labels.num_classes,
    )


def test_estimate_fast_matches_the_per_class_loop_bit_for_bit():
    for R in (1, 2, 3, 5):
        for rng, d in tie_heavy_instances(59 + R, 4):
            ranks = build_ranks(d)
            labels = random_labels(rng, d.n, R)
            assert estimate_fast(ranks, labels) == estimate_fast_per_class(ranks, labels), (R, d.n)


def build_ranks_unblocked(d):
    """Whole-matrix oracle: one argsort and one sort of all rows at once."""
    n = d.n
    order = np.argsort(d.values, axis=1).astype(np.int32)
    sorted_d = np.sort(d.values, axis=1)
    last = np.ones((n, n), dtype=bool)
    np.not_equal(sorted_d[:, 1:], sorted_d[:, :-1], out=last[:, :-1])
    ends = np.where(last, np.arange(1, n + 1, dtype=np.int32), np.int32(n))
    sorted_counts = np.minimum.accumulate(ends[:, ::-1], axis=1)[:, ::-1]
    return RankStructure(order=order, sorted_counts=np.ascontiguousarray(sorted_counts), n=n)


def estimate_fast_unblocked(ranks, labels):
    """Whole-matrix oracle: each class but the last gathers its running
    count at the run ends through one flat index; the last takes the rest."""
    n = ranks.n
    last = labels.num_classes - 1
    run_end = ranks.sorted_counts - 1 + np.arange(0, n * n, n, dtype=np.intp)[:, None]
    f_all = ranks.sorted_counts / n
    sorted_codes = labels.codes[ranks.order]
    rest = ranks.sorted_counts
    diff = np.empty((n, n))
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
    per_class = labels.proportions * sums / (n * n)
    return MddEstimate(
        value=float(per_class.sum()),
        per_class=tuple(float(v) for v in per_class),
        n=n,
        num_classes=labels.num_classes,
    )


def assert_blocked_matches_unblocked(points, labels, chunk):
    """Every row-blocked pass under a ``chunk``-entry budget against its
    oracle or its call under the package's own budget."""
    n = len(points)
    R = labels.num_classes
    codings = np.stack([np.roll(labels.codes, shift) for shift in range(5)])
    expected_forms = expected_hhg = None
    if n >= 3:
        ranks = build_ranks(euclidean_distances(PointSet.euclidean(points)))
        expected_forms = _class_forms(_ball_kernel(ranks), codings, R)
        expected_hhg = hhg_statistic_discrete(ranks, codings, labels.counts)
    with mock.patch.object(metrics, "_CHUNK", chunk):
        assert len(_row_blocks(n, n)) > 1 or n * n <= chunk  # the patch reaches the blocks
        d = euclidean_distances(PointSet.euclidean(points))
        assert d.values.tobytes() == euclidean_pair_distances(points).tobytes()
        ranks = build_ranks(d)
        expected = build_ranks_unblocked(d)
        assert np.array_equal(ranks.order, expected.order)
        assert np.array_equal(ranks.sorted_counts, expected.sorted_counts)
        assert estimate_fast(ranks, labels) == estimate_fast_unblocked(ranks, labels), (n, R)
        assert np.array_equal(_ball_counts(ranks), ball_counts_loop(ranks))
        if n >= 3:
            forms = _class_forms(_ball_kernel(ranks), codings, R)
            assert forms.tobytes() == expected_forms.tobytes()
            hhg = hhg_statistic_discrete(ranks, codings, labels.counts)
            assert hhg.tobytes() == expected_hhg.tobytes()


def blocked_points(rng, n, ties):
    # small integer grid coordinates force many tied and zero distances
    if ties:
        return rng.integers(0, 3, size=(n, 2)).astype(np.float64)
    return rng.standard_normal((n, 3))


# 200-entry blocks: n = 2..13 is one block, 17..41 ends in a ragged block, 70 is 35 of 2 rows
BLOCKED_SIZES = (2, 3, 13, 17, 29, 41, 70)


def test_row_blocks_change_no_bit():
    rng = np.random.default_rng(71)
    for n in BLOCKED_SIZES:
        for ties in (False, True):
            points = blocked_points(rng, n, ties)
            for R in (1, 2, 5):
                if n >= R:
                    assert_blocked_matches_unblocked(points, random_labels(rng, n, R), 200)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(
    points=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=2, max_size=40),
    chunk=st.integers(1, 120),
    data=st.data(),
)
def test_row_blocks_change_no_bit_on_tie_heavy_samples(points, chunk, data):
    n = len(points)
    R = data.draw(st.integers(1, min(5, n)))
    codes = np.array(data.draw(st.permutations(list(range(R)) + [0] * (n - R))))
    assert_blocked_matches_unblocked(
        np.array(points, dtype=np.float64), LabelVector.from_codes(codes, R), chunk
    )


def ties_in_rows(tied_rows, n=400):
    """Continuous distances where only ``tied_rows`` hold a tie: row ``i``
    gets ``d(i, i + 2) = d(i, i + 1)``, a value every other row holds once."""
    values = random_distances(np.random.default_rng(83), n).values.copy()
    for i in tied_rows:
        values[i, (i + 2) % n] = values[(i + 2) % n, i] = values[i, (i + 1) % n]
    return DistanceMatrix(values)


# estimate_fast values of ties_in_rows at the commit before the tie-free skips
TIED_BLOCK_ESTIMATES = {
    "none": 0.0007465631278292164,
    "first": 0.0007467317050379606,
    "second": 0.0007465581552735668,
}


def test_tie_pass_skips_keep_counts_and_estimates_per_row_block():
    n = 400
    blocks = _row_blocks(n, n)
    assert [b.indices(n)[1] - b.indices(n)[0] for b in blocks] == [327, 73]
    labels = random_labels(np.random.default_rng(89), n, 3)
    cases = {"none": (), "first": range(3, 327, 29), "second": range(331, 400, 17)}
    for name, tied_rows in cases.items():
        d = ties_in_rows(tied_rows)
        sorted_rows = np.sort(d.values, axis=1)
        has_tie = (sorted_rows[:, 1:] == sorted_rows[:, :-1]).any(axis=1)
        assert np.flatnonzero(has_tie).tolist() == list(tied_rows)
        ranks = build_ranks(d)
        assert np.array_equal(ranks.sorted_counts, sorted_counts_loop(d.values))
        fast = estimate_fast(ranks, labels)
        assert abs(fast.value - estimate_naive(d, labels).value) <= 1e-12
        assert fast.value == TIED_BLOCK_ESTIMATES[name], name


def packed_key_distances(rng, n, kind):
    """Distances for the packed-key rank build: tie-free rows, true ties on
    an integer grid, zeros of both signs off the diagonal, subnormal or
    huge entries, or rows holding ``v`` and ``nextafter(v, inf)``, equal
    once their low bits are dropped but not tied."""
    if kind in ("grid", "signed zeros"):
        values = random_distances(rng, n, ties=True).values.copy()
        if kind == "signed zeros":
            flip = np.triu(rng.random((n, n)) < 0.5, 1) & (values == 0.0)
            values[flip | flip.T] = -0.0
        return DistanceMatrix(values)
    values = random_distances(rng, n).values.copy()
    if kind == "subnormal":
        values *= 1e-310
    elif kind == "huge":
        values *= 1e300
    elif kind == "clash" and n >= 3:
        for i in rng.choice(n, size=n // 4 + 1, replace=False):
            j, k = (i + rng.choice(np.arange(1, n), size=2, replace=False)) % n
            v = float(rng.integers(1, 1 << 20)) / 1024  # no low bits set
            values[i, j] = values[j, i] = v
            values[i, k] = values[k, i] = np.nextafter(v, np.inf)
    return DistanceMatrix(values)


PACKED_KEY_KINDS = ("continuous", "grid", "signed zeros", "subnormal", "huge", "clash")
# either side of 2^k, where the column index takes one more key bit
PACKED_KEY_SIZES = (2, 3, 4, 5, 255, 256, 257, 1025)


@settings(derandomize=True, deadline=None, database=None, max_examples=30)
@given(
    n=st.sampled_from(PACKED_KEY_SIZES),
    chunk=st.sampled_from((None, 1, 700)),
    seed=st.integers(0, 2**32 - 1),
)
def test_packed_key_rank_build_matches_the_whole_matrix_sort(n, chunk, seed):
    rng = np.random.default_rng(seed)
    for kind in PACKED_KEY_KINDS:
        d = packed_key_distances(rng, n, kind)
        expected = build_ranks_unblocked(d)
        with (
            mock.patch.object(metrics, "_CHUNK", chunk or metrics._CHUNK),
            mock.patch.object(np, "argsort", wraps=np.argsort) as argsort,
        ):
            ranks = build_ranks(d)
        assert np.array_equal(ranks.order, expected.order), kind
        assert np.array_equal(ranks.sorted_counts, expected.sorted_counts), kind
        if kind == "continuous":
            assert not argsort.called  # every row took the key sort alone
        if kind == "clash" and n >= 3:
            assert argsort.called  # the clashing rows were sorted again


def test_tie_free_rows_are_ranked_without_argsort():
    d = random_distances(np.random.default_rng(97), 600)
    expected = build_ranks_unblocked(d)
    with mock.patch.object(np, "argsort", side_effect=AssertionError("argsort on tie-free rows")):
        ranks = build_ranks(d)
    assert np.array_equal(ranks.order, expected.order)
    assert np.array_equal(ranks.sorted_counts, expected.sorted_counts)


def test_rank_build_and_estimate_hold_few_bytes_per_entry():
    # unblocked, these were 25 and 49 bytes per entry; the int32 results
    # alone are 8, and estimate_fast keeps an n^2 float64, int32 and int8
    rng = np.random.default_rng(73)
    n = 600
    d = random_distances(rng, n)
    labels = random_labels(rng, n, 5)
    assert traced_bytes_per_entry(n, build_ranks, d) < 18
    ranks = build_ranks(d)
    assert traced_bytes_per_entry(n, estimate_fast, ranks, labels) < 18


def test_engines_match_exact_reference_on_small_instances():
    rng = np.random.default_rng(7)
    kinds = ("euclidean", "sphere", "shape", "euclidean")
    for trial in range(24):
        n = int(rng.integers(3, 9))
        R = int(rng.integers(2, min(n, 4) + 1))
        kind = kinds[trial % 4]
        d = random_distances(rng, n, kind=kind, ties=(trial % 4 == 3))
        labels = random_labels(rng, n, R)
        value, per_class = exact_statistic(d.values, labels.codes.tolist(), R)
        naive = estimate_naive(d, labels)
        fast = estimate_fast(build_ranks(d), labels)
        assert abs(naive.value - float(value)) <= 1e-12
        assert abs(fast.value - float(value)) <= 1e-12
        for r in range(R):
            assert abs(naive.per_class[r] - float(per_class[r])) <= 1e-12
            assert abs(fast.per_class[r] - float(per_class[r])) <= 1e-12


def test_fast_matches_naive_on_larger_random_instances():
    rng = np.random.default_rng(13)
    for trial in range(10):
        n = int(rng.integers(10, 41))
        R = int(rng.integers(2, 6))
        d = random_distances(rng, n, ties=(trial % 3 == 0))
        labels = random_labels(rng, n, R)
        naive = estimate_naive(d, labels)
        fast = estimate_fast(build_ranks(d), labels)
        assert abs(naive.value - fast.value) <= 1e-12
        assert max(
            abs(a - b) for a, b in zip(naive.per_class, fast.per_class)
        ) <= 1e-12


def test_single_class_statistic_is_zero():
    rng = np.random.default_rng(3)
    d = random_distances(rng, 6)
    labels = LabelVector.from_codes(np.zeros(6, dtype=np.int64))
    assert estimate_naive(d, labels).value == 0.0
    assert estimate_fast(build_ranks(d), labels).value == 0.0


def test_identical_points_statistic_is_zero():
    d = DistanceMatrix(np.zeros((5, 5)))
    labels = LabelVector.from_codes(np.array([0, 1, 0, 1, 1]))
    assert estimate_naive(d, labels).value == 0.0
    assert estimate_fast(build_ranks(d), labels).value == 0.0


def test_monotone_distance_transform_changes_nothing():
    rng = np.random.default_rng(17)
    d = random_distances(rng, 15)
    labels = random_labels(rng, 15, 3)
    base = estimate_fast(build_ranks(d), labels)
    for transform in (np.square, np.log1p):
        t = DistanceMatrix(transform(d.values))
        moved = estimate_fast(build_ranks(t), labels)
        assert moved.value == base.value
        assert moved.per_class == base.per_class


def test_joint_relabeling_invariance():
    rng = np.random.default_rng(19)
    d = random_distances(rng, 12)
    labels = random_labels(rng, 12, 3)
    base = estimate_naive(d, labels)
    for _ in range(5):
        p = rng.permutation(12)
        dp = DistanceMatrix(d.values[np.ix_(p, p)])
        lp = LabelVector.from_codes(labels.codes[p], 3)
        moved = estimate_naive(dp, lp)
        assert abs(moved.value - base.value) <= 1e-12


def test_class_rename_permutes_per_class_terms():
    rng = np.random.default_rng(23)
    d = random_distances(rng, 10)
    labels = random_labels(rng, 10, 3)
    mapping = np.array([2, 0, 1])
    renamed = LabelVector.from_codes(mapping[labels.codes], 3)
    ranks = build_ranks(d)
    base = estimate_fast(ranks, labels)
    moved = estimate_fast(ranks, renamed)
    assert moved.value == base.value
    for r in range(3):
        assert moved.per_class[mapping[r]] == base.per_class[r]


def test_value_equals_sum_of_per_class():
    rng = np.random.default_rng(31)
    d = random_distances(rng, 14)
    labels = random_labels(rng, 14, 4)
    for est in (estimate_naive(d, labels), estimate_fast(build_ranks(d), labels)):
        assert abs(est.value - sum(est.per_class)) <= 1e-15
        assert all(v >= 0.0 for v in est.per_class)


def test_size_mismatch_rejected():
    rng = np.random.default_rng(41)
    d = random_distances(rng, 8)
    labels = random_labels(rng, 7, 2)
    with pytest.raises(SizeMismatch):
        estimate_naive(d, labels)
    with pytest.raises(SizeMismatch):
        estimate_fast(build_ranks(d), labels)


def test_label_vector_validation():
    with pytest.raises(InvalidLabels):
        LabelVector.from_codes(np.array([0, 2, 0]))  # class 1 empty
    with pytest.raises(InvalidLabels):
        LabelVector.from_codes(np.array([0, 1]), num_classes=3)
    with pytest.raises(InvalidLabels):
        LabelVector.from_codes(np.array([-1, 0, 1]))
    with pytest.raises(InvalidLabels):
        LabelVector.from_codes(np.array([0.0, 1.0]))
    with pytest.raises(InvalidLabels):
        LabelVector.from_codes(np.array([], dtype=np.int64))
    with pytest.raises(InvalidLabels):
        LabelVector(np.array([[0, 1]]), 2)
    with pytest.raises(InvalidLabels):
        LabelVector(np.array([0, 1]), 0)


def test_label_vector_encoding_and_counts():
    labels = LabelVector.from_values(np.array(["b", "a", "b", "c"]))
    assert labels.codes.tolist() == [1, 0, 1, 2]
    assert labels.num_classes == 3
    assert labels.counts.tolist() == [1, 2, 1]
    assert np.allclose(labels.proportions, [0.25, 0.5, 0.25])
    assert labels.n == 4
    assert not labels.codes.flags.writeable
    assert not labels.counts.flags.writeable


def test_from_values_rejects_missing_and_unorderable_object_labels():
    nan = float("nan")
    for values in ([1.0, nan, 2.0, nan], ["a", nan, "b"], [None, "a", "b"], ["a", 1, "b"]):
        with pytest.raises(InvalidLabels):
            LabelVector.from_values(np.array(values, dtype=object))
    labels = LabelVector.from_values(np.array(["b", "a", "b"], dtype=object))
    assert labels.codes.tolist() == [1, 0, 1]


def test_rank_arrays_are_frozen():
    rng = np.random.default_rng(43)
    ranks = build_ranks(random_distances(rng, 6))
    for arr in (ranks.order, ranks.sorted_counts):
        assert not arr.flags.writeable
        assert arr.dtype == np.int32


def test_stored_arrays_do_not_alias_the_callers_arrays():
    codes = np.array([0, 1, 1, 0, 2], dtype=np.int64)
    labels = LabelVector(codes, 3)
    values = np.array([[0.0, 1.0], [1.0, 0.0]])
    d = DistanceMatrix(values)
    for stored in (labels.codes, labels.counts, labels.proportions, d.values):
        assert not stored.flags.writeable
    codes[:] = 0
    values[0, 1] = 7.0
    assert codes.flags.writeable and values.flags.writeable
    assert labels.codes.tolist() == [0, 1, 1, 0, 2]
    assert labels.counts.tolist() == [2, 2, 1]
    assert d.values.tolist() == [[0.0, 1.0], [1.0, 0.0]]
