from fractions import Fraction

import numpy as np
import pytest

from conftest import exact_statistic, random_distances, random_labels

from mddtest import (
    DistanceMatrix,
    InvalidLabels,
    LabelVector,
    RankStructure,
    SizeMismatch,
    build_ranks,
    estimate_fast,
    estimate_naive,
    hhg_statistic_discrete,
    permutation_test,
)
from mddtest.estimator import _ball_kernel

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
        for include in (True, False):
            assert estimate_fast(other, labels, include) == estimate_fast(ranks, labels, include)
            assert np.array_equal(_ball_kernel(other, include), _ball_kernel(ranks, include))
            assert (
                permutation_test(other, labels, 19, seed=n, include_diagonal=include).p_value
                == permutation_test(ranks, labels, 19, seed=n, include_diagonal=include).p_value
            )
        assert np.array_equal(
            hhg_statistic_discrete(other, codings, labels.counts),
            hhg_statistic_discrete(ranks, codings, labels.counts),
        )
    assert moved_any


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


def test_engines_match_without_diagonal():
    rng = np.random.default_rng(11)
    for trial in range(8):
        n = int(rng.integers(3, 8))
        d = random_distances(rng, n, ties=(trial % 2 == 0))
        labels = random_labels(rng, n, 2)
        value, _ = exact_statistic(
            d.values, labels.codes.tolist(), 2, include_diagonal=False
        )
        naive = estimate_naive(d, labels, include_diagonal=False)
        fast = estimate_fast(build_ranks(d), labels, include_diagonal=False)
        assert abs(naive.value - float(value)) <= 1e-12
        assert abs(fast.value - float(value)) <= 1e-12
        # dropping the diagonal can only remove mass
        assert fast.value <= estimate_fast(build_ranks(d), labels).value + 1e-15


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
