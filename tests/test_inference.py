import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import exact_statistic, random_distances, random_labels

from mddtest import (
    DegenerateLabelsWarning,
    InvalidB,
    InvalidReps,
    InvalidSpec,
    LabelVector,
    OutOfRangePValue,
    PointSet,
    RankStructure,
    ScenarioSpec,
    bh_adjust,
    build_ranks,
    clt_diagnostic,
    draw_label_permutations,
    estimate_fast,
    euclidean_distances,
    fresh_seed,
    generate,
    permutation_test,
    pvalue_from_null,
    scaling_diagnostic,
)
from mddtest import cli, inference
from mddtest.estimator import MAX_EXACT_N
from mddtest.inference import (
    MIN_CLT_REPS,
    MIN_SCALING_REPS,
    NULL_KEYS,
    _null_pvalues,
    _substream,
)


def test_pvalue_from_null_worked_example():
    null = np.array([1.0, 2.0, 3.0, 4.0])
    assert pvalue_from_null(2.5, null) == 0.6
    assert pvalue_from_null(5.0, null) == 0.2
    assert pvalue_from_null(0.0, null) == 1.0
    # ties on the observed value count toward the numerator
    assert pvalue_from_null(4.0, null) == 0.4
    with pytest.raises(InvalidB):
        pvalue_from_null(1.0, np.array([]))


def test_single_class_labels_warn_and_p_is_one():
    rng = np.random.default_rng(0)
    d = random_distances(rng, 8)
    labels = LabelVector.from_codes(np.zeros(8, dtype=np.int64))
    with pytest.warns(DegenerateLabelsWarning):
        result = permutation_test(build_ranks(d), labels, permutations=19, seed=1)
    assert result.statistic == 0.0
    assert result.p_value == 1.0


def test_permutation_test_reports_and_determinism():
    rng = np.random.default_rng(5)
    d = random_distances(rng, 20)
    labels = random_labels(rng, 20, 3)
    ranks = build_ranks(d)
    a = permutation_test(ranks, labels, permutations=99, seed=42)
    b = permutation_test(ranks, labels, permutations=99, seed=42)
    assert a.statistic == estimate_fast(ranks, labels).value
    assert a.scaled == 20 * a.statistic
    assert a.per_class == estimate_fast(ranks, labels).per_class
    assert a.permutations == 99 and a.seed == 42
    assert a.n == 20 and a.num_classes == 3 and a.method == "permutation"
    assert 1.0 / 100.0 <= a.p_value <= 1.0
    assert a.p_value == b.p_value


def test_permutation_rows_extend_with_the_count():
    five = draw_label_permutations(12, 5, seed=7)
    ten = draw_label_permutations(12, 10, seed=7)
    # replicate b depends on the seed and b alone, not on the total count
    assert np.array_equal(five, ten[:5])
    for row in ten:
        assert np.array_equal(np.sort(row), np.arange(12))
    with pytest.raises(InvalidB):
        draw_label_permutations(12, 0, seed=7)


def test_permutation_rows_are_the_substream_permutations():
    # the streams are part of every recorded p-value and acceptance band
    for seed in (0, 7, 2**63 - 1):
        for n, permutations in ((1, 3), (6, 40), (40, 9)):
            rows = draw_label_permutations(n, permutations, seed)
            assert rows.shape == (permutations, n)
            for b, row in enumerate(rows):
                assert np.array_equal(row, _substream(seed, b).permutation(n))


def exact_pvalue(d, labels, permutations, seed):
    """The add-one p-value with every statistic from the Fraction oracle."""
    r = labels.num_classes
    observed = exact_statistic(d.values, labels.codes.tolist(), r)[0]
    hits = sum(
        exact_statistic(d.values, labels.codes[p].tolist(), r)[0] >= observed
        for p in draw_label_permutations(labels.n, permutations, seed)
    )
    return (1 + hits) / (permutations + 1)


@pytest.mark.parametrize("seed", (17, 30, 37))
def test_balanced_small_sample_pvalue_counts_exact_ties(seed):
    # with two points per class many permutations reproduce the observed
    # partition up to class names, and each is a tie with the observed value
    rng = np.random.default_rng(seed)
    d = euclidean_distances(PointSet.euclidean(rng.standard_normal((6, 2))))
    codes = np.array([0, 0, 1, 1, 2, 2])
    rng.shuffle(codes)
    labels = LabelVector.from_codes(codes)
    result = permutation_test(build_ranks(d), labels, permutations=99, seed=1)
    assert result.p_value == exact_pvalue(d, labels, 99, 1)


def test_tie_heavy_grid_pvalues_match_the_exact_oracle():
    for seed in range(10, 14):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 12))
        r = int(rng.integers(2, 4))
        d = random_distances(rng, n, ties=True)
        labels = random_labels(rng, n, r)
        result = permutation_test(build_ranks(d), labels, permutations=29, seed=seed)
        assert result.p_value == exact_pvalue(d, labels, 29, seed), seed


@pytest.mark.parametrize("ties", [False, True])
def test_each_null_pvalue_is_the_same_alone_or_beside_the_others(ties):
    rng = np.random.default_rng(31 + ties)
    everything = tuple(NULL_KEYS)
    for trial in range(4):
        n = int(rng.integers(6, 30))
        d = random_distances(rng, n, ties=ties)
        labels = random_labels(rng, n, 2 + trial % 3)
        together = _null_pvalues(d, labels, everything, 49, trial)
        assert list(together) == list(everything)
        assert _null_pvalues(d, labels, everything[::-1], 49, trial) == together
        for test in everything:
            assert _null_pvalues(d, labels, (test,), 49, trial) == {test: together[test]}
        assert together["mdd"] == permutation_test(
            build_ranks(d), labels, 49, seed=trial
        ).p_value


def test_a_dcov_only_null_builds_no_rank_arrays(monkeypatch):
    def refused(d):
        raise AssertionError("rank arrays built")

    rng = np.random.default_rng(5)
    d = random_distances(rng, 12)
    labels = random_labels(rng, 12, 3)
    expected = _null_pvalues(d, labels, ("dcov",), 19, 2)
    monkeypatch.setattr(inference, "build_ranks", refused)
    assert _null_pvalues(d, labels, ("dcov",), 19, 2) == expected
    for test in ("mdd", "hhg"):
        with pytest.raises(AssertionError, match="rank arrays built"):
            _null_pvalues(d, labels, ("dcov", test), 19, 2)


def test_sample_above_the_exact_bound_exits_2_without_a_kernel(tmp_path, monkeypatch, capsys):
    n = MAX_EXACT_N + 1
    stand_in = RankStructure(order=None, sorted_counts=None, n=n)
    monkeypatch.setattr(cli, "load_precomputed", lambda values: SimpleNamespace(n=n))
    monkeypatch.setattr(cli.fileio, "load_numeric_csv", lambda path: None)
    monkeypatch.setattr(cli, "build_ranks", lambda d: stand_in)
    labels_csv = tmp_path / "labels.csv"
    labels_csv.write_text("".join(f"{i % 2}\n" for i in range(n)), encoding="utf-8")
    tracemalloc.start()
    try:
        code = cli.main([
            "test", "--matrix", "unused.csv", "--labels", str(labels_csv),
            "--permutations", "9", "--seed", "0", "--output", str(tmp_path / "r.json"),
        ])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert f"n <= {MAX_EXACT_N}" in capsys.readouterr().err
    # an n x n array of single bytes would be eight times this bound
    assert peak < n * n // 8


def test_permutation_pvalues_are_superuniform_under_independence():
    rng = np.random.default_rng(12)
    hits = 0
    reps = 500
    for rep in range(reps):
        d = random_distances(rng, 12)
        labels = random_labels(rng, 12, 2)
        result = permutation_test(
            build_ranks(d), labels, permutations=19, seed=int(rng.integers(2**62))
        )
        if result.p_value <= 0.05:
            hits += 1
    # true rate is at most 0.05; 0.08 sits three sigmas above it
    assert hits / reps <= 0.08


def test_bh_adjust_worked_examples():
    adj = bh_adjust([0.01, 0.02, 0.03, 0.04])
    assert np.allclose(adj, 0.04, atol=1e-12)
    assert np.array_equal(bh_adjust([1.0, 1.0]), [1.0, 1.0])
    assert bh_adjust([0.2]) == [0.2]
    spread = bh_adjust([0.001, 0.02, 0.9])
    assert np.allclose(spread, [0.003, 0.03, 0.9], atol=1e-12)


def test_bh_adjust_properties():
    rng = np.random.default_rng(13)
    raw = rng.uniform(size=40)
    adj = bh_adjust(raw)
    assert np.all(adj >= raw - 1e-15)
    assert np.all(adj <= 1.0)
    # adjustment never reorders evidence
    order = np.argsort(raw)
    assert np.all(np.diff(adj[order]) >= -1e-15)
    p = rng.permutation(40)
    assert np.array_equal(bh_adjust(raw[p]), adj[p])


def test_bh_adjust_matches_step_up_decisions():
    rng = np.random.default_rng(17)
    for level in (0.05, 0.1, 0.25):
        raw = rng.uniform(size=25) ** 2
        adj = bh_adjust(raw)
        order = np.argsort(raw)
        m = raw.size
        passing = [
            k for k in range(1, m + 1) if raw[order[k - 1]] <= level * k / m
        ]
        cutoff = max(passing) if passing else 0
        rejected = np.zeros(m, dtype=bool)
        rejected[order[:cutoff]] = True
        assert np.array_equal(adj <= level, rejected)


def test_bh_adjust_rejects_bad_input():
    for bad in ([], [1.2], [-0.1], [np.nan]):
        with pytest.raises(OutOfRangePValue):
            bh_adjust(bad)


def gaussian_pair(n, seed, gap=1.0):
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 2, size=n)
    while np.bincount(codes, minlength=2).min() == 0:
        codes = rng.integers(0, 2, size=n)
    pts = rng.standard_normal((n, 2)) + gap * codes[:, None]
    return euclidean_distances(PointSet.euclidean(pts)), LabelVector.from_codes(codes)


def test_scaling_diagnostic_shape_and_validation():
    report = scaling_diagnostic(gaussian_pair, n_grid=(16, 32), reps=20, seed=1)
    assert report.n_grid == (16, 32)
    assert len(report.medians) == 2
    assert all(m > 0 for m in report.medians)
    assert report.reps == 20
    assert report.strictly_increasing in (True, False)
    assert report.max_min_ratio >= 1.0
    single = scaling_diagnostic(gaussian_pair, n_grid=(16,), reps=20, seed=1)
    assert single.strictly_increasing is None and single.max_min_ratio is None
    with pytest.raises(InvalidReps):
        scaling_diagnostic(gaussian_pair, n_grid=(16, 32), reps=19)
    with pytest.raises(InvalidReps):
        scaling_diagnostic(gaussian_pair, n_grid=(), reps=20)


def test_scaling_diagnostic_is_deterministic():
    a = scaling_diagnostic(gaussian_pair, n_grid=(16, 24), reps=20, seed=5)
    b = scaling_diagnostic(gaussian_pair, n_grid=(16, 24), reps=20, seed=5)
    assert a == b


def mostly_degenerate_pair(n, seed):
    # all-equal points give a zero statistic, so over many replicates the
    # mean lands within a few standard errors of zero and trips the flag
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 2, size=n)
    while np.bincount(codes, minlength=2).min() == 0:
        codes = rng.integers(0, 2, size=n)
    if rng.random() < 0.97:
        pts = np.zeros((n, 2))
    else:
        pts = rng.standard_normal((n, 2))
    return euclidean_distances(PointSet.euclidean(pts)), LabelVector.from_codes(codes)


def test_clt_diagnostic_flags_signal_and_null():
    strong = clt_diagnostic(lambda n, s: gaussian_pair(n, s, gap=2.0), n=24, reps=100, seed=2)
    assert strong.n == 24 and strong.reps == 100
    assert not strong.h0_like
    assert strong.variance_ratio > 0
    assert strong.mean_estimate > 0
    # independent labels put the estimator in its 1/n regime, so the
    # variance ratio rises toward 4 and leaves the root-n band; the mean
    # stays a positive bias term, many standard errors above zero
    null = clt_diagnostic(lambda n, s: gaussian_pair(n, s, gap=0.0), n=24, reps=100, seed=2)
    assert not null.h0_like
    assert null.variance_ratio > 2.8
    degenerate = clt_diagnostic(mostly_degenerate_pair, n=10, reps=100, seed=2)
    assert degenerate.h0_like
    assert "not applicable" in degenerate.note
    with pytest.raises(InvalidReps):
        clt_diagnostic(gaussian_pair, n=24, reps=99)


def test_fresh_seed_range_and_variability():
    seeds = {fresh_seed() for _ in range(8)}
    assert all(0 <= s < 2**63 for s in seeds)
    assert len(seeds) > 1


def test_invalid_permutation_count():
    rng = np.random.default_rng(21)
    d = random_distances(rng, 6)
    labels = random_labels(rng, 6, 2)
    for permutations in (0, -3):
        with pytest.raises(InvalidB):
            permutation_test(build_ranks(d), labels, permutations=permutations, seed=1)


def test_seeds_outside_64_bits_are_rejected():
    rng = np.random.default_rng(22)
    ranks = build_ranks(random_distances(rng, 8))
    labels = random_labels(rng, 8, 2)
    # without the check -1 and 2**64 - 1 would key the same generator
    for seed in (-1, 2**64, -(2**64)):
        with pytest.raises(InvalidSpec):
            permutation_test(ranks, labels, permutations=9, seed=seed)
        with pytest.raises(InvalidSpec):
            draw_label_permutations(8, 9, seed)
    for seed in (0, 2**64 - 1):
        assert permutation_test(ranks, labels, permutations=9, seed=seed).seed == seed
    assert not np.array_equal(
        draw_label_permutations(8, 9, 0), draw_label_permutations(8, 9, 2**64 - 1)
    )
    # data generation and the diagnostics key their substreams on the seed too
    spec = ScenarioSpec(scenario="sim1", column=1, R=2, n=8, dim=3)
    for call in (
        lambda seed: generate(spec, seed=seed),
        lambda seed: scaling_diagnostic(gaussian_pair, (8,), MIN_SCALING_REPS, seed),
        lambda seed: clt_diagnostic(gaussian_pair, 8, MIN_CLT_REPS, seed),
    ):
        for seed in (-1, 2**64):
            with pytest.raises(InvalidSpec):
                call(seed)
        call(2**64 - 1)
