"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints as a single pass/fail line under ``pytest -v`` and its
assertion message carries the measured quantity, so a red line names
the number that missed its band.  Monte Carlo bands use fixed master
seeds; a miss is evidence about the implementation, not noise to be
reseeded away.
"""

from dataclasses import replace
from fractions import Fraction

import numpy as np

from mddtest import (
    ExperimentGrid,
    GridCell,
    LabelVector,
    PointSet,
    ScenarioSpec,
    build_ranks,
    clt_diagnostic,
    estimate_fast,
    estimate_naive,
    euclidean_distances,
    generate,
    run_grid,
    scaling_diagnostic,
    shape_distances,
    sphere_distances,
)
from mddtest.fileio import dump_json, load_preset
from mddtest.metrics import DistanceMatrix
from conftest import exact_statistic, random_distances, random_labels


def frequency(report, cell_index, test):
    cell = report.cells[cell_index]
    return cell.rejections[test] / cell.reps


def power_grid(cells, reps, permutations, tests, seed):
    grid = ExperimentGrid(
        cells=tuple(GridCell(spec=s) for s in cells),
        reps=reps,
        permutations=permutations,
        tests=tests,
        seed=seed,
    )
    return run_grid(grid)


def test_accept_01_fast_engine_matches_naive_everywhere():
    rng = np.random.default_rng(11)
    kinds = ("euclidean", "ties", "sphere", "shape")
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(5, 41))
        R = int(rng.integers(2, 6))
        kind = kinds[trial % len(kinds)]
        d = random_distances(rng, n, kind="euclidean" if kind == "ties" else kind,
                             ties=kind == "ties")
        labels = random_labels(rng, n, R)
        naive = estimate_naive(d, labels)
        fast = estimate_fast(build_ranks(d), labels)
        worst = max(
            worst,
            abs(naive.value - fast.value),
            max(abs(a - b) for a, b in zip(naive.per_class, fast.per_class)),
        )
    assert worst <= 1e-12, f"largest naive/fast disagreement {worst:.3e} over 200 instances"


def test_accept_02_two_point_worked_value_is_exact():
    d = euclidean_distances(PointSet.euclidean(np.array([[0.0], [1.0]])))
    labels = LabelVector.from_codes(np.array([0, 1]), 2)
    oracle, oracle_per_class = exact_statistic(d.values.tolist(), [0, 1], 2)
    assert oracle == Fraction(1, 8)
    for est in (estimate_naive(d, labels), estimate_fast(build_ranks(d), labels)):
        assert est.value == 0.125, f"an engine gave {est.value!r}, wanted 0.125"
        assert tuple(est.per_class) == (0.0625, 0.0625)
    assert [float(f) for f in oracle_per_class] == [0.0625, 0.0625]


def test_accept_03_null_rejection_rate_is_calibrated():
    cells = [
        ScenarioSpec(scenario="sim1", column=3, R=2, n=60, dim=3),
        ScenarioSpec(scenario="sim1", column=3, R=2, n=120, dim=3),
    ]
    report = power_grid(cells, reps=200, permutations=199, tests=("mdd",), seed=301)
    sizes = [frequency(report, i, "mdd") for i in range(2)]
    assert all(0.013 <= s <= 0.100 for s in sizes), (
        f"null rejection rates {sizes} left the band [0.013, 0.100] at level 0.05"
    )


def test_accept_04_gaussian_shift_power_grows_with_n():
    cells = [
        ScenarioSpec(scenario="sim2", column=3, R=2, n=120, dim=3),
        ScenarioSpec(scenario="sim2", column=3, R=2, n=160, dim=3),
    ]
    report = power_grid(cells, reps=100, permutations=199, tests=("mdd",), seed=401)
    p120 = frequency(report, 0, "mdd")
    p160 = frequency(report, 1, "mdd")
    assert p120 >= 0.90 and p160 >= 0.95, (
        f"Gaussian-shift power was {p120:.3f} at n=120 (needs >= 0.90) and "
        f"{p160:.3f} at n=160 (needs >= 0.95)"
    )


def test_accept_05_five_class_sphere_power_beats_distance_covariance():
    """MDD holds its power on heavy-tailed sphere data and beats dCov there.

    The cell splits the circle into five equal angle windows and adds one
    t(1) (Cauchy) draw per observation, so it carries heavy-tailed noise.
    MDD must reject on at least 95% of the replicates, and on the same
    replicates it must reject strictly more often than distance
    covariance.  No absolute ceiling is set on dCov power: the paper's
    robustness claim bounds no baseline's power, and a dCov verified against
    its loop oracle measures 0.880 +- 0.016 on this cell (400 replicates
    at master seed 7, where MDD measured 1.000).
    """
    cells = [ScenarioSpec(scenario="sim2", column=1, R=5, n=80, dim=3)]
    report = power_grid(
        cells, reps=50, permutations=199, tests=("mdd", "dcov"), seed=501
    )
    rejections = report.cells[0].rejections
    mdd_power = frequency(report, 0, "mdd")
    dcov_power = frequency(report, 0, "dcov")
    assert mdd_power >= 0.95 and rejections["mdd"] > rejections["dcov"], (
        f"five-class sphere cell: mdd power {mdd_power:.3f} (needs >= 0.95), "
        f"dcov power {dcov_power:.3f} (needs to be below mdd's) on the same "
        f"replicates"
    )


def test_accept_06_shape_scenario_size_and_power():
    cells = [
        ScenarioSpec(scenario="sim4", n=60, landmarks=50, corr=0.0),
        ScenarioSpec(scenario="sim4", n=60, landmarks=50, corr=0.2),
    ]
    report = power_grid(cells, reps=50, permutations=199, tests=("mdd",), seed=601)
    size = frequency(report, 0, "mdd")
    power = frequency(report, 1, "mdd")
    assert size <= 0.14 and power >= 0.95, (
        f"shape cells: corr=0 rejected at {size:.3f} (needs <= 0.14), "
        f"corr=0.2 at {power:.3f} (needs >= 0.95)"
    )


def _gaussian_pair(null):
    def pair(n, seed):
        spec = ScenarioSpec(
            scenario="sim1" if null else "sim2", column=3, R=2, n=n, dim=3
        )
        points, labels = generate(spec, seed=seed)
        return euclidean_distances(points), labels

    return pair


def test_accept_07_scaled_statistic_grows_only_under_dependence():
    signal = scaling_diagnostic(_gaussian_pair(False), (50, 100, 200), reps=50, seed=0)
    noise = scaling_diagnostic(_gaussian_pair(True), (50, 100, 200), reps=50, seed=0)
    assert signal.strictly_increasing, (
        f"medians of n * statistic were {signal.medians} under dependence; "
        "they should increase strictly"
    )
    assert noise.max_min_ratio <= 2.0, (
        f"null medians {noise.medians} spread by {noise.max_min_ratio:.3f}x, "
        "more than the allowed factor 2"
    )


def test_accept_08_variance_halves_from_n_to_2n_under_dependence():
    report = clt_diagnostic(_gaussian_pair(False), n=100, reps=200, seed=0)
    assert not report.h0_like
    assert 1.4 <= report.variance_ratio <= 2.8, (
        f"var(n)/var(2n) was {report.variance_ratio:.3f}, outside [1.4, 2.8]"
    )


def test_accept_09_statistic_respects_the_advertised_invariances():
    rng = np.random.default_rng(17)
    d = random_distances(rng, 25)
    labels = random_labels(rng, 25, 3)
    base = estimate_fast(build_ranks(d), labels).value

    # strictly increasing distance transforms leave every rank alone
    squared = DistanceMatrix(np.square(d.values))
    assert estimate_fast(build_ranks(squared), labels).value == base

    # relabeling observations jointly only reorders the sums
    perm = rng.permutation(25)
    d_perm = DistanceMatrix(d.values[np.ix_(perm, perm)])
    relabeled = LabelVector.from_codes(labels.codes[perm], labels.num_classes)
    moved = estimate_fast(build_ranks(d_perm), relabeled).value
    assert abs(moved - base) <= 1e-12, f"joint relabeling moved the value by {moved - base:.3e}"

    # rotating sphere data leaves geodesic distances, hence the value
    raw = rng.standard_normal((20, 3))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    sph_labels = random_labels(rng, 20, 2)
    rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    before = estimate_fast(
        build_ranks(sphere_distances(PointSet.sphere(raw))), sph_labels
    ).value
    after = estimate_fast(
        build_ranks(sphere_distances(PointSet.sphere(raw @ rot.T))), sph_labels
    ).value
    assert abs(after - before) <= 1e-9, f"sphere rotation moved the value by {after - before:.3e}"

    # similarity transforms of planar configurations leave shape distances
    confs = rng.standard_normal((15, 5, 2))
    shp_labels = random_labels(rng, 15, 2)
    before = estimate_fast(
        build_ranks(shape_distances(PointSet.shape(confs))), shp_labels
    ).value
    angle = 0.83
    rot2 = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    moved_confs = 2.5 * confs @ rot2.T + np.array([4.0, -1.0])
    after = estimate_fast(
        build_ranks(shape_distances(PointSet.shape(moved_confs))), shp_labels
    ).value
    assert abs(after - before) <= 1e-9, f"similarity transform moved the value by {after - before:.3e}"


def test_accept_10_study_grids_reproduce_byte_identically():
    full = load_preset("table1")
    reduced = replace(
        full,
        reps=1,
        permutations=49,
        cells=tuple(GridCell(spec=c.spec) for c in full.cells),
    )
    first = dump_json(run_grid(reduced).to_json_dict())
    again = dump_json(run_grid(reduced).to_json_dict())
    threaded = dump_json(run_grid(reduced, threads=2).to_json_dict())
    assert first == again, "rerunning the reduced study grid changed the report"
    assert first == threaded, "running on 2 threads changed the report"

    one_cell = replace(full, cells=(full.cells[0],), reps=2, permutations=499)
    assert dump_json(run_grid(one_cell).to_json_dict()) == dump_json(
        run_grid(one_cell).to_json_dict()
    ), "a full-scale cell was not reproducible at fixed seed"
