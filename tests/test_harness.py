import os

import numpy as np
import pytest

from test_baselines import hhg_discrete_loop

from mddtest import (
    ExperimentGrid,
    GridCell,
    InvalidReps,
    InvalidSpec,
    LabelVector,
    PointSet,
    ScenarioSpec,
    build_ranks,
    dcov_statistic,
    discrete_label_distances,
    distances_for,
    draw_label_permutations,
    estimate_fast,
    euclidean_distances,
    generate,
    permutation_test,
    pvalue_from_null,
    run_grid,
    shape_distances,
    sphere_distances,
    unit_sphere_embedding,
)
from mddtest.fileio import dump_json
from mddtest import harness
from mddtest.harness import _cell_seeds, _run_replicate


def small_grid(**overrides):
    cells = (
        GridCell(spec=ScenarioSpec(scenario="sim2", column=3, R=2, n=16, dim=2)),
        GridCell(spec=ScenarioSpec(scenario="sim1", column=3, R=2, n=16, dim=2)),
    )
    settings = dict(
        cells=cells, reps=4, permutations=19, alpha=0.05,
        tests=("mdd", "dcov", "hhg"), seed=77,
    )
    settings.update(overrides)
    return ExperimentGrid(**settings)


def test_distances_for_dispatch():
    coords, _ = generate(
        ScenarioSpec(scenario="sim2", column=1, R=2, n=12, dim=3), seed=1
    )
    flat = distances_for(coords, "euclidean")
    assert np.array_equal(
        flat.values, euclidean_distances(PointSet.euclidean(coords.data)).values
    )
    geo = distances_for(coords, "geodesic")
    assert np.array_equal(
        geo.values, sphere_distances(unit_sphere_embedding(coords)).values
    )

    unit, _ = generate(ScenarioSpec(scenario="sim2", column=2, R=2, n=12), seed=1)
    assert np.array_equal(
        distances_for(unit, "geodesic").values, sphere_distances(unit).values
    )
    assert np.array_equal(
        distances_for(unit, "euclidean").values,
        euclidean_distances(PointSet.euclidean(unit.data)).values,
    )

    gauss, _ = generate(ScenarioSpec(scenario="sim2", column=3, R=2, n=12), seed=1)
    # geodesic only applies to spherical data; plain rows stay euclidean
    assert np.array_equal(
        distances_for(gauss, "geodesic").values, euclidean_distances(gauss).values
    )

    shapes, _ = generate(
        ScenarioSpec(scenario="sim4", R=2, n=10, landmarks=6, corr=0.1), seed=1
    )
    assert np.array_equal(
        distances_for(shapes, "euclidean").values, shape_distances(shapes).values
    )


def test_cell_seeds_are_deterministic_and_distinct():
    seen = set()
    for cell in range(3):
        for rep in range(4):
            pair = _cell_seeds(123, cell, rep)
            assert pair == _cell_seeds(123, cell, rep)
            assert all(0 <= s < 2**63 for s in pair)
            seen.add(pair)
    assert len(seen) == 12
    assert _cell_seeds(123, 0, 0) != _cell_seeds(124, 0, 0)


def test_run_grid_matches_manual_replication():
    grid = small_grid(reps=2, permutations=9)
    report = run_grid(grid)
    for cell_index, cell in enumerate(grid.cells):
        expected = {t: 0 for t in grid.tests}
        for rep in range(2):
            data_seed, perm_seed = _cell_seeds(grid.seed, cell_index, rep)
            points, labels = generate(cell.spec, seed=data_seed)
            d = distances_for(points, grid.sphere_metric)
            perms = draw_label_permutations(d.n, grid.permutations, perm_seed)
            ranks = build_ranks(d)

            def relabeled(codes):
                return LabelVector.from_codes(codes, labels.num_classes)

            stats = {
                "mdd": lambda codes: estimate_fast(ranks, relabeled(codes)).value,
                "dcov": lambda codes: dcov_statistic(
                    d, discrete_label_distances(relabeled(codes))
                ),
                "hhg": lambda codes: hhg_discrete_loop(ranks, codes, labels.counts),
            }
            pvals = _run_replicate((grid, cell_index, rep))[2]
            assert set(pvals) == set(grid.tests)
            for test, stat in stats.items():
                observed = stat(labels.codes)
                null = np.array([stat(labels.codes[p]) for p in perms])
                oracle = pvalue_from_null(observed, null)
                assert pvals[test] == oracle, (cell_index, rep, test)
                expected[test] += oracle <= grid.alpha
            single = permutation_test(
                ranks, labels, permutations=grid.permutations, seed=perm_seed
            )
            assert single.p_value == pvals["mdd"]
        assert report.cells[cell_index].rejections == expected
        assert report.cells[cell_index].reps == 2


def test_dcov_pvalue_matches_the_loop_oracle_on_balanced_small_samples():
    # two points per class: relabelled copies of the observed partition are
    # ties, and the class forms must sum to the same bits for each of them
    perms = draw_label_permutations(6, 99, seed=1)
    for seed in range(40):
        rng = np.random.default_rng(seed)
        d = euclidean_distances(PointSet.euclidean(rng.standard_normal((6, 2))))
        codes = np.array([0, 0, 1, 1, 2, 2])
        rng.shuffle(codes)

        def stat(c):
            return dcov_statistic(d, discrete_label_distances(LabelVector.from_codes(c, 3)))

        oracle = pvalue_from_null(stat(codes), np.array([stat(codes[p]) for p in perms]))
        labels = LabelVector.from_codes(codes)
        assert harness._replicate_pvalues(d, labels, ("dcov",), 99, 1)["dcov"] == oracle, seed


def test_run_grid_is_deterministic_and_thread_invariant():
    grid = small_grid(reps=3, permutations=9)
    a = run_grid(grid, threads=1)
    b = run_grid(grid, threads=1)
    c = run_grid(grid, threads=2)
    assert dump_json(a.to_json_dict()) == dump_json(b.to_json_dict())
    assert dump_json(a.to_json_dict()) == dump_json(c.to_json_dict())


def test_run_grid_report_contents():
    grid = small_grid(reps=2, permutations=9, tests=("mdd",), name="tiny")
    report = run_grid(grid)
    payload = report.to_json_dict()
    assert "elapsed" not in dump_json(payload)
    assert payload["config"]["name"] == "tiny"
    assert payload["config"]["tests"] == ["mdd"]
    assert payload["config"]["permutations"] == 9
    assert payload["config"]["seed"] == 77
    assert payload["config"]["y_encoding"].startswith("discrete")
    assert len(payload["cells"]) == 2
    for cell in payload["cells"]:
        tests = cell["tests"]["mdd"]
        assert 0 <= tests["rejections"] <= cell["reps"] == 2
        assert tests["frequency"] == tests["rejections"] / 2
    # the second cell is an independence scenario and must say so
    assert payload["cells"][1]["spec"]["scenario"] == "sim1"

    text = report.to_text()
    assert "scenario" in text and "mdd" in text
    assert len(text.splitlines()) >= 4

    rows = report.to_csv_rows()
    assert rows[0] == [
        "scenario", "column", "R", "n", "dim", "landmarks", "corr", "null",
        "reps", "mdd_rejections", "mdd_frequency",
    ]
    assert len(rows) == 3
    for row in rows[1:]:
        assert float(row[10]) == int(row[9]) / 2
    assert rows[2][7] == "true"  # sim1 rows are always null


def test_run_grid_per_cell_reps_override():
    cells = (
        GridCell(
            spec=ScenarioSpec(scenario="sim1", column=3, R=2, n=12, dim=2), reps=2
        ),
        GridCell(spec=ScenarioSpec(scenario="sim1", column=3, R=2, n=12, dim=2)),
    )
    grid = ExperimentGrid(cells=cells, reps=5, permutations=9, seed=7)
    report = run_grid(grid)
    assert report.cells[0].reps == 2
    assert report.cells[1].reps == 5
    assert report.cells[0].frequency("mdd") == report.cells[0].rejections["mdd"] / 2


def test_experiment_grid_validation():
    cell = GridCell(spec=ScenarioSpec(scenario="sim1", column=3, R=2, n=12, dim=2))
    with pytest.raises(InvalidSpec):
        ExperimentGrid(cells=())
    with pytest.raises(InvalidReps):
        ExperimentGrid(cells=(cell,), reps=0)
    with pytest.raises(InvalidReps):
        ExperimentGrid(cells=(GridCell(spec=cell.spec, reps=0),))
    with pytest.raises(InvalidSpec):
        ExperimentGrid(cells=(cell,), permutations=0)
    with pytest.raises(InvalidSpec):
        ExperimentGrid(cells=(cell,), alpha=0.0)
    with pytest.raises(InvalidSpec):
        ExperimentGrid(cells=(cell,), alpha=1.0)
    with pytest.raises(InvalidSpec):
        ExperimentGrid(cells=(cell,), tests=("mdd", "energy"))
    with pytest.raises(InvalidSpec):
        ExperimentGrid(cells=(cell,), tests=())
    with pytest.raises(InvalidSpec):
        ExperimentGrid(cells=(cell,), sphere_metric="chordal")


def test_run_grid_clamps_workers_to_tasks_and_cpus(monkeypatch):
    pools = []

    class RecordingPool:
        """Stands in for the process pool; runs tasks in-process."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    grid = small_grid(reps=2, permutations=9, tests=("mdd",))  # 4 tasks
    reference = dump_json(run_grid(grid).to_json_dict())
    for cpus, threads in ((8, 10**6), (3, 10**6), (8, 2), (None, 10**6)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        report = run_grid(grid, threads=threads)
        assert dump_json(report.to_json_dict()) == reference
    # min(threads, tasks, cpus); an unknown CPU count runs in-process
    assert pools == [4, 3, 2]
