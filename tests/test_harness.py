import concurrent.futures
import hashlib
import os
from dataclasses import replace

import numpy as np
import pytest

from conftest import dcov_statistic, discrete_label_distances, run_python
from test_baselines import hhg_discrete_loop

from mddtest import (
    CellResult,
    ExperimentGrid,
    InvalidReps,
    InvalidSpec,
    LabelVector,
    PointSet,
    ScenarioSpec,
    TableReport,
    build_ranks,
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
from mddtest import cli, harness
from mddtest.fileio import dump_json, grid_from_dict, read_preset
from mddtest.harness import _cell_seeds, _run_replicate
from mddtest.inference import _null_pvalues


def small_grid(**overrides):
    cells = (
        ScenarioSpec(scenario="sim2", column=3, R=2, n=16, dim=2),
        ScenarioSpec(scenario="sim1", column=3, R=2, n=16, dim=2),
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
    embedded = unit_sphere_embedding(coords)
    geo = distances_for(embedded, "geodesic")
    assert np.array_equal(geo.values, sphere_distances(embedded).values)

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


def test_sphere_rows_measured_as_euclidean_share_their_frozen_array(monkeypatch):
    unit, _ = generate(ScenarioSpec(scenario="sim2", column=2, R=2, n=12), seed=1)
    seen = []
    monkeypatch.setattr(harness, "euclidean_distances", seen.append)
    distances_for(unit, "euclidean")
    assert seen[0].kind == "euclidean"
    # the rows are frozen, so the Euclidean view adopts them without a copy
    assert np.shares_memory(seen[0].data, unit.data)


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
    for cell_index, spec in enumerate(grid.cells):
        expected = {t: 0 for t in grid.tests}
        for rep in range(2):
            data_seed, perm_seed = _cell_seeds(grid.seed, cell_index, rep)
            points, labels = generate(spec, seed=data_seed)
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
            pvals = _run_replicate((grid, cell_index, rep))
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
        assert _null_pvalues(d, labels, ("dcov",), 99, 1)["dcov"] == oracle, seed


# sha256 over the sorted (test, p-value) pairs of replicate 0 of every cell of
# the four presets at reps=1 and 19 permutations, recorded at 86cfccb: a change
# to any test's null key that moves a null key across the observed one shows here
PRESET_PVALUES_SHA256 = "97a57e0aa82f3ca3d0ece3be2801b3825b1a85fad832d867c25196cc32fe3eaa"


def test_preset_replicate_pvalues_keep_their_recorded_bits():
    pvalues = []
    for name in ("table1", "table2", "table3", "table4"):
        grid = replace(grid_from_dict(read_preset(name)), reps=1, permutations=19)
        assert grid.tests == ("mdd", "dcov", "hhg")
        for i in range(len(grid.cells)):
            pvalues.append(sorted(_run_replicate((grid, i, 0)).items()))
    assert len(pvalues) == 105
    assert hashlib.sha256(repr(pvalues).encode()).hexdigest() == PRESET_PVALUES_SHA256


# sha256 of `mddtest simulate --preset tableN --output tableN.json`, recorded at
# 7890eb2.  The four full presets take about 4 minutes on 2 workers, so they
# run only when MDDTEST_FULL_PRESETS is set, on one worker per usable CPU.
FULL_PRESET_SHA256 = {
    "table1": "96990b876993bea7ad47159a7d3e4161e9c36072cca0dd80eb39eb97daa29d95",
    "table2": "d72937d281f006d28f11447d7f62e7b7bf6fb117634aa611481c55e0a1abe035",
    "table3": "141e08564063999d46f015c37457d69bf5faead08b078dc50a6e645675a5026d",
    "table4": "c6cb0ebbc4650cb88b014db53f1698b0ba9b0c77d35dba96eaa70649baa32dc2",
}


@pytest.mark.skipif(
    not os.environ.get("MDDTEST_FULL_PRESETS"), reason="set MDDTEST_FULL_PRESETS=1 to run"
)
@pytest.mark.parametrize("name", sorted(FULL_PRESET_SHA256))
def test_full_preset_reports_keep_their_recorded_sha256(name, tmp_path, capsys):
    output = tmp_path / f"{name}.json"
    threads = str(os.cpu_count())
    argv = ["simulate", "--preset", name, "--output", str(output), "--threads", threads]
    assert cli.main(argv) == 0, capsys.readouterr().err
    assert hashlib.sha256(output.read_bytes()).hexdigest() == FULL_PRESET_SHA256[name]


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


def test_text_table_prints_the_monte_carlo_standard_error():
    spec = ScenarioSpec(scenario="sim2", column=1, R=2, n=40, dim=3)
    cell = CellResult(spec=spec, reps=200, rejections={"mdd": 190, "dcov": 0})
    # sqrt(0.95 * 0.05 / 200) = 0.015411...
    assert cell.standard_error("mdd") == pytest.approx(0.0154110350, abs=1e-10)
    config = {
        "tests": ["mdd", "dcov"], "alpha": 0.05, "permutations": 499, "seed": 1,
        "sphere_metric": "euclidean", "y_encoding": "discrete",
    }
    report = TableReport(cells=[cell], config=config)
    row = report.to_text().splitlines()[2].split()
    assert row[-4:] == ["0.950", "(0.015)", "0.000", "(0.000)"]
    tests = report.to_json_dict()["cells"][0]["tests"]
    assert tests == {
        "dcov": {"rejections": 0, "frequency": 0.0},
        "mdd": {"rejections": 190, "frequency": 0.95},
    }
    assert report.to_csv_rows()[1][-4:] == ["190", "0.95", "0", "0.0"]


def test_experiment_grid_validation():
    cell = ScenarioSpec(scenario="sim1", column=3, R=2, n=12, dim=2)
    with pytest.raises(InvalidSpec):
        ExperimentGrid(cells=())
    with pytest.raises(InvalidReps):
        ExperimentGrid(cells=(cell,), reps=0)
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
    # a repeated test would count each rejection once per repeat
    with pytest.raises(InvalidSpec, match="once"):
        ExperimentGrid(cells=(cell,), tests=("mdd", "mdd", "dcov"))
    # SeedSequence takes no negative master seed
    with pytest.raises(InvalidSpec, match="seed"):
        ExperimentGrid(cells=(cell,), seed=-1)
    # exact MDD keys stop at MAX_EXACT_N; the other tests have no such limit
    big = ScenarioSpec(scenario="sim2", column=3, R=2, n=9742, dim=2)
    grid = ExperimentGrid(cells=(cell, big), tests=("dcov", "hhg"))
    with pytest.raises(InvalidSpec, match="cell 1 has n = 9742"):
        replace(grid, tests=("dcov", "mdd"))
    # pairwise 2x2 tables need n >= 3; a grid must not fail after earlier cells ran
    pair = ScenarioSpec(scenario="sim1", column=3, R=1, n=2, dim=2)
    grid = ExperimentGrid(cells=(cell, pair), tests=("mdd", "dcov"))
    with pytest.raises(InvalidSpec, match="cell 1 has n = 2, but hhg needs n >= 3"):
        replace(grid, tests=("mdd", "hhg"))


def test_run_grid_refuses_fewer_than_one_thread_before_any_replicate(monkeypatch):
    def refused(task):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(harness, "_run_replicate", refused)
    for threads in (0, -1):
        with pytest.raises(InvalidSpec, match=f"threads must be >= 1, got {threads}"):
            run_grid(small_grid(), threads=threads)


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

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    grid = small_grid(reps=2, permutations=9, tests=("mdd",))  # 4 tasks
    reference = dump_json(run_grid(grid).to_json_dict())
    # the machine has 8 CPUs, but the process may run on only some of them
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    for cpus, threads in ((8, 10**6), (3, 10**6), (8, 2), (1, 4)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        report = run_grid(grid, threads=threads)
        assert dump_json(report.to_json_dict()) == reference
    # without an affinity call, an unknown CPU count runs in-process
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert dump_json(run_grid(grid, threads=10**6).to_json_dict()) == reference
    # min(threads, tasks, usable CPUs)
    assert pools == [4, 3, 2]


def test_importing_the_package_loads_no_multiprocessing():
    # the process pool is imported where run_grid starts one
    proc = run_python(
        "import sys, mddtest; print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('multiprocessing', 'secrets')))",
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
