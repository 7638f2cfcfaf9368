"""Monte Carlo harness: run test batteries over grids of scenario cells.

Each (cell, replicate) pair draws its seeds from a spawn of the master
seed keyed by the cell index and replicate index, so reruns with the
same master seed are bit-identical and neither the execution order nor
the worker count can change a result.  All tests requested for a
replicate share the same data and score one batch of permuted codings.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from .errors import InvalidReps, InvalidSpec
from .estimator import MAX_EXACT_N
from .inference import NULL_KEYS, _null_pvalues
from .metrics import (
    DistanceMatrix,
    PointSet,
    euclidean_distances,
    shape_distances,
    sphere_distances,
    unit_sphere_embedding,
)
from .simulate import ScenarioSpec, draws_null, generate

KNOWN_TESTS = tuple(NULL_KEYS)
SPHERE_METRICS = ("euclidean", "geodesic")
Y_ENCODING = "discrete 0/1 metric on class codes"


@dataclass(frozen=True)
class ExperimentGrid:
    """A batch of scenario cells plus shared run settings."""

    cells: tuple[ScenarioSpec, ...]
    reps: int = 200
    permutations: int = 199
    alpha: float = 0.05
    tests: tuple[str, ...] = ("mdd",)
    seed: int = 0
    sphere_metric: str = "euclidean"
    name: str = ""

    def __post_init__(self) -> None:
        if len(self.cells) == 0:
            raise InvalidSpec("a grid needs at least one cell")
        if self.reps < 1:
            raise InvalidReps(f"replicate count must be >= 1, got {self.reps}")
        if self.permutations < 1:
            raise InvalidSpec(
                f"permutation count must be >= 1, got {self.permutations}"
            )
        if not 0.0 < self.alpha < 1.0:
            raise InvalidSpec(f"alpha must lie in (0, 1), got {self.alpha}")
        bad = [t for t in self.tests if t not in KNOWN_TESTS]
        if bad:
            raise InvalidSpec(f"unknown tests {bad}; supported: {list(KNOWN_TESTS)}")
        if len(self.tests) == 0:
            raise InvalidSpec("at least one test must be requested")
        if len(set(self.tests)) != len(self.tests):
            raise InvalidSpec(f"each test may be requested once, got {list(self.tests)}")
        for index, spec in enumerate(self.cells):
            if "mdd" in self.tests and spec.n > MAX_EXACT_N:
                raise InvalidSpec(
                    f"cell {index} has n = {spec.n}, but mdd needs n <= {MAX_EXACT_N}"
                )
            if "hhg" in self.tests and spec.n < 3:
                raise InvalidSpec(f"cell {index} has n = {spec.n}, but hhg needs n >= 3")
        if not 0 <= self.seed < 2**64:
            raise InvalidSpec(f"the master seed must lie in [0, 2**64), got {self.seed}")
        if self.sphere_metric not in SPHERE_METRICS:
            raise InvalidSpec(
                f"sphere_metric must be one of {SPHERE_METRICS}, got {self.sphere_metric!r}"
            )


def distances_for(points: PointSet, sphere_metric: str = "euclidean") -> DistanceMatrix:
    """The distances of a point set under its own metric.

    Shapes always use the shape metric.  Unit-sphere rows are measured
    along the sphere when ``sphere_metric == "geodesic"``; every other
    point set gets Euclidean distances.
    """
    if points.kind == "shape":
        return shape_distances(points)
    if points.kind == "sphere" and sphere_metric == "geodesic":
        return sphere_distances(points)
    return euclidean_distances(PointSet._from_fresh("euclidean", points.data))


def _cell_seeds(master_seed: int, cell_index: int, rep: int) -> tuple[int, int]:
    ss = np.random.SeedSequence(master_seed, spawn_key=(cell_index, rep))
    state = ss.generate_state(2, dtype=np.uint64)
    return int(state[0] & (2**63 - 1)), int(state[1] & (2**63 - 1))


def _run_replicate(args: tuple[ExperimentGrid, int, int]) -> dict[str, float]:
    grid, cell_index, rep = args
    spec = grid.cells[cell_index]
    data_seed, perm_seed = _cell_seeds(grid.seed, cell_index, rep)
    points, labels = generate(spec, seed=data_seed)
    # under the geodesic metric, coordinate tuples are directions on the sphere
    if grid.sphere_metric == "geodesic" and spec.scenario != "sim4" and spec.column == 1:
        points = unit_sphere_embedding(points)
    d = distances_for(points, grid.sphere_metric)
    return _null_pvalues(d, labels, grid.tests, grid.permutations, perm_seed)


@dataclass(frozen=True)
class CellResult:
    spec: ScenarioSpec
    reps: int
    rejections: dict[str, int]

    def frequency(self, test: str) -> float:
        return self.rejections[test] / self.reps

    def standard_error(self, test: str) -> float:
        """Binomial Monte Carlo standard error ``sqrt(f (1 - f) / reps)`` of the frequency."""
        f = self.frequency(test)
        return math.sqrt(f * (1.0 - f) / self.reps)


@dataclass
class TableReport:
    """Aggregated rejection frequencies for a grid run.

    The JSON form is deterministic for a fixed grid and master seed;
    wall-clock time is reported separately in the text rendering so
    identical runs serialise byte-identically.
    """

    cells: list[CellResult]
    config: dict
    elapsed_seconds: float = field(default=0.0, compare=False)

    def to_json_dict(self) -> dict:
        cells = []
        for cell in self.cells:
            tests = {
                t: {"rejections": cell.rejections[t], "frequency": cell.frequency(t)}
                for t in sorted(cell.rejections)
            }
            cells.append({"spec": asdict(cell.spec), "reps": cell.reps, "tests": tests})
        return {"config": self.config, "cells": cells}

    def to_text(self) -> str:
        tests = list(self.config["tests"])
        rows = [["scenario", "col", "R", "n", "dim/L", "corr", "null", "reps", *tests]]
        for cell in self.cells:
            spec = cell.spec
            shape = spec.scenario == "sim4"
            rows.append([
                spec.scenario,
                "-" if shape else str(spec.column),
                str(spec.R),
                str(spec.n),
                str(spec.landmarks if shape else spec.dim),
                f"{spec.corr:g}" if shape else "-",
                "yes" if draws_null(spec) else "no",
                str(cell.reps),
                *(f"{cell.frequency(t):.3f} ({cell.standard_error(t):.3f})" for t in tests),
            ])
        widths = [max(map(len, column)) for column in zip(*rows)]
        rows.insert(1, ["-" * w for w in widths])
        lines = ["  ".join(text.ljust(w) for text, w in zip(row, widths)) for row in rows]
        lines.append("")
        lines.append("rejection frequency (Monte Carlo standard error sqrt(f(1-f)/reps))")
        cfg = self.config
        lines.append(
            f"alpha={cfg['alpha']:g}  permutations={cfg['permutations']}  "
            f"seed={cfg['seed']}  sphere_metric={cfg['sphere_metric']}  "
            f"y_encoding={cfg['y_encoding']}"
        )
        if self.elapsed_seconds:
            lines.append(f"elapsed: {self.elapsed_seconds:.2f} s")
        return "\n".join(lines)

    def to_csv_rows(self) -> list[list[str]]:
        """Each cell's ``ScenarioSpec`` fields, ``null`` meaning that it draws
        independent data, then ``reps`` and each test's count and frequency."""
        tests = list(self.config["tests"])
        header = [f.name for f in fields(ScenarioSpec)] + ["reps"]
        rows = [header + [f"{t}_{k}" for t in tests for k in ("rejections", "frequency")]]
        for cell in self.cells:
            spec = cell.spec
            values = asdict(spec)
            values.update(corr=repr(float(spec.corr)), null=str(draws_null(spec)).lower())
            rows.append([
                *map(str, values.values()),
                str(cell.reps),
                *(v for t in tests for v in (str(cell.rejections[t]), repr(cell.frequency(t)))),
            ])
        return rows


def run_grid(grid: ExperimentGrid, threads: int = 1) -> TableReport:
    """Execute every cell of a grid and aggregate rejection frequencies.

    ``threads > 1`` fans (cell, replicate) tasks out to worker
    processes, at most one per task and per usable CPU; aggregation is by task
    index, so the thread count never changes the report.
    """
    if threads < 1:
        raise InvalidSpec(f"threads must be >= 1, got {threads}")
    start = time.perf_counter()
    tasks = [(grid, i, rep) for i in range(len(grid.cells)) for rep in range(grid.reps)]
    # the CPUs this process may run on: affinity can leave fewer than the machine has
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(threads, len(tasks), cpus or 1)
    if workers > 1:
        # imported here: multiprocessing would add to every `import mddtest`
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(tasks) // (8 * workers))
            outcomes = list(pool.map(_run_replicate, tasks, chunksize=chunk))
    else:
        outcomes = [_run_replicate(task) for task in tasks]
    rejections = [{t: 0 for t in grid.tests} for _ in grid.cells]
    for (_grid, cell_index, _rep), pvals in zip(tasks, outcomes):
        for t in grid.tests:
            rejections[cell_index][t] += pvals[t] <= grid.alpha
    cells = [
        CellResult(spec=spec, reps=grid.reps, rejections=counts)
        for spec, counts in zip(grid.cells, rejections)
    ]
    config = {f.name: getattr(grid, f.name) for f in fields(grid) if f.name != "cells"}
    config.update(tests=list(grid.tests), y_encoding=Y_ENCODING, p_value="add-one permutation")
    elapsed = time.perf_counter() - start
    return TableReport(cells=cells, config=config, elapsed_seconds=elapsed)
