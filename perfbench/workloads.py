"""The three benchmark workloads: their inputs, their timed operation and
the check of each operation's output.

Why these three (see README.md for the per-layer table):

* ``test_matrix`` -- what a user waits on when testing one dataset: one
  ``mddtest test --matrix`` call at the CLI's default 499 permutations.
  The MDD null loop dominates; CSV parsing is the next layer.  HHG,
  dCov, the harness and the generators are bypassed.
* ``grid_power`` -- what a user waits on when running a study: a reduced
  ``table2`` preset through ``mddtest simulate``, all three tests.  It
  is the only workload that exercises the baselines, the harness and the
  permutation draw at scale.
* ``rate_diag`` -- ``scaling_diagnostic`` on sim4 ellipse shapes: one
  rank build and one evaluation per dataset and no permutations, so work
  moved from the null loop into a per-dataset precompute shows here.

Every input comes from one of ``POOL`` recorded instances, picked by
``seed % POOL``, so that each operation's output can be checked against
a reference recorded at the seed commit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

POOL = 16
WORKLOADS = ("test_matrix", "grid_power", "rate_diag")
STAT_TOL = 1e-12


@dataclass(frozen=True)
class Sizes:
    matrix_n: int
    matrix_classes: int
    matrix_permutations: int
    grid_reps: int
    grid_permutations: int
    rate_n_grid: tuple[int, ...]
    rate_reps: int
    rate_landmarks: int
    rate_corr: float


SIZES = {
    "full": Sizes(
        matrix_n=500, matrix_classes=5, matrix_permutations=499,
        grid_reps=1, grid_permutations=99,
        rate_n_grid=(100, 200, 400, 800), rate_reps=20, rate_landmarks=50, rate_corr=0.3,
    ),
    "toy": Sizes(
        matrix_n=40, matrix_classes=5, matrix_permutations=19,
        grid_reps=1, grid_permutations=3,
        rate_n_grid=(20, 40), rate_reps=20, rate_landmarks=10, rate_corr=0.3,
    ),
}


def instance_of(seed: int) -> int:
    return seed % POOL


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= STAT_TOL * max(1.0, abs(b))


class Workload:
    """One workload bound to a size profile, an instance and a work dir.

    ``prepare`` makes the inputs (part of set-up), ``run`` is the timed
    operation and returns its raw output, ``check`` returns the names of
    the checks that output fails (empty when correct), and ``record``
    gives the output's reference entry.
    """

    def __init__(self, sizes: Sizes, instance: int, workdir: Path) -> None:
        self.sizes = sizes
        self.instance = instance
        self.workdir = workdir

    def prepare(self) -> None:
        pass


class MatrixWorkload(Workload):
    def prepare(self) -> None:
        from mddtest import ScenarioSpec, euclidean_distances, generate

        s = self.sizes
        spec = ScenarioSpec(scenario="sim1", column=3, R=s.matrix_classes, n=s.matrix_n, dim=3)
        points, labels = generate(spec, seed=self.instance)
        self.distances = euclidean_distances(points)
        self.labels = labels
        self.matrix_csv = self.workdir / "distances.csv"
        self.labels_csv = self.workdir / "labels.csv"
        self.result_json = self.workdir / "result.json"
        self.matrix_csv.write_text(
            "".join(",".join(map(repr, row)) + "\n" for row in self.distances.values.tolist()),
            encoding="utf-8",
        )
        self.labels_csv.write_text(
            "".join(f"{c}\n" for c in labels.codes.tolist()), encoding="utf-8"
        )
        self._naive = None

    def run(self):
        import mddtest.cli

        self.result_json.unlink(missing_ok=True)
        argv = [
            "test", "--matrix", str(self.matrix_csv), "--labels", str(self.labels_csv),
            "--permutations", str(self.sizes.matrix_permutations),
            "--seed", str(1000 + self.instance),
            "--output", str(self.result_json), "--format", "json",
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            code = mddtest.cli.main(argv)
        return code, self.result_json.read_text(encoding="utf-8") if code == 0 else None

    def _naive_estimate(self):
        if self._naive is None:
            from mddtest import estimate_naive

            self._naive = estimate_naive(self.distances, self.labels)
        return self._naive

    def check(self, output, reference) -> list[str]:
        code, text = output
        if code != 0:
            return [f"exit code {code}"]
        result = json.loads(text)
        naive = self._naive_estimate()
        failures = []
        if not _close(result["statistic"], naive.value):
            failures.append(
                f"statistic {result['statistic']!r} != estimate_naive {naive.value!r}"
            )
        per_class = result["per_class"] or []
        if len(per_class) != len(naive.per_class) or not all(
            _close(a, b) for a, b in zip(per_class, naive.per_class)
        ):
            failures.append(f"per_class {per_class!r} != estimate_naive {list(naive.per_class)!r}")
        if reference is None:
            failures.append("no recorded reference p_value")
        elif result["p_value"] != reference["p_value"]:
            failures.append(f"p_value {result['p_value']!r} != reference {reference['p_value']!r}")
        return failures

    def record(self, output) -> dict:
        code, text = output
        if code != 0:
            raise RuntimeError(f"test_matrix exited {code}; nothing to record")
        return {"p_value": json.loads(text)["p_value"]}


class GridWorkload(Workload):
    def prepare(self) -> None:
        self.report_json = self.workdir / "report.json"

    def run(self):
        import mddtest.cli

        self.report_json.unlink(missing_ok=True)
        argv = [
            "simulate", "--preset", "table2",
            "--reps", str(self.sizes.grid_reps),
            "--permutations", str(self.sizes.grid_permutations),
            "--seed", str(2000 + self.instance), "--threads", "1",
            "--output", str(self.report_json), "--format", "json",
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            code = mddtest.cli.main(argv)
        return code, self.report_json.read_bytes() if code == 0 else None

    def check(self, output, reference) -> list[str]:
        code, data = output
        if code != 0:
            return [f"exit code {code}"]
        digest = hashlib.sha256(data).hexdigest()
        if reference is None:
            return ["no recorded reference report_sha256"]
        if digest != reference["report_sha256"]:
            return [f"report_sha256 {digest} != reference {reference['report_sha256']}"]
        return []

    def record(self, output) -> dict:
        code, data = output
        if code != 0:
            raise RuntimeError(f"grid_power exited {code}; nothing to record")
        return {"report_sha256": hashlib.sha256(data).hexdigest()}


class RateWorkload(Workload):
    def _generator(self, n: int, seed: int):
        import mddtest.metrics
        import mddtest.simulate

        s = self.sizes
        spec = mddtest.simulate.ScenarioSpec(
            scenario="sim4", R=2, n=n, landmarks=s.rate_landmarks, corr=s.rate_corr
        )
        points, labels = mddtest.simulate.generate(spec, seed=seed)
        return mddtest.metrics.shape_distances(points), labels

    def run(self):
        import mddtest.inference

        s = self.sizes
        report = mddtest.inference.scaling_diagnostic(
            self._generator, s.rate_n_grid, reps=s.rate_reps, seed=3000 + self.instance
        )
        return [float(m) for m in report.medians]

    def check(self, output, reference) -> list[str]:
        if reference is None:
            return ["no recorded reference medians"]
        expected = reference["medians"]
        if len(output) != len(expected) or not all(
            _close(a, b) for a, b in zip(output, expected)
        ):
            return [f"medians {output!r} != reference {expected!r}"]
        return []

    def record(self, output) -> dict:
        return {"medians": output}


CLASSES = {"test_matrix": MatrixWorkload, "grid_power": GridWorkload, "rate_diag": RateWorkload}


def make(name: str, size: str, seed: int, workdir: Path) -> Workload:
    return CLASSES[name](SIZES[size], instance_of(seed), workdir)


def load_reference(path: Path, size: str, name: str, instance: int):
    """The recorded reference entry, or None when there is none."""
    refs = json.loads(path.read_text(encoding="utf-8"))
    return refs.get(size, {}).get(name, {}).get(str(instance))
