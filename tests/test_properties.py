"""Property tests: malformed input files never reach the internal-error exit.

Exit 4 means a fault in the program, so every malformed CSV, result or
grid file must exit 0, 2 or 3.  A precomputed matrix is also checked
against a reference of the documented checks.  The examples are
derandomised, so the suite runs the same cases every time.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_distances, random_labels
from mddtest import (
    AsymmetricMatrix,
    MetricError,
    NegativeDistance,
    NonFiniteEntry,
    NonzeroDiagonal,
    build_ranks,
    load_precomputed,
    permutation_test,
)
from mddtest.cli import main
from mddtest.fileio import grid_from_dict, result_to_dict, validate_result_dict
from mddtest.metrics import DIAGONAL_TOL, SYMMETRY_TOL

SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=100)
# single-class label files are valid input and warn by design
pytestmark = pytest.mark.filterwarnings("ignore::mddtest.DegenerateLabelsWarning")

NUMBERS = ("0", "1", "2", "0.5", " 3 ", "-1", "1e-9", "nan", "inf", "1_0")
POINT_NUMBERS = NUMBERS + ("1e308", "-1e308", "1.7e308")
MATRIX_NUMBERS = NUMBERS + ("1e308", "1.7e308", "4.9e-324")
WORDS = ("", " ", "x", "a b", "#", "1e", "--", '"q"', "0x1")


def csv_text(numbers):
    field = st.sampled_from(numbers + WORDS)
    row = st.lists(field, min_size=0, max_size=4).map(",".join)
    lines = st.lists(row, min_size=0, max_size=6).map("\n".join)
    return st.one_of(lines, st.text(max_size=30))


def run_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def run_test_command(tmp: Path, source: str, metric: str | None, data: str, labels: str, column: int):
    (tmp / "data.csv").write_text(data, encoding="utf-8")
    (tmp / "labels.csv").write_text(labels, encoding="utf-8")
    return run_cli([
        "test", source, str(tmp / "data.csv"), *(("--metric", metric) if metric else ()),
        "--labels", str(tmp / "labels.csv"), "--label-column", str(column),
        "--permutations", "3", "--seed", "0", "--output", str(tmp / "r.json"),
    ])


@SETTINGS
@given(data=csv_text(MATRIX_NUMBERS), labels=csv_text(NUMBERS), column=st.integers(-1, 2))
def test_matrix_and_label_files_never_exit_4(data, labels, column):
    with tempfile.TemporaryDirectory() as tmp:
        assert run_test_command(Path(tmp), "--matrix", None, data, labels, column) in (0, 2, 3)


@st.composite
def matched_point_files(draw, numbers):
    """A rectangular table of numbers and a label file of the same length,
    so the example reaches the distance step."""
    n = draw(st.integers(2, 5))
    width = draw(st.sampled_from((1, 3, 6)))
    field = st.sampled_from(numbers)
    rows = [",".join(draw(st.lists(field, min_size=width, max_size=width))) for _ in range(n)]
    labels = draw(st.lists(st.sampled_from(("0", "1")), min_size=n, max_size=n))
    return "\n".join(rows), "\n".join(labels)


@SETTINGS
@given(
    files=st.tuples(csv_text(POINT_NUMBERS), csv_text(NUMBERS))
    | matched_point_files(POINT_NUMBERS),
    metric=st.sampled_from(("euclidean", "sphere", "shape")),
)
def test_point_files_never_exit_4(files, metric):
    data, labels = files
    with tempfile.TemporaryDirectory() as tmp:
        assert run_test_command(Path(tmp), "--points", metric, data, labels, 0) in (0, 2, 3)


@SETTINGS
@given(
    data=csv_text(NUMBERS),
    column=st.integers(-1, 3),
    header=st.sampled_from(("auto", "yes", "no")),
)
def test_adjust_csv_never_exits_4(data, column, header):
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "p.csv"
        source.write_text(data, encoding="utf-8")
        argv = ["adjust", "--input", str(source), "--column", str(column), "--header", header]
        assert run_cli(argv) in (0, 2)


def small_result(seed: int, n: int, r: int, permutations: int) -> dict:
    rng = np.random.default_rng(seed)
    d = random_distances(rng, n, ties=seed % 2 == 0)
    labels = random_labels(rng, n, min(r, n))
    return result_to_dict(permutation_test(build_ranks(d), labels, permutations, seed))


RESULTS = st.builds(
    small_result,
    seed=st.integers(0, 2**32),
    n=st.integers(2, 12),
    r=st.integers(1, 4),
    permutations=st.integers(1, 9),
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=5,
)


@SETTINGS
@given(result=RESULTS)
def test_every_serialised_result_is_valid(result):
    validate_result_dict(result)
    validate_result_dict(json.loads(json.dumps(result)))


@SETTINGS
@given(
    result=RESULTS,
    key=st.sampled_from(("schema_version", "statistic", "scaled", "n", "R", "p_value",
                         "permutations", "seed", "method", "per_class", "extra")),
    action=st.sampled_from(("delete", "replace", "whole")),
    value=JSON_VALUES,
)
def test_adjust_on_malformed_results_never_exits_4(result, key, action, value):
    if action == "delete":
        result.pop(key, None)
    elif action == "replace":
        result[key] = value
    else:
        result = value
    try:
        validate_result_dict(result)
        valid = True
    except ValueError:
        valid = False
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "r.json").write_text(json.dumps(result), encoding="utf-8")
        assert run_cli(["adjust", "--input", tmp]) == (0 if valid else 2)


MINIMAL_GRID = {"seed": 3, "reps": 1, "permutations": 3, "cells": [{"scenario": "sim2", "n": 8}]}
GRID_KEYS = ("name", "seed", "reps", "permutations", "alpha", "tests", "sphere_metric",
             "cells", "extra")
CELL_KEYS = ("scenario", "column", "R", "n", "dim", "landmarks", "corr", "null", "noise",
             "mean_gap", "kappa", "reps", "extra")
NAMES = ("sim1", "sim3", "sim4", "t1", "none", "mdd", "dcov", "hhg", "geodesic", "euclidean")
# counts stay small, so no accepted grid grows past a few milliseconds of work
GRID_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(-2.0, 2.0)
    | st.sampled_from((float("nan"), float("inf"), -float("inf")))
    | st.sampled_from(NAMES) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)


@SETTINGS
@given(
    target=st.sampled_from([("grid", k) for k in GRID_KEYS] + [("cell", k) for k in CELL_KEYS]),
    action=st.sampled_from(("delete", "replace", "whole", "latin-1")),
    value=GRID_VALUES,
)
def test_simulate_on_mutated_grids_exits_0_exactly_when_the_grid_is_accepted(
    target, action, value
):
    grid = copy.deepcopy(MINIMAL_GRID)
    level, key = target
    obj = grid if level == "grid" else grid["cells"][0]
    if action == "delete":
        obj.pop(key, None)
    elif action == "replace":
        obj[key] = value
    elif action == "whole":
        grid = value
    try:
        grid_from_dict(grid)
        valid = action != "latin-1"
    except ValueError:
        valid = False
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "grid.json")
        if action == "latin-1":
            text = json.dumps(dict(grid, name="café"), ensure_ascii=False)
            path.write_bytes(text.encode("latin-1"))
        else:
            path.write_text(json.dumps(grid), encoding="utf-8")
        assert run_cli(["simulate", "--grid", str(path)]) == (0 if valid else 2)


# the finite nonnegative entries come first; 5e-324 / 2 + 1e-323 / 2 is 5e-324,
# but (5e-324 + 1e-323) / 2 is 1e-323
ENTRIES = (
    0.0, -0.0, 1.0, 1 + 5e-10, 1e-13, 1.7e308, 5e-324, 1e-323, -1e-13, -1.0, math.nan, math.inf
)


@st.composite
def square_matrices(draw):
    """A 2x2 to 6x6 matrix: a symmetric draw of finite nonnegative entries with
    a diagonal within tolerance, then up to three entries redrawn from all of
    ``ENTRIES``, so that accepted, repaired and rejected matrices all occur."""
    n = draw(st.integers(2, 6))
    valid = st.sampled_from(ENTRIES[:8])
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = draw(st.sampled_from((0.0, -0.0, 1e-13)))
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(valid)
    index = st.integers(0, n - 1)
    for _ in range(draw(st.integers(0, 3))):
        rows[draw(index)][draw(index)] = draw(st.sampled_from(ENTRIES))
    return rows


def precomputed_reference(rows):
    """The error class of the first failing check (finite, nonnegative,
    asymmetry, diagonal), or else the bytes with each skew pair averaged
    half by half and the diagonal set to zero."""
    n = len(rows)
    pairs = [(rows[i][j], rows[j][i]) for i in range(n) for j in range(n)]
    if not all(math.isfinite(a) for a, _ in pairs):
        return NonFiniteEntry
    if any(a < 0.0 for a, _ in pairs):
        return NegativeDistance
    if any(abs(a - b) > SYMMETRY_TOL for a, b in pairs):
        return AsymmetricMatrix
    if any(abs(rows[i][i]) > DIAGONAL_TOL for i in range(n)):
        return NonzeroDiagonal
    out = [a if a == b else a / 2.0 + b / 2.0 for a, b in pairs]
    out[:: n + 1] = [0.0] * n
    return np.array(out).tobytes()


@settings(SETTINGS, max_examples=300)
@given(rows=square_matrices())
def test_load_precomputed_matches_a_reference_of_its_checks(rows):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would be an error under the suite's filter
        try:
            got = load_precomputed(np.array(rows)).values.tobytes()
        except MetricError as exc:
            got = type(exc)
    assert got == precomputed_reference(rows)
