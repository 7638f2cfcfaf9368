"""Property tests: malformed input files never reach the internal-error exit.

Exit 4 means a fault in the program, so every malformed CSV, result or
grid file must exit 0, 2 or 3.  The examples are derandomised, so the
suite runs the same cases every time.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_distances, random_labels
from mddtest import build_ranks, permutation_test
from mddtest.cli import main
from mddtest.fileio import grid_from_dict, result_to_dict, validate_result_dict

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


def run_test_command(tmp: Path, source: str, metric: str, data: str, labels: str, column: int):
    (tmp / "data.csv").write_text(data, encoding="utf-8")
    (tmp / "labels.csv").write_text(labels, encoding="utf-8")
    return run_cli([
        "test", source, str(tmp / "data.csv"), "--metric", metric,
        "--labels", str(tmp / "labels.csv"), "--label-column", str(column),
        "--permutations", "3", "--seed", "0", "--output", str(tmp / "r.json"),
    ])


@SETTINGS
@given(data=csv_text(MATRIX_NUMBERS), labels=csv_text(NUMBERS), column=st.integers(-1, 2))
def test_matrix_and_label_files_never_exit_4(data, labels, column):
    with tempfile.TemporaryDirectory() as tmp:
        assert run_test_command(Path(tmp), "--matrix", "euclidean", data, labels, column) in (0, 2, 3)


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
