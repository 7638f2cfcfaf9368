import csv
import json
import os
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from conftest import traced_bytes_per_entry

from mddtest import InvalidLabels, InvalidSpec, LabelVector, cli
from mddtest.cli import main
from mddtest.fileio import validate_result_dict


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


@pytest.fixture
def two_point_files(tmp_path):
    points = write(tmp_path / "points.csv", "0\n1\n")
    labels = write(tmp_path / "labels.csv", "0\n1\n")
    return points, labels


def test_test_command_worked_example(two_point_files, tmp_path, capsys):
    points, labels = two_point_files
    out = tmp_path / "result.json"
    rc = main([
        "test", "--points", points, "--labels", labels,
        "--permutations", "5", "--seed", "9", "--output", str(out),
    ])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "MDD=0.125" in stdout and "n=2" in stdout
    obj = json.loads(out.read_text(encoding="utf-8"))
    validate_result_dict(obj)
    assert obj["statistic"] == 0.125
    assert obj["per_class"] == [0.0625, 0.0625]
    # both label assignments tie the observed value, so p must be 1
    assert obj["p_value"] == 1.0
    assert obj["n"] == 2 and obj["R"] == 2
    assert obj["seed"] == 9 and obj["permutations"] == 5


def test_test_command_matrix_matches_points(two_point_files, tmp_path, capsys):
    _points, labels = two_point_files
    matrix = write(tmp_path / "matrix.csv", "0,1\n1,0\n")
    out = tmp_path / "result.json"
    rc = main([
        "test", "--matrix", matrix, "--labels", labels,
        "--permutations", "5", "--seed", "9", "--output", str(out),
    ])
    assert rc == 0
    obj = json.loads(out.read_text(encoding="utf-8"))
    assert obj["statistic"] == 0.125
    capsys.readouterr()


def test_test_command_sphere_metric(tmp_path, capsys):
    points = write(
        tmp_path / "sph.csv", "1,0,0\n0,1,0\n0,0,1\n-1,0,0\n"
    )
    labels = write(tmp_path / "lab.csv", "0\n0\n1\n1\n")
    out = tmp_path / "r.json"
    rc = main([
        "test", "--points", points, "--metric", "sphere", "--labels", labels,
        "--permutations", "9", "--seed", "1", "--output", str(out),
    ])
    assert rc == 0
    obj = json.loads(out.read_text(encoding="utf-8"))
    assert obj["n"] == 4 and obj["R"] == 2
    capsys.readouterr()


def test_test_command_shape_metric(tmp_path, capsys):
    eq = "0.0,0.0,1.0,0.0,0.5,0.8660254037844386"
    line = "0.0,0.0,1.0,0.0,2.0,0.0"
    points = write(tmp_path / "shapes.csv", f"{eq}\n{eq}\n{line}\n{line}\n")
    labels = write(tmp_path / "lab.csv", "0\n0\n1\n1\n")
    out = tmp_path / "r.json"
    rc = main([
        "test", "--points", points, "--metric", "shape", "--labels", labels,
        "--permutations", "9", "--seed", "1", "--output", str(out),
    ])
    assert rc == 0
    assert json.loads(out.read_text(encoding="utf-8"))["n"] == 4
    capsys.readouterr()


def test_test_command_string_labels_and_header(tmp_path, capsys):
    points = write(tmp_path / "p.csv", "0\n1\n2\n9\n")
    labels = write(tmp_path / "l.csv", "id,grp\n1,a\n2,a\n3,b\n4,b\n")
    out = tmp_path / "r.json"
    rc = main([
        "test", "--points", points, "--labels", labels, "--label-column", "1",
        "--label-header", "yes", "--permutations", "9", "--seed", "2",
        "--output", str(out),
    ])
    assert rc == 0
    assert json.loads(out.read_text(encoding="utf-8"))["R"] == 2
    capsys.readouterr()


def test_test_command_output_formats(two_point_files, tmp_path, capsys):
    points, labels = two_point_files
    csv_out = tmp_path / "r.csv"
    rc = main([
        "test", "--points", points, "--labels", labels, "--permutations", "5",
        "--seed", "9", "--output", str(csv_out), "--format", "csv",
    ])
    assert rc == 0
    header, row = read_csv_rows(csv_out)
    assert header[:2] == ["statistic", "scaled"]
    assert float(row[0]) == 0.125
    text_out = tmp_path / "r.txt"
    rc = main([
        "test", "--points", points, "--labels", labels, "--permutations", "5",
        "--seed", "9", "--output", str(text_out), "--format", "text",
    ])
    assert rc == 0
    assert text_out.read_text(encoding="utf-8").startswith("MDD=0.125 p=1.0 ")
    capsys.readouterr()


def test_test_command_exit_codes(tmp_path, capsys):
    labels = write(tmp_path / "l.csv", "0\n1\n")
    # unreadable input
    assert main(["test", "--points", str(tmp_path / "none.csv"), "--labels", labels]) == 2
    # metric violation in a precomputed matrix
    bad = write(tmp_path / "asym.csv", "0,1\n2,0\n")
    assert main(["test", "--matrix", bad, "--labels", labels]) == 3
    # label count disagrees with the point count
    points = write(tmp_path / "p.csv", "0\n1\n2\n")
    assert main(["test", "--points", points, "--labels", labels]) == 2
    # shape rows need an even column count of at least six
    odd = write(tmp_path / "odd.csv", "0,0,1,0,2\n0,0,1,0,3\n")
    assert main(["test", "--points", odd, "--metric", "shape", "--labels", labels]) == 2
    four = write(tmp_path / "four.csv", "0,0,1,0\n0,0,1,1\n")
    assert main(["test", "--points", four, "--metric", "shape", "--labels", labels]) == 2
    # undecodable text and a field beyond the csv module's limit
    latin = tmp_path / "latin.csv"
    latin.write_bytes(b"\xff\xfe0,1\n1,0\n")
    wide = write(tmp_path / "wide.csv", "0," + "9" * 200_000 + "\n")
    for source in (str(latin), wide):
        assert main(["test", "--matrix", source, "--labels", labels]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    # no metric applies to a precomputed matrix: refused before anything is read
    matrix, out = write(tmp_path / "m.csv", "0,1\n1,0\n"), tmp_path / "r.json"
    for metric in ("euclidean", "sphere", "shape"):
        argv = ["test", "--matrix", matrix, "--metric", metric, "--labels", labels]
        assert main(argv + ["--output", str(out)]) == 2 and not out.exists(), metric
        err = capsys.readouterr().err
        assert "--metric" in err and "--matrix" in err


def test_out_of_memory_exits_2_not_as_internal_error(
    two_point_files, tmp_path, monkeypatch, capsys
):
    points, labels = two_point_files

    def exhausted(d):
        raise MemoryError("Unable to allocate 7.45 GiB for an array")

    monkeypatch.setattr(cli, "build_ranks", exhausted)
    rc = main([
        "test", "--points", points, "--labels", labels, "--permutations", "5",
        "--seed", "1", "--output", str(tmp_path / "r.json"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: not enough memory")
    assert "internal error" not in err
    assert not (tmp_path / "r.json").exists()


def test_bad_permutation_count_or_seed_exits_2_before_reading_input(tmp_path, monkeypatch, capsys):
    def untouched(*args, **kwargs):
        raise AssertionError("input was read before the settings were checked")

    monkeypatch.setattr(cli.fileio, "load_labels_csv", untouched)
    monkeypatch.setattr(cli.fileio, "load_numeric_csv", untouched)
    monkeypatch.setattr(cli, "build_ranks", untouched)
    bad = (
        ("--permutations", "0", "permutation count"),
        ("--permutations", "-4", "permutation count"),
        ("--seed", "-1", "seed"),
        ("--seed", str(2**64), "seed"),
    )
    for flag, value, word in bad:
        rc = main([
            "test", "--matrix", "m.csv", "--labels", "l.csv", flag, value,
            "--output", str(tmp_path / "r.json"),
        ])
        assert rc == 2, (flag, value)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and word in err, err
    assert not (tmp_path / "r.json").exists()


def test_a_permutation_count_beyond_the_address_space_exits_2(two_point_files, tmp_path, capsys):
    # (B + 1) * n * 8 bytes exceed the largest intp, so no allocation is tried
    points, labels = two_point_files
    huge = str(10**18)
    out = tmp_path / "r.json"
    argv = ["test", "--points", points, "--labels", labels, "--permutations", huge, "--seed", "0"]
    assert main(argv + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"B = {huge}" in err and "n = 2" in err, err
    argv = ["simulate", "--preset", "table4", "--reps", "1", "--tests", "mdd", "--output", str(out)]
    assert main(argv + ["--permutations", huge]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"B = {huge}" in err and "n = 60" in err, err
    assert not out.exists()


def test_largest_seed_is_accepted(two_point_files, tmp_path, capsys):
    points, labels = two_point_files
    out = tmp_path / "r.json"
    rc = main([
        "test", "--points", points, "--labels", labels, "--seed", str(2**64 - 1),
        "--output", str(out),
    ])
    assert rc == 0
    assert json.loads(out.read_text(encoding="utf-8"))["seed"] == 2**64 - 1


def test_nan_labels_are_rejected(tmp_path, capsys):
    with pytest.raises(InvalidLabels):
        LabelVector.from_values(np.array([0.0, 1.0, np.nan, np.nan, 1.0, 0.0]))
    points = write(tmp_path / "p.csv", "0\n1\n2\n3\n4\n5\n")
    labels = write(tmp_path / "l.csv", "0\n1\nnan\nNaN\n1\n0\n")
    rc = main([
        "test", "--points", points, "--labels", labels, "--permutations", "5",
        "--seed", "1", "--output", str(tmp_path / "r.json"),
    ])
    assert rc == 2
    assert "NaN" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


GRID = {
    "seed": 5,
    "reps": 2,
    "permutations": 9,
    "cells": [
        {"scenario": "sim2", "column": 3, "R": 2, "n": 12, "dim": 2},
        {"scenario": "sim1", "column": 3, "R": 2, "n": 12, "dim": 2},
    ],
}


def test_simulate_is_reproducible_across_runs_and_threads(tmp_path, capsys):
    grid = write(tmp_path / "grid.json", json.dumps(GRID))
    outs = [tmp_path / f"report{i}.json" for i in range(3)]
    for out, threads in zip(outs, ("1", "1", "2")):
        rc = main(["simulate", "--grid", grid, "--threads", threads,
                   "--output", str(out)])
        assert rc == 0
    blobs = [out.read_bytes() for out in outs]
    assert blobs[0] == blobs[1] == blobs[2]
    stdout = capsys.readouterr().out
    assert "scenario" in stdout and "sim2" in stdout
    payload = json.loads(blobs[0])
    assert payload["config"]["seed"] == 5
    assert payload["config"]["tests"] == ["mdd"]
    assert len(payload["cells"]) == 2
    for cell in payload["cells"]:
        assert cell["reps"] == 2
        assert 0 <= cell["tests"]["mdd"]["rejections"] <= 2


def test_simulate_overrides(tmp_path, capsys):
    grid = write(tmp_path / "grid.json", json.dumps(GRID))
    out = tmp_path / "report.json"
    rc = main([
        "simulate", "--grid", grid, "--reps", "1", "--permutations", "19",
        "--seed", "7", "--alpha", "0.1", "--tests", "mdd,hhg",
        "--output", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    cfg = payload["config"]
    assert cfg["reps"] == 1 and cfg["permutations"] == 19
    assert cfg["seed"] == 7 and cfg["alpha"] == 0.1
    assert cfg["tests"] == ["mdd", "hhg"]
    for cell in payload["cells"]:
        assert cell["reps"] == 1
        assert set(cell["tests"]) == {"mdd", "hhg"}
    capsys.readouterr()


def test_simulate_checks_cells_only_against_the_tests_that_will_run(tmp_path, capsys):
    # hhg needs n >= 3: the flag, not the file, decides whether it runs
    pair = {"scenario": "sim1", "column": 3, "R": 1, "n": 2, "dim": 2}
    both = write(tmp_path / "both.json", json.dumps(dict(GRID, tests=["mdd", "hhg"], cells=[pair])))
    assert main(["simulate", "--grid", both, "--tests", "mdd,dcov"]) == 0
    capsys.readouterr()
    mdd = write(tmp_path / "mdd.json", json.dumps(dict(GRID, tests=["mdd"], cells=[pair])))
    assert main(["simulate", "--grid", mdd, "--tests", "hhg"]) == 2
    assert "cell 0 has n = 2, but hhg needs n >= 3" in capsys.readouterr().err


def test_simulate_csv_and_text_outputs(tmp_path, capsys):
    grid = write(tmp_path / "grid.json", json.dumps(GRID))
    csv_out = tmp_path / "report.csv"
    rc = main(["simulate", "--grid", grid, "--output", str(csv_out),
               "--format", "csv"])
    assert rc == 0
    rows = read_csv_rows(csv_out)
    assert rows[0][:4] == ["scenario", "column", "R", "n"]
    assert rows[0][-2:] == ["mdd_rejections", "mdd_frequency"]
    assert len(rows) == 3
    text_out = tmp_path / "report.txt"
    rc = main(["simulate", "--grid", grid, "--output", str(text_out),
               "--format", "text"])
    assert rc == 0
    assert "sim1" in text_out.read_text(encoding="utf-8")
    capsys.readouterr()


PINNED_TEST_OUTPUT = {
    "json": """{
  "R": 2,
  "method": "permutation",
  "n": 6,
  "p_value": 0.65,
  "per_class": [
    0.013503086419753087,
    0.01350308641975309
  ],
  "permutations": 19,
  "scaled": 0.16203703703703703,
  "schema_version": 1,
  "seed": 4,
  "statistic": 0.027006172839506175
}
""",
    "csv": (
        "statistic,scaled,n,R,p_value,permutations,seed,method,per_class_0,per_class_1\r\n"
        "0.027006172839506175,0.16203703703703703,6,2,0.65,19,4,permutation,"
        "0.013503086419753087,0.01350308641975309\r\n"
    ),
    "text": "MDD=0.027006172839506175 p=0.65 n=6 R=2 permutations=19 seed=4\n",
}

PINNED_GRID = {
    "seed": 5, "reps": 3, "permutations": 39, "alpha": 0.1, "tests": ["mdd", "dcov"],
    "cells": [{"scenario": "sim2", "column": 3, "R": 2, "n": 30, "dim": 2},
              {"scenario": "sim4", "R": 2, "n": 12, "landmarks": 4, "corr": 0.5}],
}

PINNED_SIMULATE_OUTPUT = {
    "json": """{
  "cells": [
    {
      "reps": 3,
      "spec": {
        "R": 2,
        "column": 3,
        "corr": 0.0,
        "dim": 2,
        "landmarks": 50,
        "n": 30,
        "null": false,
        "scenario": "sim2"
      },
      "tests": {
        "dcov": {
          "frequency": 0.3333333333333333,
          "rejections": 1
        },
        "mdd": {
          "frequency": 0.3333333333333333,
          "rejections": 1
        }
      }
    },
    {
      "reps": 3,
      "spec": {
        "R": 2,
        "column": 3,
        "corr": 0.5,
        "dim": 3,
        "landmarks": 4,
        "n": 12,
        "null": false,
        "scenario": "sim4"
      },
      "tests": {
        "dcov": {
          "frequency": 1.0,
          "rejections": 3
        },
        "mdd": {
          "frequency": 1.0,
          "rejections": 3
        }
      }
    }
  ],
  "config": {
    "alpha": 0.1,
    "name": "",
    "p_value": "add-one permutation",
    "permutations": 39,
    "reps": 3,
    "seed": 5,
    "sphere_metric": "euclidean",
    "tests": [
      "mdd",
      "dcov"
    ],
    "y_encoding": "discrete 0/1 metric on class codes"
  }
}
""",
    "csv": (
        "scenario,column,R,n,dim,landmarks,corr,null,reps,"
        "mdd_rejections,mdd_frequency,dcov_rejections,dcov_frequency\r\n"
        "sim2,3,2,30,2,50,0.0,false,3,1,0.3333333333333333,1,0.3333333333333333\r\n"
        "sim4,3,2,12,3,4,0.5,false,3,3,1.0,3,1.0\r\n"
    ),
    # without its "elapsed:" line, the one part of a report that is not reproducible
    "text": "".join(line + "\n" for line in (
        "scenario  col  R  n   dim/L  corr  null  reps  mdd            dcov         ",
        "--------  ---  -  --  -----  ----  ----  ----  -------------  -------------",
        "sim2      3    2  30  2      -     no    3     0.333 (0.272)  0.333 (0.272)",
        "sim4      -    2  12  4      0.5   no    3     1.000 (0.000)  1.000 (0.000)",
        "",
        "rejection frequency (Monte Carlo standard error sqrt(f(1-f)/reps))",
        "alpha=0.1  permutations=39  seed=5  sphere_metric=euclidean  "
        "y_encoding=discrete 0/1 metric on class codes",
    )),
}


# column-1 coordinate tuples are projected onto the sphere and vMF rows measured
# along it; the seed is one where the euclidean metric changes the counts of the
# first four cells
GEODESIC_GRID = {
    "seed": 9, "reps": 2, "permutations": 19, "alpha": 0.2, "tests": ["mdd", "dcov"],
    "sphere_metric": "geodesic",
    "cells": [
        {"scenario": "sim2", "column": 1, "R": 2, "n": 16},
        {"scenario": "sim3", "column": 1, "R": 2, "n": 16, "dim": 4},
        {"scenario": "sim1", "column": 1, "R": 2, "n": 16},
        {"scenario": "sim2", "column": 2, "R": 2, "n": 16},
        {"scenario": "sim1", "column": 3, "R": 2, "n": 16},
        {"scenario": "sim4", "R": 2, "n": 12, "landmarks": 4, "corr": 0.5},
    ],
}

GEODESIC_SIMULATE_OUTPUT = {
    "json": """{
  "cells": [
    {
      "reps": 2,
      "spec": {
        "R": 2,
        "column": 1,
        "corr": 0.0,
        "dim": 3,
        "landmarks": 50,
        "n": 16,
        "null": false,
        "scenario": "sim2"
      },
      "tests": {
        "dcov": {
          "frequency": 1.0,
          "rejections": 2
        },
        "mdd": {
          "frequency": 1.0,
          "rejections": 2
        }
      }
    },
    {
      "reps": 2,
      "spec": {
        "R": 2,
        "column": 1,
        "corr": 0.0,
        "dim": 4,
        "landmarks": 50,
        "n": 16,
        "null": false,
        "scenario": "sim3"
      },
      "tests": {
        "dcov": {
          "frequency": 0.0,
          "rejections": 0
        },
        "mdd": {
          "frequency": 0.5,
          "rejections": 1
        }
      }
    },
    {
      "reps": 2,
      "spec": {
        "R": 2,
        "column": 1,
        "corr": 0.0,
        "dim": 3,
        "landmarks": 50,
        "n": 16,
        "null": false,
        "scenario": "sim1"
      },
      "tests": {
        "dcov": {
          "frequency": 0.0,
          "rejections": 0
        },
        "mdd": {
          "frequency": 0.0,
          "rejections": 0
        }
      }
    },
    {
      "reps": 2,
      "spec": {
        "R": 2,
        "column": 2,
        "corr": 0.0,
        "dim": 3,
        "landmarks": 50,
        "n": 16,
        "null": false,
        "scenario": "sim2"
      },
      "tests": {
        "dcov": {
          "frequency": 0.0,
          "rejections": 0
        },
        "mdd": {
          "frequency": 0.5,
          "rejections": 1
        }
      }
    },
    {
      "reps": 2,
      "spec": {
        "R": 2,
        "column": 3,
        "corr": 0.0,
        "dim": 3,
        "landmarks": 50,
        "n": 16,
        "null": false,
        "scenario": "sim1"
      },
      "tests": {
        "dcov": {
          "frequency": 0.5,
          "rejections": 1
        },
        "mdd": {
          "frequency": 0.5,
          "rejections": 1
        }
      }
    },
    {
      "reps": 2,
      "spec": {
        "R": 2,
        "column": 3,
        "corr": 0.5,
        "dim": 3,
        "landmarks": 4,
        "n": 12,
        "null": false,
        "scenario": "sim4"
      },
      "tests": {
        "dcov": {
          "frequency": 1.0,
          "rejections": 2
        },
        "mdd": {
          "frequency": 1.0,
          "rejections": 2
        }
      }
    }
  ],
  "config": {
    "alpha": 0.2,
    "name": "",
    "p_value": "add-one permutation",
    "permutations": 19,
    "reps": 2,
    "seed": 9,
    "sphere_metric": "geodesic",
    "tests": [
      "mdd",
      "dcov"
    ],
    "y_encoding": "discrete 0/1 metric on class codes"
  }
}
""",
    "csv": (
        "scenario,column,R,n,dim,landmarks,corr,null,reps,"
        "mdd_rejections,mdd_frequency,dcov_rejections,dcov_frequency\r\n"
        "sim2,1,2,16,3,50,0.0,false,2,2,1.0,2,1.0\r\n"
        "sim3,1,2,16,4,50,0.0,false,2,1,0.5,0,0.0\r\n"
        "sim1,1,2,16,3,50,0.0,true,2,0,0.0,0,0.0\r\n"
        "sim2,2,2,16,3,50,0.0,false,2,1,0.5,0,0.0\r\n"
        "sim1,3,2,16,3,50,0.0,true,2,1,0.5,1,0.5\r\n"
        "sim4,3,2,12,3,4,0.5,false,2,2,1.0,2,1.0\r\n"
    ),
    "text": "".join(line + "\n" for line in (
        "scenario  col  R  n   dim/L  corr  null  reps  mdd            dcov         ",
        "--------  ---  -  --  -----  ----  ----  ----  -------------  -------------",
        "sim2      1    2  16  3      -     no    2     1.000 (0.000)  1.000 (0.000)",
        "sim3      1    2  16  4      -     no    2     0.500 (0.354)  0.000 (0.000)",
        "sim1      1    2  16  3      -     yes   2     0.000 (0.000)  0.000 (0.000)",
        "sim2      2    2  16  3      -     no    2     0.500 (0.354)  0.000 (0.000)",
        "sim1      3    2  16  3      -     yes   2     0.500 (0.354)  0.500 (0.354)",
        "sim4      -    2  12  4      0.5   no    2     1.000 (0.000)  1.000 (0.000)",
        "",
        "rejection frequency (Monte Carlo standard error sqrt(f(1-f)/reps))",
        "alpha=0.2  permutations=19  seed=9  sphere_metric=geodesic  "
        "y_encoding=discrete 0/1 metric on class codes",
    )),
}


def test_every_output_format_keeps_its_bytes(tmp_path, capsys):
    points = write(tmp_path / "p.csv", "0\n1\n2\n9\n10\n12\n")
    labels = write(tmp_path / "l.csv", "a\na\nb\nb\na\nb\n")
    for fmt, expected in PINNED_TEST_OUTPUT.items():
        out = tmp_path / f"result.{fmt}"
        assert main([
            "test", "--points", points, "--labels", labels, "--permutations", "19",
            "--seed", "4", "--output", str(out), "--format", fmt,
        ]) == 0
        assert out.read_bytes() == expected.encode(), fmt
    pins = ((PINNED_GRID, PINNED_SIMULATE_OUTPUT), (GEODESIC_GRID, GEODESIC_SIMULATE_OUTPUT))
    for index, (grid_obj, outputs) in enumerate(pins):
        grid = write(tmp_path / f"grid{index}.json", json.dumps(grid_obj))
        for fmt, expected in outputs.items():
            out = tmp_path / f"report.{fmt}"
            assert main(["simulate", "--grid", grid, "--output", str(out), "--format", fmt]) == 0
            lines = out.read_bytes().decode().splitlines(keepends=True)
            got = "".join(line for line in lines if not line.startswith("elapsed: "))
            assert got == expected, (index, fmt)
    capsys.readouterr()


def test_simulate_preset_listing_and_reduced_run(tmp_path, capsys):
    rc = main(["simulate", "--list-presets"])
    assert rc == 0
    assert capsys.readouterr().out.split() == ["table1", "table2", "table3", "table4"]
    out = tmp_path / "t1.json"
    rc = main([
        "simulate", "--preset", "table1", "--reps", "1", "--permutations", "9",
        "--tests", "mdd", "--output", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert len(payload["cells"]) == 30
    assert all(cell["reps"] == 1 for cell in payload["cells"])
    capsys.readouterr()


def test_simulate_error_exits(tmp_path, capsys):
    assert main(["simulate", "--preset", "table9"]) == 2
    assert main(["simulate"]) == 2
    grid = write(tmp_path / "grid.json", json.dumps(GRID))
    assert main(["simulate", "--grid", grid, "--threads", "0"]) == 2
    bad = write(tmp_path / "bad.json", "{oops")
    assert main(["simulate", "--grid", bad]) == 2
    capsys.readouterr()


def test_simulate_preset_names_only_a_bundled_preset(tmp_path, capsys):
    # a name that walks out of the presets directory must not run the grid it finds
    write(tmp_path / "outside.json", json.dumps(GRID))
    presets = resources.files("mddtest").joinpath("presets")
    name = os.path.relpath(tmp_path / "outside", str(presets))
    out = tmp_path / "report.json"
    assert main(["simulate", "--preset", name, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "unknown preset" in err and "available: table1, table2, table3, table4" in err, err
    assert not out.exists()


def test_simulate_master_seed_outside_64_bits_exits_2(capsys):
    # SeedSequence would take a wider seed, but the documented range is [0, 2**64),
    # and the grid schema states both of its ends
    for seed, message in ((2**64, f"is above {2**64 - 1}"), (-1, "is below 0")):
        argv = ["simulate", "--preset", "table4", "--reps", "1", "--permutations", "9"]
        assert main(argv + ["--seed", str(seed)]) == 2
        assert f"/seed: {seed} {message}" in capsys.readouterr().err


def test_simulate_rejects_repeated_tests_before_running(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main([
        "simulate", "--preset", "table2", "--reps", "4", "--permutations", "19",
        "--tests", "mdd,mdd,dcov", "--output", str(out),
    ])
    assert rc == 2
    assert "once" in capsys.readouterr().err
    assert not out.exists()


def test_negative_master_seed_exits_2(tmp_path, capsys):
    grid = write(tmp_path / "grid.json", json.dumps(GRID))
    assert main(["simulate", "--grid", grid, "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err
    negative = write(tmp_path / "negative.json", json.dumps(dict(GRID, seed=-5)))
    assert main(["simulate", "--grid", negative]) == 2
    assert capsys.readouterr().err.startswith("error: /seed:")


def test_output_path_that_is_a_directory_exits_2(two_point_files, tmp_path, capsys):
    points, labels = two_point_files
    assert main([
        "test", "--points", points, "--labels", labels, "--permutations", "5",
        "--seed", "1", "--output", str(tmp_path),
    ]) == 2
    grid = write(tmp_path / "grid.json", json.dumps(GRID))
    assert main(["simulate", "--grid", grid, "--output", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "internal error" not in err and err.count("error:") == 2


def test_test_output_path_is_checked_before_the_test_runs(tmp_path, capsys):
    matrix = write(tmp_path / "m.csv", "0,1,2\n1,0,1\n2,1,0\n")
    labels = write(tmp_path / "l.csv", "0\n0\n1\n")
    for output, message in ((tmp_path / "missing" / "x.json", "No such file"),
                            (tmp_path, "Is a directory")):
        assert main([
            "test", "--matrix", matrix, "--labels", labels, "--permutations", "9",
            "--seed", "1", "--output", str(output),
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err, captured


def test_an_output_path_naming_an_input_exits_2_and_keeps_the_input(tmp_path, capsys):
    grid = write(tmp_path / "grid.json", json.dumps(GRID))
    matrix = write(tmp_path / "m.csv", "0,1,2\n1,0,1\n2,1,0\n")
    points = write(tmp_path / "p.csv", "0\n1\n3\n")
    labels = write(tmp_path / "l.csv", "0\n0\n1\n")
    pvalues = write(tmp_path / "pvalues.csv", "0.5\n0.01\n")
    results = tmp_path / "results"
    results.mkdir()
    result = write(results / "r.json", "{}")
    test = ["test", "--labels", labels, "--permutations", "9", "--seed", "1"]
    cases = [
        ["simulate", "--grid", grid, "--output", grid, "--format", "csv"],
        # another spelling of the same file
        ["simulate", "--grid", grid, "--output", str(results / ".." / "grid.json")],
        [*test, "--matrix", matrix, "--output", matrix],
        [*test, "--matrix", matrix, "--output", labels],
        [*test, "--points", points, "--output", points, "--format", "text"],
        ["adjust", "--input", pvalues, "--output", pvalues],
        ["adjust", "--input", str(results), "--output", result],
    ]
    inputs = (grid, matrix, points, labels, pvalues, result)
    kept = {path: Path(path).read_bytes() for path in inputs}
    for argv in cases:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "is the input file" in captured.err, argv
        assert {path: Path(path).read_bytes() for path in inputs} == kept, argv
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "grid.json", "l.csv", "m.csv", "p.csv", "pvalues.csv", "results"
    ]


def test_simulate_rejects_unrunnable_grids_before_any_replicate(tmp_path, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("run_grid was called")

    monkeypatch.setattr(cli, "run_grid", no_run)
    kappa = {"scenario": "sim2", "column": 2, "n": 10, "kappa": 1.0}
    cases = (
        (dict(GRID, cells=[kappa]), [], "error: /cells/0/kappa: unknown field"),
        (dict(GRID, cells=[{"scenario": "sim2", "n": 10**20}]), [], "error: /cells/0/n:"),
        (dict(GRID, cells=[{"scenario": "sim2", "n": 9742}]), [], "n = 9742"),
        (dict(GRID, tests=["dcov"], cells=[{"scenario": "sim2", "n": 9742}]),
         ["--tests", "mdd,dcov"], "n = 9742"),
        (GRID, ["--output", str(tmp_path)], "Is a directory"),
        (GRID, ["--output", str(tmp_path / "missing" / "report.json")], "No such file"),
    )
    for grid, extra, message in cases:
        path = write(tmp_path / "grid.json", json.dumps(grid))
        assert main(["simulate", "--grid", path, *extra]) == 2, grid
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err, err


def test_point_coordinates_that_overflow_exit_3(tmp_path, capsys):
    labels = write(tmp_path / "l.csv", "0\n1\n")
    cases = (
        ("euclidean", "1e308,0,0\n-1e308,0,0\n", "overflows"),
        ("euclidean", "1e200,0,0\n-1e200,0,0\n", "overflows"),
        ("sphere", "1e308,0,0\n-1e308,0,0\n", "norm"),
        ("shape", "1e308,0,0,0,0,1\n-1e308,0,0,1,1,0\n", "overflows"),
        # centring alone stays finite here, but the squared size overflows
        ("shape", "1e200,0,0,0,0,1\n-1e200,0,0,1,1,0\n", "overflows"),
    )
    for metric, rows, message in cases:
        points = write(tmp_path / "p.csv", rows)
        rc = main([
            "test", "--points", points, "--metric", metric, "--labels", labels,
            "--permutations", "5", "--seed", "1", "--output", str(tmp_path / "r.json"),
        ])
        assert rc == 3, (metric, rows)
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err, err
    assert not (tmp_path / "r.json").exists()


def test_adjust_csv_with_header(tmp_path, capsys):
    src = tmp_path / "ps.csv"
    write(src, "p\n0.01\n0.02\n0.03\n0.04\n")
    rc = main(["adjust", "--input", str(src)])
    assert rc == 0
    rows = read_csv_rows(tmp_path / "ps.adjusted.csv")
    assert rows[0] == ["p", "bh_adjusted"]
    assert [row[0] for row in rows[1:]] == ["0.01", "0.02", "0.03", "0.04"]
    adjusted = [float(row[1]) for row in rows[1:]]
    assert np.allclose(adjusted, 0.04, atol=1e-12)
    capsys.readouterr()


def test_adjust_csv_without_header_keeps_extra_columns(tmp_path, capsys):
    src = tmp_path / "vals.csv"
    write(src, "0.5,x\n0.25,y\n")
    out = tmp_path / "adj.csv"
    rc = main(["adjust", "--input", str(src), "--output", str(out)])
    assert rc == 0
    rows = read_csv_rows(out)
    assert rows == [["0.5", "x", "0.5"], ["0.25", "y", "0.5"]]
    capsys.readouterr()


def test_adjust_reads_the_first_row_after_a_byte_order_mark(tmp_path, capsys):
    src = tmp_path / "vals.csv"
    write(src, "\ufeff0.01\n0.04\n0.5\n")
    out = tmp_path / "adj.csv"
    assert main(["adjust", "--input", str(src), "--output", str(out)]) == 0
    assert read_csv_rows(out) == [["0.01", "0.03"], ["0.04", "0.06"], ["0.5", "0.5"]]
    assert "adjusted 3 p-values" in capsys.readouterr().out


def test_adjust_directory_of_results(tmp_path, capsys):
    points = write(tmp_path / "p.csv", "0\n1\n")
    labels = write(tmp_path / "l.csv", "0\n1\n")
    results = tmp_path / "results"
    results.mkdir()
    for name in ("b.json", "a.json"):
        rc = main([
            "test", "--points", points, "--labels", labels, "--permutations",
            "5", "--seed", "3", "--output", str(results / name),
        ])
        assert rc == 0
    rc = main(["adjust", "--input", str(results)])
    assert rc == 0
    rows = read_csv_rows(results / "adjusted.csv")
    assert rows[0] == ["file", "p_value", "bh_adjusted"]
    assert [row[0] for row in rows[1:]] == ["a.json", "b.json"]
    assert [float(row[2]) for row in rows[1:]] == [1.0, 1.0]
    capsys.readouterr()


def test_adjust_single_result_leaves_p_alone(tmp_path, capsys):
    src = tmp_path / "one.csv"
    write(src, "0.2\n")
    out = tmp_path / "one.adj.csv"
    assert main(["adjust", "--input", str(src), "--output", str(out)]) == 0
    assert read_csv_rows(out) == [["0.2", "0.2"]]
    capsys.readouterr()


def test_adjust_error_exits(tmp_path, capsys):
    bad = write(tmp_path / "range.csv", "1.2\n")
    assert main(["adjust", "--input", bad]) == 2
    text = write(tmp_path / "text.csv", "0.5\nx\n")
    assert main(["adjust", "--input", text]) == 2
    # a bad p-value is named by its line in the file, blank lines counted
    gap = write(tmp_path / "gap.csv", "p\n0.1\n\n0.2\nx\n")
    capsys.readouterr()
    assert main(["adjust", "--input", gap]) == 2
    assert capsys.readouterr().err == f"error: {gap}: row 5, column 1: 'x' is not a number\n"
    assert main(["adjust", "--input", str(tmp_path / "none.csv")]) == 2
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["adjust", "--input", str(empty)]) == 2
    broken = tmp_path / "broken"
    broken.mkdir()
    write(broken / "r.json", "{not json")
    assert main(["adjust", "--input", str(broken)]) == 2
    write(broken / "r.json", json.dumps({"schema_version": 1}))
    assert main(["adjust", "--input", str(broken)]) == 2
    (broken / "r.json").write_bytes(b'{"p_value": \xff}')
    assert main(["adjust", "--input", str(broken)]) == 2
    capsys.readouterr()


def test_column_outside_the_file_exits_2(tmp_path, capsys):
    # a negative column must not count from the end of the row
    src = write(tmp_path / "ps.csv", "0.5,0.1\n0.25,0.2\n")
    for column in ("-1", "2"):
        out = tmp_path / f"adj{column}.csv"
        assert main(["adjust", "--input", src, "--column", column, "--output", str(out)]) == 2
        assert not out.exists()
    points, labels = write(tmp_path / "p.csv", "0\n1\n"), write(tmp_path / "l.csv", "0\n1\n")
    for column in ("-1", "1"):
        assert main([
            "test", "--points", points, "--labels", labels, "--label-column", column,
            "--output", str(tmp_path / "r.json"),
        ]) == 2
    assert "outside 0..1" in capsys.readouterr().err


def test_adjust_header_rule_and_byte_identical_rows(tmp_path, capsys):
    # the first row is a header when its field is missing or not a number
    src = write(tmp_path / "ps.csv", "id\n a ,0.5\nb, 0.25\n")
    out = tmp_path / "adj.csv"
    assert main(["adjust", "--input", src, "--column", "1", "--output", str(out)]) == 0
    assert out.read_bytes() == b"id,bh_adjusted\r\n a ,0.5,0.5\r\nb, 0.25,0.5\r\n"
    assert main(["adjust", "--input", src, "--column", "1", "--header", "no"]) == 2
    assert "row 1 has no column 1" in capsys.readouterr().err


def test_adjust_rejects_results_the_schema_rejects(tmp_path, capsys):
    points, labels = write(tmp_path / "p.csv", "0\n1\n"), write(tmp_path / "l.csv", "0\n1\n")
    good = tmp_path / "good.json"
    assert main([
        "test", "--points", points, "--labels", labels, "--permutations", "5",
        "--seed", "3", "--output", str(good),
    ]) == 0
    base = json.loads(good.read_text(encoding="utf-8"))
    cases = (
        ({"schema_version": 7}, "/schema_version"),
        ({"statistic": -1.0}, "/statistic"),
        ({"scaled": -0.5}, "/scaled"),
        ({"per_class": [0.1, -0.1]}, "/per_class"),
        ({"n": 1}, "/n"),
        ({"R": 0}, "/R"),
        ({"permutations": 0}, "/permutations"),
        ({"p_value": 1.5}, "/p_value"),
        ({"extra": 1}, "/extra"),
    )
    for change, pointer in cases:
        results = tmp_path / pointer.strip("/")
        results.mkdir()
        write(results / "r.json", json.dumps(dict(base, **change)))
        assert main(["adjust", "--input", str(results)]) == 2, change
        assert f"r.json: {pointer}" in capsys.readouterr().err


def test_matrix_entries_near_the_float_maximum_are_accepted(tmp_path, capsys):
    matrix = write(tmp_path / "m.csv", "0,1e308\n1e308,0\n")
    labels = write(tmp_path / "l.csv", "0\n1\n")
    out = tmp_path / "r.json"
    assert main([
        "test", "--matrix", matrix, "--labels", labels, "--permutations", "5",
        "--seed", "1", "--output", str(out),
    ]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["statistic"] == 0.125
    capsys.readouterr()


def test_matrix_load_keeps_one_float_array_per_entry(tmp_path, monkeypatch, capsys):
    # the parsed matrix is checked in place; a copy of it, as load_precomputed
    # takes, would hold a second float64 array and read 19.7 bytes per entry
    n = 200
    rng = np.random.default_rng(4)
    points = rng.standard_normal((n, 3))
    d = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    matrix = write(tmp_path / "m.csv", "".join(",".join(map(repr, r)) + "\n" for r in d.tolist()))
    labels = write(tmp_path / "l.csv", "".join(f"{i % 2}\n" for i in range(n)))
    loaded = []

    def stop_after_loading(dm):
        loaded.append(dm.values)
        raise InvalidSpec("stop after loading")

    monkeypatch.setattr(cli, "build_ranks", stop_after_loading)
    argv = ["test", "--matrix", matrix, "--labels", labels, "--output", str(tmp_path / "r.json")]
    assert main(argv) == 2  # warm: first-call imports are not the load's
    loaded.clear()
    assert traced_bytes_per_entry(n, main, argv) < 14
    assert np.array_equal(loaded[0], d) and not loaded[0].flags.writeable
    capsys.readouterr()


def test_help_and_missing_command():
    with pytest.raises(SystemExit) as err:
        main(["--help"])
    assert err.value.code == 0
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
