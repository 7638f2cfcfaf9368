import dataclasses
import json
import os
import tempfile
import threading
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mddtest import (
    CsvFormatError,
    ExperimentGrid,
    GridConfigError,
    ScenarioSpec,
    build_ranks,
    permutation_test,
)
from mddtest.fileio import (
    dump_json,
    fmt_float,
    grid_from_dict,
    load_labels_csv,
    load_numeric_csv,
    load_schema,
    preset_names,
    read_column,
    read_json,
    read_preset,
    result_csv_rows,
    result_to_dict,
    validate_result_dict,
    write_csv,
    write_json,
)
from conftest import random_distances, random_labels
from mddtest import fileio
from mddtest.fileio import _check_schema


def test_fmt_float_round_trips():
    for x in (0.1, 1.0 / 3.0, np.pi, 1e-17, 123456.789, 5.0, 0.0):
        assert float(fmt_float(x)) == x


def test_matrix_csv_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    values = rng.standard_normal((6, 4)) * 10.0 ** rng.integers(-12, 12, size=(6, 4))
    path = tmp_path / "m.csv"
    rows = [[fmt_float(v) for v in row] for row in values]
    write_csv(path, rows)
    assert np.array_equal(load_numeric_csv(path), values)
    write_csv(path, [["a", "b", "c", "d"]] + rows)
    assert np.array_equal(load_numeric_csv(path), values)


def test_load_numeric_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="row 2"):
        load_numeric_csv(path)
    path.write_text("1,2\n3,x\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="row 2, column 2"):
        load_numeric_csv(path)
    path.write_text("a,b\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="no data rows"):
        load_numeric_csv(path)
    path.write_text("", encoding="utf-8")
    with pytest.raises(CsvFormatError):
        load_numeric_csv(path)
    with pytest.raises(CsvFormatError):
        load_numeric_csv(tmp_path / "missing.csv")


def test_load_numeric_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("x,y\n\n1,2\n\n3,4\n", encoding="utf-8")
    assert load_numeric_csv(path).tolist() == [[1.0, 2.0], [3.0, 4.0]]


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(
    values=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=5)),
    header=st.booleans(),
    blanks=st.lists(st.integers(0, 7), max_size=3),
    newline=st.sampled_from(("\n", "\r\n", "\r")),
    final_newline=st.booleans(),
)
def test_numpy_reader_gives_the_row_reader_bits(values, header, blanks, newline, final_newline):
    lines = [",".join(map(repr, row)) for row in values.tolist()]
    if header:
        lines.insert(0, ",".join(f"c{j}" for j in range(values.shape[1])))
    for at in blanks:
        lines.insert(min(at, len(lines)), "")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        path.write_text(newline.join(lines) + newline * final_newline, "utf-8", newline="")
        rows = fileio._read_numeric_rows(path)
        with mock.patch.object(fileio, "_read_numeric_rows", side_effect=AssertionError):
            fast = load_numeric_csv(path)
    assert fast.shape == rows.shape and fast.tobytes() == rows.tobytes()


# Files np.loadtxt refuses or could misread, and files whose header rule
# decides the result, each with the row reader's array or error message.
EDGE_FILES = {
    "quoted_numbers": ('"1.5",2\n3,"4"\n', [[1.5, 2.0], [3.0, 4.0]]),
    "whitespace_row": ("1,2\n  \t\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
    "blank_field_row": ("1,2\n , \n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
    "underscore": ("1_0,2\n3,4\n", [[10.0, 2.0], [3.0, 4.0]]),
    "unicode_digits": ("\u0661\u0662,2\n3,4\n", [[12.0, 2.0], [3.0, 4.0]]),
    "spaced_fields": (" 1 ,\t2\n3 , 4 \n", [[1.0, 2.0], [3.0, 4.0]]),
    "multiline_header": ('"a\nb",c\n1,2\n', [[1.0, 2.0]]),
    "bom_data": ("\ufeff1,2\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
    "bom_header": ("\ufeffa,b\n1,2\n", [[1.0, 2.0]]),
    "bom_quoted": ('\ufeff"1",2\n3,4\n', [[1.0, 2.0], [3.0, 4.0]]),
    "ragged": ("1,2\n3\n", "{path}: row 2 has 1 fields, expected 2"),
    "trailing_comma": ("1,2,\n3,4,\n", "{path}: row 2, column 3: '' is not a number"),
    "bad_field": ("a,b\n1,2\n3,x\n", "{path}: row 3, column 2: 'x' is not a number"),
    "bad_after_blank": ("a,b\n\n1,2\n , \n3,x\n", "{path}: row 5, column 2: 'x' is not a number"),
    "ragged_after_multiline_header": ('"a\nb",c\n1,2\n3\n', "{path}: row 4 has 1 fields, expected 2"),
    "info_separator": ("1,2\n3\x1c,4\n", "{path}: row 2, column 1: '3\\x1c' is not a number"),
    "nul": ("1,2\n3\x00,4\n", "{path}: row 2, column 1: '3\\x00' is not a number"),
    "long_field": (
        "1,2\n0." + "0" * 131072 + "1,2\n",
        "cannot read {path}: field larger than field limit (131072)",
    ),
    "header_only": ("a,b\n", "{path} holds a header but no data rows"),
    "header_blank_tail": ("a,b\n\n , \n", "{path} holds a header but no data rows"),
    "hex": ("0x1,2\n", "{path} holds a header but no data rows"),
    "double_header": ("a,b\nc,d\n1,2\n", "{path}: row 2, column 1: 'c' is not a number"),
    "blank_only": ("\n \n,\n", "{path} holds no data rows"),
    "empty": ("", "{path} holds no data rows"),
}


@pytest.mark.parametrize("name", EDGE_FILES)
def test_load_numeric_csv_edge_files_keep_the_row_reader_results(tmp_path, name):
    text, expected = EDGE_FILES[name]
    path = tmp_path / f"{name}.csv"
    path.write_text(text, "utf-8", newline="")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if isinstance(expected, str):
            with pytest.raises(CsvFormatError) as info:
                load_numeric_csv(path)
            assert str(info.value) == expected.format(path=path)
        else:
            assert load_numeric_csv(path).tolist() == expected
    assert caught == []


def test_wide_rows_of_short_fields_stay_on_the_numpy_reader(tmp_path):
    # each row is longer than a csv field may be, but no field is
    values = np.random.default_rng(4).standard_normal((2, 7000))
    path = tmp_path / "wide.csv"
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in values.tolist()))
    assert path.stat().st_size > 2 * 131072
    with mock.patch.object(fileio, "_read_numeric_rows", side_effect=AssertionError):
        assert load_numeric_csv(path).tobytes() == values.tobytes()


def test_load_numeric_csv_reads_a_pipe_once(tmp_path):
    fifo = tmp_path / "m.csv"
    os.mkfifo(fifo)
    out = []
    reader = threading.Thread(target=lambda: out.append(load_numeric_csv(fifo)), daemon=True)
    reader.start()
    with open(fifo, "w", encoding="utf-8") as fh:
        fh.write("1,2\n3,4\n")
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert out[0].tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_load_numeric_csv_reports_undecodable_bytes(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"1,2\n\xff,3\n")
    with pytest.raises(CsvFormatError, match="cannot read .*can't decode byte 0xff in position 4"):
        load_numeric_csv(path)


def test_load_labels_csv_modes(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("grp\n0\n1\n0\n", encoding="utf-8")
    assert load_labels_csv(path).tolist() == [0.0, 1.0, 0.0]
    path.write_text("a\nb\na\n", encoding="utf-8")
    assert load_labels_csv(path).tolist() == ["a", "b", "a"]
    path.write_text("id,grp\n7,0\n8,1\n", encoding="utf-8")
    assert load_labels_csv(path, column=1).tolist() == [0.0, 1.0]
    path.write_text("0\n1\n", encoding="utf-8")
    assert load_labels_csv(path, header="yes").tolist() == [1.0]
    path.write_text("x\n1\n", encoding="utf-8")
    assert load_labels_csv(path, header="no").tolist() == ["x", "1"]
    with pytest.raises(CsvFormatError):
        load_labels_csv(path, column=5)
    path.write_text("a,b\n1\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="row 2 has no column 1"):
        load_labels_csv(path, column=1, header="no")
    # rows are named by their line in the file, blank lines counted
    path.write_text("x,y\n\n1,2\n3\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="row 4 has no column 1"):
        load_labels_csv(path, column=1)


def test_load_labels_csv_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("\ufeff0\n1\n0\n1\n", encoding="utf-8")
    assert load_labels_csv(path).tolist() == [0.0, 1.0, 0.0, 1.0]
    path.write_text("\ufeffgrp\na\nb\n", encoding="utf-8")
    assert load_labels_csv(path, header="yes").tolist() == ["a", "b"]


def test_write_csv_and_read_back(tmp_path):
    path = tmp_path / "rows.csv"
    write_csv(path, [["a", "b"], ["1", "2"]])
    assert path.read_bytes() == b"a,b\r\n1,2\r\n"


def test_dump_json_is_deterministic():
    text = dump_json({"b": 1, "a": [1.5, None]})
    assert text == '{\n  "a": [\n    1.5,\n    null\n  ],\n  "b": 1\n}\n'
    assert text.endswith("\n")


def test_write_json_round_trip(tmp_path):
    path = tmp_path / "out.json"
    payload = {"z": 0.1, "a": {"nested": [1, 2]}}
    write_json(path, payload)
    assert json.loads(path.read_text(encoding="utf-8")) == payload


def make_result(seed=3):
    rng = np.random.default_rng(seed)
    d = random_distances(rng, 10)
    labels = random_labels(rng, 10, 2)
    return permutation_test(build_ranks(d), labels, permutations=19, seed=5)


def test_result_dict_round_trip_and_validation():
    result = make_result()
    obj = result_to_dict(result)
    validate_result_dict(obj)
    assert obj["schema_version"] == 1
    assert obj["statistic"] == result.statistic
    assert obj["R"] == result.num_classes
    assert obj["per_class"] == list(result.per_class)
    # the schema file names exactly the serialised fields
    schema = load_schema("result")
    assert set(schema["required"]) == set(obj)
    assert schema["properties"]["schema_version"]["const"] == 1
    assert schema["additionalProperties"] is False


def test_validate_result_dict_rejections():
    base = result_to_dict(make_result())
    for key in ("statistic", "p_value", "per_class", "method", "seed"):
        broken = dict(base)
        del broken[key]
        with pytest.raises(GridConfigError, match=f"/{key}"):
            validate_result_dict(broken)
    broken = dict(base, statistic="big")
    with pytest.raises(GridConfigError, match="/statistic"):
        validate_result_dict(broken)
    broken = dict(base, n=True)
    with pytest.raises(GridConfigError, match="/n"):
        validate_result_dict(broken)
    broken = dict(base, per_class=[0.1, True])
    with pytest.raises(GridConfigError, match="/per_class"):
        validate_result_dict(broken)
    with pytest.raises(GridConfigError, match="/p_value"):
        validate_result_dict(dict(base, p_value=1.5))
    with pytest.raises(GridConfigError):
        validate_result_dict([])
    # every writer gives a list, so a null per_class is refused
    with pytest.raises(GridConfigError, match="^/per_class: expected array"):
        validate_result_dict(dict(base, per_class=None))


def test_validate_result_dict_follows_the_schema():
    base = result_to_dict(make_result())
    cases = (
        (dict(base, schema_version=2), "/schema_version"),
        (dict(base, schema_version=True), "/schema_version"),
        (dict(base, statistic=-0.5), "/statistic"),
        (dict(base, statistic=float("nan")), "/statistic"),
        (dict(base, p_value=float("nan")), "/p_value"),
        (dict(base, n=1), "/n"),
        (dict(base, n=2.0), "/n"),
        (dict(base, R=0), "/R"),
        (dict(base, permutations=0), "/permutations"),
        (dict(base, seed=False), "/seed"),
        (dict(base, per_class=[0.1, -1.0]), "/per_class/1"),
        (dict(base, per_class="none"), "/per_class"),
        (dict(base, **{"a/b~c": 1}), "/a~1b~0c"),
    )
    for obj, pointer in cases:
        with pytest.raises(GridConfigError) as err:
            validate_result_dict(obj)
        assert str(err.value).startswith(pointer + ":"), (obj, str(err.value))
    validate_result_dict(dict(base, p_value=1, statistic=0, seed=-(2**70)))


def test_schema_walk_rejects_unknown_keywords_and_ambiguous_forms():
    with pytest.raises(NotImplementedError, match="pattern"):
        _check_schema("x", {"type": "string", "pattern": "x"}, "")
    # no bundled schema offers alternative forms, so oneOf is refused like any unknown keyword
    with pytest.raises(NotImplementedError, match="oneOf"):
        _check_schema(3, {"oneOf": [{"type": "number"}, {"type": "integer"}]}, "/v")
    nested = {"type": "object", "additionalProperties": {"type": "array", "items": {"type": "null"}}}
    _check_schema({"a": [None]}, nested, "")
    with pytest.raises(GridConfigError, match="^/a/1: expected null"):
        _check_schema({"a": [None, 0]}, nested, "")
    # a bool matches boolean and nothing else; NaN fails every bound
    _check_schema(False, {"type": "boolean"}, "/b")
    open_unit = {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1}
    _check_schema(0.5, open_unit, "/p")
    for value, schema, message in (
        (0, {"type": "boolean"}, "expected boolean"),
        (None, {"type": "boolean"}, "expected boolean"),
        (True, {"type": "integer"}, "expected integer"),
        (0.0, open_unit, "not above 0"),
        (1, open_unit, "not below 1"),
        (float("nan"), open_unit, "not above 0"),
        (float("nan"), {"type": "number", "exclusiveMaximum": 1}, "not below 1"),
        (float("inf"), open_unit, "not below 1"),
    ):
        with pytest.raises(GridConfigError, match=f"^/v: .*{message}"):
            _check_schema(value, schema, "/v")


def test_read_column_header_rule_and_range(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("id\n a ,0.5\nb,0.25\n", encoding="utf-8")
    assert read_column(path, 1) == (
        ["id"], [(2, [" a ", "0.5"]), (3, ["b", "0.25"])], ["0.5", "0.25"]
    )
    assert read_column(path, 0) == (
        None, [(1, ["id"]), (2, [" a ", "0.5"]), (3, ["b", "0.25"])], ["id", "a", "b"]
    )
    with pytest.raises(CsvFormatError, match="row 1 has no column 1"):
        read_column(path, 1, header="no")
    for column in (-1, 2):
        with pytest.raises(CsvFormatError, match="outside 0..1"):
            read_column(path, column)


def test_result_csv_rows_shape():
    result = make_result()
    header, row = result_csv_rows(result)
    assert header[:4] == ["statistic", "scaled", "n", "R"]
    assert header[-2:] == ["per_class_0", "per_class_1"]
    assert len(header) == len(row)
    assert float(row[0]) == result.statistic
    assert float(row[-1]) == result.per_class[1]


MINIMAL_GRID = {
    "seed": 5,
    "reps": 2,
    "permutations": 9,
    "cells": [{"scenario": "sim2", "column": 3, "R": 2, "n": 12, "dim": 2}],
}


def test_grid_from_dict_minimal_and_defaults():
    grid = grid_from_dict(MINIMAL_GRID)
    assert isinstance(grid, ExperimentGrid)
    assert grid.alpha == 0.05
    assert grid.tests == ("mdd",)
    assert grid.sphere_metric == "euclidean"
    assert grid.cells[0] == ScenarioSpec(scenario="sim2", column=3, R=2, n=12, dim=2)
    full = dict(
        MINIMAL_GRID,
        name="demo",
        alpha=0.1,
        tests=["mdd", "hhg"],
        sphere_metric="geodesic",
        cells=[{"scenario": "sim2", "column": 1, "R": 2, "n": 12, "dim": 3}],
    )
    grid = grid_from_dict(full)
    assert grid.name == "demo" and grid.alpha == 0.1
    assert grid.tests == ("mdd", "hhg")
    assert grid.cells[0] == ScenarioSpec(scenario="sim2", column=1, R=2, n=12, dim=3)


def test_grid_schema_cells_hold_the_scenario_fields():
    cell = load_schema("grid")["properties"]["cells"]["items"]
    assert list(cell["properties"]) == [f.name for f in dataclasses.fields(ScenarioSpec)]


def test_grid_from_dict_pointer_errors():
    cases = (
        ({"reps": 2, "permutations": 9, "cells": []}, "/seed"),
        (dict(MINIMAL_GRID, reps=0), "/reps"),
        (dict(MINIMAL_GRID, permutations=True), "/permutations"),
        (dict(MINIMAL_GRID, alpha=2.0), "/alpha"),
        (dict(MINIMAL_GRID, extra=1), "/extra"),
        (dict(MINIMAL_GRID, tests=["mdd", 3]), "/tests/1"),
        (dict(MINIMAL_GRID, cells=[{"scenario": "sim2"}]), "/cells/0/n"),
        (dict(MINIMAL_GRID, cells=[dict(MINIMAL_GRID["cells"][0], n="x")]), "/cells/0/n"),
        (dict(MINIMAL_GRID, cells=[dict(MINIMAL_GRID["cells"][0], banana=1)]), "/cells/0/banana"),
        (dict(MINIMAL_GRID, cells=[{"scenario": "sim4", "n": 12, "corr": 1.5}]), "/cells/0"),
        (dict(MINIMAL_GRID, cells=[7]), "/cells/0"),
        (dict(MINIMAL_GRID, tests=["energy"]), "/"),
        (dict(MINIMAL_GRID, tests=["mdd", "dcov", "mdd"]), "/: each test"),
        (dict(MINIMAL_GRID, seed=-5), "/seed"),
        (dict(MINIMAL_GRID, alpha=0), "/alpha"),
        (dict(MINIMAL_GRID, alpha=float("nan")), "/alpha"),
        (dict(MINIMAL_GRID, cells=[dict(MINIMAL_GRID["cells"][0], null=1)]), "/cells/0/null"),
        # a cell holds only ScenarioSpec's fields; the grid alone sets reps
        *((dict(MINIMAL_GRID, cells=[dict(MINIMAL_GRID["cells"][0], **{key: value})]),
           f"/cells/0/{key}: unknown field")
          for key, value in (("reps", 7), ("noise", "t2"), ("mean_gap", 1.0), ("kappa", 1.0))),
        # no n x n float64 matrix is addressable past 2^30 - 1
        (dict(MINIMAL_GRID, cells=[{"scenario": "sim2", "n": 10**20}]), "/cells/0/n"),
        (dict(MINIMAL_GRID, cells=[{"scenario": "sim2", "n": 2**30}]), "/cells/0/n"),
        (dict(MINIMAL_GRID, cells=[{"scenario": "sim2", "n": 40},
                                   {"scenario": "sim2", "n": 9742}]), "/: cell 1 has n = 9742"),
        # cells that the generators reject are refused before any replicate runs
        (dict(MINIMAL_GRID, cells=[{"scenario": "sim2", "n": 40},
                                   {"scenario": "sim4", "n": 40, "R": 3}]), "/cells/1"),
        (dict(MINIMAL_GRID, cells=[{"scenario": "sim3", "n": 40, "R": 3}]), "/cells/0"),
        ([], "/"),
    )
    for obj, pointer in cases:
        with pytest.raises(GridConfigError) as err:
            grid_from_dict(obj)
        assert str(err.value).startswith(pointer), (obj, str(err.value))


def test_grid_size_limits_follow_the_requested_tests():
    cells = [{"scenario": "sim2", "n": 9742}, {"scenario": "sim2", "n": 2**30 - 1}]
    for tests in (["dcov"], ["hhg"], ["dcov", "hhg"]):
        grid = grid_from_dict(dict(MINIMAL_GRID, cells=cells, tests=tests))
        assert [c.n for c in grid.cells] == [9742, 2**30 - 1]
    assert grid_from_dict(dict(MINIMAL_GRID, cells=[{"scenario": "sim2", "n": 9741}]))


def test_load_grid_json(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(MINIMAL_GRID), encoding="utf-8")
    assert grid_from_dict(read_json(path)).seed == 5
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(GridConfigError, match="not valid JSON"):
        grid_from_dict(read_json(path))
    with pytest.raises(GridConfigError, match="^cannot read"):
        grid_from_dict(read_json(tmp_path / "absent.json"))
    latin = json.dumps(dict(MINIMAL_GRID, name="café"), ensure_ascii=False).encode("latin-1")
    for data in (latin, b"[" * 100_000):
        path.write_bytes(data)
        with pytest.raises(GridConfigError, match="not valid JSON"):
            grid_from_dict(read_json(path))


def test_presets_load_and_cover_the_study_layouts():
    assert preset_names() == ["table1", "table2", "table3", "table4"]
    sizes = {"table1": 30, "table2": 30, "table3": 30, "table4": 15}
    for name, cell_count in sizes.items():
        grid = grid_from_dict(read_preset(name))
        assert len(grid.cells) == cell_count
        assert grid.tests == ("mdd", "dcov", "hhg")

    table1 = grid_from_dict(read_preset("table1"))
    assert {c.scenario for c in table1.cells} == {"sim1"}
    assert {c.column for c in table1.cells} == {1, 2, 3}
    assert {c.R for c in table1.cells} == {2, 5}
    assert {c.n for c in table1.cells} == {40, 60, 80, 120, 160}

    table2 = grid_from_dict(read_preset("table2"))
    assert {c.scenario for c in table2.cells} == {"sim2"}

    table3 = grid_from_dict(read_preset("table3"))
    assert {c.scenario for c in table3.cells} == {"sim3"}
    assert {c.dim for c in table3.cells} == {3, 6, 8, 10, 12}

    table4 = grid_from_dict(read_preset("table4"))
    assert {c.scenario for c in table4.cells} == {"sim4"}
    assert {c.corr for c in table4.cells} == {0.0, 0.05, 0.1, 0.15, 0.2}
    assert {c.landmarks for c in table4.cells} == {20, 50, 70}

    with pytest.raises(GridConfigError, match="unknown preset"):
        grid_from_dict(read_preset("table9"))
