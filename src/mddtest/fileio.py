"""CSV and JSON reading and writing.

CSV files are comma separated with ``.`` decimals, UTF-8 encoded; an
optional header row is detected by a non-numeric first row.  Numbers
are written in shortest round-trip decimal form, so a dump-then-load
cycle reproduces every float bit for bit.  JSON output is rendered
with sorted keys and fixed indentation, so identical inputs serialise
byte-identically.
"""

from __future__ import annotations

import csv
import json
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import CsvFormatError, GridConfigError, OutOfRangePValue
from .harness import ExperimentGrid, GridCell
from .inference import TestResult
from .simulate import ScenarioSpec

RESULT_SCHEMA_VERSION = 1


def fmt_float(x: float) -> str:
    """Shortest decimal form that round-trips to the same float."""
    return repr(float(x))


def read_csv_rows(path) -> list[list[str]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.reader(fh) if row and any(f.strip() for f in row)]
    except OSError as exc:
        raise CsvFormatError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise CsvFormatError(f"{path} holds no data rows")
    return rows


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def load_numeric_csv(path) -> tuple[np.ndarray, list[str] | None]:
    """Read a rectangular numeric CSV, splitting off a detected header."""
    rows = read_csv_rows(path)
    header = None
    if any(not _is_number(field) for field in rows[0]):
        header = [field.strip() for field in rows[0]]
        rows = rows[1:]
        if not rows:
            raise CsvFormatError(f"{path} holds a header but no data rows")
    width = len(rows[0])
    out = np.empty((len(rows), width))
    for i, row in enumerate(rows):
        if len(row) != width:
            raise CsvFormatError(
                f"{path}: row {i + 1} has {len(row)} fields, expected {width}"
            )
        for j, fieldval in enumerate(row):
            try:
                out[i, j] = float(fieldval)
            except ValueError:
                raise CsvFormatError(
                    f"{path}: row {i + 1}, column {j + 1}: {fieldval!r} is not a number"
                ) from None
    return out, header


def load_points_csv(path) -> np.ndarray:
    values, _header = load_numeric_csv(path)
    return values


def load_matrix_csv(path) -> np.ndarray:
    values, _header = load_numeric_csv(path)
    return values


def load_labels_csv(path, column: int = 0, header: str = "auto") -> np.ndarray:
    """Read one column of labels, numeric or string valued.

    ``header`` is ``"auto"`` (a non-numeric first value followed by at
    least one numeric value is treated as a header), ``"yes"`` or
    ``"no"``.
    """
    rows = read_csv_rows(path)
    width = max(len(r) for r in rows)
    if not 0 <= column < width:
        raise CsvFormatError(
            f"{path}: label column {column} outside 0..{width - 1}"
        )
    try:
        values = [row[column].strip() for row in rows]
    except IndexError:
        short = next(i for i, row in enumerate(rows) if len(row) <= column)
        raise CsvFormatError(
            f"{path}: row {short + 1} has no column {column}"
        ) from None
    if header == "yes":
        values = values[1:]
    elif header == "auto":
        if values and not _is_number(values[0]) and any(_is_number(v) for v in values[1:]):
            values = values[1:]
    if not values:
        raise CsvFormatError(f"{path} holds no label rows")
    if all(_is_number(v) for v in values):
        return np.array([float(v) for v in values])
    return np.array(values)


def write_csv(path, rows: list[list[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def write_matrix_csv(path, values: np.ndarray, header: list[str] | None = None) -> None:
    arr = np.atleast_2d(np.asarray(values, dtype=np.float64))
    rows: list[list[str]] = []
    if header is not None:
        rows.append(list(header))
    for row in arr:
        rows.append([fmt_float(v) for v in row])
    write_csv(path, rows)


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(dump_json(obj), encoding="utf-8")


def result_to_dict(result: TestResult) -> dict:
    out = {
        "schema_version": RESULT_SCHEMA_VERSION,
        "statistic": result.statistic,
        "scaled": result.scaled,
        "n": result.n,
        "R": result.num_classes,
        "p_value": result.p_value,
        "permutations": result.permutations,
        "seed": result.seed,
        "method": result.method,
        "per_class": list(result.per_class) if result.per_class is not None else None,
    }
    return out


def load_result_schema() -> dict:
    text = (
        resources.files("mddtest").joinpath("schemas/result.schema.json").read_text("utf-8")
    )
    return json.loads(text)


def validate_result_dict(obj: dict) -> None:
    """Check a result dictionary against the published schema by hand."""
    if not isinstance(obj, dict):
        raise GridConfigError("/: result must be a JSON object")
    required = {
        "schema_version": int,
        "statistic": (int, float),
        "scaled": (int, float),
        "n": int,
        "R": int,
        "p_value": (int, float),
        "permutations": int,
        "seed": int,
        "method": str,
    }
    for key, kind in required.items():
        if key not in obj:
            raise GridConfigError(f"/{key}: required field is missing")
        if not isinstance(obj[key], kind) or isinstance(obj[key], bool):
            raise GridConfigError(f"/{key}: wrong type")
    if "per_class" not in obj:
        raise GridConfigError("/per_class: required field is missing")
    per_class = obj["per_class"]
    if per_class is not None:
        if not isinstance(per_class, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in per_class
        ):
            raise GridConfigError("/per_class: must be null or a list of numbers")
    if not 0.0 <= obj["p_value"] <= 1.0:
        raise OutOfRangePValue(f"p-value {obj['p_value']} outside [0, 1]")


def result_csv_rows(result: TestResult) -> list[list[str]]:
    header = [
        "statistic",
        "scaled",
        "n",
        "R",
        "p_value",
        "permutations",
        "seed",
        "method",
    ]
    row = [
        fmt_float(result.statistic),
        fmt_float(result.scaled),
        str(result.n),
        str(result.num_classes),
        fmt_float(result.p_value),
        str(result.permutations),
        str(result.seed),
        result.method,
    ]
    if result.per_class is not None:
        for r, value in enumerate(result.per_class):
            header.append(f"per_class_{r}")
            row.append(fmt_float(value))
    return [header, row]


_CELL_KEYS = {
    "scenario": str,
    "column": int,
    "R": int,
    "n": int,
    "dim": int,
    "landmarks": int,
    "corr": (int, float),
    "null": bool,
    "noise": str,
    "mean_gap": (int, float),
    "kappa": (int, float),
    "reps": int,
}

_GRID_KEYS = {
    "name": str,
    "seed": int,
    "reps": int,
    "permutations": int,
    "alpha": (int, float),
    "tests": list,
    "sphere_metric": str,
    "cells": list,
}


def _check_type(value, kind, pointer: str):
    if isinstance(value, bool) and kind is not bool:
        raise GridConfigError(f"{pointer}: wrong type")
    if not isinstance(value, kind):
        raise GridConfigError(f"{pointer}: wrong type")
    return value


def grid_from_dict(obj: dict) -> ExperimentGrid:
    """Build an :class:`ExperimentGrid` from parsed JSON.

    Validation failures raise :class:`GridConfigError` whose message
    starts with a JSON-pointer-style path to the offending field.
    """
    if not isinstance(obj, dict):
        raise GridConfigError("/: grid config must be a JSON object")
    for key in obj:
        if key not in _GRID_KEYS:
            raise GridConfigError(f"/{key}: unknown field")
    for key in ("seed", "reps", "permutations", "cells"):
        if key not in obj:
            raise GridConfigError(f"/{key}: required field is missing")
    for key, kind in _GRID_KEYS.items():
        if key in obj:
            _check_type(obj[key], kind, f"/{key}")
    if obj["reps"] < 1:
        raise GridConfigError(f"/reps: must be >= 1, got {obj['reps']}")
    if obj["permutations"] < 1:
        raise GridConfigError(f"/permutations: must be >= 1, got {obj['permutations']}")
    alpha = obj.get("alpha", 0.05)
    if not 0.0 < alpha < 1.0:
        raise GridConfigError(f"/alpha: must lie in (0, 1), got {alpha}")
    tests = obj.get("tests", ["mdd"])
    for t_index, test in enumerate(tests):
        _check_type(test, str, f"/tests/{t_index}")
    cells = []
    for c_index, cell_obj in enumerate(obj["cells"]):
        pointer = f"/cells/{c_index}"
        if not isinstance(cell_obj, dict):
            raise GridConfigError(f"{pointer}: cell must be a JSON object")
        for key in cell_obj:
            if key not in _CELL_KEYS:
                raise GridConfigError(f"{pointer}/{key}: unknown field")
        for key, kind in _CELL_KEYS.items():
            if key in cell_obj:
                _check_type(cell_obj[key], kind, f"{pointer}/{key}")
        if "scenario" not in cell_obj or "n" not in cell_obj:
            missing = "scenario" if "scenario" not in cell_obj else "n"
            raise GridConfigError(f"{pointer}/{missing}: required field is missing")
        cell_reps = cell_obj.get("reps")
        if cell_reps is not None and cell_reps < 1:
            raise GridConfigError(f"{pointer}/reps: must be >= 1, got {cell_reps}")
        spec_kwargs = {k: v for k, v in cell_obj.items() if k != "reps"}
        if "corr" in spec_kwargs:
            spec_kwargs["corr"] = float(spec_kwargs["corr"])
        try:
            spec = ScenarioSpec(**spec_kwargs)
        except Exception as exc:
            raise GridConfigError(f"{pointer}: {exc}") from exc
        cells.append(GridCell(spec=spec, reps=cell_reps))
    try:
        return ExperimentGrid(
            cells=tuple(cells),
            reps=obj["reps"],
            permutations=obj["permutations"],
            alpha=float(alpha),
            tests=tuple(tests),
            seed=obj["seed"],
            sphere_metric=obj.get("sphere_metric", "euclidean"),
            name=obj.get("name", ""),
        )
    except GridConfigError:
        raise
    except Exception as exc:
        raise GridConfigError(f"/: {exc}") from exc


def load_grid_json(path) -> ExperimentGrid:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise GridConfigError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GridConfigError(f"{path} is not valid JSON: {exc}") from exc
    return grid_from_dict(obj)


def preset_names() -> list[str]:
    root = resources.files("mddtest").joinpath("presets")
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def load_preset(name: str) -> ExperimentGrid:
    root = resources.files("mddtest").joinpath("presets")
    candidate = root.joinpath(f"{name}.json")
    if not candidate.is_file():
        raise GridConfigError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        )
    return grid_from_dict(json.loads(candidate.read_text("utf-8")))
