"""CSV and JSON reading and writing; every input format is read here.

CSV files are comma separated with ``.`` decimals, UTF-8 (BOM optional); an
optional header row is detected by a non-numeric first row (for one
column, by its first field).  Numeric CSVs are parsed by numpy's C
reader, with a row reader for the files it refuses.  Result and grid
files are checked against ``schemas/result.schema.json`` and
``schemas/grid.schema.json``, the only copies of those formats.  Numbers
are written in shortest round-trip decimal form, so a dump-then-load
cycle reproduces every float bit for bit.  JSON output is rendered
with sorted keys and fixed indentation, so identical inputs serialise
byte-identically.
"""

from __future__ import annotations

import contextlib
import csv
import errno
import itertools
import json
import os
import warnings
from collections.abc import Iterator
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import CsvFormatError, GridConfigError, MddError
from .harness import ExperimentGrid, GridCell
from .inference import TestResult
from .simulate import ScenarioSpec

RESULT_SCHEMA_VERSION = 1


def fmt_float(x: float) -> str:
    """Shortest decimal form that round-trips to the same float."""
    return repr(float(x))


def _csv_rows(path) -> Iterator[list[str]]:
    """Yield the rows of a CSV file lazily, skipping blank ones."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            for row in csv.reader(fh):
                if any(f.strip() for f in row):
                    yield row
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise CsvFormatError(f"cannot read {path}: {exc}") from exc


def read_csv_rows(path) -> list[list[str]]:
    rows = list(_csv_rows(path))
    if not rows:
        raise CsvFormatError(f"{path} holds no data rows")
    return rows


def _is_number(text: str | None) -> bool:
    try:
        float(text)
    except (TypeError, ValueError):
        return False
    return True


def parse_floats(
    path, fields: list[str], row: int | None = None, column: int | None = None
) -> np.ndarray:
    """Parse a row (``row`` given) or a column (``column`` given) of fields as float64.

    The error names the first bad field by its 1-based row and column.
    """
    try:
        return np.array(fields, dtype=np.float64)
    except ValueError:
        k = next(k for k, text in enumerate(fields) if not _is_number(text))
        i, j = (row, k + 1) if column is None else (k + 1, column + 1)
        raise CsvFormatError(
            f"{path}: row {i}, column {j}: {fields[k]!r} is not a number"
        ) from None


def _read_numeric_rows(path) -> np.ndarray:
    """The row reader behind :func:`load_numeric_csv`: every row through
    ``csv`` and :func:`parse_floats`, so that an error names the bad field
    by row and column.  Rows are parsed as they are read, so the text of
    the file is never held whole.
    """
    rows = _csv_rows(path)
    first = next(rows, None)
    if first is None:
        raise CsvFormatError(f"{path} holds no data rows")
    if not all(_is_number(field) for field in first):
        first = next(rows, None)
        if first is None:
            raise CsvFormatError(f"{path} holds a header but no data rows")
    width = len(first)
    out = []
    for i, row in enumerate(itertools.chain([first], rows), start=1):
        if len(row) != width:
            raise CsvFormatError(f"{path}: row {i} has {len(row)} fields, expected {width}")
        out.append(parse_floats(path, row, row=i))
    return np.array(out)


def _plain_lines(lines) -> Iterator[str]:
    """``lines``, refusing those that loadtxt would read and the row reader
    not: longer than a ``csv`` field may be, or holding ``\\x1c``-``\\x1f``,
    which loadtxt strips around a number and ``float`` does not."""
    limit = csv.field_size_limit()
    for line in lines:
        if len(line) > limit or any(c in line for c in "\x1c\x1d\x1e\x1f"):
            raise ValueError("left to the row reader")
        yield line


def load_numeric_csv(path) -> np.ndarray:
    """Read a rectangular numeric CSV, skipping a header row if present.

    The first non-blank row is a header when any of its fields is not a
    number.  The data rows go through ``np.loadtxt``; a file it refuses
    (quoted or non-ASCII numbers, blank fields, ragged or no rows) goes
    through the row reader, which alone names a bad field.
    """
    if not os.path.isfile(path):
        return _read_numeric_rows(path)  # a pipe cannot be read twice
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh, warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # loadtxt's "no data" warning
            rows = (row for row in csv.reader(fh) if any(field.strip() for field in row))
            first = next(rows, None)
            if first is not None and all(_is_number(field) for field in first):
                fh.seek(0)
            return np.loadtxt(_plain_lines(fh), delimiter=",", comments=None, ndmin=2)
    except (OSError, ValueError, csv.Error, UserWarning):
        return _read_numeric_rows(path)


def read_column(
    path, column: int, header: str = "auto"
) -> tuple[list[str] | None, list[list[str]], list[str]]:
    """One column of a CSV: the header row or None, the data rows, and
    the column's stripped values.

    ``header`` is ``"yes"``, ``"no"`` or ``"auto"``: the first row is a
    header when its field in the column is missing or not a number and
    at least one later field is a number.
    """
    rows = read_csv_rows(path)
    width = max(len(row) for row in rows)
    if not 0 <= column < width:
        raise CsvFormatError(f"{path}: column {column} outside 0..{width - 1}")
    values = [row[column].strip() if column < len(row) else None for row in rows]
    if header == "yes" or (
        header == "auto"
        and not _is_number(values[0])
        and any(_is_number(v) for v in values[1:])
    ):
        head, rows, values = rows[0], rows[1:], values[1:]
    else:
        head = None
    if not rows:
        raise CsvFormatError(f"{path} holds no data rows")
    if None in values:
        raise CsvFormatError(f"{path}: row {values.index(None) + 1} has no column {column}")
    return head, rows, values


def load_labels_csv(path, column: int = 0, header: str = "auto") -> np.ndarray:
    """Read one column of labels, numeric or string valued (see :func:`read_column`)."""
    _head, _rows, values = read_column(path, column, header)
    try:
        return np.array(values, dtype=np.float64)
    except ValueError:
        return np.array(values)


def check_output_path(path) -> None:
    """Raise the ``OSError`` a later write would, when ``path`` is a
    directory or its parent is missing, so a long run cannot fail last."""
    target = Path(path)
    if target.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
    if not target.parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(target.parent))


def write_csv(path, rows: list[list[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


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


def load_schema(name: str) -> dict:
    """The bundled ``schemas/{name}.schema.json``, parsed."""
    text = (
        resources.files("mddtest").joinpath(f"schemas/{name}.schema.json").read_text("utf-8")
    )
    return json.loads(text)


_JSON_TYPES = {"object": dict, "array": list, "string": str, "integer": int,
               "number": (int, float), "boolean": bool, "null": type(None)}
_SCHEMA_KEYWORDS = {
    "type", "const", "minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum",
    "required", "properties", "additionalProperties", "items", "oneOf",
    "$schema", "$id", "$comment", "title",
}


def _check_schema(value, schema: dict, pointer: str) -> None:
    """Raise :class:`GridConfigError` at the first place ``value`` breaks ``schema``.

    Only the keywords the bundled schemas use are understood; any other
    keyword is an error, so it can never be skipped unnoticed.
    """
    if set(schema) - _SCHEMA_KEYWORDS:
        raise NotImplementedError(f"unsupported schema keywords {set(schema) - _SCHEMA_KEYWORDS}")
    where = pointer or "/"
    kind = schema.get("type")
    # a bool is a Python int, but only a JSON boolean, never an integer or number
    if kind is not None and (
        isinstance(value, bool) != (kind == "boolean")
        or not isinstance(value, _JSON_TYPES[kind])
    ):
        raise GridConfigError(f"{where}: expected {kind}")
    if "const" in schema and value != schema["const"]:
        raise GridConfigError(f"{where}: must be {schema['const']!r}, got {value!r}")
    # written so that NaN fails every bound
    if "minimum" in schema and not value >= schema["minimum"]:
        raise GridConfigError(f"{where}: {value!r} is below {schema['minimum']}")
    if "maximum" in schema and not value <= schema["maximum"]:
        raise GridConfigError(f"{where}: {value!r} is above {schema['maximum']}")
    if "exclusiveMinimum" in schema and not value > schema["exclusiveMinimum"]:
        raise GridConfigError(f"{where}: {value!r} is not above {schema['exclusiveMinimum']}")
    if "exclusiveMaximum" in schema and not value < schema["exclusiveMaximum"]:
        raise GridConfigError(f"{where}: {value!r} is not below {schema['exclusiveMaximum']}")
    for key in schema.get("required", ()):
        if key not in value:
            raise GridConfigError(f"{pointer}/{key}: required field is missing")
    properties = schema.get("properties", {})
    extra = schema.get("additionalProperties", True)
    for key in value if isinstance(value, dict) else ():
        child = f"{pointer}/{str(key).replace('~', '~0').replace('/', '~1')}"
        if key in properties:
            _check_schema(value[key], properties[key], child)
        elif extra is False:
            raise GridConfigError(f"{child}: unknown field")
        elif isinstance(extra, dict):
            _check_schema(value[key], extra, child)
    if "items" in schema:
        for i, item in enumerate(value):
            _check_schema(item, schema["items"], f"{pointer}/{i}")
    if "oneOf" in schema:
        matches = 0
        for option in schema["oneOf"]:
            with contextlib.suppress(GridConfigError):
                _check_schema(value, option, pointer)
                matches += 1
        if matches != 1:
            raise GridConfigError(f"{where}: matches {matches} of the oneOf forms, not one")


def validate_result_dict(obj) -> None:
    """Check a result dictionary against ``schemas/result.schema.json``."""
    _check_schema(obj, load_schema("result"), "")


def _read_json(path):
    """Parse one UTF-8 JSON file; every failure, too deep nesting included, names the file."""
    try:
        return json.loads(Path(path).read_bytes().decode("utf-8"))
    except OSError as exc:
        raise GridConfigError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise GridConfigError(f"{path} is not valid JSON: {exc}") from exc


def load_result_json(path) -> dict:
    """Read one result JSON file and validate it; errors name the file."""
    obj = _read_json(path)
    try:
        validate_result_dict(obj)
    except GridConfigError as exc:
        raise GridConfigError(f"{path}: {exc}") from exc
    return obj


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


def grid_from_dict(obj) -> ExperimentGrid:
    """Build an :class:`ExperimentGrid` from parsed JSON.

    The object is checked against ``schemas/grid.schema.json`` first.
    Validation failures raise :class:`GridConfigError` whose message
    starts with a JSON-pointer-style path to the offending field.
    """
    _check_schema(obj, load_schema("grid"), "")
    cells = []
    for index, cell in enumerate(obj["cells"]):
        fields = {k: v for k, v in cell.items() if k != "reps"}
        if "corr" in fields:
            fields["corr"] = float(fields["corr"])
        try:
            spec = ScenarioSpec(**fields)
        except MddError as exc:
            raise GridConfigError(f"/cells/{index}: {exc}") from exc
        cells.append(GridCell(spec=spec, reps=cell.get("reps")))
    try:
        return ExperimentGrid(
            cells=tuple(cells),
            reps=obj["reps"],
            permutations=obj["permutations"],
            alpha=float(obj.get("alpha", 0.05)),
            tests=tuple(obj.get("tests", ["mdd"])),
            seed=obj["seed"],
            sphere_metric=obj.get("sphere_metric", "euclidean"),
            name=obj.get("name", ""),
        )
    except MddError as exc:
        raise GridConfigError(f"/: {exc}") from exc


def load_grid_json(path) -> ExperimentGrid:
    return grid_from_dict(_read_json(path))


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
