"""CSV and JSON reading and writing; every input format is read here.

CSV files are comma separated with ``.`` decimals, UTF-8 (BOM optional); an
optional header row is detected by a non-numeric first row (for one
column, by its first field).  One row source, :func:`_csv_rows`, skips
blank rows and numbers the rest by their line in the file, which every
CSV error names.  Numeric CSVs are parsed by numpy's C reader, with a
row reader for the files it refuses.  Result and grid files are checked
against ``schemas/result.schema.json`` and ``schemas/grid.schema.json``,
the only copies of those formats; a result's CSV columns are the fields
of :func:`result_to_dict`.  Numbers are written in shortest round-trip
decimal form, so a dump-then-load cycle reproduces every float bit for
bit.  JSON output is rendered with sorted keys and fixed indentation,
so identical inputs serialise byte-identically.
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

from .errors import CsvFormatError, GridConfigError, InvalidSpec, MddError
from .harness import ExperimentGrid
from .inference import TestResult
from .simulate import ScenarioSpec

RESULT_SCHEMA_VERSION = 1


def fmt_float(x: float) -> str:
    """Shortest decimal form that round-trips to the same float."""
    return repr(float(x))


@contextlib.contextmanager
def _open_csv(path) -> Iterator:
    """``path`` open for :func:`_csv_rows`; any failure to read it is a :class:`CsvFormatError`."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            yield fh
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise CsvFormatError(f"cannot read {path}: {exc}") from exc


def _csv_rows(fh) -> Iterator[tuple[int, list[str]]]:
    """Yield the rows of an open CSV file lazily, skipping blank ones, each
    with the 1-based line of the file it starts on."""
    reader = csv.reader(fh)
    line = 1
    for row in reader:
        if any(f.strip() for f in row):
            yield line, row
        line = reader.line_num + 1


def _is_number(text: str | None) -> bool:
    try:
        float(text)
    except (TypeError, ValueError):
        return False
    return True


def parse_floats(
    path, fields: list[str], lines: int | list[int], column: int | None = None
) -> np.ndarray:
    """Parse a row (``lines`` its file line) or the 0-based ``column``
    (``lines`` each field's file line) as float64; an error names the
    first bad field by its file line and 1-based column."""
    try:
        return np.array(fields, dtype=np.float64)
    except ValueError:
        k = next(k for k, text in enumerate(fields) if not _is_number(text))
        i, j = (lines, k + 1) if column is None else (lines[k], column + 1)
        raise CsvFormatError(
            f"{path}: row {i}, column {j}: {fields[k]!r} is not a number"
        ) from None


def _read_numeric_rows(path) -> np.ndarray:
    """The row reader behind :func:`load_numeric_csv`: every row through
    ``csv`` and :func:`parse_floats`, so that an error names the bad field
    by its line in the file and its column.  Rows are parsed as they are
    read, so the text of the file is never held whole.
    """
    with _open_csv(path) as fh:
        rows = _csv_rows(fh)
        line, first = next(rows, (0, None))
        if first is None:
            raise CsvFormatError(f"{path} holds no data rows")
        if not all(_is_number(field) for field in first):
            line, first = next(rows, (0, None))
            if first is None:
                raise CsvFormatError(f"{path} holds a header but no data rows")
        width = len(first)
        out = []
        for line, row in itertools.chain([(line, first)], rows):
            if len(row) != width:
                raise CsvFormatError(f"{path}: row {line} has {len(row)} fields, expected {width}")
            out.append(parse_floats(path, row, line))
    return np.array(out)


def _plain_lines(lines) -> Iterator[str]:
    """``lines``, refusing those that loadtxt would read and the row reader
    not: with a field over the ``csv`` limit, or holding ``\\x1c``-``\\x1f``,
    which loadtxt strips around a number and ``float`` does not."""
    limit = csv.field_size_limit()
    for line in lines:
        if any(c in line for c in "\x1c\x1d\x1e\x1f") or (
            len(line) > limit and max(map(len, line.split(","))) > limit
        ):
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
            _line, first = next(_csv_rows(fh), (0, None))
            if first is not None and all(_is_number(field) for field in first):
                fh.seek(0)
            return np.loadtxt(_plain_lines(fh), delimiter=",", comments=None, ndmin=2)
    except (OSError, ValueError, csv.Error, UserWarning):
        return _read_numeric_rows(path)


def read_column(
    path, column: int, header: str = "auto"
) -> tuple[list[str] | None, list[tuple[int, list[str]]], list[str]]:
    """One column of a CSV: the header row or None, the data rows with
    their file lines as :func:`_csv_rows` yields them, and the stripped values.

    ``header`` is ``"yes"``, ``"no"`` or ``"auto"``: the first row is a
    header when its field in the column is missing or not a number and
    at least one later field is a number.
    """
    with _open_csv(path) as fh:
        rows = list(_csv_rows(fh))
    if not rows:
        raise CsvFormatError(f"{path} holds no data rows")
    width = max(len(row) for _line, row in rows)
    if not 0 <= column < width:
        raise CsvFormatError(f"{path}: column {column} outside 0..{width - 1}")
    values = [row[column].strip() if column < len(row) else None for _line, row in rows]
    if header == "yes" or (
        header == "auto"
        and not _is_number(values[0])
        and any(_is_number(v) for v in values[1:])
    ):
        head, rows, values = rows[0][1], rows[1:], values[1:]
    else:
        head = None
    if not rows:
        raise CsvFormatError(f"{path} holds no data rows")
    if None in values:
        line = rows[values.index(None)][0]
        raise CsvFormatError(f"{path}: row {line} has no column {column}")
    return head, rows, values


def load_labels_csv(path, column: int = 0, header: str = "auto") -> np.ndarray:
    """Read one column of labels, numeric or string valued (see :func:`read_column`)."""
    _head, _rows, values = read_column(path, column, header)
    try:
        return np.array(values, dtype=np.float64)
    except ValueError:
        return np.array(values)


def check_output_path(path, *inputs) -> None:
    """Raise the ``OSError`` a later write would, when ``path`` is a
    directory or its parent is missing, so a long run cannot fail last.
    Refuse a ``path`` that names one of the existing files ``inputs``
    (``None`` for an input not given), which the write would destroy."""
    target = Path(path)
    if target.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
    if not target.parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(target.parent))
    if target.exists():
        for source in inputs:
            if source is not None and Path(source).exists() and os.path.samefile(target, source):
                raise InvalidSpec(f"the output path {target} is the input file {source}")


def write_csv(path, rows: list[list[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def write_output(path, fmt: str, obj: dict, rows: list[list[str]], text: str) -> None:
    """Write ``obj`` as JSON, ``rows`` as CSV or ``text`` to ``path``, as ``--format`` says."""
    if fmt == "json":
        write_json(path, obj)
    elif fmt == "csv":
        write_csv(path, rows)
    else:
        Path(path).write_text(text, encoding="utf-8")


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(dump_json(obj), encoding="utf-8")


def result_to_dict(result: TestResult) -> dict:
    return {
        "schema_version": RESULT_SCHEMA_VERSION,
        "statistic": result.statistic,
        "scaled": result.scaled,
        "n": result.n,
        "R": result.num_classes,
        "p_value": result.p_value,
        "permutations": result.permutations,
        "seed": result.seed,
        "method": "permutation",
        "per_class": list(result.per_class),
    }


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
    "required", "properties", "additionalProperties", "items",
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


def validate_result_dict(obj) -> None:
    """Check a result dictionary against ``schemas/result.schema.json``."""
    _check_schema(obj, load_schema("result"), "")


def read_json(path):
    """Parse one UTF-8 JSON file; every failure, too deep nesting included, names the file."""
    try:
        return json.loads(Path(path).read_bytes().decode("utf-8"))
    except OSError as exc:
        raise GridConfigError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise GridConfigError(f"{path} is not valid JSON: {exc}") from exc


def load_result_json(path) -> dict:
    """Read one result JSON file and validate it; errors name the file."""
    obj = read_json(path)
    try:
        validate_result_dict(obj)
    except GridConfigError as exc:
        raise GridConfigError(f"{path}: {exc}") from exc
    return obj


def result_csv_rows(result: TestResult) -> list[list[str]]:
    """The fields of :func:`result_to_dict` as a header and one row, without
    ``schema_version`` and with ``per_class`` spread over ``per_class_r``."""
    fields = result_to_dict(result)
    del fields["schema_version"]
    per_class = fields.pop("per_class")
    fields.update((f"per_class_{r}", value) for r, value in enumerate(per_class))
    return [
        list(fields),
        [fmt_float(v) if isinstance(v, float) else str(v) for v in fields.values()],
    ]


def validate_grid_dict(obj) -> None:
    """Check a grid dictionary against ``schemas/grid.schema.json``."""
    _check_schema(obj, load_schema("grid"), "")


def grid_from_dict(obj) -> ExperimentGrid:
    """Build an :class:`ExperimentGrid` from parsed JSON.

    The object is checked against ``schemas/grid.schema.json`` first.
    Validation failures raise :class:`GridConfigError` whose message
    starts with a JSON-pointer-style path to the offending field.
    """
    validate_grid_dict(obj)
    cells = []
    for index, cell in enumerate(obj["cells"]):
        if "corr" in cell:
            cell = dict(cell, corr=float(cell["corr"]))
        try:
            cells.append(ScenarioSpec(**cell))
        except MddError as exc:
            raise GridConfigError(f"/cells/{index}: {exc}") from exc
    settings = {key: value for key, value in obj.items() if key != "cells"}
    if "alpha" in settings:
        settings["alpha"] = float(settings["alpha"])
    if "tests" in settings:
        settings["tests"] = tuple(settings["tests"])
    try:
        return ExperimentGrid(cells=tuple(cells), **settings)
    except MddError as exc:
        raise GridConfigError(f"/: {exc}") from exc


def preset_names() -> list[str]:
    root = resources.files("mddtest").joinpath("presets")
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def read_preset(name: str) -> dict:
    """The parsed JSON of a bundled preset grid; ``name`` must be one of
    :func:`preset_names`, never a path."""
    names = preset_names()
    if name not in names:
        raise GridConfigError(f"unknown preset {name!r}; available: {', '.join(names)}")
    root = resources.files("mddtest").joinpath("presets")
    return json.loads(root.joinpath(f"{name}.json").read_text("utf-8"))
