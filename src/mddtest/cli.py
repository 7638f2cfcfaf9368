"""Command-line front end.

Commands: ``test`` (one dataset, one p-value), ``simulate`` (a grid of
Monte Carlo cells) and ``adjust`` (Benjamini-Hochberg over a batch of
p-values).  Timing lives outside the package, in ``perfbench/``.

Exit codes follow the error class: 0 on success, 3 on a distance or
point-space violation (:class:`MetricError`), 2 on any other
:class:`MddError`, an unreadable or unwritable path (``OSError``) or an
input too large for memory, 4 on an internal failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import fileio
from .errors import CsvFormatError, InvalidSpec, MddError, MetricError, SizeMismatch
from .estimator import LabelVector, build_ranks
from .harness import distances_for, run_grid
from .inference import bh_adjust, check_permutation_settings, permutation_test
from .metrics import PointSet, _adopt_precomputed


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mddtest",
        description="Independence tests between a metric-space sample and a categorical variable.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run one permutation test on a dataset")
    src = p_test.add_mutually_exclusive_group(required=True)
    src.add_argument("--points", help="CSV of point rows")
    src.add_argument("--matrix", help="CSV holding a precomputed distance matrix")
    p_test.add_argument(
        "--metric",
        choices=("euclidean", "sphere", "shape"),
        default=None,
        help="how to read --points: euclidean (the default), sphere, or shape "
        "(2L columns x1,y1,...,xL,yL)",
    )
    p_test.add_argument("--labels", required=True, help="CSV holding the class labels")
    p_test.add_argument("--label-column", type=int, default=0)
    p_test.add_argument("--label-header", choices=("auto", "yes", "no"), default="auto")
    p_test.add_argument("--permutations", type=int, default=499)
    p_test.add_argument("--seed", type=int, default=None)
    p_test.add_argument("--output", default="mdd-result.json")
    p_test.add_argument("--format", choices=("json", "csv", "text"), default="json")

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo grid")
    grid_src = p_sim.add_mutually_exclusive_group()
    grid_src.add_argument("--grid", help="grid config JSON path")
    grid_src.add_argument("--preset", help="bundled preset name (see --list-presets)")
    p_sim.add_argument("--list-presets", action="store_true", help="list bundled presets and exit")
    p_sim.add_argument("--reps", type=int, default=None, help="override replicate count")
    p_sim.add_argument("--permutations", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=None, help="override the master seed")
    p_sim.add_argument("--alpha", type=float, default=None)
    p_sim.add_argument("--tests", default=None, help="comma list, e.g. mdd,dcov,hhg")
    p_sim.add_argument("--threads", type=int, default=1)
    p_sim.add_argument("--output", default=None, help="write the machine-readable report here")
    p_sim.add_argument("--format", choices=("json", "csv", "text"), default="json")

    p_adj = sub.add_parser("adjust", help="Benjamini-Hochberg adjust a batch of p-values")
    p_adj.add_argument(
        "--input",
        required=True,
        help="CSV holding a p-value column, or a directory of result JSON files",
    )
    p_adj.add_argument("--column", type=int, default=0)
    p_adj.add_argument("--header", choices=("auto", "yes", "no"), default="auto")
    p_adj.add_argument("--output", default=None, help="adjusted CSV path")
    return parser


def _cmd_test(args) -> int:
    if args.matrix is not None and args.metric is not None:
        raise InvalidSpec("--metric applies to --points only; a --matrix is read as given")
    check_permutation_settings(args.permutations, args.seed)
    fileio.check_output_path(args.output, args.matrix, args.points, args.labels)
    raw_labels = fileio.load_labels_csv(
        args.labels, column=args.label_column, header=args.label_header
    )
    labels = LabelVector.from_values(raw_labels)
    if args.matrix is not None:
        d = _adopt_precomputed(fileio.load_numeric_csv(args.matrix))
    else:
        rows = fileio.load_numeric_csv(args.points)
        if args.metric == "shape":
            if rows.shape[1] % 2 != 0 or rows.shape[1] < 6:
                raise CsvFormatError(
                    f"{args.points}: shape rows need an even column count of at "
                    f"least 6 (x1,y1,...), got {rows.shape[1]}"
                )
            rows = rows.reshape(rows.shape[0], -1, 2)
        # every point set is measured under its own metric; sphere rows along the sphere
        d = distances_for(PointSet._from_fresh(args.metric or "euclidean", rows), "geodesic")
    if labels.n != d.n:
        raise SizeMismatch(
            f"{args.labels} holds {labels.n} labels but the point source holds "
            f"{d.n} observations"
        )
    ranks = build_ranks(d)
    del d  # the test reads only the ranks
    result = permutation_test(ranks, labels, args.permutations, args.seed)
    print(
        f"MDD={result.statistic:.6g}, p={result.p_value:.6g}, "
        f"n={result.n}, R={result.num_classes}"
    )
    fileio.write_output(
        args.output,
        args.format,
        fileio.result_to_dict(result),
        fileio.result_csv_rows(result),
        f"MDD={result.statistic!r} p={result.p_value!r} n={result.n} "
        f"R={result.num_classes} permutations={result.permutations} "
        f"seed={result.seed}\n",
    )
    return 0


def _cmd_simulate(args) -> int:
    if args.list_presets:
        for name in fileio.preset_names():
            print(name)
        return 0
    if args.grid is None and args.preset is None:
        raise InvalidSpec("one of --grid or --preset is required (or --list-presets)")
    obj = fileio.read_json(args.grid) if args.grid is not None else fileio.read_preset(args.preset)
    fileio.validate_grid_dict(obj)  # so the flags below meet a well-formed grid
    # the flags replace the file's settings before the grid is built, so a
    # cell is checked only against the tests that will run
    if args.tests is not None:
        obj["tests"] = [t.strip() for t in args.tests.split(",") if t.strip()]
    flags = dict(reps=args.reps, permutations=args.permutations, seed=args.seed, alpha=args.alpha)
    obj.update((key, value) for key, value in flags.items() if value is not None)
    grid = fileio.grid_from_dict(obj)
    if args.output is not None:
        fileio.check_output_path(args.output, args.grid)
    report = run_grid(grid, threads=args.threads)
    text = report.to_text()
    print(text)
    if args.output is not None:
        fileio.write_output(
            args.output, args.format, report.to_json_dict(), report.to_csv_rows(), text + "\n"
        )
    return 0


def _cmd_adjust(args) -> int:
    source = Path(args.input)
    if source.is_dir():
        files = sorted(p for p in source.iterdir() if p.suffix == ".json")
        if not files:
            raise CsvFormatError(f"{source} holds no result JSON files")
        out_path = args.output or str(source / "adjusted.csv")
        fileio.check_output_path(out_path, *files)
        pvals = [float(fileio.load_result_json(path)["p_value"]) for path in files]
        out_rows = [["file", "p_value", "bh_adjusted"]] + [
            [path.name, fileio.fmt_float(p), fileio.fmt_float(adj)]
            for path, p, adj in zip(files, pvals, bh_adjust(pvals))
        ]
    else:
        out_path = args.output or str(source.with_suffix(".adjusted.csv"))
        fileio.check_output_path(out_path, source)
        header_row, rows, values = fileio.read_column(source, args.column, args.header)
        pvals = fileio.parse_floats(source, values, [line for line, _row in rows], args.column)
        out_rows = [] if header_row is None else [header_row + ["bh_adjusted"]]
        out_rows += [
            row + [fileio.fmt_float(adj)] for (_line, row), adj in zip(rows, bh_adjust(pvals))
        ]
    fileio.write_csv(out_path, out_rows)
    print(f"adjusted {len(pvals)} p-values -> {out_path}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "test":
            return _cmd_test(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_adjust(args)
    except MetricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (MddError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = str(exc) or "an allocation failed"
        print(f"error: not enough memory for this input: {detail}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
