"""One benchmark process: set up a workload, time its operation, check it.

Started by ``run.py`` in a fresh interpreter, once per set-up sample
(``--setup-only``) and once for the measured run.  Set-up time runs from
the moment ``run.py`` started the process (``--t0``, CLOCK_MONOTONIC) to
the first timed operation, so it covers interpreter start, the
``import mddtest`` every CLI call pays, and input generation.

Operations run one at a time, closed loop, for ``--seconds`` seconds:
another starts only while the median operation still fits.  With
``--trace 1`` the first operation runs untraced, as the base of the
tracing overhead, and the rest of the window runs with every layer
function wrapped, for the layer timings.  One more operation then runs
under tracemalloc as well, for the layer allocation peaks.
The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _blas_threads() -> int | None:
    """OpenBLAS's thread count, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _timed(workload):
    gc.collect()
    start = time.perf_counter()
    try:
        output, error = workload.run(), None
    except Exception as exc:  # an operation that raises is a failed operation
        output, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, output, error


def _run_window(workload, deadline: float, records: list, tracer=None, per_op=None):
    """Run operations until the median one no longer fits before the deadline.

    With a tracer, each operation's per-layer metrics go to ``per_op``.
    """
    walls: list[float] = []
    while True:
        if tracer is not None:
            tracer.reset()
        wall, output, error = _timed(workload)
        walls.append(wall)
        records.append((output, error))
        if tracer is not None:
            per_op.append(tracer.timings(wall))
        if deadline - _clock() < statistics.median(walls):
            return walls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--reference", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import mddtest
    import numpy

    import workloads

    if Path(mddtest.__file__).resolve().parent != Path(args.src).resolve():
        print(f"imported mddtest from {mddtest.__file__}, not {args.src}", file=sys.stderr)
        return 3
    workload = workloads.make(args.workload, args.size, args.seed, Path(args.workdir))
    workload.prepare()
    ready = _clock()
    setup_s = ready - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    deadline = ready + args.seconds
    records: list = []
    layer_metrics = None
    overhead_s = None
    if args.trace:
        import layers

        untraced_wall, output, error = _timed(workload)
        records.append((output, error))
        tracer = layers.Tracer()
        tracer.install()
        per_op: list = []
        try:
            traced_walls = _run_window(workload, deadline, records, tracer, per_op)
            tracer.reset()
            tracer.track_memory()
            records.append(_timed(workload)[1:])
            layer_metrics = tracer.peaks()
        finally:
            tracer.uninstall()
        overhead_s = statistics.median(traced_walls) - untraced_wall
        for name in per_op[0]:
            values = [m[name] for m in per_op]
            layer_metrics[name] = None if values[0] is None else statistics.median(values)
        layer_metrics["trace.overhead_s"] = overhead_s
        walls = [untraced_wall]
    else:
        walls = _run_window(workload, deadline, records)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = workloads.load_reference(
        Path(args.reference), args.size, args.workload, workloads.instance_of(args.seed)
    )
    failures = []
    failed_ops = 0
    for index, (output, error) in enumerate(records):
        try:
            problems = [error] if error else workload.check(output, reference)
        except Exception as exc:  # unreadable output fails the operation, not the run
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        failed_ops += bool(problems)
        failures += [f"op {index}: {problem}" for problem in problems]

    print(json.dumps({
        "setup_s": setup_s,
        "walls": walls,
        "attempted": len(records),
        "failed": failed_ops,
        "failures": failures,
        "peak_rss_mb": peak_rss_mb,
        "layers": layer_metrics,
        "provenance": {
            "package_version": getattr(mddtest, "__version__", None),
            "numpy_version": numpy.__version__,
            "blas_threads": _blas_threads(),
            "nproc": len(os.sched_getaffinity(0)),
            "python_version": sys.version.split()[0],
            "tracing_overhead_s": overhead_s,
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
