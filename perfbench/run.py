"""Benchmark of what an mddtest user waits on.

    python3 perfbench/run.py --workload test_matrix --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each run starts fresh worker processes (``worker.py``): a few
that only set up, for the set-up time, and one that sets up and then
times the workload's operation for ``--seconds`` seconds.  Every output
is checked against ``estimate_naive`` or a recorded reference
(``reference.json``), and a mismatch is reported by name.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  See README.md for the workloads and the
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "mddtest"

SETUP_PROBES = 8  # set-up-only processes; the measured process adds a ninth sample
BUDGET_S = 170.0  # every process of one run ends within this
BLAS_THREADS = "1"


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit() -> str | None:
    """HEAD's commit, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _worker(args, workdir: Path, deadline: float, setup_only: bool) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
    )
    t0 = _clock()
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size, "--reference", str(args.reference),
        "--workdir", str(workdir), "--src", str(SRC), "--t0", repr(t0),
    ] + (["--setup-only"] if setup_only else [])
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - t0),
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker exited {proc.returncode}:\n{proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="input sizes; 'toy' is for the benchmark's own test")
    parser.add_argument("--reference", type=Path, default=HERE / "reference.json",
                        help="recorded reference outputs")
    args = parser.parse_args(argv)
    start = _clock()
    if not (SRC / "__init__.py").is_file():
        print(f"error: no mddtest package under {SRC}", file=sys.stderr)
        return 2
    if not args.reference.is_file():
        print(f"error: no reference file {args.reference}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        deadline = start + BUDGET_S
        setup = [] if args.trace else [
            _worker(args, workdir, deadline, True)["setup_s"] for _ in range(SETUP_PROBES)
        ]
        result = _worker(args, workdir, deadline, False)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    instance = workloads.instance_of(args.seed)
    provenance = dict(
        result["provenance"],
        workload=args.workload,
        seed=args.seed,
        instance=instance,
        size=args.size,
        git_commit=_git_commit(),
        source_sha256=_source_digest(),
        operations=result["attempted"],
    )
    print(f"perfbench {args.workload} seed={args.seed} instance={instance} trace={args.trace}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for failure in result["failures"]:
        print(f"FAIL {args.workload} {failure}")
        print(f"FAIL {args.workload} {failure}", file=sys.stderr)
    print("operation_s " + " ".join(f"{w:.4f}" for w in result["walls"]))
    attempted, failed = result["attempted"], result["failed"]
    print(f"fail_frac {failed / attempted:g} ({failed} of {attempted} operations)")

    if args.trace:
        units = layers.metric_units()
        values = result["layers"]
        absent = sorted(name for name in units if values.get(name) is None)
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items() if name not in absent
        }
        if absent:
            print("absent " + " ".join(absent))
    else:
        setup.append(result["setup_s"])
        metrics = {
            "wall_s": {"value": statistics.median(result["walls"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
