"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 0-9 --trace 0 --output perfbench/trajectory/LABEL.json

For every workload and seed it runs ``run.py`` once, one run at a time,
and keeps the result line and the provenance line.  For each metric it
prints the median, the quartiles and the spread: the distance between
the quartiles as a share of the median, as ``statistics.quantiles(values,
n=4)`` gives them.  A point of the trajectory is the file it writes.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="0-9", help="a range lo-hi or a comma list")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)
    out = {"machine": {"platform": platform.platform(), "cpu_model": _cpu_model()},
           "trace": args.trace, "run_seconds": SPEC["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                                  timeout=240)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            provenance = json.loads(next(l for l in lines if l.startswith("provenance "))[11:])
            runs.append({"seed": seed, "result": json.loads(lines[-1]), "provenance": provenance})
            print(workload, seed, lines[-1], flush=True)
        names = sorted({n for r in runs for n in r["result"]["metrics"]})
        summary = {}
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in runs
                      if name in r["result"]["metrics"]]
            if len(values) >= 2:
                summary[name] = summarise(values)
                s = summary[name]
                spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
                print(f"  {workload:12s} {name:32s} median {s['median']:.6g} spread {spread}")
        out["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
