"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py

Runs every workload once per instance of the pool, at both size
profiles, and writes ``reference.json``.  It refuses to overwrite an
existing file: references are recorded once, at the commit that
defines them, and a later mismatch is a failure to explain, never a
reason to record again.  Delete the file by hand to record anew.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # the worker's setting; must precede the numpy import

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    target = HERE / "reference.json"
    if target.exists():
        print(f"error: {target} exists; delete it by hand to record anew", file=sys.stderr)
        return 2
    refs: dict = {}
    scratch = HERE.parent / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for size in workloads.SIZES:
            for name in workloads.WORKLOADS:
                for instance in range(workloads.POOL):
                    workload = workloads.make(name, size, instance, Path(tmp))
                    workload.prepare()
                    output = workload.run()
                    entry = workload.record(output)
                    problems = workload.check(output, entry)
                    if problems:
                        print(f"error: {size} {name} {instance}: {problems}", file=sys.stderr)
                        return 1
                    refs.setdefault(size, {}).setdefault(name, {})[str(instance)] = entry
                    print(size, name, instance, entry, flush=True)
    target.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
