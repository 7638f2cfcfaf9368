"""The benchmark's own test, at toy sizes.

    python3 -m pytest -q perfbench

Checks that every metric BENCHMARK.json names is printed with its
unit, that a corrupted reference is caught and reported by name, and
that the layer tracer reports a missing function as absent.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402



def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(workload: str, trace: int, reference: Path | None = None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "17",
           "--seconds", "1", "--trace", str(trace), "--size", "toy"]
    if reference is not None:
        cmd += ["--reference", str(reference)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_spec_lists_every_metric_the_benchmark_prints():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == layers.metric_units()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    lines, result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert "fail_frac 0 (0 of" in "\n".join(lines)
    absent = next((l.split()[1:] for l in lines if l.startswith("absent ")), [])
    expected = _spec()["per_layer" if trace else "end_to_end"]
    for metric in expected:
        if metric["name"] in absent:
            continue
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert isinstance(result["metrics"][metric["name"]]["value"], float)
        assert f"{metric['name']} " in "\n".join(lines)
    assert len(result["metrics"]) + len(absent) == len(expected)
    provenance = json.loads(next(l for l in lines if l.startswith("provenance "))[11:])
    for key in ("package_version", "numpy_version", "blas_threads", "nproc",
                "git_commit", "seed", "tracing_overhead_s"):
        assert key in provenance


def test_traced_layer_times_account_for_the_traced_wall():
    _, result = _bench("grid_power", 1)
    m = {name: v["value"] for name, v in result["metrics"].items()}
    self_total = sum(m[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert self_total + m["trace.unattributed_s"] == pytest.approx(m["trace.wall_s"])
    assert m["trace.unattributed_s"] < 0.1 * m["trace.wall_s"]
    assert m["harness.replicates"] == 30 and m["baselines.hhg_calls"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_reference_drives_fail_frac_above_zero(workload, tmp_path):
    refs = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    entry = refs["toy"][workload][str(workloads.instance_of(17))]
    key = next(iter(entry))
    entry[key] = {"p_value": 0.5, "report_sha256": "0" * 64, "medians": [1.0, 2.0]}[key]
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(refs), encoding="utf-8")
    lines, result = _bench(workload, 0, corrupted)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert any(l.startswith(f"FAIL {workload} op 0: {key} ") for l in lines)
    frac = next(l for l in lines if l.startswith("fail_frac "))
    assert float(frac.split()[1]) > 0


def test_a_missing_layer_function_is_reported_absent(monkeypatch):
    import mddtest.baselines

    monkeypatch.delattr(mddtest.baselines, "hhg_statistic_discrete")
    tracer = layers.Tracer()
    tracer.install()
    try:
        metrics = tracer.timings(1.0)
    finally:
        tracer.uninstall()
    assert metrics["baselines.hhg_s"] is None
    assert metrics["baselines.hhg_calls"] is None
    assert metrics["baselines.double_center_s"] == 0.0
    assert metrics["baselines.self_s"] == 0.0
    assert tracer.peaks()["baselines.peak_alloc_mb"] == 0.0


def test_uninstall_restores_every_binding():
    import mddtest.harness

    original = mddtest.harness.fast_statistic_value
    tracer = layers.Tracer()
    tracer.install()
    assert mddtest.harness.fast_statistic_value is not original
    tracer.uninstall()
    assert mddtest.harness.fast_statistic_value is original
