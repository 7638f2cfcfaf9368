"""Layer spans recorded around the package's public functions.

The package has no tracing of its own, so the benchmark wraps the
functions each layer exposes, at every name their callers bind them
(``mddtest.harness.fast_statistic_value``, ``mddtest.cli.build_ranks``,
...).  Each wrapped call is one span.  A layer's self time is the time
its spans cover minus the time covered by the spans they call, so the
self times of all layers plus the unattributed remainder add up to the
traced wall time of the operation.

A wrapped function that no longer exists is reported as absent: later
changes are expected to delete or batch some of these functions, and
the rest of the table must still be measured.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("cli", "fileio", "simulate", "metrics", "estimator", "inference", "baselines", "harness")

# (layer, group, functions of mddtest.<layer> that make up the group)
GROUPS = (
    ("cli", "main", ("main",)),
    ("fileio", "load", ("load_matrix_csv", "load_points_csv", "load_labels_csv",
                        "load_preset", "load_grid_json")),
    ("fileio", "write", ("write_json", "write_csv")),
    ("simulate", "generate", ("generate",)),
    ("metrics", "distance", ("euclidean_distances", "sphere_distances", "shape_distances",
                             "load_precomputed")),
    ("estimator", "statistic", ("fast_statistic_value", "estimate_fast")),
    ("estimator", "build_ranks", ("build_ranks",)),
    ("inference", "driver", ("permutation_test", "permutation_test_statistic",
                             "scaling_diagnostic")),
    ("inference", "perm_draw", ("draw_label_permutations",)),
    ("inference", "pvalue", ("pvalue_from_null",)),
    ("baselines", "hhg", ("hhg_statistic_discrete",)),
    ("baselines", "double_center", ("double_center",)),
    ("baselines", "label_distances", ("discrete_label_distances",)),
    ("harness", "grid", ("run_grid",)),
    ("harness", "replicate", ("_run_replicate",)),
)

# metric name -> (unit, layer, group, what): what is "self_s" (self time of
# the group's spans), "calls" (number of spans) or "items" (permutations drawn)
GROUP_METRICS = {
    "estimator.statistic_s": ("s", "estimator", "statistic", "self_s"),
    "estimator.statistic_calls": ("count", "estimator", "statistic", "calls"),
    "estimator.build_ranks_s": ("s", "estimator", "build_ranks", "self_s"),
    "estimator.build_ranks_calls": ("count", "estimator", "build_ranks", "calls"),
    "baselines.hhg_s": ("s", "baselines", "hhg", "self_s"),
    "baselines.hhg_calls": ("count", "baselines", "hhg", "calls"),
    "baselines.double_center_s": ("s", "baselines", "double_center", "self_s"),
    "harness.replicate_self_s": ("s", "harness", "replicate", "self_s"),
    "harness.replicates": ("count", "harness", "replicate", "calls"),
    "inference.perm_draw_s": ("s", "inference", "perm_draw", "self_s"),
    "inference.perms_drawn": ("count", "inference", "perm_draw", "items"),
    "inference.pvalue_s": ("s", "inference", "pvalue", "self_s"),
    "metrics.distance_s": ("s", "metrics", "distance", "self_s"),
    "metrics.distance_calls": ("count", "metrics", "distance", "calls"),
    "simulate.generate_s": ("s", "simulate", "generate", "self_s"),
    "simulate.generate_calls": ("count", "simulate", "generate", "calls"),
    "fileio.load_s": ("s", "fileio", "load", "self_s"),
    "fileio.write_s": ("s", "fileio", "write", "self_s"),
}

TRACE_METRICS = {
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {name: spec[0] for name, spec in GROUP_METRICS.items()}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.peak_alloc_mb"] = "MB"
    units.update(TRACE_METRICS)
    return units


def _mddtest_modules():
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "mddtest" or name.startswith("mddtest."))
    ]


class _Frame:
    __slots__ = ("start", "child_s", "mem_start", "mem_peak")

    def __init__(self, start: float, mem_start: int) -> None:
        self.start = start
        self.child_s = 0.0
        self.mem_start = mem_start
        self.mem_peak = mem_start


class Tracer:
    """Collects span self times and counts per layer, and, once
    ``track_memory`` is called, tracemalloc peaks per layer.

    tracemalloc slows allocation-heavy layers several-fold, so the
    timings come from operations traced without it and the peaks from a
    separate operation traced with it.
    """

    def __init__(self) -> None:
        self._stack: list[_Frame] = []
        self._patches: list[tuple[object, str, object]] = []
        self._memory = False
        self.present: set[tuple[str, str]] = set()
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.items: dict[tuple[str, str], int] = defaultdict(int)
        self.peak_bytes: dict[str, int] = defaultdict(int)

    def track_memory(self) -> None:
        tracemalloc.start()
        self._memory = True

    def _enter(self) -> None:
        current = 0
        if self._memory:
            if self._stack:
                parent = self._stack[-1]
                parent.mem_peak = max(parent.mem_peak, tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
            current = tracemalloc.get_traced_memory()[0]
        self._stack.append(_Frame(time.perf_counter(), current))

    def _exit(self, layer: str, group: str) -> None:
        end = time.perf_counter()
        frame = self._stack.pop()
        duration = end - frame.start
        key = (layer, group)
        self.self_s[key] += duration - frame.child_s
        self.calls[key] += 1
        if self._stack:
            self._stack[-1].child_s += duration
        if self._memory:
            frame.mem_peak = max(frame.mem_peak, tracemalloc.get_traced_memory()[1])
            self.peak_bytes[layer] = max(self.peak_bytes[layer], frame.mem_peak - frame.mem_start)
            if self._stack:
                parent = self._stack[-1]
                parent.mem_peak = max(parent.mem_peak, frame.mem_peak)
                tracemalloc.reset_peak()

    def _wrap(self, layer: str, group: str, fn):
        count_items = group == "perm_draw"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(layer, group)
            if count_items:
                self.items[(layer, group)] += len(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every group function at each name an mddtest module binds it."""
        for layer, group, names in GROUPS:
            try:
                module = importlib.import_module(f"mddtest.{layer}")
            except ImportError:
                continue
            for name in names:
                original = getattr(module, name, None)
                if not callable(original):
                    continue
                self.present.add((layer, group))
                wrapper = self._wrap(layer, group, original)
                for mod in _mddtest_modules():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, value))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        if self._memory:
            tracemalloc.stop()
            self._memory = False
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def _layer_present(self, layer: str) -> bool:
        return any(key[0] == layer for key in self.present)

    def timings(self, wall_s: float) -> dict[str, float | None]:
        """Self times and counts of one traced operation; None marks an absent metric."""
        out: dict[str, float | None] = {}
        for name, (_unit, layer, group, what) in GROUP_METRICS.items():
            key = (layer, group)
            if key not in self.present:
                out[name] = None
            elif what == "self_s":
                out[name] = self.self_s[key]
            elif what == "calls":
                out[name] = float(self.calls[key])
            else:
                out[name] = float(self.items[key])
        attributed = 0.0
        for layer in LAYERS:
            if not self._layer_present(layer):
                out[f"{layer}.self_s"] = None
                continue
            layer_s = sum((v for key, v in self.self_s.items() if key[0] == layer), 0.0)
            attributed += layer_s
            out[f"{layer}.self_s"] = layer_s
        out["trace.wall_s"] = wall_s
        out["trace.unattributed_s"] = wall_s - attributed
        return out

    def peaks(self) -> dict[str, float | None]:
        """Each layer's largest tracemalloc peak over one span, in MB."""
        return {
            f"{layer}.peak_alloc_mb":
                self.peak_bytes[layer] / 2**20 if self._layer_present(layer) else None
            for layer in LAYERS
        }
