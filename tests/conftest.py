"""Shared helpers: random instances, an exact rational reference
evaluation of the statistic, and a two-matrix distance covariance oracle."""

import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np

import mddtest
from mddtest import (
    DistanceMatrix,
    LabelVector,
    PointSet,
    SizeMismatch,
    double_center,
    euclidean_distances,
    shape_distances,
    sphere_distances,
)


def traced_bytes_per_entry(n, fn, *args):
    """The traced allocation peak of ``fn(*args)`` per n^2 entry, result included."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return (tracemalloc.get_traced_memory()[1] - before) / (n * n)
    finally:
        tracemalloc.stop()


def run_python(code, timeout):
    """Run ``code`` in a fresh interpreter that imports this ``mddtest``."""
    paths = [str(Path(mddtest.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=timeout
    )


def random_labels(rng, n, R):
    # redraw until every class appears; LabelVector rejects empty classes
    while True:
        codes = rng.integers(0, R, size=n)
        if np.bincount(codes, minlength=R).min() > 0:
            return LabelVector.from_codes(codes.astype(np.int64), R)


def random_distances(rng, n, kind="euclidean", ties=False):
    if kind == "sphere":
        raw = rng.standard_normal((n, 3))
        raw /= np.sqrt((raw * raw).sum(axis=1, keepdims=True))
        return sphere_distances(PointSet.sphere(raw))
    if kind == "shape":
        return shape_distances(PointSet.shape(rng.standard_normal((n, 4, 2))))
    if ties:
        # small integer grid coordinates force many tied and zero distances
        pts = rng.integers(0, 3, size=(n, 2)).astype(np.float64)
    else:
        pts = rng.standard_normal((n, 3))
    return euclidean_distances(PointSet.euclidean(pts))


def exact_statistic(values, codes, R):
    """Quadruple-loop evaluation of the definition over Fractions.

    Only comparisons touch the distances, so the result is an exact
    rational for any float input.
    """
    n = len(codes)
    counts = [sum(1 for c in codes if c == r) for r in range(R)]
    per_class = []
    for r in range(R):
        acc = Fraction(0)
        for i in range(n):
            for j in range(n):
                ball = [k for k in range(n) if values[i][k] <= values[i][j]]
                f_all = Fraction(len(ball), n)
                f_r = Fraction(sum(1 for k in ball if codes[k] == r), counts[r])
                acc += (f_r - f_all) ** 2
        per_class.append(Fraction(counts[r], n) * acc / n**2)
    return sum(per_class), per_class


def discrete_label_distances(labels: LabelVector) -> DistanceMatrix:
    """The 0/1 discrete metric on label codes."""
    codes = labels.codes
    out = (codes[:, None] != codes[None, :]).astype(np.float64)
    return DistanceMatrix._from_fresh(out)


def dcov_statistic(dx: DistanceMatrix, dy: DistanceMatrix) -> float:
    """Squared distance covariance, V-statistic form.

    The mean of the elementwise product of the two double-centred
    distance matrices, ``(1/n^2) sum_{ij} A_ij B_ij``.
    """
    if dx.n != dy.n:
        raise SizeMismatch(f"distance matrices disagree: {dx.n} vs {dy.n}")
    a = double_center(dx.values)
    b = double_center(dy.values)
    return float(np.mean(a * b))
