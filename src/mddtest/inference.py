"""Permutation inference, multiplicity adjustment and sampling diagnostics.

The permutation test draws label permutations from a counter-based
generator keyed by ``(seed, replicate index)``, so replicate ``b``
always sees the same permutation no matter how or in what order the
replicates are executed.  The p-value uses the add-one convention

    p = (1 + #{b : T_b >= T_observed}) / (B + 1),

which is exact for exchangeable labels and never returns zero.  The MDD
null compares exact integer keys rather than float statistic values, so
a tie ``T_b == T_observed`` always counts as a tie.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .baselines import double_center, hhg_statistic_discrete
from .errors import (
    DegenerateLabelsWarning,
    InvalidB,
    InvalidReps,
    InvalidSpec,
    OutOfRangePValue,
)
from .estimator import (
    MAX_EXACT_N,
    LabelVector,
    RankStructure,
    _ball_kernel,
    _check_sizes,
    _class_forms,
    build_ranks,
    estimate_fast,
)
from .metrics import DistanceMatrix

DEFAULT_PERMUTATIONS = 499
MIN_SCALING_REPS = 20
MIN_CLT_REPS = 100

@dataclass(frozen=True)
class TestResult:
    """Outcome of one permutation test.

    ``scaled`` is ``n * statistic``, the quantity with a nondegenerate
    null limit.  ``per_class`` is the per-class decomposition of the
    observed statistic.
    """

    statistic: float
    scaled: float
    p_value: float
    permutations: int
    seed: int
    n: int
    num_classes: int
    per_class: tuple[float, ...]


def _substream(seed: int, stream: int) -> np.random.Generator:
    # Philox keys are 64 bits wide: any other seed would alias one inside the range
    if not 0 <= seed < 2**64:
        raise InvalidSpec(f"the seed must lie in [0, 2**64), got {seed}")
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def fresh_seed() -> int:
    """A 63-bit seed drawn from system entropy."""
    import secrets  # only a run without a seed needs it; keeps `import mddtest` lean

    return secrets.randbits(63)


def check_permutation_settings(permutations: int, seed: int | None) -> None:
    """Reject a permutation count below 1 or a seed outside [0, 2^64),
    before any work starts.  ``None`` stands for a fresh seed and passes.
    """
    if permutations < 1:
        raise InvalidB(f"permutation count must be >= 1, got {permutations}")
    if seed is not None:
        _substream(seed, 0)  # refuses the seed as every generator would


def _shuffle_rows(values: np.ndarray, seed: int, out: np.ndarray) -> None:
    """Fill row ``b`` of ``out`` with ``values`` shuffled by the ``(seed, b)``
    substream.  One generator is rekeyed per row: a fresh state with key
    ``(seed, b)`` and counter 0 continues exactly as a new ``_substream(seed, b)``
    would.  Fisher-Yates draws the same swaps whatever the values are.
    """
    generator = _substream(seed, 0)
    bits = generator.bit_generator
    state = bits.state
    out[:] = values
    for b, row in enumerate(out):
        state["state"]["key"][1] = b
        bits.state = state
        generator.shuffle(row)


def draw_label_permutations(n: int, permutations: int, seed: int) -> np.ndarray:
    """The ``(permutations, n)`` array of index permutations that defines the
    stream: row ``b`` is ``arange(n)`` shuffled by the ``(seed, b)`` substream,
    independent of execution order, so shuffling codes gives ``codes[row]``.
    """
    check_permutation_settings(permutations, seed)
    out = np.empty((permutations, n), dtype=np.int64)
    _shuffle_rows(np.arange(n), seed, out)
    return out


def pvalue_from_null(observed, null: np.ndarray) -> float:
    """Add-one permutation p-value: (1 + #{T_b >= T}) / (B + 1)."""
    b = null.size
    if b < 1:
        raise InvalidB("need at least one permutation replicate")
    ge = int(np.count_nonzero(null >= observed))
    return (1 + ge) / (b + 1)


def _mdd_keys(d: DistanceMatrix, ranks, labels: LabelVector, codings: np.ndarray) -> np.ndarray:
    """Exact MDD keys ``sum_r q_r * lcm(n_1..n_R) / n_r`` of codings.

    ``q_r = z_r' K z_r`` are the class forms of the ball kernel; the
    statistic increases with the key.  Keys are Python ints, because the
    weighted sum can overflow int64, so any split of a batch keeps them.
    """
    kernel = _ball_kernel(ranks())
    counts = labels.counts.tolist()
    weights = np.array([math.lcm(*counts) // c for c in counts], dtype=object)
    forms = _class_forms(kernel, codings, labels.num_classes)
    return forms.astype(np.int64).astype(object) @ weights


def _dcov_keys(d: DistanceMatrix, ranks, labels: LabelVector, codings: np.ndarray) -> np.ndarray:
    """Keys ``-sum_r z_r' A z_r = n^2 dcov`` of codings, ``A`` the double-centred
    distances.  The float class forms are summed in sorted order, so relabelling
    a partition's classes keeps a key's bits; splitting a batch keeps them only
    along the chunks of ``_class_forms``."""
    forms = _class_forms(double_center(d.values), codings, labels.num_classes)
    return -np.sort(forms, axis=1).sum(axis=1)


def _hhg_keys(d: DistanceMatrix, ranks, labels: LabelVector, codings: np.ndarray) -> np.ndarray:
    """HHG statistics of codings; each is summed on its own, so any split of
    a batch keeps its bits."""
    return hhg_statistic_discrete(ranks(), codings, labels.counts)


# test name -> keys (d, ranks, labels, codings); ranks() returns the rank arrays
NULL_KEYS = {"mdd": _mdd_keys, "dcov": _dcov_keys, "hhg": _hhg_keys}


def _null_pvalues(
    d: DistanceMatrix | None, labels: LabelVector, tests: Sequence[str], permutations: int,
    seed: int, ranks: RankStructure | None = None,
) -> dict[str, float]:
    """p-values of ``tests`` on one dataset over one draw of permutations.  The
    batch is one array, built once: the observed coding, then the label codes
    shuffled in place by each permutation's substream.  Unless given, the rank
    arrays are built only if a test needs them; one test's n^2 key arrays are
    live at once."""
    if (permutations + 1) * labels.n * 8 > np.iinfo(np.intp).max:
        raise InvalidB(f"B = {permutations} codings of n = {labels.n} exceed the address space")
    codings = np.empty((permutations + 1, labels.n), dtype=np.int64)
    codings[0] = labels.codes
    _shuffle_rows(labels.codes, seed, codings[1:])
    built = functools.cache(lambda: build_ranks(d) if ranks is None else ranks)
    out = {}
    for test in tests:
        keys = NULL_KEYS[test](d, built, labels, codings)
        out[test] = pvalue_from_null(keys[0], keys[1:])
    return out


def permutation_test(
    ranks: RankStructure,
    labels: LabelVector,
    permutations: int = DEFAULT_PERMUTATIONS,
    seed: int | None = None,
) -> TestResult:
    """Permutation test of the MDD statistic against label exchange.

    The p-value comes from ``_null_pvalues``, the statistic and per-class
    terms from ``estimate_fast``.  A permutation count below 1, a seed outside
    [0, 2^64), labels that do not match the ranks and n > ``MAX_EXACT_N`` are rejected
    before any draw.  Inputs are never mutated; the same seed gives bit-identical results.
    """
    check_permutation_settings(permutations, seed)
    _check_sizes(ranks.n, labels)
    if ranks.n > MAX_EXACT_N:
        raise InvalidSpec(f"exact permutation keys need n <= {MAX_EXACT_N}, got n = {ranks.n}")
    if seed is None:
        seed = fresh_seed()
    if labels.num_classes == 1:
        warnings.warn(
            "labels hold a single class; the statistic is identically zero "
            "and the permutation p-value is 1",
            DegenerateLabelsWarning,
        )
    p_value = _null_pvalues(None, labels, ("mdd",), permutations, seed, ranks)["mdd"]
    est = estimate_fast(ranks, labels)
    return TestResult(
        statistic=est.value,
        scaled=labels.n * est.value,
        p_value=p_value,
        permutations=permutations,
        seed=seed,
        n=labels.n,
        num_classes=labels.num_classes,
        per_class=est.per_class,
    )


def bh_adjust(p_values: Sequence[float]) -> np.ndarray:
    """Benjamini-Hochberg adjusted p-values in the input order.

    With sorted raw values p_(1) <= ... <= p_(m), the adjusted value at
    rank i is ``min_{j >= i} (m * p_(j) / j)`` clamped to 1; the result
    is mapped back to the original order.  Adjustment preserves order
    and never decreases a p-value.
    """
    raw = np.asarray(p_values, dtype=np.float64)
    if raw.ndim != 1 or raw.size == 0:
        raise OutOfRangePValue("need a non-empty 1-d vector of p-values")
    if not np.isfinite(raw).all() or (raw < 0.0).any() or (raw > 1.0).any():
        raise OutOfRangePValue("p-values must lie in [0, 1]")
    m = raw.size
    order = np.argsort(raw, kind="stable")
    ranked = raw[order] * m / np.arange(1, m + 1)
    adjusted_sorted = np.minimum.accumulate(ranked[::-1])[::-1]
    np.clip(adjusted_sorted, 0.0, 1.0, out=adjusted_sorted)
    out = np.empty(m)
    out[order] = adjusted_sorted
    return out


Generator = Callable[[int, int], tuple]


@dataclass(frozen=True)
class ScalingReport:
    """Medians of ``n * statistic`` over a grid of sample sizes.

    Under dependence the medians should grow with ``n``; under
    independence they should stay within a constant factor.  With a
    single grid entry no monotonicity claim is made.
    """

    n_grid: tuple[int, ...]
    medians: tuple[float, ...]
    reps: int
    strictly_increasing: bool | None
    max_min_ratio: float | None


def _diagnostic_estimates(
    generator: Generator, sizes: Sequence[int], reps: int, seed: int
) -> list[np.ndarray]:
    """Statistic values of ``reps`` fresh replicates at each sample size.

    Replicate ``rep`` at position ``idx`` of ``sizes`` draws its data
    seed from the ``(seed, idx * reps + rep)`` substream.
    """
    out = []
    for idx, n in enumerate(sizes):
        values = np.empty(reps)
        for rep in range(reps):
            rep_seed = int(
                _substream(seed, idx * reps + rep).integers(0, 2**63, dtype=np.int64)
            )
            d, labels = generator(n, rep_seed)
            ranks = build_ranks(d)
            del d  # the estimate reads only the ranks
            values[rep] = estimate_fast(ranks, labels).value
            del ranks, labels  # free this replicate's n^2 arrays before drawing the next
        out.append(values)
    return out


def scaling_diagnostic(
    generator: Generator,
    n_grid: Sequence[int],
    reps: int = 50,
    seed: int = 0,
) -> ScalingReport:
    """Track the median of ``n * statistic`` along ``n_grid``.

    ``generator(n, seed)`` must return a ``(DistanceMatrix,
    LabelVector)`` pair for a fresh replicate.
    """
    if reps < MIN_SCALING_REPS:
        raise InvalidReps(
            f"scaling diagnostic needs at least {MIN_SCALING_REPS} replicates, got {reps}"
        )
    grid = tuple(int(n) for n in n_grid)
    if len(grid) == 0:
        raise InvalidReps("n_grid must be non-empty")
    estimates = _diagnostic_estimates(generator, grid, reps, seed)
    medians = [float(np.median(n * values)) for n, values in zip(grid, estimates)]
    if len(grid) > 1:
        increasing = all(b > a for a, b in zip(medians, medians[1:]))
        ratio = max(medians) / min(medians) if min(medians) > 0 else float("inf")
    else:
        increasing = None
        ratio = None
    return ScalingReport(
        n_grid=grid,
        medians=tuple(medians),
        reps=reps,
        strictly_increasing=increasing,
        max_min_ratio=ratio,
    )


@dataclass(frozen=True)
class CltReport:
    """Variance-halving check for the estimator at ``n`` versus ``2n``.

    When the statistic has a root-n limit away from independence,
    ``variance_ratio = var(n) / var(2n)`` should sit near 2.  When the
    mean estimate is within three standard errors of zero the sample
    looks independence-like and the ratio is flagged as not applicable.
    """

    n: int
    reps: int
    mean_estimate: float
    stderr: float
    variance_ratio: float
    h0_like: bool
    note: str


def clt_diagnostic(
    generator: Generator,
    n: int = 100,
    reps: int = 200,
    seed: int = 0,
) -> CltReport:
    """Compare estimator variance at ``n`` and ``2n`` over replicates."""
    if reps < MIN_CLT_REPS:
        raise InvalidReps(
            f"CLT diagnostic needs at least {MIN_CLT_REPS} replicates, got {reps}"
        )
    small, large = _diagnostic_estimates(generator, (n, 2 * n), reps, seed)
    var_small = float(small.var(ddof=1))
    var_large = float(large.var(ddof=1))
    mean_estimate = float(small.mean())
    stderr = float(small.std(ddof=1) / np.sqrt(reps))
    ratio = var_small / var_large if var_large > 0 else float("inf")
    h0_like = mean_estimate < 3 * stderr
    note = (
        "independence-like sample, variance ratio not applicable"
        if h0_like
        else "variance ratio should sit near 2 under a root-n limit"
    )
    return CltReport(
        n=n,
        reps=reps,
        mean_estimate=mean_estimate,
        stderr=stderr,
        variance_ratio=ratio,
        h0_like=h0_like,
        note=note,
    )
