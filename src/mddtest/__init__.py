"""Independence testing between a metric-space sample and a categorical
variable via the metric distributional discrepancy (MDD).

The statistic compares, for every ball induced by a pair of
observations, the conditional distribution of the sample within each
class against the unconditional one.  It needs only pairwise
distances, so it applies to Euclidean data, directions on a sphere,
planar shapes, or any user-supplied metric, and it is invariant under
strictly increasing transforms of the distances.  Inference is by
label permutation.
"""

from .baselines import double_center, hhg_statistic_discrete
from .errors import (
    AsymmetricMatrix,
    CsvFormatError,
    DegenerateLabelsWarning,
    DegenerateShape,
    GridConfigError,
    InvalidB,
    InvalidLabels,
    InvalidR,
    InvalidReps,
    InvalidSpec,
    MddError,
    MetricError,
    NegativeDistance,
    NonFiniteEntry,
    NonFinitePoint,
    NonzeroDiagonal,
    NotUnitNorm,
    OutOfRangePValue,
    SizeMismatch,
    TooFewSamples,
)
from .estimator import (
    LabelVector,
    MddEstimate,
    RankStructure,
    build_ranks,
    estimate_fast,
    estimate_naive,
)
from .harness import (
    CellResult,
    ExperimentGrid,
    TableReport,
    distances_for,
    run_grid,
)
from .inference import (
    CltReport,
    ScalingReport,
    TestResult,
    bh_adjust,
    clt_diagnostic,
    draw_label_permutations,
    fresh_seed,
    permutation_test,
    pvalue_from_null,
    scaling_diagnostic,
)
from .metrics import (
    DistanceMatrix,
    PointSet,
    euclidean_distances,
    load_precomputed,
    shape_distances,
    sphere_distances,
    unit_sphere_embedding,
)
from .simulate import (
    ScenarioSpec,
    gen_ellipse_shapes,
    gen_gaussian,
    gen_sphere_coords,
    gen_vmf,
    generate,
    label_proportions,
    sample_vmf,
)

__version__ = "0.1.0"

__all__ = [
    "AsymmetricMatrix",
    "CellResult",
    "CltReport",
    "CsvFormatError",
    "DegenerateLabelsWarning",
    "DegenerateShape",
    "DistanceMatrix",
    "ExperimentGrid",
    "GridConfigError",
    "InvalidB",
    "InvalidLabels",
    "InvalidR",
    "InvalidReps",
    "InvalidSpec",
    "LabelVector",
    "MddError",
    "MddEstimate",
    "MetricError",
    "NegativeDistance",
    "NonFiniteEntry",
    "NonFinitePoint",
    "NonzeroDiagonal",
    "NotUnitNorm",
    "OutOfRangePValue",
    "PointSet",
    "RankStructure",
    "ScalingReport",
    "ScenarioSpec",
    "SizeMismatch",
    "TableReport",
    "TestResult",
    "TooFewSamples",
    "bh_adjust",
    "build_ranks",
    "clt_diagnostic",
    "double_center",
    "distances_for",
    "draw_label_permutations",
    "estimate_fast",
    "estimate_naive",
    "euclidean_distances",
    "fresh_seed",
    "gen_ellipse_shapes",
    "gen_gaussian",
    "gen_sphere_coords",
    "gen_vmf",
    "generate",
    "hhg_statistic_discrete",
    "label_proportions",
    "load_precomputed",
    "permutation_test",
    "pvalue_from_null",
    "run_grid",
    "sample_vmf",
    "scaling_diagnostic",
    "shape_distances",
    "sphere_distances",
    "unit_sphere_embedding",
]
