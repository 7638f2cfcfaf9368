import numpy as np
import pytest

from mddtest import (
    AsymmetricMatrix,
    DegenerateShape,
    DistanceMatrix,
    NegativeDistance,
    NonFiniteEntry,
    NonFinitePoint,
    NonzeroDiagonal,
    NotUnitNorm,
    PointSet,
    TooFewSamples,
    euclidean_distances,
    load_precomputed,
    shape_distances,
    sphere_distances,
    unit_sphere_embedding,
)


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def test_euclidean_worked_example():
    d = euclidean_distances(PointSet.euclidean([[0.0, 0.0], [3.0, 4.0]]))
    assert d.values[0, 1] == 5.0
    assert d.values[1, 0] == 5.0
    assert d.values[0, 0] == 0.0


def test_euclidean_matches_norm_loop():
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((12, 4))
    d = euclidean_distances(PointSet.euclidean(pts))
    for i in range(12):
        for j in range(12):
            assert abs(d.values[i, j] - np.linalg.norm(pts[i] - pts[j])) <= 1e-12
    assert np.array_equal(d.values, d.values.T)
    assert np.all(np.diagonal(d.values) == 0.0)


def test_euclidean_rigid_motion_invariance():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((10, 2))
    moved = pts @ rotation(0.83).T + np.array([5.0, -2.0])
    d0 = euclidean_distances(PointSet.euclidean(pts))
    d1 = euclidean_distances(PointSet.euclidean(moved))
    assert np.abs(d0.values - d1.values).max() <= 1e-9


def test_euclidean_triangle_inequality():
    rng = np.random.default_rng(3)
    d = euclidean_distances(PointSet.euclidean(rng.standard_normal((20, 3)))).values
    assert np.all(d[:, None, :] <= d[:, :, None] + d[None, :, :] + 1e-12)


def test_euclidean_rejects_other_kinds():
    sphere = PointSet.sphere(np.eye(3))
    with pytest.raises(ValueError):
        euclidean_distances(sphere)
    with pytest.raises(ValueError):
        sphere_distances(PointSet.euclidean(np.eye(3)))


def test_sphere_worked_angles():
    rows = np.array(
        [
            [1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0), 0.0],
        ]
    )
    d = sphere_distances(PointSet.sphere(rows)).values
    assert abs(d[0, 1] - np.pi) <= 1e-12
    assert abs(d[0, 2] - np.pi / 2.0) <= 1e-12
    assert abs(d[0, 3] - np.pi / 4.0) <= 1e-12
    assert d.min() >= 0.0 and d.max() <= np.pi


def test_sphere_rotation_invariance():
    rng = np.random.default_rng(4)
    raw = rng.standard_normal((15, 3))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    d0 = sphere_distances(PointSet.sphere(raw)).values
    d1 = sphere_distances(PointSet.sphere(raw @ q.T)).values
    assert np.abs(d0 - d1).max() <= 1e-9


def test_sphere_unit_norm_tolerance():
    ok = np.array([[1.0 + 5e-10, 0.0], [0.0, 1.0]])
    sphere_distances(PointSet.sphere(ok))
    with pytest.raises(NotUnitNorm):
        PointSet.sphere(np.array([[1.0 + 1e-8, 0.0], [0.0, 1.0]]))


def test_shape_zero_for_similarity_transforms():
    rng = np.random.default_rng(5)
    cfg = rng.standard_normal((6, 2))
    moved = 3.7 * cfg @ rotation(1.1).T + np.array([2.0, -1.0])
    d = shape_distances(PointSet.shape(np.stack([cfg, moved, cfg])))
    # arccos loses half the digits next to 1, so 1e-7 is the honest bound
    assert d.values[0, 1] <= 1e-7
    assert d.values[0, 2] <= 1e-7


def test_shape_equilateral_vs_collinear_quarter_pi():
    equilateral = [[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]]
    collinear = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
    d = shape_distances(PointSet.shape(np.array([equilateral, collinear])))
    assert abs(d.values[0, 1] - np.pi / 4.0) <= 1e-12


def preshape(cfg):
    z = cfg[:, 0] + 1j * cfg[:, 1]
    z = z - z.mean()
    return z / np.linalg.norm(z)


def procrustes_min_rss(a, b, steps=4096, refine=80):
    """Residual of the best rotation-and-scale fit of preshape a onto b.

    Coarse rotation grid then ternary refinement; for each rotation the
    optimal scale is the matched real inner product.
    """
    za, zb = preshape(a), preshape(b)

    def rss(theta):
        inner = float(np.real(np.sum(zb * np.conj(za * np.exp(1j * theta)))))
        return 1.0 - inner * inner

    grid = np.linspace(0.0, 2.0 * np.pi, steps, endpoint=False)
    vals = [rss(t) for t in grid]
    k = int(np.argmin(vals))
    lo = grid[k] - 2.0 * np.pi / steps
    hi = grid[k] + 2.0 * np.pi / steps
    for _ in range(refine):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if rss(m1) <= rss(m2):
            hi = m2
        else:
            lo = m1
    return max(0.0, min(vals[k], rss(lo), rss(hi)))


def test_shape_distance_matches_procrustes_fit():
    # the distance and the best-fit residual satisfy rss = sin(d)^2
    rng = np.random.default_rng(6)
    configs = rng.standard_normal((4, 5, 2))
    d = shape_distances(PointSet.shape(configs)).values
    for i in range(4):
        for j in range(i + 1, 4):
            rss = procrustes_min_rss(configs[i], configs[j])
            assert abs(np.sin(d[i, j]) ** 2 - rss) <= 1e-8


def test_shape_range_and_per_config_invariance():
    rng = np.random.default_rng(7)
    configs = rng.standard_normal((8, 6, 2))
    d0 = shape_distances(PointSet.shape(configs)).values
    assert d0.min() >= 0.0 and d0.max() <= np.pi / 2.0 + 1e-12
    moved = np.empty_like(configs)
    for idx in range(8):
        scale = 0.5 + rng.uniform()
        shift = rng.standard_normal(2)
        moved[idx] = scale * configs[idx] @ rotation(rng.uniform(0, 2 * np.pi)).T + shift
    d1 = shape_distances(PointSet.shape(moved)).values
    assert np.abs(d0 - d1).max() <= 1e-9


def test_shape_degenerate_configuration_rejected():
    flat = np.zeros((2, 4, 2))
    flat[1] = np.arange(8).reshape(4, 2)
    with pytest.raises(DegenerateShape):
        PointSet.shape(flat)


def test_point_set_validation():
    with pytest.raises(ValueError):
        PointSet("torus", np.eye(2))
    with pytest.raises(TooFewSamples):
        PointSet.euclidean([[1.0, 2.0]])
    with pytest.raises(NonFinitePoint):
        PointSet.euclidean([[0.0, np.nan], [1.0, 2.0]])
    with pytest.raises(ValueError):
        PointSet.shape(np.zeros((2, 4)))
    with pytest.raises(ValueError):
        PointSet.shape(np.zeros((2, 2, 2)))  # needs at least 3 landmarks
    p = PointSet.euclidean([[0.0], [1.0]], descriptor="pair")
    assert p.n == 2 and p.descriptor == "pair"
    assert not p.data.flags.writeable


def test_distance_matrix_validation():
    with pytest.raises(TooFewSamples):
        DistanceMatrix(np.zeros((1, 1)))
    with pytest.raises(AsymmetricMatrix):
        DistanceMatrix(np.zeros((2, 3)))
    with pytest.raises(AsymmetricMatrix):
        DistanceMatrix(np.array([[0.0, 1.0], [1.0 + 1e-12, 0.0]]))
    with pytest.raises(NegativeDistance):
        DistanceMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(NonzeroDiagonal):
        DistanceMatrix(np.array([[1e-13, 1.0], [1.0, 0.0]]))
    with pytest.raises(NonFiniteEntry):
        DistanceMatrix(np.array([[0.0, np.inf], [np.inf, 0.0]]))
    d = DistanceMatrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
    assert d.n == 2
    assert not d.values.flags.writeable


def test_load_precomputed_accepts_and_symmetrises():
    base = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
    assert np.array_equal(load_precomputed(base).values, base)
    skew = base.copy()
    skew[0, 1] += 5e-10
    out = load_precomputed(skew).values
    assert np.array_equal(out, out.T)
    assert abs(out[0, 1] - (base[0, 1] + 2.5e-10)) <= 1e-15
    tiny_diag = base.copy()
    tiny_diag[1, 1] = 1e-13
    assert load_precomputed(tiny_diag).values[1, 1] == 0.0


def test_load_precomputed_rejections():
    with pytest.raises(AsymmetricMatrix):
        load_precomputed(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(AsymmetricMatrix):
        load_precomputed(np.zeros((2, 3)))
    with pytest.raises(NegativeDistance):
        load_precomputed(np.array([[0.0, -0.5], [-0.5, 0.0]]))
    with pytest.raises(NonzeroDiagonal):
        load_precomputed(np.array([[1e-6, 1.0], [1.0, 0.0]]))
    with pytest.raises(NonFiniteEntry):
        load_precomputed(np.array([[0.0, np.nan], [np.nan, 0.0]]))
    for empty in (np.empty((0, 0)), np.zeros((1, 1))):
        with pytest.raises(TooFewSamples):
            load_precomputed(empty)


def test_unit_sphere_embedding():
    rows = np.array([[2.0, 0.0, 0.0], [0.0, 0.0, -3.0], [1.0, 1.0, 1.0]])
    embedded = unit_sphere_embedding(PointSet.euclidean(rows, "coords"))
    assert embedded.kind == "sphere"
    assert embedded.descriptor == "coords"
    norms = np.linalg.norm(embedded.data, axis=1)
    assert np.abs(norms - 1.0).max() <= 1e-12
    with pytest.raises(DegenerateShape):
        unit_sphere_embedding(PointSet.euclidean([[0.0, 0.0], [1.0, 0.0]]))


def test_load_precomputed_averages_without_overflow():
    # (a + b) / 2 overflows to inf here; the exactly symmetric entries must be
    # kept, and under the suite's RuntimeWarning filter a warning would fail
    big = np.array([[0.0, 1e308, 1.7e308], [1e308, 0.0, 5.0], [1.7e308, 5.0, 0.0]])
    assert np.array_equal(load_precomputed(big).values, big)
    near = np.array([[0.0, 1e-300], [2e-300, 0.0]])
    assert load_precomputed(near).values[0, 1] == 1.5e-300
