import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    euclidean_pair_distances,
    random_distances,
    traced_bytes_per_entry,
    traced_peak_bytes,
)

from mddtest import (
    AsymmetricMatrix,
    DegenerateShape,
    DistanceMatrix,
    MddError,
    MetricError,
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


def test_point_space_violations_are_metric_errors():
    # the package's own error types, so the CLI maps them to exit 3, and
    # still ValueErrors for callers that catch those
    violations = (
        lambda: PointSet("torus", np.eye(2)),
        lambda: PointSet._from_fresh("torus", np.eye(2)),
        lambda: PointSet.euclidean(np.zeros(3)),
        lambda: PointSet.shape(np.zeros((2, 4))),
        lambda: PointSet.shape(np.zeros((2, 2, 2))),
        lambda: euclidean_distances(PointSet.sphere(np.eye(3))),
        lambda: sphere_distances(PointSet.euclidean(np.eye(3))),
        lambda: shape_distances(PointSet.euclidean(np.eye(3))),
        lambda: unit_sphere_embedding(PointSet.sphere(np.eye(3))),
    )
    for violation in violations:
        with pytest.raises(MetricError) as err:
            violation()
        assert isinstance(err.value, MddError) and isinstance(err.value, ValueError)


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
    p = PointSet.euclidean([[0.0], [1.0]])
    assert p.n == 2
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


def test_distance_matrix_copies_a_callers_array():
    # the builders hand over fresh arrays uncopied; a caller's array is copied,
    # even a read-only one, since its owner can still write to it
    for lock in ("writeable", "read-only", "read-only view"):
        arr = np.array([[0.0, 2.0], [2.0, 0.0]])
        given = arr.view() if lock == "read-only view" else arr
        given.flags.writeable = lock == "writeable"
        d = DistanceMatrix(given)
        arr.flags.writeable = True
        arr[0, 1] = arr[1, 0] = 5.0
        assert d.values.tolist() == [[0.0, 2.0], [2.0, 0.0]], lock


def test_point_set_copies_a_callers_array_and_adopts_a_fresh_one():
    # the public constructors copy, even a read-only view, since its owner can
    # still write to it; the generators hand their own arrays over uncopied
    rows = np.array([[0.0, 1.0], [1.0, 0.0]])
    configs = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]]])
    for build, data in ((PointSet.euclidean, rows), (PointSet.sphere, rows), (PointSet.shape, configs)):
        for lock in ("writeable", "read-only view"):
            arr = data.copy()
            given = arr.view() if lock == "read-only view" else arr
            given.flags.writeable = lock == "writeable"
            points = build(given)
            arr[0] = 7.0
            assert np.array_equal(points.data, data), (points.kind, lock)
    fresh = rows.copy()
    adopted = PointSet._from_fresh("sphere", fresh)
    assert adopted.data is fresh and not fresh.flags.writeable
    assert adopted.kind == "sphere" and adopted.n == 2
    with pytest.raises(NotUnitNorm):
        PointSet._from_fresh("sphere", 2.0 * rows)
    with pytest.raises(DegenerateShape):
        PointSet._from_fresh("shape", np.zeros((2, 3, 2)))
    with pytest.raises(NonFinitePoint):
        PointSet._from_fresh("euclidean", np.array([[0.0, np.inf], [1.0, 2.0]]))
    with pytest.raises(ValueError):
        PointSet._from_fresh("torus", rows.copy())


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


def test_a_signed_zero_diagonal_is_stored_as_positive_zero():
    # -0.0 passes as a zero diagonal and is stored as +0.0; off the diagonal it is kept
    signed = DistanceMatrix([[-0.0, -0.0], [-0.0, 0.0]]).values
    assert not np.signbit(np.diagonal(signed)).any() and np.signbit(signed[0, 1])


def test_load_precomputed_repairs_a_copy_not_the_callers_array():
    skew = np.array([[0.0, 1.0 + 5e-10, 2.0], [1.0, 1e-13, 3.0], [2.0, 3.0, 0.0]])
    kept = skew.copy()
    out = load_precomputed(skew).values
    assert out[0, 1] == out[1, 0] == (1.0 + 5e-10) / 2.0 + 0.5 and out[1, 1] == 0.0
    assert skew.flags.writeable and skew.tobytes() == kept.tobytes()


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
    # one fault each: the first check that fails names the class
    single_faults = (
        ([[-1e-13, 1.0], [1.0, 0.0]], NegativeDistance),
        ([[np.nan, 1.0], [1.0, 0.0]], NonFiniteEntry),
        ([[0.0, np.inf], [1.0, 0.0]], NonFiniteEntry),
        ([[1e-6, 1.0], [2.0, 0.0]], AsymmetricMatrix),
    )
    for matrix, error in single_faults:
        with pytest.raises(error):
            load_precomputed(np.array(matrix))


def test_load_precomputed_holds_its_copy_and_one_bool_per_entry():
    # the copy (8 bytes per entry) and the skew mask (1); an asymmetry measured
    # through two whole n^2 float64 temporaries reads 16.0
    n = 1000
    values = random_distances(np.random.default_rng(4), n).values.copy()
    values[3, 7] += 1e-12
    assert traced_bytes_per_entry(n, load_precomputed, values) < 12


def test_public_constructors_copy_a_list_once():
    rng = np.random.default_rng(6)
    values = random_distances(rng, 300).values
    assert traced_peak_bytes(DistanceMatrix, values.tolist()) < 1.5 * values.nbytes
    # numpy's list conversion also holds a few dozen bytes per row, so rows are wide
    rows = rng.standard_normal((500, 64))
    assert traced_peak_bytes(PointSet.euclidean, rows.tolist()) < 1.5 * rows.nbytes


def test_unit_sphere_embedding():
    rows = np.array([[2.0, 0.0, 0.0], [0.0, 0.0, -3.0], [1.0, 1.0, 1.0]])
    embedded = unit_sphere_embedding(PointSet.euclidean(rows))
    assert embedded.kind == "sphere"
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


# sha256 of the distance bytes, recorded before the builders wrote in place
DISTANCE_SHA256 = {
    ("shape", 2, 0): "5ebc5738546bba49434e4212d2dfb0d40181fb6302f4dcd3c2cad31eb0a4e885",
    ("shape", 2, 1): "02be4f23062a620a431361e5285992dfd11f6a1be28d175694c947c8d5e27752",
    ("shape", 3, 0): "90fe2f86bf7374f4d3121682d0071aded8e698f502c00f97a3a4fca9fef5164b",
    ("shape", 3, 1): "7eab5687fafa4a6b2df3b992da83f0873b2ef036f176e82778c997b3806d8f69",
    ("shape", 161, 0): "072c19a98e4d8b6ad4767e3d55e8d77a6ad46536f08422ae06e4866168c4e3e7",
    ("shape", 161, 1): "aa043f70e13562356e1c46ae4d3563e8a868f6acabb35a594658030083659fd0",
    ("shape", 800, 0): "2d4fba966ee6d7c38d827caa4db9ee07aa88b83c83c13b1bf8c650f69cab89f4",
    ("shape", 800, 1): "6caefdd2bbb7437175d3fcb086d57dec4f3ba02b324a50cc8e154ccc1eed35e1",
    ("sphere", 2, 0): "f5eef2ef92e233ab57e73dc81d1f585489f5e4cb425824bc01f60e488a5c06c5",
    ("sphere", 2, 1): "43bfa2a506ecba663222c2e48e0c06b4c1f3c1b735ea60333f932e70d5dd7ae6",
    ("sphere", 3, 0): "198c3b74cfb422f39144f96deb250a945f9171ec7fc1aace894676a53b7b0cc7",
    ("sphere", 3, 1): "091bff5317f8a585e365473b207dc3dbc1c04d135b6883da59ece103f56f5b07",
    ("sphere", 161, 0): "b3547b40b96c218708bb989e17e782928e9bedb1b70265515ba16591ba1e6464",
    ("sphere", 161, 1): "3c73a315492d35b3c94d165b740e2605ab65ac2cb23d4743156dc8a1098a3de9",
    ("sphere", 800, 0): "9f9a5d68d7098ca5565831478bcd9ea1644e46bb2da80c711742413d0d372c93",
    ("sphere", 800, 1): "7bd091366cb5ce45bd97f87185e983c86fc993a664e56cfaeb8280817e051db5",
    # recorded from the pair formula, before the rows were taken in blocks
    ("euclidean", 161, 0): "77f38a58d7290765e610be41873e2233a5b5e1e69bb9f3d14ada9443872f9803",
    ("euclidean", 800, 1): "5e2ef5c2f9c769eb7c69c376b73744358e023efd0db6120ebbf58a60ca3b82db",
    ("euclidean", 300, 0): "61f08dd7cd2c1d161668fabe373a65cd3c3236b788ffb2e9e32ca3342b28c603",
}
# points of the euclidean pins: default_rng(seed).standard_normal((n, dim))
EUCLIDEAN_PIN_DIM = {161: 3, 800: 3, 300: 128}


def test_distances_keep_their_bytes():
    for (kind, n, seed), expected in DISTANCE_SHA256.items():
        rng = np.random.default_rng(seed)
        if kind == "shape":
            d = shape_distances(PointSet.shape(rng.standard_normal((n, 5, 2))))
        elif kind == "euclidean":
            points = PointSet.euclidean(rng.standard_normal((n, EUCLIDEAN_PIN_DIM[n])))
            d = euclidean_distances(points)
        else:
            rows = rng.standard_normal((n, 3))
            d = sphere_distances(PointSet.sphere(rows / np.linalg.norm(rows, axis=1)[:, None]))
        assert hashlib.sha256(d.values.tobytes()).hexdigest() == expected, (kind, n, seed)


@st.composite
def euclidean_samples(draw):
    """Points whose pair sums of squares stay finite: normal rows at one
    magnitude or with a magnitude per coordinate, small-integer grids,
    and rows repeated from a pool of three."""
    n = draw(st.integers(2, 120))
    dim = draw(st.integers(0, 600))
    style = draw(st.sampled_from(["scaled", "mixed", "grid", "duplicates"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if style == "grid":
        return rng.integers(-2, 3, size=(n, dim)).astype(np.float64)
    if style == "mixed":
        return rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-150, 151, size=(n, dim))
    scale = 10.0 ** draw(st.integers(-150, 150))
    if style == "duplicates":
        return (rng.standard_normal((3, dim)) * scale)[rng.integers(0, 3, size=n)]
    return rng.standard_normal((n, dim)) * scale


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(points=euclidean_samples())
@example(points=np.zeros((5, 0)))  # no coordinates: all distances zero
def test_euclidean_distances_match_the_pair_formula_byte_for_byte(points):
    d = euclidean_distances(PointSet.euclidean(points))
    assert d.values.tobytes() == euclidean_pair_distances(points).tobytes()


def test_euclidean_overflow_raises_in_any_row_block():
    # 500 rows of 3 coordinates take 6 row blocks; the overflowing pair
    # lies in the last one and in the first
    points = np.random.default_rng(5).standard_normal((500, 3))
    points[[30, 480], 0] = (1e200, -1e200)
    for build in (euclidean_pair_distances, lambda p: euclidean_distances(PointSet.euclidean(p))):
        with pytest.raises(NonFiniteEntry, match="overflows"):
            build(points)


def test_euclidean_distances_hold_few_bytes_per_entry():
    # the pair formula peaked at 33 and 1,030 bytes per entry here; the
    # result is 8, and a row block's temporaries are about 1 MB
    for n, dim in ((1000, 3), (600, 128)):
        points = PointSet.euclidean(np.random.default_rng(dim).standard_normal((n, dim)))
        assert traced_bytes_per_entry(n, euclidean_distances, points) < 16, (n, dim)
