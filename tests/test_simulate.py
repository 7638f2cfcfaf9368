import hashlib

import numpy as np
import pytest

from conftest import run_python, traced_peak_bytes

from mddtest import simulate
from mddtest import (
    InvalidR,
    InvalidSpec,
    ScenarioSpec,
    generate,
    label_proportions,
    sample_vmf,
    shape_distances,
)


def ks_against_uniform(x, lo, hi):
    u = np.sort((np.asarray(x) - lo) / (hi - lo))
    n = u.size
    hi_side = np.max(np.arange(1, n + 1) / n - u)
    lo_side = np.max(u - np.arange(0, n) / n)
    return float(max(hi_side, lo_side))


def noiseless(spec, seed):
    """The cell's draw with every noise term set to zero."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "_noise_draws", lambda rng, df, size: np.zeros(size))
        return generate(spec, seed=seed)


def test_label_proportions_closed_form():
    assert np.array_equal(label_proportions(2), np.array([1.0, 2.0]) / 3.0)
    r = np.arange(1, 6)
    assert np.allclose(
        label_proportions(5), 2.0 * (1.0 + (r - 1) / 4.0) / 15.0, atol=1e-15
    )
    assert label_proportions(1).tolist() == [1.0]
    for R in (2, 3, 5, 9):
        assert abs(label_proportions(R).sum() - 1.0) <= 1e-12
        assert np.all(np.diff(label_proportions(R)) > 0)
    with pytest.raises(InvalidR):
        label_proportions(0)


def test_generated_labels_frequencies_and_determinism():
    def draw(R, n, seed):
        return generate(ScenarioSpec(scenario="sim1", R=R, n=n, dim=2), seed=seed)[1]

    labels = draw(3, 100_000, seed=5)
    freq = labels.counts / labels.n
    assert np.abs(freq - label_proportions(3)).max() <= 0.01
    assert np.array_equal(labels.codes, draw(3, 100_000, seed=5).codes)
    assert not np.array_equal(draw(3, 1000, seed=1).codes, draw(3, 1000, seed=2).codes)
    with pytest.raises(InvalidR):
        draw(0, 10, seed=1)
    with pytest.raises(InvalidSpec):
        draw(4, 7, seed=1)


def test_independence_cells_are_uniform():
    spec = ScenarioSpec(scenario="sim2", column=1, R=2, n=4000, dim=4, null=True)
    points, labels = generate(spec, seed=11)
    rows = points.data
    assert points.kind == "euclidean"
    assert np.all(rows[:, 0] == 1.0)
    assert ks_against_uniform(rows[:, 1], -np.pi, np.pi) <= 0.03
    for col in (2, 3):
        assert ks_against_uniform(rows[:, col], -np.pi, np.pi) <= 0.03
    assert labels.num_classes == 2


def test_two_class_windows_and_selective_noise():
    spec = ScenarioSpec(scenario="sim2", column=1, R=2, n=600, dim=3)
    points, labels = noiseless(spec, seed=3)
    phi = points.data[:, 2]
    c1 = labels.codes == 1
    assert phi[c1].min() > np.pi / 5.0 and phi[c1].max() < 4.0 * np.pi / 5.0
    # class 0 keeps the full window
    assert phi[~c1].min() < np.pi / 5.0 or phi[~c1].max() > 4.0 * np.pi / 5.0

    # same seed with heavy-tailed noise: only class-1 rows move
    noisy, labels2 = generate(spec, seed=3)
    assert np.array_equal(labels.codes, labels2.codes)
    assert np.array_equal(points.data[~c1], noisy.data[~c1])
    assert not np.array_equal(points.data[c1], noisy.data[c1])

    wide_pts, wide_labels = noiseless(
        ScenarioSpec(scenario="sim3", column=1, R=2, n=600, dim=3), seed=3
    )
    wide = wide_pts.data[:, 2]
    c1w = wide_labels.codes == 1
    assert wide[c1w].min() > -np.pi / 5.0 and wide[c1w].max() < 4.0 * np.pi / 5.0
    assert wide[c1w].min() < np.pi / 5.0


def test_multiclass_partition_windows():
    spec = ScenarioSpec(scenario="sim2", column=1, R=5, n=1000, dim=3)
    points, labels = noiseless(spec, seed=9)
    phi = points.data[:, 2]
    for r in range(5):
        lo = (-1.0 + 2.0 * r / 5.0) * np.pi
        hi = (-1.0 + 2.0 * (r + 1) / 5.0) * np.pi
        values = phi[labels.codes == r]
        assert values.min() >= lo and values.max() <= hi


def test_multiclass_noise_is_shared_across_coordinates():
    spec = ScenarioSpec(scenario="sim2", column=1, R=5, n=500, dim=5)
    points, _labels = generate(spec, seed=13)
    phi = points.data[:, 2:]
    window_width = 2.0 * np.pi / 5.0
    # one draw per observation shifts all phi coordinates together
    spread = phi.max(axis=1) - phi.min(axis=1)
    assert spread.max() <= window_width + 1e-12
    # the t(1) tails push some rows far outside the circle
    assert np.abs(phi).max() > np.pi


def test_sample_vmf_moments():
    rng = np.random.default_rng(17)
    uniform = sample_vmf(rng, np.array([0.0, 0.0, 1.0]), 0.0, 20000)
    assert np.abs(np.linalg.norm(uniform, axis=1) - 1.0).max() <= 1e-12
    assert np.linalg.norm(uniform.mean(axis=0)) <= 0.03
    mu = np.array([0.0, 2.0, 0.0])  # non-unit mean direction is normalised
    draws = sample_vmf(rng, mu, 1.0, 20000)
    w = draws @ np.array([0.0, 1.0, 0.0])
    # mean cosine to the mean direction at unit concentration in 3-d
    assert abs(w.mean() - 0.31303528549933146) <= 0.02
    tight = sample_vmf(rng, np.array([1.0, 0.0, 0.0]), 200.0, 500)
    assert (tight @ np.array([1.0, 0.0, 0.0])).min() >= 0.9
    with pytest.raises(InvalidSpec):
        sample_vmf(rng, np.array([1.0, 0.0]), -1.0, 5)


def test_a_kappa_without_a_finite_envelope_is_rejected_not_sampled_forever():
    # x0 rounds to 1 (or is NaN) here, so the envelope constant is not finite
    for kappa in (1e16, 1e20, 1e200, float("nan"), float("inf")):
        with pytest.raises(InvalidSpec, match="kappa"):
            sample_vmf(np.random.default_rng(0), np.array([1.0, 0.0, 0.0]), kappa, 5)
    # the bound follows the dimension: 1e16 still has a finite envelope in 6-d
    assert sample_vmf(np.random.default_rng(0), np.eye(6)[0], 1e16, 5).shape == (5, 6)


def test_vmf_rejection_rounds_are_bounded():
    mu = np.eye(1001)[0]
    # about three in four candidates pass at 3.3e18
    assert sample_vmf(np.random.default_rng(0), mu, 3.3e18, 200).shape == (200, 1001)
    # none pass at 3.5e18 or 3.7e18; the subprocess bounds the time if one loops
    proc = run_python(
        "import numpy as np\n"
        "from mddtest import InvalidSpec, sample_vmf\n"
        "for kappa in (3.5e18, 3.7e18):\n"
        "    try:\n"
        "        sample_vmf(np.random.default_rng(0), np.eye(1001)[0], kappa, 200)\n"
        "    except InvalidSpec as exc:\n"
        "        print(exc)\n",
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    for kappa, line in zip(("3.5e+18", "3.7e+18"), lines):
        assert line == (
            f"kappa = {kappa} is too large for the von Mises-Fisher sampler in dimension "
            "1001: 10000 rejection rounds accepted 0 of 200 draws"
        )


def test_gen_vmf_class_directions():
    # at the scenario's unit concentration, class means need many draws to settle
    spec = ScenarioSpec(scenario="sim2", column=2, R=5, n=20000, dim=3)
    points, labels = generate(spec, seed=19)
    assert points.kind == "sphere"
    angles = (4.0, 3.0, 1.0, 5.0, 2.0)
    for r in range(5):
        target = np.array([np.cos(angles[r]), np.sin(angles[r]), 0.0])
        mean = points.data[labels.codes == r].mean(axis=0)
        assert float(mean / np.linalg.norm(mean) @ target) >= 0.95

    two = ScenarioSpec(scenario="sim2", column=2, R=2, n=20000, dim=4)
    pts2, lab2 = generate(two, seed=19)
    for r, angle in ((0, 1.0), (1, 2.0)):
        target = np.zeros(4)
        target[0], target[1] = np.cos(angle), np.sin(angle)
        mean = pts2.data[lab2.codes == r].mean(axis=0)
        assert float(mean / np.linalg.norm(mean) @ target) >= 0.95

    null = generate(
        ScenarioSpec(scenario="sim2", column=2, R=2, n=20000, dim=3, null=True), seed=19
    )[0]
    assert np.linalg.norm(null.data.mean(axis=0)) <= 0.03


def test_gen_gaussian_class_means():
    spec = ScenarioSpec(scenario="sim2", column=3, R=2, n=4000, dim=3)
    points, labels = generate(spec, seed=23)
    for r, mean in ((0, 0.0), (1, 0.6)):
        got = points.data[labels.codes == r].mean()
        assert abs(got - mean) <= 0.1
    five = ScenarioSpec(scenario="sim2", column=3, R=5, n=8000, dim=2)
    pts5, lab5 = generate(five, seed=23)
    for r, mean in enumerate((4.0 / 3.0, 1.0, 1.0 / 3.0, 5.0 / 3.0, 2.0 / 3.0)):
        assert abs(pts5.data[lab5.codes == r].mean() - mean) <= 0.1
    null = ScenarioSpec(scenario="sim2", column=3, R=2, n=4000, dim=3, null=True)
    ptsn, labn = generate(null, seed=23)
    assert abs(ptsn.data[labn.codes == 1].mean()) <= 0.1
    with pytest.raises(InvalidSpec, match="no standard Gaussian means"):
        ScenarioSpec(scenario="sim2", column=3, R=3, n=60, dim=2)
    # a sim1 cell is independent, so any class count draws, every class at mean 0
    pts3, lab3 = generate(ScenarioSpec(scenario="sim1", column=3, R=3, n=6000, dim=2), seed=23)
    for r in range(3):
        assert abs(pts3.data[lab3.codes == r].mean()) <= 0.1


def test_ellipse_shapes_clean_geometry():
    spec = ScenarioSpec(scenario="sim4", R=2, n=80, landmarks=20, corr=0.2)
    points, labels = noiseless(spec, seed=29)
    assert points.kind == "shape"
    d = shape_distances(points).values
    same = labels.codes[:, None] == labels.codes[None, :]
    off = ~np.eye(80, dtype=bool)
    assert d[same & off].max() <= 1e-7
    expected = (np.pi / 2.0 - np.arccos(0.2)) / 2.0
    assert np.abs(d[~same] - expected).max() <= 1e-7

    null = ScenarioSpec(scenario="sim4", R=2, n=40, landmarks=20, corr=0.2, null=True)
    d0 = shape_distances(noiseless(null, seed=29)[0]).values
    assert d0.max() <= 1e-7


def test_ellipse_noise_is_shared_between_coordinates():
    spec = ScenarioSpec(scenario="sim4", R=2, n=30, landmarks=12, corr=0.1)
    points, labels = generate(spec, seed=31)
    clean, _ = noiseless(spec, seed=31)
    residual_x = points.data[:, :, 0] - clean.data[:, :, 0]
    residual_y = points.data[:, :, 1] - clean.data[:, :, 1]
    # subtracting different clean coordinates rounds differently, so the
    # shared draw is recovered only up to an ulp per entry
    assert np.allclose(residual_x, residual_y, rtol=0.0, atol=1e-12)
    assert residual_x.std() > 0


def test_ellipse_shapes_hand_their_configurations_over_uncopied():
    # 800 configurations of 50 landmarks take 0.64 MB; the generator's own
    # temporaries peak at 2.6 times that, and copying the result into the
    # point set read 3.5
    spec = ScenarioSpec(scenario="sim4", R=2, n=800, landmarks=50, corr=0.3)
    points, _ = generate(spec, seed=1)  # warm: first-call imports are not the generator's
    assert not points.data.flags.writeable
    assert traced_peak_bytes(generate, spec, 1) < 3 * points.data.nbytes


def test_ellipse_shapes_validation():
    with pytest.raises(InvalidR):
        ScenarioSpec(scenario="sim4", R=3, n=30)
    with pytest.raises(InvalidSpec):
        ScenarioSpec(scenario="sim4", R=2, n=30, landmarks=2)
    with pytest.raises(InvalidSpec):
        ScenarioSpec(scenario="sim4", R=2, n=30, corr=1.0)
    with pytest.raises(InvalidSpec):
        ScenarioSpec(scenario="sim4", R=2, n=30, corr=-0.2)


def test_scenario_spec_validation():
    with pytest.raises(InvalidSpec):
        ScenarioSpec(scenario="sim9")
    with pytest.raises(InvalidSpec):
        ScenarioSpec(scenario="sim2", column=4)
    with pytest.raises(InvalidR):
        ScenarioSpec(scenario="sim2", R=0)
    with pytest.raises(InvalidSpec):
        ScenarioSpec(scenario="sim2", R=5, n=9)
    with pytest.raises(InvalidSpec):
        ScenarioSpec(scenario="sim2", column=1, dim=2)
    with pytest.raises(InvalidSpec):
        ScenarioSpec(scenario="sim2", column=2, dim=1)
    # cells the generators would reject fail here, before any draw
    with pytest.raises(InvalidR, match="R=2"):
        ScenarioSpec(scenario="sim4", R=3, n=30)
    for scenario, R in (("sim2", 3), ("sim3", 4), ("sim2", 1)):
        with pytest.raises(InvalidSpec, match="no standard Gaussian means"):
            ScenarioSpec(scenario=scenario, column=3, R=R)
    ScenarioSpec(scenario="sim2", column=3, R=3, null=True)
    ScenarioSpec(scenario="sim1", column=3, R=3)
    ScenarioSpec(scenario="sim2", column=2, R=3)


def test_generate_dispatch_and_seed_handling():
    base = dict(R=2, n=24, dim=3)
    cases = (
        (ScenarioSpec(scenario="sim2", column=1, **base), "euclidean"),
        (ScenarioSpec(scenario="sim2", column=2, **base), "sphere"),
        (ScenarioSpec(scenario="sim2", column=3, **base), "euclidean"),
        (ScenarioSpec(scenario="sim4", R=2, n=24, landmarks=8, corr=0.1), "shape"),
    )
    for spec, kind in cases:
        points, labels = generate(spec, seed=37)
        assert points.kind == kind
        again, _ = generate(spec, seed=37)
        assert np.array_equal(points.data, again.data)
        other, _ = generate(spec, seed=38)
        assert not np.array_equal(points.data, other.data)


def test_sim1_always_draws_the_null():
    forced, labels = generate(
        ScenarioSpec(scenario="sim1", column=3, R=2, n=200), seed=43
    )
    null, labels2 = generate(
        ScenarioSpec(scenario="sim2", column=3, R=2, n=200, null=True), seed=43
    )
    assert np.array_equal(forced.data, null.data)
    assert np.array_equal(labels.codes, labels2.codes)


def pinned_specs():
    """Every scenario, column, null flag and R in (2, 3, 5) that ScenarioSpec
    admits, plus three shape cells: 55 specs."""
    specs = []
    for scenario in ("sim1", "sim2", "sim3"):
        for column in (1, 2, 3):
            for R in (2, 3, 5):
                for null in (False, True):
                    dim = 5 if scenario == "sim3" else 4
                    try:
                        specs.append(ScenarioSpec(scenario, column, R, 30, dim, null=null))
                    except InvalidSpec:  # sim2 and sim3 Gaussian rows with R = 3
                        pass
    for corr, null in ((0.0, False), (0.3, False), (0.3, True)):
        specs.append(ScenarioSpec("sim4", n=30, landmarks=8, corr=corr, null=null))
    return specs


# sha256 over kind, points and label codes of every pinned spec at seeds 0, 7
# and 2**64 - 1, recorded at f6aea70, before the draws took their labels and
# null flag from generate
GENERATE_SHA256 = "462f93dada169cc8e78511edb6a7f2470ab3495d4149d271299d94ff4ae4ca06"


def test_generate_keeps_its_bits():
    specs = pinned_specs()
    assert len(specs) == 55
    digest = hashlib.sha256()
    for spec in specs:
        for seed in (0, 7, 2**64 - 1):
            points, labels = generate(spec, seed)
            digest.update(points.kind.encode())
            digest.update(points.data.tobytes())
            digest.update(labels.codes.tobytes())
    assert digest.hexdigest() == GENERATE_SHA256
