"""Unit tests for Karcher means, training balls, and synthetic points."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

import spdrose.synthesis
from spdrose import (
    DegenerateDirection,
    DimensionMismatch,
    EmptyInput,
    NonConvergence,
    SpdMatrix,
    SynthesisConfig,
    TangentVector,
    airm_exp_map,
    airm_log_map,
    generate_synthetic,
    geodesic_distance,
    geodesic_rescale,
    karcher_mean_info,
    keyed_generator,
    spd_power,
    symmetrize,
    training_ball,
)
from spdrose.manifold import _metric_norm

from conftest import blas_thread_env, random_orthogonal, random_spd, two_cluster_pool


def unit_step_karcher(points, tol=1e-8, max_iter=100):
    """Reference fixed-point iteration: unit steps, one log map per point."""
    current = SpdMatrix(sum(p.array for p in points) / len(points))
    iterations = 0
    while True:
        mean_tangent = sum(airm_log_map(current, p).value for p in points) / len(points)
        residual = float(np.linalg.norm(mean_tangent, "fro"))
        if residual <= tol * (1.0 + float(np.linalg.norm(current.array, "fro"))):
            return current, iterations, True
        if iterations >= max_iter:
            return current, iterations, False
        current = airm_exp_map(TangentVector(current, mean_tangent))
        iterations += 1


def random_pool(seed, dim, count, log_spread=2.0):
    rng = np.random.default_rng(seed)
    return [random_spd(rng, dim, log_spread) for _ in range(count)]


def converged_mean(points):
    mean, record = karcher_mean_info(points)
    assert record.converged
    return mean


def test_mean_of_single_point_is_the_point(rng):
    x = random_spd(rng, 3)
    mean = converged_mean([x])
    assert np.allclose(mean.array, x.array, atol=1e-10)


def test_mean_of_commuting_family_is_geometric(rng):
    # Diagonal inputs commute, so the mean is the entrywise geometric
    # mean of the diagonals.
    diags = np.exp(rng.uniform(-1.5, 1.5, size=(6, 4)))
    points = [SpdMatrix(np.diag(d)) for d in diags]
    mean = converged_mean(points)
    expected = np.exp(np.log(diags).mean(axis=0))
    assert np.allclose(mean.array, np.diag(expected), rtol=1e-7, atol=1e-9)


def test_mean_of_two_points_is_geodesic_midpoint(rng):
    for _ in range(10):
        x = random_spd(rng, 3)
        y = random_spd(rng, 3)
        isq = x.inv_sqrt_array
        inner = SpdMatrix(symmetrize(isq @ y.array @ isq))
        midpoint = x.sqrt_array @ spd_power(inner, 0.5).array @ x.sqrt_array
        mean = converged_mean([x, y])
        assert np.allclose(mean.array, midpoint, rtol=1e-6, atol=1e-8)


def test_mean_congruence_equivariance(rng):
    points = [random_spd(rng, 3) for _ in range(5)]
    a = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
    moved = [SpdMatrix(symmetrize(a @ p.array @ a.T)) for p in points]
    lhs = converged_mean(moved).array
    m = converged_mean(points).array
    assert np.allclose(lhs, a @ m @ a.T, rtol=1e-5, atol=1e-7)


def test_mean_info_meets_stopping_rule(rng):
    points = [random_spd(rng, 4) for _ in range(8)]
    mean, record = karcher_mean_info(points, tol=1e-8, max_iter=100)
    assert record.converged
    assert record.iterations <= 100
    assert record.residual <= 1e-8 * (1.0 + np.linalg.norm(mean.array, "fro"))


def test_mean_nonconvergence_carries_state(monkeypatch, rng):
    points = [random_spd(rng, 3) for _ in range(6)]
    monkeypatch.setattr(spdrose.synthesis, "KARCHER_TOL", 1e-300)
    monkeypatch.setattr(spdrose.synthesis, "KARCHER_MAX_ITER", 3)
    with pytest.raises(NonConvergence) as info:
        training_ball(points)
    err = info.value
    assert err.iterations == 3
    assert err.residual > 0.0
    assert isinstance(err.iterate, SpdMatrix)


@pytest.mark.parametrize(
    "pool",
    [
        two_cluster_pool(6, 10, 0.1, 7, [1.0, -1.0, 0.8, -0.6, 0.4, 0.2]),
        random_pool(4, 4, 8),
    ],
    ids=["two-cluster-d6", "random-d4"],
)
def test_mean_matches_unit_step_reference(pool):
    # On pools where the fixed-point iteration converges, the secant step
    # reaches the same mean in no more iterations.
    expected, iterations, converged = unit_step_karcher(pool)
    assert converged
    mean, record = karcher_mean_info(pool)
    assert record.converged
    assert record.iterations <= iterations
    gap = np.linalg.norm(mean.array - expected.array, "fro")
    assert gap <= 1e-7 * np.linalg.norm(expected.array, "fro")


# The pool on which the unit step stalled after 100 steps, then 18 more
# spread pools by one rule: seed 100 + s, d = 3 + s % 4, 6 + s % 5 points.
_SPREAD_POOLS = [(2, 3, 6)] + [(100 + s, 3 + s % 4, 6 + s % 5) for s in range(18)]


@pytest.mark.parametrize(
    "seed, dim, count", _SPREAD_POOLS, ids=[f"seed{s}-d{d}-n{n}" for s, d, n in _SPREAD_POOLS]
)
def test_mean_converges_on_a_widely_spread_pool(seed, dim, count):
    _, record = karcher_mean_info(random_pool(seed, dim, count, log_spread=6.0))
    assert record.converged
    assert record.iterations <= 20


def test_mean_converges_where_unit_step_diverges():
    # Eigenvalues spread over exp(+-5): the unit step overshoots and its
    # residual grows instead of shrinking.
    rng = np.random.default_rng(0)
    points = [random_spd(rng, 5, log_spread=5.0) for _ in range(10)]
    _, _, unit_converged = unit_step_karcher(points)
    assert not unit_converged
    mean, record = karcher_mean_info(points)
    assert record.converged
    assert record.iterations <= 15
    assert record.residual <= 1e-8 * (1.0 + np.linalg.norm(mean.array, "fro"))


# Synthesizes points around 12 d=43 matrices (the descriptor size of
# gabor43) spread so widely that the Karcher step rule halves steps, and
# samples clusters at d=43 and at the degradation workload's d=6 geometry,
# whose stacked congruences reject some candidates; writes them all and
# prints whether the mean converged and how many halvings.
_THREADED_SYNTHESIS = """
import sys
import numpy as np
from spdrose import (
    SpdMatrix, SynthesisConfig, generate_synthetic, karcher_mean_info,
    make_cluster_centers, sample_cluster,
)
from spdrose.seeding import keyed_generator
rng = np.random.default_rng(8)
points = []
for _ in range(12):
    q, _ = np.linalg.qr(rng.standard_normal((43, 43)))
    points.append(SpdMatrix((q * np.exp(rng.uniform(-6.0, 6.0, 43))) @ q.T))
_, record = karcher_mean_info(points)
out = generate_synthetic(points, SynthesisConfig(count=4, seed=1))
out += sample_cluster(points[0], 20, 0.05, keyed_generator(1, 1))
for c, center in enumerate(make_cluster_centers(5, 6, 2.0, seed=20260814)):
    out += sample_cluster(center, 40, 0.25, keyed_generator(1, c + 1))
np.save(sys.argv[1], np.concatenate([p.array.ravel() for p in out]))
print(record.converged, record.halvings)
"""


def test_synthesis_is_identical_across_blas_thread_counts(tmp_path):
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.npy"
        run = subprocess.run(
            [sys.executable, "-c", _THREADED_SYNTHESIS, str(out)],
            env=blas_thread_env(threads), check=True, timeout=120,
            capture_output=True, text=True,
        )
        written.append((out.read_bytes(), run.stdout))
    converged, halvings = written[0][1].split()
    assert converged == "True" and int(halvings) > 0
    assert written[0] == written[1]


def test_mean_input_validation(rng):
    with pytest.raises(EmptyInput):
        karcher_mean_info([])
    with pytest.raises(DimensionMismatch):
        karcher_mean_info([random_spd(rng, 2), random_spd(rng, 3)])


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(tol=float("nan")),
        dict(tol=-1.0),
        dict(tol=0.0),
        dict(tol=float("inf")),
        dict(tol="1e-8"),
        dict(max_iter=-5),
        dict(max_iter=2.5),
        dict(max_iter="3"),
        dict(max_iter=True),
    ],
)
def test_mean_rejects_bad_stopping_rule(rng, kwargs):
    with pytest.raises(ValueError):
        karcher_mean_info([random_spd(rng, 3), random_spd(rng, 3)], **kwargs)


def test_mean_with_no_steps_returns_the_start(rng):
    points = [random_spd(rng, 3) for _ in range(4)]
    mean, record = karcher_mean_info(points, max_iter=0)
    assert not record.converged and record.iterations == 0
    assert np.array_equal(mean.array, sum(p.array for p in points) / 4)


_SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=25)
@given(seed=_SEEDS, dim=st.integers(2, 5), count=st.integers(2, 6))
def test_property_mean_congruence_equivariant(seed, dim, count):
    rng = np.random.default_rng(seed)
    points = [random_spd(rng, dim) for _ in range(count)]
    # Condition number at most e^2, so the congruence loses little precision.
    a = random_orthogonal(rng, dim) * np.exp(rng.uniform(-1.0, 1.0, size=dim))
    moved = [SpdMatrix(symmetrize(a @ p.array @ a.T)) for p in points]
    mean = converged_mean(points).array
    expected = symmetrize(a @ mean @ a.T)
    scale = np.linalg.norm(expected)
    assert np.linalg.norm(converged_mean(moved).array - expected) <= 1e-6 * scale


@settings(max_examples=50)
@given(seed=_SEEDS, dim=st.integers(2, 6), fraction=st.floats(0.0, 2.0))
def test_property_rescale_hits_target_distance(seed, dim, fraction):
    rng = np.random.default_rng(seed)
    pole, x = random_spd(rng, dim), random_spd(rng, dim)
    zeta = fraction * geodesic_distance(pole, x)
    moved = geodesic_rescale(x, pole, zeta)
    assert geodesic_distance(pole, moved) == pytest.approx(zeta, rel=1e-8, abs=1e-7)


def test_training_ball_radius_covers_points(rng):
    for dim in (3, 6, 43):
        points = [random_spd(rng, dim) for _ in range(10)]
        mean, radius = training_ball(points)
        assert mean.array.tobytes() == karcher_mean_info(points)[0].array.tobytes()
        distances = [geodesic_distance(mean, p) for p in points]
        assert radius == max(distances)


def test_rescale_hits_requested_distance(rng):
    for _ in range(50):
        dim = int(rng.integers(2, 6))
        pole = random_spd(rng, dim)
        x = random_spd(rng, dim)
        zeta = float(rng.uniform(0.05, 3.0))
        moved = geodesic_rescale(x, pole, zeta)
        assert geodesic_distance(pole, moved) == pytest.approx(zeta, rel=1e-6)


def test_rescale_to_own_distance_recovers_point(rng):
    for _ in range(20):
        pole = random_spd(rng, 3)
        x = random_spd(rng, 3)
        moved = geodesic_rescale(x, pole, geodesic_distance(pole, x))
        scale = max(np.linalg.norm(x.array), 1.0)
        assert np.linalg.norm(moved.array - x.array) <= 1e-8 * scale


def test_rescale_zero_returns_pole(rng):
    pole = random_spd(rng, 3)
    x = random_spd(rng, 3)
    moved = geodesic_rescale(x, pole, 0.0)
    assert np.allclose(moved.array, pole.array, rtol=1e-10, atol=1e-12)


def test_rescale_stays_on_geodesic(rng):
    # For zeta below the full distance the moved point sits between pole
    # and x, so the two partial distances add up to the whole.
    for _ in range(10):
        pole = random_spd(rng, 3)
        x = random_spd(rng, 3)
        full = geodesic_distance(pole, x)
        zeta = 0.37 * full
        moved = geodesic_rescale(x, pole, zeta)
        assert geodesic_distance(pole, moved) + geodesic_distance(
            moved, x
        ) == pytest.approx(full, rel=1e-8)


def test_rescale_rejects_bad_inputs(rng):
    pole = random_spd(rng, 3)
    with pytest.raises(ValueError):
        geodesic_rescale(random_spd(rng, 3), pole, -0.5)
    with pytest.raises(DimensionMismatch):
        geodesic_rescale(random_spd(rng, 2), pole, 1.0)
    with pytest.raises(DegenerateDirection):
        geodesic_rescale(pole, pole, 1.0)


def test_synthetic_points_stay_in_ball(rng):
    training = [random_spd(rng, 3) for _ in range(8)]
    config = SynthesisConfig(count=200, seed=5)
    mean, radius = training_ball(training)
    for point in generate_synthetic(training, config):
        assert geodesic_distance(mean, point) <= radius + 1e-8


def test_synthetic_deterministic_and_prefix_stable(rng):
    training = [random_spd(rng, 3) for _ in range(6)]
    short = generate_synthetic(training, SynthesisConfig(count=10, seed=42))
    again = generate_synthetic(training, SynthesisConfig(count=10, seed=42))
    longer = generate_synthetic(training, SynthesisConfig(count=25, seed=42))
    for a, b, c in zip(short, again, longer):
        assert np.array_equal(a.array, b.array)
        assert np.array_equal(a.array, c.array)
    other = generate_synthetic(training, SynthesisConfig(count=10, seed=43))
    assert not all(
        np.array_equal(a.array, b.array) for a, b in zip(short, other)
    )


def test_synthetic_count_zero_and_validation(rng):
    training = [random_spd(rng, 3) for _ in range(4)]
    assert generate_synthetic(training, SynthesisConfig(count=0)) == []
    with pytest.raises(EmptyInput):
        generate_synthetic(training[:1], SynthesisConfig(count=1))
    with pytest.raises(ValueError):
        SynthesisConfig(count=-1)
    with pytest.raises(ValueError):
        SynthesisConfig(direction_mode="bogus")


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(count=1.5),
        dict(count=float("nan")),
        dict(count=True),
        dict(seed=2.5),
    ],
)
def test_synthesis_config_rejects_non_integer_counts(kwargs):
    with pytest.raises(ValueError):
        SynthesisConfig(**kwargs)


@pytest.mark.parametrize("mode, per_point", [("tangent_gaussian", 2), ("training_point", 3)])
def test_eigensolves_per_synthetic_point(monkeypatch, mode, per_point):
    # All points share one batched exp map (one eigh), and training-point
    # mode adds one batched log map of the pool; each point adds only the
    # SpdMatrix check of its result (one eigvalsh).
    rng = np.random.default_rng(12)
    training = [random_spd(rng, 6) for _ in range(8)]
    config = SynthesisConfig(count=20, seed=3, direction_mode=mode)
    ball = training_ball(training)
    calls = []

    def counted(solve):
        def wrapper(*args, **kwargs):
            calls.append(solve.__name__)
            return solve(*args, **kwargs)

        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
    assert len(generate_synthetic(training, config, ball=ball)) == 20
    assert len(calls) <= per_point * 20
    assert calls.count("eigh") == (2 if mode == "training_point" else 1)


@settings(max_examples=25, deadline=None)
@given(
    seed=_SEEDS,
    dim=st.integers(2, 6),
    mode=st.sampled_from(["tangent_gaussian", "training_point"]),
)
@example(seed=2**63 + 7, dim=43, mode="tangent_gaussian")
@example(seed=2**63 + 7, dim=43, mode="training_point")
def test_property_each_point_is_one_geodesic_step(seed, dim, mode):
    rng = np.random.default_rng(seed)
    training = [random_spd(rng, dim) for _ in range(5)]
    config = SynthesisConfig(count=6, seed=seed, direction_mode=mode)
    mean, radius = training_ball(training)
    points = generate_synthetic(training, config, ball=(mean, radius))
    for index, point in enumerate(points):
        draws = keyed_generator(seed, index)
        if mode == "training_point":
            target = training[int(draws.integers(len(training)))]
            expected = geodesic_rescale(target, mean, float(draws.uniform()) * radius)
        else:
            tangent = TangentVector(mean, symmetrize(draws.standard_normal((dim, dim))))
            scale = float(draws.uniform()) * radius / _metric_norm(mean, tangent.value)
            expected = airm_exp_map(TangentVector(mean, tangent.value * scale))
        assert np.array_equal(point.array, expected.array)


def test_degenerate_directions_redraw_from_the_same_stream():
    # Centered on the first training point, that point's direction is
    # degenerate, so an index that draws it draws index and delta again.
    training = random_pool(5, 4, 3)
    with pytest.raises(DegenerateDirection):
        geodesic_rescale(training[0], training[0], 1.0)
    config = SynthesisConfig(count=40, seed=6, direction_mode="training_point")
    points = generate_synthetic(training, config, ball=(training[0], 1.0))
    redraws = 0
    for index, point in enumerate(points):
        draws = keyed_generator(6, index)
        while (target := int(draws.integers(3))) == 0:
            draws.uniform()
            redraws += 1
        expected = geodesic_rescale(training[target], training[0], float(draws.uniform()))
        assert np.array_equal(point.array, expected.array)
    assert redraws > 0


def test_training_point_mode_uses_training_directions(rng):
    # With two training points and the mean between them, every
    # synthetic point must lie on one of the two connecting geodesics:
    # partial distances along it add up exactly.
    x = random_spd(rng, 3)
    xinv = spd_power(x, -1.0)
    training = [x, xinv]
    config = SynthesisConfig(count=50, seed=9, direction_mode="training_point")
    mean, radius = training_ball(training)
    for point in generate_synthetic(training, config):
        d_center = geodesic_distance(mean, point)
        on_some_geodesic = any(
            d_center + geodesic_distance(point, t)
            <= geodesic_distance(mean, t) + 1e-6
            for t in training
        )
        assert on_some_geodesic


def test_distance_fractions_are_uniform():
    # Training pair {X, inverse(X)} has its mean at the identity and
    # both points at the same radius, so the distance fraction of each
    # synthetic point reproduces the underlying uniform draw exactly.
    rng = np.random.default_rng(3)
    x = random_spd(rng, 3)
    training = [x, spd_power(x, -1.0)]
    config = SynthesisConfig(count=10000, seed=11, direction_mode="training_point")
    mean, radius = training_ball(training)
    fractions = np.array(
        [
            geodesic_distance(mean, p) / radius
            for p in generate_synthetic(training, config)
        ]
    )
    statistic = stats.kstest(fractions, "uniform").statistic
    assert statistic <= 0.02
