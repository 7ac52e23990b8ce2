"""Acceptance suite: nine numbered end-to-end checks with pinned tolerances.

Each criterion is one test function, so a verbose run prints one
pass/fail line per criterion (the conftest terminal hook repeats them
in a closing summary).  Data-dependent checks run on frozen seeds and
double as regression tests; the seeds were chosen once and must not be
retuned without re-validating every assertion in this file.
"""

import time

import numpy as np
import pytest

from spdrose import (
    ExperimentConfig,
    KernelParams,
    SpdMatrix,
    SynthesisConfig,
    airm_exp_map,
    airm_log_map,
    build_projection_model,
    degradation_study,
    embed_batch,
    generate_synthetic,
    geodesic_distance,
    geodesic_rescale,
    gram_matrix,
    jl_distortion_report,
    karcher_mean_info,
    load_projection_model,
    make_benchmark,
    run_experiment,
    save_projection_model,
    spd_log,
    spd_power,
    stein_divergence,
)

from conftest import random_orthogonal, random_spd, two_cluster_pool

CLASSIFICATION_SEED = 99
DEGRADATION_SEED = 20260814
EMBEDDING_BUILD_SEED = 145051250800960


def relative_error(value, reference):
    scale = max(np.linalg.norm(reference), 1e-300)
    return np.linalg.norm(value - reference) / scale


@pytest.fixture(scope="module")
def classification_problem():
    bench = make_benchmark(
        2, 6, 100, 0, separation=3.0, spread=0.08, seed=CLASSIFICATION_SEED
    )
    config = ExperimentConfig(
        reps=10, train_per_class=25, seed=CLASSIFICATION_SEED
    )
    return bench, config


@pytest.fixture(scope="module")
def classification_report(classification_problem):
    bench, config = classification_problem
    started = time.perf_counter()
    report = run_experiment(
        list(bench.train_points), np.asarray(bench.train_labels), config
    )
    return report, time.perf_counter() - started


@pytest.fixture(scope="module")
def degradation_problem():
    bench = make_benchmark(
        5, 6, 40, 0, separation=2.0, spread=0.25, seed=DEGRADATION_SEED
    )
    config = ExperimentConfig(
        reps=1,
        train_per_class=20,
        seed=DEGRADATION_SEED,
        sigma=2.5,
        exponent_mode="paper_literal",
    )
    return bench, config


def run_degradation(problem):
    bench, config = problem
    return degradation_study(
        list(bench.train_points),
        np.asarray(bench.train_labels),
        config,
        excluded_class_counts=(0, 1, 2, 3, 4),
        synthetic_budget=50,
    )


@pytest.fixture(scope="module")
def degradation_report(degradation_problem):
    return run_degradation(degradation_problem)


def test_criterion_1_manifold_identities():
    rng = np.random.default_rng(20260814)
    started = time.perf_counter()
    checked = 0
    for dim in range(2, 9):
        for _ in range(30):
            pole = random_spd(rng, dim)
            x = random_spd(rng, dim)
            y = random_spd(rng, dim)

            back = airm_exp_map(airm_log_map(pole, x))
            assert relative_error(back.array, x.array) <= 1e-8

            c = float(rng.uniform(0.25, 2.0) * rng.choice([-1.0, 1.0]))
            assert relative_error(
                spd_log(spd_power(x, c)), c * spd_log(x)
            ) <= 1e-8

            a = (
                random_orthogonal(rng, dim)
                * np.exp(rng.uniform(-1.0, 1.0, size=dim))
            ) @ random_orthogonal(rng, dim)
            base = geodesic_distance(x, y)
            moved = geodesic_distance(
                SpdMatrix(a @ x.array @ a.T), SpdMatrix(a @ y.array @ a.T)
            )
            assert abs(moved - base) / base <= 1e-6
            checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 210
    assert elapsed < 10.0
    print(f"criterion 1: {checked} matrices, d 2..8, {elapsed:.2f}s")


def test_criterion_2_stein_suite():
    rng = np.random.default_rng(20260815)
    for dim in range(2, 9):
        x = random_spd(rng, dim)
        y = random_spd(rng, dim)
        assert stein_divergence(x, x) <= 1e-10
        assert stein_divergence(x, y) == stein_divergence(y, x)

    closed_form = 2.0 * np.log(1.5) - np.log(2.0)
    eye = SpdMatrix(np.eye(2))
    assert abs(stein_divergence(eye, SpdMatrix(2.0 * np.eye(2))) - closed_form) <= 1e-12

    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        p = int(rng.integers(2, 51))
        points = [random_spd(rng, dim) for _ in range(p)]
        divergences = np.zeros((p, p))
        for i in range(p):
            for j in range(i + 1, p):
                divergences[i, j] = divergences[j, i] = stein_divergence(
                    points[i], points[j]
                )
        grid = [0.5 * m for m in range(1, dim)]
        for sigma in grid:
            kernel = np.exp(-sigma * divergences)
            eigenvalues = np.linalg.eigvalsh(kernel)
            worst = max(worst, -eigenvalues[0] / eigenvalues[-1])
            assert eigenvalues[0] >= -1e-10 * eigenvalues[-1]
        # tie the sweep to the public Gram assembly on one grid point
        api = gram_matrix(points, KernelParams(sigma=grid[-1]))
        assert np.allclose(api.entries, np.exp(-grid[-1] * divergences), atol=1e-15)
        assert api.clamped_mass == 0.0
    print(f"criterion 2: closed form ok, worst -lambda_min/lambda_max {worst:.2e}")


def test_criterion_3_rescaling_contract():
    rng = np.random.default_rng(20260816)
    for _ in range(500):
        dim = int(rng.integers(2, 9))
        x = random_spd(rng, dim)
        pole = random_spd(rng, dim)
        zeta = float(rng.uniform(0.05, 3.0))
        moved = geodesic_rescale(x, pole, zeta)
        assert abs(geodesic_distance(pole, moved) - zeta) / zeta <= 1e-6

        exact = geodesic_rescale(x, pole, geodesic_distance(pole, x))
        assert relative_error(exact.array, x.array) <= 1e-8
    print("criterion 3: 500 triples, rel 1e-6; self-distance recovery 1e-8")


def test_criterion_4_synthetic_containment():
    rng = np.random.default_rng(20260817)
    pool = [random_spd(rng, 5, log_spread=1.0) for _ in range(30)]
    config = SynthesisConfig(count=10_000, seed=20260817)
    synthetic = generate_synthetic(pool, config)
    assert len(synthetic) == 10_000

    mean, record = karcher_mean_info(
        pool, tol=config.karcher_tol, max_iter=config.karcher_max_iter
    )
    assert record.converged
    limit = config.karcher_tol * (1.0 + np.linalg.norm(mean.array))
    assert record.residual <= limit

    radius = max(geodesic_distance(mean, p) for p in pool)
    worst = max(geodesic_distance(mean, s) for s in synthetic)
    assert worst <= radius + 1e-8
    print(
        f"criterion 4: 10000 points, max distance {worst:.6f} "
        f"<= radius {radius:.6f} + 1e-8; residual {record.residual:.2e}"
    )


def test_criterion_5_embedding_fidelity():
    started = time.perf_counter()
    pool = two_cluster_pool(5, 20, 0.06, 20260814, [2.0, -2.0, 1.6, -1.2, 0.8])
    params = KernelParams(sigma=0.5)
    medians = []
    for k in (16, 64, 256):
        model = build_projection_model(
            pool, k=k, params=params,
            exponent_mode="whitening", seed=EMBEDDING_BUILD_SEED,
        )
        medians.append(jl_distortion_report(model, pool, 0.49).median_distortion)
    assert medians[0] > medians[1] > medians[2]

    wide = build_projection_model(
        pool, k=1024, params=params,
        exponent_mode="whitening", seed=EMBEDDING_BUILD_SEED,
    )
    fraction = jl_distortion_report(wide, pool, 0.49).fraction_within
    assert fraction >= 0.5
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        "criterion 5: medians "
        + " -> ".join(f"{m:.4f}" for m in medians)
        + f", fraction {fraction:.2f} at k=1024, {elapsed:.1f}s"
    )


def test_criterion_6_degenerate_models():
    rng = np.random.default_rng(20260818)
    x = random_spd(rng, 4)
    probe = random_spd(rng, 4)
    for mode in ("whitening", "paper_literal"):
        model = build_projection_model(
            [x] * 12, k=24, params=KernelParams(sigma=0.5),
            exponent_mode=mode, seed=5,
        )
        assert np.allclose(model.weights, 0.0, atol=1e-12)
        assert np.allclose(embed_batch(model, [probe]), 0.0, atol=1e-12)

    distinct = [random_spd(rng, 4) for _ in range(8)]
    saturated = build_projection_model(
        distinct, k=16, params=KernelParams(sigma=0.5), t=8, seed=5
    )
    assert np.all(saturated.weights == 0.0)
    print("criterion 6: identical references and t=p both give W=0")


def test_criterion_7_end_to_end_classification(
    classification_problem, classification_report
):
    bench, _ = classification_problem
    inter = geodesic_distance(bench.centers[0], bench.centers[1])
    labels = np.asarray(bench.train_labels)
    spread = max(
        geodesic_distance(bench.centers[c], p)
        for c in range(2)
        for p, l in zip(bench.train_points, labels)
        if l == c
    )
    assert inter >= 3.0 * spread

    report, elapsed = classification_report
    assert len(report.records) == 10
    assert report.mean_accuracy >= 0.90
    assert report.mean_accuracy >= report.mean_knn_accuracy - 0.05
    assert elapsed < 300.0
    print(
        f"criterion 7: mean {report.mean_accuracy:.4f} "
        f"(1-NN {report.mean_knn_accuracy:.4f}), margin x{inter / spread:.2f}, "
        f"{elapsed:.1f}s"
    )


def test_criterion_8_degradation_trend(degradation_report):
    rose = degradation_report.arm_means("ROSE")
    roses = degradation_report.arm_means("ROSES")
    assert len(rose) == len(roses) == 5

    for first, second in zip(rose, rose[1:]):
        assert second <= first + 0.02
    coefficients = np.polyfit(range(5), rose, 1)
    assert coefficients[0] <= 0.0
    fitted = np.polyval(coefficients, range(5))
    assert max(abs(f - m) for f, m in zip(fitted, rose)) <= 0.02

    gap_start = roses[0] - rose[0]
    gap_end = roses[4] - rose[4]
    assert gap_end > gap_start
    print(
        "criterion 8: ROSE "
        + " ".join(f"{m:.3f}" for m in rose)
        + " | ROSES "
        + " ".join(f"{m:.3f}" for m in roses)
        + f" | gap {gap_start:+.3f} -> {gap_end:+.3f}"
    )


def test_criterion_9_determinism(
    classification_problem, classification_report,
    degradation_problem, degradation_report, tmp_path,
):
    bench, config = classification_problem
    report, _ = classification_report
    again = run_experiment(
        list(bench.train_points), np.asarray(bench.train_labels), config
    )
    assert again.to_json() == report.to_json()

    assert run_degradation(degradation_problem).to_json() == degradation_report.to_json()

    pool = two_cluster_pool(4, 8, 0.08, 71, [1.8, -1.4, 1.0, -0.6])
    model = build_projection_model(
        pool, k=32, params=KernelParams(sigma=0.5), seed=11
    )
    path = tmp_path / "model.json"
    save_projection_model(path, model)
    restored = load_projection_model(path)
    for a, b in zip(embed_batch(model, pool), embed_batch(restored, pool)):
        assert np.array_equal(a, b)
    print("criterion 9: reports byte-identical; persisted embeddings bit-exact")
