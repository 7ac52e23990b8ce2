"""Unit tests for the kernel-space random-projection embedding."""

import itertools
import json

import numpy as np
import pytest

import spdrose.embedding
import spdrose.stein
from spdrose import (
    DimensionMismatch,
    EmptyInput,
    KernelParams,
    ParseError,
    SpdMatrix,
    TSampleTooLarge,
    binarize,
    build_projection_model,
    default_exemplar_count,
    divergence_matrix,
    embed_batch,
    expected_distance_sq,
    gram_matrix,
    jl_distortion_report,
    load_projection_model,
    save_projection_model,
    sigma_guarantees_psd,
    stein_kernel_value,
)

from spdrose.manifold import EIGENVALUE_FLOOR_RTOL

from conftest import random_orthogonal, random_spd, two_cluster_pool


def small_pool(rng, count=8, dim=3):
    return [random_spd(rng, dim, log_spread=1.0) for _ in range(count)]


def build(pool, k, params, **kwargs):
    """A model on ``pool`` with the pool's own divergence block."""
    pool = list(pool)
    return build_projection_model(pool, divergence_matrix(pool, pool), k, params, **kwargs)


def embed(model, points):
    """Embeddings of ``points`` from their divergences to the reference pool."""
    return embed_batch(model, divergence_matrix(points, model.reference_points))


def jl_report(model, points, epsilon):
    divergences = divergence_matrix(points, model.reference_points)
    return jl_distortion_report(model, divergences, epsilon)


def kernel_row(model, x):
    """Kernel values of ``x`` against the model's reference pool."""
    return np.array(
        [stein_kernel_value(ref, x, model.kernel_params) for ref in model.reference_points]
    )


def test_default_exemplar_count():
    assert default_exemplar_count(4) == 1
    assert default_exemplar_count(7) == 2
    assert default_exemplar_count(8) == 2
    assert default_exemplar_count(40) == 10
    assert default_exemplar_count(119) == 30
    assert default_exemplar_count(121) == 30


def test_build_validation(rng):
    pool = small_pool(rng)
    params = KernelParams(0.5)
    with pytest.raises(EmptyInput):
        build(pool[:1], 4, params)
    with pytest.raises(ValueError):
        build(pool, 0, params)
    with pytest.raises(ValueError):
        build(pool, 4, params, exponent_mode="inverse")
    with pytest.raises(ValueError):
        build(pool, 4, params, t=0)
    with pytest.raises(TSampleTooLarge):
        build(pool, 4, params, t=len(pool) + 1)
    with pytest.raises(DimensionMismatch):
        build_projection_model(pool, divergence_matrix(pool[1:], pool[1:]), 4, params)


def test_model_shape_and_defaults(rng):
    pool = small_pool(rng, count=12)
    model = build(pool, 7, KernelParams(1.0), seed=3)
    assert model.p == 12
    assert model.k == 7
    assert model.dim == 3
    assert model.t == default_exemplar_count(12)
    assert model.exponent_mode == "whitening"
    assert model.exponent == -0.5
    assert model.weights.shape == (12, 7)
    assert model.seed == 3


def test_identical_references_give_zero_weights(rng):
    x = random_spd(rng, 3)
    pool = [x] * 6
    for mode in ("whitening", "paper_literal"):
        model = build(pool, 5, KernelParams(0.5), exponent_mode=mode)
        assert np.allclose(model.weights, 0.0, atol=1e-12)
        assert np.allclose(embed(model, [random_spd(rng, 3)]), 0.0, atol=1e-12)


def test_full_exemplar_sample_gives_exact_zero_weights(rng):
    pool = small_pool(rng, count=6)
    for mode in ("whitening", "paper_literal"):
        model = build(
            pool, 4, KernelParams(0.5), t=6, exponent_mode=mode
        )
        assert np.array_equal(model.weights, np.zeros((6, 4)))
        assert np.array_equal(embed(model, pool[:1]), np.zeros((1, 4)))


def test_build_is_deterministic(rng):
    pool = small_pool(rng)
    a = build(pool, 6, KernelParams(0.5), seed=11)
    b = build(pool, 6, KernelParams(0.5), seed=11)
    assert np.array_equal(a.weights, b.weights)
    c = build(pool, 6, KernelParams(0.5), seed=982451653)
    assert not np.array_equal(a.weights, c.weights)


def test_growing_k_preserves_earlier_hyperplanes(rng):
    pool = small_pool(rng, count=10)
    small = build(pool, 4, KernelParams(0.5), seed=77)
    large = build(pool, 16, KernelParams(0.5), seed=77)
    assert np.array_equal(small.weights, large.weights[:, :4])


def test_embed_is_weighted_kernel_vector(rng):
    pool = small_pool(rng, count=9)
    model = build(pool, 5, KernelParams(0.5), seed=2)
    x = random_spd(rng, 3)
    kappa = kernel_row(model, x)
    assert np.array_equal(embed(model, [x]), (model.weights.T @ kappa)[None])


def test_embed_batch_matches_loop(rng):
    # Each row equals the point embedded alone, in a read-only (n, k) array.
    pool = small_pool(rng)
    model = build(pool, 4, KernelParams(0.5))
    queries = [random_spd(rng, 3) for _ in range(5)]
    batch = embed(model, queries)
    assert batch.shape == (5, 4)
    assert not batch.flags.writeable
    for got, x in zip(batch, queries):
        assert np.array_equal(got, embed(model, [x])[0])
    assert embed(model, []).shape == (0, 4)


def test_embed_rejects_wrong_dimension(rng):
    model = build(small_pool(rng, dim=3), 4, KernelParams(0.5))
    with pytest.raises(DimensionMismatch):
        embed(model, [random_spd(rng, 4)])
    with pytest.raises(DimensionMismatch):
        embed(model, [random_spd(rng, 3), random_spd(rng, 2)])
    with pytest.raises(DimensionMismatch):
        embed_batch(model, np.zeros((1, model.p + 1)))


def test_binarize_sign_convention():
    bits = binarize(np.array([-1.5, 0.0, 2.0, -0.0]))
    assert bits.dtype == np.uint8
    assert bits.tolist() == [0, 1, 1, 1]


def test_expected_distance_matches_exhaustive_enumeration(rng):
    # Brute force over all C(p, t) exemplar subsets: the closed form
    # must equal the exact average of the squared hyperplane response.
    pool = small_pool(rng, count=5)
    model = build(pool, 1, KernelParams(0.5), t=2)
    u = kernel_row(model, random_spd(rng, 3))
    v = kernel_row(model, random_spd(rng, 3))
    h = model.kernel_power @ (u - v)
    p = 5
    responses = []
    for subset in itertools.combinations(range(p), 2):
        alpha = np.full(p, -1.0 / p)
        alpha[list(subset)] += 1.0 / 2
        responses.append(float(alpha @ h) ** 2)
    assert expected_distance_sq(model, u, v) == pytest.approx(
        np.mean(responses), rel=1e-12
    )


def test_expected_distance_zero_cases(rng):
    pool = small_pool(rng, count=6)
    model = build(pool, 2, KernelParams(0.5), t=6)
    u = kernel_row(model, pool[0])
    v = kernel_row(model, pool[1])
    assert expected_distance_sq(model, u, v) == 0.0
    model = build(pool, 2, KernelParams(0.5), t=2)
    assert expected_distance_sq(model, u, u) == 0.0


def test_median_deviation_shrinks_with_k():
    # 20 reference points in two clusters; the scaled squared embedding
    # gap must approach its expectation as hyperplanes accumulate.
    pool = two_cluster_pool(4, 10, 0.08, 71, [1.8, -1.4, 1.0, -0.6])
    params = KernelParams(0.5)
    medians = []
    for k in (16, 64, 256):
        model = build(pool, k, params, seed=7)
        kappas = [kernel_row(model, x) for x in pool]
        embeddings = [model.weights.T @ kp for kp in kappas]
        deviations = []
        for u in range(len(pool)):
            for v in range(u + 1, len(pool)):
                gap = embeddings[u] - embeddings[v]
                observed = float(gap @ gap) / k
                target = expected_distance_sq(model, kappas[u], kappas[v])
                if target > 0.0:
                    deviations.append(abs(observed / target - 1.0))
        medians.append(float(np.median(deviations)))
    assert medians[0] > medians[1] > medians[2]


def test_distortion_report_fraction_grows_with_k():
    pool = two_cluster_pool(4, 10, 0.08, 71, [1.8, -1.4, 1.0, -0.6])
    params = KernelParams(0.5)
    fractions = []
    for k in (16, 64, 1024):
        model = build(pool, k, params, seed=7)
        report = jl_report(model, pool, 0.49)
        assert report.pair_count == 190
        assert report.k == k
        fractions.append(report.fraction_within)
    assert fractions[0] <= fractions[1] <= fractions[2]
    assert fractions[2] >= 0.5


def test_stacked_expected_distance_equals_the_scalar_form_per_row(rng):
    pool = small_pool(rng, count=7)
    model = build(pool, 4, KernelParams(0.5), t=3)
    us = np.array([kernel_row(model, random_spd(rng, 3)) for _ in range(5)])
    vs = np.array([kernel_row(model, random_spd(rng, 3)) for _ in range(5)])
    stacked = expected_distance_sq(model, us, vs)
    against_one = expected_distance_sq(model, us, vs[0])  # one row broadcasts
    assert stacked.shape == against_one.shape == (5,)
    for i in range(5):
        scalar = expected_distance_sq(model, us[i], vs[i])
        assert stacked[i] == pytest.approx(scalar, rel=1e-12)
        scalar = expected_distance_sq(model, us[i], vs[0])
        assert against_one[i] == pytest.approx(scalar, rel=1e-12)


def test_distortion_report_equals_the_per_pair_loop(rng):
    # Duplicated points give zero-target pairs, which count only when the
    # embedded gap is zero too.
    pool = small_pool(rng, count=10)
    points = pool[:6] + [pool[0], pool[3], pool[3]] + small_pool(rng, count=4)
    for k in (8, 64):
        model = build(pool, k, KernelParams(0.5), seed=2)
        divergences = divergence_matrix(points, model.reference_points)
        kappas = np.exp(-model.kernel_params.sigma * divergences)
        embedded = embed_batch(model, divergences)
        pairs = within = zero_pairs = 0
        ratios = []
        for u in range(len(points)):
            for v in range(u + 1, len(points)):
                pairs += 1
                gap = embedded[u] - embedded[v]
                observed = float(gap @ gap) / k
                target = expected_distance_sq(model, kappas[u], kappas[v])
                if target <= 0.0:
                    zero_pairs += 1
                    within += observed == 0.0
                    continue
                ratios.append(observed / target)
                within += 0.7 <= ratios[-1] <= 1.3
        assert zero_pairs == 4
        report = jl_distortion_report(model, divergences, 0.3)
        assert report.pair_count == pairs
        assert report.fraction_within == within / pairs
        assert report.median_distortion == pytest.approx(np.median(ratios), rel=1e-12)


def test_distortion_report_degenerate_cloud(rng):
    pool = small_pool(rng, count=6)
    model = build(pool, 8, KernelParams(0.5))
    x = random_spd(rng, 3)
    report = jl_report(model, [x, x, x], 0.3)
    assert report.pair_count == 3
    assert report.fraction_within == 1.0
    # A model built on the degenerate cloud itself has a rank-one Gram.
    model = build([x] * 6, 16, KernelParams(0.5))
    assert jl_report(model, [x] * 6, 0.3).fraction_within == 1.0


def test_distortion_report_epsilon_validation(rng):
    model = build(small_pool(rng), 4, KernelParams(0.5))
    with pytest.raises(ValueError):
        jl_report(model, small_pool(rng), 0.0)
    with pytest.raises(ValueError):
        jl_report(model, small_pool(rng), 1.0)


def test_paper_literal_mode_differs_but_embeds(rng):
    pool = small_pool(rng, count=10)
    lit = build(
        pool, 6, KernelParams(0.5), exponent_mode="paper_literal", seed=4
    )
    whi = build(pool, 6, KernelParams(0.5), seed=4)
    assert lit.exponent == 0.5
    assert not np.allclose(lit.weights, whi.weights)
    coords = embed(lit, [random_spd(rng, 3)])
    assert coords.shape == (1, 6)
    assert np.all(np.isfinite(coords))


def test_model_round_trip_is_bit_exact(rng, tmp_path):
    pool = small_pool(rng, count=9)
    model = build(pool, 5, KernelParams(0.75), seed=21)
    path = tmp_path / "model.json"
    save_projection_model(path, model)
    loaded = load_projection_model(path)
    assert loaded.t == model.t
    assert loaded.seed == model.seed
    assert loaded.kernel_params == model.kernel_params
    assert np.array_equal(loaded.weights, model.weights)
    queries = [random_spd(rng, 3) for _ in range(5)]
    assert np.array_equal(embed(loaded, queries), embed(model, queries))


def test_model_load_rejects_corruption(rng, tmp_path):
    pool = small_pool(rng)
    model = build(pool, 3, KernelParams(0.5))
    path = tmp_path / "model.json"
    save_projection_model(path, model)

    garbled = tmp_path / "garbled.json"
    garbled.write_text(path.read_text()[:-40])
    with pytest.raises(ParseError):
        load_projection_model(garbled)

    payload = json.loads(path.read_text())
    payload["format"] = "something.else"
    other = tmp_path / "other.json"
    other.write_text(json.dumps(payload))
    with pytest.raises(ParseError):
        load_projection_model(other)

    payload = json.loads(path.read_text())
    payload["format_version"] = 99
    other.write_text(json.dumps(payload))
    with pytest.raises(ParseError):
        load_projection_model(other)

    payload = json.loads(path.read_text())
    payload["k"] = 7
    other.write_text(json.dumps(payload))
    with pytest.raises(ParseError):
        load_projection_model(other)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_model_load_rejects_non_finite_numbers(rng, tmp_path, value):
    model = build(small_pool(rng), 3, KernelParams(0.5))
    path = tmp_path / "model.json"
    save_projection_model(path, model)
    payload = json.loads(path.read_text())
    payload["weights"][0][0] = value
    # json writes these values as the bare tokens NaN and Infinity.
    path.write_text(json.dumps(payload))
    with pytest.raises(ParseError):
        load_projection_model(path)


def test_gram_assembly_kernel_call_count(rng, monkeypatch):
    # Upper-triangle assembly: exactly p * (p - 1) / 2 divergences.
    calls = {"n": 0}
    original = spdrose.stein.stein_divergence

    def counting(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(spdrose.stein, "stein_divergence", counting)
    pool = small_pool(rng, count=9)
    build(pool, 4, KernelParams(0.5))
    assert calls["n"] == 9 * 8 // 2


def test_embed_kernel_call_count(rng, monkeypatch):
    # One query costs exactly p divergences, independent of k.
    pool = small_pool(rng, count=11)
    model = build(pool, 64, KernelParams(0.5))
    calls = {"n": 0}
    original = spdrose.stein.stein_divergence

    def counting(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(spdrose.stein, "stein_divergence", counting)
    embed(model, [random_spd(rng, 3)])
    assert calls["n"] == 11


@pytest.mark.parametrize("mode", ["whitening", "paper_literal"])
@pytest.mark.parametrize("sigma", [0.5, 1.5, 0.25, 2.5])
def test_rank_deficient_gram_under_strict_policy(rng, sigma, mode):
    # Duplicated points give a rank-2 Gram whose zero eigenvalues come out
    # of eigh as roundoff of either sign (about 1e-15).  The strict policy
    # must accept that, on and off the PSD grid of sigma, and the
    # pseudo-inverse powers must keep the embeddings finite.
    a, b = random_spd(rng, 4), random_spd(rng, 4)
    points = [a] * 5 + [b] * 3
    assert sigma_guarantees_psd(sigma, 4) == (sigma in (0.5, 1.5))
    model = build(
        points, 16, KernelParams(sigma, psd_policy="strict"), exponent_mode=mode, seed=3
    )
    vals = np.linalg.eigvalsh(model.gram.entries)
    assert np.sum(vals > 1e-10 * vals[-1]) == 2
    assert 0.0 <= model.clamped_mass < 1e-12
    coords = embed(model, points + [random_spd(rng, 4)])
    assert np.all(np.isfinite(coords))
    assert np.array_equal(coords[0], coords[4]) and np.array_equal(coords[5], coords[7])


@pytest.mark.parametrize("policy", ["clamp", "strict"])
def test_points_near_the_conditioning_floor_at_d43(rng, policy):
    # Gabor descriptors are 43 x 43 with eigenvalues that can sit just
    # above the floor SpdMatrix enforces; their log-determinants are then
    # dominated by the smallest eigenvalues.
    dim = 43
    spectrum = np.geomspace(2.0 * EIGENVALUE_FLOOR_RTOL, 1.0, dim)
    points = [
        SpdMatrix((q * rng.permutation(spectrum)) @ q.T)
        for q in (random_orthogonal(rng, dim) for _ in range(6))
    ]
    for point in points:
        values = point.eigen[0]
        assert values[-1] < 2.5 * EIGENVALUE_FLOOR_RTOL * values[0]
    divergences = divergence_matrix(points, points)
    loop = np.array([[spdrose.stein.stein_divergence(x, y) for y in points] for x in points])
    assert np.all(np.isfinite(divergences)) and np.all(divergences >= 0.0)
    assert np.array_equal(divergences, divergences.T)
    assert np.array_equal(np.diag(divergences), np.zeros(len(points)))
    assert np.array_equal(divergences, loop)
    params = KernelParams(0.01, psd_policy=policy)
    gram = gram_matrix(divergences, params)
    assert np.array_equal(np.diag(gram.entries), np.ones(len(points)))
    model = build_projection_model(points, divergences, 8, params, seed=5)
    coords = embed(model, points + [random_spd(rng, dim)])
    assert coords.shape == (len(points) + 1, 8)
    assert np.all(np.isfinite(coords))
