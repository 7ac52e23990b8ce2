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
    embed,
    embed_batch,
    expected_distance_sq,
    jl_distortion_report,
    kernel_vector,
    load_projection_model,
    project_kernel_vector,
    save_projection_model,
    stein_kernel_value,
)

from conftest import random_spd, two_cluster_pool


def small_pool(rng, count=8, dim=3):
    return [random_spd(rng, dim, log_spread=1.0) for _ in range(count)]


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
        build_projection_model(pool[:1], 4, params)
    with pytest.raises(ValueError):
        build_projection_model(pool, 0, params)
    with pytest.raises(ValueError):
        build_projection_model(pool, 4, params, exponent_mode="inverse")
    with pytest.raises(ValueError):
        build_projection_model(pool, 4, params, t=0)
    with pytest.raises(TSampleTooLarge):
        build_projection_model(pool, 4, params, t=len(pool) + 1)


def test_model_shape_and_defaults(rng):
    pool = small_pool(rng, count=12)
    model = build_projection_model(pool, 7, KernelParams(1.0), seed=3)
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
        model = build_projection_model(pool, 5, KernelParams(0.5), exponent_mode=mode)
        assert np.allclose(model.weights, 0.0, atol=1e-12)
        assert np.allclose(embed(model, random_spd(rng, 3)), 0.0, atol=1e-12)


def test_full_exemplar_sample_gives_exact_zero_weights(rng):
    pool = small_pool(rng, count=6)
    for mode in ("whitening", "paper_literal"):
        model = build_projection_model(
            pool, 4, KernelParams(0.5), t=6, exponent_mode=mode
        )
        assert np.array_equal(model.weights, np.zeros((6, 4)))
        assert np.array_equal(embed(model, pool[0]), np.zeros(4))


def test_build_is_deterministic(rng):
    pool = small_pool(rng)
    a = build_projection_model(pool, 6, KernelParams(0.5), seed=11)
    b = build_projection_model(pool, 6, KernelParams(0.5), seed=11)
    assert np.array_equal(a.weights, b.weights)
    c = build_projection_model(pool, 6, KernelParams(0.5), seed=982451653)
    assert not np.array_equal(a.weights, c.weights)


def test_growing_k_preserves_earlier_hyperplanes(rng):
    pool = small_pool(rng, count=10)
    small = build_projection_model(pool, 4, KernelParams(0.5), seed=77)
    large = build_projection_model(pool, 16, KernelParams(0.5), seed=77)
    assert np.array_equal(small.weights, large.weights[:, :4])


def test_embed_is_weighted_kernel_vector(rng):
    pool = small_pool(rng, count=9)
    model = build_projection_model(pool, 5, KernelParams(0.5), seed=2)
    x = random_spd(rng, 3)
    kappa = np.array(
        [stein_kernel_value(ref, x, model.kernel_params) for ref in pool]
    )
    assert np.array_equal(kernel_vector(model, x), kappa)
    assert np.array_equal(embed(model, x), model.weights.T @ kappa)


def test_embedding_is_linear_in_kernel_vector(rng):
    pool = small_pool(rng)
    model = build_projection_model(pool, 6, KernelParams(0.5))
    u = rng.uniform(0.1, 1.0, size=model.p)
    v = rng.uniform(0.1, 1.0, size=model.p)
    lhs = project_kernel_vector(model, 2.0 * u + v)
    rhs = 2.0 * project_kernel_vector(model, u) + project_kernel_vector(model, v)
    assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


def test_embed_batch_matches_loop(rng):
    pool = small_pool(rng)
    model = build_projection_model(pool, 4, KernelParams(0.5))
    queries = [random_spd(rng, 3) for _ in range(5)]
    batch = embed_batch(model, queries)
    for got, x in zip(batch, queries):
        assert np.array_equal(got, embed(model, x))


def test_embed_rejects_wrong_dimension(rng):
    model = build_projection_model(small_pool(rng, dim=3), 4, KernelParams(0.5))
    with pytest.raises(DimensionMismatch):
        embed(model, random_spd(rng, 4))
    with pytest.raises(DimensionMismatch):
        project_kernel_vector(model, np.ones(3))


def test_binarize_sign_convention():
    bits = binarize(np.array([-1.5, 0.0, 2.0, -0.0]))
    assert bits.dtype == np.uint8
    assert bits.tolist() == [0, 1, 1, 1]


def test_expected_distance_matches_exhaustive_enumeration(rng):
    # Brute force over all C(p, t) exemplar subsets: the closed form
    # must equal the exact average of the squared hyperplane response.
    pool = small_pool(rng, count=5)
    model = build_projection_model(pool, 1, KernelParams(0.5), t=2)
    u = kernel_vector(model, random_spd(rng, 3))
    v = kernel_vector(model, random_spd(rng, 3))
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
    model = build_projection_model(pool, 2, KernelParams(0.5), t=6)
    u = kernel_vector(model, pool[0])
    v = kernel_vector(model, pool[1])
    assert expected_distance_sq(model, u, v) == 0.0
    model = build_projection_model(pool, 2, KernelParams(0.5), t=2)
    assert expected_distance_sq(model, u, u) == 0.0


def test_median_deviation_shrinks_with_k():
    # 20 reference points in two clusters; the scaled squared embedding
    # gap must approach its expectation as hyperplanes accumulate.
    pool = two_cluster_pool(4, 10, 0.08, 71, [1.8, -1.4, 1.0, -0.6])
    params = KernelParams(0.5)
    medians = []
    for k in (16, 64, 256):
        model = build_projection_model(pool, k, params, seed=7)
        kappas = [kernel_vector(model, x) for x in pool]
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
        model = build_projection_model(pool, k, params, seed=7)
        report = jl_distortion_report(model, pool, 0.49)
        assert report.pair_count == 190
        assert report.k == k
        fractions.append(report.fraction_within)
    assert fractions[0] <= fractions[1] <= fractions[2]
    assert fractions[2] >= 0.5


def test_distortion_report_degenerate_cloud(rng):
    pool = small_pool(rng, count=6)
    model = build_projection_model(pool, 8, KernelParams(0.5))
    x = random_spd(rng, 3)
    report = jl_distortion_report(model, [x, x, x], 0.3)
    assert report.pair_count == 3
    assert report.fraction_within == 1.0
    # A model built on the degenerate cloud itself has a rank-one Gram.
    model = build_projection_model([x] * 6, 16, KernelParams(0.5))
    assert jl_distortion_report(model, [x] * 6, 0.3).fraction_within == 1.0


def test_distortion_report_epsilon_validation(rng):
    model = build_projection_model(small_pool(rng), 4, KernelParams(0.5))
    with pytest.raises(ValueError):
        jl_distortion_report(model, small_pool(rng), 0.0)
    with pytest.raises(ValueError):
        jl_distortion_report(model, small_pool(rng), 1.0)


def test_paper_literal_mode_differs_but_embeds(rng):
    pool = small_pool(rng, count=10)
    lit = build_projection_model(
        pool, 6, KernelParams(0.5), exponent_mode="paper_literal", seed=4
    )
    whi = build_projection_model(pool, 6, KernelParams(0.5), seed=4)
    assert lit.exponent == 0.5
    assert not np.allclose(lit.weights, whi.weights)
    coords = embed(lit, random_spd(rng, 3))
    assert coords.shape == (6,)
    assert np.all(np.isfinite(coords))


def test_model_round_trip_is_bit_exact(rng, tmp_path):
    pool = small_pool(rng, count=9)
    model = build_projection_model(pool, 5, KernelParams(0.75), seed=21)
    path = tmp_path / "model.json"
    save_projection_model(path, model)
    loaded = load_projection_model(path)
    assert loaded.t == model.t
    assert loaded.seed == model.seed
    assert loaded.kernel_params == model.kernel_params
    assert np.array_equal(loaded.weights, model.weights)
    for _ in range(5):
        x = random_spd(rng, 3)
        assert np.array_equal(embed(loaded, x), embed(model, x))


def test_model_load_rejects_corruption(rng, tmp_path):
    pool = small_pool(rng)
    model = build_projection_model(pool, 3, KernelParams(0.5))
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
    model = build_projection_model(small_pool(rng), 3, KernelParams(0.5))
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
    build_projection_model(pool, 4, KernelParams(0.5))
    assert calls["n"] == 9 * 8 // 2


def test_embed_kernel_call_count(rng, monkeypatch):
    # One query costs exactly p divergences, independent of k.
    pool = small_pool(rng, count=11)
    model = build_projection_model(pool, 64, KernelParams(0.5))
    calls = {"n": 0}
    original = spdrose.stein.stein_divergence

    def counting(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(spdrose.stein, "stein_divergence", counting)
    embed(model, random_spd(rng, 3))
    assert calls["n"] == 11
