"""Unit tests for the SPD container and the affine-invariant geometry."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from spdrose import (
    AsymmetryExceedsTolerance,
    Benchmark,
    DimensionMismatch,
    GramMatrix,
    KernelParams,
    NonFiniteEntry,
    NotPositiveDefinite,
    NotSquare,
    ProjectionModel,
    SpdMatrix,
    SpdRoseError,
    TangentVector,
    TrainedClassifier,
    airm_exp_map,
    airm_log_map,
    geodesic_distance,
    spd_log,
    spd_power,
    spd_stack,
    symmetrize,
)
from spdrose.manifold import (
    EIGENVALUE_FLOOR_RTOL,
    SYMMETRY_RTOL,
    _cholesky_logdet,
    _metric_norm,
    airm_exp_map_stack,
    airm_log_map_stack,
    geodesic_distance_stack,
)

from conftest import random_orthogonal, random_spd, random_symmetric


def test_symmetrize_average():
    a = np.array([[1.0, 2.0], [0.0, 3.0]])
    out = symmetrize(a)
    assert np.array_equal(out, np.array([[1.0, 1.0], [1.0, 3.0]]))


def test_spd_matrix_rejects_non_square():
    with pytest.raises(NotSquare):
        SpdMatrix(np.ones((2, 3)))


def test_spd_matrix_rejects_vector():
    with pytest.raises(NotSquare):
        SpdMatrix(np.ones(4))


def test_spd_matrix_rejects_asymmetry():
    bad = np.array([[2.0, 1.0], [1.0 + 1e-3, 2.0]])
    with pytest.raises(AsymmetryExceedsTolerance):
        SpdMatrix(bad)


def test_spd_matrix_accepts_roundoff_asymmetry():
    base = np.array([[2.0, 1.0], [1.0, 2.0]])
    wobble = base.copy()
    wobble[0, 1] += wobble[0, 1] * SYMMETRY_RTOL * 0.1
    m = SpdMatrix(wobble)
    assert np.array_equal(m.array, m.array.T)


@pytest.mark.parametrize(
    "raw",
    [[[1.0, np.nan], [np.nan, 1.0]], [[np.inf, 0.0], [0.0, 1.0]]],
    ids=["nan", "inf"],
)
@pytest.mark.parametrize("construct", [SpdMatrix])
def test_spd_matrix_rejects_non_finite_entries(raw, construct):
    with pytest.raises(NonFiniteEntry):
        construct(np.array(raw))


def test_spd_matrix_rejects_indefinite():
    bad = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(NotPositiveDefinite) as info:
        SpdMatrix(bad)
    assert info.value.smallest_eigenvalue == pytest.approx(-1.0)


def test_spd_matrix_rejects_singular():
    with pytest.raises(NotPositiveDefinite):
        SpdMatrix(np.diag([1.0, 0.0]))


def test_eigenvalue_floor_scales_with_largest():
    # At the default floor a spectrum spread of 1e12 must still validate
    # while anything materially below the floor is rejected.
    ok = SpdMatrix(np.diag([1.0, 1e-11]) * 1e1)
    assert ok.dim == 2
    with pytest.raises(NotPositiveDefinite):
        SpdMatrix(np.diag([1.0, 1e-14]))
    assert EIGENVALUE_FLOOR_RTOL == 1e-12


@pytest.mark.parametrize(
    "construct",
    [SpdMatrix, lambda a: TangentVector(SpdMatrix(np.eye(2)), a)],
    ids=["SpdMatrix", "TangentVector"],
)
def test_symmetric_inputs_share_one_set_of_checks(construct):
    # Every symmetric-matrix input is checked for shape, finiteness and
    # asymmetry at the same SYMMETRY_RTOL, then replaced by its exact
    # symmetric part.
    with pytest.raises(NotSquare):
        construct(np.ones((2, 3)))
    with pytest.raises(NonFiniteEntry):
        construct(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(AsymmetryExceedsTolerance):
        construct(np.array([[1.0, 0.3], [0.3 + 50.0 * SYMMETRY_RTOL, 1.0]]))
    near = np.array([[1.0, 0.3], [0.3 + 0.1 * SYMMETRY_RTOL, 1.0]])
    out = construct(near)
    value = out.value if isinstance(out, TangentVector) else out.array
    assert np.array_equal(value, value.T)


def test_spd_matrix_array_is_read_only():
    m = SpdMatrix(np.eye(2))
    with pytest.raises(ValueError):
        m.array[0, 0] = 5.0


# Each builds one value type and returns (caller's array, stored array) pairs.
def gram_entries():
    entries = np.array([[1.0, 0.5], [0.5, 1.0]])
    return [(entries, GramMatrix(entries).entries)]


def model_weights():
    weights = np.arange(6.0).reshape(2, 3)
    refs = (SpdMatrix(np.eye(2)), SpdMatrix(2.0 * np.eye(2)))
    model = ProjectionModel(refs, KernelParams(0.5), weights, 1, "whitening", 0)
    return [(weights, model.weights)]


def classifier_arrays():
    arrays = {
        "weights": np.arange(6.0).reshape(2, 3),
        "biases": np.array([0.5, -0.5]),
        "feature_mean": np.array([1.0, 2.0, 3.0]),
        "feature_scale": np.array([1.0, 0.5, 2.0]),
    }
    model = TrainedClassifier(classes=(0, 1), regularization=1e-3, **arrays)
    return [(a, getattr(model, name)) for name, a in arrays.items()]


def benchmark_labels():
    train, test = np.array([0, 1]), np.array([1, 0])
    points = (SpdMatrix(np.eye(2)), SpdMatrix(2.0 * np.eye(2)))
    bench = Benchmark(points, points, train, points, test)
    return [(train, bench.train_labels), (test, bench.test_labels)]


@pytest.mark.parametrize(
    "stored", [gram_entries, model_weights, classifier_arrays, benchmark_labels]
)
def test_value_types_store_a_read_only_copy_of_the_callers_array(stored):
    for callers, kept in stored():
        assert callers.flags.writeable
        assert not kept.flags.writeable
        assert np.array_equal(kept, callers) and kept.dtype == callers.dtype
        assert not np.shares_memory(kept, callers)


def test_logdet_matches_slogdet(rng):
    for _ in range(20):
        m = random_spd(rng, 4)
        sign, ref = np.linalg.slogdet(m.array)
        assert sign == 1.0
        assert m.logdet == pytest.approx(ref, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize(
    "raw",
    [[[1.0, 2.0], [2.0, 1.0]], [[-1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]],
    ids=["indefinite", "negative-pivot", "zero"],
)
def test_cholesky_logdet_rejects_matrices_that_are_not_positive_definite(raw):
    with pytest.raises(NotPositiveDefinite, match="Cholesky"):
        _cholesky_logdet(np.array(raw))


def test_spd_log_diagonal():
    lg = spd_log(SpdMatrix(np.diag([np.e, 1.0])))
    assert np.allclose(lg, np.diag([1.0, 0.0]), atol=1e-12)


def test_spd_power_half_is_matrix_sqrt(rng):
    for _ in range(10):
        m = random_spd(rng, 5)
        root = spd_power(m, 0.5)
        assert np.allclose(root.array @ root.array, m.array, rtol=1e-9, atol=1e-11)


def test_sqrt_and_inv_sqrt_are_inverses(rng):
    m = random_spd(rng, 6)
    assert np.allclose(m.sqrt_array @ m.inv_sqrt_array, np.eye(6), atol=1e-10)


def test_log_exp_round_trip_random(rng):
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        pole = random_spd(rng, dim)
        x = random_spd(rng, dim)
        tv = airm_log_map(pole, x)
        back = airm_exp_map(tv)
        scale = np.linalg.norm(x.array)
        assert np.linalg.norm(back.array - x.array) <= 1e-8 * max(scale, 1.0)


def test_exp_log_round_trip_tangent(rng):
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        pole = random_spd(rng, dim)
        vec = random_symmetric(rng, dim, scale=0.7)
        y = airm_exp_map(TangentVector(pole, vec))
        tv = airm_log_map(pole, y)
        assert np.allclose(tv.value, vec, rtol=1e-8, atol=1e-9)


def test_log_map_at_base_point_is_zero(rng):
    pole = random_spd(rng, 4)
    tv = airm_log_map(pole, pole)
    assert np.allclose(tv.value, 0.0, atol=1e-12)


def test_tangent_vector_requires_matching_dim(rng):
    pole = random_spd(rng, 3)
    with pytest.raises(DimensionMismatch):
        airm_log_map(pole, random_spd(rng, 4))
    with pytest.raises(DimensionMismatch):
        TangentVector(pole, np.zeros((4, 4)))


@pytest.mark.parametrize("dim", [2, 6, 43])
def test_log_map_stack_equals_per_point_maps(rng, dim):
    pole = random_spd(rng, dim)
    points = [random_spd(rng, dim) for _ in range(5)]
    values, dist_sq = airm_log_map_stack(pole, np.stack([p.array for p in points]))
    for value, d2, x in zip(values, dist_sq, points):
        assert value.tobytes() == airm_log_map(pole, x).value.tobytes()
        assert d2 == pytest.approx(geodesic_distance(pole, x) ** 2, rel=1e-10)


@pytest.mark.parametrize(
    "bad, error",
    [
        (np.diag([1.0, np.nan, 1.0]), NonFiniteEntry),
        (np.diag([1.0, -1.0, 1.0]), NotPositiveDefinite),
        (np.diag([1.0, 1.0, EIGENVALUE_FLOOR_RTOL / 2.0]), NotPositiveDefinite),
    ],
    ids=["nan", "indefinite", "below-floor"],
)
def test_log_map_stack_checks_every_point(bad, error):
    good = np.eye(3)
    with pytest.raises(error):
        airm_log_map_stack(SpdMatrix(good), np.stack([good, bad, good]))


def _exp_map_one(pole, value):
    """The exp map of one tangent value, written out as a single-matrix path."""
    isq, sq = pole.inv_sqrt_array, pole.sqrt_array
    vals, vecs = np.linalg.eigh(symmetrize(isq @ value @ isq))
    return symmetrize(sq @ symmetrize((vecs * np.exp(vals)) @ vecs.T) @ sq)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 43])
def test_exp_map_stack_equals_per_point_maps(rng, dim):
    pole = random_spd(rng, dim)
    values = np.stack([random_symmetric(rng, dim, scale=0.5) for _ in range(7)])
    points = airm_exp_map_stack(pole, values)
    assert len(points) == len(values)
    for point, value in zip(points, values):
        assert isinstance(point, SpdMatrix)
        assert np.array_equal(point.array, airm_exp_map(TangentVector(pole, value)).array)
        assert np.array_equal(point.array, _exp_map_one(pole, value))
    # spd_stack of an all-good stack, with round-off asymmetry left in,
    # holds each matrix's exact symmetric part, as SpdMatrix of it does.
    raw = np.stack([p.array for p in points])
    raw[:, 0, -1] *= 1.0 + 0.1 * SYMMETRY_RTOL
    checked = spd_stack(raw)
    assert len(checked) == len(raw)
    for point, a in zip(checked, raw):
        assert np.array_equal(point.array, symmetrize(a))
        assert np.array_equal(point.array, SpdMatrix(a).array)
        assert not point.array.flags.writeable


def test_exp_map_stack_checks_every_point_and_its_shape():
    pole = SpdMatrix(np.eye(3))
    good = np.zeros((3, 3))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteEntry):
        airm_exp_map_stack(pole, np.stack([good, 1e3 * np.eye(3), good]))
    with pytest.raises(DimensionMismatch):
        airm_exp_map_stack(pole, np.zeros((2, 4, 4)))
    assert airm_exp_map_stack(pole, np.zeros((0, 3, 3))) == []
    with pytest.raises(NotSquare, match=r"got shape \(3, 2\)$"):
        spd_stack(np.ones((4, 3, 2)))
    assert spd_stack(np.zeros((0, 3, 3))) == []


def _bad_matrix(kind, good, rng):
    """``good`` broken in one way: a non-finite entry, asymmetry, or its spectrum."""
    dim = len(good)
    i, j = rng.integers(dim, size=2)
    if kind in ("nan", "inf"):
        bad = good.copy()
        bad[i, j] = np.nan if kind == "nan" else -np.inf
        return bad
    if kind == "asymmetric":
        bad = good.copy()
        bad[0, 1] += rng.uniform(1e3, 1e6) * SYMMETRY_RTOL * np.abs(good).max()
        return bad
    q = random_orthogonal(rng, dim)
    w = np.exp(rng.uniform(-1.0, 1.0, size=dim))
    w[0] = -rng.uniform(0.0, 1.0) if kind == "indefinite" else 0.3 * EIGENVALUE_FLOOR_RTOL
    return symmetrize((q * w) @ q.T)


_BAD_KINDS = ("nan", "inf", "asymmetric", "indefinite", "below-floor")


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from([2, 3, 6]),
    size=st.integers(1, 6),
    kinds=st.lists(st.sampled_from(_BAD_KINDS), min_size=1, max_size=2),
)
def test_spd_stack_raises_the_error_of_its_first_failing_matrix(seed, dim, size, kinds):
    rng = np.random.default_rng(seed)
    stack = np.stack([random_spd(rng, dim).array for _ in range(size + len(kinds))])
    at = np.sort(rng.choice(len(stack), size=len(kinds), replace=False))
    for kind, i in zip(kinds, at):
        stack[i] = _bad_matrix(kind, stack[i], rng)
    with pytest.raises(SpdRoseError) as expected:
        SpdMatrix(stack[at[0]])
    with pytest.raises(SpdRoseError) as raised:
        spd_stack(stack)
    assert type(raised.value) is type(expected.value)
    assert str(raised.value) == str(expected.value)
    assert getattr(raised.value, "smallest_eigenvalue", None) == getattr(
        expected.value, "smallest_eigenvalue", None
    )


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 43])
def test_distance_stack_equals_per_point_distances(rng, dim):
    x = random_spd(rng, dim)
    points = [random_spd(rng, dim) for _ in range(7)]
    distances = geodesic_distance_stack(x, np.stack([p.array for p in points]))
    isq = x.inv_sqrt_array
    for distance, y in zip(distances, points):
        assert distance == geodesic_distance(x, y)
        logs = np.log(np.linalg.eigvalsh(symmetrize(isq @ y.array @ isq)))
        assert distance == float(np.sqrt(np.dot(logs, logs)))
    with pytest.raises(DimensionMismatch):
        geodesic_distance_stack(x, np.zeros((2, dim + 1, dim + 1)))


def test_distance_identity_to_diagonal():
    # Commuting case: distance reduces to the norm of the log-eigenvalue gap.
    a = SpdMatrix(np.eye(3))
    b = SpdMatrix(np.diag([np.e ** 2, 1.0, 1.0]))
    assert geodesic_distance(a, b) == pytest.approx(2.0, rel=1e-12)


def test_distance_axioms(rng):
    for _ in range(25):
        dim = int(rng.integers(2, 6))
        x = random_spd(rng, dim)
        y = random_spd(rng, dim)
        z = random_spd(rng, dim)
        dxy = geodesic_distance(x, y)
        assert geodesic_distance(x, x) <= 1e-10
        assert dxy == pytest.approx(geodesic_distance(y, x), rel=1e-9, abs=1e-12)
        assert dxy <= geodesic_distance(x, z) + geodesic_distance(z, y) + 1e-9
        # The squared distance is the sum of squared logs of the eigenvalues
        # of x^-1 y, here from the generalized symmetric eigenproblem.
        logs = np.log(scipy.linalg.eigvalsh(y.array, x.array))
        assert dxy ** 2 == pytest.approx(np.sum(logs ** 2), rel=1e-12)


def test_distance_affine_invariance(rng):
    for _ in range(20):
        dim = int(rng.integers(2, 6))
        x = random_spd(rng, dim)
        y = random_spd(rng, dim)
        g = rng.standard_normal((dim, dim))
        g += np.eye(dim) * (np.abs(np.linalg.det(g)) < 1e-3)
        gx = SpdMatrix(symmetrize(g @ x.array @ g.T))
        gy = SpdMatrix(symmetrize(g @ y.array @ g.T))
        assert geodesic_distance(gx, gy) == pytest.approx(
            geodesic_distance(x, y), rel=1e-8
        )


def test_distance_inversion_invariance(rng):
    for _ in range(20):
        dim = int(rng.integers(2, 6))
        x = random_spd(rng, dim)
        y = random_spd(rng, dim)
        xi = spd_power(x, -1.0)
        yi = spd_power(y, -1.0)
        assert geodesic_distance(xi, yi) == pytest.approx(
            geodesic_distance(x, y), rel=1e-8
        )


def test_norm_matches_distance(rng):
    for _ in range(20):
        dim = int(rng.integers(2, 6))
        pole = random_spd(rng, dim)
        x = random_spd(rng, dim)
        tv = airm_log_map(pole, x)
        assert _metric_norm(pole, tv.value) == pytest.approx(
            geodesic_distance(pole, x), rel=1e-9, abs=1e-12
        )


def test_norm_at_identity_is_frobenius(rng):
    vec = random_symmetric(rng, 4)
    norm = _metric_norm(SpdMatrix(np.eye(4)), vec)
    assert norm == pytest.approx(np.linalg.norm(vec), rel=1e-12)
