"""Unit tests for the Stein divergence, kernel, and Gram assembly."""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.linalg.lapack import dpotrf

import spdrose.embedding
from spdrose import (
    DimensionMismatch,
    EmptyInput,
    GramMatrix,
    IndefiniteKernel,
    KernelParams,
    SpdMatrix,
    build_projection_model,
    divergence_matrix,
    gram_matrix,
    gram_power,
    sigma_guarantees_psd,
    stein_divergence,
    symmetrize,
)
from spdrose.manifold import EIGENVALUE_FLOOR_RTOL
from spdrose.stein import GRAM_PSD_RTOL, PSEUDO_INVERSE_RTOL

from conftest import blas_thread_env, random_orthogonal, random_spd

# Eight 2x2 points whose kernel Gram at sigma=0.25 has smallest
# eigenvalue about -0.0445.  Found by direct minimisation of the
# smallest eigenvalue; sigma=0.25 sits below 1/2, the smallest sigma
# for which d = 2 guarantees positive semidefiniteness.
INDEFINITE_POINTS = [
    SpdMatrix(np.array(m))
    for m in [
        [[0.10987, 0.024258], [0.024258, 0.100197]],
        [[2.913421, 5.378548], [5.378548, 10.266605]],
        [[7.913375, 0.462405], [0.462405, 0.112408]],
        [[1.191419, 0.25326], [0.25326, 1.146758]],
        [[0.185745, -0.779763], [-0.779763, 6.558525]],
        [[6.240924, 4.387079], [4.387079, 3.149058]],
        [[3.762996, -2.847616], [-2.847616, 2.410235]],
        [[6.274226, 0.675056], [0.675056, 6.728837]],
    ]
]


def gram_of(points, params):
    return gram_matrix(divergence_matrix(points, points), params)


def kernel_value(x, y, sigma):
    """The Stein kernel ``exp(-sigma * J(x, y))`` of one pair."""
    return float(np.exp(-sigma * stein_divergence(x, y)))


def test_divergence_of_identical_points_is_zero(rng):
    for _ in range(10):
        x = random_spd(rng, 4)
        j = stein_divergence(x, x)
        assert 0.0 <= j <= 1e-10


def test_divergence_known_value():
    x = SpdMatrix(np.eye(2))
    y = SpdMatrix(2.0 * np.eye(2))
    expected = 2.0 * math.log(1.5) - math.log(2.0)
    assert stein_divergence(x, y) == pytest.approx(expected, abs=1e-12)


def test_divergence_exactly_symmetric(rng):
    for _ in range(20):
        x = random_spd(rng, 3)
        y = random_spd(rng, 3)
        assert stein_divergence(x, y) == stein_divergence(y, x)


def test_divergence_nonnegative(rng):
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        assert stein_divergence(random_spd(rng, dim), random_spd(rng, dim)) >= 0.0


def test_divergence_congruence_invariant(rng):
    for _ in range(15):
        x = random_spd(rng, 3)
        y = random_spd(rng, 3)
        a = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
        xa = SpdMatrix(symmetrize(a @ x.array @ a.T))
        ya = SpdMatrix(symmetrize(a @ y.array @ a.T))
        assert stein_divergence(xa, ya) == pytest.approx(
            stein_divergence(x, y), rel=1e-8, abs=1e-10
        )


def test_divergence_dimension_mismatch(rng):
    with pytest.raises(DimensionMismatch):
        stein_divergence(random_spd(rng, 2), random_spd(rng, 3))


def test_kernel_value_range_and_formula(rng):
    params = KernelParams(sigma=1.5)
    for _ in range(20):
        x = random_spd(rng, 4)
        y = random_spd(rng, 4)
        k = gram_of([x, y], params).entries[0, 1]
        assert 0.0 < k <= 1.0
        assert k == pytest.approx(
            math.exp(-1.5 * stein_divergence(x, y)), rel=1e-14
        )
    assert gram_of([x, x], params).entries[0, 1] == pytest.approx(1.0, abs=1e-10)


def test_kernel_params_validation():
    with pytest.raises(ValueError):
        KernelParams(sigma=0.0)
    with pytest.raises(ValueError):
        KernelParams(sigma=-1.0)
    # An infinite width would put inf * 0 = NaN on the Gram diagonal.
    for sigma in (math.inf, math.nan):
        with pytest.raises(ValueError):
            KernelParams(sigma=sigma)
    with pytest.raises(ValueError):
        KernelParams(sigma=0.5, psd_policy="ignore")
    # A numeric string was kept as a string, and the embedding later failed
    # at -sigma * divergences; a bool is not a width either.
    for sigma in ("0.5", True):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            KernelParams(sigma=sigma)
    widths = [KernelParams(sigma=s).sigma for s in (1, np.float64(0.25))]
    assert widths == [1.0, 0.25] and all(type(w) is float for w in widths)


def test_sigma_grid():
    assert [s for s in (0.5, 1.0, 1.5, 2.0) if sigma_guarantees_psd(s, 5)] == [
        0.5,
        1.0,
        1.5,
        2.0,
    ]
    assert sigma_guarantees_psd(2.5, 5)
    assert not sigma_guarantees_psd(0.75, 5)
    assert sigma_guarantees_psd(0.5, 2)
    assert sigma_guarantees_psd(1.0, 2)
    assert not sigma_guarantees_psd(0.25, 8)


def test_gram_unit_diagonal_and_exact_symmetry(rng):
    points = [random_spd(rng, 3) for _ in range(12)]
    gram = gram_of(points, KernelParams(sigma=1.0))
    assert np.array_equal(np.diag(gram.entries), np.ones(12))
    assert np.array_equal(gram.entries, gram.entries.T)
    assert gram.entries.shape == (12, 12)
    assert gram.clamped_mass == 0.0


def test_gram_entries_match_pairwise_kernel(rng):
    params = KernelParams(sigma=0.5)
    points = [random_spd(rng, 4) for _ in range(6)]
    gram = gram_of(points, params)
    for i in range(6):
        for j in range(6):
            if i != j:
                assert gram.entries[i, j] == kernel_value(
                    points[i], points[j], params.sigma
                )


def test_gram_psd_on_guaranteed_grid(rng):
    for _ in range(15):
        dim = int(rng.integers(2, 7))
        count = int(rng.integers(3, 20))
        points = [random_spd(rng, dim) for _ in range(count)]
        half_steps = int(rng.integers(1, dim))
        gram = gram_of(points, KernelParams(sigma=half_steps / 2.0))
        vals = np.linalg.eigvalsh(gram.entries)
        assert vals[0] >= -GRAM_PSD_RTOL * vals[-1]
        assert gram.clamped_mass == 0.0


def test_gram_rejects_empty_and_mixed_dims(rng):
    with pytest.raises(EmptyInput):
        gram_of([], KernelParams(sigma=0.5))
    with pytest.raises(DimensionMismatch):
        gram_of([random_spd(rng, 2), random_spd(rng, 3)], KernelParams(sigma=0.5))
    with pytest.raises(DimensionMismatch):
        gram_matrix(np.zeros((2, 3)), KernelParams(sigma=0.5))


def test_indefinite_witness_is_indefinite():
    # Guard against the witness silently going stale: assemble the raw
    # Gram and confirm the negative eigenvalue is really there.
    params = KernelParams(sigma=0.25)
    n = len(INDEFINITE_POINTS)
    raw = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            raw[i, j] = raw[j, i] = kernel_value(
                INDEFINITE_POINTS[i], INDEFINITE_POINTS[j], params.sigma
            )
    assert np.linalg.eigvalsh(raw)[0] < -0.01


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_indefinite_witness_is_positive_definite_where_the_rule_guarantees_it(sigma):
    # At d = 2 the kernel is guaranteed positive definite for 2 * sigma = 1
    # and for every sigma above 1/2; the witness pool is indefinite only
    # below about sigma = 0.37.
    assert sigma_guarantees_psd(sigma, 2)
    gram = gram_of(INDEFINITE_POINTS, KernelParams(sigma, psd_policy="strict"))
    assert gram.clamped_mass == 0.0
    assert gram.values[0] >= 1e-2 * gram.values[-1]


def test_gram_clamp_repairs_indefinite():
    gram = gram_of(INDEFINITE_POINTS, KernelParams(sigma=0.25, psd_policy="clamp"))
    vals = np.linalg.eigvalsh(gram.entries)
    assert vals[0] >= -1e-12 * vals[-1]
    assert gram.clamped_mass > 0.01
    assert np.array_equal(gram.entries, gram.entries.T)


def test_gram_strict_raises_on_indefinite():
    with pytest.raises(IndefiniteKernel) as info:
        gram_of(INDEFINITE_POINTS, KernelParams(sigma=0.25, psd_policy="strict"))
    assert info.value.smallest_eigenvalue < -0.01
    assert info.value.sigma == 0.25


def test_gram_entries_read_only(rng):
    gram = gram_of([random_spd(rng, 2) for _ in range(3)], KernelParams(0.5))
    for array in (gram.entries, gram.values, gram.vectors):
        with pytest.raises(ValueError):
            array[0, ...] = 2.0


def clamped_or_not(rng, clamped):
    """Points and a kernel whose Gram the clamp repairs, or leaves as it is."""
    if clamped:
        return INDEFINITE_POINTS, KernelParams(sigma=0.25, psd_policy="clamp")
    return [random_spd(rng, 3) for _ in range(8)], KernelParams(sigma=1.0)


@pytest.mark.parametrize("clamped", [False, True])
@pytest.mark.parametrize("exponent", [0.5, -0.5])
def test_gram_power_equals_a_fresh_solve_of_the_entries(rng, clamped, exponent):
    # The stored spectrum is the one a fresh eigh of the entries gives, so the
    # power keeps its bits; the repaired matrix is solved, not the clamped values.
    points, params = clamped_or_not(rng, clamped)
    gram = gram_of(points, params)
    assert (gram.clamped_mass > 0.0) == clamped
    vals, vecs = np.linalg.eigh(gram.entries)
    kept = vals > PSEUDO_INVERSE_RTOL * max(float(vals[-1]), 0.0)
    if exponent == -0.5:
        powered = np.where(kept, 1.0 / np.sqrt(np.clip(vals, 1e-300, None)), 0.0)
    else:
        powered = np.where(kept, np.sqrt(np.clip(vals, 0.0, None)), 0.0)
    expected = symmetrize((vecs * powered) @ vecs.T)
    assert np.array_equal(gram_power(gram, exponent), expected)


@pytest.mark.parametrize("clamped, solves", [(False, 1), (True, 2)])
def test_model_build_solves_each_gram_spectrum_once(rng, monkeypatch, clamped, solves):
    # A model build solves the assembled Gram once and, after a clamp, the
    # repaired one; it reaches both Gram steps through the embedding
    # module's names, where a tracer wraps them.
    points, params = clamped_or_not(rng, clamped)
    divergences = divergence_matrix(points, points)
    calls = []

    def recorded(name, function):
        def wrapper(*args, **kwargs):
            calls.append(name if name != "eigh" else np.shape(args[0]))
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", recorded("eigh", np.linalg.eigh))
    for name in ("gram_matrix", "gram_power"):
        monkeypatch.setattr(
            spdrose.embedding, name, recorded(name, getattr(spdrose.embedding, name))
        )
    model = build_projection_model(points, divergences, 4, params, seed=1)
    p = len(points)
    assert calls == ["gram_matrix", *[(p, p)] * solves, "gram_power"]
    assert (model.clamped_mass > 0.0) == clamped


def test_gram_power_halves_compose(rng):
    points = [random_spd(rng, 3) for _ in range(8)]
    gram = gram_of(points, KernelParams(sigma=1.0))
    root = gram_power(gram, 0.5)
    assert np.allclose(root @ root, gram.entries, rtol=1e-9, atol=1e-11)
    inv_root = gram_power(gram, -0.5)
    assert np.allclose(
        inv_root @ gram.entries @ inv_root, np.eye(8), rtol=1e-7, atol=1e-8
    )


def test_gram_power_pseudo_inverse_on_singular(rng):
    # A duplicated point makes the Gram exactly singular; the -1/2
    # branch must produce a projector, not blow up.
    base = [random_spd(rng, 3) for _ in range(5)]
    points = base + [base[0]]
    gram = gram_of(points, KernelParams(sigma=1.0))
    root = gram_power(gram, 0.5)
    inv_root = gram_power(gram, -0.5)
    projector = inv_root @ root
    assert np.all(np.isfinite(inv_root))
    assert np.allclose(projector @ projector, projector, atol=1e-8)
    assert np.linalg.matrix_rank(projector, tol=1e-8) == 5


def test_gram_power_rejects_other_exponents(rng):
    gram = gram_of([random_spd(rng, 2) for _ in range(3)], KernelParams(0.5))
    with pytest.raises(ValueError):
        gram_power(gram, 1.0)


def test_gram_matrix_wrapper_accepts_prebuilt_entries():
    g = GramMatrix(np.eye(3))
    assert g.entries.shape == (3, 3)
    assert g.clamped_mass == 0.0


def pair_loop(rows, cols):
    return np.array([[stein_divergence(x, y) for y in cols] for x in rows])


@pytest.mark.parametrize("dim", [2, 6, 43])
def test_divergence_matrix_equals_pair_loop(rng, dim):
    points = [random_spd(rng, dim) for _ in range(6)]
    others = [random_spd(rng, dim) for _ in range(4)]
    assert np.array_equal(divergence_matrix(points, points), pair_loop(points, points))
    assert np.array_equal(divergence_matrix(points, others), pair_loop(points, others))


def near_floor_point(rng, dim):
    """A point whose eigenvalue ratio is twice the conditioning floor."""
    q = random_orthogonal(rng, dim)
    spectrum = np.geomspace(2.0 * EIGENVALUE_FLOOR_RTOL, 1.0, dim)
    return SpdMatrix(symmetrize((q * rng.permutation(spectrum)) @ q.T))


@pytest.mark.parametrize(
    "dim, make",
    [(6, random_spd), (43, random_spd), (43, near_floor_point)],
    ids=["d6", "d43", "d43-near-floor"],
)
def test_divergence_with_a_content_identical_copy_is_exactly_zero(rng, dim, make):
    # The midpoint of x and its copy is x bit for bit, and the midpoint and
    # both points take their log-determinants from the same factorization.
    for _ in range(5):
        x = make(rng, dim)
        copy = SpdMatrix(x.array.copy())
        assert stein_divergence(x, copy) == 0.0
        assert stein_divergence(copy, x) == 0.0
        assert np.array_equal(divergence_matrix([x], [copy]), np.zeros((1, 1)))


@pytest.mark.parametrize("dim", [2, 6, 43])
def test_divergences_write_through_no_point(rng, dim):
    # Log-determinants factor a scratch array in place, and f2py would write
    # through a point's read-only array as well, so none may be handed over.
    points = [random_spd(rng, dim) for _ in range(4)]
    others = [random_spd(rng, dim) for _ in range(3)] + [near_floor_point(rng, dim)]
    everyone = points + others
    saved = [(p.array.tobytes(), p.half.tobytes()) for p in everyone]
    for p in everyone:
        assert math.isfinite(p.logdet)
    stein_divergence(points[0], others[0])
    divergence_matrix(points, points)
    divergence_matrix(points, others)
    for p, (array, half) in zip(everyone, saved):
        assert p.array.tobytes() == array and p.half.tobytes() == half
        assert not p.array.flags.writeable and not p.half.flags.writeable


# Builds the divergence block of 8 points at d = 43 (saved by the test, so
# the inputs do not depend on the thread count) and writes its bytes.
_THREADED_DIVERGENCES = """
import sys
import numpy as np
from spdrose import SpdMatrix, divergence_matrix
points = [SpdMatrix(a) for a in np.load(sys.argv[1])]
with open(sys.argv[2], "wb") as out:
    out.write(divergence_matrix(points, points).tobytes())
"""


def test_divergences_are_identical_across_blas_thread_counts(tmp_path, rng):
    stack = tmp_path / "points.npy"
    points = [random_spd(rng, 43) for _ in range(6)]
    points += [near_floor_point(rng, 43) for _ in range(2)]
    np.save(stack, np.stack([p.array for p in points]))
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.bin"
        subprocess.run(
            [sys.executable, "-c", _THREADED_DIVERGENCES, str(stack), str(out)],
            env=blas_thread_env(threads), check=True, timeout=120,
        )
        written.append(out.read_bytes())
    assert len(written[0]) == 8 * 8 * 8
    assert written[0] == written[1]


_SEEDS = st.integers(0, 2**32 - 1)
_DIMS = st.integers(2, 8)


@settings(max_examples=40)
@given(seed=_SEEDS, dim=_DIMS)
def test_property_divergence_exactly_symmetric(seed, dim):
    rng = np.random.default_rng(seed)
    x, y = random_spd(rng, dim), random_spd(rng, dim)
    assert stein_divergence(x, y) == stein_divergence(y, x)


@settings(max_examples=40)
@given(seed=_SEEDS, dim=_DIMS)
def test_property_divergence_of_a_point_with_itself_is_zero(seed, dim):
    x = random_spd(np.random.default_rng(seed), dim)
    assert stein_divergence(x, x) == 0.0


@settings(max_examples=40)
@given(seed=_SEEDS, dim=_DIMS)
def test_property_divergence_congruence_invariant(seed, dim):
    rng = np.random.default_rng(seed)
    x, y = random_spd(rng, dim), random_spd(rng, dim)
    # Condition number at most e^2, so the congruence loses little precision.
    a = random_orthogonal(rng, dim) * np.exp(rng.uniform(-1.0, 1.0, size=dim))
    xa = SpdMatrix(symmetrize(a @ x.array @ a.T))
    ya = SpdMatrix(symmetrize(a @ y.array @ a.T))
    assert stein_divergence(xa, ya) == pytest.approx(
        stein_divergence(x, y), rel=1e-8, abs=1e-10
    )


@settings(max_examples=60)
@given(
    seed=_SEEDS,
    dim=st.one_of(_DIMS, st.just(43)),
    log_spread=st.floats(0.1, 2.0),
    log_scale=st.floats(-20.0, 20.0),
)
def test_property_cholesky_logdet_matches_slogdet(seed, dim, log_spread, log_scale):
    rng = np.random.default_rng(seed)
    x, y = (
        SpdMatrix(math.exp(log_scale) * random_spd(rng, dim, log_spread).array)
        for _ in range(2)
    )
    for point in (x, y):
        sign, ref = np.linalg.slogdet(point.array)
        assert sign == 1.0
        assert point.logdet == pytest.approx(ref, rel=1e-12, abs=1e-12)
    assert stein_divergence(x, y) == stein_divergence(y, x)


def reference_logdet(a):
    """``2 * fsum(log(diag(L)))`` from ``dpotrf`` of a copy of ``a``."""
    factor, info = dpotrf(a, 1, 0)  # overwrite_a=0: f2py factors a copy
    assert info == 0
    return 2.0 * math.fsum(np.log(factor.diagonal()))


def reference_divergence(x, y):
    """J(x, y) from a fresh midpoint ``(x + y) * 0.5``, clamped with ``max``."""
    logdets = reference_logdet(x.array) + reference_logdet(y.array)
    value = reference_logdet((x.array + y.array) * 0.5) - 0.5 * logdets
    return max(value, 0.0)


_POINTS = st.tuples(
    st.sampled_from(["spread", "near_floor"]),
    st.floats(0.1, 8.0),  # log spread of a "spread" point's spectrum
    st.floats(-20.0, 20.0),  # log scale
)


@settings(max_examples=80)
@given(seed=_SEEDS, dim=st.one_of(_DIMS, st.just(43)), first=_POINTS, second=_POINTS)
@example(seed=0, dim=43, first=("near_floor", 1.0, 20.0), second=("near_floor", 1.0, -20.0))
@example(seed=1, dim=2, first=("spread", 8.0, -20.0), second=("spread", 0.1, 20.0))
def test_property_divergence_equals_the_fresh_midpoint_formula(seed, dim, first, second):
    # The cached halves, the in-place factorizations and the clamp must give
    # the bits of the plain formula.
    rng = np.random.default_rng(seed)

    def draw(kind, log_spread, log_scale):
        if kind == "near_floor":
            return SpdMatrix(math.exp(log_scale) * near_floor_point(rng, dim).array)
        return SpdMatrix(math.exp(log_scale) * random_spd(rng, dim, log_spread).array)

    x, y = draw(*first), draw(*second)
    value = stein_divergence(x, y)
    assert x.logdet.hex() == reference_logdet(x.array).hex()
    assert value.hex() == reference_divergence(x, y).hex()
    assert value.hex() == stein_divergence(y, x).hex()
    assert stein_divergence(x, SpdMatrix(x.array.copy())).hex() == (0.0).hex()


@st.composite
def _diagonals_and_order(draw):
    dim = draw(st.integers(2, 43))
    entries = st.lists(st.floats(1e-3, 1e3), min_size=dim, max_size=dim)
    order = draw(st.permutations(range(dim)))
    return np.array(draw(entries)), np.array(draw(entries)), np.array(order)


@settings(max_examples=80)
@given(diagonals=_diagonals_and_order())
@example(diagonals=(np.array([0.1, 0.2, 0.5]), np.array([1.0, 2.0, 5.0]), np.array([1, 2, 0])))
def test_property_logdets_do_not_depend_on_the_diagonal_order(diagonals):
    # Each log-det is an exactly rounded sum, so permuting the diagonal of a
    # diagonal point, and of its partner by the same order, keeps every bit.
    v, w, order = diagonals
    x, y = SpdMatrix(np.diag(v)), SpdMatrix(np.diag(w))
    xp, yp = SpdMatrix(np.diag(v[order])), SpdMatrix(np.diag(w[order]))
    assert xp.logdet.hex() == x.logdet.hex()
    assert stein_divergence(xp, yp).hex() == stein_divergence(x, y).hex()


# Points at least this AIRM distance apart have J bounded away from zero.
_MIN_DISTANCE = 0.5


@settings(max_examples=40)
@given(
    seed=_SEEDS,
    dim=_DIMS,
    distance=st.floats(_MIN_DISTANCE, 4.0),
)
def test_property_divergence_positive_off_the_diagonal(seed, dim, distance):
    rng = np.random.default_rng(seed)
    x = random_spd(rng, dim)
    # y = x^1/2 exp(S) x^1/2 lies at AIRM distance ||S||_F = distance from x,
    # and J(x, y) = sum_i log cosh(s_i / 2) over the eigenvalues s_i of S.
    s = rng.standard_normal(dim)
    s *= distance / np.linalg.norm(s)
    q = random_orthogonal(rng, dim)
    y = SpdMatrix(symmetrize(x.sqrt_array @ (q * np.exp(s)) @ q.T @ x.sqrt_array))
    # The largest |s_i| is at least distance / sqrt(dim).
    floor = math.log(math.cosh(distance / (2.0 * math.sqrt(dim))))
    assert stein_divergence(x, y) >= 0.5 * floor > 0.0


@settings(max_examples=40)
@given(
    seed=_SEEDS,
    dim=_DIMS,
    sigma=st.floats(0.01, 10.0),
    log_spread=st.floats(0.1, 3.0),
)
def test_property_kernel_value_in_unit_interval(seed, dim, sigma, log_spread):
    # Each term of J is at most |log lambda_i(x^-1 y)| / 2 <= log_spread, so
    # sigma * J <= 10 * 8 * 3 = 240, far from where exp(-sigma * J)
    # underflows to zero (about 745).
    rng = np.random.default_rng(seed)
    x = random_spd(rng, dim, log_spread)
    y = random_spd(rng, dim, log_spread)
    k = kernel_value(x, y, sigma)
    assert 0.0 < k <= 1.0


@settings(max_examples=60)
@given(
    seed=_SEEDS,
    dim=st.integers(2, 6),
    sigma=st.one_of(st.floats(0.02, 0.5), st.floats(0.5, 3.0)),
    witnesses=st.sets(st.integers(0, len(INDEFINITE_POINTS) - 1), min_size=2),
    extra=st.integers(0, 3),
)
@example(seed=0, dim=2, sigma=0.25, witnesses=set(range(8)), extra=0)
@example(seed=1, dim=5, sigma=0.3, witnesses=set(range(8)), extra=2)
def test_property_psd_policies_off_the_grid(seed, dim, sigma, witnesses, extra):
    # Random pools almost never give an indefinite Gram, so the pool is part
    # of the 2x2 witness, embedded as a * diag(W, I) * a (a congruence keeps
    # every divergence), plus a few random points.
    assume(not sigma_guarantees_psd(sigma, dim))
    rng = np.random.default_rng(seed)
    a = random_spd(rng, dim, log_spread=1.0).sqrt_array
    embedded = np.eye(dim)
    points = []
    for i in sorted(witnesses):
        embedded[:2, :2] = INDEFINITE_POINTS[i].array
        points.append(SpdMatrix(symmetrize(a @ embedded @ a)))
    points += [random_spd(rng, dim) for _ in range(extra)]
    divergences = divergence_matrix(points, points)
    vals = np.linalg.eigvalsh(np.exp(-sigma * divergences))
    lo, hi = float(vals[0]), float(vals[-1])
    # Stay clear of both thresholds by more than eigh and eigvalsh can differ.
    assume(min(abs(lo), abs(lo + GRAM_PSD_RTOL * hi)) > 1e-12 * hi)

    strict = KernelParams(sigma, psd_policy="strict")
    if lo < -GRAM_PSD_RTOL * hi:
        with pytest.raises(IndefiniteKernel):
            gram_matrix(divergences, strict)
    else:
        gram_matrix(divergences, strict)
    gram = gram_matrix(divergences, KernelParams(sigma, psd_policy="clamp"))
    repaired = np.linalg.eigvalsh(gram.entries)
    assert repaired[0] >= -1e-12 * repaired[-1]
    assert (gram.clamped_mass == 0.0) == (lo >= 0.0)
