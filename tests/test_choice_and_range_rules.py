"""Every checked choice and real range goes through one ``errors`` rule.

``require_choice`` accepts a string among its choices and
``require_real`` a real number in its range.  At each site a NaN, an
infinity, a bool, a numeric string and a value past each bound raise
``ConfigError`` naming the field, and a value at an inclusive bound is
accepted.  The rules return the choice itself, or ``float(value)``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spdrose import (
    ConfigError,
    DatasetManifest,
    ExperimentConfig,
    KernelParams,
    ManifestEntry,
    ProjectionModel,
    SynthesisConfig,
    build_projection_model,
    divergence_matrix,
    geodesic_rescale,
    jl_distortion_report,
    keyed_generator,
    make_benchmark,
    make_cluster_centers,
    sample_cluster,
)
from spdrose.cli import main
from spdrose.errors import require_choice, require_positive, require_real

TINY = -5e-324  # the negative float closest to 0


@pytest.fixture(scope="module")
def model():
    points = list(make_benchmark(2, 3, 4, 0, separation=2.5, spread=0.08, seed=0).train_points)
    return build_projection_model(
        points, divergence_matrix(points, points), k=3, params=KernelParams(0.5)
    )


def _model_with(model, **fields):
    base = dict(reference_points=model.reference_points, kernel_params=model.kernel_params,
                weights=model.weights, t=model.t, exponent_mode=model.exponent_mode,
                seed=model.seed)
    return ProjectionModel(**{**base, **fields})


def _build(exponent_mode, model):
    refs = model.reference_points
    return build_projection_model(refs, divergence_matrix(refs, refs), k=3,
                                  params=model.kernel_params, exponent_mode=exponent_mode)


def _jl(epsilon, model):
    refs = model.reference_points
    return jl_distortion_report(model, divergence_matrix(refs, refs), epsilon)


def _center():
    return make_cluster_centers(1, 3, 0.0)[0]


# Choice sites: (id, field named in the message, make(value, model)).  Range sites
# also list, after the field, the bounds that are rejected and those accepted.
CHOICES = [
    ("psd-policy", "psd_policy", lambda v, m: KernelParams(0.5, v)),
    ("direction-mode", "direction_mode", lambda v, m: SynthesisConfig(direction_mode=v)),
    ("feature-mode", "feature_mode",
     lambda v, m: DatasetManifest((ManifestEntry("a.txt", 0),), v)),
    ("k-policy", "k_policy", lambda v, m: ExperimentConfig(k_policy=("n", v))),
    # A synthetic candidate that is not a string is a count.
    ("synthetic-symbol", "synthetic (symbol|count)",
     lambda v, m: ExperimentConfig(synthetic=(0, v))),
    ("config-exponent-mode", "exponent_mode", lambda v, m: ExperimentConfig(exponent_mode=v)),
    ("build-exponent-mode", "exponent_mode", _build),
    ("model-exponent-mode", "exponent_mode", lambda v, m: _model_with(m, exponent_mode=v)),
]
RANGES = [
    ("separation", "separation", (TINY,), (0,), lambda v, m: make_cluster_centers(2, 3, v)),
    ("spread", "spread", (TINY,), (0,), lambda v, m: sample_cluster(
        _center(), 2, v, keyed_generator(0))),
    ("zeta", "zeta", (TINY,), (0,), lambda v, m: geodesic_rescale(
        m.reference_points[0], m.reference_points[1], v)),
    ("jl-epsilon", "epsilon", (0, 1), (), _jl),
    ("validation-fraction", "validation_fraction", (0, 1), (),
     lambda v, m: ExperimentConfig(validation_fraction=v)),
    # dim is an integer; its bound is the class count.
    ("cluster-dim", "dim", (1,), (2,), lambda v, m: make_cluster_centers(2, v, 1.0)),
]
# Values no site accepts: not a string among the choices, nor a finite real.
ANY_SITE = (("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf), ("bool", True),
            ("numeric-string", "0.5"))

REJECTED = [
    pytest.param(make, name, value, id=f"{site}-{case}")
    for site, name, make in CHOICES
    for case, value in (*ANY_SITE, ("unknown", "bogus"))
] + [
    pytest.param(make, name, value, id=f"{site}-{case}")
    for site, name, below, _, make in RANGES
    for case, value in (*ANY_SITE, *((f"bound-{b}", b) for b in below))
]
ACCEPTED = [
    pytest.param(make, value, id=f"{site}-{value}")
    for site, _, _, bounds, make in RANGES
    for value in bounds
]


@pytest.mark.parametrize("make, name, value", REJECTED)
def test_a_rejected_setting_raises_config_error_naming_the_field(model, make, name, value):
    with pytest.raises(ConfigError, match=f"^{name} must be "):
        make(value, model)


@pytest.mark.parametrize("make, value", ACCEPTED)
def test_a_setting_at_an_inclusive_bound_is_accepted(model, make, value):
    make(value, model)


@pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf", "0", "1"])
def test_the_cli_rejects_epsilon_before_loading_data(tmp_path, capsys, epsilon):
    # A missing manifest alone is a data error, exit 3.
    argv = ["jl-check", "--data", str(tmp_path / "missing.json"), "--k", "4",
            f"--epsilon={epsilon}"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: epsilon must be positive and below 1")


def test_the_messages_state_the_range():
    cases = [
        (lambda: require_real(-1, "x", nonnegative=True), "x must be nonnegative and finite"),
        (lambda: require_real(1, "x", below=1), "x must be positive and below 1"),
        (lambda: require_real(-1, "x", nonnegative=True, below=2.5),
         "x must be nonnegative and below 2.5"),
        (lambda: require_positive(0, "sigma"), "sigma must be positive and finite"),
        (lambda: require_choice("c", "mode", ("b", "a")), "mode must be one of ['a', 'b']"),
    ]
    for reject, message in cases:
        with pytest.raises(ConfigError) as info:
            reject()
        assert str(info.value).startswith(message + ", got ")


_REALS = st.one_of(
    st.floats(min_value=0.0, max_value=1e300),
    st.integers(min_value=0, max_value=10**12),
    st.floats(min_value=0.0, max_value=1e300).map(np.float64),
)


@given(value=_REALS, nonnegative=st.booleans(), below=st.sampled_from([math.inf, 1, 2.5]))
def test_require_real_returns_the_float_of_a_value_in_range(value, nonnegative, below):
    inside = (0 <= value if nonnegative else 0 < value) and value < below
    if inside:
        result = require_real(value, "x", nonnegative=nonnegative, below=below)
        assert type(result) is float and result == float(value)
    else:
        with pytest.raises(ConfigError, match="^x must be "):
            require_real(value, "x", nonnegative=nonnegative, below=below)


@given(value=st.floats(min_value=5e-324, max_value=1e300))
def test_require_positive_returns_the_float(value):
    result = require_positive(np.float64(value), "sigma")
    assert type(result) is float and result == value


@given(choices=st.lists(st.text(min_size=1), min_size=1, unique=True), data=st.data())
def test_require_choice_returns_the_choice(choices, data):
    choice = data.draw(st.sampled_from(choices))
    assert require_choice(choice, "mode", tuple(choices)) is choice
    assert require_choice(choice, "mode", dict.fromkeys(choices)) is choice
