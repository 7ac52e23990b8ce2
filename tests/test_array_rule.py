"""Every checked float array goes through ``errors.require_array``.

At each site a NaN and an infinity raise ``NonFiniteEntry``, and an extra
axis and, where an axis has a fixed length, one entry too many along it
raise ``DimensionMismatch``.  Each message begins with the array's name.
The rule returns the array as float64, and a loaded classifier file that
fails it is a ``ParseError`` naming the file, exit 3 on the command line.
"""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from spdrose import (
    ColorImage,
    DimensionMismatch,
    FeatureImage,
    GrayImage,
    KernelParams,
    NonFiniteEntry,
    ProjectionModel,
    TrainedClassifier,
    build_projection_model,
    decision_scores,
    divergence_matrix,
    embed_batch,
    knn_stein,
    make_benchmark,
    save_dataset,
    train_ova_svm,
)
from spdrose.cli import main
from spdrose.errors import require_array
from spdrose.manifold import airm_exp_map_stack, airm_log_map_stack, geodesic_distance_stack


@pytest.fixture(scope="module")
def model():
    points = list(make_benchmark(2, 3, 3, 0, separation=2.5, spread=0.08, seed=0).train_points)
    return build_projection_model(
        points, divergence_matrix(points, points), k=3, params=KernelParams(0.5)
    )


CLASSIFIER = dict(classes=(0, 1), weights=np.ones((2, 2)), biases=np.zeros(2),
                  feature_mean=np.zeros(2), feature_scale=np.ones(2), regularization=0.1)


def _classifier(**fields):
    return TrainedClassifier(**{**CLASSIFIER, **fields})


def _model_with(model, weights):
    return ProjectionModel(model.reference_points, model.kernel_params, weights, model.t,
                           model.exponent_mode, model.seed)


def _refs(model):
    return model.reference_points


def _stack(model):
    return np.stack([r.array for r in _refs(model)[:2]])


# (id, name the message begins with, valid(model), the axis of fixed length
#  that gets one entry too many or None, call(array, model))
SITES = [
    ("classifier-weights", "weights", lambda m: CLASSIFIER["weights"], 0,
     lambda a, m: _classifier(weights=a)),
    ("classifier-biases", "biases", lambda m: CLASSIFIER["biases"], 0,
     lambda a, m: _classifier(biases=a)),
    ("classifier-feature-mean", "feature_mean", lambda m: CLASSIFIER["feature_mean"], 0,
     lambda a, m: _classifier(feature_mean=a)),
    ("classifier-feature-scale", "feature_scale", lambda m: CLASSIFIER["feature_scale"], 0,
     lambda a, m: _classifier(feature_scale=a)),
    ("train-features", "features",
     lambda m: np.array([[-1.0, 0.0], [-1.2, 0.1], [1.0, 0.0], [1.1, 0.2]]), None,
     lambda a, m: train_ova_svm(a, [0, 0, 1, 1])),
    ("score-features", "features", lambda m: np.zeros((3, 2)), 1,
     lambda a, m: decision_scores(_classifier(), a)),
    ("knn-divergences", "divergences", lambda m: np.zeros((1, 3)), 1,
     lambda a, m: knn_stein([0, 1, 0], 1, a)),
    ("gray-pixels", "pixels", lambda m: np.full((4, 4), 0.5), None,
     lambda a, m: GrayImage(a)),
    ("color-pixels", "pixels", lambda m: np.full((4, 4, 3), 0.5), 2,
     lambda a, m: ColorImage(a)),
    ("feature-image-values", "values", lambda m: np.zeros((4, 4, 2)), 2,
     lambda a, m: FeatureImage(a, ("a", "b"))),
    ("model-weights", "weights for 6 reference points", lambda m: m.weights, 0,
     lambda a, m: _model_with(m, a)),
    ("build-divergences", "divergences",
     lambda m: divergence_matrix(_refs(m), _refs(m)), 1,
     lambda a, m: build_projection_model(_refs(m), a, k=3, params=m.kernel_params)),
    ("embed-divergences", "divergences",
     lambda m: divergence_matrix(_refs(m)[:2], _refs(m)), 1,
     lambda a, m: embed_batch(m, a)),
    ("log-map-stack", "stack", _stack, 2,
     lambda a, m: airm_log_map_stack(_refs(m)[0], a)),
    ("exp-map-stack", "stack", lambda m: np.zeros((1, 3, 3)), 2,
     lambda a, m: airm_exp_map_stack(_refs(m)[0], a)),
    ("distance-stack", "stack", _stack, 2,
     lambda a, m: geodesic_distance_stack(_refs(m)[0], a)),
]
SITE_IDS = [site[0] for site in SITES]


def _with_entry(array, value):
    out = np.array(array, dtype=np.float64)
    out.flat[-1] = value
    return out


def _longer(array, axis):
    return np.concatenate([array, np.take(array, [0], axis=axis)], axis=axis)


CASES = [
    pytest.param(site, case, id=f"{site[0]}-{case}")
    for site in SITES
    for case in ("nan", "inf", "-inf", "extra-axis", "longer")
    if case != "longer" or site[3] is not None
]


@pytest.mark.parametrize("site, case", CASES)
def test_a_rejected_array_raises_the_typed_error_naming_it(model, site, case):
    _, name, valid, axis, call = site
    array = valid(model)
    error, message = DimensionMismatch, f"{name} must have shape ("
    if case == "extra-axis":
        bad = array[..., None]
    elif case == "longer":
        bad = _longer(array, axis)
    else:
        bad, error = _with_entry(array, float(case)), NonFiniteEntry
        message = f"{name} must be finite"
    with pytest.raises(error) as info:
        call(bad, model)
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("site", SITES, ids=SITE_IDS)
def test_each_site_accepts_its_valid_array(model, site):
    _, _, valid, _, call = site
    call(valid(model), model)


def test_require_array_messages():
    with pytest.raises(DimensionMismatch, match=r"^x must have shape \(\*, 3\), got \(2,\)$"):
        require_array(np.zeros(2), "x", (None, 3))
    with pytest.raises(DimensionMismatch, match=r"^x must have shape \(2,\), got \(3,\)$"):
        require_array([1, 2, 3], "x", (2,))
    with pytest.raises(NonFiniteEntry, match="^x must be finite$"):
        require_array([[1.0, np.nan]], "x", (1, 2))


FINITE = hnp.arrays(
    st.sampled_from([np.float64, np.float32, np.float16]),
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
    elements={"allow_nan": False, "allow_infinity": False},
)


@given(FINITE, st.data())
def test_property_require_array_returns_a_matching_finite_input_as_float64(value, data):
    pattern = tuple(data.draw(st.sampled_from([n, None])) for n in value.shape)
    # A list with a zero length loses the axes after it.
    lists = [value.tolist()] if 0 not in value.shape else []
    given_as = data.draw(st.sampled_from([value, *lists]))
    out = require_array(given_as, "x", pattern)
    assert out.dtype == np.float64 and out.shape == value.shape
    assert np.array_equal(out, value.astype(np.float64))


@given(FINITE.filter(lambda a: a.size > 0), st.data())
def test_property_a_non_finite_entry_anywhere_is_rejected(value, data):
    index = data.draw(st.integers(0, value.size - 1))
    bad = value.astype(np.float64)
    bad.flat[index] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    with pytest.raises(NonFiniteEntry, match="^x must be finite$"):
        require_array(bad, "x", value.shape)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda payload: payload["biases"].pop(),
        lambda payload: payload["feature_mean"].pop(),
    ],
    ids=["dropped-bias", "dropped-feature-mean"],
)
def test_eval_of_a_classifier_file_with_a_misshapen_array_exits_3(tmp_path, capsys, mutate):
    bench = make_benchmark(2, 3, 12, 0, separation=2.5, spread=0.08, seed=0)
    manifest = save_dataset(tmp_path / "data", list(bench.train_points),
                            list(bench.train_labels))
    model_dir = tmp_path / "model"
    assert main(["train", "--train", str(manifest), "--out", str(model_dir)]) == 0
    path = model_dir / "classifier.json"
    payload = json.loads(path.read_text())
    mutate(payload)
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["eval", "--model", str(model_dir), "--test", str(manifest)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "classifier.json" in err
