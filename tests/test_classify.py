"""Unit tests for the linear one-vs-all SVM and the divergence baseline."""

import json
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import spdrose.classify
from spdrose import (
    ConfigError,
    DimensionMismatch,
    EmptyData,
    NonConvergence,
    NonFiniteEntry,
    ParseError,
    SingleClass,
    SpdMatrix,
    TrainedClassifier,
    decision_scores,
    divergence_matrix,
    evaluate_accuracy,
    knn_stein,
    load_classifier,
    predict,
    save_classifier,
    train_ova_svm,
)

from conftest import blas_thread_env, random_spd


def toy_problem(spread=0.0, seed=0):
    rng = np.random.default_rng(seed)
    left = -1.0 + spread * rng.standard_normal((10, 1))
    right = 1.0 + spread * rng.standard_normal((10, 1))
    coords = np.vstack([left, right])
    labels = np.array([0] * 10 + [1] * 10)
    return coords, labels


def test_toy_problem_separates():
    coords, labels = toy_problem()
    model = train_ova_svm(coords, labels)
    assert np.array_equal(predict(model, coords), labels)


def test_single_class_and_empty_rejected():
    with pytest.raises(SingleClass):
        train_ova_svm(np.ones((5, 2)), np.zeros(5, dtype=int))
    with pytest.raises(EmptyData):
        train_ova_svm(np.empty((0, 2)), np.empty(0, dtype=int))


def test_training_is_deterministic():
    coords, labels = toy_problem(spread=0.2)
    a = train_ova_svm(coords, labels)
    b = train_ova_svm(coords, labels)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.biases, b.biases)


# Trains each problem named after the output directory, "n x k x classes
# x seed", and writes its saved classifier file there.
_THREADED_TRAINING = """
import sys
import numpy as np
from spdrose import save_classifier, train_ova_svm
for shape in sys.argv[2:]:
    n, k, classes, seed = (int(a) for a in shape.split("x"))
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(classes), n // classes)
    coords = rng.normal(size=(n, k)) + 0.8 * rng.normal(size=(classes, k))[labels]
    save_classifier(f"{sys.argv[1]}/{shape}.json", train_ova_svm(coords, labels))
"""
# 48 descriptors embedded with k = 2n hyperplanes; degradation_study's 100
# descriptors, k = 2n, five classes, whose first Newton steps factor a
# 100 x 100 block; the Gram and the feature form past one _BLOCK-row block;
# a 401-row feature-form Hessian, whose 274 x 127 rows below its first
# block make a Schur complement that a GEMM rounds by thread count.
_THREADED_SHAPES = (
    "48x96x4x5", "100x200x5x6", "200x400x5x7", "400x150x5x7", "600x400x5x8",
)


@pytest.fixture(scope="module")
def saved_at_one_and_two_blas_threads(tmp_path_factory):
    """Each shape's saved classifier bytes at 1 and at 2 BLAS threads."""
    saved = {shape: [] for shape in _THREADED_SHAPES}
    for threads in ("1", "2"):
        out = tmp_path_factory.mktemp(f"threads{threads}")
        subprocess.run(
            [sys.executable, "-c", _THREADED_TRAINING, str(out), *_THREADED_SHAPES],
            env=blas_thread_env(threads), check=True, timeout=120,
        )
        for shape in _THREADED_SHAPES:
            saved[shape].append((out / f"{shape}.json").read_bytes())
    return saved


def test_training_is_identical_across_blas_thread_counts(
    saved_at_one_and_two_blas_threads,
):
    first, second = saved_at_one_and_two_blas_threads["48x96x4x5"]
    assert first == second


def test_training_at_the_degradation_shape_is_identical_across_blas_thread_counts(
    saved_at_one_and_two_blas_threads,
):
    first, second = saved_at_one_and_two_blas_threads["100x200x5x6"]
    assert first == second


@pytest.mark.parametrize("shape", ["200x400x5x7", "400x150x5x7", "600x400x5x8"])
def test_training_past_one_factor_block_is_identical_across_blas_thread_counts(
    saved_at_one_and_two_blas_threads, shape
):
    first, second = saved_at_one_and_two_blas_threads[shape]
    assert first == second


@pytest.mark.parametrize("extra", [-1, 0, 1, 130])
def test_blocked_cholesky_matches_lapack(extra):
    n = spdrose.classify._BLOCK + extra
    rng = np.random.default_rng(n)
    z = rng.normal(size=(n, n + 10))
    a = z @ z.T + 0.05 * np.eye(n)
    low = spdrose.classify._cholesky(a)
    assert np.array_equal(low, np.tril(low))
    reference = np.linalg.cholesky(a)
    assert np.linalg.norm(low - reference) <= 1e-12 * np.linalg.norm(reference)


def dense_newton_step(z, active, grad, lam):
    """Reference: the full (k+1) x (k+1) Newton system, solved densely."""
    n, k = z.shape
    xa = np.hstack([z[active], np.ones((int(active.sum()), 1))])
    hessian = np.diag(np.append(np.full(k, lam), 0.0)) + (2.0 / n) * xa.T @ xa
    return np.linalg.solve(hessian, -grad)


@pytest.mark.parametrize("n, k", [(20, 40), (30, 5), (150, 300), (300, 150)])
def test_newton_step_matches_a_dense_solve(n, k):
    # Gram form for n <= k, feature form otherwise, as train_ova_svm picks.
    rng = np.random.default_rng(n + k)
    z = rng.normal(size=(n, k))
    kernel = np.array([z @ row for row in z])
    lam = spdrose.classify.DEFAULT_LAMBDA
    for fraction in (1.0, 0.7, 0.3, 0.05):
        active = rng.random(n) < fraction
        active[rng.integers(n)] = True
        grad = rng.normal(size=k + 1)
        kaa = kernel[np.ix_(active, active)] if n <= k else None
        step = spdrose.classify._newton_step(z[active], kaa, grad, lam, n)
        reference = dense_newton_step(z, active, grad, lam)
        assert np.linalg.norm(step - reference) <= 1e-10 * np.linalg.norm(reference)


def test_newton_step_without_active_rows_leaves_the_bias():
    # With no active row the bias has neither curvature nor gradient, so
    # the step is -g_w / lam in w and zero in b.
    rng = np.random.default_rng(4)
    z, lam = rng.normal(size=(20, 40)), 0.01
    grad = np.append(rng.normal(size=40), 0.0)
    none = np.zeros(20, dtype=bool)
    step = spdrose.classify._newton_step(z[none], np.zeros((0, 0)), grad, lam, 20)
    assert np.array_equal(step, np.append(-grad[:-1] / lam, 0.0))


def squared_hinge_gradient(z, targets, w, b, lam):
    """Gradient of lam/2 |w|^2 + mean max(0, 1 - y (w.z + b))^2 in (w, b)."""
    gap = np.maximum(0.0, 1.0 - targets * (z @ w + b))
    scaled = (2.0 / len(targets)) * targets * gap
    return np.append(lam * w - z.T @ scaled, -scaled.sum()), gap


@pytest.mark.parametrize("spread", [0.2, 1.5])
def test_solution_meets_gradient_tolerance(spread):
    rng = np.random.default_rng(3)
    labels = np.repeat(np.arange(3), 10)
    coords = rng.normal(scale=spread, size=(30, 5)) + 2.0 * np.eye(3, 5)[labels]
    model = train_ova_svm(coords, labels)
    z = (coords - model.feature_mean) / model.feature_scale
    lam = model.regularization
    assert len(model.convergence) == 3
    for ci, cls in enumerate(model.classes):
        targets = np.where(labels == cls, 1.0, -1.0)
        grad, gap = squared_hinge_gradient(
            z, targets, model.weights[ci], model.biases[ci], lam
        )
        start, _ = squared_hinge_gradient(z, targets, np.zeros(5), 0.0, lam)
        ratio = np.linalg.norm(grad) / np.linalg.norm(start)
        assert ratio <= spdrose.classify.GRADIENT_RTOL
        record = model.convergence[ci]
        assert record.gradient_ratio <= spdrose.classify.GRADIENT_RTOL
        assert 1 <= record.newton_steps <= spdrose.classify.MAX_NEWTON_STEPS
        objective = 0.5 * lam * model.weights[ci] @ model.weights[ci] + np.mean(gap**2)
        assert record.objective == pytest.approx(objective, rel=1e-12)


def test_newton_step_cap_raises_nonconvergence(monkeypatch):
    coords, labels = toy_problem(spread=0.25, seed=2)
    monkeypatch.setattr(spdrose.classify, "MAX_NEWTON_STEPS", 1)
    with pytest.raises(NonConvergence) as info:
        train_ova_svm(coords, labels)
    assert info.value.iterations == 1
    assert info.value.residual > spdrose.classify.GRADIENT_RTOL


def test_zero_variance_column_is_handled():
    coords = np.array([[-1.0, 5.0], [-1.1, 5.0], [1.0, 5.0], [1.2, 5.0]])
    labels = np.array([0, 0, 1, 1])
    model = train_ova_svm(coords, labels)
    assert model.feature_scale[1] == 1.0
    assert np.array_equal(predict(model, coords), labels)


def test_scores_shapes_and_dimension_check():
    coords, labels = toy_problem()
    model = train_ova_svm(coords, labels)
    batch = decision_scores(model, coords)
    assert batch.shape == (20, 2)
    assert np.array_equal(decision_scores(model, coords[:1]), batch[:1])
    # Scores and predictions take a batch only; one vector is a (1, k) batch.
    with pytest.raises(ValueError):
        decision_scores(model, coords[0])
    with pytest.raises(ValueError):
        predict(model, coords[0])
    with pytest.raises(DimensionMismatch):
        decision_scores(model, np.zeros((1, 3)))


def test_scores_that_overflow_raise_a_data_error_without_a_warning():
    # The largest finite weights and biases overflow the margins; predict
    # used to warn and pick classes from infinite scores.
    coords, labels = toy_problem()
    model = train_ova_svm(coords, labels)
    top = np.finfo(np.float64).max
    huge = replace(model, weights=[[top], [-top]], biases=[top, -top])
    for score in (decision_scores, predict):
        with pytest.raises(NonFiniteEntry, match="non-finite scores"):
            score(huge, coords)


@pytest.mark.parametrize("regularization", [0.0, -1.0, np.nan, np.inf])
def test_regularization_must_be_positive_and_finite(regularization):
    # inf passed the positivity check and ran 50 NaN Newton steps.
    coords, labels = toy_problem(spread=0.3)
    with pytest.raises(ValueError, match="regularization must be positive"):
        train_ova_svm(coords, labels, regularization=regularization)


def test_zero_weights_predict_class_zero_by_tie_rule():
    model = TrainedClassifier(
        classes=(0, 1, 2),
        weights=np.zeros((3, 2)),
        biases=np.zeros(3),
        feature_mean=np.zeros(2),
        feature_scale=np.ones(2),
        regularization=1e-3,
    )
    assert predict(model, np.array([[0.4, -0.7]])).tolist() == [0]
    assert np.array_equal(predict(model, np.ones((4, 2))), np.zeros(4))


def test_predict_invariant_to_increasing_score_transform():
    coords, labels = toy_problem(spread=0.3)
    model = train_ova_svm(coords, labels)
    scores = decision_scores(model, coords)
    transformed = 3.0 * scores + 5.0
    assert np.array_equal(
        predict(model, coords),
        np.array([model.classes[i] for i in np.argmax(transformed, axis=1)]),
    )


def test_prediction_invariant_to_feature_rescaling():
    rng = np.random.default_rng(12)
    coords = np.vstack(
        [rng.normal(-2.0, 0.6, (12, 3)), rng.normal(2.0, 0.6, (12, 3))]
    )
    labels = np.array([0] * 12 + [1] * 12)
    queries = rng.normal(0.0, 2.0, (30, 3))
    model = train_ova_svm(coords, labels)
    scale = np.array([3.5, 0.2, 11.0])
    shift = np.array([-4.0, 0.7, 2.5])
    rescaled_model = train_ova_svm(coords * scale + shift, labels)
    assert np.array_equal(
        predict(model, queries), predict(rescaled_model, queries * scale + shift)
    )


def knn(train, labels, queries, n_neighbors=1):
    return knn_stein(labels, n_neighbors, divergence_matrix(queries, train))


def test_knn_recovers_training_point(rng):
    train = [random_spd(rng, 3) for _ in range(6)]
    labels = [0, 1, 2, 0, 1, 2]
    for i, point in enumerate(train):
        assert knn(train, labels, [point], 1)[0] == labels[i]


def test_knn_two_scale_clusters():
    # diag(a * I) clusters at a near 1 and near 100 are separated by a
    # large divergence gap, so 1-NN is exact.
    small = [SpdMatrix(a * np.eye(3)) for a in (0.9, 1.0, 1.1)]
    large = [SpdMatrix(a * np.eye(3)) for a in (90.0, 100.0, 110.0)]
    train = small + large
    labels = [0, 0, 0, 1, 1, 1]
    queries = [SpdMatrix(1.05 * np.eye(3)), SpdMatrix(95.0 * np.eye(3))]
    assert knn(train, labels, queries, 1).tolist() == [0, 1]


def test_knn_full_vote_is_global_majority(rng):
    train = [random_spd(rng, 2) for _ in range(5)]
    labels = [1, 1, 1, 0, 0]
    queries = [random_spd(rng, 2) for _ in range(3)]
    assert knn(train, labels, queries, 5).tolist() == [1, 1, 1]


def test_knn_vote_tie_prefers_smaller_label():
    a = SpdMatrix(np.diag([2.0, 0.5]))
    b = SpdMatrix(np.diag([0.5, 2.0]))
    query = SpdMatrix(np.eye(2))
    assert knn([a, b], [1, 0], [query], 2)[0] == 0


def test_knn_validation(rng):
    with pytest.raises(EmptyData):
        knn([], [], [random_spd(rng, 2)])
    train = [random_spd(rng, 2) for _ in range(3)]
    with pytest.raises(ConfigError, match="^n_neighbors must be at most 3, got 4$"):
        knn(train, [0, 1, 0], [train[0]], 4)
    with pytest.raises(DimensionMismatch):
        knn(train, [0, 1], [train[0]])


def test_evaluate_accuracy_basics():
    result = evaluate_accuracy([0, 0, 1, 1], [0, 1, 1, 1])
    assert result.total == 4
    assert result.correct == 3
    assert result.accuracy == 0.75
    assert result.by_class == ((0, 0.5), (1, 1.0))
    assert result.confusion == ((1, 1), (0, 2))
    assert sum(sum(row) for row in result.confusion) == result.total


def test_evaluate_constant_predictor_on_balanced_classes():
    true = [0, 1, 2, 3] * 5
    predicted = [2] * 20
    result = evaluate_accuracy(true, predicted)
    assert result.accuracy == 0.25
    for i, cls in enumerate(result.class_labels):
        assert sum(result.confusion[i]) == true.count(cls)


def test_evaluate_with_explicit_class_labels():
    result = evaluate_accuracy([0, 0], [0, 0], class_labels=(0, 1, 2))
    assert result.class_labels == (0, 1, 2)
    assert result.confusion == ((2, 0, 0), (0, 0, 0), (0, 0, 0))


def test_evaluate_validation():
    with pytest.raises(EmptyData):
        evaluate_accuracy([], [])
    with pytest.raises(DimensionMismatch):
        evaluate_accuracy([0, 1], [0])


def test_float_labels_are_rejected_not_truncated(rng):
    # Cast to int64, these labels used to score 1.0 and vote as (0, 1).
    with pytest.raises(ConfigError, match="^true labels must be integers, got float64"):
        evaluate_accuracy([0.6, 1.6, 1.2], [0, 1, 1])
    with pytest.raises(ConfigError, match="^predicted labels must be integers, got float64"):
        evaluate_accuracy([0, 1, 1], [0.6, 1.6, 1.2])
    train = [random_spd(rng, 2) for _ in range(2)]
    with pytest.raises(ConfigError, match="^labels must be integers, got float64"):
        knn(train, [0.6, 1.7], [train[0]], 1)


def test_evaluate_rejects_labels_outside_class_labels():
    # This was a bare KeyError from the confusion matrix index.
    with pytest.raises(ValueError, match=r"labels \[2\] are not in class_labels"):
        evaluate_accuracy([0, 1], [0, 2], class_labels=[0, 1])
    with pytest.raises(ValueError, match=r"labels \[3\]"):
        evaluate_accuracy([3, 1], [1, 1], class_labels=[0, 1])


def test_classifier_round_trip_preserves_predictions(tmp_path):
    rng = np.random.default_rng(9)
    coords = np.vstack([rng.normal(-1, 0.4, (8, 4)), rng.normal(1, 0.4, (8, 4))])
    labels = np.array([0] * 8 + [1] * 8)
    model = train_ova_svm(coords, labels)
    path = tmp_path / "clf.json"
    save_classifier(path, model)
    loaded = load_classifier(path)
    queries = rng.normal(0, 1, (25, 4))
    assert np.array_equal(predict(loaded, queries), predict(model, queries))
    assert np.array_equal(loaded.weights, model.weights)
    assert loaded.classes == model.classes
    assert loaded.regularization == model.regularization


def test_classifier_load_rejects_corruption(tmp_path):
    rng = np.random.default_rng(1)
    coords = np.vstack([rng.normal(-1, 0.3, (4, 2)), rng.normal(1, 0.3, (4, 2))])
    model = train_ova_svm(coords, np.array([0, 0, 0, 0, 1, 1, 1, 1]))
    path = tmp_path / "clf.json"
    save_classifier(path, model)

    bad = tmp_path / "bad.json"
    bad.write_text(path.read_text()[:-30])
    with pytest.raises(ParseError):
        load_classifier(bad)

    payload = json.loads(path.read_text())
    payload["format"] = "other"
    bad.write_text(json.dumps(payload))
    with pytest.raises(ParseError):
        load_classifier(bad)

    payload = json.loads(path.read_text())
    payload["version"] = 42
    bad.write_text(json.dumps(payload))
    with pytest.raises(ParseError):
        load_classifier(bad)

    payload = json.loads(path.read_text())
    del payload["weights"]
    bad.write_text(json.dumps(payload))
    with pytest.raises(ParseError):
        load_classifier(bad)

    # Classes out of order or repeated break predict's rule that a score
    # tie goes to the smaller label.
    for classes in ([1, 0], [0, 0]):
        payload = json.loads(path.read_text())
        payload["classes"] = classes
        bad.write_text(json.dumps(payload))
        with pytest.raises(ParseError):
            load_classifier(bad)

    # Numbers must be JSON numbers, the version an exact integer and the
    # regularization what train_ova_svm accepts; each of these used to load.
    payload = json.loads(path.read_text())
    mutations = [
        {"version": 2.0},
        {"regularization": "nan"},
        {"regularization": True},
        {"feature_mean": [str(v) for v in payload["feature_mean"]]},
    ]
    for mutation in mutations:
        bad.write_text(json.dumps({**payload, **mutation}))
        with pytest.raises(ParseError):
            load_classifier(bad)


def saved_classifier(tmp_path):
    coords, labels = toy_problem(spread=0.2)
    path = tmp_path / "clf.json"
    save_classifier(path, train_ova_svm(coords, labels))
    return path


def test_classifier_load_rejects_version_1(tmp_path):
    path = saved_classifier(tmp_path)
    payload = json.loads(path.read_text())
    payload.update(version=1, epochs=200, seed=0)
    path.write_text(json.dumps(payload))
    with pytest.raises(ParseError):
        load_classifier(path)


@pytest.mark.parametrize(
    "field, value",
    [
        ("weights", np.nan),
        ("biases", np.inf),
        ("feature_mean", -np.inf),
        ("feature_scale", 0.0),
        ("feature_scale", -1.5),
        # JSON reads an overflowing literal as inf.
        ("feature_scale", "1e999"),
        ("weights", "1e999"),
        ("biases", "-1e999"),
        ("feature_mean", "1e999"),
    ],
)
def test_classifier_load_rejects_non_finite_numbers(tmp_path, field, value):
    # Also a nonpositive feature scale, which decision_scores divides by.
    path = saved_classifier(tmp_path)
    payload = json.loads(path.read_text())
    row = payload[field][0] if field == "weights" else payload[field]
    row[0] = "NUMBER"
    # json writes nan and inf as the bare tokens NaN, Infinity, -Infinity.
    token = value if isinstance(value, str) else json.dumps(value)
    path.write_text(json.dumps(payload).replace('"NUMBER"', token))
    with pytest.raises(ParseError) as info:
        load_classifier(path)
    assert isinstance(info.value.__cause__, ValueError)
