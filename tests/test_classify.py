"""Unit tests for the linear one-vs-all SVM and the divergence baseline."""

import numpy as np
import pytest

from spdrose import (
    DimensionMismatch,
    EmptyData,
    EmptyTrain,
    ParseError,
    SingleClass,
    SpdMatrix,
    TrainedClassifier,
    decision_scores,
    evaluate_accuracy,
    knn_stein,
    load_classifier,
    predict,
    save_classifier,
    train_ova_svm,
)

from conftest import random_spd


def toy_problem(spread=0.0, seed=0):
    rng = np.random.default_rng(seed)
    left = -1.0 + spread * rng.standard_normal((10, 1))
    right = 1.0 + spread * rng.standard_normal((10, 1))
    coords = np.vstack([left, right])
    labels = np.array([0] * 10 + [1] * 10)
    return coords, labels


def test_toy_problem_separates():
    coords, labels = toy_problem()
    model = train_ova_svm(coords, labels, epochs=100, seed=0)
    assert np.array_equal(predict(model, coords), labels)
    assert predict(model, coords[0]) == 0
    assert predict(model, coords[-1]) == 1


def test_single_class_and_empty_rejected():
    with pytest.raises(SingleClass):
        train_ova_svm(np.ones((5, 2)), np.zeros(5, dtype=int))
    with pytest.raises(EmptyData):
        train_ova_svm(np.empty((0, 2)), np.empty(0, dtype=int))


def test_training_is_deterministic():
    coords, labels = toy_problem(spread=0.2)
    a = train_ova_svm(coords, labels, seed=7)
    b = train_ova_svm(coords, labels, seed=7)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.biases, b.biases)
    c = train_ova_svm(coords, labels, seed=8)
    assert not np.array_equal(a.weights, c.weights)


def test_zero_variance_column_is_handled():
    coords = np.array([[-1.0, 5.0], [-1.1, 5.0], [1.0, 5.0], [1.2, 5.0]])
    labels = np.array([0, 0, 1, 1])
    model = train_ova_svm(coords, labels, epochs=50)
    assert model.feature_scale[1] == 1.0
    assert np.array_equal(predict(model, coords), labels)


def test_scores_shapes_and_dimension_check():
    coords, labels = toy_problem()
    model = train_ova_svm(coords, labels)
    single = decision_scores(model, coords[0])
    assert single.shape == (2,)
    batch = decision_scores(model, coords)
    assert batch.shape == (20, 2)
    assert np.array_equal(batch[0], single)
    with pytest.raises(DimensionMismatch):
        decision_scores(model, np.zeros(3))


def test_zero_weights_predict_class_zero_by_tie_rule():
    model = TrainedClassifier(
        classes=(0, 1, 2),
        weights=np.zeros((3, 2)),
        biases=np.zeros(3),
        feature_mean=np.zeros(2),
        feature_scale=np.ones(2),
        regularization=1e-3,
        epochs=1,
        seed=0,
    )
    assert predict(model, np.array([0.4, -0.7])) == 0
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
    model = train_ova_svm(coords, labels, seed=5)
    scale = np.array([3.5, 0.2, 11.0])
    shift = np.array([-4.0, 0.7, 2.5])
    rescaled_model = train_ova_svm(coords * scale + shift, labels, seed=5)
    assert np.array_equal(
        predict(model, queries), predict(rescaled_model, queries * scale + shift)
    )


def test_objective_history_non_increasing():
    coords, labels = toy_problem(spread=0.25, seed=2)
    model = train_ova_svm(coords, labels, epochs=60, record_objective=True)
    assert len(model.objective_history) == 2
    for history in model.objective_history:
        assert len(history) == 60
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))
    silent = train_ova_svm(coords, labels, epochs=5)
    assert silent.objective_history is None


def test_knn_recovers_training_point(rng):
    train = [random_spd(rng, 3) for _ in range(6)]
    labels = [0, 1, 2, 0, 1, 2]
    for i, point in enumerate(train):
        assert knn_stein(train, labels, [point], n_neighbors=1)[0] == labels[i]


def test_knn_two_scale_clusters():
    # diag(a * I) clusters at a near 1 and near 100 are separated by a
    # large divergence gap, so 1-NN is exact.
    small = [SpdMatrix(a * np.eye(3)) for a in (0.9, 1.0, 1.1)]
    large = [SpdMatrix(a * np.eye(3)) for a in (90.0, 100.0, 110.0)]
    train = small + large
    labels = [0, 0, 0, 1, 1, 1]
    queries = [SpdMatrix(1.05 * np.eye(3)), SpdMatrix(95.0 * np.eye(3))]
    assert knn_stein(train, labels, queries, n_neighbors=1).tolist() == [0, 1]


def test_knn_full_vote_is_global_majority(rng):
    train = [random_spd(rng, 2) for _ in range(5)]
    labels = [1, 1, 1, 0, 0]
    queries = [random_spd(rng, 2) for _ in range(3)]
    assert knn_stein(train, labels, queries, n_neighbors=5).tolist() == [1, 1, 1]


def test_knn_vote_tie_prefers_smaller_label():
    a = SpdMatrix(np.diag([2.0, 0.5]))
    b = SpdMatrix(np.diag([0.5, 2.0]))
    query = SpdMatrix(np.eye(2))
    assert knn_stein([a, b], [1, 0], [query], n_neighbors=2)[0] == 0


def test_knn_validation(rng):
    with pytest.raises(EmptyTrain):
        knn_stein([], [], [random_spd(rng, 2)])
    train = [random_spd(rng, 2) for _ in range(3)]
    with pytest.raises(ValueError):
        knn_stein(train, [0, 1, 0], [train[0]], n_neighbors=4)
    with pytest.raises(DimensionMismatch):
        knn_stein(train, [0, 1], [train[0]])


def test_evaluate_accuracy_basics():
    result = evaluate_accuracy([0, 0, 1, 1], [0, 1, 1, 1])
    assert result.total == 4
    assert result.correct == 3
    assert result.accuracy == 0.75
    assert result.per_class() == {0: 0.5, 1: 1.0}
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


def test_classifier_round_trip_preserves_predictions(tmp_path):
    rng = np.random.default_rng(9)
    coords = np.vstack([rng.normal(-1, 0.4, (8, 4)), rng.normal(1, 0.4, (8, 4))])
    labels = np.array([0] * 8 + [1] * 8)
    model = train_ova_svm(coords, labels, seed=2)
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

    import json

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
