"""Classification of embedded SPD descriptors.

The main classifier is a one-vs-all linear SVM trained with the Pegasos
subgradient method on z-scored feature vectors; the returned model uses
the averaged iterate, which converges far more smoothly than the last
one.  A nearest-neighbor voter over the symmetrized log-det divergence
is provided as a kernel-space baseline.

All training randomness comes from counter-based generators keyed by
``(seed, class_index)``, so per-class runs are order independent and
reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyData, EmptyTrain, ParseError, SingleClass
from .seeding import keyed_generator
from .stein import DivergenceTable, divergence_matrix

CLASSIFIER_FORMAT = "spdrose.linear_classifier"
CLASSIFIER_FORMAT_VERSION = 1

DEFAULT_LAMBDA = 1e-3
DEFAULT_EPOCHS = 200


@dataclass(frozen=True, eq=False)
class LabeledVector:
    """One embedded point with its class label."""

    coords: np.ndarray
    label: int

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=np.float64)
        if c.ndim != 1:
            raise ValueError(f"coords must be a vector, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("coords must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)
        object.__setattr__(self, "label", int(self.label))


@dataclass(frozen=True, eq=False)
class TrainedClassifier:
    """Linear one-vs-all model with its standardization statistics."""

    classes: tuple
    weights: np.ndarray
    biases: np.ndarray
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    regularization: float
    epochs: int
    seed: int
    objective_history: tuple = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.biases, dtype=np.float64)
        mu = np.asarray(self.feature_mean, dtype=np.float64)
        sc = np.asarray(self.feature_scale, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != len(self.classes):
            raise ValueError(f"weight matrix has shape {w.shape}")
        if b.shape != (len(self.classes),):
            raise ValueError(f"bias vector has shape {b.shape}")
        if mu.shape != (w.shape[1],) or sc.shape != (w.shape[1],):
            raise ValueError("standardization statistics do not match weights")
        for a in (w, b, mu, sc):
            a.setflags(write=False)
        object.__setattr__(self, "classes", tuple(int(c) for c in self.classes))
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "biases", b)
        object.__setattr__(self, "feature_mean", mu)
        object.__setattr__(self, "feature_scale", sc)

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def n_features(self) -> int:
        return self.weights.shape[1]


def _unpack_labeled(data):
    if len(data) and isinstance(data[0], LabeledVector):
        features = np.array([v.coords for v in data])
        labels = np.array([v.label for v in data], dtype=np.int64)
        return features, labels
    return np.asarray(data, dtype=np.float64), None


def _check_features(features, labels=None):
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"feature array has shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("features must be finite")
    if labels is None:
        return x, None
    y = np.asarray(labels)
    if y.shape != (x.shape[0],):
        raise DimensionMismatch(
            f"{x.shape[0]} feature rows but {y.shape} labels"
        )
    return x, y.astype(np.int64)


def _standardize_stats(x):
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale = np.where(scale == 0.0, 1.0, scale)
    return mean, scale


def _pegasos_binary(x, targets, lam, epochs, rng, record):
    n, dim = x.shape
    w = np.zeros(dim)
    b = 0.0
    w_sum = np.zeros(dim)
    b_sum = 0.0
    history = []
    step = 0
    for _ in range(epochs):
        for i in rng.permutation(n):
            step += 1
            eta = 1.0 / (lam * step)
            margin = targets[i] * (float(w @ x[i]) + b)
            w *= 1.0 - eta * lam
            if margin < 1.0:
                w += (eta * targets[i]) * x[i]
                b += eta * targets[i]
            w_sum += w
            b_sum += b
        if record:
            wa = w_sum / step
            ba = b_sum / step
            hinge = np.maximum(0.0, 1.0 - targets * (x @ wa + ba))
            history.append(
                0.5 * lam * float(wa @ wa) + float(hinge.mean())
            )
    return w_sum / step, b_sum / step, history


def train_ova_svm(
    features,
    labels=None,
    regularization: float = DEFAULT_LAMBDA,
    epochs: int = DEFAULT_EPOCHS,
    seed: int = 0,
    record_objective: bool = False,
) -> TrainedClassifier:
    """Train one averaged-Pegasos hyperplane per class.

    ``features`` is either an (n, k) array with a matching ``labels``
    argument, or a list of :class:`LabeledVector`.  Features are
    z-scored first (zero-variance columns keep scale 1).  The bias term
    is unregularized.  With ``record_objective`` each class keeps its
    regularized hinge objective, evaluated on the averaged iterate
    after every epoch.
    """
    if labels is None:
        features, labels = _unpack_labeled(features)
        if labels is None:
            raise EmptyData("no labeled vectors to train on")
    x, y = _check_features(features, labels)
    if x.shape[0] == 0:
        raise EmptyData("no training vectors")
    classes = tuple(sorted(int(c) for c in set(y.tolist())))
    if len(classes) < 2:
        raise SingleClass(f"training set holds only class {classes}")
    if regularization <= 0.0:
        raise ValueError(f"regularization must be positive, got {regularization}")
    if epochs < 1:
        raise ValueError(f"epochs must be at least 1, got {epochs}")
    mean, scale = _standardize_stats(x)
    z = (x - mean) / scale
    weights = np.zeros((len(classes), x.shape[1]))
    biases = np.zeros(len(classes))
    histories = []
    for ci, cls in enumerate(classes):
        targets = np.where(y == cls, 1.0, -1.0)
        rng = keyed_generator(seed, ci)
        w, b, history = _pegasos_binary(
            z, targets, regularization, epochs, rng, record_objective
        )
        weights[ci] = w
        biases[ci] = b
        histories.append(tuple(history))
    return TrainedClassifier(
        classes=classes,
        weights=weights,
        biases=biases,
        feature_mean=mean,
        feature_scale=scale,
        regularization=regularization,
        epochs=epochs,
        seed=seed,
        objective_history=tuple(histories) if record_objective else None,
    )


def decision_scores(model: TrainedClassifier, features) -> np.ndarray:
    """Per-class margins: (n_classes,) for one vector, (n, n_classes) else."""
    single = np.asarray(features).ndim == 1
    x, _ = _check_features([features] if single else features)
    if x.shape[1] != model.n_features:
        raise DimensionMismatch(
            f"{x.shape[1]} features but the model expects {model.n_features}"
        )
    z = (x - model.feature_mean) / model.feature_scale
    scores = z @ model.weights.T + model.biases
    return scores[0] if single else scores


def predict(model: TrainedClassifier, features):
    """Argmax over decision scores; ties go to the smaller class label.

    Accepts one vector (returns an int) or a batch (returns an array).
    """
    scores = decision_scores(model, features)
    if scores.ndim == 1:
        return int(model.classes[int(np.argmax(scores))])
    picks = np.argmax(scores, axis=1)
    return np.array([model.classes[i] for i in picks], dtype=np.int64)


def knn_stein(
    train_points,
    train_labels,
    test_points,
    n_neighbors: int = 1,
    table: DivergenceTable = None,
) -> np.ndarray:
    """Majority vote over nearest neighbors in log-det divergence.

    Distance ties are resolved by training order (stable sort) and vote
    ties by the smaller label.  ``table`` serves the query-to-training
    divergences it holds.
    """
    if len(train_points) == 0:
        raise EmptyTrain("no labeled points to vote with")
    labels = np.asarray(train_labels, dtype=np.int64)
    if labels.shape != (len(train_points),):
        raise DimensionMismatch(
            f"{len(train_points)} points but {labels.shape} labels"
        )
    if not 1 <= n_neighbors <= len(train_points):
        raise ValueError(
            f"n_neighbors must lie in [1, {len(train_points)}], got {n_neighbors}"
        )
    divergences = divergence_matrix(test_points, train_points, table)
    out = np.empty(len(divergences), dtype=np.int64)
    for i, row in enumerate(divergences):
        nearest = np.argsort(row, kind="stable")[:n_neighbors]
        votes = labels[nearest]
        candidates, counts = np.unique(votes, return_counts=True)
        out[i] = int(candidates[np.argmax(counts)])
    return out


@dataclass(frozen=True)
class EvalResult:
    """Accuracy plus confusion counts of a prediction run.

    ``confusion[i][j]`` counts points of true class ``class_labels[i]``
    predicted as ``class_labels[j]``.
    """

    total: int
    correct: int
    accuracy: float
    by_class: tuple
    class_labels: tuple
    confusion: tuple

    def per_class(self) -> dict:
        return {cls: acc for cls, acc in self.by_class}


def evaluate_accuracy(true_labels, predicted_labels, class_labels=None) -> EvalResult:
    t = np.asarray(true_labels, dtype=np.int64)
    p = np.asarray(predicted_labels, dtype=np.int64)
    if t.shape != p.shape or t.ndim != 1:
        raise DimensionMismatch(
            f"label arrays have shapes {t.shape} and {p.shape}"
        )
    if t.size == 0:
        raise EmptyData("no labels to score")
    hits = t == p
    if class_labels is None:
        class_labels = sorted(set(t.tolist()) | set(p.tolist()))
    class_labels = tuple(int(c) for c in class_labels)
    index = {cls: i for i, cls in enumerate(class_labels)}
    matrix = [[0] * len(class_labels) for _ in class_labels]
    for true, pred in zip(t.tolist(), p.tolist()):
        matrix[index[true]][index[pred]] += 1
    by_class = []
    for cls in class_labels:
        mask = t == cls
        if mask.any():
            by_class.append((cls, float(hits[mask].mean())))
    return EvalResult(
        total=int(t.size),
        correct=int(hits.sum()),
        accuracy=float(hits.mean()),
        by_class=tuple(by_class),
        class_labels=class_labels,
        confusion=tuple(tuple(row) for row in matrix),
    )


def save_classifier(path, model: TrainedClassifier) -> None:
    """Write the model as JSON; float round trips are bit exact."""
    payload = {
        "format": CLASSIFIER_FORMAT,
        "version": CLASSIFIER_FORMAT_VERSION,
        "classes": list(model.classes),
        "weights": [[float(v) for v in row] for row in model.weights],
        "biases": [float(v) for v in model.biases],
        "feature_mean": [float(v) for v in model.feature_mean],
        "feature_scale": [float(v) for v in model.feature_scale],
        "regularization": model.regularization,
        "epochs": model.epochs,
        "seed": model.seed,
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_classifier(path) -> TrainedClassifier:
    try:
        with open(path, "r", encoding="ascii") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if payload.get("format") != CLASSIFIER_FORMAT:
        raise ParseError(f"{path}: not a classifier file")
    if payload.get("version") != CLASSIFIER_FORMAT_VERSION:
        raise ParseError(
            f"{path}: unsupported version {payload.get('version')}"
        )
    try:
        return TrainedClassifier(
            classes=tuple(payload["classes"]),
            weights=np.array(payload["weights"], dtype=np.float64),
            biases=np.array(payload["biases"], dtype=np.float64),
            feature_mean=np.array(payload["feature_mean"], dtype=np.float64),
            feature_scale=np.array(payload["feature_scale"], dtype=np.float64),
            regularization=float(payload["regularization"]),
            epochs=int(payload["epochs"]),
            seed=int(payload["seed"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed classifier payload") from exc
