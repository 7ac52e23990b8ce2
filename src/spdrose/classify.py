"""Classification of embedded SPD descriptors.

The main classifier is a one-vs-all linear SVM on z-scored features.
Each class's hyperplane minimises the squared-hinge objective
``lam/2 |w|^2 + mean_i max(0, 1 - y_i (w . z_i + b))^2`` (bias not
regularized) by the primal Newton method of Chapelle, "Training a
support vector machine in the primal" (2007), in its Newton-CG form:
each step solves the Newton system of the active set (margin below 1)
by conjugate gradients, then moves to the exact minimiser along the
step.  It stops once the gradient norm falls to ``GRADIENT_RTOL`` times
its value at zero, and raises :class:`~spdrose.errors.NonConvergence`
after ``MAX_NEWTON_STEPS`` steps.  Training draws no random numbers and
uses only matrix-vector products, whose bits do not depend on the BLAS
thread count.  A nearest-neighbor voter over the symmetrized log-det
divergence is the kernel-space baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, EmptyData, NonConvergence
from .errors import ParseError, SingleClass, require_integer
from .io import read_container, write_json
from .manifold import _readonly_copy

CLASSIFIER_FORMAT = "spdrose.linear_classifier"
CLASSIFIER_FORMAT_VERSION = 2
# The fields a classifier file holds besides its format and version.
_SAVED = ("classes", "weights", "biases", "feature_mean", "feature_scale",
          "regularization")

DEFAULT_LAMBDA = 1e-3
GRADIENT_RTOL = 1e-8
MAX_NEWTON_STEPS = 50
# Conjugate gradients stop at this fraction of the gradient norm.
_CG_RTOL = 0.01


class SolverRecord(NamedTuple):
    """How one class's solve ended; the gradient ratio is relative to zero."""

    newton_steps: int
    cg_steps: int
    gradient_ratio: float
    objective: float


@dataclass(frozen=True, eq=False)
class TrainedClassifier:
    """Linear one-vs-all model, its standardization statistics and, after
    training, each class's :class:`SolverRecord` (not saved)."""

    classes: tuple
    weights: np.ndarray
    biases: np.ndarray
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    regularization: float
    convergence: tuple = ()

    def __post_init__(self):
        arrays = ("weights", "biases", "feature_mean", "feature_scale")
        for name in arrays:
            object.__setattr__(self, name, _readonly_copy(getattr(self, name)))
        w, b, mu, sc = (getattr(self, name) for name in arrays)
        if w.ndim != 2 or w.shape[0] != len(self.classes):
            raise ValueError(f"weight matrix has shape {w.shape}")
        if b.shape != (len(self.classes),):
            raise ValueError(f"bias vector has shape {b.shape}")
        if mu.shape != (w.shape[1],) or sc.shape != (w.shape[1],):
            raise ValueError("standardization statistics do not match weights")
        # JSON reads an overflowing number such as 1e999 as inf, and
        # decision_scores divides by the scale, which training never sets to 0.
        if not all(np.isfinite(a).all() for a in (w, b, mu, sc)) or (sc <= 0.0).any():
            raise ValueError("classifier arrays must be finite, feature_scale positive")
        for c in self.classes:
            require_integer(c, "class label")
        object.__setattr__(self, "classes", tuple(int(c) for c in self.classes))

    @property
    def n_features(self) -> int:
        return self.weights.shape[1]


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


def _step_length(gap, along, slope, curvature, n):
    """Exact minimiser ``t > 0`` of the objective along a descent step.

    With ``gap`` = 1 - margin and ``along`` its rate of change, the
    derivative ``slope + t curvature - (2/n) sum along_i max(0, gap_i -
    t along_i)`` is nondecreasing and linear between the kinks where
    points join or leave the active set; walk them to its root.
    """
    c = 2.0 / n
    active = (gap > 0.0) | ((gap == 0.0) & (along < 0.0))
    ahead = np.flatnonzero(gap * along > 0.0)
    ahead = ahead[np.argsort(gap[ahead] / along[ahead], kind="stable")]
    kinks = gap[ahead] / along[ahead]
    joins = np.where(gap[ahead] > 0.0, -c, c)  # active points leave
    # On segment j (after j kinks) the derivative is intercept[j] + t * rate[j].
    d_intercept = np.cumsum(joins * along[ahead] * gap[ahead])
    d_rate = np.cumsum(joins * along[ahead] ** 2)
    intercept = slope - c * along[active] @ gap[active] - np.append(0.0, d_intercept)
    rate = curvature + c * along[active] @ along[active] + np.append(0.0, d_rate)
    j = np.argmax(np.append(intercept[:-1] + rate[:-1] * kinks >= 0.0, True))
    return -intercept[j] / rate[j]


def _newton_binary(x, y, lam):
    """Solve one class's objective; ``x`` ends in a column of ones for b.

    Returns ``(w, b)`` as one vector, and the solve's record.
    """
    n, dim = x.shape
    penalty = np.append(np.full(dim - 1, lam), 0.0)
    theta, gap, cg_steps = np.zeros(dim), np.ones(n), 0
    for steps in range(MAX_NEWTON_STEPS + 1):
        xa = x[gap > 0.0]
        grad = penalty * theta - (2.0 / n) * (xa.T @ (y * gap)[gap > 0.0])
        norm = float(np.sqrt(grad @ grad))
        initial = norm if steps == 0 else initial
        if norm <= GRADIENT_RTOL * initial:
            break
        if steps == MAX_NEWTON_STEPS:
            raise NonConvergence(
                f"gradient ratio {norm / initial:.3e} after {steps} Newton steps "
                f"(tol {GRADIENT_RTOL:.0e})",
                iterate=theta, residual=norm / initial, iterations=steps,
            )
        # Conjugate gradients on H s = -grad, H d = penalty d + (2/n) xa'xa d.
        s, r = np.zeros(dim), -grad
        p, rr = r.copy(), r @ r
        for _ in range(dim):
            hp = penalty * p + (2.0 / n) * (xa.T @ (xa @ p))
            alpha = rr / (p @ hp)
            s, r = s + alpha * p, r - alpha * hp
            rr, rr_prev = r @ r, rr
            cg_steps += 1
            if rr <= (_CG_RTOL * norm) ** 2:
                break
            p = r + (rr / rr_prev) * p
        t = _step_length(gap, y * (x @ s), (penalty * theta) @ s, (penalty * s) @ s, n)
        theta = theta + t * s
        gap = 1.0 - y * (x @ theta)
    hinge = np.maximum(gap, 0.0)
    objective = float(0.5 * (penalty * theta) @ theta + hinge @ hinge / n)
    ratio = norm / initial if initial else 0.0
    return theta, SolverRecord(steps, cg_steps, ratio, objective)


def train_ova_svm(
    features,
    labels,
    regularization: float = DEFAULT_LAMBDA,
) -> TrainedClassifier:
    """Train one squared-hinge SVM hyperplane per class, one vs. all.

    ``features`` is an (n, k) array with one entry of ``labels`` per
    row.  Features are z-scored first (zero-variance columns keep scale
    1).  Each class minimises ``regularization/2 |w|^2 + mean_i max(0,
    1 - y_i (w . z_i + b))^2`` by Newton-CG until the gradient norm is
    at most ``GRADIENT_RTOL`` times its value at zero, and raises
    :class:`NonConvergence` if ``MAX_NEWTON_STEPS`` steps do not get
    there.  The result keeps each class's :class:`SolverRecord`.
    """
    x, y = _check_features(features, labels)
    if x.shape[0] == 0:
        raise EmptyData("no training vectors")
    classes = tuple(sorted(int(c) for c in set(y.tolist())))
    if len(classes) < 2:
        raise SingleClass(f"training set holds only class {classes}")
    if not 0.0 < regularization < np.inf:
        raise ValueError(
            f"regularization must be positive and finite, got {regularization}"
        )
    mean, scale = x.mean(axis=0), x.std(axis=0)
    scale = np.where(scale == 0.0, 1.0, scale)
    design = np.hstack([(x - mean) / scale, np.ones((len(x), 1))])
    solved = [
        _newton_binary(design, np.where(y == c, 1.0, -1.0), regularization)
        for c in classes
    ]
    return TrainedClassifier(
        classes=classes,
        weights=np.array([theta[:-1] for theta, _ in solved]),
        biases=np.array([theta[-1] for theta, _ in solved]),
        feature_mean=mean,
        feature_scale=scale,
        regularization=regularization,
        convergence=tuple(record for _, record in solved),
    )


def decision_scores(model: TrainedClassifier, features) -> np.ndarray:
    """Per-class margins of an (n, k) feature batch, shape (n, n_classes)."""
    x, _ = _check_features(features)
    if x.shape[1] != model.n_features:
        raise DimensionMismatch(
            f"{x.shape[1]} features but the model expects {model.n_features}"
        )
    z = (x - model.feature_mean) / model.feature_scale
    return z @ model.weights.T + model.biases


def predict(model: TrainedClassifier, features) -> np.ndarray:
    """Class labels of an (n, k) feature batch; score ties go to the smaller label."""
    picks = np.argmax(decision_scores(model, features), axis=1)
    return np.array([model.classes[i] for i in picks], dtype=np.int64)


def knn_stein(train_labels, n_neighbors: int, divergences) -> np.ndarray:
    """Majority vote over nearest neighbors in log-det divergence.

    ``divergences`` has one row per query against the training points,
    ``divergence_matrix(queries, train_points)``.  Distance ties are
    resolved by training order (stable sort) and vote ties by the
    smaller label.
    """
    labels = np.asarray(train_labels, dtype=np.int64)
    divergences = np.asarray(divergences, dtype=np.float64)
    if labels.size == 0:
        raise EmptyData("no labeled points to vote with")
    if labels.ndim != 1 or divergences.ndim != 2 or divergences.shape[1] != labels.size:
        raise DimensionMismatch(
            f"divergences of shape {divergences.shape} for {labels.shape} labels"
        )
    if not 1 <= n_neighbors <= labels.size:
        raise ValueError(
            f"n_neighbors must lie in [1, {labels.size}], got {n_neighbors}"
        )
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
    payload = {name: np.asarray(getattr(model, name)).tolist() for name in _SAVED}
    payload.update(format=CLASSIFIER_FORMAT, version=CLASSIFIER_FORMAT_VERSION)
    write_json(path, payload)


def load_classifier(path) -> TrainedClassifier:
    payload = read_container(path, CLASSIFIER_FORMAT, CLASSIFIER_FORMAT_VERSION)
    try:
        fields = {name: payload[name] for name in _SAVED}
        fields["regularization"] = float(fields["regularization"])
        return TrainedClassifier(**fields)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed classifier payload") from exc
