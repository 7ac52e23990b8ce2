"""Classification of embedded SPD descriptors.

The main classifier is a one-vs-all linear SVM on z-scored features.
Each class's hyperplane minimises the squared-hinge objective
``lam/2 |w|^2 + mean_i max(0, 1 - y_i (w . z_i + b))^2`` (bias not
regularized) by the primal Newton method of Chapelle, "Training a
support vector machine in the primal" (2007): each step solves the
active set's (margin below 1) Newton system exactly, in its Gram form
while the rows are no more than the features, else in its feature form,
then moves to the exact minimiser along the step.  It stops once the
gradient norm falls to ``GRADIENT_RTOL`` times its value at zero, and
raises :class:`~spdrose.errors.NonConvergence` after ``MAX_NEWTON_STEPS``
steps.  Training draws no random numbers, and its bits do not depend on
the BLAS thread count: every matrix product goes through
:func:`~spdrose.manifold.matvecs`, and since OpenBLAS (0.3.31) runs
``dpotrf`` in parallel from 128 rows (``dtrtri`` from a few more),
:func:`_cholesky` hands those two only blocks of at most ``_BLOCK`` rows;
``dpotrs`` measured invariant up to 2000 rows.  A nearest-neighbor voter
over the symmetrized log-det divergence is the kernel-space baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtri

from .errors import DimensionMismatch, EmptyData, NonConvergence, NonFiniteEntry, ParseError
from .errors import NotPositiveDefinite, SingleClass, SpdRoseError, require_integer
from .errors import ConfigError, require_array, require_integer_array, require_positive
from .io import json_floats, read_container, write_json
from .manifold import _readonly_copy, matvecs

CLASSIFIER_FORMAT = "spdrose.linear_classifier"
CLASSIFIER_FORMAT_VERSION = 2
# The fields a classifier file holds besides its format and version.
_ARRAYS = ("weights", "biases", "feature_mean", "feature_scale")
_SAVED = ("classes", *_ARRAYS, "regularization")

DEFAULT_LAMBDA = 1e-3
GRADIENT_RTOL = 1e-8
MAX_NEWTON_STEPS = 50
_BLOCK = 127  # rows of the largest block _cholesky factors and inverts


class SolverRecord(NamedTuple):
    """How one class's solve ended; the gradient ratio is relative to zero."""

    newton_steps: int
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
        n = len(self.classes)
        k = require_array(self.weights, "weights", (n, None)).shape[1]
        # JSON reads an overflowing number such as 1e999 as inf.
        for name, shape in zip(_ARRAYS, ((n, k), (n,), (k,), (k,))):
            array = require_array(getattr(self, name), name, shape)
            object.__setattr__(self, name, _readonly_copy(array))
        # decision_scores divides by the scale, which training never sets to 0.
        if (self.feature_scale <= 0.0).any():
            raise ValueError("feature_scale must be positive")
        classes = tuple(require_integer(c, "class label") for c in self.classes)
        object.__setattr__(self, "classes", classes)
        # predict sends a score tie to the earlier class, the smaller label.
        if any(a >= b for a, b in zip(self.classes, self.classes[1:])):
            raise ValueError(f"classes must be strictly increasing, got {self.classes}")
        regularization = require_positive(self.regularization, "regularization")
        object.__setattr__(self, "regularization", regularization)

    @property
    def n_features(self) -> int:
        return self.weights.shape[1]


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
    g, a = gap[ahead], along[ahead]
    kinks = g / a
    joins = np.where(g > 0.0, -c, c)  # active points leave
    # On segment j (after j kinks) the derivative is intercept[j] + t * rate[j].
    shifts = np.cumsum([joins * a * g, joins * a**2], axis=1)
    shifts = np.concatenate((np.zeros((2, 1)), shifts), axis=1)
    intercept = slope - c * along[active] @ gap[active] - shifts[0]
    rate = curvature + c * along[active] @ along[active] + shifts[1]
    crossed = np.flatnonzero(intercept[:-1] + rate[:-1] * kinks >= 0.0)
    j = crossed[0] if len(crossed) else len(kinks)
    return -intercept[j] / rate[j]


def _cholesky(a):
    """Lower Cholesky factor of ``a`` by blocks of ``_BLOCK`` rows: ``dpotrf``
    factors the leading block, its ``dtrtri`` inverse solves the rows
    below, and the Schur complement of the rest is factored the same way."""
    b = _BLOCK
    if len(a) <= b:
        low, info = dpotrf(a, 1, 1)  # lower=1, clean=1
        if info:
            raise NotPositiveDefinite(f"Newton system: dpotrf info {info}")
        return low
    top = _cholesky(a[:b, :b])
    inverse = dtrtri(top, 1)[0]
    below = matvecs(inverse, a[b:, :b])
    rest = _cholesky(a[b:, b:] - matvecs(below, below))
    return np.block([[top, np.zeros((b, len(rest)))], [below, rest]])


def _newton_step(za, kaa, grad, lam, n):
    """Exact ``s`` of ``(diag(lam, ..., lam, 0) + (2/n) X_a'X_a) s = -grad``.

    With ``X_a = [za, 1]`` and no ``kaa`` (the feature form) the system
    times n/2 is factored.  Given ``kaa = za za'`` (the Gram form), ``u = X_a
    s`` solves ``(lam n/2 I + kaa) u = -(n/2) za g_w + (lam n/2) s_b``; the
    bias row ``1'u = -(n/2) g_b`` fixes ``s_b``, then ``s_w = -(g_w + (2/n)
    za'u) / lam``.  With no active row (no bias curvature or gradient) ``s
    = (-g_w / lam, 0)``."""
    if not len(za):
        return np.append(-grad[:-1] / lam, 0.0)
    mu = lam * n / 2.0
    if kaa is None:
        xt = np.vstack([za.T, np.ones(len(za))])
        hessian = matvecs(xt, xt)
        hessian[:-1, :-1] += mu * np.eye(za.shape[1])
        return dpotrs(_cholesky(hessian), -(n / 2.0) * grad, 1)[0]
    factor = _cholesky(kaa + mu * np.eye(len(za)))
    rhs = np.column_stack([-(n / 2.0) * (za @ grad[:-1]), np.full(len(za), mu)])
    u0, u1 = dpotrs(factor, rhs, 1)[0].T  # its info flags only malformed arguments
    s_b = (-(n / 2.0) * grad[-1] - u0.sum()) / u1.sum()
    return np.append(-(grad[:-1] + (2.0 / n) * (za.T @ (u0 + s_b * u1))) / lam, s_b)


def _newton_binary(x, kernel, y, lam):
    """Solve one class; ``x`` ends in a column of ones for b and ``kernel`` is
    the Gram matrix of the rest, or None for the feature form.  Returns
    ``(w, b)`` and the solve's record."""
    n, dim = x.shape
    penalty = np.append(np.full(dim - 1, lam), 0.0)
    theta, gap = np.zeros(dim), np.ones(n)
    for steps in range(MAX_NEWTON_STEPS + 1):
        active = np.flatnonzero(gap > 0.0)
        xa = x[active]
        grad = penalty * theta - (2.0 / n) * (xa.T @ (y * gap)[active])
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
        kaa = None if kernel is None else kernel.take(active, 0).take(active, 1)
        s = _newton_step(xa[:, :-1], kaa, grad, lam, n)
        t = _step_length(gap, y * (x @ s), (penalty * theta) @ s, (penalty * s) @ s, n)
        theta = theta + t * s
        gap = 1.0 - y * (x @ theta)
    hinge = np.maximum(gap, 0.0)
    objective = float(0.5 * (penalty * theta) @ theta + hinge @ hinge / n)
    ratio = norm / initial if initial else 0.0
    return theta, SolverRecord(steps, ratio, objective)


def train_ova_svm(
    features,
    labels,
    regularization: float = DEFAULT_LAMBDA,
) -> TrainedClassifier:
    """Train one squared-hinge SVM hyperplane per class, one vs. all.

    ``features`` is an (n, k) array with one entry of ``labels`` per
    row.  Features are z-scored first (zero-variance columns keep scale
    1).  Each class is solved as the module docstring states, with
    ``lam = regularization``, and keeps its :class:`SolverRecord`.
    """
    x = require_array(features, "features", (None, None))
    if np.shape(labels) != (len(x),):
        raise DimensionMismatch(f"{len(x)} feature rows but {np.shape(labels)} labels")
    y = require_integer_array(labels, "labels")
    if x.shape[0] == 0:
        raise EmptyData("no training vectors")
    classes = tuple(sorted(set(y.tolist())))
    if len(classes) < 2:
        raise SingleClass(f"training set holds only class {classes}")
    require_positive(regularization, "regularization")
    mean, scale = x.mean(axis=0), x.std(axis=0)
    scale = np.where(scale == 0.0, 1.0, scale)
    design = np.hstack([(x - mean) / scale, np.ones((len(x), 1))])
    gram = x.shape[0] <= x.shape[1]  # else the feature form: see _newton_step
    kernel = matvecs(design[:, :-1], design[:, :-1]) if gram else None
    solved = [
        _newton_binary(design, kernel, np.where(y == c, 1.0, -1.0), regularization)
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
    x = require_array(features, "features", (None, model.n_features))
    # Finite weights can still overflow; the check below reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        z = (x - model.feature_mean) / model.feature_scale
        scores = matvecs(model.weights, z) + model.biases
    if not np.isfinite(scores).all():
        raise NonFiniteEntry("classifier produced non-finite scores")
    return scores


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
    labels = np.asarray(train_labels)
    if labels.size == 0:
        raise EmptyData("no labeled points to vote with")
    labels = require_integer_array(labels, "labels")
    if labels.ndim != 1:
        raise DimensionMismatch(f"labels must be one-dimensional, got shape {labels.shape}")
    divergences = require_array(divergences, "divergences", (None, labels.size))
    n_neighbors = require_integer(n_neighbors, "n_neighbors", least=1)
    if n_neighbors > labels.size:
        raise ConfigError(f"n_neighbors must be at most {labels.size}, got {n_neighbors}")
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
    t, p = np.asarray(true_labels), np.asarray(predicted_labels)
    if t.shape != p.shape or t.ndim != 1:
        raise DimensionMismatch(
            f"label arrays have shapes {t.shape} and {p.shape}"
        )
    if t.size == 0:
        raise EmptyData("no labels to score")
    t = require_integer_array(t, "true labels")
    p = require_integer_array(p, "predicted labels")
    hits = t == p
    seen = set(t.tolist()) | set(p.tolist())
    if class_labels is None:
        class_labels = sorted(seen)
    class_labels = tuple(require_integer_array(class_labels, "class_labels").tolist())
    index = {cls: i for i, cls in enumerate(class_labels)}
    outside = sorted(seen - set(index))
    if outside:
        raise ValueError(f"labels {outside} are not in class_labels {class_labels}")
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
        for name in _ARRAYS:
            fields[name] = json_floats(fields[name])
        return TrainedClassifier(**fields)
    except (KeyError, TypeError, ValueError, SpdRoseError) as exc:
        raise ParseError(f"{path}: malformed classifier payload ({exc})") from exc
