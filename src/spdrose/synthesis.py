"""Intrinsic means, geodesic rescaling and synthetic point generation.

A set of SPD training points defines a ball: its center is the Karcher
(Frechet) mean under the affine-invariant metric and its radius is the
largest geodesic distance from the center to a training point.  Each
new unlabeled point is one exp-map step from the center along a tangent
(a symmetrized Gaussian, or a training point's log map) rescaled to
metric length ``delta * radius`` with ``delta`` uniform on [0, 1], so it
stays inside the ball.  :func:`geodesic_rescale` takes the same step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDirection,
    DimensionMismatch,
    EmptyInput,
    NonConvergence,
    require_choice,
    require_integer,
    require_positive,
    require_real,
)
from .manifold import (
    SpdMatrix,
    _metric_norm,
    airm_exp_map_stack,
    airm_log_map_stack,
    geodesic_distance_stack,
    symmetrize,
)
from .seeding import keyed_generator, rekey

DEGENERATE_DISTANCE = 1e-12
MAX_DIRECTION_RETRIES = 100
# Karcher mean: sufficient-decrease constant, halvings per step, and the
# stopping rule (residual tolerance, accepted-step cap).
ARMIJO_SLOPE = 1e-4
MAX_STEP_HALVINGS = 30
KARCHER_TOL = 1e-8
KARCHER_MAX_ITER = 100

DIRECTION_MODES = ("tangent_gaussian", "training_point")


@dataclass(frozen=True)
class SynthesisConfig:
    """Controls for synthetic point generation.

    ``direction_mode`` picks the tangent at the mean that each point
    steps along: ``"training_point"`` takes the log map of a uniformly
    chosen training point, ``"tangent_gaussian"`` (default) a
    symmetrized standard Gaussian, which cannot collide with the pole.
    """

    count: int = 0
    seed: int = 0
    direction_mode: str = "tangent_gaussian"

    def __post_init__(self):
        object.__setattr__(self, "count", require_integer(self.count, "count", least=0))
        object.__setattr__(self, "seed", require_integer(self.seed, "seed"))
        require_choice(self.direction_mode, "direction_mode", DIRECTION_MODES)


@dataclass(frozen=True)
class ConvergenceRecord:
    """How a Karcher mean iteration ended.

    ``iterations`` counts accepted steps, ``residual`` is the Frobenius
    norm of the last mean tangent, and ``halvings`` counts the step
    halvings the descent check forced over the whole run.
    """

    converged: bool
    iterations: int
    residual: float
    halvings: int


def karcher_mean_info(points, tol: float = KARCHER_TOL, max_iter: int = KARCHER_MAX_ITER):
    """Karcher mean with its convergence record, never raising on a stall.

    Riemannian gradient descent on ``f(M) = mean_i d(M, X_i)^2 / 2``,
    whose descent direction is the mean tangent ``g`` of the points at
    ``M``.  The start value is the arithmetic mean, which is already
    SPD.  Each iteration whitens every point at the current estimate
    and solves all of them in one batched eigensolve
    (:func:`airm_log_map_stack`), which yields the tangents and ``f``
    together.  Along the geodesic ``P = exp_M(t g)``, ``f`` falls at the
    rate ``s_t = trace(P^{-1} g_P M^{-1} g)``, with
    ``s_0 = s = ||M^{-1/2} g M^{-1/2}||_F^2``.  A trial ``t`` is halved
    until the Armijo decrease ``f(P) <= f(M) - ARMIJO_SLOPE * t * s``
    holds, or until ``s_t >= 0`` shows that the step stops short of the
    minimum along the geodesic, which still decides near the mean, where
    ``f`` rounds away the decrease.

    The first iteration tries ``t = 1``, the fixed-point update, which
    overshoots, and can diverge, on widely spread points (Bini &
    Iannazzo, LAA 2013).  Each later one starts from the secant zero of
    the rate along the last geodesic, ``min(1, t * s / (s - s_t))`` for
    the accepted ``t`` (``t`` itself when ``s_t >= s``): the
    one-dimensional Barzilai-Borwein step (Iannazzo & Porcelli, IMA J.
    Numer. Anal. 2018).  The cap is not tuned: on this Hadamard manifold
    the Hessian of ``f`` is at least the identity, so the minimum along
    a geodesic lies at ``t <= 1``.

    Stops, converged, when the Frobenius norm of the mean tangent drops
    to ``tol * (1 + ||M||_F)``; stops unconverged after ``max_iter``
    accepted steps, or when ``MAX_STEP_HALVINGS`` halvings of one step
    find no acceptable step.  ``tol`` must be positive and finite and
    ``max_iter`` a nonnegative integer, else :class:`ConfigError`.

    Returns
    -------
    (SpdMatrix, ConvergenceRecord)
    """
    tol = require_positive(tol, "tol")
    max_iter = require_integer(max_iter, "max_iter", least=0)
    points = list(points)
    if not points:
        raise EmptyInput("karcher_mean_info needs at least one point")
    dim = points[0].dim
    for p in points[1:]:
        if p.dim != dim:
            raise DimensionMismatch(f"points mix dimensions {dim} and {p.dim}")

    stack = np.stack([p.array for p in points])
    current = SpdMatrix(sum(stack) / len(points))
    mean_tangent, objective = _mean_tangent_and_objective(current, stack)
    iterations = halvings = 0
    step = 1.0
    while True:
        residual = float(np.linalg.norm(mean_tangent, "fro"))
        scale = 1.0 + float(np.linalg.norm(current.array, "fro"))
        if residual <= tol * scale:
            return current, ConvergenceRecord(True, iterations, residual, halvings)
        if iterations >= max_iter:
            return current, ConvergenceRecord(False, iterations, residual, halvings)
        rate = _metric_norm(current, mean_tangent) ** 2
        decrease = ARMIJO_SLOPE * rate
        isq = current.inv_sqrt_array
        pull = isq @ isq @ mean_tangent
        for _ in range(MAX_STEP_HALVINGS + 1):
            [trial] = airm_exp_map_stack(current, step * mean_tangent[None])
            trial_tangent, trial_objective = _mean_tangent_and_objective(trial, stack)
            trial_isq = trial.inv_sqrt_array
            trial_rate = float(np.sum((trial_isq @ trial_isq @ trial_tangent) * pull.T))
            if trial_objective <= objective - step * decrease or trial_rate >= 0.0:
                break
            step /= 2.0
            halvings += 1
        else:
            return current, ConvergenceRecord(False, iterations, residual, halvings)
        current, mean_tangent, objective = trial, trial_tangent, trial_objective
        iterations += 1
        if trial_rate < rate:
            step = min(1.0, step * rate / (rate - trial_rate))


def _mean_tangent_and_objective(pole: SpdMatrix, stack: np.ndarray):
    """Mean log map of the stacked points at ``pole`` and ``mean(d^2) / 2``."""
    tangents, dist_sq = airm_log_map_stack(pole, stack)
    # Summed in point order, as a loop over the points would.
    return sum(tangents) / len(stack), float(np.sum(dist_sq)) / (2.0 * len(stack))


def training_ball(points):
    """Karcher mean of a training set and its covering radius, as ``(mean, radius)``.

    The radius is the largest geodesic distance from the mean to a point,
    all of them from one batched eigenvalue solve
    (:func:`geodesic_distance_stack`).
    Raises :class:`NonConvergence`, carrying the last iterate and
    residual, when :func:`karcher_mean_info` misses ``KARCHER_TOL``
    within ``KARCHER_MAX_ITER`` steps.
    """
    points = list(points)
    mean, record = karcher_mean_info(points, tol=KARCHER_TOL, max_iter=KARCHER_MAX_ITER)
    if not record.converged:
        raise NonConvergence(
            f"Karcher mean residual {record.residual:.3e} after "
            f"{record.iterations} iterations and {record.halvings} step "
            f"halvings (tol {KARCHER_TOL:.1e})",
            iterate=mean,
            residual=record.residual,
            iterations=record.iterations,
        )
    distances = geodesic_distance_stack(mean, np.stack([p.array for p in points]))
    return mean, float(np.max(distances))


def geodesic_rescale(x: SpdMatrix, pole: SpdMatrix, zeta: float) -> SpdMatrix:
    """Move ``x`` along its geodesic through ``pole`` to distance ``zeta``.

    Returns ``exp_pole(zeta * u)`` for the unit tangent ``u`` along
    ``log_pole(x)``.  :func:`generate_synthetic` takes this step from
    the mean to each chosen training point in ``training_point`` mode,
    and the same step along a Gaussian tangent otherwise.

    Raises
    ------
    DegenerateDirection
        When ``x`` is within ``DEGENERATE_DISTANCE`` of the pole, so no
        direction is defined.
    """
    if x.dim != pole.dim:
        raise DimensionMismatch(f"dimensions differ: {x.dim} vs {pole.dim}")
    zeta = require_real(zeta, "zeta", nonnegative=True)
    [direction], _ = airm_log_map_stack(pole, x.array[None])
    [point] = airm_exp_map_stack(pole, _rescaled(pole, direction, zeta)[None])
    return point


def _rescaled(pole: SpdMatrix, direction: np.ndarray, zeta: float) -> np.ndarray:
    """The exactly symmetric tangent ``direction`` at ``pole`` rescaled to metric length ``zeta``."""
    norm = _metric_norm(pole, direction)
    if norm <= DEGENERATE_DISTANCE:
        raise DegenerateDirection(f"direction tangent has metric norm {norm:.3e}")
    return direction * (zeta / norm)


def generate_synthetic(training, config: SynthesisConfig, ball=None):
    """Synthesize ``config.count`` unlabeled SPD points inside the training ball.

    ``ball`` is ``training_ball(training)``, computed here when
    ``None``; a caller that synthesizes around one pool more than once
    passes it in.  Each output index gets its own counter-based
    stream keyed by ``(seed, index)`` (one generator re-keyed per index,
    drawing no OS entropy), so individual points are reproducible in
    isolation and the list is independent of generation order.  Each
    point draws a tangent (a training point's index or a Gaussian), then
    ``delta``; a degenerate tangent is redrawn up to
    ``MAX_DIRECTION_RETRIES`` times before the error propagates.  The
    draws run point by point, but the training points' tangents come
    from one batched log map at the mean and every point from one
    batched exp map (:func:`airm_exp_map_stack`), checked as one stack,
    with the bits of a step taken for that point alone.

    Returns
    -------
    list[SpdMatrix]
    """
    training = list(training)
    if len(training) < 2:
        raise EmptyInput("generate_synthetic needs at least two training points")
    mean, radius = training_ball(training) if ball is None else ball
    if config.direction_mode == "training_point":
        directions, _ = airm_log_map_stack(mean, np.stack([p.array for p in training]))
    steps = np.empty((config.count, mean.dim, mean.dim))
    rng = keyed_generator(config.seed, 0)
    for index in range(config.count):
        rekey(rng, config.seed, index)
        for _ in range(MAX_DIRECTION_RETRIES):
            if config.direction_mode == "training_point":
                direction = directions[int(rng.integers(len(training)))]
            else:
                direction = symmetrize(rng.standard_normal((mean.dim, mean.dim)))
            try:
                steps[index] = _rescaled(mean, direction, float(rng.uniform()) * radius)
                break
            except DegenerateDirection:
                continue
        else:
            raise DegenerateDirection(
                f"no usable direction after {MAX_DIRECTION_RETRIES} draws "
                f"for output index {index}"
            )
    return airm_exp_map_stack(mean, steps)
