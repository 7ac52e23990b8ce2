"""Intrinsic means, geodesic rescaling and synthetic point generation.

A set of SPD training points defines a ball: its center is the Karcher
(Frechet) mean under the affine-invariant metric and its radius is the
largest geodesic distance from the center to a training point.  New
unlabeled points are synthesized by picking a direction away from the
center, then rescaling along the connecting geodesic so the distance to
the center becomes ``delta * radius`` with ``delta`` uniform on [0, 1].
Every synthetic point therefore stays inside the training ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDirection,
    DimensionMismatch,
    EmptyInput,
    NonConvergence,
    require_integer,
)
from .manifold import (
    SpdMatrix,
    TangentVector,
    airm_exp_map,
    airm_log_map_stack,
    airm_norm,
    geodesic_distance,
    spd_power,
    symmetrize,
)
from .seeding import keyed_generator

DEGENERATE_DISTANCE = 1e-12
MAX_DIRECTION_RETRIES = 100
# Karcher step control: sufficient-decrease constant and halvings per step.
ARMIJO_SLOPE = 1e-4
MAX_STEP_HALVINGS = 30

DIRECTION_MODES = ("tangent_gaussian", "training_point")


@dataclass(frozen=True)
class SynthesisConfig:
    """Controls for synthetic point generation.

    ``direction_mode`` picks how directions away from the mean are
    drawn: ``"training_point"`` reuses a uniformly chosen training
    point, ``"tangent_gaussian"`` (default) exponentiates a random
    unit-norm symmetric tangent at the mean, which cannot collide with
    the pole.
    """

    count: int = 0
    seed: int = 0
    direction_mode: str = "tangent_gaussian"
    karcher_tol: float = 1e-8
    karcher_max_iter: int = 100

    def __post_init__(self):
        for name in ("count", "seed", "karcher_max_iter"):
            require_integer(getattr(self, name), name)
        if self.count < 0:
            raise ValueError(f"count must be nonnegative, got {self.count}")
        if self.direction_mode not in DIRECTION_MODES:
            raise ValueError(f"unknown direction_mode {self.direction_mode!r}")
        if not 0.0 < self.karcher_tol < math.inf:
            raise ValueError("karcher_tol must be positive and finite")
        if self.karcher_max_iter < 1:
            raise ValueError("karcher_max_iter must be at least 1")


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


def karcher_mean_info(points, tol: float = 1e-8, max_iter: int = 100):
    """Karcher mean with its convergence record, never raising on a stall.

    Riemannian gradient descent on ``f(M) = mean_i d(M, X_i)^2 / 2``,
    whose descent direction is the mean tangent ``g`` of the points at
    ``M``.  The start value is the arithmetic mean, which is already
    SPD.  Each iteration whitens every point at the current estimate
    and solves all of them in one batched eigensolve
    (:func:`airm_log_map_stack`), which yields the tangents and ``f``
    together.  The step tries ``t = 1`` first, the classic fixed-point
    update, and halves ``t`` until the Armijo decrease
    ``f(exp_M(t g)) <= f(M) - ARMIJO_SLOPE * t * ||M^{-1/2} g M^{-1/2}||_F^2``
    holds, or until the slope of ``f`` at the trial point shows that the
    step stops short of the minimum along the geodesic, which still
    decides near the mean, where ``f`` rounds away the decrease.  The
    unit step alone can diverge on widely spread points (Bini &
    Iannazzo, LAA 2013).  Where every unit step passes the Armijo test,
    the iterates are those of the fixed-point iteration, bit for bit.

    Stops, converged, when the Frobenius norm of the mean tangent drops
    to ``tol * (1 + ||M||_F)``; stops unconverged after ``max_iter``
    accepted steps, or when ``MAX_STEP_HALVINGS`` halvings of one step
    find no acceptable step.

    Returns
    -------
    (SpdMatrix, ConvergenceRecord)
    """
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
    while True:
        residual = float(np.linalg.norm(mean_tangent, "fro"))
        scale = 1.0 + float(np.linalg.norm(current.array, "fro"))
        if residual <= tol * scale:
            return current, ConvergenceRecord(True, iterations, residual, halvings)
        if iterations >= max_iter:
            return current, ConvergenceRecord(False, iterations, residual, halvings)
        decrease = ARMIJO_SLOPE * airm_norm(TangentVector(current, mean_tangent)) ** 2
        isq = current.inv_sqrt_array
        pull = isq @ isq @ mean_tangent
        step = 1.0
        for _ in range(MAX_STEP_HALVINGS + 1):
            trial = airm_exp_map(TangentVector(current, step * mean_tangent))
            trial_tangent, trial_objective = _mean_tangent_and_objective(trial, stack)
            if trial_objective <= objective - step * decrease:
                break
            # The slope of f along the geodesic at the trial point P is
            # -trace(P^{-1} g_P M^{-1} g).  If f still falls there, the step
            # stops short of the minimum on the geodesic, and f, convex
            # along it, has decreased even where rounding hides that.
            trial_isq = trial.inv_sqrt_array
            if np.sum((trial_isq @ trial_isq @ trial_tangent) * pull.T) >= 0.0:
                break
            step /= 2.0
            halvings += 1
        else:
            return current, ConvergenceRecord(False, iterations, residual, halvings)
        current, mean_tangent, objective = trial, trial_tangent, trial_objective
        iterations += 1


def _mean_tangent_and_objective(pole: SpdMatrix, stack: np.ndarray):
    """Mean log map of the stacked points at ``pole`` and ``mean(d^2) / 2``."""
    tangents, dist_sq = airm_log_map_stack(pole, stack)
    # Summed in point order, as a loop over the points would.
    return sum(tangents) / len(stack), float(np.sum(dist_sq)) / (2.0 * len(stack))


def training_ball(points, config: SynthesisConfig = SynthesisConfig()):
    """Karcher mean of a training set and its covering radius, as ``(mean, radius)``.

    The radius is the largest geodesic distance from the mean to a point.
    Raises :class:`NonConvergence`, carrying the last iterate and
    residual, when the mean misses the stopping rule of
    :func:`karcher_mean_info` within ``config.karcher_max_iter`` steps.
    """
    points = list(points)
    mean, record = karcher_mean_info(
        points, tol=config.karcher_tol, max_iter=config.karcher_max_iter
    )
    if not record.converged:
        raise NonConvergence(
            f"Karcher mean residual {record.residual:.3e} after "
            f"{record.iterations} iterations and {record.halvings} step "
            f"halvings (tol {config.karcher_tol:.1e})",
            iterate=mean,
            residual=record.residual,
            iterations=record.iterations,
        )
    return mean, max(geodesic_distance(mean, p) for p in points)


def geodesic_rescale(x: SpdMatrix, pole: SpdMatrix, zeta: float) -> SpdMatrix:
    """Move ``x`` along its geodesic through ``pole`` to distance ``zeta``.

    Uses the closed form ``pole^{1/2} (pole^{-1/2} x pole^{-1/2})^c
    pole^{1/2}`` with ``c = zeta / d(pole, x)``, which rescales the
    geodesic parameter exactly.

    Raises
    ------
    DegenerateDirection
        When ``x`` is within ``DEGENERATE_DISTANCE`` of the pole, so no
        direction is defined.
    """
    if x.dim != pole.dim:
        raise DimensionMismatch(f"dimensions differ: {x.dim} vs {pole.dim}")
    zeta = float(zeta)
    if zeta < 0.0:
        raise ValueError(f"zeta must be nonnegative, got {zeta}")
    dist = geodesic_distance(pole, x)
    if dist <= DEGENERATE_DISTANCE:
        raise DegenerateDirection(
            f"direction point lies at distance {dist:.3e} from the pole"
        )
    c = zeta / dist
    isq = pole.inv_sqrt_array
    sq = pole.sqrt_array
    inner = SpdMatrix(symmetrize(isq @ x.array @ isq))
    powered = spd_power(inner, c)
    return SpdMatrix(sq @ powered.array @ sq)


def _draw_direction(rng, mean: SpdMatrix, training, mode: str) -> SpdMatrix:
    if mode == "training_point":
        return training[int(rng.integers(len(training)))]
    gauss = rng.standard_normal((mean.dim, mean.dim))
    tangent = symmetrize(gauss)
    isq = mean.inv_sqrt_array
    norm = float(np.linalg.norm(isq @ tangent @ isq, "fro"))
    if norm <= DEGENERATE_DISTANCE:
        raise DegenerateDirection("random tangent collapsed to zero")
    return airm_exp_map(TangentVector(mean, tangent / norm))


def generate_synthetic(training, config: SynthesisConfig, ball=None):
    """Synthesize ``config.count`` unlabeled SPD points inside the training ball.

    ``ball`` is ``training_ball(training, config)``, computed here when
    ``None``; a caller that synthesizes around one pool more than once
    passes it in.  Each output index gets its own counter-based
    generator keyed by ``(seed, index)``, so individual points are
    reproducible in isolation and the list is independent of generation
    order.  A draw whose direction degenerates is retried (fresh draw)
    up to ``MAX_DIRECTION_RETRIES`` times before the error propagates.

    Returns
    -------
    list[SpdMatrix]
    """
    training = list(training)
    if len(training) < 2:
        raise EmptyInput("generate_synthetic needs at least two training points")
    mean, radius = training_ball(training, config) if ball is None else ball
    out = []
    for index in range(config.count):
        rng = keyed_generator(config.seed, index)
        for _ in range(MAX_DIRECTION_RETRIES):
            try:
                direction = _draw_direction(rng, mean, training, config.direction_mode)
                delta = float(rng.uniform())
                out.append(geodesic_rescale(direction, mean, delta * radius))
                break
            except DegenerateDirection:
                continue
        else:
            raise DegenerateDirection(
                f"no usable direction after {MAX_DIRECTION_RETRIES} draws "
                f"for output index {index}"
            )
    return out
