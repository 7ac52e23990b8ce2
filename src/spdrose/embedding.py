"""Random-projection embedding of SPD matrices through the Stein kernel.

A reference pool of ``p`` SPD matrices induces the kernel feature map
``kappa(X) = (K(ref_1, X), ..., K(ref_p, X))``.  Each embedding
coordinate is one random hyperplane in kernel space: hyperplane ``j``
draws ``t`` exemplar indices ``S_j`` without replacement and uses the
weight vector

    w_j = K^e ((1/t) e_{S_j} - (1/p) e)

where ``K`` is the reference Gram matrix and ``e`` the all-ones vector.
The exponent ``e`` is -1/2 in ``"whitening"`` mode (pseudo-inverse
square root, the default, which makes the hyperplane directions
approximately isotropic) or +1/2 in ``"paper_literal"`` mode.  A
constant factor ``sqrt(p * t)`` that a full derivation attaches to the
weights is deliberately dropped: it rescales every coordinate uniformly
and the classifier standardizes coordinates anyway.  Numeric
comparisons against externally scaled embeddings must account for it.

Hyperplane ``j`` is generated from a counter-based generator keyed by
``seed XOR j``, so growing ``k`` keeps all earlier hyperplanes
bit-identical.
"""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, EmptyInput, NonFiniteEntry, ParseError, SpdRoseError
from .errors import TSampleTooLarge, require_array, require_choice, require_integer, require_real
from .io import json_floats, read_container, symmetric_from_upper
from .manifold import _readonly_copy, matvecs, spd_stack
from .seeding import keyed_generator, rekey
from .stein import GramMatrix, KernelParams, divergence_matrix, gram_matrix, gram_power

EXPONENTS = {"whitening": -0.5, "paper_literal": 0.5}
EXPONENT_MODES = tuple(EXPONENTS)

MODEL_FORMAT = "spdrose.projection_model"
MODEL_FORMAT_VERSION = 2
MAX_WEIGHTS = 2**24  # p * k, 128 MiB of float64


@dataclass(frozen=True, eq=False)
class ProjectionModel:
    """Frozen state of a fitted embedding.

    Holds the reference pool and the ``p x k`` weight matrix whose
    columns are the hyperplanes, and checks them on construction, which
    building and loading both go through.
    Embedding needs nothing else, so the reference Gram matrix and its
    power are computed on first use; ``fitted`` hands over the
    ``(gram, kernel_power)`` pair that :func:`build_projection_model`
    already computed.
    """

    reference_points: tuple
    kernel_params: KernelParams
    weights: np.ndarray
    t: int
    exponent_mode: str
    seed: int
    fitted: InitVar[tuple | None] = None

    def __post_init__(self, fitted):
        object.__setattr__(self, "reference_points", tuple(self.reference_points))
        p = self.p
        if p < 2:
            raise EmptyInput(f"a projection model needs two reference points, got {p}")
        weights = require_array(self.weights, f"weights for {p} reference points", (p, None))
        object.__setattr__(self, "weights", _readonly_copy(weights))
        if self.k < 1:
            raise ValueError(f"weights must have k >= 1 columns, got shape {weights.shape}")
        object.__setattr__(self, "t", require_integer(self.t, "t"))
        object.__setattr__(self, "seed", require_integer(self.seed, "seed"))
        if not 1 <= self.t <= p:
            raise ValueError(f"t={self.t} lies outside 1..p={p}")
        require_choice(self.exponent_mode, "exponent_mode", EXPONENT_MODES)
        if fitted is not None:
            self.__dict__["gram"], self.__dict__["kernel_power"] = fitted

    @property
    def p(self) -> int:
        return len(self.reference_points)

    @property
    def k(self) -> int:
        return self.weights.shape[1]

    @property
    def dim(self) -> int:
        return self.reference_points[0].dim

    @property
    def exponent(self) -> float:
        return EXPONENTS[self.exponent_mode]

    @property
    def clamped_mass(self) -> float:
        return self.gram.clamped_mass

    @cached_property
    def gram(self) -> GramMatrix:
        """Repaired Gram matrix of the reference pool."""
        refs = self.reference_points
        return gram_matrix(divergence_matrix(refs, refs), self.kernel_params)

    @cached_property
    def kernel_power(self) -> np.ndarray:
        """Gram matrix raised to the mode's exponent (shared by all hyperplanes)."""
        return gram_power(self.gram, self.exponent)


def build_projection_model(
    reference_points,
    divergences,
    k: int,
    params: KernelParams,
    t: int | None = None,
    exponent_mode: str = "whitening",
    seed: int = 0,
) -> ProjectionModel:
    """Fit the embedding on a reference pool.

    Parameters
    ----------
    reference_points : sequence of SpdMatrix
        Reference pool (at least two points, uniform dimension).
    divergences : ndarray
        ``divergence_matrix(reference_points, reference_points)``.
    k : int
        Hyperplanes (embedding coordinates); ``p * k > MAX_WEIGHTS`` is a ConfigError.
    params : KernelParams
        Kernel scale and PSD policy for the Gram matrix.
    t : int, optional
        Exemplars per hyperplane; default ``min(30, ceil(p / 4))``.
    exponent_mode : {"whitening", "paper_literal"}
    seed : int
        Master seed; hyperplane ``j`` uses ``seed XOR j``.
    """
    points = tuple(reference_points)
    require_choice(exponent_mode, "exponent_mode", EXPONENT_MODES)
    p = len(points)
    if t is None:
        t = min(30, -(-p // 4))  # ceil(p / 4), in integers
    t = require_integer(t, "t", least=1)
    if t > p:
        raise TSampleTooLarge(f"t={t} exceeds the reference pool size p={p}")
    k = require_integer(k, "k", least=1)
    if p * k > MAX_WEIGHTS:
        raise ConfigError(f"k={k} hyperplanes on {p} points exceed {MAX_WEIGHTS} weights")

    gram = gram_matrix(require_array(divergences, "divergences", (p, p)), params)
    powered = gram_power(gram, EXPONENTS[exponent_mode])

    alphas = np.full((k, p), -1.0 / p)  # row j: hyperplane j's selection vector
    rng = keyed_generator(seed)
    for j, alpha in enumerate(alphas):
        rekey(rng, seed ^ j)
        alpha[rng.choice(p, size=t, replace=False)] += 1.0 / t

    return ProjectionModel(
        reference_points=points,
        kernel_params=params,
        weights=matvecs(powered, alphas).T,
        t=t,
        exponent_mode=exponent_mode,
        seed=seed,
        fitted=(gram, powered),
    )


def _kernel_rows(model: ProjectionModel, divergences) -> np.ndarray:
    """Kernel values of each point against the reference pool, one row per point."""
    divergences = require_array(divergences, "divergences", (None, model.p))
    return np.exp(-model.kernel_params.sigma * divergences)


def _project(model: ProjectionModel, kappas: np.ndarray) -> np.ndarray:
    """Hyperplane responses to each kernel row, as a read-only ``(n, k)`` array."""
    # Finite weights can still overflow; the check below reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        coords = matvecs(model.weights.T, kappas)
    if not np.all(np.isfinite(coords)):
        raise NonFiniteEntry("embedding produced non-finite coordinates")
    coords.setflags(write=False)
    return coords


def embed_batch(model: ProjectionModel, divergences) -> np.ndarray:
    """Embed SPD points into the rows of a read-only ``(n, k)`` array.

    ``divergences`` has one row per point against the reference pool,
    ``divergence_matrix(points, model.reference_points)``, and row ``i``
    of the result is ``weights.T @ kappa(points[i])``.
    """
    return _project(model, _kernel_rows(model, divergences))


def expected_distance_sq(model: ProjectionModel, kappa_u, kappa_v) -> float | np.ndarray:
    """Exact expectation of the per-coordinate squared embedding gap.

    Every coordinate difference is ``alpha^T K^e (kappa_u - kappa_v)``
    with ``alpha`` the centered exemplar-selection vector.  Sampling
    ``t`` of ``p`` indices without replacement gives ``alpha`` the
    covariance ``(p - t) / (t p (p - 1)) * (I - J/p)``, so the mean of
    the squared gap over hyperplanes has this closed form.  It is the
    deterministic target that ``(1/k) * ||e_u - e_v||^2`` converges to
    as ``k`` grows, for the two points' rows ``e_u``, ``e_v`` of
    :func:`embed_batch`.  Stacks of kernel rows broadcast: ``(n, p)``
    arguments give one value per row pair.
    """
    p, t = model.p, model.t
    factor = (p - t) / (t * p * (p - 1)) if t < p else 0.0
    delta = np.asarray(kappa_u, dtype=np.float64) - np.asarray(kappa_v, dtype=np.float64)
    h = matvecs(model.kernel_power, delta.reshape(-1, model.p)).reshape(delta.shape)
    centered = h - h.mean(axis=-1, keepdims=True)
    return factor * np.einsum("...i,...i->...", centered, centered)


@dataclass(frozen=True)
class JlReport:
    """Distortion summary of embedded pairwise distances."""

    pair_count: int
    fraction_within: float
    median_distortion: float
    epsilon: float
    k: int


def jl_distortion_report(model: ProjectionModel, divergences, epsilon: float) -> JlReport:
    """Check the two-sided distortion of embedded squared distances.

    For every pair the ``(1/k)``-scaled squared embedding distance is
    compared against :func:`expected_distance_sq`; a pair counts as
    "within" when the ratio lies in ``[1 - epsilon, 1 + epsilon]``.
    Pairs whose target distance is zero count as within exactly when
    the embedded distance is zero too (identical points embed
    identically, so a degenerate cloud reports fraction 1).  The points
    enter as ``divergences``, one row each against the reference pool.
    """
    epsilon = require_real(epsilon, "epsilon", below=1)
    kappas = _kernel_rows(model, divergences)
    embeddings = _project(model, kappas)

    # One row pass per point against every later point, in pair order; the
    # empty leading blocks keep a cloud of fewer than two points valid.
    observed, target = [np.empty(0)], [np.empty(0)]
    for u in range(len(kappas) - 1):
        gaps = embeddings[u + 1 :] - embeddings[u]
        observed.append(np.einsum("ij,ij->i", gaps, gaps) / model.k)
        target.append(expected_distance_sq(model, kappas[u + 1 :], kappas[u]))
    observed, target = np.concatenate(observed), np.concatenate(target)

    zero = target <= 0.0
    ratios = observed[~zero] / target[~zero]
    in_band = ((1.0 - epsilon) <= ratios) & (ratios <= (1.0 + epsilon))
    within = int(np.count_nonzero(observed[zero] == 0.0) + np.count_nonzero(in_band))
    fraction = within / observed.size if observed.size else 1.0
    median = float(np.median(ratios)) if ratios.size else 1.0
    return JlReport(observed.size, fraction, median, epsilon, model.k)


def save_projection_model(path, model: ProjectionModel) -> None:
    """Write the model as a self-describing JSON container.

    Each reference point is stored as its upper triangle, row by row, in
    one flat list; the weights as ``p`` rows of ``k`` values.
    """
    upper = np.triu_indices(model.dim)
    payload = {
        "format": MODEL_FORMAT,
        "format_version": MODEL_FORMAT_VERSION,
        "dim": model.dim,
        "p": model.p,
        "k": model.k,
        "t": model.t,
        "sigma": model.kernel_params.sigma,
        "psd_policy": model.kernel_params.psd_policy,
        "exponent_mode": model.exponent_mode,
        "seed": model.seed,
        "clamped_mass": model.clamped_mass,
        "reference_points": [ref.array[upper].tolist() for ref in model.reference_points],
        "weights": model.weights.tolist(),
    }
    Path(path).write_text(json.dumps(payload), encoding="ascii")


def load_projection_model(path) -> ProjectionModel:
    """Load a model saved by :func:`save_projection_model`.

    Reference points and weights round-trip exactly, so embeddings
    after a load are bit-identical to the original model's.  The Gram
    matrix is not needed to embed and is recomputed only on first use.
    Only ``format_version`` 2 is read; a version 1 file, with full
    reference matrices, is rejected and a retrained model replaces it.
    :class:`ProjectionModel` checks the values read, and a file that
    fails a check, a number written as a string included, raises
    :class:`ParseError` naming it.
    """
    payload = read_container(
        path, MODEL_FORMAT, MODEL_FORMAT_VERSION, version_key="format_version"
    )
    try:
        dim, p, k = (require_integer(payload[name], name) for name in ("dim", "p", "k"))
        model = ProjectionModel(
            reference_points=tuple(spd_stack([
                symmetric_from_upper(json_floats(m), dim)
                for m in payload["reference_points"]
            ])),
            kernel_params=KernelParams(payload["sigma"], payload["psd_policy"]),
            weights=json_floats(payload["weights"]),
            t=payload["t"],
            exponent_mode=payload["exponent_mode"],
            seed=payload["seed"],
        )
        shape = model.weights.shape
        if (p, k) != shape:
            raise ValueError(f"header p and k do not match weights of shape {shape}")
    except (KeyError, TypeError, ValueError, SpdRoseError) as exc:
        raise ParseError(f"{path}: malformed projection model ({exc})") from exc
    return model
