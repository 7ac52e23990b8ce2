"""Stein divergence, the derived kernel, and Gram-matrix machinery.

The symmetric Stein (log-det) divergence between SPD matrices is

    J(X, Y) = logdet((X + Y) / 2) - (logdet(X) + logdet(Y)) / 2

and the kernel is ``K(X, Y) = exp(-sigma * J(X, Y))``.  The kernel is
guaranteed positive semidefinite on every point set exactly when ``2 * sigma``
is an integer between 1 and ``d - 1`` or ``sigma > (d - 1) / 2`` (Sra,
"Positive definite matrices and the S-divergence", Proc. AMS 2016);
other values are useful in practice, so Gram assembly carries an
explicit repair policy for indefinite spectra.

Log-determinants are always twice the exactly rounded sum (``math.fsum``)
of the logs of a Cholesky factor's diagonal, never raw determinants, so
they stay finite and accurate at this package's sizes and do not depend
on the diagonal's order.  The midpoint and both points go through the
same factorization, so a point paired with a content-identical copy of
itself has divergence exactly zero.  Each point keeps its log-det and
its half (:attr:`~spdrose.manifold.SpdMatrix.half`), so a pair costs
one sum ``x.half + y.half``, factored in place, and no other array.

Every divergence the package needs is evaluated by
:func:`stein_divergence` inside :func:`divergence_matrix`, the one
producer of divergence blocks.  ``J`` does not depend on ``sigma``, so
the kernel-side functions (Gram assembly, embedding, the
nearest-neighbour baseline, the distortion report) take those float64
blocks rather than points, and the caller decides which pairs to
compute once and reuse across kernel widths, pools and query sets.

Each :class:`GramMatrix` solves its spectrum once, on construction: the
PSD check of :func:`gram_matrix` and :func:`gram_power` both read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, EmptyInput, IndefiniteKernel
from .errors import require_choice, require_positive
from .manifold import SpdMatrix, _cholesky_logdet, _readonly, _readonly_copy, symmetrize

PSD_POLICIES = ("clamp", "strict")
GRAM_PSD_RTOL = 1e-10
PSEUDO_INVERSE_RTOL = 1e-10


@dataclass(frozen=True)
class KernelParams:
    """Kernel scale and the policy for indefinite Gram spectra.

    ``sigma`` is stored as a ``float``; anything but a positive, finite
    real number, a numeric string or a ``bool`` included, raises
    :class:`ConfigError`.  ``psd_policy`` is ``"clamp"`` (zero out negative
    eigenvalues and record the removed mass) or ``"strict"`` (raise
    :class:`IndefiniteKernel` when a significantly negative eigenvalue
    appears).
    """

    sigma: float
    psd_policy: str = "clamp"

    def __post_init__(self):
        object.__setattr__(self, "sigma", require_positive(self.sigma, "sigma"))
        require_choice(self.psd_policy, "psd_policy", PSD_POLICIES)


def sigma_guarantees_psd(sigma: float, dim: int) -> bool:
    """True when ``sigma`` lies in {1/2, 1, ..., (d-1)/2} or above (d-1)/2."""
    doubled = 2.0 * float(sigma)
    return doubled > dim - 1 or (doubled == round(doubled) and doubled >= 1)


def stein_divergence(x: SpdMatrix, y: SpdMatrix) -> float:
    """Symmetric Stein divergence between two SPD matrices.

    Evaluated as an expression that is exactly symmetric in its
    arguments, clamped at zero against rounding.
    """
    if x.array.shape != y.array.shape:
        raise DimensionMismatch(f"dimensions differ: {x.dim} vs {y.dim}")
    # The midpoint (x + y) / 2, bit for bit (see SpdMatrix.half); it is a
    # fresh array, so its factorization may overwrite it.
    value = _cholesky_logdet(x.half + y.half) - 0.5 * (x.logdet + y.logdet)
    return 0.0 if value < 0.0 else value  # the bits of max(value, 0.0), NaN and -0.0 too


def divergence_matrix(rows, cols) -> np.ndarray:
    """Divergences ``D[i, j] = J(rows[i], cols[j])`` as a float64 array.

    Every entry comes from :func:`stein_divergence`, which is exactly
    symmetric in its arguments and exactly zero for a point paired with
    itself, so the result equals the per-pair loop bit for bit while a
    point paired with itself costs nothing and, when ``rows is cols``,
    only the upper triangle is evaluated and mirrored.
    """
    square = rows is cols
    rows = list(rows)
    cols = rows if square else list(cols)
    out = np.zeros((len(rows), len(cols)))
    for i, x in enumerate(rows):
        start = i + 1 if square else 0
        out[i, start:] = [0.0 if x is y else stein_divergence(x, y) for y in cols[start:]]
    return out + out.T if square else out


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Kernel Gram matrix after the PSD policy has been applied, with its spectrum.

    ``clamped_mass`` is the total magnitude of eigenvalues removed by
    the clamp repair, zero when the assembled matrix was already PSD.
    Construction solves ``entries`` once, by ``eigh``, for the read-only
    ascending ``values`` and column ``vectors``.
    """

    entries: np.ndarray
    clamped_mass: float = 0.0
    values: np.ndarray = field(init=False, repr=False)
    vectors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "entries", _readonly_copy(self.entries))
        values, vectors = np.linalg.eigh(self.entries)
        object.__setattr__(self, "values", _readonly(values))
        object.__setattr__(self, "vectors", _readonly(vectors))


def gram_matrix(divergences, params: KernelParams) -> GramMatrix:
    """Assemble the kernel Gram matrix from a square divergence block.

    ``divergences`` is :func:`divergence_matrix` of the points with
    themselves, exactly symmetric with a zero diagonal, so the kernel
    ``exp(-sigma * D)`` is exactly symmetric with a unit diagonal.  Its
    spectrum is then checked: negative eigenvalues below
    ``-GRAM_PSD_RTOL * lambda_max`` raise under the strict policy; under
    the clamp policy all negative eigenvalues are zeroed, their total
    magnitude recorded, and the repaired matrix solved as a new Gram.
    """
    divergences = np.asarray(divergences, dtype=np.float64)
    if divergences.ndim != 2 or divergences.shape[0] != divergences.shape[1]:
        raise DimensionMismatch(
            f"divergences must form a square matrix, got shape {divergences.shape}"
        )
    if divergences.size == 0:
        raise EmptyInput("gram_matrix needs at least one point")
    gram = GramMatrix(np.exp(-params.sigma * divergences))
    vals, vecs = gram.values, gram.vectors
    lo, hi = float(vals[0]), float(vals[-1])
    if lo >= 0.0:
        return gram
    if params.psd_policy == "strict" and lo < -GRAM_PSD_RTOL * hi:
        raise IndefiniteKernel(
            f"Gram matrix has eigenvalue {lo:.6e} (largest {hi:.6e}) at "
            f"sigma={params.sigma}; PSD is guaranteed for 2*sigma in 1..d-1 or above",
            smallest_eigenvalue=lo,
            sigma=params.sigma,
        )
    negative = vals[vals < 0.0]
    clamped = np.clip(vals, 0.0, None)
    repaired = symmetrize((vecs * clamped) @ vecs.T)
    return GramMatrix(repaired, float(-np.sum(negative)))


def gram_power(gram: GramMatrix, exponent: float) -> np.ndarray:
    """Symmetric power of a repaired Gram matrix, exponent +1/2 or -1/2.

    Reads the spectrum of ``gram``.  Both branches act on the numerical
    range of the Gram matrix: eigenvalues at or below
    ``PSEUDO_INVERSE_RTOL * lambda_max`` are treated as exact zeros.
    The -1/2 branch is therefore a pseudo-inverse square root, the +1/2
    branch a rank-truncated square root (without the truncation,
    roundoff-sized eigenvalues of a rank-deficient Gram would surface as
    sqrt-amplified noise), and their product is the projector onto that
    range.
    """
    if exponent not in (0.5, -0.5):
        raise ValueError(f"exponent must be +0.5 or -0.5, got {exponent!r}")
    vals, vecs = gram.values, gram.vectors
    cutoff = PSEUDO_INVERSE_RTOL * max(float(vals[-1]), 0.0)
    if exponent == -0.5:
        powered = np.where(vals > cutoff, 1.0 / np.sqrt(np.clip(vals, 1e-300, None)), 0.0)
    else:
        powered = np.where(vals > cutoff, np.sqrt(np.clip(vals, 0.0, None)), 0.0)
    return symmetrize((vecs * powered) @ vecs.T)
