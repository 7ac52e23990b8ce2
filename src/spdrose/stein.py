"""Stein divergence, the derived kernel, and Gram-matrix machinery.

The symmetric Stein (log-det) divergence between SPD matrices is

    J(X, Y) = logdet((X + Y) / 2) - (logdet(X) + logdet(Y)) / 2

and the kernel is ``K(X, Y) = exp(-sigma * J(X, Y))``.  The kernel is
guaranteed positive semidefinite only when ``2 * sigma`` is an integer
between 1 and ``d - 1``; other values are useful in practice, so Gram
assembly carries an explicit repair policy for indefinite spectra.

Log-determinants are always computed as twice the sum of the logs of
the diagonal of a Cholesky factor, never through raw determinants, so
they stay finite and accurate for the matrix sizes this package
targets.  The midpoint and both points go through the same
factorization, so a point paired with a content-identical copy of
itself has divergence exactly zero.

Every divergence the package needs is evaluated by
:func:`stein_divergence` inside :func:`divergence_matrix`, the one
producer of divergence blocks.  ``J`` does not depend on ``sigma``, so
the kernel-side functions (Gram assembly, embedding, the
nearest-neighbour baseline, the distortion report) take those float64
blocks rather than points, and the caller decides which pairs to
compute once and reuse across kernel widths, pools and query sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyInput, IndefiniteKernel
from .manifold import SpdMatrix, _cholesky_logdet, _readonly_copy, symmetrize

PSD_POLICIES = ("clamp", "strict")
GRAM_PSD_RTOL = 1e-10
PSEUDO_INVERSE_RTOL = 1e-10


@dataclass(frozen=True)
class KernelParams:
    """Kernel scale and the policy for indefinite Gram spectra.

    ``psd_policy`` is ``"clamp"`` (zero out negative eigenvalues and
    record the removed mass) or ``"strict"`` (raise
    :class:`IndefiniteKernel` when a significantly negative eigenvalue
    appears).
    """

    sigma: float
    psd_policy: str = "clamp"

    def __post_init__(self):
        if not 0.0 < float(self.sigma) < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma!r}")
        if self.psd_policy not in PSD_POLICIES:
            raise ValueError(f"unknown psd_policy {self.psd_policy!r}")


def sigma_guarantees_psd(sigma: float, dim: int) -> bool:
    """True when ``sigma`` lies on the half-integer grid {1/2, 1, ..., (d-1)/2}."""
    doubled = 2.0 * float(sigma)
    return doubled == round(doubled) and 1 <= round(doubled) <= dim - 1


def stein_divergence(x: SpdMatrix, y: SpdMatrix) -> float:
    """Symmetric Stein divergence between two SPD matrices.

    Evaluated as an expression that is exactly symmetric in its
    arguments, clamped at zero against rounding.
    """
    a, b = x.array, y.array
    if a.shape != b.shape:
        raise DimensionMismatch(f"dimensions differ: {x.dim} vs {y.dim}")
    mid = a + b
    mid *= 0.5  # exact, like dividing by 2
    value = _cholesky_logdet(mid) - 0.5 * (x.logdet + y.logdet)
    return max(value, 0.0)


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
    """Kernel Gram matrix after the PSD policy has been applied.

    ``clamped_mass`` is the total magnitude of eigenvalues removed by
    the clamp repair, zero when the assembled matrix was already PSD.
    """

    entries: np.ndarray
    clamped_mass: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "entries", _readonly_copy(self.entries))

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def gram_matrix(divergences, params: KernelParams) -> GramMatrix:
    """Assemble the kernel Gram matrix from a square divergence block.

    ``divergences`` is :func:`divergence_matrix` of the points with
    themselves, exactly symmetric with a zero diagonal, so the kernel
    ``exp(-sigma * D)`` is exactly symmetric with a unit diagonal.  The
    spectrum is then checked: negative eigenvalues below
    ``-GRAM_PSD_RTOL * lambda_max`` raise under the strict policy; under
    the clamp policy all negative eigenvalues are zeroed and their total
    magnitude recorded.
    """
    divergences = np.asarray(divergences, dtype=np.float64)
    if divergences.ndim != 2 or divergences.shape[0] != divergences.shape[1]:
        raise DimensionMismatch(
            f"divergences must form a square matrix, got shape {divergences.shape}"
        )
    if divergences.size == 0:
        raise EmptyInput("gram_matrix needs at least one point")
    k = np.exp(-params.sigma * divergences)

    vals, vecs = np.linalg.eigh(k)
    lo, hi = float(vals[0]), float(vals[-1])
    if lo >= 0.0:
        return GramMatrix(k, 0.0)
    if params.psd_policy == "strict" and lo < -GRAM_PSD_RTOL * hi:
        raise IndefiniteKernel(
            f"Gram matrix has eigenvalue {lo:.6e} (largest {hi:.6e}) at "
            f"sigma={params.sigma}; PSD holds only for 2*sigma in 1..d-1",
            smallest_eigenvalue=lo,
            sigma=params.sigma,
        )
    negative = vals[vals < 0.0]
    clamped = np.clip(vals, 0.0, None)
    repaired = symmetrize((vecs * clamped) @ vecs.T)
    return GramMatrix(repaired, float(-np.sum(negative)))


def gram_power(gram: GramMatrix, exponent: float) -> np.ndarray:
    """Symmetric power of a repaired Gram matrix, exponent +1/2 or -1/2.

    Both branches act on the numerical range of the Gram matrix:
    eigenvalues at or below ``PSEUDO_INVERSE_RTOL * lambda_max`` are
    treated as exact zeros.  The -1/2 branch is therefore a
    pseudo-inverse square root, the +1/2 branch a rank-truncated square
    root (without the truncation, roundoff-sized eigenvalues of a
    rank-deficient Gram would surface as sqrt-amplified noise), and
    their product is the projector onto that range.
    """
    if exponent not in (0.5, -0.5):
        raise ValueError(f"exponent must be +0.5 or -0.5, got {exponent!r}")
    vals, vecs = np.linalg.eigh(gram.entries)
    cutoff = PSEUDO_INVERSE_RTOL * max(float(vals[-1]), 0.0)
    if exponent == -0.5:
        powered = np.where(vals > cutoff, 1.0 / np.sqrt(np.clip(vals, 1e-300, None)), 0.0)
    else:
        powered = np.where(vals > cutoff, np.sqrt(np.clip(vals, 0.0, None)), 0.0)
    return symmetrize((vecs * powered) @ vecs.T)
