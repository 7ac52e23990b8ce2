"""Stein divergence, the derived kernel, and Gram-matrix machinery.

The symmetric Stein (log-det) divergence between SPD matrices is

    J(X, Y) = logdet((X + Y) / 2) - (logdet(X) + logdet(Y)) / 2

and the kernel is ``K(X, Y) = exp(-sigma * J(X, Y))``.  The kernel is
guaranteed positive semidefinite only when ``2 * sigma`` is an integer
between 1 and ``d - 1``; other values are useful in practice, so Gram
assembly carries an explicit repair policy for indefinite spectra.

Log-determinants are always computed as sums of log-eigenvalues of
symmetric factors, never through raw determinants, so they stay finite
and accurate for the matrix sizes this package targets.

Every divergence the package needs is evaluated by
:func:`stein_divergence`, and every block of them (Gram assembly,
embedding, the nearest-neighbour baseline, the distortion report) goes
through :func:`divergence_matrix`.  ``J`` does not depend on ``sigma``,
so a :class:`DivergenceTable` lets one scope, such as a pipeline
repetition, compute each pair of its points at most once and reuse it
for every kernel width, pool and query set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyInput, IndefiniteKernel
from .manifold import SpdMatrix, symmetrize

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
        if self.psd_policy not in ("clamp", "strict"):
            raise ValueError(f"unknown psd_policy {self.psd_policy!r}")


def sigma_guarantees_psd(sigma: float, dim: int) -> bool:
    """True when ``sigma`` lies on the half-integer grid {1/2, 1, ..., (d-1)/2}."""
    doubled = 2.0 * float(sigma)
    return doubled == round(doubled) and 1 <= round(doubled) <= dim - 1


def _logdet_symmetric(a: np.ndarray) -> float:
    return float(np.sum(np.log(np.linalg.eigvalsh(a))))


def stein_divergence(x: SpdMatrix, y: SpdMatrix) -> float:
    """Symmetric Stein divergence between two SPD matrices.

    Evaluated as an expression that is exactly symmetric in its
    arguments, clamped at zero against rounding.
    """
    if x.dim != y.dim:
        raise DimensionMismatch(f"dimensions differ: {x.dim} vs {y.dim}")
    mid = _logdet_symmetric((x.array + y.array) / 2.0)
    value = mid - 0.5 * (x.logdet + y.logdet)
    return max(value, 0.0)


class DivergenceTable:
    """Stein divergences between known points, each computed at most once.

    Points are known by identity and indexed by position.  A pair is
    kept when at least one of its points is among the first ``rows``
    points (default: all of them), in cell ``[min, max]`` of its two
    positions of a float64 array that holds NaN until the pair is
    computed.  Pairs with an unknown point, or with both points past
    ``rows``, are computed on every request and not kept.
    """

    def __init__(self, points, rows=None, base=None):
        points = tuple(points)
        self._base = base
        self._own = len(points)
        self._size = self._own + (base._size if base is not None else 0)
        self._rows = self._own if rows is None else int(rows)
        position = {}
        for i, point in enumerate(points):
            position.setdefault(point, i)
        if base is not None:
            for point, i in base._position.items():
                position.setdefault(point, i + self._own)
        self._position = position
        self._values = np.full((self._rows, self._size), np.nan)

    def extended(self, points) -> "DivergenceTable":
        """A table over ``points`` plus this table's points.

        Pairs between this table's points are read from and written to
        this table; pairs involving a new point are kept only by the
        returned table, so they are dropped with it.
        """
        return DivergenceTable(points, base=self)

    def _cell(self, i, j):
        if i < self._rows:
            return self._values, i, j
        if i >= self._own and self._base is not None:
            return self._base._cell(i - self._own, j - self._own)
        return None

    def divergence(self, x: SpdMatrix, y: SpdMatrix) -> float:
        """``J(x, y)``, from the table when it holds the pair."""
        i, j = self._position.get(x), self._position.get(y)
        cell = None
        if i is not None and j is not None:
            cell = self._cell(min(i, j), max(i, j))
        if cell is None:
            return stein_divergence(x, y)
        values, i, j = cell
        value = values[i, j]
        if math.isnan(value):
            value = values[i, j] = stein_divergence(x, y)
        return value


def divergence_matrix(rows, cols, table: DivergenceTable = None) -> np.ndarray:
    """Divergences ``D[i, j] = J(rows[i], cols[j])`` as a float64 array.

    Every entry comes from :func:`stein_divergence`, which is exactly
    symmetric in its arguments and exactly zero for a point paired with
    itself, so the result equals the per-pair loop bit for bit while a
    point paired with itself costs nothing and, when ``rows is cols``,
    only the upper triangle is evaluated and mirrored.  A ``table``
    serves the pairs it holds and computes each of them at most once.
    """
    square = rows is cols
    rows = list(rows)
    cols = rows if square else list(cols)
    divergence = stein_divergence if table is None else table.divergence
    out = np.zeros((len(rows), len(cols)))
    for i, x in enumerate(rows):
        for j in range(i + 1 if square else 0, len(cols)):
            y = cols[j]
            if x is not y:
                out[i, j] = divergence(x, y)
    return out + out.T if square else out


def stein_kernel_value(x: SpdMatrix, y: SpdMatrix, params: KernelParams) -> float:
    """Kernel value ``exp(-sigma * J(x, y))``, in (0, 1]."""
    return float(np.exp(-params.sigma * stein_divergence(x, y)))


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Kernel Gram matrix after the PSD policy has been applied.

    ``clamped_mass`` is the total magnitude of eigenvalues removed by
    the clamp repair, zero when the assembled matrix was already PSD.
    """

    entries: np.ndarray
    clamped_mass: float = 0.0

    def __post_init__(self):
        e = np.ascontiguousarray(self.entries, dtype=np.float64)
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def gram_matrix(points, params: KernelParams, table: DivergenceTable = None) -> GramMatrix:
    """Assemble the kernel Gram matrix over a list of SPD points.

    The kernel is applied to :func:`divergence_matrix` over the points
    (served from ``table`` where it holds the pairs), so the result is
    exactly symmetric with a unit diagonal.  The spectrum is then
    checked: negative eigenvalues below ``-GRAM_PSD_RTOL * lambda_max``
    raise under the strict policy; under the clamp policy all negative
    eigenvalues are zeroed and their total magnitude recorded.  Points
    of mixed dimensions raise :class:`DimensionMismatch` from
    :func:`stein_divergence`.
    """
    points = list(points)
    if not points:
        raise EmptyInput("gram_matrix needs at least one point")
    k = np.exp(-params.sigma * divergence_matrix(points, points, table))

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
