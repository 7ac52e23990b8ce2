"""Geometry of symmetric positive definite matrices.

SPD matrices of a fixed size form an open cone inside the symmetric
matrices.  Under the affine-invariant Riemannian metric the cone carries
closed-form tangent maps and geodesic distances, all of which reduce to
symmetric eigendecompositions.  This module provides the validated
matrix type plus the matrix functions and tangent-space operations that
the rest of the package builds on.

Conventions
-----------
* Eigendecomposition (``numpy.linalg.eigh``) is the numeric backend for
  matrix functions, spectra and the conditioning-floor check.
* Log-determinants are the one exception: they come from a Cholesky
  factor (LAPACK ``dpotrf``) as ``2 * sum(log(diag(L)))``, which needs
  no eigensolve.  Every log-determinant in the package, the Stein
  midpoint's included, goes through that one factorization, so a
  matrix and a content-identical copy get the same bits.
* Matrices whose eigenvalue ratio ``lambda_min / lambda_max`` falls at
  or below ``EIGENVALUE_FLOOR_RTOL`` are rejected instead of silently
  regularized.
* All operations are pure: identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dpotrf

from .errors import (
    AsymmetryExceedsTolerance,
    DimensionMismatch,
    NonFiniteEntry,
    NotPositiveDefinite,
    NotSquare,
)

SYMMETRY_RTOL = 1e-10
EIGENVALUE_FLOOR_RTOL = 1e-12


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Exactly symmetric part ``(a + a.T) / 2`` of a square array or of each in a stack."""
    return (a + a.swapaxes(-1, -2)) / 2.0


def _finite_peak(a: np.ndarray) -> float:
    """Largest entry magnitude; NaN or inf raises ``NonFiniteEntry``.

    NaN fails every comparison the callers make, so without the check a
    non-finite matrix would pass them all.
    """
    peak = float(np.abs(a).max()) if a.size else 0.0
    if not math.isfinite(peak):
        raise NonFiniteEntry("matrix holds a NaN or infinite entry")
    return peak


def _symmetric(raw) -> np.ndarray:
    """The exact symmetric part of a square, finite, nearly symmetric matrix.

    Checks, in order, squareness, finiteness of every entry and the
    asymmetry relative to the largest entry (at most ``SYMMETRY_RTOL``).
    """
    a = np.asarray(raw, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {a.shape}")
    peak = _finite_peak(a)
    gap = float(np.abs(a - a.T).max()) / max(1.0, peak)
    if gap > SYMMETRY_RTOL:
        raise AsymmetryExceedsTolerance(
            f"relative asymmetry {gap:.3e} exceeds {SYMMETRY_RTOL:.1e}"
        )
    return symmetrize(a)


def _check_spectrum(lo: float, hi: float) -> None:
    """Reject a spectrum ``[lo, hi]`` that is not positive or too ill-conditioned."""
    if lo <= 0.0:
        raise NotPositiveDefinite(
            f"smallest eigenvalue {lo:.6e} is not positive",
            smallest_eigenvalue=lo,
        )
    if lo <= EIGENVALUE_FLOOR_RTOL * hi:
        raise NotPositiveDefinite(
            f"eigenvalue ratio {lo / hi:.3e} at or below the "
            f"{EIGENVALUE_FLOOR_RTOL:.1e} conditioning floor",
            smallest_eigenvalue=lo,
        )


def _cholesky_logdet(a: np.ndarray) -> float:
    """Log-determinant ``2 * sum(log(diag(L)))`` of a symmetric matrix ``a = L L^T``.

    Raises ``NotPositiveDefinite`` when the Cholesky factorization
    breaks down.
    """
    factor, info = dpotrf(a, 1, 0)  # lower=1, clean=0: only diag(L) is read
    if info != 0:
        raise NotPositiveDefinite(f"Cholesky factorization failed (dpotrf info {info})")
    return 2.0 * float(np.add.reduce(np.log(factor.diagonal())))


def _readonly(a, dtype=np.float64) -> np.ndarray:
    a = np.asarray(a, dtype=dtype, order="C")
    a.setflags(write=False)
    return a


def _readonly_copy(a, dtype=np.float64) -> np.ndarray:
    """What a value type stores of a caller's array: a read-only array, copied
    first when the input is writable, so the caller's own array stays writable."""
    if isinstance(a, np.ndarray) and a.flags.writeable:
        a = a.astype(dtype, order="C")
    return _readonly(a, dtype)


@dataclass(frozen=True, eq=False)
class SpdMatrix:
    """A validated symmetric positive definite matrix.

    Construction symmetrizes the input exactly and checks, in order,
    squareness, finiteness of every entry, symmetry (relative tolerance
    ``SYMMETRY_RTOL``), strict positivity of the spectrum, and the
    conditioning floor ``lambda_min > EIGENVALUE_FLOOR_RTOL * lambda_max``.
    Instances are immutable; the wrapped array is read-only.
    """

    array: np.ndarray

    def __post_init__(self):
        a = _readonly(_symmetric(self.array))
        vals = np.linalg.eigvalsh(a)
        _check_spectrum(float(vals[0]), float(vals[-1]))
        object.__setattr__(self, "array", a)

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    @cached_property
    def logdet(self) -> float:
        """Log-determinant from the Cholesky factor of the array."""
        return _cholesky_logdet(self.array)

    @cached_property
    def eigen(self) -> tuple:
        """``(values, vectors)`` of ``U diag(w) U^T``, eigenvalues descending."""
        vals, vecs = np.linalg.eigh(self.array)
        return _readonly(vals[::-1]), _readonly(vecs[:, ::-1])

    @cached_property
    def sqrt_array(self) -> np.ndarray:
        return _readonly(_spectral_apply(self, np.sqrt))

    @cached_property
    def inv_sqrt_array(self) -> np.ndarray:
        return _readonly(_spectral_apply(self, lambda w: 1.0 / np.sqrt(w)))

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"SpdMatrix(dim={self.dim})"


def _spectral_apply(x: SpdMatrix, fn) -> np.ndarray:
    vals, vecs = x.eigen
    return symmetrize((vecs * fn(vals)) @ vecs.T)


def spd_log(x: SpdMatrix) -> np.ndarray:
    """Matrix logarithm of an SPD matrix; the output is exactly symmetric."""
    return _spectral_apply(x, np.log)


def spd_exp(s) -> SpdMatrix:
    """Matrix exponential of a symmetric matrix, returned as SPD.

    Parameters
    ----------
    s : array-like of shape (d, d)
        Symmetric matrix (checked against ``SYMMETRY_RTOL`` relative asymmetry).
    """
    vals, vecs = np.linalg.eigh(_symmetric(s))
    out = (vecs * np.exp(vals)) @ vecs.T
    return SpdMatrix(symmetrize(out))


def spd_power(x: SpdMatrix, exponent: float) -> SpdMatrix:
    """Real matrix power ``x**exponent`` through the spectrum."""
    c = float(exponent)
    return SpdMatrix(_spectral_apply(x, lambda w: w**c))


@dataclass(frozen=True, eq=False)
class TangentVector:
    """A symmetric matrix attached to a pole on the manifold."""

    pole: SpdMatrix
    value: np.ndarray

    def __post_init__(self):
        v = _symmetric(self.value)
        if v.shape[0] != self.pole.dim:
            raise DimensionMismatch(
                f"tangent value is {v.shape[0]}x{v.shape[0]} but the pole is "
                f"{self.pole.dim}x{self.pole.dim}"
            )
        object.__setattr__(self, "value", _readonly(v))

    @property
    def dim(self) -> int:
        return self.pole.dim


def airm_log_map_stack(pole: SpdMatrix, stack: np.ndarray):
    """Tangent-space logarithms at ``pole`` of a stack of SPD arrays.

    For each ``x`` of the ``(n, d, d)`` stack computes
    ``pole^{1/2} log(pole^{-1/2} x pole^{-1/2}) pole^{1/2}`` from one
    batched eigensolve of the whitened points, whose spectra also give
    the squared geodesic distances ``sum(log(w)^2)``.  Each whitened
    point gets the checks of :class:`SpdMatrix` (finite entries, a
    positive spectrum above the conditioning floor) and each tangent
    the finiteness check of :class:`TangentVector`, with the same
    errors.  Eigenpairs are taken in descending order, as in
    :attr:`SpdMatrix.eigen`, so one point gives the bits of the
    single-matrix path.

    Returns
    -------
    (ndarray of shape (n, d, d), ndarray of shape (n,))
        Exactly symmetric tangent values and squared distances.
    """
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 3 or stack.shape[1:] != (pole.dim, pole.dim):
        raise DimensionMismatch(
            f"expected a stack of {pole.dim}x{pole.dim} matrices, got shape {stack.shape}"
        )
    isq = pole.inv_sqrt_array
    sq = pole.sqrt_array
    inner = symmetrize(isq @ stack @ isq)
    _finite_peak(inner)
    vals, vecs = np.linalg.eigh(inner)
    for lo, hi in zip(vals[:, 0].tolist(), vals[:, -1].tolist()):
        _check_spectrum(lo, hi)
    # np.log may round a strided view differently from contiguous input,
    # so take it on the contiguous spectra before reversing their order.
    logs = np.log(vals)[:, ::-1]
    vecs = np.ascontiguousarray(vecs[:, :, ::-1])
    flat = symmetrize((vecs * logs[:, None, :]) @ np.swapaxes(vecs, -1, -2))
    values = symmetrize(sq @ flat @ sq)
    _finite_peak(values)
    return values, np.sum(logs * logs, axis=1)


def airm_log_map(pole: SpdMatrix, x: SpdMatrix) -> TangentVector:
    """Tangent-space logarithm of ``x`` at ``pole``.

    Computes ``pole^{1/2} log(pole^{-1/2} x pole^{-1/2}) pole^{1/2}``
    through :func:`airm_log_map_stack` with a stack of one.
    """
    values, _ = airm_log_map_stack(pole, x.array[None])
    return TangentVector(pole, values[0])


def airm_exp_map(tangent: TangentVector) -> SpdMatrix:
    """Inverse of :func:`airm_log_map`:  maps a tangent vector back to the cone.

    Computes ``pole^{1/2} exp(pole^{-1/2} v pole^{-1/2}) pole^{1/2}``.
    """
    pole = tangent.pole
    isq = pole.inv_sqrt_array
    sq = pole.sqrt_array
    inner = symmetrize(isq @ tangent.value @ isq)
    vals, vecs = np.linalg.eigh(inner)
    expd = symmetrize((vecs * np.exp(vals)) @ vecs.T)
    return SpdMatrix(symmetrize(sq @ expd @ sq))


def airm_norm(tangent: TangentVector) -> float:
    """Metric norm of a tangent vector at its pole.

    Equals the Frobenius norm of ``pole^{-1/2} v pole^{-1/2}``, which is
    also the geodesic distance from the pole to the exponential of the
    vector.
    """
    isq = tangent.pole.inv_sqrt_array
    return float(np.linalg.norm(isq @ tangent.value @ isq, "fro"))


def geodesic_distance(x: SpdMatrix, y: SpdMatrix) -> float:
    """Affine-invariant geodesic distance ``sqrt(trace(log^2(x^{-1/2} y x^{-1/2})))``.

    Invariant under congruence by any invertible matrix and under joint
    inversion of both arguments.
    """
    if x.dim != y.dim:
        raise DimensionMismatch(f"dimensions differ: {x.dim} vs {y.dim}")
    isq = x.inv_sqrt_array
    inner = symmetrize(isq @ y.array @ isq)
    logs = np.log(np.linalg.eigvalsh(inner))
    return float(np.sqrt(np.dot(logs, logs)))
