"""Geometry of symmetric positive definite matrices.

SPD matrices of a fixed size form an open cone inside the symmetric
matrices.  Under the affine-invariant Riemannian metric the cone carries
closed-form tangent maps and geodesic distances, all of which reduce to
symmetric eigendecompositions.  This module provides the validated
matrix type plus the matrix functions and tangent-space operations that
the rest of the package builds on.

Conventions
-----------
* Eigendecomposition (``numpy.linalg.eigh``) is the single numeric
  backend for matrix functions; no Cholesky or Schur path is mixed in.
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
    """Exactly symmetric part ``(a + a.T) / 2`` of a square array."""
    return (a + a.T) / 2.0


def _as_square(raw) -> np.ndarray:
    a = np.asarray(raw, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {a.shape}")
    return a


def _relative_asymmetry(a: np.ndarray) -> float:
    """Asymmetry relative to the largest entry; NaN or inf is rejected first.

    NaN fails every comparison the callers make, so without the check a
    non-finite matrix would pass them all.
    """
    peak = float(np.abs(a).max()) if a.size else 0.0
    if not math.isfinite(peak):
        raise NonFiniteEntry("matrix holds a NaN or infinite entry")
    return float(np.abs(a - a.T).max()) / max(1.0, peak)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class EigenPair:
    """Spectral factorization ``U diag(w) U^T`` with eigenvalues descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


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
        a = _as_square(self.array)
        gap = _relative_asymmetry(a)
        if gap > SYMMETRY_RTOL:
            raise AsymmetryExceedsTolerance(
                f"relative asymmetry {gap:.3e} exceeds {SYMMETRY_RTOL:.1e}"
            )
        a = _readonly(symmetrize(a))
        vals = np.linalg.eigvalsh(a)
        lo, hi = float(vals[0]), float(vals[-1])
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
        object.__setattr__(self, "array", a)
        object.__setattr__(self, "_eigvals", _readonly(vals))

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    @cached_property
    def logdet(self) -> float:
        """Log-determinant as the sum of log-eigenvalues."""
        return float(np.sum(np.log(self._eigvals)))

    @cached_property
    def eigen(self) -> EigenPair:
        vals, vecs = np.linalg.eigh(self.array)
        return EigenPair(_readonly(vals[::-1]), _readonly(vecs[:, ::-1]))

    @cached_property
    def sqrt_array(self) -> np.ndarray:
        return _readonly(_spectral_apply(self, np.sqrt))

    @cached_property
    def inv_sqrt_array(self) -> np.ndarray:
        return _readonly(_spectral_apply(self, lambda w: 1.0 / np.sqrt(w)))

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"SpdMatrix(dim={self.dim})"


def validate_spd(raw, tol: float = SYMMETRY_RTOL) -> SpdMatrix:
    """Validate a raw square array as SPD and wrap it.

    Parameters
    ----------
    raw : array-like of shape (d, d)
        Candidate matrix.
    tol : float
        Relative asymmetry accepted before rejection.  Inputs within
        tolerance are replaced by their exact symmetric part.

    Returns
    -------
    SpdMatrix

    Raises
    ------
    NotSquare, NonFiniteEntry, AsymmetryExceedsTolerance, NotPositiveDefinite
    """
    a = _as_square(raw)
    gap = _relative_asymmetry(a)
    if gap > tol:
        raise AsymmetryExceedsTolerance(
            f"relative asymmetry {gap:.3e} exceeds tolerance {tol:.1e}"
        )
    return SpdMatrix(symmetrize(a))


def _spectral_apply(x: SpdMatrix, fn) -> np.ndarray:
    pair = x.eigen
    transformed = fn(pair.eigenvalues)
    out = (pair.eigenvectors * transformed) @ pair.eigenvectors.T
    return symmetrize(out)


def spd_log(x: SpdMatrix) -> np.ndarray:
    """Matrix logarithm of an SPD matrix; the output is exactly symmetric."""
    return _spectral_apply(x, np.log)


def spd_exp(s, tol: float = SYMMETRY_RTOL) -> SpdMatrix:
    """Matrix exponential of a symmetric matrix, returned as SPD.

    Parameters
    ----------
    s : array-like of shape (d, d)
        Symmetric matrix (checked against ``tol`` relative asymmetry).
    """
    a = _as_square(s)
    gap = _relative_asymmetry(a)
    if gap > tol:
        raise AsymmetryExceedsTolerance(
            f"relative asymmetry {gap:.3e} exceeds tolerance {tol:.1e}"
        )
    a = symmetrize(a)
    vals, vecs = np.linalg.eigh(a)
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
        v = _as_square(self.value)
        if v.shape[0] != self.pole.dim:
            raise DimensionMismatch(
                f"tangent value is {v.shape[0]}x{v.shape[0]} but the pole is "
                f"{self.pole.dim}x{self.pole.dim}"
            )
        gap = _relative_asymmetry(v)
        if gap > SYMMETRY_RTOL:
            raise AsymmetryExceedsTolerance(
                f"tangent value asymmetry {gap:.3e} exceeds {SYMMETRY_RTOL:.1e}"
            )
        object.__setattr__(self, "value", _readonly(symmetrize(v)))

    @property
    def dim(self) -> int:
        return self.pole.dim


def _check_same_dim(x: SpdMatrix, y: SpdMatrix):
    if x.dim != y.dim:
        raise DimensionMismatch(f"dimensions differ: {x.dim} vs {y.dim}")


def airm_log_map(pole: SpdMatrix, x: SpdMatrix) -> TangentVector:
    """Tangent-space logarithm of ``x`` at ``pole``.

    Computes ``pole^{1/2} log(pole^{-1/2} x pole^{-1/2}) pole^{1/2}``.
    """
    _check_same_dim(pole, x)
    isq = pole.inv_sqrt_array
    sq = pole.sqrt_array
    inner = SpdMatrix(symmetrize(isq @ x.array @ isq))
    value = symmetrize(sq @ spd_log(inner) @ sq)
    return TangentVector(pole, value)


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


def geodesic_distance_sq(x: SpdMatrix, y: SpdMatrix) -> float:
    """Squared geodesic distance ``trace(log^2(x^{-1/2} y x^{-1/2}))``."""
    _check_same_dim(x, y)
    isq = x.inv_sqrt_array
    inner = symmetrize(isq @ y.array @ isq)
    vals = np.linalg.eigvalsh(inner)
    logs = np.log(vals)
    return float(np.dot(logs, logs))


def geodesic_distance(x: SpdMatrix, y: SpdMatrix) -> float:
    """Geodesic distance under the affine-invariant metric.

    Invariant under congruence by any invertible matrix and under joint
    inversion of both arguments.
    """
    return float(np.sqrt(geodesic_distance_sq(x, y)))
