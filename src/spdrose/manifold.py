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
  factor (LAPACK ``dpotrf``) as ``2 * fsum(log(diag(L)))``, which needs
  no eigensolve.  ``math.fsum`` rounds the sum exactly, so it does not
  depend on the order of the diagonal.  Every log-determinant in the
  package, the Stein midpoint's included, goes through that one
  factorization, so a matrix and a content-identical copy get the same
  bits.  It factors a scratch array in place: a point's copy of its own
  array, or a fresh midpoint ``x.half + y.half`` (:attr:`SpdMatrix.half`).
* Matrices whose eigenvalue ratio ``lambda_min / lambda_max`` falls at
  or below ``EIGENVALUE_FLOOR_RTOL`` are rejected instead of silently
  regularized.
* A stack of matrices is checked once (:func:`spd_stack`), with the
  errors of its first failing matrix.
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


def _entry_errors(raw) -> tuple:
    """A float ``(n, d, d)`` stack and, per matrix, the error of its first failed entry check or None.

    The checks are finiteness of every entry, then the asymmetry relative to
    the largest entry (at most ``SYMMETRY_RTOL``), which NaN would pass.
    """
    a = np.asarray(raw, dtype=np.float64)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise NotSquare(f"expected a square matrix, got shape {a.shape[1:]}")
    with np.errstate(invalid="ignore"):  # inf - inf, in a matrix that fails anyway
        peaks = np.abs(a).max(axis=(1, 2))
        gaps = np.abs(a - a.swapaxes(1, 2)).max(axis=(1, 2)) / np.maximum(1.0, peaks)
    return a, [
        NonFiniteEntry("matrix holds a NaN or infinite entry") if not math.isfinite(peak)
        else AsymmetryExceedsTolerance(f"relative asymmetry {gap:.3e} exceeds {SYMMETRY_RTOL:.1e}")
        if gap > SYMMETRY_RTOL else None
        for peak, gap in zip(peaks.tolist(), gaps.tolist())
    ]


def _raise_first(items) -> None:
    """Raise the first exception among ``items``; anything else is passed over."""
    for item in items:
        if isinstance(item, Exception):
            raise item


def _spectrum_error(lo: float, hi: float):
    """The error for a spectrum ``[lo, hi]`` that is not positive or too ill-conditioned, or None."""
    if lo <= 0.0:
        return NotPositiveDefinite(
            f"smallest eigenvalue {lo:.6e} is not positive",
            smallest_eigenvalue=lo,
        )
    if lo <= EIGENVALUE_FLOOR_RTOL * hi:
        return NotPositiveDefinite(
            f"eigenvalue ratio {lo / hi:.3e} at or below the "
            f"{EIGENVALUE_FLOOR_RTOL:.1e} conditioning floor",
            smallest_eigenvalue=lo,
        )


def _cholesky_logdet(a: np.ndarray) -> float:
    """Log-determinant ``2 * fsum(log(diag(L)))`` of an exactly symmetric matrix ``a = L L^T``.

    The sum is exactly rounded, so the diagonal's order does not matter.
    Factors ``a`` in place, overwriting it: pass an array the caller owns,
    never a point's own array (f2py writes even through a read-only one).
    Raises ``NotPositiveDefinite`` when the Cholesky factorization fails.
    """
    # a.T of a C-contiguous a is Fortran-ordered, so f2py hands LAPACK its
    # memory without a copy; by symmetry it holds the same matrix as a.
    factor, info = dpotrf(a.T, 1, 0, 1)  # lower=1, clean=0: only diag(L) is read; overwrite
    if info != 0:
        raise NotPositiveDefinite(f"Cholesky factorization failed (dpotrf info {info})")
    return 2.0 * math.fsum(np.log(factor.diagonal()).tolist())


def matvecs(a: np.ndarray, vectors) -> np.ndarray:
    """Rows ``a @ v``, one per vector, as a ``(len(vectors), len(a))`` array.

    One GEMV per row keeps the bits at any BLAS thread count, while a GEMM
    splits its sums by thread (OpenBLAS 0.3.31 rounds 100 x 200 x 100
    differently at 1 and 2 threads).  Weights, embeddings and the classifier
    build every matrix product here.  Upstream of it,
    ``gram_power``'s product differs between 1 and 2 threads at p = 100 and
    ``eigh`` at p = 150, so weights on pools that large are not invariant.
    """
    out = np.empty((len(vectors), len(a)))
    for i, v in enumerate(vectors):
        out[i] = a @ v
    return out


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
    It is :func:`spd_stack` of a stack of one.  Instances are immutable;
    the wrapped array is read-only.
    """

    array: np.ndarray

    def __post_init__(self):
        (checked,) = spd_stack(np.asarray(self.array, dtype=np.float64)[None])
        object.__setattr__(self, "array", checked.array)

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    @cached_property
    def logdet(self) -> float:
        """Log-determinant from the Cholesky factor of a copy of the array."""
        return _cholesky_logdet(self.array.copy())

    @cached_property
    def half(self) -> np.ndarray:
        """Read-only ``0.5 * array``, from which a Stein midpoint is ``x.half + y.half``.

        Halving is exact, so that sum equals ``(x.array + y.array) * 0.5``
        bit for bit, except where an entry below about 2**-1021 in
        magnitude loses a bit when halved (a subnormal result), or where
        ``x.array + y.array`` overflows.
        """
        return _readonly(0.5 * self.array)

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


def _spd_or_errors(raw) -> list:
    """Each matrix of an ``(n, d, d)`` stack as an :class:`SpdMatrix`, or the error it fails.

    The instances hold read-only views of one exactly symmetrized stack.
    """
    a, out = _entry_errors(raw)
    passed = [i for i, err in enumerate(out) if err is None]
    stack = _readonly(symmetrize(a[passed]))
    spectra = np.linalg.eigvalsh(stack)
    for i, x, lo, hi in zip(passed, stack, spectra[:, 0].tolist(), spectra[:, -1].tolist()):
        out[i] = _spectrum_error(lo, hi)
        if out[i] is None:  # checked: build the instance without __post_init__
            out[i] = object.__new__(SpdMatrix)
            object.__setattr__(out[i], "array", x)
    return out


def spd_stack(arrays) -> list:
    """An :class:`SpdMatrix` for each matrix of an ``(n, d, d)`` stack.

    Runs the checks of :class:`SpdMatrix` with stacked reductions and one
    ``eigvalsh`` call, raising the error of the first failing matrix.
    """
    points = _spd_or_errors(arrays)
    _raise_first(points)
    return points


def _spectral_apply(x: SpdMatrix, fn) -> np.ndarray:
    vals, vecs = x.eigen
    return symmetrize((vecs * fn(vals)) @ vecs.T)


def spd_log(x: SpdMatrix) -> np.ndarray:
    """Matrix logarithm of an SPD matrix; the output is exactly symmetric."""
    return _spectral_apply(x, np.log)


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
        a, errors = _entry_errors(np.asarray(self.value, dtype=np.float64)[None])
        _raise_first(errors)
        if a.shape[1] != self.pole.dim:
            raise DimensionMismatch(
                f"tangent value is {a.shape[1]}x{a.shape[1]} but the pole is "
                f"{self.pole.dim}x{self.pole.dim}"
            )
        object.__setattr__(self, "value", _readonly(symmetrize(a[0])))


def _whitened(pole: SpdMatrix, stack) -> np.ndarray:
    """Exactly symmetric ``pole^{-1/2} a pole^{-1/2}`` for each ``a`` of an ``(n, d, d)`` stack."""
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 3 or stack.shape[1:] != (pole.dim, pole.dim):
        raise DimensionMismatch(
            f"expected a stack of {pole.dim}x{pole.dim} matrices, got shape {stack.shape}"
        )
    isq = pole.inv_sqrt_array
    return symmetrize(isq @ stack @ isq)


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
    inner = _whitened(pole, stack)
    _raise_first(_entry_errors(inner)[1])
    vals, vecs = np.linalg.eigh(inner)
    _raise_first(map(_spectrum_error, vals[:, 0].tolist(), vals[:, -1].tolist()))
    # np.log may round a strided view differently from contiguous input,
    # so take it on the contiguous spectra before reversing their order.
    logs = np.log(vals)[:, ::-1]
    vecs = np.ascontiguousarray(vecs[:, :, ::-1])
    flat = symmetrize((vecs * logs[:, None, :]) @ np.swapaxes(vecs, -1, -2))
    sq = pole.sqrt_array
    values = symmetrize(sq @ flat @ sq)
    _raise_first(_entry_errors(values)[1])
    return values, np.sum(logs * logs, axis=1)


def airm_log_map(pole: SpdMatrix, x: SpdMatrix) -> TangentVector:
    """Tangent-space logarithm of ``x`` at ``pole``.

    Computes ``pole^{1/2} log(pole^{-1/2} x pole^{-1/2}) pole^{1/2}``
    through :func:`airm_log_map_stack` with a stack of one.
    """
    values, _ = airm_log_map_stack(pole, x.array[None])
    return TangentVector(pole, values[0])


def airm_exp_map_stack(pole: SpdMatrix, values: np.ndarray) -> list:
    """Exponential maps at ``pole`` of an ``(n, d, d)`` stack of tangent values.

    Each ``v`` maps to ``pole^{1/2} exp(pole^{-1/2} v pole^{-1/2}) pole^{1/2}``
    by one batched whitening, eigensolve and sandwich.  The results are
    checked as one stack (:func:`spd_stack`), and each has the bits of
    its own stack of one, which is :func:`airm_exp_map`.
    """
    vals, vecs = np.linalg.eigh(_whitened(pole, values))
    expd = symmetrize((vecs * np.exp(vals)[:, None, :]) @ np.swapaxes(vecs, -1, -2))
    sq = pole.sqrt_array
    return spd_stack(symmetrize(sq @ expd @ sq))


def airm_exp_map(tangent: TangentVector) -> SpdMatrix:
    """Inverse of :func:`airm_log_map`:  maps a tangent vector back to the cone.

    Computes ``pole^{1/2} exp(pole^{-1/2} v pole^{-1/2}) pole^{1/2}``
    through :func:`airm_exp_map_stack` with a stack of one.
    """
    return airm_exp_map_stack(tangent.pole, tangent.value[None])[0]


def _metric_norm(pole: SpdMatrix, value: np.ndarray) -> float:
    """Metric norm at ``pole`` of an exactly symmetric tangent ``value``.

    Equals the Frobenius norm of ``pole^{-1/2} value pole^{-1/2}``, which
    is also the geodesic distance from the pole to the exponential of
    ``value``.
    """
    isq = pole.inv_sqrt_array
    return float(np.linalg.norm(isq @ value @ isq, "fro"))


def geodesic_distance_stack(x: SpdMatrix, stack: np.ndarray) -> np.ndarray:
    """Geodesic distances from ``x`` to each SPD array of an ``(n, d, d)`` stack.

    One batched eigenvalue solve of the whitened points; each distance
    has the bits of :func:`geodesic_distance` of its point.
    """
    logs = np.log(np.linalg.eigvalsh(_whitened(x, stack)))
    # One dot product per point: a batched reduction rounds differently.
    return np.sqrt([np.dot(row, row) for row in logs])


def geodesic_distance(x: SpdMatrix, y: SpdMatrix) -> float:
    """Affine-invariant geodesic distance ``sqrt(trace(log^2(x^{-1/2} y x^{-1/2})))``.

    Invariant under congruence by any invertible matrix and under joint
    inversion of both arguments.  Computed by :func:`geodesic_distance_stack`
    with a stack of one.
    """
    if x.dim != y.dim:
        raise DimensionMismatch(f"dimensions differ: {x.dim} vs {y.dim}")
    return float(geodesic_distance_stack(x, y.array[None])[0])
