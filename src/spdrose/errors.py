"""Exception types shared across the library.

Every error raised on purpose by this package derives from
:class:`SpdRoseError`, so callers can catch the whole family with one
``except`` clause.  A rejected value, such as a kernel width, a
synthetic count or a config field, raises :class:`ConfigError` where it
is checked; it is also a ``ValueError``.  The command line exits 2 on a
``ConfigError`` and 3 on any other ``SpdRoseError``, a data error; no
other exception type is meant to reach it.
"""

import math
import numbers

import numpy as np


class SpdRoseError(Exception):
    """Base class for all library-specific errors."""


class NotSquare(SpdRoseError):
    """Input matrix is not square."""


class NonFiniteEntry(SpdRoseError):
    """A matrix, or a computed embedding or score, holds a NaN or infinite entry."""


class AsymmetryExceedsTolerance(SpdRoseError):
    """Matrix asymmetry exceeds the accepted relative tolerance."""


class NotPositiveDefinite(SpdRoseError):
    """Matrix is not positive definite (or too ill-conditioned to treat as such)."""

    def __init__(self, message, smallest_eigenvalue=None):
        super().__init__(message)
        self.smallest_eigenvalue = smallest_eigenvalue


class DimensionMismatch(SpdRoseError):
    """Operands have incompatible dimensions, or points and labels differ in number."""


class IndefiniteKernel(SpdRoseError):
    """Kernel Gram matrix has a significantly negative eigenvalue under strict policy."""

    def __init__(self, message, smallest_eigenvalue=None, sigma=None):
        super().__init__(message)
        self.smallest_eigenvalue = smallest_eigenvalue
        self.sigma = sigma


class EmptyInput(SpdRoseError):
    """An operation received fewer input points than it requires."""


class NonConvergence(SpdRoseError):
    """Iteration hit its step limit before meeting the stopping rule.

    Carries the last iterate and the final residual so the caller can
    decide whether the partial result is still usable.
    """

    def __init__(self, message, iterate=None, residual=None, iterations=None):
        super().__init__(message)
        self.iterate = iterate
        self.residual = residual
        self.iterations = iterations


class DegenerateDirection(SpdRoseError):
    """A sampled direction point coincides with the pole."""


class TSampleTooLarge(SpdRoseError):
    """Requested exemplar subset size exceeds the reference pool."""


class ImageTooSmall(SpdRoseError):
    """Image is smaller than an operation's minimum support."""


class GridTooFine(SpdRoseError):
    """Requested grid produces cells below the two pixels a covariance needs."""


class SingleClass(SpdRoseError):
    """Training data contains only one class."""


class EmptyData(SpdRoseError):
    """A dataset, training set or evaluation set is empty."""


class ParseError(SpdRoseError):
    """A file could not be parsed; the message names the offending path."""


class ExclusionExceedsClasses(SpdRoseError):
    """A degradation study asked to exclude at least as many classes as exist."""


class ConfigError(SpdRoseError, ValueError):
    """A configuration value, parameter or manifest field is rejected."""


class StageFailure(SpdRoseError):
    """A pipeline stage failed; tagged with repetition index and stage name.

    The original error is chained as ``__cause__``.
    """

    def __init__(self, message, repetition=None, stage=None):
        super().__init__(message)
        self.repetition = repetition
        self.stage = stage


def require_integer(value, name, least=None) -> int:
    """``value`` as a Python ``int``, which JSON can write; :class:`ConfigError`
    unless an integer (a ``bool`` is not) of at least ``least``, when given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if least is not None and value < least:
        raise ConfigError(f"{name} must be at least {least}, got {value}")
    return value


def require_integer_array(values, name) -> np.ndarray:
    """``values`` as an int64 array; :class:`ConfigError` unless of an integer dtype (not bool)."""
    array = np.asarray(values)
    if array.dtype.kind not in "iu":
        raise ConfigError(f"{name} must be integers, got {array.dtype} values")
    return array.astype(np.int64)


def require_choice(value, name, choices) -> str:
    """``value``; :class:`ConfigError` unless a string among ``choices``."""
    if not (isinstance(value, str) and value in choices):
        raise ConfigError(f"{name} must be one of {sorted(choices)}, got {value!r}")
    return value


def require_real(value, name, nonnegative=False, below=math.inf) -> float:
    """``value`` as a float; :class:`ConfigError` unless a real number (not a bool)
    above 0, or at least 0 when ``nonnegative``, and below ``below``.

    NaN and infinities never pass.
    """
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and (0 <= value if nonnegative else 0 < value) and value < below):
        low = "nonnegative" if nonnegative else "positive"
        bounds = f"{low} and finite" if below == math.inf else f"{low} and below {below}"
        raise ConfigError(f"{name} must be {bounds}, got {value!r}")
    return float(value)


def require_positive(value, name) -> float:
    """``value`` as a float; :class:`ConfigError` unless a positive, finite real (not a bool)."""
    return require_real(value, name)
