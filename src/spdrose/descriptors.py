"""Region covariance descriptors of images.

An image is first expanded into a per-pixel feature vector (intensity
and derivative magnitudes, color with gradients and Laplacians, or a
bank of Gabor magnitudes); the image is then cut into an even grid of
cells, and each cell is summarized by the sample covariance of its
feature vectors plus a small trace-proportional ridge, which makes
every descriptor a valid SPD matrix even for flat cells.

Derivatives use central differences ([-1/2, 0, 1/2] and [1, -2, 1])
with replicate padding at the borders.  Gabor filters are complex,
zero-DC corrected, with one-octave bandwidth and an isotropic envelope;
their responses enter as magnitudes.  The bank works in the frequency
domain, and each kernel's spectrum is an outer product of cached 1-D
spectra.  For each wavelength the image is edge-padded by that wavelength's
half-support and transformed once, at a length where the circular wrap misses
the kept window; each filter then costs one spectrum product and one inverse
transform, written into the feature tensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import fft

from .errors import GridTooFine, ImageTooSmall, require_integer
from .manifold import _readonly_copy, spd_stack, symmetrize

RELATIVE_RIDGE = 1e-5
ABSOLUTE_RIDGE = 1e-8

GABOR_WAVELENGTHS = (4.0, 4.0 * math.sqrt(2.0), 8.0, 8.0 * math.sqrt(2.0), 16.0)
GABOR_ORIENTATIONS = 8
GABOR_BANDWIDTH_OCTAVES = 1.0
GABOR_TRUNCATE = 2.5


@dataclass(frozen=True, eq=False)
class _Image:
    """Pixels in [0, 1], of shape (H, W) plus ``_channel_shape``."""

    pixels: np.ndarray
    _channel_shape = ()

    def __post_init__(self):
        a = _readonly_copy(self.pixels)
        if a.ndim < 2 or a.shape[2:] != self._channel_shape:
            raise ValueError(f"pixel array has shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("pixel values must be finite")
        if a.size and (a.min() < 0.0 or a.max() > 1.0):
            raise ValueError("pixel values must lie in [0, 1]")
        object.__setattr__(self, "pixels", a)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


class GrayImage(_Image):
    """Grayscale image with values normalized to [0, 1]."""


class ColorImage(_Image):
    """RGB image with values normalized to [0, 1], shape (H, W, 3)."""

    _channel_shape = (3,)


@dataclass(frozen=True, eq=False)
class FeatureImage:
    """Per-pixel feature tensor of shape (H, W, C) with channel tags."""

    values: np.ndarray
    channel_tags: tuple

    def __post_init__(self):
        v = _readonly_copy(self.values)
        if v.ndim != 3:
            raise ValueError(f"feature tensor has shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("feature values must be finite")
        if v.shape[2] != len(self.channel_tags):
            raise ValueError(
                f"{v.shape[2]} channels but {len(self.channel_tags)} tags"
            )
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "channel_tags", tuple(self.channel_tags))

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


def _derivatives(a):
    """Central differences ``(Ix, Iy, Ixx, Iyy)`` of an (H, W) or (H, W, C) array.

    The array is replicate-padded once along its two image axes; the
    stencils are ``[-1/2, 0, 1/2]`` and ``[1, -2, 1]``, applied to each
    channel of a color array independently.  Raises
    :class:`ImageTooSmall` below 3x3 pixels.
    """
    h, w = a.shape[:2]
    if h < 3 or w < 3:
        raise ImageTooSmall(f"{h}x{w} image; derivative stencils need 3x3")
    p = np.pad(a, ((1, 1), (1, 1)) + ((0, 0),) * (a.ndim - 2), mode="edge")
    left, right = p[1:-1, :-2], p[1:-1, 2:]
    up, down = p[:-2, 1:-1], p[2:, 1:-1]
    return (
        (right - left) / 2.0,
        (down - up) / 2.0,
        right - 2.0 * a + left,
        down - 2.0 * a + up,
    )


def _coordinate_channels(height, width):
    # Normalized to [0, 1]; single-row or single-column images are ruled
    # out by the minimum-size checks before this is called.
    return np.meshgrid(np.arange(width) / (width - 1), np.arange(height) / (height - 1))


def intensity_feature_map(image: GrayImage) -> FeatureImage:
    """Five channels: intensity and absolute first/second derivatives.

    Tag order: ``(I, |Ix|, |Iy|, |Ixx|, |Iyy|)``.
    """
    a = image.pixels
    ix, iy, ixx, iyy = _derivatives(a)
    stack = np.stack([a, np.abs(ix), np.abs(iy), np.abs(ixx), np.abs(iyy)], axis=2)
    return FeatureImage(stack, ("I", "|Ix|", "|Iy|", "|Ixx|", "|Iyy|"))


def color_feature_map(image: ColorImage) -> FeatureImage:
    """Eleven channels: position, RGB, gradient magnitudes, Laplacians.

    Tag order: ``(x, y, R, G, B, R', G', B', R'', G'', B'')`` where the
    primes are the per-channel gradient magnitude and Laplacian, and the
    positions are normalized to [0, 1].
    """
    ix, iy, ixx, iyy = _derivatives(image.pixels)
    x, y = _coordinate_channels(image.height, image.width)
    channels = [x[:, :, None], y[:, :, None], image.pixels, np.hypot(ix, iy), ixx + iyy]
    tags = ("x", "y", "R", "G", "B", "R'", "G'", "B'", "R''", "G''", "B''")
    return FeatureImage(np.concatenate(channels, axis=2), tags)


def _bandwidth_sigma_factor(octaves: float) -> float:
    span = 2.0**octaves
    return math.sqrt(math.log(2.0) / 2.0) / math.pi * (span + 1.0) / (span - 1.0)


@lru_cache(maxsize=None)
def _gabor_factors(u):
    """1-D factors ``(rows, dc)`` of the kernels at ``GABOR_WAVELENGTHS[u]``.

    ``rows`` holds the Gaussian ``e``, then ``e`` times the carrier of each
    orientation ``v * pi / 8`` along x, then along y.  Kernel v, rows along y,
    is ``outer(y_v, x_v) - dc[v] * outer(e, e)``, whose DC response is zero.
    It factors so only because the envelope is isotropic.
    """
    wavelength = GABOR_WAVELENGTHS[u]
    sigma = wavelength * _bandwidth_sigma_factor(GABOR_BANDWIDTH_OCTAVES)
    half = int(math.ceil(GABOR_TRUNCATE * sigma))
    t = np.arange(-half, half + 1)
    e = np.exp(-(t**2) / (2.0 * sigma**2))
    theta = np.arange(GABOR_ORIENTATIONS)[:, None] * math.pi / GABOR_ORIENTATIONS
    carrier = 1j * (2.0 * math.pi / wavelength) * t
    xs, ys = e * np.exp(np.cos(theta) * carrier), e * np.exp(np.sin(theta) * carrier)
    rows = np.vstack([e, xs, ys])
    rows.setflags(write=False)  # cached, so shared by every caller
    return rows, tuple(xs.sum(axis=1) * ys.sum(axis=1) / e.sum() ** 2)


@lru_cache(maxsize=64)
def _factor_spectra(u, n):
    """Length-``n`` spectra of the rows of ``_gabor_factors(u)``."""
    spectra = fft.fft(_gabor_factors(u)[0], n)
    spectra.setflags(write=False)
    return spectra


def gabor_support() -> int:
    """Side length of the largest filter in the default Gabor bank."""
    return max(_gabor_factors(u)[0].shape[1] for u in range(len(GABOR_WAVELENGTHS)))


def gabor_feature_map(image: GrayImage) -> FeatureImage:
    """43 channels: intensity, position, and 40 Gabor magnitudes.

    The bank spans the five wavelengths ``GABOR_WAVELENGTHS`` by eight
    orientations ``v * pi / 8``; channel order is intensity, normalized
    x, normalized y, then scale-major magnitudes ``|G_uv|``.
    """
    support = gabor_support()
    h, w = image.height, image.width
    if h < support or w < support:
        raise ImageTooSmall(
            f"{h}x{w} image is smaller than the {support}x{support} filter support"
        )
    n = GABOR_ORIENTATIONS
    values = np.empty((h, w, 3 + len(GABOR_WAVELENGTHS) * n))
    values[:, :, 0] = image.pixels
    values[:, :, 1], values[:, :, 2] = _coordinate_channels(h, w)
    for u in range(len(GABOR_WAVELENGTHS)):
        rows, dc = _gabor_factors(u)
        # Pixel (r, c) is output (r + at, c + at): padding plus kernel half.  No
        # transform is shorter than the padded image, so no wrap reaches the window.
        at = rows.shape[1] - 1
        fy, fx = (_factor_spectra(u, fft.next_fast_len(m + at)) for m in (h, w))
        padded = np.pad(image.pixels, at // 2, mode="edge")
        spectrum = fft.fft2(padded, s=(fy.shape[1], fx.shape[1]))
        envelope = spectrum * fy[0, :, None] * fx[0]
        product, correction = np.empty_like(spectrum), np.empty_like(spectrum)
        for v, d in enumerate(dc):
            np.multiply(spectrum, fy[1 + n + v, :, None], out=product)
            product *= fx[1 + v]
            product -= np.multiply(envelope, d, out=correction)
            response = fft.ifft2(product, overwrite_x=True)[at : at + h, at : at + w]
            np.abs(response, out=values[:, :, 3 + n * u + v])
    tags = [f"|G_{u}{v}|" for u in range(len(GABOR_WAVELENGTHS)) for v in range(n)]
    values.setflags(write=False)  # so FeatureImage keeps it without a copy
    return FeatureImage(values, ("I", "x", "y", *tags))


def _covariance(block: np.ndarray) -> np.ndarray:
    """Shrunk sample covariance of the feature vectors of an (h, w, C) block."""
    channels = block.shape[2]
    flat = block.reshape(-1, channels)
    deviations = flat - flat.mean(axis=0)
    cov = symmetrize(deviations.T @ deviations) / (flat.shape[0] - 1)
    ridge = RELATIVE_RIDGE * float(np.trace(cov)) / channels + ABSOLUTE_RIDGE
    return cov + ridge * np.eye(channels)


def grid_covariances(feature_image: FeatureImage, rows: int, cols: int):
    """Covariance descriptors of an even rows-by-cols partition.

    Cells are ``H // rows`` by ``W // cols`` pixels; remainder pixels
    are folded into the last row and column.  Each cell's descriptor is
    ``cov`` plus the fixed ridge ``(1e-5 * trace(cov) / C + 1e-8) * I``,
    with ``cov`` the unbiased (1/(N-1)) sample covariance of its N
    feature vectors, so flat cells yield ``1e-8 * I`` rather than a
    singular matrix.  Cells are emitted in row-major order.
    """
    rows = require_integer(rows, "rows", least=1)
    cols = require_integer(cols, "cols", least=1)
    h, w = feature_image.height, feature_image.width
    h0, w0 = h // rows, w // cols
    if h0 < 1 or w0 < 1 or h0 * w0 < 2:
        raise GridTooFine(
            f"{rows}x{cols} grid over a {h}x{w} image leaves cells below 2 pixels"
        )
    out = []
    for r in range(rows):
        y1 = (r + 1) * h0 if r < rows - 1 else h
        for c in range(cols):
            x1 = (c + 1) * w0 if c < cols - 1 else w
            cell = feature_image.values[r * h0 : y1, c * w0 : x1]
            out.append(_covariance(cell))
    return spd_stack(out)


def box_downsample(pixels: np.ndarray, factor: int) -> np.ndarray:
    """Average non-overlapping ``factor x factor`` blocks.

    Trailing rows/columns that do not fill a block are dropped.  Works
    for both gray (H, W) and color (H, W, 3) arrays.
    """
    factor = require_integer(factor, "factor", least=1)
    a = np.asarray(pixels, dtype=np.float64)
    if factor == 1:
        return a
    h = (a.shape[0] // factor) * factor
    w = (a.shape[1] // factor) * factor
    if h == 0 or w == 0:
        raise ImageTooSmall(f"image too small to downsample by {factor}")
    a = a[:h, :w]
    return a.reshape(h // factor, factor, w // factor, factor, *a.shape[2:]).mean(axis=(1, 3))
