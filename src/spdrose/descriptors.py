"""Region covariance descriptors of images.

An image is first expanded into a per-pixel feature vector (intensity
and derivative magnitudes, color with gradients and Laplacians, or a
bank of Gabor magnitudes); a region of the image is then summarized by
the sample covariance of its feature vectors plus a small
trace-proportional ridge, which makes every descriptor a valid SPD
matrix even for flat regions.

Derivatives use central differences ([-1/2, 0, 1/2] and [1, -2, 1])
with replicate padding at the borders.  Gabor filters are complex,
zero-DC corrected, with one-octave bandwidth; their responses enter as
magnitudes.  The bank works in the frequency domain: the image is
edge-padded by half the largest support and transformed once, at a length
where the circular wrap misses the kept window; each filter then costs one
spectrum product and one inverse transform, written into the feature tensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import fft

from .errors import GridTooFine, ImageTooSmall, RegionTooSmall
from .manifold import SpdMatrix, symmetrize

DEFAULT_EPS_REL = 1e-5
ABSOLUTE_RIDGE = 1e-8

GABOR_WAVELENGTHS = (4.0, 4.0 * math.sqrt(2.0), 8.0, 8.0 * math.sqrt(2.0), 16.0)
GABOR_ORIENTATIONS = 8
GABOR_BANDWIDTH_OCTAVES = 1.0
GABOR_ASPECT = 1.0
GABOR_TRUNCATE = 2.5


def _check_pixels(pixels, channels):
    a = np.asarray(pixels, dtype=np.float64)
    expected = 2 if channels is None else 3
    if a.ndim != expected or (channels is not None and a.shape[2] != channels):
        raise ValueError(f"pixel array has shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("pixel values must be finite")
    if a.size and (a.min() < 0.0 or a.max() > 1.0):
        raise ValueError("pixel values must lie in [0, 1]")
    a = a.copy() if a.flags.writeable else a  # the caller's array stays writable
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class GrayImage:
    """Grayscale image with values normalized to [0, 1]."""

    pixels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pixels", _check_pixels(self.pixels, None))

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True, eq=False)
class ColorImage:
    """RGB image with values normalized to [0, 1], shape (H, W, 3)."""

    pixels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pixels", _check_pixels(self.pixels, 3))

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True, eq=False)
class FeatureImage:
    """Per-pixel feature tensor of shape (H, W, C) with channel tags."""

    values: np.ndarray
    channel_tags: tuple

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 3:
            raise ValueError(f"feature tensor has shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("feature values must be finite")
        if v.shape[2] != len(self.channel_tags):
            raise ValueError(
                f"{v.shape[2]} channels but {len(self.channel_tags)} tags"
            )
        v = v.copy() if v.flags.writeable else v  # the caller's array stays writable
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "channel_tags", tuple(self.channel_tags))

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def channels(self) -> int:
        return self.values.shape[2]


@dataclass(frozen=True)
class RegionSpec:
    """Inclusive pixel bounds of a rectangular region."""

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self):
        if min(self.x0, self.y0, self.x1, self.y1) < 0:
            raise ValueError("region bounds must be nonnegative")
        if self.x1 < self.x0 or self.y1 < self.y0:
            raise ValueError("region bounds must be ordered")
        if self.area < 2:
            raise RegionTooSmall(
                f"region holds {self.area} pixel(s); need at least 2"
            )

    @property
    def width(self) -> int:
        return self.x1 - self.x0 + 1

    @property
    def height(self) -> int:
        return self.y1 - self.y0 + 1

    @property
    def area(self) -> int:
        return self.width * self.height


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
    x = np.tile(np.arange(width) / (width - 1), (height, 1))
    y = np.tile((np.arange(height) / (height - 1))[:, None], (1, width))
    return x, y


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


def _gabor_kernel(wavelength, theta):
    sigma = wavelength * _bandwidth_sigma_factor(GABOR_BANDWIDTH_OCTAVES)
    half = int(math.ceil(GABOR_TRUNCATE * sigma))
    y, x = np.mgrid[-half : half + 1, -half : half + 1]
    xr = x * math.cos(theta) + y * math.sin(theta)
    yr = -x * math.sin(theta) + y * math.cos(theta)
    envelope = np.exp(-(xr**2 + (GABOR_ASPECT * yr) ** 2) / (2.0 * sigma**2))
    kernel = envelope * np.exp(1j * (2.0 * math.pi / wavelength) * xr)
    # Zero-DC correction: remove the envelope-weighted mean so a constant
    # image produces (numerically) zero response.
    kernel = kernel - (kernel.sum() / envelope.sum()) * envelope
    return kernel


@lru_cache(maxsize=1)
def _gabor_bank():
    """The default bank's kernels, wavelength-major."""
    bank = []
    for wl in GABOR_WAVELENGTHS:
        for v in range(GABOR_ORIENTATIONS):
            bank.append(_gabor_kernel(wl, v * math.pi / GABOR_ORIENTATIONS))
    return tuple(bank)


def gabor_support() -> int:
    """Side length of the largest filter in the default Gabor bank."""
    return max(kernel.shape[0] for kernel in _gabor_bank())


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
    bank = _gabor_bank()
    values = np.empty((h, w, 3 + len(bank)))
    values[:, :, 0] = image.pixels
    values[:, :, 1], values[:, :, 2] = _coordinate_channels(h, w)
    half = support // 2
    padded = np.pad(image.pixels, half, mode="edge")
    # No shorter than the padded image, so no wrap reaches the kept window.
    shape = (fft.next_fast_len(h + 2 * half), fft.next_fast_len(w + 2 * half))
    spectrum = fft.fft2(padded, s=shape)
    for i, kernel in enumerate(bank):
        # Pixel (r, c) is output (r + at, c + at): padding plus kernel half.
        at = half + kernel.shape[0] // 2
        response = fft.ifft2(spectrum * fft.fft2(kernel, s=shape))
        np.abs(response[at : at + h, at : at + w], out=values[:, :, 3 + i])
    tags = ["I", "x", "y"]
    for u in range(len(GABOR_WAVELENGTHS)):
        tags.extend(f"|G_{u}{v}|" for v in range(GABOR_ORIENTATIONS))
    values.setflags(write=False)  # so FeatureImage keeps it without a copy
    return FeatureImage(values, tuple(tags))


def region_covariance(
    feature_image: FeatureImage, region: RegionSpec, eps_rel: float = DEFAULT_EPS_REL
) -> SpdMatrix:
    """Shrunk sample covariance of the feature vectors inside a region.

    The estimate is ``cov + (eps_rel * trace(cov) / C + 1e-8) * I`` with
    the unbiased (1/(N-1)) sample covariance, so flat regions yield
    ``1e-8 * I`` rather than a singular matrix.
    """
    if region.x1 >= feature_image.width or region.y1 >= feature_image.height:
        raise ValueError(
            f"region {region} exceeds the {feature_image.height}"
            f"x{feature_image.width} feature image"
        )
    block = feature_image.values[
        region.y0 : region.y1 + 1, region.x0 : region.x1 + 1, :
    ]
    flat = block.reshape(-1, feature_image.channels)
    deviations = flat - flat.mean(axis=0)
    cov = symmetrize(deviations.T @ deviations) / (flat.shape[0] - 1)
    ridge = eps_rel * float(np.trace(cov)) / feature_image.channels + ABSOLUTE_RIDGE
    return SpdMatrix(cov + ridge * np.eye(feature_image.channels))


def grid_covariances(
    feature_image: FeatureImage,
    rows: int,
    cols: int,
    eps_rel: float = DEFAULT_EPS_REL,
):
    """Covariance descriptors of an even rows-by-cols partition.

    Cell bounds are ``H // rows`` and ``W // cols``; remainder pixels
    are folded into the last row and column.  Cells are emitted in
    row-major order.
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid must have at least one row and one column")
    h0 = feature_image.height // rows
    w0 = feature_image.width // cols
    if h0 < 1 or w0 < 1 or h0 * w0 < 2:
        raise GridTooFine(
            f"{rows}x{cols} grid over a {feature_image.height}"
            f"x{feature_image.width} image leaves cells below 2 pixels"
        )
    out = []
    for r in range(rows):
        y0 = r * h0
        y1 = (r + 1) * h0 - 1 if r < rows - 1 else feature_image.height - 1
        for c in range(cols):
            x0 = c * w0
            x1 = (c + 1) * w0 - 1 if c < cols - 1 else feature_image.width - 1
            out.append(
                region_covariance(feature_image, RegionSpec(x0, y0, x1, y1), eps_rel)
            )
    return out


def box_downsample(pixels: np.ndarray, factor: int) -> np.ndarray:
    """Average non-overlapping ``factor x factor`` blocks.

    Trailing rows/columns that do not fill a block are dropped.  Works
    for both gray (H, W) and color (H, W, 3) arrays.
    """
    if factor < 1:
        raise ValueError(f"factor must be at least 1, got {factor}")
    a = np.asarray(pixels, dtype=np.float64)
    if factor == 1:
        return a
    h = (a.shape[0] // factor) * factor
    w = (a.shape[1] // factor) * factor
    if h == 0 or w == 0:
        raise ImageTooSmall(f"image too small to downsample by {factor}")
    a = a[:h, :w]
    return a.reshape(h // factor, factor, w // factor, factor, *a.shape[2:]).mean(axis=(1, 3))
