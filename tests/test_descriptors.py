"""Unit tests for feature maps and grid covariance descriptors."""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spdrose import (
    ColorImage,
    FeatureImage,
    GrayImage,
    GridTooFine,
    ImageTooSmall,
    box_downsample,
    color_feature_map,
    gabor_feature_map,
    grid_covariances,
    intensity_feature_map,
)
from spdrose.descriptors import (
    ABSOLUTE_RIDGE,
    GABOR_BANDWIDTH_OCTAVES,
    GABOR_ORIENTATIONS,
    GABOR_TRUNCATE,
    GABOR_WAVELENGTHS,
    _bandwidth_sigma_factor,
    _gabor_factors,
    gabor_support,
)


def gray(values):
    return GrayImage(np.asarray(values, dtype=np.float64))


def cell(fi, x0, y0, x1, y1):
    """Descriptor of the inclusive pixel box, as the 1x1 grid of that sub-image."""
    sub = FeatureImage(fi.values[y0 : y1 + 1, x0 : x1 + 1], fi.channel_tags)
    return grid_covariances(sub, 1, 1)[0]


def test_image_validation():
    with pytest.raises(ValueError):
        GrayImage(np.array([[0.5, 1.5], [0.0, 0.2]]))
    with pytest.raises(ValueError):
        GrayImage(np.array([[0.5, -0.1], [0.0, 0.2]]))
    with pytest.raises(ValueError):
        GrayImage(np.zeros((2, 2, 3)))
    with pytest.raises(ValueError):
        ColorImage(np.zeros((2, 2)))
    img = gray(np.full((3, 4), 0.25))
    assert (img.height, img.width) == (3, 4)
    with pytest.raises(ValueError):
        img.pixels[0, 0] = 0.9


@pytest.mark.parametrize(
    "make, shape",
    [
        (GrayImage, (3, 3)),
        (ColorImage, (3, 3, 3)),
        (lambda a: FeatureImage(a, ("a", "b")), (3, 3, 2)),
    ],
)
def test_images_leave_the_callers_array_writable(make, shape):
    a = np.zeros(shape)
    image = make(a)
    a[0, 0] = 1.0
    frozen = image.values if isinstance(image, FeatureImage) else image.pixels
    assert not frozen.flags.writeable
    assert np.all(frozen == 0.0)


def test_feature_image_tag_count_must_match():
    with pytest.raises(ValueError):
        FeatureImage(np.zeros((2, 2, 3)), ("a", "b"))


def test_intensity_constant_image():
    fi = intensity_feature_map(gray(np.full((4, 5), 0.3)))
    assert fi.channel_tags == ("I", "|Ix|", "|Iy|", "|Ixx|", "|Iyy|")
    assert np.array_equal(fi.values[:, :, 0], np.full((4, 5), 0.3))
    assert np.array_equal(fi.values[:, :, 1:], np.zeros((4, 5, 4)))


def test_intensity_minimum_size():
    with pytest.raises(ImageTooSmall):
        intensity_feature_map(gray(np.zeros((2, 5))))
    with pytest.raises(ImageTooSmall):
        intensity_feature_map(gray(np.zeros((5, 2))))


def test_intensity_ramp_gradient():
    w = 7
    ramp = np.tile(np.arange(w) / (w - 1), (5, 1))
    fi = intensity_feature_map(gray(ramp))
    interior = fi.values[:, 1:-1, :]
    assert np.allclose(interior[:, :, 1], 1.0 / (w - 1), atol=1e-15)
    assert np.allclose(interior[:, :, 3], 0.0, atol=1e-15)
    assert np.allclose(fi.values[:, :, 2], 0.0, atol=1e-15)
    assert np.allclose(fi.values[:, :, 4], 0.0, atol=1e-15)
    # replicate padding halves the one-sided difference at the borders
    assert np.allclose(fi.values[:, 0, 1], 0.5 / (w - 1), atol=1e-15)


def test_intensity_impulse_second_derivative():
    v = 0.8
    pixels = np.zeros((5, 5))
    pixels[2, 2] = v
    fi = intensity_feature_map(gray(pixels))
    assert fi.values[2, 2, 3] == pytest.approx(2.0 * v, abs=1e-15)
    assert fi.values[2, 2, 4] == pytest.approx(2.0 * v, abs=1e-15)
    assert fi.values[2, 2, 1] == pytest.approx(0.0, abs=1e-15)
    assert fi.values[2, 1, 1] == pytest.approx(v / 2.0, abs=1e-15)


def test_intensity_shift_changes_only_first_channel(rng):
    base = rng.uniform(0.1, 0.6, size=(6, 6))
    lifted = intensity_feature_map(gray(base + 0.3))
    original = intensity_feature_map(gray(base))
    assert np.allclose(lifted.values[:, :, 0], original.values[:, :, 0] + 0.3)
    assert np.allclose(lifted.values[:, :, 1:], original.values[:, :, 1:], atol=1e-14)


def per_axis_differences(a):
    """Central differences with one replicate pad per axis, one channel at a time."""
    px = np.pad(a, ((0, 0), (1, 1)), mode="edge")
    py = np.pad(a, ((1, 1), (0, 0)), mode="edge")
    return (
        (px[:, 2:] - px[:, :-2]) / 2.0,
        (py[2:, :] - py[:-2, :]) / 2.0,
        px[:, 2:] - 2.0 * px[:, 1:-1] + px[:, :-2],
        py[2:, :] - 2.0 * py[1:-1, :] + py[:-2, :],
    )


@pytest.mark.parametrize("shape", [(3, 3), (7, 5), (5, 7)])
def test_derivative_channels_equal_per_axis_stencils_bit_for_bit(rng, shape):
    # Borders included: the replicate padding must act per axis.
    pixels = rng.random(shape)
    ix, iy, ixx, iyy = per_axis_differences(pixels)
    fi = intensity_feature_map(gray(pixels))
    for channel, expected in enumerate((ix, iy, ixx, iyy), start=1):
        assert np.array_equal(fi.values[:, :, channel], np.abs(expected))
    color = rng.random(shape + (3,))
    fi = color_feature_map(ColorImage(color))
    for c in range(3):
        ix, iy, ixx, iyy = per_axis_differences(color[:, :, c])
        assert np.array_equal(fi.values[:, :, 5 + c], np.hypot(ix, iy))
        assert np.array_equal(fi.values[:, :, 8 + c], ixx + iyy)


def test_color_constant_image():
    img = ColorImage(np.full((4, 6, 3), 0.4))
    fi = color_feature_map(img)
    assert fi.channel_tags == (
        "x", "y", "R", "G", "B", "R'", "G'", "B'", "R''", "G''", "B''",
    )
    assert np.array_equal(fi.values[:, :, 5:], np.zeros((4, 6, 6)))
    other = color_feature_map(ColorImage(np.full((4, 6, 3), 0.9)))
    assert np.array_equal(fi.values[:, :, 0], other.values[:, :, 0])
    assert np.array_equal(fi.values[:, :, 1], other.values[:, :, 1])


def test_color_coordinate_normalization():
    img = ColorImage(np.full((3, 5, 3), 0.2))
    fi = color_feature_map(img)
    assert np.array_equal(fi.values[:, 0, 0], np.zeros(3))
    assert np.array_equal(fi.values[:, 4, 0], np.ones(3))
    assert np.array_equal(fi.values[0, :, 1], np.zeros(5))
    assert np.array_equal(fi.values[2, :, 1], np.ones(5))


def test_color_single_channel_ramp():
    h, w = 5, 9
    pixels = np.zeros((h, w, 3))
    pixels[:, :, 0] = np.tile(np.arange(w) / (w - 1), (h, 1))
    fi = color_feature_map(ColorImage(pixels))
    interior = fi.values[:, 1:-1, :]
    assert np.allclose(interior[:, :, 5], 1.0 / (w - 1), atol=1e-15)
    assert np.array_equal(fi.values[:, :, 6], np.zeros((h, w)))
    assert np.array_equal(fi.values[:, :, 7], np.zeros((h, w)))
    assert np.allclose(interior[:, :, 8], 0.0, atol=1e-14)


def test_color_minimum_size():
    with pytest.raises(ImageTooSmall, match="2x4 image; derivative stencils need 3x3"):
        color_feature_map(ColorImage(np.zeros((2, 4, 3))))
    with pytest.raises(ImageTooSmall, match="4x1 image"):
        color_feature_map(ColorImage(np.zeros((4, 1, 3))))


def test_gabor_support_and_size_check():
    support = gabor_support()
    assert support == 47
    with pytest.raises(ImageTooSmall):
        gabor_feature_map(gray(np.zeros((support - 1, support - 1))))


def test_gabor_constant_image_has_silent_filters():
    fi = gabor_feature_map(gray(np.full((48, 48), 0.5)))
    assert fi.values.shape[2] == 43
    assert fi.channel_tags[:3] == ("I", "x", "y")
    assert fi.channel_tags[3] == "|G_00|"
    assert fi.channel_tags[-1] == "|G_47|"
    assert float(np.max(fi.values[:, :, 3:])) <= 1e-10


def test_gabor_sinusoid_orientation_selectivity():
    # Horizontal sinusoid at the wavelength of scale u=2 (8 pixels):
    # the aligned orientation channel must beat the orthogonal one at
    # the image center by a wide margin.
    size = 49
    cols = np.arange(size)
    pixels = np.tile(0.5 + 0.4 * np.cos(2.0 * np.pi * cols / 8.0), (size, 1))
    fi = gabor_feature_map(gray(pixels))
    tags = list(fi.channel_tags)
    aligned = fi.values[size // 2, size // 2, tags.index("|G_20|")]
    orthogonal = fi.values[size // 2, size // 2, tags.index("|G_24|")]
    assert aligned > 10.0 * orthogonal
    assert aligned > 0.01


def gabor_kernel(wavelength, theta):
    """The 2-D kernel in rotated coordinates, as the bank's definition states it."""
    sigma = wavelength * _bandwidth_sigma_factor(GABOR_BANDWIDTH_OCTAVES)
    half = int(math.ceil(GABOR_TRUNCATE * sigma))
    y, x = np.mgrid[-half : half + 1, -half : half + 1]
    xr = x * math.cos(theta) + y * math.sin(theta)
    yr = -x * math.sin(theta) + y * math.cos(theta)
    envelope = np.exp(-(xr**2 + yr**2) / (2.0 * sigma**2))
    kernel = envelope * np.exp(1j * (2.0 * math.pi / wavelength) * xr)
    # Zero-DC correction: remove the envelope-weighted mean so a constant
    # image produces (numerically) zero response.
    return kernel - (kernel.sum() / envelope.sum()) * envelope


@lru_cache(maxsize=1)
def gabor_bank():
    """The default bank's kernels, wavelength-major."""
    return tuple(
        gabor_kernel(wl, v * math.pi / GABOR_ORIENTATIONS)
        for wl in GABOR_WAVELENGTHS
        for v in range(GABOR_ORIENTATIONS)
    )


def test_separable_factors_match_rotated_kernels():
    # The feature map builds each spectrum from these 1-D factors; that is
    # exact only for an isotropic envelope.
    n = GABOR_ORIENTATIONS
    bank = gabor_bank()
    assert len(bank) == len(GABOR_WAVELENGTHS) * n
    for u in range(len(GABOR_WAVELENGTHS)):
        rows, dc = _gabor_factors(u)
        e = rows[0]
        for v in range(n):
            kernel = bank[n * u + v]
            separable = np.outer(rows[1 + n + v], rows[1 + v]) - dc[v] * np.outer(e, e)
            assert separable.shape == kernel.shape
            error = np.max(np.abs(separable - kernel))
            assert error <= 1e-14 * np.max(np.abs(kernel)), (u, v, error)
    assert gabor_support() == max(kernel.shape[0] for kernel in bank)


def spatial_gabor_magnitude(pixels, kernel, r, c):
    """|(image * kernel)(r, c)| as an explicit window sum, borders replicated."""
    h, w = pixels.shape
    half = kernel.shape[0] // 2
    offsets = np.arange(-half, half + 1)
    # Convolution flips the kernel: kernel[half + i, half + j] weighs
    # pixel (r - i, c - j), clamped into the image.
    rows = np.clip(r - offsets, 0, h - 1)
    cols = np.clip(c - offsets, 0, w - 1)
    return abs(np.sum(kernel * pixels[np.ix_(rows, cols)]))


def check_gabor_magnitudes(pixels):
    """Every Gabor channel matches the explicit window sum at border and centre probes."""
    h, w = pixels.shape
    fi = gabor_feature_map(gray(pixels))
    bank = gabor_bank()
    expected_tags = ["I", "x", "y"] + [
        f"|G_{u}{v}|"
        for u in range(len(GABOR_WAVELENGTHS))
        for v in range(GABOR_ORIENTATIONS)
    ]
    assert list(fi.channel_tags) == expected_tags
    assert len(bank) == fi.values.shape[2] - 3
    probes = [
        (0, 0), (0, w - 1), (h - 1, 0), (h - 1, w - 1),
        (0, w // 2), (h - 1, w // 2), (h // 2, 0), (h // 2, w - 1),
        (h // 2, w // 2),
    ]
    for i, kernel in enumerate(bank):
        # Pixels lie in [0, 1], so sum |kernel| bounds every response.
        scale = float(np.sum(np.abs(kernel)))
        for r, c in probes:
            expected = spatial_gabor_magnitude(pixels, kernel, r, c)
            assert abs(fi.values[r, c, 3 + i] - expected) <= 1e-12 * scale, (i, r, c)


# Each wavelength pads by its own half-support.  At 47 the largest pads to
# 93, transformed at 96; at 50 the smallest pads to 62, transformed at 63.
@pytest.mark.parametrize(
    "shape",
    [
        (47, 60),  # height equal to the largest support, not square
        (50, 80),
    ],
)
def test_gabor_magnitudes_match_spatial_window_sums(shape):
    check_gabor_magnitudes(np.random.default_rng(7).uniform(size=shape))


@settings(max_examples=30)
@given(
    h=st.integers(47, 100),
    w=st.integers(47, 100),
    seed=st.integers(0, 2**32 - 1),
)
def test_gabor_magnitudes_match_spatial_window_sums_any_size(h, w, seed):
    check_gabor_magnitudes(np.random.default_rng(seed).uniform(size=(h, w)))


def test_region_covariance_constant_region():
    # 0.5 keeps the mean subtraction exact, so the sample covariance is
    # exactly zero and only the absolute ridge remains.
    fi = FeatureImage(np.full((3, 3, 2), 0.5), ("a", "b"))
    cov = cell(fi, 0, 0, 2, 2)
    assert np.array_equal(cov.array, ABSOLUTE_RIDGE * np.eye(2))
    wobbly = FeatureImage(np.full((3, 3, 2), 0.7), ("a", "b"))
    cov = cell(wobbly, 0, 0, 2, 2)
    assert np.allclose(cov.array, ABSOLUTE_RIDGE * np.eye(2), atol=1e-24)


def test_region_covariance_two_pixel_example():
    values = np.array([[[0.0, 0.0], [2.0, 0.0]]])
    fi = FeatureImage(values, ("a", "b"))
    cov = cell(fi, 0, 0, 1, 0)
    ridge = 1e-5 * (2.0 / 2.0) + ABSOLUTE_RIDGE
    expected = np.array([[2.0 + ridge, 0.0], [0.0, ridge]])
    assert np.allclose(cov.array, expected, rtol=1e-12, atol=0.0)


def test_region_covariance_pixel_order_invariance(rng):
    flat = rng.uniform(0.0, 1.0, size=(1, 8, 3))
    fi = FeatureImage(flat, ("a", "b", "c"))
    shuffled = FeatureImage(flat[:, rng.permutation(8), :], ("a", "b", "c"))
    a = cell(fi, 0, 0, 7, 0).array
    b = cell(shuffled, 0, 0, 7, 0).array
    assert np.allclose(a, b, rtol=1e-12, atol=1e-15)


def test_region_covariance_eigenvalue_floor(rng):
    for _ in range(5):
        fi = FeatureImage(rng.uniform(size=(4, 4, 3)), ("a", "b", "c"))
        cov = cell(fi, 0, 0, 3, 3)
        assert float(np.linalg.eigvalsh(cov.array)[0]) >= 0.99 * ABSOLUTE_RIDGE


def test_grid_single_cell_equals_whole_region(rng):
    fi = FeatureImage(rng.uniform(size=(5, 6, 2)), ("a", "b"))
    grid = grid_covariances(fi, 1, 1)
    cov = np.cov(fi.values.reshape(-1, 2), rowvar=False)
    whole = cov + (1e-5 * np.trace(cov) / 2 + ABSOLUTE_RIDGE) * np.eye(2)
    assert len(grid) == 1
    assert np.allclose(grid[0].array, whole, rtol=1e-12, atol=0.0)


def test_grid_eight_by_eight(rng):
    fi = FeatureImage(rng.uniform(size=(64, 64, 3)), ("a", "b", "c"))
    grid = grid_covariances(fi, 8, 8)
    assert len(grid) == 64
    # spot check one interior cell against the 1x1 grid of its sub-image
    direct = cell(fi, 16, 8, 23, 15)
    assert np.array_equal(grid[8 * 1 + 2].array, direct.array)


def test_grid_remainder_goes_to_last_cells(rng):
    fi = FeatureImage(rng.uniform(size=(7, 7, 2)), ("a", "b"))
    grid = grid_covariances(fi, 2, 2)
    assert len(grid) == 4
    last = cell(fi, 3, 3, 6, 6)
    assert np.array_equal(grid[3].array, last.array)


def test_grid_too_fine():
    fi = FeatureImage(np.random.default_rng(0).uniform(size=(4, 4, 2)), ("a", "b"))
    with pytest.raises(GridTooFine):
        grid_covariances(fi, 4, 4)
    with pytest.raises(ValueError):
        grid_covariances(fi, 0, 2)


def test_grid_locality(rng):
    values = rng.uniform(size=(4, 4, 2))
    fi = FeatureImage(values, ("a", "b"))
    swapped = values.copy()
    swapped[0:2, 0:2], swapped[2:4, 2:4] = (
        values[2:4, 2:4].copy(),
        values[0:2, 0:2].copy(),
    )
    other = FeatureImage(swapped, ("a", "b"))
    before = grid_covariances(fi, 2, 2)
    after = grid_covariances(other, 2, 2)
    assert np.array_equal(after[0].array, before[3].array)
    assert np.array_equal(after[3].array, before[0].array)
    assert np.array_equal(after[1].array, before[1].array)
    assert np.array_equal(after[2].array, before[2].array)


def test_box_downsample_gray_average():
    pixels = np.arange(16.0).reshape(4, 4) / 16.0
    out = box_downsample(pixels, 2)
    expected = np.array(
        [
            [pixels[:2, :2].mean(), pixels[:2, 2:].mean()],
            [pixels[2:, :2].mean(), pixels[2:, 2:].mean()],
        ]
    )
    assert np.allclose(out, expected, rtol=1e-15)


def test_box_downsample_edge_cases(rng):
    pixels = rng.uniform(size=(5, 5))
    out = box_downsample(pixels, 2)
    assert out.shape == (2, 2)
    assert np.array_equal(box_downsample(pixels, 1), pixels)
    color = rng.uniform(size=(6, 4, 3))
    assert box_downsample(color, 2).shape == (3, 2, 3)
    with pytest.raises(ImageTooSmall):
        box_downsample(np.zeros((1, 1)), 2)
    with pytest.raises(ValueError):
        box_downsample(pixels, 0)
