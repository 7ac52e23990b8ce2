"""Unit tests for matrix text files and binary PGM/PPM parsing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from spdrose import (
    ParseError,
    SpdMatrix,
    read_matrix,
    read_pgm,
    read_ppm,
    write_matrix,
    write_pgm,
    write_ppm,
)
from spdrose.io import load_json, write_json

from conftest import random_spd


def test_matrix_round_trip_bit_exact(rng, tmp_path):
    for i in range(10):
        m = random_spd(rng, int(rng.integers(2, 7)))
        path = tmp_path / f"m{i}.txt"
        write_matrix(path, m)
        back = read_matrix(path)
        assert np.array_equal(back.array, m.array)


def test_matrix_file_layout(tmp_path):
    # Version 2: a "<d> v2" header, then row i's entries j >= i.
    path = tmp_path / "m.txt"
    write_matrix(path, SpdMatrix(np.array([[2.0, 0.5], [0.5, 1.0]])))
    lines = path.read_text().splitlines()
    assert lines[0] == "2 v2"
    assert lines[1].split() == ["2.0", "0.5"]
    assert lines[2].split() == ["1.0"]
    assert len(lines) == 3


# Off-diagonal -0.0 keeps its sign; 0.1 + 0.2 and 1 + 2**-52 need all 17
# significant digits to round-trip.
EDGE_MATRIX = np.array([
    [0.1 + 0.2, -0.0, 1e-3],
    [-0.0, 1.0 + 2.0**-52, -0.0],
    [1e-3, -0.0, 2.0 / 3.0],
])


def test_matrix_file_bytes_are_repr_per_value(tmp_path):
    path = tmp_path / "m.txt"
    write_matrix(path, SpdMatrix(EDGE_MATRIX))
    assert path.read_bytes() == (
        b"3 v2\n"
        b"0.30000000000000004 -0.0 0.001\n"
        b"1.0000000000000002 -0.0\n"
        b"0.6666666666666666\n"
    )
    back = read_matrix(path).array
    assert np.array_equal(back, EDGE_MATRIX)
    assert np.array_equal(np.signbit(back), np.signbit(EDGE_MATRIX))


def test_read_matrix_version_1_full_rows(tmp_path):
    # Version 1 files, the dimension alone on the header line and every
    # row in full, are rejected at the header.
    path = tmp_path / "m.txt"
    path.write_text("2\n1.0 0.0\n0.0 1.0\n")
    with pytest.raises(ParseError) as info:
        read_matrix(path)
    assert str(info.value) == f"{path}: header '2' is not '<d> v2'"


@settings(max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 43),
    zeros=st.floats(0.0, 1.0),
    exponent=st.integers(-60, 60),
)
def test_property_matrix_round_trip_bit_exact(tmp_path_factory, seed, dim, zeros, exponent):
    # Diagonally dominant, so SPD; a share of the off-diagonal pairs are
    # +0.0 or -0.0, and a power-of-two scale moves every exponent exactly.
    rng = np.random.default_rng(seed)
    off = rng.uniform(-1.0, 1.0, size=(dim, dim))
    off[rng.uniform(size=(dim, dim)) < zeros] = 0.0
    off *= rng.choice([-1.0, 1.0], size=(dim, dim))
    a = off.copy()
    lower = np.tril_indices(dim, -1)
    a[lower] = off.T[lower]
    a[np.diag_indices(dim)] = rng.uniform(dim, 2.0 * dim, size=dim)
    a = np.ldexp(a, exponent)
    path = tmp_path_factory.mktemp("matrix") / "m.txt"
    write_matrix(path, SpdMatrix(a))
    back = read_matrix(path).array
    assert np.array_equal(back, a)
    assert np.array_equal(np.signbit(back), np.signbit(a))


def test_read_matrix_accepts_blank_lines(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2 v2\n\n1.0 0.0\n\n1.0\n")
    assert np.array_equal(read_matrix(path).array, np.eye(2))


def test_read_matrix_errors_name_the_path(tmp_path):
    cases = {
        "empty.txt": "",
        "header.txt": "two v2\n1.0\n",
        "negative.txt": "-1 v2\n",
        "version.txt": "2 v3\n1.0 0.0\n1.0\n",
        "v2_extra_header.txt": "2 v2 x\n1.0 0.0\n1.0\n",
        "v2_short_row.txt": "3 v2\n1.0 0.0 0.0\n1.0\n1.0\n",
        "v2_long_row.txt": "2 v2\n1.0 0.0\n1.0 0.0\n",
        "v2_missing_row.txt": "3 v2\n1.0 0.0 0.0\n1.0 0.0\n",
        "v2_numeric.txt": "2 v2\n1.0 zero\n1.0\n",
        "v2_indef.txt": "2 v2\n1.0 0.0\n-1.0\n",
        # An image listed as a matrix: its raster is not ASCII.
        "image.pgm": "P5\n1 1\n255\n\u00a2",
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ParseError) as info:
            read_matrix(path)
        assert name in str(info.value)
    with pytest.raises(ParseError):
        read_matrix(tmp_path / "missing.txt")


def test_pgm_round_trip(tmp_path):
    pixels = np.arange(12.0).reshape(3, 4) / 11.0
    path = tmp_path / "img.pgm"
    write_pgm(path, pixels)
    img = read_pgm(path)
    assert (img.height, img.width) == (3, 4)
    # quantization to 255 levels bounds the round-trip error
    assert np.max(np.abs(img.pixels - pixels)) <= 0.5 / 255.0
    write_pgm(tmp_path / "again.pgm", img.pixels)
    assert (tmp_path / "again.pgm").read_bytes() == path.read_bytes()


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    pixels = rng.uniform(size=(5, 2, 3))
    path = tmp_path / "img.ppm"
    write_ppm(path, pixels)
    img = read_ppm(path)
    assert img.pixels.shape == (5, 2, 3)
    assert np.max(np.abs(img.pixels - pixels)) <= 0.5 / 255.0


def test_netpbm_header_comments(tmp_path):
    path = tmp_path / "img.pgm"
    raster = bytes(range(6))
    path.write_bytes(b"P5\n# a comment\n3 # trailing\n# another\n2\n255\n" + raster)
    img = read_pgm(path)
    assert (img.height, img.width) == (2, 3)
    assert img.pixels[0, 1] == pytest.approx(1.0 / 255.0)
    # A comment may also follow the magic number or a digit directly.
    path.write_bytes(b"P5#m\n3#w\n2 255\n" + raster)
    assert read_pgm(path).pixels.shape == (2, 3)


WHITESPACE = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"])
COMMENT = st.binary(max_size=8).map(
    lambda text: b"#" + text.replace(b"\n", b"").replace(b"\r", b"")
)


@st.composite
def netpbm_files(draw):
    """(bytes, magic, expected pixels) of a valid file whose header varies the
    whitespace and the comment lines between fields; a comment always comes
    after whitespace and ends at a line break."""
    magic, samples = draw(st.sampled_from([(b"P5", 1), (b"P6", 3)]))
    width, height = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    header = magic
    for field in (width, height, 255):
        header += b"".join(draw(st.lists(WHITESPACE, min_size=1, max_size=3)))
        for comment in draw(st.lists(COMMENT, max_size=2)):
            header += comment + draw(st.sampled_from([b"\n", b"\r"]))
            header += b"".join(draw(st.lists(WHITESPACE, max_size=2)))
        header += b"%d" % field
    header += draw(WHITESPACE)
    raster = draw(st.binary(min_size=width * height * samples,
                            max_size=width * height * samples))
    pixels = np.frombuffer(raster, dtype=np.uint8) / 255.0
    shape = (height, width) if samples == 1 else (height, width, samples)
    return header + raster, magic, pixels.reshape(shape)


@settings(max_examples=60)
@given(case=netpbm_files())
def test_property_netpbm_headers_read_and_prefixes_fail(tmp_path_factory, case):
    data, magic, pixels = case
    reader = read_pgm if magic == b"P5" else read_ppm
    path = tmp_path_factory.mktemp("netpbm") / "img"
    path.write_bytes(data)
    assert np.array_equal(reader(path).pixels, pixels)
    for end in range(len(data)):
        path.write_bytes(data[:end])
        with pytest.raises(ParseError):
            reader(path)


@settings(max_examples=30)
@given(color=st.booleans(), height=st.integers(1, 4), width=st.integers(1, 4), data=st.data())
def test_property_netpbm_write_reads_back_exactly(tmp_path_factory, color, height, width, data):
    shape = (height, width, 3) if color else (height, width)
    pixels = data.draw(arrays(np.uint8, shape)) / 255.0
    writer, reader = (write_ppm, read_ppm) if color else (write_pgm, read_pgm)
    path = tmp_path_factory.mktemp("netpbm") / "img"
    writer(path, pixels)
    assert np.array_equal(reader(path).pixels, pixels)


def test_netpbm_rejections(tmp_path):
    ok_raster = bytes(range(4))

    path = tmp_path / "magic.pgm"
    path.write_bytes(b"P2\n2 2\n255\n" + ok_raster)
    with pytest.raises(ParseError) as info:
        read_pgm(path)
    assert "magic.pgm" in str(info.value)

    path = tmp_path / "maxval.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + ok_raster)
    with pytest.raises(ParseError):
        read_pgm(path)

    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + ok_raster[:3])
    with pytest.raises(ParseError):
        read_pgm(path)

    path = tmp_path / "truncated.pgm"
    path.write_bytes(b"P5\n2")
    with pytest.raises(ParseError):
        read_pgm(path)

    path = tmp_path / "size.pgm"
    path.write_bytes(b"P5\n0 2\n255\n")
    with pytest.raises(ParseError):
        read_pgm(path)

    # Header fields are digits only, after whitespace: a sign, a word, a
    # digit separator or a width glued to the magic number is malformed,
    # and so is a comment that runs to the end of the file.
    for header in (b"P5\ntwo 2\n255\n", b"P5\n+2 2\n255\n", b"P5\n2 2_0\n255\n",
                   b"P52 2\n255\n", b"P5\n2 2 # 255"):
        path = tmp_path / "token.pgm"
        path.write_bytes(header + ok_raster)
        with pytest.raises(ParseError, match="token.pgm: malformed header"):
            read_pgm(path)

    # A comment of many '#' and spaces that runs to the end of the file
    # fails at once, not after trying every way to split it into comments.
    path.write_bytes(b"P5 " + b"# " * 20 + b"x")
    with pytest.raises(ParseError, match="malformed header"):
        read_pgm(path)

    with pytest.raises(ParseError):
        read_pgm(tmp_path / "absent.pgm")


def test_ppm_magic_mismatch(tmp_path):
    path = tmp_path / "actually_gray.ppm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
    with pytest.raises(ParseError):
        read_ppm(path)


def test_write_quantization_clips():
    path_pixels = np.array([[1.2, -0.3], [0.5, 1.0]])
    import tempfile, os

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "img.pgm")
        write_pgm(path, path_pixels)
        img = read_pgm(path)
        assert img.pixels[0, 0] == 1.0
        assert img.pixels[0, 1] == 0.0


def test_write_shape_validation(tmp_path):
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "bad.pgm", np.zeros((2, 2, 3)))
    with pytest.raises(ValueError):
        write_ppm(tmp_path / "bad.ppm", np.zeros((2, 2)))


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
def test_write_rejects_a_zero_side_before_opening_the_file(tmp_path, shape):
    # The readers reject a zero width or height, so the writers must not write one.
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "empty.pgm", np.zeros(shape))
    with pytest.raises(ValueError):
        write_ppm(tmp_path / "empty.ppm", np.zeros((*shape, 3)))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("payload", [{"label": np.int64(1)}, {"x": object()}])
def test_write_json_that_cannot_serialize_keeps_the_existing_file(tmp_path, payload):
    # The payload is serialized before the file is opened, so a failure
    # neither empties an existing file nor leaves an empty one behind.
    path = tmp_path / "report.json"
    path.write_bytes(b'{"kept": true}\n')
    with pytest.raises(TypeError):
        write_json(path, payload)
    assert path.read_bytes() == b'{"kept": true}\n'
    fresh = tmp_path / "fresh.json"
    with pytest.raises(TypeError):
        write_json(fresh, payload)
    assert not fresh.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_write_json_refuses_what_load_json_refuses(tmp_path, value):
    # NaN and infinity used to be written as bare tokens that load_json rejects.
    path = tmp_path / "report.json"
    path.write_bytes(b'{"kept": true}\n')
    with pytest.raises(ValueError):
        write_json(path, {"a": [1.0, value]})
    assert path.read_bytes() == b'{"kept": true}\n'
    write_json(path, {"a": [1.0, 2.5]})
    assert load_json(path) == {"a": [1.0, 2.5]}
