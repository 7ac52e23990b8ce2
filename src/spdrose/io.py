"""File formats: SPD matrix text files, binary PGM/PPM images and JSON.

A matrix file holds one symmetric positive definite matrix.  It starts
with the header line ``<d> v2``; line ``i`` of the next ``d`` lines holds
row ``i``'s entries ``j >= i``, the upper triangle, as whitespace-separated
floats.  Blank lines are skipped.  Any other header, the version 1
``<d>`` alone included, is rejected.  Values are written with ``repr``
so a write/read round trip is bit exact, sign of zero included.

Images are binary netpbm: P5 (grayscale) and P6 (RGB), maxval 255 only.
The header is the magic number, then width, height and maxval as runs
of decimal digits, each after whitespace that may hold ``#`` comments
running to the end of their line; one whitespace byte precedes the raster.
Pixel bytes are normalized to [0, 1] by dividing by 255.  JSON
containers name their format and an exact integer version, and may not
hold ``NaN`` or ``Infinity``.  All parse failures raise
:class:`ParseError` naming the offending path.
"""

from __future__ import annotations

import json
import re

import numpy as np

from .descriptors import ColorImage, GrayImage
from .errors import DimensionMismatch, ParseError, require_array
from .manifold import SpdMatrix


def _reject_constant(token):
    raise ValueError(f"non-finite number {token}")


def load_json(path):
    """Parsed ASCII JSON file; ``NaN`` and ``Infinity`` raise ``ValueError``."""
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh, parse_constant=_reject_constant)


def write_json(path, payload) -> None:
    """Write ``payload`` as ASCII JSON: one-space indent, sorted keys, final newline;
    a NaN or infinity raises ``ValueError``, which :func:`load_json` would raise on it."""
    # Serialize first: a payload that fails must not truncate an existing file.
    text = json.dumps(payload, indent=1, sort_keys=True, allow_nan=False) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def read_container(path, fmt, version, version_key="version"):
    """Payload of a JSON container file after checking its format and version."""
    try:
        payload = load_json(path)
    except (OSError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != fmt:
        raise ParseError(f"{path}: not a {fmt} file")
    found = payload.get(version_key)
    # 1.0 == 1 and True == 1 in Python; a version is an exact JSON integer.
    if type(found) is not int or found != version:
        raise ParseError(f"{path}: unsupported {version_key} {found!r}")
    return payload


def json_floats(values) -> np.ndarray:
    """Float64 array of parsed JSON numbers; ``ValueError`` unless numpy reads
    ``values`` as an integer or float array, not strings, booleans or nulls."""
    array = np.asarray(values)
    if array.dtype.kind not in "iuf":
        raise ValueError("arrays must hold JSON numbers only")
    return array.astype(np.float64)


def symmetric_from_upper(values, d) -> np.ndarray:
    """Symmetric ``d x d`` array whose upper triangle, row by row, is ``values``."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (d * (d + 1) // 2,):
        raise ValueError(f"{values.size} values do not fill a {d}x{d} upper triangle")
    a = np.empty((d, d))
    upper = np.triu_indices(d)
    a[upper] = a.T[upper] = values
    return a


def write_matrix(path, matrix: SpdMatrix) -> None:
    rows = matrix.array.tolist()
    lines = [f"{matrix.dim} v2"]
    lines.extend(" ".join(map(repr, row[i:])) for i, row in enumerate(rows))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_matrix(path) -> SpdMatrix:
    """Read a matrix file in the format of the module docstring."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    lines = [fields for fields in map(str.split, text.splitlines()) if fields]
    if not lines:
        raise ParseError(f"{path}: empty matrix file")
    header, rows = lines[0], lines[1:]
    if len(header) != 2 or header[1] != "v2":
        raise ParseError(f"{path}: header {' '.join(header)!r} is not '<d> v2'")
    try:
        d = int(header[0])
    except ValueError as exc:
        raise ParseError(f"{path}: the header must start with the dimension") from exc
    if d < 1:
        raise ParseError(f"{path}: dimension must be positive, got {d}")
    if len(rows) != d:
        raise ParseError(f"{path}: expected {d} rows, found {len(rows)}")
    for i, fields in enumerate(rows):
        if len(fields) != d - i:
            raise ParseError(
                f"{path}: row {i + 1} has {len(fields)} entries, expected {d - i}"
            )
    try:
        values = np.array([f for fields in rows for f in fields], dtype=np.float64)
    except ValueError as exc:
        raise ParseError(f"{path}: non-numeric entry ({exc})") from exc
    try:
        return SpdMatrix(symmetric_from_upper(values, d))
    except Exception as exc:
        raise ParseError(f"{path}: {exc}") from exc


# The header grammar of the module docstring.  A comment takes its line
# break with it, so a gap splits into items one way only and a failed
# match cannot backtrack exponentially.
_GAP = rb"(?:\s|#[^\n\r]*[\n\r])+"
_NETPBM_HEADER = re.compile(rb"P[56]" + 3 * (_GAP + rb"(\d+)") + rb"\s")


def _read_netpbm(path, magic, samples):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not data.startswith(magic):
        raise ParseError(f"{path}: expected {magic.decode('ascii')} header")
    header = _NETPBM_HEADER.match(data)
    if header is None:
        raise ParseError(f"{path}: malformed header")
    width, height, maxval = map(int, header.groups())
    if width < 1 or height < 1:
        raise ParseError(f"{path}: bad image size {width}x{height}")
    if maxval != 255:
        raise ParseError(f"{path}: only maxval 255 is supported, got {maxval}")
    expected = width * height * samples
    raster = data[header.end() : header.end() + expected]
    if len(raster) != expected:
        raise ParseError(
            f"{path}: raster holds {len(raster)} bytes, expected {expected}"
        )
    pixels = np.frombuffer(raster, dtype=np.uint8).astype(np.float64) / 255.0
    if samples == 1:
        return pixels.reshape(height, width)
    return pixels.reshape(height, width, samples)


def read_pgm(path) -> GrayImage:
    return GrayImage(_read_netpbm(path, b"P5", 1))


def read_ppm(path) -> ColorImage:
    return ColorImage(_read_netpbm(path, b"P6", 3))


def _quantize(pixels):
    return np.clip(np.rint(pixels * 255.0), 0, 255).astype(np.uint8)


def _write_netpbm(path, magic, pixels, channel_shape) -> None:
    pixels = require_array(pixels, "pixels", (None, None, *channel_shape))
    if 0 in pixels.shape[:2]:
        raise DimensionMismatch(f"{magic.decode('ascii')} raster has shape {pixels.shape}")
    q = _quantize(pixels)
    with open(path, "wb") as fh:
        fh.write(b"%s\n%d %d\n255\n" % (magic, q.shape[1], q.shape[0]))
        fh.write(q.tobytes())


def write_pgm(path, pixels) -> None:
    _write_netpbm(path, b"P5", pixels, ())


def write_ppm(path, pixels) -> None:
    _write_netpbm(path, b"P6", pixels, (3,))
