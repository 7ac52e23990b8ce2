"""File formats: SPD matrix text files, binary PGM/PPM images and JSON.

A matrix file holds one SPD matrix: the first line is the dimension
``d`` and each of the next ``d`` lines holds ``d`` whitespace-separated
floats.  Values are written with ``repr`` so a write/read round trip is
bit exact.

Images are binary netpbm: P5 (grayscale) and P6 (RGB), maxval 255 only.
Pixel bytes are normalized to [0, 1] by dividing by 255.  JSON
containers name their format and version and may not hold ``NaN`` or
``Infinity``.  All parse failures raise :class:`ParseError` naming the
offending path.
"""

from __future__ import annotations

import json

import numpy as np

from .descriptors import ColorImage, GrayImage
from .errors import ParseError
from .manifold import SpdMatrix


def _reject_constant(token):
    raise ValueError(f"non-finite number {token}")


def load_json(path):
    """Parsed ASCII JSON file; ``NaN`` and ``Infinity`` raise ``ValueError``."""
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh, parse_constant=_reject_constant)


def write_json(path, payload) -> None:
    """Write ``payload`` as ASCII JSON: one-space indent, sorted keys, final newline."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def read_container(path, fmt, version, version_key="version"):
    """Payload of a JSON container file after checking its format and version."""
    try:
        payload = load_json(path)
    except (OSError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != fmt:
        raise ParseError(f"{path}: not a {fmt} file")
    if payload.get(version_key) != version:
        raise ParseError(
            f"{path}: unsupported {version_key} {payload.get(version_key)!r}"
        )
    return payload


def write_matrix(path, matrix: SpdMatrix) -> None:
    d = matrix.dim
    lines = [str(d)]
    for row in matrix.array:
        lines.append(" ".join(map(repr, row.tolist())))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_matrix(path) -> SpdMatrix:
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ParseError(f"{path}: empty matrix file")
    try:
        d = int(lines[0])
    except ValueError as exc:
        raise ParseError(f"{path}: first line must be the dimension") from exc
    if d < 1:
        raise ParseError(f"{path}: dimension must be positive, got {d}")
    if len(lines) != d + 1:
        raise ParseError(f"{path}: expected {d} rows, found {len(lines) - 1}")
    rows = []
    for i, line in enumerate(lines[1:], start=1):
        fields = line.split()
        if len(fields) != d:
            raise ParseError(
                f"{path}: row {i} has {len(fields)} entries, expected {d}"
            )
        try:
            rows.append([float(f) for f in fields])
        except ValueError as exc:
            raise ParseError(f"{path}: row {i} holds a non-numeric entry") from exc
    try:
        return SpdMatrix(np.array(rows, dtype=np.float64))
    except Exception as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _read_netpbm(path, magic, samples):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not data.startswith(magic):
        raise ParseError(
            f"{path}: expected {magic.decode('ascii')} header"
        )
    # Header tokens (width, height, maxval) may be separated by arbitrary
    # whitespace and '#' comment lines; a single whitespace byte then
    # precedes the raster.
    pos = len(magic)
    tokens = []
    while len(tokens) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ParseError(f"{path}: truncated header")
        tokens.append(data[start:pos])
    pos += 1
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise ParseError(f"{path}: non-numeric header field") from exc
    if width < 1 or height < 1:
        raise ParseError(f"{path}: bad image size {width}x{height}")
    if maxval != 255:
        raise ParseError(f"{path}: only maxval 255 is supported, got {maxval}")
    expected = width * height * samples
    raster = data[pos : pos + expected]
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
    return np.clip(np.rint(np.asarray(pixels) * 255.0), 0, 255).astype(np.uint8)


def write_pgm(path, pixels) -> None:
    q = _quantize(pixels)
    if q.ndim != 2:
        raise ValueError(f"grayscale raster has shape {q.shape}")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{q.shape[1]} {q.shape[0]}\n255\n".encode("ascii"))
        fh.write(q.tobytes())


def write_ppm(path, pixels) -> None:
    q = _quantize(pixels)
    if q.ndim != 3 or q.shape[2] != 3:
        raise ValueError(f"color raster has shape {q.shape}")
    with open(path, "wb") as fh:
        fh.write(f"P6\n{q.shape[1]} {q.shape[0]}\n255\n".encode("ascii"))
        fh.write(q.tobytes())
