"""Minimal binary PGM (P5) reader/writer.

8-bit rasters are one byte per pixel; 16-bit rasters are big-endian, as
the format requires.  Nothing beyond P5 is supported, which keeps the
on-disk artifacts parseable with a few lines of code in any language.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PgmError",
    "read_pgm",
    "read_pgm_intensity",
    "write_pgm",
    "image_to_pgm_bytes",
    "pgm_bytes_to_image",
]


class PgmError(ValueError):
    """Malformed PGM data."""


def image_to_pgm_bytes(img: np.ndarray) -> bytes:
    """Encode a float intensity image in [0, 1] as 8-bit P5 (value * 255, rounded)."""
    img = np.asarray(img, dtype=float)
    raster = np.rint(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)
    return _encode(raster, 255)


def write_pgm(path, raster: np.ndarray) -> None:
    """Write a uint8 or uint16 array as binary P5."""
    raster = np.asarray(raster)
    if raster.dtype == np.uint8:
        data = _encode(raster, 255)
    elif raster.dtype == np.uint16:
        data = _encode(raster, 65535)
    else:
        raise PgmError(f"unsupported dtype {raster.dtype}; use uint8 or uint16")
    with open(path, "wb") as fh:
        fh.write(data)


def _encode(raster: np.ndarray, maxval: int) -> bytes:
    if raster.ndim != 2:
        raise PgmError(f"raster must be 2-D, got shape {raster.shape}")
    h, w = raster.shape
    header = f"P5\n{w} {h}\n{maxval}\n".encode("ascii")
    if maxval > 255:
        return header + raster.astype(">u2").tobytes()
    return header + raster.tobytes()


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # skip whitespace and '#' comments, then take one token
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c == b"#":
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise PgmError("truncated header")
    return data[start:pos], pos


def _decode(data: bytes) -> tuple[np.ndarray, int]:
    magic, pos = _next_token(data, 0)
    if magic != b"P5":
        raise PgmError(f"not a binary PGM (magic {magic!r})")
    fields = []
    for _ in range(3):
        token, pos = _next_token(data, pos)
        try:
            fields.append(int(token))
        except ValueError:
            raise PgmError(f"non-numeric header field {token!r}") from None
    w, h, maxval = fields
    if w <= 0 or h <= 0 or not 0 < maxval < 65536:
        raise PgmError(f"invalid dimensions or maxval: {w}x{h}, {maxval}")
    pos += 1  # single whitespace byte separates header from raster
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype(np.uint8)
    expected = w * h * dtype.itemsize
    raster = data[pos : pos + expected]
    if len(raster) != expected:
        raise PgmError(f"raster truncated: expected {expected} bytes, got {len(raster)}")
    out = np.frombuffer(raster, dtype=dtype).reshape(h, w)
    if out.max() > maxval:
        raise PgmError(f"sample {out.max()} exceeds maxval {maxval}")
    return (out.astype(np.uint16) if maxval > 255 else out), maxval


def pgm_bytes_to_image(data: bytes) -> np.ndarray:
    """Decode binary P5 bytes; returns uint8 or uint16 (native order) rows."""
    return _decode(data)[0]


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return pgm_bytes_to_image(fh.read())


def read_pgm_intensity(path) -> np.ndarray:
    """Read a P5 file as floats in [0, 1]: each sample over the file's own maxval."""
    with open(path, "rb") as fh:
        raster, maxval = _decode(fh.read())
    return raster / float(maxval)
