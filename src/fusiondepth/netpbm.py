"""Binary netpbm I/O: 8-bit P6 color images, 16-bit P5 disparity maps.

Disparity/depth maps are stored scaled by 256 in big-endian 16-bit words,
the KITTI disparity-PNG convention transplanted to PGM.
"""

from __future__ import annotations

import numpy as np


class FileFormatError(IOError):
    pass


DISP_SCALE = 256.0


def _parse_header(blob, magic, path):
    """Parse `P6`/`P5`, three decimal fields (width, height, maxval) with
    whitespace/comment separators, and the single byte before the payload.
    Returns (width, height, maxval, payload_offset)."""
    if blob[:2] != magic:
        raise FileFormatError(f"{path}: expected {magic.decode()} magic, found {blob[:2]!r}")
    pos = 2
    values = []
    while len(values) < 3:
        while pos < len(blob):
            byte = blob[pos:pos + 1]
            if byte.isspace():
                pos += 1
            elif byte == b"#":
                newline = blob.find(b"\n", pos)
                pos = len(blob) if newline < 0 else newline + 1
            else:
                break
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace() and blob[pos:pos + 1] != b"#":
            pos += 1
        token = blob[start:pos]
        if not token:
            raise FileFormatError(f"{path}: truncated header")
        try:
            values.append(int(token))
        except ValueError:
            raise FileFormatError(f"{path}: non-numeric header field {token!r}") from None
    if pos >= len(blob) or not blob[pos:pos + 1].isspace():
        raise FileFormatError(f"{path}: missing whitespace before payload")
    width, height, maxval = values
    if width < 1 or height < 1:
        raise FileFormatError(f"{path}: bad image extents {width}x{height}")
    return width, height, maxval, pos + 1


def _write(path, arr, magic, maxval, dtype):
    """Write (H, W[, C]) samples, rounded and clipped to [0, maxval], as binary netpbm."""
    h, w = arr.shape[:2]
    quantized = np.clip(np.round(arr), 0, maxval).astype(dtype)
    with open(path, "wb") as f:
        f.write(magic + f"\n{w} {h}\n{maxval}\n".encode("ascii"))
        f.write(quantized.tobytes())


def _read(path, magic, maxval, dtype, channels):
    """The (H, W, channels) samples of a binary netpbm file, as float64."""
    with open(path, "rb") as f:
        blob = f.read()
    w, h, found, off = _parse_header(blob, magic, path)
    if found != maxval:
        raise FileFormatError(f"{path}: only maxval {maxval} supported, got {found}")
    expected = w * h * channels * np.dtype(dtype).itemsize
    payload = blob[off:off + expected]
    if len(payload) != expected:
        raise FileFormatError(f"{path}: payload holds {len(payload)} bytes, expected {expected}")
    return np.frombuffer(payload, dtype=dtype).reshape(h, w, channels).astype(np.float64)


def write_ppm(path, image):
    """Write an (H, W, 3) float image in [0, 1] as binary 8-bit PPM."""
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise FileFormatError(f"PPM wants (H, W, 3) data, got {arr.shape}")
    _write(path, arr * 255.0, b"P6", 255, np.uint8)


def read_ppm(path):
    return _read(path, b"P6", 255, np.uint8, 3) / 255.0


def write_pgm16(path, values):
    """Write an (H, W) float map as 16-bit big-endian PGM, scaled by 256."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise FileFormatError(f"PGM wants (H, W) data, got {arr.shape}")
    _write(path, arr * DISP_SCALE, b"P5", 65535, ">u2")


def read_pgm16(path):
    return _read(path, b"P5", 65535, ">u2", 1)[:, :, 0] / DISP_SCALE
