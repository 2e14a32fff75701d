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


def write_ppm(path, image):
    """Write an (H, W, 3) float image in [0, 1] as binary 8-bit PPM."""
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise FileFormatError(f"PPM wants (H, W, 3) data, got {arr.shape}")
    h, w, _ = arr.shape
    quantized = np.clip(np.round(arr * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(quantized.tobytes())


def read_ppm(path):
    with open(path, "rb") as f:
        blob = f.read()
    w, h, maxval, off = _parse_header(blob, b"P6", path)
    if maxval != 255:
        raise FileFormatError(f"{path}: only maxval 255 supported, got {maxval}")
    expected = w * h * 3
    payload = blob[off:off + expected]
    if len(payload) != expected:
        raise FileFormatError(f"{path}: payload holds {len(payload)} bytes, expected {expected}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w, 3).astype(np.float64) / 255.0


def write_pgm16(path, values):
    """Write an (H, W) float map as 16-bit big-endian PGM, scaled by 256."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise FileFormatError(f"PGM wants (H, W) data, got {arr.shape}")
    h, w = arr.shape
    quantized = np.clip(np.round(arr * DISP_SCALE), 0, 65535).astype(">u2")
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n65535\n".encode("ascii"))
        f.write(quantized.tobytes())


def read_pgm16(path):
    with open(path, "rb") as f:
        blob = f.read()
    w, h, maxval, off = _parse_header(blob, b"P5", path)
    if maxval != 65535:
        raise FileFormatError(f"{path}: only maxval 65535 supported, got {maxval}")
    expected = w * h * 2
    payload = blob[off:off + expected]
    if len(payload) != expected:
        raise FileFormatError(f"{path}: payload holds {len(payload)} bytes, expected {expected}")
    return np.frombuffer(payload, dtype=">u2").reshape(h, w).astype(np.float64) / DISP_SCALE
