"""Binary PGM (P5) and PPM (P6) images, maxval 255.

The header is whitespace-delimited ASCII with ``#`` comments allowed between
tokens; the raster follows the single whitespace byte after maxval. Only the
8-bit binary variants are supported.
"""

import numpy as np

from .errors import ShapeError

__all__ = ["read_pnm", "write_pnm"]


def _tokens(raw, count, path):
    """Yield `count` header tokens starting after the magic, skipping comments.

    Returns (tokens, offset of the byte after the final token's delimiter).
    """
    toks = []
    i = 2  # past the 2-byte magic
    while len(toks) < count:
        if i >= len(raw):
            raise ShapeError(f"{path}: truncated header")
        c = raw[i : i + 1]
        if c == b"#":
            while i < len(raw) and raw[i : i + 1] != b"\n":
                i += 1
            i += 1
        elif c.isspace():
            i += 1
        else:
            start = i
            while i < len(raw) and not raw[i : i + 1].isspace() and raw[i : i + 1] != b"#":
                i += 1
            toks.append(raw[start:i])
    if i >= len(raw) or not raw[i : i + 1].isspace():
        raise ShapeError(f"{path}: missing whitespace after maxval")
    return toks, i + 1


def read_pnm(path):
    """Read a P5/P6 file; returns (H, W) uint8 for P5, (H, W, 3) for P6."""
    with open(path, "rb") as fh:
        raw = fh.read()
    magic = raw[:2]
    if magic not in (b"P5", b"P6"):
        raise ShapeError(f"{path}: unsupported magic {magic!r} (want P5 or P6)")
    toks, offset = _tokens(raw, 3, path)
    try:
        width, height, maxval = (int(t) for t in toks)
    except ValueError:
        raise ShapeError(f"{path}: non-numeric header tokens {toks}") from None
    if maxval != 255:
        raise ShapeError(f"{path}: maxval {maxval} unsupported (only 255)")
    channels = 1 if magic == b"P5" else 3
    need = width * height * channels
    raster = raw[offset : offset + need]
    if len(raster) != need:
        raise ShapeError(f"{path}: raster has {len(raster)} bytes, expected {need}")
    arr = np.frombuffer(raster, dtype=np.uint8)
    if channels == 1:
        return arr.reshape(height, width).copy()
    return arr.reshape(height, width, 3).copy()


def write_pnm(path, image):
    """Write a uint8 image: (H, W) as P5, (H, W, 3) as P6."""
    arr = np.asarray(image)
    if arr.dtype != np.uint8:
        raise ShapeError(f"image dtype must be uint8, got {arr.dtype}")
    if arr.ndim == 2:
        magic = b"P5"
    elif arr.ndim == 3 and arr.shape[2] == 3:
        magic = b"P6"
    else:
        raise ShapeError(f"image shape {arr.shape} is neither (h, w) nor (h, w, 3)")
    h, w = arr.shape[:2]
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (w, h))
        fh.write(np.ascontiguousarray(arr).tobytes())
