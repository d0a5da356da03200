"""Packed binary tensor files.

Layout: 4-byte magic ``T5v1``, five little-endian uint32 dims in
(batch, channel, time, height, width) order, then the float64 payload in
C order. Arrays of lower rank are left-padded with singleton dims on save;
the stored shape is always exactly five entries.

Saving writes the array's own buffer; loading checks the header and the file
size first, then reads the payload straight into the one float64 array it
returns, so neither side holds a second copy of the tensor.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import NumericError, ShapeError

MAGIC = b"T5v1"
_HEADER = struct.Struct("<4s5I")

__all__ = ["save_tensor", "load_tensor", "MAGIC"]


def save_tensor(path, array) -> None:
    """Write an array (rank <= 5) as a packed tensor file."""
    arr = np.asarray(array, dtype=np.float64)
    if arr.ndim > 5:
        raise ShapeError(f"packed tensor files hold at most 5 dims, got shape {arr.shape}")
    dims = (1,) * (5 - arr.ndim) + arr.shape
    payload = np.ascontiguousarray(arr.reshape(dims), dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, *dims))
        fh.write(payload)


def load_tensor(path) -> np.ndarray:
    """Read a packed tensor file back as a float64 array with its 5-entry shape.

    The header's dims must account for every byte of the file; the payload is
    then read in place into the returned array.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ShapeError(f"{path}: truncated header ({len(head)} bytes)")
        magic, *dims = _HEADER.unpack(head)
        if magic != MAGIC:
            raise ShapeError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        nbytes = 8 * math.prod(dims)
        if size - _HEADER.size != nbytes:
            raise ShapeError(
                f"{path}: payload length {size - _HEADER.size} does not match dims {tuple(dims)}"
            )
        arr = np.empty(dims, dtype="<f8")
        got = fh.readinto(arr.reshape(-1).view(np.uint8))
        if got != nbytes:
            raise ShapeError(f"{path}: payload ends after {got} of {nbytes} bytes")
        if fh.read(1):
            raise ShapeError(f"{path}: trailing bytes after the {nbytes}-byte payload")
    arr = arr.astype(np.float64, copy=False)  # a copy only on big-endian hosts
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{path}: stored tensor contains non-finite values")
    return arr
