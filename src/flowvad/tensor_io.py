"""Packed binary tensor files.

Layout: 4-byte magic ``T5v1``, five little-endian uint32 dims in
(batch, channel, time, height, width) order, then the float64 payload in
C order. Arrays of lower rank are left-padded with singleton dims on save;
the stored shape is always exactly five entries.

Saving writes the arrays' own buffers after the header; loading checks the
header and the file size first, then reads the payload straight into the
float64 arrays it returns, so neither side holds a second copy of the tensor.
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

__all__ = ["save_tensor", "write_tensor", "load_tensor", "read_tensor", "MAGIC"]


def save_tensor(path, array) -> None:
    """Write an array (rank <= 5) as a packed tensor file."""
    arr = np.asarray(array, dtype=np.float64)
    if arr.ndim > 5:
        raise ShapeError(f"packed tensor files hold at most 5 dims, got shape {arr.shape}")
    with open(path, "wb") as fh:
        write_tensor(fh, (1,) * (5 - arr.ndim) + arr.shape, [arr])


def write_tensor(fh, dims, arrays) -> None:
    """Write one packed tensor of the 5 ``dims`` to the binary file ``fh``: the
    header, then each array's values in C order, back to back. The arrays must
    hold ``prod(dims)`` values between them."""
    fh.write(_HEADER.pack(MAGIC, *dims))
    for arr in arrays:
        fh.write(np.ascontiguousarray(arr, dtype="<f8"))


def load_tensor(path) -> np.ndarray:
    """`read_tensor`, refusing a tensor that holds a non-finite value."""
    arr = read_tensor(path)
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{path}: stored tensor contains non-finite values")
    return arr


def read_tensor(path, sizes=None):
    """Read a packed tensor file back as a float64 array with its 5-entry
    shape or, given ``sizes``, as a list of flat arrays of those sizes, each
    its own allocation, that must hold the payload exactly between them.

    The header's dims must account for every byte of the file; the payload is
    then read in place into the returned arrays. Its values are not checked.
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
        if sizes is not None and 8 * sum(sizes) != nbytes:
            raise ShapeError(f"{path}: payload holds {nbytes // 8} values, "
                             f"but the sizes to read add up to {sum(sizes)}")
        arrays = [np.empty(shape, dtype="<f8") for shape in ([dims] if sizes is None else sizes)]
        got = sum(fh.readinto(arr.reshape(-1).view(np.uint8)) for arr in arrays)
        if got != nbytes:
            raise ShapeError(f"{path}: payload ends after {got} of {nbytes} bytes")
        if fh.read(1):
            raise ShapeError(f"{path}: trailing bytes after the {nbytes}-byte payload")
    arrays = [arr.astype(np.float64, copy=False) for arr in arrays]  # copies if big-endian
    return arrays[0] if sizes is None else arrays
