"""Binary serialization of rank-4 (batch, channel, row, column) tensors.

Checkpoints store every array as a C-order (B, C, H, W) tensor, so the flat
index of element (b, c, y, x) is ((b*C + c)*H + y)*W + x. On disk a tensor
is four little-endian uint64 dims followed by the little-endian IEEE-754
payload.
"""

from __future__ import annotations

import math
import struct
from typing import BinaryIO

import numpy as np

SUPPORTED_DTYPES = (np.float32, np.float64)

_DIMS_STRUCT = struct.Struct("<4Q")


def write_tensor(f: BinaryIO, t: np.ndarray) -> None:
    """Serialize: four uint64 LE dims, then the flat LE float payload."""
    if not isinstance(t, np.ndarray) or t.ndim != 4:
        raise ValueError(f"expected a rank-4 array, got ndim={getattr(t, 'ndim', None)}")
    if any(d < 1 for d in t.shape):
        raise ValueError(f"all dims must be >= 1, got {t.shape}")
    if t.dtype.type not in SUPPORTED_DTYPES:
        raise TypeError(f"unsupported dtype {t.dtype}")
    f.write(_DIMS_STRUCT.pack(*t.shape))
    f.write(np.ascontiguousarray(t, dtype=t.dtype.newbyteorder("<")).tobytes())


def read_exact(f: BinaryIO, n: int, what: str) -> bytes:
    """Read n bytes, checking a stated length against the bytes left in the
    file first, so a corrupt length field fails before anything is allocated."""
    pos = f.tell()
    left = f.seek(0, 2) - pos
    f.seek(pos)
    if n > left:
        raise ValueError(f"truncated {what}: wanted {n} bytes, {left} left")
    return f.read(n)


def read_tensor(f: BinaryIO, dtype=np.float32) -> np.ndarray:
    """Inverse of write_tensor. The element width is supplied by the caller."""
    dims = _DIMS_STRUCT.unpack(read_exact(f, _DIMS_STRUCT.size, "tensor header"))
    if any(d < 1 for d in dims):
        raise ValueError(f"invalid dims {dims}")
    payload = read_exact(f, math.prod(dims) * np.dtype(dtype).itemsize, "tensor payload")
    arr = np.frombuffer(payload, dtype=np.dtype(dtype).newbyteorder("<")).astype(dtype)
    return arr.reshape(dims)
