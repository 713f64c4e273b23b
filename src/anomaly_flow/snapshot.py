"""Binary field snapshots (ANMF format, version 1).

Layout: magic bytes ``ANMF``, u32 version, u32 component-kind tag, u32
complex_dims, u32 points_per_dim, f64 period, then row-major little-endian
f64 data (re/im interleaved for complex kinds), grid axes ordered
(x1, y1[, x2, y2]) followed by the tensor axes.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import ConfigError
from .grid import PeriodicGrid

MAGIC = b"ANMF"
VERSION = 1

KIND_SCALAR_REAL = 0
KIND_SCALAR_COMPLEX = 1
KIND_HERM3 = 2
KIND_PSI22 = 3
KIND_CURV = 4

# kind -> (tensor axes, little-endian element type); a complex128 element is
# the f64 pair (re, im), so "<c16" reads and writes exactly the layout above
_KINDS = {
    KIND_SCALAR_REAL: ((), "<f8"),
    KIND_SCALAR_COMPLEX: ((), "<c16"),
    KIND_HERM3: ((3, 3), "<c16"),
    KIND_PSI22: ((3, 3), "<c16"),
    KIND_CURV: ((3, 3, 3, 3), "<c16"),
}

_HEADER = struct.Struct("<4sIIIId")


def write_snapshot(path, grid: PeriodicGrid, field: np.ndarray, kind: int) -> None:
    if kind not in _KINDS:
        raise ConfigError(f"unknown snapshot kind {kind}")
    tensor, dtype = _KINDS[kind]
    if tuple(field.shape) != grid.shape + tensor:
        raise ConfigError(f"field shape {field.shape} does not match {grid.shape + tensor}")
    with open(path, "wb") as fh:
        fh.write(
            _HEADER.pack(
                MAGIC, VERSION, kind, grid.complex_dims, grid.points_per_dim, grid.period
            )
        )
        fh.write(np.ascontiguousarray(field, dtype=dtype).tobytes())


def read_snapshot(path):
    """Returns (grid, field, kind); exact roundtrip of write_snapshot."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ConfigError("truncated snapshot header")
        magic, version, kind, cdims, n, period = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ConfigError("not an ANMF snapshot")
        if version != VERSION:
            raise ConfigError(f"unsupported snapshot version {version}")
        if kind not in _KINDS:
            raise ConfigError(f"unknown snapshot kind {kind}")
        grid = PeriodicGrid(cdims, n, period)
        tensor, dtype = _KINDS[kind]
        raw = fh.read()
    if len(raw) != np.dtype(dtype).itemsize * math.prod(grid.shape + tensor):
        raise ConfigError("snapshot data size does not match header")
    return grid, np.frombuffer(raw, dtype=dtype).reshape(grid.shape + tensor).copy(), kind
