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

_TENSOR_SHAPE = {
    KIND_SCALAR_REAL: (),
    KIND_SCALAR_COMPLEX: (),
    KIND_HERM3: (3, 3),
    KIND_PSI22: (3, 3),
    KIND_CURV: (3, 3, 3, 3),
}
_IS_COMPLEX = {
    KIND_SCALAR_REAL: False,
    KIND_SCALAR_COMPLEX: True,
    KIND_HERM3: True,
    KIND_PSI22: True,
    KIND_CURV: True,
}

_HEADER = struct.Struct("<4sIIIId")


def write_snapshot(path, grid: PeriodicGrid, field: np.ndarray, kind: int) -> None:
    if kind not in _TENSOR_SHAPE:
        raise ConfigError(f"unknown snapshot kind {kind}")
    expected = grid.shape + _TENSOR_SHAPE[kind]
    if tuple(field.shape) != expected:
        raise ConfigError(f"field shape {field.shape} does not match {expected}")
    with open(path, "wb") as fh:
        fh.write(
            _HEADER.pack(
                MAGIC, VERSION, kind, grid.complex_dims, grid.points_per_dim, grid.period
            )
        )
        if _IS_COMPLEX[kind]:
            data = np.ascontiguousarray(field, dtype=complex)
            inter = np.empty(data.shape + (2,), dtype="<f8")
            inter[..., 0] = data.real
            inter[..., 1] = data.imag
            fh.write(inter.tobytes())
        else:
            fh.write(np.ascontiguousarray(field, dtype="<f8").tobytes())


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
        if kind not in _TENSOR_SHAPE:
            raise ConfigError(f"unknown snapshot kind {kind}")
        grid = PeriodicGrid(cdims, n, period)
        shape = grid.shape + _TENSOR_SHAPE[kind]
        raw = fh.read()
    if len(raw) != 8 * (2 if _IS_COMPLEX[kind] else 1) * math.prod(shape):
        raise ConfigError("snapshot data size does not match header")
    if _IS_COMPLEX[kind]:
        flat = np.frombuffer(raw, dtype="<f8").reshape(shape + (2,))
        field = flat[..., 0] + 1j * flat[..., 1]
    else:
        field = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    return grid, field, kind
