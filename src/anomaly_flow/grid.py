"""Periodic-lattice complex calculus.

Fields live on a flat torus with 1 or 2 active complex coordinates
(z_j = x_j + i y_j, each real axis carrying N points of period L) and are
constant along the remaining directions of the 3-fold.  Differentiation is
spectral; nonlinear products are dealiased with the two-thirds rule, so the
structural identities being monitored (closedness of i del delbar, of
Tr(R ^ R), balanced preservation) hold at spectral accuracy and any drift is
attributable to time discretization.

Array layout: a field of T-valued data has shape grid.shape + T.shape with
the grid axes ordered (x1, y1[, x2, y2]).  Herm3 fields store omega_{jbar k}
at [..., j, k]; Psi22 fields store Psi^{j kbar} at [..., j, k]; curvature
fields hold only the c x c active slabs, R_{kbar j}^p_q at [..., k, j, p, q]
with k, j < c (shape grid.shape + (c, c, 3, 3)).

Inside the spectral pipeline tensor fields are stored component-first,
T.shape + grid.shape (comp_first), so every grid slab of one component is
contiguous: a band transform is then one gemm per grid axis, and the
pointwise 3x3 algebra runs on grid_first views of the same memory.  Band
coefficients of such a field (band_forward) have shape T.shape + band_shape.

The two band operators, i_ddbar_11 and d on (2,2)-forms, are built from the
oracle alike: a table per derivative, whose nonzero columns are the
components the operator reads (flat indices 3 a + b), and _band_apply sums
each band multiplier times its table applied to the stacked coefficients of
those components.  i del delbar reads and writes the 2x2 block a, b in
{1, 2} at c = 1 and all nine at c = 2 (_iddbar_support), and
band_inverse(rows=) puts a stack back into a whole 3x3 field; d reads row
and column 0 at c = 1 and all but [2, 2] at c = 2 (_d22_blocks), and
d_residual_22 transforms only those: _d22 gives the band coefficients of
d(Psi), and _d22_l2 their norm.  band_l2_norm is l2_norm by Parseval on
band coefficients.

The curvature has one assembly and one trace loop.  _connection_band builds
the band coefficients of omega^{-1} del_j omega one column at a time from
omega^{-1} (_metric_inverse, from the cofactor table) and a source of the
columns of del_j omega; each R slab is the band_inverse of -delbar_k times
one of its components (_curvature_slabs), and _wedge_traces takes Tr(R ^ R)
from a source of R slabs, one pair at a time.  The torus rate
(_band_tr_r_wedge_r) feeds them band coefficients and never holds R or the
connection on the grid; chern_curvature takes the columns from a full-grid
FFT (forward, inverse, on numpy.fft) of a grid field, whose content above
the band counts, and returns the whole R, which tr_r_wedge_r reads as its
slab source.  No CLI command calls either.  Both check the metric with the
one positivity rule, pointwise.assert_positive (alias assert_positive_field).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import exterior
from .pointwise import adjugate_entries, assert_positive, det3

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class PeriodicGrid:
    complex_dims: int
    points_per_dim: int
    period: float = TWO_PI

    def __post_init__(self):
        c, n = self.complex_dims, self.points_per_dim
        if c not in (1, 2):
            raise ValueError(f"complex_dims must be 1 or 2, got {c}")
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"points_per_dim must be a power of two >= 8, got {n}")
        if not 0 < self.period < np.inf:
            raise ValueError(f"period must be positive and finite, got {self.period!r}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_dim,) * (2 * self.complex_dims)

    @property
    def axes(self) -> tuple[int, ...]:
        return tuple(range(2 * self.complex_dims))

    @property
    def spacing(self) -> float:
        return self.period / self.points_per_dim

    @property
    def dealias_kmax(self) -> int:
        return self.points_per_dim // 3

    @property
    def band_shape(self) -> tuple[int, ...]:
        """Shape of the complex band coefficients of a scalar field (see band_forward)."""
        return (2 * self.dealias_kmax + 1,) * (2 * self.complex_dims)

    def coords(self) -> list[np.ndarray]:
        """Broadcastable coordinate arrays, ordered (x1, y1[, x2, y2])."""
        n, naxes = self.points_per_dim, 2 * self.complex_dims
        x = np.arange(n) * self.spacing
        return [
            x.reshape((1,) * i + (n,) + (1,) * (naxes - i - 1)) for i in range(naxes)
        ]


def _band_k(grid: PeriodicGrid) -> np.ndarray:
    """Integer wavenumbers of the band |k_int| <= N//3 in FFT order (0..m, -m..-1)."""
    m = grid.dealias_kmax
    return np.concatenate([np.arange(m + 1), np.arange(-m, 0)])


def _axis_k(grid: PeriodicGrid, axis: int, band: bool = False) -> np.ndarray:
    n, naxes = grid.points_per_dim, 2 * grid.complex_dims
    kint = _band_k(grid) if band else np.fft.fftfreq(n, d=1.0 / n)
    k = TWO_PI / grid.period * kint
    return k.reshape((1,) * axis + (-1,) + (1,) * (naxes - axis - 1))


@lru_cache(maxsize=None)
def _symbols(grid: PeriodicGrid, band: bool = False):
    """(dz, dzbar) multiplier arrays per active complex coordinate.

    On a mode e^{i k.x} they are i xi_j and i conj(xi_j), with xi_j =
    (k_{x_j} - i k_{y_j})/2 the README's k -> xi map.  On the full spectrum
    (grid.shape), or on the band (grid.band_shape, the same values
    restricted to the kept modes).
    """
    dz_syms, dzb_syms = [], []
    for j in range(grid.complex_dims):
        kx = _axis_k(grid, 2 * j, band)
        ky = _axis_k(grid, 2 * j + 1, band)
        dz_syms.append((1j * kx + ky) / 2.0)
        dzb_syms.append((1j * kx - ky) / 2.0)
    return dz_syms, dzb_syms


def _bcast(sym: np.ndarray, f_ndim: int, grid: PeriodicGrid) -> np.ndarray:
    """Pad a grid-shaped multiplier with trailing tensor axes."""
    extra = f_ndim - 2 * grid.complex_dims
    return sym.reshape(sym.shape + (1,) * extra)


def forward(grid: PeriodicGrid, f: np.ndarray) -> np.ndarray:
    """Full-grid FFT over the grid axes; only chern_curvature takes one."""
    return np.fft.fftn(f, axes=grid.axes)


def inverse(grid: PeriodicGrid, fhat: np.ndarray) -> np.ndarray:
    """Inverse of forward."""
    return np.fft.ifftn(fhat, axes=grid.axes)


def along_axis(mat: np.ndarray, f: np.ndarray, axis: int) -> np.ndarray:
    """Apply a dense (n_out, n_in) matrix along one (nonnegative) axis of f."""
    shape = f.shape
    if axis == f.ndim - 1:
        out = f.reshape(-1, shape[-1]) @ mat.T
    else:
        out = np.matmul(mat, f.reshape(math.prod(shape[:axis]), shape[axis], -1))
    return out.reshape(shape[:axis] + (mat.shape[0],) + shape[axis + 1 :])


@lru_cache(maxsize=None)
def diff_matrix(grid: PeriodicGrid, order: int) -> np.ndarray:
    """Spectral d/dx (order 1) or d^2/dx^2 (order 2) along one grid axis.

    The dense circulant matrix of the Fourier multiplier (i k)^order, so
    along_axis with it equals the transform-multiply-invert derivative.  For
    order 1 the Nyquist bin gets multiplier 0: one factor of i k has no
    real-valued counterpart there.  Order 2 keeps -k^2 on every bin.
    """
    n = grid.points_per_dim
    kint = np.fft.fftfreq(n, d=1.0 / n)
    k = TWO_PI / grid.period * kint
    if order == 1:
        sym = np.where(np.abs(kint) == n // 2, 0.0, 1j * k)
    elif order == 2:
        sym = -(k**2)
    else:
        raise ValueError(f"order must be 1 or 2, got {order}")
    mat = np.fft.ifft(sym[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0).real
    mat.flags.writeable = False
    return mat


@lru_cache(maxsize=None)
def _band_matrices(grid: PeriodicGrid):
    """Dense partial DFTs between N grid samples and the band |k_int| <= N//3.

    Returns (fwd, inv, rfwd, rinv): the forward (K, N) and inverse (N, K)
    complex matrices of a full axis, with the band in FFT order
    (0..m, -m..-1), and the real (2H, N) and (N, 2H) matrices of the last
    (half) axis, whose H = m + 1 bins are stored as interleaved (re, im).
    """
    n, m = grid.points_per_dim, grid.dealias_kmax
    x = np.arange(n)
    k = _band_k(grid)
    # reduce k*x mod n in integers so the phases are exact to an ulp
    fwd = np.exp(-1j * (TWO_PI / n) * (np.outer(k, x) % n))
    inv = fwd.conj().T / n
    th = (TWO_PI / n) * (np.outer(np.arange(m + 1), x) % n)
    rfwd = np.empty((2 * (m + 1), n))
    rfwd[0::2] = np.cos(th)
    rfwd[1::2] = -np.sin(th)
    # bins 1..m of the half axis stand for the modes +-k
    wt = np.full(m + 1, 2.0 / n)
    wt[0] = 1.0 / n
    rinv = np.empty((n, 2 * (m + 1)))
    rinv[:, 0::2] = wt * np.cos(th).T
    rinv[:, 1::2] = -wt * np.sin(th).T
    for mat in (fwd, inv, rfwd, rinv):
        mat.flags.writeable = False
    return fwd, inv, rfwd, rinv


_CHUNK_BYTES = 1 << 20  # grid data per band-transform chunk: about one core's L2 cache


def _row_index(rows) -> slice | list:
    """An index of the leading axis for sorted row numbers: a slice, which gives a
    view and no copy, when they are consecutive, else the list of them."""
    rows = list(rows)
    return slice(rows[0], rows[-1] + 1) if rows[-1] - rows[0] == len(rows) - 1 else rows


def _band_complex(grid: PeriodicGrid, mat: np.ndarray, f: np.ndarray, rows=None) -> np.ndarray:
    """mat along each of the 2c trailing (grid) axes of a complex field.

    The leading (component) axes are taken a chunk at a time, so that each
    chunk's transforms run in cache; the last axis goes first, as one gemm.
    With rows (flat indices 3 a + b), f stacks those components of a 3x3
    field, and each chunk is written to its rows of the whole field,
    (3, 3) + grid axes, whose other components are exact zeros.
    """
    naxes = 2 * grid.complex_dims
    n_in, n_out = f.shape[-1], mat.shape[0]
    flat = np.ascontiguousarray(f).reshape((-1,) + (n_in,) * naxes)
    lead = f.shape[:-naxes] if rows is None else (3, 3)
    dest = list(range(flat.shape[0]) if rows is None else rows)
    out = np.empty((math.prod(lead),) + (n_out,) * naxes, dtype=complex)
    out[[i for i in range(len(out)) if i not in dest]] = 0.0
    step = max(1, _CHUNK_BYTES // (16 * max(n_in, n_out) ** naxes))
    for i in range(0, flat.shape[0], step):
        y = along_axis(mat, flat[i : i + step], naxes)
        for ax in range(1, naxes):
            y = along_axis(mat, y, ax)
        out[_row_index(dest[i : i + step])] = y
    return out.reshape(lead + out.shape[1:])


def band_forward(grid: PeriodicGrid, f: np.ndarray) -> np.ndarray:
    """Two-thirds-rule spectrum of a field, computing no other modes.

    The unnormalized DFT of f on |k_int| <= N//3 along its last 2c axes (the
    grid axes; any leading axes are components, as in comp_first storage),
    by dense partial DFTs, one gemm per axis.  A real field's last axis is a
    half spectrum (bins 0..N//3); a complex field keeps the full band on
    every axis, in FFT order (0..m, -m..-1), shape f.shape[:-2c] +
    grid.band_shape.
    """
    fwd, _, rfwd, _ = _band_matrices(grid)
    if np.iscomplexobj(f):
        return _band_complex(grid, fwd, f)
    last = f.ndim - 1
    y = along_axis(rfwd, np.ascontiguousarray(f, dtype=float), last).view(complex)
    for ax in range(f.ndim - 2 * grid.complex_dims, last):
        y = along_axis(fwd, y, ax)
    return y


def band_inverse(grid: PeriodicGrid, chat: np.ndarray, rows=None) -> np.ndarray:
    """The field whose spectrum is chat on the band (see band_forward) and zero elsewhere.

    A last axis of N//3 + 1 bins is a real field's half spectrum and gives
    a real field; a full band (2 (N//3) + 1 bins) gives a complex one.  For
    a complex band, rows (flat indices 3 a + b) says which components of a
    3x3 field chat stacks: the result is then the whole field,
    component-first (3, 3) + grid.shape, with exact zeros in the others.
    """
    _, inv, _, rinv = _band_matrices(grid)
    if chat.shape[-1] != grid.dealias_kmax + 1:
        return _band_complex(grid, inv, chat, rows)
    last = chat.ndim - 1
    y = chat
    for ax in range(last - 1, chat.ndim - 2 * grid.complex_dims - 1, -1):
        y = along_axis(inv, y, ax)
    return along_axis(rinv, np.ascontiguousarray(y).view(np.float64), last)


def comp_first(f: np.ndarray, ncomp: int = 2) -> np.ndarray:
    """Component-first storage of a grid.shape + T field: its ncomp tensor axes
    moved to the front, contiguous (no copy if f is a grid_first view)."""
    return np.ascontiguousarray(np.moveaxis(f, tuple(range(-ncomp, 0)), tuple(range(ncomp))))


def grid_first(f: np.ndarray, ncomp: int = 2) -> np.ndarray:
    """The grid.shape + T view of component-first storage (no copy)."""
    return np.moveaxis(f, tuple(range(ncomp)), tuple(range(-ncomp, 0)))


def dealias(grid: PeriodicGrid, f: np.ndarray) -> np.ndarray:
    """Two-thirds rule: zero all modes with any |k_int| > N//3.

    f is a grid.shape + T field, real or complex; a band transform each way.
    """
    ncomp = f.ndim - 2 * grid.complex_dims
    return grid_first(band_inverse(grid, band_forward(grid, comp_first(f, ncomp))), ncomp)


def grid_mean(grid: PeriodicGrid, f: np.ndarray):
    return f.mean(axis=grid.axes)


def l2_norm(grid: PeriodicGrid, field: np.ndarray) -> float:
    """sqrt of the grid average of the summed squared tensor components."""
    naxes = 2 * grid.complex_dims
    comp_axes = tuple(range(naxes, field.ndim))
    return float(np.sqrt(np.mean(np.sum(np.abs(field) ** 2, axis=comp_axes))))


def band_l2_norm(grid: PeriodicGrid, chat: np.ndarray) -> float:
    """l2_norm of band_inverse(grid, chat), by Parseval on the band coefficients.

    The coefficients are unnormalized DFTs, so a full complex band gives
    sqrt(sum |chat|^2) / prod(grid.shape); on a real field's half spectrum
    the bins 1..N//3 of the last axis stand for the modes +-k and count
    twice.  The leading axes are components and are summed over.
    """
    sq = np.vdot(chat, chat).real
    if chat.shape[-1] == grid.dealias_kmax + 1:
        bin0 = np.ascontiguousarray(chat[..., 0])
        sq = 2.0 * sq - np.vdot(bin0, bin0).real
    return float(np.sqrt(sq) / math.prod(grid.shape))


# the benchmark's traced list (perfbench/child.py) names the grid's positivity check
assert_positive_field = assert_positive


@lru_cache(maxsize=None)
def _iddbar_gemm_table():
    """w[l, m] reshaped so that flat(d2) @ table[l, m] sums d2[.., k, j] w[l, m, j, k, a, b]."""
    w = exterior.wedge22_table()
    table = np.empty((3, 3, 9, 9), dtype=complex)
    for l in range(3):
        for m in range(3):
            table[l, m] = np.transpose(w[l, m], (1, 0, 2, 3)).reshape(9, 9)
    return table


@lru_cache(maxsize=None)
def _iddbar_support(c: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(reads, writes) of i del delbar at c active dims, read from the oracle's table.

    reads are the flat indices 3 j + k of the Herm3 entries omega_{jbar k}
    that some table entry takes in, writes the flat indices 3 a + b of the
    Psi22 entries that some table entry reaches.  At c = 1 both are the
    2x2 block a, b in {1, 2}; at c = 2 both are all nine.
    """
    nonzero = np.any(_iddbar_gemm_table()[:c, :c] != 0, axis=(0, 1))
    return (tuple(np.flatnonzero(nonzero.any(axis=1)).tolist()),
            tuple(np.flatnonzero(nonzero.any(axis=0)).tolist()))


@lru_cache(maxsize=None)
def _iddbar_blocks(c: int) -> np.ndarray:
    """The gemm table restricted to (writes, reads) at c active dims, one block per
    (l, m) < c in np.ndindex order: blocks[c l + m] @ (stacked coefficients of the
    reads) gives those of the writes."""
    reads, writes = _iddbar_support(c)
    table = _iddbar_gemm_table()[:c, :c].reshape(c * c, 9, 9)
    blocks = np.ascontiguousarray(np.swapaxes(table[:, reads][:, :, writes], -1, -2))
    blocks.flags.writeable = False
    return blocks


def _band_apply(grid: PeriodicGrid, blocks, mults, chat: np.ndarray) -> np.ndarray:
    """sum over i of mults[i] * (blocks[i] @ chat), term by term: gemm, multiply by the
    band multiplier, accumulate.  chat stacks (blocks.shape[-1],) + grid.band_shape
    coefficients; the result is (blocks.shape[-2],) + grid.band_shape."""
    flat = chat.reshape(blocks.shape[-1], -1)
    out = None
    for block, mult in zip(blocks, mults):
        term = (block @ flat).reshape((block.shape[0],) + grid.band_shape)
        term *= mult
        out = term if out is None else np.add(out, term, out=out)
    return out


def i_ddbar_11(grid: PeriodicGrid, ohat: np.ndarray) -> np.ndarray:
    """Band coefficients of i del delbar of a Herm3 field, assembled as a Psi22 field.

    ohat stacks the component-first band coefficients of the entries the
    operator reads (_iddbar_support), (len(reads),) + grid.band_shape, and
    the result those of the entries it writes, (len(writes),) +
    grid.band_shape; at c = 2 both are all nine, and reshape((3, 3) +
    grid.band_shape) gives the 3x3 layout.  Linear in the input, hence
    exactly d-closed at the discrete level; the gemm table commutes with
    the transform.
    """
    c = grid.complex_dims
    dz, dzb = _symbols(grid, band=True)
    return _band_apply(grid, _iddbar_blocks(c), [dz[l] * dzb[m] for l, m in np.ndindex(c, c)], ohat)


def _metric_inverse(omega: np.ndarray) -> np.ndarray:
    """omega^{-1} = adj(omega) / det3(omega) of a component-first Herm3 field, (3, 3) + grid.shape."""
    pinv = adjugate_entries(omega.reshape((9,) + omega.shape[2:]), range(9))
    pinv /= det3(grid_first(omega))
    return pinv.reshape(omega.shape)


def _connection_band(grid: PeriodicGrid, pinv: np.ndarray, d_omega) -> np.ndarray:
    """Band coefficients of omega^{-1} del_j omega, (c, 3, 3) + grid.band_shape.

    pinv is omega^{-1}, component-first, and d_omega(j, s) gives column s of
    del_j omega on the grid, (3,) + grid.shape.  One column is alive at a
    time: its 3 slabs are multiplied by pinv and band-forwarded, so the
    product is dealiased and never held whole on the grid.
    """
    c = grid.complex_dims
    ahat = np.empty((c, 3, 3) + grid.band_shape, dtype=complex)
    for j, s in np.ndindex(c, 3):
        ahat[j, :, s] = band_forward(grid, np.einsum("pq...,q...->p...", pinv, d_omega(j, s)))
    return ahat


def _curvature_slabs(grid: PeriodicGrid, ahat: np.ndarray):
    """The slab source of R from the connection's band coefficients: slab(k, j, p, s)
    is R_{kbar j}^p_s, the band_inverse of -delbar_k times ahat[j, p, s]."""
    _, dzb = _symbols(grid, band=True)

    def slab(k, j, p, s):
        # -delbar_k: negating the multiplier negates the transform exactly
        return band_inverse(grid, ahat[j, p, s] * -dzb[k])

    return slab


def chern_curvature(grid: PeriodicGrid, omega_field: np.ndarray) -> np.ndarray:
    """Chern curvature R_{kbar j}^p_q = -del_kbar((omega^{-1} del_j omega)^p_q).

    The metric field must pass the positivity rule (pointwise.assert_positive).
    Only the active slabs are returned: shape grid.shape + (c, c, 3, 3);
    every component with an inactive k or j is zero.  The result is a
    grid_first view of component-first storage (c, c, 3, 3) + grid.shape,
    so each slab R_{kbar j}^p_q is contiguous.

    omega_field is grid-valued and takes one full transform for del_j, so
    its content outside the band counts.  omega^{-1} del_j omega is built by
    _connection_band, as the torus rate builds it from band coefficients,
    and each slab is the band_inverse of -delbar_k times that band
    (_curvature_slabs).
    """
    c = grid.complex_dims
    assert_positive(omega_field, "metric field")
    fhat = forward(grid, omega_field)
    dz, _ = _symbols(grid)

    def d_omega(j, s):
        return np.moveaxis(inverse(grid, fhat[..., s] * _bcast(dz[j], fhat.ndim - 1, grid)), -1, 0)

    slab = _curvature_slabs(grid, _connection_band(grid, _metric_inverse(comp_first(omega_field)), d_omega))
    r = np.empty((c, c, 3, 3) + grid.shape, dtype=complex)
    for k, j, p, s in np.ndindex(r.shape[:4]):
        r[k, j, p, s] = slab(k, j, p, s)
    return grid_first(r, 4)


def _wedge_terms(c: int):
    """Distinct traces in Tr(R ^ R) at c active dims, read from the oracle.

    Each nonzero quad (j, k, l, m) of wedge22_table contributes
    tr(R_{kbar j} R_{mbar l}) W[j, k, l, m]; quads whose traces are equal by
    tr(AB) = tr(BA) are merged.  Returns (terms, comps): terms is a list of
    ((k, j), (m, l), weight) with weight the summed 3x3 table entries, and
    comps the (a, b) output components that some weight reaches.  Both are
    empty when the table has no term at c (c = 1).
    """
    w = exterior.wedge22_table()[:c, :c, :c, :c]
    merged: dict[tuple, np.ndarray] = {}
    for j, k, l, m in zip(*np.nonzero(np.any(w, axis=(-2, -1)))):
        key = tuple(sorted(((int(k), int(j)), (int(m), int(l)))))
        merged[key] = merged.get(key, 0) + w[j, k, l, m]
    terms = [(a, b, wt) for (a, b), wt in merged.items() if np.any(wt)]
    comps = sorted({ab for _, _, wt in terms for ab in zip(*np.nonzero(wt))})
    return terms, comps


def _wedge_traces(grid: PeriodicGrid, slab, spectral: bool) -> np.ndarray:
    """Tr(R ^ R) from a slab source, one pair of R slabs at a time.

    slab(k, j, p, s) gives R_{kbar j}^p_s on the grid.  For each term of
    _wedge_terms, tr(R_{kbar j} R_{mbar l}) is accumulated over (p, s) from
    the slabs R_{kbar j}^p_s and R_{mbar l}^s_p alone, and only the output
    components that the weights reach are kept.  The product is dealiased:
    the result is the component-first grid field, (3, 3) + grid.shape, or
    with spectral its band coefficients, (3, 3) + grid.band_shape.
    """
    terms, comps = _wedge_terms(grid.complex_dims)
    if terms:
        vals = np.zeros((len(comps),) + grid.shape, dtype=complex)
        tr, prod = np.empty(grid.shape, dtype=complex), np.empty(grid.shape, dtype=complex)
        for (k, j), (m, l), wt in terms:
            tr[...] = 0.0
            for p, s in np.ndindex(3, 3):
                tr += np.multiply(slab(k, j, p, s), slab(m, l, s, p), out=prod)
            for i, (a, b) in enumerate(comps):
                if wt[a, b] != 0:
                    vals[i] += wt[a, b] * tr
        del tr, prod
        if spectral:
            vals = band_forward(grid, vals)
        else:
            vals = comp_first(dealias(grid, grid_first(vals, 1)), 1)
    out = np.zeros((3, 3) + (grid.band_shape if spectral else grid.shape), dtype=complex)
    for i, (a, b) in enumerate(comps):
        out[a, b] = vals[i]
    return out


def tr_r_wedge_r(grid: PeriodicGrid, r_field: np.ndarray) -> np.ndarray:
    """Pointwise Tr(R ^ R) as a Psi22 field (dealiased product).

    r_field may be compact (grid.shape + (c, c, 3, 3), as chern_curvature
    returns it) or dense (grid.shape + (3, 3, 3, 3)); only its active slabs
    are read.  Only the traces and output components that the oracle's
    wedge table can make nonzero are computed and dealiased, by band
    transforms, in the trace loop the torus rate runs (_wedge_traces).
    """
    r = np.moveaxis(r_field, (-4, -3, -2, -1), (0, 1, 2, 3))
    return grid_first(_wedge_traces(grid, lambda k, j, p, s: r[k, j, p, s], spectral=False))


def _band_tr_r_wedge_r(grid: PeriodicGrid, ohat: np.ndarray, base: np.ndarray, gate: bool) -> np.ndarray:
    """Band coefficients of Tr(R ^ R) of the band-limited metric omega_d, streamed.

    omega_d = band_inverse(ohat) + base, with ohat the component-first band
    coefficients (3, 3) + grid.band_shape and base a constant (3, 3) + (1,)
    * 2c.  gate applies the positivity rule to omega_d, naming the metric
    field.  Its inverse is built once (_metric_inverse), del_j omega is a
    multiplier on ohat, and _connection_band takes omega^{-1} del_j omega
    one column at a time; then _wedge_traces band-inverts R one pair of
    slabs at a time (_curvature_slabs), so neither is ever whole on the
    grid.  The result is component-first, (3, 3) + grid.band_shape.
    """
    omega_d = band_inverse(grid, ohat)
    omega_d += base
    if gate:
        assert_positive(grid_first(omega_d), "metric field")
    pinv = _metric_inverse(omega_d)
    del omega_d
    dz, _ = _symbols(grid, band=True)
    ahat = _connection_band(grid, pinv, lambda j, s: band_inverse(grid, ohat[:, s] * dz[j]))
    del pinv
    return _wedge_traces(grid, _curvature_slabs(grid, ahat), spectral=True)


@lru_cache(maxsize=None)
def _d22_blocks(c: int):
    """(rows, blocks) of d on Psi22 fields at c active dims, read from the oracle.

    blocks[2 j] and blocks[2 j + 1] are the tables of del_j and delbar_j
    (j < c), which wedge dz^j, resp. dzbar^j, into each exterior.form22_basis
    monomial (exterior._merge): entry [i, r] is the wedge's sign times the
    basis coefficient of rows[r] (a flat index 3 a + b) on the i-th 5-form key,
    in the order the wedges first reach the keys.  rows are the entries some
    wedge reaches: row and column 0 at c = 1, all but [2, 2] at c = 2.
    """
    gens = [g for j in range(c) for g in (j, j + 3)]
    hits = [(i, 3 * a + b, m, coeff) for (a, b), (key, coeff) in exterior.form22_basis().items()
            for i, g in enumerate(gens) if (m := exterior._merge((g,), key)) is not None]
    keys = list(dict.fromkeys(m[0] for _, _, m, _ in hits))
    rows = tuple(sorted({r for _, r, _, _ in hits}))
    blocks = np.zeros((len(gens), len(keys), len(rows)))
    for i, r, (key, sign), coeff in hits:
        blocks[i, keys.index(key), rows.index(r)] = sign * coeff
    blocks.flags.writeable = False
    return rows, blocks


def _d22(grid: PeriodicGrid, psi_field: np.ndarray) -> np.ndarray:
    """Band coefficients of the 5-form d of a Psi22 field, (6,) + grid.band_shape.
    Each row d reads (_d22_blocks) is shifted by its value at grid index 0, so
    that d of a constant is exactly zero, and band transformed; d is applied as
    i_ddbar_11 is (_band_apply)."""
    c = grid.complex_dims
    rows, blocks = _d22_blocks(c)
    psi = comp_first(psi_field).reshape((9,) + grid.shape)[_row_index(rows)]
    base = psi[(slice(None),) + (slice(1),) * (2 * c)]
    return _band_apply(grid, blocks, [m for dz_dzb in zip(*_symbols(grid, band=True)) for m in dz_dzb],
                       band_forward(grid, np.subtract(psi, base, dtype=complex)))


def d_residual_22(grid: PeriodicGrid, psi_field: np.ndarray) -> float:
    """Relative L2 size of d(Psi) for a band-limited Psi22 field.

    One complex band transform of the components d reads (_d22_blocks: 5 of
    9 at c = 1, 8 at c = 2), d applied on the band from the oracle's table
    (_d22), and the L2 norm of the 5-form by Parseval, normalized by the L2
    norm of Psi's own monomial coefficients.  Content above N//3 is not
    seen.  Zero field returns 0.
    """
    return _d22_residual(grid, psi_field, _d22_l2(grid, _d22(grid, psi_field)))


def _d22_l2(grid: PeriodicGrid, dhat: np.ndarray) -> float:
    """L2 norm of the 5-form with band coefficients dhat, by Parseval."""
    return np.sqrt(np.sum(np.abs(dhat) ** 2)) / math.prod(grid.shape)


def _d22_residual(grid: PeriodicGrid, psi_field: np.ndarray, num: float) -> float:
    """d_residual_22 from num, the L2 norm of d(Psi) (_d22_l2)."""
    den = 2.0 * l2_norm(grid, psi_field)
    return 0.0 if den == 0.0 else float(num / den)


def random_bandlimited_herm3(grid: PeriodicGrid, rng, kmax: int, amplitude: float = 1.0) -> np.ndarray:
    """Hermitian-matrix-valued band-limited field (mean zero): three random modes."""
    kmax = min(kmax, grid.dealias_kmax)
    xs = grid.coords()
    out = np.zeros(grid.shape + (3, 3), dtype=complex)
    for _ in range(3):
        k = rng.integers(-kmax, kmax + 1, size=len(xs))
        if not np.any(k):
            k[0] = 1
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        arg = sum(TWO_PI / grid.period * ki * x for ki, x in zip(k, xs))
        e = np.exp(1j * arg)
        ec, ah = np.conj(e), a.conj().T
        for i, j in np.ndindex(3, 3):  # out + e a + conj(e) a^H, in that order, one entry at a time
            out[..., i, j] += e * a[i, j]
            out[..., i, j] += ec * ah[i, j]
    out *= amplitude / 3
    return out
