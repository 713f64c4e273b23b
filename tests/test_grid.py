"""Spectral calculus on the periodic lattice."""

import math
import tracemalloc

import numpy as np
import pytest

from anomaly_flow import exterior as ex
from anomaly_flow import grid as gr
from anomaly_flow import pointwise as pw
from anomaly_flow import sampling as samp
from anomaly_flow.errors import PositivityError
from anomaly_flow.flow import make_balanced_omega0

G1 = gr.PeriodicGrid(1, 64)
G2 = gr.PeriodicGrid(2, 16)
RNG = np.random.default_rng(11)


def const_herm3(grid, m):
    return np.broadcast_to(np.asarray(m, dtype=complex), grid.shape + (3, 3)).copy()


def test_grid_validation():
    with pytest.raises(ValueError):
        gr.PeriodicGrid(3, 16)
    with pytest.raises(ValueError):
        gr.PeriodicGrid(1, 24)
    with pytest.raises(ValueError):
        gr.PeriodicGrid(1, 4)


def _apply(grid, sym, f):
    """A scalar field's spectrum times one multiplier, transformed with numpy alone."""
    axes = tuple(range(2 * grid.complex_dims))
    return np.fft.ifftn(sym * np.fft.fftn(f, axes=axes), axes=axes)


# gr._symbols holds the del_j/delbar_j multipliers of the grid-valued chern_curvature,
# and on the band those of i_ddbar_11 and d_residual_22; the next four tests pin their
# convention on G1 (z = x + i y).


def test_diff_constant_is_zero():
    dz, dzb = gr._symbols(G1)
    for sym in dz + dzb:
        assert np.abs(_apply(G1, sym, np.ones(G1.shape))).max() == 0


def test_diff_fourier_eigenvalue():
    x, y = G1.coords()
    k, l = 3, -2
    f = np.exp(1j * (k * x + l * y)) * np.ones(G1.shape)
    (dz,), (dzb,) = gr._symbols(G1)
    np.testing.assert_allclose(_apply(G1, dz, f), (1j * k + l) / 2 * f, atol=1e-12)
    np.testing.assert_allclose(_apply(G1, dzb, f), (1j * k - l) / 2 * f, atol=1e-12)


def test_diff_conjugation_rule():
    x, y = G1.coords()
    f = (np.cos(2 * x) + np.sin(y) * np.cos(x)).astype(complex)
    (dz,), (dzb,) = gr._symbols(G1)
    np.testing.assert_allclose(_apply(G1, dzb, np.conj(f)), np.conj(_apply(G1, dz, f)), atol=1e-13)


def test_spectral_exactness():
    # band-limited fields are differentiated to near machine precision
    x, y = G1.coords()
    f = np.sin(3 * x) * np.cos(2 * y)
    exact = 0.5 * (3 * np.cos(3 * x) * np.cos(2 * y) + 2j * np.sin(3 * x) * np.sin(2 * y))
    (dz,), _ = gr._symbols(G1)
    np.testing.assert_allclose(_apply(G1, dz, f), exact * np.ones(G1.shape), atol=1e-12)


def _band_i_ddbar(grid, wf):
    """i_ddbar_11 of a grid Herm3 field's band coefficients, back on the grid."""
    reads, writes = gr._iddbar_support(grid.complex_dims)
    ohat = gr.band_forward(grid, gr.comp_first(np.asarray(wf, dtype=complex)).reshape((9,) + grid.shape)[list(reads)])
    return gr.grid_first(gr.band_inverse(grid, gr.i_ddbar_11(grid, ohat), rows=writes))


def test_i_ddbar_conformal_closed_form():
    # e^phi is not band-limited: i_ddbar_11 acts on its two-thirds band
    x, y = G1.coords()
    phi = 0.1 * np.cos(x) * np.ones(G1.shape) + 0.05 * np.sin(x + 2 * y)
    ephi = np.exp(phi)
    wf = ephi[..., None, None] * np.eye(3)
    out = _band_i_ddbar(G1, wf)
    dz, dzb, mask = _numpy_symbols(G1)
    d11 = _apply(G1, (mask * dz[0] * dzb[0])[..., 0, 0], ephi)
    np.testing.assert_allclose(out[..., 1, 1], d11 / 2, atol=1e-12)
    np.testing.assert_allclose(out[..., 2, 2], d11 / 2, atol=1e-12)
    assert np.abs(out[..., 0, 0]).max() < 1e-14
    assert np.abs(out[..., 0, 1]).max() < 1e-14


def test_i_ddbar_is_closed_and_exact():
    wf = const_herm3(G1, 2 * np.eye(3)) + gr.random_bandlimited_herm3(G1, RNG, 5, 0.3)
    psi = _band_i_ddbar(G1, wf)
    base = const_herm3(G1, np.eye(3))
    assert gr.d_residual_22(G1, psi + base) < 1e-10
    # zero mode of an exact form vanishes identically
    assert np.abs(gr.grid_mean(G1, psi)).max() < 1e-14


def test_d_residual_detects_nonclosed():
    x, _ = G1.coords()
    psi = const_herm3(G1, np.eye(3))
    bad = psi.copy()
    bad[..., 0, 1] += 0.3 * np.exp(1j * x) * np.ones(G1.shape)
    bad[..., 1, 0] += 0.3 * np.exp(-1j * x) * np.ones(G1.shape)
    assert gr.d_residual_22(G1, psi) < 1e-15
    assert gr.d_residual_22(G1, bad) > 1e-2


def test_d_residual_zero_field():
    assert gr.d_residual_22(G1, np.zeros(G1.shape + (3, 3))) == 0.0


def _d22_hand_tables():
    """The assembly data d_residual_22 once used: conv[a, b] the basis coefficient of
    Q[a, b], and hol[a][b], ah[a][b] the (5-form key index, sign) of dz^{a+1}, resp.
    dzbar^{b+1}, wedged into its monomial, keys indexed in the order first met."""
    conv = np.zeros((3, 3))
    keys, hol, ah = {}, [[None] * 3 for _ in range(3)], [[None] * 3 for _ in range(3)]
    for (a, b), (key, coeff) in ex.form22_basis().items():
        conv[a, b] = coeff
        for table, gen in ((hol, a), (ah, b + 3)):
            k5, s = ex._merge((gen,), key)
            table[a][b] = (keys.setdefault(k5, len(keys)), s)
    return conv, hol, ah


def _d_nine(grid, psi_field):
    """(band coefficients of d(Psi), d_residual_22) with all nine components
    band-transformed and d assembled by the hand rule "del_j hits row j, delbar_j
    column j", as it was.  Each term is coefficient times band coefficient times
    multiplier, in the program's order: numpy's complex multiply need not commute
    bit for bit."""
    conv, hol, ah = _d22_hand_tables()
    dz_syms, dzb_syms = gr._symbols(grid, band=True)
    psi = gr.comp_first(np.asarray(psi_field, dtype=complex))
    phat = gr.band_forward(grid, psi - psi[(Ellipsis,) + (slice(1),) * (2 * grid.complex_dims)])
    comps = np.zeros((6,) + grid.band_shape, dtype=complex)
    for j in range(grid.complex_dims):
        for b in range(3):
            idx, s = hol[j][b]
            comps[idx] += ((conv[j, b] * s) * phat[j, b]) * dz_syms[j]
        for a in range(3):
            idx, s = ah[a][j]
            comps[idx] += ((conv[a, j] * s) * phat[a, j]) * dzb_syms[j]
    num = np.sqrt(np.sum(np.abs(comps) ** 2)) / math.prod(grid.shape)
    return comps, float(num / (2.0 * gr.l2_norm(grid, psi_field)))


@pytest.mark.parametrize("c", [1, 2])
def test_d22_rows_come_from_the_oracle(c):
    # the rows d reads are the table's nonzero columns: row and column 0 at c = 1, all
    # but [2, 2] at c = 2; each entry is the wedge's sign times the basis coefficient
    rows, blocks = gr._d22_blocks(c)
    assert rows == ((0, 1, 2, 3, 6) if c == 1 else (0, 1, 2, 3, 4, 5, 6, 7))
    assert blocks.shape == (2 * c, 6, len(rows))
    keys = []
    for (a, b), (key, coeff) in ex.form22_basis().items():
        for j in range(c):
            for i, gen in ((2 * j, j), (2 * j + 1, j + 3)):
                merged = ex._merge((gen,), key)
                if merged is None:
                    assert 3 * a + b not in rows or not np.any(blocks[i, :, rows.index(3 * a + b)])
                    continue
                if merged[0] not in keys:
                    keys.append(merged[0])
                col = blocks[i, :, rows.index(3 * a + b)]
                assert col[keys.index(merged[0])] == merged[1] * coeff
                assert np.count_nonzero(col) == 1
    assert len(keys) == 6


@pytest.mark.parametrize("grid", [G1, G2], ids=["c1_n64", "c2_n16"])
def test_d_residual_transforms_only_what_d_reads(grid, monkeypatch):
    # d reads the components in a row or a column j < c: 5 of 9 at c = 1, 8 at c = 2
    slabs = []
    real = gr.band_forward

    def counted(g, f):
        slabs.append(f.shape[: f.ndim - 2 * g.complex_dims])
        return real(g, f)

    rng = np.random.default_rng(17)
    for _ in range(3):
        psi = gr.random_bandlimited_herm3(grid, rng, grid.dealias_kmax, 0.3)
        psi = psi + 1j * gr.random_bandlimited_herm3(grid, rng, 2, 0.2) + const_herm3(grid, np.eye(3))
        ref_d, ref = _d_nine(grid, psi)
        monkeypatch.setattr(gr, "band_forward", counted)
        got = gr.d_residual_22(grid, psi)
        monkeypatch.setattr(gr, "band_forward", real)
        assert ref > 1e-3 and got == ref  # bit for bit
        assert np.array_equal(gr._d22(grid, psi), ref_d)
    assert slabs == [(5 if grid.complex_dims == 1 else 8,)] * 3


def test_chern_curvature_flat():
    assert np.abs(gr.chern_curvature(G1, const_herm3(G1, 2 * np.eye(3)))).max() == 0


def test_chern_curvature_conformal():
    x, y = G1.coords()
    phi = 0.1 * np.cos(x) * np.ones(G1.shape) + 0.04 * np.sin(2 * y)
    wf = np.exp(phi)[..., None, None] * np.eye(3)
    r = gr.chern_curvature(G1, wf)
    dz, dzb, _ = _numpy_symbols(G1)
    dd = _apply(G1, (dz[0] * dzb[0])[..., 0, 0], phi)
    for p in range(3):
        for q in range(3):
            target = -dd if p == q else np.zeros(G1.shape)
            np.testing.assert_allclose(r[..., 0, 0, p, q], target, atol=1e-11)
    assert r.shape == G1.shape + (1, 1, 3, 3)


def test_chern_curvature_positivity_gate():
    wf = const_herm3(G1, np.diag([1.0, 1.0, -1.0]))
    with pytest.raises(PositivityError):
        gr.chern_curvature(G1, wf)


def test_assert_positive_field_eigenvalues_match_eigvalsh():
    # the metric of the c = 2 stationary fixture: its 65536 points take the closed form
    omega = make_balanced_omega0(G2, 1.0, 11, amplitude=0.04, kmax=3)
    eigs = gr.assert_positive_field(omega, "omega")
    ref = np.linalg.eigvalsh(omega)
    assert eigs.shape == G2.shape + (3,)
    assert np.all(np.abs(eigs - ref) <= 1e-12 * np.abs(ref))
    bad = omega.copy()
    bad[3, 5, 7, 2] = np.diag([1.0, -0.5, 2.0])
    with pytest.raises(PositivityError, match=r"probe field is not positive definite at index \(3, 5, 7, 2\)"):
        gr.assert_positive_field(bad, "probe field")


def test_random_bandlimited_herm3_accumulates_in_place():
    # the field is 9 slabs; each mode adds into it one entry at a time, through one-slab
    # temporaries (14 slabs traced in all, 34 when every mode built whole 3x3 sums)
    g = gr.PeriodicGrid(2, 8)
    tracemalloc.start()
    try:
        gr.random_bandlimited_herm3(g, np.random.default_rng(3), 2, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 30 * 16 * g.points_per_dim**4, peak


def test_chern_curvature_spectral_convergence():
    # analytic conformal curvature; error must fall by >> 100x when N doubles
    def worst_error(n):
        g = gr.PeriodicGrid(1, n)
        x, y = g.coords()
        phi = 0.8 * np.cos(x) * np.ones(g.shape) + 0.5 * np.sin(x + y)
        wf = np.exp(phi)[..., None, None] * np.eye(3)
        r = gr.chern_curvature(g, wf)
        # R_{1bar1}^p_p = -del_1bar del_1 phi with del del_bar = Lap_real/4
        target = 0.25 * (0.8 * np.cos(x) * np.ones(g.shape) + np.sin(x + y))
        return np.abs(r[..., 0, 0, 0, 0] - target).max()

    e8, e16 = worst_error(8), worst_error(16)
    assert e8 / e16 > 1e2


def test_curvature_reality_after_orthonormalization():
    wf = const_herm3(G2, 2 * np.eye(3)) + gr.random_bandlimited_herm3(G2, RNG, 1, 0.02)
    r = np.zeros(G2.shape + (3, 3, 3, 3), dtype=complex)
    r[..., :2, :2, :, :] = gr.chern_curvature(G2, wf)
    # check the reality invariant at a few points (orthonormal frame transport)
    for idx in [(0, 0, 0, 0), (3, 7, 1, 2), (5, 2, 9, 4)]:
        assert _curvature_reality_residual(r[idx], wf[idx]) < 1e-6


def _curvature_reality_residual(r, omega):
    """Max deviation from conj(R_{kbar j}^p_q) = R_{jbar k}^q_p after orthonormalization."""
    s = samp.orthonormal_frame(omega)
    r_on = samp.transport_curvature(r, np.linalg.inv(s))
    scale = max(np.abs(r_on).max(), 1e-300)
    return float(np.abs(r_on - np.conj(np.transpose(r_on, (1, 0, 3, 2)))).max() / scale)


def _numpy_symbols(grid):
    """Multipliers of del_j and delbar_j per active j, built with numpy alone."""
    n, naxes = grid.points_per_dim, 2 * grid.complex_dims
    k = np.fft.fftfreq(n, d=1.0 / n)
    ks = [k.reshape((1,) * a + (n,) + (1,) * (naxes - a - 1)) for a in range(naxes)]
    dz = [(1j * ks[2 * j] + ks[2 * j + 1])[..., None, None] / 2 for j in range(naxes // 2)]
    dzb = [(1j * ks[2 * j] - ks[2 * j + 1])[..., None, None] / 2 for j in range(naxes // 2)]
    mask = np.ones((), dtype=bool)
    for kk in ks:
        mask = mask & (np.abs(kk) <= n // 3)
    return dz, dzb, mask[..., None, None]


def test_chern_curvature_compact_matches_per_slab_formula():
    # R_{kbar j} = -delbar_k dealias(omega^{-1} del_j omega), one (k, j) slab at a time
    wf = const_herm3(G2, 2 * np.eye(3)) + gr.random_bandlimited_herm3(G2, RNG, 3, 0.2)
    r = gr.chern_curvature(G2, wf)
    assert r.shape == G2.shape + (2, 2, 3, 3)
    dz, dzb, mask = _numpy_symbols(G2)
    axes = tuple(range(4))
    oh = np.fft.fftn(wf, axes=axes)
    inv = np.linalg.inv(wf)
    for j in range(2):
        a = inv @ np.fft.ifftn(dz[j] * oh, axes=axes)
        ah = mask * np.fft.fftn(a, axes=axes)
        for k in range(2):
            ref = -np.fft.ifftn(dzb[k] * ah, axes=axes)
            assert np.abs(ref).max() > 1e-3
            np.testing.assert_allclose(r[..., k, j, :, :], ref, rtol=0, atol=1e-12 * np.abs(ref).max())


def _einsum_tr_r_wedge_r(grid, r_field):
    """Tr(R ^ R) over every index quad of the oracle table, by einsum and tensordot."""
    c, naxes = grid.complex_dims, 2 * grid.complex_dims
    w = ex.wedge22_table()[:c, :c, :c, :c]
    ra = r_field[..., :c, :c, :, :]
    g = np.einsum("...kjps,...mlsp->...jklm", ra, ra, optimize=True)
    out = np.tensordot(g, w, axes=([naxes, naxes + 1, naxes + 2, naxes + 3], [0, 1, 2, 3]))
    return gr.dealias(grid, out)


def test_tr_r_wedge_r_matches_full_einsum_compact_and_dense():
    shape = G2.shape + (2, 2, 3, 3)
    compact = RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)
    dense = RNG.standard_normal(G2.shape + (3, 3, 3, 3)) + 0j  # inactive slabs hold junk
    dense[..., :2, :2, :, :] = compact
    ref = _einsum_tr_r_wedge_r(G2, compact)
    scale = np.abs(ref).max()
    assert scale > 1e-3
    for r in (compact, dense):
        np.testing.assert_allclose(gr.tr_r_wedge_r(G2, r), ref, rtol=0, atol=1e-12 * scale)
    # at c = 1 the oracle table has no term, so the field is identically zero
    r1 = RNG.standard_normal(G1.shape + (1, 1, 3, 3)) + 0j
    assert np.abs(gr.tr_r_wedge_r(G1, r1)).max() == 0
    assert np.abs(_einsum_tr_r_wedge_r(G1, r1)).max() == 0


@pytest.mark.parametrize("grid", [G1, G2])
def test_i_ddbar_spectral_side_matches_per_term_inverse(grid):
    # the gemm table on the band equals numpy.fft's inverse per (l, m) then the table
    wf = const_herm3(grid, 2 * np.eye(3)) + gr.random_bandlimited_herm3(grid, RNG, 4, 0.3)
    dz, dzb, _ = _numpy_symbols(grid)
    axes = tuple(range(2 * grid.complex_dims))
    fh = np.fft.fftn(wf, axes=axes)
    w = ex.wedge22_table()
    ref = 0
    for l in range(grid.complex_dims):
        for m in range(grid.complex_dims):
            d2 = np.fft.ifftn(dz[l] * dzb[m] * fh, axes=axes)
            ref = ref + np.einsum("...kj,jkab->...ab", d2, w[l, m])
    got = _band_i_ddbar(grid, wf)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


def test_tr_r_wedge_r_zero():
    assert np.abs(gr.tr_r_wedge_r(G1, np.zeros(G1.shape + (3, 3, 3, 3)))).max() == 0


def test_tr_r_wedge_r_abelian_model():
    # all R_{kbar j} proportional to one projector: Tr(R^R) = rank * (scalar form)^2
    rho = np.zeros(G2.shape + (3, 3), dtype=complex)
    x1, y1, x2, y2 = G2.coords()
    f1 = np.cos(x1) * np.ones(G2.shape) + 0j
    f2 = (np.sin(x2 + y2) + 0.5 * np.cos(y1)) * np.ones(G2.shape) + 0j
    rho[..., 0, 0] = f1
    rho[..., 1, 1] = f2
    rho[..., 0, 1] = 0.3 * f1
    rho[..., 1, 0] = 0.2 * f2
    proj = np.zeros((3, 3), dtype=complex)
    proj[0, 0] = 1.0
    r_field = rho[..., :, :, None, None] * proj
    r_field = np.moveaxis(np.moveaxis(r_field, -2, -2), -1, -1)  # shape grid+(3,3,3,3)
    got = gr.tr_r_wedge_r(G2, r_field)
    # oracle comparison at a few grid points: (i rho)^2 with trace of proj^2 = 1
    w22 = ex.wedge22_table()
    expect = np.einsum("...kj,...ml,jklmab->...ab", rho, rho, w22)
    expect = gr.dealias(G2, expect)
    assert np.abs(got - expect).max() < 1e-12


def test_chern_weil_closedness():
    # structural at c<=2: every surviving component of Tr(R^R) omits only
    # inactive directions, so the monitor must sit at the floor
    wf = const_herm3(G2, 2 * np.eye(3)) + gr.random_bandlimited_herm3(G2, RNG, 2, 0.1)
    r = gr.chern_curvature(G2, wf)
    trr = gr.tr_r_wedge_r(G2, r)
    assert np.abs(trr).max() > 1e-6  # nontrivial field
    assert gr.d_residual_22(G2, trr) < 1e-8


def test_dealias_idempotent_and_band_limit():
    f = RNG.standard_normal(G1.shape)
    d1 = gr.dealias(G1, f)
    d2 = gr.dealias(G1, d1)
    np.testing.assert_allclose(d1, d2, atol=1e-13)
    fhat = gr.forward(G1, d1 + 0j)
    kint = np.fft.fftfreq(64, d=1.0 / 64)
    bad = np.abs(kint) > 64 // 3
    assert np.abs(fhat[bad, :]).max() < 1e-12
    assert np.abs(fhat[:, bad]).max() < 1e-12


def test_l2_norm_and_min_eig():
    f = const_herm3(G1, np.diag([1.0, 2.0, 3.0]))
    assert gr.l2_norm(G1, f) == pytest.approx(np.sqrt(14.0))
    assert pw.herm3_min_eig(f).min() == pytest.approx(1.0)


@pytest.mark.parametrize("grid", [G1, G2])
def test_band_transforms_are_the_two_thirds_rule(grid):
    f = RNG.standard_normal(grid.shape)
    m = grid.dealias_kmax
    chat = gr.band_forward(grid, f)
    full = np.fft.rfftn(f)
    band = np.r_[0 : m + 1, grid.points_per_dim - m : grid.points_per_dim]
    ref = full[np.ix_(*[band] * (f.ndim - 1) + [np.arange(m + 1)])]
    np.testing.assert_allclose(chat, ref, atol=1e-12 * np.abs(full).max())
    kept = np.zeros_like(full)
    kept[np.ix_(*[band] * (f.ndim - 1) + [np.arange(m + 1)])] = ref
    np.testing.assert_allclose(gr.band_inverse(grid, chat), np.fft.irfftn(kept, s=f.shape, axes=range(f.ndim)), atol=1e-13)
    assert np.abs(gr.band_inverse(grid, np.zeros_like(chat))).max() == 0.0


@pytest.mark.parametrize("c, n", [(2, 8), (2, 16), (1, 64)])
def test_complex_band_transforms_are_the_two_thirds_rule(c, n):
    # a complex field in component-first storage: every grid axis keeps the full band
    grid = gr.PeriodicGrid(c, n)
    shape = (3, 3) + grid.shape
    f = RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)
    axes = tuple(range(2, 2 + 2 * c))
    full = np.fft.fftn(f, axes=axes)
    m = grid.dealias_kmax
    band = np.r_[0 : m + 1, n - m : n]
    chat = gr.band_forward(grid, f)
    assert chat.shape == (3, 3) + grid.band_shape
    ref = full[np.ix_(*[np.arange(3)] * 2 + [band] * (2 * c))]
    np.testing.assert_allclose(chat, ref, atol=1e-12 * np.abs(full).max())
    kint = np.fft.fftfreq(n, d=1.0 / n)
    mask = np.ones((), dtype=bool)
    for i in range(2 * c):
        mask = mask & (np.abs(kint) <= m).reshape((1,) * i + (n,) + (1,) * (2 * c - i - 1))
    np.testing.assert_allclose(
        gr.band_inverse(grid, chat), np.fft.ifftn(full * mask, axes=axes), atol=1e-13 * np.abs(f).max()
    )


def test_diff_matrix_is_the_fourier_multiplier():
    n = G1.points_per_dim
    f = RNG.standard_normal(G1.shape)
    k = np.fft.fftfreq(n, d=1.0 / n)[:, None]
    fhat = np.fft.fft(f, axis=0)
    d2 = np.fft.ifft(-(k**2) * fhat, axis=0).real
    np.testing.assert_allclose(gr.along_axis(gr.diff_matrix(G1, 2), f, 0), d2, atol=1e-10)
    # the first derivative of the Nyquist mode is set to zero
    d1 = np.fft.ifft(np.where(np.abs(k) == n // 2, 0.0, 1j * k) * fhat, axis=0).real
    np.testing.assert_allclose(gr.along_axis(gr.diff_matrix(G1, 1), f, 0), d1, atol=1e-11)
    nyquist = np.cos(np.pi * np.arange(n))[:, None] * np.ones(G1.shape)
    assert np.abs(gr.along_axis(gr.diff_matrix(G1, 1), nyquist, 0)).max() < 1e-12
    np.testing.assert_allclose(
        gr.along_axis(gr.diff_matrix(G1, 2), nyquist, 1), np.zeros(G1.shape), atol=1e-12
    )
    np.testing.assert_allclose(
        gr.along_axis(gr.diff_matrix(G1, 2), nyquist, 0), -(n // 2) ** 2 * nyquist, atol=1e-9
    )
