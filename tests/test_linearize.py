"""Symbol machinery: kernel, restricted symbol, coupled system."""

import numpy as np
import pytest

from anomaly_flow import exterior as ex
from anomaly_flow import linearize as lin
from anomaly_flow import pointwise as pw
from anomaly_flow import sampling as samp
from anomaly_flow.errors import (
    ConditioningError,
    DegenerateInputError,
    PositivityError,
    ProjectionResidualError,
)
from anomaly_flow.exact import gr

I3 = np.eye(3, dtype=complex)
RNG = np.random.default_rng(7)
RZERO = np.zeros((3, 3, 3, 3))
E1 = np.array([1.0, 0.0, 0.0])


def test_rm_apply_zero_and_trace():
    dw = samp.random_hermitian(RNG)
    assert np.abs(lin.rm_apply(RZERO, dw, I3)).max() == 0
    r = samp.trace_curvature(1.0)
    e11 = np.diag([1.0, 0, 0]).astype(complex)
    np.testing.assert_allclose(lin.rm_apply(r, e11, I3), I3, atol=1e-15)


def test_rm_apply_hermiticity():
    for _ in range(20):
        w = samp.random_positive(RNG)
        r = samp.random_curvature_for_metric(RNG, w)
        dw = samp.random_hermitian(RNG)
        out = lin.rm_apply(r, dw, w)
        assert pw.hermitian_residual(out) < 1e-12


def test_d_symbol_kernel_axis_case():
    basis = lin.d_symbol_kernel(E1)
    e22 = np.diag([0, 1.0, 0]).astype(complex)
    e33 = np.diag([0, 0, 1.0]).astype(complex)
    s = np.zeros((3, 3), complex)
    s[1, 2] = s[2, 1] = 1 / np.sqrt(2)
    k = np.zeros((3, 3), complex)
    k[1, 2] = 1j / np.sqrt(2)
    k[2, 1] = -1j / np.sqrt(2)
    for got, exp in zip(basis, [e22, e33, s, k]):
        np.testing.assert_allclose(got, exp, atol=1e-14)


def test_d_symbol_kernel_degenerate():
    with pytest.raises(DegenerateInputError):
        lin.d_symbol_kernel(np.zeros(3))


def test_d_symbol_kernel_random():
    for _ in range(20):
        xi = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
        basis = lin.d_symbol_kernel(xi)
        assert basis.shape == (4, 3, 3)
        gram = np.array(
            [[np.real(np.trace(a @ b)) for a in basis] for b in basis]
        )
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)
        for b in basis:
            assert np.abs(np.einsum("j,jk->k", xi, b)).max() < 1e-12
            assert pw.hermitian_residual(b) < 1e-13


def test_wedge_xi_extract_examples():
    e22 = np.diag([0, 1.0, 0]).astype(complex)
    out = lin.wedge_xi_extract(E1, e22)
    expect = np.zeros((3, 3))
    expect[2, 2] = 0.5
    np.testing.assert_allclose(out, expect, atol=1e-15)
    e11 = np.diag([1.0, 0, 0]).astype(complex)
    assert np.abs(lin.wedge_xi_extract(E1, e11)).max() == 0
    assert np.abs(lin.wedge_xi_extract(E1, np.zeros((3, 3)))).max() == 0


def test_wedge_xi_extract_exact_pin():
    # i dz1 ^ dzbar1 ^ (i dz2 ^ dzbar2) must give a single exact entry 1/2 at (3,3)
    m = ex.wedge(
        gr(0, 1) * ex.dz(1).wedge(ex.dzbar(1)), gr(0, 1) * ex.dz(2).wedge(ex.dzbar(2))
    )
    q = ex.to_form22(m)
    for a in range(3):
        for b in range(3):
            expect = gr(1, 0) / 2 if (a, b) == (2, 2) else gr(0)
            assert q[a, b] == expect


def test_wedge_xi_extract_matches_oracle():
    for _ in range(20):
        xi = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
        phi = RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3))
        got = lin.wedge_xi_extract(xi, phi)
        xim = ex.MultiVector({(j,): xi[j] for j in range(3)})
        xibm = ex.MultiVector({(j + 3,): np.conj(xi[j]) for j in range(3)})
        direct = ex.to_form22(ex.wedge(1j * xim, xibm, ex.from_form11(phi)))
        assert np.abs(got - direct).max() < 1e-13 * max(np.abs(direct).max(), 1.0)


def test_delta_tilde_symbol_scalar_on_kernel():
    e22 = np.diag([0, 1.0, 0]).astype(complex)
    out = lin.delta_tilde_symbol(E1, I3, 1.0, RZERO, 0.0, e22)
    np.testing.assert_allclose(out, 0.5 * e22, atol=1e-14)


def test_delta_tilde_symbol_zero_curvature_independent_of_alpha():
    dpsi = samp.random_hermitian(RNG)
    w = samp.random_positive(RNG)
    a = lin.delta_tilde_symbol(E1, w, 1.3, RZERO, 0.0, dpsi)
    b = lin.delta_tilde_symbol(E1, w, 1.3, RZERO, 0.7, dpsi)
    np.testing.assert_allclose(a, b, atol=1e-14)


def test_delta_tilde_symbol_oracle_crosscheck():
    r = samp.trace_curvature(1.0)
    alpha = 0.1
    basis = lin.d_symbol_kernel(E1)
    for dpsi in basis:
        ts = pw.tilde_star(dpsi, I3, 1.0)
        arg = ts - 2 * alpha * lin.rm_apply(r, ts, I3)
        xim = ex.MultiVector({(0,): 1.0})
        xibm = ex.MultiVector({(3,): 1.0})
        direct = ex.to_form22(ex.wedge(1j * xim, xibm, ex.from_form11(arg)))
        got = lin.delta_tilde_symbol(E1, I3, 1.0, r, alpha, dpsi)
        assert np.abs(got - direct).max() < 1e-12


def test_restricted_symbol_scalar_at_zero_coupling():
    for _ in range(20):
        w = samp.random_positive(RNG)
        ab = 0.5 + RNG.random()
        xi = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
        rep = lin.restricted_symbol(xi, w, ab, RZERO, 0.0)
        lam = lin.xi_norm_sq(xi, w) / (2 * pw.norm_omega(w, ab))
        assert rep.kernel_dim == 4
        assert rep.elliptic
        assert np.abs(rep.eigenvalues - lam).max() < 1e-10 * lam


def test_restricted_symbol_identity_case():
    rep = lin.restricted_symbol(E1, I3, 1.0, RZERO, 0.0)
    np.testing.assert_allclose(np.sort(rep.eigenvalues.real), 0.5 * np.ones(4), atol=1e-12)
    assert rep.elliptic


def test_adversarial_flip_and_threshold():
    r = samp.trace_curvature(5.0)
    assert lin.restricted_symbol(E1, I3, 1.0, r, 0.0).elliptic
    rep = lin.restricted_symbol(E1, I3, 1.0, r, 0.1)
    assert not rep.elliptic and rep.min_real_part <= 0
    # analytic threshold for the trace fixture is 1/(8*strength)
    assert lin.restricted_symbol(E1, I3, 1.0, r, 0.0249).elliptic
    assert not lin.restricted_symbol(E1, I3, 1.0, r, 0.0251).elliptic


def test_ellipticity_check_aggregate():
    xis = samp.unit_covectors(8, 5)
    rep, margin = lin.ellipticity_check(I3, 1.0, RZERO, 0.9, xis)
    assert rep.elliptic
    assert rep.min_real_part == pytest.approx(0.5, rel=1e-10)
    # zero curvature: the perturbation norm vanishes and |xi|^2 = 1 at omega = I
    assert margin == pytest.approx(1.0, rel=1e-12)
    rep_bad, margin_bad = lin.ellipticity_check(I3, 1.0, samp.trace_curvature(5.0), 0.2, xis)
    assert not rep_bad.elliptic
    # a positive margin would certify ellipticity, so the lost verdict forces margin <= 0
    assert margin_bad <= 0
    norms = [lin.proposition_norm(xi, I3, 1.0, samp.trace_curvature(5.0), 0.2) for xi in xis]
    assert margin_bad == min(lin.xi_norm_sq(xi, I3) - n for xi, n in zip(xis, norms))
    with pytest.raises(DegenerateInputError):
        samp.unit_covectors(0, 1)
    with pytest.raises(DegenerateInputError):
        lin.ellipticity_check(I3, 1.0, RZERO, 0.0, xis[:0])


def test_ellipticity_check_deterministic():
    a, margin_a = lin.ellipticity_check(I3, 1.0, RZERO, 0.3, samp.unit_covectors(8, 9))
    b, margin_b = lin.ellipticity_check(I3, 1.0, RZERO, 0.3, samp.unit_covectors(8, 9))
    np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
    assert margin_a == margin_b


def test_proposition_norm_zero_cases_and_linearity():
    xi = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
    w = samp.random_positive(RNG)
    r = samp.random_curvature_for_metric(RNG, w)
    assert lin.proposition_norm(xi, w, 1.0, RZERO, 0.3) == 0.0
    assert lin.proposition_norm(xi, w, 1.0, r, 0.0) == 0.0
    n1 = lin.proposition_norm(xi, w, 1.0, r, 0.1)
    n2 = lin.proposition_norm(xi, w, 1.0, r, 0.2)
    assert n2 == pytest.approx(2 * n1, rel=1e-12)


def test_proposition_norm_sufficiency():
    for _ in range(100):
        w = samp.random_positive(RNG)
        ab = 0.5 + RNG.random()
        r = samp.random_curvature_for_metric(RNG, w, 2.0 * RNG.random())
        alpha = 0.4 * RNG.random()
        xi = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
        if lin.proposition_norm(xi, w, ab, r, alpha) < lin.xi_norm_sq(xi, w):
            assert lin.restricted_symbol(xi, w, ab, r, alpha).elliptic


def test_coupled_symbol_blocks():
    rank = 2
    h = samp.random_positive_endo(RNG, rank)
    f = samp.random_endcurv(RNG, h)
    w = samp.random_positive(RNG)
    r = samp.random_curvature_for_metric(RNG, w, 0.5)
    xi = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
    dpsi = sum(RNG.standard_normal() * b for b in lin.d_symbol_kernel(xi))
    dh = samp.random_hermitian(RNG, dim=rank)
    alpha = 0.07
    fzero = np.zeros((3, 3, rank, rank), dtype=complex)
    first, second = lin.coupled_symbol(xi, w, 1.1, r, alpha, fzero, h, dpsi, dh)
    np.testing.assert_allclose(
        first, lin.delta_tilde_symbol(xi, w, 1.1, r, alpha, dpsi), atol=1e-13
    )
    np.testing.assert_allclose(second, lin.xi_norm_sq(xi, w) * dh, atol=1e-13)
    # dpsi = 0: first output is purely the bundle-trace term
    first, second = lin.coupled_symbol(
        xi, w, 1.1, r, alpha, f, h, np.zeros((3, 3), complex), dh
    )
    tr_form = np.einsum("kjab,bc,ca->kj", f, np.linalg.inv(h), dh)
    np.testing.assert_allclose(
        first, 2 * alpha * lin.wedge_xi_extract(xi, tr_form), atol=1e-13
    )
    np.testing.assert_allclose(second, lin.xi_norm_sq(xi, w) * dh, atol=1e-13)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_coupled_spectrum_union(rank):
    h = samp.random_positive_endo(RNG, rank)
    f = samp.random_endcurv(RNG, h)
    w = samp.random_positive(RNG)
    ab = 1.2
    r = samp.random_curvature_for_metric(RNG, w, 0.5)
    alpha = 0.05
    xi = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
    mat = lin.coupled_symbol_matrix(xi, w, ab, r, alpha, f, h)
    got = np.sort_complex(np.linalg.eigvals(mat))
    rep = lin.restricted_symbol(xi, w, ab, r, alpha)
    expect = np.sort_complex(
        np.concatenate([rep.eigenvalues, [lin.xi_norm_sq(xi, w)] * rank**2])
    )
    assert np.abs(got - expect).max() < 1e-10 * np.abs(expect).max()


def test_projection_residual_guard():
    # a curvature violating the reality condition pushes images off the kernel
    bad = RNG.standard_normal((3, 3, 3, 3)) + 1j * RNG.standard_normal((3, 3, 3, 3))
    with pytest.raises(ProjectionResidualError):
        lin.restricted_symbol(E1, I3, 1.0, bad, 0.5, kernel_tol=1e-14)


def test_alpha_continuity_radius():
    # below the proposition bound the verdict stays true along an alpha sweep
    w = samp.random_positive(RNG)
    ab = 0.8
    r = samp.random_curvature_for_metric(RNG, w, 1.0)
    xi = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
    n1 = lin.proposition_norm(xi, w, ab, r, 1.0)  # scales linearly in alpha
    alpha_star = lin.xi_norm_sq(xi, w) / n1
    for alpha in np.linspace(0, 0.95 * alpha_star, 6):
        assert lin.restricted_symbol(xi, w, ab, r, alpha).elliptic


def _draw(rng):
    """One seeded (xi, omega, |Omega|, R, a') draw of the symbol suites' kind."""
    w = samp.random_positive(rng)
    ab = 0.5 + rng.random()
    r = samp.random_curvature_for_metric(rng, w, 2.0 * rng.random())
    return rng.standard_normal(3) + 1j * rng.standard_normal(3), w, ab, r, 0.4 * rng.random()


def _coords_one(basis, img, floor):
    """Real Frobenius coordinates of one image, with its own kernel-leak check."""
    coords = np.array([np.real(np.trace(img @ b)) for b in basis])
    recon = sum(c * b for c, b in zip(coords, basis))
    assert np.abs(img - recon).max() <= lin.KERNEL_TOL * max(np.abs(img).max(), floor)
    return coords


def _rel(got, ref):
    return np.abs(np.asarray(got) - ref).max() / np.abs(ref).max()


def test_stacked_symbol_matches_one_element_at_a_time():
    rng = np.random.default_rng(20)
    for trial in range(60):
        xi, w, ab, r, alpha = _draw(rng)
        kern = lin.d_symbol_kernel(xi)
        floor = lin.xi_norm_sq(xi, w) / (2.0 * pw.norm_omega(w, ab))
        # restricted symbol: each kernel element through delta_tilde_symbol on its own
        cols = []
        for dpsi in kern:
            img = lin.delta_tilde_symbol(xi, w, ab, r, alpha, dpsi)
            cols.append(_coords_one(kern, img, floor))
        mat = np.stack(cols, axis=1)
        vals, vecs = np.linalg.eig(mat)
        got = np.sort_complex(lin.restricted_symbol(xi, w, ab, r, alpha).eigenvalues)
        # the matrix itself is compared at 1e-12 with coupled_symbol_matrix[:4, :4] below;
        # its eigenvalues move by up to cond(V) times a matrix change (Bauer-Fike), and the
        # restricted matrix is not normal, so their bound carries that factor
        bound = 1e-12 * np.linalg.cond(vecs) * np.linalg.norm(mat, 2)
        assert np.abs(got - np.sort_complex(vals)).max() < bound
        # curvature-bound norm: the per-element operator of proposition_norm's docstring
        rows = []
        for dpsi in kern:
            star = pw.hodge_star22(dpsi, w)
            arg = np.real(pw.inner11(star, w, w)) * w - star
            img = -2 * alpha * lin.wedge_xi_extract(xi, lin.rm_apply(r, arg, w))
            rows.append(np.concatenate([img.real.ravel(), img.imag.ravel()]))
        ref = np.linalg.svd(np.stack(rows), compute_uv=False)[0]
        assert abs(lin.proposition_norm(xi, w, ab, r, alpha) - ref) < 1e-12 * ref
        # coupled matrix: each of the 4 + rank^2 directions through coupled_symbol on its own
        rank = 1 + trial % 3
        h = samp.random_positive_endo(rng, rank)
        f = samp.random_endcurv(rng, h)
        hbasis = lin.hermitian_basis(rank)
        dirs = [(k, np.zeros((rank, rank), complex)) for k in kern]
        dirs += [(np.zeros((3, 3), complex), b) for b in hbasis]
        ref = np.zeros((4 + rank**2, 4 + rank**2))
        for j, (dpsi, dh) in enumerate(dirs):
            first, second = lin.coupled_symbol(xi, w, ab, r, alpha, f, h, dpsi, dh)
            ref[:4, j] = _coords_one(kern, first, floor)
            ref[4:, j] = [np.real(np.trace(second @ c)) for c in hbasis]
        got = lin.coupled_symbol_matrix(xi, w, ab, r, alpha, f, h)
        assert _rel(got, ref) < 1e-12
        assert _rel(got[:4, :4], mat) < 1e-12


def test_public_symbol_helpers_broadcast_over_leading_axes():
    rng = np.random.default_rng(21)
    xi, w, ab, r, alpha = _draw(rng)
    rank = 2
    h = samp.random_positive_endo(rng, rank)
    f = samp.random_endcurv(rng, h)
    forms = np.stack([samp.random_hermitian(rng) for _ in range(8)]).reshape(2, 4, 3, 3)
    dhs = np.stack([samp.random_hermitian(rng, rank) for _ in range(8)]).reshape(2, 4, rank, rank)
    stacked = {
        "rm_apply": lin.rm_apply(r, forms, w),
        "wedge_xi_extract": lin.wedge_xi_extract(xi, forms),
        "delta_tilde_symbol": lin.delta_tilde_symbol(xi, w, ab, r, alpha, forms),
        "coupled_symbol": lin.coupled_symbol(xi, w, ab, r, alpha, f, h, forms, dhs)[0],
    }
    for name, out in stacked.items():
        assert out.shape == (2, 4, 3, 3), name
    for i in range(2):
        for j in range(4):
            one = forms[i, j]
            assert _rel(stacked["rm_apply"][i, j], lin.rm_apply(r, one, w)) < 1e-14
            assert _rel(stacked["wedge_xi_extract"][i, j], lin.wedge_xi_extract(xi, one)) < 1e-14
            ref = lin.delta_tilde_symbol(xi, w, ab, r, alpha, one)
            assert _rel(stacked["delta_tilde_symbol"][i, j], ref) < 1e-14
            first, second = lin.coupled_symbol(xi, w, ab, r, alpha, f, h, one, dhs[i, j])
            assert _rel(stacked["coupled_symbol"][i, j], first) < 1e-14
    with pytest.raises(ValueError):
        lin.hermitian_basis(2)[0, 0, 0] = 2.0  # the cached stack is read-only


def test_kernel_leak_check_runs_on_every_image():
    rng = np.random.default_rng(22)
    h = samp.random_positive_endo(rng, 2)
    f = samp.random_endcurv(rng, h)
    for _ in range(5):
        xi, w, ab, _, _ = _draw(rng)
        # raw complex noise, not passed through the reality condition
        bad = rng.standard_normal((3, 3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3, 3))
        with pytest.raises(ProjectionResidualError):
            lin.restricted_symbol(xi, w, ab, bad, 0.3)
        with pytest.raises(ProjectionResidualError):
            lin.coupled_symbol_matrix(xi, w, ab, bad, 0.3, f, h)
    # a small leaking image beside a large clean one is judged on its own scale
    kern = lin.d_symbol_kernel(E1)
    leak = np.zeros((3, 3), complex)
    leak[0, 0] = 1.0  # not in the kernel of E1
    images = np.stack([1e4 * kern[0], kern[1] + 1e-7 * leak])
    with pytest.raises(ProjectionResidualError, match="image 1 "):
        lin._project_onto(kern, images, 1.0, lin.KERNEL_TOL, "image")
    lin._project_onto(kern, images[:1], 1.0, lin.KERNEL_TOL, "image")


_XI = np.array([0.3, 1.0 - 0.2j, 0.5j])
RTRACE = samp.trace_curvature(1.0)
_BAD_INPUTS = {
    "indefinite omega": (_XI, np.diag([1.0, 2.0, -0.5]).astype(complex), PositivityError),
    "non-Hermitian omega": (_XI, I3 + np.triu(np.ones((3, 3)), 1), PositivityError),
    "omega with cond > 1e12": (_XI, np.diag([1.0, 1.0, 5e-13]).astype(complex), ConditioningError),
    "xi = 0": (np.zeros(3), I3, DegenerateInputError),
}
_SYMBOL_CALLS = {
    "restricted_symbol": lambda xi, w: lin.restricted_symbol(xi, w, 1.0, RZERO, 0.1),
    "proposition_norm": lambda xi, w: lin.proposition_norm(xi, w, 1.0, RTRACE, 0.1),
    "proposition_norm at a'=0": lambda xi, w: lin.proposition_norm(xi, w, 1.0, RZERO, 0.0),
}


@pytest.mark.parametrize("call", list(_SYMBOL_CALLS))
@pytest.mark.parametrize("case", list(_BAD_INPUTS))
def test_symbol_keeps_every_input_check(call, case):
    xi, w, err = _BAD_INPUTS[case]
    with pytest.raises(err):
        _SYMBOL_CALLS[call](xi, w)
