"""Pointwise Hermitian algebra: roots, stars, variations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomaly_flow import exterior as ex
from anomaly_flow import grid as gr
from anomaly_flow import pointwise as pw
from anomaly_flow.errors import ConditioningError, PositivityError
from anomaly_flow.sampling import random_hermitian, random_positive

I3 = np.eye(3, dtype=complex)
RNG = np.random.default_rng(42)


def oracle_square(w):
    mv = ex.from_form11(w)
    return ex.to_form22(mv.wedge(mv))


def test_root22_identity():
    np.testing.assert_allclose(pw.root22(I3), I3, atol=1e-15)


def test_root22_diag():
    got = pw.root22(np.diag([6.0, 3.0, 2.0]).astype(complex))
    np.testing.assert_allclose(got, np.diag([1.0, 2.0, 3.0]), atol=1e-14)


def test_root22_oracle_roundtrip():
    for _ in range(50):
        w0 = random_positive(RNG)
        got = pw.root22(oracle_square(w0))
        assert np.abs(got - w0).max() / np.abs(w0).max() < 1e-10


def test_root22_rejects_non_positive():
    with pytest.raises(PositivityError):
        pw.root22(np.diag([1.0, -1.0, 1.0]).astype(complex))


def test_root22_rejects_ill_conditioned():
    with pytest.raises(ConditioningError):
        pw.root22(np.diag([1e13, 1.0, 1.0]).astype(complex))


def test_hermitian_residual_is_per_slice():
    # a small non-Hermitian matrix must not hide behind a large one in the same stack
    b = 1e-3 * I3
    b[0, 1] = 1e-5
    with pytest.raises(PositivityError):
        pw.assert_positive(b)
    stack = np.stack([b, 1e6 * I3])
    assert pw.hermitian_residual(stack) == pw.hermitian_residual(b) == pytest.approx(1e-2)
    with pytest.raises(PositivityError):
        pw.assert_positive(stack)
    zero = np.zeros((3, 3), dtype=complex)
    assert pw.hermitian_residual(zero) == 0.0
    assert pw.hermitian_residual(np.stack([zero, b])) == pw.hermitian_residual(b)


def test_norm_omega_values():
    assert pw.norm_omega(I3, 1.0) == pytest.approx(1.0)
    assert pw.norm_omega(4 * I3, 1.0) == pytest.approx(1.0 / 8.0)


def test_norm_omega_scaling_law():
    w = random_positive(RNG)
    lam = 2.7
    assert pw.norm_omega(lam * w, 1.3) == pytest.approx(
        lam ** (-1.5) * pw.norm_omega(w, 1.3)
    )


def test_psi_from_omega_values():
    np.testing.assert_allclose(pw.psi_from_omega(I3, 1.0), I3, atol=1e-15)
    np.testing.assert_allclose(pw.psi_from_omega(16 * I3, 1.0), 4 * I3, atol=1e-13)


def test_psi_from_omega_det_relation():
    for _ in range(20):
        w = random_positive(RNG)
        ab = 0.5 + RNG.random()
        psi = pw.psi_from_omega(w, ab)
        det_psi = np.real(pw.det3(psi))
        assert det_psi == pytest.approx(ab**3 * np.sqrt(np.real(pw.det3(w))), rel=1e-12)


def test_omega_from_psi_values():
    w, nrm = pw.omega_from_psi(I3, 1.0)
    np.testing.assert_allclose(w, I3, atol=1e-15)
    assert nrm == pytest.approx(1.0)
    w, nrm = pw.omega_from_psi(4 * I3, 1.0)
    np.testing.assert_allclose(w, 16 * I3, atol=1e-13)
    assert nrm == pytest.approx(1.0 / 64.0)
    # (det w)^{1/2} = det Psi / |Omega|^3
    assert np.sqrt(np.real(pw.det3(w))) == pytest.approx(np.real(pw.det3(4 * I3)))


def test_psi_omega_roundtrips_both_ways():
    for _ in range(50):
        psi = random_positive(RNG)
        ab = 0.5 + RNG.random()
        w, _ = pw.omega_from_psi(psi, ab)
        back = pw.psi_from_omega(w, ab)
        assert np.abs(back - psi).max() / np.abs(psi).max() < 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(0.3, 3.0))
def test_scaling_covariance_property(seed, lam):
    rng = np.random.default_rng(seed)
    psi = random_positive(rng)
    np.testing.assert_allclose(
        pw.root22(lam**2 * psi), lam * pw.root22(psi), rtol=1e-10
    )
    o1, _ = pw.omega_from_psi(lam * psi, 1.1)
    o2, _ = pw.omega_from_psi(psi, 1.1)
    np.testing.assert_allclose(o1, lam**2 * o2, rtol=1e-10)


def test_hodge_star_identity_metric():
    psi = oracle_square(I3)
    np.testing.assert_allclose(pw.hodge_star22(psi, I3), 2 * I3, atol=1e-14)
    d = np.diag([2.0, 5.0, 7.0]).astype(complex)
    np.testing.assert_allclose(pw.hodge_star22(d, I3), 2 * d, atol=1e-14)


def test_hodge_star_defining_identity_oracle():
    for _ in range(30):
        wt = random_positive(RNG)
        psi = random_hermitian(RNG)
        phi = RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3))
        star = pw.hodge_star22(psi, wt)
        lhs = ex.top_coefficient(ex.from_form11(phi).wedge(ex.from_form22(psi)))
        w3 = ex.top_coefficient(ex.wedge(*[ex.from_form11(wt)] * 3))
        rhs = pw.inner11(phi, star, wt) / 6.0 * w3
        assert abs(lhs - rhs) < 1e-12 * max(abs(rhs), 1.0)


def test_hodge_star_ill_conditioned_metric():
    with pytest.raises(ConditioningError):
        pw.hodge_star22(I3, np.diag([1e13, 1.0, 1.0]).astype(complex))


def test_inner11_values():
    w = random_positive(RNG)
    assert pw.inner11(w, w, w) == pytest.approx(3.0)
    e11 = np.diag([1.0, 0, 0]).astype(complex)
    e22 = np.diag([0, 1.0, 0]).astype(complex)
    assert abs(pw.inner11(e11, e22, I3)) < 1e-15
    phi = random_hermitian(RNG)
    assert np.real(pw.inner11(phi, phi, w)) >= 0


def test_tilde_star_values():
    zero = np.zeros((3, 3), dtype=complex)
    np.testing.assert_allclose(pw.tilde_star(zero, I3, 1.0), zero, atol=1e-15)
    e11 = np.diag([1.0, 0, 0]).astype(complex)
    np.testing.assert_allclose(
        pw.tilde_star(e11, I3, 1.0), np.diag([0.0, 1.0, 1.0]), atol=1e-14
    )
    for _ in range(10):
        w = random_positive(RNG)
        ab = 0.5 + RNG.random()
        psi = pw.psi_from_omega(w, ab)
        np.testing.assert_allclose(pw.tilde_star(psi, w, ab), 2 * w, rtol=1e-11)


def test_tilde_star_trace_identity():
    w = random_positive(RNG)
    ab = 1.4
    dpsi = random_hermitian(RNG)
    nrm = pw.norm_omega(w, ab)
    lhs = pw.inner11(pw.tilde_star(dpsi, w, ab), w, w)
    rhs = pw.inner11(pw.hodge_star22(dpsi, w), w, w) / nrm
    assert abs(lhs - rhs) < 1e-12 * max(abs(rhs), 1.0)


def test_variation_index_form_matches_tilde_star():
    for _ in range(20):
        w = random_positive(RNG)
        ab = 0.5 + RNG.random()
        dpsi = random_hermitian(RNG)
        a = pw.variation_index_form(dpsi, w, ab)
        b = pw.tilde_star(dpsi, w, ab)
        assert np.abs(a - b).max() < 1e-12 * np.abs(b).max()


def test_variation_consistency_order():
    e11 = np.diag([1.0, 0, 0]).astype(complex)
    zero = np.zeros((3, 3), dtype=complex)
    assert pw.variation_consistency(I3, 1.0, zero, 1e-5) < 1e-14
    # at (I, E11) the root map is exactly affine, so the residual sits at the
    # roundoff floor; genuine O(h) halving is exercised on random draws below
    r1 = pw.variation_consistency(I3, 1.0, e11, 1e-5)
    r2 = pw.variation_consistency(I3, 1.0, e11, 5e-6)
    assert r1 < 1e-4
    assert r2 < max(0.6 * r1, 1e-10)
    w = random_positive(RNG)
    dpsi = random_hermitian(RNG, scale=0.5)
    r1 = pw.variation_consistency(w, 1.1, dpsi, 1e-5)
    r2 = pw.variation_consistency(w, 1.1, dpsi, 5e-6)
    assert r1 < 1e-4 and r2 < 0.6 * r1


def test_variation_consistency_rejects_cone_exit():
    big = -40.0 * np.eye(3, dtype=complex)
    with pytest.raises(PositivityError):
        pw.variation_consistency(I3, 1.0, big, 0.5)


def test_outputs_hermitian():
    for _ in range(20):
        w = random_positive(RNG)
        ab = 0.5 + RNG.random()
        dpsi = random_hermitian(RNG)
        assert pw.hermitian_residual(pw.hodge_star22(dpsi, w)) < 1e-12
        assert pw.hermitian_residual(pw.tilde_star(dpsi, w, ab)) < 1e-12
        assert pw.hermitian_residual(pw.root22(random_positive(RNG))) < 1e-12


def test_batched_inputs():
    psis = np.stack([random_positive(RNG) for _ in range(8)])
    ws, nrms = pw.omega_from_psi(psis, 1.2)
    assert ws.shape == (8, 3, 3) and nrms.shape == (8,)
    back = pw.psi_from_omega(ws, 1.2)
    assert np.abs(back - psis).max() < 1e-10


def test_per_slice_abs_omega_matches_per_slice_calls():
    # one |Omega| per matrix of a 3-stack broadcasts over the leading axis
    rng = np.random.default_rng(7)
    ws = np.stack([random_positive(rng) for _ in range(3)])
    psis = np.stack([random_positive(rng) for _ in range(3)])
    dpsis = np.stack([random_hermitian(rng) for _ in range(3)])
    ab = np.array([0.6, 1.1, 1.45])

    def close(stacked, single):
        for got, want in zip(stacked, single):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    omegas, nrms = pw.omega_from_psi(psis, ab)
    close(omegas, [pw.omega_from_psi(p, a)[0] for p, a in zip(psis, ab)])
    close(nrms, [pw.omega_from_psi(p, a)[1] for p, a in zip(psis, ab)])
    close(pw.psi_from_omega(ws, ab), [pw.psi_from_omega(w, a) for w, a in zip(ws, ab)])
    close(pw.tilde_star(dpsis, ws, ab), [pw.tilde_star(d, w, a) for d, w, a in zip(dpsis, ws, ab)])
    got = pw.variation_consistency(ws, ab, dpsis, 1e-5)
    assert got.shape == (3,)
    close(got, [pw.variation_consistency(w, a, d, 1e-5) for w, a, d in zip(ws, ab, dpsis)])


def test_hermitize_keeps_component_first_memory():
    # the torus state at c = 2, N = 8; numpy's own choice of output order depends on size
    shape = (3, 3) + gr.PeriodicGrid(2, 8).shape
    x = RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)
    m = gr.grid_first(x)
    h = pw.hermitize(m)
    assert np.shares_memory(gr.comp_first(h), h)  # comp_first takes no copy
    np.testing.assert_array_equal(h, 0.5 * (m + np.conj(np.swapaxes(m, -1, -2))))


def _random_frame_stack(rng, eigs):
    """Hermitian U diag(e) U^H for each row e of eigs, with seeded random unitary frames U."""
    a = rng.standard_normal(eigs.shape + (3,)) + 1j * rng.standard_normal(eigs.shape + (3,))
    u, _ = np.linalg.qr(a)
    return pw.hermitize((u * eigs[..., None, :]) @ np.conj(np.swapaxes(u, -1, -2)))


@pytest.mark.parametrize("cond, bound", [(1.001, 1e-12), (1e2, 5e-10), (1e6, 2e-2)])
def test_herm3_min_eig_accuracy_against_eigvalsh(cond, bound):
    # eigenvalues 1, log-uniform in [1, cond], and cond: the closed form's relative error
    # grows with the condition number, fastest where the two smallest eigenvalues come
    # close; each bound is 4-13x the worst of the 4096 draws
    rng = np.random.default_rng(7)
    eigs = np.ones((4096, 3))
    eigs[:, 1] = np.exp(rng.uniform(0.0, np.log(cond), len(eigs)))
    eigs[:, 2] = cond
    m = _random_frame_stack(rng, eigs)
    ref = np.linalg.eigvalsh(m)[:, 0]
    err = np.abs(pw.herm3_min_eig(m) - ref) / ref
    assert err.max() < bound
