"""Time integration: scalar conformal flow and the (2,2)-form torus flow."""

import numpy as np
import pytest

from anomaly_flow import config as cfgmod
from anomaly_flow import flow as fl
from anomaly_flow import grid as gr
from anomaly_flow import pointwise as pw
from anomaly_flow.errors import PositivityError

G16 = gr.PeriodicGrid(2, 16)
G32T = gr.PeriodicGrid(1, 32)


def zeros(g):
    return np.zeros(g.shape)


def test_fu_yau_rhs_stationary_zero():
    prob = fl.FuYauProblem(G16, 0.1, zeros(G16), zeros(G16))
    assert np.abs(fl.fu_yau_rhs(np.zeros(G16.shape), prob)).max() == 0.0


def test_fu_yau_rhs_constant_mu():
    c = 0.7
    prob = fl.FuYauProblem(G16, 0.05, zeros(G16), c * np.ones(G16.shape))
    u = 0.3 * np.ones(G16.shape)
    rhs = fl.fu_yau_rhs(u, prob)
    np.testing.assert_allclose(rhs, c * np.exp(-0.3), rtol=1e-12)


def test_fu_yau_rhs_linearization_about_zero():
    # u = eps cos(k x): rhs -> Lap u + O(eps^2); Lap eigenvalue is -1/2 here
    xs = G16.coords()
    eps = 1e-6
    u = eps * np.cos(xs[0]) * np.ones(G16.shape)
    prob = fl.FuYauProblem(G16, 1e-3, zeros(G16), zeros(G16))
    rhs = fl.fu_yau_rhs(u, prob)
    np.testing.assert_allclose(rhs, -0.5 * u, atol=1e-11)


def test_complex_hessian_matches_complex_multipliers():
    # band-limited data: the real Hessian fields are the complex-multiplier values
    rng = np.random.default_rng(4)
    ks, amps = rng.integers(-5, 6, size=(6, 4)), 0.03 * rng.standard_normal((6, 2))
    modes = [{"k": k, "amplitude": a} for k, a in zip(ks.tolist(), amps.tolist())]
    u = cfgmod.materialize_scalar(G16, {"modes": modes})
    dz, dzb = gr._symbols(G16)
    uhat = gr.forward(G16, u + 0j)
    h11, h22, re12, im12 = fl._complex_hessian(G16, u)
    np.testing.assert_allclose(h11, gr.inverse(G16, uhat * dz[0] * dzb[0]).real, atol=1e-13)
    np.testing.assert_allclose(h22, gr.inverse(G16, uhat * dz[1] * dzb[1]).real, atol=1e-13)
    h12 = gr.inverse(G16, uhat * dz[0] * dzb[1])
    np.testing.assert_allclose(re12 + 1j * im12, h12, atol=1e-13)


def test_fu_yau_problem_validation():
    with pytest.raises(ValueError):
        fl.FuYauProblem(gr.PeriodicGrid(1, 16), 0.1, np.zeros((16, 16)), np.zeros((16, 16)))
    with pytest.raises(ValueError):
        fl.FuYauProblem(G16, 0.1, -np.ones(G16.shape), zeros(G16))
    with pytest.raises(ValueError):
        fl.FuYauProblem(G16, -0.1, zeros(G16), zeros(G16))


def test_parabolicity_margin_values():
    prob0 = fl.FuYauProblem(G16, 0.3, zeros(G16), zeros(G16))
    assert fl.parabolicity_margin(np.zeros(G16.shape), prob0) == pytest.approx(1.0)
    probf = fl.FuYauProblem(G16, 0.3, 2.0 * np.ones(G16.shape), zeros(G16))
    assert fl.parabolicity_margin(np.zeros(G16.shape), probf) == pytest.approx(1.0 + 0.3 * 2.0)


def test_parabolicity_margin_violated_by_spike():
    xs = G16.coords()
    u = 1.0 * np.cos(xs[0]) * np.ones(G16.shape)
    prob = fl.FuYauProblem(G16, 3.0, zeros(G16), zeros(G16))
    assert fl.parabolicity_margin(u, prob) <= 0.0


def test_fu_yau_run_stationary():
    prob = fl.FuYauProblem(G16, 0.1, zeros(G16), zeros(G16))
    hist = fl.fu_yau_run(prob, 1.0)
    assert hist.halt is None
    assert np.abs(hist.final_payload).max() == 0.0
    assert max(abs(x) for x in hist.monitors["conservation_gap"]) < 1e-14


def test_fu_yau_run_constant_mu_ode():
    c = 0.5
    prob = fl.FuYauProblem(G16, 0.05, zeros(G16), c * np.ones(G16.shape))
    hist = fl.fu_yau_run(prob, 1.0)
    assert hist.halt is None
    assert max(abs(x) for x in hist.monitors["conservation_gap"]) < 1e-8
    assert float(np.exp(hist.final_payload).mean()) == pytest.approx(1 + c * hist.final_t, rel=1e-8)


def test_fu_yau_run_mode_decay():
    xs = G16.coords()
    eps = 1e-3
    u0 = eps * np.cos(xs[0]) * np.ones(G16.shape)
    prob = fl.FuYauProblem(G16, 1e-3, zeros(G16), zeros(G16))
    hist = fl.fu_yau_run(prob, 0.1, u0=u0)

    def mode_amp(u):
        return abs(gr.forward(G16, u + 0j)[1, 0, 0, 0])

    ratio = mode_amp(hist.final_payload) / mode_amp(u0)
    assert ratio == pytest.approx(np.exp(-0.5 * hist.final_t), rel=1e-2)


def test_fu_yau_run_parabolicity_halt_snapshot():
    xs = G16.coords()
    u0 = 1.0 * np.cos(xs[0]) * np.ones(G16.shape)
    prob = fl.FuYauProblem(G16, 3.0, zeros(G16), zeros(G16))
    hist = fl.fu_yau_run(prob, 1.0, u0=u0)
    assert hist.halt is not None and hist.halt.reason == "parabolicity"
    # halt correctness: the snapshot reproduces the halt condition
    assert fl.parabolicity_margin(hist.halt.snapshot, prob) <= 0.0


def test_fu_yau_run_blowup_halts():
    prob = fl.FuYauProblem(G16, 0.0, zeros(G16), -3.0 * np.ones(G16.shape))
    hist = fl.fu_yau_run(prob, 1.0)
    assert hist.halt is not None
    assert hist.halt.t < 1.0


def test_fu_yau_parabolic_smoothing_energy_decay():
    xs = G16.coords()
    u0 = 1e-2 * (np.cos(xs[0]) + np.sin(xs[2] + xs[3])) * np.ones(G16.shape)
    prob = fl.FuYauProblem(G16, 1e-3, zeros(G16), zeros(G16))
    norms = []
    hist = fl.fu_yau_run(
        prob, 0.2, u0=u0, on_step=lambda s, t, dt, u, row: norms.append(gr.l2_norm(G16, u))
    )
    assert hist.halt is None
    assert all(b < a * (1 + 1e-12) for a, b in zip(norms, norms[1:]))


# --- torus flow ---


def test_torus_problem_validation_rejects_nonclosed_phi0():
    om0 = fl.make_balanced_omega0(G32T, 1.0, seed=3, amplitude=0.03)
    x, _ = G32T.coords()
    bad = np.zeros(G32T.shape + (3, 3), dtype=complex)
    bad[..., 0, 1] = 0.3 * np.exp(1j * x) * np.ones(G32T.shape)
    bad[..., 1, 0] = 0.3 * np.exp(-1j * x) * np.ones(G32T.shape)
    with pytest.raises(ValueError):
        fl.TorusProblem(G32T, 0.1, 1.0, bad, om0)


def test_torus_problem_validation_rejects_unbalanced_start():
    x, _ = G32T.coords()
    conf = (1.0 + 0.2 * np.cos(x)) * np.ones(G32T.shape)
    om0 = 2 * conf[..., None, None] * np.eye(3)  # conformal metric is not balanced
    with pytest.raises(ValueError):
        fl.TorusProblem(G32T, 0.1, 1.0, np.zeros(G32T.shape + (3, 3)), om0)


def test_torus_rhs_flat_stationary():
    om0 = np.broadcast_to(2 * np.eye(3, dtype=complex), G32T.shape + (3, 3)).copy()
    prob = fl.TorusProblem(G32T, 0.3, 1.0, np.zeros(G32T.shape + (3, 3)), om0)
    assert np.abs(fl.torus_rhs(prob.psi0, prob)).max() < 1e-14


G8C2 = gr.PeriodicGrid(2, 8)


def _c2_problem():
    """A non-stationary c = 2 problem, a' = 0.2, with a closed, band-limited Phi_0."""
    om0 = fl.make_balanced_omega0(G8C2, 1.0, seed=5, amplitude=0.05)
    rng = np.random.default_rng(8)
    phi0 = pw.hermitize(gr.i_ddbar_11(G8C2, gr.random_bandlimited_herm3(G8C2, rng, 2, 0.05)))
    return fl.TorusProblem(G8C2, 0.2, 1.0, phi0, om0)


def _g32_problem():
    om0 = fl.make_balanced_omega0(G32T, 1.0, seed=5, amplitude=0.03)
    return fl.TorusProblem(G32T, 0.2, 1.0, np.zeros(G32T.shape + (3, 3)), om0)


@pytest.mark.parametrize("make", [_g32_problem, _c2_problem], ids=["c1_n32", "c2_n8"])
def test_torus_rhs_matches_public_composition(make):
    prob = make()
    g = prob.grid
    psi = prob.psi0
    omega, _ = pw.omega_from_psi(psi, 1.0)
    omega_d = gr.dealias(g, omega)
    ref = gr.i_ddbar_11(g, omega_d) + 0.2 * (
        gr.tr_r_wedge_r(g, gr.chern_curvature(g, omega_d)) - prob.phi0
    )
    got = fl.torus_rhs(psi, prob)
    assert np.abs(got - ref).max() < 1e-12 * max(np.abs(ref).max(), 1.0)
    assert fl.stationarity_report(psi, prob) > 1e-3  # a non-stationary state


def test_torus_rhs_is_band_limited():
    prob = _c2_problem()
    rhs = fl.torus_rhs(prob.psi0, prob)
    n = G8C2.points_per_dim
    spec = np.abs(np.fft.fftn(rhs, axes=(0, 1, 2, 3)))
    high = np.abs(np.fft.fftfreq(n, d=1.0 / n)) > G8C2.dealias_kmax
    outside = np.any(np.meshgrid(*[high] * 4, indexing="ij"), axis=0)
    assert spec.max() > 1.0
    assert spec[outside].max() < 1e-13 * spec.max()


def test_torus_problem_rejects_out_of_band_phi0():
    x, _ = G32T.coords()
    eta = np.zeros(G32T.shape + (3, 3), dtype=complex)
    eta[..., 1, 1] = np.cos((G32T.dealias_kmax + 1) * x) * np.ones(G32T.shape)
    phi0 = gr.i_ddbar_11(G32T, eta)  # closed, with content above N//3
    assert np.abs(phi0).max() > 1.0
    om0 = fl.make_balanced_omega0(G32T, 1.0, seed=5, amplitude=0.03)
    with pytest.raises(ValueError, match="above N//3"):
        fl.TorusProblem(G32T, 0.2, 1.0, phi0, om0)
    fl.TorusProblem(G32T, 0.2, 1.0, gr.dealias(G32T, phi0), om0)


def test_torus_run_is_rk4_of_torus_rhs():
    # the run keeps band coefficients but takes the same steps as RK4 of the grid rhs;
    # Tr(R ^ R) is not exactly Hermitian, so only the accepted state is hermitized
    prob = _c2_problem()
    dt, steps = 0.01, 3
    hist = fl.torus_run(prob, dt * steps, fl.DtControl(dt_fixed=dt))
    assert hist.halt is None and len(hist.steps) == steps

    def rhs(psi):
        return fl.torus_rhs(psi, prob)

    psi = prob.psi0
    for _ in range(steps):
        k1 = rhs(psi)
        k2 = rhs(psi + 0.5 * dt * k1)
        k3 = rhs(psi + 0.5 * dt * k2)
        k4 = rhs(psi + dt * k3)
        psi = pw.hermitize(psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    incr = np.abs(psi - prob.psi0).max()
    assert incr > 1e-4
    assert np.abs(hist.final_payload - psi).max() < 1e-12 * incr


def test_torus_rhs_at_c1_takes_no_curvature(monkeypatch):
    # the oracle table has no Tr(R ^ R) term at c = 1: rhs = i del delbar omega - a' Phi_0
    calls = []
    real = gr.chern_curvature

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(gr, "chern_curvature", counted)
    monkeypatch.setattr(fl, "chern_curvature", counted)
    om0 = fl.make_balanced_omega0(G32T, 1.0, seed=7, amplitude=0.03)
    rng = np.random.default_rng(3)
    phi0 = pw.hermitize(gr.i_ddbar_11(G32T, gr.random_bandlimited_herm3(G32T, rng, 2, 0.05)))
    prob = fl.TorusProblem(G32T, 0.3, 1.0, phi0, om0)
    psi = prob.psi0
    ref = gr.i_ddbar_11(G32T, gr.dealias(G32T, pw.adjugate3(psi))) - 0.3 * phi0
    got = fl.torus_rhs(psi, prob)
    assert np.abs(got - ref).max() < 1e-12 * np.abs(ref).max()
    stationary = fl.make_stationary_torus_problem(G32T, 1.0, 0.2, seed=7, amplitude=0.03)
    assert fl.stationarity_report(stationary.psi0, stationary) < 1e-12
    assert calls == []


def test_torus_rhs_is_closed():
    om0 = fl.make_balanced_omega0(G32T, 1.0, seed=6, amplitude=0.03)
    prob = fl.TorusProblem(G32T, 0.15, 1.0, np.zeros(G32T.shape + (3, 3)), om0)
    rhs = fl.torus_rhs(prob.psi0, prob)
    norm = gr.l2_norm(G32T, rhs)
    assert norm > 1e-8  # non-stationary start
    assert gr.d_residual_22(G32T, rhs) < 1e-8


def test_torus_stationary_fixture():
    prob = fl.make_stationary_torus_problem(G32T, 1.0, 0.2, seed=4, amplitude=0.04)
    assert fl.stationarity_report(prob.psi0, prob) < 1e-10
    hist = fl.torus_run(prob, 0.1, fl.DtControl(dt_fixed=0.002))
    assert hist.halt is None
    np.testing.assert_allclose(hist.final_payload, prob.psi0, atol=1e-12)
    for name in fl.TORUS_MONITORS:
        vals = hist.monitors[name]
        assert max(vals) - min(vals) < 1e-10


def test_torus_balanced_preservation_and_dt_halving():
    om0 = fl.make_balanced_omega0(G32T, 1.0, seed=8, amplitude=0.04)
    prob = fl.TorusProblem(G32T, 0.0, 1.0, np.zeros(G32T.shape + (3, 3)), om0)
    r0 = gr.d_residual_22(G32T, prob.psi0)

    def drift(dt, steps):
        hist = fl.torus_run(prob, dt * steps, fl.DtControl(dt_fixed=dt))
        res = hist.monitors["balanced_residual"]
        assert hist.halt is None
        return max(res) - r0, hist

    d1, h1 = drift(0.01, 200)
    d2, _ = drift(0.005, 200)
    assert max(h1.monitors["balanced_residual"]) < 1e-7
    assert d2 <= max(0.6 * d1, 1e-12)


def test_torus_stationarity_report_decreases_on_converging_run():
    prob = fl.make_stationary_torus_problem(G32T, 1.0, 0.2, seed=9, amplitude=0.03)
    # perturb the stationary state: the flow should move back down the residual
    rng = np.random.default_rng(1)
    pert = gr.i_ddbar_11(G32T, gr.random_bandlimited_herm3(G32T, rng, 2, 0.01))
    psi = prob.psi0 + pw.hermitize(pert)
    r_start = fl.stationarity_report(psi, prob)
    assert r_start > 1e-6
    prob2 = fl.TorusProblem(G32T, prob.alpha_p, prob.abs_omega, prob.phi0,
                            pw.omega_from_psi(psi, prob.abs_omega)[0])
    hist = fl.torus_run(prob2, 2.0)
    assert hist.halt is None
    r_end = fl.stationarity_report(hist.final_payload, prob)
    assert r_end < 0.5 * r_start
    rhs_norms = hist.monitors["rhs_norm"]
    assert rhs_norms[-1] < rhs_norms[0]


def test_torus_positivity_halt():
    # a huge fixed dt destabilizes RK4 and drives Psi out of the positive cone
    om0 = fl.make_balanced_omega0(G32T, 1.0, seed=10, amplitude=0.02)
    phi0 = np.zeros(G32T.shape + (3, 3), dtype=complex)
    prob = fl.TorusProblem(G32T, 0.0, 1.0, phi0, om0)
    hist = fl.torus_run(prob, 50.0, fl.DtControl(dt_fixed=1.0))
    assert hist.halt is not None and hist.halt.reason == "positivity"
    assert hist.halt.step == 4 and len(hist.steps) == 4
    # halt correctness: the snapshot reproduces the halt condition
    with pytest.raises(PositivityError):
        fl._torus_gate(hist.halt.snapshot, prob)


def _fu_yau_case():
    g = gr.PeriodicGrid(2, 8)
    u0 = 1e-2 * np.cos(g.coords()[0]) * np.ones(g.shape)
    prob = fl.FuYauProblem(g, 0.05, zeros(g), 0.3 * np.ones(g.shape))
    return (lambda ctrl, on_step=None: fl.fu_yau_run(prob, 0.5, ctrl, u0=u0, on_step=on_step)), u0


def _torus_case():
    om0 = fl.make_balanced_omega0(G32T, 1.0, seed=3, amplitude=0.03)
    prob = fl.TorusProblem(G32T, 0.1, 1.0, np.zeros(G32T.shape + (3, 3)), om0)
    return (lambda ctrl, on_step=None: fl.torus_run(prob, 0.05, ctrl, on_step=on_step)), prob.psi0


@pytest.mark.parametrize("case", [_fu_yau_case, _torus_case], ids=["fu_yau", "torus"])
def test_driver_contract(case):
    run, y0 = case()
    calls = []
    hist = run(fl.DtControl(), lambda *args: calls.append((args[:3], args[3].copy(), args[4])))
    assert hist.halt is None and len(hist.steps) > 1
    # on_step is called once per recorded step, with that step's row
    assert len(calls) == len(hist.steps)
    for i, ((step, t, dt), y, row) in enumerate(calls):
        assert (step, t, dt) == (hist.steps[i], hist.times[i], hist.dts[i])
        assert row == {name: hist.monitors[name][i] for name in hist.monitor_names}
    np.testing.assert_array_equal(calls[-1][1], hist.final_payload)
    # a dt_min above the CFL step halts before the first step, with the start state
    calls.clear()
    halted = run(fl.DtControl(dt_min=2.0 * hist.dts[0]), lambda *args: calls.append(args))
    assert halted.halt is not None and halted.halt.reason == "instability"
    assert halted.halt.step == 0 and halted.halt.t == 0.0
    assert not halted.steps and not calls
    assert all(not vals for vals in halted.monitors.values())
    np.testing.assert_array_equal(halted.halt.snapshot, y0)
    np.testing.assert_array_equal(halted.final_payload, y0)


def test_stationarity_zero_iff_rhs_zero():
    prob = fl.make_stationary_torus_problem(G32T, 1.0, 0.25, seed=12, amplitude=0.03)
    assert gr.l2_norm(G32T, fl.torus_rhs(prob.psi0, prob)) < 1e-12
    assert fl.stationarity_report(prob.psi0, prob) < 1e-12
    rng = np.random.default_rng(2)
    pert = pw.hermitize(gr.i_ddbar_11(G32T, gr.random_bandlimited_herm3(G32T, rng, 2, 0.02)))
    psi = prob.psi0 + pert
    assert fl.stationarity_report(psi, prob) > 1e-7
