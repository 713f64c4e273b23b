"""Acceptance criteria.

One test per criterion; each asserts the stated tolerances and its time
budget, and prints a single PASS line (visible with ``pytest -s`` or ``-v``).
"""

import time

import numpy as np
import pytest

from anomaly_flow import flow as fl
from anomaly_flow import grid as gr
from anomaly_flow import verify
from anomaly_flow.grid import PeriodicGrid

SEED = 20260808


def _report(num, elapsed, budget, detail):
    line = f"ACCEPTANCE {num} PASS ({elapsed:.1f}s / budget {budget:.0f}s): {detail}"
    print(line)


def test_criterion_1_convention_pinning_exact():
    t0 = time.perf_counter()
    res = verify.suite_wedge_square_exact(SEED, trials=50)
    elapsed = time.perf_counter() - t0
    assert res.passed, res
    assert res.max_residual == 0.0
    assert elapsed < 5.0
    _report(1, elapsed, 5, "50 exact wedge squares equal the cofactor matrix, zero residual")


def test_criterion_2_root_identities():
    t0 = time.perf_counter()
    roundtrip = verify.suite_psi_omega_roundtrip(SEED, trials=1000)
    star = verify.suite_star_normalized_square(SEED)
    elapsed = time.perf_counter() - t0
    assert roundtrip.passed and roundtrip.max_residual < 1e-10, roundtrip
    assert star.passed and star.max_residual < 1e-12, star
    assert elapsed < 10.0
    _report(
        2, elapsed, 10,
        f"1000 roundtrips ({roundtrip.max_residual:.2e}); star of the normalized "
        f"square equals 2||Omega|| omega ({star.max_residual:.2e})",
    )


def test_criterion_3_variation_formula():
    t0 = time.perf_counter()
    res = verify.suite_variation_fd(SEED, trials=100, h=1e-5)
    elapsed = time.perf_counter() - t0
    assert res.passed and res.max_residual < 1e-4, res
    assert elapsed < 10.0
    _report(3, elapsed, 10, f"fd residual {res.max_residual:.2e} at h=1e-5; {res.detail}")


def test_criterion_4_kernel_identity():
    t0 = time.perf_counter()
    res = verify.suite_kernel_identity(SEED, trials=200)
    elapsed = time.perf_counter() - t0
    assert res.passed and res.max_residual < 1e-10, res
    assert elapsed < 10.0
    _report(4, elapsed, 10, f"200 oracle-wedged kernel identities ({res.max_residual:.2e}), dim 4")


def test_criterion_5_ellipticity_machinery():
    t0 = time.perf_counter()
    scalar = verify.suite_symbol_scalar_at_zero_coupling(SEED)
    suff = verify.suite_curvature_bound_sufficiency(SEED, trials=500)
    flip = verify.suite_adversarial_flip(SEED)
    elapsed = time.perf_counter() - t0
    assert scalar.passed and scalar.max_residual < 1e-10, scalar
    assert suff.passed and suff.max_residual == 0.0, suff
    assert flip.passed and flip.max_residual <= 1e-3, flip
    assert elapsed < 30.0
    _report(
        5, elapsed, 30,
        f"zero-coupling eigenvalues ({scalar.max_residual:.2e}); 500-draw sufficiency, "
        f"0 counterexamples; {flip.detail}",
    )


def test_criterion_6_coupled_block_structure():
    t0 = time.perf_counter()
    res = verify.suite_coupled_block_spectrum(SEED, trials=30)
    elapsed = time.perf_counter() - t0
    assert res.passed and res.max_residual < 1e-10, res
    assert elapsed < 10.0
    _report(6, elapsed, 10, f"spectrum union for ranks 1..3 ({res.max_residual:.2e})")


def test_criterion_7_balanced_preservation():
    t0 = time.perf_counter()
    grid = PeriodicGrid(1, 64)
    omega0 = fl.make_balanced_omega0(grid, 1.0, seed=SEED, amplitude=0.04, kmax=3)
    prob = fl.TorusProblem(grid, 0.0, 1.0, np.zeros(grid.shape + (3, 3)), omega0)
    r0 = gr.d_residual_22(grid, prob.psi0)

    def run(dt, steps):
        hist = fl.torus_run(prob, dt * steps, fl.DtControl(dt_fixed=dt))
        assert hist.halt is None
        assert len(hist.steps) == steps
        res = hist.monitors["balanced_residual"]
        return max(res), (max(res) - r0) / (dt * steps)

    worst_full, rate_full = run(0.002, 1000)
    worst_half, rate_half = run(0.001, 1000)
    elapsed = time.perf_counter() - t0
    assert worst_full < 1e-7 and worst_half < 1e-7
    # first-order drift must halve with dt; the spectral scheme keeps the
    # residual at the roundoff floor, which counts as "halves or better"
    assert rate_half <= max(0.6 * rate_full, 1e-12)
    assert elapsed < 60.0
    _report(
        7, elapsed, 60,
        f"10^3-step residual {worst_full:.2e} < 1e-7; drift rate {rate_full:.2e} -> "
        f"{rate_half:.2e} at dt/2",
    )


def test_criterion_8_fu_yau_flow():
    t0 = time.perf_counter()
    parts = {}

    def part_done(name):
        parts[name] = time.perf_counter() - t0 - sum(parts.values())

    # (a) u = 0 is stationary to machine precision
    g_a = PeriodicGrid(2, 16)
    prob_a = fl.FuYauProblem(g_a, 0.1, np.zeros(g_a.shape), np.zeros(g_a.shape))
    hist_a = fl.fu_yau_run(prob_a, 1.0)
    assert hist_a.halt is None
    assert np.abs(hist_a.final_payload).max() == 0.0
    part_done("a")

    # (b) constant mu reproduces <e^u> = 1 + <mu> t at N = 32, T = 1
    g_b = PeriodicGrid(2, 32)
    mu = 0.5
    prob_b = fl.FuYauProblem(g_b, 0.05, np.zeros(g_b.shape), mu * np.ones(g_b.shape))
    hist_b = fl.fu_yau_run(prob_b, 1.0)
    assert hist_b.halt is None
    gap_rel = max(
        abs(gap) / (1.0 + mu * t)
        for gap, t in zip(hist_b.monitors["conservation_gap"], hist_b.times)
    )
    assert gap_rel < 1e-6
    part_done("b")

    # (c) small single-mode data decays within 1% of exp(-|k|^2 t), t <= 0.1
    xs = g_b.coords()
    eps = 1e-3
    u0 = eps * np.cos(xs[0]) * np.ones(g_b.shape)
    rate = 0.5  # Lap eigenvalue magnitude of this mode for Lap = 2 sum dd_bar
    prob_c = fl.FuYauProblem(g_b, 1e-3, np.zeros(g_b.shape), np.zeros(g_b.shape))
    amps = []

    def track(step, t, dt, u, row):
        amps.append((t, abs(gr.forward(g_b, u + 0j)[1, 0, 0, 0])))

    hist_c = fl.fu_yau_run(prob_c, 0.1, u0=u0, on_step=track)
    assert hist_c.halt is None
    a0 = abs(gr.forward(g_b, u0 + 0j)[1, 0, 0, 0])
    for t, amp in amps:
        assert abs(amp / a0 - np.exp(-rate * t)) < 1e-2 * np.exp(-rate * t)
    part_done("c")

    # (d) parabolicity margin at u = 0, f = c is exactly 1 + alpha' c
    for alpha, c in ((0.3, 2.0), (0.07, 5.0)):
        prob_d = fl.FuYauProblem(g_a, alpha, c * np.ones(g_a.shape), np.zeros(g_a.shape))
        assert fl.parabolicity_margin(np.zeros(g_a.shape), prob_d) == 1.0 + alpha * c

    part_done("d")
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, "elapsed per part: " + ", ".join(
        f"({name}) {secs:.1f}s" for name, secs in parts.items()
    )
    _report(
        8, elapsed, 120,
        f"(a) stationary exact; (b) conservation {gap_rel:.2e}; "
        f"(c) mode decay within 1%; (d) margin exact",
    )


def test_criterion_9_stationarity_certificate():
    t0 = time.perf_counter()
    grid = PeriodicGrid(1, 32)
    prob = fl.make_stationary_torus_problem(grid, 1.0, 0.2, seed=SEED, amplitude=0.04)
    # || i del delbar omega + a' (Tr R^R - Phi_0) ||_L2 / ||Psi||_L2 at the stationary start
    assert gr.l2_norm(grid, fl.torus_rhs(prob.psi0, prob)) / gr.l2_norm(grid, prob.psi0) < 1e-10
    hist = fl.torus_run(prob, 4.0, fl.DtControl(dt_fixed=0.004))
    assert hist.halt is None
    assert len(hist.steps) == 1000
    for name in fl.TORUS_MONITORS:
        vals = hist.monitors[name]
        assert max(vals) - min(vals) < 1e-10, name
    assert max(hist.monitors["rhs_norm"]) < 1e-10
    np.testing.assert_allclose(hist.final_payload, prob.psi0, atol=1e-10)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(
        9, elapsed, 60,
        f"10^3 steps, rhs floor {max(hist.monitors['rhs_norm']):.2e}, monitors constant",
    )
