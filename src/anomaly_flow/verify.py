"""Deterministic identity suites.

Each suite checks one pinned identity over seeded random draws and reports
its worst residual against a fixed tolerance.  The CLI ``verify`` command
runs all of them; the acceptance tests reuse individual suites.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exterior, linearize, pointwise, sampling
from .exact import GaussianRational


@dataclass
class SuiteResult:
    name: str
    trials: int
    max_residual: float
    tolerance: float
    passed: bool
    detail: str = ""


def _xi_mv(xi):
    return exterior.MultiVector({(j,): xi[j] for j in range(3)})


def _xibar_mv(xi):
    return exterior.MultiVector({(j + 3,): np.conj(xi[j]) for j in range(3)})


def _rand_gaussian_rational_hermitian(rng):
    def frac():
        return Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))

    m = [[None] * 3 for _ in range(3)]
    for i in range(3):
        m[i][i] = GaussianRational(frac())
        for j in range(i + 1, 3):
            m[i][j] = GaussianRational(frac(), frac())
            m[j][i] = m[i][j].conjugate()
    return m


def _exact_adjugate(m):
    out = [[None] * 3 for _ in range(3)]
    idx = [(1, 2), (0, 2), (0, 1)]
    for i in range(3):
        for j in range(3):
            r1, r2 = idx[j]
            c1, c2 = idx[i]
            minor = m[r1][c1] * m[r2][c2] - m[r1][c2] * m[r2][c1]
            out[i][j] = minor if (i + j) % 2 == 0 else -minor
    return out


def suite_wedge_square_exact(seed, trials=50):
    """to_form22(w ^ w) equals the adjugate of w, in exact arithmetic."""
    rng = np.random.default_rng([seed, 1])
    failures = 0
    for _ in range(trials):
        m = _rand_gaussian_rational_hermitian(rng)
        mv = exterior.from_form11(m)
        q = exterior.to_form22(mv.wedge(mv))
        adj = _exact_adjugate(m)
        if any(q[i, j] != adj[i][j] for i in range(3) for j in range(3)):
            failures += 1
    return SuiteResult(
        "wedge-square adjugate (exact)", trials, float(failures), 0.0, failures == 0
    )


def suite_wedge_square_float(seed, trials=100):
    rng = np.random.default_rng([seed, 2])
    worst = 0.0
    for _ in range(trials):
        w = sampling.random_positive(rng)
        mv = exterior.from_form11(w)
        q = exterior.to_form22(mv.wedge(mv))
        adj = pointwise.adjugate3(w)
        worst = max(worst, np.abs(q - adj).max() / np.abs(adj).max())
    return SuiteResult("wedge-square adjugate (float)", trials, worst, 1e-12, worst < 1e-12)


def suite_top_determinant(seed, trials=100):
    rng = np.random.default_rng([seed, 3])
    worst = 0.0
    for _ in range(trials):
        w = sampling.random_positive(rng)
        mv = exterior.from_form11(w)
        top = exterior.top_coefficient(exterior.wedge(mv, mv, mv))
        det = pointwise.det3(w)
        worst = max(worst, abs(top - 6.0 * det) / abs(6.0 * det))
    return SuiteResult("top form = 3! det", trials, worst, 1e-12, worst < 1e-12)


def suite_form22_roundtrip(seed, trials=100):
    rng = np.random.default_rng([seed, 4])
    worst = 0.0
    ok = True
    for _ in range(trials):
        q = sampling.random_hermitian(rng)
        back = exterior.to_form22(exterior.from_form22(q))
        worst = max(worst, np.abs(back - q).max() / max(np.abs(q).max(), 1e-300))
        mv = exterior.from_form22(q)
        ok = ok and mv.conjugate().max_abs_diff(mv) < 1e-12
        nh = q + 0.5j * np.eye(3)  # non-Hermitian: form must not be real
        mv_nh = exterior.from_form22(nh)
        ok = ok and mv_nh.conjugate().max_abs_diff(mv_nh) > 1e-3
    return SuiteResult(
        "(2,2) roundtrip & reality", trials, worst, 1e-12, ok and worst < 1e-12
    )


def suite_root_roundtrip(seed, trials=1000):
    """root22 output squares back to Psi (checked through the oracle wedge)."""
    rng = np.random.default_rng([seed, 5])
    worst = 0.0
    for _ in range(trials):
        psi = sampling.random_positive(rng)
        w = pointwise.root22(psi)
        mv = exterior.from_form11(w)
        q = exterior.to_form22(mv.wedge(mv))
        worst = max(worst, np.abs(q - psi).max() / np.abs(psi).max())
        if pointwise.hermitian_residual(w) > 1e-12 or pointwise.herm3_min_eig(w) <= 0:
            worst = max(worst, 1.0)
    return SuiteResult("(2,2)-root roundtrip (oracle)", trials, worst, 1e-10, worst < 1e-10)


def suite_psi_omega_roundtrip(seed, trials=1000):
    rng = np.random.default_rng([seed, 6])
    psis = np.stack([sampling.random_positive(rng) for _ in range(trials)])
    ab = 0.5 + rng.random()
    omegas, _ = pointwise.omega_from_psi(psis, ab)
    back = pointwise.psi_from_omega(omegas, ab)
    num = np.abs(back - psis).max(axis=(-2, -1))
    den = np.abs(psis).max(axis=(-2, -1))
    worst = float((num / den).max())
    return SuiteResult("psi/omega roundtrip", trials, worst, 1e-10, worst < 1e-10)


def suite_scaling_covariance(seed, trials=100):
    rng = np.random.default_rng([seed, 7])
    worst = 0.0
    for _ in range(trials):
        psi = sampling.random_positive(rng)
        lam = 0.5 + 2.0 * rng.random()
        r1 = pointwise.root22(lam**2 * psi)
        r2 = lam * pointwise.root22(psi)
        worst = max(worst, np.abs(r1 - r2).max() / np.abs(r2).max())
        ab = 0.5 + rng.random()
        o1, _ = pointwise.omega_from_psi(lam * psi, ab)
        o2, _ = pointwise.omega_from_psi(psi, ab)
        worst = max(worst, np.abs(o1 - lam**2 * o2).max() / np.abs(o1).max())
    return SuiteResult("scaling covariance", trials, worst, 1e-10, worst < 1e-10)


def suite_star_defining_identity(seed, trials=100):
    """phi ^ Psi = (<phi, star Psi>/3!) w^3 for arbitrary (1,1)-forms phi."""
    rng = np.random.default_rng([seed, 8])
    worst = 0.0
    for _ in range(trials):
        wt = sampling.random_positive(rng)
        psi = sampling.random_hermitian(rng)
        phi = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        star = pointwise.hodge_star22(psi, wt)
        lhs = exterior.top_coefficient(exterior.from_form11(phi).wedge(exterior.from_form22(psi)))
        w3 = exterior.top_coefficient(exterior.wedge(*[exterior.from_form11(wt)] * 3))
        rhs = pointwise.inner11(phi, star, wt) / 6.0 * w3
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1.0))
    return SuiteResult("star defining identity (oracle)", trials, worst, 1e-12, worst < 1e-12)


def suite_star_normalized_square(seed, trials=200):
    rng = np.random.default_rng([seed, 9])
    worst = 0.0
    for _ in range(trials):
        w = sampling.random_positive(rng)
        ab = 0.5 + rng.random()
        psi = pointwise.psi_from_omega(w, ab)
        nrm = pointwise.norm_omega(w, ab)
        diff = pointwise.hodge_star22(psi, w) - 2.0 * nrm * w
        worst = max(worst, np.abs(diff).max() / np.abs(2.0 * nrm * w).max())
    return SuiteResult("star of normalized square", trials, worst, 1e-12, worst < 1e-12)


def suite_tilde_star_trace(seed, trials=100):
    rng = np.random.default_rng([seed, 10])
    worst = 0.0
    for _ in range(trials):
        w = sampling.random_positive(rng)
        ab = 0.5 + rng.random()
        dpsi = sampling.random_hermitian(rng)
        nrm = pointwise.norm_omega(w, ab)
        lhs = pointwise.inner11(pointwise.tilde_star(dpsi, w, ab), w, w)
        rhs = pointwise.inner11(pointwise.hodge_star22(dpsi, w), w, w) / nrm
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1.0))
    return SuiteResult("modified-star trace identity", trials, worst, 1e-12, worst < 1e-12)


def suite_variation_algebraic(seed, trials=100):
    rng = np.random.default_rng([seed, 11])
    worst = 0.0
    for _ in range(trials):
        w = sampling.random_positive(rng)
        ab = 0.5 + rng.random()
        dpsi = sampling.random_hermitian(rng)
        a = pointwise.variation_index_form(dpsi, w, ab)
        b = pointwise.tilde_star(dpsi, w, ab)
        worst = max(worst, np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))
    return SuiteResult("variation index form = modified star", trials, worst, 1e-12, worst < 1e-12)


def suite_variation_fd(seed, trials=100, h=1e-5):
    """Finite-difference derivative of the root map matches the modified star.

    Perturbations are normalized to unit Frobenius norm; the 1e-4 tolerance
    at h = 1e-5 pins the first-order constant at that scale.
    """
    rng = np.random.default_rng([seed, 12])
    worst, worst_ratio = 0.0, 0.0
    for _ in range(trials):
        w = sampling.random_positive(rng)
        ab = 0.5 + rng.random()
        dpsi = sampling.random_hermitian(rng)
        dpsi = dpsi / np.linalg.norm(dpsi)
        r1 = pointwise.variation_consistency(w, ab, dpsi, h)
        r2 = pointwise.variation_consistency(w, ab, dpsi, h / 2)
        worst = max(worst, r1)
        worst_ratio = max(worst_ratio, r2 / max(r1, 1e-300))
    passed = worst < 1e-4 and worst_ratio < 0.6
    return SuiteResult(
        "variation finite difference O(h)",
        trials,
        worst,
        1e-4,
        passed,
        detail=f"worst halving ratio {worst_ratio:.3f}",
    )


def suite_kernel_identity(seed, trials=200):
    """On the d-symbol kernel: i xi ^ xibar ^ tilde_star(dPsi) = (|xi|^2/2||Omega||) dPsi.

    Computed entirely through the oracle wedge, independent of the symbol
    code path; also pins kernel dimension = 4.
    """
    rng = np.random.default_rng([seed, 13])
    worst = 0.0
    dims_ok = True
    for _ in range(trials):
        w = sampling.random_positive(rng)
        ab = 0.5 + rng.random()
        xi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        basis = linearize.d_symbol_kernel(xi)
        dims_ok = dims_ok and len(basis) == 4
        coeff = rng.standard_normal(4)
        dpsi = sum(c * b for c, b in zip(coeff, basis))
        ts = pointwise.tilde_star(dpsi, w, ab)
        lhs = exterior.to_form22(
            exterior.wedge(1j * _xi_mv(xi), _xibar_mv(xi), exterior.from_form11(ts))
        )
        lam = linearize.xi_norm_sq(xi, w) / (2.0 * pointwise.norm_omega(w, ab))
        scale = max(np.abs(lam * dpsi).max(), 1e-300)
        worst = max(worst, np.abs(lhs - lam * dpsi).max() / scale)
    return SuiteResult(
        "kernel identity (oracle)", trials, worst, 1e-10, worst < 1e-10 and dims_ok
    )


def suite_symbol_scalar_at_zero_coupling(seed, trials=100):
    rng = np.random.default_rng([seed, 14])
    worst = 0.0
    rzero = np.zeros((3, 3, 3, 3))
    for _ in range(trials):
        w = sampling.random_positive(rng)
        ab = 0.5 + rng.random()
        xi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        rep = linearize.restricted_symbol(xi, w, ab, rzero, 0.0)
        lam = linearize.xi_norm_sq(xi, w) / (2.0 * pointwise.norm_omega(w, ab))
        worst = max(worst, np.abs(rep.eigenvalues - lam).max() / lam)
        if not rep.elliptic:
            worst = max(worst, 1.0)
    return SuiteResult("symbol scalar at zero coupling", trials, worst, 1e-10, worst < 1e-10)


def suite_curvature_bound_sufficiency(seed, trials=500):
    """Whenever the curvature perturbation norm is below |xi|^2, the verdict is elliptic."""
    rng = np.random.default_rng([seed, 15])
    counterexamples = 0
    checked = 0
    for _ in range(trials):
        w = sampling.random_positive(rng)
        ab = 0.5 + rng.random()
        r = sampling.random_curvature_for_metric(rng, w, scale=2.0 * rng.random())
        alpha = 0.4 * rng.random()
        xi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        norm = linearize.proposition_norm(xi, w, ab, r, alpha)
        if norm < linearize.xi_norm_sq(xi, w):
            checked += 1
            rep = linearize.restricted_symbol(xi, w, ab, r, alpha)
            if not rep.elliptic:
                counterexamples += 1
    return SuiteResult(
        "curvature-bound sufficiency",
        trials,
        float(counterexamples),
        0.0,
        counterexamples == 0,
        detail=f"{checked} draws below the bound",
    )


def suite_rotation_covariance(seed, trials=50):
    """Symbol eigenvalues are invariant under a simultaneous unitary frame change."""
    rng = np.random.default_rng([seed, 16])
    worst = 0.0
    for _ in range(trials):
        w = sampling.random_positive(rng)
        ab = 0.5 + rng.random()
        r = sampling.random_curvature_for_metric(rng, w, 0.5)
        alpha = 0.2 * rng.random()
        xi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u, _ = np.linalg.qr(a)
        # coordinates z = U z': metric U^H w U, covector U^T xi, frame change U^H
        w2 = u.conj().T @ w @ u
        xi2 = u.T @ xi
        r2 = sampling.transport_curvature(r, u.conj().T)
        e1 = np.sort_complex(linearize.restricted_symbol(xi, w, ab, r, alpha).eigenvalues)
        e2 = np.sort_complex(linearize.restricted_symbol(xi2, w2, ab, r2, alpha).eigenvalues)
        worst = max(worst, np.abs(e1 - e2).max() / max(np.abs(e1).max(), 1e-300))
    return SuiteResult("rotation covariance", trials, worst, 1e-8, worst < 1e-8)


def suite_wedge_extract_constraint(seed, trials=200):
    rng = np.random.default_rng([seed, 17])
    worst = 0.0
    for _ in range(trials):
        xi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        phi = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        out = linearize.wedge_xi_extract(xi, phi)
        res = np.abs(out @ np.conj(xi)).max()
        worst = max(worst, res / max(np.abs(out).max(), 1e-300))
    return SuiteResult("wedge-extract kernel consistency", trials, worst, 1e-12, worst < 1e-12)


def suite_coupled_block_spectrum(seed, trials=30):
    """Coupled spectrum = restricted spectrum + |xi|^2 with multiplicity r^2."""
    rng = np.random.default_rng([seed, 18])
    worst = 0.0
    for _ in range(trials):
        for rank in (1, 2, 3):
            w = sampling.random_positive(rng)
            ab = 0.5 + rng.random()
            r = sampling.random_curvature_for_metric(rng, w, 0.5)
            alpha = 0.2 * rng.random()
            xi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            h = sampling.random_positive_endo(rng, rank)
            f = sampling.random_endcurv(rng, h)
            mat = linearize.coupled_symbol_matrix(xi, w, ab, r, alpha, f, h)
            got = np.sort_complex(np.linalg.eigvals(mat))
            rep = linearize.restricted_symbol(xi, w, ab, r, alpha)
            expect = np.sort_complex(
                np.concatenate(
                    [rep.eigenvalues, [linearize.xi_norm_sq(xi, w)] * rank**2]
                )
            )
            scale = max(np.abs(expect).max(), 1e-300)
            worst = max(worst, np.abs(got - expect).max() / scale)
    return SuiteResult("coupled block spectrum", trials * 3, worst, 1e-10, worst < 1e-10)


def bisect_adversarial_threshold(strength=5.0, hi=0.1, tol=1e-3, abs_omega=1.0):
    """Bracket the coupling where the adversarial fixture loses ellipticity."""
    r = sampling.trace_curvature(strength)
    w = np.eye(3, dtype=complex)
    xi = np.array([1.0, 0.0, 0.0])

    def elliptic(alpha):
        return linearize.restricted_symbol(xi, w, abs_omega, r, alpha).elliptic

    lo_a, hi_a = 0.0, hi
    if elliptic(hi_a):
        raise ValueError("adversarial fixture did not flip at the upper coupling")
    while hi_a - lo_a > tol:
        mid = 0.5 * (lo_a + hi_a)
        if elliptic(mid):
            lo_a = mid
        else:
            hi_a = mid
    return lo_a, hi_a


def suite_adversarial_flip(seed, trials=1):
    lo, hi = bisect_adversarial_threshold()
    r = sampling.trace_curvature(5.0)
    w = np.eye(3, dtype=complex)
    xi = np.array([1.0, 0.0, 0.0])
    ok = (
        linearize.restricted_symbol(xi, w, 1.0, r, lo).elliptic
        and not linearize.restricted_symbol(xi, w, 1.0, r, hi).elliptic
        and hi - lo <= 1e-3
    )
    return SuiteResult(
        "adversarial verdict flip",
        trials,
        hi - lo,
        1e-3,
        ok,
        detail=f"threshold in [{lo:.6f}, {hi:.6f}]",
    )


ALL_SUITES = [
    suite_wedge_square_exact,
    suite_wedge_square_float,
    suite_top_determinant,
    suite_form22_roundtrip,
    suite_root_roundtrip,
    suite_psi_omega_roundtrip,
    suite_scaling_covariance,
    suite_star_defining_identity,
    suite_star_normalized_square,
    suite_tilde_star_trace,
    suite_variation_algebraic,
    suite_variation_fd,
    suite_kernel_identity,
    suite_symbol_scalar_at_zero_coupling,
    suite_curvature_bound_sufficiency,
    suite_rotation_covariance,
    suite_wedge_extract_constraint,
    suite_coupled_block_spectrum,
    suite_adversarial_flip,
]


def run_all(seed: int) -> list[SuiteResult]:
    return [suite(seed) for suite in ALL_SUITES]
