"""Deterministic identity suites.

Each suite checks one pinned identity over seeded random draws and reports
its worst residual against a fixed tolerance.  The CLI ``verify`` command
runs all of them; the acceptance tests reuse individual suites.

Draw order: suite k draws its trials one after another from the stream
``np.random.default_rng([seed, k])``, each trial's inputs in a fixed order,
and ``_draw`` stacks them.  Trial i of stream ``[seed, k]`` is therefore the
same sample whether the suite evaluates it alone or on the stack.  Every
``pointwise`` and ``linearize`` function broadcasts over leading point axes,
so each suite calls them once on the whole stack (the coupled-spectrum suite
once per bundle rank); only the oracle ``MultiVector`` wedges run trial by
trial.

The exact suite (acceptance criterion 1) has no number type of its own: it
draws dyadic matrices (_dyadic_hermitian), on which the oracle and the
pointwise adjugate and determinant are exact in float64, and compares them
with ==.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exterior, linearize, pointwise, sampling


@dataclass
class SuiteResult:
    name: str
    trials: int
    max_residual: float
    tolerance: float
    passed: bool
    detail: str = ""


def _draw(seed, k, trials, sample):
    """The inputs of `trials` trials, drawn one after another from stream [seed, k].

    sample(rng) draws one trial's inputs and returns them as a tuple; the
    result holds each input stacked along a new first axis (row i is trial i).
    """
    rng = np.random.default_rng([seed, k])
    rows = [sample(rng) for _ in range(trials)]
    return [np.stack(col) for col in zip(*rows)]


def _result(name, trials, residuals, tol, ok=True, detail=""):
    """Verdict on the worst of a suite's residuals (failure counts where tol is 0).

    The suite passes when ok holds and the worst residual is below tol, or zero.
    """
    worst = float(np.max(residuals))
    passed = bool(ok) and (worst < tol or worst == 0.0)
    return SuiteResult(name, trials, worst, tol, passed, detail)


def _rel(diff, ref, axis=(-2, -1)):
    """max|diff| / max|ref| per matrix, or per vector with axis=-1 (ref's scale floored at 1e-300)."""
    scale = np.maximum(np.abs(ref).max(axis=axis), 1e-300)
    return np.abs(diff).max(axis=axis) / scale


def _metric(rng):
    """A positive metric omega and |Omega| in [0.5, 1.5)."""
    return sampling.random_positive(rng), 0.5 + rng.random()


def _covector(rng):
    """A complex covector xi, not normalized."""
    return rng.standard_normal(3) + 1j * rng.standard_normal(3)


def _form11(rng):
    """An arbitrary complex 3x3 matrix: a (1,1)-form with no reality condition."""
    return rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))


def _variation_point(rng):
    """omega, |Omega| and a Hermitian dPsi."""
    return *_metric(rng), sampling.random_hermitian(rng)


def _symbol_point(rng):
    """omega, |Omega|, a curvature of scale 0.5 for omega, alpha' in [0, 0.2) and xi."""
    w, ab = _metric(rng)
    r = sampling.random_curvature_for_metric(rng, w, 0.5)
    return w, ab, r, 0.2 * rng.random(), _covector(rng)


def _square(w):
    """to_form22(w ^ w) through the oracle."""
    mv = exterior.from_form11(w)
    return exterior.to_form22(mv.wedge(mv))


def _cube(w):
    """Top coefficient of w ^ w ^ w through the oracle."""
    return exterior.top_coefficient(exterior.wedge(*[exterior.from_form11(w)] * 3))


def _i_xi_xibar(xi):
    """i xi ^ xibar through the oracle."""
    i_xi = exterior.MultiVector({(j,): 1j * xi[j] for j in range(3)})
    return i_xi.wedge(exterior.MultiVector({(j + 3,): np.conj(xi[j]) for j in range(3)}))


def _dyadic_hermitian(rng):
    """A Hermitian 3x3 matrix whose entries' real and imaginary parts are p / 2^e, with
    integers |p| <= 9 and 0 <= e <= 3."""
    re, im = rng.integers(-9, 10, (2, 3, 3)) / 2.0 ** rng.integers(0, 4, (2, 3, 3))
    upper = np.triu(re + 1j * im, 1)
    return upper + upper.conj().T + np.diag(np.diag(re))


def suite_wedge_square_exact(seed, trials=50):
    """to_form22(w ^ w) == pointwise.adjugate3(w) and top(w^3) == 6 pointwise.det3(w).

    On dyadic w every product and sum either side forms is exact in float64,
    so == is an exact comparison; both identities are homogeneous, so the
    verdict does not depend on the scale of w.
    """
    (ws,) = _draw(seed, 1, trials, lambda rng: (_dyadic_hermitian(rng),))
    adj, det6 = pointwise.adjugate3(ws), 6.0 * pointwise.det3(ws)
    failures = sum(bool(np.any(_square(w) != a) or _cube(w) != d) for w, a, d in zip(ws, adj, det6))
    return _result("wedge-square adjugate (exact)", trials, failures, 0.0)


def suite_wedge_square_float(seed, trials=100):
    (ws,) = _draw(seed, 2, trials, lambda rng: (sampling.random_positive(rng),))
    adj = pointwise.adjugate3(ws)
    q = np.stack([_square(w) for w in ws])
    return _result("wedge-square adjugate (float)", trials, _rel(q - adj, adj), 1e-12)


def suite_top_determinant(seed, trials=100):
    (ws,) = _draw(seed, 3, trials, lambda rng: (sampling.random_positive(rng),))
    det6 = 6.0 * pointwise.det3(ws)
    top = np.array([_cube(w) for w in ws])
    return _result("top form = 3! det", trials, np.abs(top - det6) / np.abs(det6), 1e-12)


def suite_form22_roundtrip(seed, trials=100):
    (qs,) = _draw(seed, 4, trials, lambda rng: (sampling.random_hermitian(rng),))
    back = []
    ok = True
    for q in qs:
        mv = exterior.from_form22(q)
        back.append(exterior.to_form22(mv))
        ok = ok and mv.conjugate().max_abs_diff(mv) < 1e-12
        mv_nh = exterior.from_form22(q + 0.5j * np.eye(3))  # non-Hermitian: form must not be real
        ok = ok and mv_nh.conjugate().max_abs_diff(mv_nh) > 1e-3
    return _result("(2,2) roundtrip & reality", trials, _rel(np.stack(back) - qs, qs), 1e-12, ok)


def suite_root_roundtrip(seed, trials=1000):
    """root22 output squares back to Psi (checked through the oracle wedge)."""
    (psis,) = _draw(seed, 5, trials, lambda rng: (sampling.random_positive(rng),))
    ws = pointwise.root22(psis)
    res = _rel(np.stack([_square(w) for w in ws]) - psis, psis)
    bad = (pointwise.hermitian_residual(ws) > 1e-12) | (pointwise.herm3_min_eig(ws) <= 0)
    return _result("(2,2)-root roundtrip (oracle)", trials, np.maximum(res, bad), 1e-10)


def suite_psi_omega_roundtrip(seed, trials=1000):
    # one |Omega| for the whole stack, drawn after the trials
    rng = np.random.default_rng([seed, 6])
    psis = np.stack([sampling.random_positive(rng) for _ in range(trials)])
    ab = 0.5 + rng.random()
    omegas, _ = pointwise.omega_from_psi(psis, ab)
    back = pointwise.psi_from_omega(omegas, ab)
    return _result("psi/omega roundtrip", trials, _rel(back - psis, psis), 1e-10)


def suite_scaling_covariance(seed, trials=100):
    def sample(rng):
        psi = sampling.random_positive(rng)
        return psi, 0.5 + 2.0 * rng.random(), 0.5 + rng.random()

    psis, lams, abs_ = _draw(seed, 7, trials, sample)
    lam = lams[:, None, None]
    r2 = lam * pointwise.root22(psis)
    roots = _rel(pointwise.root22(lam**2 * psis) - r2, r2)
    o1, _ = pointwise.omega_from_psi(lam * psis, abs_)
    o2, _ = pointwise.omega_from_psi(psis, abs_)
    omegas = _rel(o1 - lam**2 * o2, o1)
    return _result("scaling covariance", trials, np.maximum(roots, omegas), 1e-10)


def suite_star_defining_identity(seed, trials=100):
    """phi ^ Psi = (<phi, star Psi>/3!) w^3 for arbitrary (1,1)-forms phi."""
    def sample(rng):
        return sampling.random_positive(rng), sampling.random_hermitian(rng), _form11(rng)

    wts, psis, phis = _draw(seed, 8, trials, sample)
    pairs = pointwise.inner11(phis, pointwise.hodge_star22(psis, wts), wts)
    res = []
    for wt, psi, phi, pair in zip(wts, psis, phis, pairs):
        lhs = exterior.top_coefficient(exterior.from_form11(phi).wedge(exterior.from_form22(psi)))
        rhs = pair / 6.0 * _cube(wt)
        res.append(abs(lhs - rhs) / max(abs(rhs), 1.0))
    return _result("star defining identity (oracle)", trials, res, 1e-12)


def suite_star_normalized_square(seed, trials=200):
    ws, abs_ = _draw(seed, 9, trials, _metric)
    psi = pointwise.psi_from_omega(ws, abs_)
    two_nrm_w = (2.0 * pointwise.norm_omega(ws, abs_))[:, None, None] * ws
    diff = pointwise.hodge_star22(psi, ws) - two_nrm_w
    return _result("star of normalized square", trials, _rel(diff, two_nrm_w), 1e-12)


def suite_tilde_star_trace(seed, trials=100):
    ws, abs_, dpsis = _draw(seed, 10, trials, _variation_point)
    nrm = pointwise.norm_omega(ws, abs_)
    lhs = pointwise.inner11(pointwise.tilde_star(dpsis, ws, abs_), ws, ws)
    rhs = pointwise.inner11(pointwise.hodge_star22(dpsis, ws), ws, ws) / nrm
    res = np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1.0)
    return _result("modified-star trace identity", trials, res, 1e-12)


def suite_variation_algebraic(seed, trials=100):
    ws, abs_, dpsis = _draw(seed, 11, trials, _variation_point)
    a = pointwise.variation_index_form(dpsis, ws, abs_)
    b = pointwise.tilde_star(dpsis, ws, abs_)
    return _result("variation index form = modified star", trials, _rel(a - b, b), 1e-12)


def suite_variation_fd(seed, trials=100, h=1e-5):
    """Finite-difference derivative of the root map matches the modified star.

    Perturbations are normalized to unit Frobenius norm; the 1e-4 tolerance
    at h = 1e-5 pins the first-order constant at that scale.
    """
    def sample(rng):
        w, ab, dpsi = _variation_point(rng)
        return w, ab, dpsi / np.linalg.norm(dpsi)

    ws, abs_, dpsis = _draw(seed, 12, trials, sample)
    r1 = pointwise.variation_consistency(ws, abs_, dpsis, h)
    r2 = pointwise.variation_consistency(ws, abs_, dpsis, h / 2)
    ratio = float((r2 / np.maximum(r1, 1e-300)).max())
    return _result("variation finite difference O(h)", trials, r1, 1e-4, ratio < 0.6,
                   detail=f"worst halving ratio {ratio:.3f}")


def suite_kernel_identity(seed, trials=200):
    """On the d-symbol kernel: i xi ^ xibar ^ tilde_star(dPsi) = (|xi|^2/2||Omega||) dPsi.

    Computed entirely through the oracle wedge, independent of the symbol
    code path; also pins kernel dimension = 4.
    """
    def sample(rng):
        return *_metric(rng), _covector(rng), rng.standard_normal(4)

    ws, abs_, xis, coeffs = _draw(seed, 13, trials, sample)
    basis = linearize.d_symbol_kernel(xis)
    dpsi = np.einsum("tb,btij->tij", coeffs, basis)
    ts = pointwise.tilde_star(dpsi, ws, abs_)
    lhs = np.stack([exterior.to_form22(_i_xi_xibar(xi).wedge(exterior.from_form11(t)))
                    for xi, t in zip(xis, ts)])
    lam = linearize.xi_norm_sq(xis, ws) / (2.0 * pointwise.norm_omega(ws, abs_))
    rhs = lam[:, None, None] * dpsi
    return _result("kernel identity (oracle)", trials, _rel(lhs - rhs, rhs), 1e-10, len(basis) == 4)


def suite_symbol_scalar_at_zero_coupling(seed, trials=100):
    ws, abs_, xis = _draw(seed, 14, trials, lambda rng: (*_metric(rng), _covector(rng)))
    rep = linearize.restricted_symbol(xis, ws, abs_, np.zeros((3, 3, 3, 3)), 0.0)
    lam = linearize.xi_norm_sq(xis, ws) / (2.0 * pointwise.norm_omega(ws, abs_))
    res = np.abs(rep.eigenvalues - lam[:, None]).max(axis=1) / lam
    return _result("symbol scalar at zero coupling", trials, np.maximum(res, ~rep.elliptic), 1e-10)


def suite_curvature_bound_sufficiency(seed, trials=500):
    """Whenever the curvature perturbation norm is below |xi|^2, the verdict is elliptic."""
    def sample(rng):
        w, ab = _metric(rng)
        r = sampling.random_curvature_for_metric(rng, w, scale=2.0 * rng.random())
        return w, ab, r, 0.4 * rng.random(), _covector(rng)

    ws, abs_, rs, alphas, xis = _draw(seed, 15, trials, sample)
    below = linearize.proposition_norm(xis, ws, abs_, rs, alphas) < linearize.xi_norm_sq(xis, ws)
    elliptic = linearize.restricted_symbol(xis, ws, abs_, rs, alphas).elliptic
    return _result("curvature-bound sufficiency", trials, np.sum(below & ~elliptic), 0.0,
                   detail=f"{np.sum(below)} draws below the bound")


def suite_rotation_covariance(seed, trials=50):
    """Symbol eigenvalues are invariant under a simultaneous unitary frame change."""
    def sample(rng):
        return *_symbol_point(rng), _form11(rng)

    ws, abs_, rs, alphas, xis, a = _draw(seed, 16, trials, sample)
    u, _ = np.linalg.qr(a)
    uh = np.conj(np.swapaxes(u, -1, -2))
    # coordinates z = U z': metric U^H w U, covector U^T xi, frame change U^H
    rotated = (np.einsum("tji,tj->ti", u, xis), uh @ ws @ u, abs_,
               sampling.transport_curvature(rs, uh), alphas)
    e1 = np.sort_complex(linearize.restricted_symbol(xis, ws, abs_, rs, alphas).eigenvalues)
    e2 = np.sort_complex(linearize.restricted_symbol(*rotated).eigenvalues)
    return _result("rotation covariance", trials, _rel(e1 - e2, e1, -1), 1e-8)


def suite_wedge_extract_constraint(seed, trials=200):
    xis, phis = _draw(seed, 17, trials, lambda rng: (_covector(rng), _form11(rng)))
    out = linearize.wedge_xi_extract(xis, phis)
    res = _rel(out @ np.conj(xis)[..., None], out)  # each out @ conj(xi) against max|out|
    return _result("wedge-extract kernel consistency", trials, res, 1e-12)


def suite_coupled_block_spectrum(seed, trials=30):
    """Coupled spectrum = restricted spectrum + |xi|^2 with multiplicity r^2."""
    def sample(rng):  # one point for each bundle rank 1, 2, 3, in that order
        point = ()
        for rank in (1, 2, 3):
            w, ab, r, alpha, xi = _symbol_point(rng)
            h = sampling.random_positive_endo(rng, rank)
            point += (w, ab, r, alpha, xi, h, sampling.random_endcurv(rng, h))
        return point

    cols = _draw(seed, 18, trials, sample)
    res = []
    for i in range(0, len(cols), 7):  # the columns of rank 1, then 2, then 3
        w, ab, r, alpha, xi, h, f = cols[i:i + 7]
        mat = linearize.coupled_symbol_matrix(xi, w, ab, r, alpha, f, h)
        got = np.sort_complex(np.linalg.eigvals(mat))
        bundle = np.repeat(linearize.xi_norm_sq(xi, w)[:, None], h.shape[-1] ** 2, axis=1)
        expect = np.sort_complex(np.concatenate(
            [linearize.restricted_symbol(xi, w, ab, r, alpha).eigenvalues, bundle], axis=1))
        res.append(_rel(got - expect, expect, -1))
    return _result("coupled block spectrum", trials * 3, np.concatenate(res), 1e-10)


def _adversarial_verdict(strength=5.0, abs_omega=1.0):
    """The elliptic verdict at coupling alpha' of the adversarial fixture: omega = I, xi = e1
    and sampling.trace_curvature(strength)."""
    r = sampling.trace_curvature(strength)
    w = np.eye(3, dtype=complex)
    xi = np.array([1.0, 0.0, 0.0])
    return lambda alpha: linearize.restricted_symbol(xi, w, abs_omega, r, alpha).elliptic


def bisect_adversarial_threshold(strength=5.0, hi=0.1, tol=1e-3, abs_omega=1.0):
    """Bracket the coupling where the adversarial fixture loses ellipticity."""
    elliptic = _adversarial_verdict(strength, abs_omega)
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
    elliptic = _adversarial_verdict()
    return _result("adversarial verdict flip", trials, hi - lo, 1e-3,
                   elliptic(lo) and not elliptic(hi), detail=f"threshold in [{lo:.6f}, {hi:.6f}]")


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
