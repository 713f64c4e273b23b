"""Pointwise Hermitian algebra on a 3-fold.

Square roots of positive (2,2)-forms, the correspondence between a metric
``omega`` and ``Psi = ||Omega||_omega omega^2``, the Hodge star on (2,2)-forms
and the modified star operator.  All matrices follow the convention of
:mod:`anomaly_flow.exterior`: a (1,1)-form is ``M[j, k] = omega_{jbar k}``
(row index barred), a (2,2)-form is ``Q[a, b] = Psi^{a bbar}``.

Every function accepts stacked inputs of shape ``(..., 3, 3)`` and broadcasts
over the leading axes; validation reports the worst offending slice.  The
scalar ``abs_omega`` (``|Omega|``) may be a number or an array over those
leading axes, one value per matrix.

The Hodge star is implemented as

    star(Psi)[p, q] = (2 / det w) * (w @ Q @ w)[p, q]

and the metric pairing as ``<phi, psi> = tr(phi w^-1 psi^H w^-1)``.  This
pair of conventions is the unique one (up to simultaneous transposition)
under which the defining identity ``phi ^ Psi = (<phi, star Psi>/3!) w^3``,
the specialization ``star(||Omega|| w^2) = 2 ||Omega|| w`` and the variation
formula delta omega = tilde_star(delta Psi) all hold simultaneously; the
exterior-algebra tests pin this down.
"""

from __future__ import annotations

import numpy as np

from .errors import ConditioningError, PositivityError

HERMITIAN_RTOL = 1e-10
POSITIVITY_EPS = 1e-12
COND_MAX = 1e12


def det3(m):
    """Determinant of (..., 3, 3), branch-free; works on object arrays too."""
    return (
        m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1])
        - m[..., 0, 1] * (m[..., 1, 0] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 0])
        + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0])
    )


def _cofactor_terms(i, j):
    """Flat indices (p, q, r, s), 3 row + col, with adj(m)[i, j] = m[p] m[q] - m[r] m[s].

    The (j, i) cofactor: rows r0 < r1 other than j, columns c0 < c1 other
    than i, the two products swapped when i + j is odd.
    """
    (r0, r1), (c0, c1) = [[k for k in range(3) if k != x] for x in (j, i)]
    terms = (3 * r0 + c0, 3 * r1 + c1, 3 * r0 + c1, 3 * r1 + c0)
    return terms[2:] + terms[:2] if (i + j) % 2 else terms


# the cofactor terms of adjugate entry 3 i + j
_COFACTORS = tuple(_cofactor_terms(i, j) for i in range(3) for j in range(3))


def _cofactor(v, e):
    """Adjugate entry e (flat index 3 i + j) of the matrix whose 9 entries, in flat
    order, are v: v[p] v[q] - v[r] v[s]."""
    p, q, r, s = _COFACTORS[e]
    return v[p] * v[q] - v[r] * v[s]


def adjugate3(m):
    """Adjugate of (..., 3, 3): adj(m) = det(m) * inv(m), in closed form.

    Works on object arrays too; the result has m's memory layout.
    """
    v = [m[..., k // 3, k % 3] for k in range(9)]
    out = np.empty_like(m)
    for e in range(9):
        out[..., e // 3, e % 3] = _cofactor(v, e)
    return out


def inv3(m):
    det = det3(m)
    return adjugate3(m) / det[..., None, None]


def hermitize(m):
    """(m + m^H) / 2 per matrix, in m's memory layout (a component-first m stays so)."""
    out = np.add(m, np.conj(np.swapaxes(m, -1, -2)), out=np.empty_like(m))
    out *= 0.5
    return out


def herm3_min_eig(m):
    """Smallest eigenvalue of stacked Hermitian 3x3 matrices, in closed form.

    Trigonometric solution of the characteristic cubic, in real arithmetic:
    only the diagonal and the upper entries are read, and det(m - q I)
    comes from them with no 3x3 field built.  Against numpy.linalg.eigvalsh,
    over 4096 random frames each, the largest relative error of the
    smallest eigenvalue was 8e-14 at condition number 1.001, 6e-11 at 1e2,
    4e-7 at 1e4 and 5e-3 at 1e6 (medians 2e-16, 2e-14, 1e-11, 1e-8).  Where
    the two smallest eigenvalues cluster far below the largest the cubic's
    root loses about half the digits: at eigenvalues (1e-9, 2e-9, 1) the
    median relative error was 0.5.  Good for monitors and gating, not for
    condition-number-critical work.  Entries must stay below about 1e100
    in magnitude, so that their cubes are finite.
    """
    a00 = np.real(m[..., 0, 0])
    a11 = np.real(m[..., 1, 1])
    a22 = np.real(m[..., 2, 2])
    a01, a02, a12 = m[..., 0, 1], m[..., 0, 2], m[..., 1, 2]
    q = (a00 + a11 + a22) / 3.0
    s01, s02, s12 = (np.real(a) ** 2 + np.imag(a) ** 2 for a in (a01, a02, a12))
    b00, b11, b22 = a00 - q, a11 - q, a22 - q
    p2 = b00**2 + b11**2 + b22**2 + 2.0 * (s01 + s02 + s12)
    p = np.sqrt(np.maximum(p2, 0.0) / 6.0)
    # det(m - q I) = b00 b11 b22 + 2 Re(a01 a12 conj(a02)) - b00 |a12|^2 - b11 |a02|^2 - b22 |a01|^2
    t = a01 * a12
    det = b00 * b11 * b22
    det += 2.0 * (np.real(t) * np.real(a02) + np.imag(t) * np.imag(a02))
    det -= b00 * s12 + b11 * s02 + b22 * s01
    safe = np.where(p > 0.0, p, 1.0)
    r = np.clip(det / (2.0 * safe**3), -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    lam_min = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    return np.where(p2 > 0.0, lam_min, q)


def hermitian_residual(m) -> float:
    """max|m - m^H| / max|m| per matrix, worst over the stack (0 for a zero matrix)."""
    diff = np.abs(m - np.conj(np.swapaxes(m, -1, -2)))
    if not diff.any():  # exactly Hermitian, as hermitize leaves it: no scales needed
        return 0.0
    # a zero matrix has a zero diff, and the floor leaves every nonzero scale as it is
    scale = np.maximum(np.abs(m).max(axis=(-2, -1), keepdims=True), np.finfo(float).smallest_subnormal)
    return float((diff / scale).max())


def assert_hermitian(m, name="matrix"):
    res = hermitian_residual(m)
    if res > HERMITIAN_RTOL:
        raise PositivityError(f"{name} is not Hermitian (residual {res:.3e})")


def assert_positive(m, name="matrix"):
    """Validate Hermitian positive definiteness and conditioning.

    Eigenvalues must exceed POSITIVITY_EPS * trace: a nonpositive eigenvalue
    raises PositivityError, a positive one below the threshold (or a
    condition number above COND_MAX) raises ConditioningError.  Returns the
    eigenvalues, stacked along the leading axes.
    """
    assert_hermitian(m, name)
    eigs = np.linalg.eigvalsh(m)
    worst = float(eigs[..., 0].min())
    if worst <= 0.0:
        raise PositivityError(f"{name} is not positive definite (min eig {worst:.3e})")
    tr = np.real(np.trace(m, axis1=-2, axis2=-1))
    cond = eigs[..., -1] / eigs[..., 0]
    if np.any(eigs[..., 0] <= POSITIVITY_EPS * np.abs(tr)) or np.any(cond > COND_MAX):
        raise ConditioningError(
            f"{name} is too ill-conditioned (min eig {worst:.3e}, "
            f"cond {float(cond.max()):.3e})"
        )
    return eigs


def root22(psi):
    """Unique positive (1,1)-root w of a positive (2,2)-form: w ^ w = Psi.

    w = det(w) * Psi^{-1} with det(w) = sqrt(det Psi), i.e. adj(Psi)/sqrt(det Psi).
    """
    assert_positive(psi, "Psi")
    det_psi = np.real(det3(psi))
    return adjugate3(psi) / np.sqrt(det_psi)[..., None, None]


def norm_omega(omega, abs_omega):
    """||Omega||_omega = |Omega| * det(omega)^{-1/2} for positive omega."""
    assert_positive(omega, "omega")
    return abs_omega / np.sqrt(np.real(det3(omega)))


def psi_from_omega(omega, abs_omega):
    """Psi = ||Omega||_omega * omega^2 as a component matrix: ||Omega|| * adj(omega)."""
    nrm = norm_omega(omega, abs_omega)
    return np.asarray(nrm)[..., None, None] * adjugate3(omega)


def omega_from_psi(psi, abs_omega):
    """Invert psi_from_omega: returns (omega, ||Omega||_omega).

    omega = (det Psi / |Omega|^2) Psi^{-1} = adj(Psi) / |Omega|^2 and
    ||Omega||_omega = |Omega|^4 / det Psi.
    """
    assert_positive(psi, "Psi")
    det_psi = np.real(det3(psi))
    omega = adjugate3(psi)
    omega /= np.asarray(abs_omega**2)[..., None, None]  # in place: no second grid-sized array
    nrm = abs_omega**4 / det_psi
    return omega, nrm


def hodge_star22(psi, omega_t):
    """Hodge star of a (2,2)-form with respect to the positive metric omega_t.

    (star Psi)[p, q] = (2 / det w) * (w Q w)[p, q].  Hermitian output for
    Hermitian input; satisfies phi ^ Psi = (<phi, star Psi>/3!) w^3 for every
    (1,1)-form phi (pinned against the exterior-algebra oracle).
    """
    assert_positive(omega_t, "omega")
    det = np.real(det3(omega_t))
    return 2.0 * (omega_t @ psi @ omega_t) / det[..., None, None]


def inner11(phi, psi, omega):
    """Metric pairing <phi, psi>_omega on (1,1)-forms.

    Sesquilinear (conjugate-linear in the second slot); <phi, phi> >= 0 for
    Hermitian phi; <omega, omega> = 3.
    """
    p = inv3(omega)
    return np.einsum("...kj,...jl,...ml,...mk->...", phi, p, np.conj(psi), p)


def tilde_star(dpsi, omega, abs_omega):
    """Modified star: (1/2||Omega||) (<star dPsi, omega> omega - star dPsi)."""
    star = hodge_star22(dpsi, omega)  # checks omega, for the norm too
    nrm = abs_omega / np.sqrt(np.real(det3(omega)))
    trace_part = inner11(star, omega, omega)
    return (trace_part[..., None, None] * omega - star) / (2.0 * np.asarray(nrm)[..., None, None])


def variation_index_form(dpsi, omega, abs_omega):
    """Coordinate form of the variation:

    delta omega = (1/(||Omega|| det w)) * (tr(w dQ) w - w dQ w).

    Algebraically identical to tilde_star; kept as an independent route for
    the consistency tests.
    """
    nrm = np.asarray(norm_omega(omega, abs_omega))
    det = np.real(det3(omega))
    wdq = omega @ dpsi
    tr = np.trace(wdq, axis1=-2, axis2=-1)
    return (tr[..., None, None] * omega - wdq @ omega) / (nrm * det)[..., None, None]


def variation_consistency(omega, abs_omega, dpsi, h):
    """Finite-difference check of delta omega = tilde_star(delta Psi).

    Returns the Frobenius norm of (omega(Psi + h dPsi) - omega(Psi))/h -
    tilde_star(dPsi) per matrix (a scalar for one matrix); O(h) as h -> 0.
    Raises PositivityError if Psi + h dPsi leaves the positive cone.
    """
    psi = psi_from_omega(omega, abs_omega)
    base, _ = omega_from_psi(psi, abs_omega)
    bumped, _ = omega_from_psi(psi + h * dpsi, abs_omega)
    fd = (bumped - base) / h
    diff = fd - tilde_star(dpsi, omega, abs_omega)
    return np.sqrt(np.sum(np.abs(diff) ** 2, axis=(-2, -1)))

