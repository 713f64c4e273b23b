"""Principal symbol of the flow's linearization and its ellipticity.

The linearized flow acts on Hermitian (2,2)-forms through

    sigma(xi): dPsi -> i xi ^ xibar ^ (tilde_star dPsi - 2 a' Rm(tilde_star dPsi))

and short-time solvability requires the eigenvalues of this map, restricted
to the kernel of the symbol of d, to have strictly positive real parts.  The
kernel is the 4-real-dimensional space of Hermitian dPsi with
xi_j dPsi^{j kbar} = 0; the restriction is represented as a real 4x4 matrix
in a Frobenius-orthonormal basis and eigenvalues are those of that matrix
(complex pairs allowed).  A covector xi is tied to a torus Fourier mode by
the README's k -> xi map, under which the torus flow's linear part at a
constant metric with a' = 0 is -sigma(xi).

Each covector is one stacked pass: the form arguments of rm_apply, wedge_xi_extract,
delta_tilde_symbol and coupled_symbol broadcast over leading axes, so restricted_symbol,
proposition_norm and coupled_symbol_matrix map the whole kernel basis (and the bundle
directions) in one call; omega is checked and inverted a fixed number of times per call,
not once per kernel element.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import exterior
from .errors import DegenerateInputError, ProjectionResidualError
from .pointwise import (
    assert_positive,
    hodge_star22,
    inner11,
    inv3,
    norm_omega,
    tilde_star,
)

KERNEL_TOL = 1e-10


@dataclass
class SymbolReport:
    eigenvalues: np.ndarray
    min_real_part: float
    elliptic: bool
    kernel_dim: int = 4


def xi_norm_sq(xi, omega) -> float:
    """|xi|^2 with respect to omega: omega^{j kbar} xi_j conj(xi_k)."""
    p = inv3(omega)
    return float(np.real(np.einsum("jk,j,k->", p, xi, np.conj(xi))))


def _check_xi(xi) -> np.ndarray:
    xi = np.asarray(xi, dtype=complex)
    if xi.shape != (3,) or np.linalg.norm(xi) < 1e-14:
        raise DegenerateInputError("covector must be a nonzero complex 3-vector")
    return xi


def rm_apply(r, domega, omega):
    """Curvature acting on (1,1)-forms: Rm(dw)_{kbar j} = R_{kbar j}^{p qbar} dw_{qbar p}.

    The index is raised with omega: R_{kbar j}^{p qbar} = R_{kbar j}^p_s omega^{s qbar}.
    """
    p = inv3(omega)
    return np.einsum("kjps,sq,...qp->...kj", r, p, domega)


@lru_cache(maxsize=None)
def hermitian_basis(dim: int) -> np.ndarray:
    """Frobenius-orthonormal real basis (dim^2, dim, dim) of Hermitian matrices; read-only."""
    basis = []
    for a in range(dim):
        e = np.zeros((dim, dim), dtype=complex)
        e[a, a] = 1.0
        basis.append(e)
    for a in range(dim):
        for b in range(a + 1, dim):
            s = np.zeros((dim, dim), dtype=complex)
            s[a, b] = s[b, a] = 1.0 / np.sqrt(2.0)
            basis.append(s)
            k = np.zeros((dim, dim), dtype=complex)
            k[a, b] = 1j / np.sqrt(2.0)
            k[b, a] = -1j / np.sqrt(2.0)
            basis.append(k)
    basis = np.stack(basis)
    basis.flags.writeable = False
    return basis


def d_symbol_kernel(xi) -> np.ndarray:
    """Frobenius-orthonormal real basis (4, 3, 3) of {Hermitian dPsi : xi_j dPsi^{j kbar} = 0}.

    The constraint is dPsi @ conj(xi) = 0, so the kernel is carried by the
    2x2 Hermitian block on the orthogonal complement of conj(xi); its real
    dimension is 4 for every xi != 0.
    """
    xi = _check_xi(xi)
    v = np.conj(xi)
    v = v / np.linalg.norm(v)
    # deterministic Gram-Schmidt completion of v to a unitary frame
    cols = [v]
    for e in np.eye(3, dtype=complex):
        w = e - sum(c * np.vdot(c, e) for c in cols)
        nw = np.linalg.norm(w)
        if nw > 1e-7:
            cols.append(w / nw)
        if len(cols) == 3:
            break
    u1 = np.stack(cols[1:], axis=1)  # 3x2, orthogonal complement of v
    return u1 @ hermitian_basis(2) @ u1.conj().T


def wedge_xi_extract(xi, phi) -> np.ndarray:
    """Components of i xi ^ xibar ^ phi for (1,1)-forms phi, shape (..., 3, 3) (oracle-pinned)."""
    xi, phi = np.asarray(xi, dtype=complex), np.asarray(phi, dtype=complex)
    # the 9x9 map from phi's entries (m, l) to the components (a, b), for this xi
    x = np.einsum("j,k,jklmab->mlab", xi, np.conj(xi), exterior.wedge22_table()).reshape(9, 9)
    return (phi.reshape(phi.shape[:-2] + (9,)) @ x).reshape(phi.shape)


def delta_tilde_symbol(xi, omega, abs_omega, r, alpha_p, dpsi) -> np.ndarray:
    """sigma(xi) dPsi = i xi ^ xibar ^ (tilde_star dPsi - 2 a' Rm(tilde_star dPsi))."""
    xi = _check_xi(xi)
    ts = tilde_star(dpsi, omega, abs_omega)
    arg = ts if alpha_p == 0 else ts - 2.0 * alpha_p * rm_apply(r, ts, omega)
    return wedge_xi_extract(xi, arg)


def _project_onto(basis, x, floor, tol, what):
    """Real Frobenius coordinates (len(x), len(basis)) of the images x; error if one leaves
    their span, by its residual against its own scale max(its largest entry, floor)."""
    coords = np.einsum("nij,bji->nb", x, basis).real
    res = np.abs(x - np.einsum("nb,bij->nij", coords, basis)).max(axis=(1, 2))
    scale = np.maximum(np.abs(x).max(axis=(1, 2)), floor)
    bad = np.flatnonzero(res > tol * scale)
    if bad.size:
        j = bad[0]
        raise ProjectionResidualError(f"{what} {j} leaves the d-symbol kernel "
                                      f"(residual {res[j]:.3e}, scale {scale[j]:.3e})")
    return coords


def restricted_symbol(xi, omega, abs_omega, r, alpha_p) -> SymbolReport:
    """Eigenvalues of the symbol restricted to the kernel of the d-symbol.

    Builds the real 4x4 matrix of dPsi -> delta_tilde_symbol in the
    d_symbol_kernel basis after verifying that every image lies in the
    kernel (to KERNEL_TOL, relative).  Verdict: all eigenvalue real parts
    strictly positive.
    """
    xi = _check_xi(xi)
    nrm = float(norm_omega(omega, abs_omega))  # checks omega
    basis = d_symbol_kernel(xi)
    scale = xi_norm_sq(xi, omega) / (2.0 * nrm)
    img = delta_tilde_symbol(xi, omega, abs_omega, r, alpha_p, basis)
    mat = _project_onto(basis, img, scale, KERNEL_TOL, "symbol image").T
    eigs = np.linalg.eigvals(mat)
    min_re = float(eigs.real.min())
    return SymbolReport(
        eigenvalues=eigs, min_real_part=min_re, elliptic=bool(min_re > 0.0)
    )


def ellipticity_check(omega, abs_omega, r, alpha_p, xis) -> tuple[SymbolReport, float]:
    """Sweep the covector directions `xis` at one coupling.

    Returns the restricted-symbol report with the smallest real part and the
    smallest xi_norm_sq - proposition_norm over the sweep (a positive margin
    certifies ellipticity by the curvature bound).
    """
    if len(xis) == 0:
        raise DegenerateInputError("the sweep needs at least one covector direction")
    worst = None
    margin = np.inf
    for xi in xis:
        rep = restricted_symbol(xi, omega, abs_omega, r, alpha_p)
        if worst is None or rep.min_real_part < worst.min_real_part:
            worst = rep
        norm = proposition_norm(xi, omega, abs_omega, r, alpha_p)
        margin = min(margin, xi_norm_sq(xi, omega) - norm)
    return worst, margin


def proposition_norm(xi, omega, abs_omega, r, alpha_p) -> float:
    """Operator norm of the curvature perturbation on the d-symbol kernel.

    The operator is dPsi -> -i xi ^ xibar ^ 2 a' Rm(<star dPsi, w> w - star dPsi),
    measured in the Frobenius-induced norm; a value < |xi|^2 guarantees the
    elliptic verdict of restricted_symbol.
    """
    xi = _check_xi(xi)
    assert_positive(omega, "omega")
    if alpha_p == 0:
        return 0.0
    star = hodge_star22(d_symbol_kernel(xi), omega)
    arg = np.real(inner11(star, omega, omega))[:, None, None] * omega - star
    img = -2.0 * alpha_p * wedge_xi_extract(xi, rm_apply(r, arg, omega))
    rows = np.concatenate([img.real, img.imag], axis=1).reshape(len(img), -1)
    return float(np.linalg.svd(rows, compute_uv=False)[0])


def coupled_symbol(xi, omega, abs_omega, r, alpha_p, f, h, dpsi, dh):
    """Symbol of the coupled (metric, bundle-metric) system at (dPsi, dH).

    Returns the pair
        (delta_tilde_symbol(dPsi) + 2 a' * i xi ^ xibar ^ Tr(F H^-1 dH),
         |xi|^2 dH).
    The second component never sees dPsi: the block structure is triangular.
    """
    xi = _check_xi(xi)
    assert_positive(h, "H")
    tr_form = np.einsum("kjab,bc,...ca->...kj", f, np.linalg.inv(h), dh)
    first = delta_tilde_symbol(xi, omega, abs_omega, r, alpha_p, dpsi)
    first = first + 2.0 * alpha_p * wedge_xi_extract(xi, tr_form)
    second = xi_norm_sq(xi, omega) * np.asarray(dh, dtype=complex)
    return first, second


def coupled_symbol_matrix(xi, omega, abs_omega, r, alpha_p, f, h):
    """Real matrix of the coupled symbol on (d-symbol kernel) + Hermitian(r).

    Basis: the 4 kernel elements followed by the r^2 Hermitian bundle
    directions, mapped in one stacked call.  The lower-left block is
    verified to vanish identically.
    """
    xi = _check_xi(xi)
    kern = d_symbol_kernel(xi)
    hbasis = hermitian_basis(h.shape[0])
    dpsi = np.concatenate([kern, np.zeros((len(hbasis), 3, 3), dtype=complex)])
    dh = np.concatenate([np.zeros((4,) + hbasis.shape[1:], dtype=complex), hbasis])
    scale = xi_norm_sq(xi, omega) / (2.0 * float(norm_omega(omega, abs_omega)))
    first, second = coupled_symbol(xi, omega, abs_omega, r, alpha_p, f, h, dpsi, dh)
    if np.abs(second[:4]).max() > 0.0:
        raise ProjectionResidualError("coupled symbol is not block triangular")
    mat = np.zeros((4 + len(hbasis),) * 2)
    mat[:4] = _project_onto(kern, first, scale, KERNEL_TOL, "coupled symbol image").T
    mat[4:, 4:] = np.einsum("jab,iba->ij", second[4:], hbasis).real
    return mat
