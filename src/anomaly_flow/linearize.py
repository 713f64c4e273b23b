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

One stacking rule, as in pointwise: the symbol functions broadcast over
leading point axes, xi (..., 3), omega (..., 3, 3), abs_omega and alpha_p
(...), r (..., 3, 3, 3, 3), f (..., 3, 3, n, n) and h (..., n, n); a kernel
basis or a stack of forms puts its own axis first, (4, ..., 3, 3), and the
reports hold one value per point.  One call checks omega once and inverts it a
fixed number of times, however many points it holds; the sweep,
ellipticity_check, calls them one direction at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from . import exterior
from .errors import DegenerateInputError, ProjectionResidualError
from .pointwise import (
    assert_positive,
    det3,
    hodge_star22,
    inner11,
    inv3,
    tilde_star,
)

KERNEL_TOL = 1e-10
# the point axes of omega, abs_omega, r, alpha_p, f and h are shape[:stop]
_POINT_STOPS = (-2, None, -4, None, -4, -2)


@dataclass
class SymbolReport:
    """Per point: arrays for a stack; for one point a float min_real_part and a bool elliptic."""

    eigenvalues: np.ndarray
    min_real_part: np.ndarray
    elliptic: np.ndarray
    kernel_dim: int


def xi_norm_sq(xi, omega):
    """|xi|^2 with respect to omega: omega^{j kbar} xi_j conj(xi_k)."""
    p = inv3(omega)
    return np.real(np.einsum("...jk,...j,...k->...", p, xi, np.conj(xi)))


def _check_xi(xi, *args) -> np.ndarray:
    """xi, checked and broadcast over the point axes of the symbol arguments args, if given
    (omega, abs_omega, r, alpha_p[, f, h]), so that a kernel axis put before them lines up."""
    xi = np.asarray(xi, dtype=complex)
    if xi.shape[-1:] != (3,) or np.count_nonzero(np.linalg.norm(xi, axis=-1) < 1e-14):
        raise DegenerateInputError("covector must be a nonzero complex 3-vector")
    shapes = {xi.shape[:-1]} | {np.asarray(a).shape[:stop] for a, stop in zip(args, _POINT_STOPS)}
    return xi if len(shapes) == 1 else np.broadcast_to(xi, np.broadcast_shapes(*shapes) + (3,))


def _kernel_scale(xi, omega, abs_omega):
    """|xi|^2 / (2 ||Omega||_omega), the symbol on the kernel at a' = 0; omega checked by the caller."""
    return xi_norm_sq(xi, omega) * np.sqrt(np.real(det3(omega))) / (2.0 * np.asarray(abs_omega))


def rm_apply(r, domega, omega):
    """Curvature acting on (1,1)-forms: Rm(dw)_{kbar j} = R_{kbar j}^{p qbar} dw_{qbar p}.

    The index is raised with omega: R_{kbar j}^{p qbar} = R_{kbar j}^p_s omega^{s qbar}.
    """
    p = inv3(omega)
    return np.einsum("...kjps,...sq,...qp->...kj", r, p, domega)


@lru_cache(maxsize=None)
def hermitian_basis(dim: int) -> np.ndarray:
    """Frobenius-orthonormal real basis (dim^2, dim, dim) of Hermitian matrices; read-only."""
    eye = np.eye(dim, dtype=complex)
    basis = [np.outer(e, e) for e in eye]
    for a, b in combinations(range(dim), 2):
        e = np.outer(eye[a], eye[b]) / np.sqrt(2.0)
        basis += [e + e.T, 1j * (e - e.T)]
    basis = np.stack(basis)
    basis.flags.writeable = False
    return basis


def d_symbol_kernel(xi) -> np.ndarray:
    """Frobenius-orthonormal real basis (4, ..., 3, 3) of {Hermitian dPsi : xi_j dPsi^{j kbar} = 0}.

    The constraint is dPsi @ conj(xi) = 0, so the kernel is carried by the
    2x2 Hermitian block on the orthogonal complement of v = conj(xi)/|xi|; its
    real dimension is 4 for every xi != 0.  The complement's frame, in closed
    form: the last two columns of the Householder reflection
    I - w w^H / (1 + |v_1|), w = v + (v_1/|v_1|) e_1, which maps e_1 to a multiple of v.
    """
    xi = _check_xi(xi)
    v = np.conj(xi) / np.linalg.norm(xi, axis=-1, keepdims=True)
    eye = np.eye(3)
    w = v + eye[0] * np.exp(1j * np.angle(v[..., :1]))
    u = eye[:, 1:] - w[..., :, None] * np.conj(w[..., None, 1:]) / (1.0 + np.abs(v[..., :1, None]))
    return np.einsum("...ia,bac,...jc->b...ij", u, hermitian_basis(2), np.conj(u))


def wedge_xi_extract(xi, phi) -> np.ndarray:
    """Components of i xi ^ xibar ^ phi for (1,1)-forms phi, shape (..., 3, 3) (oracle-pinned)."""
    xi, phi = np.asarray(xi, dtype=complex), np.asarray(phi, dtype=complex)
    # the 9x9 map from phi's entries (m, l) to the components (a, b), per xi
    x = np.einsum("...j,...k,jklmab->...mlab", xi, np.conj(xi), exterior.wedge22_table())
    out = phi.reshape(phi.shape[:-2] + (1, 9)) @ x.reshape(x.shape[:-4] + (9, 9))
    return out.reshape(out.shape[:-2] + (3, 3))


def delta_tilde_symbol(xi, omega, abs_omega, r, alpha_p, dpsi) -> np.ndarray:
    """sigma(xi) dPsi = i xi ^ xibar ^ (tilde_star dPsi - 2 a' Rm(tilde_star dPsi))."""
    xi = _check_xi(xi)
    ts = tilde_star(dpsi, omega, abs_omega)  # checks omega
    if np.count_nonzero(alpha_p):
        ts = ts - 2.0 * np.asarray(alpha_p)[..., None, None] * rm_apply(r, ts, omega)
    return wedge_xi_extract(xi, ts)


def _project_onto(basis, x, floor, tol, what):
    """Real Frobenius coordinates (..., len(basis), len(x)) of the images x in basis; error
    if one leaves their span, by its residual against its own scale max(its largest entry, floor)."""
    coords = np.einsum("n...ij,b...ji->...bn", x, basis).real
    res = np.abs(x - np.einsum("...bn,b...ij->n...ij", coords, basis)).max(axis=(-2, -1))
    scale = np.maximum(np.abs(x).max(axis=(-2, -1)), floor)
    bad = res > tol * scale
    if bad.any():
        j = tuple(np.argwhere(bad)[0].tolist())  # (image, *point)
        raise ProjectionResidualError(f"{what} {j[0]} leaves the d-symbol kernel at point {j[1:]} "
                                      f"(residual {res[j]:.3e}, scale {scale[j]:.3e})")
    return coords


def restricted_symbol(xi, omega, abs_omega, r, alpha_p) -> SymbolReport:
    """Eigenvalues of the symbol restricted to the kernel of the d-symbol.

    Builds the real 4x4 matrix of dPsi -> delta_tilde_symbol in the
    d_symbol_kernel basis after verifying that every image lies in the
    kernel (to KERNEL_TOL, relative).  Verdict: all eigenvalue real parts
    strictly positive.
    """
    xi = _check_xi(xi, omega, abs_omega, r, alpha_p)
    basis = d_symbol_kernel(xi)
    img = delta_tilde_symbol(xi, omega, abs_omega, r, alpha_p, basis)
    scale = _kernel_scale(xi, omega, abs_omega)
    eigs = np.linalg.eigvals(_project_onto(basis, img, scale, KERNEL_TOL, "symbol image"))
    min_re = eigs.real.min(axis=-1)
    min_re = min_re.item() if min_re.ndim == 0 else min_re  # one point: a plain float
    return SymbolReport(eigs, min_re, min_re > 0.0, len(basis))


def ellipticity_check(omega, abs_omega, r, alpha_p, xis) -> tuple[SymbolReport, float]:
    """Sweep the covector directions `xis` at one coupling.

    Returns the restricted-symbol report with the smallest real part and the
    smallest xi_norm_sq - proposition_norm over the sweep (a positive margin
    certifies ellipticity by the curvature bound).
    """
    if len(xis) == 0:
        raise DegenerateInputError("the sweep needs at least one covector direction")
    reports, margins = [], []
    for xi in xis:
        reports.append(restricted_symbol(xi, omega, abs_omega, r, alpha_p))
        margins.append(xi_norm_sq(xi, omega) - proposition_norm(xi, omega, abs_omega, r, alpha_p))
    return min(reports, key=lambda rep: rep.min_real_part), min(margins)


def proposition_norm(xi, omega, abs_omega, r, alpha_p):
    """Operator norm of the curvature perturbation on the d-symbol kernel, per point.

    The operator is dPsi -> -i xi ^ xibar ^ 2 a' Rm(<star dPsi, w> w - star dPsi),
    measured in the Frobenius-induced norm; a value < |xi|^2 guarantees the
    elliptic verdict of restricted_symbol.
    """
    xi = _check_xi(xi, omega, abs_omega, r, alpha_p)
    if not np.count_nonzero(alpha_p):
        assert_positive(omega, "omega")
        return np.zeros(xi.shape[:-1])[()]
    star = hodge_star22(d_symbol_kernel(xi), omega)  # checks omega
    arg = np.real(inner11(star, omega, omega))[..., None, None] * omega - star
    img = -2.0 * np.asarray(alpha_p)[..., None, None] * wedge_xi_extract(xi, rm_apply(r, arg, omega))
    rows = np.concatenate([img.real, img.imag], axis=-1).reshape(img.shape[:-2] + (18,))
    return np.linalg.norm(rows, 2, axis=(0, -1))  # the largest singular value at each point


def coupled_symbol(xi, omega, abs_omega, r, alpha_p, f, h, dpsi, dh):
    """Symbol of the coupled (metric, bundle-metric) system at (dPsi, dH).

    Returns the pair
        (delta_tilde_symbol(dPsi) + 2 a' * i xi ^ xibar ^ Tr(F H^-1 dH),
         |xi|^2 dH).
    The second component never sees dPsi: the block structure is triangular.
    """
    xi = _check_xi(xi)
    assert_positive(h, "H")
    tr_form = np.einsum("...kjab,...bc,...ca->...kj", f, np.linalg.inv(h), dh)
    first = delta_tilde_symbol(xi, omega, abs_omega, r, alpha_p, dpsi)
    first = first + 2.0 * np.asarray(alpha_p)[..., None, None] * wedge_xi_extract(xi, tr_form)
    second = xi_norm_sq(xi, omega)[..., None, None] * np.asarray(dh, dtype=complex)
    return first, second


def coupled_symbol_matrix(xi, omega, abs_omega, r, alpha_p, f, h):
    """Real matrix of the coupled symbol on (d-symbol kernel) + Hermitian(r).

    Basis: the 4 kernel elements followed by the r^2 Hermitian bundle
    directions, mapped in one stacked call.  The lower-left block is
    verified to vanish identically.
    """
    xi = _check_xi(xi, omega, abs_omega, r, alpha_p, f, h)
    points = xi.shape[:-1]
    kern = d_symbol_kernel(xi)
    hbasis = hermitian_basis(np.shape(h)[-1])
    n = 4 + len(hbasis)
    dpsi = np.zeros((n,) + kern.shape[1:], dtype=complex)
    dpsi[:4] = kern
    dh = np.zeros((n,) + points + hbasis.shape[1:], dtype=complex)
    dh[4:] = hbasis.reshape((len(hbasis),) + (1,) * len(points) + hbasis.shape[1:])
    first, second = coupled_symbol(xi, omega, abs_omega, r, alpha_p, f, h, dpsi, dh)
    if np.abs(second[:4]).max() > 0.0:
        raise ProjectionResidualError("coupled symbol is not block triangular")
    mat = np.zeros(points + (n, n))
    scale = _kernel_scale(xi, omega, abs_omega)
    mat[..., :4, :] = _project_onto(kern, first, scale, KERNEL_TOL, "coupled symbol image")
    mat[..., 4:, 4:] = np.einsum("j...ab,iba->...ij", second[4:], hbasis).real
    return mat
