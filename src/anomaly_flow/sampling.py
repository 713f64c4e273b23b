"""Deterministic samplers and random tensor fixtures.

Covector directions come from a randomized Halton sequence (Halton 1960;
Owen, "A randomized Halton algorithm", 2017) mapped to the unit sphere of C^3,
so verdicts are reproducible for a given seed.  Curvature fixtures
are generated with the reality property of a Chern curvature tensor
(conj(R_{kbar j}^p_q) = R_{jbar k}^q_p in an orthonormal frame) and
transported to the frame of an arbitrary positive metric.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError
from .pointwise import hermitize


def unit_covectors(n_dirs: int, seed: int) -> np.ndarray:
    """(n_dirs, 3) complex unit (1,0)-covectors, low-discrepancy, seeded.

    Points of the Halton sequence in bases 2, 3, 5, 7 and 11, each digit place
    with its own seeded digit permutation and each axis with a seeded shift.
    (|z_1|^2, |z_2|^2, |z_3|^2) is uniform on the simplex and the three phases
    are uniform, so i.i.d. inputs would give the uniform measure on the sphere.
    """
    if n_dirs < 1:
        raise DegenerateInputError(f"n_dirs must be >= 1, got {n_dirs}")
    rng = np.random.default_rng(seed)
    u = np.tile(rng.random(5), (n_dirs, 1))
    for d, b in enumerate((2, 3, 5, 7, 11)):
        i, f = np.arange(n_dirs), 1.0 / b
        while f * n_dirs * b > 1:  # the places that tell the n_dirs points apart
            u[:, d] += f * rng.permutation(b)[i % b]
            i, f = i // b, f / b
    u %= 1.0
    s = np.sqrt(u[:, 0])
    mod = np.sqrt(np.stack([1.0 - s, s * (1.0 - u[:, 1]), s * u[:, 1]], axis=1))
    return mod * np.exp(2j * np.pi * u[:, 2:])


def random_hermitian(rng, dim: int = 3, scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * hermitize(a)


def random_positive(rng, dim: int = 3, spread: float = 1.0) -> np.ndarray:
    """Random Hermitian positive definite matrix with moderate condition number."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return spread * (a @ a.conj().T) / dim + np.eye(dim) * 0.4


def _swap_conj(r: np.ndarray) -> np.ndarray:
    # conj(R_{kbar j}^p_q) -> R_{jbar k}^q_p
    return np.conj(np.transpose(r, (1, 0, 3, 2)))


def random_curvature(rng, scale: float = 1.0) -> np.ndarray:
    """Reality-respecting curvature tensor in an orthonormal frame, shape (3,3,3,3)."""
    a = rng.standard_normal((3, 3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3, 3))
    return scale * 0.5 * (a + _swap_conj(a))


def orthonormal_frame(omega: np.ndarray) -> np.ndarray:
    """Matrix S with S^H omega S = I (columns are an omega-orthonormal frame)."""
    eigs, vecs = np.linalg.eigh(omega)
    return vecs @ np.diag(1.0 / np.sqrt(eigs))


def transport_curvature(r_src: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Transport R under the frame change V_dst^p = s[p, c] V_src^c; broadcasts over leading axes."""
    sinv = np.linalg.inv(s)
    return np.einsum("...bk,...aj,...pc,...dq,...bacd->...kjpq", sinv.conj(), sinv, s, sinv, r_src)


def random_curvature_for_metric(rng, omega: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Reality-respecting curvature expressed in the coordinate frame of omega."""
    s = orthonormal_frame(omega)
    return transport_curvature(random_curvature(rng, scale), s)


def trace_curvature(strength: float) -> np.ndarray:
    """R_{kbar j}^p_q = strength * delta_{kj} delta_{pq}: Rm(x) = strength tr(x) I.

    The adversarial fixture: at omega = I, |Omega| = 1 and strength s > 0 the
    restricted symbol loses ellipticity once alpha' * s > 1/8 (the paired
    diagonal kernel mode crosses zero), so the verdict flips at a bisectable
    coupling threshold.
    """
    return strength * np.einsum("kj,pq->kjpq", np.eye(3), np.eye(3)).astype(complex)


def random_positive_endo(rng, rank: int, spread: float = 0.5) -> np.ndarray:
    a = rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank))
    return spread * (a @ a.conj().T) / rank + np.eye(rank)


def random_endcurv(rng, h: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Bundle curvature F_{kbar j}^a_b of shape (3, 3, r, r) compatible with H.

    Built so that the H-lowered components satisfy (H F_{kbar j})^H =
    H F_{jbar k}, which keeps Tr(F H^{-1} dH) Hermitian for Hermitian dH.
    """
    r = h.shape[0]
    hinv = np.linalg.inv(h)
    b = rng.standard_normal((3, 3, r, r)) + 1j * rng.standard_normal((3, 3, r, r))
    lowered = np.empty_like(b)
    for k in range(3):
        for j in range(3):
            lowered[k, j] = 0.5 * (b[k, j] + b[j, k].conj().T)
    return scale * np.einsum("ab,kjbc->kjac", hinv, lowered)
