"""Exterior algebra over C^3.

Ground truth for every wedge, star and component-convention identity used in
the rest of the package.  Elements are stored as sparse dictionaries mapping
canonically sorted generator tuples to coefficients.  Generators are indexed

    0, 1, 2  ->  dz^1, dz^2, dz^3
    3, 4, 5  ->  dzbar^1, dzbar^2, dzbar^3

and every sign in the package that involves a wedge product is derived from
this single ordering by one rule, ``_sort_sign``: the sign of the
permutation that sorts a tuple of generators, zero if one repeats.  The
wedge of two monomials (``_merge``), conjugation and the (2,2) convention
table all take their signs from it, and every sum of terms is added up by
one loop, ``_collect``.  Coefficients are plain (complex) numbers, with no
exact mode: every sign is +-1 and every (2,2) table entry +-2, so on dyadic
rational inputs (small integers over small powers of 2) each product and sum
the oracle forms, and to_form22's division, is exact in float64.  On such
inputs an identity like ``to_form22(w ^ w) = adj(w)`` is checked with ``==``
(verify.suite_wedge_square_exact).

Component conventions
---------------------

A (1,1)-form is the matrix ``phi[k, j] = phi_{kbar j}`` entering as
``i * phi_{kbar j} dz^j ^ dzbar^k``.

A (2,2)-form is the Hermitian matrix ``Q[a, b] = Psi^{a bbar}`` entering as

    Psi = i^2 * 2! * sum_{a,b} sgn(a,b) Q[a, b] *
          (dz^1^dzbar^1^...^dz^3^dzbar^3 with dz^a and dzbar^b omitted),

with ``sgn(a,b) = -1`` if a > b and +1 otherwise.  With this normalization
``to_form22(w ^ w)`` is the adjugate matrix of ``w`` and the top coefficient
of ``w^3`` is ``3! det w`` (both pinned with zero residual in the tests).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import FormDegreeError

N = 3
_GEN_NAMES = ["dz1", "dz2", "dz3", "dzb1", "dzb2", "dzb3"]

# Top form prod_l i dz^l ^ dzbar^l lives on the canonical key (0,...,5) with
# coefficient i^3 * sign(perm) = (-i) * (-1) = i.
_TOP_KEY = (0, 1, 2, 3, 4, 5)


def _sort_sign(gens):
    """(sorted gens, sign of the permutation sorting them); None if a generator repeats.

    The one sign rule of the package: every other sign is computed from it.
    """
    if len(set(gens)) != len(gens):
        return None
    inversions = sum(x > y for i, x in enumerate(gens) for y in gens[i + 1 :])
    return tuple(sorted(gens)), (-1 if inversions % 2 else 1)


@lru_cache(maxsize=None)
def _merge(k1, k2):
    """(key, sign) of the wedge of two canonical monomials; None if they share a generator."""
    return _sort_sign(k1 + k2)


def _collect(pairs, start=()):
    """The MultiVector of the terms start plus the (key, coefficient) pairs, added in order.

    start's coefficients are copied, not added to 0: in Python ``0 + c`` can
    flip the sign of a zero part of c.  A key whose sum cancels leaves the
    dict (and re-enters at its end), so the term order, and with it every
    later floating-point sum, is fixed.
    """
    out = dict(start)
    for key, c in pairs:
        c = out.get(key, 0) + c
        if c != 0:
            out[key] = c
        else:
            out.pop(key, None)
    mv = MultiVector()
    mv._terms = out
    return mv


class MultiVector:
    """Sparse element of the exterior algebra over dz^1..dz^3, dzbar^1..dzbar^3."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        self._terms = {key: c for key, c in (terms or {}).items() if c != 0}

    @property
    def terms(self):
        return dict(self._terms)

    def coefficient(self, key):
        return self._terms.get(tuple(key), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other):
        if not isinstance(other, MultiVector):
            return NotImplemented
        return _collect(other._terms.items(), self._terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return MultiVector({k: -c for k, c in self._terms.items()})

    def __mul__(self, scalar):
        if isinstance(scalar, MultiVector):
            return NotImplemented
        return MultiVector({k: c * scalar for k, c in self._terms.items()})

    __rmul__ = __mul__

    def wedge(self, other: "MultiVector") -> "MultiVector":
        return _collect(
            (m[0], m[1] * (c1 * c2))
            for k1, c1 in self._terms.items()
            for k2, c2 in other._terms.items()
            if (m := _merge(k1, k2)) is not None
        )

    def conjugate(self) -> "MultiVector":
        """Complex conjugation: dz^j <-> dzbar^j, coefficients conjugated."""
        swapped = ((_sort_sign(tuple((g + 3) % 6 for g in k)), c) for k, c in self._terms.items())
        return _collect((key, sign * c.conjugate()) for (key, sign), c in swapped)

    def __eq__(self, other):
        if not isinstance(other, MultiVector):
            return NotImplemented
        return self._terms.keys() == other._terms.keys() and all(
            self._terms[k] == other._terms[k] for k in self._terms
        )

    def __hash__(self):
        raise TypeError("MultiVector is mutable-by-convention; not hashable")

    def max_abs_diff(self, other: "MultiVector") -> float:
        keys = set(self._terms) | set(other._terms)
        worst = 0.0
        for k in keys:
            d = complex(self._terms.get(k, 0)) - complex(other._terms.get(k, 0))
            worst = max(worst, abs(d))
        return worst

    def __repr__(self):
        if not self._terms:
            return "MultiVector(0)"
        parts = [
            f"({c!r})*{'^'.join(_GEN_NAMES[g] for g in k) if k else '1'}"
            for k, c in sorted(self._terms.items())
        ]
        return "MultiVector(" + " + ".join(parts) + ")"


def scalar(c) -> MultiVector:
    return MultiVector({(): c})


def dz(j: int) -> MultiVector:
    """Basis (1,0)-form dz^j, 1-based j in {1,2,3}."""
    if not 1 <= j <= N:
        raise ValueError(f"dz index out of range: {j}")
    return MultiVector({(j - 1,): 1})


def dzbar(k: int) -> MultiVector:
    """Basis (0,1)-form dzbar^k, 1-based k in {1,2,3}."""
    if not 1 <= k <= N:
        raise ValueError(f"dzbar index out of range: {k}")
    return MultiVector({(k + 2,): 1})


def wedge(*factors: MultiVector) -> MultiVector:
    """Wedge product of any number of multivectors (left-associated)."""
    if not factors:
        return scalar(1)
    out = factors[0]
    for f in factors[1:]:
        out = out.wedge(f)
    return out


def _key_bidegree(key) -> tuple[int, int]:
    p = sum(1 for g in key if g < 3)
    return p, len(key) - p


def from_form11(phi) -> MultiVector:
    """(1,1)-form i * phi_{kbar j} dz^j ^ dzbar^k from the 3x3 matrix phi[k, j]."""
    # key (j, k + 3) is dz^{j+1} ^ dzbar^{k+1}, already sorted
    return _collect(((j, k + 3), 1j * phi[k][j]) for k in range(N) for j in range(N))


def _form22_basis():
    """Canonical data of the (2,2) component convention.

    Returns a dict (a, b) -> (key, int_coeff) with a, b in 0..2 such that the
    matrix entry Q[a, b] contributes int_coeff * Q[a, b] on the canonical
    monomial `key`.  int_coeff = i^2 * 2! * sgn(a+1, b+1) * (sort sign of the
    ordered monomial), computed mechanically from the generator ordering.
    """
    basis = {}
    for a in range(N):
        for b in range(N):
            # ordered product dz1^dzb1^dz2^dzb2^dz3^dzb3 with dz^{a+1}, dzbar^{b+1} omitted
            gens = tuple(g for l in range(N) for g in (l, l + 3) if g not in (a, b + 3))
            key, sign = _sort_sign(gens)
            sgn = -1 if a > b else 1
            basis[(a, b)] = (key, -2 * sgn * sign)  # i^2 * 2! = -2
    return basis


_FORM22_BASIS = _form22_basis()


def form22_basis():
    """Expose the convention table: dict (a, b) -> (canonical key, integer coefficient)."""
    return dict(_FORM22_BASIS)


def from_form22(psi) -> MultiVector:
    """(2,2)-form from the component matrix Q[a, b] = Psi^{a+1, bar{b+1}}."""
    return _collect((key, coeff * psi[a][b]) for (a, b), (key, coeff) in _FORM22_BASIS.items())


def to_form22(m: MultiVector):
    """Component matrix of a pure (2,2)-form; inverse of :func:`from_form22`.

    Raises :class:`FormDegreeError` if any term lies outside bidegree (2,2).
    Returns a complex ndarray.
    """
    for key in m._terms:
        if _key_bidegree(key) != (2, 2):
            raise FormDegreeError(
                f"term {key} has bidegree {_key_bidegree(key)}, expected (2, 2)"
            )
    out = np.empty((N, N), dtype=complex)
    for (a, b), (key, coeff) in _FORM22_BASIS.items():
        out[a, b] = complex(m._terms.get(key, 0)) / coeff
    return out


@lru_cache(maxsize=None)
def wedge22_table() -> np.ndarray:
    """Coefficient table for products of two (1,1) monomials.

    ``W[j, k, l, m]`` is the 3x3 component matrix of
    ``(i dz^{j+1} ^ dzbar^{k+1}) ^ (i dz^{l+1} ^ dzbar^{m+1})`` so that a
    product of two (1,1)-forms phi, chi expands as
    ``einsum('kj,ml,jklmab->ab', phi, chi, W)``.  Built once from the oracle.
    """
    w = np.zeros((N, N, N, N, N, N), dtype=complex)
    for j in range(N):
        for k in range(N):
            f1 = 1j * dz(j + 1).wedge(dzbar(k + 1))
            for l in range(N):
                for mm in range(N):
                    prod = f1.wedge(1j * dz(l + 1).wedge(dzbar(mm + 1)))
                    if not prod.is_zero():
                        w[j, k, l, mm] = to_form22(prod)
    return w


def top_coefficient(m: MultiVector):
    """Coefficient of m on the basis top form prod_l i dz^l ^ dzbar^l.

    Zero if m has no (3,3) component.
    """
    # canonical coefficient of the top form is +i; divide it out
    return complex(m._terms.get(_TOP_KEY, 0)) * (-1j)
