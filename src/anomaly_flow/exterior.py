"""Exact exterior algebra over C^3.

Ground truth for every wedge, star and component-convention identity used in
the rest of the package.  Elements are stored as sparse dictionaries mapping
canonically sorted generator tuples to coefficients.  Generators are indexed

    0, 1, 2  ->  dz^1, dz^2, dz^3
    3, 4, 5  ->  dzbar^1, dzbar^2, dzbar^3

and every sign in the package that involves a wedge product is derived from
this single ordering.  Coefficients may be floats/complex (numeric mode) or
:class:`~anomaly_flow.exact.GaussianRational` (exact mode); the algebra is
identical in both.

Component conventions
---------------------

A (1,1)-form is the matrix ``phi[k, j] = phi_{kbar j}`` entering as
``i * phi_{kbar j} dz^j ^ dzbar^k``.

A (2,2)-form is the Hermitian matrix ``Q[a, b] = Psi^{a bbar}`` entering as

    Psi = i^2 * 2! * sum_{a,b} sgn(a,b) Q[a, b] *
          (dz^1^dzbar^1^...^dz^3^dzbar^3 with dz^a and dzbar^b omitted),

with ``sgn(a,b) = -1`` if a > b and +1 otherwise.  With this normalization
``to_form22(w ^ w)`` is the adjugate matrix of ``w`` and the top coefficient
of ``w^3`` is ``3! det w`` (both pinned exactly in the tests).
"""

from __future__ import annotations

import numpy as np

from .exact import GaussianRational, to_exact
from .errors import FormDegreeError

N = 3
_GEN_NAMES = ["dz1", "dz2", "dz3", "dzb1", "dzb2", "dzb3"]

# Top form prod_l i dz^l ^ dzbar^l lives on the canonical key (0,...,5) with
# coefficient i^3 * sign(perm) = (-i) * (-1) = i.
_TOP_KEY = (0, 1, 2, 3, 4, 5)


def _merge(k1, k2):
    """Merge two strictly increasing tuples; return (key, sign) or None."""
    merged = k1 + k2
    if len(set(merged)) != len(merged):
        return None
    # parity of the permutation sorting the concatenation
    inv = 0
    for x in k2:
        for y in k1:
            if y > x:
                inv += 1
    key = tuple(sorted(merged))
    return key, (-1 if inv % 2 else 1)


def _is_zero(c) -> bool:
    if isinstance(c, GaussianRational):
        return not bool(c)
    return c == 0


class MultiVector:
    """Sparse element of the exterior algebra over dz^1..dz^3, dzbar^1..dzbar^3."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        self._terms = {}
        if terms:
            for key, coeff in terms.items():
                if not _is_zero(coeff):
                    self._terms[key] = coeff

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
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            c = out.get(key, 0) + coeff
            if _is_zero(c):
                out.pop(key, None)
            else:
                out[key] = c
        mv = MultiVector()
        mv._terms = out
        return mv

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        mv = MultiVector()
        mv._terms = {k: -c for k, c in self._terms.items()}
        return mv

    def __mul__(self, scalar):
        if isinstance(scalar, MultiVector):
            return NotImplemented
        mv = MultiVector()
        for k, c in self._terms.items():
            p = c * scalar
            if not _is_zero(p):
                mv._terms[k] = p
        return mv

    __rmul__ = __mul__

    def wedge(self, other: "MultiVector") -> "MultiVector":
        out = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in other._terms.items():
                m = _merge(k1, k2)
                if m is None:
                    continue
                key, sign = m
                c = out.get(key, 0) + sign * (c1 * c2)
                if _is_zero(c):
                    out.pop(key, None)
                else:
                    out[key] = c
        mv = MultiVector()
        mv._terms = out
        return mv

    def conjugate(self) -> "MultiVector":
        """Complex conjugation: dz^j <-> dzbar^j, coefficients conjugated."""
        out = {}
        for key, coeff in self._terms.items():
            swapped = tuple((g + 3) % 6 for g in key)
            skey = tuple(sorted(swapped))
            # parity of sorting the swapped tuple
            inv = sum(
                1
                for i in range(len(swapped))
                for j in range(i + 1, len(swapped))
                if swapped[i] > swapped[j]
            )
            sign = -1 if inv % 2 else 1
            cc = coeff.conjugate() if hasattr(coeff, "conjugate") else coeff
            c = out.get(skey, 0) + sign * cc
            if _is_zero(c):
                out.pop(skey, None)
            else:
                out[skey] = c
        mv = MultiVector()
        mv._terms = out
        return mv

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


def _entries_exact(mat) -> bool:
    for row in mat:
        for x in row:
            if isinstance(x, GaussianRational):
                return True
            if isinstance(x, (complex, float, np.complexfloating, np.floating)):
                return False
    # all ints/Fractions: treat as exact
    return True


def from_form11(phi) -> MultiVector:
    """(1,1)-form i * phi_{kbar j} dz^j ^ dzbar^k from the 3x3 matrix phi[k, j]."""
    rows = [[phi[k][j] for j in range(N)] for k in range(N)]
    exact = _entries_exact(rows)
    i_unit = GaussianRational(0, 1) if exact else 1j
    terms = {}
    for k in range(N):
        for j in range(N):
            c = rows[k][j]
            if exact:
                c = to_exact(c)
            if _is_zero(c):
                continue
            key = (j, k + 3)  # dz^{j+1} ^ dzbar^{k+1}, already sorted
            c = i_unit * c
            prev = terms.get(key, 0)
            terms[key] = prev + c
    return MultiVector(terms)


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
            gens = []
            for l in range(N):
                if l != a:
                    gens.append((l,))
                if l != b:
                    gens.append((l + 3,))
            key: tuple[int, ...] = ()
            sign = 1
            for g in gens:
                key, s = _merge(key, g)
                sign *= s
            sgn = -1 if a > b else 1
            basis[(a, b)] = (key, -2 * sgn * sign)  # i^2 * 2! = -2
    return basis


_FORM22_BASIS = _form22_basis()


def form22_basis():
    """Expose the convention table: dict (a, b) -> (canonical key, integer coefficient)."""
    return dict(_FORM22_BASIS)


def from_form22(psi) -> MultiVector:
    """(2,2)-form from the component matrix Q[a, b] = Psi^{a+1, bar{b+1}}."""
    terms = {}
    for a in range(N):
        for b in range(N):
            q = psi[a][b]
            if _is_zero(q):
                continue
            key, coeff = _FORM22_BASIS[(a, b)]
            c = coeff * q
            prev = terms.get(key, 0)
            terms[key] = prev + c
    return MultiVector(terms)


def to_form22(m: MultiVector):
    """Component matrix of a pure (2,2)-form; inverse of :func:`from_form22`.

    Raises :class:`FormDegreeError` if any term lies outside bidegree (2,2).
    Returns a complex ndarray in numeric mode, an object ndarray of
    GaussianRationals in exact mode.
    """
    exact = any(isinstance(c, GaussianRational) for c in m._terms.values())
    for key in m._terms:
        if _key_bidegree(key) != (2, 2):
            raise FormDegreeError(
                f"term {key} has bidegree {_key_bidegree(key)}, expected (2, 2)"
            )
    if exact:
        out = np.empty((N, N), dtype=object)
        for a in range(N):
            for b in range(N):
                key, coeff = _FORM22_BASIS[(a, b)]
                c = m._terms.get(key, None)
                out[a, b] = GaussianRational(0) if c is None else to_exact(c) / coeff
        return out
    out = np.zeros((N, N), dtype=complex)
    for a in range(N):
        for b in range(N):
            key, coeff = _FORM22_BASIS[(a, b)]
            c = m._terms.get(key, 0)
            out[a, b] = complex(c) / coeff
    return out


_WEDGE22_TABLE = None


def wedge22_table() -> np.ndarray:
    """Coefficient table for products of two (1,1) monomials.

    ``W[j, k, l, m]`` is the 3x3 component matrix of
    ``(i dz^{j+1} ^ dzbar^{k+1}) ^ (i dz^{l+1} ^ dzbar^{m+1})`` so that a
    product of two (1,1)-forms phi, chi expands as
    ``einsum('kj,ml,jklmab->ab', phi, chi, W)``.  Built once from the oracle.
    """
    global _WEDGE22_TABLE
    if _WEDGE22_TABLE is None:
        w = np.zeros((N, N, N, N, N, N), dtype=complex)
        for j in range(N):
            for k in range(N):
                f1 = 1j * dz(j + 1).wedge(dzbar(k + 1))
                for l in range(N):
                    for mm in range(N):
                        f2 = 1j * dz(l + 1).wedge(dzbar(mm + 1))
                        prod = f1.wedge(f2)
                        if not prod.is_zero():
                            w[j, k, l, mm] = to_form22(prod)
        _WEDGE22_TABLE = w
    return _WEDGE22_TABLE


def top_coefficient(m: MultiVector):
    """Coefficient of m on the basis top form prod_l i dz^l ^ dzbar^l.

    Zero if m has no (3,3) component.
    """
    c = m._terms.get(_TOP_KEY, None)
    if c is None:
        exact = any(isinstance(x, GaussianRational) for x in m._terms.values())
        return GaussianRational(0) if exact else 0j
    # canonical coefficient of the top form is +i; divide it out
    if isinstance(c, GaussianRational):
        return c * GaussianRational(0, -1)
    return complex(c) * (-1j)
