"""Exterior algebra oracle: sign rules, conventions, exact pinning on dyadic inputs."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomaly_flow import exterior as ex
from anomaly_flow import verify
from anomaly_flow.errors import FormDegreeError
from anomaly_flow.pointwise import adjugate3, det3


def test_repeated_index_vanishes():
    assert ex.dz(1).wedge(ex.dz(1)).is_zero()
    assert ex.dzbar(2).wedge(ex.dzbar(2)).is_zero()


def test_sign_rule():
    a = ex.dz(1).wedge(ex.dzbar(1))
    b = ex.dzbar(1).wedge(ex.dz(1))
    assert a.coefficient((0, 3)) == 1
    assert b.coefficient((0, 3)) == -1
    assert (a + b).is_zero()


def test_even_degrees_commute():
    p = ex.dz(1).wedge(ex.dzbar(1))
    q = ex.dz(2).wedge(ex.dzbar(2))
    assert p.wedge(q) == q.wedge(p)


@st.composite
def monomials(draw):
    k = draw(st.lists(st.integers(0, 5), min_size=0, max_size=3, unique=True))
    c = draw(st.integers(-3, 3).filter(lambda x: x != 0))
    return ex.MultiVector({tuple(sorted(k)): c}), len(k)


@settings(max_examples=60, deadline=None)
@given(monomials(), monomials())
def test_graded_anticommutativity(ab, cd):
    a, p = ab
    b, q = cd
    lhs = a.wedge(b)
    rhs = (-1) ** (p * q) * b.wedge(a)
    assert lhs == rhs


@settings(max_examples=30, deadline=None)
@given(monomials(), monomials(), monomials())
def test_associativity(x, y, z):
    a, b, c = x[0], y[0], z[0]
    assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


MONOMIALS = [k for r in range(7) for k in itertools.combinations(range(6), r)]


def _sorting_sign(gens):
    """Sign of the permutation sorting distinct gens, from its cycle count."""
    perm = [sorted(gens).index(g) for g in gens]
    cycles, seen = 0, set()
    for start in range(len(perm)):
        cycles += start not in seen
        i = start
        while i not in seen:
            seen.add(i)
            i = perm[i]
    return (-1) ** (len(perm) - cycles)


def test_wedge_sign_of_every_monomial_pair():
    # absolute signs of all 64 x 64 products, against a parity computed another way
    assert len(MONOMIALS) == 64
    for k1, k2 in itertools.product(MONOMIALS, repeat=2):
        prod = ex.MultiVector({k1: 2}).wedge(ex.MultiVector({k2: 3}))
        if set(k1) & set(k2):
            assert prod.is_zero(), (k1, k2)
        else:
            assert prod.terms == {tuple(sorted(k1 + k2)): 6 * _sorting_sign(k1 + k2)}, (k1, k2)


def test_conjugate_sign_of_every_monomial():
    for k in MONOMIALS:
        swapped = tuple((g + 3) % 6 for g in k)
        got = ex.MultiVector({k: 2 + 3j}).conjugate()
        assert got.terms == {tuple(sorted(swapped)): _sorting_sign(swapped) * (2 - 3j)}, k


def test_from_form11_identity():
    m = ex.from_form11(np.eye(3, dtype=complex))
    for j in range(3):
        assert m.coefficient((j, j + 3)) == 1j
    assert len(m.terms) == 3


def test_from_form11_single_entry():
    phi = np.zeros((3, 3), dtype=complex)
    phi[0, 1] = 1.0  # phi_{1bar 2} -> i dz^2 ^ dzbar^1
    m = ex.from_form11(phi)
    assert m.terms == {(1, 3): 1j}


def test_from_form11_zero():
    assert ex.from_form11(np.zeros((3, 3), dtype=complex)).is_zero()


def test_wedge_square_of_identity_is_identity_matrix():
    w = ex.from_form11(np.eye(3, dtype=complex))
    q = ex.to_form22(w.wedge(w))
    np.testing.assert_allclose(q, np.eye(3), atol=1e-15)


def test_form22_roundtrip_single_entry():
    q = np.zeros((3, 3), dtype=complex)
    q[1, 2] = 1.0
    q[2, 1] = 1.0
    np.testing.assert_allclose(ex.to_form22(ex.from_form22(q)), q, atol=1e-15)


def test_wedge_square_diag123():
    w = ex.from_form11(np.diag([1.0, 2.0, 3.0]).astype(complex))
    q = ex.to_form22(w.wedge(w))
    np.testing.assert_allclose(q, np.diag([6.0, 3.0, 2.0]), atol=1e-14)


def test_to_form22_rejects_wrong_degree():
    with pytest.raises(FormDegreeError):
        ex.to_form22(ex.dz(1).wedge(ex.dzbar(1)))


def test_top_coefficient_normalization():
    # i^3 dz1 dzb1 dz2 dzb2 dz3 dzb3 has coefficient 1 on the basis top form
    t = ex.wedge(
        ex.dz(1), ex.dzbar(1), ex.dz(2), ex.dzbar(2), ex.dz(3), ex.dzbar(3)
    ) * (1j) ** 3
    assert abs(ex.top_coefficient(t) - 1) < 1e-15


def test_top_coefficient_identity_cube():
    w = ex.from_form11(np.eye(3, dtype=complex))
    assert abs(ex.top_coefficient(ex.wedge(w, w, w)) - 6.0) < 1e-14


def test_top_coefficient_lower_degree_is_zero():
    assert ex.top_coefficient(ex.dz(1)) == 0
    assert ex.top_coefficient(ex.from_form11(np.eye(3, dtype=complex))) == 0


def test_wedge_square_equals_adjugate_random():
    rng = np.random.default_rng(0)
    for _ in range(100):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m = (a @ a.conj().T) / 3 + 0.4 * np.eye(3)
        q = ex.to_form22(ex.from_form11(m).wedge(ex.from_form11(m)))
        adj = adjugate3(m)
        assert np.abs(q - adj).max() / np.abs(adj).max() < 1e-12


def test_top_is_six_det_random():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m = (a @ a.conj().T) / 3 + 0.4 * np.eye(3)
        w = ex.from_form11(m)
        top = ex.top_coefficient(ex.wedge(w, w, w))
        assert abs(top - 6 * det3(m)) < 1e-12 * abs(6 * det3(m))


def test_reality_iff_hermitian():
    rng = np.random.default_rng(2)
    q = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    qh = 0.5 * (q + q.conj().T)
    mv = ex.from_form22(qh)
    assert mv.conjugate().max_abs_diff(mv) < 1e-14
    mv_nh = ex.from_form22(qh + 0.7j * np.eye(3))
    assert mv_nh.conjugate().max_abs_diff(mv_nh) > 1e-3


def test_exact_mode_wedge_square_is_exact_adjugate():
    # dyadic entries: every product and sum below is exact in float64, so == is exact
    m = np.array([
        [2, 0.5 + 0.375j, 0],
        [0.5 - 0.375j, 3, 0.25 + 1.125j],
        [0, 0.25 - 1.125j, 1],
    ])
    mv = ex.from_form11(m)
    q = ex.to_form22(mv.wedge(mv))
    # adjugate entries computed independently by cofactor expansion
    def adj(i, j):
        rows = [r for r in range(3) if r != j]
        cols = [c for c in range(3) if c != i]
        minor = (
            m[rows[0]][cols[0]] * m[rows[1]][cols[1]]
            - m[rows[0]][cols[1]] * m[rows[1]][cols[0]]
        )
        return minor if (i + j) % 2 == 0 else -minor

    for i in range(3):
        for j in range(3):
            assert q[i, j] == adj(i, j)


def test_exact_mode_top_is_six_det():
    m = np.array([
        [1, 0.5j, 0],
        [-0.5j, 2, 0.75],
        [0, 0.75, 3],
    ])
    mv = ex.from_form11(m)
    top = ex.top_coefficient(ex.wedge(mv, mv, mv))
    det = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    assert top == 6 * det


def _sort_sign_without_parity(gens):
    return None if len(set(gens)) != len(gens) else (tuple(sorted(gens)), 1)


@pytest.mark.parametrize("fault", ["q01_sign", "q22_tripled", "no_sort_parity"])
def test_criterion_1_fails_every_trial_of_a_planted_fault(fault, monkeypatch):
    # at the seed criterion 1 runs at (tests/test_acceptance.py), each planted convention
    # fault breaks == on all 50 dyadic draws
    if fault == "no_sort_parity":
        monkeypatch.setattr(ex, "_sort_sign", _sort_sign_without_parity)
    else:
        ab, factor = ((0, 1), -1) if fault == "q01_sign" else ((2, 2), 3)
        key, coeff = ex._FORM22_BASIS[ab]
        monkeypatch.setitem(ex._FORM22_BASIS, ab, (key, factor * coeff))
    ex._merge.cache_clear()
    try:
        res = verify.suite_wedge_square_exact(20260808, trials=50)
    finally:
        monkeypatch.undo()
        ex._merge.cache_clear()  # no planted sign outlives the test
    assert not res.passed and res.max_residual == 50
    assert verify.suite_wedge_square_exact(20260808, trials=50).max_residual == 0.0
