import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsaforge.exact import (Mat, Subspace, basis_vec, form_value,
                            format_rational, is_zero_vec,
                            lagrangian_complement, parse_rational, solve,
                            symp_orthogonal, vec_add, vec_scale, zero_vec)

rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 9))


@given(rationals)
def test_rational_roundtrip(x):
    assert parse_rational(format_rational(x)) == x


@pytest.mark.parametrize("bad", ["", "1.5", "1/0", "1/-2", "+", "a", "1 / 2",
                                 "0x3", "2/", "/3", "--1"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def _rand_mat(rng, n):
    return Mat(n, n, [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
                      for _ in range(n * n)])


def test_inverse_and_rank():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = _rand_mat(rng, n)
        assert m.rank() + len(m.kernel_basis()) == n
        if m.is_invertible():
            assert m * m.inverse() == Mat.identity(n)
            assert m.inverse() * m == Mat.identity(n)


def test_rref_idempotent():
    rng = random.Random(2)
    for _ in range(20):
        m = _rand_mat(rng, rng.randint(1, 4))
        r, pivots = m.rref()
        assert r.rref() == (r, pivots)
        assert len(pivots) == m.rank()


def test_solve_consistency():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = _rand_mat(rng, n)
        x = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
        rhs = m.apply(x)
        sol, ker = solve(m, rhs)
        assert sol is not None
        assert m.apply(sol) == tuple(rhs)
        for k in ker.basis:
            assert is_zero_vec(m.apply(k))


def test_subspace_operations():
    s = Subspace(4, [(1, 0, 0, 0), (1, 1, 0, 0)])
    t = Subspace(4, [(0, 1, 0, 0), (0, 0, 1, 0)])
    assert s.dim == 2 and t.dim == 2
    both = s.add(t)
    meet = s.intersect(t)
    assert both.dim + meet.dim == s.dim + t.dim
    assert both.contains_space(s) and both.contains_space(meet)
    comp = s.complement_in(both)
    assert comp.dim == both.dim - s.dim
    assert s.add(comp).dim == both.dim


def test_subspace_canonical_equality():
    a = Subspace(3, [(1, 1, 0), (0, 2, 0)])
    b = Subspace(3, [(1, 0, 0), (3, 1, 0)])
    assert a.basis == b.basis


def test_symp_orthogonal_dims():
    gram = Mat.from_rows([[0, 0, 1, 0], [0, 0, 0, 1],
                          [-1, 0, 0, 0], [0, -1, 0, 0]])
    s = Subspace(4, [(1, 0, 0, 0)])
    perp = symp_orthogonal(gram, s)
    assert perp.dim == 3
    assert perp.contains((1, 0, 0, 0))


def test_lagrangian_complement_pairing():
    gram = Mat.from_rows([[0, 0, 1, 0], [0, 0, 0, 1],
                          [-1, 0, 0, 0], [0, -1, 0, 0]])
    lag = Subspace(4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    comp = lagrangian_complement(gram, lag)
    assert comp.dim == 2
    for u in comp.basis:
        for v in comp.basis:
            assert form_value(gram, u, v) == 0
    for i, u in enumerate(lag.basis):
        for j, v in enumerate(comp.basis):
            assert form_value(gram, u, v) == (1 if i == j else 0)


@settings(max_examples=30)
@given(st.lists(rationals, min_size=4, max_size=4),
       st.lists(rationals, min_size=4, max_size=4), rationals)
def test_vec_linear(u, v, c):
    u, v = tuple(u), tuple(v)
    assert vec_add(u, v) == vec_add(v, u)
    assert vec_scale(c, vec_add(u, v)) == \
        vec_add(vec_scale(c, u), vec_scale(c, v))


def test_block_and_basis():
    a = Mat.identity(2)
    b = Mat.zeros(2, 2)
    big = Mat.block([[a, b], [b, a.scale(-1)]])
    assert big.rows == 4 and big[0, 0] == 1 and big[3, 3] == -1
    assert basis_vec(3, 1) == (0, 1, 0)
    assert zero_vec(2) == (Fraction(0), Fraction(0))


def test_mat_memo_keeps_equality_hash_and_immutability():
    m = Mat.from_rows([[1, Fraction(1, 2), 0], [0, 0, Fraction(-3, 4)]])
    fresh = Mat(m.rows, m.cols, m.data)
    assert m._int_view() == (4, (((0, 4), (1, 2)), ((2, -3),)))
    t = m.transpose()
    assert m.transpose() is t and fresh.transpose() == t
    assert t.transpose() == m and t._int_view()[0] == 4
    assert m == fresh and hash(m) == hash(fresh)
    assert {m: 1}[fresh] == 1
    for attr in ("rows", "cols", "data", "_den", "_cells", "_data", "_t"):
        with pytest.raises(AttributeError):
            setattr(m, attr, None)
    product = m * t                      # built by Mat arithmetic
    assert product == Mat.from_rows([[Fraction(5, 4), 0],
                                     [0, Fraction(9, 16)]])
    assert product._int_view() == (16, (((0, 20),), ((1, 9),)))
    assert product.transpose() == product
