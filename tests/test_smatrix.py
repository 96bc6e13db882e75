import random
from fractions import Fraction

import pytest

from lsaforge import (InternalInconsistency, Mat, Tensor2, check, classify_r,
                      coadjoint_double, twisted_structures)
from lsaforge.catalog import catalog_algebras, rand_fraction
from lsaforge.smatrix import rr_bracket, rr_delta_agree, delta_r, \
    semidirect_bracket


def _rand_tensor(rng, alg):
    n = alg.dim
    return Tensor2(alg, Mat(n, n, [rand_fraction(rng) for _ in range(n * n)]))


def test_rr_delta_agree_random():
    rng = random.Random(11)
    for entry in catalog_algebras():
        for _ in range(5):
            r = _rand_tensor(rng, entry.alg)
            assert rr_delta_agree(entry.alg, r)


def test_delta_of_zero_vanishes(nab_lsa):
    r = Tensor2(nab_lsa, Mat.zeros(2, 2))
    assert delta_r(nab_lsa, r).is_zero()
    table = rr_bracket(nab_lsa, r)
    assert all(c == 0 for row in table for entry in row for c in entry)


def test_classify_zero_is_s_matrix(nab_lsa):
    rc = classify_r(nab_lsa, Tensor2(nab_lsa, Mat.zeros(2, 2)))
    assert rc.is_quasi_s and rc.is_s


def test_twisted_zero_tensor(nab_lsa):
    tw = twisted_structures(nab_lsa, Tensor2(nab_lsa, Mat.zeros(2, 2)))
    assert tw.cert.passed
    assert tw.xi == Mat.identity(4)
    assert tw.triangle == tw.twisted


def test_twisted_xi_conjugates_brackets():
    rng = random.Random(7)
    found = 0
    for entry in catalog_algebras():
        for _ in range(10):
            r = _rand_tensor(rng, entry.alg)
            rc = classify_r(entry.alg, r)
            if not rc.is_quasi_s:
                continue
            tw = twisted_structures(entry.alg, r)
            assert tw.cert.passed
            n = 2 * entry.alg.dim
            xi = tw.xi
            for i in range(n):
                for j in range(n):
                    ei = tuple(Fraction(1) if k == i else Fraction(0)
                               for k in range(n))
                    ej = tuple(Fraction(1) if k == j else Fraction(0)
                               for k in range(n))
                    lhs = xi.apply(tw.twisted.bracket(ei, ej))
                    rhs = tw.bracket_r.bracket(tuple(xi.col(i)),
                                               tuple(xi.col(j)))
                    assert tuple(lhs) == tuple(rhs)
            found += 1
            break
    assert found >= 3


def test_twisted_rejects_non_quasi_s(aff):
    a = Tensor2(aff, Mat.from_rows([[0, 1], [-1, 0]]))
    with pytest.raises(ValueError):
        twisted_structures(aff, a)


def test_coadjoint_double_heis(heis):
    b = Tensor2(heis, Mat.from_rows([[0, 0, 1], [0, 0, 0], [-1, 0, 0]]))
    dd = coadjoint_double(heis, b)
    assert dd.passed
    assert dd.rr.is_zero()
    assert check(dd.twisted, "jacobi_antisym")


def test_coadjoint_double_modified_solution(heis):
    # e1 wedge e2 has nonzero modified bracket, but it stays ad-invariant
    b = Tensor2(heis, Mat.from_rows([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]))
    dd = coadjoint_double(heis, b)
    assert dd.passed
    assert not dd.rr.is_zero()


def test_semidirect_bracket_jacobi(nab_lsa, ab_lsa):
    for alg in (nab_lsa, ab_lsa):
        big = semidirect_bracket(alg)
        assert check(big, "jacobi_antisym")
        assert big.dim == 2 * alg.dim


def test_tensor2_parts(nab_lsa):
    m = Mat.from_rows([[1, 2], [0, 3]])
    t = Tensor2(nab_lsa, m)
    assert t.sym_matrix + t.skew_matrix == m
    assert t.sym_matrix.is_symmetric()
    assert t.skew_matrix.is_antisymmetric()
    assert t.r_sharp == m.transpose()


@pytest.mark.xfail(strict=True, raises=InternalInconsistency,
                   reason="fault F1: the bracket of an antisymmetric "
                          "left-symmetric product is taken to be the product, "
                          "not the commutator")
def test_heisenberg_product_r0_twist_certifies(heis):
    # the Heisenberg product is left symmetric and r = 0 is quasi-S
    assert check(heis, "left_symmetric")
    r = Tensor2(heis, Mat.zeros(3, 3))
    assert classify_r(heis, r).is_quasi_s
    assert twisted_structures(heis, r).cert.passed
