import random
from collections import Counter
from fractions import Fraction

import pytest

import oracle_routes as oracle
from lsaforge import (Algebra, InternalInconsistency, Mat, Tensor2, check,
                      classify_r, coadjoint_double, dual_product_from_r,
                      graded_tensor_algebra, twisted_structures)
from lsaforge import smatrix
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
                    lhs = xi.apply(tw.twisted.product(ei, ej))
                    rhs = tw.bracket_r.product(tuple(xi.col(i)),
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
        big = semidirect_bracket(alg.commutator_algebra(), alg)
        assert check(big, "jacobi_antisym")
        assert big.dim == 2 * alg.dim


def test_tensor2_parts(nab_lsa):
    m = Mat.from_rows([[1, 2], [0, 3]])
    t = Tensor2(nab_lsa, m)
    assert t.sym_matrix + t.skew_matrix == m
    assert t.sym_matrix.is_symmetric()
    assert t.skew_matrix.is_antisymmetric()
    assert t.r_sharp == m.transpose()


def test_heisenberg_product_r0_twist_certifies(heis):
    # the Heisenberg product is left symmetric and r = 0 is quasi-S
    assert check(heis, "left_symmetric")
    r = Tensor2(heis, Mat.zeros(3, 3))
    assert classify_r(heis, r).is_quasi_s
    assert twisted_structures(heis, r).cert.passed


def _antisymmetric_lsas(heis, aff):
    """Nonzero left-symmetric products that are antisymmetric: their
    bracket is the commutator, twice the product."""
    return (heis, graded_tensor_algebra(aff, 2)[0])


def _sparse_tensor(rng, alg):
    n = alg.dim
    return Tensor2(alg, Mat(n, n, [rng.choice((-1, 1, 2, Fraction(1, 2)))
                                   if rng.random() < 0.3 else 0
                                   for _ in range(n * n)]))


def test_antisymmetric_lsa_matches_commutator_oracle(heis, aff):
    rng = random.Random(31)
    for alg in _antisymmetric_lsas(heis, aff):
        assert check(alg, "left_symmetric") and not alg.is_zero()
        n = alg.dim
        draws = [Tensor2(alg, Mat.zeros(n, n))] + \
            [_sparse_tensor(rng, alg) for _ in range(12)]
        verdicts = []
        for r in draws:
            assert dual_product_from_r(alg, r).table == \
                oracle.dual_product_table(alg, r.matrix)
            assert delta_r(alg, r).table == oracle.delta_table(alg, r.matrix)
            verdicts.append(classify_r(alg, r).is_quasi_s)
            assert verdicts[-1] == oracle.is_quasi_s(alg, r.matrix)
        assert verdicts[0] and any(verdicts[1:]) and not all(verdicts)


def test_antisymmetric_lsa_twists_certify(heis, aff):
    rng = random.Random(32)
    for alg in _antisymmetric_lsas(heis, aff):
        n = alg.dim
        zero = twisted_structures(alg, Tensor2(alg, Mat.zeros(n, n)))
        assert zero.cert.passed
        assert zero.bracket_r == zero.triangle
        r = next(r for r in (_sparse_tensor(rng, alg) for _ in range(50))
                 if not r.matrix.is_zero() and classify_r(alg, r).is_quasi_s)
        assert twisted_structures(alg, r).cert.passed


def test_rr_delta_disagreement_names_both_routes(monkeypatch, nab_lsa):
    real = smatrix._rr_algebra
    bump = Algebra([[[0, 0], [0, 1]], [[0, 0], [0, 0]]])   # e_0.e_1 = e_1

    def corrupted(u, r):                # [[r,r]] + 1 at (0, 1, 1)
        return real(u, r).add(bump)

    monkeypatch.setattr(smatrix, "_rr_algebra", corrupted)
    with pytest.raises(InternalInconsistency) as err:
        classify_r(nab_lsa, Tensor2(nab_lsa, Mat.zeros(2, 2)))
    assert str(err.value) == (
        "Delta(r) and [[r,r]] pairing disagree at (0, 1, 1): "
        "[[r,r]] == 0 by the five-term bracket: FAIL witness=(0, 1, 1); "
        "[[r,r]] == 0 by the pairing with Delta(r): PASS")


def _mixed_table(rng, n, density):
    """A seeded product table with mixed denominators."""
    return Algebra([[[Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5)))
                      if rng.random() < density else 0 for _ in range(n)]
                     for _ in range(n)] for _ in range(n)])


def test_row_dual_product_matches_the_dense_route(heis, aff):
    """`_dual_product`, one covector row at a time, against the dense n^3
    route it replaced: stored forms and labels, on seeded tables and
    tensors with mixed denominators (sparse, dense and zero), and on the
    catalog's Heisenberg product and a graded tensor algebra."""
    rng = random.Random(41)
    algs = [heis, graded_tensor_algebra(aff, 2)[0], Algebra.zero(3)]
    algs += [_mixed_table(rng, rng.randint(1, 6), rng.choice((0.1, 0.5, 1.0)))
             for _ in range(12)]
    for alg in algs:
        n = alg.dim
        for density in (0.0, 0.3, 1.0):
            rm = Mat(n, n, [Fraction(rng.randint(-5, 5), rng.choice((1, 2, 7)))
                            if rng.random() < density else 0
                            for _ in range(n * n)])
            got = dual_product_from_r(alg, rm)
            want = oracle.dense_dual_product(alg, rm)
            assert got == want and got.basis == want.basis


def test_a_dual_that_is_not_left_symmetric_is_a_defect(monkeypatch, aff):
    """r = 0 on the plane has Delta(r) = 0 whatever the dual product, so it
    classifies as quasi-S; a quasi-S-matrix on a left-symmetric U induces
    a left-symmetric product on U*, so a dual that is not (here the
    bracket of aff) is a defect, not bad input."""
    plane = Algebra.zero(2)
    monkeypatch.setattr(smatrix, "_dual_product", lambda u, r: aff)
    with pytest.raises(InternalInconsistency,
                       match="quasi-S-matrix is not left symmetric"):
        twisted_structures(plane, Mat.zeros(2, 2))


def test_a_plane_twist_keeps_its_allocation_budget(monkeypatch):
    """The stored matrices (`Mat._of`) and algebras (`Algebra._of`) that a
    twist of the abelian plane builds, counted on a second twist of the
    same plane by the same r: exact counts, no timing, so a builder that
    slips back to identity, zero and `Mat.block` chains shows here."""
    plane = Algebra.zero(2)
    r = Tensor2(plane, Mat.from_rows([[Fraction(2, 3), Fraction(-1, 3)],
                                      [Fraction(-1, 3), Fraction(-1, 2)]]))
    twisted_structures(plane, r)
    counts = Counter()
    for cls in (Mat, Algebra):
        def counted(*args, _make=cls._of, _name=cls.__name__):
            counts[_name] += 1
            return _make(*args)
        monkeypatch.setattr(cls, "_of", staticmethod(counted))
    assert twisted_structures(plane, r).cert.passed
    assert counts == {"Mat": 27, "Algebra": 13}
