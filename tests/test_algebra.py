import random
from fractions import Fraction

import pytest

import oracle_routes as oracle
from lsaforge import (Algebra, Endo, Mat, check, invariance_check,
                      is_derivation, product_subspaces)
from lsaforge.algebra import associator, algebra_tensor, curvature, endo_tensor
from lsaforge.exact import basis_vec


def test_predicates_on_fixtures(aff, heis, nab_lsa, ab_lsa):
    assert check(aff, "jacobi_antisym")
    assert check(heis, "jacobi_antisym")
    assert check(heis, "left_symmetric")      # two-step nilpotent bracket
    assert not check(aff, "left_symmetric")   # bracket of a solvable algebra
    assert check(nab_lsa, "left_symmetric")
    assert check(ab_lsa, "left_symmetric")
    assert check(ab_lsa, "commutative")
    assert not check(nab_lsa, "commutative")
    assert check(nab_lsa, "lie_admissible")
    assert not check(nab_lsa, "associative")


def test_bracket_and_ad(aff):
    x, y = basis_vec(2, 0), basis_vec(2, 1)
    assert aff.bracket(x, y) == (Fraction(1), Fraction(0))
    assert aff.ad(y).apply(x) == (Fraction(-1), Fraction(0))


def test_conjugate_preserves_predicates(nab_lsa):
    rng = random.Random(5)
    for _ in range(10):
        p = Mat(2, 2, [Fraction(rng.randint(-3, 3)) for _ in range(4)])
        if not p.is_invertible():
            continue
        moved = nab_lsa.conjugate(p)
        assert bool(check(moved, "left_symmetric"))
        assert bool(check(moved, "lie_admissible"))
    assert nab_lsa.conjugate(Mat.identity(2)) == nab_lsa


def test_product_subspaces(nab_lsa, ab_lsa):
    subs = product_subspaces(nab_lsa)
    assert subs["UU"].dim == 2
    assert subs["DUU"].dim == 1
    assert subs["SUU"].dim == 1
    subs = product_subspaces(ab_lsa)
    assert subs["UU"].dim == 1
    assert subs["powers"][2].is_zero()


def test_bracket_tensor_invariance(aff, heis, sl2):
    for lie in (aff, heis, sl2):
        tensor = algebra_tensor(
            Algebra.from_function(lie.basis, lie.bracket))
        assert invariance_check(tensor, ("ad_dual", "ad_dual", "ad"), lie)


def test_ad_is_derivation(sl2):
    for i in range(3):
        assert is_derivation(sl2.ad(basis_vec(3, i)), sl2)


def test_associator_and_curvature(ab_lsa):
    n = ab_lsa.dim
    for i in range(n):
        for j in range(n):
            u, v = basis_vec(n, i), basis_vec(n, j)
            # left symmetry: curvature vanishes
            assert curvature(ab_lsa, u, v).is_zero()
    x = basis_vec(2, 1)
    assert associator(ab_lsa, x, x, x) == ab_lsa.product(
        ab_lsa.product(x, x), x)


def test_endo_tensor_convention():
    m = Mat.from_rows([[1, 2], [3, 4]])
    t = endo_tensor(m)
    # T[j][k] = e_k coordinate of M e_j (column j)
    assert t[0] == [Fraction(1), Fraction(3)]
    assert t[1] == [Fraction(2), Fraction(4)]


def test_scale_add_conjugate_roundtrip(nab_lsa):
    doubled = nab_lsa.scale(2)
    assert doubled.add(nab_lsa.scale(-2)).is_zero()
    p = Mat.from_rows([[2, 1], [1, 1]])
    assert nab_lsa.conjugate(p).conjugate(p.inverse()) == nab_lsa


def test_from_blocks_layout():
    def pick(k):
        return lambda x, y: (x[0] * y[1] * k, x[1] * y[0] * k)

    double = Algebra.from_blocks([[(pick(1), None), (None, pick(2))],
                                  [(None, None), (pick(3), pick(4))]],
                                 ("x", "y"), "'")
    assert double.basis == ("x", "y", "x'", "y'")
    f = Fraction
    # UU block: U-part only
    assert double.table[0][1] == (f(1), f(0), f(0), f(0))
    # UU' block: U'-part only
    assert double.table[0][3] == (f(0), f(0), f(2), f(0))
    # U'U block: zero
    assert double.table[2][1] == (f(0),) * 4
    # U'U' block: both parts
    assert double.table[3][2] == (f(0), f(3), f(0), f(4))


def test_bad_table_rejected():
    with pytest.raises(ValueError):
        Algebra([[(0, 0)]])


def test_endo_wraps(nab_lsa):
    e = Endo(nab_lsa, Mat.identity(2))
    assert e.matrix == Mat.identity(2)


@pytest.mark.parametrize("name", ["aff", "heis", "nab_lsa", "sl2"])
def test_memoized_values_match_fresh_ones(name, request):
    alg = request.getfixturevalue(name)
    n = alg.dim
    es = [basis_vec(n, i) for i in range(n)]
    general = tuple(Fraction(k + 1, 2 - k % 2) for k in range(n))
    vectors = es + [general]
    fresh_bracket = Algebra(
        [[oracle.bracket(alg, ei, ej) for ej in es] for ei in es], alg.basis)
    # the first pass fills the memo, the second reads it
    for _ in range(2):
        assert alg.bracket_algebra() == fresh_bracket
        for u in vectors:
            assert alg.left_mult(u).row_list() == oracle.left_mult(alg, u)
            assert alg.ad(u).row_list() == oracle.ad(alg, u)
            for v in vectors:
                assert alg.bracket(u, v) == oracle.bracket(alg, u, v)
    assert alg.left_mults() == tuple(alg.left_mult(e) for e in es)


def test_memo_keeps_algebra_immutable_and_out_of_equality(nab_lsa):
    fresh = Algebra(nab_lsa.table, nab_lsa.basis)
    nab_lsa.left_mults()
    nab_lsa.bracket_algebra()
    for attr in ("dim", "table", "_lefts", "_bracket"):
        with pytest.raises(AttributeError):
            setattr(nab_lsa, attr, None)
    assert nab_lsa == fresh and hash(nab_lsa) == hash(fresh)
    assert nab_lsa.bracket_algebra() == fresh.bracket_algebra()
