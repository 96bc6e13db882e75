"""The contracted identity checks against the matrix routes they replaced.

Every check here compares verdict and witness of the library with the
dense reference routes of `oracle_routes`, on seeded tables of dimension
at most 5: sparse and dense random tables, antisymmetrized ones, and
structured algebras (Lie algebras, left-symmetric algebras and their
phase spaces, moved by random changes of basis) on which the checks pass.
"""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_routes as oracle
from lsaforge import (Bilinear, LieTriple, Mat, Subspace, build_phase, check,
                      delta_r, is_invariant_form, is_two_cocycle,
                      levi_civita, nijenhuis, twisted_structures)
from lsaforge.algebra import PREDICATES, Algebra, curvature
from lsaforge.catalog import catalog_algebras
from lsaforge.exact import dot, zero_vec
from lsaforge.smatrix import Tensor2, classify_r

VALUES = [Fraction(p, q) for p in range(-3, 4) for q in (1, 2, 3)]
DENSITY = {"sparse": 0.15, "dense": 0.9}
SEEDS = st.integers(0, 2 ** 32 - 1)


def _entry(rng, density):
    return rng.choice(VALUES) if rng.random() < density else Fraction(0)


def _random_table(rng, n, density):
    return [[tuple(_entry(rng, density) for _ in range(n)) for _ in range(n)]
            for _ in range(n)]


def _direct_sum(a, b):
    n, m = a.dim, b.dim
    z = Fraction(0)
    table = [[None] * (n + m) for _ in range(n + m)]
    for i in range(n + m):
        for j in range(n + m):
            if i < n and j < n:
                table[i][j] = tuple(a.table[i][j]) + (z,) * m
            elif i >= n and j >= n:
                table[i][j] = (z,) * n + tuple(b.table[i - n][j - n])
            else:
                table[i][j] = (z,) * (n + m)
    return Algebra(table)


def _aff():
    return Algebra([[(0, 0), (1, 0)], [(-1, 0), (0, 0)]])


def _heis():
    return Algebra([[(0, 0, 0), (0, 0, 1), (0, 0, 0)],
                    [(0, 0, -1), (0, 0, 0), (0, 0, 0)],
                    [(0, 0, 0), (0, 0, 0), (0, 0, 0)]])


def _sl2():
    return Algebra([[(0, 0, 0), (0, 2, 0), (0, 0, -2)],
                    [(0, -2, 0), (0, 0, 0), (1, 0, 0)],
                    [(0, 0, 2), (-1, 0, 0), (0, 0, 0)]])


def _nab_lsa():
    return Algebra([[(0, 0), (1, 0)], [(-1, 0), (0, 1)]])


def _ab_lsa():
    return Algebra([[(0, 0), (0, 0)], [(0, 0), (1, 0)]])


def _lie_algebras():
    aff, heis, sl2 = _aff(), _heis(), _sl2()
    return [aff, heis, sl2, _direct_sum(aff, aff), _direct_sum(heis, aff),
            _direct_sum(sl2, aff), Algebra.zero(4)]


@functools.lru_cache(maxsize=None)
def _structured():
    """Algebras of dimension <= 5 on which some predicates pass."""
    return tuple(_lie_algebras()
                 + [_nab_lsa(), _ab_lsa(), build_phase(_nab_lsa()).extended,
                    build_phase(_ab_lsa()).extended,
                    _direct_sum(_nab_lsa(), _heis())]
                 + [e.alg for e in catalog_algebras() if e.alg.dim <= 5])


def _invertible(rng, n):
    while True:
        p = Mat(n, n, [rng.choice(VALUES) if rng.random() < 0.6 else 0
                       for _ in range(n * n)])
        if p.is_invertible():
            return p


def _moved(rng, alg):
    """alg in a random basis (conjugation keeps every predicate)."""
    return alg.conjugate(_invertible(rng, alg.dim)) if alg.dim else alg


def _algebra(kind, n, rng):
    if kind in DENSITY:
        return Algebra(_random_table(rng, n, DENSITY[kind]))
    if kind == "antisymmetrized":
        return Algebra(_random_table(rng, n, 0.5)).commutator_algebra()
    alg = rng.choice(_structured())
    return _moved(rng, alg) if kind == "moved" else alg


ALGEBRA_KINDS = ("sparse", "dense", "antisymmetrized", "structured", "moved")


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(ALGEBRA_KINDS), st.integers(0, 5), SEEDS)
def test_predicates_match_reference_routes(kind, n, seed):
    alg = _algebra(kind, n, random.Random(seed))
    for name in PREDICATES:
        rep = check(alg, name)
        want = oracle.PREDICATES[name](alg)
        assert (rep.passed, rep.witness) == (want is None, want), name


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(ALGEBRA_KINDS), st.integers(1, 5), SEEDS)
def test_curvature_matches_left_mult_route(kind, n, seed):
    rng = random.Random(seed)
    alg = _algebra(kind, n, rng)
    n = alg.dim
    vectors = [tuple(Fraction(int(j == i)) for j in range(n))
               for i in range(n)] + [tuple(rng.choice(VALUES)
                                           for _ in range(n))]
    for u in vectors:
        for v in vectors:
            assert curvature(alg, u, v).row_list() == \
                oracle.curvature(alg, u, v)


def test_drawn_algebras_reach_both_verdicts():
    # the kinds drawn above give both verdicts of every predicate
    verdicts = {name: set() for name in PREDICATES}
    rng = random.Random(3)
    for alg in _structured() + (_algebra("dense", 3, rng),):
        for name in PREDICATES:
            verdicts[name].add(check(alg, name).passed)
    assert all(v == {True, False} for v in verdicts.values()), verdicts


def _random_triple(rng, n, density):
    return LieTriple([[[tuple(_entry(rng, density) for _ in range(n))
                        for _ in range(n)] for _ in range(n)]
                      for _ in range(n)])


def _lie_triple(kind, n, rng):
    if kind in DENSITY:
        return _random_triple(rng, n, DENSITY[kind])
    if kind == "zero":
        return LieTriple.from_function(n, lambda x, y, z: zero_vec(n))
    # [[x,y],z] on a Lie algebra is a Lie triple system
    lie = _moved(rng, rng.choice(_lie_algebras()))
    return LieTriple.from_function(
        lie.dim, lambda x, y, z: lie.product(lie.product(x, y), z))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("sparse", "dense", "zero", "double_bracket")),
       st.integers(0, 4), SEEDS)
def test_lie_triple_check_matches_call_route(kind, n, seed):
    lts = _lie_triple(kind, n, random.Random(seed))
    want = oracle.lie_triple_witnesses(lts)
    got = {rep.name: (rep.passed, rep.witness) for rep in lts.check().reports}
    assert got == {name: (w is None, w) for name, w in want.items()}


def test_lie_triple_derivation_failure_matches_call_route():
    # alternating and cyclic hold, derivation fails: L(x,y,z) = [[x,y],z]
    # for the bracket of aff plus a multiple of e_1 on (e_1, e_2, e_2)
    lie = _aff()
    base = LieTriple.from_function(
        2, lambda x, y, z: lie.product(lie.product(x, y), z))
    table = [[[list(cell) for cell in row] for row in plane]
             for plane in base.table]
    table[0][1][1][1] += 1
    table[1][0][1][1] -= 1
    lts = LieTriple(table)
    got = {rep.name: rep.witness for rep in lts.check().reports}
    assert got == oracle.lie_triple_witnesses(lts)
    assert got["alternating"] is None and got["derivation"] is not None


def _skew_form(rng, n):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = _entry(rng, 0.7)
            rows[j][i] = -rows[i][j]
    return Bilinear(Mat.from_rows(rows) if n else Mat(0, 0, []), "skew")


def _coboundary(rng, lie):
    """omega(u,v) = f([u,v]) for a random covector f: always a cocycle."""
    n = lie.dim
    f = [rng.choice(VALUES) for _ in range(n)]
    return Bilinear(Mat(n, n, [dot(f, lie.table[i][j]) for i in range(n)
                               for j in range(n)]), "skew")


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("random_form", "coboundary", "symmetric",
                        "not_lie")), SEEDS)
def test_two_cocycle_matches_value_route(kind, seed):
    rng = random.Random(seed)
    if kind == "not_lie":
        lie = Algebra(_random_table(rng, rng.randint(2, 5), 0.5)) \
            .commutator_algebra()
    else:
        lie = _moved(rng, rng.choice(_lie_algebras()))
    n = lie.dim
    if kind == "coboundary":
        omega = _coboundary(rng, lie)
    elif kind == "symmetric":
        omega = Bilinear(Mat.identity(n), "symmetric")
    else:
        omega = _skew_form(rng, n)
    rep = is_two_cocycle(omega, lie)
    assert (rep.passed, rep.witness) == oracle.is_two_cocycle(omega, lie)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ALGEBRA_KINDS), st.integers(0, 5), SEEDS)
def test_invariant_form_matches_value_route(kind, n, seed):
    rng = random.Random(seed)
    alg = _algebra(kind, n, rng)
    omega = _skew_form(rng, alg.dim)
    rep = is_invariant_form(omega, alg)
    assert (rep.passed, rep.witness) == oracle.is_invariant_form(omega, alg)


def test_invariant_form_passes_on_catalog_planes():
    omega = Bilinear(Mat.from_rows([[0, 1], [-1, 0]]), "skew")
    planes = [e.alg for e in catalog_algebras() if e.alg.dim == 2]
    assert planes
    for alg in planes:
        rep = is_invariant_form(omega, alg)
        assert rep.passed
        assert oracle.is_invariant_form(omega, alg) == (True, None)


@settings(max_examples=20, deadline=None)
@given(SEEDS)
def test_levi_civita_matches_metric_route(seed):
    rng = random.Random(seed)
    lie = _moved(rng, rng.choice(_lie_algebras()))
    n = lie.dim
    while True:
        half = [[_entry(rng, 0.6) for _ in range(n)] for _ in range(n)]
        g = Mat(n, n, [half[i][j] + half[j][i] for i in range(n)
                       for j in range(n)])
        if g.is_invertible():
            break
    metric = Bilinear(g, "symmetric")
    assert levi_civita(lie, metric).table == \
        tuple(tuple(cell) for cell in oracle.levi_civita_table(lie, metric))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(ALGEBRA_KINDS), st.integers(0, 5), SEEDS)
def test_nijenhuis_matches_bracket_route(kind, n, seed):
    rng = random.Random(seed)
    alg = _algebra(kind, n, rng)
    a = Mat(alg.dim, alg.dim, [_entry(rng, 0.5)
                               for _ in range(alg.dim ** 2)])
    assert nijenhuis(a, alg).table == \
        tuple(tuple(cell) for cell in oracle.nijenhuis_table(a, alg))


def test_twist_triple_matches_left_mult_route():
    # L(a,b,c) = -L_{Delta(r)(a,b)}^t c, as the construction formula reads
    rng = random.Random(11)
    seen = 0
    for entry in catalog_algebras():
        u = entry.alg
        n = u.dim
        for _ in range(6):
            r = Tensor2(u, Mat(n, n, [_entry(rng, 0.8) for _ in range(n * n)]))
            if not classify_r(u, r).is_quasi_s:
                continue
            tw = twisted_structures(u, r)
            delta = delta_r(u, r)

            def minus_lt(a, b, c):
                lx = oracle.left_mult(u, delta.product(a, b))
                return tuple(-oracle.dense_dot([row[k] for row in lx], c)
                             for k in range(n))

            assert tw.lts.table == LieTriple.from_function(n, minus_lt).table
            seen += 1
    assert seen


# -- the exact kernel ---------------------------------------------------------

def _random_mat(rng, rows, cols, kind):
    if kind == "zero":
        return Mat.zeros(rows, cols)
    return Mat(rows, cols, [_entry(rng, DENSITY[kind])
                            for _ in range(rows * cols)])


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5),
       st.sampled_from(("sparse", "dense", "zero")),
       st.sampled_from(("sparse", "dense", "zero")), SEEDS)
def test_apply_matches_dense_dot(rows, cols, mat_kind, vec_kind, seed):
    rng = random.Random(seed)
    m = _random_mat(rng, rows, cols, mat_kind)
    v = zero_vec(cols) if vec_kind == "zero" else \
        tuple(_entry(rng, DENSITY[vec_kind]) for _ in range(cols))
    assert m.apply(v) == oracle.dense_apply(m, v)
    w = tuple(_entry(rng, 0.5) for _ in range(cols))
    assert dot(v, w) == oracle.dense_dot(v, w)


@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 3), (3, 0), (2, 2)])
def test_apply_on_empty_and_zero_shapes(rows, cols):
    zero = Mat.zeros(rows, cols)
    v = tuple(Fraction(i + 1) for i in range(cols))
    assert zero.apply(v) == oracle.dense_apply(zero, v) == zero_vec(rows)
    assert zero.apply(zero_vec(cols)) == zero_vec(rows)
    with pytest.raises(ValueError):
        zero.apply(zero_vec(cols + 1))


def _to_fraction(x):
    return Fraction(int(x.p), int(x.q))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5),
       st.sampled_from(("sparse", "dense", "zero")), SEEDS)
def test_rank_and_kernel_match_sympy(rows, cols, kind, seed):
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    m = _random_mat(random.Random(seed), rows, cols, kind)
    dm = DomainMatrix([[QQ(x.numerator, x.denominator) for x in m.row(i)]
                       for i in range(rows)], (rows, cols), QQ)
    assert m.rank() == dm.rank()
    red, pivots = m.rref()
    dred, dpivots = dm.rref()
    assert pivots == tuple(dpivots)
    if rows:
        assert red.row_list() == [[_to_fraction(x) for x in row]
                                  for row in dred.to_Matrix().tolist()]
    null = [tuple(_to_fraction(x) for x in row)
            for row in dm.nullspace().to_Matrix().tolist()] if cols else []
    kernel = m.kernel_basis()
    assert len(kernel) == len(null) == cols - m.rank()
    assert Subspace(cols, kernel) == Subspace(cols, null)
