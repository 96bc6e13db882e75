"""The contracted identity checks against the matrix routes they replaced.

Every check here compares verdict and witness of the library with the
dense reference routes of `oracle_routes`, on seeded tables of dimension
at most 5: sparse and dense random tables, antisymmetrized ones, tables
whose entries have large, mixed denominators, tables whose nonzero
entries are all +-M with M up to 10^12 (so that the identity sums of the
predicate sweeps reach the bound their packed words are sized for), and
structured algebras (Lie algebras, left-symmetric algebras and their
phase spaces, moved by random changes of basis) on which the checks
pass.  The integer routes
of the kernel and the constructions (rref, trace forms, subspace
products, conjugation) are compared with their Fraction routes the same
way, and so is every `Subspace` a private path builds (sums,
intersections, complements, products of subspaces, symplectic
orthogonals and Lagrangian complements), against the public constructor
of the oracle's vectors.  The para-Kahler and twist certificates are
compared line by line with routes that test each eigenspace as a
`Subspace` and the twist isomorphism product by product, on
4-dimensional doubles in random bases with non-parallel involutions and
tampered metrics, and the J line of the hyper-para-Kahler certificate
with a matrix route.  The r-matrix
layer ([[r,r]], the r-induced dual product and Delta(r)) is compared with
its Fraction routes on general tables.  The products built by the one
slot contraction of `algebra._slot_sum` (the Yang-Baxter, delta and O
defects, the symplectic and Theta "circ" products, the derivation law,
the abelian test of a complex structure, the Lie triple systems and the
dual product of a Yang-Baxter solution) are compared with their
formulas evaluated on basis vectors.  Every product built from integer
cells (the arithmetic of `Algebra`, the doubles, the twist, the graded
tensor algebra and `LieTriple.compose`) must equal, hash like and read
back the table of the object the public constructor makes of its oracle
table.
"""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_routes as oracle
from lsaforge import (Bilinear, LieTriple, Mat, Subspace, a_product,
                      build_hyper, build_phase, build_quadratic_symplectic,
                      build_symp_double, build_theta_double, check,
                      coadjoint_double, cybe_double, delta_op, delta_r,
                      dual_product_from_r, flat_double,
                      is_derivation, is_invariant_form, is_two_cocycle,
                      levi_civita, lts_from_o, lts_from_yb, myb_residual,
                      nijenhuis, o_op, oeq_check, twisted_structures,
                      verify_hyper_para_kahler, verify_para_kahler, yb)
from lsaforge import catalog, doubling, phase, smatrix
from lsaforge.algebra import (INVARIANCE_TAGS, PREDICATES, Algebra,
                              _coaction, _swapped, curvature,
                              invariance_check, product_subspaces,
                              subspace_product)
from lsaforge.catalog import (_trace_form, canonical, catalog_algebras,
                              killing_form)
from lsaforge.exact import (_dual_lagrangian, dot, solve, symp_orthogonal,
                            zero_vec)
from lsaforge.smatrix import Tensor2, classify_r

VALUES = [Fraction(p, q) for p in range(-3, 4) for q in (1, 2, 3)]
# large and mixed denominators, so that common denominators matter
LARGE = [Fraction(p, q) for p in (-50, -7, -1, 1, 3, 40)
         for q in (1, 2, 7, 48, 89, 97)]
DENSITY = {"sparse": 0.15, "dense": 0.9}
SEEDS = st.integers(0, 2 ** 32 - 1)


def _entry(rng, density, values=VALUES):
    return rng.choice(values) if rng.random() < density else Fraction(0)


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


def _invertible(rng, n, values=VALUES):
    while True:
        p = Mat(n, n, [rng.choice(values) if rng.random() < 0.6 else 0
                       for _ in range(n * n)])
        if p.is_invertible():
            return p


def _moved(rng, alg, values=VALUES):
    """alg in a random basis (conjugation keeps every predicate)."""
    return alg.conjugate(_invertible(rng, alg.dim, values)) if alg.dim \
        else alg


def _algebra(kind, n, rng):
    if kind in DENSITY:
        return Algebra(_random_table(rng, n, DENSITY[kind]))
    if kind == "antisymmetrized":
        return Algebra(_random_table(rng, n, 0.5)).commutator_algebra()
    if kind == "extreme":           # every nonzero entry +-M, M up to 10^12
        m, density = rng.choice((1, 7, 2 ** 31, 10 ** 12)), rng.random()
        return Algebra([[tuple(rng.choice((m, -m)) if rng.random() < density
                               else 0 for _ in range(n)) for _ in range(n)]
                        for _ in range(n)])
    if kind == "large_denominators":
        return Algebra([[tuple(rng.choice(LARGE + VALUES)
                               if rng.random() < 0.6 else Fraction(0)
                               for _ in range(n)) for _ in range(n)]
                        for _ in range(n)])
    alg = rng.choice(_structured())
    if kind == "moved_large_denominators":
        return _moved(rng, alg, LARGE)
    return _moved(rng, alg) if kind == "moved" else alg


ALGEBRA_KINDS = ("sparse", "dense", "antisymmetrized", "large_denominators",
                 "structured", "moved", "moved_large_denominators", "extreme")
# the entries of a drawn matrix, metric or tensor
ENTRIES = {"small": VALUES, "large": LARGE}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(ALGEBRA_KINDS), st.integers(0, 5), SEEDS)
def test_predicates_match_reference_routes(kind, n, seed):
    alg = _algebra(kind, n, random.Random(seed))
    for name in PREDICATES:
        rep = check(alg, name)
        want = oracle.PREDICATES[name](alg)
        assert (rep.passed, rep.witness) == (want is None, want), name


def _vectors(rng, n):
    """A general vector with large denominators, a zero vector, a vector
    of ints and a basis vector (with int entries)."""
    i = rng.randrange(n)
    return [tuple(rng.choice(LARGE) if rng.random() < 0.7 else Fraction(0)
                  for _ in range(n)),
            zero_vec(n), tuple(rng.randint(-9, 9) for _ in range(n)),
            tuple(int(j == i) for j in range(n))]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ALGEBRA_KINDS), st.integers(0, 5), SEEDS)
def test_product_matches_reference_route(kind, n, seed):
    rng = random.Random(seed)
    alg = _algebra(kind, n, rng)
    vectors = _vectors(rng, alg.dim) if alg.dim else [()]
    for u in vectors:
        for v in vectors:
            got = alg.product(u, v)
            assert got == oracle.product(alg, u, v)
            assert all(type(x) is Fraction for x in got)


def test_basis_change_keeps_every_verdict():
    # kinds on which lie_admissible both passes and fails, each moved by
    # changes of basis with large denominators
    seen = {name: set() for name in PREDICATES}
    rng = random.Random(7)
    for kind in ("sparse", "dense", "antisymmetrized", "structured") * 6:
        alg = _algebra(kind, rng.randint(2, 5), rng)
        moved = alg.conjugate(_invertible(rng, alg.dim, LARGE))
        for name in PREDICATES:
            verdict = check(alg, name).passed
            assert check(moved, name).passed == verdict, (kind, name)
            seen[name].add(verdict)
    assert seen["lie_admissible"] == {True, False}


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
        return oracle.triple_from_function(n, lambda x, y, z: zero_vec(n))
    # [[x,y],z] on a Lie algebra is a Lie triple system
    lie = _moved(rng, rng.choice(_lie_algebras()))
    return oracle.triple_from_function(
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
    base = oracle.triple_from_function(
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


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(ENTRIES)), SEEDS)
def test_levi_civita_matches_metric_route(values, seed):
    rng = random.Random(seed)
    lie = _moved(rng, rng.choice(_lie_algebras()), ENTRIES[values])
    n = lie.dim
    while True:
        half = [[_entry(rng, 0.6, ENTRIES[values]) for _ in range(n)]
                for _ in range(n)]
        g = Mat(n, n, [half[i][j] + half[j][i] for i in range(n)
                       for j in range(n)])
        if g.is_invertible():
            break
    metric = Bilinear(g, "symmetric")
    assert levi_civita(lie, metric).table == \
        tuple(tuple(cell) for cell in oracle.levi_civita_table(lie, metric))


@settings(max_examples=30, deadline=None)
@given(SEEDS)
def test_a_product_matches_form_route(seed):
    """omega(a(u,v), w) == -omega(v, [u,w]) on basis vectors, for the
    commutator of the phase space of a left-symmetric plane (a symplectic
    Lie algebra) in a random basis with large denominators."""
    rng = random.Random(seed)
    plane = rng.choice([a for a in _planes() + (_nab_lsa(), _ab_lsa())
                        if check(a, "left_symmetric")])
    ps = build_phase(_moved(rng, plane, LARGE))
    p = _invertible(rng, 4, LARGE)
    lie = ps.extended.commutator_algebra().conjugate(p)
    omega = Bilinear(p.transpose() * ps.omega0.matrix * p, "skew")
    prod = a_product(lie, omega)
    es = [oracle._basis(4, i) for i in range(4)]
    for u, v, w in itertools.product(es, repeat=3):
        assert oracle.form_value(omega, oracle.product(prod, u, v), w) == \
            -oracle.form_value(omega, v, oracle.product(lie, u, w))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ALGEBRA_KINDS), st.integers(0, 5),
       st.sampled_from(sorted(ENTRIES)), SEEDS)
def test_nijenhuis_matches_bracket_route(kind, n, values, seed):
    rng = random.Random(seed)
    alg = _algebra(kind, n, rng)
    a = Mat(alg.dim, alg.dim, [_entry(rng, 0.5, ENTRIES[values])
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
            want = oracle.twist_triple(u, delta_r(u, r).table)
            assert tw.lts.table == want.table
            seen += 1
    assert seen


# -- the exact kernel ---------------------------------------------------------

def _random_mat(rng, rows, cols, kind, values=VALUES):
    if kind == "zero":
        return Mat.zeros(rows, cols)
    return Mat(rows, cols, [_entry(rng, DENSITY[kind], values)
                            for _ in range(rows * cols)])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5),
       st.sampled_from(("sparse", "dense", "zero")),
       st.sampled_from(("sparse", "dense", "zero")),
       st.sampled_from(sorted(ENTRIES)), SEEDS)
def test_apply_matches_dense_dot(rows, cols, mat_kind, vec_kind, values,
                                 seed):
    rng = random.Random(seed)
    m = _random_mat(rng, rows, cols, mat_kind, ENTRIES[values])
    v = zero_vec(cols) if vec_kind == "zero" else \
        tuple(_entry(rng, DENSITY[vec_kind], ENTRIES[values])
              for _ in range(cols))
    got = m.apply(v)
    assert got == oracle.dense_apply(m, v)
    assert all(type(x) is Fraction for x in got)
    w = tuple(_entry(rng, 0.5) for _ in range(cols))
    assert dot(v, w) == oracle.dense_dot(v, w)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5),
       st.sampled_from(("sparse", "dense", "zero")),
       st.sampled_from(("sparse", "dense", "zero")), SEEDS)
def test_matmul_matches_fraction_route(rows, inner, cols, left_kind,
                                       right_kind, seed):
    rng = random.Random(seed)
    a = _random_mat(rng, rows, inner, left_kind, LARGE)
    b = _random_mat(rng, inner, cols, right_kind, LARGE)
    got = a * b
    assert (got.rows, got.cols) == (rows, cols)
    want = oracle._matmul(a.row_list(), b.row_list()) if inner \
        else [[0] * cols for _ in range(rows)]
    assert got.row_list() == want
    assert all(type(x) is Fraction for x in got.data)
    with pytest.raises(ValueError):
        a * Mat.zeros(inner + 1, cols)


@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 3), (3, 0), (2, 2)])
def test_apply_on_empty_and_zero_shapes(rows, cols):
    zero = Mat.zeros(rows, cols)
    v = tuple(Fraction(i + 1) for i in range(cols))
    assert zero.apply(v) == oracle.dense_apply(zero, v) == zero_vec(rows)
    assert zero.apply(zero_vec(cols)) == zero_vec(rows)
    with pytest.raises(ValueError):
        zero.apply(zero_vec(cols + 1))


def _zero_rowed(rng, rows, cols):
    """A matrix with LARGE entries, about half of its rows zero."""
    return Mat(rows, cols, [_entry(rng, 0.7, LARGE) if live else Fraction(0)
                            for live in [rng.random() < 0.5
                                         for _ in range(rows)]
                            for _ in range(cols)])


def _assert_mat(built, rows, cols, data):
    """built equals, hashes like and reads back the data of the matrix
    the public constructor makes of the oracle entries."""
    want = Mat(rows, cols, data)
    assert built == want and hash(built) == hash(want)
    assert (built.rows, built.cols, built.data) == (rows, cols, want.data)
    assert (built._den, built._cells) == (want._den, want._cells)
    assert type(built.data) is tuple and all(
        type(x) is Fraction for x in built.data)


def _flat(rows):
    return [x for row in rows for x in row]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), SEEDS)
def test_mat_producers_store_the_public_integer_form(rows, inner, cols, seed):
    rng = random.Random(seed)
    a, b = _zero_rowed(rng, rows, inner), _zero_rowed(rng, rows, inner)
    c = _zero_rowed(rng, inner, cols)
    f = rng.choice(LARGE)
    _assert_mat(a + b, rows, inner, [x + y for x, y in zip(a.data, b.data)])
    _assert_mat(a - b, rows, inner, [x - y for x, y in zip(a.data, b.data)])
    _assert_mat(a - a, rows, inner, [0] * (rows * inner))
    _assert_mat(-a, rows, inner, [-x for x in a.data])
    for g in (f, 0, -1, 3):
        _assert_mat(a.scale(g), rows, inner, [g * x for x in a.data])
    _assert_mat(a * c, rows, cols, _flat(oracle._matmul(
        a.row_list(), c.row_list())) if inner else [0] * (rows * cols))
    _assert_mat(a.transpose(), inner, rows,
                [a[i, j] for j in range(inner) for i in range(rows)])
    _assert_mat(Mat.block([[a, b], [c.transpose(), c.transpose()]]),
                rows + cols, 2 * inner,
                _flat(p + q for p, q in zip(a.row_list() + c.transpose(
                ).row_list(), b.row_list() + c.transpose().row_list())))
    vectors = [a.row(i) for i in range(rows)]
    height = inner if rows else 0       # no columns make a 0 x 0 matrix
    _assert_mat(Mat.from_cols(vectors), height, rows,
                [v[i] for i in range(height) for v in vectors])
    red, pivots = a.rref()
    want, want_pivots = oracle.rref(a)
    assert pivots == want_pivots
    _assert_mat(red, rows, inner, _flat(want))
    _assert_mat(Mat.identity(rows), rows, rows,
                [int(i == j) for i in range(rows) for j in range(rows)])
    _assert_mat(Mat.zeros(rows, cols), rows, cols, [0] * (rows * cols))
    p = _invertible(rng, rows, LARGE)
    aug, _ = oracle.rref(Mat.from_rows([
        list(p.row(i)) + [int(i == j) for j in range(rows)]
        for i in range(rows)]))
    _assert_mat(p.inverse(), rows, rows, _flat(row[rows:] for row in aug))
    alg = _algebra("large_denominators", rows, rng)
    for i, lm in enumerate(alg.left_mults()):
        _assert_mat(lm, rows, rows, _flat(oracle.left_mult(
            alg, tuple(int(j == i) for j in range(rows)))))


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


def _rational_mat(rng, rows, cols, density):
    return Mat(rows, cols, [
        Fraction(rng.randint(-99, 99), rng.randint(1, 97))
        if rng.random() < density else 0 for _ in range(rows * cols)])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7),
       st.sampled_from(("sparse", "dense", "rank_deficient")), SEEDS)
def test_rref_matches_fraction_route(rows, cols, kind, seed):
    rng = random.Random(seed)
    if kind == "rank_deficient" and rows and cols:
        # rows that are combinations of two, so that rows cancel
        base = _rational_mat(rng, 2, cols, 0.8)
        m = Mat.from_rows([[rng.choice(LARGE) * a + rng.choice(VALUES) * b
                            for a, b in zip(base.row(0), base.row(1))]
                           for _ in range(rows)])
    else:
        m = _rational_mat(rng, rows, cols, 0.25 if kind == "sparse" else 0.9)
    red, pivots = m.rref()
    want_rows, want_pivots = oracle.rref(m)
    assert pivots == want_pivots
    assert (red.rows, red.cols) == (rows, cols)
    assert red.row_list() == want_rows


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ALGEBRA_KINDS), st.integers(0, 5), SEEDS)
def test_trace_forms_match_matrix_route(kind, n, seed):
    alg = _algebra(kind, n, random.Random(seed))
    left, right = oracle.trace_forms(alg)
    assert _trace_form(alg, "left").row_list() == left
    assert _trace_form(alg, "right").row_list() == right


@pytest.mark.parametrize("make", [_aff, _heis, _sl2])
def test_killing_form_matches_matrix_route(make):
    lie = _moved(random.Random(5), make(), LARGE)
    assert killing_form(lie).matrix.row_list() == \
        oracle.trace_forms(lie)[0]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ALGEBRA_KINDS), st.integers(0, 5),
       st.sampled_from(("small", "large")), SEEDS)
def test_conjugate_matches_product_route(kind, n, values, seed):
    rng = random.Random(seed)
    alg = _algebra(kind, n, rng)
    if not alg.dim:
        return
    p = _invertible(rng, alg.dim, LARGE if values == "large" else VALUES)
    assert alg.conjugate(p).table == \
        tuple(tuple(cell) for cell in oracle.conjugate_table(alg, p))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ALGEBRA_KINDS), st.integers(1, 5), SEEDS)
def test_subspace_product_matches_product_route(kind, n, seed):
    rng = random.Random(seed)
    alg = _algebra(kind, n, rng)
    n = alg.dim
    s, t = (Subspace(n, [[rng.choice(LARGE) if rng.random() < 0.6 else 0
                          for _ in range(n)]
                         for _ in range(rng.randint(0, n))])
            for _ in range(2))
    assert subspace_product(alg, s, t) == Subspace(
        n, [oracle.product(alg, a, b) for a in s.basis for b in t.basis])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), SEEDS)
def test_subspace_of_ints_matches_fraction_route(n, count, seed):
    rng = random.Random(seed)
    ints = [[rng.randint(-9, 9) if rng.random() < 0.6 else 0
             for _ in range(n)] for _ in range(count)]
    # rows that mix ints with large-denominator Fractions
    mixed = [[rng.choice(LARGE) if rng.random() < 0.3 else x for x in v]
             for v in ints]
    for vectors in (ints, mixed):
        fractions = [[Fraction(x) for x in v] for v in vectors]
        space = Subspace(n, vectors)
        assert space == Subspace(n, fractions)
        want = oracle.rref(Mat.from_rows(fractions))[0] if vectors else []
        assert [list(b) for b in space.basis] == [r for r in want if any(r)]


def _spanning(rng, n, count):
    """count vectors of Q^n with large-denominator entries, zero rows
    among them."""
    return [[rng.choice(LARGE) if rng.random() < 0.6 else 0 for _ in range(n)]
            if rng.random() < 0.8 else [0] * n for _ in range(count)]


def _assert_span(built, vectors):
    """built equals, hashes like and has the basis of the Subspace the
    public constructor makes of the oracle's vectors, and stores the
    least common denominator D of the Fraction rref and D times its
    rows."""
    want = Subspace(built.ambient, vectors)
    assert type(built) is Subspace
    assert built == want and hash(built) == hash(want)
    assert built.basis == want.basis
    rows = [r for r in oracle.rref(Mat.from_rows(vectors))[0] if any(r)] \
        if vectors else []
    den = math.lcm(*(x.denominator for r in rows for x in r))
    assert (built._den, built._cells) == (den, tuple(
        tuple((k, int(x * den)) for k, x in enumerate(r) if x) for r in rows))
    for attr in ("ambient", "basis", "_den", "_cells"):
        with pytest.raises(AttributeError):
            setattr(built, attr, None)


def _symplectic_case(rng):
    """(G, Q): the Gram matrix G = P^T J P of a random skew form on Q^2h,
    J the standard one, and Q = P^-1, whose columns q_i are a symplectic
    basis: omega(q_i, q_(h+i)) = 1, every other pairing 0."""
    h = rng.choice((1, 2))
    j = Mat(2 * h, 2 * h, [(i < h and k == i + h) - (i >= h and k == i - h)
                           for i in range(2 * h) for k in range(2 * h)])
    p = _invertible(rng, 2 * h, LARGE)
    return p.transpose() * j * p, p.inverse()


def _mixed(rng, vectors):
    """A random basis of the span of the independent vectors."""
    m = _invertible(rng, len(vectors), LARGE)
    return [tuple(sum((m[i, k] * v[c] for k, v in enumerate(vectors)),
                      Fraction(0)) for c in range(len(vectors[0])))
            for i in range(len(vectors))]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), SEEDS)
def test_subspace_routes_match_fraction_routes(n, seed):
    rng = random.Random(seed)
    s, t = (Subspace(n, _spanning(rng, n, rng.randint(0, n)))
            for _ in range(2))
    both = s.add(t)
    _assert_span(both, list(s.basis) + list(t.basis))
    _assert_span(s.intersect(t), oracle.intersect(s, t))
    _assert_span(s.complement_in(both), oracle.complement_in(s, both))
    if not t.contains_space(s):
        with pytest.raises(ValueError, match="requires self <= other"):
            s.complement_in(t)
    assert both.contains_space(s) and both.contains_space(t)
    assert s.contains_space(both) == (s == both)
    alg = _algebra(rng.choice(("sparse", "dense", "large_denominators")), n,
                   rng)
    _assert_span(subspace_product(alg, s, t), [
        oracle.product(alg, a, b) for a in s.basis for b in t.basis])
    subs, want = product_subspaces(alg), oracle.product_subspaces(alg)
    for key in ("UU", "DUU", "SUU"):
        _assert_span(subs[key], want[key])
    for built, vectors in zip(subs["powers"], want["powers"]):
        _assert_span(built, vectors)
    gram, q = _symplectic_case(rng)
    m, h = gram.rows, gram.rows // 2
    u = Subspace(m, _spanning(rng, m, rng.randint(0, m)))
    _assert_span(symp_orthogonal(gram, u), oracle.symp_orthogonal(gram, u))
    lag = Subspace(m, _mixed(rng, [q.col(i) for i in range(h)]) + [[0] * m])
    comp = _dual_lagrangian(gram, lag.matrix(), Mat.identity(m))
    _assert_span(Subspace(m, [comp.row(j) for j in range(h)]),
                 oracle.lagrangian_complement(gram, lag))
    k = rng.randint(1, h)
    ambient = _mixed(rng, [q.col(i) for i in range(k)]
                     + [q.col(h + i) for i in range(k)])
    iso = _mixed(rng, [q.col(i) for i in range(k)])
    dual = _dual_lagrangian(gram, Mat.from_rows(iso), Mat.from_rows(ambient))
    assert [dual.row(j) for j in range(k)] \
        == oracle.dual_lagrangian(gram, iso, ambient)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), SEEDS)
def test_solve_matches_fraction_route(rows, cols, seed):
    """solve reads its particular solution off the reduced integer rows of
    [A | b] and its kernel off the integer kernel cells: the values of
    the Fraction rref, for consistent and inconsistent systems."""
    rng = random.Random(seed)
    m = Mat(rows, cols, [_entry(rng, 0.6, LARGE) for _ in range(rows * cols)])
    rhs = m.apply([_entry(rng, 0.8, LARGE) for _ in range(cols)]) \
        if rng.random() < 0.5 else [_entry(rng, 0.8, LARGE)
                                    for _ in range(rows)]
    x, kernel = solve(m, rhs)
    want, vectors = oracle.solve(m, list(rhs))
    assert x == want
    _assert_span(kernel, vectors)


# -- tensor invariance and the 1-cocycle law ----------------------------------

def _random_tensor(rng, n, order, density):
    """A Mat (order 2) or an Algebra (order 3) of random entries."""
    if order == 2:
        return Mat(n, n, [_entry(rng, density, LARGE) for _ in range(n * n)])
    return Algebra([[[_entry(rng, density, LARGE) for _ in range(n)]
                     for _ in range(n)] for _ in range(n)])


def _invariance_case(kind, n, reps, rng):
    """(tensor, reps, algebra): a random tensor with large-denominator
    entries, or one that is invariant, in a basis with large
    denominators: the identity under a tag and its dual, the bracket
    tensor of a Lie algebra under (ad_dual, ad_dual, ad) (the Jacobi
    identity), or the table of a left-symmetric algebra under (ad_dual,
    L_dual, L) (L_[x,y] = [L_x, L_y]), whose L and ad matrices have
    different denominators."""
    if kind == "identity":
        alg = _algebra("moved_large_denominators", n, rng)
        tag = reps[0].replace("_dual", "")
        pair = [tag, tag + "_dual"]
        rng.shuffle(pair)
        return Mat.identity(alg.dim), tuple(pair), alg
    if kind == "bracket":
        lie = _moved(rng, rng.choice(_lie_algebras()), LARGE)
        return lie, ("ad_dual", "ad_dual", "ad"), lie
    if kind == "left_symmetric":
        lsa = _moved(rng, rng.choice([a for a in _structured()
                                      if check(a, "left_symmetric")]), LARGE)
        return lsa, ("ad_dual", "L_dual", "L"), lsa
    alg = _algebra(rng.choice(ALGEBRA_KINDS), n, rng)
    density = {"zero": 0.0, "sparse": 0.2, "dense": 0.9}[kind]
    return _random_tensor(rng, alg.dim, len(reps), density), reps, alg


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(("zero", "sparse", "dense", "identity", "bracket",
                        "left_symmetric")),
       st.integers(1, 4),
       st.lists(st.sampled_from(INVARIANCE_TAGS), min_size=2, max_size=3),
       SEEDS)
def test_invariance_check_matches_fraction_route(kind, n, reps, seed):
    tensor, reps, alg = _invariance_case(kind, n, tuple(reps),
                                         random.Random(seed))
    rep = invariance_check(tensor, reps, alg)
    assert (rep.passed, rep.witness) == \
        oracle.invariance_check(tensor, reps, alg)


def test_invariance_cases_reach_both_verdicts_for_every_tag():
    rng = random.Random(3)
    seen = {tag: set() for tag in INVARIANCE_TAGS}
    for kind in ("sparse", "dense", "identity", "bracket",
                 "left_symmetric") * 8:
        reps = tuple(rng.choice(INVARIANCE_TAGS)
                     for _ in range(rng.randint(2, 3)))
        tensor, reps, alg = _invariance_case(kind, rng.randint(2, 4), reps,
                                             rng)
        want = oracle.invariance_check(tensor, reps, alg)
        rep = invariance_check(tensor, reps, alg)
        assert (rep.passed, rep.witness) == want
        for tag in reps:
            seen[tag].add(rep.passed)
    assert all(verdicts == {True, False} for verdicts in seen.values()), seen


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ALGEBRA_KINDS), st.sampled_from(ALGEBRA_KINDS),
       st.integers(0, 4), SEEDS)
def test_cocycle_witness_matches_fraction_route(kind, other_kind, n, seed):
    rng = random.Random(seed)
    alg = _algebra(kind, n, rng)
    other = _algebra(other_kind, alg.dim, rng)
    if other.dim != alg.dim:            # structured kinds pick their own
        other = Algebra.zero(alg.dim)
    assert phase._cocycle_witness(alg, other) == \
        oracle.cocycle_witness(alg, other)
    assert phase._cocycle_witness(alg, Algebra.zero(alg.dim)) == \
        oracle.cocycle_witness(alg, Algebra.zero(alg.dim))


def test_cocycle_witness_matches_fraction_route_on_left_symmetric_pairs():
    # pairs of left-symmetric algebras, on some of which the law holds
    # with a nonzero dual product
    lsas = [a for a in _structured() if check(a, "left_symmetric")]
    holds = 0
    for alg in lsas:
        for other in lsas:
            if other.dim == alg.dim:
                want = oracle.cocycle_witness(alg, other)
                assert phase._cocycle_witness(alg, other) == want
                holds += want is None and not other.is_zero()
    assert holds


def test_left_symmetric_tables_are_invariant_in_large_denominator_bases():
    # L_[x,y] = [L_x, L_y] read as invariance; the L and ad matrices of a
    # moved algebra often have denominators neither of which divides the
    # other, so the slots must be put over their least common multiple
    rng = random.Random(0)
    for alg in [a for a in _structured() if check(a, "left_symmetric")] * 5:
        lsa = _moved(rng, alg, LARGE)
        reps = ("ad_dual", "L_dual", "L")
        rep = invariance_check(lsa, reps, lsa)
        assert rep.passed and oracle.invariance_check(lsa, reps, lsa) == \
            (True, None)


# -- certificates ---------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _planes():
    return tuple(e.alg for e in catalog_algebras() if e.alg.dim == 2)


def _quasi_s(rng, u):
    """A nonzero quasi-S r on u from a few random draws, else zero."""
    n = u.dim
    for _ in range(20):
        r = Mat(n, n, [_entry(rng, rng.choice((0.2, 0.5)))
                       for _ in range(n * n)])
        if not r.is_zero() and classify_r(u, r).is_quasi_s:
            return r
    return Mat.zeros(n, n)


@functools.lru_cache(maxsize=None)
def _route_double(source, hyper=False):
    """The Double of a doubling route on the smallest input that the
    construction tests certify (dims 4 to 8)."""
    if source == "flat":
        q = build_quadratic_symplectic(_aff(), 1)
        return flat_double(q.lie, q.metric)
    if source == "cybe":
        return cybe_double(_heis(), Mat.from_rows(
            [[0, 0, 1], [0, 0, 0], [-1, 0, 0]]), Mat.zeros(3, 3))
    if source == "symp":
        return build_symp_double(Algebra.zero(2), _omega2(), Mat.identity(2))
    return build_theta_double(_ab_lsa(), _omega2(), Mat.identity(2), hyper)


def _para_kahler_triple(source, rng):
    """A para-Kahler (bracket, metric, K): the 4-dimensional double of a
    catalog plane in a random basis, as its phase space or its twist by a
    quasi-S r, or the Double of a doubling route."""
    if source not in ("phase", "twist"):
        d = _route_double(source)
        return d.bracket, d.metric, d.k
    u = _moved(rng, rng.choice(_planes()))
    if source == "phase":
        ps = build_phase(u)
        return ps.extended.commutator_algebra(), ps.pairing0, ps.k0
    tw = twisted_structures(u, _quasi_s(rng, u))
    return tw.twisted, tw.metric_r, tw.k_r


def _commuting(rng, k):
    """An invertible matrix commuting with the involution k: random
    blocks on its two eigenspaces."""
    n = k.rows
    plus = (k - Mat.identity(n)).kernel_basis()
    minus = (k + Mat.identity(n)).kernel_basis()
    p = Mat.from_cols(plus + minus)
    blocks = Mat.block([
        [_invertible(rng, len(plus)), Mat.zeros(len(plus), len(minus))],
        [Mat.zeros(len(minus), len(plus)), _invertible(rng, len(minus))]])
    return p * blocks * p.inverse()


def _tampered(kind, triple, rng):
    lie, metric, k = triple
    n = lie.dim
    if kind == "moved":
        p = _invertible(rng, n)
        return (lie.conjugate(p),
                Bilinear(p.transpose() * metric.matrix * p, "symmetric"),
                p.inverse() * k * p)
    if kind == "non_parallel_k":          # an involution, moved
        p = _invertible(rng, n)
        return lie, metric, p * k * p.inverse()
    if kind == "skew_metric":             # K stays skew for the new metric
        a = _commuting(rng, k)
        return lie, Bilinear(a.transpose() * metric.matrix * a,
                             "symmetric"), k
    if kind == "random_metric":
        half = Mat(n, n, [_entry(rng, 0.5) for _ in range(n * n)])
        return lie, Bilinear(half + half.transpose(), "symmetric"), k
    if kind == "not_lie":
        return Algebra(_random_table(rng, n, 0.3)).commutator_algebra(), \
            metric, k
    return triple


CERT_SOURCES = ("phase", "twist", "flat", "cybe", "symp", "theta")
CERT_KINDS = ("as_built", "moved", "non_parallel_k", "skew_metric",
              "random_metric", "not_lie")


def _lines(cert):
    return [(r.name, r.passed, r.witness) for r in cert.reports]


@settings(max_examples=24, deadline=None)
@given(st.sampled_from(CERT_SOURCES), st.sampled_from(CERT_KINDS), SEEDS)
def test_para_kahler_certificate_matches_subspace_route(source, kind, seed):
    rng = random.Random(seed)
    lie, metric, k = _tampered(kind, _para_kahler_triple(source, rng), rng)
    assert _lines(verify_para_kahler(lie, metric, k)) == \
        oracle.para_kahler_reports(lie, metric, k)


def _xi_candidate(kind, tw, rng):
    n = tw.xi.rows
    if kind == "identity":
        return Mat.identity(n)
    if kind == "scaled":
        return tw.xi.scale(2)
    if kind == "random":                  # sometimes singular
        return Mat(n, n, [_entry(rng, 0.4) for _ in range(n * n)])
    return tw.xi


XI_KINDS = ("as_built", "identity", "scaled", "random")


@settings(max_examples=16, deadline=None)
@given(st.sampled_from(XI_KINDS), SEEDS)
def test_twist_certificate_matches_product_route(xi_kind, seed):
    rng = random.Random(seed)
    u = _moved(rng, rng.choice(_planes()))
    tw = twisted_structures(u, _quasi_s(rng, u))
    assert _lines(tw.cert) == oracle.twist_reports(tw)
    xi = _xi_candidate(xi_kind, tw, rng)
    rep = smatrix._xi_report(tw.twisted, tw.bracket_r, xi)
    assert (rep.passed, rep.witness) == \
        oracle.xi_isomorphism(tw.twisted, tw.bracket_r, xi)


def test_xi_report_neither_conjugates_nor_inverts(monkeypatch):
    # xi [x,y] is compared with [xi x, xi y] directly, so the certificate
    # line needs neither the moved bracket nor the inverse of xi
    rng = random.Random(7)
    cases = []
    for kind in XI_KINDS * 2:
        u = _moved(rng, rng.choice(_planes()))
        tw = twisted_structures(u, _quasi_s(rng, u))
        cases.append((tw, _xi_candidate(kind, tw, rng)))

    def refuse(*args):
        raise AssertionError("the xi line conjugated or inverted")
    monkeypatch.setattr(Algebra, "conjugate", refuse)
    monkeypatch.setattr(Mat, "inverse", refuse)
    reps = [smatrix._xi_report(tw.twisted, tw.bracket_r, xi)
            for tw, xi in cases]
    monkeypatch.undo()
    for rep, (tw, xi) in zip(reps, cases):
        assert (rep.passed, rep.witness) == \
            oracle.xi_isomorphism(tw.twisted, tw.bracket_r, xi)
    assert {rep.passed for rep in reps} == {True, False}


def test_certificate_cases_reach_both_verdicts():
    lines = ["omega_cocycle"] + [
        law + "_" + sign for sign in ("plus", "minus")
        for law in ("subalgebra", "isotropic", "lagrangian", "lc_stable")]
    seen = {name: set() for name in lines + ["xi_isomorphism"]}
    rng = random.Random(5)
    for source in CERT_SOURCES:
        for kind in CERT_KINDS * 2:
            lie, metric, k = _tampered(kind, _para_kahler_triple(source, rng),
                                       rng)
            got = _lines(verify_para_kahler(lie, metric, k))
            assert got == oracle.para_kahler_reports(lie, metric, k)
            for name, passed, _ in got:
                seen.get(name, set()).add(passed)
    for kind in XI_KINDS * 2:
        u = _moved(rng, rng.choice(_planes()))
        tw = twisted_structures(u, _quasi_s(rng, u))
        xi = _xi_candidate(kind, tw, rng)
        rep = smatrix._xi_report(tw.twisted, tw.bracket_r, xi)
        assert (rep.passed, rep.witness) == \
            oracle.xi_isomorphism(tw.twisted, tw.bracket_r, xi)
        seen["xi_isomorphism"].add(rep.passed)
    assert all(verdicts == {True, False} for verdicts in seen.values()), seen


@functools.lru_cache(maxsize=None)
def _hyper_triples():
    """(bracket, metric, K, J) of the hyper-para-Kahler doubles of the
    self-double of the nonabelian plane and of both compatible families,
    and of the hyper Theta double."""
    omega = Bilinear(Mat.from_rows([[0, 1], [-1, 0]]), "skew")
    nab = canonical("dim2_nonabelian", {"a": 1})["alg"]
    pairs = [(nab, nab, omega)] + [
        (p["bullet"], p["circ"], p["omega"]) for p in (
            canonical("compat_family1", {"a": 1, "b": 1}),
            canonical("compat_family2", {"a": 1, "b": 1, "c": 2}))]
    out = []
    for bullet, circ, form in pairs:
        data = build_hyper(bullet, circ, form)
        out.append((data.bracket, data.metric, data.k, data.j))
    d = _route_double("theta", hyper=True)
    return tuple(out) + ((d.bracket, d.metric, d.k, d.j),)


J_KINDS = ("as_built", "moved", "negated", "non_parallel_j")


def _hyper_case(kind, triple, rng):
    lie, metric, k, j = triple
    n = lie.dim
    if kind == "moved":                   # the whole structure, still PASS
        p = _invertible(rng, n, LARGE)
        q = p.inverse()
        return (lie.conjugate(p),
                Bilinear(p.transpose() * metric.matrix * p, "symmetric"),
                q * k * p, q * j * p)
    if kind == "negated":
        return lie, metric, k, -j
    if kind == "non_parallel_j":          # a complex structure, moved
        p = _invertible(rng, n)
        return lie, metric, k, p * j * p.inverse()
    return triple


def test_parallel_j_matches_matrix_route_and_reaches_both_verdicts():
    rng = random.Random(3)
    seen = set()
    for kind in J_KINDS:
        for triple in _hyper_triples():
            lie, metric, k, j = _hyper_case(kind, triple, rng)
            rep = verify_hyper_para_kahler(lie, metric, k, j).reports[-1]
            assert rep.name == "parallel_j"
            want = oracle.parallel_witness(lie, metric, j)
            assert (rep.passed, rep.witness) == (want is None, want)
            seen.add(rep.passed)
    assert seen == {True, False}


# -- the r-matrix layer ------------------------------------------------------

R_KINDS = ("zero", "sparse", "dense", "symmetric", "skew")


def _r_matrix(kind, n, rng):
    """R with entries from LARGE: zero, sparse or dense (not symmetric in
    general), or the symmetric or skew part of a dense draw."""
    if kind == "zero":
        return Mat.zeros(n, n)
    m = Mat(n, n, [_entry(rng, 0.2 if kind == "sparse" else 0.9, LARGE)
                   for _ in range(n * n)])
    if kind == "symmetric":
        return m + m.transpose()
    return m - m.transpose() if kind == "skew" else m


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(ALGEBRA_KINDS), st.integers(0, 5),
       st.sampled_from(R_KINDS), SEEDS)
def test_r_matrix_layer_matches_fraction_routes(kind, n, r_kind, seed):
    rng = random.Random(seed)
    alg = _algebra(kind, n, rng)
    rm = _r_matrix(r_kind, alg.dim, rng)
    assert smatrix.rr_bracket(alg, rm) == oracle.rr_bracket(alg, rm)
    assert dual_product_from_r(alg, rm).table == \
        oracle.dual_product_table(alg, rm)
    assert delta_r(alg, rm).table == oracle.delta_table(alg, rm)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(("zero", "sparse", "dense", "skew")), SEEDS)
def test_coadjoint_rr_matches_fraction_route(r_kind, seed):
    rng = random.Random(seed)
    lie = _moved(rng, rng.choice(_lie_algebras()), LARGE)
    rm = _r_matrix(r_kind, lie.dim, rng)
    rm = rm - rm.transpose()              # coadjoint_double takes a skew r
    assert coadjoint_double(lie, rm).rr.table == \
        oracle.coadjoint_rr_table(lie, rm)


# -- derived products: the slot contraction against the formulas -------------

ENDO_KINDS = ("zero", "sparse", "dense", "scalar", "inner")


def _endo(rng, alg, kind):
    """An endomorphism of alg with large-denominator entries: zero,
    random, a multiple of the identity or a left multiplication (ad for a
    Lie algebra, so a derivation)."""
    n = alg.dim
    if kind == "scalar":
        return Mat.identity(n).scale(rng.choice(LARGE))
    if kind == "inner":
        return alg.left_mult([rng.choice(LARGE) for _ in range(n)])
    return _random_mat(rng, n, n, kind, LARGE)


def _nondegenerate(rng, n, kind):
    for _ in range(100):
        if kind == "skew":
            form = _skew_form(rng, n)
        else:
            half = Mat(n, n, [_entry(rng, 0.6, LARGE) for _ in range(n * n)])
            form = Bilinear(half + half.transpose(), "symmetric")
        if form.is_nondegenerate():
            return form
    return Bilinear(Mat.identity(n), "symmetric")


def _holds(bilinear_table, reps, alg):
    return oracle.invariance_check(oracle._on(bilinear_table), reps, alg)[0]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ALGEBRA_KINDS), st.integers(1, 4),
       st.sampled_from(ENDO_KINDS), SEEDS)
def test_derived_products_match_formula_routes(kind, n, a_kind, seed):
    rng = random.Random(seed)
    alg = _algebra(kind, n, rng)
    a = _endo(rng, alg, a_kind)
    assert delta_op(a, alg).table == oracle.delta_op_table(a, alg)
    o_tab = oracle.o_op_table(a, alg)
    assert o_op(a, alg).table == o_tab
    diff = _random_mat(rng, alg.dim, alg.dim, "dense", LARGE)
    assert doubling._symp_circ(alg, a, diff).table == \
        oracle.symp_circ_table(alg, a, diff)
    want = oracle.derivation_witness(a, alg)
    rep = is_derivation(a, alg)
    assert (rep.passed, rep.witness) == (want is None, want)
    assert oeq_check(a, alg).passed and oracle.oeq_witness(a, alg) is None
    other = _algebra(rng.choice(ALGEBRA_KINDS), alg.dim, rng)
    if other.dim == alg.dim:
        assert LieTriple.compose(other, alg).table == \
            oracle.composed_triple(other.table, alg).table
    if _holds(o_tab, ("L_dual", "L_dual", "ad"), alg):
        assert lts_from_o(alg, a).table == \
            oracle.composed_triple(o_tab, alg).table
    else:
        with pytest.raises(ValueError, match="precondition"):
            lts_from_o(alg, a)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ENDO_KINDS), st.booleans(), SEEDS)
def test_lie_defects_match_formula_routes(a_kind, para, seed):
    rng = random.Random(seed)
    lie = _moved(rng, rng.choice(_lie_algebras()), LARGE)
    a = _endo(rng, lie, a_kind)
    yb_tab = oracle.yb_table(a, lie)
    assert yb(a, lie).table == yb_tab
    t = a[0, 0] ** 2 if rng.random() < 0.5 else rng.choice(VALUES)
    want = oracle.myb_witness(a, lie, t)
    rep = myb_residual(a, lie, t)
    assert (rep.passed, rep.witness) == (want is None, want)
    for s in (a, Mat.identity(lie.dim), -Mat.identity(lie.dim)):
        assert doubling._abelian_witness(lie, s, para) == \
            oracle.abelian_witness(lie, s, para)
    if _holds(yb_tab, ("ad_dual", "ad_dual", "ad"), lie):
        assert lts_from_yb(lie, a).table == \
            oracle.composed_triple(yb_tab, lie).table
    else:
        with pytest.raises(ValueError, match="precondition"):
            lts_from_yb(lie, a)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ALGEBRA_KINDS), st.integers(1, 4),
       st.sampled_from(("skew", "symmetric")),
       st.sampled_from(ENDO_KINDS), SEEDS)
def test_theta_circ_matches_formula_route(kind, n, theta_kind, a_kind, seed):
    rng = random.Random(seed)
    alg = _algebra(kind, n, rng)
    if theta_kind == "skew" and alg.dim % 2:   # no nondegenerate skew form
        alg = _algebra(kind, 2 * rng.randint(1, 2), rng)
        if alg.dim % 2:
            alg = _algebra("dense", 2, rng)
    theta = _nondegenerate(rng, alg.dim, theta_kind)
    a = _endo(rng, alg, a_kind)
    assert doubling.theta_circ_product(alg, theta, a).table == \
        oracle.theta_circ_table(alg, theta, a)


def _yang_baxter_case(rng, kind):
    """(lie, b): a skew solution of the classical Yang-Baxter equation in
    a basis with large denominators: any skew b on a Lie algebra of
    dimension 2, or x ^ y for commuting x, y of aff + aff."""
    if rng.random() < 0.5:
        lie = rng.choice([_aff(), Algebra.zero(2)])
        b = _random_mat(rng, 2, 2, kind, LARGE)
    else:
        lie = _direct_sum(_aff(), _aff())
        c = rng.choice(LARGE) if kind != "zero" else Fraction(0)
        b = Mat.from_rows([[c if (i, j) == (0, 2) else -c if (i, j) == (2, 0)
                            else 0 for j in range(4)] for i in range(4)])
    b = b - b.transpose()
    p = _invertible(rng, lie.dim, LARGE)
    q = p.inverse()
    return lie.conjugate(p), q * b * q.transpose()


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(("zero", "sparse", "dense")), SEEDS)
def test_cybe_dual_product_matches_formula_route(kind, seed):
    lie, b = _yang_baxter_case(random.Random(seed), kind)
    data = cybe_double(lie, b, Mat.zeros(lie.dim, lie.dim))
    assert data.cert.passed
    assert data.parts["dual_product"].table == oracle.cybe_dual_product_table(lie, b)


def test_derived_checks_reach_both_verdicts(monkeypatch):
    rng = random.Random(4)
    seen = {name: set() for name in ("is_derivation", "myb_residual",
                                     "oeq_check", "abelian_witness")}
    for lie in _lie_algebras()[:6]:
        lie = _moved(rng, lie, LARGE)
        for para in (False, True):
            want = oracle.abelian_witness(lie, Mat.identity(lie.dim), para)
            assert doubling._abelian_witness(lie, Mat.identity(lie.dim),
                                             para) == want
            seen["abelian_witness"].add(want is None)
        for a_kind in ("inner", "dense"):
            a = _endo(rng, lie, a_kind)
            want = oracle.derivation_witness(a, lie)
            rep = is_derivation(a, lie)
            assert (rep.passed, rep.witness) == (want is None, want)
            seen["is_derivation"].add(rep.passed)
        a = _endo(rng, lie, "scalar")
        for t in (a[0, 0] ** 2, a[0, 0]):
            want = oracle.myb_witness(a, lie, t)
            rep = myb_residual(a, lie, t)
            assert (rep.passed, rep.witness) == (want is None, want)
            seen["myb_residual"].add(rep.passed)
    # a torsion off by one entry of one basis pair breaks the identity
    torsion = doubling.nijenhuis
    for alg in _structured()[:8]:
        n = alg.dim
        a = _endo(rng, alg, "dense")
        i, j = rng.randrange(n), rng.randrange(n)
        tamper = [[[Fraction(int((p, q, k) == (i, j, 0))) for k in range(n)]
                   for q in range(n)] for p in range(n)]
        for bad in (None, tamper):
            monkeypatch.setattr(doubling, "nijenhuis", torsion if bad is None
                                else lambda a, br: torsion(a, br).add(
                                    Algebra(bad)))
            want = oracle.oeq_witness(a, alg, bad)
            rep = oeq_check(a, alg)
            assert (rep.passed, rep.witness) == (want is None, want)
            seen["oeq_check"].add(rep.passed)
    assert all(v == {True, False} for v in seen.values()), seen


def _omega2():
    return Bilinear(Mat.from_rows([[0, 1], [-1, 0]]), "skew")


SHAPE_CALLERS = {
    "conjugate": lambda m: _aff().conjugate(m),
    "is_derivation": lambda m: is_derivation(m, _aff()),
    "yb": lambda m: yb(m, _aff()),
    "delta_op": lambda m: delta_op(m, _nab_lsa()),
    "o_op": lambda m: o_op(m, _nab_lsa()),
    "symp_circ": lambda m: doubling._symp_circ(_nab_lsa(), m, m),
    "build_symp_double": lambda m: build_symp_double(Algebra.zero(2),
                                                     _omega2(), m),
    "theta_circ_skew": lambda m: doubling.theta_circ_product(
        _ab_lsa(), _omega2(), m),
    "theta_circ_symmetric": lambda m: doubling.theta_circ_product(
        _ab_lsa(), Bilinear(Mat.identity(2), "symmetric"), m),
    "build_theta_double": lambda m: build_theta_double(_ab_lsa(), _omega2(),
                                                       m),
    "abelian_witness": lambda m: doubling._abelian_witness(_aff(), m),
    "oeq_check": lambda m: oeq_check(m, _nab_lsa()),
    "myb_residual": lambda m: myb_residual(m, _aff(), 1),
    "cybe_double": lambda m: cybe_double(_aff(), m, Mat.zeros(2, 2)),
    "lts_from_yb": lambda m: lts_from_yb(_aff(), m),
    "lts_from_o": lambda m: lts_from_o(_nab_lsa(), m),
    "twisted_structures": lambda m: twisted_structures(_nab_lsa(), m),
}


@pytest.mark.parametrize("size", [1, 3])
@pytest.mark.parametrize("caller", sorted(SHAPE_CALLERS))
def test_wrong_size_matrix_is_rejected(caller, size):
    m = Mat.identity(size)
    with pytest.raises(ValueError,
                       match="shape mismatch|invertible of matching size"):
        SHAPE_CALLERS[caller](m)


# -- the stored integer form ------------------------------------------------------

def _fraction_tuples(table, depth):
    """Whether table is nested tuples, depth deep, of Fractions."""
    if depth == 0:
        return type(table) is Fraction
    return type(table) is tuple and all(_fraction_tuples(item, depth - 1)
                                        for item in table)


def _assert_stored(built, want):
    """built equals, hashes like and has the table of `want`, the object
    the public constructor makes of an oracle table (or that table):
    an immutable tuple of tuples of Fraction cells."""
    if not isinstance(want, (Algebra, LieTriple)):
        want = type(built)(want)
    assert type(built) is type(want)
    assert built == want and hash(built) == hash(want)
    assert (built._den, built._cells) == (want._den, want._cells)
    assert built.table == want.table
    assert _fraction_tuples(built.table, 4 if type(built) is LieTriple else 3)
    for attr in ("dim", "table", "_den", "_cells"):
        with pytest.raises(AttributeError):
            setattr(built, attr, None)


def _lie_and_metric(rng):
    lie = _moved(rng, rng.choice(_lie_algebras()[:3]), LARGE)
    return lie, _nondegenerate(rng, lie.dim, "symmetric")


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(ALGEBRA_KINDS), st.integers(1, 3), SEEDS)
def test_producers_store_the_public_integer_form(kind, n, seed):
    rng = random.Random(seed)
    alg = _algebra(kind, n, rng)
    n = alg.dim
    other = _algebra("large_denominators", n, rng)
    c = rng.choice(LARGE)
    a = _random_mat(rng, n, n, "dense", LARGE)
    p = _invertible(rng, n, LARGE)
    rm = _random_mat(rng, n, n, rng.choice(("sparse", "dense")), LARGE)
    _assert_stored(alg.commutator_algebra(), oracle.commutator_table(alg))
    _assert_stored(_swapped(alg), oracle.swapped_table(alg))
    for sign in (1, -1):
        _assert_stored(_coaction(alg, sign), oracle.coaction_table(alg, sign))
    for f in (c, Fraction(0), Fraction(-1)):
        _assert_stored(alg.scale(f), [[tuple(f * x for x in cell)
                                       for cell in row] for row in alg.table])
    _assert_stored(alg.add(other), [[tuple(x + y for x, y in zip(p_, q_))
                                     for p_, q_ in zip(r1, r2)]
                                    for r1, r2 in zip(alg.table, other.table)])
    _assert_stored(alg.add(alg.scale(-1)), Algebra.zero(n))
    _assert_stored(Algebra.zero(n), [[(Fraction(0),) * n] * n] * n)
    grid = [[(alg, None), (None, other.scale(c))],
            [(_swapped(other), alg.commutator_algebra()), (None, alg)]]
    _assert_stored(Algebra.from_blocks(grid, alg.basis, "*"),
                   oracle.blocks_table(grid, n))
    _assert_stored(alg.conjugate(p), oracle.conjugate_table(alg, p))
    grades = rng.randint(1, 3)
    _assert_stored(catalog.graded_tensor_algebra(alg, grades)[0],
                   oracle.graded_table(alg, grades))
    _assert_stored(nijenhuis(a, alg), oracle.nijenhuis_table(a, alg))
    _assert_stored(delta_op(a, alg), oracle.delta_op_table(a, alg))
    _assert_stored(o_op(a, alg), oracle.o_op_table(a, alg))
    _assert_stored(doubling._symp_circ(alg, a, p),
                   oracle.symp_circ_table(alg, a, p))
    _assert_stored(dual_product_from_r(alg, rm),
                   oracle.dual_product_table(alg, rm))
    _assert_stored(delta_r(alg, rm), oracle.delta_table(alg, rm))
    _assert_stored(LieTriple.compose(other, alg),
                   oracle.composed_triple(other.table, alg))
    lie, metric = _lie_and_metric(rng)
    b = _random_mat(rng, lie.dim, lie.dim, "dense", LARGE)
    _assert_stored(yb(b, lie), oracle.yb_table(b, lie))
    _assert_stored(levi_civita(lie, metric),
                   oracle.levi_civita_table(lie, metric))
    theta = _nondegenerate(rng, n, rng.choice(("skew", "symmetric")))
    _assert_stored(doubling.theta_circ_product(alg, theta, a),
                   oracle.theta_circ_table(alg, theta, a))


@settings(max_examples=16, deadline=None)
@given(SEEDS)
def test_phase_and_twist_store_the_public_integer_form(seed):
    rng = random.Random(seed)
    u = _moved(rng, rng.choice(_planes()), LARGE)
    dual = rng.choice((Algebra.zero(2), u.scale(rng.choice(LARGE))))
    _assert_stored(build_phase(u, dual).extended, oracle.phase_table(u, dual))
    r = _quasi_s(rng, u)
    tw = twisted_structures(u, r)
    dual = dual_product_from_r(u, r)
    _assert_stored(tw.phase.extended, oracle.phase_table(u, dual))
    _assert_stored(tw.bracket_r, oracle.commutator_table(tw.phase.extended))
    _assert_stored(tw.triangle, oracle.semidirect_table(u, None))
    delta = oracle.delta_table(u, r)
    _assert_stored(tw.twisted, oracle.semidirect_table(u, delta))
    _assert_stored(tw.lts, oracle.twist_triple(u, delta))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ALGEBRA_KINDS), st.integers(1, 4), SEEDS)
def test_one_algebra_has_one_stored_form(kind, n, seed):
    rng = random.Random(seed)
    alg = _algebra(kind, n, rng)
    p = _invertible(rng, alg.dim, LARGE)
    c = rng.choice(LARGE)
    for same in (alg.scale(2).scale(Fraction(1, 2)),
                 alg.scale(c).scale(1 / c), alg.add(Algebra.zero(alg.dim)),
                 alg.conjugate(p).conjugate(p.inverse()),
                 _swapped(_swapped(alg)),
                 _coaction(_coaction(alg, -1), -1)):
        _assert_stored(same, alg)
        _assert_stored(same, Algebra(alg.table))
