import random
from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_routes as oracle
from lsaforge.algebra import Algebra
from lsaforge.exact import (Mat, Subspace, _dual_lagrangian, _reduced,
                            _scatter, _settled, _sparse, basis_vec,
                            format_rational, is_zero_vec, parse_rational,
                            solve, symp_orthogonal, vec_add, vec_scale,
                            zero_vec)

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


def test_dual_lagrangian_pairing():
    """Over the unit rows the covector side of span(e1, e2) for the
    standard form is -e3, -e4.  For a form with omega(e1, e3) = 1 the
    unit rows that enlarge span(e2, e4) are e1 and e3, which pair, so the
    isotropic correction moves them.  Either way W is isotropic and
    W G L^T = I."""
    cases = [([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]],
              [(1, 0, 0, 0), (0, 1, 0, 0)],
              [[0, 0, -1, 0], [0, 0, 0, -1]]),
             ([[0, 1, 1, 0], [-1, 0, 0, 0], [-1, 0, 0, 1], [0, 0, -1, 0]],
              [(0, 1, 0, 0), (0, 0, 0, 1)],
              [[1, 0, 0, Fraction(1, 2)], [0, Fraction(-1, 2), 1, 0]])]
    for rows, lag, want in cases:
        gram, lag = Mat.from_rows(rows), Subspace(4, lag).matrix()
        w = _dual_lagrangian(gram, lag, Mat.identity(4))
        assert w == Mat.from_rows(want)
        assert (w * gram * w.transpose()).is_zero()
        assert w * gram * lag.transpose() == Mat.identity(2)


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
    for attr in ("rows", "cols", "data", "_den", "_cells", "_data", "_t",
                 "_inv"):
        with pytest.raises(AttributeError):
            setattr(m, attr, None)
    product = m * t                      # built by Mat arithmetic
    assert product == Mat.from_rows([[Fraction(5, 4), 0],
                                     [0, Fraction(9, 16)]])
    assert product._int_view() == (16, (((0, 20),), ((1, 9),)))
    assert product.transpose() == product


def test_reduced_is_the_unique_integer_form():
    """`_reduced` returns one form for every scaling of the same cells:
    list and tuple cells, empty cells, den = 1 and a common factor g > 1
    all land on equal tuples, so `Algebra._of` equals and hashes alike."""
    cells = [[(0, 2), (3, -4)], [], ((1, 6),), (), [(2, 3)]]
    tuples = [tuple(cell) for cell in cells]
    cases = [(1, cells), (1, tuples), (5, cells), (6, tuples), (4, [[], ()]),
             (1, [(), ()]), (3, [[(0, 3)], ((1, -6),)])]
    for den, cell_list in cases:
        want = _reduced(den, cell_list)
        for g in (1, 2, 7, 12):
            scaled = [[(k, g * x) for k, x in cell] for cell in cell_list]
            for form in (scaled, [tuple(cell) for cell in scaled]):
                got = _reduced(den * g, form)
                assert got == want
                assert all(type(cell) is tuple for cell in got[1])
    assert _reduced(1, cells) == (1, tuple(tuples))
    assert _reduced(6, tuples) == (6, tuple(tuples))
    assert _reduced(4, [[(0, 2)], [(1, 6)]]) == (2, (((0, 1),), ((1, 3),)))
    assert _reduced(4, [[], ()]) == (1, ((), ()))
    rows = [[[(1, 2)], []], [[], [(0, -4), (1, 6)]]]
    from_lists = Algebra._of(8, rows, ("x", "y"))
    from_tuples = Algebra._of(8, [[tuple(c) for c in row] for row in rows],
                              ("x", "y"))
    assert from_lists == from_tuples
    assert hash(from_lists) == hash(from_tuples)
    assert from_lists._int_view() == (
        4, ((((1, 1),), ()), ((), ((0, -2), (1, 3)))))


def _mixed_mat(rng, rows, cols, density):
    """A seeded matrix with mixed denominators, entries nonzero with the
    given probability."""
    return Mat(rows, cols, [Fraction(rng.randint(-6, 6),
                                     rng.choice((1, 2, 3, 4, 9)))
                            if rng.random() < density else 0
                            for _ in range(rows * cols)])


def test_inverse_is_kept_and_refused_for_singular_or_non_square_input():
    """One elimination per matrix: the inverse (or the singular verdict)
    is kept, `is_invertible` and `inverse` agree with the Fraction
    route, and a second call returns the same object."""
    rng = random.Random(24)
    seen = set()
    for _ in range(40):
        n = rng.randint(0, 6)
        m = _mixed_mat(rng, n, n, rng.choice((0.3, 0.7, 1.0)))
        invertible = len(oracle.rref(m)[1]) == n
        seen.add(invertible)
        assert m.is_invertible() is invertible
        if invertible:
            inv = m.inverse()
            assert inv.row_list() == oracle._inverse(m.row_list())
            assert m.inverse() is inv and m._inv is inv
            assert m * inv == Mat.identity(n) == inv * m
        else:
            for _ in range(2):
                with pytest.raises(ValueError, match="singular"):
                    m.inverse()
            assert m.is_invertible() is False
    assert seen == {True, False}
    fresh = Mat.from_rows([[Fraction(1, 2), 3], [Fraction(2, 9), 1]])
    assert fresh.is_invertible()            # the check keeps the inverse
    assert fresh._inv is fresh.inverse()
    wide = _mixed_mat(rng, 2, 3, 1.0)
    assert wide.is_invertible() is False
    for _ in range(2):
        with pytest.raises(ValueError, match="non-square"):
            wide.inverse()
    assert Mat.zeros(3, 3).is_invertible() is False


def test_kernel_cells_match_the_fraction_kernel():
    """`_kernel_cells` holds D times the kernel basis of the Fraction
    rref, one sparse integer row per free column, by increasing index;
    `kernel_basis` is its Fraction view."""
    rng = random.Random(25)
    for _ in range(60):
        rows, cols = rng.randint(0, 6), rng.randint(0, 7)
        m = _mixed_mat(rng, rows, cols, rng.choice((0.2, 0.6, 1.0)))
        if rows and rng.random() < 0.3:     # a dependent row
            m = Mat.from_rows(m.row_list() + [list(vec_add(m.row(0),
                                                           m.row(rows - 1)))])
        den, cells = m._kernel_cells()
        want = oracle._kernel(m)
        assert m.kernel_basis() == want
        assert len(cells) == len(want)
        for cell, v in zip(cells, want):
            assert all(type(x) is int and x for _, x in cell)
            assert [k for k, _ in cell] == sorted(k for k, x in enumerate(v)
                                                  if x)
            assert [Fraction(x, den) for _, x in cell] == [x for x in v if x]
            assert m.apply(v) == zero_vec(m.rows)


def _sparse_cell(rng, width, size):
    """size nonzero seeded entries (s, x) at distinct s < width, by s."""
    return tuple(sorted((s, rng.choice((-3, -2, -1, 1, 2, 3)))
                        for s in rng.sample(range(width), size)))


def _double_loop(start, cell, rows, f):
    """start plus f x y at s over every (k, x) of cell and (s, y) of rows[k]."""
    out = list(start)
    for k, x in cell:
        for s, y in rows[k]:
            out[s] += f * x * y
    return out


@pytest.mark.parametrize("f", [1, -1, 3])
def test_scatter_into_a_list_and_a_dict_matches_a_double_loop(f):
    rng = random.Random(22)
    width = 8
    cases = [([((0, 1), (2, 2)), ((0, -1), (2, 4))], ((0, 2), (1, 2))),
             ([((3, 1),), ((3, -1),)], ((0, 1), (1, 1))),  # sums to 0
             ([((0, 1),)], ())]                               # empty cell
    for _ in range(40):
        rows = [_sparse_cell(rng, width, rng.randint(0, 4))
                for _ in range(rng.randint(1, 6))]
        cases.append((rows, _sparse_cell(rng, len(rows),
                                         rng.randint(0, len(rows)))))
    for rows, cell in cases:
        for start in ([0] * width, [rng.randint(-1, 1) for _ in range(width)]):
            want = _double_loop(start, cell, rows, f)
            dense = list(start)
            assert _scatter(dense, cell, rows, f) is dense
            assert dense == want
            reached = defaultdict(int, _sparse(start))
            assert _scatter(reached, cell, rows, f) is reached
            assert [reached[s] for s in range(width)] == want
            # neither readback keeps an entry that cancelled to 0
            assert tuple(_sparse(dense)) == _settled(reached) \
                == tuple((s, x) for s, x in enumerate(want) if x)
