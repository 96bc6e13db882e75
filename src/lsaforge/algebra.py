"""Finite-dimensional algebras over Q given by structure constants.

An Algebra stores the products of basis vectors as integers: one
denominator D and, for each basis pair (i, j), the nonzero (k, D c_ij^k)
of e_i . e_j; `table` is the derived view table[i][j] = the coordinate
vector of e_i . e_j as Fractions.  One type covers every species handled
here (left-symmetric, Lie, associative, ...) and every other bilinear map
Q^n x Q^n -> Q^n (defects, torsions); the species are predicates checked
by `check`, not subclasses.  A function decides the species of its
parameter: where it takes a Lie algebra (and asserts `jacobi_antisym`
on it) the product is the bracket and `left_mult` is ad; for any other
product the bracket is its commutator, `commutator_algebra()`.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from math import lcm
from typing import Sequence

from .exact import (Mat, Subspace, _as_fractions, _dense, _int_combine,
                    _int_rows, _int_vec, _reduced, _scatter, _set_slots,
                    _settled, _sparse, _Stored, _unpacked, vec, vec_sub)
from .report import Report, failing, passing, routes_disagree

PREDICATES = ("left_symmetric", "associative", "commutative", "abelian",
              "lie_admissible", "jacobi_antisym")


def _labels(basis, n: int) -> tuple:
    """The n basis labels: e1, ..., en unless given."""
    basis = tuple("e%d" % (i + 1) for i in range(n)) if basis is None \
        else tuple(basis)
    if len(basis) != n:
        raise ValueError("basis label count mismatch")
    return basis


def _int_product(cells, left, right) -> list:
    """The dense list of the ints sum u_i v_j c_ij^k, the product of the
    sparse integer vectors left = (i, u_i), right = (j, v_j) over the table
    cells[i][j] = the nonzero (k, c_ij^k) of e_i . e_j; the sums over nonzero
    cells use `_spread`, `_push` (`check`) or `exact._scatter` instead."""
    out = [0] * len(cells)
    for i, x in left:
        row = cells[i]
        for j, y in right:
            c = x * y
            for k, z in row[j]:
                out[k] += c * z
    return out


def _left_slot(cells, vecs) -> list:
    """The table of the products v . e_b, cells sparse, for the sparse
    integer vectors v of vecs: the first slot step of a basis change."""
    return [[_sparse(_int_product(cells, v, ((b, 1),)))
             for b in range(len(cells))] for v in vecs]


def _permuted(alg: "Algebra", order, sign: int = 1,
              basis=None) -> "Algebra":
    """The product with the constant sign c_ij^k at index t[order[0]],
    t[order[1]], t[order[2]] for each t = (i, j, k), the cells of alg
    moved over ints; labelled by basis, else by alg's labels."""
    n, (den, cells) = alg.dim, alg._int_view()
    out = [[[] for _ in range(n)] for _ in range(n)]
    for i, row in enumerate(cells):
        for j, cell in enumerate(row):
            for k, x in cell:
                t = (i, j, k)
                out[t[order[0]]][t[order[1]]].append((t[order[2]], sign * x))
    return Algebra._of(den, out, alg.basis if basis is None else basis)


def _coaction(alg: "Algebra", sign: int = 1, basis=None) -> "Algebra":
    """The product (x, a) -> sign L_x^t a, the action of alg on the dual
    through transposed left multiplications: entry k of cell (i, j) is
    sign (e_i . e_k)_j."""
    return _permuted(alg, (0, 2, 1), sign, basis)


def _swapped(alg: "Algebra") -> "Algebra":
    """The opposite product (x, y) -> y . x."""
    return _permuted(alg, (1, 0, 2))


def _slot_sum(terms, basis) -> "Algebra":
    """The table of (x, y) -> sum c out(left x * right y) over the terms
    (c, alg, left, right, out): c an int, * the product of alg, and left,
    right, out n x n matrices or None for the identity.  Each term
    contracts integer forms (the left slot by `_left_slot`, the right by
    `_int_product`, out by its sparse columns); the terms are added over
    the least common multiple of their denominators."""
    n = len(basis)
    unit = [((j, 1),) for j in range(n)]

    def columns(m):             # (d, the columns of d m), unit for None
        return (1, unit) if m is None else m.transpose()._int_view()
    views = []
    for c, alg, left, right, out in terms:
        if alg.dim != n or any(m is not None and (m.rows, m.cols) != (n, n)
                               for m in (left, right, out)):
            raise ValueError("endomorphism shape mismatch")
        den, cells = alg._int_view()
        (dl, lcols), (dr, rcols), (do, ocols) = map(columns,
                                                    (left, right, out))
        views.append((c, cells if left is None else _left_slot(cells, lcols),
                      rcols, ocols, den * dl * dr * do))
    common = lcm(*(view[-1] for view in views))
    total = [[[0] * n for _ in range(n)] for _ in range(n)]
    for c, cells, rcols, ocols, den in views:
        f = c * (common // den)
        for i, row in enumerate(total):
            for acc, col in zip(row, rcols):
                for k, z in enumerate(_int_product(cells, ((i, f),), col)):
                    if z:
                        for s, w in ocols[k]:
                            acc[s] += z * w
    return Algebra._of(common, [[_sparse(cell) for cell in row]
                                for row in total], basis)


def _nonzero_cell(alg: "Algebra"):
    """The first basis pair (i, j) with e_i . e_j != 0, or None."""
    return next(((i, j) for i, row in enumerate(alg._cells)
                 for j, cell in enumerate(row) if cell), None)


class Algebra(_Stored):
    """An algebra on Q^n with product table[i][j] = e_i . e_j.

    What is stored is the integer form: the least common denominator D
    of the structure constants and, per basis pair, the nonzero
    (k, D c_ij^k) by increasing k; equality and hashing compare it.  The
    Fraction table, the commutator algebra and the left multiplications
    L_{e_i} are computed on first use and kept on the object.
    """

    __slots__ = ("dim", "basis", "_den", "_cells", "_table", "_bracket",
                 "_lefts")
    _SHAPE = ("dim",)

    def __init__(self, table: Sequence[Sequence[Sequence]], basis=None):
        n = len(table)
        tab = tuple(tuple(vec(cell) for cell in row) for row in table)
        if any(len(row) != n or any(len(c) != n for c in row) for row in tab):
            raise ValueError("structure constant table must be n x n x n")
        den, cells = _int_rows([x for row in tab for cell in row
                                for x in cell], n * n, n)
        _set_slots(self, (n, _labels(basis, n), den, tuple(
            cells[i * n:i * n + n] for i in range(n)), tab, None, None))

    @staticmethod
    def _of(den: int, cells, basis) -> "Algebra":
        """The algebra with c_ij^k = x / den over the (k, x) of cells[i][j],
        by increasing k, and n labels; for results of arithmetic only."""
        n = len(cells)
        den, flat = _reduced(den, [cell for row in cells for cell in row])
        return _set_slots(object.__new__(Algebra), (n, basis, den, tuple(
            flat[i * n:i * n + n] for i in range(n)), None, None, None))

    @property
    def table(self) -> tuple:
        """table[i][j][k] = c_ij^k as Fractions, built on first read."""
        if self._table is None:
            n, den = self.dim, self._den
            object.__setattr__(self, "_table", tuple(
                tuple(_dense(den, cell, n) for cell in row)
                for row in self._cells))
        return self._table

    @staticmethod
    def zero(n: int, basis=None) -> "Algebra":
        return Algebra._of(1, [[()] * n for _ in range(n)], _labels(basis, n))

    @staticmethod
    def from_blocks(grid, basis, suffix: str) -> "Algebra":
        """A product on V + V' assembled from four blocks of products.

        Shaped like Mat.block: grid[p][q] is the block for a left argument
        in part p and a right argument in part q (0 for V, 1 for V', both
        Q^n).  A block is a pair (f, g) of algebras on Q^n (or their
        tables), f(e_i, e_j) and g(e_i, e_j) the V- and V'-components of
        the product of e_i in part p and e_j in part q; None is the zero
        product.  V' is labelled by appending `suffix` to each label of
        `basis`: "*" for the dual U*, "'" for the second factor of U x U.
        Where that repeats a label of `basis` (V is itself a double, with
        labels e1 and e1*), each label is parenthesized first: (e1*)*.
        """
        n = len(basis)
        grid = [[tuple(t if t is None or isinstance(t, Algebra) else Algebra(t)
                       for t in pair) for pair in band] for band in grid]
        common = lcm(*(t._den for band in grid for pair in band
                       for t in pair if t is not None))
        cells = []
        for band in grid:
            for i in range(n):
                cells.append([[(k + shift, common // t._den * x)
                               for shift, t in zip((0, n), pair)
                               if t is not None for k, x in t._cells[i][j]]
                              for pair in band for j in range(n)])
        basis = tuple(basis)
        second = tuple(s + suffix for s in basis)
        if len(set(basis + second)) < len(basis) + len(second):
            second = tuple("(%s)%s" % (s, suffix) for s in basis)
        return Algebra._of(common, cells, basis + second)

    def __repr__(self):
        return "Algebra(dim=%d)" % self.dim

    # -- products ---------------------------------------------------------
    def product(self, u: Sequence, v: Sequence) -> tuple:
        du, left = _int_vec(u)
        dv, right = _int_vec(v)
        return _as_fractions(_int_product(self._cells, left, right),
                             self._den * du * dv)

    def left_mults(self) -> tuple:
        """L_{e_1}, ..., L_{e_n}: column j of L_{e_i} is e_i . e_j, so
        L_{e_i} is the transpose of the matrix with the rows cells[i]."""
        if self._lefts is None:
            n, den = self.dim, self._den
            object.__setattr__(self, "_lefts", tuple(
                Mat._of(n, n, den, row).transpose() for row in self._cells))
        return self._lefts

    def left_mult(self, u: Sequence) -> Mat:
        """L_u = sum_i u_i L_{e_i}; the memoized matrix itself for a
        basis vector."""
        out = None
        for a, li in zip(u, self.left_mults()):
            if a:
                term = li if a == 1 else li.scale(a)
                out = term if out is None else out + term
        return Mat.zeros(self.dim, self.dim) if out is None else out

    def commutator_algebra(self) -> "Algebra":
        """The bracket [u,v] = u.v - v.u of this product: each cell p - q
        from the stored cells of e_i.e_j and e_j.e_i, p where q is empty."""
        if self._bracket is None:
            c, n = self._cells, self.dim
            object.__setattr__(self, "_bracket", Algebra._of(self._den, [
                [_sparse(_int_combine((p, q), ((0, 1), (1, -1)), n))
                 if p and q else p or tuple((k, -x) for k, x in q)
                 for p, q in zip(row, col)]
                for row, col in zip(c, zip(*c))], self.basis))
        return self._bracket

    # -- algebra arithmetic -------------------------------------------------
    def scale(self, c) -> "Algebra":
        """c times the product, c an int or a Fraction."""
        return Algebra._of(self._den * c.denominator, [
            [tuple((k, c.numerator * x) for k, x in cell) if c else ()
             for cell in row] for row in self._cells], self.basis)

    def add(self, other: "Algebra") -> "Algebra":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        den = lcm(self._den, other._den)
        fg = ((0, den // self._den), (1, den // other._den))
        return Algebra._of(den, [
            [_sparse(_int_combine(pair, fg, self.dim)) for pair in zip(p, q)]
            for p, q in zip(self._cells, other._cells)], self.basis)

    def conjugate(self, p: Mat) -> "Algebra":
        """Transport by the basis matrix p (columns = new basis vectors):
        the new constants are p^-1 ((p e_i) . (p e_j)), one term of
        `_slot_sum`."""
        n = self.dim
        if p.rows != n or p.cols != n:
            raise ValueError("basis matrix must be invertible of matching size")
        try:
            pinv = p.inverse()
        except ValueError:
            raise ValueError("basis matrix must be invertible of matching "
                             "size") from None
        return _slot_sum([(1, self, p, p, pinv)], self.basis)


@dataclass(frozen=True)
class Endo:
    """An endomorphism of the underlying space of an algebra."""

    on: Algebra
    matrix: Mat

    def __post_init__(self):
        if self.matrix.rows != self.on.dim or self.matrix.cols != self.on.dim:
            raise ValueError("endomorphism shape mismatch")

    def apply(self, v):
        return self.matrix.apply(v)


def _mat(x) -> Mat:
    return x.matrix if isinstance(x, Endo) else x


def associator(alg: Algebra, u, v, w) -> tuple:
    return vec_sub(alg.product(alg.product(u, v), w),
                   alg.product(u, alg.product(v, w)))


def curvature(alg: Algebra, u, v) -> Mat:
    """K(u,v) = [L_u, L_v] - L_[u,v] for the commutator bracket."""
    lu = alg.left_mult(u)
    lv = alg.left_mult(v)
    br = vec_sub(alg.product(u, v), alg.product(v, u))
    return lu.commutator(lv) - alg.left_mult(br)


def nijenhuis(a, alg: Algebra) -> Algebra:
    """Torsion N_A(u,v) = [Au,Av] - A[Au,v] - A[u,Av] + A^2 [u,v] of the
    Lie algebra alg, whose product is the bracket; pass
    `commutator_algebra()` for the torsion of another product's bracket.
    With M(u,v) = [Au,v] - A[u,v] it is M(u,Av) - A M(u,v): the nonzero
    cells of the integer view scattered by the integer entries of A, into
    M over D d_A and the torsion over D d_A^2.
    """
    m = Endo(alg, _mat(a)).matrix                      # checks the shape
    den, cells = alg._int_view()
    da, cols = m.transpose()._int_view()               # A e_j, as ints
    below = list(zip(*cells))                      # below[b][a] ~ [e_a,e_b]
    table = []
    for ai, row in zip(cols, cells):
        # M(e_i, e_b) for every b, unsorted
        m_i = [tuple(_scatter(_scatter({}, ai, column), cell, cols, -1)
                     .items()) for column, cell in zip(below, row)]
        table.append([_settled(_scatter(_scatter({}, aj, m_i), cell, cols, -1))
                      for aj, cell in zip(cols, m_i)])
    return Algebra._of(den * da * da, table, alg.basis)


def is_derivation(d, alg: Algebra) -> Report:
    """D(u.v) - D(u).v - u.D(v) on basis pairs, one `_slot_sum`; the
    witness is the first pair where it is nonzero."""
    m = _mat(d)
    bad = _nonzero_cell(_slot_sum([(1, alg, None, None, m),
                                   (-1, alg, m, None, None),
                                   (-1, alg, None, m, None)], alg.basis))
    return Report("is_derivation", bad is None, "D(u.v) == D(u).v + u.D(v)",
                  witness=bad)


# -- predicate checks -------------------------------------------------------

def _lines(table) -> list:
    """Per row of a table of sparse cells, the nonzero (k, cell)."""
    return [[(k, cell) for k, cell in enumerate(row) if cell] for row in table]


def _spread(acc, vec, rows, f, lo):
    """acc[k] += f v.e_k for k > lo, v = vec, rows = `_lines` of the table."""
    for l, x in vec:
        for k, cell in rows[l]:
            if k > lo:
                out, c = acc[k], f * x
                for s, z in cell:
                    out[s] += c * z


def _push(acc, pairs, line, f, lo):
    """acc[k] += f sum y line[m] over the (m, y) of cell, for each (k, cell)
    of pairs with k > lo: nonzero cells pushed through a row or column."""
    for k, cell in pairs:
        if k > lo:
            out = acc[k]
            for m, y in cell:
                c = f * y
                for s, z in line[m]:
                    out[s] += c * z


def _first_triple(n, pairs, sweep):
    """The first (i, j, k), least k, with acc[k] != 0 after sweep(acc, i, j)
    sums an identity on (e_i, e_j, e_k) for all k, over pairs in order."""
    for i, j in pairs:
        acc = defaultdict(lambda: [0] * n)
        sweep(acc, i, j)
        bad = [k for k, v in acc.items() if any(v)]
        if bad:
            return i, j, min(bad)
    return None


def _check_left_symmetric(alg: Algebra):
    # [e_i,e_j].e_k - e_i.(e_j.e_k) + e_j.(e_i.e_k) = ass(i,j,k) - ass(j,i,k)
    n, cells, rows = alg.dim, alg._cells, _lines(alg._cells)

    def sweep(acc, i, j):
        comm = _int_combine((cells[i][j], cells[j][i]), ((0, 1), (1, -1)), n)
        _spread(acc, _sparse(comm), rows, 1, -1)
        _push(acc, rows[j], cells[i], -1, -1)
        _push(acc, rows[i], cells[j], 1, -1)
    return _first_triple(n, itertools.combinations(range(n), 2), sweep)


def _check_associative(alg: Algebra):
    # D^2 ((e_i.e_j).e_k - e_i.(e_j.e_k))
    n, cells, rows = alg.dim, alg._cells, _lines(alg._cells)

    def sweep(acc, i, j):
        _spread(acc, cells[i][j], rows, 1, -1)
        _push(acc, rows[j], cells[i], -1, -1)
    return _first_triple(n, itertools.product(range(n), repeat=2), sweep)


def _check_commutative(alg: Algebra):
    cells = alg._cells
    return next(((i, j) for i, j in itertools.combinations(range(alg.dim), 2)
                 if cells[i][j] != cells[j][i]), None)


def _jacobi_witness(br: Algebra):
    """First basis triple i < j < k violating Jacobi: the cyclic sum of D^2
    [[e_i,e_j],e_k] read off the cells of br (D its denominator)."""
    n, cells, rows = br.dim, br._cells, _lines(br._cells)
    cols = list(zip(*cells))
    nonzero_cols = _lines(cols)

    def sweep(acc, i, j):
        _spread(acc, cells[i][j], rows, 1, j)           # [[e_i,e_j],e_k]
        _push(acc, rows[j], cols[i], 1, j)              # [[e_j,e_k],e_i]
        _push(acc, nonzero_cols[i], cols[j], 1, j)      # [[e_k,e_i],e_j]
    return _first_triple(n, itertools.combinations(range(n - 1), 2), sweep)


def _check_jacobi_antisym(alg: Algebra):
    cells = alg._cells
    bad = next(((i, j) for i, j in itertools.combinations_with_replacement(
        range(alg.dim), 2)
        if cells[i][j] != tuple((k, -x) for k, x in cells[j][i])), None)
    return _jacobi_witness(alg) if bad is None else bad


def _check_lie_admissible(alg: Algebra):
    """Commutator satisfies Jacobi, checked on the bracket and by the cyclic
    sum of K(e_i,e_j)e_k, which is that of e_i.[e_j,e_k] - [e_i,e_j].e_k,
    here times D D' (the denominators of product and bracket): they agree."""
    n, cells, br = alg.dim, alg._cells, alg.commutator_algebra()
    rows, cols, brows = _lines(cells), list(zip(*cells)), _lines(br._cells)
    nonzero_cols = _lines(cols)

    def sweep(acc, i, j):
        _push(acc, brows[j], cells[i], 1, j)            # e_i.[e_j,e_k]
        _push(acc, brows[i], cells[j], -1, j)           # e_j.[e_k,e_i]
        _spread(acc, br._cells[i][j], nonzero_cols, 1, j)  # e_k.[e_i,e_j]
        _spread(acc, br._cells[i][j], rows, -1, j)      # -[e_i,e_j].e_k
        _push(acc, brows[j], cols[i], -1, j)            # -[e_j,e_k].e_i
        _push(acc, brows[i], cols[j], 1, j)             # -[e_k,e_i].e_j
    via_curvature = _first_triple(n, itertools.combinations(range(n - 1), 2),
                                  sweep)
    via_jacobi = _jacobi_witness(br)
    if (via_curvature is None) != (via_jacobi is None):
        raise routes_disagree(
            "cyclic curvature sum and commutator Jacobi check disagree",
            [("cyclic curvature sum", via_curvature),
             ("commutator Jacobi", via_jacobi)])
    return via_curvature if via_curvature is not None else via_jacobi


_ANCHORS = {
    "left_symmetric": "ass(u,v,w) == ass(v,u,w)",
    "associative": "(u.v).w == u.(v.w)",
    "commutative": "u.v == v.u",
    "abelian": "u.v == v.u",
    "lie_admissible": "cyclic sum K(u,v)w == 0 (equivalently commutator Jacobi)",
    "jacobi_antisym": "[u,v] == -[v,u] and cyclic sum [[u,v],w] == 0",
}

_CHECKS = {
    "left_symmetric": _check_left_symmetric,
    "associative": _check_associative,
    "commutative": _check_commutative,
    "abelian": _check_commutative,
    "lie_admissible": _check_lie_admissible,
    "jacobi_antisym": _check_jacobi_antisym,
}


def check(alg: Algebra, predicate: str) -> Report:
    if predicate not in _CHECKS:
        raise ValueError("unknown predicate %r (expected one of %s)"
                         % (predicate, ", ".join(PREDICATES)))
    witness = _CHECKS[predicate](alg)
    return Report("check:%s" % predicate, witness is None,
                  _ANCHORS[predicate], witness=witness)


# -- subspace products ------------------------------------------------------

def subspace_product(alg: Algebra, s: Subspace, t: Subspace) -> Subspace:
    """The span of the products a.b of basis vectors.  Each product is
    computed over ints from the integer view and the stored rows of s and
    t: a nonzero multiple of a.b, which spans the same line."""
    cells = alg._int_view()[1]
    return Subspace._of(alg.dim, [_int_product(cells, left, right)
                                  for left in s._cells for right in t._cells])


def product_subspaces(alg: Algebra) -> dict:
    """U.U, its symmetric/antisymmetric spans, and the powers U^1..U^4.

    U^k is the span of all products of k elements, computed as the sum of
    U^i . U^j over i + j = k.  Every span is built from the integer cells.
    """
    n, cells = alg.dim, alg._int_view()[1]
    flat = _unpacked([cell for row in cells for cell in row], n)
    pairs = [(flat[i * n + j], flat[j * n + i])
             for i, j in itertools.product(range(n), repeat=2)]
    uu = Subspace._of(n, flat)
    powers = [Subspace.full(n), uu]
    for k in (3, 4):
        acc = Subspace.zero(n)
        for i in range(1, k):
            j = k - i
            acc = acc.add(subspace_product(alg, powers[i - 1], powers[j - 1]))
        powers.append(acc)
    return {
        "UU": uu,
        "DUU": Subspace._of(n, [[x - y for x, y in zip(p, q)]
                                for p, q in pairs]),
        "SUU": Subspace._of(n, [[x + y for x, y in zip(p, q)]
                                for p, q in pairs]),
        "powers": tuple(powers),
    }


# -- tensor invariance engine ------------------------------------------------

INVARIANCE_TAGS = ("ad", "L", "ad_dual", "L_dual")


def _rep_columns(tag: str, alg: Algebra) -> tuple:
    """(sign, D, cols): the matrix of e_m for tag is sign/D times the one
    with columns cols[m], the cells e_m . e_b for L_{e_m}, and for -L^t
    the rows of L, the cells of the coaction."""
    src = alg.commutator_algebra() if tag.startswith("ad") else alg
    if tag.endswith("_dual"):
        return (-1,) + _coaction(src)._int_view()
    return (1,) + src._int_view()


def invariance_check(tensor, reps: Sequence[str], alg: Algebra,
                     name: str = "invariance") -> Report:
    """Diagonal-action invariance of a tensor under per-slot representations.

    The tensor is an Algebra, read as the order-3 tensor T[i][j][k] = the
    e_k coordinate of e_i . e_j, or a Mat m, read as the order-2 tensor
    T[i][j] = m[i, j]; every index range must equal the algebra
    dimension, and reps names one representation per slot.  For each
    basis element X the representing matrix of each slot's tag is applied
    directly to that index and the results summed; the tensor is
    invariant when this vanishes for every X.  L and L_dual act through
    the left multiplications of alg, ad and ad_dual through those of its
    commutator.  On a Lie algebra stored as its bracket the commutator is
    twice the bracket, which leaves the verdict and witness of a check
    whose tags are all ad or ad_dual unchanged; with this convention the
    bracket tensor of a Lie algebra is annihilated exactly by
    (ad_dual, ad_dual, ad), which is the Jacobi identity.  The sum is
    taken over ints: each nonzero entry of the tensor's integer view is
    spread by the integer columns of each slot's matrix, all slots over
    one denominator, into the positions reached.
    """
    if isinstance(tensor, Algebra):
        sizes = (tensor.dim,) * 3
        rows = [cell for row in tensor._int_view()[1] for cell in row]
    elif isinstance(tensor, Mat):
        sizes = (tensor.rows, tensor.cols)
        rows = tensor._int_view()[1]
    else:
        raise ValueError("tensor must be an Algebra or a Mat")
    order = len(sizes)
    if len(reps) != order:
        raise ValueError("slot count %d does not match tensor order %d"
                         % (len(reps), order))
    if any(s != alg.dim for s in sizes):
        raise ValueError("tensor index ranges must equal the algebra dimension")
    for tag in reps:
        if tag not in INVARIANCE_TAGS:
            raise ValueError("unknown representation tag %r (expected one "
                             "of %s)" % (tag, ", ".join(INVARIANCE_TAGS)))
    n = alg.dim
    # the last index of an entry is its position in a row of the view
    support = [(p * n + k, x) for p, row in enumerate(rows) for k, x in row]
    strides = [n ** (order - 1 - s) for s in range(order)]
    anchor = "sum over slots of %s action == 0" % (tuple(reps),)
    slots = {tag: _rep_columns(tag, alg) for tag in set(reps)}
    slots = [slots[tag] for tag in reps]
    common = lcm(*(d for _, d, _ in slots))
    for m in range(n):
        total = defaultdict(int)        # position -> entry, reached only
        for (sign, d, cols), stride in zip(slots, strides):
            f = sign * (common // d)
            for pos, x in support:
                b = pos // stride % n
                base = pos - b * stride
                for a, y in cols[m][b]:
                    total[base + a * stride] += f * x * y
        pos = min((p for p, val in total.items() if val), default=None)
        if pos is not None:
            return failing(name, anchor, witness=(m,) + tuple(
                pos // stride % n for stride in strides))
    return passing(name, anchor)
