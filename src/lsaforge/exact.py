"""Exact rational linear algebra kernel.

Everything operates over the rationals: values at the API are
``fractions.Fraction``, a `Mat` stores its entries as integers over one
common denominator (the form an `Algebra`, a `LieTriple` and the
canonical basis of a `Subspace` store too), and its arithmetic and the
elimination compute over those integers; no floating point arithmetic
appears anywhere.
All operations are deterministic: echelon forms eliminate with the
smallest pivot index first, so canonical bases and complements depend
only on the input, not on dict ordering or hashing.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, Sequence

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal of the form ``[-]p`` or ``[-]p/q`` (q > 0)."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise ValueError("not a rational literal: %r" % (text,))
    return Fraction(text)


def format_rational(x: Fraction) -> str:
    """Canonical text form; round trips through parse_rational."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def _q(x) -> Fraction:
    """x as a Fraction; a Fraction is kept as is (they are immutable)."""
    return x if type(x) is Fraction else Fraction(x)


def common_denominator(entries: Sequence) -> tuple:
    """(D, [D x for x in entries]) with D the least common denominator of
    the rational entries, so that the scaled entries are ints."""
    den = lcm(*{x.denominator for x in entries})
    if den == 1:
        return den, [x.numerator for x in entries]
    return den, [x.numerator * (den // x.denominator) for x in entries]


def _as_fractions(ints, den: int) -> tuple:
    """The ints divided by den, as Fractions."""
    return tuple(Fraction(x, den) if x else ZERO for x in ints)


def _int_rows(entries: Sequence, count: int, width: int) -> tuple:
    """(D, rows): D the least common denominator of the flat rational
    entries, rows[r] the nonzero (j, D x) of the r-th run of width
    entries, as ints.  The integer view of a matrix, a product table and
    a triple table."""
    den, flat = common_denominator(entries)
    return den, tuple(
        tuple((j, x) for j, x in enumerate(flat[r * width:r * width + width])
              if x) for r in range(count))


def _int_combine(rows, coeffs, width: int) -> list:
    """sum x rows[k] over the sparse coefficients (k, x), for sparse
    integer rows of length width: the vector-matrix product."""
    out = [0] * width
    for k, x in coeffs:
        for j, y in rows[k]:
            out[j] += x * y
    return out


def _scatter(acc: dict, cell, rows, f: int = 1) -> dict:
    """acc[s] += f x y over the (k, x) of the sparse integer cell and the
    (s, y) of rows[k]: `_int_combine` into a dict of the reached entries."""
    for k, x in cell:
        c = f * x
        for s, y in rows[k]:
            acc[s] = acc.get(s, 0) + c * y
    return acc


def _settled(acc: dict) -> tuple:
    """The nonzero (s, x) of a `_scatter` sum by increasing s, a cell."""
    return tuple(sorted(filter(itemgetter(1), acc.items())))


def _set_slots(obj, values):
    """obj, an immutable object, with its slots set to the values."""
    for name, value in zip(type(obj).__slots__, values):
        object.__setattr__(obj, name, value)
    return obj


def _reduced(den: int, cells) -> tuple:
    """(D, cells): den and the sparse integer cells divided by the gcd of
    den and every entry, the one integer form (D the least common
    denominator of the entries), every cell a tuple.  The gcd reads the
    nonzero cells only and stops at 1."""
    g = den
    for cell in filter(None, cells):
        if g == 1:
            break
        g = gcd(g, *(x for _, x in cell))
    if g == 1:
        return den, tuple(map(tuple, cells))
    return den // g, tuple(tuple((k, x // g) for k, x in cell) if cell else ()
                           for cell in cells)


def _dense(den: int, cell, n: int) -> tuple:
    """The sparse integer cell over den as a tuple of n Fractions."""
    out = [ZERO] * n
    for k, x in cell:
        out[k] = Fraction(x, den)
    return tuple(out)


def _unpacked(cells, n: int) -> list:
    """The sparse integer cells as dense lists of n ints."""
    out = [[0] * n for _ in cells]
    for row, cell in zip(out, cells):
        for k, x in cell:
            row[k] = x
    return out


def _sparse(ints) -> list:
    """The nonzero (i, x) of a dense vector."""
    return [(i, x) for i, x in enumerate(ints) if x]


def _int_vec(v: Sequence) -> tuple:
    """(D, [(i, D v_i) for the nonzero v_i]) for a rational vector v, D
    the least common denominator of its entries."""
    den, ints = common_denominator(v)
    return den, _sparse(ints)


class _Stored:
    """Base of the immutable types stored as one integer form: the shape
    (the slots named by _SHAPE), one denominator D `_den` and the sparse
    integer cells `_cells` (grouped by row in an Algebra), each the
    nonzero (k, x) of a row or cell, with D and the x reduced by their
    gcd.  The form is unique, so equality and hashing compare it."""

    __slots__ = ()
    _SHAPE = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._SHAPE) + (
            self._den, self._cells)

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _int_view(self) -> tuple:
        """(D, cells), the stored integer form."""
        return self._den, self._cells

    def is_zero(self) -> bool:
        return not any(map(any, self._cells))


def _primitive(row: list) -> list:
    """An integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def _echelon(rows: list, cols: int) -> tuple:
    """Fraction-free Gauss-Jordan elimination of integer rows of length
    cols: (integer multiples of the nonzero rows of the reduced row
    echelon form, each divided by the gcd of its entries, and the tuple
    of their pivot columns).

    Elimination selects the first nonzero entry in the leftmost unsettled
    column.  Another row is reduced by the pivot row as (pv/g) row -
    (f/g) pivot row with g the gcd of the two leading entries, and every
    row is divided by the gcd of its entries.  Each integer row stays a
    nonzero multiple of the row the Fraction elimination would hold, so
    the pivots are the same, and dividing each returned row by its pivot
    gives the (unique) reduced form.
    """
    m = [_primitive(row) for row in rows]
    pivots = []
    r = 0
    for c in range(cols):
        if r == len(m):
            break
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        prow = m[r]
        pv = prow[c]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f:
                g = gcd(pv, f)
                s, t = pv // g, f // g
                m[i] = _primitive([s * a - t * b for a, b in zip(m[i], prow)])
        pivots.append(c)
        r += 1
    return m[:r], tuple(pivots)


def _rref_ints(rows: list, cols: int) -> tuple:
    """(D, cells, pivots): the nonzero rows of the reduced row echelon
    form of the integer rows of length cols, as sparse integer cells over
    one denominator D, and their pivot columns.  The rows `_echelon`
    leaves are primitive, so with D the lcm of their pivots the cells and
    D share no factor: the reduced form of `_Stored`.  `Mat.rref` and
    `Subspace` both take their echelon forms from here."""
    red, pivots = _echelon(rows, cols)
    den = lcm(*(row[c] for row, c in zip(red, pivots)))
    return den, tuple(tuple(_sparse([x * (den // row[c]) for x in row]))
                      for row, c in zip(red, pivots)), pivots


def vec(entries: Iterable) -> tuple:
    return tuple(_q(e) for e in entries)


def zero_vec(n: int) -> tuple:
    return (ZERO,) * n


def basis_vec(n: int, i: int) -> tuple:
    return tuple(ONE if j == i else ZERO for j in range(n))


# the vector helpers skip the arithmetic where an entry is zero

def vec_add(u: Sequence, v: Sequence) -> tuple:
    return tuple(a + b if b else a for a, b in zip(u, v))


def vec_sub(u: Sequence, v: Sequence) -> tuple:
    return tuple(a - b if b else a for a, b in zip(u, v))


def vec_scale(c, u: Sequence) -> tuple:
    c = Fraction(c)
    return tuple(c * a for a in u)


def dot(u: Sequence, v: Sequence) -> Fraction:
    s = ZERO
    for a, b in zip(u, v):
        if a and b:
            s += a * b
    return s


def is_zero_vec(u: Sequence) -> bool:
    return not any(u)


class Mat(_Stored):
    """An immutable matrix over the rationals.

    Stored like an `Algebra`: the shape, the least common denominator D
    of the entries and, per row, the nonzero (j, D a_ij) by increasing j
    as ints.  `data`, the row-major tuple of the entries as Fractions, is
    built on first read and the transpose on first use; both are kept on
    the object.
    """

    __slots__ = ("rows", "cols", "_den", "_cells", "_data", "_t")
    _SHAPE = ("rows", "cols")

    def __init__(self, rows: int, cols: int, data: Iterable):
        data = tuple(_q(x) for x in data)
        if len(data) != rows * cols:
            raise ValueError("entry count does not match shape")
        _set_slots(self, (rows, cols) + _int_rows(data, rows, cols)
                   + (data, None))

    @staticmethod
    def _of(rows: int, cols: int, den: int, cells) -> "Mat":
        """The matrix with a_ij = x / den over the (j, x) of cells[i], by
        increasing j; for results of arithmetic only."""
        return _set_slots(object.__new__(Mat), (rows, cols)
                          + _reduced(den, cells) + (None, None))

    @property
    def data(self) -> tuple:
        """The entries as Fractions, row-major, built on first read."""
        if self._data is None:
            den, cols = self._den, self.cols
            object.__setattr__(self, "_data", tuple(
                x for row in self._cells for x in _dense(den, row, cols)))
        return self._data

    # -- construction ---------------------------------------------------
    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Mat":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return Mat(r, c, [x for row in rows for x in row])

    @staticmethod
    def from_cols(cols: Sequence[Sequence]) -> "Mat":
        return Mat.from_rows(cols).transpose() if cols else Mat(0, 0, [])

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat._of(n, n, 1, [((i, 1),) for i in range(n)])

    @staticmethod
    def zeros(r: int, c: int) -> "Mat":
        return Mat._of(r, c, 1, [()] * r)

    @staticmethod
    def block(grid: Sequence[Sequence["Mat"]]) -> "Mat":
        widths = {sum(m.cols for m in band) for band in grid}
        if len(widths) > 1:
            raise ValueError("block widths disagree")
        den = lcm(*(m._den for band in grid for m in band))
        cells = []
        for band in grid:
            height = band[0].rows
            if any(m.rows != height for m in band):
                raise ValueError("block heights disagree")
            for i in range(height):
                row, shift = [], 0
                for m in band:
                    f = den // m._den
                    row.extend((j + shift, f * x) for j, x in m._cells[i])
                    shift += m.cols
                cells.append(row)
        return Mat._of(len(cells), widths.pop() if widths else 0, den, cells)

    # -- access ----------------------------------------------------------
    def __getitem__(self, ij):
        i, j = ij
        return self.data[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.data[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return tuple(self.data[i * self.cols + j] for i in range(self.rows))

    def row_list(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def __repr__(self):
        body = "; ".join(" ".join(format_rational(x) for x in self.row(i))
                         for i in range(self.rows))
        return "Mat(%dx%d: %s)" % (self.rows, self.cols, body)

    # -- arithmetic --------------------------------------------------------
    def _plus(self, other: "Mat", sign: int) -> "Mat":
        """self + sign other over the lcm of the two denominators."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        den = lcm(self._den, other._den)
        fg = ((0, den // self._den), (1, sign * (den // other._den)))
        return Mat._of(self.rows, self.cols, den, [
            _sparse(_int_combine(pair, fg, self.cols))
            for pair in zip(self._cells, other._cells)])

    def __add__(self, other: "Mat") -> "Mat":
        return self._plus(other, 1)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._plus(other, -1)

    def __neg__(self) -> "Mat":
        return self.scale(-1)

    def scale(self, c) -> "Mat":
        """c times the matrix, c an int or a Fraction."""
        return Mat._of(self.rows, self.cols, self._den * c.denominator, [
            tuple((j, c.numerator * x) for j, x in row) if c else ()
            for row in self._cells])

    def __mul__(self, other: "Mat") -> "Mat":
        if not isinstance(other, Mat):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        return Mat._of(self.rows, other.cols, self._den * other._den, [
            _sparse(_int_combine(other._cells, row, other.cols))
            for row in self._cells])

    def apply(self, v: Sequence) -> tuple:
        """Matrix-vector product, over the integer view of the matrix and
        v scaled to ints."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        dv, ints = common_denominator(v)
        out = []
        for row in self._cells:
            s = 0
            for j, a in row:
                s += a * ints[j]
            out.append(s)
        return _as_fractions(out, self._den * dv)

    def transpose(self) -> "Mat":
        """The transpose, computed once and kept on the matrix."""
        if self._t is None:
            cols = [[] for _ in range(self.cols)]
            for i, row in enumerate(self._cells):
                for j, x in row:
                    cols[j].append((i, x))
            object.__setattr__(self, "_t", Mat._of(self.cols, self.rows,
                                                   self._den, cols))
        return self._t

    def is_symmetric(self) -> bool:
        return self == self.transpose()

    def is_antisymmetric(self) -> bool:
        return self._cells == tuple(tuple((j, -x) for j, x in col)
                                    for col in self.transpose()._cells)

    def commutator(self, other: "Mat") -> "Mat":
        return self * other - other * self

    # -- elimination --------------------------------------------------------
    def rref(self):
        """Reduced row echelon form.

        Returns (R, pivots) where pivots is the tuple of pivot column
        indices in increasing order.  Elimination always selects the first
        nonzero entry in the leftmost unsettled column, so the result is a
        canonical function of the matrix.
        """
        den, cells, pivots = _rref_ints(_unpacked(self._cells, self.cols),
                                        self.cols)
        return Mat._of(self.rows, self.cols, den,
                       cells + ((),) * (self.rows - len(cells))), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        red, pivots = Mat.block([[self, Mat.identity(n)]]).rref()
        if pivots != tuple(range(n)):
            raise ValueError("matrix is singular")
        return Mat._of(n, n, red._den, [
            tuple((j - n, x) for j, x in row if j >= n)
            for row in red._cells])

    def kernel_basis(self) -> list:
        """Canonical basis of the null space (vectors of length cols)."""
        red, pivots = self.rref()
        free = [j for j in range(self.cols) if j not in pivots]
        basis = []
        for f in free:
            v = [ZERO] * self.cols
            v[f] = ONE
            for r, p in enumerate(pivots):
                v[p] = -red[r, f]
            basis.append(tuple(v))
        return basis


def _nonzero_entry(m: Mat):
    """(i, j) of the first nonzero entry of m, row by row, or None."""
    return next(((i, row[0][0]) for i, row in enumerate(m._cells) if row),
                None)


def solve(mat: Mat, rhs: Sequence):
    """Solve mat @ x = rhs exactly.

    Returns (particular, kernel) where particular is a solution vector or
    None when the system is inconsistent, and kernel is a Subspace of the
    homogeneous solutions.  The particular solution is the canonical one
    with all free variables set to zero.
    """
    if len(rhs) != mat.rows:
        raise ValueError("rhs length mismatch")
    aug = Mat.block([[mat, Mat.from_cols([vec(rhs)])]])
    red, pivots = aug.rref()
    kernel = Subspace(mat.cols, mat.kernel_basis())
    if mat.cols in pivots:
        return None, kernel
    x = [ZERO] * mat.cols
    for r, p in enumerate(pivots):
        x[p] = red[r, mat.cols]
    return tuple(x), kernel


class Subspace(_Stored):
    """A subspace of Q^n, stored like a `Mat`: the ambient dimension n,
    one denominator D and the sparse integer rows of its canonical basis,
    the reduced row echelon form of any spanning set (smallest pivot
    first), so that equal subspaces have equal forms.  `basis`, those
    rows as tuples of Fractions, is built on first read."""

    __slots__ = ("ambient", "_den", "_cells", "_basis")
    _SHAPE = ("ambient",)

    def __init__(self, ambient: int, vectors: Iterable[Sequence]):
        rows = [common_denominator(v)[1] for v in vectors]
        if any(len(v) != ambient for v in rows):
            raise ValueError("vector length differs from ambient dimension")
        _set_slots(self, (ambient,) + _rref_ints(rows, ambient)[:2] + (None,))

    @staticmethod
    def _of(ambient: int, rows) -> "Subspace":
        """The span of dense integer rows of length ambient."""
        return _set_slots(object.__new__(Subspace), (ambient,)
                          + _rref_ints(rows, ambient)[:2] + (None,))

    @property
    def basis(self) -> tuple:
        """The canonical basis as tuples of Fractions, built on first read."""
        if self._basis is None:
            object.__setattr__(self, "_basis", tuple(
                _dense(self._den, cell, self.ambient) for cell in self._cells))
        return self._basis

    @staticmethod
    def full(n: int) -> "Subspace":
        return Subspace._of(n, [[int(i == j) for j in range(n)]
                                for i in range(n)])

    @staticmethod
    def zero(n: int) -> "Subspace":
        return Subspace._of(n, [])

    @property
    def dim(self) -> int:
        return len(self._cells)

    def __repr__(self):
        return "Subspace(dim %d of Q^%d)" % (self.dim, self.ambient)

    def matrix(self) -> Mat:
        """Basis vectors as rows; zero-row matrix for the zero space."""
        return Mat._of(self.dim, self.ambient, self._den, self._cells)

    def contains(self, v: Sequence) -> bool:
        return self.contains_space(Subspace(self.ambient, [v]))

    def contains_space(self, other: "Subspace") -> bool:
        return self.add(other).dim == self.dim

    def add(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        return Subspace._of(self.ambient, _unpacked(
            self._cells + other._cells, self.ambient))

    def intersect(self, other: "Subspace") -> "Subspace":
        """The vectors A x with [A | B] (x, y) = 0, A and B the bases of
        self and other as columns."""
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        a = self.matrix().transpose()
        stacked = Mat.block([[a, other.matrix().transpose()]])
        return Subspace(self.ambient, [a.apply(k[:self.dim])
                                       for k in stacked.kernel_basis()])

    def complement_in(self, other: "Subspace") -> "Subspace":
        """Deterministic complement of self inside other (self <= other).

        Keeps the basis vectors of other that enlarge the span, scanned in
        order: the pivot columns past self's of one elimination of the
        matrix whose columns are self's basis, then other's.
        """
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        cells = self._cells + other._cells
        cols = Mat._of(len(cells), self.ambient, 1, cells).transpose()
        pivots = _echelon(_unpacked(cols._cells, len(cells)), len(cells))[1]
        if len(pivots) != other.dim:
            raise ValueError("complement_in requires self <= other")
        return Subspace._of(self.ambient, _unpacked(
            [cells[j] for j in pivots[self.dim:]], self.ambient))


def symp_orthogonal(gram: Mat, s: Subspace) -> Subspace:
    """Orthogonal of s for the (nondegenerate skew) form with Gram matrix gram.

    s_perp = { x : omega(x, b) = b^T G^T x = 0 for every basis vector b of
    s }, the kernel of S G^T with S the basis of s as rows.
    """
    n = gram.rows
    if gram.cols != n or s.ambient != n:
        raise ValueError("shape mismatch")
    return Subspace(n, (s.matrix() * gram.transpose()).kernel_basis())


def form_value(gram: Mat, u: Sequence, v: Sequence) -> Fraction:
    return dot(u, gram.apply(v))


def lagrangian_complement(gram: Mat, lag: Subspace) -> Subspace:
    """Deterministic Lagrangian complement of a Lagrangian subspace.

    gram is the Gram matrix G of a nondegenerate skew form on the ambient
    space; lag must be Lagrangian (isotropic of half dimension).  The
    construction picks the deterministic echelon complement, re-expresses
    it in the omega-dual basis of lag, and applies the standard isotropic
    correction, so the output depends only on the input.  Bases are the
    columns of matrices: B of lag, C of the echelon complement.
    """
    n = gram.rows
    if n % 2 != 0:
        raise ValueError("ambient dimension must be even")
    if lag.dim * 2 != n:
        raise ValueError("subspace is not half-dimensional")
    bt = lag.matrix()
    b = bt.transpose()
    if not (bt * gram * b).is_zero():
        raise ValueError("subspace is not isotropic")
    c = lag.complement_in(Subspace.full(n)).matrix().transpose()
    # omega-dual basis of the complement: the columns d_j of C P^-1, with
    # the pairing P = B^T G C, have omega(l_i, d_j) = delta_ij.
    d = c * (bt * gram * c).inverse()
    # isotropic correction: w_j = d_j - 1/2 sum_k omega(d_j, d_k) l_k keeps
    # omega(l_i, w_j) = delta_ij and makes span(w_j) isotropic.
    w = d - b * (d.transpose() * gram * d).scale(Fraction(1, 2)).transpose()
    if not (w.transpose() * gram * w).is_zero():
        raise AssertionError("complement failed to be isotropic")
    out = Subspace._of(n, _unpacked(w.transpose()._cells, n))
    if lag.add(out).dim != n:
        raise AssertionError("complement is not transverse")
    return out
