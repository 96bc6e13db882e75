"""Exact rational linear algebra kernel.

Everything operates over the rationals using ``fractions.Fraction``; no
floating point arithmetic appears anywhere.  All operations are
deterministic: echelon forms eliminate with the smallest pivot index
first, so canonical bases and complements depend only on the input, not
on dict ordering or hashing.
"""

from __future__ import annotations

import re
from fractions import Fraction
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


def vec_neg(u: Sequence) -> tuple:
    return tuple(-a if a else a for a in u)


def dot(u: Sequence, v: Sequence) -> Fraction:
    s = ZERO
    for a, b in zip(u, v):
        if a and b:
            s += a * b
    return s


def is_zero_vec(u: Sequence) -> bool:
    return not any(u)


class Mat:
    """An immutable matrix over the rationals (row-major)."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Iterable):
        data = tuple(_q(x) for x in data)
        if len(data) != rows * cols:
            raise ValueError("entry count does not match shape")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    @staticmethod
    def _of(rows: int, cols: int, data) -> "Mat":
        """A matrix from entries that are already Fractions, in a tuple of
        the right length; for results of Mat arithmetic only."""
        m = object.__new__(Mat)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "data", data)
        return m

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
        return Mat(n, n, [ONE if i == j else ZERO for i in range(n) for j in range(n)])

    @staticmethod
    def zeros(r: int, c: int) -> "Mat":
        return Mat(r, c, [ZERO] * (r * c))

    @staticmethod
    def block(grid: Sequence[Sequence["Mat"]]) -> "Mat":
        rows = []
        for band in grid:
            height = band[0].rows
            if any(m.rows != height for m in band):
                raise ValueError("block heights disagree")
            for i in range(height):
                row = []
                for m in band:
                    row.extend(m.row(i))
                rows.append(row)
        return Mat.from_rows(rows)

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

    # -- equality / display -----------------------------------------------
    def __eq__(self, other):
        return (isinstance(other, Mat) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        body = "; ".join(" ".join(format_rational(x) for x in self.row(i))
                         for i in range(self.rows))
        return "Mat(%dx%d: %s)" % (self.rows, self.cols, body)

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Mat._of(self.rows, self.cols,
                       tuple(a + b if b else a
                             for a, b in zip(self.data, other.data)))

    def __sub__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Mat._of(self.rows, self.cols,
                       tuple(a - b if b else a
                             for a, b in zip(self.data, other.data)))

    def __neg__(self) -> "Mat":
        return Mat._of(self.rows, self.cols,
                       tuple(-a if a else a for a in self.data))

    def scale(self, c) -> "Mat":
        c = Fraction(c)
        return Mat._of(self.rows, self.cols, tuple(c * a for a in self.data))

    def __mul__(self, other: "Mat") -> "Mat":
        if not isinstance(other, Mat):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        out = []
        orows = [other.row(k) for k in range(other.rows)]
        for i in range(self.rows):
            srow = self.row(i)
            acc = [ZERO] * other.cols
            for k, coeff in enumerate(srow):
                if coeff:
                    orow = orows[k]
                    for j in range(other.cols):
                        acc[j] += coeff * orow[j]
            out.extend(acc)
        return Mat._of(self.rows, other.cols, tuple(out))

    def apply(self, v: Sequence) -> tuple:
        """Matrix-vector product; zero entries of v and of the matrix are
        skipped."""
        cols = self.cols
        if len(v) != cols:
            raise ValueError("vector length mismatch")
        data = self.data
        support = [(j, b) for j, b in enumerate(v) if b]
        out = []
        for i in range(self.rows):
            base = i * cols
            s = ZERO
            for j, b in support:
                a = data[base + j]
                if a:
                    s += a * b
            out.append(s)
        return tuple(out)

    def transpose(self) -> "Mat":
        return Mat._of(self.cols, self.rows,
                       tuple(self.data[i * self.cols + j]
                             for j in range(self.cols)
                             for i in range(self.rows)))

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return sum((self[i, i] for i in range(self.rows)), ZERO)

    def is_zero(self) -> bool:
        return not any(self.data)

    def is_symmetric(self) -> bool:
        return self == self.transpose()

    def is_antisymmetric(self) -> bool:
        return self == -self.transpose()

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
        m = self.row_list()
        rows, cols = self.rows, self.cols
        pivots = []
        r = 0
        for c in range(cols):
            if r == rows:
                break
            pivot_row = None
            for i in range(r, rows):
                if m[i][c] != 0:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            pv = m[r][c]
            m[r] = [x / pv for x in m[r]]
            for i in range(rows):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
        return Mat.from_rows(m) if rows else self, tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        aug = Mat.block([[self, Mat.identity(n)]])
        red, pivots = aug.rref()
        if tuple(range(n)) != pivots[:n] or len(pivots) != n:
            raise ValueError("matrix is singular")
        return Mat(n, n, [red[i, n + j] for i in range(n) for j in range(n)])

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


class Subspace:
    """A subspace of Q^n with a canonical reduced-echelon basis.

    The basis is stored as rows in reduced row echelon form (smallest
    pivot first), making equality of subspaces equality of
    representations.
    """

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient: int, vectors: Iterable[Sequence]):
        rows = [vec(v) for v in vectors]
        for v in rows:
            if len(v) != ambient:
                raise ValueError("vector length differs from ambient dimension")
        if rows:
            red, pivots = Mat.from_rows(rows).rref()
            basis = tuple(red.row(i) for i in range(len(pivots)))
        else:
            basis = ()
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @staticmethod
    def full(n: int) -> "Subspace":
        return Subspace(n, [basis_vec(n, i) for i in range(n)])

    @staticmethod
    def zero(n: int) -> "Subspace":
        return Subspace(n, [])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return self.dim == 0

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ambient == other.ambient
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return "Subspace(dim %d of Q^%d)" % (self.dim, self.ambient)

    def matrix(self) -> Mat:
        """Basis vectors as rows; zero-row matrix for the zero space."""
        if self.dim == 0:
            return Mat(0, self.ambient, [])
        return Mat.from_rows([list(b) for b in self.basis])

    def contains(self, v: Sequence) -> bool:
        v = vec(v)
        if len(v) != self.ambient:
            raise ValueError("ambient mismatch")
        residual = list(v)
        for b in self.basis:
            pivot = next(j for j, x in enumerate(b) if x != 0)
            if residual[pivot] != 0:
                f = residual[pivot]
                residual = [a - f * c for a, c in zip(residual, b)]
        return all(x == 0 for x in residual)

    def contains_space(self, other: "Subspace") -> bool:
        return all(self.contains(b) for b in other.basis)

    def add(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        return Subspace(self.ambient, list(self.basis) + list(other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient)
        a = self.matrix().transpose()          # ambient x p
        b = other.matrix().transpose()         # ambient x q
        stacked = Mat.block([[a, b]])
        vectors = []
        for k in stacked.kernel_basis():
            coeffs = k[:self.dim]
            v = zero_vec(self.ambient)
            for c, bas in zip(coeffs, self.basis):
                v = vec_add(v, vec_scale(c, bas))
            vectors.append(v)
        return Subspace(self.ambient, vectors)

    def complement_in(self, other: "Subspace") -> "Subspace":
        """Deterministic complement of self inside other (self <= other).

        Scans other's canonical basis in order and keeps the vectors that
        enlarge the span.
        """
        if not other.contains_space(self):
            raise ValueError("complement_in requires self <= other")
        current = list(self.basis)
        chosen = []
        rank = self.dim
        for b in other.basis:
            cand = current + [b]
            new_rank = len(Mat.from_rows([list(v) for v in cand]).rref()[1])
            if new_rank > rank:
                current = cand
                chosen.append(b)
                rank = new_rank
        return Subspace(self.ambient, chosen)


def symp_orthogonal(gram: Mat, s: Subspace) -> Subspace:
    """Orthogonal of s for the (nondegenerate skew) form with Gram matrix gram.

    s_perp = { x : omega(x, b) = 0 for every basis vector b of s }.
    """
    n = gram.rows
    if gram.cols != n or s.ambient != n:
        raise ValueError("shape mismatch")
    if s.dim == 0:
        return Subspace.full(n)
    rows = [gram.apply(b) for b in s.basis]      # omega(x, b) = x . (gram b)
    return Subspace(n, Mat.from_rows([list(r) for r in rows]).kernel_basis())


def form_value(gram: Mat, u: Sequence, v: Sequence) -> Fraction:
    return dot(u, gram.apply(v))


def lagrangian_complement(gram: Mat, lag: Subspace) -> Subspace:
    """Deterministic Lagrangian complement of a Lagrangian subspace.

    gram is the Gram matrix of a nondegenerate skew form on the ambient
    space; lag must be Lagrangian (isotropic of half dimension).  The
    construction picks the deterministic echelon complement, re-expresses
    it in the omega-dual basis of lag, and applies the standard isotropic
    correction, so the output depends only on the input.
    """
    n = gram.rows
    if n % 2 != 0:
        raise ValueError("ambient dimension must be even")
    if lag.dim * 2 != n:
        raise ValueError("subspace is not half-dimensional")
    for a in lag.basis:
        for b in lag.basis:
            if form_value(gram, a, b) != 0:
                raise ValueError("subspace is not isotropic")
    comp = lag.complement_in(Subspace.full(n))
    # omega-dual basis of the complement: c_i with omega(l_i, c_j) = delta_ij.
    p = lag.dim
    pairing = Mat(p, p, [form_value(gram, lag.basis[i], comp.basis[j])
                         for i in range(p) for j in range(p)])
    coeff = pairing.inverse()
    duals = []
    for j in range(p):
        v = zero_vec(n)
        for k in range(p):
            v = vec_add(v, vec_scale(coeff[k, j], comp.basis[k]))
        duals.append(v)
    # isotropic correction: w_j = c_j - 1/2 sum_k omega(c_j, c_k) l_k keeps
    # omega(l_i, w_j) = delta_ij and makes span(w_j) isotropic.
    half = Fraction(1, 2)
    ws = []
    for j in range(p):
        w = duals[j]
        for k in range(p):
            coef = half * form_value(gram, duals[j], duals[k])
            w = vec_sub(w, vec_scale(coef, lag.basis[k]))
        ws.append(w)
    out = Subspace(n, ws)
    for a in out.basis:
        for b in out.basis:
            if form_value(gram, a, b) != 0:
                raise AssertionError("complement failed to be isotropic")
    if not lag.intersect(out).is_zero() or lag.add(out).dim != n:
        raise AssertionError("complement is not transverse")
    return out
