"""Finite-dimensional algebras over Q given by structure constants.

An Algebra stores the products of basis vectors: table[i][j] is the
coordinate vector of e_i . e_j.  One type covers every species handled
here (left-symmetric, Lie, associative, ...) and every other bilinear map
Q^n x Q^n -> Q^n (defects, torsions); the species are predicates checked
by `check`, not subclasses.  Lie algebras are stored with the
bracket as the product, so consumers requiring a bracket first assert
the `jacobi_antisym` predicate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

from .exact import (Mat, Subspace, ZERO, basis_vec, is_zero_vec, vec,
                    vec_add, vec_scale, vec_sub, zero_vec)
from .report import InternalInconsistency, Report, failing, passing

PREDICATES = ("left_symmetric", "associative", "commutative",
              "lie_admissible", "jacobi_antisym", "abelian")


def _default_basis(n: int) -> Tuple[str, ...]:
    return tuple("e%d" % (i + 1) for i in range(n))


# memo value of Algebra.bracket_algebra for an antisymmetric product: the
# algebra itself, stored without a reference cycle
_SELF = object()


class Algebra:
    """An algebra on Q^n with product table[i][j] = e_i . e_j.

    The attached bracket algebra and the left multiplications L_{e_i} are
    computed on first use and kept on the object; they are derived from
    the table alone, so equality and hashing ignore them.
    """

    __slots__ = ("dim", "basis", "table", "_bracket", "_lefts")

    def __init__(self, table: Sequence[Sequence[Sequence]], basis=None):
        n = len(table)
        tab = tuple(tuple(vec(cell) for cell in row) for row in table)
        for row in tab:
            if len(row) != n or any(len(cell) != n for cell in row):
                raise ValueError("structure constant table must be n x n x n")
        if basis is None:
            basis = _default_basis(n)
        basis = tuple(basis)
        if len(basis) != n:
            raise ValueError("basis label count mismatch")
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "table", tab)
        object.__setattr__(self, "_bracket", None)
        object.__setattr__(self, "_lefts", None)

    def __setattr__(self, name, value):
        raise AttributeError("Algebra is immutable")

    @staticmethod
    def zero(n: int, basis=None) -> "Algebra":
        z = zero_vec(n)
        return Algebra([[z for _ in range(n)] for _ in range(n)], basis)

    @staticmethod
    def from_function(basis, fn) -> "Algebra":
        """The table of a bilinear map fn on the span of `basis`."""
        n = len(basis)
        es = [basis_vec(n, i) for i in range(n)]
        return Algebra([[fn(x, y) for y in es] for x in es], basis)

    @staticmethod
    def from_blocks(grid, basis, suffix: str) -> "Algebra":
        """A product on V + V' assembled from four bilinear blocks.

        Shaped like Mat.block: grid[p][q] is the block for a left argument
        in part p and a right argument in part q (0 for V, 1 for V', both
        Q^n).  A block is a pair (f, g) of bilinear maps Q^n x Q^n -> Q^n
        giving the V- and V'-components of the product; None is the zero
        map.  V' is labelled by appending `suffix` to each label of
        `basis`: "*" for the dual U*, "'" for the second factor of U x U.
        """
        n = len(basis)
        es = [basis_vec(n, i) for i in range(n)]
        z = zero_vec(n)

        def part(f, x, y):
            return z if f is None else tuple(f(x, y))

        table = [[part(f, x, y) + part(g, x, y)
                  for f, g in blocks for y in es]
                 for blocks in grid for x in es]
        return Algebra(table, tuple(basis) + tuple(s + suffix for s in basis))

    def __eq__(self, other):
        return (isinstance(other, Algebra) and self.dim == other.dim
                and self.table == other.table)

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return "Algebra(dim=%d)" % self.dim

    # -- products ---------------------------------------------------------
    def product(self, u: Sequence, v: Sequence) -> tuple:
        out = [ZERO] * self.dim
        support = [(j, b) for j, b in enumerate(v) if b]
        for i, a in enumerate(u):
            if a == 0:
                continue
            row = self.table[i]
            for j, b in support:
                c = a * b
                for k, x in enumerate(row[j]):
                    if x:
                        out[k] += c * x
        return tuple(out)

    def left_mults(self) -> Tuple[Mat, ...]:
        """L_{e_1}, ..., L_{e_n}: column j of L_{e_i} is e_i . e_j."""
        if self._lefts is None:
            n, tab = self.dim, self.table
            object.__setattr__(self, "_lefts", tuple(
                Mat(n, n, [tab[i][j][k] for k in range(n) for j in range(n)])
                for i in range(n)))
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

    def right_mult(self, u: Sequence) -> Mat:
        n = self.dim
        cols = [self.product(basis_vec(n, j), u) for j in range(n)]
        return Mat.from_cols(cols)

    def is_antisymmetric(self) -> bool:
        n = self.dim
        return all(self.table[i][j] == vec_sub(zero_vec(n), self.table[j][i])
                   for i in range(n) for j in range(n))

    def commutator_algebra(self) -> "Algebra":
        n = self.dim
        return Algebra([[vec_sub(self.table[i][j], self.table[j][i])
                         for j in range(n)] for i in range(n)], self.basis)

    def bracket_algebra(self) -> "Algebra":
        """The Lie bracket attached to this product.

        For an antisymmetric product (a stored Lie algebra) the product
        itself; otherwise the commutator.
        """
        br = self._bracket
        if br is None:
            br = (_SELF if self.is_antisymmetric()
                  else self.commutator_algebra())
            object.__setattr__(self, "_bracket", br)
        return self if br is _SELF else br

    def bracket(self, u: Sequence, v: Sequence) -> tuple:
        return self.bracket_algebra().product(u, v)

    def ad(self, u: Sequence) -> Mat:
        return self.bracket_algebra().left_mult(u)

    # -- algebra arithmetic -------------------------------------------------
    def scale(self, c) -> "Algebra":
        c = Fraction(c)
        n = self.dim
        return Algebra([[vec_scale(c, self.table[i][j]) for j in range(n)]
                        for i in range(n)], self.basis)

    def add(self, other: "Algebra") -> "Algebra":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        n = self.dim
        return Algebra([[vec_add(self.table[i][j], other.table[i][j])
                         for j in range(n)] for i in range(n)], self.basis)

    def is_zero(self) -> bool:
        return all(is_zero_vec(cell) for row in self.table for cell in row)

    def conjugate(self, p: Mat) -> "Algebra":
        """Transport by the basis matrix p (columns = new basis vectors)."""
        if p.rows != self.dim or not p.is_invertible():
            raise ValueError("basis matrix must be invertible of matching size")
        pinv = p.inverse()
        n = self.dim
        cols = [p.col(i) for i in range(n)]
        return Algebra([[pinv.apply(self.product(cols[i], cols[j]))
                         for j in range(n)] for i in range(n)], self.basis)


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
    """Torsion N_A(u,v) = [Au,Av] - A[Au,v] - A[u,Av] + A^2 [u,v].

    The bracket is the Lie bracket attached to alg (the product itself
    when it is already antisymmetric, the commutator otherwise).
    """
    m = _mat(a)
    br = alg.bracket_algebra()
    n = alg.dim
    table = []
    for i, li in enumerate(br.left_mults()):
        # N_A(e_i, .) = [L_{Ae_i}, A] - A [L_{e_i}, A], column j N_A(e_i,e_j)
        ni = br.left_mult(m.col(i)).commutator(m) - m * li.commutator(m)
        table.append([ni.col(j) for j in range(n)])
    return Algebra(table, alg.basis)


def is_derivation(d, alg: Algebra) -> Report:
    m = _mat(d)
    n = alg.dim
    for i in range(n):
        for j in range(n):
            lhs = m.apply(alg.table[i][j])
            rhs = vec_add(alg.product(m.apply(basis_vec(n, i)), basis_vec(n, j)),
                          alg.product(basis_vec(n, i), m.apply(basis_vec(n, j))))
            if lhs != rhs:
                return failing("is_derivation", "D(u.v) == D(u).v + u.D(v)",
                               witness=(i, j))
    return passing("is_derivation", "D(u.v) == D(u).v + u.D(v)")


# -- predicate checks -------------------------------------------------------

def _basis_associator(alg: Algebra):
    """(i, j, k) -> ass(e_i,e_j,e_k) = (e_i.e_j).e_k - e_i.(e_j.e_k), read
    off the table and the memoized L_{e_i}."""
    n, tab, lefts = alg.dim, alg.table, alg.left_mults()
    es = [basis_vec(n, k) for k in range(n)]
    return lambda i, j, k: vec_sub(alg.product(tab[i][j], es[k]),
                                   lefts[i].apply(tab[j][k]))


def _check_left_symmetric(alg: Algebra):
    n = alg.dim
    ass = _basis_associator(alg)
    for i, j, k in itertools.product(range(n), repeat=3):
        if j <= i:
            continue
        if ass(i, j, k) != ass(j, i, k):
            return (i, j, k)
    return None


def _check_associative(alg: Algebra):
    n = alg.dim
    ass = _basis_associator(alg)
    for i, j, k in itertools.product(range(n), repeat=3):
        if not is_zero_vec(ass(i, j, k)):
            return (i, j, k)
    return None


def _check_commutative(alg: Algebra):
    n = alg.dim
    for i in range(n):
        for j in range(i + 1, n):
            if alg.table[i][j] != alg.table[j][i]:
                return (i, j)
    return None


def _jacobi_witness(br: Algebra):
    """First basis triple violating Jacobi for an antisymmetric table,
    where [[e_i,e_j],e_k] = -[e_k,[e_i,e_j]] = -L_{e_k} [e_i,e_j]."""
    n, tab, lefts = br.dim, br.table, br.left_mults()
    for i, j, k in itertools.combinations(range(n), 3):
        s = vec_add(vec_add(lefts[k].apply(tab[i][j]),
                            lefts[i].apply(tab[j][k])),
                    lefts[j].apply(tab[k][i]))
        if not is_zero_vec(s):
            return (i, j, k)
    return None


def _check_jacobi_antisym(alg: Algebra):
    n = alg.dim
    for i in range(n):
        for j in range(i, n):
            if alg.table[i][j] != vec_sub(zero_vec(n), alg.table[j][i]):
                return (i, j)
    return _jacobi_witness(alg)


def _check_lie_admissible(alg: Algebra):
    """Commutator satisfies Jacobi; checked both through the cyclic
    curvature sum and directly, which must agree."""
    n = alg.dim
    tab, lefts = alg.table, alg.left_mults()
    comm = alg.commutator_algebra()
    es = [basis_vec(n, i) for i in range(n)]

    def curv(i, j, k):
        # K(e_i,e_j)e_k = e_i.(e_j.e_k) - e_j.(e_i.e_k) - [e_i,e_j].e_k
        return vec_sub(vec_sub(lefts[i].apply(tab[j][k]),
                               lefts[j].apply(tab[i][k])),
                       alg.product(comm.table[i][j], es[k]))

    via_curvature = None
    for i, j, k in itertools.combinations(range(n), 3):
        s = vec_add(vec_add(curv(i, j, k), curv(j, k, i)), curv(k, i, j))
        if not is_zero_vec(s):
            via_curvature = (i, j, k)
            break
    via_jacobi = _jacobi_witness(comm)
    if (via_curvature is None) != (via_jacobi is None):
        raise InternalInconsistency(
            "cyclic curvature sum and commutator Jacobi check disagree")
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
    name = "check:%s" % predicate
    if witness is None:
        return passing(name, _ANCHORS[predicate])
    return failing(name, _ANCHORS[predicate], witness=witness)


# -- subspace products ------------------------------------------------------

def subspace_product(alg: Algebra, s: Subspace, t: Subspace) -> Subspace:
    vecs = [alg.product(a, b) for a in s.basis for b in t.basis]
    return Subspace(alg.dim, vecs)


def product_subspaces(alg: Algebra) -> dict:
    """U.U, its symmetric/antisymmetric spans, and the powers U^1..U^4.

    U^k is the span of all products of k elements, computed as the sum of
    U^i . U^j over i + j = k.
    """
    n = alg.dim
    uu_vecs, d_vecs, s_vecs = [], [], []
    for i in range(n):
        for j in range(n):
            uu_vecs.append(alg.table[i][j])
            d_vecs.append(vec_sub(alg.table[i][j], alg.table[j][i]))
            s_vecs.append(vec_add(alg.table[i][j], alg.table[j][i]))
    uu = Subspace(n, uu_vecs)
    powers = [Subspace.full(n), uu]
    for k in (3, 4):
        acc = Subspace.zero(n)
        for i in range(1, k):
            j = k - i
            acc = acc.add(subspace_product(alg, powers[i - 1], powers[j - 1]))
        powers.append(acc)
    return {
        "UU": uu,
        "DUU": Subspace(n, d_vecs),
        "SUU": Subspace(n, s_vecs),
        "powers": tuple(powers),
    }


# -- tensor invariance engine ------------------------------------------------

INVARIANCE_TAGS = ("ad", "L", "ad_dual", "L_dual")


def _tensor_shape(t):
    shape = []
    node = t
    while isinstance(node, (list, tuple)) and not isinstance(node, str):
        shape.append(len(node))
        node = node[0]
    return tuple(shape)


def _flatten_tensor(t, order):
    if order == 0:
        return [Fraction(t)]
    out = []
    for sub in t:
        out.extend(_flatten_tensor(sub, order - 1))
    return out


def _slot_apply(flat, shape, slot, m: Mat):
    """Apply matrix m to one index of a flat tensor."""
    n = shape[slot]
    strides = [1] * len(shape)
    for i in range(len(shape) - 2, -1, -1):
        strides[i] = strides[i + 1] * shape[i + 1]
    out = [ZERO] * len(flat)
    stride = strides[slot]
    block = stride * n
    for base in range(0, len(flat), block):
        for off in range(stride):
            col = [flat[base + a * stride + off] for a in range(n)]
            new = m.apply(col)
            for a in range(n):
                out[base + a * stride + off] = new[a]
    return out


def _rep_matrix(tag: str, alg: Algebra, m: int) -> Mat:
    if tag not in INVARIANCE_TAGS:
        raise ValueError("unknown representation tag %r (expected one of %s)"
                         % (tag, ", ".join(INVARIANCE_TAGS)))
    src = alg.bracket_algebra() if tag.startswith("ad") else alg
    mat = src.left_mults()[m]
    return -mat.transpose() if tag.endswith("_dual") else mat


def invariance_check(tensor, reps: Sequence[str], alg: Algebra,
                     name: str = "invariance") -> Report:
    """Diagonal-action invariance of a tensor under per-slot representations.

    The tensor is a nested array all of whose index ranges equal the
    algebra dimension; reps names one representation per slot.  For each
    basis element X the representing matrix of each slot's tag is applied
    directly to that index and the results summed; the tensor is
    invariant when this vanishes for every X.  With this convention the
    bracket tensor of a Lie algebra is annihilated exactly by
    (ad_dual, ad_dual, ad), which is the Jacobi identity.
    """
    shape = _tensor_shape(tensor)
    if len(shape) != len(reps):
        raise ValueError("slot count %d does not match tensor order %d"
                         % (len(reps), len(shape)))
    if any(s != alg.dim for s in shape):
        raise ValueError("tensor index ranges must equal the algebra dimension")
    flat = _flatten_tensor(tensor, len(shape))
    anchor = "sum over slots of %s action == 0" % (tuple(reps),)
    for m in range(alg.dim):
        mats = [_rep_matrix(tag, alg, m) for tag in reps]
        total = [ZERO] * len(flat)
        for slot, mat in enumerate(mats):
            contrib = _slot_apply(flat, shape, slot, mat)
            total = [a + b for a, b in zip(total, contrib)]
        for pos, val in enumerate(total):
            if val != 0:
                idx = []
                rem = pos
                for s in reversed(shape):
                    idx.append(rem % s)
                    rem //= s
                return failing(name, anchor,
                               witness=(m,) + tuple(reversed(idx)))
    return passing(name, anchor)


def algebra_tensor(alg: Algebra):
    """Order-3 array T[i][j][k]: the e_k coordinate of e_i . e_j."""
    return [[list(cell) for cell in row] for row in alg.table]


def endo_tensor(m: Mat):
    """Order-2 array for an endomorphism: T[j][k] = e_k coordinate of M e_j."""
    return [[m[k, j] for k in range(m.rows)] for j in range(m.cols)]
