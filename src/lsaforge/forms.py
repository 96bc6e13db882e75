"""Bilinear forms on algebras and the constructions they induce.

Covers two-cocycles of Lie algebras, the left-symmetric product induced
by a symplectic form, invariance of forms under a product, Levi-Civita
products of flat pseudo-metrics, and invariant isomorphisms onto the
dual.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra import Algebra, check
from .exact import Mat, basis_vec, common_denominator, dot, vec_sub
from .report import Report, failing, passing, require

FORM_KINDS = ("skew", "symmetric", "none")


@dataclass(frozen=True)
class Bilinear:
    """A bilinear form with Gram matrix `matrix`: b(u,v) = u^T G v."""

    matrix: Mat
    kind: str = "none"
    on: Optional[Algebra] = None

    def __post_init__(self):
        if self.kind not in FORM_KINDS:
            raise ValueError("unknown form kind %r" % (self.kind,))
        if self.matrix.rows != self.matrix.cols:
            raise ValueError("Gram matrix must be square")
        if self.kind == "skew" and not self.matrix.is_antisymmetric():
            raise ValueError("Gram matrix is not antisymmetric")
        if self.kind == "symmetric" and not self.matrix.is_symmetric():
            raise ValueError("Gram matrix is not symmetric")
        if self.on is not None and self.on.dim != self.matrix.rows:
            raise ValueError("form dimension differs from algebra dimension")

    @property
    def dim(self) -> int:
        return self.matrix.rows

    def value(self, u, v) -> Fraction:
        return dot(u, self.matrix.apply(v))

    def is_nondegenerate(self) -> bool:
        return self.matrix.is_invertible()

    def flat(self, v):
        """The covector b(v, .) in coordinates."""
        return self.matrix.transpose().apply(v)

    def sharp(self, alpha):
        """Inverse of flat; requires nondegeneracy."""
        return self.matrix.transpose().inverse().apply(alpha)


def is_two_cocycle(omega: Bilinear, lie: Algebra) -> Report:
    """omega([u,v],w) + omega([v,w],u) + omega([w,u],v) == 0."""
    anchor = "omega([u,v],w) + omega([v,w],u) + omega([w,u],v) == 0"
    jac = check(lie, "jacobi_antisym")
    if not jac:
        return failing("is_two_cocycle", jac.anchor, witness=jac.witness,
                       details="underlying product is not a Lie bracket")
    if omega.kind != "skew":
        return failing("is_two_cocycle", "omega(u,v) == -omega(v,u)")
    n = lie.dim
    t = lie.table
    cols = [omega.matrix.col(k) for k in range(n)]  # omega(x,e_k) = x.cols[k]
    for i, j, k in itertools.combinations(range(n), 3):
        s = (dot(t[i][j], cols[k]) + dot(t[j][k], cols[i])
             + dot(t[k][i], cols[j]))
        if s != 0:
            return failing("is_two_cocycle", anchor, witness=(i, j, k))
    return passing("is_two_cocycle", anchor)


def is_invariant_form(omega: Bilinear, alg: Algebra) -> Report:
    """omega(u.v, w) + omega(v, u.w) == 0 for all basis triples.

    Evaluated over ints on the integer view of the table and the Gram
    matrix scaled by its common denominator; the identity is linear in
    each, so the scaling changes no verdict."""
    anchor = "omega(u.v,w) + omega(v,u.w) == 0"
    n = alg.dim
    cells = alg._int_view()[1]
    g = common_denominator(omega.matrix.data)[1]   # g[a * n + b] ~ omega(e_a, e_b)
    for i, j, k in itertools.product(range(n), repeat=3):
        s = 0
        for a, x in cells[i][j]:
            s += x * g[a * n + k]
        for a, x in cells[i][k]:
            s += g[j * n + a] * x
        if s:
            return failing("is_invariant_form", anchor, witness=(i, j, k))
    return passing("is_invariant_form", anchor)


def a_product(lie: Algebra, omega: Bilinear) -> Algebra:
    """The product defined by omega(a(u,v), w) = -omega(v, [u,w]).

    Requires a symplectic Lie algebra: antisymmetric Jacobi product and a
    nondegenerate skew two-cocycle.  The result is left symmetric with
    commutator equal to the bracket and omega invariant under it; these
    facts are re-checked by callers that need certificates.
    """
    if omega.kind != "skew" or not omega.is_nondegenerate():
        raise ValueError("form must be skew and nondegenerate")
    require(is_two_cocycle(omega, lie), "form is not a two-cocycle")
    n = lie.dim
    gt = omega.matrix.transpose()
    gt_inv = gt.inverse()
    table = []
    for i in range(n):
        ad_t = lie.left_mult(basis_vec(n, i)).transpose()
        row = []
        for j in range(n):
            rhs = ad_t.apply(gt.apply(basis_vec(n, j)))
            row.append(tuple(-x for x in gt_inv.apply(rhs)))
        table.append(row)
    return Algebra(table, lie.basis)


def levi_civita(lie: Algebra, metric: Bilinear) -> Algebra:
    """The Levi-Civita product of a pseudo-metric on a Lie algebra.

    2<u.v,w> = <[u,v],w> + <[w,u],v> + <[w,v],u>.  Its commutator is the
    bracket, and left multiplications are skew for the metric.
    """
    if metric.kind != "symmetric" or not metric.is_nondegenerate():
        raise ValueError("metric must be symmetric and nondegenerate")
    require(check(lie, "jacobi_antisym"), "product is not a Lie bracket")
    n = lie.dim
    m = metric.matrix
    m_inv = m.inverse()
    half = Fraction(1, 2)
    # column j of ad_t[i] is ad_{e_i}^t M e_j, the covector <[e_i, .], e_j>
    ad_t = [li.transpose() * m for li in lie.left_mults()]
    table = []
    for i in range(n):
        row = []
        for j in range(n):
            cov = vec_sub(vec_sub(m.apply(lie.table[i][j]), ad_t[i].col(j)),
                          ad_t[j].col(i))
            row.append(tuple(half * x for x in m_inv.apply(cov)))
        table.append(row)
    return Algebra(table, lie.basis)


def is_flat(lie: Algebra, metric: Bilinear) -> Report:
    """A pseudo-metric is flat exactly when its Levi-Civita product is
    left symmetric."""
    lc = levi_civita(lie, metric)
    rep = check(lc, "left_symmetric")
    name = "is_flat"
    if rep:
        return passing(name, rep.anchor, details="Levi-Civita product")
    return failing(name, rep.anchor, witness=rep.witness,
                   details="Levi-Civita product")


def is_invariant_iso(theta: Bilinear, alg: Algebra) -> Report:
    """theta identifies the algebra with its dual compatibly with left
    multiplication: theta(u.v, w) + theta(v, u.w) == 0 and theta
    nondegenerate."""
    if not theta.is_nondegenerate():
        return failing("is_invariant_iso", "theta nondegenerate")
    inner = is_invariant_form(theta, alg)
    name = "is_invariant_iso"
    if inner:
        return passing(name, inner.anchor)
    return failing(name, inner.anchor, witness=inner.witness)
