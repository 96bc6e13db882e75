"""Bilinear forms on algebras and the constructions they induce.

Covers two-cocycles of Lie algebras, the left-symmetric product induced
by a symplectic form, invariance of forms under a product, Levi-Civita
products of flat pseudo-metrics, and invariant isomorphisms onto the
dual.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .algebra import (Algebra, _coaction, _lines, _slot_sum, check,
                      invariance_check)
from .exact import Mat, _scatter, _settled
from .report import Report, _relabel, failing, require

FORM_KINDS = ("skew", "symmetric", "none")


@dataclass(frozen=True)
class Bilinear:
    """A bilinear form with Gram matrix `matrix`: b(u,v) = u^T G v."""

    matrix: Mat
    kind: str = "none"

    def __post_init__(self):
        if self.kind not in FORM_KINDS:
            raise ValueError("unknown form kind %r" % (self.kind,))
        if self.matrix.rows != self.matrix.cols:
            raise ValueError("Gram matrix must be square")
        if self.kind == "skew" and not self.matrix.is_antisymmetric():
            raise ValueError("Gram matrix is not antisymmetric")
        if self.kind == "symmetric" and not self.matrix.is_symmetric():
            raise ValueError("Gram matrix is not symmetric")

    @property
    def dim(self) -> int:
        return self.matrix.rows

    def is_nondegenerate(self) -> bool:
        return self.matrix.is_invertible()


def is_two_cocycle(omega: Bilinear, lie: Algebra) -> Report:
    """omega([u,v],w) + omega([v,w],u) + omega([w,u],v) == 0."""
    jac = check(lie, "jacobi_antisym")
    if not jac:
        return failing("is_two_cocycle", jac.anchor, witness=jac.witness,
                       details="underlying product is not a Lie bracket")
    if omega.kind != "skew":
        return failing("is_two_cocycle", "omega(u,v) == -omega(v,u)")
    return _two_cocycle(omega, lie)


def _gram(omega: Bilinear, alg: Algebra) -> Mat:
    """The Gram matrix of omega, which must act on alg's space."""
    if omega.dim != alg.dim:
        raise ValueError("form dimension differs from algebra dimension")
    return omega.matrix


def _two_cocycle(omega: Bilinear, lie: Algebra) -> Report:
    """is_two_cocycle after its preconditions, over ints: each nonzero
    omega([e_a,e_b],e_c) joins the cyclic sum of the increasing triple that
    (a, b, c) rotates; the witness is the least failing one."""
    anchor = "omega([u,v],w) + omega([v,w],u) + omega([w,u],v) == 0"
    cells = lie._int_view()[1]
    grows = _gram(omega, lie)._int_view()[1]        # ~ omega(e_a, e_b)
    sums = defaultdict(int)
    for a, row in enumerate(_lines(cells)):          # nonzero cells only
        for b, cell in row:
            for c, x in _scatter(defaultdict(int), cell, grows).items():
                if a < b < c or b < c < a or c < a < b:
                    sums[tuple(sorted((a, b, c)))] += x
    bad = min((t for t, x in sums.items() if x), default=None)
    return Report("is_two_cocycle", bad is None, anchor, witness=bad)


def is_invariant_form(omega: Bilinear, alg: Algebra) -> Report:
    """omega(u.v, w) + omega(v, u.w) == 0 for all basis triples: the Gram
    matrix annihilated by (L_dual, L_dual), one `invariance_check`, whose
    witness (u, v, w) is the first failing triple."""
    rep = invariance_check(_gram(omega, alg), ("L_dual", "L_dual"), alg)
    return Report("is_invariant_form", rep.passed,
                  "omega(u.v,w) + omega(v,u.w) == 0", witness=rep.witness)


def a_product(lie: Algebra, omega: Bilinear) -> Algebra:
    """The product defined by omega(a(u,v), w) = -omega(v, [u,w]).

    Requires a symplectic Lie algebra: antisymmetric Jacobi product and a
    nondegenerate skew two-cocycle.  The result is left symmetric with
    commutator equal to the bracket and omega invariant under it, by
    theorem: callers build on these facts without checking them again.
    """
    if omega.kind != "skew" or not omega.is_nondegenerate():
        raise ValueError("form must be skew and nondegenerate")
    require(is_two_cocycle(omega, lie), "form is not a two-cocycle")
    # a(u, v) = -G^-t ad_u^t G^t v, one term of `_slot_sum` over the
    # coaction (u, a) -> ad_u^t a
    gt = omega.matrix.transpose()
    return _slot_sum([(-1, _coaction(lie), None, gt, gt.inverse())],
                     lie.basis)


def levi_civita(lie: Algebra, metric: Bilinear) -> Algebra:
    """The Levi-Civita product of a pseudo-metric on a Lie algebra.

    2<u.v,w> = <[u,v],w> + <[w,u],v> + <[w,v],u>.  Its commutator is the
    bracket, and left multiplications are skew for the metric.
    """
    if metric.kind != "symmetric" or not metric.is_nondegenerate():
        raise ValueError("metric must be symmetric and nondegenerate")
    require(check(lie, "jacobi_antisym"), "product is not a Lie bracket")
    return _levi_civita(lie, metric)


def _levi_civita(lie: Algebra, metric: Bilinear) -> Algebra:
    """levi_civita after its preconditions, over ints: each nonzero
    t = D d_G <[e_a,e_b],e_c> goes to the cells (a,b), (b,c) and (c,b) at
    the coordinates c, a and a, then the inverse Gram matrix (symmetric:
    its rows are its columns) is applied to the cells reached."""
    n = lie.dim
    den, cells = lie._int_view()
    dg, grows = _gram(metric, lie)._int_view()
    di, irows = metric.matrix.inverse()._int_view()
    spread = defaultdict(lambda: defaultdict(int))
    for a, row in enumerate(_lines(cells)):          # nonzero cells only
        for b, cell in row:
            for c, t in _scatter(defaultdict(int), cell, grows).items():
                for key, w in (((a, b), c), ((b, c), a), ((c, b), a)):
                    spread[key][w] += t
    out = [[()] * n for _ in range(n)]
    for (i, j), acc in spread.items():
        out[i][j] = _settled(_scatter(defaultdict(int), acc.items(), irows))
    return Algebra._of(2 * den * dg * di, out, lie.basis)


def is_flat(lie: Algebra, metric: Bilinear) -> Report:
    """A pseudo-metric is flat exactly when its Levi-Civita product is
    left symmetric."""
    return _flat(levi_civita(lie, metric))


def _flat(lc: Algebra) -> Report:     # is_flat of a Levi-Civita product
    rep = check(lc, "left_symmetric")
    return Report("is_flat", rep.passed, rep.anchor, witness=rep.witness,
                  details="Levi-Civita product")


def is_invariant_iso(theta: Bilinear, alg: Algebra) -> Report:
    """theta identifies the algebra with its dual compatibly with left
    multiplication: theta(u.v, w) + theta(v, u.w) == 0 and theta
    nondegenerate."""
    if not theta.is_nondegenerate():
        return failing("is_invariant_iso", "theta nondegenerate")
    return _relabel(is_invariant_form(theta, alg), "is_invariant_iso")
