"""r-matrix machinery for left-symmetric algebras.

A tensor r in U (x) U induces a product on U*, a defect map Delta(r)
measuring how far r_# is from a morphism, and a five-term bracket
[[r,r]]; the two agree through the duality pairing and both are
computed over ints, each as a contraction of integer forms (R, the
cells of U and of its bracket over their denominators): [[r,r]] from R
and the cells, Delta(r) from r_# and the r-induced product, both
compared as stored algebras (a, b) -> U.  Quasi-S-matrices (skew part
invariant under left multiplications, Delta(r) invariant under the
mixed action) twist the semidirect phase-space bracket into new
para-Kahler Lie algebras.

Convention note: the invariance of Delta(r) is checked with the slot
representations (L, L, ad) applied directly to the indices of the
tensor Delta(r) in U (x) U (x) U.  Expanded on arguments this is
exactly  X . D = [X, D(a,b)] + D(L_X^t a, b) + D(a, L_X^t b),
the derivative of the natural action on maps U* x U* -> U whose
covector arguments carry the dual of the left-multiplication
representation; a displayed variant with dual tags on the first two
slots names the same condition in that argument convention.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .algebra import (Algebra, _coaction, _int_product, _nonzero_cell,
                      _permuted, _slot_sum, check, invariance_check)
from .exact import Mat, _dense, _scatter, _sparse
from .forms import Bilinear
from .phase import (PhaseSpace, _involution, _phase,
                    _require_left_symmetric, _split_form, _upper_block,
                    verify_para_kahler)
from .report import (Certificate, InternalInconsistency, Report, _relabel,
                     certify, failing, require, routes_disagree)
from .triple import LieTriple


@dataclass(frozen=True)
class Tensor2:
    """r in U (x) U with matrix R[i][j] = r(e_i*, e_j*)."""

    on: Algebra
    matrix: Mat

    def __post_init__(self):
        if self.matrix.rows != self.on.dim or self.matrix.cols != self.on.dim:
            raise ValueError("tensor shape mismatch")

    @property
    def sym_matrix(self) -> Mat:
        return (self.matrix + self.matrix.transpose()).scale(Fraction(1, 2))

    @property
    def skew_matrix(self) -> Mat:
        return (self.matrix - self.matrix.transpose()).scale(Fraction(1, 2))

    @property
    def r_sharp(self) -> Mat:
        """<b, r_#(a)> = r(a, b), so r_# has matrix R^T."""
        return self.matrix.transpose()

    def is_symmetric(self) -> bool:
        return self.matrix.is_symmetric()


def _as_tensor2(u: Algebra, r) -> Tensor2:
    if isinstance(r, Tensor2):
        if r.on.dim != u.dim:
            raise ValueError("tensor lives on a different space")
        return Tensor2(u, r.matrix)
    return Tensor2(u, r)


def dual_product_from_r(u: Algebra, r) -> Algebra:
    """Product on U* defined by <a.b, X> = r(L_X^t a, b) + r(a, ad_X^t b)."""
    return _dual_product(u, _as_tensor2(u, r))


def _dual_product(u: Algebra, r: Tensor2) -> Algebra:
    """<a.b, e_k> = (L_k R + R ad_k^t)[a][b], one covector row a at a time
    into n lists over k: each L_k[a][p] (over D) times row p of R (over
    D_r), then row a of R times the cells [e_k,e_p] (over D_br)."""
    n = u.dim
    dr, rows = r.matrix._int_view()
    (den, tab), (dbr, br) = u._int_view(), u.commutator_algebra()._int_view()
    lts, brs = [[] for _ in range(n)], [[] for _ in range(n)]
    for k, p in itertools.product(range(n), repeat=2):
        for a, c in tab[k][p]:                  # L_k[a][p] = c
            lts[a].append((p, k, c * dbr))
        for b, c in br[k][p]:                   # ad_k[b][p] = c
            brs[p].append((k, b, c * den))
    cells = []
    for a in range(n):
        acc = [[0] * n for _ in range(n)]       # acc[b][k]
        for p, k, c in lts[a]:
            for b, x in rows[p]:
                acc[b][k] += c * x
        for p, x in rows[a]:
            for k, b, c in brs[p]:
                acc[b][k] += x * c
        cells.append([_sparse(v) for v in acc])
    return Algebra._of(dr * den * dbr, cells, tuple(b + "*" for b in u.basis))


def delta_r(u: Algebra, r) -> Algebra:
    """Delta(r)(a,b) = r_#([a,b]) - [r_#(a), r_#(b)] : U* x U* -> U."""
    r = _as_tensor2(u, r)
    return _sharp_defect(u.commutator_algebra(), r.matrix,
                         dual_product_from_r(u, r).commutator_algebra())


def _sharp_defect(lie: Algebra, rm: Mat, dual_lie: Algebra) -> Algebra:
    """r_#([a,b]) - [r_#(a), r_#(b)] on basis covectors, r_# = R^t, [,] of
    dual_lie on U* and of lie on U: rows of R (D_r) combined by the cells
    of [a,b] (D_d), less rows a and b of R over lie (D), over D_r^2 D D_d."""
    n = lie.dim
    dr, rows = rm._int_view()
    den, cells = lie._int_view()
    dd, dual = dual_lie._int_view()
    f = dr * den
    return Algebra._of(dr * f * dd, [[_sparse(_int_product(
        _scatter([0] * n, dual[a][b], rows, f), cells, rows[a], rows[b], -dd))
        for b in range(n)] for a in range(n)], lie.basis)


def rr_bracket(u: Algebra, r):
    """The five-term bracket [[r,r]] in U (x) U (x) U, as Fractions."""
    rr = _rr_algebra(u, _as_tensor2(u, r))
    return [[list(_dense(rr._den, cell, u.dim)) for cell in row]
            for row in rr._cells]


def _rr_algebra(u: Algebra, r: Tensor2) -> Algebra:
    """The algebra (a, b) -> [[r,r]](a, b, .) of the five-term bracket

    [[r,r]] = r13.r12 - r23.r21 + [r23,r12] - [r13,r21] - [r13,r23],
    r = sum R[i][j] e_i (x) e_j: each product R[i][j] R[k][l] of nonzero
    entries (over D_r^2) spreads the cells of e_i.e_k (over D), [e_i,e_l]
    and [e_j,e_l] (over D_br) into an int array over S = D_r^2 D D_br.
    """
    n = u.dim
    dr, rows = r.matrix._int_view()
    den, tab = u._int_view()
    dbr, br = u.commutator_algebra()._int_view()
    out = [[[0] * n for _ in range(n)] for _ in range(n)]
    pairs = [(i, j, x) for i, row in enumerate(rows) for j, x in row]
    for i, j, wi in pairs:
        for k, l, wk in pairs:
            w = wi * wk
            for s, c in tab[i][k]:          # r13.r12 - r23.r21
                v = w * c * dbr
                out[s][l][j] += v
                out[l][s][j] -= v
            for s, c in br[i][l]:           # [r23,r12] - [r13,r21]
                v = w * c * den
                out[k][s][j] += v
                out[s][k][j] -= v
            for s, c in br[j][l]:           # -[r13,r23]
                out[i][k][s] -= w * c * den
    return Algebra._of(dr * dr * den * dbr, [[_sparse(c) for c in row]
                                             for row in out], u.basis)


def rr_delta_agree(u: Algebra, r) -> Report:
    """[[r,r]](a,b,c) == <c, Delta(r)(a,b)> for all basis triples;
    the two are computed by entirely separate routes."""
    r = _as_tensor2(u, r)
    return _rr_delta_report(u, r, delta_r(u, r))


def _rr_delta_report(u: Algebra, r: Tensor2, delta: Algebra) -> Report:
    """[[r,r]] against Delta(r), both as stored algebras; where they
    differ the witness is the first nonzero (a, b, c) of rr - Delta."""
    rr = _rr_algebra(u, r)
    bad = None if rr == delta else _first_entry(rr.add(delta.scale(-1)))
    return Report("rr_delta_agree", bad is None,
                  "[[r,r]](a,b,c) == <c, Delta(r)(a,b)>", witness=bad)


def _first_entry(alg: Algebra):
    """The first (a, b, c) with c_ab^c != 0, or None."""
    ab = _nonzero_cell(alg)
    return None if ab is None else ab + (alg._cells[ab[0]][ab[1]][0][0],)


@dataclass(frozen=True)
class RClass:
    is_quasi_s: bool
    is_s: bool
    reports: Tuple[Report, ...]

    @property
    def passed(self) -> bool:
        return self.is_quasi_s


def classify_r(u: Algebra, r) -> RClass:
    """Classify r: quasi-S (skew part invariant under left
    multiplications and Delta(r) invariant under (L, L, ad)) and
    S (symmetric with vanishing [[r,r]])."""
    r = _as_tensor2(u, r)
    return _classify(u, r, delta_r(u, r))


def _classify(u: Algebra, r: Tensor2, delta: Algebra) -> RClass:
    """classify_r with Delta(r) already computed."""
    skew_inv = invariance_check(r.skew_matrix, ("L", "L"), u,
                                name="skew_part_invariant")
    q_inv = invariance_check(delta, ("L", "L", "ad"), u,
                             name="delta_invariant")
    agree = _rr_delta_report(u, r, delta)
    if not agree:
        raise routes_disagree(
            "Delta(r) and [[r,r]] pairing disagree at %s" % (agree.witness,),
            [("[[r,r]] == 0 by the five-term bracket",
              _first_entry(_rr_algebra(u, r))),
             ("[[r,r]] == 0 by the pairing with Delta(r)",
              _first_entry(delta))])
    sym = r.is_symmetric()
    rr_zero = delta.is_zero()
    reports = (skew_inv, q_inv, agree,
               Report("symmetric", sym, "r(a,b) == r(b,a)"),
               Report("bracket_vanishes", rr_zero, "[[r,r]] == 0"))
    return RClass(is_quasi_s=bool(skew_inv) and bool(q_inv),
                  is_s=sym and rr_zero,
                  reports=reports)


@dataclass(frozen=True)
class TwistData:
    phase: PhaseSpace          # extended structure with the r-induced dual
    triangle: Algebra          # semidirect bracket on U + U*
    twisted: Algebra           # triangle bracket + Delta(r) on U* x U*
    bracket_r: Algebra         # commutator of the extended product
    xi: Mat                    # (X, a) -> (X - r_#(a), a)
    metric_r: Bilinear
    k_r: Mat
    lts: LieTriple             # L(a,b,c) = -L_{Delta(r)(a,b)}^t c on U*
    cert: Certificate


def _action_blocks(act: Algebra) -> tuple:
    """The tables of (X, b) -> -L_X^t b and (a, Y) -> L_Y^t a, L_X the
    left multiplication of act: the two blocks of its action on U*."""
    return _coaction(act, -1), _permuted(act, (2, 0, 1))


def _semidirect(lie: Algebra, blocks, corner) -> Algebra:
    """[X+a, Y+b] = [X,Y] - L_X^t b + L_Y^t a + corner(a,b) on U + U*,
    with [X,Y] the product of the Lie algebra lie, the action terms the
    `_action_blocks` of a product act (lie itself for the coadjoint
    action, or a left-symmetric product whose commutator is lie) and the
    bilinear map corner: U* x U* -> U (None for zero)."""
    return Algebra.from_blocks([[(lie, None), (None, blocks[0])],
                                [(None, blocks[1]), (corner, None)]],
                               lie.basis, "*")


def semidirect_bracket(lie: Algebra, act: Algebra) -> Algebra:
    """[X+a, Y+b] = [X,Y] - L_X^t b + L_Y^t a on U + U*, the bracket of
    lie and the action of act as in _semidirect."""
    return _semidirect(lie, _action_blocks(act), None)


def twisted_structures(u: Algebra, r) -> TwistData:
    """The structures induced by a quasi-S-matrix r on U + U*.

    Produces the twisted bracket (semidirect bracket plus Delta(r) on
    the dual pairs), the isomorphism xi onto the commutator of the
    extended product, the deformed metric and involution, a para-Kahler
    certificate for the twisted data, and the Lie triple system carried
    by the dual.  Raises if r is not quasi-S, then if U is not left
    symmetric.
    """
    r = _as_tensor2(u, r)
    dual, delta = _quasi_s(u, r)
    _require_left_symmetric((u, "product on U"))
    return _twist(u, r, dual, delta)


def _quasi_s(u: Algebra, r: Tensor2) -> tuple:
    """(the r-induced product on U*, Delta(r)) for a quasi-S r, else
    ValueError naming the first failing line."""
    dual = _dual_product(u, r)
    delta = _sharp_defect(u.commutator_algebra(), r.matrix,
                          dual.commutator_algebra())
    cls = _classify(u, r, delta)
    if not cls.is_quasi_s:
        bad = next(rep for rep in cls.reports if not rep.passed)
        raise ValueError("r is not a quasi-S-matrix: %s" % bad.line())
    return dual, delta


def _twist(u: Algebra, r: Tensor2, dual: Algebra,
           delta: Algebra) -> TwistData:
    """twisted_structures for a left-symmetric u and the `_quasi_s` parts
    of r, whose dual is then left symmetric by theorem."""
    if not check(dual, "left_symmetric"):
        raise InternalInconsistency("product on U* induced by a quasi-S-"
                                    "matrix is not left symmetric")
    n, lie = u.dim, u.commutator_algebra()
    blocks = _action_blocks(u)
    ps = _phase(u, dual, blocks[0])
    triangle = _semidirect(lie, blocks, None)
    twisted = _semidirect(lie, blocks, delta)

    bracket_r = ps.extended.commutator_algebra()
    xi = _upper_block(n, r.r_sharp, -1, 1)
    metric_r = Bilinear(_split_form(Mat.identity(n),
                                    -(r.matrix + r.r_sharp)), "symmetric")
    k_r = _involution(n, r.r_sharp)

    # L(a,b,c) = -L_x^t c with x = Delta(r)(a,b)
    lts = LieTriple.compose(delta, blocks[0])

    cert = certify("twist", (_xi_report(twisted, bracket_r, xi),)
                   + verify_para_kahler(twisted, metric_r, k_r).reports
                   + lts.check().reports)
    return TwistData(phase=ps, triangle=triangle, twisted=twisted,
                     bracket_r=bracket_r, xi=xi, metric_r=metric_r, k_r=k_r,
                     lts=lts, cert=cert)


def _xi_report(src: Algebra, dst: Algebra, xi: Mat) -> Report:
    """xi [x,y]_src == [xi x, xi y]_dst for xi invertible; the witness is
    the first basis pair i < j where they differ.  Both sides are summed
    over nonzero cells at the scale d^2 D_src D_dst, d that of xi."""
    anchor = "xi([x,y]_src) == [xi(x), xi(y)]_dst and xi invertible"
    if not xi.is_invertible():
        return failing("xi_isomorphism", anchor)
    n, (ds, scells), (dd, dcells) = src.dim, src._int_view(), dst._int_view()
    dx, cols = xi.transpose()._int_view()          # cols[i] ~ xi e_i
    # xi [e_i,e_j]_src - [xi e_i, xi e_j]_dst, summed into one dict
    bad = next(((i, j) for i in range(n) for j in range(i + 1, n)
                if any(_int_product(_scatter(
                    defaultdict(int), scells[i][j], cols, dx * dd),
                    dcells, cols[i], cols[j], -ds).values())), None)
    return Report("xi_isomorphism", bad is None, anchor, witness=bad)


@dataclass(frozen=True)
class CoadjointDoubleData:
    dual_bracket: Algebra      # [a,b]* on g*
    rr: Algebra                # [r,r](a,b) = r#([a,b]*) - [r#a, r#b]
    bracket_r: Algebra         # full bracket on g + g*
    twisted: Algebra           # diamond bracket + [r,r] on dual pairs
    xi: Mat
    reports: Tuple[Report, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)


def _coadjoint(lie: Algebra, r) -> tuple:
    """(act, [,]*, [r,r]) for a skew r on the Lie algebra lie: act the
    product (a, Y) -> [r#a, Y], [a,b]* = -ad_{r#a}^t b + ad_{r#b}^t a
    on g*, ad_{r#a} the left multiplication of act, and the defect
    [r,r](a,b) = r#([a,b]*) - [r#a, r#b]."""
    r = _as_tensor2(lie, r)
    require(check(lie, "jacobi_antisym"), "product is not a Lie bracket")
    if not r.matrix.is_antisymmetric():
        raise ValueError("r must be skew-symmetric")
    act = _slot_sum([(1, lie, r.r_sharp, None, None)], lie.basis)
    dual_bracket = _permuted(act, (2, 0, 1), 1, tuple(
        s + "*" for s in lie.basis)).add(_coaction(act, -1))
    return act, dual_bracket, _sharp_defect(lie, r.matrix, dual_bracket)


def coadjoint_double(lie: Algebra, r) -> CoadjointDoubleData:
    """Skew r on a Lie algebra: the coadjoint-twisted brackets.

    [a,b]* = ad*_{r#a} b - ad*_{r#b} a on g*, the full bracket on
    g + g* mixing ad^t of both sides, the defect [r,r], and the twisted
    diamond bracket with xi(X+a) = X - r#(a) + a an isomorphism onto
    the full bracket.  Requires [r,r] to be ad-invariant.
    """
    r = _as_tensor2(lie, r)
    _, dual_bracket, rr = _coadjoint(lie, r)
    reports = [invariance_check(rr, ("ad", "ad", "ad"), lie,
                                name="rr_ad_invariant")]
    reports.append(_relabel(check(dual_bracket, "jacobi_antisym"),
                            "dual_bracket_jacobi"))

    # [X+a, Y+b] = [X,Y] + ad*_b^t X - ad*_a^t Y - ad_X^t b + ad_Y^t a
    #              + [a,b]*, with ad* the left multiplication of [,]*
    (coact, swapped), (dual_coact, dual_swapped) = map(
        _action_blocks, (lie, dual_bracket))
    bracket_r = Algebra.from_blocks(
        [[(lie, None), (dual_swapped, coact)],
         [(dual_coact, swapped), (None, dual_bracket)]], lie.basis, "*")
    twisted = _semidirect(lie, (coact, swapped), rr)
    reports.append(_relabel(check(bracket_r, "jacobi_antisym"),
                            "full_bracket_jacobi"))
    reports.append(_relabel(check(twisted, "jacobi_antisym"),
                            "twisted_bracket_jacobi"))
    xi = _upper_block(lie.dim, r.r_sharp, -1, 1)
    reports.append(_xi_report(twisted, bracket_r, xi))
    return CoadjointDoubleData(dual_bracket=dual_bracket, rr=rr,
                               bracket_r=bracket_r, twisted=twisted, xi=xi,
                               reports=tuple(reports))
