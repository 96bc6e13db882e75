"""r-matrix machinery for left-symmetric algebras.

A tensor r in U (x) U induces a product on U*, a defect map Delta(r)
measuring how far r_# is from a morphism, and a five-term bracket
[[r,r]]; the two agree through the duality pairing and both are
computed and compared.  Quasi-S-matrices (skew part invariant under
left multiplications, Delta(r) invariant under the mixed action) twist
the semidirect phase-space bracket into new para-Kahler Lie algebras.

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
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .algebra import Algebra, algebra_tensor, check, invariance_check
from .exact import Mat, ZERO, basis_vec, dot, vec_neg, vec_sub
from .forms import Bilinear
from .phase import PhaseSpace, build_phase, verify_para_kahler
from .report import (Certificate, InternalInconsistency, Report, _relabel,
                     certify, failing, passing)
from .triple import LieTriple


@dataclass(frozen=True)
class Tensor2:
    """r in U (x) U with matrix R[i][j] = r(e_i*, e_j*)."""

    on: Algebra
    matrix: Mat

    def __post_init__(self):
        if self.matrix.rows != self.on.dim or self.matrix.cols != self.on.dim:
            raise ValueError("tensor shape mismatch")

    def value(self, alpha, beta) -> Fraction:
        return dot(alpha, self.matrix.apply(beta))

    @property
    def sym_matrix(self) -> Mat:
        half = Fraction(1, 2)
        return (self.matrix + self.matrix.transpose()).scale(half)

    @property
    def skew_matrix(self) -> Mat:
        half = Fraction(1, 2)
        return (self.matrix - self.matrix.transpose()).scale(half)

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
    n = u.dim
    rm = r.matrix
    ads = u.bracket_algebra().left_mults()
    comps = [lk * rm + rm * adk.transpose()
             for lk, adk in zip(u.left_mults(), ads)]
    table = [[tuple(comps[k][a, b] for k in range(n)) for b in range(n)]
             for a in range(n)]
    return Algebra(table, tuple(b + "*" for b in u.basis))


def delta_r(u: Algebra, r) -> Algebra:
    """Delta(r)(a,b) = r_#([a,b]) - [r_#(a), r_#(b)] : U* x U* -> U."""
    r = _as_tensor2(u, r)
    return _delta(u, r, dual_product_from_r(u, r))


def _delta(u: Algebra, r: Tensor2, dual: Algebra) -> Algebra:
    """Delta(r) from the r-induced product `dual` on U*."""
    rs = r.r_sharp

    def defect(alpha, beta):
        br_dual = vec_sub(dual.product(alpha, beta), dual.product(beta, alpha))
        return vec_sub(rs.apply(br_dual),
                       u.bracket(rs.apply(alpha), rs.apply(beta)))

    return Algebra.from_function(u.basis, defect)


def rr_bracket(u: Algebra, r):
    """The five-term bracket [[r,r]] as an order-3 array in U (x) U (x) U.

    [[r,r]] = r13.r12 - r23.r21 + [r23,r12] - [r13,r21] - [r13,r23],
    computed from the basis decomposition r = sum R[i][j] e_i (x) e_j.
    """
    r = _as_tensor2(u, r)
    n = u.dim
    rm = r.matrix
    out = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    pairs = [(i, j, rm[i, j]) for i in range(n) for j in range(n) if rm[i, j]]

    def acc(sign, vpos, v, p, q):
        # place vector v in slot vpos and basis indices p, q in the others
        for s, comp in enumerate(v):
            if comp:
                idx = [None, None, None]
                idx[vpos] = s
                rest = [t for t in range(3) if t != vpos]
                idx[rest[0]], idx[rest[1]] = p, q
                out[idx[0]][idx[1]][idx[2]] += sign * comp

    for (i, j, wi) in pairs:
        for (k, l, wk) in pairs:
            w = wi * wk
            ei, ej = basis_vec(n, i), basis_vec(n, j)
            ek, el = basis_vec(n, k), basis_vec(n, l)
            prod = u.product(ei, ek)
            brak = u.bracket(ei, el)
            # r13.r12 = sum a_i.a_k (x) b_k (x) b_i
            acc(w, 0, prod, l, j)
            # r23.r21 = sum b_l (x) a_i.a_k (x) b_j  (minus sign)
            acc(-w, 1, prod, l, j)
            # [r23, r12] = sum a_k (x) [a_i, b_l] (x) b_j
            acc(w, 1, brak, k, j)
            # [r13, r21] = sum [a_i, b_l] (x) a_k (x) b_j  (minus sign)
            acc(-w, 0, brak, k, j)
            # [r13, r23] = sum a_i (x) a_k (x) [b_j, b_l]  (minus sign)
            acc(-w, 2, u.bracket(ej, el), i, k)
    return out


def rr_delta_agree(u: Algebra, r) -> Report:
    """[[r,r]](a,b,c) == <c, Delta(r)(a,b)> for all basis triples;
    the two are computed by entirely separate routes."""
    r = _as_tensor2(u, r)
    return _rr_delta_report(u, r, delta_r(u, r))


def _rr_delta_report(u: Algebra, r: Tensor2, delta: Algebra) -> Report:
    rr = rr_bracket(u, r)
    n = u.dim
    anchor = "[[r,r]](a,b,c) == <c, Delta(r)(a,b)>"
    for a, b, c in itertools.product(range(n), repeat=3):
        if rr[a][b][c] != delta.table[a][b][c]:
            return failing("rr_delta_agree", anchor, witness=(a, b, c))
    return passing("rr_delta_agree", anchor)


def _skew_tensor(r: Tensor2):
    sk = r.skew_matrix
    n = r.on.dim
    return [[sk[i, j] for j in range(n)] for i in range(n)]


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
    skew_inv = invariance_check(_skew_tensor(r), ("L", "L"), u,
                                name="skew_part_invariant")
    q_inv = invariance_check(algebra_tensor(delta), ("L", "L", "ad"), u,
                             name="delta_invariant")
    agree = _rr_delta_report(u, r, delta)
    if not agree:
        raise InternalInconsistency("Delta(r) and [[r,r]] pairing disagree")
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


def _semidirect(u: Algebra, corner) -> Algebra:
    """[X+a, Y+b] = [X,Y] - L_X^t b + L_Y^t a + corner(a,b) on U + U*,
    with the bilinear map corner: U* x U* -> U (None for zero)."""
    return Algebra.from_blocks(
        [[(u.bracket_algebra().product, None),
          (None, lambda x, b: vec_neg(u.left_mult(x).transpose().apply(b)))],
         [(None, lambda a, y: u.left_mult(y).transpose().apply(a)),
          (corner, None)]],
        u.basis, "*")


def semidirect_bracket(u: Algebra) -> Algebra:
    """[X+a, Y+b] = [X,Y] - L_X^t b + L_Y^t a on U + U*."""
    return _semidirect(u, None)


def twisted_structures(u: Algebra, r) -> TwistData:
    """The structures induced by a quasi-S-matrix r on U + U*.

    Produces the twisted bracket (semidirect bracket plus Delta(r) on
    the dual pairs), the isomorphism xi onto the commutator of the
    extended product, the deformed metric and involution, a para-Kahler
    certificate for the twisted data, and the Lie triple system carried
    by the dual.  Raises if r is not quasi-S.
    """
    r = _as_tensor2(u, r)
    dual = _dual_product(u, r)
    delta = _delta(u, r, dual)
    cls = _classify(u, r, delta)
    if not cls.is_quasi_s:
        bad = next(rep for rep in cls.reports if not rep.passed)
        raise ValueError("r is not a quasi-S-matrix: %s" % bad.line())
    n = u.dim
    ps = build_phase(u, dual)
    triangle = semidirect_bracket(u)
    twisted = _semidirect(u, delta.product)

    bracket_r = ps.extended.commutator_algebra()
    ident = Mat.identity(n)
    zero = Mat.zeros(n, n)
    xi = Mat.block([[ident, -r.r_sharp], [zero, ident]])
    metric_r = Bilinear(Mat.block([[zero, ident],
                                   [ident, r.sym_matrix.scale(-2)]]),
                        "symmetric")
    k_r = Mat.block([[ident, r.r_sharp.scale(-2)], [zero, -ident]])

    # L(e_i,e_j,e_k) = -L_x^t e_k with x = Delta(r)(e_i,e_j): row k of L_{-x}
    neg_l = [[u.left_mult(vec_neg(x)) for x in cells] for cells in delta.table]
    lts = LieTriple([[[m.row(k) for k in range(n)] for m in row]
                     for row in neg_l])

    reports = []
    reports.append(_xi_report(twisted, bracket_r, xi))
    cert_pk = verify_para_kahler(twisted, metric_r, k_r)
    reports.extend(cert_pk.reports)
    lts_cert = lts.check()
    reports.extend(lts_cert.reports)
    cert = certify("twist", reports)
    return TwistData(phase=ps, triangle=triangle, twisted=twisted,
                     bracket_r=bracket_r, xi=xi, metric_r=metric_r, k_r=k_r,
                     lts=lts, cert=cert)


def _xi_report(src: Algebra, dst: Algebra, xi: Mat,
               name: str = "xi_isomorphism") -> Report:
    anchor = "xi([x,y]_src) == [xi(x), xi(y)]_dst and xi invertible"
    if not xi.is_invertible():
        return failing(name, anchor)
    n = src.dim
    for i in range(n):
        for j in range(i + 1, n):
            lhs = xi.apply(src.table[i][j])
            rhs = dst.product(xi.apply(basis_vec(n, i)),
                              xi.apply(basis_vec(n, j)))
            if lhs != rhs:
                return failing(name, anchor, witness=(i, j))
    return passing(name, anchor)


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


def coadjoint_double(lie: Algebra, r) -> CoadjointDoubleData:
    """Skew r on a Lie algebra: the coadjoint-twisted brackets.

    [a,b]* = ad*_{r#a} b - ad*_{r#b} a on g*, the full bracket on
    g + g* mixing ad^t of both sides, the defect [r,r], and the twisted
    diamond bracket with xi(X+a) = X - r#(a) + a an isomorphism onto
    the full bracket.  Requires [r,r] to be ad-invariant.
    """
    r = _as_tensor2(lie, r)
    jac = check(lie, "jacobi_antisym")
    if not jac:
        raise ValueError("product is not a Lie bracket: %s" % jac.line())
    if not r.matrix.is_antisymmetric():
        raise ValueError("r must be skew-symmetric")
    n = lie.dim
    rs = r.r_sharp

    def star(alpha, beta):
        t = vec_neg(lie.left_mult(rs.apply(alpha)).transpose().apply(beta))
        s = vec_neg(lie.left_mult(rs.apply(beta)).transpose().apply(alpha))
        return vec_sub(t, s)

    dual_bracket = Algebra.from_function(tuple(s + "*" for s in lie.basis),
                                         star)

    rr = Algebra.from_function(
        lie.basis, lambda a, b: vec_sub(rs.apply(dual_bracket.product(a, b)),
                                        lie.product(rs.apply(a), rs.apply(b))))

    reports = [invariance_check(algebra_tensor(rr), ("ad", "ad", "ad"), lie,
                                name="rr_ad_invariant")]
    reports.append(_relabel(check(dual_bracket, "jacobi_antisym"),
                            "dual_bracket_jacobi"))

    # [X+a, Y+b] = [X,Y] + ad*_b^t X - ad*_a^t Y - ad_X^t b + ad_Y^t a
    #              + [a,b]*, with ad* the left multiplication of [,]*
    def mixed_u(x, b):
        return dual_bracket.left_mult(b).transpose().apply(x)

    def mixed_dual(x, b):
        return vec_neg(lie.left_mult(x).transpose().apply(b))

    bracket_r = Algebra.from_blocks(
        [[(lie.product, None), (mixed_u, mixed_dual)],
         [(lambda a, y: vec_neg(mixed_u(y, a)),
           lambda a, y: vec_neg(mixed_dual(y, a))),
          (None, dual_bracket.product)]],
        lie.basis, "*")
    twisted = _semidirect(lie, rr.product)
    reports.append(_relabel(check(bracket_r, "jacobi_antisym"),
                            "full_bracket_jacobi"))
    reports.append(_relabel(check(twisted, "jacobi_antisym"),
                            "twisted_bracket_jacobi"))
    ident = Mat.identity(n)
    xi = Mat.block([[ident, -rs], [Mat.zeros(n, n), ident]])
    reports.append(_xi_report(twisted, bracket_r, xi))
    return CoadjointDoubleData(dual_bracket=dual_bracket, rr=rr,
                               bracket_r=bracket_r, twisted=twisted, xi=xi,
                               reports=tuple(reports))
