"""Doubling constructions on T(U) = U x U.

Compatible pairs of left-symmetric products give complex product
structures on the double; endomorphisms whose Yang-Baxter defect or
O-defect is invariant give twisted brackets on the double carrying
para-Kahler and hyper-para-Kahler structures; both defects feed Lie
triple systems.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .algebra import (Algebra, algebra_tensor, check, curvature, endo_tensor,
                      invariance_check, nijenhuis)
from .exact import Mat, basis_vec, vec_add, vec_neg, vec_sub
from .forms import Bilinear, a_product, is_invariant_form, is_invariant_iso
from .phase import verify_hyper_para_kahler, verify_para_kahler
from .report import (Certificate, InternalInconsistency, Report, _bool_report,
                     _relabel, certify, failing, passing)
from .smatrix import Tensor2, classify_r, twisted_structures
from .triple import LieTriple


# -- compatible pairs of left-symmetric products ------------------------------

def compat_curvature(bullet: Algebra, circ: Algebra, x, y) -> Mat:
    """K(x,y) = [L•_x, L°_y] - (L°_{x•y} - L•_{y°x})."""
    if bullet.dim != circ.dim:
        raise ValueError("dimension mismatch")
    lbx = bullet.left_mult(x)
    lcy = circ.left_mult(y)
    return lbx.commutator(lcy) - circ.left_mult(bullet.product(x, y)) \
        + bullet.left_mult(circ.product(y, x))


def _compat_witness(bullet: Algebra, circ: Algebra):
    n = bullet.dim
    ks = [[compat_curvature(bullet, circ, basis_vec(n, i), basis_vec(n, j))
           for j in range(n)] for i in range(n)]
    for i, j, k in itertools.product(range(n), repeat=3):
        if ks[i][j].col(k) != ks[k][j].col(i):
            return ("first", i, j, k)
        if ks[i][j].col(k) != ks[i][k].col(j):
            return ("second", i, j, k)
    return None


def is_compatible(bullet: Algebra, circ: Algebra) -> Report:
    """Symmetry of the mixed curvature in its outer arguments.

    Cross-checked against the Lie-admissibility of the double product;
    the two verdicts must coincide.
    """
    for alg, label in ((bullet, "first"), (circ, "second")):
        rep = check(alg, "left_symmetric")
        if not rep:
            raise ValueError("%s product is not left symmetric (witness %s)"
                             % (label, rep.witness))
    witness = _compat_witness(bullet, circ)
    via_double = check(tu_product(bullet, circ), "lie_admissible")
    if (witness is None) != bool(via_double):
        raise InternalInconsistency(
            "mixed-curvature symmetry and double-product Lie-admissibility"
            " disagree")
    anchor = "K(x,y)z == K(z,y)x and K(x,y)z == K(x,z)y"
    if witness is None:
        return passing("is_compatible", anchor)
    return failing("is_compatible", anchor, witness=witness)


def pencil_identity(bullet: Algebra, circ: Algebra) -> Report:
    """Curvature of the sum product expands exactly:

    K^{•+°}(x,y) == K^•(x,y) + K^°(x,y) + K(x,y) - K(y,x).
    """
    n = bullet.dim
    total = bullet.add(circ)
    anchor = "K^{sum}(x,y) == K^{first} + K^{second} + K(x,y) - K(y,x)"
    for i in range(n):
        for j in range(n):
            x, y = basis_vec(n, i), basis_vec(n, j)
            lhs = curvature(total, x, y)
            rhs = (curvature(bullet, x, y) + curvature(circ, x, y)
                   + compat_curvature(bullet, circ, x, y)
                   - compat_curvature(bullet, circ, y, x))
            if lhs != rhs:
                return failing("pencil_identity", anchor, witness=(i, j))
    return passing("pencil_identity", anchor)


def pencil(bullet: Algebra, circ: Algebra, a, b) -> Algebra:
    return bullet.scale(a).add(circ.scale(b))


def tu_product(bullet: Algebra, circ: Algebra) -> Algebra:
    """(X,Y).(Z,T) = (X•Z, X•T) + (Y°Z, Y°T) on U x U."""
    return Algebra.from_blocks(
        [[(bullet.product, None), (None, bullet.product)],
         [(circ.product, None), (None, circ.product)]],
        bullet.basis, "'")


def double_k(n: int) -> Mat:
    ident, zero = Mat.identity(n), Mat.zeros(n, n)
    return Mat.block([[ident, zero], [zero, -ident]])


def double_j(n: int) -> Mat:
    ident, zero = Mat.identity(n), Mat.zeros(n, n)
    return Mat.block([[zero, -ident], [ident, zero]])


def is_abelian_structure(lie: Algebra, s: Mat, para: bool = False) -> bool:
    """Abelian complex structure: [Sx, Sy] == [x, y]; abelian
    para-complex structure (para=True): [Sx, Sy] == -[x, y]."""
    n = lie.dim
    sign = Fraction(-1 if para else 1)
    return all(lie.product(s.apply(basis_vec(n, i)), s.apply(basis_vec(n, j)))
               == tuple(sign * c for c in lie.table[i][j])
               for i in range(n) for j in range(n))


@dataclass(frozen=True)
class ComplexProductData:
    product: Algebra           # left-symmetric product on U x U
    lie: Algebra               # its commutator bracket
    k1: Mat
    j1: Mat
    cert: Certificate


def build_complex_product(bullet: Algebra, circ: Algebra) -> ComplexProductData:
    """Complex product structure (K1, J1) on the double of a compatible
    pair: both torsions vanish, J1 K1 == -K1 J1, and abelianness of K1,
    J1 and commutativity of the pair coincide."""
    comp = is_compatible(bullet, circ)
    if not comp:
        raise ValueError("products are not compatible: %s" % comp.line())
    prod = tu_product(bullet, circ)
    lie = prod.commutator_algebra()
    n = bullet.dim
    k1, j1 = double_k(n), double_j(n)
    reports = [_relabel(check(prod, "lie_admissible"), "double_lie_admissible"),
               _relabel(check(lie, "jacobi_antisym"), "double_jacobi")]
    reports.append(_bool_report("torsion_k1", nijenhuis(k1, lie).is_zero(),
                                "N_K1 == 0"))
    reports.append(_bool_report("torsion_j1", nijenhuis(j1, lie).is_zero(),
                                "N_J1 == 0"))
    reports.append(_bool_report("involution_k1",
                                k1 * k1 == Mat.identity(2 * n), "K1.K1 == Id"))
    reports.append(_bool_report("complex_j1",
                                j1 * j1 == -Mat.identity(2 * n), "J1.J1 == -Id"))
    reports.append(_bool_report("anticommute", j1 * k1 == -(k1 * j1),
                                "J1.K1 == -K1.J1"))
    k_ab = is_abelian_structure(lie, k1, para=True)
    j_ab = is_abelian_structure(lie, j1)
    both_comm = bool(check(bullet, "commutative")) \
        and bool(check(circ, "commutative"))
    if not (k_ab == j_ab == both_comm):
        raise InternalInconsistency(
            "abelianness of K1, of J1 and commutativity of the pair differ")
    reports.append(passing("abelian_equivalence",
                           "K1 abelian iff J1 abelian iff both products"
                           " commutative",
                           details="all three = %s" % both_comm))
    cert = certify("complex_product", reports)
    return ComplexProductData(product=prod, lie=lie, k1=k1, j1=j1, cert=cert)


def double_metric(omega: Bilinear) -> Bilinear:
    """<(u,v),(w,z)>_1 = omega(z,u) + omega(v,w)."""
    g = omega.matrix
    zero = Mat.zeros(g.rows, g.cols)
    return Bilinear(Mat.block([[zero, -g], [g, zero]]), "symmetric")


@dataclass(frozen=True)
class HyperData:
    complex_product: ComplexProductData
    metric: Bilinear
    cert: Certificate


def build_hyper(bullet: Algebra, circ: Algebra, omega: Bilinear) -> HyperData:
    """Hyper-para-Kahler double of a compatible pair of products both
    leaving omega invariant."""
    for alg, label in ((bullet, "first"), (circ, "second")):
        inv = is_invariant_form(omega, alg)
        if not inv:
            raise ValueError("omega is not invariant under the %s product: %s"
                             % (label, inv.line()))
    if not omega.is_nondegenerate() or omega.kind != "skew":
        raise ValueError("omega must be skew and nondegenerate")
    cp = build_complex_product(bullet, circ)
    metric = double_metric(omega)
    cert = certify("hyper_para_kahler", verify_hyper_para_kahler(
        cp.lie, metric, cp.k1, cp.j1).reports)
    return HyperData(complex_product=cp, metric=metric, cert=cert)


# -- Yang-Baxter machinery on symplectic Lie algebras -------------------------

def yb(a: Mat, lie: Algebra) -> Algebra:
    """YB(A)(X,Y) = A[AX,Y] + A[X,AY] - [AX,AY]."""
    jac = check(lie, "jacobi_antisym")
    if not jac:
        raise ValueError("product is not a Lie bracket: %s" % jac.line())

    def defect(x, y):
        ax, ay = a.apply(x), a.apply(y)
        t = vec_add(a.apply(lie.product(ax, y)), a.apply(lie.product(x, ay)))
        return vec_sub(t, lie.product(ax, ay))

    return Algebra.from_function(lie.basis, defect)


def myb_residual(a: Mat, lie: Algebra, t) -> Report:
    """Residual YB(A)(X,Y) - t[X,Y] on basis pairs (modified Yang-Baxter)."""
    t = Fraction(t)
    defect = yb(a, lie)
    n = lie.dim
    anchor = "YB(A)(x,y) == t[x,y]"
    for i in range(n):
        for j in range(n):
            if defect.table[i][j] != tuple(t * c for c in lie.table[i][j]):
                return failing("myb_residual", anchor, witness=(i, j),
                               details="t=%s" % t)
    return passing("myb_residual", anchor, details="t=%s" % t)


def omega_adjoint(a: Mat, gram: Mat) -> Mat:
    """Adjoint for the form with Gram matrix gram: G A* == A^T G."""
    return gram.inverse() * a.transpose() * gram


def sym_skew_parts(a: Mat, form: Bilinear) -> Tuple[Mat, Mat]:
    half = Fraction(1, 2)
    adj = omega_adjoint(a, form.matrix)
    return (a + adj).scale(half), (a - adj).scale(half)


def _symp_r_matrix(omega: Bilinear, a: Mat) -> Mat:
    """The element of g (x) g whose sharp composed with flat is A."""
    return (a * omega.matrix.transpose().inverse()).transpose()


def _symp_quasi_s_crosscheck(dot: Algebra, omega: Bilinear, a: Mat,
                             inv_yb, inv_s) -> bool:
    """The endomorphism preconditions must coincide with the quasi-S
    property of the corresponding tensor."""
    cls = classify_r(dot, Tensor2(dot, _symp_r_matrix(omega, a)))
    expected = bool(inv_yb) and bool(inv_s)
    if cls.is_quasi_s != expected:
        raise InternalInconsistency(
            "endomorphism preconditions and quasi-S classification disagree")
    return cls.is_quasi_s


def _symp_transport_crosscheck(dot: Algebra, omega: Bilinear, a: Mat,
                               bracket: Algebra, metric: Bilinear,
                               k: Mat) -> None:
    """The direct formulas must agree with the transport of the twist
    construction along (X, Y) -> (X, flat(Y))."""
    tw = twisted_structures(dot, Tensor2(dot, _symp_r_matrix(omega, a)))
    n = dot.dim
    gt = omega.matrix.transpose()
    mu = Mat.block([[Mat.identity(n), Mat.zeros(n, n)],
                    [Mat.zeros(n, n), gt]])
    mu_inv = mu.inverse()
    nn = 2 * n
    for i in range(nn):
        for j in range(nn):
            pulled = mu_inv.apply(tw.twisted.product(
                mu.apply(basis_vec(nn, i)), mu.apply(basis_vec(nn, j))))
            if pulled != bracket.table[i][j]:
                raise InternalInconsistency(
                    "direct bracket disagrees with twist transport at %s"
                    % ((i, j),))
    if mu.transpose() * tw.metric_r.matrix * mu != metric.matrix:
        raise InternalInconsistency(
            "direct metric disagrees with twist transport")
    if mu_inv * tw.k_r * mu != k:
        raise InternalInconsistency(
            "direct involution disagrees with twist transport")


@dataclass(frozen=True)
class SympDoubleData:
    circ: Algebra              # X°Y = X.[(A^s - A^a)Y] - (AX).Y
    bracket: Algebra           # [.,.]^A on the double
    metric: Bilinear
    k: Mat
    cert: Certificate


def build_symp_double(lie: Algebra, omega: Bilinear, a: Mat) -> SympDoubleData:
    """Para-Kahler double of a symplectic Lie algebra from an
    endomorphism with ad-invariant Yang-Baxter defect whose symmetric
    part intertwines the adjoint representation with left multiplication
    of the induced left-symmetric product.

    The preconditions are cross-checked against the quasi-S property of
    the corresponding element of g (x) g, and the produced bracket,
    metric and involution are cross-checked against the transport of the
    twist construction; disagreement raises InternalInconsistency.
    """
    if omega.kind != "skew" or not omega.is_nondegenerate():
        raise ValueError("omega must be skew and nondegenerate")
    dot = a_product(lie, omega)          # checks bracket + cocycle
    defect = yb(a, lie)
    inv_yb = invariance_check(algebra_tensor(defect),
                              ("ad_dual", "ad_dual", "ad"), lie,
                              name="yb_ad_invariant")
    a_s, a_a = sym_skew_parts(a, omega)
    # L_X(A^s u) == A^s [X, u]: the symmetric part intertwines ad with
    # the left multiplication of the induced left-symmetric product.
    inv_s = invariance_check(endo_tensor(a_s), ("ad_dual", "L"), dot,
                             name="sym_part_intertwines")
    quasi = _symp_quasi_s_crosscheck(dot, omega, a, inv_yb, inv_s)
    for rep in (inv_yb, inv_s):
        if not rep:
            raise ValueError("precondition failed: %s" % rep.line())
    n = lie.dim
    diff = a_s - a_a

    def circ_fn(x, y):
        return vec_sub(dot.product(x, diff.apply(y)),
                       dot.product(a.apply(x), y))

    circ = Algebra.from_function(lie.basis, circ_fn)
    # [(X,Y),(Z,T)] = ([X,Z] + YB(A)(Y,T), [X,T] + [Y,Z])
    bracket = Algebra.from_blocks(
        [[(lie.product, None), (None, lie.product)],
         [(None, lie.product), (defect.product, None)]],
        lie.basis, "'")

    g = omega.matrix
    zero = Mat.zeros(n, n)
    metric = Bilinear(Mat.block([[zero, -g],
                                 [g, (a_a.transpose() * g).scale(2)]]),
                      "symmetric")
    ident = Mat.identity(n)
    k = Mat.block([[ident, a.scale(-2)], [zero, -ident]])

    if quasi:
        _symp_transport_crosscheck(dot, omega, a, bracket, metric, k)
    reports = [inv_yb, inv_s,
               _relabel(check(circ, "left_symmetric"), "circ_left_symmetric")]
    cert_pk = verify_para_kahler(bracket, metric, k)
    reports.extend(cert_pk.reports)
    cert = certify("symp_double", reports)
    return SympDoubleData(circ=circ, bracket=bracket, metric=metric, k=k,
                          cert=cert)


# -- invariant isomorphisms onto the dual --------------------------------------

def delta_op(a: Mat, alg: Algebra) -> Algebra:
    """delta(A)(X,Y) = X.A(Y) - Y.A(X) - A([X,Y])."""
    def defect(x, y):
        t = vec_sub(alg.product(x, a.apply(y)), alg.product(y, a.apply(x)))
        return vec_sub(t, a.apply(alg.bracket(x, y)))

    return Algebra.from_function(alg.basis, defect)


def o_op(a: Mat, alg: Algebra) -> Algebra:
    """O(A)(X,Y) = [AX,AY] - (A(AX.Y) - A(AY.X))."""
    def defect(x, y):
        ax, ay = a.apply(x), a.apply(y)
        t = alg.bracket(ax, ay)
        t = vec_sub(t, a.apply(alg.product(ax, y)))
        return vec_add(t, a.apply(alg.product(ay, x)))

    return Algebra.from_function(alg.basis, defect)


def oeq_check(a: Mat, alg: Algebra) -> Report:
    """The exact identity O(A) == N_A + A o delta(A)."""
    o = o_op(a, alg)
    nij = nijenhuis(a, alg)
    dl = delta_op(a, alg)
    n = alg.dim
    anchor = "O(A)(x,y) == N_A(x,y) + A(delta(A)(x,y))"
    for i in range(n):
        for j in range(n):
            rhs = vec_add(nij.table[i][j], a.apply(dl.table[i][j]))
            if o.table[i][j] != rhs:
                return failing("oeq_check", anchor, witness=(i, j))
    return passing("oeq_check", anchor)


@dataclass(frozen=True)
class ThetaDoubleData:
    circ: Algebra              # product transported from the dual by Theta
    bracket: Algebra           # [.,.]^A on the double
    metric: Bilinear
    k: Mat
    j: Mat
    cert: Certificate


def theta_circ_product(alg: Algebra, theta: Bilinear, a: Mat) -> Algebra:
    """The pull-back by Theta of the dual product induced by r = A
    through Theta, written without reference to the dual:

    skew Theta:       X°Y = [AX,Y] + A(Y.X) + Q(X,Y)
    symmetric Theta:  X°Y = Y.AX + AX.Y - A(Y.X) + P(X,Y)

    where <a, Q(X,Y)> = -omega(delta(A^s - A^a)(Theta^{-1} a, Y), X) and
    <a, P(X,Y)> = <delta(A^s - A^a)(Theta^{-1} a, Y), X>.
    """
    if theta.kind not in ("skew", "symmetric"):
        raise ValueError("theta must be skew or symmetric")
    if not theta.is_nondegenerate():
        raise ValueError("theta must be nondegenerate")
    n = alg.dim
    a_s, a_a = sym_skew_parts(a, theta)
    dl = delta_op(a_s - a_a, alg)
    theta_inv = theta.matrix.transpose().inverse()   # covector -> vector

    def correction(x, y):
        comps = []
        for t in range(n):
            pre = theta_inv.apply(basis_vec(n, t))
            val = theta.value(dl.product(pre, y), x)
            comps.append(-val if theta.kind == "skew" else val)
        return tuple(comps)

    def circ_fn(x, y):
        if theta.kind == "skew":
            base = vec_add(alg.bracket(a.apply(x), y),
                           a.apply(alg.product(y, x)))
        else:
            base = vec_add(alg.product(y, a.apply(x)),
                           alg.product(a.apply(x), y))
            base = vec_sub(base, a.apply(alg.product(y, x)))
        return vec_add(base, correction(x, y))

    return Algebra.from_function(alg.basis, circ_fn)


def build_theta_double(alg: Algebra, theta: Bilinear, a: Mat,
                       hyper: bool = False) -> ThetaDoubleData:
    """Doubles built from an invariant isomorphism onto the dual.

    Preconditions: theta is an invariant nondegenerate form; O(A) is
    (L_dual, L_dual, ad)-invariant; the symmetric part of A (for skew
    theta) or its skew part (for symmetric theta) commutes with all left
    multiplications.  For hyper certificates (skew theta) additionally
    delta(A^a) == 0 and N_A invariant.
    """
    iso = is_invariant_iso(theta, alg)
    if not iso:
        raise ValueError("theta is not an invariant isomorphism: %s"
                         % iso.line())
    n = alg.dim
    o_def = o_op(a, alg)
    inv_o = invariance_check(algebra_tensor(o_def),
                             ("L_dual", "L_dual", "ad"), alg,
                             name="o_defect_invariant")
    a_s, a_a = sym_skew_parts(a, theta)
    part = a_s if theta.kind == "skew" else a_a
    inv_part = invariance_check(endo_tensor(part), ("L_dual", "L"), alg,
                                name="part_L_invariant")
    pre_reports = [iso, inv_o, inv_part]
    if hyper:
        if theta.kind != "skew":
            raise ValueError("hyper certificates require skew theta")
        da = delta_op(a_a, alg)
        pre_reports.append(_bool_report("delta_skew_part_zero", da.is_zero(),
                                        "delta(A^a) == 0"))
        nij = nijenhuis(a, alg)
        pre_reports.append(invariance_check(algebra_tensor(nij),
                                            ("L_dual", "L_dual", "ad"), alg,
                                            name="torsion_invariant"))
    for rep in pre_reports:
        if not rep:
            raise ValueError("precondition failed: %s" % rep.line())

    circ = theta_circ_product(alg, theta, a)
    # [(X,Y),(Z,T)] = ([X,Z] + O(A)(T,Y), X.T - Z.Y)
    bracket = Algebra.from_blocks(
        [[(alg.bracket_algebra().product, None), (None, alg.product)],
         [(None, lambda y, z: vec_neg(alg.product(z, y))),
          (lambda y, t: o_def.product(t, y), None)]],
        alg.basis, "'")

    g = theta.matrix
    zero = Mat.zeros(n, n)
    # corner term -2*sym(r)(Theta Y, Theta T) of the transported metric:
    # +2 theta(A^a Y, T) for skew theta, -2 theta(A^s Y, T) for symmetric
    if theta.kind == "skew":
        corner = (a_a.transpose() * g).scale(2)
    else:
        corner = (a_s.transpose() * g).scale(-2)
    metric = Bilinear(Mat.block([[zero, g.transpose()], [g, corner]]),
                      "symmetric")
    ident = Mat.identity(n)
    k = Mat.block([[ident, a.scale(-2)], [zero, -ident]])
    j = Mat.block([[a, -(Mat.identity(n) + a * a)], [ident, -a]])

    reports = list(pre_reports)
    reports.append(_relabel(check(circ, "left_symmetric"),
                            "circ_left_symmetric"))
    if hyper:
        cert_main = verify_hyper_para_kahler(bracket, metric, k, j)
    else:
        cert_main = verify_para_kahler(bracket, metric, k)
    reports.extend(cert_main.reports)
    cert = certify("theta_double", reports)
    return ThetaDoubleData(circ=circ, bracket=bracket, metric=metric, k=k,
                           j=j, cert=cert)


# -- Lie triple systems from defects -------------------------------------------

def lts_from_yb(lie: Algebra, a: Mat) -> LieTriple:
    """L(X,Y,Z) = [YB(A)(X,Y), Z]; requires YB(A) ad-invariant."""
    defect = yb(a, lie)
    inv = invariance_check(algebra_tensor(defect),
                           ("ad_dual", "ad_dual", "ad"), lie,
                           name="yb_ad_invariant")
    if not inv:
        raise ValueError("precondition failed: %s" % inv.line())
    return LieTriple.from_function(
        lie.dim, lambda x, y, z: lie.product(defect.product(x, y), z))


def lts_from_o(alg: Algebra, a: Mat) -> LieTriple:
    """L(X,Y,Z) = O(A)(X,Y).Z; requires O(A) (L_dual, L_dual, ad)-invariant."""
    o_def = o_op(a, alg)
    inv = invariance_check(algebra_tensor(o_def), ("L_dual", "L_dual", "ad"),
                           alg, name="o_defect_invariant")
    if not inv:
        raise ValueError("precondition failed: %s" % inv.line())
    return LieTriple.from_function(
        alg.dim, lambda x, y, z: alg.product(o_def.product(x, y), z))
