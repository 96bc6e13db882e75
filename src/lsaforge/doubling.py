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

from .algebra import (Algebra, _nonzero_cell, _permuted, _slot_sum, _swapped,
                      check, curvature, invariance_check, nijenhuis)
from .exact import Mat, _nonzero_entry, basis_vec
from .forms import Bilinear, a_product, is_invariant_form, is_invariant_iso
from .phase import (_hyper, _involution, _require_left_symmetric, _split_form,
                    verify_hyper_para_kahler, verify_para_kahler)
from .report import (Certificate, Report, _bool_report, _relabel, certify,
                     failing, passing, require, routes_disagree)
from .smatrix import Tensor2, _quasi_s, _twist, classify_r
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
    _require_left_symmetric((bullet, "first product"),
                            (circ, "second product"))
    return _compatible(bullet, circ)[0]


def _compatible(bullet: Algebra, circ: Algebra) -> tuple:
    """(is_compatible's report, the double product, its lie_admissible
    report) for two left-symmetric products."""
    witness = _compat_witness(bullet, circ)
    prod = tu_product(bullet, circ)
    via_double = check(prod, "lie_admissible")
    if (witness is None) != bool(via_double):
        raise routes_disagree(
            "mixed-curvature symmetry and double-product Lie-admissibility"
            " disagree", [("mixed-curvature symmetry", witness),
                          ("double-product Lie-admissibility",
                           via_double.witness)])
    anchor = "K(x,y)z == K(z,y)x and K(x,y)z == K(x,z)y"
    return (Report("is_compatible", witness is None, anchor, witness=witness),
            prod, via_double)


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
        [[(bullet, None), (None, bullet)], [(circ, None), (None, circ)]],
        bullet.basis, "'")


def double_j(n: int) -> Mat:
    ident, zero = Mat.identity(n), Mat.zeros(n, n)
    return Mat.block([[zero, -ident], [ident, zero]])


def _abelian_witness(lie: Algebra, s: Mat, para: bool = False):
    """The first basis pair breaking [Sx, Sy] == [x, y] (S an abelian
    complex structure), or [Sx, Sy] == -[x, y] with para=True (an
    abelian para-complex structure); None where S is abelian."""
    sign = 1 if para else -1
    return _nonzero_cell(_slot_sum(
        [(1, lie, s, s, None), (sign, lie, None, None, None)], lie.basis))


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
    _require_left_symmetric((bullet, "first product"),
                            (circ, "second product"))
    comp, prod, admissible = _compatible(bullet, circ)
    require(comp, "products are not compatible")
    lie = prod.commutator_algebra()
    n = bullet.dim
    k1, j1 = _involution(n), double_j(n)
    reports = [_relabel(admissible, "double_lie_admissible"),
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
    first, second = check(bullet, "commutative"), check(circ, "commutative")
    comm = (("first",) + first.witness if not first
            else None if second else ("second",) + second.witness)
    both_comm = comm is None
    verdicts = [("K1 abelian", _abelian_witness(lie, k1, para=True)),
                ("J1 abelian", _abelian_witness(lie, j1)),
                ("both products commutative", comm)]
    if any((w is None) != both_comm for _, w in verdicts):
        raise routes_disagree(
            "abelianness of K1, of J1 and commutativity of the pair differ",
            verdicts)
    reports.append(passing("abelian_equivalence",
                           "K1 abelian iff J1 abelian iff both products"
                           " commutative",
                           details="all three = %s" % both_comm))
    cert = certify("complex_product", reports)
    return ComplexProductData(product=prod, lie=lie, k1=k1, j1=j1, cert=cert)


def double_metric(omega: Bilinear) -> Bilinear:
    """<(u,v),(w,z)>_1 = omega(z,u) + omega(v,w)."""
    return Bilinear(_split_form(omega.matrix), "symmetric")


@dataclass(frozen=True)
class HyperData:
    complex_product: ComplexProductData
    metric: Bilinear
    cert: Certificate


def build_hyper(bullet: Algebra, circ: Algebra, omega: Bilinear) -> HyperData:
    """Hyper-para-Kahler double of a compatible pair of products both
    leaving omega invariant."""
    for alg, label in ((bullet, "first"), (circ, "second")):
        require(is_invariant_form(omega, alg),
                "omega is not invariant under the %s product" % label)
    if not omega.is_nondegenerate() or omega.kind != "skew":
        raise ValueError("omega must be skew and nondegenerate")
    cp = build_complex_product(bullet, circ)
    metric = double_metric(omega)
    # the complex product's double_jacobi line is the Jacobi check of cp.lie
    cert = certify("hyper_para_kahler", _hyper(
        cp.lie, metric, cp.k1, cp.j1, cp.cert.reports[1]))
    return HyperData(complex_product=cp, metric=metric, cert=cert)


# -- Yang-Baxter machinery on symplectic Lie algebras -------------------------

def yb(a: Mat, lie: Algebra) -> Algebra:
    """YB(A)(X,Y) = A[AX,Y] + A[X,AY] - [AX,AY]."""
    require(check(lie, "jacobi_antisym"), "product is not a Lie bracket")
    return _yb(a, lie)


def _yb(a: Mat, lie: Algebra) -> Algebra:      # yb for a Lie bracket
    return _slot_sum([(1, lie, a, None, a), (1, lie, None, a, a),
                      (-1, lie, a, a, None)], lie.basis)


def myb_residual(a: Mat, lie: Algebra, t) -> Report:
    """Residual YB(A)(X,Y) - t[X,Y] on basis pairs (modified Yang-Baxter)."""
    t = Fraction(t)
    bad = _nonzero_cell(yb(a, lie).add(lie.scale(-t)))
    return Report("myb_residual", bad is None, "YB(A)(x,y) == t[x,y]",
                  witness=bad, details="t=%s" % t)


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
        raise routes_disagree(
            "endomorphism preconditions and quasi-S classification disagree",
            [(route, next(((rep.name, rep.witness) for rep in reps if not rep),
                          None)) for route, reps in
             (("endomorphism preconditions", (inv_yb, inv_s)),
              ("quasi-S classification", cls.reports[:2]))])
    return cls.is_quasi_s


def _symp_transport_crosscheck(dot: Algebra, omega: Bilinear, a: Mat,
                               bracket: Algebra, metric: Bilinear,
                               k: Mat) -> None:
    """The direct formulas must agree with the transport of the twist
    construction along mu: (X, Y) -> (X, flat(Y)); each structure is
    compared through the stored form of its difference, and a
    disagreement names the first differing basis pair or entry of each."""
    r = Tensor2(dot, _symp_r_matrix(omega, a))
    tw = _twist(dot, r, *_quasi_s(dot, r))      # dot is left symmetric
    n = dot.dim
    gt = omega.matrix.transpose()
    mu = Mat.block([[Mat.identity(n), Mat.zeros(n, n)],
                    [Mat.zeros(n, n), gt]])
    verdicts = [
        ("bracket", _nonzero_cell(bracket.add(
            tw.twisted.conjugate(mu).scale(-1)))),
        ("metric", _nonzero_entry(
            metric.matrix - mu.transpose() * tw.metric_r.matrix * mu)),
        ("involution", _nonzero_entry(k - mu.inverse() * tw.k_r * mu))]
    if any(w is not None for _, w in verdicts):
        raise routes_disagree(
            "direct formulas and the transported twist construction disagree",
            verdicts)


def _symp_circ(dot: Algebra, a: Mat, diff: Mat) -> Algebra:
    """X°Y = X.(diff Y) - (AX).Y, diff = A^s - A^a."""
    return _slot_sum([(1, dot, None, diff, None), (-1, dot, a, None, None)],
                     dot.basis)


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
    defect = _yb(a, lie)
    inv_yb = invariance_check(defect, ("ad_dual", "ad_dual", "ad"), lie,
                              name="yb_ad_invariant")
    a_s, a_a = sym_skew_parts(a, omega)
    # L_X(A^s u) == A^s [X, u]: the symmetric part intertwines ad with
    # the left multiplication of the induced left-symmetric product.
    inv_s = invariance_check(a_s.transpose(), ("ad_dual", "L"), dot,
                             name="sym_part_intertwines")
    quasi = _symp_quasi_s_crosscheck(dot, omega, a, inv_yb, inv_s)
    for rep in (inv_yb, inv_s):
        require(rep, "precondition failed")
    n = lie.dim
    circ = _symp_circ(dot, a, a_s - a_a)
    # [(X,Y),(Z,T)] = ([X,Z] + YB(A)(Y,T), [X,T] + [Y,Z])
    bracket = Algebra.from_blocks(
        [[(lie, None), (None, lie)], [(None, lie), (defect, None)]],
        lie.basis, "'")

    g = omega.matrix
    metric = Bilinear(_split_form(g, (a_a.transpose() * g).scale(2)),
                      "symmetric")
    k = _involution(n, a)

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
    return _slot_sum([(1, alg, None, a, None),
                      (-1, _swapped(alg), a, None, None),
                      (-1, alg.commutator_algebra(), None, None, a)],
                     alg.basis)


def o_op(a: Mat, alg: Algebra) -> Algebra:
    """O(A)(X,Y) = [AX,AY] - (A(AX.Y) - A(AY.X))."""
    return _slot_sum([(1, alg.commutator_algebra(), a, a, None),
                      (-1, alg, a, None, a), (1, _swapped(alg), None, a, a)],
                     alg.basis)


def oeq_check(a: Mat, alg: Algebra) -> Report:
    """The exact identity O(A) == N_A + A o delta(A), the three maps
    computed by their own routes and compared in one `_slot_sum`."""
    bad = _nonzero_cell(_slot_sum(
        [(1, o_op(a, alg), None, None, None),
         (-1, nijenhuis(a, alg.commutator_algebra()), None, None, None),
         (-1, delta_op(a, alg), None, None, a)], alg.basis))
    return Report("oeq_check", bad is None,
                  "O(A)(x,y) == N_A(x,y) + A(delta(A)(x,y))", witness=bad)


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
    <a, P(X,Y)> = <delta(A^s - A^a)(Theta^{-1} a, Y), X>.  With G the
    matrix of theta, Theta^{-1} a = G^-t a, so P is the table of delta
    with its first and output index swapped, moved by G in the left slot
    and by G^-1 on the output, and Q = -P: all terms are one `_slot_sum`.
    """
    if theta.kind not in ("skew", "symmetric"):
        raise ValueError("theta must be skew or symmetric")
    if not theta.is_nondegenerate():
        raise ValueError("theta must be nondegenerate")
    a_s, a_a = sym_skew_parts(a, theta)
    flipped = _permuted(delta_op(a_s - a_a, alg), (2, 1, 0))
    g, opp = theta.matrix, _swapped(alg)
    if theta.kind == "skew":
        terms = [(1, alg.commutator_algebra(), a, None, None),
                 (1, opp, None, None, a), (-1, flipped, g, None, g.inverse())]
    else:
        terms = [(1, opp, a, None, None), (1, alg, a, None, None),
                 (-1, opp, None, None, a), (1, flipped, g, None, g.inverse())]
    return _slot_sum(terms, alg.basis)


def build_theta_double(alg: Algebra, theta: Bilinear, a: Mat,
                       hyper: bool = False) -> ThetaDoubleData:
    """Doubles built from an invariant isomorphism onto the dual.

    Preconditions: theta is an invariant nondegenerate form; O(A) is
    (L_dual, L_dual, ad)-invariant; the symmetric part of A (for skew
    theta) or its skew part (for symmetric theta) commutes with all left
    multiplications.  For hyper certificates (skew theta) additionally
    delta(A^a) == 0 and N_A invariant.
    """
    iso = require(is_invariant_iso(theta, alg),
                  "theta is not an invariant isomorphism")
    n = alg.dim
    o_def = o_op(a, alg)
    inv_o = invariance_check(o_def, ("L_dual", "L_dual", "ad"), alg,
                             name="o_defect_invariant")
    a_s, a_a = sym_skew_parts(a, theta)
    part = a_s if theta.kind == "skew" else a_a
    inv_part = invariance_check(part.transpose(), ("L_dual", "L"), alg,
                                name="part_L_invariant")
    pre_reports = [iso, inv_o, inv_part]
    if hyper:
        if theta.kind != "skew":
            raise ValueError("hyper certificates require skew theta")
        da = delta_op(a_a, alg)
        pre_reports.append(_bool_report("delta_skew_part_zero", da.is_zero(),
                                        "delta(A^a) == 0"))
        nij = nijenhuis(a, alg.commutator_algebra())
        pre_reports.append(invariance_check(nij, ("L_dual", "L_dual", "ad"),
                                            alg, name="torsion_invariant"))
    for rep in pre_reports:
        require(rep, "precondition failed")

    circ = theta_circ_product(alg, theta, a)
    # [(X,Y),(Z,T)] = ([X,Z] + O(A)(T,Y), X.T - Z.Y)
    bracket = Algebra.from_blocks(
        [[(alg.commutator_algebra(), None), (None, alg)],
         [(None, _swapped(alg.scale(-1))), (_swapped(o_def), None)]],
        alg.basis, "'")

    g = theta.matrix
    # corner term -2*sym(r)(Theta Y, Theta T) of the transported metric:
    # +2 theta(A^a Y, T) for skew theta, -2 theta(A^s Y, T) for symmetric
    if theta.kind == "skew":
        corner = (a_a.transpose() * g).scale(2)
    else:
        corner = (a_s.transpose() * g).scale(-2)
    metric = Bilinear(_split_form(g, corner), "symmetric")
    k = _involution(n, a)
    ident = Mat.identity(n)
    j = Mat.block([[a, -(ident + a * a)], [ident, -a]])

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
    require(invariance_check(defect, ("ad_dual", "ad_dual", "ad"), lie,
                             name="yb_ad_invariant"), "precondition failed")
    return LieTriple.compose(defect, lie)


def lts_from_o(alg: Algebra, a: Mat) -> LieTriple:
    """L(X,Y,Z) = O(A)(X,Y).Z; requires O(A) (L_dual, L_dual, ad)-invariant."""
    o_def = o_op(a, alg)
    require(invariance_check(o_def, ("L_dual", "L_dual", "ad"),
                             alg, name="o_defect_invariant"),
            "precondition failed")
    return LieTriple.compose(o_def, alg)
