"""Phase spaces of left-symmetric algebras.

Given left-symmetric products on a space U and on its dual U*, the
direct sum U + U* carries a canonical extended product, a symmetric
pairing, a skew form and an involution.  This module builds that data,
decides when the extended product is Lie-admissible (three equivalent
routes, cross-checked), and certifies para-Kahler structures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import Algebra, check, nijenhuis
from .exact import Mat, Subspace, ZERO, basis_vec, dot, vec_neg, vec_sub
from .forms import Bilinear, is_two_cocycle, levi_civita
from .report import (Certificate, InternalInconsistency, Report, _bool_report,
                     _relabel, failing, passing)


@dataclass(frozen=True)
class PhaseSpace:
    u: Algebra
    dual: Algebra
    extended: Algebra           # product on U + U*, dimension 2n
    pairing0: Bilinear          # <u+a, v+b>_0 = a(v) + b(u)
    omega0: Bilinear            # Omega_0(u+a, v+b) = b(u) - a(v)
    k0: Mat                     # involution (u, a) -> (u, -a)

    @property
    def dim(self) -> int:
        return self.u.dim


def build_phase(u: Algebra, dual: Optional[Algebra] = None) -> PhaseSpace:
    """Extended product on U + U*:

    (X+a).(Y+b) = X.Y - La^t(Y) - LX^t(b) + a.b,

    where La is left multiplication of the dual product and LX of the
    product on U.  Both inputs must be left symmetric.
    """
    if dual is None:
        dual = Algebra.zero(u.dim)
    if dual.dim != u.dim:
        raise ValueError("dual product dimension mismatch")
    for alg, label in ((u, "product on U"), (dual, "product on U*")):
        rep = check(alg, "left_symmetric")
        if not rep:
            raise ValueError("%s is not left symmetric (witness %s)"
                             % (label, rep.witness))
    extended = Algebra.from_blocks(
        [[(u.product, None),
          (None, lambda x, b: vec_neg(u.left_mult(x).transpose().apply(b)))],
         [(lambda a, y: vec_neg(dual.left_mult(a).transpose().apply(y)),
           None),
          (None, dual.product)]],
        u.basis, "*")
    n = u.dim
    ident = Mat.identity(n)
    zero = Mat.zeros(n, n)
    pairing0 = Bilinear(Mat.block([[zero, ident], [ident, zero]]), "symmetric")
    omega0 = Bilinear(Mat.block([[zero, ident], [-ident, zero]]), "skew")
    k0 = Mat.block([[ident, zero], [zero, -ident]])
    return PhaseSpace(u=u, dual=dual, extended=extended, pairing0=pairing0,
                      omega0=omega0, k0=k0)


def rho(ps: PhaseSpace, x, alpha) -> Mat:
    """rho(X,a) = [LX, La^t] + L_{La^t X} + L^t_{LX^t a} on U."""
    u, dual = ps.u, ps.dual
    lx = u.left_mult(x)
    la_t = dual.left_mult(alpha).transpose()
    term1 = lx.commutator(la_t)
    term2 = u.left_mult(la_t.apply(x))
    term3 = dual.left_mult(lx.transpose().apply(alpha)).transpose()
    return term1 + term2 + term3


def rho_star(ps: PhaseSpace, alpha, x) -> Mat:
    """Mirror of rho on U*: rho*(a,X) = [La, LX^t] + L_{LX^t a} + L^t_{La^t X}."""
    u, dual = ps.u, ps.dual
    la = dual.left_mult(alpha)
    lx_t = u.left_mult(x).transpose()
    term1 = la.commutator(lx_t)
    term2 = dual.left_mult(lx_t.apply(alpha))
    term3 = u.left_mult(la.transpose().apply(x)).transpose()
    return term1 + term2 + term3


def _extendible_witness(ps: PhaseSpace):
    n = ps.dim
    rhos = [[rho(ps, basis_vec(n, i), basis_vec(n, a)) for a in range(n)]
            for i in range(n)]
    for a in range(n):
        for i in range(n):
            for j in range(i + 1, n):
                if rhos[i][a].col(j) != rhos[j][a].col(i):
                    return ("rho", i, a, j)
    rho_stars = [[rho_star(ps, basis_vec(n, a), basis_vec(n, i))
                  for i in range(n)] for a in range(n)]
    for i in range(n):
        for a in range(n):
            for b in range(a + 1, n):
                if rho_stars[a][i].col(b) != rho_stars[b][i].col(a):
                    return ("rho_star", a, i, b)
    return None


def is_lie_extendible(u: Algebra, dual: Algebra) -> Report:
    """Whether the extended product is Lie-admissible.

    Decided by the symmetry of rho and rho* in their vector arguments and
    cross-checked against the Lie-admissibility of the extended product;
    the two must agree.
    """
    ps = build_phase(u, dual)
    witness = _extendible_witness(ps)
    direct = check(ps.extended, "lie_admissible")
    if (witness is None) != bool(direct):
        raise InternalInconsistency(
            "rho-symmetry and extended-product Lie-admissibility disagree")
    anchor = "rho(X,a)Y == rho(Y,a)X and rho*(a,X)b == rho*(b,X)a"
    if witness is None:
        return passing("is_lie_extendible", anchor)
    return failing("is_lie_extendible", anchor, witness=witness)


def _dualized(alg: Algebra):
    """xi(e_k) in U x U coordinates: xi_k[a][b] = <e_a* . e_b*, e_k>."""
    n = alg.dim
    return [[[alg.table[a][b][k] for b in range(n)] for a in range(n)]
            for k in range(n)]


def _psi_apply(t, l_mat: Mat, ad_mat: Mat):
    """(L (x) ad) action: apply l to the first index, ad to the second."""
    n = l_mat.rows
    out = [[ZERO] * n for _ in range(n)]
    for p in range(n):
        for q in range(n):
            s = ZERO
            for r in range(n):
                if l_mat[p, r]:
                    s += l_mat[p, r] * t[r][q]
                if ad_mat[q, r]:
                    s += ad_mat[q, r] * t[p][r]
            out[p][q] = s
    return out


def _cocycle_witness(alg: Algebra, other: Algebra):
    """1-cocycle law for the dualization of `other` against `alg`:

    xi([X,Y]) == Psi(X) xi(Y) - Psi(Y) xi(X),  Psi = L (x) ad of alg.
    """
    n = alg.dim
    xi = _dualized(other)
    ls = alg.left_mults()
    ads = alg.bracket_algebra().left_mults()
    for i in range(n):
        for j in range(i + 1, n):
            br = vec_sub(alg.table[i][j], alg.table[j][i])
            lhs = [[sum((br[k] * xi[k][p][q] for k in range(n)), ZERO)
                    for q in range(n)] for p in range(n)]
            rhs_a = _psi_apply(xi[j], ls[i], ads[i])
            rhs_b = _psi_apply(xi[i], ls[j], ads[j])
            for p in range(n):
                for q in range(n):
                    if lhs[p][q] != rhs_a[p][q] - rhs_b[p][q]:
                        return (i, j, p, q)
    return None


def cocycle_check(u: Algebra, dual: Algebra) -> Report:
    """Lie-extendibility through the 1-cocycle characterization.

    The dual product dualizes to a map U -> U x U which must be a
    1-cocycle for L (x) ad of U, and symmetrically with the roles of U
    and U* swapped.  The verdict is cross-checked against
    is_lie_extendible and must agree.
    """
    w1 = _cocycle_witness(u, dual)
    w2 = _cocycle_witness(dual, u)
    witness = w1 if w1 is not None else (None if w2 is None else ("dual",) + w2)
    direct = is_lie_extendible(u, dual)
    if (witness is None) != bool(direct):
        raise InternalInconsistency(
            "1-cocycle characterization and rho-symmetry disagree")
    anchor = "xi([X,Y]) == Psi(X)xi(Y) - Psi(Y)xi(X) (both sides of the duality)"
    if witness is None:
        return passing("cocycle_check", anchor)
    return failing("cocycle_check", anchor, witness=witness)


# -- para-Kahler certificates -------------------------------------------------

def _eigenspace(k: Mat, val) -> Subspace:
    n = k.rows
    shifted = k - Mat.identity(n).scale(val)
    return Subspace(n, shifted.kernel_basis())


def verify_para_kahler(lie: Algebra, metric: Bilinear, k) -> Certificate:
    """Certificate that (lie, metric, k) is a para-Kahler Lie algebra.

    Axioms: the product is a Lie bracket, the metric symmetric and
    nondegenerate, k an involution with equal-dimensional eigenspaces,
    skew for the metric, and parallel for the Levi-Civita product.
    Consequences re-verified: vanishing torsion of k, the induced skew
    form is a nondegenerate two-cocycle, and the eigenspaces are
    Lagrangian subalgebras preserved by the Levi-Civita product.
    """
    kmat = k.matrix if hasattr(k, "matrix") else k
    n = lie.dim
    reports = []
    reports.append(_relabel(check(lie, "jacobi_antisym"), "bracket"))
    if metric.kind == "symmetric" and metric.is_nondegenerate():
        reports.append(passing("metric", "<,> symmetric and nondegenerate"))
    else:
        reports.append(failing("metric", "<,> symmetric and nondegenerate"))
    if not reports[-1].passed or not reports[0].passed:
        return Certificate("para_kahler", tuple(reports))

    ident = Mat.identity(n)
    reports.append(_bool_report("involution", kmat * kmat == ident,
                                "K.K == Id"))
    plus = _eigenspace(kmat, 1)
    minus = _eigenspace(kmat, -1)
    reports.append(_bool_report(
        "eigenspace_split", plus.dim == minus.dim and plus.dim * 2 == n,
        "dim ker(K-Id) == dim ker(K+Id) == dim/2"))
    m = metric.matrix
    reports.append(_bool_report("metric_skew_k",
                                (kmat.transpose() * m + m * kmat).is_zero(),
                                "<Ku,v> + <u,Kv> == 0"))
    lc = levi_civita(lie, metric)
    parallel = None
    for i, li in enumerate(lc.left_mults()):
        if li * kmat != kmat * li:
            parallel = (i,)
            break
    reports.append(Report("parallel_k", parallel is None,
                          "L_u K == K L_u for the Levi-Civita product",
                          witness=parallel))

    torsion = nijenhuis(kmat, lie)
    reports.append(_bool_report("torsion_k", torsion.is_zero(),
                                "N_K(u,v) == 0"))
    omega = Bilinear((kmat.transpose() * m), "none")
    reports.append(_bool_report("omega_skew",
                                omega.matrix.is_antisymmetric()
                                and omega.is_nondegenerate(),
                                "<K.,.> skew and nondegenerate"))
    if omega.matrix.is_antisymmetric():
        coc = is_two_cocycle(Bilinear(omega.matrix, "skew"), lie)
        reports.append(_relabel(coc, "omega_cocycle"))
    for sign, space in (("plus", plus), ("minus", minus)):
        closed = all(space.contains(lie.product(a, b))
                     for a in space.basis for b in space.basis)
        reports.append(_bool_report("subalgebra_" + sign, closed,
                                    "[g^e, g^e] <= g^e"))
        isotropic = all(metric.value(a, b) == 0
                        for a in space.basis for b in space.basis)
        reports.append(_bool_report("isotropic_" + sign, isotropic,
                                    "<g^e, g^e> == 0"))
        lagr = all(dot(a, omega.matrix.apply(b)) == 0
                   for a in space.basis for b in space.basis)
        reports.append(_bool_report("lagrangian_" + sign,
                                    lagr and space.dim * 2 == n,
                                    "omega(g^e, g^e) == 0 at half dimension"))
        stable = all(space.contains(lc.product(basis_vec(n, i), b))
                     for i in range(n) for b in space.basis)
        reports.append(_bool_report("lc_stable_" + sign, stable,
                                    "u . g^e <= g^e for the Levi-Civita product"))
    return Certificate("para_kahler", tuple(reports))


def verify_hyper_para_kahler(lie: Algebra, metric: Bilinear, k, j) -> Certificate:
    """Para-Kahler certificate extended by a compatible complex structure."""
    kmat = k.matrix if hasattr(k, "matrix") else k
    jmat = j.matrix if hasattr(j, "matrix") else j
    base = verify_para_kahler(lie, metric, kmat)
    reports = list(base.reports)
    n = lie.dim
    ident = Mat.identity(n)
    reports.append(_bool_report("complex_j", (jmat * jmat) == -ident,
                                "J.J == -Id"))
    reports.append(_bool_report("anticommute", jmat * kmat == -(kmat * jmat),
                                "J.K == -K.J"))
    m = metric.matrix
    reports.append(_bool_report("metric_skew_j",
                                (jmat.transpose() * m + m * jmat).is_zero(),
                                "<Ju,v> + <u,Jv> == 0"))
    torsion = nijenhuis(jmat, lie)
    reports.append(_bool_report("torsion_j", torsion.is_zero(),
                                "N_J(u,v) == 0"))
    lc = levi_civita(lie, metric)
    parallel = None
    for i, li in enumerate(lc.left_mults()):
        if li * jmat != jmat * li:
            parallel = (i,)
            break
    reports.append(Report("parallel_j", parallel is None,
                          "L_u J == J L_u for the Levi-Civita product",
                          witness=parallel))
    return Certificate("hyper_para_kahler", tuple(reports))
