"""Phase spaces of left-symmetric algebras.

Given left-symmetric products on a space U and on its dual U*, the
direct sum U + U* carries a canonical extended product, a symmetric
pairing, a skew form and an involution.  This module builds that data,
decides when the extended product is Lie-admissible (three equivalent
routes, cross-checked), and certifies para-Kahler structures.
"""

from __future__ import annotations

import functools
import itertools
from collections import defaultdict
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional

from .algebra import Algebra, _coaction, _int_product, check, nijenhuis
from .exact import Mat, _scatter, basis_vec
from .forms import Bilinear, _levi_civita, _two_cocycle
from .report import (Certificate, Report, _bool_report, _relabel, failing,
                     routes_disagree)


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
    _require_left_symmetric((u, "product on U"), (dual, "product on U*"))
    return _phase(u, dual, _coaction(u, -1))


def _phase(u: Algebra, dual: Algebra, coaction: Algebra) -> PhaseSpace:
    """build_phase for left-symmetric u and dual of one dimension,
    coaction = _coaction(u, -1)."""
    extended = Algebra.from_blocks(
        [[(u, None), (None, coaction)],
         [(_coaction(dual, -1), None), (None, dual)]],
        u.basis, "*")
    pairing0, omega0, k0 = _phase_forms(u.dim)
    return PhaseSpace(u=u, dual=dual, extended=extended, pairing0=pairing0,
                      omega0=omega0, k0=k0)


@functools.lru_cache
def _phase_forms(n: int) -> tuple:
    """(pairing0, omega0, k0) on U + U*, built once per n and shared."""
    ident, zero = Mat.identity(n), Mat.zeros(n, n)
    return (Bilinear(_split_form(ident), "symmetric"),
            Bilinear(Mat.block([[zero, ident], [-ident, zero]]), "skew"),
            _involution(n))


def _require_left_symmetric(*labelled) -> None:
    """ValueError for the first (algebra, label) not left symmetric."""
    for alg, label in labelled:
        rep = check(alg, "left_symmetric")
        if not rep:
            raise ValueError("%s is not left symmetric (witness %s)"
                             % (label, rep.witness))


def _upper_block(n: int, a: Optional[Mat], f: int, s: int) -> Mat:
    """[[I, f A], [0, s I]] on U + U*, assembled from the integer cells of
    the n x n matrix A (A = 0 for None)."""
    den, cells = (1, ((),) * n) if a is None else a._int_view()
    return Mat._of(2 * n, 2 * n, den, [
        ((i, den),) + tuple((n + j, f * x) for j, x in cells[i])
        for i in range(n)] + [((n + i, s * den),) for i in range(n)])


def _involution(n: int, a: Optional[Mat] = None) -> Mat:
    """The involution K_A = [[I, -2A], [0, -I]], A = 0 by default."""
    return _upper_block(n, a, -2, -1)


def _split_form(g: Mat, c: Optional[Mat] = None) -> Mat:
    """The split form [[0, G^t], [G, C]] from cells, C = 0 by default."""
    n, (dg, gcells), gt = g.rows, g._int_view(), g.transpose()._cells
    dc, ccells = (1, ((),) * n) if c is None else c._int_view()
    return Mat._of(2 * n, 2 * n, dg * dc, [
        tuple((n + j, dc * x) for j, x in row) for row in gt] + [
        tuple((j, dc * x) for j, x in grow)
        + tuple((n + j, dg * x) for j, x in crow)
        for grow, crow in zip(gcells, ccells)])


def _rho(u: Algebra, dual: Algebra, x, alpha) -> Mat:
    """[LX, La^t] + L_{La^t X} + L^t_{LX^t a}, LX the left multiplication
    of u and La that of dual."""
    lx = u.left_mult(x)
    la_t = dual.left_mult(alpha).transpose()
    return (lx.commutator(la_t) + u.left_mult(la_t.apply(x))
            + dual.left_mult(lx.transpose().apply(alpha)).transpose())


def rho(ps: PhaseSpace, x, alpha) -> Mat:
    """rho(X,a) = [LX, La^t] + L_{La^t X} + L^t_{LX^t a} on U."""
    return _rho(ps.u, ps.dual, x, alpha)


def _extendible_witness(ps: PhaseSpace):
    """The first (name, i, a, j) with rho(e_i, e^a) e_j != rho(e_j, e^a) e_i,
    then the same for rho* with the roles of U and U* swapped."""
    n = ps.dim
    for name, u, dual in (("rho", ps.u, ps.dual), ("rho_star", ps.dual, ps.u)):
        rhos = [[_rho(u, dual, basis_vec(n, i), basis_vec(n, a))
                 for a in range(n)] for i in range(n)]
        for a in range(n):
            for i in range(n):
                for j in range(i + 1, n):
                    if rhos[i][a].col(j) != rhos[j][a].col(i):
                        return (name, i, a, j)
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
        raise routes_disagree(
            "rho-symmetry and extended-product Lie-admissibility disagree",
            [("rho-symmetry", witness),
             ("extended-product Lie-admissibility", direct.witness)])
    anchor = "rho(X,a)Y == rho(Y,a)X and rho*(a,X)b == rho*(b,X)a"
    return Report("is_lie_extendible", witness is None, anchor, witness=witness)


def _cocycle_witness(alg: Algebra, other: Algebra):
    """1-cocycle law for the dualization of `other` against `alg`:

    xi([X,Y]) == Psi(X) xi(Y) - Psi(Y) xi(X),  Psi = L (x) ad of alg,

    with xi(e_k) the matrix xi_k and Psi(X) t = L_X t + t ad_X^t.  Over
    ints, times D E (the denominators of alg and other): for each pair
    i < j the nonzero cells are summed into the entries (p, q) reached,
    and the witness is the least such entry left nonzero."""
    n, cells = alg.dim, alg._cells
    br = alg.commutator_algebra()
    f = alg._den // br._den                 # the bracket's cells over D
    # the entries of xi_k by rows and by columns: xi_k[a][b] = x at
    # rows[k][a] as (b, x) and at cols[k][b] as (a, x)
    rows = [[[] for _ in range(n)] for _ in range(n)]
    cols = [[[] for _ in range(n)] for _ in range(n)]
    for a, row in enumerate(other._cells):
        for b, cell in enumerate(row):
            for k, x in cell:
                rows[k][a].append((b, x))
                cols[k][b].append((a, x))
    for i, j in itertools.combinations(range(n), 2):
        acc = defaultdict(int)
        for k, x in br._cells[i][j]:                # xi([e_i, e_j])
            for p, row in enumerate(rows[k]):
                for q, y in row:
                    acc[p, q] += f * x * y
        for s, u, v in ((-1, i, j), (1, j, i)):     # -/+ Psi(e_u) xi(e_v)
            for r, cell in enumerate(cells[u]):     # L_u xi_v
                for p, c in cell:
                    for q, y in rows[v][r]:
                        acc[p, q] += s * c * y
            for r, cell in enumerate(br._cells[u]):     # xi_v ad_u^t
                for q, c in cell:
                    for p, y in cols[v][r]:
                        acc[p, q] += s * f * c * y
        bad = min((key for key, x in acc.items() if x), default=None)
        if bad is not None:
            return (i, j) + bad
    return None


def cocycle_check(u: Algebra, dual: Algebra) -> Report:
    """Lie-extendibility through the 1-cocycle characterization.

    The dual product dualizes to a map U -> U x U which must be a
    1-cocycle for L (x) ad of U, and symmetrically with the roles of U
    and U* swapped.  The verdict is cross-checked against
    is_lie_extendible and must agree.
    """
    direct = is_lie_extendible(u, dual)     # checks the dimensions
    w1 = _cocycle_witness(u, dual)
    w2 = _cocycle_witness(dual, u)
    witness = w1 if w1 is not None else (None if w2 is None else ("dual",) + w2)
    if (witness is None) != bool(direct):
        raise routes_disagree(
            "1-cocycle characterization and rho-symmetry disagree",
            [("1-cocycle characterization", witness),
             ("rho-symmetry", direct.witness)])
    anchor = "xi([X,Y]) == Psi(X)xi(Y) - Psi(Y)xi(X) (both sides of the duality)"
    return Report("cocycle_check", witness is None, anchor, witness=witness)


# -- para-Kahler certificates -------------------------------------------------

@dataclass(frozen=True)
class Double:
    """A para-Kahler or hyper-para-Kahler double; metric and J are None
    where the route builds none, parts its named intermediates."""

    bracket: Algebra
    metric: Optional[Bilinear]
    k: Mat
    j: Optional[Mat]
    cert: Certificate
    parts: Mapping[str, object]

    def __post_init__(self):
        object.__setattr__(self, "parts", MappingProxyType(dict(self.parts)))


def _eigenspace_lines(sign: str, shifted: Mat, vecs, lie: Algebra,
                      lc: Algebra, m: Mat, o: Mat) -> list:
    """The subalgebra, isotropic, lagrangian and lc_stable lines of ker S,
    S = shifted with kernel basis B the integer rows vecs: S (a.b), B^t m B,
    B^t o B and S (e_u.b) for the Levi-Civita product lc vanish, over ints."""
    n = lie.dim
    scols, bcols = (x.transpose()._cells for x in (
        shifted, Mat._of(len(vecs), n, 1, vecs)))

    def kills(sums, rows):          # every sparse sum maps to 0 by rows
        return not any(any(_scatter(defaultdict(int), v, rows).values())
                       for v in sums)

    def prods(alg, left):           # a.b for a in left and b in B
        for a, b in itertools.product(left, vecs):
            yield _int_product(defaultdict(int), alg._cells, a, b).items()

    def form(g):                    # a^t g for a in B, pushed through B
        return kills((_scatter(defaultdict(int), a, g._cells).items()
                      for a in vecs), bcols)
    return [_bool_report(law + sign, ok, anchor) for law, ok, anchor in (
        ("subalgebra_", kills(prods(lie, vecs), scols),
         "[g^e, g^e] <= g^e"),
        ("isotropic_", form(m), "<g^e, g^e> == 0"),
        ("lagrangian_", len(vecs) * 2 == n and form(o),
         "omega(g^e, g^e) == 0 at half dimension"),
        ("lc_stable_", kills(prods(lc, [((i, 1),) for i in range(n)]), scols),
         "u . g^e <= g^e for the Levi-Civita product"))]


def _parallel_report(lc: Optional[Algebra], m: Mat, label: str) -> Report:
    """m commutes with every left multiplication L_i of the Levi-Civita
    product lc (witness: the first i where not; failing for no lc).
    Column j of L_i m is e_i.(m e_j), of m L_i it is m(e_i.e_j): over
    ints, D_lc d_m."""
    name = "parallel_" + label.lower()
    anchor = "L_u %s == %s L_u for the Levi-Civita product" % (label, label)
    if lc is None:
        return failing(name, anchor)
    n, cells, cols = lc.dim, lc._int_view()[1], m.transpose()._int_view()[1]
    bad = next(((i,) for i in range(n) if any(
        _scatter([0] * n, cols[j], cells[i])
        != _scatter([0] * n, cells[i][j], cols) for j in range(n))), None)
    return Report(name, bad is None, anchor, witness=bad)


def _para_kahler(lie: Algebra, metric: Bilinear, kmat: Mat, jac: Report,
                 torsion: Optional[Report] = None) -> tuple:
    """(the reports of verify_para_kahler, the Levi-Civita product or None
    where the bracket or metric line fails); jac, the Jacobi report of
    lie, is the bracket line, torsion (if given) the torsion_k line."""
    n = lie.dim
    reports = [_relabel(jac, "bracket"),
               _bool_report("metric", metric.kind == "symmetric"
                            and metric.is_nondegenerate(),
                            "<,> symmetric and nondegenerate")]
    if not reports[-1].passed or not reports[0].passed:
        return reports, None

    ident = Mat.identity(n)
    reports.append(_bool_report("involution", kmat * kmat == ident,
                                "K.K == Id"))
    shifts = (kmat - ident, kmat + ident)           # S for e = 1 and e = -1
    plus, minus = (s._kernel_cells()[1] for s in shifts)
    reports.append(_bool_report(
        "eigenspace_split", len(plus) == len(minus) and len(plus) * 2 == n,
        "dim ker(K-Id) == dim ker(K+Id) == dim/2"))
    # m is symmetric, so K^t m + m K is omega + omega^t for omega = K^t m
    m = metric.matrix
    omega = Bilinear((kmat.transpose() * m), "none")
    skew = omega.matrix.is_antisymmetric()
    reports.append(_bool_report("metric_skew_k", skew,
                                "<Ku,v> + <u,Kv> == 0"))
    lc = _levi_civita(lie, metric)
    reports.append(_parallel_report(lc, kmat, "K"))

    reports.append(torsion if torsion is not None else _bool_report(
        "torsion_k", nijenhuis(kmat, lie).is_zero(), "N_K(u,v) == 0"))
    reports.append(_bool_report("omega_skew",
                                skew and omega.is_nondegenerate(),
                                "<K.,.> skew and nondegenerate"))
    if skew:
        reports.append(_relabel(_two_cocycle(omega, lie), "omega_cocycle"))
    for sign, shifted, vecs in zip(("plus", "minus"), shifts, (plus, minus)):
        reports += _eigenspace_lines(sign, shifted, vecs, lie, lc, m,
                                     omega.matrix)
    return reports, lc


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
    return Certificate("para_kahler", tuple(_para_kahler(
        lie, metric, kmat, check(lie, "jacobi_antisym"))[0]))


def verify_hyper_para_kahler(lie: Algebra, metric: Bilinear, k, j) -> Certificate:
    """Para-Kahler certificate extended by a compatible complex structure;
    J is parallel for the Levi-Civita product of the para-Kahler part."""
    kmat = k.matrix if hasattr(k, "matrix") else k
    jmat = j.matrix if hasattr(j, "matrix") else j
    return Certificate("hyper_para_kahler", _hyper(
        lie, metric, kmat, jmat, check(lie, "jacobi_antisym")))


def _hyper(lie: Algebra, metric: Bilinear, kmat: Mat, jmat: Mat,
           jac: Report, torsions=(None, None)) -> tuple:
    """The reports of verify_hyper_para_kahler, jac as in _para_kahler;
    torsions holds the torsion_k and torsion_j lines, each None to have
    it computed."""
    reports, lc = _para_kahler(lie, metric, kmat, jac, torsions[0])
    ident = Mat.identity(lie.dim)
    reports.append(_bool_report("complex_j", (jmat * jmat) == -ident,
                                "J.J == -Id"))
    reports.append(_bool_report("anticommute", jmat * kmat == -(kmat * jmat),
                                "J.K == -K.J"))
    m = metric.matrix
    reports.append(_bool_report("metric_skew_j",
                                (jmat.transpose() * m + m * jmat).is_zero(),
                                "<Ju,v> + <u,Jv> == 0"))
    reports.append(torsions[1] if torsions[1] is not None else _bool_report(
        "torsion_j", nijenhuis(jmat, lie).is_zero(), "N_J(u,v) == 0"))
    reports.append(_parallel_report(lc, jmat, "J"))
    return tuple(reports)
