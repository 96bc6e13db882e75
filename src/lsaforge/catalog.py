"""Canonical families, constructive normal forms, and flat-metric builders.

Dimension-two symplectic left-symmetric algebras and compatible pairs,
the two model shapes of associative symplectic algebras together with
normalizers that land any instance onto a model by an explicit
symplectic basis change, quadratic symplectic algebras built from a
graded tensor construction, para-Kahler doubles of flat metrics and of
Yang-Baxter data, and the invertible-derivation construction on phase
spaces.  Every builder re-verifies its output; every normalizer
re-applies its basis change and compares structure constants exactly.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from typing import Optional, Tuple

from .algebra import (Algebra, Endo, check, invariance_check, is_derivation,
                      product_subspaces)
from .doubling import is_compatible
from .exact import (Mat, Subspace, ZERO, ONE, basis_vec, form_value,
                    is_zero_vec, lagrangian_complement, parse_rational, solve,
                    symp_orthogonal, vec, vec_add, vec_neg, vec_scale,
                    vec_sub, zero_vec)
from .forms import (Bilinear, is_flat, is_invariant_form, is_two_cocycle,
                    levi_civita)
from .phase import build_phase, verify_para_kahler
from .report import (Certificate, InternalInconsistency, Report, _bool_report,
                     _relabel, certify)
from .smatrix import (Tensor2, coadjoint_double, semidirect_bracket,
                      twisted_structures)

FAMILIES = ("dim2_abelian", "dim2_nonabelian", "compat_family1",
            "compat_family2", "assoc_type_one", "assoc_type_two")


@dataclass(frozen=True)
class CanonicalId:
    """Result of a normalizer: which family, with which parameters.

    Applying change_of_basis (columns are the new basis vectors) to the
    input algebra yields exactly the canonical structure constants; the
    fingerprint collects basis-independent invariants, reported
    separately because the landed-on parameter may depend on the
    deterministic basis choice.
    """

    family: str
    params: dict
    change_of_basis: Endo
    fingerprint: dict = field(default_factory=dict)


def _frac(x) -> Fraction:
    if isinstance(x, str):
        return parse_rational(x)
    return Fraction(x)


def _nonzero(params: dict, *names):
    out = []
    for name in names:
        if name not in params:
            raise ValueError("missing parameter %r" % name)
        val = _frac(params[name])
        if val == 0:
            raise ValueError("parameter %r must be nonzero" % name)
        out.append(val)
    return out


def _std_omega2() -> Bilinear:
    return Bilinear(Mat.from_rows([[0, 1], [-1, 0]]), "skew")


def _alg_from_left_mults(mats) -> Algebra:
    """Structure constants from the list of left-multiplication matrices."""
    n = len(mats)
    return Algebra([[tuple(mats[i].col(j)) for j in range(n)]
                    for i in range(n)])


def _sym_block(q: int) -> Mat:
    """Standard symplectic Gram on an even-dimensional space."""
    rows = [[ZERO] * q for _ in range(q)]
    for k in range(0, q, 2):
        rows[k][k + 1] = ONE
        rows[k + 1][k] = -ONE
    return Mat.from_rows(rows)


# -- canonical families -------------------------------------------------------

def _canonical_dim2_abelian(params):
    (a,) = _nonzero(params, "a")
    z = zero_vec(2)
    alg = Algebra([[z, z], [z, (a, ZERO)]])
    return {"alg": alg, "omega": _std_omega2()}


def _canonical_dim2_nonabelian(params):
    (a,) = _nonzero(params, "a")
    z = zero_vec(2)
    alg = Algebra([[z, (a, ZERO)], [(-a, ZERO), (ZERO, a)]])
    return {"alg": alg, "omega": _std_omega2()}


def _canonical_compat_family1(params):
    a, b = _nonzero(params, "a", "b")
    bullet = _alg_from_left_mults([Mat.from_rows([[0, a], [0, 0]]),
                                   Mat.from_rows([[-a, -b], [0, a]])])
    circ = _alg_from_left_mults([Mat.zeros(2, 2),
                                 Mat.from_rows([[0, b], [0, 0]])])
    return {"bullet": bullet, "circ": circ, "omega": _std_omega2()}


def _canonical_compat_family2(params):
    a, b, c = _nonzero(params, "a", "b", "c")
    bullet = _alg_from_left_mults([Mat.from_rows([[0, a], [0, 0]]),
                                   Mat.from_rows([[-a, b], [0, a]])])
    circ = _alg_from_left_mults([Mat.from_rows([[0, c], [0, 0]]),
                                 Mat.from_rows([[-c, -b], [0, c]])])
    return {"bullet": bullet, "circ": circ, "omega": _std_omega2()}


def _sym_mats(raw, count, size, label):
    mats = []
    if len(raw) != count:
        raise ValueError("%s must list %d matrices" % (label, count))
    for entry in raw:
        m = entry if isinstance(entry, Mat) else \
            Mat.from_rows([[_frac(x) for x in row] for row in entry])
        if m.rows != size or m.cols != size:
            raise ValueError("%s matrices must be %dx%d" % (label, size, size))
        if not m.is_symmetric():
            raise ValueError("%s matrices must be symmetric" % label)
        mats.append(m)
    return tuple(mats)


def _type_one_omega(p: int, q: int) -> Bilinear:
    n = 2 * p + q
    rows = [[ZERO] * n for _ in range(n)]
    for k in range(p):
        rows[k][p + q + k] = -ONE
        rows[p + q + k][k] = ONE
    sb = _sym_block(q)
    for i in range(q):
        for j in range(q):
            rows[p + i][p + j] = sb[i, j]
    return Bilinear(Mat.from_rows(rows), "skew")


def _canonical_assoc_type_one(params):
    p = int(params.get("dim_v", 0))
    q = int(params.get("dim_i", 0))
    if p < 1:
        raise ValueError("dim_v must be at least 1")
    if q < 0 or q % 2 != 0:
        raise ValueError("dim_i must be a nonnegative even integer")
    m_maps = _sym_mats(params.get("m", ()), p, p, "m")
    n_maps = _sym_mats(params.get("n", ()), q, p, "n")
    n = 2 * p + q
    z = zero_vec(n)
    table = [[z for _ in range(n)] for _ in range(n)]
    dual = p + q

    def vcoords(front):
        return tuple(front) + zero_vec(n - p)

    for a in range(p):
        for b in range(p):
            table[dual + a][dual + b] = vcoords(m_maps[a].row(b))
    for i in range(q):
        for b in range(p):
            table[p + i][dual + b] = vcoords(n_maps[i].row(b))
    alg = Algebra(table)
    omega = _type_one_omega(p, q)
    _assert_model(alg, omega, expect_u3_zero=True)
    return {"alg": alg, "omega": omega}


def _type_two_dims(params):
    p0 = int(params.get("dim_v0", 0))
    p1 = int(params.get("dim_v1", 0))
    q0 = int(params.get("dim_i0", 0))
    q1 = int(params.get("dim_i1", 0))
    if p0 < 1 or p1 < 0:
        raise ValueError("dim_v0 must be at least 1 and dim_v1 nonnegative")
    if q0 < 0 or q0 % 2 or q1 < 0 or q1 % 2:
        raise ValueError("dim_i0 and dim_i1 must be nonnegative even integers")
    return p0, p1, q0, q1


def _type_two_maps(params):
    p0, p1, q0, q1 = _type_two_dims(params)
    p = p0 + p1
    a_maps = _sym_mats(params.get("a", ()), p1, p0, "a")
    b_maps = _sym_mats(params.get("b", ()), q0, p0, "b")
    c_maps = _sym_mats(params.get("c", ()), q1, p, "c")
    d_maps = _sym_mats(params.get("d", ()), p, p, "d")
    raw_f = params.get("f", ())
    if len(raw_f) != p or any(len(row) != p0 for row in raw_f):
        raise ValueError("f must be a %dx%d array of I0-coordinate vectors"
                         % (p, p0))
    f_map = tuple(tuple(vec([_frac(x) for x in cell]) for cell in row)
                  for row in raw_f)
    for row in f_map:
        for cell in row:
            if len(cell) != q0:
                raise ValueError("f entries must have %d coordinates" % q0)
    return (p0, p1, q0, q1), a_maps, b_maps, c_maps, d_maps, f_map


def check_type_two_constraints(params) -> Certificate:
    """The two associativity constraint equations of the second model,
    evaluated on all basis covector tuples of the relevant annihilator
    subspaces."""
    dims, a_maps, b_maps, _c_maps, d_maps, f_map = _type_two_maps(params)
    p0, p1, q0, _q1 = dims
    p = p0 + p1
    s0 = _sym_block(q0)
    reports = []

    def a_of_e1(alpha, beta, g, m):
        # a(E_1(alpha, beta))(g, m): E has V1 coordinates d(alpha)[beta, p0+t]
        total = ZERO
        for t in range(p1):
            coef = d_maps[alpha][beta, p0 + t]
            if coef:
                total += coef * a_maps[t][g, m]
        return total

    def b_of_f(alpha, beta, g, m):
        total = ZERO
        for k in range(q0):
            coef = f_map[alpha][beta][k]
            if coef:
                total += coef * b_maps[k][g, m]
        return total

    def s0_val(u, v):
        return form_value(s0, u, v) if q0 else ZERO

    w1 = None
    for alpha in range(p):
        for beta in range(p0):
            for g in range(p0):
                for m in range(p0):
                    lhs = a_of_e1(alpha, beta, g, m) + b_of_f(alpha, beta, g, m)
                    rhs = s0_val(f_map[beta][g], f_map[alpha][m])
                    if lhs != rhs:
                        w1 = (alpha, beta, g, m)
                        break
                if w1:
                    break
            if w1:
                break
        if w1:
            break
    reports.append(Report(
        "constraint_mixed", w1 is None,
        "a(E1(alpha,beta1))(g,m) + b(F(alpha,beta1))(g,m)"
        " == s0(F(beta1,g), F(alpha,m))", witness=w1))

    w2 = None
    for alpha in range(p):
        for beta in range(p0, p):
            for g in range(p0):
                for m in range(p0):
                    lhs = a_of_e1(alpha, beta, g, m)
                    rhs = s0_val(f_map[beta][g], f_map[alpha][m])
                    if lhs != rhs:
                        w2 = (alpha, beta, g, m)
                        break
                if w2:
                    break
            if w2:
                break
        if w2:
            break
    reports.append(Report(
        "constraint_pure", w2 is None,
        "a(E1(alpha,beta0))(g,m) == s0(F(beta0,g), F(alpha,m))", witness=w2))
    return Certificate("type_two_constraints", tuple(reports))


def _type_two_omega(p0, p1, q0, q1) -> Bilinear:
    p = p0 + p1
    n = 2 * p + q0 + q1
    rows = [[ZERO] * n for _ in range(n)]
    dual = p + q0 + q1
    for k in range(p):
        rows[k][dual + k] = -ONE
        rows[dual + k][k] = ONE
    for off, q in ((p, q0), (p + q0, q1)):
        sb = _sym_block(q)
        for i in range(q):
            for j in range(q):
                rows[off + i][off + j] = sb[i, j]
    return Bilinear(Mat.from_rows(rows), "skew")


def _canonical_assoc_type_two(params):
    dims, a_maps, b_maps, c_maps, d_maps, f_map = _type_two_maps(params)
    p0, p1, q0, q1 = dims
    cons = check_type_two_constraints(params)
    if not cons.passed:
        bad = cons.first_failure()
        raise ValueError("type-two constraint violated: %s" % bad.line())
    p = p0 + p1
    n = 2 * p + q0 + q1
    dual = p + q0 + q1
    s0 = _sym_block(q0)
    z = zero_vec(n)
    table = [[z for _ in range(n)] for _ in range(n)]

    def embed(front, off):
        return zero_vec(off) + tuple(front) + zero_vec(n - off - len(front))

    # V1 . V1^0 and I0 . V1^0 land in V0
    for k in range(p1):
        for b in range(p0):
            table[p0 + k][dual + b] = embed(a_maps[k].row(b), 0)
    for k in range(q0):
        for b in range(p0):
            table[p + k][dual + b] = embed(b_maps[k].row(b), 0)
    # V* . I0 lands in V0 through s0 and F
    for a in range(p):
        for k in range(q0):
            front = [form_value(s0, basis_vec(q0, k), f_map[a][l])
                     for l in range(p0)]
            table[dual + a][p + k] = embed(front, 0)
    # I1 . V* lands in V
    for k in range(q1):
        for a in range(p):
            table[p + q0 + k][dual + a] = embed(c_maps[k].row(a), 0)
    # V* . V* = E + F
    for a in range(p):
        for b in range(p):
            cell = list(embed(d_maps[a].row(b), 0))
            if b < p0:
                for k in range(q0):
                    cell[p + k] = f_map[a][b][k]
            table[dual + a][dual + b] = tuple(cell)
    alg = Algebra(table)
    omega = _type_two_omega(p0, p1, q0, q1)
    _assert_model(alg, omega, expect_u3_zero=False)
    return {"alg": alg, "omega": omega}


def _assert_model(alg: Algebra, omega: Bilinear, expect_u3_zero: bool):
    assoc = check(alg, "associative")
    if not assoc:
        raise ValueError("model product is not associative: %s" % assoc.line())
    inv = is_invariant_form(omega, alg)
    if not inv:
        raise ValueError("form is not invariant: %s" % inv.line())
    powers = product_subspaces(alg)["powers"]
    if not powers[3].is_zero():
        raise InternalInconsistency("fourth power fails to vanish")
    if expect_u3_zero:
        if not powers[2].is_zero():
            raise ValueError("third power must vanish for this model")
    else:
        if powers[2].is_zero():
            raise ValueError("third power vanishes; use the first model")


_CANONICAL = {
    "dim2_abelian": _canonical_dim2_abelian,
    "dim2_nonabelian": _canonical_dim2_nonabelian,
    "compat_family1": _canonical_compat_family1,
    "compat_family2": _canonical_compat_family2,
    "assoc_type_one": _canonical_assoc_type_one,
    "assoc_type_two": _canonical_assoc_type_two,
}


def canonical(family: str, params: dict) -> dict:
    """A canonical instance of one of the six families.

    Returns {"alg", "omega"} or, for the compatible-pair families,
    {"bullet", "circ", "omega"}.  Parameter constraints (nonzero where
    required, symmetric matrices, constraint equations) are enforced and
    each output is re-verified against its defining predicates.
    """
    if family not in _CANONICAL:
        raise ValueError("unknown family %r (expected one of %s)"
                         % (family, ", ".join(FAMILIES)))
    out = _CANONICAL[family](params)
    for key in ("alg", "bullet", "circ"):
        if key in out and family.startswith(("dim2", "compat")):
            rep = check(out[key], "left_symmetric")
            if not rep:
                raise InternalInconsistency(
                    "canonical %s product not left symmetric" % key)
            inv = is_invariant_form(out["omega"], out[key])
            if not inv:
                raise InternalInconsistency(
                    "canonical %s form not invariant" % key)
    return out


# -- fingerprints -------------------------------------------------------------

def _fingerprint(alg: Algebra) -> dict:
    subs = product_subspaces(alg)
    n = alg.dim
    ls = alg.left_mults()
    ltr = Mat(n, n, [(ls[i] * ls[j]).trace()
                     for i in range(n) for j in range(n)])
    rtr = Mat(n, n, [
        (alg.right_mult(basis_vec(n, i)) * alg.right_mult(basis_vec(n, j))).trace()
        for i in range(n) for j in range(n)])
    return {
        "dim": n,
        "dim_UU": subs["UU"].dim,
        "dim_DUU": subs["DUU"].dim,
        "dim_SUU": subs["SUU"].dim,
        "dim_U3": subs["powers"][2].dim,
        "left_trace_form_rank": ltr.rank(),
        "right_trace_form_rank": rtr.rank(),
    }


# -- dimension-two normalizer -------------------------------------------------

def _require_symplectic_lsa(alg: Algebra, omega: Bilinear):
    if omega.kind != "skew" or not omega.is_nondegenerate():
        raise ValueError("form must be skew and nondegenerate")
    if omega.dim != alg.dim:
        raise ValueError("form and algebra dimensions differ")
    ls = check(alg, "left_symmetric")
    if not ls:
        raise ValueError("product is not left symmetric: %s" % ls.line())
    inv = is_invariant_form(omega, alg)
    if not inv:
        raise ValueError("form is not invariant: %s" % inv.line())


def _transport_form(omega: Bilinear, p: Mat) -> Mat:
    return p.transpose() * omega.matrix * p


def normalize_dim2_slsa(alg: Algebra, omega: Bilinear) -> CanonicalId:
    """Normal form of a two-dimensional symplectic left-symmetric algebra.

    Lands on the abelian model (one nonzero product e2.e2 = a e1) or the
    non-abelian model, reporting the explicit basis change; the zero
    product gets the distinguished "trivial" verdict.
    """
    if alg.dim != 2:
        raise ValueError("normalizer requires dimension 2")
    _require_symplectic_lsa(alg, omega)
    fp = _fingerprint(alg)
    if alg.is_zero():
        return CanonicalId("trivial", {}, Endo(alg, Mat.identity(2)), fp)
    subs = product_subspaces(alg)
    gram = omega.matrix
    if check(alg, "commutative"):
        uu = subs["UU"]
        if uu.dim != 1:
            raise InternalInconsistency(
                "abelian two-dimensional case must have a line of products")
        e1 = uu.basis[0]
        if form_value(gram, e1, e1) != 0:
            raise InternalInconsistency("product line fails to be isotropic")
        row = Mat(1, 2, gram.transpose().apply(e1))
        e2, _ = solve(row, (ONE,))
        p = Mat.from_cols([e1, e2])
        moved = alg.conjugate(p)
        expected = _canonical_dim2_abelian({"a": moved.table[1][1][0]})
        if moved != expected["alg"] or \
                _transport_form(omega, p) != expected["omega"].matrix:
            raise InternalInconsistency("abelian normal form mismatch")
        return CanonicalId("dim2_abelian", {"a": moved.table[1][1][0]},
                           Endo(alg, p), fp)
    duu, suu = subs["DUU"], subs["SUU"]
    if subs["UU"].dim != 2 or duu.dim != 1 or suu.dim != 1:
        raise InternalInconsistency(
            "non-abelian case must split into two product lines")
    d = duu.basis[0]
    s = suu.basis[0]
    c = form_value(gram, d, s)
    if c == 0:
        raise InternalInconsistency("product lines fail to be transverse")
    p = Mat.from_cols([d, vec_scale(ONE / c, s)])
    moved = alg.conjugate(p)
    a = moved.table[0][1][0]
    expected = _canonical_dim2_nonabelian({"a": a})
    if moved != expected["alg"] or \
            _transport_form(omega, p) != expected["omega"].matrix:
        raise InternalInconsistency("non-abelian normal form mismatch")
    return CanonicalId("dim2_nonabelian", {"a": a}, Endo(alg, p), fp)


# -- compatible-pair classifier -----------------------------------------------

@dataclass(frozen=True)
class CompatVerdict:
    kind: str                       # "trivially compatible", "incompatible",
    canonical: Optional[CanonicalId]  # "compat_family1" or "compat_family2"
    witness: Optional[tuple] = None


def _proportional(first: Algebra, second: Algebra) -> bool:
    """second == lam * first for some rational lam (first nonzero)."""
    lam = None
    n = first.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                x = first.table[i][j][k]
                y = second.table[i][j][k]
                if x == 0:
                    if y != 0:
                        return False
                elif lam is None:
                    lam = y / x
                elif y != lam * x:
                    return False
    return True


def classify_compatible_dim2(bullet: Algebra, circ: Algebra,
                             omega: Bilinear) -> CompatVerdict:
    """Decide how two dimension-two symplectic left-symmetric structures
    relate: proportional pairs are trivially compatible, incompatible
    pairs get a witness, and every remaining pair lands exactly on one
    of the two canonical compatible families."""
    if bullet.dim != 2 or circ.dim != 2:
        raise ValueError("classifier requires dimension 2")
    _require_symplectic_lsa(bullet, omega)
    _require_symplectic_lsa(circ, omega)
    if bullet.is_zero() or circ.is_zero() \
            or _proportional(bullet, circ) or _proportional(circ, bullet):
        return CompatVerdict("trivially compatible", None)
    comp = is_compatible(bullet, circ)
    if not comp:
        return CompatVerdict("incompatible", None, witness=comp.witness)
    ab_bullet = bool(check(bullet, "commutative"))
    ab_circ = bool(check(circ, "commutative"))
    if ab_bullet and ab_circ:
        raise InternalInconsistency(
            "two abelian structures can only be trivially compatible")
    if ab_bullet != ab_circ:
        star, other = (circ, bullet) if ab_bullet else (bullet, circ)
        swapped = ONE if ab_bullet else ZERO
        total = star.add(other)
        cid = normalize_dim2_slsa(total, omega)
        if cid.family != "dim2_nonabelian":
            raise InternalInconsistency("sum of a mixed pair must be "
                                        "non-abelian")
        p = cid.change_of_basis.matrix
        star_m, other_m = star.conjugate(p), other.conjugate(p)
        a = star_m.table[0][1][0]
        b = other_m.table[1][1][0]
        model = _canonical_compat_family1({"a": a, "b": b})
        if star_m != model["bullet"] or other_m != model["circ"]:
            raise InternalInconsistency("first-family normal form mismatch")
        params = {"a": a, "b": b, "swapped": swapped, "sign": ONE}
        return CompatVerdict("compat_family1",
                             CanonicalId("compat_family1", params,
                                         Endo(bullet, p)))
    sign = ONE
    total = bullet.add(circ)
    if check(total, "commutative"):
        sign = -ONE
        total = bullet.add(circ.scale(-1))
    circ_eff = circ.scale(sign)
    cid = normalize_dim2_slsa(total, omega)
    if cid.family != "dim2_nonabelian":
        raise InternalInconsistency("adjusted sum of a non-abelian pair "
                                    "must be non-abelian")
    p = cid.change_of_basis.matrix
    a_sum = cid.params["a"]
    star_m = bullet.conjugate(p)
    circ_m = circ_eff.conjugate(p)
    c = star_m.table[0][1][0]
    b = star_m.table[1][1][0]
    if c == 0 or b == 0 or a_sum == c:
        raise InternalInconsistency(
            "second-family parameters must be nonzero for a nontrivial pair")
    model = _canonical_compat_family2({"a": c, "b": b, "c": a_sum - c})
    if star_m != model["bullet"] or circ_m != model["circ"]:
        raise InternalInconsistency("second-family normal form mismatch")
    params = {"a": c, "b": b, "c": a_sum - c, "swapped": ZERO, "sign": sign}
    return CompatVerdict("compat_family2",
                         CanonicalId("compat_family2", params,
                                     Endo(bullet, p)))


# -- associative symplectic normalizer ----------------------------------------

def _darboux(gram: Mat, space: Subspace):
    """Symplectic basis of a subspace on which the form is nondegenerate:
    ordered pairs (u, v) with form(u, v) = 1, pairwise orthogonal."""
    vecs = [tuple(b) for b in space.basis]
    out = []
    while vecs:
        u = vecs.pop(0)
        partner = None
        for i, v in enumerate(vecs):
            if form_value(gram, u, v) != 0:
                partner = i
                break
        if partner is None:
            raise InternalInconsistency(
                "restricted form is degenerate on the chosen complement")
        v = vecs.pop(partner)
        v = vec_scale(ONE / form_value(gram, u, v), v)
        out.extend([u, v])
        vecs = [vec_add(vec_sub(w, vec_scale(form_value(gram, u, w), v)),
                        vec_scale(form_value(gram, v, w), u)) for w in vecs]
        vecs = [w for w in vecs if not is_zero_vec(w)]
    return out


def _restrict_gram(gram: Mat, basis) -> Mat:
    k = len(basis)
    return Mat(k, k, [form_value(gram, basis[i], basis[j])
                      for i in range(k) for j in range(k)])


def _dual_lagrangian(gram: Mat, iso_basis, ambient_basis):
    """Covector-side basis: inside the span of ambient_basis (a symplectic
    subspace containing the Lagrangian iso_basis), an isotropic complement
    (w_j) with form(w_j, v_i) = delta_ij."""
    amb = Mat.from_cols([list(b) for b in ambient_basis])
    sub_gram = _restrict_gram(gram, ambient_basis)
    coords = []
    for v in iso_basis:
        sol, _ = solve(amb, v)
        if sol is None:
            raise InternalInconsistency("isotropic vectors leave their "
                                        "ambient symplectic subspace")
        coords.append(sol)
    lag = Subspace(len(ambient_basis), coords)
    comp = lagrangian_complement(sub_gram, lag)
    w0 = [amb.apply(c) for c in comp.basis]
    k = len(iso_basis)
    pairing = Mat(k, k, [form_value(gram, iso_basis[i], w0[j])
                         for i in range(k) for j in range(k)])
    coeff = pairing.inverse().scale(-1)
    out = []
    for j in range(k):
        w = zero_vec(len(w0[0]))
        for t in range(k):
            w = vec_add(w, vec_scale(coeff[t, j], w0[t]))
        out.append(w)
    for j in range(k):
        for i in range(k):
            want = ONE if i == j else ZERO
            if form_value(gram, out[j], iso_basis[i]) != want:
                raise InternalInconsistency("dual pairing failed")
    return out


def _extract_type_one(moved: Algebra, p_dim: int, q_dim: int):
    n = moved.dim
    dual = p_dim + q_dim
    m_maps, n_maps = [], []
    for a in range(p_dim):
        rows = [[moved.table[dual + a][dual + b][k] for k in range(p_dim)]
                for b in range(p_dim)]
        m_maps.append(Mat.from_rows(rows))
    for i in range(q_dim):
        rows = [[moved.table[p_dim + i][dual + b][k] for k in range(p_dim)]
                for b in range(p_dim)]
        n_maps.append(Mat.from_rows(rows))
    return tuple(m_maps), tuple(n_maps)


def _extract_type_two(moved: Algebra, dims):
    p0, p1, q0, q1 = dims
    p = p0 + p1
    n = moved.dim
    dual = p + q0 + q1

    def mat(rows):
        return Mat.from_rows(rows)

    a_maps = tuple(mat([[moved.table[p0 + k][dual + b][m] for m in range(p0)]
                        for b in range(p0)]) for k in range(p1))
    b_maps = tuple(mat([[moved.table[p + k][dual + b][m] for m in range(p0)]
                        for b in range(p0)]) for k in range(q0))
    c_maps = tuple(mat([[moved.table[p + q0 + k][dual + a][l]
                         for l in range(p)] for a in range(p)])
                   for k in range(q1))
    d_maps = tuple(mat([[moved.table[dual + a][dual + b][l] for l in range(p)]
                        for b in range(p)]) for a in range(p))
    f_map = tuple(tuple(tuple(moved.table[dual + a][dual + b][p + k]
                              for k in range(q0)) for b in range(p0))
                  for a in range(p))
    return a_maps, b_maps, c_maps, d_maps, f_map


def normalize_assoc_symp(alg: Algebra, omega: Bilinear) -> CanonicalId:
    """Decompose an associative symplectic algebra onto one of the two
    model shapes.

    Asserts the fourth power vanishes and the co-isotropic square-plus-
    orthogonal ideal squares to zero, then builds the deterministic
    basis (power chain, echelon complements, symplectic pair basis,
    paired Lagrangian complement) and verifies the transported structure
    constants equal the rebuilt model exactly.
    """
    assoc = check(alg, "associative")
    if not assoc:
        raise ValueError("product is not associative: %s" % assoc.line())
    if omega.kind != "skew" or not omega.is_nondegenerate():
        raise ValueError("form must be skew and nondegenerate")
    inv = is_invariant_form(omega, alg)
    if not inv:
        raise ValueError("form is not invariant: %s" % inv.line())
    n = alg.dim
    gram = omega.matrix
    powers = product_subspaces(alg)["powers"]
    if not powers[3].is_zero():
        raise InternalInconsistency("fourth power fails to vanish")
    u2, u3 = powers[1], powers[2]
    u2perp = symp_orthogonal(gram, u2)
    jspace = u2.add(u2perp)
    for a in jspace.basis:
        for b in jspace.basis:
            if not is_zero_vec(alg.product(a, b)):
                raise InternalInconsistency("square-plus-orthogonal ideal "
                                            "fails to square to zero")
    if not jspace.contains_space(symp_orthogonal(gram, jspace)):
        raise InternalInconsistency("the ideal fails to be co-isotropic")
    fp = _fingerprint(alg)

    if u3.is_zero():
        v = u2
        if not u2perp.contains_space(v):
            raise InternalInconsistency("square must be isotropic when the "
                                        "cube vanishes")
        p_dim = v.dim
        if p_dim == 0:
            # zero product: the first model with every map zero
            params = {"dim_v": n // 2, "dim_i": 0,
                      "m": tuple(Mat.zeros(n // 2, n // 2)
                                 for _ in range(n // 2)), "n": ()}
            # choose a symplectic basis of the whole space as V + V*
            pairs = _darboux(gram, Subspace.full(n))
            cols = [pairs[2 * k] for k in range(n // 2)] \
                + [pairs[2 * k + 1] for k in range(n // 2)]
            # pair basis gives omega(v_k, w_k) = 1; the model wants
            # omega(w_k, v_k) = 1, so negate the covector side
            cols = cols[:n // 2] + [vec_scale(-ONE, c) for c in cols[n // 2:]]
            p = Mat.from_cols(cols)
            moved = alg.conjugate(p)
            model = _canonical_assoc_type_one(params)
            if moved != model["alg"] or \
                    _transport_form(omega, p) != model["omega"].matrix:
                raise InternalInconsistency("trivial-product normal form "
                                            "mismatch")
            return CanonicalId("assoc_type_one", params, Endo(alg, p), fp)
        icomp = v.complement_in(u2perp)
        ipairs = _darboux(gram, icomp) if icomp.dim else []
        q_dim = len(ipairs)
        iperp = symp_orthogonal(gram, Subspace(n, ipairs)) if ipairs \
            else Subspace.full(n)
        w = _dual_lagrangian(gram, list(v.basis), list(iperp.basis))
        cols = list(v.basis) + ipairs + w
        p = Mat.from_cols(cols)
        moved = alg.conjugate(p)
        if _transport_form(omega, p) != _type_one_omega(p_dim, q_dim).matrix:
            raise InternalInconsistency("transported form is not the model "
                                        "form")
        m_maps, n_maps = _extract_type_one(moved, p_dim, q_dim)
        params = {"dim_v": p_dim, "dim_i": q_dim, "m": m_maps, "n": n_maps}
        model = _canonical_assoc_type_one(params)
        if moved != model["alg"]:
            raise InternalInconsistency("first-model structure constants "
                                        "mismatch")
        return CanonicalId("assoc_type_one", params, Endo(alg, p), fp)

    v0 = u3
    v = u2.intersect(u2perp)
    if not v.contains_space(v0):
        raise InternalInconsistency("the cube must sit inside the radical "
                                    "of the square")
    v1 = v0.complement_in(v)
    i0 = v.complement_in(u2)
    i1 = v.complement_in(u2perp)
    i0_pairs = _darboux(gram, i0) if i0.dim else []
    i1_pairs = _darboux(gram, i1) if i1.dim else []
    for a in i0_pairs:
        for b in i1_pairs:
            if form_value(gram, a, b) != 0:
                raise InternalInconsistency("the two symplectic factors "
                                            "fail to be orthogonal")
    p0, p1 = v0.dim, v1.dim
    q0, q1 = len(i0_pairs), len(i1_pairs)
    ivecs = i0_pairs + i1_pairs
    iperp = symp_orthogonal(gram, Subspace(n, ivecs)) if ivecs \
        else Subspace.full(n)
    vbasis = list(v0.basis) + list(v1.basis)
    w = _dual_lagrangian(gram, vbasis, list(iperp.basis))
    p = Mat.from_cols(vbasis + ivecs + w)
    moved = alg.conjugate(p)
    if _transport_form(omega, p) != _type_two_omega(p0, p1, q0, q1).matrix:
        raise InternalInconsistency("transported form is not the model form")
    a_maps, b_maps, c_maps, d_maps, f_map = \
        _extract_type_two(moved, (p0, p1, q0, q1))
    params = {"dim_v0": p0, "dim_v1": p1, "dim_i0": q0, "dim_i1": q1,
              "a": a_maps, "b": b_maps, "c": c_maps, "d": d_maps, "f": f_map}
    model = _canonical_assoc_type_two(params)
    if moved != model["alg"]:
        raise InternalInconsistency("second-model structure constants "
                                    "mismatch")
    return CanonicalId("assoc_type_two", params, Endo(alg, p), fp)


# -- graded tensor construction and quadratic symplectic algebras -------------

def graded_tensor_algebra(base: Algebra, n: int):
    """Tensor of an algebra with the span of e_1..e_n where
    e_i.e_j = e_{i+j} (zero past n).

    Returns the graded product (indexing is grade-major: grade i+1,
    then the base index) together with the diagonal operator whose
    eigenvalue on the grade-(i+1) block is i+1; that operator is a
    derivation of the graded product.
    """
    if n < 1:
        raise ValueError("need at least one grade")
    m = base.dim
    dim = m * n
    z = zero_vec(dim)
    table = [[z for _ in range(dim)] for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            grade = i + j + 1          # product of grades i+1 and j+1
            if grade >= n:
                continue
            for a in range(m):
                for b in range(m):
                    prod = base.product(basis_vec(m, a), basis_vec(m, b))
                    cell = list(zero_vec(dim))
                    for k in range(m):
                        cell[grade * m + k] = prod[k]
                    table[i * m + a][j * m + b] = tuple(cell)
    labels = tuple("%s@%d" % (base.basis[a], i + 1)
                   for i in range(n) for a in range(m))
    graded = Algebra(table, labels)
    diag = Mat(dim, dim, [
        (Fraction(i // m + 1) if i == j else ZERO)
        for i in range(dim) for j in range(dim)])
    der = is_derivation(diag, graded)
    if not der:
        raise InternalInconsistency("grading operator fails to derive the "
                                    "graded product")
    return graded, diag


@dataclass(frozen=True)
class QuadraticData:
    lie: Algebra          # bracket on the double T + T*
    pairing: Bilinear     # invariant split symmetric form
    derivation: Endo      # invertible skew derivation
    omega: Bilinear       # omega(x, y) = pairing(D x, y)
    metric: Bilinear      # flat metric pairing(D x, D y)
    cert: Certificate


def build_quadratic_symplectic(lie: Algebra, n: int) -> QuadraticData:
    """A symplectic Lie algebra with a flat compatible metric, built
    from any Lie algebra: tensor with the graded nilpotent coefficient
    algebra, take the coadjoint semidirect double with its split
    invariant pairing, and contract with the invertible grading
    derivation."""
    jac = check(lie, "jacobi_antisym")
    if not jac:
        raise ValueError("product is not a Lie bracket: %s" % jac.line())
    graded, delta = graded_tensor_algebra(lie, n)
    big = semidirect_bracket(graded)
    m = graded.dim
    ident = Mat.identity(m)
    zero = Mat.zeros(m, m)
    pairing = Bilinear(Mat.block([[zero, ident], [ident, zero]]), "symmetric")
    dmat = Mat.block([[delta, zero], [zero, delta.transpose().scale(-1)]])
    omega = Bilinear(dmat.transpose() * pairing.matrix, "skew")
    metric = Bilinear(dmat.transpose() * pairing.matrix * dmat, "symmetric")
    reports = [
        check(big, "jacobi_antisym"),
        _relabel(is_invariant_form(pairing, big), "pairing_invariant"),
        _bool_report("pairing_nondegenerate", pairing.is_nondegenerate(),
                     "det != 0"),
        _relabel(is_derivation(dmat, big), "derivation"),
        _bool_report("derivation_invertible", dmat.is_invertible(),
                     "det != 0"),
        _relabel(is_two_cocycle(omega, big), "omega_cocycle"),
        _bool_report("omega_nondegenerate", omega.is_nondegenerate(),
                     "det != 0"),
        _relabel(is_flat(big, metric), "metric_flat"),
    ]
    cert = certify("quadratic_symplectic", reports)
    return QuadraticData(big, pairing, Endo(big, dmat), omega, metric, cert)


# -- para-Kahler double of a flat metric --------------------------------------

@dataclass(frozen=True)
class FlatDoubleData:
    triangle: Algebra     # left-symmetric product on g + g*
    bracket: Algebra      # its commutator, the double's Lie bracket
    metric: Bilinear      # split pairing corrected by the inverse metric
    k: Mat                # para-complex involution
    cert: Certificate


def flat_double(lie: Algebra, metric: Bilinear) -> FlatDoubleData:
    """Para-Kahler double of a flat pseudo-metric Lie algebra.

    The Levi-Civita product is left symmetric; its coadjoint double
    carries the metric [[0, I], [I, -2 G^-1]] and the involution
    [[I, -2 G^-1], [0, -I]].  The Levi-Civita product of the double is
    re-verified to equal the lifted product, and the whole bundle is
    cross-checked against the twist induced by the inverse metric seen
    as an invariant symmetric tensor.
    """
    flat = is_flat(lie, metric)
    if not flat:
        raise ValueError("metric is not flat: %s" % flat.line())
    dot = levi_civita(lie, metric)
    ps = build_phase(dot)
    triangle = ps.extended
    bracket = semidirect_bracket(dot)
    n = lie.dim
    g = metric.matrix
    ginv = g.inverse()
    ident = Mat.identity(n)
    zero = Mat.zeros(n, n)
    metric_d = Bilinear(Mat.block([[zero, ident],
                                   [ident, ginv.scale(-2)]]), "symmetric")
    k = Mat.block([[ident, ginv.scale(-2)], [zero, ident.scale(-1)]])
    reports = [_bool_report(
        "commutator_of_lift", bracket == triangle.commutator_algebra(),
        "semidirect bracket == commutator of the lifted product")]
    lc = levi_civita(bracket, metric_d)
    reports.append(_bool_report(
        "levi_civita_of_double", lc == triangle,
        "Levi-Civita product of the double == lifted product"))
    rt = Tensor2(dot, ginv)
    reports.append(_relabel(
        invariance_check([[ginv[i, j] for j in range(n)] for i in range(n)],
                         ("L", "L"), dot), "inverse_metric_invariant"))
    tw = twisted_structures(dot, rt)
    agree = (tw.triangle == bracket and tw.twisted == bracket
             and tw.metric_r.matrix == metric_d.matrix and tw.k_r == k)
    reports.append(_bool_report(
        "twist_crosscheck", agree,
        "twist by the inverse metric reproduces bracket, metric, and "
        "involution"))
    cert = certify("flat_double", tuple(reports)
                   + verify_para_kahler(bracket, metric_d, k).reports)
    return FlatDoubleData(triangle, bracket, metric_d, k, cert)


# -- para-Kahler double of Yang-Baxter data -----------------------------------

def killing_form(lie: Algebra) -> Bilinear:
    """Trace form of the adjoint representation (possibly degenerate)."""
    jac = check(lie, "jacobi_antisym")
    if not jac:
        raise ValueError("product is not a Lie bracket: %s" % jac.line())
    n = lie.dim
    ads = lie.bracket_algebra().left_mults()
    return Bilinear(Mat(n, n, [(ads[i] * ads[j]).trace()
                               for i in range(n) for j in range(n)]),
                    "symmetric")


@dataclass(frozen=True)
class CybeDoubleData:
    dual_product: Algebra  # left-symmetric product on g* induced by b
    triangle: Algebra      # left-symmetric product on g + g*
    bracket: Algebra       # Lie bracket of the double (g abelian inside)
    metric: Bilinear       # [[-2S, I], [I, 0]], S the symmetric part of r
    k: Mat                 # involution x + a -> -x - 2 r_#(x) + a
    cert: Certificate


def cybe_double(lie: Algebra, b, r_dual) -> CybeDoubleData:
    """Para-Kahler double from a skew solution of the classical
    Yang-Baxter equation together with a coadjoint-invariant bilinear
    form on the Lie algebra.

    The solution induces a left-symmetric product on the dual; the form,
    re-read on the dual's own dual, is then left-invariant there, and
    the double is built twice — directly from the bracket, metric, and
    involution formulas, and through the twist on the dual product —
    with exact agreement required.
    """
    bmat = b.matrix if isinstance(b, Tensor2) else b
    n = lie.dim
    dd = coadjoint_double(lie, bmat)
    if not dd.rr.is_zero():
        wit = next((i, j) for i in range(n) for j in range(n)
                   if not is_zero_vec(dd.rr.table[i][j]))
        raise ValueError("Yang-Baxter equation fails: [b,b](e_%d*, e_%d*) "
                         "is nonzero" % wit)
    bsh = bmat.transpose()
    zvecs = [bsh.apply(basis_vec(n, a)) for a in range(n)]
    dstar = Algebra([[tuple(lie.ad(zvecs[a]).transpose().scale(-1)
                            .apply(basis_vec(n, c))) for c in range(n)]
                     for a in range(n)],
                    tuple(s + "*" for s in lie.basis))
    ls = check(dstar, "left_symmetric")
    if not ls:
        raise InternalInconsistency("dual product of a Yang-Baxter solution "
                                    "must be left symmetric")
    if dstar.commutator_algebra() != dd.dual_bracket:
        raise InternalInconsistency("dual product commutator disagrees with "
                                    "the dual bracket")
    rmat = r_dual.matrix if isinstance(r_dual, (Bilinear, Tensor2)) else r_dual
    if rmat.rows != n or rmat.cols != n:
        raise ValueError("form shape mismatch")
    coad = all((lie.ad(z).transpose() * rmat + rmat * lie.ad(z)).is_zero()
               for z in zvecs)
    linv = invariance_check([[rmat[i, j] for j in range(n)] for i in range(n)],
                            ("L", "L"), dstar, name="form_left_invariant")
    if coad != bool(linv):
        raise InternalInconsistency("coadjoint invariance and dual left "
                                    "invariance must agree")
    if not coad:
        raise ValueError("form is not invariant under the coadjoint action "
                         "of the image of b")
    tw = twisted_structures(dstar, Tensor2(dstar, rmat))

    def r_act(a, y):     # [r_#(a), Y]
        return lie.product(bsh.apply(a), y)

    # [X+a, Y+b] = [r_#(a), Y] - [r_#(b), X] + [a,b]*: g is abelian inside
    bracket = Algebra.from_blocks(
        [[(None, None), (lambda x, b: vec_neg(r_act(b, x)), None)],
         [(r_act, None), (None, dd.dual_bracket.product)]],
        lie.basis, "*")
    # (X+a).(Y+b) = [r_#(a), Y] + a.b with the dual product
    triangle = Algebra.from_blocks(
        [[(None, None), (None, None)],
         [(r_act, None), (None, dstar.product)]],
        lie.basis, "*")
    ident = Mat.identity(n)
    zero = Mat.zeros(n, n)
    sym = (rmat + rmat.transpose()).scale(Fraction(1, 2))
    metric = Bilinear(Mat.block([[sym.scale(-2), ident],
                                 [ident, zero]]), "symmetric")
    k = Mat.block([[ident.scale(-1), zero],
                   [rmat.transpose().scale(-2), ident]])
    swap = Mat.block([[zero, ident], [ident, zero]])
    agree = (bracket == tw.triangle.conjugate(swap)
             and bracket == tw.twisted.conjugate(swap)
             and metric.matrix == swap.transpose() * tw.metric_r.matrix * swap
             and k == swap.inverse() * tw.k_r * swap)
    reports = [
        _bool_report("yang_baxter", True, "[b,b] == 0"),
        _relabel(ls, "dual_product_left_symmetric"),
        _relabel(linv, "form_left_invariant"),
        _bool_report("twist_crosscheck", agree,
                     "twist on the dual product reproduces bracket, metric, "
                     "and involution"),
        _relabel(check(triangle, "left_symmetric"), "lift_left_symmetric"),
        _bool_report("commutator_of_lift",
                     triangle.commutator_algebra() == bracket,
                     "commutator of the lifted product == bracket"),
    ]
    cert = certify("cybe_double", tuple(reports)
                   + verify_para_kahler(bracket, metric, k).reports)
    return CybeDoubleData(dstar, triangle, bracket, metric, k, cert)


# -- invertible derivations on phase spaces -----------------------------------

@dataclass(frozen=True)
class DerivationPhaseData:
    phase: "PhaseSpace"
    delta: Endo            # block-diagonal lift of the derivation
    cert: Certificate


def derivation_phase(u: Algebra, d) -> DerivationPhaseData:
    """Lift an invertible derivation of a left-symmetric algebra to its
    phase space: Delta = diag(D, -D^t) is an invertible derivation of
    the lifted product and skew for the canonical symplectic form."""
    dmat = d.matrix if isinstance(d, Endo) else d
    der = is_derivation(dmat, u)
    if not der:
        raise ValueError("not a derivation: %s" % der.line())
    if not dmat.is_invertible():
        raise ValueError("derivation must be invertible")
    ps = build_phase(u)
    n = u.dim
    zero = Mat.zeros(n, n)
    delta = Mat.block([[dmat, zero], [zero, dmat.transpose().scale(-1)]])
    omega = ps.omega0
    reports = [
        _relabel(is_derivation(delta, ps.extended), "lift_derivation"),
        _bool_report("lift_invertible", delta.is_invertible(), "det != 0"),
        _bool_report("lift_omega_skew",
                     (delta.transpose() * omega.matrix
                      + omega.matrix * delta).is_zero(),
                     "omega(Delta x, y) + omega(x, Delta y) == 0"),
        _relabel(check(ps.extended, "left_symmetric"),
                 "phase_left_symmetric"),
        _relabel(is_invariant_form(omega, ps.extended), "omega_invariant"),
        _bool_report("omega_nondegenerate", omega.is_nondegenerate(),
                     "det != 0"),
        _relabel(is_two_cocycle(omega, ps.extended.commutator_algebra()),
                 "omega_cocycle"),
    ]
    cert = certify("derivation_phase", reports)
    return DerivationPhaseData(ps, Endo(ps.extended, delta), cert)


# -- template parameter helpers ------------------------------------------------

def type_one_template_params(m11, n1, n2) -> dict:
    """First-model parameters for the small template: a one-dimensional
    product image plus one symplectic pair."""
    return {"dim_v": 1, "dim_i": 2,
            "m": (Mat.from_rows([[_frac(m11)]]),),
            "n": (Mat.from_rows([[_frac(n1)]]), Mat.from_rows([[_frac(n2)]]))}


def type_two_family_params(a00, a10, d00, e00) -> dict:
    """Second-model parameters for the six-dimensional solved family.

    Two product-image lines, one symplectic pair in the square, four
    free rational parameters; the remaining coefficients are forced by
    the two constraint equations, and the cube never vanishes (it always
    contains the first basis vector).
    """
    a00, a10, d00, e00 = (_frac(x) for x in (a00, a10, d00, e00))
    return {
        "dim_v0": 1, "dim_v1": 1, "dim_i0": 2, "dim_i1": 0,
        "a": (Mat.from_rows([[1]]),),
        "b": (Mat.from_rows([[-a00]]), Mat.from_rows([[1 - a10]])),
        "c": (),
        "d": (Mat.from_rows([[d00, a00], [a00, -1]]),
              Mat.from_rows([[e00, a10], [a10, 0]])),
        "f": (((1, 0),), ((0, 1),)),
    }


# -- randomized generators ------------------------------------------------------

def rand_fraction(rng, bound: int = 3) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.choice((1, 1, 2, 3)))


def rand_symplectic(gram: Mat, rng, steps: int = 4) -> Mat:
    """A random form-preserving matrix: a product of transvections
    x -> x + t form(x, v) v, each of which preserves any skew form."""
    n = gram.rows
    total = Mat.identity(n)
    done = 0
    while done < steps:
        v = tuple(rand_fraction(rng, 2) for _ in range(n))
        if is_zero_vec(v):
            continue
        t = rand_fraction(rng, 2)
        gv = gram.apply(v)
        step = Mat(n, n, [(ONE if i == j else ZERO) + t * v[i] * gv[j]
                          for i in range(n) for j in range(n)])
        total = total * step
        done += 1
    if total.transpose() * gram * total != gram:
        raise InternalInconsistency("transvection product fails to preserve "
                                    "the form")
    return total


def rand_sym_mat(rng, n: int, bound: int = 2) -> Mat:
    entries = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            entries[i][j] = entries[j][i] = rand_fraction(rng, bound)
    return Mat.from_rows(entries)


def rand_type_one_params(rng) -> dict:
    p = rng.choice((1, 2))
    q = rng.choice((0, 2))
    while True:
        m = tuple(rand_sym_mat(rng, p) for _ in range(p))
        n_maps = tuple(rand_sym_mat(rng, p) for _ in range(q))
        if any(not mat.is_zero() for mat in m + n_maps):
            return {"dim_v": p, "dim_i": q, "m": m, "n": n_maps}


def rand_type_two_params(rng) -> dict:
    return type_two_family_params(rand_fraction(rng), rand_fraction(rng),
                                  rand_fraction(rng), rand_fraction(rng))


# -- default catalog instances --------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    name: str
    family: str
    alg: Algebra
    omega: Bilinear


DEFAULT_SCALARS = {
    "dim2_abelian": {"a": ONE},
    "dim2_nonabelian": {"a": ONE},
    "compat_family1": {"a": ONE, "b": ONE},
    "compat_family2": {"a": ONE, "b": ONE, "c": Fraction(2)},
    "assoc_type_one": {"m11": ONE, "n1": ONE, "n2": Fraction(2)},
    "assoc_type_two": {"a00": ONE, "a10": ZERO, "d00": ONE, "e00": ZERO},
}


def _model_params(family: str, scalars: dict) -> dict:
    if family == "assoc_type_one":
        return type_one_template_params(scalars["m11"], scalars["n1"],
                                        scalars["n2"])
    if family == "assoc_type_two":
        return type_two_family_params(scalars["a00"], scalars["a10"],
                                      scalars["d00"], scalars["e00"])
    return dict(scalars)


def catalog_algebras() -> Tuple[CatalogEntry, ...]:
    """The fixed ordered list of left-symmetric algebras used by the
    randomized cross-checks, each paired with its invariant form."""
    entries = []
    for family in ("dim2_abelian", "dim2_nonabelian"):
        built = canonical(family, DEFAULT_SCALARS[family])
        entries.append(CatalogEntry(family, family, built["alg"],
                                    built["omega"]))
    for family in ("compat_family1", "compat_family2"):
        built = canonical(family, DEFAULT_SCALARS[family])
        entries.append(CatalogEntry(family + "_bullet", family,
                                    built["bullet"], built["omega"]))
        entries.append(CatalogEntry(family + "_circ", family,
                                    built["circ"], built["omega"]))
    small = canonical("assoc_type_one",
                      _model_params("assoc_type_one",
                                    DEFAULT_SCALARS["assoc_type_one"]))
    entries.append(CatalogEntry("assoc_type_one_small", "assoc_type_one",
                                small["alg"], small["omega"]))
    plane = canonical("assoc_type_one", {
        "dim_v": 2, "dim_i": 0,
        "m": (Mat.from_rows([[1, 0], [0, 0]]),
              Mat.from_rows([[0, 0], [0, 1]])), "n": ()})
    entries.append(CatalogEntry("assoc_type_one_plane", "assoc_type_one",
                                plane["alg"], plane["omega"]))
    solved = canonical("assoc_type_two",
                       _model_params("assoc_type_two",
                                     DEFAULT_SCALARS["assoc_type_two"]))
    entries.append(CatalogEntry("assoc_type_two_model", "assoc_type_two",
                                solved["alg"], solved["omega"]))
    return tuple(entries)


# -- catalog data files ----------------------------------------------------------

_TERM_RE = re.compile(
    r"^(?:(?P<coef>[0-9]+(?:/[0-9]+)?)(?:\*(?P<mult>[A-Za-z_][A-Za-z0-9_]*))?"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*))$")


def eval_linear(text: str, params: dict) -> Fraction:
    """Evaluate a linear expression over named rational parameters:
    signed terms that are rational literals, parameter names, or
    rational multiples of a parameter, e.g. "1-a10" or "2*a"."""
    squeezed = text.replace(" ", "")
    if not squeezed:
        raise ValueError("empty expression")
    total = ZERO
    for term in re.findall(r"[+-]?[^+-]+", squeezed):
        sign = ONE
        if term[0] in "+-":
            sign = -ONE if term[0] == "-" else ONE
            term = term[1:]
        match = _TERM_RE.match(term)
        if not match:
            raise ValueError("bad term %r in expression %r" % (term, text))
        if match.group("name"):
            if match.group("name") not in params:
                raise ValueError("unknown parameter %r" % match.group("name"))
            value = params[match.group("name")]
        else:
            value = Fraction(match.group("coef"))
            mult = match.group("mult")
            if mult is not None:
                if mult not in params:
                    raise ValueError("unknown parameter %r" % mult)
                value *= params[mult]
        total += sign * value
    return total


def catalog_families() -> Tuple[str, ...]:
    return FAMILIES


def _catalog_text(family: str) -> str:
    return resources.files("lsaforge").joinpath(
        "data/%s.json" % family).read_text()


def _table_from_entries(labels, entries, params):
    index = {label: i for i, label in enumerate(labels)}
    dim = len(labels)
    table = [[zero_vec(dim) for _ in range(dim)] for _ in range(dim)]
    for entry in entries:
        i, j = index[entry["left"]], index[entry["right"]]
        cell = list(zero_vec(dim))
        for label, expr in entry["result"].items():
            cell[index[label]] = eval_linear(expr, params)
        table[i][j] = tuple(cell)
    return table


def catalog_load(family: str, params: Optional[dict] = None) -> dict:
    """Instantiate a catalog family from its data file.

    Optional params override the file's defaults (scalar names as in
    the file).  The instantiated structures are cross-checked entry by
    entry against the programmatic canonical instance; the returned
    dict matches canonical() with the scalar parameters added under
    "scalars".
    """
    if family not in FAMILIES:
        raise ValueError("unknown family %r" % family)
    raw = json.loads(_catalog_text(family))
    scalars = {k: parse_rational(v) for k, v in raw.get("params", {}).items()}
    if params:
        for key, value in params.items():
            if key not in scalars:
                raise ValueError("unknown parameter %r for family %s"
                                 % (key, family))
            scalars[key] = _frac(value)
    labels = tuple(raw["basis"])
    if len(labels) != raw["dim"]:
        raise InternalInconsistency("catalog file basis length mismatch")
    table = _table_from_entries(labels, raw["product"], scalars)
    omega_raw = raw["forms"]["omega"]
    gram = Mat.from_rows([[eval_linear(x, scalars) for x in row]
                          for row in omega_raw["matrix"]])
    omega = Bilinear(gram, omega_raw["kind"])
    model = canonical(family, _model_params(family, scalars))
    if family.startswith("compat"):
        loaded = {"bullet": Algebra(table, labels),
                  "circ": Algebra(_table_from_entries(labels, raw["product2"],
                                                      scalars), labels),
                  "omega": omega}
        same = (loaded["bullet"] == model["bullet"]
                and loaded["circ"] == model["circ"])
    else:
        loaded = {"alg": Algebra(table, labels), "omega": omega}
        same = loaded["alg"] == model["alg"]
    if not same or omega.matrix != model["omega"].matrix:
        raise InternalInconsistency("catalog file disagrees with the "
                                    "programmatic instance for %s" % family)
    loaded["scalars"] = scalars
    return loaded
