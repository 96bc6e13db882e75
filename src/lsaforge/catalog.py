"""Canonical families, constructive normal forms, and flat-metric builders.

Dimension-two symplectic left-symmetric algebras and compatible pairs,
the two model shapes of associative symplectic algebras (the first is
the second at V0 = I0 = 0) together with one normalizer whose
decomposition lands any instance onto either model by an explicit
symplectic basis change, quadratic symplectic algebras built from a
graded tensor construction, para-Kahler doubles of flat metrics and of
Yang-Baxter data, and the invertible-derivation construction on phase
spaces.  Every builder re-verifies its output; every normalizer returns
a passing certificate that its basis change lands exactly on the model,
or raises InternalInconsistency naming normalize_<family>.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from math import lcm
from typing import Optional, Tuple

from .algebra import (Algebra, Endo, _coaction, _labels, _nonzero_cell,
                      _products, _swapped, _twin_spans, check,
                      invariance_check, is_derivation, product_subspaces,
                      subspace_product)
from .doubling import _compatible
from .exact import (Mat, Subspace, ZERO, ONE, _dense, _dual_lagrangian,
                    _primitive, _sparse, _unpacked, form_value, is_zero_vec,
                    parse_rational, solve, symp_orthogonal, vec, vec_scale,
                    zero_vec)
from .forms import (Bilinear, _flat, _levi_civita, _two_cocycle,
                    is_invariant_form, is_two_cocycle, levi_civita)
from .phase import _phase, _split_form, build_phase, verify_para_kahler
from .report import (Certificate, InternalInconsistency, Report, _bool_report,
                     _relabel, certify, require)
from .smatrix import (Tensor2, _coadjoint, _quasi_s, _twist,
                      semidirect_bracket)

FAMILIES = ("dim2_abelian", "dim2_nonabelian", "compat_family1",
            "compat_family2", "assoc_type_one", "assoc_type_two")


@dataclass(frozen=True)
class CanonicalId:
    """Result of a normalizer: which family, with which parameters.

    Applying change_of_basis (columns are the new basis vectors) to the
    input algebra yields exactly the canonical structure constants, and
    certificate (named normalize_<family>) records that check for each
    product and for the form; it is None only for dimension two's
    "trivial" verdict, which has no model.  The fingerprint collects
    basis-independent invariants, reported separately because the
    landed-on parameter may depend on the deterministic basis choice.
    """

    family: str
    params: dict
    change_of_basis: Endo
    fingerprint: dict = field(default_factory=dict)
    certificate: Optional[Certificate] = None


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
    """Structure constants from the list of left-multiplication matrices:
    cell (i, j) is column j of mats[i], a row of its transposed cells."""
    den = lcm(*(m._den for m in mats))
    return Algebra._of(den, [[tuple((k, den // m._den * x) for k, x in col)
                              for col in m.transpose()._cells]
                             for m in mats], _labels(None, len(mats)))


def _coef(alg: Algebra, i: int, j: int, k: int) -> Fraction:
    """c_ij^k, the e_k coordinate of e_i . e_j, from the integer cells."""
    den, cells = alg._int_view()
    return Fraction(dict(cells[i][j]).get(k, 0), den)


def _s0(k: int) -> tuple:
    """(m, s): row k of the standard symplectic Gram s0 (pairs e_2t,
    e_2t+1 with s0(e_2t, e_2t+1) = 1) is s at column m."""
    return k ^ 1, -1 if k & 1 else 1


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


def _model_omega(p0, p1, q0, q1) -> Bilinear:
    """The skew form of the second model at dims (p0, p1, q0, q1): V
    paired with V* and s0 on I0 and on I1, one signed entry a row."""
    p = p0 + p1
    n, dual = 2 * p + q0 + q1, p + q0 + q1
    rows = ([((dual + k, -1),) for k in range(p)]
            + [((p + m, s),) for m, s in map(_s0, range(q0 + q1))]
            + [((k, 1),) for k in range(p)])
    return Bilinear(Mat._of(n, n, 1, rows), "skew")


def _canonical_assoc_type_one(params):
    p = int(params.get("dim_v", 0))
    q = int(params.get("dim_i", 0))
    if p < 1:
        raise ValueError("dim_v must be at least 1")
    if q < 0 or q % 2 != 0:
        raise ValueError("dim_i must be a nonnegative even integer")
    m_maps = _sym_mats(params.get("m", ()), p, p, "m")
    n_maps = _sym_mats(params.get("n", ()), q, p, "n")
    # the second model at V0 = I0 = 0, where a, b and f map nothing
    return _assoc_model((0, p, 0, q), (), (), n_maps, m_maps, ())


def _type_two_dims(params):
    p0, p1, q0, q1 = (int(params.get(key, 0)) for key in
                      ("dim_v0", "dim_v1", "dim_i0", "dim_i1"))
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
        return sum((s * x * v[m] for (m, s), x in zip(map(_s0, range(q0)), u)),
                   ZERO)

    def holds(alpha, beta, g, m):   # mixed law for beta < p0, else pure
        lhs = a_of_e1(alpha, beta, g, m)
        if beta < p0:
            lhs += b_of_f(alpha, beta, g, m)
        return lhs == s0_val(f_map[beta][g], f_map[alpha][m])

    quads = [(alpha, beta, g, m) for alpha in range(p) for beta in range(p)
             for g in range(p0) for m in range(p0)]
    w1 = next((q for q in quads if q[1] < p0 and not holds(*q)), None)
    w2 = next((q for q in quads if q[1] >= p0 and not holds(*q)), None)
    return Certificate("type_two_constraints", (
        Report("constraint_mixed", w1 is None,
               "a(E1(alpha,beta1))(g,m) + b(F(alpha,beta1))(g,m)"
               " == s0(F(beta1,g), F(alpha,m))", witness=w1),
        Report("constraint_pure", w2 is None,
               "a(E1(alpha,beta0))(g,m) == s0(F(beta0,g), F(alpha,m))",
               witness=w2)))


def _canonical_assoc_type_two(params):
    return _assoc_model(*_type_two_maps(params))


def _assoc_model(dims, a_maps, b_maps, c_maps, d_maps, f_map):
    """The second model's product and form from validated parts, built
    as integer cells over the lcm of the parts' denominators; the first
    model is this one with dim_v0 = dim_i0 = 0."""
    p0, p1, q0, q1 = dims
    p = p0 + p1
    n = 2 * p + q0 + q1
    dual = p + q0 + q1
    den = lcm(*(m._den for m in a_maps + b_maps + c_maps + d_maps),
              *(x.denominator for row in f_map for cell in row for x in cell))
    table = [[[] for _ in range(n)] for _ in range(n)]

    def over(x):        # D x for a Fraction x
        return x.numerator * (den // x.denominator)

    # V1 . V1^0 and I0 . V1^0 land in V0, I1 . V* in V, V* . V* = E + F:
    # row b of map k is the cell (first + k, dual + b)
    for first, maps in ((p0, a_maps), (p, b_maps), (p + q0, c_maps),
                        (dual, d_maps)):
        for k, m in enumerate(maps):
            f = den // m._den
            for b, row in enumerate(m._cells):
                table[first + k][dual + b] = [(l, f * x) for l, x in row]
    for a, row in enumerate(f_map):
        for b, cell in enumerate(row):      # F, the I0 part of V* . V*
            table[dual + a][dual + b] += [(p + k, over(x))
                                          for k, x in enumerate(cell) if x]
            # V* . I0 lands in V0 through s0 and F
            for k, (m, s) in enumerate(map(_s0, range(q0))):
                if cell[m]:
                    table[dual + a][p + k].append((b, s * over(cell[m])))
    return {"alg": Algebra._of(den, table, _labels(None, n)),
            "omega": _model_omega(p0, p1, q0, q1)}


def _power_chain(alg: Algebra) -> tuple:
    """(U^2, U^3) of an associative product whose fourth power vanishes.
    Associativity gives U^k = U.U^(k-1): U^2 is the span of the cells,
    U^3 one subspace product, and U^4 = 0 a zero test over the products
    of U and U^3, with no elimination."""
    n, full = alg.dim, Subspace.full(alg.dim)
    u2 = Subspace._of(n, _unpacked([c for row in alg._cells for c in row], n))
    u3 = subspace_product(alg, full, u2)
    if any(map(any, _products(alg, full, u3))):
        raise InternalInconsistency("fourth power fails to vanish")
    return u2, u3


def _assert_model(alg: Algebra, omega: Bilinear, expect_u3_zero: bool):
    require(check(alg, "associative"), "model product is not associative")
    require(is_invariant_form(omega, alg), "form is not invariant")
    if _power_chain(alg)[1].is_zero() != expect_u3_zero:
        raise ValueError("third power must vanish for this model"
                         if expect_u3_zero else
                         "third power vanishes; use the first model")


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
    {"bullet", "circ", "omega"}.  The builders only reject parameters
    they cannot build from; this is the one place that validates a
    model: the type-two constraint equations, then each output's
    defining predicates.  The normalizers skip it: equality with their
    certified input is the stronger check.
    """
    if family not in _CANONICAL:
        raise ValueError("unknown family %r (expected one of %s)"
                         % (family, ", ".join(FAMILIES)))
    if family == "assoc_type_two":
        cons = check_type_two_constraints(params)
        if not cons.passed:
            raise ValueError("type-two constraint violated: %s"
                             % cons.first_failure().line())
    out = _CANONICAL[family](params)
    if family.startswith("assoc"):
        _assert_model(out["alg"], out["omega"],
                      expect_u3_zero=family == "assoc_type_one")
        return out
    for key in (k for k in out if k != "omega"):
        if not check(out[key], "left_symmetric"):
            raise InternalInconsistency(
                "canonical %s product not left symmetric" % key)
        if not is_invariant_form(out["omega"], out[key]):
            raise InternalInconsistency(
                "canonical %s form not invariant" % key)
    return out


# -- fingerprints -------------------------------------------------------------

def _trace_form(alg: Algebra, side: str) -> Mat:
    """Gram matrix of tr(X_i X_j) for X_i = L_{e_i} (side "left") or
    X_i = R_{e_i} ("right"), the left multiplication of the opposite
    product, contracted on the integer form: (X_i)_ab = c_ib^a over D and
    tr(X_i X_j) = sum c_ib^a c_ja^b."""
    n = alg.dim
    den, cells = (alg if side == "left" else _swapped(alg))._int_view()
    # mats[i][b][a] = D (X_i)_ab, the cells of row i made dense
    mats = [_unpacked(row, n) for row in cells]
    gram = [[0] * n for _ in range(n)]
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        mj, s = mats[j], 0
        for b, cell in enumerate(cells[i]):
            for a, x in cell:
                s += x * mj[a][b]
        gram[i][j] = gram[j][i] = s
    return Mat._of(n, n, den * den, [_sparse(row) for row in gram])


def _fingerprint(alg: Algebra, *spans) -> dict:
    """Invariants of alg: the dims of the spans UU, DUU, SUU and U^3, and
    the ranks of the two trace forms.  A change of basis p keeps every
    value (the spans move by p^-1, the trace forms by the congruence
    p^T T p), so the spans may come from any product conjugate to alg."""
    fp = dict(zip(("dim_UU", "dim_DUU", "dim_SUU", "dim_U3"),
                  (span.dim for span in spans)), dim=alg.dim)
    for side in ("left", "right"):
        fp[side + "_trace_form_rank"] = _trace_form(alg, side).rank()
    return fp


# -- dimension-two normalizer -------------------------------------------------

def _require_symplectic_lsa(alg: Algebra, omega: Bilinear):
    if omega.kind != "skew" or not omega.is_nondegenerate():
        raise ValueError("form must be skew and nondegenerate")
    if omega.dim != alg.dim:
        raise ValueError("form and algebra dimensions differ")
    require(check(alg, "left_symmetric"), "product is not left symmetric")
    require(is_invariant_form(omega, alg), "form is not invariant")


def _landed(family, params, alg, omega, p, moved, fp=None, extra=()):
    """The one epilogue of the normalizers: the model of family at params,
    built unvalidated, must equal each conjugated product in moved (keyed
    as the model's products) and the transported form p^T omega p; with
    the caller's extra reports these certify normalize_<family>."""
    model = _CANONICAL[family](params)
    reports = []
    for key, prod in moved.items():     # witness: the first differing cell
        cell = None if prod == model[key] else _nonzero_cell(
            prod.add(model[key].scale(-1)))
        reports.append(Report(key, cell is None, "moved %s == model %s"
                              % (key, key), cell))
    reports.append(_bool_report(
        "omega", p.transpose() * omega.matrix * p == model["omega"].matrix,
        "p^T omega p == model omega"))
    cert = certify("normalize_" + family, tuple(reports) + tuple(extra))
    return CanonicalId(family, params, Endo(alg, p), fp or {}, cert)


def normalize_dim2_slsa(alg: Algebra, omega: Bilinear) -> CanonicalId:
    """Normal form of a two-dimensional symplectic left-symmetric algebra.

    Lands on the abelian model (one nonzero product e2.e2 = a e1) or the
    non-abelian model, reporting the explicit basis change; the zero
    product gets the distinguished "trivial" verdict.
    """
    if alg.dim != 2:
        raise ValueError("normalizer requires dimension 2")
    _require_symplectic_lsa(alg, omega)
    subs = product_subspaces(alg)
    fp = _fingerprint(alg, subs["UU"], subs["DUU"], subs["SUU"],
                      subs["powers"][2])
    if alg.is_zero():
        return CanonicalId("trivial", {}, Endo(alg, Mat.identity(2)), fp)
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
        return _landed("dim2_abelian", {"a": _coef(moved, 1, 1, 0)}, alg,
                       omega, p, {"alg": moved}, fp)
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
    return _landed("dim2_nonabelian", {"a": _coef(moved, 0, 1, 0)}, alg,
                   omega, p, {"alg": moved}, fp)


# -- compatible-pair classifier -----------------------------------------------

@dataclass(frozen=True)
class CompatVerdict:
    # "trivially compatible", "incompatible", "compat_family1" or
    # "compat_family2"
    kind: str
    canonical: Optional[CanonicalId]  # the landing, for the two families
    witness: Optional[tuple] = None   # the failing tuple when incompatible


def _proportional(first: Algebra, second: Algebra) -> bool:
    """second == lam * first for some rational lam (first nonzero), lam
    read at the first nonzero structure constant of first."""
    i, j = _nonzero_cell(first)
    k = first._int_view()[1][i][j][0][0]
    return second == first.scale(_coef(second, i, j, k)
                                 / _coef(first, i, j, k))


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
    comp = _compatible(bullet, circ)[0]     # both checked left symmetric
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
        params = {"a": _coef(star_m, 0, 1, 0), "b": _coef(other_m, 1, 1, 0),
                  "swapped": swapped, "sign": ONE}
        return CompatVerdict("compat_family1", _landed(
            "compat_family1", params, bullet, omega, p,
            {"bullet": star_m, "circ": other_m}))
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
    c, b = _coef(star_m, 0, 1, 0), _coef(star_m, 1, 1, 0)
    if c == 0 or b == 0 or a_sum == c:
        raise InternalInconsistency(
            "second-family parameters must be nonzero for a nontrivial pair")
    params = {"a": c, "b": b, "c": a_sum - c, "swapped": ZERO, "sign": sign}
    return CompatVerdict("compat_family2", _landed(
        "compat_family2", params, bullet, omega, p,
        {"bullet": star_m, "circ": circ_m}))


# -- associative symplectic normalizer ----------------------------------------

def _darboux(gram: Mat, space: Subspace) -> Mat:
    """Symplectic basis of a subspace on which the form is nondegenerate,
    as the rows of a Mat: ordered pairs (u, v) with form(u, v) = 1,
    pairwise orthogonal.  A vector is a primitive integer list
    [d, x_1, ..., x_n] for the x over d, and form(x/d, y/e) is
    x^T G y / (d e D) for the integer cells G of gram over D."""
    n, dg, g = gram.rows, gram._den, gram._cells

    def form(x, y):                 # x^T G y of the numerators
        return sum(a * y[1 + j] * xi for xi, row in zip(x[1:], g)
                   for j, a in row)
    vecs = [_primitive([space._den] + row)
            for row in _unpacked(space._cells, n)]
    out = []
    while vecs:
        u = vecs.pop(0)
        i = next((i for i, v in enumerate(vecs) if form(u, v)), None)
        if i is None:
            raise InternalInconsistency(
                "restricted form is degenerate on the chosen complement")
        v = vecs.pop(i)             # v / form(u, v) = d_u D v / (u^T G v)
        f = u[0] * dg
        v = _primitive([form(u, v)] + [f * x for x in v[1:]])
        out += [u, v]
        # w - form(u, w) v + form(v, w) u, over f d_w with f = d_u D d_v
        f, rest = f * v[0], []
        for w in vecs:
            a, b = form(u, w), form(v, w)
            w = [f * w[0]] + [f * x - a * y + b * z
                              for x, y, z in zip(w[1:], v[1:], u[1:])]
            if any(w[1:]):
                rest.append(_primitive(w))
        vecs = rest
    den = lcm(*(w[0] for w in out))
    return Mat._of(len(out), n, den, [_sparse([x * (den // w[0])
                                               for x in w[1:]]) for w in out])


def _extract_type_two(moved: Algebra, dims):
    """The parameters of the second model read off the integer cells of
    the moved product, the inverse of `_assoc_model`."""
    p0, p1, q0, q1 = dims
    p = p0 + p1
    dual = p + q0 + q1
    den, cells = moved._int_view()

    def maps(first, count, size):   # row b of map k: cell (first+k, dual+b)
        return tuple(Mat._of(size, size, den, [
            tuple((l, x) for l, x in cells[first + k][dual + b] if l < size)
            for b in range(size)]) for k in range(count))
    f_map = tuple(tuple(_dense(den, cells[dual + a][dual + b],
                               moved.dim)[p:p + q0]
                        for b in range(p0)) for a in range(p))
    return (maps(p0, p1, p0), maps(p, q0, p0), maps(p + q0, q1, p),
            maps(dual, p, p), f_map)


def normalize_assoc_symp(alg: Algebra, omega: Bilinear) -> CanonicalId:
    """Decompose an associative symplectic algebra onto one of the two
    model shapes.

    Asserts the fourth power vanishes and the co-isotropic square-plus-
    orthogonal ideal squares to zero, then builds the deterministic
    basis (power chain, echelon complements, symplectic pair basis,
    paired Lagrangian complement) and verifies the transported structure
    constants equal the rebuilt model exactly.  The product is
    associative, so the chain is U^k = U.U^(k-1); the fingerprint's
    values are basis invariants, so all but dim U^2 and dim U^3 are read
    off the sparse landed product.  The subspace steps run on integer
    rows.
    """
    require(check(alg, "associative"), "product is not associative")
    if omega.kind != "skew" or not omega.is_nondegenerate():
        raise ValueError("form must be skew and nondegenerate")
    require(is_invariant_form(omega, alg), "form is not invariant")
    n = alg.dim
    gram = omega.matrix
    u2, u3 = _power_chain(alg)
    u2perp = symp_orthogonal(gram, u2)
    jspace = u2.add(u2perp)
    if any(map(any, _products(alg, jspace, jspace))):
        raise InternalInconsistency("square-plus-orthogonal ideal "
                                    "fails to square to zero")
    # V = U^2 meet U^2perp, which is U^2 when the cube vanishes
    v = symp_orthogonal(gram, jspace)
    if u3.is_zero() and not u2perp.contains_space(u2):
        raise InternalInconsistency("square must be isotropic when the "
                                    "cube vanishes")

    if u2.is_zero():
        # zero product: the first model with every map zero on a
        # symplectic basis of the whole space as V + V*; the pair
        # basis gives omega(v_k, w_k) = 1 and the model wants
        # omega(w_k, v_k) = 1, so the covector side is negated
        pairs = _darboux(gram, Subspace.full(n))
        dims = (0, n // 2, 0, 0)
        rows = Mat._of(n, n, pairs._den,
                       pairs._cells[0::2] + (-pairs)._cells[1::2])
    else:
        v0 = u3
        if not v.contains_space(v0):
            raise InternalInconsistency("the cube must sit inside the "
                                        "radical of the square")
        v1 = v0.complement_in(v)
        i0 = _darboux(gram, v.complement_in(u2))
        i1 = _darboux(gram, v.complement_in(u2perp))
        if not (i0 * gram * i1.transpose()).is_zero():
            raise InternalInconsistency("the two symplectic factors "
                                        "fail to be orthogonal")
        dims = (v0.dim, v1.dim, i0.rows, i1.rows)
        ivecs = Mat.block([[i0], [i1]])
        vrows = Mat.block([[v0.matrix()], [v1.matrix()]])
        iperp = symp_orthogonal(gram, Subspace._of(n, _unpacked(
            ivecs._cells, n)))
        w = _dual_lagrangian(gram, vrows, iperp.matrix())
        if w * gram * vrows.transpose() != Mat.identity(vrows.rows):
            raise InternalInconsistency("dual pairing failed")
        rows = Mat.block([[vrows], [ivecs], [w]])
    p = rows.transpose()
    moved = alg.conjugate(p)
    fp = _fingerprint(moved, u2, *_twin_spans(moved), u3)
    a_maps, b_maps, c_maps, d_maps, f_map = _extract_type_two(moved, dims)
    p0, p1, q0, q1 = dims
    if p0 == 0:     # the cube vanishes: the first model, m = d and n = c
        params = {"dim_v": p1, "dim_i": q1, "m": d_maps, "n": c_maps}
        return _landed("assoc_type_one", params, alg, omega, p,
                       {"alg": moved}, fp)
    params = {"dim_v0": p0, "dim_v1": p1, "dim_i0": q0, "dim_i1": q1,
              "a": a_maps, "b": b_maps, "c": c_maps, "d": d_maps, "f": f_map}
    return _landed("assoc_type_two", params, alg, omega, p, {"alg": moved},
                   fp, check_type_two_constraints(params).reports)


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
    m, (den, cells) = base.dim, base._int_view()
    dim = m * n
    # cell (grade i+1, a).(grade j+1, b) is base cell (a, b) at grade i+j+2
    table = [[tuple((k + (i + j + 1) * m, x) for k, x in cells[a][b])
              if i + j + 1 < n else () for j in range(n) for b in range(m)]
             for i in range(n) for a in range(m)]
    labels = tuple("%s@%d" % (base.basis[a], i + 1)
                   for i in range(n) for a in range(m))
    graded = Algebra._of(den, table, labels)
    diag = Mat._of(dim, dim, 1, [((i, i // m + 1),) for i in range(dim)])
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
    require(check(lie, "jacobi_antisym"), "product is not a Lie bracket")
    graded, delta = graded_tensor_algebra(lie, n)
    big = semidirect_bracket(graded, graded)
    m = graded.dim
    zero = Mat.zeros(m, m)
    pairing = Bilinear(_split_form(Mat.identity(m)), "symmetric")
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
        _relabel(_two_cocycle(omega, big), "omega_cocycle"),
        _bool_report("omega_nondegenerate", omega.is_nondegenerate(),
                     "det != 0"),
        _relabel(_flat(_levi_civita(big, metric)), "metric_flat"),
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

    The Levi-Civita product is left symmetric and G^-1 an S-matrix for
    it; the twist by G^-1 gives the double's bracket (the semidirect
    one), metric [[0, I], [I, -2 G^-1]] and involution
    [[I, -2 G^-1], [0, -I]].  The bracket is re-verified as the
    commutator of the lifted product, which must be its Levi-Civita
    product, and the twisted bracket must equal it: Delta(G^-1) == 0.
    """
    dot = levi_civita(lie, metric)
    require(_flat(dot), "metric is not flat")
    triangle = _phase(dot, Algebra.zero(dot.dim), _coaction(dot, -1)).extended
    ginv = metric.matrix.inverse()
    r = Tensor2(dot, ginv)
    tw = _twist(dot, r, *_quasi_s(dot, r))
    bracket, metric_d, k = tw.triangle, tw.metric_r, tw.k_r
    reports = [_bool_report(
        "commutator_of_lift", bracket == triangle.commutator_algebra(),
        "semidirect bracket == commutator of the lifted product"),
        _bool_report("levi_civita_of_double",
                     _levi_civita(bracket, metric_d) == triangle,
                     "Levi-Civita product of the double == lifted product"),
        _relabel(invariance_check(ginv, ("L", "L"), dot),
                 "inverse_metric_invariant"),
        _bool_report("twist_crosscheck", tw.twisted == tw.triangle,
                     "twist by the inverse metric reproduces bracket, "
                     "metric, and involution")]
    # by twist_crosscheck, the twist's lines less xi and the triple axioms
    cert = certify("flat_double", tuple(reports) + tw.cert.reports[1:-3])
    return FlatDoubleData(triangle, bracket, metric_d, k, cert)


# -- para-Kahler double of Yang-Baxter data -----------------------------------

def killing_form(lie: Algebra) -> Bilinear:
    """Trace form of the adjoint representation (possibly degenerate)."""
    require(check(lie, "jacobi_antisym"), "product is not a Lie bracket")
    return Bilinear(_trace_form(lie, "left"), "symmetric")


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
    re-read on the dual's own dual, is then left-invariant there.  The
    metric [[-2S, I], [I, 0]] (S the symmetric part of the form) and the
    involution [[-I, 0], [-2R^t, I]] are those of the twist by the form
    on the dual product, moved by the swap of g and g*.  The bracket is
    built directly from r_# and the dual bracket, and must equal both
    the twist's semidirect and twisted brackets, moved by the swap.
    """
    bmat = b.matrix if isinstance(b, Tensor2) else b
    n = lie.dim
    r_act, dual_bracket, rr = _coadjoint(lie, bmat)
    wit = _nonzero_cell(rr)
    if wit is not None:
        raise ValueError("Yang-Baxter equation fails: [b,b](e_%d*, e_%d*) "
                         "is nonzero" % wit)
    # the dual product a.c = -ad_{r_#(a)}^t c, ad_{r_#(a)} that of r_act
    dstar = _coaction(r_act, -1, tuple(s + "*" for s in lie.basis))
    ls = check(dstar, "left_symmetric")
    if not ls:
        raise InternalInconsistency("dual product of a Yang-Baxter solution "
                                    "must be left symmetric")
    if dstar.commutator_algebra() != dual_bracket:
        raise InternalInconsistency("dual product commutator disagrees with "
                                    "the dual bracket")
    rmat = r_dual.matrix if isinstance(r_dual, (Bilinear, Tensor2)) else r_dual
    if rmat.rows != n or rmat.cols != n:
        raise ValueError("form shape mismatch")
    coad = all((ad.transpose() * rmat + rmat * ad).is_zero()
               for ad in r_act.left_mults())     # ad_{r_#(e_a)}
    linv = invariance_check(rmat, ("L", "L"), dstar,
                            name="form_left_invariant")
    if coad != bool(linv):
        raise InternalInconsistency("coadjoint invariance and dual left "
                                    "invariance must agree")
    if not coad:
        raise ValueError("form is not invariant under the coadjoint action "
                         "of the image of b")
    r = Tensor2(dstar, rmat)
    tw = _twist(dstar, r, *_quasi_s(dstar, r))

    # [X+a, Y+b] = [r_#(a), Y] - [r_#(b), X] + [a,b]*: g is abelian inside
    bracket = Algebra.from_blocks(
        [[(None, None), (_swapped(r_act.scale(-1)), None)],
         [(r_act, None), (None, dual_bracket)]],
        lie.basis, "*")
    # (X+a).(Y+b) = [r_#(a), Y] + a.b with the dual product
    triangle = Algebra.from_blocks(
        [[(None, None), (None, None)],
         [(r_act, None), (None, dstar)]],
        lie.basis, "*")
    swap = _split_form(Mat.identity(n))     # its own inverse and transpose
    metric = Bilinear(swap * tw.metric_r.matrix * swap, "symmetric")
    k = swap * tw.k_r * swap
    agree = (bracket == tw.triangle.conjugate(swap)
             and bracket == tw.twisted.conjugate(swap))
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
    require(is_derivation(dmat, u), "not a derivation")
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
