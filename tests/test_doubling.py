import dataclasses
import random
from fractions import Fraction

import pytest

from lsaforge import (Algebra, InternalInconsistency, Mat,
                      build_complex_product, build_hyper, build_symp_double,
                      build_theta_double, check, compat_curvature, delta_op,
                      doubling, forms, is_compatible, lts_from_o, lts_from_yb,
                      myb_residual, o_op, oeq_check, pencil, pencil_identity,
                      phase, tu_product, yb)
from lsaforge.report import failing
from lsaforge.smatrix import RClass
from lsaforge.catalog import (canonical, catalog_algebras, rand_fraction,
                              rand_symplectic)
from lsaforge.exact import basis_vec


def test_family1_compatible():
    pair = canonical("compat_family1", {"a": 1, "b": 1})
    bullet, circ = pair["bullet"], pair["circ"]
    assert check(bullet, "left_symmetric")
    assert check(circ, "left_symmetric")
    assert is_compatible(bullet, circ)
    assert pencil_identity(bullet, circ)


def test_pencil_left_symmetric():
    pair = canonical("compat_family1", {"a": 1, "b": 1})
    bullet, circ = pair["bullet"], pair["circ"]
    for a, b in [(1, 1), (Fraction(1, 2), 3), (-2, Fraction(2, 3)),
                 (0, 1), (5, -1)]:
        assert check(pencil(bullet, circ, a, b), "left_symmetric")


def test_tu_product_matches_compatibility(nab_lsa, ab_lsa, omega2):
    # a compatible pair: tu product is Lie-admissible
    pair = canonical("compat_family1", {"a": 1, "b": 1})
    assert bool(check(tu_product(pair["bullet"], pair["circ"]),
                      "lie_admissible")) == \
        bool(is_compatible(pair["bullet"], pair["circ"]))
    # an incompatible pair found by seeded search
    p = rand_symplectic(omega2.matrix, random.Random(3))
    moved = nab_lsa.conjugate(p)
    assert not is_compatible(nab_lsa, moved)
    assert not check(tu_product(nab_lsa, moved), "lie_admissible")
    assert bool(check(tu_product(nab_lsa, ab_lsa), "lie_admissible")) == \
        bool(is_compatible(nab_lsa, ab_lsa))


def test_compat_curvature_values():
    e2 = basis_vec(2, 1)
    pair = canonical("compat_family1", {"a": 1, "b": 1})
    k = compat_curvature(pair["bullet"], pair["circ"], e2, e2)
    assert k == Mat.from_rows([[0, -2], [0, 0]])
    pair = canonical("compat_family2", {"a": 1, "b": 1, "c": 2})
    k = compat_curvature(pair["bullet"], pair["circ"], e2, e2)
    assert k == Mat.from_rows([[0, 6], [0, 0]])


def test_build_hyper_self_double(nab_lsa, omega2):
    data = build_hyper(nab_lsa, nab_lsa, omega2)
    assert data.cert.passed
    assert data.complex_product.lie.dim == 4
    pair = canonical("compat_family1", {"a": 1, "b": 1})
    assert build_hyper(pair["bullet"], pair["circ"],
                       pair["omega"]).cert.passed


def test_complex_product_of_a_commutative_pair(ab_lsa):
    # K1 and J1 are abelian exactly when both products are commutative
    data = build_complex_product(ab_lsa, ab_lsa)
    assert data.cert.passed
    assert data.cert.reports[-1].details == "all three = True"


def test_yb_identity_recovers_bracket(aff, sl2):
    for lie in (aff, sl2):
        n = lie.dim
        got = yb(Mat.identity(n), lie)
        for i in range(n):
            for j in range(n):
                assert got.table[i][j] == \
                    tuple(lie.product(basis_vec(n, i), basis_vec(n, j)))


def test_delta_o_of_identity_vanish(nab_lsa):
    ident = Mat.identity(2)
    assert delta_op(ident, nab_lsa).is_zero()
    assert o_op(ident, nab_lsa).is_zero()
    assert oeq_check(ident, nab_lsa)


def test_oeq_random_operators():
    rng = random.Random(13)
    for entry in catalog_algebras():
        n = entry.alg.dim
        for _ in range(5):
            a = Mat(n, n, [rand_fraction(rng) for _ in range(n * n)])
            assert oeq_check(a, entry.alg)


def test_modified_yb_residual(aff):
    a = Mat.from_rows([[0, 1], [-1, 0]])
    assert myb_residual(a, aff, -1)
    assert not myb_residual(a, aff, 1)


def test_symp_double_accepts_and_rejects(aff, omega2):
    zero = canonical("dim2_abelian", {"a": 1})["alg"].scale(0)
    for lam in (Fraction(1), Fraction(1, 2)):
        data = build_symp_double(zero, omega2, Mat.identity(2).scale(lam))
        assert data.cert.passed
        assert data.bracket.dim == 4
    with pytest.raises(ValueError):
        build_symp_double(aff, omega2, Mat.identity(2))


def test_theta_double(ab_lsa, omega2):
    data = build_theta_double(ab_lsa, omega2, Mat.identity(2))
    assert data.cert.passed
    assert data.j * data.j == Mat.identity(4).scale(-1)


def test_lie_triples_from_operators(aff, ab_lsa):
    lts = lts_from_yb(aff, Mat.identity(2).scale(2))
    assert lts.check().passed
    lts2 = lts_from_o(ab_lsa, Mat.identity(2))
    assert lts2.check().passed


def test_compatible_disagreement_names_both_routes(monkeypatch, nab_lsa,
                                                   ab_lsa):
    monkeypatch.setattr(doubling, "_compat_witness",
                        lambda bullet, circ: ("first", 0, 0, 1))
    with pytest.raises(InternalInconsistency) as err:
        is_compatible(nab_lsa, ab_lsa)
    assert str(err.value) == (
        "mixed-curvature symmetry and double-product Lie-admissibility "
        "disagree: mixed-curvature symmetry: FAIL witness=('first', 0, 0, 1); "
        "double-product Lie-admissibility: PASS")


def test_abelian_equivalence_disagreement_names_every_verdict(monkeypatch,
                                                              ab_lsa):
    monkeypatch.setattr(doubling, "_abelian_witness",
                        lambda lie, s, para=False: (0, 1))
    with pytest.raises(InternalInconsistency) as err:
        build_complex_product(ab_lsa, ab_lsa)
    assert str(err.value) == (
        "abelianness of K1, of J1 and commutativity of the pair differ: "
        "K1 abelian: FAIL witness=(0, 1); J1 abelian: FAIL witness=(0, 1); "
        "both products commutative: PASS")


def test_build_hyper_computes_one_levi_civita_product(monkeypatch, nab_lsa,
                                                      omega2):
    # the parallel_j line reuses the product of the para-Kahler part
    dims = []
    compute = forms._levi_civita

    def counted(lie, metric):
        dims.append(lie.dim)
        return compute(lie, metric)

    monkeypatch.setattr(forms, "_levi_civita", counted)
    monkeypatch.setattr(phase, "_levi_civita", counted)
    assert build_hyper(nab_lsa, nab_lsa, omega2).cert.passed
    assert dims == [4]


def _symp_zero_double(omega2):
    zero = Algebra.zero(2)
    return build_symp_double(zero, omega2, Mat.identity(2))


def test_symp_quasi_s_disagreement_names_both_routes(monkeypatch, omega2):
    classify = doubling.classify_r

    def flipped(u, r):
        cls = classify(u, r)
        skew = failing("skew_part_invariant", cls.reports[0].anchor,
                       witness=(0, 1, 0))
        return RClass(is_quasi_s=False, is_s=cls.is_s,
                      reports=(skew,) + cls.reports[1:])

    assert _symp_zero_double(omega2).cert.passed
    monkeypatch.setattr(doubling, "classify_r", flipped)
    with pytest.raises(InternalInconsistency) as err:
        _symp_zero_double(omega2)
    assert str(err.value) == (
        "endomorphism preconditions and quasi-S classification disagree: "
        "endomorphism preconditions: PASS; quasi-S classification: FAIL "
        "witness=('skew_part_invariant', (0, 1, 0))")


def test_symp_transport_disagreement_names_every_structure(monkeypatch,
                                                           omega2):
    twist = doubling._twist

    def tampered(*args):
        tw = twist(*args)
        table = [list(row) for row in tw.twisted.table]
        table[0][1] = basis_vec(4, 0)     # [e1, e2] = e1 inside U
        return dataclasses.replace(
            tw, twisted=Algebra(table, tw.twisted.basis),
            k_r=Mat.identity(4))

    monkeypatch.setattr(doubling, "_twist", tampered)
    with pytest.raises(InternalInconsistency) as err:
        _symp_zero_double(omega2)
    assert str(err.value) == (
        "direct formulas and the transported twist construction disagree: "
        "bracket: FAIL witness=(0, 1); metric: PASS; "
        "involution: FAIL witness=(0, 2)")
