import random
from fractions import Fraction

import pytest

import oracle_routes as oracle
from lsaforge import (Bilinear, InternalInconsistency, Mat, Tensor2,
                      build_phase, check, coadjoint_double, cocycle_check,
                      is_lie_extendible, phase, twisted_structures,
                      verify_hyper_para_kahler, verify_para_kahler)
from lsaforge.algebra import Algebra
from lsaforge.exact import basis_vec, zero_vec


def _zero_alg(n):
    zero = tuple(Fraction(0) for _ in range(n))
    return Algebra([[zero] * n for _ in range(n)])


def test_build_phase_shape(nab_lsa):
    ps = build_phase(nab_lsa)
    assert ps.extended.dim == 4
    assert ps.omega0.kind == "skew"
    expected = Mat.block([[Mat.zeros(2, 2), Mat.identity(2)],
                          [Mat.identity(2).scale(-1), Mat.zeros(2, 2)]])
    assert ps.omega0.matrix == expected
    assert check(ps.extended, "left_symmetric")


def test_build_phase_mixed_products(ab_lsa):
    ps = build_phase(ab_lsa)
    ext = ps.extended
    n = ab_lsa.dim
    x = basis_vec(2 * n, 1)          # e2 in the base
    a = basis_vec(2 * n, n + 1)      # e2* in the dual copy
    # base.base stays the base product; dual.dual is the dual product (zero)
    prod_xx = ext.product(x, x)
    assert prod_xx[:n] == ab_lsa.product(basis_vec(n, 1), basis_vec(n, 1))
    assert all(c == 0 for c in prod_xx[n:])
    assert ext.product(a, a) == zero_vec(2 * n)
    # x.a = -(L_x)^t a lives in the dual summand
    mixed = ext.product(x, a)
    assert all(c == 0 for c in mixed[:n])
    lt = ab_lsa.left_mult(basis_vec(n, 1)).transpose()
    assert mixed[n:] == tuple(-c for c in lt.col(1))


def test_build_phase_rejects_non_lsa(aff):
    with pytest.raises(ValueError):
        build_phase(aff)


def test_extendibility_agreement(ab_lsa, nab_lsa):
    pairs = [
        (ab_lsa, _zero_alg(2)),
        (nab_lsa, _zero_alg(2)),
        (ab_lsa, ab_lsa),
        (nab_lsa, nab_lsa),
        (nab_lsa, ab_lsa),
    ]
    for u, dual in pairs:
        ext = bool(is_lie_extendible(u, dual))
        coc = bool(cocycle_check(u, dual))
        assert ext == coc
        ps = build_phase(u, dual)
        assert ext == bool(check(ps.extended, "lie_admissible"))


def test_para_kahler_certificate(nab_lsa):
    ps = build_phase(nab_lsa)
    lie = ps.extended.commutator_algebra()
    n = nab_lsa.dim
    k = Mat.block([[Mat.identity(n), Mat.zeros(n, n)],
                   [Mat.zeros(n, n), Mat.identity(n).scale(-1)]])
    metric = Bilinear(ps.omega0.matrix * k, "symmetric")
    cert = verify_para_kahler(lie, metric, k)
    assert cert.passed
    names = {r.name for r in cert.reports}
    assert {"bracket", "involution", "eigenspace_split", "parallel_k",
            "omega_skew", "omega_cocycle"} <= names
    assert all(line.strip().startswith("PASS") for line in cert.lines())


def test_para_kahler_tampered_metric(nab_lsa):
    ps = build_phase(nab_lsa)
    lie = ps.extended.commutator_algebra()
    n = nab_lsa.dim
    k = Mat.block([[Mat.identity(n), Mat.zeros(n, n)],
                   [Mat.zeros(n, n), Mat.identity(n).scale(-1)]])
    bad = Bilinear(Mat.identity(2 * n), "symmetric")
    cert = verify_para_kahler(lie, bad, k)
    assert not cert.passed
    first = cert.first_failure()
    assert first is not None and not first.passed


def test_hyper_certificate_fails_where_the_bracket_or_metric_fails(nab_lsa):
    # the para-Kahler part stops at its bracket or metric line, so J has
    # no Levi-Civita product to be parallel for: parallel_j fails too
    ps = build_phase(nab_lsa)
    n = nab_lsa.dim
    k = Mat.block([[Mat.identity(n), Mat.zeros(n, n)],
                   [Mat.zeros(n, n), Mat.identity(n).scale(-1)]])
    j = Mat.block([[Mat.zeros(n, n), Mat.identity(n).scale(-1)],
                   [Mat.identity(n), Mat.zeros(n, n)]])
    z = zero_vec(4)
    only_e1e2 = Algebra([[z, (0, 0, 1, 0), z, z]] + [[z] * 4] * 3)
    degenerate = Bilinear(Mat.zeros(4, 4), "symmetric")
    lie = ps.extended.commutator_algebra()
    for alg, metric, first in ((ps.extended, ps.pairing0, "bracket"),
                               (only_e1e2, ps.pairing0, "bracket"),
                               (lie, degenerate, "metric")):
        para = verify_para_kahler(alg, metric, k)
        hyper = verify_hyper_para_kahler(alg, metric, k, j)
        assert not hyper.passed
        assert hyper.first_failure() == para.first_failure()
        assert hyper.first_failure().name == first
        assert hyper.reports[:len(para.reports)] == para.reports
        assert [r.name for r in hyper.reports[len(para.reports):]] == [
            "complex_j", "anticommute", "metric_skew_j", "torsion_j",
            "parallel_j"]
        assert not hyper.reports[-1].passed
    assert verify_para_kahler(only_e1e2, ps.pairing0, k).lines()[1] == (
        "  FAIL bracket  witness=(0, 1)  violated: [u,v] == -[v,u] and "
        "cyclic sum [[u,v],w] == 0")


def test_extendible_disagreement_names_both_routes(monkeypatch, nab_lsa):
    monkeypatch.setattr(phase, "_extendible_witness",
                        lambda ps: ("rho", 0, 0, 1))
    with pytest.raises(InternalInconsistency) as err:
        is_lie_extendible(nab_lsa, _zero_alg(2))
    assert str(err.value) == (
        "rho-symmetry and extended-product Lie-admissibility disagree: "
        "rho-symmetry: FAIL witness=('rho', 0, 0, 1); "
        "extended-product Lie-admissibility: PASS")


def test_cocycle_disagreement_names_both_routes(monkeypatch, nab_lsa):
    monkeypatch.setattr(phase, "_cocycle_witness",
                        lambda alg, other: (0, 1, 0, 0))
    with pytest.raises(InternalInconsistency) as err:
        cocycle_check(nab_lsa, _zero_alg(2))
    assert str(err.value) == (
        "1-cocycle characterization and rho-symmetry disagree: "
        "1-cocycle characterization: FAIL witness=(0, 1, 0, 0); "
        "rho-symmetry: PASS")


def test_parallel_report_names_the_first_index_that_fails():
    # only L_{e3} is nonzero (e3.e1 = e2), so the witness is the last index
    z = zero_vec(3)
    lc = Algebra([[z, z, z], [z, z, z], [(0, 1, 0), z, z]])
    diag = Mat.from_rows([[Fraction(1, 3), 0, 0], [0, Fraction(2, 7), 0],
                          [0, 0, 1]])
    rep = phase._parallel_report(lc, diag, "J")
    assert (rep.name, rep.passed, rep.witness) == ("parallel_j", False, (2,))
    rep = phase._parallel_report(lc, Mat.identity(3).scale(Fraction(5, 3)),
                                 "K")
    assert (rep.name, rep.passed, rep.witness) == ("parallel_k", True, None)


def _mixed_mat(rng, n, density):
    return Mat(n, n, [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 9)))
                      if rng.random() < density else 0 for _ in range(n * n)])


def test_cell_builders_match_the_block_formulas():
    """The U + U* builders, assembled from integer cells, against the
    `Mat.block` formulas they replaced (stored forms compared), on seeded
    matrices with mixed denominators, zero blocks and n = 0; and the
    twist's xi, metric and involution and the coadjoint double's xi."""
    rng = random.Random(24)
    for _ in range(40):
        n = rng.randint(0, 5)
        a, g, c = (_mixed_mat(rng, n, rng.choice((0.0, 0.4, 1.0)))
                   for _ in range(3))
        for f, s in ((-2, -1), (-1, 1), (3, -2)):
            assert phase._upper_block(n, a, f, s) == \
                oracle.block_upper(n, a, f, s)
            assert phase._upper_block(n, None, f, s) == \
                oracle.block_upper(n, None, f, s)
        assert phase._involution(n, a) == oracle.block_upper(n, a, -2, -1)
        assert phase._involution(n) == oracle.block_upper(n, None, -2, -1)
        assert phase._split_form(g, c) == oracle.block_split_form(g, c)
        assert phase._split_form(g) == oracle.block_split_form(g, None)
    for n in (1, 2, 3):
        zero = _zero_alg(n)
        r = Tensor2(zero, _mixed_mat(rng, n, 1.0))
        tw = twisted_structures(zero, r)           # every r is quasi-S here
        assert tw.xi == oracle.block_upper(n, r.r_sharp, -1, 1)
        assert tw.k_r == oracle.block_upper(n, r.r_sharp, -2, -1)
        assert tw.metric_r.matrix == oracle.block_split_form(
            Mat.identity(n), r.sym_matrix.scale(-2))
        skew = r.matrix - r.matrix.transpose()
        assert coadjoint_double(zero, skew).xi == oracle.block_upper(
            n, skew.transpose(), -1, 1)


def test_phase_forms_are_built_once_per_dimension(nab_lsa, ab_lsa):
    """pairing0, omega0 and k0 are shared by every phase space of one
    dimension and equal the block formulas."""
    ps, other = build_phase(nab_lsa), build_phase(ab_lsa)
    assert (ps.pairing0, ps.omega0, ps.k0) == phase._phase_forms(2)
    assert other.pairing0 is ps.pairing0 and other.omega0 is ps.omega0
    assert other.k0 is ps.k0
    ident = Mat.identity(2)
    assert ps.pairing0.matrix == oracle.block_split_form(ident, None)
    assert ps.k0 == oracle.block_upper(2, None, -2, -1)
    assert build_phase(_zero_alg(3)).k0 == oracle.block_upper(3, None, -2, -1)
