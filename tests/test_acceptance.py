"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line; every comparison is exact
rational arithmetic with zero tolerance.
"""

import random
from fractions import Fraction

from lsaforge import (Bilinear, Mat, Tensor2, build_hyper, build_phase,
                      build_symp_double, build_theta_double, check,
                      classify_r, cocycle_check, compat_curvature, delta_op,
                      is_compatible, is_invariant_form, is_lie_extendible,
                      levi_civita, lts_from_o, lts_from_yb, o_op, oeq_check,
                      pencil, tu_product, twisted_structures, yb)
from lsaforge.algebra import Algebra
from lsaforge.catalog import (build_quadratic_symplectic, canonical,
                              catalog_algebras, flat_double, rand_fraction,
                              normalize_assoc_symp, rand_symplectic,
                              rand_type_one_params, rand_type_two_params)
from lsaforge.exact import basis_vec
from lsaforge.smatrix import rr_delta_agree


def _run(number, description, fn):
    try:
        fn()
    except BaseException:
        print("FAIL %2d  %s" % (number, description))
        raise
    print("PASS %2d  %s" % (number, description))


def _heis():
    return Algebra([[(0, 0, 0), (0, 0, 1), (0, 0, 0)],
                    [(0, 0, -1), (0, 0, 0), (0, 0, 0)],
                    [(0, 0, 0), (0, 0, 0), (0, 0, 0)]])


def _aff():
    return Algebra([[(0, 0), (1, 0)], [(-1, 0), (0, 0)]])


def _omega2():
    return Bilinear(Mat.from_rows([[0, 1], [-1, 0]]), "skew")


def _quasi_s_instances():
    """Deterministic seeded search for quasi-S tensors over the catalog
    algebras plus the Heisenberg bracket viewed as a product.  Dense
    draws are never quasi-S on the Heisenberg product, so it also gets
    r = 0 and draws with zero entries."""
    rng = random.Random(7)
    algebras = [entry.alg for entry in catalog_algebras()] + [_heis()]
    found = []
    for alg in algebras:
        n = alg.dim
        for _ in range(25):
            r = Tensor2(alg, Mat(n, n, [rand_fraction(rng, 2)
                                        for _ in range(n * n)]))
            if classify_r(alg, r).is_quasi_s:
                found.append((alg, r))
    heis = _heis()
    found.append((heis, Tensor2(heis, Mat.zeros(3, 3))))
    for _ in range(10):
        r = Tensor2(heis, Mat(3, 3, [rand_fraction(rng, 2)
                                     if rng.random() < 0.5 else Fraction(0)
                                     for _ in range(9)]))
        if classify_r(heis, r).is_quasi_s:
            found.append((heis, r))
    return found


def test_criterion_01_catalog_conformance():
    def body():
        omega = _omega2()
        for a in (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)):
            for family in ("dim2_abelian", "dim2_nonabelian"):
                alg = canonical(family, {"a": a})["alg"]
                assert check(alg, "left_symmetric")
                assert is_invariant_form(omega, alg)
            nab = canonical("dim2_nonabelian", {"a": a})["alg"]
            assert nab.commutator_algebra().product(
                basis_vec(2, 0), basis_vec(2, 1)) == \
                (2 * a, Fraction(0))
    _run(1, "dim-2 catalog families: left symmetric, omega-invariant,"
            " [e1,e2] = 2a e1", body)


def test_criterion_02_double_bracket_oracle():
    def body():
        rng = random.Random(2025)
        for entry in catalog_algebras():
            if entry.alg.dim > 4:
                continue
            n = entry.alg.dim
            for _ in range(25):
                r = Tensor2(entry.alg,
                            Mat(n, n, [rand_fraction(rng)
                                       for _ in range(n * n)]))
                assert rr_delta_agree(entry.alg, r)
    _run(2, "double bracket equals the pairing against delta(r),"
            " 25 seeded r per small catalog algebra", body)


def test_criterion_03_xi_isomorphism():
    def body():
        aff = _aff()
        heis = _heis()
        abelian = Algebra([[(0, 0), (0, 0)], [(0, 0), (0, 0)]])
        instances = [
            (abelian, Bilinear(Mat.from_rows([[2, 1], [1, 1]]), "symmetric")),
        ]
        for base in (aff, heis):
            q = build_quadratic_symplectic(base, 2)
            instances.append((q.lie, q.metric))
        assert len(instances) >= 3
        for lie, metric in instances:
            dot = levi_civita(lie, metric)
            r = Tensor2(dot, metric.matrix.inverse())
            assert classify_r(dot, r).is_quasi_s
            tw = twisted_structures(dot, r)
            n = 2 * dot.dim
            xi = tw.xi
            for i in range(n):
                for j in range(n):
                    ei = tuple(Fraction(k == i) for k in range(n))
                    ej = tuple(Fraction(k == j) for k in range(n))
                    lhs = tuple(xi.apply(tw.twisted.product(ei, ej)))
                    rhs = tuple(tw.bracket_r.product(tuple(xi.col(i)),
                                                     tuple(xi.col(j))))
                    assert lhs == rhs
    _run(3, "xi intertwines the twisted bracket and the r-bracket on"
            " three flat-metric instances", body)


def test_criterion_04_para_kahler_certificates():
    def body():
        # (i) zero-twist doubles of every catalog algebra
        for entry in catalog_algebras():
            n = entry.alg.dim
            tw = twisted_structures(entry.alg, Tensor2(entry.alg,
                                                       Mat.zeros(n, n)))
            assert tw.cert.passed
        # (ii) every quasi-S instance found in the seeded search
        instances = _quasi_s_instances()
        assert len(instances) >= 50
        assert any(alg == _heis() and not r.matrix.is_zero()
                   for alg, r in instances)
        for alg, r in instances:
            assert twisted_structures(alg, r).cert.passed
        # (iii) flat double of the quadratic builder: total dimension 16
        q = build_quadratic_symplectic(_aff(), 2)
        fd = flat_double(q.lie, q.metric)
        assert fd.cert.passed and fd.bracket.dim == 16
        # (iv) symplectic operator double with A = lambda Id
        zero2 = Algebra([[(0, 0), (0, 0)], [(0, 0), (0, 0)]])
        for lam in (Fraction(1), Fraction(1, 2)):
            data = build_symp_double(zero2, _omega2(),
                                     Mat.identity(2).scale(lam))
            assert data.cert.passed
    _run(4, "para-Kahler certificates: zero-twist doubles, quasi-S twists,"
            " dim-16 flat double, lambda Id operator double", body)


def test_criterion_05_hyper_certificates():
    def body():
        omega = _omega2()
        nab = canonical("dim2_nonabelian", {"a": 1})["alg"]
        data = build_hyper(nab, nab, omega)
        assert data.cert.passed
        assert data.complex_product.lie.dim == 4
        e2 = basis_vec(2, 1)
        pair = canonical("compat_family1", {"a": 1, "b": 1})
        assert build_hyper(pair["bullet"], pair["circ"],
                           pair["omega"]).cert.passed
        assert compat_curvature(pair["bullet"], pair["circ"], e2, e2) == \
            Mat.from_rows([[0, -2], [0, 0]])
        pair = canonical("compat_family2", {"a": 1, "b": 1, "c": 2})
        assert build_hyper(pair["bullet"], pair["circ"],
                           pair["omega"]).cert.passed
        assert compat_curvature(pair["bullet"], pair["circ"], e2, e2) == \
            Mat.from_rows([[0, 6], [0, 0]])
    _run(5, "hyper certificates for the self-double and both compatible"
            " families, with exact mixed curvature values", body)


def test_criterion_06_compatibility_pencil():
    def body():
        pair = canonical("compat_family1", {"a": 1, "b": 1})
        assert is_compatible(pair["bullet"], pair["circ"])
        coeffs = [(Fraction(1), Fraction(1)),
                  (Fraction(1, 2), Fraction(3)),
                  (Fraction(-2), Fraction(2, 3)),
                  (Fraction(0), Fraction(1)),
                  (Fraction(5), Fraction(-1))]
        for a, b in coeffs:
            assert check(pencil(pair["bullet"], pair["circ"], a, b),
                         "left_symmetric")
    _run(6, "pencil of the compatible pair stays left symmetric for five"
            " rational coefficient pairs", body)


def test_criterion_07_operator_identities():
    def body():
        rng = random.Random(77)
        for entry in catalog_algebras():
            n = entry.alg.dim
            for _ in range(20):
                a = Mat(n, n, [rand_fraction(rng) for _ in range(n * n)])
                assert oeq_check(a, entry.alg)
        for lie in (_aff(), _heis()):
            n = lie.dim
            got = yb(Mat.identity(n), lie)
            for i in range(n):
                for j in range(n):
                    assert got.table[i][j] == tuple(
                        lie.product(basis_vec(n, i), basis_vec(n, j)))
        nab = canonical("dim2_nonabelian", {"a": 1})["alg"]
        assert delta_op(Mat.identity(2), nab).is_zero()
        assert o_op(Mat.identity(2), nab).is_zero()
    _run(7, "operator identity O(A) = N_A + A o delta(A) for 20 random A"
            " per algebra; identity operator degenerations", body)


def test_criterion_08_lie_triple_systems():
    def body():
        instances = _quasi_s_instances()
        alg, r = next((alg, r) for alg, r in instances
                      if not delta_op(r.matrix, alg).is_zero())
        tw = twisted_structures(alg, r)
        assert tw.lts.check().passed
        for lam in (Fraction(1), Fraction(1, 2), Fraction(2)):
            assert lts_from_yb(_aff(), Mat.identity(2).scale(lam)) \
                .check().passed
        ab = canonical("dim2_abelian", {"a": 1})["alg"]
        assert build_theta_double(ab, _omega2(),
                                  Mat.identity(2)).cert.passed
        assert lts_from_o(ab, Mat.identity(2)).check().passed
    _run(8, "Lie triple systems from a quasi-S twist, from YB(lambda Id),"
            " and from a certified operator double", body)


def test_criterion_09_structure_chain():
    def body():
        from lsaforge.algebra import product_subspaces
        rng = random.Random(99)
        count = 0
        for _ in range(25):
            for family, sampler in (("assoc_type_one", rand_type_one_params),
                                    ("assoc_type_two",
                                     rand_type_two_params)):
                params = sampler(rng)
                data = canonical(family, params)
                p = rand_symplectic(data["omega"].matrix, rng)
                moved = data["alg"].conjugate(p)
                subs = product_subspaces(moved)
                assert subs["powers"][3].is_zero()          # U^4 == 0
                uu = subs["UU"]
                for x in uu.basis:                          # (U^2)^2 == 0
                    for y in uu.basis:
                        assert all(c == 0 for c in moved.product(x, y))
                cid = normalize_assoc_symp(moved, data["omega"])
                assert cid.family == family
                if moved.dim == 4:
                    assert cid.family == "assoc_type_one"
                count += 1
        assert count >= 50
    _run(9, "50 randomized associative symplectic instances: nilpotency"
            " bounds hold and the normalizer recovers the right type", body)


def test_criterion_10_cross_verifier_consistency():
    def body():
        rng = random.Random(5)
        algebras = [entry.alg for entry in catalog_algebras()]
        for _ in range(10):
            n = rng.randint(2, 3)
            table = [[tuple(rand_fraction(rng, 1) for _ in range(n))
                      for _ in range(n)] for _ in range(n)]
            algebras.append(Algebra(table))
        for alg in algebras:
            assert bool(check(alg, "lie_admissible")) == \
                bool(check(alg.commutator_algebra(), "jacobi_antisym"))
        nab = canonical("dim2_nonabelian", {"a": 1})["alg"]
        ab = canonical("dim2_abelian", {"a": 1})["alg"]
        for u, dual in ((ab, ab), (nab, nab), (nab, ab), (ab, nab)):
            ext = bool(is_lie_extendible(u, dual))
            assert ext == bool(cocycle_check(u, dual))
            assert ext == bool(check(build_phase(u, dual).extended,
                                     "lie_admissible"))
        pair = canonical("compat_family1", {"a": 1, "b": 1})
        p = rand_symplectic(_omega2().matrix, random.Random(3))
        pairs = [(pair["bullet"], pair["circ"]),
                 (nab, nab.conjugate(p)), (nab, ab)]
        for bullet, circ in pairs:
            assert bool(check(tu_product(bullet, circ), "lie_admissible")) \
                == bool(is_compatible(bullet, circ))
    _run(10, "cross-verifier agreement: Lie admissibility, extendibility,"
             " and pair compatibility verified two ways each", body)
