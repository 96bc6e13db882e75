import dataclasses
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from lsaforge import (Bilinear, Mat, algebra, build_complex_product,
                      build_hyper, build_phase, build_symp_double,
                      build_theta_double, catalog, check, cli, cocycle_check,
                      doubling, dual_product_from_r, exact, is_invariant_form,
                      levi_civita, twisted_structures)
from lsaforge.algebra import Algebra, product_subspaces
from lsaforge.catalog import (DEFAULT_SCALARS, FAMILIES, _fingerprint,
                              _model_params,
                              build_quadratic_symplectic, canonical,
                              catalog_algebras, catalog_families,
                              catalog_load, check_type_two_constraints,
                              classify_compatible_dim2, cybe_double,
                              derivation_phase, eval_linear, flat_double,
                              graded_tensor_algebra, killing_form,
                              normalize_assoc_symp, normalize_dim2_slsa,
                              rand_fraction, rand_sym_mat, rand_symplectic,
                              rand_type_one_params,
                              rand_type_two_params, type_one_template_params,
                              type_two_family_params)
from lsaforge.report import InternalInconsistency


def test_families_listed():
    assert set(FAMILIES) == {
        "dim2_abelian", "dim2_nonabelian", "compat_family1",
        "compat_family2", "assoc_type_one", "assoc_type_two"}
    assert set(catalog_families()) == set(FAMILIES)


def test_canonical_validation_errors():
    with pytest.raises(ValueError, match="nonzero"):
        canonical("dim2_nonabelian", {"a": Fraction(0)})
    with pytest.raises(ValueError, match="missing parameter"):
        canonical("dim2_nonabelian", {})
    with pytest.raises(ValueError, match="family"):
        canonical("no_such_family", {})


def test_type_two_constraint_gate():
    good = type_two_family_params(1, 0, 1, 0)
    assert check_type_two_constraints(good).passed
    bad = dict(good)
    bad["d"] = (Mat.from_rows([[1, 0], [0, 0]]), Mat.zeros(2, 2))
    cert = check_type_two_constraints(bad)
    assert [(r.name, r.witness) for r in cert.reports] == [
        ("constraint_mixed", (0, 0, 0, 0)), ("constraint_pure", (0, 1, 0, 0))]
    with pytest.raises(ValueError, match="constraint"):
        canonical("assoc_type_two", bad)
    # one entry of the second d map breaks one law at alpha = 1
    for (i, j), want in (((0, 1), ("constraint_mixed", (1, 0, 0, 0))),
                         ((1, 1), ("constraint_pure", (1, 1, 0, 0)))):
        rows = good["d"][1].row_list()
        rows[i][j] += 1
        rows[j][i] += i != j
        cert = check_type_two_constraints(
            dict(good, d=(good["d"][0], Mat.from_rows(rows))))
        assert [(r.name, r.witness) for r in cert.reports if not r] == [want]


def test_catalog_entries_self_consistent():
    entries = catalog_algebras()
    assert len(entries) == 9
    for entry in entries:
        assert check(entry.alg, "left_symmetric")
        assert is_invariant_form(entry.omega, entry.alg)


def _assert_landing(cid, names, normalize):
    """cid carries a passing certificate with the given report names, the
    validating route accepts its parameters, and normalizing that model
    returns the same parameters by the identity."""
    assert cid.certificate.passed
    assert cid.certificate.name == "normalize_" + cid.family
    assert [r.name for r in cid.certificate.reports] == names
    model = canonical(cid.family, cid.params)
    again = normalize(*model.values())
    assert again.family == cid.family
    assert again.params == cid.params
    assert again.change_of_basis.matrix == Mat.identity(model["omega"].dim)


def _classified(bullet, circ, omega):
    return classify_compatible_dim2(bullet, circ, omega).canonical


def test_dim2_normalize_roundtrip(omega2):
    rng = random.Random(17)
    for family, a in (("dim2_abelian", Fraction(3, 2)),
                      ("dim2_nonabelian", Fraction(-2))):
        model = canonical(family, {"a": a})["alg"]
        for _ in range(5):
            p = rand_symplectic(omega2.matrix, rng)
            moved = model.conjugate(p)
            cid = normalize_dim2_slsa(moved, omega2)
            assert cid.family == family
            back = moved.conjugate(cid.change_of_basis.matrix)
            assert back == canonical(family, cid.params)["alg"]
            _assert_landing(cid, ["alg", "omega"], normalize_dim2_slsa)


def test_dim2_normalize_trivial(omega2):
    zero = Algebra([[(0, 0), (0, 0)], [(0, 0), (0, 0)]])
    cid = normalize_dim2_slsa(zero, omega2)
    assert cid.family == "trivial"
    assert cid.certificate is None


def test_classify_verdicts(nab_lsa, omega2):
    pair = canonical("compat_family1", {"a": 1, "b": 1})
    v = classify_compatible_dim2(pair["bullet"], pair["circ"], pair["omega"])
    assert v.kind == "compat_family1"
    assert v.canonical.params["a"] == 1 and v.canonical.params["b"] == 1
    _assert_landing(v.canonical, ["bullet", "circ", "omega"], _classified)
    # same product twice up to scale
    v = classify_compatible_dim2(pair["bullet"], pair["bullet"].scale(2),
                                 pair["omega"])
    assert v.kind == "trivially compatible"
    # incompatible pair (deterministic seeded construction)
    p = rand_symplectic(omega2.matrix, random.Random(3))
    v = classify_compatible_dim2(nab_lsa, nab_lsa.conjugate(p), omega2)
    assert v.kind == "incompatible"
    assert v.witness is not None
    # swapped arguments still identified
    pair2 = canonical("compat_family2", {"a": 1, "b": 1, "c": 1})
    v = classify_compatible_dim2(pair2["circ"], pair2["bullet"],
                                 pair2["omega"])
    assert v.kind == "compat_family2"
    _assert_landing(v.canonical, ["bullet", "circ", "omega"], _classified)


def _with_one_constant_changed(builder):
    """A model builder whose product has e_0 . e_0 moved by e_0."""
    def wrong(params):
        out = builder(params)
        table = [list(row) for row in out["alg"].table]
        table[0][0] = (table[0][0][0] + 1,) + table[0][0][1:]
        return dict(out, alg=Algebra(table))
    return wrong


def test_a_wrong_landing_is_named(monkeypatch, omega2):
    nab = canonical("dim2_nonabelian", {"a": 1})["alg"]
    data = canonical("assoc_type_one", type_one_template_params(1, 1, 2))
    p = rand_symplectic(data["omega"].matrix, random.Random(5))
    moved = data["alg"].conjugate(p)
    for family in ("dim2_nonabelian", "assoc_type_one"):
        monkeypatch.setitem(catalog._CANONICAL, family,
                            _with_one_constant_changed(
                                catalog._CANONICAL[family]))
    with pytest.raises(InternalInconsistency,
                       match=r"normalize_dim2_nonabelian .*FAIL alg  "
                             r"witness=\(0, 0\)"):
        normalize_dim2_slsa(nab, omega2)
    with pytest.raises(InternalInconsistency,
                       match=r"normalize_assoc_type_one .*FAIL alg  "
                             r"witness=\(0, 0\)"):
        normalize_assoc_symp(moved, data["omega"])


def test_eval_linear():
    assert eval_linear("1-a10", {"a10": Fraction(3)}) == -2
    assert eval_linear("-a00", {"a00": Fraction(2)}) == -2
    assert eval_linear("2/3", {}) == Fraction(2, 3)
    assert eval_linear("2*a+1", {"a": Fraction(1, 2)}) == 2
    with pytest.raises(ValueError, match="unknown parameter"):
        eval_linear("zz+1", {})


def test_catalog_load_matches_canonical():
    for family in FAMILIES:
        data = catalog_load(family)
        model = canonical(family, _model_params(family, data["scalars"]))
        for key, value in model.items():
            assert data[key] == value
    override = catalog_load("dim2_nonabelian", {"a": Fraction(2)})
    assert override["alg"] == canonical("dim2_nonabelian",
                                        {"a": Fraction(2)})["alg"]
    with pytest.raises(ValueError, match="unknown parameter"):
        catalog_load("dim2_nonabelian", {"bogus": 1})


def test_default_scalars_cover_families():
    assert set(DEFAULT_SCALARS) == set(FAMILIES)


def test_killing_form_nondegenerate(sl2, heis):
    assert killing_form(sl2).matrix.is_invertible()
    assert killing_form(heis).matrix.is_zero()


def test_cybe_double(heis, sl2):
    good = Mat.from_rows([[0, 0, 1], [0, 0, 0], [-1, 0, 0]])
    data = cybe_double(heis, good, Mat.zeros(3, 3))
    assert data.cert.passed
    assert data.bracket.dim == 6
    with pytest.raises(ValueError, match="Yang-Baxter"):
        cybe_double(heis, Mat.from_rows([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]),
                    Mat.zeros(3, 3))
    killing = killing_form(sl2)
    b = Mat.from_rows([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    data = cybe_double(sl2, b, killing.matrix)
    assert data.cert.passed
    # the closed forms the swapped twist must give, S the symmetric part
    r = Mat.from_rows([[1, 2, 0], [0, 1, 1], [0, -1, 0]])
    data = cybe_double(heis, good, r)
    assert data.cert.passed
    ident, zero = Mat.identity(3), Mat.zeros(3, 3)
    sym = (r + r.transpose()).scale(Fraction(1, 2))
    assert data.metric.matrix == Mat.block([[sym.scale(-2), ident],
                                            [ident, zero]])
    assert data.k == Mat.block([[-ident, zero],
                                [r.transpose().scale(-2), ident]])


@pytest.mark.parametrize("double", ["flat_double", "cybe_double"])
def test_twist_crosscheck_fails_on_a_wrong_twisted_bracket(monkeypatch, aff,
                                                           heis, double):
    q = build_quadratic_symplectic(aff, 2)
    args = {"flat_double": (q.lie, q.metric),
            "cybe_double": (heis, Mat.from_rows(
                [[0, 0, 1], [0, 0, 0], [-1, 0, 0]]), Mat.zeros(3, 3))}[double]
    real = catalog._twist

    def wrong(*args):                   # the twisted bracket, doubled
        tw = real(*args)
        assert not tw.twisted.is_zero()
        return dataclasses.replace(tw, twisted=tw.twisted.scale(2))

    monkeypatch.setattr(catalog, "_twist", wrong)
    with pytest.raises(InternalInconsistency, match="own certificate: FAIL "
                                                    "twist_crosscheck  "):
        getattr(catalog, double)(*args)


def test_graded_tensor_and_derivation_phase(aff):
    graded, deriv = graded_tensor_algebra(aff, 2)
    assert graded.dim == 4
    assert check(graded, "jacobi_antisym")
    dp = derivation_phase(graded, deriv)
    assert dp.cert.passed
    with pytest.raises(ValueError, match="invertible"):
        derivation_phase(graded, Mat.zeros(4, 4))
    # higher truncation is still a Lie algebra with nilpotent products
    deep, _ = graded_tensor_algebra(aff, 3)
    assert check(deep, "jacobi_antisym")
    assert product_subspaces(deep)["powers"][-1].is_zero()


def test_quadratic_and_flat_double(aff):
    q = build_quadratic_symplectic(aff, 2)
    assert q.cert.passed
    assert q.lie.dim == 8
    fd = flat_double(q.lie, q.metric)
    assert fd.cert.passed
    assert fd.bracket.dim == 16
    # the closed forms the twist by G^-1 must give
    ginv, ident, zero = (q.metric.matrix.inverse(), Mat.identity(8),
                         Mat.zeros(8, 8))
    assert fd.metric.matrix == Mat.block([[zero, ident],
                                          [ident, ginv.scale(-2)]])
    assert fd.k == Mat.block([[ident, ginv.scale(-2)], [zero, -ident]])


def test_rand_symplectic_property(omega2):
    rng = random.Random(23)
    for _ in range(10):
        m = rand_symplectic(omega2.matrix, rng)
        assert m.transpose() * omega2.matrix * m == omega2.matrix


def _moved_models(rng, family, draw, count):
    """(family, moved algebra, form) for count models of family at
    parameters draw(rng), each moved by a random symplectic basis."""
    out = []
    for _ in range(count):
        data = canonical(family, draw(rng))
        move = rand_symplectic(data["omega"].matrix, rng)
        out.append((family, data["alg"].conjugate(move), data["omega"]))
    return out


def _type_one_draw(p, q):
    """First-model parameters at shape (p, q) with some nonzero map."""
    def draw(rng):
        while True:
            maps = [rand_sym_mat(rng, p) for _ in range(p + q)]
            if any(not m.is_zero() for m in maps):
                return {"dim_v": p, "dim_i": q, "m": maps[:p], "n": maps[p:]}
    return draw


def _zero_products(rng):
    """The zero product at dims 2, 4 and 6 under the model's form moved by
    random unitriangular bases, so that the pair basis has work to do."""
    out = []
    for half in (1, 2, 3):
        data = canonical("assoc_type_one", {
            "dim_v": half, "dim_i": 0, "m": [Mat.zeros(half, half)] * half})
        for _ in range(2):
            move = Mat.from_rows([[rand_fraction(rng, 2) if j > i
                                   else int(i == j) for j in range(2 * half)]
                                  for i in range(2 * half)])
            gram = move.transpose() * data["omega"].matrix * move
            out.append(("assoc_type_one", data["alg"], Bilinear(gram, "skew")))
    return out


def test_assoc_normalize_roundtrip():
    """Every instance lands on its family with a passing certificate, and
    normalizing the landed model returns it by the identity: first-model
    shapes (p, q) in {1, 2, 3} x {0, 2, 4} (dims up to 10), the zero
    product, and the solved second-model family."""
    names = {"assoc_type_one": ["alg", "omega"],
             "assoc_type_two": ["alg", "omega", "constraint_mixed",
                                "constraint_pure"]}
    rng = random.Random(31)
    instances = _moved_models(rng, "assoc_type_one", rand_type_one_params, 5)
    instances += _moved_models(rng, "assoc_type_two", rand_type_two_params, 5)
    rng = random.Random(41)
    for p in (1, 2, 3):
        for q in (0, 2, 4):
            instances += _moved_models(rng, "assoc_type_one",
                                       _type_one_draw(p, q), 2)
    instances += _zero_products(rng)
    instances += _moved_models(rng, "assoc_type_two", rand_type_two_params, 6)
    for family, alg, omega in instances:
        cid = normalize_assoc_symp(alg, omega)
        assert cid.family == family
        _assert_landing(cid, names[family], normalize_assoc_symp)


def test_fingerprint_of_the_landed_product_is_that_of_the_input():
    """The associative normalizer takes dim UU and dim U^3 from its power
    chain and reads DUU, SUU and the trace-form ranks off its sparse
    landed product: every value must equal the fingerprint of the input
    itself, its spans from the generic `product_subspaces`.  Both models
    at every shape `test_assoc_normalize_roundtrip` draws, the zero
    product, and the first model at dim 12: dims 2 to 12."""
    rng = random.Random(53)
    instances = _moved_models(rng, "assoc_type_two", rand_type_two_params, 3)
    for p, q in itertools.product((1, 2, 3), (0, 2, 4)):
        instances += _moved_models(rng, "assoc_type_one",
                                   _type_one_draw(p, q), 1)
    instances += _moved_models(rng, "assoc_type_one", _type_one_draw(4, 4), 1)
    instances += _zero_products(rng)
    for family, alg, omega in instances:
        subs = product_subspaces(alg)
        want = _fingerprint(alg, subs["UU"], subs["DUU"], subs["SUU"],
                            subs["powers"][2])
        assert normalize_assoc_symp(alg, omega).fingerprint == want
    assert {alg.dim for _, alg, _ in instances} == {2, 4, 6, 8, 10, 12}


def test_the_associative_normalizer_keeps_its_elimination_budget(
        monkeypatch):
    """The eliminations of one normalization of a fixed dim-6
    second-model instance: the calls of `exact._rref_ints` and of
    `exact._echelon` (under it and under `complement_in`), counted on a
    second call, after the form's inverse is kept.  Exact counts, no
    timing, so a span that is computed twice or a power chain that slips
    back to sums of subspace products shows here."""
    data = canonical("assoc_type_two",
                     type_two_family_params(2, -1, 3, Fraction(1, 2)))
    move = rand_symplectic(data["omega"].matrix, random.Random(5))
    alg, omega = data["alg"].conjugate(move), data["omega"]
    normalize_assoc_symp(alg, omega)
    counts = Counter()
    for name in ("_rref_ints", "_echelon"):
        def counted(*args, _run=getattr(exact, name), _name=name):
            counts[_name] += 1
            return _run(*args)
        monkeypatch.setattr(exact, name, counted)
    assert normalize_assoc_symp(alg, omega).certificate.passed
    assert counts == {"_rref_ints": 20, "_echelon": 24}


@pytest.mark.parametrize("params, message", [
    ({"dim_v": 0}, "dim_v must be at least 1"),
    ({"dim_v": 1, "dim_i": 1}, "dim_i must be a nonnegative even integer"),
    ({"dim_v": 2, "m": [[[1, 0], [0, 1]]]}, "m must list 2 matrices"),
    ({"dim_v": 2, "m": [[[0, 1], [0, 0]], [[1, 0], [0, 1]]]},
     "m matrices must be symmetric"),
    ({"dim_v": 1, "dim_i": 2, "m": [[[1]]],
      "n": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]]}, "n matrices must be 1x1"),
    ({"dim_v": 1, "dim_i": 2, "m": [], "n": []}, "m must list 1 matrices"),
], ids=["dim_v", "dim_i", "m_count", "m_symmetric", "n_size", "m_before_n"])
def test_type_one_parameter_errors(params, message):
    with pytest.raises(ValueError) as err:
        canonical("assoc_type_one", params)
    assert str(err.value) == message


# Only c's entries off the V0 x V0 block are nonzero: the constraint
# equations do not see them, yet they break associativity at (5, 6, 6).
GAP_PARAMS = {"dim_v0": 1, "dim_v1": 1, "dim_i0": 2, "dim_i1": 2,
              "a": [[[-1]]], "b": [[[1]], [[1]]],
              "c": [[[0, 0], [0, 0]], [[0, -1], [-1, 0]]],
              "d": [[[-1, 1], [1, 0]], [[-1, 1], [1, 0]]],
              "f": [[[1, 0]], [[1, 0]]]}


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="the type-two constraint equations miss the I1 "
                          "block of c")
def test_type_two_constraints_imply_a_model():
    if check_type_two_constraints(GAP_PARAMS).passed:
        canonical("assoc_type_two", GAP_PARAMS)


def test_type_one_template_params():
    params = type_one_template_params(1, 1, 2)
    data = canonical("assoc_type_one", params)
    assert check(data["alg"], "associative")


def _scaled_params(base: dict, moved: dict) -> bool:
    """moved is base under the symplectic scaling diag(1/s, s) of the
    plane, which sends (a, b, c) to (s a, s^3 b, s c) and keeps swapped
    and sign: the compatible families' parameters are a normal form up to
    that scaling, so a moved pair may land on another point of its orbit."""
    s = moved["a"] / base["a"]
    return moved == dict(base, a=s * base["a"], b=s ** 3 * base["b"],
                         **({"c": s * base["c"]} if "c" in base else {}))


def test_classifier_is_equivariant_under_symplectic_moves():
    """A pair moved by a symplectic basis gets its unmoved pair's verdict,
    with parameters on the same scaling orbit: both compatible families,
    each with swapped arguments, and a proportional pair at ratio -3/2."""
    pairs = []
    for family, params in (
            ("compat_family1", {"a": Fraction(3, 2), "b": Fraction(-2)}),
            ("compat_family2", {"a": Fraction(1), "b": Fraction(-1, 3),
                                "c": Fraction(2)})):
        pair = canonical(family, params)
        pairs += [(pair["bullet"], pair["circ"], pair["omega"]),
                  (pair["circ"], pair["bullet"], pair["omega"])]
    nab = canonical("dim2_nonabelian", {"a": Fraction(2)})
    pairs.append((nab["alg"], nab["alg"].scale(Fraction(-3, 2)), nab["omega"]))
    rng = random.Random(43)
    seen = set()
    for bullet, circ, omega in pairs:
        base = classify_compatible_dim2(bullet, circ, omega)
        seen.add(base.kind)
        for _ in range(3):
            p = rand_symplectic(omega.matrix, rng)
            moved = classify_compatible_dim2(bullet.conjugate(p),
                                             circ.conjugate(p), omega)
            assert moved.kind == base.kind
            if base.canonical is None:
                assert moved.canonical is None
            else:
                assert _scaled_params(base.canonical.params,
                                      moved.canonical.params)
    assert seen == {"compat_family1", "compat_family2",
                    "trivially compatible"}


def _no_table(alg):
    raise AssertionError("a route read the Fraction view Algebra.table")


def test_no_route_builds_an_algebra_table_view(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(Algebra, "table", property(_no_table))
    for family in FAMILIES:
        canonical(family, _model_params(family, DEFAULT_SCALARS[family]))
        catalog_load(family)
    nab, ab = (canonical(family, {"a": Fraction(3, 2)})
               for family in ("dim2_nonabelian", "dim2_abelian"))
    omega = nab["omega"]
    assert [normalize_dim2_slsa(alg, omega).family
            for alg in (nab["alg"], ab["alg"], Algebra.zero(2))] == [
        "dim2_nonabelian", "dim2_abelian", "trivial"]
    one = canonical("compat_family1", {"a": 1, "b": 1})
    two = canonical("compat_family2", {"a": 1, "b": 1, "c": 1})
    moved = nab["alg"].conjugate(rand_symplectic(omega.matrix,
                                                 random.Random(3)))
    assert [classify_compatible_dim2(x, y, omega).kind for x, y in (
        (one["bullet"], one["circ"]), (two["circ"], two["bullet"]),
        (nab["alg"], nab["alg"].scale(2)), (nab["alg"], moved))] == [
        "compat_family1", "compat_family2", "trivially compatible",
        "incompatible"]
    rng = random.Random(5)
    for family in ("assoc_type_one", "assoc_type_two"):
        data = canonical(family, _model_params(family,
                                               DEFAULT_SCALARS[family]))
        p = rand_symplectic(data["omega"].matrix, rng)
        assert normalize_assoc_symp(data["alg"].conjugate(p),
                                    data["omega"]).family == family
    data = build_quadratic_symplectic(nab["alg"].commutator_algebra(), 2)
    lc = levi_civita(data.lie, data.metric)
    dual = dual_product_from_r(lc, data.metric.matrix.inverse())
    assert not dual.is_zero() and cocycle_check(lc, dual)
    for family, argv in (("dim2_nonabelian", ["normalize", "dim2"]),
                         ("assoc_type_two", ["normalize", "assoc"]),
                         ("compat_family2", ["classify", "compat2"])):
        path = str(tmp_path / (family + ".json"))
        assert cli.run(["catalog", "emit", family, "--out", path]) == 0
        assert cli.run(argv + [path]) == 0, capsys.readouterr().err


def _precondition_calls():
    aff = Algebra([[(0, 0), (1, 0)], [(-1, 0), (0, 0)]])
    nab = Algebra([[(0, 0), (1, 0)], [(-1, 0), (0, 1)]])
    p = rand_symplectic(Mat.from_rows([[0, 1], [-1, 0]]), random.Random(3))
    return {
        "twist_u_not_left_symmetric": (
            lambda: twisted_structures(aff, Mat.zeros(2, 2)),
            "product on U is not left symmetric (witness (0, 1, 1))"),
        # aff is not left symmetric either: the quasi-S verdict comes first
        "twist_r_not_quasi_s": (
            lambda: twisted_structures(aff, Mat.from_rows([[0, 1], [-1, 0]])),
            "r is not a quasi-S-matrix: FAIL skew_part_invariant  "
            "witness=(1, 0, 1)  violated: sum over slots of ('L', 'L') "
            "action == 0"),
        "phase_dual_not_left_symmetric": (
            lambda: build_phase(nab, aff),
            "product on U* is not left symmetric (witness (0, 1, 1))"),
        "flat_double_metric_not_flat": (
            lambda: flat_double(aff, Bilinear(Mat.identity(2), "symmetric")),
            "metric is not flat: FAIL is_flat  witness=(0, 1, 0)  violated: "
            "ass(u,v,w) == ass(v,u,w)  Levi-Civita product"),
        "complex_product_incompatible": (
            lambda: build_complex_product(nab, nab.conjugate(p)),
            "products are not compatible: FAIL is_compatible  "
            "witness=('first', 0, 0, 1)  violated: K(x,y)z == K(z,y)x and "
            "K(x,y)z == K(x,z)y"),
    }


@pytest.mark.parametrize("case", sorted(_precondition_calls()))
def test_preconditions_keep_their_messages_and_order(case):
    call, message = _precondition_calls()[case]
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def _construction_calls():
    """Each construction on valid input, returning its certificate; the
    input is built up front, so only the construction's checks count."""
    aff = Algebra([[(0, 0), (1, 0)], [(-1, 0), (0, 0)]])
    heis = Algebra([[(0, 0, 0), (0, 0, 1), (0, 0, 0)],
                    [(0, 0, -1), (0, 0, 0), (0, 0, 0)],
                    [(0, 0, 0), (0, 0, 0), (0, 0, 0)]])
    omega = Bilinear(Mat.from_rows([[0, 1], [-1, 0]]), "skew")
    plane = Algebra.zero(2)
    r = Mat.from_rows([[Fraction(2, 3), Fraction(-1, 3)],
                       [Fraction(-1, 3), Fraction(-1, 2)]])
    q = build_quadratic_symplectic(aff, 1)
    pair = canonical("compat_family1", {"a": 1, "b": 1})
    ab = canonical("dim2_abelian", {"a": 1})["alg"]
    graded, deriv = graded_tensor_algebra(aff, 2)
    yb_sol = Mat.from_rows([[0, 0, 1], [0, 0, 0], [-1, 0, 0]])
    return {
        "twisted_structures": lambda: twisted_structures(plane, r).cert,
        "flat_double": lambda: flat_double(q.lie, q.metric).cert,
        "cybe_double": lambda: cybe_double(heis, yb_sol, Mat.zeros(3, 3)).cert,
        "build_quadratic_symplectic":
            lambda: build_quadratic_symplectic(aff, 1).cert,
        "build_hyper": lambda: build_hyper(pair["bullet"], pair["circ"],
                                           pair["omega"]).cert,
        "build_symp_double": lambda: build_symp_double(
            Algebra.zero(2), omega, Mat.identity(2)).cert,
        "build_theta_double": lambda: build_theta_double(
            ab, omega, Mat.identity(2)).cert,
        "derivation_phase": lambda: derivation_phase(graded, deriv).cert,
        "classify_compatible_dim2": lambda: classify_compatible_dim2(
            pair["bullet"], pair["circ"], pair["omega"]).canonical.certificate,
    }


@pytest.mark.parametrize("construction", sorted(_construction_calls()))
def test_each_law_is_checked_once_per_construction(monkeypatch,
                                                   construction):
    """Every `check` a construction makes, keyed by predicate and object
    identity (each object is held, so no id is reused): no pair runs
    twice, and the double product of a compatible pair is built once."""
    call = _construction_calls()[construction]
    counts, held = Counter(), []
    for predicate, sweep in list(algebra._CHECKS.items()):
        def counted(alg, _predicate=predicate, _sweep=sweep):
            held.append(alg)
            counts[_predicate, id(alg)] += 1
            return _sweep(alg)
        monkeypatch.setitem(algebra._CHECKS, predicate, counted)
    built = Counter()

    def tu_counted(bullet, circ, _make=doubling.tu_product):
        built["tu_product"] += 1
        return _make(bullet, circ)
    monkeypatch.setattr(doubling, "tu_product", tu_counted)
    assert call().passed
    assert counts and max(counts.values()) == 1, sorted(
        (p, n) for (p, _), n in counts.items() if n > 1)
    if construction == "build_hyper":
        assert built["tu_product"] == 1
