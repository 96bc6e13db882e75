import itertools
import random
from fractions import Fraction

import pytest

import oracle_routes as oracle
from lsaforge import (Algebra, Bilinear, Endo, InternalInconsistency,
                      LieTriple, Mat, Tensor2, build_phase, check,
                      coadjoint_double, delta_op, delta_r,
                      dual_product_from_r, invariance_check, is_derivation,
                      levi_civita, nijenhuis, o_op, product_subspaces,
                      twisted_structures, yb)
from lsaforge import algebra, forms, phase
from lsaforge.algebra import associator, curvature
from lsaforge.catalog import build_quadratic_symplectic
from lsaforge.doubling import theta_circ_product
from lsaforge.exact import basis_vec


def test_predicates_on_fixtures(aff, heis, nab_lsa, ab_lsa):
    assert check(aff, "jacobi_antisym")
    assert check(heis, "jacobi_antisym")
    assert check(heis, "left_symmetric")      # two-step nilpotent bracket
    assert not check(aff, "left_symmetric")   # bracket of a solvable algebra
    assert check(nab_lsa, "left_symmetric")
    assert check(ab_lsa, "left_symmetric")
    assert check(ab_lsa, "commutative")
    assert not check(nab_lsa, "commutative")
    assert check(nab_lsa, "lie_admissible")
    assert not check(nab_lsa, "associative")


def test_bracket_and_ad(aff):
    x, y = basis_vec(2, 0), basis_vec(2, 1)
    assert aff.product(x, y) == (Fraction(1), Fraction(0))
    assert aff.left_mult(y).apply(x) == (Fraction(-1), Fraction(0))


@pytest.mark.parametrize("table,jacobi,message", [
    # the Heisenberg product: Lie admissible, its Jacobi route made to fail
    ([[(0, 0, 0), (0, 0, 1), (0, 0, 0)], [(0, 0, -1), (0, 0, 0), (0, 0, 0)],
      [(0, 0, 0)] * 3], (0, 1, 2),
     "cyclic curvature sum: PASS; commutator Jacobi: FAIL witness=(0, 1, 2)"),
    # e1.e2 = e3, e2.e3 = e1, e3.e1 = e1: not Lie admissible, its Jacobi
    # route made to pass
    ([[(0, 0, 0), (0, 0, 1), (0, 0, 0)], [(0, 0, 0), (0, 0, 0), (1, 0, 0)],
      [(1, 0, 0), (0, 0, 0), (0, 0, 0)]], None,
     "cyclic curvature sum: FAIL witness=(0, 1, 2); commutator Jacobi: PASS"),
], ids=["jacobi_fails", "jacobi_passes"])
def test_lie_admissible_disagreement_names_both_routes(monkeypatch, table,
                                                       jacobi, message):
    monkeypatch.setattr(algebra, "_jacobi_witness", lambda br: jacobi)
    with pytest.raises(InternalInconsistency) as err:
        check(Algebra(table), "lie_admissible")
    assert str(err.value) == ("cyclic curvature sum and commutator Jacobi "
                              "check disagree: " + message)



def _random_table(rng, n, density, antisymmetric=False):
    table = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i, j, k in itertools.product(range(n), repeat=3):
        if (not antisymmetric or i < j) and rng.random() < density:
            table[i][j][k] = Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3)))
            if antisymmetric:
                table[j][i][k] = -table[i][j][k]
    return table


def test_sparse_predicates_match_dense_routes(aff):
    """`check` against the dense integer routes on every basis triple:
    the dim-16 phase space of a Levi-Civita product, moved by a
    unitriangular basis, each also with one structure constant changed,
    and random sparse, dense and antisymmetric tables of dims 7 to 12."""
    rng = random.Random(17)
    q = build_quadratic_symplectic(aff, 2)
    phase = build_phase(levi_civita(q.lie, q.metric)).extended
    n = phase.dim
    moved = phase.conjugate(Mat.from_rows(
        [[int(i == j) or (rng.choice((-1, 0, 1)) if j > i else 0)
          for j in range(n)] for i in range(n)]))

    def tampered(alg):
        table = [[list(cell) for cell in row] for row in alg.table]
        i, j, k = (rng.randrange(alg.dim) for _ in range(3))
        table[i][j][k] += 1
        return Algebra(table)
    inputs = [phase, moved, tampered(phase), tampered(moved)]
    for _ in range(12):
        inputs.append(Algebra(_random_table(
            rng, rng.randint(7, 12), rng.choice((0.02, 0.1, 1.0)),
            rng.random() < 0.3)))
    for alg in inputs:
        br = alg.commutator_algebra()
        via_jacobi = oracle.dense_jacobi(br)
        via_curvature = oracle.dense_curvature(alg)
        want = {"left_symmetric": oracle.dense_left_symmetric(alg),
                "associative": oracle.dense_associative(alg),
                "lie_admissible": via_jacobi if via_curvature is None
                else via_curvature}
        for predicate, witness in want.items():
            rep = check(alg, predicate)
            assert (rep.passed, rep.witness) == (witness is None, witness)
        rep = check(br, "jacobi_antisym")
        assert (rep.passed, rep.witness) == (via_jacobi is None, via_jacobi)
        assert algebra._jacobi_witness(alg) == oracle.dense_jacobi(alg)
    # the phase space is Lie admissible; changing one of its structure
    # constants makes both routes of lie_admissible fail (a route that
    # disagreed would raise), so neither route is checked vacuously
    assert check(phase, "lie_admissible")
    assert not check(inputs[2], "lie_admissible")
    assert algebra._jacobi_witness(inputs[2].commutator_algebra()) is not None
    assert oracle.dense_curvature(inputs[2]) is not None


def _unitriangular(rng, n):
    return Mat.from_rows([[int(i == j) or (rng.choice((-1, 0, 1)) if j > i
                                           else 0) for j in range(n)]
                          for i in range(n)])


def _certificate_data(lie, metric, k):
    """(lie, metric, K, Levi-Civita product) for the dense comparison."""
    return lie, metric, k, forms._levi_civita(lie, metric)


def _random_certificate_data(rng, n, density):
    """A seeded table of dim n with a random invertible metric and an
    involution with eigenspaces of random dimensions."""
    lie = Algebra(_random_table(rng, n, density, rng.random() < 0.5))
    while True:
        half = Mat(n, n, [Fraction(rng.randint(-2, 2)) for _ in range(n * n)])
        metric = Bilinear(half + half.transpose(), "symmetric")
        if metric.is_nondegenerate():
            break
    p, h = _unitriangular(rng, n), rng.randint(1, n - 1)
    diag = Mat.from_rows([[(1 if i < h else -1) * int(i == j)
                           for j in range(n)] for i in range(n)])
    return _certificate_data(lie, metric, p.inverse() * diag * p)


def test_sparse_certificate_routes_match_dense_routes(aff, nab_lsa):
    """The twist certificate's sparse routes (Levi-Civita product, cocycle
    sum, eigenspace lines, compose, invariance and the derivation axiom)
    against their dense predecessors on the dim-16 twist of a Levi-Civita
    product, moved by a unitriangular basis, with one structure constant
    or one metric entry changed, and on seeded sparse and dense tables of
    dims 7 to 12."""
    rng = random.Random(18)
    q = build_quadratic_symplectic(aff, 2)
    dot = levi_civita(q.lie, q.metric)
    tw = twisted_structures(dot, Tensor2(dot, q.metric.matrix.inverse()))
    n = tw.twisted.dim
    p = _unitriangular(rng, n)
    moved = (tw.twisted.conjugate(p),
             Bilinear(p.transpose() * tw.metric_r.matrix * p, "symmetric"),
             p.inverse() * tw.k_r * p)
    table = [[list(cell) for cell in row] for row in tw.twisted.table]
    table[0][8][9] += 1                 # breaks Jacobi and the cocycle sum
    table[8][0][9] -= 1
    # a metric changed at the free column f of the last basis vector of
    # ker(K - Id) only, so that only that vector is no longer isotropic
    plus = (tw.k_r - Mat.identity(n)).kernel_basis()
    f = next(j for j, x in enumerate(plus[-1])
             if x == 1 and not any(v[j] for v in plus[:-1]))
    bump = Mat(n, n, [int(i == j == f) for i in range(n) for j in range(n)])
    cases = [_certificate_data(*data) for data in (
        (tw.twisted, tw.metric_r, tw.k_r), moved,
        (Algebra(table), tw.metric_r, tw.k_r),
        (tw.twisted, Bilinear(tw.metric_r.matrix + bump, "symmetric"),
         tw.k_r))]
    for _ in range(6):
        cases.append(_random_certificate_data(
            rng, rng.randint(7, 12), rng.choice((0.02, 0.1, 1.0))))
    seen = {}
    for lie, metric, k, lc in cases:
        assert lc == oracle.dense_levi_civita(lie, metric)
        omega = k.transpose() * metric.matrix
        got = [forms._two_cocycle(Bilinear(omega), lie)]
        want = [oracle.dense_two_cocycle(Bilinear(omega), lie)]
        for sign, e in (("plus", 1), ("minus", -1)):
            shifted = k - Mat.identity(lie.dim).scale(e)
            args = (sign, shifted, shifted.kernel_basis(), lie, lc,
                    metric.matrix, omega)
            got += phase._eigenspace_lines(*args)
            want += oracle.dense_eigenspace_lines(*args)
        for tensor, tags in ((lie, ("ad_dual", "ad_dual", "ad")),
                             (lc, ("L", "L", "ad")),
                             (metric.matrix, ("ad", "ad"))):
            got.append(invariance_check(tensor, tags, lie))
            want.append(oracle.dense_invariance(tensor, tags, lie))
        assert [(r.name, r.passed, r.witness) for r in got] == \
            [(r.name, r.passed, r.witness) for r in want]
        for r in got:
            seen.setdefault(r.name, set()).add(r.passed)
        assert LieTriple.compose(lie, lc) == oracle.dense_compose(lie, lc)
    # the derivation axiom on the twist's triple system (zero here), the
    # triple [[x,y],z] of a dim-4 phase-space bracket in a unitriangular
    # basis, that with one entry changed, and compositions of sparse tables
    br = build_phase(nab_lsa).extended.commutator_algebra().conjugate(
        _unitriangular(rng, 4))
    table = [[[list(cell) for cell in row] for row in plane]
             for plane in LieTriple.compose(br, br).table]
    table[1][2][3][0] += 1
    table[2][1][3][0] -= 1
    triples = [tw.lts, LieTriple.compose(br, br), LieTriple(table)]
    for size in (7, 9):
        sparse = Algebra(_random_table(rng, size, 0.05, True))
        triples.append(LieTriple.compose(sparse, sparse))
    for lts in triples:
        der, want = lts.check().reports[2], oracle.dense_derivation(lts)
        assert (der.passed, der.witness) == (want is None, want)
        seen.setdefault(der.name, set()).add(der.passed)
    assert all(verdicts == {True, False} for verdicts in seen.values()), seen


def test_sparse_torsion_and_commutator_match_dense_routes(aff):
    """`nijenhuis` and `commutator_algebra` against their dense routes,
    stored forms compared (D and cells): the dim-16 twisted bracket with
    K_r, a seeded table that is not antisymmetric, a dense dim-12 table
    moved by a unitriangular basis with a dense A, and the zero algebra,
    each also with A = Id and a nilpotent A."""
    rng = random.Random(19)
    q = build_quadratic_symplectic(aff, 2)
    dot = levi_civita(q.lie, q.metric)
    tw = twisted_structures(dot, Tensor2(dot, q.metric.matrix.inverse()))

    def endo(n, nilpotent=False):
        return Mat(n, n, [Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
                          if j > i or not nilpotent else 0
                          for i in range(n) for j in range(n)])
    sparse = Algebra(_random_table(rng, 9, 0.1))
    dense = Algebra(_random_table(rng, 12, 1.0)).conjugate(
        _unitriangular(rng, 12))
    zero = Algebra.zero(5)
    cases = [(tw.twisted, tw.k_r), (sparse, endo(9)), (dense, endo(12)),
             (zero, endo(5))]
    for alg in (tw.twisted, sparse, dense, zero):
        n = alg.dim
        cases += [(alg, Mat.identity(n)), (alg, endo(n, nilpotent=True))]
    torsions = []
    for alg, a in cases:
        torsion = nijenhuis(a, alg)
        assert torsion == oracle.dense_nijenhuis(a, alg)
        torsions.append(torsion.is_zero())
    # K_r, Id and the zero algebra have no torsion; the others do
    assert torsions == [True, False, False, True,
                        True, False, True, False, True, False, True, True]
    for alg in (tw.twisted, dot, tw.phase.extended, sparse, dense, zero):
        fresh = Algebra._of(alg._den, alg._cells, alg.basis)
        assert fresh.commutator_algebra() == oracle.dense_commutator(alg)
    pairs = [(bool(p), bool(q)) for row, col in zip(
        sparse._cells, zip(*sparse._cells)) for p, q in zip(row, col)]
    assert {(True, False), (False, True), (True, True)} <= set(pairs)


def test_conjugate_preserves_predicates(nab_lsa):
    rng = random.Random(5)
    for _ in range(10):
        p = Mat(2, 2, [Fraction(rng.randint(-3, 3)) for _ in range(4)])
        if not p.is_invertible():
            continue
        moved = nab_lsa.conjugate(p)
        assert bool(check(moved, "left_symmetric"))
        assert bool(check(moved, "lie_admissible"))
    assert nab_lsa.conjugate(Mat.identity(2)) == nab_lsa


def test_product_subspaces(nab_lsa, ab_lsa):
    subs = product_subspaces(nab_lsa)
    assert subs["UU"].dim == 2
    assert subs["DUU"].dim == 1
    assert subs["SUU"].dim == 1
    subs = product_subspaces(ab_lsa)
    assert subs["UU"].dim == 1
    assert subs["powers"][2].is_zero()


def test_bracket_tensor_invariance(aff, heis, sl2):
    for lie in (aff, heis, sl2):
        assert invariance_check(lie, ("ad_dual", "ad_dual", "ad"), lie)


@pytest.mark.parametrize("tensor, reps, message", [
    ([[0, 0], [0, 0]], ("L", "L"), "tensor must be an Algebra or a Mat"),
    (Mat.identity(2), ("L",), "slot count 1 does not match tensor order 2"),
    (Algebra.zero(2), ("L", "L"), "slot count 2 does not match tensor "
                                  "order 3"),
    (Mat.identity(3), ("L", "L"), "tensor index ranges must equal"),
    (Mat.zeros(2, 3), ("L", "L"), "tensor index ranges must equal"),
    (Algebra.zero(3), ("ad", "ad", "ad"), "tensor index ranges must equal"),
    (Mat.identity(2), ("L", "R"), "unknown representation tag 'R'"),
], ids=["not_a_tensor", "mat_one_slot", "algebra_two_slots", "mat_too_large",
        "mat_not_square", "algebra_too_large", "unknown_tag"])
def test_invariance_check_rejects_bad_input(aff, tensor, reps, message):
    with pytest.raises(ValueError, match=message):
        invariance_check(tensor, reps, aff)


def test_ad_is_derivation(sl2):
    for i in range(3):
        assert is_derivation(sl2.left_mult(basis_vec(3, i)), sl2)


def test_associator_and_curvature(ab_lsa):
    n = ab_lsa.dim
    for i in range(n):
        for j in range(n):
            u, v = basis_vec(n, i), basis_vec(n, j)
            # left symmetry: curvature vanishes
            assert curvature(ab_lsa, u, v).is_zero()
    x = basis_vec(2, 1)
    assert associator(ab_lsa, x, x, x) == ab_lsa.product(
        ab_lsa.product(x, x), x)


def test_scale_add_conjugate_roundtrip(nab_lsa):
    doubled = nab_lsa.scale(2)
    assert doubled.add(nab_lsa.scale(-2)).is_zero()
    p = Mat.from_rows([[2, 1], [1, 1]])
    assert nab_lsa.conjugate(p).conjugate(p.inverse()) == nab_lsa


def test_from_blocks_layout():
    def pick(k):
        # the table of (x, y) -> (x[0] y[1] k, x[1] y[0] k)
        return [[(0, 0), (k, 0)], [(0, k), (0, 0)]]

    double = Algebra.from_blocks([[(pick(1), None), (None, pick(2))],
                                  [(None, None), (pick(3), pick(4))]],
                                 ("x", "y"), "'")
    assert double.basis == ("x", "y", "x'", "y'")
    f = Fraction
    # UU block: U-part only
    assert double.table[0][1] == (f(1), f(0), f(0), f(0))
    # UU' block: U'-part only
    assert double.table[0][3] == (f(0), f(0), f(2), f(0))
    # U'U block: zero
    assert double.table[2][1] == (f(0),) * 4
    # U'U' block: both parts
    assert double.table[3][2] == (f(0), f(3), f(0), f(4))


def test_from_blocks_labels_of_a_double_of_a_double():
    zero = [[(None, None)] * 2] * 2
    # plain suffixing where it repeats no label
    assert Algebra.from_blocks(zero, ("e1", "e2"), "*").basis == \
        ("e1", "e2", "e1*", "e2*")
    # a double of a double: plain suffixing would repeat e1* and e2*
    labels = ("e1", "e2", "e1*", "e2*")
    again = Algebra.from_blocks(zero, labels, "*")
    assert again.basis == labels + ("(e1)*", "(e2)*", "(e1*)*", "(e2*)*")
    assert len(set(again.basis)) == 8
    twice = Algebra.from_blocks(zero, ("x", "y", "x'", "y'"), "'")
    assert twice.basis[4:] == ("(x)'", "(y)'", "(x')'", "(y')'")


def test_bad_table_rejected():
    with pytest.raises(ValueError):
        Algebra([[(0, 0)]])


def test_endo_wraps(nab_lsa):
    e = Endo(nab_lsa, Mat.identity(2))
    assert e.matrix == Mat.identity(2)


@pytest.mark.parametrize("name", ["aff", "heis", "nab_lsa", "sl2"])
def test_memoized_values_match_fresh_ones(name, request):
    alg = request.getfixturevalue(name)
    n = alg.dim
    es = [basis_vec(n, i) for i in range(n)]
    general = tuple(Fraction(k + 1, 2 - k % 2) for k in range(n))
    vectors = es + [general]
    fresh_commutator = Algebra(
        [[oracle.bracket(alg, ei, ej) for ej in es] for ei in es], alg.basis)
    # the first pass fills the memo, the second reads it
    for _ in range(2):
        comm = alg.commutator_algebra()
        assert comm == fresh_commutator
        for u in vectors:
            assert alg.left_mult(u).row_list() == oracle.left_mult(alg, u)
            assert comm.left_mult(u).row_list() == oracle.ad(alg, u)
            for v in vectors:
                assert comm.product(u, v) == oracle.bracket(alg, u, v)
    assert alg.left_mults() == tuple(alg.left_mult(e) for e in es)


def test_memo_keeps_algebra_immutable_and_out_of_equality(nab_lsa):
    fresh = Algebra(nab_lsa.table, nab_lsa.basis)
    nab_lsa.left_mults()
    nab_lsa.commutator_algebra()
    for attr in ("dim", "table", "_lefts", "_bracket"):
        with pytest.raises(AttributeError):
            setattr(nab_lsa, attr, None)
    assert nab_lsa == fresh and hash(nab_lsa) == hash(fresh)
    assert nab_lsa.commutator_algebra() is nab_lsa.commutator_algebra()
    assert nab_lsa.commutator_algebra() == fresh.commutator_algebra()


def _assert_like_public(alg):
    """alg equals, hashes like and is as immutable as the algebra the
    public constructor builds from its table, a table of tuples of
    Fractions."""
    public = Algebra(alg.table, alg.basis)
    assert alg == public and hash(alg) == hash(public)
    assert (alg.dim, alg.basis, alg.table) == \
        (public.dim, public.basis, public.table)
    assert type(alg.table) is tuple and all(
        type(row) is tuple and all(type(cell) is tuple
                                   and all(type(x) is Fraction for x in cell)
                                   for cell in row) for row in alg.table)
    for attr in ("dim", "basis", "table", "_den", "_cells"):
        with pytest.raises(AttributeError):
            setattr(alg, attr, None)


def test_private_constructor_paths_build_public_algebras(aff, heis, sl2,
                                                         nab_lsa):
    p = Mat.from_rows([[Fraction(1, 7), 2, 0], [0, Fraction(3, 89), 1],
                       [1, 0, Fraction(-50, 97)]])
    a = Mat.from_rows([[Fraction(1, 48), 1], [0, Fraction(-7, 2)]])
    r = Tensor2(nab_lsa, Mat.from_rows([[Fraction(3, 7), 1],
                                        [Fraction(-1, 89), 0]]))
    metric = Bilinear(Mat.from_rows([[Fraction(2, 3), 1], [1, 0]]),
                      "symmetric")
    skew = Mat.from_rows([[0, Fraction(1, 3), 0], [Fraction(-1, 3), 0, 0],
                          [0, 0, 0]])
    built = [
        Algebra.from_blocks([[(aff.table, None), (None, aff.table)],
                             [(None, None), (nab_lsa.table, None)]],
                            aff.basis, "*"),
        sl2.conjugate(p), heis.conjugate(p), nijenhuis(a, aff),
        nijenhuis(a, nab_lsa), levi_civita(aff, metric),
        nab_lsa.commutator_algebra(), sl2.conjugate(p).commutator_algebra(),
        dual_product_from_r(nab_lsa, r), delta_r(nab_lsa, r),
        dual_product_from_r(nab_lsa, Mat.zeros(2, 2)),
        coadjoint_double(heis, skew).rr, Algebra.zero(0).conjugate(
            Mat.identity(0)),
        Algebra.from_blocks([[(aff, None), (None, aff.scale(3))],
                             [(None, None), (nab_lsa, nab_lsa)]],
                            aff.basis, "*"),
        algebra._coaction(nab_lsa, -1), algebra._swapped(sl2.conjugate(p)),
        nab_lsa.scale(Fraction(-7, 48)), nab_lsa.scale(0),
        nab_lsa.add(aff.scale(Fraction(1, 89))), Algebra.zero(3),
        yb(a, aff), delta_op(a, nab_lsa), o_op(a, nab_lsa),
        theta_circ_product(nab_lsa, Bilinear(Mat.from_rows(
            [[0, Fraction(1, 7)], [Fraction(-1, 7), 0]]), "skew"), a),
        build_phase(nab_lsa, nab_lsa.scale(Fraction(3, 7))).extended]
    tw = twisted_structures(nab_lsa, Mat.from_rows(
        [[Fraction(3, 7), Fraction(-1, 89)], [0, 0]]))
    built += [tw.twisted, tw.triangle, tw.bracket_r, tw.phase.extended]
    for alg in built:
        _assert_like_public(alg)
    for lts in (tw.lts, LieTriple.compose(nab_lsa.scale(Fraction(2, 97)),
                                          aff)):
        public = LieTriple(lts.table)
        assert lts == public and hash(lts) == hash(public)
        assert lts.table == public.table and type(lts.table) is tuple
        for attr in ("dim", "table", "_den", "_cells"):
            with pytest.raises(AttributeError):
                setattr(lts, attr, None)
