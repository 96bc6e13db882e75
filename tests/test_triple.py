import itertools
import random
from fractions import Fraction

import oracle_routes as oracle
from lsaforge import LieTriple


def test_double_bracket_is_lie_triple(sl2):
    lts = oracle.triple_from_function(
        3, lambda x, y, z: sl2.product(sl2.product(x, y), z))
    cert = lts.check()
    assert cert.passed
    assert {r.name for r in cert.reports} == \
        {"alternating", "cyclic", "derivation"}


def test_zero_triple():
    zero = tuple(Fraction(0) for _ in range(3))
    lts = oracle.triple_from_function(3, lambda x, y, z: zero)
    assert lts.is_zero()
    assert lts.check().passed


def test_corrupted_table_fails():
    n = 2
    table = [[[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
             for _ in range(n)]
    table[0][0][1][0] = Fraction(1)   # [x,x,y] != 0 breaks alternation
    cert = LieTriple(table).check()
    assert not cert.passed
    assert cert.first_failure().name == "alternating"


def test_single_cell_witnesses_match_call_route():
    # the alternating and cyclic axioms are read off the nonzero cells; a
    # triple with one nonzero cell fails each at the least triple whose
    # sum holds that cell, whatever the order of its indices
    n = 3
    for i, j, k in itertools.product(range(n), repeat=3):
        table = [[[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
                 for _ in range(n)]
        table[i][j][k][(i + j + k) % n] = Fraction(2, 3)
        lts = LieTriple(table)
        got = {rep.name: rep.witness for rep in lts.check().reports}
        assert got == oracle.lie_triple_witnesses(lts)


def test_derivation_witnesses_of_tampered_cells_match_call_route(sl2):
    # the derivation axiom tries only the triples of stored cells and those
    # with an index where d = L(e_u, e_v, .) is nonzero; its witnesses match
    # the route through __call__ on every basis triple for the Lie triple
    # system [[x,y],z] of sl2 with one or two cells changed, and for the
    # zero triple with L(e1, e1, e3) = e2 and one more entry anywhere (the
    # first failure is then often at a triple with an empty cell or with no
    # index in the support of d)
    n = 3
    base = oracle.triple_from_function(
        3, lambda x, y, z: sl2.product(sl2.product(x, y), z))
    cells = list(itertools.product(range(n), repeat=3))
    rng = random.Random(18)
    tables = []
    for tamper in [()] + [(c,) for c in cells] + [
            tuple(rng.sample(cells, 2)) for _ in range(12)]:
        table = [[[list(cell) for cell in row] for row in plane]
                 for plane in base.table]
        for i, j, k in tamper:
            table[i][j][k][(i + 2 * j + k) % n] += Fraction(2, 3)
        tables.append(table)
    for (i, j, k), s in itertools.product(cells, range(n)):
        table = [[[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
                 for _ in range(n)]
        table[0][0][2][1] = Fraction(1)
        table[i][j][k][s] += 1
        tables.append(table)
    witnesses = set()
    for table in tables:
        lts = LieTriple(table)
        der = lts.check().reports[2]
        want = oracle.lie_triple_witnesses(lts)["derivation"]
        assert (der.passed, der.witness) == (want is None, want)
        witnesses.add(der.witness)
    assert None in witnesses and len(witnesses) > 5
