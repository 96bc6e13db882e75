import itertools
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
