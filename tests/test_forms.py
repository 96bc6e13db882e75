from fractions import Fraction

import pytest

from lsaforge import (Bilinear, Mat, a_product, check, is_flat,
                      is_invariant_form, is_two_cocycle, killing_form,
                      levi_civita)
from lsaforge.algebra import Algebra
from lsaforge.exact import basis_vec, dot


def test_bilinear_kind_validation():
    sym = Mat.from_rows([[1, 0], [0, 2]])
    skew = Mat.from_rows([[0, 1], [-1, 0]])
    Bilinear(sym, "symmetric")
    Bilinear(skew, "skew")
    Bilinear(sym, "none")
    with pytest.raises(ValueError):
        Bilinear(sym, "skew")
    with pytest.raises(ValueError):
        Bilinear(skew, "symmetric")
    with pytest.raises(ValueError):
        Bilinear(sym, "hermitian")


def test_two_cocycle(aff, heis, omega2):
    assert is_two_cocycle(omega2, aff)
    # on the Heisenberg algebra every skew form is a cocycle
    theta = Bilinear(Mat.from_rows([[0, 0, 1], [0, 0, 0], [-1, 0, 0]]),
                     "skew")
    assert is_two_cocycle(theta, heis)
    # [e1, e2] = e1 with a central e3: e1 wedge e3 fails the cyclic sum
    lie3 = Algebra([[(0, 0, 0), (1, 0, 0), (0, 0, 0)],
                    [(-1, 0, 0), (0, 0, 0), (0, 0, 0)],
                    [(0, 0, 0), (0, 0, 0), (0, 0, 0)]])
    rep = is_two_cocycle(theta, lie3)
    assert not rep.passed and rep.witness is not None
    # a symmetric form is reported as failing, not a crash
    sym = Bilinear(Mat.identity(2), "symmetric")
    rep = is_two_cocycle(sym, aff)
    assert not rep.passed


def test_levi_civita_properties(aff, sl2):
    g = Bilinear(Mat.identity(2), "symmetric")
    prod = levi_civita(aff, g)
    # commutator of the connection product recovers the bracket
    assert prod.commutator_algebra() == aff.bracket_algebra()
    # metric compatibility: left multiplications are g-skew
    for i in range(2):
        lm = prod.left_mult(basis_vec(2, i))
        m = g.matrix * lm
        assert (m + m.transpose()).is_zero()
    kil = killing_form(sl2)
    prod3 = levi_civita(sl2, kil)
    assert prod3.commutator_algebra() == sl2


def test_is_flat(aff, sl2):
    assert not is_flat(aff, Bilinear(Mat.identity(2), "symmetric"))
    assert not is_flat(sl2, killing_form(sl2))
    abelian = Algebra([[(0, 0, 0)] * 3] * 3)
    g = Bilinear(Mat.from_rows([[2, 1, 0], [1, 1, 0], [0, 0, 3]]),
                 "symmetric")
    assert is_flat(abelian, g)


def test_invariant_form_on_canonical(nab_lsa, omega2):
    assert is_invariant_form(omega2, nab_lsa)
    bad = Bilinear(Mat.identity(2), "symmetric")
    assert not is_invariant_form(bad, nab_lsa)


def test_a_product(aff, omega2):
    prod = a_product(aff, omega2)
    assert check(prod, "left_symmetric")
    assert prod.commutator_algebra() == aff


def test_killing_form_values(sl2):
    k = killing_form(sl2)
    assert k.kind == "symmetric"
    assert k.matrix[0, 0] == 8
    assert k.matrix[1, 2] == 4
    assert k.matrix[2, 1] == 4
    assert k.matrix[0, 1] == 0
    assert k.matrix.is_invertible()
