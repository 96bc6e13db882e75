"""The benchmark's checkers accept real program outputs and reject
corrupted ones.  Run with ``python3 -m pytest bench`` from the repository
root."""

import dataclasses
import json
import os
import random
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import lsaforge  # noqa: E402
import lsaforge.cli  # noqa: E402

import checkers as ck  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402


def bump(table, i, j, k, antisymmetric=False):
    """A copy of a structure-constant table with one constant changed (and
    its mirror entry too when the table must stay antisymmetric)."""
    out = [[list(cell) for cell in row] for row in table]
    out[i][j][k] += 1
    if antisymmetric:
        out[j][i][k] -= 1
    return out


@pytest.fixture(scope="module")
def twist():
    alg = lsaforge.canonical("dim2_abelian", {"a": 1})["alg"]
    r = lsaforge.Tensor2(alg, lsaforge.Mat.from_rows([[1, 2], [0, 1]]))
    return lsaforge.twisted_structures(alg, r)


def test_twist_check_accepts_the_program_output(twist):
    wl._twist_check(twist)


def test_twist_check_rejects_a_changed_structure_constant(twist):
    bad = dataclasses.replace(twist, twisted=lsaforge.Algebra(
        bump(twist.twisted.table, 0, 2, 1, antisymmetric=True)))
    with pytest.raises(ck.CheckError):
        wl._twist_check(bad)


def test_twist_check_rejects_a_changed_gram_entry(twist):
    gram = wl.rows(twist.metric_r.matrix)
    gram[2][3] += 1
    gram[3][2] += 1
    bad = dataclasses.replace(twist, metric_r=lsaforge.Bilinear(
        lsaforge.Mat.from_rows(gram), "symmetric"))
    with pytest.raises(ck.CheckError, match="metric_r"):
        wl._twist_check(bad)


def test_jacobi_rejects_a_non_lie_bracket():
    heis = wl.heisenberg_table()
    ck.check_jacobi(heis)
    with pytest.raises(ck.CheckError, match="Jacobi"):
        ck.check_jacobi(bump(heis, 1, 2, 1, antisymmetric=True))


def test_levi_civita_check_rejects_a_changed_product():
    plane = lsaforge.Algebra(wl.zero_table(2))
    metric = lsaforge.Bilinear(lsaforge.Mat.from_rows([[2, 1], [1, 1]]),
                               "symmetric")
    dot = lsaforge.levi_civita(plane, metric)
    wl._lc_check((plane, metric, dot))
    bad = lsaforge.Algebra(bump(dot.table, 1, 1, 0))
    with pytest.raises(ck.CheckError):
        wl._lc_check((plane, metric, bad))


def test_phase_checks_reject_a_changed_product_and_a_wrong_verdict():
    nab = lsaforge.canonical("dim2_nonabelian", {"a": 1})["alg"]
    ps = lsaforge.build_phase(nab)
    wl._phase_check(ps)
    bad = dataclasses.replace(ps, extended=lsaforge.Algebra(
        bump(ps.extended.table, 0, 2, 3)))
    with pytest.raises(ck.CheckError):
        wl._phase_check(bad)
    op = wl._verdict_op(lsaforge, "left_symmetric", ck.left_symmetric_witness)
    ext, rep = op.call({"phase": ps})
    op.check((ext, rep))
    with pytest.raises(ck.CheckError):
        op.check((ext, dataclasses.replace(rep, passed=not rep.passed)))


def test_quasi_s_definition_agrees_with_the_program():
    rng = random.Random(3)
    for entry in lsaforge.catalog_algebras()[:6]:
        for _ in range(4):
            r = [[wl.rand_fraction(rng, 2) for _ in range(2)]
                 for _ in range(2)]
            verdict = lsaforge.classify_r(entry.alg, lsaforge.Tensor2(
                entry.alg, lsaforge.Mat.from_rows(r))).is_quasi_s
            assert verdict == ck.is_quasi_s(entry.alg.table, r)


def test_search_check_rejects_a_flipped_verdict():
    op = wl.quasi_s_search(lsaforge, random.Random(1), None)[0]
    cls, tw = op.call({})
    op.check((cls, tw))
    flipped = dataclasses.replace(cls, is_quasi_s=not cls.is_quasi_s)
    with pytest.raises(ck.CheckError, match="quasi-S verdict"):
        op.check((flipped, tw))


@pytest.fixture(scope="module")
def normalized():
    ops = wl.normalize_assoc(lsaforge, random.Random(1), None)
    op = ops[3]                       # first model, dim V = 1, dim I = 2
    return op, op.call({})


def test_normalize_check_accepts_the_program_output(normalized):
    op, cid = normalized
    op.check(cid)


def test_normalize_check_rejects_a_wrong_family(normalized):
    op, cid = normalized
    with pytest.raises(ck.CheckError, match="reported assoc_type_two"):
        op.check(dataclasses.replace(cid, family="assoc_type_two"))


def test_normalize_check_rejects_a_changed_change_of_basis(normalized):
    op, cid = normalized
    p = wl.rows(cid.change_of_basis.matrix)
    p[0][0] += 1
    moved = dataclasses.replace(cid, change_of_basis=dataclasses.replace(
        cid.change_of_basis, matrix=lsaforge.Mat.from_rows(p)))
    with pytest.raises(ck.CheckError):
        op.check(moved)


def test_nilpotency_check_rejects_a_cube_that_does_not_vanish():
    table, _ = ck.model_from_params("assoc_type_two",
                                    wl.type_two_params(random.Random(2)))
    ck.check_nilpotency(table)
    n = len(table)
    dense = [[[ck.ONE] * n for _ in range(n)] for _ in range(n)]
    with pytest.raises(ck.CheckError):
        ck.check_nilpotency(dense)


def test_cli_checks_reject_a_wrong_exit_code_and_a_changed_artifact(tmp_path):
    ops = wl.cli_small(lsaforge, random.Random(4), str(tmp_path))
    op = next(op for op in ops if op.name == "normalize dim2")
    code, out, text = op.call({})
    op.check((code, out, text))
    with pytest.raises(ck.CheckError, match="exit code"):
        op.check((1, out, text))
    artifact = json.loads(text)
    cell = artifact["product"][0]["result"]
    label = next(iter(cell))
    cell[label] = str(Fraction(cell[label]) + 1)
    changed = json.dumps(artifact)
    with pytest.raises(ck.CheckError):
        op.check((code, out, changed))


def test_tracer_counts_calls_and_restores_the_package():
    original = lsaforge.check
    alg = lsaforge.canonical("dim2_nonabelian", {"a": 1})["alg"]
    tracer = Tracer(lsaforge)
    tracer.install()
    try:
        assert lsaforge.check is not original
        lsaforge.check(alg, "left_symmetric")
        lsaforge.build_phase(alg)
    finally:
        tracer.uninstall()
    assert lsaforge.check is original
    assert tracer.stats["algebra.check"][0] == 3
    assert tracer.stats["phase.build_phase"][0] == 1
    names = [span[0] for span in tracer.spans]
    assert names[0] == "algebra.check" and "phase.build_phase" in names
