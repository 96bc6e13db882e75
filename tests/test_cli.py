import json

import pytest

from lsaforge import Algebra, Bilinear, Mat, canonical, graded_tensor_algebra
from lsaforge.cli import dump_structure, run


def go(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def nab_file(tmp_path):
    path = tmp_path / "nab.json"
    assert run(["catalog", "emit", "dim2_nonabelian",
                "--out", str(path)]) == 0
    return str(path)


def test_catalog_list(capsys):
    code, out, err = go(capsys, ["catalog", "list"])
    assert code == 0
    assert "dim2_nonabelian" in out
    assert "assoc_type_two" in out


def test_check_pass_and_fail(capsys, nab_file):
    code, out, _ = go(capsys, ["check", nab_file, "--pred", "left_symmetric"])
    assert code == 0
    assert "PASS check:left_symmetric" in out
    code, out, _ = go(capsys, ["check", nab_file, "--pred", "associative"])
    assert code == 1
    assert out.splitlines()[-1].startswith("FAIL check:associative")
    assert "witness=" in out


def test_check_unknown_predicate(capsys, nab_file):
    code, _, err = go(capsys, ["check", nab_file, "--pred", "nope"])
    assert code == 2
    assert "nope" in err


def test_report_header_and_determinism(capsys, nab_file):
    capsys.readouterr()   # drop fixture output
    first = go(capsys, ["check", nab_file, "--pred", "left_symmetric"])
    second = go(capsys, ["check", nab_file, "--pred", "left_symmetric"])
    assert first == second
    lines = first[1].splitlines()
    assert lines[0] == "# lsaforge report"
    assert lines[1].startswith("# command: lsaforge check")
    assert lines[2] == "# seed: 0"
    assert lines[3] == ""


def test_unknown_top_level_key(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"dim": 2, "basis": ["e1", "e2"], "product": [], "extra": 1}))
    code, _, err = go(capsys, ["check", str(path), "--pred", "abelian"])
    assert code == 2
    assert "unknown keys extra" in err


def test_bad_rational_reports_path(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"dim": 2, "basis": ["e1", "e2"],
         "product": [{"left": "e1", "right": "e2",
                      "result": {"e1": "1.5"}}]}))
    code, _, err = go(capsys, ["check", str(path), "--pred", "abelian"])
    assert code == 2
    assert "product[0].result.e1" in err
    assert "1.5" in err


def test_dim_cap(capsys, nab_file, monkeypatch):
    monkeypatch.setenv("LSA_FORGE_MAX_DIM", "1")
    code, _, err = go(capsys, ["check", nab_file, "--pred", "abelian"])
    assert code == 2
    assert "dim" in err


def test_build_phase_artifact(capsys, nab_file, tmp_path):
    out_file = tmp_path / "phase.json"
    code, out, _ = go(capsys, ["build", "phase", nab_file,
                               "--out", str(out_file)])
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["dim"] == 4
    code, _, _ = go(capsys, ["check", str(out_file),
                             "--pred", "left_symmetric"])
    assert code == 0


def test_build_quadratic_requires_n(capsys, tmp_path):
    # input must be a Lie bracket table
    path = tmp_path / "aff.json"
    path.write_text(json.dumps(
        {"dim": 2, "basis": ["e1", "e2"],
         "product": [{"left": "e1", "right": "e2", "result": {"e1": "1"}},
                     {"left": "e2", "right": "e1",
                      "result": {"e1": "-1"}}]}))
    code, _, err = go(capsys, ["build", "quadratic", str(path)])
    assert code == 2
    assert "n=" in err
    code, out, _ = go(capsys, ["build", "quadratic", str(path),
                               "--param", "n=2"])
    assert code == 0
    assert any(line.startswith("PASS") for line in out.splitlines())


def test_build_twist_rejected_math(capsys, tmp_path):
    # a bracket table whose product is not left symmetric: rejection is a
    # FAIL report with exit 1, not a crash
    path = tmp_path / "aff.json"
    path.write_text(json.dumps(
        {"dim": 2, "basis": ["e1", "e2"],
         "product": [{"left": "e1", "right": "e2", "result": {"e1": "1"}},
                     {"left": "e2", "right": "e1", "result": {"e1": "-1"}}],
         "tensors": {"r": [["0", "1"], ["-1", "0"]]}}))
    code, out, _ = go(capsys, ["build", "twist", str(path),
                               "--tensor", "r"])
    assert code == 1
    assert out.splitlines()[-1].startswith("FAIL")


def test_normalize_dim2(capsys, nab_file):
    code, out, _ = go(capsys, ["normalize", "dim2", nab_file])
    assert code == 0
    assert "PASS normalize  family=dim2_nonabelian" in out
    assert "param a=1" in out
    assert "fingerprint dim=2" in out


def test_classify_compat2(capsys, tmp_path):
    path = tmp_path / "c1.json"
    assert run(["catalog", "emit", "compat_family1", "--out", str(path)]) == 0
    code, out, _ = go(capsys, ["classify", "compat2", str(path)])
    assert code == 0
    assert "PASS classify  kind=compat_family1" in out
    assert "param a=1" in out and "param b=1" in out


def test_catalog_emit_with_override(capsys, tmp_path):
    path = tmp_path / "nab2.json"
    code, _, _ = go(capsys, ["catalog", "emit", "dim2_nonabelian",
                             "--param", "a=2", "--out", str(path)])
    assert code == 0
    data = json.loads(path.read_text())
    entries = {(e["left"], e["right"]): e["result"] for e in data["product"]}
    assert entries[("e1", "e2")] == {"e1": "2"}


def test_lts_verify(capsys, tmp_path):
    path = tmp_path / "triple.json"
    path.write_text(json.dumps({"dim": 2, "basis": ["x", "y"], "triple": []}))
    code, out, _ = go(capsys, ["lts", "verify", str(path)])
    assert code == 0
    assert "PASS alternating" in out
    assert "PASS cyclic" in out
    assert "PASS derivation" in out
    bad = tmp_path / "bad_triple.json"
    bad.write_text(json.dumps(
        {"dim": 2, "basis": ["x", "y"],
         "triple": [{"first": "x", "second": "x", "third": "y",
                     "result": {"x": "1"}}]}))
    code, out, _ = go(capsys, ["lts", "verify", str(bad)])
    assert code == 1
    assert "FAIL alternating" in out


def test_missing_file(capsys, tmp_path):
    code, _, err = go(capsys, ["check", str(tmp_path / "nope.json"),
                               "--pred", "abelian"])
    assert code == 2


def _no_traceback_usage_error(code, err):
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


_BUILD_TARGETS = ("phase", "twist", "hyper", "tsymp", "ttheta", "quadratic",
                  "flatdouble", "cybe", "derphase")


@pytest.mark.parametrize(
    "argv", [["build", what] for what in _BUILD_TARGETS]
    + [["normalize", "dim2"], ["normalize", "assoc"]],
    ids=lambda argv: " ".join(argv))
def test_missing_product_is_usage_error(capsys, tmp_path, argv):
    # every other section a target reads is present, so only the missing
    # product can stop it
    skew = {"kind": "skew", "matrix": [["0", "1"], ["-1", "0"]]}
    ident = [["1", "0"], ["0", "1"]]
    path = tmp_path / "noproduct.json"
    path.write_text(json.dumps(
        {"dim": 2, "basis": ["e1", "e2"],
         "forms": {"omega": skew, "theta": skew,
                   "metric": {"kind": "symmetric", "matrix": ident},
                   "r": {"kind": "none", "matrix": ident}},
         "endos": {"a": ident, "d": ident},
         "tensors": {"r": ident, "b": ident}}))
    code, out, err = go(capsys, argv + [str(path), "--param", "n=1"])
    _no_traceback_usage_error(code, err)
    assert "missing product 'product'" in err
    assert out == ""


def test_dim_true_rejected(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": True, "basis": ["e1"], "product": []}))
    code, _, err = go(capsys, ["check", str(path), "--pred", "commutative"])
    _no_traceback_usage_error(code, err)
    assert "dim must be a positive integer" in err


@pytest.mark.parametrize("section", ["forms", "endos", "tensors"])
def test_section_not_an_object_rejected(capsys, tmp_path, section):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"dim": 2, "basis": ["e1", "e2"], "product": [], section: [1]}))
    code, _, err = go(capsys, ["check", str(path), "--pred", "abelian"])
    _no_traceback_usage_error(code, err)
    assert "%s:%s: expected an object" % (path, section) in err


def test_triple_result_not_an_object_rejected(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"dim": 2, "basis": ["x", "y"],
         "triple": [{"first": "x", "second": "y", "third": "x",
                     "result": ["x"]}]}))
    code, _, err = go(capsys, ["lts", "verify", str(path)])
    _no_traceback_usage_error(code, err)
    assert "triple[0].result: expected an object" in err


def _omega2():
    return Bilinear(Mat.from_rows([[0, 1], [-1, 0]]), "skew")


def _hyper_input():
    pair = canonical("compat_family1", {"a": 1, "b": 1})
    return dump_structure(pair["bullet"], forms={"omega": pair["omega"]},
                          alg2=pair["circ"])


def _tsymp_input():
    return dump_structure(Algebra.zero(2), forms={"omega": _omega2()},
                          endos={"a": Mat.identity(2)})


def _ttheta_input():
    ab = canonical("dim2_abelian", {"a": 1})["alg"]
    return dump_structure(ab, forms={"theta": _omega2()},
                          endos={"a": Mat.identity(2)})


def _flatdouble_input():
    metric = Bilinear(Mat.from_rows([[2, 1], [1, 1]]), "symmetric")
    return dump_structure(Algebra.zero(2), forms={"metric": metric})


def _cybe_input():
    heis = Algebra([[(0, 0, 0), (0, 0, 1), (0, 0, 0)],
                    [(0, 0, -1), (0, 0, 0), (0, 0, 0)],
                    [(0, 0, 0), (0, 0, 0), (0, 0, 0)]])
    return dump_structure(
        heis, forms={"r": Bilinear(Mat.zeros(3, 3), "none")},
        tensors={"b": Mat.from_rows([[0, 0, 1], [0, 0, 0], [-1, 0, 0]])})


def _derphase_input():
    aff = Algebra([[(0, 0), (1, 0)], [(-1, 0), (0, 0)]])
    graded, deriv = graded_tensor_algebra(aff, 2)
    return dump_structure(graded, endos={"d": deriv})


@pytest.mark.parametrize("what, flags, make, dim, line", [
    ("hyper", [], _hyper_input, 4, "PASS parallel_j"),
    ("tsymp", [], _tsymp_input, 4, "PASS circ_left_symmetric"),
    ("ttheta", [], _ttheta_input, 4, "PASS circ_left_symmetric"),
    ("ttheta", ["--hyper"], _ttheta_input, 4, "PASS complex_j"),
    ("flatdouble", [], _flatdouble_input, 4, "PASS twist_crosscheck"),
    ("cybe", [], _cybe_input, 6, "PASS twist_crosscheck"),
    ("derphase", [], _derphase_input, 8, "PASS lift_derivation"),
], ids=["hyper", "tsymp", "ttheta", "ttheta-hyper", "flatdouble", "cybe",
        "derphase"])
def test_build_target_passes(capsys, tmp_path, what, flags, make, dim, line):
    source = tmp_path / "in.json"
    source.write_text(make())
    out_file = tmp_path / "out.json"
    code, out, err = go(capsys, ["build", what, str(source),
                                 "--out", str(out_file)] + flags)
    assert code == 0 and err == ""
    body = out.splitlines()[4:]
    assert body and all(rep.startswith("PASS ") for rep in body)
    assert line in body
    assert json.loads(out_file.read_text())["dim"] == dim
