import argparse
import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

import oracle_routes as oracle
from lsaforge import (Algebra, Bilinear, InternalInconsistency, Mat, canonical,
                      graded_tensor_algebra)
from lsaforge import cli
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


def test_unknown_predicate_line_lists_every_predicate(capsys, nab_file):
    capsys.readouterr()   # drop fixture output
    code, out, err = go(capsys, ["check", nab_file, "--pred", "nope"])
    assert (code, out) == (2, "")
    assert err == (
        "error: unknown predicate 'nope' (algebra predicates: "
        "left_symmetric, associative, commutative, abelian, lie_admissible, "
        "jacobi_antisym; form predicates: invariant:<form>, "
        "two_cocycle:<form>, flat:<form>, nondegenerate:<form>)\n")


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


def test_phase_of_a_phase_space_reads_back(capsys, nab_file, tmp_path):
    # the double of a double has distinct labels, so the CLI reads it back
    first, second = tmp_path / "p1.json", tmp_path / "p2.json"
    code, _, _ = go(capsys, ["build", "phase", nab_file, "--out", str(first)])
    assert code == 0
    code, _, _ = go(capsys, ["build", "phase", str(first),
                             "--out", str(second)])
    assert code == 0
    data = json.loads(second.read_text())
    assert data["basis"] == ["e1", "e2", "e1*", "e2*",
                             "(e1)*", "(e2)*", "(e1*)*", "(e2*)*"]
    code, out, err = go(capsys, ["check", str(second),
                                 "--pred", "left_symmetric"])
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "PASS check:left_symmetric"


def test_phase_dual_of_another_dim_is_usage_error(capsys, nab_file,
                                                  tmp_path):
    capsys.readouterr()                 # drop the fixture's own report
    dual, out_file = tmp_path / "a4.json", tmp_path / "phase.json"
    dual.write_text(json.dumps({"dim": 4, "basis": ["f1", "f2", "f3", "f4"],
                                "product": []}))
    code, out, err = go(capsys, ["build", "phase", nab_file, "--dual",
                                 str(dual), "--out", str(out_file)])
    _no_traceback_usage_error(code, err)
    assert err == "error: %s: dim 4 does not match the dim 2 of %s\n" % (
        dual, nab_file)
    assert out == "" and not out_file.exists()


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


def test_repeated_param_is_a_usage_error(capsys):
    # a second value for a key would silently replace the first
    code, out, err = go(capsys, ["catalog", "emit", "dim2_nonabelian",
                                 "--param", "a=2", "--param", "a=3"])
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: --param a given twice"]


def test_build_quadratic_caps_the_graded_dim(capsys, tmp_path, monkeypatch):
    # the graded algebra has dim n times the input's: a large n is bad
    # input, rejected before anything is built
    path = tmp_path / "aff.json"
    path.write_text(json.dumps(
        {"dim": 2, "basis": ["e1", "e2"],
         "product": [{"left": "e1", "right": "e2", "result": {"e1": "1"}},
                     {"left": "e2", "right": "e1",
                      "result": {"e1": "-1"}}]}))
    code, out, err = go(capsys, ["build", "quadratic", str(path),
                                 "--param", "n=1000000000"])
    assert (code, out) == (2, "")
    assert err == ("error: --param n=1000000000 gives a graded algebra of "
                   "dim 2000000000, which exceeds LSA_FORGE_MAX_DIM=16\n")
    monkeypatch.setenv("LSA_FORGE_MAX_DIM", "5")
    code, out, err = go(capsys, ["build", "quadratic", str(path),
                                 "--param", "n=3"])
    assert (code, out) == (2, "")
    assert err == ("error: --param n=3 gives a graded algebra of dim 6, "
                   "which exceeds LSA_FORGE_MAX_DIM=5\n")
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


@pytest.mark.parametrize("exc,message", [
    (InternalInconsistency("cyclic curvature sum and commutator Jacobi "
                           "check disagree"),
     "cyclic curvature sum and commutator Jacobi check disagree"),
    (KeyError("e3"), "'e3'"),
    (ZeroDivisionError(), ""),
], ids=["internal_inconsistency", "key_error", "no_message"])
def test_internal_error_exits_3_without_traceback(capsys, monkeypatch,
                                                  nab_file, exc, message):
    def broken(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_check", broken)
    capsys.readouterr()   # drop fixture output
    code, out, err = go(capsys, ["check", nab_file, "--pred", "abelian"])
    assert code == 3
    where = "%s:%d" % (os.path.basename(__file__),
                       broken.__code__.co_firstlineno + 1)
    assert err.splitlines() == ["internal error: %s at %s%s" % (
        type(exc).__name__, where, message and ": " + message)]
    assert "Traceback" not in out + err


def test_params_lines_format_nested_rationals():
    lines = cli._params_lines({
        "f": (((Fraction(1), Fraction(-1, 2)),), (Mat.identity(1),)),
        "s": Fraction(3, 4), "n": 2})
    assert lines == ["param f=[(('1', '-1/2'),), ([['1']],)]",
                     "param n=2", "param s=3/4"]


def test_unwritable_out_is_usage_error(capsys, nab_file, tmp_path):
    out_file = tmp_path / "missing_dir" / "p.json"
    capsys.readouterr()   # drop fixture output
    code, _, err = go(capsys, ["build", "phase", nab_file,
                               "--out", str(out_file)])
    _no_traceback_usage_error(code, err)
    assert err.splitlines() == ["error: %s: No such file or directory"
                                % out_file]


def _entry(section, labels, result=None):
    keys = ("left", "right") if section == "product" \
        else ("first", "second", "third")
    entry = dict(zip(keys, labels))
    entry["result"] = {"x": "1"} if result is None else result
    return entry


_COMMANDS = {"product": ["check", "{}", "--pred", "abelian"],
             "triple": ["lts", "verify", "{}"]}


def _run_section(capsys, tmp_path, section, entries):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 2, "basis": ["x", "y"],
                                section: entries}))
    return go(capsys, [arg.format(path) for arg in _COMMANDS[section]])


@pytest.mark.parametrize("section,labels,where", [
    ("product", (["x"], "y"), "product[0].left"),
    ("product", ("x", {"y": 1}), "product[0].right"),
    ("product", ("x", 2), "product[0].right"),
    ("triple", (["x"], "y", "x"), "triple[0]"),
    ("triple", ("x", "y", {"x": 1}), "triple[0]"),
    ("triple", ("x", "z", "x"), "triple[0]")])
def test_non_string_label_is_usage_error(capsys, tmp_path, section, labels,
                                         where):
    bad = next(lab for lab in labels if lab not in ("x", "y"))
    code, out, err = _run_section(capsys, tmp_path, section,
                                  [_entry(section, labels)])
    _no_traceback_usage_error(code, err)
    assert "%s: unknown basis label %r" % (where, bad) in err
    assert out == ""


@pytest.mark.parametrize("section,labels", [
    ("product", ("x", "y")), ("triple", ("x", "y", "y"))])
def test_duplicate_entry_is_usage_error(capsys, tmp_path, section, labels):
    entries = [_entry(section, labels), _entry(section, ("y", "x", "x")),
               _entry(section, labels, {"y": "2"})]
    code, out, err = _run_section(capsys, tmp_path, section, entries)
    _no_traceback_usage_error(code, err)
    assert "%s[2]: duplicate entry for (%s)" % (section, ", ".join(labels)) \
        in err
    assert out == ""


def _python(*args):
    """python args, in a child process that imports the package from this
    checkout's src/."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable] + list(args),
                          capture_output=True, text=True, env=env, timeout=60)


def _module_run(*argv):
    """python -m lsaforge.cli argv, in such a child process."""
    return _python("-m", "lsaforge.cli", *argv)


def test_module_entry_point_runs_main():
    bad = _module_run("check", "/nonexistent.json", "--pred", "bogus")
    assert bad.returncode == 2 and bad.stdout == ""
    assert bad.stderr.startswith("error: ") and "Traceback" not in bad.stderr
    listed = _module_run("catalog", "list")
    assert listed.returncode == 0 and listed.stderr == ""
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden", "catalog-list.txt")
    with open(golden, encoding="utf-8") as handle:
        assert listed.stdout == handle.read()


def test_importing_the_cli_builds_no_parser():
    """The parser is built by the first run, never at import, so importing
    lsaforge.cli constructs no ArgumentParser."""
    child = _python("-c", "import argparse\n"
                    "built = []\n"
                    "init = argparse.ArgumentParser.__init__\n"
                    "def counted(self, *args, **kwargs):\n"
                    "    built.append(self)\n"
                    "    init(self, *args, **kwargs)\n"
                    "argparse.ArgumentParser.__init__ = counted\n"
                    "import lsaforge.cli\n"
                    "print(len(built))\n")
    assert (child.returncode, child.stdout, child.stderr) == (0, "0\n", "")


def test_one_parser_per_process(capsys, monkeypatch, nab_file):
    """Ten runs construct the parsers of one build when the cache is cold
    (common, top level and six commands) and none when it is warm."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    script = [["catalog", "list"], ["check", nab_file, "--pred", "abelian"],
              ["check", nab_file], ["--help"], ["lts", "verify", nab_file]]
    cli._build_parser.cache_clear()
    counts = []
    for _ in range(2):
        del built[:]
        for argv in script * 2:
            run(argv)
        counts.append(len(built))
    capsys.readouterr()
    assert 0 < counts[0] <= 8 and counts[1] == 0
    assert cli._build_parser() is cli._build_parser()


def test_reusing_the_parser_leaks_nothing_between_runs(capsys, tmp_path):
    """A script of commands run twice, then once in reverse order, in one
    process: each command writes the same stdout, stderr, exit code and
    file every time.  The emit without --param runs after one with it, so
    an `append` default shared between runs would show there."""
    emitted, phase = tmp_path / "nab.json", tmp_path / "phase.json"
    script = [["catalog", "emit", "dim2_nonabelian", "--param", "a=2",
               "--out", str(emitted)],
              ["catalog", "emit", "dim2_nonabelian"],
              ["check", str(emitted)],
              ["--help"],
              ["check", str(emitted), "--pred", "associative"],
              ["build", "phase", str(emitted), "--out", str(phase)]]
    written = {str(emitted): emitted, str(phase): phase}

    def outcome(argv):
        target = written.get(argv[-1]) if "--out" in argv else None
        if target is not None:
            target.unlink(missing_ok=True)
        code, out, err = go(capsys, argv)
        return code, out, err, target and target.read_text()
    cli._build_parser.cache_clear()
    capsys.readouterr()
    first = [outcome(argv) for argv in script]
    assert [row[0] for row in first] == [0, 0, 2, 0, 1, 0]
    assert "param a=2" in first[0][1] and "param a=1" in first[1][1]
    assert first == [outcome(argv) for argv in script]
    assert first[::-1] == [outcome(argv) for argv in reversed(script)]


_OMEGA = '{"kind": "skew", "matrix": [["0", "1"], ["-1", "0"]]}'


@pytest.mark.parametrize("text,where,key", [
    ('{"dim": 2, "basis": ["x", "y"], "product": [{"left": "x", "right":'
     ' "y", "result": {"x": "1", "x": "0"}}]}', "product[0].result", "x"),
    ('{"dim": 2, "basis": ["x", "y"], "product": [], "forms": {"w": %s,'
     ' "w": %s}}' % (_OMEGA, _OMEGA), "forms", "w"),
    ('{"dim": 2, "basis": ["x", "y"], "product": [], "endos": {"a":'
     ' [["1", "0"], ["0", "1"]], "a": [["0", "0"], ["0", "0"]]}}', "endos",
     "a"),
    ('{"dim": 2, "basis": ["x", "y"], "product": [], "dim": 2}', None, "dim")])
def test_repeated_json_key_is_usage_error(capsys, tmp_path, text, where, key):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = go(capsys, ["check", str(path), "--pred", "abelian"])
    _no_traceback_usage_error(code, err)
    place = str(path) if where is None else "%s:%s" % (path, where)
    assert err == "error: %s: duplicate key %r\n" % (place, key)
    assert out == ""


_HUGE = "9" * 5000          # past the default 4,300-digit int conversion limit


@pytest.mark.parametrize("section,body,argv,where", [
    ("product", [{"left": "x", "right": "y", "result": {"y": "-" + _HUGE}}],
     ["check", "{}", "--pred", "abelian"], "{}:product[0].result.y"),
    ("forms", {"w": {"kind": "skew", "matrix": [["0", "1/" + _HUGE],
                                                 ["-1", "0"]]}},
     ["check", "{}", "--pred", "abelian"], "{}:forms.w.matrix[0][1]"),
    ("triple", [{"first": "x", "second": "y", "third": "x",
                 "result": {"x": _HUGE + "/2"}}],
     ["lts", "verify", "{}"], "{}:triple[0].result.x"),
    (None, None, ["catalog", "emit", "dim2_nonabelian", "--param",
                  "a=" + _HUGE], "--param a")],
    ids=["product", "form", "triple", "param"])
def test_overlong_literal_is_usage_error(capsys, tmp_path, section, body, argv,
                                         where):
    """A literal whose digits pass the interpreter's limit on int conversion
    exits 2 with the ValueError's message at its place, not as an internal
    error."""
    path = tmp_path / "big.json"
    if section is not None:
        path.write_text(json.dumps({"dim": 2, "basis": ["x", "y"],
                                    section: body}))
    with pytest.raises(ValueError) as limit:
        int(_HUGE)
    code, out, err = go(capsys, [arg.format(path) for arg in argv])
    _no_traceback_usage_error(code, err)
    assert err == "error: %s: %s\n" % (where.format(path), limit.value)
    assert out == ""


_LITERALS = ("6/4", "+3", "-0", "0/7", "-2/6", "0", "1", "-1/3",
             str(10 ** 30), "-%d/6" % 10 ** 30)
_ZEROS = ("-0", "0/7", "0")


def _literal_of(rng) -> str:
    """A seeded literal: unreduced, signed, zero, or up to 10^30 in size."""
    if rng.random() < 0.6:
        return rng.choice(_LITERALS)
    p = rng.randint(-10 ** 30, 10 ** 30)
    return rng.choice((str(p), "%d/%d" % (p, rng.randint(1, 10 ** 30))))


def _negated(text: str) -> str:
    return text[1:] if text[0] == "-" else "-" + text.lstrip("+")


def _structure(rng, dim: int) -> dict:
    """A seeded structure file with every section, its entries in random
    order, the first entry of each table all zero literals, and product2
    sometimes an empty list."""
    labels = ["v%d" % i for i in range(dim)]

    def entries(slots, count):
        keys = rng.sample(list(itertools.product(labels, repeat=len(slots))),
                          count)
        return [dict(zip(slots, key), result={
            lab: rng.choice(_ZEROS) if pos == 0 else _literal_of(rng)
            for lab in rng.sample(labels, rng.randint(1, dim))})
            for pos, key in enumerate(keys)]

    def matrix(kind):
        rows = [[_literal_of(rng) for _ in labels] for _ in labels]
        for i, j in itertools.combinations_with_replacement(range(dim), 2):
            if kind == "skew":
                rows[i][i] = rng.choice(_ZEROS)
                rows[j][i] = _negated(rows[i][j])
            elif kind == "symmetric":
                rows[j][i] = rows[i][j]
        return rows

    return {"dim": dim, "basis": labels,
            "product": entries(("left", "right"), rng.randint(1, dim * dim)),
            "product2": entries(("left", "right"),
                                rng.choice((0, rng.randint(1, dim * dim)))),
            "forms": {kind[0]: {"kind": kind, "matrix": matrix(kind)}
                      for kind in ("skew", "symmetric", "none")},
            "endos": {"a": matrix("none")}, "tensors": {"r": matrix("none")},
            "triple": entries(("first", "second", "third"),
                              rng.randint(1, dim ** 3))}


def test_structure_files_load_like_the_fraction_route(tmp_path):
    """`load_structure` against `oracle.fraction_structure` on seeded files
    with every section: each algebra, form, matrix and triple compares
    equal and has the same stored integer form."""
    rng, texts = random.Random(29), []
    path = tmp_path / "s.json"
    for _ in range(40):
        raw = _structure(rng, rng.randint(1, 4))
        texts.append(json.dumps(raw))
        path.write_text(texts[-1])
        got, want = cli.load_structure(str(path)), oracle.fraction_structure(raw)
        assert got.labels == want.labels
        for section in ("products", "forms", "endos", "tensors"):
            have, ref = getattr(got, section), getattr(want, section)
            assert have.keys() == ref.keys()
            for name in ref:
                assert have[name] == ref[name]
                a, b = have[name], ref[name]
                if section == "forms":
                    a, b = a.matrix, b.matrix
                assert a._int_view() == b._int_view()
        assert all(got.products[name].basis == want.labels
                   for name in got.products)
        assert got.triple == want.triple
        assert got.triple._int_view() == want.triple._int_view()
    assert all('"%s"' % lit in "".join(texts) for lit in _LITERALS)
    assert '"product2": []' in "".join(texts)


def test_loading_a_structure_file_builds_no_fraction(monkeypatch, tmp_path):
    """`Fraction.__new__` calls during `load_structure` of a file with
    product, product2, forms, endos, tensors and triple: none, as every
    literal goes straight into integer cells."""
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_structure(random.Random(3), 3)))
    counts = Counter()

    def counted(cls, *args, _make=Fraction.__new__, **kwargs):
        counts["Fraction"] += 1
        return _make(cls, *args, **kwargs)
    monkeypatch.setattr(Fraction, "__new__", counted)
    struct = cli.load_structure(str(path))
    monkeypatch.undo()
    assert set(struct.products) == {"product", "product2"}
    assert struct.forms and struct.endos and struct.tensors and struct.triple
    assert counts == Counter()
