"""Golden CLI reports: replay a fixed set of commands, compare byte for byte.

Each case runs ``lsaforge.cli.run`` in-process in a fresh directory that
holds copies of the input files under ``golden/inputs/``, and compares
its standard output, its exit code and the ``--out`` artifact, if the
command writes one, with the files recorded under ``golden/``:

- ``manifest.json``: per case its id, argv and exit code, and whether it
  wrote an artifact;
- ``<id>.txt``: standard output;
- ``<id>.out.json``: the artifact.

The commands are ``catalog list``; ``catalog emit`` of every family;
``normalize dim2`` and ``normalize assoc`` on every family file; every
predicate on every family file; and every ``build`` target on one input
it passes.  Paths are relative, so the ``# command:`` header does not
depend on where the test runs.

To regenerate the goldens (only when a report is meant to change), run
from the root of the checkout::

    PYTHONPATH=src python tests/test_golden.py --regenerate

which rewrites ``tests/golden/`` from the current source: first the
input files, then every case's outputs.
"""

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

import pytest

from lsaforge import (Algebra, Bilinear, Mat, canonical,
                      graded_tensor_algebra)
from lsaforge.catalog import FAMILIES
from lsaforge.cli import dump_structure, run

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
INPUTS = os.path.join(GOLDEN, "inputs")
MANIFEST = os.path.join(GOLDEN, "manifest.json")

PREDICATES = ("left_symmetric", "associative", "commutative", "abelian",
              "lie_admissible", "jacobi_antisym", "invariant:omega",
              "two_cocycle:omega", "flat:omega", "nondegenerate:omega")


def _omega2():
    return Bilinear(Mat.from_rows([[0, 1], [-1, 0]]), "skew")


def _aff():
    return Algebra([[(0, 0), (1, 0)], [(-1, 0), (0, 0)]])


def _build_inputs():
    """File name -> contents of the inputs of the build targets."""
    nab = canonical("dim2_nonabelian", {"a": 1})["alg"]
    ab = canonical("dim2_abelian", {"a": 1})["alg"]
    pair = canonical("compat_family1", {"a": 1, "b": 1})
    heis = Algebra([[(0, 0, 0), (0, 0, 1), (0, 0, 0)],
                    [(0, 0, -1), (0, 0, 0), (0, 0, 0)],
                    [(0, 0, 0), (0, 0, 0), (0, 0, 0)]])
    graded, deriv = graded_tensor_algebra(_aff(), 2)
    return {
        "twist_in.json": dump_structure(
            nab, tensors={"r": Mat.from_rows([[-1, 1], [-1, 0]])}),
        "hyper_in.json": dump_structure(
            pair["bullet"], forms={"omega": pair["omega"]},
            alg2=pair["circ"]),
        "tsymp_in.json": dump_structure(
            Algebra.zero(2), forms={"omega": _omega2()},
            endos={"a": Mat.identity(2)}),
        "ttheta_in.json": dump_structure(
            ab, forms={"theta": _omega2()}, endos={"a": Mat.identity(2)}),
        "aff.json": dump_structure(_aff()),
        "flatdouble_in.json": dump_structure(
            Algebra.zero(2), forms={"metric": Bilinear(
                Mat.from_rows([[2, 1], [1, 1]]), "symmetric")}),
        "cybe_in.json": dump_structure(
            heis, forms={"r": Bilinear(Mat.zeros(3, 3), "none")},
            tensors={"b": Mat.from_rows([[0, 0, 1], [0, 0, 0],
                                         [-1, 0, 0]])}),
        "derphase_in.json": dump_structure(graded, endos={"d": deriv}),
        "twist_heis_in.json": dump_structure(
            heis, tensors={"r": Mat.zeros(3, 3)}),
    }


def _commands():
    """(id, argv) for every case, in a fixed order."""
    cases = [("catalog-list", ["catalog", "list"])]
    for family in FAMILIES:
        cases.append(("emit-" + family,
                      ["catalog", "emit", family, "--out", "out.json"]))
    for what in ("dim2", "assoc"):
        for family in FAMILIES:
            cases.append(("normalize-%s-%s" % (what, family),
                          ["normalize", what, family + ".json",
                           "--out", "out.json"]))
    for family in FAMILIES:
        for pred in PREDICATES:
            cases.append(("check-%s-%s" % (pred.replace(":", "-"), family),
                          ["check", family + ".json", "--pred", pred]))
    builds = [
        ("phase", "dim2_nonabelian.json", []),
        ("twist", "twist_in.json", []),
        ("hyper", "hyper_in.json", []),
        ("tsymp", "tsymp_in.json", []),
        ("ttheta", "ttheta_in.json", []),
        ("ttheta-hyper", "ttheta_in.json", ["--hyper"]),
        ("quadratic", "aff.json", ["--param", "n=2"]),
        ("flatdouble", "flatdouble_in.json", []),
        ("cybe", "cybe_in.json", []),
        ("derphase", "derphase_in.json", []),
        ("twist-heis", "twist_heis_in.json", []),
    ]
    for name, source, flags in builds:
        cases.append(("build-" + name,
                      ["build", name.split("-")[0], source,
                       "--out", "out.json"] + flags))
    return cases


def _replay(argv, workdir):
    """(stdout, exit code, artifact or None) of one in-process run."""
    for name in os.listdir(INPUTS):
        shutil.copy(os.path.join(INPUTS, name), workdir)
    here = os.getcwd()
    buf = io.StringIO()
    try:
        os.chdir(workdir)
        with contextlib.redirect_stdout(buf):
            code = run(argv)
    finally:
        os.chdir(here)
    artifact = os.path.join(workdir, "out.json")
    text = None
    if os.path.exists(artifact):
        with open(artifact, encoding="utf-8") as handle:
            text = handle.read()
    return buf.getvalue(), code, text


def _read(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as handle:
        return handle.read()


def _manifest():
    with open(MANIFEST, encoding="utf-8") as handle:
        return json.load(handle)


def test_manifest_lists_every_command():
    assert [(c["id"], c["argv"]) for c in _manifest()] == \
        [(cid, argv) for cid, argv in _commands()]


@pytest.mark.parametrize("cid", [cid for cid, _ in _commands()])
def test_report_matches_golden(cid, tmp_path):
    case = {c["id"]: c for c in _manifest()}[cid]
    out, code, artifact = _replay(case["argv"], str(tmp_path))
    assert code == case["exit_code"]
    assert out == _read(case["id"] + ".txt")
    if case["artifact"]:
        assert artifact == _read(case["id"] + ".out.json")
    else:
        assert artifact is None


def regenerate():
    shutil.rmtree(GOLDEN, ignore_errors=True)
    os.makedirs(INPUTS)
    for name, text in _build_inputs().items():
        with open(os.path.join(INPUTS, name), "w", encoding="utf-8") as f:
            f.write(text)
    for family in FAMILIES:
        with contextlib.redirect_stdout(io.StringIO()):
            code = run(["catalog", "emit", family, "--out",
                        os.path.join(INPUTS, family + ".json")])
        if code != 0:
            raise SystemExit("catalog emit %s failed" % family)
    manifest = []
    for cid, argv in _commands():
        with tempfile.TemporaryDirectory() as work:
            out, code, artifact = _replay(argv, work)
        with open(os.path.join(GOLDEN, cid + ".txt"), "w",
                  encoding="utf-8") as f:
            f.write(out)
        if artifact is not None:
            with open(os.path.join(GOLDEN, cid + ".out.json"), "w",
                      encoding="utf-8") as f:
                f.write(artifact)
        manifest.append({"id": cid, "argv": argv, "exit_code": code,
                         "artifact": artifact is not None})
    with open(MANIFEST, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py "
                         "--regenerate")
    regenerate()
