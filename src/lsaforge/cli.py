"""Command-line front end: parse structure files, dispatch checks,
builders, and normalizers, and emit deterministic reports.

Exit codes: 0 when every check passes, 1 when a mathematical predicate
fails (the report is still written), 2 on input or usage errors.
Reports are byte-identical for identical inputs: run metadata lives in
comment-style header lines, the body carries no timestamps.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .algebra import Algebra, check
from .catalog import (DEFAULT_SCALARS, FAMILIES, build_quadratic_symplectic,
                      catalog_load, classify_compatible_dim2, cybe_double,
                      derivation_phase, flat_double, normalize_assoc_symp,
                      normalize_dim2_slsa)
from .doubling import build_hyper, build_symp_double, build_theta_double
from .exact import Mat, format_rational, parse_rational, zero_vec
from .forms import Bilinear, is_flat, is_invariant_form, is_two_cocycle
from .phase import build_phase
from .report import _bool_report, failing
from .smatrix import twisted_structures
from .triple import LieTriple

DEFAULT_MAX_DIM = 16

_ALGEBRA_PREDICATES = ("left_symmetric", "associative", "commutative",
                       "abelian", "lie_admissible", "jacobi_antisym")
_FORM_PREDICATES = ("invariant", "two_cocycle", "flat", "nondegenerate")
_TOP_KEYS = ("dim", "basis", "product", "product2", "forms", "endos",
             "tensors", "triple")
_FORM_KINDS = ("skew", "symmetric", "none")


class UsageError(Exception):
    """Input or usage problem; maps to exit code 2."""


@dataclass
class StructFile:
    path: str
    labels: tuple
    products: dict = field(default_factory=dict)   # "product", "product2"
    forms: dict = field(default_factory=dict)
    endos: dict = field(default_factory=dict)
    tensors: dict = field(default_factory=dict)
    triple: Optional[LieTriple] = None

    @property
    def dim(self) -> int:
        return len(self.labels)

    def need(self, kind: str, name: str):
        pool = getattr(self, kind)
        if name not in pool:
            raise UsageError("%s: missing %s %r (available: %s)"
                             % (self.path, kind[:-1], name,
                                ", ".join(sorted(pool)) or "none"))
        return pool[name]


def _max_dim() -> int:
    raw = os.environ.get("LSA_FORGE_MAX_DIM", "")
    if not raw:
        return DEFAULT_MAX_DIM
    try:
        cap = int(raw)
    except ValueError:
        raise UsageError("LSA_FORGE_MAX_DIM must be an integer, got %r" % raw)
    if cap < 1:
        raise UsageError("LSA_FORGE_MAX_DIM must be positive")
    return cap


def _rational(text, where: str) -> Fraction:
    if not isinstance(text, str):
        raise UsageError("%s: expected a rational string, got %r"
                         % (where, text))
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise UsageError("%s: %s" % (where, exc))


def _matrix(raw, dim: int, where: str) -> Mat:
    if (not isinstance(raw, list) or len(raw) != dim
            or any(not isinstance(row, list) or len(row) != dim
                   for row in raw)):
        raise UsageError("%s: expected a %dx%d array of rational strings"
                         % (where, dim, dim))
    return Mat.from_rows([
        [_rational(raw[i][j], "%s[%d][%d]" % (where, i, j))
         for j in range(dim)] for i in range(dim)])


def _table(raw, labels, where: str):
    if not isinstance(raw, list):
        raise UsageError("%s: expected an array of product entries" % where)
    index = {lab: i for i, lab in enumerate(labels)}
    dim = len(labels)
    table = [[zero_vec(dim) for _ in range(dim)] for _ in range(dim)]
    for pos, entry in enumerate(raw):
        here = "%s[%d]" % (where, pos)
        if not isinstance(entry, dict):
            raise UsageError("%s: expected an object" % here)
        extra = set(entry) - {"left", "right", "result"}
        if extra:
            raise UsageError("%s: unknown keys %s"
                             % (here, ", ".join(sorted(extra))))
        for key in ("left", "right", "result"):
            if key not in entry:
                raise UsageError("%s: missing %r" % (here, key))
        for key in ("left", "right"):
            if entry[key] not in index:
                raise UsageError("%s.%s: unknown basis label %r"
                                 % (here, key, entry[key]))
        cell = list(zero_vec(dim))
        if not isinstance(entry["result"], dict):
            raise UsageError("%s.result: expected an object" % here)
        for lab, val in entry["result"].items():
            if lab not in index:
                raise UsageError("%s.result: unknown basis label %r"
                                 % (here, lab))
            cell[index[lab]] = _rational(val, "%s.result.%s" % (here, lab))
        table[index[entry["left"]]][index[entry["right"]]] = tuple(cell)
    return table


def load_structure(path: str) -> StructFile:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise UsageError("%s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise UsageError("%s: invalid JSON at line %d column %d: %s"
                         % (path, exc.lineno, exc.colno, exc.msg))
    if not isinstance(raw, dict):
        raise UsageError("%s: top level must be an object" % path)
    extra = set(raw) - set(_TOP_KEYS)
    if extra:
        raise UsageError("%s: unknown keys %s (allowed: %s)"
                         % (path, ", ".join(sorted(extra)),
                            ", ".join(_TOP_KEYS)))
    dim = raw.get("dim")
    labels = raw.get("basis")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise UsageError("%s: dim must be a positive integer" % path)
    if dim > _max_dim():
        raise UsageError("%s: dim %d exceeds LSA_FORGE_MAX_DIM=%d"
                         % (path, dim, _max_dim()))
    if (not isinstance(labels, list) or len(labels) != dim
            or any(not isinstance(lab, str) for lab in labels)
            or len(set(labels)) != dim):
        raise UsageError("%s: basis must list %d distinct strings"
                         % (path, dim))
    labels = tuple(labels)
    out = StructFile(path=path, labels=labels)
    for section in ("product", "product2"):
        if section in raw:
            out.products[section] = Algebra(
                _table(raw[section], labels, "%s:%s" % (path, section)),
                labels)
    for section in ("forms", "endos", "tensors"):
        if not isinstance(raw.get(section, {}), dict):
            raise UsageError("%s:%s: expected an object" % (path, section))
    for name, spec in raw.get("forms", {}).items():
        here = "%s:forms.%s" % (path, name)
        if not isinstance(spec, dict) or set(spec) - {"kind", "matrix"}:
            raise UsageError("%s: expected {kind, matrix}" % here)
        kind = spec.get("kind")
        if kind not in _FORM_KINDS:
            raise UsageError("%s: kind must be one of %s"
                             % (here, ", ".join(_FORM_KINDS)))
        mat = _matrix(spec.get("matrix"), dim, here + ".matrix")
        try:
            out.forms[name] = Bilinear(mat, kind)
        except ValueError as exc:
            raise UsageError("%s: %s" % (here, exc))
    for section in ("endos", "tensors"):
        for name, spec in raw.get(section, {}).items():
            here = "%s:%s.%s" % (path, section, name)
            getattr(out, section)[name] = _matrix(spec, dim, here)
    if "triple" in raw:
        out.triple = _load_triple(raw["triple"], labels, path + ":triple")
    return out


def _load_triple(raw, labels, where: str) -> LieTriple:
    if not isinstance(raw, list):
        raise UsageError("%s: expected an array of entries" % where)
    index = {lab: i for i, lab in enumerate(labels)}
    dim = len(labels)
    table = [[[zero_vec(dim) for _ in range(dim)] for _ in range(dim)]
             for _ in range(dim)]
    for pos, entry in enumerate(raw):
        here = "%s[%d]" % (where, pos)
        keys = {"first", "second", "third", "result"}
        if not isinstance(entry, dict) or set(entry) != keys:
            raise UsageError("%s: expected {first, second, third, result}"
                             % here)
        try:
            i, j, k = (index[entry[slot]]
                       for slot in ("first", "second", "third"))
        except KeyError as exc:
            raise UsageError("%s: unknown basis label %s" % (here, exc))
        if not isinstance(entry["result"], dict):
            raise UsageError("%s.result: expected an object" % here)
        cell = list(zero_vec(dim))
        for lab, val in entry["result"].items():
            if lab not in index:
                raise UsageError("%s.result: unknown basis label %r"
                                 % (here, lab))
            cell[index[lab]] = _rational(val, "%s.result.%s" % (here, lab))
        table[i][j][k] = tuple(cell)
    return LieTriple(table)


# -- deterministic writer -------------------------------------------------------

def _fmt_matrix(mat: Mat):
    return [[format_rational(mat[i, j]) for j in range(mat.cols)]
            for i in range(mat.rows)]


def _product_entries(alg: Algebra):
    labels = alg.basis
    entries = []
    for i in range(alg.dim):
        for j in range(alg.dim):
            cell = alg.table[i][j]
            result = {labels[k]: format_rational(cell[k])
                      for k in range(alg.dim) if cell[k] != 0}
            if result:
                entries.append({"left": labels[i], "right": labels[j],
                                "result": result})
    return entries


def dump_structure(alg: Algebra, forms=None, endos=None, tensors=None,
                   alg2: Optional[Algebra] = None) -> str:
    """Serialize structures in the shared file format, deterministically:
    product entries in basis order, named sections sorted by name."""
    obj = {"dim": alg.dim, "basis": list(alg.basis),
           "product": _product_entries(alg)}
    if alg2 is not None:
        obj["product2"] = _product_entries(alg2)
    if forms:
        obj["forms"] = {name: {"kind": forms[name].kind,
                               "matrix": _fmt_matrix(forms[name].matrix)}
                        for name in sorted(forms)}
    if endos:
        obj["endos"] = {name: _fmt_matrix(endos[name])
                        for name in sorted(endos)}
    if tensors:
        obj["tensors"] = {name: _fmt_matrix(tensors[name])
                          for name in sorted(tensors)}
    return json.dumps(obj, indent=2) + "\n"


# -- report plumbing ------------------------------------------------------------

def _emit(args, body_lines, artifact: Optional[str] = None) -> int:
    header = ["# lsaforge report",
              "# command: %s" % " ".join(args.argv),
              "# seed: %d" % args.seed]
    text = "\n".join(header) + "\n\n" + "\n".join(body_lines) + "\n"
    sys.stdout.write(text)
    if artifact is not None:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(artifact)
        else:
            sys.stdout.write(artifact)
    return 0 if all(not line.startswith("FAIL") for line in body_lines) else 1


def _report_lines(reports) -> list:
    return [rep.line() for rep in reports]


def _param_map(pairs) -> dict:
    out = {}
    for item in pairs or ():
        if "=" not in item:
            raise UsageError("--param expects k=v, got %r" % item)
        key, _, val = item.partition("=")
        out[key] = _rational(val, "--param %s" % key)
    return out


def _int_param(params: dict, name: str, default: Optional[int] = None) -> int:
    if name not in params:
        if default is None:
            raise UsageError("missing required --param %s=<integer>" % name)
        return default
    val = params[name]
    if val.denominator != 1:
        raise UsageError("--param %s must be an integer" % name)
    return int(val)


# -- commands --------------------------------------------------------------------

def _cmd_check(args) -> int:
    struct = load_structure(args.file)
    alg = struct.need("products", "product")
    pred = args.pred
    if pred in _ALGEBRA_PREDICATES:
        rep = check(alg, pred)
        return _emit(args, [rep.line()])
    if ":" in pred:
        head, _, form_name = pred.partition(":")
        if head in _FORM_PREDICATES:
            form = struct.need("forms", form_name)
            if head == "invariant":
                rep = is_invariant_form(form, alg)
            elif head == "two_cocycle":
                rep = is_two_cocycle(form, alg)
            elif head == "flat":
                try:
                    rep = is_flat(alg, form)
                except ValueError as exc:
                    rep = failing("is_flat", str(exc))
            else:
                rep = _bool_report("nondegenerate", form.is_nondegenerate(),
                                   "det != 0")
            return _emit(args, [rep.line()])
    raise UsageError(
        "unknown predicate %r (algebra predicates: %s; form predicates: %s)"
        % (pred, ", ".join(_ALGEBRA_PREDICATES),
           ", ".join(p + ":<form>" for p in _FORM_PREDICATES)))


def _math_fail(args, name: str, exc: ValueError) -> int:
    return _emit(args, [failing(name, str(exc)).line()])


def _cmd_build(args) -> int:
    struct = load_structure(args.file)
    alg = struct.need("products", "product")
    what = args.what
    try:
        if what == "phase":
            dual = None
            if args.dual != "zero":
                dual = load_structure(args.dual).need("products", "product")
            ps = build_phase(alg, dual)
            reports = [check(ps.extended, "left_symmetric"),
                       is_invariant_form(ps.omega0, ps.extended)]
            artifact = dump_structure(
                ps.extended,
                forms={"omega0": ps.omega0, "pairing0": ps.pairing0},
                endos={"k0": ps.k0})
            return _emit(args, _report_lines(reports), artifact)
        if what == "twist":
            tensor = struct.need("tensors", args.tensor)
            tw = twisted_structures(alg, tensor)
            artifact = dump_structure(tw.twisted,
                                      forms={"metric_r": tw.metric_r},
                                      endos={"k_r": tw.k_r, "xi": tw.xi})
            return _emit(args, _report_lines(tw.cert.reports), artifact)
        if what == "hyper":
            hy = build_hyper(alg, struct.need("products", "product2"),
                             struct.need("forms", "omega"))
            cp = hy.complex_product
            artifact = dump_structure(cp.lie, forms={"metric": hy.metric},
                                      endos={"k1": cp.k1, "j1": cp.j1})
            reports = tuple(cp.cert.reports) + tuple(hy.cert.reports)
            return _emit(args, _report_lines(reports), artifact)
        if what == "tsymp":
            data = build_symp_double(alg,
                                     struct.need("forms", "omega"),
                                     struct.need("endos", "a"))
            artifact = dump_structure(data.bracket,
                                      forms={"metric": data.metric},
                                      endos={"k": data.k})
            return _emit(args, _report_lines(data.cert.reports), artifact)
        if what == "ttheta":
            data = build_theta_double(alg,
                                      struct.need("forms", "theta"),
                                      struct.need("endos", "a"),
                                      hyper=args.hyper)
            endos = {"k": data.k}
            if data.j is not None:
                endos["j"] = data.j
            artifact = dump_structure(data.bracket,
                                      forms={"metric": data.metric},
                                      endos=endos)
            return _emit(args, _report_lines(data.cert.reports), artifact)
        if what == "quadratic":
            params = _param_map(args.param)
            grades = _int_param(params, "n")
            if grades < 1:
                raise UsageError("--param n must be at least 1")
            data = build_quadratic_symplectic(alg, grades)
            artifact = dump_structure(
                data.lie,
                forms={"metric": data.metric, "omega": data.omega,
                       "pairing": data.pairing},
                endos={"derivation": data.derivation.matrix})
            return _emit(args, _report_lines(data.cert.reports), artifact)
        if what == "flatdouble":
            data = flat_double(alg, struct.need("forms", "metric"))
            artifact = dump_structure(data.bracket,
                                      forms={"metric": data.metric},
                                      endos={"k": data.k},
                                      alg2=data.triangle)
            return _emit(args, _report_lines(data.cert.reports), artifact)
        if what == "cybe":
            data = cybe_double(alg, struct.need("tensors", "b"),
                               struct.need("forms", "r"))
            artifact = dump_structure(data.bracket,
                                      forms={"metric": data.metric},
                                      endos={"k": data.k},
                                      alg2=data.triangle)
            return _emit(args, _report_lines(data.cert.reports), artifact)
        if what == "derphase":
            data = derivation_phase(alg, struct.need("endos", "d"))
            artifact = dump_structure(
                data.phase.extended, forms={"omega0": data.phase.omega0},
                endos={"delta": data.delta.matrix})
            return _emit(args, _report_lines(data.cert.reports), artifact)
    except ValueError as exc:
        return _math_fail(args, "build_" + what, exc)
    raise UsageError("unknown build target %r" % what)


def _params_lines(params: dict) -> list:
    lines = []
    for key in sorted(params):
        val = params[key]
        if isinstance(val, Mat):
            lines.append("param %s=%s" % (key, _fmt_matrix(val)))
        elif isinstance(val, tuple):
            parts = []
            for item in val:
                if isinstance(item, Mat):
                    parts.append(str(_fmt_matrix(item)))
                else:
                    parts.append(str(item))
            lines.append("param %s=[%s]" % (key, ", ".join(parts)))
        elif isinstance(val, Fraction):
            lines.append("param %s=%s" % (key, format_rational(val)))
        else:
            lines.append("param %s=%s" % (key, val))
    return lines


def _cmd_normalize(args) -> int:
    struct = load_structure(args.file)
    alg = struct.need("products", "product")
    omega = struct.need("forms", "omega")
    try:
        if args.what == "dim2":
            cid = normalize_dim2_slsa(alg, omega)
        else:
            cid = normalize_assoc_symp(alg, omega)
    except ValueError as exc:
        return _math_fail(args, "normalize_" + args.what, exc)
    lines = ["PASS normalize  family=%s" % cid.family]
    lines += _params_lines(cid.params)
    lines += ["fingerprint %s=%s" % (k, cid.fingerprint[k])
              for k in sorted(cid.fingerprint)]
    artifact = dump_structure(
        alg.conjugate(cid.change_of_basis.matrix),
        endos={"change_of_basis": cid.change_of_basis.matrix})
    return _emit(args, lines, artifact)


def _cmd_classify(args) -> int:
    struct = load_structure(args.file)
    bullet = struct.need("products", "product")
    circ = struct.need("products", "product2")
    omega = struct.need("forms", "omega")
    try:
        verdict = classify_compatible_dim2(bullet, circ, omega)
    except ValueError as exc:
        return _math_fail(args, "classify_compat2", exc)
    lines = ["PASS classify  kind=%s" % verdict.kind]
    if verdict.witness is not None:
        lines.append("witness %s" % (verdict.witness,))
    if verdict.canonical is not None:
        lines += _params_lines(verdict.canonical.params)
    return _emit(args, lines)


def _cmd_catalog(args) -> int:
    if args.what == "list":
        lines = []
        for family in FAMILIES:
            scalars = DEFAULT_SCALARS[family]
            rendered = " ".join("%s=%s" % (k, format_rational(scalars[k]))
                                for k in sorted(scalars))
            lines.append("%s  %s" % (family, rendered))
        return _emit(args, lines)
    family = args.family
    if family is None:
        raise UsageError("catalog emit requires a family name")
    if family not in FAMILIES:
        raise UsageError("unknown family %r (families: %s)"
                         % (family, ", ".join(FAMILIES)))
    overrides = _param_map(args.param)
    try:
        loaded = catalog_load(family, overrides)
    except ValueError as exc:
        raise UsageError(str(exc))
    if "bullet" in loaded:
        artifact = dump_structure(loaded["bullet"],
                                  forms={"omega": loaded["omega"]},
                                  alg2=loaded["circ"])
    else:
        artifact = dump_structure(loaded["alg"],
                                  forms={"omega": loaded["omega"]})
    lines = ["PASS catalog_emit  family=%s" % family]
    lines += _params_lines(loaded["scalars"])
    return _emit(args, lines, artifact)


def _cmd_lts(args) -> int:
    struct = load_structure(args.file)
    if struct.triple is None:
        raise UsageError("%s: no triple section" % args.file)
    cert = struct.triple.check()
    return _emit(args, _report_lines(cert.reports))


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None,
                        help="write the built structure file here")
    common.add_argument("--seed", type=int, default=0,
                        help="seed recorded in the report header")
    common.add_argument("--param", action="append", default=[],
                        metavar="K=V", help="rational parameter")
    parser = argparse.ArgumentParser(
        prog="lsaforge",
        description="exact checks and constructions for left-symmetric "
                    "algebras and their doubles")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", parents=[common],
                             help="run a predicate on a structure file")
    p_check.add_argument("--pred", required=True)
    p_check.add_argument("file")
    p_check.set_defaults(fn=_cmd_check)

    p_build = sub.add_parser("build", parents=[common],
                             help="run a construction and write its output")
    p_build.add_argument("what", choices=("phase", "twist", "hyper", "tsymp",
                                          "ttheta", "quadratic", "flatdouble",
                                          "cybe", "derphase"))
    p_build.add_argument("file")
    p_build.add_argument("--dual", default="zero",
                         help="phase: structure file with the dual product")
    p_build.add_argument("--tensor", default="r",
                         help="twist: name of the tensor to use")
    p_build.add_argument("--hyper", action="store_true",
                         help="ttheta: also certify the complex structure")
    p_build.set_defaults(fn=_cmd_build)

    p_norm = sub.add_parser("normalize", parents=[common],
                            help="land an instance on its canonical model")
    p_norm.add_argument("what", choices=("dim2", "assoc"))
    p_norm.add_argument("file")
    p_norm.set_defaults(fn=_cmd_normalize)

    p_cls = sub.add_parser("classify", parents=[common],
                           help="classify a pair of products")
    p_cls.add_argument("what", choices=("compat2",))
    p_cls.add_argument("file")
    p_cls.set_defaults(fn=_cmd_classify)

    p_cat = sub.add_parser("catalog", parents=[common],
                           help="list families or emit an instance")
    p_cat.add_argument("what", choices=("list", "emit"))
    p_cat.add_argument("family", nargs="?", default=None)
    p_cat.set_defaults(fn=_cmd_catalog)

    p_lts = sub.add_parser("lts", parents=[common],
                           help="verify a Lie triple system file")
    p_lts.add_argument("what", choices=("verify",))
    p_lts.add_argument("file")
    p_lts.set_defaults(fn=_cmd_lts)
    return parser


def run(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.argv = ["lsaforge"] + argv
    try:
        return args.fn(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
