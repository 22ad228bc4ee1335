"""Command-line surface.

Every subcommand prints a human-readable report, or a JSON document with a
stable schema when --json is passed.  Exit codes: 0 all checks passed,
1 a mathematical check failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import constructions, io
from .axes import axis_orbit, check_axis, check_fusion, eigen_decompose, miyamoto
from .errors import (AxialError, BadLambda, InvalidTripleSystem, OrbitOverflow, PolyParseError,
                     ScalarParseError, SchemaError, UnboundVariable, UnknownIdentity)
from .fields import QQ, field_from_json
from .frobenius import radical, solve_frobenius, trace_admissibility_audit
from .identities import BUILTIN_NAMES, builtin_identity, holds_as_identity, parse_poly
from .solidity import solid_audit

SCHEMA_VERSION = 1

# stable rule identifiers used in failure details
RULE_AXIS_CUBIC = "axis:cubic-annihilator"
RULE_FUSION = {
    "a01_subalgebra": "fusion:A01*A01<=A01",
    "module_rule": "fusion:A01*Alam<=Alam",
    "pre_jordan": "fusion:Alam*Alam<=A01",
    "jordan_a0": "fusion:A0*A0<=A0",
}


class _Usage(Exception):
    pass


# input the user can correct: exit 2, not a failed check
_INPUT_ERRORS = (_Usage, SchemaError, ScalarParseError, PolyParseError, UnknownIdentity,
                 InvalidTripleSystem, BadLambda, OSError)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        report = args.handler(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AxialError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    report["elapsed_s"] = round(time.perf_counter() - t0, 6)
    # construct without -o writes its document to stdout, so the report goes to stderr
    out = sys.stderr if args.command == "construct" and not args.output else sys.stdout
    _emit(report, args, out)
    return 0 if report["passed"] else 1


def _emit(report, args, out):
    if getattr(args, "json", False):
        json.dump(report, out, indent=1, default=str)
        out.write("\n")
        return
    for chk in report["checks"]:
        mark = "ok " if chk["passed"] else "FAIL"
        detail = chk.get("detail")
        suffix = f"  {detail}" if detail not in (None, {}) else ""
        print(f"[{mark}] {chk['name']}{suffix}", file=out)
    print(f"=> {'PASS' if report['passed'] else 'FAIL'} ({report['elapsed_s']:.3f}s)", file=out)


def _report(command, checks, extra=None):
    rep = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
        "elapsed_s": 0.0,
    }
    if extra:
        rep.update(extra)
    return rep


# -- argument plumbing -------------------------------------------------------


def _parse_json(text, what):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise _Usage(f"{what}: {exc}") from exc


def _parse_element(A, text):
    doc = _parse_json(text, "element must be a JSON array of scalar strings")
    if isinstance(doc, list):
        doc = [str(x) for x in doc]
    return io.element_from_json(doc, A)


def _parse_lambda(A, text):
    if text is None:
        raise _Usage("--lambda is required")
    lam = A.field.parse(text)
    if lam == A.field.zero or lam == A.field.one:
        raise _Usage("lambda must avoid 0 and 1")
    return lam


def _load_form(args, A):
    if getattr(args, "form", None):
        return io.form_from_json(io.read_json(args.form), A)
    return None


def _solved_normal_form(A, axes):
    sol = solve_frobenius(A, [(ax, A.field.one) for ax in axes])
    if sol.particular is None:
        raise _Usage("no normal form exists with (a,a) = 1 at the given axes; supply --form")
    if sol.homogeneous_basis:
        raise _Usage("normal form is not unique; supply --form explicitly")
    return sol.particular


# -- subcommands -------------------------------------------------------------


def _cmd_construct(args):
    field = field_from_json(_parse_json(args.field, "--field is not JSON")) if args.field else QQ
    if args.kind == "toric":
        tor = constructions.toric_euf(field)
        A, extra = tor.algebra, {"form": io.form_to_json(tor.form)}
    elif args.kind == "two-gen":
        if args.lam is None or args.pi is None:
            raise _Usage("two-gen requires --lambda and --pi")
        tg = constructions.universal_2gen(
            field.parse(args.lam), field.parse(args.pi), field,
            flat_annihilating=args.flat_annihilating,
        )
        A, extra = tg.algebra, {
            "form": io.form_to_json(tg.form),
            "gamma": field.format(tg.gamma),
        }
    elif args.kind == "matsuo":
        if args.lam is None or not args.lines:
            raise _Usage("matsuo requires --lambda and --lines")
        points, lines = _parse_lines(args.lines)
        ts = constructions.TripleSystem(points=points, lines=lines)
        ma = constructions.matsuo_from_triple_system(ts, field.parse(args.lam), field)
        A, extra = ma.algebra, {"form": io.form_to_json(ma.form)}
    elif args.kind == "jordan-sym":
        if args.k is None or args.k < 2:
            raise _Usage("jordan-sym requires --k of at least 2")
        A = constructions.jordan_symmetric_matrices(args.k, field)
        extra = {"form": io.form_to_json(constructions.trace_form(A))}
    else:  # pragma: no cover - argparse restricts choices
        raise _Usage(f"unknown construction {args.kind!r}")

    doc = io.algebra_to_json(A)
    doc.update(extra)
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    else:
        json.dump(doc, sys.stdout, indent=1)
        sys.stdout.write("\n")
    return _report("construct", [{"name": f"construct:{args.kind}", "passed": True, "detail": {"dim": A.dim}}])


def _parse_lines(text):
    lines = [[p.strip() for p in chunk.split(",")] for chunk in text.split(";") if chunk.strip()]
    return list(dict.fromkeys(p for line in lines for p in line)), lines


def _cmd_check_axis(args):
    A = io.load_algebra(args.algebra)
    x = _parse_element(A, args.element)
    lam = _parse_lambda(A, args.lam)
    rep = check_axis(x, lam)
    field = A.field
    checks = [
        {"name": "idempotent", "passed": rep.is_idempotent, "detail": {}},
        {
            "name": "axis-of-type-lambda",
            "passed": rep.is_axis,
            "detail": {
                "rule": RULE_AXIS_CUBIC,
                "spectrum": [field.format(m) for m in rep.spectrum],
                "semisimple": rep.semisimple,
                "ax1_holds": rep.ax1_holds,
            },
        },
        {"name": "primitive", "passed": rep.primitive, "detail": {}},
    ]
    if rep.fusion is not None:
        for key, rule in RULE_FUSION.items():
            checks.append({"name": key, "passed": getattr(rep.fusion, key), "detail": {"rule": rule}})
        checks.append({
            "name": "miyamoto-automorphism",
            "passed": bool(rep.miyamoto_is_automorphism),
            "detail": {},
        })
    return _report("check-axis", checks)


def _cmd_fusion(args):
    A = io.load_algebra(args.algebra)
    x = _parse_element(A, args.element)
    lam = _parse_lambda(A, args.lam)
    eigen = eigen_decompose(x)
    verdicts = check_fusion(x, lam, eigen)
    checks = [
        {"name": key, "passed": getattr(verdicts, key), "detail": {"rule": rule}}
        for key, rule in RULE_FUSION.items()
    ]
    dims = {A.field.format(mu): len(vs) for mu, vs in eigen.eigenspaces.items()}
    return _report("fusion", checks, extra={"eigenspace_dims": dims})


def _cmd_frobenius(args):
    A = io.load_algebra(args.algebra)
    normalize = []
    for norm_text in args.normalize or []:
        if "=" not in norm_text:
            raise _Usage("--normalize takes ELEMENT_JSON=SCALAR")
        elem_text, value_text = norm_text.rsplit("=", 1)
        normalize.append((_parse_element(A, elem_text), A.field.parse(value_text)))
    sol = solve_frobenius(A, normalize)
    checks = [{
        "name": "form-exists",
        "passed": sol.particular is not None,
        "detail": {"family_dim": len(sol.homogeneous_basis)},
    }]
    extra = {"family_dim": len(sol.homogeneous_basis)}
    if sol.particular is not None:
        rad = radical(sol.particular)
        extra.update({
            "gram": io.form_to_json(sol.particular)["gram"],
            "gram_det": A.field.format(sol.particular.gram.det()),
            "radical_dim": len(rad),
        })
    return _report("frobenius", checks, extra=extra)


def _cmd_radical(args):
    A = io.load_algebra(args.algebra)
    form = _load_form(args, A)
    if form is None:
        raise _Usage("radical requires --form")
    rad = radical(form)
    checks = [{
        "name": "radical-zero",
        "passed": not rad,
        "detail": {"radical_dim": len(rad)},
    }]
    return _report("radical", checks, extra={
        "radical_basis": [io.element_to_json(r) for r in rad],
        "gram_det": A.field.format(form.gram.det()),
    })


def _cmd_identity(args):
    A = io.load_algebra(args.algebra)
    lam = _parse_lambda(A, args.lam) if args.lam else None
    if args.name:
        f = builtin_identity(args.name, A.field, lam)
    elif args.poly:
        f = parse_poly(args.poly, A.field, lam=lam)
    else:
        raise _Usage("identity requires --name or --poly")
    pool = [_parse_element(A, t) for t in args.pool or []]
    if f.e_indices() and not pool:
        raise _Usage("identities with E slots need a --pool of idempotents")
    form = _load_form(args, A)
    if form is None and f.has_brackets():
        if not pool:
            raise _Usage("bracket identities need --form or a --pool to normalize at")
        form = _solved_normal_form(A, pool)
    try:
        verdict = holds_as_identity(f, A, idempotent_pool=pool, form=form,
                                    distinct_slots=args.distinct_slots)
    except UnboundVariable as exc:  # too few distinct pool members for the E slots
        raise _Usage(str(exc)) from exc
    detail = {"method": verdict.method}
    if verdict.witness is not None:
        detail["witness"] = {
            "x": {f"x{j}": io.element_to_json(v) for j, v in verdict.witness["x"].items()},
            "E": {f"E{i}": io.element_to_json(v) for i, v in verdict.witness["e"].items()},
        }
    checks = [{"name": f"identity:{args.name or 'poly'}", "passed": verdict.holds, "detail": detail}]
    return _report("identity", checks)


def _cmd_miyamoto(args):
    A = io.load_algebra(args.algebra)
    x = _parse_element(A, args.element)
    lam = _parse_lambda(A, args.lam)
    tau = miyamoto(x, lam)
    field = A.field
    checks = [
        {"name": "involution", "passed": True, "detail": {}},  # constructor asserts it
        {"name": "automorphism", "passed": tau.is_automorphism, "detail": {}},
    ]
    return _report("miyamoto", checks, extra={
        "matrix": [[field.format(c) for c in row] for row in tau.matrix.rows],
    })


def _cmd_solid(args):
    A = io.load_algebra(args.algebra)
    a = _parse_element(A, args.a)
    b = _parse_element(A, args.b)
    lam = _parse_lambda(A, args.lam)
    form = _load_form(args, A)
    if form is None:
        form = _solved_normal_form(A, [a, b])
    eps = [A.field.parse(t.strip()) for t in args.eps.split(",")] if args.eps else []
    rep = solid_audit(A, a, b, form, lam, sample_eps=eps)
    field = A.field
    checks = [
        {"name": "pair-class", "passed": True,
         "detail": {"kind": rep.pair_class.kind, "pi": field.format(rep.pair_class.pi),
                    "quarter_flag": rep.pair_class.quarter_flag}},
        {"name": "solid-primitive-axes", "passed": rep.solid, "detail": {}},
        {"name": "solid-jordan-type", "passed": rep.solid_jordan, "detail": {}},
    ]
    idems = []
    for x, axrep, trivial in rep.idempotent_reports:
        entry = {"element": io.element_to_json(x), "trivial": trivial}
        if axrep is not None:
            entry.update({
                "is_axis": axrep.is_axis,
                "primitive": axrep.primitive,
                "jordan": axrep.is_jordan_axis,
            })
        idems.append(entry)
    extra = {
        "subalgebra_dim": rep.subalgebra.dim,
        "idempotents": idems,
        "symbolic_family_checked": rep.symbolic_report is not None,
        "symbolic_excluded": [field.format(v) for v in rep.symbolic_excluded],
        "verdict": rep.verdict,
    }
    return _report("solid", checks, extra=extra)


def _cmd_orbit(args):
    A = io.load_algebra(args.algebra)
    lam = _parse_lambda(A, args.lam)
    axes = [_parse_element(A, t) for t in args.axis]
    cap = args.max_size
    if cap is None:
        text = os.environ.get("AXIAL_MAX_ORBIT", "1000")
        try:
            cap = int(text)
        except ValueError:
            raise _Usage(f"AXIAL_MAX_ORBIT must be an integer, got {text!r}") from None
    if cap < 1:
        raise _Usage(f"the orbit cap must be at least 1, got {cap}")
    try:
        orbit = axis_orbit(axes, lam, max_size=cap)
    except OrbitOverflow as exc:
        checks = [{
            "name": "orbit-closed",
            "passed": False,
            "detail": {"cap": cap, "partial_size": len(exc.partial or [])},
        }]
        return _report("orbit", checks)
    checks = [{"name": "orbit-closed", "passed": True, "detail": {"size": len(orbit)}}]
    return _report("orbit", checks, extra={
        "orbit": [io.element_to_json(x) for x in orbit],
    })


def _cmd_audit_trace(args):
    A = io.load_algebra(args.algebra)
    form = _load_form(args, A)
    if form is None:
        raise _Usage("audit-trace requires --form")
    pairs = None
    if args.pairs:
        pairs = []
        for chunk in args.pairs:
            if "|" not in chunk:
                raise _Usage("--pairs takes ELEMENT_JSON|ELEMENT_JSON")
            left, right = chunk.split("|", 1)
            pairs.append((_parse_element(A, left), _parse_element(A, right)))
    audit = trace_admissibility_audit(A, form, pairs)
    checks = [{
        "name": "weak-trace-admissibility",
        "passed": audit.passed,
        "detail": {
            "checked_pairs": audit.checked_pairs,
            "nilpotent_products": audit.nilpotent_products,
            "violations": [
                [io.element_to_json(x), io.element_to_json(y)] for x, y in audit.violations
            ],
        },
    }]
    return _report("audit-trace", checks)


# -- parser ------------------------------------------------------------------


# Built at the first main call, not at import, and shared by every later call:
# parsing never writes to the parser (each parse gets a fresh namespace, and
# append options a fresh list), and handlers read the environment themselves.
@functools.cache
def _build_parser():
    p = argparse.ArgumentParser(prog="axial", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, algebra=True, lam=False, form=False):
        sp.add_argument("--json", action="store_true", help="machine-readable report")
        if algebra:
            sp.add_argument("--algebra", required=True, help="algebra JSON file")
        if lam:
            sp.add_argument("--lambda", dest="lam", help="axis eigenvalue (scalar text)")
        if form:
            sp.add_argument("--form", help="bilinear form JSON file")

    sp = sub.add_parser("construct", help="emit a built-in algebra as JSON")
    sp.add_argument("kind", choices=["toric", "two-gen", "matsuo", "jordan-sym"])
    sp.add_argument("--lambda", dest="lam")
    sp.add_argument("--pi")
    sp.add_argument("--lines", help='e.g. "a,b,c;b,d,e"')
    sp.add_argument("--k", type=int)
    sp.add_argument("--field", help='field JSON, e.g. {"kind":"Fp","p":7}')
    sp.add_argument("--flat-annihilating", action="store_true")
    sp.add_argument("-o", "--output")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(handler=_cmd_construct)

    sp = sub.add_parser("check-axis", help="full axis certification")
    common(sp, lam=True)
    sp.add_argument("--element", required=True)
    sp.set_defaults(handler=_cmd_check_axis)

    sp = sub.add_parser("fusion", help="fusion-rule verdicts for an idempotent")
    common(sp, lam=True)
    sp.add_argument("--element", required=True)
    sp.set_defaults(handler=_cmd_fusion)

    sp = sub.add_parser("frobenius", help="solve for symmetric associative forms")
    common(sp)
    sp.add_argument("--normalize", action="append", help="ELEMENT_JSON=SCALAR (repeatable)")
    sp.set_defaults(handler=_cmd_frobenius)

    sp = sub.add_parser("radical", help="radical of a form; passes when zero")
    common(sp, form=True)
    sp.set_defaults(handler=_cmd_radical)

    sp = sub.add_parser("identity", help="check a catalog or ad-hoc identity")
    common(sp, lam=True, form=True)
    sp.add_argument("--name", choices=list(BUILTIN_NAMES))
    sp.add_argument("--poly", help="identity text in the polynomial grammar")
    sp.add_argument("--pool", action="append", help="idempotent ELEMENT_JSON (repeatable)")
    sp.add_argument("--distinct-slots", action="store_true",
                    help="quantify E-slots over distinct pool members")
    sp.set_defaults(handler=_cmd_identity)

    sp = sub.add_parser("miyamoto", help="Miyamoto involution of an axis")
    common(sp, lam=True)
    sp.add_argument("--element", required=True)
    sp.set_defaults(handler=_cmd_miyamoto)

    sp = sub.add_parser("solid", help="solidity audit of <<a, b>>")
    common(sp, lam=True, form=True)
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--eps", help="comma-separated family parameters to sample")
    sp.set_defaults(handler=_cmd_solid)

    sp = sub.add_parser("orbit", help="Miyamoto closure of a set of axes")
    common(sp, lam=True)
    sp.add_argument("--axis", action="append", required=True, help="ELEMENT_JSON (repeatable)")
    sp.add_argument("--max-size", type=int, help="cap, at least 1 (default AXIAL_MAX_ORBIT or 1000)")
    sp.set_defaults(handler=_cmd_orbit)

    sp = sub.add_parser("audit-trace", help="weak trace-admissibility audit")
    common(sp, form=True)
    sp.add_argument("--pairs", action="append", help="ELEMENT_JSON|ELEMENT_JSON (repeatable)")
    sp.set_defaults(handler=_cmd_audit_trace)

    return p


if __name__ == "__main__":
    sys.exit(main())
