"""Output checks: each raises ``Mismatch`` when a job's result differs from
the expected answer.  Expected values come from ``expected.json`` (built by
``oracle.py``) or from closed-form rules of the paper stated here."""

from __future__ import annotations

import json
from fractions import Fraction


class Mismatch(Exception):
    """A job returned a verdict, witness or Gram matrix other than expected."""


def expect(cond, message):
    if not cond:
        raise Mismatch(message)


def scalar(field, text):
    """An expected value stored as a rational literal, mapped into field."""
    return field.from_fraction(Fraction(text))


def matsuo_gram(form, points, collinear, lam):
    """Normal form of a Matsuo algebra: 1 on the diagonal, lam/2 on collinear
    pairs and 0 on the others, in the basis order of ``points``."""
    field = form.algebra.field
    half_lam = lam / field.from_int(2)
    g = form.gram.rows
    for i, p in enumerate(points):
        for j, q in enumerate(points):
            want = field.one if i == j else (half_lam if collinear(p, q) else field.zero)
            expect(g[i][j] == want, f"Gram ({p},{q}) is {field.format(g[i][j])}, want {field.format(want)}")


def trace_gram(form):
    """tr(x o y) on the basis E_ii, F_ij = E_ij + E_ji: 1 on E_ii, 2 on F_ij."""
    field = form.algebra.field
    names = form.algebra.basis_names
    g = form.gram.rows
    for i, p in enumerate(names):
        for j in range(len(names)):
            want = field.zero if i != j else field.from_int(1 if p.startswith("E") else 2)
            expect(g[i][j] == want, f"trace Gram ({p},{names[j]}) is {field.format(g[i][j])}")


def determinant(form, text):
    field = form.algebra.field
    det = form.gram.det()
    expect(det == scalar(field, text), f"Gram determinant {field.format(det)} != {text}")


def identity_verdict(verdict, holds, f, A, form, evaluate):
    """Compare a verdict; a 'fails' verdict must carry a witness on which
    ``evaluate`` (the engine's evaluator, re-run) gives a nonzero element."""
    expect(verdict.holds == holds, f"verdict holds={verdict.holds}, want {holds}")
    if holds:
        return
    w = verdict.witness
    expect(w is not None, "failing verdict without a witness")
    val = evaluate(f, w["x"], w["e"], form=form, algebra=A)
    expect(not val.is_zero(), "witness evaluates to zero")


def components(a, y, comps, eigenvalues):
    """y = y1 + y0 + sum y_mu, with each part in its eigenspace of L_a."""
    total = comps.y1 + comps.y0
    for mu in eigenvalues:
        total = total + comps.part(mu)
    expect(total == y, "components do not sum to y")
    expect(a * comps.y1 == comps.y1, "y1 is not in the 1-eigenspace")
    expect((a * comps.y0).is_zero(), "y0 is not in the 0-eigenspace")
    for mu in eigenvalues:
        expect(a * comps.part(mu) == mu * comps.part(mu), "a y_mu != mu y_mu")


def axis_report(rep, spectrum):
    """A primitive axis of Jordan type with the given in-field spectrum."""
    field = rep.element.algebra.field
    got = sorted(field.format(m) for m in rep.spectrum)
    expect(got == sorted(spectrum), f"spectrum {got}, want {sorted(spectrum)}")
    expect(rep.is_primitive_jordan_axis, "not a primitive axis of Jordan type")
    expect(rep.miyamoto_is_automorphism, "Miyamoto map is not an automorphism")


def point_involution(tau, axes, points, third):
    """tau_p fixes p and the points off its lines and swaps q, r on each line."""
    p = points[axes.index(tau.axis)]
    for q, x in zip(points, axes):
        r = third(p, q)
        want = axes[points.index(r)] if r is not None else x
        expect(tau.apply(x) == want, f"tau_{p}({q}) is not the third-point image")
    expect(tau.is_automorphism, "Miyamoto map is not an automorphism")


def idempotents(elems, count):
    keys = {e.coeffs for e in elems}
    expect(len(keys) == len(elems), "enumeration repeats an idempotent")
    expect(all(e * e == e for e in elems), "enumerated element is not idempotent")
    expect(len(elems) == count, f"{len(elems)} idempotents, want {count}")


def cli_report(out, code):
    """The JSON report of a CLI call that exited 0."""
    expect(code == 0, f"exit code {code}, want 0")
    return json.loads(out)
