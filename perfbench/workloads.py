"""The workloads: seeded inputs and the job list each one runs.

``BENCHMARK.json`` runs all four workloads.

A job is one call (or a short fixed sequence of calls) into the public
``axial`` API; its output is checked against an expected answer after its
latency is taken.  The seed drives basis permutations (point order of the
Matsuo geometries), toric ``eps`` values and idempotent-pool order; no
verdict depends on them.  Every function is looked up on its module at call
time, so traced runs see the wrapped names.

Traced runs append the same small smoke group to every workload; it touches
each traced layer once, so that every per-layer metric is measured on every
workload.
"""

from __future__ import annotations

import contextlib
import io as _io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable

import checks as ck
from checks import expect

HALF = Fraction(1, 2)
ROOT_SCAN_LIMIT = 1 << 20  # above it PrimeField.poly_roots raises NotImplementedError
PRIMES = (7, 101, 10007, 65521, 2**31 - 1)


@dataclass
class Job:
    id: str
    run: Callable[[], object]
    check: Callable[[object], None]
    # May raise NotImplementedError: the prime field exceeds the root-scan
    # limit.  Such a job counts as declined, not answered and not failed.
    declinable: bool = False


# ---------------------------------------------------------------------------
# geometries and directly built inputs
# ---------------------------------------------------------------------------


def _c3():
    return ["a", "b", "c"], [["a", "b", "c"]]


def _s_n(n):
    points = [f"t{i}{j}" for i, j in combinations(range(1, n + 1), 2)]
    lines = [[f"t{i}{j}", f"t{j}{k}", f"t{i}{k}"] for i, j, k in combinations(range(1, n + 1), 3)]
    return points, lines


def _ag23():
    pts = [(x, y) for x in range(3) for y in range(3)]
    lines = {frozenset((p, q, ((-p[0] - q[0]) % 3, (-p[1] - q[1]) % 3))) for p, q in combinations(pts, 2)}
    name = "p{}{}".format
    return [name(*p) for p in pts], [[name(*p) for p in sorted(line)] for line in sorted(lines, key=sorted)]


SYSTEMS = {"3C": _c3, "S4": lambda: _s_n(4), "S5": lambda: _s_n(5), "AG23": _ag23}


class Geometry:
    """A partial triple system with seeded point and line order."""

    def __init__(self, kind, rng):
        points, lines = SYSTEMS[kind]()
        self.points = list(points)
        if rng is not None:
            rng.shuffle(self.points)
            lines = [rng.sample(line, 3) for line in lines]
            rng.shuffle(lines)
        self.lines = [list(line) for line in lines]
        self._third = {}
        for line in lines:
            for p, q in combinations(line, 2):
                (r,) = set(line) - {p, q}
                self._third[(p, q)] = self._third[(q, p)] = r

    def third(self, p, q):
        return self._third.get((p, q))

    def collinear(self, p, q):
        return (p, q) in self._third


def matsuo_input(ax, geom, lam, field):
    """The Matsuo algebra and its normal form, built from the defining rule
    (p^2 = p, pq = lam/2 (p + q - r) on lines, 0 off lines)."""
    n = len(geom.points)
    index = {p: i for i, p in enumerate(geom.points)}
    half_lam = lam / field.from_int(2)
    zero, one = field.zero, field.one
    st = []
    gram = []
    for p in geom.points:
        row, grow = [], []
        for q in geom.points:
            v = [zero] * n
            if p == q:
                v[index[p]] = one
                grow.append(one)
            elif geom.collinear(p, q):
                v[index[p]] = v[index[q]] = half_lam
                v[index[geom.third(p, q)]] = -half_lam
                grow.append(half_lam)
            else:
                grow.append(zero)
            row.append(v)
        st.append(row)
        gram.append(grow)
    A = ax.Algebra(field, geom.points, st)
    return A, A.basis(), ax.BilinearForm(A, gram)


def jordan_input(ax, k):
    """H_k with its diagonal idempotents and the trace form from its rule."""
    A = ax.jordan_symmetric_matrices(k)
    field = A.field
    gram = [[field.zero] * A.dim for _ in range(A.dim)]
    for i, name in enumerate(A.basis_names):
        gram[i][i] = field.from_int(1 if name.startswith("E") else 2)
    diag = [A.basis_element(i) for i, name in enumerate(A.basis_names) if name.startswith("E")]
    return A, diag, ax.BilinearForm(A, gram)


def two_gen_input(ax, lam, pi, field):
    """The (a, b, sigma) presentation with an arbitrary pair value, built from
    its structure constants; the generators need not be axes."""
    zero, one = field.zero, field.one
    gamma = (one - lam) * pi - lam
    st = [[None] * 3 for _ in range(3)]
    st[0][0], st[1][1] = (one, zero, zero), (zero, one, zero)
    st[0][1] = st[1][0] = (lam, lam, one)
    st[0][2] = st[2][0] = (gamma, zero, zero)
    st[1][2] = st[2][1] = (zero, gamma, zero)
    st[2][2] = (zero, zero, gamma)
    A = ax.make_algebra(field, 3, ["a", "b", "s"], st)
    return A, A.basis_element(0), A.basis_element(1)


EPS_MAGNITUDES = (Fraction(2), Fraction(3), Fraction(1, 2), Fraction(1, 3), Fraction(3, 2), Fraction(2, 3),
                  Fraction(4, 3), Fraction(3, 4))


def seeded_eps(rng, count):
    """Toric parameters of fixed magnitudes (so the work does not depend on
    the seed) and seeded signs.  The magnitudes differ, so no two toric
    idempotents built from them form a flat pair."""
    return [rng.choice((-1, 1)) * m for m in EPS_MAGNITUDES[:count]]


def run_cli(ax, argv):
    """One in-process ``axial`` CLI call; returns (exit code, stdout text)."""
    out, err = _io.StringIO(), _io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ax.cli.main(argv)
    return code, out.getvalue()


def _el(x):
    return json.dumps(x.format())


def _write(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


# ---------------------------------------------------------------------------
# smoke group (traced runs of every workload)
# ---------------------------------------------------------------------------


def smoke(ax, exp, work):
    QQ = ax.QQ
    geom = Geometry("3C", None)
    A, axes, form = matsuo_input(ax, geom, HALF, QQ)
    c3_file = os.path.join(work, "smoke_3c.json")
    ax.io.save_algebra(A, c3_file)
    out_file = os.path.join(work, "smoke_construct.json")
    jordan = "((x1*x1)*x2)*x1 - (x1*x1)*(x2*x1)"
    quarter, eighth = Fraction(1, 4), Fraction(1, 8)
    solid_want = exp["solid:two-gen@1/4,1/8"]

    def construct_check(out):
        code, text = out
        rep = ck.cli_report(text, code)
        expect(rep["passed"], "construct report failed")
        B = ax.io.load_algebra(out_file)
        expect(B.dim == 3, "constructed 3C has the wrong dimension")

    def orbit_check(out):
        rep = ck.cli_report(out[1], out[0])
        expect(rep["checks"][0]["detail"].get("size") == 3, "3C orbit is not the three points")

    family_want = exp["solid:two-gen@1/2,1/8"]
    Fp = ax.PrimeField(65521)
    fp_half = Fp.from_fraction(HALF)
    fp_axis = ax.toric_euf(Fp).idempotent(Fp.from_int(3))

    def solid(lam):
        tg = ax.universal_2gen(lam, eighth)
        return ax.solid_audit(tg.algebra, tg.axes[0], tg.axes[1], tg.form, lam, sample_eps=[1])

    def solid_check(rep, want):
        expect(rep.verdict == want["verdict"], f"verdict {rep.verdict}")
        expect(rep.pair_class.kind == want["kind"], f"pair kind {rep.pair_class.kind}")

    def identity():
        f = ax.parse_poly(jordan, QQ)
        return f, ax.holds_as_identity(f, A)

    def jordan_check(B):
        expect(B.dim == 3 and B.unit() is not None, "H_2 lost its unit")

    return [
        Job("smoke:cli-construct-3C", lambda: run_cli(ax, [
            "construct", "matsuo", "--lines", "a,b,c", "--lambda", "1/2", "-o", out_file, "--json"]),
            construct_check),
        Job("smoke:cli-orbit-3C", lambda: run_cli(ax, [
            "orbit", "--algebra", c3_file, "--lambda", "1/2", "--axis", _el(axes[0]),
            "--axis", _el(axes[1]), "--max-size", "50", "--json"]), orbit_check),
        Job("smoke:solid-two-gen@1/4", lambda: solid(quarter), lambda rep: solid_check(rep, solid_want)),
        Job("smoke:solid-two-gen@1/2", lambda: solid(HALF), lambda rep: solid_check(rep, family_want)),
        Job("smoke:check-axis-toric/F65521", lambda: ax.check_axis(fp_axis, fp_half),
            lambda rep: ck.axis_report(rep, ["0", "1", Fp.format(fp_half)])),
        Job("smoke:seress-3C", lambda: ax.seress_check(axes[0], HALF), lambda ok: expect(ok, "Seress rule fails")),
        Job("smoke:poly-jordan-3C", identity,
            lambda out: ck.identity_verdict(out[1], True, out[0], A, None, ax.evaluate)),
        Job("smoke:jordan-H2", lambda: ax.jordan_symmetric_matrices(2), jordan_check),
        Job("smoke:radical-3C", lambda: ax.radical(form), lambda rad: expect(rad == [], "3C form is degenerate")),
    ]


# ---------------------------------------------------------------------------
# matsuo_ladder
# ---------------------------------------------------------------------------

LADDER = (("3C", HALF), ("S4", HALF), ("S4", Fraction(1, 4)), ("S4", Fraction(-1, 2)),
          ("AG23", HALF), ("S5", HALF))


def _matsuo_build_job(ax, exp, geom, kind, lam, field, tag=""):
    det = exp[f"det:{kind}@{lam}"]
    flam = field.from_fraction(lam)

    def check(ma):
        expect(ma.algebra.basis_names == geom.points, "basis is not the point list")
        ck.matsuo_gram(ma.form, geom.points, geom.collinear, flam)
        ck.determinant(ma.form, det)
        expect(ma.axes == ma.algebra.basis(), "axes are not the points")

    return Job(f"build:{kind}@{lam}{tag}", lambda: ax.matsuo_from_triple_system(
        (geom.points, geom.lines), flam, field), check,
        declinable=getattr(field, "p", 0) > ROOT_SCAN_LIMIT)


def _analysis_jobs(ax, exp, key, A, axes, form, lam):
    field = A.field
    n = A.dim
    rad_dim = exp[f"radical_dim:{key}"]
    axrad_dim = exp[f"axial_radical_dim:{key}"]
    nil = exp[f"nilpotent_products:{key}"]
    dims = exp[f"subalgebra_dims:{key}"]

    def radical_check(rad):
        expect(len(rad) == rad_dim, f"radical dim {len(rad)}, want {rad_dim}")
        expect(all(not any(form.gram.apply(list(r.coeffs))) for r in rad), "radical vector outside the kernel")

    def axrad_check(vecs):
        expect(len(vecs) == axrad_dim, f"axial radical dim {len(vecs)}, want {axrad_dim}")
        expect(all(a * v == lam * v for v in vecs for a in axes), "axial radical vector is no lam-eigenvector")

    def audit_check(rep):
        expect(rep.passed, "weak trace-admissibility fails")
        expect(rep.checked_pairs == n * (n + 1) // 2, "audit skipped basis pairs")
        expect(rep.nilpotent_products == nil, f"{rep.nilpotent_products} nilpotent products, want {nil}")

    def pairs():
        return [ax.generate_subalgebra([a, b]) for a, b in combinations(axes, 2)]

    def pairs_check(subs):
        got = {}
        for s in subs:
            got[str(s.dim)] = got.get(str(s.dim), 0) + 1
        expect(got == dims, f"subalgebra dimensions {got}, want {dims}")

    return [
        Job(f"radical:{key}", lambda: ax.radical(form), radical_check),
        Job(f"axial_radical:{key}", lambda: ax.axial_radical(A, axes, lam), axrad_check),
        Job(f"trace_audit:{key}", lambda: ax.trace_admissibility_audit(A, form), audit_check),
        Job(f"subalgebras:{key}", pairs, pairs_check),
    ]


def matsuo_ladder(ax, rng, exp, work):
    QQ = ax.QQ
    jobs, analyses, one_norm = [], [], []
    for kind, lam in LADDER:
        geom = Geometry(kind, rng)
        jobs.append(_matsuo_build_job(ax, exp, geom, kind, lam, QQ))
        A, axes, form = matsuo_input(ax, geom, lam, QQ)
        key = f"{kind}@{lam}"
        analyses += _analysis_jobs(ax, exp, key, A, axes, form, lam)
        if kind in ("S4", "AG23") and lam == HALF:
            one_norm.append((key, geom, A, axes, lam))
    for k in (3, 4):
        det = exp[f"det:H{k}"]

        def build(k=k):
            B = ax.jordan_symmetric_matrices(k)
            return ax.trace_form(B)

        def check(tf, det=det):
            ck.trace_gram(tf)
            ck.determinant(tf, det)

        jobs.append(Job(f"build:H{k}", build, check))
        A, diag, form = jordan_input(ax, k)
        analyses += _analysis_jobs(ax, exp, f"H{k}", A, diag, form, HALF)
    for key, geom, A, axes, lam in one_norm:
        fam = exp[f"one_norm_family_dim:{key}"]

        def check(sol, geom=geom, lam=lam, fam=fam):
            expect(sol.particular is not None, "one-normalization system is inconsistent")
            expect(len(sol.homogeneous_basis) == fam, f"family dim {len(sol.homogeneous_basis)}, want {fam}")
            ck.matsuo_gram(sol.particular, geom.points, geom.collinear, lam)

        jobs.append(Job(f"one_norm:{key}", lambda A=A, axes=axes: ax.solve_frobenius(A, [(axes[0], QQ.one)]),
                        check))
    return jobs + analyses


# ---------------------------------------------------------------------------
# identity_catalog
# ---------------------------------------------------------------------------

ADHOC = (
    ("3C", "(x1*x2)*x3 - x1*(x2*x3)"),
    ("toric", "(x1*x1)*(x1*x1) - x1*(x1*(x1*x1))"),
    ("two-gen", "((x1*x1)*x2)*x1 - (x1*x1)*(x2*x1)"),
    ("H3", "lam*(E1*x1) + (1-lam)*B(E1,x1)*E1 - E1*(E1*x1)"),
    ("S4", "E1*(E1*x1) - E1*x1"),
)
MATSUO_ONLY = ("matsuoPairA", "matsuoPairB", "matsuoCriterion")


def catalog_corpus(ax, rng):
    """(name, algebra, idempotent pool, form) with seeded pools and bases."""
    QQ = ax.QQ
    out = []
    A, axes, form = matsuo_input(ax, Geometry("3C", rng), HALF, QQ)
    out.append(("3C", A, rng.sample(axes, len(axes)), form))
    tor = ax.toric_euf()
    out.append(("toric", tor.algebra, [tor.idempotent(e) for e in seeded_eps(rng, 5)], tor.form))
    tg = ax.universal_2gen(HALF, Fraction(1, 8))
    out.append(("two-gen", tg.algebra, rng.sample(list(tg.axes), 2), tg.form))
    A, diag, form = jordan_input(ax, 3)
    pool = diag + [A.element([HALF, HALF, 0, HALF, 0, 0])]
    out.append(("H3", A, rng.sample(pool, len(pool)), form))
    A, axes, form = matsuo_input(ax, Geometry("S4", rng), HALF, QQ)
    out.append(("S4", A, rng.sample(axes, len(axes)), form))
    return out


def _identity_job(ax, job_id, make, A, pool, form, holds, distinct):
    def run():
        f = make()
        return f, ax.holds_as_identity(f, A, idempotent_pool=pool, form=form, distinct_slots=distinct)

    return Job(job_id, run, lambda out: ck.identity_verdict(out[1], holds, out[0], A, form, ax.evaluate))


def identity_catalog(ax, rng, exp, work):
    QQ = ax.QQ
    jobs = []
    corpus = catalog_corpus(ax, rng)
    for name, A, pool, form in corpus:
        for ident in ax.BUILTIN_NAMES:
            f = ax.builtin_identity(ident, QQ, HALF)
            jobs.append(_identity_job(ax, f"identity:{name}:{ident}", lambda f=f: f, A, pool, form,
                                      exp[f"identity:{name}:{ident}"], ident in MATSUO_ONLY))
    by_name = {c[0]: c for c in corpus}
    for name, text in ADHOC:
        _n, A, pool, form = by_name[name]
        jobs.append(_identity_job(ax, f"poly:{name}:{text}", lambda text=text: ax.parse_poly(text, QQ, lam=HALF),
                                  A, pool, form, exp[f"poly:{name}:{text}"], False))
    return jobs


# ---------------------------------------------------------------------------
# axis_audit
# ---------------------------------------------------------------------------

SOLID_PI = (Fraction(0), Fraction(1, 8), Fraction(1), Fraction(2))


def direct_sum(ax, A, B):
    """Block-diagonal direct sum, so the sum of two axes has |S| = 2."""
    n, m = A.dim, B.dim
    zero = A.field.zero

    def cell(i, j):
        out = [zero] * (n + m)
        if i < n and j < n:
            out[:n] = A.structure[i][j]
        elif i >= n and j >= n:
            out[n:] = B.structure[i - n][j - n]
        return out

    names = [f"L.{s}" for s in A.basis_names] + [f"R.{s}" for s in B.basis_names]
    return ax.Algebra(A.field, names, [[cell(i, j) for j in range(n + m)] for i in range(n + m)])


def _axis_jobs(ax, tag, a, lam, spectrum, basis, involution_check):
    return [
        Job(f"check_axis:{tag}", lambda: ax.check_axis(a, lam), lambda rep: ck.axis_report(rep, spectrum)),
        Job(f"miyamoto:{tag}", lambda: ax.miyamoto(a, lam), involution_check),
        Job(f"seress:{tag}", lambda: ax.seress_check(a, lam), lambda ok: expect(ok, "Seress rule fails")),
        Job(f"components:{tag}", lambda: [ax.component_recovery(a, y, [lam]) for y in basis],
            lambda comps: [ck.components(a, y, c, [lam]) for y, c in zip(basis, comps)]),
    ]


def _toric_involution(tau):
    expect(tau.is_automorphism, "Miyamoto map is not an automorphism")
    basis = tau.axis.algebra.basis()
    expect(all(tau.apply(tau.apply(y)) == y for y in basis), "tau^2 != 1")


def axis_audit(ax, rng, exp, work):
    QQ = ax.QQ
    jobs = []
    tor = ax.toric_euf()
    eps = seeded_eps(rng, 8)
    spectrum = exp["spectrum:half-axis"]
    for e in eps[:6]:
        jobs += _axis_jobs(ax, f"toric@eps={e}", tor.idempotent(e), HALF, spectrum, tor.algebra.basis(),
                           _toric_involution)
    geom = Geometry("S4", rng)
    A4, axes4, _ = matsuo_input(ax, geom, HALF, QQ)
    for p, a in zip(geom.points, axes4):
        jobs += _axis_jobs(ax, f"S4:{p}", a, HALF, spectrum, A4.basis(),
                           lambda tau: ck.point_involution(tau, axes4, geom.points, geom.third))

    # |S| = 2: a 3C(1/2) axis plus a 3C(lam2) axis in the direct sum
    for lam2 in (Fraction(1, 3), Fraction(1, 4)):
        L, _, _ = matsuo_input(ax, Geometry("3C", rng), HALF, QQ)
        R, _, _ = matsuo_input(ax, Geometry("3C", rng), lam2, QQ)
        D = direct_sum(ax, L, R)
        a = D.element([1, 0, 0, 1, 0, 0])
        S = [HALF, lam2]
        jobs.append(Job(f"vandermonde:3C(1/2)+3C({lam2})",
                        lambda a=a, D=D, S=S: [ax.component_recovery(a, y, S) for y in D.basis()],
                        lambda comps, a=a, D=D, S=S: [ck.components(a, y, c, S)
                                                      for y, c in zip(D.basis(), comps)]))

    samples = eps[6:8] + [Fraction(1)]
    for i, (e1, e2) in enumerate(((eps[0], eps[1]), (eps[2], eps[3]))):
        want = exp["solid:toric"]
        jobs.append(Job(f"solid:toric#{i}",
                        lambda e1=e1, e2=e2: ax.solid_audit(tor.algebra, tor.idempotent(e1), tor.idempotent(e2),
                                                            tor.form, HALF, sample_eps=samples),
                        lambda rep, want=want: _solid_check(rep, want)))
    for pi in SOLID_PI:
        tg = ax.universal_2gen(HALF, pi)
        want = exp[f"solid:two-gen@1/2,{pi}"]
        gens = rng.sample(list(tg.axes), 2)
        jobs.append(Job(f"solid:two-gen@{pi}",
                        lambda tg=tg, gens=gens: ax.solid_audit(tg.algebra, gens[0], gens[1], tg.form, HALF,
                                                                sample_eps=samples),
                        lambda rep, want=want: _solid_check(rep, want)))

    c3 = Geometry("3C", rng)
    A3, axes3, _ = matsuo_input(ax, c3, HALF, QQ)
    collinear = next((a, b) for (p, a), (q, b) in combinations(zip(geom.points, axes4), 2) if geom.collinear(p, q))
    apart = next((a, b) for (p, a), (q, b) in combinations(zip(geom.points, axes4), 2) if not geom.collinear(p, q))
    tg_half = ax.universal_2gen(HALF, HALF)
    tg_two = ax.universal_2gen(HALF, Fraction(2))
    orbits = (
        ("3C", axes3[:2]),
        ("S4-collinear", list(collinear)),
        ("S4-orthogonal", list(apart)),
        ("two-gen@1/2", list(tg_half.axes)),
        ("toric", [tor.idempotent(eps[4]), tor.idempotent(eps[5])]),
        ("two-gen@2", list(tg_two.axes)),
    )
    for name, gens in orbits:
        want = exp[f"orbit:{name}"]
        jobs.append(Job(f"orbit:{name}", lambda gens=gens: _orbit(ax, gens),
                        lambda got, want=want: expect(got == want, f"orbit {got}, want {want}")))

    jobs += _cli_jobs(ax, exp, work, tor, eps, c3, A3, axes3)
    return jobs


def _solid_check(rep, want):
    expect(rep.verdict == want["verdict"], f"verdict {rep.verdict}, want {want['verdict']}")
    expect(rep.pair_class.kind == want["kind"], f"pair kind {rep.pair_class.kind}")
    expect(rep.symbolic_report is not None, "symbolic family was not checked")


def _orbit(ax, gens):
    try:
        return len(ax.axis_orbit(gens, HALF, max_size=50))
    except ax.errors.OrbitOverflow as exc:
        return f"overflow:{len(exc.partial)}"


def _cli_jobs(ax, exp, work, tor, eps, c3, A3, axes3):
    toric_file = os.path.join(work, "toric.json")
    ax.io.save_algebra(tor.algebra, toric_file)
    tform_file = _write(os.path.join(work, "toric_form.json"), ax.io.form_to_json(tor.form))
    c3_file = os.path.join(work, "c3.json")
    ax.io.save_algebra(A3, c3_file)
    H3, _diag, _hform = jordan_input(ax, 3)
    h3_file = os.path.join(work, "h3.json")
    ax.io.save_algebra(H3, h3_file)
    tg_file = os.path.join(work, "tg.json")
    x = tor.idempotent(eps[6])
    a, b = tor.idempotent(eps[0]), tor.idempotent(eps[1])
    p, q = axes3[0], axes3[1]
    norm = [arg for v in axes3 for arg in ("--normalize", f"{_el(v)}=1")]
    c3_det = exp["det:3C@1/2"]
    toric_det = exp["det:toric"]
    toric_nil = exp["nilpotent_products:toric"]

    def passed(detail=None):
        def check(out):
            rep = ck.cli_report(out[1], out[0])
            expect(rep["passed"], f"{rep['command']} report failed")
            if detail:
                detail(rep)
        return check

    def construct_detail(rep):
        expect(ax.io.load_algebra(tg_file).dim == 3, "constructed two-gen has the wrong dimension")

    def fusion_detail(rep):
        expect(rep["eigenspace_dims"] == {"0": 1, "1": 1, "1/2": 1}, f"eigenspaces {rep['eigenspace_dims']}")

    def frobenius_detail(rep):
        expect(rep["family_dim"] == 0 and rep["radical_dim"] == 0, "3C normal form not unique or degenerate")
        expect(rep["gram_det"] == c3_det, f"3C det {rep['gram_det']}")

    def radical_detail(rep):
        expect(rep["radical_basis"] == [] and rep["gram_det"] == toric_det, "toric form radical or det")

    def miyamoto_detail(rep):
        r = c3.third(c3.points[0], c3.points[1])
        i, j, k = 0, 1, c3.points.index(r)
        m = rep["matrix"]
        expect(m[i][i] == "1" and m[k][j] == "1" and m[j][k] == "1", "tau does not swap the other two points")

    def solid_detail(rep):
        expect(rep["verdict"] == "solid" and rep["symbolic_family_checked"], f"toric verdict {rep['verdict']}")

    def orbit_detail(rep):
        expect(rep["checks"][0]["detail"]["size"] == 3, "3C orbit is not the three points")

    def audit_detail(rep):
        expect(rep["checks"][0]["detail"]["nilpotent_products"] == toric_nil, "nilpotent product count")

    calls = (
        ("construct", ["construct", "two-gen", "--lambda", "1/2", "--pi", "1/8", "-o", tg_file], construct_detail),
        ("check-axis", ["check-axis", "--algebra", toric_file, "--element", _el(x), "--lambda", "1/2"], None),
        ("fusion", ["fusion", "--algebra", c3_file, "--element", _el(p), "--lambda", "1/2"], fusion_detail),
        ("frobenius", ["frobenius", "--algebra", c3_file] + norm, frobenius_detail),
        ("radical", ["radical", "--algebra", toric_file, "--form", tform_file], radical_detail),
        ("identity", ["identity", "--name", "jordan", "--algebra", h3_file], None),
        ("miyamoto", ["miyamoto", "--algebra", c3_file, "--element", _el(p), "--lambda", "1/2"], miyamoto_detail),
        ("solid", ["solid", "--algebra", toric_file, "--form", tform_file, "--lambda", "1/2", "--a", _el(a),
                   "--b", _el(b), "--eps", "1,2,3"], solid_detail),
        ("orbit", ["orbit", "--algebra", c3_file, "--lambda", "1/2", "--axis", _el(p), "--axis", _el(q),
                   "--max-size", "50"], orbit_detail),
        ("audit-trace", ["audit-trace", "--algebra", toric_file, "--form", tform_file], audit_detail),
    )
    return [Job(f"cli:{name}", lambda argv=argv: run_cli(ax, argv + ["--json"]), passed(detail))
            for name, argv, detail in calls]


# ---------------------------------------------------------------------------
# prime_field
# ---------------------------------------------------------------------------

PRIME_IDENTITIES = ("ax1", "primitivityFrobenius", "matsuoCriterion", "seress")
S5_PRIMES = (7, 65521, 2**31 - 1)
JORDAN_PRIMES = (7, 2**31 - 1)


def nonsquare_gamma(lam, p):
    """Least positive integer gamma with (1 + 2 lam)^2 + 8 gamma a non-square
    mod p (Euler's criterion), so PrimeField.sqrt has no root to find."""
    w = (1 + 2 * lam.numerator * pow(lam.denominator, -1, p)) % p
    g = 1
    while pow((w * w + 8 * g) % p, (p - 1) // 2, p) != p - 1:
        g += 1
    return g


def prime_field(ax, rng, exp, work):
    jobs = []
    for p in PRIMES:
        K = ax.PrimeField(p)
        tag = f"/F{p}"
        big = p > ROOT_SCAN_LIMIT
        half = K.from_fraction(HALF)
        geom4 = Geometry("S4", rng)
        jobs.append(_matsuo_build_job(ax, exp, geom4, "S4", HALF, K, tag))
        if p in S5_PRIMES:
            jobs.append(_matsuo_build_job(ax, exp, Geometry("S5", rng), "S5", HALF, K, tag))

        tor = ax.toric_euf(K)
        spectrum = ["0", "1", K.format(half)]
        for e in seeded_eps(rng, 2):
            x = tor.idempotent(K.from_fraction(e))
            jobs.append(Job(f"check_axis:toric@eps={e}{tag}", lambda x=x, half=half: ax.check_axis(x, half),
                            lambda rep, spectrum=spectrum: ck.axis_report(rep, spectrum), declinable=big))

        def two_gen_check(tg, K=K):
            expect(tg.pi == K.from_fraction(Fraction(1, 8)), "two-gen pair value")
            expect(tg.gamma == K.from_fraction(Fraction(-7, 16)), "two-gen gamma")

        jobs.append(Job(f"build:two-gen@1/2,1/8{tag}",
                        lambda K=K, half=half: ax.universal_2gen(half, K.from_fraction(Fraction(1, 8)), K),
                        two_gen_check, declinable=big))

        quarter = K.from_fraction(Fraction(1, 4))

        def enum_axes(K=K, quarter=quarter):
            tg = ax.universal_2gen(quarter, K.from_fraction(Fraction(1, 8)), K)
            return ax.enumerate_idempotents_2gen(ax.generate_subalgebra(list(tg.axes)), lam=quarter)

        count = exp[f"idempotents:two-gen@1/4,1/8{tag}"]
        jobs.append(Job(f"idempotents:two-gen@1/4,1/8{tag}", enum_axes,
                        lambda en, count=count: ck.idempotents(en.finite, count), declinable=big))
        if not big:
            # a pair value whose discriminant is a non-square: sqrt scans all of F_p
            g = nonsquare_gamma(Fraction(1, 4), p)
            pi = (K.from_int(g) + quarter) / (K.one - quarter)
            A, a, b = two_gen_input(ax, quarter, pi, K)
            count = exp[f"idempotents:nonsquare@1/4{tag}"]
            jobs.append(Job(f"idempotents:nonsquare@1/4{tag}",
                            lambda a=a, b=b, quarter=quarter: ax.enumerate_idempotents_2gen(
                                ax.generate_subalgebra([a, b]), lam=quarter),
                            lambda en, count=count: ck.idempotents(en.finite, count)))

        A, axes, form = matsuo_input(ax, Geometry("S4", rng), half, K)
        pool = rng.sample(axes, len(axes))
        names = PRIME_IDENTITIES + (("jordan",) if p in JORDAN_PRIMES else ())
        for ident in names:
            f = ax.builtin_identity(ident, K, half)
            jobs.append(_identity_job(ax, f"identity:S4:{ident}{tag}", lambda f=f: f, A, pool, form,
                                      exp[f"identity:S4@F{p}:{ident}"], ident in MATSUO_ONLY))
    return jobs


WORKLOADS = {
    "matsuo_ladder": matsuo_ladder,
    "identity_catalog": identity_catalog,
    "axis_audit": axis_audit,
    "prime_field": prime_field,
}


def build(ax, name, seed, exp, work):
    """Seeded job list of one workload."""
    return WORKLOADS[name](ax, random.Random(f"{name}:{seed}"), exp, work)
