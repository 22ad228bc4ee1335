"""Rebuild ``expected.json``: the expected answer of every benchmark job.

    python3 perfbench/oracle.py            # rewrite expected.json
    python3 perfbench/oracle.py --check    # recompute and compare

Values come from code independent of the engine paths the jobs exercise:
sympy determinants, ranks and eigenvalues on matrices built here from the
structure constants, a product and a Miyamoto closure written here, brute
force over F_p, and the ``sample_identity`` oracle (500 exact samples).
Where the engine is also run, its answer must agree or the script stops.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import sympy as sp  # noqa: E402

import axial as ax  # noqa: E402
import workloads as wl  # noqa: E402
from workloads import HALF  # noqa: E402

QQ = ax.QQ


def struct(A):
    return [[[Fraction(c) for c in cell] for cell in row] for row in A.structure]


def mul(st, x, y):
    n = len(x)
    out = [Fraction(0)] * n
    for i in range(n):
        if x[i]:
            for j in range(n):
                if y[j]:
                    c = x[i] * y[j]
                    for k, s in enumerate(st[i][j]):
                        if s:
                            out[k] += c * s
    return out


def smat(rows):
    return sp.Matrix([[sp.Rational(v.numerator, v.denominator) for v in r] for r in rows])


def lmat(st, a):
    n = len(a)
    cols = [mul(st, a, [Fraction(int(i == j)) for i in range(n)]) for j in range(n)]
    return smat([[cols[j][i] for j in range(n)] for i in range(n)])


def rank(rows):
    """Rank by plain Fraction elimination (written here, not axial.linalg)."""
    rows = [list(map(Fraction, r)) for r in rows if any(r)]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def frac(x):
    x = sp.Rational(x)
    return str(Fraction(int(x.p), int(x.q)))


def gram_of(form):
    return smat([[Fraction(v) for v in r] for r in form.gram.rows])


def nilpotent_products(A, form):
    st = struct(A)
    g = form.gram.rows
    basis = [[Fraction(int(i == j)) for i in range(A.dim)] for j in range(A.dim)]
    count = 0
    for i in range(A.dim):
        for j in range(i, A.dim):
            y = mul(st, basis[i], basis[j])
            y2 = mul(st, y, y)
            if not any(mul(st, y2, y)) and not any(mul(st, y2, y2)):
                count += 1
                assert not g[i][j], "weak trace-admissibility violated"
    return count


def subalgebra_dims(A, axes):
    st = struct(A)
    dims = {}
    for a, b in combinations(axes, 2):
        span = [list(map(Fraction, a.coeffs)), list(map(Fraction, b.coeffs))]
        grown = True
        while grown:
            grown = False
            for u, v in list(combinations(span, 2)) + [(u, u) for u in span]:
                w = mul(st, u, v)
                if rank(span + [w]) > len(span):
                    span.append(w)
                    grown = True
        d = str(rank(span))
        dims[d] = dims.get(d, 0) + 1
    return dims


def axial_radical_dim(A, axes, lam):
    st = struct(A)
    n = A.dim
    rows = sp.Matrix.vstack(*[lmat(st, list(map(Fraction, a.coeffs))) - sp.Rational(lam) * sp.eye(n)
                              for a in axes])
    return n - rows.rank()


def one_norm_family_dim(A, a):
    """Nullity of the associativity system plus one normalization row, in
    the n(n+1)/2 upper-triangle unknowns."""
    st = struct(A)
    n = A.dim
    idx = {}
    for i in range(n):
        for j in range(i, n):
            idx[(i, j)] = len(idx)
    rows = []
    for i, j, k in product(range(n), repeat=3):
        row = [Fraction(0)] * len(idx)
        for m, c in enumerate(st[i][j]):
            row[idx[tuple(sorted((m, k)))]] += c
        for m, c in enumerate(st[j][k]):
            row[idx[tuple(sorted((i, m)))]] -= c
        if any(row):
            rows.append(row)
    row = [Fraction(0)] * len(idx)
    for i, j in product(range(n), repeat=2):
        row[idx[tuple(sorted((i, j)))]] += Fraction(a.coeffs[i]) * Fraction(a.coeffs[j])
    rows.append(row)
    return len(idx) - rank(rows)


def spectrum(A, a):
    L = lmat(struct(A), list(map(Fraction, a.coeffs)))
    return sorted(frac(v) for v in L.eigenvals())


def tau(A, a, lam):
    """1 - 2 p(L_a), p the Lagrange projector onto lam inside {0, 1, lam}."""
    L = lmat(struct(A), list(map(Fraction, a.coeffs)))
    n = A.dim
    lam = sp.Rational(lam)
    P = L * (L - sp.eye(n)) / (lam * (lam - 1))
    return sp.eye(n) - 2 * P


def orbit_size(A, gens, lam, cap=50):
    members = [sp.Matrix([sp.Rational(Fraction(c).numerator, Fraction(c).denominator) for c in g.coeffs])
               for g in gens]
    maps = {}
    changed = True
    while changed:
        changed = False
        for m in list(members):
            key = tuple(m)
            if key not in maps:
                el = A.element([Fraction(int(v.p), int(v.q)) for v in m])
                maps[key] = tau(A, el, lam)
            for y in list(members):
                im = maps[key] * y
                if all(im != x for x in members):
                    if len(members) == cap:
                        return f"overflow:{cap}"
                    members.append(im)
                    changed = True
    return len(members)


def brute_idempotents(A, p):
    st = [[[c.v for c in cell] for cell in row] for row in A.structure]
    count = 0
    for x in product(range(p), repeat=3):
        sq = [0, 0, 0]
        for i in range(3):
            for j in range(3):
                c = x[i] * x[j]
                if c:
                    for k in range(3):
                        sq[k] += c * st[i][j][k]
        if all((sq[k] - x[k]) % p == 0 for k in range(3)):
            count += 1
    return count


def verdict(f, A, pool, form, distinct):
    sampled = ax.sample_identity(f, A, idempotent_pool=pool, form=form, samples=500, seed=17,
                                 distinct_slots=distinct).holds
    engine = ax.holds_as_identity(f, A, idempotent_pool=pool, form=form, distinct_slots=distinct).holds
    if sampled != engine:
        raise SystemExit(f"engine and sampled oracle disagree: {f!r}")
    return sampled


def primitive_axis(A, x, lam):
    """By sympy: L_x diagonalizable, spectrum in {0, 1, lam}, 1-space of dim 1."""
    L = lmat(struct(A), list(map(Fraction, x.coeffs)))
    allowed = {sp.Integer(0), sp.Integer(1), sp.Rational(lam)}
    ev = L.eigenvals()
    return (set(ev) <= allowed and L.is_diagonalizable()
            and A.dim - (L - sp.eye(A.dim)).rank() == 1)


def solid(A, a, b, form, lam, samples):
    rep = ax.solid_audit(A, a, b, form, lam, sample_eps=samples)
    audited = [x for x, _r, trivial in rep.idempotent_reports if not trivial]
    fine = all(primitive_axis(x.algebra, x, lam) for x in audited)
    if rep.solid and not fine:
        raise SystemExit("solid verdict but sympy finds a non-primitive idempotent")
    return {"verdict": rep.verdict, "kind": rep.pair_class.kind}


def build():
    exp = {"spectrum:half-axis": ["0", "1", "1/2"]}
    for kind, lam in wl.LADDER:
        geom = wl.Geometry(kind, None)
        A, axes, form = wl.matsuo_input(ax, geom, lam, QQ)
        key = f"{kind}@{lam}"
        analyse(exp, key, A, axes, form, lam)
        assert spectrum(A, axes[0]) == sorted(["0", "1", frac(lam)])
        if kind in ("S4", "AG23") and lam == HALF:
            exp[f"one_norm_family_dim:{key}"] = one_norm_family_dim(A, axes[0])
    for k in (3, 4):
        A, diag, form = wl.jordan_input(ax, k)
        exp[f"det:H{k}"] = frac(gram_of(form).det())
        analyse(exp, f"H{k}", A, diag, form, HALF)
    tor = ax.toric_euf()
    exp["det:toric"] = frac(gram_of(tor.form).det())
    exp["nilpotent_products:toric"] = nilpotent_products(tor.algebra, tor.form)
    assert spectrum(tor.algebra, tor.idempotent(Fraction(3, 7))) == exp["spectrum:half-axis"]

    import random

    for name, A, pool, form in wl.catalog_corpus(ax, random.Random(0)):
        for ident in ax.BUILTIN_NAMES:
            f = ax.builtin_identity(ident, QQ, HALF)
            exp[f"identity:{name}:{ident}"] = verdict(f, A, pool, form, ident in wl.MATSUO_ONLY)
        for alg, text in wl.ADHOC:
            if alg == name:
                exp[f"poly:{name}:{text}"] = verdict(ax.parse_poly(text, QQ, lam=HALF), A, pool, form, False)

    samples = [Fraction(2, 3), Fraction(-5, 4), Fraction(1)]
    exp["solid:toric"] = solid(tor.algebra, tor.idempotent(Fraction(3, 5)), tor.idempotent(-2), tor.form,
                               HALF, samples)
    for pi in wl.SOLID_PI:
        tg = ax.universal_2gen(HALF, pi)
        exp[f"solid:two-gen@1/2,{pi}"] = solid(tg.algebra, *tg.axes, tg.form, HALF, samples)
    tg = ax.universal_2gen(Fraction(1, 4), Fraction(1, 8))
    exp["solid:two-gen@1/4,1/8"] = solid(tg.algebra, *tg.axes, tg.form, Fraction(1, 4), [])

    geom = wl.Geometry("S4", None)
    A4, axes4, _ = wl.matsuo_input(ax, geom, HALF, QQ)
    pairs = list(combinations(zip(geom.points, axes4), 2))
    col = next((a, b) for (p, a), (q, b) in pairs if geom.collinear(p, q))
    apart = next((a, b) for (p, a), (q, b) in pairs if not geom.collinear(p, q))
    A3, axes3, _ = wl.matsuo_input(ax, wl.Geometry("3C", None), HALF, QQ)
    tg_half, tg_two = ax.universal_2gen(HALF, HALF), ax.universal_2gen(HALF, Fraction(2))
    for name, A, gens in (("3C", A3, axes3[:2]), ("S4-collinear", A4, col), ("S4-orthogonal", A4, apart),
                          ("two-gen@1/2", tg_half.algebra, tg_half.axes),
                          ("toric", tor.algebra, [tor.idempotent(Fraction(3, 5)), tor.idempotent(-2)]),
                          ("two-gen@2", tg_two.algebra, tg_two.axes)):
        exp[f"orbit:{name}"] = orbit_size(A, list(gens), HALF)

    for p in wl.PRIMES:
        prime(exp, p)
    return exp


def analyse(exp, key, A, axes, form, lam):
    g = gram_of(form)
    exp.setdefault(f"det:{key}", frac(g.det()))
    exp[f"radical_dim:{key}"] = A.dim - g.rank()
    exp[f"axial_radical_dim:{key}"] = axial_radical_dim(A, axes, lam)
    exp[f"nilpotent_products:{key}"] = nilpotent_products(A, form)
    exp[f"subalgebra_dims:{key}"] = subalgebra_dims(A, axes)


def prime(exp, p):
    K = ax.PrimeField(p)
    tag = f"/F{p}"
    quarter = K.from_fraction(Fraction(1, 4))
    eighth = K.from_fraction(Fraction(1, 8))
    lam_q = Fraction(1, 4)
    # gamma = (1 - lam) pi - lam = -5/32 at (1/4, 1/8); Delta = (1 + 2 lam)^2 + 8 gamma = 1
    delta = K.from_fraction(Fraction(3, 2)) ** 2 + K.from_int(8) * ((K.one - quarter) * eighth - quarter)
    assert delta == K.one
    if p <= 101:
        A, _, _ = wl.two_gen_input(ax, quarter, eighth, K)
        want = brute_idempotents(A, p)
        assert want == 8, want
    exp[f"idempotents:two-gen@1/4,1/8{tag}"] = 8
    if p <= wl.ROOT_SCAN_LIMIT:
        g = wl.nonsquare_gamma(lam_q, p)
        pi = (K.from_int(g) + quarter) / (K.one - quarter)
        if p <= 101:
            A, _, _ = wl.two_gen_input(ax, quarter, pi, K)
            want = brute_idempotents(A, p)
            assert want == 6, want
        # closed form: 0, a, b, u, u - a, u - b; no root of a non-square
        exp[f"idempotents:nonsquare@1/4{tag}"] = 6
    half = K.from_fraction(HALF)
    A, axes, form = wl.matsuo_input(ax, wl.Geometry("S4", None), half, K)
    names = wl.PRIME_IDENTITIES + (("jordan",) if p in wl.JORDAN_PRIMES else ())
    for ident in names:
        f = ax.builtin_identity(ident, K, half)
        exp[f"identity:S4@F{p}:{ident}"] = verdict(f, A, axes, form, ident in wl.MATSUO_ONLY)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--check", action="store_true", help="compare with expected.json, write nothing")
    args = parser.parse_args(argv)
    exp = dict(sorted(build().items()))
    path = HERE / "expected.json"
    if args.check:
        old = json.loads(path.read_text())
        diff = sorted(k for k in set(old) | set(exp) if old.get(k) != exp.get(k))
        print("expected.json is current" if not diff else f"differs at {diff}")
        return 1 if diff else 0
    path.write_text(json.dumps(exp, indent=1) + "\n")
    print(f"wrote {len(exp)} expected answers to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
