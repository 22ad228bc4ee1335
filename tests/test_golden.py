"""Golden output: sha256 digests over the canonical outputs of fixed inputs.

``GOLDEN`` covers the Matsuo algebras of the transpositions of S_3, S_4 and
S_5 at lam = 1/2 over Q and over F_101 (Gram matrix, and the form family
with one-point normalization and with none), and 200 seeded random matrices
over Q, F_7 and F_101 (rref, kernel, det and minimal polynomial).  RREF,
kernel bases, determinants and minimal polynomials are canonical, so a
change to the elimination kernels must leave the digest as it is.

``GOLDEN_QT`` covers the scalar layer: the numerator, denominator and text
of Q(t) values (the texts that one work budget accepts, and a seeded corpus
of sums, differences, products, quotients and powers), the roots and square
roots of seeded polynomials and values over Q, F_7, F_101 and Q(t), and the
toric solid audit with its symbolic Q(m) axis.  Each of these is canonical,
so a change to the polynomial layer must leave it as it is.

``GOLDEN_QT_KERNEL`` covers the kernels on Q(t) values: 120 seeded Q(t)
matrices (rref, kernel, solve, ``Echelon.rows`` and ``reduce``,
``Coordinates.coords``, det and minimal polynomial), ``solve_frobenius`` on
the toric algebra over Q, F_7 and Q(t) and on the 2-generated algebra at
lam = 1/2, pi = t over Q(t), ``check_axis`` of the generic toric idempotent
over Q(eps) (spectrum, eigenspaces, Miyamoto matrix), and ``evaluate`` of
every catalog identity over Q(eps) with four ``holds_as_identity`` verdicts
and their witnesses.  It also covers three dense matrices of entries
(a + b t) / (1 + c t^2), 2x2 to 4x4 (rref, ``Coordinates.coords``, det and
minimal polynomial), and the ``solid_audit`` of the toric algebra and of
the 2-generated algebra at pi = 0, 1/8 and 2 (verdict, and the spectrum and
Miyamoto matrix of the symbolic Q(m) axis).  ``_canon`` names types, so an
int left where a Q(t) value belongs changes it.

``GOLDEN_PRODUCTS`` covers the layers that feed the kernels: algebra
products, L_a, matrix products, ``Matrix.apply`` and minimal polynomials of
seeded elements of the Matsuo algebras of S_4 and S_5, the toric algebra
and the 2-generated algebra over Q, F_101 and Q(t), and the subalgebras
that ``generate_subalgebra`` builds on axis and idempotent pairs of S_4,
H3, two-gen and toric over Q and F_7 and of 3C and toric over Q(t) (basis,
words, induced structure, and the coordinates of each parent basis
vector).  Each of these is a field value or a word, so a change to how they
are computed must leave it as it is.

``GOLDEN_IDENTITIES`` covers the identity engine: the ``holds_as_identity``
verdicts, methods and witnesses of every catalog identity and five parsed
ones on 3C, toric, two-gen, H3 and the Matsuo algebra of S_4 over Q, and
of four or five catalog identities on that Matsuo algebra over F_7 and
F_65521, and the ``sample_identity`` verdicts and witnesses at seed 17 on
the corpus of criterion C10.  Verdicts and witnesses are deterministic, so
a change to how identities are evaluated must leave it as it is.

``GOLDEN_AXES`` covers the axes layer: the ``check_axis`` record (spectrum,
semisimple, axis, primitive, ax1, the four fusion verdicts, the eigenspace
bases and the Miyamoto matrix), ``seress_check`` verdicts,
``component_recovery`` parts and ``axis_orbit`` members of toric
idempotents at several eps and of the points of the Matsuo algebra of S_4,
over Q and F_101, of the sum 3C(1/2) + 3C(1/3), of the axes of the
2-generated algebra at four values of pi and of the generic member of its
idempotent family over Q(m), with the ``radical`` bases of degenerate forms.
Eigenspace bases are the canonical kernel bases, so a change to how an axis
is certified must leave it as it is.

``GOLDEN_CATALOG`` covers the identity catalog itself: the ``format_poly``
text and the coefficient type names of every ``builtin_identity`` over Q at
lam = 1/2, 1/4, -3/7 and 5, over F_7 at 3 and 4, F_101 at 1/2, F_3 at 2 and
Q(t) at 1/2, t and (t+1)/(t^2+3), and the error type and message, or the
polynomial, at lam None, 0 and 1 and for an unknown name.  The text is
canonical, so a change to how the catalog is written must leave it as it is.

``GOLDEN_FORMS`` covers the Frobenius solver and the axial radical on the
cases of ``form_cases.py``: the ``axial_radical`` bases of single toric
axes, axis subsets of 3C, the Matsuo algebra of S_4, two-gen and H3, and
the ``solve_frobenius`` outputs (particular Gram matrix or None, and the
homogeneous basis) on the toric algebra, 3C, two-gen, H3 and the Matsuo
algebras of S_3 and S_4 with several normalizations, and on a seeded sweep
of 400 random algebras of dimension 2 and 3, most of them over-determined,
all over Q, F_101 and Q(t).  Both outputs are canonical, so a change to
when the eliminations stop must leave it as it is.

``GOLDEN_AUDITS`` covers the weak trace-admissibility audit and the
self-checking constructions: the ``trace_admissibility_audit`` report
(checked pairs, nilpotent products and violations) over all basis pairs and
over seeded pairs, and the ``is_4_nilpotent`` verdicts of the basis, of the
basis products and of seeded elements, on the toric algebra, 3C, the Matsuo
algebra of S_4 at 1/2 and -1/2, H3 with its trace form, two-gen at pi = 0,
1/8 and 2, and the zero-product plane with its violating pair, together
with the structure of ``jordan_symmetric_matrices(k)`` for k = 2, 3, 4, all
over Q, F_101 and Q(t).  Reports and verdicts are exact, so a change to how
products are tested for 4-nilpotence must leave it as it is.

To regenerate the constants, run this file as a script from the root of the
checkout, ``PYTHONPATH=src python tests/test_golden.py``, and paste the
digests it prints, in order, into ``GOLDEN``, ``GOLDEN_QT``,
``GOLDEN_QT_KERNEL``, ``GOLDEN_PRODUCTS``, ``GOLDEN_IDENTITIES``,
``GOLDEN_AXES``, ``GOLDEN_CATALOG``, ``GOLDEN_FORMS`` and ``GOLDEN_AUDITS``.  A change to a constant
says in CHANGES.md which output changed and why the new one is right.
"""

import hashlib
import random
from fractions import Fraction
from itertools import combinations

from axial import (QQ, BilinearForm, PrimeField, axial_radical, axis_orbit, builtin_identity, check_axis, component_recovery,
                   enumerate_idempotents_2gen, evaluate, generate_subalgebra, holds_as_identity,
                   is_4_nilpotent, jordan_symmetric_matrices, make_algebra, matsuo_from_triple_system, parse_poly, radical,
                   sample_identity, seress_check, solid_audit, solve_frobenius, toric_euf, trace_admissibility_audit,
                   trace_form, universal_2gen)
from axial.algebra import Element
from axial.errors import OrbitOverflow, UnknownIdentity
from axial.fields import Fp, RatFunc, RationalFunctions
from axial.identities import BUILTIN_NAMES, format_poly
from axial.linalg import Coordinates, Echelon, Matrix, minimal_polynomial

from conftest import direct_sum
from form_cases import frobenius_cases, radical_cases

GOLDEN = "18f6114ba0cd57a39a3475184c671ab0b6993ab45a5aec9ace92082ae7e2d64c"
GOLDEN_QT = "2778e5548912b21e94b420a8b333bd73f8d2a6b3fbda172735d0fe1ffb1be6bf"
GOLDEN_QT_KERNEL = "401fb2b385d5f81d2ceefc9f84999c18936abb96e8a719c7801e5089f03eb8cf"
GOLDEN_PRODUCTS = "dfd6c50e29f3d7e2e21ee7fde7d6c9faf123ec463eb143677ad0c7556f76aa1c"
GOLDEN_IDENTITIES = "81baa15772eab9a1677cc038dea8a17a2aa921ef841633c2545b755ddb56c804"
GOLDEN_AXES = "f0615aeede7164f01b43cfe46afd7e7cd3a04a91ec2f742c6ab78841c1af9544"
GOLDEN_CATALOG = "5cc487955c8f633e9edbbafe0b970a7c318c239b2a3f0f937f10d482b8e8db2d"
GOLDEN_FORMS = "083ee04bd3893b5be4cef9193f3b28dac5f09862b4064830e4a7a51fc5a3303d"
GOLDEN_AUDITS = "a5791d5b1aa51fab86b7127dfaa2694fb40a00f1788fd2c62acab9c07906da9c"

# the texts that test_one_work_budget_per_text parses within one work budget
BUDGET_TEXTS = ("*".join(["(t+1)^10"] * 10), "(t+1)^400", "(t^2-1)/(2*t)", "(t+1)^400+1",
                "(t+1)^200*(t+2)^200", "-(t+1)^400", "*".join(f"(t+{i})" for i in range(1, 71)),
                "(t+1)^200/(t+2)^199", "(3^500*t+5^300)^10/(7^400*t+2^600)^10")


def _canon(x):
    """Text of a value that also names its type, so that an int in place of
    a Fraction changes the digest."""
    if isinstance(x, Fraction):
        return f"Q{x.numerator}/{x.denominator}"
    if isinstance(x, Fp):
        return f"F{x.v}"
    if isinstance(x, RatFunc):
        return "R" + _canon([x.num, x.den])
    if isinstance(x, Matrix):
        return "M" + _canon(x.rows)
    if isinstance(x, Element):
        return "E" + _canon(x.coeffs)
    if isinstance(x, dict):
        return "D[" + ",".join(sorted(_canon(k) + ":" + _canon(v) for k, v in x.items())) + "]"
    if isinstance(x, str):
        return "S" + x
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in x) + "]"
    if x is None or isinstance(x, (bool, int)):
        return f"{type(x).__name__}{x}"
    raise TypeError(f"no canonical text for {x!r}")


def _transpositions(n):
    points = [f"t{i}{j}" for i, j in combinations(range(1, n + 1), 2)]
    lines = [[f"t{i}{j}", f"t{j}{k}", f"t{i}{k}"] for i, j, k in combinations(range(1, n + 1), 3)]
    return points, lines


def _records():
    half = Fraction(1, 2)
    for field in (QQ, PrimeField(101)):
        for n in (3, 4, 5):
            M = matsuo_from_triple_system(_transpositions(n), field.from_fraction(half), field)
            yield M.form.gram
            for normalize_at in ((), [(M.axes[0], field.one)]):
                sol = solve_frobenius(M.algebra, normalize_at)
                yield [sol.particular and sol.particular.gram, sol.homogeneous_basis]
    rng = random.Random(2026)
    fields = (QQ, PrimeField(7), PrimeField(101))
    for trial in range(200):
        field = fields[trial % 3]
        n = rng.randint(1, 4)
        ncols = n if trial % 2 else rng.randint(1, 5)

        def value():
            if rng.random() < 0.4:
                return field.zero
            return field.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))

        m = Matrix(field, [[value() for _ in range(ncols)] for _ in range(n)])
        out = [m.rref(), m.kernel()]
        if n == ncols:
            out += [m.det(), minimal_polynomial(m)]
        yield out


def _qt_records():
    Qt = RationalFunctions("t")
    t = Qt.variable()
    rng = random.Random(16)

    def poly(field, deg):
        return sum((field.from_fraction(Fraction(rng.randint(-5, 5), rng.randint(1, 3))) * t ** k
                    for k in range(deg + 1)), Qt.zero)

    # values from a small pool of factors, so that sums and quotients cancel
    factors = [poly(Qt, rng.randint(1, 2)) or t for _ in range(6)]

    def value():
        num, den = poly(Qt, 0), Qt.one
        for f in rng.sample(factors, rng.randint(0, 3)):
            num = num * f
        for f in rng.sample(factors, rng.randint(0, 2)):
            den = den * f
        return num / den

    values = [Qt.parse(text) for text in BUDGET_TEXTS]
    pool = [value() for _ in range(30)]
    for _ in range(150):
        x, y = rng.choice(pool), rng.choice(pool)
        values += [x + y, x - y, x * y, x ** rng.randint(0 if not x else -3, 4)]
        if y:
            values.append(x / y)
    for v in values:
        yield [v, Qt.format(v)]
    # roots of lead * prod (x - r) * (x^2 + c1 x + c0) and square roots, over each field
    for field in (QQ, PrimeField(7), PrimeField(101), Qt):
        def scalar():
            if field is Qt:
                return value() if rng.random() < 0.5 else Qt.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
            return field.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))

        for _ in range(25):
            f = [scalar() or field.one]
            for r in [scalar() for _ in range(rng.randint(0, 3))]:
                f = [(f[k - 1] if k else field.zero) - r * (f[k] if k < len(f) else field.zero)
                     for k in range(len(f) + 1)]
            if rng.random() < 0.5:
                q = [scalar(), scalar(), field.one]
                f = [sum((f[i] * q[k - i] for i in range(len(f)) if 0 <= k - i < 3), field.zero)
                     for k in range(len(f) + 2)]
            x = scalar()
            yield [field.poly_roots(f), field.sqrt(x * x), field.sqrt(x)]
    toric = toric_euf()
    rep = solid_audit(toric.algebra, toric.idempotent(1), toric.idempotent(2), toric.form, Fraction(1, 2),
                      sample_eps=[1, 2, 3, -1, Fraction(5, 7)])
    sym = rep.symbolic_report
    yield [rep.verdict, rep.solid, rep.solid_jordan, list(rep.symbolic_excluded), list(sym.element.coeffs),
           list(sym.spectrum), sym.semisimple, sym.is_axis, sym.primitive, sym.is_primitive_jordan_axis]


def _qt_kernel_records():
    Qt = RationalFunctions("t")
    t = Qt.variable()
    rng = random.Random(17)

    def value():
        # zero, a constant, a + b t or (a + b t) / (1 + c t)
        kind = rng.random()
        if kind < 0.4:
            return Qt.zero
        a, b, c = (Qt.from_fraction(Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for _ in range(3))
        if kind < 0.6:
            return a
        return (a + b * t) / (Qt.one + c * t) if kind > 0.85 else a + b * t

    for trial in range(120):
        n = rng.randint(1, 4)
        ncols = n if trial % 2 else rng.randint(1, 5)
        rows = [[value() for _ in range(ncols)] for _ in range(n)]
        m = Matrix(Qt, rows)
        ech = Echelon(Qt, rows)
        inside = [sum((rng.randint(-2, 2) * r[c] for r in rows), Qt.zero) for c in range(ncols)]
        outside = [value() for _ in range(ncols)]
        coords = Coordinates(Qt, ncols, rows)
        out = [m.rref(), m.kernel(), m.solve([value() for _ in range(n)]), ech.rows, ech.reduce(outside),
               coords.size, coords.coords(inside), coords.coords(outside)]
        if n == ncols:
            out += [m.det(), minimal_polynomial(m)]
        yield out
    # Frobenius forms: the toric algebra over Q, F_7 and Q(t), and two-gen at pi = t
    for field in (QQ, PrimeField(7), Qt):
        tor = toric_euf(field)
        for normalize_at in ((), [(tor.u, field.from_int(2))], [(tor.idempotent(field.one), field.one)]):
            sol = solve_frobenius(tor.algebra, normalize_at)
            yield [sol.particular and sol.particular.gram, sol.homogeneous_basis]
    tg = universal_2gen(Fraction(1, 2), t, Qt)
    a, b = tg.axes
    for normalize_at in ((), [(a, Qt.one), (b, Qt.one)]):
        sol = solve_frobenius(tg.algebra, normalize_at)
        yield [sol.particular and sol.particular.gram, sol.homogeneous_basis]
    # the generic toric idempotent over Q(eps): its axis record and the catalog
    tor, generic = toric_euf().symbolic_family()
    Qe, A = tor.algebra.field, tor.algebra
    half = Qe.from_fraction(Fraction(1, 2))
    rep = check_axis(generic, half)
    yield [rep.spectrum, rep.semisimple, rep.is_axis, rep.primitive, rep.ax1_holds,
           [[mu, rep.eigen.eigenspaces[mu]] for mu in rep.eigen.eigenvalues], rep.miyamoto.matrix,
           [rep.fusion.a01_subalgebra, rep.fusion.module_rule, rep.fusion.pre_jordan, rep.fusion.jordan_a0]]
    eps = Qe.variable()
    for name in BUILTIN_NAMES:
        f = builtin_identity(name, Qe, half)
        xs = {j: A.element([(Qe.from_int(rng.randint(-3, 3)) + rng.randint(-3, 3) * eps) / (Qe.one + eps * eps)
                            for _ in range(A.dim)]) for j in f.x_indices()}
        yield evaluate(f, xs, {i: generic for i in f.e_indices()}, form=tor.form, algebra=A)
    for name in ("jordan", "fourPowerAssoc", "seress", "matsuoCriterion"):
        v = holds_as_identity(builtin_identity(name, Qe, half), A, idempotent_pool=[generic], form=tor.form)
        yield [v.holds, v.witness, v.method]
    # dense matrices of (a + b t) / (1 + c t^2): the 4x4 minimal polynomial
    # is the costliest elimination over Q(t) here
    rng = random.Random(17)
    for n in (2, 3, 4):
        rows = [[(rng.randint(-3, 3) + rng.randint(-3, 3) * t) / (Qt.one + rng.randint(-3, 3) * t * t)
                 for _ in range(n)] for _ in range(n)]
        m = Matrix(Qt, rows)
        coords = Coordinates(Qt, n, rows)
        inside = [sum((rng.randint(-2, 2) * r[c] for r in rows), Qt.zero) for c in range(n)]
        yield [m.rref(), coords.size, coords.coords(inside), coords.coords(rows[0][::-1]), m.det(),
               minimal_polynomial(m)]
    # the solid audits with a symbolic Q(m) family: toric, and two-gen at pi = 0, 1/8 and 2
    tor = toric_euf()
    audits = [(tor.algebra, tor.idempotent(1), tor.idempotent(2), tor.form)]
    for pi in (Fraction(0), Fraction(1, 8), Fraction(2)):
        tg = universal_2gen(Fraction(1, 2), pi)
        audits.append((tg.algebra, *tg.axes, tg.form))
    for A, a, b, form in audits:
        rep = solid_audit(A, a, b, form, Fraction(1, 2), sample_eps=[1, 3])
        sym = rep.symbolic_report
        yield [rep.verdict, sym and list(sym.spectrum), sym and sym.miyamoto and sym.miyamoto.matrix]


def _product_records():
    """Products, L_a, matrix products, ``apply`` and minimal polynomials of
    seeded elements of Matsuo S_4 and S_5, toric and two-gen over Q, F_101
    and Q(t), with int coefficients over Q and F_101 and Fraction ones over
    F_101 among them; then generated subalgebras over Q, F_7 and Q(t)."""
    Qt = RationalFunctions("t")
    t = Qt.variable()
    rng = random.Random(19)
    half = Fraction(1, 2)
    for field in (QQ, PrimeField(101), Qt):
        def value(dense):
            kind = rng.random()
            if kind < (0.3 if dense else 0.7):
                return field.zero
            q = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            if field is QQ and kind > 0.9:
                return rng.randint(-9, 9)  # an int, as direct sums build them
            if field is not Qt and kind > 0.9:
                return q if rng.random() < 0.5 else rng.randint(-300, 300)
            if field is Qt and kind > 0.8:
                b, c = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2))
                return (Qt.from_fraction(q) + Qt.from_fraction(b) * t) / (Qt.one + Qt.from_fraction(c) * t)
            return field.from_fraction(q)

        algebras = [matsuo_from_triple_system(_transpositions(n), field.from_fraction(half), field)
                    for n in (4, 5)]
        algebras += [toric_euf(field), universal_2gen(half, t if field is Qt else Fraction(1, 3), field)]
        for alg in algebras:
            A = alg.algebra
            dense = A.dim < 10 or field is not Qt
            xs = [A.element([value(dense) for _ in range(A.dim)]) for _ in range(3)]
            a = alg.axes[0] if hasattr(alg, "axes") else alg.idempotent(field.from_int(2))
            for x, y in zip(xs + [a], [xs[1], xs[2], xs[0], xs[0]]):
                Lx, Ly = x.left_multiplication_matrix(), y.left_multiplication_matrix()
                yield [x * y, x * x, Lx, Lx @ Ly, Lx.apply(list(y.coeffs)), Lx.apply(list(x.coeffs))]
            # a dense minimal polynomial over Q(t) takes seconds, so there
            # the last one is of an element with constant coefficients
            z = xs[0] if field is not Qt or A.dim < 4 else A.element(
                [field.from_int(rng.randint(-3, 3)) for _ in range(A.dim)])
            yield [minimal_polynomial(a.left_multiplication_matrix()),
                   minimal_polynomial(z.left_multiplication_matrix())]
    # subalgebras: collinear and non-collinear S_4 axes, three S_4 axes, the
    # H3 pair, two-gen at pi = 1/8 and toric at eps = 1, 2 over Q and F_7; 3C
    # and toric over Q(t)
    pairs = []
    for field in (QQ, PrimeField(7)):
        s4 = matsuo_from_triple_system(_transpositions(4), field.from_fraction(half), field)
        h3 = jordan_symmetric_matrices(3, field)
        h3_b = h3.element([field.from_fraction(v) for v in (half, half, 0, half, 0, 0)])
        tor = toric_euf(field)
        pairs += [s4.axes[:2], [s4.axes[0], s4.axes[5]], [s4.axes[0], s4.axes[5], s4.axes[1]],
                  [h3.basis_element(0), h3_b],
                  universal_2gen(half, Fraction(1, 8), field).axes, [tor.idempotent(1), tor.idempotent(2)]]
    c3 = matsuo_from_triple_system((["a", "b", "c"], [["a", "b", "c"]]), Qt.from_fraction(half), Qt)
    tor = toric_euf(Qt)
    pairs += [c3.axes[:2], [tor.idempotent(1), tor.idempotent(t)]]
    for gens in pairs:
        sub = generate_subalgebra(list(gens))
        yield [[b.coeffs for b in sub.basis], sub.words, sub.induced.structure,
               [sub.coords(b) for b in sub.parent.basis()]]


# the parsed identities of the identity catalog, each on one corpus algebra
ADHOC = (
    ("3C", "(x1*x2)*x3 - x1*(x2*x3)"),
    ("toric", "(x1*x1)*(x1*x1) - x1*(x1*(x1*x1))"),
    ("two-gen", "((x1*x1)*x2)*x1 - (x1*x1)*(x2*x1)"),
    ("H3", "lam*(E1*x1) + (1-lam)*B(E1,x1)*E1 - E1*(E1*x1)"),
    ("S4", "E1*(E1*x1) - E1*x1"),
)
MATSUO_ONLY = ("matsuoPairA", "matsuoPairB", "matsuoCriterion")


def _identity_records():
    """Verdicts, methods and witnesses of ``holds_as_identity`` on the
    identity catalog over Q and F_p, and of ``sample_identity`` on the
    corpus of criterion C10."""
    half = Fraction(1, 2)
    c3 = matsuo_from_triple_system((["a", "b", "c"], [["a", "b", "c"]]), half)
    tor = toric_euf()
    tg = universal_2gen(half, Fraction(1, 8))
    h3 = jordan_symmetric_matrices(3)
    h3_pool = [h3.basis_element(i) for i in range(3)] + [h3.element([half, half, 0, half, 0, 0])]
    s4 = matsuo_from_triple_system(_transpositions(4), half)
    corpus = {
        "3C": (c3.algebra, list(c3.axes), c3.form),
        "toric": (tor.algebra, [tor.idempotent(e) for e in (2, 3, half, Fraction(1, 3), Fraction(3, 2))],
                  tor.form),
        "two-gen": (tg.algebra, list(tg.axes), tg.form),
        "H3": (h3, h3_pool, trace_form(h3)),
        "S4": (s4.algebra, list(s4.axes), s4.form),
    }

    def verdict(f, A, pool, form, distinct):
        v = holds_as_identity(f, A, idempotent_pool=pool, form=form, distinct_slots=distinct)
        return [v.holds, v.method, v.witness]

    for A, pool, form in corpus.values():
        for name in BUILTIN_NAMES:
            yield verdict(builtin_identity(name, QQ, half), A, pool, form, name in MATSUO_ONLY)
    for name, text in ADHOC:
        yield verdict(parse_poly(text, QQ, lam=half), *corpus[name], False)
    for p in (7, 65521):
        K = PrimeField(p)
        s4p = matsuo_from_triple_system(_transpositions(4), K.from_fraction(half), K)
        names = ("ax1", "primitivityFrobenius", "matsuoCriterion", "seress") + (("jordan",) if p == 7 else ())
        for name in names:
            yield verdict(builtin_identity(name, K, K.from_fraction(half)), s4p.algebra, list(s4p.axes),
                          s4p.form, name in MATSUO_ONLY)
    # the corpus of criterion C10, sampled as its oracle samples it
    eps_samples = (1, 2, 3, -1, Fraction(5, 7))
    c10 = [corpus["3C"], (tor.algebra, [tor.idempotent(e) for e in eps_samples], tor.form),
           corpus["two-gen"], corpus["H3"]]
    for A, pool, form in c10:
        for name in BUILTIN_NAMES:
            v = sample_identity(builtin_identity(name, QQ, half), A, idempotent_pool=pool, form=form,
                                samples=500, distinct_slots=name in MATSUO_ONLY, seed=17)
            yield [v.holds, v.method, v.witness]


def _axes_records():
    """``check_axis``, ``seress_check``, ``component_recovery``,
    ``axis_orbit`` and ``radical`` on toric, Matsuo S_4, 3C(1/2) + 3C(1/3),
    two-gen and the Q(m) family member, over Q, F_101 and Q(m)."""
    rng = random.Random(23)

    def certify(a, lam, recover=None):
        rep = check_axis(a, lam)
        out = [rep.is_idempotent, rep.spectrum, rep.semisimple, rep.is_axis, rep.primitive, rep.ax1_holds]
        if rep.eigen is not None:
            out.append([[mu, rep.eigen.eigenspaces[mu]] for mu in rep.eigen.eigenvalues])
        if rep.fusion is not None:
            f = rep.fusion
            out += [[f.a01_subalgebra, f.module_rule, f.pre_jordan, f.jordan_a0], rep.miyamoto.matrix]
        if rep.is_axis:
            out.append(seress_check(a, lam))
        if recover is not None:
            A, field = a.algebra, a.algebra.field
            ys = A.basis() + [A.element([field.from_int(rng.randint(-4, 4)) for _ in range(A.dim)])]
            for y in ys:
                comp = component_recovery(a, y, recover)
                out.append([comp.y1, comp.y0, comp.by_eigenvalue])
        return out

    def orbit(axes, lam):
        try:
            return ["closed", axis_orbit(axes, lam, max_size=12)]
        except OrbitOverflow as exc:
            return ["overflow", exc.partial]

    for field in (QQ, PrimeField(101)):
        half = field.from_fraction(Fraction(1, 2))
        tor = toric_euf(field)
        xs = [tor.idempotent(field.from_fraction(e)) for e in (1, 2, Fraction(-3, 7), 5, Fraction(1, 3))]
        for x in xs:
            yield certify(x, half, [half])
        yield [certify(tor.u, half), certify(tor.e, half), orbit(xs[:2], half)]
        s4 = matsuo_from_triple_system(_transpositions(4), half, field)
        for k, a in enumerate(s4.axes):
            yield certify(a, half, [half] if k < 2 else None)
        yield [orbit(s4.axes[:1], half), orbit([s4.axes[0], s4.axes[5]], half), orbit(s4.axes[:2], half)]
        degenerate = matsuo_from_triple_system(_transpositions(4), field.from_fraction(Fraction(-1, 2)), field)
        yield radical(degenerate.form)
        tg = universal_2gen(half, field.from_fraction(Fraction(1, 8)), field)
        yield [certify(a, half, [half]) for a in tg.axes]
    half, third = Fraction(1, 2), Fraction(1, 3)
    c3 = matsuo_from_triple_system((["a", "b", "c"], [["a", "b", "c"]]), half)
    c3_third = matsuo_from_triple_system((["p", "q", "r"], [["p", "q", "r"]]), third)
    D = direct_sum(c3.algebra, c3_third.algebra)
    for coeffs in ([1, 0, 0, 1, 0, 0], [1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0]):
        a = D.element([Fraction(c) for c in coeffs])
        yield certify(a, half)
        yield certify(a, third)
    a = D.element([Fraction(c) for c in (1, 0, 0, 1, 0, 0)])
    yield [[c.y1, c.y0, c.by_eigenvalue] for S in ([half, third], [third, half])
           for c in (component_recovery(a, y, S) for y in D.basis())]
    yield radical(matsuo_from_triple_system((["a", "b", "c"], [["a", "b", "c"]]), Fraction(-1)).form)
    for pi in (Fraction(0), Fraction(1, 8), Fraction(2), Fraction(1, 3)):
        tg = universal_2gen(half, pi)
        yield [certify(a, half, [half]) for a in tg.axes]
        yield [orbit(list(tg.axes), half), tg.form and radical(tg.form)]
    tg = universal_2gen(half, Fraction(1, 8))
    enum = enumerate_idempotents_2gen(generate_subalgebra(list(tg.axes)), half)
    _lifted, generic = enum.family.symbolic()
    yield certify(generic, generic.algebra.field.from_fraction(half), [generic.algebra.field.from_fraction(half)])


def _catalog_records():
    """Text and coefficient types of every catalog identity over Q, F_7,
    F_101, F_3 and Q(t), and the refusals at lam None, 0 and 1."""
    Qt = RationalFunctions("t")
    t = Qt.variable()
    F3, F7, F101 = PrimeField(3, allow_small=True), PrimeField(7), PrimeField(101)
    half = Fraction(1, 2)
    cases = [(QQ, QQ.from_fraction(Fraction(v))) for v in (half, Fraction(1, 4), Fraction(-3, 7), 5)]
    cases += [(F7, F7.from_int(3)), (F7, F7.from_int(4)), (F101, F101.from_fraction(half)),
              (F3, F3.from_int(2)), (Qt, Qt.from_fraction(half)), (Qt, t), (Qt, (t + 1) / (t * t + 3))]
    cases += [(field, lam) for field in (QQ, F7, Qt) for lam in (None, field.zero, field.one)]
    for field, lam in cases:
        for name in BUILTIN_NAMES + ("noSuchIdentity",):
            try:
                f = builtin_identity(name, field, lam)
            except UnknownIdentity as exc:
                yield [name, type(exc).__name__, str(exc)]
                continue
            yield [name, format_poly(f), [type(c).__name__ for _key, c in f.sorted_terms()]]


def _form_records():
    """``axial_radical`` bases and ``solve_frobenius`` outputs on the cases
    of ``form_cases.py``, over Q, F_101 and Q(t)."""
    for A, axes, lam in radical_cases():
        yield axial_radical(A, axes, lam)
    for A, normalize_at in frobenius_cases():
        sol = solve_frobenius(A, normalize_at)
        yield [sol.particular and sol.particular.gram, sol.homogeneous_basis]


def _audit_records():
    """Trace-admissibility audits and 4-nilpotence verdicts on toric, 3C,
    S_4 at 1/2 and -1/2, H3, two-gen at pi = 0, 1/8 and 2 and the
    zero-product plane, and the structure of H_2 to H_4, over Q, F_101 and
    Q(t)."""
    rng = random.Random(29)
    Qt = RationalFunctions("t")
    t = Qt.variable()
    half = Fraction(1, 2)
    for field in (QQ, PrimeField(101), Qt):
        def value():
            c = field.from_int(rng.randint(-2, 2))
            return c + field.from_int(rng.randint(-1, 1)) * t if field is Qt else c

        tor = toric_euf(field)
        c3 = matsuo_from_triple_system((["a", "b", "c"], [["a", "b", "c"]]), field.from_fraction(half), field)
        cases = [(tor.algebra, tor.form), (c3.algebra, c3.form)]
        for lam in (half, -half):
            s4 = matsuo_from_triple_system(_transpositions(4), field.from_fraction(lam), field)
            cases.append((s4.algebra, s4.form))
        h3 = jordan_symmetric_matrices(3, field)
        cases.append((h3, trace_form(h3)))
        for pi in (Fraction(0), Fraction(1, 8), Fraction(2)):
            tg = universal_2gen(half, pi, field)
            cases.append((tg.algebra, tg.form))
        z = field.zero
        plane = make_algebra(field, 2, ["v0", "v1"], [[[z, z], [z, z]], [[z, z], [z, z]]])
        cases.append((plane, BilinearForm(plane, Matrix(field, [[z, field.one], [field.one, z]]))))
        for A, form in cases:
            basis = A.basis()
            # nilpotent seeds: multiples of basis members and of their products
            xs = [A.element([value() for _ in range(A.dim)]) for _ in range(4)]
            xs += [value() * rng.choice(basis) for _ in range(2)]
            xs += [rng.choice(basis) * rng.choice(basis) for _ in range(2)]
            pairs = [(rng.choice(xs), rng.choice(xs)) for _ in range(6)] + [(basis[-1], basis[0])]
            for rep in (trace_admissibility_audit(A, form), trace_admissibility_audit(A, form, pairs)):
                yield [rep.checked_pairs, rep.nilpotent_products, rep.violations, rep.passed]
            yield [is_4_nilpotent(x) for x in basis + [x * y for x in basis for y in basis] + xs]
        for k in (2, 3, 4):
            B = jordan_symmetric_matrices(k, field)
            yield [B.basis_names, B.structure]


def digest(records=_records):
    h = hashlib.sha256()
    for record in records():
        h.update(_canon(record).encode())
        h.update(b";")
    return h.hexdigest()


def test_golden_outputs():
    assert digest() == GOLDEN


def test_golden_scalar_outputs():
    assert digest(_qt_records) == GOLDEN_QT


def test_golden_rational_function_kernel_outputs():
    assert digest(_qt_kernel_records) == GOLDEN_QT_KERNEL


def test_golden_product_outputs():
    assert digest(_product_records) == GOLDEN_PRODUCTS


def test_golden_identity_outputs():
    assert digest(_identity_records) == GOLDEN_IDENTITIES


def test_golden_axes_outputs():
    assert digest(_axes_records) == GOLDEN_AXES


def test_golden_catalog_outputs():
    assert digest(_catalog_records) == GOLDEN_CATALOG


def test_golden_form_outputs():
    assert digest(_form_records) == GOLDEN_FORMS


def test_golden_audit_outputs():
    assert digest(_audit_records) == GOLDEN_AUDITS


if __name__ == "__main__":
    print(digest())
    print(digest(_qt_records))
    print(digest(_qt_kernel_records))
    print(digest(_product_records))
    print(digest(_identity_records))
    print(digest(_axes_records))
    print(digest(_catalog_records))
    print(digest(_form_records))
    print(digest(_audit_records))
