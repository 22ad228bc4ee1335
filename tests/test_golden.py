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

To regenerate the constants, run this file as a script from the root of the
checkout, ``PYTHONPATH=src python tests/test_golden.py``, and paste the
digests it prints into ``GOLDEN`` and ``GOLDEN_QT``.  A change to a constant
says in CHANGES.md which output changed and why the new one is right.
"""

import hashlib
import random
from fractions import Fraction
from itertools import combinations

from axial import QQ, PrimeField, matsuo_from_triple_system, solid_audit, solve_frobenius, toric_euf
from axial.fields import Fp, RatFunc, RationalFunctions
from axial.linalg import Matrix, minimal_polynomial

GOLDEN = "18f6114ba0cd57a39a3475184c671ab0b6993ab45a5aec9ace92082ae7e2d64c"
GOLDEN_QT = "2778e5548912b21e94b420a8b333bd73f8d2a6b3fbda172735d0fe1ffb1be6bf"

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


if __name__ == "__main__":
    print(digest())
    print(digest(_qt_records))
