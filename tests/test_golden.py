"""Golden output: one sha256 over the canonical outputs of fixed inputs.

The inputs are the Matsuo algebras of the transpositions of S_3, S_4 and
S_5 at lam = 1/2 over Q and over F_101 (Gram matrix, and the form family
with one-point normalization and with none), and 200 seeded random matrices
over Q, F_7 and F_101 (rref, kernel, det and minimal polynomial).  RREF,
kernel bases, determinants and minimal polynomials are canonical, so a
change to the elimination kernels must leave the digest as it is.

To regenerate the constant, run this file as a script from the root of the
checkout, ``PYTHONPATH=src python tests/test_golden.py``, and paste the
digest it prints into ``GOLDEN``.  A change to the constant says in
CHANGES.md which output changed and why the new one is right.
"""

import hashlib
import random
from fractions import Fraction
from itertools import combinations

from axial import QQ, PrimeField, matsuo_from_triple_system, solve_frobenius
from axial.fields import Fp
from axial.linalg import Matrix, minimal_polynomial

GOLDEN = "18f6114ba0cd57a39a3475184c671ab0b6993ab45a5aec9ace92082ae7e2d64c"


def _canon(x):
    """Text of a value that also names its type, so that an int in place of
    a Fraction changes the digest."""
    if isinstance(x, Fraction):
        return f"Q{x.numerator}/{x.denominator}"
    if isinstance(x, Fp):
        return f"F{x.v}"
    if isinstance(x, Matrix):
        return "M" + _canon(x.rows)
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


def digest():
    h = hashlib.sha256()
    for record in _records():
        h.update(_canon(record).encode())
        h.update(b";")
    return h.hexdigest()


def test_golden_outputs():
    assert digest() == GOLDEN


if __name__ == "__main__":
    print(digest())
