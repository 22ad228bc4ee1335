"""Reference copies of the full-stream Frobenius solver and axial radical,
and the seeded cases that ``test_frobenius.py`` and ``test_golden.py`` run
them on.

``reference_solve_frobenius`` streams every associativity row and then
every normalization row into one ``Echelon``; ``reference_axial_radical``
stacks L_a - lam of every axis and takes ``Matrix.kernel`` of the stack.
Both outputs are canonical (reduced echelon forms of the same spans), so the
library's early-stopping versions must agree with them exactly.
"""

import random
from fractions import Fraction

from axial import (QQ, Algebra, PrimeField, RationalFunctions, jordan_symmetric_matrices,
                   matsuo_from_triple_system, toric_euf, universal_2gen)
from axial.frobenius import BilinearForm, FormSolution, _associativity_rows, _upper_keys
from axial.linalg import Echelon, Matrix

from conftest import transpositions

HALF = Fraction(1, 2)


def reference_solve_frobenius(A, normalize_at=()):
    """Every row streamed: the associativity rows, then the normalizations."""
    field = A.field
    zero, one = field.zero, field.one
    key, nunk = _upper_keys(A.dim)
    ech = Echelon(field)
    for _, row in _associativity_rows(A, key):
        ech.add_integers(row)
    for x, target in normalize_at:
        row = {nunk: target}
        for i, xi in enumerate(x.coeffs):
            for j, xj in enumerate(x.coeffs):
                if xi and xj:
                    row[key[i][j]] = row.get(key[i][j], zero) + xi * xj
        ech.add(row)
    pivot_rows = ech.rows
    particular = None
    if nunk not in pivot_rows:
        particular = [zero] * nunk
        for p, row in pivot_rows.items():
            particular[p] = row.get(nunk, zero)
    hom = []
    for free in range(nunk):
        if free in pivot_rows:
            continue
        v = [zero] * nunk
        v[free] = one
        for p, row in pivot_rows.items():
            if p < nunk:
                v[p] = -row.get(free, zero)
        hom.append(v)

    def unflatten(vec):
        return Matrix(field, [[vec[u] for u in row] for row in key])

    return FormSolution(particular=None if particular is None else BilinearForm(A, unflatten(particular)),
                        homogeneous_basis=[unflatten(v) for v in hom])


def reference_axial_radical(A, axes, lam):
    """The kernel of the stacked L_a - lam of every axis."""
    field = A.field
    eye = Matrix.identity(field, A.dim)
    rows = []
    for a in axes:
        rows.extend((a.left_multiplication_matrix() - eye.scaled(lam)).rows)
    return [A.element(v) for v in Matrix(field, rows).kernel()]


def _fields():
    Qt = RationalFunctions("t")
    return (QQ, PrimeField(101), Qt), Qt


def radical_cases():
    """``(A, axes, lam)`` over Q, F_101 and Q(t): single toric axes and
    pairs of them, the unit at lam = 1 (the whole space), subsets of the
    axes of 3C and of the Matsuo algebra of S_4 at lam = 1/2 with lam = 1/2,
    0 and 1, the two-gen axes, and the diagonal idempotents of H3."""
    fields, Qt = _fields()
    for field in fields:
        half = field.from_fraction(HALF)
        tor = toric_euf(field)
        eps = [field.from_fraction(Fraction(e)) for e in (1, 2, Fraction(-3, 7))]
        if field is Qt:
            eps.append(Qt.variable())
        for e in eps:
            yield tor.algebra, [tor.idempotent(e)], half
        yield tor.algebra, [tor.idempotent(eps[0]), tor.idempotent(eps[1])], half
        yield tor.algebra, [tor.u], field.one
        c3 = matsuo_from_triple_system((["a", "b", "c"], [["a", "b", "c"]]), half, field)
        for k in (1, 2, 3):
            yield c3.algebra, list(c3.axes[:k]), half
        s4 = matsuo_from_triple_system(transpositions(4), half, field)
        for axes in (s4.axes[:1], s4.axes[:2], [s4.axes[0], s4.axes[5]], s4.axes[:3], s4.axes):
            yield s4.algebra, list(axes), half
        for lam in (field.zero, field.one):
            yield s4.algebra, [s4.axes[0]], lam
            yield s4.algebra, [s4.axes[0], s4.axes[5]], lam
        tg = universal_2gen(half, Qt.variable() if field is Qt else Fraction(1, 8), field)
        for axes in ([tg.axes[0]], [tg.axes[1]], list(tg.axes)):
            yield tg.algebra, axes, half
        h3 = jordan_symmetric_matrices(3, field)
        diag = h3.basis()[:3]
        for lam in (half, field.zero):
            yield h3, diag[:1], lam
            yield h3, diag[:2], lam
            yield h3, diag, lam


def _random_algebra(rng, field, value, n):
    zero = field.zero
    cells = {}
    for i in range(n):
        for j in range(i, n):
            cells[i, j] = tuple(value() for _ in range(n))
    structure = [[cells[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    if rng.random() < 0.05:
        structure = [[(zero,) * n] * n for _ in range(n)]
    return Algebra(field, [f"v{i}" for i in range(n)], structure)


def random_frobenius_cases(count=400, seed=26):
    """``count`` seeded ``(A, normalize_at)`` over Q, F_101 and Q(t) in
    dimensions 2 and 3.  The structure constants are mostly dense, a
    quarter of the time sparse and now and then all zero (so the whole
    symmetric family solves); there are 1 to n(n+1)/2 normalizations.
    Three in ten target lists are the values of a member of the solution
    family, so consistent; the others are random and nonzero, and on an
    algebra with only the zero form the system then turns inconsistent
    only once the associativity rows have given full rank."""
    rng = random.Random(seed)
    fields, Qt = _fields()
    t = Qt.variable()
    for trial in range(count):
        field = fields[trial % 3]
        n = rng.choice((2, 3))
        sparse = rng.random() < 0.25

        def value():
            if rng.random() < (0.7 if sparse else 0.3):
                return field.zero
            q = field.from_fraction(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
            if field is Qt and rng.random() < 0.3:
                return q + field.from_int(rng.randint(-2, 2)) * t
            return q

        A = _random_algebra(rng, field, value, n)
        nunk = n * (n + 1) // 2
        xs = [A.element([value() for _ in range(n)]) for _ in range(rng.randint(1, nunk))]
        if rng.random() < 0.3:
            family = reference_solve_frobenius(A)
            gram = family.particular.gram
            for h in family.homogeneous_basis:
                gram = gram + h.scaled(field.from_int(rng.randint(-2, 2)))
            targets = [sum((xi * xj * gram.rows[i][j] for i, xi in enumerate(x.coeffs)
                            for j, xj in enumerate(x.coeffs)), field.zero) for x in xs]
        else:
            targets = [value() or field.one for _ in xs]
        yield A, list(zip(xs, targets))


def frobenius_cases():
    """``(A, normalize_at)``: the toric algebra, 3C, two-gen and H3 over Q,
    F_101 and Q(t) with their usual normalizations, an inconsistent one and
    a contradictory pair; the Matsuo algebras of S_3 and S_4 at lam = 1/2
    with every axis, one axis and none normalized; then the seeded sweep."""
    fields, Qt = _fields()
    for field in fields:
        one, two = field.one, field.from_int(2)
        half = field.from_fraction(HALF)
        tor = toric_euf(field)
        A = tor.algebra
        yield A, [(tor.idempotent(field.from_int(e)), one) for e in (1, 2, 3)]
        yield A, [(tor.idempotent(one), one)]
        yield A, [(tor.e, one)]
        yield A, [(tor.u, two), (tor.u, one)]
        yield A, []
        c3 = matsuo_from_triple_system((["a", "b", "c"], [["a", "b", "c"]]), half, field)
        yield c3.algebra, [(a, one) for a in c3.axes]
        yield c3.algebra, [(a, one) for a in c3.axes] + [(c3.axes[0] + c3.axes[1], two)]
        tg = universal_2gen(half, Qt.variable() if field is Qt else Fraction(1, 8), field)
        a, b = tg.axes
        yield tg.algebra, [(a, one), (b, one), (a + b, two + tg.pi + tg.pi)]
        yield tg.algebra, [(a, one), (b, one)]
        h3 = jordan_symmetric_matrices(3, field)
        yield h3, [(d, one) for d in h3.basis()[:3]]
        for k in (3, 4):
            M = matsuo_from_triple_system(transpositions(k), half, field)
            for norm in ([(x, one) for x in M.axes], [(M.axes[0], one)], []):
                yield M.algebra, norm
    yield from random_frobenius_cases()
