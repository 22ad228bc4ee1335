"""The algebra product, L_a, matrix products, ``Matrix.apply`` and minimal
polynomials on lifted entries, against the field-value code they replaced.

The ``reference_*`` functions are that code as it was, kept as the
reference: each multiplies and adds field values term by term.  The only
change is that ``reference_product`` builds the sparse structure table it
used to read from ``Algebra.sparse``, and ``reference_minimal_polynomial``
multiplies with ``reference_matmul``.  Values are compared with their
types, over Q with numerators and denominators up to 10^12, over F_7,
F_65521 and F_(2^31-1), and over Q(t), with the inputs that are not field
values among them: ints over Q and Q(t), and ints and Fractions over F_p.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from axial import matsuo_from_triple_system
from axial.algebra import Algebra, Element
from axial.fields import QQ, PrimeField, RationalFunctions
from axial.linalg import Coordinates, Matrix, minimal_polynomial

QT = RationalFunctions("t")
T = QT.variable()
FIELDS = (QQ, PrimeField(7), PrimeField(65521), PrimeField(2**31 - 1), QT)
BIG = 10**12


def reference_product(A, x, y):
    sparse = [[tuple([(k, c) for k, c in enumerate(cell) if c]) for cell in srow] for srow in A.structure]
    out = [A.field.zero] * A.dim
    for i, xi in enumerate(x):
        if not xi:
            continue
        row = sparse[i]
        for j, yj in enumerate(y):
            if not yj:
                continue
            c = xi * yj
            for k, s in row[j]:
                out[k] = out[k] + c * s
    return tuple(out)


def reference_left_multiplication_matrix(a):
    A = a.algebra
    cols = [reference_product(A, a.coeffs, A.basis_element(j).coeffs) for j in range(A.dim)]
    return Matrix.from_columns(A.field, [list(c) for c in cols])


def reference_matmul(self, other):
    zero = self.field.zero
    out = []
    for ri in self.rows:
        # row i is the sum over k of ri[k] * (row k of other), in k order
        row = [zero] * other.ncols
        for a, rk in zip(ri, other.rows):
            if a:
                for j, b in enumerate(rk):
                    if b:
                        row[j] = row[j] + a * b
        out.append(row)
    return Matrix._wrap(self.field, out)


def reference_apply(self, vec):
    zero = self.field.zero
    out = []
    for r in self.rows:
        acc = zero
        for a, v in zip(r, vec):
            if a and v:
                acc = acc + a * v
        out.append(acc)
    return out


def reference_minimal_polynomial(m):
    field = m.field
    powers = Coordinates(field, m.nrows * m.ncols)
    power = Matrix.identity(field, m.nrows)
    flat = [e for row in power.rows for e in row]
    while powers.add(flat):
        power = reference_matmul(power, m)
        flat = [e for row in power.rows for e in row]
    # M^k = sum c_i M^i  =>  minpoly = x^k - sum c_i x^i
    return tuple(-c for c in powers.coords(flat)) + (field.one,)


def typed(x):
    """x with the type of every value spelled out, so that an int in place
    of a Fraction, or a Fraction in place of an Fp, compares unequal."""
    if isinstance(x, Matrix):
        return typed(x.rows)
    if isinstance(x, Element):
        return typed(x.coeffs)
    if isinstance(x, (list, tuple)):
        return [typed(v) for v in x]
    return (type(x).__name__, x)


def scalars(field):
    """Zero, field values, and the inputs that are not field values."""
    if field is QQ:
        fraction = st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG))
        return st.one_of(st.just(QQ.zero), fraction, st.integers(-BIG, BIG))
    if field is QT:
        small = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)).map(QT.from_fraction)
        ratio = st.builds(lambda a, b, c: (a + b * T) / (QT.one + c * T), small, small, small)
        return st.one_of(st.just(QT.zero), small, ratio, st.integers(-9, 9))
    p = field.p
    residue = st.integers(0, p - 1).map(field.from_int)
    fraction = st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG).filter(lambda d: d % p))
    return st.one_of(st.just(field.zero), residue, st.integers(-BIG, BIG), fraction)


@st.composite
def algebras(draw):
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 3 if field is QT else 4))
    value = scalars(field)
    grid = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            grid[i][j] = grid[j][i] = [draw(value) for _ in range(n)]
    return Algebra(field, [f"b{i}" for i in range(n)], grid), value


@st.composite
def matrices(draw, field, nrows, ncols):
    value = scalars(field)
    return Matrix(field, [[draw(value) for _ in range(ncols)] for _ in range(nrows)])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_product_and_left_multiplication(data):
    A, value = data.draw(algebras())
    x, y = ([data.draw(value) for _ in range(A.dim)] for _ in range(2))
    assert typed(A.product(x, y)) == typed(reference_product(A, x, y))
    assert typed(A.product(x, x)) == typed(reference_product(A, x, x))
    a, b = A.element(x), A.element(y)
    assert typed(a * b) == typed(A.element(reference_product(A, x, y)))
    assert typed(a.left_multiplication_matrix()) == typed(reference_left_multiplication_matrix(a))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_matmul_and_apply(data):
    field = data.draw(st.sampled_from(FIELDS))
    n, k, m = (data.draw(st.integers(0 if i else 1, 4)) for i in range(3))
    left, right = data.draw(matrices(field, n, k)), data.draw(matrices(field, k, m))
    assert typed(left @ right) == typed(reference_matmul(left, right))
    if n == k:
        assert typed(left @ left) == typed(reference_matmul(left, left))
    vec = [data.draw(scalars(field)) for _ in range(k)]
    assert typed(left.apply(vec)) == typed(reference_apply(left, vec))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_minimal_polynomial(data):
    field = data.draw(st.sampled_from(FIELDS))
    n = data.draw(st.integers(0, 3 if field is QT else 4))
    m = data.draw(matrices(field, n, n))
    assert typed(minimal_polynomial(m)) == typed(reference_minimal_polynomial(m))


def test_minimal_polynomial_of_left_multiplication():
    """Powers of L_a whose entries share denominators: an axis of 3C and a
    generic element over Q, F_101 and Q(t), each with int coefficients too."""
    for field in (QQ, PrimeField(101), QT):
        M = matsuo_from_triple_system((["a", "b", "c"], [["a", "b", "c"]]), field.from_fraction(Fraction(1, 2)),
                                      field)
        A = M.algebra
        for x in (M.axes[0], A.element([Fraction(1, 3), 0, Fraction(-5, 7)]), A.element([1, 2, 3])):
            L = x.left_multiplication_matrix()
            assert typed(L) == typed(reference_left_multiplication_matrix(x))
            assert typed(minimal_polynomial(L)) == typed(reference_minimal_polynomial(L))
