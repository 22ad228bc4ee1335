from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from axial import matsuo_from_triple_system, solve_frobenius, toric_euf, universal_2gen
from axial.errors import DimensionMismatch
from axial.fields import QQ, PrimeField, RationalFunctions, zpoly_gcd
from axial.linalg import Coordinates, Echelon, Matrix, kernel, minimal_polynomial, rref, span_contains
from conftest import transpositions


def qmat(rows):
    return Matrix(QQ, [[Fraction(x) for x in r] for r in rows])


class TestRref:
    def test_identity_fixed(self):
        m = Matrix.identity(QQ, 3)
        red, pivots, rank = rref(m)
        assert red == m and rank == 3 and pivots == (0, 1, 2)

    def test_zero(self):
        m = Matrix.zeros(QQ, 2, 3)
        red, pivots, rank = rref(m)
        assert red == m and rank == 0 and pivots == ()

    def test_rank_one(self):
        # hand row-reduction: [[1,1],[2,2]] -> [[1,1],[0,0]]
        red, pivots, rank = rref(qmat([[1, 1], [2, 2]]))
        assert red == qmat([[1, 1], [0, 0]])
        assert rank == 1

    def test_against_sympy(self):
        rows = [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
        red, pivots, rank = rref(qmat(rows))
        sred, spiv = sympy.Matrix(rows).rref()
        assert list(pivots) == list(spiv)
        for i in range(3):
            for j in range(3):
                assert red.rows[i][j] == Fraction(sred[i, j].p, sred[i, j].q)


@settings(max_examples=60)
@given(st.lists(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=4), min_size=3, max_size=3),
                min_size=2, max_size=4))
def test_rref_idempotent(rows):
    m = qmat(rows)
    red1 = rref(m)[0]
    assert rref(red1)[0] == red1


@settings(max_examples=60)
@given(st.lists(st.lists(st.integers(-5, 5), min_size=4, max_size=4), min_size=2, max_size=4))
def test_kernel_rank_nullity(rows):
    m = qmat(rows)
    _, _, rank = rref(m)
    basis = kernel(m)
    assert rank + len(basis) == m.ncols
    for v in basis:
        assert all(not c for c in m.apply(v))


class TestKernel:
    def test_identity_empty(self):
        assert kernel(Matrix.identity(QQ, 3)) == []

    def test_zero_full(self):
        assert len(kernel(Matrix.zeros(QQ, 2, 2))) == 2

    def test_one_relation(self):
        basis = kernel(qmat([[1, -1]]))
        assert len(basis) == 1
        v = basis[0]
        assert v[0] == v[1] != 0


class TestSolveDet:
    def test_solve_consistent(self):
        m = qmat([[2, 0], [0, 3]])
        assert m.solve([Fraction(4), Fraction(9)]) == [2, 3]

    def test_solve_inconsistent(self):
        m = qmat([[1, 1], [1, 1]])
        assert m.solve([Fraction(0), Fraction(1)]) is None

    def test_det_against_sympy(self):
        rows = [[1, Fraction(1, 4), Fraction(1, 4)],
                [Fraction(1, 4), 1, Fraction(1, 4)],
                [Fraction(1, 4), Fraction(1, 4), 1]]
        assert qmat(rows).det() == Fraction(27, 32)
        assert qmat([[0, 1], [1, 0]]).det() == -1


class TestMinimalPolynomial:
    def test_identity(self):
        # x - 1
        assert minimal_polynomial(Matrix.identity(QQ, 4)) == (Fraction(-1), Fraction(1))

    def test_diag_three_eigenvalues(self):
        d = qmat([[1, 0, 0], [0, Fraction(1, 2), 0], [0, 0, 0]])
        mp = minimal_polynomial(d)
        # x(x-1)(x-1/2) = x^3 - 3/2 x^2 + 1/2 x, evaluated on the matrix: zero
        assert mp == (Fraction(0), Fraction(1, 2), Fraction(-3, 2), Fraction(1))

    def test_nilpotent_block(self):
        n = qmat([[0, 1], [0, 0]])
        assert minimal_polynomial(n) == (Fraction(0), Fraction(0), Fraction(1))  # x^2

    def test_annihilates_and_divides_charpoly(self):
        m = qmat([[1, 2, 0], [0, 1, 3], [0, 0, 2]])
        mp = minimal_polynomial(m)
        acc = Matrix.zeros(QQ, 3, 3)
        p = Matrix.identity(QQ, 3)
        for c in mp:
            acc = acc + p.scaled(c)
            p = p @ m
        assert acc.is_zero()
        x = sympy.Symbol("x")
        char = sympy.Matrix([[1, 2, 0], [0, 1, 3], [0, 0, 2]]).charpoly(x).as_expr()
        mine = sum(sympy.Rational(c) * x ** k for k, c in enumerate(mp))
        assert sympy.rem(char, mine, x) == 0

    def test_prime_field(self):
        F7 = PrimeField(7)
        m = Matrix(F7, [[F7.from_int(1), F7.zero], [F7.zero, F7.from_int(3)]])
        mp = minimal_polynomial(m)
        # (x-1)(x-3) = x^2 - 4x + 3
        assert mp == (F7.from_int(3), F7.from_int(-4), F7.one)


# ---------------------------------------------------------------------------
# differential tests against the dense Gauss-Jordan elimination that
# Matrix.rref and solve_frobenius ran before Echelon
# ---------------------------------------------------------------------------


def reference_rref(m):
    rows = [list(r) for r in m.rows]
    pivots = []
    pr = 0
    for pc in range(m.ncols):
        pivot_row = None
        for i in range(pr, m.nrows):
            if rows[i][pc]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        inv = m.field.one / rows[pr][pc]
        rows[pr] = [inv * b for b in rows[pr]]
        for i in range(m.nrows):
            if i != pr and rows[i][pc]:
                f = rows[i][pc]
                rows[i] = [b - f * c for b, c in zip(rows[i], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == m.nrows:
            break
    return Matrix(m.field, rows), tuple(pivots), len(pivots)


def reference_kernel(m):
    red, pivots, _ = reference_rref(m)
    zero, one = m.field.zero, m.field.one
    basis = []
    for fc in [c for c in range(m.ncols) if c not in pivots]:
        v = [zero] * m.ncols
        v[fc] = one
        for i, pc in enumerate(pivots):
            v[pc] = -red.rows[i][fc]
        basis.append(v)
    return basis


def reference_solve(m, rhs):
    aug = Matrix(m.field, [m.rows[i] + [rhs[i]] for i in range(m.nrows)])
    red, pivots, _ = reference_rref(aug)
    if m.ncols in pivots:
        return None
    x = [m.field.zero] * m.ncols
    for i, pc in enumerate(pivots):
        x[pc] = red.rows[i][m.ncols]
    return x


def reference_matmul(m, other):
    zero = m.field.zero
    out = []
    for i in range(m.nrows):
        row = []
        for j in range(other.ncols):
            acc = zero
            for k in range(m.ncols):
                a = m.rows[i][k]
                if a:
                    acc = acc + a * other.rows[k][j]
            row.append(acc)
        out.append(row)
    return Matrix(m.field, out)


F7 = PrimeField(7)
QT = RationalFunctions("t")


def _qt_value(a, b, c):
    t = QT.variable()
    return (QT.from_int(a) + QT.from_int(b) * t) / (QT.one + QT.from_int(c) * t)


# small entries with many zeros, so that ranks fall short and rows repeat
SMALL = st.sampled_from([0, 0, 0, 1, -1, 2, 3])
FIELD_VALUES = {
    "Q": st.builds(Fraction, SMALL, st.sampled_from([1, 2, 3])),
    "F7": st.builds(F7.from_int, SMALL),
    "Qt": st.builds(_qt_value, SMALL, SMALL, SMALL),
}
FIELDS = {"Q": QQ, "F7": F7, "Qt": QT}


@st.composite
def matrices(draw, with_rhs=False):
    kind = draw(st.sampled_from(sorted(FIELDS)))
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, 5))
    values = FIELD_VALUES[kind]
    rows = draw(st.lists(st.lists(values, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    m = Matrix(FIELDS[kind], rows)
    if not with_rhs:
        return m
    return m, draw(st.lists(values, min_size=nrows, max_size=nrows))


class TestAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_rref_kernel_rank(self, m):
        red, pivots, rank = m.rref()
        ref, ref_pivots, ref_rank = reference_rref(m)
        assert red.rows == ref.rows and (pivots, rank) == (ref_pivots, ref_rank)
        assert m.kernel() == reference_kernel(m)
        assert m.rank() == ref_rank

    @settings(max_examples=60, deadline=None)
    @given(matrices(with_rhs=True))
    def test_solve(self, m_rhs):
        m, rhs = m_rhs
        assert m.solve(rhs) == reference_solve(m, rhs)

    @settings(max_examples=60, deadline=None)
    @given(matrices(), st.integers(1, 5), st.data())
    def test_matmul(self, m, ncols, data):
        kind = next(k for k, f in FIELDS.items() if f == m.field)
        rows = st.lists(FIELD_VALUES[kind], min_size=ncols, max_size=ncols)
        other = Matrix(m.field, data.draw(st.lists(rows, min_size=m.ncols, max_size=m.ncols)))
        got, ref = m @ other, reference_matmul(m, other)
        assert (got.nrows, got.ncols) == (ref.nrows, ref.ncols) and got.rows == ref.rows

    def test_ragged_rows_rejected(self):
        with pytest.raises(DimensionMismatch):
            Matrix(QQ, [[Fraction(1), Fraction(2)], [Fraction(3)]])


class TestEchelon:
    @settings(max_examples=40, deadline=None)
    @given(matrices(), st.randoms(use_true_random=False))
    def test_order_and_format_independent(self, m, rnd):
        ech = Echelon(m.field, m.rows)
        shuffled = list(m.rows)
        rnd.shuffle(shuffled)
        sparse = [{c: v for c, v in enumerate(r) if v} for r in shuffled]
        assert Echelon(m.field, sparse).rows == ech.rows
        assert ech.pivots == reference_rref(m)[1] and ech.rank == len(ech.pivots)

    @settings(max_examples=40, deadline=None)
    @given(matrices(with_rhs=True))
    def test_add_and_contains(self, m_rhs):
        m, target = m_rhs
        vectors = [m.column(j) for j in range(m.ncols)]
        ech = Echelon(m.field)
        for v in vectors:
            known = ech.contains(v)
            assert ech.add(v) is not known
            assert ech.contains(v)
        in_span = reference_solve(Matrix.from_columns(m.field, vectors), target) is not None
        assert ech.contains(target) is in_span
        assert span_contains(m.field, vectors, target) is in_span
        assert ech.add(target) is not in_span

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_stored_rows_stay_primitive(self, m):
        """After every add, each stored row is primitive with its pivot entry
        leading positive, also a row that a new pivot with entry 1 clears."""
        ech = Echelon(m.field)
        for row in m.rows:
            ech.add(row)
            for q, stored in ech._rows.items():
                assert ech._gcd(*stored.values()) == 1 and stored[q] > 0

    def test_cleared_row_made_primitive(self):
        assert Echelon(QQ, [[1, Fraction(1, 2)], [0, 1]])._rows == {0: {0: 1}, 1: {1: 1}}
        t = QT.variable()
        ech = Echelon(QT, [[t, t / (1 + t * t)], [0, 0], [0, 0], [0, t]])
        assert ech._rows == {0: {0: 1}, 1: {1: 1}}

    def test_zero_rows(self):
        ech = Echelon(QQ, [[Fraction(0)] * 3, {}])
        assert ech.rank == 0 and ech.contains([Fraction(0)] * 3)
        assert not ech.contains({1: Fraction(2)})


# ---------------------------------------------------------------------------
# differential tests against the Gaussian det and the minimal polynomial that
# re-solved the whole power system at every power, both from before
# Coordinates
# ---------------------------------------------------------------------------


def reference_det(m):
    rows = [list(r) for r in m.rows]
    n = m.nrows
    det = m.field.one
    for c in range(n):
        pr = next((i for i in range(c, n) if rows[i][c]), None)
        if pr is None:
            return m.field.zero
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            det = -det
        det = det * rows[c][c]
        inv = m.field.one / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [b - f * p for b, p in zip(rows[i], rows[c])]
    return det


def reference_minimal_polynomial(m):
    field, n = m.field, m.nrows
    if n == 0:
        return (field.one,)
    power = Matrix.identity(field, n)
    flat = [[e for row in power.rows for e in row]]
    while True:
        power = power @ m
        target = [e for row in power.rows for e in row]
        sol = reference_solve(Matrix.from_columns(field, flat), target)
        if sol is not None:
            return tuple(-c for c in sol) + (field.one,)
        flat.append(target)


@st.composite
def square_matrices(draw, max_n):
    """Square matrices, a third of them made singular by a repeated row or
    a row that is the sum of two others."""
    kind = draw(st.sampled_from(sorted(FIELDS)))
    n = draw(st.integers(0, max_n))
    values = FIELD_VALUES[kind]
    rows = draw(st.lists(st.lists(values, min_size=n, max_size=n), min_size=n, max_size=n))
    if n >= 3 and draw(st.integers(0, 2)) == 0:
        i, j, k = draw(st.permutations(range(n)))[:3]
        rows[k] = [a + b for a, b in zip(rows[i], rows[j])]
    elif n >= 2 and draw(st.booleans()):
        rows[1] = list(rows[0])
    return Matrix(FIELDS[kind], rows)


class TestDetAndMinimalPolynomial:
    @settings(max_examples=120, deadline=None)
    @given(square_matrices(max_n=5), st.randoms(use_true_random=False))
    def test_det(self, m, rnd):
        d = m.det()
        assert d == reference_det(m)
        # a row swap flips the sign, so the parity of the pivot order counts
        if m.nrows >= 2:
            i, j = rnd.sample(range(m.nrows), 2)
            rows = list(m.rows)
            rows[i], rows[j] = rows[j], rows[i]
            assert Matrix(m.field, rows).det() == -d

    @settings(max_examples=60, deadline=None)
    @given(square_matrices(max_n=3))
    def test_minimal_polynomial(self, m):
        assert minimal_polynomial(m) == reference_minimal_polynomial(m)


def unreduced_lift(field, v):
    """``field.integer_lift`` of v, moved off its normal form, as pairs
    ``(index, entry)`` with the zero entries among them: each entry plus p
    over F_p, whose denominator stays 1, and entries and denominator times
    3 over Q and Q(t)."""
    ints, d = field.integer_lift(v)
    if field.char:
        return list(enumerate(x + field.char for x in ints)), d
    return list(enumerate(3 * x for x in ints)), 3 * d


class TestCoordinates:
    @settings(max_examples=60, deadline=None)
    @given(matrices(with_rhs=True), st.data())
    def test_against_solve(self, m_rhs, data):
        m, target = m_rhs
        field, n = m.field, m.nrows
        coords = Coordinates(field, n)
        kept = []

        def ref(t):
            if not kept:
                return None if any(t) else []
            return reference_solve(Matrix.from_columns(field, kept), t)

        # the same list built by one place step per vector, on lifts that
        # are not in normal form
        placed = Coordinates(field, n)
        for v in (m.column(j) for j in range(m.ncols)):
            new = ref(v) is None
            assert coords.add(v) is new
            if new:
                kept.append(v)
            # add then coords reads v's coordinates from the list v is now in
            got = placed.place(*unreduced_lift(field, v))
            assert (got is None) is new
            last = [field.zero] * (len(kept) - 1) + [field.one]
            assert coords.coords(v) == (last if new else got)
        assert coords.size == placed.size == len(kept)
        # a random target is mostly outside the span
        assert coords.coords(target) == ref(target)
        kind = next(k for k, f in FIELDS.items() if f == field)
        c = data.draw(st.lists(FIELD_VALUES[kind], min_size=len(kept), max_size=len(kept)))
        inside = [sum((ci * v[r] for ci, v in zip(c, kept)), field.zero) for r in range(n)]
        assert coords.coords(inside) == placed.place(*unreduced_lift(field, inside)) == c
        assert placed.place(*unreduced_lift(field, target)) == ref(target)
        assert placed.size == len(kept) + (ref(target) is None)

    def test_empty_and_zero(self):
        coords = Coordinates(QQ, 2)
        assert not coords.add([Fraction(0), Fraction(0)])
        assert coords.coords([Fraction(0), Fraction(0)]) == []
        assert coords.coords([Fraction(1), Fraction(0)]) is None
        assert coords.add([Fraction(1), Fraction(2)]) and not coords.add([Fraction(2), Fraction(4)])
        assert coords.coords([Fraction(3), Fraction(6)]) == [3]


def reference_frobenius(A, normalize_at):
    """Particular Gram matrix (or None) and homogeneous Gram basis, from the
    dense associativity system that solve_frobenius eliminated before."""
    field = A.field
    n = A.dim
    idx = {(i, j): k for k, (i, j) in enumerate((i, j) for i in range(n) for j in range(i, n))}
    nunk = len(idx)

    def g_coeff(row, i, j, c):
        if c:
            key = idx[(i, j) if i <= j else (j, i)]
            row[key] = row[key] + c

    rows, rhs = [], []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                row = [field.zero] * nunk
                for m, c in enumerate(A.structure[i][j]):
                    g_coeff(row, m, k, c)
                for m, c in enumerate(A.structure[j][k]):
                    g_coeff(row, i, m, -c)
                if any(row):
                    rows.append(row)
                    rhs.append(field.zero)
    for x, target in normalize_at:
        row = [field.zero] * nunk
        for i, xi in enumerate(x.coeffs):
            for j, xj in enumerate(x.coeffs):
                if xi and xj:
                    g_coeff(row, i, j, xi * xj)
        rows.append(row)
        rhs.append(target)
    m = Matrix(field, rows)

    def unflatten(vec):
        g = [[field.zero] * n for _ in range(n)]
        for (i, j), key in idx.items():
            g[i][j] = g[j][i] = vec[key]
        return g

    particular = reference_solve(m, rhs)
    return (None if particular is None else unflatten(particular)), [unflatten(v) for v in reference_kernel(m)]


FROBENIUS_CASES = ("3C", "3C family", "3C inconsistent", "S4 all points", "S4 one point", "S4 over F101",
                   "S4 at 1/3", "H3", "two-gen(1/2, 1/8)", "toric over Q(t)", "toric over Q(t), (u, u) = 2",
                   "two-gen(1/2, t)")


@pytest.fixture(scope="module")
def frobenius_cases(mats3c, h3):
    half, one = Fraction(1, 2), QQ.one
    c3 = mats3c
    s4 = matsuo_from_triple_system(transpositions(4), half)
    F101 = PrimeField(101)
    s4_f101 = matsuo_from_triple_system(transpositions(4), F101.parse("1/2"), F101)
    s4_third = matsuo_from_triple_system(transpositions(4), Fraction(1, 3))
    A3 = h3[0]
    tg = universal_2gen(half, Fraction(1, 8))
    a, b = tg.axes
    Qt = RationalFunctions("t")
    tor_qt = toric_euf(Qt)
    tg_qt = universal_2gen(half, Qt.variable(), Qt)
    return {
        "3C": (c3.algebra, [(x, one) for x in c3.axes]),
        "3C family": (c3.algebra, []),
        "3C inconsistent": (c3.algebra, [(c3.axes[0], one), (c3.axes[1], one),
                                         (c3.axes[0] + c3.axes[1], Fraction(5))]),
        "S4 all points": (s4.algebra, [(x, one) for x in s4.axes]),
        "S4 one point": (s4.algebra, [(s4.axes[0], one)]),
        "S4 over F101": (s4_f101.algebra, [(x, F101.one) for x in s4_f101.axes]),
        "S4 at 1/3": (s4_third.algebra, [(x, one) for x in s4_third.axes]),
        "H3": (A3, [(A3.basis_element(i), one) for i, name in enumerate(A3.basis_names) if name.startswith("E")]),
        "two-gen(1/2, 1/8)": (tg.algebra, [(a, one), (b, one), (a + b, 2 + 2 * Fraction(1, 8))]),
        "toric over Q(t)": (tor_qt.algebra, []),
        "toric over Q(t), (u, u) = 2": (tor_qt.algebra, [(tor_qt.u, Qt.from_int(2))]),
        "two-gen(1/2, t)": (tg_qt.algebra, [(x, Qt.one) for x in tg_qt.axes]),
    }


@pytest.mark.parametrize("case", FROBENIUS_CASES)
def test_solve_frobenius_against_reference(frobenius_cases, case):
    A, normalize_at = frobenius_cases[case]
    sol = solve_frobenius(A, normalize_at)
    particular, homogeneous = reference_frobenius(A, normalize_at)
    assert (None if sol.particular is None else sol.particular.gram.rows) == particular
    assert [h.rows for h in sol.homogeneous_basis] == homogeneous
    if case == "3C inconsistent":
        assert particular is None
    if case == "3C family":
        assert homogeneous


# ---------------------------------------------------------------------------
# differential test of the integer kernel against the field-value Echelon and
# Coordinates that ran before it, copied verbatim (only renamed), with the
# det and minimal_polynomial built on them
# ---------------------------------------------------------------------------


def _reference_sparse(row):
    """{column: value} of the nonzero entries of a dense or sparse row."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    return {c: v for c, v in items if v}


def _reference_subtract(r, f, row):
    """r -= f * row in place, dropping entries that cancel."""
    for c, v in row.items():
        x = r.get(c)
        if x is None:
            r[c] = -(f * v)
        else:
            x = x - f * v
            if x:
                r[c] = x
            else:
                del r[c]


class ReferenceEchelon:
    """Fully reduced row basis, grown one row at a time.

    ``rows`` maps each pivot column to its row, stored sparse as
    ``{column: nonzero value}``: 1 at its pivot, which is its first nonzero
    column, and nothing in any other pivot column.  Such a basis is unique
    for its span, so its rows in pivot order are the reduced row-echelon
    form of every matrix whose rows were added, whatever their order.
    Rows may be given dense (a sequence) or sparse (a dict).
    """

    __slots__ = ("field", "rows")

    def __init__(self, field, rows=()):
        self.field = field
        self.rows = {}
        for row in rows:
            self.add(row)

    @property
    def rank(self):
        return len(self.rows)

    @property
    def pivots(self):
        return tuple(sorted(self.rows))

    def reduce(self, row):
        """Sparse remainder of row after clearing every pivot column."""
        r = _reference_sparse(row)
        # pivot rows vanish in each other's pivot columns, so clearing one
        # pivot column leaves the entries in the others untouched
        for p in [c for c in r if c in self.rows]:
            _reference_subtract(r, r[p], self.rows[p])
        return r

    def add(self, row):
        """Extend the basis by row; False when row is already in the span."""
        r = self.reduce(row)
        if not r:
            return False
        self._insert(r)
        return True

    def _insert(self, r):
        """Make the nonzero remainder r of reduce a basis row: scale it to 1
        at its first column and clear that column from the other rows."""
        p = min(r)
        inv = self.field.one / r[p]
        r = {c: inv * v for c, v in r.items()}
        for other in self.rows.values():
            f = other.get(p)
            if f is not None:
                _reference_subtract(other, f, r)
        self.rows[p] = r

    def contains(self, row):
        return not self.reduce(row)


class ReferenceCoordinates:
    """Coordinates in a growing independent list of vectors of length n.

    Vector i is kept in one ``Echelon`` as the row (v_i | e_i), with its 1 in
    tag column n + i.  Pivots then fall in the first n columns only, and a
    target t reduces to (0 | -c) exactly when t = sum c_i v_i; any entry
    left in the first n columns means t is outside the span.
    """

    __slots__ = ("n", "size", "_ech")

    def __init__(self, field, n, vectors=()):
        self.n = n
        self.size = 0
        self._ech = ReferenceEchelon(field)
        for v in vectors:
            self.add(v)

    def _outside(self, r):
        return bool(r) and min(r) < self.n

    def add(self, v):
        """Append v to the list; False, adding nothing, when v is already
        in the span."""
        r = self._ech.reduce(v)
        if not self._outside(r):
            return False
        r[self.n + self.size] = self._ech.field.one
        self._ech._insert(r)
        self.size += 1
        return True

    def coords(self, t):
        """[c_0, ..., c_{size-1}] with t = sum c_i v_i, or None when t is
        outside the span."""
        r = self._ech.reduce(t)
        if self._outside(r):
            return None
        zero = self._ech.field.zero
        return [-r[c] if c in r else zero for c in range(self.n, self.n + self.size)]


def reference_echelon(field, rows=()):
    return ReferenceEchelon(field, rows)


def reference_echelon_det(m):
    ech = reference_echelon(m.field)
    det = m.field.one
    order = []
    for row in m.rows:
        r = ech.reduce(row)
        if not r:
            return m.field.zero
        p = min(r)
        det = det * r[p]
        order.append(p)
        ech._insert(r)
    inversions = sum(1 for i, p in enumerate(order) for q in order[:i] if q > p)
    return -det if inversions % 2 else det


def reference_echelon_minimal_polynomial(m):
    field = m.field
    powers = ReferenceCoordinates(field, m.nrows * m.ncols)
    power = Matrix.identity(field, m.nrows)
    flat = [e for row in power.rows for e in row]
    while powers.add(flat):
        power = power @ m
        flat = [e for row in power.rows for e in row]
    return tuple(-c for c in powers.coords(flat)) + (field.one,)


def _typed(x):
    """x with the type of every value spelled out, so that an int in place
    of a Fraction, or a Fraction in place of an Fp, compares unequal."""
    if isinstance(x, dict):
        return {k: _typed(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_typed(v) for v in x]
    return (type(x).__name__, x)


BIG = 10**12
F65521, F_MERSENNE = PrimeField(65521), PrimeField(2**31 - 1)
KERNEL_FIELDS = {"Q": QQ, "F7": F7, "F65521": F65521, "F2^31-1": F_MERSENNE}


@st.composite
def kernel_values(draw, kind):
    """Field values with many zeros: over Q numerators and denominators up to
    10^12 or small ones, over F_p any residue or a small one."""
    if draw(st.integers(0, 2)) == 0:
        return KERNEL_FIELDS[kind].zero
    if kind == "Q":
        bound = draw(st.sampled_from([3, BIG]))
        return Fraction(draw(st.integers(-bound, bound)), draw(st.integers(1, bound)))
    field = KERNEL_FIELDS[kind]
    return field.from_int(draw(st.one_of(st.integers(-3, 3), st.integers(0, field.p - 1))))


@st.composite
def kernel_cases(draw):
    """A field, rows to add (some repeated or summed, so that ranks fall
    short) and a target row."""
    kind = draw(st.sampled_from(sorted(KERNEL_FIELDS)))
    n = draw(st.integers(1, 5))
    row = st.lists(kernel_values(kind), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=1, max_size=6))
    if len(rows) >= 3 and draw(st.booleans()):
        rows[2] = [a + b for a, b in zip(rows[0], rows[1])]
    return KERNEL_FIELDS[kind], rows, draw(row)


class TestIntegerKernelAgainstFieldValues:
    @settings(max_examples=150, deadline=None)
    @given(kernel_cases())
    def test_echelon_and_coordinates(self, case):
        field, rows, target = case
        ech, ref = Echelon(field, rows), reference_echelon(field, rows)
        assert _typed(ech.rows) == _typed(ref.rows)
        assert (ech.pivots, ech.rank) == (ref.pivots, ref.rank)
        assert _typed(ech.reduce(target)) == _typed(ref.reduce(target))
        assert ech.contains(target) is ref.contains(target)
        n = len(target)
        # lifted rows off their normal form: entries plus p over F_p
        inside = [sum((r[i] for r in rows), field.zero) for i in range(n)]
        for v in (target, inside):
            assert ech.contains_integers(unreduced_lift(field, v)[0]) is ech.contains(v)
        coords, ref_coords = Coordinates(field, n), ReferenceCoordinates(field, n)
        for v in rows:
            assert coords.add(v) is ref_coords.add(v)
        assert coords.size == ref_coords.size
        assert _typed(coords.coords(target)) == _typed(ref_coords.coords(target))
        assert _typed(coords.coords(inside)) == _typed(ref_coords.coords(inside))

    @settings(max_examples=100, deadline=None)
    @given(kernel_cases())
    def test_det_and_minimal_polynomial(self, case):
        field, rows, _ = case
        n = min(len(rows), len(rows[0]), 4)
        m = Matrix(field, [r[:n] for r in rows[:n]])
        assert _typed(m.det()) == _typed(reference_echelon_det(m))
        assert _typed(minimal_polynomial(m)) == _typed(reference_echelon_minimal_polynomial(m))

    def test_hilbert_matrix(self):
        # coefficient growth: det(H_8) = 1 / 365356847125734485878112256000000
        n = 8
        h = Matrix(QQ, [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)])
        assert _typed(h.det()) == _typed(reference_echelon_det(h))
        assert h.det() == Fraction(1, 365356847125734485878112256000000)
        red, pivots, rank = h.rref()
        assert _typed(red.rows) == _typed(reference_rref(h)[0].rows) and rank == n
        assert _typed(Echelon(QQ, h.rows).rows) == _typed(reference_echelon(QQ, h.rows).rows)


@st.composite
def qt_kernel_cases(draw):
    """Rows over Q(t) of entries (a + b t) / (1 + c t^2), many of them zero,
    with a and b small or up to 10^12 and c small, some rows repeated or
    summed so that ranks fall short, and a target row."""
    t = QT.variable()

    def value():
        if draw(st.integers(0, 2)) == 0:
            return QT.zero
        bound = draw(st.sampled_from([3, BIG]))
        a, b = (QT.from_int(draw(st.integers(-bound, bound))) for _ in range(2))
        return (a + b * t) / (QT.one + QT.from_int(draw(st.integers(-3, 3))) * t * t)

    n = draw(st.integers(1, 4))
    rows = [[value() for _ in range(n)] for _ in range(draw(st.integers(1, 4)))]
    if len(rows) >= 3 and draw(st.booleans()):
        rows[2] = [a + b for a, b in zip(rows[0], rows[1])]
    return rows, [value() for _ in range(n)]


class TestRationalFunctionKernelAgainstFieldValues:
    """Over Q(t) the kernel eliminates on Z[t] entries through its Q branch;
    the reference is the field-value kernel above."""

    @settings(max_examples=50, deadline=None)
    @given(qt_kernel_cases())
    def test_echelon_coordinates_det_and_minimal_polynomial(self, case):
        rows, target = case
        ech, ref = Echelon(QT, rows), reference_echelon(QT, rows)
        assert _typed(ech.rows) == _typed(ref.rows)
        assert (ech.pivots, ech.rank) == (ref.pivots, ref.rank)
        # a row enters primitive in Z[t], its pivot entry leading positive
        for q, row in Echelon(QT, [target])._rows.items():
            assert zpoly_gcd(*row.values()) == 1 and row[q] > 0
        assert _typed(ech.reduce(target)) == _typed(ref.reduce(target))
        assert ech.contains(target) is ref.contains(target)
        n = len(target)
        # Z[t] entries, times 3 off their primitive form
        inside = [sum((r[i] for r in rows), QT.zero) for i in range(n)]
        for v in (target, inside):
            assert ech.contains_integers(unreduced_lift(QT, v)[0]) is ech.contains(v)
        coords, ref_coords = Coordinates(QT, n), ReferenceCoordinates(QT, n)
        for v in rows:
            assert coords.add(v) is ref_coords.add(v)
        assert _typed(coords.coords(target)) == _typed(ref_coords.coords(target))
        assert _typed(coords.coords(inside)) == _typed(ref_coords.coords(inside))
        n = min(len(rows), n, 3)
        m = Matrix(QT, [r[:n] for r in rows[:n]])
        assert _typed(m.det()) == _typed(reference_echelon_det(m))
        assert _typed(minimal_polynomial(m)) == _typed(reference_echelon_minimal_polynomial(m))


class TestInputsThatAreNotFieldValues:
    """Over F_p, rows and normalization targets may hold Python ints and
    Fractions, read as Fp arithmetic reads them; over Q(t) they are read as
    constants."""

    def test_rational_function_rows(self):
        t = QT.variable()
        rows = Echelon(QT, [[2, t, Fraction(1, 2)], [0, 1, 0]]).rows
        quarter = QT.from_fraction(Fraction(1, 4))
        assert _typed(rows) == _typed({0: {0: QT.one, 2: quarter}, 1: {1: QT.one}})
        assert Matrix(QT, [[2, t], [1, Fraction(1, 3)]]).det() == QT.from_fraction(Fraction(2, 3)) - t
        assert Coordinates(QT, 2, [[1, t]]).coords([3, 3 * t]) == [QT.from_int(3)]

    def test_echelon_rows(self):
        assert Echelon(F7, [[1, 2], [3, 4]]).rows == {0: {0: F7.one}, 1: {1: F7.one}}
        rows = Echelon(F7, [[1, 2, 5], [Fraction(1, 2), 1, 0]]).rows
        assert _typed(rows) == _typed({0: {0: F7.one, 1: F7.from_int(2)}, 2: {2: F7.one}})
        assert Matrix(F7, [[1, 2], [3, 4]]).det() == F7.from_int(5)
        coords = Coordinates(F7, 2, [[1, 2]])
        assert coords.coords([3, 6]) == [F7.from_int(3)]
        assert coords.coords([Fraction(1, 2), 1]) == [F7.from_int(4)]

    def test_solve_frobenius_int_target(self):
        F101 = PrimeField(101)
        c3 = matsuo_from_triple_system((["a", "b", "c"], [["a", "b", "c"]]), F101.parse("1/2"), F101)
        sol = solve_frobenius(c3.algebra, [(c3.axes[0], 1)])
        h, one = F101.from_int(76), F101.one  # lam/2 = 1/4 = 76 mod 101
        assert _typed(sol.particular.gram.rows) == _typed([[one, h, h], [h, one, h], [h, h, one]])
        assert sol.homogeneous_basis == []
        x = c3.algebra.element([1, 0, 0])
        assert solve_frobenius(c3.algebra, [(x, Fraction(1, 3)), (c3.axes[1], 1)]).particular is None
