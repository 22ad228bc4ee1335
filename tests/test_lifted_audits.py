"""The trace-admissibility audit, 4-nilpotence and the Jordan self-check of
``jordan_symmetric_matrices`` on lifted products, against the Element-product
code they replaced, and the solver's hand-off of its row stream to the
form check.

The ``reference_*`` functions are that code as it was, kept as the
reference: each multiplies ``Element`` values.  The seeded algebras are
random commutative algebras of dimension 2 to 4 over Q, F_7, F_101 and
Q(t): dense ones, sparse ones, and nilpotent ones (b_i b_j in the span of
the b_k with k > max(i, j)) written on a random unitriangular change of
basis, so that their zero products come from cancellation, mod p over F_p.
"""

import random
from fractions import Fraction

import pytest

from axial import (QQ, BilinearForm, PrimeField, RationalFunctions, is_4_nilpotent, jordan_symmetric_matrices,
                   matsuo_from_triple_system, solve_frobenius, toric_euf, trace_admissibility_audit,
                   universal_2gen)
from axial import frobenius
from axial.algebra import Algebra
from axial.constructions import _check_jordan
from axial.errors import AlgebraMismatch
from axial.frobenius import TraceAuditReport, _associativity_rows, _upper_keys
from axial.linalg import Coordinates

from form_cases import frobenius_cases

QT = RationalFunctions("t")
T = QT.variable()
FIELDS = (QQ, PrimeField(7), PrimeField(101), QT)


def reference_is_4_nilpotent(y):
    y2 = y * y
    y3 = y2 * y
    return (y3 * y).is_zero() and (y2 * y2).is_zero()


def reference_trace_admissibility_audit(A, form, pairs=None):
    if pairs is None:
        basis = A.basis()
        pairs = [(basis[i], basis[j]) for i in range(A.dim) for j in range(i, A.dim)]
    violations = []
    nil = 0
    for x, y in pairs:
        if reference_is_4_nilpotent(x * y):
            nil += 1
            if form.value(x, y):
                violations.append((x, y))
    return TraceAuditReport(checked_pairs=len(pairs), nilpotent_products=nil, violations=violations)


def reference_check_jordan(A):
    basis = A.basis()
    for i, x in enumerate(basis):
        xx = x * x
        for j, y in enumerate(basis):
            if ((xx * y) * x) != (xx * (y * x)):
                return i, j
    return None


def _value(rng, field, zero_share):
    if rng.random() < zero_share:
        return field.zero
    q = field.from_fraction(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
    if field is QT and rng.random() < 0.3:
        return q + field.from_int(rng.randint(-2, 2)) * T
    return q


def _rebased(A, P):
    """A written on the basis c_i = sum_k P[i][k] b_k (P invertible)."""
    field, n = A.field, A.dim
    c = [A.element(row) for row in P]
    coords = Coordinates(field, n, P)
    structure = [[tuple(coords.coords((c[i] * c[j]).coeffs)) for j in range(n)] for i in range(n)]
    return Algebra(field, [f"c{i}" for i in range(n)], structure)


def random_algebras(seed, count=30):
    """``count`` seeded ``(A, form, xs)`` per field: the form is a random
    member of the symmetric associative family of A (zero when the family
    is), and xs are seeded elements, among them multiples of basis members
    and basis products."""
    rng = random.Random(seed)
    for field in FIELDS:
        for trial in range(count):
            n = rng.randint(2, 4)
            kind = trial % 3
            cells = {}
            for i in range(n):
                for j in range(i, n):
                    if kind == 2:  # nilpotent
                        cells[i, j] = tuple(_value(rng, field, 0.3) if k > j else field.zero for k in range(n))
                    else:
                        cells[i, j] = tuple(_value(rng, field, 0.3 if kind == 0 else 0.75) for _ in range(n))
            structure = [[cells[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
            A = Algebra(field, [f"v{i}" for i in range(n)], structure)
            if kind == 2:
                P = [[field.one if i == k else _value(rng, field, 0.4) if k < i else field.zero
                      for k in range(n)] for i in range(n)]
                A = _rebased(A, P)
            family = solve_frobenius(A)
            gram = family.particular.gram
            for h in family.homogeneous_basis:
                gram = gram + h.scaled(field.from_int(rng.randint(-2, 2)))
            basis = A.basis()
            xs = [A.element([_value(rng, field, 0.4) for _ in range(n)]) for _ in range(4)]
            xs += [_value(rng, field, 0.0) * rng.choice(basis) for _ in range(2)]
            xs += [rng.choice(basis) * rng.choice(basis) for _ in range(2)]
            yield A, BilinearForm(A, gram), xs


def _field_name(field):
    return f"F{field.char}" if field.char else type(field).__name__


class TestLiftedAudit:
    def test_audits_match_element_products(self):
        seen = {}
        rng = random.Random(29)
        for A, form, xs in random_algebras(29):
            pairs = [(rng.choice(xs), rng.choice(xs)) for _ in range(6)]
            for chosen in (None, pairs):
                got = trace_admissibility_audit(A, form, chosen)
                want = reference_trace_admissibility_audit(A, form, chosen)
                assert (got.checked_pairs, got.nilpotent_products, got.violations) == \
                    (want.checked_pairs, want.nilpotent_products, want.violations)
                counts = seen.setdefault(_field_name(A.field), [0, 0, 0])
                counts[0] += got.nilpotent_products
                counts[1] += got.checked_pairs - got.nilpotent_products
                counts[2] += len(got.violations)
        # every field meets nilpotent and other products, and violations
        assert set(seen) == {"Rationals", "F7", "F101", "RationalFunctions"}
        assert all(min(counts) > 0 for counts in seen.values()), seen

    def test_4_nilpotence_matches_element_products(self):
        verdicts = {}
        for A, _form, xs in random_algebras(30):
            basis = A.basis()
            for y in xs + basis + [x * y for x in basis for y in basis]:
                got = is_4_nilpotent(y)
                assert got == reference_is_4_nilpotent(y)
                verdicts.setdefault(_field_name(A.field), set()).add(got)
        assert verdicts == {name: {False, True} for name in ("Rationals", "F7", "F101", "RationalFunctions")}

    def test_foreign_form_raises(self):
        tg = universal_2gen(Fraction(1, 2), Fraction(1, 8))
        with pytest.raises(AlgebraMismatch):
            trace_admissibility_audit(tg.algebra, toric_euf().form)

    def test_foreign_pairs_raise(self, toric):
        # u*u is not nilpotent and e*e is; both pairs, and a mixed one, are
        # refused before any product
        c3 = matsuo_from_triple_system((["a", "b", "c"], [["a", "b", "c"]]), Fraction(1, 2))
        for pair in ((toric.u, toric.u), (toric.e, toric.e), (toric.u, c3.axes[0]), (c3.axes[0], toric.e)):
            with pytest.raises(AlgebraMismatch):
                trace_admissibility_audit(c3.algebra, c3.form, [c3.axes[:2], pair])

    def test_equal_algebra_is_accepted(self, toric):
        # a structurally equal algebra is the same algebra
        other = toric_euf()
        audit = trace_admissibility_audit(other.algebra, toric.form, [(toric.e, other.e)])
        assert audit.passed and audit.nilpotent_products == 1


class TestLiftedJordanCheck:
    @pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(101), QT], ids=_field_name)
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_holds_on_h_k(self, field, k):
        A = jordan_symmetric_matrices(k, field)
        assert _check_jordan(A) is None
        assert reference_check_jordan(A) is None

    def test_first_failure_matches_element_products(self):
        failed = set()
        for A, _form, _xs in random_algebras(31, count=12):
            want = reference_check_jordan(A)
            assert _check_jordan(A) == want
            if want is not None:
                failed.add(_field_name(A.field))
        assert failed == {"Rationals", "F7", "F101", "RationalFunctions"}


class TestFormCheckStream:
    def test_rows_are_pulled_once(self, monkeypatch):
        """The solver's form check reads the rows the solver did not stream:
        no row is generated twice, and an accepted form has met every row."""
        original = _associativity_rows
        pulled = []

        def counted(A, key):
            for triple, row in original(A, key):
                pulled.append(triple)
                yield triple, row

        monkeypatch.setattr(frobenius, "_associativity_rows", counted)
        accepted = 0
        for A, normalize_at in frobenius_cases():
            del pulled[:]
            sol = solve_frobenius(A, normalize_at)
            assert len(pulled) == len(set(pulled))
            if sol.particular is not None:
                assert len(pulled) == sum(1 for _ in original(A, _upper_keys(A.dim)[0]))
                accepted += 1
        assert accepted >= 100
