import re
import warnings
from fractions import Fraction

import pytest

from axial import (
    QQ,
    BilinearForm,
    PrimeField,
    RationalFunctions,
    axial_radical,
    check_axis,
    classify_pair,
    component_recovery,
    eigen_decompose,
    is_4_nilpotent,
    make_algebra,
    matsuo_from_triple_system,
    radical,
    solve_frobenius,
    toric_euf,
    trace_admissibility_audit,
    universal_2gen,
)
from axial.errors import AlgebraMismatch, SelfCheckFailed
from axial.frobenius import _associativity_rows, _upper_keys
from axial.linalg import Echelon, Matrix, span_contains

from conftest import transpositions
from form_cases import frobenius_cases, radical_cases, reference_axial_radical, reference_solve_frobenius

HALF = Fraction(1, 2)


def twogen_axes():
    return universal_2gen(HALF, Fraction(1, 8)).axes


def count_calls(monkeypatch, cls, name):
    """Count the calls of the method cls.name from here on."""
    calls = []
    original = getattr(cls, name)

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(cls, name, counted)
    return calls


def zero_product_algebra(n=2):
    z = Fraction(0)
    cell = [z] * n
    return make_algebra(QQ, n, [f"v{i}" for i in range(n)], [[list(cell) for _ in range(n)] for _ in range(n)])


class TestSolveFrobenius:
    def test_3c_unique_normal_form(self, mats3c):
        A = mats3c.algebra
        sol = solve_frobenius(A, [(ax, QQ.one) for ax in mats3c.axes])
        assert sol.unique
        g = sol.particular.gram.rows
        for i in range(3):
            assert g[i][i] == 1
            for j in range(3):
                if i != j:
                    assert g[i][j] == Fraction(1, 4)

    def test_toric_form_matches_table(self, toric):
        # solving with (x_eps, x_eps) = 1 at three family members recovers
        # the advertised basis values
        A = toric.algebra
        sol = solve_frobenius(A, [(toric.idempotent(e), QQ.one) for e in (1, 2, 3)])
        assert sol.unique
        assert sol.particular.gram == toric.form.gram
        g = sol.particular.gram.rows
        assert g[0][2] == Fraction(1, 4) and g[1][1] == 2
        assert g[0][0] == g[2][2] == g[0][1] == g[1][2] == 0

    def test_zero_product_full_family(self):
        A = zero_product_algebra(2)
        sol = solve_frobenius(A)
        # associativity is vacuous: all symmetric 2x2 matrices, dimension 3
        assert len(sol.homogeneous_basis) == 3
        assert sol.particular is not None and sol.particular.gram.is_zero()
        # every member of the affine family is a valid form
        for h in sol.homogeneous_basis:
            BilinearForm(A, h)

    def test_affine_family_members_valid(self, toric):
        # normalize only one diagonal value: the solution family is affine
        # and every particular + homogeneous combination stays associative
        A = toric.algebra
        sol = solve_frobenius(A, [(toric.idempotent(1), QQ.one)])
        assert sol.particular is not None
        for h in sol.homogeneous_basis:
            BilinearForm(A, sol.particular.gram + h)

    def test_inconsistent(self, toric):
        A = toric.algebra
        # e is 4-nilpotent; (e, e) = 1 contradicts associativity: (ee, u) = 0 = (e, eu) = (e,e)
        sol = solve_frobenius(A, [(toric.e, QQ.one)])
        assert sol.particular is None

    def test_validation(self, mats3c):
        A = mats3c.algebra
        bad = [[Fraction(1), Fraction(0), Fraction(0)],
               [Fraction(0), Fraction(1), Fraction(0)],
               [Fraction(0), Fraction(0), Fraction(1)]]
        with pytest.raises(SelfCheckFailed):
            BilinearForm(A, Matrix(QQ, bad))  # identity gram is not associative on 3C

    @pytest.mark.parametrize("case", ["normalize_at", "value", "value-one-side", "classify_pair",
                                      "axial_radical-toric", "axial_radical-two-gen"])
    def test_elements_of_another_algebra(self, mats3c, toric, case):
        # the algebras all have dimension 3, so only the algebra check tells them apart
        a, b, _ = mats3c.axes
        calls = {
            "normalize_at": lambda: solve_frobenius(mats3c.algebra, [(toric.u, QQ.one)]),
            "value": lambda: mats3c.form.value(toric.e, toric.f),
            "value-one-side": lambda: mats3c.form.value(a, toric.f),
            "classify_pair": lambda: classify_pair(a, b, toric.form, HALF),
            # the foreign axis is last, past the point where 3C's axes reach full rank
            "axial_radical-toric": lambda: axial_radical(mats3c.algebra, [a, b, toric.idempotent(2)], HALF),
            "axial_radical-two-gen": lambda: axial_radical(mats3c.algebra, list(twogen_axes()), HALF),
        }
        with pytest.raises(AlgebraMismatch):
            calls[case]()

    def test_equal_algebra_built_apart_is_the_same(self, mats3c):
        twin = matsuo_from_triple_system((["a", "b", "c"], [["a", "b", "c"]]), HALF)
        assert twin.algebra is not mats3c.algebra
        a, b, _ = mats3c.axes
        assert mats3c.form.value(a, twin.axes[1]) == mats3c.form.value(a, b)
        assert solve_frobenius(mats3c.algebra, [(x, QQ.one) for x in twin.axes]).particular == mats3c.form

    def test_named_triple_is_not_associative(self, mats3c, s4, toric):
        # one entry of a valid form moved by 1 breaks associativity; the triple
        # (i, j, k) the error names must have (b_i b_j, b_k) != (b_i, b_j b_k)
        for form in (mats3c.form, s4.form, toric.form):
            A = form.algebra
            for a in range(A.dim):
                for b in range(a, A.dim):
                    g = [list(row) for row in form.gram.rows]
                    g[a][b] += 1
                    g[b][a] = g[a][b]
                    with pytest.raises(SelfCheckFailed) as caught:
                        BilinearForm(A, Matrix(QQ, g))
                    i, j, k = map(int, re.match(r"\(b(\d+)b(\d+), b(\d+)\) != ", str(caught.value)).groups())
                    lhs = sum(c * g[m][k] for m, c in enumerate(A.structure[i][j]))
                    rhs = sum(c * g[i][m] for m, c in enumerate(A.structure[j][k]))
                    assert lhs != rhs

    def test_rational_function_gram_not_associative(self):
        # over Q(t) the check reads the same associativity rows as over Q
        Qt = RationalFunctions("t")
        tor = toric_euf(Qt)
        g = [list(row) for row in tor.form.gram.rows]
        g[0][0] = Qt.variable()
        with pytest.raises(SelfCheckFailed, match=re.escape("(b0b0, b1) != (b0, b0b1)")):
            BilinearForm(tor.algebra, Matrix(Qt, g))


class TestFullRankStop:
    """The eliminations stop at full rank; their outputs are those of the
    full-stream reference copies in ``form_cases.py``."""

    def test_solve_matches_full_stream(self, monkeypatch):
        verdicts = count_calls(monkeypatch, BilinearForm, "_check_associative")
        fields, failed_after_full_rank, cases = set(), 0, 0
        for A, normalize_at in frobenius_cases():
            del verdicts[:]
            sol = solve_frobenius(A, normalize_at)
            ref = reference_solve_frobenius(A, normalize_at)
            assert sol.particular == ref.particular
            assert sol.homogeneous_basis == ref.homogeneous_basis
            # a candidate built and then refused: the streamed rows were
            # consistent, and the system is inconsistent only in rows the
            # solver never streamed
            if sol.particular is None and verdicts:
                failed_after_full_rank += 1
            fields.add(type(A.field).__name__)
            cases += 1
        assert fields == {"Rationals", "PrimeField", "RationalFunctions"}
        assert cases > 400 and failed_after_full_rank >= 100

    def test_radical_matches_full_stream(self):
        nonzero = 0
        for A, axes, lam in radical_cases():
            rad = axial_radical(A, axes, lam)
            assert rad == reference_axial_radical(A, axes, lam)
            nonzero += bool(rad)
        assert nonzero >= 40

    def test_inconsistent_only_in_rows_not_streamed(self, mats3c, monkeypatch):
        # six normalizations fix the identity Gram matrix, which 3C's
        # associativity refuses: no associativity row is streamed, and the
        # form check gives particular = None, not an error
        a, b, c = mats3c.axes
        norms = [(x, QQ.one) for x in (a, b, c)] + [(x + y, Fraction(2)) for x, y in ((a, b), (a, c), (b, c))]
        streamed = count_calls(monkeypatch, Echelon, "add_integers")
        sol = solve_frobenius(mats3c.algebra, norms)
        assert not streamed
        assert sol.particular is None and sol.homogeneous_basis == []
        assert reference_solve_frobenius(mats3c.algebra, norms).particular is None

    def test_s5_solve_streams_fewer_rows(self, monkeypatch):
        M = matsuo_from_triple_system(transpositions(5), HALF)
        A, n = M.algebra, M.algebra.dim
        rows = sum(1 for _ in _associativity_rows(A, _upper_keys(n)[0]))
        assert rows <= n * n * (n - 1) // 2
        streamed = count_calls(monkeypatch, Echelon, "add_integers")
        sol = solve_frobenius(A, [(x, QQ.one) for x in M.axes])
        assert sol.unique and sol.particular == M.form
        assert len(streamed) < rows  # 129 of 420 rows when written

    @pytest.mark.parametrize("field", [QQ, PrimeField(101), RationalFunctions("t")], ids=["Q", "F101", "Qt"])
    def test_radical_stops_before_the_last_s4_axis(self, field, monkeypatch):
        half = field.from_fraction(HALF)
        M = matsuo_from_triple_system(transpositions(4), half, field)
        n = M.algebra.dim
        fed = count_calls(monkeypatch, Echelon, "add_integers")
        assert axial_radical(M.algebra, list(M.axes), half) == []
        assert 0 < len(fed) <= (len(M.axes) - 1) * n  # 8 rows of 36 when written


class TestRadical:
    def test_3c_nondegenerate(self, mats3c):
        assert mats3c.form.gram.det() == Fraction(27, 32)
        assert radical(mats3c.form) == []

    def test_toric_nondegenerate(self, toric):
        assert toric.form.gram.det() == Fraction(-1, 8)
        assert radical(toric.form) == []

    def test_zero_row(self):
        A = zero_product_algebra(2)
        g = Matrix(QQ, [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]])
        rad = radical(BilinearForm(A, g))
        assert len(rad) == 1 and rad[0] == A.basis_element(1)

    def test_radical_is_ideal(self):
        # 2-dim algebra with x*x = y, x*y = y*y = 0; form with y in the kernel
        z, o = Fraction(0), Fraction(1)
        A = make_algebra(QQ, 2, ["x", "y"], [[[z, o], [z, z]], [[z, z], [z, z]]])
        form = BilinearForm(A, Matrix(QQ, [[o, z], [z, z]]))
        rad = radical(form)
        assert len(rad) == 1
        for r in rad:
            for b in A.basis():
                assert span_contains(QQ, [v.coeffs for v in rad], (r * b).coeffs)


class TestAxialRadical:
    def test_3c_all_axes(self, mats3c):
        assert axial_radical(mats3c.algebra, list(mats3c.axes), HALF) == []

    def test_single_toric_axis(self, toric):
        eps = Fraction(2)
        x = toric.idempotent(eps)
        rad = axial_radical(toric.algebra, [x], HALF)
        assert len(rad) == 1
        expected = eps * toric.e - (1 / eps) * toric.f
        assert span_contains(QQ, [rad[0].coeffs], expected.coeffs)

    def test_empty_axis_list_warns(self, mats3c):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rad = axial_radical(mats3c.algebra, [], HALF)
        assert len(rad) == mats3c.algebra.dim
        assert caught and "whole space" in str(caught[0].message)


class TestFourNilpotence:
    def test_toric_e(self, toric):
        assert is_4_nilpotent(toric.e)
        assert is_4_nilpotent(toric.f)

    def test_idempotent_not(self, toric, mats3c):
        assert not is_4_nilpotent(toric.u)
        assert not is_4_nilpotent(toric.idempotent(3))
        assert not is_4_nilpotent(mats3c.axes[0])

    def test_zero(self, toric):
        assert is_4_nilpotent(toric.algebra.zero())


class TestTraceAudit:
    def test_toric_passes(self, toric):
        audit = trace_admissibility_audit(toric.algebra, toric.form)
        assert audit.passed
        # e*e, e*u, f*f, f*u are the 4-nilpotent basis products
        assert audit.nilpotent_products == 4

    def test_explicit_pair(self, toric):
        audit = trace_admissibility_audit(toric.algebra, toric.form, [(toric.e, toric.e)])
        assert audit.passed and audit.nilpotent_products == 1

    def test_3c_vacuous(self, mats3c):
        audit = trace_admissibility_audit(mats3c.algebra, mats3c.form)
        assert audit.passed

    def test_synthetic_violation(self):
        A = zero_product_algebra(2)
        x, y = A.basis()
        g = Matrix(QQ, [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
        form = BilinearForm(A, g)  # associativity vacuous
        audit = trace_admissibility_audit(A, form, [(x, y)])
        assert not audit.passed
        assert audit.violations == [(x, y)]


class TestFormInvariants:
    def test_eigenspace_orthogonality(self, mats3c, toric):
        for axes, form in ((mats3c.axes, mats3c.form),
                           ([toric.idempotent(e) for e in (1, 2, 3)], toric.form)):
            for a in axes:
                ed = eigen_decompose(a)
                mus = ed.eigenvalues
                for i, m1 in enumerate(mus):
                    for m2 in mus[i + 1:]:
                        for v in ed.space(m1):
                            for w in ed.space(m2):
                                assert not form.value(v, w)

    def test_y1_is_form_coefficient(self, mats3c, toric):
        for A, axes, form in ((mats3c.algebra, list(mats3c.axes), mats3c.form),
                              (toric.algebra, [toric.idempotent(e) for e in (1, 2)], toric.form)):
            for a in axes:
                for y in A.basis():
                    comp = component_recovery(a, y, [HALF])
                    assert comp.y1 == form.value(a, y) * a

    def test_aya100(self, mats3c, toric):
        # a(ay) = lam*ay + (1-lam)(a,y)a
        lam = HALF
        for A, axes, form in ((mats3c.algebra, list(mats3c.axes), mats3c.form),
                              (toric.algebra, [toric.idempotent(e) for e in (1, 3)], toric.form)):
            for a in axes:
                for y in A.basis():
                    ay = a * y
                    assert a * ay == lam * ay + (1 - lam) * form.value(a, y) * a

    def test_aya_pair_identity(self, mats3c, toric):
        # a(ab) - b(ab) = (1-lam)(a,b)(a-b) for certified primitive pairs
        lam = HALF
        for axes, form in ((list(mats3c.axes), mats3c.form),
                           ([toric.idempotent(e) for e in (1, 2, 3)], toric.form)):
            for a in axes:
                for b in axes:
                    ab = a * b
                    assert a * ab - b * ab == (1 - lam) * form.value(a, b) * (a - b)

    def test_typ_corrected(self, mats3c, toric):
        # lam*y + (1-lam)(a,y)a - ay lies in A_0(a); lam*y - ay in A_{0,1}(a).
        # The source states the first without the (1-lam) factor, which fails
        # on these algebras; the corrected form is lam * y_0.
        lam = HALF
        for A, axes, form in ((mats3c.algebra, list(mats3c.axes), mats3c.form),
                              (toric.algebra, [toric.idempotent(e) for e in (1, 2)], toric.form)):
            for a in axes:
                ed = eigen_decompose(a)
                a0 = [v.coeffs for v in ed.space(QQ.zero)]
                a01 = [v.coeffs for v in ed.space_01()]
                for y in A.basis():
                    v0 = lam * y + (1 - lam) * form.value(a, y) * a - a * y
                    assert span_contains(QQ, a0, v0.coeffs)
                    v01 = lam * y - a * y
                    assert span_contains(QQ, a01, v01.coeffs)

    def test_typ_as_printed_fails(self, mats3c):
        # documents why the correction is needed
        a, b, _ = mats3c.axes
        ed = eigen_decompose(a)
        a0 = [v.coeffs for v in ed.space(QQ.zero)]
        v = HALF * b + mats3c.form.value(a, b) * a - a * b
        assert not span_contains(QQ, a0, v.coeffs)
