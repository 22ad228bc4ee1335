from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from axial import (
    QQ,
    PrimeField,
    RationalFunctions,
    axis_orbit,
    check_axis,
    check_fusion,
    component_recovery,
    eigen_decompose,
    infer_lambda,
    is_idempotent,
    make_algebra,
    matsuo_from_triple_system,
    miyamoto,
    seress_check,
    toric_euf,
    universal_2gen,
)
import axial.axes
from axial.algebra import Element
from axial.axes import (_divides_root_poly, _involution, _is_involution, _is_squarefree, _lagrange, _poly_at,
                        _root_poly, _sparse)
from axial.cli import main
from axial.io import save_algebra
from axial.errors import (
    BadLambda,
    NotAnAxis,
    NotIdempotent,
    OrbitOverflow,
    SingularVandermonde,
)
from axial.linalg import Matrix, minimal_polynomial, read_lifted, span_contains

from conftest import direct_sum
from test_fields import poly_divides, poly_is_squarefree
from test_linalg import F7, FIELDS, FIELD_VALUES, QT, _typed, reference_solve

HALF = Fraction(1, 2)


def spans_equal(field, vs, ws):
    return all(span_contains(field, [v.coeffs for v in vs], w.coeffs) for w in ws) and all(
        span_contains(field, [w.coeffs for w in ws], v.coeffs) for v in vs
    )


class TestIsIdempotent:
    def test_family_member(self, toric):
        assert is_idempotent(toric.idempotent(2))

    def test_trivial(self, toric):
        assert is_idempotent(toric.algebra.zero())
        assert is_idempotent(toric.u)

    def test_nilpotent_not(self, toric):
        assert not is_idempotent(toric.e)


class TestEigenDecompose:
    def test_3c(self, mats3c):
        a, b, c = mats3c.axes
        ed = eigen_decompose(a)
        assert ed.complete and set(ed.eigenvalues) == {Fraction(0), Fraction(1), HALF}
        assert spans_equal(QQ, ed.space(Fraction(1)), [a])
        assert spans_equal(QQ, ed.space(Fraction(0)), [b + c - HALF * a])
        assert spans_equal(QQ, ed.space(HALF), [b - c])

    def test_toric_family(self, toric):
        for eps in (Fraction(1), Fraction(2), Fraction(-3, 7)):
            x = toric.idempotent(eps)
            ed = eigen_decompose(x)
            assert ed.complete
            assert spans_equal(QQ, ed.space(Fraction(1)), [x])
            assert spans_equal(QQ, ed.space(Fraction(0)), [toric.u - x])
            half_vec = eps * toric.e - (1 / eps) * toric.f
            assert spans_equal(QQ, ed.space(HALF), [half_vec])

    def test_family_at_two(self, toric):
        ed = eigen_decompose(toric.idempotent(2))
        assert spans_equal(QQ, ed.space(HALF), [Fraction(2) * toric.e - HALF * toric.f])

    def test_unit_single_eigenvalue(self, toric):
        ed = eigen_decompose(toric.u)
        assert ed.eigenvalues == [Fraction(1)]
        assert len(ed.space(Fraction(1))) == 3 and ed.complete

    def test_eigenvector_exactness(self, mats3c):
        for ax in mats3c.axes:
            ed = eigen_decompose(ax)
            for mu, vecs in ed.eigenspaces.items():
                for v in vecs:
                    assert ax * v == mu * v

    def test_requires_idempotent(self, toric):
        with pytest.raises(NotIdempotent):
            eigen_decompose(toric.e)

    def test_eigenvalue_past_digit_limit(self):
        # the eigenvalue has more digits than Python will turn into text
        c = Fraction(10**4400 + 1)
        a = hand_built_axis(["a", "w"], {("a", "a"): {"a": 1}, ("a", "w"): {"w": c}}, [1, 0])
        ed = eigen_decompose(a)
        assert ed.complete and set(ed.eigenvalues) == {Fraction(1), c}
        assert spans_equal(QQ, ed.space(c), [a.algebra.basis_element(1)])

    def test_eigenvalues_in_root_order(self):
        a = hand_built_axis(["a", "u", "w"],
                            {("a", "a"): {"a": 1}, ("a", "u"): {"u": -1}, ("a", "w"): {"w": HALF}},
                            [1, 0, 0])
        ed = eigen_decompose(a)
        roots = QQ.poly_roots(list(minimal_polynomial(a.left_multiplication_matrix())))
        assert ed.eigenvalues == roots == [Fraction(1), Fraction(-1), HALF]


class TestCheckAxis:
    def test_3c_primitive_jordan(self, mats3c):
        rep = check_axis(mats3c.axes[0], HALF)
        assert rep.is_idempotent and rep.is_axis and rep.primitive and rep.semisimple
        assert rep.ax1_holds
        assert rep.fusion.all_jordan
        assert rep.miyamoto_is_automorphism
        assert rep.miyamoto.matrix == miyamoto(mats3c.axes[0], HALF).matrix

    def test_toric_family_member(self, toric):
        rep = check_axis(toric.idempotent(3), HALF)
        assert rep.is_axis and rep.primitive and rep.fusion.all_jordan

    def test_non_idempotent_all_false(self, toric):
        rep = check_axis(toric.e, HALF)
        assert not rep.is_idempotent
        assert not rep.is_axis and not rep.primitive and not rep.ax1_holds
        assert rep.fusion is None and rep.miyamoto_is_automorphism is None and rep.miyamoto is None

    def test_bad_lambda(self, mats3c):
        with pytest.raises(BadLambda):
            check_axis(mats3c.axes[0], Fraction(1))
        with pytest.raises(BadLambda):
            check_axis(mats3c.axes[0], Fraction(0))

    def test_unit_not_lambda_axis(self, toric):
        # spectrum {1} only: semisimple, but not primitive (A_1 is everything)
        rep = check_axis(toric.u, HALF)
        assert rep.is_axis and not rep.primitive

    def test_decomposition_dimension_sum(self, mats3c, toric):
        for A, axes in ((mats3c.algebra, mats3c.axes), (toric.algebra, [toric.idempotent(2)])):
            for ax in axes:
                rep = check_axis(ax, HALF)
                assert rep.is_axis
                total = sum(len(v) for v in rep.eigen.eigenspaces.values())
                assert total == A.dim

    def test_infer_lambda(self, mats3c, toric):
        assert infer_lambda(mats3c.axes[0]) == HALF
        assert infer_lambda(toric.idempotent(5)) == HALF
        assert infer_lambda(toric.u) is None


class TestFusion:
    def test_half_vector_square(self, toric):
        # (eps e - eps^-1 f)^2 = -u/4 lies in A_{0,1}
        eps = Fraction(3)
        x = toric.idempotent(eps)
        v = eps * toric.e - (1 / eps) * toric.f
        assert v * v == Fraction(-1, 4) * toric.u
        ed = eigen_decompose(x)
        verdicts = check_fusion(x, HALF, ed)
        assert verdicts.pre_jordan and verdicts.all_jordan

    def test_a0_idempotent_square(self, toric):
        x = toric.idempotent(2)
        ed = eigen_decompose(x)
        (w,) = ed.space(Fraction(0))
        # A_0 is spanned by the complementary idempotent u - x
        assert spans_equal(QQ, [w], [toric.u - x])
        assert is_idempotent(toric.u - x)

    def test_all_verdicts_3c(self, mats3c):
        for ax in mats3c.axes:
            verdicts = check_fusion(ax, HALF)
            assert verdicts.all_jordan


class TestComponentRecovery:
    def test_3c_closed_forms(self, mats3c):
        a, b, c = mats3c.axes
        comp = component_recovery(a, b, [HALF])
        assert comp.y1 == Fraction(1, 4) * a
        assert comp.y0 == HALF * (b + c - HALF * a)
        assert comp.part(HALF) == HALF * (b - c)

    def test_axis_itself(self, mats3c):
        a = mats3c.axes[0]
        comp = component_recovery(a, a, [HALF])
        assert comp.y1 == a and comp.y0.is_zero() and comp.part(HALF).is_zero()

    def test_zero_eigenvector(self, mats3c):
        a, b, c = mats3c.axes
        y = b + c - HALF * a
        comp = component_recovery(a, y, [HALF])
        assert comp.y1.is_zero() and comp.part(HALF).is_zero() and comp.y0 == y

    def test_components_sum_and_project(self, mats3c, toric):
        for A, axes in ((mats3c.algebra, list(mats3c.axes)),
                        (toric.algebra, [toric.idempotent(e) for e in (1, 2)])):
            for ax in axes:
                ed = eigen_decompose(ax)
                for y in A.basis():
                    comp = component_recovery(ax, y, [HALF])
                    assert comp.y1 + comp.y0 + comp.part(HALF) == y
                    assert ax * comp.y1 == comp.y1
                    assert (ax * comp.y0).is_zero()
                    assert ax * comp.part(HALF) == HALF * comp.part(HALF)

    def test_two_eigenvalue_vandermonde(self, mats3c):
        # direct sum with a 3C(1/3) copy: spectrum {0, 1, 1/2, 1/3}
        from axial import matsuo_from_triple_system

        other = matsuo_from_triple_system((["p", "q", "r"], [["p", "q", "r"]]), Fraction(1, 3))
        D = direct_sum(mats3c.algebra, other.algebra)
        a = D.element([1, 0, 0, 1, 0, 0])
        assert is_idempotent(a)
        S = [HALF, Fraction(1, 3)]
        for y in D.basis():
            comp = component_recovery(a, y, S)
            total = comp.y1 + comp.y0
            for mu in S:
                total = total + comp.part(mu)
            assert total == y
            assert a * comp.y1 == comp.y1
            assert (a * comp.y0).is_zero()
            for mu in S:
                assert a * comp.part(mu) == mu * comp.part(mu)

    def test_repeated_eigenvalue_rejected(self, mats3c):
        with pytest.raises(SingularVandermonde):
            component_recovery(mats3c.axes[0], mats3c.axes[1], [HALF, HALF])

    def test_not_an_axis(self, toric):
        with pytest.raises(NotAnAxis):
            component_recovery(toric.e, toric.f, [HALF])


class TestAxfreeSpans:
    def test_a1_and_a0_expressions(self, mats3c, toric):
        lam = HALF
        for A, axes in ((mats3c.algebra, list(mats3c.axes)),
                        (toric.algebra, [toric.idempotent(e) for e in (1, 2, 3)])):
            for a in axes:
                ed = eigen_decompose(a)
                a1 = ed.space(Fraction(1))
                a0 = ed.space(Fraction(0))
                for y in A.basis():
                    v1 = a * (a * y - lam * y)
                    assert span_contains(A.field, [u.coeffs for u in a1], v1.coeffs)
                    v0 = y + (1 / lam) * (a * (a * y)) - ((1 + lam) / lam) * (a * y)
                    assert span_contains(A.field, [u.coeffs for u in a0], v0.coeffs)


class TestMiyamoto:
    def test_3c_swaps(self, mats3c):
        a, b, c = mats3c.axes
        tau = miyamoto(a, HALF)
        assert tau.apply(b) == c and tau.apply(c) == b and tau.apply(a) == a
        assert tau.is_automorphism

    def test_involution_everywhere(self, mats3c, toric):
        for a in list(mats3c.axes) + [toric.idempotent(e) for e in (1, 2, -1)]:
            tau = miyamoto(a, HALF)
            eye = Matrix.identity(a.algebra.field, a.algebra.dim)
            assert tau.matrix @ tau.matrix == eye

    def test_fixes_a01_negates_alam(self, toric):
        x = toric.idempotent(2)
        tau = miyamoto(x, HALF)
        ed = eigen_decompose(x)
        for v in ed.space_01():
            assert tau.apply(v) == v
        for v in ed.space(HALF):
            assert tau.apply(v) == -v

    def test_half_lambda_formulas(self, mats3c, toric):
        # ay = (lam/2)(y - tau y) + (a,y) a  and  tau y = y + (2/lam)(a,y)a - (2/lam)ay
        lam = HALF
        for ma, form in ((mats3c, mats3c.form),):
            A = ma.algebra
            for a in ma.axes:
                tau = miyamoto(a, lam)
                for y in A.basis():
                    ty = tau.apply(y)
                    assert a * y == (lam / 2) * (y - ty) + form.value(a, y) * a
                    assert ty == y + (2 / lam) * form.value(a, y) * a - (2 / lam) * (a * y)
        for a in [toric.idempotent(e) for e in (1, 2, 3)]:
            tau = miyamoto(a, lam)
            for y in toric.algebra.basis():
                ty = tau.apply(y)
                assert a * y == (lam / 2) * (y - ty) + toric.form.value(a, y) * a

    def test_lambda_component_from_involution(self, mats3c):
        # y_lam = (y - tau y)/2, the definitional identity
        a = mats3c.axes[0]
        tau = miyamoto(a, HALF)
        for y in mats3c.algebra.basis():
            comp = component_recovery(a, y, [HALF])
            assert comp.part(HALF) == HALF * (y - tau.apply(y))

    def test_average_with_involution_is_01_projection(self, mats3c):
        # (y + tau y)/2 is the A_{0,1} projection, not a*y: the product form
        # of this statement fails (documents the corrected reading)
        a, b, c = mats3c.axes
        tau = miyamoto(a, HALF)
        for y in mats3c.algebra.basis():
            comp = component_recovery(a, y, [HALF])
            assert HALF * (y + tau.apply(y)) == comp.y1 + comp.y0
        assert a * b != HALF * (b + tau.apply(b))

    def test_fusion_implies_automorphism(self, mats3c, toric):
        # pre-Jordan verdicts (a)-(c) imply the automorphism flag
        for a in list(mats3c.axes) + [toric.idempotent(e) for e in (1, 2)]:
            rep = check_axis(a, HALF)
            assert rep.fusion.all_pre_jordan
            assert rep.miyamoto_is_automorphism

    def test_not_axis_rejected(self, toric):
        with pytest.raises(NotAnAxis):
            miyamoto(toric.e, HALF)


class TestAxisOrbit:
    def test_3c_closed(self, mats3c):
        a, b, c = mats3c.axes
        orbit = axis_orbit([a, b, c], HALF, max_size=50)
        assert sorted(x.coeffs for x in orbit) == sorted(x.coeffs for x in mats3c.axes)

    def test_3c_from_two_points(self, mats3c):
        orbit = axis_orbit(list(mats3c.axes[:2]), HALF, max_size=50)
        assert len(orbit) == 3

    def test_single_axis(self, mats3c):
        assert axis_orbit([mats3c.axes[0]], HALF, max_size=10) == [mats3c.axes[0]]

    def test_toric_pair_overflows(self, toric):
        # solved pair value (x_1, x_2) = 9/8: the involution product has
        # infinite order, so the closure blows past any cap
        with pytest.raises(OrbitOverflow) as exc:
            axis_orbit([toric.idempotent(1), toric.idempotent(2)], HALF, max_size=50)
        assert len(exc.value.partial) == 50

    def test_flat_pair_overflows(self):
        tg = universal_2gen(HALF, Fraction(0))
        with pytest.raises(OrbitOverflow):
            axis_orbit(list(tg.axes), HALF, max_size=50)

    def test_pair_value_half_closes_at_four(self):
        # documented deviation from the acceptance wording: at (a,b) = 1/2
        # tau_a tau_b has order 2 and the closure is {a, b, -b-4s, -a-4s}
        tg = universal_2gen(HALF, HALF)
        a, b = tg.axes
        orbit = axis_orbit([a, b], HALF, max_size=50)
        assert len(orbit) == 4
        coeffs = {x.coeffs for x in orbit}
        assert (Fraction(0), Fraction(-1), Fraction(-4)) in coeffs
        assert (Fraction(-1), Fraction(0), Fraction(-4)) in coeffs
        # and the orbit really is closed under every member's involution
        for s in orbit:
            tau = miyamoto(s, HALF)
            for y in orbit:
                assert tau.apply(y).coeffs in coeffs

    def test_non_axis_input_rejected(self, toric):
        with pytest.raises(NotAnAxis):
            axis_orbit([toric.e], HALF, max_size=10)


class TestSeress:
    def test_3c(self, mats3c):
        for a in mats3c.axes:
            assert seress_check(a, HALF)

    def test_toric_family(self, toric):
        for eps in (1, 2, Fraction(5, 7)):
            assert seress_check(toric.idempotent(eps), HALF)

    def test_one_dimensional_vacuous(self):
        from axial import make_algebra

        A = make_algebra(QQ, 1, ["b"], [[[Fraction(1)]]])
        assert seress_check(A.basis_element(0), HALF)

    def test_non_jordan_axes(self):
        from axial import make_algebra

        o, z, h = Fraction(1), Fraction(0), HALF
        # a x = 0 and x x = a: A_0 * A_0 leaves A_0, and only the a(y_0 z_0)
        # term makes a(xx) = (ax)x + a(x_0 x_0) hold
        A = make_algebra(QQ, 2, ["a", "x"], [[[o, z], [z, z]], [[z, z], [o, z]]])
        assert not check_fusion(A.basis_element(0), HALF).jordan_a0
        assert seress_check(A.basis_element(0), HALF)
        # a w = w/2, a z = 0 and w z = a break A_0 * A_lam in A_lam; with
        # y = w the identity reads a = a(wz) = (aw)z + a(w_0 z_0) = a/2
        structure = [
            [[o, z, z], [z, h, z], [z, z, z]],
            [[z, h, z], [z, z, z], [o, z, z]],
            [[z, z, z], [o, z, z], [z, z, z]],
        ]
        A = make_algebra(QQ, 3, ["a", "w", "z"], structure)
        assert check_axis(A.basis_element(0), HALF).is_axis
        assert not seress_check(A.basis_element(0), HALF)

    def test_rejections(self, mats3c, toric):
        # lam in {0, 1}: an axis with a 1/2-eigenvector fails the spectrum
        # test, one with spectrum in {0, 1} reaches the recovery system
        for lam in (Fraction(0), Fraction(1)):
            with pytest.raises(NotAnAxis):
                seress_check(mats3c.axes[0], lam)
            with pytest.raises(SingularVandermonde):
                seress_check(toric.u, lam)
        with pytest.raises(NotAnAxis):
            seress_check(toric.e, HALF)


# ---------------------------------------------------------------------------
# differential test against the per-coordinate Vandermonde solves that
# component_recovery ran before Coordinates
# ---------------------------------------------------------------------------


def reference_components(a, y, S):
    A = a.algebra
    field = A.field
    mus = [field.one] + list(S)
    t = len(mus)

    def power(mu, j):
        acc = field.one
        for _ in range(j):
            acc = acc * mu
        return acc

    V = Matrix(field, [[power(mu, j) for mu in mus] for j in range(1, t + 1)])
    powers = []
    cur = y
    for _ in range(t):
        cur = a * cur
        powers.append(cur)
    comps = [[field.zero] * A.dim for _ in range(t)]
    for k in range(A.dim):
        sol = reference_solve(V, [p.coeffs[k] for p in powers])
        for i in range(t):
            comps[i][k] = sol[i]
    comps = [A.element(c) for c in comps]
    parts = {mu: comps[i + 1] for i, mu in enumerate(S)}
    y0 = y - comps[0]
    for c in parts.values():
        y0 = y0 - c
    return comps[0], y0, parts


@pytest.fixture(scope="module")
def recovery_axes(mats3c, toric, h3):
    half7 = F7.one / F7.from_int(2)
    m3c7 = matsuo_from_triple_system((["a", "b", "c"], [["a", "b", "c"]]), half7, F7)
    _torqe, generic = toric.symbolic_family()
    return {
        "Q": [(mats3c.axes[0], HALF), (toric.idempotent(2), HALF), (h3[0].basis_element(0), HALF)],
        "F7": [(m3c7.axes[1], half7), (toric_euf(F7).idempotent(3), half7)],
        "Qt": [(generic, generic.algebra.field.from_fraction(HALF))],
    }


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_component_recovery_against_reference(recovery_axes, data):
    kind = data.draw(st.sampled_from(sorted(recovery_axes)))
    a, lam = data.draw(st.sampled_from(recovery_axes[kind]))
    A, field = a.algebra, a.algebra.field
    extra = [field.from_int(k) for k in (3, -1, 5)]
    if kind != "F7":  # 1/3 = 5 in F7
        extra.append(field.one / field.from_int(3))
    S = data.draw(st.lists(st.sampled_from(extra), min_size=1, max_size=2, unique=True)) + [lam]
    S = data.draw(st.permutations(S))
    y = A.element(data.draw(st.lists(FIELD_VALUES[kind], min_size=A.dim, max_size=A.dim)))
    comp = component_recovery(a, y, S)
    y1, y0, parts = reference_components(a, y, S)
    assert (comp.y1, comp.y0, comp.by_eigenvalue) == (y1, y0, parts)


# ---------------------------------------------------------------------------
# differential test against the product over the computed spectrum that
# miyamoto used to build tau before the Lagrange rule
# ---------------------------------------------------------------------------


def reference_miyamoto_matrix(a, lam):
    A = a.algebra
    field = A.field
    eigen = eigen_decompose(a)
    eye = Matrix.identity(field, A.dim)
    L = a.left_multiplication_matrix()
    proj = eye
    denom = field.one
    for mu in eigen.eigenvalues:
        if mu == lam:
            continue
        proj = proj @ (L - eye.scaled(mu))
        denom = denom * (lam - mu)
    return eye - proj.scaled(field.from_int(2) / denom)


def test_miyamoto_matrix_against_reference(recovery_axes, toric):
    # the unit has spectrum {1}, so lam lies outside it and tau is 1
    cases = [(kind, a, lam) for kind in recovery_axes for a, lam in recovery_axes[kind]]
    for kind, a, lam in cases + [("unit", toric.u, HALF)]:
        assert miyamoto(a, lam).matrix == reference_miyamoto_matrix(a, lam), kind


# ---------------------------------------------------------------------------
# differential test against the pairwise automorphism check that miyamoto ran
# before it read its verdict from the fusion grading
# ---------------------------------------------------------------------------


def reference_is_automorphism(A, T):
    n = A.dim
    images = [A.element(T.column(j)) for j in range(n)]
    for i in range(n):
        bi = A.basis_element(i)
        for j in range(i, n):
            lhs = A.element(T.apply(list((bi * A.basis_element(j)).coeffs)))
            if lhs != images[i] * images[j]:
                return False
    return True


S4_POINTS = ["12", "13", "14", "23", "24", "34"]
S4_LINES = [["12", "13", "23"], ["12", "14", "24"], ["13", "14", "34"], ["23", "24", "34"]]


@pytest.fixture(scope="module")
def fixture_axes(mats3c, toric, h3):
    half7 = F7.one / F7.from_int(2)
    _tor_eps, generic = toric.symbolic_family()
    s4 = matsuo_from_triple_system((S4_POINTS, S4_LINES), HALF)
    s4_f7 = matsuo_from_triple_system((S4_POINTS, S4_LINES), half7, F7)
    H3 = h3[0]
    return (
        [(a, HALF) for a in mats3c.axes]
        + [(a, HALF) for a in s4.axes]
        + [(a, half7) for a in s4_f7.axes]
        + [(toric.idempotent(e), HALF) for e in (1, 2, Fraction(-3, 7))]
        + [(generic, generic.algebra.field.from_fraction(HALF))]
        + [(a, HALF) for a in universal_2gen(HALF, Fraction(1, 8)).axes]
        + [(H3.basis_element(i), HALF) for i in range(3)]
    )


def test_automorphism_verdict_matches_pairwise_reference(fixture_axes):
    assert len(fixture_axes) == 24
    for a, lam in fixture_axes:
        tau = miyamoto(a, lam)
        rep = check_axis(a, lam)
        want = reference_is_automorphism(a.algebra, tau.matrix)
        assert tau.is_automorphism == rep.miyamoto_is_automorphism == want
        assert rep.miyamoto.matrix == tau.matrix and rep.fusion == tau.fusion


def hand_built_axis(names, products, axis):
    """The element with coefficients axis of the algebra over Q on names whose
    nonzero products of basis vectors are listed as {(x, y): {z: coefficient}}."""
    n = len(names)
    at = {name: k for k, name in enumerate(names)}
    structure = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for (x, y), terms in products.items():
        for z, c in terms.items():
            structure[at[x]][at[y]][at[z]] = structure[at[y]][at[x]][at[z]] = Fraction(c)
    return make_algebra(QQ, n, names, structure).element(axis)


# each axis (lam = 1/2) breaks exactly the named one of the fusion rules
# (a)-(c), so its Miyamoto map is an involution but not an automorphism; the
# last one has A_1 = span(e1, e2), so the products of A_1 are checked too
NON_GRADED = {
    "pre_jordan": (["a", "w"], {("a", "a"): {"a": 1}, ("a", "w"): {"w": HALF}, ("w", "w"): {"w": 1}},
                   [1, 0]),
    "a01_subalgebra": (["a", "u", "w"],
                       {("a", "a"): {"a": 1}, ("a", "w"): {"w": HALF}, ("u", "u"): {"w": 1}}, [1, 0, 0]),
    "module_rule": (["a", "u", "w"],
                    {("a", "a"): {"a": 1}, ("a", "w"): {"w": HALF}, ("u", "w"): {"u": 1}}, [1, 0, 0]),
    "module_rule_in_a1": (["e1", "e2", "u", "w"],
                          {("e1", "e1"): {"e1": 1}, ("e2", "e2"): {"e2": 1},
                           ("e1", "w"): {"w": HALF, "e2": -1}, ("e2", "w"): {"e2": 1}}, [1, 1, 0, 0]),
}


@pytest.mark.parametrize("case", sorted(NON_GRADED))
def test_non_graded_axis_is_not_an_automorphism(case):
    a = hand_built_axis(*NON_GRADED[case])
    tau = miyamoto(a, HALF)
    rep = check_axis(a, HALF)
    assert rep.is_axis and rep.primitive == (case != "module_rule_in_a1")
    assert not reference_is_automorphism(a.algebra, tau.matrix)
    assert tau.is_automorphism is False and rep.miyamoto_is_automorphism is False
    broken = [k for k in ("a01_subalgebra", "module_rule", "pre_jordan") if not getattr(tau.fusion, k)]
    assert broken == [case.replace("_in_a1", "")]


def test_non_graded_axis_rejected_by_orbit_and_cli(tmp_path, capsys):
    a = hand_built_axis(*NON_GRADED["pre_jordan"])
    with pytest.raises(NotAnAxis):
        axis_orbit([a], HALF)
    path = tmp_path / "non_graded.json"
    save_algebra(a.algebra, path)
    argv = ["miyamoto", "--algebra", str(path), "--element", '["1","0"]', "--lambda", "1/2"]
    assert main(argv) == 1
    assert "[FAIL] automorphism" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# check_axis where semisimple, ax1_holds and is_axis part ways: hand-built
# idempotents whose minimal polynomial is not squarefree, does not split, or
# splits outside {0, 1, lam}, over Q, F_7 and Q(t)
# ---------------------------------------------------------------------------


def built_over(field, names, products, axis):
    """hand_built_axis over any field: an int or Fraction coefficient is read
    into the field, any other is taken as a value of it."""
    def value(c):
        return field.from_fraction(Fraction(c)) if isinstance(c, (int, Fraction)) else c

    n = len(names)
    at = {name: k for k, name in enumerate(names)}
    structure = [[[field.zero] * n for _ in range(n)] for _ in range(n)]
    for (x, y), terms in products.items():
        for z, c in terms.items():
            structure[at[x]][at[y]][at[z]] = structure[at[y]][at[x]][at[z]] = value(c)
    return make_algebra(field, n, names, structure).element([value(c) for c in axis])


def _spectrum_cases(field):
    """name -> (names, products, axis, semisimple, ax1_holds, is_axis,
    complete); a * a = a throughout."""
    if field == QT:
        s1, s2 = QT.variable(), QT.variable() + QT.one
    else:
        s1, s2 = 2, 3
    unit = {("a", "a"): {"a": 1}}
    return {
        # L_a = diag(1, J_{1/2}): mp = (x - 1)(x - 1/2)^2
        "jordan_at_half": (["a", "v", "w"], {**unit, ("a", "v"): {"v": HALF},
                                             ("a", "w"): {"w": HALF, "v": 1}},
                           [1, 0, 0], False, False, False, False),
        # L_a = diag(1, rotation): mp = (x - 1)(x^2 + 1), with no root i
        "rotation": (["a", "v", "w"], {**unit, ("a", "v"): {"w": 1}, ("a", "w"): {"v": -1}},
                     [1, 0, 0], True, False, False, False),
        # L_a = diag(1, s1, s2): squarefree, split, outside {0, 1, 1/2}
        "split_outside": (["a", "v", "w"], {**unit, ("a", "v"): {"v": s1}, ("a", "w"): {"w": s2}},
                          [1, 0, 0], True, False, False, True),
        # the unit of F e + F f: mp = x - 1
        "unit": (["e", "f"], {("e", "e"): {"e": 1}, ("f", "f"): {"f": 1}},
                 [1, 1], True, True, True, True),
    }


def _f7_cases():
    """Over F_7, a * w_k = k w_k for k in F_7: mp = x^7 - x, of degree p and
    squarefree though its derivative is -1; in the variant, a * w6 = 5 w6 + w5
    makes mp = x (x - 1) ... (x - 4) (x - 5)^2, of degree p too."""
    names = ["a"] + [f"w{k}" for k in range(7)]
    axis = [1] + [0] * 7
    eigen = {("a", "a"): {"a": 1}, **{("a", f"w{k}"): {f"w{k}": k} for k in range(1, 7)}}
    jordan = {**eigen, ("a", "w6"): {"w6": 5, "w5": 1}}
    return {
        "all_of_f7": (names, eigen, axis, True, False, False, True),
        "all_of_f7_jordan": (names, jordan, axis, False, False, False, False),
    }


SPECTRUM_CASES = [(name, fname) for fname in ("Q", "F7", "Qt")
                  for name in _spectrum_cases(FIELDS[fname])]
SPECTRUM_CASES += [(name, "F7") for name in _f7_cases()]


@pytest.mark.parametrize("case,fname", SPECTRUM_CASES, ids=[f"{c}-{f}" for c, f in SPECTRUM_CASES])
def test_check_axis_spectrum_corner_cases(case, fname):
    field = FIELDS[fname]
    cases = {**_spectrum_cases(field), **(_f7_cases() if fname == "F7" else {})}
    names, products, axis, semisimple, ax1, is_axis, complete = cases[case]
    a = built_over(field, names, products, axis)
    rep = check_axis(a, field.from_fraction(HALF))
    assert rep.is_idempotent
    assert (rep.semisimple, rep.ax1_holds, rep.is_axis, rep.eigen.complete) == (
        semisimple, ax1, is_axis, complete)


@pytest.mark.parametrize("fname", ["Q", "F7", "Qt"])
def test_seress_lambda_in_01_over_every_field(fname):
    # as TestSeress::test_rejections pins over Q: with lam in {0, 1} the
    # nodes {0, 1, lam} repeat one, which must count once
    field = FIELDS[fname]
    with_half = built_over(field, ["a", "v", "w"],
                           {("a", "a"): {"a": 1}, ("a", "w"): {"w": HALF}}, [1, 0, 0])
    spectrum_01 = built_over(field, ["a", "v"], {("a", "a"): {"a": 1}}, [1, 0])
    for lam in (field.zero, field.one):
        with pytest.raises(NotAnAxis):
            seress_check(with_half, lam)
        with pytest.raises(SingularVandermonde):
            seress_check(spectrum_01, lam)


# ---------------------------------------------------------------------------
# differential test: the root count and the Sylvester determinant against
# the polynomial division and Euclidean gcd on field values they replaced
# ---------------------------------------------------------------------------

# x^2 + 1 has no root in Q or F_7 (7 = 3 mod 4), and x^2 - t none in Q(t)
IRREDUCIBLE_QUADRATIC = {
    "Q": (Fraction(1), Fraction(0), Fraction(1)),
    "F7": (F7.one, F7.zero, F7.one),
    "Qt": (-QT.variable(), QT.zero, QT.one),
}
SPLIT_ROOTS = {  # values to draw distinct roots from, and how many at most
    "Q": (st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2])), 4),
    "F7": (st.builds(F7.from_int, st.integers(0, 6)), 7),
    "Qt": (st.builds(lambda a, b: QT.from_int(a) + QT.from_int(b) * QT.variable(),
                     st.integers(-2, 2), st.integers(-1, 1)), 2),
}


def _poly_times(field, f, g):
    out = [field.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + a * b
    return out


@settings(deadline=None)
@given(fname=st.sampled_from(["Q", "F7", "Qt"]), data=st.data())
def test_spectrum_tests_against_polynomial_division(fname, data):
    field = FIELDS[fname]
    values, most = SPLIT_ROOTS[fname]
    roots = data.draw(st.lists(values, unique=True, max_size=most))
    mults = [data.draw(st.integers(1, 2)) for _ in roots]
    quadratic = data.draw(st.integers(0, 2 if fname != "Qt" else 1))
    mp = _root_poly(field, [r for r, k in zip(roots, mults) for _ in range(k)])
    for _ in range(quadratic):
        mp = _poly_times(field, mp, IRREDUCIBLE_QUADRATIC[fname])
    mp = tuple(mp)
    assert _is_squarefree(field, mp) == poly_is_squarefree(mp) == (max(mults + [quadratic]) <= 1)
    # nodes: some of the roots and other values, with repeats
    nodes = data.draw(st.lists(st.sampled_from(roots), max_size=8)) if roots else []
    nodes = data.draw(st.permutations(nodes + data.draw(st.lists(values, max_size=3))))
    distinct = list(dict.fromkeys(nodes))
    assert _divides_root_poly(mp, nodes) == poly_divides(mp, _root_poly(field, distinct))


@pytest.mark.parametrize("k", [6, 7, 8])
def test_squarefree_when_p_divides_the_degree(k):
    # prod (x - j) over j < k in F_7, alone (squarefree) and times x - 1
    roots = [F7.from_int(j) for j in range(k)]
    mp, twice = tuple(_root_poly(F7, roots)), tuple(_root_poly(F7, roots + [F7.one]))
    assert _is_squarefree(F7, mp) == poly_is_squarefree(mp) is (k <= 7)
    assert _is_squarefree(F7, twice) == poly_is_squarefree(twice) is False


# ---------------------------------------------------------------------------
# differential tests of Horner's rule and of tau on lifted entries against
# the field-value code they replaced, kept verbatim as the reference
# ---------------------------------------------------------------------------


def reference_poly_at(poly, L):
    """poly(L) by Horner's rule, with deg(poly) - 1 matrix products."""
    acc = L.scaled(poly[-1])
    for j, c in enumerate(reversed(poly[:-1])):
        if j:
            acc = acc @ L
        for i, row in enumerate(acc.rows):  # acc is freshly built: add c*I in place
            row[i] = row[i] + c
    return acc


def reference_involution(L, lam):
    """tau = 1 - 2*l_lam(L) as miyamoto built it, and whether tau^2 = 1."""
    field = L.field
    eye = Matrix.identity(field, L.nrows)
    ell = _lagrange(field, [field.zero, field.one, lam], lam)
    T = eye - reference_poly_at(ell, L).scaled(field.from_int(2))
    return T, (T @ T) == eye


F101 = PrimeField(101)
OPERATOR_FIELDS = dict(FIELDS, F101=F101)
OPERATOR_VALUES = dict(FIELD_VALUES, F101=st.builds(F101.from_int, st.sampled_from([0, 0, 1, -1, 2, 50, 100])))


@st.composite
def operator_cases(draw):
    """A square matrix L with n <= 4, a polynomial of degree <= 3 and lam
    outside {0, 1}; half the matrices are diagonal with entries in
    {0, 1, lam}, so that tau is an involution."""
    kind = draw(st.sampled_from(sorted(OPERATOR_FIELDS)))
    field, values = OPERATOR_FIELDS[kind], OPERATOR_VALUES[kind]
    n = draw(st.integers(1, 4))
    lam = draw(values.filter(lambda x: x != field.zero and x != field.one))
    if draw(st.booleans()):
        rows = draw(st.lists(st.lists(values, min_size=n, max_size=n), min_size=n, max_size=n))
    else:
        diag = draw(st.lists(st.sampled_from([field.zero, field.one, lam]), min_size=n, max_size=n))
        rows = [[diag[i] if i == j else field.zero for j in range(n)] for i in range(n)]
    return Matrix(field, rows), draw(st.lists(values, min_size=2, max_size=4)), lam


@settings(max_examples=120, deadline=None)
@given(operator_cases())
def test_lifted_horner_and_involution_against_field_values(case):
    L, poly, lam = case
    field = L.field
    rows, s = _poly_at(poly, L)
    assert _typed([read_lifted(field, row, s) for row in rows]) == _typed(reference_poly_at(poly, L).rows)
    T, e = _involution(L, lam)
    ref_T, ref_involutive = reference_involution(L, lam)
    assert _typed([read_lifted(field, row, e) for row in T]) == _typed(ref_T.rows)
    assert _is_involution(_sparse(T, field.char), e, field) is ref_involutive


def test_one_operator_and_three_minimal_polynomials_per_check(monkeypatch, toric):
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(axial.axes, "minimal_polynomial", counted("minpoly", minimal_polynomial))
    monkeypatch.setattr(Element, "left_multiplication_matrix",
                        counted("L_a", Element.left_multiplication_matrix))
    s4 = matsuo_from_triple_system((S4_POINTS, S4_LINES), HALF)
    _tor_eps, generic = toric.symbolic_family()
    for a, lam in [(toric.idempotent(2), HALF), (s4.axes[3], HALF),
                   (generic, generic.algebra.field.from_fraction(HALF))]:
        counts.clear()
        assert check_axis(a, lam).is_primitive_jordan_axis
        assert counts == {"L_a": 1, "minpoly": 3}
