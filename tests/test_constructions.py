import dataclasses
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest

from axial import (
    QQ,
    PrimeField,
    RationalFunctions,
    TripleSystem,
    check_axis,
    eigen_decompose,
    generate_subalgebra,
    holds_as_identity,
    builtin_identity,
    is_idempotent,
    jordan_symmetric_matrices,
    make_algebra,
    matsuo_from_triple_system,
    miyamoto,
    toric_euf,
    trace_form,
    universal_2gen,
)
from axial import constructions
from axial.axes import FusionVerdicts
from axial.errors import BadLambda, InvalidTripleSystem, SelfCheckFailed
from axial.linalg import span_contains
from conftest import transpositions

HALF = Fraction(1, 2)


class TestUniversal2Gen:
    def test_gamma_values(self):
        assert universal_2gen(HALF, Fraction(1, 4)).gamma == Fraction(-3, 8)
        assert universal_2gen(HALF, Fraction(0)).gamma == Fraction(-1, 2)
        # gamma = (1-lam)pi - lam vanishes exactly at pi = lam/(1-lam),
        # which for lam = 1/2 is the baric value pi = 1
        assert universal_2gen(HALF, Fraction(1)).gamma == 0

    def test_products(self):
        tg = universal_2gen(HALF, Fraction(1, 4))
        a, b = tg.axes
        s = tg.sigma
        assert a * b == s + HALF * a + HALF * b
        assert s * a == tg.gamma * a
        assert s * b == tg.gamma * b
        assert s * s == tg.gamma * s

    def test_axes_certified(self):
        for pi in (Fraction(0), Fraction(1, 8), Fraction(1, 3), Fraction(2), Fraction(1)):
            tg = universal_2gen(HALF, pi)
            for ax in tg.axes:
                rep = check_axis(ax, HALF)
                assert rep.is_primitive_jordan_axis
            assert tg.form.value(*tg.axes) == pi

    def test_lambda_third_matsuo_value_only(self):
        third = Fraction(1, 3)
        tg = universal_2gen(third, Fraction(1, 6))  # pi = lam/2
        assert check_axis(tg.axes[0], third).is_primitive_jordan_axis
        with pytest.raises(SelfCheckFailed):
            universal_2gen(third, Fraction(1, 4))

    def test_bad_lambda(self):
        with pytest.raises(BadLambda):
            universal_2gen(Fraction(1), Fraction(0))

    def test_flat_annihilating(self):
        tg = universal_2gen(HALF, Fraction(0), flat_annihilating=True)
        assert tg.gamma == 0
        assert (tg.sigma * tg.axes[0]).is_zero()
        assert (tg.sigma * tg.sigma).is_zero()
        # associativity forces (a,b) = 1 on this variant
        assert tg.pi == 1
        for ax in tg.axes:
            assert check_axis(ax, HALF).is_primitive_jordan_axis
        with pytest.raises(BadLambda):
            universal_2gen(HALF, Fraction(1, 8), flat_annihilating=True)

    def test_two_generated_span(self):
        # <<a, b>> is everything: words of length <= 2 already span
        tg = universal_2gen(HALF, Fraction(1, 8))
        sub = generate_subalgebra(list(tg.axes))
        assert sub.dim == 3


class TestToric:
    def test_family_member_is_idempotent(self, toric):
        x = toric.idempotent(1)
        assert x == toric.e + toric.f + HALF * toric.u
        assert is_idempotent(x)

    def test_unit(self, toric):
        for x in toric.algebra.basis():
            assert toric.u * x == x

    def test_family_eigenspace(self, toric):
        ed = eigen_decompose(toric.idempotent(2))
        vec = Fraction(2) * toric.e - HALF * toric.f
        assert span_contains(QQ, [v.coeffs for v in ed.space(HALF)], vec.coeffs)

    def test_symbolic_family_idempotent(self, toric):
        # one exact computation over Q(eps) proves idempotency for all eps != 0
        tor_eps, x = toric.symbolic_family()
        assert x * x == x
        rep = check_axis(x, tor_eps.algebra.field.from_fraction(HALF))
        assert rep.is_primitive_jordan_axis

    def test_form_values(self, toric):
        g = toric.form.gram.rows
        assert g[0][2] == Fraction(1, 4) and g[1][1] == 2
        assert toric.form.value(toric.idempotent(1), toric.idempotent(1)) == 1

    def test_over_prime_field(self):
        tor = toric_euf(PrimeField(7))
        F7 = tor.algebra.field
        x = tor.idempotent(F7.from_int(3))
        assert is_idempotent(x)
        assert check_axis(x, F7.parse("1/2")).is_primitive_jordan_axis


class TestTripleSystem:
    def test_single_line(self):
        ts = TripleSystem(points=["a", "b", "c"], lines=[["a", "b", "c"]])
        assert ts.third_point("a", "b") == "c"
        assert ts.collinear("b", "c")

    def test_rejects_two_lines_through_pair(self):
        with pytest.raises(InvalidTripleSystem):
            TripleSystem(points=["a", "b", "c", "d"],
                         lines=[["a", "b", "c"], ["a", "b", "d"]])

    def test_rejects_bad_lines(self):
        with pytest.raises(InvalidTripleSystem):
            TripleSystem(points=["a", "b"], lines=[["a", "b"]])
        with pytest.raises(InvalidTripleSystem):
            TripleSystem(points=["a", "b", "c"], lines=[["a", "b", "x"]])
        with pytest.raises(InvalidTripleSystem):
            TripleSystem(points=["a", "a", "b"], lines=[])


class TestMatsuo:
    def test_3c_products(self, mats3c):
        a, b, c = mats3c.axes
        assert a * b == Fraction(1, 4) * (a + b - c)
        assert a * a == a

    def test_orthogonal_two_points(self):
        ma = matsuo_from_triple_system((["p", "q"], []), HALF)
        p, q = ma.axes
        assert (p * q).is_zero()
        assert ma.form.value(p, q) == 0

    def test_form_values(self, mats3c):
        a, b, c = mats3c.axes
        for x, y in ((a, b), (a, c), (b, c)):
            assert mats3c.form.value(x, y) == HALF / 2

    def test_tau_realizes_third_point(self, mats3c):
        a, b, c = mats3c.axes
        assert miyamoto(a, HALF).apply(b) == c

    def test_every_point_primitive(self, mats3c):
        for p in mats3c.axes:
            rep = check_axis(p, HALF)
            assert rep.is_primitive_jordan_axis

    def test_lambda_third(self):
        third = Fraction(1, 3)
        ma = matsuo_from_triple_system((["a", "b", "c"], [["a", "b", "c"]]), third)
        a, b, c = ma.axes
        assert a * b == third / 2 * (a + b - c)
        assert check_axis(a, third).is_primitive_jordan_axis

    def test_transposition_system(self):
        # the 6 transpositions of a 4-element set: lines are the triples
        # within each 3-subset; every intersecting line pair extends to this
        # configuration, so all self-checks pass
        pts = ["12", "13", "14", "23", "24", "34"]
        lines = [["12", "13", "23"], ["12", "14", "24"], ["13", "14", "34"], ["23", "24", "34"]]
        ma = matsuo_from_triple_system((pts, lines), HALF)
        i = {p: k for k, p in enumerate(pts)}
        tau = miyamoto(ma.axes[i["12"]], HALF)
        assert tau.apply(ma.axes[i["13"]]) == ma.axes[i["23"]]
        assert tau.apply(ma.axes[i["34"]]) == ma.axes[i["34"]]
        assert (ma.axes[i["12"]] * ma.axes[i["34"]]).is_zero()

    def test_bowtie_rejected(self):
        # two lines through one shared point form a partial linear space but
        # not a Fischer configuration: (bd, a) = 0 != (b, da) kills the form,
        # and the tau maps would not be automorphisms
        with pytest.raises(SelfCheckFailed):
            matsuo_from_triple_system(
                (["a", "b", "c", "d", "e"], [["a", "b", "c"], ["a", "d", "e"]]), HALF)

    def test_miyamoto_permutes_points(self, mats3c):
        coeff_set = {p.coeffs for p in mats3c.axes}
        for p in mats3c.axes:
            tau = miyamoto(p, HALF)
            for q in mats3c.axes:
                assert tau.apply(q).coeffs in coeff_set


def _ag23():
    points = [(x, y) for x in range(3) for y in range(3)]
    lines = {frozenset((p, q, ((-p[0] - q[0]) % 3, (-p[1] - q[1]) % 3))) for p, q in combinations(points, 2)}
    return [f"p{x}{y}" for x, y in points], [[f"p{x}{y}" for x, y in line] for line in lines]


F7 = PrimeField(7)
# (triple system, lam, field, number of orbits of the transporting group)
TRANSPORT_CASES = {
    "3C": ((["a", "b", "c"], [["a", "b", "c"]]), HALF, QQ, 1),
    "S4@1/2": (transpositions(4), HALF, QQ, 1),
    "S4@1/4": (transpositions(4), Fraction(1, 4), QQ, 1),
    "S4@-1/2": (transpositions(4), Fraction(-1, 2), QQ, 1),
    "S5": (transpositions(5), HALF, QQ, 1),
    "AG(2,3)": (_ag23(), HALF, QQ, 1),
    "S4 over F7": (transpositions(4), F7.parse("1/2"), F7, 1),
    "two disjoint lines": ((list("abcdef"), [list("abc"), list("def")]), HALF, QQ, 2),
}


class TestMiyamotoTransport:
    @pytest.mark.parametrize("case", TRANSPORT_CASES)
    def test_transported_maps_match_fresh_miyamoto(self, case, monkeypatch):
        ts, lam, field, orbits = TRANSPORT_CASES[case]
        ma = matsuo_from_triple_system(ts, lam, field)
        direct = []

        def counted(a, lam):
            direct.append(a)
            return check_axis(a, lam)

        monkeypatch.setattr(constructions, "check_axis", counted)
        taus = constructions._miyamoto_permutations(ma.triple_system, ma.axes, ma.lam)
        assert len(direct) == orbits
        index = {a.coeffs: i for i, a in enumerate(ma.axes)}
        for p, tau in zip(ma.axes, taus):
            fresh = miyamoto(p, ma.lam)
            assert tau == tuple(index[fresh.apply(q).coeffs] for q in ma.axes)

    def test_failed_verdict_transports_nothing(self, monkeypatch):
        # the first point's report says its Miyamoto map is no automorphism,
        # so the build stops there, before its orbit is certified
        bad = FusionVerdicts(a01_subalgebra=True, module_rule=True, pre_jordan=False, jordan_a0=True)
        calls = []

        def lying(a, lam):
            calls.append(a)
            rep = check_axis(a, lam)
            return dataclasses.replace(rep, fusion=bad, miyamoto=dataclasses.replace(rep.miyamoto, fusion=bad))

        monkeypatch.setattr(constructions, "check_axis", lying)
        with pytest.raises(SelfCheckFailed, match="not a primitive Jordan-type axis"):
            matsuo_from_triple_system(transpositions(4), HALF)
        assert len(calls) == 1

    def test_line_breaking_involution_transports_nothing(self, monkeypatch):
        # on the Fano plane no sigma_x maps lines to lines, so each point gets
        # its own check, even when every check passes (here a stand-in report
        # whose map induces sigma_x)
        names = [str(i) for i in range(7)]
        lines = [[names[a], names[(a + 1) % 7], names[(a + 3) % 7]] for a in range(7)]
        ts = TripleSystem(points=names, lines=lines)
        zero = [[[Fraction(0)] * 7 for _ in range(7)] for _ in range(7)]
        axes = make_algebra(QQ, 7, names, zero).basis()
        index = {a.coeffs: i for i, a in enumerate(axes)}
        direct = []

        def stand_in(a, lam):
            x = names[index[a.coeffs]]
            direct.append(x)
            images = {q: ts.third_point(x, q) or q for q in names}
            return SimpleNamespace(is_primitive_jordan_axis=True, miyamoto=SimpleNamespace(
                apply=lambda b: axes[names.index(images[names[index[b.coeffs]]])]))

        monkeypatch.setattr(constructions, "check_axis", stand_in)
        taus = constructions._miyamoto_permutations(ts, axes, HALF)
        assert direct == names
        assert all(taus[i][names.index(q)] == names.index(ts.third_point(x, q) or q)
                   for i, x in enumerate(names) for q in names)


class TestJordanSymmetricMatrices:
    def test_k2(self):
        A = jordan_symmetric_matrices(2)
        assert A.dim == 3
        e11 = A.basis_element(0)
        rep = check_axis(e11, HALF)
        assert rep.is_primitive_jordan_axis

    def test_k3_pair(self, h3_pair):
        A, form, a, b = h3_pair
        assert is_idempotent(a) and is_idempotent(b)
        assert form.value(a, b) == HALF

    def test_unit(self, h3):
        A, _ = h3
        u = A.unit()
        assert u is not None
        for x in A.basis():
            assert u * x == x

    def test_jordan_identity_full(self, h3):
        A, _ = h3
        assert holds_as_identity(builtin_identity("jordan", QQ), A).holds

    def test_matsuo_criterion_rejects(self, h3_pair):
        # the non-Matsuo control: (a, b) = 1/2 is neither 0 nor lam/2
        A, form, a, b = h3_pair
        f = builtin_identity("matsuoCriterion", QQ, HALF)
        v = holds_as_identity(f, A, idempotent_pool=[a, b], form=form, distinct_slots=True)
        assert not v.holds

    def test_trace_form_is_unique_and_diagonal(self, h3):
        A, form = h3
        g = form.gram.rows
        for i in range(3):
            assert g[i][i] == 1
        for i in range(3, 6):
            assert g[i][i] == 2
        for i in range(6):
            for j in range(6):
                if i != j:
                    assert g[i][j] == 0

    def test_k_too_small(self):
        with pytest.raises(ValueError):
            jordan_symmetric_matrices(1)
