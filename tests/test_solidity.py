from fractions import Fraction

import pytest
import sympy

from axial import (
    QQ,
    check_axis,
    classify_pair,
    enumerate_idempotents_2gen,
    generate_subalgebra,
    hardness_probe,
    is_idempotent,
    jordan_symmetric_matrices,
    matsuo_from_triple_system,
    solid_audit,
    toric_euf,
    universal_2gen,
)
from axial.algebra import Algebra
from axial.errors import NotAxes, UnsupportedShape
from axial.solidity import _sigma_presentation

from test_algebra import reference_induced_structure
from test_linalg import F7, QT

HALF = Fraction(1, 2)


class TestClassifyPair:
    def test_toric_family_pair(self, toric):
        # (x_1, x_2) = 9/8 by the solved form
        pc = classify_pair(toric.idempotent(1), toric.idempotent(2), toric.form, HALF)
        assert pc.kind == "Toric" and pc.pi == Fraction(9, 8)
        assert not pc.quarter_flag

    def test_half_pair_is_toric(self):
        tg = universal_2gen(HALF, HALF)
        pc = classify_pair(*tg.axes, tg.form, HALF)
        assert pc.kind == "Toric" and pc.pi == HALF

    def test_flat(self):
        tg = universal_2gen(HALF, Fraction(0))
        pc = classify_pair(*tg.axes, tg.form, HALF)
        assert pc.kind == "Flat"

    def test_equal(self, toric):
        x = toric.idempotent(2)
        pc = classify_pair(x, x, toric.form, HALF)
        assert pc.kind == "Equal"

    def test_orthogonal(self, toric):
        x = toric.idempotent(1)
        y = toric.u - x  # x_{-1}: complement, x*y = 0
        pc = classify_pair(x, y, toric.form, HALF)
        assert pc.kind == "Orthogonal" and pc.pi == 0

    def test_quarter_flag(self, mats3c):
        a, b, _ = mats3c.axes
        pc = classify_pair(a, b, mats3c.form, HALF)
        assert pc.quarter_flag and pc.pi == Fraction(1, 4)

    def test_swap_invariance(self, toric):
        a, b = toric.idempotent(1), toric.idempotent(3)
        p1 = classify_pair(a, b, toric.form, HALF)
        p2 = classify_pair(b, a, toric.form, HALF)
        assert (p1.kind, p1.pi) == (p2.kind, p2.pi)

    def test_rejects_non_axes(self, toric):
        with pytest.raises(NotAxes):
            classify_pair(toric.e, toric.idempotent(1), toric.form, HALF)


def brute_idempotents_sympy(gamma, lam):
    """Independent oracle: solve the idempotency system symbolically."""
    al, be, s = sympy.symbols("al be s")
    lam_, g = sympy.Rational(lam), sympy.Rational(gamma)
    eqs = [
        al**2 + 2 * lam_ * al * be + 2 * g * al * s - al,
        be**2 + 2 * lam_ * al * be + 2 * g * be * s - be,
        g * s**2 + 2 * al * be - s,
    ]
    sols = sympy.solve(eqs, [al, be, s], dict=True)
    out = set()
    for so in sols:
        vals = tuple(so.get(v) for v in (al, be, s))
        if all(v is not None and v.is_rational for v in vals):
            out.add(tuple(Fraction(v.p, v.q) for v in vals))
    return out


class TestEnumerateIdempotents:
    def test_one_dimensional(self, mats3c):
        B = generate_subalgebra([mats3c.axes[0]])
        enum = enumerate_idempotents_2gen(B, lam=HALF)
        assert len(enum.finite) == 2 and enum.family is None

    def test_two_dimensional_orthogonal(self, toric):
        x = toric.idempotent(1)
        B = generate_subalgebra([x, toric.u - x])
        enum = enumerate_idempotents_2gen(B, lam=HALF)
        assert len(enum.finite) == 4 and enum.family is None

    def test_toric_family_and_points(self, toric):
        B = generate_subalgebra([toric.idempotent(1), toric.idempotent(2)])
        enum = enumerate_idempotents_2gen(B, lam=HALF)
        assert enum.family is not None
        for x in enum.finite:
            assert is_idempotent(x)
        for m in (0, 1, 2, -1, Fraction(5, 7), Fraction(22, 7)):
            assert is_idempotent(enum.family.at(m))
        _lifted, generic = enum.family.symbolic()
        assert is_idempotent(generic)

    def test_family_covers_classical_parametrization(self, toric):
        # every x_eps lies in the enumerated set: either a listed point or a
        # family member at a reconstructible rational parameter
        B = generate_subalgebra([toric.idempotent(1), toric.idempotent(2)])
        enum = enumerate_idempotents_2gen(B, lam=HALF)
        P = enum.family.algebra
        finite = {x.coeffs for x in enum.finite}
        for eps in (1, 2, 3, -1, Fraction(5, 7), Fraction(-9, 11)):
            wc = B.coords(toric.idempotent(eps))
            assert wc is not None
            # convert word-basis coords (a, b, ab) to the sigma presentation:
            # x = a'*a + b'*b + c*(ab) = (a'+lam c) a + (b'+lam c) b + c*sigma
            ap, bp, c = wc.coeffs
            target = P.element([ap + HALF * c, bp + HALF * c, c])
            assert is_idempotent(target)
            if target.coeffs in finite:
                continue
            al, _be, s = target.coeffs
            assert al != 1  # the al = 1 points are a and x_inf, both listed
            m = s / (al - 1)
            assert enum.family.at(m) == target

    def test_lambda_third_finite_set(self):
        third = Fraction(1, 3)
        tg = universal_2gen(third, Fraction(1, 6))
        B = generate_subalgebra(list(tg.axes))
        enum = enumerate_idempotents_2gen(B, lam=third)
        assert enum.family is None
        # oracle agreement: same rational solution set
        got = {x.coeffs for x in enum.finite}
        expected = brute_idempotents_sympy(tg.gamma, third)
        assert got == expected
        assert len(got) == 8

    def test_lambda_third_irrational_branch_dropped(self):
        # pi = 1/4 at lam = 1/3: Delta = 13/9 is not a rational square, so
        # only the six rational idempotents exist over Q
        third = Fraction(1, 3)
        gamma = (1 - third) * Fraction(1, 4) - third
        expected = brute_idempotents_sympy(gamma, third)
        from axial.algebra import Algebra

        z, o = Fraction(0), Fraction(1)
        g = gamma
        st = [[(o, z, z), (third, third, o), (g, z, z)],
              [(third, third, o), (z, o, z), (z, g, z)],
              [(g, z, z), (z, g, z), (z, z, g)]]
        A = Algebra(QQ, ["a", "b", "s"], st)
        B = generate_subalgebra([A.basis_element(0), A.basis_element(1)])
        enum = enumerate_idempotents_2gen(B, lam=third)
        assert {x.coeffs for x in enum.finite} == expected
        assert len(enum.finite) == 6

    def test_gamma_zero_branch(self):
        # lam = 1/3, pi = lam/(1-lam) = 1/2 makes gamma vanish; the sigma
        # presentation survives and the enumeration matches the oracle
        third = Fraction(1, 3)
        from axial.algebra import Algebra

        z, o = Fraction(0), Fraction(1)
        st = [[(o, z, z), (third, third, o), (z, z, z)],
              [(third, third, o), (z, o, z), (z, z, z)],
              [(z, z, z), (z, z, z), (z, z, z)]]
        A = Algebra(QQ, ["a", "b", "s"], st)
        B = generate_subalgebra([A.basis_element(0), A.basis_element(1)])
        enum = enumerate_idempotents_2gen(B, lam=third)
        assert {x.coeffs for x in enum.finite} == brute_idempotents_sympy(0, third)

    def test_unsupported_shape(self, h3):
        A, _ = h3
        # F12, F23 generate more than a 3-dimensional subalgebra
        f12 = A.basis_element(3)
        f23 = A.basis_element(5)
        B = generate_subalgebra([f12, f23])
        assert B.dim > 3
        with pytest.raises(UnsupportedShape):
            enumerate_idempotents_2gen(B, lam=HALF)


class TestSolidAudit:
    def test_toric_solid(self, toric):
        rep = solid_audit(toric.algebra, toric.idempotent(1), toric.idempotent(2),
                          toric.form, HALF, sample_eps=[1, 2, 3, -1, Fraction(5, 7)])
        assert rep.pair_class.kind == "Toric"
        assert rep.solid and rep.solid_jordan
        assert rep.symbolic_report is not None
        assert rep.symbolic_report.is_primitive_jordan_axis
        assert rep.verdict == "solid"

    def test_flat_solid(self):
        tg = universal_2gen(HALF, Fraction(0))
        rep = solid_audit(tg.algebra, *tg.axes, tg.form, HALF, sample_eps=[1, 2, 3])
        assert rep.pair_class.kind == "Flat"
        assert rep.solid_jordan

    def test_matsuo_quarter_pair(self, mats3c):
        a, b, _ = mats3c.axes
        rep = solid_audit(mats3c.algebra, a, b, mats3c.form, HALF, sample_eps=[1, 2, 3])
        assert rep.pair_class.quarter_flag
        # computed, not assumed: 3C(1/2) is 2-generated hence Jordan, and its
        # idempotent conic consists of primitive Jordan axes
        assert rep.solid_jordan

    def test_baric_pair(self):
        tg = universal_2gen(HALF, Fraction(1))
        rep = solid_audit(tg.algebra, *tg.axes, tg.form, HALF, sample_eps=[1, 3])
        assert rep.pair_class.kind == "Baric"
        assert isinstance(rep.solid_jordan, bool)

    def test_trivial_idempotents_listed_not_audited(self, toric):
        rep = solid_audit(toric.algebra, toric.idempotent(1), toric.idempotent(2),
                          toric.form, HALF)
        trivial = [entry for entry in rep.idempotent_reports if entry[2]]
        # 0 and the unit
        assert len(trivial) == 2


class TestHardnessProbe:
    def test_toric_three_eps_full_span(self, toric):
        B = generate_subalgebra([toric.idempotent(1), toric.idempotent(2)])
        idems = [toric.idempotent(e) for e in (1, 2, 3)]
        probe = hardness_probe(B, idems, idems)
        assert probe.is_hard and probe.idempotent_rank == 3

    def test_single_element(self, toric):
        B = generate_subalgebra([toric.idempotent(1), toric.idempotent(2)])
        x = toric.idempotent(1)
        probe = hardness_probe(B, [x], [x])
        assert probe.is_hard and probe.idempotent_rank == 1

    def test_zero_pool_not_hard(self, toric):
        B = generate_subalgebra([toric.idempotent(1), toric.idempotent(2)])
        probe = hardness_probe(B, [toric.algebra.zero()], [toric.idempotent(1)])
        assert not probe.is_hard
        assert probe.idempotent_rank == 0 and probe.axis_rank == 1


def _sigma_cases():
    tor, tor7, torqt = toric_euf(), toric_euf(F7), toric_euf(QT)
    h3 = jordan_symmetric_matrices(3)
    half7 = F7.one / F7.from_int(2)
    cases = [((tor.idempotent(1), tor.idempotent(2)), HALF),
             ((tor7.idempotent(1), tor7.idempotent(3)), half7),
             ((torqt.idempotent(QT.variable()), torqt.idempotent(2)), QT.from_fraction(HALF)),
             ((h3.basis_element(0), h3.element([HALF, HALF, 0, HALF, 0, 0])), HALF)]
    for field, lam in ((QQ, HALF), (F7, half7)):
        m3c = matsuo_from_triple_system((["a", "b", "c"], [["a", "b", "c"]]), lam, field)
        cases.append((m3c.axes[:2], lam))
    for pi in (Fraction(0), Fraction(1, 8), Fraction(2)):
        cases.append((universal_2gen(HALF, pi).axes, HALF))
    cases.append((universal_2gen(HALF, Fraction(1, 3), field=F7).axes, half7))
    cases.append((universal_2gen(Fraction(1, 3), Fraction(1, 6)).axes, Fraction(1, 3)))
    return cases


def test_sigma_presentation_against_reference(monkeypatch):
    """The (a, b, sigma) structure matches the k^2 solves it was built from
    before Coordinates, and is read from six products: a a, b b, a b and
    sigma times a, b and sigma."""
    products = []
    real = Algebra.product

    def counted(A, x, y):
        products.append((x, y))
        return real(A, x, y)

    monkeypatch.setattr(Algebra, "product", counted)
    for gens, lam in _sigma_cases():
        B = generate_subalgebra(list(gens))
        products.clear()
        P, gamma = _sigma_presentation(B, lam)
        assert len(products) == 6
        a, b, ab = B.induced.basis()
        sigma = ab - lam * a - lam * b
        assert P.structure == reference_induced_structure(B.induced.field, [a, b, sigma])
        assert sigma * a == gamma * a
