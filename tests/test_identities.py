import itertools
import random
from fractions import Fraction

import pytest
from conftest import transpositions
from hypothesis import given, settings, strategies as st

from axial import (
    QQ,
    PrimeField,
    RationalFunctions,
    builtin_identity,
    evaluate,
    format_poly,
    full_linearize,
    holds_as_identity,
    jordan_symmetric_matrices,
    linearize_step,
    make_algebra,
    matsuo_from_triple_system,
    parse_poly,
    sample_identity,
    specialize_idempotent_slot,
    toric_euf,
    universal_2gen,
)
from axial import fields
from axial.errors import (
    AlgebraMismatch,
    FieldTooSmall,
    FreshCollision,
    MissingForm,
    NotIdempotent,
    PolyParseError,
    ScalarParseError,
    UnboundVariable,
    UnknownIdentity,
)
from axial.identities import (
    BUILTIN_NAMES,
    GenPoly,
    IdentityVerdict,
    _MUL,
    _Program,
    _bracket_key,
    _first_nonzero,
    _mono_degree,
    _node,
    _slot_assignments,
    _sorted_brackets,
    _substitute_choices,
    _symmetry_blocks,
    bracket,
    e_slot,
    x_var,
)
from axial.linalg import lift_sparse

HALF = Fraction(1, 2)
ONE_LINE = (["a", "b", "c"], [["a", "b", "c"]])  # the triple system of 3C


class TestParse:
    def test_jordan_two_monomials(self):
        f = parse_poly("((x1*x1)*x2)*x1 - (x1*x1)*(x2*x1)", QQ)
        assert f.monomial_count() == 2
        assert f == builtin_identity("jordan", QQ)

    def test_bracket_monomial(self):
        f = parse_poly("B(E1,x1)*E1", QQ)
        assert f.monomial_count() == 1
        assert f.has_brackets()

    def test_zero(self):
        assert parse_poly("0", QQ).is_zero()

    def test_lambda_binding(self):
        f = parse_poly("lam*(E1*x1) + (1-lam)*B(E1,x1)*E1 - E1*(E1*x1)", QQ, lam=HALF)
        assert f == builtin_identity("primitivityFrobenius", QQ, HALF)
        with pytest.raises(PolyParseError):
            parse_poly("lam*x1", QQ)

    def test_commutative_merge(self):
        assert parse_poly("x1*x2 - x2*x1", QQ).is_zero()
        assert parse_poly("E1*x1 - x1*E1", QQ).is_zero()

    def test_syntax_errors_carry_position(self):
        with pytest.raises(PolyParseError) as exc:
            parse_poly("x1 + ((x2)", QQ)
        assert exc.value.position is not None
        with pytest.raises(PolyParseError):
            parse_poly("x1 + 3", QQ)  # scalar added to element
        with pytest.raises(PolyParseError):
            parse_poly("B(x1, 2)", QQ)
        for deep in ("(" * 3000 + "x1" + ")" * 3000, "-" * 3000 + "x1"):
            with pytest.raises(PolyParseError):
                parse_poly(deep, QQ)

    def test_division_by_a_scalar(self):
        third = Fraction(1, 3)
        assert parse_poly("x1/2", QQ) == parse_poly("1/2*x1", QQ)
        assert parse_poly("x1/2/3", QQ) == parse_poly("1/6*x1", QQ)  # left to right
        assert parse_poly("x1*x2/3", QQ) == parse_poly("1/3*(x1*x2)", QQ)
        assert parse_poly("2/lam*(E1*x1)", QQ, lam=third) == parse_poly("6*(E1*x1)", QQ)
        assert parse_poly("x1*x2/lam", QQ, lam=third) == parse_poly("3*(x1*x2)", QQ)
        assert parse_poly("(x1*x2)/(2*lam)", QQ, lam=third) == parse_poly("3/2*(x1*x2)", QQ)
        assert parse_poly("2/lam*B(E1,x1)*E1", QQ, lam=third) == parse_poly("6*B(E1,x1)*E1", QQ)
        Qt = RationalFunctions("t")
        t = Qt.variable()
        assert parse_poly("x1/(lam+1)", Qt, lam=t) == (Qt.one / (t + Qt.one)) * x_var(Qt, 1)

    @pytest.mark.parametrize("text, p, position", [
        ("x1/x2", 0, 2),  # an element divisor
        ("x1/B(E1,x2)*E1", 0, 2),  # a scalar-valued bracket is not a scalar
        ("x1/0", 0, 2),
        ("x1/(lam-lam)", 0, 2),
        ("x1/7", 7, 2),  # 7 is zero in F_7
        ("1/0*x1", 0, 1),
    ])
    def test_division_refusals(self, text, p, position):
        field = PrimeField(p) if p else QQ
        with pytest.raises(PolyParseError) as exc:
            parse_poly(text, field, lam=field.from_int(3))
        assert exc.value.position == position

    def test_field_variable_and_powers_over_qt(self):
        Qt = RationalFunctions("t")
        t, one, x1 = Qt.variable(), Qt.one, x_var(Qt, 1)
        assert parse_poly("t*x1", Qt) == t * x1
        assert parse_poly("(t^2+1)*x1", Qt) == (t * t + one) * x1
        assert parse_poly("x1/(t-1)", Qt) == (one / (t - one)) * x1
        assert parse_poly("-t^2*x1", Qt) == -(t * t) * x1
        assert parse_poly("lam^2*(E1*x1) - t/lam*x1", Qt, lam=t + one) == (
            (t + one) ** 2 * (e_slot(Qt, 1) * x1) - (t / (t + one)) * x1)
        assert parse_poly("lam^2*x1", Qt, lam=HALF) == parse_poly("1/4*x1", Qt)

    @pytest.mark.parametrize("text, field, position", [
        ("x1^2", "Qt", 2),
        ("(x1*x2)^2", "Qt", 7),
        ("x1^2", "Q", 2),
        ("2^3*x1", "Q", 1),
        ("2^3*x1", "F7", 1),
    ])
    def test_power_refusals(self, text, field, position):
        field = {"Q": QQ, "F7": PrimeField(7), "Qt": RationalFunctions("t")}[field]
        with pytest.raises(PolyParseError) as exc:
            parse_poly(text, field)
        assert exc.value.position == position

    def test_caps_refuse_in_identity_text(self):
        # the exponent cap and the work budget refuse in identity text what
        # they refuse in scalar text
        Qt = RationalFunctions("t")
        for scalar, message in (("(t^10000)^10000", "exponent 10000 exceeds 1"), ("(t+1)^10000", "work budget")):
            with pytest.raises(ScalarParseError, match=message):
                Qt.parse(scalar)
            with pytest.raises(PolyParseError, match=message):
                parse_poly(f"{scalar}*x1", Qt)

    def test_one_work_budget_per_identity_text(self, monkeypatch):
        # every catalog entry over Q(t) draws under a hundredth of the budget
        Qt = RationalFunctions("t")
        t = Qt.variable()
        monkeypatch.setattr(fields, "MAX_SCALAR_WORK", fields.MAX_SCALAR_WORK // 100)
        for lam in (t, (t + 1) / (t * t + 3)):
            for name in BUILTIN_NAMES:
                builtin_identity(name, Qt, lam)
        # only the Z[t] primitives draw on it, so over Q an empty budget reads on
        monkeypatch.setattr(fields, "MAX_SCALAR_WORK", 0)
        assert parse_poly("2/3*x1", QQ) == Fraction(2, 3) * x_var(QQ, 1)
        with pytest.raises(PolyParseError, match="work budget"):
            parse_poly("(t+1)*x1", Qt)

    def test_identity_names_come_before_the_field_variable(self):
        Ql, Qx, QE = (RationalFunctions(var) for var in ("lam", "x1", "E1"))
        assert parse_poly("lam*x1", Ql, lam=Ql.from_int(3)) == parse_poly("3*x1", Ql)
        with pytest.raises(PolyParseError, match="no lambda binding"):
            parse_poly("lam*x1", Ql)
        assert parse_poly("x1*x1", Qx) == x_var(Qx, 1) * x_var(Qx, 1)
        assert parse_poly("E1*x1", QE) == e_slot(QE, 1) * x_var(QE, 1)
        # scalar text has no identity names, so there each reads as the variable
        for K in (Ql, Qx, QE):
            assert K.parse(K.var) == K.variable()

    def test_roundtrip(self):
        texts = [
            "((x1*x1)*x2)*x1 - (x1*x1)*(x2*x1)",
            "B(E1,x1)*B(E1,x2)*E1 + 4*((E1*x1)*(E1*x2))",
            "1/2*(E1*x1) - 2/3*x2",
            "0",
        ]
        for t in texts:
            f = parse_poly(t, QQ, lam=HALF)
            assert parse_poly(format_poly(f), QQ, lam=HALF) == f
        # over Q(t) a compound coefficient is written in parentheses
        Qt = RationalFunctions("t")
        t = Qt.variable()
        assert format_poly(builtin_identity("ax1", Qt, t)) == (
            "t*(E1*x1) + (-t - 1)*(E1*(E1*x1)) + (E1*(E1*(E1*x1)))")
        for lam in (t, (t + 1) / (t * t + 3)):
            for name in BUILTIN_NAMES:
                f = builtin_identity(name, Qt, lam)
                assert parse_poly(format_poly(f), Qt) == f, name


class TestLinearize:
    def test_square_polarizes(self):
        f = parse_poly("x1*x1", QQ)
        assert linearize_step(f, 1, 2) == parse_poly("2*(x1*x2)", QQ)

    def test_linear_fixpoint(self):
        f = parse_poly("(x1*x2)*x3", QQ)
        assert linearize_step(f, 1, 4).is_zero()
        assert linearize_step(f, 3, 4).is_zero()

    def test_fresh_collision(self):
        f = parse_poly("x1*x2", QQ)
        with pytest.raises(FreshCollision):
            linearize_step(f, 1, 2)

    def test_additivity_on_random_polys(self):
        rng = random.Random(5)

        def rand_poly():
            total = GenPoly.zero(QQ)
            for _ in range(rng.randint(1, 4)):
                # random tree on variables x1, x2 of size <= 4
                leaves = [x_var(QQ, rng.choice((1, 2))) for _ in range(rng.randint(1, 4))]
                t = leaves[0]
                for leaf in leaves[1:]:
                    t = t * leaf if rng.random() < 0.5 else leaf * t
                total = total + QQ.from_int(rng.randint(-3, 3)) * t
            return total

        for _ in range(25):
            f, g = rand_poly(), rand_poly()
            lhs = linearize_step(f + g, 1, 3)
            rhs = linearize_step(f, 1, 3) + linearize_step(g, 1, 3)
            assert lhs == rhs

    def test_full_linearization_of_power_associativity(self):
        # the frozen oracle fact: FL(((xx)x)x - (xx)(xx)) = 2 h(x1,x2,x3,x4)
        fl, introduced = full_linearize(builtin_identity("fourPowerAssoc", QQ), 1)
        assert introduced == [2, 3, 4]
        assert fl == QQ.from_int(2) * builtin_identity("linearizedPA", QQ)

    def test_bracket_degrees_count(self):
        # degrees include occurrences inside bracket factors
        f = parse_poly("B(E1,x1)*x1", QQ)
        assert f.degree_in_x(1) == 2
        d = linearize_step(f, 1, 2)
        # substituting x1 -> x1 + x2 in both slots leaves the two cross terms
        assert d == parse_poly("B(E1,x1)*x2 + B(E1,x2)*x1", QQ)


class TestSpecializeSlot:
    def test_basic(self):
        f = parse_poly("B(E1,x1)*E1", QQ)
        assert specialize_idempotent_slot(f, 1, 2) == parse_poly("B(x2,x1)*x2", QQ)

    def test_degree_transfer(self):
        f = parse_poly("E1*(E1*x1)", QQ)
        g = specialize_idempotent_slot(f, 1, 2)
        assert g.degree_in_x(2) == f.degree_in_e(1) == 2
        assert not g.e_indices()

    def test_primitivity_identity_specializes(self):
        # the slot-free shape: (1-lam)B(x2,x1)x2 + lam(x2 x1) - x2(x2 x1)
        f = builtin_identity("primitivityFrobenius", QQ, HALF)
        g = specialize_idempotent_slot(f, 1, 2)
        expected = parse_poly(
            "lam*(x2*x1) + (1-lam)*B(x2,x1)*x2 - x2*(x2*x1)", QQ, lam=HALF)
        assert g == expected

    def test_collision_and_absence(self):
        f = parse_poly("E1*x1", QQ)
        with pytest.raises(FreshCollision):
            specialize_idempotent_slot(f, 1, 1)
        with pytest.raises(ValueError):
            specialize_idempotent_slot(f, 2, 3)


def reference_evaluate(f, xs, es, form, A):
    """f at xs and es through Element products and BilinearForm.value,
    the generic evaluation without integer lifts."""

    def ev(t):
        if t[0] == "X":
            return xs[t[1]]
        if t[0] == "E":
            return es[t[1]]
        return ev(t[1]) * ev(t[2])

    total = A.zero()
    for (brackets, body), coeff in f.terms.items():
        c = coeff
        for t1, t2 in brackets:
            c = c * form.value(ev(t1), ev(t2))
        total = total + ev(body) * c
    return total


class TestEvaluate:
    def test_jordan_at_unit(self, toric):
        f = builtin_identity("jordan", QQ)
        val = evaluate(f, {1: toric.u, 2: toric.u}, {})
        assert val.is_zero()

    def test_primitivity_identity_on_3c(self, mats3c):
        f = builtin_identity("primitivityFrobenius", QQ, HALF)
        a, b, _ = mats3c.axes
        val = evaluate(f, {1: b}, {1: a}, form=mats3c.form)
        assert val.is_zero()

    def test_miyamoto_closure_on_basis_pairs(self, mats3c):
        f = builtin_identity("miyamotoClosure", QQ, HALF)
        for a in mats3c.axes:
            for y in mats3c.algebra.basis():
                for z in mats3c.algebra.basis():
                    assert evaluate(f, {1: y, 2: z}, {1: a}, form=mats3c.form).is_zero()

    def test_multilinearity(self, mats3c):
        f = builtin_identity("linearizedPA", QQ)
        A = mats3c.algebra
        rng = random.Random(3)

        def rand_elem():
            return A.element([Fraction(rng.randint(-3, 3)) for _ in range(3)])

        for _ in range(10):
            xs = {j: rand_elem() for j in (1, 2, 3, 4)}
            y = rand_elem()
            al, be = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
            shifted = dict(xs)
            shifted[2] = al * xs[2] + be * y
            alt = dict(xs)
            alt[2] = y
            lhs = evaluate(f, shifted, {})
            rhs = al * evaluate(f, xs, {}) + be * evaluate(f, alt, {})
            assert lhs == rhs

    def test_rational_path_matches_element_products(self, mats3c, h3):
        # evaluate over Q runs on integer numerators; compare every catalog
        # identity with a plain evaluation through Element products
        tg = universal_2gen(HALF, Fraction(1, 8))
        h3_alg, h3_form = h3
        cases = [
            (mats3c.algebra, list(mats3c.axes), mats3c.form),
            (tg.algebra, list(tg.axes), tg.form),
            (h3_alg, [h3_alg.basis_element(i) for i in range(3)], h3_form),
        ]
        rng = random.Random(5)
        for A, pool, form in cases:
            for name in BUILTIN_NAMES:
                f = builtin_identity(name, QQ, HALF)
                for _ in range(3):
                    xs = {
                        j: A.element([Fraction(rng.randint(-7, 7), rng.randint(1, 6)) for _ in range(A.dim)])
                        for j in f.x_indices()
                    }
                    es = {i: rng.choice(pool) for i in f.e_indices()}
                    val = evaluate(f, xs, es, form=form, algebra=A)
                    assert val == reference_evaluate(f, xs, es, form, A), name

    @pytest.mark.parametrize("p", [7, 101, 65521, 2**31 - 1])
    def test_prime_field_path_matches_element_products(self, p):
        # evaluate over F_p runs on least residues; compare every catalog
        # identity at dense random elements, with pool idempotents in the E
        # slots and, unchecked, dense random ones
        K = PrimeField(p)
        half = K.from_fraction(HALF)
        c3 = matsuo_from_triple_system(ONE_LINE, half, K)
        s4 = matsuo_from_triple_system(transpositions(4), half, K)
        tor = toric_euf(K)
        cases = [
            (c3.algebra, list(c3.axes), c3.form),
            (s4.algebra, list(s4.axes), s4.form),
            (tor.algebra, [tor.idempotent(K.from_int(e)) for e in (1, 2, 3)], tor.form),
        ]
        rng = random.Random(p)
        nonzero = 0
        for A, pool, form in cases:

            def dense():
                return A.element([K.from_int(rng.randrange(p)) for _ in range(A.dim)])

            for name in BUILTIN_NAMES:
                f = builtin_identity(name, K, half)
                for checked in (True, False):
                    xs = {j: dense() for j in f.x_indices()}
                    es = {i: rng.choice(pool) if checked else dense() for i in f.e_indices()}
                    val = evaluate(f, xs, es, form=form, algebra=A, check_idempotents=checked)
                    ref = reference_evaluate(f, xs, es, form, A)
                    # format reads least residues, so unreduced ints fail here
                    assert val == ref and val.format() == ref.format(), name
                    nonzero += not val.is_zero()
        assert nonzero >= 25  # 28 to 30 of the 84 values are nonzero

    def test_rational_function_path_matches_element_products(self):
        # over Q(eps) evaluate runs its one body on field values; compare
        # every catalog identity on toric over Q(eps) with a plain
        # evaluation through Element products, with the generic idempotent
        # in the E slots and, unchecked, dense random ones
        Qe = RationalFunctions("eps")
        tor = toric_euf(Qe)
        A, eps = tor.algebra, Qe.variable()
        generic = tor.idempotent(eps)
        rng = random.Random(13)

        def value():
            a, b, c = (Qe.from_int(rng.randint(-3, 3)) for _ in range(3))
            return (a + b * eps) / (Qe.one + c * eps * eps)

        def dense():
            return A.element([value() for _ in range(A.dim)])

        nonzero = 0
        for name in BUILTIN_NAMES:
            f = builtin_identity(name, Qe, Qe.from_fraction(HALF))
            for checked in (True, False):
                xs = {j: dense() for j in f.x_indices()}
                es = {i: generic if checked else dense() for i in f.e_indices()}
                val = evaluate(f, xs, es, form=tor.form, algebra=A, check_idempotents=checked)
                assert val == reference_evaluate(f, xs, es, tor.form, A), name
                nonzero += not val.is_zero()
        assert nonzero >= 8  # 10 of the 28 values are nonzero

    @pytest.mark.parametrize("p", [3, 5])
    def test_exhaustive_prime_field_search_matches_element_products(self, p):
        # over F_3 and F_5 these polynomials have a degree of at least p, so
        # holds_as_identity enumerates the field; its witness must be the
        # first assignment, E slots outermost, at which the Element-product
        # evaluation does not vanish
        K = PrimeField(p, allow_small=True)
        c3 = matsuo_from_triple_system(ONE_LINE, K.from_fraction(HALF), K)
        A, pool, form = c3.algebra, list(c3.axes), c3.form
        line = make_algebra(K, 1, ["b"], [[[K.one]]])
        power = "x1"
        for _ in range(p - 1):
            power = f"({power})*x1"
        cases = [
            (parse_poly(f"{power} - x1", K), line, [], None),
            (parse_poly(f"{power}*x1 - x1*x1", K), line, [], None),
            (builtin_identity("jordan", K) if p == 3 else parse_poly(f"({power})*({power}) - {power}", K),
             A, [], None),
            (parse_poly(f"B(x1,E1)*({power}) - B({power},E1)*x1", K), A, pool, form),
            (parse_poly(f"E1*({power}) - {power}", K), A, pool, None),
        ]
        failures = 0
        for f, alg, e_pool, e_form in cases:
            verdict = holds_as_identity(f, alg, idempotent_pool=e_pool, form=e_form)
            assert verdict.method == "exhaustive-field"
            vectors = [alg.element(v) for v in itertools.product(K.elements(), repeat=alg.dim)]
            xvars, evars = f.x_indices(), f.e_indices()
            expected = next(
                (
                    {"x": xs, "e": es}
                    for choice in itertools.product(e_pool, repeat=len(evars))
                    for es in [dict(zip(evars, choice))]
                    for tup in itertools.product(vectors, repeat=len(xvars))
                    for xs in [dict(zip(xvars, tup))]
                    if not reference_evaluate(f, xs, es, e_form, alg).is_zero()
                ),
                None,
            )
            assert verdict.witness == expected, format_poly(f)
            assert verdict.holds == (expected is None)
            failures += not verdict.holds
        assert failures >= 2

    def test_errors(self, mats3c, toric):
        F101 = PrimeField(101)
        c3_101 = matsuo_from_triple_system(ONE_LINE, F101.from_fraction(HALF), F101)
        for c3 in (mats3c, c3_101):
            field = c3.algebra.field
            f = builtin_identity("primitivityFrobenius", field, field.from_fraction(HALF))
            a, b, _ = c3.axes
            with pytest.raises(MissingForm):
                evaluate(f, {1: b}, {1: a})
            with pytest.raises(NotIdempotent):
                evaluate(f, {1: b}, {1: b + b}, form=c3.form)
            with pytest.raises(UnboundVariable):
                evaluate(f, {}, {1: a}, form=c3.form)


    # bracket arguments that repeat subtrees of the body, and E_i*E_i, which
    # the parser collapses to E_i at any depth
    SHARED_TEXTS = (
        "B(E1*x1,x2)*(E1*x1) - B(x1*x2,E1*x1)*((x1*x2)*E1)",
        "B(x1*x1,x1)*(x1*x1) + B(E1*x1,E1*x1)*(E1*(E1*x1)) - B(x1*x1,x1*x1)*x1",
        "(E1*E1)*(x1*E1) + B(E1*E1,x1)*(E1*(E1*E1)) - B(x1,E1*(x1*E1))*((E1*E1)*x1)",
        "B(E1*x2,E2*x1)*((E1*x2)*(E2*x1)) + (E1*E1)*((E2*E2)*x1) - B(x1*x2,x2)*(E2*(x1*x2))",
    )

    def test_shared_subtrees_and_slot_collapses_match_element_products(self, mats3c):
        # over Q, F_101 and Q(eps): evaluate against Element products, and
        # the basis search against the first basis tuple at which the
        # Element-product evaluation does not vanish
        F101 = PrimeField(101)
        c3_101 = matsuo_from_triple_system(ONE_LINE, F101.from_fraction(HALF), F101)
        Qe = RationalFunctions("eps")
        tor = toric_euf(Qe)
        eps = Qe.variable()
        cases = [
            (mats3c.algebra, list(mats3c.axes), mats3c.form),
            (c3_101.algebra, list(c3_101.axes), c3_101.form),
            (tor.algebra, [tor.idempotent(eps), tor.idempotent(Qe.from_int(2))], tor.form),
        ]
        rng = random.Random(23)
        nonzero = found = 0
        for A, pool, form in cases:
            K = A.field

            def dense():
                return A.element([K.from_fraction(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
                                  + (eps * K.from_int(rng.randint(-2, 2)) if K is Qe else K.zero)
                                  for _ in range(A.dim)])

            for text in self.SHARED_TEXTS:
                f = parse_poly(text, K)
                assert f.has_brackets() and "E1*E1" not in format_poly(f) and "E2*E2" not in format_poly(f)
                for checked in (True, False):
                    xs = {j: dense() for j in f.x_indices()}
                    es = {i: rng.choice(pool) if checked else dense() for i in f.e_indices()}
                    val = evaluate(f, xs, es, form=form, algebra=A, check_idempotents=checked)
                    ref = reference_evaluate(f, xs, es, form, A)
                    assert val == ref and val.format() == ref.format(), text
                    nonzero += not val.is_zero()
                xvars, evars = f.x_indices(), f.e_indices()
                e_options = _slot_assignments(f, pool, False)
                expected = next(
                    (
                        {"x": xmap, "e": amap}
                        for amap in e_options
                        for tup in itertools.product(A.basis(), repeat=len(xvars))
                        for xmap in [dict(zip(xvars, tup))]
                        if not reference_evaluate(f, xmap, amap, form, A).is_zero()
                    ),
                    None,
                )
                assert _first_nonzero(f, A, form, e_options, A.basis()) == expected, text
                found += expected is not None
        assert nonzero >= 12 and found >= 6


class TestHoldsAsIdentity:
    def test_jordan_on_two_gen(self):
        tg = universal_2gen(HALF, Fraction(1, 8))
        v = holds_as_identity(builtin_identity("jordan", QQ), tg.algebra)
        assert v.holds and v.method == "multilinear-basis"

    def test_flexibility_trivial(self, mats3c):
        # (x y) x - x (y x) collapses under commutative normalization
        f = parse_poly("(x1*x2)*x1 - x1*(x2*x1)", QQ)
        assert f.is_zero()
        assert holds_as_identity(f, mats3c.algebra).holds

    def test_matsuo_criterion_fails_on_h3(self, h3_pair):
        A, form, a, b = h3_pair
        assert form.value(a, b) == HALF  # the excluded value: not in {0, 1/4}
        f = builtin_identity("matsuoCriterion", QQ, HALF)
        v = holds_as_identity(f, A, idempotent_pool=[a, b], form=form, distinct_slots=True)
        assert not v.holds
        assert v.witness is not None
        revalue = evaluate(f, v.witness["x"], v.witness["e"], form=form, algebra=A)
        assert not revalue.is_zero()

    def test_matsuo_criterion_holds_on_3c(self, mats3c):
        f = builtin_identity("matsuoCriterion", QQ, HALF)
        v = holds_as_identity(f, mats3c.algebra, idempotent_pool=list(mats3c.axes),
                              form=mats3c.form, distinct_slots=True)
        assert v.holds

    def test_distinct_slots_need_a_member_each(self, s4):
        f = builtin_identity("matsuoCriterion", QQ, HALF)
        a, b = s4.axes[:2]
        for pool in ([a], [a, a], [a, s4.algebra.element(a.coeffs)]):
            with pytest.raises(UnboundVariable):
                holds_as_identity(f, s4.algebra, idempotent_pool=pool, form=s4.form, distinct_slots=True)
            with pytest.raises(UnboundVariable):
                sample_identity(f, s4.algebra, idempotent_pool=pool, form=s4.form, samples=5,
                                distinct_slots=True)
        assert holds_as_identity(f, s4.algebra, idempotent_pool=[a, b], form=s4.form, distinct_slots=True).holds

    def test_distinct_slots_take_a_repeated_member_once(self, s4):
        f = builtin_identity("matsuoCriterion", QQ, HALF)
        pool = list(s4.axes)
        plain = holds_as_identity(f, s4.algebra, idempotent_pool=pool, form=s4.form, distinct_slots=True)
        repeated = holds_as_identity(f, s4.algebra, idempotent_pool=[pool[0]] + pool, form=s4.form,
                                     distinct_slots=True)
        assert plain.holds and repeated == plain
        copies = [s4.algebra.element(x.coeffs) for x in pool]
        assert holds_as_identity(f, s4.algebra, idempotent_pool=pool + copies, form=s4.form,
                                 distinct_slots=True) == plain

    def test_pool_required(self, mats3c):
        f = builtin_identity("ax1", QQ, HALF)
        with pytest.raises(UnboundVariable):
            holds_as_identity(f, mats3c.algebra)

    def test_sampler_checks_the_pool_as_the_engine_does(self, mats3c, toric):
        f = parse_poly("E1*x1 - x1", QQ)
        not_idempotent = toric.e + toric.u + toric.f
        assert not_idempotent * not_idempotent != not_idempotent
        for decide in (holds_as_identity, sample_identity):
            with pytest.raises(NotIdempotent):
                decide(f, toric.algebra, idempotent_pool=[not_idempotent])
            with pytest.raises(UnboundVariable):
                decide(f, mats3c.algebra)

    def test_bracket_identity_needs_a_form(self, mats3c):
        f = builtin_identity("primitivityFrobenius", QQ, HALF)
        pool = list(mats3c.axes)
        for decide in (holds_as_identity, sample_identity):
            with pytest.raises(MissingForm):
                decide(f, mats3c.algebra, idempotent_pool=pool)
        # with no assignment to evaluate, nothing is compiled and nothing is
        # raised
        assert sample_identity(f, mats3c.algebra, idempotent_pool=pool, samples=0).holds

    def test_prime_field_total_is_reduced_before_the_zero_test(self):
        # on the field algebra b*b = b the two monomials of each polynomial
        # agree, so their coefficients 1 and p - 1 sum to p: the lifted
        # total is a nonzero multiple of p, which is zero in F_p
        F7 = PrimeField(7)
        line = make_algebra(F7, 1, ["b"], [[[F7.one]]])
        b = line.basis_element(0)
        assoc = parse_poly("(x1*x2)*x3 + 6*x1*(x2*x3)", F7)
        total, _d = _Program(assoc, line, None).run([lift_sparse(F7, b.coeffs)] * 3)
        assert total == [7]
        verdict = holds_as_identity(assoc, line)
        assert verdict.holds and verdict.method == "multilinear-basis"
        # over F_3 the degree 4 forces exhaustion; at x1 = 1 the total is 6,
        # and the first non-vanishing assignment is x1 = 2
        F3 = PrimeField(3, allow_small=True)
        line3 = make_algebra(F3, 1, ["b"], [[[F3.one]]])
        powers = "((x1*x1)*x1)*x1 + 2*(x1*x1)*(x1*x1)"
        for text, holds in ((powers, True), (powers + " + x1*x1 - x1", False)):
            f = parse_poly(text, F3)
            one = line3.basis_element(0)
            total, _d = _Program(f, line3, None).run([lift_sparse(F3, one.coeffs)])
            assert total[0] and total[0] % 3 == 0
            verdict = holds_as_identity(f, line3)
            assert verdict.method == "exhaustive-field" and verdict.holds == holds
            expected = next(({"x": {1: v}, "e": {}} for v in (line3.element([c]) for c in F3.elements())
                             if not reference_evaluate(f, {1: v}, {}, None, line3).is_zero()), None)
            assert verdict.witness == expected
        assert expected == {"x": {1: line3.element([F3.from_int(2)])}, "e": {}}

    def test_exhaustive_small_prime_field(self):
        # x1*x1 - x1 on the one-dimensional field algebra over F_7: x^2 = x
        # has degree 2 < 7, so multilinear applies; force exhaustion with F_5
        F5 = PrimeField(5, allow_small=True)
        A = make_algebra(F5, 1, ["b"], [[[F5.one]]])
        seven = parse_poly("(((((x1*x1)*x1)*x1)*x1)*x1)*x1 - x1", F5)  # x^7 - x: not an identity over F_5
        v = holds_as_identity(seven, A)
        assert v.method == "exhaustive-field"
        assert not v.holds
        five = parse_poly("((((x1*x1)*x1)*x1)*x1) - x1", F5)  # x^5 - x: Fermat
        assert holds_as_identity(five, A).holds

    def test_field_too_small_budget(self):
        # jordan has degree 3 in x1, so over F_3 only exhaustion decides it,
        # and on H3 (dim 6) that is 3^12 assignments, past EXHAUSTIVE_BUDGET
        F3 = PrimeField(3, allow_small=True)
        with pytest.raises(FieldTooSmall):
            holds_as_identity(builtin_identity("jordan", F3), jordan_symmetric_matrices(3, F3))

    def test_verdict_deterministic(self, mats3c):
        f = parse_poly("x1*x2", QQ)
        v1 = holds_as_identity(f, mats3c.algebra)
        v2 = holds_as_identity(f, mats3c.algebra)
        assert not v1.holds and v1.witness.keys() == v2.witness.keys()


class TestAlgebraMismatch:
    @pytest.mark.parametrize("case", [
        "x-assignment", "e-assignment", "algebra-argument", "form",
        "holds_as_identity-pool", "sample_identity-pool", "poly-over-Q-on-F7", "poly-over-F7-on-Q",
        "holds_as_identity-poly-over-F7", "sample_identity-poly-over-F7",
    ])
    def test_inputs_of_another_algebra_or_field(self, mats3c, toric, case):
        # 3C and toric both have dimension 3, so only the checks tell them apart
        F7 = PrimeField(7)
        c3_7 = matsuo_from_triple_system(ONE_LINE, F7.from_fraction(HALF), F7)
        A = mats3c.algebra
        a, b, _ = mats3c.axes
        product = parse_poly("x1*x2", QQ)
        slot = parse_poly("E1*(E1*x1) - E1*x1", QQ)
        primitivity = builtin_identity("primitivityFrobenius", QQ, HALF)
        calls = {
            "x-assignment": lambda: evaluate(product, {1: a, 2: toric.e}, {}),
            "e-assignment": lambda: evaluate(slot, {1: a}, {1: toric.idempotent(2)}),
            "algebra-argument": lambda: evaluate(product, {1: toric.e, 2: toric.f}, {}, algebra=A),
            "form": lambda: evaluate(primitivity, {1: b}, {1: a}, form=toric.form),
            "holds_as_identity-pool": lambda: holds_as_identity(slot, A, idempotent_pool=[toric.idempotent(2)]),
            "sample_identity-pool": lambda: sample_identity(slot, A, idempotent_pool=[toric.idempotent(2)]),
            "poly-over-Q-on-F7": lambda: evaluate(product, {1: c3_7.axes[0], 2: c3_7.axes[1]}, {}),
            "poly-over-F7-on-Q": lambda: evaluate(parse_poly("x1*x2", F7), {1: a, 2: b}, {}),
            "holds_as_identity-poly-over-F7": lambda: holds_as_identity(parse_poly("x1*x2", F7), A),
            "sample_identity-poly-over-F7": lambda: sample_identity(parse_poly("x1*x2", F7), A),
        }
        with pytest.raises(AlgebraMismatch):
            calls[case]()

    def test_equal_algebra_built_apart_is_the_same(self, mats3c):
        twin = matsuo_from_triple_system(ONE_LINE, HALF)
        assert twin.algebra is not mats3c.algebra
        f = builtin_identity("primitivityFrobenius", QQ, HALF)
        a, b, _ = mats3c.axes
        assert evaluate(f, {1: twin.axes[1]}, {1: a}, form=mats3c.form).is_zero()
        assert holds_as_identity(f, mats3c.algebra, idempotent_pool=list(twin.axes), form=twin.form).holds

    def test_pool_of_an_equal_algebra_is_compared_once(self, monkeypatch):
        # the pool and the form of a separately built S_4 give the verdicts
        # and witnesses of S_4's own, and each call compares the two
        # algebras at most once, not once per evaluation
        s4, twin = (matsuo_from_triple_system(transpositions(4), HALF) for _ in range(2))
        A = s4.algebra
        compared = []
        algebra_eq = type(A).__eq__

        def counting_eq(self, other):
            if self is not other:
                compared.append(other)
            return algebra_eq(self, other)

        for f in (builtin_identity("primitivityFrobenius", QQ, HALF),
                  parse_poly("E1*(E1*x1) - E1*x1", QQ),
                  parse_poly("E1*(E2*x1) - E2*(E1*x1)", QQ)):
            runs = {}
            for name, M in (("own", s4), ("twin", twin)):
                pool = list(M.axes)
                with monkeypatch.context() as m:
                    m.setattr(type(A), "__eq__", counting_eq)
                    compared.clear()
                    exact = holds_as_identity(f, A, idempotent_pool=pool, form=M.form)
                    sampled = sample_identity(f, A, idempotent_pool=pool, form=M.form, samples=40)
                    calls = len(compared)
                assert calls <= (2 if name == "twin" else 0)
                runs[name] = [(v.holds, v.method, v.witness) for v in (exact, sampled)]
            assert runs["twin"] == runs["own"]
        assert not runs["own"][0][0]  # the last identity fails, with a witness


class TestRationalFunctionField:
    def test_verdicts_on_toric(self):
        Qt = RationalFunctions("t")
        tor = toric_euf(Qt)
        A, pool = tor.algebra, [tor.idempotent(Qt.variable())]
        for f in (builtin_identity("jordan", Qt), builtin_identity("primitivityFrobenius", Qt, Qt.from_fraction(HALF))):
            v = holds_as_identity(f, A, idempotent_pool=pool, form=tor.form)
            assert v.holds and v.method == "multilinear-basis", format_poly(f)
        f = parse_poly("B(x1,x2)*x1 - x1", Qt)
        v = holds_as_identity(f, A, idempotent_pool=pool, form=tor.form)
        assert not v.holds and v.method == "multilinear-basis"
        assert not evaluate(f, v.witness["x"], v.witness["e"], form=tor.form, algebra=A).is_zero()


class TestBuiltinCatalog:
    def test_all_names_construct(self):
        for name in BUILTIN_NAMES:
            f = builtin_identity(name, QQ, HALF)
            assert not f.is_zero()

    def test_unknown(self):
        with pytest.raises(UnknownIdentity):
            builtin_identity("nope", QQ, HALF)
        with pytest.raises(UnknownIdentity):
            builtin_identity("ax1", QQ)  # missing lambda
        with pytest.raises(UnknownIdentity):
            builtin_identity("ax1", QQ, Fraction(1))

    def test_miyamoto_closure_is_tau_expansion(self):
        # the coefficient re-derivation: expand (x1 x2)^tau - x1^tau x2^tau
        # with y^tau = y + (2/lam) B(E1,y) E1 - (2/lam) E1 y
        for lam in (HALF, Fraction(1, 3), Fraction(2, 7)):
            c2 = QQ.from_int(2) / lam
            E1 = e_slot(QQ, 1)
            x1, x2 = x_var(QQ, 1), x_var(QQ, 2)

            def tau(p):
                return p + c2 * (bracket(E1, p) * E1) - c2 * (E1 * p)

            derived = tau(x1 * x2) - tau(x1) * tau(x2)
            assert derived == builtin_identity("miyamotoClosure", QQ, lam)

    def test_ax1_matches_spectrum_cubic(self):
        assert builtin_identity("ax1", QQ, HALF) == builtin_identity("semisimpleSpectrum", QQ, HALF)

    def test_partial_linearization_consistency(self):
        # linearizedPA-partial is the (3,1)-component of one polarization step
        pa = builtin_identity("fourPowerAssoc", QQ)
        step = linearize_step(pa, 1, 2)
        partial = builtin_identity("linearizedPA-partial", QQ)
        # extract the component of degree (3,1) from the step
        comp = GenPoly.zero(QQ)
        for key, coeff in step.terms.items():
            from axial.identities import _mono_degree

            if _mono_degree(key, ("X", 1)) == 3 and _mono_degree(key, ("X", 2)) == 1:
                comp = comp + GenPoly(QQ, {key: coeff})
        # the catalog entry is 4(x1x2)x1^2 - ... = -(component as lhs-rhs)
        assert comp == -partial or comp == partial

    def test_catalog_verdicts_on_test_algebras(self, mats3c, toric):
        matsuo_only = {"matsuoPairA", "matsuoPairB", "matsuoCriterion"}
        cases = {
            # 3C(1/2) is a Matsuo algebra: everything holds
            "3c": (mats3c.algebra, list(mats3c.axes), mats3c.form, set()),
            # the toric algebra is not Matsuo ((x1,x2) = 9/8 is neither 0 nor
            # lam/2), so exactly the Matsuo pair criteria must fail
            "toric": (toric.algebra, [toric.idempotent(e) for e in (1, 2, 3)],
                      toric.form, matsuo_only),
        }
        for A, pool, form, expected_failures in cases.values():
            for name in BUILTIN_NAMES:
                f = builtin_identity(name, QQ, HALF)
                v = holds_as_identity(f, A, idempotent_pool=pool, form=form,
                                      distinct_slots=(name in matsuo_only))
                assert v.holds == (name not in expected_failures), name


class TestSampledOracle:
    def test_agreement_spot(self, mats3c):
        A = mats3c.algebra
        pool = list(mats3c.axes)
        for name in ("jordan", "miyamotoClosure", "seress"):
            f = builtin_identity(name, QQ, HALF)
            engine = holds_as_identity(f, A, idempotent_pool=pool, form=mats3c.form)
            sampled = sample_identity(f, A, idempotent_pool=pool, form=mats3c.form, samples=120)
            assert engine.holds == sampled.holds is True

    def test_sampler_finds_failures(self, h3_pair):
        A, form, a, b = h3_pair
        f = builtin_identity("matsuoCriterion", QQ, HALF)
        v = sample_identity(f, A, idempotent_pool=[a, b], form=form, samples=50,
                            distinct_slots=True)
        assert not v.holds and v.method == "sampled"


# ---------------------------------------------------------------------------
# the witness search as it ran before _first_nonzero and _first_random_nonzero:
# the identity decision, the witness search and the sampled oracle, kept as
# references for the differential test below
# ---------------------------------------------------------------------------


def reference_holds_as_identity(f, A, idempotent_pool=(), form=None, distinct_slots=False):
    field = A.field
    evars = f.e_indices()
    xvars = f.x_indices()
    maxdeg = max((f.degree_in_x(j) for j in xvars), default=0)
    if field.size is not None and field.size <= maxdeg:
        return reference_exhaustive_check(f, A, idempotent_pool, form, distinct_slots)

    components = {}
    for key, coeff in f.terms.items():
        components.setdefault(reference_multideg(key, xvars), GenPoly(field))
    for key, coeff in f.terms.items():
        deg = reference_multideg(key, xvars)
        components[deg] = components[deg] + GenPoly(field, {key: coeff})

    basis = A.basis()
    for comp in components.values():
        g = comp
        for j in xvars:
            if g.degree_in_x(j) > 1:
                g, _ = full_linearize(g, j)
        gvars = g.x_indices()
        for e_assign in reference_slot_assignments(idempotent_pool, len(evars), distinct_slots):
            amap = dict(zip(evars, e_assign))
            for tup in itertools.product(basis, repeat=len(gvars)):
                xmap = dict(zip(gvars, tup))
                val = evaluate(g, xmap, amap, form=form, algebra=A, check_idempotents=False)
                if not val.is_zero():
                    witness = reference_find_witness(f, A, idempotent_pool, form, 0, distinct_slots)
                    return IdentityVerdict(holds=False, witness=witness, method="multilinear-basis")
    return IdentityVerdict(holds=True, witness=None, method="multilinear-basis")


def reference_multideg(key, xvars):
    return tuple(_mono_degree(key, ("X", j)) for j in xvars)


def reference_slot_assignments(pool, n, distinct):
    if distinct:
        return itertools.permutations(pool, n)
    return itertools.product(pool, repeat=n)


def reference_exhaustive_check(f, A, pool, form, distinct_slots=False):
    field = A.field
    xvars = f.x_indices()
    evars = f.e_indices()
    scalars = list(field.elements())
    vectors = [A.element(v) for v in itertools.product(scalars, repeat=A.dim)]
    for e_assign in reference_slot_assignments(pool, len(evars), distinct_slots):
        amap = dict(zip(evars, e_assign))
        for tup in itertools.product(vectors, repeat=len(xvars)):
            xmap = dict(zip(xvars, tup))
            val = evaluate(f, xmap, amap, form=form, algebra=A, check_idempotents=False)
            if not val.is_zero():
                return IdentityVerdict(
                    holds=False,
                    witness={"x": xmap, "e": amap},
                    method="exhaustive-field",
                )
    return IdentityVerdict(holds=True, witness=None, method="exhaustive-field")


def reference_find_witness(f, A, pool, form, seed, distinct_slots=False):
    field = A.field
    xvars = f.x_indices()
    evars = f.e_indices()
    basis = A.basis()
    pools = list(pool)
    for e_assign in reference_slot_assignments(pools, len(evars), distinct_slots):
        amap = dict(zip(evars, e_assign))
        for tup in itertools.product(basis, repeat=len(xvars)):
            xmap = dict(zip(xvars, tup))
            val = evaluate(f, xmap, amap, form=form, algebra=A, check_idempotents=False)
            if not val.is_zero():
                return {"x": xmap, "e": amap}
    rng = random.Random(seed)
    e_options = list(reference_slot_assignments(pools, len(evars), distinct_slots))
    for attempt in range(5000):
        bound = 3 + attempt // 500
        xmap = {
            j: A.element([field.from_int(rng.randint(-bound, bound)) for _ in range(A.dim)])
            for j in xvars
        }
        amap = dict(zip(evars, e_options[rng.randrange(len(e_options))])) if evars else {}
        val = evaluate(f, xmap, amap, form=form, algebra=A, check_idempotents=False)
        if not val.is_zero():
            return {"x": xmap, "e": amap}
    return None


def reference_sample_identity(f, A, idempotent_pool=(), form=None, samples=500, seed=0, coeff_range=3,
                              distinct_slots=False):
    field = A.field
    xvars = f.x_indices()
    evars = f.e_indices()
    e_options = list(reference_slot_assignments(list(idempotent_pool), len(evars), distinct_slots))
    rng = random.Random(seed)
    for _ in range(samples):
        xmap = {
            j: A.element([field.from_int(rng.randint(-coeff_range, coeff_range)) for _ in range(A.dim)])
            for j in xvars
        }
        amap = dict(zip(evars, e_options[rng.randrange(len(e_options))])) if evars else {}
        val = evaluate(f, xmap, amap, form=form, algebra=A, check_idempotents=False)
        if not val.is_zero():
            return IdentityVerdict(holds=False, witness={"x": xmap, "e": amap}, method="sampled")
    return IdentityVerdict(holds=True, witness=None, method="sampled")


def test_witness_search_against_reference(mats3c, h3_pair):
    tg = universal_2gen(HALF, Fraction(1, 8))
    h3_alg, h3_form, a, b = h3_pair
    cases = [
        (mats3c.algebra, list(mats3c.axes), mats3c.form),
        (h3_alg, [a, b], h3_form),
        (tg.algebra, list(tg.axes), tg.form),
    ]
    # on H3 only the identities with E slots use the pool; the others take
    # about 0.4 s each and run the same search as on 3C
    checks = [
        (f, A, pool, form, name.startswith("matsuo"))
        for A, pool, form in cases
        for name in BUILTIN_NAMES
        for f in [builtin_identity(name, QQ, HALF)]
        if A is not h3_alg or f.e_indices()
    ]
    # the first fails on a basis tuple; the other two vanish on every basis
    # tuple of 3C, so their witnesses come from sampling
    for text in ("E1*x1 - x1", "x1*x1 - x1", "E1*(x1*x1) - E1*x1"):
        checks.append((parse_poly(text, QQ), mats3c.algebra, list(mats3c.axes), None, False))
    F5 = PrimeField(5, allow_small=True)
    A5 = make_algebra(F5, 1, ["b"], [[[F5.one]]])
    for text in ("(((((x1*x1)*x1)*x1)*x1)*x1)*x1 - x1", "((((x1*x1)*x1)*x1)*x1) - x1"):
        checks.append((parse_poly(text, F5), A5, [], None, False))
    failures = 0
    for f, A, pool, form, distinct in checks:
        verdict = holds_as_identity(f, A, idempotent_pool=pool, form=form, distinct_slots=distinct)
        assert verdict == reference_holds_as_identity(f, A, pool, form, distinct), format_poly(f)
        failures += not verdict.holds
        sampled = sample_identity(f, A, idempotent_pool=pool, form=form, samples=40,
                                  distinct_slots=distinct)
        assert sampled == reference_sample_identity(f, A, pool, form, samples=40,
                                                    distinct_slots=distinct), format_poly(f)
    assert failures >= 5  # the H3 Matsuo criteria, the three 3C cases and x^7 - x


# ---------------------------------------------------------------------------
# the component decision on sorted basis tuples of each symmetry block,
# against the full basis sweep it replaced
# ---------------------------------------------------------------------------

ASSOCIATOR = "(x1*x2)*x3 - x1*(x2*x3)"  # anti-symmetric under x1 <-> x3
SYMMETRIC_12 = "(x1*x2)*x3"


def linearized_components(f):
    """The fully linearized multihomogeneous components of f."""
    xvars = f.x_indices()
    parts = {}
    for key, coeff in f.terms.items():
        parts.setdefault(reference_multideg(key, xvars), {})[key] = coeff
    out = []
    for terms in parts.values():
        g = GenPoly(f.field, terms)
        for j in xvars:
            if g.degree_in_x(j) > 1:
                g, _ = full_linearize(g, j)
        out.append(g)
    return out


def reference_sweep_vanishes(g, A, form, e_options):
    """Whether g vanishes on every basis tuple, E slots outermost."""
    gvars = g.x_indices()
    return all(
        evaluate(g, dict(zip(gvars, tup)), amap, form=form, algebra=A, check_idempotents=False).is_zero()
        for amap in e_options
        for tup in itertools.product(A.basis(), repeat=len(gvars))
    )


def nilpotent_algebra():
    """b0*b2 = b3 and b1*b3 = b4, all other products zero.  Both hand-built
    polynomials vanish on every sorted basis tuple but not at (b0, b2, b1),
    so a block they do not have changes the decision."""
    z = QQ.zero
    structure = [[[z] * 5 for _ in range(5)] for _ in range(5)]
    for i, j, k in ((0, 2, 3), (1, 3, 4)):
        structure[i][j][k] = structure[j][i][k] = QQ.one
    return make_algebra(QQ, 5, [f"b{i}" for i in range(5)], structure)


@pytest.mark.parametrize("name,blocks", [
    ("fourPowerAssoc", [[1, 2, 3, 4]]),
    ("linearizedPA", [[1, 2, 3, 4]]),
    ("linearizedPA-partial", [[1, 2, 3, 4]]),
    ("jordan", [[1, 3, 4], [2]]),
    ("almostJordan", [[1, 3, 4], [2]]),
    ("fusionLambdaLambda", [[1], [2]]),
    ("seress", [[1], [2]]),
])
def test_symmetry_blocks_of_catalog_components(name, blocks):
    (g,) = linearized_components(builtin_identity(name, QQ, HALF))
    assert _symmetry_blocks(g) == blocks


@pytest.mark.parametrize("text,blocks", [(ASSOCIATOR, [[1], [2], [3]]), (SYMMETRIC_12, [[1, 2], [3]])])
def test_symmetry_blocks_of_hand_built_polynomials(text, blocks):
    assert _symmetry_blocks(parse_poly(text, QQ)) == blocks


def test_symmetry_reduced_decision_against_full_sweep(mats3c, toric, h3_pair, s4):
    tg = universal_2gen(HALF, Fraction(1, 8))
    h3_alg, h3_form, a, b = h3_pair
    cases = [
        (mats3c.algebra, list(mats3c.axes), mats3c.form),
        (toric.algebra, [toric.idempotent(e) for e in (1, 2, 3)], toric.form),
        (tg.algebra, list(tg.axes), tg.form),
        (h3_alg, [h3_alg.basis_element(i) for i in range(3)] + [b], h3_form),
        (s4.algebra, list(s4.axes), s4.form),
    ]
    checks = [
        (builtin_identity(name, QQ, HALF), A, pool, form, name.startswith("matsuo"))
        for A, pool, form in cases
        for name in BUILTIN_NAMES
    ]
    nil = nilpotent_algebra()
    for text in (ASSOCIATOR, SYMMETRIC_12):
        f = parse_poly(text, QQ)
        checks += [(f, A, pool, form, False) for A, pool, form in cases + [(nil, [], None)]]
    # fourPowerAssoc, linearizedPA and linearizedPA-partial linearize to
    # multiples of one polynomial, so each reference sweep runs once per
    # scalar class of components
    swept = {}
    decided = []
    for f, A, pool, form, distinct in checks:
        e_options = _slot_assignments(f, pool, distinct)
        for g in linearized_components(f):
            lead = g.sorted_terms()[0][1]
            key = (id(A), tuple(f.e_indices()), distinct, frozenset((k, c / lead) for k, c in g.terms.items()))
            if key not in swept:
                swept[key] = reference_sweep_vanishes(g, A, form, e_options)
            vanishes = _first_nonzero(g, A, form, e_options, A.basis(), _symmetry_blocks(g)) is None
            assert vanishes == swept[key], format_poly(g)
            decided.append(vanishes)
    assert decided.count(False) >= 20 and decided.count(True) >= 60


# ---------------------------------------------------------------------------
# the symmetry test as it ran before the one-pass swap: three full renames
# through a spare index, kept as the reference for the differential test
# ---------------------------------------------------------------------------


def reference_symmetry_blocks(g):
    """The X variables of g, split into blocks on which g is symmetric.

    i and j share a block when swapping them leaves g.terms exactly equal.
    Such swaps compose, (i k) = (i j)(j k)(i j), so this is an equivalence
    and each block's swaps generate its whole symmetric group: g takes one
    value on a tuple and on every permutation of it within blocks.  Blocks
    are sorted lists, in order of their least variable.
    """
    one = g.field.one
    spare = max(g.x_indices(), default=0) + 1
    blocks = []
    for j in g.x_indices():
        for block in blocks:
            swapped = g
            for old, new in ((block[0], spare), (j, block[0]), (spare, j)):
                swapped = _substitute_choices(swapped, ("X", old), [(one, ("X", new))])
            if swapped == g:
                block.append(j)
                break
        else:
            blocks.append([j])
    return blocks


def random_tree(rng, leaves, size):
    if size == 1:
        return rng.choice(leaves)
    k = rng.randint(1, size - 1)
    return _node(random_tree(rng, leaves, k), random_tree(rng, leaves, size - k))


def random_bracket_poly(rng):
    """A sum of up to four monomials on up to 4 X variables and 2 E slots,
    each with up to two B(s, t) factors, symmetrized or antisymmetrized
    over a random set of X variables half of the time."""
    n = rng.randint(1, 4)
    leaves = [("X", j) for j in range(1, n + 1)] + [("E", i) for i in range(1, rng.randint(1, 3))]
    f = GenPoly.zero(QQ)
    for _ in range(rng.randint(1, 4)):
        args = [random_tree(rng, leaves, rng.randint(1, 3)) for _ in range(2 * rng.randint(0, 2))]
        brackets = [_bracket_key(s, t) for s, t in zip(args[::2], args[1::2])]
        f = f + GenPoly.monomial(QQ, QQ.from_int(rng.choice((-3, -2, -1, 1, 2, 3))), brackets,
                                 random_tree(rng, leaves, rng.randint(1, 4)))
    if n > 1 and rng.random() < 0.5:
        moved = rng.sample(range(1, n + 1), rng.randint(2, n))
        sign = rng.choice((1, -1))
        total = GenPoly.zero(QQ)
        for perm in itertools.permutations(moved):
            image = f
            for j in moved:  # through spare indices, so the renames do not collide
                image = _substitute_choices(image, ("X", j), [(QQ.one, ("X", 10 + j))])
            for j, k in zip(moved, perm):
                image = _substitute_choices(image, ("X", 10 + j), [(QQ.one, ("X", k))])
            parity = sum(a > b for a, b in itertools.combinations(perm, 2)) % 2
            total = total + (QQ.from_int(sign ** parity) * image)
        f = total
    return f


def test_symmetry_blocks_against_reference():
    """The one-pass swap test gives the blocks of the three-rename test on
    every linearized component of the catalog and on seeded random
    polynomials with E slots and brackets, whose swapped arguments re-sort."""
    polys = [g for name in BUILTIN_NAMES for g in linearized_components(builtin_identity(name, QQ, HALF))]
    rng = random.Random(23)
    polys += [random_bracket_poly(rng) for _ in range(300)]
    shared = bracketed = 0
    for g in polys:
        blocks = _symmetry_blocks(g)
        assert blocks == reference_symmetry_blocks(g), format_poly(g)
        if any(len(block) > 1 for block in blocks):
            shared += 1
            bracketed += g.has_brackets()
    assert shared >= 60 and bracketed >= 40


def reference_full_linearize(f, j):
    """full_linearize as it ran before the one-pass expansion: the X_j
    step, iterated while a monomial is more than linear in X_j."""
    nxt = max(f.x_indices(), default=0) + 1
    introduced = []
    cur = f
    leaf = ("X", j)
    while any(_mono_degree(k, leaf) > 1 for k in cur.terms):
        while nxt in cur.x_indices():
            nxt += 1
        cur = linearize_step(cur, j, nxt)
        introduced.append(nxt)
        nxt += 1
    return cur, introduced


def test_full_linearize_against_reference():
    """The one-pass expansion gives the iterated steps' polynomial and fresh
    indices, with equal coefficient types, on the catalog over Q and F_7,
    on polynomials mixing X_j-degrees 0 to 4 (one with no body), and on
    seeded random polynomials with E slots and brackets of X_j-degree at
    most 4."""
    F7 = PrimeField(7)
    polys = [builtin_identity(name, QQ, HALF) for name in BUILTIN_NAMES]
    polys += [builtin_identity(name, F7, F7.from_fraction(HALF)) for name in BUILTIN_NAMES]
    polys += [parse_poly(text, field) for field in (QQ, F7) for text in (
        "x1*(x1*x1) + 3*(x1*x1) - x1*x2 + 2*(E1*x2)",
        "(x1*x1)*(x1*x1) - B(x1,x1)*(x1*E1) + 5*B(x2,E1)*E1",
    )]
    polys.append(bracket(parse_poly("x1*x1 + x2", QQ), parse_poly("x1*E1 - x1", QQ)))
    rng = random.Random(29)
    polys += [random_bracket_poly(rng) for _ in range(200)]
    compared = 0
    for f in polys:
        for j in f.x_indices():
            if f.degree_in_x(j) > 4:
                continue
            g, introduced = full_linearize(f, j)
            h, expected = reference_full_linearize(f, j)
            assert (g, introduced) == (h, expected), (format_poly(f), j)
            assert {k: type(c) for k, c in g.terms.items()} == {k: type(c) for k, c in h.terms.items()}
            compared += f.degree_in_x(j) > 1
    assert compared >= 250


def test_operations_leave_operands_unchanged(mats3c):
    """A GenPoly is immutable once built: no operation changes the terms of
    its operands, the decision and the evaluation included."""
    f = builtin_identity("miyamotoClosure", QQ, HALF)
    g = builtin_identity("jordan", QQ, HALF)
    slot = builtin_identity("primitivityFrobenius", QQ, HALF)
    polys = (f, g, slot)
    before = [dict(p.terms) for p in polys]
    A, a = mats3c.algebra, mats3c.axes[0]
    _ = (f + g, f - g, -f, HALF * f, f * HALF, f * g, bracket(f, g),
         linearize_step(g, 1, 5), full_linearize(g, 1), specialize_idempotent_slot(slot, 1, 3),
         holds_as_identity(f, A, idempotent_pool=list(mats3c.axes), form=mats3c.form),
         holds_as_identity(g, A),
         evaluate(slot, {1: mats3c.axes[1]}, {1: a}, form=mats3c.form))
    assert [p.terms for p in polys] == before


# ---------------------------------------------------------------------------
# the recursive sort key that trees had before they sorted as tuples
# ---------------------------------------------------------------------------


def reference_tkey(t):
    if t[0] == "E":
        return (0, 0, t[1])
    if t[0] == "X":
        return (0, 1, t[1])
    return (1, reference_tkey(t[1]), reference_tkey(t[2]))


def reference_bracket_order(b):
    return (reference_tkey(b[0]), reference_tkey(b[1]))


LEAVES = st.tuples(st.sampled_from(["E", "X"]), st.integers(1, 3))
TREES = st.recursive(LEAVES, lambda kids: st.tuples(st.just(_MUL), kids, kids), max_leaves=6)


@settings(max_examples=150, deadline=None)
@given(st.lists(TREES, min_size=1, max_size=6), st.lists(st.tuples(TREES, TREES), max_size=5))
def test_tuple_order_is_reference_tkey_order(trees, pairs):
    assert sorted(trees) == sorted(trees, key=reference_tkey)
    for l in trees:
        for r in trees:
            assert (l <= r) == (reference_tkey(l) <= reference_tkey(r))
            expected = l if l == r and l[0] == "E" else (
                (_MUL, l, r) if reference_tkey(l) <= reference_tkey(r) else (_MUL, r, l))
            assert _node(l, r) == expected
    brackets = [_bracket_key(a, b) for a, b in pairs]
    for (a, b), key in zip(pairs, brackets):
        assert key == ((a, b) if reference_tkey(a) <= reference_tkey(b) else (b, a))
    assert list(_sorted_brackets(brackets)) == sorted(brackets, key=reference_bracket_order)


def test_sorted_terms_in_reference_order():
    x1, x2 = x_var(QQ, 1), x_var(QQ, 2)
    polys = [bracket(x1 * x2, x1) * bracket(x2, x2) + bracket(x1, x1), parse_poly(ASSOCIATOR, QQ)]
    for name in BUILTIN_NAMES:
        f = builtin_identity(name, QQ, HALF)
        polys += [f] + [full_linearize(f, j)[0] for j in f.x_indices()]
    for g in polys:
        expected = sorted(g.terms.items(), key=lambda kv: (
            len(kv[0][0]),
            tuple((reference_tkey(a), reference_tkey(b)) for a, b in kv[0][0]),
            (0,) if kv[0][1] is None else (1, reference_tkey(kv[0][1])),
        ))
        assert g.sorted_terms() == expected


# -- the identity parser as it ran before one reader served scalar and
# identity text, verbatim but for its name, reference_parse_poly


_SCALAR = "scalar"


def reference_parse_poly(text, field, lam=None):
    """Parse the identity grammar.

    Variables x1.., slots E1.., product * with explicit parentheses for
    nested products, bracket factors B(s,t), rational coefficients, and
    ``lam`` for the bound eigenvalue symbol (required to be supplied).  / in
    a term divides by a nonzero scalar: a number, lam or a parenthesized
    scalar expression.
    """
    try:
        toks = _lex(text)
        val, pos = _parse_sum(toks, 0, field, lam)
    except ValueError as exc:  # int() refuses a numeral past its digit limit
        raise PolyParseError(str(exc)) from exc
    except RecursionError as exc:  # the parser recurses per '(' and per unary sign
        raise PolyParseError("polynomial text is nested too deeply") from exc
    if pos != len(toks):
        raise PolyParseError("trailing input", toks[pos][2])
    if isinstance(val, tuple) and val[0] == _SCALAR:
        if val[1]:
            raise PolyParseError("polynomial must be element-valued, got a bare scalar", 0)
        return GenPoly.zero(field)
    if any(body is None for _brackets, body in val.terms):
        raise PolyParseError("monomial has no element-valued body", 0)
    return val


def _lex(text):
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/(),":
            toks.append((ch, None, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(("num", Fraction(int(text[i:j])), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
            continue
        raise PolyParseError(f"bad character {ch!r}", i)
    return toks


def _parse_sum(toks, pos, field, lam):
    val, pos = _parse_term(toks, pos, field, lam)
    while pos < len(toks) and toks[pos][0] in "+-":
        op = toks[pos][0]
        rhs, pos = _parse_term(toks, pos + 1, field, lam)
        val = _combine_add(val, rhs, negate=(op == "-"), field=field, at=toks[pos - 1][2])
    return val, pos


def _parse_term(toks, pos, field, lam):
    val, pos = _parse_factor(toks, pos, field, lam)
    while pos < len(toks) and toks[pos][0] in "*/":
        op, at = toks[pos][0], toks[pos][2]
        rhs, pos = _parse_factor(toks, pos + 1, field, lam)
        if op == "/":
            if not (isinstance(rhs, tuple) and rhs[0] == _SCALAR):
                raise PolyParseError("can only divide by a scalar: a number, lam or a parenthesized scalar", at)
            if not rhs[1]:
                raise PolyParseError("division by zero", at)
            rhs = (_SCALAR, field.one / rhs[1])
        val = _combine_mul(val, rhs, field)
    return val, pos


def _parse_factor(toks, pos, field, lam):
    if pos >= len(toks):
        raise PolyParseError("unexpected end of input", toks[-1][2] if toks else 0)
    kind, payload, at = toks[pos]
    if kind == "-":
        val, pos = _parse_factor(toks, pos + 1, field, lam)
        return _combine_mul((_SCALAR, -field.one), val, field), pos
    if kind == "+":
        return _parse_factor(toks, pos + 1, field, lam)
    if kind == "(":
        val, pos = _parse_sum(toks, pos + 1, field, lam)
        if pos >= len(toks) or toks[pos][0] != ")":
            raise PolyParseError("missing ')'", at)
        return val, pos + 1
    if kind == "num":
        return (_SCALAR, field.from_fraction(payload)), pos + 1
    if kind == "name":
        name = payload
        if name == "lam":
            if lam is None:
                raise PolyParseError("'lam' used but no lambda binding supplied", at)
            return (_SCALAR, lam), pos + 1
        if name == "B":
            if pos + 1 >= len(toks) or toks[pos + 1][0] != "(":
                raise PolyParseError("B requires '('", at)
            arg1, pos = _parse_sum(toks, pos + 2, field, lam)
            if pos >= len(toks) or toks[pos][0] != ",":
                raise PolyParseError("B requires two arguments", at)
            arg2, pos = _parse_sum(toks, pos + 1, field, lam)
            if pos >= len(toks) or toks[pos][0] != ")":
                raise PolyParseError("missing ')' after B arguments", at)
            for a in (arg1, arg2):
                if isinstance(a, tuple) and a[0] == _SCALAR:
                    raise PolyParseError("bracket arguments must be element-valued", at)
            try:
                return bracket(arg1, arg2), pos + 1
            except ValueError as exc:
                raise PolyParseError(str(exc), at) from exc
        if name.startswith("x") and name[1:].isdigit():
            return x_var(field, int(name[1:])), pos + 1
        if name.startswith("E") and name[1:].isdigit():
            return e_slot(field, int(name[1:])), pos + 1
        raise PolyParseError(f"unknown name {name!r}", at)
    raise PolyParseError(f"unexpected token {kind!r}", at)


def _combine_add(a, b, negate, field, at):
    a_sc = isinstance(a, tuple) and a[0] == _SCALAR
    b_sc = isinstance(b, tuple) and b[0] == _SCALAR
    if a_sc and b_sc:
        return (_SCALAR, a[1] - b[1] if negate else a[1] + b[1])
    if a_sc or b_sc:
        sc, poly = (a, b) if a_sc else (b, a)
        if sc[1]:
            raise PolyParseError("cannot add a nonzero scalar to an element-valued term", at)
        if a_sc:  # 0 +- poly
            return (-field.one) * poly if negate else poly
        return poly  # poly +- 0
    return a - b if negate else a + b


def _combine_mul(a, b, field):
    a_sc = isinstance(a, tuple) and a[0] == _SCALAR
    b_sc = isinstance(b, tuple) and b[0] == _SCALAR
    if a_sc and b_sc:
        return (_SCALAR, a[1] * b[1])
    if a_sc:
        return a[1] * b
    if b_sc:
        return b[1] * a
    return a * b


# ---------------------------------------------------------------------------


def outcome(read, text, *args, **kwargs):
    """The value that read gives for text, or the class of what it raises."""
    try:
        return read(text, *args, **kwargs)
    except Exception as exc:
        return type(exc)


IDENTITY_SOUP = st.lists(st.sampled_from(["x1", "x2", "E1", "B(", ",", "lam", "t", "s", "0", "1", "2", "7", "+", "-",
                                          "*", "/", "^", "(", ")", " ", "?", "_x"]), max_size=10).map("".join)
IDENTITY_TEXTS = st.recursive(
    st.sampled_from(["x1", "x2", "E1", "lam", "0", "1", "2", "7", "t", "(lam-1)"]),
    lambda kids: st.one_of(
        st.tuples(kids, st.sampled_from("+-*/"), kids).map("".join),
        kids.map("({})".format),
        kids.map("-{}".format),
        st.tuples(kids, st.integers(0, 3)).map("{0[0]}^{0[1]}".format),
        st.tuples(kids, kids).map("B({0[0]},{0[1]})".format),
    ),
    max_leaves=8,
)
SCALAR_TERMS = st.recursive(
    st.sampled_from(["lam", "0", "1", "2", "7", "t"]),
    lambda kids: st.one_of(
        st.tuples(kids, st.sampled_from("+-*/"), kids).map("({0[0]}{0[1]}{0[2]})".format),
        st.tuples(kids, st.integers(0, 3)).map("{0[0]}^{0[1]}".format),
        kids.map("-{}".format),
    ),
    max_leaves=4,
)
ELEMENT_TERMS = st.recursive(
    st.sampled_from(["x1", "x2", "E1"]),
    lambda kids: st.one_of(
        st.tuples(kids, st.sampled_from("+-*"), kids).map("".join),
        kids.map("({})".format),
        st.tuples(SCALAR_TERMS, kids).map("{0[0]}*{0[1]}".format),
        st.tuples(kids, SCALAR_TERMS).map("{0[0]}/{0[1]}".format),
        st.tuples(kids, kids).map("B({0[0]},{0[1]})*E1".format),
    ),
    max_leaves=6,
)
READER_FIELDS = {"Q": QQ, "F7": PrimeField(7), "Qt": RationalFunctions("t")}


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.one_of(IDENTITY_SOUP, IDENTITY_TEXTS, ELEMENT_TERMS), st.sampled_from(sorted(READER_FIELDS)), st.sampled_from([True, True, False]))
def test_reader_matches_reference_identity_parser(text, field_name, bound):
    """Identity text reads to the polynomial the old parser gave, with the
    same coefficient types, and what it refused is refused with the same
    class, except that over Q(t) the text may now name t and take powers."""
    field = READER_FIELDS[field_name]
    lam = field.from_int(3) if bound else None
    got = outcome(parse_poly, text, field, lam=lam)
    want = outcome(reference_parse_poly, text, field, lam=lam)
    if got != want:
        assert field_name == "Qt" and want is PolyParseError and ("t" in text or "^" in text), (got, want)
    elif isinstance(got, GenPoly):
        assert {k: type(c) for k, c in got.terms.items()} == {k: type(c) for k, c in want.terms.items()}


@pytest.mark.parametrize("text, char, position", [
    ("x1 + x١", "١", 6),  # x followed by ARABIC-INDIC DIGIT ONE
    ("٣*x2", "٣", 0),
    ("x²", "²", 1),  # SUPERSCRIPT TWO
    ("E１*x1", "１", 1),  # FULLWIDTH DIGIT ONE
    ("x1٢*x2", "٢", 2),
])
def test_identity_numerals_and_indices_take_ascii_digits_only(text, char, position):
    with pytest.raises(PolyParseError) as exc:
        parse_poly(text, QQ)
    assert exc.value.position == position
    assert str(exc.value) == f"bad character {char!r} (at position {position})"
