"""One idempotency test: ``Algebra.is_idempotent_lift`` squares a lift with
``Algebra.lifted_product`` and compares the square with the lift.

It is compared with ``x * x == x`` and with a square written here on field
values from the structure constants, on the algebras and elements of the
golden corpus and on seeded elements and idempotents over Q, F_7, F_101 and
Q(t), with 0 and the unit among them.  ``evaluate`` and the identity
searches test their E values and pool members through it; on inputs with
two faults each raises the error of the first check that fails.
"""

import random
from fractions import Fraction

import pytest

from axial import (QQ, PrimeField, RationalFunctions, builtin_identity, enumerate_idempotents_2gen, evaluate,
                   generate_subalgebra, holds_as_identity, is_idempotent, jordan_symmetric_matrices,
                   matsuo_from_triple_system, parse_poly, sample_identity, toric_euf, universal_2gen)
from axial.errors import AlgebraMismatch, NotIdempotent
from axial.linalg import lift_sparse

from conftest import direct_sum, transpositions

HALF = Fraction(1, 2)
QT = RationalFunctions("t")
ONE_LINE = (["a", "b", "c"], [["a", "b", "c"]])


def reference_square(x):
    """x * x summed over the structure constants in field values."""
    A = x.algebra
    out = [A.field.zero] * A.dim
    for i, xi in enumerate(x.coeffs):
        for j, xj in enumerate(x.coeffs):
            if xi and xj:
                for k, c in enumerate(A.structure[i][j]):
                    out[k] = out[k] + xi * xj * c
    return A.element(out)


def lifted_verdict(x):
    A = x.algebra
    return A.is_idempotent_lift(lift_sparse(A.field, x.coeffs))


def assert_agree(elements):
    """The lifted test, ``x * x == x``, the reference square and
    ``is_idempotent`` agree on every element; the count of idempotents."""
    count = 0
    for x in elements:
        want = x * x == x
        assert reference_square(x) == x if want else reference_square(x) != x
        assert lifted_verdict(x) is want and is_idempotent(x) is want, x
        count += want
    return count


def corpus_elements(field, rng):
    """The algebras of the golden product and axes records over field, with
    their axes, toric idempotents, basis elements, 0, the unit when there is
    one, seeded elements and the scaled and shifted idempotents."""
    half = field.from_fraction(HALF)
    tor = toric_euf(field)
    algebras = [matsuo_from_triple_system(transpositions(n), half, field) for n in (3, 4)]
    algebras += [universal_2gen(HALF, QT.variable() if field is QT else Fraction(1, 8), field)]
    out = []
    idempotents = [tor.idempotent(field.from_fraction(e)) for e in (1, 2, Fraction(-3, 5), 5, Fraction(1, 3))]
    idempotents += [tor.u - idempotents[1]]
    for alg in algebras:
        idempotents += list(alg.axes)
    for A in [tor.algebra] + [alg.algebra for alg in algebras]:
        out += A.basis() + [A.zero()]
        unit = A.unit()
        out += [] if unit is None else [unit, unit + unit]
        for _ in range(3):
            out.append(A.element([field.from_fraction(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                                  for _ in range(A.dim)]))
    for x in idempotents:
        A = x.algebra
        out += [x, x + x, x + A.basis_element(rng.randrange(A.dim))]
    return out


@pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(101), QT], ids=["Q", "F7", "F101", "Qt"])
def test_lifted_test_matches_the_square_on_seeded_elements(field):
    count = assert_agree(elements := corpus_elements(field, random.Random(31)))
    # the toric idempotents, u - x, the axes, 0 and the units are idempotent
    assert count >= 20 and len(elements) - count >= 30


def test_lifted_test_matches_the_square_on_the_golden_corpus():
    # H3 and its classical pair, 3C(1/2) + 3C(1/3), the generated
    # subalgebras and their enumerated idempotents, and the generic member
    # of the Q(m) family
    rng = random.Random(7)
    elements = []
    for field in (QQ, PrimeField(7)):
        h3 = jordan_symmetric_matrices(3, field)
        half = field.from_fraction(HALF)
        elements += h3.basis() + [h3.element([half, half, field.zero, half, field.zero, field.zero]), h3.unit()]
    c3 = matsuo_from_triple_system(ONE_LINE, HALF)
    c3_third = matsuo_from_triple_system((["p", "q", "r"], [["p", "q", "r"]]), Fraction(1, 3))
    D = direct_sum(c3.algebra, c3_third.algebra)
    elements += [D.element([Fraction(c) for c in coeffs])
                 for coeffs in ([1, 0, 0, 1, 0, 0], [1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0], [1, 1, 0, 0, 0, 0])]
    for pi in (Fraction(0), Fraction(1, 8), Fraction(2), Fraction(1, 3)):
        tg = universal_2gen(HALF, pi)
        B = generate_subalgebra(list(tg.axes[:2]))
        enum = enumerate_idempotents_2gen(B, HALF)
        elements += list(tg.axes) + list(enum.finite) + [B.embed(x) for x in B.induced.basis()]
        elements += [tg.sigma, B.induced.element([Fraction(rng.randint(-3, 3)) for _ in range(B.dim)])]
    _lifted, generic = enum.family.symbolic()
    elements += [generic, generic + generic]
    count = assert_agree(elements)
    assert count >= 40 and len(elements) - count >= 15


def test_evaluate_lifts_each_e_value_through_the_test(mats3c, monkeypatch):
    # one lifted test per E value, including one that f does not use
    calls = []
    real = type(mats3c.algebra).is_idempotent_lift

    def counted(A, lift):
        calls.append(lift)
        return real(A, lift)

    monkeypatch.setattr(type(mats3c.algebra), "is_idempotent_lift", counted)
    a, b, c = mats3c.axes
    f = builtin_identity("primitivityFrobenius", QQ, HALF)
    assert evaluate(f, {1: b}, {1: a, 2: c}, form=mats3c.form).is_zero()
    assert calls == [lift_sparse(QQ, a.coeffs), lift_sparse(QQ, c.coeffs)]


# error type and message on inputs with two faults: the first check that
# fails wins.  evaluate checks the binding (elements, then form), the field,
# the E values, the unbound variables and the form; the searches check the
# binding and the pool, then the field and the form as they compile
def test_two_faults_foreign_form_and_non_idempotent(mats3c, toric):
    f = builtin_identity("primitivityFrobenius", QQ, HALF)
    b = mats3c.axes[1]
    message = "the form belongs to a different algebra"
    with pytest.raises(AlgebraMismatch, match=f"^{message}$"):
        evaluate(f, {1: b}, {1: b + b}, form=toric.form)
    for decide in (holds_as_identity, sample_identity):
        with pytest.raises(AlgebraMismatch, match=f"^{message}$"):
            decide(f, mats3c.algebra, idempotent_pool=[b + b], form=toric.form)


def test_two_faults_field_and_unbound_variable(mats3c):
    f = parse_poly("x1*x2", PrimeField(7))
    message = r"^polynomial over PrimeField\(7\) on an algebra over Rationals\(\)$"
    with pytest.raises(AlgebraMismatch, match=message):
        evaluate(f, {1: mats3c.axes[1]}, {})
    for decide in (holds_as_identity, sample_identity):
        with pytest.raises(AlgebraMismatch, match=message):
            decide(f, mats3c.algebra)


def test_two_faults_missing_form_and_non_idempotent(mats3c):
    f = builtin_identity("primitivityFrobenius", QQ, HALF)
    b = mats3c.axes[1]
    with pytest.raises(NotIdempotent, match="^E1 assigned a non-idempotent$"):
        evaluate(f, {1: b}, {1: b + b})
    for decide in (holds_as_identity, sample_identity):
        with pytest.raises(NotIdempotent, match="^pool contains a non-idempotent$"):
            decide(f, mats3c.algebra, idempotent_pool=[b + b])
