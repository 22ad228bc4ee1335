import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import axial
from axial.errors import ScalarParseError, SchemaError
from axial.fields import (
    MAX_EXPONENT,
    MAX_SCALAR_WORK,
    QQ,
    Fp,
    PrimeField,
    RatFunc,
    RationalFunctions,
    _PRIME_TEST_BOUND,
    _fraction_sqrt,
    _horner,
    _is_prime,
    _literal,
    _pprem_int,
    _roots_mod,
    _scalar_budget,
    _sqrt_mod,
    _trim,
    _zadd,
    _zcontent,
    _zdivmod,
    _zgcd,
    _zmul,
    _zquo,
    _zscale,
    field_from_json,
    parse_scalar,
)


class TestRationals:
    def test_parse_literals(self):
        assert parse_scalar("1/2", QQ) == Fraction(1, 2)
        assert parse_scalar("27/32", QQ) == Fraction(27, 32)
        assert parse_scalar("-3", QQ) == -3

    def test_parse_errors(self):
        with pytest.raises(ScalarParseError):
            QQ.parse("1/0")
        with pytest.raises(ScalarParseError):
            QQ.parse("x")
        with pytest.raises(ScalarParseError):
            QQ.parse("1.5")

    def test_format_roundtrip(self):
        for text in ["0", "1", "-1", "27/32", "-5/7"]:
            assert QQ.format(QQ.parse(text)) == text

    def test_sqrt(self):
        assert QQ.sqrt(Fraction(9, 4)) == Fraction(3, 2)
        assert QQ.sqrt(Fraction(2)) is None
        assert QQ.sqrt(Fraction(-1)) is None

    def test_format_past_digit_limit(self):
        with pytest.raises(ScalarParseError):
            QQ.format(Fraction(1, 10**4300))
        with pytest.raises(ScalarParseError):
            RationalFunctions("t").format(RatFunc.const(10**4300))

    def test_poly_roots(self):
        # x(x-1)(x-1/2)
        roots = QQ.poly_roots([Fraction(0), Fraction(1, 2), Fraction(-3, 2), Fraction(1)])
        assert sorted(roots) == [0, Fraction(1, 2), 1]
        # irreducible x^2 + 1
        assert QQ.poly_roots([Fraction(1), Fraction(0), Fraction(1)]) == []


class TestPrimeField:
    def test_gating(self):
        with pytest.raises(ValueError):
            PrimeField(6)
        with pytest.raises(ValueError):
            PrimeField(2)
        with pytest.raises(ValueError):
            PrimeField(5)
        assert PrimeField(5, allow_small=True).p == 5
        assert PrimeField(7).p == 7

    def test_parse(self):
        F7 = PrimeField(7)
        assert F7.parse("10") == F7.from_int(3)
        assert F7.parse("1/2") == F7.from_int(4)
        with pytest.raises(ScalarParseError):
            F7.parse("1/7")

    def test_arithmetic(self):
        F7 = PrimeField(7)
        a, b = F7.from_int(3), F7.from_int(5)
        assert a + b == F7.from_int(1)
        assert a * b == F7.from_int(1)
        assert (a / b) * b == a
        assert -a == F7.from_int(4)

    def test_sqrt_and_roots(self):
        F7 = PrimeField(7)
        two = F7.from_int(2)
        r = F7.sqrt(two)
        assert r is not None and r * r == two
        assert F7.sqrt(F7.from_int(3)) is None  # 3 is not a QR mod 7
        roots = F7.poly_roots([F7.from_int(-1), F7.zero, F7.one])  # x^2 - 1
        assert sorted(v.v for v in roots) == [1, 6]

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 17, 97, 101])
    def test_sqrt_is_least_root_of_a_scan(self, p):
        for a in range(p):
            want = next((t for t in range(p) if (t * t - a) % p == 0), None)
            assert _sqrt_mod(a, p) == want
            if p > 2:
                got = PrimeField(p, allow_small=True).sqrt(Fp(a, p))
                assert (None if got is None else got.v) == want

    def test_strong_pseudoprime_to_bases_through_37_is_composite(self):
        n = 399165290221 * 798330580441  # passes Miller-Rabin to every prime base 2..37
        assert n == 318665857834031151167461 and not _is_prime(n)
        with pytest.raises(ValueError):
            PrimeField(n)
        with pytest.raises(SchemaError):
            field_from_json({"kind": "Fp", "p": n})

    def test_prime_test_bound(self):
        # the least strong pseudoprime to all 13 prime bases through 41: the
        # test is exact below it, and PrimeField refuses it and every p above
        bound = 3317044064679887385961981
        assert _is_prime(bound)
        for p in (bound, 2**89 - 1):
            with pytest.raises(ValueError):
                PrimeField(p)
            with pytest.raises(SchemaError):
                field_from_json({"kind": "Fp", "p": p})
        assert PrimeField(2**61 - 1).p == 2**61 - 1

    def test_sqrt_large_prime(self):
        p = 2**31 - 1
        K = PrimeField(p)
        x = 123456789
        assert K.sqrt(K.from_int(x * x)) == Fp(min(x, p - x), p)
        assert K.sqrt(K.from_int(-1)) is None  # p = 3 mod 4


class TestRationalFunctions:
    def test_parse_examples(self):
        Qt = RationalFunctions("t")
        x = Qt.parse("(t^2-1)/(t)")
        assert x == (Qt.variable() ** 2 - 1) / Qt.variable()
        y = Qt.parse("(3*t^2-1)/(2*t)")
        assert y * (2 * Qt.variable()) == 3 * Qt.variable() ** 2 - 1

    def test_parse_errors(self):
        Qt = RationalFunctions("t")
        for text in ("1/0", "t/(t-t)", "t²", "(" * 3000 + "t" + ")" * 3000, "-" * 3000 + "t"):
            with pytest.raises(ScalarParseError):
                Qt.parse(text)

    def test_canonical_reduction(self):
        Qt = RationalFunctions("t")
        t = Qt.variable()
        # (t^2 - 1)/(t - 1) reduces to t + 1
        assert (t * t - 1) / (t - 1) == t + 1
        # denominator is kept monic
        x = (t + 1) / (2 * t)
        assert x.den == (Fraction(0), Fraction(1))

    def test_format_roundtrip(self):
        Qt = RationalFunctions("t")
        t = Qt.variable()
        for val in [t, (3 * t ** 2 - 1) / (2 * t), Qt.from_fraction(Fraction(-5, 7)), t ** 3 - t]:
            assert Qt.parse(Qt.format(val)) == val

    def test_exponent_cap(self):
        Qt = RationalFunctions("t")
        assert Qt.parse("t^100") == Qt.variable() ** 100
        assert Qt.parse("(2*t)^3") == 8 * Qt.variable() ** 3
        assert Qt.parse(f"t^{MAX_EXPONENT}") == Qt.variable() ** MAX_EXPONENT
        assert Qt.parse("(2^1000)^100") == Qt.from_int(2 ** 100000)
        # the result's degree and size are capped, not only each exponent
        for text in (f"t^{MAX_EXPONENT + 1}", "t^100000000", "2^100000000", "(t+1)^100000000",
                     "(t^1000)^1000", "(t^10000)^10000", "(2^1000)^1000", "(t+1)^10000"):
            with pytest.raises(ScalarParseError):
                Qt.parse(text)

    def test_every_primitive_is_metered(self):
        # inside a parse each integer polynomial primitive draws on the
        # text's budget before it runs; outside one it runs unmetered
        p, q = [1, 6], [-14, 15]
        pq = [-14, -69, 90]
        cases = [
            (lambda: _zadd(p, q), [-13, 21]),
            (lambda: _zscale(-2, p), [-2, -12]),
            (lambda: _zmul(p, q), pq),
            (lambda: _zdivmod(pq, q, 0), (p, [])),
            (lambda: _zdivmod(pq, [3, 1], 7), ([4, 6], [2])),
            (lambda: _zquo(pq, p), q),
            (lambda: _zcontent([-4, 6, -8]), -2),
            (lambda: _zgcd(pq, [28, -30]), q),
            (lambda: _pprem_int((1, 2, 3), (1, 1)), [2]),
        ]
        token = _scalar_budget.set([0])
        try:
            for call, _ in cases:
                with pytest.raises(ScalarParseError, match="work budget"):
                    call()
        finally:
            _scalar_budget.reset(token)
        for call, value in cases:
            assert call() == value

    def test_one_work_budget_per_text(self):
        # every polynomial operation in the text draws on one budget before it runs
        Qt = RationalFunctions("t")
        t = Qt.variable()
        assert Qt.parse("*".join(["(t+1)^10"] * 10)) == (t + 1) ** 100
        power = Qt.parse("(t+1)^400")
        assert power.num[200] == math.comb(400, 200)
        assert Qt.parse("(t^2-1)/(2*t)") == (t * t - 1) / (2 * t)
        # (t+1)^400 takes most of it; products are charged by operand size
        # and linear steps by result size, so one linear step after it still
        # fits, and so do 70 distinct linear factors
        assert Qt.parse("(t+1)^400+1") == power + 1
        assert Qt.parse("(t+1)^200*(t+2)^200") == (t + 1) ** 200 * (t + 2) ** 200
        assert Qt.parse("-(t+1)^400") == -power
        assert Qt.parse("*".join(f"(t+{i})" for i in range(1, 71))) == math.prod(
            (t + i for i in range(1, 71)), start=Qt.one)
        # the gcds of a quotient draw on the budget pass by pass, so one whose
        # remainder sequence stays small fits, even on large coefficients, and
        # one whose coefficients grow along it (7 s unmetered) does not
        assert Qt.parse("(t+1)^200/(t+2)^199") == (t + 1) ** 200 / (t + 2) ** 199
        assert Qt.parse("(3^500*t+5^300)^10/(7^400*t+2^600)^10") == (
            (3 ** 500 * t + 5 ** 300) ** 10 / (7 ** 400 * t + 2 ** 600) ** 10)
        for text in ("*".join(["(t+1)"] * 2000), "t^10000" + "+1" * 200, "t^10000" + "/3" * 300,
                     "(3*t^2+5*t+1)^60/(7*t^2+2)^60", "(t+1)^300/((t+1)^100*(t+2)^100)"):
            with pytest.raises(ScalarParseError, match="work budget"):
                Qt.parse(text)

    def test_power_matches_repeated_product(self):
        Qt = RationalFunctions("t")
        for text in ("t+1", "(t^3+2)/(t^3-t+1)", "(3*t^2-1)/(2*t)", "-5/7", "0"):
            base = Qt.parse(text)
            acc = Qt.one
            for k in range(8):
                assert base ** k == acc and Qt.parse(f"({text})^{k}") == acc
                acc = acc * base
            if base:
                assert base ** -3 == Qt.one / (base * base * base)

    def test_unknown_symbol(self):
        Qt = RationalFunctions("t")
        with pytest.raises(ScalarParseError):
            Qt.parse("s + 1")

    def test_pole(self):
        Qt = RationalFunctions("t")
        t = Qt.variable()
        x = 1 / t
        with pytest.raises(ZeroDivisionError):
            x.eval_at(0)
        assert x.eval_at(2) == Fraction(1, 2)

    def test_sqrt(self):
        Qt = RationalFunctions("t")
        t = Qt.variable()
        sq = (t + 1) * (t + 1) / (4 * t * t)
        r = Qt.sqrt(sq)
        assert r is not None and r * r == sq
        assert Qt.sqrt(t) is None

    def test_poly_roots_constant_and_rational(self):
        Qt = RationalFunctions("t")
        t = Qt.variable()
        one = Qt.one
        # (x - 1/2)(x - t): roots 1/2 and t
        coeffs = [t / 2, -(t + Qt.from_fraction(Fraction(1, 2))), one]
        roots = Qt.poly_roots(coeffs)
        assert Qt.from_fraction(Fraction(1, 2)) in roots
        assert t in roots
        # x^2 - t has no rational-function root
        assert Qt.poly_roots([-t, Qt.zero, one]) == []


class TestFieldJson:
    def test_roundtrip(self):
        for f in (QQ, PrimeField(11), PrimeField(3, allow_small=True), PrimeField(5, allow_small=True),
                  RationalFunctions("eps")):
            assert field_from_json(f.to_json()) == f
        assert PrimeField(7).to_json() == {"kind": "Fp", "p": 7}

    def test_bad_documents(self):
        with pytest.raises(SchemaError):
            field_from_json({"kind": "R"})
        with pytest.raises(SchemaError):
            field_from_json({"kind": "Fp", "p": 4})
        with pytest.raises(SchemaError):
            field_from_json({})
        for doc in ({"kind": "Fp", "p": [7]}, {"kind": "Fp", "p": float("inf")},
                    {"kind": "Fp", "p": 7.9}, {"kind": "Qt", "var": 5},
                    {"kind": "Fp", "p": 5, "allow_small": "false"}, {"kind": "Fp", "p": 7, "allow_small": 1}):
            with pytest.raises(SchemaError):
                field_from_json(doc)

    @pytest.mark.parametrize("field", [QQ, PrimeField(7), RationalFunctions("t")], ids=["Q", "F7", "Qt"])
    def test_integer_literal_past_digit_limit(self, field):
        huge = "9" * 5000
        for text in (huge, f"1/{huge}"):
            with pytest.raises(ScalarParseError):
                field.parse(text)


# field axioms as property tests

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    if a:
        assert a * (1 / a) == 1


@given(st.integers(0, 10), st.integers(0, 10), st.integers(0, 10))
def test_prime_field_axioms(x, y, z):
    F11 = PrimeField(11)
    a, b, c = (F11.from_int(v) for v in (x, y, z))
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    if a:
        assert a * (F11.one / a) == F11.one


@given(st.lists(st.integers(-4, 4), min_size=1, max_size=3),
       st.lists(st.integers(-4, 4), min_size=1, max_size=3))
def test_ratfunc_axioms(p, q):
    def mk(coeffs):
        return RatFunc(tuple(Fraction(c) for c in coeffs))

    a, b = mk(p), mk(q)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (a + b) == a * a + a * b
    if b:
        assert (a / b) * b == a


# The polynomial helpers on values of any field that the axes used to test
# minimal polynomials before they counted roots and took a Sylvester
# determinant, verbatim: references for tests/test_axes.py.


def _ptrim(c):
    return tuple(_trim(list(c)))


def _pdivmod(p, q):
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(_ptrim(p))
    d = len(q) - 1
    lead = q[-1]
    quo = [0 * lead] * max(0, len(r) - d)
    while r and len(r) - 1 >= d:
        c = r[-1] if lead == 1 else r[-1] / lead
        k = len(r) - 1 - d
        quo[k] = c
        for i in range(len(q)):
            r[k + i] -= c * q[i]
        while r and not r[-1]:
            r.pop()
    return _ptrim(quo), tuple(r)


def poly_gcd(p, q):
    """Monic gcd by the Euclidean algorithm on field values; Q(t) values and
    the root finders compute gcds on integer polynomials instead
    (``_zgcd``, ``_mod_gcd``)."""
    a, b = _ptrim(p), _ptrim(q)
    while b:
        a, b = b, _pdivmod(a, b)[1]
    if not a:
        return ()
    inv = 1 / a[-1]
    return tuple(inv * c for c in a)


def poly_deriv(p):
    return _ptrim([i * p[i] for i in range(1, len(p))])


def poly_is_squarefree(p):
    return len(poly_gcd(p, poly_deriv(p))) <= 1


def poly_divides(p, q):
    """True when p divides q."""
    if not p:
        return not q
    return not _pdivmod(q, p)[1]


# The polynomial helpers on Fraction coefficients that Q(t) values used
# before they moved to Z[t], verbatim but for their metering, which never ran
# outside a scalar-text parse.

_ONE = (Fraction(1),)


def _padd(p, q):
    n = max(len(p), len(q))
    return _ptrim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def _pneg(p):
    return tuple(-a for a in p)


def _pmul(p, q):
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    terms = [(j, b) for j, b in enumerate(q) if b]
    for i, a in enumerate(p):
        if a:
            for j, b in terms:
                out[i + j] += a * b
    return _ptrim(out)


def _pscale(c, p):
    if not c:
        return ()
    return tuple(c * a for a in p)


def _pgcd(p, q):
    a, b = _ptrim(p), _ptrim(q)
    if not a or not b:
        a = a or b
        return _pscale(1 / a[-1], a) if a else ()
    if len(a) == 1 or len(b) == 1:
        return _ONE
    a, b = _pcontent_int(a)[1], _pcontent_int(b)[1]
    if len(a) < len(b):
        a, b = b, a
    while True:
        r = _pprem_int(a, b)
        if not r:
            return tuple(Fraction(c, b[-1]) for c in b)
        if len(r) == 1:
            return _ONE
        g = math.gcd(*r)
        a, b = b, tuple(c // g for c in r)


def _pcontent_int(p):
    """Write p = (a/b) * prim with prim integral primitive; return (Fraction(a,b), prim int tuple)."""
    if not p:
        return Fraction(0), ()
    den = math.lcm(*[c.denominator for c in p])
    ints = [c.numerator * (den // c.denominator) for c in p]
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    return Fraction(g, den), tuple(v // g for v in ints)


# Reference rational-function arithmetic: a Euclidean gcd over Fraction
# coefficients, and every result reduced as a full product by a full gcd.


def reference_pdivmod(p, q):
    r = list(_ptrim(p))
    d = len(q) - 1
    quo = [Fraction(0)] * max(0, len(r) - d)
    while r and len(r) - 1 >= d:
        c = r[-1] / q[-1]
        k = len(r) - 1 - d
        quo[k] = c
        for i in range(len(q)):
            r[k + i] -= c * q[i]
        while r and r[-1] == 0:
            r.pop()
    return _ptrim(quo), tuple(r)


def reference_pgcd(p, q):
    a, b = _ptrim(p), _ptrim(q)
    while b:
        a, b = b, reference_pdivmod(a, b)[1]
    if not a:
        return ()
    return tuple(a_i / a[-1] for a_i in a)


def reference_reduce(num, den):
    num, den = _ptrim(num), _ptrim(den)
    g = reference_pgcd(num, den)
    if len(g) > 1:
        num = reference_pdivmod(num, g)[0]
        den = reference_pdivmod(den, g)[0]
    lead = den[-1]
    if lead != 1:
        num = tuple(c / lead for c in num)
        den = tuple(c / lead for c in den)
    return num, den


def reference_add(x, y):
    return reference_reduce(_padd(_pmul(x.num, y.den), _pmul(y.num, x.den)), _pmul(x.den, y.den))


def reference_sub(x, y):
    return reference_reduce(_padd(_pmul(x.num, y.den), _pneg(_pmul(y.num, x.den))), _pmul(x.den, y.den))


def reference_mul(x, y):
    return reference_reduce(_pmul(x.num, y.num), _pmul(x.den, y.den))


def reference_div(x, y):
    return reference_reduce(_pmul(x.num, y.den), _pmul(x.den, y.num))


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)
# degree 1 or 2
factor_polys = st.builds(lambda low, lead: (*low, lead), st.lists(small_fractions, min_size=1, max_size=2),
                         small_fractions.filter(bool))


@st.composite
def ratfunc_pairs(draw):
    """Two reduced values built from one small pool of factors, so that
    numerators and denominators share factors, zeros and constants occur,
    denominators are often equal, and sums often cancel."""
    factors = draw(st.lists(factor_polys, min_size=1, max_size=3))

    def product(nonzero, min_factors):
        c = draw(st.fractions(min_value=-4, max_value=4, max_denominator=4).filter(lambda q: q or not nonzero))
        p = (c,) if c else ()
        for f in draw(st.lists(st.sampled_from(factors), min_size=min_factors, max_size=3)):
            p = _pmul(p, f)
        return p

    def value(min_den_factors=0):
        num, den = product(False, 0), product(True, draw(st.integers(min_den_factors, 1)))
        return RatFunc(*reference_reduce(num, den))

    mode = draw(st.sampled_from(["free", "same denominator", "difference"]))
    if mode == "difference":  # x + y is the value drawn second, so the sum cancels
        x = value(1)
        return x, RatFunc(*reference_sub(value(1), x))
    x, y = value(), value()
    if mode == "same denominator":
        y = RatFunc(*reference_reduce(y.num, x.den))
    return x, y


def pair(r):
    return repr((r.num, r.den))


def monic_zgcd(p, q):
    """``_zgcd`` of the integer lifts of Q-polynomials, made monic; with one
    of them 0 the other, made monic."""
    a, b = QQ.integer_lift(p)[0], QQ.integer_lift(q)[0]
    g = _zgcd(a, b) if a and b else a or b
    return tuple(Fraction(c, g[-1]) for c in g)


@settings(max_examples=150, deadline=None)
@given(ratfunc_pairs())
def test_ratfunc_ops_match_reference(xy):
    x, y = xy
    (xn, xd), (yn, yd) = (x.num, x.den), (y.num, y.den)
    assert pair(RatFunc(_pmul(xn, yd), _pmul(xd, yd))) == repr(reference_reduce(_pmul(xn, yd), _pmul(xd, yd)))
    assert pair(x + y) == repr(reference_add(x, y))
    assert pair(x - y) == repr(reference_sub(x, y))
    assert pair(1 - y) == repr(reference_sub(RatFunc.const(1), y))
    assert pair(x * y) == repr(reference_mul(x, y))
    if yn:
        assert pair(x / y) == repr(reference_div(x, y))
    for p, q in ((xn, yn), (xn, yd), (xd, yd), (_pmul(xn, yd), _pmul(xd, yn))):
        assert repr(monic_zgcd(p, q)) == repr(reference_pgcd(p, q))


@pytest.mark.parametrize("field", [QQ, PrimeField(7), RationalFunctions("t")], ids=["Q", "F7", "Qt"])
def test_generic_poly_helpers(field):
    """The reference helpers above serve every field, with quotients in the
    coefficients' type."""
    def poly(*coeffs):
        return tuple(field.from_int(k) for k in coeffs)

    quo, rem = _pdivmod(poly(0, 0, 0, 1), poly(1, 0, 1))  # x^3 = x (x^2 + 1) - x
    assert quo == poly(0, 1) and rem == poly(0, -1)
    assert all(type(v) is type(field.one) for v in quo + rem)
    p = poly(-2, 1, 1)  # (x - 1)(x + 2)
    assert poly_divides(poly(-1, 1), p) and not poly_divides(p, poly(-1, 1))
    # gcd((x - 1)(x + 2)^2, (x - 1)(x + 5)) = x - 1
    assert poly_gcd(poly(-4, 0, 3, 1), poly(-5, 4, 1)) == poly(-1, 1)
    assert poly_gcd(poly(3), ()) == poly(1)
    assert poly_is_squarefree(p) and not poly_is_squarefree(poly(2, -3, 0, 1))  # (x - 1)^2 (x + 2)


# ---------------------------------------------------------------------------
# the root kernel against the root finders it replaced: a scan of F_p and the
# rational root theorem with trial division, both verbatim
# ---------------------------------------------------------------------------


def reference_scan_roots(field, coeffs):
    roots = []
    for t in range(field.p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * t + c.v) % field.p
        if acc == 0:
            roots.append(Fp(t, field.p))
    return roots


def _reference_divisors(n):
    n = abs(n)
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


def reference_rational_roots(p):
    p = _ptrim(p)
    roots = []
    if not p:
        return roots
    if p[0] == 0:
        roots.append(Fraction(0))
        while p and p[0] == 0:
            p = p[1:]
    if len(p) <= 1:
        return roots
    _, ip = _pcontent_int(p)
    a0, an = abs(ip[0]), abs(ip[-1])
    for r in _reference_divisors(a0):
        for s in _reference_divisors(an):
            for cand in (Fraction(r, s), Fraction(-r, s)):
                if cand not in roots and _horner(p, cand) == 0:
                    roots.append(cand)
    return roots


def _times(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


@st.composite
def root_polys(draw, scalars):
    """Coefficients (low degree first) of a polynomial of degree 0-6 that is
    not 0 in the field: random ones, or a nonzero constant times linear
    factors over a small pool of roots closed under negation (so 0, pairs
    r and -r and repeated roots are common) and perhaps a quadratic, which
    often has no roots."""
    if draw(st.booleans()):
        return draw(st.lists(scalars, min_size=1, max_size=7))
    pool = draw(st.lists(scalars, min_size=1, max_size=2))
    pool += [-r for r in pool] + [0]
    f = [draw(scalars.filter(bool))]
    for r in draw(st.lists(st.sampled_from(pool), max_size=4)):
        f = _times(f, [-r, 1])
    if draw(st.booleans()):
        f = _times(f, [draw(scalars), draw(scalars), draw(scalars.filter(bool))])
    return f


@pytest.mark.parametrize("p", [7, 101, 10007])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_prime_field_roots_match_scan(p, data):
    K = PrimeField(p)
    coeffs = [K.from_int(c) for c in data.draw(root_polys(st.integers(0, p - 1)))]
    if any(coeffs):
        assert K.poly_roots(coeffs) == reference_scan_roots(K, coeffs)


@settings(max_examples=200, deadline=None)
@given(root_polys(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))))
def test_rational_roots_match_divisor_enumeration(coeffs):
    coeffs = [Fraction(c) for c in coeffs]
    if any(coeffs):
        assert QQ.poly_roots(coeffs) == reference_rational_roots(tuple(coeffs))


@pytest.mark.parametrize("p", [2**61 - 1, 2**89 - 1])
def test_roots_in_large_prime_fields(p):
    rng = random.Random(p)
    roots = sorted({0} | {rng.randrange(p) for _ in range(5)})
    n = next(k for k in range(2, p) if pow(k, (p - 1) // 2, p) == p - 1)
    f = [3 * -n, 0, 3]  # 3 (x^2 - n), irreducible
    for r in roots + roots[1:3]:
        f = _times(f, [-r, 1])
    assert _roots_mod(f, p) == roots
    if p < _PRIME_TEST_BOUND:
        K = PrimeField(p)
        assert K.poly_roots([K.from_int(c) for c in f]) == [K.from_int(r) for r in roots]


def test_rational_roots_with_50_digit_parts():
    rng = random.Random(50)

    def big():
        return rng.randrange(10**49, 10**50)

    roots = [Fraction(big(), big()), Fraction(-big(), big()), Fraction(big()), Fraction(-big(), 7)]
    roots.append(-roots[0])
    f = [Fraction(5, 3), 0, Fraction(5, 3)]  # 5/3 (x^2 + 1)
    for r in [0] + roots + roots[:2]:
        f = _times(f, [-r, 1])
    want = sorted(roots, key=lambda x: (abs(x.numerator), x.denominator, x.numerator < 0))
    assert QQ.poly_roots(f) == [0] + want


@pytest.mark.parametrize("field", [QQ, PrimeField(7), RationalFunctions("t")], ids=["Q", "F7", "Qt"])
def test_zero_polynomial_has_every_root(field):
    for coeffs in ([field.zero], [field.zero, field.zero]):
        with pytest.raises(ValueError, match="zero polynomial has every root"):
            field.poly_roots(coeffs)


# ---------------------------------------------------------------------------
# Q(t) roots by Kronecker substitution against the bivariate sympy
# factorization they replaced, and Q(t) square roots against the coefficient
# matching they replaced, both verbatim
# ---------------------------------------------------------------------------


def reference_qt_roots(field, coeffs):
    """Roots in Q(var) via exact bivariate factorization (sympy)."""
    import sympy as sp

    x = sp.Symbol("__rootvar__")
    t = sp.Symbol(field.var)
    expr = sp.Integer(0)
    # clear denominators: multiply by the polynomial lcm of coefficient denominators
    lcm = (Fraction(1),)
    for c in coeffs:
        g = _pgcd(lcm, c.den)
        lcm = _pdivmod(_pmul(lcm, c.den), g)[0]
    for i, c in enumerate(coeffs):
        mult = _pdivmod(lcm, c.den)[0]
        poly_t = _pmul(c.num, mult)
        term = sum(sp.Rational(a) * t**k for k, a in enumerate(poly_t))
        expr += term * x**i
    if expr == 0:
        raise ValueError("zero polynomial has every root")
    roots = []
    for fac, _mult in sp.factor_list(sp.expand(expr), x, t)[1]:
        pf = sp.Poly(fac, x)
        if pf.degree() == 1:
            a1, a0 = pf.all_coeffs()
            root = sp.together(-a0 / a1)
            n, d = sp.fraction(root)
            roots.append(reference_from_sympy_pair(sp.Poly(n, t), sp.Poly(d, t)))
    # dedupe, preserve discovery order
    out = []
    for r in roots:
        if r not in out:
            out.append(r)
    return out


def reference_from_sympy_pair(num, den):
    nc = [Fraction(c.p, c.q) for c in reversed(num.all_coeffs())]
    dc = [Fraction(c.p, c.q) for c in reversed(den.all_coeffs())]
    return RatFunc(tuple(nc), tuple(dc))


def _psqrt(p):
    """Exact square root of a Q-polynomial, or None."""
    if not p:
        return ()
    if (len(p) - 1) % 2 == 1:
        return None
    lead = _fraction_sqrt(p[-1])
    if lead is None:
        return None
    half = (len(p) - 1) // 2
    q = [Fraction(0)] * (half + 1)
    q[half] = lead
    # match coefficients from the top down
    for k in range(half - 1, -1, -1):
        s = Fraction(0)
        for i in range(k + 1, half + 1):
            j = k + half - i
            if 0 <= j <= half:
                s += q[i] * q[j]
        q[k] = (p[k + half] - s) / (2 * lead)
    return _ptrim(q) if _pmul(tuple(q), tuple(q)) == _ptrim(p) else None


def reference_qt_sqrt(a):
    if not a.num:
        return RatFunc.const(0)
    ns = _psqrt(a.num)
    ds = _psqrt(a.den)
    if ns is None or ds is None:
        return None
    return RatFunc(ns, ds)


def _linear_product(field, roots, lead):
    """Coefficients, low degree first, of lead * prod (x - r)."""
    f = [lead]
    for r in roots:
        f = [(f[k - 1] if k else field.zero) - r * (f[k] if k < len(f) else field.zero)
             for k in range(len(f) + 1)]
    return f


def _qt_value(rng, Qt, max_deg=2, fraction=True):
    """A small random value of Q(t), with a t-denominator about half the time."""
    t = Qt.variable()

    def poly(deg):
        return sum((Qt.from_fraction(Fraction(rng.randint(-4, 4), rng.randint(1, 3))) * t ** k
                    for k in range(deg + 1)), Qt.zero)

    num, den = poly(rng.randint(0, max_deg)), poly(1) if fraction and rng.random() < 0.5 else Qt.one
    return num / den if den else num


def reference_monic_quadratic_roots(field, q0, q1):
    """Roots in Q(var) of x^2 + q1 x + q0: (-q1 +- s) / 2 when the
    discriminant is s^2 for some s in Q(var).  N / D, in lowest terms, is a
    square exactly when N * D is one, which sympy's univariate factorization
    decides."""
    import sympy as sp

    disc = q1 * q1 - 4 * q0
    if not disc:
        return {-q1 / 2}
    t = sp.Symbol(field.var)

    def poly(p):
        return sp.Poly([sp.Rational(c.numerator, c.denominator) for c in reversed(p)], t)

    den = poly(disc.den)
    lead, factors = (poly(disc.num) * den).factor_list()
    root = sp.sqrt(lead)
    if not root.is_Rational or any(m % 2 for _, m in factors):
        return set()
    s = sp.Poly(root, t)
    for f, m in factors:
        s *= f ** (m // 2)
    s = reference_from_sympy_pair(s, den)
    return {(s - q1) / 2, (-s - q1) / 2}


def test_qt_roots_match_bivariate_factorization():
    # the hand-picked cases are checked against sympy's bivariate
    # factorization; each random case is built from its linear factors,
    # times a quadratic whose roots the univariate discriminant test decides
    Qt = RationalFunctions("t")
    t = Qt.variable()
    rng = random.Random(2024)
    cases = [
        [Qt.from_int(5)],  # a nonzero constant: no roots
        [t + 1, (t - 2) / (t + 3)],  # linear
        _linear_product(Qt, [Qt.zero, Qt.zero, t], Qt.one),  # a repeated zero root
        _linear_product(Qt, [(10**30 * t ** 3 + 1) / (t + 7), t / 2], (t ** 2 + 1) / 3),
        _linear_product(Qt, [1 / t, 1 / t, 1 / t, t], Qt.one),
    ]
    expected = [set(reference_qt_roots(Qt, f)) for f in cases]
    quadratic_roots = 0
    while len(cases) < 300:
        roots = [_qt_value(rng, Qt, 1) for _ in range(rng.randint(1, 2))]
        roots += rng.sample(roots, min(len(roots), rng.randint(0, 1)))  # a repeated root
        f = _linear_product(Qt, roots, _qt_value(rng, Qt, 1) or Qt.one)
        want = set(roots)
        if rng.random() < 0.25:  # times a quadratic, often with no root in Q(t)
            q = [_qt_value(rng, Qt, 1, False), _qt_value(rng, Qt, 1, False), Qt.one]
            f = [sum((f[i] * q[k - i] for i in range(len(f)) if 0 <= k - i < 3), Qt.zero)
                 for k in range(len(f) + 2)]
            extra = reference_monic_quadratic_roots(Qt, q[0], q[1])
            quadratic_roots += bool(extra)
            want |= extra
        cases.append(f)
        expected.append(want)
    assert quadratic_roots > 0  # 8 of the random quadratics split over Q(t)
    nonconstant = 0
    for f, want in zip(cases, expected):
        roots = Qt.poly_roots(f)
        assert len(set(roots)) == len(roots)
        assert set(roots) == want, f
        nonconstant += any(len(r.num) > 1 or len(r.den) > 1 for r in roots)
    assert nonconstant > 200  # 231 of the 300 have a root that is not constant
    assert set(Qt.poly_roots(cases[3])) == {(10**30 * t ** 3 + 1) / (t + 7), t / 2}
    with pytest.raises(ValueError, match="zero polynomial has every root"):
        Qt.poly_roots([Qt.zero, Qt.zero])


def test_qt_roots_list_constants_first_in_rational_order():
    Qt = RationalFunctions("t")
    t = Qt.variable()
    # the eigenvalues of an axis over Q(eps) read as they did under sympy
    half = Qt.from_fraction(Fraction(1, 2))
    assert Qt.poly_roots(_linear_product(Qt, [half, Qt.zero, Qt.one], Qt.one)) == [Qt.zero, Qt.one, half]
    rng = random.Random(7)
    for _ in range(100):
        consts = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(1, 4))]
        lead = Fraction(rng.choice([-3, -1, 2, 7]), rng.randint(1, 4))
        f = _linear_product(QQ, consts, lead)
        want = [Qt.from_fraction(r) for r in QQ.poly_roots(f)]
        assert Qt.poly_roots([Qt.from_fraction(c) for c in f]) == want
        roots = Qt.poly_roots(_linear_product(Qt, [Qt.from_fraction(c) for c in consts] + [t + 1], Qt.one))
        assert roots == want + [t + 1]


def test_qt_sqrt_matches_coefficient_matching():
    Qt = RationalFunctions("t")
    t = Qt.variable()
    rng = random.Random(400)
    squares = 0
    for i in range(400):
        base = _qt_value(rng, Qt, 3)
        if i % 2:
            a = base * base
        else:  # perturbed: a square only by accident
            a = base * base * rng.choice([Qt.one, t, Qt.from_int(2), t + 1]) + rng.choice([0, 0, 1])
        got = Qt.sqrt(a)
        assert got == reference_qt_sqrt(a), Qt.format(a)
        squares += got is not None
    assert 200 <= squares < 400


def test_qt_roots_and_solid_audit_run_without_sympy(tmp_path):
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        sys.modules["sympy"] = None  # every import of sympy now fails
        from axial.cli import main
        from axial.fields import RationalFunctions

        Qt = RationalFunctions("t")
        t = Qt.variable()
        assert Qt.poly_roots([t, -(t + 1), Qt.one]) == [Qt.one, t]
        path, out = sys.argv[1], io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["construct", "toric", "-o", path]) == 0
        with contextlib.redirect_stdout(out):
            code = main(["solid", "--algebra", path, "--lambda", "1/2", "--a", '["1","1/2","1"]',
                         "--b", '["2","1/2","1/2"]', "--eps", "1,2,3", "--json"])
        report = json.loads(out.getvalue())
        print(code, report["verdict"], report["symbolic_family_checked"])
    """)
    src = os.path.dirname(os.path.dirname(axial.__file__))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "toric.json")],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "solid", "True"]


# -- the Q(t) scalar parser as it ran before one reader served scalar and
# identity text, verbatim; reference_parse_scalar is its RationalFunctions.parse


def reference_parse_scalar(text, var):
    toks = _tokenize(text, var)
    token = _scalar_budget.set([MAX_SCALAR_WORK])
    try:
        val, pos = _parse_sum(toks, 0, var)
    except ZeroDivisionError as exc:
        raise ScalarParseError(f"{text!r} divides by zero") from exc
    except RecursionError as exc:  # the parser recurses per '(' and per unary sign
        raise ScalarParseError("scalar text is nested too deeply") from exc
    finally:
        _scalar_budget.reset(token)
    if pos != len(toks):
        raise ScalarParseError(f"trailing input in {text!r}")
    return val


def _tokenize(text, var):
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/^()":
            toks.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(_literal(text[i:j], "decimal")[0])
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name = text[i:j]
            if name != var:
                raise ScalarParseError(f"unknown symbol {name!r} (variable is {var!r})")
            toks.append(name)
            i = j
        else:
            raise ScalarParseError(f"bad character {ch!r} in scalar text")
    return toks


def _parse_sum(toks, pos, var):
    val, pos = _parse_product(toks, pos, var)
    while pos < len(toks) and toks[pos] in ("+", "-"):
        op = toks[pos]
        rhs, pos = _parse_product(toks, pos + 1, var)
        val = val + rhs if op == "+" else val - rhs
    return val, pos


def _parse_product(toks, pos, var):
    val, pos = _parse_atom(toks, pos, var)
    while pos < len(toks) and toks[pos] in ("*", "/"):
        op = toks[pos]
        rhs, pos = _parse_atom(toks, pos + 1, var)
        val = val * rhs if op == "*" else val / rhs
    return val, pos


def _parse_atom(toks, pos, var):
    if pos >= len(toks):
        raise ScalarParseError("unexpected end of scalar text")
    tok = toks[pos]
    if tok == "-":
        val, pos = _parse_atom(toks, pos + 1, var)
        return -val, pos
    if tok == "+":
        return _parse_atom(toks, pos + 1, var)
    if tok == "(":
        val, pos = _parse_sum(toks, pos + 1, var)
        if pos >= len(toks) or toks[pos] != ")":
            raise ScalarParseError("missing closing parenthesis")
        pos += 1
    elif isinstance(tok, int):
        val = RatFunc.const(tok)
        pos += 1
    elif tok == var:
        val = RatFunc.var()
        pos += 1
    else:
        raise ScalarParseError(f"unexpected token {tok!r}")
    if pos < len(toks) and toks[pos] == "^":
        if pos + 1 >= len(toks) or not isinstance(toks[pos + 1], int):
            raise ScalarParseError("exponent must be a nonnegative integer")
        k = toks[pos + 1]
        deg = max(len(val._n), len(val._d), 2) - 1  # a constant counts as degree 1
        if deg * k > MAX_EXPONENT:
            raise ScalarParseError(f"exponent {k} exceeds {MAX_EXPONENT // deg} for this base")
        val = val ** k
        pos += 2
    return val, pos


def outcome(read, text, *args, **kwargs):
    """The value that read gives for text, or the class of what it raises."""
    try:
        return read(text, *args, **kwargs)
    except Exception as exc:
        return type(exc)


SCALAR_SOUP = st.lists(st.sampled_from(["t", "s", "0", "1", "2", "7", "12", "+", "-", "*", "/", "^", "(", ")",
                                        " ", ",", "?", "\u00b2", "x1"]), max_size=10).map("".join)
SCALAR_TEXTS = st.recursive(
    st.sampled_from(["t", "0", "1", "2", "3", "12", "(t-1)", "(t+1)"]),
    lambda kids: st.one_of(
        st.tuples(kids, st.sampled_from("+-*/"), kids).map("".join),
        kids.map("({})".format),
        kids.map("-{}".format),
        st.tuples(kids, st.integers(0, 4)).map("{0[0]}^{0[1]}".format),
    ),
    max_leaves=8,
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(SCALAR_SOUP, SCALAR_TEXTS))
def test_reader_matches_reference_scalar_parser(text):
    """Q(t) scalar text reads to the value the old parser gave, and what it
    refused is refused with the same class."""
    assert outcome(RationalFunctions("t").parse, text) == outcome(reference_parse_scalar, text, "t")


class TestReaderMessages:
    @pytest.mark.parametrize("text, message", [
        ("1/0", "division by zero (at position 1)"),
        ("t/(t-t)", "division by zero (at position 1)"),
        ("s + 1", "unknown name 's' (at position 0)"),
        ("t ? 1", "bad character '?' (at position 2)"),
        ("(t+1", "missing ')' (at position 0)"),
        ("t +", "unexpected end of text (at position 3)"),
        ("t*)", "unexpected token ')' (at position 2)"),
        ("t 2", "trailing input (at position 2)"),
        ("t^t", "exponent must be a nonnegative integer (at position 1)"),
        ("(t^100)^1000", "exponent 1000 exceeds 100 for this base (at position 7)"),
        ("(t+1)^10000", "scalar text exceeds its work budget (at position 5)"),
    ])
    def test_scalar_refusals_name_their_position(self, text, message):
        with pytest.raises(ScalarParseError) as exc:
            RationalFunctions("t").parse(text)
        assert str(exc.value) == message

    def test_nesting_is_refused_where_it_is_too_deep(self):
        with pytest.raises(ScalarParseError, match="text is nested too deeply") as exc:
            RationalFunctions("t").parse("(" * 3000 + "t" + ")" * 3000)
        assert 0 < exc.value.position < 3000

    def test_literal_fields_read_no_expressions(self):
        # Q and F_p read literals only: a power is metered only on Z[t]
        for field in (QQ, PrimeField(7)):
            for text in ("2^3", "1+1", "(1)", "t"):
                with pytest.raises(ScalarParseError):
                    field.parse(text)


@pytest.mark.parametrize("field", [QQ, PrimeField(7), RationalFunctions("t")], ids=["Q", "F7", "Qt"])
@pytest.mark.parametrize("text, char, position", [
    ("٣/2", "٣", 0),  # ARABIC-INDIC DIGIT THREE
    ("1/٢", "٢", 2),
    (" ３", "３", 1),  # FULLWIDTH DIGIT THREE
    ("2²", "²", 1),  # SUPERSCRIPT TWO
])
def test_numerals_take_ascii_digits_only(field, text, char, position):
    with pytest.raises(ScalarParseError) as exc:
        field.parse(text)
    assert exc.value.position == position
    assert f"bad character {char!r}" in str(exc.value)
