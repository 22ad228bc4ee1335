"""Exact scalar fields.

Three coefficient domains, all with canonical unique representations so that
equality is plain ``==``:

* ``Rationals`` -- values are ``fractions.Fraction``;
* ``PrimeField(p)`` -- values are ``Fp`` wrappers holding the least residue;
* ``RationalFunctions(var)`` -- values are ``RatFunc``: reduced fractions of
  univariate polynomials over Q with monic denominator.

All value types support the usual arithmetic operators, ``bool`` (nonzero
test), ``==`` and ``hash``, so the linear algebra and algebra layers never
need to consult the field for arithmetic.  The field objects own parsing,
formatting, square roots and polynomial root extraction.
"""

from __future__ import annotations

import contextvars
import math
import random
import re
from fractions import Fraction

from .errors import ScalarParseError, SchemaError

# the type of every value of Q, which the benchmark's context line reports
_rational = Fraction

# ---------------------------------------------------------------------------
# dense univariate polynomials over Fraction (low degree first, no trailing 0);
# _ptrim and _pdivmod use only the value operators and serve every field
# ---------------------------------------------------------------------------


_ONE = (Fraction(1),)


# the work budget of the scalar text being parsed in this context, if any:
# inside a parse each primitive below that does coefficient arithmetic draws
# on it before it runs (_charge), at the _pair_work price of its operands, and
# a loop whose operands grow draws pass by pass
_scalar_budget = contextvars.ContextVar("scalar_budget", default=None)


def _size(p):
    """Nonzero terms of p, the most bits of a coefficient's numerator and
    denominator together, and the most bits of a denominator past 1."""
    n = bits = den = 0
    for x in p:
        if x:
            n += 1
            d = x.denominator.bit_length() - 1
            bits = max(bits, x.numerator.bit_length() + d)
            den = max(den, d)
    return n, bits, den


def _pair_work(fixed, bits, bits_q, den, den_q):
    """One Fraction operation on two coefficients of the given bits and
    denominator bits: its fixed cost, a pass over the digits, the schoolbook
    product of the operands, and the gcds of the denominators, which grow
    with the square of their size (0.7 ms for two of 16,000 bits)."""
    return fixed + (bits + bits_q >> 10) + (bits * bits_q >> 18) + ((den + den_q) * (bits + bits_q) >> 17)


def _charge(budget, work):
    """Draw work from the one-item list budget before the operation runs,
    and refuse the text once it is spent."""
    budget[0] -= work
    if budget[0] < 0:
        raise ScalarParseError("scalar text exceeds its work budget")


def _ptrim(c):
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def _padd(p, q):
    n = max(len(p), len(q))
    budget = _scalar_budget.get()
    if budget is not None:
        (k, bits, den), (m, bits_q, den_q) = _size(p), _size(q)
        _charge(budget, 3 * n + min(k, m) * _pair_work(3, bits, bits_q, den, den_q))
    return _ptrim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def _pneg(p):
    budget = _scalar_budget.get()
    if budget is not None:
        _charge(budget, len(p) * _pair_work(3, _size(p)[1], 0, 0, 0))
    return tuple(-a for a in p)


def _pmul(p, q):
    if not p or not q:
        return ()
    budget = _scalar_budget.get()
    if budget is not None:
        (n, bits, den), (m, bits_q, den_q) = _size(p), _size(q)
        _charge(budget, n * m * _pair_work(6, bits, bits_q, den, den_q) + 3 * (len(p) + len(q) - 1))
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
    budget = _scalar_budget.get()
    if budget is not None:
        (_, bits, den), (_, bits_p, den_p) = _size((c,)), _size(p)
        _charge(budget, len(p) * _pair_work(6, bits, bits_p, den, den_p))
    return tuple(c * a for a in p)


def _pdivmod(p, q):
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(_ptrim(p))
    d = len(q) - 1
    lead = q[-1]
    quo = [0 * lead] * max(0, len(r) - d)
    budget = _scalar_budget.get()
    if budget is not None:
        _, bits_q, den_q = _size(q)
    while r and len(r) - 1 >= d:
        c = r[-1] if lead == 1 else r[-1] / lead
        if budget is not None:  # each pass, at the size of its quotient term
            _, bits, den = _size((c,))
            _charge(budget, len(q) * _pair_work(6, bits, bits_q, den, den_q))
        k = len(r) - 1 - d
        quo[k] = c
        for i in range(len(q)):
            r[k + i] -= c * q[i]
        while r and not r[-1]:
            r.pop()
    return _ptrim(quo), tuple(r)


def _pquo(p, q):
    """Quotient of p by q; exact when q divides p."""
    return _pdivmod(p, q)[0]


def _pgcd(p, q):
    """Monic gcd over Q.

    A primitive remainder sequence over Z (Collins, J. ACM 14, 1967): both
    inputs are scaled to primitive integer polynomials, each
    pseudo-remainder is divided by its content, and only the last nonzero
    one is made monic.  How far the coefficients grow along the sequence
    does not show in the inputs, so inside a scalar-text parse each pass of
    ``_pprem_int`` and each content gcd draws on the budget as it comes.
    """
    a, b = _ptrim(p), _ptrim(q)
    if not a or not b:
        a = a or b
        return _pscale(1 / a[-1], a) if a else ()
    if len(a) == 1 or len(b) == 1:
        return _ONE
    a, b = _pcontent_int(a)[1], _pcontent_int(b)[1]
    if len(a) < len(b):
        a, b = b, a
    budget = _scalar_budget.get()
    while True:
        r = _pprem_int(a, b)
        if not r:
            return tuple(Fraction(c, b[-1]) for c in b)
        if len(r) == 1:
            return _ONE
        if budget is not None:
            bits = _size(r)[1]
            _charge(budget, len(r) * _pair_work(1, bits, bits, 0, 0))
        g = math.gcd(*r)
        a, b = b, tuple(c // g for c in r)


def _pprem_int(a, b):
    """Remainder of m * a by b over Z, for some nonzero integer m.

    Each step scales the running remainder only by what its leading
    coefficient lacks of a multiple of b's, which keeps the integers small.
    Inside a scalar-text parse each step draws on the budget at a bound on
    the remainder's coefficients that it carries along.
    """
    r = list(a)
    lb = b[-1]
    db = len(b) - 1
    budget = _scalar_budget.get()
    if budget is not None:
        bits, bits_b = _size(a)[1], _size(b)[1]
    while len(r) > db:
        lr = r[-1]
        g = math.gcd(lr, lb)
        m, f = lb // g, lr // g
        if budget is not None:
            bits_m, bits_f = m.bit_length(), f.bit_length()
            scale = len(r) * _pair_work(1, bits, bits_m, 0, 0) if m != 1 else 0
            _charge(budget, scale + db * _pair_work(1, bits_f, bits_b, 0, 0))
            bits = max(bits + bits_m, bits_f + bits_b) + 1
        if m != 1:
            r = [m * c for c in r]
        k = len(r) - 1 - db
        for i in range(db):
            r[k + i] -= f * b[i]
        r.pop()  # its coefficient m * lr - f * lb is 0
        while r and r[-1] == 0:
            r.pop()
    return r


def _pcontent_int(p):
    """Write p = (a/b) * prim with prim integral primitive; return (Fraction(a,b), prim int tuple)."""
    if not p:
        return Fraction(0), ()
    den = math.lcm(*[c.denominator for c in p])
    budget = _scalar_budget.get()
    if budget is not None:  # at the size of the coefficients lifted over den
        bits = max(c.numerator.bit_length() for c in p) + den.bit_length()
        _charge(budget, len(p) * _pair_work(1, bits, bits, 0, 0))
    ints = [c.numerator * (den // c.denominator) for c in p]
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    return Fraction(g, den), tuple(v // g for v in ints)


def _fraction_sqrt(x):
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _rational_poly_roots(p):
    """Distinct rational roots of a nonzero Q-polynomial: 0 first, then the
    others by increasing |numerator|, then denominator, positive first.

    The primitive squarefree part f, of degree d and leading coefficient a,
    becomes the monic integer polynomial g(y) = a^(d-1) f(y / a), whose
    rational roots are integers of absolute value at most the Cauchy bound
    B.  Each root of g modulo a prime q at which g stays squarefree is
    Newton-lifted to a modulus above 2B (Loos, Computer Algebra, 1983) and
    kept when its symmetric residue is an exact root of g.
    """
    p = _ptrim(p)
    if not p:
        raise ValueError("zero polynomial has every root")
    zero = p[0] == 0
    while p[0] == 0:
        p = p[1:]
    if len(p) == 1:
        return [Fraction(0)] * zero
    f = _pcontent_int(p)[1]
    if len(f) > 2:
        h = _pgcd(f, poly_deriv(f))
        if len(h) > 1:
            f = _pcontent_int(_pquo(f, h))[1]
    d, a = len(f) - 1, f[-1]
    g = [c * a ** (d - 1 - i) for i, c in enumerate(f[:-1])] + [1]
    dg = poly_deriv(g)
    bound = 2 * (1 + max(abs(c) for c in g[:-1]))
    # small enough for a cheap x^q mod g, large enough that the small roots
    # of typical minimal polynomials rarely collide mod q or need lifting
    q = 101
    while len(_mod_gcd(g, [c % q for c in dg], q)) > 1:
        q += 2
        while not _is_prime(q):
            q += 2
    roots = []
    for r in _roots_mod(g, q):
        m = q
        while m <= bound:
            m *= m
            r = (r - _horner(g, r, m) * pow(_horner(dg, r, m), -1, m)) % m
        y = r if 2 * r < m else r - m
        if _horner(g, y) == 0:
            roots.append(Fraction(y, a))
    roots.sort(key=_root_order)
    return [Fraction(0)] * zero + roots


def _root_order(x):
    return abs(x.numerator), x.denominator, x.numerator < 0


# ---------------------------------------------------------------------------
# roots in F_p: dense polynomials of ints mod p (low degree first, no
# trailing 0), dividing by monic polynomials only
# ---------------------------------------------------------------------------


def _horner(f, x, m=None):
    """f(x), reduced mod m unless m is None."""
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
        if m is not None:
            acc %= m
    return acc


def _mod_trim(c):
    while c and not c[-1]:
        c.pop()
    return c


def _mod_divmod(a, b, p):
    """Quotient and remainder of a by the monic b."""
    r = list(a)
    db = len(b) - 1
    quo = []
    while len(r) > db:
        c = r.pop() % p
        quo.append(c)
        if c:
            k = len(r) - db
            for i in range(db):
                r[k + i] -= c * b[i]
    quo.reverse()
    return quo, _mod_trim([c % p for c in r])


def _mod_monic(a, p):
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _mod_gcd(a, b, p):
    """Monic gcd of a and b mod p; [] when both are 0."""
    a, b = _mod_trim(list(a)), _mod_trim(list(b))
    while b:
        b = _mod_monic(b, p)
        a, b = b, _mod_divmod(a, b, p)[1]
    return _mod_monic(a, p) if a else a


def _mod_pow_linear(a, e, m, p):
    """(x + a)^e modulo the monic m of degree at least 2."""
    out = [1]
    for bit in bin(e)[2:]:
        sq = [0] * (2 * len(out) - 1)
        for i, u in enumerate(out):
            if u:
                for j, v in enumerate(out):
                    sq[i + j] += u * v
        out = _mod_divmod(sq, m, p)[1]
        if bit == "1":
            out = _mod_divmod([a * u + v for u, v in zip(out + [0], [0] + out)], m, p)[1]
    return out


def _roots_mod(f, p):
    """Distinct roots in F_p of the polynomial f of ints, in ascending order.

    g = gcd(f, x^p - x) is the product of the distinct linear factors of f,
    and Cantor-Zassenhaus splits it (Math. Comp. 36, 1981): for random a,
    gcd(g, (x + a)^((p - 1)/2) - 1) keeps the roots r of g with r + a a
    nonzero square, which splits g with probability about 1/2.  The random
    sequence is seeded per call, so results never depend on other callers.
    A quadratic is solved by the quadratic formula instead.  p is an odd
    prime.
    """
    f = _mod_trim([c % p for c in f])
    if not f:
        raise ValueError("zero polynomial has every root")
    roots = set()
    if f[0] == 0:
        roots.add(0)
        while f[0] == 0:
            del f[0]
    f = _mod_monic(f, p)
    if len(f) > 3:
        h = _mod_pow_linear(0, p, f, p) + [0, 0]
        h[1] -= 1
        f = _mod_gcd(f, [c % p for c in h], p)
    todo, rng, half = [f], None, (p + 1) // 2
    while todo:
        g = todo.pop()
        if len(g) == 2:
            roots.add(-g[0] % p)
        elif len(g) == 3:
            s = _sqrt_mod(g[1] * g[1] - 4 * g[0], p)
            if s is not None:
                roots.update((r - g[1]) * half % p for r in (s, -s))
        elif len(g) > 3:
            rng = rng or random.Random(0)
            while True:
                h = _mod_pow_linear(rng.randrange(p), (p - 1) // 2, g, p) or [0]
                h[0] -= 1
                d = _mod_gcd(g, [c % p for c in h], p)
                if 1 < len(d) < len(g):
                    break
            todo += [d, _mod_divmod(g, d, p)[0]]
    return sorted(roots)


# ---------------------------------------------------------------------------
# prime-field values
# ---------------------------------------------------------------------------


class Fp:
    """Least-residue value in F_p.  Immutable, canonical, operator-complete."""

    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, Fp):
            if other.p != self.p:
                raise ValueError("mixed prime fields")
            return other.v
        if isinstance(other, int):
            return other % self.p
        if isinstance(other, Fraction):
            if other.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator of {other} vanishes mod {self.p}")
            return other.numerator * pow(other.denominator, -1, self.p)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else Fp(self.v + o, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else Fp(self.v - o, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else Fp(o - self.v, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else Fp(self.v * o, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o % self.p == 0:
            raise ZeroDivisionError("division by zero in prime field")
        return Fp(self.v * pow(o, -1, self.p), self.p)

    def __rtruediv__(self, other):
        if self.v == 0:
            raise ZeroDivisionError("division by zero in prime field")
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else Fp(o * pow(self.v, -1, self.p), self.p)

    def __neg__(self):
        return Fp(-self.v, self.p)

    def __pow__(self, n):
        return Fp(pow(self.v, n, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.p))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"Fp({self.v}, p={self.p})"


# ---------------------------------------------------------------------------
# rational-function values
# ---------------------------------------------------------------------------


class RatFunc:
    """Reduced fraction of Q-polynomials with monic denominator.

    The operators keep that form without reducing a full product by a full
    gcd (Henrici, J. ACM 3, 1956).  A sum over denominators b and d needs
    gcd(b, d), and then only the gcd of the new numerator with that factor;
    a product cancels each numerator against the other denominator first.
    Constants and polynomials need no gcd at all.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=_ONE, _reduced=False):
        if not _reduced:
            num, den = _ptrim(num), _ptrim(den)
            if not den:
                raise ZeroDivisionError("rational function with zero denominator")
            g = _pgcd(num, den)
            if len(g) > 1:
                num = _pquo(num, g)
                den = _pquo(den, g)
            lead = den[-1]
            if lead != 1:
                num = _pscale(1 / lead, num)
                den = _pscale(1 / lead, den)
        self.num = num
        self.den = den

    @staticmethod
    def const(c):
        c = Fraction(c)
        return RatFunc((c,) if c else (), _ONE, _reduced=True)

    @staticmethod
    def var():
        return RatFunc((Fraction(0), Fraction(1)), _ONE, _reduced=True)

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction)):
            return RatFunc.const(other)
        return None

    def _plus(self, c, d):
        """self + c/d, for c/d in reduced form."""
        a, b = self.num, self.den
        if not a:
            return RatFunc(c, d, _reduced=True)
        if not c:
            return self
        if b == d:
            num = _padd(a, c)
            if len(b) > 1:
                g = _pgcd(num, b)
                if len(g) > 1:
                    return RatFunc(_pquo(num, g), _pquo(b, g), _reduced=True)
            return RatFunc(num, b, _reduced=True)
        g = _pgcd(b, d)
        if len(g) == 1:
            # every factor of b*d divides exactly one of a*d and c*b
            return RatFunc(_padd(_pmul(a, d), _pmul(c, b)), _pmul(b, d), _reduced=True)
        b, d = _pquo(b, g), _pquo(d, g)
        num = _padd(_pmul(a, d), _pmul(c, b))
        # num is prime to b*d now, so only a factor of g can cancel
        h = _pgcd(num, g)
        if len(h) > 1:
            num, g = _pquo(num, h), _pquo(g, h)
        return RatFunc(num, _pmul(_pmul(b, d), g), _reduced=True)

    def _times(self, c, d):
        """self * c/d, for c/d in reduced form."""
        a, b = self.num, self.den
        if not a or not c:
            return RatFunc((), _ONE, _reduced=True)
        if len(c) == 1 and len(d) == 1:
            return RatFunc(_pscale(c[0], a), b, _reduced=True)
        if len(a) == 1 and len(b) == 1:
            return RatFunc(_pscale(a[0], c), d, _reduced=True)
        g = _pgcd(a, d)
        if len(g) > 1:
            a, d = _pquo(a, g), _pquo(d, g)
        g = _pgcd(c, b)
        if len(g) > 1:
            c, b = _pquo(c, g), _pquo(b, g)
        return RatFunc(_pmul(a, c), _pmul(b, d), _reduced=True)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o.num, o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(_pneg(o.num), o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o._plus(_pneg(self.num), self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._times(o.num, o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        r = o.reciprocal()
        return self._times(r.num, r.den)

    def reciprocal(self):
        if not self.num:
            raise ZeroDivisionError("division by zero rational function")
        # the reciprocal, scaled to a monic denominator, is in reduced form
        lead = self.num[-1]
        if lead == 1:
            return RatFunc(self.den, self.num, _reduced=True)
        inv = 1 / lead
        return RatFunc(_pscale(inv, self.den), _pscale(inv, self.num), _reduced=True)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o / self

    def __neg__(self):
        return RatFunc(_pneg(self.num), self.den, _reduced=True)

    def __pow__(self, n):
        if n < 0:
            return RatFunc.const(1) / self ** (-n)
        # coprime num and monic den have coprime powers, and den^n is monic,
        # so repeated squaring needs no gcd
        out, base = (_ONE, _ONE), (self.num, self.den)
        while n:
            if n & 1:
                out = (_pmul(out[0], base[0]), _pmul(out[1], base[1]))
            n >>= 1
            if n:
                base = (_pmul(base[0], base[0]), _pmul(base[1], base[1]))
        return RatFunc(*out, _reduced=True)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"

    def eval_at(self, x):
        """Evaluate at a Fraction point; raises ZeroDivisionError on a pole."""
        d = _horner(self.den, Fraction(x))
        if d == 0:
            raise ZeroDivisionError("pole of rational function")
        return _horner(self.num, Fraction(x)) / d


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

_LITERAL_RE = re.compile(r"^([+-]?\d+)(?:\s*/\s*([+-]?\d+))?$")


def _literal(text, what):
    """Numerator and denominator of an integer or fraction literal."""
    m = _LITERAL_RE.match(text)
    if not m:
        raise ScalarParseError(f"not a {what} literal: {text!r}")
    try:
        return int(m.group(1)), int(m.group(2) or 1)
    except ValueError as exc:  # past Python's int-string digit limit
        raise ScalarParseError(str(exc)) from exc


class Field:
    """Common interface; concrete fields are singletons per parameter."""

    kind = None
    char = 0
    size = None  # None = infinite

    def parse(self, text):
        raise NotImplementedError

    def format(self, a):
        raise NotImplementedError

    def from_int(self, n):
        raise NotImplementedError

    def from_fraction(self, q):
        raise NotImplementedError

    @property
    def zero(self):
        return self.from_int(0)

    @property
    def one(self):
        return self.from_int(1)

    def sqrt(self, a):
        """A square root of a in the field, or None."""
        raise NotImplementedError

    def poly_roots(self, coeffs):
        """Distinct roots, in this field, of the polynomial with the given
        coefficients (low degree first, field values); ``ValueError`` for
        the zero polynomial, which has every root."""
        raise NotImplementedError

    def elements(self):
        raise NotImplementedError(f"{self.kind} is infinite")

    def to_json(self):
        raise NotImplementedError


class Rationals(Field):
    kind = "Q"
    char = 0

    def parse(self, text):
        text = text.strip()
        num, den = _literal(text, "rational")
        if den == 0:
            raise ScalarParseError(f"zero denominator in {text!r}")
        return Fraction(num, den)

    def format(self, a):
        try:
            return str(Fraction(a))
        except ValueError as exc:  # past Python's int-string digit limit
            raise ScalarParseError(str(exc)) from exc

    def from_int(self, n):
        return Fraction(n)

    def from_fraction(self, q):
        return Fraction(q)

    def integer_lift(self, values):
        """Field values as integers over one denominator: ``(ints, d)`` with
        ``values[k] == ints[k] / d``, here over their least common
        denominator.  ``PrimeField`` has the same method.  ints is a list:
        CPython keeps the small tuples that ``tuple()`` of a generator
        builds in its tuple free lists once they die, and each row the
        echelon kernel lifts would add to them."""
        d = 1
        for q in values:
            d = math.lcm(d, int(q.denominator))
        return [int(q.numerator) * (d // int(q.denominator)) for q in values], d

    def sqrt(self, a):
        return _fraction_sqrt(Fraction(a))

    def poly_roots(self, coeffs):
        return list(_rational_poly_roots(tuple(Fraction(c) for c in coeffs)))

    def to_json(self):
        return {"kind": "Q"}

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Rationals()"


class PrimeField(Field):
    """F_p for an odd prime p.  p > 5 unless allow_small=True, so the usual
    small-characteristic caveats cannot apply silently."""

    kind = "Fp"

    def __init__(self, p, allow_small=False):
        if p >= _PRIME_TEST_BOUND:
            raise ValueError(f"p = {p} is past the exact prime test's bound {_PRIME_TEST_BOUND}")
        if p < 2 or not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p == 2:
            raise ValueError("characteristic 2 is excluded (the base ring must contain 1/2)")
        if p <= 5 and not allow_small:
            raise ValueError(f"p = {p} <= 5 requires allow_small=True")
        self.p = p
        self.char = p
        self.size = p

    def parse(self, text):
        text = text.strip()
        num, den = _literal(text, "residue")
        if den % self.p == 0:
            raise ScalarParseError(f"denominator of {text!r} vanishes mod {self.p}")
        return Fp(num * pow(den, -1, self.p), self.p)

    def format(self, a):
        return str(a.v)

    def from_int(self, n):
        return Fp(n, self.p)

    def from_fraction(self, q):
        q = Fraction(q)
        if q.denominator % self.p == 0:
            raise ZeroDivisionError(f"denominator of {q} vanishes mod {self.p}")
        return Fp(q.numerator * pow(q.denominator, -1, self.p), self.p)

    def integer_lift(self, values):
        """As ``Rationals.integer_lift``: least residues, with d = 1.  Ints
        and Fractions are read as ``Fp`` arithmetic reads them."""
        return [a.v if type(a) is Fp else self.from_fraction(a).v for a in values], 1

    def sqrt(self, a):
        r = _sqrt_mod(a.v, self.p)
        return None if r is None else Fp(r, self.p)

    def poly_roots(self, coeffs):
        return [Fp(r, self.p) for r in _roots_mod([c.v for c in coeffs], self.p)]

    def elements(self):
        return (Fp(i, self.p) for i in range(self.p))

    def to_json(self):
        return {"kind": "Fp", "p": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


def integer_modulus(field):
    """How ``field.integer_lift`` reads values: 0 over Q (integers over a
    common denominator), p over F_p (integers mod p), and None for a field
    without an integer lift."""
    if isinstance(field, Rationals):
        return 0
    if isinstance(field, PrimeField):
        return field.p
    return None


def _sqrt_mod(a, p):
    """The least square root of a modulo the prime p, or None when a is a
    non-residue: Euler's criterion, then Tonelli-Shanks."""
    a %= p
    if a == 0 or p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) == 1:
        z += 1
    # invariant: r * r == a * t, and t has order dividing 2^(m-1)
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return min(r, p - r)


# Miller-Rabin to the 13 prime bases up to 41 is exact below this bound, the
# least strong pseudoprime to all of them (Sorenson and Webster, Math. Comp.
# 86, 2017); PrimeField refuses p at or above it.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Exact for n below _PRIME_TEST_BOUND."""
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_VAR_RE = re.compile(r"^[a-zA-Z_][a-zA-Z_0-9]*$")


class RationalFunctions(Field):
    """Q(var): univariate rational functions over the rationals."""

    kind = "Qt"
    char = 0

    def __init__(self, var):
        if not _VAR_RE.match(var):
            raise ValueError(f"bad variable name {var!r}")
        self.var = var

    # -- parsing: +, -, *, /, ^, parentheses, integer literals, the variable
    def parse(self, text):
        toks = _tokenize(text, self.var)
        token = _scalar_budget.set([MAX_SCALAR_WORK])
        try:
            val, pos = _parse_sum(toks, 0, self.var)
        except ZeroDivisionError as exc:
            raise ScalarParseError(f"{text!r} divides by zero") from exc
        except RecursionError as exc:  # the parser recurses per '(' and per unary sign
            raise ScalarParseError("scalar text is nested too deeply") from exc
        finally:
            _scalar_budget.reset(token)
        if pos != len(toks):
            raise ScalarParseError(f"trailing input in {text!r}")
        return val

    def format(self, a):
        try:
            num = _poly_str(a.num, self.var)
            if a.den == (Fraction(1),):
                return num
            return f"({num})/({_poly_str(a.den, self.var)})"
        except ValueError as exc:  # past Python's int-string digit limit
            raise ScalarParseError(str(exc)) from exc

    def from_int(self, n):
        return RatFunc.const(n)

    def from_fraction(self, q):
        return RatFunc.const(q)

    def variable(self):
        return RatFunc.var()

    def sqrt(self, a):
        """The root of x^2 - a whose numerator leads positive, or None."""
        roots = self.poly_roots([-a, self.zero, self.one])
        return next((r for r in roots if not r.num or r.num[-1] > 0), None)

    def poly_roots(self, coeffs):
        """Roots in Q(var) by Kronecker substitution into the Q root finder
        (von zur Gathen and Gerhard, Modern Computer Algebra, 8.4).

        With denominators cleared, f = sum f_i x^i lies in Z[t][x] with leading
        coefficient a, and g(y) = a^(d-1) f(y/a) is monic, so its roots in Q(t)
        lie in Z[t] (Gauss).  On |t| = 1 they and their coefficients are at
        most B = 1 + max ||f_i||_1 ||a||_1^(d-1-i) (Cauchy), so the integer
        roots of g(y, 2B + 1) in balanced base 2B + 1 hold them; the exact
        ones are kept, constants first in the order of ``Rationals.poly_roots``.
        """
        lcm = _ONE
        for c in coeffs:
            lcm = _pmul(lcm, _pquo(c.den, _pgcd(lcm, c.den)))
        polys = [_pmul(c.num, _pquo(lcm, c.den)) for c in coeffs]
        m = math.lcm(*(x.denominator for p in polys for x in p))
        f = _ptrim([int(x * m) for x in p] for p in polys)
        if not f:
            raise ValueError("zero polynomial has every root")
        d, a = len(f) - 1, f[-1]
        norm_a = sum(map(abs, a))
        n = 2 * max((sum(map(abs, f[i])) * norm_a ** (d - 1 - i) for i in range(d)), default=0) + 3
        a_n = _horner(a, n)
        g_n = [_horner(f[i], n) * a_n ** (d - 1 - i) for i in range(d)] + [1]
        den = tuple(map(Fraction, a))
        roots = []
        for y in _rational_poly_roots(g_n):
            digits, y = [], int(y)
            while y:  # balanced base-n digits, in [-(n - 1)/2, (n - 1)/2]
                digits.append((y + n // 2) % n - n // 2)
                y = (y - digits[-1]) // n
            root, acc = RatFunc(tuple(map(Fraction, digits)), den), RatFunc.const(0)
            for c in reversed(coeffs):
                acc = acc * root + c
            if not acc:
                roots.append(root)
        # constants first, as Rationals.poly_roots lists them
        consts = [r for r in roots if len(r.num) + len(r.den) <= 2]
        consts.sort(key=lambda r: _root_order(r.eval_at(0)))
        return consts + [r for r in roots if r not in consts]

    def to_json(self):
        return {"kind": "Qt", "var": self.var}

    def __eq__(self, other):
        return isinstance(other, RationalFunctions) and other.var == self.var

    def __hash__(self):
        return hash(("Qt", self.var))

    def __repr__(self):
        return f"RationalFunctions({self.var!r})"


# -- tiny recursive-descent parser for the rational-function grammar

# Caps on scalar text: the degree of a power (the exponent, on a constant), and
# one work budget that the polynomial primitives draw on as the text is
# evaluated (_scalar_budget).  A unit of work is about 0.7-0.95 us of CPython
# 3.11.7 on a 2-core Xeon host whose speed swings by about a third: (t+1)^400
# is charged 374,379 units and takes 0.26-0.35 s there.
MAX_EXPONENT = 10**4
MAX_SCALAR_WORK = 5 * 10**5


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
        deg = max(len(val.num), len(val.den), 2) - 1  # a constant counts as degree 1
        if deg * k > MAX_EXPONENT:
            raise ScalarParseError(f"exponent {k} exceeds {MAX_EXPONENT // deg} for this base")
        val = val ** k
        pos += 2
    return val, pos


def _poly_str(p, var):
    if not p:
        return "0"
    parts = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if not c:
            continue
        if k == 0:
            mon = str(c)
        else:
            v = var if k == 1 else f"{var}^{k}"
            if c == 1:
                mon = v
            elif c == -1:
                mon = f"-{v}"
            else:
                mon = f"{c}*{v}"
        parts.append(mon)
    out = parts[0]
    for mon in parts[1:]:
        out += f" - {mon[1:]}" if mon.startswith("-") else f" + {mon}"
    return out


# ---------------------------------------------------------------------------
# field-generic polynomial helpers (coefficients are values of any field)
# ---------------------------------------------------------------------------


def poly_gcd(p, q):
    """Monic gcd by the Euclidean algorithm; ``_pgcd`` is the fast path over Q."""
    a, b = _ptrim(p), _ptrim(q)
    while b:
        a, b = b, _pdivmod(a, b)[1]
    return _pscale(1 / a[-1], a) if a else ()


def poly_deriv(p):
    return _ptrim([i * p[i] for i in range(1, len(p))])


def poly_is_squarefree(p):
    return len(poly_gcd(p, poly_deriv(p))) <= 1


def poly_divides(p, q):
    """True when p divides q."""
    if not p:
        return not q
    return not _pdivmod(q, p)[1]


# ---------------------------------------------------------------------------
# module-level conveniences
# ---------------------------------------------------------------------------

QQ = Rationals()


def parse_scalar(text, field):
    """Parse exact-scalar text in the given field (canonical value)."""
    return field.parse(text)


def field_from_json(doc):
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SchemaError(f"bad field document: {doc!r}")
    kind = doc["kind"]
    if kind == "Q":
        return QQ
    if kind == "Fp":
        p = doc.get("p")
        if not isinstance(p, int) or isinstance(p, bool):
            raise SchemaError(f"field p must be an integer, got {p!r}")
        try:
            return PrimeField(p, allow_small=bool(doc.get("allow_small", False)))
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
    if kind == "Qt":
        try:
            return RationalFunctions(doc["var"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(str(exc)) from exc
    raise SchemaError(f"unknown field kind {kind!r}")
