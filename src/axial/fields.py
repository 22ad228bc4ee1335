"""Exact scalar fields.

Three coefficient domains, all with canonical unique representations so that
equality is plain ``==``:

* ``Rationals`` -- values are ``fractions.Fraction``;
* ``PrimeField(p)`` -- values are ``Fp`` wrappers holding the least residue;
* ``RationalFunctions(var)`` -- values are ``RatFunc``: fractions N/D of
  polynomials over Z, coprime in Z[t] content included, with lc(D) > 0.

All value types support the usual arithmetic operators, ``bool`` (nonzero
test), ``==`` and ``hash``, so the linear algebra and algebra layers never
need to consult the field for arithmetic.  The field objects own parsing,
formatting, square roots and polynomial root extraction.  Q and F_p read
literals only; Q(t) text is read by one reader (``_Reader``), whose
subclass in the identity layer reads identity text with the same grammar.

Polynomials are coefficient sequences, low degree first, with no trailing 0.
One layer of integer polynomials does the arithmetic of Q(t) values, of
their kernel entries in Z[t] (``ZPoly``) and of the root finders over Q,
F_p and Q(t).  The axes test minimal polynomials
of field values by evaluation and a determinant, with no division.
"""

from __future__ import annotations

import contextvars
import math
import operator
import random
import re
from fractions import Fraction

from .errors import ScalarParseError, SchemaError

# the type of every value of Q, which the benchmark's context line reports
_rational = Fraction

# ---------------------------------------------------------------------------
# dense polynomials of ints: over Z (p = 0) for Q(t) values and the Q root
# finder, and mod an odd prime p for the F_p root finder
# ---------------------------------------------------------------------------


# the work budget of the scalar text being parsed in this context, if any:
# inside a parse each primitive below draws on it before it runs (_charge),
# at the _pair_work price of its operands, and a loop whose operands grow
# draws pass by pass
_scalar_budget = contextvars.ContextVar("scalar_budget", default=None)


def _size(p):
    """Nonzero terms of p and the most bits of a coefficient."""
    return len(p) - p.count(0), max(map(int.bit_length, p), default=0)


def _pair_work(fixed, bits, bits_q):
    """One operation on two integers of the given bits: its fixed cost, a
    pass over the digits and the schoolbook product of the operands."""
    return fixed + (bits + bits_q >> 10) + (bits * bits_q >> 18)


def _charge(budget, work):
    """Draw work from the one-item list budget before the operation runs,
    and refuse the text once it is spent."""
    budget[0] -= work
    if budget[0] < 0:
        raise ScalarParseError("scalar text exceeds its work budget")


def _trim(c):
    """The list c without its trailing zeros, in place."""
    while c and not c[-1]:
        c.pop()
    return c


def _zadd(p, q):
    budget = _scalar_budget.get()
    if budget is not None:
        (k, bits), (m, bits_q) = _size(p), _size(q)
        _charge(budget, 3 * max(len(p), len(q)) + min(k, m) * _pair_work(3, bits, bits_q))
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return _trim(out)


def _zscale(c, p):
    """c * p for a nonzero integer c."""
    budget = _scalar_budget.get()
    if budget is not None:
        _charge(budget, len(p) * _pair_work(6, c.bit_length(), _size(p)[1]))
    return [c * a for a in p]


def _zmul(p, q):
    if not p or not q:
        return []
    budget = _scalar_budget.get()
    if budget is not None:
        (n, bits), (m, bits_q) = _size(p), _size(q)
        _charge(budget, n * m * _pair_work(6, bits, bits_q) + 3 * (len(p) + len(q) - 1))
    out = [0] * (len(p) + len(q) - 1)
    terms = [(j, b) for j, b in enumerate(q) if b]
    for i, a in enumerate(p):
        if a:
            for j, b in terms:
                out[i + j] += a * b
    return out


def _zdivmod(a, b, p):
    """Quotient and remainder of a by b: mod the prime p by a monic b, and
    over Z (p = 0) when every quotient term is an integer, as when b
    divides a.  Inside a scalar-text parse each pass draws on the budget at
    the size of its quotient term."""
    r = list(a)
    db, lead = len(b) - 1, b[-1]
    quo = []
    budget = _scalar_budget.get()
    if budget is not None:
        bits_b = _size(b)[1]
    while len(r) > db:
        c = r.pop() % p if p else r.pop() // lead
        quo.append(c)
        if c:
            if budget is not None:
                _charge(budget, len(b) * _pair_work(6, c.bit_length(), bits_b))
            k = len(r) - db
            for i in range(db):
                r[k + i] -= c * b[i]
    quo.reverse()
    return quo, _trim([c % p for c in r] if p else r)


def _zquo(a, b):
    """The quotient of a by its divisor b in Z[t]."""
    return _zdivmod(a, b, 0)[0]


def _zcontent(p):
    """The gcd of the coefficients of the nonzero p, with the sign of its
    leading one, so that p divided by it is primitive and leads positive."""
    budget = _scalar_budget.get()
    if budget is not None:
        bits = _size(p)[1]
        _charge(budget, len(p) * _pair_work(1, bits, bits))
    g = math.gcd(*p)
    return -g if p[-1] < 0 else g


def _zgcd(p, q):
    """Gcd of the nonzero p and q in Z[t], content included, leading
    positive.

    A primitive remainder sequence (Collins, J. ACM 14, 1967) on the
    primitive parts: each pseudo-remainder is divided by its content.  How
    far the coefficients grow along the sequence does not show in the
    inputs, so inside a scalar-text parse each pass of ``_pprem_int`` and
    each content gcd draws on the budget as it comes.
    """
    c, d = _zcontent(p), _zcontent(q)
    g = math.gcd(c, d)
    if len(p) == 1 or len(q) == 1:
        return [g]
    a, b = [x // c for x in p], [x // d for x in q]
    if len(a) < len(b):
        a, b = b, a
    while True:
        r = _pprem_int(a, b)
        if not r:
            return b if g == 1 else _zscale(g, b)
        if len(r) == 1:
            return [g]
        c = _zcontent(r)
        a, b = b, [x // c for x in r]


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
            scale = len(r) * _pair_work(1, bits, bits_m) if m != 1 else 0
            _charge(budget, scale + db * _pair_work(1, bits_f, bits_b))
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


def _zderiv(p):
    """The derivative of p."""
    return _trim([i * p[i] for i in range(1, len(p))])


def _horner(f, x, m=None):
    """f(x), reduced mod m unless m is None."""
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
        if m is not None:
            acc %= m
    return acc


def _fraction_sqrt(x):
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _rational_poly_roots(p):
    """Distinct rational roots of a nonzero polynomial of ints: 0 first,
    then the others by increasing |numerator|, then denominator, positive
    first.

    The primitive squarefree part f, of degree d and leading coefficient a,
    becomes the monic integer polynomial g(y) = a^(d-1) f(y / a), whose
    rational roots are integers of absolute value at most the Cauchy bound
    B.  Each root of g modulo a prime q at which g stays squarefree is
    Newton-lifted to a modulus above 2B (Loos, Computer Algebra, 1983) and
    kept when its symmetric residue is an exact root of g.
    """
    p = _trim(list(p))
    if not p:
        raise ValueError("zero polynomial has every root")
    zero = p[0] == 0
    while p[0] == 0:
        p = p[1:]
    if len(p) == 1:
        return [Fraction(0)] * zero
    c = _zcontent(p)
    f = [x // c for x in p]
    if len(f) > 2:
        h = _zgcd(f, _zderiv(f))
        if len(h) > 1:
            f = _zquo(f, h)
    d, a = len(f) - 1, f[-1]
    g = [c * a ** (d - 1 - i) for i, c in enumerate(f[:-1])] + [1]
    dg = _zderiv(g)
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


# -- roots in F_p, dividing by monic polynomials only


def _mod_monic(a, p):
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _mod_gcd(a, b, p):
    """Monic gcd of a and b mod p; [] when both are 0."""
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        b = _mod_monic(b, p)
        a, b = b, _zdivmod(a, b, p)[1]
    return _mod_monic(a, p) if a else a


def _mod_pow_linear(a, e, m, p):
    """(x + a)^e modulo the monic m of degree at least 2."""
    out = [1]
    for bit in bin(e)[2:]:
        out = _zdivmod(_zmul(out, out), m, p)[1]
        if bit == "1":
            out = _zdivmod([a * u + v for u, v in zip(out + [0], [0] + out)], m, p)[1]
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
    f = _trim([c % p for c in f])
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
            todo += [d, _zdivmod(g, d, p)[0]]
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
    """N/D for polynomials N and D over Z that are coprime in Z[t], content
    included, with lc(D) > 0.  The form is canonical, so ``==`` and
    ``hash`` compare integer tuples; ``num`` and ``den`` read the value as
    a reduced fraction over Q with a monic denominator.

    The operators keep that form without reducing a full product by a full
    gcd (Henrici, J. ACM 3, 1956).  A sum over denominators b and d needs
    gcd(b, d), and then only the gcd of the new numerator with that factor;
    a product cancels each numerator against the other denominator first.
    Z[t] has unique factorization, so this holds for the integer primes of
    the contents as for the polynomial factors.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, num, den=(1,)):
        """num/den, from coefficients that are ints or Fractions."""
        ints = QQ.integer_lift([*num, *den])[0]
        n, d = _trim(ints[:len(num)]), _trim(ints[len(num):])
        if not d:
            raise ZeroDivisionError("rational function with zero denominator")
        if not n:
            d = [1]
        n, d = _cancel(n, d)
        if d[-1] < 0:
            n, d = [-x for x in n], [-x for x in d]
        self._n, self._d = tuple(n), tuple(d)

    @staticmethod
    def const(c):
        c = Fraction(c)
        return _ratfunc([c.numerator] if c else [], [c.denominator])

    @staticmethod
    def var():
        return _ratfunc([0, 1], [1])

    @property
    def num(self):
        """The numerator over the monic denominator, as Fractions."""
        return tuple(Fraction(c, self._d[-1]) for c in self._n)

    @property
    def den(self):
        """The monic denominator, as Fractions."""
        return tuple(Fraction(c, self._d[-1]) for c in self._d)

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction)):
            return RatFunc.const(other)
        return None

    def _plus(self, c, d):
        """self + c/d, for c/d in this form."""
        a, b = self._n, self._d
        if not a:
            return _ratfunc(c, d)
        if not c:
            return self
        if b == d:
            num = _zadd(a, c)
            return _ratfunc(*_cancel(num, b)) if num else _ratfunc([], [1])
        g = _zgcd(b, d)
        if g == [1]:
            # every prime factor of b*d divides exactly one of a*d and c*b
            return _ratfunc(_zadd(_zmul(a, d), _zmul(c, b)), _zmul(b, d))
        b, d = _zquo(b, g), _zquo(d, g)
        # the numerator is prime to b*d now, so only a factor of g can cancel
        num, g = _cancel(_zadd(_zmul(a, d), _zmul(c, b)), g)
        return _ratfunc(num, _zmul(_zmul(b, d), g))

    def _times(self, c, d):
        """self * c/d, for c/d in this form."""
        a, b = self._n, self._d
        if not a or not c:
            return _ratfunc([], [1])
        a, d = _cancel(a, d)
        c, b = _cancel(c, b)
        return _ratfunc(_zmul(a, c), _zmul(b, d))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o._n, o._d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(_zscale(-1, o._n), o._d)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o._plus(_zscale(-1, self._n), self._d)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._times(o._n, o._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        r = o.reciprocal()
        return self._times(r._n, r._d)

    def reciprocal(self):
        if not self._n:
            raise ZeroDivisionError("division by zero rational function")
        if self._n[-1] > 0:
            return _ratfunc(self._d, self._n)
        return _ratfunc(_zscale(-1, self._d), _zscale(-1, self._n))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o / self

    def __neg__(self):
        return _ratfunc(_zscale(-1, self._n), self._d)

    def __pow__(self, n):
        if n < 0:
            return RatFunc.const(1) / self ** (-n)
        # coprime N and D have coprime powers, and D^n leads positive, so
        # repeated squaring needs no gcd
        out, base = ([1], [1]), (self._n, self._d)
        while n:
            if n & 1:
                out = (_zmul(out[0], base[0]), _zmul(out[1], base[1]))
            n >>= 1
            if n:
                base = (_zmul(base[0], base[0]), _zmul(base[1], base[1]))
        return _ratfunc(*out)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._n == o._n and self._d == o._d

    def __hash__(self):
        return hash((self._n, self._d))

    def __bool__(self):
        return bool(self._n)

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"

    def eval_at(self, x):
        """Evaluate at a Fraction point; raises ZeroDivisionError on a pole."""
        d = _horner(self._d, Fraction(x))
        if d == 0:
            raise ZeroDivisionError("pole of rational function")
        return _horner(self._n, Fraction(x)) / d


def _ratfunc(n, d):
    """The RatFunc n/d, for n and d already in its form."""
    r = object.__new__(RatFunc)
    r._n, r._d = tuple(n), tuple(d)
    return r


def _cancel(x, y):
    """x and y divided by their gcd in Z[t]; a unit constant needs no gcd,
    and otherwise both are nonzero."""
    if (len(x) == 1 and abs(x[0]) == 1) or (len(y) == 1 and abs(y[0]) == 1):
        return x, y
    g = _zgcd(x, y)
    if g == [1]:
        return x, y
    return _zquo(x, g), _zquo(y, g)


# ---------------------------------------------------------------------------
# Z[t] kernel entries
# ---------------------------------------------------------------------------


def _coeffs(x):
    """The coefficient list of a ZPoly, or of an int read as a constant."""
    if type(x) is ZPoly:
        return x.c
    return [x] if x else []


class ZPoly:
    """A polynomial in Z[t] as a kernel entry: ``RationalFunctions.integer_lift``
    writes Q(t) values as ZPolys over one ZPoly denominator.

    It has the operators the kernels use on the integers of a Q lift: +, -,
    *, // by an exact divisor, ``bool``, ``==``, and < and > in the order of
    Z[t] by sign as t -> +oo, so x < 0 when x leads negative.  An int
    operand is read as a constant.  ``zpoly_gcd`` and ``zpoly_lcm`` stand
    in for ``math.gcd`` and ``math.lcm``.  c is a list of ints, low degree
    first, with no trailing 0, and is never changed in place.
    """

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def __add__(self, other):
        return ZPoly(_zadd(self.c, _coeffs(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return ZPoly(_zadd(self.c, [-x for x in _coeffs(other)]))

    def __rsub__(self, other):
        return ZPoly(_zadd([-x for x in self.c], _coeffs(other)))

    def __neg__(self):
        return ZPoly([-x for x in self.c])

    def __mul__(self, other):
        if type(other) is ZPoly:
            return ZPoly(_zmul(self.c, other.c))
        return ZPoly([other * x for x in self.c] if other else [])

    __rmul__ = __mul__

    def __floordiv__(self, other):
        d = _coeffs(other)
        if len(d) == 1:
            return ZPoly([x // d[0] for x in self.c])
        return ZPoly(_zquo(self.c, d))

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        if type(other) is ZPoly or type(other) is int:
            return self.c == _coeffs(other)
        return NotImplemented

    def __lt__(self, other):
        c = (self - other).c
        return bool(c) and c[-1] < 0

    def __gt__(self, other):
        c = (self - other).c
        return bool(c) and c[-1] > 0

    def __repr__(self):
        return f"ZPoly({self.c!r})"


def zpoly_gcd(*xs):
    """The gcd in Z[t] of ZPolys and ints, leading positive, as ``math.gcd``
    of ints: 0 when every argument is 0."""
    g = []
    for x in xs:
        c = _coeffs(x)
        if not c:
            continue
        if not g:
            g = c if c[-1] > 0 else [-a for a in c]
        else:
            g = _zgcd(g, c)
        if g == [1]:
            break
    return ZPoly(g)


def zpoly_lcm(*xs):
    """The lcm in Z[t] of nonzero ZPolys and ints, leading positive."""
    m = [1]
    for x in xs:
        c = _coeffs(x)
        m = _zmul(m, _zquo(c, _zgcd(m, c)))
    return ZPoly(m if m[-1] > 0 else [-a for a in m])


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

# numerals take the ASCII digits 0-9 only, here and in _TOKEN_RE
_LITERAL_RE = re.compile(r"\s*([+-]?[0-9]+)(?:\s*/\s*([+-]?[0-9]+))?\s*")
_NOT_LITERAL_RE = re.compile(r"[^0-9+\-/\s]")


def _literal(text, what):
    """Numerator and denominator of an integer or fraction literal; a
    character that no literal holds is named with its position."""
    m = _LITERAL_RE.fullmatch(text)
    if not m:
        bad = _NOT_LITERAL_RE.search(text)
        if bad:
            raise ScalarParseError(f"bad character {bad.group()!r} in {what} literal {text!r}", bad.start())
        raise ScalarParseError(f"not a {what} literal: {text!r}")
    try:
        return int(m.group(1)), int(m.group(2) or 1)
    except ValueError as exc:  # past Python's int-string digit limit
        raise ScalarParseError(str(exc)) from exc


class Field:
    """Common interface; concrete fields are singletons per parameter."""

    kind = None
    char = 0  # the characteristic: p over F_p, where the kernels read entries mod p
    size = None  # None = infinite
    # the gcd and lcm of the entries of ``integer_lift``, as a kernel binds them
    lift_gcd = staticmethod(math.gcd)
    lift_lcm = staticmethod(math.lcm)

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
    # a Fraction is immutable, so one zero and one one serve every read
    zero = Fraction(0)
    one = Fraction(1)

    def parse(self, text):
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
        denominator.  Every field has this method and ``from_lift``, which
        reads an entry back; the kernels compute on the entries.  ints is a
        list: CPython keeps the small tuples that ``tuple()`` of a generator
        builds in its tuple free lists once they die, and each row the
        echelon kernel lifts would add to them.  Each denominator is read
        once: ``denominator`` is a Python-level property of ``Fraction``."""
        dens = [q.denominator for q in values]
        d = math.lcm(*dens)
        return [q.numerator * (d // e) for q, e in zip(values, dens)], d

    def from_lift(self, x, d):
        """The field value of an entry x of a lift over d: x / d."""
        return Fraction(x, d)

    def sqrt(self, a):
        return _fraction_sqrt(Fraction(a))

    def poly_roots(self, coeffs):
        return _rational_poly_roots(self.integer_lift(coeffs)[0])

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

    def from_lift(self, x, d):
        """As ``Rationals.from_lift``, with d = 1: the residue of x."""
        return Fp(x, self.p)

    def sqrt(self, a):
        r = _sqrt_mod(a.v, self.p)
        return None if r is None else Fp(r, self.p)

    def poly_roots(self, coeffs):
        return [Fp(r, self.p) for r in _roots_mod([c.v for c in coeffs], self.p)]

    def elements(self):
        return (Fp(i, self.p) for i in range(self.p))

    def to_json(self):
        doc = {"kind": "Fp", "p": self.p}
        if self.p <= 5:  # the field is built again only with it
            doc["allow_small"] = True
        return doc

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


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
    lift_gcd = staticmethod(zpoly_gcd)
    lift_lcm = staticmethod(zpoly_lcm)

    def __init__(self, var):
        if not _VAR_RE.match(var):
            raise ValueError(f"bad variable name {var!r}")
        self.var = var

    def parse(self, text):
        return _Reader(self).read(text)

    def format(self, a):
        try:
            num = _poly_str(a.num, self.var)
            if len(a._d) == 1:
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

    def integer_lift(self, values):
        """As ``Rationals.integer_lift``: ``ZPoly`` entries over their least
        common denominator in Z[t], which leads positive.  Ints and
        Fractions are read as constants."""
        values = [v if type(v) is RatFunc else RatFunc.const(v) for v in values]
        dens = {v._d for v in values}
        lcm = [1]
        for b in dens:
            lcm = _zmul(lcm, _zquo(b, _zgcd(lcm, b)))
        scale = {b: _zquo(lcm, b) for b in dens}
        return [ZPoly(_zmul(v._n, scale[v._d])) for v in values], ZPoly(lcm)

    def from_lift(self, x, d):
        """As ``Rationals.from_lift``: the value x / d of the ZPolys x and d
        != 0, cancelled by their gcd."""
        if not x:
            return _ratfunc([], [1])
        n, d = _cancel(x.c, d.c)
        if d[-1] < 0:
            n, d = [-a for a in n], [-a for a in d]
        return _ratfunc(n, d)

    def sqrt(self, a):
        """The root of x^2 - a whose numerator leads positive, or None."""
        roots = self.poly_roots([-a, self.zero, self.one])
        return next((r for r in roots if not r._n or r._n[-1] > 0), None)

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
        f, lcm = self.integer_lift(coeffs)
        f, lcm = _trim([x.c for x in f]), lcm.c
        if not f:
            raise ValueError("zero polynomial has every root")
        # f / lc(lcm) is f over the monic lcm, and f / m that with its denominators cleared
        m = math.gcd(lcm[-1], *(x for p in f for x in p))
        f = [[x // m for x in p] for p in f]
        d, a = len(f) - 1, f[-1]
        norm_a = sum(map(abs, a))
        n = 2 * max((sum(map(abs, f[i])) * norm_a ** (d - 1 - i) for i in range(d)), default=0) + 3
        a_n = _horner(a, n)
        g_n = [_horner(f[i], n) * a_n ** (d - 1 - i) for i in range(d)] + [1]
        roots = []
        for y in _rational_poly_roots(g_n):
            digits, y = [], int(y)
            while y:  # balanced base-n digits, in [-(n - 1)/2, (n - 1)/2]
                digits.append((y + n // 2) % n - n // 2)
                y = (y - digits[-1]) // n
            root, acc = RatFunc(digits, a), RatFunc.const(0)
            for c in reversed(coeffs):
                acc = acc * root + c
            if not acc:
                roots.append(root)
        # constants first, as Rationals.poly_roots lists them
        consts = [r for r in roots if len(r._n) + len(r._d) <= 2]
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


# -- one reader for scalar text and identity text

# Caps on scalar text: the degree of a power (the exponent, on a constant), and
# one work budget that the polynomial primitives draw on as the text is
# evaluated (_scalar_budget).  On CPython 3.11.7 on a 2-core Xeon host,
# (t+1)^400 is charged 374,379 units and takes 7-9 ms, about 20 ns a unit;
# the remainder sequences of large-coefficient gcds take about ten times as
# long a unit.
MAX_EXPONENT = 10**4
MAX_SCALAR_WORK = 5 * 10**5

# a numeral, a name or one other character; whitespace between them is
# skipped.  Numerals and names are ASCII, so a digit of another script, or a
# superscript, is a bad character
_TOKEN_RE = re.compile(r"([0-9]+)|([A-Za-z_][A-Za-z_0-9]*)|(\S)")
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}
_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


class _Reader:
    """Reads text over one field: sums of products and quotients, left to
    right, unary signs, parentheses and decimal numerals, which read through
    ``field.from_int``.  Over Q(t) it also reads the field's variable and a
    power ``^`` with a numeral exponent, capped by MAX_EXPONENT.  Values
    combine with the field's own operators, and the whole read draws on one
    work budget of MAX_SCALAR_WORK.  Every refusal is an ``error`` at the
    position of the offending token.

    The identity layer subclasses it: ``_name`` reads names, and
    ``_binary`` and ``_power`` apply an operator at a position."""

    error = ScalarParseError

    def __init__(self, field):
        self.field = field
        self.var = field.var if field.kind == "Qt" else None

    def read(self, text):
        self.toks = self._lex(text)
        self.pos = 0
        token = _scalar_budget.set([MAX_SCALAR_WORK])
        try:
            val = self._expr(1)
        except RecursionError as exc:  # the reader recurses per '(' and per unary sign
            raise self.error("text is nested too deeply", self.toks[self.pos][2]) from exc
        finally:
            _scalar_budget.reset(token)
        kind, _, at = self.toks[self.pos]
        if kind != "end":
            raise self.error("trailing input", at)
        return val

    def _lex(self, text):
        """(kind, value, position) tokens: numerals, names and operators,
        closed by an end token at the length of the text."""
        toks = []
        for m in _TOKEN_RE.finditer(text):
            digits, name, char = m.groups()
            at = m.start()
            if digits:
                try:
                    toks.append(("num", int(digits), at))
                except ValueError as exc:  # past Python's int-string digit limit
                    raise self.error(str(exc), at) from exc
            elif name:
                toks.append(("name", name, at))
            elif char in "+-*/^(),":
                toks.append((char, None, at))
            else:
                raise self.error(f"bad character {char!r}", at)
        toks.append(("end", None, len(text)))
        return toks

    def _expr(self, floor):
        """The operators of precedence floor and above, by precedence
        climbing: a sum at floor 1, a product or quotient at floor 2."""
        val = self._unary()
        while True:
            kind, _, at = self.toks[self.pos]
            prec = _PRECEDENCE.get(kind, 0)
            if prec < floor:
                return val
            self.pos += 1
            val = self._binary(kind, val, self._expr(prec + 1), at)

    def _unary(self):
        kind, value, at = self.toks[self.pos]
        if kind == "end":
            raise self.error("unexpected end of text", at)
        self.pos += 1
        if kind == "-":
            return self._apply(at, operator.neg, self._unary())
        if kind == "+":
            return self._unary()
        if kind == "num":
            val = self.field.from_int(value)
        elif kind == "name":
            val = self._name(value, at)
        elif kind == "(":
            val = self._expr(1)
            self._expect(")", "missing ')'", at)
        else:
            raise self.error(f"unexpected token {kind!r}", at)
        kind, _, at = self.toks[self.pos]
        if kind != "^":
            return val
        self.pos += 1
        return self._power(val, at)

    def _expect(self, kind, message, at):
        if self.toks[self.pos][0] != kind:
            raise self.error(message, at)
        self.pos += 1

    def _name(self, name, at):
        if name == self.var:
            return self.field.variable()
        raise self.error(f"unknown name {name!r}", at)

    def _binary(self, op, a, b, at):
        return self._apply(at, _OPERATORS[op], a, b)

    def _power(self, base, at):
        """base ^ k, for the '^' at position at and the numeral k after it.
        Only the Z[t] primitives are metered, so only Q(t) reads a power."""
        if self.var is None:
            raise self.error("'^' is read over Q(t) only", at)
        kind, k, _ = self.toks[self.pos]
        if kind != "num":
            raise self.error("exponent must be a nonnegative integer", at)
        self.pos += 1
        if not isinstance(base, RatFunc):  # an identity's lam, bound as a number
            base = RatFunc.const(base)
        deg = max(len(base._n), len(base._d), 2) - 1  # a constant counts as degree 1
        if deg * k > MAX_EXPONENT:
            raise self.error(f"exponent {k} exceeds {MAX_EXPONENT // deg} for this base", at)
        return self._apply(at, operator.pow, base, k)

    def _apply(self, at, fn, *args):
        """fn(*args), refused at position at when it divides by zero, meets
        a value it cannot take or spends the work budget."""
        try:
            return fn(*args)
        except ZeroDivisionError as exc:
            raise self.error("division by zero", at) from exc
        except (ValueError, ScalarParseError) as exc:
            raise self.error(str(exc), at) from exc


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
        allow_small = doc.get("allow_small", False)
        if not isinstance(allow_small, bool):
            raise SchemaError(f"field allow_small must be a boolean, got {allow_small!r}")
        try:
            return PrimeField(p, allow_small=allow_small)
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
    if kind == "Qt":
        try:
            return RationalFunctions(doc["var"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(str(exc)) from exc
    raise SchemaError(f"unknown field kind {kind!r}")
