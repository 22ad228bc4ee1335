"""Exact linear algebra over a scalar field.

Row reduction goes through one kernel, ``Echelon``: a fully reduced row
basis grown one sparse row at a time.  Arithmetic is exact, so no pivoting
heuristics are needed, and the reduced basis depends only on the span of
the rows added.  Rows enter as the entries of ``field.integer_lift`` and
leave through ``field.from_lift``; one step r <- d*r - r[q]*P clears the
pivot q of a basis row P whose pivot entry is d.  Over Q a row is an integer
vector with d > 0 that stands for P/d, and over Q(t) a vector in Z[t]
(``fields.ZPoly``) with d leading positive: both run one exact branch, with
the gcd of their entries (``field.lift_gcd``) bound once per kernel.  Over
F_p a row is a vector of least residues with d = 1.  Field values are built
only when rows are read out.
``Matrix.rref`` reads the canonical reduced row-echelon form
from the kernel, and ``kernel``, ``solve`` and ``rank`` read theirs from
``rref``; ``det`` multiplies the pivots its rows meet on the way in.
``Coordinates`` writes vectors in a growing independent list through one
``Echelon``; its one step, ``place``, reduces a lifted vector once and
appends it or reads its coordinates, for ``minimal_polynomial`` and the
basis and induced structure constants of a generated subalgebra.
``span_contains``, ``span_rank``, the membership tests elsewhere,
``solve_frobenius`` and ``axial_radical`` keep an ``Echelon`` of their own;
the tests of lifted products use ``contains_integers``, and the last two read
their kernel bases from ``Echelon.kernel``, the basis ``Matrix.kernel`` reads
from ``rref``.  ``Matrix`` is dense.

Products run on lifted entries too.  ``lift_sparse`` and ``lift_rows``
lift the nonzero entries of each operand once, ``Matrix.__matmul__`` and
``Matrix.apply`` (``apply_lifted``) accumulate products of entries from the
lifted zero, and ``read_lifted`` builds one field value per nonzero entry
of a sum, over the product of the operands' denominators; over F_p that is
where an entry is reduced mod p.  ``minimal_polynomial`` keeps each power M^k as one
flattened vector of entries over a scale that divides d^k, and hands it to
``Coordinates.place`` as a lift, so no field value is built between powers.
The algebra product and L_a (``algebra.py``) run on the same helpers.  A
lifted vector has the one format of ``lift_sparse``, which
``Algebra.lifted_product`` takes and returns and ``same_lift`` compares.
"""

from __future__ import annotations

from .errors import DimensionMismatch

__all__ = [
    "Coordinates",
    "Echelon",
    "Matrix",
    "rref",
    "kernel",
    "minimal_polynomial",
    "span_contains",
    "span_rank",
]


def lifted_zero(field):
    """The lift of ``field.zero``, where every sum of lifted entries starts:
    the int 0 over Q and F_p, and the zero of Z[t] over Q(t)."""
    return field.integer_lift([field.zero])[0][0]


def lifted_one(field):
    """The lift of ``field.one`` over the denominator 1, where every product
    of lifted entries starts."""
    return field.integer_lift([field.one])[0][0]


def lift_sparse(field, values):
    """The nonzero values lifted by ``field.integer_lift``: ``(pairs, d)``
    with the pairs ``(index, entry)`` in index order, each value equal to
    entry / d."""
    idx = [c for c, v in enumerate(values) if v]
    ints, d = field.integer_lift([values[c] for c in idx])
    return list(zip(idx, ints)), d


def lift_rows(field, rows):
    """``lift_sparse`` of every row, over one denominator d for them all:
    ``(sparse rows, d)``."""
    idx = [[c for c, v in enumerate(row) if v] for row in rows]
    ints, d = field.integer_lift([row[c] for row, cols in zip(rows, idx) for c in cols])
    it = iter(ints)
    return [list(zip(cols, it)) for cols in idx], d


def read_lifted(field, entries, d):
    """The field values of lifted entries over d: one ``field.from_lift``
    per nonzero entry, which over F_p reduces it mod p, and ``field.zero``
    for the others."""
    zero, value = field.zero, field.from_lift
    return [value(x, d) if x else zero for x in entries]


def sparse_entries(entries, p):
    """Dense lifted entries as the pairs of ``lift_sparse``: the nonzero
    entries with their indices, in index order, least residues over F_p."""
    if p:
        return [(k, r) for k, x in enumerate(entries) if (r := x % p)]
    return [(k, x) for k, x in enumerate(entries) if x]


def same_lift(x, y, p):
    """Do the lifts x = (pairs, s) and y = (pairs, t) in the format of
    ``lift_sparse`` stand for one vector: is x t = y s, mod p over F_p?
    Neither has a zero entry, so both then have the same indices."""
    (xs, s), (ys, t) = x, y
    if len(xs) != len(ys):
        return False
    for (i, a), (j, b) in zip(xs, ys):
        d = a * t - b * s
        if i != j or (d % p if p else d):
            return False
    return True


def apply_lifted(field, a, d, vec):
    """The product of the lifted sparse rows a over d with the vector vec of
    field values, read back once: ``Matrix.apply`` of the matrix a / d."""
    column = [[] for _ in vec]  # vec as a one-column matrix
    v, dv = lift_sparse(field, vec)
    for c, x in v:
        column[c] = [(0, x)]
    out = _multiply_lifted(a, column, 1, lifted_zero(field))
    return read_lifted(field, [row[0] for row in out], d * dv)


def _multiply_lifted(a, b, ncols, zero):
    """Dense rows of the entries of the product of the lifted sparse rows a
    and b: row i is the sum over k of a[i][k] * (row k of b), in k order,
    each started at zero, the lifted zero."""
    out = []
    for ri in a:
        row = [zero] * ncols
        for k, x in ri:
            for j, y in b[k]:
                row[j] += x * y
        out.append(row)
    return out


def _eliminate(r, s, rows, p, gcd):
    """Clear from the remainder (r, s), in place, every column of r that is
    a pivot of rows, and return the new scale s.

    One step is r <- d*r - f*P for the row P with pivot q, its pivot entry
    d and f = r[q].  Over F_p it runs on least residues with d = 1, mod p.
    Over Q and Q(t) (p = 0) it runs on integers and on Z[t] entries, with
    gcd their gcd: d and f are first divided by their gcd, and a step with
    d != 1 multiplies s by d and then divides r and s by their gcd.  Pivot
    rows vanish in each other's pivot columns, so clearing one pivot column
    leaves the entries in the others nonzero.
    """
    for q in [c for c in r if c in rows]:
        row = rows[q]
        f = r[q]
        if p:
            for c, v in row.items():
                x = (r.get(c, 0) - f * v) % p
                if x:
                    r[c] = x
                elif c in r:
                    del r[c]
            continue
        d = row[q]
        if d != 1:
            g = gcd(f, d)
            f, d = f // g, d // g
            if d != 1:
                for c in r:
                    r[c] *= d
                s *= d
        for c, v in row.items():
            x = r.get(c)
            if x is None:
                r[c] = -(f * v)
            else:
                x = x - f * v
                if x:
                    r[c] = x
                else:
                    del r[c]
        if d != 1:
            g = gcd(s, *r.values())
            if g > 1:
                for c in r:
                    r[c] //= g
                s //= g
    return s


class Echelon:
    """Fully reduced row basis, grown one row at a time.

    Each basis row is kept sparse as ``{column: nonzero entry}``: its pivot
    is its first nonzero column, and it has nothing in any other pivot
    column.  Such a basis is unique for its span, so its rows in pivot
    order, scaled to 1 at their pivots, are the reduced row-echelon form of
    every matrix whose rows were added, whatever their order.  Over Q a row
    is an integer vector whose pivot entry d is positive, and it stands for
    the row divided by d; it enters primitive, and each elimination step
    that scales it divides out the gcd of its entries again.  Over Q(t) a
    row is the same in Z[t]: primitive, with a pivot entry that leads
    positive.  Over F_p a row holds least residues with d = 1.  These are
    the entries of ``field.integer_lift``; ``rows`` gives the basis in field
    values, read by ``field.from_lift``.  Rows may be given dense (a
    sequence) or sparse (a dict).

    A remainder is a pair ``(r, s)`` that stands for the row r / s, where s
    is the denominator of the lift: an integer over Q, 1 over F_p, and in
    Z[t] over Q(t); a step that scales r by d scales s by d too.  With
    s = 0 the scale is not kept, which is all that ``add`` and ``contains``
    need.
    """

    __slots__ = ("field", "_p", "_gcd", "_rows")

    def __init__(self, field, rows=()):
        self.field = field
        self._p = field.char
        self._gcd = field.lift_gcd
        self._rows = {}
        for row in rows:
            self.add(row)

    @property
    def rank(self):
        return len(self._rows)

    @property
    def pivots(self):
        return tuple(sorted(self._rows))

    @property
    def rows(self):
        """``{pivot: {column: field value}}``, 1 at each pivot.  The values
        are built on every access, so read it once."""
        value = self.field.from_lift
        return {q: {c: value(x, row[q]) for c, x in row.items()} for q, row in self._rows.items()}

    def _lift(self, row):
        """The remainder ``(r, s)`` of row before any reduction: its nonzero
        entries over the denominator s of ``field.integer_lift``."""
        items = row.items() if isinstance(row, dict) else enumerate(row)
        r = {c: v for c, v in items if v}
        ints, s = self.field.integer_lift(r.values())
        return {c: x for c, x in zip(r, ints) if x}, s

    def _remainder(self, row):
        """The remainder (r, s) of row after clearing every pivot column."""
        r, s = self._lift(row)
        return r, _eliminate(r, s, self._rows, self._p, self._gcd)

    def reduce(self, row):
        """Sparse remainder of row after clearing every pivot column, in
        field values."""
        r, s = self._remainder(row)
        value = self.field.from_lift
        return {c: value(x, s) for c, x in r.items()}

    def add(self, row):
        """Extend the basis by row; False when row is already in the span."""
        return self._extend(self._lift(row)[0])

    def add_integers(self, row):
        """``add`` for a row of lifted entries, a dict or pairs ``(column,
        entry)``, such as the pairs of a ``lift_sparse`` lift without its
        denominator, which does not change the span: integers over Q, any
        integers over F_p, read mod p, and Z[t] entries over Q(t)."""
        return self._extend(self._integers(row))

    def _integers(self, row):
        """The nonzero entries of a row of lifted entries, a dict or pairs
        ``(column, entry)`` as ``lift_sparse`` gives them, as a new dict:
        read mod p over F_p."""
        p = self._p
        items = row.items() if isinstance(row, dict) else row
        if p:
            return {c: r for c, x in items if (r := x % p)}
        return {c: x for c, x in items if x}

    def _extend(self, r):
        _eliminate(r, 0, self._rows, self._p, self._gcd)
        if not r:
            return False
        self._insert(r)
        return True

    def _insert(self, r):
        """Make the nonzero remainder r of a reduction a basis row: bring it
        to its stored form and clear its first column from the other rows."""
        q = min(r)
        p = self._p
        if p:
            inv = pow(r[q], -1, p)
            r = {c: v * inv % p for c, v in r.items()}
        else:
            g = self._gcd(*r.values())
            if r[q] < 0:
                g = -g
            if g != 1:
                r = {c: v // g for c, v in r.items()}
        new = {q: r}
        for other in self._rows.values():
            if q in other:
                _eliminate(other, 0, new, p, self._gcd)
                # a step whose d reduces to 1 divides out no content, so
                # the cleared row is made primitive again here
                if not p:
                    g = self._gcd(*other.values())
                    if g != 1:
                        for c in other:
                            other[c] //= g
        self._rows[q] = r

    def is_pivot(self, column):
        return column in self._rows

    def kernel(self, ncols):
        """Basis of the right null space of the basis rows cut to their
        first ncols columns, one vector per free column below ncols, in
        field values: the basis that ``Matrix.kernel`` reads from the
        reduced row-echelon form.  A pivot at ncols or past it, such as a
        right-hand side column, adds nothing."""
        free = [c for c in range(ncols) if c not in self._rows]
        if not free:
            return []
        rows = [(q, row) for q, row in self.rows.items() if q < ncols]
        zero, one = self.field.zero, self.field.one
        basis = []
        for fc in free:
            v = [zero] * ncols
            v[fc] = one
            for q, row in rows:
                v[q] = -row.get(fc, zero)
            basis.append(v)
        return basis

    def contains(self, row):
        r = self._lift(row)[0]
        _eliminate(r, 0, self._rows, self._p, self._gcd)
        return not r

    def contains_integers(self, row):
        """``contains`` for a row of lifted entries, read as ``add_integers``
        reads them."""
        r = self._integers(row)
        _eliminate(r, 0, self._rows, self._p, self._gcd)
        return not r


class Coordinates:
    """Coordinates in a growing independent list of vectors of length n.

    Vector i is kept in one ``Echelon`` as the row (v_i | e_i), with its 1 in
    tag column n + i.  Pivots then fall in the first n columns only, and a
    target t reduces to (0 | -c) exactly when t = sum c_i v_i; any entry
    left in the first n columns means t is outside the span.  The kernel's
    remainder (r, s) of v_i stands for r / s, so the row enters as
    (r | s e_i): the tag entry is the remainder's scale.
    """

    __slots__ = ("n", "size", "_ech")

    def __init__(self, field, n, vectors=()):
        self.n = n
        self.size = 0
        self._ech = Echelon(field)
        for v in vectors:
            self.add(v)

    def _outside(self, r):
        return bool(r) and min(r) < self.n

    def add(self, v):
        """Append v to the list; False, adding nothing, when v is already
        in the span."""
        return self.place(*self._ech._lift(v)) is None

    def place(self, entries, s):
        """Reduce a vector given as a lift once: its lifted entries, pairs
        or a dict, over the denominator s, read as ``Echelon.add_integers``
        reads them.  Outside the span the vector is appended and the result
        is None; inside it the result is its coordinates, as ``coords``."""
        ech = self._ech
        r = ech._integers(entries)
        s = _eliminate(r, s, ech._rows, ech._p, ech._gcd)
        if not self._outside(r):
            return self._read(r, s)
        r[self.n + self.size] = s
        ech._insert(r)
        self.size += 1
        return None

    def coords(self, t):
        """[c_0, ..., c_{size-1}] with t = sum c_i v_i, or None when t is
        outside the span."""
        r, s = self._ech._remainder(t)
        return None if self._outside(r) else self._read(r, s)

    def _read(self, r, s):
        """The coordinates in the tag columns of the reduced remainder
        (r, s) of a vector in the span."""
        field = self._ech.field
        zero, value = field.zero, field.from_lift
        return [value(-r[c], s) if c in r else zero for c in range(self.n, self.n + self.size)]


class Matrix:
    """Immutable-by-convention dense matrix with entries in one field."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field, rows):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise DimensionMismatch("ragged matrix rows")

    @classmethod
    def _wrap(cls, field, rows):
        """A matrix on rectangular row lists the caller has just built and
        hands over: no copy and no shape check."""
        m = cls.__new__(cls)
        m.field = field
        m.rows = rows
        m.nrows = len(rows)
        m.ncols = len(rows[0]) if rows else 0
        return m

    @classmethod
    def identity(cls, field, n):
        one, zero = field.one, field.zero
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field, nrows, ncols):
        zero = field.zero
        return cls(field, [[zero] * ncols for _ in range(nrows)])

    @classmethod
    def from_columns(cls, field, cols):
        if not cols:
            return cls._wrap(field, [])
        return cls._wrap(field, [[c[i] for c in cols] for i in range(len(cols[0]))])

    def column(self, j):
        return [r[j] for r in self.rows]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and all(self.rows[i][j] == other.rows[i][j] for i in range(self.nrows) for j in range(self.ncols))
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, tuple(tuple(r) for r in self.rows)))

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field!r})"

    def is_zero(self):
        return all(not e for r in self.rows for e in r)

    def __add__(self, other):
        self._compat(other)
        rows = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        return Matrix._wrap(self.field, rows)

    def __sub__(self, other):
        self._compat(other)
        rows = [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        return Matrix._wrap(self.field, rows)

    def __neg__(self):
        return Matrix._wrap(self.field, [[-a for a in r] for r in self.rows])

    def scaled(self, c):
        return Matrix._wrap(self.field, [[c * a for a in r] for r in self.rows])

    def _compat(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatch("matrix shapes differ")

    def __matmul__(self, other):
        """The product on lifted entries: each operand is lifted once, and
        each nonzero entry of the product is read back once."""
        if self.ncols != other.nrows:
            raise DimensionMismatch("inner dimensions differ")
        field = self.field
        a, da = lift_rows(field, self.rows)
        b, db = (a, da) if other is self else lift_rows(field, other.rows)
        out = _multiply_lifted(a, b, other.ncols, lifted_zero(field))
        d = da * db
        return Matrix._wrap(field, [read_lifted(field, row, d) for row in out])

    def apply(self, vec):
        """Matrix-vector product; vec is a sequence of field values."""
        if len(vec) != self.ncols:
            raise DimensionMismatch("vector length differs from column count")
        return apply_lifted(self.field, *lift_rows(self.field, self.rows), vec)

    # -- elimination ------------------------------------------------------

    def rref(self):
        """Reduced row-echelon form: (matrix, pivot columns, rank)."""
        rows = Echelon(self.field, self.rows).rows
        pivots = tuple(sorted(rows))
        zero = self.field.zero
        out = [[rows[p].get(c, zero) for c in range(self.ncols)] for p in pivots]
        out += [[zero] * self.ncols for _ in range(self.nrows - len(pivots))]
        return Matrix._wrap(self.field, out), pivots, len(pivots)

    def kernel(self):
        """Basis of the right null space, one vector per free column."""
        red, pivots, rank = self.rref()
        free = [c for c in range(self.ncols) if c not in pivots]
        basis = []
        zero, one = self.field.zero, self.field.one
        for fc in free:
            v = [zero] * self.ncols
            v[fc] = one
            for i, pc in enumerate(pivots):
                v[pc] = -red.rows[i][fc]
            basis.append(v)
        return basis

    def solve(self, rhs):
        """One solution of self @ x = rhs, or None when inconsistent."""
        if len(rhs) != self.nrows:
            raise DimensionMismatch("rhs length differs from row count")
        aug = Matrix(self.field, [self.rows[i] + [rhs[i]] for i in range(self.nrows)])
        red, pivots, rank = aug.rref()
        if self.ncols in pivots:
            return None
        zero = self.field.zero
        x = [zero] * self.ncols
        for i, pc in enumerate(pivots):
            x[pc] = red.rows[i][self.ncols]
        return x

    def det(self):
        """Signed product of the pivots the rows meet entering an Echelon.

        Reducing row i subtracts multiples of earlier rows, and leaves it
        zero before its pivot column p_i and in every earlier pivot column.
        So the remainders, with columns taken in the order p_0, p_1, ...,
        form an upper triangular matrix of the same determinant up to the
        sign of that column permutation.
        """
        if self.nrows != self.ncols:
            raise DimensionMismatch("determinant of a non-square matrix")
        ech = Echelon(self.field)
        # the pivots multiply to det / scale, in the kernel's remainders
        det = scale = lifted_one(self.field)
        order = []
        for row in self.rows:
            r, s = ech._remainder(row)
            if not r:
                return self.field.zero
            p = min(r)
            det, scale = det * r[p], scale * s
            order.append(p)
            ech._insert(r)
        det = self.field.from_lift(det, scale)
        inversions = sum(1 for i, p in enumerate(order) for q in order[:i] if q > p)
        return -det if inversions % 2 else det

    def rank(self):
        return self.rref()[2]


def rref(m):
    """Module-level form of Matrix.rref, matching the operation contract."""
    return m.rref()


def kernel(m):
    return m.kernel()


def minimal_polynomial(m):
    """Monic minimal polynomial of a square matrix, low degree first.

    Computed as the first linear dependence among the flattened powers
    I, M, M^2, ...; the result annihilates M exactly.  The powers stay
    lifted: with M = A / d for the lifted rows A, the flattened M^k is P / s
    for a sparse vector P of entries and an integer scale s, and M^(k+1)
    is P A over s d.  Over Q and Q(t), P and s are then divided by the gcd
    of their entries, so s is the least common denominator of M^k; over F_p
    the entries are reduced mod p.  Each power enters ``Coordinates.place``
    as a lift, and the step that finds the dependence reads its
    coefficients back as field values.
    """
    if m.nrows != m.ncols:
        raise DimensionMismatch("minimal polynomial of a non-square matrix")
    field = m.field
    n = m.nrows
    p, gcd = field.char, field.lift_gcd
    a, d = lift_rows(field, m.rows)
    zero, one = lifted_zero(field), lifted_one(field)
    powers = Coordinates(field, n * n)
    power, s = {i * (n + 1): one for i in range(n)}, one
    while (coeffs := powers.place(power, s)) is None:
        out = [zero] * (n * n)
        for c, x in power.items():  # entry (i, k) of M^k meets row k of A
            k = c % n
            base = c - k
            for j, y in a[k]:
                out[base + j] += x * y
        power = powers._ech._integers(enumerate(out))  # mod p over F_p
        s *= d
        if p == 0:
            g = gcd(s, *power.values())
            if g > 1:
                power = {c: x // g for c, x in power.items()}
                s //= g
    # M^k = sum c_i M^i  =>  minpoly = x^k - sum c_i x^i
    return tuple(-c for c in coeffs) + (field.one,)


def span_contains(field, span_vectors, target):
    """Is target in the linear span of span_vectors?"""
    return Echelon(field, span_vectors).contains(target)


def span_rank(field, vectors):
    return Echelon(field, vectors).rank
