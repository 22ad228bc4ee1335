"""Exact linear algebra over a scalar field.

Row reduction goes through one kernel, ``Echelon``: a fully reduced row
basis grown one sparse row at a time.  Arithmetic is exact, so no pivoting
heuristics are needed, and the reduced basis depends only on the span of
the rows added.  ``Matrix.rref`` reads the canonical reduced row-echelon
form from it, and ``kernel``, ``solve`` and ``rank`` read theirs from
``rref``; ``det`` multiplies the pivots its rows meet on the way in.
``Coordinates`` writes vectors in a growing independent list through one
``Echelon``, for ``minimal_polynomial``, subalgebra coordinates and induced
structure constants.  ``span_contains``, ``span_rank``, the membership
tests elsewhere and ``solve_frobenius`` keep an ``Echelon`` of their own.
``Matrix`` is dense.
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


def _sparse(row):
    """{column: value} of the nonzero entries of a dense or sparse row."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    return {c: v for c, v in items if v}


def _subtract(r, f, row):
    """r -= f * row in place, dropping entries that cancel."""
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


class Echelon:
    """Fully reduced row basis, grown one row at a time.

    ``rows`` maps each pivot column to its row, stored sparse as
    ``{column: nonzero value}``: 1 at its pivot, which is its first nonzero
    column, and nothing in any other pivot column.  Such a basis is unique
    for its span, so its rows in pivot order are the reduced row-echelon
    form of every matrix whose rows were added, whatever their order.
    Rows may be given dense (a sequence) or sparse (a dict).
    """

    __slots__ = ("field", "rows")

    def __init__(self, field, rows=()):
        self.field = field
        self.rows = {}
        for row in rows:
            self.add(row)

    @property
    def rank(self):
        return len(self.rows)

    @property
    def pivots(self):
        return tuple(sorted(self.rows))

    def reduce(self, row):
        """Sparse remainder of row after clearing every pivot column."""
        r = _sparse(row)
        # pivot rows vanish in each other's pivot columns, so clearing one
        # pivot column leaves the entries in the others untouched
        for p in [c for c in r if c in self.rows]:
            _subtract(r, r[p], self.rows[p])
        return r

    def add(self, row):
        """Extend the basis by row; False when row is already in the span."""
        r = self.reduce(row)
        if not r:
            return False
        self._insert(r)
        return True

    def _insert(self, r):
        """Make the nonzero remainder r of reduce a basis row: scale it to 1
        at its first column and clear that column from the other rows."""
        p = min(r)
        inv = self.field.one / r[p]
        r = {c: inv * v for c, v in r.items()}
        for other in self.rows.values():
            f = other.get(p)
            if f is not None:
                _subtract(other, f, r)
        self.rows[p] = r

    def contains(self, row):
        return not self.reduce(row)


class Coordinates:
    """Coordinates in a growing independent list of vectors of length n.

    Vector i is kept in one ``Echelon`` as the row (v_i | e_i), with its 1 in
    tag column n + i.  Pivots then fall in the first n columns only, and a
    target t reduces to (0 | -c) exactly when t = sum c_i v_i; any entry
    left in the first n columns means t is outside the span.
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
        r = self._ech.reduce(v)
        if not self._outside(r):
            return False
        r[self.n + self.size] = self._ech.field.one
        self._ech._insert(r)
        self.size += 1
        return True

    def coords(self, t):
        """[c_0, ..., c_{size-1}] with t = sum c_i v_i, or None when t is
        outside the span."""
        r = self._ech.reduce(t)
        if self._outside(r):
            return None
        zero = self._ech.field.zero
        return [-r[c] if c in r else zero for c in range(self.n, self.n + self.size)]


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
        if self.ncols != other.nrows:
            raise DimensionMismatch("inner dimensions differ")
        zero = self.field.zero
        out = []
        for ri in self.rows:
            # row i is the sum over k of ri[k] * (row k of other), in k order
            row = [zero] * other.ncols
            for a, rk in zip(ri, other.rows):
                if a:
                    for j, b in enumerate(rk):
                        if b:
                            row[j] = row[j] + a * b
            out.append(row)
        return Matrix._wrap(self.field, out)

    def apply(self, vec):
        """Matrix-vector product; vec is a sequence of field values."""
        if len(vec) != self.ncols:
            raise DimensionMismatch("vector length differs from column count")
        zero = self.field.zero
        out = []
        for r in self.rows:
            acc = zero
            for a, v in zip(r, vec):
                if a and v:
                    acc = acc + a * v
            out.append(acc)
        return out

    # -- elimination ------------------------------------------------------

    def rref(self):
        """Reduced row-echelon form: (matrix, pivot columns, rank)."""
        ech = Echelon(self.field, self.rows)
        pivots = ech.pivots
        zero = self.field.zero
        rows = [[ech.rows[p].get(c, zero) for c in range(self.ncols)] for p in pivots]
        rows += [[zero] * self.ncols for _ in range(self.nrows - len(pivots))]
        return Matrix._wrap(self.field, rows), pivots, len(pivots)

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
        det = self.field.one
        order = []
        for row in self.rows:
            r = ech.reduce(row)
            if not r:
                return self.field.zero
            p = min(r)
            det = det * r[p]
            order.append(p)
            ech._insert(r)
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
    I, M, M^2, ...; the result annihilates M exactly.
    """
    if m.nrows != m.ncols:
        raise DimensionMismatch("minimal polynomial of a non-square matrix")
    field = m.field
    powers = Coordinates(field, m.nrows * m.ncols)
    power = Matrix.identity(field, m.nrows)
    flat = [e for row in power.rows for e in row]
    while powers.add(flat):
        power = power @ m
        flat = [e for row in power.rows for e in row]
    # M^k = sum c_i M^i  =>  minpoly = x^k - sum c_i x^i
    return tuple(-c for c in powers.coords(flat)) + (field.one,)


def span_contains(field, span_vectors, target):
    """Is target in the linear span of span_vectors?"""
    return Echelon(field, span_vectors).contains(target)


def span_rank(field, vectors):
    return Echelon(field, vectors).rank
