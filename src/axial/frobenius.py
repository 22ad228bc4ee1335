"""Symmetric associative bilinear forms: solving, radicals, nilpotence audits.

A form is stored as its Gram matrix on the algebra basis.  Solving for a
form is an exact linear system in the n(n+1)/2 upper-triangle entries:
symmetry is built into the unknowns, associativity contributes one sparse
equation per basis triple (i, j, k) with j < k, and each normalization
(x, x) = c contributes one more.  The equations stream into one ``Echelon``
whose extra column holds the right-hand side, so it never holds more than
n(n+1)/2 + 1 rows; the particular form and the homogeneous basis are both
read from it.  ``BilinearForm`` evaluates the same associativity rows on a
given Gram matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .errors import DimensionMismatch, SelfCheckFailed
from .fields import integer_lift
from .linalg import Echelon, Matrix

__all__ = [
    "BilinearForm",
    "FormSolution",
    "solve_frobenius",
    "radical",
    "axial_radical",
    "is_4_nilpotent",
    "trace_admissibility_audit",
]


class BilinearForm:
    def __init__(self, algebra, gram):
        self.algebra = algebra
        self.gram = gram if isinstance(gram, Matrix) else Matrix(algebra.field, gram)
        if self.gram.nrows != algebra.dim or self.gram.ncols != algebra.dim:
            raise DimensionMismatch("Gram matrix does not match the algebra dimension")
        self._check_symmetric()
        self._check_associative()
        self._integer_gram = None

    def integer_gram(self):
        """Over Q, the Gram matrix lifted to integers: ``(rows, d)`` with
        entry ``(i, j)`` equal to ``rows[i][j] / d``.  Built on first use."""
        if self._integer_gram is None:
            n = self.algebra.dim
            flat, d = integer_lift([c for row in self.gram.rows for c in row])
            self._integer_gram = ([flat[i * n:(i + 1) * n] for i in range(n)], d)
        return self._integer_gram

    def _check_symmetric(self):
        g = self.gram.rows
        for i in range(self.algebra.dim):
            for j in range(i):
                if g[i][j] != g[j][i]:
                    raise SelfCheckFailed("Gram matrix is not symmetric")

    def _check_associative(self):
        g = self.gram.rows
        key, nunk = _upper_keys(self.algebra.dim)
        flat = [None] * nunk
        for key_row, gram_row in zip(key, g):
            for u, v in zip(key_row, gram_row):
                flat[u] = v
        zero = self.algebra.field.zero
        for (i, j, k), row in _associativity_rows(self.algebra, key):
            acc = zero
            for u, c in row.items():
                acc = acc + c * flat[u]
            if acc:
                raise SelfCheckFailed(
                    f"(b{i}b{j}, b{k}) != (b{i}, b{j}b{k}): form is not associative"
                )

    def pair(self, x, y):
        """The form on two coefficient tuples."""
        acc = self.algebra.field.zero
        g = self.gram.rows
        for i, xi in enumerate(x):
            if not xi:
                continue
            gi = g[i]
            for j, yj in enumerate(y):
                if yj:
                    acc = acc + xi * yj * gi[j]
        return acc

    def value(self, x, y):
        return self.pair(x.coeffs, y.coeffs)

    def __eq__(self, other):
        return isinstance(other, BilinearForm) and self.algebra == other.algebra and self.gram == other.gram

    def __repr__(self):
        return f"BilinearForm(dim={self.algebra.dim})"


@dataclass
class FormSolution:
    particular: BilinearForm | None
    homogeneous_basis: list

    @property
    def unique(self):
        return self.particular is not None and not self.homogeneous_basis


def _upper_keys(n):
    """``(key, count)``: key[i][j] = key[j][i] is the flat unknown index of
    the Gram entry (i, j), numbered along the rows of the upper triangle."""
    key = [[0] * n for _ in range(n)]
    c = 0
    for i in range(n):
        for j in range(i, n):
            key[i][j] = key[j][i] = c
            c += 1
    return key, c


def _associativity_rows(A, key):
    """The associativity equations of a symmetric form on the commutative A,
    as pairs ``((a, b, c), row)``: row is the nonzero sparse linear form
    (b_a b_b, b_c) - (b_a, b_b b_c) over the unknowns numbered by key.

    With T(i, j, k) = (b_i b_j, b_k), commutativity makes T symmetric in
    i and j, and associativity is T(i, j, k) = T(j, k, i); together they
    make T symmetric under all permutations, which is the same as symmetry
    in j and k.  So the rows T(i, j, k) - T(i, k, j) with j < k, the
    associativity of the triple (j, i, k), span the rows of all n^3 triples.
    """
    zero = A.field.zero
    n = A.dim
    nonzero = [[[(m, c) for m, c in enumerate(cs) if c] for cs in srow] for srow in A.structure]
    for i in range(n):
        by_i = nonzero[i]
        for j in range(n):
            for k in range(j + 1, n):
                row = {}
                for m, c in by_i[j]:
                    u = key[m][k]
                    row[u] = row.get(u, zero) + c
                for m, c in by_i[k]:
                    u = key[m][j]
                    row[u] = row.get(u, zero) - c
                row = {u: c for u, c in row.items() if c}
                if row:
                    yield (j, i, k), row


def solve_frobenius(A, normalize_at=()):
    """All symmetric associative forms meeting the normalization constraints.

    Returns the affine family: a particular form (None when the constraints
    are inconsistent) plus a basis of the homogeneous solution space, each
    member packaged as a symmetric matrix.
    """
    field = A.field
    zero, one = field.zero, field.one
    n = A.dim
    key, nunk = _upper_keys(n)
    # column nunk holds the right-hand side
    ech = Echelon(field)
    seen = set()

    def add_equation(row):
        row = {u: c for u, c in row.items() if c}
        signature = tuple(sorted(row.items()))
        if row and signature not in seen:
            seen.add(signature)
            ech.add(row)

    for _, row in _associativity_rows(A, key):
        add_equation(row)
    for x, target in normalize_at:
        row = {nunk: target}
        for i, xi in enumerate(x.coeffs):
            if not xi:
                continue
            for j, xj in enumerate(x.coeffs):
                if xj:
                    u = key[i][j]
                    row[u] = row.get(u, zero) + xi * xj
        add_equation(row)

    # restricted to the unknowns, the pivot rows are the reduced form of the
    # homogeneous system (a pivot in the right-hand side column only marks
    # the system inconsistent): free unknowns are 0 in the particular
    # solution and each spans one homogeneous vector
    pivot_rows = ech.rows
    if nunk in pivot_rows:
        particular_vec = None
    else:
        particular_vec = [zero] * nunk
        for p, row in pivot_rows.items():
            particular_vec[p] = row.get(nunk, zero)
    hom_vecs = []
    for free in range(nunk):
        if free in pivot_rows:
            continue
        v = [zero] * nunk
        v[free] = one
        for p, row in pivot_rows.items():
            if p < nunk:
                v[p] = -row.get(free, zero)
        hom_vecs.append(v)

    def unflatten(vec):
        return Matrix(field, [[vec[u] for u in row] for row in key])

    particular = None if particular_vec is None else BilinearForm(A, unflatten(particular_vec))
    homogeneous = [unflatten(v) for v in hom_vecs]
    return FormSolution(particular=particular, homogeneous_basis=homogeneous)


def radical(form):
    """Kernel of the Gram matrix, verified to be an ideal of the algebra."""
    A = form.algebra
    vecs = form.gram.kernel()
    rad = [A.element(v) for v in vecs]
    span = Echelon(A.field, vecs)
    for r in rad:
        for b in A.basis():
            if not span.contains((r * b).coeffs):
                raise SelfCheckFailed("form kernel is not an ideal")  # impossible for associative forms
    return rad


def axial_radical(A, axes, lam):
    """Intersection over the given axes of ker(L_a - lam).

    An empty basis certifies nonsingularity with respect to the axis set.
    With no axes at all the intersection convention yields the whole space;
    a warning is emitted because that carries no information.
    """
    field = A.field
    if not axes:
        warnings.warn("axial radical of an empty axis set is the whole space", stacklevel=2)
        return A.basis()
    rows = []
    eye = Matrix.identity(field, A.dim)
    for a in axes:
        L = a.left_multiplication_matrix()
        rows.extend((L - eye.scaled(lam)).rows)
    stacked = Matrix(field, rows)
    return [A.element(v) for v in stacked.kernel()]


def is_4_nilpotent(y):
    """y^3*y = 0 and y^2*y^2 = 0, with y^3 = y^2*y."""
    y2 = y * y
    y3 = y2 * y
    return (y3 * y).is_zero() and (y2 * y2).is_zero()


@dataclass
class TraceAuditReport:
    checked_pairs: int
    nilpotent_products: int
    violations: list

    @property
    def passed(self):
        return not self.violations


def trace_admissibility_audit(A, form, pairs=None):
    """Weak trace-admissibility: whenever x*y is 4-nilpotent, (x, y) must be 0.

    With pairs omitted, audits all unordered basis pairs.
    """
    if pairs is None:
        basis = A.basis()
        pairs = [(basis[i], basis[j]) for i in range(A.dim) for j in range(i, A.dim)]
    violations = []
    nil = 0
    for x, y in pairs:
        if is_4_nilpotent(x * y):
            nil += 1
            if form.value(x, y):
                violations.append((x, y))
    return TraceAuditReport(checked_pairs=len(pairs), nilpotent_products=nil, violations=violations)
