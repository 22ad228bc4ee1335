"""Symmetric associative bilinear forms: solving, radicals, nilpotence audits.

A form is stored as its Gram matrix on the algebra basis.  Solving for a
form is an exact linear system in the n(n+1)/2 upper-triangle entries:
symmetry is built into the unknowns, associativity contributes one sparse
equation per basis triple (i, j, k) with j < k, and each normalization
(x, x) = c contributes one more.  The equations enter one ``Echelon`` whose
extra column holds the right-hand side: the normalizations first, then the
associativity rows as a stream that stops once every unknown is a pivot.
From there the candidate form is unique and the homogeneous basis empty, so
the rows not streamed only need the associativity evaluation that
``BilinearForm`` runs on every form, and the solver hands it the rest of its
stream; a candidate that fails it means the system is inconsistent.
``axial_radical`` likewise stops feeding L_a - lam rows once they reach full
rank.  The trace-admissibility audit tests 4-nilpotence on lifted products
(``Algebra.lifted_product``), each an operand of the next as it comes, with
no field value built between a lift and a verdict.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .algebra import require_same_algebra
from .errors import DimensionMismatch, SelfCheckFailed
from .linalg import Echelon, Matrix, lift_sparse

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
        self._integer_gram = None
        self._check_symmetric()
        triple = self._check_associative()
        if triple is not None:
            i, j, k = triple
            raise SelfCheckFailed(f"(b{i}b{j}, b{k}) != (b{i}, b{j}b{k}): form is not associative")

    @classmethod
    def _unchecked(cls, algebra, gram):
        """The form on a symmetric Gram matrix of the algebra's size, built
        with no check: the caller runs ``_check_associative``."""
        form = cls.__new__(cls)
        form.algebra, form.gram, form._integer_gram = algebra, gram, None
        return form

    def integer_gram(self):
        """The Gram matrix lifted by ``field.integer_lift``: ``(rows, d)``
        with entry ``(i, j)`` equal to ``rows[i][j] / d``; over F_p the rows
        hold least residues and d = 1, and over Q(t) they hold Z[t] entries
        over a Z[t] denominator.  Built on first use."""
        if self._integer_gram is None:
            n = self.algebra.dim
            flat, d = self.algebra.field.integer_lift([c for row in self.gram.rows for c in row])
            self._integer_gram = ([flat[i * n:(i + 1) * n] for i in range(n)], d)
        return self._integer_gram

    def _check_symmetric(self):
        g = self.gram.rows
        for i in range(self.algebra.dim):
            for j in range(i):
                if g[i][j] != g[j][i]:
                    raise SelfCheckFailed("Gram matrix is not symmetric")

    def _check_associative(self, rows=None):
        """The first triple (i, j, k) with (b_i b_j, b_k) != (b_i, b_j b_k)
        among rows, the rest of an ``_associativity_rows`` stream (every
        row by default), or None."""
        p = self.algebra.field.char
        g = self.integer_gram()[0]
        key, nunk = _upper_keys(self.algebra.dim)
        flat = [None] * nunk
        for key_row, gram_row in zip(key, g):
            for u, v in zip(key_row, gram_row):
                flat[u] = v
        if rows is None:
            rows = _associativity_rows(self.algebra, key)
        for triple, row in rows:
            acc = 0
            for u, c in row.items():
                acc = acc + c * flat[u]
            if acc % p if p else acc:
                return triple
        return None

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
        for z in (x, y):
            require_same_algebra(self.algebra, z.algebra, "element belongs to a different algebra than the form")
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

    The rows are read from ``A.integer_grid()``: each is the equation times
    the grid's common denominator, in integers over Q, integers to be read
    mod p over F_p, and in Z[t] over Q(t).
    """
    table = A.integer_grid()[0]
    n = A.dim
    for i in range(n):
        by_i = table[i]
        for j in range(n):
            for k in range(j + 1, n):
                row = {}
                for m, c in by_i[j]:
                    u = key[m][k]
                    row[u] = row.get(u, 0) + c
                for m, c in by_i[k]:
                    u = key[m][j]
                    row[u] = row.get(u, 0) - c
                row = {u: c for u, c in row.items() if c}
                if row:
                    yield (j, i, k), row


def solve_frobenius(A, normalize_at=()):
    """All symmetric associative forms meeting the normalization constraints.

    Returns the affine family: a particular form (None when the constraints
    are inconsistent) plus a basis of the homogeneous solution space, each
    member packaged as a symmetric matrix.  The reduced echelon form does
    not depend on the order of its rows, so the output is the same as that
    of streaming every row.
    """
    field = A.field
    zero = field.zero
    key, nunk = _upper_keys(A.dim)
    # column nunk holds the right-hand side; a repeated row reduces to zero
    ech = Echelon(field)
    for x, target in normalize_at:
        require_same_algebra(A, x.algebra, "normalization element belongs to a different algebra")
        row = {nunk: target}
        for i, xi in enumerate(x.coeffs):
            if not xi:
                continue
            for j, xj in enumerate(x.coeffs):
                if xj:
                    u = key[i][j]
                    row[u] = row.get(u, zero) + xi * xj
        ech.add(row)
    # the rank test comes before each pull, so every row is either streamed
    # or left in rows for the form check
    rows = _associativity_rows(A, key)
    while ech.rank < nunk + ech.is_pivot(nunk):  # until every unknown is a pivot
        streamed = next(rows, None)
        if streamed is None:
            break
        ech.add_integers(streamed[1])

    # restricted to the unknowns, the pivot rows are the reduced form of the
    # homogeneous system (a pivot in the right-hand side column only marks
    # the system inconsistent): free unknowns are 0 in the particular
    # solution and each spans one homogeneous vector.  The candidate meets
    # the rows streamed, and the form check decides the rows left in the stream.
    def unflatten(vec):
        return Matrix(field, [[vec[u] for u in row] for row in key])

    particular = None
    if not ech.is_pivot(nunk):
        vec = [zero] * nunk
        for p, row in ech.rows.items():
            vec[p] = row.get(nunk, zero)
        form = BilinearForm._unchecked(A, unflatten(vec))
        if form._check_associative(rows) is None:
            particular = form
    homogeneous = [unflatten(v) for v in ech.kernel(nunk)]
    return FormSolution(particular=particular, homogeneous_basis=homogeneous)


def radical(form):
    """Kernel of the Gram matrix, verified to be an ideal of the algebra."""
    A = form.algebra
    vecs = form.gram.kernel()
    span = Echelon(A.field, vecs)
    basis = [lift_sparse(A.field, b.coeffs) for b in A.basis()]
    for r in (lift_sparse(A.field, v) for v in vecs):
        for b in basis:
            if not span.contains_integers(A.lifted_product(r, b)[0]):
                raise SelfCheckFailed("form kernel is not an ideal")  # impossible for associative forms
    return [A.element(v) for v in vecs]


def axial_radical(A, axes, lam):
    """Intersection over the given axes of ker(L_a - lam).

    An empty basis certifies nonsingularity with respect to the axis set.
    With no axes at all the intersection convention yields the whole space;
    a warning is emitted because that carries no information.  The rows of
    L_a - lam enter one ``Echelon`` on lifted entries, axis by axis, until
    they reach full rank; the basis is the one ``Matrix.kernel`` gives of
    the stacked rows.
    """
    field = A.field
    n = A.dim
    if not axes:
        warnings.warn("axial radical of an empty axis set is the whole space", stacklevel=2)
        return A.basis()
    for a in axes:
        require_same_algebra(A, a.algebra, "axis belongs to a different algebra")
    (lam_entry,), lam_den = field.integer_lift([lam])
    ech = Echelon(field)
    for a in axes:
        # L_a - lam = (rows * lam_den - d * lam_entry * I) / (d * lam_den)
        rows, d = A.lifted_left_multiplication(lift_sparse(field, a.coeffs))
        shift = d * lam_entry
        for k, row in enumerate(rows):
            row = [x * lam_den for x in row]
            row[k] -= shift
            ech.add_integers(enumerate(row))
            if ech.rank == n:
                return []
    return [A.element(v) for v in ech.kernel(n)]


def _is_4_nilpotent(A, y):
    """``is_4_nilpotent`` of the element with the ``lift_sparse`` lift y."""
    times = A.lifted_product
    y2 = times(y, y)
    return not times(y2, y2)[0] and not times(times(y2, y), y)[0]


def is_4_nilpotent(y):
    """y^3*y = 0 and y^2*y^2 = 0, with y^3 = y^2*y."""
    A = y.algebra
    return _is_4_nilpotent(A, lift_sparse(A.field, y.coeffs))


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

    With pairs omitted, audits all unordered basis pairs.  Each pair member
    is lifted once, and x*y and its powers are tested on lifted products.
    """
    require_same_algebra(A, form.algebra, "form belongs to a different algebra")
    if pairs is None:
        basis = A.basis()
        pairs = [(basis[i], basis[j]) for i in range(A.dim) for j in range(i, A.dim)]
    lifts = {}  # by id, so the basis members of the default pairs lift once
    for pair in pairs:
        for z in pair:
            require_same_algebra(A, z.algebra, "audited element belongs to a different algebra")
            if id(z) not in lifts:
                lifts[id(z)] = lift_sparse(A.field, z.coeffs)
    violations = []
    nil = 0
    for x, y in pairs:
        if _is_4_nilpotent(A, A.lifted_product(lifts[id(x)], lifts[id(y)])):
            nil += 1
            if form.value(x, y):
                violations.append((x, y))
    return TraceAuditReport(checked_pairs=len(pairs), nilpotent_products=nil, violations=violations)
