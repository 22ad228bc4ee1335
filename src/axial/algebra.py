"""Structure-constant commutative algebras and their elements.

An algebra is a field, a basis of named vectors, and the full symmetric grid
of structure constants: ``structure[i][j]`` is the coefficient tuple of
``b_i * b_j``.  The one sparse table is ``integer_grid()``: the nonzero
structure constants lifted by ``field.integer_lift`` over one denominator.
The product, L_a, the Frobenius equations and identity evaluation read it;
the product and L_a lift each operand once, sum products of entries from
the lifted zero and read each nonzero entry of the result back once
(``linalg.lift_sparse`` and ``linalg.read_lifted``).  ``lifted_product``
is the product with no read-back, from lifts to a lift in the one format
of ``lift_sparse``, which ``generate_subalgebra`` hands to
``Coordinates.place`` and ``is_idempotent_lift``, the one idempotency test,
compares with the lift it squares; ``lifted_left_multiplication`` is L_a
with none, and ``frobenius.axial_radical`` hands its rows to an
``Echelon``.  Elements are coefficient tuples over the field and support
``+``, ``-``, scalar ``*`` and the (commutative, bilinear) algebra product.
"""

from __future__ import annotations

from .errors import AlgebraMismatch, AsymmetricStructure, DimensionMismatch
from .linalg import (Coordinates, Matrix, lift_sparse, lifted_one, lifted_zero, read_lifted, same_lift,
                     sparse_entries)

__all__ = ["Algebra", "Element", "Subalgebra", "make_algebra", "generate_subalgebra"]


class Algebra:
    def __init__(self, field, basis_names, structure):
        self.field = field
        self.basis_names = list(basis_names)
        self.dim = len(self.basis_names)
        if len(structure) != self.dim:
            raise DimensionMismatch("structure grid has wrong number of rows")
        struct = []
        for i, row in enumerate(structure):
            if len(row) != self.dim:
                raise DimensionMismatch(f"structure row {i} has wrong length")
            srow = []
            for j, coeffs in enumerate(row):
                if len(coeffs) != self.dim:
                    raise DimensionMismatch(f"structure[{i}][{j}] has wrong length")
                srow.append(tuple(coeffs))
            struct.append(srow)
        for i in range(self.dim):
            for j in range(i):
                if struct[i][j] != struct[j][i]:
                    raise AsymmetricStructure(
                        f"b_{i}*b_{j} != b_{j}*b_{i} "
                        f"({self.basis_names[i]}, {self.basis_names[j]})"
                    )
        self.structure = struct
        cols = [[[k for k, c in enumerate(cell) if c] for cell in srow] for srow in struct]
        flat, d = field.integer_lift([cell[k] for srow, crow in zip(struct, cols)
                                      for cell, ks in zip(srow, crow) for k in ks])
        lifted = iter(flat)
        self._integer_grid = ([[tuple([(k, next(lifted)) for k in ks]) for ks in crow] for crow in cols], d)
        self._lifted_zero = lifted_zero(field)

    def integer_grid(self):
        """The nonzero structure constants lifted by ``field.integer_lift``:
        ``(table, d)`` where ``table[i][j]`` holds the pairs ``(k, d * c)``
        of the nonzero coefficients c of ``b_i * b_j``.  Over Q, d is the
        common denominator of the structure constants; over F_p the entries
        are least residues and d = 1; over Q(t) they are in Z[t] over the
        least common denominator in Z[t]."""
        return self._integer_grid

    def product(self, x, y):
        """The product of two coefficient tuples, as a coefficient tuple:
        ``lifted_product`` of their lifts, read back once."""
        field = self.field
        x_lift = lift_sparse(field, x)
        y_lift = x_lift if y is x else lift_sparse(field, y)
        return tuple(read_lifted(field, *self._product_entries(x_lift, y_lift)))

    def lifted_product(self, x_lift, y_lift):
        """The product of the ``lift_sparse`` lifts (xs, dx) and (ys, dy) as a
        lift in the same format, over dx * dy * d: an operand of the next
        product, of ``Coordinates.place`` and of ``Echelon.contains_integers``."""
        out, s = self._product_entries(x_lift, y_lift)
        return sparse_entries(out, self.field.char), s

    def is_idempotent_lift(self, lift):
        """Is the element with the ``lift_sparse`` lift x idempotent: does
        ``lifted_product(x, x)`` stand for x?  The one idempotency test."""
        return same_lift(self.lifted_product(lift, lift), lift, self.field.char)

    def _product_entries(self, x_lift, y_lift):
        """``(out, dx * dy * d)``: out[k] sums x_i y_j c over the cells (k, c)
        of ``integer_grid()[0][i][j]``, dense and unreduced, so that
        ``product`` reduces each entry mod p once, as it reads it back."""
        table, d = self._integer_grid
        (xs, dx), (ys, dy) = x_lift, y_lift
        out = [self._lifted_zero] * self.dim
        for i, xi in xs:
            row = table[i]
            for j, yj in ys:
                c = xi * yj
                for k, s in row[j]:
                    out[k] += c * s
        return out, dx * dy * d

    def lifted_left_multiplication(self, x_lift):
        """L_x of the ``lift_sparse`` lift (xs, dx): ``(rows, dx * d)``,
        rows[k][j] summing x_i c over the cells (k, c) of
        ``integer_grid()[0][i][j]``, so that column j is x * b_j; dense, and
        unreduced even over F_p."""
        table, d = self._integer_grid
        xs, dx = x_lift
        n = self.dim
        rows = [[self._lifted_zero] * n for _ in range(n)]
        for i, xi in xs:
            for j, cell in enumerate(table[i]):
                for k, s in cell:
                    rows[k][j] += xi * s
        return rows, dx * d

    def element(self, coeffs):
        return Element(self, coeffs)

    def basis_element(self, i):
        zero, one = self.field.zero, self.field.one
        return Element(self, [one if j == i else zero for j in range(self.dim)])

    def basis(self):
        return [self.basis_element(i) for i in range(self.dim)]

    def zero(self):
        return Element(self, [self.field.zero] * self.dim)

    def unit(self):
        """The identity element if one exists, else None: the coordinates of
        the flattened identity matrix in the flattened L_{b_j}, placed as
        lifts in one ``Coordinates``.  L_c = 0 for some c != 0 leaves none,
        since a unit u would give c = u c = 0."""
        table, d = self._integer_grid
        n = self.dim
        one = lifted_one(self.field)
        span = Coordinates(self.field, n * n)
        for row in table:  # entry (i, k) of L_{b_j} is coefficient k of b_j b_i
            if span.place([(i * n + k, s) for i, cell in enumerate(row) for k, s in cell], d) is not None:
                return None
        coeffs = span.place([(i * (n + 1), one) for i in range(n)], one)
        return None if coeffs is None else Element(self, coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, Algebra)
            and self.field == other.field
            and self.basis_names == other.basis_names
            and self.structure == other.structure
        )

    def __hash__(self):
        return hash((tuple(self.basis_names), self.dim))

    def __repr__(self):
        return f"Algebra(dim={self.dim}, basis={self.basis_names}, field={self.field!r})"


def make_algebra(field, dim, basis_names, structure):
    """Validated constructor mirroring the external JSON layout."""
    if len(basis_names) != dim:
        raise DimensionMismatch("basis name count differs from dim")
    return Algebra(field, basis_names, structure)


def require_same_algebra(A, B, message):
    """Raise AlgebraMismatch with message unless A and B are one algebra:
    the same object or structurally equal ones."""
    if A is not B and A != B:
        raise AlgebraMismatch(message)


class Element:
    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != algebra.dim:
            raise DimensionMismatch("coefficient tuple has wrong length")
        self.algebra = algebra
        self.coeffs = coeffs

    def _same(self, other):
        if not isinstance(other, Element):
            raise AlgebraMismatch("elements belong to different algebras")
        require_same_algebra(self.algebra, other.algebra, "elements belong to different algebras")

    def __add__(self, other):
        self._same(other)
        return Element(self.algebra, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._same(other)
        return Element(self.algebra, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return Element(self.algebra, [-a for a in self.coeffs])

    def __rmul__(self, scalar):
        if isinstance(scalar, Element):
            return NotImplemented
        return Element(self.algebra, [scalar * a for a in self.coeffs])

    def __mul__(self, other):
        """The algebra product (bilinear extension of the structure grid)."""
        if not isinstance(other, Element):
            return Element(self.algebra, [a * other for a in self.coeffs])
        self._same(other)
        A = self.algebra
        return Element(A, A.product(self.coeffs, other.coeffs))

    def __eq__(self, other):
        return isinstance(other, Element) and self.algebra == other.algebra and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def is_zero(self):
        return not any(self.coeffs)

    def left_multiplication_matrix(self):
        """Matrix M with M @ coords(y) = coords(self * y):
        ``Algebra.lifted_left_multiplication`` read back once."""
        A = self.algebra
        field = A.field
        rows, d = A.lifted_left_multiplication(lift_sparse(field, self.coeffs))
        return Matrix._wrap(field, [read_lifted(field, row, d) for row in rows])

    def format(self):
        return [self.algebra.field.format(c) for c in self.coeffs]

    def __repr__(self):
        names = self.algebra.basis_names
        f = self.algebra.field
        parts = [f"{f.format(c)}*{n}" for c, n in zip(self.coeffs, names) if c]
        return "El(" + (" + ".join(parts) if parts else "0") + ")"


class Subalgebra:
    """A multiplicatively closed span inside a parent algebra.

    ``basis`` is a list of parent elements; ``words`` records, per basis
    member, the generator word that produced it; ``induced`` is the algebra
    the basis carries by restriction; ``coordinates`` is the
    ``linalg.Coordinates`` of the basis coefficient vectors.
    """

    def __init__(self, parent, basis, words, induced, coordinates):
        self.parent = parent
        self.basis = basis
        self.words = words
        self.induced = induced
        self.coordinates = coordinates
        self.dim = len(basis)

    def coords(self, element):
        """Coordinates of a parent element in the subalgebra basis, or None."""
        require_same_algebra(self.parent, element.algebra, "element belongs to a different algebra")
        c = self.coordinates.coords(element.coeffs)
        return None if c is None else self.induced.element(c)

    def embed(self, element):
        """Map an induced-algebra element back into the parent."""
        require_same_algebra(self.induced, element.algebra, "element belongs to a different algebra")
        acc = self.parent.zero()
        for c, b in zip(element.coeffs, self.basis):
            if c:
                acc = acc + c * b
        return acc

    def contains(self, element):
        return self.coords(element) is not None

    def __repr__(self):
        return f"Subalgebra(dim={self.dim}, words={[_word_str(w) for w in self.words]})"


def _word_str(word):
    if isinstance(word, int):
        return f"g{word}"
    l, r = word
    return f"({_word_str(l)}*{_word_str(r)})"


def _word_len(word):
    if isinstance(word, int):
        return 1
    return _word_len(word[0]) + _word_len(word[1])


def generate_subalgebra(gens):
    """Smallest multiplicatively closed subspace containing the generators.

    Iterates span <- span + span*span to a fixed point.  Basis ordering is
    breadth-first by word length with ties broken by first discovery, so the
    output is deterministic.  Zero or duplicate generators are simply
    absorbed by the span.  Each pair i <= j of basis members is multiplied
    once on their lifts and placed once in the span: a new basis member, or
    its coordinates, which are the induced structure constants of b_i * b_j
    padded with zeros, since coordinates in an independent list are unique.
    """
    if not gens:
        raise ValueError("empty generator list")
    parent = gens[0].algebra
    field = parent.field
    span = Coordinates(field, parent.dim)
    basis, words, lifts = [], [], []

    def keep(elem, word, lift):
        basis.append(elem)
        words.append(word)
        lifts.append(lift)

    for i, g in enumerate(gens):
        require_same_algebra(parent, g.algebra, "generators belong to different algebras")
        lift = lift_sparse(field, g.coeffs)
        if span.place(*lift) is None:
            keep(g, i, lift)

    # products of known basis members, breadth-first over word length; a
    # pair with i <= j is made in the round after b_j was found
    structure = {}
    frontier = set(range(len(basis)))
    while frontier:
        pairs = sorted(((i, j) for j in frontier for i in range(j + 1)),
                       key=lambda ij: (_word_len(words[ij[0]]) + _word_len(words[ij[1]]), ij))
        start = len(basis)
        for i, j in pairs:
            out, s = parent.lifted_product(lifts[i], lifts[j])
            c = span.place(out, s)
            if c is None:
                coeffs = [field.zero] * parent.dim
                for k, x in out:
                    coeffs[k] = field.from_lift(x, s)
                keep(Element(parent, coeffs), (words[i], words[j]), lift_sparse(field, coeffs))
                c = [field.zero] * (span.size - 1) + [field.one]
            structure[i, j] = c
        frontier = set(range(start, len(basis)))

    n = len(basis)
    cell = {ij: tuple(c) + (field.zero,) * (n - len(c)) for ij, c in structure.items()}
    grid = [[cell[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    induced = Algebra(field, [_word_str(w) for w in words], grid)
    return Subalgebra(parent, basis, words, induced, span)

