"""One lifted-vector format: ``Algebra.lifted_product`` returns a lift in the
format of ``linalg.lift_sparse``, the H_k table is read from integer matrix
units, and ``Algebra.unit`` places the lifts of the integer grid; plus the
inputs from another algebra that the fusion check, the Miyamoto map,
subalgebra coordinates and the solid audit refuse.

A lift is ``(pairs, d)``: the pairs ``(k, e)`` of the nonzero entries in
index order, least residues over F_p, standing for the vector with entry
e / d at k.  Products of lifts, products of those products and so on are
compared with ``Element`` products over Q, F_7, F_101 and Q(t).  The
``reference_*`` functions are the code that ``jordan_symmetric_matrices``
and ``Algebra.unit`` ran before, kept as the reference: the first multiplies
dicts of field values, the second solves a dense n^2 x n system.
"""

import random
from fractions import Fraction

import pytest

from axial import (QQ, PrimeField, RationalFunctions, generate_subalgebra, jordan_symmetric_matrices,
                   matsuo_from_triple_system, solid_audit, toric_euf, universal_2gen)
from axial.algebra import Algebra
from axial.axes import check_fusion, eigen_decompose, miyamoto
from axial.errors import AlgebraMismatch, NotAnAxis
from axial.linalg import Coordinates, Echelon, Matrix, lift_sparse

from conftest import transpositions
from test_lifted_audits import _rebased, random_algebras

QT = RationalFunctions("t")
FIELDS = (QQ, PrimeField(7), PrimeField(101), QT)
HALF = Fraction(1, 2)


def reference_jordan_structure(k, field):
    half = field.one / field.from_int(2)
    names = []
    units = []  # basis member as dict {(r,c): scalar}
    for i in range(k):
        names.append(f"E{i + 1}{i + 1}")
        units.append({(i, i): field.one})
    for i in range(k):
        for j in range(i + 1, k):
            names.append(f"F{i + 1}{j + 1}")
            units.append({(i, j): field.one, (j, i): field.one})
    n = len(names)

    def mat_mul(x, y):
        out = {}
        for (r, c), xv in x.items():
            for (c2, c3), yv in y.items():
                if c == c2:
                    key = (r, c3)
                    out[key] = out.get(key, field.zero) + xv * yv
        return {key: v for key, v in out.items() if v}

    def sym_product(x, y):
        xy = mat_mul(x, y)
        yx = mat_mul(y, x)
        out = dict(xy)
        for key, v in yx.items():
            out[key] = out.get(key, field.zero) + v
        return {key: half * v for key, v in out.items() if half * v}

    def to_coeffs(m):
        v = [field.zero] * n
        for idx, u in enumerate(units):
            (r, c), _val = next(iter(u.items()))
            if (r, c) in m:
                v[idx] = m[(r, c)]
        return tuple(v)

    return names, [[to_coeffs(sym_product(units[i], units[j])) for j in range(n)] for i in range(n)]


def reference_unit(A):
    cols = []
    rhs = []
    n = A.dim
    for j in range(n):
        col = []
        for i in range(n):
            col.extend(A.structure[j][i])  # u = sum u_j b_j:  sum_j u_j (b_j b_i) = b_i
        cols.append(col)
    for i in range(n):
        for k in range(n):
            rhs.append(A.field.one if k == i else A.field.zero)
    sol = Matrix.from_columns(A.field, cols).solve(rhs)
    return None if sol is None else A.element(sol)


def typed(values):
    return [(type(v).__name__, v) for v in values]


def read(A, lift):
    """The coefficient tuple a lift stands for."""
    out = [A.field.zero] * A.dim
    pairs, d = lift
    for k, e in pairs:
        out[k] = A.field.from_lift(e, d)
    return tuple(out)


def assert_format(A, lift):
    pairs, _d = lift
    ks = [k for k, _e in pairs]
    assert ks == sorted(set(ks)) and all(0 <= k < A.dim for k in ks)
    assert all(e for _k, e in pairs)
    p = A.field.char
    if p:
        assert all(0 <= e < p for _k, e in pairs)


def _field_name(field):
    return f"F{field.char}" if field.char else type(field).__name__


def golden_corpus(field):
    """Matsuo algebras of 3C and S_4, the toric algebra, the 2-generated
    algebra at pi = 0, 1/8 and 2, and H_2 to H_4, over field."""
    half = field.from_fraction(HALF)
    yield matsuo_from_triple_system((["a", "b", "c"], [["a", "b", "c"]]), half, field).algebra
    yield matsuo_from_triple_system(transpositions(4), half, field).algebra
    yield toric_euf(field).algebra
    for pi in (0, Fraction(1, 8), 2):
        yield universal_2gen(half, field.from_fraction(Fraction(pi)), field).algebra
    for k in (2, 3, 4):
        yield jordan_symmetric_matrices(k, field)


def _unitization(A):
    """F 1 + A, with the adjoined unit as basis member 0."""
    field, n = A.field, A.dim
    one = tuple(field.one if k == 0 else field.zero for k in range(n + 1))

    def basis(i):
        return tuple(field.one if k == i + 1 else field.zero for k in range(n + 1))

    grid = [[one] + [basis(j) for j in range(n)]]
    grid += [[basis(i)] + [(field.zero,) + tuple(A.structure[i][j]) for j in range(n)] for i in range(n)]
    return Algebra(field, ["1"] + A.basis_names, grid)


def seeded_algebras(seed):
    """The seeded algebras of ``random_algebras`` with their elements, and
    each one's unitization written on a seeded change of basis, so that the
    unit is no basis member."""
    rng = random.Random(seed)
    for A, _form, xs in random_algebras(seed, count=9):
        yield A, xs
        U = _unitization(A)
        field, n = U.field, U.dim
        P = [[field.one if i == k else field.from_int(rng.randint(-2, 2)) if k < i else field.zero
              for k in range(n)] for i in range(n)]
        B = _rebased(U, P)
        yield B, [B.element(rng.choice(B.basis()).coeffs)] + [b * b for b in B.basis()]


class TestLiftedProduct:
    def test_products_of_products_match_element_products(self):
        checked = set()
        for A, xs in seeded_algebras(40):
            lifts = [lift_sparse(A.field, x.coeffs) for x in xs]
            for x, y, z, lx, ly, lz in zip(xs, xs[1:], xs[2:], lifts, lifts[1:], lifts[2:]):
                xy = A.lifted_product(lx, ly)
                chained = [
                    (x * y, xy),
                    ((x * y) * z, A.lifted_product(xy, lz)),
                    (z * (x * y), A.lifted_product(lz, xy)),
                    ((x * y) * (x * y), A.lifted_product(xy, xy)),
                    (((x * y) * z) * (x * y), A.lifted_product(A.lifted_product(xy, lz), xy)),
                ]
                for want, lift in chained:
                    assert_format(A, lift)
                    assert typed(read(A, lift)) == typed(want.coeffs)
                # a product is an operand of the echelon kernels as it comes
                assert Echelon(A.field, [(x * y).coeffs]).contains_integers(xy[0])
                if not (x * y).is_zero():
                    assert Coordinates(A.field, A.dim, [(x * y).coeffs]).place(*xy) == [A.field.one]
            checked.add(_field_name(A.field))
        assert checked == {"Rationals", "F7", "F101", "RationalFunctions"}

    def test_zero_product_is_empty(self):
        for field in FIELDS:
            # e * e = 0 in the toric algebra, and e times the lifted zero
            T = toric_euf(field)
            e = lift_sparse(field, T.e.coeffs)
            assert T.algebra.lifted_product(e, e)[0] == []
            assert T.algebra.lifted_product(e, ([], e[1]))[0] == []

    @pytest.mark.parametrize("field", [PrimeField(7), PrimeField(101)], ids=_field_name)
    def test_residues_over_prime_fields(self, field):
        # the unreduced sums of entries reach past p: S_4 over F_7 and
        # F_101, squared twice
        A = matsuo_from_triple_system(transpositions(4), field.from_fraction(HALF), field).algebra
        x = A.element([field.from_int(k - 1) for k in range(A.dim)])
        lx = lift_sparse(field, x.coeffs)
        x2 = A.lifted_product(lx, lx)
        x4 = A.lifted_product(x2, x2)
        for lift, want in ((x2, x * x), (x4, (x * x) * (x * x))):
            assert_format(A, lift)
            assert typed(read(A, lift)) == typed(want.coeffs)


class TestJordanTable:
    @pytest.mark.parametrize("field", FIELDS, ids=_field_name)
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_matches_field_value_products(self, field, k):
        A = jordan_symmetric_matrices(k, field)
        names, structure = reference_jordan_structure(k, field)
        assert A.basis_names == names
        assert [[typed(c) for c in row] for row in A.structure] == [[typed(c) for c in row] for row in structure]


class TestUnit:
    def test_golden_corpus(self):
        for field in FIELDS:
            for A in golden_corpus(field):
                u = A.unit()
                want = reference_unit(A)
                assert (u is None) is (want is None)
                if u is not None:
                    assert typed(u.coeffs) == typed(want.coeffs)

    def test_seeded_algebras(self):
        seen = {}
        for A, _xs in seeded_algebras(41):
            u = A.unit()
            want = reference_unit(A)
            assert (u is None) is (want is None)
            if u is not None:
                assert typed(u.coeffs) == typed(want.coeffs)
                assert all(u * b == b for b in A.basis())
            seen.setdefault(_field_name(A.field), set()).add(u is None)
        # unital and non-unital algebras over every field
        assert seen == {name: {False, True} for name in ("Rationals", "F7", "F101", "RationalFunctions")}


class TestForeignInputs:
    """Elements, decompositions and forms of another algebra are refused;
    before, each gave a verdict or an element read from the wrong table."""

    def test_fusion_with_a_foreign_decomposition(self):
        a = universal_2gen(HALF, Fraction(1, 8)).axes[0]
        with pytest.raises(AlgebraMismatch):
            check_fusion(a, HALF, eigen_decompose(toric_euf().idempotent(1)))

    def test_fusion_with_the_decomposition_of_another_axis(self):
        tg = universal_2gen(HALF, Fraction(1, 8))
        with pytest.raises(NotAnAxis):
            check_fusion(tg.axes[0], HALF, eigen_decompose(tg.axes[1]))

    def test_miyamoto_map_of_a_foreign_element(self):
        tau = miyamoto(universal_2gen(HALF, Fraction(1, 8)).axes[0], HALF)
        toric = toric_euf()
        assert toric.algebra.dim == tau.matrix.ncols
        with pytest.raises(AlgebraMismatch):
            tau.apply(toric.idempotent(1))

    def test_subalgebra_coordinates_of_a_foreign_element(self):
        B = generate_subalgebra(list(universal_2gen(HALF, Fraction(1, 8)).axes[:2]))
        e = toric_euf().idempotent(1)
        with pytest.raises(AlgebraMismatch):
            B.coords(e)
        with pytest.raises(AlgebraMismatch):
            B.contains(e)

    def test_solid_audit_of_a_foreign_algebra(self):
        tg = universal_2gen(HALF, Fraction(1, 8))
        with pytest.raises(AlgebraMismatch):
            solid_audit(toric_euf().algebra, tg.axes[0], tg.axes[1], tg.form, HALF)

    def test_equal_algebras_built_apart_are_accepted(self):
        tg, other = universal_2gen(HALF, Fraction(1, 8)), universal_2gen(HALF, Fraction(1, 8))
        a, b = other.axes[0], other.axes[1]
        assert check_fusion(tg.axes[0], HALF, eigen_decompose(a)).all_jordan
        assert miyamoto(tg.axes[0], HALF).apply(b) == miyamoto(a, HALF).apply(b)
        assert generate_subalgebra(list(tg.axes[:2])).contains(b)
        assert solid_audit(tg.algebra, a, b, tg.form, HALF).verdict == \
            solid_audit(other.algebra, a, b, other.form, HALF).verdict
