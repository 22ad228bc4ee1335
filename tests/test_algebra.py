import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from axial import (
    QQ,
    Algebra,
    generate_subalgebra,
    jordan_symmetric_matrices,
    make_algebra,
    matsuo_from_triple_system,
    toric_euf,
)
from axial.errors import AlgebraMismatch, AsymmetricStructure, DimensionMismatch
from axial.linalg import Matrix

from test_linalg import F7, FIELD_VALUES, QT, reference_solve

HALF = Fraction(1, 2)


def field_as_algebra():
    return make_algebra(QQ, 1, ["b"], [[[Fraction(1)]]])


class TestMakeAlgebra:
    def test_one_dimensional(self):
        A = field_as_algebra()
        b = A.basis_element(0)
        assert b * b == b

    def test_toric_table(self, toric):
        A = toric.algebra
        e, u, f = A.basis()
        assert (e * e).is_zero() and (f * f).is_zero()
        assert e * f == HALF / 4 * u  # ef = u/8
        for x in A.basis():
            assert u * x == x

    def test_asymmetric_rejected(self):
        z, o = Fraction(0), Fraction(1)
        structure = [
            [[o, z], [o, z]],
            [[z, o], [z, o]],
        ]
        with pytest.raises(AsymmetricStructure):
            make_algebra(QQ, 2, ["a", "b"], structure)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            make_algebra(QQ, 2, ["a"], [[[Fraction(1)]]])


class TestElements:
    def test_commutativity_exhaustive(self, mats3c, toric):
        for A in (mats3c.algebra, toric.algebra):
            for x in A.basis():
                for y in A.basis():
                    assert x * y == y * x

    def test_zero_annihilates(self, toric):
        A = toric.algebra
        x = A.element([Fraction(2), Fraction(-1, 3), Fraction(5)])
        assert (x * A.zero()).is_zero()

    def test_matsuo_product(self, mats3c):
        a, b, c = mats3c.axes
        assert a * b == Fraction(1, 4) * (a + b - c)

    def test_mismatch(self, mats3c, toric):
        with pytest.raises(AlgebraMismatch):
            mats3c.axes[0] * toric.e


class TestLeftMultiplication:
    def test_zero(self, mats3c):
        assert mats3c.algebra.zero().left_multiplication_matrix().is_zero()

    def test_unit_is_identity(self, toric):
        A = toric.algebra
        m = toric.u.left_multiplication_matrix()
        from axial.linalg import Matrix

        assert m == Matrix.identity(QQ, 3)

    def test_3c_column(self, mats3c):
        m = mats3c.axes[0].left_multiplication_matrix()
        assert m.column(1) == [Fraction(1, 4), Fraction(1, 4), Fraction(-1, 4)]

    def test_linearity(self, mats3c):
        A = mats3c.algebra
        rng = random.Random(11)

        def rand_elem():
            return A.element([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)])

        for _ in range(20):
            x, y = rand_elem(), rand_elem()
            al = Fraction(rng.randint(-3, 3))
            be = Fraction(rng.randint(-3, 3))
            lhs = (al * x + be * y).left_multiplication_matrix()
            rhs = x.left_multiplication_matrix().scaled(al) + y.left_multiplication_matrix().scaled(be)
            assert lhs == rhs


class TestGenerateSubalgebra:
    def test_primitive_idempotent_span(self, mats3c):
        sub = generate_subalgebra([mats3c.axes[0]])
        assert sub.dim == 1

    def test_toric_pair_three_dimensional(self, toric):
        # 2-generated spans words of length <= 2: a, b, ab
        sub = generate_subalgebra([toric.idempotent(1), toric.idempotent(2)])
        assert sub.dim == 3
        assert [len(str(w)) >= 1 for w in sub.words]
        assert sub.words[:2] == [0, 1] and sub.words[2] == (0, 1)

    def test_3c_pair_full(self, mats3c):
        a, b, _ = mats3c.axes
        sub = generate_subalgebra([a, b])
        assert sub.dim == 3

    def test_degenerate_generators(self, mats3c):
        A = mats3c.algebra
        a = mats3c.axes[0]
        sub = generate_subalgebra([A.zero(), a, a])
        assert sub.dim == 1

    def test_closure_and_induced_consistency(self, mats3c, toric):
        for gens in ([mats3c.axes[0], mats3c.axes[1]], [toric.idempotent(1), toric.idempotent(3)]):
            sub = generate_subalgebra(gens)
            ind = sub.induced
            for i, u in enumerate(sub.basis):
                for j, v in enumerate(sub.basis):
                    prod = u * v
                    assert sub.contains(prod)
                    # induced constants reproduce the parent product
                    emb = sub.embed(ind.basis_element(i) * ind.basis_element(j))
                    assert emb == prod

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            generate_subalgebra([])

    def test_each_product_made_once(self, monkeypatch, mats3c, toric, s4):
        # n(n+1)/2 lifted products for a subalgebra of dimension n, and no
        # Element product, with zero and duplicate generators among the inputs
        calls = {"lifted": 0, "product": 0}
        lifted, product = Algebra.lifted_product, Algebra.product

        def counting(name, method):
            def wrapper(self, *args):
                calls[name] += 1
                return method(self, *args)
            return wrapper

        monkeypatch.setattr(Algebra, "lifted_product", counting("lifted", lifted))
        monkeypatch.setattr(Algebra, "product", counting("product", product))
        a, b, c = mats3c.axes
        zero = mats3c.algebra.zero()
        for gens in ([zero], [a], [zero, a, a], [a, b, a + b], [toric.idempotent(1), toric.idempotent(2)],
                     [s4.axes[0], s4.axes[5], s4.axes[1]], [s4.algebra.zero(), *s4.axes, s4.axes[0]]):
            calls["lifted"] = 0
            n = generate_subalgebra(gens).dim
            assert calls["lifted"] == n * (n + 1) // 2
        assert calls["product"] == 0


class TestUnit:
    def test_toric_unit(self, toric):
        assert toric.algebra.unit() == toric.u

    def test_3c_unit(self, mats3c):
        # 3C(1/2) is unital with unit 2(a+b+c)/3
        a, b, c = mats3c.axes
        assert mats3c.algebra.unit() == Fraction(2, 3) * (a + b + c)

    def test_no_unit(self):
        z = Fraction(0)
        A = make_algebra(QQ, 2, ["x", "y"], [[[z, z], [z, z]], [[z, z], [z, z]]])
        assert A.unit() is None


# ---------------------------------------------------------------------------
# differential test against the k^2 solves that built the induced structure
# and the coordinates before Coordinates
# ---------------------------------------------------------------------------


def reference_induced_structure(field, basis):
    m = Matrix.from_columns(field, [list(b.coeffs) for b in basis])
    return [[tuple(reference_solve(m, list((x * y).coeffs))) for y in basis] for x in basis]


def _3c(field):
    lam = field.one / field.from_int(2)
    return matsuo_from_triple_system((["a", "b", "c"], [["a", "b", "c"]]), lam, field).algebra


@pytest.fixture(scope="module")
def algebras_by_field():
    return {
        "Q": [_3c(QQ), toric_euf(QQ).algebra, jordan_symmetric_matrices(3)],
        "F7": [_3c(F7), toric_euf(F7).algebra],
        "Qt": [_3c(QT), toric_euf(QT).algebra],
    }


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_subalgebra_against_reference(algebras_by_field, data):
    kind = data.draw(st.sampled_from(sorted(algebras_by_field)))
    A = data.draw(st.sampled_from(algebras_by_field[kind]))
    elements = st.lists(FIELD_VALUES[kind], min_size=A.dim, max_size=A.dim).map(A.element)
    gens = data.draw(st.lists(elements, min_size=1, max_size=2))
    assume(not all(g.is_zero() for g in gens))
    sub = generate_subalgebra(gens)
    assert sub.induced.structure == reference_induced_structure(A.field, sub.basis)
    basis_m = Matrix.from_columns(A.field, [list(b.coeffs) for b in sub.basis])
    # a random element is mostly outside a proper subalgebra
    for t in (data.draw(elements), gens[0] * gens[-1] + sub.basis[-1], *A.basis()):
        ref = reference_solve(basis_m, list(t.coeffs))
        got = sub.coords(t)
        assert (None if got is None else list(got.coeffs)) == ref
        assert sub.contains(t) is (ref is not None)


# ---------------------------------------------------------------------------
# differential test of Algebra.product, which reads the sparse table, against
# the dense triple loop over the structure grid
# ---------------------------------------------------------------------------


def reference_product(A, x, y):
    out = [A.field.zero] * A.dim
    for i in range(A.dim):
        for j in range(A.dim):
            for k in range(A.dim):
                out[k] = out[k] + x[i] * y[j] * A.structure[i][j][k]
    return tuple(out)


@pytest.fixture(scope="module")
def product_algebras():
    # each has coefficient-1 entries beside others
    return {kind: [_3c(field), toric_euf(field).algebra, jordan_symmetric_matrices(3, field)]
            for kind, field in (("Q", QQ), ("F7", F7), ("Qt", QT))}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_product_against_reference(product_algebras, data):
    kind = data.draw(st.sampled_from(sorted(product_algebras)))
    A = data.draw(st.sampled_from(product_algebras[kind]))
    elements = st.lists(FIELD_VALUES[kind], min_size=A.dim, max_size=A.dim)
    x, y = data.draw(elements), data.draw(elements)
    assert A.product(x, y) == reference_product(A, x, y)
    assert A.product(x, y) == A.product(y, x)
