from fractions import Fraction

import pytest

from axial import (
    QQ,
    Algebra,
    jordan_symmetric_matrices,
    matsuo_from_triple_system,
    toric_euf,
    trace_form,
    universal_2gen,
)

HALF = Fraction(1, 2)


@pytest.fixture(scope="session")
def mats3c():
    """3C(1/2): one line {a, b, c}."""
    return matsuo_from_triple_system((["a", "b", "c"], [["a", "b", "c"]]), HALF)


@pytest.fixture(scope="session")
def toric():
    return toric_euf()


@pytest.fixture(scope="session")
def s4():
    """The Matsuo algebra of the six transpositions of S_4 at 1/2."""
    points = ["12", "13", "14", "23", "24", "34"]
    lines = [["12", "13", "23"], ["12", "14", "24"], ["13", "14", "34"], ["23", "24", "34"]]
    return matsuo_from_triple_system((points, lines), HALF)


@pytest.fixture(scope="session")
def h3():
    """(H3(Q), trace form)."""
    A = jordan_symmetric_matrices(3)
    return A, trace_form(A)


@pytest.fixture(scope="session")
def h3_pair(h3):
    """The classical non-Matsuo pair: a = E11, b = (E11 + E22 + F12)/2."""
    A, form = h3
    a = A.basis_element(0)
    b = A.element([HALF, HALF, 0, HALF, 0, 0])
    return A, form, a, b


def twogen(pi, lam=HALF, **kw):
    return universal_2gen(lam, Fraction(pi), **kw)


def direct_sum(A, B):
    """Block-diagonal direct sum; used to build spectra with |S| = 2."""
    field = A.field
    assert field == B.field
    n, m = A.dim, B.dim
    names = [f"L.{s}" for s in A.basis_names] + [f"R.{s}" for s in B.basis_names]
    zero = field.zero

    def cell(i, j):
        out = [zero] * (n + m)
        if i < n and j < n:
            for k, c in enumerate(A.structure[i][j]):
                out[k] = c
        elif i >= n and j >= n:
            for k, c in enumerate(B.structure[i - n][j - n]):
                out[n + k] = c
        return tuple(out)

    structure = [[cell(i, j) for j in range(n + m)] for i in range(n + m)]
    return Algebra(field, names, structure)
