"""Built-in algebra factories.

Each factory certifies its own output before returning it: generators are
run through the axis checker (primitivity and the Jordan fusion verdicts),
and the advertised bilinear form is solved, not hard-coded, wherever the
normalization determines it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .algebra import Algebra
from .axes import check_axis, is_idempotent
from .errors import BadLambda, InvalidTripleSystem, SelfCheckFailed
from .fields import QQ, RationalFunctions
from .frobenius import BilinearForm, solve_frobenius
from .linalg import Matrix, lifted_one

__all__ = [
    "TwoGen",
    "universal_2gen",
    "ToricAlgebra",
    "toric_euf",
    "TripleSystem",
    "MatsuoAlgebra",
    "matsuo_from_triple_system",
    "jordan_symmetric_matrices",
    "trace_form",
]


# ---------------------------------------------------------------------------
# 2-generated universal algebra on (a, b, sigma)
# ---------------------------------------------------------------------------


@dataclass
class TwoGen:
    algebra: Algebra
    axes: tuple
    form: BilinearForm
    lam: object
    pi: object  # the solved form value (a, b)
    gamma: object
    flat_annihilating: bool = False

    @property
    def sigma(self):
        return self.algebra.basis_element(2)


def sigma_algebra(field, lam, gamma):
    """The algebra on (a, b, sigma) with a^2 = a, b^2 = b, ab = lam a + lam b
    + sigma, and sigma scaling a, b and itself by gamma."""
    zero, one = field.zero, field.one
    st = [[(one, zero, zero), (lam, lam, one), (gamma, zero, zero)],
          [(lam, lam, one), (zero, one, zero), (zero, gamma, zero)],
          [(gamma, zero, zero), (zero, gamma, zero), (zero, zero, gamma)]]
    return Algebra(field, ["a", "b", "s"], st)


def universal_2gen(lam, pi, field=QQ, flat_annihilating=False):
    """The 3-dimensional algebra on a, b and sigma = ab - lam a - lam b.

    Products: a^2 = a, b^2 = b, ab = sigma + lam(a+b), and sigma scales a, b
    and itself by gamma = (1-lam) pi - lam.  The solved normal form has
    (a,a) = (b,b) = 1 and (a,b) = pi.

    With flat_annihilating=True (pi argument must be 0) sigma instead
    multiplies everything to zero.  That variant admits no normal form with
    (a,b) = 0: associativity gives (ab, a) = (a, b) while (sigma, a) = 0
    forces (ab, a) = 1/2 + (a,b)/2, so (a,b) = 1.  The form is therefore
    solved with the diagonal normalization only and the record's pi carries
    the solved value.

    Both generators must certify as primitive axes of Jordan type; for
    lam != 1/2 that forces pi = lam/2 (annihilating variant: lam = -1), and
    the constructor says so when the self-check trips.
    """
    lam = _coerce(field, lam)
    pi = _coerce(field, pi)
    zero, one = field.zero, field.one
    if lam == zero or lam == one:
        raise BadLambda("lam must avoid 0 and 1")
    if flat_annihilating:
        if pi:
            raise BadLambda("the annihilating variant is only defined for the flat case pi = 0")
        gamma = zero
    else:
        gamma = (one - lam) * pi - lam

    A = sigma_algebra(field, lam, gamma)
    a, b = A.basis_element(0), A.basis_element(1)

    if flat_annihilating:
        sol = solve_frobenius(A, [(a, one), (b, one)])
        if sol.particular is None or sol.homogeneous_basis:
            raise SelfCheckFailed("annihilating variant has no unique normal form")
        form = sol.particular
        pi = form.value(a, b)
    else:
        sol = solve_frobenius(A, [(a, one), (b, one), (a + b, field.from_int(2) + pi + pi)])
        if sol.particular is None:
            raise SelfCheckFailed("no normal form with (a,a)=(b,b)=1, (a,b)=pi exists")
        form = sol.particular
        if form.value(a, b) != pi:
            raise SelfCheckFailed("solved form does not realize (a,b) = pi")

    for gen in (a, b):
        rep = check_axis(gen, lam)
        if not rep.is_primitive_jordan_axis:
            raise SelfCheckFailed(
                "generator fails primitive Jordan-type certification; for lam != 1/2 "
                "only pi = lam/2 satisfies the lam-square fusion rule"
            )
    return TwoGen(algebra=A, axes=(a, b), form=form, lam=lam, pi=pi, gamma=gamma,
                  flat_annihilating=flat_annihilating)


def _coerce(field, value):
    if isinstance(value, (int, Fraction)):
        return field.from_fraction(Fraction(value))
    return value


# ---------------------------------------------------------------------------
# toric algebra on (e, u, f)
# ---------------------------------------------------------------------------


@dataclass
class ToricAlgebra:
    algebra: Algebra
    form: BilinearForm

    @property
    def e(self):
        return self.algebra.basis_element(0)

    @property
    def u(self):
        return self.algebra.basis_element(1)

    @property
    def f(self):
        return self.algebra.basis_element(2)

    def idempotent(self, eps):
        """eps*e + (1/eps)*f + u/2; a nontrivial idempotent for every eps != 0."""
        field = self.algebra.field
        eps = _coerce(field, eps)
        if not eps:
            raise ZeroDivisionError("eps must be invertible")
        half = field.one / field.from_int(2)
        return eps * self.e + (field.one / eps) * self.f + half * self.u

    def symbolic_family(self):
        """The same algebra over Q(eps) together with the generic idempotent."""
        if self.algebra.field != QQ:
            raise ValueError("symbolic family is built over the rational base field")
        Qe = RationalFunctions("eps")
        tor = toric_euf(Qe)
        return tor, tor.idempotent(Qe.variable())


def toric_euf(field=QQ):
    """Base {e, u, f}: u the unit, e^2 = f^2 = 0, ef = u/8, with the form
    (e,f) = 1/4, (u,u) = 2 and all other basis values 0."""
    z = field.zero
    one = field.one
    eighth = one / field.from_int(8)
    quarter = one / field.from_int(4)
    two = field.from_int(2)
    st = [[None] * 3 for _ in range(3)]
    st[0][0] = (z, z, z)
    st[2][2] = (z, z, z)
    st[0][2] = st[2][0] = (z, eighth, z)
    st[1][1] = (z, one, z)
    st[0][1] = st[1][0] = (one, z, z)
    st[1][2] = st[2][1] = (z, z, one)
    A = Algebra(field, ["e", "u", "f"], st)
    gram = Matrix(field, [[z, z, quarter], [z, two, z], [quarter, z, z]])
    tor = ToricAlgebra(algebra=A, form=BilinearForm(A, gram))
    if not is_idempotent(tor.idempotent(field.one)):
        raise SelfCheckFailed("family member at eps = 1 is not idempotent")  # unreachable
    return tor


# ---------------------------------------------------------------------------
# Matsuo algebras from partial triple systems
# ---------------------------------------------------------------------------


@dataclass
class TripleSystem:
    """A partial linear space whose lines all have 3 points."""

    points: list
    lines: list

    def __post_init__(self):
        if len(set(self.points)) != len(self.points):
            raise InvalidTripleSystem("duplicate point names")
        pset = set(self.points)
        seen_pairs = {}
        norm_lines = []
        for line in self.lines:
            pts = list(line)
            if len(pts) != 3 or len(set(pts)) != 3:
                raise InvalidTripleSystem(f"line {line!r} must have 3 distinct points")
            for p in pts:
                if p not in pset:
                    raise InvalidTripleSystem(f"line point {p!r} is not a declared point")
            key = frozenset(pts)
            for pair in combinations(sorted(pts), 2):
                if pair in seen_pairs and seen_pairs[pair] != key:
                    raise InvalidTripleSystem(f"points {pair} lie on two distinct lines")
                seen_pairs[pair] = key
            if key not in norm_lines:
                norm_lines.append(key)
        self.lines = norm_lines
        self._third = {}
        for line in norm_lines:
            pts = sorted(line)
            for p, q in combinations(pts, 2):
                (r,) = line - {p, q}
                self._third[(p, q)] = r
                self._third[(q, p)] = r

    def third_point(self, p, q):
        return self._third.get((p, q))

    def collinear(self, p, q):
        return (p, q) in self._third


@dataclass
class MatsuoAlgebra:
    algebra: Algebra
    axes: list
    form: BilinearForm
    triple_system: TripleSystem
    lam: object


def matsuo_from_triple_system(ts, lam, field=QQ):
    """Point-basis algebra with p^2 = p, pq = (lam/2)(p + q - r) on lines
    {p, q, r}, and pq = 0 for non-collinear pairs.

    Self-checks: every point is a primitive axis of Jordan type lam, every
    Miyamoto map permutes the points realizing the third-point rule, and the
    solved normal form has (p,q) = lam/2 on collinear pairs and 0 otherwise.
    check_axis certifies one point per orbit of the group generated by the
    line-preserving point involutions; every other point, with its Miyamoto
    map, is transported from it along that group, which is exact (see
    _miyamoto_permutations).
    """
    lam = _coerce(field, lam)
    zero, one = field.zero, field.one
    if lam == zero or lam == one:
        raise BadLambda("lam must avoid 0 and 1")
    if not isinstance(ts, TripleSystem):
        ts = TripleSystem(points=list(ts[0]), lines=list(ts[1]))
    n = len(ts.points)
    index = {p: i for i, p in enumerate(ts.points)}
    half_lam = lam / field.from_int(2)

    def coeffs(pairs):
        v = [zero] * n
        for p, c in pairs:
            v[index[p]] = v[index[p]] + c
        return tuple(v)

    st = [[None] * n for _ in range(n)]
    for i, p in enumerate(ts.points):
        for j, q in enumerate(ts.points):
            if i == j:
                st[i][j] = coeffs([(p, one)])
            elif ts.collinear(p, q):
                r = ts.third_point(p, q)
                st[i][j] = coeffs([(p, half_lam), (q, half_lam), (r, -half_lam)])
            else:
                st[i][j] = coeffs([])
    A = Algebra(field, list(ts.points), st)
    axes = A.basis()

    sol = solve_frobenius(A, [(ax, one) for ax in axes])
    if sol.particular is None:
        raise SelfCheckFailed("no normal form on the Matsuo algebra")
    form = sol.particular
    g = form.gram.rows  # the axes are the basis, so (p, q) is a Gram entry
    for i, p in enumerate(ts.points):
        for j, q in enumerate(ts.points):
            if i >= j:
                continue
            expect = half_lam if ts.collinear(p, q) else zero
            if g[i][j] != expect:
                raise SelfCheckFailed(f"form value ({p},{q}) != {'lam/2' if expect else '0'}")

    _miyamoto_permutations(ts, axes, lam)
    return MatsuoAlgebra(algebra=A, axes=axes, form=form, triple_system=ts, lam=lam)


def _miyamoto_permutations(ts, axes, lam):
    """For each point x, the permutation of point indices that its Miyamoto
    map tau_x induces; the point axes are the basis, so that is tau_x.
    Raises SelfCheckFailed unless every point is a primitive axis of Jordan
    type lam whose tau_x is the involution sigma_x that swaps the other two
    points of each line through x and fixes the points off those lines.

    check_axis runs once per orbit of the group generated by the sigma_x
    that map lines to lines.  Such a point permutation g is an automorphism
    of A, so it carries a certified axis q to an axis g(q) with the same
    verdicts, and tau_{g(q)} = g tau_q g = g sigma_q g = sigma_{g(q)}.  A
    point that no orbit found so far reaches gets its own check, and its
    tau_p must permute the points.
    """
    points = ts.points
    index = {p: i for i, p in enumerate(points)}
    sigmas = []
    for x in points:
        sigma = list(range(len(points)))
        for q in points:
            r = ts.third_point(x, q)
            if r is not None:
                sigma[index[q]] = index[r]
        sigmas.append(tuple(sigma))
    lines = {frozenset(index[p] for p in line) for line in ts.lines}
    automorphisms = [s for s in sigmas if all(frozenset(s[i] for i in line) in lines for line in lines)]
    by_coeffs = {ax.coeffs: i for i, ax in enumerate(axes)}
    certified = [False] * len(axes)
    for start, p in enumerate(points):
        if certified[start]:
            continue
        rep = check_axis(axes[start], lam)
        if not rep.is_primitive_jordan_axis:
            raise SelfCheckFailed(f"point {p} is not a primitive Jordan-type axis")
        images = [by_coeffs.get(rep.miyamoto.apply(b).coeffs) for b in axes]
        if None in images:
            raise SelfCheckFailed(f"tau_{p} does not permute the point set")
        for j, q in enumerate(points):
            if j != start and images[j] != sigmas[start][j]:
                if ts.collinear(p, q):
                    raise SelfCheckFailed(f"tau_{p}({q}) is not the third point of the line")
                raise SelfCheckFailed(f"tau_{p} moves the non-collinear point {q}")
        certified[start] = True
        orbit = [start]
        for q in orbit:  # grows while it is read
            for s in automorphisms:
                if not certified[s[q]]:
                    certified[s[q]] = True
                    orbit.append(s[q])
    return sigmas


# ---------------------------------------------------------------------------
# symmetric-matrix Jordan algebra (the non-Matsuo control)
# ---------------------------------------------------------------------------


def jordan_symmetric_matrices(k, field=QQ):
    """Symmetric k x k matrices under x o y = (xy + yx)/2, by structure
    constants on the basis E11..Ekk, F12.., with Fij = Eij + Eji.  Each
    product of basis members is the integer matrix xy + yx of their 0/1
    matrices, whose entries 0, 1 and 2 are the coefficients 0, 1/2 and 1
    of x o y.

    Construction-time check: unit present, Jordan identity on all basis
    pairs (the full multilinear verification lives in the test suite).
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    pairs = [(i, i) for i in range(k)] + [(i, j) for i in range(k) for j in range(i + 1, k)]
    names = [f"{'E' if i == j else 'F'}{i + 1}{j + 1}" for i, j in pairs]
    cells = [{(i, j), (j, i)} for i, j in pairs]  # the 1s of each basis matrix
    index = {ij: m for m, ij in enumerate(pairs)}
    value = {1: field.one / field.from_int(2), 2: field.one}
    n = len(pairs)
    structure = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            count = {}  # xy + yx, read off its upper triangle since symmetric
            for x, y in ((cells[a], cells[b]), (cells[b], cells[a])):
                for r, c in x:
                    for c2, c3 in y:
                        if c == c2:
                            count[r, c3] = count.get((r, c3), 0) + 1
            coeffs = [field.zero] * n
            for cell, m in count.items():
                if cell in index:
                    coeffs[index[cell]] = value[m]
            structure[a][b] = structure[b][a] = tuple(coeffs)
    A = Algebra(field, names, structure)

    unit = A.unit()
    if unit is None:
        raise SelfCheckFailed("matrix Jordan algebra lost its unit")
    if _check_jordan(A) is not None:
        raise SelfCheckFailed("Jordan identity fails on a basis pair")
    return A


def _check_jordan(A):
    """The first basis pair (i, j), in row order, with ((b_i b_i) b_j) b_i
    != (b_i b_i)(b_j b_i), or None.  Both sides are lifted products of
    basis lifts over the cube of the grid's denominator, so the lifts
    compare directly."""
    times = A.lifted_product
    one = lifted_one(A.field)
    basis = [([(i, one)], one) for i in range(A.dim)]
    for i, x in enumerate(basis):
        xx = times(x, x)
        for j, y in enumerate(basis):
            if times(times(xx, y), x) != times(xx, times(y, x)):
                return i, j
    return None


def trace_form(A):
    """The trace bilinear form of a matrix-backed algebra, solved from
    normalization at the diagonal idempotents.

    For jordan_symmetric_matrices this reproduces tr(x o y): the solved
    associative form with (Eii, Eii) = 1 is unique.
    """
    diag = [A.basis_element(i) for i, name in enumerate(A.basis_names) if name.startswith("E")]
    sol = solve_frobenius(A, [(d, A.field.one) for d in diag])
    if sol.particular is None or sol.homogeneous_basis:
        raise SelfCheckFailed("trace form is not uniquely determined")
    return sol.particular
