"""Certification machinery for a single idempotent.

The central object is the left-multiplication operator L_a of a candidate
idempotent a.  An axis of type lam is an idempotent whose L_a is annihilated
by x(x-1)(x-lam), equivalently whose eigenspaces for {0, 1, lam} decompose
the algebra.  Beside the fusion verdicts, one rule on the certified spectrum
{0, 1} + S gives the annihilator prod (x - mu), the components l_mu(L_a) y for
the Lagrange basis polynomials l_mu, and tau_a = 1 - 2*l_lam(L_a).

One certification builds L_a once: ``EigenData`` carries it to the
spectrum tests, the Miyamoto map and the fusion verdicts.  Polynomials in
L_a are evaluated by Horner's rule on its lifted entries (``linalg``'s
``lift_rows``), and the annihilator, tau_a and the products of the fusion
and Seress checks are tested on lifted entries too; only tau_a is read back
into field values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield

from .algebra import Algebra, Element, require_same_algebra
from .errors import (
    BadLambda,
    DimensionMismatch,
    IncompleteDecomposition,
    NotAnAxis,
    NotIdempotent,
    OrbitOverflow,
    SingularVandermonde,
)
from .linalg import (Echelon, Matrix, _multiply_lifted, apply_lifted, lift_rows, lift_sparse,
                     lifted_one, lifted_zero, minimal_polynomial, read_lifted, same_lift, sparse_entries)
from .fields import _horner

__all__ = [
    "EigenData",
    "FusionVerdicts",
    "AxisReport",
    "MiyamotoMap",
    "is_idempotent",
    "eigen_decompose",
    "check_axis",
    "check_fusion",
    "component_recovery",
    "miyamoto",
    "axis_orbit",
    "seress_check",
    "infer_lambda",
]


def is_idempotent(x):
    """x * x == x, tested on the lift of x by ``Algebra.is_idempotent_lift``."""
    A = x.algebra
    return A.is_idempotent_lift(lift_sparse(A.field, x.coeffs))


@dataclass
class EigenData:
    axis: Element
    eigenvalues: list
    eigenspaces: dict
    complete: bool
    operator: Matrix = dfield(repr=False)  # L_a

    def space(self, mu):
        return self.eigenspaces.get(mu, [])

    def space_01(self):
        field = self.axis.algebra.field
        return self.space(field.zero) + self.space(field.one)

    def dim_of(self, mu):
        return len(self.eigenspaces.get(mu, []))


def eigen_decompose(a):
    """Eigenvalues of L_a lying in the field, with exact eigenspace bases.

    The eigenvalues are the in-field roots of the minimal polynomial of L_a;
    complete is set when the eigenspace dimensions sum to dim A.
    """
    if not is_idempotent(a):
        raise NotIdempotent("eigen decomposition requires an idempotent")
    return _decompose(a, a.left_multiplication_matrix())


def _decompose(a, L):
    """``eigen_decompose`` of the idempotent a with L = L_a."""
    A = a.algebra
    roots = A.field.poly_roots(list(minimal_polynomial(L)))
    spaces = {}
    for mu in roots:  # A_mu is the kernel of L - mu
        shifted = [[x - mu if i == j else x for j, x in enumerate(row)] for i, row in enumerate(L.rows)]
        spaces[mu] = [A.element(v) for v in Matrix._wrap(A.field, shifted).kernel()]
    total = sum(len(basis) for basis in spaces.values())
    return EigenData(axis=a, eigenvalues=roots, eigenspaces=spaces, complete=(total == A.dim), operator=L)


@dataclass
class FusionVerdicts:
    a01_subalgebra: bool
    module_rule: bool
    pre_jordan: bool
    jordan_a0: bool

    @property
    def all_jordan(self):
        return self.a01_subalgebra and self.module_rule and self.pre_jordan and self.jordan_a0

    @property
    def all_pre_jordan(self):
        return self.a01_subalgebra and self.module_rule and self.pre_jordan


@dataclass
class AxisReport:
    element: Element
    lam: object
    is_idempotent: bool
    spectrum: tuple = ()
    semisimple: bool = False
    is_axis: bool = False
    primitive: bool = False
    ax1_holds: bool = False
    fusion: FusionVerdicts | None = None
    eigen: EigenData | None = dfield(default=None, repr=False)
    miyamoto: MiyamotoMap | None = dfield(default=None, repr=False)

    @property
    def miyamoto_is_automorphism(self):
        return None if self.miyamoto is None else self.miyamoto.is_automorphism

    @property
    def is_jordan_axis(self):
        return self.is_axis and self.fusion is not None and self.fusion.all_jordan

    @property
    def is_primitive_jordan_axis(self):
        return self.is_jordan_axis and self.primitive


def check_axis(a, lam):
    """Full certification record for the candidate a at target eigenvalue lam.

    The annihilator route (x(x-1)(x-lam) vanishes at L_a) and the
    minimal-polynomial route must agree; this is asserted, not assumed.  The
    monic minimal polynomial mp divides x(x-1)(x-lam) exactly when deg mp of
    0, 1 and lam are roots of it.  Then mp is squarefree (semisimple) too;
    otherwise it is exactly when its Sylvester matrix with its derivative is
    nonsingular.
    """
    field = a.algebra.field
    _require_lambda(field, lam)
    if not is_idempotent(a):
        return AxisReport(element=a, lam=lam, is_idempotent=False)
    L = a.left_multiplication_matrix()
    eigen = _decompose(a, L)
    mp = minimal_polynomial(L)
    nodes = [field.zero, field.one, lam]
    divides = _divides_root_poly(mp, nodes)
    # a divisor of a product of distinct linear factors is squarefree
    semisimple = divides or _is_squarefree(field, mp)
    ax1 = not any(any(row) for row in _poly_at(_root_poly(field, nodes), L)[0])
    assert ax1 == divides, "annihilator and minimal-polynomial routes disagree"

    is_axis = divides and eigen.complete
    primitive = is_axis and eigen.dim_of(field.one) == 1
    tau = miyamoto(a, lam, _eigen=eigen) if is_axis else None
    return AxisReport(
        element=a, lam=lam, is_idempotent=True,
        spectrum=tuple(eigen.eigenvalues), semisimple=semisimple,
        is_axis=is_axis, primitive=primitive, ax1_holds=ax1,
        fusion=None if tau is None else tau.fusion, eigen=eigen, miyamoto=tau,
    )


def check_fusion(a, lam, eigen=None):
    """Fusion verdicts by multiplication of eigenspace bases.

    (a) A01 closed, (b) A01 * A_lam in A_lam, (c) A_lam * A_lam in A01,
    (d) A0 * A0 in A0.  Membership is exact reduction against one echelon
    basis per target eigenspace.  a*u = mu*u for u in A_mu, so when A_1 is
    spanned by a alone, products with it obey every rule and are skipped.
    Each basis member is lifted once, enters its echelons as that lift and
    multiplies as it, and each product enters its echelon as lifted entries.
    """
    A = a.algebra
    field = A.field
    _require_lambda(field, lam)
    if eigen is None:
        eigen = eigen_decompose(a)
    require_same_algebra(A, eigen.axis.algebra, "decomposition belongs to a different algebra")
    if eigen.axis.coeffs != a.coeffs:
        raise NotAnAxis("decomposition is of another element")
    allowed = {field.zero, field.one, lam}
    if not eigen.complete or any(mu not in allowed for mu in eigen.eigenvalues):
        raise IncompleteDecomposition(
            "fusion check requires a complete decomposition with spectrum in {0, 1, lam}"
        )
    a0, a1, alam = ([lift_sparse(field, v.coeffs) for v in eigen.space(mu)]
                    for mu in (field.zero, field.one, lam))
    in01, in_lam, in0 = Echelon(field), Echelon(field), Echelon(field)
    for ech, span in ((in01, a0 + a1), (in_lam, alam), (in0, a0)):
        for v, _d in span:
            ech.add_integers(v)
    a1_checked = a1 if len(a1) > 1 else []

    def contained(pairs, ech):
        return all(ech.contains_integers(A.lifted_product(u, v)[0]) for u, v in pairs)

    sq0 = [(u, v) for i, u in enumerate(a0) for v in a0[i:]]
    closed_01 = contained(
        sq0 + [(u, v) for i, u in enumerate(a1_checked) for v in a0 + a1_checked[i:]], in01)
    module_rule = contained([(u, w) for u in a0 + a1_checked for w in alam], in_lam)
    pre_jordan = contained([(w, x) for i, w in enumerate(alam) for x in alam[i:]], in01)
    jordan_a0 = contained(sq0, in0)
    return FusionVerdicts(closed_01, module_rule, pre_jordan, jordan_a0)


def _require_axis(a, eigenvalues_s, eigen=None):
    """a must be idempotent with minimal polynomial dividing x(x-1)*prod(x-mu);
    returns L_a.  A decomposition eigen of a stands for the idempotency test
    and brings L_a."""
    if eigen is None:
        if not is_idempotent(a):
            raise NotAnAxis("not an idempotent")
        L = a.left_multiplication_matrix()
    else:
        L = eigen.operator
    field = a.algebra.field
    if not _divides_root_poly(minimal_polynomial(L), [field.zero, field.one, *eigenvalues_s]):
        raise NotAnAxis("operator is not annihilated by the expected spectrum polynomial")
    return L


def _require_lambda(field, lam):
    if lam == field.zero or lam == field.one:
        raise BadLambda("the axis eigenvalue must avoid 0 and 1")


def _divides_root_poly(mp, nodes):
    """Does the monic mp divide prod (x - r) over the distinct nodes?  It
    does exactly when deg mp of them are roots of mp."""
    return sum(1 for r in set(nodes) if not _horner(mp, r)) == len(mp) - 1


def _is_squarefree(field, mp):
    """Is the monic mp squarefree?  Exactly when its Sylvester matrix with
    its derivative of formal degree deg mp - 1, of size 2 deg mp - 1, is
    nonsingular: gcd(mp, mp') = 1.  Over F_p too, where mp' may drop in
    degree or vanish, as F_p is perfect."""
    d = len(mp) - 1
    deriv = [i * c for i, c in enumerate(mp)][1:]
    zero = field.zero
    rows = [[zero] * i + list(mp) + [zero] * (d - 2 - i) for i in range(d - 1)]
    rows += [[zero] * i + deriv + [zero] * (d - 1 - i) for i in range(d)]
    return bool(Matrix(field, rows).det())


def _root_poly(field, roots):
    """Coefficients of prod (x - r) over the roots, low degree first."""
    poly = [field.one]
    for root in roots:
        out = [field.zero] + poly  # x * poly, less root * poly below
        for i, c in enumerate(poly):
            if c:
                out[i] = out[i] - root * c
        poly = out
    return poly


def _lagrange(field, nodes, mu):
    """Coefficients of l_mu(x) = prod over nu != mu of (x - nu)/(mu - nu)."""
    others = [nu for nu in nodes if nu != mu]
    inv = field.one / math.prod((mu - nu for nu in others), start=field.one)
    return [inv * c for c in _root_poly(field, others)]


def _poly_at(poly, L):
    """poly(L) of degree >= 1 by Horner's rule on lifted entries, with
    deg(poly) - 1 matrix products: ``(rows, s)``, the dense rows of entries
    of s * poly(L), least residues over F_p.

    With L = A / d for the lifted rows A and poly = e / s for the lifted
    coefficients e, the accumulator after k products stands for the
    partial sum times s * d^(k+1), so each coefficient enters the diagonal
    as e_j * d^(k+1).
    """
    field = L.field
    p, n, zero = field.char, L.nrows, lifted_zero(field)
    a, d = lift_rows(field, L.rows)
    e, s = field.integer_lift(poly)
    acc = [[zero] * n for _ in range(n)]
    for i, row in enumerate(a):
        for j, x in row:
            acc[i][j] = e[-1] * x
    scale = d
    for k, c in enumerate(reversed(e[:-1])):
        if k:
            acc = _multiply_lifted(_sparse(acc, p), a, n, zero)
            scale *= d
        if c:
            c *= scale
            for i, row in enumerate(acc):
                row[i] += c
    if p:
        acc = [[x % p for x in row] for row in acc]
    return acc, s * scale


def _sparse(rows, p):
    """Dense rows of lifted entries as the sparse rows of ``lift_rows``."""
    return [sparse_entries(row, p) for row in rows]


@dataclass
class Components:
    y1: Element
    y0: Element
    by_eigenvalue: dict

    def part(self, mu):
        return self.by_eigenvalue[mu]


def component_recovery(a, y, eigenvalues_s):
    """Recover y_1, y_0 and the y_mu for mu in S from powers of L_a.

    y_mu = l_mu(L_a) y, a combination of L_a^j y, j = 1..|S|+1, whose
    coefficients are the rows of the inverse of the Vandermonde matrix (mu^j)
    over mu in {1} + S; for S = {lam}, y_1 = (a(ay) - lam*ay) / (1 - lam) and
    y_lam = (a(ay) - ay) / (lam*(lam - 1)).  y_0 = y - y_1 - sum y_mu.
    """
    S = list(eigenvalues_s)
    field = a.algebra.field
    _check_recovery_spectrum(field, S)
    _require_axis(a, S)
    nodes = [field.zero, field.one, *S]
    powers = [a * y]  # L_a^j y for j = 1..|S|+1
    for _ in S:
        powers.append(a * powers[-1])
    parts, y0 = {}, y
    for mu in nodes[1:]:
        coeffs = _lagrange(field, nodes, mu)  # coeffs[0] = 0: 0 is another node
        part = coeffs[1] * powers[0]
        for c, p in zip(coeffs[2:], powers[1:]):
            part = part + c * p
        parts[mu] = part
        y0 = y0 - part
    return Components(y1=parts.pop(field.one), y0=y0, by_eigenvalue=parts)


def _check_recovery_spectrum(field, S):
    """The Lagrange nodes {0, 1} + S must be distinct."""
    if field.zero in S or field.one in S:
        raise SingularVandermonde("S must avoid the special eigenvalues 0 and 1")
    if len(set(S)) < len(S):
        raise SingularVandermonde("repeated eigenvalue in S")


@dataclass
class MiyamotoMap:
    matrix: Matrix
    axis: Element
    lam: object
    fusion: FusionVerdicts
    _lifted: tuple = dfield(init=False, repr=False, compare=False)

    def __post_init__(self):
        # apply multiplies the ``lift_rows`` lift of matrix, made once here
        self._lifted = lift_rows(self.matrix.field, self.matrix.rows)

    @property
    def is_automorphism(self):
        return self.fusion.all_pre_jordan

    def apply(self, y):
        A = self.axis.algebra
        require_same_algebra(A, y.algebra, "element belongs to a different algebra")
        if len(y.coeffs) != self.matrix.ncols:
            raise DimensionMismatch("vector length differs from column count")
        return A.element(apply_lifted(A.field, *self._lifted, list(y.coeffs)))


def miyamoto(a, lam, _eigen=None):
    """The involution fixing A_{0,1}(a) pointwise and negating A_lam(a).

    Constructed as 1 - 2*l_lam(L_a) with l_lam the Lagrange basis polynomial
    of lam on {0, 1, lam}, so it is exact and basis-free.  The certified axis
    splits A = A_{0,1} + A_lam into the +1 and -1 eigenspaces of tau, and 2
    is invertible in every supported field.  So tau(xy) = tau(x)tau(y) for
    all x, y exactly when that splitting is a Z/2-grading: fusion rules (a)
    A01*A01 <= A01, (b) A01*Alam <= Alam and (c) Alam*Alam <= A01, read from
    the verdicts of check_fusion.  With e * l_lam(L_a) = Q on lifted
    entries, tau = (e - 2Q) / e; tau^2 = 1 is asserted on those entries,
    and tau is read back once.
    """
    A = a.algebra
    field = A.field
    _require_lambda(field, lam)
    L = _require_axis(a, [lam], _eigen)
    eigen = _eigen if _eigen is not None else _decompose(a, L)
    if not eigen.complete:
        raise NotAnAxis("decomposition is not complete")
    T, e = _involution(L, lam)
    assert _is_involution(_sparse(T, field.char), e, field), "Miyamoto map is not an involution"
    matrix = Matrix._wrap(field, [read_lifted(field, row, e) for row in T])
    return MiyamotoMap(matrix=matrix, axis=a, lam=lam, fusion=check_fusion(a, lam, eigen))


def _involution(L, lam):
    """tau = 1 - 2*l_lam(L) for l_lam on {0, 1, lam}, on lifted entries:
    ``(rows, e)``, the dense rows of e * tau, least residues over F_p."""
    field = L.field
    Q, e = _poly_at(_lagrange(field, [field.zero, field.one, lam], lam), L)
    T = [[-2 * x for x in row] for row in Q]
    for i, row in enumerate(T):
        row[i] += e
    if field.char:
        T = [[x % field.char for x in row] for row in T]
    return T, e


def _is_involution(lifted, e, field):
    """Is tau = T / e its own inverse, for the sparse lifted rows of T:
    is T T = e^2 times the identity, mod p over F_p?"""
    p, e2 = field.char, e * e
    for i, row in enumerate(_multiply_lifted(lifted, lifted, len(lifted), lifted_zero(field))):
        for j, x in enumerate(row):
            if i == j:
                x = x - e2
            if x % p if p else x:
                return False
    return True


def axis_orbit(axes, lam, max_size=1000):
    """Closure of the given axes under every member's Miyamoto map.

    Every input must be a certified lam-axis whose Miyamoto map is an
    automorphism; closure members are automorphism images of axes and are
    re-certified as their maps are built.  Raises OrbitOverflow with the
    partial orbit attached once the closure needs more than max_size members.
    """
    if not axes:
        raise ValueError("empty axis list")
    members = []
    keys = set()
    maps = {}
    for a in axes:
        tau = miyamoto(a, lam)
        if not tau.is_automorphism:
            raise NotAnAxis("input Miyamoto map is not an automorphism")
        if a.coeffs not in keys:
            keys.add(a.coeffs)
            members.append(a)
            maps[a.coeffs] = tau
    if len(members) > max_size:
        raise OrbitOverflow(f"more inputs than the cap {max_size}", partial=members)
    changed = True
    while changed:
        changed = False
        for src in list(members):
            if src.coeffs not in maps:
                maps[src.coeffs] = miyamoto(src, lam)
            tau = maps[src.coeffs]
            for y in list(members):
                im = tau.apply(y)
                if im.coeffs not in keys:
                    if len(members) + 1 > max_size:
                        raise OrbitOverflow(
                            f"Miyamoto closure exceeds cap {max_size}; orbit may be infinite",
                            partial=list(members),
                        )
                    keys.add(im.coeffs)
                    members.append(im)
                    changed = True
    return members


def seress_check(a, lam):
    """a(yz) = (ay)z + a(y0 z0) for all basis y and z in A_{0,1}(a), y0 = l_0(L_a) y.

    z runs over the bases of A_0, where z0 = z and the rule reads
    a((y - y0) z) = (ay)z, and of A_1, where z0 = 0 and it reads
    a(yz) = (ay)z.  The products run on lifts.
    """
    A = a.algebra
    field = A.field
    _require_lambda(field, lam)
    L = _require_axis(a, [lam])
    eigen = _decompose(a, L)
    if not eigen.complete:
        raise NotAnAxis("decomposition is not complete")
    P0, e = _poly_at(_lagrange(field, [field.zero, field.one, lam], field.zero), L)
    p, zero, one = field.char, lifted_zero(field), lifted_one(field)
    a_lift = lift_sparse(field, a.coeffs)
    z01 = [(lift_sparse(field, z.coeffs), mu == field.zero)
           for mu in (field.zero, field.one) for z in eigen.space(mu)]
    for j in range(A.dim):
        y = ([(j, one)], one)
        y_less_y0 = (sparse_entries([(e if i == j else zero) - row[j] for i, row in enumerate(P0)], p), e)
        ay = A.lifted_product(a_lift, y)
        for z, in_a0 in z01:
            left = A.lifted_product(a_lift, A.lifted_product(y_less_y0 if in_a0 else y, z))
            if not same_lift(left, A.lifted_product(ay, z), p):
                return False
    return True


def infer_lambda(a):
    """The unique non-{0,1} root of the minimal polynomial of L_a, if any."""
    field = a.algebra.field
    if not is_idempotent(a):
        raise NotIdempotent("lambda inference requires an idempotent")
    mp = minimal_polynomial(a.left_multiplication_matrix())
    extra = [mu for mu in field.poly_roots(list(mp)) if mu != field.zero and mu != field.one]
    if len(extra) == 1:
        return extra[0]
    return None
