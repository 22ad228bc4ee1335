"""Certification machinery for a single idempotent.

The central object is the left-multiplication operator L_a of a candidate
idempotent a.  An axis of type lam is an idempotent whose L_a is annihilated
by x(x-1)(x-lam), equivalently whose eigenspaces for {0, 1, lam} decompose
the algebra.  Beside the fusion verdicts, one rule on the certified spectrum
{0, 1} + S gives the annihilator prod (x - mu), the components l_mu(L_a) y for
the Lagrange basis polynomials l_mu, and tau_a = 1 - 2*l_lam(L_a).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield

from .algebra import Algebra, Element
from .errors import (
    BadLambda,
    IncompleteDecomposition,
    NotAnAxis,
    NotIdempotent,
    OrbitOverflow,
    SingularVandermonde,
)
from .linalg import Echelon, Matrix, minimal_polynomial
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
    return x * x == x


@dataclass
class EigenData:
    axis: Element
    eigenvalues: list
    eigenspaces: dict
    complete: bool

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
    A = a.algebra
    field = A.field
    L = a.left_multiplication_matrix()
    mp = minimal_polynomial(L)
    roots = field.poly_roots(list(mp))
    spaces = {}
    for mu in roots:  # A_mu is the kernel of x - mu at L
        spaces[mu] = [A.element(v) for v in _poly_at(_root_poly(field, [mu]), L).kernel()]
    total = sum(len(basis) for basis in spaces.values())
    return EigenData(axis=a, eigenvalues=roots, eigenspaces=spaces, complete=(total == A.dim))


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
    A = a.algebra
    field = A.field
    if lam == field.zero or lam == field.one:
        raise BadLambda("the axis eigenvalue must avoid 0 and 1")
    if not is_idempotent(a):
        return AxisReport(element=a, lam=lam, is_idempotent=False)
    L = a.left_multiplication_matrix()
    mp = minimal_polynomial(L)
    annihilator = _root_poly(field, [field.zero, field.one, lam])
    divides = _divides_root_poly(mp, [field.zero, field.one, lam])
    # a divisor of a product of distinct linear factors is squarefree
    semisimple = divides or _is_squarefree(field, mp)
    ax1 = _poly_at(annihilator, L).is_zero()
    assert ax1 == divides, "annihilator and minimal-polynomial routes disagree"

    eigen = eigen_decompose(a)
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
    """
    A = a.algebra
    field = A.field
    if eigen is None:
        eigen = eigen_decompose(a)
    allowed = {field.zero, field.one, lam}
    if not eigen.complete or any(mu not in allowed for mu in eigen.eigenvalues):
        raise IncompleteDecomposition(
            "fusion check requires a complete decomposition with spectrum in {0, 1, lam}"
        )
    a0, a1, alam = eigen.space(field.zero), eigen.space(field.one), eigen.space(lam)
    a1_checked = a1 if len(a1) > 1 else []
    in01, in_lam, in0 = (Echelon(field, [v.coeffs for v in span]) for span in (a0 + a1, alam, a0))

    def contained(products, ech):
        return all(ech.contains(p.coeffs) for p in products)

    sq0 = [u * v for i, u in enumerate(a0) for v in a0[i:]]
    closed_01 = contained(
        sq0 + [u * v for i, u in enumerate(a1_checked) for v in a0 + a1_checked[i:]], in01)
    module_rule = contained([u * w for u in a0 + a1_checked for w in alam], in_lam)
    pre_jordan = contained([w * x for i, w in enumerate(alam) for x in alam[i:]], in01)
    jordan_a0 = contained(sq0, in0)
    return FusionVerdicts(closed_01, module_rule, pre_jordan, jordan_a0)


def _require_axis(a, eigenvalues_s):
    """a must be idempotent with minimal polynomial dividing x(x-1)*prod(x-mu)."""
    if not is_idempotent(a):
        raise NotAnAxis("not an idempotent")
    field = a.algebra.field
    mp = minimal_polynomial(a.left_multiplication_matrix())
    if not _divides_root_poly(mp, [field.zero, field.one, *eigenvalues_s]):
        raise NotAnAxis("operator is not annihilated by the expected spectrum polynomial")


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
    """poly(L) by Horner's rule, with deg(poly) - 1 matrix products."""
    acc = L.scaled(poly[-1])
    for j, c in enumerate(reversed(poly[:-1])):
        if j:
            acc = acc @ L
        for i, row in enumerate(acc.rows):  # acc is freshly built: add c*I in place
            row[i] = row[i] + c
    return acc


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

    @property
    def is_automorphism(self):
        return self.fusion.all_pre_jordan

    def apply(self, y):
        return y.algebra.element(self.matrix.apply(list(y.coeffs)))


def miyamoto(a, lam, _eigen=None):
    """The involution fixing A_{0,1}(a) pointwise and negating A_lam(a).

    Constructed as 1 - 2*l_lam(L_a) with l_lam the Lagrange basis polynomial
    of lam on {0, 1, lam}, so it is exact and basis-free.  The certified axis
    splits A = A_{0,1} + A_lam into the +1 and -1 eigenspaces of tau, and 2
    is invertible in every supported field.  So tau(xy) = tau(x)tau(y) for
    all x, y exactly when that splitting is a Z/2-grading: fusion rules (a)
    A01*A01 <= A01, (b) A01*Alam <= Alam and (c) Alam*Alam <= A01, read from
    the verdicts of check_fusion.
    """
    A = a.algebra
    field = A.field
    if lam == field.zero or lam == field.one:
        raise BadLambda("the flipped eigenvalue must avoid 0 and 1")
    _require_axis(a, [lam])
    eigen = _eigen if _eigen is not None else eigen_decompose(a)
    if not eigen.complete:
        raise NotAnAxis("decomposition is not complete")
    eye = Matrix.identity(field, A.dim)
    ell = _lagrange(field, [field.zero, field.one, lam], lam)
    T = eye - _poly_at(ell, a.left_multiplication_matrix()).scaled(field.from_int(2))
    assert (T @ T) == eye, "Miyamoto map is not an involution"
    return MiyamotoMap(matrix=T, axis=a, lam=lam, fusion=check_fusion(a, lam, eigen))


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
    """a(yz) = (ay)z + a(y0 z0) for all basis y and z in A_{0,1}(a), y0 = l_0(L_a) y."""
    A = a.algebra
    field = A.field
    _require_axis(a, [lam])
    eigen = eigen_decompose(a)
    if not eigen.complete:
        raise NotAnAxis("decomposition is not complete")
    _check_recovery_spectrum(field, [lam])
    P0 = _poly_at(_lagrange(field, [field.zero, field.one, lam], field.zero),
                  a.left_multiplication_matrix())
    z01 = eigen.space_01()
    z0s = [A.element(P0.apply(z.coeffs)) for z in z01]
    for j, y in enumerate(A.basis()):
        y0, ay = A.element(P0.column(j)), a * y
        for z, z0 in zip(z01, z0s):
            lhs = a * (y * z)
            rhs = ay * z + a * (y0 * z0)
            if lhs != rhs:
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
