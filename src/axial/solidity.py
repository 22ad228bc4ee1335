"""2-generated subalgebra classification, idempotent enumeration, solidity.

The enumeration works on the sigma-presentation of a 2-generated subalgebra:
basis (a, b, sigma) with a, b idempotent, ab = sigma + lam(a + b), and sigma
scaling a, b, sigma by one constant gamma.  Writing x = al*a + be*b + s*sigma,
the idempotency system is

    al (al + 2 lam be + 2 gamma s - 1) = 0
    be (be + 2 lam al + 2 gamma s - 1) = 0
    gamma s^2 + 2 al be = s

whose closed-form solution set (validated once against an independent
symbolic solver, and re-verified member by member at runtime) is:

* lam != 1/2: a finite set -- 0, a, b, the unit u = sigma/gamma and the
  complements u-a, u-b when gamma != 0, plus al(a+b) + s*sigma with
  al^2 = 1/Delta for Delta = (2 lam - 1)^2 + 8(1-lam) pi when Delta is a
  square (s = (1 - (1+2 lam) al)/(2 gamma)), or the single solution
  al = 1/(1+2 lam), s = 2 al^2 when gamma = 0.

* lam = 1/2: every nonzero idempotent lies on the conic
  2 al^2 - 2 al + 4 gamma s al + s - gamma s^2 = 0 (with be = 1 - al - 2
  gamma s), rationally parametrized through (al, s) = (1, 0) by

      t(m) = -(2 + 4 gamma m + m) / (2 + 4 gamma m - gamma m^2),
      x(m) = (1 + t) a - t (1 + 2 gamma m) b + m t sigma,

  plus the one off-parametrization point a - 2(4 gamma + 1) b +
  ((4 gamma + 1)/gamma) sigma when gamma != 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Algebra, generate_subalgebra, require_same_algebra
from .axes import AxisReport, check_axis, is_idempotent
from .constructions import sigma_algebra
from .errors import NotAxes, SelfCheckFailed, UnsupportedShape
from .fields import QQ, RationalFunctions
from .frobenius import BilinearForm
from .linalg import span_rank

__all__ = [
    "PairClass",
    "classify_pair",
    "IdempotentFamily",
    "IdempotentEnumeration",
    "enumerate_idempotents_2gen",
    "SolidityReport",
    "solid_audit",
    "HardnessProbe",
    "hardness_probe",
]


# ---------------------------------------------------------------------------
# pair classification
# ---------------------------------------------------------------------------


@dataclass
class PairClass:
    kind: str  # Equal | Orthogonal | Flat | Baric | Toric
    pi: object
    quarter_flag: bool  # lam = 1/2 with pi = 1/4, the solidity-excluded value


def classify_pair(a, b, form, lam):
    """Classify a pair of certified primitive lam-axes by pi = (a, b)."""
    field = a.algebra.field
    for x in (a, b):
        rep = check_axis(x, lam)
        if not (rep.is_axis and rep.primitive):
            raise NotAxes("both inputs must be certified primitive axes")
    pi = form.value(a, b)
    half = field.one / field.from_int(2)
    quarter = field.one / field.from_int(4)
    flag = (lam == half and pi == quarter)
    if a == b:
        return PairClass(kind="Equal", pi=pi, quarter_flag=flag)
    if (a * b).is_zero():
        return PairClass(kind="Orthogonal", pi=pi, quarter_flag=flag)
    if pi == field.zero:
        return PairClass(kind="Flat", pi=pi, quarter_flag=flag)
    if pi == field.one:
        return PairClass(kind="Baric", pi=pi, quarter_flag=flag)
    return PairClass(kind="Toric", pi=pi, quarter_flag=flag)


# ---------------------------------------------------------------------------
# idempotent enumeration
# ---------------------------------------------------------------------------


@dataclass
class IdempotentFamily:
    """One-parameter rational family of idempotents in (a, b, sigma) coords."""

    algebra: object
    gamma: object
    excluded: list  # parameter values where the denominator vanishes

    def at(self, m):
        """The family member at a concrete parameter value."""
        field = self.algebra.field
        if isinstance(m, int):
            m = field.from_int(m)
        g = self.gamma
        two, four = field.from_int(2), field.from_int(4)
        den = two + four * g * m - g * m * m
        if not den:
            raise ZeroDivisionError("family parameter hits a denominator root")
        t = -(two + four * g * m + m) / den
        al = field.one + t
        be = -t * (field.one + two * g * m)
        return self.algebra.element([al, be, m * t])

    def symbolic(self):
        """The family over Q(m): one idempotency check covers all but the
        finitely many excluded parameter values."""
        field = self.algebra.field
        if field != QQ:
            raise ValueError("symbolic family is available over the rational base field")
        Qm = RationalFunctions("m")
        lifted = _lift_algebra(self.algebra, Qm)
        fam = IdempotentFamily(algebra=lifted, gamma=Qm.from_fraction(self.gamma), excluded=[])
        return lifted, fam.at(Qm.variable())


def _lift_algebra(A, Qm):
    st = [
        [tuple(Qm.from_fraction(c) for c in cell) for cell in row]
        for row in A.structure
    ]
    return Algebra(Qm, A.basis_names, st)


@dataclass
class IdempotentEnumeration:
    finite: list  # concrete idempotents, always re-verified
    family: IdempotentFamily | None
    lam: object
    gamma: object


def _sigma_presentation(B, lam):
    """Extract (induced algebra, gamma) from a 2-generated subalgebra.

    The induced basis must be (a, b, ab) with both generators idempotent;
    sigma = ab - lam a - lam b must scale a, b and itself by one constant.
    These facts are the whole (a, b, sigma) structure: ab = lam a + lam b +
    sigma, and (a, b, sigma) is a basis, a triangular change of (a, b, ab).
    """
    ind = B.induced
    field = ind.field
    if ind.dim != 3:
        raise UnsupportedShape(f"sigma presentation needs dimension 3, got {ind.dim}")
    a, b, ab = ind.basis()
    if not is_idempotent(a) or not is_idempotent(b):
        raise UnsupportedShape("the first two basis members must be idempotent generators")
    if a * b != ab:
        raise UnsupportedShape("third basis member is not the generator product")
    sigma = ab - lam * a - lam * b
    # a is the first unit vector, so gamma from sigma*a = gamma*a is the
    # first coordinate of sigma*a, and lam as a field value is -sigma[0]
    sa = sigma * a
    gamma, lam = sa.coeffs[0], -sigma.coeffs[0]
    if sa != gamma * a or sigma * b != gamma * b or sigma * sigma != gamma * sigma:
        raise UnsupportedShape("sigma does not act as one scalar on a, b and itself")
    return sigma_algebra(field, lam, gamma), gamma


def enumerate_idempotents_2gen(B, lam):
    """All idempotents of a 2-generated subalgebra of dimension <= 3.

    Dimensions 1 and 2 are immediate; dimension 3 requires the sigma
    presentation and applies the closed-form case analysis in the module
    docstring.  Every returned element is re-verified to satisfy x*x = x,
    and for lam = 1/2 the one-parameter family descriptor is included.
    """
    ind = B.induced
    field = ind.field
    zero, one = field.zero, field.one
    if ind.dim > 3:
        raise UnsupportedShape("2-generated enumeration handles dimension <= 3")

    if ind.dim == 1:
        out = [ind.zero(), ind.basis_element(0)]
        return IdempotentEnumeration(finite=_verified(out), family=None, lam=lam, gamma=None)

    if ind.dim == 2:
        a, b = ind.basis()
        if not is_idempotent(a) or not is_idempotent(b) or not (a * b).is_zero():
            raise UnsupportedShape("dimension-2 case requires two orthogonal idempotent generators")
        out = [ind.zero(), a, b, a + b]
        return IdempotentEnumeration(finite=_verified(out), family=None, lam=lam, gamma=None)

    P, gamma = _sigma_presentation(B, lam)
    a, b = P.basis_element(0), P.basis_element(1)
    sigma = P.basis_element(2)
    two = field.from_int(2)
    half = one / two

    finite = [P.zero(), a, b]
    if gamma:
        u = (one / gamma) * sigma
        finite.extend([u, u - a, u - b])

    family = None
    if lam == half:
        family = IdempotentFamily(algebra=P, gamma=gamma, excluded=_denominator_roots(field, gamma))
        if gamma:
            s_inf = (field.from_int(4) * gamma + one) / gamma
            x_inf = a - two * (field.from_int(4) * gamma + one) * b + s_inf * sigma
            finite.append(x_inf)
    else:
        if gamma:
            # Delta = (1 + 2 lam)^2 + 8 gamma = (2 lam - 1)^2 + 8 (1 - lam) pi
            w = one + two * lam
            delta = w * w + field.from_int(8) * gamma
            root = field.sqrt(delta)
            if root is not None and root:
                for al in (one / root, -(one / root)):
                    s = (one - w * al) / (two * gamma)
                    finite.append(al * (a + b) + s * sigma)
        else:
            al = one / (one + two * lam)
            finite.append(al * (a + b) + (two * al * al) * sigma)

    return IdempotentEnumeration(finite=_verified(_dedupe(finite)), family=family, lam=lam, gamma=gamma)


def _denominator_roots(field, gamma):
    """Parameter values where 2 + 4 gamma m - gamma m^2 = 0."""
    if not gamma:
        return []
    return field.poly_roots([field.from_int(2), field.from_int(4) * gamma, -gamma])


def _dedupe(elems):
    out = []
    seen = set()
    for e in elems:
        if e.coeffs not in seen:
            seen.add(e.coeffs)
            out.append(e)
    return out


def _verified(elems):
    for e in elems:
        if not is_idempotent(e):
            raise SelfCheckFailed("enumerated element failed the x*x = x re-verification")
    return elems


# ---------------------------------------------------------------------------
# solidity audit
# ---------------------------------------------------------------------------


@dataclass
class SolidityReport:
    subalgebra: object
    pair_class: PairClass
    idempotent_reports: list  # (element, AxisReport | None, trivial_flag)
    symbolic_report: AxisReport | None
    symbolic_excluded: list
    solid: bool  # every audited nontrivial idempotent is a primitive axis
    solid_jordan: bool  # ... of Jordan type
    witness: object | None

    @property
    def verdict(self):
        return "solid" if self.solid_jordan else ("solid-primitive-only" if self.solid else "notSolid")


def solid_audit(A, a, b, form, lam, sample_eps=()):
    """Audit every idempotent of <<a, b>> for primitive Jordan-type axishood.

    The one-parameter family (lam = 1/2) is checked once symbolically over
    Q(m) -- covering all but the listed excluded parameter values -- and at
    each requested sample parameter over the base field.  The verdict
    quantifies over nontrivial idempotents (neither 0 nor a unit), which is
    what makes the classical toric solidity statement come out true; the
    trivial ones are still listed, flagged.
    """
    for x in (a, b):
        require_same_algebra(A, x.algebra, "audited axis belongs to a different algebra")
    require_same_algebra(A, form.algebra, "form belongs to a different algebra")
    pair = classify_pair(a, b, form, lam)
    B = generate_subalgebra([a, b])
    enum = enumerate_idempotents_2gen(B, lam=lam)
    ind = enum.finite[0].algebra if enum.finite else B.induced
    unit = ind.unit()

    candidates = list(enum.finite)
    if enum.family is not None:
        for m in sample_eps:
            try:
                candidates.append(enum.family.at(m))
            except ZeroDivisionError:
                continue
    candidates = _dedupe(candidates)

    reports = []
    solid = True
    solid_jordan = True
    witness = None
    for x in candidates:
        trivial = x.is_zero() or (unit is not None and x == unit)
        if trivial:
            reports.append((x, None, True))
            continue
        rep = check_axis(x, lam)
        reports.append((x, rep, False))
        ok_prim = rep.is_axis and rep.primitive
        ok_jordan = rep.is_primitive_jordan_axis
        if not ok_prim:
            solid = False
        if not ok_jordan:
            solid_jordan = False
        if witness is None and not ok_jordan:
            witness = x

    symbolic_report = None
    symbolic_excluded = []
    if enum.family is not None and ind.field == QQ:
        _lifted, generic = enum.family.symbolic()
        lam_m = generic.algebra.field.from_fraction(lam)
        symbolic_report = check_axis(generic, lam_m)
        symbolic_excluded = enum.family.excluded
        if not symbolic_report.is_primitive_jordan_axis:
            solid = False
            solid_jordan = False
            if witness is None:
                witness = generic

    return SolidityReport(
        subalgebra=B,
        pair_class=pair,
        idempotent_reports=reports,
        symbolic_report=symbolic_report,
        symbolic_excluded=symbolic_excluded,
        solid=solid,
        solid_jordan=solid_jordan,
        witness=witness,
    )


# ---------------------------------------------------------------------------
# hardness probe (k = 1)
# ---------------------------------------------------------------------------


@dataclass
class HardnessProbe:
    idempotent_vectors: list
    axis_vectors: list
    idempotent_rank: int
    axis_rank: int
    is_hard: bool


def hardness_probe(B, idempotents, axes):
    """Compare the span of axis coefficient vectors with the span of
    idempotent coefficient vectors, in the subalgebra basis (k = 1 only)."""
    field = B.induced.field

    def coords_of(x):
        if x.algebra == B.induced:
            return list(x.coeffs)
        c = B.coords(x)
        if c is None:
            raise NotAxes("element does not lie in the subalgebra")
        return list(c.coeffs)

    ivecs = [coords_of(x) for x in idempotents]
    avecs = [coords_of(x) for x in axes]
    ir = span_rank(field, ivecs)
    ar = span_rank(field, avecs)
    union = span_rank(field, ivecs + avecs)
    hard = ir == ar == union
    return HardnessProbe(
        idempotent_vectors=ivecs,
        axis_vectors=avecs,
        idempotent_rank=ir,
        axis_rank=ar,
        is_hard=hard,
    )
