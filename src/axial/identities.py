"""Nonassociative identity calculus.

Polynomials live in the free commutative nonassociative algebra on variables
x1, x2, ... and idempotent slots E1, E2, ..., enriched with scalar bracket
factors B(s, t) that evaluate through a bilinear form.  Trees are nested
tuples that sort as plain tuples; each product node keeps its children in
that order so that commutatively equal monomials merge.

A polynomial is a mapping {(bracket multiset, body tree) -> coefficient};
the body may be None for scalar-valued intermediates (a bare bracket
product), but evaluation demands element-valued monomials throughout.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass

from .algebra import require_same_algebra
from .errors import (
    AlgebraMismatch,
    FieldTooSmall,
    FreshCollision,
    MissingForm,
    NotIdempotent,
    PolyParseError,
    UnboundVariable,
    UnknownIdentity,
)
from .fields import _Reader
from .linalg import lift_sparse, lifted_one, lifted_zero, same_lift

__all__ = [
    "GenPoly",
    "IdentityVerdict",
    "x_var",
    "e_slot",
    "bracket",
    "parse_poly",
    "format_poly",
    "linearize_step",
    "full_linearize",
    "specialize_idempotent_slot",
    "evaluate",
    "holds_as_identity",
    "sample_identity",
    "builtin_identity",
    "BUILTIN_NAMES",
]


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------


# a product node is (_MUL, left, right); the tag sorts after "E" and "X", so
# tuple order puts slots, then variables, each by index, then products by
# their left child and then their right child
_MUL = "mul"


def _node(l, r):
    # the slots are free *idempotents*: E_i * E_i reduces to E_i
    if l == r and l[0] == "E":
        return l
    return (_MUL, l, r) if l <= r else (_MUL, r, l)


def _leaves(t):
    if t[0] in ("E", "X"):
        yield t
    else:
        yield from _leaves(t[1])
        yield from _leaves(t[2])


def _count_leaf(t, leaf):
    return sum(1 for lv in _leaves(t) if lv == leaf)


def _tree_str(t):
    if t[0] == "X":
        return f"x{t[1]}"
    if t[0] == "E":
        return f"E{t[1]}"
    return f"({_tree_str(t[1])}*{_tree_str(t[2])})"


def _map_leaves(t, fn):
    """Copy of t with each leaf lv replaced by fn(lv), left to right, in
    canonical order."""
    if t[0] in ("E", "X"):
        return fn(t)
    return _node(_map_leaves(t[1], fn), _map_leaves(t[2], fn))


def _bracket_key(t1, t2):
    return (t1, t2) if t1 <= t2 else (t2, t1)


def _sorted_brackets(brackets):
    return tuple(sorted(brackets))


def _accumulate(acc, key, c):
    """Add c to acc[key] in place; a sum that cancels drops the key."""
    s = acc[key] + c if key in acc else c
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


# monomial key = (brackets, body); brackets a sorted tuple of bracket pairs,
# body a tree or None


def _mono_trees(key):
    brackets, body = key
    for b in brackets:
        yield b[0]
        yield b[1]
    if body is not None:
        yield body


def _mono_degree(key, leaf):
    return sum(_count_leaf(t, leaf) for t in _mono_trees(key))


# a signed literal, name or power, which a product takes as its left factor
# without parentheses
_SIGNED_ATOM_RE = re.compile(r"-?[\w/^]+")


def _mono_str(key, coeff, field):
    brackets, body = key
    parts = []
    c = field.format(coeff)
    if not _SIGNED_ATOM_RE.fullmatch(c):  # a Q(t) sum such as "-t - 1"
        c = f"({c})"
    parts.extend(f"B({_tree_str(a)},{_tree_str(b)})" for a, b in brackets)
    if body is not None:
        parts.append(_tree_str(body))
    if not parts:
        return c
    if coeff == field.one:
        return "*".join(parts)
    if coeff == -field.one:
        return "-" + "*".join(parts)
    return "*".join([c] + parts)


class GenPoly:
    """Formal sum of generalized monomials over one scalar field.

    A polynomial is immutable once built: every operation returns a new one
    and leaves the terms of its operands as they were.  Two values that
    depend on the terms only are cached on the instance when first asked
    for: the X indices and the E indices.
    """

    __slots__ = ("field", "terms", "_xidx", "_eidx")

    def __init__(self, field, terms=None):
        self.field = field
        self.terms = {}
        self._xidx = None
        self._eidx = None
        if terms:
            for key, coeff in terms.items():
                if coeff:
                    self.terms[key] = coeff

    # -- construction helpers

    @classmethod
    def zero(cls, field):
        return cls(field)

    @classmethod
    def monomial(cls, field, coeff, brackets, body):
        return cls(field, {(_sorted_brackets(brackets), body): coeff})

    def is_zero(self):
        return not self.terms

    # -- ring operations

    def __add__(self, other):
        self._compat(other)
        acc = dict(self.terms)
        for key, c in other.terms.items():
            _accumulate(acc, key, c)
        return GenPoly(self.field, acc)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return GenPoly(self.field, {k: -c for k, c in self.terms.items()})

    def __rmul__(self, scalar):
        if isinstance(scalar, GenPoly):
            return NotImplemented
        if not scalar:
            return GenPoly(self.field)
        return GenPoly(self.field, {k: scalar * c for k, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, GenPoly):
            return GenPoly(self.field, {k: c * other for k, c in self.terms.items()})
        self._compat(other)
        acc = {}
        for (br1, b1), c1 in self.terms.items():
            for (br2, b2), c2 in other.terms.items():
                if b1 is None:
                    body = b2
                elif b2 is None:
                    body = b1
                else:
                    body = _node(b1, b2)
                _accumulate(acc, (_sorted_brackets(br1 + br2), body), c1 * c2)
        return GenPoly(self.field, acc)

    def _compat(self, other):
        if other.field != self.field:
            raise ValueError("polynomials over different fields")

    def __eq__(self, other):
        return isinstance(other, GenPoly) and self.field == other.field and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- inspection

    def _scan_leaves(self):
        xs, es = set(), set()
        for key in self.terms:
            for t in _mono_trees(key):
                for leaf in _leaves(t):
                    if leaf[0] == "X":
                        xs.add(leaf[1])
                    else:
                        es.add(leaf[1])
        self._xidx = sorted(xs)
        self._eidx = sorted(es)

    def x_indices(self):
        if self._xidx is None:
            self._scan_leaves()
        return self._xidx

    def e_indices(self):
        if self._eidx is None:
            self._scan_leaves()
        return self._eidx

    def degree_in_x(self, j):
        leaf = ("X", j)
        return max((_mono_degree(k, leaf) for k in self.terms), default=0)

    def degree_in_e(self, i):
        leaf = ("E", i)
        return max((_mono_degree(k, leaf) for k in self.terms), default=0)

    def has_brackets(self):
        return any(br for br, _body in self.terms)

    def monomial_count(self):
        return len(self.terms)

    def sorted_terms(self):
        return sorted(
            self.terms.items(),
            key=lambda kv: (len(kv[0][0]), kv[0][0], (0,) if kv[0][1] is None else (1, kv[0][1])),
        )

    def __repr__(self):
        return f"GenPoly({format_poly(self)!r})"


def x_var(field, j):
    return GenPoly.monomial(field, field.one, (), ("X", j))


def e_slot(field, i):
    return GenPoly.monomial(field, field.one, (), ("E", i))


def bracket(f, g):
    """Scalar bracket factor B(f, g), bilinear in both element arguments."""
    f._compat(g)
    acc = {}
    for (br1, b1), c1 in f.terms.items():
        for (br2, b2), c2 in g.terms.items():
            if b1 is None or b2 is None:
                raise ValueError("bracket arguments must be element-valued")
            _accumulate(acc, (_sorted_brackets(br1 + br2 + (_bracket_key(b1, b2),)), None), c1 * c2)
    return GenPoly(f.field, acc)


def format_poly(f):
    """Canonical text; parse(format(f)) == f."""
    if f.is_zero():
        return "0"
    parts = []
    for key, coeff in f.sorted_terms():
        s = _mono_str(key, coeff, f.field)
        if not parts:
            parts.append(s)
        elif s.startswith("-"):
            parts.append("- " + s[1:])
        else:
            parts.append("+ " + s)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# substitution and linearization
# ---------------------------------------------------------------------------


def _map_key(key, fn):
    """Monomial key with ``_map_leaves(., fn)`` applied to its trees, in the
    order of ``_mono_trees``, and re-sorted."""
    brackets, body = key
    return (_sorted_brackets(_bracket_key(_map_leaves(a, fn), _map_leaves(b, fn)) for a, b in brackets),
            None if body is None else _map_leaves(body, fn))


def _feeder(leaf, replacements):
    """The leaf map that gives each occurrence of leaf the next of
    replacements, in turn."""
    feed = iter(replacements)
    return lambda lv: next(feed) if lv == leaf else lv


def _substitute_choices(poly, leaf, alternatives):
    """Replace each occurrence of leaf independently by every alternative.

    alternatives is a list of (coeff, replacement_leaf); the result is the
    multilinear expansion of substituting their formal sum.
    """
    acc = {}
    for key, coeff in poly.terms.items():
        d = _mono_degree(key, leaf)
        if d == 0:
            _accumulate(acc, key, coeff)
            continue
        for choice in itertools.product(range(len(alternatives)), repeat=d):
            c = coeff
            for ci in choice:
                c = alternatives[ci][0] * c
            _accumulate(acc, _map_key(key, _feeder(leaf, [alternatives[ci][1] for ci in choice])), c)
    return GenPoly(poly.field, acc)


def linearize_step(f, j, fresh):
    """One polarization step in X_j with a fresh variable index.

    f[X_j -> X_j + X_fresh] - f - f[X_j -> X_fresh], expanded and merged.
    Additive in f, and zero exactly on polynomials linear in X_j.
    """
    if fresh in f.x_indices():
        raise FreshCollision(f"x{fresh} already occurs")
    leaf = ("X", j)
    one = f.field.one
    both = _substitute_choices(f, leaf, [(one, leaf), (one, ("X", fresh))])
    swapped = _substitute_choices(f, leaf, [(one, ("X", fresh))])
    return both - f - swapped


def full_linearize(f, j):
    """Iterate the X_j step until every monomial is linear in X_j.

    Intended for polynomials homogeneous in X_j (each catalog identity is);
    the fresh indices used are returned alongside the result.

    The steps are not run one by one.  With d > 1 the highest degree of f
    in X_j, they take d - 1 fresh indices, the next above those of f, and
    leave: each monomial of degree d once for every way to give its d
    occurrences of X_j the d variables X_j and X_fresh, one each; each
    monomial free of X_j times (-1)^(d-1), since a step negates it; and
    nothing of the others, which the steps make linear in X_j and cancel.
    The fresh variables are placed one at a time, on each remaining
    occurrence in turn, and equal monomials merge after each.
    """
    leaf = ("X", j)
    degrees = [_mono_degree(key, leaf) for key in f.terms]
    d = max(degrees, default=0)
    if d <= 1:
        return f, []
    nxt = max(f.x_indices()) + 1
    introduced = list(range(nxt, nxt + d - 1))
    acc = {}
    top = {}
    for (key, coeff), k in zip(f.terms.items(), degrees):
        if k == 0:
            _accumulate(acc, key, coeff if d % 2 else -coeff)
        elif k == d:
            top[key] = coeff
    for k, fresh in zip(range(d, 1, -1), introduced):
        placed = {}
        for key, coeff in top.items():
            for p in range(k):
                choices = [leaf] * k
                choices[p] = ("X", fresh)
                _accumulate(placed, _map_key(key, _feeder(leaf, choices)), coeff)
        top = placed
    for key, coeff in top.items():
        _accumulate(acc, key, coeff)
    return GenPoly(f.field, acc), introduced


def specialize_idempotent_slot(f, i, fresh_x):
    """Substitute X_fresh for E_i throughout and renormalize."""
    if fresh_x in f.x_indices():
        raise FreshCollision(f"x{fresh_x} already occurs")
    if i not in f.e_indices():
        raise ValueError(f"E{i} does not occur")
    return _substitute_choices(f, ("E", i), [(f.field.one, ("X", fresh_x))])


def _symmetry_blocks(g):
    """The X variables of g, split into blocks on which g is symmetric.

    i and j share a block when swapping them leaves g.terms exactly equal.
    Such swaps compose, (i k) = (i j)(j k)(i j), so this is an equivalence
    and each block's swaps generate its whole symmetric group: g takes one
    value on a tuple and on every permutation of it within blocks.  Blocks
    are sorted lists, in order of their least variable.

    A transposition maps monomial keys one to one, so no two terms merge
    under it: g is symmetric in i and j exactly when each swapped key is a
    key of g with the same coefficient.
    """
    terms = g.terms
    blocks = []
    for j in g.x_indices():
        v = ("X", j)
        for block in blocks:
            u = ("X", block[0])

            def swap(lv):
                return v if lv == u else u if lv == v else lv

            for key, c in terms.items():
                key = _map_key(key, swap)
                if key not in terms or terms[key] != c:
                    break
            else:
                block.append(j)
                break
        else:
            blocks.append([j])
    return blocks


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate(f, assign_x, assign_e, form=None, algebra=None, check_idempotents=True):
    """Evaluate an element-valued polynomial at concrete elements.

    assign_x / assign_e map variable indices to elements; every E-slot value
    must be idempotent; bracket factors require a bilinear form.  The
    assigned elements, the form and the field of f must belong to one
    algebra (algebra, when given): an equal algebra counts as the same, and
    anything else raises AlgebraMismatch.

    After these checks f runs as a ``_Program`` on the lifted assignment,
    and ``field.from_lift`` reads the result back.
    """
    A = algebra
    for v in itertools.chain(assign_x.values(), assign_e.values()):
        if A is None:
            A = v.algebra
        require_same_algebra(A, v.algebra, "an assigned element belongs to a different algebra")
    if A is None:
        raise UnboundVariable("no assignments and no algebra supplied")
    if form is not None:
        require_same_algebra(A, form.algebra, "the form belongs to a different algebra")
    if f.field != A.field:
        raise AlgebraMismatch(f"polynomial over {f.field!r} on an algebra over {A.field!r}")
    if check_idempotents:
        for i, v in assign_e.items():
            if not (v * v == v):
                raise NotIdempotent(f"E{i} assigned a non-idempotent")
    for j in f.x_indices():
        if j not in assign_x:
            raise UnboundVariable(f"x{j} unassigned")
    for i in f.e_indices():
        if i not in assign_e:
            raise UnboundVariable(f"E{i} unassigned")
    if f.has_brackets() and form is None:
        raise MissingForm("polynomial contains bracket factors but no form was given")

    lifts = [lift_sparse(A.field, assign_e[i].coeffs) for i in f.e_indices()]
    lifts += [lift_sparse(A.field, assign_x[j].coeffs) for j in f.x_indices()]
    total, d = _Program(f, A, form).run(lifts)
    return A.element([A.field.from_lift(a, d) for a in total])


class _Program:
    """f compiled against the algebra A and the form, to be run at many
    assignments.

    The leaves are numbered first, the E slots by index and then the X
    variables in xvars order (by default ``f.x_indices()``); the distinct
    product nodes of the bodies and bracket arguments of f follow, each
    after its children.  The depth of leaf k is k, and a product node or a
    bracket has the depth of its deepest leaf: ``levels[k]`` lists the
    nodes of depth k, children first, and ``bracket_levels[k]`` the
    brackets.  ``step(k, lift)`` sets leaf k and computes the nodes and
    brackets of depth k only, so a sweep that changes the leaves from depth
    k on recomputes nothing of a lower depth; ``total`` sums the monomials.
    The program keeps one slot per leaf and node in ``vals`` and one per
    bracket in ``bvals``, which each assignment overwrites.

    One body serves every field.  Each leaf, subtree value, bracket value
    and monomial coefficient is lifted by ``field.integer_lift``: entries
    over one common denominator, which are integer numerators over Q, least
    residues with denominator 1 over F_p, and Z[t] numerators over a Z[t]
    denominator over Q(t).  Leaves and subtree values keep their nonzero
    entries only, as ``lift_sparse`` does.  The inner loops multiply and add
    the entries.  Over Q and Q(t) nothing is reduced: a product node holds
    its entries over dx * dy * d, the product of its children's
    denominators and the structure table's.  A nonzero scale does not
    change whether a value is zero, and ``evaluate`` reads its result back
    once.  Over F_p each product and bracket is reduced mod p; the sum of
    the monomials is not, so ``vanishes`` reduces it.
    """

    def __init__(self, f, A, form, xvars=None):
        if f.field != A.field:
            raise AlgebraMismatch(f"polynomial over {f.field!r} on an algebra over {A.field!r}")
        if f.has_brackets() and form is None:
            raise MissingForm("polynomial contains bracket factors but no form was given")
        field = A.field
        self.n = A.dim
        self.p = field.char
        self.lcm = field.lift_lcm
        self.zero, self.one = lifted_zero(field), lifted_one(field)
        self.table, self.grid_d = A.integer_grid()
        if f.has_brackets():
            self.gram, self.gram_d = form.integer_gram()
        leaves = [("E", i) for i in f.e_indices()]
        leaves += [("X", j) for j in (f.x_indices() if xvars is None else xvars)]
        index = {t: k for k, t in enumerate(leaves)}
        depth = list(range(len(leaves)))
        levels = self.levels = [[] for _ in leaves]

        def number(t):
            k = index.get(t)
            if k is None:
                l, r = number(t[1]), number(t[2])
                k = index[t] = len(index)
                d = depth[l] if depth[l] > depth[r] else depth[r]
                depth.append(d)
                levels[d].append((k, l, r))
            return k

        brackets = {}
        self.monos = []
        coeffs, self.coeff_d = field.integer_lift(f.terms.values())
        for (brs, body), c in zip(f.terms, coeffs):
            if body is None:
                raise MissingForm("monomial has no element-valued body")
            self.monos.append((c, [brackets.setdefault((number(t1), number(t2)), len(brackets))
                                   for t1, t2 in brs], number(body)))
        self.bracket_levels = [[] for _ in leaves]
        for (l, r), b in brackets.items():
            self.bracket_levels[max(depth[l], depth[r])].append((b, l, r))
        self.vals = [None] * len(index)
        self.bvals = [None] * len(brackets)

    def step(self, k, lift):
        """Set leaf k to lift, a ``lift_sparse`` lift of its coefficients,
        and compute the product nodes and brackets of depth k from the slots
        of their arguments."""
        n, p, zero, table, grid_d, vals = self.n, self.p, self.zero, self.table, self.grid_d, self.vals
        vals[k] = lift
        for node, l, r in self.levels[k]:
            (xs, dx), (ys, dy) = vals[l], vals[r]
            out = [zero] * n
            for i, xi in xs:
                row = table[i]
                for j, yj in ys:
                    c = xi * yj
                    for kk, s in row[j]:
                        out[kk] += c * s
            if p:
                out = [a % p for a in out]
            vals[node] = ([(kk, a) for kk, a in enumerate(out) if a], dx * dy * grid_d)
        for b, l, r in self.bracket_levels[k]:
            (xs, dx), (ys, dy) = vals[l], vals[r]
            acc = zero
            for i, xi in xs:
                gi = self.gram[i]
                for j, yj in ys:
                    acc += xi * yj * gi[j]
            self.bvals[b] = ((acc % p if p else acc), dx * dy * self.gram_d)

    def load(self, lifts):
        """Set every leaf, in order, to the lifts: one pass at every depth."""
        for k, lift in enumerate(lifts):
            self.step(k, lift)

    def run(self, lifts):
        """The value of f at the leaf lifts, each a ``lift_sparse`` of the
        leaf's coefficients, as dense lifted entries over one denominator:
        ``(entries, d)``.  Each product node and bracket is computed once."""
        self.load(lifts)
        return self.total()

    def total(self):
        """The value of f at the leaves as set, as ``run`` returns it."""
        vals, bvals = self.vals, self.bvals
        # the sum of the monomials, kept as lifted entries over total_d; the
        # scalar c of a monomial is its lifted coefficient times its
        # brackets, over d
        total, total_d = [self.zero] * self.n, self.one
        for c, brs, body in self.monos:
            d = self.coeff_d
            for b in brs:
                bv, db = bvals[b]
                c, d = c * bv, d * db
                if not c:
                    break
            if c:
                bv, dv = vals[body]
                d *= dv
                if d != total_d:
                    m = self.lcm(total_d, d)
                    if m != total_d:
                        st = m // total_d
                        total = [a * st for a in total]
                        total_d = m
                    if m != d:
                        c = c * (m // d)
                for k, b in bv:
                    total[k] += b * c
        return total, total_d

    def vanishes(self):
        """Whether f is zero at the leaves as set."""
        total, _d = self.total()
        if self.p:
            return not any(a % self.p for a in total)
        return not any(total)


EXHAUSTIVE_BUDGET = 200000  # assignments the small-field exhaustion may enumerate


@dataclass
class IdentityVerdict:
    holds: bool
    witness: dict | None
    method: str


def holds_as_identity(f, A, idempotent_pool=(), form=None, distinct_slots=False):
    """Decide whether f vanishes for all elements (X) and pool idempotents (E).

    Over an infinite field (and over F_p with p larger than every variable
    degree) the polynomial is split into multihomogeneous components, each
    component fully linearized, and the resulting multilinear polynomials
    evaluated on one basis tuple per orbit of their variable symmetry; that
    is exact.  Over too-small prime fields it falls back to exhaustive
    enumeration of at most EXHAUSTIVE_BUDGET assignments.

    distinct_slots restricts the E-assignments to pairwise distinct pool
    members, for criteria stated only for distinct axes (the Matsuo pair
    test is the one catalog entry that needs it).
    """
    field = A.field
    _bind(A, idempotent_pool, form)
    e_options = _slot_assignments(f, idempotent_pool, distinct_slots)
    xvars, evars = f.x_indices(), f.e_indices()
    maxdeg = max((f.degree_in_x(j) for j in xvars), default=0)

    if field.size is not None and field.size <= maxdeg:
        n_assign = len(xvars) * A.dim
        cost = (field.size ** n_assign) * max(1, len(idempotent_pool)) ** len(evars)
        if cost > EXHAUSTIVE_BUDGET:
            raise FieldTooSmall(
                f"degree {maxdeg} >= |F| = {field.size} and exhaustion costs {cost} > {EXHAUSTIVE_BUDGET}"
            )
        vectors = [A.element(v) for v in itertools.product(field.elements(), repeat=A.dim)]
        witness = _first_nonzero(f, A, form, e_options, vectors)
        return IdentityVerdict(holds=witness is None, witness=witness, method="exhaustive-field")

    # split into multihomogeneous components in the X variables
    components = {}
    for key, coeff in f.terms.items():
        components.setdefault(tuple(_mono_degree(key, ("X", j)) for j in xvars), {})[key] = coeff

    basis = A.basis()
    for terms in components.values():
        g = GenPoly(f.field, terms)
        for j in xvars:
            if g.degree_in_x(j) > 1:
                g, _ = full_linearize(g, j)
        # g is only a yes/no test, so one basis tuple per orbit of its
        # variable symmetry decides it
        if _first_nonzero(g, A, form, e_options, basis, _symmetry_blocks(g)) is not None:
            witness = _find_witness(f, A, form, e_options, basis)
            return IdentityVerdict(holds=False, witness=witness, method="multilinear-basis")
    return IdentityVerdict(holds=True, witness=None, method="multilinear-basis")


def _bind(A, pool, form):
    """Check that the pool and the form belong to A, whose equal copies
    count as A; each other algebra is compared with A at most once.  The
    compiled program reads only A's structure table and the form's Gram
    matrix, so the members and the form are kept as given."""
    equal = []  # the algebras other than A found equal to it

    def check(B, message):
        if B is not A and all(B is not C for C in equal):
            require_same_algebra(A, B, message)
            equal.append(B)

    for x in pool:
        check(x.algebra, "an assigned element belongs to a different algebra")
    if form is not None:
        check(form.algebra, "the form belongs to a different algebra")


class _SlotAssignments(list):
    """The assignments of pool members to the E slots of f, in the order the
    sweeps take them: a list of dicts {i: member}.  ``lifts[a]`` is the
    dict {i: lift} of assignment a, on one lift per pool member."""


def _slot_assignments(f, pool, distinct):
    """Every assignment of pool members to the E slots of f, as a
    ``_SlotAssignments``; the pool must hold idempotents only, and some if f
    has E slots.  Each member is lifted once and tested on its lift.  With
    distinct, the slots take pairwise distinct members: the pool is
    deduplicated by coefficients, in order, and must keep a member for each
    slot, since with fewer there is no assignment and f would hold
    vacuously."""
    evars = f.e_indices()
    if evars and not pool:
        raise UnboundVariable("polynomial has E-slots but the idempotent pool is empty")
    lifts = [_idempotent_lift(x) for x in pool]
    members = range(len(pool))
    if distinct:
        members = list({pool[m].coeffs: m for m in members}.values())
        if len(members) < len(evars):
            raise UnboundVariable(f"{len(evars)} E-slots need distinct idempotents, "
                                  f"but the pool has {len(members)}")
        choices = itertools.permutations(members, len(evars))
    else:
        choices = itertools.product(members, repeat=len(evars))
    options = _SlotAssignments()
    options.lifts = []
    for choice in choices:
        options.append({i: pool[m] for i, m in zip(evars, choice)})
        options.lifts.append({i: lifts[m] for i, m in zip(evars, choice)})
    return options


def _idempotent_lift(x):
    """The ``lift_sparse`` lift of the pool member x, whose square is
    compared with x on that lift: NotIdempotent when they differ."""
    A = x.algebra
    lift = lift_sparse(A.field, x.coeffs)
    if not same_lift(A.lifted_product(lift, lift), lift, A.field.char):
        raise NotIdempotent("pool contains a non-idempotent")
    return lift


def _first_nonzero(f, A, form, e_options, values, blocks=None):
    """The first assignment, E slots outermost and X values from values, at
    which f does not vanish, as a witness dict; None when there is none.

    e_options comes from ``_slot_assignments``.  With blocks from
    ``_symmetry_blocks(f)`` each block takes only sorted tuples of values,
    one per orbit; by default every tuple is tried.  The tuples are walked
    depth first, in the order of ``itertools.product`` over the blocks'
    ``combinations_with_replacement``: the variable at each depth takes the
    values from the one its predecessor in the block took (from the first,
    when it opens the block), and each value computes only the program's
    nodes of that depth.  Each value is lifted once, f is compiled on the
    first tuple, and a witness is the only assignment built as elements.
    """
    if blocks is None:
        blocks = [[j] for j in f.x_indices()]
    xvars = [j for block in blocks for j in block]
    if xvars and not values:  # no tuple to try, and nothing to compile
        return None
    opens = [q == 0 for block in blocks for q in range(len(block))]
    evars = f.e_indices()
    lifts = [lift_sparse(A.field, v.coeffs) for v in values]
    program = _Program(f, A, form, xvars)
    step, vanishes = program.step, program.vanishes
    picks = [0] * len(xvars)
    last = len(xvars) - 1

    def walk(q, lo):
        # the values from lo at the variable of position q, and under each
        # the tuples of the later positions; True at a non-vanishing one
        k = len(evars) + q
        for v in range(lo, len(values)):
            picks[q] = v
            step(k, lifts[v])
            if q == last:
                if not vanishes():
                    return True
            elif walk(q + 1, 0 if opens[q + 1] else v):
                return True
        return False

    for amap, e_lifts in zip(e_options, e_options.lifts):
        for k, i in enumerate(evars):
            step(k, e_lifts[i])
        if walk(0, 0) if xvars else not vanishes():
            return {"x": {j: values[v] for j, v in zip(xvars, picks)}, "e": amap}
    return None


def _first_random_nonzero(f, A, form, e_options, rng, bounds):
    """The first of len(bounds) random assignments at which f does not
    vanish, as a witness dict; None when there is none.

    Each assignment gives the X variables, in index order, integer
    coordinates in [-bound, bound], and then draws one E assignment when
    there are E slots.  f is compiled on the first draw and run in one pass
    at every depth, and a witness is the only assignment built as elements.
    """
    field = A.field
    xvars, evars = f.x_indices(), f.e_indices()
    program = None
    for bound in bounds:
        draws = [[rng.randint(-bound, bound) for _ in range(A.dim)] for _ in xvars]
        e = rng.randrange(len(e_options)) if evars else 0
        if program is None:
            program = _Program(f, A, form)
        xs = [[field.from_int(c) for c in draw] for draw in draws]
        e_lifts = e_options.lifts[e]
        program.load([e_lifts[i] for i in evars] + [lift_sparse(field, x) for x in xs])
        if not program.vanishes():
            return {"x": {j: A.element(x) for j, x in zip(xvars, xs)}, "e": e_options[e]}
    return None


def _find_witness(f, A, form, e_options, basis):
    """A concrete falsifying assignment for f itself (not its components)."""
    witness = _first_nonzero(f, A, form, e_options, basis)
    if witness is not None:
        return witness
    bounds = [3 + attempt // 500 for attempt in range(5000)]
    return _first_random_nonzero(f, A, form, e_options, random.Random(0), bounds)


def sample_identity(f, A, idempotent_pool=(), form=None, samples=500, seed=0, coeff_range=3,
                    distinct_slots=False):
    """Monte-Carlo identity check with exact arithmetic; the test oracle.

    Substitutes elements with integer coefficients in [-coeff_range,
    coeff_range] for the X variables and pool members for the E slots.
    """
    _bind(A, idempotent_pool, form)
    e_options = _slot_assignments(f, idempotent_pool, distinct_slots)
    witness = _first_random_nonzero(f, A, form, e_options, random.Random(seed), [coeff_range] * samples)
    return IdentityVerdict(holds=witness is None, witness=witness, method="sampled")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def parse_poly(text, field, lam=None):
    """Parse the identity grammar.

    Variables x1.., slots E1.., product * with explicit parentheses for
    nested products, bracket factors B(s,t), and scalar coefficients in the
    grammar of Q(t) scalar text: numerals, and over Q(t) the field's
    variable and powers ^.  ``lam`` names the bound eigenvalue symbol
    (required to be supplied).  x<k>, E<k>, B and lam come before the field
    variable, so a variable named like one of them is not read.  / divides
    by a nonzero scalar only, a nonzero scalar is not added to an element,
    and ^ takes a scalar base.  Over Q(t) the text draws on one scalar work
    budget, as ``field.parse`` does.
    """
    val = _IdentityReader(field, lam).read(text)
    if not isinstance(val, GenPoly):
        if val:
            raise PolyParseError("polynomial must be element-valued, got a bare scalar", 0)
        return GenPoly.zero(field)
    if any(body is None for _brackets, body in val.terms):
        raise PolyParseError("monomial has no element-valued body", 0)
    return val


_LEAF_RE = re.compile(r"([xE])([0-9]+)")


class _IdentityReader(_Reader):
    """The field's reader with the identity names added.  A value is a
    field scalar or a GenPoly: an element, or a product of brackets."""

    error = PolyParseError

    def __init__(self, field, lam):
        super().__init__(field)
        self.lam = lam

    def _name(self, name, at):
        if name == "lam":
            if self.lam is None:
                raise PolyParseError("'lam' used but no lambda binding supplied", at)
            return self.lam
        if name == "B":
            return self._bracket(at)
        m = _LEAF_RE.fullmatch(name)
        if m:
            leaf = x_var if m[1] == "x" else e_slot
            return self._apply(at, lambda: leaf(self.field, int(m[2])))
        return super()._name(name, at)

    def _bracket(self, at):
        self._expect("(", "B requires '('", at)
        arg1 = self._expr(1)
        self._expect(",", "B requires two arguments", at)
        arg2 = self._expr(1)
        self._expect(")", "missing ')' after B arguments", at)
        if not (isinstance(arg1, GenPoly) and isinstance(arg2, GenPoly)):
            raise PolyParseError("bracket arguments must be element-valued", at)
        return self._apply(at, bracket, arg1, arg2)

    def _binary(self, op, a, b, at):
        a_el, b_el = isinstance(a, GenPoly), isinstance(b, GenPoly)
        if op == "/" and b_el:
            raise PolyParseError("can only divide by a scalar, not by an element-valued term", at)
        if op in "+-" and a_el != b_el:
            if b if a_el else a:  # the scalar operand
                raise PolyParseError("cannot add a nonzero scalar to an element-valued term", at)
            a, b = (a, GenPoly.zero(self.field)) if a_el else (GenPoly.zero(self.field), b)
        if op == "/" and a_el:
            op, b = "*", super()._binary("/", self.field.one, b, at)
        return super()._binary(op, a, b, at)

    def _power(self, base, at):
        if isinstance(base, GenPoly):
            raise PolyParseError("'^' needs a scalar base", at)
        return super()._power(base, at)


# ---------------------------------------------------------------------------
# builtin catalog
# ---------------------------------------------------------------------------

# Every entry is written as lhs - rhs of its source equation, so "holds"
# always means "evaluates to zero"; an entry that names lam needs it bound
# outside {0, 1}.
_CATALOG = {
    # ((x1 x1) x2) x1 = (x1 x1)(x2 x1)
    "jordan": "((x1*x1)*x2)*x1 - (x1*x1)*(x2*x1)",
    # 2((x2 x1)x1)x1 + x2((x1 x1)x1) = 3(x2(x1 x1))x1
    "almostJordan": "2*(((x2*x1)*x1)*x1) + x2*((x1*x1)*x1) - 3*((x2*(x1*x1))*x1)",
    "fourPowerAssoc": "((x1*x1)*x1)*x1 - (x1*x1)*(x1*x1)",
    # h(x,y,z,w): the full multilinearization shape of 4-power associativity,
    # -4 (pq)(rs) over the three pairings plus p(q(rs)) over each leading
    # variable and the three cyclic orders of the others
    "linearizedPA": (
        "-4*((x1*x2)*(x3*x4)) - 4*((x1*x3)*(x2*x4)) - 4*((x1*x4)*(x2*x3))"
        " + x1*(x2*(x3*x4)) + x1*(x3*(x4*x2)) + x1*(x4*(x2*x3))"
        " + x2*(x1*(x3*x4)) + x2*(x3*(x4*x1)) + x2*(x4*(x1*x3))"
        " + x3*(x1*(x2*x4)) + x3*(x2*(x4*x1)) + x3*(x4*(x1*x2))"
        " + x4*(x1*(x2*x3)) + x4*(x2*(x3*x1)) + x4*(x3*(x1*x2))"
    ),
    # 4(x1 x2)x1^2 = 2((x1 x2)x1)x1 + (x1^2 x2)x1 + x1^3 x2, with x1^3 = (x1 x1)x1
    "linearizedPA-partial": "4*((x1*x2)*(x1*x1)) - 2*(((x1*x2)*x1)*x1) - ((x1*x1)*x2)*x1 - ((x1*x1)*x1)*x2",
    # E1(E1(E1 x1)) = (lam+1) E1(E1 x1) - lam E1 x1, the composed recovery
    # form, is L(L-1)(L-lam) x1 = 0 expanded
    "ax1": "E1*(E1*(E1*x1)) - (lam+1)*(E1*(E1*x1)) + lam*(E1*x1)",
    "semisimpleSpectrum": "E1*(E1*(E1*x1)) - (lam+1)*(E1*(E1*x1)) + lam*(E1*x1)",
    # lam E1 x1 + (1-lam) B(E1,x1) E1 = E1(E1 x1)
    "primitivityFrobenius": "lam*(E1*x1) + (1-lam)*B(E1,x1)*E1 - E1*(E1*x1)",
    "fusionLambdaLambda": (
        "E1*((E1*x1)*(E1*x2)) - lam*lam*B(E1,x2)*(E1*x1) - lam*lam*B(E1,x1)*(E1*x2)"
        " - lam*lam*B(E1*x1,x2)*E1 - (1-3*lam*lam)*B(E1,x1)*B(E1,x2)*E1"
    ),
    # tau_a multiplicativity as a bracket identity: (x1 x2)^tau - x1^tau x2^tau
    # expanded with y^tau = y + (2/lam) B(E1,y) E1 - (2/lam) E1 y, kept in its
    # two-level form (coefficients 2/lam and 4/lam^2)
    "miyamotoClosure": (
        "2/lam*B(E1,x1*x2)*E1 - 2/lam*E1*(x1*x2) - 2/lam*B(E1,x1)*(E1*x2) - 2/lam*B(E1,x2)*(E1*x1)"
        " + 2/lam*(E1*x1)*x2 + 2/lam*(E1*x2)*x1"
        " - 4/(lam*lam)*B(E1,x1)*B(E1,x2)*E1 - 4/(lam*lam)*(E1*x1)*(E1*x2)"
        " + 4/(lam*lam)*B(E1,x1)*(E1*(E1*x2)) + 4/(lam*lam)*B(E1,x2)*(E1*(E1*x1))"
    ),
    # with ab = E1 E2 and h = lam(1-lam)/2: (a ab - b ab - h a + h b) ab = 0,
    # (a ab - lam ab - h a)(ab - b) = 0 and (a ab - lam ab - h a) ab = 0
    "matsuoPairA": "(E1*(E1*E2) - E2*(E1*E2) - lam*(1-lam)/2*E1 + lam*(1-lam)/2*E2)*(E1*E2)",
    "matsuoPairB": "(E1*(E1*E2) - lam*(E1*E2) - lam*(1-lam)/2*E1)*(E1*E2 - E2)",
    "matsuoCriterion": "(E1*(E1*E2) - lam*(E1*E2) - lam*(1-lam)/2*E1)*(E1*E2)",
    # E1(x1 p01(x2)) - (E1 x1) p01(x2) - E1(p0(x1) p0(x2)), where
    # p01(y) = y - E1 y/lam + B(E1,y) E1/lam projects onto the 0/1
    # eigenspaces and p0(y) = y - E1 y/lam + (1-lam)/lam B(E1,y) E1 onto the
    # 0-eigenspace of a primitive axis under a normal form, so this vanishes
    # identically for primitive axes of Jordan type
    "seress": (
        "E1*(x1*(x2 - E1*x2/lam + B(E1,x2)*E1/lam)) - (E1*x1)*(x2 - E1*x2/lam + B(E1,x2)*E1/lam)"
        " - E1*((x1 - E1*x1/lam + (1-lam)/lam*B(E1,x1)*E1)*(x2 - E1*x2/lam + (1-lam)/lam*B(E1,x2)*E1))"
    ),
}

BUILTIN_NAMES = tuple(_CATALOG)


def builtin_identity(name, field, lam=None):
    """The catalog polynomial ``name``, parsed with the eigenvalue symbol
    bound to lam."""
    text = _CATALOG.get(name)
    if text is None:
        raise UnknownIdentity(f"no catalog identity named {name!r}")
    if "lam" in text:
        if lam is None:
            raise UnknownIdentity(f"{name!r} requires a lambda binding")
        if lam == field.zero or lam == field.one:
            raise UnknownIdentity(f"{name!r} requires lambda outside {{0, 1}}")
    return parse_poly(text, field, lam=lam)
