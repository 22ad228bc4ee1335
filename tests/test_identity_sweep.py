"""The depth-first identity sweep against Element products.

``_first_nonzero`` walks the basis tuples depth first and recomputes only
the program nodes whose deepest leaf changed, on lifts that are never
reduced over Q and Q(t).  These tests compare its verdicts and witnesses
with a walk that evaluates every tuple through ``reference_evaluate``,
which multiplies ``Element``s and uses no lifts, and count the node
evaluations of one sweep.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from conftest import transpositions
from test_identities import linearized_components, reference_evaluate, reference_slot_assignments

from axial import (
    QQ,
    PrimeField,
    RationalFunctions,
    builtin_identity,
    evaluate,
    holds_as_identity,
    make_algebra,
    matsuo_from_triple_system,
    parse_poly,
    universal_2gen,
)
from axial.identities import BUILTIN_NAMES, _first_nonzero, _Program, _slot_assignments, _symmetry_blocks

HALF = Fraction(1, 2)


def reference_first_nonzero(f, A, form, e_options, values, blocks=None):
    """The first (E assignment, tuple) at which f does not vanish, in the
    order of ``itertools.product`` over the blocks' sorted tuples, E
    assignments outermost; every tuple when blocks is None.  e_options
    holds the (members, lifts) pairs of ``_slot_assignments``."""
    if blocks is None:
        blocks = [[j] for j in f.x_indices()]
    xvars = [j for block in blocks for j in block]
    for amap, _lifts in e_options:
        sorted_tuples = (itertools.combinations_with_replacement(range(len(values)), len(b)) for b in blocks)
        for parts in itertools.product(*sorted_tuples):
            xmap = {j: values[k] for j, k in zip(xvars, itertools.chain.from_iterable(parts))}
            if not reference_evaluate(f, xmap, amap, form, A).is_zero():
                return {"x": xmap, "e": amap}
    return None


def reference_random_witness(f, A, form, e_options):
    """The random fallback of the witness search, drawn as the engine draws
    it: coordinates in [-bound, bound] per X variable in index order, then
    one E assignment."""
    field, rng = A.field, random.Random(0)
    xvars, evars = f.x_indices(), f.e_indices()
    for attempt in range(5000):
        bound = 3 + attempt // 500
        xmap = {j: A.element([field.from_int(rng.randint(-bound, bound)) for _ in range(A.dim)]) for j in xvars}
        amap = e_options[rng.randrange(len(e_options))][0] if evars else {}
        if not reference_evaluate(f, xmap, amap, form, A).is_zero():
            return {"x": xmap, "e": amap}
    return None


def check_against_reference(f, A, pool, form, distinct, small=False):
    """holds_as_identity and _first_nonzero on f and its linearized
    components against the reference walks; returns the verdict.  With
    small, the components are also swept without their blocks, and f is
    swept even when it holds."""
    evars = f.e_indices()
    e_options = _slot_assignments(f, pool, distinct)
    assert ([amap for amap, _lifts in e_options]
            == [dict(zip(evars, c)) for c in reference_slot_assignments(pool, len(evars), distinct)])
    verdict = holds_as_identity(f, A, idempotent_pool=pool, form=form, distinct_slots=distinct)
    basis = A.basis()
    maxdeg = max((f.degree_in_x(j) for j in f.x_indices()), default=0)
    if A.field.size is not None and A.field.size <= maxdeg:
        vectors = [A.element(v) for v in itertools.product(A.field.elements(), repeat=A.dim)]
        want = reference_first_nonzero(f, A, form, e_options, vectors)
        assert _first_nonzero(f, A, form, e_options, vectors) == want
        assert (verdict.holds, verdict.witness, verdict.method) == (want is None, want, "exhaustive-field")
        return verdict
    holds = True
    for g in linearized_components(f):
        blocks = _symmetry_blocks(g)
        want = reference_first_nonzero(g, A, form, e_options, basis, blocks)
        assert _first_nonzero(g, A, form, e_options, basis, blocks) == want
        if small:
            assert _first_nonzero(g, A, form, e_options, basis) == reference_first_nonzero(g, A, form, e_options,
                                                                                          basis)
        holds = holds and want is None
    # the witness sweep on f itself, which every tuple of a holding f with
    # many variables would make slow
    want = None
    if not holds or small or len(f.x_indices()) <= 2:
        want = reference_first_nonzero(f, A, form, e_options, basis)
        assert _first_nonzero(f, A, form, e_options, basis) == want
    if not holds and want is None:
        want = reference_random_witness(f, A, form, e_options)
    assert verdict.method == "multilinear-basis" and verdict.holds == holds
    assert verdict.witness == (None if holds else want)
    return verdict


def test_sweep_against_element_products_over_q(mats3c, h3_pair, s4):
    tg = universal_2gen(HALF, Fraction(1, 8))
    h3_alg, h3_form, a, b = h3_pair
    cases = [
        (mats3c.algebra, list(mats3c.axes), mats3c.form),
        (tg.algebra, list(tg.axes), tg.form),
        (h3_alg, [a, b], h3_form),
        (s4.algebra, list(s4.axes), s4.form),
    ]
    failures = 0
    for A, pool, form in cases:
        for name in BUILTIN_NAMES:
            f = builtin_identity(name, QQ, HALF)
            if A is h3_alg and not f.e_indices():
                continue  # the pair is the pool; the rest is the S4 search in dimension 6 again
            verdict = check_against_reference(f, A, pool, form, name.startswith("matsuo"), small=A.dim <= 3)
            failures += not verdict.holds
    assert failures >= 5  # the H3 Matsuo criteria and more


def test_sweep_against_element_products_over_f101():
    F = PrimeField(101)
    half = F.from_fraction(HALF)
    s4 = matsuo_from_triple_system(transpositions(4), half, F)
    for name in BUILTIN_NAMES:
        check_against_reference(builtin_identity(name, F, half), s4.algebra, list(s4.axes), s4.form,
                                name.startswith("matsuo"))


def test_sweep_against_element_products_over_f5_exhaustion():
    F5 = PrimeField(5, allow_small=True)
    A5 = make_algebra(F5, 1, ["b"], [[[F5.one]]])
    seven = check_against_reference(parse_poly("(((((x1*x1)*x1)*x1)*x1)*x1)*x1 - x1", F5), A5, [], None, False)
    five = check_against_reference(parse_poly("((((x1*x1)*x1)*x1)*x1) - x1", F5), A5, [], None, False)
    assert not seven.holds and five.holds


def test_sweep_against_element_products_over_qt():
    Qt = RationalFunctions("t")
    t = Qt.variable()
    tg = universal_2gen(t, t / Qt.from_int(2), Qt)
    held = 0
    for name in BUILTIN_NAMES:
        verdict = check_against_reference(builtin_identity(name, Qt, t), tg.algebra, list(tg.axes), tg.form,
                                          name.startswith("matsuo"), small=True)
        held += verdict.holds
    assert 0 < held < len(BUILTIN_NAMES)


def test_components_without_some_e_slots_read_their_own(mats3c):
    # each X-degree of f carries one E slot, so each linearized component
    # drops the others and must step its own slots' lifts; with 0 first in
    # the pool the first assignments vanish, so a component that read
    # another slot's member would report another witness
    A = mats3c.algebra
    f = parse_poly("E1*x1 + E2*(x1*x1) + E3*((x1*x1)*x1)", QQ)
    pool = [A.zero(), mats3c.axes[0], mats3c.axes[1]]
    for distinct in (False, True):
        assert not check_against_reference(f, A, pool, None, distinct, small=True).holds


def product_nodes(f):
    """The distinct product subtrees of the bodies and bracket arguments of f."""
    nodes = set()

    def walk(t):
        if t[0] not in ("E", "X"):
            nodes.add(t)
            walk(t[1])
            walk(t[2])

    for brackets, body in f.terms:
        for t in [body] + [u for pair in brackets for u in pair]:
            walk(t)
    return nodes


def leaves(t):
    return [t] if t[0] in ("E", "X") else leaves(t[1]) + leaves(t[2])


@pytest.mark.parametrize("blocked", [True, False])
def test_sweep_computes_each_node_once_per_prefix(mats3c, monkeypatch, blocked):
    # on linearized fourPowerAssoc, which holds on 3C, the sweep visits
    # every tuple: a node of depth k (its deepest leaf is the variable at
    # position k) is computed once per distinct prefix of length k + 1
    A = mats3c.algebra
    (g,) = linearized_components(builtin_identity("fourPowerAssoc", QQ))
    blocks = _symmetry_blocks(g) if blocked else [[j] for j in g.x_indices()]
    assert blocks == ([[1, 2, 3, 4]] if blocked else [[1], [2], [3], [4]])
    xvars = [j for block in blocks for j in block]
    by_depth = [0] * len(xvars)
    for t in product_nodes(g):
        by_depth[max(xvars.index(leaf[1]) for leaf in leaves(t))] += 1
    assert by_depth[0] == 0 and 0 not in by_depth[1:]

    counted = []
    step = _Program.step

    def counting_step(self, k, lift):
        counted.append(len(self.levels[k]))
        return step(self, k, lift)

    monkeypatch.setattr(_Program, "step", counting_step)
    assert _first_nonzero(g, A, None, _slot_assignments(g, [], False), A.basis(), blocks if blocked else None) is None
    n = A.dim
    # prefixes of length k + 1: sorted ones within the one block, or all
    prefixes = [math.comb(n + k, k + 1) if blocked else n ** (k + 1) for k in range(len(xvars))]
    assert sum(counted) == sum(c * m for c, m in zip(by_depth, prefixes))
    assert len(counted) == sum(prefixes)


def nested_power(k):
    """x1 multiplied k times on the right, left nested: depth k."""
    text = "x1"
    for _ in range(k):
        text = f"({text})*x1"
    return text


def nested_slot_identity(k, lam, field):
    """E1*(E1*(...(E1*x1))) with k factors E1, beta, and that power minus
    alpha E1*x1 + beta E1*(E1*x1): on an axis whose L has eigenvalues 0, 1
    and lam, L^k = alpha L + beta L^2, with beta = (1 - lam^(k-1))/(1 - lam)
    and alpha = 1 - beta."""
    one = field.one
    beta = (one - lam ** (k - 1)) / (one - lam)
    text = "x1"
    for _ in range(k):
        text = f"E1*({text})"
    f = parse_poly(text, field)
    return f, beta, f - (one - beta) * parse_poly("E1*x1", field) - beta * parse_poly("E1*(E1*x1)", field)


def test_unreduced_lifts_stay_exact_on_deep_and_rational_function_inputs(s4):
    Qt = RationalFunctions("t")
    t = Qt.variable()
    tg = universal_2gen(t, t / Qt.from_int(2), Qt)
    rng = random.Random(29)
    for A, pool, form, lam in ((s4.algebra, list(s4.axes), s4.form, HALF), (tg.algebra, list(tg.axes), tg.form, t)):
        K = A.field

        def dense():
            return A.element([K.from_fraction(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
                              + (t * K.from_int(rng.randint(-2, 2)) if K == Qt else K.zero) for _ in range(A.dim)])

        # degree 13 in x1, too high to linearize: evaluated only
        power = parse_poly(f"{nested_power(12)} - x1", K)
        slot_power, beta, deep = nested_slot_identity(12, lam, K)
        for _ in range(2):
            xs = {1: dense()}
            val = evaluate(power, xs, {}, algebra=A)
            assert val == reference_evaluate(power, xs, {}, None, A) and not val.is_zero()
            for e in pool:
                for f in (slot_power, deep):
                    val = evaluate(f, xs, {1: e}, algebra=A)
                    assert val == reference_evaluate(f, xs, {1: e}, None, A)
                assert evaluate(deep, xs, {1: e}, algebra=A).is_zero()
        assert check_against_reference(deep, A, pool, form, False).holds
        wrong = deep + (K.one - beta) * parse_poly("E1*x1", K)  # L^12 - beta L^2
        verdict = check_against_reference(wrong, A, pool, form, False)
        assert not verdict.holds and verdict.witness is not None
