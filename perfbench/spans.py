"""In-memory span tracing of the public ``axial`` layers, from outside the package.

``install(recorder)`` replaces every traced function and method with a
wrapper that records one span (name, start, end, parent, job) per call.  It
replaces the name in *every* ``axial.*`` module namespace that holds it, so
``from .linalg import minimal_polynomial`` in ``axes`` is traced too, then
runs a self-check that no unwrapped original is left in any of them.  The
returned handle restores the originals.

Self time of a span is its duration minus the durations of its direct
children; per-layer metrics are summed over the spans of one pass.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# (metric stem, module, attribute path).  A dotted path names a method.
TRACED = (
    ("linalg.rref", "axial.linalg", "Matrix.rref"),
    ("linalg.solve", "axial.linalg", "Matrix.solve"),
    ("linalg.kernel", "axial.linalg", "Matrix.kernel"),
    ("linalg.matmul", "axial.linalg", "Matrix.__matmul__"),
    ("linalg.minimal_polynomial", "axial.linalg", "minimal_polynomial"),
    ("linalg.span_contains", "axial.linalg", "span_contains"),
    ("algebra.product", "axial.algebra", "Element.__mul__"),
    ("algebra.left_multiplication_matrix", "axial.algebra", "Element.left_multiplication_matrix"),
    ("algebra.generate_subalgebra", "axial.algebra", "generate_subalgebra"),
    ("axes.check_axis", "axial.axes", "check_axis"),
    ("axes.eigen_decompose", "axial.axes", "eigen_decompose"),
    ("axes.check_fusion", "axial.axes", "check_fusion"),
    ("axes.miyamoto", "axial.axes", "miyamoto"),
    ("axes.component_recovery", "axial.axes", "component_recovery"),
    ("axes.seress_check", "axial.axes", "seress_check"),
    ("axes.axis_orbit", "axial.axes", "axis_orbit"),
    ("frobenius.solve_frobenius", "axial.frobenius", "solve_frobenius"),
    ("frobenius.form_check", "axial.frobenius", "BilinearForm._check_associative"),
    ("frobenius.radical", "axial.frobenius", "radical"),
    ("identities.holds_as_identity", "axial.identities", "holds_as_identity"),
    ("identities.evaluate", "axial.identities", "evaluate"),
    ("identities.full_linearize", "axial.identities", "full_linearize"),
    ("identities.parse_poly", "axial.identities", "parse_poly"),
    ("constructions.matsuo_from_triple_system", "axial.constructions", "matsuo_from_triple_system"),
    ("constructions.jordan_symmetric_matrices", "axial.constructions", "jordan_symmetric_matrices"),
    ("constructions.universal_2gen", "axial.constructions", "universal_2gen"),
    ("solidity.solid_audit", "axial.solidity", "solid_audit"),
    ("solidity.enumerate_idempotents_2gen", "axial.solidity", "enumerate_idempotents_2gen"),
    ("fields.poly_roots", "axial.fields", "Rationals.poly_roots"),
    ("fields.poly_roots", "axial.fields", "PrimeField.poly_roots"),
    ("fields.poly_roots", "axial.fields", "RationalFunctions.poly_roots"),
    ("fields.sqrt", "axial.fields", "Rationals.sqrt"),
    ("fields.sqrt", "axial.fields", "PrimeField.sqrt"),
    ("fields.sqrt", "axial.fields", "RationalFunctions.sqrt"),
    ("cli.main", "axial.cli", "main"),
    ("io.load_algebra", "axial.io", "load_algebra"),
)

# Scalar arithmetic is counted, not timed: a span per field operation would
# cost more than the operation.  Fraction cannot be patched from outside.
COUNTED = (
    ("fields.fp_ops", "axial.fields", "Fp"),
    ("fields.ratfunc_ops", "axial.fields", "RatFunc"),
)
ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
         "__truediv__", "__rtruediv__", "__neg__", "__pow__")

# Counters attributed to the enclosing span: rref work done inside
# solve_frobenius, and minimal polynomials built inside one axis check.
ENTRIES = "linalg.rref.entries"
FROB_ENTRIES = "frobenius.solve_frobenius.rref_entries"
CHECK_MINPOLYS = "axes.minimal_polynomials_in_check"


class Recorder:
    """Spans and counters of the traced calls; ``on`` gates recording."""

    def __init__(self):
        self.tracing = False  # wrappers installed and this pass is traced
        self.on = False  # a job is running under tracing
        self.job = -1
        self.spans = []  # (id, name, start, end, parent id, job)
        self.stack = []
        self.next_id = 0
        self.counts = Counter()
        self.active = Counter()

    def clear(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.active = Counter()


def _span_wrapper(rec, name, fn):
    clock = time.perf_counter
    is_rref = name == "linalg.rref"
    is_minpoly = name == "linalg.minimal_polynomial"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.on:
            return fn(*args, **kwargs)
        if is_rref:
            entries = args[0].nrows * args[0].ncols
            rec.counts[ENTRIES] += entries
            if rec.active["frobenius.solve_frobenius"]:
                rec.counts[FROB_ENTRIES] += entries
        elif is_minpoly and rec.active["axes.check_axis"]:
            rec.counts[CHECK_MINPOLYS] += 1
        sid = rec.next_id
        rec.next_id += 1
        parent = rec.stack[-1] if rec.stack else -1
        rec.stack.append(sid)
        rec.active[name] += 1
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            rec.active[name] -= 1
            rec.stack.pop()
            rec.spans.append((sid, name, start, end, parent, rec.job))

    wrapper.__wrapped_original__ = fn
    return wrapper


def _count_wrapper(rec, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.on:
            rec.counts[name] += 1
        return fn(*args, **kwargs)

    wrapper.__wrapped_original__ = fn
    return wrapper


def _axial_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "axial" or n.startswith("axial."))]


class Installation:
    """Handle of installed wrappers; ``restore()`` puts the originals back."""

    def __init__(self, patches, originals):
        self.patches = patches  # (owner, attribute, original, wrapper)
        self.originals = originals

    def restore(self):
        for owner, attr, original, _wrapper in reversed(self.patches):
            setattr(owner, attr, original)
        leftover = find_wrappers()
        if leftover:
            raise RuntimeError(f"wrappers left after restore: {leftover}")


def install(rec):
    """Wrap every traced callable wherever an ``axial`` module names it."""
    for module in {m for _, m, _ in TRACED + COUNTED}:
        importlib.import_module(module)
    targets = []  # (owner, attribute, metric name, wrapper factory)
    for name, module, path in TRACED:
        owner = importlib.import_module(module)
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        targets.append((owner, attr, name, _span_wrapper))
    for name, module, cls_name in COUNTED:
        cls = getattr(importlib.import_module(module), cls_name)
        for attr in ARITH:
            if attr in vars(cls):
                targets.append((cls, attr, name, _count_wrapper))

    patches = []
    originals = {}
    for owner, attr, name, make in targets:
        original = vars(owner)[attr]
        wrapper = make(rec, name, original)
        originals[id(original)] = (original, wrapper)
        patches.append((owner, attr, original, wrapper))
        setattr(owner, attr, wrapper)
    # names other modules imported from the defining module
    for module in _axial_modules():
        for attr, value in list(vars(module).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                patches.append((module, attr, value, hit[1]))
                setattr(module, attr, hit[1])
    inst = Installation(patches, originals)
    missing = unwrapped_originals(inst)
    if missing:
        inst.restore()
        raise RuntimeError(f"unwrapped originals remain: {missing}")
    return inst


def unwrapped_originals(inst):
    """Every place an ``axial`` module or traced class still holds an original."""
    found = []
    owners = _axial_modules() + sorted({id(o): o for o, *_ in inst.patches if isinstance(o, type)}.values(),
                                       key=lambda c: c.__qualname__)
    for owner in owners:
        for attr, value in vars(owner).items():
            hit = inst.originals.get(id(value))
            if hit is not None and hit[0] is value:
                found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return found


def find_wrappers():
    """Names in ``axial`` modules and classes that still hold a wrapper."""
    found = []
    for module in _axial_modules():
        for attr, value in vars(module).items():
            owners = [value] if isinstance(value, type) and value.__module__.startswith("axial") else []
            if hasattr(value, "__wrapped_original__"):
                found.append(f"{module.__name__}.{attr}")
            for cls in owners:
                for cattr, cvalue in vars(cls).items():
                    if hasattr(cvalue, "__wrapped_original__"):
                        found.append(f"{module.__name__}.{attr}.{cattr}")
    return found


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------


def self_times(spans):
    """{name: (calls, self seconds)}; self = duration - direct children's durations."""
    child = defaultdict(float)
    for _sid, _name, start, end, parent, _job in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for sid, name, start, end, _parent, _job in spans:
        calls, busy = out.get(name, (0, 0.0))
        out[name] = (calls + 1, busy + (end - start) - child[sid])
    return out


def layer_stems():
    seen = []
    for name, _module, _path in TRACED:
        if name not in seen:
            seen.append(name)
    return seen


def pass_metrics(rec):
    """Per-layer metrics of one traced pass: calls and self time per stem,
    the attributed counters, and minimal polynomials per axis check."""
    times = self_times(rec.spans)
    out = {}
    for stem in layer_stems():
        calls, busy = times.get(stem, (0, 0.0))
        out[f"{stem}.calls"] = calls
        out[f"{stem}.self_s"] = busy
    for name, _module, _cls in COUNTED:
        out[f"{name}.calls"] = rec.counts[name]
    out[ENTRIES] = rec.counts[ENTRIES]
    out[FROB_ENTRIES] = rec.counts[FROB_ENTRIES]
    checks = out["axes.check_axis.calls"]
    out["axes.minpoly_per_check"] = rec.counts[CHECK_MINPOLYS] / checks if checks else 0.0
    return out


def metric_units():
    """Unit of every per-layer metric, in report order."""
    units = {}
    for stem in layer_stems():
        units[f"{stem}.calls"] = "count"
        units[f"{stem}.self_s"] = "s"
        if stem == "linalg.rref":
            units[ENTRIES] = "count"
        if stem == "frobenius.solve_frobenius":
            units[FROB_ENTRIES] = "count"
        if stem == "axes.axis_orbit":
            units["axes.minpoly_per_check"] = "ratio"
    for name, _module, _cls in COUNTED:
        units[f"{name}.calls"] = "count"
    return units
