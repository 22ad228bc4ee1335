"""JSON (de)serialization.

All scalars travel as canonical strings in the exact-scalar grammar, never
as native numbers, so round trips are bit-exact.

Algebra document:
    {"field": {"kind": "Q"}, "dim": 3, "basis": ["a","b","c"],
     "structure": [[["c0","c1","c2"], ...], ...]}
Form document:
    {"gram": [["1","1/4",...], ...]}
"""

from __future__ import annotations

import json

from .algebra import Algebra
from .errors import AxialError, SchemaError
from .fields import field_from_json
from .frobenius import BilinearForm
from .linalg import Matrix

__all__ = [
    "algebra_to_json",
    "algebra_from_json",
    "read_json",
    "load_algebra",
    "save_algebra",
    "element_to_json",
    "element_from_json",
    "form_to_json",
    "form_from_json",
]


def algebra_to_json(A):
    field = A.field
    return {
        "field": field.to_json(),
        "dim": A.dim,
        "basis": list(A.basis_names),
        "structure": [
            [[field.format(c) for c in cell] for cell in row]
            for row in A.structure
        ],
    }


def algebra_from_json(doc):
    if not isinstance(doc, dict):
        raise SchemaError("algebra document must be an object")
    for key in ("field", "dim", "basis", "structure"):
        if key not in doc:
            raise SchemaError(f"algebra document lacks {key!r}")
    field = field_from_json(doc["field"])
    dim = doc["dim"]
    basis = doc["basis"]
    if not isinstance(dim, int) or not isinstance(basis, list) or len(basis) != dim:
        raise SchemaError("dim does not match the basis list")
    structure = doc["structure"]
    if not isinstance(structure, list) or len(structure) != dim:
        raise SchemaError("structure grid has wrong shape")
    parsed = []
    for row in structure:
        if not isinstance(row, list) or len(row) != dim:
            raise SchemaError("structure grid has wrong shape")
        prow = []
        for cell in row:
            if not isinstance(cell, list) or len(cell) != dim:
                raise SchemaError("structure cell has wrong length")
            prow.append([_parse(field, s) for s in cell])
        parsed.append(prow)
    return Algebra(field, basis, parsed)


def _parse(field, text):
    if not isinstance(text, str):
        raise SchemaError(f"scalars must be strings, got {text!r}")
    try:
        return field.parse(text)
    except AxialError as exc:
        raise SchemaError(str(exc)) from exc


def read_json(path):
    """The document in a UTF-8 JSON file; undecodable bytes or bad JSON are a SchemaError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
            raise SchemaError(f"{path} is not a UTF-8 JSON document: {exc}") from exc


def load_algebra(path):
    return algebra_from_json(read_json(path))


def save_algebra(A, path):
    with open(path, "w") as fh:
        json.dump(algebra_to_json(A), fh, indent=1)
        fh.write("\n")


def element_to_json(x):
    return x.format()


def element_from_json(doc, A):
    if not isinstance(doc, list) or len(doc) != A.dim:
        raise SchemaError(f"element must be a list of {A.dim} scalar strings")
    return A.element([_parse(A.field, s) for s in doc])


def form_to_json(form):
    field = form.algebra.field
    return {"gram": [[field.format(c) for c in row] for row in form.gram.rows]}


def form_from_json(doc, A):
    if not isinstance(doc, dict) or "gram" not in doc:
        raise SchemaError("form document lacks 'gram'")
    rows = doc["gram"]
    if not isinstance(rows, list) or len(rows) != A.dim:
        raise SchemaError("gram has wrong shape")
    parsed = []
    for row in rows:
        if not isinstance(row, list) or len(row) != A.dim:
            raise SchemaError("gram has wrong shape")
        parsed.append([_parse(A.field, s) for s in row])
    return BilinearForm(A, Matrix(A.field, parsed))
