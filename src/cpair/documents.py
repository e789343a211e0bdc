"""JSON documents for pairs, modules and deformations.

Scalars are exact: integers, or rationals written as strings "p/q".  Floats
are rejected at parse time (a decimal literal anywhere in the file is an
input error, not a rounding opportunity).  Structure-constant tables are
sparse: a table is a list of [indices..., coefficient-vector] rows, rows
add up, and everything not mentioned is zero.

Pair documents:

    {"field": "Q",
     "assoc":   {"dim": 2, "basis": ["1", "x"], "table": [[0, 0, ["1", "0"]], ...]},
     "leibniz": {"dim": 0, "basis": [], "table": []},
     "mu": [],                     # one dim(A) x dim(A) matrix per L basis element
     "module": {...}}              # optional; omitted means adjoint coefficients

The i-th row of a mu matrix is the image of the i-th A basis element.  The
optional module section gives {"M": {"dim": m}, "P": {"dim": p}, "actions":
{"left", "right", "M_left", "M_right", "P_left", "P_right"}, "phi"} with the
same sparse table convention.

Deformation documents:

    {"pair": "heisenberg" | {inline pair document},
     "order": 1,
     "coefficients": {"1": {"alpha":  [[a, b, vec], ...],
                            "mu":     [[x, a, vec], ...],
                            "lambda": [[x, y, vec], ...]}}}

mu rows are written operator-style (bracket argument first); the transposed
internal storage is invisible here.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import prod

import numpy as np

from . import catalog
from .cochains import Cochain
from .deformations import Deformation
from .errors import InputError
from .structures import (AssocAlgebra, CourantPair, CPModule, Derivation,
                         LeibnizAlgebra)

ZERO = Fraction(0)

#: The most cells (8 bytes each) one structure tensor of a document may declare.
MAX_TENSOR_CELLS = 10 ** 6

RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_scalar(x, where: str = "value") -> Fraction:
    if isinstance(x, bool):
        raise InputError(f"{where}: expected a rational, got a boolean")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        s = x.strip()
        if not RATIONAL_RE.match(s):
            raise InputError(f"{where}: {x!r} is not an exact rational "
                             f"(write integers or \"p/q\")")
        if "/" in s:
            num, den = s.split("/")
            if int(den) == 0:
                raise InputError(f"{where}: zero denominator in {x!r}")
            return Fraction(int(num), int(den))
        return Fraction(int(s))
    raise InputError(f"{where}: expected a rational, got {type(x).__name__}")


def scalar_str(x: Fraction) -> str:
    return str(x)


def _reject_float(s):
    raise InputError(f"decimal literal {s!r} is not exact; write rationals as \"p/q\"")


def loads(text: str) -> dict:
    """Parse a JSON document, rejecting floats and non-finite constants."""
    try:
        return json.loads(text, parse_float=_reject_float,
                          parse_constant=_reject_float)
    except json.JSONDecodeError as exc:
        raise InputError(f"not valid JSON: {exc}") from None


def load_file(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    doc = loads(text)
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top level must be a JSON object")
    return doc


def is_deformation_document(doc: dict) -> bool:
    return "coefficients" in doc or "order" in doc


# ---------------------------------------------------------------------------
# sparse tables <-> tensors
# ---------------------------------------------------------------------------

def _index(x, bound, where):
    if not isinstance(x, int) or isinstance(x, bool):
        raise InputError(f"{where}: index {x!r} is not an integer")
    if not 0 <= x < bound:
        raise InputError(f"{where}: index {x} out of range [0, {bound})")
    return x


def fill_table(arr: np.ndarray, table, where: str) -> None:
    """Accumulate sparse [indices..., vector] rows into a tensor in place."""
    arity = arr.ndim - 1
    vlen = arr.shape[-1]
    if table is None:
        return
    if not isinstance(table, list):
        raise InputError(f"{where}: table must be a list of rows")
    for r, row in enumerate(table):
        loc = f"{where}[{r}]"
        if not isinstance(row, list) or len(row) != arity + 1:
            raise InputError(f"{loc}: row must be [{arity} indices, vector]")
        key = tuple(_index(row[k], arr.shape[k], loc) for k in range(arity))
        vec = row[arity]
        if not isinstance(vec, list) or len(vec) != vlen:
            raise InputError(f"{loc}: coefficient vector must have length {vlen}")
        for s, x in enumerate(vec):
            c = parse_scalar(x, loc)
            if c:
                arr[key + (s,)] = arr[key + (s,)] + c


def table_of(arr: np.ndarray):
    """The sparse table of a tensor: nonzero keys with stringified vectors."""
    out = []
    lead = arr.shape[:-1]
    it = np.ndindex(*lead) if lead else iter([()])
    for key in it:
        vec = arr[key]
        if any(vec):
            out.append(list(key) + [[scalar_str(x) for x in vec]])
    return out


def _matrix_of(mat: np.ndarray):
    return [[scalar_str(x) for x in row] for row in mat]


def _parse_matrix(data, rows, cols, where):
    if not isinstance(data, list) or len(data) != rows:
        raise InputError(f"{where}: expected {rows} matrix rows")
    out = np.full((rows, cols), ZERO, dtype=object)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise InputError(f"{where}[{i}]: expected {cols} entries")
        for j, x in enumerate(row):
            out[i, j] = parse_scalar(x, f"{where}[{i}][{j}]")
    out.setflags(write=False)
    return out


def _check_cells(shape, where):
    """Refuse a tensor shape above MAX_TENSOR_CELLS before anything is allocated."""
    cells = prod(shape)
    if cells > MAX_TENSOR_CELLS:
        raise InputError(f"{where}: a {' x '.join(map(str, shape))} tensor of "
                         f"{cells} cells (at least {cells * 8 // 10 ** 6} MB) "
                         f"exceeds the limit of {MAX_TENSOR_CELLS} cells")


def _labels(section, dim, where):
    labels = section.get("basis")
    if labels is None:
        return ()
    if (not isinstance(labels, list) or len(labels) != dim
            or not all(isinstance(s, str) for s in labels)):
        raise InputError(f"{where}.basis: expected {dim} label strings")
    return tuple(labels)


# ---------------------------------------------------------------------------
# pairs
# ---------------------------------------------------------------------------

def _parse_algebra_section(doc, name, where):
    section = doc.get(name)
    if not isinstance(section, dict):
        raise InputError(f"{where}: missing or malformed {name!r} section")
    dim = section.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise InputError(f"{where}.{name}.dim: must be a nonnegative integer")
    _check_cells((dim, dim, dim), f"{where}.{name}.dim")
    arr = np.full((dim, dim, dim), ZERO, dtype=object)
    fill_table(arr, section.get("table"), f"{where}.{name}.table")
    arr.setflags(write=False)
    return dim, arr, _labels(section, dim, f"{where}.{name}")


def pair_from_document(doc: dict, where: str = "document"):
    """(CourantPair, CPModule or None) from a parsed pair document."""
    if doc.get("field") != "Q":
        raise InputError(f"{where}.field: must be \"Q\" (exact rationals)")
    dA, mul, la = _parse_algebra_section(doc, "assoc", where)
    dL, br, ll = _parse_algebra_section(doc, "leibniz", where)
    A = AssocAlgebra(dA, mul, la)
    L = LeibnizAlgebra(dL, br, ll)
    mu_doc = doc.get("mu", [])
    if not isinstance(mu_doc, list) or len(mu_doc) != dL:
        raise InputError(f"{where}.mu: expected {dL} matrices")
    mus = tuple(Derivation(_parse_matrix(m, dA, dA, f"{where}.mu[{x}]"))
                for x, m in enumerate(mu_doc))
    pair = CourantPair(A, L, mus)
    module = None
    if "module" in doc and doc["module"] is not None:
        module = _module_from_document(doc["module"], pair, f"{where}.module")
    return pair, module


def _module_from_document(doc, pair, where) -> CPModule:
    if not isinstance(doc, dict):
        raise InputError(f"{where}: must be an object")
    try:
        mdim = doc["M"]["dim"]
        pdim = doc["P"]["dim"]
    except (KeyError, TypeError):
        raise InputError(f"{where}: need M.dim and P.dim") from None
    for d, nm in ((mdim, "M.dim"), (pdim, "P.dim")):
        if not isinstance(d, int) or isinstance(d, bool) or d < 0:
            raise InputError(f"{where}.{nm}: must be a nonnegative integer")
    dA, dL = pair.A.dim, pair.L.dim
    shapes = {
        "left": (dA, mdim, mdim),
        "right": (mdim, dA, mdim),
        "M_left": (dL, mdim, mdim),
        "M_right": (mdim, dL, mdim),
        "P_left": (dL, pdim, pdim),
        "P_right": (pdim, dL, pdim),
    }
    for nm, shape in [*shapes.items(), ("phi", (pdim, dA, mdim))]:
        _check_cells(shape, f"{where} tensor {nm}")
    actions = doc.get("actions") or {}
    if not isinstance(actions, dict):
        raise InputError(f"{where}.actions: must be an object")
    tensors = {}
    for nm, shape in shapes.items():
        arr = np.full(shape, ZERO, dtype=object)
        fill_table(arr, actions.get(nm), f"{where}.actions.{nm}")
        arr.setflags(write=False)
        tensors[nm] = arr
    phi = np.full((pdim, dA, mdim), ZERO, dtype=object)
    fill_table(phi, doc.get("phi"), f"{where}.phi")
    phi.setflags(write=False)
    return CPModule(M_dim=mdim, P_dim=pdim,
                    left_act=tensors["left"], right_act=tensors["right"],
                    M_left=tensors["M_left"], M_right=tensors["M_right"],
                    P_left=tensors["P_left"], P_right=tensors["P_right"],
                    phi=phi)


def pair_to_document(pair: CourantPair, module: CPModule = None) -> dict:
    doc = {
        "field": "Q",
        "assoc": {"dim": pair.A.dim,
                  "basis": list(pair.A.basis_labels),
                  "table": table_of(pair.A.mul)},
        "leibniz": {"dim": pair.L.dim,
                    "basis": list(pair.L.basis_labels),
                    "table": table_of(pair.L.bracket)},
        "mu": [_matrix_of(d.matrix) for d in pair.mu],
    }
    if module is not None:
        doc["module"] = {
            "M": {"dim": module.M_dim},
            "P": {"dim": module.P_dim},
            "actions": {
                "left": table_of(module.left_act),
                "right": table_of(module.right_act),
                "M_left": table_of(module.M_left),
                "M_right": table_of(module.M_right),
                "P_left": table_of(module.P_left),
                "P_right": table_of(module.P_right),
            },
            "phi": table_of(module.phi),
        }
    return doc


def same_structure(p1: CourantPair, p2: CourantPair) -> bool:
    """Whether two pairs have identical structure tensors (labels ignored)."""
    if p1 is p2:
        return True
    if (p1.A.dim, p1.L.dim) != (p2.A.dim, p2.L.dim):
        return False
    if any(a != b for a, b in zip(p1.A.mul.reshape(-1), p2.A.mul.reshape(-1))):
        return False
    if any(a != b for a, b in zip(p1.L.bracket.reshape(-1), p2.L.bracket.reshape(-1))):
        return False
    return all(not any(x != y for x, y in zip(d1.matrix.reshape(-1),
                                              d2.matrix.reshape(-1)))
               for d1, d2 in zip(p1.mu, p2.mu))


# ---------------------------------------------------------------------------
# deformations
# ---------------------------------------------------------------------------

def deformation_from_document(doc: dict, pair: CourantPair = None,
                              where: str = "document") -> Deformation:
    """Build a deformation; ``pair`` overrides the document's pair section
    (used to make two documents share one pair object)."""
    if pair is None:
        ref = doc.get("pair")
        if isinstance(ref, str):
            pair = catalog.get(ref).pair
        elif isinstance(ref, dict):
            pair, _ = pair_from_document(ref, f"{where}.pair")
        else:
            raise InputError(f"{where}.pair: must be a catalog name or an "
                             f"inline pair document")
    order = doc.get("order", 0)
    if not isinstance(order, int) or isinstance(order, bool) or order < 0:
        raise InputError(f"{where}.order: must be a nonnegative integer")
    coeffs = doc.get("coefficients") or {}
    if not isinstance(coeffs, dict):
        raise InputError(f"{where}.coefficients: must map orders to term objects")
    dA, dL = pair.A.dim, pair.L.dim
    terms = {}
    for key, section in coeffs.items():
        try:
            n = int(key)
        except (TypeError, ValueError):
            raise InputError(f"{where}.coefficients: key {key!r} is not an "
                             f"order") from None
        if not 1 <= n <= order:
            raise InputError(f"{where}.coefficients[{key}]: order must be "
                             f"between 1 and {order}")
        if not isinstance(section, dict):
            raise InputError(f"{where}.coefficients[{key}]: must be an object")
        loc = f"{where}.coefficients[{key}]"
        a = np.full((dA, dA, dA), ZERO, dtype=object)
        fill_table(a, section.get("alpha"), f"{loc}.alpha")
        m_op = np.full((dL, dA, dA), ZERO, dtype=object)
        fill_table(m_op, section.get("mu"), f"{loc}.mu")
        l = np.full((dL, dL, dL), ZERO, dtype=object)
        fill_table(l, section.get("lambda"), f"{loc}.lambda")
        terms[n] = (Cochain(2, 0, a),
                    Cochain(1, 1, m_op.transpose(1, 0, 2).copy()),
                    Cochain(0, 2, l))
    return Deformation.from_terms(pair, terms, order=order)


def deformation_to_document(d: Deformation, pair_ref: str = None) -> dict:
    """Serialize; ``pair_ref`` names a catalog entry instead of inlining."""
    doc = {"pair": pair_ref if pair_ref is not None
           else pair_to_document(d.pair),
           "order": d.order,
           "coefficients": {}}
    for n in range(1, d.order + 1):
        section = {}
        a = table_of(d.alphas[n].coeffs)
        if a:
            section["alpha"] = a
        m = table_of(d.mus[n].coeffs.transpose(1, 0, 2))
        if m:
            section["mu"] = m
        l = table_of(d.lambdas[n].coeffs)
        if l:
            section["lambda"] = l
        if section:
            doc["coefficients"][str(n)] = section
    return doc
