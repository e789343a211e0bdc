"""Built-in, validated Courant pairs used as fixtures and demo inputs.

Each entry is constructed in code (never parsed), validated on first
construction, and cached, so every caller shares one pair object per entry
and with it all derived matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .cochains import Cochain, TotalCochain
from .cohomology import total_complex
from .deformations import Deformation, validate_deformation
from .errors import InputError, InternalError
from .linalg import solve
from .structures import (AssocAlgebra, CourantPair, Derivation, LeibnizAlgebra,
                         commutator_derivations_basis, hemisemidirect, tensor,
                         validate_pair, zero_tensor)

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True, eq=False)
class CatalogEntry:
    name: str
    pair: CourantPair
    featured_cochains: dict = field(default_factory=dict)
    featured_deformations: dict = field(default_factory=dict)
    notes: str = ""


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise InternalError(f"catalog: {what}")


def _check_valid(report, what: str) -> None:
    if not report.ok:
        raise InternalError(f"catalog: {what}: {report.failures[0]}")


def _truncated_line(n: int, labels) -> AssocAlgebra:
    """Q[x]/(x^n) on the basis 1, x, .., x^(n-1)."""
    mul = np.full((n, n, n), ZERO, dtype=object)
    for i in range(n):
        for j in range(n):
            if i + j < n:
                mul[i, j, i + j] = ONE
    mul.setflags(write=False)
    return AssocAlgebra(n, mul, tuple(labels))


@lru_cache(maxsize=None)
def heisenberg() -> CatalogEntry:
    """The Heisenberg bracket algebra anchored on a truncated polynomial line.

    L = span{e1, e2, e3} with [e1, e3] = e2 = -[e3, e1] (all other basis
    brackets zero); A = Q[x]/(x^3); mu(e1) = x d/dx, mu(e2) = mu(e3) = 0.
    A is a minimal function-algebra stand-in: the featured classes depend
    only on L's bracket and on mu(e2) = mu(e3) = 0, so any algebra with a
    nonzero derivation in the e1 slot exhibits the same phenomena.

    Featured 2-cochains phi1(e1,e1) = e2, phi2(e3,e3) = e2, phi3(e3,e1) = e2
    are closed in both directions, and each t*(0, 0, phi_i) is a valid
    order-1 deformation; none of the phi_i is antisymmetric, so none lives
    in the Lie-algebra (antisymmetric) cochain space.
    """
    A = _truncated_line(3, ("1", "x", "x^2"))
    br = np.full((3, 3, 3), ZERO, dtype=object)
    br[0, 2, 1] = ONE
    br[2, 0, 1] = -ONE
    br.setflags(write=False)
    L = LeibnizAlgebra(3, br, ("e1", "e2", "e3"))
    euler = Derivation(tensor([[0, 0, 0], [0, 1, 0], [0, 0, 2]], (3, 3)))
    nil = Derivation(zero_tensor((3, 3)))
    pair = CourantPair(A, L, (euler, nil, nil))
    _check_valid(validate_pair(pair), "heisenberg is not a Courant pair")

    e2 = [0, 1, 0]
    phis = {
        "phi1": Cochain.from_entries(0, 2, pair, {(0, 0): e2}),
        "phi2": Cochain.from_entries(0, 2, pair, {(2, 2): e2}),
        "phi3": Cochain.from_entries(0, 2, pair, {(2, 0): e2}),
    }
    deformations = {}
    tc = total_complex(pair)
    for name, phi in phis.items():
        closed = TotalCochain(2, (Cochain.zero(2, 0, pair),
                                  Cochain.zero(1, 1, pair), phi))
        _check(tc.is_cocycle(closed), f"featured cochain {name} is not closed")
        d = Deformation.from_terms(pair, {1: (None, None, phi)})
        _check_valid(validate_deformation(d),
                     f"featured deformation {name} is invalid")
        deformations[name] = d
    return CatalogEntry(
        name="heisenberg",
        pair=pair,
        featured_cochains=phis,
        featured_deformations=deformations,
        notes=("Heisenberg Leibniz (in fact Lie) algebra anchored by the Euler "
               "derivation x d/dx on the truncated line Q[x]/(x^3); the three "
               "featured bracket deformations are independent non-coboundary "
               "directions in degree-2 cohomology."))


@lru_cache(maxsize=None)
def dual_numbers_line() -> CatalogEntry:
    """A = Q[x]/(x^2) with no bracket algebra at all (L = 0).

    The featured order-1 deformation alpha1(x, x) = 1 moves the relation
    x^2 = 0 to x^2 = t; it extends with zero coefficients at every order,
    i.e. Q[x]/(x^2 - t) truncated.  With L = 0 the whole theory collapses
    onto the associative column, which makes this the cleanest fixture for
    the algebra-only obstruction identities.
    """
    A = _truncated_line(2, ("1", "x"))
    L = LeibnizAlgebra(0, zero_tensor((0, 0, 0)))
    pair = CourantPair(A, L, ())
    _check_valid(validate_pair(pair), "dual_numbers_line is not a Courant pair")
    alpha1 = Cochain.from_entries(2, 0, pair, {(1, 1): [1, 0]})
    d = Deformation.from_terms(pair, {1: (alpha1, None, None)})
    _check_valid(validate_deformation(d), "featured deformation alpha1 is invalid")
    return CatalogEntry(
        name="dual_numbers_line",
        pair=pair,
        featured_cochains={"alpha1": alpha1},
        featured_deformations={"alpha1": d},
        notes=("The dual-numbers line Q[x]/(x^2) with trivial bracket part; "
               "its featured deformation relaxes x^2 = 0 to x^2 = t."))


@lru_cache(maxsize=None)
def hemisemidirect_demo() -> CatalogEntry:
    """(A, Der(A) + A) for A = Q[x]/(x^3), anchored by projection onto Der(A).

    Der(A) is computed from the derivation equations, its commutator
    brackets are expanded in the computed basis, and the hemisemidirect
    bracket [(x,v),(y,w)] = ([x,y], x.w) glues the summands.  The anchor
    keeps the Der(A) component and kills the A component; two elements of
    the A summand always bracket to zero.
    """
    A = _truncated_line(3, ("1", "x", "x^2"))
    ders = commutator_derivations_basis(A)
    k = len(ders)
    _check(k == 2, f"Der(A) has dimension {k}, expected 2")
    # expand each commutator of basis derivations in the computed basis
    cols = [[ders[j].matrix[r, s] for j in range(k)]
            for r in range(A.dim) for s in range(A.dim)]
    br = np.full((k, k, k), ZERO, dtype=object)
    for i in range(k):
        for j in range(k):
            comm = np.dot(ders[j].matrix, ders[i].matrix) \
                - np.dot(ders[i].matrix, ders[j].matrix)
            coeffs = solve(cols, tuple(comm.reshape(-1)), k)
            if coeffs is None:
                raise InternalError("a commutator of derivations of A is "
                                    "not a derivation")
            for z, c in enumerate(coeffs):
                br[i, j, z] = c
    br.setflags(write=False)
    g = LeibnizAlgebra(k, br, tuple(f"D{i + 1}" for i in range(k)))
    action = np.full((k, A.dim, A.dim), ZERO, dtype=object)
    for z in range(k):
        action[z] = ders[z].matrix
    action.setflags(write=False)
    L = hemisemidirect(g, action, A.dim, ("w1", "w2", "w3"))
    mus = tuple(ders) + tuple(Derivation(zero_tensor((A.dim, A.dim)))
                              for _ in range(A.dim))
    pair = CourantPair(A, L, mus)
    _check_valid(validate_pair(pair), "hemisemidirect_demo is not a Courant pair")
    _check(not any(L.bracket[k:, k:].reshape(-1)),
           "two elements of the A summand bracket to a nonzero element")
    return CatalogEntry(
        name="hemisemidirect_demo",
        pair=pair,
        notes=("Hemisemidirect pair (A, Der(A) + A) over the truncated line "
               "Q[x]/(x^3): the bracket algebra is genuinely Leibniz (not "
               "Lie), and the anchor is the projection onto Der(A)."))


_BUILDERS = {
    "heisenberg": heisenberg,
    "dual_numbers_line": dual_numbers_line,
    "hemisemidirect_demo": hemisemidirect_demo,
}


def names():
    return tuple(_BUILDERS)


def get(name: str) -> CatalogEntry:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise InputError(f"unknown catalog entry {name!r}; "
                         f"known: {', '.join(_BUILDERS)}") from None
    return builder()
