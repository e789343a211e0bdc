"""Truncated formal deformations of a Courant pair.

A deformation of order N carries coefficient lists alpha_0..alpha_N,
mu_0..mu_N, lambda_0..lambda_N (as (2,0)-, (1,1)- and (0,2)-cochains with
adjoint coefficients), where order 0 is the undeformed structure.  All
series arithmetic truncates at the working order.

The four order-n compatibility equations say that the deformed triple is
again a Courant pair modulo t^(n+1): associativity of alpha_t, the deformed
anchor taking values in derivations, the anchor being a homomorphism for the
deformed brackets, and the Leibniz identity for lambda_t.

The obstruction of a valid order-N deformation is the degree-3 total cochain
Theta built from the cross terms (i, j >= 1, i + j = N + 1) of those
equations, with signs normalised so that extending the deformation to order
N+1 means solving delta_tot(alpha_{N+1}, mu_{N+1}, lambda_{N+1}) = Theta on
the nose.  Theta is always a total 3-cocycle; the solver therefore succeeds
exactly when its class vanishes.

One kernel (``_defects``) evaluates the equations, for validation (all
i + j = n) and for Theta (i, j >= 1), over nonzero entries only.  The
extension loop ``extend_to`` validates its input once, then checks only
each new order (lower orders involve only unchanged coefficients) and
delta Theta = 0 on Theta's support; a failed check is ``InternalError``.
"""

from __future__ import annotations

import itertools
from collections import defaultdict, namedtuple
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cochains import Cochain, TotalCochain
from .cohomology import total_complex
from .errors import (InputError, InternalError, InvalidDeformation,
                     NoInfinitesimalError)
from .structures import (CourantPair, ValidationReport, _law,
                         adjoint_module)

ZERO = Fraction(0)
ONE = Fraction(1)


def structure_terms(pair: CourantPair):
    """The order-0 coefficients: the pair's own (alpha, mu, lambda) as cochains."""
    dA, dL = pair.A.dim, pair.L.dim
    mu0 = np.full((dA, dL, dA), ZERO, dtype=object)
    for x in range(dL):
        mat = pair.mu[x].matrix
        for a in range(dA):
            mu0[a, x] = mat[a]
    return (Cochain(2, 0, pair.A.mul),
            Cochain(1, 1, mu0),
            Cochain(0, 2, pair.L.bracket))


def _check_coefficient(c: Cochain, p: int, q: int, k: int, pair: CourantPair):
    if (c.p, c.q) != (p, q):
        raise InputError(f"order-{k} coefficient has bidegree ({c.p},{c.q}), "
                         f"expected ({p},{q})")
    c.check_extents(pair)


@dataclass(frozen=True, eq=False)
class Deformation:
    """alpha_t = sum alpha_i t^i, mu_t, lambda_t, truncated at order N.

    ``alphas[0]``, ``mus[0]``, ``lambdas[0]`` must equal the structure
    tensors of the pair; higher coefficients are free (validity is a
    separate, reported check, not a construction invariant).
    """

    pair: CourantPair
    alphas: tuple
    mus: tuple
    lambdas: tuple

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(self.alphas))
        object.__setattr__(self, "mus", tuple(self.mus))
        object.__setattr__(self, "lambdas", tuple(self.lambdas))
        n = len(self.alphas)
        if n == 0 or len(self.mus) != n or len(self.lambdas) != n:
            raise InputError("coefficient lists must share one length >= 1")
        for k in range(n):
            _check_coefficient(self.alphas[k], 2, 0, k, self.pair)
            _check_coefficient(self.mus[k], 1, 1, k, self.pair)
            _check_coefficient(self.lambdas[k], 0, 2, k, self.pair)
        a0, m0, l0 = structure_terms(self.pair)
        if not (self.alphas[0] == a0 and self.mus[0] == m0 and self.lambdas[0] == l0):
            raise InputError("order-0 coefficients must be the pair's structure tensors")

    @property
    def order(self) -> int:
        return len(self.alphas) - 1

    @classmethod
    def from_terms(cls, pair: CourantPair, terms=None, order: int = None) -> "Deformation":
        """Build from {order: (alpha, mu, lam)} with None meaning zero.

        Orders not mentioned get zero coefficients; ``order`` defaults to the
        largest key (0 for an empty dict = the constant deformation).
        """
        terms = dict(terms or {})
        if any(k < 1 for k in terms):
            raise InputError("explicit terms start at order 1")
        top = max(terms, default=0)
        order = top if order is None else order
        if order < top:
            raise InputError(f"order {order} below highest given term {top}")
        a0, m0, l0 = structure_terms(pair)
        alphas, mus, lambdas = [a0], [m0], [l0]
        for k in range(1, order + 1):
            a, m, l = terms.get(k) or (None, None, None)
            alphas.append(a if a is not None else Cochain.zero(2, 0, pair))
            mus.append(m if m is not None else Cochain.zero(1, 1, pair))
            lambdas.append(l if l is not None else Cochain.zero(0, 2, pair))
        return cls(pair, tuple(alphas), tuple(mus), tuple(lambdas))

    def coefficient(self, n: int) -> TotalCochain:
        """The order-n triple (alpha_n, mu_n, lambda_n) as a degree-2 total cochain."""
        return TotalCochain(2, (self.alphas[n], self.mus[n], self.lambdas[n]))

    def truncate(self, order: int) -> "Deformation":
        if not 0 <= order <= self.order:
            raise InputError(f"cannot truncate order {self.order} to {order}")
        k = order + 1
        return Deformation(self.pair, self.alphas[:k], self.mus[:k], self.lambdas[:k])

    def with_top(self, alpha: Cochain, mu: Cochain, lam: Cochain) -> "Deformation":
        """One order higher, with the given top coefficients appended."""
        return Deformation(self.pair, self.alphas + (alpha,),
                           self.mus + (mu,), self.lambdas + (lam,))

    def __repr__(self):
        return f"Deformation(order={self.order})"


# ---------------------------------------------------------------------------
# the order-n equations, contracted over nonzero entries
# ---------------------------------------------------------------------------

_Sparse = namedtuple("_Sparse", "entries by0 by1")

#: The four equations in report order, each with the number of bracket
#: arguments that lead its keys (the rest are algebra arguments).
_EQUATIONS = (("associativity", 0), ("anchor into derivations", 1),
              ("anchor homomorphism", 2), ("leibniz identity", 3))


def _sparse(c: Cochain) -> _Sparse:
    """The nonzero entries (k0, k1, w, value) of a two-argument coefficient
    tensor, also grouped by first argument as k0 -> [(k1, w, value)] and by
    second argument as k1 -> [(k0, w, value)]."""
    entries, by0, by1 = [], {}, {}
    keys = itertools.product(*[range(s) for s in c.coeffs.shape])
    for (k0, k1, w), v in zip(keys, c.coeffs.ravel().tolist()):
        if v:
            entries.append((k0, k1, w, v))
            by0.setdefault(k0, []).append((k1, w, v))
            by1.setdefault(k1, []).append((k0, w, v))
    return _Sparse(entries, by0, by1)


def _terms(d: Deformation):
    """Sparse views of every coefficient: [alphas], [mus], [lambdas]."""
    return tuple([_sparse(c) for c in cs] for cs in (d.alphas, d.mus, d.lambdas))


def _defects(terms, n, lo=0):
    """The coefficients of t^n in the four equations, as {key: {w: value}}.

    Each is summed over i + j = n with i, j >= lo:

      associativity (a, b, c):  alpha_i(alpha_j(a,b), c) - alpha_i(a, alpha_j(b,c))
      derivations   (x, a, b):  mu_i(x, alpha_j(a,b)) - alpha_j(mu_i(x,a), b)
                                - alpha_j(a, mu_i(x,b))
      homomorphism  (x, y, a):  mu_i(x, mu_j(y,a)) - mu_i(y, mu_j(x,a))
                                - mu_i(lambda_j(x,y), a)
      leibniz       (x, y, z):  lam_i(x, lam_j(y,z)) - lam_i(lam_j(x,y), z)
                                - lam_i(y, lam_j(x,z))

    Only products of nonzero entries are formed: each inner entry meets the
    outer entries indexed by the slot it feeds.  mu is stored A-argument
    first, so its by0 groups by the algebra argument.  Values that cancel
    stay in the tables as zeros.
    """
    alphas, mus, lams = terms
    assoc, der, hom, leib = (defaultdict(lambda: defaultdict(int)) for _ in range(4))
    for i in range(lo, n - lo + 1):
        j = n - i
        Ai, Aj, Mi, Mj, Li, Lj = alphas[i], alphas[j], mus[i], mus[j], lams[i], lams[j]
        for a, b, s, u in Aj.entries:
            for c, w, v in Ai.by0.get(s, ()):
                assoc[a, b, c][w] += u * v
            for x, w, v in Mi.by0.get(s, ()):
                der[x, a, b][w] += u * v
        for b, c, s, u in Aj.entries:
            for a, w, v in Ai.by1.get(s, ()):
                assoc[a, b, c][w] -= u * v
        for a, x, s, u in Mi.entries:
            for b, w, v in Aj.by0.get(s, ()):
                der[x, a, b][w] -= u * v
            for a2, w, v in Aj.by1.get(s, ()):
                der[x, a2, a][w] -= u * v
        for a, y, s, u in Mj.entries:
            for x, w, v in Mi.by0.get(s, ()):
                hom[x, y, a][w] += u * v
                hom[y, x, a][w] -= u * v
        for x, y, z, u in Lj.entries:
            for a, w, v in Mi.by1.get(z, ()):
                hom[x, y, a][w] -= u * v
            for z2, w, v in Li.by0.get(z, ()):
                leib[x, y, z2][w] -= u * v
        for y, z, s, u in Lj.entries:
            for x, w, v in Li.by1.get(s, ()):
                leib[x, y, z][w] += u * v
                leib[y, x, z][w] -= u * v
    return assoc, der, hom, leib


def _witness(pair, key, nl):
    """"(x, y; a)": the nl bracket arguments of key, then the algebra ones."""
    parts = (", ".join(pair.L.basis_labels[k] for k in key[:nl]),
             ", ".join(pair.A.basis_labels[k] for k in key[nl:]))
    return "(" + "; ".join(part for part in parts if part) + ")"


def _order_checks(terms, n, pair):
    """The four report lines of order n; a witness is the first key, in
    argument order, whose defect does not vanish."""
    checks = []
    for (name, nl), table in zip(_EQUATIONS, _defects(terms, n)):
        bad = [key for key, vec in table.items() if any(vec.values())]
        checks.append(_law(f"order {n} {name}",
                           _witness(pair, min(bad), nl) if bad else None))
    return checks


def _report(d: Deformation, terms) -> ValidationReport:
    return ValidationReport(tuple(
        check for n in range(d.order + 1)
        for check in _order_checks(terms, n, d.pair)))


def validate_deformation(d: Deformation) -> ValidationReport:
    """Check the four compatibility equations at every order n <= N.

    One report line per (order, equation); the witness of a failing line is
    the first basis tuple where the coefficient of t^n does not vanish.
    Order 0 restates the pair's own laws and passes whenever the pair does.
    """
    return _report(d, _terms(d))


# ---------------------------------------------------------------------------
# infinitesimals
# ---------------------------------------------------------------------------

def infinitesimal(d: Deformation) -> TotalCochain:
    """The order-1 coefficient triple; a total 2-cocycle whenever d validates."""
    if d.order < 1:
        raise NoInfinitesimalError("order-0 deformation has no infinitesimal")
    return d.coefficient(1)


def n_infinitesimal(d: Deformation):
    """(n, coefficient) for the smallest n >= 1 with a nonzero coefficient."""
    for n in range(1, d.order + 1):
        c = d.coefficient(n)
        if not c.is_zero():
            return n, c
    raise NoInfinitesimalError("every coefficient beyond order 0 is zero")


# ---------------------------------------------------------------------------
# equivalences
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Equivalence:
    """Phi_t = id + sum phis[i-1] t^i on A, Psi_t = id + sum psis[i-1] t^i on L.

    Leading coefficient id makes both invertible as truncated series.  The
    empty equivalence is the identity.
    """

    phis: tuple
    psis: tuple

    def __post_init__(self):
        object.__setattr__(self, "phis", tuple(self.phis))
        object.__setattr__(self, "psis", tuple(self.psis))
        if len(self.phis) != len(self.psis):
            raise InputError("phis and psis must have equal length (pad with zeros)")
        for k, f in enumerate(self.phis, start=1):
            if (f.p, f.q) != (1, 0):
                raise InputError(f"phi_{k} must be a (1,0)-cochain")
        for k, f in enumerate(self.psis, start=1):
            if (f.p, f.q) != (0, 1):
                raise InputError(f"psi_{k} must be a (0,1)-cochain")

    @property
    def order(self) -> int:
        return len(self.phis)

    @classmethod
    def from_terms(cls, pair: CourantPair, phis=(), psis=(), order: int = None) -> "Equivalence":
        phis, psis = list(phis), list(psis)
        order = max(len(phis), len(psis)) if order is None else order
        while len(phis) < order:
            phis.append(Cochain.zero(1, 0, pair))
        while len(psis) < order:
            psis.append(Cochain.zero(0, 1, pair))
        return cls(tuple(phis), tuple(psis))

    def inverse(self, order: int = None) -> "Equivalence":
        """Coefficients of (Phi_t^{-1}, Psi_t^{-1}) up to the given order."""
        order = self.order if order is None else order
        if self.order == 0 or order == 0:
            return Equivalence((), ())
        ga = _inverse_series(_series_matrices(self.phis, order), order)
        gl = _inverse_series(_series_matrices(self.psis, order), order)
        return Equivalence(tuple(Cochain(1, 0, m) for m in ga[1:]),
                           tuple(Cochain(0, 1, m) for m in gl[1:]))


def _series_matrices(cochains, order):
    """[id, c_1, .., c_order] as row-convention matrices, zero-padded."""
    dim = cochains[0].coeffs.shape[0]
    eye = np.full((dim, dim), ZERO, dtype=object)
    for i in range(dim):
        eye[i, i] = ONE
    mats = [eye]
    for k in range(order):
        mats.append(cochains[k].coeffs if k < len(cochains)
                    else np.full((dim, dim), ZERO, dtype=object))
    return mats


def _inverse_series(F, order):
    """G with sum_{i+j=n} G_i o F_j = [n == 0] * id, in row convention.

    Row convention means the matrix of g o f is F @ G, so the recursion
    reads G_n = -sum_{j>=1} F_j @ G_{n-j}.
    """
    G = [F[0]]
    for n in range(1, order + 1):
        acc = np.full(F[0].shape, ZERO, dtype=object)
        for j in range(1, n + 1):
            acc = acc - np.dot(F[j], G[n - j])
        G.append(acc)
    return G


def apply_equivalence(d: Deformation, e: Equivalence) -> Deformation:
    """The deformation pulled back along (Phi_t, Psi_t), truncated at d's order.

    alpha~_t(a,b) = Phi_t^{-1} alpha_t(Phi_t a, Phi_t b)
    mu~_t(x, a)   = Phi_t^{-1} mu_t(Psi_t x, Phi_t a)
    lam~_t(x,y)   = Psi_t^{-1} lam_t(Psi_t x, Psi_t y)

    Coefficients of e beyond d's order are irrelevant and missing ones count
    as zero, so any equivalence can be applied to any deformation of the pair.
    """
    pair = d.pair
    for f in e.phis + e.psis:
        f.check_extents(pair)
    N = d.order
    dA, dL = pair.A.dim, pair.L.dim
    F = _series_matrices(e.phis if e.phis else (Cochain.zero(1, 0, pair),), N)
    P = _series_matrices(e.psis if e.psis else (Cochain.zero(0, 1, pair),), N)
    G = _inverse_series(F, N)
    Q = _inverse_series(P, N)

    def _push(C, left_mats, right_mats, li, ri, out_shape, back):
        out = np.full(out_shape, ZERO, dtype=object)
        for a in range(out_shape[0]):
            for b in range(out_shape[1]):
                w = np.full(C.shape[2], ZERO, dtype=object)
                hit = False
                for u, cu in enumerate(left_mats[li][a]):
                    if cu:
                        for v, cv in enumerate(right_mats[ri][b]):
                            if cv:
                                w = w + (cu * cv) * C[u, v]
                                hit = True
                if hit:
                    out[a, b] = np.dot(w, back)
        return out

    alphas, mus, lambdas = [], [], []
    for k in range(N + 1):
        accA = np.full((dA, dA, dA), ZERO, dtype=object)
        accM = np.full((dA, dL, dA), ZERO, dtype=object)
        accL = np.full((dL, dL, dL), ZERO, dtype=object)
        for r in range(k + 1):
            for s in range(k - r + 1):
                for i in range(k - r - s + 1):
                    j = k - r - s - i
                    accA = accA + _push(d.alphas[s].coeffs, F, F, i, j,
                                        (dA, dA, dA), G[r])
                    # mu is stored with the A-argument first: rows are (a, x)
                    accM = accM + _push(d.mus[s].coeffs, F, P, j, i,
                                        (dA, dL, dA), G[r])
                    accL = accL + _push(d.lambdas[s].coeffs, P, P, i, j,
                                        (dL, dL, dL), Q[r])
        alphas.append(Cochain(2, 0, accA))
        mus.append(Cochain(1, 1, accM))
        lambdas.append(Cochain(0, 2, accL))
    return Deformation(pair, tuple(alphas), tuple(mus), tuple(lambdas))


def equivalent_infinitesimals_differ_by_coboundary(d1: Deformation, d2: Deformation):
    """A degree-1 (phi_1, psi_1) with delta_tot of it = inf(d1) - inf(d2), or None.

    Existence is exactly the statement that the two infinitesimals define the
    same cohomology class; equivalent deformations always produce one.
    """
    if d1.pair is not d2.pair:
        raise InputError("deformations live over different pairs")
    diff = infinitesimal(d1) - infinitesimal(d2)
    return total_complex(d1.pair).is_coboundary(diff)


# ---------------------------------------------------------------------------
# obstructions and extension
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Obstruction:
    """The degree-3 obstruction cochain of an order-N deformation.

    Components: theta_A (3,0), theta1 (2,1), theta2 (1,2), theta_L (0,3);
    always a total 3-cocycle (checked at construction).
    """

    theta_A: Cochain
    theta1: Cochain
    theta2: Cochain
    theta_L: Cochain

    def total(self) -> TotalCochain:
        return TotalCochain(3, (self.theta_A, self.theta1, self.theta2, self.theta_L))

    def is_zero(self) -> bool:
        return self.total().is_zero()


def _valid_terms(d: Deformation):
    """The sparse coefficients of d, refusing d unless it validates."""
    terms = _terms(d)
    rep = _report(d, terms)
    if not rep.ok:
        raise InvalidDeformation(
            "obstruction of an invalid deformation is undefined; first failure: "
            + str(rep.failures[0]))
    return terms


def _theta(d: Deformation, terms=None) -> TotalCochain:
    """The cross-term sums at order N+1 (i, j >= 1), as a degree-3 cochain.

    Signs are arranged so a valid one-step extension (top, next coefficients)
    satisfies delta_tot(top) = Theta exactly; each component is the defect
    shape of the matching compatibility equation.
    """
    dA, dL = d.pair.A.dim, d.pair.L.dim
    assoc, der, hom, leib = _defects(terms or _terms(d), d.order + 1, lo=1)
    parts = ((3, 0, assoc, lambda a, b, c: (a, b, c)),
             (2, 1, der, lambda x, a, b: (a, b, x)),
             (1, 2, hom, lambda x, y, a: (a, x, y)),
             (0, 3, leib, lambda x, y, z: (x, y, z)))
    comps = []
    for p, q, table, place in parts:
        arr = np.full((dA,) * p + (dL,) * q + (dA if p else dL,), ZERO, dtype=object)
        for key, vec in table.items():
            for w, v in vec.items():
                arr[place(*key) + (w,)] = v
        comps.append(Cochain(p, q, arr))
    return TotalCochain(3, tuple(comps))


def _closed_theta(d: Deformation, terms) -> TotalCochain:
    """Theta, after checking delta_tot(Theta) = 0 on its support."""
    theta = _theta(d, terms)
    if not total_complex(d.pair).is_cocycle(theta):
        raise InternalError(f"the order-{d.order + 1} obstruction of a valid "
                            f"deformation is not a total cocycle")
    return theta


def obstruction(d: Deformation) -> Obstruction:
    """The obstruction to extending d one order; refuses invalid deformations."""
    return Obstruction(*_closed_theta(d, _valid_terms(d)).components)


def obstruction_is_cocycle(d: Deformation) -> bool:
    """Whether the assembled obstruction is delta_tot-closed (true for valid d)."""
    return total_complex(d.pair).is_cocycle(_theta(d, _valid_terms(d)))


def extend_to(d: Deformation, order: int):
    """Extend d one order at a time up to ``order``.

    Returns (reached, stop): the deformation reached and, when it falls
    short of ``order``, the Obstruction whose class does not vanish there
    (else None).  d is validated once (InvalidDeformation if it fails).
    After each step only the equations of the new order are checked: those
    of lower orders involve only coefficients the step did not change.  A
    failed check, or an obstruction that is not closed, is InternalError.
    """
    terms = _valid_terms(d)
    tc = total_complex(d.pair)
    while d.order < order:
        theta = _closed_theta(d, terms)
        top = tc.is_coboundary(theta)
        if top is None:
            return d, Obstruction(*theta.components)
        d = d.with_top(top.component(2), top.component(1), top.component(0))
        for sparse, coeffs in zip(terms, (d.alphas, d.mus, d.lambdas)):
            sparse.append(_sparse(coeffs[-1]))
        failed = [c for c in _order_checks(terms, d.order, d.pair) if not c.ok]
        if failed:
            raise InternalError(f"the extension to order {d.order} breaks the "
                                f"deformation equations: {failed[0]}")
    return d, None


def extend(d: Deformation):
    """A validated order-(N+1) deformation extending d, or None.

    Solves delta_tot(top) = Theta for the next coefficient triple; any
    solution works and the first one found is returned.  None means the
    obstruction class is nonzero, i.e. no extension exists.
    """
    reached, stop = extend_to(d, d.order + 1)
    return None if stop is not None else reached


# ---------------------------------------------------------------------------
# rigidity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RigidityReport:
    """Outcome of the degree-2 cohomology probe of a pair."""

    h2_dim: int
    representatives: tuple

    @property
    def rigid(self) -> bool:
        return self.h2_dim == 0

    def __str__(self):
        if self.rigid:
            return "rigid (HL^2 = 0)"
        return (f"HL^2 = {self.h2_dim} > 0: deformation directions exist "
                f"({len(self.representatives)} independent classes listed)")


def rigidity_probe(pair: CourantPair) -> RigidityReport:
    """dim HL^2 with one verified cocycle representative per class.

    HL^2 = 0 certifies rigidity: every deformation is then equivalent to the
    trivial one.  A nonzero dimension lists independent infinitesimal
    directions (each extendable or not depending on degree-3 obstructions).
    """
    tc = total_complex(pair)
    reps = tuple(tc.representatives(2))
    if not all(tc.is_cocycle(r) for r in reps):
        raise InternalError("a degree-2 class representative is not a cocycle")
    return RigidityReport(tc.cohomology_dim(2), reps)
