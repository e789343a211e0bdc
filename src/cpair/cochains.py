"""Bigraded cochains and the differentials acting on them.

A (p, q)-cochain is a multilinear map taking p arguments in the associative
algebra A and q arguments in the Leibniz algebra L.  For p > 0 it takes
values in the module coefficient space M; for p = 0 it takes values in P.
Coefficients are stored densely: ``coeffs[a_1 .. a_p, x_1 .. x_q, v]``.

The user-facing argument order mu(x, a) is stored transposed, A-arguments
first; this is invisible through the API.

Differentials:

* ``hochschild_delta``  -- the bar-type coboundary in the A-arguments,
  with the L-arguments carried along as spectators (p >= 1).
* ``vertical_delta``    -- the p = 0 substitute: post-composition with phi,
  landing in derivation-valued 1-cochains.
* ``leibniz_delta``     -- the Loday-type coboundary in the L-arguments.
  On a (p, q)-cochain it carries an overall (-1)^(q+1) prefactor in *every*
  row of the bicomplex, including p = 0.  This uniform prefactor is what
  makes the two directions commute on the nose, so that
  ``delta_H + (-1)^p delta_L`` squares to zero; the bracket terms use the
  symmetric module action [x, f] with [f, x] = -[x, f].
* ``total_delta``       -- the total differential on direct sums.

Plus the degree-lowering Gerstenhaber structure on the q = 0 column
(``circle``, ``gerstenhaber``) and the currying helper for anchor-type
(1,1)-cochains.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError, NotComposable, WrongDifferential
from .structures import CourantPair, CPModule, adjoint_module

ZERO = Fraction(0)
ONE = Fraction(1)


def _vdim(p: int, module: CPModule) -> int:
    return module.M_dim if p > 0 else module.P_dim


def _shape(p: int, q: int, pair: CourantPair, module: CPModule):
    return (pair.A.dim,) * p + (pair.L.dim,) * q + (_vdim(p, module),)


@dataclass(frozen=True, eq=False)
class Cochain:
    """A single bidegree-(p, q) cochain, as a dense coefficient tensor."""

    p: int
    q: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise InputError("cochain bidegrees must be nonnegative")
        if self.coeffs.ndim != self.p + self.q + 1:
            raise InputError(
                f"coefficient tensor has {self.coeffs.ndim} axes, "
                f"need {self.p + self.q + 1} for bidegree ({self.p},{self.q})")
        coeffs = self.coeffs.copy()  # the caller's array stays theirs
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p, q, pair, module=None):
        module = module or adjoint_module(pair)
        return cls(p, q, np.full(_shape(p, q, pair, module), ZERO, dtype=object))

    @classmethod
    def from_entries(cls, p, q, pair, entries, module=None):
        """Sparse constructor: entries maps index tuples (a..., x...) to value vectors."""
        module = module or adjoint_module(pair)
        arr = np.full(_shape(p, q, pair, module), ZERO, dtype=object)
        for key, vec in entries.items():
            if len(key) != p + q:
                raise InputError(f"index tuple {key} has wrong length for ({p},{q})")
            arr[tuple(key)] = np.array(
                [x if isinstance(x, Fraction) else Fraction(x) for x in vec],
                dtype=object)
        return cls(p, q, arr)

    # -- structure ---------------------------------------------------------

    def check_extents(self, pair, module=None):
        module = module or adjoint_module(pair)
        want = _shape(self.p, self.q, pair, module)
        if self.coeffs.shape != want:
            raise InputError(f"cochain tensor shape {self.coeffs.shape} does not "
                             f"match pair/module extents {want}")
        return module

    def is_zero(self) -> bool:
        return all(not x for x in self.coeffs.reshape(-1))

    def __eq__(self, other):
        return (isinstance(other, Cochain) and self.p == other.p and self.q == other.q
                and self.coeffs.shape == other.coeffs.shape
                and all(a == b for a, b in
                        zip(self.coeffs.reshape(-1), other.coeffs.reshape(-1))))

    def __add__(self, other):
        if not isinstance(other, Cochain) or (self.p, self.q) != (other.p, other.q):
            raise InputError("can only add cochains of the same bidegree")
        return Cochain(self.p, self.q, self.coeffs + other.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Cochain(self.p, self.q, -self.coeffs)

    def __rmul__(self, c):
        c = c if isinstance(c, Fraction) else Fraction(c)
        return Cochain(self.p, self.q, c * self.coeffs)

    def __repr__(self):
        return f"Cochain(p={self.p}, q={self.q})"


@dataclass(frozen=True, eq=False)
class TotalCochain:
    """An element of the degree-n total space: one component per bidegree,
    stored with p descending (so degree 2 reads (alpha, mu, lambda))."""

    n: int
    components: tuple

    def __post_init__(self):
        if len(self.components) != self.n + 1:
            raise InputError(f"degree-{self.n} total cochain needs {self.n + 1} components")
        for k, c in enumerate(self.components):
            if (c.p, c.q) != (self.n - k, k):
                raise InputError(
                    f"component {k} has bidegree ({c.p},{c.q}), "
                    f"expected ({self.n - k},{k}) (p descending)")
        object.__setattr__(self, "components", tuple(self.components))

    @classmethod
    def zero(cls, n, pair, module=None):
        return cls(n, tuple(Cochain.zero(n - k, k, pair, module) for k in range(n + 1)))

    def component(self, p: int) -> Cochain:
        """The (p, n-p) component."""
        return self.components[self.n - p]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __eq__(self, other):
        return (isinstance(other, TotalCochain) and self.n == other.n
                and all(a == b for a, b in zip(self.components, other.components)))

    def __add__(self, other):
        if not isinstance(other, TotalCochain) or self.n != other.n:
            raise InputError("can only add total cochains of the same degree")
        return TotalCochain(self.n, tuple(a + b for a, b in
                                          zip(self.components, other.components)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TotalCochain(self.n, tuple(-c for c in self.components))

    def __rmul__(self, c):
        return TotalCochain(self.n, tuple(c * comp for comp in self.components))

    def __repr__(self):
        return f"TotalCochain(n={self.n})"


# ---------------------------------------------------------------------------
# small contraction helpers
# ---------------------------------------------------------------------------

def _apply_rows(rows, vec, out_dim):
    """sum_k vec[k] * rows[k] for a (n_in, n_out) stack of row vectors."""
    out = np.full(out_dim, ZERO, dtype=object)
    for k, c in enumerate(vec):
        if c:
            out = out + c * rows[k]
    return out


def _right_act_value(module, vec, z, p):
    """[value, e_z] on a value vector: M_right for p > 0, P_right for p = 0."""
    rows = module.M_right if p > 0 else module.P_right
    return _apply_rows(rows[:, z], vec, module.M_dim if p > 0 else module.P_dim)


def _left_act_value(module, z, vec, p):
    """[e_z, value] on a value vector: M_left for p > 0, P_left for p = 0."""
    rows = module.M_left[z] if p > 0 else module.P_left[z]
    return _apply_rows(rows, vec, module.M_dim if p > 0 else module.P_dim)


# ---------------------------------------------------------------------------
# differentials
# ---------------------------------------------------------------------------

def hochschild_delta(f: Cochain, pair: CourantPair, module: CPModule = None) -> Cochain:
    """The bar-type coboundary in the A-arguments (p >= 1 only):

    (d f)(a_1 .. a_{p+1}; x) = a_1 . f(a_2 ..; x)
                               + sum_i (-1)^i f(.., a_i a_{i+1}, ..; x)
                               + (-1)^{p+1} f(a_1 .. a_p; x) . a_{p+1}
    """
    if f.p == 0:
        raise WrongDifferential("hochschild_delta needs p >= 1; use vertical_delta at p = 0")
    module = f.check_extents(pair, module)
    p, q = f.p, f.q
    dA, dL, dM = pair.A.dim, pair.L.dim, module.M_dim
    mul = pair.A.mul
    out = np.empty(_shape(p + 1, q, pair, module), dtype=object)
    last_sign = ONE if (p + 1) % 2 == 0 else -ONE
    for key in itertools.product(*([range(dA)] * (p + 1) + [range(dL)] * q)):
        bt, xt = key[:p + 1], key[p + 1:]
        acc = _apply_rows(module.left_act[bt[0]], f.coeffs[bt[1:] + xt], dM)
        sign = ONE
        for i in range(1, p + 1):
            sign = -sign
            prod = mul[bt[i - 1], bt[i]]
            for s, c in enumerate(prod):
                if c:
                    acc = acc + (sign * c) * f.coeffs[bt[:i - 1] + (s,) + bt[i + 1:] + xt]
        tail = _apply_rows(module.right_act[:, bt[p]], f.coeffs[bt[:p] + xt], dM)
        out[key] = acc + last_sign * tail
    return Cochain(p + 1, q, out)


def vertical_delta(psi: Cochain, pair: CourantPair, module: CPModule = None) -> Cochain:
    """Post-composition with phi: (d_v psi)(a; x_1 .. x_q) = phi(psi(x))(a).

    Defined only at p = 0; its image consists of derivation-valued cochains,
    which is why following it with the bar-type coboundary gives zero.
    """
    if psi.p != 0:
        raise WrongDifferential("vertical_delta is only defined at p = 0")
    module = psi.check_extents(pair, module)
    q = psi.q
    dA, dL, dM = pair.A.dim, pair.L.dim, module.M_dim
    out = np.empty(_shape(1, q, pair, module), dtype=object)
    for key in itertools.product(*([range(dA)] + [range(dL)] * q)):
        out[key] = _apply_rows(module.phi[:, key[0]], psi.coeffs[key[1:]], dM)
    return Cochain(1, q, out)


def module_action(x: int, f: Cochain, pair: CourantPair, module: CPModule = None) -> Cochain:
    """The left action of a bracket-algebra basis element on a q = 0 cochain:

    [x, f](a_1 .. a_p) = [x, f(a_1 .. a_p)] - sum_k f(a_1, .., mu(x) a_k, .., a_p)

    with [x, a] = mu(x)(a) in the arguments.  The right action is determined
    by [f, x] = -[x, f].  For p = 0 this is just the left action on P.
    """
    if f.q != 0:
        raise InputError("module_action is defined on cochains with no L-arguments")
    module = f.check_extents(pair, module)
    p = f.p
    if p == 0:
        return Cochain(0, 0, _apply_rows(module.P_left[x], f.coeffs, module.P_dim))
    dA, dM = pair.A.dim, module.M_dim
    mu_x = pair.mu[x].matrix
    out = np.empty(_shape(p, 0, pair, module), dtype=object)
    for at in itertools.product(range(dA), repeat=p):
        acc = _apply_rows(module.M_left[x], f.coeffs[at], dM)
        for k in range(p):
            row = mu_x[at[k]]
            for s, c in enumerate(row):
                if c:
                    acc = acc - c * f.coeffs[at[:k] + (s,) + at[k + 1:]]
        out[at] = acc
    return Cochain(p, 0, out)


def leibniz_delta(f: Cochain, pair: CourantPair, module: CPModule = None) -> Cochain:
    """The Loday-type coboundary in the L-arguments, on any bidegree:

    (d f)(a; y_1 .. y_{q+1}) =
        (-1)^{q+1} * [  sum_{i<=q} (-1)^{i-1} [y_i, f(a; .. y_i^ ..)]
                      + (-1)^{q+1} [f(a; y_1 .. y_q), y_{q+1}]
                      + sum_{i<j} (-1)^i f(a; .., y_{j-1}, [y_i, y_j], y_{j+1}, ..) ]

    where the bracket replaces slot j after slot i is removed, and the action
    terms act on the value and correct the A-arguments through the anchor.
    The overall (-1)^{q+1} applies uniformly in p, including p = 0.
    """
    module = f.check_extents(pair, module)
    p, q = f.p, f.q
    dA, dL = pair.A.dim, pair.L.dim
    vd = _vdim(p, module)
    bracket = pair.L.bracket
    eps = ONE if (q + 1) % 2 == 0 else -ONE
    out = np.empty(_shape(p, q + 1, pair, module), dtype=object)
    for key in itertools.product(*([range(dA)] * p + [range(dL)] * (q + 1))):
        at, yt = key[:p], key[p:]
        acc = np.full(vd, ZERO, dtype=object)
        for i in range(1, q + 2):
            z = yt[i - 1]
            rest = yt[:i - 1] + yt[i:]
            if i <= q:
                sign = ONE if (i - 1) % 2 == 0 else -ONE
                acc = acc + sign * _left_act_value(module, z, f.coeffs[at + rest], p)
                corr_sign = -sign
            else:
                sign = ONE if (q + 1) % 2 == 0 else -ONE
                acc = acc + sign * _right_act_value(module, f.coeffs[at + rest], z, p)
                corr_sign = sign
            if p:
                mu_z = pair.mu[z].matrix
                for k in range(p):
                    for s, c in enumerate(mu_z[at[k]]):
                        if c:
                            acc = acc + (corr_sign * c) * \
                                f.coeffs[at[:k] + (s,) + at[k + 1:] + rest]
        for i in range(1, q + 2):
            for j in range(i + 1, q + 2):
                sign = -ONE if i % 2 else ONE
                for s, c in enumerate(bracket[yt[i - 1], yt[j - 1]]):
                    if c:
                        args = list(yt)
                        args[j - 1] = s
                        del args[i - 1]
                        acc = acc + (sign * c) * f.coeffs[at + tuple(args)]
        out[key] = eps * acc
    return Cochain(p, q + 1, out)


def total_delta(c: TotalCochain, pair: CourantPair, module: CPModule = None) -> TotalCochain:
    """The total differential: each (p, q)-component sends delta_H (delta_v at
    p = 0) into (p+1, q) and (-1)^p delta_L into (p, q+1); overlapping
    contributions add."""
    module = module or adjoint_module(pair)
    n = c.n
    parts = {}  # p' -> Cochain at (p', n+1-p')
    for comp in c.components:
        p = comp.p
        up = vertical_delta(comp, pair, module) if p == 0 \
            else hochschild_delta(comp, pair, module)
        parts[p + 1] = parts[p + 1] + up if p + 1 in parts else up
        down = leibniz_delta(comp, pair, module)
        if p % 2:
            down = -down
        parts[p] = parts[p] + down if p in parts else down
    comps = tuple(parts.get(n + 1 - k) or Cochain.zero(n + 1 - k, k, pair, module)
                  for k in range(n + 2))
    return TotalCochain(n + 1, comps)


# ---------------------------------------------------------------------------
# Gerstenhaber structure on the q = 0 column (adjoint coefficients)
# ---------------------------------------------------------------------------

def circle(f: Cochain, g: Cochain, pair: CourantPair) -> Cochain:
    """The pre-bracket composition

    (f o g)(a_1 .. a_{p+q-1}) = sum_{i=0}^{p-1} (-1)^{i(q+1)}
                                f(a_1 .. a_i, g(a_{i+1} .. a_{i+q}), ..)

    for algebra-argument-only cochains with adjoint coefficients.
    """
    if f.q or g.q:
        raise NotComposable("circle is defined on the q = 0 column only")
    if f.p < 1 or g.p < 1:
        raise NotComposable("circle needs p >= 1 on both factors")
    dA = pair.A.dim
    if f.coeffs.shape != (dA,) * f.p + (dA,) or g.coeffs.shape != (dA,) * g.p + (dA,):
        raise NotComposable("circle needs adjoint (algebra-valued) cochains")
    p, q = f.p, g.p
    out = np.empty((dA,) * (p + q - 1) + (dA,), dtype=object)
    for at in itertools.product(range(dA), repeat=p + q - 1):
        acc = np.full(dA, ZERO, dtype=object)
        for i in range(p):
            sign = ONE if (i * (q + 1)) % 2 == 0 else -ONE
            inner = g.coeffs[at[i:i + q]]
            for s, c in enumerate(inner):
                if c:
                    acc = acc + (sign * c) * f.coeffs[at[:i] + (s,) + at[i + q:]]
        out[at] = acc
    return Cochain(p + q - 1, 0, out)


def gerstenhaber(f: Cochain, g: Cochain, pair: CourantPair) -> Cochain:
    """[f, g] = f o g - (-1)^{(p-1)(q-1)} g o f."""
    sign = ONE if ((f.p - 1) * (g.p - 1)) % 2 == 0 else -ONE
    return circle(f, g, pair) - sign * circle(g, f, pair)


def curry_mu(mu_i: Cochain, x: int) -> Cochain:
    """Freeze the L-argument of a (1,1)-cochain: the slice f^x = mu_i(x, -)."""
    if (mu_i.p, mu_i.q) != (1, 1):
        raise InputError("curry_mu expects a (1,1)-cochain")
    arr = mu_i.coeffs[:, x, :].copy()
    return Cochain(1, 0, arr)
