"""Finite-dimensional algebra carriers and their validity checks.

A Courant pair is stored as a triplet of structure tensors:

* an associative multiplication ``mul[i, j, :]``  (coefficients of e_i e_j),
* a Leibniz bracket ``bracket[x, y, :]``          (coefficients of [e_x, e_y]),
* an anchor ``mu`` assigning to every bracket-algebra basis element a
  derivation of the associative algebra, stored as a matrix in row
  convention: ``matrix[i]`` is the image of basis vector i.

Modules over a pair carry the corresponding action tensors plus the
connecting map ``phi`` sending the Leibniz-side coefficients into
derivations valued in the associative-side coefficients.

Validation never fails fast: every law is checked and the report lists the
first offending basis tuple for each broken one, which is what you want when
debugging hand-entered structure constants.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InputError
from .linalg import nullspace_basis

ZERO = Fraction(0)


def tensor(data, shape) -> np.ndarray:
    """An immutable object-dtype array of Fractions with the given shape."""
    arr = np.empty(shape, dtype=object)
    flat = arr.reshape(-1)
    src = np.asarray(data, dtype=object).reshape(-1)
    if src.size != flat.size:
        raise InputError(f"tensor data does not match shape {shape}")
    for k, x in enumerate(src):
        if isinstance(x, Fraction):
            flat[k] = x
        elif isinstance(x, int):
            flat[k] = Fraction(x)
        else:
            raise InputError(f"tensor entries must be rationals, got {type(x).__name__}")
    arr.setflags(write=False)
    return arr


def zero_tensor(shape) -> np.ndarray:
    arr = np.full(shape, ZERO, dtype=object)
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# carriers
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class AssocAlgebra:
    """Associative algebra by structure constants; unitality is not assumed."""

    dim: int
    mul: np.ndarray
    basis_labels: tuple = ()

    def __post_init__(self):
        if self.mul.shape != (self.dim, self.dim, self.dim):
            raise InputError(f"mul tensor must be {(self.dim,) * 3}, got {self.mul.shape}")
        if not self.basis_labels:
            object.__setattr__(self, "basis_labels", tuple(f"a{i}" for i in range(self.dim)))
        if len(self.basis_labels) != self.dim:
            raise InputError("basis_labels length must equal dim")

    def product(self, u, v):
        """Coefficient vector of u*v for coefficient vectors u, v."""
        out = np.full(self.dim, ZERO, dtype=object)
        for i, ci in enumerate(u):
            if ci:
                for j, cj in enumerate(v):
                    if cj:
                        out = out + (ci * cj) * self.mul[i, j]
        return out


@dataclass(frozen=True, eq=False)
class LeibnizAlgebra:
    """Left Leibniz algebra by structure constants: [x,[y,z]] = [[x,y],z] + [y,[x,z]]."""

    dim: int
    bracket: np.ndarray
    basis_labels: tuple = ()

    def __post_init__(self):
        if self.bracket.shape != (self.dim, self.dim, self.dim):
            raise InputError(f"bracket tensor must be {(self.dim,) * 3}, got {self.bracket.shape}")
        if not self.basis_labels:
            object.__setattr__(self, "basis_labels", tuple(f"e{i}" for i in range(self.dim)))
        if len(self.basis_labels) != self.dim:
            raise InputError("basis_labels length must equal dim")

    def bracket_vec(self, u, v):
        out = np.full(self.dim, ZERO, dtype=object)
        for i, ci in enumerate(u):
            if ci:
                for j, cj in enumerate(v):
                    if cj:
                        out = out + (ci * cj) * self.bracket[i, j]
        return out


@dataclass(frozen=True, eq=False)
class Derivation:
    """A linear endomorphism of the associative algebra, D(ab)=D(a)b+aD(b).

    Row convention: ``matrix[i]`` is the coefficient vector of D(e_i).
    """

    matrix: np.ndarray

    def __post_init__(self):
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise InputError("derivation matrix must be square")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, v):
        n = self.dim
        out = np.full(n, ZERO, dtype=object)
        for i, c in enumerate(v):
            if c:
                out = out + c * self.matrix[i]
        return out


@dataclass(frozen=True, eq=False)
class CourantPair:
    """The triplet: associative algebra A, Leibniz algebra L, anchor mu: L -> Der(A)."""

    A: AssocAlgebra
    L: LeibnizAlgebra
    mu: tuple  # one Derivation per basis element of L
    #: Derived data (adjoint module, total complexes, tables); dies with the pair.
    cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if len(self.mu) != self.L.dim:
            raise InputError(f"mu must have {self.L.dim} derivations, got {len(self.mu)}")
        for d in self.mu:
            if not isinstance(d, Derivation) or d.dim != self.A.dim:
                raise InputError("each anchor component must be a Derivation of A")
        object.__setattr__(self, "mu", tuple(self.mu))


@dataclass(frozen=True, eq=False)
class CPModule:
    """A module (M, P) over a Courant pair.

    Tensors (all object arrays of Fractions; index order is action order):
      left_act[a, m]   : a . m            right_act[m, a] : m . a
      M_left[x, m]     : [x, m]           M_right[m, x]   : [m, x]
      P_left[x, p]     : [x, p]           P_right[p, x]   : [p, x]
      phi[p, a]        : phi(e_p)(e_a) in M
    """

    M_dim: int
    P_dim: int
    left_act: np.ndarray
    right_act: np.ndarray
    M_left: np.ndarray
    M_right: np.ndarray
    P_left: np.ndarray
    P_right: np.ndarray
    phi: np.ndarray
    dim_A: int = field(default=-1)
    dim_L: int = field(default=-1)

    def __post_init__(self):
        dA = self.left_act.shape[0] if self.dim_A < 0 else self.dim_A
        dL = self.M_left.shape[0] if self.dim_L < 0 else self.dim_L
        object.__setattr__(self, "dim_A", dA)
        object.__setattr__(self, "dim_L", dL)
        expect = {
            "left_act": (dA, self.M_dim, self.M_dim),
            "right_act": (self.M_dim, dA, self.M_dim),
            "M_left": (dL, self.M_dim, self.M_dim),
            "M_right": (self.M_dim, dL, self.M_dim),
            "P_left": (dL, self.P_dim, self.P_dim),
            "P_right": (self.P_dim, dL, self.P_dim),
            "phi": (self.P_dim, dA, self.M_dim),
        }
        for name, shape in expect.items():
            got = getattr(self, name).shape
            if got != shape:
                raise InputError(f"module tensor {name} must have shape {shape}, got {got}")


# ---------------------------------------------------------------------------
# validation reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LawCheck:
    name: str
    ok: bool
    witness: str | None = None

    def __str__(self):
        if self.ok:
            return f"{self.name}: ok"
        return f"{self.name}: FAIL at {self.witness}"


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self):
        return [c for c in self.checks if not c.ok]

    def __str__(self):
        return "\n".join(str(c) for c in self.checks)


def _law(name, witness):
    return LawCheck(name, witness is None, witness)


def _assoc_witness(A: AssocAlgebra):
    d = A.dim
    for i, j, k in itertools.product(range(d), repeat=3):
        lhs = A.product(A.mul[i, j], _unit(d, k))
        rhs = A.product(_unit(d, i), A.mul[j, k])
        if not _veq(lhs, rhs):
            return _tuple_label(A.basis_labels, (i, j, k))
    return None


def _leibniz_witness(L: LeibnizAlgebra):
    d = L.dim
    for x, y, z in itertools.product(range(d), repeat=3):
        lhs = L.bracket_vec(_unit(d, x), L.bracket[y, z])
        rhs = L.bracket_vec(L.bracket[x, y], _unit(d, z)) + \
            L.bracket_vec(_unit(d, y), L.bracket[x, z])
        if not _veq(lhs, rhs):
            return _tuple_label(L.basis_labels, (x, y, z))
    return None


def _derivation_witness(A: AssocAlgebra, D: Derivation, label: str):
    d = A.dim
    for i, j in itertools.product(range(d), repeat=2):
        lhs = sum_vecs(A.mul[i, j][s] * D.matrix[s] for s in range(d) if A.mul[i, j][s])
        if lhs is None:
            lhs = np.full(d, ZERO, dtype=object)
        rhs = A.product(D.matrix[i], _unit(d, j)) + A.product(_unit(d, i), D.matrix[j])
        if not _veq(lhs, rhs):
            return f"{label} on {_tuple_label(A.basis_labels, (i, j))}"
    return None


def _unit(dim, k):
    v = np.full(dim, ZERO, dtype=object)
    if dim:
        v[k] = Fraction(1)
    return v


def _veq(u, v) -> bool:
    return all(a == b for a, b in zip(u, v))


def _tuple_label(labels, idx):
    return "(" + ", ".join(labels[i] for i in idx) + ")"


def sum_vecs(vecs):
    out = None
    for v in vecs:
        out = v if out is None else out + v
    return out


def validate_pair(pair: CourantPair) -> ValidationReport:
    """Check all order-zero laws of a Courant pair.

    Laws: associativity of A, the left Leibniz identity of L, the derivation
    property of each anchor component, and the anchor being a homomorphism
    into the commutator bracket.  Structural dimension mismatches raise
    InputError before any law is tested (the dataclasses already enforce them).
    """
    A, L = pair.A, pair.L
    checks = [
        _law("associativity", _assoc_witness(A)),
        _law("leibniz identity", _leibniz_witness(L)),
    ]

    wit = None
    for x in range(L.dim):
        wit = _derivation_witness(A, pair.mu[x], f"mu({L.basis_labels[x]})")
        if wit:
            break
    checks.append(_law("anchor maps to derivations", wit))

    wit = None
    for x, y in itertools.product(range(L.dim), repeat=2):
        # mu([x,y]) vs mu(x)mu(y) - mu(y)mu(x), compared entrywise as matrices
        lhs = sum_vecs(L.bracket[x, y][z] * pair.mu[z].matrix for z in range(L.dim)
                       if L.bracket[x, y][z])
        if lhs is None:
            lhs = np.full((A.dim, A.dim), ZERO, dtype=object)
        mx, my = pair.mu[x].matrix, pair.mu[y].matrix
        # mu(x) o mu(y): apply mu(y) first, then mu(x)
        rhs = _mat_compose(my, mx) - _mat_compose(mx, my)
        if not _veq(lhs.reshape(-1), rhs.reshape(-1)):
            wit = _tuple_label(L.basis_labels, (x, y))
            break
    checks.append(_law("anchor homomorphism", wit))
    return ValidationReport(tuple(checks))


def _mat_compose(first, then):
    """Matrix of v -> then-image of first-image, in row convention."""
    n = first.shape[0]
    out = np.full((n, then.shape[1]), ZERO, dtype=object)
    for i in range(n):
        acc = out[i]
        for s, c in enumerate(first[i]):
            if c:
                acc = acc + c * then[s]
        out[i] = acc
    return out


def validate_module(pair: CourantPair, module: CPModule) -> ValidationReport:
    """Check every law a module over a Courant pair must satisfy.

    Besides the bimodule laws on M, the Leibniz-representation laws on P, the
    derivation property of each phi(p) and the equivariance of phi, this also
    enforces the symmetric-module structure on M ([m,x] = -[x,m], the action
    law for [.,.] on M, and compatibility of the L-action with multiplication
    by A), because the bicomplex differentials rely on all of them.
    """
    A, L = pair.A, pair.L
    dA, dL, dM, dP = A.dim, L.dim, module.M_dim, module.P_dim
    if module.dim_A != dA or module.dim_L != dL:
        raise InputError("module tensors sized for a different pair")
    la, ra = module.left_act, module.right_act
    Ml, Mr = module.M_left, module.M_right
    Pl, Pr = module.P_left, module.P_right
    checks = []

    def amul(i, vec):  # e_i . vec for vec in M
        return _contract(la[i], vec)

    def mula(vec, j):  # vec . e_j
        out = np.full(dM, ZERO, dtype=object)
        for m, c in enumerate(vec):
            if c:
                out = out + c * ra[m, j]
        return out

    wit = None
    for i, j, m in itertools.product(range(dA), range(dA), range(dM)):
        lhs = sum_vecs(A.mul[i, j][s] * la[s, m] for s in range(dA) if A.mul[i, j][s])
        if lhs is None:
            lhs = np.full(dM, ZERO, dtype=object)
        if not _veq(lhs, amul(i, la[j, m])):
            wit = f"({A.basis_labels[i]}, {A.basis_labels[j]}, m{m})"
            break
    checks.append(_law("bimodule (ab)m = a(bm)", wit))

    wit = None
    for i, m, j in itertools.product(range(dA), range(dM), range(dA)):
        if not _veq(mula(la[i, m], j), amul(i, ra[m, j])):
            wit = f"({A.basis_labels[i]}, m{m}, {A.basis_labels[j]})"
            break
    checks.append(_law("bimodule (am)b = a(mb)", wit))

    wit = None
    for m, i, j in itertools.product(range(dM), range(dA), range(dA)):
        lhs = sum_vecs(A.mul[i, j][s] * ra[m, s] for s in range(dA) if A.mul[i, j][s])
        if lhs is None:
            lhs = np.full(dM, ZERO, dtype=object)
        if not _veq(lhs, mula(ra[m, i], j)):
            wit = f"(m{m}, {A.basis_labels[i]}, {A.basis_labels[j]})"
            break
    checks.append(_law("bimodule m(ab) = (ma)b", wit))

    # Leibniz-representation laws on P (left, middle, right argument in M-slot)
    def pl(x, vec):
        return _contract(Pl[x], vec)

    def pr(vec, x):
        out = np.full(dP, ZERO, dtype=object)
        for p, c in enumerate(vec):
            if c:
                out = out + c * Pr[p, x]
        return out

    wit = None
    for x, y, p in itertools.product(range(dL), range(dL), range(dP)):
        lhs = pl(x, Pl[y, p])
        rhs = pr_bracket(L, Pl, x, y, p) + pl(y, Pl[x, p])
        if not _veq(lhs, rhs):
            wit = f"({L.basis_labels[x]}, {L.basis_labels[y]}, p{p})"
            break
    checks.append(_law("P action [x,[y,p]]", wit))

    wit = None
    for x, p, y in itertools.product(range(dL), range(dP), range(dL)):
        lhs = pl(x, Pr[p, y])
        rhs = pr(Pl[x, p], y) + _contract_left(L.bracket[x, y], Pr, p)
        if not _veq(lhs, rhs):
            wit = f"({L.basis_labels[x]}, p{p}, {L.basis_labels[y]})"
            break
    checks.append(_law("P action [x,[p,y]]", wit))

    wit = None
    for p, x, y in itertools.product(range(dP), range(dL), range(dL)):
        lhs = _contract_left(L.bracket[x, y], Pr, p)
        rhs = pr(Pr[p, x], y) + pl(x, Pr[p, y])
        if not _veq(lhs, rhs):
            wit = f"(p{p}, {L.basis_labels[x]}, {L.basis_labels[y]})"
            break
    checks.append(_law("P action [p,[x,y]]", wit))

    wit = None
    for m, x in itertools.product(range(dM), range(dL)):
        if not _veq(Mr[m, x], -Ml[x, m]):
            wit = f"(m{m}, {L.basis_labels[x]})"
            break
    checks.append(_law("M symmetry [m,x] = -[x,m]", wit))

    wit = None
    for x, y, m in itertools.product(range(dL), range(dL), range(dM)):
        lhs = sum_vecs(L.bracket[x, y][z] * Ml[z, m] for z in range(dL)
                       if L.bracket[x, y][z])
        if lhs is None:
            lhs = np.full(dM, ZERO, dtype=object)
        rhs = _contract(Ml[x], Ml[y, m]) - _contract(Ml[y], Ml[x, m])
        if not _veq(lhs, rhs):
            wit = f"({L.basis_labels[x]}, {L.basis_labels[y]}, m{m})"
            break
    checks.append(_law("M action [[x,y],m] bracket law", wit))

    wit = None
    for x, i, m in itertools.product(range(dL), range(dA), range(dM)):
        lhs = _contract(Ml[x], la[i, m])
        anchored = pair.mu[x].matrix[i]  # mu(x)(e_i)
        rhs = sum_vecs(anchored[s] * la[s, m] for s in range(dA) if anchored[s])
        if rhs is None:
            rhs = np.full(dM, ZERO, dtype=object)
        rhs = rhs + amul(i, Ml[x, m])
        if not _veq(lhs, rhs):
            wit = f"({L.basis_labels[x]}, {A.basis_labels[i]}, m{m})"
            break
    checks.append(_law("compatibility [x, a.m]", wit))

    wit = None
    for x, m, i in itertools.product(range(dL), range(dM), range(dA)):
        lhs = _contract(Ml[x], ra[m, i])
        anchored = pair.mu[x].matrix[i]
        rhs = sum_vecs(anchored[s] * ra[m, s] for s in range(dA) if anchored[s])
        if rhs is None:
            rhs = np.full(dM, ZERO, dtype=object)
        rhs = mula(Ml[x, m], i) + rhs
        if not _veq(lhs, rhs):
            wit = f"({L.basis_labels[x]}, m{m}, {A.basis_labels[i]})"
            break
    checks.append(_law("compatibility [x, m.a]", wit))

    wit = None
    for p, i, j in itertools.product(range(dP), range(dA), range(dA)):
        lhs = sum_vecs(A.mul[i, j][s] * module.phi[p, s] for s in range(dA)
                       if A.mul[i, j][s])
        if lhs is None:
            lhs = np.full(dM, ZERO, dtype=object)
        rhs = mula(module.phi[p, i], j) + amul(i, module.phi[p, j])
        if not _veq(lhs, rhs):
            wit = f"(p{p}, {A.basis_labels[i]}, {A.basis_labels[j]})"
            break
    checks.append(_law("phi maps into derivations", wit))

    wit = None
    for x, p, i in itertools.product(range(dL), range(dP), range(dA)):
        lhs = sum_vecs(Pl[x, p][r] * module.phi[r, i] for r in range(dP) if Pl[x, p][r])
        if lhs is None:
            lhs = np.full(dM, ZERO, dtype=object)
        anchored = pair.mu[x].matrix[i]
        corr = sum_vecs(anchored[s] * module.phi[p, s] for s in range(dA) if anchored[s])
        if corr is None:
            corr = np.full(dM, ZERO, dtype=object)
        rhs = _contract(Ml[x], module.phi[p, i]) - corr
        if not _veq(lhs, rhs):
            wit = f"({L.basis_labels[x]}, p{p}, {A.basis_labels[i]})"
            break
    checks.append(_law("phi equivariance phi([x,p]) = [x, phi(p)]", wit))

    wit = None
    for p, x, i in itertools.product(range(dP), range(dL), range(dA)):
        lhs = sum_vecs(Pr[p, x][r] * module.phi[r, i] for r in range(dP) if Pr[p, x][r])
        if lhs is None:
            lhs = np.full(dM, ZERO, dtype=object)
        anchored = pair.mu[x].matrix[i]
        corr = sum_vecs(anchored[s] * module.phi[p, s] for s in range(dA) if anchored[s])
        if corr is None:
            corr = np.full(dM, ZERO, dtype=object)
        rhs = corr - _contract(Ml[x], module.phi[p, i])
        if not _veq(lhs, rhs):
            wit = f"(p{p}, {L.basis_labels[x]}, {A.basis_labels[i]})"
            break
    checks.append(_law("phi equivariance phi([p,x]) = -[x, phi(p)]", wit))

    return ValidationReport(tuple(checks))


def pr_bracket(L, Pl, x, y, p):
    """[[x,y], p] with the bracket expanded in structure constants."""
    out = None
    for z, c in enumerate(L.bracket[x, y]):
        if c:
            term = c * Pl[z, p]
            out = term if out is None else out + term
    if out is None:
        out = np.full(Pl.shape[2], ZERO, dtype=object)
    return out


def _contract(action_rows, vec):
    """Apply an (n_in, n_out) stack of rows to a coefficient vector."""
    out = np.full(action_rows.shape[1], ZERO, dtype=object)
    for k, c in enumerate(vec):
        if c:
            out = out + c * action_rows[k]
    return out


def _contract_left(coeffs, Pr, p):
    """[p, v] for v given by coeffs over the L-basis."""
    out = np.full(Pr.shape[2], ZERO, dtype=object)
    for x, c in enumerate(coeffs):
        if c:
            out = out + c * Pr[p, x]
    return out


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def adjoint_module(pair: CourantPair) -> CPModule:
    """The module (M, P) = (A, L) with the multiplication and bracket actions.

    [x, a] = mu(x)(a) = -[a, x], and phi = mu.  Built once per pair and
    kept in ``pair.cache``.
    """
    if "adjoint" in pair.cache:
        return pair.cache["adjoint"]
    A, L = pair.A, pair.L
    dA, dL = A.dim, L.dim
    M_left = np.empty((dL, dA, dA), dtype=object)
    M_right = np.empty((dA, dL, dA), dtype=object)
    for x in range(dL):
        for m in range(dA):
            M_left[x, m] = pair.mu[x].matrix[m]
            M_right[m, x] = -pair.mu[x].matrix[m]
    phi = np.empty((dL, dA, dA), dtype=object)
    for p in range(dL):
        phi[p] = pair.mu[p].matrix
    right = np.empty((dA, dA, dA), dtype=object)
    for m in range(dA):
        for a in range(dA):
            right[m, a] = A.mul[m, a]
    P_right = np.empty((dL, dL, dL), dtype=object)
    for p in range(dL):
        for x in range(dL):
            P_right[p, x] = L.bracket[p, x]
    for arr in (M_left, M_right, phi, right, P_right):
        arr.setflags(write=False)
    return pair.cache.setdefault("adjoint", CPModule(
        M_dim=dA, P_dim=dL,
        left_act=A.mul, right_act=right,
        M_left=M_left, M_right=M_right,
        P_left=L.bracket, P_right=P_right,
        phi=phi, dim_A=dA, dim_L=dL,
    ))


def hemisemidirect(g: LeibnizAlgebra, action: np.ndarray, V_dim: int,
                   V_labels: tuple = ()) -> LeibnizAlgebra:
    """The Leibniz algebra g + V with bracket [(x,v),(y,w)] = ([x,y], x.w).

    Requires g to be a Lie algebra (antisymmetric bracket satisfying the
    Leibniz identity) and ``action[x, v]`` to be a Lie-module action of g
    on V.  The result is genuinely Leibniz and almost never Lie.
    """
    if action.shape != (g.dim, V_dim, V_dim):
        raise InputError(f"action tensor must have shape {(g.dim, V_dim, V_dim)}")
    for x, y in itertools.product(range(g.dim), repeat=2):
        if not _veq(g.bracket[x, y], -g.bracket[y, x]):
            raise InputError(f"g is not Lie: bracket not antisymmetric at "
                             f"{_tuple_label(g.basis_labels, (x, y))}")
    if _leibniz_witness(g) is not None:
        raise InputError("g is not Lie: Jacobi/Leibniz identity fails")
    for x, y, v in itertools.product(range(g.dim), range(g.dim), range(V_dim)):
        lhs = _contract(action[x], action[y, v]) - _contract(action[y], action[x, v])
        rhs = sum_vecs(g.bracket[x, y][z] * action[z, v] for z in range(g.dim)
                       if g.bracket[x, y][z])
        if rhs is None:
            rhs = np.full(V_dim, ZERO, dtype=object)
        if not _veq(lhs, rhs):
            raise InputError(f"not a Lie-module action at "
                             f"({g.basis_labels[x]}, {g.basis_labels[y]}, v{v})")

    n = g.dim + V_dim
    bracket = np.full((n, n, n), ZERO, dtype=object)
    for x in range(g.dim):
        for y in range(g.dim):
            for z, c in enumerate(g.bracket[x, y]):
                if c:
                    bracket[x, y, z] = c
        for w in range(V_dim):
            for u, c in enumerate(action[x, w]):
                if c:
                    bracket[x, g.dim + w, g.dim + u] = c
    bracket.setflags(write=False)
    if not V_labels:
        V_labels = tuple(f"v{i}" for i in range(V_dim))
    return LeibnizAlgebra(dim=n, bracket=bracket,
                          basis_labels=tuple(g.basis_labels) + tuple(V_labels))


def commutator_derivations_basis(A: AssocAlgebra):
    """A basis of Der(A), found by solving the linear system D(ab) = D(a)b + aD(b).

    Unknowns are the dim x dim entries of D (row convention); one equation per
    basis pair and output coordinate.
    """
    d = A.dim
    if d == 0:
        return []
    rows = []
    for i, j, k in itertools.product(range(d), repeat=3):
        row = [ZERO] * (d * d)
        for s in range(d):
            c = A.mul[i, j, s]
            if c:
                row[s * d + k] += c
            c = A.mul[s, j, k]
            if c:
                row[i * d + s] -= c
            c = A.mul[i, s, k]
            if c:
                row[j * d + s] -= c
        rows.append(row)
    basis = nullspace_basis(rows, d * d)
    out = []
    for v in basis:
        mat = np.empty((d, d), dtype=object)
        for r in range(d):
            for s in range(d):
                mat[r, s] = v[r * d + s]
        mat.setflags(write=False)
        out.append(Derivation(matrix=mat))
    return out
