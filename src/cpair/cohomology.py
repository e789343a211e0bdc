"""The total complex as matrices: dimensions, cocycles, coboundaries, classes.

Coordinates: a degree-n total cochain is flattened blockwise with p
descending ((n,0) first, (0,n) last), matching ``TotalCochain.components``;
within a block the coefficient tensor is read in row-major order.  The
matrix of the total differential has columns indexed by the degree-n basis
and rows by the degree-(n+1) basis, so ``matrix @ flatten(c)`` equals
``flatten(total_delta(c))``.

Assembly is by scatter: for each basis cochain of the source we enumerate
the finitely many basis cochains of the target it hits, using inverted
structure-constant tables (which pairs multiply onto a given basis element,
which brackets produce it, which elements the anchor maps onto it) and the
module tensors pre-indexed to their nonzero entries, all kept on the pair
(``CourantPair.cache``).  This keeps assembly proportional to the number of
nonzero matrix entries.  Table values are ints wherever they are integral,
so most of the arithmetic is on ints; the values yielded are still exactly
those of delta.  Run on the nonzero coordinates of one cochain
(``TotalComplex.delta``), the same scatter is the production closedness
check (``is_cocycle``, Theta, the catalog), with no matrix built.  The
direct evaluators in ``cochains`` share only the structure tensors with it
and stay the independent cross-check in the tests and in the benchmark's
correctness gate.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from math import prod
from operator import mul

import numpy as np

from .cochains import Cochain, TotalCochain, _shape
from .errors import InputError, InternalError
from .linalg import Echelon, Matrix, rank, solve
from .structures import CourantPair, CPModule, adjoint_module

ZERO = Fraction(0)

_Block = namedtuple("_Block", "p q shape strides offset size")

_Tables = namedtuple("_Tables", "mul_inv bracket_inv muT phi left right "
                                 "M_left M_right P_left P_right")


def _sparse_lines(count, entries):
    """``count`` {index: value} dicts from (line, index, value) entries,
    duplicates added: the rows of a matrix, or with swapped triplets its
    columns."""
    lines = [{} for _ in range(count)]
    for i, j, v in entries:
        d = lines[i]
        nv = d[j] + v if j in d else v
        if nv:
            d[j] = nv
        else:
            d.pop(j, None)
    return lines


def _nonzero(arr):
    """Nested lists over all but the last axis of a coefficient tensor; each
    innermost list holds the (index, value) of the nonzero entries along the
    last axis, values as exact ints where integral."""
    if arr.ndim > 1:
        return [_nonzero(sub) for sub in arr]
    return [(w, c.numerator if c.denominator == 1 else c)
            for w, c in enumerate(arr) if c]


def _inverted(arr):
    """Per index s of the last axis, the (other indices..., value) of the
    nonzero entries of arr at s: what lands on the basis element s."""
    out = [[] for _ in range(arr.shape[-1])]
    for idx in np.ndindex(arr.shape[:-1]):
        for s, c in _nonzero(arr[idx]):
            out[s].append(idx + (c,))
    return out


def _tables(pair: CourantPair, module: CPModule) -> _Tables:
    """The nonzero structure constants the scatter reads: the inverted pair
    tables and the module tensors, built once per (pair, module) and kept
    in ``pair.cache``."""
    key = ("tables", module)
    if key not in pair.cache:
        pair.cache[key] = _Tables(
            _inverted(pair.A.mul), _inverted(pair.L.bracket),
            [_inverted(d.matrix) for d in pair.mu],
            *map(_nonzero, (module.phi, module.left_act, module.right_act,
                            module.M_left, module.M_right, module.P_left,
                            module.P_right)))
    return pair.cache[key]


def _up_entries(pair, module, p, q, key):
    """Scatter of delta_v (p=0) / delta_H (p>0) applied to one basis cochain.

    Yields (target_key, coeff) with the target in bidegree (p+1, q).
    """
    dA = pair.A.dim
    at, xt, v = key[:p], key[p:p + q], key[p + q]
    tabs = _tables(pair, module)
    if p == 0:
        for a in range(dA):
            for w, c in tabs.phi[v][a]:
                yield (a,) + xt + (w,), c
        return
    for b0 in range(dA):
        for w, c in tabs.left[b0][v]:
            yield (b0,) + at + xt + (w,), c
    for k in range(p):
        neg = k % 2 == 0  # sign (-1)^(k+1), k 0-based
        for u, vv, c in tabs.mul_inv[at[k]]:
            yield at[:k] + (u, vv) + at[k + 1:] + xt + (v,), -c if neg else c
    last_neg = p % 2 == 0  # sign (-1)^(p+1)
    for bp in range(dA):
        for w, c in tabs.right[v][bp]:
            yield at + (bp,) + xt + (w,), -c if last_neg else c


def _down_entries(pair, module, p, q, key):
    """Scatter of leibniz_delta (with its (-1)^(q+1) prefactor, but without
    the (-1)^p total-complex sign) applied to one basis cochain.

    Yields (target_key, coeff) with the target in bidegree (p, q+1).
    """
    dL = pair.L.dim
    at, xt, v = key[:p], key[p:p + q], key[p + q]
    tabs = _tables(pair, module)
    eps_neg = q % 2 == 0  # the prefactor (-1)^(q+1)
    left = tabs.M_left if p else tabs.P_left
    right = tabs.M_right if p else tabs.P_right
    for z in range(dL):
        for i in range(1, q + 2):
            if i <= q:
                neg = i % 2 == 0  # (-1)^(i-1)
                yt = xt[:i - 1] + (z,) + xt[i - 1:]
                entries = left[z][v]
                corr_neg = not neg
            else:
                neg = q % 2 == 0  # (-1)^(q+1)
                yt = xt + (z,)
                entries = right[v][z]
                corr_neg = neg
            neg, corr_neg = neg != eps_neg, corr_neg != eps_neg  # times eps
            for w, c in entries:
                yield at + yt + (w,), -c if neg else c
            for k in range(p):
                for u, c in tabs.muT[z][at[k]]:
                    yield (at[:k] + (u,) + at[k + 1:] + yt + (v,),
                           -c if corr_neg else c)
    for i in range(1, q + 2):
        neg = (i % 2 == 1) != eps_neg  # (-1)^i times the prefactor
        for j in range(i + 1, q + 2):
            for u, w, c in tabs.bracket_inv[xt[j - 2]]:
                yt = list(xt[:i - 1]) + [u] + list(xt[i - 1:])
                yt[j - 1] = w
                yield at + tuple(yt) + (v,), -c if neg else c


class GradedBasisIndex:
    """Flat coordinates on C^n_tot = the direct sum of the C^{p,q}, p+q=n.

    Blocks appear with p descending: ``blocks[k]`` has bidegree (n-k, k)
    and starts at its ``offset`` in the flat vector.
    """

    def __init__(self, pair: CourantPair, module: CPModule, n: int):
        if n < 0:
            raise InputError("total degree must be nonnegative")
        self.pair = pair
        self.module = module
        self.n = n
        blocks = []
        offset = 0
        for p in range(n, -1, -1):
            shape = _shape(p, n - p, pair, module)
            strides = tuple(itertools.accumulate(shape[:0:-1], mul, initial=1))[::-1]
            size = prod(shape)
            blocks.append(_Block(p, n - p, shape, strides, offset, size))
            offset += size
        self.blocks = tuple(blocks)
        self.total_dim = offset

    def flat_index(self, p: int, key) -> int:
        b = self.blocks[self.n - p]
        return b.offset + sum(map(mul, b.strides, key))

    def flatten(self, c: TotalCochain):
        if c.n != self.n:
            raise InputError(f"degree-{c.n} cochain in a degree-{self.n} index")
        out = []
        for comp, b in zip(c.components, self.blocks):
            if comp.coeffs.shape != b.shape:
                raise InputError(
                    f"component ({b.p},{b.q}) has tensor shape {comp.coeffs.shape}, "
                    f"expected {b.shape} for this pair/module")
            out.extend(comp.coeffs.ravel().tolist())
        return tuple(out)

    def unflatten(self, vec) -> TotalCochain:
        if len(vec) != self.total_dim:
            raise InputError(f"vector length {len(vec)} != total dim {self.total_dim}")
        comps = []
        pos = 0
        for b in self.blocks:
            chunk = [x if isinstance(x, Fraction) else Fraction(x)
                     for x in vec[pos:pos + b.size]]
            arr = np.empty(b.size, dtype=object)
            arr[:] = chunk
            comps.append(Cochain(b.p, b.q, arr.reshape(b.shape)))
            pos += b.size
        return TotalCochain(self.n, tuple(comps))


class TotalComplex:
    """All matrix-level data of one pair's total complex, built lazily.

    Everything derived (indices, triplets, sparse rows and columns, one
    echelon factorization per differential, kernels) is cached on the
    instance; instances themselves are kept on the pair by
    ``total_complex``.
    """

    def __init__(self, pair: CourantPair, module: CPModule = None):
        self.pair = pair
        self.module = module or adjoint_module(pair)
        self._index = {}
        self._trips = {}
        self._rows = {}
        self._cols = {}
        self._echelons = {}
        self._kernels = {}

    # -- coordinates -------------------------------------------------------

    def index(self, n: int) -> GradedBasisIndex:
        if n not in self._index:
            self._index[n] = GradedBasisIndex(self.pair, self.module, n)
        return self._index[n]

    def dim(self, n: int) -> int:
        return self.index(n).total_dim if n >= 0 else 0

    # -- the differential --------------------------------------------------

    def _scatter(self, b: _Block, dst: GradedBasisIndex, key):
        """(row, value) entries of delta applied to the basis cochain ``key``
        of source block b; rows are flat coordinates of ``dst``.  The down
        part carries the total-complex sign (-1)^p."""
        for tkey, c in _up_entries(self.pair, self.module, b.p, b.q, key):
            yield dst.flat_index(b.p + 1, tkey), c
        odd = b.p % 2
        for tkey, c in _down_entries(self.pair, self.module, b.p, b.q, key):
            yield dst.flat_index(b.p, tkey), -c if odd else c

    def triplets(self, n: int):
        """Sparse (row, col, value) entries of delta^n; duplicates add."""
        if n not in self._trips:
            src, dst = self.index(n), self.index(n + 1)
            trips = []
            for b in src.blocks:
                ranges = [range(s) for s in b.shape]
                for col, key in enumerate(itertools.product(*ranges), start=b.offset):
                    trips.extend((r, col, c) for r, c in self._scatter(b, dst, key))
            self._trips[n] = trips
        return self._trips[n]

    def delta(self, c: TotalCochain) -> dict:
        """delta_tot(c) as {flat degree-(n+1) coordinate: value}, zeros
        dropped, scattered from the nonzero coordinates of c only; no
        matrix is built."""
        src, dst = self.index(c.n), self.index(c.n + 1)
        vec = src.flatten(c)
        out = {}
        for b in src.blocks:
            keys = itertools.product(*[range(s) for s in b.shape])
            for key, x in zip(keys, vec[b.offset:b.offset + b.size]):
                if x:
                    for r, v in self._scatter(b, dst, key):
                        out[r] = out.get(r, ZERO) + v * x
        return {r: v for r, v in out.items() if v}

    def rows(self, n: int):
        """Per-row {col: value} dicts of delta^n, for elimination."""
        if n not in self._rows:
            self._rows[n] = _sparse_lines(self.dim(n + 1), self.triplets(n))
        return self._rows[n]

    def columns(self, n: int):
        """Per-column {row: value} dicts of delta^n, for sparse application."""
        if n not in self._cols:
            self._cols[n] = _sparse_lines(
                self.dim(n), ((c, r, v) for r, c, v in self.triplets(n)))
        return self._cols[n]

    def apply_flat(self, n: int, vec):
        """delta^n applied to flat degree-n coordinates, sparsely."""
        if len(vec) != self.dim(n):
            raise InputError(f"vector length {len(vec)} != dim C^{n} = {self.dim(n)}")
        cols = self.columns(n)
        out = [ZERO] * self.dim(n + 1)
        for j, x in enumerate(vec):
            if x:
                for r, v in cols[j].items():
                    out[r] += v * x
        return tuple(out)

    # -- ranks and spaces ----------------------------------------------------

    def echelon(self, n: int) -> Echelon:
        """The row echelon form of delta^n, shared by its rank and kernel."""
        if n not in self._echelons:
            self._echelons[n] = Echelon(self.dim(n), self.rows(n))
        return self._echelons[n]

    def rank(self, n: int) -> int:
        return self.echelon(n).rank if n >= 0 else 0

    def kernel(self, n: int):
        if n not in self._kernels:
            self._kernels[n] = self.echelon(n).kernel()
        return self._kernels[n]

    def cohomology_dim(self, n: int) -> int:
        return self.dim(n) - self.rank(n) - self.rank(n - 1)

    def representatives(self, n: int):
        """One total cochain per cohomology class generator in degree n.

        Kernel vectors are kept when they enlarge an echelon seeded with the
        columns of delta^{n-1}, so the returned cochains are independent
        modulo coboundaries; no canonical-form claim beyond that.
        """
        want = self.cohomology_dim(n)
        if want == 0:
            return []
        span = Echelon(self.dim(n), self.columns(n - 1) if n > 0 else ())
        reps = []
        for v in self.kernel(n):
            if span.add(v):
                reps.append(self.index(n).unflatten(v))
                if len(reps) == want:
                    break
        if len(reps) != want:
            raise InternalError(f"{len(reps)} independent degree-{n} classes "
                                f"found, but dim H^{n} = {want}")
        return reps

    # -- membership ----------------------------------------------------------

    def is_cocycle(self, c: TotalCochain) -> bool:
        return not self.delta(c)

    def is_coboundary(self, c: TotalCochain):
        """A preimage of c under the total differential, or None.

        Degree 0 has no space below it, so the answer there is always None.
        """
        if c.n == 0:
            return None
        vec = self.index(c.n).flatten(c)
        sol = solve(self.rows(c.n - 1), vec, self.dim(c.n - 1))
        return None if sol is None else self.index(c.n - 1).unflatten(sol)


def total_complex(pair: CourantPair, module: CPModule = None) -> TotalComplex:
    """The total complex of a pair (adjoint coefficients by default), kept
    in ``pair.cache`` so that it lives and dies with the pair."""
    key = ("complex", module or adjoint_module(pair))
    if key not in pair.cache:
        pair.cache[key] = TotalComplex(pair, key[1])
    return pair.cache[key]


# ---------------------------------------------------------------------------
# plain-function API
# ---------------------------------------------------------------------------

def total_space_dim(n: int, pair: CourantPair, module: CPModule = None) -> int:
    """dim C^n_tot = sum over p+q=n of (dim A)^p (dim L)^q (coefficient dim)."""
    return total_complex(pair, module).dim(n)


def total_delta_matrix(n: int, pair: CourantPair, module: CPModule = None) -> Matrix:
    """The matrix of delta_tot: C^n_tot -> C^{n+1}_tot in flat coordinates."""
    tc = total_complex(pair, module)
    return Matrix.from_triplets(tc.dim(n + 1), tc.dim(n), tc.triplets(n))


def cohomology_dim(n: int, pair: CourantPair, module: CPModule = None) -> int:
    """dim HL^n = dim ker(delta^n) - rank(delta^{n-1}); degree 0 is just the kernel."""
    return total_complex(pair, module).cohomology_dim(n)


def cohomology_basis(n: int, pair: CourantPair, module: CPModule = None):
    """Representative total cochains, one per degree-n cohomology class."""
    return total_complex(pair, module).representatives(n)


def is_cocycle(c: TotalCochain, pair: CourantPair, module: CPModule = None) -> bool:
    """Whether total_delta(c) vanishes exactly (scattered from the nonzero
    coordinates of c, no matrix)."""
    return total_complex(pair, module).is_cocycle(c)


def is_coboundary(c: TotalCochain, pair: CourantPair, module: CPModule = None):
    """A total cochain b with total_delta(b) = c, or None if none exists."""
    return total_complex(pair, module).is_coboundary(c)


# ---------------------------------------------------------------------------
# single rows and columns of the bicomplex (for oracle comparison and the
# CLI's column views)
# ---------------------------------------------------------------------------

def _block_triplets(pair, module, p, q, entries_gen, tp, tq):
    """(rows, cols, triplets) of the block differential C^{p,q} -> C^{tp,tq}."""
    sshape = _shape(p, q, pair, module)
    tshape = _shape(tp, tq, pair, module)
    strides = tuple(itertools.accumulate(tshape[:0:-1], mul, initial=1))[::-1]
    trips = []
    for col, key in enumerate(itertools.product(*[range(s) for s in sshape])):
        for tkey, c in entries_gen(pair, module, p, q, key):
            trips.append((sum(map(mul, strides, tkey)), col, c))
    return prod(tshape), prod(sshape), trips


def _axis_triplets(column, n, pair, module):
    """The degree-n differential of the q = 0 row ("hochschild") or of the
    p = 0 column ("leibniz"), as (rows, cols, triplets)."""
    if n < 0:
        raise InputError(f"{'p' if column == 'hochschild' else 'q'} "
                         f"must be nonnegative")
    module = module or adjoint_module(pair)
    if column == "hochschild":
        return _block_triplets(pair, module, n, 0, _up_entries, n + 1, 0)
    return _block_triplets(pair, module, 0, n, _down_entries, 0, n + 1)


def row_delta_matrix(p: int, pair: CourantPair, module: CPModule = None) -> Matrix:
    """The q = 0 row differential C^{p,0} -> C^{p+1,0}.

    This is the vertical map (composition with phi) at p = 0 and the
    bar-type coboundary at p >= 1; for p >= 1 it is the classical complex
    of the associative algebra with coefficients in M.
    """
    return Matrix.from_triplets(*_axis_triplets("hochschild", p, pair, module))


def column_delta_matrix(q: int, pair: CourantPair, module: CPModule = None) -> Matrix:
    """The p = 0 column differential C^{0,q} -> C^{0,q+1} on P-valued cochains.

    Carries the same (-1)^(q+1) prefactor the total complex uses, i.e. it is
    that unit times the classical bracket-algebra coboundary.
    """
    return Matrix.from_triplets(*_axis_triplets("leibniz", q, pair, module))


def axis_rank(column: str, n: int, pair: CourantPair, module: CPModule = None) -> int:
    """Rank of the degree-n ``row_delta_matrix`` (column "hochschild") or
    ``column_delta_matrix`` (column "leibniz"), eliminated sparsely."""
    rows, cols, trips = _axis_triplets(column, n, pair, module)
    return rank(_sparse_lines(rows, trips), cols)
