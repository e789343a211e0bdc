"""The total complex as matrices: dimensions, cocycles, coboundaries, classes.

Coordinates: a degree-n total cochain is flattened blockwise with p
descending ((n,0) first, (0,n) last), matching ``TotalCochain.components``;
within a block the coefficient tensor is read in row-major order.  The
matrix of the total differential has columns indexed by the degree-n basis
and rows by the degree-(n+1) basis, so ``matrix @ flatten(c)`` equals
``flatten(total_delta(c))``.

Assembly is by one array kernel (``_hits``).  On a block C^{p,q}, every
term of delta_H/delta_v and of (-1)^p delta_L applies one structure
constant (an entry of the multiplication, the bracket, an anchor matrix,
phi or a module action) at one argument position: it reads one source
coordinate, replaces it and inserts one new coordinate into the target.
So each term is a table of groups, one per nonzero constant; a group hits
every source key whose fixed coordinate has the constant's value, and its
target flat index is an affine function of the source multi-index.  The
kernel computes the rows and columns of the entries of all the terms of a
block map in a fixed number of numpy int64 operations.  Only indices live
in numpy: each group's value is an exact Python int (wherever the constant
is integral) or Fraction, held in an object array, and duplicates are
summed by Python's own addition after a sort.  Run on the whole block it
assembles the matrix (``triplets``, ``rows``, ``columns``, the axis
matrices), after an estimate of its size that refuses a differential too
large to index (``MAX_INDEX_CELLS``); run on the nonzero coordinates of
one cochain (``TotalComplex.delta``) it is the production closedness check
(``is_cocycle``, Theta, the catalog), with no matrix built.  The direct
evaluators in ``cochains`` and the per-key scatter in the tests' oracles
share only the structure tensors with it and stay the independent
cross-checks.
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

#: The most int64 index cells the assembly of one differential may need:
#: one per matrix entry and one per term of a block map and source cochain.
MAX_INDEX_CELLS = 10 ** 7

_Block = namedtuple("_Block", "p q shape offset size")

# delta_H/delta_v ("up") or (-1)^p delta_L ("down") from one block: its
# terms' groups, concatenated.  Term t fixes source axis ``axes[t]``; its
# groups for the fixed coordinate s are ``starts[soff[t] + s]`` up to
# ``starts[soff[t] + s + 1]``, each with the constant part of its target
# index (``consts``) and its exact value (``vals``); row t of ``weights``
# holds the target strides of the carried-over source axes, 0 on the
# fixed one.  ``size``/``tsize`` are the block sizes, ``count`` the number
# of entries of the whole map.
_Map = namedtuple("_Map", "shape size tsize count axes weights soff starts "
                          "consts vals")


def _strides(shape):
    return tuple(itertools.accumulate(shape[:0:-1], mul, initial=1))[::-1]


#: For each structure tensor, the axes holding the fixed source coordinate,
#: its replacement in the target and the coordinate inserted there.
_AXES = {"mul": (2, 0, 1), "bracket": (2, 1, 0), "mu": (2, 1, 0),
         "phi": (0, 2, 1), "left_act": (1, 2, 0), "right_act": (0, 2, 1),
         "M_left": (1, 2, 0), "M_right": (0, 2, 1),
         "P_left": (1, 2, 0), "P_right": (0, 2, 1)}


def _groups(pair: CourantPair, module: CPModule) -> dict:
    """Per structure tensor, its nonzero entries sorted by the fixed
    coordinate s: (where each s starts, replacement, insertion, values,
    negated values), the values exact ints wherever they are integral."""
    dA = pair.A.dim
    tensors = {"mul": pair.A.mul, "bracket": pair.L.bracket,
               "mu": np.array([d.matrix for d in pair.mu],
                              dtype=object).reshape(-1, dA, dA)}
    out = {}
    for name, axes in _AXES.items():
        arr = tensors[name] if name in tensors else getattr(module, name)
        idx = np.nonzero(arr)
        order = np.argsort(idx[axes[0]], kind="stable")
        vals = np.empty(len(order), dtype=object)
        vals[:] = [c.numerator if c.denominator == 1 else c
                   for c in arr[idx][order]]
        starts = np.searchsorted(idx[axes[0]][order],
                                 np.arange(arr.shape[axes[0]] + 1))
        out[name] = (starts, idx[axes[1]][order], idx[axes[2]][order],
                     vals, -vals)
    return out


def _terms(p: int, q: int):
    """The terms of the (up, down) maps from block C^{p,q}, each as
    (tensor, fixed source axis, target axis of the insertion, sign).

    Up: a_1 . f(..), f(.., a_k a_{k+1}, ..) with sign (-1)^(k+1) and
    f(..) . a_{p+1} with (-1)^(p+1), or phi after f at p = 0.  Down: the
    Loday coboundary in the L-arguments with its (-1)^(q+1) prefactor and
    the total-complex sign (-1)^p; see ``cochains.leibniz_delta``.
    """
    val = p + q  # the value axis
    if p == 0:
        up = [("phi", val, 0, 1)]
    else:
        up = ([("left_act", val, 0, 1)]
              + [("mul", k, k + 1, (-1) ** (k + 1)) for k in range(p)]
              + [("right_act", val, p, (-1) ** (p + 1))])
    left, right = ("M_left", "M_right") if p else ("P_left", "P_right")
    t = (-1) ** p
    down = [(right, val, val, t)]
    for i in range(1, q + 2):
        if i <= q:
            down.append((left, val, p + i - 1, t * (-1) ** (i + q)))
        down += [("mu", k, p + i - 1, t * (-1) ** (i + q + 1)) for k in range(p)]
        down += [("bracket", p + j - 2, p + i - 1, t * (-1) ** (i + q + 1))
                 for j in range(i + 1, q + 2)]
    return up, down


def _maps(groups, pair: CourantPair, module: CPModule, p: int, q: int):
    """The (up, down) maps of the total differential from block C^{p,q};
    an empty block has no terms."""
    shape = _shape(p, q, pair, module)
    size = prod(shape)
    out = []
    for tshape, terms in zip((_shape(p + 1, q, pair, module),
                              _shape(p, q + 1, pair, module)), _terms(p, q)):
        if prod(tshape) >= 2 ** 62:
            raise InputError(f"the degree-{p + q} differential reaches a block "
                             f"of {prod(tshape)} coordinates, beyond 64-bit indices")
        tstr = _strides(tshape)
        terms = terms if size else []
        axes, weights, soff, starts, consts, vals = [], [], [], [], [], []
        count = ngroups = nstarts = 0
        for name, alpha, beta, sign in terms:
            first, rep, ins, pos_vals, neg_vals = groups[name]
            pos = [a + (a >= beta) for a in range(len(shape))]
            axes.append(alpha)
            weights.append([0 if a == alpha else tstr[pos[a]]
                            for a in range(len(shape))])
            soff.append(nstarts)
            starts.append(first + ngroups)
            consts.append(rep * tstr[pos[alpha]] + ins * tstr[beta])
            vals.append(pos_vals if sign > 0 else neg_vals)
            count += len(rep) * size // shape[alpha]
            ngroups += len(rep)
            nstarts += shape[alpha] + 1
        out.append(_Map(
            shape, size, prod(tshape), count, np.array(axes, np.int64),
            np.array(weights, np.int64).reshape(-1, len(shape)),
            np.array(soff, np.int64).reshape(-1, 1),
            *(np.concatenate([np.empty(0, dt)] + a) for a, dt in
              ((starts, np.int64), (consts, np.int64), (vals, object)))))
    return tuple(out)


def _hits(m: _Map, src):
    """The entries of block map m from the sources with block-local flat
    indices ``src``: (position in src, target row, value) arrays, one
    entry per source, term and group whose fixed coordinate it matches.
    The work is a fixed number of numpy operations on index arrays."""
    keys = np.array(np.unravel_index(src, m.shape), np.int64)
    at = (keys[m.axes] + m.soff).ravel()  # (term, source) -> its groups
    first = m.starts[at]
    cnt = m.starts[at + 1] - first
    ends = np.cumsum(cnt)
    total = int(ends[-1]) if len(ends) else 0
    hit = np.repeat(np.arange(len(at)), cnt)  # entry -> (term, source)
    g = np.repeat(first - ends + cnt, cnt) + np.arange(total)
    rows = (m.weights @ keys).ravel()[hit] + m.consts[g]
    return hit % max(len(src), 1), rows, m.vals[g]


class _Entries:
    """Sparse matrix entries as parallel arrays: int64 rows and columns,
    and exact Python ints and Fractions in an object array; duplicate
    positions add.  Iteration yields (row, col, value) as Python objects."""

    __slots__ = ("row", "col", "val")

    def __init__(self, row, col, val):
        self.row, self.col, self.val = row, col, val

    def __len__(self):
        return len(self.row)

    def __iter__(self):
        return zip(self.row.tolist(), self.col.tolist(), self.val.tolist())


def _assemble(plan) -> _Entries:
    """The entries of the block maps in ``plan`` ((map, col offset, row
    offset) triples, all from blocks of one degree) from all their sources,
    after checking the index cells this takes against ``MAX_INDEX_CELLS``
    before anything of that size is allocated."""
    count = sum(m.count for m, _, _ in plan)
    cells = count + sum(len(m.axes) * m.size for m, _, _ in plan)
    if cells > MAX_INDEX_CELLS:
        n = len(plan[0][0].shape) - 1
        raise InputError(
            f"the degree-{n} differential has {count} nonzero entries; "
            f"assembling it takes {cells} index cells (at least "
            f"{cells * 8 // 10 ** 6} MB), above the limit of {MAX_INDEX_CELLS}")
    parts = [(r + roff, j + coff, v) for m, coff, roff in plan
             for j, r, v in [_hits(m, np.arange(m.size))]]
    return _Entries(*(np.concatenate(a) for a in zip(*parts)))


def _summed(key, val):
    """The distinct keys, ascending, with the sum of the values at each;
    zero sums dropped.  The additions are Python's, on exact values."""
    order = np.argsort(key)
    key, val = key[order], val[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    if len(first) < len(key):
        key, val = key[first], np.add.reduceat(val, first)
    keep = val.astype(bool)
    return key[keep], val[keep]


def _lines(count, major, minor, val, width):
    """``count`` {minor: value} dicts, one per major index, duplicates
    added: the rows of a matrix, or with the roles swapped its columns."""
    width = max(width, 1)
    key, val = _summed(major * width + minor, val)
    entries = zip((key % width).tolist(), val.tolist())
    return [dict(itertools.islice(entries, k))
            for k in np.bincount(key // width, minlength=count).tolist()]


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
            size = prod(shape)
            blocks.append(_Block(p, n - p, shape, offset, size))
            offset += size
        self.blocks = tuple(blocks)
        self.total_dim = offset

    def check(self, c: TotalCochain):
        """Raise InputError unless c is a cochain of this degree and shape."""
        if c.n != self.n:
            raise InputError(f"degree-{c.n} cochain in a degree-{self.n} index")
        for comp, b in zip(c.components, self.blocks):
            if comp.coeffs.shape != b.shape:
                raise InputError(
                    f"component ({b.p},{b.q}) has tensor shape {comp.coeffs.shape}, "
                    f"expected {b.shape} for this pair/module")

    def flatten(self, c: TotalCochain):
        self.check(c)
        out = []
        for comp in c.components:
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

    Everything derived (indices, block maps, entries, sparse rows and
    columns, one echelon factorization per differential, kernels) is cached
    on the instance; instances themselves are kept on the pair by
    ``total_complex``.
    """

    def __init__(self, pair: CourantPair, module: CPModule = None):
        self.pair = pair
        self.module = module or adjoint_module(pair)
        self._index = {}
        self._groups = _groups(pair, self.module)
        self._maps = {}
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

    def block_maps(self, p: int, q: int):
        """The (up, down) maps from block C^{p,q}: delta_H (delta_v at
        p = 0) into C^{p+1,q} and (-1)^p delta_L into C^{p,q+1}."""
        if (p, q) not in self._maps:
            self._maps[p, q] = _maps(self._groups, self.pair, self.module, p, q)
        return self._maps[p, q]

    def _targets(self, b: _Block):
        """(target block, map) for the up and the down map of block b."""
        return zip(self.index(b.p + b.q + 1).blocks[b.q:], self.block_maps(b.p, b.q))

    def triplets(self, n: int) -> _Entries:
        """The entries of delta^n in flat coordinates, one per source basis
        cochain and structure-constant group that hits it; duplicates add."""
        if n not in self._trips:
            self._trips[n] = _assemble([(m, b.offset, t.offset)
                                        for b in self.index(n).blocks
                                        for t, m in self._targets(b)])
        return self._trips[n]

    def delta(self, c: TotalCochain) -> dict:
        """delta_tot(c) as {flat degree-(n+1) coordinate: value}, zeros
        dropped: the assembly kernel run on the nonzero coordinates of c
        only, so that a zero component costs no block map; no matrix is
        built."""
        src = self.index(c.n)
        src.check(c)
        rows, vals = [np.empty(0, np.int64)], [np.empty(0, dtype=object)]
        for b, comp in zip(src.blocks, c.components):
            x = comp.coeffs.ravel()
            nonzero = np.flatnonzero(x)
            if len(nonzero):
                for t, m in self._targets(b):
                    j, r, v = _hits(m, nonzero)
                    rows.append(r + t.offset)
                    vals.append(v * x[nonzero][j])
        key, val = _summed(np.concatenate(rows), np.concatenate(vals))
        return dict(zip(key.tolist(), val.tolist()))

    def rows(self, n: int):
        """Per-row {col: value} dicts of delta^n, for elimination."""
        if n not in self._rows:
            e = self.triplets(n)
            self._rows[n] = _lines(self.dim(n + 1), e.row, e.col, e.val, self.dim(n))
        return self._rows[n]

    def columns(self, n: int):
        """Per-column {row: value} dicts of delta^n, for sparse application."""
        if n not in self._cols:
            e = self.triplets(n)
            self._cols[n] = _lines(self.dim(n), e.col, e.row, e.val, self.dim(n + 1))
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
        """A basis of ker delta^n as sparse {col: Fraction} vectors (see
        ``Echelon.sparse_kernel``)."""
        if n not in self._kernels:
            self._kernels[n] = self.echelon(n).sparse_kernel()
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
                reps.append(self.index(n).unflatten(
                    [v.get(j, ZERO) for j in range(self.dim(n))]))
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
    """Whether total_delta(c) vanishes exactly (the assembly kernel run on
    the nonzero coordinates of c, no matrix)."""
    return total_complex(pair, module).is_cocycle(c)


def is_coboundary(c: TotalCochain, pair: CourantPair, module: CPModule = None):
    """A total cochain b with total_delta(b) = c, or None if none exists."""
    return total_complex(pair, module).is_coboundary(c)


# ---------------------------------------------------------------------------
# single rows and columns of the bicomplex (for oracle comparison and the
# CLI's column views)
# ---------------------------------------------------------------------------

def _axis_map(column, n, pair, module):
    """The degree-n differential of the q = 0 row ("hochschild", the up
    map of C^{n,0}) or of the p = 0 column ("leibniz", the down map of
    C^{0,n}), with its entries."""
    if n < 0:
        raise InputError(f"{'p' if column == 'hochschild' else 'q'} "
                         f"must be nonnegative")
    up, down = total_complex(pair, module).block_maps(
        *((n, 0) if column == "hochschild" else (0, n)))
    m = up if column == "hochschild" else down
    return m, _assemble([(m, 0, 0)])


def row_delta_matrix(p: int, pair: CourantPair, module: CPModule = None) -> Matrix:
    """The q = 0 row differential C^{p,0} -> C^{p+1,0}.

    This is the vertical map (composition with phi) at p = 0 and the
    bar-type coboundary at p >= 1; for p >= 1 it is the classical complex
    of the associative algebra with coefficients in M.
    """
    m, e = _axis_map("hochschild", p, pair, module)
    return Matrix.from_triplets(m.tsize, m.size, e)


def column_delta_matrix(q: int, pair: CourantPair, module: CPModule = None) -> Matrix:
    """The p = 0 column differential C^{0,q} -> C^{0,q+1} on P-valued cochains.

    Carries the same (-1)^(q+1) prefactor the total complex uses, i.e. it is
    that unit times the classical bracket-algebra coboundary.
    """
    m, e = _axis_map("leibniz", q, pair, module)
    return Matrix.from_triplets(m.tsize, m.size, e)


def axis_rank(column: str, n: int, pair: CourantPair, module: CPModule = None) -> int:
    """Rank of the degree-n ``row_delta_matrix`` (column "hochschild") or
    ``column_delta_matrix`` (column "leibniz"), eliminated sparsely."""
    m, e = _axis_map(column, n, pair, module)
    return rank(_lines(m.tsize, e.row, e.col, e.val, m.size), m.size)
