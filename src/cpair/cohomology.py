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
block map in a fixed number of numpy int64 operations.  Each group has an
exact value (a Python int wherever the constant is integral, else a
Fraction) and that value times the common denominator D of all the
constants (int64 where it fits).  With the exact values the kernel
assembles the matrix (``triplets``, ``rows``, ``columns``, the axis
matrices), and run on the nonzero coordinates of one cochain
(``TotalComplex.delta``) it is the production closedness check
(``is_cocycle``, Theta, the catalog), with no matrix built.

Ranks take the integer values, since D delta has the rank and kernel of
delta: ``_lines`` sums duplicates in int64 where a bound allows and makes
each line primitive in numpy, so no Fraction exists between the
structure constants and the pivots.  ``rank`` runs one clearing pass up
the degrees (``TotalComplex._clear``, Chen-Kerber's "twist"): the columns
of delta^k at the pivots of the column echelon of delta^{k-1} are dropped
and only the rest is eliminated.  A differential is sized up before
anything is indexed or assembled, from dim C^n in closed form and then
from its block maps, and refused above ``MAX_INDEX_CELLS``.  The direct
evaluators in ``cochains`` and the per-key scatter in the tests' oracles
share only the structure tensors with the kernel and stay the independent
cross-checks.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from math import lcm, prod
from operator import mul

import numpy as np

from .cochains import Cochain, TotalCochain, _shape
from .errors import InputError, InternalError
from .linalg import Echelon, Matrix, solve
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
# of entries of the whole map.  ``ivals`` are the values times the common
# denominator D of the structure constants (see ``_groups``).
_Map = namedtuple("_Map", "shape size tsize count axes weights soff starts "
                          "consts vals ivals")


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
    negated values, integer values, negated integer values).  The values
    are exact, ints wherever they are integral; the integer values are
    the values times the common denominator D of all the constants, int64
    where they fit and Python ints otherwise, so they assemble D delta."""
    dA = pair.A.dim
    tensors = {"mul": pair.A.mul, "bracket": pair.L.bracket,
               "mu": np.array([d.matrix for d in pair.mu],
                              dtype=object).reshape(-1, dA, dA)}
    found = {}
    for name, axes in _AXES.items():
        arr = tensors[name] if name in tensors else getattr(module, name)
        idx = np.nonzero(arr)
        order = np.argsort(idx[axes[0]], kind="stable")
        starts = np.searchsorted(idx[axes[0]][order],
                                 np.arange(arr.shape[axes[0]] + 1))
        found[name] = (starts, idx[axes[1]][order], idx[axes[2]][order],
                       arr[idx][order].tolist())
    den = lcm(*{c.denominator for *_, cs in found.values() for c in cs})
    out = {}
    for name, (starts, rep, ins, cs) in found.items():
        vals = np.empty(len(cs), dtype=object)
        vals[:] = [c.numerator if c.denominator == 1 else c for c in cs]
        ints = (vals.tolist() if den == 1 else
                [c.numerator * (den // c.denominator) for c in cs])
        big = max(map(abs, ints), default=0) >= 2 ** 62
        ivals = np.array(ints, object if big else np.int64)
        out[name] = (starts, rep, ins, vals, -vals, ivals, -ivals)
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
    tshapes = (_shape(p + 1, q, pair, module), _shape(p, q + 1, pair, module))
    for tshape in tshapes:
        if prod(tshape) >= 2 ** 62:
            raise InputError(f"the degree-{p + q} differential reaches a block of "
                             f"{_count(prod(tshape))} coordinates, beyond 64-bit indices")
    # the number of terms ``_terms`` lists, each with p+q+1 weights
    cells = ((p + 2 if p else 1) + 1 + q + p * (q + 1) + q * (q + 1) // 2) * (p + q + 1)
    if cells > MAX_INDEX_CELLS:
        raise InputError(f"the degree-{p + q} differential's terms on block "
                         f"({p},{q}) take {cells} index cells, above the "
                         f"limit of {MAX_INDEX_CELLS}")
    out = []
    for tshape, terms in zip(tshapes, _terms(p, q)):
        tstr = _strides(tshape)
        terms = terms if size else []
        axes, weights, soff, starts, consts, vals, ivals = ([] for _ in range(7))
        count = ngroups = nstarts = 0
        for name, alpha, beta, sign in terms:
            first, rep, ins, pos_vals, neg_vals, pos_ints, neg_ints = groups[name]
            pos = [a + (a >= beta) for a in range(len(shape))]
            axes.append(alpha)
            weights.append([0 if a == alpha else tstr[pos[a]]
                            for a in range(len(shape))])
            soff.append(nstarts)
            starts.append(first + ngroups)
            consts.append(rep * tstr[pos[alpha]] + ins * tstr[beta])
            vals.append(pos_vals if sign > 0 else neg_vals)
            ivals.append(pos_ints if sign > 0 else neg_ints)
            count += len(rep) * size // shape[alpha]
            ngroups += len(rep)
            nstarts += shape[alpha] + 1
        out.append(_Map(
            shape, size, prod(tshape), count, np.array(axes, np.int64),
            np.array(weights, np.int64).reshape(-1, len(shape)),
            np.array(soff, np.int64).reshape(-1, 1),
            *(np.concatenate([np.empty(0, dt)] + a) for a, dt in
              ((starts, np.int64), (consts, np.int64), (vals, object),
               (ivals, np.int64)))))
    return tuple(out)


def _hits(m: _Map, src, ints=False):
    """The entries of block map m from the sources with block-local flat
    indices ``src``: (position in src, target row, value) arrays, one
    entry per source, term and group whose fixed coordinate it matches,
    the values exact or, with ``ints``, D times those.
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
    return hit % max(len(src), 1), rows, (m.ivals if ints else m.vals)[g]


def _count(x: int) -> str:
    """x in decimal, or when it is huge the power of two it rounds down to."""
    return str(x) if x < 10 ** 100 else f"~2^{x.bit_length() - 1}"


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


def _check_cells(plan) -> None:
    """Refuse, before anything of that size is allocated, the block maps in
    ``plan`` ((map, col offset, row offset) triples, all from blocks of one
    degree) if assembling them takes more than ``MAX_INDEX_CELLS`` index
    cells."""
    count = sum(m.count for m, _, _ in plan)
    cells = count + sum(len(m.axes) * m.size for m, _, _ in plan)
    if cells > MAX_INDEX_CELLS:
        n = len(plan[0][0].shape) - 1
        raise InputError(
            f"the degree-{n} differential has {count} nonzero entries; "
            f"assembling it takes {cells} index cells (at least "
            f"{cells * 8 // 10 ** 6} MB), above the limit of {MAX_INDEX_CELLS}")


def _assemble(plan, ints=False, kept=None) -> _Entries:
    """The entries of the block maps in ``plan`` from all their sources, or
    from those where the flat mask ``kept`` is set, after ``_check_cells``;
    the values exact or, with ``ints``, D times those."""
    _check_cells(plan)
    parts = []
    for m, coff, roff in plan:
        src = (np.arange(m.size) if kept is None
               else np.flatnonzero(kept[coff:coff + m.size]))
        j, r, v = _hits(m, src, ints)
        parts.append((r + roff, src[j] + coff, v))
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


def _lines(count, major, minor, val, width, primitive=False):
    """``count`` {minor: value} dicts, one per major index, duplicates
    added: the rows of a matrix, or with the roles swapped its columns.
    With ``primitive`` the values are integers, each line is divided by
    its content and signed so its first entry is positive (the rows
    ``Echelon._of_primitive`` takes), and duplicates are added in int64
    only where the entry count times the largest value stays below 2^63."""
    if primitive and val.dtype != object and len(val) \
            and int(np.abs(val).max()) * len(val) >= 2 ** 63:
        val = val.astype(object)
    width = max(width, 1)
    key, val = _summed(major * width + minor, val)
    sizes = np.bincount(key // width, minlength=count)
    if primitive and len(key):
        first = (np.cumsum(sizes) - sizes)[sizes > 0]
        g = np.gcd.reduceat(np.abs(val), first)
        g[val[first] < 0] *= -1
        val = val // np.repeat(g, sizes[sizes > 0])
    entries = zip((key % width).tolist(), val.tolist())
    return [dict(itertools.islice(entries, k)) for k in sizes.tolist()]


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
        self._ranks = {}
        self._cleared = (-1, [])  # the pass's last degree and its pivots

    # -- coordinates -------------------------------------------------------

    def index(self, n: int) -> GradedBasisIndex:
        if n not in self._index:
            self._index[n] = GradedBasisIndex(self.pair, self.module, n)
        return self._index[n]

    def dim(self, n: int) -> int:
        """dim C^n = (dim P) l^n + (dim M) sum_{p=1..n} a^p l^(n-p), where
        a = dim A and l = dim L, in closed form: no index is built."""
        if n < 0:
            return 0
        a, l = self.pair.A.dim, self.pair.L.dim
        tail = n * a ** n if a == l else a * (a ** n - l ** n) // (a - l)
        return self.module.P_dim * l ** n + self.module.M_dim * tail

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

    def _plan(self, n: int):
        """The block maps of delta^n with their column and row offsets, for
        ``_assemble``.  Each coordinate of a nonempty block takes at least
        one index cell, so dim C^n is checked first, before any index."""
        dim = self.dim(n)
        if dim > MAX_INDEX_CELLS:
            raise InputError(
                f"the degree-{n} differential acts on {_count(dim)} coordinates; "
                f"assembling it takes at least that many index cells (at least "
                f"{_count(dim * 8 // 10 ** 6)} MB), above the limit of {MAX_INDEX_CELLS}")
        return [(m, b.offset, t.offset)
                for b in self.index(n).blocks for t, m in self._targets(b)]

    def triplets(self, n: int) -> _Entries:
        """The entries of delta^n in flat coordinates, one per source basis
        cochain and structure-constant group that hits it; duplicates add."""
        if n not in self._trips:
            self._trips[n] = _assemble(self._plan(n))
        return self._trips[n]

    def _int_lines(self, n: int, columns: bool, kept=None):
        """The rows of D delta^n, or with ``columns`` its columns (empty
        where the flat mask ``kept`` is not set), as primitive integer
        dicts; no Fraction is made."""
        e = _assemble(self._plan(n), ints=True, kept=kept)
        if columns:
            return _lines(self.dim(n), e.col, e.row, e.val, self.dim(n + 1), True)
        return _lines(self.dim(n + 1), e.row, e.col, e.val, self.dim(n), True)

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
        """The row echelon form of delta^n, for its kernel (``--classes``)."""
        if n not in self._echelons:
            self._echelons[n] = Echelon._of_primitive(
                self.dim(n), self._int_lines(n, columns=False))
        return self._echelons[n]

    def _clear(self, n: int) -> Echelon:
        """Run the clearing pass up through degree n, recording each rank,
        and return the echelon of delta^n's columns (it spans im delta^n).
        A pivot of the column echelon of delta^{k-1} leads a coboundary,
        which delta^k kills, so that column of delta^k is a combination of
        later ones: dropping it keeps the rank, and dim H^k of the kept
        columns reduce to zero.  Only the last degree's pivots are kept."""
        top, pivots = self._cleared
        if top >= n:  # the pivots below n are gone: start again at 0
            top, pivots = -1, []
        _check_cells(self._plan(n))
        for k in range(top + 1, n + 1):
            kept = np.ones(self.dim(k), bool)
            kept[pivots] = False
            span = Echelon._of_primitive(self.dim(k + 1),
                                         self._int_lines(k, True, kept))
            if kept.sum() < span.rank:
                raise InternalError(f"more pivots than kept columns in the "
                                    f"degree-{k} differential")
            self._ranks[k], pivots = span.rank, np.fromiter(span._pivots, np.int64)
            self._cleared = (k, pivots)
        return span

    def rank(self, n: int) -> int:
        """rank delta^n: from the echelon of its kernel if one was built,
        otherwise from the clearing pass."""
        if n < 0:
            return 0
        if n in self._echelons:
            return self._echelons[n].rank
        if n not in self._ranks:
            self._clear(n)
        return self._ranks[n]

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
        clearing pass's echelon of the columns of delta^{n-1}, so the
        returned cochains are independent modulo coboundaries; no
        canonical-form claim beyond that.
        """
        self.echelon(n)  # rank delta^n is read from the echelon of the kernel
        span = self._clear(n - 1) if n > 0 else Echelon(self.dim(n))
        want = self.cohomology_dim(n)
        if want == 0:
            return []
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

def _axis_map(column, n, pair, module, ints=False):
    """The degree-n differential of the q = 0 row ("hochschild", the up
    map of C^{n,0}) or of the p = 0 column ("leibniz", the down map of
    C^{0,n}), with its entries (exact, or D times those with ``ints``)."""
    if n < 0:
        raise InputError(f"{'p' if column == 'hochschild' else 'q'} "
                         f"must be nonnegative")
    up, down = total_complex(pair, module).block_maps(
        *((n, 0) if column == "hochschild" else (0, n)))
    m = up if column == "hochschild" else down
    return m, _assemble([(m, 0, 0)], ints)


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
    ``column_delta_matrix`` (column "leibniz"), eliminated sparsely from
    its primitive integer rows."""
    m, e = _axis_map(column, n, pair, module, ints=True)
    return Echelon._of_primitive(
        m.size, _lines(m.tsize, e.row, e.col, e.val, m.size, True)).rank
