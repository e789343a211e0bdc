"""Exact linear algebra over the rationals.

Everything in this module is exact, and there is no floating point
anywhere.  Public values (`Matrix` entries, kernel vectors, solutions) are
`fractions.Fraction`s, but elimination runs on Python ints: fraction-free
elimination over Z (after Bareiss, Math. Comp. 22, 1968) on primitive
integer rows, which span the same lines over Q as the rows given.

One elimination engine, `Echelon`, serves rank, kernel, solve and span
membership.  It keeps sparse ``{col: value}`` rows in row echelon form and
grows by insertion: a new row is reduced against the existing pivot rows
only, and what is left becomes a pivot row at its leftmost column.  Rows
are never reduced back into earlier pivots, so a rank needs forward
elimination only; the reduced row echelon form (RREF) is built only when a
kernel is asked for, and a solution only back-substitutes.  These two are
the only places that divide, by the leading entries of pivot rows.

Pivots are always leftmost columns, so the pivot columns and the RREF
depend only on the row space, not on the order rows are inserted in.  The
kernel basis and the free-variables-zero solution are therefore canonical."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import InputError

ZERO = Fraction(0)
ONE = Fraction(1)


def _as_scalar(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise InputError(f"matrix entries must be exact rationals, got {type(x).__name__}")


class Matrix:
    """A dense, immutable rows x cols matrix of rationals.

    Entries are stored row-major as a tuple of row tuples.  Zero-dimensional
    matrices (0 rows and/or 0 columns) are allowed; they show up naturally as
    differentials in and out of zero cochain spaces.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        if rows < 0 or cols < 0:
            raise InputError("matrix dimensions must be nonnegative")
        data = tuple(tuple(_as_scalar(x) for x in r) for r in entries)
        if len(data) != rows or any(len(r) != cols for r in data):
            raise InputError(f"entry grid does not match shape {rows}x{cols}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", data)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_rows(cls, entries) -> "Matrix":
        data = [list(r) for r in entries]
        rows = len(data)
        cols = len(data[0]) if data else 0
        return cls(rows, cols, data)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, [[ZERO] * cols for _ in range(rows)])

    @classmethod
    def from_triplets(cls, rows: int, cols: int, triplets) -> "Matrix":
        """Build from an iterable of (row, col, value); duplicate positions add."""
        grid = [[ZERO] * cols for _ in range(rows)]
        for i, j, v in triplets:
            grid[i][j] += v
        return cls(rows, cols, grid)

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i][j]

    def mul_vec(self, v):
        """Matrix-vector product; v has length cols, result has length rows."""
        if len(v) != self.cols:
            raise InputError(f"vector length {len(v)} != cols {self.cols}")
        return tuple(
            sum((r[j] * v[j] for j in range(self.cols) if v[j]), ZERO)
            for r in self.entries
        )

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise InputError("matrix shapes not composable")
        # sparse-aware triple loop: skip zero left entries
        out = [[ZERO] * other.cols for _ in range(self.rows)]
        for i, r in enumerate(self.entries):
            oi = out[i]
            for k, a in enumerate(r):
                if a:
                    orow = other.entries[k]
                    for j, b in enumerate(orow):
                        if b:
                            oi[j] += a * b
        return Matrix(self.rows, other.cols, out)

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      [[self.entries[i][j] for i in range(self.rows)]
                       for j in range(self.cols)])

    def is_zero(self) -> bool:
        return all(not x for r in self.entries for x in r)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


# ---------------------------------------------------------------------------
# the elimination engine (sparse integer rows)
# ---------------------------------------------------------------------------

def _entries(row, ncols: int):
    """The (col, value) pairs of a dict row or a dense sequence, checked
    against the width ncols."""
    if isinstance(row, dict):
        if row and not 0 <= min(row) <= max(row) < ncols:
            raise InputError(f"row has a column outside 0..{ncols - 1}")
        return row.items()
    if len(row) != ncols:
        raise InputError(f"row of length {len(row)}, expected {ncols}")
    return enumerate(row)


def _primitive(entries) -> dict:
    """The primitive integer {col: value} row on the line over Q spanned by
    rational (col, value) entries: scaled by the lcm of their denominators,
    divided by their content, leading entry positive."""
    r = {}
    for j, x in entries:
        if x:
            if not isinstance(x, (int, Fraction)):
                raise InputError(f"matrix entries must be exact rationals, "
                                 f"got {type(x).__name__}")
            r[j] = x
    if not r:
        return r
    den = lcm(*[x.denominator for x in r.values()])
    r = {j: x.numerator * (den // x.denominator) for j, x in r.items()}
    g = gcd(*r.values())
    if r[min(r)] < 0:
        g = -g
    return r if g == 1 else {j: x // g for j, x in r.items()}


def _eliminate(r: dict, k, p: dict) -> None:
    """Clear column k of r against p, fraction-free and in place:
    r <- (b/g) r - (a/g) p, where a = r[k], b = p[k] > 0 and g = gcd(a, b);
    the entries that cancel are dropped."""
    a, b = r[k], p[k]
    g = gcd(a, b)
    if g != b:
        s = b // g
        for j in r:
            r[j] *= s
    c = a // g
    for j, x in p.items():
        nv = r[j] - c * x if j in r else -c * x
        if nv:
            r[j] = nv
        else:
            del r[j]


class Echelon:
    """The row echelon form of rational rows with ``ncols`` columns, kept
    as primitive integer rows with positive leading entries.

    ``rows`` (``{col: value}`` dicts or dense sequences) go in shortest
    first; ``add`` inserts one more row and says whether it enlarged the
    span.  Neither does Fraction arithmetic.
    """

    def __init__(self, ncols: int, rows=()):
        self.ncols = ncols
        self._pivots = {}  # leading column -> primitive row leading there
        for r in sorted((_primitive(_entries(r, ncols)) for r in rows), key=len):
            self._insert(r)

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def _reduce(self, r: dict):
        """Reduce r in place by the pivot rows until its leftmost column is
        not a pivot column; return that column, or None if r vanishes."""
        pivots = self._pivots
        while r:
            col = min(r)
            p = pivots.get(col)
            if p is None:
                return col
            _eliminate(r, col, p)
        return None

    def _insert(self, r: dict) -> bool:
        col = self._reduce(r)
        if col is None:
            return False
        self._pivots[col] = _primitive(r.items())
        return True

    def add(self, row) -> bool:
        """Insert a row; True iff it was independent of the rows so far."""
        return self._insert(_primitive(_entries(row, self.ncols)))

    def _rref(self) -> dict:
        """{pivot column: integer row of the reduced row echelon form}, each
        positive at its pivot column and zero at every other one."""
        red = {}
        # each reduced row has no entry in a later pivot column, so one pass
        # over a row's pivot columns clears them all
        for col in sorted(self._pivots, reverse=True):
            r = dict(self._pivots[col])
            for k in [k for k in r if k in red]:
                _eliminate(r, k, red[k])
            red[col] = _primitive(r.items())
        return red

    def sparse_kernel(self):
        """A basis of the null space, as {col: Fraction} vectors, zeros left out.

        One vector per free column, in column order: that coordinate is 1
        and the pivot coordinates are back-substituted from the RREF.
        """
        red = self._rref()
        basis = {f: {f: ONE} for f in range(self.ncols) if f not in red}
        for col, r in red.items():
            lead = r[col]
            for j, x in r.items():
                if j != col:
                    basis[j][col] = Fraction(-x, lead)
        return list(basis.values())

    def kernel(self):
        """The ``sparse_kernel`` basis as length-ncols tuples of Fractions."""
        return [tuple(v.get(j, ZERO) for j in range(self.ncols))
                for v in self.sparse_kernel()]


def _system(m, ncols):
    """(rows, ncols) of a Matrix, or of sparse rows with an explicit width."""
    if isinstance(m, Matrix):
        return m.entries, m.cols
    if ncols is None:
        raise InputError("sparse rows need an explicit column count")
    return m, ncols


def rank(m, ncols: int = None) -> int:
    """Rank over Q of a Matrix, or of ``{col: value}`` rows with ncols columns."""
    rows, ncols = _system(m, ncols)
    return Echelon(ncols, rows).rank


def nullspace_basis(m, ncols: int = None):
    """A basis of ker(m), as a list of length-cols tuples (see Echelon.kernel),
    so m @ v = 0 exactly for each v."""
    rows, ncols = _system(m, ncols)
    return Echelon(ncols, rows).kernel()


def solve(m, b, ncols: int = None):
    """Some exact solution x of m @ x = b, or None if the system is inconsistent.

    ``m`` is a Matrix, or ``{col: value}`` rows with ncols columns.
    Inconsistency is a normal outcome (used for coboundary membership), not
    an error.  Free variables are set to zero.
    """
    rows, ncols = _system(m, ncols)
    if len(b) != len(rows):
        raise InputError(f"rhs length {len(b)} != rows {len(rows)}")
    aug = ncols  # b rides along as one more column, right of all the others
    pivots = Echelon(ncols + 1, [dict(_entries(r, ncols)) | {aug: _as_scalar(bi)}
                                 for r, bi in zip(rows, b)])._pivots
    if aug in pivots:  # some row reduced to 0 = nonzero
        return None
    # back-substitute with the free variables at zero
    x = [ZERO] * ncols
    for col in sorted(pivots, reverse=True):
        r = pivots[col]
        x[col] = (r.get(aug, 0) - sum(
            (v * x[k] for k, v in r.items() if col < k < aug), ZERO)) / r[col]
    return tuple(x)
