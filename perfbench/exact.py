"""Small exact helpers the benchmark keeps apart from cpair.linalg.

The correctness gate and the input generator must not lean on the
elimination code they are measuring, so row reduction over Q and rank over
a prime field live here.  Vectors are sparse ``{index: value}`` dicts.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

#: The Mersenne prime 2^61 - 1; rank mod P is a lower bound for rank over Q.
P = (1 << 61) - 1


def _reduce(v: dict, pivots: dict) -> dict:
    """v minus its components along the reduced pivot rows, in place."""
    for col in sorted(pivots):
        c = v.get(col)
        if c:
            for j, x in pivots[col].items():
                nv = v.get(j, 0) - c * x
                if nv:
                    v[j] = nv
                else:
                    v.pop(j, None)
    return v


def rref(vectors) -> dict:
    """Reduced row echelon form over Q: {pivot column: row with pivot 1}.

    Pivots are the first nonzero coordinate, so the result depends only on
    the span of the input vectors, not on their order.
    """
    pivots = {}
    for vec in vectors:
        v = _reduce({j: Fraction(x) for j, x in vec.items() if x}, pivots)
        if not v:
            continue
        col = min(v)
        inv = 1 / v[col]
        v = {j: x * inv for j, x in v.items()}
        for other in pivots.values():
            c = other.get(col)
            if c:
                for j, x in v.items():
                    nv = other.get(j, 0) - c * x
                    if nv:
                        other[j] = nv
                    else:
                        other.pop(j, None)
        pivots[col] = v
    return pivots


def reduce_modulo(vec: dict, pivots: dict) -> dict:
    """The normal form of vec modulo the span of an ``rref`` result."""
    return _reduce({j: Fraction(x) for j, x in vec.items() if x}, pivots)


def _mod_p(x: Fraction) -> int:
    den = x.denominator % P
    if den == 0:
        raise ZeroDivisionError(f"denominator of {x} vanishes mod 2^61-1")
    return x.numerator * pow(den, P - 2, P) % P


def rank_mod_p(vectors) -> int:
    """Rank of the vectors over Z/P (never more than their rank over Q)."""
    pivots = {}
    for vec in vectors:
        v = {j: _mod_p(Fraction(x)) for j, x in vec.items() if x}
        v = {j: x for j, x in v.items() if x}
        while v:
            col = min(v)
            row = pivots.get(col)
            if row is None:
                inv = pow(v[col], P - 2, P)
                pivots[col] = {j: x * inv % P for j, x in v.items()}
                break
            c = v[col]
            for j, x in row.items():
                nv = (v.get(j, 0) - c * x) % P
                if nv:
                    v[j] = nv
                else:
                    v.pop(j, None)
    return len(pivots)


def apply(columns, vec: dict) -> dict:
    """The product of a matrix, given as sparse columns, with vec."""
    out = {}
    for j, x in vec.items():
        for i, a in columns[j].items():
            nv = out.get(i, 0) + a * x
            if nv:
                out[i] = nv
            else:
                out.pop(i, None)
    return out


# ---------------------------------------------------------------------------
# cochains as flat sparse vectors
# ---------------------------------------------------------------------------

def flat(components) -> dict:
    """Flatten coefficient tensors, blocks in the given order, row-major."""
    out = {}
    pos = 0
    for arr in components:
        for k, x in enumerate(arr.reshape(-1)):
            if x:
                out[pos + k] = Fraction(x)
        pos += arr.size
    return out


def component_tensor(entry: dict, dA: int, dL: int, vdim: int) -> np.ndarray:
    """The internal (algebra slots first) tensor of one ``--json`` component.

    The CLI lists bracket arguments first, then algebra arguments, then the
    coefficient vector; this undoes that reordering.
    """
    p, q = entry["p"], entry["q"]
    listed = np.full((dL,) * q + (dA,) * p + (vdim,), Fraction(0), dtype=object)
    for row in entry["entries"]:
        key = tuple(row[:-1])
        listed[key] = [Fraction(x) for x in row[-1]]
    axes = tuple(range(q, q + p)) + tuple(range(q)) + (p + q,)
    return np.transpose(listed, axes)
