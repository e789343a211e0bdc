"""Standalone brute-force single-complex oracles.

Independent of the package: plain nested lists of Fractions, naive term-by-
term summation, own flat indexing and own Gaussian elimination.  Used to
cross-check the bicomplex's q=0 row (classical associative-algebra
coboundary) and p=0 column (classical Leibniz coboundary with left/right
actions).

Conventions here: a p-cochain basis element is (keys, v) with keys a tuple
of p argument indices and v a value index; flat order is row-major over
(keys..., v).  Matrices are lists of rows, rows indexed by target
coordinates, columns by source coordinates (matrix * coordinates of f =
coordinates of delta f).
"""

from fractions import Fraction
from itertools import product

ZERO = Fraction(0)


def _flat(keys, v, arg_dim, vdim):
    idx = 0
    for k in keys:
        idx = idx * arg_dim + k
    return idx * vdim + v


def hochschild_matrix(p, mul, left, right, m_dim):
    """Matrix of the classical coboundary Hom(A^p, M) -> Hom(A^{p+1}, M).

    (delta f)(a_1..a_{p+1}) = a_1 f(a_2..) + sum_i (-1)^i f(.., a_i a_{i+1}, ..)
                              + (-1)^{p+1} f(a_1..a_p) a_{p+1}

    mul[i][j] is the coefficient vector of e_i e_j over A; left[i][m] the
    vector of e_i . m_m over M; right[m][i] of m_m . e_i.
    """
    dA = len(mul)
    n_src = dA ** p * m_dim
    n_tgt = dA ** (p + 1) * m_dim
    rows = [[ZERO] * n_src for _ in range(n_tgt)]
    for skeys in product(range(dA), repeat=p):
        for v in range(m_dim):
            col = _flat(skeys, v, dA, m_dim)
            for t in product(range(dA), repeat=p + 1):
                # value of (delta e_{skeys,v}) at the argument tuple t
                acc = [ZERO] * m_dim
                if t[1:] == skeys:
                    for w in range(m_dim):
                        acc[w] += left[t[0]][v][w]
                for i in range(1, p + 1):
                    sign = ZERO - 1 if i % 2 else Fraction(1)
                    for s in range(dA):
                        c = mul[t[i - 1]][t[i]][s]
                        if c and t[:i - 1] + (s,) + t[i + 1:] == skeys:
                            acc[v] += sign * c
                if t[:p] == skeys:
                    sign = Fraction(1) if (p + 1) % 2 == 0 else ZERO - 1
                    for w in range(m_dim):
                        acc[w] += sign * right[v][t[p]][w]
                for w in range(m_dim):
                    if acc[w]:
                        rows[_flat(t, w, dA, m_dim)][col] += acc[w]
    return rows


def leibniz_matrix(q, bracket, left, right, p_dim):
    """Matrix of the classical Leibniz coboundary Hom(L^q, P) -> Hom(L^{q+1}, P).

    (delta f)(x_1..x_{q+1}) =
        sum_{i<=q} (-1)^{i-1} [x_i, f(.. \\hat{x_i} ..)]
      + (-1)^{q+1} [f(x_1..x_q), x_{q+1}]
      + sum_{i<j} (-1)^i f(.. \\hat{x_i} .., x_{j-1}, [x_i, x_j], x_{j+1}, ..)

    bracket[x][y] over L; left[x][p] the vector of [x, p_p] over P;
    right[p][x] of [p_p, x].
    """
    dL = len(bracket)
    n_src = dL ** q * p_dim
    n_tgt = dL ** (q + 1) * p_dim
    rows = [[ZERO] * n_src for _ in range(n_tgt)]
    for skeys in product(range(dL), repeat=q):
        for v in range(p_dim):
            col = _flat(skeys, v, dL, p_dim)
            for t in product(range(dL), repeat=q + 1):
                acc = [ZERO] * p_dim
                for i in range(1, q + 1):
                    sign = Fraction(1) if (i - 1) % 2 == 0 else ZERO - 1
                    rest = t[:i - 1] + t[i:]
                    if rest == skeys:
                        for w in range(p_dim):
                            acc[w] += sign * left[t[i - 1]][v][w]
                if t[:q] == skeys:
                    sign = Fraction(1) if (q + 1) % 2 == 0 else ZERO - 1
                    for w in range(p_dim):
                        acc[w] += sign * right[v][t[q]][w]
                for i in range(1, q + 2):
                    isign = ZERO - 1 if i % 2 else Fraction(1)
                    for j in range(i + 1, q + 2):
                        args = list(t[:i - 1] + t[i:])
                        for s in range(dL):
                            c = bracket[t[i - 1]][t[j - 1]][s]
                            if not c:
                                continue
                            args[j - 2] = s
                            if tuple(args) == skeys:
                                acc[v] += isign * c
                for w in range(p_dim):
                    if acc[w]:
                        rows[_flat(t, w, dL, p_dim)][col] += acc[w]
    return rows


def rank(rows):
    """Row-reduction rank over Q; consumes a copy of the row list."""
    mat = [list(r) for r in rows]
    r = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = Fraction(1) / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                c = mat[i][col]
                mat[i] = [a - c * b for a, b in zip(mat[i], mat[r])]
        r += 1
        if r == len(mat):
            break
    return r


def independent_modulo(image, vectors):
    """Whether the vectors are linearly independent modulo span(image).

    Both are lists of dense coordinate lists of one common length.
    """
    return rank(list(image) + list(vectors)) == rank(image) + len(vectors)


def complex_cohomology_dim(out_matrix, in_matrix, dim):
    """dim ker(out) - rank(in) for consecutive coboundaries."""
    ker = dim - rank(out_matrix)
    return ker - (rank(in_matrix) if in_matrix is not None else 0)
