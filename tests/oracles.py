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

The per-key scatter of the total differential (``up_entries``,
``down_entries``, ``block_scatter``) is the generator-per-basis-cochain
assembly cpair used before its array kernel; the deformation-equation
oracle at the end is the dense, key-by-key evaluator cpair used before it
contracted nonzero entries only.
"""

from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import numpy as np

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


# ---------------------------------------------------------------------------
# the total differential, scattered one basis cochain at a time
# ---------------------------------------------------------------------------
#
# The per-key generators cpair assembled with before its array kernel: for
# one basis cochain of C^{p,q}, the target keys it hits and their values,
# read from the pair's and the module's structure tensors inverted once.

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


def scatter_tables(pair, module):
    """The nonzero structure constants ``up_entries``/``down_entries`` read."""
    return SimpleNamespace(
        dA=pair.A.dim, dL=pair.L.dim,
        mul_inv=_inverted(pair.A.mul), bracket_inv=_inverted(pair.L.bracket),
        muT=[_inverted(d.matrix) for d in pair.mu],
        **{name: _nonzero(getattr(module, attr)) for name, attr in (
            ("phi", "phi"), ("left", "left_act"), ("right", "right_act"),
            ("M_left", "M_left"), ("M_right", "M_right"),
            ("P_left", "P_left"), ("P_right", "P_right"))})


def up_entries(tabs, p, q, key):
    """Scatter of delta_v (p=0) / delta_H (p>0) applied to one basis cochain.

    Yields (target_key, coeff) with the target in bidegree (p+1, q).
    """
    dA = tabs.dA
    at, xt, v = key[:p], key[p:p + q], key[p + q]
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


def down_entries(tabs, p, q, key):
    """Scatter of leibniz_delta (with its (-1)^(q+1) prefactor, but without
    the (-1)^p total-complex sign) applied to one basis cochain.

    Yields (target_key, coeff) with the target in bidegree (p, q+1).
    """
    dL = tabs.dL
    at, xt, v = key[:p], key[p:p + q], key[p + q]
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


def block_scatter(pair, module, p, q, kind, tabs):
    """The block map delta_H/delta_v ("up") or (-1)^p delta_L ("down") from
    C^{p,q} as {(row, col): value}, block-local row-major flat indices, by
    the per-key generators over ``scatter_tables(pair, module)``;
    duplicates summed and zeros dropped."""
    dA, dL = pair.A.dim, pair.L.dim

    def shape(pp, qq):
        return (dA,) * pp + (dL,) * qq + (module.M_dim if pp else module.P_dim,)

    gen, tp, tq = ((up_entries, p + 1, q) if kind == "up"
                   else (down_entries, p, q + 1))
    sign = -1 if kind == "down" and p % 2 else 1
    strides = [1]
    for extent in reversed(shape(tp, tq)[1:]):
        strides.insert(0, strides[0] * extent)
    out = {}
    for col, key in enumerate(product(*map(range, shape(p, q)))):
        for tkey, c in gen(tabs, p, q, key):
            row = sum(k * st for k, st in zip(tkey, strides))
            out[row, col] = out.get((row, col), 0) + sign * c
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# the four deformation equations, evaluated densely, key by key
# ---------------------------------------------------------------------------
#
# These read a deformation's coefficient tensors (numpy object arrays, mu
# stored A-argument first) and contract them entry by entry, one basis
# tuple at a time; no sparse indexing, no shared code with cpair.

def _zeros(n):
    return np.full(n, ZERO, dtype=object)


def _alpha_lv(C, vec, b):
    """alpha(vec, e_b) for a (2,0) tensor C."""
    out = None
    for s, c in enumerate(vec):
        if c:
            out = c * C[s, b] if out is None else out + c * C[s, b]
    return out if out is not None else _zeros(C.shape[2])


def _alpha_rv(C, a, vec):
    """alpha(e_a, vec)."""
    out = None
    for s, c in enumerate(vec):
        if c:
            out = c * C[a, s] if out is None else out + c * C[a, s]
    return out if out is not None else _zeros(C.shape[2])


def _mu_xv(C, x, vec):
    """mu(e_x, vec) for a (1,1) tensor stored as C[a, x, :]."""
    out = None
    for s, c in enumerate(vec):
        if c:
            out = c * C[s, x] if out is None else out + c * C[s, x]
    return out if out is not None else _zeros(C.shape[2])


def _mu_va(C, vec, a):
    """mu(vec, e_a) with an L-vector in the first slot."""
    out = None
    for y, c in enumerate(vec):
        if c:
            out = c * C[a, y] if out is None else out + c * C[a, y]
    return out if out is not None else _zeros(C.shape[2])


def _lam_lv(C, vec, y):
    out = None
    for s, c in enumerate(vec):
        if c:
            out = c * C[s, y] if out is None else out + c * C[s, y]
    return out if out is not None else _zeros(C.shape[2])


def _lam_rv(C, x, vec):
    out = None
    for s, c in enumerate(vec):
        if c:
            out = c * C[x, s] if out is None else out + c * C[x, s]
    return out if out is not None else _zeros(C.shape[2])


def _assoc_defect(d, n, a, b, c, lo=0):
    """sum over i+j=n (i,j >= lo) of alpha_i(alpha_j(a,b), c) - alpha_i(a, alpha_j(b,c))."""
    dA = d.pair.A.dim
    acc = _zeros(dA)
    for i in range(lo, n - lo + 1):
        j = n - i
        Ci, Cj = d.alphas[i].coeffs, d.alphas[j].coeffs
        acc = acc + _alpha_lv(Ci, Cj[a, b], c) - _alpha_rv(Ci, a, Cj[b, c])
    return acc


def _derivation_defect(d, n, x, a, b, lo=0):
    """sum of mu_i(x, alpha_j(a,b)) - alpha_j(mu_i(x,a), b) - alpha_j(a, mu_i(x,b))."""
    dA = d.pair.A.dim
    acc = _zeros(dA)
    for i in range(lo, n - lo + 1):
        j = n - i
        Mi, Cj = d.mus[i].coeffs, d.alphas[j].coeffs
        acc = acc + _mu_xv(Mi, x, Cj[a, b]) \
            - _alpha_lv(Cj, Mi[a, x], b) - _alpha_rv(Cj, a, Mi[b, x])
    return acc


def _anchor_defect(d, n, x, y, a, lo=0):
    """sum of mu_i(x, mu_j(y,a)) - mu_i(y, mu_j(x,a)) - mu_i(lambda_j(x,y), a)."""
    dA = d.pair.A.dim
    acc = _zeros(dA)
    for i in range(lo, n - lo + 1):
        j = n - i
        Mi, Mj, Lj = d.mus[i].coeffs, d.mus[j].coeffs, d.lambdas[j].coeffs
        acc = acc + _mu_xv(Mi, x, Mj[a, y]) - _mu_xv(Mi, y, Mj[a, x]) \
            - _mu_va(Mi, Lj[x, y], a)
    return acc


def _leibniz_defect(d, n, x, y, z, lo=0):
    """sum of lam_i(x, lam_j(y,z)) - lam_i(lam_j(x,y), z) - lam_i(y, lam_j(x,z))."""
    dL = d.pair.L.dim
    acc = _zeros(dL)
    for i in range(lo, n - lo + 1):
        j = n - i
        Li, Lj = d.lambdas[i].coeffs, d.lambdas[j].coeffs
        acc = acc + _lam_rv(Li, x, Lj[y, z]) - _lam_lv(Li, Lj[x, y], z) \
            - _lam_rv(Li, y, Lj[x, z])
    return acc


def _is_zero_vec(v):
    return all(not x for x in v)


def _label(labels, idx):
    return "(" + ", ".join(labels[i] for i in idx) + ")"


def deformation_report(d):
    """[(name, ok, witness label)] per order and equation, in report order;
    a witness is the first basis tuple whose defect does not vanish."""
    dA, dL = d.pair.A.dim, d.pair.L.dim
    la, ll = d.pair.A.basis_labels, d.pair.L.basis_labels
    rows = []
    for n in range(d.order + 1):
        wit = None
        for a, b, c in product(range(dA), repeat=3):
            if not _is_zero_vec(_assoc_defect(d, n, a, b, c)):
                wit = _label(la, (a, b, c))
                break
        rows.append((f"order {n} associativity", wit is None, wit))

        wit = None
        for x in range(dL):
            for a, b in product(range(dA), repeat=2):
                if not _is_zero_vec(_derivation_defect(d, n, x, a, b)):
                    wit = f"({ll[x]}; {la[a]}, {la[b]})"
                    break
            if wit:
                break
        rows.append((f"order {n} anchor into derivations", wit is None, wit))

        wit = None
        for x, y in product(range(dL), repeat=2):
            for a in range(dA):
                if not _is_zero_vec(_anchor_defect(d, n, x, y, a)):
                    wit = f"({ll[x]}, {ll[y]}; {la[a]})"
                    break
            if wit:
                break
        rows.append((f"order {n} anchor homomorphism", wit is None, wit))

        wit = None
        for x, y, z in product(range(dL), repeat=3):
            if not _is_zero_vec(_leibniz_defect(d, n, x, y, z)):
                wit = _label(ll, (x, y, z))
                break
        rows.append((f"order {n} leibniz identity", wit is None, wit))
    return rows


def theta(d):
    """The obstruction components (theta_A, theta1, theta2, theta_L) of d as
    dense arrays: the i, j >= 1 cross terms at order N+1."""
    dA, dL = d.pair.A.dim, d.pair.L.dim
    n = d.order + 1
    tA = np.full((dA, dA, dA, dA), ZERO, dtype=object)
    for a, b, c in product(range(dA), repeat=3):
        tA[a, b, c] = _assoc_defect(d, n, a, b, c, lo=1)
    t1 = np.full((dA, dA, dL, dA), ZERO, dtype=object)
    for a, b, x in product(range(dA), range(dA), range(dL)):
        t1[a, b, x] = _derivation_defect(d, n, x, a, b, lo=1)
    t2 = np.full((dA, dL, dL, dA), ZERO, dtype=object)
    for a, x, y in product(range(dA), range(dL), range(dL)):
        t2[a, x, y] = _anchor_defect(d, n, x, y, a, lo=1)
    tL = np.full((dL, dL, dL, dL), ZERO, dtype=object)
    for x, y, z in product(range(dL), repeat=3):
        tL[x, y, z] = _leibniz_defect(d, n, x, y, z, lo=1)
    return tA, t1, t2, tL
