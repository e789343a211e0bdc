import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

import oracles
from cpair import catalog
from cpair.cohomology import total_complex, total_delta_matrix
from cpair.errors import InputError
from cpair.linalg import Echelon, Matrix, nullspace_basis, rank, solve

F = Fraction


def M(rows):
    return Matrix.from_rows([[F(x) for x in r] for r in rows])


def test_rank_hand_examples():
    assert rank(M([[1, 2], [2, 4]])) == 1
    assert rank(M([[1, 0], [0, 1]])) == 2
    assert rank(Matrix.zeros(3, 4)) == 0
    assert rank(M([[int(i == j) for j in range(5)] for i in range(5)])) == 5
    assert rank(M([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == 2


def test_nullspace_hand_example():
    ns = nullspace_basis(M([[1, 1, 0], [0, 0, 1]]))
    assert len(ns) == 1
    v = ns[0]
    assert v[0] + v[1] == 0 and v[2] == 0 and any(v)


def test_solve_consistent_and_inconsistent():
    m = M([[1, 2], [3, 4]])
    x = solve(m, [F(5), F(11)])
    assert x is not None
    assert list(m.mul_vec(x)) == [F(5), F(11)]
    # rank-deficient, inconsistent right-hand side
    assert solve(M([[1, 1], [2, 2]]), [F(1), F(3)]) is None
    # rank-deficient but consistent
    x = solve(M([[1, 1], [2, 2]]), [F(1), F(2)])
    assert x is not None and x[0] + x[1] == 1


def test_from_triplets_accumulates_duplicates():
    m = Matrix.from_triplets(2, 2, [(0, 0, F(1)), (0, 0, F(2)), (1, 1, F(3))])
    assert m.entry(0, 0) == 3
    assert m.entry(1, 1) == 3
    assert m.entry(0, 1) == 0


def test_span_tracker_needs_chained_elimination():
    """Reduction must follow fill-in created by earlier pivots, not just the
    vector's original support."""
    e = Echelon(3)
    assert e.add([F(1), F(1), F(0)])
    assert e.add([F(0), F(1), F(1)])
    # reducing [1,0,-1]: pivot 0 leaves [0,-1,-1], pivot 1 clears the rest
    assert not e.add([F(1), F(0), F(-1)])
    assert e.rank == 2
    assert not e.add({0: F(2), 1: F(1), 2: F(-1)})
    assert e.add([F(1), F(0), F(0)])
    assert e.rank == 3


def test_rank_rows_matches_dense_rank():
    m = M([[1, 2, 3], [0, 0, 4], [2, 4, 6]])
    rows = [{0: F(1), 1: F(2), 2: F(3)}, {2: F(4)}, {0: F(2), 1: F(4), 2: F(6)}]
    assert rank(rows, 3) == rank(m) == 2
    assert nullspace_basis(rows, 3) == nullspace_basis(m)
    b = [F(1), F(2), F(2)]
    assert solve(rows, b, 3) == solve(m, b)


def test_rejects_malformed_rows():
    with pytest.raises(InputError):
        rank([{3: F(1)}], 3)
    with pytest.raises(InputError):
        Echelon(3).add([F(1), F(2)])
    with pytest.raises(InputError):
        rank([{0: 0.5}], 1)
    with pytest.raises(InputError):
        rank([{0: F(1)}])


small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def matrices(draw, max_dim=5):
    r = draw(st.integers(0, max_dim))
    c = draw(st.integers(0, max_dim))
    # mostly zeros, so that ranks below full and free columns are common
    entry = st.one_of(st.just(F(0)), small_fracs)
    data = draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                         min_size=r, max_size=r))
    return Matrix.from_rows(data) if r else Matrix.zeros(0, c)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rank_nullity(m):
    assert rank(m) + len(nullspace_basis(m)) == m.cols
    for v in nullspace_basis(m):
        assert not any(m.mul_vec(v))


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rank_of_transpose(m):
    assert rank(m) == rank(m.transpose())


@given(matrices(max_dim=4), st.data())
@settings(max_examples=60, deadline=None)
def test_solve_recovers_constructed_rhs(m, data):
    x = [data.draw(small_fracs) for _ in range(m.cols)]
    b = m.mul_vec(x)
    y = solve(m, b)
    assert y is not None
    assert list(m.mul_vec(y)) == list(b)


@given(st.lists(st.lists(small_fracs, min_size=4, max_size=4), min_size=1,
                max_size=6))
@settings(max_examples=60, deadline=None)
def test_span_tracker_agrees_with_in_span(vecs):
    """`Echelon.add` accepts exactly the vectors outside the span of those
    accepted before."""
    e = Echelon(4)
    accepted = []
    for v in vecs:
        grew = e.add(v)
        assert grew == oracles.independent_modulo(accepted, [v])
        if grew:
            accepted.append(v)
    assert e.rank == len(accepted) == oracles.rank(vecs)


# ---------------------------------------------------------------------------
# the engine against sympy's DomainMatrix over QQ, an independent RREF
# ---------------------------------------------------------------------------

def _domain(rows, cols):
    return DomainMatrix([[QQ(x.numerator, x.denominator) for x in r] for r in rows],
                        (len(rows), cols), QQ)


def _sympy_rref(rows, cols, b=None):
    """(RREF rows as Fractions, pivot columns) of rows, or of [rows | b]."""
    if b is None:
        dm = _domain(rows, cols)
    else:
        dm = _domain([list(r) + [x] for r, x in zip(rows, b)], cols + 1)
    red, pivots = dm.rref()
    return [[F(int(x.numerator), int(x.denominator)) for x in r]
            for r in red.to_list()], pivots


def _rref_nullspace(rows, cols):
    red, pivots = _sympy_rref(rows, cols)
    want = []
    for free in range(cols):
        if free in pivots:
            continue
        v = [F(0)] * cols
        v[free] = F(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][free]
        want.append(tuple(v))
    return want


def _rref_solution(rows, cols, b):
    """The free-variables-zero solution, or None for an inconsistent system."""
    red, pivots = _sympy_rref(rows, cols, b)
    if cols in pivots:  # a pivot in the right-hand side: inconsistent
        return None
    want = [F(0)] * cols
    for i, p in enumerate(pivots):
        want[p] = red[i][cols]
    return tuple(want)


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_rank_matches_sympy(m):
    assert rank(m) == _domain(m.entries, m.cols).rank()


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_kernel_is_the_rref_nullspace_basis(m):
    assert nullspace_basis(m) == _rref_nullspace(m.entries, m.cols)


@given(matrices(), st.data())
@settings(max_examples=80, deadline=None)
def test_solve_matches_sympy(m, data):
    b = [data.draw(st.one_of(st.just(F(0)), small_fracs)) for _ in range(m.rows)]
    assert solve(m, b) == _rref_solution(m.entries, m.cols, b)


@given(matrices(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_kernel_does_not_depend_on_row_order(m, rng):
    rows = list(m.entries)
    rng.shuffle(rows)
    assert nullspace_basis(rows, m.cols) == nullspace_basis(m)



# ---------------------------------------------------------------------------
# the integer engine on wide rationals: mixed denominators, numerators up to
# 2^70, int and Fraction entries in one row
# ---------------------------------------------------------------------------

huge = st.integers(-2 ** 70, 2 ** 70)
wide = st.one_of(st.just(0), st.just(F(0)), huge, small_fracs,
                 st.builds(F, huge, st.integers(1, 2 ** 70)))


@st.composite
def wide_rows(draw, max_dim=5):
    """(dense rows of mixed int / Fraction entries, column count)."""
    r = draw(st.integers(0, max_dim))
    c = draw(st.integers(0, max_dim))
    return draw(st.lists(st.lists(wide, min_size=c, max_size=c),
                         min_size=r, max_size=r)), c


def _all_fractions(vectors):
    return all(isinstance(x, F) for v in vectors for x in v)


@given(wide_rows())
@settings(max_examples=80, deadline=None)
def test_wide_rank_and_kernel_match_sympy(system):
    rows, cols = system
    assert rank(rows, cols) == _domain(rows, cols).rank()
    kernel = nullspace_basis(rows, cols)
    assert kernel == _rref_nullspace(rows, cols)
    assert _all_fractions(kernel)


@given(wide_rows(), st.data())
@settings(max_examples=80, deadline=None)
def test_wide_solve_matches_sympy(system, data):
    rows, cols = system
    b = data.draw(st.lists(wide, min_size=len(rows), max_size=len(rows)))
    got = solve(rows, b, cols)
    assert got == _rref_solution(rows, cols, b)  # None iff inconsistent
    assert got is None or _all_fractions([got])


@pytest.mark.parametrize("name", catalog.names())
def test_public_values_are_fractions(name):
    """Elimination runs on ints, but kernels (sparse in the complex, dense
    from ``Echelon.kernel``), solutions and the matrices of the total
    differential hand out Fractions."""
    tc = total_complex(catalog.get(name).pair)
    rng = random.Random(name)
    for n in range(4):
        assert _all_fractions(v.values() for v in tc.kernel(n))  # sparse
        assert _all_fractions(tc.echelon(n).kernel())
        assert _all_fractions(total_delta_matrix(n, tc.pair).entries)
        if n:
            x = [rng.randint(-3, 3) for _ in range(tc.dim(n - 1))]
            b = [v.numerator if v.denominator == 1 else v
                 for v in tc.apply_flat(n - 1, x)]  # ints where integral
            sol = solve(tc.rows(n - 1), b, tc.dim(n - 1))
            assert sol is not None and _all_fractions([sol])
