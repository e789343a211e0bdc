"""Matrix assembly of the total complex: dimensions, ranks, classes."""

import gc
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import rand_coeffs, rand_total
from cpair import catalog, cohomology, documents
from cpair.cochains import Cochain, TotalCochain, total_delta
from cpair.cohomology import (TotalComplex, _assemble, cohomology_basis,
                              cohomology_dim, column_delta_matrix,
                              is_coboundary, is_cocycle, row_delta_matrix,
                              total_complex, total_delta_matrix,
                              total_space_dim)
from cpair.errors import InputError, InternalError
from cpair.linalg import Matrix, rank
from cpair.structures import (AssocAlgebra, CourantPair, CPModule,
                              LeibnizAlgebra, adjoint_module, tensor,
                              zero_tensor)

F = Fraction


def test_heisenberg_space_dimensions(heis):
    # 3, 3+9+... : Hom(k,L)=3; Hom(A,A)+Hom(L,L)=9+9; blocks of degree 2:
    # Hom(A^2,A)=27 + Hom(A@L,A)=27 + Hom(L^2,L)=27
    assert [total_space_dim(n, heis) for n in range(4)] == [3, 18, 81, 324]


def test_heisenberg_degree2_cohomology(heis):
    tc = total_complex(heis)
    assert tc.rank(1) == 13
    assert tc.dim(2) - tc.rank(2) == 19   # kernel of the degree-2 matrix
    assert cohomology_dim(2, heis) == 6


def test_matrix_composition_vanishes(heis, dual, hemi):
    for pair, tops in ((heis, 3), (dual, 3), (hemi, 2)):
        for n in range(tops):
            m = total_delta_matrix(n + 1, pair).matmul(total_delta_matrix(n, pair))
            assert m.is_zero(), (pair.A.basis_labels, n)


def test_matrix_agrees_with_direct_evaluation(heis):
    rng = random.Random(31)
    tc = total_complex(heis)
    for n in (0, 1, 2):
        idx_n, idx_up = tc.index(n), tc.index(n + 1)
        m = total_delta_matrix(n, heis)
        for _ in range(20):
            c = rand_total(rng, heis, n)
            via_matrix = m.mul_vec(idx_n.flatten(c))
            assert list(via_matrix) == list(idx_up.flatten(total_delta(c, heis)))


def test_flatten_unflatten_roundtrip(hemi):
    rng = random.Random(8)
    tc = total_complex(hemi)
    for n in (1, 2):
        c = rand_total(rng, hemi, n)
        again = tc.index(n).unflatten(tc.index(n).flatten(c))
        assert all(a == b for a, b in zip(c.components, again.components))


def test_representatives_are_independent_noncoboundary_cocycles(heis):
    tc = total_complex(heis)
    reps = tc.representatives(2)
    assert len(reps) == 6
    for r in reps:
        assert tc.is_cocycle(r)
        assert tc.is_coboundary(r) is None
    # independence modulo coboundaries: no nontrivial combination is exact
    image = total_delta_matrix(1, heis).transpose().entries
    idx = tc.index(2)
    assert oracles.independent_modulo(image, [idx.flatten(r) for r in reps])


def test_is_coboundary_returns_preimage(heis):
    rng = random.Random(12)
    tc = total_complex(heis)
    c = rand_total(rng, heis, 1)
    b = total_delta(c, heis)
    pre = tc.is_coboundary(b)
    assert pre is not None
    assert (total_delta(pre, heis) - b).is_zero()


def test_degree0_conventions(heis):
    # kernel of delta^0: z with mu(z) = 0 and [z,-] = [-,z] = 0 contributions
    tc = total_complex(heis)
    assert tc.dim(0) == 3
    assert cohomology_dim(0, heis) == tc.dim(0) - tc.rank(0)
    assert tc.is_coboundary(TotalCochain.zero(0, heis)) is None


def test_relabelled_pair_has_same_cohomology(heis):
    """Permuting both bases is an isomorphism; every Betti number survives."""
    perm_a = [2, 0, 1]
    perm_l = [1, 2, 0]
    pa, pl = np.array(perm_a), np.array(perm_l)
    mul = heis.A.mul[np.ix_(pa, pa, pa)]
    br = heis.L.bracket[np.ix_(pl, pl, pl)]
    from cpair.structures import Derivation
    mus = tuple(Derivation(heis.mu[perm_l[x]].matrix[np.ix_(pa, pa)])
                for x in range(3))
    shuffled = CourantPair(AssocAlgebra(3, mul), LeibnizAlgebra(3, br), mus)
    for n in (0, 1, 2):
        assert cohomology_dim(n, shuffled) == cohomology_dim(n, heis)


def test_point_pair_is_cohomologically_trivial():
    """A = Q (unital, one-dimensional), L = 0: every positive degree dies."""
    A = AssocAlgebra(1, tensor([[[1]]], (1, 1, 1)), ("1",))
    L = LeibnizAlgebra(0, zero_tensor((0, 0, 0)))
    point = CourantPair(A, L, ())
    assert [total_space_dim(n, point) for n in range(4)] == [0, 1, 1, 1]
    for n in (1, 2, 3):
        assert cohomology_dim(n, point) == 0
    assert cohomology_basis(2, point) == []


def test_column_matches_independent_elimination(heis):
    """The p=0 column's degree-2 cohomology, via the oracle's own rank code."""
    br = heis.L.bracket.tolist()
    dL = heis.L.dim
    left = [[list(br[x][y]) for y in range(dL)] for x in range(dL)]
    right = [[list(br[y][x]) for x in range(dL)] for y in range(dL)]
    m1 = oracles.leibniz_matrix(1, br, left, right, dL)
    m2 = oracles.leibniz_matrix(2, br, left, right, dL)
    want = (len(m1) - oracles.rank(m2)) - oracles.rank(m1)
    mine1, mine2 = column_delta_matrix(1, heis), column_delta_matrix(2, heis)
    got = (mine2.cols - rank(mine2)) - rank(mine1)
    assert got == want == 8


def test_row_column_block_dimensions(hemi):
    assert row_delta_matrix(0, hemi).cols == hemi.L.dim
    assert row_delta_matrix(1, hemi).cols == hemi.A.dim ** 2  # 3 args x 3 values
    assert column_delta_matrix(2, hemi).cols == hemi.L.dim ** 3


def test_module_argument_consistency(heis):
    from cpair.structures import adjoint_module
    adj = adjoint_module(heis)
    assert total_delta_matrix(1, heis) == total_delta_matrix(1, heis, adj)
    assert cohomology_dim(2, heis, adj) == 6


def test_is_cocycle_arguments(heis):
    z = TotalCochain.zero(2, heis)
    assert is_cocycle(z, heis)
    assert is_coboundary(z, heis) is not None


def test_complex_dies_with_its_pair(heis):
    """The complex, its scatter tables and the adjoint module are kept on
    the pair, so a long-lived process does not keep dropped pairs alive."""
    pair, _ = documents.pair_from_document(documents.pair_to_document(heis))
    assert total_complex(pair) is total_complex(pair)
    assert total_complex(pair).rank(2) == total_complex(heis).rank(2)
    ref = weakref.ref(pair)
    del pair
    gc.collect()
    assert ref() is None


def test_representatives_count_mismatch_is_internal_error(heis, monkeypatch):
    """A kernel that cannot supply dim H classes trips an explicit check,
    which ``python -O`` keeps (an assert would be stripped)."""
    tc = TotalComplex(heis)
    monkeypatch.setattr(tc, "kernel", lambda n: [])
    with pytest.raises(InternalError, match="dim H"):
        tc.representatives(2)


@pytest.mark.parametrize("name, n, pinned", [
    ("heisenberg", 5, (4374, 938, 3376, 60)),
    ("hemisemidirect_demo", 4, (5573, 890, 4651, 32)),
])
def test_pinned_high_degree(name, n, pinned):
    """(dim C^n, rank d^{n-1}, rank d^n, dim H^n) in the top degrees the
    catalog pairs reach in seconds; a private complex frees its matrices."""
    tc = TotalComplex(catalog.get(name).pair)
    got = (tc.dim(n), tc.rank(n - 1), tc.rank(n), tc.cohomology_dim(n))
    assert got == pinned


def test_index_cell_limit_is_checked_before_assembly(heis, monkeypatch):
    """The library entry points refuse a differential whose assembly needs
    more than MAX_INDEX_CELLS index cells (entries plus terms x sources),
    with an InputError stating the estimate, before assembling it."""
    monkeypatch.setattr(cohomology, "MAX_INDEX_CELLS", 7100)
    tc = TotalComplex(heis)
    assert tc.rank(2) == total_complex(heis).rank(2)  # 1242 cells
    with pytest.raises(InputError, match="degree-3 differential has 3618 "
                       "nonzero entries; assembling it takes 7101 index cells"):
        tc.rank(3)
    assert 3 not in tc._trips
    assert column_delta_matrix(4, heis).cols == 243  # 6075 cells
    with pytest.raises(InputError, match="has 157464 nonzero entries"):
        column_delta_matrix(7, heis)


@given(st.sampled_from(catalog.names()), st.integers(1, 3),
       st.integers(0, 10 ** 6), st.sampled_from((0.02, 0.1, 0.5)))
@settings(max_examples=30, deadline=None)
def test_support_delta_matches_direct_evaluation(name, n, seed, density):
    """The scatter from a cochain's nonzero coordinates is delta_tot."""
    pair = catalog.get(name).pair
    tc = total_complex(pair)
    c = rand_total(random.Random(seed), pair, n, density=density)
    direct = tc.index(n + 1).flatten(total_delta(c, pair))
    assert tc.delta(c) == {r: v for r, v in enumerate(direct) if v}
    assert tc.is_cocycle(c) == total_delta(c, pair).is_zero()


def test_support_delta_checks_shapes(heis, dual):
    c = TotalCochain.zero(2, heis)
    with pytest.raises(InputError):
        total_complex(dual).delta(c)


# ---------------------------------------------------------------------------
# the assembly kernel against the per-key oracle scatter
# ---------------------------------------------------------------------------

def _module_document_pair():
    """heisenberg with a generic module (M = Q^2, P = Q^4, sparse tensors
    with fractional entries; not adjoint, and no module laws are needed to
    compare two evaluations of the same formulas), read back from its
    document."""
    rng = random.Random(5)
    heis = catalog.get("heisenberg").pair
    dA, dL, dM, dP = heis.A.dim, heis.L.dim, 2, 4

    def tensor_of(*shape):
        return rand_coeffs(rng, shape, density=0.3, span=3)

    module = CPModule(dM, dP, tensor_of(dA, dM, dM), tensor_of(dM, dA, dM),
                      tensor_of(dL, dM, dM), tensor_of(dM, dL, dM),
                      tensor_of(dL, dP, dP), tensor_of(dP, dL, dP),
                      tensor_of(dP, dA, dM))
    return documents.pair_from_document(documents.pair_to_document(heis, module))


_KERNEL_CASES = [*catalog.names(), "module document"]


def _case(name):
    if name == "module document":
        return _module_document_pair()
    pair = catalog.get(name).pair
    return pair, adjoint_module(pair)


def _exact_values(values):
    return all(type(v) in (int, F) for v in values)


@pytest.mark.parametrize("name", _KERNEL_CASES)
def test_block_maps_match_the_per_key_oracle(name):
    """Every block map of the array kernel, p + q <= 4, equals the per-key
    scatter of ``oracles.block_scatter`` entry by entry."""
    pair, module = _case(name)
    tc = TotalComplex(pair, module)
    tabs = oracles.scatter_tables(pair, module)
    for n in range(5):
        for p in range(n + 1):
            for kind, m in zip(("up", "down"), tc.block_maps(p, n - p)):
                e = _assemble([(m, 0, 0)])
                assert _exact_values(e.val.tolist())
                got = {}
                for r, c, v in e:
                    got[r, c] = got.get((r, c), 0) + v
                got = {k: v for k, v in got.items() if v}
                assert got == oracles.block_scatter(pair, module, p, n - p,
                                                    kind, tabs), (p, n - p, kind)


def _rand_module_total(rng, tc, n, density):
    idx = tc.index(n)
    return TotalCochain(n, tuple(Cochain(b.p, b.q, rand_coeffs(rng, b.shape, density))
                                 for b in idx.blocks))


@pytest.mark.parametrize("name", _KERNEL_CASES)
def test_support_delta_matches_the_per_key_oracle(name):
    """``delta`` on random sparse supports equals the oracle scatter of the
    same nonzero coordinates; triplets, rows, columns and delta hand out
    only exact Python ints and Fractions."""
    pair, module = _case(name)
    tc = TotalComplex(pair, module)
    tabs = oracles.scatter_tables(pair, module)
    rng = random.Random(f"delta-{name}")
    for n in range(4):
        maps = {(b.p, b.q, kind): oracles.block_scatter(pair, module, b.p, b.q,
                                                         kind, tabs)
                for b in tc.index(n).blocks for kind in ("up", "down")}
        dst = tc.index(n + 1)
        for density in (0.01, 0.05, 0.3):
            c = _rand_module_total(rng, tc, n, density)
            want = {}
            for b, comp in zip(tc.index(n).blocks, c.components):
                x = comp.coeffs.ravel()
                for d, kind in enumerate(("up", "down")):
                    off = dst.blocks[b.q + d].offset
                    for (r, col), v in maps[b.p, b.q, kind].items():
                        if x[col]:
                            want[off + r] = want.get(off + r, 0) + v * x[col]
            got = tc.delta(c)
            assert got == {r: v for r, v in want.items() if v}
            assert _exact_values(got.values())
            assert all(type(r) is int for r in got)
        e = tc.triplets(n)
        assert _exact_values(v for _, _, v in e)
        assert all(_exact_values(d.values()) for d in tc.rows(n) + tc.columns(n))


@pytest.mark.parametrize("name, counts", [
    ("heisenberg", (4, 90, 648, 3618, 17820, 81162)),
    ("hemisemidirect_demo", (8, 162, 1617, 13159)),
    ("dual_numbers_line", (0, 18, 48, 120, 288, 672, 1536)),
])
def test_pinned_entry_counts(name, counts):
    """len(triplets(n)) for each catalog differential: one entry per source
    basis cochain and structure-constant group that hits it, as the per-key
    scatter counted them (the benchmark's ``cohomology.nnz`` reads this)."""
    tc = TotalComplex(catalog.get(name).pair)
    assert tuple(len(tc.triplets(n)) for n in range(len(counts))) == counts
