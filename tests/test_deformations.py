"""Deformation engine: validation, equivalences, obstructions, extension."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import rand_cochain, rand_coeffs, rand_total
from cpair import catalog
from cpair.cochains import Cochain, TotalCochain, total_delta
from cpair.cohomology import TotalComplex, total_complex
from cpair.deformations import (Deformation, Equivalence, _theta,
                                apply_equivalence,
                                equivalent_infinitesimals_differ_by_coboundary,
                                extend, extend_to, infinitesimal,
                                n_infinitesimal, obstruction,
                                obstruction_is_cocycle, rigidity_probe,
                                structure_terms, validate_deformation)
from cpair.errors import (InputError, InternalError, InvalidDeformation,
                          NoInfinitesimalError)
from cpair.structures import (AssocAlgebra, CourantPair, LeibnizAlgebra,
                              tensor, zero_tensor)

F = Fraction


def phi_deformation(entry, name):
    return entry.featured_deformations[name]


def test_structure_terms_bidegrees(heis):
    a0, m0, l0 = structure_terms(heis)
    assert (a0.p, a0.q) == (2, 0)
    assert (m0.p, m0.q) == (1, 1)
    assert (l0.p, l0.q) == (0, 2)
    # mu0 stored with the algebra argument first
    for x in range(3):
        for a in range(3):
            assert list(m0.coeffs[a, x]) == list(heis.mu[x].matrix[a])


def test_from_terms_realigns_order(heis):
    d = Deformation.from_terms(heis, {}, order=2)
    assert d.order == 2
    assert d.coefficient(1).is_zero() and d.coefficient(2).is_zero()
    assert d.coefficient(0) == TotalCochain(2, structure_terms(heis))


def test_order_zero_must_match_structure(heis, dual):
    a0, m0, l0 = structure_terms(heis)
    with pytest.raises(InputError):
        Deformation(dual, (a0,), (m0,), (l0,))


def test_truncate_and_with_top(heis_entry):
    d = phi_deformation(heis_entry, "phi1")
    d4 = extend(extend(extend(d)))
    assert d4.order == 4
    assert d4.truncate(1).order == 1
    assert d4.truncate(1).coefficient(1) == d.coefficient(1)
    again = d4.truncate(3).with_top(d4.alphas[4], d4.mus[4], d4.lambdas[4])
    for n in range(5):
        assert again.coefficient(n) == d4.coefficient(n)


def test_validate_rejects_random_junk(heis):
    rng = random.Random(2)
    junk = Deformation.from_terms(heis, {1: (rand_cochain(rng, heis, 2, 0),
                                             None, None)})
    report = validate_deformation(junk)
    assert not report.ok
    assert any("order 1" in c.name for c in report.failures)
    assert report.failures[0].witness
    assert [(c.name, c.ok, c.witness) for c in report.checks] == \
        oracles.deformation_report(junk)


def test_infinitesimal_orders(heis_entry, heis):
    d = phi_deformation(heis_entry, "phi1")
    assert infinitesimal(d) == d.coefficient(1)
    assert n_infinitesimal(d) == (1, d.coefficient(1))
    with pytest.raises(NoInfinitesimalError):
        infinitesimal(Deformation.from_terms(heis, {}))
    with pytest.raises(NoInfinitesimalError):
        n_infinitesimal(Deformation.from_terms(heis, {}, order=2))


def test_equivalence_inverse_roundtrip(heis):
    rng = random.Random(9)
    e = Equivalence.from_terms(
        heis,
        phis=[rand_cochain(rng, heis, 1, 0) for _ in range(3)],
        psis=[rand_cochain(rng, heis, 0, 1) for _ in range(3)])
    inv = e.inverse()
    # composing the power series through the shared order gives the identity
    from cpair.deformations import _series_matrices, _inverse_series
    import numpy as np
    Fm = _series_matrices(e.phis, 3)
    Gm = _series_matrices(inv.phis, 3)
    for n in range(1, 4):
        acc = sum(np.dot(Fm[j], Gm[n - j]) for j in range(n + 1))
        assert not any(x for x in acc.reshape(-1)), n


def test_apply_equivalence_preserves_validity(heis_entry, heis):
    rng = random.Random(21)
    d = phi_deformation(heis_entry, "phi1")
    e = Equivalence.from_terms(
        heis,
        phis=[rand_cochain(rng, heis, 1, 0, density=0.4, span=3)
              for _ in range(2)],
        psis=[rand_cochain(rng, heis, 0, 1, density=0.4, span=3)
              for _ in range(2)])
    moved = apply_equivalence(d, e)
    assert moved.order == d.order
    assert validate_deformation(moved).ok
    # round-trip through the inverse recovers every coefficient
    back = apply_equivalence(moved, e.inverse())
    for n in range(d.order + 1):
        assert back.coefficient(n) == d.coefficient(n)


def test_transformed_infinitesimal_shifts_by_coboundary(heis_entry, heis):
    rng = random.Random(13)
    d = phi_deformation(heis_entry, "phi2")
    e = Equivalence.from_terms(heis,
                               phis=[rand_cochain(rng, heis, 1, 0)],
                               psis=[rand_cochain(rng, heis, 0, 1)])
    moved = apply_equivalence(d, e)
    shift = infinitesimal(moved) - infinitesimal(d)
    expected = total_delta(TotalCochain(1, (e.phis[0], e.psis[0])), heis)
    assert (shift - expected).is_zero()
    witness = equivalent_infinitesimals_differ_by_coboundary(moved, d)
    assert witness is not None


def test_nonequivalent_directions_have_no_witness(heis_entry):
    d1 = phi_deformation(heis_entry, "phi1")
    d2 = phi_deformation(heis_entry, "phi3")
    assert equivalent_infinitesimals_differ_by_coboundary(d1, d2) is None


def test_equivalence_requires_shared_pair(heis_entry, dual_entry):
    with pytest.raises(InputError):
        equivalent_infinitesimals_differ_by_coboundary(
            phi_deformation(heis_entry, "phi1"),
            dual_entry.featured_deformations["alpha1"])


def test_obstruction_refuses_invalid_input(heis):
    rng = random.Random(4)
    junk = Deformation.from_terms(heis, {1: (rand_cochain(rng, heis, 2, 0),
                                             None, None)})
    with pytest.raises(InvalidDeformation):
        obstruction(junk)


def test_obstruction_of_flat_deformation_vanishes(heis_entry, heis):
    d = phi_deformation(heis_entry, "phi1")
    theta = obstruction(d)
    assert theta.is_zero()
    assert obstruction_is_cocycle(d)
    tot = theta.total()
    assert tot.n == 3 and total_delta(tot, heis).is_zero()


def test_extend_produces_validated_next_order(heis_entry, dual_entry):
    for entry, name in ((heis_entry, "phi1"), (heis_entry, "phi2"),
                        (heis_entry, "phi3"), (dual_entry, "alpha1")):
        d = phi_deformation(entry, name)
        up = extend(d)
        assert up is not None
        assert up.order == d.order + 1
        assert validate_deformation(up).ok
        assert up.truncate(d.order).coefficient(1) == d.coefficient(1)


def obstructed_order_one(pair):
    """First degree-2 class whose deformation has a non-exact obstruction."""
    tc = total_complex(pair)
    for rep in tc.representatives(2):
        d = Deformation.from_terms(pair, {1: (rep.component(2),
                                              rep.component(1),
                                              rep.component(0))})
        if not validate_deformation(d).ok:
            continue
        theta = obstruction(d)
        if not theta.is_zero() and tc.is_coboundary(theta.total()) is None:
            return d
    return None


def test_extension_can_genuinely_fail(hemi):
    """Some infinitesimal directions are obstructed: the obstruction class
    is a nonzero element of degree-3 cohomology and extend returns None."""
    d = obstructed_order_one(hemi)
    assert d is not None
    assert extend(d) is None


def test_rigidity_probe_counts(heis, dual, hemi):
    assert rigidity_probe(heis).h2_dim == 6
    assert rigidity_probe(dual).h2_dim == 1
    assert rigidity_probe(hemi).h2_dim == 8
    r = rigidity_probe(heis)
    assert not r.rigid
    assert "6" in str(r)


def test_point_pair_is_rigid():
    A = AssocAlgebra(1, tensor([[[1]]], (1, 1, 1)), ("1",))
    point = CourantPair(A, LeibnizAlgebra(0, zero_tensor((0, 0, 0))), ())
    r = rigidity_probe(point)
    assert r.rigid
    assert "rigid" in str(r)
    # and with nothing in degree 2, every deformation extends
    d = Deformation.from_terms(point, {})
    assert extend(d) is not None


# ---------------------------------------------------------------------------
# the sparse equations against the dense oracle
# ---------------------------------------------------------------------------

def random_deformation(name, seed, order, perturb):
    """A deformation of a catalog pair: a multiple of one or two degree-2
    class representatives, extended towards ``order`` (it stops early where
    the direction is obstructed), then moved by a random equivalence so
    every coefficient is busy.  With ``perturb`` one coefficient above
    order 0 is then disturbed at random, which usually breaks the
    equations."""
    rng = random.Random(seed)
    pair = catalog.get(name).pair
    reps = total_complex(pair).representatives(2)
    inf = TotalCochain.zero(2, pair)
    for rep in rng.sample(reps, min(len(reps), rng.randint(1, 2))):
        inf = inf + rng.choice((-2, -1, 1, 2)) * rep
    d = Deformation.from_terms(pair, {1: (inf.component(2), inf.component(1),
                                          inf.component(0))})
    d = extend_to(d, order)[0]
    e = Equivalence.from_terms(
        pair, phis=[rand_cochain(rng, pair, 1, 0, 0.3, 2) for _ in range(d.order)],
        psis=[rand_cochain(rng, pair, 0, 1, 0.3, 2) for _ in range(d.order)])
    d = apply_equivalence(d, e)
    if perturb:
        coeffs = [list(d.alphas), list(d.mus), list(d.lambdas)]
        k = rng.randint(1, d.order)
        which = rng.choice([i for i in range(3) if coeffs[i][k].coeffs.size])
        c = coeffs[which][k]
        coeffs[which][k] = c + rand_cochain(rng, pair, c.p, c.q, 0.2, 3)
        d = Deformation(pair, *coeffs)
    return d


deformations = st.builds(random_deformation, st.sampled_from(catalog.names()),
                         st.integers(0, 10 ** 6), st.integers(1, 3),
                         st.booleans())


@given(deformations)
@settings(max_examples=20, deadline=None)
def test_sparse_report_matches_dense_oracle(d):
    got = [(c.name, c.ok, c.witness) for c in validate_deformation(d).checks]
    assert got == oracles.deformation_report(d)


@given(deformations)
@settings(max_examples=20, deadline=None)
def test_theta_matches_dense_oracle(d):
    for comp, want in zip(_theta(d).components, oracles.theta(d)):
        assert comp.coeffs.shape == want.shape
        assert list(comp.coeffs.reshape(-1)) == list(want.reshape(-1))


# ---------------------------------------------------------------------------
# the extension loop and its explicit checks
# ---------------------------------------------------------------------------

def test_extend_to_stops_at_the_obstruction(hemi):
    d = obstructed_order_one(hemi)
    reached, stop = extend_to(d, 4)
    assert reached is d and stop is not None
    assert not stop.is_zero()
    assert stop.total() == obstruction(d).total()


def test_extend_to_matches_repeated_extend(heis_entry):
    d = phi_deformation(heis_entry, "phi2")
    reached, stop = extend_to(d, 4)
    assert stop is None and reached.order == 4
    step = d
    for _ in range(3):
        step = extend(step)
    for n in range(5):
        assert reached.coefficient(n) == step.coefficient(n)


def test_corrupted_top_coefficient_is_internal_error(heis_entry, monkeypatch):
    rng = random.Random(17)
    honest = TotalComplex.is_coboundary

    def corrupted(self, c):
        sol = honest(self, c)
        return None if sol is None else sol + rand_total(rng, self.pair, sol.n)

    monkeypatch.setattr(TotalComplex, "is_coboundary", corrupted)
    with pytest.raises(InternalError, match="order 2"):
        extend(phi_deformation(heis_entry, "phi1"))


def test_unclosed_obstruction_is_internal_error(heis_entry, monkeypatch):
    import cpair.deformations as deformations
    rng = random.Random(3)
    honest = deformations._theta
    monkeypatch.setattr(deformations, "_theta", lambda d, terms=None:
                        honest(d, terms) + rand_total(rng, d.pair, 3))
    d = phi_deformation(heis_entry, "phi1")
    with pytest.raises(InternalError, match="not a total cocycle"):
        obstruction(d)
    with pytest.raises(InternalError, match="not a total cocycle"):
        extend(d)


def test_rigidity_probe_checks_its_cocycles(heis, monkeypatch):
    rng = random.Random(6)
    monkeypatch.setattr(TotalComplex, "representatives",
                        lambda self, n: [rand_total(rng, self.pair, n)])
    with pytest.raises(InternalError, match="not a cocycle"):
        rigidity_probe(heis)
