"""Direct-evaluation coboundaries on small hand-checked examples."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import rand_cochain, rand_total
from cpair.cochains import (Cochain, TotalCochain, circle, curry_mu,
                            gerstenhaber, hochschild_delta, leibniz_delta,
                            module_action, total_delta, vertical_delta)
from cpair.deformations import structure_terms
from cpair.errors import InputError, NotComposable, WrongDifferential

F = Fraction


def test_hochschild_on_dual_numbers(dual):
    """f(1)=0, f(x)=1 has (delta f)(a,b) = a f(b) - f(ab) + f(a) b, so
    (delta f)(x,x) = x*1 - f(0) + 1*x = 2x."""
    f = Cochain.from_entries(1, 0, dual, {(1,): [1, 0]})
    df = hochschild_delta(f, dual)
    assert list(df.coeffs[1, 1]) == [F(0), F(2)]
    assert not any(df.coeffs[0, 0])
    assert list(df.coeffs[0, 1]) == [F(0), F(0)]  # 1 f(x) - f(x) = 0


def test_hochschild_of_identity_map_is_multiplication(heis):
    """delta(id)(a,b) = a.b - ab + a.b = ab."""
    ident = Cochain.from_entries(1, 0, heis, {(i,): [F(j == i) for j in range(3)]
                                              for i in range(3)})
    df = hochschild_delta(ident, heis)
    assert df == structure_terms(heis)[0]


def test_vertical_delta_recovers_anchor(heis):
    """At (0,0) a cochain is just an element z of L; its vertical coboundary
    is the derivation mu(z) viewed as a (1,0)-cochain."""
    for z in range(3):
        psi = Cochain.from_entries(0, 0, heis, {(): [F(k == z) for k in range(3)]})
        dv = vertical_delta(psi, heis)
        for a in range(3):
            assert list(dv.coeffs[a]) == list(heis.mu[z].matrix[a])


def test_leibniz_delta_hand_value(heis):
    """psi(e1) = e1 (zero elsewhere).  With [e1,e3] = e2 = -[e3,e1]:
    (delta psi)(x,y) = [x, psi(y)] + [psi(x), y] - psi([x,y]) gives
    (e1,e3) -> e2 and (e3,e1) -> -e2, everything else zero."""
    psi = Cochain.from_entries(0, 1, heis, {(0,): [1, 0, 0]})
    d = leibniz_delta(psi, heis)
    assert list(d.coeffs[0, 2]) == [F(0), F(1), F(0)]
    assert list(d.coeffs[2, 0]) == [F(0), F(-1), F(0)]
    nonzero = [(x, y) for x in range(3) for y in range(3) if any(d.coeffs[x, y])]
    assert nonzero == [(0, 2), (2, 0)]


def test_featured_cochains_killed_by_both_differentials(heis_entry):
    for key, phi in heis_entry.featured_cochains.items():
        assert leibniz_delta(phi, heis_entry.pair).is_zero()
        assert vertical_delta(phi, heis_entry.pair).is_zero()


def test_module_action_hand_value(heis):
    """[z, f](a) = mu(z)(f(a)) - f(mu(z)(a)); for f(x)=1 and the Euler
    derivation this is -1 at a=x and zero elsewhere."""
    f = Cochain.from_entries(1, 0, heis, {(1,): [1, 0, 0]})
    zf = module_action(0, f, heis)
    assert list(zf.coeffs[1]) == [F(-1), F(0), F(0)]
    assert not any(zf.coeffs[0]) and not any(zf.coeffs[2])


def test_curry_mu_slices_the_anchor(heis):
    mu0 = structure_terms(heis)[1]
    for x in range(3):
        fx = curry_mu(mu0, x)
        for a in range(3):
            assert list(fx.coeffs[a]) == list(heis.mu[x].matrix[a])
    with pytest.raises(InputError):
        curry_mu(Cochain.zero(2, 0, heis), 0)


def test_multiplication_self_bracket_vanishes(all_pairs):
    """[alpha0, alpha0] = 0 is exactly associativity."""
    for name, pair in all_pairs:
        alpha0 = structure_terms(pair)[0]
        assert gerstenhaber(alpha0, alpha0, pair).is_zero(), name


def test_circle_product_hand_value(dual):
    """(f o g)(a,b) = f(g(a,b)) for |g| = 2, |f| = 1."""
    f = Cochain.from_entries(1, 0, dual, {(1,): [2, 0]})
    g = Cochain.from_entries(2, 0, dual, {(1, 1): [0, 1]})   # g(x,x) = x
    fg = circle(f, g, dual)
    assert list(fg.coeffs[1, 1]) == [F(2), F(0)]


def test_wrong_differential_errors(heis):
    psi = Cochain.zero(0, 1, heis)
    with pytest.raises(WrongDifferential):
        hochschild_delta(psi, heis)
    with pytest.raises(WrongDifferential):
        vertical_delta(Cochain.zero(1, 1, heis), heis)
    with pytest.raises(NotComposable):
        gerstenhaber(Cochain.zero(1, 1, heis), Cochain.zero(2, 0, heis), heis)
    with pytest.raises(InputError):
        Cochain.zero(1, 0, heis) + Cochain.zero(0, 1, heis)


def test_total_delta_mixes_with_sign(heis):
    """The (p, q+1) component of the total differential carries (-1)^p."""
    import random
    rng = random.Random(5)
    c = rand_cochain(rng, heis, 1, 1)
    tot = total_delta(TotalCochain(2, (Cochain.zero(2, 0, heis), c,
                                       Cochain.zero(0, 2, heis))), heis)
    assert tot.component(2) == hochschild_delta(c, heis)
    assert tot.component(1) == -leibniz_delta(c, heis)  # (-1)^1


fracs = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@given(fracs, st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_coboundaries_are_linear(r, seed):
    import random
    from cpair import catalog
    pair = catalog.get("heisenberg").pair
    rng = random.Random(seed)
    c, d = rand_cochain(rng, pair, 1, 1), rand_cochain(rng, pair, 1, 1)
    assert hochschild_delta(c + r * d, pair) == \
        hochschild_delta(c, pair) + r * hochschild_delta(d, pair)
    assert leibniz_delta(c + r * d, pair) == \
        leibniz_delta(c, pair) + r * leibniz_delta(d, pair)


@given(st.integers(0, 10 ** 6), st.integers(0, 2))
@settings(max_examples=25, deadline=None)
def test_total_delta_squares_to_zero_heis(seed, n):
    import random
    from cpair import catalog
    pair = catalog.get("heisenberg").pair
    rng = random.Random(seed)
    c = rand_total(rng, pair, n)
    assert total_delta(total_delta(c, pair), pair).is_zero()


def test_cochain_copies_the_callers_array(heis):
    """A cochain keeps a read-only copy: the caller's array stays writeable,
    and later writes to it do not reach the cochain."""
    arr = np.full((3, 3), F(0), dtype=object)
    c = Cochain(1, 0, arr)
    assert arr.flags.writeable and not c.coeffs.flags.writeable
    arr[0, 0] = F(5)
    assert c.is_zero() and c.coeffs[0, 0] == 0
