from fractions import Fraction

import pytest

import oracles
from cpair import catalog
from cpair.cohomology import total_complex, total_delta_matrix
from cpair.deformations import validate_deformation
from cpair.errors import InputError, InternalError
from cpair.structures import LawCheck, ValidationReport, validate_pair

F = Fraction


def test_names_are_stable():
    assert list(catalog.names()) == ["heisenberg", "dual_numbers_line",
                                     "hemisemidirect_demo"]


def test_unknown_name_reports_choices():
    with pytest.raises(InputError) as exc:
        catalog.get("nope")
    assert "heisenberg" in str(exc.value)


def test_entries_are_self_consistent():
    for name in catalog.names():
        entry = catalog.get(name)
        assert entry.name == name
        assert validate_pair(entry.pair).ok
        assert entry.notes
        for d in entry.featured_deformations.values():
            assert d.pair is entry.pair
            assert validate_deformation(d).ok


def test_heisenberg_shape(heis):
    assert heis.A.basis_labels == ("1", "x", "x^2")
    assert heis.A.dim == 3 and heis.L.dim == 3
    # bracket: [e1, e3] = e2 = -[e3, e1], everything else zero
    br = heis.L.bracket
    assert list(br[0, 2]) == [F(0), F(1), F(0)]
    assert list(br[2, 0]) == [F(0), F(-1), F(0)]
    # the first anchor image is the Euler derivation, the others vanish
    assert [list(r) for r in heis.mu[0].matrix] == \
        [[0, 0, 0], [0, 1, 0], [0, 0, 2]]
    assert not any(any(r) for r in heis.mu[1].matrix)


def test_heisenberg_features_give_three_classes(heis_entry):
    tc = total_complex(heis_entry.pair)
    image = total_delta_matrix(1, heis_entry.pair).transpose().entries
    classes = [tc.index(2).flatten(d.coefficient(1))
               for d in heis_entry.featured_deformations.values()]
    assert len(classes) == 3
    assert oracles.independent_modulo(image, classes)


def test_dual_numbers_line(dual_entry):
    pair = dual_entry.pair
    assert pair.A.dim == 2 and pair.L.dim == 0
    d = dual_entry.featured_deformations["alpha1"]
    # the deformed product relaxes x^2 = 0 to x^2 = t
    assert list(d.alphas[1].coeffs[1, 1]) == [F(1), F(0)]


def test_hemisemidirect_demo_is_an_anchor_projection(hemi):
    # the first two bracket generators act as the derivations they name,
    # the appended module part acts by zero
    assert hemi.L.dim == 5
    for x in (2, 3, 4):
        assert not any(any(r) for r in hemi.mu[x].matrix)
    assert any(any(r) for r in hemi.mu[0].matrix)
    assert any(any(r) for r in hemi.mu[1].matrix)


@pytest.mark.parametrize("patched, name, match", [
    ("validate_pair", "hemisemidirect_demo", "not a Courant pair"),
    ("validate_deformation", "dual_numbers_line", "alpha1 is invalid"),
    ("is_cocycle", "heisenberg", "phi1 is not closed"),
])
def test_entry_checks_are_internal_errors(monkeypatch, patched, name, match):
    """A catalog entry's executable theorems raise InternalError, not assert."""
    failing = ValidationReport((LawCheck("a law", False, "(x)"),))
    if patched == "is_cocycle":
        from cpair.cohomology import TotalComplex
        monkeypatch.setattr(TotalComplex, "is_cocycle", lambda self, c: False)
    else:
        monkeypatch.setattr(catalog, patched, lambda *args: failing)
    with pytest.raises(InternalError, match=match):
        getattr(catalog, name).__wrapped__()
