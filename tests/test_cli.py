"""Command-line behavior: reports, flags, and the exit-code contract
(0 = pass, 1 = mathematical failure, 2 = input error, 3 = internal error)."""

import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from cpair import catalog, documents
from cpair.cli import main
from cpair.cohomology import total_complex
from test_deformations import obstructed_order_one


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture()
def heis_file(tmp_path, heis):
    return write_doc(tmp_path, "heis.json",
                     documents.pair_to_document(heis))


@pytest.fixture()
def phi1_file(tmp_path, heis_entry):
    d = heis_entry.featured_deformations["phi1"]
    return write_doc(tmp_path, "phi1.json",
                     documents.deformation_to_document(d, pair_ref="heisenberg"))


def test_validate_pair_ok(heis_file, capsys):
    assert main(["validate", heis_file]) == 0
    out = capsys.readouterr().out
    assert "pair valid" in out
    assert "associativity: ok" in out


def test_validate_json_mode(heis_file, capsys):
    assert main(["validate", heis_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert {c["name"] for c in payload["checks"]} >= {"associativity",
                                                      "leibniz identity"}


def test_validate_law_failure_is_exit_1(tmp_path, heis, capsys):
    doc = documents.pair_to_document(heis)
    doc["assoc"]["table"].append([1, 2, ["1", "0", "0"]])  # x.x^2 += 1
    path = write_doc(tmp_path, "bad.json", doc)
    assert main(["validate", path]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "x" in out


def test_parse_error_is_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_decimal_is_exit_2(tmp_path, heis, capsys):
    doc = documents.pair_to_document(heis)
    text = json.dumps(doc).replace('"1"', "0.5", 1)
    path = tmp_path / "decimal.json"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert "decimal" in capsys.readouterr().err


def _oversize(doc, section):
    """Declare one section just above documents.MAX_TENSOR_CELLS (so that a
    missing check would allocate megabytes, not gigabytes)."""
    if section in ("assoc", "leibniz"):
        doc[section]["dim"] = 101  # 101^3 cells
    else:
        doc["module"] = {"M": {"dim": 1}, "P": {"dim": 1}}
        doc["module"][section]["dim"] = 578  # 3 x 578 x 578 cells


@pytest.mark.parametrize("section, tensor", [
    ("assoc", "101 x 101 x 101"), ("leibniz", "101 x 101 x 101"),
    ("M", "3 x 578 x 578"), ("P", "3 x 578 x 578")])
def test_oversized_dimension_is_exit_2(tmp_path, heis, capsys, section, tensor):
    doc = documents.pair_to_document(heis)
    _oversize(doc, section)
    path = write_doc(tmp_path, "big.json", doc)
    for argv in (["validate", path], ["cohomology", path, "--degree", "1"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{tensor} tensor of" in err and "MB" in err
        assert "Traceback" not in err


def test_cohomology_report(heis_file, capsys):
    assert main(["cohomology", heis_file, "--degree", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim"] == 81
    assert payload["kernel_dim"] == 19
    assert payload["rank_in"] == 13
    assert payload["cohomology_dim"] == 6


def test_cohomology_classes_listing(heis_file, heis, capsys):
    assert main(["cohomology", heis_file, "--degree", "2", "--classes",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["classes"]) == 6
    # entries are (bracket args..., algebra args..., coefficient vector)
    comp = payload["classes"][0]
    assert {c["p"] for c in comp} == {0, 1, 2}


def test_cohomology_columns(heis_file, capsys):
    assert main(["cohomology", heis_file, "--degree", "2",
                 "--column", "leibniz", "--json"]) == 0
    leib = json.loads(capsys.readouterr().out)
    assert leib["dim"] == 27 and leib["cohomology_dim"] == 8
    assert main(["cohomology", heis_file, "--degree", "2",
                 "--column", "hochschild", "--json"]) == 0
    hoch = json.loads(capsys.readouterr().out)
    assert hoch["dim"] == 27 and hoch["cohomology_dim"] == 2


def test_degree_cap_refusal_and_force(heis_file, capsys, monkeypatch):
    assert main(["cohomology", heis_file, "--degree", "4"]) == 2
    err = capsys.readouterr().err
    assert "cap" in err and "--force" in err and "1215" in err
    monkeypatch.setenv("CPAIR_DEGREE_CAP", "4")
    assert main(["cohomology", heis_file, "--degree", "4", "--column",
                 "hochschild"]) == 0
    monkeypatch.setenv("CPAIR_DEGREE_CAP", "not-a-number")
    assert main(["cohomology", heis_file, "--degree", "1"]) == 2


@pytest.mark.parametrize("column, degree", [
    ("total", 12), ("leibniz", 12), ("hochschild", 12), ("total", 40)])
def test_oversized_differential_is_exit_2(tmp_path, hemi, capsys, column,
                                          degree):
    """With --force nothing caps the degree, but the assembly counts the
    entries of d^12 from its structure-constant groups and refuses before
    allocating index arrays of that size (without the check this would
    run for hours or end in a MemoryError); at degree 40 the blocks are
    beyond 64-bit indices altogether."""
    path = write_doc(tmp_path, "hemi.json", documents.pair_to_document(hemi))
    t0 = time.perf_counter()
    assert main(["cohomology", path, "--degree", str(degree), "--force",
                 "--column", column]) == 2
    assert time.perf_counter() - t0 < 30
    err = capsys.readouterr().err
    assert f"degree-{degree} differential" in err and "Traceback" not in err
    if degree == 12:
        assert "above the limit" in err and "MB" in err


@pytest.mark.parametrize("name, extra", [
    ("hemisemidirect_demo", ()), ("hemisemidirect_demo", ("--classes",)),
    ("dual_numbers_line", ("--column", "leibniz")),
    ("dual_numbers_line", ("--column", "hochschild"))])
def test_astronomical_degree_is_exit_2(tmp_path, capsys, name, extra):
    """Degree 100000 is refused from counts in closed form, before any
    index or term table of that degree is built: dim C^n for the total
    complex, the number of terms for the one-dimensional bracket of
    dual_numbers_line, whose blocks stay small."""
    doc = documents.pair_to_document(catalog.get(name).pair)
    path = write_doc(tmp_path, "pair.json", doc)
    t0 = time.perf_counter()
    assert main(["cohomology", path, "--degree", "100000", "--force",
                 *extra]) == 2
    assert time.perf_counter() - t0 < 5
    err = capsys.readouterr().err
    assert "degree-100000 differential" in err and "Traceback" not in err


def test_cohomology_refuses_an_invalid_pair(tmp_path, heis, capsys):
    """Swapping mu[0] and mu[1] breaks the anchor homomorphism; the
    cohomology of such data is meaningless (it came out negative)."""
    doc = documents.pair_to_document(heis)
    doc["mu"][0], doc["mu"][1] = doc["mu"][1], doc["mu"][0]
    path = write_doc(tmp_path, "swapped.json", doc)
    assert main(["validate", path]) == 1
    capsys.readouterr()
    for column in ("total", "leibniz", "hochschild"):
        assert main(["cohomology", path, "--degree", "2", "--column", column,
                     "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "anchor homomorphism: FAIL at (e1, e3)" in captured.err


def test_internal_error_is_exit_3(heis_file, capsys, monkeypatch):
    from cpair.cohomology import TotalComplex
    monkeypatch.setattr(TotalComplex, "kernel", lambda self, n: [])
    assert main(["cohomology", heis_file, "--degree", "2", "--classes"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "internal error" in captured.err


def test_classes_only_for_total(heis_file, capsys):
    assert main(["cohomology", heis_file, "--degree", "1",
                 "--column", "leibniz", "--classes"]) == 2


def test_deform_validate_and_infinitesimal(phi1_file, capsys):
    assert main(["deform", phi1_file, "validate"]) == 0
    assert "deformation valid" in capsys.readouterr().out
    assert main(["deform", phi1_file, "infinitesimal", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["first_nonzero_order"] == 1
    assert payload["is_cocycle"] is True
    lam = next(c for c in payload["components"] if c["q"] == 2)
    assert lam["entries"] == [[0, 0, ["0", "1", "0"]]]


def test_deform_obstruction_vanishes(phi1_file, capsys):
    assert main(["deform", phi1_file, "obstruction"]) == 0
    out = capsys.readouterr().out
    assert "cocycle: true" in out
    assert "vanishes identically: true" in out


def test_deform_extend_reports_each_order(phi1_file, capsys):
    assert main(["deform", phi1_file, "extend", "--to", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert [s["order"] for s in payload["steps"]] == [2, 3, 4]
    assert all(s["top_is_zero"] for s in payload["steps"])


def test_deform_extend_stops_at_obstruction(tmp_path, hemi, capsys):
    d = obstructed_order_one(hemi)
    path = write_doc(tmp_path, "stuck.json",
                     documents.deformation_to_document(d))
    assert main(["deform", path, "obstruction"]) == 1
    out = capsys.readouterr().out
    assert "extendable): false" in out
    assert main(["deform", path, "extend", "--to", "2"]) == 1
    out = capsys.readouterr().out
    assert "does not vanish" in out and "theta" in out


def test_deform_equivalent(tmp_path, heis_entry, capsys):
    paths = {}
    for name in ("phi1", "phi2"):
        d = heis_entry.featured_deformations[name]
        paths[name] = write_doc(
            tmp_path, f"{name}.json",
            documents.deformation_to_document(d, pair_ref="heisenberg"))
    assert main(["deform", paths["phi1"], "equivalent", paths["phi2"]]) == 1
    assert "non-equivalent at order 1" in capsys.readouterr().out
    assert main(["deform", paths["phi1"], "equivalent", paths["phi1"]]) == 0
    assert "equivalent at order 1" in capsys.readouterr().out


def test_deform_equivalent_rejects_mismatched_pairs(tmp_path, heis_entry,
                                                    dual_entry, capsys):
    p1 = write_doc(tmp_path, "a.json", documents.deformation_to_document(
        heis_entry.featured_deformations["phi1"], pair_ref="heisenberg"))
    p2 = write_doc(tmp_path, "b.json", documents.deformation_to_document(
        dual_entry.featured_deformations["alpha1"]))
    assert main(["deform", p1, "equivalent", p2]) == 2


def test_catalog_list_and_export(capsys, tmp_path):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert "heisenberg" in out and "dual_numbers_line" in out
    assert main(["catalog", "export", "heisenberg"]) == 0
    doc = json.loads(capsys.readouterr().out)
    pair, _ = documents.pair_from_document(doc)
    assert pair.A.dim == 3
    assert main(["catalog", "export", "nope"]) == 2
    capsys.readouterr()
    assert main(["catalog", "export", "heisenberg",
                 "--deformation", "nope"]) == 2


def test_module_invocation_matches_entry_point(heis_entry, tmp_path):
    doc = documents.deformation_to_document(
        heis_entry.featured_deformations["phi1"], pair_ref="heisenberg")
    path = write_doc(tmp_path, "d.json", doc)
    proc = subprocess.run([sys.executable, "-m", "cpair", "deform", path,
                           "validate", "--json"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True


def test_extend_output_does_not_depend_on_asserts(tmp_path, heis_entry, hemi):
    """No check on the extension path lives in an assert: python -O, which
    strips asserts, prints the same report with the same exit code."""
    docs = {"phi1": documents.deformation_to_document(
                heis_entry.featured_deformations["phi1"], pair_ref="heisenberg"),
            "stuck": documents.deformation_to_document(obstructed_order_one(hemi))}
    for name, doc in docs.items():
        path = write_doc(tmp_path, f"{name}.json", doc)
        runs = [subprocess.run([sys.executable, *flags, "-m", "cpair", "deform",
                                path, "extend", "--to", "4"],
                               capture_output=True, text=True)
                for flags in ((), ("-O",))]
        assert runs[0].returncode == (0 if name == "phi1" else 1)
        assert (runs[1].stdout, runs[1].returncode) == \
            (runs[0].stdout, runs[0].returncode)
