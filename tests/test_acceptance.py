"""One test per numbered acceptance criterion.

The terminal-summary hook in conftest prints a PASS/FAIL line for each
criterion at the end of the run.  Every assertion below is exact Fraction
arithmetic: "equal" always means literal equality, never approximate.

Criterion 1 runs the coboundary identities through precomputed scatter
tables read from the library's assembly kernel (fast enough for 100
cochains per bidegree on every catalog pair); a subsample of every batch is
certified against the direct evaluation route so the fast path proves
nothing the slow path would not.
"""

import itertools
import json
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from random import Random

import numpy as np

import oracles
from conftest import rand_cochain, rand_fraction, rand_total
from cpair import catalog, documents
from cpair.cli import _total_json
from cpair.cochains import (Cochain, TotalCochain, gerstenhaber,
                            hochschild_delta, leibniz_delta, module_action,
                            total_delta, vertical_delta)
from cpair.cohomology import (_assemble, column_delta_matrix,
                              row_delta_matrix, total_complex,
                              total_delta_matrix)
from cpair.deformations import (Deformation, Equivalence, apply_equivalence,
                                equivalent_infinitesimals_differ_by_coboundary,
                                extend, infinitesimal, obstruction,
                                structure_terms, validate_deformation)
from cpair.structures import adjoint_module

F = Fraction
BIDEGREES = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


# --------------------------------------------------------------------------
# criterion 1: the squares and commutators of the bicomplex
# --------------------------------------------------------------------------

def _scatter(tcx, p, q, kind):
    """delta restricted to bidegree (p, q) as {source key: [(target key, c)]},
    read from the library's assembly kernel; the down map's total-complex
    sign (-1)^p is taken off again, so that "down" is delta_L itself."""
    pair, module = tcx.pair, tcx.module
    dA, dL = pair.A.dim, pair.L.dim
    vdim = module.M_dim if p else module.P_dim
    src_shape = (dA,) * p + (dL,) * q + (vdim,)
    tp, tq = (p + 1, q) if kind == "up" else (p, q + 1)
    tvdim = module.M_dim if tp else module.P_dim
    tgt_shape = (dA,) * tp + (dL,) * tq + (tvdim,)
    sign = -1 if kind == "down" and p % 2 else 1
    acc = {key: defaultdict(lambda: F(0)) for key in np.ndindex(*src_shape)}
    e = _assemble([(tcx.block_maps(p, q)[kind == "down"], 0, 0)])
    keys = (zip(*(a.tolist() for a in np.unravel_index(idx, shape)))
            for idx, shape in ((e.col, src_shape), (e.row, tgt_shape)))
    for key, tkey, c in zip(*keys, e.val.tolist()):
        acc[key][tkey] += sign * c
    table = {key: tuple((k, c) for k, c in a.items() if c)
             for key, a in acc.items()}
    return table, tgt_shape


def _apply(scattered, coeffs):
    table, tgt_shape = scattered
    out = np.full(tgt_shape, F(0), dtype=object)
    for key, val in np.ndenumerate(coeffs):
        if val:
            for tkey, c in table[key]:
                out[tkey] += c * val
    return out


def test_criterion_1_bicomplex_identities(all_pairs):
    for name, pair in all_pairs:
        module = adjoint_module(pair)
        tcx = total_complex(pair)
        maps = {}

        def delta(kind, p, q):
            if (kind, p, q) not in maps:
                maps[kind, p, q] = _scatter(tcx, p, q, kind)
            return maps[kind, p, q]

        rng = Random(f"c1-{name}")
        # direct evaluation is much slower on the 15-dimensional pair, so
        # the certification subsample shrinks there; the identities
        # themselves still run on all 100 cochains per bidegree
        certify = 100 if pair.A.dim * pair.L.dim <= 9 else 10
        for p, q in BIDEGREES:
            for k in range(100):
                c = rand_cochain(rng, pair, p, q, density=0.5, span=6)
                up = _apply(delta("up", p, q), c.coeffs)
                down = _apply(delta("down", p, q), c.coeffs)
                # squares: delta_H^2 = 0 (p > 0), delta_H delta_v = 0 (p = 0)
                assert not any(_apply(delta("up", p + 1, q), up).flat)
                # delta_L^2 = 0
                assert not any(_apply(delta("down", p, q + 1), down).flat)
                # the rows and columns commute (the total complex inserts
                # the (-1)^p that turns this into anticommutation)
                up_down = _apply(delta("down", p + 1, q), up)
                down_up = _apply(delta("up", p, q + 1), down)
                assert (up_down == down_up).all()
                if k < certify:
                    vert = vertical_delta if p == 0 else hochschild_delta
                    assert (up == vert(c, pair, module).coeffs).all()
                    assert (down == leibniz_delta(c, pair, module).coeffs).all()
        # total_delta^2 = 0, through the assembled sparse matrices
        for n in (0, 1, 2):
            idx = tcx.index(n)
            for _ in range(100):
                t = rand_total(rng, pair, n, density=0.5, span=6)
                once = tcx.apply_flat(n, idx.flatten(t))
                assert not any(tcx.apply_flat(n + 1, once))


# --------------------------------------------------------------------------
# criterion 2: the coboundary is a bracket with the multiplication
# --------------------------------------------------------------------------

def test_criterion_2_dgla_laws(all_pairs):
    for name, pair in all_pairs:
        rng = Random(f"c2-{name}")
        a0 = structure_terms(pair)[0]
        for p in (1, 2, 3):
            sign = F(-1) ** (p - 1)  # the shifted degree of f is p - 1
            for _ in range(100):
                f = rand_cochain(rng, pair, p, 0, density=0.5, span=6)
                assert hochschild_delta(f, pair) == sign * gerstenhaber(a0, f, pair)
    # graded antisymmetry and Jacobi, degrees sampled up to 3
    for k in range(100):
        name, pair = all_pairs[k % len(all_pairs)]
        rng = Random(f"c2-triple-{k}")
        pf, pg, ph = (rng.choice((1, 2, 3)) for _ in range(3))
        f = rand_cochain(rng, pair, pf, 0, density=0.5, span=4)
        g = rand_cochain(rng, pair, pg, 0, density=0.5, span=4)
        h = rand_cochain(rng, pair, ph, 0, density=0.5, span=4)
        fg = gerstenhaber(f, g, pair)
        gh = gerstenhaber(g, h, pair)
        hf = gerstenhaber(h, f, pair)
        assert fg == (-F(-1) ** ((pf - 1) * (pg - 1))) * gerstenhaber(g, f, pair)
        jac = (F(-1) ** ((pf - 1) * (ph - 1)) * gerstenhaber(f, gh, pair)
               + F(-1) ** ((pg - 1) * (pf - 1)) * gerstenhaber(g, hf, pair)
               + F(-1) ** ((ph - 1) * (pg - 1)) * gerstenhaber(h, fg, pair))
        assert jac.is_zero()


# --------------------------------------------------------------------------
# criterion 3: the bracket action commutes with the coboundary
# --------------------------------------------------------------------------

def test_criterion_3_bracket_equivariance(all_pairs):
    for name, pair in all_pairs:
        module = adjoint_module(pair)
        rng = Random(f"c3-{name}")
        for k in range(100):
            p = 1 + k % 3
            f = rand_cochain(rng, pair, p, 0, density=0.5, span=6)
            df = hochschild_delta(f, pair, module)
            for x in range(pair.L.dim):
                lhs = hochschild_delta(module_action(x, f, pair, module),
                                       pair, module)
                assert lhs == module_action(x, df, pair, module)


# --------------------------------------------------------------------------
# criterion 4: the three featured bracket deformations
# --------------------------------------------------------------------------

def test_criterion_4_heisenberg_classes(heis_entry, heis):
    tcx = total_complex(heis)
    phis = [heis_entry.featured_cochains[k] for k in ("phi1", "phi2", "phi3")]
    totals = []
    for f in phis:
        assert leibniz_delta(f, heis).is_zero()
        assert vertical_delta(f, heis).is_zero()
        t = TotalCochain(2, (Cochain.zero(2, 0, heis),
                             Cochain.zero(1, 1, heis), f))
        assert tcx.is_cocycle(t)
        assert tcx.is_coboundary(t) is None
        totals.append(t)
    # linearly independent modulo coboundaries (the image of delta^1)
    image = total_delta_matrix(1, heis).transpose().entries
    idx = tcx.index(2)
    assert oracles.independent_modulo(image, [idx.flatten(t) for t in totals])
    # the order-1 deformations validate and are pairwise non-equivalent
    ds = [heis_entry.featured_deformations[k] for k in ("phi1", "phi2", "phi3")]
    for d in ds:
        assert validate_deformation(d).ok
    for d1, d2 in itertools.combinations(ds, 2):
        assert equivalent_infinitesimals_differ_by_coboundary(d1, d2) is None


# --------------------------------------------------------------------------
# criterion 5: obstruction cochains are closed, componentwise
# --------------------------------------------------------------------------

def _order_one(pair, c):
    return Deformation.from_terms(
        pair, {1: (c.component(2), c.component(1), c.component(0))})


def test_criterion_5_obstruction_cocycles(all_pairs, heis_entry, dual_entry):
    targets = []
    for entry in (heis_entry, dual_entry):
        for d in entry.featured_deformations.values():
            chain = [d]
            for _ in range(2):
                nxt = extend(chain[-1])
                assert nxt is not None
                chain.append(nxt)
            targets.extend(chain)  # featured at orders 1, 2, 3
    for name, pair in all_pairs:
        rng = Random(f"c5-{name}")
        reps = total_complex(pair).representatives(2)
        count = 10 if pair.A.dim * pair.L.dim <= 9 else 3
        for _ in range(count):
            weights = [rand_fraction(rng, span=3) for _ in reps]
            if not any(weights):
                weights[rng.randrange(len(weights))] = F(1)
            c = TotalCochain.zero(2, pair)
            for w, r in zip(weights, reps):
                if w:
                    c = c + w * r
            targets.append(_order_one(pair, c))
    for d in targets:
        pair = d.pair
        assert validate_deformation(d).ok
        o = obstruction(d)
        assert total_delta(o.total(), pair).is_zero()
        assert hochschild_delta(o.theta_A, pair).is_zero()
        assert (hochschild_delta(o.theta1, pair)
                - leibniz_delta(o.theta_A, pair)).is_zero()
        assert (hochschild_delta(o.theta2, pair)
                + leibniz_delta(o.theta1, pair)).is_zero()
        assert (vertical_delta(o.theta_L, pair)
                - leibniz_delta(o.theta2, pair)).is_zero()


# --------------------------------------------------------------------------
# criterion 6: order-by-order extension and the cross-term identity
# --------------------------------------------------------------------------

def test_criterion_6_extension_to_order_4(heis_entry, dual_entry):
    featured = [dual_entry.featured_deformations["alpha1"]]
    featured += [heis_entry.featured_deformations[k]
                 for k in ("phi1", "phi2", "phi3")]
    for d in featured:
        pair = d.pair
        chain = [d]
        while chain[-1].order < 4:
            cur = chain[-1]
            n = cur.order + 1
            rhs = Cochain.zero(3, 0, pair)
            for i in range(1, n):
                rhs = rhs + gerstenhaber(cur.alphas[i], cur.alphas[n - i], pair)
            assert obstruction(cur).theta_A == F(1, 2) * rhs
            nxt = extend(cur)
            assert nxt is not None and nxt.order == n
            chain.append(nxt)
        for step in chain:
            assert validate_deformation(step).ok


# --------------------------------------------------------------------------
# criterion 7: equivalences shift the infinitesimal by a coboundary
# --------------------------------------------------------------------------

def test_criterion_7_equivalence_shift():
    for name in catalog.names():
        entry = catalog.get(name)
        pair = entry.pair
        rng = Random(f"c7-{name}")
        for d in entry.featured_deformations.values():
            for _ in range(50):
                e = Equivalence.from_terms(
                    pair,
                    phis=[rand_cochain(rng, pair, 1, 0, density=0.7, span=5)
                          for _ in range(2)],
                    psis=[rand_cochain(rng, pair, 0, 1, density=0.7, span=5)
                          for _ in range(2)])
                moved = apply_equivalence(d, e)
                shift = moved.coefficient(1) - d.coefficient(1)
                first = TotalCochain(1, (e.phis[0], e.psis[0]))
                assert shift == total_delta(first, pair)


# --------------------------------------------------------------------------
# criterion 8: agreement with standalone single-complex oracles
# --------------------------------------------------------------------------

def test_criterion_8_single_complex_oracles(all_pairs):
    kept = {}
    for name, pair in all_pairs:
        dA, dL = pair.A.dim, pair.L.dim
        mul = pair.A.mul.tolist()
        br = pair.L.bracket.tolist()
        # the q = 0 row with adjoint coefficients is the classical complex
        # on the nose (for p >= 1; the p = 0 corner of the bicomplex is
        # Hom(k, L), which the classical complex does not have)
        for p in (1, 2, 3):
            engine = row_delta_matrix(p, pair)
            rows = oracles.hochschild_matrix(p, mul, mul, mul, dA)
            assert engine.rows == len(rows)
            assert engine.cols == (len(rows[0]) if rows else 0)
            for er, orow in zip(engine.entries, rows):
                assert list(er) == orow
        # the p = 0 column matches up to the global unit (-1)^(q+1) per
        # degree, which changes no ranks and no cohomology (for the pair
        # with a zero bracket part both sides are 0 x 0 in every degree)
        for q in (0, 1, 2, 3):
            engine = column_delta_matrix(q, pair)
            rows = oracles.leibniz_matrix(q, br, br, br, dL)
            assert engine.rows == len(rows)
            assert engine.cols == (len(rows[0]) if rows else 0)
            scale = F(-1) ** (q + 1)
            for er, orow in zip(engine.entries, rows):
                assert list(er) == [scale * x for x in orow]
            if name == "heisenberg":
                kept[q] = rows
        if name == "heisenberg":
            kept["h1"] = oracles.hochschild_matrix(1, mul, mul, mul, dA)
            kept["h2"] = oracles.hochschild_matrix(2, mul, mul, mul, dA)
    # dimension cross-checks computed entirely inside the oracle
    assert oracles.complex_cohomology_dim(kept[2], kept[1], 27) == 8
    assert oracles.complex_cohomology_dim(kept["h2"], kept["h1"], 27) == 2


# --------------------------------------------------------------------------
# criterion 9: the CLI against the library, plus the exit-code contract
# --------------------------------------------------------------------------

def _cli(*argv):
    return subprocess.run([sys.executable, "-m", "cpair", *argv],
                          capture_output=True, text=True)


def test_criterion_9_cli_end_to_end(tmp_path, heis_entry, dual_entry,
                                    all_pairs):
    # exporting each entry and re-parsing reproduces the pair exactly
    for name, pair in all_pairs:
        proc = _cli("catalog", "export", name)
        assert proc.returncode == 0
        parsed, _ = documents.pair_from_document(json.loads(proc.stdout))
        assert documents.same_structure(parsed, pair)
        (tmp_path / f"{name}.json").write_text(proc.stdout, encoding="utf-8")
    heis_file = str(tmp_path / "heisenberg.json")

    # featured deformation documents, exported through the CLI
    featured = [("heisenberg", k, heis_entry.featured_deformations[k])
                for k in ("phi1", "phi2", "phi3")]
    featured.append(("dual_numbers_line", "alpha1",
                     dual_entry.featured_deformations["alpha1"]))
    files = {}
    for pname, dname, d in featured:
        proc = _cli("catalog", "export", pname, "--deformation", dname)
        assert proc.returncode == 0
        path = tmp_path / f"{pname}_{dname}.json"
        path.write_text(proc.stdout, encoding="utf-8")
        files[dname] = str(path)

    # the featured-classes content, through the CLI
    proc = _cli("cohomology", heis_file, "--degree", "2", "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["cohomology_dim"] == total_complex(
        heis_entry.pair).cohomology_dim(2) == 6
    for pname, dname, d in featured:
        proc = _cli("deform", files[dname], "validate", "--json")
        assert proc.returncode == 0 and json.loads(proc.stdout)["ok"] is True
        proc = _cli("deform", files[dname], "infinitesimal", "--json")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["first_nonzero_order"] == 1
        assert payload["is_cocycle"] is True
        assert payload["components"] == _total_json(infinitesimal(d))
    for a, b in itertools.combinations(("phi1", "phi2", "phi3"), 2):
        proc = _cli("deform", files[a], "equivalent", files[b])
        assert proc.returncode == 1
        assert "non-equivalent at order 1" in proc.stdout

    # the obstruction content: closed, and exact for the featured four
    for pname, dname, d in featured:
        proc = _cli("deform", files[dname], "obstruction", "--json")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["cocycle"] is True and payload["extendable"] is True
        assert payload["components"] == _total_json(obstruction(d).total())

    # the extension content: the CLI steps equal the library's solutions
    for pname, dname, d in featured:
        proc = _cli("deform", files[dname], "extend", "--to", "4", "--json")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["ok"] is True
        assert [s["order"] for s in payload["steps"]] == [2, 3, 4]
        cur = d
        for step in payload["steps"]:
            cur = extend(cur)
            assert step["top"] == _total_json(cur.coefficient(cur.order))

    # exit-code contract on corrupted inputs
    doc = json.loads((tmp_path / "heisenberg.json").read_text(encoding="utf-8"))
    broken_law = dict(doc, assoc=dict(doc["assoc"]))
    broken_law["assoc"]["table"] = doc["assoc"]["table"] + [[1, 2, ["1", "0", "0"]]]
    p1 = tmp_path / "broken_law.json"
    p1.write_text(json.dumps(broken_law), encoding="utf-8")
    proc = _cli("validate", str(p1))
    assert proc.returncode == 1 and "FAIL" in proc.stdout

    p2 = tmp_path / "decimal.json"
    p2.write_text((tmp_path / "heisenberg.json")
                  .read_text(encoding="utf-8").replace('"1"', "0.5", 1),
                  encoding="utf-8")
    assert _cli("validate", str(p2)).returncode == 2

    bad_index = dict(doc, leibniz=dict(doc["leibniz"]))
    bad_index["leibniz"]["table"] = doc["leibniz"]["table"] + [[0, 9, ["1", "0", "0"]]]
    p3 = tmp_path / "bad_index.json"
    p3.write_text(json.dumps(bad_index), encoding="utf-8")
    assert _cli("validate", str(p3)).returncode == 2
