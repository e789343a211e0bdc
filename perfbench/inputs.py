"""Seeded input generator: writes one workload's documents and op list.

    python3 perfbench/inputs.py --workload NAME --seed N --out DIR

Everything written depends only on the workload and the seed.  The op
list goes to DIR/manifest.json; each op is the argv of one CLI call plus
what the correctness gate needs to know about it.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("cohomology", "deform")

#: cohomology: ranks at every degree from 0 to this top degree, per pair.
RANK_TOPS = (("dual_numbers_line", 6), ("heisenberg", 5),
             ("hemisemidirect_demo", 3))

#: cohomology: degrees at which class representatives are listed.
CLASS_DEGREES = (("heisenberg", (2, 3, 4)), ("hemisemidirect_demo", (2, 3)))

#: deform: subsets of the canonical H^2 basis (see ``canonical_h2``) whose
#: random combinations are extendable to order 2, resp. obstructed there.
#: A combination's verdict does not depend on its nonzero coefficients: every
#: class listed is unobstructed alone, so the order-2 obstruction class of
#: r*h_i + s*h_j is r*s times that of h_i + h_j.
EXTENDABLE = {
    "dual_numbers_line": ((0,), (0,)),
    "heisenberg": ((0, 2), (2, 5)),
    "hemisemidirect_demo": ((0, 3),),
}
OBSTRUCTED = {
    "dual_numbers_line": (),
    "heisenberg": ((0, 1), (3, 4)),
    "hemisemidirect_demo": ((1, 2),),
}


#: Pairs whose catalog construction runs elimination (hemisemidirect_demo
#: solves for a basis of Der(A)), so their coordinates could move with a
#: change of pivot order.  Random deformations of these use the frozen copy
#: of the pair, written inline, so the pinned verdicts keep their meaning.
FROZEN_PAIRS = {"hemisemidirect_demo": "hemisemidirect_pair.json"}


def import_cpair():
    """Import cpair from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "cpair" / "__init__.py").is_file():
        raise SystemExit(f"cpair sources not found under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import cpair
    if Path(cpair.__file__).resolve().parent != (src / "cpair").resolve():
        raise SystemExit(f"imported cpair from {cpair.__file__}, not {src}")
    return cpair


def canonical_h2(pair):
    """A basis of H^2 that depends only on the pair, not on pivot choices.

    Degree-2 cocycles are reduced modulo the coboundary image in reduced
    echelon form; the reduced echelon basis of what is left is unique.
    """
    import exact
    from cpair.cohomology import total_complex

    tc = total_complex(pair)
    image = exact.rref(tc.columns(1))
    idx = tc.index(2)
    reps = [exact.reduce_modulo(dict(enumerate(idx.flatten(r))), image)
            for r in tc.representatives(2)]
    basis = exact.rref(reps)
    dim = idx.total_dim
    out = []
    for col in sorted(basis):
        vec = [Fraction(0)] * dim
        for j, x in basis[col].items():
            vec[j] = x
        out.append(idx.unflatten(vec))
    return out


def _shuffle_tables(doc, rng):
    """Reorder the rows of sparse ``[i, j, vector]`` tables.

    Table rows add up, so the document still describes the same structure.
    Dense matrices (a pair's ``mu`` list) keep their order.
    """
    for value in doc.values():
        if isinstance(value, dict):
            _shuffle_tables(value, rng)
    for key in ("table", "alpha", "mu", "lambda"):
        rows = doc.get(key)
        if isinstance(rows, list) and rows and isinstance(rows[0], list) \
                and isinstance(rows[0][0], int):
            rng.shuffle(rows)


def _write(out: Path, name: str, doc) -> str:
    (out / name).write_text(json.dumps(doc, sort_keys=True) + "\n",
                            encoding="utf-8")
    return name


def _pair_docs(out, rng, names):
    from cpair import catalog, documents
    files = {}
    for name in names:
        doc = documents.pair_to_document(catalog.get(name).pair)
        _shuffle_tables(doc, rng)
        files[name] = _write(out, f"pair-{name}.json", doc)
    return files


def _cohomology_ops(out, rng):
    files = _pair_docs(out, rng, [name for name, _ in RANK_TOPS])
    plan = [("cohomology", name, k) for name, top in RANK_TOPS
            for k in range(top + 1)]
    plan += [("classes", name, k) for name, degrees in CLASS_DEGREES
             for k in degrees]
    ops = []
    for kind, name, k in plan:
        argv = ["cohomology", files[name], "--degree", str(k), "--force"]
        if kind == "classes":
            argv.append("--classes")
        ops.append({"kind": kind, "argv": argv + ["--json"], "pair": name,
                    "degree": k})
    return ops


def _rand_small(rng):
    return rng.choice((-3, -2, -1, 1, 2, 3))


def _random_equivalence(pair, rng):
    import numpy as np
    from cpair.cochains import Cochain
    from cpair.deformations import Equivalence

    def rand(shape):
        arr = np.full(shape, Fraction(0), dtype=object)
        flat = arr.reshape(-1)
        for i in range(flat.size):
            if rng.random() < 0.5:
                flat[i] = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
        return arr

    dA, dL = pair.A.dim, pair.L.dim
    return Equivalence.from_terms(pair, [Cochain(1, 0, rand((dA, dA)))],
                                  [Cochain(0, 1, rand((dL, dL)))])


def _deform_ops(out, rng):
    from cpair import catalog, documents
    from cpair.deformations import (Deformation, apply_equivalence,
                                    validate_deformation)

    # (pair, catalog reference or None to inline the pair, label,
    #  deformation, extendable at order 2, featured)
    docs = []
    for name in catalog.names():
        entry = catalog.get(name)
        for label in sorted(entry.featured_deformations):
            docs.append((name, name, label,
                         entry.featured_deformations[label], True, True))
        if not EXTENDABLE.get(name) and not OBSTRUCTED.get(name):
            continue
        pair, ref = entry.pair, name
        if name in FROZEN_PAIRS:
            frozen = Path(__file__).resolve().parent / FROZEN_PAIRS[name]
            pair, _ = documents.pair_from_document(
                documents.loads(frozen.read_text(encoding="utf-8")))
            ref = None
        basis = canonical_h2(pair)
        plan = [(s, True) for s in EXTENDABLE[name]] + \
               [(s, False) for s in OBSTRUCTED[name]]
        for subset, extendable in plan:
            c = sum((_rand_small(rng) * basis[i] for i in subset[1:]),
                    _rand_small(rng) * basis[subset[0]])
            d = Deformation.from_terms(
                pair, {1: (c.component(2), c.component(1), c.component(0))})
            label = "h" + "+h".join(map(str, subset))
            docs.append((name, ref, label, d, extendable, False))

    ops = []
    for k, (name, ref, label, d, extendable, featured) in enumerate(docs):
        moved = apply_equivalence(d, _random_equivalence(d.pair, rng))
        for x in (d, moved):
            if not validate_deformation(x).ok:
                raise SystemExit(f"generated deformation {name}/{label} "
                                 f"does not validate")
        files = []
        for suffix, x in (("", d), ("-moved", moved)):
            doc = documents.deformation_to_document(x, pair_ref=ref)
            _shuffle_tables(doc, rng)
            files.append(_write(out, f"def{k:02d}{suffix}.json", doc))
        meta = {"pair": name, "label": label, "extendable": extendable,
                "featured": featured, "doc": files[0]}
        ops += [dict(meta, kind="validate",
                     argv=["deform", files[0], "validate", "--json"]),
                dict(meta, kind="obstruction",
                     argv=["deform", files[0], "obstruction", "--json"]),
                dict(meta, kind="extend",
                     argv=["deform", files[0], "extend", "--to", "4", "--json"]),
                dict(meta, kind="equivalent", other=files[1],
                     argv=["deform", files[0], "equivalent", files[1],
                           "--json"])]
    return ops


def generate(workload: str, seed: int, out: Path) -> None:
    """Write the documents and DIR/manifest.json for one workload and seed."""
    import_cpair()
    rng = random.Random(f"{workload}:{seed}")
    out.mkdir(parents=True, exist_ok=True)
    ops = (_deform_ops if workload == "deform" else _cohomology_ops)(out, rng)
    rng.shuffle(ops)
    for k, op in enumerate(ops):
        op["id"] = f"{k:02d}:{op['kind']}:{op['pair']}"
    manifest = {"workload": workload, "seed": seed, "ops": ops}
    _write(out, "manifest.json", manifest)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    generate(args.workload, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
