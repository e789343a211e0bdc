"""Command-line front end.

    cpair validate FILE [--json]
    cpair cohomology FILE --degree N [--column total|leibniz|hochschild]
                          [--classes] [--force] [--json]
    cpair deform FILE {validate | infinitesimal | obstruction |
                       extend --to K | equivalent OTHER} [--json]
    cpair catalog list
    cpair catalog export NAME [--deformation NAME]

Exit codes are a stable contract: 0 = pass, 1 = mathematical failure (a law
fails, deformations are non-equivalent, an obstruction class does not
vanish), 2 = input error (unreadable or malformed document, unknown catalog
name, degree above the cap without --force), 3 = internal error (a
consistency check inside cpair failed; this is a bug, not a property of
the input).  ``cohomology`` validates the pair (and module) first and exits
1, naming the failing law, when it is not a Courant pair.

With --json every report is mirrored as a single JSON object on stdout; all
rationals appear as exact strings.  Cochain entries are listed bracket
arguments first, then algebra arguments, then the coefficient vector — the
same convention deformation documents use.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import catalog, documents
from .cohomology import axis_rank, total_complex
from .deformations import (extend_to, n_infinitesimal, obstruction,
                           validate_deformation,
                           equivalent_infinitesimals_differ_by_coboundary)
from .errors import (InputError, InternalError, InvalidDeformation,
                     NoInfinitesimalError)
from .structures import validate_module, validate_pair

DEFAULT_DEGREE_CAP = 3


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------

def _fmt_vec(vec, labels) -> str:
    parts = []
    for i, c in enumerate(vec):
        if not c:
            continue
        lab = labels[i]
        if c == 1:
            term = lab
        elif c == -1:
            term = f"-{lab}"
        else:
            term = f"{c}*{lab}"
        if not parts:
            parts.append(term)
        elif term.startswith("-"):
            parts.append(f"- {term[1:]}")
        else:
            parts.append(f"+ {term}")
    return " ".join(parts) if parts else "0"


def _value_labels(p, pair, module):
    if module is None:
        return pair.A.basis_labels if p > 0 else pair.L.basis_labels
    if p > 0:
        return tuple(f"m{i}" for i in range(module.M_dim))
    return tuple(f"p{i}" for i in range(module.P_dim))


def _component_lines(c, pair, module, name):
    """Human lines ``name(x...; a...) = value`` for the nonzero entries."""
    vlabels = _value_labels(c.p, pair, module)
    A, L = pair.A.basis_labels, pair.L.basis_labels
    lines = []
    lead = c.coeffs.shape[:-1]
    for key in (np.ndindex(*lead) if lead else iter([()])):
        vec = c.coeffs[key]
        if not any(vec):
            continue
        xs = [L[k] for k in key[c.p:]]
        bs = [A[k] for k in key[:c.p]]
        if xs and bs:
            args = f"{', '.join(xs)}; {', '.join(bs)}"
        else:
            args = ", ".join(xs or bs)
        lines.append(f"{name}({args}) = {_fmt_vec(vec, vlabels)}")
    return lines


def _component_json(c):
    """{"p", "q", "entries"} with keys reordered bracket-arguments-first."""
    if c.p and c.q:
        axes = tuple(range(c.p, c.p + c.q)) + tuple(range(c.p)) + (c.p + c.q,)
        arr = np.transpose(c.coeffs, axes)
    else:
        arr = c.coeffs
    return {"p": c.p, "q": c.q, "entries": documents.table_of(arr)}


def _total_json(tc):
    return [_component_json(c) for c in tc.components]


def _total_lines(tc, pair, module, names=None):
    lines = []
    for c in tc.components:
        name = (names or {}).get((c.p, c.q), f"c[{c.p},{c.q}]")
        lines.append(f"({c.p},{c.q}) component:")
        body = _component_lines(c, pair, module, f"  {name}")
        lines.extend(body if body else ["  (zero)"])
    return lines


def _emit(args, human_lines, payload):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def _report_payload(kind, report):
    return {"command": "validate", "kind": kind, "ok": report.ok,
            "checks": [{"name": c.name, "ok": c.ok, "witness": c.witness}
                       for c in report.checks]}


def _pair_report(pair, module):
    report = validate_pair(pair)
    if module is not None:
        report = type(report)(report.checks + validate_module(pair, module).checks)
    return report


def cmd_validate(args) -> int:
    doc = documents.load_file(args.file)
    if documents.is_deformation_document(doc):
        d = documents.deformation_from_document(doc)
        report = validate_deformation(d)
        kind = "deformation"
    else:
        report = _pair_report(*documents.pair_from_document(doc))
        kind = "pair"
    lines = [str(c) for c in report.checks]
    lines.append(f"{kind} {'valid' if report.ok else 'INVALID'}")
    _emit(args, lines, _report_payload(kind, report))
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# cohomology
# ---------------------------------------------------------------------------

def _degree_cap() -> int:
    raw = os.environ.get("CPAIR_DEGREE_CAP")
    if raw is None:
        return DEFAULT_DEGREE_CAP
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"CPAIR_DEGREE_CAP={raw!r} is not an integer") from None


def _space_dim(column, n, pair, module):
    """dim C^n for the requested column, by counting (no assembly)."""
    if n < 0:
        return 0
    dA, dL = pair.A.dim, pair.L.dim
    mdim = module.M_dim if module is not None else dA
    pdim = module.P_dim if module is not None else dL
    if column == "leibniz":
        return pdim * dL ** n
    if column == "hochschild":
        return pdim if n == 0 else mdim * dA ** n
    return sum((pdim if p == 0 else mdim) * dA ** p * dL ** (n - p)
               for p in range(n + 1))


def cmd_cohomology(args) -> int:
    doc = documents.load_file(args.file)
    if documents.is_deformation_document(doc):
        raise InputError("cohomology expects a pair document, "
                         "not a deformation document")
    pair, module = documents.pair_from_document(doc)
    n = args.degree
    if n < 0:
        raise InputError("--degree must be nonnegative")
    if args.classes and args.column != "total":
        raise InputError("--classes is only available for the total complex")
    cap = _degree_cap()
    if n > cap and not args.force:
        rows = _space_dim(args.column, n + 1, pair, module)
        cols = _space_dim(args.column, n, pair, module)
        raise InputError(
            f"degree {n} exceeds the cap ({cap}); the outgoing differential "
            f"is a {rows} x {cols} matrix over Q ({rows * cols} entries). "
            f"Pass --force or raise CPAIR_DEGREE_CAP to proceed")
    report = _pair_report(pair, module)
    if not report.ok:
        failed = "; ".join(str(c) for c in report.checks if not c.ok)
        print(f"error: not a Courant pair: {failed}", file=sys.stderr)
        return 1

    classes = None
    if args.column == "total":
        tc = total_complex(pair, module)
        dim = tc.dim(n)
        rank_out = tc.rank(n)
        rank_in = tc.rank(n - 1)
        if args.classes:
            classes = tc.representatives(n)
    else:
        dim = _space_dim(args.column, n, pair, module)
        rank_out = axis_rank(args.column, n, pair, module)
        rank_in = axis_rank(args.column, n - 1, pair, module) if n else 0
    ker = dim - rank_out
    hl = ker - rank_in

    lines = [
        f"column: {args.column}",
        f"dim C^{n} = {dim}",
        f"dim ker d^{n} = {ker}",
        f"rank d^{n - 1} = {rank_in}",
        f"dim H^{n} = {hl}",
    ]
    payload = {"command": "cohomology", "column": args.column, "degree": n,
               "dim": dim, "kernel_dim": ker, "rank_in": rank_in,
               "rank_out": rank_out, "cohomology_dim": hl}
    if classes is not None:
        payload["classes"] = [_total_json(r) for r in classes]
        lines.append(f"classes ({len(classes)} independent representatives):")
        for k, rep in enumerate(classes):
            lines.append(f"class {k}:")
            lines.extend("  " + s for s in _total_lines(rep, pair, module))
    _emit(args, lines, payload)
    return 0


# ---------------------------------------------------------------------------
# deform
# ---------------------------------------------------------------------------

_DEGREE2 = {(2, 0): "alpha", (1, 1): "mu", (0, 2): "lambda"}
_DEGREE3 = {(3, 0): "theta_A", (2, 1): "theta_mu",
            (1, 2): "theta_anchor", (0, 3): "theta_L"}
_DEGREE1 = {(1, 0): "phi", (0, 1): "psi"}


def _deform_validate(d, args) -> int:
    report = validate_deformation(d)
    lines = [str(c) for c in report.checks]
    lines.append(f"deformation {'valid' if report.ok else 'INVALID'} "
                 f"(order {d.order})")
    payload = _report_payload("deformation", report)
    payload["order"] = d.order
    _emit(args, lines, payload)
    return 0 if report.ok else 1


def _deform_infinitesimal(d, args) -> int:
    n, c = n_infinitesimal(d)
    cocycle = total_complex(d.pair).is_cocycle(c)
    lines = [f"first nonzero coefficient at order {n}",
             f"cocycle: {str(cocycle).lower()}"]
    lines.extend(_total_lines(c, d.pair, None, _DEGREE2))
    payload = {"command": "deform", "subcommand": "infinitesimal",
               "first_nonzero_order": n, "is_cocycle": cocycle,
               "components": _total_json(c)}
    _emit(args, lines, payload)
    return 0


def _deform_obstruction(d, args) -> int:
    theta = obstruction(d)
    total = theta.total()
    vanishes = theta.is_zero()
    tc = total_complex(d.pair)
    extendable = vanishes or tc.is_coboundary(total) is not None
    lines = [f"obstruction at order {d.order + 1}:",
             "cocycle: true",
             f"vanishes identically: {str(vanishes).lower()}",
             f"vanishes in cohomology (extendable): {str(extendable).lower()}"]
    lines.extend(_total_lines(total, d.pair, None, _DEGREE3))
    payload = {"command": "deform", "subcommand": "obstruction",
               "order": d.order + 1, "cocycle": True, "vanishes": vanishes,
               "extendable": extendable, "components": _total_json(total)}
    _emit(args, lines, payload)
    return 0 if extendable else 1


def _deform_extend(d, args) -> int:
    if args.to is None:
        raise InputError("extend requires --to K")
    if args.to <= d.order:
        raise InputError(f"--to must exceed the current order ({d.order})")
    # extend_to checks every new order and raises InternalError if one fails
    reached, stop = extend_to(d, args.to)
    steps, lines = [], []
    for order in range(d.order + 1, reached.order + 1):
        top = reached.coefficient(order)
        steps.append({"order": order,
                      "top_is_zero": top.is_zero(),
                      "top": _total_json(top)})
        lines.append(f"order {order}: extended "
                     f"({'zero' if top.is_zero() else 'nonzero'} top coefficient)")
    payload = {"command": "deform", "subcommand": "extend",
               "from_order": d.order, "to": args.to, "ok": stop is None,
               "steps": steps}
    if stop is None:
        lines.append(f"extended to order {reached.order}; "
                     f"deformation equations hold at every order: true")
    else:
        theta = stop.total()
        lines.append(f"obstruction class at order {reached.order + 1} does "
                     f"not vanish; extension stops.  Class representative:")
        lines.extend(_total_lines(theta, d.pair, None, _DEGREE3))
        payload.update(stopped_at=reached.order + 1,
                       obstruction=_total_json(theta))
    _emit(args, lines, payload)
    return 0 if stop is None else 1


def _deform_equivalent(d, args) -> int:
    if args.other is None:
        raise InputError("equivalent requires a second deformation file")
    doc2 = documents.load_file(args.other)
    if not documents.is_deformation_document(doc2):
        raise InputError(f"{args.other}: expected a deformation document")
    ref = doc2.get("pair")
    if isinstance(ref, str):
        d2 = documents.deformation_from_document(doc2)
        if d2.pair is not d.pair and not documents.same_structure(d2.pair, d.pair):
            raise InputError("the two deformations live over different pairs")
        if d2.pair is not d.pair:
            d2 = documents.deformation_from_document(doc2, pair=d.pair)
    else:
        pair2, _ = documents.pair_from_document(ref, "document.pair")
        if not documents.same_structure(d.pair, pair2):
            raise InputError("the two deformations live over different pairs")
        d2 = documents.deformation_from_document(doc2, pair=d.pair)
    witness = equivalent_infinitesimals_differ_by_coboundary(d, d2)
    if witness is None:
        _emit(args, ["non-equivalent at order 1"],
              {"command": "deform", "subcommand": "equivalent",
               "equivalent_at_order_1": False, "witness": None})
        return 1
    lines = ["equivalent at order 1; witness (phi_1, psi_1):"]
    lines.extend(_total_lines(witness, d.pair, None, _DEGREE1))
    _emit(args, lines,
          {"command": "deform", "subcommand": "equivalent",
           "equivalent_at_order_1": True, "witness": _total_json(witness)})
    return 0


def cmd_deform(args) -> int:
    doc = documents.load_file(args.file)
    if not documents.is_deformation_document(doc):
        raise InputError(f"{args.file}: expected a deformation document "
                         f"(with an 'order' or 'coefficients' field)")
    d = documents.deformation_from_document(doc)
    handler = {"validate": _deform_validate,
               "infinitesimal": _deform_infinitesimal,
               "obstruction": _deform_obstruction,
               "extend": _deform_extend,
               "equivalent": _deform_equivalent}[args.subcommand]
    return handler(d, args)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def cmd_catalog(args) -> int:
    if args.catalog_command == "list":
        lines = []
        payload = []
        for name in catalog.names():
            entry = catalog.get(name)
            defs = sorted(entry.featured_deformations)
            lines.append(f"{name}  (dim A = {entry.pair.A.dim}, "
                         f"dim L = {entry.pair.L.dim}"
                         + (f"; deformations: {', '.join(defs)}" if defs else "")
                         + ")")
            lines.append(f"  {entry.notes}")
            payload.append({"name": name, "dim_A": entry.pair.A.dim,
                            "dim_L": entry.pair.L.dim, "deformations": defs,
                            "notes": entry.notes})
        _emit(args, lines, {"command": "catalog", "entries": payload})
        return 0
    # export
    entry = catalog.get(args.name)
    if args.deformation is not None:
        defs = entry.featured_deformations
        if args.deformation not in defs:
            known = ", ".join(sorted(defs)) or "none"
            raise InputError(f"{args.name} has no deformation "
                             f"{args.deformation!r} (known: {known})")
        doc = documents.deformation_to_document(defs[args.deformation],
                                                pair_ref=args.name)
    else:
        doc = documents.pair_to_document(entry.pair)
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cpair",
        description="Exact cohomology and deformation theory of Courant pairs")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check the defining laws of a "
                       "pair or deformation document")
    v.add_argument("file")
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_validate)

    c = sub.add_parser("cohomology", help="dimensions, kernels and classes "
                       "of the differential at one degree")
    c.add_argument("file")
    c.add_argument("--degree", type=int, required=True)
    c.add_argument("--column", choices=("total", "leibniz", "hochschild"),
                   default="total")
    c.add_argument("--classes", action="store_true",
                   help="list cohomology class representatives")
    c.add_argument("--force", action="store_true",
                   help="compute above the degree cap")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_cohomology)

    d = sub.add_parser("deform", help="deformation-theory subcommands")
    d.add_argument("file")
    d.add_argument("subcommand", choices=("validate", "infinitesimal",
                                          "obstruction", "extend",
                                          "equivalent"))
    d.add_argument("other", nargs="?", default=None,
                   help="second deformation file (for 'equivalent')")
    d.add_argument("--to", type=int, default=None,
                   help="target order (for 'extend')")
    d.add_argument("--json", action="store_true")
    d.set_defaults(func=cmd_deform)

    g = sub.add_parser("catalog", help="built-in worked examples")
    gsub = g.add_subparsers(dest="catalog_command", required=True)
    gl = gsub.add_parser("list")
    gl.add_argument("--json", action="store_true")
    gl.set_defaults(func=cmd_catalog)
    ge = gsub.add_parser("export")
    ge.add_argument("name")
    ge.add_argument("--deformation", default=None,
                    help="export this featured deformation instead of the pair")
    ge.add_argument("--json", action="store_true")
    ge.set_defaults(func=cmd_catalog)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvalidDeformation, NoInfinitesimalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
