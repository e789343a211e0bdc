"""Correctness gate: checks each op's outcome against pinned invariants.

Only invariants are pinned and hashed: dimensions, ranks, exit codes,
whether an extension gets past order 2 (and, for the featured deformations,
that it reaches order 4), and equivalence verdicts.  Class
representatives, extension coefficients and equivalence witnesses are not
canonical, so they are checked by property:

* the number of classes is dim H, each class is a cocycle, and the classes
  are independent modulo the coboundary image;
* every extension validates;
* delta(witness) = inf(d1) - inf(d2).

Class checks apply the assembled differential (``TotalComplex.columns``)
with the benchmark's own sparse product and rank mod a prime; the other
checks use the direct evaluator ``cochains.total_delta``.  Neither goes
through the elimination code the commands use.  A failed check raises
``GateError``.
"""

from __future__ import annotations

import json

import exact

#: (pair, degree) -> (dim C^n, rank d^(n-1), rank d^n, dim H^n) on seed code.
PINNED_COHOMOLOGY = {
    ("dual_numbers_line", 0): (0, 0, 0, 0),
    ("dual_numbers_line", 1): (4, 0, 3, 1),
    ("dual_numbers_line", 2): (8, 3, 4, 1),
    ("dual_numbers_line", 3): (16, 4, 11, 1),
    ("dual_numbers_line", 4): (32, 11, 20, 1),
    ("dual_numbers_line", 5): (64, 20, 43, 1),
    ("dual_numbers_line", 6): (128, 43, 84, 1),
    ("heisenberg", 0): (3, 0, 2, 1),
    ("heisenberg", 1): (18, 2, 13, 3),
    ("heisenberg", 2): (81, 13, 62, 6),
    ("heisenberg", 3): (324, 62, 249, 13),
    ("heisenberg", 4): (1215, 249, 938, 28),
    ("heisenberg", 5): (4374, 938, 3376, 60),
    ("hemisemidirect_demo", 0): (5, 0, 2, 3),
    ("hemisemidirect_demo", 1): (34, 2, 29, 3),
    ("hemisemidirect_demo", 2): (197, 29, 160, 8),
    ("hemisemidirect_demo", 3): (1066, 160, 890, 16),
}

#: Featured deformations extend to order 4 with exit 0.
PINNED_FEATURED_REACH = 4


class GateError(Exception):
    """An op's outcome contradicts a pinned invariant or a property."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise GateError(what)


class Gate:
    """Checks op outcomes against the documents in ``workdir``, which it
    parses with cpair (outside the timed region)."""

    def __init__(self, workdir):
        self.workdir = workdir

    def _load(self, name):
        from cpair import documents
        return documents.load_file(self.workdir / name)

    def pair_of(self, name):
        from cpair import documents
        return documents.pair_from_document(self._load(name))[0]

    def deformation_of(self, name):
        from cpair import documents
        return documents.deformation_from_document(self._load(name))

    @staticmethod
    def _total(entries, pair):
        """A TotalCochain from the CLI's ``--json`` component list."""
        from cpair.cochains import Cochain, TotalCochain
        dA, dL = pair.A.dim, pair.L.dim
        comps = [Cochain(e["p"], e["q"], exact.component_tensor(
            e, dA, dL, dA if e["p"] else dL)) for e in entries]
        return TotalCochain(len(comps) - 1, tuple(comps))

    # -- invariants ----------------------------------------------------------

    def invariants(self, op, rc: int, out: str):
        """The pinned-kind facts of one outcome (what the results hash covers),
        after checking them.  Cheap; runs on every op of every pass."""
        _require(rc in (0, 1), f"exit code {rc}")
        payload = json.loads(out)
        kind = op["kind"]
        if kind in ("cohomology", "classes"):
            _require(rc == 0, f"exit code {rc}")
            got = (payload["dim"], payload["rank_in"], payload["rank_out"],
                   payload["cohomology_dim"])
            want = PINNED_COHOMOLOGY[(op["pair"], op["degree"])]
            _require(got == want, f"(dim, rank_in, rank_out, dim H) = {got}, "
                                  f"pinned {want}")
            _require(payload["kernel_dim"] == got[0] - got[2], "kernel_dim")
            facts = list(got)
        elif kind == "validate":
            _require(rc == 0 and payload["ok"] and payload["order"] == 1,
                     "generated deformation reported invalid")
            facts = [True]
        elif kind == "obstruction":
            _require(payload["extendable"] == op["extendable"],
                     f"extendable = {payload['extendable']}, "
                     f"pinned {op['extendable']}")
            _require(rc == (0 if op["extendable"] else 1), f"exit code {rc}")
            _require(payload["order"] == 2 and payload["cocycle"], "header")
            facts = [payload["extendable"], payload["vanishes"]]
        elif kind == "extend":
            reached = payload["steps"][-1]["order"] if payload["steps"] else 1
            if not op["extendable"]:
                _require(rc == 1 and payload.get("stopped_at") == 2,
                         "an obstructed deformation must stop at order 2")
            else:
                _require(reached >= 2, "an extendable deformation must reach "
                                       "order 2")
                _require(rc == (0 if reached == 4 else 1), f"exit code {rc}")
                if rc == 1:
                    _require(payload["stopped_at"] == reached + 1, "stopped_at")
            if op["featured"]:
                _require(rc == 0 and reached == PINNED_FEATURED_REACH,
                         f"featured deformation reached order {reached}")
            # how far past order 2 a non-featured extension gets depends on
            # which solution each step picks, so only "past order 2" is pinned
            facts = [reached >= 2, reached if op["featured"] else None]
        elif kind == "equivalent":
            _require(rc == 0 and payload["equivalent_at_order_1"],
                     "a deformation and its moved copy must be equivalent")
            facts = [True]
        else:
            raise GateError(f"unknown op kind {kind!r}")
        return {"op": [kind, op["pair"], op.get("degree", op.get("label"))],
                "exit": rc, "facts": facts}

    # -- properties ----------------------------------------------------------

    def properties(self, op, out: str) -> None:
        """The non-canonical parts, checked by property.  Runs once per op."""
        payload = json.loads(out)
        kind = op["kind"]
        if kind == "classes":
            self._check_classes(op, payload)
        elif kind == "obstruction":
            self._check_obstruction(op, payload)
        elif kind == "extend":
            self._check_extension(op, payload)
        elif kind == "equivalent":
            self._check_witness(op, payload)

    def _check_classes(self, op, payload):
        from cpair.cohomology import total_complex
        pair = self.pair_of(op["argv"][1])
        n = op["degree"]
        _, rank_in, _, h = PINNED_COHOMOLOGY[(op["pair"], n)]
        _require(len(payload["classes"]) == h,
                 f"{len(payload['classes'])} classes, dim H = {h}")
        classes = [exact.flat(comp.coeffs for comp in
                              self._total(c, pair).components)
                   for c in payload["classes"]]
        tc = total_complex(pair)
        for k, v in enumerate(classes):
            _require(not exact.apply(tc.columns(n), v),
                     f"class {k} is not a cocycle")
        image = tc.columns(n - 1) if n > 0 else []
        # rank mod p <= rank over Q <= rank_in + h, so equality certifies
        # that the classes are independent modulo the image
        _require(exact.rank_mod_p(list(image) + classes) == rank_in + h,
                 "classes are dependent modulo the coboundary image")

    def _check_obstruction(self, op, payload):
        from cpair.cochains import total_delta
        pair = self.deformation_of(op["doc"]).pair
        theta = self._total(payload["components"], pair)
        _require(total_delta(theta, pair).is_zero(), "obstruction not closed")
        _require(payload["vanishes"] == theta.is_zero(), "vanishes flag")

    def _check_extension(self, op, payload):
        from cpair import documents
        from cpair.deformations import validate_deformation
        doc = self._load(op["doc"])
        doc = dict(doc, coefficients=dict(doc.get("coefficients", {})))
        names = {(2, 0): "alpha", (1, 1): "mu", (0, 2): "lambda"}
        for step in payload["steps"]:
            doc["coefficients"][str(step["order"])] = {
                names[(c["p"], c["q"])]: c["entries"] for c in step["top"]}
            doc["order"] = step["order"]
        d = documents.deformation_from_document(doc)
        _require(validate_deformation(d).ok,
                 f"extension to order {d.order} does not validate")

    def _check_witness(self, op, payload):
        from cpair.cochains import total_delta
        d1 = self.deformation_of(op["doc"])
        d2 = self.deformation_of(op["other"])
        w = self._total(payload["witness"], d1.pair)
        _require(total_delta(w, d1.pair) == d1.coefficient(1) - d2.coefficient(1),
                 "delta(witness) != inf(d1) - inf(d2)")
