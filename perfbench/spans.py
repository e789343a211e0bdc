"""Layer spans for the traced run, installed by patching cpair at runtime.

Consumers bind names at import (``from .linalg import solve``), so each
layer function is wrapped under every module name it is called through, and
``TotalComplex``/``SpanTracker`` methods are wrapped on the class.  Nothing
is patched unless ``Tracer.install`` runs, so untraced runs measure the
program as shipped.

A span's self time is its duration minus the time of its direct child
spans; the self times of all spans, the ``cli.self`` root span around the
whole ``cli.main`` call included, add up to the op time.
Targets that do not exist are skipped, so the benchmark still runs when a
layer function is renamed or removed.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter

#: span name -> "module:attribute" targets that belong to it.
SPANS = {
    "linalg.rank": ("cpair.linalg:rank_rows", "cpair.linalg:rank",
                    "cpair.cohomology:rank_rows", "cpair.cli:rank"),
    "linalg.kernel": ("cpair.linalg:nullspace_basis",
                      "cpair.cohomology:nullspace_basis"),
    "linalg.solve": ("cpair.linalg:solve", "cpair.cohomology:solve",
                     "cpair.deformations:solve", "cpair.catalog:solve"),
    "linalg.span": ("cpair.linalg:SpanTracker.add",
                    "cpair.linalg:SpanTracker.contains"),
    "cohomology.assemble": ("cpair.cohomology:TotalComplex.triplets",),
    "cohomology.dense_build": ("cpair.cohomology:TotalComplex.matrix",),
    "cohomology.other": tuple(
        f"cpair.cohomology:TotalComplex.{m}" for m in
        ("rank", "kernel", "representatives", "columns", "apply_flat",
         "is_cocycle", "is_coboundary")),
    "cochains.total_delta": ("cpair.cochains:total_delta",
                             "cpair.cohomology:total_delta",
                             "cpair.deformations:total_delta"),
    "deformations.validate": ("cpair.deformations:validate_deformation",
                              "cpair.cli:validate_deformation",
                              "cpair.catalog:validate_deformation"),
    "deformations.theta": ("cpair.deformations:obstruction",
                           "cpair.cli:obstruction"),
    "deformations.other": (
        "cpair.deformations:extend", "cpair.cli:extend",
        "cpair.deformations:equivalent_infinitesimals_differ_by_coboundary",
        "cpair.cli:equivalent_infinitesimals_differ_by_coboundary"),
    "catalog.build": ("cpair.catalog:get",),
    "documents.parse": ("cpair.documents:load_file",
                        "cpair.documents:pair_from_document",
                        "cpair.documents:deformation_from_document"),
}


def _resolve(target):
    """(owner object, attribute name) for "module:Attr.path", or None."""
    mod_name, path = target.split(":")
    owner = importlib.import_module(mod_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(owner.__dict__.get(attr) if isinstance(owner, type)
                    else getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Self time and call counts per span, plus per-layer work counters."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._stack = []  # [span name, time covered by direct children]
        self._patches = []
        self._seen = set()  # (kind, id(complex), degree) counted this op

    # -- spans ---------------------------------------------------------------

    def run(self, name, fn, *args):
        """Call fn(*args) inside a span; the span's self time is recorded."""
        outer = any(entry[0] == name for entry in self._stack)
        entry = [name, 0.0]
        self._stack.append(entry)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            dt = perf_counter() - t0
            self._stack.pop()
            self.self_s[name] += dt - entry[1]
            if not outer:
                self.calls[name] += 1
            if self._stack:
                self._stack[-1][1] += dt

    def _wrap(self, name, fn, target):
        after = self._counters.get(target.split(":")[1])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.run(name, lambda: fn(*args, **kwargs))
            if after is not None:
                after(args, result)
            return result
        return wrapper

    # -- work counters -------------------------------------------------------

    def _first_build(self, kind, args):
        """Whether (complex, degree) in args is new this op; results are
        cached on the complex, so only the first call builds."""
        key = (kind, id(args[0]), args[1])
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    def _count_nnz(self, args, trips):
        if self._first_build("trips", args):
            self.counts["cohomology.nnz"] += len(trips)

    def _count_cells(self, args, m):
        if self._first_build("dense", args):
            self.counts["cohomology.dense_cells"] += m.rows * m.cols

    def _count_span_add(self, args, accepted):
        self.counts["linalg.span.adds"] += 1
        self.counts["linalg.span.accepted"] += bool(accepted)

    @property
    def _counters(self):
        return {"TotalComplex.triplets": self._count_nnz,
                "TotalComplex.matrix": self._count_cells,
                "SpanTracker.add": self._count_span_add}

    def new_op(self):
        """Forget which matrices were built; the next op builds its own.

        Also needed because ``id`` values are reused once a complex is freed.
        """
        self._seen.clear()

    # -- patching ------------------------------------------------------------

    def install(self):
        for name, targets in SPANS.items():
            for target in targets:
                found = _resolve(target)
                if found is None:
                    continue
                owner, attr = found
                original = (owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr))
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, target))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
