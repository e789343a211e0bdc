"""The cpair benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/cpair`` must exist).  The run
writes its inputs with ``inputs.py`` in fresh subprocesses (timed, before
and after the measurement: that is ``setup_s``), then drives ``cpair.cli.main(argv)`` over the workload's op
list in this process, one op at a time, pass after pass, until the timed op
time reaches S seconds.  Before each op every ``lru_cache`` in cpair is
cleared, as a separate CLI process would start empty, so passes are
independent and memory does not pile up.  Each outcome goes through the
correctness gate (``gate.py``) outside the timed region.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
passes with passes traced through ``spans.py`` and prints the per-layer
metrics.  The last stdout line is the JSON result; the line before it
records the inputs hash, the invariants hash and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402  (benchmark-local modules)
from gate import Gate, GateError  # noqa: E402
from spans import SPANS, Tracer  # noqa: E402

#: Input set-ups before and again after the measurement; setup_s is the
#: median of all of them, so it spans the run's drift in machine speed.
SETUPS = 2

#: Per-layer metrics: layer self times, then work counts.
LAYER_TIMES = tuple(SPANS) + ("cli.self",)
LAYER_CALLS = ("linalg.rank", "linalg.kernel", "linalg.solve",
               "cochains.total_delta", "deformations.validate")
KIND_GROUPS = {"cli.cohomology_s": ("cohomology",),
               "cli.classes_s": ("classes",),
               "cli.extend_s": ("extend",),
               "cli.obstruction_s": ("obstruction",),
               "cli.check_s": ("validate", "equivalent")}


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _hash_dir(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def _set_up(workload, seed, workdir, first=0, count=SETUPS):
    """Generate the inputs count times in fresh processes, into
    workdir/inputs<first>, ...; returns (first dir, times, hashes)."""
    times, hashes = [], []
    for k in range(first, first + count):
        out = workdir / f"inputs{k}"
        t0 = perf_counter()
        subprocess.run([sys.executable, str(HERE / "inputs.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--out", str(out)],
                       check=True, timeout=150, cwd=ROOT)
        times.append(perf_counter() - t0)
        hashes.append(_hash_dir(out))
    return workdir / f"inputs{first}", times, hashes


def _clear_caches():
    """Empty every lru_cache defined in cpair, then collect garbage."""
    for name, mod in list(sys.modules.items()):
        if name != "cpair" and not name.startswith("cpair."):
            continue
        for obj in list(vars(mod).values()):
            if callable(getattr(obj, "cache_clear", None)) \
                    and getattr(obj, "__module__", None) == name:
                obj.cache_clear()
    gc.collect()


class Runner:
    """Runs the op list pass by pass and gates every outcome."""

    def __init__(self, manifest, workdir):
        from cpair import cli
        self.main = cli.main
        self.ops = manifest["ops"]
        self.workdir = workdir
        self.gate = Gate(workdir)
        self.first_out = {}
        self.invariants = {}
        self.attempted = 0
        self.failed = 0
        self.passes = []  # (traced, [seconds per op run], tracer or None)

    def _argv(self, op):
        files = {op["argv"][1]} | ({op["other"]} if "other" in op else set())
        return [str(self.workdir / a) if a in files else a for a in op["argv"]]

    def _call(self, argv, tracer):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                rc = (tracer.run("cli.self", self.main, argv) if tracer
                      else self.main(argv))
            except SystemExit as exc:  # argparse rejects with exit 2
                rc = exc.code
            dt = perf_counter() - t0
        return rc, dt, out.getvalue()

    def run_pass(self, traced: bool, budget: float = None) -> float:
        """Run the op list once; with a budget, stop after the op that uses
        it up.  Returns the timed op seconds of the pass."""
        tracer = Tracer() if traced else None
        if tracer:
            tracer.install()
        times = []
        spent = 0.0
        try:
            for op in self.ops:
                if budget is not None and spent >= budget:
                    break
                _clear_caches()
                if tracer:
                    tracer.new_op()
                self.attempted += 1
                t0 = perf_counter()
                try:
                    rc, dt, out = self._call(self._argv(op), tracer)
                    spent += dt
                    self._check(op, rc, out)
                except Exception as exc:  # a traceback or a gate failure
                    self.failed += 1
                    print(f"perfbench: op {op['id']} failed: {exc!r}",
                          file=sys.stderr)
                    traceback.print_exc(limit=3, file=sys.stderr)
                    spent += perf_counter() - t0
                    dt = float("nan")
                times.append(dt)
        finally:
            if tracer:
                tracer.uninstall()
        self.passes.append((traced, times, tracer))
        return spent

    def _check(self, op, rc, out):
        facts = self.gate.invariants(op, rc, out)
        first = self.first_out.get(op["id"])
        if first is None:
            self.gate.properties(op, out)
            self.first_out[op["id"]] = (rc, out)
            self.invariants[op["id"]] = facts
        elif first != (rc, out):
            raise GateError("output differs from the first pass")

    # -- summaries -----------------------------------------------------------

    def _op_medians(self, traced):
        """Per-op median seconds over the passes of one kind (the last pass
        may be partial, so later ops can have one sample fewer).  Failed
        ops have no time; the run is then reported incorrect anyway."""
        runs = [t for tr, t, _ in self.passes if tr == traced]
        samples = ([t[i] for t in runs if i < len(t) and t[i] == t[i]]
                   for i in range(len(self.ops)))
        return [statistics.median(x) for x in samples if x]

    def wall(self, traced=False):
        return sum(self._op_medians(traced))

    def kind_sums(self):
        med = self._op_medians(False)
        return {name: sum(m for op, m in zip(self.ops, med)
                          if op["kind"] in kinds)
                for name, kinds in KIND_GROUPS.items()}

    def layers(self):
        rows = []
        for traced, times, tr in self.passes:
            if not traced:
                continue
            row = {f"{n}_s": tr.self_s.get(n, 0.0) for n in LAYER_TIMES}
            row.update({f"{n}.calls": tr.calls.get(n, 0) for n in LAYER_CALLS})
            for n in ("cohomology.nnz", "cohomology.dense_cells",
                      "linalg.span.adds"):
                row[n] = tr.counts.get(n, 0)
            adds = tr.counts.get("linalg.span.adds", 0)
            row["linalg.span_accept_ratio"] = (
                tr.counts.get("linalg.span.accepted", 0) / adds if adds else 0.0)
            rows.append(row)
        return {k: statistics.median(r[k] for r in rows) for k in rows[0]}

    def invariants_hash(self):
        records = sorted(json.dumps(v, sort_keys=True)
                         for v in self.invariants.values())
        return hashlib.sha256("\n".join(records).encode()).hexdigest()


def _unit(name):
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="cpair benchmark (one run)")
    ap.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if sys.flags.optimize:
        return _fail("refusing to run under python -O: cpair checks "
                     "theorems with assert, so -O measures another program")
    if not (ROOT / "src" / "cpair" / "__init__.py").is_file():
        return _fail(f"no cpair sources under {ROOT / 'src'}; run from the "
                     f"root of a cpair checkout")

    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        indir, setup_times, hashes = _set_up(args.workload, args.seed, workdir)
        inputs.import_cpair()
        import numpy
        manifest = json.loads((indir / "manifest.json").read_text())
        runner = Runner(manifest, indir)

        measured = 0.0
        while True:
            traced = bool(args.trace) and len(runner.passes) % 2 == 1
            # untraced runs end mid-pass once S seconds are measured;
            # traced runs keep whole passes, so layer sums compare
            budget = (args.seconds - measured
                      if runner.passes and not args.trace else None)
            measured += runner.run_pass(traced, budget)
            kinds = {tr for tr, _, _ in runner.passes}
            if measured >= args.seconds and (not args.trace or len(kinds) == 2):
                break
        _, more_times, more_hashes = _set_up(args.workload, args.seed,
                                             workdir, first=SETUPS)
        setup_times += more_times
        hashes += more_hashes
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = runner.failed == 0 and len(set(hashes)) == 1
    if args.trace:
        values = runner.layers()
        values.update(runner.kind_sums())
        values["trace.overhead_s"] = runner.wall(True) - runner.wall(False)
    else:
        values = {"wall_s": runner.wall(),
                  "setup_s": statistics.median(setup_times),
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024}
    metrics = {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}
    info = {"workload": args.workload, "seed": args.seed,
            "inputs_sha256": hashes[0], "invariants_sha256":
            runner.invariants_hash(), "passes": len(runner.passes),
            "ops_per_pass": len(runner.ops), "setup_samples": setup_times,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "optimize": sys.flags.optimize,
            "nproc": len(os.sched_getaffinity(0))}
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
