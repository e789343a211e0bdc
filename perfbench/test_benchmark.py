"""The benchmark's own checks (about a minute):

    python3 -m pytest -q perfbench/test_benchmark.py

Each named layer must record work on the workload meant to load it, a
traced pass must pass the same gate as an untraced one, and the runner must
refuse ``python -O`` and a directory without the cpair sources.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

#: workload -> spans that must record calls and counters that must be > 0.
LOADS = {
    "cohomology": (("linalg.rank", "cohomology.assemble", "linalg.kernel",
                    "linalg.span", "cohomology.dense_build", "documents.parse",
                    "cli.self"),
                   ("cohomology.nnz", "cohomology.dense_cells",
                    "linalg.span.adds")),
    "deform": (("cochains.total_delta", "deformations.validate",
                "deformations.theta", "deformations.other", "linalg.solve",
                "catalog.build", "documents.parse"), ("cohomology.nnz",)),
}


@pytest.fixture
def workdir():
    path = HERE / ".work" / f"test-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("workload", sorted(LOADS))
def test_each_layer_records_work_where_expected(workload, workdir):
    indir, _, _ = run._set_up(workload, 7, workdir, count=1)
    run.inputs.import_cpair()
    runner = run.Runner(json.loads((indir / "manifest.json").read_text()),
                        indir)
    runner.run_pass(traced=False)
    runner.run_pass(traced=True)
    assert runner.failed == 0
    tracer = runner.passes[-1][2]
    spans, counters = LOADS[workload]
    for name in spans:
        assert tracer.calls[name] > 0, name
        assert tracer.self_s[name] > 0, name
    for name in counters:
        assert tracer.counts[name] > 0, name
    layers = runner.layers()
    assert set(layers) | set(run.KIND_GROUPS) >= {
        m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json")
                                      .read_text())["per_layer"]
    } - {"trace.overhead_s"}


def _run(args, cwd, env=None):
    return subprocess.run([sys.executable] + args, cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_refuses_optimized_interpreter():
    p = _run(["-O", "perfbench/run.py", "--workload", "deform", "--seed", "1",
              "--seconds", "1"], HERE.parent)
    assert p.returncode != 0 and not p.stdout


def test_fails_without_sources(workdir):
    shutil.copy(HERE.parent / "BENCHMARK.json", workdir)
    shutil.copytree(HERE, workdir / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    p = _run(["perfbench/run.py", "--workload", "deform", "--seed", "1",
              "--seconds", "1"], workdir)
    assert p.returncode != 0 and not p.stdout
