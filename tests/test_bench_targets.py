"""The benchmark's calls into the package must keep working.

Every name the tracer wraps must exist: a target missing after a refactor
turns the traced per-layer metrics that depend on it to null. And each
workload's worker must run one pass of its warm-up shape cleanly: a changed
constructor or attribute the worker uses would otherwise show only in a
benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("bench_tracing", BENCH / "tracing.py")


def _load_worker():
    # the worker imports its tracer as a top-level module from bench/
    saved = list(sys.path)
    sys.path.insert(0, str(BENCH))
    try:
        return _load("bench_worker", BENCH / "worker.py")
    finally:
        sys.path[:] = saved


worker = _load_worker()


@pytest.mark.parametrize("owner, attr, span", tracing.TARGETS,
                         ids=[f"{o}.{a}" for o, a, _ in tracing.TARGETS])
def test_target_resolves(owner, attr, span):
    resolved = tracing._resolve_owner(owner)
    assert resolved is not None, f"{owner} does not resolve"
    assert callable(getattr(resolved, attr, None)), f"{owner}.{attr} is missing"


@pytest.mark.parametrize("workload", sorted(worker.WORKLOADS))
def test_worker_pass_runs(workload, tmp_path):
    shape = worker.warmup_shape(worker.WORKLOADS[workload])
    worker.write_inputs(shape, 1, tmp_path)
    oracle = (worker.pgem.load_spec(tmp_path / "spec.json"),
              worker.streams.load_stream(tmp_path / "data.csv"))
    _, codes, lls = worker.run_pass(shape, tmp_path, oracle)
    assert codes and all(code == 0 for code in codes.values()), codes
    values = worker.pass_values(shape, tmp_path, codes, lls, len(oracle[1].streams))
    assert None not in values.values(), values
