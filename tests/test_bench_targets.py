"""Every name the benchmark's tracer wraps must exist in the package.

A target missing after a refactor turns the traced per-layer metrics that
depend on it to null, which only the benchmark run would otherwise show.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("owner, attr, span", tracing.TARGETS,
                         ids=[f"{o}.{a}" for o, a, _ in tracing.TARGETS])
def test_target_resolves(owner, attr, span):
    resolved = tracing._resolve_owner(owner)
    assert resolved is not None, f"{owner} does not resolve"
    assert callable(getattr(resolved, attr, None)), f"{owner}.{attr} is missing"
