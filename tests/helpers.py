"""Shared test utilities: finite-difference oracles, gradient comparison and tape leaks."""

import gc

import numpy as np

import tppkit.autodiff as ad


def numerical_grad(f, x, h=1e-5):
    """Central finite differences of scalar f w.r.t. array x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def max_rel_err(a, b, floor=1e-4):
    """Largest elementwise |a-b| / max(|a|, |b|, floor)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def assert_grads_close(analytic, numeric, tol=1e-4, floor=1e-4):
    err = max_rel_err(analytic, numeric, floor=floor)
    assert err < tol, f"gradient mismatch: rel err {err:.3e} >= {tol:.1e}"


def _tracked_nodes() -> int:
    return sum(isinstance(o, ad.Node) for o in gc.get_objects())


def assert_frees_its_tapes(call):
    """call() leaves no Node for the cyclic GC, even with the caller's GC disabled."""
    gc.collect()
    gc.disable()
    try:
        before = _tracked_nodes()
        call()
        assert _tracked_nodes() == before
        assert not gc.isenabled()
    finally:
        gc.enable()
