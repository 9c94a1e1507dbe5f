"""Shared test utilities: finite-difference oracles, gradient comparison, tape leaks
and a brute-force PGEM reference."""

import gc
import math

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


def pgem_rates_by_definition(spec, stream, q):
    """PGEM rate vector at q: parent p with window w is active iff any(q - w <= s < q)
    over p's event times s."""
    rates = []
    for node in spec.nodes:
        bits = tuple(int(any(e.label == p and q - w <= e.time < q for e in stream.epochs))
                     for p, w in zip(node.parents, node.windows))
        rates.append(node.rates[bits])
    return np.array(rates)


def pgem_ll_by_definition(spec, stream):
    """Log rates at the events minus the integral over a grid holding every event
    and window expiry, each rate taken from the definition."""
    horizon = stream.horizon
    grid = {0.0, horizon}
    for e in stream.epochs:
        grid.add(e.time)
        grid.update(e.time + w for node in spec.nodes
                    for p, w in zip(node.parents, node.windows) if p == e.label)
    grid = sorted(x for x in grid if x <= horizon)
    integral = sum((b - a) * pgem_rates_by_definition(spec, stream, 0.5 * (a + b)).sum()
                   for a, b in zip(grid[:-1], grid[1:]))
    log_sum = sum(math.log(pgem_rates_by_definition(spec, stream, e.time)[e.label])
                  for e in stream.epochs)
    return log_sum - integral
