"""Proximal graphical event models: sampling, simulation, exact log-likelihood.

Each label is a node whose arrival rate is a table lookup keyed by which of
its parents produced at least one event inside a trailing window of width w.
Rates are therefore piecewise constant in time, which makes simulation exact
(exponential candidates redrawn at every structural change point, valid by
memorylessness) and the log-likelihood computable in closed form.

The oracle (rate_at, build_trace) reads the rate at t from the strict
history: a parent event at s is active iff s < t <= s + w, compared with the
same floats s + w at which build_trace breaks, by binary searches over
per-label time arrays; exact_ll reads its event rates off build_trace, in
O((events + segments) log events) per node. The simulator uses s <= t < s + w,
the rate on the interval just after t.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .streams import Dataset, Epoch, EventStream

__all__ = [
    "NodeSpec", "PgemSpec", "GenConfig", "ChangePointTrace", "sample_spec",
    "simulate", "exact_ll", "build_trace", "rate_at", "save_spec", "load_spec",
    "homogeneous_ml_ll",
]


@dataclass(frozen=True)
class NodeSpec:
    """One label's parents, per-parent windows, and activation-indexed rates."""

    parents: tuple
    windows: tuple
    rates: dict  # activation bit-tuple (aligned with parents) -> positive rate

    def __post_init__(self):
        object.__setattr__(self, "parents", tuple(int(p) for p in self.parents))
        object.__setattr__(self, "windows", tuple(float(w) for w in self.windows))
        if len(self.parents) != len(self.windows):
            raise ValueError("one window per parent required")
        if len(set(self.parents)) != len(self.parents):
            raise ValueError("duplicate parent")
        for w in self.windows:
            if not (w > 0.0):
                raise ValueError(f"window must be positive, got {w}")
        want = 2 ** len(self.parents)
        if len(self.rates) != want:
            raise ValueError(f"rate table must have {want} entries, got {len(self.rates)}")
        clean = {}
        for bits, rate in self.rates.items():
            bits = tuple(int(b) for b in bits)
            if len(bits) != len(self.parents) or any(b not in (0, 1) for b in bits):
                raise ValueError(f"bad activation key {bits}")
            rate = float(rate)
            if not (rate > 0.0):
                raise ValueError(f"rate must be positive, got {rate}")
            clean[bits] = rate
        object.__setattr__(self, "rates", clean)

    @functools.cached_property
    def table(self) -> np.ndarray:
        """Rates indexed by the activation bits read as a number, first parent most significant."""
        bits = itertools.product((0, 1), repeat=len(self.parents))
        return np.array([self.rates[b] for b in bits])


@dataclass(frozen=True)
class PgemSpec:
    label_count: int
    nodes: tuple

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if len(self.nodes) != self.label_count:
            raise ValueError("need exactly one NodeSpec per label")
        for node in self.nodes:
            for p in node.parents:
                if not (0 <= p < self.label_count):
                    raise ValueError(f"parent {p} out of range")

    def parent_windows(self) -> dict:
        """Map parent label -> sorted set of windows attached to its out-edges."""
        out: dict[int, set] = {}
        for node in self.nodes:
            for p, w in zip(node.parents, node.windows):
                out.setdefault(p, set()).add(w)
        return {p: sorted(ws) for p, ws in out.items()}


@dataclass(frozen=True)
class GenConfig:
    """Generating distributions for sample_spec; all knobs overridable."""

    parent_counts: tuple = (0, 1, 2)
    windows: tuple = (15.0, 30.0, 60.0)
    rate_low: float = 0.001
    rate_high: float = 0.1


@dataclass(frozen=True)
class ChangePointTrace:
    """Segments (t_start, t_end, rates[M]) tiling [0, T] with constant rates."""

    breaks: np.ndarray          # length S+1, breaks[0] == 0, breaks[-1] == T
    rates: np.ndarray           # (S, M)

    def integral(self) -> float:
        """Integral over [0, T] of the summed rate vector."""
        widths = np.diff(self.breaks)
        return float(widths @ self.rates.sum(axis=1))


def sample_spec(label_count: int, seed: int, config: GenConfig = GenConfig()) -> PgemSpec:
    """Draw a random spec: parent count, parents, windows, then rates, per node."""
    if label_count < 1:
        raise ValueError("label_count must be >= 1")
    rng = np.random.default_rng(seed)
    log_lo, log_hi = math.log(config.rate_low), math.log(config.rate_high)
    nodes = []
    for _ in range(label_count):
        count = min(int(rng.choice(config.parent_counts)), label_count - 1)
        parents = tuple(sorted(rng.choice(label_count, size=count, replace=False).tolist()))
        windows = tuple(float(rng.choice(config.windows)) for _ in parents)
        rates = {}
        for bits in itertools.product((0, 1), repeat=count):
            rates[bits] = float(math.exp(rng.uniform(log_lo, log_hi)))
        nodes.append(NodeSpec(parents, windows, rates))
    return PgemSpec(label_count, tuple(nodes))


def _label_times(spec: PgemSpec, stream: EventStream) -> list:
    """One sorted array of event times per label."""
    times, labels = stream.times(), stream.labels()
    return [times[labels == k] for k in range(spec.label_count)]


def _node_rates(node: NodeSpec, label_times: list, q: np.ndarray) -> np.ndarray:
    """Strict-history rate of one node at each query time in q: a parent
    event at s is active iff s < q <= s + w."""
    index = np.zeros(len(q), dtype=np.intp)
    for p, w in zip(node.parents, node.windows):
        times = label_times[p]
        index = 2 * index + (times.searchsorted(q) > (times + w).searchsorted(q))
    return node.table[index]


def rate_at(spec: PgemSpec, stream: EventStream, times) -> np.ndarray:
    """(len(times), M) strict-history rate vectors at the query times (parent
    events s with s < t <= s + w)."""
    label_times = _label_times(spec, stream)
    q = np.asarray(times, dtype=np.float64)
    if q.ndim != 1:
        raise ValueError(f"rate_at takes a 1-d array of times, got shape {q.shape}")
    return np.column_stack([_node_rates(node, label_times, q) for node in spec.nodes])


def simulate(spec: PgemSpec, horizon: float, seed) -> EventStream:
    """Exact event-driven simulation up to the horizon.

    At the current time the rate vector is a table lookup; the next structural
    change is the earliest pending window expiry; one exponential candidate per
    node decides whether an event fires before it. Candidates are redrawn
    after every event or change point. The rates hold on the interval just
    after t, so a parent is active iff its latest event lies in (t-w, t].
    ``seed`` is anything accepted by ``numpy.random.default_rng``.
    """
    rng = np.random.default_rng(seed)
    nodes = [(node.table.tolist(), tuple(zip(node.parents, node.windows))) for node in spec.nodes]
    last = [-math.inf] * spec.label_count  # latest event time per label
    parent_windows = spec.parent_windows()
    expiries: list[float] = []
    epochs = []
    t = 0.0
    while True:
        rates = []
        for table, edges in nodes:
            index = 0
            for p, w in edges:
                index = 2 * index + (last[p] > t - w)
            rates.append(table[index])
        draws = [t + rng.exponential(1.0 / r) for r in rates]
        k_star = int(np.argmin(draws))
        t_cand = draws[k_star]
        t_exp = expiries[0] if expiries else math.inf
        if t_cand <= t_exp:
            if t_cand > horizon:
                break
            epochs.append(Epoch(t_cand, k_star))
            last[k_star] = t_cand
            for w in parent_windows.get(k_star, ()):
                heapq.heappush(expiries, t_cand + w)
            t = t_cand
        else:
            if t_exp > horizon:
                break
            t = t_exp
            while expiries and expiries[0] <= t:
                heapq.heappop(expiries)
    return EventStream(tuple(epochs), horizon, spec.label_count)


def build_trace(spec: PgemSpec, stream: EventStream) -> ChangePointTrace:
    """Piecewise-constant rate trace breaking at events and window expiries."""
    horizon = stream.horizon
    label_times = _label_times(spec, stream)
    points = np.concatenate([stream.times()] + [
        label_times[p] + w for p, ws in spec.parent_windows().items() for w in ws])
    inner = points[(points > 0.0) & (points < horizon)].tolist()
    breaks = np.array(sorted({0.0, horizon, *inner}), dtype=np.float64)
    mids = 0.5 * (breaks[:-1] + breaks[1:])
    rates = np.column_stack([_node_rates(node, label_times, mids) for node in spec.nodes])
    return ChangePointTrace(breaks, rates)


def exact_ll(spec: PgemSpec, stream: EventStream) -> float:
    """Closed-form log-likelihood of the stream under the spec.

    Sum of log strict-history rates at the events minus the integral of the
    summed rate vector over [0, T], both read off one build_trace: activation
    changes only at breaks, so an event's rate is that of the segment ending
    at it. An event sitting where its own rate is zero yields -inf
    deliberately (not via a numpy warning).
    """
    if stream.label_count != spec.label_count:
        raise ValueError("stream and spec disagree on label_count")
    trace = build_trace(spec, stream)
    # row i: the rates on the segment ending at breaks[i]; row 0 (no history) serves t = 0
    rates = np.vstack([[node.table[0] for node in spec.nodes], trace.rates])
    at = trace.breaks.searchsorted(stream.times())
    labels = stream.labels()
    log_sum = 0.0
    for k in range(spec.label_count):
        r = rates[at[labels == k], k]
        if np.any(r <= 0.0):
            return -math.inf
        log_sum += float(np.sum(np.log(r)))
    return log_sum - trace.integral()


def homogeneous_ml_ll(stream: EventStream) -> float:
    """Log-likelihood of the maximum-likelihood constant-rate fit of a stream.

    Per label, lambda_hat = N_k / T and the LL contribution is
    N_k * log(N_k / T) - N_k; labels with no events contribute 0.
    """
    T = stream.horizon
    ll = 0.0
    labels = stream.labels()
    for k in range(stream.label_count):
        n = int(np.sum(labels == k))
        if n > 0:
            ll += n * math.log(n / T) - n
    return ll


# ---------------------------------------------------------------------------
# serialization


def _bits_to_key(bits) -> str:
    return "".join(str(b) for b in bits)


def save_spec(spec: PgemSpec, path):
    doc = {
        "num_labels": spec.label_count,
        "nodes": [
            {
                "parents": list(node.parents),
                "windows": list(node.windows),
                "rates": {_bits_to_key(bits): rate for bits, rate in sorted(node.rates.items())},
            }
            for node in spec.nodes
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_spec(path) -> PgemSpec:
    with open(path) as fh:
        doc = json.load(fh)
    nodes = []
    for nd in doc["nodes"]:
        rates = {tuple(int(c) for c in key): float(v) for key, v in nd["rates"].items()}
        nodes.append(NodeSpec(tuple(nd["parents"]), tuple(nd["windows"]), rates))
    return PgemSpec(int(doc["num_labels"]), tuple(nodes))


def simulate_dataset(spec: PgemSpec, horizon: float, n_streams: int, seed: int,
                     name: str = "pgem") -> Dataset:
    """Simulate independent streams with per-stream seeds derived from seed."""
    if n_streams < 1:
        raise ValueError("n_streams must be >= 1")
    streams = tuple(
        simulate(spec, horizon, np.random.SeedSequence([seed, i]))
        for i in range(n_streams)
    )
    return Dataset(streams, name=name)
