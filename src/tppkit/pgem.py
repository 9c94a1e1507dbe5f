"""Proximal graphical event models: sampling, simulation, exact log-likelihood.

Each label is a node whose arrival rate is a table lookup keyed by which of
its parents produced at least one event inside a trailing window of width w.
Rates are therefore piecewise constant in time, which makes simulation exact
(exponential candidates redrawn at every structural change point, valid by
memorylessness) and the log-likelihood computable in closed form.

The oracle (rate_at, build_trace) reads the rate at t from the strict
history: a parent event at s is active iff s < t <= s + w, compared with the
same floats s + w at which build_trace breaks. It evaluates every node at
once from a plan cached per spec (PgemSpec.plan): one running maximum over
the events per distinct (parent, window) edge gives each edge's latest
expiry s + w, one binary search of the query times in the event times picks
the row to read, and one product of the activation matrix with the edges'
bit weights indexes all rate tables. build_trace builds the (events, edges)
parent mask once and sorts its breaks once. exact_ll reads its event rates
off one build_trace, in O((events + segments) * (edges + labels)) after that
sort. The simulator tests s > t - w in floats for the rate just after a step
t (see simulate). Each step reads each node's 1/rate from a table
indexed by its activation bits and draws one vector of M standard
exponentials, the same draws in the same order as M scalar exponential(1/rate)
calls. It refuses a run whose expected event count may exceed
MAX_EXPECTED_EVENTS (the spec's largest total rate times the horizon).
"""

from __future__ import annotations

import functools
import heapq
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .streams import Dataset, Epoch, EventStream, is_json, read_json_object

__all__ = [
    "NodeSpec", "PgemSpec", "GenConfig", "ChangePointTrace", "sample_spec",
    "simulate", "simulate_dataset", "exact_ll", "build_trace", "rate_at", "save_spec",
    "load_spec", "homogeneous_ml_ll", "MAX_EXPECTED_EVENTS",
]

# simulate's budget: at about 150 bytes per event, a stream this long holds
# about 150 MB of epochs
MAX_EXPECTED_EVENTS = 1_000_000


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
            if not (0.0 < rate < math.inf):
                raise ValueError(f"rate must be positive and finite, got {rate}")
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

    @functools.cached_property
    def plan(self) -> _Plan:
        """The oracle's view of the spec: its distinct (parent, window) edges,
        their bit weights per node, and every node's rate table in one array."""
        edges = sorted({e for node in self.nodes for e in zip(node.parents, node.windows)})
        column = {e: i for i, e in enumerate(edges)}
        weights = np.zeros((len(edges), self.label_count))
        for n, node in enumerate(self.nodes):
            k = len(node.parents)
            for j, e in enumerate(zip(node.parents, node.windows)):
                weights[column[e], n] = 2 ** (k - 1 - j)
        sizes = [len(node.table) for node in self.nodes]
        return _Plan(np.array([p for p, _ in edges], dtype=np.int64),
                     np.array([w for _, w in edges], dtype=np.float64), weights,
                     np.concatenate([node.table for node in self.nodes]),
                     np.cumsum([0] + sizes[:-1]))


@dataclass(frozen=True)
class _Plan:
    parents: np.ndarray     # (E,) the distinct (parent, window) edges, sorted
    windows: np.ndarray     # (E,)
    weights: np.ndarray     # (E, M): node n's j-th of k edges weighs 2**(k-1-j)
    tables: np.ndarray      # every node's rate table, concatenated
    offsets: np.ndarray     # (M,) start of each node's table in tables


@dataclass(frozen=True)
class GenConfig:
    """Generating distributions for sample_spec; all knobs overridable."""

    parent_counts: tuple = (0, 1, 2)
    windows: tuple = (15.0, 30.0, 60.0)
    rate_low: float = 0.001
    rate_high: float = 0.1


@dataclass(frozen=True)
class ChangePointTrace:
    """Segments (t_start, t_end] tiling (0, T], each with constant rates[M].

    The breaks strictly increase; the widths are breaks[1:] - breaks[:-1].
    """

    breaks: np.ndarray          # length S+1, breaks[0] == 0, breaks[-1] == T
    rates: np.ndarray           # (S, M)

    def integral(self) -> float:
        """Integral over [0, T] of the summed rate vector."""
        b = self.breaks
        return float((b[1:] - b[:-1]) @ self.rates.sum(axis=1))


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


def _events(spec: PgemSpec, stream: EventStream) -> tuple:
    """The stream's read-only event times and labels, if its label count is the spec's."""
    if stream.label_count != spec.label_count:
        raise ValueError("stream and spec disagree on label_count")
    return stream.times(), stream.labels()


def _rates(spec: PgemSpec, times: np.ndarray, parents: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(len(q), M) strict-history rates at q, given the events' times and the
    (events, edges) mask of which event is which edge's parent.

    Edge (p, w) is active at q iff p's latest event s before q has q <= s + w:
    s + w does not decrease with s, so that is the rule s < q <= s + w, read on
    the same floats s + w at which build_trace breaks.
    """
    plan = spec.plan
    # row i: each edge's latest expiry s + w among the first i events, -inf if none
    ends = np.full((len(times) + 1, len(plan.parents)), -np.inf)
    np.maximum.accumulate(np.where(parents, times[:, None], -np.inf), axis=0, out=ends[1:])
    ends += plan.windows
    active = ends[times.searchsorted(q)] >= q[:, None]
    index = active.astype(np.float64) @ plan.weights
    return plan.tables[index.astype(np.intp) + plan.offsets]


def rate_at(spec: PgemSpec, stream: EventStream, times) -> np.ndarray:
    """(len(times), M) strict-history rate vectors at the query times (parent
    events s with s < t <= s + w)."""
    q = np.asarray(times, dtype=np.float64)
    if q.ndim != 1:
        raise ValueError(f"rate_at takes a 1-d array of times, got shape {q.shape}")
    times, labels = _events(spec, stream)
    return _rates(spec, times, labels[:, None] == spec.plan.parents, q)


def simulate(spec: PgemSpec, horizon: float, seed) -> EventStream:
    """Exact event-driven simulation up to the horizon.

    At the current time each node's rate is a table lookup; the next
    structural change is the earliest pending window expiry; one exponential
    candidate per node decides whether an event fires before it. Candidates
    are redrawn after every event or change point. The rates hold on the
    interval just after t: each distinct (parent, window) edge is tested once
    per step, as ``last[p] > t - w`` in floats. At an expiry step
    t = fl(s + w) where fl(t - w) < s, that keeps the parent active until the
    next step, unlike the oracle's rule s < q <= fl(s + w).

    Each step draws one vector, ``rng.standard_exponential(M)``, and node k's
    candidate is t + s_k * e_k, with s_k = 1/rate_k read from a per-node
    table. That is what M scalar ``rng.exponential(s_k)`` draws give, in the
    same order, so the streams and a passed-in generator's final state are
    those of a node-by-node loop of scalar draws (the tests' reference,
    ``simulate_by_definition``); ties go to the lowest label. ``seed`` is
    anything accepted by ``numpy.random.default_rng``.

    Raises ValueError when the horizon is not finite and >= 0, or when the
    spec's largest total rate (each node's largest table entry, summed) times
    the horizon exceeds MAX_EXPECTED_EVENTS.
    """
    if not (0.0 <= horizon < math.inf):  # nan or inf would never end the loop
        raise ValueError(f"horizon must be finite and >= 0, got {horizon}")
    rate = sum(max(node.rates.values()) for node in spec.nodes)
    if not (rate * horizon <= MAX_EXPECTED_EVENTS):  # nan: rates summing to inf at horizon 0
        raise ValueError(f"the spec's largest total rate {rate} times the horizon {horizon} "
                         f"must be at most {MAX_EXPECTED_EVENTS} expected events")
    rng = np.random.default_rng(seed)
    plan = spec.plan
    edges = list(zip(plan.parents.tolist(), plan.windows.tolist()))
    column = {e: i for i, e in enumerate(edges)}
    nodes = [([1.0 / r for r in node.table.tolist()],
              [column[e] for e in zip(node.parents, node.windows)]) for node in spec.nodes]
    last = [-math.inf] * spec.label_count  # latest event time per label
    # each label's out-edge windows, ascending, as the edges are sorted
    windows = [plan.windows[plan.parents == k].tolist() for k in range(spec.label_count)]
    expiries: list[float] = []
    epochs = []
    t = 0.0
    while True:
        active = [last[p] > t - w for p, w in edges]
        t_cand, k_star = math.inf, 0
        draws = rng.standard_exponential(spec.label_count).tolist()
        for k, ((scales, columns), e) in enumerate(zip(nodes, draws)):
            index = 0
            for c in columns:
                index += index + active[c]
            cand = t + scales[index] * e
            if cand < t_cand:  # strict: the first minimum, as np.argmin picks
                t_cand, k_star = cand, k
        t_exp = expiries[0] if expiries else math.inf
        if t_cand <= t_exp:
            if t_cand > horizon:
                break
            epochs.append(Epoch(t_cand, k_star))
            last[k_star] = t_cand
            for w in windows[k_star]:
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
    """Piecewise-constant rate trace breaking at events and window expiries.

    Breaks are 0, T, the events and every edge's expiries s + w inside
    (0, T), sorted once and kept where they differ from their predecessor;
    each segment's rates are read at its end. The (events, edges) parent
    mask is built once and serves the expiries and the rates.
    """
    horizon = stream.horizon
    times, labels = _events(spec, stream)
    plan = spec.plan
    parents = labels[:, None] == plan.parents
    points = np.concatenate([[0.0, horizon], times, (times[:, None] + plan.windows)[parents]])
    keep = (points > 0.0) & (points < horizon)
    keep[:2] = True
    points = np.sort(points[keep])
    breaks = points[np.concatenate(([True], points[1:] != points[:-1]))]
    # no event or expiry lies inside a segment, so its rates are those at its end
    return ChangePointTrace(breaks, _rates(spec, times, parents, breaks[1:]))


def exact_ll(spec: PgemSpec, stream: EventStream) -> float:
    """Closed-form log-likelihood of the stream under the spec.

    Sum of log strict-history rates at the events minus the integral of the
    summed rate vector over [0, T], both read off one build_trace: activation
    changes only at breaks, so an event's rate is that of the segment ending
    at it (an event at t = 0 has no history and reads each table's first
    entry). The trace costs one running maximum over the events per distinct
    (parent, window) edge and one binary search of its breaks in the events,
    with the plan cached per spec; the event rates are then one gather, one
    log and one sum. The event arrays are the ones the stream built once,
    when it was validated: no call converts its epochs.
    """
    times, labels = _events(spec, stream)
    trace = build_trace(spec, stream)
    plan = spec.plan
    # row i: the rates on the segment ending at breaks[i]; row 0 (no history) serves t = 0
    rows = np.concatenate([plan.tables[plan.offsets][None], trace.rates])
    rates = rows[trace.breaks.searchsorted(times), labels]
    return float(np.log(rates).sum()) - trace.integral()


def homogeneous_ml_ll(stream: EventStream) -> float:
    """Log-likelihood of the maximum-likelihood constant-rate fit of a stream.

    Per label, lambda_hat = N_k / T and the LL contribution is
    N_k * log(N_k / T) - N_k; labels with no events contribute 0.
    """
    T = stream.horizon
    if T == 0.0 and len(stream):
        raise ValueError(f"a constant rate fits no events on horizon {T}: it needs a "
                         f"positive horizon")
    ll = 0.0
    for n in np.bincount(stream.labels(), minlength=stream.label_count).tolist():
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
    """The spec save_spec wrote to path; a document of another shape, or values
    NodeSpec or PgemSpec refuse, raise ValueError naming path."""
    def each(values, kind):  # a list of JSON values of that type
        return isinstance(values, list) and all(is_json(v, kind) for v in values)
    doc = read_json_object(Path(path).read_bytes(), path)
    if not (set(doc) == {"num_labels", "nodes"} and is_json(doc["num_labels"], int)
            and each(doc["nodes"], dict) and all(
                set(nd) == {"parents", "windows", "rates"} and each(nd["parents"], int)
                and each(nd["windows"], float) and isinstance(nd["rates"], dict)
                and each(list(nd["rates"].values()), float)
                and all(set(key) <= {"0", "1"} for key in nd["rates"]) for nd in doc["nodes"])):
        raise ValueError(f"{path}: a spec holds exactly an integer num_labels and nodes, each "
                         f"exactly integer parents, number windows and number rates by bit string")
    try:
        return PgemSpec(doc["num_labels"], tuple(
            NodeSpec(nd["parents"], nd["windows"],
                     {tuple(map(int, key)): rate for key, rate in nd["rates"].items()})
            for nd in doc["nodes"]))
    except (ValueError, OverflowError) as exc:  # OverflowError: an integer beyond float range
        raise ValueError(f"{path}: {exc}") from None


def simulate_dataset(spec: PgemSpec, horizon: float, n_streams: int, seed: int) -> Dataset:
    """Simulate independent streams with per-stream seeds derived from seed."""
    if n_streams < 1:
        raise ValueError("n_streams must be >= 1")
    streams = tuple(
        simulate(spec, horizon, np.random.SeedSequence([seed, i]))
        for i in range(n_streams)
    )
    return Dataset(streams)
