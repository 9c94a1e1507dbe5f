"""Test-set scoring, attention-graph extraction, and intensity traces.

Everything here is read-only over the trained parameters: streams are
augmented with the same fake count used in training, run through the network,
and reduced to reports (per-stream log-likelihood, the time-averaged
attention adjacency between labels, or per-token rate traces for plotting).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .model import ModelConfig, ModelParams, forward
from .streams import Dataset, EventStream, augment
from .training import TrainingError, _checked_ll, _diagnose_nonfinite

_STACK = 256  # tokens per summed stack: 2.6 MiB at M=20, J=3

__all__ = [
    "StreamScore", "TestLLReport", "AttentionGraph", "IntensityTrace",
    "test_ll", "attention_graph", "intensity_trace",
]


@dataclass(frozen=True)
class StreamScore:
    stream_id: str
    ll: float
    num_events: int
    horizon: float


@dataclass(frozen=True)
class TestLLReport:
    scores: tuple
    total: float

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["stream_id", "ll", "num_events", "horizon"])
            for s in self.scores:
                writer.writerow([s.stream_id, repr(s.ll), s.num_events, repr(s.horizon)])
            writer.writerow([
                "total", repr(self.total),
                sum(s.num_events for s in self.scores),
                repr(sum(s.horizon for s in self.scores)),
            ])


@dataclass(frozen=True, eq=False)
class AttentionGraph:
    """Time-averaged attention adjacency between real labels.

    adjacency[k, q] is the average weight channel k placed on label q's bank
    entries; entries at or above the threshold become edges (q, k, weight),
    read as "label q influences label k".
    """

    adjacency: np.ndarray
    threshold: float
    edges: tuple

    def to_json_dict(self) -> dict:
        return {
            "num_labels": int(self.adjacency.shape[0]),
            "threshold": self.threshold,
            "adjacency": [[float(v) for v in row] for row in self.adjacency],
            "edges": [
                {"source": q, "target": k, "weight": float(w)}
                for q, k, w in self.edges
            ],
        }

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")

    def to_dot(self, path, label_names=None):
        def name(i):  # a quoted DOT ID, with its backslashes and quotes escaped
            text = label_names[i] if label_names else str(i)
            return text.replace("\\", "\\\\").replace('"', '\\"')

        lines = ["digraph attention {"]
        m = self.adjacency.shape[0]
        for i in range(m):
            lines.append(f'  "{name(i)}";')
        for q, k, w in self.edges:
            lines.append(f'  "{name(q)}" -> "{name(k)}" [weight="{w:.4f}"];')
        lines.append("}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


@dataclass(frozen=True, eq=False)  # array fields: a generated __eq__ or __hash__ would raise
class IntensityTrace:
    """Per-label rate samples at every augmented token time of one stream.

    times (T,) and labels (T,) are the tokens after BOS, fakes included;
    rates (T, M) holds every real label's rate at each token's time. Label k
    is a real event at token i when labels[i] == k.
    """

    times: np.ndarray
    labels: np.ndarray
    rates: np.ndarray

    def to_csv(self, path):
        """One line per (token, real label), in token then label order.

        The bytes are csv.writer's: every field is an integer or the repr of
        a finite float, so nothing is quoted, and lines end in CRLF.
        """
        lines = ["time,label,lambda,is_real_event\r\n"]
        for t, token_label, row in zip(self.times.tolist(), self.labels.tolist(),
                                       self.rates.tolist()):
            time = repr(t)
            lines += [f"{time},{k},{lam!r},{int(k == token_label)}\r\n"
                      for k, lam in enumerate(row)]
        with open(path, "w", newline="") as fh:
            fh.write("".join(lines))


def test_ll(config: ModelConfig, params: ModelParams, dataset: Dataset,
            fake_count: int | None = None) -> TestLLReport:
    """Quadrature log-likelihood per stream and in total; params untouched.

    Raises ValueError (``forward``'s label check) when the dataset's label
    count is not the model's, and TrainingError, naming the stream and the
    first rate it cannot absorb, when a stream's log-likelihood is not finite.
    """
    k = config.fake_count if fake_count is None else fake_count
    scores = []
    for sid, stream in zip(dataset.stream_ids(), dataset.streams):
        seq = augment(stream, k)
        with ad.tape_scope():
            rates = forward(seq, params, config).rate_values()
        ll = _checked_ll(seq, rates, f"log-likelihood of stream {sid}")
        scores.append(StreamScore(sid, ll, len(stream), stream.horizon))
    return TestLLReport(tuple(scores), float(sum(s.ll for s in scores)))


def attention_graph(config: ModelConfig, params: ModelParams, dataset: Dataset,
                    threshold: float) -> AttentionGraph:
    """Average recorded attention over tokens and bank slots, then threshold.

    The raw alignments per (token, channel) sum to one over all bank entries;
    dividing the per-label sums by token count and memory depth keeps every
    adjacency entry in [0, 1]. Each weight adds onto its running sum in
    stream, token and bank-slot order (oldest record first), one
    ``np.add.reduce`` over the stacked slot blocks of at most 256 tokens at a
    time; a partial bank adds fewer blocks. Raises ValueError for a model
    without memory, a threshold that is not finite, or another label count
    (``forward``'s label check).
    """
    if config.memory_depth < 1:
        raise ValueError("attention disabled: model was built with memory_depth 0")
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    m = config.label_count
    # sums[q, k] is channel k's weight on label q, the fake channel included;
    # each (M, C) slot block of an alignment array adds onto it in turn
    sums = np.zeros((m, config.channel_count))
    token_count = 0
    for stream in dataset.streams:
        seq = augment(stream, config.fake_count)
        with ad.tape_scope():
            attention = forward(seq, params, config).attention
        token_count += len(attention)
        for s in range(0, len(attention), _STACK):
            # one C-contiguous stack of sums and the slot blocks in token,
            # then slot order; reduce adds its rows one after another
            stack = np.concatenate([sums, *attention[s:s + _STACK]])
            sums = np.add.reduce(stack.reshape(-1, m, config.channel_count), axis=0)
    adjacency = sums[:, :m].T.copy() / (token_count * config.memory_depth)
    edges = []
    for k in range(m):
        for q in range(m):
            if adjacency[k, q] >= threshold:
                edges.append((q, k, float(adjacency[k, q])))
    edges.sort(key=lambda e: (-e[2], e[0], e[1]))
    return AttentionGraph(adjacency, threshold, tuple(edges))


def intensity_trace(config: ModelConfig, params: ModelParams,
                    stream: EventStream, fake_count: int | None = None) -> IntensityTrace:
    """Rates of every real label at every augmented token time, with markers.

    Raises ValueError when the stream's label count is not the model's
    (in ``forward``), TrainingError when a real rate is not finite and positive.
    """
    k = config.fake_count if fake_count is None else fake_count
    seq = augment(stream, k)
    with ad.tape_scope():
        rates = forward(seq, params, config).rate_values()[:, :config.label_count]
    if not np.all((rates > 0.0) & (rates < np.inf)):
        raise TrainingError(_diagnose_nonfinite(seq, rates, "intensity trace"))
    return IntensityTrace(seq.times[1:], seq.labels[1:], rates)
