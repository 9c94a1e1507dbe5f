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
from .training import TrainingError, _check_rates, _diagnose_nonfinite, quadrature_ll

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


@dataclass(frozen=True)
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
        def name(i):
            return label_names[i] if label_names else str(i)

        lines = ["digraph attention {"]
        m = self.adjacency.shape[0]
        for i in range(m):
            lines.append(f'  "{name(i)}";')
        for q, k, w in self.edges:
            lines.append(f'  "{name(q)}" -> "{name(k)}" [weight="{w:.4f}"];')
        lines.append("}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


@dataclass(frozen=True)
class IntensityTrace:
    """Per-label rate samples at every augmented token time of one stream."""

    rows: tuple  # (time, label, rate, is_real_event)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time", "label", "lambda", "is_real_event"])
            for t, label, lam, is_real in self.rows:
                writer.writerow([repr(t), label, repr(lam), int(is_real)])


def _check_labels(config: ModelConfig, dataset_label_count: int):
    if dataset_label_count != config.label_count:
        raise ValueError(
            f"data uses {dataset_label_count} labels but the model was trained "
            f"with {config.label_count}; unknown labels cannot be scored")


def _model_rates(seq, params: ModelParams, config: ModelConfig, what: str) -> np.ndarray:
    """forward's (N, M+1) rates; TrainingError naming the token and channel of
    the first rate that is not finite and positive."""
    with ad.tape_scope():
        rates = forward(seq, params, config).rate_values()
    return _check_rates(seq, rates, what)


def test_ll(config: ModelConfig, params: ModelParams, dataset: Dataset,
            fake_count: int | None = None) -> TestLLReport:
    """Quadrature log-likelihood per stream and in total; params untouched.

    Raises TrainingError, naming the stream, when a stream's rates or its
    log-likelihood are not finite.
    """
    _check_labels(config, dataset.label_count)
    k = config.fake_count if fake_count is None else fake_count
    scores = []
    for sid, stream in zip(dataset.stream_ids(), dataset.streams):
        seq = augment(stream, k)
        what = f"log-likelihood of stream {sid}"
        rates = _model_rates(seq, params, config, what)
        ll = quadrature_ll(seq, rates)
        if not math.isfinite(ll):
            raise TrainingError(_diagnose_nonfinite(seq, rates, what))
        scores.append(StreamScore(sid, ll, len(stream), stream.horizon))
    return TestLLReport(tuple(scores), float(sum(s.ll for s in scores)))


def attention_graph(config: ModelConfig, params: ModelParams, dataset: Dataset,
                    threshold: float) -> AttentionGraph:
    """Average recorded attention over tokens and bank slots, then threshold.

    The raw alignments per (token, channel) sum to one over all bank entries;
    dividing the per-label sums by token count and memory depth keeps every
    adjacency entry in [0, 1].
    """
    if config.memory_depth < 1:
        raise ValueError("attention disabled: model was built with memory_depth 0")
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    _check_labels(config, dataset.label_count)
    m = config.label_count
    sums = np.zeros((m, m))
    token_count = 0
    for stream in dataset.streams:
        seq = augment(stream, config.fake_count)
        with ad.tape_scope():
            attention = forward(seq, params, config).attention
        token_count += len(attention)
        for alpha in attention:
            if alpha is None:
                continue
            # rows j..j+m-1 hold one record's labels in order; column k is channel k
            for j in range(0, alpha.shape[0], m):
                sums += alpha[j:j + m, :m].T
    if token_count == 0:
        raise ValueError("dataset produced no tokens to attend over")
    adjacency = sums / (token_count * config.memory_depth)
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

    Raises TrainingError when a rate is not finite and positive.
    """
    _check_labels(config, stream.label_count)
    k = config.fake_count if fake_count is None else fake_count
    seq = augment(stream, k)
    rates = _model_rates(seq, params, config, "intensity trace")
    rows = []
    # Python floats, whose repr the CSV writes
    times, labels = seq.times[1:].tolist(), seq.labels[1:].tolist()
    for i, (time, token_label) in enumerate(zip(times, labels)):
        for label in range(config.label_count):
            rows.append((time, label, float(rates[i, label]), token_label == label))
    return IntensityTrace(tuple(rows))
