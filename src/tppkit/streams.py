"""Event-stream data model: loading, saving, splitting, fake-epoch augmentation.

Streams are time-ordered labeled epochs on [0, T]. Augmentation interleaves a
fixed number of evenly spaced fake epochs into every positive-length
inter-event gap (boundary gaps included) and brackets the result with BOS/EOS
sentinels; the augmented sequence is the unit the model consumes. It is two
read-only arrays, token times and labels, with fakes and sentinels carrying
label M: a token's kind follows from its place and its label, so every
consumer reads per-token rows, widths and targets straight off the arrays.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "Epoch", "EventStream", "Dataset", "AugmentedSequence", "load_stream",
    "save_stream", "split_by_time", "split_by_stream", "augment", "sidecar_path",
]


class StreamFormatError(ValueError):
    """Malformed stream file or metadata."""


@dataclass(frozen=True)
class Epoch:
    time: float
    label: int

    def __post_init__(self):
        object.__setattr__(self, "time", float(self.time))
        object.__setattr__(self, "label", int(self.label))
        if not (math.isfinite(self.time) and self.time >= 0.0):
            raise ValueError(f"epoch time must be finite and >= 0, got {self.time}")


@dataclass(frozen=True)
class EventStream:
    """Strictly time-ordered epochs on [0, horizon] with labels < label_count."""

    epochs: tuple
    horizon: float
    label_count: int

    def __post_init__(self):
        object.__setattr__(self, "epochs", tuple(self.epochs))
        object.__setattr__(self, "horizon", float(self.horizon))
        object.__setattr__(self, "label_count", int(self.label_count))
        if not (math.isfinite(self.horizon) and self.horizon >= 0.0):
            raise ValueError(f"horizon must be finite and >= 0, got {self.horizon}")
        if self.label_count < 1:
            raise ValueError("label_count must be positive")
        prev = -1.0
        for e in self.epochs:
            if e.time <= prev:
                raise ValueError(f"epoch times must be strictly increasing at t={e.time}")
            if e.time > self.horizon:
                raise ValueError(f"epoch time {e.time} exceeds horizon {self.horizon}")
            if not (0 <= e.label < self.label_count):
                raise ValueError(f"label {e.label} out of range [0, {self.label_count})")
            prev = e.time

    def __len__(self):
        return len(self.epochs)

    def times(self) -> np.ndarray:
        return np.array([e.time for e in self.epochs], dtype=np.float64)

    def labels(self) -> np.ndarray:
        return np.array([e.label for e in self.epochs], dtype=np.int64)


@dataclass(frozen=True)
class Dataset:
    """Non-empty collection of streams sharing one label set."""

    streams: tuple
    name: str = ""
    label_names: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "streams", tuple(self.streams))
        if not self.streams:
            raise ValueError("dataset must contain at least one stream")
        m = self.streams[0].label_count
        for s in self.streams:
            if s.label_count != m:
                raise ValueError("all streams must share label_count")
        if self.label_names is not None:
            object.__setattr__(self, "label_names", tuple(self.label_names))
            if len(self.label_names) != m:
                raise ValueError("label_names length must equal label_count")

    @property
    def label_count(self) -> int:
        return self.streams[0].label_count

    def stream_ids(self):
        return [f"s{i}" for i in range(len(self.streams))]

    def __len__(self):
        return len(self.streams)


@dataclass(frozen=True, eq=False)
class AugmentedSequence:
    """BOS + events + fake epochs + EOS as two read-only arrays.

    times (float64) and labels (intp) hold one entry per token. The first
    token is BOS, the last is EOS, and an interior token is a real event
    exactly when its label is below M; BOS, EOS and fakes carry label M.
    """

    times: np.ndarray
    labels: np.ndarray
    label_count: int
    is_real: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        times = np.array(self.times, dtype=np.float64)
        labels = np.array(self.labels, dtype=np.intp)
        m = self.label_count
        if times.ndim != 1 or labels.shape != times.shape or len(times) < 2:
            raise ValueError("times and labels must be 1-d, of equal length, with >= 2 tokens")
        if times[0] != 0.0 or not np.all(np.isfinite(times)) or np.any(np.diff(times) < 0.0):
            raise ValueError("token times must be finite and non-decreasing from 0")
        if labels[0] != m or labels[-1] != m or np.any((labels < 0) | (labels > m)):
            raise ValueError(f"token labels must lie in [0, {m}], with {m} at BOS and EOS")
        is_real = labels < m
        if np.any(np.diff(times[is_real]) <= 0.0):
            raise ValueError("real-token times must be strictly increasing")
        for arr in (times, labels, is_real):
            arr.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "is_real", is_real)

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def __len__(self):
        return len(self.times)

    def real_events(self) -> EventStream:
        """Strip sentinels and fakes, recovering the source stream."""
        epochs = [Epoch(t, lab) for t, lab in zip(self.times[self.is_real].tolist(),
                                                   self.labels[self.is_real].tolist())]
        return EventStream(tuple(epochs), self.horizon, self.label_count)


# ---------------------------------------------------------------------------
# serialization


def sidecar_path(path) -> Path:
    return Path(path).with_suffix(".meta.json")


def save_stream(dataset: Dataset, path):
    """Write `stream_id,time,label` CSV plus the metadata sidecar."""
    path = Path(path)
    horizons = {s.horizon for s in dataset.streams}
    if len(horizons) != 1:
        raise ValueError("cannot save a dataset with mixed horizons (sidecar holds one)")
    horizon = horizons.pop()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["stream_id", "time", "label"])
        for sid, stream in zip(dataset.stream_ids(), dataset.streams):
            for e in stream.epochs:
                writer.writerow([sid, repr(e.time), e.label])
    meta = {"num_labels": dataset.label_count, "horizon": horizon}
    if dataset.label_names is not None:
        meta["label_names"] = list(dataset.label_names)
    with open(sidecar_path(path), "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def load_stream(path) -> Dataset:
    """Load a CSV of streams with its sidecar; validates every row."""
    path = Path(path)
    meta_path = sidecar_path(path)
    if not meta_path.is_file():
        raise StreamFormatError(f"missing metadata sidecar {meta_path}")
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
    except (ValueError, RecursionError) as exc:  # malformed, undecodable or too deep
        raise StreamFormatError(f"{meta_path}: not valid JSON ({exc})") from exc
    if not isinstance(meta, dict) or "num_labels" not in meta or "horizon" not in meta:
        raise StreamFormatError(f"{meta_path}: metadata needs num_labels and horizon")
    num_labels, horizon = meta["num_labels"], meta["horizon"]
    if not isinstance(num_labels, int) or isinstance(num_labels, bool):
        raise StreamFormatError(f"{meta_path}: num_labels must be an integer, got {num_labels!r}")
    if not isinstance(horizon, (int, float)) or isinstance(horizon, bool):
        raise StreamFormatError(f"{meta_path}: horizon must be a number, got {horizon!r}")
    try:
        horizon = float(horizon)
    except OverflowError as exc:  # an integer beyond float range
        raise StreamFormatError(f"{meta_path}: horizon is beyond the float range") from exc
    if num_labels < 1:
        raise StreamFormatError(f"{meta_path}: num_labels must be >= 1, got {num_labels}")
    if not (math.isfinite(horizon) and horizon >= 0.0):
        raise StreamFormatError(f"{meta_path}: horizon must be finite and >= 0, got {horizon}")
    label_names = meta.get("label_names")
    if label_names is not None and (not isinstance(label_names, list)
                                    or len(label_names) != num_labels):
        raise StreamFormatError(f"{meta_path}: label_names must list {num_labels} names")

    per_stream: dict[str, list] = {}
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["stream_id", "time", "label"]:
                raise StreamFormatError(f"{path}:1: expected header stream_id,time,label")
            for lineno, rowvals in enumerate(reader, start=2):
                if not rowvals:
                    continue
                if len(rowvals) != 3:
                    raise StreamFormatError(f"{path}:{lineno}: expected 3 fields, got {len(rowvals)}")
                sid, time_s, label_s = rowvals
                try:
                    time = float(time_s)
                    label = int(label_s)
                except ValueError as exc:
                    raise StreamFormatError(f"{path}:{lineno}: malformed row") from exc
                if not math.isfinite(time) or time < 0.0:
                    raise StreamFormatError(f"{path}:{lineno}: time must be finite and >= 0")
                if time > horizon:
                    raise StreamFormatError(f"{path}:{lineno}: time {time} exceeds horizon {horizon}")
                if not (0 <= label < num_labels):
                    raise StreamFormatError(f"{path}:{lineno}: label {label} >= num_labels {num_labels}")
                per_stream.setdefault(sid, []).append((time, label, lineno))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise StreamFormatError(f"{path}: unreadable CSV ({exc})") from exc

    if not per_stream:
        raise StreamFormatError(f"{path}: no event rows")
    streams = []
    for sid, rows in per_stream.items():
        rows.sort(key=lambda r: r[0])
        for (t1, _, _), (t2, _, ln) in zip(rows, rows[1:]):
            if t1 == t2:
                raise StreamFormatError(f"{path}:{ln}: duplicate timestamp {t2} in stream {sid}")
        epochs = tuple(Epoch(t, lab) for t, lab, _ in rows)
        streams.append(EventStream(epochs, horizon, num_labels))
    return Dataset(tuple(streams), name=path.stem, label_names=label_names)


# ---------------------------------------------------------------------------
# splitting


def split_by_time(dataset: Dataset, fraction: float):
    """Per stream, cut at fraction*T; test clocks restart at 0."""
    if not (0.0 < fraction < 1.0):
        raise ValueError("fraction must lie strictly between 0 and 1")
    train_streams, test_streams = [], []
    for s in dataset.streams:
        cut = fraction * s.horizon
        train = tuple(e for e in s.epochs if e.time < cut)
        test = tuple(Epoch(e.time - cut, e.label) for e in s.epochs if e.time >= cut)
        train_streams.append(EventStream(train, cut, s.label_count))
        test_streams.append(EventStream(test, s.horizon - cut, s.label_count))
    return (
        Dataset(tuple(train_streams), name=dataset.name + "-train", label_names=dataset.label_names),
        Dataset(tuple(test_streams), name=dataset.name + "-test", label_names=dataset.label_names),
    )


def split_by_stream(dataset: Dataset, fraction: float, seed: int):
    """Uniformly random ceil(fraction*S)-subset of streams as train, rest test."""
    if not (0.0 < fraction < 1.0):
        raise ValueError("fraction must lie strictly between 0 and 1")
    n = len(dataset.streams)
    if n < 2:
        raise ValueError("single-stream dataset: use split_by_time instead")
    n_train = math.ceil(fraction * n)
    rng = np.random.default_rng(seed)
    chosen = set(rng.choice(n, size=n_train, replace=False).tolist())
    train = tuple(dataset.streams[i] for i in range(n) if i in chosen)
    test = tuple(dataset.streams[i] for i in range(n) if i not in chosen)
    return (
        Dataset(train, name=dataset.name + "-train", label_names=dataset.label_names),
        Dataset(test, name=dataset.name + "-test", label_names=dataset.label_names),
    )


# ---------------------------------------------------------------------------
# fake-epoch augmentation


def augment(stream: EventStream, fake_count: int) -> AugmentedSequence:
    """Interleave fake_count evenly spaced fake epochs into every positive gap.

    The real skeleton is BOS(0), t_1..t_N, EOS(T). A gap [a, b] with b > a
    receives fakes at a + j*(b-a)/(K+1) for j = 1..K; zero-length gaps
    (an event at 0 or at T) receive none. Fakes and sentinels carry label M.
    """
    if fake_count < 0:
        raise ValueError("fake_count must be >= 0")
    m = stream.label_count
    skeleton = np.concatenate([[0.0], stream.times(), [stream.horizon]])
    a, b = skeleton[:-1, None], skeleton[1:, None]
    # one row per gap: the token that opens it, then its fakes
    j = np.arange(1, fake_count + 1)
    times = np.concatenate([a, a + (j * (b - a)) / (fake_count + 1)], axis=1)
    labels = np.full(times.shape, m, dtype=np.intp)
    labels[:, 0] = np.append(m, stream.labels())    # BOS, then the events
    keep = np.ones(times.shape, dtype=bool)
    keep[:, 1:] = b > a
    return AugmentedSequence(np.append(times[keep], stream.horizon),
                             np.append(labels[keep], m), m)
