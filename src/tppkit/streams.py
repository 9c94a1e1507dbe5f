"""Event-stream data model: loading, saving, splitting, fake-epoch augmentation.

Streams are time-ordered labeled epochs on [0, T]. Each rule about stream
data is checked once, by the type that holds the data: EventStream checks
the epochs (an Epoch is a plain record) and Dataset the label names. The
loader only parses and locates: its error names the file, and for an epoch
the row's line, of what those types refuse. A stream builds its times and
labels into two read-only arrays once, when it is validated, and every
consumer (augmentation, the CSV writer, the PGEM oracle) shares them.

Augmentation interleaves a fixed number of evenly spaced fake epochs into
every positive-length inter-event gap (boundary gaps included) and brackets
the result with BOS/EOS sentinels; the augmented sequence is the unit the
model consumes. It is two read-only arrays, token times and labels, with
fakes and sentinels carrying label M: a token's kind follows from its place
and its label, so every consumer reads per-token rows, widths and targets
straight off the arrays.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

__all__ = [
    "StreamFormatError", "EpochError", "Epoch", "EventStream", "Dataset", "AugmentedSequence",
    "load_stream", "save_stream", "split_by_time", "split_by_stream", "augment",
    "sidecar_path", "read_json_object", "is_json",
]


class StreamFormatError(ValueError):
    """Malformed stream file or metadata."""


class EpochError(ValueError):
    """An epoch that breaks one of EventStream's rules; index is its place."""
    def __init__(self, message, index):
        super().__init__(message)
        self.index = index


class Epoch(NamedTuple):
    time: float
    label: int


@dataclass(frozen=True)
class EventStream:
    """Strictly time-ordered epochs on [0, horizon] with labels in [0, label_count).

    The epochs' times (float64) and labels (int64) are built into two arrays
    once, here, and validated on them; the first epoch that breaks a rule
    raises EpochError with its index. times() and labels() return those
    arrays themselves: read-only, and shared by every caller. They are kept
    outside the fields, so == and hash compare epochs, horizon and label_count.
    """

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
        times = np.array([e.time for e in self.epochs], dtype=np.float64)
        given = [e.label for e in self.epochs]
        try:
            labels = np.array(given, dtype=np.int64)
            whole = labels == given  # the cast drops a fraction and parses a string
        except (TypeError, ValueError, OverflowError):  # None, nan, inf, beyond int64
            whole = None
        if whole is None or not whole.all():
            # some label fails: judge each alone, keeping the whole ones exactly
            # (an object array holds those beyond int64) for the range check
            with np.errstate(invalid="ignore"):  # a numpy inf // 1 is nan: not whole
                whole = np.array([isinstance(k, numbers.Real) and k // 1 == k for k in given], bool)
            labels = np.array([k if w else 0 for k, w in zip(given, whole)], dtype=object)
        # (epochs, checks): row-major order is the order the epochs and their checks are
        # made in, so the first True names the first failing epoch and its first failed
        # check; a NaN time fails the first, as no comparison with NaN is true
        failed = np.stack([~(np.isfinite(times) & (times >= 0.0)),
                           times <= np.append(-1.0, times[:-1]), times > self.horizon,
                           ~whole, (labels < 0) | (labels >= self.label_count)], axis=1)
        if failed.any():
            i, check = divmod(int(failed.argmax()), 5)
            t, label = float(times[i]), given[i]
            raise EpochError([f"epoch time must be finite and >= 0, got {t}",
                              f"epoch times must be strictly increasing at t={t}",
                              f"epoch time {t} exceeds horizon {self.horizon}",
                              f"label {label!r} is not an integer",
                              f"label {label} out of range [0, {self.label_count})"][check], i)
        times.flags.writeable = labels.flags.writeable = False
        self.__dict__["_times"], self.__dict__["_labels"] = times, labels

    def __reduce__(self):
        # copies and unpickled streams are rebuilt, so their arrays are read-only too
        return EventStream, (self.epochs, self.horizon, self.label_count)

    def __len__(self):
        return len(self.epochs)

    def times(self) -> np.ndarray:
        return self._times

    def labels(self) -> np.ndarray:
        return self._labels


@dataclass(frozen=True)
class Dataset:
    """Non-empty collection of streams sharing one label set."""

    streams: tuple
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
            # one string is not a list of names, though tuple() would split it
            names = () if isinstance(self.label_names, str) else tuple(self.label_names)
            object.__setattr__(self, "label_names", names)
            # the types first: a name that is not a string may not be hashable
            if not (all(isinstance(n, str) for n in names) and len(set(names)) == len(names) == m):
                raise ValueError(f"label_names must list {m} distinct strings")

    @property
    def label_count(self) -> int:
        return self.streams[0].label_count

    def stream_ids(self):
        """s0, s1, ... in stream order; a loaded file's own ids are not kept."""
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

    def __len__(self):
        return len(self.times)


# ---------------------------------------------------------------------------
# serialization


def read_json_object(raw: bytes, source, error=ValueError) -> dict:
    """The JSON object that raw, the UTF-8 bytes of source, holds.

    The one parser of every JSON file the package reads back: a document that
    is malformed, not UTF-8, nested too deeply to parse or not an object
    raises error, with a message that names source.
    """
    try:
        doc = json.loads(raw.decode("utf-8"))
    except RecursionError:
        raise error(f"{source}: JSON nests too deeply") from None
    except ValueError as exc:  # malformed or undecodable
        raise error(f"{source}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise error(f"{source}: must hold a JSON object")
    return doc


def is_json(value, kind) -> bool:
    """Whether a value read from JSON has the type kind as the package reads
    it: an int passes for a float, unconverted, and a bool for neither."""
    return type(value) is not bool and isinstance(value, (int, float) if kind is float else kind)


def sidecar_path(path) -> Path:
    return Path(path).with_suffix(".meta.json")


def save_stream(dataset: Dataset, path):
    """Write `stream_id,time,label` CSV plus the metadata sidecar, which lists
    the stream ids in order, so a stream with no events is kept."""
    path = Path(path)
    horizons = {s.horizon for s in dataset.streams}
    if len(horizons) != 1:
        raise ValueError("cannot save a dataset with mixed horizons (sidecar holds one)")
    horizon = horizons.pop()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["stream_id", "time", "label"])
        for sid, stream in zip(dataset.stream_ids(), dataset.streams):
            for time, label in zip(stream.times().tolist(), stream.labels().tolist()):
                writer.writerow([sid, repr(time), label])
    meta = {"num_labels": dataset.label_count, "horizon": horizon}
    if dataset.label_names is not None:
        meta["label_names"] = list(dataset.label_names)
    meta["stream_ids"] = dataset.stream_ids()
    with open(sidecar_path(path), "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def load_stream(path) -> Dataset:
    """Load a CSV of streams with its sidecar; an error names the file and row.
    The streams come in the order of the sidecar's stream_ids, a listed id
    with no rows being an empty stream, or, without that list, in the order
    of their ids' first rows. The file's ids are then dropped: the streams are
    s0, s1, ... (Dataset.stream_ids)."""
    path = Path(path)
    meta_path = sidecar_path(path)
    if not meta_path.is_file():
        raise StreamFormatError(f"missing metadata sidecar {meta_path}")
    meta = read_json_object(meta_path.read_bytes(), meta_path, StreamFormatError)
    num_labels, horizon = meta.get("num_labels"), meta.get("horizon")
    if not (is_json(num_labels, int) and num_labels >= 1 and is_json(horizon, float)
            and 0.0 <= horizon <= sys.float_info.max):  # nan fails; so does an int beyond it
        raise StreamFormatError(f"{meta_path}: metadata needs an integer num_labels >= 1 and "
                                f"a finite horizon >= 0, got {num_labels!r} and {horizon!r}")
    horizon = float(horizon)
    label_names = meta.get("label_names")
    if label_names is not None and not isinstance(label_names, list):
        raise StreamFormatError(f"{meta_path}: label_names must be a JSON list")
    listed = meta.get("stream_ids")
    if listed is not None and not (isinstance(listed, list) and all(is_json(i, str) for i in listed)
                                   and len(set(listed)) == len(listed)):
        raise StreamFormatError(f"{meta_path}: stream_ids must be a JSON list of distinct strings")

    per_stream: dict[str, list] = {} if listed is None else {sid: [] for sid in listed}
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
                if listed is not None and sid not in per_stream:
                    raise StreamFormatError(f"{path}:{lineno}: stream {sid} is not in the "
                                            f"sidecar's stream_ids")
                per_stream.setdefault(sid, []).append((time, label, lineno))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise StreamFormatError(f"{path}: unreadable CSV ({exc})") from exc

    if not per_stream:
        raise StreamFormatError(f"{path}: no event rows")
    streams = []
    for sid, rows in per_stream.items():
        # stable, with NaN last, so a NaN time cannot make a valid row look out of order
        rows = [rows[i] for i in np.argsort([r[0] for r in rows], kind="stable").tolist()]
        try:
            streams.append(EventStream([Epoch(t, k) for t, k, _ in rows], horizon, num_labels))
        except EpochError as exc:
            raise StreamFormatError(f"{path}:{rows[exc.index][2]}: stream {sid}: {exc}") from exc
    try:
        return Dataset(tuple(streams), label_names=label_names)
    except ValueError as exc:  # every stream shares num_labels: the label names are at fault
        raise StreamFormatError(f"{meta_path}: {exc}") from exc


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
    return (Dataset(tuple(train_streams), label_names=dataset.label_names),
            Dataset(tuple(test_streams), label_names=dataset.label_names))


def split_by_stream(dataset: Dataset, fraction: float, seed: int):
    """Uniformly random ceil(fraction*S)-subset of streams as train, rest test."""
    if not (0.0 < fraction < 1.0):
        raise ValueError("fraction must lie strictly between 0 and 1")
    n = len(dataset.streams)
    if n < 2:
        raise ValueError("single-stream dataset: use split_by_time instead")
    n_train = math.ceil(fraction * n)
    if n_train == n:
        raise ValueError(f"fraction {fraction} of {n} streams puts all {n} in train "
                         "and leaves the test set empty")
    rng = np.random.default_rng(seed)
    chosen = set(rng.choice(n, size=n_train, replace=False).tolist())
    train = tuple(dataset.streams[i] for i in range(n) if i in chosen)
    test = tuple(dataset.streams[i] for i in range(n) if i not in chosen)
    return (Dataset(train, label_names=dataset.label_names),
            Dataset(test, label_names=dataset.label_names))


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
