"""Regularized maximum-likelihood objective and the Adam training loop.

The log-likelihood uses the piecewise-constant quadrature over augmented
tokens: log terms at real events, and for every token an integral term
dt * (sum of the real-label rates predicted at that token). Two regularizers
oppose the maximized LL: a next-label cross-entropy (fake label included,
EOS excluded) and the squared weights of the two rate layers.

Each term is one numpy function that returns its value and its adjoint: the
LL and the cross-entropy over the stacked (N, M+1) rate matrix, the penalty
over the two weight matrices. Training composes them in ``_objective``,
releases the forward tape, hands the rate adjoint, cells and alignments to
``model.backward`` for the parameter gradients and adds the penalty's;
scoring calls the same functions for their values. No tape is walked.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .model import ModelConfig, ModelParams, backward, check_label_count, forward
from .streams import AugmentedSequence, Dataset, augment

__all__ = [
    "TrainConfig", "TrainReport", "TrainingError", "quadrature_ll_node",
    "prediction_loss_node", "weight_penalty_node", "objective", "objective_with_grads",
    "dataset_ll", "train",
]


class TrainingError(RuntimeError):
    """A numerical failure: a non-finite objective or gradient in training, or
    model rates or a log-likelihood that are not finite in scoring. The
    message names the culprit (stream, token, channel or parameter); the CLI
    exits 2 on it."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    clip_norm: float = 5.0
    epochs: int = 50
    batch_size: int = 0          # 0 = all streams per step
    seed: int = 0
    pred_weight: float = 1.0     # weight of the next-label cross-entropy
    l2_weight: float = 1e-4      # weight of the rate-layer L2 penalty
    patience: int = 0            # 0 = no early stopping

    def __post_init__(self):
        for name in ("learning_rate", "clip_norm"):
            if not (0 < getattr(self, name) < math.inf):
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if self.epochs < 1 or self.batch_size < 0 or self.patience < 0:
            raise ValueError("epochs >= 1, batch_size >= 0, patience >= 0")
        for name in ("pred_weight", "l2_weight"):
            if not (0 <= getattr(self, name) < math.inf):
                raise ValueError(f"{name} must be >= 0 and finite, got {getattr(self, name)}")


@dataclass
class TrainReport:
    """Per-epoch training trajectory."""

    objective: list = field(default_factory=list)
    train_ll: list = field(default_factory=list)
    val_ll: list = field(default_factory=list)
    seconds: list = field(default_factory=list)

    def epochs_run(self) -> int:
        return len(self.objective)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "objective", "train_ll", "val_ll", "seconds"])
            rows = zip(self.objective, self.train_ll, self.val_ll, self.seconds)
            for i, (obj, tll, vll, sec) in enumerate(rows):
                writer.writerow([i, repr(obj), repr(tll), repr(vll), repr(sec)])


# ---------------------------------------------------------------------------
# objective terms: each is one numpy function returning its value and its
# adjoint. The rate terms read the (N, M+1) rate matrix whose row i holds the
# channel rates predicted at token i+1. Each adjoint is seeded and summed
# in a fixed order (see _objective): long trainings such as acceptance
# criterion 2 turn on last-bit rounding.


def _real_events(seq: AugmentedSequence):
    """(rows, labels) of the rate entries at real events."""
    rows = np.flatnonzero(seq.is_real[1:])
    return rows, seq.labels[1:][rows]


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def quadrature_ll_node(seq: AugmentedSequence, rates: np.ndarray, adj=0.0):
    """Piecewise-constant log-likelihood of the rate matrix, and ``adj`` plus
    its gradient with respect to the rates.

    Log terms use the true label's rate at real tokens only; the integral
    term runs over every token with the elapsed time since its predecessor
    and sums the M real channels (the fake channel never enters). The
    gradient, 1/rate at the log terms and minus the elapsed time on the real
    channels, is added as (adj - widths) + log part. The ``_node`` name is
    kept because the benchmark's tracer times this function under it.
    """
    rows, labels = _real_events(seq)
    widths = np.zeros(rates.shape)
    widths[:, :seq.label_count] = np.diff(seq.times)[:, None]
    picked = rates[rows, labels]
    value = np.sum(np.log(picked)) - np.sum(rates * widths)
    log_part = np.zeros(rates.shape)
    log_part[rows, labels] += 1.0 / picked
    return float(value), (adj - widths) + log_part


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def prediction_loss_node(seq: AugmentedSequence, rates: np.ndarray, scale=1.0):
    """Mean next-label cross-entropy of softmax over the M+1 rates, and
    ``scale`` times its gradient with respect to the rates.

    Targets are the real and fake tokens after BOS (fake tokens target the
    fake label, which every non-real token carries); EOS is excluded. Zero
    when the sequence has no targets. The gradient, (softmax - one-hot) per
    target over the target count, is the log-softmax's reverse of the seed
    scale * (-1/targets) at each target. The ``_node`` name is kept because
    the benchmark's tracer times this function under it.
    """
    rows = np.arange(len(seq) - 2)
    targets = seq.labels[1:-1]
    top = rates.max(axis=-1, keepdims=True)
    logp = rates - (top + np.log(np.exp(rates - top).sum(axis=-1, keepdims=True)))
    weight = -1.0 / max(len(rows), 1)
    seed = np.zeros(rates.shape)
    seed[rows, targets] += scale * weight
    grad = seed - np.exp(logp) * seed.sum(axis=-1, keepdims=True)
    return float(np.sum(logp[rows, targets]) * weight), grad


@np.errstate(over="ignore", invalid="ignore")
def weight_penalty_node(params: ModelParams, scale=1.0):
    """Sum of squared entries of the two rate-layer weight matrices (no
    biases), and ``scale`` times its f1_w and f2_w gradients. The ``_node``
    name is kept because the benchmark's tracer times this function under it.
    """
    f1, f2 = params.f1_w, params.f2_w
    value = np.sum(f1 * f1) + np.sum(f2 * f2)
    return float(value), ((2.0 * scale) * f1, (2.0 * scale) * f2)


def _objective(seq: AugmentedSequence, rates: np.ndarray, params: ModelParams,
               cfg: TrainConfig):
    """LL minus the weighted prediction and weight penalties.

    Returns (objective, LL, rate adjoint, (f1_w, f2_w) penalty gradients).
    The rate adjoint is summed as (prediction part - widths) + log part, the
    prediction part seeded with -pred_weight and the penalty gradients with
    -l2_weight; they are (0.0, 0.0) without a penalty.
    """
    pred_adj = 0.0
    if cfg.pred_weight > 0.0:
        pred, pred_adj = prediction_loss_node(seq, rates, -cfg.pred_weight)
    ll, rate_adj = quadrature_ll_node(seq, rates, pred_adj)
    obj = ll
    if cfg.pred_weight > 0.0:
        obj -= pred * cfg.pred_weight
    pen_grads = (0.0, 0.0)
    if cfg.l2_weight > 0.0:
        pen, pen_grads = weight_penalty_node(params, -cfg.l2_weight)
        obj -= pen * cfg.l2_weight
    return obj, ll, rate_adj, pen_grads


def _forward(seq, params, model_cfg):
    """forward's result, with its tape already released."""
    with ad.tape_scope():
        return forward(seq, params, model_cfg)


def objective(seq: AugmentedSequence, params: ModelParams, model_cfg: ModelConfig,
              train_cfg: TrainConfig) -> float:
    """The training objective (to maximize) for one sequence."""
    return _objective(seq, _forward(seq, params, model_cfg).rates, params, train_cfg)[0]


def objective_with_grads(seq: AugmentedSequence, params: ModelParams,
                         model_cfg: ModelConfig, train_cfg: TrainConfig):
    """Returns (objective value, LL value, list of parameter gradients).

    The gradients are fresh arrays. Raises TrainingError when the objective
    or any gradient is non-finite.
    """
    fwd = _forward(seq, params, model_cfg)
    value, ll, rate_adj, (d_f1, d_f2) = _objective(seq, fwd.rates, params, train_cfg)
    if not math.isfinite(value):
        raise TrainingError(_diagnose_nonfinite(seq, fwd.rates))
    grads = backward(seq, params, model_cfg, fwd.cells, fwd.attention, rate_adj)
    grads.f1_w += d_f1
    grads.f2_w += d_f2
    for name, g in zip(params.names(), grads.arrays()):
        if not np.all(np.isfinite(g)):
            raise TrainingError(
                f"non-finite gradient for {name} (objective {value}, "
                f"minimum rate {np.min(fwd.rates)})")
    return value, ll, grads.arrays()


def _diagnose_nonfinite(seq: AugmentedSequence, rates: np.ndarray,
                        what: str = "objective", bad=None) -> str:
    """Why `what` is not finite: the first rate that `bad` flags (by default
    every rate that is not finite and positive), with its token and channel,
    or an overflow of the rates when it flags none."""
    bad = np.flatnonzero(~((rates > 0.0) & (rates < np.inf)) if bad is None else bad)
    if not bad.size:
        return f"non-finite {what} (log/integral overflow of finite rates)"
    i, k = divmod(int(bad[0]), rates.shape[1])
    kind = "real" if seq.is_real[i + 1] else "eos" if i + 2 == len(seq) else "fake"
    return (f"non-finite {what}: rate {rates[i, k]} at token {i + 1} "
            f"(t={float(seq.times[i + 1])}, kind={kind}), channel {k}")


def _checked_ll(seq: AugmentedSequence, rates: np.ndarray, what: str) -> float:
    """quadrature_ll_node's value on model rates, or TrainingError naming the
    first rate in token order that the LL cannot absorb: a real event's own
    rate that is not finite and positive, or a real-channel rate that is not
    finite. The fake channel is zeroed first, as its zero widths times NaN or
    inf would be NaN."""
    rates = np.array(rates, dtype=np.float64, order="C")
    rates[:, seq.label_count] = 0.0
    ll = quadrature_ll_node(seq, rates)[0]
    if not math.isfinite(ll):
        rows, labels = _real_events(seq)
        bad = ~np.isfinite(rates)
        bad[rows, labels] |= ~(rates[rows, labels] > 0.0)
        raise TrainingError(_diagnose_nonfinite(seq, rates, what, bad))
    return ll


# ---------------------------------------------------------------------------
# optimizer


class _Adam:
    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: ModelParams, cfg: TrainConfig):
        self.cfg = cfg
        self.m = [np.zeros_like(a) for a in params.arrays()]
        self.v = [np.zeros_like(a) for a in params.arrays()]
        self.t = 0

    @np.errstate(over="ignore", invalid="ignore")
    def ascend(self, params: ModelParams, grads):
        """One Adam step in place; TrainingError naming the first parameter
        that the step, or its squared-gradient average, left non-finite."""
        cfg = self.cfg
        self.t += 1
        b1c = 1.0 - self.BETA1**self.t
        b2c = 1.0 - self.BETA2**self.t
        for name, arr, g, m, v in zip(params.names(), params.arrays(), grads, self.m, self.v):
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * g * g
            arr += cfg.learning_rate * (m / b1c) / (np.sqrt(v / b2c) + self.EPS)
            if not (np.all(np.isfinite(arr)) and np.all(np.isfinite(v))):
                raise TrainingError(f"Adam step {self.t} left non-finite entries in {name} "
                                    f"(learning rate {cfg.learning_rate})")


def _clip_global_norm(grads, max_norm: float):
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads))
    if total > max_norm:
        factor = max_norm / total
        grads = [g * factor for g in grads]
    return grads


def dataset_ll(dataset_seqs, params: ModelParams, model_cfg: ModelConfig) -> float:
    """Summed quadrature LL over pre-augmented validation sequences; no mutation.
    A stream's LL that is not finite raises TrainingError naming the stream."""
    total = 0.0
    for i, seq in enumerate(dataset_seqs):
        rates = _forward(seq, params, model_cfg).rates
        total += _checked_ll(seq, rates, f"log-likelihood of validation stream s{i}")
    return total


def train(dataset: Dataset, model_cfg: ModelConfig, train_cfg: TrainConfig,
          val_dataset: Dataset | None = None):
    """Adam ascent on the objective summed over streams.

    Fake epochs are placed once per stream before the loop, so a (seed,
    dataset, configs) triple is bitwise reproducible. With a validation set
    and patience > 0, training stops after `patience` epochs without a new
    best validation LL and the best-validation parameters are returned.
    Returns (ModelParams, TrainReport). A validation set with another label
    count raises ValueError before the first step (``check_label_count``).
    """
    if train_cfg.patience > 0 and val_dataset is None:
        raise ValueError("patience needs a validation set")
    if val_dataset is not None:
        check_label_count(model_cfg, val_dataset.label_count)
    seqs = [augment(s, model_cfg.fake_count) for s in dataset.streams]
    val_seqs = ([augment(s, model_cfg.fake_count) for s in val_dataset.streams]
                if val_dataset is not None else None)

    params = ModelParams.init(model_cfg, seed=train_cfg.seed)
    adam = _Adam(params, train_cfg)
    report = TrainReport()
    batch = train_cfg.batch_size if train_cfg.batch_size > 0 else len(seqs)

    best_val = -math.inf
    best_params = None
    stall = 0

    for _epoch in range(train_cfg.epochs):
        t0 = time.perf_counter()
        epoch_obj = 0.0
        epoch_ll = 0.0
        for start in range(0, len(seqs), batch):
            chunk = seqs[start:start + batch]
            grads = None
            for si, seq in enumerate(chunk):
                try:
                    value, ll, g = objective_with_grads(seq, params, model_cfg, train_cfg)
                except TrainingError as exc:
                    raise TrainingError(f"stream {start + si}: {exc}") from None
                epoch_obj += value
                epoch_ll += ll
                if grads is None:
                    grads = g
                else:
                    for acc, gi in zip(grads, g):
                        acc += gi
            grads = _clip_global_norm(grads, train_cfg.clip_norm)
            adam.ascend(params, grads)

        vll = dataset_ll(val_seqs, params, model_cfg) if val_seqs is not None else math.nan
        report.objective.append(epoch_obj)
        report.train_ll.append(epoch_ll)
        report.val_ll.append(vll)
        report.seconds.append(time.perf_counter() - t0)

        if train_cfg.patience > 0:
            if vll > best_val:
                best_val = vll
                best_params = params.copy()
                stall = 0
            else:
                stall += 1
                if stall >= train_cfg.patience:
                    break

    if best_params is not None:
        return best_params, report
    return params, report
