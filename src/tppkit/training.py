"""Regularized maximum-likelihood objective and the Adam training loop.

The log-likelihood uses the piecewise-constant quadrature over augmented
tokens: log terms at real events, and for every token an integral term
dt * (sum of the real-label rates predicted at that token). Two regularizers
oppose the maximized LL: a next-label cross-entropy (fake label included,
EOS excluded) and the squared weights of the two rate layers.

Each term is written once, as a few vectorized tape ops over the stacked
(N, M+1) rate matrix. Training evaluates them on a small tape whose leaf is
that matrix, releases the forward tape, and hands the rate adjoint to
``model.backward`` for the parameter gradients; scoring evaluates the same
functions on a rate array wrapped as a constant.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .model import ForwardResult, ModelConfig, ModelParams, ParamNodes, backward, forward
from .streams import AugmentedSequence, Dataset, TokenKind, augment

__all__ = [
    "TrainConfig", "TrainReport", "TrainingError", "quadrature_ll",
    "quadrature_ll_node", "prediction_loss", "prediction_loss_node",
    "weight_penalty", "weight_penalty_node", "objective",
    "objective_with_grads", "train",
]


class TrainingError(RuntimeError):
    """Optimization hit a non-finite objective; message names the culprit."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float = 5.0
    epochs: int = 50
    batch_size: int = 0          # 0 = all streams per step
    seed: int = 0
    pred_weight: float = 1.0     # weight of the next-label cross-entropy
    l2_weight: float = 1e-4      # weight of the rate-layer L2 penalty
    patience: int = 0            # 0 = no early stopping

    def __post_init__(self):
        if self.learning_rate <= 0 or self.clip_norm <= 0 or self.eps <= 0:
            raise ValueError("learning_rate, clip_norm, eps must be positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("betas must lie in [0, 1)")
        if self.epochs < 1 or self.batch_size < 0 or self.patience < 0:
            raise ValueError("epochs >= 1, batch_size >= 0, patience >= 0")
        if self.pred_weight < 0 or self.l2_weight < 0:
            raise ValueError("regularization weights must be >= 0")


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
# objective terms: each is a few tape ops over the (N, M+1) rate matrix whose
# row i holds the channel rates predicted at tokens[i+1]


def quadrature_ll_node(seq: AugmentedSequence, rates: ad.Node) -> ad.Node:
    """Piecewise-constant log-likelihood of the rate matrix.

    Log terms use the true label's rate at real tokens only; the integral
    term runs over every token with the elapsed time since its predecessor
    and sums the M real channels (the fake channel never enters).
    """
    toks = seq.tokens
    m = seq.label_count
    dts = np.diff([t.time for t in toks])
    labels = np.array([t.label for t in toks[1:]], dtype=np.intp)
    rows = np.flatnonzero([t.kind is TokenKind.REAL for t in toks[1:]])
    widths = np.zeros((len(dts), m + 1))
    widths[:, :m] = dts[:, None]
    log_terms = ad.vsum(ad.log(ad.pick(rates, (rows, labels[rows]))))
    return ad.sub(log_terms, ad.vsum(ad.mul(rates, widths)))


def prediction_loss_node(seq: AugmentedSequence, rates: ad.Node) -> ad.Node:
    """Mean next-label cross-entropy of softmax over the M+1 rates.

    Targets are the real and fake tokens after BOS (fake tokens target the
    fake label, which every non-real token carries); EOS is excluded. Zero
    when the sequence has no targets.
    """
    toks = seq.tokens[1:]
    rows = np.flatnonzero([t.kind is not TokenKind.EOS for t in toks])
    targets = np.array([t.label for t in toks], dtype=np.intp)[rows]
    picked = ad.pick(ad.log_softmax(rates), (rows, targets))
    return ad.scale(ad.vsum(picked), -1.0 / max(len(rows), 1))


def weight_penalty_node(pn: ParamNodes) -> ad.Node:
    """Sum of squared entries of the two rate-layer weight matrices (no biases)."""
    return ad.add(ad.sumsq(pn.f1_w), ad.sumsq(pn.f2_w))


def _rate_array(seq: AugmentedSequence, rates) -> np.ndarray:
    rates = np.asarray(rates, dtype=np.float64)
    shape = (len(seq.tokens) - 1, seq.label_count + 1)
    if rates.shape != shape:
        raise ValueError(f"rates must have shape {shape}, got {rates.shape}")
    return rates


def quadrature_ll(seq: AugmentedSequence, rates) -> float:
    """quadrature_ll_node on a plain (len(tokens)-1, M+1) rate array."""
    rates = _rate_array(seq, rates)
    for i, tok in enumerate(seq.tokens[1:]):
        if tok.kind is TokenKind.REAL and rates[i, tok.label] <= 0.0:
            raise ValueError(f"non-positive rate {rates[i, tok.label]} at real token index {i + 1}")
    with ad.tape_scope():
        return float(quadrature_ll_node(seq, ad.Tape().const(rates)).value)


def prediction_loss(seq: AugmentedSequence, rates) -> float:
    """prediction_loss_node on a plain (len(tokens)-1, M+1) rate array."""
    rates = _rate_array(seq, rates)
    with ad.tape_scope():
        return float(prediction_loss_node(seq, ad.Tape().const(rates)).value)


def weight_penalty(params: ModelParams) -> float:
    """weight_penalty_node on plain parameter arrays."""
    with ad.tape_scope():
        return float(weight_penalty_node(ParamNodes.create(ad.Tape(), params)).value)


def _objective_nodes(seq: AugmentedSequence, rates: ad.Node, pn: ParamNodes,
                     cfg: TrainConfig):
    """(objective, LL) nodes: LL minus the weighted prediction and weight penalties."""
    ll = quadrature_ll_node(seq, rates)
    obj = ll
    if cfg.pred_weight > 0.0:
        obj = ad.sub(obj, ad.scale(prediction_loss_node(seq, rates), cfg.pred_weight))
    if cfg.l2_weight > 0.0:
        obj = ad.sub(obj, ad.scale(weight_penalty_node(pn), cfg.l2_weight))
    return obj, ll


def _rate_objective(seq, rates: np.ndarray, params: ModelParams, cfg: TrainConfig):
    """(objective, LL, rate leaf, ParamNodes) on a fresh tape over the rate matrix."""
    tape = ad.Tape()
    leaf, pn = tape.leaf(rates), ParamNodes.create(tape, params)
    return (*_objective_nodes(seq, leaf, pn, cfg), leaf, pn)


def objective(seq: AugmentedSequence, params: ModelParams, model_cfg: ModelConfig,
              train_cfg: TrainConfig) -> float:
    """The training objective (to maximize) for one sequence."""
    with ad.tape_scope():
        rates = forward(seq, params, model_cfg).rate_values()
        return float(_rate_objective(seq, rates, params, train_cfg)[0].value)


def objective_with_grads(seq: AugmentedSequence, params: ModelParams,
                         model_cfg: ModelConfig, train_cfg: TrainConfig):
    """Returns (objective value, LL value, list of parameter gradients).

    The gradients are fresh arrays. Raises TrainingError when the objective
    or any gradient is non-finite.
    """
    with ad.tape_scope():
        fwd = forward(seq, params, model_cfg)
        obj, ll, rates, pn = _rate_objective(seq, fwd.rate_values(), params, train_cfg)
        value = float(obj.value)
        if not math.isfinite(value):
            raise TrainingError(_diagnose_nonfinite(fwd))
        ad.backward(obj.tape, obj)
        cells = fwd.cells
        del fwd   # the scope's exit then frees the forward tape's nodes
    grads = backward(seq, params, model_cfg, cells, rates.grad)
    grads.f1_w += pn.f1_w.grad
    grads.f2_w += pn.f2_w.grad
    for name, g in zip(params.names(), grads.arrays()):
        if not np.all(np.isfinite(g)):
            raise TrainingError(
                f"non-finite gradient for {name} (objective {value}, "
                f"minimum rate {np.min(rates.value)})")
    return value, float(ll.value), grads.arrays()


def _diagnose_nonfinite(fwd: ForwardResult) -> str:
    for i, vec in enumerate(fwd.rates):
        for k, v in enumerate(vec.value):
            if not math.isfinite(v) or v <= 0.0:
                tok = fwd.seq.tokens[i + 1]
                return (f"non-finite objective: rate {v} at token {i + 1} "
                        f"(t={tok.time}, kind={tok.kind.value}), channel {k}")
    return "non-finite objective (log/integral overflow, rates all finite)"


# ---------------------------------------------------------------------------
# optimizer


class _Adam:
    def __init__(self, params: ModelParams, cfg: TrainConfig):
        self.cfg = cfg
        self.m = [np.zeros_like(a) for a in params.arrays()]
        self.v = [np.zeros_like(a) for a in params.arrays()]
        self.t = 0

    def ascend(self, params: ModelParams, grads):
        cfg = self.cfg
        self.t += 1
        b1c = 1.0 - cfg.beta1**self.t
        b2c = 1.0 - cfg.beta2**self.t
        for arr, g, m, v in zip(params.arrays(), grads, self.m, self.v):
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * g * g
            arr += cfg.learning_rate * (m / b1c) / (np.sqrt(v / b2c) + cfg.eps)


def _clip_global_norm(grads, max_norm: float):
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads))
    if total > max_norm:
        factor = max_norm / total
        grads = [g * factor for g in grads]
    return grads


def dataset_ll(dataset_seqs, params: ModelParams, model_cfg: ModelConfig) -> float:
    """Summed quadrature LL over pre-augmented sequences; no mutation."""
    total = 0.0
    for seq in dataset_seqs:
        with ad.tape_scope():
            total += quadrature_ll(seq, forward(seq, params, model_cfg).rate_values())
    return total


def train(dataset: Dataset, model_cfg: ModelConfig, train_cfg: TrainConfig,
          val_dataset: Dataset | None = None):
    """Adam ascent on the objective summed over streams.

    Fake epochs are placed once per stream before the loop, so a (seed,
    dataset, configs) triple is bitwise reproducible. With a validation set
    and patience > 0, training stops after `patience` epochs without a new
    best validation LL and the best-validation parameters are returned.
    Returns (ModelParams, TrainReport).
    """
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

        if val_seqs is not None and train_cfg.patience > 0:
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
