"""Multi-channel recurrent intensity network.

One shared LSTM runs over the augmented sequence, reading each token as the
embedding row of its label (M for BOS, fakes and EOS) and its scaled time
(``encode_token``); its hidden vector of size m*(M+1) is read as M+1
contiguous per-label channels. The memory bank is one matrix of the
real-label channel slices from the most recent J tokens, fakes included,
oldest first (at most J*M rows of width m). All channels attend over it at
once, as one (m, M+1) channel matrix with dot-product scores, to form their
net hidden states (``attend``); a small feed-forward stack then maps each column
[net state, elapsed time] to a positive rate via softplus (``intensity``).
Rates for token i are always computed from the state strictly before token i.

``forward`` builds these ops on an autodiff tape, token by token, and keeps
each token's LSTM values and alignment; nothing in the package walks that tape.
``backward`` takes the adjoint of the rate matrix, which the training
objective's numpy terms return, to the parameters with one batched pass over
the attention-and-rate head (forward's alignments, numpy ``_net_rows`` and
``_rate_head``) and one reverse loop over the LSTM.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import struct
import typing
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .streams import AugmentedSequence, is_json, read_json_object

__all__ = [
    "ModelConfig", "ModelParams", "ParamNodes", "ForwardResult", "check_label_count",
    "encode_token", "lstm_step", "attend", "intensity", "forward", "backward",
    "save_checkpoint", "load_checkpoint", "check_settings", "RETIRED",
]

CHECKPOINT_MAGIC = b"TPPKIT\x00\x01"


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and input-conditioning knobs.

    The hidden dimension is channel_width * (label_count + 1) by construction.
    time_scale divides both token time stamps and inter-token gaps before they
    enter the network (set it to the training horizon to keep gate
    pre-activations in range; 1.0 means raw time units).
    """

    label_count: int
    channel_width: int = 8
    embed_dim: int = 16
    memory_depth: int = 3
    fake_count: int = 1
    hidden_width: int = 32
    time_scale: float = 1.0

    def __post_init__(self):
        if self.label_count < 1:
            raise ValueError("label_count must be >= 1")
        if self.channel_width < 1 or self.embed_dim < 1 or self.hidden_width < 1:
            raise ValueError("widths must be positive")
        if self.memory_depth < 0 or self.fake_count < 0:
            raise ValueError("memory_depth and fake_count must be >= 0")
        if not (0.0 < self.time_scale < np.inf):
            raise ValueError(f"time_scale must be positive and finite, got {self.time_scale}")

    @property
    def channel_count(self) -> int:
        return self.label_count + 1

    @property
    def hidden_dim(self) -> int:
        return self.channel_width * self.channel_count


_PARAM_FIELDS = (
    "embedding", "lstm_wx", "lstm_wh", "lstm_b", "attn_w",
    "f1_w", "f1_b", "f2_w", "f2_b",
)


@dataclass
class ModelParams:
    """All trainable arrays, float64. Field order is the checkpoint order."""

    embedding: np.ndarray   # (M+1, E)
    lstm_wx: np.ndarray     # (4H, E+1)
    lstm_wh: np.ndarray     # (4H, H)
    lstm_b: np.ndarray      # (4H,) gate order i, f, g, o
    attn_w: np.ndarray      # (m, 2m), shared across channels
    f1_w: np.ndarray        # (F, m+1)
    f1_b: np.ndarray        # (F,)
    f2_w: np.ndarray        # (1, F)
    f2_b: np.ndarray        # (1,)

    @classmethod
    def shapes(cls, config: ModelConfig) -> dict:
        m, e, h, f = (config.channel_width, config.embed_dim,
                      config.hidden_dim, config.hidden_width)
        return {
            "embedding": (config.channel_count, e),
            "lstm_wx": (4 * h, e + 1),
            "lstm_wh": (4 * h, h),
            "lstm_b": (4 * h,),
            "attn_w": (m, 2 * m),
            "f1_w": (f, m + 1),
            "f1_b": (f,),
            "f2_w": (1, f),
            "f2_b": (1,),
        }

    @classmethod
    def init(cls, config: ModelConfig, seed: int) -> "ModelParams":
        """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, forget bias +1."""
        rng = np.random.default_rng(seed)
        shapes = cls.shapes(config)

        def uniform(shape, fan_in):
            bound = 1.0 / np.sqrt(fan_in)
            return rng.uniform(-bound, bound, size=shape)

        h = config.hidden_dim
        arrays = {
            "embedding": uniform(shapes["embedding"], config.embed_dim),
            "lstm_wx": uniform(shapes["lstm_wx"], config.embed_dim + 1),
            "lstm_wh": uniform(shapes["lstm_wh"], h),
            "lstm_b": np.zeros(shapes["lstm_b"]),
            "attn_w": uniform(shapes["attn_w"], 2 * config.channel_width),
            "f1_w": uniform(shapes["f1_w"], config.channel_width + 1),
            "f1_b": np.zeros(shapes["f1_b"]),
            "f2_w": uniform(shapes["f2_w"], config.hidden_width),
            "f2_b": np.zeros(shapes["f2_b"]),
        }
        arrays["lstm_b"][h:2 * h] = 1.0
        return cls(**arrays)

    def arrays(self):
        return [getattr(self, name) for name in _PARAM_FIELDS]

    def names(self):
        return list(_PARAM_FIELDS)

    def copy(self) -> "ModelParams":
        return ModelParams(*(a.copy() for a in self.arrays()))

    def flatten(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self.arrays()])

    @classmethod
    def from_flat(cls, config: ModelConfig, flat: np.ndarray) -> "ModelParams":
        shapes = cls.shapes(config)
        arrays = {}
        offset = 0
        for name in _PARAM_FIELDS:
            shape = shapes[name]
            size = int(np.prod(shape))
            arrays[name] = flat[offset:offset + size].reshape(shape).copy()
            offset += size
        if offset != flat.size:
            raise ValueError(f"flat vector has {flat.size} entries, expected {offset}")
        return cls(**arrays)

    def validate(self, config: ModelConfig):
        for name, shape in self.shapes(config).items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name}: expected shape {shape}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name}: non-finite entries")


@dataclass
class ParamNodes:
    """Leaf nodes for one tape wrapping a ModelParams (no copies)."""

    embedding: ad.Node
    lstm_wx: ad.Node
    lstm_wh: ad.Node
    lstm_b: ad.Node
    attn_w: ad.Node
    f1_w: ad.Node
    f1_b: ad.Node
    f2_w: ad.Node
    f2_b: ad.Node

    @classmethod
    def create(cls, tape: ad.Tape, params: ModelParams) -> "ParamNodes":
        return cls(**{
            name: ad.Node(tape, getattr(params, name), (), name)
            for name in _PARAM_FIELDS
        })

    def all(self):
        return [getattr(self, name) for name in _PARAM_FIELDS]

    def grads(self):
        return [n.grad for n in self.all()]


def encode_token(label: int, time: float, pn: ParamNodes, config: ModelConfig) -> ad.Node:
    """Embedding row for the token's label (M, the fake row, for BOS, fakes and
    EOS) plus its scaled time."""
    emb = ad.row(pn.embedding, label)
    t = emb.tape.const(np.array([time / config.time_scale]))
    return ad.concat([emb, t])


def lstm_step(x: ad.Node, state, pn: ParamNodes):
    """One LSTM cell update over the full multi-channel hidden vector.

    state is the (h, c) pair of vectors of length m*(M+1), channel k being
    slice [k*m, (k+1)*m); returns the next h and c nodes and the tuple of
    values ``backward`` reads: h, c, the gates i, f, g, o and tanh(c).
    """
    h_prev, c_prev = state
    h_dim = h_prev.value.shape[0]
    z = ad.add(ad.linear(pn.lstm_wx, x, pn.lstm_b), ad.matvec(pn.lstm_wh, h_prev))
    i = ad.sigmoid(ad.vslice(z, 0, h_dim))
    f = ad.sigmoid(ad.vslice(z, h_dim, 2 * h_dim))
    g = ad.tanh(ad.vslice(z, 2 * h_dim, 3 * h_dim))
    o = ad.sigmoid(ad.vslice(z, 3 * h_dim, 4 * h_dim))
    c = ad.add(ad.mul(f, c_prev), ad.mul(i, g))
    tanh_c = ad.tanh(c)
    h = ad.mul(o, tanh_c)
    return h, c, (h.value, c.value, i.value, f.value, g.value, o.value, tanh_c.value)


def attend(h_t: ad.Node, bank: ad.Node | None, pn: ParamNodes):
    """Net states of all channels: column k is tanh(W_c [context_k, h_k]).

    h_t is the (m, C) matrix whose column k is channel k's slice; bank is the
    (rows, m) matrix of recorded channel slices, or None at memory_depth 0.
    Channel k's context is the alignment-weighted average of the bank rows,
    with dot-product scores against h_k; no bank yields a zero context.
    Returns the (m, C) net states and the (rows, C) alignment node (None
    without a bank).
    """
    if bank is None:
        alpha = None
        contexts = h_t.tape.const(np.zeros(h_t.value.shape))
    else:
        alpha = ad.softmax_cols(ad.matmul(bank, h_t))
        contexts = ad.matmul(ad.transpose(bank), alpha)
    net = ad.tanh(ad.matmul(pn.attn_w, ad.concat_rows([contexts, h_t])))
    return net, alpha


def intensity(net: ad.Node, dt_scaled, pn: ParamNodes) -> ad.Node:
    """(C,) positive rates from the (m, C) net states and the elapsed time.

    dt_scaled is one elapsed time for every column, or an array of one per
    column.
    """
    if dt_scaled < 0.0 if isinstance(dt_scaled, float) else np.any(np.asarray(dt_scaled) < 0.0):
        raise ValueError("elapsed time must be >= 0")
    dts = np.full((1, net.value.shape[1]), dt_scaled)
    z = ad.concat_rows([net, net.tape.const(dts)])
    hidden = ad.relu(ad.add_col(ad.matmul(pn.f1_w, z), pn.f1_b))
    out = ad.add_col(ad.matmul(pn.f2_w, hidden), pn.f2_b)
    return ad.softplus(ad.row(out, 0))


@dataclass
class ForwardResult:
    """Rates and attention for one sequence, with the tape still attached.

    rates[i] is the (M+1,) vector node of channel rates predicted at token
    i+1; attention[i] is the (rows, M+1) array of per-channel alignment
    weights over the bank as of token i, or None when memory_depth is 0 (with
    J >= 1 the bank always holds token i's own record). Row j*M + q holds
    label q's channel slice from the j-th oldest record in the bank.
    cells[i] holds the LSTM values after token i (see ``lstm_step``);
    ``backward`` reads cells and attention.
    """

    tape: ad.Tape
    params: ParamNodes
    rates: list
    attention: list
    cells: list

    def rate_values(self) -> np.ndarray:
        """(len(seq)-1, M+1) array of rate values."""
        return np.array([vec.value for vec in self.rates])


def check_label_count(config: ModelConfig, label_count: int):
    """Raise ValueError unless data with ``label_count`` labels fits the model."""
    if label_count != config.label_count:
        raise ValueError(
            f"data uses {label_count} labels but the model was trained "
            f"with {config.label_count}; unknown labels cannot be scored")


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def forward(seq: AugmentedSequence, params: ModelParams, config: ModelConfig) -> ForwardResult:
    """Run the network over an augmented sequence.

    For every token i >= 1, the state after token i-1 is read as the (m, C)
    channel matrix, all channels attend over the bank as of i-1 at once, and
    the rate vector at t_i is produced from (net states, t_i - t_{i-1}).
    The label and time of token i are then encoded and stepped through the LSTM.
    The bank records the new state's real-label slices after every token but
    the last (real, fake or BOS alike) and keeps the last memory_depth
    records, so attention is None only when memory_depth is 0. Overflow
    raises no numpy warning; it shows as rates that are not finite and
    positive, which the callers report.
    """
    check_label_count(config, seq.label_count)
    m = config.channel_width
    M = config.label_count
    C = config.channel_count
    depth = config.memory_depth
    tape = ad.Tape()
    pn = ParamNodes.create(tape, params)
    h, c = tape.const(np.zeros(config.hidden_dim)), tape.const(np.zeros(config.hidden_dim))
    records = []      # (M, m) row-slice nodes of the last `depth` records, oldest first
    bank = None       # records stacked into one node; None until rebuilt after a record

    times, labels = seq.times.tolist(), seq.labels.tolist()
    rates = []
    attention = []
    cells = []
    for i, (time, label) in enumerate(zip(times, labels)):
        if i:
            h_t = ad.transpose(channels)                  # (m, C), column k = h_k
            if bank is None and records:
                bank = records[0] if len(records) == 1 else ad.concat_rows(records)
            net, alpha = attend(h_t, bank, pn)
            dt = (time - times[i - 1]) / config.time_scale
            rates.append(intensity(net, dt, pn))
            attention.append(None if alpha is None else alpha.value)
        h, c, cell = lstm_step(encode_token(label, time, pn, config), (h, c), pn)
        cells.append(cell)
        channels = ad.reshape(h, (C, m))
        # the state after the last token is never attended, so it is not recorded
        if depth and i < len(times) - 1:
            records = (records + [ad.rowslice(channels, 0, M)])[-depth:]
            bank = None
    return ForwardResult(tape, pn, rates, attention, cells)


def backward(seq: AugmentedSequence, params: ModelParams, config: ModelConfig,
             cells: list, attention: list, rate_adj: np.ndarray) -> ModelParams:
    """Fresh parameter gradients from the adjoint of forward's (N, M+1) rates.

    cells and attention are ForwardResult's; the head reads its alignments.
    One loop runs over blocks of _BLOCK rows, counted from the last row
    (``_reverse_block``), carrying the LSTM's adjoints, the adjoints the
    later rows left for the records before the block, and the running
    gradient sums from block to block. Elementwise steps use the tape's
    formulas in its order and sums over rows run from the last row, as the
    tape's reverse walk adds them: the bank records take their adjoints as
    one shifted add per memory slot, in slot order, and the softmax's sum
    runs over the bank rows in order. So every per-token adjoint equals the
    tape's to the last bit. The blocks bound its memory (see _BLOCK).
    """
    H = config.hidden_dim
    grads = dict.fromkeys(_PARAM_FIELDS)
    grads["embedding"] = np.zeros_like(params.embedding)
    lag = max(config.memory_depth - 1, 0)  # records a block carries to the one before it
    carry = np.zeros((lag, config.label_count * config.channel_width))
    dz, dc = np.zeros(4 * H), np.zeros(H)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for e in range(len(seq) - 1, 0, -_BLOCK):
            carry, dz, dc = _reverse_block(max(e - _BLOCK, 0), e, seq, params, config, cells,
                                           attention, rate_adj, grads, carry, dz, dc)
    return ModelParams(**grads)


def _net_rows(hs, slots, chans, alpha, p, config):
    """The bank, u = [contexts; queries] and net = tanh(attn_w u) of many rows
    at once: (rows, J*M, m), (rows, 2m, C) and (rows, m, C). hs stacks hidden
    states, slots[r] holds the places in hs of row r's J records, oldest first
    (negative: padding), chans[r] is row r's own (C, m) channel slices and
    alpha[r] its (J*M, C) alignment, zero at the padding."""
    m, M = config.channel_width, config.label_count
    rows, J = slots.shape
    bank = hs[np.maximum(slots, 0), :M * m].reshape(rows, J * M, m)
    query = chans.transpose(0, 2, 1)                   # (rows, m, C), column k = h_k
    u = np.concatenate([np.matmul(bank.transpose(0, 2, 1), alpha), query], axis=1)
    return bank, u, np.tanh(np.matmul(p.attn_w, u))


def _rate_head(net, dts, p):
    """z = [net; dt], hidden = relu(f1 z) and the (rows, 1, C) pre-softplus
    output, from (rows, m, C) net states and each row's scaled elapsed time."""
    rows, _, C = net.shape
    z = np.concatenate([net, np.broadcast_to(dts[:, None, None], (rows, 1, C))], axis=1)
    hidden = np.maximum(np.matmul(p.f1_w, z) + p.f1_b[:, None], 0.0)
    return z, hidden, np.matmul(p.f2_w, hidden) + p.f2_b[:, None]


def _reverse_block(s, e, seq, p, config, cells, attention, rate_adj, grads, carry, dz, dc):
    """Rows s..e-1 of ``backward``, added into grads.

    The block stacks its own cells (its tokens and the max(J-1, 1) before
    them, which its bank and its first LSTM step read) and its rows'
    alignments from forward's attention, recomputes the rest of the head for
    its rows at once (``_net_rows``, ``_rate_head``) and reverses it,
    each step one product batched over the rows in the shapes and layouts of
    forward's per-row products, scatters its rows' adjoints into the bank
    records they read, runs its reverse LSTM steps and adds its stretches
    into the running weight products. carry holds the record adjoints that
    later rows left for the max(J-1, 0) tokens before e (a first block's
    rows for tokens before 0 are dropped), dz and dc the LSTM's adjoints
    after token e-1; returns the same three at s.
    """
    m, M, C, H = config.channel_width, config.label_count, config.channel_count, config.hidden_dim
    J = config.memory_depth
    times, labels = seq.times, seq.labels
    rows = e - s
    lo = max(s - max(J - 1, 1), 0)                     # first token the block reads
    first = s - lo                                     # row s's place in the stack
    hs, cs, gi, gf, gg, go, tanh_c = np.array(cells[lo:e]).transpose(1, 0, 2)
    # row r's slots, as places in the stack; only a first block's are negative
    slots = np.arange(first, first + rows)[:, None] + np.arange(1 - J, 1)
    chans = hs[first:].reshape(rows, C, m)
    # a first block's rows hold fewer than J records; their oldest slots stay zero
    alpha = np.zeros((rows, J * M, C))
    if J:
        for r, a in enumerate(attention[s:e]):
            alpha[r, -len(a):] = a
    bank, u, net = _net_rows(hs, slots, chans, alpha, p, config)
    z, hidden, out = _rate_head(net, np.diff(times[s:e + 1]) / config.time_scale, p)

    # reverse through the head, adding each weight's stretches as soon
    # as its operands are final and then dropping them; d_alpha
    # becomes the score adjoint in place
    d_out = rate_adj[s:e, None, :] * ad._sigmoid_val(out)
    grads["f2_w"] = _rows_product(d_out, hidden, grads["f2_w"])
    grads["f2_b"] = _sum_last_first(d_out.sum(axis=2), grads["f2_b"])
    d_z1 = p.f2_w.T * d_out
    d_z1 *= hidden > 0.0                               # relu's mask, as z1 > 0
    del hidden
    grads["f1_w"] = _rows_product(d_z1, z, grads["f1_w"])
    grads["f1_b"] = _sum_last_first(d_z1.sum(axis=2), grads["f1_b"])
    d_pre = np.matmul(p.f1_w.T, d_z1)[:, :m] * (1.0 - net * net)
    del z, d_z1, net
    grads["attn_w"] = _rows_product(d_pre, u, grads["attn_w"])
    d_u = np.matmul(p.attn_w.T, d_pre)
    del u, d_pre
    d_alpha = np.matmul(bank, d_u[:, :m])
    # summed bank row by bank row, as the tape does, before d_ctx_bank is
    # made, so that the product's temporary is not alive beside it
    d_alpha -= (alpha * d_alpha).sum(axis=1, keepdims=True)
    d_ctx_bank = np.matmul(d_u[:, :m], alpha.transpose(0, 2, 1)).transpose(0, 2, 1)
    d_alpha *= alpha
    del alpha
    d_score_bank = np.matmul(d_alpha, chans).reshape(rows, J, M * m)
    d_h = (d_u[:, m:] + np.matmul(bank.transpose(0, 2, 1), d_alpha)).transpose(0, 2, 1)
    del d_alpha, d_u, bank
    # a row whose bank is one record hands it the context and the score
    # part one after the other (on the tape that bank is the record's own
    # node); other rows hand each record the sum of the two. Row i of
    # records is token s - lag + i, so slot j of row r lands on row r + j:
    # from the adjoints the later rows left, each record takes its slots
    # in slot order, as the tape adds them last row first, and a one-record
    # row's second part goes in after every first part its record takes
    single = (slots >= 0).sum(axis=1) == 1
    d_bank = d_ctx_bank.reshape(rows, J, M * m) + d_score_bank * ~single[:, None, None]
    lag = max(J - 1, 0)
    records = np.concatenate([np.zeros((rows, M * m)), carry])
    for j in range(J):
        records[j:j + rows] += d_bank[:, j]
    if J:
        records[lag:][single] += d_score_bank[single, lag]
    del d_ctx_bank, d_score_bank, d_bank
    d_h = d_h.reshape(rows, H)
    d_h[:, :M * m] += records[lag:]

    # the block's reverse LSTM steps; d_z rows are the (i, f, g, o)
    # pre-activation adjoints, each ((dc or dh) * a) * b * c as on the tape
    h_prev = np.concatenate([np.zeros((1, H)), hs[:-1]]) if s == 0 else hs[first - 1:-1]
    c_prev = np.concatenate([np.zeros((1, H)), cs[:-1]]) if s == 0 else cs[first - 1:-1]
    gi, gf, gg, go, tanh_c = gi[first:], gf[first:], gg[first:], go[first:], tanh_c[first:]
    a = np.stack([gg, c_prev, gi, tanh_c], axis=1)
    b = np.stack([gi, gf, np.ones((rows, H)), go], axis=1)
    c = np.stack([1.0 - gi, 1.0 - gf, 1.0 - gg * gg, 1.0 - go], axis=1)
    keep_c = 1.0 - tanh_c * tanh_c
    d_z = np.empty((rows, 4, H))
    for t in range(rows - 1, -1, -1):
        dh = d_h[t] + p.lstm_wh.T @ dz
        dc = dc + dh * go[t] * keep_c[t]
        np.multiply(a[t, :3], dc, out=d_z[t, :3])
        np.multiply(a[t, 3], dh, out=d_z[t, 3])
        d_z[t] *= b[t]
        d_z[t] *= c[t]
        dc = dc * gf[t]
        dz = d_z[t].reshape(4 * H)
    del a, b, c
    d_z = d_z.reshape(rows, 4 * H, 1)
    x = np.concatenate([p.embedding[labels[s:e]], times[s:e, None] / config.time_scale],
                       axis=1)
    np.add.at(grads["embedding"], labels[s:e][::-1],
              _last_first(np.matmul(p.lstm_wx.T, d_z)[:, :-1, 0]))
    grads["lstm_b"] = _sum_last_first(d_z[:, :, 0], grads["lstm_b"])
    d_z = _blocks(d_z)
    grads["lstm_wx"] = _block_product(d_z, _last_first(x), grads["lstm_wx"])
    grads["lstm_wh"] = _block_product(d_z, _last_first(h_prev), grads["lstm_wh"])
    # copies, so that no view keeps the block's arrays alive into the next one
    return records[:lag].copy(), dz.copy(), dc


# A weight's gradient is a product of the per-row adjoints, last row first,
# by the per-row operands stacked F-ordered (head) or C-ordered (LSTM vectors).
# Long trainings such as acceptance criterion 2 turn on last-bit rounding, and
# BLAS rounds differently per layout and per thread count, so the order, the
# layouts and the split of the inner axis are fixed. The inner axis grows with
# the token count, and OpenBLAS splits a long one differently at one thread
# than at several: numpy's OpenBLAS 0.3.31 rounded every inner length up to
# 384 alike at 1, 2 and 4 threads, and most longer ones differently at 1. So
# each product is summed over consecutive _BLOCK-long stretches of the inner
# axis, first stretch first; _BLOCK is the largest power of two within 384.
#
# backward's row block is _BLOCK rows too, counted from the last row. Row r
# sits at columns (N-1-r)*C... of a head product's inner axis and at column
# N-1-r of an LSTM product's, so a full block is exactly C head stretches and
# one LSTM stretch: adding each block's stretches onto the running products
# keeps their order, and the bits. Only one block's (rows, J*M, C) head
# arrays are alive at once; what spans the stream is its input, forward's
# cells and alignments and the rate adjoint.
_BLOCK = 256


def _last_first(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a[::-1])


def _blocks(a: np.ndarray) -> np.ndarray:
    """(N, k, C) -> C-ordered (k, N*C) whose column block N-1-r is a[r]."""
    return np.ascontiguousarray(a[::-1].transpose(1, 0, 2)).reshape(a.shape[1], -1)


def _rows_product(adj: np.ndarray, operand: np.ndarray, out=None) -> np.ndarray:
    return _block_product(_blocks(adj), _blocks(operand).T, out)


def _block_product(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """a @ b as products over _BLOCK-long stretches of the inner axis, added in
    order onto out (None: the first stretch's product starts the sum)."""
    for s in range(0, a.shape[1], _BLOCK):
        part = a[:, s:s + _BLOCK] @ b[s:s + _BLOCK]
        if out is None:
            out = part
        else:
            out += part
    return out


def _sum_last_first(a: np.ndarray, out=None) -> np.ndarray:
    """Sum over axis 0, one row at a time from the last row, onto out (None:
    the last row starts the sum, so a -0.0 sum stays -0.0)."""
    rows = a[::-1] if out is None else np.concatenate([out[None], a[::-1]])
    return np.add.accumulate(rows, axis=0)[-1].copy()


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, config: ModelConfig, params: ModelParams, steps: int = 0):
    """JSON header + flat little-endian float64 blob, field order as declared."""
    params.validate(config)
    header = {
        "config": dataclasses.asdict(config),
        "steps": int(steps),
        "order": [[name, list(getattr(params, name).shape)] for name in _PARAM_FIELDS],
    }
    blob = params.flatten().astype("<f8").tobytes()
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(head)))
        fh.write(head)
        fh.write(blob)


# retired settings that old checkpoints and manifests carry, each with the one value
# it loads at (... for any): the bank records every token; eval's thread pool is gone
RETIRED = {"bank_real_only": False, "parallel": ...}


def check_settings(stored: dict, settings: dict, source, retired=(), partial=False) -> dict:
    """The values of a stored settings object, given ``{name: (type, default)}``.

    Every setting must be present (unless partial); any other key must be one of
    the retired keys named, at its RETIRED value; a value must have its setting's
    type (streams.is_json), or be None where the default is None. A failed
    check raises ValueError naming source. Returns the settings in declared order.
    """
    missing = [] if partial else [k for k in settings if k not in stored]
    if missing:
        raise ValueError(f"{source} lacks {missing}")
    unknown = sorted(set(stored) - set(settings) - set(retired))
    if unknown:
        raise ValueError(f"{source}: unknown keys {unknown}")
    for key in retired:
        if key in stored and RETIRED[key] is not ... and stored[key] is not RETIRED[key]:
            raise ValueError(f"{source}: {key!r} is {stored[key]!r}: retired, {key} is "
                             f"{stored[key]!r} no longer loads; only {RETIRED[key]!r} does")
    for key, (kind, default) in settings.items():
        if key in stored and not (is_json(stored[key], kind) or stored[key] is default is None):
            raise ValueError(f"{source}: {key} must be {kind.__name__}, got {stored[key]!r}")
    return {key: stored[key] for key in settings if key in stored}


# a checkpoint header and its config object as settings
_HEADER = {"config": (dict, ...), "steps": (int, ...), "order": (list, ...)}
_CONFIG = {f.name: (typing.get_type_hints(ModelConfig)[f.name], f.default)
           for f in dataclasses.fields(ModelConfig)}


def load_checkpoint(path):
    """Returns (config, params, steps); any malformed part raises ValueError.

    The header must hold exactly the config, with every ModelConfig field, the
    step count and the parameter order with the shapes that config implies
    (check_settings). A retired ``bank_real_only`` field loads only at false.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a tppkit checkpoint")
        size = fh.read(4)
        if len(size) != 4:
            raise ValueError(f"{path}: truncated before the header length")
        (head_len,) = struct.unpack("<I", size)
        head, blob = fh.read(head_len), fh.read()
    source = f"{path}: header"
    header = check_settings(read_json_object(head, source), _HEADER, source)
    config = ModelConfig(**check_settings(header["config"], _CONFIG, f"{source} config",
                                          ("bank_real_only",)))
    expected = [[name, list(shape)] for name, shape in ModelParams.shapes(config).items()]
    for want, got in itertools.zip_longest(expected, header["order"]):
        if want != got:
            raise ValueError(f"{path}: header 'order' entry {got!r} does not match {want!r}")
    params = ModelParams.from_flat(config, np.frombuffer(blob, dtype="<f8").astype(np.float64))
    params.validate(config)
    return config, params, header["steps"]
