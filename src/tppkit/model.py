"""Multi-channel recurrent intensity network.

One shared LSTM runs over the augmented sequence, reading each token as the
embedding row of its label (M for BOS, fakes and EOS) and its scaled time
(``encode_token``); its hidden vector of size m*(M+1) is read as M+1
contiguous per-label channels. The memory bank is one matrix of the
real-label channel slices from the most recent J recorded tokens, oldest
first (at most J*M rows of width m). All channels attend over it at once,
as one (m, M+1) channel matrix with dot-product scores, to form their net
hidden states (``attend``); a small feed-forward stack then maps each column
[net state, elapsed time] to a positive rate via softplus (``intensity``).
Rates for token i are always computed from the state strictly before token i.

``forward`` builds these ops on an autodiff tape, token by token, and keeps
each token's LSTM values; nothing in the package walks that tape.
``backward`` takes the adjoint of the rate matrix, which the training
objective's numpy terms return, to the parameters with one batched pass over
the attention-and-rate head and one reverse loop over the LSTM.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .streams import AugmentedSequence

__all__ = [
    "ModelConfig", "ModelParams", "ParamNodes", "ForwardResult", "encode_token",
    "lstm_step", "attend", "intensity", "forward", "backward", "save_checkpoint",
    "load_checkpoint",
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
    bank_real_only: bool = False

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
    (rows, m) matrix of recorded channel slices, or None while it is empty.
    Channel k's context is the alignment-weighted average of the bank rows,
    with dot-product scores against h_k; an empty bank yields a zero context.
    Returns the (m, C) net states and the (rows, C) alignment node (None for
    an empty bank).
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
    weights recorded before token i+1, or None while the bank is empty. Row
    j*M + q holds label q's channel slice from the j-th oldest record in the
    bank. cells[i] holds the LSTM values after token i (see
    ``lstm_step``), read by ``backward``.
    """

    tape: ad.Tape
    params: ParamNodes
    rates: list
    attention: list
    seq: AugmentedSequence
    cells: list

    def rate_values(self) -> np.ndarray:
        """(len(seq)-1, M+1) array of rate values."""
        return np.array([vec.value for vec in self.rates])


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def forward(seq: AugmentedSequence, params: ModelParams, config: ModelConfig) -> ForwardResult:
    """Run the network over an augmented sequence.

    For every token i >= 1, the state after token i-1 is read as the (m, C)
    channel matrix, all channels attend over the bank as of i-1 at once, and
    the rate vector at t_i is produced from (net states, t_i - t_{i-1}).
    The label and time of token i are then encoded and stepped through the LSTM.
    The bank records the new state's real-label slices after every token by
    default, or only after real events (labels below M) when
    config.bank_real_only is set, and keeps the
    last memory_depth records. Overflow raises no numpy warning; it shows as
    rates that are not finite and positive, which the callers report.
    """
    if seq.label_count != config.label_count:
        raise ValueError(
            f"sequence has {seq.label_count} labels, model expects {config.label_count}")
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
        if (depth and i < len(times) - 1
                and (label < M or not config.bank_real_only)):
            records = (records + [ad.rowslice(channels, 0, M)])[-depth:]
            bank = None
    return ForwardResult(tape, pn, rates, attention, seq, cells)


def backward(seq: AugmentedSequence, params: ModelParams, config: ModelConfig,
             cells: list, rate_adj: np.ndarray) -> ModelParams:
    """Fresh parameter gradients from the adjoint of forward's (N, M+1) rates.

    cells is ForwardResult.cells. The head is recomputed and reversed for all
    N rows at once, each step one product batched over the rows in the
    shapes and layouts of forward's per-row products; row r attends over the
    last J recorded tokens at or before r, one (N, J) index array with
    padding slots masked. One reverse loop over the LSTM follows. Elementwise
    steps use the tape's formulas in its order and sums over rows run from
    the last row, as the tape's reverse walk adds them: in the default bank
    mode every per-token adjoint equals the tape's to the last bit.
    """
    m, M, C, H = config.channel_width, config.label_count, config.channel_count, config.hidden_dim
    p = params
    n = len(seq) - 1
    hs, cs, gi, gf, gg, go, tanh_c = np.array(cells[:n]).transpose(1, 0, 2)
    times = seq.times
    labels = seq.labels[:n]
    recorded = np.flatnonzero(seq.is_real[:n]) if config.bank_real_only else np.arange(n)
    depth = config.memory_depth if recorded.size else 0
    slots = recorded.searchsorted(np.arange(n), side="right")[:, None] + np.arange(-depth, 0)
    idx = recorded[np.maximum(slots, 0)]                       # (n, J) bank token positions
    bank = hs[idx, :M * m].reshape(n, depth * M, m)            # row j*M + q: slot j, label q
    chans = hs.reshape(n, C, m)
    query = chans.transpose(0, 2, 1)                           # (n, m, C), column k = h_k
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # masked softmax over each row's bank, in place; a row with an empty
        # bank keeps all-zero weights and so a zero context
        alpha = np.matmul(bank, query)
        np.copyto(alpha, -np.inf, where=np.repeat(slots < 0, M, axis=1)[:, :, None])
        top = alpha.max(axis=1, keepdims=True, initial=-np.inf)
        alpha -= np.where(top == -np.inf, 0.0, top)
        np.exp(alpha, out=alpha)
        alpha /= np.maximum(alpha.sum(axis=1, keepdims=True), 1.0)  # a bank's max entry is 1
        u = np.concatenate([np.matmul(bank.transpose(0, 2, 1), alpha), query], axis=1)
        net = np.tanh(np.matmul(p.attn_w, u))
        dts = np.diff(times) / config.time_scale
        z = np.concatenate([net, np.broadcast_to(dts[:, None, None], (n, 1, C))], axis=1)
        hidden = np.maximum(np.matmul(p.f1_w, z) + p.f1_b[:, None], 0.0)

        # reverse through the head, taking each weight's gradient as soon as
        # its operands are final and then dropping them; d_alpha becomes the
        # score adjoint in place
        d_out = rate_adj[:, None, :] * ad._sigmoid_val(np.matmul(p.f2_w, hidden) + p.f2_b[:, None])
        grads = {"f2_w": _rows_product(d_out, hidden), "f2_b": _sum_last_first(d_out.sum(axis=2))}
        d_z1 = p.f2_w.T * d_out
        d_z1 *= hidden > 0.0                                   # relu's mask, as z1 > 0
        del hidden
        grads["f1_w"], grads["f1_b"] = _rows_product(d_z1, z), _sum_last_first(d_z1.sum(axis=2))
        d_pre = np.matmul(p.f1_w.T, d_z1)[:, :m] * (1.0 - net * net)
        del z, d_z1, net
        grads["attn_w"] = _rows_product(d_pre, u)
        d_u = np.matmul(p.attn_w.T, d_pre)
        del u, d_pre
        d_alpha = np.matmul(bank, d_u[:, :m])
        d_ctx_bank = np.matmul(d_u[:, :m], alpha.transpose(0, 2, 1)).transpose(0, 2, 1)
        rowdot = np.zeros((n, C))
        for j in range(depth * M):               # summed bank row by bank row, as the tape does
            rowdot += alpha[:, j] * d_alpha[:, j]
        d_alpha -= rowdot[:, None]
        d_alpha *= alpha
        del alpha
        d_score_bank = np.matmul(d_alpha, chans).reshape(n, depth, M * m)
        d_h = (d_u[:, m:] + np.matmul(bank.transpose(0, 2, 1), d_alpha)).transpose(0, 2, 1)
        del d_alpha, d_u, bank
        # a row whose bank is one record hands it the context and the score
        # part one after the other (on the tape that bank is the record's own
        # node); other rows hand each record the sum of the two
        single = (slots >= 0).sum(axis=1) == 1
        d_bank = d_ctx_bank.reshape(n, depth, M * m) + d_score_bank * ~single[:, None, None]
        records = np.zeros((n, M * m))
        np.add.at(records, _last_first(idx), _last_first(d_bank))
        np.add.at(records, _last_first(idx[single]), _last_first(d_score_bank[single]))
        del d_ctx_bank, d_score_bank, d_bank
        d_h = d_h.reshape(n, H)
        d_h[:, :M * m] += records

        # one reverse loop over the LSTM; d_z rows are the (i, f, g, o)
        # pre-activation adjoints, each ((dc or dh) * a) * b * c as on the tape
        c_prev = np.concatenate([np.zeros((1, H)), cs[:-1]])
        a = np.stack([gg, c_prev, gi, tanh_c], axis=1)
        b = np.stack([gi, gf, np.ones((n, H)), go], axis=1)
        c = np.stack([1.0 - gi, 1.0 - gf, 1.0 - gg * gg, 1.0 - go], axis=1)
        keep_c = 1.0 - tanh_c * tanh_c
        d_z = np.empty((n, 4, H))
        dz, dc = np.zeros(4 * H), np.zeros(H)
        for t in range(n - 1, -1, -1):
            dh = d_h[t] + p.lstm_wh.T @ dz
            dc = dc + dh * go[t] * keep_c[t]
            np.multiply(a[t, :3], dc, out=d_z[t, :3])
            np.multiply(a[t, 3], dh, out=d_z[t, 3])
            d_z[t] *= b[t]
            d_z[t] *= c[t]
            dc = dc * gf[t]
            dz = d_z[t].reshape(4 * H)
        del a, b, c
        d_z = d_z.reshape(n, 4 * H, 1)
        x = np.concatenate([p.embedding[labels], times[:n, None] / config.time_scale], axis=1)
        h_prev = np.concatenate([np.zeros((1, H)), hs[:-1]])
        d_emb = np.zeros_like(p.embedding)
        np.add.at(d_emb, labels[::-1], _last_first(np.matmul(p.lstm_wx.T, d_z)[:, :-1, 0]))
        grads["lstm_b"] = _sum_last_first(d_z[:, :, 0])
        d_z = _blocks(d_z)
        grads["lstm_wx"], grads["lstm_wh"] = d_z @ _last_first(x), d_z @ _last_first(h_prev)
        return ModelParams(embedding=d_emb, **grads)


# A weight's gradient is one product of the per-row adjoints, last row first,
# by the per-row operands stacked F-ordered (head) or C-ordered (LSTM vectors).
# BLAS rounds differently per layout, and long trainings such as acceptance
# criterion 2 turn on last-bit rounding, so the order and layouts are fixed.

def _last_first(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a[::-1])


def _blocks(a: np.ndarray) -> np.ndarray:
    """(N, k, C) -> C-ordered (k, N*C) whose column block N-1-r is a[r]."""
    return np.ascontiguousarray(a[::-1].transpose(1, 0, 2)).reshape(a.shape[1], -1)


def _rows_product(adj: np.ndarray, operand: np.ndarray) -> np.ndarray:
    return _blocks(adj) @ _blocks(operand).T


def _sum_last_first(a: np.ndarray) -> np.ndarray:
    """Sum over axis 0, one row at a time from the last row."""
    return np.add.accumulate(a[::-1], axis=0)[-1].copy()


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


_HEADER_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,)}


def _check_header_type(path, name: str, value, kind: str):
    # bool is an int subclass, so it passes only where a bool is expected
    if isinstance(value, bool) != (kind == "bool") or not isinstance(value, _HEADER_TYPES[kind]):
        raise ValueError(f"{path}: header field {name!r} must be {kind}, got {value!r}")


def load_checkpoint(path):
    """Returns (config, params, steps); any malformed part raises ValueError.

    The header must carry every ModelConfig field, the step count, and the
    parameter order with the shapes that config implies.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a tppkit checkpoint")
        size = fh.read(4)
        if len(size) != 4:
            raise ValueError(f"{path}: truncated before the header length")
        (head_len,) = struct.unpack("<I", size)
        try:
            header = json.loads(fh.read(head_len).decode("utf-8"))
        except RecursionError:
            raise ValueError(f"{path}: header nests too deeply") from None
        blob = fh.read()
    if not isinstance(header, dict) or not isinstance(header.get("config"), dict):
        raise ValueError(f"{path}: header lacks a config object")
    fields = {f.name for f in dataclasses.fields(ModelConfig)}
    cfg = header["config"]
    missing = sorted(fields - set(cfg)) + [k for k in ("steps", "order") if k not in header]
    if missing:
        raise ValueError(f"{path}: header lacks {missing}")
    unknown = sorted(set(cfg) - fields)
    if unknown:
        raise ValueError(f"{path}: header config has unknown fields {unknown}")
    for f in dataclasses.fields(ModelConfig):
        _check_header_type(path, f.name, cfg[f.name], f.type)
    _check_header_type(path, "steps", header["steps"], "int")
    try:
        config = ModelConfig(**cfg)
        steps = header["steps"]
        expected = [[name, list(shape)] for name, shape in ModelParams.shapes(config).items()]
        for want, got in itertools.zip_longest(expected, header["order"]):
            if want != got:
                raise ValueError(f"{path}: header 'order' entry {got!r} does not match {want!r}")
    except TypeError as exc:
        raise ValueError(f"{path}: bad header value: {exc}") from None
    flat = np.frombuffer(blob, dtype="<f8").astype(np.float64)
    params = ModelParams.from_flat(config, flat)
    params.validate(config)
    return config, params, steps
