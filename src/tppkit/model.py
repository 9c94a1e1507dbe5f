"""Multi-channel recurrent intensity network.

One shared LSTM runs over the augmented token sequence; its hidden vector of
size m*(M+1) is read as M+1 contiguous per-label channels. A memory bank keeps
the channel slices from the most recent J tokens, and each channel attends
over the bank (dot-product scores) to form a net hidden state. A small
feed-forward stack maps [net state, elapsed time] to a positive rate via
softplus. Rates for token i are always computed from the state strictly
before token i.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .streams import AugmentedSequence, Token, TokenKind

__all__ = [
    "ModelConfig", "ModelParams", "ParamNodes", "LstmState", "MemoryBank",
    "ForwardResult", "encode_token", "lstm_step", "attend", "intensity",
    "forward", "save_checkpoint", "load_checkpoint",
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
        if not (self.time_scale > 0.0):
            raise ValueError("time_scale must be positive")

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

    def n_params(self) -> int:
        return sum(a.size for a in self.arrays())

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


@dataclass
class LstmState:
    """Hidden and cell vectors of length m*(M+1); channel k is slice [k*m, (k+1)*m)."""

    h: ad.Node
    c: ad.Node


class MemoryBank:
    """Real-label channel slices from the most recent ``depth`` recorded tokens.

    Each push stores one post-token (M, m) matrix whose row q is label q's
    channel slice; steps are ordered oldest to newest and capped at depth,
    so the bank exposes at most depth * M attendable entries.
    """

    def __init__(self, depth: int, label_count: int):
        self.depth = depth
        self.label_count = label_count
        self._steps = []        # each: (M, m) matrix node
        self._stacked = None

    def __len__(self):
        return len(self._steps) * self.label_count

    @property
    def steps(self) -> int:
        return len(self._steps)

    def push(self, step_matrix: ad.Node):
        if self.depth == 0:
            return
        if step_matrix.value.shape[0] != self.label_count:
            raise ValueError("bank push needs one row per real label")
        self._steps.append(step_matrix)
        if len(self._steps) > self.depth:
            self._steps.pop(0)
        self._stacked = None

    def entries(self):
        """Flat (slot, label) index list aligned with stacked() rows; slot 0 is oldest."""
        return [(j, q) for j in range(len(self._steps)) for q in range(self.label_count)]

    def stacked(self) -> ad.Node | None:
        """All entries as one (steps*M, m) matrix node, cached until next push."""
        if not self._steps:
            return None
        if self._stacked is None:
            if len(self._steps) == 1:
                self._stacked = self._steps[0]
            else:
                self._stacked = ad.concat_rows(self._steps)
        return self._stacked


def encode_token(token: Token, pn: ParamNodes, config: ModelConfig) -> ad.Node:
    """Embedding row for the label (fake row for BOS/EOS/FAKE) plus scaled time."""
    label = token.label if token.kind is TokenKind.REAL else config.label_count
    emb = ad.row(pn.embedding, label)
    t = emb.tape.const(np.array([token.time / config.time_scale]))
    return ad.concat([emb, t])


def lstm_step(x: ad.Node, state: LstmState, pn: ParamNodes) -> LstmState:
    """Single LSTM cell update over the full multi-channel hidden vector."""
    h_dim = state.h.value.shape[0]
    z = ad.add(ad.linear(pn.lstm_wx, x, pn.lstm_b), ad.matvec(pn.lstm_wh, state.h))
    i = ad.sigmoid(ad.vslice(z, 0, h_dim))
    f = ad.sigmoid(ad.vslice(z, h_dim, 2 * h_dim))
    g = ad.tanh(ad.vslice(z, 2 * h_dim, 3 * h_dim))
    o = ad.sigmoid(ad.vslice(z, 3 * h_dim, 4 * h_dim))
    c = ad.add(ad.mul(f, state.c), ad.mul(i, g))
    h = ad.mul(o, ad.tanh(c))
    return LstmState(h, c)


def attend(h_k: ad.Node, bank: MemoryBank, pn: ParamNodes):
    """Net hidden state for one channel: tanh(W_c [context, h_k]).

    The context is the alignment-weighted average of the bank entries, with
    dot-product scores against h_k; an empty bank yields a zero context.
    Returns (net state, alignment node or None).
    """
    tape = h_k.tape
    stacked = bank.stacked()
    if stacked is None:
        alpha = None
        context = tape.const(np.zeros(h_k.value.shape[0]))
    else:
        scores = ad.matvec(stacked, h_k)
        alpha = ad.softmax(scores)
        context = ad.matvec_t(stacked, alpha)
    net = ad.tanh(ad.matvec(pn.attn_w, ad.concat([context, h_k])))
    return net, alpha


def intensity(h_net_k: ad.Node, dt_scaled: float, pn: ParamNodes) -> ad.Node:
    """Positive rate for one channel from its net state and elapsed time."""
    if dt_scaled < 0.0:
        raise ValueError("elapsed time must be >= 0")
    tape = h_net_k.tape
    z = ad.concat([h_net_k, tape.const(np.array([dt_scaled]))])
    hidden = ad.relu(ad.linear(pn.f1_w, z, pn.f1_b))
    out = ad.linear(pn.f2_w, hidden, pn.f2_b)
    return ad.softplus(ad.vsum(out))


@dataclass
class ForwardResult:
    """Rates and attention for one sequence, with the tape still attached.

    rates[i] is the (M+1,) vector node of channel rates predicted at
    tokens[i+1]; attention[i] is an (alignments, entries) pair where
    alignments is the (bank_size, M+1) array of per-channel alignment weights
    recorded before tokens[i+1] (None while the bank is empty) and entries
    lists the bank's (slot, label) indices row by row.
    """

    tape: ad.Tape
    params: ParamNodes
    rates: list
    attention: list
    seq: AugmentedSequence

    def rate_values(self) -> np.ndarray:
        """(len(tokens)-1, M+1) array of rate values."""
        return np.array([vec.value for vec in self.rates])


def _bank_accepts(kind: TokenKind, config: ModelConfig) -> bool:
    if config.bank_real_only:
        return kind is TokenKind.REAL
    return True


def forward(seq: AugmentedSequence, params: ModelParams, config: ModelConfig,
            checked: bool = False) -> ForwardResult:
    """Run the network over an augmented sequence.

    For every token i >= 1: the state after token i-1 is sliced into channels,
    each channel attends over the bank as of i-1, and the rate vector at t_i
    is produced from (net state, t_i - t_{i-1}). Token i is then encoded,
    stepped through the LSTM, and the bank records the new state's real-label
    slices (after every token kind by default, only after real events when
    config.bank_real_only is set).

    All channels of a token are computed in one batched pass; the result is
    identical to composing attend/intensity per channel (see the tests).
    """
    if seq.label_count != config.label_count:
        raise ValueError(
            f"sequence has {seq.label_count} labels, model expects {config.label_count}")
    m = config.channel_width
    M = config.label_count
    C = config.channel_count
    tape = ad.Tape(checked=checked)
    pn = ParamNodes.create(tape, params)
    state = LstmState(tape.const(np.zeros(config.hidden_dim)),
                      tape.const(np.zeros(config.hidden_dim)))
    bank = MemoryBank(config.memory_depth, M)

    tokens = seq.tokens
    state = lstm_step(encode_token(tokens[0], pn, config), state, pn)
    channels = ad.reshape(state.h, (C, m))
    if _bank_accepts(tokens[0].kind, config):
        bank.push(ad.rowslice(channels, 0, M))

    rates = []
    attention = []
    for i in range(1, len(tokens)):
        tok = tokens[i]
        dt = (tok.time - tokens[i - 1].time) / config.time_scale
        h_t = ad.transpose(channels)                      # (m, C), column k = h_k
        stacked = bank.stacked()
        if stacked is None:
            alpha = None
            contexts = tape.const(np.zeros((m, C)))
        else:
            scores = ad.matmul(stacked, h_t)              # (bank, C)
            alpha = ad.softmax_cols(scores)
            contexts = ad.matmul(ad.transpose(stacked), alpha)
        cat = ad.concat_rows([contexts, h_t])             # (2m, C)
        net = ad.tanh(ad.matmul(pn.attn_w, cat))          # (m, C)
        z = ad.concat_rows([net, tape.const(np.full((1, C), dt))])
        hidden = ad.relu(ad.add_col(ad.matmul(pn.f1_w, z), pn.f1_b))
        out = ad.add_col(ad.matmul(pn.f2_w, hidden), pn.f2_b)
        rates.append(ad.softplus(ad.row(out, 0)))         # (C,)
        attention.append((None if alpha is None else alpha.value, bank.entries()))

        state = lstm_step(encode_token(tok, pn, config), state, pn)
        channels = ad.reshape(state.h, (C, m))
        if i < len(tokens) - 1 and _bank_accepts(tok.kind, config):
            bank.push(ad.rowslice(channels, 0, M))
    return ForwardResult(tape, pn, rates, attention, seq)


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
