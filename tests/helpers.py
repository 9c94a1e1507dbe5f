"""Shared test utilities: finite-difference oracles, gradient comparison, tape leaks,
a tape-walking gradient reference, a per-token objective adjoint, a per-epoch
stream validation reference, a per-token augmentation reference, a per-channel
model reference, a brute-force PGEM reference, a node-by-node PGEM simulator,
a checkpoint header editor and a csv.writer intensity-trace writer."""

import csv
import gc
import heapq
import json
import math
import struct

import numpy as np

import tppkit.autodiff as ad
from tppkit.model import forward
from tppkit.streams import Epoch, EventStream
from tppkit.training import _objective


def numerical_grad(f, x, h=1e-5):
    """Central finite differences of scalar f w.r.t. array x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def max_rel_err(a, b, floor=1e-4):
    """Largest elementwise |a-b| / max(|a|, |b|, floor)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def assert_grads_close(analytic, numeric, tol=1e-4, floor=1e-4):
    err = max_rel_err(analytic, numeric, floor=floor)
    assert err < tol, f"gradient mismatch: rel err {err:.3e} >= {tol:.1e}"


def _tracked_nodes() -> int:
    return sum(isinstance(o, ad.Node) for o in gc.get_objects())


def assert_frees_its_tapes(call):
    """call() leaves no Node for the cyclic GC, even with the caller's GC disabled."""
    gc.collect()
    gc.disable()
    try:
        before = _tracked_nodes()
        call()
        assert _tracked_nodes() == before
        assert not gc.isenabled()
    finally:
        gc.enable()


def assert_frees_its_tapes_before_gc_resumes(call, monkeypatch):
    """Whenever a tape scope in call() turns the cyclic GC back on, every Node
    that scope made is already freed, so the collector never walks a dead
    tape (a result that still holds one would cost a full traversal)."""
    gc.collect()
    before = _tracked_nodes()
    seen = []
    enable = gc.enable

    def counting_enable():
        seen.append(_tracked_nodes())
        enable()

    monkeypatch.setattr(gc, "enable", counting_enable)
    try:
        call()
    finally:
        monkeypatch.undo()
    assert seen and all(n == before for n in seen), (before, seen)


def objective_with_grads_on_tape(seq, params, model_cfg, train_cfg):
    """training.objective_with_grads the slow way: the objective's rate adjoint
    carried to the weights by walking the whole forward tape, from the root
    sum(rates * adjoint), with the penalty's gradients added.

    Returns (objective value, LL value, list of the 9 parameter gradients).
    """
    with ad.tape_scope():
        fwd = forward(seq, params, model_cfg)
        value, ll, rate_adj, (d_f1, d_f2) = _objective(seq, fwd.rate_values(), params, train_cfg)
        # the rate vectors stacked into one (N, M+1) node, each row handing
        # its adjoint to its own vector
        rates = ad.Node(fwd.tape, fwd.rate_values(), tuple(fwd.rates), "stack",
                        lambda node, adj: [ad._acc(r, a) for r, a in zip(node.parents, adj)])
        root = ad.vsum(ad.mul(rates, fwd.tape.const(rate_adj)))
        ad.backward(fwd.tape, root)
        pn = fwd.params
        for leaf, d in ((pn.f1_w, d_f1), (pn.f2_w, d_f2)):
            grad = leaf.grad
            grad += d
        return value, ll, pn.grads()


def rate_adjoint_by_definition(seq, rates, pred_weight):
    """The objective's gradient with respect to the (N, M+1) rates, one token at
    a time: 1/rate at the true label of a real event, minus the elapsed time on
    each real channel, and minus pred_weight * (softmax - one-hot) / targets on
    every row whose token is a target (not EOS)."""
    M = seq.label_count
    times, labels = seq.times, seq.labels
    eos = len(seq) - 1
    targets = max(eos - 1, 1)
    adj = np.zeros_like(rates)
    for i in range(eos):
        t, label = times[i + 1], labels[i + 1]
        if label < M:
            adj[i, label] += 1.0 / rates[i, label]
        adj[i, :M] -= t - times[i]
        if i + 1 != eos:
            e = np.exp(rates[i] - rates[i].max())
            softmax_minus_onehot = e / e.sum()
            softmax_minus_onehot[label] -= 1.0
            adj[i] -= pred_weight * softmax_minus_onehot / targets
    return adj


def validate_epochs_by_definition(epochs, horizon, label_count):
    """EventStream's epoch checks one epoch at a time, in order: the time finite
    and >= 0, then strictly increasing, then within the horizon, then the label
    an integer, then in [0, label_count). Raises the ValueError of the first
    check that fails, with the failing epoch's place in epochs as its index
    attribute."""
    prev = -1.0
    for i, e in enumerate(epochs):
        if not (math.isfinite(e.time) and e.time >= 0.0):
            message = f"epoch time must be finite and >= 0, got {e.time}"
        elif e.time <= prev:
            message = f"epoch times must be strictly increasing at t={e.time}"
        elif e.time > horizon:
            message = f"epoch time {e.time} exceeds horizon {horizon}"
        elif not e.label // 1 == e.label:  # not for a fraction, inf or nan
            message = f"label {e.label} is not an integer"
        elif not (0 <= e.label < label_count):
            message = f"label {e.label} out of range [0, {label_count})"
        else:
            prev = e.time
            continue
        exc = ValueError(message)
        exc.index = i
        raise exc


def augment_by_definition(stream, fake_count):
    """streams.augment's (times, labels) one token at a time: BOS, then for each
    gap of the skeleton BOS, events, EOS its opening token and, when the gap is
    positive, fake_count fakes at a + j * (b - a) / (K + 1); then EOS."""
    m = stream.label_count
    skeleton = [(0.0, m)] + [(e.time, e.label) for e in stream.epochs] + [(stream.horizon, m)]
    tokens = []
    for (ta, la), (tb, _) in zip(skeleton, skeleton[1:]):
        tokens.append((ta, la))
        if fake_count > 0 and tb > ta:
            width = tb - ta
            for j in range(1, fake_count + 1):
                tokens.append((ta + j * width / (fake_count + 1), m))
    tokens.append(skeleton[-1])
    times, labels = zip(*tokens)
    return np.array(times), np.array(labels)


def _sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


def forward_by_definition(seq, params, cfg):
    """model.forward's rates and attention in plain numpy, with no tape: one token,
    one channel and one bank entry at a time.

    Returns the (len(seq)-1, M+1) rate array and, per rate row, the
    (entries, M+1) alignment array (None when memory_depth is 0), its rows
    ordered oldest record first and by label within a record.
    """
    m, M, C, H = cfg.channel_width, cfg.label_count, cfg.channel_count, cfg.hidden_dim
    p = params
    h, c = np.zeros(H), np.zeros(H)
    records = []  # each: the M real-label channel slices of one recorded state
    rates, attention = [], []
    for i, (t, label) in enumerate(zip(seq.times, seq.labels)):
        if i:
            dt = (t - seq.times[i - 1]) / cfg.time_scale
            entries = [e for record in records for e in record]
            alpha = np.zeros((len(entries), C))
            row = np.zeros(C)
            for k in range(C):
                h_k = h[k * m:(k + 1) * m]
                context = np.zeros(m)
                if entries:
                    scores = np.array([float(e @ h_k) for e in entries])
                    weights = np.exp(scores - scores.max())
                    alpha[:, k] = weights / weights.sum()
                    for a, e in zip(alpha[:, k], entries):
                        context = context + a * e
                net = np.tanh(p.attn_w @ np.concatenate([context, h_k]))
                hidden = np.maximum(p.f1_w @ np.append(net, dt) + p.f1_b, 0.0)
                out = float((p.f2_w @ hidden + p.f2_b)[0])
                row[k] = math.log1p(math.exp(-abs(out))) + max(out, 0.0)
            rates.append(row)
            attention.append(alpha if entries else None)
        x = np.append(p.embedding[label], t / cfg.time_scale)
        z = p.lstm_wx @ x + p.lstm_b + p.lstm_wh @ h
        gi, gf, gg, go = (z[g * H:(g + 1) * H] for g in range(4))
        c = _sigmoid(gf) * c + _sigmoid(gi) * np.tanh(gg)
        h = _sigmoid(go) * np.tanh(c)
        if cfg.memory_depth:
            records.append([h[q * m:(q + 1) * m] for q in range(M)])
            records = records[-cfg.memory_depth:]
    return np.array(rates), attention


def pgem_rates_by_definition(spec, stream, q):
    """PGEM rate vector at q: parent p with window w is active iff any(s < q <= s + w)
    over p's event times s."""
    rates = []
    for node in spec.nodes:
        bits = tuple(int(any(e.label == p and e.time < q <= e.time + w for e in stream.epochs))
                     for p, w in zip(node.parents, node.windows))
        rates.append(node.rates[bits])
    return np.array(rates)


def pgem_ll_by_definition(spec, stream):
    """Log rates at the events minus the integral over a grid holding every event
    and window expiry, each rate taken from the definition."""
    horizon = stream.horizon
    grid = {0.0, horizon}
    for e in stream.epochs:
        grid.add(e.time)
        grid.update(e.time + w for node in spec.nodes
                    for p, w in zip(node.parents, node.windows) if p == e.label)
    grid = sorted(x for x in grid if x <= horizon)
    integral = sum((b - a) * pgem_rates_by_definition(spec, stream, 0.5 * (a + b)).sum()
                   for a, b in zip(grid[:-1], grid[1:]))
    log_sum = sum(math.log(pgem_rates_by_definition(spec, stream, e.time)[e.label])
                  for e in stream.epochs)
    return log_sum - integral


def simulate_by_definition(spec, horizon, seed, steps=None):
    """The slow reference for pgem.simulate, node by node: per step, each
    node's rate from its own edge tests (a parent is active iff its latest
    event lies in (t-w, t]), then M scalar rng.exponential(1 / rate) draws and
    np.argmin. Candidates are redrawn after every event or window expiry.
    Each step appends its time and rate vector to steps, if given a list."""
    if not (0.0 <= horizon < math.inf):  # nan or inf would never end the loop
        raise ValueError(f"horizon must be finite and >= 0, got {horizon}")
    rng = np.random.default_rng(seed)
    nodes = [(node.table.tolist(), tuple(zip(node.parents, node.windows))) for node in spec.nodes]
    last = [-math.inf] * spec.label_count  # latest event time per label
    windows = {}  # parent label -> the windows of its out-edges
    for node in spec.nodes:
        for p, w in zip(node.parents, node.windows):
            windows.setdefault(p, set()).add(w)
    expiries: list[float] = []
    epochs = []
    t = 0.0
    while True:
        rates = []
        for table, edges in nodes:
            index = 0
            for p, w in edges:
                index = 2 * index + (last[p] > t - w)
            rates.append(table[index])
        if steps is not None:
            steps.append((t, rates))
        draws = [t + rng.exponential(1.0 / r) for r in rates]
        k_star = int(np.argmin(draws))
        t_cand = draws[k_star]
        t_exp = expiries[0] if expiries else math.inf
        if t_cand <= t_exp:
            if t_cand > horizon:
                break
            epochs.append(Epoch(t_cand, k_star))
            last[k_star] = t_cand
            for w in sorted(windows.get(k_star, ())):
                heapq.heappush(expiries, t_cand + w)
            t = t_cand
        else:
            if t_exp > horizon:
                break
            t = t_exp
            while expiries and expiries[0] <= t:
                heapq.heappop(expiries)
    return EventStream(tuple(epochs), horizon, spec.label_count)


def rewrite_checkpoint_header(path, edit):
    """Apply edit to a checkpoint's parsed JSON header in place and rewrite the file."""
    raw = path.read_bytes()
    (n,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12:12 + n])
    edit(header)
    head = json.dumps(header).encode()
    path.write_bytes(raw[:8] + struct.pack("<I", len(head)) + head + raw[12 + n:])


def trace_csv_by_definition(trace, path):
    """Write ``trace`` one csv.writer row per (token, real label), from Python floats."""
    rows = []
    times, labels = trace.times.tolist(), trace.labels.tolist()
    for i, (time, token_label) in enumerate(zip(times, labels)):
        for label in range(trace.rates.shape[1]):
            rows.append((time, label, float(trace.rates[i, label]), token_label == label))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "label", "lambda", "is_real_event"])
        for t, label, lam, is_real in rows:
            writer.writerow([repr(t), label, repr(lam), int(is_real)])
