import hashlib
import math
import struct
import tracemalloc
import weakref

import numpy as np
import pytest

import tppkit.autodiff as ad
from tppkit.model import (
    CHECKPOINT_MAGIC, ModelConfig, ModelParams, _net_rows, _rate_head, attend,
    backward, encode_token, forward, intensity, load_checkpoint, lstm_step, save_checkpoint,
)
from tppkit.streams import Epoch, EventStream, augment
from helpers import (
    assert_grads_close, forward_by_definition, numerical_grad, rewrite_checkpoint_header,
)


def tiny_config(**kw):
    base = dict(label_count=2, channel_width=3, embed_dim=4, memory_depth=2,
                fake_count=1, hidden_width=5, time_scale=1.0)
    base.update(kw)
    return ModelConfig(**base)


def make_seq(times, labels, horizon, m, k=1):
    s = EventStream(tuple(Epoch(t, l) for t, l in zip(times, labels)), horizon, m)
    return augment(s, k)


def zero_params(config):
    p = ModelParams.init(config, seed=0)
    for a in p.arrays():
        a[:] = 0.0
    return p


def test_on_tape_leaves_are_the_arrays_themselves():
    params = ModelParams.init(tiny_config(), seed=1)
    pn = params.on_tape(ad.Tape())
    assert [(n.op, n.parents, n.value is a) for n, a in zip(pn.arrays(), params.arrays())] == [
        (name, (), True) for name in params.names()]


class TestEncodeToken:
    def test_bos_uses_fake_row_and_zero_time(self):
        cfg = tiny_config()
        params = ModelParams.init(cfg, seed=1)
        tape = ad.Tape()
        pn = params.on_tape(tape)
        x = encode_token(cfg.label_count, 0.0, pn, cfg)
        assert np.allclose(x.value[:-1], params.embedding[cfg.label_count])
        assert x.value[-1] == 0.0

    def test_real_token_row_and_time(self):
        cfg = tiny_config(time_scale=2.0)
        params = ModelParams.init(cfg, seed=1)
        tape = ad.Tape()
        pn = params.on_tape(tape)
        x = encode_token(1, 3.2, pn, cfg)
        assert np.allclose(x.value[:-1], params.embedding[1])
        assert x.value[-1] == pytest.approx(1.6)

    def test_injective_over_label_time_pairs(self):
        cfg = tiny_config()
        params = ModelParams.init(cfg, seed=3)
        tape = ad.Tape()
        pn = params.on_tape(tape)
        rng = np.random.default_rng(0)
        seen = []
        for _ in range(100):
            lab = int(rng.integers(0, cfg.label_count))
            t = float(rng.uniform(0, 10))
            x = encode_token(lab, t, pn, cfg).value
            for prev in seen:
                assert not np.allclose(prev, x)
            seen.append(x)


class TestLstmStep:
    def test_zero_weights_fixed_point(self):
        cfg = tiny_config()
        params = zero_params(cfg)
        tape = ad.Tape()
        pn = params.on_tape(tape)
        h0 = tape.const(np.zeros(cfg.hidden_dim))
        c0 = tape.const(np.zeros(cfg.hidden_dim))
        x = tape.const(np.ones(cfg.embed_dim + 1))
        h, c, _ = lstm_step(x, (h0, c0), pn)
        assert np.allclose(h.value, 0.0)
        assert np.allclose(c.value, 0.0)

    def test_forget_gate_saturation_retains_cell(self):
        cfg = tiny_config()
        params = zero_params(cfg)
        h = cfg.hidden_dim
        params.lstm_b[h:2 * h] = 10.0  # forget gate ~1
        tape = ad.Tape()
        pn = params.on_tape(tape)
        rng = np.random.default_rng(5)
        c0v = rng.normal(size=h)
        st0 = (tape.const(np.zeros(h)), tape.const(c0v))
        _, c, _ = lstm_step(tape.const(np.zeros(cfg.embed_dim + 1)), st0, pn)
        # i ~ 0.5 and g = 0, so c' = f*c with f = sigmoid(10)
        assert np.max(np.abs(c.value - c0v)) < 1e-4 * np.max(np.abs(c0v))

    def test_gradients_through_chained_steps(self):
        cfg = ModelConfig(label_count=1, channel_width=2, embed_dim=2,
                          memory_depth=0, hidden_width=3)
        params = ModelParams.init(cfg, seed=7)
        xs = np.random.default_rng(8).normal(size=(5, cfg.embed_dim + 1))

        def run_on(p):
            tape = ad.Tape()
            pn = p.on_tape(tape)
            st = (tape.const(np.zeros(cfg.hidden_dim)), tape.const(np.zeros(cfg.hidden_dim)))
            for i in range(5):
                st = lstm_step(tape.const(xs[i]), st, pn)[:2]
            return tape, pn, ad.vsum(ad.tanh(st[0]))

        tape, pn, loss = run_on(params)
        ad.backward(tape, loss)
        flat_grad = np.concatenate([n.grad.ravel() for n in pn.arrays()])

        def f(flat):
            p = ModelParams.from_flat(cfg, flat)
            _, _, node = run_on(p)
            return float(node.value)

        fd = numerical_grad(f, params.flatten())
        assert_grads_close(flat_grad, fd)


class TestAttend:
    def setup_method(self):
        self.cfg = tiny_config()
        self.params = ModelParams.init(self.cfg, seed=11)

    def test_singleton_bank(self):
        tape = ad.Tape()
        pn = self.params.on_tape(tape)
        entry = np.array([[1.0, 2.0, 3.0]])
        h_t = tape.const(np.array([[0.5], [-0.5], [1.0]]))
        net, alpha = attend(h_t, tape.const(entry), pn)
        assert alpha.value.shape == (1, 1)
        assert alpha.value[0, 0] == pytest.approx(1.0)
        cat = np.concatenate([entry[0], h_t.value[:, 0]])
        assert np.allclose(net.value[:, 0], np.tanh(self.params.attn_w @ cat))

    def test_orthogonal_entries_give_uniform_alpha(self):
        tape = ad.Tape()
        pn = self.params.on_tape(tape)
        bank = tape.const(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                    [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]))
        # both channels are orthogonal to all entries
        h_t = tape.const(np.array([[0.0, 0.0], [0.0, 0.0], [7.0, -2.0]]))
        _, alpha = attend(h_t, bank, pn)
        assert np.allclose(alpha.value, 0.25)

    def test_empty_bank_zero_context(self):
        tape = ad.Tape()
        pn = self.params.on_tape(tape)
        hv = np.array([[0.5, 2.0], [-0.5, 0.0], [1.0, -1.0]])
        net, alpha = attend(tape.const(hv), None, pn)
        assert alpha is None
        for k in range(2):
            cat = np.concatenate([np.zeros(3), hv[:, k]])
            assert np.allclose(net.value[:, k], np.tanh(self.params.attn_w @ cat))

    def test_alpha_matches_explicit_enumeration(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            tape = ad.Tape()
            pn = self.params.on_tape(tape)
            entries = rng.normal(size=(6, 3))
            hv = rng.normal(size=(3, 4))
            _, alpha = attend(tape.const(hv), tape.const(entries), pn)

            # independent scalar code path, one channel at a time
            for k in range(4):
                scores = [sum(hv[d, k] * e[d] for d in range(3)) for e in entries]
                mx = max(scores)
                exps = [math.exp(s - mx) for s in scores]
                expected = [e / sum(exps) for e in exps]
                assert np.max(np.abs(alpha.value[:, k] - np.array(expected))) < 1e-12


class TestIntensity:
    def test_zero_weights_give_log2(self):
        cfg = tiny_config()
        params = zero_params(cfg)
        tape = ad.Tape()
        pn = params.on_tape(tape)
        net = tape.const(np.zeros((cfg.channel_width, cfg.channel_count)))
        lam = intensity(net, 3.7, pn)
        assert lam.value.shape == (cfg.channel_count,)
        assert np.allclose(lam.value, math.log(2.0), atol=1e-12)

    def test_positive_for_random_draws(self):
        cfg = tiny_config()
        rng = np.random.default_rng(17)
        for trial in range(200):
            params = ModelParams.init(cfg, seed=trial)
            for a in params.arrays():
                a *= rng.uniform(0.5, 4.0)
            tape = ad.Tape()
            pn = params.on_tape(tape)
            net = tape.const(rng.normal(scale=3.0, size=(cfg.channel_width, 1)))
            lam = intensity(net, float(rng.uniform(0, 100)), pn)
            assert lam.value[0] > 0.0

    def test_rejects_negative_dt(self):
        cfg = tiny_config()
        params = ModelParams.init(cfg, seed=0)
        tape = ad.Tape()
        pn = params.on_tape(tape)
        net = tape.const(np.zeros((cfg.channel_width, 2)))
        with pytest.raises(ValueError):
            intensity(net, -0.1, pn)
        with pytest.raises(ValueError):
            intensity(net, np.array([0.5, -0.1]), pn)

    def test_dt_gradient_matches_fd(self):
        cfg = tiny_config()
        params = ModelParams.init(cfg, seed=23)
        hv = np.random.default_rng(2).normal(size=(cfg.channel_width, 1))

        def f(dt_arr):
            tape = ad.Tape()
            pn = params.on_tape(tape)
            lam = intensity(tape.const(hv), float(dt_arr[()]), pn)
            return float(lam.value[0])

        # route dt through a leaf to differentiate against it
        tape = ad.Tape()
        pn = params.on_tape(tape)
        dt_leaf = tape.leaf(0.8)
        z = ad.concat_rows([tape.const(hv), ad.reshape(dt_leaf, (1, 1))])
        hidden = ad.relu(ad.add_col(ad.matmul(pn.f1_w, z), pn.f1_b))
        out = ad.add_col(ad.matmul(pn.f2_w, hidden), pn.f2_b)
        lam = ad.vsum(ad.softplus(ad.row(out, 0)))
        assert float(lam.value) == f(np.asarray(0.8))
        ad.backward(tape, lam)
        fd = numerical_grad(f, np.asarray(0.8))
        assert_grads_close(dt_leaf.grad, fd)


class TestForward:
    def test_minimal_sequence_one_rate_vector(self):
        cfg = tiny_config()
        params = ModelParams.init(cfg, seed=1)
        seq = make_seq([], [], 5.0, cfg.label_count, k=0)
        res = forward(seq, params, cfg)
        assert len(res.rates) == 1
        assert res.rates[0].shape == (cfg.channel_count,)

    def test_rate_positivity_and_counts(self):
        cfg = tiny_config()
        params = ModelParams.init(cfg, seed=2)
        seq = make_seq([1.0, 4.0], [0, 1], 6.0, cfg.label_count, k=2)
        res = forward(seq, params, cfg)
        vals = res.rates
        assert vals.shape == (len(seq) - 1, cfg.channel_count)
        assert np.all(vals > 0)

    def test_kept_result_pins_no_tape_node(self):
        # a result kept past its tape_scope holds values only: a rate node
        # (a Node takes no weakref, so its value array, which only the node
        # holds, stands for it) is freed when the scope exits
        cfg = tiny_config()
        params = ModelParams.init(cfg, seed=2)
        seq = make_seq([1.0, 4.0], [0, 1], 6.0, cfg.label_count, k=2)
        with ad.tape_scope():
            res = forward(seq, params, cfg)
            node = next(n for n in res.tape.nodes() if n.op == "softplus")
            value = weakref.ref(node.value)
            del node
            assert value() is not None
        assert value() is None
        assert res.rates.shape == (len(seq) - 1, cfg.channel_count)
        assert not res.rates.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            res.rates[0, 0] = 1.0

    def test_causality_under_suffix_edits(self):
        cfg = tiny_config()
        params = ModelParams.init(cfg, seed=3)
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            times = np.sort(rng.uniform(0.5, 9.5, size=n))
            times = np.unique(times)
            labels = rng.integers(0, cfg.label_count, size=len(times))
            seq = make_seq(times, labels, 10.0, cfg.label_count, k=1)

            # edit the last real event's label, keeping everything earlier
            edited_labels = labels.copy()
            edited_labels[-1] = (edited_labels[-1] + 1) % cfg.label_count
            seq2 = make_seq(times, edited_labels, 10.0, cfg.label_count, k=1)

            edit_pos = np.flatnonzero((seq.times != seq2.times) | (seq.labels != seq2.labels))[0]
            r1 = forward(seq, params, cfg).rates
            r2 = forward(seq2, params, cfg).rates
            # rates are indexed from token 1; rates[i] is produced before
            # token i+1 is consumed, so indices < edit_pos are unaffected
            assert np.array_equal(r1[:edit_pos], r2[:edit_pos])

    def test_attention_simplex_per_token_channel(self):
        cfg = tiny_config(memory_depth=3)
        params = ModelParams.init(cfg, seed=5)
        seq = make_seq([1.0, 2.5, 4.0, 7.0], [0, 1, 0, 1], 8.0, cfg.label_count, k=1)
        res = forward(seq, params, cfg)
        seen = 0
        for alpha in res.attention:
            if alpha is None:
                continue
            rows = alpha.shape[0]
            assert alpha.shape == (rows, cfg.channel_count)
            assert rows % cfg.label_count == 0
            assert rows <= cfg.memory_depth * cfg.label_count
            for k in range(cfg.channel_count):
                seen += 1
                col = alpha[:, k]
                assert abs(np.sum(col) - 1.0) < 1e-9
                assert np.all(col >= 0)
        assert seen > 0

    def test_j_zero_reduces_to_basic_model(self):
        cfg = tiny_config(memory_depth=0)
        params = ModelParams.init(cfg, seed=6)
        seq = make_seq([1.0, 3.0], [0, 1], 5.0, cfg.label_count, k=1)
        res = forward(seq, params, cfg)
        assert all(alpha is None for alpha in res.attention)
        # net state must equal tanh(W_c [0, h_k]); probe via a replayed LSTM
        m = cfg.channel_width
        tape = ad.Tape()
        pn = params.on_tape(tape)
        st = (tape.const(np.zeros(cfg.hidden_dim)), tape.const(np.zeros(cfg.hidden_dim)))
        h, _, _ = lstm_step(encode_token(seq.labels[0], seq.times[0], pn, cfg), st, pn)
        dt = seq.times[1] - seq.times[0]
        h0 = h.value[:m]
        cat = np.concatenate([np.zeros(m), h0])
        net = np.tanh(params.attn_w @ cat)
        z = np.concatenate([net, [dt]])
        hid = np.maximum(params.f1_w @ z + params.f1_b, 0.0)
        lam = float(np.log1p(np.exp(-abs((params.f2_w @ hid + params.f2_b)[0])))
                    + max((params.f2_w @ hid + params.f2_b)[0], 0.0))
        assert res.rates[0][0] == pytest.approx(lam, rel=1e-12)

    def test_forward_matches_per_channel_ops(self):
        # the batched forward must agree, entry for entry, with the model
        # written out per token, per channel and per bank entry in numpy
        rng = np.random.default_rng(57)
        for trial in range(10):
            cfg = tiny_config(memory_depth=int(rng.integers(0, 4)),
                              label_count=int(rng.integers(1, 4)))
            params = ModelParams.init(cfg, seed=trial)
            n = int(rng.integers(0, 6))
            times = np.unique(rng.uniform(0.5, 9.0, size=n))
            labels = rng.integers(0, cfg.label_count, size=len(times))
            seq = make_seq(times, labels, 10.0, cfg.label_count,
                           k=int(rng.integers(0, 3)))
            res = forward(seq, params, cfg)
            rates, attention = forward_by_definition(seq, params, cfg)

            got = res.rates
            assert got.shape == rates.shape
            assert np.all(np.abs(got - rates) <= 1e-12 * np.maximum(1.0, np.abs(rates)))
            assert len(res.attention) == len(attention)
            for recorded, want in zip(res.attention, attention):
                if want is None:
                    assert recorded is None
                else:
                    assert recorded.shape == want.shape
                    assert np.max(np.abs(recorded - want)) < 1e-12

    def test_channel_gradient_isolation(self):
        # within one attend/intensity evaluation over all channels, the rate
        # of channel k reads only channel k's slice of the current hidden state
        cfg = tiny_config(memory_depth=2)
        params = ModelParams.init(cfg, seed=9)
        rng = np.random.default_rng(41)
        m = cfg.channel_width
        for k in range(cfg.channel_count):
            tape = ad.Tape()
            pn = params.on_tape(tape)
            h_full = tape.leaf(rng.normal(size=cfg.hidden_dim))
            h_t = ad.transpose(ad.reshape(h_full, (cfg.channel_count, m)))
            bank = tape.const(rng.normal(size=(cfg.label_count, m)))
            net, _ = attend(h_t, bank, pn)
            lam = intensity(net, 0.7, pn)
            ad.backward(tape, ad.vsum(ad.mul(lam, tape.const(np.eye(cfg.channel_count)[k]))))
            grad = h_full.grad
            mask = np.zeros(cfg.hidden_dim, dtype=bool)
            mask[k * m:(k + 1) * m] = True
            assert np.any(grad[mask] != 0.0)
            assert np.all(grad[~mask] == 0.0)

    def test_label_count_mismatch_rejected(self):
        cfg = tiny_config()
        params = ModelParams.init(cfg, seed=0)
        seq = make_seq([1.0], [0], 4.0, 3, k=0)
        with pytest.raises(ValueError):
            forward(seq, params, cfg)


def tape_ops(M, **kw):
    """len(tape) and sha256 of the op sequence of forward's tape on a fixed stream."""
    times = 1.0 + 1.7 * np.arange(14)
    labels = (7 * np.arange(14)) % M
    cfg = ModelConfig(label_count=M, channel_width=8, memory_depth=kw.pop("memory_depth", 3),
                      fake_count=1, time_scale=30.0, **kw)
    seq = make_seq(times, labels, 30.0, M, k=cfg.fake_count)
    with ad.tape_scope():
        tape = forward(seq, ModelParams.init(cfg, seed=0), cfg).tape
        ops = "\n".join(n.op for n in tape.nodes())
        return len(tape), hashlib.sha256(ops.encode()).hexdigest()


@pytest.mark.parametrize("M, kw, n_nodes, digest", [
    (5, {}, 1200, "310acd630ac12fd4daeb9a8515850f96e38109438fb06ebf7e854902c50266de"),
    (20, {}, 1200, "310acd630ac12fd4daeb9a8515850f96e38109438fb06ebf7e854902c50266de"),
    (5, {"memory_depth": 0}, 1051,
     "2a5b489db13dae21712cbe741afe8df2dc2a515c0a4172c3483bb789409473c1"),
], ids=["M5", "M20", "M5-J0"])
def test_tape_structure_pinned(M, kw, n_nodes, digest):
    # the benchmark's traced runs compare the tape node count exactly, so
    # forward must build the same ops in the same order (benchmark shapes:
    # channels 8, memory 3, K=1)
    assert tape_ops(M, **kw) == (n_nodes, digest)


def test_ll_gradient_three_labels_five_events():
    # full-parameter gradient of the quadrature LL on a 3-label, 5-event
    # sequence, its rate adjoint carried to the weights by ``backward``,
    # against central finite differences
    from tppkit.training import quadrature_ll_node

    cfg = ModelConfig(label_count=3, channel_width=2, embed_dim=3,
                      memory_depth=2, fake_count=1, hidden_width=4,
                      time_scale=10.0)
    params = ModelParams.init(cfg, seed=21)
    seq = make_seq([1.0, 2.5, 4.0, 6.5, 8.0], [0, 1, 2, 1, 0], 10.0, 3, k=1)

    fwd = forward(seq, params, cfg)
    _, rate_adj = quadrature_ll_node(seq, fwd.rates)
    grads = backward(seq, params, cfg, fwd.cells, fwd.attention, rate_adj)
    flat = np.concatenate([g.ravel() for g in grads.arrays()])

    def f(theta):
        p = ModelParams.from_flat(cfg, theta)
        return quadrature_ll_node(seq, forward(seq, p, cfg).rates)[0]

    fd = numerical_grad(f, params.flatten())
    assert_grads_close(flat, fd)


def test_backward_memory_is_flat_in_the_token_count():
    # the traced peak of ``backward`` at M=20, J=3 (the fit-m20 shape) on a
    # 751- and a 3001-token stream: its (rows, J*M, C) head arrays hold one
    # 256-row block at a time, so the peak grows by at most 4 KiB per extra
    # token (a whole-stream head grew by about 40 KiB per token)
    cfg = ModelConfig(label_count=20, channel_width=8, memory_depth=3, fake_count=1,
                      time_scale=100.0)
    params = ModelParams.init(cfg, seed=0)
    rng = np.random.default_rng(3)
    peaks, tokens = [], []
    for events in (374, 1499):
        times = np.sort(rng.uniform(0.0, 100.0, events))
        seq = make_seq(times.tolist(), rng.integers(0, 20, events).tolist(), 100.0, 20)
        with ad.tape_scope():
            fwd = forward(seq, params, cfg)
        rate_adj = rng.normal(size=(len(seq) - 1, cfg.channel_count))
        tracemalloc.start()
        try:
            backward(seq, params, cfg, fwd.cells, fwd.attention, rate_adj)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        tokens.append(len(seq))
    assert tokens == [751, 3001]
    per_token = (peaks[1] - peaks[0]) / (tokens[1] - tokens[0])
    assert per_token <= 4096, f"{per_token / 1024:.1f} KiB per token"


@pytest.mark.parametrize("K", [0, 1, 3])
@pytest.mark.parametrize("J", [0, 1, 2, 3])
@pytest.mark.parametrize("M", [1, 5, 20])
def test_numpy_head_is_the_tape_head(M, J, K):
    # _net_rows and _rate_head over a whole stream's stacked forward cells
    # and recorded attention, zero at the padding slots, against the tape
    # forward bit for bit: the tape's softplus formula of the head's output
    # is forward's rates (K=1 and 3 give more than 256 rows)
    cfg = ModelConfig(label_count=M, memory_depth=J, fake_count=K, time_scale=100.0)
    params = ModelParams.init(cfg, seed=M + 10 * J + 100 * K)
    rng = np.random.default_rng(M + 10 * J + 100 * K)
    times = np.sort(rng.uniform(0.0, 100.0, 140))
    seq = make_seq(times.tolist(), rng.integers(0, M, 140).tolist(), 100.0, M, k=K)
    with ad.tape_scope():
        fwd = forward(seq, params, cfg)
        want_rates = fwd.rates
    hs = np.array([cell[0] for cell in fwd.cells])
    rows = len(seq) - 1
    slots = np.arange(rows)[:, None] + np.arange(1 - J, 1)
    alpha = np.zeros((rows, J * M, M + 1))
    for r, a in enumerate(fwd.attention):
        assert (a is None) == (J == 0)
        if J:
            alpha[r, -len(a):] = a
    _, _, net = _net_rows(hs, slots, hs[:rows].reshape(rows, M + 1, -1), alpha, params, cfg)
    out = _rate_head(net, np.diff(seq.times) / cfg.time_scale, params)[2][:, 0]
    assert np.array_equal(np.log1p(np.exp(-np.abs(out))) + np.maximum(out, 0.0), want_rates)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        cfg = tiny_config(time_scale=123.5, memory_depth=1)
        params = ModelParams.init(cfg, seed=19)
        p = tmp_path / "model.ckpt"
        save_checkpoint(p, cfg, params, steps=42)
        cfg2, params2, steps = load_checkpoint(p)
        assert cfg2 == cfg
        assert steps == 42
        for a, b in zip(params.arrays(), params2.arrays()):
            assert np.array_equal(a, b)

    def test_rejects_foreign_file(self, tmp_path):
        p = tmp_path / "bogus.ckpt"
        p.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError):
            load_checkpoint(p)

    @pytest.mark.parametrize("edit, field", [
        (lambda h: h.pop("steps"), "steps"),
        (lambda h: h["config"].pop("fake_count"), "fake_count"),
        (lambda h: h["config"].update(depth=2), "depth"),
        (lambda h: h["order"][5].__setitem__(1, [9, 9]), "f1_w"),
        (lambda h: h["order"].pop(), "f2_b"),
        (lambda h: h["config"].update(channel_width=2.0), "channel_width"),
        (lambda h: h["config"].update(bank_real_only=1), "bank_real_only"),
        (lambda h: h.update(steps=float("inf")), "steps"),
    ], ids=["no-steps", "no-fake-count", "unknown-field", "bad-shape", "short-order",
            "float-for-int", "int-for-bool", "infinite-steps"])
    def test_incomplete_header_names_field(self, tmp_path, edit, field):
        p = tmp_path / "model.ckpt"
        cfg = tiny_config()
        save_checkpoint(p, cfg, ModelParams.init(cfg, seed=1), steps=3)
        rewrite_checkpoint_header(p, edit)
        with pytest.raises(ValueError, match=field):
            load_checkpoint(p)

    def test_retired_bank_real_only_field(self, tmp_path):
        # headers written while the bank had a real-events-only mode carry the
        # field: false, the rule kept, loads; any other value is named
        p = tmp_path / "model.ckpt"
        cfg = tiny_config()
        params = ModelParams.init(cfg, seed=1)
        save_checkpoint(p, cfg, params, steps=3)
        rewrite_checkpoint_header(p, lambda h: h["config"].update(bank_real_only=False))
        cfg2, params2, steps = load_checkpoint(p)
        assert cfg2 == cfg and steps == 3
        assert all(np.array_equal(a, b) for a, b in zip(params.arrays(), params2.arrays()))
        for value in (True, 0, None):
            rewrite_checkpoint_header(p, lambda h: h["config"].update(bank_real_only=value))
            with pytest.raises(ValueError, match="'bank_real_only' is"):
                load_checkpoint(p)

    def test_too_deeply_nested_header_rejected(self, tmp_path):
        p = tmp_path / "model.ckpt"
        head = b"[" * 100000
        p.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(head)) + head)
        with pytest.raises(ValueError, match="nests too deeply"):
            load_checkpoint(p)

    def test_truncated_file_rejected(self, tmp_path):
        p = tmp_path / "model.ckpt"
        cfg = tiny_config()
        save_checkpoint(p, cfg, ModelParams.init(cfg, seed=1))
        p.write_bytes(p.read_bytes()[:10])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(p)

    def test_byte_stable(self, tmp_path):
        cfg = tiny_config()
        params = ModelParams.init(cfg, seed=1)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, cfg, params)
        save_checkpoint(p2, cfg, params)
        assert p1.read_bytes() == p2.read_bytes()
