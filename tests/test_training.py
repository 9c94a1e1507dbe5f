import gc
import hashlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from tppkit import training
from tppkit.model import ModelConfig, ModelParams, forward
from tppkit.pgem import exact_ll, sample_spec, simulate
from tppkit.streams import Dataset, Epoch, EventStream, augment
from tppkit.training import (
    TrainConfig, TrainingError, _checked_ll, _objective, dataset_ll, objective,
    objective_with_grads, prediction_loss_node, quadrature_ll_node, train,
    weight_penalty_node,
)
from helpers import (
    assert_frees_its_tapes, assert_frees_its_tapes_before_gc_resumes, assert_grads_close,
    numerical_grad, objective_with_grads_on_tape, pgem_rates_by_definition,
    rate_adjoint_by_definition,
)


def constant_rate_vectors(seq, rates_by_channel):
    """One identical rate vector per token after BOS."""
    return np.tile(np.asarray(rates_by_channel, dtype=np.float64),
                   (len(seq) - 1, 1))


def make_stream(times, labels, horizon, m):
    return EventStream(tuple(Epoch(t, l) for t, l in zip(times, labels)), horizon, m)


class TestQuadratureLL:
    def test_homogeneous_closed_form_k0(self):
        s = make_stream([2.0, 5.0], [0, 0], 10.0, 1)
        seq = augment(s, 0)
        rates = constant_rate_vectors(seq, [0.1, 1.0])
        expected = 2.0 * math.log(0.1) - 0.1 * 10.0
        assert quadrature_ll_node(seq, rates)[0] == pytest.approx(expected, abs=1e-12)
        assert quadrature_ll_node(seq, rates)[0] == pytest.approx(-5.605170, abs=1e-6)

    def test_constant_rates_exact_for_any_k(self):
        s = make_stream([2.0, 5.0], [0, 0], 10.0, 1)
        expected = 2.0 * math.log(0.1) - 0.1 * 10.0
        for k in (0, 1, 3, 7):
            seq = augment(s, k)
            rates = constant_rate_vectors(seq, [0.1, 123.0])
            assert quadrature_ll_node(seq, rates)[0] == pytest.approx(expected, abs=1e-9)

    def test_matches_pgem_exact_ll_homogeneous(self):
        from tppkit.pgem import NodeSpec, PgemSpec
        spec = PgemSpec(1, (NodeSpec((), (), {(): 0.1}),))
        s = make_stream([2.0, 5.0], [0, 0], 10.0, 1)
        seq = augment(s, 3)
        rates = constant_rate_vectors(seq, [0.1, 1.0])
        assert quadrature_ll_node(seq, rates)[0] == pytest.approx(exact_ll(spec, s), abs=1e-9)

    def test_injected_true_rates_converge_to_exact(self):
        for seed in range(5):
            spec = sample_spec(3, seed=seed)
            stream = simulate(spec, 400.0, seed=seed + 50)
            if len(stream) < 3:
                continue
            exact = exact_ll(spec, stream)
            errs = []
            for k in (1, 5, 20):
                seq = augment(stream, k)
                rates = np.ones((len(seq) - 1, 4))
                rates[:, :3] = [pgem_rates_by_definition(spec, stream, t) for t in seq.times[1:]]
                errs.append(abs(quadrature_ll_node(seq, rates)[0] - exact))
            assert errs[-1] <= errs[0] + 1e-9
            assert errs[-1] < 0.01 * abs(exact)

    def test_nonpositive_rate_at_event_rejected(self):
        # scoring names a real event's own rate that is zero or NaN
        s = make_stream([2.0], [0], 10.0, 1)
        seq = augment(s, 0)
        rates = constant_rate_vectors(seq, [0.1, 1.0])
        rates[0, 0] = 0.0
        with pytest.raises(TrainingError, match=r"non-finite LL: rate 0\.0 at token 1 "
                                                r"\(t=2\.0, kind=real\), channel 0$"):
            _checked_ll(seq, rates, "LL")
        rates[0, 0] = math.nan
        with pytest.raises(TrainingError, match=r"rate nan at token 1 \(t=2\.0, kind=real\)"):
            _checked_ll(seq, rates, "LL")

    def test_node_version_matches_values(self):
        # the node on a forward pass's rates against a per-token loop, its
        # rate gradient against the closed form, and a given adjoint added in
        cfg = ModelConfig(label_count=2, channel_width=3, embed_dim=4,
                          memory_depth=2, hidden_width=5)
        params = ModelParams.init(cfg, seed=3)
        s = make_stream([1.0, 2.5, 6.0], [0, 1, 0], 8.0, 2)
        seq = augment(s, 2)
        r = forward(seq, params, cfg).rates
        value, adj = quadrature_ll_node(seq, r)

        expected, grad = 0.0, np.zeros_like(r)
        for i, (t, label) in enumerate(zip(seq.times[1:], seq.labels[1:])):
            dt = t - seq.times[i]
            if label < 2:
                expected += math.log(r[i, label])
                grad[i, label] += 1.0 / r[i, label]
            expected -= dt * float(np.sum(r[i, :2]))
            grad[i, :2] -= dt
        assert value == pytest.approx(expected, abs=1e-12)
        assert np.allclose(adj, grad, rtol=1e-12, atol=1e-14)
        seed = np.random.default_rng(0).normal(size=r.shape)
        assert np.allclose(quadrature_ll_node(seq, r, seed)[1], seed + grad,
                           rtol=1e-12, atol=1e-14)

    def test_scoring_check_ignores_rates_the_ll_never_reads(self):
        # zero rates at the fake and EOS rows and NaN in the fake channel
        # leave the LL finite and equal to the LL with a finite fake channel
        s = make_stream([2.0, 5.0], [0, 1], 10.0, 2)
        seq = augment(s, 2)
        rates = constant_rate_vectors(seq, [0.1, 0.2, 1.0])
        rates[~seq.is_real[1:]] = 0.0
        finite = rates.copy()
        rates[:, 2] = math.nan
        ll = _checked_ll(seq, rates, "LL")
        assert math.isfinite(ll) and ll == quadrature_ll_node(seq, finite)[0]

    def test_scoring_check_names_the_first_rate_that_breaks_the_ll(self):
        s = make_stream([2.0, 5.0], [0, 1], 10.0, 2)
        seq = augment(s, 1)  # BOS, fake 1.0, 2.0, fake 3.5, 5.0, fake 7.5, EOS
        rates = constant_rate_vectors(seq, [0.1, 0.2, 1.0])
        rates[:, 2] = math.nan
        rates[0, 1] = rates[3, 1] = 0.0  # a fake row's rate, then an event's own
        with pytest.raises(TrainingError, match=r"non-finite LL: rate 0\.0 at token 4 "
                                                r"\(t=5\.0, kind=real\), channel 1$"):
            _checked_ll(seq, rates, "LL")
        rates[2, 0] = math.inf  # a real channel's infinite rate comes first
        with pytest.raises(TrainingError, match=r"rate inf at token 3 \(t=3\.5, kind=fake\)"):
            _checked_ll(seq, rates, "LL")


class TestPredictionLoss:
    def test_uniform_rates_give_log_m_plus_one(self):
        s = make_stream([2.0, 5.0], [0, 1], 10.0, 2)
        seq = augment(s, 1)
        rates = constant_rate_vectors(seq, [0.3, 0.3, 0.3])
        assert prediction_loss_node(seq, rates)[0] == pytest.approx(math.log(3.0), abs=1e-12)

    def test_confident_rates_drive_loss_to_zero(self):
        s = make_stream([2.0], [0], 10.0, 1)
        seq = augment(s, 0)  # single REAL target with label 0
        rates = constant_rate_vectors(seq, [1.0, 1.0])
        rates[0, 0] = 1e4
        assert prediction_loss_node(seq, rates)[0] < 1e-6

    def test_matches_independent_cross_entropy(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            m = int(rng.integers(1, 4))
            times = np.unique(rng.uniform(0.5, 9.0, size=rng.integers(1, 6)))
            labels = rng.integers(0, m, size=len(times))
            s = make_stream(times, labels, 10.0, m)
            seq = augment(s, int(rng.integers(0, 3)))
            rates = rng.uniform(0.01, 5.0, size=(len(seq) - 1, m + 1))

            # independently coded scalar cross-entropy over the tokens between
            # BOS and EOS, each targeting its own label (M for a fake)
            total, count = 0.0, 0
            for i, target in enumerate(seq.labels[1:-1]):
                probs = [math.exp(v) for v in rates[i]]
                z = sum(probs)
                total += -math.log(probs[target] / z)
                count += 1
            expected = total / count if count else 0.0
            assert abs(prediction_loss_node(seq, rates)[0] - expected) < 1e-12

    def test_node_version_matches_values(self):
        # the node on a forward pass's rates against a per-token
        # cross-entropy, and its scaled rate gradient against finite differences
        cfg = ModelConfig(label_count=2, channel_width=3, embed_dim=4,
                          memory_depth=1, hidden_width=5)
        params = ModelParams.init(cfg, seed=8)
        s = make_stream([1.0, 4.0], [1, 0], 6.0, 2)
        seq = augment(s, 1)
        r = forward(seq, params, cfg).rates
        value, adj = prediction_loss_node(seq, r)

        def cross_entropy(r):
            losses = []
            for i, target in enumerate(seq.labels[1:-1]):
                losses.append(math.log(sum(math.exp(v) for v in r[i])) - r[i, target])
            return sum(losses) / len(losses)

        assert value == pytest.approx(cross_entropy(r), abs=1e-12)
        fd = numerical_grad(cross_entropy, r.copy())
        assert_grads_close(adj, fd)
        assert_grads_close(prediction_loss_node(seq, r, -0.7)[1], -0.7 * fd)


class TestWeightPenalty:
    def test_zero_weights(self):
        cfg = ModelConfig(label_count=1)
        params = ModelParams.init(cfg, seed=0)
        params.f1_w[:] = 0.0
        params.f2_w[:] = 0.0
        assert weight_penalty_node(params)[0] == 0.0

    def test_hand_arithmetic(self):
        cfg = ModelConfig(label_count=1, channel_width=1, hidden_width=2)
        params = ModelParams.init(cfg, seed=0)
        params.f1_w[:] = 0.0
        params.f2_w[:] = [[3.0, 4.0]]
        assert weight_penalty_node(params)[0] == pytest.approx(25.0, abs=1e-12)

    def test_gradient_is_twice_weights(self):
        cfg = ModelConfig(label_count=2, channel_width=2, hidden_width=3)
        params = ModelParams.init(cfg, seed=5)
        value, (g1, g2) = weight_penalty_node(params)
        assert value == float(np.sum(params.f1_w**2) + np.sum(params.f2_w**2))
        assert np.allclose(g1, 2.0 * params.f1_w, atol=1e-14)
        assert np.allclose(g2, 2.0 * params.f2_w, atol=1e-14)

        def f(w):
            return float(np.sum(w**2) + np.sum(params.f2_w**2))

        fd = numerical_grad(f, params.f1_w.copy())
        assert_grads_close(g1, fd)
        scaled = weight_penalty_node(params, -0.05)[1]
        assert np.allclose(scaled[0], -0.05 * g1, rtol=1e-15, atol=0.0)
        assert np.allclose(scaled[1], -0.05 * g2, rtol=1e-15, atol=0.0)


class TestObjective:
    def setup_method(self):
        self.cfg = ModelConfig(label_count=2, channel_width=3, embed_dim=4,
                               memory_depth=2, hidden_width=5)
        self.params = ModelParams.init(self.cfg, seed=13)
        s = make_stream([1.0, 3.0, 5.5], [0, 1, 1], 8.0, 2)
        self.seq = augment(s, 1)

    def test_reduces_to_ll_without_penalties(self):
        tc = TrainConfig(pred_weight=0.0, l2_weight=0.0)
        fwd = forward(self.seq, self.params, self.cfg)
        assert objective(self.seq, self.params, self.cfg, tc) == pytest.approx(
            quadrature_ll_node(self.seq, fwd.rates)[0], abs=1e-12)

    def test_l2_weight_monotonicity(self):
        vals = [objective(self.seq, self.params, self.cfg,
                          TrainConfig(pred_weight=0.0, l2_weight=w))
                for w in (0.0, 0.1, 1.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_full_objective_gradient_matches_fd(self):
        tc = TrainConfig(pred_weight=0.7, l2_weight=0.05)
        _, _, grads = objective_with_grads(self.seq, self.params, self.cfg, tc)
        flat = np.concatenate([g.ravel() for g in grads])

        def f(theta):
            p = ModelParams.from_flat(self.cfg, theta)
            return objective(self.seq, p, self.cfg, tc)

        fd = numerical_grad(f, self.params.flatten())
        assert_grads_close(flat, fd)

    @staticmethod
    def subnormal_rate_case():
        # a subnormal rate at a real event: finite objective, infinite gradient
        cfg = ModelConfig(label_count=2, time_scale=50.0)
        params = ModelParams.init(cfg, seed=0)
        params.f2_w[:] = 0.0
        params.f2_b[:] = -738.0
        return cfg, params, augment(make_stream([10.0, 20.0], [0, 1], 50.0, 2), 1)

    def test_nonfinite_gradient_names_parameter(self):
        cfg, params, seq = self.subnormal_rate_case()
        tc = TrainConfig()
        with np.errstate(all="ignore"):
            assert math.isfinite(objective(seq, params, cfg, tc))
            with pytest.raises(TrainingError, match="non-finite gradient for embedding"):
                objective_with_grads(seq, params, cfg, tc)

    def test_nonfinite_gradient_prints_no_numpy_warning(self):
        cfg, params, seq = self.subnormal_rate_case()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingError, match="non-finite gradient for embedding"):
                objective_with_grads(seq, params, cfg, TrainConfig())
        assert gc.isenabled()

    @pytest.mark.parametrize("events", [0, 6])
    @pytest.mark.parametrize("labels, fakes", [(1, 0), (3, 1), (5, 3)])
    @pytest.mark.parametrize("pred_weight, l2_weight", [(0.0, 0.0), (0.7, 0.05), (1.0, 1e-4)])
    def test_terms_match_per_token_definition(self, labels, fakes, events, pred_weight,
                                              l2_weight):
        # the composed value, rate adjoint and penalty gradients against the
        # terms' values and a per-token adjoint coded independently
        seq = augment(random_stream(labels, events, 10.0, seed=labels), fakes)
        rates = np.random.default_rng(labels + fakes).uniform(
            0.01, 5.0, size=(len(seq) - 1, labels + 1))
        cfg = ModelConfig(label_count=labels, channel_width=3, hidden_width=5)
        params = ModelParams.init(cfg, seed=fakes)
        tc = TrainConfig(pred_weight=pred_weight, l2_weight=l2_weight)
        obj, ll, adj, (d_f1, d_f2) = _objective(seq, rates, params, tc)
        assert ll == quadrature_ll_node(seq, rates)[0]
        assert obj == pytest.approx(ll - pred_weight * prediction_loss_node(seq, rates)[0]
                                    - l2_weight * weight_penalty_node(params)[0], abs=1e-12)
        ref = rate_adjoint_by_definition(seq, rates, pred_weight)
        assert np.allclose(adj, ref, rtol=1e-12, atol=1e-12)
        assert np.allclose(d_f1, -2.0 * l2_weight * params.f1_w, rtol=1e-15, atol=0.0)
        assert np.allclose(d_f2, -2.0 * l2_weight * params.f2_w, rtol=1e-15, atol=0.0)

    def test_calls_free_their_tapes(self):
        tc = TrainConfig(pred_weight=0.7, l2_weight=0.05)
        rates = forward(self.seq, self.params, self.cfg).rates
        data = Dataset((make_stream([1.0, 3.0], [0, 1], 8.0, 2),))
        calls = (
            lambda: objective_with_grads(self.seq, self.params, self.cfg, tc),
            lambda: objective(self.seq, self.params, self.cfg, tc),
            lambda: dataset_ll([self.seq], self.params, self.cfg),
            lambda: quadrature_ll_node(self.seq, rates),
            lambda: prediction_loss_node(self.seq, rates),
            lambda: weight_penalty_node(self.params),
            lambda: train(data, self.cfg, TrainConfig(epochs=1), val_dataset=data),
        )
        for call in calls:
            assert_frees_its_tapes(call)
            call()
            assert gc.isenabled()

    def test_tapes_are_freed_before_gc_resumes(self, monkeypatch):
        tc = TrainConfig(pred_weight=0.7, l2_weight=0.05)
        for call in (lambda: objective_with_grads(self.seq, self.params, self.cfg, tc),
                     lambda: objective(self.seq, self.params, self.cfg, tc),
                     lambda: dataset_ll([self.seq], self.params, self.cfg)):
            assert_frees_its_tapes_before_gc_resumes(call, monkeypatch)


def random_stream(m, n_events, horizon, seed):
    rng = np.random.default_rng(seed)
    times = np.sort(rng.choice(np.linspace(0.0, horizon, 400)[1:-1], n_events, replace=False))
    return make_stream(times, rng.integers(0, m, size=n_events), horizon, m)


def assert_matches_tape(seq, cfg, tc, seed=0):
    """objective_with_grads against the tape walk: objective and LL equal (both
    come from training._objective), each gradient within 1e-12 of its own
    largest entry. The gradients the walk sums one term at a time in reverse
    token order (the embedding and the biases) are bit-identical too, which
    holds only if every per-token adjoint is. Returns the gradients."""
    params = ModelParams.init(cfg, seed=seed)
    value, ll, grads = objective_with_grads(seq, params, cfg, tc)
    ref_value, ref_ll, ref_grads = objective_with_grads_on_tape(seq, params, cfg, tc)
    assert value == ref_value and ll == ref_ll
    for name, g, ref in zip(params.names(), grads, ref_grads):
        assert g.shape == ref.shape
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(g - ref)) <= 1e-12 * scale, name
        if name in ("embedding", "lstm_b", "f1_b", "f2_b"):
            assert np.array_equal(g, ref), name
    return grads


class TestHandBackward:
    """The hand-written backward against the slow reference: the same rate
    adjoint carried to the weights by walking the whole forward tape."""

    @staticmethod
    def train_config(penalized):
        """The objective with both regularizers, or the LL alone, whose rate
        adjoint starts from a scalar 0.0 instead of the prediction term's."""
        return (TrainConfig(pred_weight=0.7, l2_weight=0.05) if penalized
                else TrainConfig(pred_weight=0.0, l2_weight=0.0))

    @pytest.mark.parametrize("penalized", [False, True])
    @pytest.mark.parametrize("fakes", [0, 1, 3])
    @pytest.mark.parametrize("depth", [0, 1, 3])
    @pytest.mark.parametrize("labels", [1, 5, 20])
    def test_matches_tape_walk(self, labels, depth, fakes, penalized):
        cfg = ModelConfig(label_count=labels, channel_width=3, embed_dim=4, memory_depth=depth,
                          fake_count=fakes, hidden_width=5, time_scale=10.0)
        seq = augment(random_stream(labels, 7, 10.0, seed=labels + depth), fakes)
        assert_matches_tape(seq, cfg, self.train_config(penalized), seed=depth + fakes)

    @pytest.mark.parametrize("penalized", [False, True])
    @pytest.mark.parametrize("times", [[], [4.0], [0.0, 10.0]])
    def test_short_streams(self, times, penalized):
        # no events, a single event, and events on both ends of the horizon
        cfg = ModelConfig(label_count=2, channel_width=3, embed_dim=4, memory_depth=2,
                          fake_count=1, hidden_width=5, time_scale=10.0)
        seq = augment(make_stream(times, [1] * len(times), 10.0, 2), 1)
        assert_matches_tape(seq, cfg, self.train_config(penalized))

    @pytest.mark.parametrize("pred_weight, l2_weight", [(0.0, 0.05), (0.7, 0.0), (0.0, 0.0)])
    def test_without_a_penalty(self, pred_weight, l2_weight):
        cfg = ModelConfig(label_count=3, channel_width=3, embed_dim=4, memory_depth=2,
                          hidden_width=5, time_scale=10.0)
        seq = augment(random_stream(3, 6, 10.0, seed=4), 1)
        assert_matches_tape(seq, cfg, TrainConfig(pred_weight=pred_weight, l2_weight=l2_weight))

    def test_returned_gradients_are_private(self):
        # train adds later streams' gradients into the first stream's arrays
        cfg = ModelConfig(label_count=2, channel_width=3, embed_dim=4, memory_depth=2,
                          hidden_width=5, time_scale=10.0)
        params = ModelParams.init(cfg, seed=1)
        seq = augment(random_stream(2, 5, 10.0, seed=2), 1)
        _, _, first = objective_with_grads(seq, params, cfg, TrainConfig())
        _, _, second = objective_with_grads(seq, params, cfg, TrainConfig())
        for i, g in enumerate(first):
            assert g.flags.writeable
            others = first[:i] + first[i + 1:] + params.arrays() + second
            assert not any(np.shares_memory(g, o) for o in others)

    def test_rows_with_an_empty_bank(self):
        # J = 0 leaves every row with an empty bank; with J >= 1 every row
        # holds its own token's record
        cfg = ModelConfig(label_count=2, channel_width=3, embed_dim=4, memory_depth=0,
                          fake_count=3, hidden_width=5, time_scale=10.0)
        seq = augment(make_stream([8.0, 8.5, 9.0], [0, 1, 0], 10.0, 2), 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grads = assert_matches_tape(seq, cfg, TrainConfig())
            empty = augment(make_stream([], [], 10.0, 2), 3)
            no_context = assert_matches_tape(empty, cfg, TrainConfig())
        assert all(np.all(np.isfinite(g)) for g in grads)
        # a zero context passes no gradient to attn_w's context columns
        assert np.all(no_context[4][:, :cfg.channel_width] == 0.0)


    @pytest.mark.parametrize("labels, digest", [
        (5, "0dac4b48d4d0f14a070d7b4d8e87290eaa0144a8fab8107b4c24cff25b71bdd6"),
        (20, "364ad9e5b046a03c4abc901b0da6584af4b505f5214544b5deb61cdc399755a1"),
    ], ids=["M5", "M20"])
    def test_bits_pinned(self, labels, digest):
        # the exact bits of the objective, the LL and the 9 gradients are
        # fixed: long trainings such as acceptance criterion 2 turn on
        # last-bit rounding, so any change to the order of the objective's or
        # the backward's arithmetic shows here
        assert self.digest(*objective_with_grads(*self.pinned_case(labels))) == digest

    @pytest.mark.parametrize("labels, digest", [
        (5, "087531364c36c9b94ba90fef3c259232c13883c5afa45eb3a1aa3bb38e971bdf"),
        (20, "d15eb19ef304c0d4741afb00111ebb6bafa7ff8a86a4c00af045784ca77ec1ce"),
    ], ids=["M5", "M20"])
    def test_tape_walk_bits_pinned(self, labels, digest):
        # the slow reference's 9 gradients are fixed too: a change to how the
        # tape records its reverse rules must leave the walk's arithmetic,
        # and so its bits, as they are
        _, _, grads = objective_with_grads_on_tape(*self.pinned_case(labels))
        h = hashlib.sha256()
        for g in grads:
            h.update(g.tobytes())
        assert h.hexdigest() == digest

    def test_gradients_do_not_depend_on_blas_threads(self):
        # the 9 gradients of a 1203-token sequence, computed in a child process
        # at one BLAS thread and in one at two, agree byte for byte: the
        # weight products' inner axes grow with the token count, and a long
        # one is split differently by OpenBLAS's serial and threaded drivers
        code = ("import hashlib\nimport numpy as np\n"
                "from tppkit.model import ModelConfig, ModelParams\n"
                "from tppkit.streams import Epoch, EventStream, augment\n"
                "from tppkit.training import TrainConfig, objective_with_grads\n"
                "rng = np.random.default_rng(0)\n"
                "times = np.sort(rng.uniform(0.0, 1000.0, 600)).tolist()\n"
                "labels = rng.integers(0, 5, 600).tolist()\n"
                "seq = augment(EventStream(tuple(map(Epoch, times, labels)), 1000.0, 5), 1)\n"
                "cfg = ModelConfig(5, memory_depth=3, fake_count=1, time_scale=1000.0)\n"
                "params = ModelParams.init(cfg, seed=0)\n"
                "_, _, grads = objective_with_grads(seq, params, cfg, TrainConfig())\n"
                "digest = hashlib.sha256(b''.join(g.tobytes() for g in grads))\n"
                "print(len(seq), digest.hexdigest())\n")
        src = str(Path(training.__file__).parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0].startswith("1203 ")
        assert outputs[0] == outputs[1]

    MULTI_BLOCK = [
        (5, 0, 257, "db7d73b102983a8bbb5dadc236e5df4d092730453bd53d26a0da8b60abdc58e0"),
        (5, 0, 514, "751081e4d72185bc9f0bdf6f41bdc3e1798e00b985d6c50cb6f1b8b10c98f54a"),
        (5, 1, 257, "99291ea2bb6090b499152932a6d3bc7308ab1515ea815ece0179179cbf274b86"),
        (5, 1, 514, "47f1e93ba7f2117fa8da70585091d7cbaa670cc84e3cff1965b29086822db85f"),
        (5, 2, 514, "4c624a2cd2e7e0758db1c82343aebf97bc085ca664fa8a7e433f335ae26b3b84"),
        (5, 3, 257, "983e64d431043f921110cf8a37bb4d35a550c501ab8bb449bc1a38c9fd0b95ae"),
        (5, 3, 514, "cbb72d1e439a0e9377610ba78ea6a441d8972e05365a17405a20f4033bd11c5d"),
        (20, 0, 257, "4afd7c0c851703b36dccfe68715becb9a23521eecfadb3a040d16bbba70ec352"),
        (20, 0, 514, "a466ec2b044d5ff00e42a50f28fcc8a7117f89c61640c991f6e2bc9ff4c66809"),
        (20, 1, 257, "c0ac7ff7e5516c560842779728f4c937a9a89f92e5d3b209428e862ad701c9b6"),
        (20, 1, 514, "a1f6d63a22e20b359d32158f107bd50bfe0c6d3fb561c5d12d5fc55c5ac438e0"),
        (20, 3, 257, "093b1b08b55e96abb4a05a42bd44b087c013d66257d5793dea386b455d2f5b2f"),
        (20, 3, 514, "28acf07b0a24ed83db6b314f6f3a2b516a60a24d1beac1e39db6fdd9b7b93efe"),
        (20, 3, 1200, "3b164b8f27fbee0da62d9efbfcea495065229091d6bc616e731d03db3b47a6f6"),
    ]

    @pytest.mark.parametrize("labels, depth, rows, digest", MULTI_BLOCK,
                             ids=[f"M{m}-J{j}-{n}rows" for m, j, n, _ in MULTI_BLOCK])
    def test_multi_block_bits_pinned(self, labels, depth, rows, digest):
        # streams longer than one 256-row block of model.backward: 257 and 514
        # rows leave a front block of 1 and 2 rows, fewer than J at J=3, and
        # 1200 rows cross four block boundaries; across each boundary J=1
        # carries no record adjoint, J=2 one and J=3 two
        assert self.digest(*objective_with_grads(*self.block_case(labels, depth, rows))) == digest

    @staticmethod
    def digest(value, ll, grads):
        """sha256 of the objective, the LL and the 9 gradients, bit for bit."""
        h = hashlib.sha256(np.array([value, ll]).tobytes())
        for g in grads:
            h.update(g.tobytes())
        return h.hexdigest()

    @staticmethod
    def pinned_case(labels):
        """(seq, params, model config, train config) at the benchmark's shapes:
        channels 8, memory 3, K=1."""
        cfg = ModelConfig(label_count=labels, channel_width=8, memory_depth=3,
                          fake_count=1, time_scale=30.0)
        seq = augment(random_stream(labels, 14, 30.0, seed=labels), 1)
        return seq, ModelParams.init(cfg, seed=0), cfg, TrainConfig()

    @staticmethod
    def block_case(labels, depth, rows):
        """(seq, params, model config, train config) with channels 8 and K=1 on a
        stream of `rows` head rows (tokens after BOS): an even count puts every
        event inside the horizon, an odd one puts the last event on it, where
        its zero-length gap takes no fake."""
        events = (rows - 1) // 2
        rng = np.random.default_rng(rows)
        times = np.sort(rng.uniform(0.0, events, events))
        if rows % 2:
            times[-1] = events
        cfg = ModelConfig(label_count=labels, channel_width=8, memory_depth=depth,
                          fake_count=1, time_scale=float(events))
        seq = augment(make_stream(times.tolist(), rng.integers(0, labels, events).tolist(),
                                  float(events), labels), 1)
        assert len(seq) == rows + 1
        return seq, ModelParams.init(cfg, seed=0), cfg, TrainConfig()


class TestTrain:
    def poisson_dataset(self, rate, horizon, seed):
        from tppkit.pgem import NodeSpec, PgemSpec
        spec = PgemSpec(1, (NodeSpec((), (), {(): rate}),))
        return Dataset((simulate(spec, horizon, seed),))

    def test_deterministic_per_seed(self):
        data = self.poisson_dataset(0.2, 60.0, seed=1)
        cfg = ModelConfig(label_count=1, channel_width=2, embed_dim=3,
                          memory_depth=1, hidden_width=4, time_scale=60.0)
        tc = TrainConfig(epochs=3, seed=7)
        p1, r1 = train(data, cfg, tc)
        p2, r2 = train(data, cfg, tc)
        assert np.array_equal(p1.flatten(), p2.flatten())
        assert r1.objective == r2.objective

    def test_objective_mostly_nondecreasing_on_toy(self):
        data = self.poisson_dataset(0.5, 20.0, seed=3)
        assert len(data.streams[0]) >= 5
        cfg = ModelConfig(label_count=1, channel_width=2, embed_dim=3,
                          memory_depth=1, hidden_width=4, time_scale=20.0)
        tc = TrainConfig(epochs=25, seed=1, learning_rate=1e-3)
        _, report = train(data, cfg, tc)
        for prev, nxt in zip(report.objective, report.objective[1:]):
            assert nxt >= prev - 0.01 * abs(prev)

    def test_learns_homogeneous_rate_roughly(self):
        data = self.poisson_dataset(0.5, 400.0, seed=5)
        cfg = ModelConfig(label_count=1, channel_width=4, embed_dim=4,
                          memory_depth=2, hidden_width=8, time_scale=400.0)
        tc = TrainConfig(epochs=40, seed=2)
        params, _ = train(data, cfg, tc)
        seq = augment(data.streams[0], 1)
        rates = forward(seq, params, cfg).rates
        mean_rate = float(np.mean(rates[:, 0]))
        assert abs(mean_rate - 0.5) < 0.15

    def test_early_stopping_returns_best_params(self):
        data = self.poisson_dataset(0.3, 80.0, seed=9)
        val = self.poisson_dataset(0.3, 80.0, seed=10)
        cfg = ModelConfig(label_count=1, channel_width=2, embed_dim=3,
                          memory_depth=1, hidden_width=4, time_scale=80.0)
        tc = TrainConfig(epochs=30, seed=4, patience=3)
        params, report = train(data, cfg, tc, val_dataset=val)
        assert report.epochs_run() <= 30
        best_epoch = int(np.argmax(report.val_ll))
        # returned params reproduce the best recorded validation LL
        from tppkit.training import dataset_ll
        val_seqs = [augment(s, cfg.fake_count) for s in val.streams]
        assert dataset_ll(val_seqs, params, cfg) == pytest.approx(
            report.val_ll[best_epoch], abs=1e-9)

    def test_patience_without_validation_set_rejected(self):
        data = self.poisson_dataset(0.2, 40.0, seed=1)
        cfg = ModelConfig(label_count=1, channel_width=2, embed_dim=3,
                          memory_depth=1, hidden_width=4, time_scale=40.0)
        with pytest.raises(ValueError, match="patience needs a validation set"):
            train(data, cfg, TrainConfig(epochs=3, patience=1))

    def test_empty_dataset_unrepresentable(self):
        # the Dataset type itself guarantees train's non-empty precondition
        with pytest.raises(ValueError):
            Dataset(())

    def test_nonfinite_objective_aborts_with_diagnostic(self):
        data = self.poisson_dataset(0.2, 40.0, seed=11)
        cfg = ModelConfig(label_count=1, channel_width=2, embed_dim=3,
                          memory_depth=1, hidden_width=4, time_scale=40.0)
        tc = TrainConfig(epochs=2, seed=1, learning_rate=1e6)  # blow it up
        with pytest.raises(TrainingError, match="stream 0"):
            train(data, cfg, tc)

    def test_report_csv_format(self, tmp_path):
        data = self.poisson_dataset(0.2, 40.0, seed=1)
        cfg = ModelConfig(label_count=1, channel_width=2, embed_dim=3,
                          memory_depth=1, hidden_width=4, time_scale=40.0)
        _, report = train(data, cfg, TrainConfig(epochs=2, seed=0))
        p = tmp_path / "report.csv"
        report.to_csv(p)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "epoch,objective,train_ll,val_ll,seconds"
        assert len(lines) == 3
        for line in lines[1:]:
            _, obj, tll, _vll, sec = line.split(",")
            float(obj), float(tll), float(sec)
        assert "np." not in p.read_text()
