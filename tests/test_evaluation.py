import math

import numpy as np
import pytest

from tppkit.evaluation import attention_graph, intensity_trace
from tppkit import evaluation
from tppkit.model import ModelConfig, ModelParams, forward
from tppkit.pgem import NodeSpec, PgemSpec, simulate, simulate_dataset
from tppkit.streams import Dataset, Epoch, EventStream, augment
from tppkit.training import TrainConfig, quadrature_ll_node, train
from helpers import assert_frees_its_tapes, trace_csv_by_definition


def small_config(m=2, **kw):
    base = dict(label_count=m, channel_width=3, embed_dim=4, memory_depth=2,
                fake_count=1, hidden_width=5, time_scale=50.0)
    base.update(kw)
    return ModelConfig(**base)


def random_dataset(rng, m=2, n_streams=3, horizon=50.0):
    streams = []
    for _ in range(n_streams):
        times = np.unique(rng.uniform(0.0, horizon, size=rng.integers(3, 12)))
        labels = rng.integers(0, m, size=len(times))
        streams.append(EventStream(
            tuple(Epoch(t, l) for t, l in zip(times, labels)), horizon, m))
    return Dataset(tuple(streams))


class TestTestLL:
    def setup_method(self):
        self.rng = np.random.default_rng(1)
        self.cfg = small_config()
        self.params = ModelParams.init(self.cfg, seed=2)
        self.data = random_dataset(self.rng)

    def test_matches_manual_sum(self):
        report = evaluation.test_ll(self.cfg, self.params, self.data)
        manual = 0.0
        for stream in self.data.streams:
            seq = augment(stream, self.cfg.fake_count)
            fwd = forward(seq, self.params, self.cfg)
            manual += quadrature_ll_node(seq, fwd.rate_values())[0]
        assert report.total == pytest.approx(manual, abs=1e-12)
        assert len(report.scores) == len(self.data)

    def test_params_not_mutated(self):
        before = self.params.flatten().copy()
        evaluation.test_ll(self.cfg, self.params, self.data)
        assert np.array_equal(before, self.params.flatten())

    def test_empty_stream_pure_negative_integral(self):
        data = Dataset((EventStream((), 30.0, 2),))
        report = evaluation.test_ll(self.cfg, self.params, data)
        assert report.total < 0.0
        assert report.scores[0].num_events == 0

    def test_label_mismatch_fails_loudly(self):
        data = random_dataset(self.rng, m=3)
        with pytest.raises(ValueError, match="labels"):
            evaluation.test_ll(self.cfg, self.params, data)

    def test_csv_total_row(self, tmp_path):
        report = evaluation.test_ll(self.cfg, self.params, self.data)
        p = tmp_path / "eval.csv"
        report.to_csv(p)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "stream_id,ll,num_events,horizon"
        assert lines[-1].startswith("total,")
        assert len(lines) == len(self.data) + 2
        # every numeric cell is a plain decimal literal
        for line in lines[1:]:
            _, ll, n, horizon = line.split(",")
            assert float(ll) < 0 and int(n) >= 0 and float(horizon) > 0
        assert "np." not in p.read_text()


class TestAttentionGraph:
    def setup_method(self):
        self.rng = np.random.default_rng(3)
        self.cfg = small_config(memory_depth=3)
        self.params = ModelParams.init(self.cfg, seed=4)
        self.data = random_dataset(self.rng)

    def test_zero_threshold_complete_graph_and_simplex_bound(self):
        g = attention_graph(self.cfg, self.params, self.data, threshold=0.0)
        m = self.cfg.label_count
        assert g.adjacency.shape == (m, m)
        assert len(g.edges) == m * m
        assert np.all(g.adjacency >= 0.0)
        assert np.all(g.adjacency <= 1.0)
        # per channel, the average total attention mass over labels and slots
        # cannot exceed 1/J (it is exactly 1/J once the bank is full)
        assert np.all(g.adjacency.sum(axis=1) <= 1.0 / self.cfg.memory_depth + 1e-12)

    @pytest.mark.parametrize("m, depth, long_events", [
        (3, 3, 0), (3, 40, 0), (3, 1, 200), (3, 3, 200), (3, 40, 200), (1, 3, 200),
    ], ids=["J3", "J40-partial", "long-J1", "long-J3", "long-J40", "long-M1"])
    def test_adjacency_sums_attention_entry_by_entry(self, m, depth, long_events):
        # row j*M + q of a recorded alignment array is label q's slice from
        # the j-th oldest record, so its weights count toward column q; with
        # J = 40 no short stream here (at most 24 tokens) ever fills its bank.
        # A long stream (about 400 tokens) crosses attention_graph's 256-token
        # stack; M = 1 gives its narrowest slot blocks, one label by two channels.
        cfg = small_config(m=m, memory_depth=depth)
        params = ModelParams.init(cfg, seed=4)
        data = random_dataset(self.rng, m=m)
        if long_events:
            times = np.unique(self.rng.uniform(0.0, 50.0, size=long_events))
            labels = self.rng.integers(0, m, size=len(times))
            data = Dataset(data.streams + (EventStream(
                tuple(Epoch(t, l) for t, l in zip(times, labels)), 50.0, m),))
        M = cfg.label_count
        sums = np.zeros((M, M))
        tokens = 0
        for stream in data.streams:
            attention = forward(augment(stream, cfg.fake_count), params, cfg).attention
            tokens += len(attention)
            for alpha in attention:
                for j in range(alpha.shape[0] // M):
                    for q in range(M):
                        for k in range(M):
                            sums[k, q] += alpha[j * M + q, k]
        assert tokens > 256 if long_events else tokens < 256
        g = attention_graph(cfg, params, data, threshold=0.0)
        assert np.array_equal(g.adjacency, sums / (tokens * cfg.memory_depth))

    def test_graphs_compare_by_identity(self):
        # an array field would make a generated == ambiguous and hash() fail
        a, b = (attention_graph(self.cfg, self.params, self.data, threshold=0.0) for _ in range(2))
        assert np.array_equal(a.adjacency, b.adjacency) and a.edges == b.edges
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2

    def test_above_one_threshold_empty(self):
        g = attention_graph(self.cfg, self.params, self.data, threshold=1.1)
        assert g.edges == ()

    def test_memory_depth_zero_errors(self):
        cfg = small_config(memory_depth=0)
        params = ModelParams.init(cfg, seed=0)
        with pytest.raises(ValueError, match="attention disabled"):
            attention_graph(cfg, params, self.data, threshold=0.01)

    def test_edge_direction_and_dot_output(self, tmp_path):
        g = attention_graph(self.cfg, self.params, self.data, threshold=0.0)
        weights = [w for _, _, w in g.edges]
        assert weights == sorted(weights, reverse=True)
        p = tmp_path / "att.dot"
        g.to_dot(p, label_names=["a", "b"])
        text = p.read_text()
        assert text.startswith("digraph attention {")
        assert '"a" -> "b"' in text or '"b" -> "a"' in text
        q = tmp_path / "att.json"
        g.to_json(q)
        import json
        doc = json.loads(q.read_text())
        assert doc["num_labels"] == 2
        assert len(doc["edges"]) == len(g.edges)

    def test_planted_edge_recovered_after_training(self):
        # B fires 20x faster inside A's window; the trained attention for
        # channel B should keep label A above the reporting threshold
        spec = PgemSpec(2, (
            NodeSpec((), (), {(): 0.08}),
            NodeSpec((0,), (10.0,), {(0,): 0.01, (1,): 0.2}),
        ))
        data = simulate_dataset(spec, 300.0, 3, seed=6)
        cfg = small_config(memory_depth=2, time_scale=300.0)
        tc = TrainConfig(epochs=8, seed=0)
        params, _ = train(data, cfg, tc)
        g = attention_graph(cfg, params, data, threshold=0.01)
        assert any(q == 0 and k == 1 for q, k, _ in g.edges)


def test_scoring_frees_its_tapes():
    cfg = small_config()
    params = ModelParams.init(cfg, seed=2)
    data = random_dataset(np.random.default_rng(4))
    assert_frees_its_tapes(lambda: evaluation.test_ll(cfg, params, data))
    assert_frees_its_tapes(lambda: attention_graph(cfg, params, data, 0.01))
    assert_frees_its_tapes(lambda: intensity_trace(cfg, params, data.streams[0]))


def test_train_set_ll_equals_final_objective_without_penalties():
    # with both penalty weights at zero, scoring the training set reproduces
    # the returned parameters' training objective exactly
    from tppkit.training import objective

    spec = PgemSpec(1, (NodeSpec((), (), {(): 0.2}),))
    data = Dataset((simulate(spec, 80.0, seed=3),))
    cfg = small_config(m=1, time_scale=80.0)
    tc = TrainConfig(epochs=3, seed=0, pred_weight=0.0, l2_weight=0.0)
    params, _ = train(data, cfg, tc)
    report = evaluation.test_ll(cfg, params, data)
    manual = sum(objective(augment(s, cfg.fake_count), params, cfg, tc)
                 for s in data.streams)
    assert report.total == pytest.approx(manual, abs=1e-12)


def test_trace_sharpness_grows_with_fake_epochs():
    # a model trained with fake epochs shows a sharper rate landscape: higher
    # rates at its own-label events relative to the dead space between them
    spec = PgemSpec(2, (
        NodeSpec((), (), {(): 0.06}),
        NodeSpec((0,), (12.0,), {(0,): 0.01, (1,): 0.25}),
    ))
    data = simulate_dataset(spec, 400.0, 3, seed=2)

    def sharpness(fake_count):
        cfg = small_config(memory_depth=2, fake_count=fake_count, time_scale=400.0)
        params, _ = train(data, cfg, TrainConfig(epochs=20, seed=0,
                                                 learning_rate=1e-2, batch_size=1))
        own, dead = [], []
        for stream in data.streams:
            # common display grid (one midpoint per gap) for both models
            trace = intensity_trace(cfg, params, stream, fake_count=1)
            times_with_events = [e.time for e in stream.epochs]
            is_real = trace.labels[:, None] == np.arange(trace.rates.shape[1])
            at_event = np.isin(trace.times, times_with_events)[:, None]
            own += trace.rates[is_real].tolist()
            dead += trace.rates[~is_real & ~at_event].tolist()
        return np.mean(own) / np.mean(dead)

    assert sharpness(1) > sharpness(0)


class TestIntensityTrace:
    def test_constant_model_flat_at_log2(self):
        cfg = small_config()
        params = ModelParams.init(cfg, seed=1)
        for a in params.arrays():
            a[:] = 0.0
        stream = EventStream((Epoch(10.0, 0), Epoch(30.0, 1)), 50.0, 2)
        trace = intensity_trace(cfg, params, stream)
        assert trace.rates.shape == (len(trace.times), 2)
        assert np.all(np.abs(trace.rates - math.log(2.0)) <= 1e-12)

    def test_times_align_with_augmented_tokens(self):
        cfg = small_config(fake_count=2)
        params = ModelParams.init(cfg, seed=2)
        stream = EventStream((Epoch(10.0, 0), Epoch(30.0, 1)), 50.0, 2)
        seq = augment(stream, 2)
        trace = intensity_trace(cfg, params, stream)
        times = sorted(set(trace.times.tolist()))
        expected = sorted(set(seq.times[1:].tolist()))
        assert times == expected

    def test_real_event_markers(self):
        cfg = small_config()
        params = ModelParams.init(cfg, seed=3)
        stream = EventStream((Epoch(10.0, 1),), 50.0, 2)
        trace = intensity_trace(cfg, params, stream)
        tokens, labs = np.nonzero(trace.labels[:, None] == np.arange(trace.rates.shape[1]))
        marked = list(zip(trace.times[tokens].tolist(), labs.tolist()))
        assert marked == [(10.0, 1)]

    def test_positivity_and_csv(self, tmp_path):
        cfg = small_config()
        params = ModelParams.init(cfg, seed=4)
        stream = EventStream((Epoch(5.0, 0),), 50.0, 2)
        trace = intensity_trace(cfg, params, stream)
        assert np.all(trace.rates > 0)
        p = tmp_path / "trace.csv"
        trace.to_csv(p)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "time,label,lambda,is_real_event"
        assert len(lines) == trace.rates.size + 1

    @pytest.mark.parametrize("source", ["model", "long-reprs"])
    def test_csv_is_the_csv_writer_bytes(self, tmp_path, source):
        if source == "model":
            cfg = small_config(m=3, fake_count=2)
            params = ModelParams.init(cfg, seed=5)
            stream = random_dataset(np.random.default_rng(5), m=3).streams[0]
            trace = intensity_trace(cfg, params, stream)
        else:
            # reprs with exponents and with all 17 digits; label 3 is a fake token
            values = [5e-324, 1e-05, 1e+16, 0.30000000000000004, 1.7976931348623157e+308]
            trace = evaluation.IntensityTrace(
                np.array(values), np.array([0, 3, 2, 1, 3]),
                np.array([np.roll(values, k) for k in range(3)]).T)
        trace.to_csv(tmp_path / "fast.csv")
        trace_csv_by_definition(trace, tmp_path / "reference.csv")
        fast = (tmp_path / "fast.csv").read_bytes()
        assert fast == (tmp_path / "reference.csv").read_bytes()
        assert fast.count(b"\r\n") == trace.rates.size + 1
