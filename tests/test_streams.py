import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tppkit.streams import (
    AugmentedSequence, Dataset, Epoch, EventStream, StreamFormatError, augment,
    load_stream, save_stream, split_by_stream, split_by_time,
)
from helpers import augment_by_definition


def make_stream(times, labels, horizon, m):
    return EventStream(tuple(Epoch(t, l) for t, l in zip(times, labels)), horizon, m)


def random_stream(rng, m=3, horizon=50.0, max_events=30):
    n = int(rng.integers(0, max_events + 1))
    times = np.sort(rng.uniform(0.0, horizon, size=n))
    times = np.unique(times)
    labels = rng.integers(0, m, size=len(times))
    return make_stream(times, labels, horizon, m)


class TestEventStream:
    def test_rejects_unordered_times(self):
        with pytest.raises(ValueError):
            make_stream([2.0, 1.0], [0, 0], 10.0, 1)

    def test_rejects_duplicate_times(self):
        with pytest.raises(ValueError):
            make_stream([2.0, 2.0], [0, 1], 10.0, 2)

    def test_rejects_label_out_of_range(self):
        with pytest.raises(ValueError):
            make_stream([1.0], [2], 10.0, 2)

    def test_rejects_time_beyond_horizon(self):
        with pytest.raises(ValueError):
            make_stream([11.0], [0], 10.0, 1)


class TestLoadSave:
    def test_basic_construction(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("stream_id,time,label\ns0,1.0,0\ns0,3.0,1\n")
        (tmp_path / "d.meta.json").write_text('{"num_labels": 2, "horizon": 4}')
        ds = load_stream(p)
        assert len(ds) == 1
        assert len(ds.streams[0]) == 2
        assert ds.streams[0].horizon == 4.0

    def test_duplicate_timestamp_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("stream_id,time,label\ns0,2.0,0\ns0,2.0,1\n")
        (tmp_path / "d.meta.json").write_text('{"num_labels": 2, "horizon": 4}')
        with pytest.raises(StreamFormatError, match="duplicate timestamp"):
            load_stream(p)

    def test_label_out_of_range_names_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("stream_id,time,label\ns0,1.0,0\ns0,2.0,5\n")
        (tmp_path / "d.meta.json").write_text('{"num_labels": 2, "horizon": 4}')
        with pytest.raises(StreamFormatError, match=r"d\.csv:3"):
            load_stream(p)

    def test_time_beyond_horizon_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("stream_id,time,label\ns0,9.0,0\n")
        (tmp_path / "d.meta.json").write_text('{"num_labels": 2, "horizon": 4}')
        with pytest.raises(StreamFormatError, match="exceeds horizon"):
            load_stream(p)

    def test_malformed_row_names_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("stream_id,time,label\ns0,abc,0\n")
        (tmp_path / "d.meta.json").write_text('{"num_labels": 2, "horizon": 4}')
        with pytest.raises(StreamFormatError, match=r"d\.csv:2"):
            load_stream(p)

    def test_missing_sidecar(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("stream_id,time,label\n")
        with pytest.raises(StreamFormatError, match="d.meta.json"):
            load_stream(p)

    @pytest.mark.parametrize("meta", [
        '{"num_labels": 2, "horizon": 4',
        '{"num_labels": 2, "horizon": 4, "label_names": ["a"]}',
        pytest.param('{"num_labels": 1e999, "horizon": 4}', id="num-labels-overflow"),
        pytest.param('{"num_labels": 2, "horizon": 1%s}' % ("0" * 400), id="horizon-overflow"),
        pytest.param('{"num_labels": 2, "horizon": NaN}', id="horizon-nan"),
        pytest.param('{"num_labels": 2, "horizon": -1}', id="horizon-negative"),
        pytest.param('{"num_labels": 0, "horizon": 4}', id="no-labels"),
        pytest.param("[" * 100000, id="too-deep"),
        pytest.param('{"num_labels": 2.7, "horizon": 4}', id="num-labels-float"),
        pytest.param('{"num_labels": 2.0, "horizon": 4}', id="num-labels-integral-float"),
        pytest.param('{"num_labels": true, "horizon": 4}', id="num-labels-bool"),
        pytest.param('{"num_labels": "3", "horizon": 4}', id="num-labels-string"),
        pytest.param('{"num_labels": 2, "horizon": "10"}', id="horizon-string"),
        pytest.param('{"num_labels": 2, "horizon": true}', id="horizon-bool"),
        pytest.param('{"num_labels": 2, "horizon": null}', id="horizon-null"),
        pytest.param('[2, 4]', id="not-an-object"),
    ])
    def test_bad_sidecar_names_file(self, tmp_path, meta):
        p = tmp_path / "d.csv"
        p.write_text("stream_id,time,label\ns0,1.0,0\n")
        (tmp_path / "d.meta.json").write_text(meta)
        with pytest.raises(StreamFormatError, match=r"d\.meta\.json"):
            load_stream(p)

    @pytest.mark.parametrize("body", [
        b"s0,1.0,0\n\xff\n",
        b'"' + b"x" * 200000 + b'"\n',
    ], ids=["undecodable", "field-too-large"])
    def test_unreadable_csv_names_file(self, tmp_path, body):
        p = tmp_path / "d.csv"
        p.write_bytes(b"stream_id,time,label\n" + body)
        (tmp_path / "d.meta.json").write_text('{"num_labels": 2, "horizon": 4}')
        with pytest.raises(StreamFormatError, match=r"d\.csv"):
            load_stream(p)

    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(42)
        streams = []
        for _ in range(10):
            s = random_stream(rng, m=5, horizon=100.0)
            if len(s) == 0:
                continue
            streams.append(s)
        ds = Dataset(tuple(streams), name="rt")
        p = tmp_path / "rt.csv"
        save_stream(ds, p)
        back = load_stream(p)
        assert len(back) == len(ds)
        for a, b in zip(ds.streams, back.streams):
            assert a.horizon == b.horizon
            assert a.epochs == b.epochs

        # byte-for-byte stability of a second save
        q = tmp_path / "rt2.csv"
        save_stream(back, q)
        assert p.read_bytes() == q.read_bytes()


class TestSplitByTime:
    def test_example_arithmetic(self):
        ds = Dataset((make_stream([1.0, 5.0, 8.0], [0, 0, 0], 10.0, 1),))
        train, test = split_by_time(ds, 0.7)
        assert train.streams[0].times().tolist() == [1.0, 5.0]
        assert train.streams[0].horizon == pytest.approx(7.0)
        assert test.streams[0].times().tolist() == [pytest.approx(1.0)]
        assert test.streams[0].horizon == pytest.approx(3.0)

    def test_empty_train_side_allowed(self):
        ds = Dataset((make_stream([9.0], [0], 10.0, 1),))
        train, test = split_by_time(ds, 0.5)
        assert len(train.streams[0]) == 0
        assert len(test.streams[0]) == 1

    def test_conservation_over_random_streams(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            s = random_stream(rng, m=2, horizon=20.0, max_events=12)
            ds = Dataset((s,))
            frac = float(rng.uniform(0.1, 0.9))
            train, test = split_by_time(ds, frac)
            assert len(train.streams[0]) + len(test.streams[0]) == len(s)

    def test_concatenation_recovers_stream(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            s = random_stream(rng, m=2, horizon=20.0, max_events=12)
            train, test = split_by_time(Dataset((s,)), 0.7)
            cut = train.streams[0].horizon
            rebuilt_times = list(train.streams[0].times()) + [t + cut for t in test.streams[0].times()]
            assert np.allclose(rebuilt_times, s.times(), rtol=0, atol=1e-12)

    def test_fraction_bounds(self):
        ds = Dataset((make_stream([1.0], [0], 10.0, 1),))
        for f in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                split_by_time(ds, f)


class TestSplitByStream:
    def make_ds(self, n=10):
        rng = np.random.default_rng(5)
        streams = tuple(random_stream(rng, m=2, horizon=30.0) for _ in range(n))
        return Dataset(streams)

    def test_seventy_thirty(self):
        train, test = split_by_stream(self.make_ds(10), 0.7, seed=1)
        assert len(train) == 7
        assert len(test) == 3

    def test_deterministic_per_seed(self):
        ds = self.make_ds(10)
        a1, b1 = split_by_stream(ds, 0.7, seed=99)
        a2, b2 = split_by_stream(ds, 0.7, seed=99)
        assert a1.streams == a2.streams
        assert b1.streams == b2.streams

    def test_partition_property(self):
        ds = self.make_ds(9)
        all_ids = {id(s) for s in ds.streams}
        for seed in range(100):
            train, test = split_by_stream(ds, 0.6, seed=seed)
            got = {id(s) for s in train.streams} | {id(s) for s in test.streams}
            assert got == all_ids
            assert not ({id(s) for s in train.streams} & {id(s) for s in test.streams})

    def test_single_stream_directs_to_time_split(self):
        ds = Dataset((make_stream([1.0], [0], 10.0, 1),))
        with pytest.raises(ValueError, match="split_by_time"):
            split_by_stream(ds, 0.7, seed=0)


class TestAugment:
    def test_midpoint_rule(self):
        s = make_stream([1.0, 3.0], [0, 1], 4.0, 2)
        seq = augment(s, 1)
        assert len(seq) == 7
        assert seq.times.tolist() == [0.0, 0.5, 1.0, 2.0, 3.0, 3.5, 4.0]
        assert seq.labels.tolist() == [2, 2, 0, 2, 1, 2, 2]
        assert seq.is_real.tolist() == [False, False, True, False, True, False, False]
        assert seq.horizon == 4.0

    def test_k_zero_identity(self):
        s = make_stream([1.0, 3.0], [0, 1], 4.0, 2)
        seq = augment(s, 0)
        assert seq.times.tolist() == [0.0, 1.0, 3.0, 4.0]
        assert seq.labels.tolist() == [2, 0, 1, 2]

    def test_k2_spacing(self):
        s = make_stream([2.0], [0], 5.0, 1)
        seq = augment(s, 2)
        fakes = seq.times[(seq.labels == 1) & (seq.times > 2.0)][:-1]
        assert fakes.tolist() == [pytest.approx(3.0), pytest.approx(4.0)]

    def test_uniform_spacing_property(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            s = random_stream(rng, m=3, horizon=40.0)
            k = int(rng.integers(1, 5))
            seq = augment(s, k)
            fake = ~seq.is_real
            fake[[0, -1]] = False
            # spacing within each run of fakes, with the tokens that bracket
            # it, is uniform to 1e-12 relative
            anchor, run = 0, []
            for i in range(1, len(seq)):
                if fake[i]:
                    run.append(i)
                    continue
                if run:
                    gaps = np.diff(seq.times[[anchor] + run + [i]])
                    assert len(run) == k
                    assert np.max(np.abs(gaps - gaps[0])) <= 1e-12 * max(1.0, seq.times[i])
                anchor, run = i, []

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), m=st.integers(1, 4), k=st.integers(0, 5),
           horizon=st.sampled_from([0.0, 1.0, 37.5]) | st.floats(0.0, 1e6))
    def test_matches_per_token_reference(self, data, m, k, horizon):
        # events anywhere in [0, T], at 0 and at T included, or none at all
        drawn = data.draw(st.lists(st.floats(0.0, horizon) | st.sampled_from([0.0, horizon]),
                                   max_size=12))
        times = sorted({t + 0.0 for t in drawn})  # + 0.0 folds -0.0 into 0.0
        labels = data.draw(st.lists(st.integers(0, m - 1), min_size=len(times),
                                    max_size=len(times)))
        s = make_stream(times, labels, horizon, m)
        seq = augment(s, k)
        want_times, want_labels = augment_by_definition(s, k)
        assert np.array_equal(seq.times, want_times)
        assert np.array_equal(seq.labels, want_labels)

    def test_token_count_formula(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            s = random_stream(rng, m=2, horizon=25.0, max_events=15)
            k = int(rng.integers(0, 6))
            seq = augment(s, k)
            skel = [0.0] + list(s.times()) + [s.horizon]
            gaps = sum(1 for a, b in zip(skel, skel[1:]) if b > a)
            assert len(seq) == (len(s) + 2) + k * gaps

    def test_zero_length_boundary_gaps(self):
        s = make_stream([0.0, 10.0], [0, 1], 10.0, 2)
        seq = augment(s, 3)
        fakes = seq.times[1:-1][~seq.is_real[1:-1]]
        # only the single interior gap receives fakes
        assert len(fakes) == 3
        assert np.all((0.0 < fakes) & (fakes < 10.0))

    def test_strip_recovers_source(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            s = random_stream(rng, m=4, horizon=15.0)
            k = int(rng.integers(0, 4))
            back = augment(s, k).real_events()
            assert back.epochs == s.epochs
            assert back.horizon == s.horizon


class TestAugmentedSequenceInvariants:
    def test_rejects_missing_bos(self):
        # the first label is a real label, not M
        with pytest.raises(ValueError, match="with 2 at BOS and EOS"):
            AugmentedSequence([0.0, 4.0], [1, 2], 2)

    def test_interior_label_m_marks_a_fake(self):
        # a token at 1.0 carrying label M is a fake, so the stream it strips
        # back to has no events: no label marks a real event as the fake label
        seq = AugmentedSequence([0.0, 1.0, 4.0], [2, 2, 2], 2)
        assert not seq.is_real.any() and len(seq.real_events()) == 0

    @pytest.mark.parametrize("times, labels", [
        ([0.0], [2]),                          # fewer than 2 tokens
        ([0.0, 1.0, 4.0], [2, 2]),             # unequal lengths
        ([[0.0, 4.0]], [[2, 2]]),              # not 1-d
        ([1.0, 4.0], [2, 2]),                  # BOS not at time 0
        ([0.0, 3.0, 2.0, 4.0], [2, 0, 1, 2]),  # times decreasing
        ([0.0, np.nan, 4.0], [2, 0, 2]),       # time not finite
        ([0.0, 1.0, 4.0], [2, 0, 1]),          # EOS carries a real label
        ([0.0, 1.0, 4.0], [2, 3, 2]),          # label above M
        ([0.0, 1.0, 4.0], [2, -1, 2]),         # negative label
        ([0.0, 1.0, 1.0, 4.0], [2, 0, 1, 2]),  # two real events at one time
    ], ids=["short", "unequal", "2d", "bos-time", "decreasing", "nan", "eos-label",
            "label-above-m", "negative-label", "real-tie"])
    def test_rejects_malformed_arrays(self, times, labels):
        with pytest.raises(ValueError):
            AugmentedSequence(times, labels, 2)

    def test_arrays_are_read_only_copies(self):
        times, labels = np.array([0.0, 1.0, 4.0]), np.array([2, 0, 2])
        seq = AugmentedSequence(times, labels, 2)
        times[1] = 2.0
        assert seq.times[1] == 1.0
        for arr in (seq.times, seq.labels, seq.is_real):
            with pytest.raises(ValueError):
                arr[0] = 1
