import copy
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tppkit.streams import (
    AugmentedSequence, Dataset, Epoch, EpochError, EventStream, StreamFormatError, augment,
    load_stream, save_stream, split_by_stream, split_by_time,
)
from helpers import augment_by_definition, validate_epochs_by_definition


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

    def test_rejects_fractional_label(self):
        # the int64 cast would load 1.9 as label 1 while .epochs keeps 1.9
        with pytest.raises(EpochError, match=r"^label 1.9 is not an integer$") as got:
            EventStream([Epoch(0.5, 1), Epoch(1.7, 1.9)], 4, 2)
        assert got.value.index == 1
        for label in (1, 1.0, np.int64(1)):
            assert EventStream([Epoch(1.7, label)], 4, 2).labels().tolist() == [1]

    def test_names_the_epoch_of_a_label_that_is_no_number(self):
        # numpy's int64 cast parses "1" and stops at nan, a numpy inf and None;
        # each is named by its own epoch, shown by its repr
        for bad in ("1", np.nan, np.float64(np.inf), None):
            shown = re.escape(repr(bad))
            with pytest.raises(EpochError, match=rf"^label {shown} is not an integer$") as got:
                EventStream([Epoch(1.0, 0), Epoch(2.0, bad)], 4, 2)
            assert got.value.index == 1

    def test_rejects_time_beyond_horizon(self):
        with pytest.raises(ValueError):
            make_stream([11.0], [0], 10.0, 1)

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), m=st.integers(1, 4),
           horizon=st.sampled_from([0.0, 1.0, 37.5]) | st.floats(0.0, 1e6))
    def test_arrays_match_per_epoch_reference(self, data, m, horizon):
        """A valid epoch list gives times() and labels() equal to the per-epoch
        arrays, read-only and the same objects on every call; a bad one (times
        NaN, infinite, negative, unordered, repeated or past the horizon, labels
        fractional, infinite, NaN, out of range, beyond int64 or no number at
        all, such as a string or None) raises the per-epoch
        reference's message with the index of the epoch the reference stops at.
        Integral labels, floats and numpy integers included, load as ints."""
        times = data.draw(st.lists(st.floats(0.0, horizon) | st.sampled_from([0.0, horizon])
                                   | st.floats(horizon, 2.0 * horizon + 1.0)
                                   | st.sampled_from([np.nan, np.inf, -np.inf, -5e-324])
                                   | st.floats(max_value=-1.0), max_size=10))
        if data.draw(st.booleans()):
            times = sorted(set(times))
        labels = data.draw(st.lists(st.integers(0, m - 1) | st.integers(-2, m + 1)
                                    | st.sampled_from([2 ** 63, -2 ** 63 - 1, 2 ** 70])
                                    | st.integers(0, m - 1).map(np.int64)
                                    | st.integers(-1, m).map(float)
                                    | st.sampled_from([0.5, m - 0.25, -0.5, np.inf, -np.inf])
                                    | st.sampled_from(["1", None, np.nan]),
                                    min_size=len(times), max_size=len(times)))
        epochs = tuple(map(Epoch, times, labels))
        try:
            validate_epochs_by_definition(epochs, horizon, m)
        except ValueError as exc:
            with pytest.raises(EpochError) as got:
                EventStream(epochs, horizon, m)
            assert str(got.value) == str(exc)
            assert got.value.index == exc.index
            return
        s = EventStream(epochs, horizon, m)
        want_times = np.array([e.time for e in epochs], dtype=np.float64)
        want_labels = np.array([e.label for e in epochs], dtype=np.int64)
        for got, want in ((s.times(), want_times), (s.labels(), want_labels)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[...] = 0
        assert s.times() is s.times() and s.labels() is s.labels()
        for twin in (EventStream(epochs, horizon, m), copy.deepcopy(s),
                     pickle.loads(pickle.dumps(s))):
            assert twin == s and hash(twin) == hash(s)
            assert not (twin.times().flags.writeable or twin.labels().flags.writeable)


class TestDataset:
    @pytest.mark.parametrize("names", [("a", "a"), ("a",), ("a", "b", "c"), ("a", {"x": 2}),
                                       ("a", 1), "ab"],
                             ids=["repeated", "too-few", "too-many", "unhashable", "not-a-string",
                                  "one-string"])
    def test_label_names_must_be_distinct_strings(self, names):
        stream = make_stream([1.0], [0], 4.0, 2)
        with pytest.raises(ValueError, match=r"^label_names must list 2 distinct strings$"):
            Dataset((stream,), label_names=names)
        assert Dataset((stream,), label_names=["b", "a"]).label_names == ("b", "a")


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
        with pytest.raises(StreamFormatError, match=r"d\.csv:3: stream s0: epoch times must "
                                                     r"be strictly increasing at t=2\.0$"):
            load_stream(p)

    @pytest.mark.parametrize("rows, error", [
        # the row on line 3 sorts before the row on line 2, and its label is out of range
        ("s0,3.0,0\ns0,1.0,5\n", r"d\.csv:3: stream s0: label 5 out of range \[0, 2\)"),
        ("s0,1.0,-1\n", r"d\.csv:2: stream s0: label -1 out of range \[0, 2\)"),
        # NaN and inf sort last and -1.0 first, yet each is reported at its own line
        *((f"s1,2.0,0\ns0,1.0,0\ns0,{t},1\ns0,3.0,1\n",
           rf"d\.csv:4: stream s0: epoch time must be finite and >= 0, got {t}")
          for t in ("nan", "inf", "-1.0")),
    ], ids=["line-through-sort", "negative-label", "nan-time", "inf-time", "negative-time"])
    def test_rule_error_names_the_row(self, tmp_path, rows, error):
        p = tmp_path / "d.csv"
        p.write_text("stream_id,time,label\n" + rows)
        (tmp_path / "d.meta.json").write_text('{"num_labels": 2, "horizon": 4}')
        with pytest.raises(StreamFormatError, match=error + "$"):
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
        pytest.param('{"num_labels": 2, "horizon": 4, "stream_ids": "s0"}', id="ids-not-a-list"),
        pytest.param('{"num_labels": 2, "horizon": 4, "stream_ids": [0]}', id="ids-not-strings"),
        pytest.param('{"num_labels": 2, "horizon": 4, "stream_ids": ["s0", "s0"]}',
                     id="ids-repeated"),
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

    def test_streams_are_renamed_in_order_of_first_appearance(self, tmp_path):
        # the file's ids are not kept: the stream whose first row comes first
        # is s0, whatever its id, and save_stream writes the new names
        p = tmp_path / "d.csv"
        p.write_text("stream_id,time,label\nb,2.0,1\na,1.0,0\nb,1.0,0\n")
        (tmp_path / "d.meta.json").write_text('{"num_labels": 2, "horizon": 4}')
        ds = load_stream(p)
        assert ds.stream_ids() == ["s0", "s1"]
        assert [s.times().tolist() for s in ds.streams] == [[1.0, 2.0], [1.0]]
        save_stream(ds, tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_text().splitlines()[1:] == [
            "s0,1.0,0", "s0,2.0,1", "s1,1.0,0"]

    def test_empty_streams_survive_a_round_trip(self, tmp_path):
        # the CSV has no row for a stream without events; the sidecar's
        # stream_ids keep it, in its place
        empty = make_stream([], [], 4.0, 2)
        ds = Dataset((empty, make_stream([1.5], [1], 4.0, 2), empty))
        save_stream(ds, tmp_path / "d.csv")
        assert (tmp_path / "d.csv").read_text().splitlines() == ["stream_id,time,label", "s1,1.5,1"]
        back = load_stream(tmp_path / "d.csv")
        assert [s.times().tolist() for s in back.streams] == [[], [1.5], []]
        assert [s.horizon for s in back.streams] == [4.0] * 3

    def test_listed_ids_order_the_streams(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("stream_id,time,label\na,1.0,0\nb,2.0,1\n")
        (tmp_path / "d.meta.json").write_text(
            '{"num_labels": 2, "horizon": 4, "stream_ids": ["c", "b", "a"]}')
        ds = load_stream(p)
        assert [s.times().tolist() for s in ds.streams] == [[], [2.0], [1.0]]

    def test_row_of_an_unlisted_stream_names_its_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("stream_id,time,label\ns0,1.0,0\ns2,2.0,1\n")
        (tmp_path / "d.meta.json").write_text(
            '{"num_labels": 2, "horizon": 4, "stream_ids": ["s0", "s1"]}')
        with pytest.raises(StreamFormatError,
                           match=r"d\.csv:3: stream s2 is not in the sidecar's stream_ids$"):
            load_stream(p)

    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(42)
        streams = []
        for _ in range(10):
            s = random_stream(rng, m=5, horizon=100.0)
            if len(s) == 0:
                continue
            streams.append(s)
        ds = Dataset(tuple(streams))
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
            seq = augment(s, k)
            assert seq.times[seq.is_real].tolist() == s.times().tolist()
            assert seq.labels[seq.is_real].tolist() == s.labels().tolist()
            assert seq.times[-1] == s.horizon


class TestAugmentedSequenceInvariants:
    def test_rejects_missing_bos(self):
        # the first label is a real label, not M
        with pytest.raises(ValueError, match="with 2 at BOS and EOS"):
            AugmentedSequence([0.0, 4.0], [1, 2], 2)

    def test_interior_label_m_marks_a_fake(self):
        # a token at 1.0 carrying label M is a fake, so stripping the fakes
        # leaves no events: no label marks a real event as the fake label
        seq = AugmentedSequence([0.0, 1.0, 4.0], [2, 2, 2], 2)
        assert not seq.is_real.any() and len(seq.times[seq.is_real]) == 0

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
