import hashlib
import itertools
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tppkit.pgem as pgem
from tppkit.pgem import (
    ChangePointTrace, GenConfig, NodeSpec, PgemSpec, build_trace, exact_ll,
    homogeneous_ml_ll, load_spec, rate_at, sample_spec, save_spec, simulate,
    simulate_dataset,
)
from tppkit.streams import Epoch, EventStream, save_stream

from helpers import pgem_ll_by_definition, pgem_rates_by_definition, simulate_by_definition


def poisson_spec(rate=0.1):
    return PgemSpec(1, (NodeSpec((), (), {(): rate}),))


def chain_spec(base_a=0.05, b_active=0.2, b_inactive=0.001, window=15.0):
    """Two nodes: A parentless, B driven by A inside the window."""
    return PgemSpec(2, (
        NodeSpec((), (), {(): base_a}),
        NodeSpec((0,), (window,), {(0,): b_inactive, (1,): b_active}),
    ))


def shared_edge_spec():
    """Nodes 1 and 2 share the edge (0, 2.0); parent 0 also carries window 7.0."""
    return PgemSpec(4, (
        NodeSpec((), (), {(): 0.3}),
        NodeSpec((0,), (2.0,), {(0,): 0.05, (1,): 0.4}),
        NodeSpec((0, 3), (2.0, 5.0), {(0, 0): 0.02, (0, 1): 0.1, (1, 0): 0.2, (1, 1): 0.5}),
        NodeSpec((0, 1), (7.0, 3.0), {(0, 0): 0.03, (0, 1): 0.15, (1, 0): 0.08, (1, 1): 0.25}),
    ))


class TestSpecValidation:
    def test_rejects_zero_rate(self):
        with pytest.raises(ValueError):
            NodeSpec((), (), {(): 0.0})

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            NodeSpec((0,), (0.0,), {(0,): 0.1, (1,): 0.2})

    def test_rejects_incomplete_table(self):
        with pytest.raises(ValueError):
            NodeSpec((0, 1), (5.0, 5.0), {(0, 0): 0.1})

    def test_rejects_infinite_rate(self):
        # exact_ll read nan for such a spec
        with pytest.raises(ValueError, match="rate must be positive and finite, got inf"):
            NodeSpec((), (), {(): math.inf})

    def test_rejects_out_of_range_parent(self):
        with pytest.raises(ValueError):
            PgemSpec(1, (NodeSpec((3,), (5.0,), {(0,): 0.1, (1,): 0.2}),))


class TestSampleSpec:
    def test_single_label_degenerate(self):
        spec = sample_spec(1, seed=0)
        assert spec.label_count == 1
        node = spec.nodes[0]
        assert node.parents == ()
        assert 0.001 <= node.rates[()] <= 0.1

    def test_deterministic_per_seed(self):
        a = sample_spec(5, seed=123)
        b = sample_spec(5, seed=123)
        assert a == b
        c = sample_spec(5, seed=124)
        assert a != c

    def test_parent_count_histogram_uniform(self):
        counts = {0: 0, 1: 0, 2: 0}
        for seed in range(10000, 11000):
            spec = sample_spec(5, seed=seed)
            for node in spec.nodes:
                counts[len(node.parents)] += 1
        total = sum(counts.values())
        expected = total / 3.0
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        # chi-square with 2 dof at p=0.01
        assert chi2 < 9.21034

    def test_windows_and_rates_from_config(self):
        cfg = GenConfig(windows=(7.0,), rate_low=0.5, rate_high=0.6)
        spec = sample_spec(4, seed=2, config=cfg)
        for node in spec.nodes:
            assert all(w == 7.0 for w in node.windows)
            assert all(0.5 <= r <= 0.6 for r in node.rates.values())


class TestSimulate:
    def test_t_zero_empty(self):
        s = simulate(poisson_spec(), 0.0, seed=1)
        assert len(s) == 0

    @pytest.mark.parametrize("horizon", ["inf", "nan"])
    def test_nonfinite_horizon_raises(self, horizon):
        # in a child process under a timeout, so a loop that never ends fails
        # the test instead of hanging it
        code = ("import sys\nfrom tppkit.pgem import sample_spec, simulate\n"
                "try:\n    simulate(sample_spec(2, seed=0), float(sys.argv[1]), seed=0)\n"
                "except ValueError as exc:\n    print(exc)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(pgem.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code, horizon], env=env,
                              capture_output=True, text=True, timeout=10)
        assert proc.stdout == f"horizon must be finite and >= 0, got {horizon}\n"

    @pytest.mark.parametrize("spec, horizon, message", [
        ("sample_spec(2, seed=0)", "1e300", "the spec's largest total rate 0.04352716175400817 "
         "times the horizon 1e+300 must be at most 1000000 expected events"),
        # NodeSpec refuses an infinite rate, so this runaway spec cannot be built
        ("PgemSpec(1, (NodeSpec((), (), {(): math.inf}),))", "0.0",
         "rate must be positive and finite, got inf"),
    ], ids=["runaway-horizon", "infinite-rate"])
    def test_horizon_beyond_event_budget_raises(self, spec, horizon, message):
        # in a child process under a timeout, as above: without the event
        # budget these runs would fill memory instead of ending
        code = ("import math, sys\n"
                "from tppkit.pgem import NodeSpec, PgemSpec, sample_spec, simulate\n"
                f"try:\n    simulate({spec}, float(sys.argv[1]), seed=0)\n"
                "except ValueError as exc:\n    print(exc)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(pgem.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code, horizon], env=env,
                              capture_output=True, text=True, timeout=10)
        assert proc.stdout == message + "\n"

    @pytest.mark.parametrize("labels", [1, 20, 50])
    @pytest.mark.parametrize("horizon", [0.0, 150.0])
    def test_matches_definition_on_sampled_specs(self, labels, horizon):
        for seed in range(3):
            assert_simulates_as_definition(sample_spec(labels, seed=seed), horizon, seed)

    def test_poisson_count_statistics(self):
        total = 0
        n_runs = 10
        for seed in range(n_runs):
            total += len(simulate(poisson_spec(0.1), 1000.0, seed=seed))
        mean = n_runs * 100.0
        assert abs(total - mean) < 3.0 * math.sqrt(mean)

    def test_window_conditioning(self):
        spec = chain_spec()
        within = 0
        total = 0
        for seed in range(5):
            s = simulate(spec, 2000.0, seed=seed)
            a_times = [e.time for e in s.epochs if e.label == 0]
            for e in s.epochs:
                if e.label != 1:
                    continue
                total += 1
                if any(e.time - 15.0 <= ta < e.time for ta in a_times):
                    within += 1
        assert total > 20
        assert within / total >= 0.95

    def test_deterministic_and_seed_sensitivity(self):
        spec = sample_spec(3, seed=9)
        s1 = simulate(spec, 500.0, seed=4)
        s2 = simulate(spec, 500.0, seed=4)
        s3 = simulate(spec, 500.0, seed=5)
        assert s1.epochs == s2.epochs
        assert s1.epochs != s3.epochs

    @pytest.mark.parametrize("labels, horizon, digest", [
        (5, 500.0, "3c9925deea828dd5033895c0a1006f3990ba87aa3cdf4b50f8e0b88a1fffa3db"),
        (20, 300.0, "d7ea3d9a0da5ad4afb96a7ff6a665d069c8bbaa6400cd21e4bbcc73193759f6b"),
    ], ids=["M5", "M20"])
    def test_epochs_pinned(self, labels, horizon, digest):
        """The exact epochs are fixed: any change to the (t-w, t] lookup or to the
        order of the random draws shows here."""
        s = simulate(sample_spec(labels, seed=7), horizon, seed=3)
        text = "".join(f"{e.time!r},{e.label}\n" for e in s.epochs)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_stream_invariants_hold(self):
        for seed in range(20):
            spec = sample_spec(4, seed=seed)
            s = simulate(spec, 300.0, seed=seed)
            times = s.times()
            assert np.all(np.diff(times) > 0) if len(times) > 1 else True
            assert np.all(times <= 300.0)


class TestBuildTrace:
    def test_no_events_single_segment(self):
        spec = chain_spec()
        s = EventStream((), 10.0, 2)
        trace = build_trace(spec, s)
        assert trace.breaks.tolist() == [0.0, 10.0]
        assert trace.rates.shape == (1, 2)
        assert trace.rates[0, 0] == 0.05
        assert trace.rates[0, 1] == 0.001

    def test_expiry_beyond_horizon_clipped(self):
        spec = chain_spec(window=15.0)
        s = EventStream((Epoch(3.0, 0),), 10.0, 2)
        trace = build_trace(spec, s)
        assert trace.breaks.tolist() == [0.0, 3.0, 10.0]
        # B active after A fires, until the horizon
        assert trace.rates[0, 1] == 0.001
        assert trace.rates[1, 1] == 0.2

    def test_segments_tile_horizon(self):
        for seed in range(25):
            spec = sample_spec(4, seed=seed)
            s = simulate(spec, 200.0, seed=seed + 100)
            trace = build_trace(spec, s)
            widths = np.diff(trace.breaks)
            assert np.all(widths > 0)
            assert abs(float(np.sum(widths)) - 200.0) < 1e-9

    def test_integral_consistency_with_exact_ll(self):
        for seed in range(10):
            spec = sample_spec(3, seed=seed)
            s = simulate(spec, 150.0, seed=seed + 7)
            trace = build_trace(spec, s)
            at_events = rate_at(spec, s, s.times())[np.arange(len(s)), s.labels()]
            log_sum = float(np.sum(np.log(at_events)))
            assert abs((log_sum - trace.integral()) - exact_ll(spec, s)) < 1e-9


class TestExactLL:
    def test_homogeneous_closed_form(self):
        spec = poisson_spec(0.1)
        s = EventStream((Epoch(2.0, 0), Epoch(5.0, 0)), 10.0, 1)
        expected = 2.0 * math.log(0.1) - 0.1 * 10.0
        assert exact_ll(spec, s) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(-5.605170, abs=1e-6)

    def test_empty_stream_integral_only(self):
        spec = poisson_spec(0.1)
        s = EventStream((), 10.0, 1)
        assert exact_ll(spec, s) == pytest.approx(-1.0, abs=1e-12)

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError):
            exact_ll(poisson_spec(), EventStream((), 10.0, 2))

    def test_quadrature_grid_convergence(self):
        # a right-endpoint quadrature on grids refined toward the change
        # points converges to the closed form integral
        spec = chain_spec()
        s = simulate(spec, 300.0, seed=3)
        exact = exact_ll(spec, s)
        at_events = rate_at(spec, s, s.times())[np.arange(len(s)), s.labels()]
        log_sum = float(np.sum(np.log(at_events)))
        errs = []
        for n_grid in (50, 200, 800, 3200):
            grid = np.linspace(0.0, 300.0, n_grid + 1)
            integral = float(np.diff(grid) @ rate_at(spec, s, grid[1:]).sum(axis=1))
            errs.append(abs((log_sum - integral) - exact))
        assert errs[-1] < errs[0]
        assert errs[-1] < 0.05 * abs(exact)

        # a grid containing every change point is exact
        breaks = build_trace(spec, s).breaks
        mids = 0.5 * (breaks[:-1] + breaks[1:])
        integral = float(np.diff(breaks) @ rate_at(spec, s, mids).sum(axis=1))
        assert abs((log_sum - integral) - exact) < 1e-6

    def test_homogeneous_fit_needs_a_positive_horizon(self):
        assert homogeneous_ml_ll(EventStream((), 0.0, 2)) == 0.0
        with pytest.raises(ValueError, match="horizon 0.0"):
            homogeneous_ml_ll(EventStream((Epoch(0.0, 1),), 0.0, 2))

    def test_dominates_homogeneous_fit_with_active_edge(self):
        spec = chain_spec(base_a=0.05, b_active=0.2, b_inactive=0.002)
        s = simulate(spec, 3000.0, seed=11)
        assert exact_ll(spec, s) > homogeneous_ml_ll(s)


class TestAgainstDefinition:
    """rate_at, build_trace and exact_ll against the window rule written out
    event by event (tests/helpers.py)."""

    CASES = [(1, 0, 1000.0), (2, 1, 500.0), (3, 2, 400.0), (5, 3, 300.0),
             (5, 4, 300.0), (8, 5, 150.0), (20, 6, 80.0), (20, 7, 100.0)]
    WINDOWS = (2.0, 5.0, 10.0)

    def _stream(self, labels, seed, horizon):
        config = GenConfig(windows=self.WINDOWS, rate_low=0.05, rate_high=0.3)
        spec = sample_spec(labels, seed=seed, config=config)
        return spec, simulate(spec, horizon, seed=seed + 40)

    @pytest.mark.parametrize("labels, seed, horizon", CASES)
    def test_rate_at(self, labels, seed, horizon):
        spec, s = self._stream(labels, seed, horizon)
        assert len(s) > 50
        queries = [0.0, horizon] + np.random.default_rng(seed).uniform(0, horizon, 20).tolist()
        for e in s.epochs[:30]:
            queries.append(e.time)
            queries += [e.time + w for w in self.WINDOWS]
        got = rate_at(spec, s, queries)
        assert got.shape == (len(queries), labels)
        for q, rates in zip(queries, got):
            assert np.array_equal(rates, pgem_rates_by_definition(spec, s, q))
        with pytest.raises(ValueError, match="1-d"):
            rate_at(spec, s, queries[0])

    @pytest.mark.parametrize("labels, seed, horizon", CASES)
    def test_build_trace_and_exact_ll(self, labels, seed, horizon):
        spec, s = self._stream(labels, seed, horizon)
        trace = build_trace(spec, s)
        for a, b, rates in zip(trace.breaks[:-1], trace.breaks[1:], trace.rates):
            assert np.array_equal(rates, pgem_rates_by_definition(spec, s, 0.5 * (a + b)))
        want = pgem_ll_by_definition(spec, s)
        assert abs(exact_ll(spec, s) - want) <= 1e-12 * abs(want)

    def test_window_edges(self):
        # parent event at s=1.0, window w=2.0: active for q in (1.0, 3.0]
        spec = chain_spec(window=2.0)
        s = EventStream((Epoch(1.0, 0), Epoch(3.0, 1)), 5.0, 2)
        queries = (1.0, 2.0, 3.0, math.nextafter(3.0, 4.0))
        for q, active, rates in zip(queries, (False, True, True, False),
                                    rate_at(spec, s, queries)):
            want = 0.2 if active else 0.001
            assert rates[1] == want
            assert pgem_rates_by_definition(spec, s, q)[1] == want
        # the child event at exactly q = s + w sees its parent
        expected = math.log(0.05) + math.log(0.2) - 0.05 * 5.0 - (0.001 * 3.0 + 0.2 * 2.0)
        assert exact_ll(spec, s) == pytest.approx(expected, rel=1e-12)
        assert pgem_ll_by_definition(spec, s) == pytest.approx(expected, rel=1e-12)
        trace = build_trace(spec, s)
        assert trace.breaks.tolist() == [0.0, 1.0, 3.0, 5.0]
        assert trace.rates[:, 1].tolist() == [0.001, 0.2, 0.001]

    @pytest.mark.parametrize("times, labels", [
        ((), ()),                    # no events
        ((0.0, 2.5), (1, 0)),        # the child at 0, with no history
        ((0.0, 1.0), (0, 1)),        # the parent at 0, the child inside its window
        ((4.0, 5.0), (0, 1)),        # the child at T, its parent active
        ((1.0, 3.0), (0, 1)),        # the child at the expiry s + w, (s + w) - w == s
    ])
    def test_exact_ll_edges(self, times, labels):
        spec = chain_spec(window=2.0)
        s = EventStream(tuple(map(Epoch, times, labels)), 5.0, 2)
        want = pgem_ll_by_definition(spec, s)
        assert abs(exact_ll(spec, s) - want) <= 1e-12 * abs(want)

    def test_event_at_inexact_expiry_reads_the_trace(self):
        # parent at p = 0.1, window w = 0.2: q = p + w rounds so that q - w > p,
        # and a test q - w <= p would find the parent inactive at q. The
        # trace's break at q ends the active segment there; rate_at and the
        # definition compare q with the same float p + w, so they read that
        # segment, and exact_ll reads the child's log term off it, as its
        # integral does.
        p, w = 0.1, 0.2
        q = p + w
        assert q - w > p
        spec = chain_spec(window=w)
        s = EventStream((Epoch(p, 0), Epoch(q, 1)), 1.0, 2)
        trace = build_trace(spec, s)
        assert trace.breaks.tolist() == [0.0, p, q, 1.0]
        assert trace.rates[:, 1].tolist() == [0.001, 0.2, 0.001]
        assert rate_at(spec, s, [q])[0, 1] == 0.2
        assert pgem_rates_by_definition(spec, s, q)[1] == 0.2
        integral = 0.05 * 1.0 + 0.001 * (1.0 - (q - p)) + 0.2 * (q - p)
        expected = math.log(0.05) + math.log(0.2) - integral
        assert exact_ll(spec, s) == pytest.approx(expected, rel=1e-12)
        assert trace.integral() == pytest.approx(integral, rel=1e-12)

    def test_segment_between_adjacent_floats(self):
        # the segment (1, b] between two adjacent floats has its midpoint
        # rounded onto 1.0, where the parent is not yet active; the trace
        # reads the rates at the segment's end, so the child at b sees its
        # parent, as rate_at and the definition do
        b = math.nextafter(1.0, 2.0)
        assert 0.5 * (1.0 + b) == 1.0
        spec = chain_spec(window=2.0)
        s = EventStream((Epoch(1.0, 0), Epoch(b, 1)), 5.0, 2)
        trace = build_trace(spec, s)
        assert trace.breaks.tolist() == [0.0, 1.0, b, 3.0, 5.0]
        assert trace.rates[:, 1].tolist() == [0.001, 0.2, 0.2, 0.001]
        assert rate_at(spec, s, [b])[0, 1] == 0.2
        want = pgem_ll_by_definition(spec, s)
        assert abs(exact_ll(spec, s) - want) <= 1e-12 * abs(want)


class TestLabelCountMismatch:
    """A stream with more labels than the spec has extra labels' events that
    no node reads; the oracle rejects it rather than drop them."""

    STREAM = EventStream((Epoch(1.0, 0), Epoch(2.0, 2)), 5.0, 3)

    def test_rate_at(self):
        with pytest.raises(ValueError, match="label_count"):
            rate_at(chain_spec(), self.STREAM, [1.5])

    def test_build_trace(self):
        with pytest.raises(ValueError, match="label_count"):
            build_trace(chain_spec(), self.STREAM)


class TestPinned:
    """build_trace's bytes and exact_ll's value, recorded before the oracle was
    rewritten around PgemSpec.plan: the trace must hold bit for bit, exact_ll
    within 1e-15 relative (its log terms may be summed in another order)."""

    @pytest.mark.parametrize("labels, horizon, digest, ll", [
        (1, 2000.0, "313a60326d1b21f4011798e276d36150262eb9bddfae82cf508c4132436857b1",
         "-0x1.b6435a01a67b4p+8"),
        (5, 3000.0, "d414a609d550dd0ac8401dda98fd99f6a3baf338eedf0fdf520c58e0093725c6",
         "-0x1.a87ddd571557cp+9"),
        (20, 300.0, "03a3d247df452e9c1d9829259129cf03f6e35030eccec55923c47800cd0008ca",
         "-0x1.eda12f8f461aep+8"),
        (None, 200.0, "8dff3f786ae8dbb7177d31110f76973489faf2027fb7005b6219c55a585e59ab",
         "-0x1.8ae55eca5a088p+8"),
    ], ids=["M1", "M5", "M20", "shared-edge"])
    def test_trace_and_ll(self, labels, horizon, digest, ll):
        spec = shared_edge_spec() if labels is None else sample_spec(labels, seed=7)
        s = simulate(spec, horizon, seed=3)
        trace = build_trace(spec, s)
        got = hashlib.sha256(trace.breaks.tobytes() + trace.rates.tobytes()).hexdigest()
        assert got == digest
        want = float.fromhex(ll)
        assert abs(exact_ll(spec, s) - want) <= 1e-15 * abs(want)

    def test_exact_ll_builds_one_trace(self, monkeypatch):
        calls = []
        build = pgem.build_trace

        def counting(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(pgem, "build_trace", counting)
        spec = shared_edge_spec()
        exact_ll(spec, simulate(spec, 50.0, seed=3))
        assert len(calls) == 1


class TestPinnedBits:
    """build_trace, rate_at (at the breaks and the segment midpoints) and exact_ll
    on three simulated streams per label count, and the CSV that save_stream
    writes for them, bit for bit as recorded when times() and labels() still
    built a new array from the epochs on every call."""

    @pytest.mark.parametrize("labels, horizon, oracle_digest, csv_digest", [
        (1, 3000.0, "519c04cbcd2d47595c67ac96f8cc98db81b8d18f2242b487532aad8a080e2a9d",
         "b45e9ccc8fe27ed5f962b5ef77aaef6b6dc12bb962f27e864d5fffe153fc9ec1"),
        (3, 1000.0, "235cdc16401959367567a3ef5c4bc6cfce3158d6b64926be7363fc9b220f26a6",
         "18e7767caf23fb2fcb55af52570fe5febf7046d6b6e1e87a93d369cd37e07966"),
        (5, 600.0, "40b0fcfa2562474ce9c226894fc8116426998d92d318e2cd0a09fad74b3251d0",
         "d01e7b44120a47e7cb0af75b488bf259d8170ff29a4dc66a14538671edc2baf2"),
        (20, 150.0, "85e871e9556b46bda65fbd0f19b7f34ad3ae2d6979cf93cdd18938e50efa0473",
         "e67cadcc243dd524e505fdcbf98ff086a9d6ca3946a6ee460318b58b24f38d05"),
    ], ids=["M1", "M3", "M5", "M20"])
    def test_oracle_and_csv(self, labels, horizon, oracle_digest, csv_digest, tmp_path):
        spec = sample_spec(labels, seed=11)
        data = simulate_dataset(spec, horizon, 3, seed=5)
        h = hashlib.sha256()
        for s in data.streams:
            trace = build_trace(spec, s)
            mids = 0.5 * (trace.breaks[:-1] + trace.breaks[1:])
            h.update(trace.breaks.tobytes() + trace.rates.tobytes())
            h.update(rate_at(spec, s, np.concatenate([trace.breaks, mids])).tobytes())
            h.update(struct.pack("<d", exact_ll(spec, s)))
        assert h.hexdigest() == oracle_digest
        save_stream(data, tmp_path / "d.csv")
        assert hashlib.sha256((tmp_path / "d.csv").read_bytes()).hexdigest() == csv_digest


WINDOWS = (1.0, 2.5, 4.0)


@st.composite
def specs(draw):
    """A hand-built spec (M <= 6) whose windows come from three values, so that
    edges are shared and parents carry several windows."""
    m = draw(st.integers(1, 6))
    nodes = []
    for _ in range(m):
        parents = draw(st.lists(st.integers(0, m - 1), unique=True, max_size=min(m, 3)))
        windows = [draw(st.sampled_from(WINDOWS)) for _ in parents]
        rates = draw(st.lists(st.floats(0.01, 0.9), min_size=2 ** len(parents),
                              max_size=2 ** len(parents)))
        nodes.append(NodeSpec(tuple(parents), tuple(windows),
                              dict(zip(itertools.product((0, 1), repeat=len(parents)), rates))))
    return PgemSpec(m, tuple(nodes))


@st.composite
def spec_and_stream(draw):
    """A spec from specs() and a stream with events at 0, at T and exactly at
    earlier events' s + w."""
    spec = draw(specs())
    m = spec.label_count
    horizon = 10.0
    times = set(draw(st.lists(st.floats(0.0, horizon), max_size=10)))
    if draw(st.booleans()):
        times |= {0.0, horizon}
    base = sorted(times)
    for i, w in draw(st.lists(st.tuples(st.integers(0, 20), st.sampled_from(WINDOWS)),
                              max_size=6)):
        if base and base[i % len(base)] + w <= horizon:
            times.add(base[i % len(base)] + w)
    times = sorted(times)
    labels = draw(st.lists(st.integers(0, m - 1), min_size=len(times), max_size=len(times)))
    return spec, EventStream(tuple(map(Epoch, times, labels)), horizon, m)


@settings(max_examples=150, deadline=None)
@given(case=spec_and_stream())
def test_oracle_matches_definition(case):
    """rate_at and build_trace bit for bit, exact_ll within 1e-12, against the
    window rule written out event by event."""
    spec, s = case
    trace = build_trace(spec, s)
    mids = 0.5 * (trace.breaks[:-1] + trace.breaks[1:])
    queries = np.concatenate([trace.breaks, mids])
    for q, rates in zip(queries, rate_at(spec, s, queries)):
        assert np.array_equal(rates, pgem_rates_by_definition(spec, s, q))
    for q, rates in zip(trace.breaks[1:], trace.rates):
        assert np.array_equal(rates, pgem_rates_by_definition(spec, s, q))
    want = pgem_ll_by_definition(spec, s)
    assert abs(exact_ll(spec, s) - want) <= 1e-12 * abs(want)


def assert_simulates_as_definition(spec, horizon, seed):
    """simulate gives simulate_by_definition's epochs bit for bit and leaves a
    passed-in generator in the same state."""
    fast_rng, slow_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    fast = simulate(spec, horizon, fast_rng)
    slow = simulate_by_definition(spec, horizon, slow_rng)
    assert fast.times().tobytes() == slow.times().tobytes()
    assert np.array_equal(fast.labels(), slow.labels())
    assert fast_rng.random() == slow_rng.random()


@pytest.mark.xfail(strict=True, reason="simulate tests last[p] > t - w: at an expiry step "
                   "t = fl(s + w) with fl(t - w) < s it keeps the parent active one step longer "
                   "than the oracle's s < q <= fl(s + w)")
@pytest.mark.parametrize("labels", [3, 5])
def test_simulated_rates_are_the_oracle_rates(labels):
    """Each step of the simulator draws at rate_at's rates for the interval up to
    the next step (or the horizon): the process exact_ll scores. The steps are
    replayed from simulate_by_definition, which simulate matches bit for bit."""
    spec = sample_spec(labels, seed=0)
    for seed in range(3):
        steps = []
        s = simulate_by_definition(spec, 1000.0, seed, steps)
        starts = np.array([t for t, _ in steps])
        ends = np.append(starts[1:], s.horizon)
        used = ends > starts  # a step at the time of the next one holds for no time
        want = rate_at(spec, s, ends[used])
        assert np.array_equal(np.array([r for _, r in steps])[used], want)


@settings(max_examples=100, deadline=None)
@given(spec=specs(), horizon=st.sampled_from([0.0, 5.0, 60.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_simulate_matches_definition(spec, horizon, seed):
    assert_simulates_as_definition(spec, horizon, seed)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "spec.json"
        for labels in (1, 5, 20):
            spec = sample_spec(labels, seed=77)
            save_spec(spec, p)
            assert load_spec(p) == spec

    @pytest.mark.parametrize("doc", [
        "{}", "[]", "[" * 100000, "{", b"\xff",
        '{"num_labels": true, "nodes": [{"parents": [], "windows": [], "rates": {"": 0.1}}]}',
        '{"num_labels": 1, "nodes": [{"parents": [], "windows": [], "rates": {"": 1e999}}]}',
        '{"num_labels": 1, "nodes": [{"parents": [], "windows": [], "rates": {"": 1%s}}]}'
        % ("0" * 400),
        '{"num_labels": 1, "nodes": [{"parents": [], "windows": [], "rates": {"x": 0.1}}]}',
        '{"num_labels": 1, "nodes": [{"parents": [], "windows": [], "rates": {"": "0.1"}}]}',
        '{"num_labels": 1, "nodes": [{"parents": [], "windows": [], "rates": {"": 0.1}, "w": 1}]}',
        '{"num_labels": 2, "nodes": [{"parents": [], "windows": [], "rates": {"": 0.1}}]}',
        '{"num_labels": 1, "nodes": [{"parents": [0.0], "windows": [1], "rates": {"0": 1, "1": 1}}]}',
        '{"num_labels": 1, "nodes": [], "seed": 3}',
    ], ids=["empty", "list", "too-deep", "malformed", "undecodable", "bool-labels",
            "infinite-rate", "huge-int-rate", "bad-key", "string-rate", "extra-node-key",
            "too-few-nodes", "float-parent", "extra-key"])
    def test_malformed_spec_raises_value_error_naming_file(self, tmp_path, doc):
        p = tmp_path / "spec.json"
        p.write_bytes(doc if isinstance(doc, bytes) else doc.encode())
        with pytest.raises(ValueError, match="spec.json"):
            load_spec(p)

    def test_bitmask_key_format(self, tmp_path):
        spec = chain_spec()
        p = tmp_path / "spec.json"
        save_spec(spec, p)
        text = p.read_text()
        assert '"0"' in text and '"1"' in text
        assert '""' in text  # parentless node key


class TestSimulateDataset:
    def test_export_reload_bit_identical(self, tmp_path):
        from tppkit.streams import load_stream, save_stream

        spec = sample_spec(5, seed=8)
        data = simulate_dataset(spec, 1000.0, 10, seed=8)
        p = tmp_path / "streams.csv"
        save_stream(data, p)
        back = load_stream(p)
        assert len(back) == 10
        for a, b in zip(data.streams, back.streams):
            assert a.epochs == b.epochs
            assert a.horizon == b.horizon

    def test_counts_and_determinism(self):
        spec = sample_spec(3, seed=1)
        d1 = simulate_dataset(spec, 200.0, 4, seed=5)
        d2 = simulate_dataset(spec, 200.0, 4, seed=5)
        assert len(d1) == 4
        for a, b in zip(d1.streams, d2.streams):
            assert a.epochs == b.epochs
        # distinct streams within the dataset
        assert d1.streams[0].epochs != d1.streams[1].epochs
