"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The trained-model criteria
use frozen seeds and configurations, so at a fixed BLAS build every run is
bitwise reproducible, and these are regression gates, not statistical coin
flips. The gradients do not depend on the BLAS thread count (model.backward
sums each weight product over fixed 256-long stretches of its inner axis),
and the figures read the same at 1 and 2 threads with numpy's OpenBLAS
0.3.31: criterion 2 reads K=3 -699.1396153159143 and K=5 -792.0247774470068.
Expect several minutes of wall time.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import tppkit.autodiff as ad
from tppkit import evaluation
from tppkit.cli import main as cli_main
from tppkit.model import (
    ModelConfig, ModelParams, ParamNodes, forward, intensity,
)
from tppkit.pgem import (
    NodeSpec, PgemSpec, exact_ll, homogeneous_ml_ll, rate_at, sample_spec,
    simulate, simulate_dataset,
)
from tppkit.streams import Dataset, Epoch, EventStream, augment, split_by_stream, split_by_time
from tppkit.training import (
    TrainConfig, objective, objective_with_grads, quadrature_ll_node, train,
)
from helpers import max_rel_err, numerical_grad


def _report(name: str, ok: bool, detail: str):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _pgem_protocol(seed: int):
    """M=5 spec, 10 streams to T=1000, 70/30 stream split."""
    spec = sample_spec(5, seed=seed)
    data = simulate_dataset(spec, 1000.0, 10, seed=seed)
    return spec, split_by_stream(data, 0.7, seed=seed)


def _train_and_score(train_ds, test_ds, fake_count, pred_weight=1.0, epochs=40):
    cfg = ModelConfig(label_count=5, channel_width=8, embed_dim=16,
                      memory_depth=3, fake_count=fake_count, hidden_width=32,
                      time_scale=1000.0)
    tc = TrainConfig(epochs=epochs, seed=0, learning_rate=2e-2, batch_size=1,
                     pred_weight=pred_weight)
    params, _ = train(train_ds, cfg, tc)
    return evaluation.test_ll(cfg, params, test_ds).total


def test_criterion_1_fake_epoch_gain():
    """K=1 beats K=0 by >= 10% relative test LL on >= 2 of 3 specs."""
    gains = []
    for seed in (1, 2, 3):
        _, (train_ds, test_ds) = _pgem_protocol(seed)
        ll0 = _train_and_score(train_ds, test_ds, fake_count=0)
        ll1 = _train_and_score(train_ds, test_ds, fake_count=1)
        gains.append((ll1 - ll0) / abs(ll0))
    wins = sum(g >= 0.10 for g in gains)
    _report("criterion-1 fake-epoch gain", wins >= 2,
            f"relative gains: {[f'{g:.3f}' for g in gains]}, wins: {wins}/3")


def test_criterion_2_fake_count_ablation_shape():
    """Over K in {0,1,2,3,5}: max test LL at K in {1,2,3}, minimum at K=0."""
    _, (train_ds, test_ds) = _pgem_protocol(1)
    lls = {}
    for k in (0, 1, 2, 3, 5):
        lls[k] = _train_and_score(train_ds, test_ds, fake_count=k, pred_weight=50.0)
    best = max(lls, key=lls.get)
    worst = min(lls, key=lls.get)
    ok = best in (1, 2, 3) and worst == 0
    _report("criterion-2 fake-count ablation", ok,
            f"test LL by K: { {k: round(v, 1) for k, v in lls.items()} }, "
            f"max at K={best}, min at K={worst}")


def test_criterion_3_quadrature_vs_oracle():
    """True-rate injection: within 1% of exact LL at K=20 on 10 random specs;
    exact (<=1e-9) for constant-rate streams at any K."""
    worst_rel = 0.0
    checked = 0
    for seed in range(10):
        spec = sample_spec(4, seed=100 + seed)
        stream = simulate(spec, 500.0, seed=200 + seed)
        if len(stream) < 2:
            continue
        exact = exact_ll(spec, stream)
        seq = augment(stream, 20)
        rates = np.ones((len(seq) - 1, spec.label_count + 1))
        rates[:, :spec.label_count] = rate_at(spec, stream, seq.times[1:])
        rel = abs(quadrature_ll_node(seq, rates)[0] - exact) / abs(exact)
        worst_rel = max(worst_rel, rel)
        checked += 1
    assert checked == 10

    # homogeneous constant rates: quadrature is exact for every K
    hom = PgemSpec(1, (NodeSpec((), (), {(): 0.1}),))
    s = EventStream((Epoch(2.0, 0), Epoch(5.0, 0), Epoch(7.5, 0)), 10.0, 1)
    hom_exact = exact_ll(hom, s)
    worst_hom = 0.0
    for k in (0, 1, 3, 10, 20):
        seq = augment(s, k)
        rates = np.full((len(seq) - 1, 2), 0.1)
        worst_hom = max(worst_hom, abs(quadrature_ll_node(seq, rates)[0] - hom_exact))
    ok = worst_rel < 0.01 and worst_hom <= 1e-9
    _report("criterion-3 quadrature-vs-oracle", ok,
            f"worst K=20 relative error {worst_rel:.5f} over 10 specs; "
            f"worst homogeneous deviation {worst_hom:.2e}")


def test_criterion_4_poisson_recoverability():
    """Homogeneous rate 0.5, T=2000: mean predicted intensity within 10% of
    0.5 and test LL within 5% of the closed-form ML homogeneous fit."""
    spec = PgemSpec(1, (NodeSpec((), (), {(): 0.5}),))
    stream = simulate(spec, 2000.0, seed=42)
    train_ds, test_ds = split_by_time(Dataset((stream,)), 0.7)

    # MCN-noF configuration: with K >= 1 the uniformly spread fake epochs
    # leak each upcoming gap into the state, and converged training games the
    # token quadrature up to ~N*log(K+1) above any homogeneous fit
    cfg = ModelConfig(label_count=1, channel_width=4, embed_dim=8,
                      memory_depth=1, fake_count=0, hidden_width=16,
                      time_scale=1400.0)
    tc = TrainConfig(epochs=60, seed=0, learning_rate=1e-2, batch_size=1,
                     pred_weight=0.0, l2_weight=0.0)
    params, _ = train(train_ds, cfg, tc)

    seq = augment(test_ds.streams[0], cfg.fake_count)
    rates = forward(seq, params, cfg).rate_values()
    mean_rate = float(np.mean(rates[:, 0]))
    model_ll = evaluation.test_ll(cfg, params, test_ds).total
    fit_ll = homogeneous_ml_ll(test_ds.streams[0])
    rate_err = abs(mean_rate - 0.5) / 0.5
    ll_err = abs(model_ll - fit_ll) / abs(fit_ll)
    ok = rate_err < 0.10 and ll_err < 0.05
    _report("criterion-4 poisson recoverability", ok,
            f"mean rate {mean_rate:.4f} (err {rate_err:.3f}), "
            f"test LL {model_ll:.2f} vs ML fit {fit_ll:.2f} (err {ll_err:.3f})")


def test_criterion_5_gradient_suite():
    """End-to-end objective gradients vs central finite differences on 20
    random (config, sequence) instances with <= 10 tokens; rel err < 1e-4."""
    import time
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(1, 4))
        cfg = ModelConfig(
            label_count=m,
            channel_width=int(rng.integers(2, 4)),
            embed_dim=int(rng.integers(2, 5)),
            memory_depth=int(rng.integers(0, 3)),
            fake_count=int(rng.integers(0, 3)),
            hidden_width=int(rng.integers(2, 6)),
            time_scale=float(rng.uniform(1.0, 10.0)),
        )
        tc = TrainConfig(pred_weight=float(rng.uniform(0.0, 2.0)),
                         l2_weight=float(rng.uniform(0.0, 0.1)))
        horizon = 10.0
        max_events = max(1, (10 - 2) // (cfg.fake_count + 1) - 1)
        n = int(rng.integers(0, max_events + 1))
        times = np.unique(rng.uniform(0.5, horizon - 0.5, size=n))
        labels = rng.integers(0, m, size=len(times))
        stream = EventStream(tuple(Epoch(t, l) for t, l in zip(times, labels)),
                             horizon, m)
        seq = augment(stream, cfg.fake_count)
        assert len(seq) <= 10

        params = ModelParams.init(cfg, seed=int(rng.integers(0, 1000)))
        _, _, grads = objective_with_grads(seq, params, cfg, tc)
        flat = np.concatenate([g.ravel() for g in grads])

        def f(theta, cfg=cfg, tc=tc, seq=seq):
            return objective(seq, ModelParams.from_flat(cfg, theta), cfg, tc)

        fd = numerical_grad(f, params.flatten())
        worst = max(worst, max_rel_err(flat, fd))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    _report("criterion-5 gradient suite", ok,
            f"worst relative error {worst:.2e} over 20 instances, {elapsed:.1f}s")


def test_criterion_6_structural_invariants():
    """Attention simplex, intensity positivity, fake-count formula, causality."""
    rng = np.random.default_rng(5)

    # attention simplex over random forwards
    worst_simplex = 0.0
    cfg = ModelConfig(label_count=3, channel_width=3, embed_dim=4,
                      memory_depth=3, fake_count=1, hidden_width=6,
                      time_scale=20.0)
    params = ModelParams.init(cfg, seed=1)
    for _ in range(20):
        times = np.unique(rng.uniform(0.0, 20.0, size=rng.integers(2, 10)))
        labels = rng.integers(0, 3, size=len(times))
        stream = EventStream(tuple(Epoch(t, l) for t, l in zip(times, labels)), 20.0, 3)
        res = forward(augment(stream, 1), params, cfg)
        for alpha in res.attention:
            if alpha is None:
                continue
            worst_simplex = max(worst_simplex,
                                float(np.max(np.abs(alpha.sum(axis=0) - 1.0))))
            assert np.all(alpha >= 0.0)

    # intensity positivity on 10^4 random draws
    n_pos = 0
    small = ModelConfig(label_count=1, channel_width=3, embed_dim=3,
                        memory_depth=0, hidden_width=4)
    for trial in range(100):
        p = ModelParams.init(small, seed=trial)
        for a in p.arrays():
            a *= rng.uniform(0.2, 5.0)
        nets, dts = [], []
        for _ in range(100):
            nets.append(rng.normal(scale=3.0, size=3))
            dts.append(float(rng.uniform(0.0, 50.0)))
        # one column per draw through the batched rate head
        tape = ad.Tape()
        lam = intensity(tape.const(np.column_stack(nets)), np.array(dts),
                        ParamNodes.create(tape, p))
        n_pos += int(np.sum(lam.value > 0.0))
    positivity_ok = n_pos == 10_000

    # fake-epoch token-count formula on 1000 random streams
    count_ok = True
    for _ in range(1000):
        horizon = float(rng.uniform(5.0, 30.0))
        n = int(rng.integers(0, 12))
        times = np.unique(rng.uniform(0.0, horizon, size=n))
        labels = rng.integers(0, 2, size=len(times))
        stream = EventStream(tuple(Epoch(t, l) for t, l in zip(times, labels)),
                             horizon, 2)
        k = int(rng.integers(0, 5))
        seq = augment(stream, k)
        skel = [0.0] + [float(t) for t in times] + [horizon]
        gaps = sum(1 for a, b in zip(skel, skel[1:]) if b > a)
        count_ok &= len(seq) == (len(stream) + 2) + k * gaps

    # causality: rates before an edit position are bitwise unchanged on 100
    # random sequences
    causal_ok = True
    ccfg = ModelConfig(label_count=2, channel_width=3, embed_dim=4,
                       memory_depth=2, fake_count=1, hidden_width=5,
                       time_scale=10.0)
    cparams = ModelParams.init(ccfg, seed=9)
    for _ in range(100):
        times = np.unique(rng.uniform(0.5, 9.5, size=rng.integers(2, 7)))
        labels = rng.integers(0, 2, size=len(times))
        stream = EventStream(tuple(Epoch(t, l) for t, l in zip(times, labels)), 10.0, 2)
        seq = augment(stream, 1)
        edited = labels.copy()
        edited[-1] = (edited[-1] + 1) % 2
        stream2 = EventStream(tuple(Epoch(t, l) for t, l in zip(times, edited)), 10.0, 2)
        seq2 = augment(stream2, 1)
        edit_pos = np.flatnonzero((seq.times != seq2.times) | (seq.labels != seq2.labels))[0]
        r1 = forward(seq, cparams, ccfg).rate_values()
        r2 = forward(seq2, cparams, ccfg).rate_values()
        causal_ok &= bool(np.array_equal(r1[:edit_pos], r2[:edit_pos]))

    ok = worst_simplex <= 1e-9 and positivity_ok and count_ok and causal_ok
    _report("criterion-6 structural invariants", ok,
            f"simplex worst |sum-1| {worst_simplex:.2e}; positivity {n_pos}/10000; "
            f"count formula {'ok' if count_ok else 'BROKEN'}; "
            f"causality {'ok' if causal_ok else 'BROKEN'}")


def test_criterion_7_planted_graph_recovery():
    """Dominant parent edge (20x rate ratio) survives threshold 0.01 in >= 4
    of 5 training seeds."""
    spec = PgemSpec(2, (
        NodeSpec((), (), {(): 0.08}),
        NodeSpec((0,), (10.0,), {(0,): 0.01, (1,): 0.2}),
    ))
    data = simulate_dataset(spec, 500.0, 4, seed=11)
    hits = 0
    weights = []
    for seed in range(5):
        cfg = ModelConfig(label_count=2, channel_width=4, embed_dim=8,
                          memory_depth=2, fake_count=1, hidden_width=16,
                          time_scale=500.0)
        tc = TrainConfig(epochs=15, seed=seed, learning_rate=1e-2, batch_size=1)
        params, _ = train(data, cfg, tc)
        graph = evaluation.attention_graph(cfg, params, data, threshold=0.01)
        hit = any(q == 0 and k == 1 for q, k, _ in graph.edges)
        hits += hit
        weights.append(round(float(graph.adjacency[1, 0]), 4))
    _report("criterion-7 planted-graph recovery", hits >= 4,
            f"edge A->B present in {hits}/5 seeds, weights {weights}")


def _strip_seconds(report_bytes: bytes) -> bytes:
    lines = report_bytes.decode().splitlines()
    kept = [",".join(line.split(",")[:4]) for line in lines]
    return "\n".join(kept).encode()


def test_criterion_8_cli_determinism(tmp_path):
    """Every subcommand re-run from its manifest reproduces its outputs byte
    for byte (the training report's wall-time column excepted)."""
    root = Path(tmp_path)
    gen = root / "gen"
    assert cli_main(["gen-pgem", "--labels", "2", "--streams", "4",
                     "--horizon", "150", "--seed", "3", "--out", str(gen)]) == 0
    split = root / "split"
    assert cli_main(["split", "--data", str(gen / "streams.csv"), "--mode", "stream",
                     "--fraction", "0.5", "--seed", "0", "--out", str(split)]) == 0
    trained = root / "train"
    assert cli_main(["train", "--data", str(split / "train.csv"), "--fakes", "1",
                     "--channels", "2", "--embed", "3", "--memory", "2",
                     "--hidden", "4", "--epochs", "2", "--seed", "1",
                     "--out", str(trained)]) == 0
    evald = root / "eval"
    assert cli_main(["eval", "--ckpt", str(trained / "model.ckpt"),
                     "--data", str(split / "test.csv"), "--out", str(evald)]) == 0
    attn = root / "attn"
    assert cli_main(["attn-graph", "--ckpt", str(trained / "model.ckpt"),
                     "--data", str(split / "train.csv"), "--threshold", "0.01",
                     "--out", str(attn)]) == 0
    trace = root / "trace"
    assert cli_main(["trace", "--ckpt", str(trained / "model.ckpt"),
                     "--data", str(split / "test.csv"), "--stream", "s0",
                     "--out", str(trace)]) == 0

    mismatches = []
    for sub, out_dir in [("gen-pgem", gen), ("split", split), ("train", trained),
                         ("eval", evald), ("attn-graph", attn), ("trace", trace)]:
        before = {p.name: p.read_bytes() for p in out_dir.iterdir() if p.is_file()}
        assert cli_main([sub, "--from-manifest", str(out_dir / "manifest.json")]) == 0
        after = {p.name: p.read_bytes() for p in out_dir.iterdir() if p.is_file()}
        assert before.keys() == after.keys()
        for name in before:
            a, b = before[name], after[name]
            if name == "report.csv":
                a, b = _strip_seconds(a), _strip_seconds(b)
            if a != b:
                mismatches.append(f"{sub}/{name}")
    _report("criterion-8 cli determinism", not mismatches,
            "all outputs byte-identical on manifest replay"
            if not mismatches else f"mismatches: {mismatches}")
