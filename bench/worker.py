"""One workload process: set up inputs, run the closed loop, check the outputs.

Start it through ``bench/run.py``, which pins BLAS to one thread. One caller
runs the workload's ``tppkit`` CLI sequence in-process through ``cli.main``
and then the PGEM oracle, over and over, each call starting when the last
one returns, until ``--seconds`` have passed. With ``--trace 1`` every other
pass runs with the wrappers of ``tracing.py`` installed, and the run reports
per-layer metrics instead of end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tppkit  # noqa: E402
from tppkit import cli, model, pgem, streams, training  # noqa: E402
from tracing import Tracer, absent_metrics, layer_metrics  # noqa: E402

DEFAULT_SEED = 1     # the seed whose outputs are stored in reference.json
SPEC_SEED = 7        # the generating PGEM is part of a workload's shape
SPLIT_SEED = 7       # program seeds are constants: the workload seed only
TRAIN_SEED = 1       # reaches the program through the generated files
SETUP_REPS = 3
SCORING_TRAIN_REPS = 3
CAL_PERIOD_S = 0.05  # how often the calibration loop samples the machine's speed
CAL_INT_ITERS = 8_000
CAL_CHASE_STEPS = 3_000
CAL_REF_S = 0.0012   # the calibration loop's time at the reference speed
# Reordering the objective's sums moves the outputs by about 1e-16; giving
# one objective term 0.1% more weight moves them by 5e-10 to 6e-7.
RTOL = 1e-10


@dataclass(frozen=True)
class Shape:
    labels: int
    streams: int
    events: int        # exact event total; the horizon is cut to hold this many
    horizon: float     # nominal horizon, near which the cut lands
    epochs: int        # training epochs per pass; 0 scores a set-up checkpoint
    oracle_reps: int   # exact_ll passes over all streams per pass, timed apart


WORKLOADS = {
    "fit-m5": Shape(5, 10, 600, 1000.0, epochs=3, oracle_reps=10),
    "fit-m20": Shape(20, 10, 3400, 1000.0, epochs=1, oracle_reps=2),
    "score-long": Shape(5, 1, 1900, 32000.0, epochs=0, oracle_reps=2),
}


def warmup_shape(shape: Shape) -> Shape:
    """A few events of the same kind, so that first-call costs land in set-up."""
    return Shape(shape.labels, 4, 8 * shape.labels, 100.0, min(shape.epochs, 1), 1)


# ---------------------------------------------------------------------------
# inputs


def generate(shape: Shape, seed: int):
    """Simulate the workload's streams, cut where they hold exactly shape.events.

    Cutting at a data-chosen horizon keeps every seed's input the same size,
    so seeds differ in content, not in the amount of work.
    """
    spec = pgem.sample_spec(shape.labels, seed=SPEC_SEED)
    horizon = shape.horizon
    while True:
        data = pgem.simulate_dataset(spec, 1.25 * horizon, shape.streams, seed)
        times = np.sort(np.concatenate([s.times() for s in data.streams]))
        if len(times) > shape.events:
            break
        horizon *= 2
    cut = 0.5 * (times[shape.events - 1] + times[shape.events])
    kept = tuple(
        streams.EventStream(tuple(e for e in s.epochs if e.time < cut), cut, shape.labels)
        for s in data.streams)
    return spec, streams.Dataset(kept)


def write_inputs(shape: Shape, seed: int, d: Path) -> dict:
    """Write spec.json, data.csv (+ sidecar) and, for scoring, model.ckpt."""
    d.mkdir(parents=True, exist_ok=True)
    spec, data = generate(shape, seed)
    pgem.save_spec(spec, d / "spec.json")
    streams.save_stream(data, d / "data.csv")
    if not shape.epochs:
        cfg = model.ModelConfig(label_count=shape.labels, time_scale=data.streams[0].horizon)
        model.save_checkpoint(d / "model.ckpt", cfg, model.ModelParams.init(cfg, seed=TRAIN_SEED))
    return {"events": sum(len(s) for s in data.streams),
            "csv_sha256": hashlib.sha256((d / "data.csv").read_bytes()).hexdigest()}


def augmented_tokens(csv_path: Path, fakes: int = 1) -> int:
    """BOS + events + fakes in every positive gap + EOS, summed over streams."""
    with open(streams.sidecar_path(csv_path)) as fh:
        horizon = float(json.load(fh)["horizon"])
    times = {}
    with open(csv_path, newline="") as fh:
        for row in csv.DictReader(fh):
            times.setdefault(row["stream_id"], []).append(float(row["time"]))
    total = 0
    for ts in times.values():
        gaps = np.diff([0.0, *sorted(ts), horizon])
        total += 2 + len(ts) + fakes * int(np.count_nonzero(gaps > 0))
    return total


# ---------------------------------------------------------------------------
# one pass


def cli_sequence(shape: Shape, d: Path):
    data = d / "data.csv"
    if shape.epochs:
        split, fit = d / "split", d / "model"
        ckpt = fit / "model.ckpt"
        seq = [
            ("split", ["split", "--data", data, "--mode", "stream", "--fraction", 0.7,
                       "--seed", SPLIT_SEED, "--out", split]),
            ("train", ["train", "--data", split / "train.csv", "--fakes", 1,
                       "--channels", 8, "--memory", 3, "--batch", 1,
                       "--epochs", shape.epochs, "--seed", TRAIN_SEED, "--out", fit]),
        ]
        scored, attended = split / "test.csv", split / "train.csv"
    else:
        ckpt, seq, scored, attended = d / "model.ckpt", [], data, data
    seq += [
        ("eval", ["eval", "--ckpt", ckpt, "--data", scored, "--out", d / "eval"]),
        ("attn-graph", ["attn-graph", "--ckpt", ckpt, "--data", attended,
                        "--threshold", 0.01, "--out", d / "attn"]),
        ("trace", ["trace", "--ckpt", ckpt, "--data", scored, "--stream", "s0",
                   "--out", d / "trace"]),
    ]
    return [(name, [str(a) for a in argv]) for name, argv in seq]


class Clock:
    """Times calls in wall seconds and in calibrated seconds.

    On a shared machine the speed of this process drifts by tens of percent
    within seconds. While a call runs, a timer signal every CAL_PERIOD_S runs
    a fixed loop that calls no program code, and the loop's mean time
    measures the machine's speed during the call. The loop does integer
    arithmetic, which tracks interpreter-bound work, and then follows a
    random cycle through 8 MiB, which tracks memory-bound work such as the
    cyclic GC. The loop's own time is taken out of the call's wall time;
    wall * CAL_REF_S / (mean loop time) is the time the call would take at
    the reference speed. Calibrated times are the figures reported; wall
    times are printed beside them.
    """

    def __init__(self):
        # Built in chunks so that peak RSS grows by the 8 MiB table only.
        n, chunk = 1 << 21, 1 << 16
        order = np.arange(n, dtype=np.int32)
        np.random.default_rng(0).shuffle(order)
        successor = np.empty(n, dtype=np.int32)
        for i in range(0, n - 1, chunk):
            j = min(i + chunk, n - 1)
            successor[order[i:j]] = order[i + 1:j + 1]
        successor[order[-1]] = order[0]
        self._cycle = memoryview(successor)
        self._at = 0
        self._samples, self._spent = 0, 0.0

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CAL_INT_ITERS):
            acc += i * i
        cycle, at = self._cycle, self._at
        for _ in range(CAL_CHASE_STEPS):
            at = cycle[at]
        self._at = at
        self._spent += time.perf_counter() - t0
        self._samples += 1

    def time(self, fn, *args):
        """Returns (fn's result, wall seconds, calibration factor)."""
        self._samples, self._spent = 0, 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = time.perf_counter() - t0 - self._spent
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        if not self._samples:  # a call shorter than the period
            self._sample()
        return result, wall, CAL_REF_S * self._samples / self._spent


def call_cli(argv):
    """Exit code, or None if the call raised; CLI chatter is dropped."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except Exception:
        traceback.print_exc()
        return None


def untimed(fn, *args):
    return fn(*args), 0.0, 1.0


def run_pass(shape: Shape, d: Path, oracle, timer=untimed):
    """Run the CLI sequence, then the oracle, each call timed by ``timer``.

    Returns ({operation: (wall s, calibrated s)}, {CLI call: exit code},
    oracle LLs). "pipeline" sums the CLI calls; "oracle" holds one time per
    repetition over all streams.
    """
    times, codes = {}, {}
    for name, argv in cli_sequence(shape, d):
        codes[name], wall, scale = timer(call_cli, argv)
        times[name] = (wall, wall * scale)
    times["pipeline"] = tuple(sum(t[k] for t in times.values()) for k in (0, 1))
    spec, data = oracle

    def score():
        lls, reps = [], []
        for _ in range(shape.oracle_reps):
            t0 = time.perf_counter()
            lls += [pgem.exact_ll(spec, s) for s in data.streams]
            reps.append(time.perf_counter() - t0)
        return lls, reps

    (lls, reps), _, scale = timer(score)
    times["oracle"] = [(r, r * scale) for r in reps]
    return times, codes, lls


def _finite(*xs):
    return all(math.isfinite(x) for x in xs)


def final_train_row(report_csv: Path):
    """[objective, train LL] of the last epoch, or None if either is not finite."""
    with open(report_csv, newline="") as fh:
        last = list(csv.DictReader(fh))[-1]
    vals = [float(last["objective"]), float(last["train_ll"])]
    return vals if _finite(*vals) else None


def pass_values(shape: Shape, d: Path, codes: dict, lls: list, n_streams: int) -> dict:
    """Per operation, the value it produced, or None if it failed or is not finite."""
    out = dict.fromkeys(list(codes) + ["oracle"])
    ok = {name for name, code in codes.items() if code == 0}
    if "split" in ok:
        out["split"] = hashlib.sha256((d / "split" / "train.csv").read_bytes()
                                      + (d / "split" / "test.csv").read_bytes()).hexdigest()
    if "train" in ok:
        out["train"] = final_train_row(d / "model" / "report.csv")
    if "eval" in ok:
        with open(d / "eval" / "eval.csv", newline="") as fh:
            lls_eval = [float(r["ll"]) for r in csv.DictReader(fh)]
        out["eval"] = lls_eval[-1] if _finite(*lls_eval) else None
    if "attn-graph" in ok:
        with open(d / "attn" / "attention.json") as fh:
            edges = {f"{e['source']}->{e['target']}": e["weight"] for e in json.load(fh)["edges"]}
        out["attn-graph"] = edges if _finite(*edges.values()) else None
    if "trace" in ok:
        raw = (d / "trace" / "trace_s0.csv").read_bytes()
        rates = [float(r["lambda"]) for r in csv.DictReader(io.StringIO(raw.decode()))]
        out["trace"] = (hashlib.sha256(raw).hexdigest()
                        if rates and _finite(*rates) and min(rates) > 0 else None)
    reps = [sum(lls[i:i + n_streams]) for i in range(0, len(lls), n_streams)]
    if _finite(*lls) and len(set(reps)) == 1:
        out["oracle"] = reps[0]
    return out


def _close(a, b):
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


def matches_reference(name, value, ref) -> bool:
    """Compare one operation's value with the stored one, within tolerance."""
    if name not in ref:
        return True
    want = ref[name]
    if name == "train":
        return all(_close(a, b) for a, b in zip(value, want))
    if name in ("eval", "oracle"):
        return _close(value, want)
    if name == "attn-graph":
        return value.keys() == want.keys() and all(_close(value[k], want[k]) for k in want)
    return True


# ---------------------------------------------------------------------------
# run


def tape_peak_mb(ckpt: Path, data) -> float:
    """tracemalloc peak over one forward+backward of the longest stream."""
    cfg, params, _ = model.load_checkpoint(ckpt)
    seq = streams.augment(max(data.streams, key=len), cfg.fake_count)
    tracemalloc.start()
    try:
        training.objective_with_grads(seq, params, cfg, training.TrainConfig())
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_reference(workload):
    path = BENCH / "reference.json"
    return json.loads(path.read_text()).get(workload) if path.exists() else None


def save_reference(workload, entry):
    path = BENCH / "reference.json"
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc[workload] = entry
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="store this run's outputs as the reference (needs --trace 1)")
    args = p.parse_args(argv)
    if args.record and (not args.trace or args.seed != DEFAULT_SEED):
        p.error(f"--record needs --trace 1 and --seed {DEFAULT_SEED}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path(tppkit.__file__).resolve()
    if ROOT / "src" not in src.parents:
        print(f"error: tppkit imported from {src}, not from this checkout", file=sys.stderr)
        return 2
    shape = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    inputs, warm = work / "inputs", work / "warmup"
    reference = None if args.record else load_reference(args.workload)
    at_reference_seed = args.seed == DEFAULT_SEED

    clock = Clock()
    median = statistics.median

    def set_up():
        # what a fresh process pays to import the package and numpy
        subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                        "import tppkit.cli", str(ROOT / "src")], check=True)
        digest = write_inputs(shape, args.seed, inputs)
        oracle = (pgem.load_spec(inputs / "spec.json"), streams.load_stream(inputs / "data.csv"))
        wshape = warmup_shape(shape)
        write_inputs(wshape, args.seed, warm)
        run_pass(wshape, warm, (pgem.load_spec(warm / "spec.json"),
                                streams.load_stream(warm / "data.csv")))
        return digest, oracle

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    setup_reps, digests = [], []
    for _ in range(SETUP_REPS):
        (digest, oracle), wall, scale = clock.time(set_up)
        digests.append(digest)
        setup_reps.append((wall, wall * scale))
    if tracer:
        tracer.uninstall()
        simulate_s = (tracer.durations().get("pgem.simulate_dataset", [0.0])[0]
                      * scale / SETUP_REPS)
        absent = absent_metrics(tracer.absent)
        tracer.reset()
    digest = digests[0]
    inputs_ok = all(d == digest for d in digests) and digest["events"] == shape.events
    if at_reference_seed and reference is not None:
        inputs_ok = inputs_ok and all(reference[k] == digest[k] for k in digest)
    elif at_reference_seed and not args.record:
        print(f"error: no reference for {args.workload} in reference.json", file=sys.stderr)
        inputs_ok = False

    n_streams = len(oracle[1].streams)
    passes, traced, first, counts_first = [], [], None, None
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        on = tracer is not None and (len(passes) + len(traced)) % 2 == 1
        if on:
            before = tracer.snapshot()[0]
            tracer.install()
        seconds, codes, lls = run_pass(shape, inputs, oracle, clock.time)
        if on:
            tracer.uninstall()
            after = tracer.snapshot()[0]
            counts = {k: after[k] - before[k] for k in after}
            counts_first = counts_first or counts
            attempted += 1
            failed += counts != counts_first
        (traced if on else passes).append(seconds)
        values = pass_values(shape, inputs, codes, lls, n_streams)
        first = first or values
        for name, value in values.items():
            attempted += 1
            bad = value is None or value != first[name]
            if not bad and at_reference_seed and reference is not None:
                bad = not matches_reference(name, value, reference["outputs"])
            failed += bad
        if time.perf_counter() >= deadline and (tracer is None or traced):
            break

    if args.trace:
        units = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
        trace_scale = median(p["pipeline"][1] / p["pipeline"][0] for p in traced)
        metrics = layer_metrics(tracer, *tracer.snapshot(), len(traced))
        metrics = {k: v * trace_scale if units[k] in ("s", "ms", "us") else v
                   for k, v in metrics.items()}
        metrics["pgem.simulate_s"] = simulate_s
        ckpt = inputs / ("model/model.ckpt" if shape.epochs else "model.ckpt")
        metrics["autodiff.tape_peak_mb"] = tape_peak_mb(ckpt, oracle[1])

        def pass_s(ps):
            return median(p["pipeline"][1] + sum(r[1] for r in p["oracle"]) for p in ps)

        metrics["trace.overhead_frac"] = pass_s(traced) / pass_s(passes) - 1.0
        if at_reference_seed and reference is not None:
            attempted += 1
            failed += counts_first != reference["counts"]
        absent_now, wall_metrics = absent, {}
    else:
        units = {m["name"]: m["unit"] for m in _benchmark()["end_to_end"]}
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        scored = inputs / ("split/test.csv" if shape.epochs else "data.csv")
        eval_tokens = augmented_tokens(scored)
        if shape.epochs:
            train_tokens = augmented_tokens(inputs / "split" / "train.csv") * shape.epochs
            train_s = [p["train"] for p in passes]
        else:
            # A scoring workload trains only after the timed region and after
            # peak RSS is read, so that its other metrics see no backward pass.
            train_tokens = augmented_tokens(inputs / "data.csv")
            argv = [str(a) for a in (
                "train", "--data", inputs / "data.csv", "--fakes", 1, "--channels", 8,
                "--memory", 3, "--batch", 1, "--epochs", 1, "--seed", TRAIN_SEED,
                "--out", work / "train-after")]
            train_s, rows = [], []
            for _ in range(SCORING_TRAIN_REPS):
                code, wall, scale = clock.time(call_cli, argv)
                train_s.append((wall, wall * scale))
                rows.append(final_train_row(work / "train-after" / "report.csv")
                            if code == 0 else None)
                attempted += 1
                failed += rows[-1] is None or rows[-1] != rows[0]

        def e2e(k):  # k = 0: wall time, k = 1: calibrated
            return {
                "setup_s": median(s[k] for s in setup_reps),
                "train_tok_per_s": median(train_tokens / s[k] for s in train_s),
                "eval_tok_per_s": median(eval_tokens / p["eval"][k] for p in passes),
                "oracle_ev_per_s": median(shape.events / r[k] for p in passes
                                          for r in p["oracle"]),
                "pipeline_s": median(p["pipeline"][k] for p in passes),
                "peak_rss_mb": peak_rss_mb,
            }

        metrics, wall_metrics = e2e(1), e2e(0)
        absent_now = set()

    if not inputs_ok:
        failed = attempted
    if args.record and failed:
        print("error: not recording the outputs of a run with failures", file=sys.stderr)
        return 1
    if args.record:
        save_reference(args.workload, {
            "seed": args.seed, **digest, "counts": counts_first,
            "outputs": {k: v for k, v in first.items() if k in ("train", "eval", "attn-graph", "oracle")},
        })
    shutil.rmtree(work, ignore_errors=True)

    n = len(passes) + len(traced)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {n} passes "
          f"({len(traced)} traced), {shape.events} events")
    for name, value in metrics.items():
        shown = "absent" if name in absent_now else f"{value:.6g} {units[name]}"
        if name in wall_metrics and wall_metrics[name] != value:
            shown += f" (uncalibrated {wall_metrics[name]:.6g})"
        print(f"  {name} = {shown}")
    print(f"  fail_frac = {failed / attempted:.6g} ratio ({failed} failed / {attempted} attempted)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: ({"value": None, "unit": units[name], "absent": True} if name in absent_now
                   else {"value": value, "unit": units[name]})
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
