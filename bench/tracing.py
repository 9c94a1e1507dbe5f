"""Outside-in tracing: spans recorded around calls into tppkit's modules.

The wrappers live here, not in the package. Each one replaces a module (or
class) attribute while the tracer is installed and restores it afterwards.
A name is looked up where the caller looks it up: ``training.forward`` and
``evaluation.forward`` are separate bindings of ``model.forward``, and the
CLI holds its own bindings of the stream and checkpoint I/O functions.

Spans (name, start, end, parent span) are kept in memory and reduced to
per-layer metrics when the run ends; a span's self time is its duration
minus the time its child spans cover. A target that no longer exists (a
private helper renamed by a refactor) is listed as absent instead of
failing the run.
"""

from __future__ import annotations

import functools
import gc
import importlib
import statistics
import time

# (owner, attribute, span name). The owner is a module path, optionally
# followed by a class name inside it.
TARGETS = (
    ("tppkit.cli", "main", "cli.main"),
    ("tppkit.cli", "load_stream", "streams.load_stream"),
    ("tppkit.cli", "save_stream", "streams.save_stream"),
    ("tppkit.cli", "load_checkpoint", "model.load_checkpoint"),
    ("tppkit.cli", "save_checkpoint", "model.save_checkpoint"),
    ("tppkit.training", "augment", "streams.augment"),
    ("tppkit.evaluation", "augment", "streams.augment"),
    ("tppkit.training", "forward", "model.forward.training"),
    ("tppkit.evaluation", "forward", "model.forward.evaluation"),
    ("tppkit.model", "encode_token", "model.encode_token"),
    ("tppkit.model", "lstm_step", "model.lstm_step"),
    ("tppkit.autodiff", "backward", "autodiff.backward"),
    ("tppkit.training", "objective_with_grads", "training.step"),
    ("tppkit.training", "quadrature_ll_node", "training.objective"),
    ("tppkit.training", "prediction_loss_node", "training.objective"),
    ("tppkit.training", "weight_penalty_node", "training.objective"),
    ("tppkit.training", "_clip_global_norm", "training.clip"),
    ("tppkit.training._Adam", "ascend", "training.adam"),
    ("tppkit.evaluation", "test_ll", "evaluation.test_ll"),
    ("tppkit.evaluation", "attention_graph", "evaluation.attention_graph"),
    ("tppkit.evaluation", "intensity_trace", "evaluation.intensity_trace"),
    ("tppkit.pgem", "exact_ll", "pgem.exact_ll"),
    ("tppkit.pgem", "build_trace", "pgem.build_trace"),
    ("tppkit.pgem", "simulate_dataset", "pgem.simulate_dataset"),
)

# Counters that must repeat exactly for the same code and inputs.
EXACT_COUNTS = ("streams.tokens", "autodiff.tape_nodes", "model.forward_tokens",
                "training.steps", "pgem.trace_segments", "pgem.events")


def _resolve_owner(path: str):
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return None
        return owner
    return None


class Tracer:
    """Spans, counters and cyclic-GC time, collected while installed."""

    def __init__(self):
        # One span per index across four columns; plain lists of str, float
        # and int add no work for the cyclic GC that the run also measures.
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.counts = dict.fromkeys(EXACT_COUNTS, 0)
        self.gc_s = 0.0
        self.gc_gen2 = 0
        self.absent = []
        self._stack = []
        self._patches = []
        self._gc_t0 = None

    # -- installation ------------------------------------------------------

    def install(self):
        self.absent = []
        for owner_path, attr, name in TARGETS:
            owner = _resolve_owner(owner_path)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{owner_path}.{attr}")
                continue
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        elif self._gc_t0 is not None:
            self.gc_s += time.perf_counter() - self._gc_t0
            self._gc_t0 = None
            if info["generation"] == 2:
                self.gc_gen2 += 1

    def _wrap(self, original, name):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack = self._stack
        count = self._counter(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(time.perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[i] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(args, result)
            return result

        return wrapper

    def _counter(self, name):
        counts = self.counts

        def augment(args, seq):
            counts["streams.tokens"] += len(seq)

        def forward(args, fwd):
            counts["model.forward_tokens"] += len(args[0])
            tape = getattr(fwd, "tape", None)
            if tape is not None:
                counts["autodiff.tape_nodes"] += len(tape)

        def adam(args, result):
            counts["training.steps"] += 1

        def build_trace(args, trace):
            counts["pgem.trace_segments"] += len(trace.breaks) - 1

        def exact_ll(args, result):
            counts["pgem.events"] += len(args[1])

        return {
            "streams.augment": augment,
            "model.forward.training": forward,
            "model.forward.evaluation": forward,
            "training.adam": adam,
            "pgem.build_trace": build_trace,
            "pgem.exact_ll": exact_ll,
        }.get(name)

    # -- reduction ---------------------------------------------------------

    def reset(self):
        for column in (self.names, self.starts, self.ends, self.parents):
            column.clear()
        self.counts.update(dict.fromkeys(EXACT_COUNTS, 0))
        self.gc_s = 0.0
        self.gc_gen2 = 0

    def snapshot(self):
        """Exact counters and GC totals gathered since the last reset."""
        return dict(self.counts), self.gc_s, self.gc_gen2

    def durations(self):
        """Per span name: (total duration, total self time, list of durations)."""
        durs = [end - start for start, end in zip(self.starts, self.ends)]
        covered = [0.0] * len(durs)
        for parent, dur in zip(self.parents, durs):
            if parent >= 0:
                covered[parent] += dur
        out = {}
        for name, dur, child in zip(self.names, durs, covered):
            entry = out.setdefault(name, [0.0, 0.0, []])
            entry[0] += dur
            entry[1] += dur - child
            entry[2].append(dur)
        return out


def layer_metrics(tracer: Tracer, counts: dict, gc_s: float, gc_gen2: int,
                  passes: int) -> dict:
    """Per-layer metrics per traced pass, from spans and counters.

    Times are seconds per pass of the workload (its CLI sequence plus the
    oracle), so they do not grow with the number of passes a run fits in.
    """
    spans = tracer.durations()

    def total(*names):
        return sum(spans.get(n, (0.0,))[0] for n in names) / passes

    def self_time(*names):
        return sum(spans.get(n, (0.0, 0.0))[1] for n in names) / passes

    step_ms = sorted(d * 1e3 for d in spans.get("training.step", (0, 0, []))[2])
    if len(step_ms) >= 2:
        cuts = statistics.quantiles(step_ms, n=10, method="inclusive")
        p50, p90 = statistics.median(step_ms), cuts[8]
    else:
        p50 = p90 = step_ms[0] if step_ms else 0.0
    events = counts["pgem.events"]
    tokens = counts["model.forward_tokens"]
    forwards = ("model.forward.training", "model.forward.evaluation")
    return {
        "autodiff.nodes_per_tok": (counts["autodiff.tape_nodes"] / tokens if tokens else 0.0),
        "autodiff.backward_s": total("autodiff.backward"),
        "autodiff.gc_s": gc_s / passes,
        "autodiff.gc_collections": gc_gen2 / passes,
        "streams.augment_s": total("streams.augment"),
        "streams.tokens": counts["streams.tokens"] / passes,
        "streams.io_s": total("streams.load_stream", "streams.save_stream"),
        "model.forward_s": total(*forwards),
        "model.forward_s.training": total(forwards[0]),
        "model.forward_s.evaluation": total(forwards[1]),
        "model.encode_s": total("model.encode_token"),
        "model.lstm_s": total("model.lstm_step"),
        "model.head_s": self_time(*forwards),
        "model.ckpt_io_s": total("model.load_checkpoint", "model.save_checkpoint"),
        "training.objective_s": total("training.objective"),
        "training.step_ms.p50": p50,
        "training.step_ms.p90": p90,
        "training.step_ms.samples": len(step_ms),
        "training.opt_s": total("training.clip", "training.adam"),
        "training.steps": counts["training.steps"] / passes,
        "evaluation.test_ll_s": total("evaluation.test_ll"),
        "evaluation.attn_graph_s": total("evaluation.attention_graph"),
        "evaluation.trace_s": total("evaluation.intensity_trace"),
        "pgem.exact_ll_s": total("pgem.exact_ll"),
        "pgem.build_trace_s": total("pgem.build_trace"),
        "pgem.trace_segments": counts["pgem.trace_segments"] / passes,
        "pgem.events": events / passes,
        "pgem.exact_ll_us_per_ev": (total("pgem.exact_ll") * passes / events * 1e6
                                    if events else 0.0),
        "cli.self_s": self_time("cli.main"),
    }


# Metric -> wrapped targets it is computed from, so that a target missing
# after a refactor marks exactly the metrics that depend on it as absent.
SOURCES = {
    "autodiff.nodes_per_tok": ("tppkit.training.forward", "tppkit.evaluation.forward"),
    "autodiff.backward_s": ("tppkit.autodiff.backward",),
    "streams.augment_s": ("tppkit.training.augment", "tppkit.evaluation.augment"),
    "streams.tokens": ("tppkit.training.augment", "tppkit.evaluation.augment"),
    "streams.io_s": ("tppkit.cli.load_stream", "tppkit.cli.save_stream"),
    "model.forward_s": ("tppkit.training.forward", "tppkit.evaluation.forward"),
    "model.forward_s.training": ("tppkit.training.forward",),
    "model.forward_s.evaluation": ("tppkit.evaluation.forward",),
    "model.encode_s": ("tppkit.model.encode_token",),
    "model.lstm_s": ("tppkit.model.lstm_step",),
    "model.head_s": ("tppkit.training.forward", "tppkit.evaluation.forward"),
    "model.ckpt_io_s": ("tppkit.cli.load_checkpoint", "tppkit.cli.save_checkpoint"),
    "training.objective_s": ("tppkit.training.quadrature_ll_node",
                             "tppkit.training.prediction_loss_node",
                             "tppkit.training.weight_penalty_node"),
    "training.step_ms.p50": ("tppkit.training.objective_with_grads",),
    "training.step_ms.p90": ("tppkit.training.objective_with_grads",),
    "training.step_ms.samples": ("tppkit.training.objective_with_grads",),
    "training.opt_s": ("tppkit.training._clip_global_norm", "tppkit.training._Adam.ascend"),
    "training.steps": ("tppkit.training._Adam.ascend",),
    "evaluation.test_ll_s": ("tppkit.evaluation.test_ll",),
    "evaluation.attn_graph_s": ("tppkit.evaluation.attention_graph",),
    "evaluation.trace_s": ("tppkit.evaluation.intensity_trace",),
    "pgem.exact_ll_s": ("tppkit.pgem.exact_ll",),
    "pgem.build_trace_s": ("tppkit.pgem.build_trace",),
    "pgem.trace_segments": ("tppkit.pgem.build_trace",),
    "pgem.events": ("tppkit.pgem.exact_ll",),
    "pgem.exact_ll_us_per_ev": ("tppkit.pgem.exact_ll",),
    "pgem.simulate_s": ("tppkit.pgem.simulate_dataset",),
    "cli.self_s": ("tppkit.cli.main",),
}


def absent_metrics(absent_targets) -> set:
    """Metrics that cannot be measured because a wrapped target is missing."""
    missing = set(absent_targets)
    return {m for m, srcs in SOURCES.items() if missing & set(srcs)}
