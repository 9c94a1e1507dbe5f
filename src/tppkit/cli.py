"""Command-line pipeline: generate, split, train, evaluate, inspect.

Every subcommand resolves its settings (flags > optional JSON config file >
defaults), validates them and its inputs and computes its results. Only then
does it write its outputs, and a manifest with the fully resolved
configuration, into a staging directory beside the output directory, and
move them in, the manifest last: a run that exits 1 or 2, also one that
fails while writing, leaves the output directory as it was. A failure
during the final moves can still leave part of the new files in place, and
files of an earlier run that this one does not write stay. Re-running a
subcommand with --from-manifest replays the stored configuration and
reproduces the outputs byte for byte (the training report's wall-time
column excepted).

Exit codes: 0 success, 1 usage or validation failure, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

from . import __version__
from . import evaluation, pgem, streams, training
from .model import ModelConfig, load_checkpoint, save_checkpoint
from .streams import load_stream, save_stream, sidecar_path
from .training import TrainConfig, TrainingError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2


class CliError(Exception):
    """Validation failure surfaced as exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


def _env_seed():
    raw = os.environ.get("TPPKIT_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"TPPKIT_SEED must be an integer, got {raw!r}")


def _read_json_object(path: Path, what: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:  # malformed, undecodable or too deep
        raise CliError(f"{what} {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise CliError(f"{what} {path} must hold a JSON object")
    return doc


def _check_types(cfg: dict, settings: dict, source: str):
    """Each value must have its flag's type; an int passes for a float, unconverted,
    and a bool for neither."""
    for key, value in cfg.items():
        want, default = settings[key]
        if value is None and default is None:
            continue
        accepted = (int, float) if want is float else want
        if not isinstance(value, accepted) or isinstance(value, bool):
            raise CliError(f"{source}: {key} must be {want.__name__}, got {value!r}")


def _resolve(args, settings: dict) -> dict:
    """flags > config file > defaults; returns a fully materialized dict."""
    file_cfg = {}
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise CliError(f"config file not found: {path}")
        file_cfg = _read_json_object(path, "config file")
        unknown = set(file_cfg) - set(settings)
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}")
        _check_types(file_cfg, settings, f"config file {path}")
    resolved = {}
    for key, (_, default) in settings.items():
        flag_val = getattr(args, key)
        if flag_val is not None:
            resolved[key] = flag_val
        elif key in file_cfg:
            resolved[key] = file_cfg[key]
        else:
            resolved[key] = default
    if "seed" in resolved and resolved["seed"] is None:
        env = _env_seed()
        resolved["seed"] = env if env is not None else 0
    return resolved


# keys of retired settings that old manifests carry: eval's "parallel" replays
# at any value, train's "bank_real_only" only at false, the bank rule kept
_RETIRED = {"eval": {"parallel"}, "train": {"bank_real_only"}}


def _replay(path, subcommand: str, settings: dict) -> dict:
    """The configuration stored in a previous run's manifest."""
    path = _require_file(path, hint="run manifest")
    manifest = _read_json_object(path, "manifest")
    if manifest.get("subcommand") != subcommand:
        raise CliError(
            f"manifest is for {manifest.get('subcommand')!r}, not {subcommand!r}")
    cfg = manifest.get("config")
    if not isinstance(cfg, dict):
        raise CliError(f"manifest {path} lacks a config object")
    missing = set(settings) - set(cfg)
    if missing:
        raise CliError(f"manifest lacks keys: {sorted(missing)}")
    if cfg.get("bank_real_only", False) is not False:
        raise CliError(f"manifest {path}: bank_real_only is {cfg['bank_real_only']!r}; "
                       f"the bank records every token, so only false replays")
    unknown = set(cfg) - set(settings) - _RETIRED.get(subcommand, set())
    if unknown:
        raise CliError(f"manifest {path}: unknown config keys: {sorted(unknown)}")
    cfg = {key: cfg[key] for key in settings}
    _check_types(cfg, settings, f"manifest {path}")
    return cfg


def _publish(subcommand: str, cfg: dict, files: dict):
    """Write each output as ``{key: (file name, writer)}`` into a staging
    directory beside --out, then move the files into --out, the manifest last."""
    out = Path(cfg["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=f".{out.name}.", dir=out.parent))
    try:
        for name, write in files.values():
            write(stage / name)
        doc = {
            "subcommand": subcommand,
            "config": cfg,
            "outputs": {key: str(out / name) for key, (name, _) in files.items()},
            "version": __version__,
        }
        with open(stage / "manifest.json", "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        out.mkdir(exist_ok=True)
        # written files and their sidecars first, the manifest last
        for staged in sorted(stage.iterdir(), key=lambda p: p.name == "manifest.json"):
            os.replace(staged, out / staged.name)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _require_file(path, hint=""):
    p = Path(path)
    if not p.is_file():
        raise CliError(f"missing file: {p}" + (f" ({hint})" if hint else ""))
    return p


def _load_dataset(path):
    p = _require_file(path)
    meta = sidecar_path(p)
    if not meta.is_file():
        raise CliError(f"missing metadata sidecar {meta} (expected next to {p})")
    try:
        return load_stream(p)
    except streams.StreamFormatError as exc:
        raise CliError(str(exc))


def _load_ckpt(path):
    p = _require_file(path, hint="model checkpoint")
    try:
        return load_checkpoint(p)
    except ValueError as exc:
        raise CliError(str(exc))


# ---------------------------------------------------------------------------
# subcommands: each validates and computes, and returns its summary line and
# its outputs as {manifest key: (file name, writer of a path)}. Writers call
# the stream and checkpoint functions through this module's bindings.


def run_gen_pgem(cfg: dict):
    if cfg["labels"] < 1:
        raise CliError("--labels must be >= 1")
    if cfg["streams"] < 1:
        raise CliError("--streams must be >= 1")
    if not (0 < cfg["horizon"] < math.inf):
        raise CliError(f"--horizon must be positive and finite, got {cfg['horizon']}")
    spec = pgem.sample_spec(cfg["labels"], cfg["seed"])
    data = pgem.simulate_dataset(spec, cfg["horizon"], cfg["streams"], cfg["seed"])
    n_events = sum(len(s) for s in data.streams)
    return (f"gen-pgem: wrote {cfg['streams']} streams, {n_events} events to {Path(cfg['out'])}",
            {"spec": ("spec.json", lambda p: pgem.save_spec(spec, p)),
             "streams": ("streams.csv", lambda p: save_stream(data, p))})


def run_split(cfg: dict):
    if cfg["mode"] not in ("stream", "time"):
        raise CliError("--mode must be 'stream' or 'time'")
    if not (0.0 < cfg["fraction"] < 1.0):
        raise CliError("--fraction must lie strictly between 0 and 1")
    data = _load_dataset(cfg["data"])
    try:
        if cfg["mode"] == "stream":
            train_ds, test_ds = streams.split_by_stream(data, cfg["fraction"], cfg["seed"])
        else:
            train_ds, test_ds = streams.split_by_time(data, cfg["fraction"])
    except ValueError as exc:
        raise CliError(str(exc))
    return (f"split: {len(train_ds)} train / {len(test_ds)} test streams "
            f"({cfg['mode']}, fraction {cfg['fraction']}) to {Path(cfg['out'])}",
            {"train": ("train.csv", lambda p: save_stream(train_ds, p)),
             "test": ("test.csv", lambda p: save_stream(test_ds, p))})


def run_train(cfg: dict):
    if cfg["patience"] > 0 and not cfg["val"]:
        raise CliError("--patience needs --val: early stopping watches the validation LL")
    data = _load_dataset(cfg["data"])
    if cfg["time_scale"] is None:
        cfg["time_scale"] = max(s.horizon for s in data.streams)
    val_data = _load_dataset(cfg["val"]) if cfg["val"] else None
    try:
        model_cfg = ModelConfig(
            label_count=data.label_count,
            channel_width=cfg["channels"],
            embed_dim=cfg["embed"],
            memory_depth=cfg["memory"],
            fake_count=cfg["fakes"],
            hidden_width=cfg["hidden"],
            time_scale=cfg["time_scale"],
        )
        train_cfg = TrainConfig(
            learning_rate=cfg["lr"], clip_norm=cfg["clip"], epochs=cfg["epochs"],
            batch_size=cfg["batch"], seed=cfg["seed"], pred_weight=cfg["lambda_p"],
            l2_weight=cfg["lambda_w"], patience=cfg["patience"],
        )
    except ValueError as exc:
        raise CliError(str(exc))
    params, report = training.train(data, model_cfg, train_cfg, val_dataset=val_data)
    steps = report.epochs_run()
    return (f"train: {steps} epochs, final objective {report.objective[-1]:.4f}, "
            f"checkpoint at {Path(cfg['out']) / 'model.ckpt'}",
            {"checkpoint": ("model.ckpt",
                            lambda p: save_checkpoint(p, model_cfg, params, steps=steps)),
             "report": ("report.csv", report.to_csv)})


def run_eval(cfg: dict):
    model_cfg, params, _ = _load_ckpt(cfg["ckpt"])
    data = _load_dataset(cfg["data"])
    try:
        report = evaluation.test_ll(model_cfg, params, data, fake_count=cfg["fakes"])
    except ValueError as exc:
        raise CliError(str(exc))
    return (f"eval: total test LL {report.total:.4f} over {len(report.scores)} streams",
            {"report": ("eval.csv", report.to_csv)})


def run_attn_graph(cfg: dict):
    model_cfg, params, _ = _load_ckpt(cfg["ckpt"])
    data = _load_dataset(cfg["data"])
    try:
        graph = evaluation.attention_graph(model_cfg, params, data, cfg["threshold"])
    except ValueError as exc:
        raise CliError(str(exc))
    return (f"attn-graph: {len(graph.edges)} edges at threshold "
            f"{cfg['threshold']} written to {Path(cfg['out'])}",
            {"dot": ("attention.dot", lambda p: graph.to_dot(p, label_names=data.label_names)),
             "json": ("attention.json", graph.to_json)})


def run_trace(cfg: dict):
    model_cfg, params, _ = _load_ckpt(cfg["ckpt"])
    data = _load_dataset(cfg["data"])
    ids = data.stream_ids()
    if cfg["stream"] not in ids:
        raise CliError(f"stream {cfg['stream']!r} not in dataset (have {ids})")
    stream = data.streams[ids.index(cfg["stream"])]
    try:
        trace = evaluation.intensity_trace(model_cfg, params, stream,
                                           fake_count=cfg["fakes"])
    except ValueError as exc:
        raise CliError(str(exc))
    except TrainingError as exc:
        raise TrainingError(f"stream {cfg['stream']}: {exc}") from None
    name = f"trace_{cfg['stream']}.csv"
    return (f"trace: {len(trace.rows)} rows for stream {cfg['stream']} "
            f"at {Path(cfg['out']) / name}",
            {"trace": (name, trace.to_csv)})


# subcommand -> (runner, help, {setting: (type, default)}). A setting is the
# flag --<setting with - for _>, a --config key and a manifest key at once.
SUBCOMMANDS = {
    "gen-pgem": (run_gen_pgem, "sample a generating model and simulate streams", {
        "labels": (int, 5), "streams": (int, 10), "horizon": (float, 1000.0),
        "seed": (int, None), "out": (str, "pgem-out")}),
    "split": (run_split, "split a dataset into train and test", {
        "data": (str, None), "mode": (str, "stream"), "fraction": (float, 0.7),
        "seed": (int, None), "out": (str, "split-out")}),
    "train": (run_train, "fit the intensity model", {
        "data": (str, None), "val": (str, None), "out": (str, "train-out"),
        "seed": (int, None), "fakes": (int, 1), "channels": (int, 8), "embed": (int, 16),
        "memory": (int, 3), "hidden": (int, 32), "time_scale": (float, None),
        "epochs": (int, 50), "lr": (float, 1e-3), "batch": (int, 0), "clip": (float, 5.0),
        "lambda_p": (float, 1.0), "lambda_w": (float, 1e-4), "patience": (int, 0)}),
    "eval": (run_eval, "score a dataset with a trained model", {
        "ckpt": (str, None), "data": (str, None), "out": (str, "eval-out"),
        "fakes": (int, None)}),
    "attn-graph": (run_attn_graph, "export the label-influence graph", {
        "ckpt": (str, None), "data": (str, None), "out": (str, "attn-out"),
        "threshold": (float, 0.01)}),
    "trace": (run_trace, "export per-token intensities for one stream", {
        "ckpt": (str, None), "data": (str, None), "stream": (str, "s0"),
        "out": (str, "trace-out"), "fakes": (int, None)}),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="tppkit", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"tppkit {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, doc, settings) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", help="JSON file with defaults for any flag")
        p.add_argument("--from-manifest", help="replay a previous run's resolved configuration")
        for key, (kind, _) in settings.items():
            p.add_argument("--" + key.replace("_", "-"), type=kind)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        runner, _, settings = SUBCOMMANDS[args.subcommand]
        if args.from_manifest:
            cfg = _replay(args.from_manifest, args.subcommand, settings)
        else:
            cfg = _resolve(args, settings)
        for key in ("ckpt", "data"):  # the inputs a subcommand reads are required
            if key in cfg and cfg[key] is None:
                raise CliError(f"--{key} is required")
        if cfg.get("seed") is not None and cfg["seed"] < 0:
            raise CliError(f"seed must be >= 0, got {cfg['seed']}")
        summary, files = runner(cfg)
        _publish(args.subcommand, cfg, files)
    except (CliError, OSError) as exc:  # OSError: unreadable input, unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # e.g. a sidecar's num_labels too large to allocate for
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TrainingError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(summary)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
