"""Command-line pipeline: generate, split, train, evaluate, inspect.

Every subcommand resolves its settings (flags > optional JSON config file >
defaults), writes a manifest with the fully resolved configuration before
doing any work, then writes its outputs. Re-running a subcommand with
--from-manifest replays the stored configuration and reproduces the outputs
byte for byte (the training report's wall-time column excepted).

Exit codes: 0 success, 1 usage or validation failure, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
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

    def value_types(self) -> dict:
        """Key -> the type its flag parses to (bool for on/off switches)."""
        return {a.dest: type(a.const) if a.nargs == 0 else a.type or str
                for a in self._actions}


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


def _check_types(cfg: dict, types: dict, defaults: dict, source: str):
    """Each value must have its flag's type; an int passes for a float, unconverted."""
    for key, value in cfg.items():
        want = types[key]
        if value is None and defaults[key] is None:
            continue
        accepted = (int, float) if want is float else want
        if not isinstance(value, accepted) or isinstance(value, bool) != (want is bool):
            raise CliError(f"{source}: {key} must be {want.__name__}, got {value!r}")


def _resolve(args, defaults: dict, types: dict) -> dict:
    """flags > config file > defaults; returns a fully materialized dict."""
    file_cfg = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise CliError(f"config file not found: {path}")
        file_cfg = _read_json_object(path, "config file")
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}")
        _check_types(file_cfg, types, defaults, f"config file {path}")
    resolved = {}
    for key, default in defaults.items():
        flag_val = getattr(args, key, None)
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


def _write_manifest(out_dir: Path, subcommand: str, cfg: dict, outputs: dict):
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = {
        "subcommand": subcommand,
        "config": cfg,
        "outputs": {k: str(v) for k, v in outputs.items()},
        "version": __version__,
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


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


# ---------------------------------------------------------------------------
# subcommands


GEN_DEFAULTS = {
    "labels": 5, "streams": 10, "horizon": 1000.0, "seed": None, "out": "pgem-out",
}


def run_gen_pgem(cfg: dict) -> str:
    if cfg["labels"] < 1:
        raise CliError("--labels must be >= 1")
    if cfg["streams"] < 1:
        raise CliError("--streams must be >= 1")
    if not (0 < cfg["horizon"] < math.inf):
        raise CliError(f"--horizon must be positive and finite, got {cfg['horizon']}")
    out = Path(cfg["out"])
    outputs = {"spec": out / "spec.json", "streams": out / "streams.csv"}
    _write_manifest(out, "gen-pgem", cfg, outputs)
    spec = pgem.sample_spec(cfg["labels"], cfg["seed"])
    data = pgem.simulate_dataset(spec, cfg["horizon"], cfg["streams"], cfg["seed"])
    pgem.save_spec(spec, outputs["spec"])
    save_stream(data, outputs["streams"])
    n_events = sum(len(s) for s in data.streams)
    return f"gen-pgem: wrote {cfg['streams']} streams, {n_events} events to {out}"


SPLIT_DEFAULTS = {
    "data": None, "mode": "stream", "fraction": 0.7, "seed": None, "out": "split-out",
}


def run_split(cfg: dict) -> str:
    if cfg["data"] is None:
        raise CliError("--data is required")
    if cfg["mode"] not in ("stream", "time"):
        raise CliError("--mode must be 'stream' or 'time'")
    if not (0.0 < cfg["fraction"] < 1.0):
        raise CliError("--fraction must lie strictly between 0 and 1")
    out = Path(cfg["out"])
    outputs = {"train": out / "train.csv", "test": out / "test.csv"}
    _write_manifest(out, "split", cfg, outputs)
    data = _load_dataset(cfg["data"])
    try:
        if cfg["mode"] == "stream":
            train_ds, test_ds = streams.split_by_stream(data, cfg["fraction"], cfg["seed"])
        else:
            train_ds, test_ds = streams.split_by_time(data, cfg["fraction"])
    except ValueError as exc:
        raise CliError(str(exc))
    save_stream(train_ds, outputs["train"])
    save_stream(test_ds, outputs["test"])
    return (f"split: {len(train_ds)} train / {len(test_ds)} test streams "
            f"({cfg['mode']}, fraction {cfg['fraction']}) to {out}")


TRAIN_DEFAULTS = {
    "data": None, "val": None, "out": "train-out", "seed": None,
    "fakes": 1, "channels": 8, "embed": 16, "memory": 3, "hidden": 32,
    "time_scale": None, "bank_real_only": False,
    "epochs": 50, "lr": 1e-3, "batch": 0, "clip": 5.0,
    "lambda_p": 1.0, "lambda_w": 1e-4, "patience": 0,
}


def run_train(cfg: dict) -> str:
    if cfg["data"] is None:
        raise CliError("--data is required")
    data = _load_dataset(cfg["data"])
    if cfg["time_scale"] is None:
        cfg["time_scale"] = max(s.horizon for s in data.streams)
    out = Path(cfg["out"])
    outputs = {"checkpoint": out / "model.ckpt", "report": out / "report.csv"}
    _write_manifest(out, "train", cfg, outputs)
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
            bank_real_only=cfg["bank_real_only"],
        )
        train_cfg = TrainConfig(
            learning_rate=cfg["lr"], clip_norm=cfg["clip"], epochs=cfg["epochs"],
            batch_size=cfg["batch"], seed=cfg["seed"], pred_weight=cfg["lambda_p"],
            l2_weight=cfg["lambda_w"], patience=cfg["patience"],
        )
    except ValueError as exc:
        raise CliError(str(exc))
    params, report = training.train(data, model_cfg, train_cfg, val_dataset=val_data)
    save_checkpoint(outputs["checkpoint"], model_cfg, params,
                    steps=report.epochs_run())
    report.to_csv(outputs["report"])
    return (f"train: {report.epochs_run()} epochs, final objective "
            f"{report.objective[-1]:.4f}, checkpoint at {outputs['checkpoint']}")


EVAL_DEFAULTS = {
    "ckpt": None, "data": None, "out": "eval-out", "fakes": None,
}


def run_eval(cfg: dict) -> str:
    if cfg["ckpt"] is None or cfg["data"] is None:
        raise CliError("--ckpt and --data are required")
    out = Path(cfg["out"])
    outputs = {"report": out / "eval.csv"}
    _write_manifest(out, "eval", cfg, outputs)
    model_cfg, params, _ = _load_ckpt(cfg["ckpt"])
    data = _load_dataset(cfg["data"])
    try:
        report = evaluation.test_ll(model_cfg, params, data, fake_count=cfg["fakes"])
    except ValueError as exc:
        raise CliError(str(exc))
    report.to_csv(outputs["report"])
    return f"eval: total test LL {report.total:.4f} over {len(report.scores)} streams"


ATTN_DEFAULTS = {
    "ckpt": None, "data": None, "out": "attn-out", "threshold": 0.01,
}


def run_attn_graph(cfg: dict) -> str:
    if cfg["ckpt"] is None or cfg["data"] is None:
        raise CliError("--ckpt and --data are required")
    out = Path(cfg["out"])
    outputs = {"dot": out / "attention.dot", "json": out / "attention.json"}
    _write_manifest(out, "attn-graph", cfg, outputs)
    model_cfg, params, _ = _load_ckpt(cfg["ckpt"])
    data = _load_dataset(cfg["data"])
    try:
        graph = evaluation.attention_graph(model_cfg, params, data, cfg["threshold"])
    except ValueError as exc:
        raise CliError(str(exc))
    graph.to_dot(outputs["dot"], label_names=data.label_names)
    graph.to_json(outputs["json"])
    return (f"attn-graph: {len(graph.edges)} edges at threshold "
            f"{cfg['threshold']} written to {out}")


TRACE_DEFAULTS = {
    "ckpt": None, "data": None, "stream": "s0", "out": "trace-out", "fakes": None,
}


def run_trace(cfg: dict) -> str:
    if cfg["ckpt"] is None or cfg["data"] is None:
        raise CliError("--ckpt and --data are required")
    out = Path(cfg["out"])
    outputs = {"trace": out / f"trace_{cfg['stream']}.csv"}
    _write_manifest(out, "trace", cfg, outputs)
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
    trace.to_csv(outputs["trace"])
    return f"trace: {len(trace.rows)} rows for stream {cfg['stream']} at {outputs['trace']}"


def _load_ckpt(path):
    p = _require_file(path, hint="model checkpoint")
    try:
        return load_checkpoint(p)
    except ValueError as exc:
        raise CliError(str(exc))


_RUNNERS = {
    "gen-pgem": (run_gen_pgem, GEN_DEFAULTS),
    "split": (run_split, SPLIT_DEFAULTS),
    "train": (run_train, TRAIN_DEFAULTS),
    "eval": (run_eval, EVAL_DEFAULTS),
    "attn-graph": (run_attn_graph, ATTN_DEFAULTS),
    "trace": (run_trace, TRACE_DEFAULTS),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="tppkit", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"tppkit {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    parser.subcommands = sub.choices

    def common(p):
        p.add_argument("--config", help="JSON file with defaults for any flag")
        p.add_argument("--from-manifest", dest="from_manifest",
                       help="replay a previous run's resolved configuration")
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("gen-pgem", help="sample a generating model and simulate streams")
    common(p)
    p.add_argument("--labels", type=int)
    p.add_argument("--streams", type=int)
    p.add_argument("--horizon", type=float)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("split", help="split a dataset into train and test")
    common(p)
    p.add_argument("--data")
    p.add_argument("--mode", choices=("stream", "time"))
    p.add_argument("--fraction", type=float)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("train", help="fit the intensity model")
    common(p)
    p.add_argument("--data")
    p.add_argument("--val")
    p.add_argument("--seed", type=int)
    p.add_argument("--fakes", type=int)
    p.add_argument("--channels", type=int)
    p.add_argument("--embed", type=int)
    p.add_argument("--memory", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--time-scale", dest="time_scale", type=float)
    p.add_argument("--bank-real-only", dest="bank_real_only",
                   action="store_const", const=True)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch", type=int)
    p.add_argument("--clip", type=float)
    p.add_argument("--lambda-p", dest="lambda_p", type=float)
    p.add_argument("--lambda-w", dest="lambda_w", type=float)
    p.add_argument("--patience", type=int)

    p = sub.add_parser("eval", help="score a dataset with a trained model")
    common(p)
    p.add_argument("--ckpt")
    p.add_argument("--data")
    p.add_argument("--fakes", type=int)

    p = sub.add_parser("attn-graph", help="export the label-influence graph")
    common(p)
    p.add_argument("--ckpt")
    p.add_argument("--data")
    p.add_argument("--threshold", type=float)

    p = sub.add_parser("trace", help="export per-token intensities for one stream")
    common(p)
    p.add_argument("--ckpt")
    p.add_argument("--data")
    p.add_argument("--stream")
    p.add_argument("--fakes", type=int)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        runner, defaults = _RUNNERS[args.subcommand]
        types = parser.subcommands[args.subcommand].value_types()
        if args.from_manifest:
            manifest_path = _require_file(args.from_manifest, hint="run manifest")
            manifest = _read_json_object(manifest_path, "manifest")
            if manifest.get("subcommand") != args.subcommand:
                raise CliError(
                    f"manifest is for {manifest.get('subcommand')!r}, "
                    f"not {args.subcommand!r}")
            cfg = manifest.get("config")
            if not isinstance(cfg, dict):
                raise CliError(f"manifest {manifest_path} lacks a config object")
            missing = set(defaults) - set(cfg)
            if missing:
                raise CliError(f"manifest lacks keys: {sorted(missing)}")
            # keys of retired options (eval's "parallel") are dropped
            cfg = {key: cfg[key] for key in defaults}
            _check_types(cfg, types, defaults, f"manifest {manifest_path}")
        else:
            cfg = _resolve(args, defaults, types)
        if cfg.get("seed") is not None and cfg["seed"] < 0:
            raise CliError(f"seed must be >= 0, got {cfg['seed']}")
        summary = runner(cfg)
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
