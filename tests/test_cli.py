import argparse
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from tppkit import cli
from tppkit.cli import main
from tppkit.evaluation import AttentionGraph
from tppkit.model import ModelConfig, ModelParams, load_checkpoint, save_checkpoint
from tppkit.streams import Dataset, Epoch, EventStream, load_stream, save_stream
from tppkit.training import TrainReport
from helpers import rewrite_checkpoint_header


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def gen_dir(tmp_path):
    out = tmp_path / "gen"
    code = run(["gen-pgem", "--labels", 3, "--streams", 4, "--horizon", 200,
                "--seed", 7, "--out", out])
    assert code == 0
    return out


@pytest.fixture()
def label_split(tmp_path):
    """train.csv: three streams of label-0 events; val.csv: one stream of
    label-1 events; model.ckpt: an untrained model for both (M=2, T=100).
    For failing runs: m3.csv, one stream with M=3; orphan.csv, without its
    sidecar; nomem.ckpt, a model with memory depth 0."""
    train = Dataset(tuple(
        EventStream(tuple(Epoch(t, 0) for t in (5 + i, 20, 40, 60, 80)), 100.0, 2)
        for i in range(3)))
    save_stream(train, tmp_path / "train.csv")
    save_stream(Dataset((EventStream((Epoch(10.0, 1), Epoch(50.0, 1)), 100.0, 2),)),
                tmp_path / "val.csv")
    save_stream(Dataset((EventStream((Epoch(10.0, 2),), 100.0, 3),)), tmp_path / "m3.csv")
    (tmp_path / "orphan.csv").write_text("stream_id,time,label\ns0,1.0,0\n")
    cfg = ModelConfig(label_count=2, time_scale=100.0)
    save_checkpoint(tmp_path / "model.ckpt", cfg, ModelParams.init(cfg, seed=0))
    nomem = ModelConfig(label_count=2, time_scale=100.0, memory_depth=0)
    save_checkpoint(tmp_path / "nomem.ckpt", nomem, ModelParams.init(nomem, seed=0))
    return tmp_path


@pytest.mark.parametrize("argv, setting", [
    (["gen-pgem", "--horizon", "nan"], "--horizon"),
    (["gen-pgem", "--horizon", "inf"], "--horizon"),
    (["train", "--lr", "nan"], "learning_rate"),
    (["train", "--lr", "inf"], "learning_rate"),
    (["train", "--lambda-p", "nan"], "pred_weight"),
    (["train", "--clip", "nan"], "clip_norm"),
    (["train", "--time-scale", "inf"], "time_scale"),
    (["train", "--lambda-w", "inf"], "l2_weight"),
    (["attn-graph", "--threshold", "nan"], "threshold"),
])
def test_nonfinite_setting_exits_1(argv, setting, label_split, capsys):
    inputs = {"gen-pgem": [],
              "train": ["--data", label_split / "train.csv", "--epochs", 1],
              "attn-graph": ["--ckpt", label_split / "model.ckpt",
                             "--data", label_split / "train.csv"]}[argv[0]]
    out = label_split / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(argv + inputs + ["--out", out])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and setting in err and "finite" in err
    assert not (out / "model.ckpt").exists()


def test_patience_without_val_exits_1(label_split, capsys):
    out = label_split / "out"
    code = run(["train", "--data", label_split / "train.csv", "--epochs", 3,
                "--patience", 1, "--out", out])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --patience needs --val")
    assert not out.exists()


def test_runaway_horizon_exits_1(tmp_path):
    # in a child process under a timeout: without the event budget the run
    # would simulate until memory runs out
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "tppkit.cli", "gen-pgem", "--labels", "2",
                           "--streams", "1", "--horizon", "1e300", "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: the spec's largest total rate ")
    assert "must be at most 1000000 expected events" in proc.stderr
    assert not out.exists()


def failing_run(case, d):
    """argv of one failing run per subcommand on label_split's files, and its exit code."""
    ckpt, data = ["--ckpt", d / "model.ckpt"], ["--data", d / "train.csv"]
    return {
        # gen-pgem's spec.json is made a directory, so moving it into --out fails
        "gen-pgem": (["gen-pgem", "--streams", 1, "--horizon", 10], 1),
        "split": (["split", "--data", d / "missing.csv"], 1),
        "train": (["train", *data, "--lr", "nan"], 1),
        "train-diverges": (["train", *data, "--lr", "1e308", "--epochs", 1], 2),
        "eval": (["eval", "--ckpt", d / "missing.ckpt", *data], 1),
        "attn-graph": (["attn-graph", *ckpt, *data, "--threshold", "nan"], 1),
        "trace": (["trace", *ckpt, *data, "--stream", "s99"], 1),
        # checks that live only in the library
        "gen-pgem-labels": (["gen-pgem", "--labels", 0], 1),
        "gen-pgem-streams": (["gen-pgem", "--streams", 0], 1),
        "split-fraction": (["split", *data, "--fraction", 1.0], 1),
        "split-sidecar": (["split", "--data", d / "orphan.csv"], 1),
        "train-fakes": (["train", *data, "--fakes", -1], 1),
        "train-val-labels": (["train", *data, "--val", d / "m3.csv"], 1),
        "eval-fakes": (["eval", *ckpt, *data, "--fakes", -1], 1),
        "eval-labels": (["eval", *ckpt, "--data", d / "m3.csv"], 1),
        "attn-graph-labels": (["attn-graph", *ckpt, "--data", d / "m3.csv"], 1),
        "trace-labels": (["trace", *ckpt, "--data", d / "m3.csv"], 1),
        "trace-fakes": (["trace", *ckpt, *data, "--fakes", -1], 1),
        "attn-graph-memory": (["attn-graph", "--ckpt", d / "nomem.ckpt", *data], 1),
    }[case]


@pytest.mark.parametrize("case", [
    "gen-pgem", "split", "train", "train-diverges", "eval", "attn-graph", "trace",
    "gen-pgem-labels", "gen-pgem-streams", "split-fraction", "split-sidecar",
    "train-fakes", "train-val-labels", "eval-fakes", "eval-labels", "attn-graph-labels",
    "trace-labels", "trace-fakes", "attn-graph-memory"])
def test_failed_run_writes_no_manifest(case, label_split, capsys):
    # the manifest is written last, so a run that exits 1 or 2 leaves none;
    # a run that fails before its outputs does not create --out either
    argv, want = failing_run(case, label_split)
    out = label_split / "out"
    if case == "gen-pgem":
        (out / "spec.json").mkdir(parents=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["--out", out]) == want
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: " if want == 1 else "numerical failure: ")
    if case in ("eval-labels", "attn-graph-labels", "trace-labels"):
        # every scoring subcommand takes the label check from model.forward
        assert err.startswith("error: data uses 3 labels but the model was trained with 2")
    assert not (out / "manifest.json").exists()
    assert case == "gen-pgem" or not out.exists()


@pytest.mark.parametrize("first, again, owner, attr, fails_at", [
    # gen-pgem writes spec.json, then the streams
    (["gen-pgem", "--streams", 2, "--horizon", 20, "--seed", 1], ["--seed", 2],
     cli, "save_stream", 0),
    (["split", "--data", "{d}/train.csv", "--fraction", 0.5], ["--fraction", 0.2],
     cli, "save_stream", 1),
    (["train", "--data", "{d}/train.csv", "--epochs", 1, "--seed", 1], ["--seed", 2],
     TrainReport, "to_csv", 0),
    (["attn-graph", "--ckpt", "{d}/model.ckpt", "--data", "{d}/train.csv"],
     ["--threshold", 0.5], AttentionGraph, "to_json", 0),
], ids=["gen-pgem", "split", "train", "attn-graph"])
def test_failed_write_leaves_out_as_it_was(first, again, owner, attr, fails_at,
                                           label_split, monkeypatch, capsys):
    # a run whose second output cannot be written exits 1 and leaves every
    # file of the previous run in --out, and nothing beside it
    argv = [str(a).format(d=label_split) for a in first] + ["--out", label_split / "out"]
    assert run(argv) == 0
    before = {p: p.read_bytes() for p in label_split.rglob("*") if p.is_file()}
    original, calls = getattr(owner, attr), []

    def writer(*args, **kwargs):
        calls.append(args)
        if len(calls) > fails_at:
            raise OSError("disk full")
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, writer)
    capsys.readouterr()
    assert run(argv + again) == 1
    assert capsys.readouterr().err.startswith("error: disk full")
    assert {p: p.read_bytes() for p in label_split.rglob("*") if p.is_file()} == before
    assert set(label_split.rglob("*")) == set(before) | {label_split / "out"}


def test_failed_move_leaves_no_manifest(tmp_path, monkeypatch, capsys):
    # a re-run whose second move into --out fails exits 1; the file moved
    # first is the new run's, and the earlier run's manifest is gone rather
    # than left to describe it
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    argv = ["gen-pgem", "--labels", 2, "--streams", 2, "--horizon", 50, "--seed"]
    assert run(argv + [2, "--out", fresh]) == 0
    assert run(argv + [1, "--out", out]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    original, moved = os.replace, []

    def replace(src, dst):
        moved.append(Path(dst).name)
        if len(moved) == 2:
            raise OSError("device busy")
        return original(src, dst)

    monkeypatch.setattr(cli.os, "replace", replace)
    capsys.readouterr()
    assert run(argv + [2, "--out", out]) == 1
    assert capsys.readouterr().err == "error: device busy\n"
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert set(after) == set(before) - {"manifest.json"}
    assert after[moved[0]] == (fresh / moved[0]).read_bytes()
    assert after[moved[1]] == before[moved[1]]
    assert {p.name for p in tmp_path.iterdir()} == {"out", "fresh"}


# every setting of every subcommand: its flag is --<key with - for _>, it
# parses to the type given, and it resolves to the default given
SURFACE = {
    "gen-pgem": {"labels": (int, 5), "streams": (int, 10), "horizon": (float, 1000.0),
                 "seed": (int, None), "out": (str, "pgem-out")},
    "split": {"data": (str, None), "mode": (str, "stream"), "fraction": (float, 0.7),
              "seed": (int, None), "out": (str, "split-out")},
    "train": {"data": (str, None), "val": (str, None), "out": (str, "train-out"),
              "seed": (int, None), "fakes": (int, 1), "channels": (int, 8),
              "embed": (int, 16), "memory": (int, 3), "hidden": (int, 32),
              "time_scale": (float, None), "epochs": (int, 50), "lr": (float, 1e-3),
              "batch": (int, 0), "clip": (float, 5.0), "lambda_p": (float, 1.0),
              "lambda_w": (float, 1e-4), "patience": (int, 0)},
    "eval": {"ckpt": (str, None), "data": (str, None), "out": (str, "eval-out"),
             "fakes": (int, None)},
    "attn-graph": {"ckpt": (str, None), "data": (str, None), "out": (str, "attn-out"),
                   "threshold": (float, 0.01)},
    "trace": {"ckpt": (str, None), "data": (str, None), "stream": (str, "s0"),
              "out": (str, "trace-out"), "fakes": (int, None)},
}


def test_cli_flags_pinned():
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(SURFACE)
    for name, settings in SURFACE.items():
        want = {k: ("--" + k.replace("_", "-"), t) for k, (t, _) in settings.items()}
        want.update(config=("--config", str), from_manifest=("--from-manifest", str))
        got = {a.dest: (a.option_strings[-1], a.type or str)
               for a in sub.choices[name]._actions if a.dest != "help"}
        assert got == want, name
        # None, so that a flag left out falls back to the config file
        assert all(a.default is None for a in sub.choices[name]._actions
                   if a.dest != "help"), name


def test_cli_defaults_pinned(label_split, monkeypatch):
    # each subcommand run with only its inputs writes its defaults to its
    # manifest; the seed falls back to 0 and train's time scale to the horizon
    monkeypatch.delenv("TPPKIT_SEED", raising=False)
    monkeypatch.chdir(label_split)
    inputs = {"split": {"data": "pgem-out/streams.csv"}, "train": {"data": "train.csv"},
              **{name: {"ckpt": "model.ckpt", "data": "train.csv"}
                 for name in ("eval", "attn-graph", "trace")}}
    for name, settings in SURFACE.items():
        given = inputs.get(name, {})
        assert run([name] + [a for k, v in given.items() for a in (f"--{k}", v)]) == 0
        manifest = json.loads(Path(settings["out"][1], "manifest.json").read_text())
        want = {k: d for k, (_, d) in settings.items()}
        want.update(given, **{"seed": 0} if "seed" in want else {})
        if name == "train":
            want["time_scale"] = 100.0
        assert manifest["config"] == want, name


@pytest.mark.parametrize("name", ["gen-pgem", "eval"])
def test_unknown_manifest_key_exits_1(name, label_split, capsys):
    # a key no setting has is named, as --config names it; only the retired
    # keys that old manifests carry are dropped
    argv = {"gen-pgem": ["gen-pgem", "--streams", 1, "--horizon", 10],
            "eval": ["eval", "--ckpt", label_split / "model.ckpt",
                     "--data", label_split / "train.csv"]}[name]
    out = label_split / "out"
    assert run(argv + ["--out", out]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["config"]["horizn"] = 10.0
    path = label_split / "typo-manifest.json"
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run([name, "--from-manifest", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'horizn'" in err and str(path) in err


def test_retired_bank_real_only_in_train_manifest(label_split, capsys):
    # train manifests written while the bank had a real-events-only mode carry
    # the key: false replays as the rule kept, any other value exits 1
    out = label_split / "out"
    assert run(["train", "--data", label_split / "train.csv", "--epochs", 1,
                "--out", out]) == 0
    ckpt = (out / "model.ckpt").read_bytes()
    manifest = json.loads((out / "manifest.json").read_text())
    old = label_split / "old-manifest.json"
    manifest["config"]["bank_real_only"] = False
    old.write_text(json.dumps(manifest))
    assert run(["train", "--from-manifest", old]) == 0
    assert (out / "model.ckpt").read_bytes() == ckpt
    assert "bank_real_only" not in json.loads((out / "manifest.json").read_text())["config"]
    manifest["config"]["bank_real_only"] = True
    old.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run(["train", "--from-manifest", old]) == 1
    assert "bank_real_only is True" in capsys.readouterr().err


def test_retired_bank_real_only_in_checkpoint(label_split, capsys):
    ckpt, data = label_split / "model.ckpt", label_split / "train.csv"
    rewrite_checkpoint_header(ckpt, lambda h: h["config"].update(bank_real_only=False))
    assert run(["eval", "--ckpt", ckpt, "--data", data, "--out", label_split / "a"]) == 0
    rewrite_checkpoint_header(ckpt, lambda h: h["config"].update(bank_real_only=True))
    capsys.readouterr()
    assert run(["eval", "--ckpt", ckpt, "--data", data, "--out", label_split / "b"]) == 1
    assert "'bank_real_only' is True" in capsys.readouterr().err


class TestGenPgem:
    def test_writes_spec_streams_manifest(self, gen_dir):
        assert (gen_dir / "spec.json").exists()
        assert (gen_dir / "streams.csv").exists()
        assert (gen_dir / "streams.meta.json").exists()
        manifest = json.loads((gen_dir / "manifest.json").read_text())
        assert manifest["subcommand"] == "gen-pgem"
        assert manifest["config"]["labels"] == 3
        data = load_stream(gen_dir / "streams.csv")
        assert len(data) == 4
        assert data.label_count == 3

    def test_zero_streams_usage_error(self, tmp_path):
        code = run(["gen-pgem", "--streams", 0, "--out", tmp_path / "x"])
        assert code == 1

    def test_identical_bytes_per_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["gen-pgem", "--labels", 2, "--streams", 3,
                        "--horizon", 100, "--seed", 5, "--out", out]) == 0
        assert (a / "streams.csv").read_bytes() == (b / "streams.csv").read_bytes()
        assert (a / "spec.json").read_bytes() == (b / "spec.json").read_bytes()

    def test_unwritable_out_dir_exits_1(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        code = run(["gen-pgem", "--out", afile / "sub"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "afile" in err

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TPPKIT_SEED", "5")
        a = tmp_path / "env"
        assert run(["gen-pgem", "--labels", 2, "--streams", 3,
                    "--horizon", 100, "--out", a]) == 0
        b = tmp_path / "flag"
        assert run(["gen-pgem", "--labels", 2, "--streams", 3,
                    "--horizon", 100, "--seed", 5, "--out", b]) == 0
        assert (a / "streams.csv").read_bytes() == (b / "streams.csv").read_bytes()

    @pytest.mark.parametrize("raw", ["+-5", "_5", "5_", "5__0", "1.5", "five", "", " "])
    def test_bad_env_seed_names_the_variable(self, raw, tmp_path, monkeypatch, capsys):
        # every value int() refuses, also those made of signs, digits and
        # underscores, exits 1 naming the variable, and writes nothing
        monkeypatch.setenv("TPPKIT_SEED", raw)
        out = tmp_path / "out"
        assert run(["gen-pgem", "--out", out]) == 1
        assert capsys.readouterr().err == f"error: TPPKIT_SEED must be an integer, got {raw!r}\n"
        assert not out.exists()


class TestSplit:
    def test_stream_split(self, gen_dir, tmp_path):
        out = tmp_path / "split"
        code = run(["split", "--data", gen_dir / "streams.csv", "--mode", "stream",
                    "--fraction", "0.5", "--seed", 1, "--out", out])
        assert code == 0
        train = load_stream(out / "train.csv")
        test = load_stream(out / "test.csv")
        assert len(train) == 2 and len(test) == 2

    def test_time_split(self, gen_dir, tmp_path):
        out = tmp_path / "tsplit"
        code = run(["split", "--data", gen_dir / "streams.csv", "--mode", "time",
                    "--fraction", "0.7", "--out", out])
        assert code == 0
        train = load_stream(out / "train.csv")
        assert train.streams[0].horizon == pytest.approx(140.0)

    def test_missing_data_flag(self, tmp_path):
        assert run(["split", "--out", tmp_path / "s"]) == 1

    def test_time_split_keeps_an_empty_test_stream(self, label_split, capsys):
        # the second stream has no event after the cut; test.csv keeps it, and
        # eval scores its -integral term
        data = label_split / "two.csv"
        save_stream(Dataset((EventStream((Epoch(1.0, 0), Epoch(8.0, 1)), 10.0, 2),
                             EventStream((Epoch(2.0, 0),), 10.0, 2))), data)
        split, out = label_split / "split", label_split / "eval"
        assert run(["split", "--data", data, "--mode", "time", "--fraction", 0.5,
                    "--out", split]) == 0
        assert capsys.readouterr().out.startswith("split: 2 train / 2 test streams")
        assert run(["eval", "--ckpt", label_split / "model.ckpt", "--data", split / "test.csv",
                    "--out", out]) == 0
        rows = [line.split(",") for line in (out / "eval.csv").read_text().splitlines()[1:]]
        assert [(r[0], r[2], r[3]) for r in rows] == [
            ("s0", "1", "5.0"), ("s1", "0", "5.0"), ("total", "1", "10.0")]
        assert float(rows[2][1]) == float(rows[0][1]) + float(rows[1][1])

    def test_no_stream_left_for_test_exits_1(self, label_split, capsys):
        # the default fraction 0.7 of 3 streams is ceil(2.1) = 3 train streams
        out = label_split / "split"
        assert run(["split", "--data", label_split / "train.csv", "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: fraction 0.7 of 3 streams")
        assert "test set empty" in err
        assert not out.exists()

    def test_data_path_that_is_no_file_exits_1(self, tmp_path, capsys):
        # "" is the current directory, which has no sidecar name
        assert run(["split", "--data", "", "--out", tmp_path / "s"]) == 1
        assert capsys.readouterr().err.startswith("error: missing file")


@pytest.mark.parametrize("meta, csv_bytes, named", [
    ('{"num_labels": 1e999, "horizon": 10}', b"s0,1.0,0\n", "X.meta.json"),
    ('{"num_labels": 2, "horizon": 1%s}' % ("0" * 400), b"s0,1.0,0\n", "X.meta.json"),
    ('{"num_labels": 2, "horizon": NaN}', b"s0,1.0,0\n", "X.meta.json"),
    ('{"num_labels": 2, "horizon": -1}', b"s0,1.0,0\n", "X.meta.json"),
    ('{"num_labels": 2, "horizon": 10}', b"s0,1.0,0\n\xff\n", "X.csv"),
    ('{"num_labels": 2, "horizon": 10, "label_names": [1, {"x": 2}]}', b"s0,1.0,0\n",
     "X.meta.json"),
    ('{"num_labels": 2, "horizon": 10, "label_names": ["a", "a"]}', b"s0,1.0,0\n",
     "X.meta.json"),
    ('{"num_labels": 2, "horizon": 10, "stream_ids": ["s0", "s0"]}', b"s0,1.0,0\n",
     "X.meta.json"),
    ('{"num_labels": 2, "horizon": 10, "stream_ids": ["s0"]}', b"s0,1.0,0\ns1,2.0,0\n",
     "X.csv:3"),
], ids=["num-labels-overflow", "horizon-overflow", "horizon-nan", "horizon-negative",
        "undecodable-csv", "label-names-not-strings", "label-names-repeated",
        "stream-ids-repeated", "stream-id-not-listed"])
def test_malformed_stream_file_exits_1(tmp_path, capsys, meta, csv_bytes, named):
    data = tmp_path / "X.csv"
    data.write_bytes(b"stream_id,time,label\n" + csv_bytes)
    (tmp_path / "X.meta.json").write_text(meta)
    code = run(["split", "--data", data, "--mode", "stream", "--fraction", 0.5,
                "--out", tmp_path / "o"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(tmp_path / named) in err


def test_attention_dot_escapes_label_names(label_split):
    # a quote or a backslash in a name must not end or break its quoted DOT ID
    data = label_split / "named.csv"
    save_stream(Dataset((EventStream((Epoch(10.0, 0), Epoch(50.0, 1)), 100.0, 2),),
                        label_names=['say "hi"', "back\\slash"]), data)
    assert run(["attn-graph", "--ckpt", label_split / "model.ckpt", "--data", data,
                "--threshold", 0.0, "--out", label_split / "attn"]) == 0
    lines = (label_split / "attn" / "attention.dot").read_text().splitlines()
    assert lines[1:3] == ['  "say \\"hi\\"";', '  "back\\\\slash";']
    ids = r'"(?:[^"\\]|\\[\\"])*"'
    assert all(re.fullmatch(f'  {ids} -> {ids} \\[weight="[0-9.]+"\\];', line)
               for line in lines[3:-1]) and len(lines) == 8


def test_num_labels_too_large_to_allocate_exits_1(tmp_path, capsys):
    # 10**15 labels ask for more than the user address space holds, so numpy
    # refuses the embedding before allocating anything
    data = tmp_path / "X.csv"
    data.write_text("stream_id,time,label\ns0,1.0,0\n")
    (tmp_path / "X.meta.json").write_text('{"num_labels": %d, "horizon": 10}' % 10**15)
    code = run(["train", "--data", data, "--epochs", 1, "--out", tmp_path / "o"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "allocate" in err


class TestTrainEvalPipeline:
    @pytest.fixture()
    def pipeline(self, tmp_path):
        gen = tmp_path / "gen"
        assert run(["gen-pgem", "--labels", 2, "--streams", 4, "--horizon", 120,
                    "--seed", 3, "--out", gen]) == 0
        split = tmp_path / "split"
        assert run(["split", "--data", gen / "streams.csv", "--mode", "stream",
                    "--fraction", "0.5", "--seed", 0, "--out", split]) == 0
        trained = tmp_path / "train"
        assert run(["train", "--data", split / "train.csv", "--fakes", 1,
                    "--channels", 2, "--embed", 3, "--memory", 2, "--hidden", 4,
                    "--epochs", 2, "--seed", 1, "--out", trained]) == 0
        return tmp_path

    def test_train_outputs(self, pipeline):
        trained = pipeline / "train"
        assert (trained / "model.ckpt").exists()
        report = (trained / "report.csv").read_text().strip().splitlines()
        assert report[0] == "epoch,objective,train_ll,val_ll,seconds"
        assert len(report) == 3
        cfg, params, steps = load_checkpoint(trained / "model.ckpt")
        assert steps == 2
        assert cfg.label_count == 2
        assert cfg.time_scale == pytest.approx(120.0)  # auto: train horizon

    def test_missing_sidecar_names_expected_file(self, pipeline, tmp_path):
        orphan = tmp_path / "orphan.csv"
        orphan.write_text("stream_id,time,label\ns0,1.0,0\n")
        code = run(["train", "--data", orphan, "--epochs", 1, "--out", tmp_path / "t"])
        assert code == 1

    def test_eval_and_reports(self, pipeline):
        out = pipeline / "eval"
        code = run(["eval", "--ckpt", pipeline / "train" / "model.ckpt",
                    "--data", pipeline / "split" / "test.csv", "--out", out])
        assert code == 0
        lines = (out / "eval.csv").read_text().strip().splitlines()
        assert lines[0] == "stream_id,ll,num_events,horizon"
        assert lines[-1].startswith("total,")

    def test_attn_graph(self, pipeline):
        out = pipeline / "attn"
        code = run(["attn-graph", "--ckpt", pipeline / "train" / "model.ckpt",
                    "--data", pipeline / "split" / "train.csv",
                    "--threshold", "0.01", "--out", out])
        assert code == 0
        assert (out / "attention.dot").read_text().startswith("digraph attention {")
        doc = json.loads((out / "attention.json").read_text())
        assert doc["num_labels"] == 2

    def test_trace(self, pipeline):
        out = pipeline / "trace"
        code = run(["trace", "--ckpt", pipeline / "train" / "model.ckpt",
                    "--data", pipeline / "split" / "test.csv",
                    "--stream", "s0", "--out", out])
        assert code == 0
        lines = (out / "trace_s0.csv").read_text().strip().splitlines()
        assert lines[0] == "time,label,lambda,is_real_event"

    def test_trace_unknown_stream(self, pipeline):
        code = run(["trace", "--ckpt", pipeline / "train" / "model.ckpt",
                    "--data", pipeline / "split" / "test.csv",
                    "--stream", "s99", "--out", pipeline / "tx"])
        assert code == 1

    def test_eval_replays_manifest_with_retired_parallel_key(self, pipeline):
        # manifests written before --parallel was removed still replay
        out = pipeline / "eval"
        assert run(["eval", "--ckpt", pipeline / "train" / "model.ckpt",
                    "--data", pipeline / "split" / "test.csv", "--out", out]) == 0
        before = (out / "eval.csv").read_bytes()
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["config"]["parallel"] = 4
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert run(["eval", "--from-manifest", out / "manifest.json"]) == 0
        assert (out / "eval.csv").read_bytes() == before
        assert "parallel" not in json.loads((out / "manifest.json").read_text())["config"]

    def test_ckpt_data_label_mismatch(self, pipeline, tmp_path):
        gen5 = tmp_path / "gen5"
        assert run(["gen-pgem", "--labels", 5, "--streams", 2, "--horizon", 50,
                    "--seed", 1, "--out", gen5]) == 0
        code = run(["eval", "--ckpt", pipeline / "train" / "model.ckpt",
                    "--data", gen5 / "streams.csv", "--out", tmp_path / "e"])
        assert code == 1


class TestManifestReplay:
    def test_gen_pgem_replay_byte_identical(self, gen_dir):
        before = {p.name: p.read_bytes() for p in gen_dir.iterdir()}
        code = run(["gen-pgem", "--from-manifest", gen_dir / "manifest.json"])
        assert code == 0
        after = {p.name: p.read_bytes() for p in gen_dir.iterdir()}
        assert before == after

    def test_replay_wrong_subcommand(self, gen_dir):
        code = run(["split", "--from-manifest", gen_dir / "manifest.json"])
        assert code == 1

    def test_config_file_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"labels": 2, "streams": 3, "horizon": 80.0,
                                   "seed": 9}))
        a = tmp_path / "a"
        assert run(["gen-pgem", "--config", cfg, "--out", a]) == 0
        manifest = json.loads((a / "manifest.json").read_text())
        assert manifest["config"]["labels"] == 2
        # flag wins over file
        b = tmp_path / "b"
        assert run(["gen-pgem", "--config", cfg, "--labels", 4, "--out", b]) == 0
        manifest = json.loads((b / "manifest.json").read_text())
        assert manifest["config"]["labels"] == 4

    def test_malformed_config_json_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"labels": 2,')
        assert run(["gen-pgem", "--config", cfg, "--out", tmp_path / "x"]) == 1
        assert str(cfg) in capsys.readouterr().err

    def test_malformed_manifest_json_exits_1(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text("{not json")
        assert run(["gen-pgem", "--from-manifest", manifest]) == 1
        assert str(manifest) in capsys.readouterr().err

    def test_too_deeply_nested_config_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[" * 100000)
        assert run(["gen-pgem", "--config", cfg, "--out", tmp_path / "x"]) == 1
        assert str(cfg) in capsys.readouterr().err

    def test_negative_seed_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -1}))
        assert run(["gen-pgem", "--seed", -3, "--out", tmp_path / "x"]) == 1
        assert run(["gen-pgem", "--config", cfg, "--out", tmp_path / "y"]) == 1
        assert capsys.readouterr().err.count("seed must be >= 0") == 2

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"labelz": 2}))
        assert run(["gen-pgem", "--config", cfg, "--out", tmp_path / "x"]) == 1

    def test_wrong_typed_config_value_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        for bad in ({"labels": "x"}, {"streams": True}, {"labels": None},
                    {"horizon": "20"}):
            cfg.write_text(json.dumps(bad))
            assert run(["gen-pgem", "--config", cfg, "--out", tmp_path / "x"]) == 1
            err = capsys.readouterr().err
            assert str(cfg) in err and f"{next(iter(bad))} must be" in err
        # an int for a float key is kept as written; None stays where it is the default
        cfg.write_text(json.dumps({"labels": 2, "streams": 1, "horizon": 20, "seed": None}))
        assert run(["gen-pgem", "--config", cfg, "--out", tmp_path / "ok"]) == 0
        manifest = json.loads((tmp_path / "ok" / "manifest.json").read_text())
        assert manifest["config"]["horizon"] == 20
        assert isinstance(manifest["config"]["horizon"], int)

    def test_wrong_typed_manifest_value_exits_1(self, gen_dir, tmp_path, capsys):
        manifest = json.loads((gen_dir / "manifest.json").read_text())
        manifest["config"]["horizon"] = "20"
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        assert run(["gen-pgem", "--from-manifest", path]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "horizon must be float" in err


class TestNumericalFailureExitCode:
    def test_divergent_training_exits_2(self, tmp_path):
        gen = tmp_path / "gen"
        assert run(["gen-pgem", "--labels", 1, "--streams", 1, "--horizon", 60,
                    "--seed", 2, "--out", gen]) == 0
        code = run(["train", "--data", gen / "streams.csv", "--epochs", 3,
                    "--lr", "1e8", "--channels", 2, "--embed", 2, "--memory", 1,
                    "--hidden", 3, "--seed", 1, "--out", tmp_path / "t"])
        assert code == 2

    def test_validation_rate_underflow_exits_2(self, label_split, capsys):
        # the model learns label 1 never fires, and its rate underflows to 0
        # at the validation stream's label-1 events
        out = label_split / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["train", "--data", label_split / "train.csv",
                        "--val", label_split / "val.csv", "--lr", 1, "--epochs", 20,
                        "--seed", 1, "--out", out])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ")
        # the LL breaks at the first real label-1 event, not at the fake
        # token before it, whose zero rate the LL never reads
        assert "validation stream s0: rate 0.0 at token 2 (t=10.0, kind=real), channel 1" in err
        assert "Warning" not in err and "Traceback" not in err
        assert not (out / "model.ckpt").exists()

    def test_overflowing_adam_step_exits_2(self, label_split, capsys):
        out = label_split / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["train", "--data", label_split / "train.csv", "--lr", "1e308",
                        "--epochs", 1, "--out", out])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: Adam step 1 left non-finite entries in ")
        assert "Warning" not in err
        assert not (out / "model.ckpt").exists()

    @staticmethod
    def overflowing_params(p):
        # the first rate layer overflows to inf, and f2 takes inf - inf = nan
        p.f1_w[:] = 0.0
        p.f2_w[:] = 0.0
        p.f1_b[:] = 1.7e308
        p.f1_w[:, -1] = 1.7e308
        p.f2_w[0, :2] = [1.0, -1.0]

    @staticmethod
    def underflowing_params(p):
        # every rate underflows to exactly 0
        p.f2_w[:] = 0.0
        p.f2_b[:] = -800.0

    @pytest.mark.parametrize("subcommand", ["eval", "trace"])
    @pytest.mark.parametrize("case, rate", [("overflowing_params", "nan"),
                                            ("underflowing_params", "0.0")])
    def test_bad_model_rates_exit_2(self, subcommand, case, rate, tmp_path, capsys):
        cfg = ModelConfig(label_count=2, time_scale=200.0)
        params = ModelParams.init(cfg, seed=0)
        getattr(self, case)(params)
        save_checkpoint(tmp_path / "model.ckpt", cfg, params)
        gen = tmp_path / "gen"
        assert run(["gen-pgem", "--labels", 2, "--streams", 2, "--horizon", 200,
                    "--seed", 1, "--out", gen]) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run([subcommand, "--ckpt", tmp_path / "model.ckpt",
                        "--data", gen / "streams.csv", "--out", tmp_path / "out"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ")
        # eval names the first rate its LL cannot absorb: with every rate 0,
        # that is s0's first real event (token 2, label 1)
        culprit = ("at token 2 (t=", "kind=real), channel 1")
        if (subcommand, case) != ("eval", "underflowing_params"):
            culprit = ("at token 1 ", "channel 0")
        assert "stream s0" in err and f"rate {rate} {culprit[0]}" in err and culprit[1] in err
        assert "RuntimeWarning" not in err
