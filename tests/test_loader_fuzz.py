"""Property tests: arbitrary input files reach the loaders' documented errors.

``load_stream`` may raise only ``StreamFormatError``, ``load_checkpoint`` and
``pgem.load_spec`` only ``ValueError``, and ``cli.main`` fed an arbitrary
``--config`` or ``--from-manifest`` file may only return 0 or 1, never
raise. Most inputs keep each field valid or make it arbitrary independently,
so that the fuzzing also reaches the checks behind the first field.
"""

import dataclasses
import json
import struct

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from tppkit.cli import SUBCOMMANDS, main
from tppkit.model import (
    CHECKPOINT_MAGIC, ModelConfig, ModelParams, load_checkpoint, save_checkpoint,
)
from tppkit.pgem import load_spec, sample_spec, save_spec
from tppkit.streams import StreamFormatError, load_stream

FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

scalars = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.integers(min_value=10**300, max_value=10**500) | st.text(max_size=8))
json_values = st.recursive(
    scalars,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=8), kids, max_size=4),
    max_leaves=10)


def document(fields: dict):
    """Bytes of a JSON object whose keys are each absent, drawn from their strategy
    or any JSON value; or of any JSON value; or arbitrary bytes."""
    optional = {k: v | json_values for k, v in fields.items()}
    objects = st.fixed_dictionaries({}, optional=optional) | json_values
    return objects.map(lambda v: json.dumps(v).encode()) | st.binary(max_size=64)


HEADER = b"stream_id,time,label\n"
cells = st.text(max_size=6) | st.floats().map(repr) | st.integers().map(str)
rows = st.tuples(st.sampled_from(["s0", "s1"]) | cells,
                 st.floats(0.0, 50.0).map(repr) | cells,
                 st.integers(0, 1).map(str) | cells)
csv_files = st.builds(
    lambda rs, tail: HEADER + "".join(",".join(r) + "\n" for r in rs).encode() + tail,
    st.lists(rows, min_size=1, max_size=6), st.just(b"") | st.binary(max_size=16),
) | st.binary(max_size=64)
sidecars = document({"num_labels": st.just(2), "horizon": st.just(50.0),
                     "label_names": st.just(["a", "b"])})


@FUZZ
@given(meta=sidecars, data=csv_files)
def test_load_stream_raises_only_format_errors(tmp_path, meta, data):
    p = tmp_path / "d.csv"
    p.write_bytes(data)
    (tmp_path / "d.meta.json").write_bytes(meta)
    try:
        load_stream(p)
    except StreamFormatError:
        pass


@FUZZ
@given(tail=st.binary(max_size=200))
def test_load_checkpoint_arbitrary_bytes_raise_value_error(tmp_path, tail):
    p = tmp_path / "m.ckpt"
    p.write_bytes(CHECKPOINT_MAGIC + tail)
    try:
        load_checkpoint(p)
    except ValueError:
        pass


CKPT_FIELDS = [f.name for f in dataclasses.fields(ModelConfig)] + ["steps", "order"]


@FUZZ
@given(field=st.sampled_from(CKPT_FIELDS), value=json_values | st.integers(-2, 9).map(float),
       cut=st.integers(0, 16))
def test_load_checkpoint_bad_header_value_raises_value_error(tmp_path, field, value, cut):
    cfg = ModelConfig(label_count=2, channel_width=2, embed_dim=3, hidden_width=4)
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, cfg, ModelParams.init(cfg, seed=1), steps=3)
    raw = p.read_bytes()
    (n,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12:12 + n])
    (header if field in ("steps", "order") else header["config"])[field] = value
    head = json.dumps(header).encode()
    p.write_bytes(raw[:8] + struct.pack("<I", len(head)) + head + raw[12 + n:len(raw) - cut])
    try:
        load_checkpoint(p)
    except ValueError:
        pass


def load_spec_or_value_error(path):
    try:
        load_spec(path)
    except ValueError:
        pass


@FUZZ
@given(raw=document({"num_labels": st.just(2), "nodes": json_values}))
@example(raw=b"{}")
@example(raw=b"[]")
@example(raw=b"[" * 100000)
def test_load_spec_arbitrary_document_raises_value_error(tmp_path, raw):
    p = tmp_path / "spec.json"
    p.write_bytes(raw)
    load_spec_or_value_error(p)


def mutate(doc, data):
    """doc with one value replaced by a drawn JSON value, or one object key
    renamed, at a place reached by drawing a key or index per level."""
    if isinstance(doc, (dict, list)) and doc and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(list(doc) if isinstance(doc, dict) else range(len(doc))))
        if isinstance(doc, dict) and data.draw(st.booleans()):
            doc[data.draw(st.text("01x", max_size=3))] = doc.pop(key)
        else:
            doc[key] = mutate(doc[key], data)
        return doc
    return data.draw(json_values | st.integers(-2, 9) | st.integers(-2, 9).map(float))


@settings(FUZZ, max_examples=200)
@given(labels=st.sampled_from([1, 2, 3]), data=st.data())
def test_load_spec_mutated_document_raises_value_error(tmp_path, labels, data):
    p = tmp_path / "spec.json"
    save_spec(sample_spec(labels, seed=labels), p)
    p.write_text(json.dumps(mutate(json.loads(p.read_text()), data)))
    load_spec_or_value_error(p)


@pytest.fixture(scope="module")
def streams_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    assert main(["gen-pgem", "--labels", "2", "--streams", "4", "--horizon", "50",
                 "--seed", "3", "--out", str(out)]) == 0
    return out / "streams.csv"


CONFIG_VALUES = {
    "labels": st.integers(), "streams": st.integers(), "horizon": st.floats(),
    "seed": st.integers(), "out": st.text(max_size=4), "data": st.text(max_size=4),
    "mode": st.sampled_from(["stream", "time"]), "fraction": st.floats(),
}


# flags fix the output directory and the amount of work; the file sets the rest
@pytest.mark.parametrize("argv", [
    ["split", "--data", None],
    ["gen-pgem", "--labels", "2", "--streams", "2", "--horizon", "5"],
], ids=["split", "gen-pgem"])
@settings(FUZZ, max_examples=200)
@given(data=st.data())
def test_cli_config_file_exits_0_or_1(tmp_path, streams_csv, argv, data):
    argv = [str(streams_csv) if a is None else a for a in argv]
    keys = SUBCOMMANDS[argv[0]][2]
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(data.draw(document({k: CONFIG_VALUES[k] for k in keys})))
    assert main(argv + ["--out", str(tmp_path / "o"), "--config", str(cfg)]) in (0, 1)


@FUZZ
@given(raw=document({"subcommand": st.just("split"), "config": json_values}))
def test_cli_arbitrary_manifest_exits_1(tmp_path, raw):
    manifest = tmp_path / "manifest.json"
    manifest.write_bytes(raw)
    assert main(["split", "--from-manifest", str(manifest)]) == 1


@FUZZ
@given(config=st.fixed_dictionaries({}, optional={
    k: CONFIG_VALUES[k] | json_values for k in ("data", "mode", "fraction", "seed")}))
def test_cli_manifest_values_exit_0_or_1(tmp_path, streams_csv, config):
    cfg = {"data": str(streams_csv), "mode": "stream", "fraction": 0.5, "seed": 1}
    cfg.update(config, out=str(tmp_path / "o"))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"subcommand": "split", "config": cfg}))
    assert main(["split", "--from-manifest", str(manifest)]) in (0, 1)
