import dataclasses
import hashlib
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import convrec.corpus
import convrec.encoders
import convrec.graphs
import convrec.optim
import convrec.recommender
from convrec import autodiff as ad
from convrec import cli
from convrec.corpus import (
    Examples,
    Split,
    default_stopwords,
    load_corpus,
    load_entity_vocab,
    split_view,
)
from convrec.errors import ConvRecError, NumericError, ParseError, StateError
from convrec.graphs import load_item_kg, load_word_graph
from convrec.recommender import (
    Model,
    TrainConfig,
    build_artifacts,
    evaluate,
    rank_order,
    score_all,
)
from convrec.retrieval import retrieve
from convrec.synthetic import popularity_corpus, toy_instance, write_inputs

from conftest import masked_positions, mutations, reference_users
from oracles import RecExample, corpus_records, masked_softmax_scores


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


def run(runner, args, **kwargs):
    return runner.invoke(cli.main, args, catch_exceptions=False, **kwargs)


def ingest_args(paths, out_dir):
    args = ["ingest", "--corpus", str(paths["corpus"]), "--entities", str(paths["entities"]),
            "--kg", str(paths["kg"]), "--out", str(out_dir)]
    if "word_graph" in paths:
        args += ["--word-graph", str(paths["word_graph"])]
    return args


@pytest.fixture(scope="module")
def toy_bundle(tmp_path_factory, runner):
    root = tmp_path_factory.mktemp("toy_cli")
    paths = write_inputs(toy_instance(), root / "inputs")
    bundle = root / "bundle"
    result = run(runner, ingest_args(paths, bundle))
    assert result.exit_code == 0, result.output
    return bundle


@pytest.fixture(scope="module")
def pop_bundle(tmp_path_factory, runner):
    """Small planted-popularity corpus with all three splits."""
    root = tmp_path_factory.mktemp("pop_cli")
    data = popularity_corpus(seed=11, n_users=15, n_items=20, n_conversations=150)
    paths = write_inputs(data, root / "inputs")
    bundle = root / "bundle"
    result = run(runner, ingest_args(paths, bundle))
    assert result.exit_code == 0, result.output
    return bundle


TRAIN_FLAGS = ["--dim", "8", "--epochs", "1", "--batch-size", "16", "--seed", "0"]


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory, runner, pop_bundle):
    out = tmp_path_factory.mktemp("run")
    result = run(runner, ["train", "--bundle", str(pop_bundle), "--out", str(out),
                          "--k", "1,5,20"] + TRAIN_FLAGS)
    assert result.exit_code == 0, result.output
    return out


# ---------------------------------------------------------------------------
# ingest


def test_ingest_writes_bundle_and_stats(runner, tmp_path):
    paths = write_inputs(toy_instance(), tmp_path / "inputs")
    bundle = tmp_path / "bundle"
    result = run(runner, ingest_args(paths, bundle))
    assert result.exit_code == 0
    assert "users=3" in result.output
    assert "conversations=4" in result.output
    assert "utterances=12" in result.output
    assert "items=6" in result.output
    # the interaction graph and the retrieval index are rebuilt at load, not stored
    assert sorted(p.name for p in bundle.iterdir()) == ["arrays.bin", "manifest.json"]
    manifest = json.loads((bundle / "manifest.json").read_text("utf-8"))
    assert manifest["format"] == 3
    assert manifest["has_word_graph"] and "has_index" not in manifest
    assert manifest["splits"]["train"] == 4
    raw = (bundle / "arrays.bin").read_bytes()
    assert manifest["arrays_sha256"] == hashlib.sha256(raw).hexdigest()
    assert raw[:4] == b"CVRB"


def test_two_ingests_write_byte_identical_bundles(runner, tmp_path):
    paths = write_inputs(toy_instance(), tmp_path / "inputs")
    bundles = [tmp_path / "a", tmp_path / "b"]
    for bundle in bundles:
        assert run(runner, ingest_args(paths, bundle)).exit_code == 0
    for name in ("arrays.bin", "manifest.json"):
        assert (bundles[0] / name).read_bytes() == (bundles[1] / name).read_bytes()


def older_bundle(bundle, version):
    """A format-1 or format-2 bundle's files, as an older ingest left them."""
    bundle.mkdir(parents=True, exist_ok=True)
    for name in cli._OLD_FORMAT_FILES[version]:
        if not (bundle / name).exists():
            (bundle / name).write_bytes(b"older bundle\n")
    (bundle / "manifest.json").write_text(json.dumps(
        {"format": version, "has_word_graph": True, "stats": {}, "splits": {}}), "utf-8")


def test_ingest_over_a_format_2_bundle_leaves_only_format_3_files(runner, tmp_path):
    paths = write_inputs(toy_instance(), tmp_path / "inputs")
    bundle = tmp_path / "bundle"
    older_bundle(bundle, 2)
    assert run(runner, ingest_args(paths, bundle)).exit_code == 0
    assert sorted(p.name for p in bundle.iterdir()) == ["arrays.bin", "manifest.json"]
    assert len(cli.load_bundle(bundle).corpus) == 4


def test_ingest_over_an_older_bundle_keeps_its_own_inputs(runner, tmp_path):
    # the raw inputs sit in the bundle directory under format-1 names: only the rest goes
    bundle = tmp_path / "bundle"
    paths = write_inputs(toy_instance(), bundle)
    paths["stopwords"] = bundle / "stopwords.txt"
    paths["stopwords"].write_text("the\n", "utf-8")
    raw = {path: path.read_bytes() for path in paths.values()}
    older_bundle(bundle, 1)
    args = ingest_args(paths, bundle) + ["--stopwords", str(paths["stopwords"])]
    assert run(runner, args).exit_code == 0
    assert sorted(p.name for p in bundle.iterdir()) == sorted(
        ["arrays.bin", "manifest.json"] + [path.name for path in paths.values()])
    assert {path: path.read_bytes() for path in paths.values()} == raw


class _HalfWriter:
    """A file that takes half of its first write, then fails as a full disk would."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError("no space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


# a file of a format-2 bundle, and the write of ingest whose failure must leave
# it as it was: a format-2 file goes only once the manifest that replaces it is in
_INTERRUPTED_WRITES = {"arrays.bin": "arrays.bin", "manifest.json": "manifest.json",
                       **dict.fromkeys(cli._OLD_FORMAT_FILES[2], "manifest.json")}


@pytest.mark.parametrize("name", sorted(_INTERRUPTED_WRITES))
def test_interrupted_ingest_keeps_the_previous_file(runner, tmp_path, monkeypatch, name):
    paths = write_inputs(toy_instance(), tmp_path / "inputs")
    bundle = tmp_path / "bundle"
    older_bundle(bundle, 2)
    (bundle / name).write_bytes(b"previous bytes\n")
    before = {p.name: p.read_bytes() for p in bundle.iterdir()}
    failing = _INTERRUPTED_WRITES[name] + ".tmp"

    def failing_open(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        return _HalfWriter(fh) if Path(file).name == failing else fh

    monkeypatch.setattr(convrec.optim, "open", failing_open, raising=False)
    result = runner.invoke(cli.main, ingest_args(paths, bundle))
    assert_one_error_line(
        result, f"cannot write {bundle / _INTERRUPTED_WRITES[name]}: no space left on device")
    assert (bundle / name).read_bytes() == b"previous bytes\n"
    after = {p.name: p.read_bytes() for p in bundle.iterdir()}
    # only a completed arrays.bin may be new; every file of the previous bundle stays
    assert {k: v for k, v in after.items() if k in before} == before
    assert set(after) - set(before) <= {"arrays.bin"}
    assert not list(bundle.glob("*.tmp"))


# a training conversation whose one item mention is neutral: its user has no edge
EDGELESS_USER = {"conversation_id": "c9", "user_id": "u_neutral", "split": "train",
                 "utterances": [{"speaker": "seeker", "text": "have you seen item five",
                                 "mentions": [{"entity": "I5", "sentiment": "neutral"}]}]}


@pytest.mark.parametrize("case", ["toy", "no-train", "edge-less-user"])
def test_loaded_bundle_equals_the_built_artifacts(runner, tmp_path, case):
    paths = write_inputs(toy_instance(), tmp_path / "inputs")
    records = [json.loads(line) for line in paths["corpus"].read_text("utf-8").splitlines()]
    if case == "no-train":  # every conversation moves to the test split
        records = [{**record, "split": "test"} for record in records]
    if case == "edge-less-user":
        records.append(EDGELESS_USER)
    paths["corpus"].write_text("".join(json.dumps(r) + "\n" for r in records), "utf-8")
    bundle = tmp_path / "bundle"
    assert run(runner, ingest_args(paths, bundle)).exit_code == 0
    for stale in ("bm25.idx", "interaction.tsv"):  # format-1 files: nothing reads them
        (bundle / stale).write_bytes(b"stale\n")
    loaded = cli.load_bundle(bundle)
    entities = load_entity_vocab(paths["entities"])
    corpus, vocab = load_corpus(paths["corpus"], entities, stopwords=default_stopwords())
    built = build_artifacts(corpus, vocab, load_item_kg(paths["kg"], entities),
                            load_word_graph(paths["word_graph"], vocab.words))
    assert loaded.interaction.users == built.interaction.users
    assert np.array_equal(loaded.interaction.items, built.interaction.items)
    assert np.array_equal(loaded.interaction.edges, built.interaction.edges)
    assert np.array_equal(loaded.item_ids, built.item_ids)
    shapes = [{name: t.values.shape for name, t in Model(a, TrainConfig(dim=8)).store.items()}
              for a in (loaded, built)]
    assert shapes[0] == shapes[1]
    if case == "edge-less-user":
        assert loaded.interaction.users[-1] == "u_neutral"
    if loaded.index is None or built.index is None:
        assert loaded.index is None and built.index is None
        assert not loaded.interaction.items.size and not built.interaction.items.size
        return
    assert loaded.interaction.items.size > 0
    assert loaded.index.doc_ids == built.index.doc_ids
    for name in ("doc_lens", "terms", "tfs"):
        assert np.array_equal(getattr(loaded.index, name), getattr(built.index, name)), name
    for name in ("docs", "doc_entities"):
        want, got = getattr(built.index, name), getattr(loaded.index, name)
        assert np.array_equal(got.rows, want.rows) and np.array_equal(got.offsets, want.offsets)


def test_ingest_missing_kg_exits_2(runner, tmp_path):
    paths = write_inputs(toy_instance(), tmp_path / "inputs")
    args = ingest_args(paths, tmp_path / "bundle")
    args[args.index("--kg") + 1] = str(tmp_path / "no_such_kg.tsv")
    result = runner.invoke(cli.main, args)
    assert result.exit_code == 2
    assert "error:" in result.stderr


def test_ingest_invalid_corpus_exits_2(runner, tmp_path):
    paths = write_inputs(toy_instance(), tmp_path / "inputs")
    Path(paths["corpus"]).write_text('{"not": "a corpus"}\n', "utf-8")
    result = runner.invoke(cli.main, ingest_args(paths, tmp_path / "bundle"))
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# train


def test_train_outputs(trained_run):
    assert (trained_run / "model.ckpt").exists()
    sidecar = json.loads((trained_run / "model.ckpt.config.json").read_text("utf-8"))
    assert sidecar["dim"] == 8 and sidecar["epochs"] == 1
    losses = (trained_run / "train_losses.txt").read_text("utf-8").strip().split(",")
    assert len(losses) == 1
    float(losses[0])
    assert (trained_run / "epoch_000.metrics.txt").exists()
    assert (trained_run / "epoch_000.metrics.json").exists()


def test_train_is_byte_identical_across_runs(runner, pop_bundle, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        result = run(runner, ["train", "--bundle", str(pop_bundle), "--out", str(out),
                              "--k", "1,5"] + TRAIN_FLAGS)
        assert result.exit_code == 0
        outs.append(out)
    a, b = outs
    assert (a / "model.ckpt").read_bytes() == (b / "model.ckpt").read_bytes()
    assert (a / "train_losses.txt").read_bytes() == (b / "train_losses.txt").read_bytes()
    assert (a / "epoch_000.metrics.json").read_bytes() == (b / "epoch_000.metrics.json").read_bytes()


def test_train_reports_best_epoch(runner, pop_bundle, tmp_path):
    result = run(runner, ["train", "--bundle", str(pop_bundle), "--out", str(tmp_path / "o"),
                          "--k", "1,5", "--dim", "8", "--epochs", "2",
                          "--batch-size", "32", "--seed", "1"])
    assert result.exit_code == 0
    assert "best_epoch=" in result.output
    assert "guard_events=" in result.output
    assert "recall@5=" in result.output


def test_config_file_layering(runner, pop_bundle, tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("# comment line\ndim = 8\nepochs = 3\nlr = 0.005\n", "utf-8")
    out = tmp_path / "run"
    result = run(runner, ["train", "--bundle", str(pop_bundle), "--out", str(out),
                          "--config", str(cfg), "--epochs", "1", "--k", "1,5",
                          "--batch-size", "16"])
    assert result.exit_code == 0
    sidecar = json.loads((out / "model.ckpt.config.json").read_text("utf-8"))
    assert sidecar["dim"] == 8        # from file
    assert sidecar["lr"] == 0.005     # from file
    assert sidecar["epochs"] == 1     # flag wins over file


def test_config_file_errors(runner, pop_bundle, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("dim 8\n", "utf-8")
    result = runner.invoke(cli.main, ["train", "--bundle", str(pop_bundle),
                                      "--out", str(tmp_path / "x"), "--config", str(bad)])
    assert result.exit_code == 2
    bad.write_text("notakey=1\n", "utf-8")
    result = runner.invoke(cli.main, ["train", "--bundle", str(pop_bundle),
                                      "--out", str(tmp_path / "x"), "--config", str(bad)])
    assert result.exit_code == 2
    assert "notakey" in result.stderr


def test_train_missing_bundle_exits_3(runner, tmp_path):
    result = runner.invoke(cli.main, ["train", "--bundle", str(tmp_path / "nope"),
                                      "--out", str(tmp_path / "out")] + TRAIN_FLAGS)
    assert result.exit_code == 3
    assert "manifest" in result.stderr


def test_bad_without_flag_exits_2(runner, pop_bundle, tmp_path):
    result = runner.invoke(cli.main, ["train", "--bundle", str(pop_bundle),
                                      "--out", str(tmp_path / "out"),
                                      "--without", "ig,bogus"] + TRAIN_FLAGS)
    assert result.exit_code == 2
    assert "bogus" in result.stderr


def test_numeric_failure_exits_4(runner, pop_bundle, tmp_path, monkeypatch):
    def explode(*args, **kwargs):
        raise NumericError("non-finite loss nan at epoch 0, batch 0")

    monkeypatch.setattr(cli, "run_train", explode)
    result = runner.invoke(cli.main, ["train", "--bundle", str(pop_bundle),
                                      "--out", str(tmp_path / "out")] + TRAIN_FLAGS)
    assert result.exit_code == 4
    assert "non-finite" in result.stderr


# ---------------------------------------------------------------------------
# eval


def test_eval_untrained_is_near_uniform(runner, pop_bundle, tmp_path):
    out = tmp_path / "run0"
    result = run(runner, ["train", "--bundle", str(pop_bundle), "--out", str(out),
                          "--dim", "8", "--epochs", "0", "--seed", "3", "--k", "1,5"])
    assert result.exit_code == 0
    report_path = tmp_path / "report.txt"
    result = run(runner, ["eval", "--bundle", str(pop_bundle),
                          "--checkpoint", str(out / "model.ckpt"),
                          "--split", "test", "--k", "1,20", "--out", str(report_path)])
    assert result.exit_code == 0, result.output
    payload = json.loads(report_path.with_suffix(".txt.json").read_text("utf-8"))
    # 20 items: an untrained model ranks the single gold near-uniformly
    assert payload["recall"]["1"] <= 4 / 20
    assert payload["recall"]["20"] == 1.0
    assert report_path.read_text("utf-8") == result.output


def test_eval_matches_module_evaluate(runner, pop_bundle, trained_run):
    result = run(runner, ["eval", "--bundle", str(pop_bundle),
                          "--checkpoint", str(trained_run / "model.ckpt"),
                          "--split", "valid", "--k", "1,5"])
    assert result.exit_code == 0
    model = cli.load_model(str(pop_bundle), str(trained_run / "model.ckpt"))
    examples = split_view(model.artifacts.examples, "valid")
    report = evaluate(model, examples, [1, 5], split_label="valid")
    assert result.output == report.to_text()


def test_eval_nan_checkpoint_exits_4(runner, tmp_path):
    # NaN weights load (the checkpoint is well formed), but eval must not report them as perfect
    paths = write_inputs(popularity_corpus(seed=0, n_users=20, n_items=12, n_conversations=60),
                         tmp_path / "inputs")
    bundle = tmp_path / "bundle"
    assert run(runner, ingest_args(paths, bundle)).exit_code == 0
    out = tmp_path / "run"
    out.mkdir()
    # a loaded model's parameters are read-only views of its checkpoint: the NaN
    # weights go into a model drawn over the bundle, which is then saved
    model = Model(cli.load_bundle(bundle), TrainConfig(dim=8, epochs=0, seed=0))
    model.store["kg.emb"].values[...] = float("nan")
    cli.save_model_checkpoint(model, None, out / "model.ckpt")
    report_path = tmp_path / "report.txt"
    result = runner.invoke(cli.main, ["eval", "--bundle", str(bundle),
                                      "--checkpoint", str(out / "model.ckpt"),
                                      "--split", "test", "--out", str(report_path)])
    assert result.exit_code == 4
    assert result.stdout == ""
    assert "NaN" in result.stderr
    assert not report_path.exists()


def test_interrupted_sidecar_write_keeps_the_previous_file(trained_run, pop_bundle, tmp_path):
    for name in ("model.ckpt", "model.ckpt.config.json"):
        shutil.copy(trained_run / name, tmp_path / name)
    model = cli.load_model(str(pop_bundle), str(tmp_path / "model.ckpt"))
    before = (tmp_path / "model.ckpt.config.json").read_bytes()
    model.config = dataclasses.replace(model.config, seed=object())  # json.dumps raises
    with pytest.raises(TypeError):
        cli.save_model_checkpoint(model, None, tmp_path / "model.ckpt")
    assert (tmp_path / "model.ckpt.config.json").read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt", "model.ckpt.config.json"]


@pytest.mark.parametrize("name", ["report.txt", "report.txt.json"])
def test_interrupted_eval_report_keeps_the_previous_file(runner, toy_bundle, toy_checkpoint,
                                                         tmp_path, monkeypatch, name):
    (tmp_path / name).write_bytes(b"previous bytes\n")

    def failing_open(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        return _HalfWriter(fh) if Path(file).name == name + ".tmp" else fh

    monkeypatch.setattr(convrec.optim, "open", failing_open, raising=False)
    result = runner.invoke(cli.main, ["eval", "--bundle", str(toy_bundle), "--checkpoint",
                                      str(toy_checkpoint), "--split", "train",
                                      "--out", str(tmp_path / "report.txt")])
    assert_one_error_line(result, f"cannot write {tmp_path / name}: no space left on device")
    assert (tmp_path / name).read_bytes() == b"previous bytes\n"
    assert not list(tmp_path.glob("*.tmp"))


def test_eval_missing_checkpoint_exits_3(runner, toy_bundle, toy_checkpoint, tmp_path):
    # the sidecar is read first: a valid one beside an absent model.ckpt
    ckpt = tmp_path / toy_checkpoint.name
    shutil.copy(cli._config_sidecar(toy_checkpoint), cli._config_sidecar(ckpt))
    result = runner.invoke(cli.main, ["eval", "--bundle", str(toy_bundle),
                                      "--checkpoint", str(ckpt)])
    assert result.exit_code == 3
    assert f"checkpoint not found: {ckpt}" in result.stderr


def test_eval_missing_checkpoint_sidecar_exits_3(runner, pop_bundle, tmp_path):
    result = runner.invoke(cli.main, ["eval", "--bundle", str(pop_bundle),
                                      "--checkpoint", str(tmp_path / "none.ckpt")])
    assert result.exit_code == 3
    assert f"checkpoint config not found: {tmp_path / 'none.ckpt.config.json'}" in result.stderr


def test_eval_empty_split_exits_2(runner, toy_bundle, tmp_path):
    # the toy corpus is train-only; train then ask for the test split
    out = tmp_path / "run"
    result = run(runner, ["train", "--bundle", str(toy_bundle), "--out", str(out),
                          "--k", "1,3"] + TRAIN_FLAGS)
    assert result.exit_code == 0
    result = runner.invoke(cli.main, ["eval", "--bundle", str(toy_bundle),
                                      "--checkpoint", str(out / "model.ckpt"),
                                      "--split", "test"])
    assert result.exit_code == 2
    assert "empty example set" in result.stderr


@pytest.mark.parametrize("extra", [1, 8])
def test_eval_checkpoint_with_trailing_bytes_exits_2(runner, toy_bundle, toy_checkpoint, tmp_path,
                                                     extra):
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(toy_checkpoint.read_bytes() + b"\x00" * extra)
    shutil.copy(toy_checkpoint.with_name("model.ckpt.config.json"), tmp_path)
    args = ["eval", "--bundle", str(toy_bundle), "--checkpoint", str(ckpt), "--split", "train"]
    result = runner.invoke(cli.main, args)
    assert result.exit_code == 2
    assert "sha256 does not match" in result.stderr
    # with a sidecar digest that matches the longer file, the reader's own check refuses it
    redigest(ckpt)
    result = runner.invoke(cli.main, args)
    assert result.exit_code == 2
    assert "trailing bytes" in result.stderr


def test_eval_version_1_checkpoint_exits_2(runner, toy_bundle, toy_checkpoint, tmp_path):
    # parameter a = [0.5] in the version-1 layout: a count, then per parameter
    # its name, rank, dimensions and values, then an optimizer flag byte
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(b"CVRK" + struct.pack("<IIH1sBId", 1, 1, 1, b"a", 1, 1, 0.5) + b"\x00")
    shutil.copy(toy_checkpoint.with_name("model.ckpt.config.json"), tmp_path)
    redigest(ckpt)  # the digest matches: the reader itself refuses the version
    result = runner.invoke(cli.main, ["eval", "--bundle", str(toy_bundle),
                                      "--checkpoint", str(ckpt), "--split", "train"])
    assert result.exit_code == 2
    assert result.stderr == "error: unsupported checkpoint version 1\n"


def checkpoint_arrays(ckpt: Path) -> dict[str, np.ndarray]:
    """Copies of every array a checkpoint holds, parameters and stored outputs."""
    return {name: a.copy() for name, a in convrec.optim.read_checkpoint(ckpt.read_bytes()).items()}


@pytest.mark.parametrize("command", ["eval", "recommend"])
def test_a_version_2_checkpoint_exits_2(runner, toy_bundle, toy_checkpoint, tmp_path, command):
    # the parameters alone, in the version-2 layout: refused by its version, not converted
    ckpt = tmp_path / "model.ckpt"
    params = {name: a for name, a in checkpoint_arrays(toy_checkpoint).items()
              if name not in cli._OUTPUT_NAMES}
    convrec.optim.save_arrays(ckpt, b"CVRK", 2, params)
    shutil.copy(toy_checkpoint.with_name("model.ckpt.config.json"), tmp_path)
    redigest(ckpt)  # the digest matches: the reader itself refuses the version
    result = runner.invoke(cli.main, [command, "--bundle", str(toy_bundle),
                                      "--checkpoint", str(ckpt)], input="I0\n")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == "error: unsupported checkpoint version 2\n"


def drop(name):
    def edit(arrays):
        del arrays[name]
    return edit


def put(name, value):
    def edit(arrays):
        arrays[name] = value(arrays)
    return edit


# each edit gives the stored encoder outputs another name, dtype or shape
OUTPUT_EDITS = {
    "no item matrix": (drop("outputs.items"), "missing ['outputs.items']"),
    "no word matrix": (drop("outputs.words"), "missing ['outputs.words']"),
    "another array": (put("outputs.users", lambda a: np.zeros((2, 8))),
                      "unexpected ['outputs.users']"),
    "item rows short": (put("outputs.items", lambda a: a["outputs.items"][:-1]),
                        "array 'outputs.items': checkpoint shape"),
    "items flat": (put("outputs.items", lambda a: a["outputs.items"].reshape(-1)),
                   "array 'outputs.items': checkpoint shape"),
    "word rows long": (put("outputs.words", lambda a: np.concatenate(
        [a["outputs.words"], a["outputs.words"]])), "array 'outputs.words': checkpoint shape"),
    "word width": (put("outputs.words", lambda a: a["outputs.words"][:, :4]),
                   "array 'outputs.words': checkpoint shape"),
    "items as <i8": (put("outputs.items", lambda a: a["outputs.items"].astype("<i8")),
                     "array 'outputs.items' has dtype <i8, not <f8"),
}


@pytest.mark.parametrize("edit", list(OUTPUT_EDITS))
def test_stored_outputs_of_another_name_dtype_or_shape_exit_2(runner, toy_bundle, toy_checkpoint,
                                                              tmp_path, edit):
    ckpt = tmp_path / "model.ckpt"
    arrays = checkpoint_arrays(toy_checkpoint)
    change, message = OUTPUT_EDITS[edit]
    change(arrays)
    convrec.optim.save_arrays(ckpt, b"CVRK", 3, arrays)
    shutil.copy(toy_checkpoint.with_name("model.ckpt.config.json"), tmp_path)
    redigest(ckpt)
    result = runner.invoke(cli.main, ["recommend", "--bundle", str(toy_bundle),
                                      "--checkpoint", str(ckpt)], input="I0\n")
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and message in result.stderr


def test_a_model_without_a_word_encoder_stores_no_word_matrix(runner, toy_bundle, tmp_path):
    result = run(runner, ["train", "--bundle", str(toy_bundle), "--out", str(tmp_path),
                          "--without", "cn"] + TRAIN_FLAGS)
    assert result.exit_code == 0, result.output
    ckpt = tmp_path / "model.ckpt"
    assert "outputs.words" not in convrec.optim.read_checkpoint(ckpt.read_bytes())
    items, words = cli.load_model(str(toy_bundle), str(ckpt)).stored_outputs
    assert words is None and items.shape == (len(cli.load_bundle(toy_bundle).vocab.entities), 8)
    result = run(runner, ["recommend", "--bundle", str(toy_bundle), "--checkpoint", str(ckpt)],
                 input="I0\n")
    assert result.exit_code == 0, result.output


# every TrainConfig field, with the values it may validly take
CONFIG_VALUES = {
    **dict.fromkeys(("dim", "layers", "batch_size", "top_n"), st.integers(1, 4096)),
    "epochs": st.integers(0, 4096),
    "seed": st.integers(0, 2**63),
    "lr": st.floats(0, 1e6),
    **dict.fromkeys(("clip", "z"), st.floats(1e-9, 1e6)),
    **dict.fromkeys(("without_ig", "without_rt", "without_db", "without_cn",
                     "candidate_masking"), st.booleans()),
    "gate_mode": st.sampled_from(["elementwise", "scalar"]),
    "normalization": st.sampled_from(["constant", "in_degree"]),
}


def test_config_values_cover_every_config_field():
    assert set(CONFIG_VALUES) == {f.name for f in dataclasses.fields(TrainConfig)}


@pytest.mark.parametrize("key", list(CONFIG_VALUES))
@settings(max_examples=4, deadline=None, derandomize=True)
@given(data=st.data())
def test_any_edit_of_a_sidecar_config_value_exits_2(runner, scratch_run, key, data):
    # once, such edits loaded as another model: a top_n, z, without_ig,
    # without_rt or candidate_masking edit evaluated to another report
    bundle, ckpt = scratch_run
    sidecar = cli._config_sidecar(ckpt)
    before = sidecar.read_bytes()
    values = json.loads(before)
    value = data.draw(CONFIG_VALUES[key].filter(lambda v: v != values[key]))
    values[key] = value
    edited = {k: v for k, v in values.items() if k in CONFIG_VALUES}
    TrainConfig(**edited).validate()  # a valid config, only not the saved one
    sidecar.write_text(json.dumps(values), "utf-8")
    try:
        result = runner.invoke(cli.main, ["eval", "--bundle", str(bundle),
                                          "--checkpoint", str(ckpt), "--split", "train"])
    finally:
        sidecar.write_bytes(before)
    assert result.exit_code == 2, result.output
    assert result.stderr == (f"error: {sidecar}: the config differs from the one the checkpoint "
                             f"was saved with: its sha256 differs from its record\n")


def test_a_sidecar_without_a_config_value_exits_2(runner, toy_bundle, toy_checkpoint, tmp_path):
    # a dropped key would load its default: the record refuses that too
    ckpt = tmp_path / "model.ckpt"
    shutil.copy(toy_checkpoint, ckpt)
    values = json.loads(toy_checkpoint.with_name("model.ckpt.config.json").read_text("utf-8"))
    for key in ("top_n", "config_sha256"):
        changed = {k: v for k, v in values.items() if k != key}
        (tmp_path / "model.ckpt.config.json").write_text(json.dumps(changed), "utf-8")
        result = runner.invoke(cli.main, ["eval", "--bundle", str(toy_bundle),
                                          "--checkpoint", str(ckpt), "--split", "train"])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ") and (
            "config differs" if key == "top_n" else "no config sha256") in result.stderr


def test_train_refuses_a_z_that_is_not_finite(runner, toy_bundle, tmp_path):
    for z in ("nan", "inf"):
        result = run(runner, ["train", "--bundle", str(toy_bundle), "--out", str(tmp_path),
                              "--z", z] + TRAIN_FLAGS)
        assert result.exit_code == 2, result.output
        assert result.stderr == "error: z must be finite and positive\n"


@pytest.mark.parametrize("key", ["lr", "clip", "z"])
def test_eval_sidecar_with_a_nan_setting_exits_2(runner, toy_bundle, toy_checkpoint, tmp_path,
                                                 key):
    ckpt = tmp_path / "model.ckpt"
    shutil.copy(toy_checkpoint, ckpt)
    values = json.loads(toy_checkpoint.with_name("model.ckpt.config.json").read_text("utf-8"))
    values[key] = math.nan
    (tmp_path / "model.ckpt.config.json").write_text(json.dumps(values), "utf-8")
    assert f'"{key}": NaN' in (tmp_path / "model.ckpt.config.json").read_text("utf-8")
    result = runner.invoke(cli.main, ["eval", "--bundle", str(toy_bundle),
                                      "--checkpoint", str(ckpt), "--split", "train"])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: ") and "must be finite" in result.stderr


def redigest(ckpt: Path) -> None:
    """Rewrite the sidecar's checkpoint sha256 to that of the bytes ``ckpt`` holds now."""
    sidecar = ckpt.with_name(ckpt.name + ".config.json")
    values = json.loads(sidecar.read_text("utf-8"))
    values["checkpoint_sha256"] = hashlib.sha256(ckpt.read_bytes()).hexdigest()
    sidecar.write_text(json.dumps(values), "utf-8")


def test_train_sidecar_records_the_checkpoint_sha256(trained_run, pop_bundle):
    sidecar = json.loads((trained_run / "model.ckpt.config.json").read_text("utf-8"))
    want = hashlib.sha256((trained_run / "model.ckpt").read_bytes()).hexdigest()
    assert sidecar["checkpoint_sha256"] == want
    manifest = json.loads((pop_bundle / "manifest.json").read_text("utf-8"))
    assert sidecar["bundle_arrays_sha256"] == manifest["arrays_sha256"]


def test_eval_refuses_a_checkpoint_trained_on_another_bundle(runner, pop_bundle, trained_run,
                                                              tmp_path):
    # the same inputs but one training mention flipped from like to dislike: a
    # bundle of the same shapes, against which the checkpoint once loaded and
    # evaluated to a different report
    inputs = tmp_path / "inputs"
    shutil.copytree(pop_bundle.parent / "inputs", inputs)
    lines = (inputs / "corpus.jsonl").read_text("utf-8").splitlines()
    at = next(i for i, line in enumerate(lines) if '"train"' in line and '"like"' in line)
    lines[at] = lines[at].replace('"sentiment": "like"', '"sentiment": "dislike"', 1)
    (inputs / "corpus.jsonl").write_text("\n".join(lines) + "\n", "utf-8")
    other = tmp_path / "bundle"
    paths = {key: inputs / f"{key}.{'jsonl' if key == 'corpus' else 'tsv'}"
             for key in ("corpus", "entities", "kg", "word_graph")}
    assert run(runner, ingest_args(paths, other)).exit_code == 0

    ckpt = trained_run / "model.ckpt"
    result = runner.invoke(cli.main, ["eval", "--bundle", str(other), "--checkpoint", str(ckpt),
                                      "--split", "test"])
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert result.stderr == (f"error: {cli._config_sidecar(ckpt)}: the checkpoint was trained "
                             f"on another bundle: the sha256 of {other / 'arrays.bin'} differs "
                             f"from its record\n")
    result = runner.invoke(cli.main, ["eval", "--bundle", str(pop_bundle),
                                      "--checkpoint", str(ckpt), "--split", "test"])
    assert result.exit_code == 0, result.output


def test_eval_sidecar_without_a_bundle_digest_exits_2(runner, toy_bundle, toy_checkpoint,
                                                      tmp_path):
    ckpt = tmp_path / "model.ckpt"
    shutil.copy(toy_checkpoint, ckpt)
    values = json.loads(toy_checkpoint.with_name("model.ckpt.config.json").read_text("utf-8"))
    del values["bundle_arrays_sha256"]
    (tmp_path / "model.ckpt.config.json").write_text(json.dumps(values), "utf-8")
    result = runner.invoke(cli.main, ["eval", "--bundle", str(toy_bundle),
                                      "--checkpoint", str(ckpt), "--split", "train"])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ") and "no bundle sha256" in result.stderr


def test_a_model_over_no_bundle_writes_no_checkpoint(tmp_path):
    data = toy_instance()
    model = Model(build_artifacts(data.corpus, data.vocab, data.kg, data.word_graph),
                  TrainConfig(dim=8, seed=0))
    with pytest.raises(StateError, match="come from no bundle"):
        cli.save_model_checkpoint(model, None, tmp_path / "model.ckpt")
    assert list(tmp_path.iterdir()) == []


def test_eval_checkpoint_with_a_changed_weight_byte_exits_2(runner, toy_bundle, toy_checkpoint,
                                                            tmp_path):
    raw = bytearray(toy_checkpoint.read_bytes())
    raw[-8] ^= 0x01  # the low mantissa bit of the last weight: still a well-formed checkpoint
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(bytes(raw))
    shutil.copy(toy_checkpoint.with_name("model.ckpt.config.json"), tmp_path)
    params = convrec.optim.read_checkpoint(bytes(raw))  # it parses: only the digest tells it apart
    assert set(params) == set(convrec.optim.read_checkpoint(toy_checkpoint.read_bytes()))
    loads = []
    original = cli.load_checkpoint
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "load_checkpoint", lambda *a: loads.append(a) or original(*a))
        result = runner.invoke(cli.main, ["eval", "--bundle", str(toy_bundle),
                                          "--checkpoint", str(ckpt), "--split", "train"])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ") and "sha256 does not match" in result.stderr
    assert loads == []  # refused before load_checkpoint


def test_eval_sidecar_without_a_digest_exits_2(runner, toy_bundle, toy_checkpoint, tmp_path):
    ckpt = tmp_path / "model.ckpt"
    shutil.copy(toy_checkpoint, ckpt)
    values = json.loads(toy_checkpoint.with_name("model.ckpt.config.json").read_text("utf-8"))
    del values["checkpoint_sha256"]
    (tmp_path / "model.ckpt.config.json").write_text(json.dumps(values), "utf-8")
    result = runner.invoke(cli.main, ["eval", "--bundle", str(toy_bundle),
                                      "--checkpoint", str(ckpt), "--split", "train"])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ") and "no checkpoint sha256" in result.stderr


@pytest.mark.parametrize("sidecar, message", [
    ({"dim": 8, "bogus": 1}, "unknown config key 'bogus'"),
    ({"dim": "x"}, "config key 'dim' is not a JSON int"),
    ({"dim": True}, "config key 'dim' is not a JSON int"),
    ({"without_ig": 1}, "config key 'without_ig' is not a JSON bool"),
    ([8, 1], "expected a JSON object"),
])
def test_eval_corrupt_sidecar_exits_2(runner, toy_bundle, toy_checkpoint, tmp_path,
                                      sidecar, message):
    ckpt = tmp_path / "model.ckpt"
    shutil.copy(toy_checkpoint, ckpt)
    (tmp_path / "model.ckpt.config.json").write_text(json.dumps(sidecar), "utf-8")
    result = runner.invoke(cli.main, ["eval", "--bundle", str(toy_bundle),
                                      "--checkpoint", str(ckpt), "--split", "train"])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ") and message in result.stderr


def test_eval_manifest_not_an_object_exits_2(runner, toy_bundle, toy_checkpoint, tmp_path):
    bundle = tmp_path / "bundle"
    shutil.copytree(toy_bundle, bundle)
    (bundle / "manifest.json").write_text("[]\n", "utf-8")
    result = runner.invoke(cli.main, ["eval", "--bundle", str(bundle),
                                      "--checkpoint", str(toy_checkpoint), "--split", "train"])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ") and "expected a JSON object" in result.stderr


DROP = object()  # a manifest change that deletes the key


@pytest.mark.parametrize("change, message", [
    ({"has_word_graph": "no"}, "'has_word_graph' is not a JSON bool"),
    ({"has_index": True}, "keys"),
    ({"format": True}, "'format' is not a JSON int"),
    ({"stats": []}, "'stats' is not a JSON dict"),
    ({"format": 1, "has_index": True}, "unsupported bundle format 1"),
    ({"format": DROP}, "keys"),
    ({"extra": 1}, "keys"),
    ({"format": 2}, "unsupported bundle format 2"),
    ({"arrays_sha256": 0}, "'arrays_sha256' is not a JSON str"),
    ({"arrays_sha256": "0" * 64}, "sha256 does not match the manifest's"),
    ({"has_word_graph": False}, "has_word_graph"),
])
def test_eval_bad_manifest_exits_2(runner, toy_bundle, toy_checkpoint, tmp_path, change, message):
    bundle = tmp_path / "bundle"
    shutil.copytree(toy_bundle, bundle)
    manifest = json.loads((bundle / "manifest.json").read_text("utf-8"))
    for key, value in change.items():
        if value is DROP:
            del manifest[key]
        else:
            manifest[key] = value
    (bundle / "manifest.json").write_text(json.dumps(manifest), "utf-8")
    result = runner.invoke(cli.main, ["eval", "--bundle", str(bundle),
                                      "--checkpoint", str(toy_checkpoint), "--split", "train"])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ") and message in result.stderr


# ---------------------------------------------------------------------------
# ablate


def test_ablate_no_flags_matches_eval(runner, pop_bundle, trained_run, tmp_path):
    out = tmp_path / "ablation"
    result = run(runner, ["ablate", "--bundle", str(pop_bundle), "--split", "test",
                          "--k", "1,5", "--out", str(out)] + TRAIN_FLAGS)
    assert result.exit_code == 0
    lines = result.output.strip().split("\n")
    assert lines[0].split() == ["variant", "R@1", "R@5", "MRR@1", "MRR@5"]
    assert len(lines) == 2 and lines[1].startswith("full")

    eval_out = tmp_path / "eval.txt"
    result = run(runner, ["eval", "--bundle", str(pop_bundle),
                          "--checkpoint", str(trained_run / "model.ckpt"),
                          "--split", "test", "--k", "1,5", "--out", str(eval_out)])
    assert result.exit_code == 0
    # same config, same seed: retraining inside ablate reproduces the checkpoint
    ablate_json = json.loads((out / "full.metrics.json").read_text("utf-8"))
    eval_json = json.loads(eval_out.with_suffix(".txt.json").read_text("utf-8"))
    assert ablate_json == eval_json


def test_ablate_variant_files(runner, pop_bundle, tmp_path):
    out = tmp_path / "ablation"
    result = run(runner, ["ablate", "--bundle", str(pop_bundle), "--split", "valid",
                          "--k", "1", "--without", "ig,rt", "--combined",
                          "--out", str(out)] + TRAIN_FLAGS)
    assert result.exit_code == 0
    assert (out / "full.metrics.json").exists()
    assert (out / "wo_ig+rt.metrics.json").exists()
    assert "wo_ig+rt" in result.output


# ---------------------------------------------------------------------------
# retrieve


def test_retrieve_matches_module(runner, toy_bundle):
    result = run(runner, ["retrieve", "--bundle", str(toy_bundle),
                          "--conversation", "c2", "--n", "3"])
    assert result.exit_code == 0
    artifacts = cli.load_bundle(toy_bundle)
    conv = next(c for c in corpus_records(artifacts.corpus) if c.conversation_id == "c2")
    query = [m.entity for u in conv.utterances for m in u.mentions]
    expected = retrieve(artifacts.index, query, 3, exclude_id="c2")
    lines = result.output.strip().split("\n")
    assert lines[-1].startswith("entities=")
    got_ranked = [tuple(line.split("\t")) for line in lines[:-1]]
    assert got_ranked == [(d, repr(s)) for d, s in expected.ranked]
    tokens = [artifacts.vocab.entities.tokens[e] for e in expected.entities]
    assert lines[-1] == "entities=" + ",".join(tokens)
    assert "c2" not in [d for d, _ in got_ranked]


def test_bundle_without_its_index_file_exits_3(runner, tmp_path):
    # the index is built from the training conversations: a bundle with none has no index
    paths = write_inputs(toy_instance(), tmp_path / "inputs")
    lines = paths["corpus"].read_text("utf-8").splitlines()
    paths["corpus"].write_text("".join(
        json.dumps({**json.loads(line), "split": "test"}) + "\n" for line in lines), "utf-8")
    bundle = tmp_path / "bundle"
    assert run(runner, ingest_args(paths, bundle)).exit_code == 0
    assert cli.load_bundle(bundle).index is None
    for conversation in ("c0", "c2"):
        result = runner.invoke(cli.main, ["retrieve", "--bundle", str(bundle),
                                          "--conversation", conversation])
        assert result.exit_code == 3
        assert result.stderr == "error: bundle has no retrieval index\n"


def test_retrieve_unknown_conversation_exits_2(runner, toy_bundle):
    result = runner.invoke(cli.main, ["retrieve", "--bundle", str(toy_bundle),
                                      "--conversation", "zzz"])
    assert result.exit_code == 2
    assert "unknown conversation" in result.stderr


def test_retrieve_and_recommend_derive_no_examples(runner, toy_bundle, toy_checkpoint,
                                                    monkeypatch):
    def derive_examples(*args):
        raise AssertionError("examples derived")

    monkeypatch.setattr(convrec.recommender, "derive_examples", derive_examples)
    result = run(runner, ["retrieve", "--bundle", str(toy_bundle), "--conversation", "c2"])
    assert result.exit_code == 0, result.output
    result = run(runner, ["recommend", "--bundle", str(toy_bundle),
                          "--checkpoint", str(toy_checkpoint)], input="I0\n")
    assert result.exit_code == 0, result.output
    assert not result.stderr


# ---------------------------------------------------------------------------
# recommend


@pytest.fixture(scope="module")
def toy_checkpoint(tmp_path_factory, runner, toy_bundle):
    out = tmp_path_factory.mktemp("toy_run")
    result = run(runner, ["train", "--bundle", str(toy_bundle), "--out", str(out),
                          "--k", "1,3", "--dim", "8", "--epochs", "2",
                          "--batch-size", "8", "--seed", "0"])
    assert result.exit_code == 0, result.output
    return out / "model.ckpt"


def test_recommend_session(runner, toy_bundle, toy_checkpoint):
    result = run(runner, ["recommend", "--bundle", str(toy_bundle),
                          "--checkpoint", str(toy_checkpoint), "--k", "6"],
                 input="I0 I3\nI1\n")
    assert result.exit_code == 0
    blocks = result.stdout.strip("\n").split("\n\n")
    assert len(blocks) == 2
    first = [line.split("\t") for line in blocks[0].split("\n")]
    assert [row[0] for row in first] == [str(i) for i in range(1, 7)]
    # mentioned items are masked: probability exactly zero, ranked last
    by_token = {row[1]: float(row[3]) for row in first}
    assert by_token["I0"] == 0.0 and by_token["I3"] == 0.0
    assert first[0][1] not in ("I0", "I3")
    probs = [float(row[3]) for row in first]
    assert probs == sorted(probs, reverse=True)
    # second block accumulates I1 into the context, masking it too
    second = [line.split("\t") for line in blocks[1].split("\n")]
    by_token2 = {row[1]: float(row[3]) for row in second}
    assert by_token2["I1"] == 0.0


def test_recommend_matches_scoring_oracle(runner, toy_bundle, toy_checkpoint):
    result = run(runner, ["recommend", "--bundle", str(toy_bundle),
                          "--checkpoint", str(toy_checkpoint), "--k", "4"],
                 input="I0 I3\nI1\nI5\n")
    assert result.exit_code == 0
    printed = [[line.split("\t") for line in block.split("\n")]
               for block in result.stdout.strip("\n").split("\n\n")]

    model = cli.load_model(str(toy_bundle), str(toy_checkpoint))
    entities = model.artifacts.vocab.entities
    item_ids = model.artifacts.item_ids
    item_matrix, word_matrix = model.encoder_outputs()
    context: list[int] = []
    expected = []
    for tokens in (["I0", "I3"], ["I1"], ["I5"]):
        context += [entities.resolve(t) for t in tokens]
        example = RecExample(
            conversation_id="(stdin)", user_id="(stdin)", split=Split.TEST,
            turn_index=len(context), context_entities=tuple(context),
            context_words=(), gold_items=frozenset(),
        )
        user = reference_users(model, [example], item_matrix, word_matrix)[0]
        probs = masked_softmax_scores(item_matrix.values, item_ids, user,
                                      masked_positions(item_ids, example))
        top = sorted(range(len(item_ids)), key=lambda i: (-probs[i], i))[:4]
        expected.append([[entities.tokens[item_ids[i]], f"{probs[i]:.6f}"] for i in top])
    assert [[[row[1], row[3]] for row in block] for block in printed] == expected


def test_recommend_session_records_no_tape_and_prints_the_recording_route(
        runner, toy_bundle, toy_checkpoint, monkeypatch):
    scored = []

    def spy(users, item_rows, masked):
        scored.append((users, item_rows, score_all(users, item_rows, masked)))
        return scored[-1][2]

    monkeypatch.setattr(cli, "score_all", spy)
    turns = (["I0", "I3"], ["I1"], ["I5", "I2"], ["I4"])
    result = run(runner, ["recommend", "--bundle", str(toy_bundle),
                          "--checkpoint", str(toy_checkpoint), "--k", "4"],
                 input="".join(" ".join(t) + "\n" for t in turns))
    assert result.exit_code == 0
    assert len(scored) == len(turns)
    for tensors in scored:
        assert all(t._parents == () and t._backward_fn is None for t in tensors)

    model = cli.load_model(str(toy_bundle), str(toy_checkpoint))
    entities = model.artifacts.vocab.entities
    item_ids = model.artifacts.item_ids
    item_matrix, word_matrix = model.encoder_outputs()
    item_rows = ad.lookup(item_matrix, item_ids)
    context: list[int] = []
    expected = ""
    for tokens, (_, _, free) in zip(turns, scored):
        context += [entities.resolve(t) for t in tokens]
        contexts = model.contexts(Examples.query(context))
        probs = score_all(model.users(contexts, item_matrix, word_matrix).vector,
                          item_rows, contexts.masked)
        assert probs._backward_fn is not None
        assert np.array_equal(probs.values, free.values)
        p = probs.values[0]
        top = rank_order(p, 4)
        expected += "".join(
            f"{rank}\t{entities.tokens[e]}\t{entities.names[e]}\t{q:.6f}\n"
            for rank, (e, q) in enumerate(zip(item_ids[top].tolist(), p[top].tolist()), start=1)
        ) + "\n"
    assert result.stdout == expected


def test_stored_outputs_are_a_fresh_encoder_pass(toy_bundle, toy_checkpoint):
    # the bytes an encoder pass over the loaded parameters computes, as read-only
    # views of the one read of the checkpoint that the parameters are views of too
    model = cli.load_model(str(toy_bundle), str(toy_checkpoint))
    assert model.stored_outputs[1] is not None
    base = model.store["att.ent.w"].values.base
    for stored, fresh in zip(model.stored_outputs, model.encoder_outputs(), strict=True):
        assert stored.values.dtype == fresh.values.dtype == np.float64
        assert stored.shape == fresh.shape
        assert stored.values.tobytes() == fresh.values.tobytes()
        assert stored.values.base is base and not stored.values.flags.writeable
        assert not stored.requires_grad


def test_recommend_runs_no_encoder(runner, toy_bundle, toy_checkpoint, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an encoder ran")

    monkeypatch.setattr(Model, "encoder_outputs", refuse)
    monkeypatch.setattr(convrec.graphs.TypedGraph, "layer_operator", refuse)
    monkeypatch.setattr(convrec.graphs, "normalize_adjacency", refuse)
    result = run(runner, ["recommend", "--bundle", str(toy_bundle),
                          "--checkpoint", str(toy_checkpoint)], input="I0 I3\nI1\n")
    assert result.exit_code == 0, result.output
    assert result.stdout.count("\n\n") == 2


def test_load_model_draws_nothing(runner, toy_bundle, toy_checkpoint, monkeypatch):
    commands = [(["eval", "--bundle", str(toy_bundle), "--checkpoint", str(toy_checkpoint),
                  "--split", "train"], None),
                (["recommend", "--bundle", str(toy_bundle), "--checkpoint", str(toy_checkpoint)],
                 "I0 I3\nI1\n")]
    want = [run(runner, args, input=stdin).stdout for args, stdin in commands]

    def refuse(*args, **kwargs):
        raise AssertionError("a parameter was drawn")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(convrec.encoders, "uniform_init", refuse)
    for (args, stdin), stdout in zip(commands, want):
        result = run(runner, args, input=stdin)
        assert result.exit_code == 0, result.output
        assert result.stdout == stdout


def test_load_model_holds_the_checkpoint_once(pop_bundle, tmp_path):
    ckpt = tmp_path / "model.ckpt"
    model = Model(cli.load_bundle(pop_bundle), TrainConfig(dim=128, seed=0))
    cli.save_model_checkpoint(model, None, ckpt)
    del model
    cli.load_model(str(pop_bundle), str(ckpt))  # first-call costs (imports, caches) paid here
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        cli.load_bundle(pop_bundle)
        bundle_peak = tracemalloc.get_traced_memory()[1] - start
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        model = cli.load_model(str(pop_bundle), str(ckpt))
        load_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    size = ckpt.stat().st_size
    assert size > 2 ** 20
    assert load_peak < bundle_peak + 1.2 * size, (load_peak, bundle_peak, size)
    # every parameter and stored output is a read-only view of the one read
    arrays = [*(t.values for _, t in model.store.items()),
              *(t.values for t in model.stored_outputs if t is not None)]
    assert len({id(a.base) for a in arrays}) == 1
    assert isinstance(arrays[0].base.base, bytes) and len(arrays[0].base.base) == size
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[:1] = 0.0


def test_a_recommend_process_imports_no_scipy(runner, toy_bundle, toy_checkpoint):
    # nor numpy.random (the model draws nothing) nor numpy.ma (np.unique imports it)
    probe = ("import runpy, sys\n"
             "try:\n"
             "    runpy.run_module('convrec.cli', run_name='__main__')\n"
             "finally:\n"
             "    sys.stderr.write('modules=' + ','.join(sorted(\n"
             "        m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
             "        or m.split('.')[:2] in (['numpy', 'random'], ['numpy', 'ma']))))\n")
    args = ["recommend", "--bundle", str(toy_bundle), "--checkpoint", str(toy_checkpoint)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parent.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", probe, *args], input="I0 I3\nI1\n", env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "modules="
    assert proc.stdout == run(runner, args, input="I0 I3\nI1\n").stdout


def test_eval_runs_no_encoder(runner, toy_bundle, toy_checkpoint, monkeypatch):
    # a loaded model scores against the checkpoint's stored encoder outputs
    # (the toy bundle's examples are all in the train split)
    args = ["eval", "--bundle", str(toy_bundle), "--checkpoint", str(toy_checkpoint),
            "--split", "train"]
    want = run(runner, args)
    assert want.exit_code == 0, want.output

    def refuse(*args, **kwargs):
        raise AssertionError("an encoder ran")

    monkeypatch.setattr(Model, "encoder_outputs", refuse)
    monkeypatch.setattr(convrec.graphs.TypedGraph, "layer_operator", refuse)
    monkeypatch.setattr(convrec.graphs, "normalize_adjacency", refuse)
    result = run(runner, args)
    assert result.exit_code == 0, result.output
    assert result.stdout == want.stdout


def test_an_eval_process_imports_no_scipy(runner, toy_bundle, toy_checkpoint):
    # nor numpy.random nor numpy.ma, as a recommend process
    probe = ("import runpy, sys\n"
             "try:\n"
             "    runpy.run_module('convrec.cli', run_name='__main__')\n"
             "finally:\n"
             "    sys.stderr.write('modules=' + ','.join(sorted(\n"
             "        m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
             "        or m.split('.')[:2] in (['numpy', 'random'], ['numpy', 'ma']))))\n")
    args = ["eval", "--bundle", str(toy_bundle), "--checkpoint", str(toy_checkpoint),
            "--split", "train"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parent.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", probe, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "modules="
    assert proc.stdout == run(runner, args).stdout


def test_recommend_warns_on_unknown_entity(runner, toy_bundle, toy_checkpoint):
    result = run(runner, ["recommend", "--bundle", str(toy_bundle),
                          "--checkpoint", str(toy_checkpoint), "--k", "2"],
                 input="I0, mystery_token\n")
    assert result.exit_code == 0
    assert "warning:" in result.stderr
    assert "mystery_token" in result.stderr
    lines = [line for line in result.stdout.strip().split("\n") if line]
    assert len(lines) == 2  # recommendations still printed


def test_recommend_names_resolve(runner, toy_bundle, toy_checkpoint):
    # unique display names work as references too
    result = run(runner, ["recommend", "--bundle", str(toy_bundle),
                          "--checkpoint", str(toy_checkpoint), "--k", "1"],
                 input="item zero\n")
    assert result.exit_code == 0
    assert result.stderr == ""  # the name resolved; no warning
    line = result.stdout.strip().split("\n")[0]
    assert line.split("\t")[1] != "I0"  # I0 entered the context, so it is masked


@pytest.mark.parametrize("k", ["0", "-3"])
def test_recommend_k_below_one_exits_2(runner, toy_bundle, toy_checkpoint, k):
    result = run(runner, ["recommend", "--bundle", str(toy_bundle),
                          "--checkpoint", str(toy_checkpoint), "--k", k],
                 input="I0\n")
    assert result.exit_code == 2
    assert result.stdout == ""


def test_recommend_k_above_catalog_prints_every_item(runner, toy_bundle, toy_checkpoint):
    n_items = len(cli.load_model(str(toy_bundle), str(toy_checkpoint)).artifacts.item_ids)
    result = run(runner, ["recommend", "--bundle", str(toy_bundle),
                          "--checkpoint", str(toy_checkpoint), "--k", str(n_items + 7)],
                 input="I0\n")
    assert result.exit_code == 0
    assert result.stdout.endswith("\n\n")
    ranked = [line.split("\t") for line in result.stdout.strip("\n").split("\n")]
    assert [row[0] for row in ranked] == [str(i) for i in range(1, n_items + 1)]
    assert len({row[1] for row in ranked}) == n_items


def test_recommend_writes_each_answer_once(runner, toy_bundle, toy_checkpoint, monkeypatch):
    # one write (and one flush) per turn wakes a waiting client once, not k + 1 times
    stdout_writes = []
    echo = cli.click.echo

    def counting_echo(message=None, file=None, nl=True, err=False, color=None):
        if not err:
            stdout_writes.append(message)
        echo(message, file=file, nl=nl, err=err, color=color)

    monkeypatch.setattr(cli.click, "echo", counting_echo)
    result = run(runner, ["recommend", "--bundle", str(toy_bundle),
                          "--checkpoint", str(toy_checkpoint), "--k", "3"],
                 input="I0\nI1\nI3\n")
    assert result.exit_code == 0
    assert len(stdout_writes) == 3
    assert "".join(m + "\n" for m in stdout_writes) == result.stdout
    assert [len(block.split("\n")) for block in result.stdout.strip("\n").split("\n\n")] == [3] * 3


def test_recommend_nan_scores_exit_4(runner, toy_bundle, toy_checkpoint, monkeypatch):
    # a model that scores NaN (say, NaN weights in the checkpoint) fails, never prints a short list
    score_all = cli.score_all

    def nan_scores(*args, **kwargs):
        probs = score_all(*args, **kwargs)
        probs.values[...] = float("nan")
        return probs

    monkeypatch.setattr(cli, "score_all", nan_scores)
    result = run(runner, ["recommend", "--bundle", str(toy_bundle),
                          "--checkpoint", str(toy_checkpoint), "--k", "2"],
                 input="I0\n")
    assert result.exit_code == 4
    assert result.stdout == ""
    assert "NaN" in result.stderr


# ---------------------------------------------------------------------------
# damaged and unreadable inputs

BUNDLE_FILES = ("manifest.json", "arrays.bin")


@pytest.fixture(scope="module")
def scratch_run(tmp_path_factory, toy_bundle, toy_checkpoint):
    """A copy of the toy bundle and of its checkpoint and sidecar, for tests that damage files."""
    root = tmp_path_factory.mktemp("scratch_run")
    shutil.copytree(toy_bundle, root / "bundle")
    for path in (toy_checkpoint, cli._config_sidecar(toy_checkpoint)):
        shutil.copy(path, root / path.name)
    return root / "bundle", root / toy_checkpoint.name


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from([*BUNDLE_FILES, "model.ckpt.config.json"]), st.data())
def test_a_mutated_text_file_loads_or_raises_a_convrec_error(scratch_run, name, data):
    # bundle files through load_bundle, the sidecar through load_model; the
    # manifest's digest refuses every container whose bytes changed
    bundle, ckpt = scratch_run
    path = bundle / name if name in BUNDLE_FILES else ckpt.with_name(name)
    raw = path.read_bytes()
    mutated = data.draw(mutations(raw))
    path.write_bytes(mutated)
    try:
        if path.parent == bundle:
            cli.load_bundle(bundle)
        else:
            cli.load_model(str(bundle), str(ckpt))
        assert name != "arrays.bin" or mutated == raw, "a changed container loaded"
    except ConvRecError:
        pass
    finally:
        path.write_bytes(raw)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_a_mutated_checkpoint_under_its_own_digest_loads_or_raises_a_convrec_error(scratch_run,
                                                                                  data):
    # header and arrays alike, the stored outputs among them; the sidecar's
    # digest follows the bytes, so only the checkpoint's own checks refuse them
    bundle, ckpt = scratch_run
    sidecar = cli._config_sidecar(ckpt)
    raw, before = ckpt.read_bytes(), sidecar.read_bytes()
    ckpt.write_bytes(data.draw(mutations(raw)))
    redigest(ckpt)
    try:
        model = cli.load_model(str(bundle), str(ckpt))
        items, words = model.stored_outputs
        assert items.shape == (len(model.artifacts.vocab.entities), 8)
        assert words.shape == (model.artifacts.word_graph.n_nodes, 8)
        ad.lookup(items, model.artifacts.item_ids)
    except ConvRecError:
        pass
    finally:
        ckpt.write_bytes(raw)
        sidecar.write_bytes(before)


def with_digest(bundle, raw):
    """Write container bytes ``raw`` into ``bundle`` with the manifest's digest of
    them: a bundle only the container's own checks can refuse."""
    (bundle / "arrays.bin").write_bytes(raw)
    manifest = json.loads((bundle / "manifest.json").read_text("utf-8"))
    manifest["arrays_sha256"] = hashlib.sha256(raw).hexdigest()
    (bundle / "manifest.json").write_text(json.dumps(manifest), "utf-8")


def data_start(raw):
    """Where a container's array bytes begin: after the prefix and the header."""
    return 16 + struct.unpack_from("<Q", raw, 8)[0]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_a_mutated_container_under_its_own_digest_loads_or_raises_a_convrec_error(
        toy_bundle, tmp_path_factory, data):
    # the array bytes change, the header stays: what the checks after read_arrays see
    bundle = tmp_path_factory.mktemp("digested")
    shutil.copytree(toy_bundle, bundle, dirs_exist_ok=True)
    raw = (toy_bundle / "arrays.bin").read_bytes()
    with_digest(bundle, raw[:data_start(raw)] + data.draw(mutations(raw[data_start(raw):])))
    try:
        cli.load_bundle(bundle)
    except ConvRecError:
        pass


def test_the_digest_refuses_a_container_that_would_load_as_another_bundle(toy_bundle,
                                                                          tmp_path):
    bundle = tmp_path / "bundle"
    shutil.copytree(toy_bundle, bundle)
    raw = (bundle / "arrays.bin").read_bytes()
    header = json.loads(raw[16:data_start(raw)])
    at = data_start(raw) + header["corpus.texts.utf8"]["range"][0]
    changed = raw[:at] + bytes([raw[at] ^ 1]) + raw[at + 1:]  # an ASCII letter, another one
    (bundle / "arrays.bin").write_bytes(changed)
    with pytest.raises(ParseError, match="sha256 does not match the manifest's"):
        cli.load_bundle(bundle)
    with_digest(bundle, changed)
    texts = cli.load_bundle(bundle).corpus.texts
    assert texts[0] != cli.load_bundle(toy_bundle).corpus.texts[0]


def set_strings(arrays, name, values):
    encoded = [v.encode("utf-8") if isinstance(v, str) else v for v in values]
    arrays[f"{name}.utf8"] = np.frombuffer(b"".join(encoded), np.uint8)
    arrays[f"{name}.offsets"] = np.cumsum([0] + [len(v) for v in encoded])


def assign(name, at, value):
    def edit(arrays):
        arrays[name][at] = value
    return edit


# each edit breaks one check of the container that the digest cannot see
CONTAINER_EDITS = {
    "ids out of order": (lambda a: set_strings(a, "corpus.conversation_ids",
                                               ["c1", "c0", "c2", "c3"]), "strictly ascending"),
    "repeated id": (lambda a: set_strings(a, "corpus.conversation_ids", ["c0", "c0", "c2", "c3"]),
                    "strictly ascending"),
    "one user short": (lambda a: set_strings(a, "corpus.user_ids", ["u0", "u1", "u2"]),
                       "'corpus.user_ids.offsets' is not 5 offsets"),
    "offsets fall": (assign("corpus.mentions.offsets", 1, 99), "rising from 0"),
    "offsets end early": (assign("corpus.words.offsets", -1, 0), "rising from 0"),
    "entity out of range": (assign("corpus.mentions.rows", 0, 99), "outside [0, "),
    "negative word": (assign("corpus.words.rows", 0, -1), "outside [0, "),
    "split code": (assign("corpus.splits", 0, 3), "codes below 3"),
    "speaker code": (assign("corpus.speakers", 0, 2), "codes below 2"),
    "sentiment code": (assign("corpus.sentiments", 0, 200), "codes below 3"),
    "is_item code": (assign("entities.is_item", 0, 2), "codes below 2"),
    "not UTF-8": (assign("corpus.texts.utf8", 0, 0xFF), "is not UTF-8"),
    "split character": (lambda a: set_strings(a, "kg.relations", [b"\xc3", b"\xa9"]),
                        "splits a character"),
    "repeated token": (lambda a: set_strings(a, "entities.tokens", ["I0"] * (
        len(a["entities.tokens.offsets"]) - 1)), "duplicate entity id"),
    "repeated word": (lambda a: set_strings(a, "words", ["love"] * 3), "holds a word twice"),
    "KG edge out of range": (assign("kg.edges", (0, 2), 99), "edge endpoint out of range"),
    "word pair out of range": (assign("word_graph.pairs", (0, 0), 99), "outside [0, "),
    "no texts": (lambda a: a.pop("corpus.texts.utf8"), "no array 'corpus.texts.utf8'"),
    "unknown array": (lambda a: a.update(extra=np.zeros(1)), "'extra' is not one of"),
    "codes as <i8": (lambda a: a.update({"corpus.splits": a["corpus.splits"].astype("<i8")}),
                     "another dtype or shape"),
    "flat KG": (lambda a: a.update({"kg.edges": a["kg.edges"].reshape(-1)}),
                "another dtype or shape"),
    "no word graph": (lambda a: a.pop("word_graph.pairs"), "has_word_graph"),
}


@pytest.mark.parametrize("edit", list(CONTAINER_EDITS))
def test_a_container_that_breaks_a_check_exits_2(runner, toy_bundle, toy_checkpoint,
                                                   tmp_path, edit):
    bundle = tmp_path / "bundle"
    shutil.copytree(toy_bundle, bundle)
    path = bundle / "arrays.bin"
    arrays = {name: a.copy() for name, a in convrec.optim.read_arrays(
        path.read_bytes(), cli._ARRAYS_MAGIC, cli._BUNDLE_FORMAT, "bundle arrays").items()}
    change, message = CONTAINER_EDITS[edit]
    change(arrays)
    convrec.optim.save_arrays(path, cli._ARRAYS_MAGIC, cli._BUNDLE_FORMAT, arrays)
    with_digest(bundle, path.read_bytes())
    result = runner.invoke(cli.main, ["eval", "--bundle", str(bundle),
                                      "--checkpoint", str(toy_checkpoint), "--split", "train"])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith(f"error: {path}: ") and message in result.stderr


def test_load_bundle_parses_no_text(toy_bundle, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a text parser ran")

    for module, name in [(convrec.corpus, "_parse_record"), (convrec.corpus, "_tsv_rows"),
                         (convrec.graphs, "_tsv_rows"), (convrec.corpus, "load_stopwords"),
                         (cli, "load_stopwords")]:
        monkeypatch.setattr(module, name, refuse)
    artifacts = cli.load_bundle(toy_bundle)
    assert len(artifacts.corpus) == 4 and artifacts.index is not None
    with pytest.raises(AssertionError, match="a text parser ran"):  # the patches do bite
        convrec.corpus.load_entity_vocab(toy_bundle / "manifest.json")


@pytest.mark.parametrize("option", ["--corpus", "--entities", "--kg", "--word-graph",
                                    "--lexicon", "--stopwords"])
def test_ingest_exits_2_for_an_input_that_is_a_directory(runner, tmp_path, option):
    args = ingest_args(write_inputs(toy_instance(), tmp_path / "inputs"), tmp_path / "bundle")
    if option in args:
        args[args.index(option) + 1] = str(tmp_path)
    else:
        args += [option, str(tmp_path)]
    result = run(runner, args)
    assert result.exit_code == 2, result.output
    assert f"cannot be read: {tmp_path}" in result.stderr


def test_train_exits_3_for_a_config_that_is_a_directory(runner, toy_bundle, tmp_path):
    result = run(runner, ["train", "--bundle", str(toy_bundle), "--out", str(tmp_path / "out"),
                          "--config", str(tmp_path)])
    assert result.exit_code == 3, result.output
    assert "config file cannot be read" in result.stderr


@pytest.mark.parametrize("name", sorted(cli._BUNDLE_FILES.values()))
def test_eval_exits_3_for_a_bundle_file_that_is_a_directory(runner, scratch_run, name):
    bundle, ckpt = scratch_run
    path = bundle / name
    aside = path.with_name(name + ".aside")
    path.rename(aside)
    path.mkdir()
    try:
        result = run(runner, ["eval", "--bundle", str(bundle), "--checkpoint", str(ckpt),
                              "--k", "1,3"])
    finally:
        path.rmdir()
        aside.rename(path)
    assert result.exit_code == 3, result.output
    assert f"cannot be read: {path}" in result.stderr


def test_eval_exits_3_for_a_checkpoint_that_is_a_directory_beside_its_sidecar(
        runner, scratch_run, tmp_path):
    bundle, ckpt = scratch_run
    fake = tmp_path / ckpt.name
    fake.mkdir()
    shutil.copy(cli._config_sidecar(ckpt), cli._config_sidecar(fake))
    result = run(runner, ["eval", "--bundle", str(bundle), "--checkpoint", str(fake)])
    assert result.exit_code == 3, result.output
    assert f"checkpoint cannot be read: {fake}" in result.stderr


def assert_one_error_line(result, message):
    """Exit 2 through the error handler: one ``error:`` line, no escaped exception."""
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert message in result.stderr and "Traceback" not in result.output


def not_called(*args, **kwargs):
    raise AssertionError("ran although the output location is unusable")


def test_ingest_out_that_is_a_file_exits_2(runner, tmp_path):
    out = tmp_path / "taken"
    out.write_text("a file\n")
    result = run(runner, ingest_args(write_inputs(toy_instance(), tmp_path / "inputs"), out))
    assert_one_error_line(result, f"cannot make directory {out}: File exists")
    assert out.read_text() == "a file\n"


def test_train_out_that_is_a_file_exits_2_before_training(runner, toy_bundle, tmp_path,
                                                          monkeypatch):
    out = tmp_path / "taken"
    out.write_text("a file\n")
    monkeypatch.setattr(cli, "run_train", not_called)
    result = run(runner, ["train", "--bundle", str(toy_bundle), "--out", str(out)] + TRAIN_FLAGS)
    assert_one_error_line(result, f"cannot make directory {out}: File exists")


def test_ablate_out_that_is_a_file_exits_2_before_training(runner, toy_bundle, tmp_path,
                                                           monkeypatch):
    out = tmp_path / "taken"
    out.write_text("a file\n")
    monkeypatch.setattr(cli, "run_ablate", not_called)
    result = run(runner, ["ablate", "--bundle", str(toy_bundle), "--split", "train",
                          "--without", "rt", "--out", str(out)] + TRAIN_FLAGS)
    assert_one_error_line(result, f"cannot make directory {out}: File exists")


@pytest.mark.parametrize("where, message", [("file/report.txt", "Not a directory"),
                                            ("directory", "Is a directory")],
                         ids=["under-a-file", "a-directory"])
def test_eval_out_that_cannot_take_the_report_exits_2(runner, toy_bundle, toy_checkpoint,
                                                      tmp_path, where, message):
    (tmp_path / "file").write_text("a file\n")
    (tmp_path / "directory").mkdir()
    out = tmp_path / where
    result = run(runner, ["eval", "--bundle", str(toy_bundle), "--checkpoint",
                          str(toy_checkpoint), "--split", "train", "--out", str(out)])
    assert_one_error_line(result, f"cannot write {out}: {message}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["directory", "file"]
    assert not any((tmp_path / "directory").iterdir())
