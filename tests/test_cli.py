import dataclasses
import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import convrec.optim
from convrec import autodiff as ad
from convrec import cli
from convrec.corpus import RecExample, Split
from convrec.errors import NumericError
from convrec.recommender import Model, TrainConfig, evaluate, rank_order, score_all
from convrec.retrieval import conversation_tokens, retrieve
from convrec.synthetic import popularity_corpus, toy_instance, write_inputs

from conftest import masked_positions, reference_users
from oracles import masked_softmax_scores


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
    for name in ("manifest.json", "corpus.jsonl", "entities.tsv", "kg.tsv",
                 "word_graph.tsv", "interaction.tsv", "stopwords.txt", "bm25.idx"):
        assert (bundle / name).exists(), name
    manifest = json.loads((bundle / "manifest.json").read_text("utf-8"))
    assert manifest["format"] == 1
    assert manifest["has_word_graph"] and manifest["has_index"]
    assert manifest["splits"]["train"] == 4


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


@pytest.mark.parametrize("name", ["corpus.jsonl", "entities.tsv", "kg.tsv", "word_graph.tsv",
                                  "interaction.tsv", "stopwords.txt", "bm25.idx",
                                  "manifest.json"])
def test_interrupted_ingest_keeps_the_previous_file(runner, tmp_path, monkeypatch, name):
    paths = write_inputs(toy_instance(), tmp_path / "inputs")
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    (bundle / name).write_bytes(b"previous bytes\n")

    def failing_open(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        return _HalfWriter(fh) if Path(file).name == name + ".tmp" else fh

    monkeypatch.setattr(convrec.optim, "open", failing_open, raising=False)
    result = runner.invoke(cli.main, ingest_args(paths, bundle))
    assert isinstance(result.exception, OSError)
    assert (bundle / name).read_bytes() == b"previous bytes\n"
    assert not list(bundle.glob("*.tmp"))


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
    examples = [e for e in model.artifacts.examples if e.split.value == "valid"]
    report = evaluate(model, examples, [1, 5], split_label="valid")
    assert result.output == report.to_text()


def test_eval_nan_checkpoint_exits_4(runner, tmp_path):
    # NaN weights load (the checkpoint is well formed), but eval must not report them as perfect
    paths = write_inputs(popularity_corpus(seed=0, n_users=20, n_items=12, n_conversations=60),
                         tmp_path / "inputs")
    bundle = tmp_path / "bundle"
    assert run(runner, ingest_args(paths, bundle)).exit_code == 0
    out = tmp_path / "run"
    result = run(runner, ["train", "--bundle", str(bundle), "--out", str(out),
                          "--dim", "8", "--epochs", "0", "--seed", "0"])
    assert result.exit_code == 0, result.output
    model = cli.load_model(str(bundle), str(out / "model.ckpt"))
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


def test_eval_missing_checkpoint_exits_3(runner, pop_bundle, tmp_path):
    result = runner.invoke(cli.main, ["eval", "--bundle", str(pop_bundle),
                                      "--checkpoint", str(tmp_path / "none.ckpt")])
    assert result.exit_code == 3


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
    ({"has_index": 1}, "'has_index' is not a JSON bool"),
    ({"format": True}, "'format' is not a JSON int"),
    ({"stats": []}, "'stats' is not a JSON dict"),
    ({"format": 2}, "unsupported bundle format 2"),
    ({"format": DROP}, "keys"),
    ({"extra": 1}, "keys"),
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
    conv = next(c for c in artifacts.conversations if c.conversation_id == "c2")
    expected = retrieve(artifacts.index, conversation_tokens(conv), 3, exclude_id="c2")
    lines = result.output.strip().split("\n")
    assert lines[-1].startswith("entities=")
    got_ranked = [tuple(line.split("\t")) for line in lines[:-1]]
    assert got_ranked == [(d, repr(s)) for d, s in expected.ranked]
    tokens = [artifacts.vocab.entities.tokens[e] for e in expected.entities]
    assert lines[-1] == "entities=" + ",".join(tokens)
    assert "c2" not in [d for d, _ in got_ranked]


def test_retrieve_unknown_conversation_exits_2(runner, toy_bundle):
    result = runner.invoke(cli.main, ["retrieve", "--bundle", str(toy_bundle),
                                      "--conversation", "zzz"])
    assert result.exit_code == 2
    assert "unknown conversation" in result.stderr


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
        example = RecExample(
            conversation_id="(stdin)", user_id="(stdin)", split=Split.TEST,
            turn_index=len(context), context_entities=tuple(context),
            context_words=(), gold_items=frozenset(),
        )
        contexts = model.contexts([example])
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
