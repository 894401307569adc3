"""The package calls the benchmark makes, pinned, so a refactor that breaks them fails here.

``bench/workloads.py`` counts each split's examples from the generator's
authoring records, and ``bench/train_worker.py`` passes ``split_view`` of
``Artifacts.examples``, by a split's name, to ``len`` and ``evaluate``.
The benchmark also looks functions up by name (``module.function``, some
with a ``.label`` suffix); every such name must stay a function of its
``convrec`` module.
"""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from convrec import cli, corpus, encoders
from convrec.recommender import Model, TrainConfig, build_artifacts, evaluate
from convrec.synthetic import popularity_corpus, toy_instance, write_inputs

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
import tracer  # noqa: E402
import train_worker  # noqa: E402
import workloads  # noqa: E402

# names the benchmark reports that no function carries any more: removed from
# the package, they await the next change to the benchmark
KNOWN_ABSENT = {"autodiff.neighbor_sum", "retrieval.load_index",
                "graphs.load_interaction_graph"}


@pytest.mark.parametrize("seed", [0, 201])
def test_bench_counts_equal_derive_examples_and_evaluate_runs(seed):
    data = popularity_corpus(seed, n_users=20, n_items=15, n_conversations=80)
    examples, pairs = workloads._expected_examples(data)
    artifacts = build_artifacts(data.corpus, data.vocab, data.kg, data.word_graph)
    derived = corpus.derive_examples(data.corpus, data.vocab.entities)
    model = Model(artifacts, TrainConfig(dim=8, seed=0))
    for split in ("train", "valid", "test"):
        view = corpus.split_view(derived, split)
        assert len(view) == examples[split]
        assert int(view.gold.sizes.sum()) == pairs[split]
        assert len(corpus.split_view(artifacts.examples, split)) == examples[split]
        report = evaluate(model, view, workloads.KS, split_label=split)
        assert (report.n_examples, report.n_pairs) == (examples[split], pairs[split])


def bench_constant(filename: str, name: str):
    """The literal value of a module-level constant of a bench file, read without
    importing it: importing ``run.py`` would set BLAS variables in this process."""
    tree = ast.parse((BENCH / filename).read_text("utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == [name]:
            value = node.value
            if isinstance(value, ast.Call) and value.func.id == "frozenset":
                value = value.args[0]
            return ast.literal_eval(value)
    raise AssertionError(f"no constant {name} in bench/{filename}")


def bench_function_names() -> set[str]:
    """Every ``module.function`` the benchmark looks up, labels dropped."""
    spans = (list(bench_constant("run.py", "LAYER_TIMES"))
             + list(bench_constant("run.py", "LAYER_CALLS"))
             + [name for name, _ in bench_constant("run.py", "REPORT_ONLY_TIMES")]
             + list(bench_constant("tracer.py", "INNER")))
    sampled = [f"recommender.{name}" for name in bench_constant("train_worker.py",
                                                                 "SAMPLED_CALLS")]
    return {".".join(name.split(".")[:2]) for name in spans + sampled}


def test_every_function_the_bench_names_exists():
    names = bench_function_names()
    assert KNOWN_ABSENT <= names
    for name in sorted(names):
        module, function = name.split(".")
        fn = getattr(importlib.import_module(f"convrec.{module}"), function, None)
        if name in KNOWN_ABSENT:
            assert fn is None, f"{name} exists again: drop it from KNOWN_ABSENT"
        else:
            assert inspect.isfunction(fn), f"the bench names convrec.{name}"


def test_bench_calls_load_save_and_reload_a_model(tmp_path):
    raw = {key: str(path) for key, path in write_inputs(toy_instance(), tmp_path).items()}
    bundle = tmp_path / "bundle"
    train_worker.ingest(cli, raw, bundle)
    artifacts = cli.load_bundle(bundle)
    model = Model(artifacts, TrainConfig(dim=8, seed=0))
    ckpt = tmp_path / "run" / "model.ckpt"
    ckpt.parent.mkdir()
    cli.save_model_checkpoint(model, None, ckpt)
    loaded = cli.load_model(str(bundle), str(ckpt))
    assert loaded.store.names() == model.store.names()
    for name, t in model.store.items():
        np.testing.assert_array_equal(loaded.store[name].values, t.values)


@pytest.fixture(scope="module")
def catalog_bundle(tmp_path_factory):
    """The seed-201 catalog bundle (2,404 entities), which train-catalog and
    recommend-session share, and its inputs."""
    root = tmp_path_factory.mktemp("catalog")
    inputs = workloads.generate(workloads.WORKLOADS["train-catalog"], 201, root / "raw")
    bundle = root / "bundle"
    train_worker.ingest(cli, {key: str(path) for key, path in inputs.paths.items()}, bundle)
    return bundle, inputs


def saved_and_loaded(bundle, config, ckpt):
    """``cli.load_model`` of a freshly drawn model's checkpoint at ``ckpt``."""
    ckpt.parent.mkdir()
    cli.save_model_checkpoint(Model(cli.load_bundle(bundle), config), None, ckpt)
    return cli.load_model(str(bundle), str(ckpt))


def test_a_recommend_session_checkpoint_stores_a_fresh_encoder_pass(catalog_bundle, tmp_path):
    # the seed-201 recommend-session inputs: the catalog KG, 2,404 entities, dim 64
    bundle, inputs = catalog_bundle
    config = TrainConfig(**workloads.WORKLOADS["recommend-session"].config, seed=201)
    loaded = saved_and_loaded(bundle, config, tmp_path / "run" / "model.ckpt")
    items, words = loaded.stored_outputs
    assert items.shape == (inputs.sizes["kg_nodes"], 64) and words is not None
    for stored, fresh in zip(loaded.stored_outputs, loaded.encoder_outputs()):
        assert stored.values.tobytes() == fresh.values.tobytes()


def test_a_train_catalog_eval_from_stored_outputs_equals_a_recomputed_one(catalog_bundle,
                                                                          tmp_path):
    # eval scores a loaded model against its stored outputs; an encoder pass over
    # the rows each split reads, recomputed from the parameters, gives the same report
    bundle, inputs = catalog_bundle
    config = TrainConfig(**{**workloads.WORKLOADS["train-catalog"].config, "epochs": 0},
                         seed=201)
    loaded = saved_and_loaded(bundle, config, tmp_path / "run" / "model.ckpt")
    stored = loaded.stored_outputs
    for split in ("train", "valid", "test"):
        examples = corpus.split_view(loaded.artifacts.examples, split)
        assert len(examples) == inputs.examples[split] > 0
        loaded.stored_outputs = stored
        served = evaluate(loaded, examples, split_label=split)
        loaded.stored_outputs = None
        recomputed = evaluate(loaded, examples, split_label=split)
        assert served.to_json() == recomputed.to_json()


def test_bench_labels_one_kg_and_one_ig_rgcn_call_per_encoder_pass(monkeypatch):
    # the per-layer metrics encoders.rgcn_forward.kg and .ig split one encoder
    # pass's R-GCN calls by the bench's own label
    data = popularity_corpus(0, n_users=20, n_items=15, n_conversations=80)
    model = Model(build_artifacts(data.corpus, data.vocab, data.kg, data.word_graph),
                  TrainConfig(dim=8, seed=0))
    forward, labels = encoders.rgcn_forward, []

    def labelled(*args, **kwargs):
        labels.append(tracer.Tracer._graph_label(args, kwargs))
        return forward(*args, **kwargs)

    monkeypatch.setattr(encoders, "rgcn_forward", labelled)
    model.encoder_outputs()
    assert sorted(labels) == ["ig", "kg"]
