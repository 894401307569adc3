"""The package calls the benchmark makes, pinned, so a refactor that breaks them fails here.

``bench/workloads.py`` counts each split's examples from the generator's
authoring records, and ``bench/train_worker.py`` passes ``split_view`` of
``Artifacts.examples``, by a split's name, to ``len`` and ``evaluate``.
"""

import sys
from pathlib import Path

import pytest

from convrec import corpus
from convrec.recommender import Model, TrainConfig, build_artifacts, evaluate
from convrec.synthetic import popularity_corpus

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402


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
