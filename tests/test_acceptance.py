"""Acceptance suite: eight pass/fail criteria, one test and one verdict line each.

Each test prints "[criterion N] PASS/FAIL: <measurement>"; the collected lines
are echoed in the terminal summary (see conftest). Criteria cover gradient
correctness, message-passing and BM25 equivalence against independent oracles,
metric fidelity, two planted-signal experiments, determinism, and totality of
every degenerate pipeline.
"""

import itertools
import time
from dataclasses import replace

import numpy as np
from scipy import stats

from convrec import autodiff as ad
from convrec.corpus import Sentiment, Speaker, Split, split_view
from convrec.encoders import (
    gcn_forward,
    init_gcn_params,
    init_rgcn_params,
    rgcn_forward,
)
from convrec.graphs import TypedGraph, build_word_graph
from convrec.optim import ParamStore
from convrec.recommender import (
    ABLATION_FLAGS,
    Model,
    Segments,
    TrainConfig,
    ablate,
    aggregate_metrics,
    batch_loss,
    build_artifacts,
    evaluate,
    rank_order,
    score_all,
    train,
)
from convrec.retrieval import bm25_score, retrieve
from convrec.synthetic import cluster_corpus, popularity_corpus, toy_instance

from conftest import masked_positions, sample_coords
from oracles import (
    RecExample,
    bm25_reference,
    brute_force_metrics,
    dense_gcn,
    dense_rgcn,
    example_records,
    examples_of,
)
from test_retrieval import build_index, doc_conv

RESULTS: list[str] = []


def verdict(n: int, passed: bool, detail: str) -> None:
    line = f"[criterion {n}] {'PASS' if passed else 'FAIL'}: {detail}"
    RESULTS.append(line)
    print(line)
    assert passed, line


def artifacts_of(data):
    return build_artifacts(data.corpus, data.vocab, data.kg, data.word_graph)


def test_criterion_1_gradient_correctness():
    start = time.monotonic()
    artifacts = artifacts_of(toy_instance())
    model = Model(artifacts, TrainConfig(dim=8, seed=0))
    contexts = model.contexts(split_view(artifacts.examples, Split.TRAIN))

    def objective(_):
        item_matrix, word_matrix = model.encoder_outputs()
        loss, _ = batch_loss(model, contexts, item_matrix, word_matrix)
        return loss

    coords = sample_coords(model.store, 50, seed=0)
    groups = {name.split(".")[0] for name, _ in coords}
    assert groups == {"kg", "ig", "word", "att"}
    worst = ad.finite_diff_check(objective, model.store, coords=coords)
    elapsed = time.monotonic() - start
    verdict(1, worst < 1e-4 and elapsed < 10.0,
            f"end-to-end loss vs central differences, worst rel err {worst:.2e} "
            f"on 50 coords over all 4 parameter groups in {elapsed:.1f}s "
            f"(bounds 1e-4, 10s)")


def test_criterion_2_message_passing_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(20)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(1, 11))
        dim = int(rng.integers(2, 6))

        relations = tuple(f"r{i}" for i in range(int(rng.integers(1, 4))))
        triples = [
            (int(rng.integers(n)), int(rng.integers(len(relations))), int(rng.integers(n)))
            for _ in range(int(rng.integers(0, 21)))
        ]
        graph = TypedGraph(n, relations, triples)
        store = ParamStore()
        in_degree = trial % 2 == 1
        z = 1.0 if in_degree else float(rng.uniform(0.5, 3.0))
        params = init_rgcn_params(store, "g", n, relations, dim, rng, z=z,
                                  normalization="in_degree" if in_degree else "constant")
        got = rgcn_forward(graph, params).values
        rel_edges = {
            rel: sorted({(u, v) for u, r, v in graph.edges if r == i})
            for i, rel in enumerate(relations)
        }
        want = dense_rgcn(
            n, rel_edges, params.embedding.values,
            [{k: w.values for k, w in layer.items()} for layer in params.rel_weights],
            [w.values for w in params.self_weights],
            z=z, in_degree=in_degree,
        )
        worst = max(worst, float(np.abs(got - want).max()))

        pairs = [(int(rng.integers(n)), int(rng.integers(n)))
                 for _ in range(int(rng.integers(1, 16)))]
        wg = build_word_graph(pairs)
        g_store = ParamStore()
        g_params = init_gcn_params(g_store, "w", wg.n_nodes, dim, rng)
        got_g = gcn_forward(wg, g_params).values
        want_g = dense_gcn(wg.n_nodes, wg.pairs.tolist(),
                           g_params.embedding.values, [w.values for w in g_params.weights])
        worst = max(worst, float(np.abs(got_g - want_g).max()))
    elapsed = time.monotonic() - start
    verdict(2, worst < 1e-10 and elapsed < 5.0,
            f"relational and word-graph convolutions vs dense oracles on 100 "
            f"random graphs <= 10 nodes, worst abs diff {worst:.2e} in "
            f"{elapsed:.1f}s (bounds 1e-10, 5s)")


def test_criterion_3_bm25_fidelity():
    rng = np.random.default_rng(30)
    worst = 0.0
    rankings_ok = True
    for trial in range(100):
        n_docs = int(rng.integers(1, 21))
        docs = [rng.integers(0, 10, size=rng.integers(1, 16)).tolist()
                for _ in range(n_docs)]
        if trial % 5 == 0 and n_docs >= 2:
            docs[1] = list(docs[0])  # forced ties exercise the id tie-break
        query = rng.integers(0, 10, size=rng.integers(1, 7)).tolist()
        convs = [doc_conv(f"c{i:03d}", toks) for i, toks in enumerate(docs)]
        index = build_index(convs)

        got = [bm25_score(index, query, f"c{i:03d}") for i in range(n_docs)]
        want = bm25_reference(docs, query)
        worst = max(worst, float(np.abs(np.array(got) - np.array(want)).max()))

        result = retrieve(index, query, n_docs)
        exhaustive = sorted(
            ((s, f"c{i:03d}") for i, s in enumerate(want) if s > 0.0),
            key=lambda t: (-t[0], t[1]),
        )
        if [d for d, _ in result.ranked] != [d for _, d in exhaustive]:
            rankings_ok = False
    verdict(3, worst < 1e-12 and rankings_ok,
            f"scores vs straight-line formula on 100 random corpora <= 20 docs, "
            f"worst abs diff {worst:.2e} (bound 1e-12); rankings "
            f"{'matched' if rankings_ok else 'diverged from'} exhaustive scoring")


def test_criterion_4_metric_fidelity():
    rng = np.random.default_rng(40)
    ks = [1, 3, 5, 10, 50]
    exact = True
    monotone = True
    for _ in range(1000):
        n_items = int(rng.integers(5, 41))
        # coarse scores force rank ties; both routes must break them identically
        probs = rng.integers(0, 6, size=n_items) / 6.0
        n_gold = int(rng.integers(1, min(5, n_items) + 1))
        golds = sorted(rng.choice(n_items, size=n_gold, replace=False).tolist())

        order = rank_order(probs, n_items)
        rank_at = np.empty(n_items, dtype=np.int64)
        rank_at[order] = np.arange(1, n_items + 1)
        recall, mrr, pairs = aggregate_metrics([[int(rank_at[g]) for g in golds]], ks)

        ranked = sorted(range(n_items), key=lambda i: (-probs[i], i))
        want_recall, want_mrr = brute_force_metrics([ranked], [golds], ks)
        if recall != want_recall or mrr != want_mrr or pairs != n_gold:
            exact = False
        for a, b in zip(ks, ks[1:]):
            if recall[a] > recall[b] or mrr[a] > mrr[b]:
                monotone = False
    verdict(4, exact and monotone,
            f"Recall@k/MRR@k on 1000 synthetic ranked lists "
            f"{'exactly matched' if exact else 'diverged from'} the brute-force "
            f"oracle; non-decreasing in k on every list: {monotone}")


def test_criterion_5_planted_popularity_signal():
    start = time.monotonic()
    full, wo = [], []
    for seed in range(5):
        data = popularity_corpus(seed=seed)
        config = TrainConfig(dim=16, epochs=2, batch_size=64, seed=seed)
        reports = ablate(artifacts_of(data), config, ["ig"], ks=[1, 10])
        full.append(reports["full"].recall[1])
        wo.append(reports["wo_ig"].recall[1])
    p = float(stats.ttest_rel(full, wo, alternative="greater").pvalue)
    elapsed = time.monotonic() - start
    verdict(5, p < 0.05 and elapsed < 600.0,
            f"200 users/50 items/1000 conversations, 5 items at 10x like rate: "
            f"mean test R@1 full={np.mean(full):.4f} vs w/o interaction graph "
            f"{np.mean(wo):.4f} over 5 seeds, one-sided paired p={p:.4f} "
            f"(bound 0.05) in {elapsed:.0f}s")


def test_criterion_6_planted_similarity_signal():
    start = time.monotonic()
    full, wo = [], []
    for seed in range(5):
        data = cluster_corpus(seed=seed, n_items=120, n_clusters=12)
        config = TrainConfig(dim=16, epochs=3, batch_size=64, seed=seed)
        reports = ablate(artifacts_of(data), config, ["rt"], ks=[1, 10])
        full.append(reports["full"].recall[10])
        wo.append(reports["wo_rt"].recall[10])
    diff = float(np.mean(full) - np.mean(wo))
    elapsed = time.monotonic() - start
    verdict(6, diff > 0.0 and elapsed < 600.0,
            f"12 user-taste clusters over 120 items: mean test R@10 "
            f"full={np.mean(full):.4f} vs w/o retrieval {np.mean(wo):.4f} over "
            f"5 seeds (direction only, diff {diff:+.4f}) in {elapsed:.0f}s")


def test_criterion_7_determinism():
    data = popularity_corpus(seed=7, n_users=20, n_items=15, n_conversations=120)
    artifacts = artifacts_of(data)
    config = TrainConfig(dim=8, epochs=2, batch_size=32, seed=7)
    test_examples = split_view(artifacts.examples, Split.TEST)

    reports = []
    for _ in range(2):
        result = train(artifacts, config, ks=[1, 5, 15])
        reports.append(evaluate(result.model, test_examples, [1, 5, 15]))
    verdict(7, reports[0] == reports[1],
            f"two train+eval runs with identical seed/config: reports "
            f"{'identical' if reports[0] == reports[1] else 'differ'} "
            f"(R@1={reports[0].recall[1]:.4f})")


def test_criterion_8_degenerate_pipeline_totality():
    data = popularity_corpus(seed=8, n_users=12, n_items=10, n_conversations=60)
    artifacts = artifacts_of(data)
    base = TrainConfig(dim=8, epochs=1, batch_size=32, seed=8)
    test_examples = split_view(artifacts.examples, Split.TEST)

    ok = True
    notes = []
    worst_sum_err = 0.0
    # every ablation combination trains and evaluates without numeric failure
    for r in range(len(ABLATION_FLAGS) + 1):
        for combo in itertools.combinations(ABLATION_FLAGS, r):
            config = replace(base, **{f"without_{f}": True for f in combo})
            result = train(artifacts, config, ks=[1, 5])
            report = evaluate(result.model, test_examples, [1, 5])
            values = list(report.recall.values()) + list(report.mrr.values())
            if not all(np.isfinite(v) for v in values):
                ok = False
                notes.append(f"non-finite metrics for {combo}")

    # cold start (empty context), and a context whose retrieval comes back empty
    model = Model(artifacts, base)
    item_matrix, word_matrix = model.encoder_outputs()
    item_rows = ad.lookup(item_matrix, artifacts.item_ids)
    gold = frozenset({artifacts.item_ids[0]})
    cold = RecExample(conversation_id="(cold)", user_id="(cold)", split=Split.TEST,
                      turn_index=0, context_entities=(), context_words=(),
                      gold_items=gold)
    mentioned = set(artifacts.index.doc_entities.rows.tolist())
    unmentioned = [e for e in range(len(artifacts.vocab.entities)) if e not in mentioned]
    probes = [cold]
    if unmentioned:
        probes.append(cold._replace(conversation_id="(empty-retrieval)",
                                    context_entities=(unmentioned[0],)))
    for ex in probes:
        compiled = model.contexts(examples_of([ex], artifacts.corpus))
        probs = score_all(model.users(compiled, item_matrix, word_matrix).vector,
                          item_rows, Segments.of([masked_positions(artifacts.item_ids, ex)]))
        if not np.isfinite(probs.values).all():
            ok = False
            notes.append(f"non-finite probabilities for {ex.conversation_id}")
        worst_sum_err = max(worst_sum_err, abs(float(probs.values.sum()) - 1.0))
    report = evaluate(model, examples_of(probes, artifacts.corpus), [1, 5])
    if not np.isfinite(list(report.recall.values())).all():
        ok = False
        notes.append("cold-start evaluation produced non-finite metrics")

    # masked scoring still sums to 1
    ex = next(e for e in example_records(test_examples, artifacts.corpus) if e.context_entities)
    compiled = model.contexts(examples_of([ex], artifacts.corpus))
    probs = score_all(model.users(compiled, item_matrix, word_matrix).vector,
                      item_rows, Segments.of([masked_positions(artifacts.item_ids, ex)]))
    worst_sum_err = max(worst_sum_err, abs(float(probs.values.sum()) - 1.0))

    ok = ok and worst_sum_err < 1e-9
    verdict(8, ok,
            f"all 16 ablation combinations, cold start, and empty retrieval "
            f"completed; worst |sum(probs) - 1| = {worst_sum_err:.2e} "
            f"(bound 1e-9){'; ' + '; '.join(notes) if notes else ''}")
