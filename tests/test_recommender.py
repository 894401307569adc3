import dataclasses
import gc
import json

import numpy as np
import pytest
from scipy.sparse import _compressed as sp_compressed
from hypothesis import example, given, settings
from hypothesis import strategies as st

import convrec.recommender
from convrec import autodiff as ad
from convrec import encoders, graphs, retrieval
from convrec.corpus import Examples, Split, split_view
from convrec.errors import ConfigurationError, NumericError, ShapeError, ValidationError
from convrec.graphs import TypedGraph
from convrec.optim import ParamStore
from convrec.recommender import (
    ABLATION_FLAGS,
    MASK_LOGIT,
    Contexts,
    MetricsReport,
    Model,
    Segments,
    TrainConfig,
    _gold_ranks,
    ablate,
    ablation_config,
    aggregate_metrics,
    batch_loss,
    build_artifacts,
    comparison_table,
    evaluate,
    rank_order,
    rec_loss,
    score_all,
    train,
)
from convrec.retrieval import retrieve, retrieve_batch
from convrec.synthetic import popularity_corpus, toy_instance

from conftest import masked_positions, reference_users, sample_coords, total
from oracles import (
    brute_force_metrics,
    example_records,
    examples_of,
    finite_diff_check,
    masked_softmax_scores,
    rank_order_reference,
    softmax_cross_entropy_reference,
)


def artifacts_of(data):
    return build_artifacts(data.corpus, data.vocab, data.kg, data.word_graph)


def records(artifacts, examples=None):
    """The artifacts' examples (or ``examples``) as one object per example."""
    return example_records(artifacts.examples if examples is None else examples,
                           artifacts.corpus)


def small_config(**overrides):
    base = dict(dim=8, epochs=2, batch_size=8, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def eval_blocks_of(monkeypatch, artifacts, rows):
    """Patch the scratch budget to one (rows, items) score matrix: with a
    batch_size of at most ``rows``, evaluation scores ``rows`` examples a block."""
    monkeypatch.setattr(retrieval, "SCRATCH_BYTES", 8 * len(artifacts.item_ids) * rows)


# ---------------------------------------------------------------------------
# scoring


def test_score_all_is_softmax_over_dot_products():
    rng = np.random.default_rng(0)
    item_matrix = ad.constant(rng.normal(size=(7, 4)))
    user = ad.constant(rng.normal(size=(1, 4)))
    item_ids = [0, 2, 3, 5]
    probs = score_all(user, ad.lookup(item_matrix, item_ids), Segments.of([[]])).values
    assert probs.shape == (1, 4)
    want = masked_softmax_scores(item_matrix.values, item_ids, user.values[0])
    np.testing.assert_allclose(probs[0], want, atol=1e-12)
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_score_all_masking_zeroes_and_renormalizes():
    rng = np.random.default_rng(1)
    item_matrix = ad.constant(rng.normal(size=(6, 4)))
    user = ad.constant(rng.normal(size=(1, 4)))
    item_ids = [0, 1, 2, 3, 4, 5]
    probs = score_all(user, ad.lookup(item_matrix, item_ids), Segments.of([[1, 4]])).values[0]
    assert probs[1] == 0.0 and probs[4] == 0.0
    want = masked_softmax_scores(item_matrix.values, item_ids, user.values[0], [1, 4])
    np.testing.assert_allclose(probs, want, atol=1e-12)
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_score_all_rows_are_independent():
    # each row carries its own mask; rows never see each other's masks
    rng = np.random.default_rng(5)
    item_matrix = ad.constant(rng.normal(size=(6, 4)))
    users = rng.normal(size=(3, 4))
    item_ids = [5, 0, 2, 3]
    masks = [[0, 2], [], [3]]
    probs = score_all(ad.constant(users), ad.lookup(item_matrix, item_ids),
                      Segments.of(masks)).values
    for row, (u, masked) in enumerate(zip(users, masks)):
        want = masked_softmax_scores(item_matrix.values, item_ids, u, masked)
        np.testing.assert_allclose(probs[row], want, atol=1e-12)
    with pytest.raises(ValidationError):
        score_all(ad.constant(users), ad.lookup(item_matrix, item_ids), Segments.of(masks[:2]))


def test_score_all_masked_gradients_stay_finite():
    store = ParamStore()
    user = store.add("u", np.random.default_rng(2).normal(size=(1, 4)))
    item_matrix = ad.constant(np.random.default_rng(3).normal(size=(5, 4)))
    probs = score_all(user, ad.lookup(item_matrix, [0, 1, 2, 3, 4]), Segments.of([[0]]))
    # -log p_2, differentiated in numpy: its gradient in p is -1/p_2 at position 2
    upstream = np.zeros((1, 5))
    upstream[0, 2] = -1.0 / probs.values[0, 2]
    ad.backward(total(ad.mul(probs, ad.constant(upstream))))
    assert np.isfinite(user.grad).all()
    logits = user.values @ item_matrix.values.T
    logits[0, 0] = MASK_LOGIT
    _, grad_logits = softmax_cross_entropy_reference(logits, [[2]])
    np.testing.assert_allclose(user.grad, grad_logits @ item_matrix.values, rtol=0, atol=1e-12)


def test_ranking_invariant_under_positive_scaling():
    rng = np.random.default_rng(4)
    item_matrix = ad.constant(rng.normal(size=(9, 4)))
    user = rng.normal(size=4)
    ids = list(range(9))

    def ranked(u):
        probs = score_all(ad.constant(u[None, :]), ad.lookup(item_matrix, ids),
                          Segments.of([[]])).values[0]
        return rank_order(probs, len(ids))

    base = ranked(user)
    for c in (0.5, 3.0, 117.0):
        assert ranked(c * user)[0] == base[0]  # argmax unchanged by positive scaling


def test_rank_order_breaks_ties_by_position():
    probs = np.array([0.2, 0.5, 0.2, 0.5, 0.1])
    assert rank_order(probs, 5).tolist() == [1, 3, 0, 2, 4]
    assert np.array([10, 11, 12, 13, 14])[rank_order(probs, 5)].tolist() == [11, 13, 10, 12, 14]


# few distinct values, exact zeros (masked items) and 1e-300 among them: ties everywhere
TIE_HEAVY = st.sampled_from([0.0, 0.0, 1e-300, 0.125, 0.25, 0.25, 0.5, 1.0])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(st.lists(TIE_HEAVY, min_size=1, max_size=30),
                 st.builds(lambda v, n: [v] * n, TIE_HEAVY, st.integers(1, 30))),
       st.integers(1, 35))
@example([0.0, 0.0, 0.0], 2)
@example([1e-300, 0.0, 1e-300, 0.0], 3)
def test_rank_order_is_the_full_orders_first_k(values, k):
    probs = np.array(values)
    n = len(values)
    full = rank_order_reference(probs)
    for cut in (k, 1, n, n + 5):
        assert rank_order(probs, cut).tolist() == full[:cut].tolist()


def test_rank_order_is_exact_or_raises_on_nan():
    # NaN sorts last in both routes; with fewer than k other values there is no k-th
    probs = np.array([np.nan, 0.25, 0.0, 0.5, np.nan])
    full = rank_order_reference(probs)
    for k in (1, 2, 3):
        assert rank_order(probs, k).tolist() == full[:k].tolist()
    for k in (4, 5, 9):
        with pytest.raises(NumericError):
            rank_order(probs, k)


def test_rank_order_rejects_k_below_one():
    for k in (0, -3):
        with pytest.raises(ValidationError):
            rank_order(np.array([0.5, 0.5]), k)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(TIE_HEAVY, min_size=1, max_size=12))
def test_counted_ranks_equal_rank_order_ranks(values):
    probs = np.array(values)
    rank_at = np.empty(len(values), dtype=np.int64)
    rank_at[rank_order(probs, len(values))] = np.arange(1, len(values) + 1)
    positions = list(range(len(values)))
    assert _gold_ranks(probs[None, :], Segments.of([positions])) == rank_at.tolist()


def brute_force_ranks(probs, golds):
    """Each row's gold positions' 1-based places in the row's full order: by
    descending probability, ties by ascending position."""
    ranks = []
    for row, positions in zip(probs.tolist(), golds):
        order = sorted(range(len(row)), key=lambda i: (-row[i], i))
        ranks += [order.index(g) + 1 for g in positions]
    return ranks


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 8).flatmap(lambda n: st.lists(
    st.tuples(st.lists(TIE_HEAVY, min_size=n, max_size=n),
              st.sets(st.integers(0, n - 1), min_size=1)), min_size=1, max_size=4)))
# ties before and after a gold, a gold tied only with later items, an untied
# gold, and rows with one gold and with several
@example([([0.25, 0.5, 0.25, 0.0, 0.25], {2}), ([0.0, 0.0, 0.5, 0.5, 0.0], {1, 3, 4}),
          ([0.1, 0.4, 0.2, 0.3, 0.0], {0, 3}), ([0.2, 0.2, 0.2, 0.2, 0.2], {0, 4})])
def test_counted_ranks_of_tie_heavy_rows_equal_the_brute_force_ranks(rows):
    probs = np.array([values for values, _ in rows])
    golds = [sorted(positions) for _, positions in rows]
    assert _gold_ranks(probs, Segments.of(golds)) == brute_force_ranks(probs, golds)


# ---------------------------------------------------------------------------
# loss


def test_rec_loss_hand_values():
    # softmax(log p) = p, so each row's loss is -log p of its golds
    logits = ad.constant(np.log(np.array([[0.2, 0.3, 0.5], [0.1, 0.6, 0.3]])))
    loss, guards = rec_loss(logits, Segments.of([[1], [0, 2]]))
    want = (-np.log(0.3) - (np.log(0.1) + np.log(0.3)) / 2) / 2
    assert float(loss.values) == pytest.approx(want, abs=1e-12)
    assert guards == 0
    single, _ = rec_loss(ad.constant(logits.values[:1]), Segments.of([[0, 2]]))
    assert float(single.values) == pytest.approx(-(np.log(0.2) + np.log(0.5)) / 2, abs=1e-12)


def test_rec_loss_guard_counts_tiny_probabilities():
    # gold probability ~1e-15 in row 0 only; the loss is its exact -log p, not floored
    logits = ad.constant(np.array([[np.log(1e-15), 0.0, np.log(1e-15)],
                                   [0.0, 0.0, 0.0]]))
    loss, guards = rec_loss(logits, Segments.of([[0], [2]]))
    assert guards == 1
    want = (-np.log(1e-15 / (1.0 + 2e-15)) + np.log(3.0)) / 2
    assert float(loss.values) == pytest.approx(want, rel=1e-12)
    # a row whose two golds are both tiny counts once
    _, guards = rec_loss(logits, Segments.of([[0, 2], [2]]))
    assert guards == 1


def test_rec_loss_guard_keeps_gradient_finite():
    # a logit spread of 715 puts the gold probability below the smallest
    # normal double; log-softmax keeps the loss and its gradient finite
    store = ParamStore()
    logits = store.add("logits", np.array([[715.0, 0.0, -3.0]]))
    assert 0.0 < ad.softmax(ad.constant(logits.values)).values[0, 1] < 1e-300
    loss, guards = rec_loss(logits, Segments.of([[1]]))
    assert guards == 1
    assert float(loss.values) == pytest.approx(715.0, rel=1e-12)
    ad.backward(loss)
    assert np.isfinite(logits.grad).all()
    np.testing.assert_allclose(logits.grad, [[1.0, -1.0, 0.0]], atol=1e-12)


def test_rec_loss_requires_gold():
    with pytest.raises(ValidationError):
        rec_loss(ad.constant(np.array([[1.0]])), Segments.of([[]]))
    with pytest.raises(ValidationError):
        rec_loss(ad.constant(np.zeros((2, 3))), Segments.of([[1], []]))
    with pytest.raises(ValidationError):
        rec_loss(ad.constant(np.zeros((0, 3))), Segments.of([]))


def test_rec_loss_gradcheck_unguarded():
    store = ParamStore()
    store.add("logits", np.array([[0.3, -0.2, 0.8, 0.1], [0.5, 0.2, -0.4, 0.9]]))
    masked = Segments.of([[3], [1]])

    def objective(s):
        loss, _ = rec_loss(ad.add_at(s["logits"], masked, MASK_LOGIT), Segments.of([[0, 2], [3]]))
        return loss

    worst = finite_diff_check(objective, store, samples_per_param=8, seed=0)
    assert worst < 1e-4


def test_batch_loss_matches_scoring_oracle():
    # the training loss is -log of the oracle's probabilities: same masks, same golds
    data = toy_instance()
    artifacts = artifacts_of(data)
    model = Model(artifacts, TrainConfig(dim=8, seed=0))
    train_examples = split_view(artifacts.examples, Split.TRAIN)
    batch = records(artifacts, train_examples)
    assert any(masked_positions(artifacts.item_ids, ex) for ex in batch)
    item_matrix, word_matrix = model.encoder_outputs()
    loss, guards = batch_loss(model, model.contexts(train_examples), item_matrix, word_matrix)
    per_example = []
    for ex, user in zip(batch, reference_users(model, batch, item_matrix, word_matrix)):
        probs = masked_softmax_scores(item_matrix.values, artifacts.item_ids,
                                      user, masked_positions(artifacts.item_ids, ex))
        golds = [model.item_position[g] for g in sorted(ex.gold_items)]
        per_example.append(-np.mean(np.log(probs[golds])))
    assert float(loss.values) == pytest.approx(np.mean(per_example), abs=1e-12)
    assert guards == 0


def test_training_builds_relation_operators_once(monkeypatch):
    artifacts = artifacts_of(popularity_corpus(seed=0, n_users=20, n_items=12,
                                               n_conversations=60))
    # every encoder pass hands rgcn_forward the interaction graph itself, and no
    # pass checks or de-duplicates edges again
    forward, seen = encoders.rgcn_forward, []
    monkeypatch.setattr(encoders, "rgcn_forward",
                        lambda graph, *args: seen.append(graph) or forward(graph, *args))
    distinct_rows, distinct_calls = graphs._distinct_rows, []
    monkeypatch.setattr(graphs, "_distinct_rows",
                        lambda *args: distinct_calls.append(args) or distinct_rows(*args))
    model = train(artifacts, small_config(epochs=2, batch_size=4)).model
    typed = (artifacts.kg, artifacts.interaction)
    layer_ops = [dict(g._layer_operators) for g in typed]
    # one normalization per graph; an operator (and its transpose) per row count read
    assert [{key[:2] for key in ops} for ops in layer_ops] == [{(False, 1.0)}] * 2
    assert all(1 <= len(ops) <= 3 for ops in layer_ops)
    train(artifacts, small_config(epochs=1, batch_size=4, seed=1))
    evaluate(model, split_view(artifacts.examples, "test"))
    for g, layers in zip(typed, layer_ops):
        assert g._layer_operators.keys() == layers.keys()
        assert all(g._layer_operators[k] is op for k, op in layers.items())
    interaction_side = [g for g in seen if g is not artifacts.kg]
    assert interaction_side and all(g is artifacts.interaction for g in interaction_side)
    assert len(interaction_side) == len(seen) // 2
    assert distinct_calls == []


def test_training_builds_no_sparse_matrix_after_its_first_step(monkeypatch):
    # every operator a step multiplies by, and its transpose, is built once:
    # from the second step on no CSR or CSC is constructed, and the second
    # validation pass reuses what the first one built
    artifacts = artifacts_of(popularity_corpus(seed=3, n_users=20, n_items=12,
                                               n_conversations=60))
    built = []
    compressed = sp_compressed._cs_matrix
    real_init = compressed.__init__

    def counting_init(self, *args, **kwargs):
        built.append(type(self).__name__)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(compressed, "__init__", counting_init)
    after_step, after_valid = [], []
    real_step, real_eval = convrec.recommender.adam_step, convrec.recommender.evaluate_contexts

    def step(*args):
        norm = real_step(*args)
        after_step.append(len(built))
        return norm

    def validate(*args):
        report = real_eval(*args)
        after_valid.append((len(after_step), len(built)))
        return report

    monkeypatch.setattr(convrec.recommender, "adam_step", step)
    monkeypatch.setattr(convrec.recommender, "evaluate_contexts", validate)
    train(artifacts, small_config(epochs=2, batch_size=4))
    (steps, at_first_valid), (_, at_second_valid) = after_valid
    assert steps >= 3 and len(after_step) == 2 * steps
    assert after_step[0] > 0 and {"csr_matrix", "csc_matrix"} <= set(built)
    assert after_step[steps - 1] == after_step[0]  # steps 2.. of epoch 0
    assert after_step[-1] == after_step[steps] == at_first_valid  # all of epoch 1
    assert at_second_valid == at_first_valid


# ---------------------------------------------------------------------------
# metrics


def test_aggregate_metrics_hand_case():
    # two examples: gold ranks (1, 4) and (2,)
    recall, mrr, pairs = aggregate_metrics([[1, 4], [2]], ks=[1, 3])
    assert pairs == 3
    assert recall[1] == pytest.approx(1 / 3)
    assert recall[3] == pytest.approx(2 / 3)
    assert mrr[1] == pytest.approx(1 / 3)
    assert mrr[3] == pytest.approx((1.0 + 0.5) / 3)


def test_aggregate_metrics_rejects_empty():
    with pytest.raises(ValidationError):
        aggregate_metrics([], ks=[1])


def test_metrics_match_brute_force_oracle_on_synthetic_lists():
    rng = np.random.default_rng(7)
    n_items = 12
    rank_lists = []
    ranked_lists = []
    gold_lists = []
    for _ in range(60):
        # coarse values force ties; both routes must break them identically
        probs = rng.integers(0, 4, size=n_items) / 4.0
        golds = sorted(rng.choice(n_items, size=rng.integers(1, 4), replace=False).tolist())
        order = rank_order(probs, n_items)
        rank_at = {int(p): r + 1 for r, p in enumerate(order)}
        rank_lists.append([rank_at[g] for g in golds])
        ranked_lists.append(sorted(range(n_items), key=lambda i: (-probs[i], i)))
        gold_lists.append(golds)
    ks = [1, 3, 5, 12]
    recall, mrr, pairs = aggregate_metrics(rank_lists, ks)
    oracle_recall, oracle_mrr = brute_force_metrics(ranked_lists, gold_lists, ks)
    assert recall == oracle_recall
    assert mrr == oracle_mrr
    assert pairs == sum(len(g) for g in gold_lists)


def test_metrics_non_decreasing_in_k():
    rng = np.random.default_rng(8)
    rank_lists = [[int(r)] for r in rng.integers(1, 30, size=100)]
    ks = list(range(1, 31))
    recall, mrr, _ = aggregate_metrics(rank_lists, ks)
    for a, b in zip(ks, ks[1:]):
        assert recall[a] <= recall[b]
        assert mrr[a] <= mrr[b]


def test_evaluate_matches_oracle_on_toy(toy_artifacts):
    model = Model(toy_artifacts, small_config())
    examples = toy_artifacts.examples
    ks = [1, 3, 6]
    report = evaluate(model, examples, ks)

    item_matrix, word_matrix = model.encoder_outputs()
    ranked_lists, gold_lists = [], []
    objects = records(toy_artifacts)
    for ex, user in zip(objects, reference_users(model, objects, item_matrix, word_matrix)):
        probs = masked_softmax_scores(item_matrix.values, model.artifacts.item_ids,
                                      user, masked_positions(model.artifacts.item_ids, ex))
        n = len(model.artifacts.item_ids)
        ranked_lists.append(sorted(range(n), key=lambda i: (-probs[i], i)))
        gold_lists.append(sorted(model.item_position[g] for g in ex.gold_items))
    oracle_recall, oracle_mrr = brute_force_metrics(ranked_lists, gold_lists, ks)
    assert report.recall == oracle_recall
    assert report.mrr == oracle_mrr
    assert report.n_examples == len(examples)


def test_evaluate_is_independent_of_chunk_size(toy_artifacts, monkeypatch):
    examples = toy_artifacts.examples
    model = Model(toy_artifacts, small_config(batch_size=1))
    assert model.contexts(examples).masked.rows.size  # masks are active
    reports = []
    for b in (1, 3, len(examples)):
        eval_blocks_of(monkeypatch, toy_artifacts, b)
        reports.append(evaluate(model, examples, [1, 3, 6]))
    assert reports[0] == reports[1] == reports[2]


def test_evaluate_split_labels(toy_artifacts):
    model = Model(toy_artifacts, small_config())
    report = evaluate(model, toy_artifacts.examples, [1])
    assert report.split == "train"
    labeled = evaluate(model, toy_artifacts.examples, [1], split_label="anything")
    assert labeled.split == "anything"
    with pytest.raises(ValidationError):
        evaluate(model, [], [1])


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_evaluate_raises_on_one_bad_logit_past_the_first_column(toy_artifacts, monkeypatch,
                                                                bad):
    # the NaN check reads column 0 only: one NaN or +inf logit, in the last
    # column of the last row, turns its whole softmax row NaN
    def poisoned(*args, _fn=convrec.recommender.item_logits):
        logits = _fn(*args)
        logits.values[-1, -1] = bad
        return logits

    model = Model(toy_artifacts, small_config())
    examples = toy_artifacts.examples
    assert len(examples) > 1 and len(toy_artifacts.item_ids) > 1
    evaluate(model, examples, [1])
    monkeypatch.setattr(convrec.recommender, "item_logits", poisoned)
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="NaN"):
        evaluate(model, examples, [1])


def test_evaluate_nan_probabilities_raise():
    # against NaN every gold item would count as rank 1 and the model would score perfectly
    artifacts = artifacts_of(popularity_corpus(seed=0, n_users=20, n_items=12,
                                               n_conversations=60))
    model = Model(artifacts, small_config())
    test = split_view(artifacts.examples, "test")
    assert evaluate(model, test, [1, 10]).recall[1] < 1.0
    model.store["kg.emb"].values[...] = np.nan
    with pytest.raises(NumericError, match="NaN"):
        evaluate(model, test, [1, 10])


def test_score_all_is_identical_without_a_tape(toy_artifacts):
    model = Model(toy_artifacts, small_config())
    batch = model.contexts(toy_artifacts.examples)
    assert batch.masked.rows.size

    def probs():
        item_matrix, word_matrix = model.encoder_outputs()
        users = model.users(batch, item_matrix, word_matrix).vector
        return score_all(users, ad.lookup(item_matrix, model.artifacts.item_ids), batch.masked)

    recorded = probs()
    with ad.no_grad():
        free = probs()
    assert recorded._backward_fn is not None
    assert not free.requires_grad and free._parents == () and free._backward_fn is None
    assert np.array_equal(recorded.values, free.values)


def test_evaluate_records_no_tape_and_reports_what_the_recording_route_does(toy_artifacts,
                                                                           monkeypatch):
    scored = []

    def spy(*args, _fn=convrec.recommender.score_all):
        scored.append(_fn(*args))
        return scored[-1]

    monkeypatch.setattr(convrec.recommender, "score_all", spy)
    eval_blocks_of(monkeypatch, toy_artifacts, 3)
    model = Model(toy_artifacts, small_config(batch_size=1))
    examples = toy_artifacts.examples
    report = evaluate(model, examples, [1, 3, 6])
    free, scored[:] = scored[:], []
    # the same body without its no_grad scope
    recording = convrec.recommender.evaluate_contexts.__wrapped__
    assert recording(model, model.contexts(examples), [1, 3, 6], "train") == report
    assert len(free) == len(scored) > 1
    for f, r in zip(free, scored):
        assert f._parents == () and f._backward_fn is None and r._backward_fn is not None
        assert np.array_equal(f.values, r.values)


def test_a_raising_evaluate_leaves_recording_on():
    # evaluate raises out of its no_grad scope; the next training step must still backprop
    artifacts = artifacts_of(popularity_corpus(seed=0, n_users=20, n_items=12,
                                               n_conversations=60))
    model, fresh = Model(artifacts, small_config()), Model(artifacts, small_config())
    batch = model.contexts(split_view(artifacts.examples, Split.TRAIN).take(np.arange(8)))
    emb = model.store["kg.emb"].values
    saved = emb.copy()
    emb[...] = np.nan
    with pytest.raises(NumericError, match="NaN"):
        evaluate(model, split_view(artifacts.examples, "test"), [1, 10])
    emb[...] = saved
    for m in (model, fresh):
        for _, t in m.store.items():
            t.grad = None
        ad.backward(batch_loss(m, batch, *m.encoder_outputs())[0])
    for name, t in model.store.items():
        assert t.grad is not None, name
        assert np.array_equal(t.grad, fresh.store[name].grad), name
    assert any(t.grad.any() for _, t in model.store.items())


def test_metrics_report_serialization():
    report = MetricsReport(split="test", n_examples=3, n_pairs=4,
                           recall={1: 0.25, 10: 0.75}, mrr={1: 0.25, 10: 0.5},
                           config_fingerprint="abc123")
    text = report.to_text()
    assert "split=test" in text
    assert f"recall@1={0.25!r}" in text
    assert text.endswith("\n")
    payload = json.loads(report.to_json())
    assert payload["recall"] == {"1": 0.25, "10": 0.75}
    assert payload["pairs"] == 4
    assert payload["config"] == "abc123"


# ---------------------------------------------------------------------------
# model assembly


def test_model_param_groups(toy_artifacts):
    model = Model(toy_artifacts, small_config())
    names = set(model.store.names())
    assert any(n.startswith("kg.") for n in names)
    assert any(n.startswith("ig.") for n in names)
    assert any(n.startswith("word.") for n in names)
    assert any(n.startswith("att.") for n in names)
    assert model.ig_params is not None and model.gcn_params is not None


def test_model_same_seed_same_params(toy_artifacts):
    a = Model(toy_artifacts, small_config())
    b = Model(toy_artifacts, small_config())
    for name in a.store.names():
        np.testing.assert_array_equal(a.store[name].values, b.store[name].values)


def test_model_rejects_itemless_vocab(toy_artifacts):
    from convrec.corpus import EntityVocab, Vocab
    from convrec.graphs import InteractionGraph
    from convrec.recommender import Artifacts

    entities = EntityVocab()
    entities.add("A0", "an attribute", False)
    empty = Artifacts(vocab=Vocab(entities, toy_artifacts.vocab.words),
                      corpus=toy_artifacts.corpus, kg=TypedGraph(1, ("r",)), word_graph=None,
                      interaction=InteractionGraph([], [], []), index=None)
    assert empty.item_ids.dtype == np.intp and not len(empty.item_ids)
    with pytest.raises(ConfigurationError, match="no items"):
        Model(empty, small_config())


def group(segments, b):
    """Example b's ints in a Segments field of a compiled record."""
    return segments.rows[segments.offsets[b]:segments.offsets[b + 1]].tolist()


def test_contexts_match_hand_derivation(toy_artifacts):
    small = artifacts_of(popularity_corpus(seed=0, n_users=20, n_items=12, n_conversations=60))
    for artifacts in (toy_artifacts, small):
        items = artifacts.item_ids.tolist()
        rows = {w: r for r, w in enumerate(artifacts.word_graph.word_ids)}
        seen = {"retrieved": 0, "words": 0, "missing": 0, "masked": 0}
        for without_rt in (False, True):
            for without_cn in (False, True):
                for masking in (False, True):
                    model = Model(artifacts, small_config(
                        top_n=2, without_rt=without_rt, without_cn=without_cn,
                        candidate_masking=masking))
                    contexts = model.contexts(artifacts.examples)
                    assert len(contexts) == len(artifacts.examples)
                    assert contexts.missing_words.shape == (len(artifacts.examples),)
                    for b, ex in enumerate(records(artifacts)):
                        retrieved = () if without_rt else retrieve(
                            artifacts.index, list(ex.context_entities), 2,
                            exclude_id=ex.conversation_id).entities
                        words = [] if without_cn else [rows[w] for w in ex.context_words
                                                       if w in rows]
                        masked = [items.index(e) for e in ex.context_entities
                                  if masking and e in items]
                        missing = int(contexts.missing_words[b])
                        assert group(contexts.entities, b) == [*ex.context_entities, *retrieved]
                        assert group(contexts.words, b) == words
                        assert missing == len(ex.context_words) - len(words)
                        assert group(contexts.masked, b) == masked
                        assert group(contexts.gold, b) == sorted(items.index(g)
                                                                 for g in ex.gold_items)
                        seen["retrieved"] += len(retrieved)
                        seen["words"] += len(words)
                        seen["missing"] += missing
                        seen["masked"] += len(masked)
        assert all(seen.values()), seen


def take_pool():
    """Compiled records of a small corpus's examples plus examples with empty segments.

    The extra examples have no entity, no word, no maskable mention or no
    word with a row; each model compiles them under a different config.
    """
    artifacts = artifacts_of(popularity_corpus(seed=0, n_users=20, n_items=12,
                                               n_conversations=60))
    objects = records(artifacts)
    base = objects[0]
    other = next(e for e in range(len(artifacts.vocab.entities))
                 if not artifacts.vocab.entities.is_item[e])
    without_row = sorted(set(range(len(artifacts.vocab.words)))
                         - set(artifacts.word_graph.word_ids))
    examples = examples_of([*objects[:40],
                            base._replace(context_entities=(), context_words=()),
                            base._replace(context_entities=(other,)),
                            base._replace(context_words=tuple(without_row[:2]))],
                           artifacts.corpus)
    configs = [small_config(top_n=2), small_config(without_rt=True, candidate_masking=False),
               small_config(without_cn=True)]
    return examples, [Model(artifacts, cfg) for cfg in configs]


TAKE_POOL = take_pool()


def assert_same_record(got, want):
    for name in ("entities", "words", "masked", "gold"):
        got_field, want_field = getattr(got, name), getattr(want, name)
        for part in ("rows", "offsets"):
            assert getattr(got_field, part).dtype == np.intp
            np.testing.assert_array_equal(getattr(got_field, part), getattr(want_field, part))
    np.testing.assert_array_equal(got.missing_words, want.missing_words)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2), st.lists(st.integers(0, len(TAKE_POOL[0]) - 1), max_size=12))
@example(0, [])
@example(1, [40, 40, 41, 42, 0, 40])
@example(2, [42, 41, 40])
def test_take_equals_compiling_the_taken_examples(model_index, idx):
    examples, models = TAKE_POOL
    model = models[model_index]
    compiled = model.contexts(examples)
    assert_same_record(compiled.take(idx), model.contexts(examples.take(idx)))
    assert_same_record(compiled.take(np.asarray(idx, dtype=np.intp)),
                       compiled.take(idx))


def test_each_one_example_compile_is_a_take_of_the_whole_split():
    # retrieval, masking and context words on: a recommend turn compiles one example
    examples, models = TAKE_POOL
    model = models[0]
    compiled = model.contexts(examples)
    for i in range(len(examples)):
        assert_same_record(model.contexts(examples.take([i])), compiled.take([i]))
    retrieved = compiled.entities.sizes - examples.entities.sizes
    for part in (retrieved, np.diff(compiled.words.offsets), np.diff(compiled.masked.offsets),
                 compiled.missing_words):
        assert part.any() and not part.all()  # some examples have rows, some have none


def test_gold_positions_ascend_and_item_ids_must(toy_artifacts):
    # item positions ascend with entity ids, which the compile's gold sort relies on
    items = toy_artifacts.item_ids.tolist()
    entities = toy_artifacts.vocab.entities
    other = next(e for e in range(len(entities)) if not entities.is_item[e])
    example = records(toy_artifacts)[0]._replace(
        gold_items=frozenset([items[4], other, items[0], items[2]]))
    gold = Model(toy_artifacts, small_config()).contexts(
        examples_of([example], toy_artifacts.corpus)).gold
    assert gold.rows.tolist() == sorted(items.index(g) for g in example.gold_items if g in items)
    # the ids ascend by construction: derived from the vocabulary, never passed in
    assert np.array_equal(toy_artifacts.item_ids, np.flatnonzero(entities.is_item))
    assert "item_ids" not in {f.name for f in dataclasses.fields(toy_artifacts)}


def test_a_field_with_malformed_offsets_is_refused_when_built():
    with pytest.raises(ShapeError, match="offsets must rise from 0 to 1"):
        Segments(np.zeros(1, np.intp), np.array([0, 2]))  # past the last row
    with pytest.raises(ShapeError, match="offsets must rise from 0 to 2"):
        Segments(np.arange(2), np.array([1, 2]))  # not from 0
    with pytest.raises(ShapeError, match="offsets must rise from 0 to 3"):
        Segments(np.arange(3), np.array([0, 2, 1, 3]))  # falling


def test_contexts_reject_a_field_with_the_wrong_number_of_groups():
    one = Segments.of([[1, 2]])
    two = Segments(np.arange(2), np.array([0, 1, 2]))
    with pytest.raises(ShapeError, match="Contexts.entities: 2 groups for 1 examples"):
        Contexts(two, one, one, one, np.zeros(1))
    with pytest.raises(ShapeError, match="Contexts.words: 0 groups"):
        Contexts(one, Segments.none(0), one, one, np.zeros(1))
    with pytest.raises(ShapeError, match="Contexts.masked: 2 groups"):
        Contexts(one, one, two, one, np.zeros(1))
    with pytest.raises(ShapeError, match="Contexts.gold: 2 groups"):
        Contexts(one, one, one, two, np.zeros(1))
    with pytest.raises(ShapeError, match="Contexts.entities: 1 groups for 2 examples"):
        Contexts(one, one, one, one, np.zeros(2))


@pytest.mark.parametrize("bad", [-1, -2, 3])
def test_contexts_take_refuses_ids_outside_the_record(bad):
    # a negative id does not wrap: -2 once paired the third example's rows with
    # the second's missing_words
    field = Segments.of([[1], [2, 2], [3, 3, 3]])
    contexts = Contexts(field, field, field, field, np.array([10, 20, 30]))
    with pytest.raises(ShapeError, match="take: group id out of range for 3 groups"):
        contexts.take([0, bad])


def test_no_tape_outlives_its_step(toy_artifacts, monkeypatch):
    # when an encoder pass starts, for a training step or a validation pass,
    # no tape node of an earlier step is alive; nodes alive before training
    # (an earlier failed test's traceback can hold some) are not counted
    def tape_nodes():
        return [obj for obj in gc.get_objects()
                if isinstance(obj, ad.Tensor) and obj._backward_fn is not None]

    older = {id(node): node for node in tape_nodes()}  # held, so no id is reused
    live = []
    real = Model.encoder_outputs

    def counting(self, *args):
        live.append(sum(id(node) not in older for node in tape_nodes()))
        return real(self, *args)

    monkeypatch.setattr(Model, "encoder_outputs", counting)
    train(toy_artifacts, small_config(epochs=2, batch_size=2))
    assert len(live) > 2 and live == [0] * len(live)


def reachable_arrays(root):
    """Every array a tape holds from ``root``: node values, what the backward
    closures (and the functions they call) capture, and the arrays those view."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
            stack.append(obj.base)
        elif isinstance(obj, ad.Tensor):
            stack += [obj.values, *obj._parents, obj._backward_fn]
        elif isinstance(obj, (tuple, list)):
            stack += obj
        elif callable(obj) and getattr(obj, "__closure__", None):
            stack += [cell.cell_contents for cell in obj.__closure__]
    return found


def test_a_training_step_keeps_no_layer_product():
    # each graph-convolution layer recomputes its (R + 1)-block product in
    # backward: no array of its shape, or of its (rows, (R + 1) d) reshape, is
    # reachable from a training step's loss
    artifacts = artifacts_of(popularity_corpus(3, n_users=30, n_items=60, n_conversations=120))
    model = Model(artifacts, small_config(dim=8, without_rt=True))
    contexts = model.contexts(split_view(artifacts.examples, Split.TRAIN))
    item_matrix, word_matrix = model.encoder_outputs(model.rows_read(contexts))
    loss, _ = batch_loss(model, contexts.take(np.arange(16)), item_matrix, word_matrix)
    del item_matrix, word_matrix

    products = set()
    for graph in (artifacts.kg, artifacts.interaction):
        blocks = len(graph.relations) + 1
        for op, _ in graph._layer_operators.values():
            products |= {(op.shape[0], 8), (op.shape[0] // blocks, blocks * 8)}
    assert len(products) >= 6  # two graphs, each with a full and a row-trimmed operator
    held = [a.shape for a in reachable_arrays(loss) if a.shape in products]
    assert held == []


def test_train_and_evaluate_call_the_sampled_functions_once_per_batch(toy_artifacts,
                                                                      monkeypatch):
    # bench/train_worker.py samples after these three, looked up on convrec.recommender
    calls = {}
    for name in ("build_user_representation", "score_all", "adam_step"):
        def counting(*args, _fn=getattr(convrec.recommender, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(convrec.recommender, name, counting)
    default_budget = retrieval.SCRATCH_BYTES
    eval_blocks_of(monkeypatch, toy_artifacts, 2)
    config = small_config(epochs=1, batch_size=2)
    n_train = len(split_view(toy_artifacts.examples, Split.TRAIN))
    n_valid = len(split_view(toy_artifacts.examples, Split.VALID))
    batches, valid_chunks = -(-n_train // 2), -(-n_valid // 2)
    result = train(toy_artifacts, config, [1])
    assert calls == {"build_user_representation": batches + valid_chunks,
                     "adam_step": batches, **({"score_all": valid_chunks} if n_valid else {})}
    calls.clear()
    evaluate(result.model, toy_artifacts.examples, [1])
    chunks = -(-len(toy_artifacts.examples) // 2)
    assert chunks > 1
    assert calls == {"build_user_representation": chunks, "score_all": chunks}
    # under the default budget the toy split is one block
    calls.clear()
    monkeypatch.setattr(retrieval, "SCRATCH_BYTES", default_budget)
    evaluate(result.model, toy_artifacts.examples, [1])
    assert calls == {"build_user_representation": 1, "score_all": 1}


def count_retrieve_batch_calls(monkeypatch):
    """The number of queries in each ``retrieve_batch`` call ``Model.contexts`` makes."""
    batch_sizes = []

    def counting(index, queries, n, exclude):
        batch_sizes.append(len(queries.offsets) - 1)
        return retrieve_batch(index, queries, n, exclude)

    monkeypatch.setattr(convrec.recommender, "retrieve_batch", counting)
    return batch_sizes


def test_the_exclude_gather_equals_the_dict_route_on_interleaved_splits(monkeypatch):
    # each example never retrieves its own conversation's document: the gather
    # through Artifacts.document_of gives what a lookup by conversation id does
    data = popularity_corpus(seed=0, n_users=20, n_items=12, n_conversations=60)
    # test, valid, train, test, ...: the splits interleave and the last
    # conversation is a training one
    corpus = dataclasses.replace(data.corpus, splits=(np.arange(len(data.corpus)) % 3)
                                 .astype(np.int8)[::-1].copy())
    artifacts = build_artifacts(corpus, data.vocab, data.kg, data.word_graph)
    excluded = []

    def spy(index, queries, n, exclude):
        excluded.append(exclude.tolist())
        return retrieve_batch(index, queries, n, exclude)

    monkeypatch.setattr(convrec.recommender, "retrieve_batch", spy)
    model = Model(artifacts, small_config())
    examples = artifacts.examples
    model.contexts(examples)
    model.contexts(Examples.query([0, 1]))
    ids, index_of = corpus.conversation_ids, artifacts.index.index_of
    want = [index_of.get(ids[c], -1) if c >= 0 else -1 for c in examples.conversations.tolist()]
    assert excluded == [want, [-1]]
    assert len(set(examples.splits.tolist())) == 3 and -1 in want
    assert artifacts.document_of[-2] >= 0  # the last conversation has a document
    # a training conversation's document index is not its conversation index
    assert any(0 <= d != c for c, d in zip(examples.conversations.tolist(), want))


def test_retrieval_runs_once_per_compile(monkeypatch):
    artifacts = artifacts_of(popularity_corpus(seed=0, n_users=20, n_items=12,
                                               n_conversations=60))
    n_train = len(split_view(artifacts.examples, Split.TRAIN))
    n_valid = len(split_view(artifacts.examples, Split.VALID))
    assert n_train and n_valid
    batch_sizes = count_retrieve_batch_calls(monkeypatch)
    result = train(artifacts, small_config(epochs=3, batch_size=4))
    # the training and validation splits compile once each, before the epoch loop
    assert batch_sizes == [n_train, n_valid]
    batch_sizes.clear()
    evaluate(result.model, artifacts.examples)
    assert batch_sizes == [len(artifacts.examples)]
    batch_sizes.clear()
    train(artifacts, small_config(epochs=2, batch_size=4, without_rt=True))
    assert batch_sizes == []


def test_config_validation_errors():
    bad = [
        dict(dim=0),
        dict(layers=0),
        dict(epochs=-1),
        dict(batch_size=0),
        dict(lr=-0.1),
        dict(clip=0.0),
        dict(top_n=0),
        dict(gate_mode="nope"),
        dict(normalization="nope"),
        dict(z=-1.0),
    ]
    for overrides in bad:
        with pytest.raises(ConfigurationError):
            TrainConfig(**{**dict(dim=8), **overrides}).validate()


def test_config_fingerprint_sensitivity():
    a = TrainConfig(dim=8)
    b = TrainConfig(dim=8)
    c = TrainConfig(dim=8, without_ig=True)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()
    assert len(a.fingerprint()) == 12


# ---------------------------------------------------------------------------
# training


def test_train_lr_zero_is_a_no_op(toy_artifacts):
    config = small_config(lr=0.0, epochs=2)
    result = train(toy_artifacts, config)
    fresh = Model(toy_artifacts, config)
    for name in fresh.store.names():
        np.testing.assert_array_equal(result.model.store[name].values,
                                      fresh.store[name].values)
    ks = [1, 3]
    trained_report = evaluate(result.model, toy_artifacts.examples, ks)
    fresh_report = evaluate(fresh, toy_artifacts.examples, ks)
    assert trained_report == fresh_report


def test_train_is_deterministic(toy_artifacts):
    config = small_config(epochs=3)
    r1 = train(toy_artifacts, config)
    r2 = train(toy_artifacts, config)
    assert r1.epoch_losses == r2.epoch_losses
    assert r1.best_epoch == r2.best_epoch
    e1 = evaluate(r1.model, toy_artifacts.examples, [1, 3])
    e2 = evaluate(r2.model, toy_artifacts.examples, [1, 3])
    assert e1 == e2


def test_train_no_valid_split_defaults_to_last_epoch(toy_artifacts):
    result = train(toy_artifacts, small_config(epochs=3))
    assert result.best_epoch == 2
    assert result.epoch_reports == []
    assert len(result.epoch_losses) == 3


def test_training_reduces_loss_on_planted_corpus():
    data = popularity_corpus(seed=3, n_users=20, n_items=12, n_conversations=80)
    artifacts = artifacts_of(data)
    config = TrainConfig(dim=8, epochs=10, batch_size=64, seed=0)
    result = train(artifacts, config, ks=[1, 5])
    assert len(result.epoch_losses) == 10
    assert result.epoch_losses[-1] < result.epoch_losses[0]
    assert all(np.isfinite(result.epoch_losses))


def test_train_tracks_best_validation_epoch():
    data = popularity_corpus(seed=5, n_users=20, n_items=12, n_conversations=80)
    artifacts = artifacts_of(data)
    result = train(artifacts, TrainConfig(dim=8, epochs=4, batch_size=64, seed=0), ks=[1, 5])
    assert len(result.epoch_reports) == 4
    scores = [r.recall[5] for r in result.epoch_reports]
    # strict improvement rule: the first maximum wins
    assert result.best_epoch == int(np.argmax(scores))


def test_train_validation_report_equals_evaluate():
    # train scores a validation split it compiled once; evaluate compiles its own
    artifacts = artifacts_of(popularity_corpus(seed=5, n_users=20, n_items=12,
                                               n_conversations=80))
    result = train(artifacts, TrainConfig(dim=8, epochs=3, batch_size=8, seed=0), ks=[1, 5])
    valid = split_view(artifacts.examples, Split.VALID)
    report = evaluate(result.model, valid, [5, 1], split_label=Split.VALID.value)
    assert report == result.epoch_reports[result.best_epoch]
    assert report.to_text() == result.epoch_reports[result.best_epoch].to_text()


def test_train_rejects_empty_train_split(toy_data, toy_artifacts):
    from convrec.corpus import SPLITS

    corpus = toy_artifacts.corpus
    all_test = dataclasses.replace(corpus, splits=np.full(len(corpus), SPLITS.index(Split.TEST),
                                                          np.int8))
    no_train = dataclasses.replace(toy_artifacts, corpus=all_test)
    assert len(no_train.examples) == len(toy_artifacts.examples)
    with pytest.raises(ValidationError, match="training examples"):
        train(no_train, small_config())


# ---------------------------------------------------------------------------
# the item matrix stops at the rows a split reads


def attribute_artifacts():
    """A popularity corpus whose KG gains attribute entities after the items
    and genres, as in the catalog layout: no conversation mentions them."""
    data = popularity_corpus(seed=3, n_users=30, n_items=20, n_conversations=120)
    entities = data.vocab.entities
    n_read = len(entities)
    attrs = [entities.add(f"A{a}", f"attribute {a}", False) for a in range(6)]
    rng = np.random.default_rng(4)
    actor = len(data.kg.relations)
    extra = [(int(item), actor, attrs[int(rng.integers(len(attrs)))])
             for item in entities.item_ids()]
    kg = TypedGraph(len(entities), (*data.kg.relations, "actor"),
                    [*map(tuple, data.kg.edges.tolist()), *extra])
    return build_artifacts(data.corpus, data.vocab, kg, data.word_graph), n_read


@pytest.mark.parametrize("flags", [(), ("ig",), ("db",), ("ig", "db")])
def test_trimmed_item_matrix_is_the_full_pass_leading_rows(flags):
    artifacts, n_read = attribute_artifacts()
    model = Model(artifacts, ablation_config(small_config(), flags))
    n = model.rows_read(model.contexts(split_view(artifacts.examples, Split.TRAIN)))
    assert n <= n_read < artifacts.kg.n_nodes
    full, _ = model.encoder_outputs()
    part, _ = model.encoder_outputs(n)
    assert full.shape[0] == artifacts.kg.n_nodes and part.shape[0] == n
    assert part.values.tobytes() == full.values[:n].tobytes()


def test_trimmed_training_loss_gradchecks():
    artifacts, _ = attribute_artifacts()
    model = Model(artifacts, small_config())
    contexts = model.contexts(split_view(artifacts.examples, Split.TRAIN))
    n = model.rows_read(contexts)
    assert n < artifacts.kg.n_nodes

    def objective(rows):
        return lambda _: batch_loss(model, contexts, *model.encoder_outputs(rows))[0]

    # the trimmed product's weight gradient sums fewer rows: check all of it
    last = [(name, i) for name in model.store.names() if name.startswith("kg.l1.")
            for i in range(model.store[name].values.size)]
    assert len(last) == 3 * 8 * 8
    assert finite_diff_check(objective(n), model.store, coords=last) < 1e-4
    # elsewhere the check reads as on the full pass; a sampled coordinate with a
    # near-zero gradient can bind both at the step's roundoff
    coords = sample_coords(model.store, 50, seed=0)
    assert {name.split(".")[0] for name, _ in coords} == {"kg", "ig", "word", "att"}
    assert (finite_diff_check(objective(n), model.store, coords=coords)
            == pytest.approx(finite_diff_check(objective(None), model.store, coords=coords),
                             rel=1e-6))


def test_an_entity_row_past_the_trimmed_matrix_raises():
    artifacts, n_read = attribute_artifacts()
    model = Model(artifacts, small_config())
    contexts = model.contexts(split_view(artifacts.examples, Split.TRAIN))
    n = model.rows_read(contexts)
    item_matrix, word_matrix = model.encoder_outputs(n)
    attribute = dataclasses.replace(contexts.take([0]),
                                    entities=Segments.of([[n_read + 2]]))
    with pytest.raises(ShapeError, match="lookup: index out of range"):
        model.users(attribute, item_matrix, word_matrix)
    # evaluate counts the rows of its own record, so the attribute row is read
    assert model.rows_read(attribute) == n_read + 3
    model.users(attribute, *model.encoder_outputs(model.rows_read(attribute)))


def test_training_leaves_an_unreached_group_bit_unchanged():
    artifacts, _ = attribute_artifacts()
    config = small_config(without_ig=True)
    first, second = train(artifacts, config), train(artifacts, config)
    fresh = Model(artifacts, config)
    ig_names = [name for name in fresh.store.names() if name.startswith("ig.")]
    assert ig_names
    for name in ig_names:
        assert first.model.store[name].values.tobytes() == fresh.store[name].values.tobytes()
    assert any(first.model.store[name].values.tobytes() != fresh.store[name].values.tobytes()
               for name in fresh.store.names() if name.startswith("kg."))
    assert first.epoch_losses == second.epoch_losses
    assert first.epoch_reports == second.epoch_reports
    for name, t in first.model.store.items():
        assert t.values.tobytes() == second.model.store[name].values.tobytes(), name


# ---------------------------------------------------------------------------
# ablations


def test_ablation_config_flags():
    cfg = ablation_config(TrainConfig(dim=8), ["ig", "cn"])
    assert cfg.without_ig and cfg.without_cn
    assert not cfg.without_rt and not cfg.without_db
    with pytest.raises(ValueError, match="unknown ablation flag"):
        ablation_config(TrainConfig(dim=8), ["xx"])


def test_ablate_no_flags_equals_eval(toy_artifacts):
    config = small_config(epochs=1)
    reports = ablate(toy_artifacts, config, [], split=Split.TRAIN, ks=[1, 3])
    assert set(reports) == {"full"}
    direct = train(toy_artifacts, config, ks=[1, 3])
    expected = evaluate(direct.model, toy_artifacts.examples, [1, 3],
                        split_label=Split.TRAIN.value)
    assert reports["full"] == expected


def test_ablate_individual_and_combined(toy_artifacts):
    config = small_config(epochs=1)
    singles = ablate(toy_artifacts, config, ["ig", "rt"], split=Split.TRAIN, ks=[1])
    assert set(singles) == {"full", "wo_ig", "wo_rt"}
    combined = ablate(toy_artifacts, config, ["ig", "rt"], combined=True,
                      split=Split.TRAIN, ks=[1])
    assert set(combined) == {"full", "wo_ig+rt"}
    with pytest.raises(ValueError, match="unknown ablation flag"):
        ablate(toy_artifacts, config, ["bogus"], split=Split.TRAIN)


def test_ablate_all_flags_runs(toy_artifacts):
    config = small_config(epochs=1)
    reports = ablate(toy_artifacts, config, list(ABLATION_FLAGS), combined=True,
                     split=Split.TRAIN, ks=[1, 3])
    degenerate = reports["wo_ig+rt+db+cn"]
    assert 0.0 <= degenerate.recall[1] <= degenerate.recall[3] <= 1.0


def test_comparison_table_layout():
    reports = {
        "full": MetricsReport("test", 5, 6, {1: 0.5, 10: 0.9}, {1: 0.5, 10: 0.6}, "aaa"),
        "wo_ig": MetricsReport("test", 5, 6, {1: 0.25, 10: 0.8}, {1: 0.25, 10: 0.5}, "bbb"),
    }
    table = comparison_table(reports, ks=[1, 10])
    lines = table.strip().split("\n")
    assert len(lines) == 3
    assert lines[0].split() == ["variant", "R@1", "R@10", "MRR@1", "MRR@10"]
    assert lines[1].startswith("full")
    assert "0.2500" in lines[2]
    # fixed-width: all rows align on the header's column starts
    assert lines[1].index("0.5000") == lines[0].index("R@1")
