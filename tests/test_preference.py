import numpy as np
import pytest

from convrec import autodiff as ad
from convrec.errors import ShapeError
from convrec.optim import ParamStore
from convrec.preference import (
    GATE_ELEMENTWISE,
    GATE_SCALAR,
    _pool,
    build_user_representation,
    init_attention_params,
)
from convrec.autodiff import Segments
from convrec.recommender import Model, TrainConfig, item_logits, rec_loss

from conftest import attention_weights, total
from oracles import finite_diff_check, user_vector_reference


def make_params(dim=4, gate_mode=GATE_ELEMENTWISE, seed=0):
    store = ParamStore()
    params = init_attention_params(store, "att", dim, np.random.default_rng(seed),
                                   gate_mode=gate_mode)
    return store, params


def pool_oracle(rows, w, b):
    scores = np.tanh(rows @ w) @ b
    alpha = np.exp(scores - scores.max())
    alpha /= alpha.sum()
    return alpha @ rows


def user_rep(entity_groups, word_groups, item_matrix, word_matrix, params):
    """build_user_representation of per-example row groups, laid out as CSR pairs."""
    return build_user_representation(Segments.of(entity_groups), Segments.of(word_groups),
                                     item_matrix, word_matrix, params)


def pool_segments(matrix, groups, params):
    return _pool(ad.constant(matrix), Segments.of(groups), params.w_entity, params.b_entity).values


# ---------------------------------------------------------------------------
# attention pooling: one segment softmax and one segment sum per batch


def test_layout_concatenates_rows_with_offsets():
    field = Segments.of([[3, 1], [], (4, 4, 2)])
    assert field.rows.tolist() == [3, 1, 4, 4, 2]
    assert field.offsets.tolist() == [0, 2, 2, 5]
    assert field.rows.dtype == field.offsets.dtype == np.intp
    assert len(field) == 3
    assert [part.tolist() for part in field.nonempty] == [[0, 2], [0, 2], [2, 3]]
    field = Segments.of([[], []])
    assert field.rows.tolist() == [] and field.offsets.tolist() == [0, 0, 0]
    assert [part.tolist() for part in field.nonempty] == [[], [], []]
    field = Segments.of([])
    assert field.rows.tolist() == [] and field.offsets.tolist() == [0] and len(field) == 0


def test_attention_pool_matches_formula():
    rng = np.random.default_rng(1)
    matrix = rng.normal(size=(9, 4))
    _, params = make_params()
    groups = [[0, 1, 2, 3, 4], [5, 6], [7, 8, 0]]
    got = pool_segments(matrix, groups, params)
    for row, group in zip(got, groups):
        want = pool_oracle(matrix[group], params.w_entity.values, params.b_entity.values)
        np.testing.assert_allclose(row, want, atol=1e-12)


def test_attention_pool_single_row_is_identity():
    rng = np.random.default_rng(2)
    matrix = rng.normal(size=(3, 4))
    _, params = make_params()
    got = pool_segments(matrix, [[2], [0], [1]], params)
    np.testing.assert_allclose(got, matrix[[2, 0, 1]], atol=1e-12)


def test_attention_pool_output_in_convex_hull():
    rng = np.random.default_rng(3)
    matrix = rng.normal(size=(10, 4))
    _, params = make_params()
    groups = [[0, 1, 2, 3, 4, 5], [6, 7, 8, 9]]
    for row, group in zip(pool_segments(matrix, groups, params), groups):
        assert (row <= matrix[group].max(axis=0) + 1e-12).all()
        assert (row >= matrix[group].min(axis=0) - 1e-12).all()


def test_attention_pool_empty_segment_is_zero():
    rng = np.random.default_rng(4)
    matrix = rng.normal(size=(3, 4))
    _, params = make_params()
    got = pool_segments(matrix, [[], [1, 2], []], params)
    np.testing.assert_array_equal(got[[0, 2]], np.zeros((2, 4)))
    np.testing.assert_array_equal(pool_segments(matrix, [[], []], params), np.zeros((2, 4)))


def test_attention_pool_gradcheck():
    rng = np.random.default_rng(4)
    store, params = make_params()
    matrix = store.add("rows", rng.normal(size=(5, 4)))
    source = Segments.of([[0, 1, 1], [], [4], [2, 3]])

    def objective(_):
        return total(_pool(matrix, source, params.w_entity, params.b_entity))

    worst = finite_diff_check(objective, store, samples_per_param=4, seed=0)
    assert worst < 1e-4


def test_offsets_are_checked_once_per_field_built_from_outside(toy_artifacts, monkeypatch):
    checked = []
    init = Segments.__init__

    def counting(self, rows, offsets):
        checked.append(np.asarray(offsets).tolist())
        init(self, rows, offsets)

    monkeypatch.setattr(Segments, "__init__", counting)
    model = Model(toy_artifacts, TrainConfig(dim=8, seed=0))
    assert model.artifacts.index is not None  # the compile retrieves
    contexts = model.contexts(toy_artifacts.examples)  # of, lookup and none build every field
    batch = contexts.take([3, 0, 3, 1])
    item_matrix, word_matrix = model.encoder_outputs(model.rows_read(contexts))
    item_rows = ad.lookup(item_matrix, model.artifacts.item_ids)

    def loss(entities, gold):
        rep = build_user_representation(entities, batch.words, item_matrix, word_matrix,
                                        model.att_params)
        loss, _ = rec_loss(item_logits(rep.vector, item_rows, batch.masked), gold)
        ad.backward(loss)  # the pool, the segment ops and the loss, forward and backward

    loss(batch.entities, batch.gold)
    assert batch.entities.rows.size and batch.words.rows.size and batch.masked.rows.size
    assert checked == []
    entities = Segments(batch.entities.rows, batch.entities.offsets)
    gold = Segments(batch.gold.rows, batch.gold.offsets)
    assert checked == [batch.entities.offsets.tolist(), batch.gold.offsets.tolist()]
    loss(entities, gold)
    assert len(checked) == 2


# ---------------------------------------------------------------------------
# gate fusion: one-row sources pool to their row, so v_e and v_w are set exactly


def gate_batch(ve, vw, params):
    """User representations of examples b whose only entity and word rows are ve[b] and vw[b]."""
    groups = [[b] for b in range(len(ve))]
    return user_rep(groups, groups, ad.constant(ve), ad.constant(vw), params)


def gate_oracle(ve, vw, params):
    logits = np.concatenate([ve, vw], axis=1) @ params.w_gate.values.T
    return 1.0 / (1.0 + np.exp(-logits))


def test_gate_fuse_elementwise_oracle():
    rng = np.random.default_rng(5)
    _, params = make_params()
    ve, vw = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    rep = gate_batch(ve, vw, params)
    g = gate_oracle(ve, vw, params)
    assert rep.gamma.shape == (3, 4)
    np.testing.assert_allclose(rep.gamma, g, atol=1e-12)
    np.testing.assert_allclose(rep.vector.values, g * ve + (1 - g) * vw, atol=1e-12)


def test_gate_fuse_scalar_oracle():
    rng = np.random.default_rng(6)
    _, params = make_params(gate_mode=GATE_SCALAR)
    assert params.w_gate.shape == (1, 8)
    ve, vw = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    rep = gate_batch(ve, vw, params)
    g = gate_oracle(ve, vw, params)
    assert rep.gamma.shape == (3, 1)
    np.testing.assert_allclose(rep.gamma, g, atol=1e-12)
    np.testing.assert_allclose(rep.vector.values, g * ve + (1 - g) * vw, atol=1e-12)


def test_gate_stays_in_unit_interval():
    rng = np.random.default_rng(7)
    _, params = make_params()
    for _ in range(10):
        rep = gate_batch(rng.normal(size=(2, 4)) * 50, rng.normal(size=(2, 4)) * 50, params)
        # saturates to the closed interval in float64, never outside it
        assert (rep.gamma >= 0).all() and (rep.gamma <= 1).all()
        assert np.isfinite(rep.gamma).all()


def test_init_attention_rejects_unknown_gate_mode():
    with pytest.raises(ValueError, match="gate mode"):
        init_attention_params(ParamStore(), "a", 4, np.random.default_rng(0),
                              gate_mode="diagonal")


def test_gate_fuse_gradcheck_both_modes():
    rng = np.random.default_rng(8)
    ve, vw = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
    for mode in (GATE_ELEMENTWISE, GATE_SCALAR):
        store, params = make_params(gate_mode=mode)

        def objective(_):
            return total(gate_batch(ve, vw, params).vector)

        worst = finite_diff_check(objective, store, samples_per_param=4, seed=1)
        assert worst < 1e-4


# ---------------------------------------------------------------------------
# context rows: mentioned then retrieved entities, and the words that have a row


@pytest.fixture()
def matrices():
    rng = np.random.default_rng(9)
    item_matrix = ad.constant(rng.normal(size=(8, 4)))
    word_matrix = ad.constant(rng.normal(size=(3, 4)))
    word_rows = {10: 0, 11: 1, 12: 2}
    return item_matrix, word_matrix, word_rows


def reference(matrices, params, entities, words, *, word_matrix=True):
    item_matrix, wm, word_rows = matrices
    return user_vector_reference(item_matrix.values, wm.values if word_matrix else None,
                                 word_rows, entities, words, attention_weights(params))


def test_gather_context_rows(matrices):
    item_matrix, word_matrix, _ = matrices
    _, params = make_params()
    # mentioned rows 2, 4 then retrieved rows 5, 6; the word rows keep duplicates
    rep = user_rep([[2, 4, 5, 6], [7]], [[0, 2, 0], []], item_matrix, word_matrix, params)
    vector, gamma, _ = reference(matrices, params, [2, 4, 5, 6], [10, 12, 10])
    np.testing.assert_allclose(rep.vector.values[0], vector, atol=1e-12)
    np.testing.assert_allclose(rep.gamma[0], gamma, atol=1e-12)
    np.testing.assert_allclose(rep.vector.values[1], reference(matrices, params, [7], [])[0],
                               atol=1e-12)


def test_gather_context_counts_missing_words(matrices):
    # words without a row never reach the user side: it pools the found rows only
    item_matrix, word_matrix, _ = matrices
    _, params = make_params()
    rep = user_rep([[], [1], [1]], [[0], [], [1]], item_matrix, word_matrix, params)
    for b, (entities, words, missing) in enumerate(
            [([], [10, 99, 98], 2), ([1], [97], 1), ([1], [11], 0)]):
        vector, _, counted = reference(matrices, params, entities, words)
        assert counted == missing
        np.testing.assert_allclose(rep.vector.values[b], vector, atol=1e-12)
    assert rep.cold_start.tolist() == [False, False, False]


def test_gather_context_no_word_graph(matrices):
    item_matrix, _, _ = matrices
    _, params = make_params()
    rep = user_rep([[1]], [[]], item_matrix, None, params)
    np.testing.assert_allclose(rep.vector.values[0],
                               reference(matrices, params, [1], [10, 11], word_matrix=False)[0],
                               atol=1e-12)


# ---------------------------------------------------------------------------
# full user representation


def test_user_representation_cold_start(matrices):
    item_matrix, word_matrix, _ = matrices
    _, params = make_params()
    rep = user_rep([[], [3], []], [[], [], []], item_matrix, word_matrix, params)
    assert rep.cold_start.tolist() == [True, False, True]
    assert rep.cold_start.dtype == bool
    np.testing.assert_array_equal(rep.vector.values[[0, 2]], np.zeros((2, 4)))
    assert rep.vector.shape == (3, 4)


def test_user_representation_entity_only(matrices):
    item_matrix, word_matrix, _ = matrices
    _, params = make_params()
    rep = user_rep([[3]], [[]], item_matrix, word_matrix, params)
    assert not rep.cold_start[0]
    # v_word is zero, so the fused vector is gamma * item row
    np.testing.assert_allclose(rep.vector.values[0], rep.gamma[0] * item_matrix.values[3],
                               atol=1e-12)


def test_user_representation_combines_retrieved(matrices):
    item_matrix, word_matrix, _ = matrices
    _, params = make_params()
    rep = user_rep([[1, 6, 7]], [[]], item_matrix, word_matrix, params)
    expected_pool = pool_oracle(item_matrix.values[[1, 6, 7]],
                                params.w_entity.values, params.b_entity.values)
    np.testing.assert_allclose(rep.vector.values[0], rep.gamma[0] * expected_pool, atol=1e-12)


def test_user_representation_without_rt(matrices):
    # without retrieval an example's entity group holds its mentioned rows only
    item_matrix, word_matrix, _ = matrices
    _, params = make_params()
    with_rt = user_rep([[1, 6, 7], [2, 3]], [[], [0]], item_matrix, word_matrix, params)
    wo_rt = user_rep([[1], [2]], [[], [0]], item_matrix, word_matrix, params)
    for b, (entities, words) in enumerate([([1], []), ([2], [10])]):
        np.testing.assert_allclose(wo_rt.vector.values[b],
                                   reference(matrices, params, entities, words)[0], atol=1e-12)
    assert not np.allclose(with_rt.vector.values[0], wo_rt.vector.values[0])
    assert not np.allclose(with_rt.vector.values[1], wo_rt.vector.values[1])


def test_user_representation_without_cn(matrices):
    # without the word graph every word group is empty, and no word matrix is needed
    item_matrix, word_matrix, _ = matrices
    _, params = make_params()
    wo_cn = user_rep([[1]], [[]], item_matrix, None, params)
    no_words = user_rep([[1]], [[]], item_matrix, word_matrix, params)
    np.testing.assert_array_equal(wo_cn.vector.values, no_words.vector.values)
    np.testing.assert_allclose(
        wo_cn.vector.values[0],
        reference(matrices, params, [1], [10, 11], word_matrix=False)[0], atol=1e-12)


def test_user_representation_duplicate_entity_rows(matrices):
    # retrieval may resurface a mentioned entity; both rows take part in pooling
    item_matrix, word_matrix, _ = matrices
    _, params = make_params()
    rep = user_rep([[1, 1]], [[]], item_matrix, word_matrix, params)
    # pooling duplicate rows of the same vector returns that vector
    np.testing.assert_allclose(rep.vector.values[0], rep.gamma[0] * item_matrix.values[1],
                               atol=1e-12)


def test_user_representation_rejects_misaligned_groups(matrices):
    item_matrix, word_matrix, _ = matrices
    _, params = make_params()
    with pytest.raises(ShapeError, match="2 entity groups for 1 word groups"):
        user_rep([[1], [2]], [[]], item_matrix, word_matrix, params)


def test_user_representation_rejects_word_rows_without_word_matrix(matrices):
    item_matrix, _, _ = matrices
    _, params = make_params()
    with pytest.raises(ShapeError, match="2 word rows given without a word matrix"):
        user_rep([[1], []], [[], [0, 1]], item_matrix, None, params)


def test_user_representation_gradcheck():
    rng = np.random.default_rng(10)
    store, params = make_params()
    item_matrix = store.add("items", rng.normal(size=(8, 4)))
    word_matrix = store.add("words", rng.normal(size=(3, 4)))
    entity_rows = [[2, 4, 5], [], [], [4, 4, 6]]
    word_rows = [[0, 1, 2], [], [2], []]

    def objective(_):
        rep = user_rep(entity_rows, word_rows, item_matrix, word_matrix, params)
        return total(ad.tanh(rep.vector))

    worst = finite_diff_check(objective, store, samples_per_param=4, seed=2)
    assert worst < 1e-4


def test_user_representation_matches_per_example_oracle():
    # mixed batches: cold start, empty retrieval, missing words and duplicate
    # rows, under both gate modes and every without_rt / without_cn setting;
    # an ablated source reaches the user side as empty row groups
    rng = np.random.default_rng(11)
    dim, n_items, n_words = 5, 12, 6
    item_matrix = ad.constant(rng.normal(size=(n_items, dim)))
    word_matrix = ad.constant(rng.normal(size=(n_words, dim)))
    word_rows = {100 + r: r for r in range(n_words)}  # ids 100 + n_words.. are missing
    checked = 0
    for mode in (GATE_ELEMENTWISE, GATE_SCALAR):
        _, params = make_params(dim=dim, gate_mode=mode, seed=int(rng.integers(1 << 30)))
        weights = attention_weights(params)
        for without_rt in (False, True):
            for without_cn in (False, True):
                words_matrix = None if without_cn else word_matrix
                for _ in range(10):
                    size = int(rng.integers(1, 8))
                    mentioned, retrieved, words = [], [], []
                    for _ in range(size):
                        mentioned.append(
                            rng.integers(0, n_items, size=rng.integers(0, 4)).tolist())
                        words.append((100 + rng.integers(0, n_words + 3,
                                                         size=rng.integers(0, 5))).tolist())
                        retrieved.append([] if rng.random() < 0.3 else rng.integers(
                            0, n_items, size=rng.integers(0, 3)).tolist())
                    entity_groups = [m + ([] if without_rt else r)
                                     for m, r in zip(mentioned, retrieved)]
                    word_groups = [[] if without_cn else [word_rows[w] for w in ws
                                                          if w in word_rows]
                                   for ws in words]
                    rep = user_rep(entity_groups, word_groups, item_matrix, words_matrix,
                                   params)
                    for b, (entities, ws) in enumerate(zip(entity_groups, words)):
                        vector, gamma, missing = user_vector_reference(
                            item_matrix.values, None if without_cn else word_matrix.values,
                            word_rows, entities, ws, weights)
                        np.testing.assert_allclose(rep.vector.values[b], vector,
                                                   rtol=0, atol=1e-12)
                        np.testing.assert_allclose(rep.gamma[b], gamma, rtol=0, atol=1e-12)
                        assert rep.cold_start[b] == (not entities and missing == len(ws))
                        checked += 1
    assert checked > 100
