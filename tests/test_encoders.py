import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convrec import autodiff as ad
from convrec.encoders import (
    NORM_CONSTANT,
    NORM_IN_DEGREE,
    encode_items,
    gcn_forward,
    init_gcn_params,
    init_rgcn_params,
    rgcn_forward,
    uniform_init,
)
from convrec.errors import ConfigurationError
from convrec.graphs import InteractionGraph, TypedGraph, build_word_graph
from convrec.optim import ParamStore

from conftest import total
from oracles import dense_gcn, dense_rgcn, finite_diff_check
from test_graphs import typed_graphs


def random_typed_graph(rng, n_nodes, relations, n_edges):
    edges = [
        (int(rng.integers(n_nodes)), int(rng.integers(len(relations))), int(rng.integers(n_nodes)))
        for _ in range(n_edges)
    ]
    return TypedGraph(n_nodes, relations, edges)


def rel_edge_dict(graph):
    """Undirected edge pairs per relation name, as the dense oracle wants them."""
    out = {}
    for rel_idx, rel_name in enumerate(graph.relations):
        pairs = set()
        for u, r, v in graph.edges:
            if r == rel_idx:
                pairs.add((u, v))
        out[rel_name] = sorted(pairs)
    return out


def weight_arrays(params):
    rel = [{name: w.values for name, w in layer.items()} for layer in params.rel_weights]
    self_w = [w.values for w in params.self_weights]
    return rel, self_w


# ---------------------------------------------------------------------------
# initialization


def test_uniform_init_bounds_and_determinism():
    a = uniform_init(np.random.default_rng(3), (50, 16), 16)
    b = uniform_init(np.random.default_rng(3), (50, 16), 16)
    np.testing.assert_array_equal(a, b)
    bound = 1.0 / 4.0
    assert np.abs(a).max() <= bound
    assert a.shape == (50, 16)
    assert a.std() > 0


def test_init_rgcn_registers_all_params():
    store = ParamStore()
    params = init_rgcn_params(store, "kg", 5, ("a", "b"), 4, np.random.default_rng(0))
    assert params.n_layers == 2
    names = set(store.names())
    assert "kg.emb" in names
    assert "kg.l0.rel.a" in names and "kg.l1.rel.b" in names
    assert "kg.l0.self" in names and "kg.l1.self" in names
    assert len(names) == 1 + 2 * (2 + 1)
    assert params.embedding.shape == (5, 4)


def test_init_rgcn_rejects_bad_config():
    store = ParamStore()
    with pytest.raises(ConfigurationError, match="normalization"):
        init_rgcn_params(store, "x", 3, ("r",), 4, np.random.default_rng(0),
                         normalization="bogus")
    with pytest.raises(ConfigurationError, match="positive"):
        init_rgcn_params(ParamStore(), "x", 3, ("r",), 4, np.random.default_rng(0), z=0.0)
    with pytest.raises(ConfigurationError, match="at least one layer"):
        init_rgcn_params(ParamStore(), "x", 3, ("r",), 4, np.random.default_rng(0), layers=0)


# ---------------------------------------------------------------------------
# relational message passing vs dense oracle


@pytest.mark.parametrize("z", [1.0, 2.5])
def test_rgcn_matches_dense_oracle_constant(z):
    rng = np.random.default_rng(11)
    graph = random_typed_graph(rng, 7, ("like", "dislike"), 12)
    store = ParamStore()
    params = init_rgcn_params(store, "g", 7, graph.relations, 5, rng, z=z)
    got = rgcn_forward(graph, params).values
    rel_w, self_w = weight_arrays(params)
    want = dense_rgcn(7, rel_edge_dict(graph), params.embedding.values, rel_w, self_w, z=z)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_rgcn_matches_dense_oracle_in_degree():
    rng = np.random.default_rng(4)
    graph = random_typed_graph(rng, 6, ("r",), 9)
    store = ParamStore()
    params = init_rgcn_params(store, "g", 6, graph.relations, 4, rng,
                              normalization=NORM_IN_DEGREE)
    got = rgcn_forward(graph, params).values
    rel_w, self_w = weight_arrays(params)
    want = dense_rgcn(6, rel_edge_dict(graph), params.embedding.values, rel_w, self_w,
                      in_degree=True)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_rgcn_isolated_nodes_self_transform_only():
    graph = TypedGraph(3, ("r",), [(0, 0, 1)])
    store = ParamStore()
    params = init_rgcn_params(store, "g", 3, ("r",), 4, np.random.default_rng(0), layers=1)
    out = rgcn_forward(graph, params).values
    expected_row2 = np.maximum(params.embedding.values[2] @ params.self_weights[0].values, 0.0)
    np.testing.assert_allclose(out[2], expected_row2, atol=1e-12)


def test_rgcn_config_errors():
    graph = TypedGraph(3, ("r",), [(0, 0, 1)])
    store = ParamStore()
    params = init_rgcn_params(store, "g", 3, ("other",), 4, np.random.default_rng(0))
    with pytest.raises(ConfigurationError, match="relations"):
        rgcn_forward(graph, params)
    params2 = init_rgcn_params(ParamStore(), "g", 5, ("r",), 4, np.random.default_rng(0))
    with pytest.raises(ConfigurationError, match="rows"):
        rgcn_forward(graph, params2)
    params3 = init_rgcn_params(ParamStore(), "g", 3, ("r",), 4, np.random.default_rng(0))
    for n_rows in (-1, 4):
        with pytest.raises(ConfigurationError, match="cannot return"):
            rgcn_forward(graph, params3, n_rows)


def test_rgcn_gradients_flow():
    rng = np.random.default_rng(7)
    graph = random_typed_graph(rng, 5, ("a", "b"), 8)
    store = ParamStore()
    params = init_rgcn_params(store, "g", 5, graph.relations, 3, np.random.default_rng(7))

    def objective(_):
        return total(rgcn_forward(graph, params))

    worst = finite_diff_check(objective, store, samples_per_param=3, seed=1)
    assert worst < 1e-4


@pytest.mark.parametrize("normalization, z", [(NORM_IN_DEGREE, 1.0), (NORM_CONSTANT, 2.5)])
def test_rgcn_gradients_flow_normalized(normalization, z):
    rng = np.random.default_rng(8)
    graph = random_typed_graph(rng, 6, ("a", "b"), 10)
    store = ParamStore()
    params = init_rgcn_params(store, "g", 6, graph.relations, 3, np.random.default_rng(8),
                              z=z, normalization=normalization)

    def objective(_):
        return total(rgcn_forward(graph, params))

    worst = finite_diff_check(objective, store, samples_per_param=3, seed=2)
    assert worst < 1e-4


NORMALIZATIONS = [(NORM_CONSTANT, 1.0), (NORM_CONSTANT, 2.5), (NORM_IN_DEGREE, 1.0)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(typed_graphs(), st.sampled_from(NORMALIZATIONS), st.data())
def test_rgcn_row_restricted_forward_is_the_leading_rows(graph, norm, data):
    n, n_rel, triples = graph
    g = TypedGraph(n, [f"r{i}" for i in range(n_rel)], triples)
    normalization, z = norm
    params = init_rgcn_params(ParamStore(), "g", n, g.relations, 3, np.random.default_rng(n),
                              z=z, normalization=normalization)
    full = rgcn_forward(g, params).values
    for n_rows in sorted({0, n, data.draw(st.integers(0, n))}):
        part = rgcn_forward(g, params, n_rows).values
        assert part.shape == (n_rows, 3)
        if n_rows in (0, n):
            np.testing.assert_array_equal(part, full[:n_rows])
        else:
            np.testing.assert_allclose(part, full[:n_rows], rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_rows", [0, 2, 6])
@pytest.mark.parametrize("normalization, z", [(NORM_IN_DEGREE, 1.0), (NORM_CONSTANT, 2.5)])
def test_rgcn_row_restricted_gradients(n_rows, normalization, z):
    rng = np.random.default_rng(12)
    graph = random_typed_graph(rng, 6, ("a", "b"), 10)
    store = ParamStore()
    params = init_rgcn_params(store, "g", 6, graph.relations, 3, rng,
                              z=z, normalization=normalization)
    c = ad.constant(rng.normal(size=(n_rows, 3)))

    def objective(_):
        return total(ad.mul(c, rgcn_forward(graph, params, n_rows)))

    worst = finite_diff_check(objective, store, samples_per_param=4, seed=3)
    assert worst < 1e-4


def test_rgcn_reuses_cached_relation_operators():
    rng = np.random.default_rng(12)
    graph = random_typed_graph(rng, 7, ("a", "b"), 12)
    const = init_rgcn_params(ParamStore(), "c", 7, graph.relations, 4, rng, z=2.5)
    first = rgcn_forward(graph, const).values
    layer_op = graph._layer_operators[(False, 2.5, 7)]
    assert sorted(graph._layer_operators) == [(False, 2.5, 7)]
    np.testing.assert_array_equal(rgcn_forward(graph, const).values, first)
    assert list(graph._layer_operators) == [(False, 2.5, 7)]
    assert graph._layer_operators[(False, 2.5, 7)] is layer_op
    rgcn_forward(graph, const, 3)  # the last layer's leading row block, cached beside it
    assert sorted(graph._layer_operators) == [(False, 2.5, 3), (False, 2.5, 7)]
    block = graph._layer_operators[(False, 2.5, 3)]
    rgcn_forward(graph, const, 3)
    assert graph._layer_operators[(False, 2.5, 3)] is block
    in_deg = init_rgcn_params(ParamStore(), "d", 7, graph.relations, 4, rng,
                              normalization=NORM_IN_DEGREE)
    rgcn_forward(graph, in_deg)
    assert sorted(graph._layer_operators) == [(False, 2.5, 3), (False, 2.5, 7), (True, 1.0, 7)]
    assert graph._layer_operators[(False, 2.5, 7)] is layer_op


def test_rgcn_forward_without_a_tape_holds_one_layer_product_at_a_time():
    # a layer's (n (R + 1), d) product is freed before the next layer builds its own
    rng = np.random.default_rng(14)
    n, relations, d = 1000, ("a", "b", "c"), 32
    graph = random_typed_graph(rng, n, relations, 3000)
    params = init_rgcn_params(ParamStore(), "p", n, relations, d, rng, layers=3)
    graph.layer_operator(in_degree=False, z=1.0)  # cached first: only the pass's arrays count
    with ad.no_grad():
        tracemalloc.start()
        try:
            rgcn_forward(graph, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1.75 * n * (len(relations) + 1) * d * 8


@pytest.mark.parametrize("normalization, z", [(NORM_IN_DEGREE, 1.0), (NORM_CONSTANT, 2.5)])
def test_rgcn_relation_without_edges_matches_oracle_and_gets_zero_gradient(normalization, z):
    rng = np.random.default_rng(13)
    edges = [(int(rng.integers(7)), int(rng.integers(2)), int(rng.integers(7))) for _ in range(12)]
    graph = TypedGraph(7, ("a", "empty", "b"), [(h, 2 * r, t) for h, r, t in edges])
    assert graph.layer_operator(in_degree=False, z=1.0)[0][1::4].nnz == 0  # relation 1's rows
    store = ParamStore()
    params = init_rgcn_params(store, "g", 7, graph.relations, 4, rng, z=z,
                              normalization=normalization)
    out = rgcn_forward(graph, params)
    rel_w, self_w = weight_arrays(params)
    want = dense_rgcn(7, rel_edge_dict(graph), params.embedding.values, rel_w, self_w, z=z,
                      in_degree=normalization == NORM_IN_DEGREE)
    np.testing.assert_allclose(out.values, want, atol=1e-12)
    ad.backward(total(ad.mul(out, out)))
    for layer in params.rel_weights:
        assert np.array_equal(layer["empty"].grad, np.zeros((4, 4)))
        assert np.abs(layer["a"].grad).max() > 0 and np.abs(layer["b"].grad).max() > 0


# ---------------------------------------------------------------------------
# word-graph convolution vs dense oracle


def test_gcn_matches_dense_oracle():
    rng = np.random.default_rng(2)
    pairs = [(int(a), int(b)) for a, b in rng.integers(0, 6, size=(10, 2))]
    wg = build_word_graph(pairs)
    n = wg.n_nodes
    store = ParamStore()
    params = init_gcn_params(store, "w", n, 4, rng)
    got = gcn_forward(wg, params).values
    want = dense_gcn(n, wg.pairs.tolist(), params.embedding.values,
                     [w.values for w in params.weights])
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_gcn_single_node():
    wg = build_word_graph([(0, 0)])
    assert wg.adjacency.toarray().tolist() == [[1.0]]
    store = ParamStore()
    params = init_gcn_params(store, "w", 1, 3, np.random.default_rng(0))
    out = gcn_forward(wg, params).values
    h = params.embedding.values
    for w in params.weights:
        h = np.maximum(h @ w.values, 0.0)
    np.testing.assert_allclose(out, h, atol=1e-12)


def test_gcn_gradients_flow():
    wg = build_word_graph([(0, 1), (1, 2), (2, 3)])
    store = ParamStore()
    params = init_gcn_params(store, "w", 4, 3, np.random.default_rng(5))

    def objective(_):
        return total(gcn_forward(wg, params))

    worst = finite_diff_check(objective, store, samples_per_param=3, seed=2)
    assert worst < 1e-4


# ---------------------------------------------------------------------------
# popularity augmentation


@pytest.fixture()
def aug_setup():
    rng = np.random.default_rng(9)
    kg = TypedGraph(6, ("genre",), [(0, 0, 4), (1, 0, 4), (2, 0, 5)])
    # items 0..3 are graph entities; interaction graph covers items 0 and 2 (rows 0
    # and 1), liked by users u0 and u1 (rows 2 and 3), and item 2 disliked by u1
    interaction = InteractionGraph(["u0", "u1"], [0, 2],
                                   [(0, 0, 2), (0, 0, 3), (1, 1, 3)])
    store = ParamStore()
    kg_params = init_rgcn_params(store, "kg", 6, ("genre",), 4, rng)
    ig_params = init_rgcn_params(store, "ig", interaction.n_nodes,
                                 ("like", "dislike"), 4, rng)
    return kg, interaction, kg_params, ig_params


def test_encode_items_adds_interaction_rows(aug_setup):
    kg, interaction, kg_params, ig_params = aug_setup
    base = rgcn_forward(kg, kg_params).values
    ig_out = rgcn_forward(interaction, ig_params).values
    full = encode_items(kg, interaction, kg_params, ig_params).values
    assert full.shape == base.shape
    np.testing.assert_allclose(full[0], base[0] + ig_out[0], atol=1e-12)
    np.testing.assert_allclose(full[2], base[2] + ig_out[1], atol=1e-12)
    # entities without interaction evidence keep the plain KG encoding
    for e in (1, 3, 4, 5):
        np.testing.assert_allclose(full[e], base[e], atol=1e-12)


def test_encode_items_without_ig(aug_setup):
    kg, interaction, kg_params, ig_params = aug_setup
    out = encode_items(kg, interaction, kg_params, ig_params, without_ig=True).values
    np.testing.assert_allclose(out, rgcn_forward(kg, kg_params).values, atol=1e-12)


def test_encode_items_without_db(aug_setup):
    kg, interaction, kg_params, ig_params = aug_setup
    out = encode_items(kg, interaction, kg_params, ig_params, without_db=True).values
    ig_out = rgcn_forward(interaction, ig_params).values
    want = kg_params.embedding.values.copy()
    want[0] += ig_out[0]
    want[2] += ig_out[1]
    np.testing.assert_allclose(out, want, atol=1e-12)


def test_encode_items_no_interaction_graph(aug_setup):
    # a graph without items is the one "no interactions" case
    kg, _, kg_params, _ = aug_setup
    out = encode_items(kg, InteractionGraph(["u0"], [], []), kg_params, None).values
    np.testing.assert_allclose(out, rgcn_forward(kg, kg_params).values, atol=1e-12)


def test_encode_items_config_errors(aug_setup):
    kg, interaction, kg_params, _ = aug_setup
    with pytest.raises(ConfigurationError, match="no interaction parameters"):
        encode_items(kg, interaction, kg_params, None)
    small = init_rgcn_params(ParamStore(), "ig", interaction.n_nodes,
                             ("like", "dislike"), 2, np.random.default_rng(0))
    with pytest.raises(ConfigurationError, match="dims differ"):
        encode_items(kg, interaction, kg_params, small)


def test_encode_items_gradients_flow(aug_setup):
    kg, interaction, _, _ = aug_setup
    store = ParamStore()
    rng = np.random.default_rng(3)
    kg_p = init_rgcn_params(store, "kg", 6, ("genre",), 3, rng)
    ig_p = init_rgcn_params(store, "ig", interaction.n_nodes,
                            ("like", "dislike"), 3, rng)

    def objective(_):
        return total(encode_items(kg, interaction, kg_p, ig_p))

    worst = finite_diff_check(objective, store, samples_per_param=2, seed=4)
    assert worst < 1e-4
