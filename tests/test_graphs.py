import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convrec import graphs
from convrec.corpus import (
    EntityVocab,
    Sentiment,
    Speaker,
    Split,
    WordVocab,
    load_corpus,
    save_corpus,
)
from convrec.errors import MissingArtifactError, ParseError, ValidationError
from convrec.graphs import (
    INTERACTION_RELATIONS,
    TypedGraph,
    build_interaction_graph,
    build_word_graph,
    load_item_kg,
    load_word_graph,
    normalize_adjacency,
    save_kg,
    save_word_graph,
)

from oracles import (
    Conversation,
    Mention,
    Utterance,
    corpus_of,
    neighbor_lists,
    normalized_adjacency_reference,
)


def make_entities(n_items=4, n_attrs=2):
    v = EntityVocab()
    for i in range(n_items):
        v.add(f"I{i}", f"item {i}", True)
    for a in range(n_attrs):
        v.add(f"A{a}", f"attr {a}", False)
    return v


def conv(cid, uid, split, mentions):
    utts = (Utterance(speaker=Speaker.SEEKER, text="", content_words=(),
                      mentions=tuple(Mention(entity=e, sentiment=s) for e, s in mentions)),)
    return Conversation(conversation_id=cid, user_id=uid, split=split, utterances=utts)


def operator_rows(op):
    """(neighbor columns, values) of every row of a CSR operator, in storage order."""
    return [(op.indices[a:b].tolist(), op.data[a:b].tolist())
            for a, b in zip(op.indptr[:-1], op.indptr[1:])]


def relation_block(graph, rel, *, in_degree=False, z=1.0):
    """Relation ``rel``'s (n, n) row block of the layer operator: rows i * (R + 1) + rel."""
    op, _ = graph.layer_operator(in_degree=in_degree, z=z)
    return op[rel::len(graph.relations) + 1]


def neighbors(graph, rel):
    return [cols for cols, _ in operator_rows(relation_block(graph, rel))]


# ---------------------------------------------------------------------------
# TypedGraph


def test_typed_graph_dedups_and_sorts_edges():
    g = TypedGraph(3, ("r",), [(2, 0, 1), (1, 0, 2), (2, 0, 1), (0, 0, 1)])
    # (1,0,2) and (2,0,1) are distinct triples but the same undirected pair;
    # triples dedup exactly, operator rows dedup the pair
    assert g.edges.dtype == np.intp
    assert g.edges.tolist() == [[0, 0, 1], [1, 0, 2], [2, 0, 1]]
    assert neighbors(g, 0) == [[1], [0, 2], [1]]
    assert len(g.edges) == 3


def test_typed_graph_validates():
    with pytest.raises(ValidationError):
        TypedGraph(2, ("r",), [(0, 0, 5)])
    with pytest.raises(ValidationError):
        TypedGraph(2, ("r",), [(0, 3, 1)])
    with pytest.raises(ValidationError):
        TypedGraph(2, ("r", "r"))
    with pytest.raises(ValidationError):
        TypedGraph(-1, ("r",))


def test_typed_graph_errors_name_first_bad_triple_in_input_order():
    with pytest.raises(ValidationError, match=re.escape("edge endpoint out of range: (0, 0, 9)")):
        TypedGraph(3, ("r",), [(0, 0, 1), (0, 0, 9), (0, 7, 1), (-1, 0, 0)])
    with pytest.raises(ValidationError, match="^relation index out of range: 7$"):
        TypedGraph(3, ("r",), [(2, 0, 1), (0, 7, 1), (0, 0, 9)])
    # within one triple the endpoint check comes first
    with pytest.raises(ValidationError, match=re.escape("edge endpoint out of range: (-1, 4, 0)")):
        TypedGraph(3, ("r",), [(-1, 4, 0)])
    with pytest.raises(ValidationError, match="rows, got shape"):
        TypedGraph(3, ("r",), [(0, 1)])


def test_typed_graph_memory_does_not_grow_with_node_count():
    # no per-node objects: 50k nodes with two edges stay far below 1 MB
    tracemalloc.start()
    try:
        TypedGraph(50_000, ("a", "b", "c", "d"), [(0, 0, 1), (2, 3, 49_999)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_typed_graph_is_undirected():
    g = TypedGraph(4, ("a", "b"), [(0, 0, 3), (3, 1, 1)])
    assert neighbors(g, 0) == [[3], [], [], [0]]
    assert neighbors(g, 1) == [[], [3], [], [1]]


def test_relation_operator_rows_ordered_by_destination():
    g = TypedGraph(4, ("r",), [(0, 0, 2), (1, 0, 2), (3, 0, 0)])
    op = relation_block(g, 0)
    # rows are destinations; neighbor ids ascend within each row
    dst = np.repeat(np.arange(4), np.diff(op.indptr))
    pairs = list(zip(dst.tolist(), op.indices.tolist()))
    assert pairs == [(0, 2), (0, 3), (1, 2), (2, 0), (2, 1), (3, 0)]


def test_relation_operator_self_loop_counts_once():
    g = TypedGraph(2, ("r",), [(0, 0, 0), (0, 0, 1)])
    assert operator_rows(relation_block(g, 0, in_degree=True)) == [
        ([0, 1], [0.5, 0.5]), ([0], [1.0])]


def test_relation_operator_holds_destination_norm_and_is_cached():
    g = TypedGraph(4, ("r",), [(0, 0, 2), (1, 0, 2), (3, 0, 0)])
    op = relation_block(g, 0, in_degree=True)
    # values norm[dst] in every row: 1 / in-degree of the row's node
    assert operator_rows(op) == [([2, 3], [0.5, 0.5]), ([2], [1.0]),
                                 ([0, 1], [0.5, 0.5]), ([0], [1.0])]
    full = g.layer_operator(in_degree=True, z=1.0)
    assert g.layer_operator(in_degree=True, z=3.0) is full  # z is ignored in this mode
    const = relation_block(g, 0, z=4.0)
    np.testing.assert_array_equal(const.indptr, op.indptr)
    np.testing.assert_array_equal(const.indices, op.indices)
    np.testing.assert_array_equal(const.data, np.full(op.nnz, 0.25))
    assert relation_block(g, 0).nnz == op.nnz == 6


def test_adding_remote_edge_preserves_local_messages():
    # 2-hop locality: rows of untouched destinations keep identical src order
    base = relation_block(TypedGraph(6, ("r",), [(0, 0, 1), (1, 0, 2)]), 0)
    extended = relation_block(TypedGraph(6, ("r",), [(0, 0, 1), (1, 0, 2), (4, 0, 5)]), 0)
    assert operator_rows(extended)[:4] == operator_rows(base)[:4]
    assert operator_rows(extended)[4:] == [([5], [1.0]), ([4], [1.0])]


@st.composite
def typed_graphs(draw):
    """Random graphs with self-loops, pairs given both ways and duplicate triples.

    The last relation never gets an edge; ``n_nodes`` 0 and 1 are included.
    """
    n = draw(st.integers(0, 6))
    n_rel = draw(st.integers(1, 3))
    triples = []
    if n:
        node = st.integers(0, n - 1)
        triples = draw(st.lists(st.tuples(node, st.integers(0, n_rel - 1), node), max_size=14))
    triples += [(t, r, h) for h, r, t in triples[::2]] + triples[::3]
    return n, n_rel + 1, triples


@settings(max_examples=200, deadline=None, derandomize=True)
@given(typed_graphs(), st.sampled_from([None, 1.0, 2.5]))
def test_relation_operator_rows_match_neighbor_oracle(graph, z):
    n, n_rel, triples = graph
    g = TypedGraph(n, [f"r{i}" for i in range(n_rel)], triples)
    assert g.edges.shape == (len(set(triples)), 3)
    assert g.edges.tolist() == [list(t) for t in sorted(set(triples))]
    for rel in range(n_rel):
        op = relation_block(g, rel, in_degree=z is None, z=z or 1.0)
        assert op.shape == (n, n)
        rows = operator_rows(op)
        for (cols, vals), want in zip(rows, neighbor_lists(n, triples, rel), strict=True):
            assert cols == want
            norm = 1 / z if z is not None else 1 / max(len(want), 1)
            assert vals == [norm] * len(want)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(typed_graphs(), st.sampled_from([None, 1.0, 2.5]))
def test_layer_operator_interleaves_relation_operators_and_identity(graph, z):
    n, n_rel, triples = graph
    g = TypedGraph(n, [f"r{i}" for i in range(n_rel)], triples)
    kwargs = {"in_degree": z is None, "z": z or 1.0}
    op, op_t = g.layer_operator(**kwargs)
    assert op.shape == ((n_rel + 1) * n, n)
    # each relation's row block is checked against the neighbor oracle above
    assert operator_rows(op[n_rel::n_rel + 1]) == [([i], [1.0]) for i in range(n)]
    assert g.layer_operator(**kwargs)[0] is op and g.layer_operator(**kwargs)[1] is op_t
    # the transpose is a CSC over the CSR's own arrays
    assert op_t.format == "csc" and op_t.shape == (n, (n_rel + 1) * n)
    assert np.shares_memory(op_t.indptr, op.indptr)
    assert op.nnz == 0 or (np.shares_memory(op_t.data, op.data)
                           and np.shares_memory(op_t.indices, op.indices))
    for n_rows in sorted({0, n // 2, n}):
        block, block_t = g.layer_operator(**kwargs, n_rows=n_rows)
        assert g.layer_operator(**kwargs, n_rows=n_rows)[0] is block
        assert block.shape == ((n_rel + 1) * n_rows, n) and block_t.shape == block.shape[::-1]
        assert operator_rows(block) == operator_rows(op)[:(n_rel + 1) * n_rows]
        assert block_t.format == "csc"
        np.testing.assert_array_equal(block_t.toarray(), block.toarray().T)


def test_layer_operator_is_cached_per_normalization():
    g = TypedGraph(4, ("r", "s"), [(0, 0, 2), (1, 0, 2), (3, 1, 0)])
    in_deg, _ = g.layer_operator(in_degree=True, z=1.0)
    assert g.layer_operator(in_degree=True, z=3.0)[0] is in_deg  # z is ignored in this mode
    const, _ = g.layer_operator(in_degree=False, z=4.0)
    assert const is not in_deg and g.layer_operator(in_degree=False, z=4.0)[0] is const
    assert g.layer_operator(in_degree=False, z=4.0, n_rows=4)[0] is const  # n_rows=n is the full one
    assert sorted(g._layer_operators) == [(False, 4.0, 4), (True, 1.0, 4)]
    np.testing.assert_array_equal(const.indptr, in_deg.indptr)
    np.testing.assert_array_equal(const.indices, in_deg.indices)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 10**6), st.integers(1, 6), st.data())
def test_typed_graph_edges_equal_row_unique(n, n_rel, data):
    # wide node and relation ranges, so the sort key spans many digits
    triple = st.tuples(st.integers(0, n - 1), st.integers(0, n_rel - 1), st.integers(0, n - 1))
    triples = data.draw(st.lists(triple, min_size=1, max_size=20))
    arr = np.array(triples + triples[::2], dtype=np.intp)
    edges = TypedGraph(n, [f"r{i}" for i in range(n_rel)], arr).edges
    want = np.unique(arr, axis=0)
    assert edges.dtype == want.dtype and edges.shape == want.shape
    np.testing.assert_array_equal(edges, want)


# ---------------------------------------------------------------------------
# normalized adjacency


def dense_normalized(n, edges):
    a = np.eye(n)
    for i, j in edges:
        if i != j:
            a[i, j] = 1.0
            a[j, i] = 1.0
    d = a.sum(axis=1)
    inv = 1.0 / np.sqrt(d)
    return a * inv[:, None] * inv[None, :]


def test_normalize_adjacency_matches_dense_oracle():
    edges = [(0, 1), (1, 2), (2, 0), (3, 3), (1, 2)]
    norm = normalize_adjacency(5, edges)
    np.testing.assert_allclose(norm.toarray(), dense_normalized(5, edges), atol=1e-15)
    # isolated node 4: self-loop only, normalized weight 1
    assert norm[4, 4] == pytest.approx(1.0)
    # entries per row of A + I are the degrees
    np.testing.assert_array_equal(np.diff(norm.indptr), [3, 3, 3, 1, 1])


def test_normalize_adjacency_rows_bounded():
    rng = np.random.default_rng(0)
    n = 8
    edges = [(int(a), int(b)) for a, b in rng.integers(0, n, size=(12, 2))]
    m = normalize_adjacency(n, edges).toarray()
    np.testing.assert_allclose(m, m.T, atol=1e-15)
    assert (m >= 0).all()
    # spectral bound for the symmetric normalization: entries at most 1
    assert m.max() <= 1.0 + 1e-12


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(1, 7), st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=15))
def test_normalize_adjacency_property(n, raw_edges):
    edges = [(a % n, b % n) for a, b in raw_edges]
    norm = normalize_adjacency(n, edges)
    np.testing.assert_allclose(norm.toarray(), dense_normalized(n, edges), atol=1e-12)


@st.composite
def word_pair_lists(draw):
    """Row pairs with self pairs, duplicates and both orders of a pair.

    One node and no pairs at all are included.
    """
    n = draw(st.integers(1, 8))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=16))
    loops = [(i, i) for i in draw(st.lists(node, max_size=2))]
    return n, pairs + [(b, a) for a, b in pairs[::2]] + pairs[::3] + loops


@settings(max_examples=300, deadline=None, derandomize=True)
@given(word_pair_lists())
def test_normalize_adjacency_bytes_match_set_reference(graph):
    n, pairs = graph
    got = normalize_adjacency(n, pairs)
    want = normalized_adjacency_reference(n, pairs)
    assert got.shape == want.shape == (n, n)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


# ---------------------------------------------------------------------------
# interaction graph


def test_build_interaction_graph_from_conversations(monkeypatch):
    # the builder checks and de-duplicates the edges once, in TypedGraph
    distinct_rows, calls = graphs._distinct_rows, []
    monkeypatch.setattr(graphs, "_distinct_rows",
                        lambda *args: calls.append(args) or distinct_rows(*args))
    entities = make_entities()
    convs = [
        conv("c0", "alice", Split.TRAIN, [(0, Sentiment.LIKE), (1, Sentiment.DISLIKE),
                                          (4, Sentiment.LIKE)]),   # attribute ignored
        conv("c1", "bob", Split.TRAIN, [(0, Sentiment.LIKE), (0, Sentiment.LIKE),
                                        (2, Sentiment.NEUTRAL)]),  # dup + neutral ignored
        conv("c2", "carol", Split.TRAIN, []),                      # isolated user
    ]
    g = build_interaction_graph(corpus_of(convs), entities)
    assert g.users == ["alice", "bob", "carol"]
    assert g.items.dtype == np.intp
    assert g.items.tolist() == [0, 1]          # only items with sentiment edges
    assert g.n_nodes == 5
    # (item row, relation, user row): alice, bob and carol are rows 2, 3 and 4
    assert g.edges.tolist() == [[0, 0, 2], [0, 0, 3], [1, 1, 2]]
    assert len(calls) == 1


def test_interaction_graph_reads_only_training_conversations():
    entities = make_entities()
    train = [conv("c1", "alice", Split.TRAIN, [(0, Sentiment.LIKE), (1, Sentiment.DISLIKE)]),
             conv("c3", "bob", Split.TRAIN, [(2, Sentiment.NEUTRAL)]),
             conv("c5", "alice", Split.TRAIN, [(3, Sentiment.LIKE)])]
    others = [conv("c0", "carol", Split.TEST, [(0, Sentiment.LIKE)]),   # a user of no train
              conv("c2", "alice", Split.VALID, [(2, Sentiment.DISLIKE)]),
              conv("c4", "bob", Split.TEST, [(1, Sentiment.LIKE), (3, Sentiment.DISLIKE)])]
    mixed = build_interaction_graph(corpus_of(train + others), entities)
    alone = build_interaction_graph(corpus_of(train), entities)
    assert mixed.users == alone.users == ["alice", "bob"]
    assert mixed.items.tolist() == alone.items.tolist() == [0, 1, 3]
    assert mixed.edges.tolist() == alone.edges.tolist() == [[0, 0, 3], [1, 1, 3], [2, 0, 3]]
    empty = build_interaction_graph(corpus_of(others), entities)
    assert empty.users == [] and not empty.items.size and empty.edges.size == 0
    assert empty.n_nodes == 0


def test_interaction_graph_typed_layout():
    entities = make_entities()
    g = build_interaction_graph(corpus_of([
        conv("c0", "u0", Split.TRAIN, [(0, Sentiment.LIKE)]),
        conv("c1", "u1", Split.TRAIN, [(2, Sentiment.DISLIKE), (0, Sentiment.LIKE)]),
    ]), entities)
    # items occupy rows [0, 2), users rows [2, 4)
    assert isinstance(g, TypedGraph)
    assert g.n_nodes == 4
    assert g.relations == INTERACTION_RELATIONS
    assert g.edges.tolist() == [[0, 0, 2], [0, 0, 3], [1, 1, 3]]
    assert neighbors(g, 0) == [[2, 3], [], [0], [0]]   # item row 0 liked by both users
    assert neighbors(g, 1) == [[], [3], [], [1]]       # item row 1 disliked by user 1


def test_interaction_graph_save_load_round_trip(tmp_path):
    # a bundle saves the graph as its corpus file, and loading rebuilds the graph from it
    entities = make_entities()
    convs = [
        conv("c0", "alice", Split.TRAIN, [(0, Sentiment.LIKE), (1, Sentiment.DISLIKE)]),
        conv("c1", "bob", Split.TRAIN, [(2, Sentiment.LIKE)]),
        conv("c2", "carol", Split.TRAIN, [(3, Sentiment.NEUTRAL)]),  # a user with no edge
    ]
    corpus = corpus_of(convs)
    g = build_interaction_graph(corpus, entities)
    path = tmp_path / "corpus.jsonl"
    save_corpus(corpus, entities, path)
    loaded, _ = load_corpus(path, entities, stopwords=frozenset())
    g2 = build_interaction_graph(loaded, entities)
    assert g2.users == g.users == ["alice", "bob", "carol"]
    assert g2.items.tolist() == g.items.tolist() == [0, 1, 2]
    assert g2.edges.tolist() == g.edges.tolist() == [[0, 0, 3], [1, 1, 3], [2, 0, 4]]

    with pytest.raises(MissingArtifactError):
        load_corpus(tmp_path / "absent.jsonl", entities, stopwords=frozenset())


# ---------------------------------------------------------------------------
# item KG and word graph files


def test_load_item_kg(tmp_path):
    entities = make_entities()
    path = tmp_path / "kg.tsv"
    path.write_text("I0\tgenre\tA0\nI1\tgenre\tA0\nI0\tactor\tA1\n", "utf-8")
    kg = load_item_kg(path, entities)
    assert kg.n_nodes == len(entities)
    assert kg.relations == ("actor", "genre")  # sorted, file order irrelevant
    assert kg.edges.tolist() == [[0, 0, 5], [0, 1, 4], [1, 1, 4]]
    assert neighbors(kg, 1)[4] == [0, 1]        # A0 row is entity 4

    path.write_text("I0\tgenre\n", "utf-8")
    with pytest.raises(ParseError, match="3 tab-separated"):
        load_item_kg(path, entities)
    path.write_text("I0\tgenre\tA9\n", "utf-8")
    with pytest.raises(ValidationError, match="line 1"):
        load_item_kg(path, entities)
    with pytest.raises(MissingArtifactError):
        load_item_kg(tmp_path / "absent.tsv", entities)


def test_kg_relation_order_is_stable(tmp_path):
    entities = make_entities()
    p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    p1.write_text("I0\tgenre\tA0\nI0\tactor\tA1\n", "utf-8")
    p2.write_text("I0\tactor\tA1\nI0\tgenre\tA0\n", "utf-8")
    assert load_item_kg(p1, entities).relations == load_item_kg(p2, entities).relations


def test_save_kg_round_trip(tmp_path):
    entities = make_entities()
    path = tmp_path / "kg.tsv"
    path.write_text("I1\tgenre\tA0\nI0\tsimilar_to\tI1\n", "utf-8")
    kg = load_item_kg(path, entities)
    out = tmp_path / "kg2.tsv"
    save_kg(kg, entities, out)
    kg2 = load_item_kg(out, entities)
    assert kg2.relations == kg.relations
    assert kg2.edges.shape == (2, 3)
    assert kg2.edges.tolist() == kg.edges.tolist()


def build_words(names):
    v = WordVocab()
    for w in names:
        v.register(w)
    return v


def test_word_graph_rows_and_membership():
    wg = build_word_graph([(5, 2), (2, 9)])
    assert wg.word_ids == [2, 5, 9]  # row r holds vocabulary id word_ids[r]
    assert wg.n_nodes == 3
    assert wg.adjacency.shape == (3, 3)
    assert wg.pairs.dtype == np.intp
    assert wg.pairs.tolist() == [[0, 1], [0, 2]]


def test_word_graph_pairs_are_sorted_and_distinct():
    # both orders, repeats and a repeated self pair each give one (min, max) row
    wg = build_word_graph([(9, 9), (5, 2), (2, 9), (2, 5), (9, 2), (9, 9)])
    assert wg.pairs.tolist() == [[0, 1], [0, 2], [2, 2]]
    np.testing.assert_array_equal(wg.adjacency.toarray(),
                                  build_word_graph([(2, 5), (2, 9), (9, 9)]).adjacency.toarray())


def test_word_graph_file_round_trip_with_self_edge(tmp_path):
    words = build_words(["alpha", "beta", "gamma"])
    path = tmp_path / "wg.tsv"
    path.write_text("alpha\tbeta\ngamma\tgamma\n", "utf-8")
    wg = load_word_graph(path, words)
    assert wg.word_ids == [0, 1, 2]  # gamma kept despite only a self-edge
    out = tmp_path / "wg2.tsv"
    save_word_graph(wg, words, out)
    wg2 = load_word_graph(out, words)
    assert wg2.word_ids == wg.word_ids
    assert wg2.pairs.tolist() == wg.pairs.tolist() == [[0, 1], [2, 2]]
    np.testing.assert_allclose(wg2.adjacency.toarray(), wg.adjacency.toarray(), atol=0)


def test_word_graph_unknown_word(tmp_path):
    words = build_words(["alpha"])
    path = tmp_path / "wg.tsv"
    path.write_text("alpha\tmystery\n", "utf-8")
    with pytest.raises(ValidationError, match="line 1"):
        load_word_graph(path, words)


def test_toy_interaction_graph_hand_count(toy_data, toy_artifacts):
    # from the toy corpus construction: 3 users, likes/dislikes over 6 items
    ig = toy_artifacts.interaction
    assert ig.users == sorted({c.user_id for c in toy_data.conversations})
    # every edge joins an item row to a user row, items first
    n_items = ig.items.size
    assert ig.n_nodes == n_items + len(ig.users)
    for item_row, rel, user_row in ig.edges.tolist():
        assert 0 <= item_row < n_items
        assert rel in (0, 1)
        assert n_items <= user_row < ig.n_nodes
    # I2 is liked then disliked by u1 in c1: both edges must exist
    item_row = ig.items.tolist().index(toy_data.vocab.entities.resolve("I2"))
    u1 = n_items + ig.users.index("u1")
    assert [item_row, 0, u1] in ig.edges.tolist()
    assert [item_row, 1, u1] in ig.edges.tolist()
