import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convrec.corpus import Conversation, EntityVocab, Mention, Sentiment, Speaker, Split, Utterance, WordVocab
from convrec.errors import LeakageError, MissingArtifactError, ParseError, ValidationError
from convrec.graphs import (
    INTERACTION_RELATIONS,
    InteractionGraph,
    TypedGraph,
    build_interaction_graph,
    build_word_graph,
    load_interaction_graph,
    load_item_kg,
    load_word_graph,
    normalize_adjacency,
    save_interaction_graph,
    save_kg,
    save_word_graph,
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


# ---------------------------------------------------------------------------
# TypedGraph


def test_typed_graph_dedups_and_sorts_edges():
    g = TypedGraph(3, ("r",), [(2, 0, 1), (1, 0, 2), (2, 0, 1), (0, 0, 1)])
    # (1,0,2) and (2,0,1) are distinct triples but the same undirected pair;
    # triples dedup exactly, neighbor sets dedup the pair
    assert g.edges == [(0, 0, 1), (1, 0, 2), (2, 0, 1)]
    assert g.neighbors(0, 1) == (0, 2)
    assert g.neighbors(0, 2) == (1,)
    assert g.n_edges() == 3


def test_typed_graph_validates():
    with pytest.raises(ValidationError):
        TypedGraph(2, ("r",), [(0, 0, 5)])
    with pytest.raises(ValidationError):
        TypedGraph(2, ("r",), [(0, 3, 1)])
    with pytest.raises(ValidationError):
        TypedGraph(2, ("r", "r"))
    with pytest.raises(ValidationError):
        TypedGraph(-1, ("r",))


def test_typed_graph_is_undirected():
    g = TypedGraph(4, ("a", "b"), [(0, 0, 3), (3, 1, 1)])
    assert g.neighbors(0, 0) == (3,)
    assert g.neighbors(0, 3) == (0,)
    assert g.neighbors(1, 3) == (1,)
    assert g.neighbors(1, 1) == (3,)
    np.testing.assert_array_equal(g.degree(0), [1, 0, 0, 1])


def test_message_arrays_ordered_by_destination():
    g = TypedGraph(4, ("r",), [(0, 0, 2), (1, 0, 2), (3, 0, 0)])
    src, dst = g.message_arrays(0)
    # destinations ascending; neighbor ids ascending within each destination
    assert dst.tolist() == sorted(dst.tolist())
    pairs = list(zip(dst.tolist(), src.tolist()))
    assert pairs == [(0, 2), (0, 3), (1, 2), (2, 0), (2, 1), (3, 0)]


def test_message_arrays_self_loop_counts_once():
    g = TypedGraph(2, ("r",), [(0, 0, 0), (0, 0, 1)])
    src, dst = g.message_arrays(0)
    assert list(zip(dst.tolist(), src.tolist())) == [(0, 0), (0, 1), (1, 0)]


def test_relation_operator_holds_destination_norm_and_is_cached():
    g = TypedGraph(4, ("r",), [(0, 0, 2), (1, 0, 2), (3, 0, 0)])
    src, dst = g.message_arrays(0)
    deg = g.degree(0)
    op = g.relation_operator(0, in_degree=True)
    assert op.nnz == src.size
    # values norm[dst] at (dst, src), in message_arrays order
    np.testing.assert_array_equal(op.toarray()[dst, src], 1.0 / deg[dst])
    assert g.relation_operator(0, in_degree=True) is op
    assert g.relation_operator(0, in_degree=True, z=3.0) is op  # z is ignored in this mode
    const = g.relation_operator(0, z=4.0)
    assert const is not op and g.relation_operator(0, z=4.0) is const
    np.testing.assert_array_equal(const.toarray()[dst, src], np.full(src.size, 0.25))
    assert g.relation_operator(0).nnz == src.size


def test_adding_remote_edge_preserves_local_messages():
    # 2-hop locality: rows of untouched destinations keep identical src order
    base = TypedGraph(6, ("r",), [(0, 0, 1), (1, 0, 2)])
    extended = TypedGraph(6, ("r",), [(0, 0, 1), (1, 0, 2), (4, 0, 5)])
    src_b, dst_b = base.message_arrays(0)
    src_e, dst_e = extended.message_arrays(0)
    keep = dst_e < 4
    assert np.array_equal(src_e[keep], src_b)
    assert np.array_equal(dst_e[keep], dst_b)


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
    np.testing.assert_allclose(norm.matrix.toarray(), dense_normalized(5, edges), atol=1e-15)
    # isolated node 4: self-loop only, normalized weight 1
    assert norm.matrix[4, 4] == pytest.approx(1.0)
    np.testing.assert_array_equal(norm.degrees, [3, 3, 3, 1, 1])


def test_normalize_adjacency_rows_bounded():
    rng = np.random.default_rng(0)
    n = 8
    edges = [(int(a), int(b)) for a, b in rng.integers(0, n, size=(12, 2))]
    norm = normalize_adjacency(n, edges)
    m = norm.matrix.toarray()
    np.testing.assert_allclose(m, m.T, atol=1e-15)
    assert (m >= 0).all()
    # spectral bound for the symmetric normalization: entries at most 1
    assert m.max() <= 1.0 + 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 7), st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=15))
def test_normalize_adjacency_property(n, raw_edges):
    edges = [(a % n, b % n) for a, b in raw_edges]
    norm = normalize_adjacency(n, edges)
    np.testing.assert_allclose(norm.matrix.toarray(), dense_normalized(n, edges), atol=1e-12)


# ---------------------------------------------------------------------------
# interaction graph


def test_build_interaction_graph_from_conversations():
    entities = make_entities()
    convs = [
        conv("c0", "alice", Split.TRAIN, [(0, Sentiment.LIKE), (1, Sentiment.DISLIKE),
                                          (4, Sentiment.LIKE)]),   # attribute ignored
        conv("c1", "bob", Split.TRAIN, [(0, Sentiment.LIKE), (0, Sentiment.LIKE),
                                        (2, Sentiment.NEUTRAL)]),  # dup + neutral ignored
        conv("c2", "carol", Split.TRAIN, []),                      # isolated user
    ]
    g = build_interaction_graph(convs, entities)
    assert g.users == ["alice", "bob", "carol"]
    assert g.items == [0, 1]          # only items with sentiment edges
    assert g.n_users == 3 and g.n_items == 2
    expected = {(0, 0, 0), (0, 1, 1), (1, 0, 0)}
    assert set(g.edges) == expected


def test_interaction_graph_rejects_non_train():
    entities = make_entities()
    with pytest.raises(LeakageError, match="test"):
        build_interaction_graph([conv("c", "u", Split.TEST, [(0, Sentiment.LIKE)])], entities)


def test_interaction_graph_as_typed_layout():
    g = InteractionGraph(["u0", "u1"], [7, 9], [(0, 0, 0), (1, 1, 1), (1, 0, 0)])
    typed = g.as_typed()
    # items occupy rows [0, 2), users rows [2, 4)
    assert typed.n_nodes == 4
    assert typed.relations == INTERACTION_RELATIONS
    assert typed.neighbors(0, 0) == (2, 3)   # item row 0 liked by both users
    assert typed.neighbors(1, 1) == (3,)     # item row 1 disliked by user 1
    assert typed.neighbors(0, 2) == (0,)


def test_interaction_graph_validates_indices():
    with pytest.raises(ValidationError):
        InteractionGraph(["u"], [1], [(2, 0, 0)])
    with pytest.raises(ValidationError):
        InteractionGraph(["u"], [1], [(0, 0, 4)])
    with pytest.raises(ValidationError):
        InteractionGraph(["u"], [1], [(0, 5, 0)])


def test_interaction_graph_save_load_round_trip(tmp_path):
    entities = make_entities()
    convs = [
        conv("c0", "alice", Split.TRAIN, [(0, Sentiment.LIKE), (1, Sentiment.DISLIKE)]),
        conv("c1", "bob", Split.TRAIN, [(2, Sentiment.LIKE)]),
    ]
    g = build_interaction_graph(convs, entities)
    path = tmp_path / "interaction.tsv"
    save_interaction_graph(g, entities, path)
    g2 = load_interaction_graph(path, entities)
    assert g2.users == g.users
    assert g2.items == g.items
    assert g2.edges == g.edges

    with pytest.raises(MissingArtifactError):
        load_interaction_graph(tmp_path / "absent.tsv", entities)
    path.write_text("alice\tloves\tI0\n", "utf-8")
    with pytest.raises(ParseError, match="unknown relation"):
        load_interaction_graph(path, entities)


# ---------------------------------------------------------------------------
# item KG and word graph files


def test_load_item_kg(tmp_path):
    entities = make_entities()
    path = tmp_path / "kg.tsv"
    path.write_text("I0\tgenre\tA0\nI1\tgenre\tA0\nI0\tactor\tA1\n", "utf-8")
    kg = load_item_kg(path, entities)
    assert kg.n_nodes == len(entities)
    assert kg.relations == ("actor", "genre")  # sorted, file order irrelevant
    assert kg.neighbors(1, 4) == (0, 1)        # A0 row is entity 4

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
    assert kg2.edges == kg.edges


def build_words(names):
    v = WordVocab()
    for w in names:
        v.register(w)
    return v


def test_word_graph_rows_and_membership():
    wg = build_word_graph([(5, 2), (2, 9)])
    assert wg.word_ids == [2, 5, 9]
    assert wg.rows == {2: 0, 5: 1, 9: 2}
    assert wg.graph.n_nodes == 3
    assert wg.adjacency.n_nodes == 3


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
    assert wg2.graph.edges == wg.graph.edges
    np.testing.assert_allclose(wg2.adjacency.matrix.toarray(),
                               wg.adjacency.matrix.toarray(), atol=0)


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
    # every edge corresponds to a sentiment mention of an item in train data
    for user_idx, rel, item_idx in ig.edges:
        assert 0 <= user_idx < ig.n_users
        assert rel in (0, 1)
        assert 0 <= item_idx < ig.n_items
    # I2 is liked then disliked by u1 in c1: both edges must exist
    e = toy_data.vocab.entities.resolve("I2")
    item_idx = ig.item_index[e]
    u1 = ig.user_index["u1"]
    assert (u1, 0, item_idx) in ig.edges
    assert (u1, 1, item_idx) in ig.edges
