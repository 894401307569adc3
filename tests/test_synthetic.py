import hashlib

import numpy as np
import pytest

from convrec.corpus import Sentiment, Split, corpus_stats
from convrec.graphs import build_interaction_graph
from convrec.recommender import build_artifacts
from convrec.synthetic import cluster_corpus, popularity_corpus, toy_instance, write_inputs


def like_degrees(data):
    ig = build_interaction_graph(data.corpus, data.vocab.entities)
    liked = ig.items[ig.edges[ig.edges[:, 1] == 0, 0]]  # (item row, relation, user row)
    return np.bincount(liked, minlength=len(data.vocab.entities))[data.vocab.entities.item_ids()]


def test_generators_are_deterministic():
    a = popularity_corpus(seed=7, n_users=10, n_items=8, n_conversations=30)
    b = popularity_corpus(seed=7, n_users=10, n_items=8, n_conversations=30)
    assert a.conversations == b.conversations
    assert a.kg.edges.shape == b.kg.edges.shape
    assert a.kg.edges.tolist() == b.kg.edges.tolist()


def test_popularity_corpus_plants_like_degree_skew():
    data = popularity_corpus(seed=0)
    deg = like_degrees(data)
    popular = deg[:5].mean()
    rest = deg[5:].mean()
    # 10x mention boost must show up as a clear like-degree gap
    assert popular > 4 * rest


def test_popularity_corpus_has_all_splits():
    data = popularity_corpus(seed=1, n_users=20, n_items=12, n_conversations=100)
    splits = {c.split for c in data.conversations}
    assert splits == {Split.TRAIN, Split.VALID, Split.TEST}
    counts = {s: sum(1 for c in data.conversations if c.split == s) for s in splits}
    assert counts[Split.TRAIN] == 70
    assert counts[Split.VALID] == 10
    assert counts[Split.TEST] == 20


def test_cluster_corpus_golds_follow_user_cluster():
    data = cluster_corpus(seed=0, n_items=40, n_clusters=4, noise=0.0)
    per_cluster = 40 // 4
    for conv in data.conversations:
        cluster = int(conv.user_id[1:]) % 4
        for utt in conv.utterances:
            for m in utt.mentions:
                token = data.vocab.entities.tokens[m.entity]
                if token.startswith("I") and m.sentiment == Sentiment.LIKE:
                    assert min(int(token[1:]) // per_cluster, 3) == cluster


def test_generated_corpora_build_artifacts():
    for data in (popularity_corpus(seed=2, n_users=15, n_items=10, n_conversations=40),
                 cluster_corpus(seed=2, n_users=12, n_items=12, n_conversations=40,
                                n_clusters=3)):
        artifacts = build_artifacts(data.corpus, data.vocab, data.kg, data.word_graph)
        assert len(artifacts.examples)
        assert artifacts.interaction.items.size > 0
        assert artifacts.index is not None
        stats = corpus_stats(data.corpus, data.vocab.entities)
        assert stats["conversations"] == 40


def test_toy_instance_shape():
    data = toy_instance()
    stats = corpus_stats(data.corpus, data.vocab.entities)
    assert stats == {"users": 3, "conversations": 4, "utterances": 12, "items": 6}
    assert data.word_graph.n_nodes > 0


def test_write_inputs_round_trips(tmp_path):
    data = toy_instance()
    paths = write_inputs(data, tmp_path)
    for p in paths.values():
        assert p.exists() and p.stat().st_size > 0


# sha256 of each raw file write_inputs writes: the bytes ingest reads, pinned
# below the parse, where a writer change that still parses the same would show
RAW_SHA256 = {
    "toy": {
        "corpus": "e3fb2d015da5a79fa0132c1b6b52f8877c0016619586ae977a67988544bef19a",
        "entities": "2dce6358afaa8be8d0de0511a0ad4a19e83af31fbf571b62b95ad6c316d27b74",
        "kg": "dda77e441e4956d9a0e536894acba01b40a5cd4d5352d6c17d4425a92b8f29c1",
        "word_graph": "58e0d00b52d32466df4e8cc0c55de22873701e8f386f7b6515e1c1022c6ac31d",
    },
    "popularity": {
        "corpus": "168b973237edf3f1a6f295728c885fcab875ad72d847d82af3738d561b8e2373",
        "entities": "557ba55036e2a5d69bc9b4b7fcdbed1b814a5a130efe5692c620e5c1e610a83e",
        "kg": "3628dd45d74fbe6c8bd89be02a623d971891b4b4d2bc4941e8e91bda08261e6b",
        "word_graph": "6807e5791a09cde0bb1f8472a87fa11ad0905b4c4303caf9b356461935bc43c7",
    },
}


@pytest.mark.parametrize("name, make", [
    ("toy", toy_instance),
    ("popularity", lambda: popularity_corpus(3, n_users=20, n_items=15, n_conversations=40)),
], ids=["toy", "popularity"])
def test_write_inputs_writes_the_pinned_bytes(tmp_path, name, make):
    paths = write_inputs(make(), tmp_path)
    got = {key: hashlib.sha256(path.read_bytes()).hexdigest() for key, path in paths.items()}
    assert got == RAW_SHA256[name]
