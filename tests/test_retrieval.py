import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convrec import retrieval
from convrec.autodiff import Segments
from convrec.corpus import EntityVocab, Sentiment, Speaker, Split, load_corpus
from convrec.errors import ValidationError
from convrec.retrieval import bm25_score, retrieve, retrieve_batch
from convrec.retrieval import build_index as build_corpus_index
from convrec.synthetic import save_corpus

from oracles import Conversation, Mention, Utterance, bm25_reference, corpus_of


def doc_conv(cid, entity_ids, split=Split.TRAIN, user="u"):
    utts = (Utterance(speaker=Speaker.SEEKER, text="", content_words=(),
                      mentions=tuple(Mention(entity=e, sentiment=Sentiment.NEUTRAL)
                                     for e in entity_ids)),)
    return Conversation(conversation_id=cid, user_id=user, split=split, utterances=utts)


def build_index(conversations):
    """The index of these conversations, through the corpus they make."""
    return build_corpus_index(corpus_of(conversations))


def saved_and_loaded(conversations, path):
    """The corpus of these conversations, saved to ``path`` and loaded back: the
    one form in which a bundle keeps its retrieval index."""
    entities = EntityVocab()
    for e in range(10):
        entities.add(f"E{e}", f"entity {e}", True)
    save_corpus(corpus_of(conversations), entities, path)
    corpus, _ = load_corpus(path, entities, stopwords=frozenset())
    return corpus


def conversation_tokens(conv):
    """A document's tokens: every entity the conversation mentions, in order."""
    return [m.entity for utt in conv.utterances for m in utt.mentions]


@pytest.fixture()
def small_index():
    convs = [
        doc_conv("c0", [1, 2, 2, 3]),
        doc_conv("c1", [2, 4]),
        doc_conv("c2", [5]),
        doc_conv("c3", [1, 1, 1]),
    ]
    return build_index(convs), {c.conversation_id: conversation_tokens(c) for c in convs}


def test_scores_match_reference_oracle(small_index):
    index, docs = small_index
    query = [1, 2]
    expected = bm25_reference([docs[d] for d in index.doc_ids], query)
    got = [bm25_score(index, query, d) for d in index.doc_ids]
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)


def test_idf_value():
    index = build_index([doc_conv("a", [1]), doc_conv("b", [1, 2]), doc_conv("c", [3])])
    # a term's df is its group size: term 1 is in documents a and b
    assert index.terms.tolist() == [1, 2, 3]
    assert index.docs.offsets.tolist() == [0, 2, 3, 4]
    assert index.docs.rows.tolist() == [0, 1, 1, 2]
    assert index.tfs.tolist() == [1, 1, 1, 1]
    idf = math.log(1 + (3 - 2 + 0.5) / (2 + 0.5))
    want = idf * 1 * (1.2 + 1.0) / (1 + 1.2 * (1.0 - 0.75 + 0.75 * 1 / (4 / 3)))
    assert bm25_score(index, [1], "a") == want
    assert index.postings.weights[0] == want
    # an id no document holds adds nothing
    assert bm25_score(index, [99], "a") == 0.0
    # df 29 of 29 documents: numpy's vectorised log can round this idf one ulp
    # away from math.log, and both scoring paths keep math.log's bits
    index = build_index([doc_conv(f"d{i:02d}", [0]) for i in range(29)])
    idf = math.log(1 + (29 - 29 + 0.5) / (29 + 0.5))
    want = idf * 1 * (1.2 + 1.0) / (1 + 1.2 * (1.0 - 0.75 + 0.75 * 1 / 1.0))
    assert index.postings.weights.tolist() == [want] * 29
    assert bm25_score(index, [0], "d28") == want


def test_ranking_matches_exhaustive_scoring(small_index):
    index, docs = small_index
    query = [1, 2, 5]
    result = retrieve(index, query, 10)
    brute = sorted(
        ((bm25_score(index, query, d), d) for d in index.doc_ids),
        key=lambda t: (-t[0], t[1]),
    )
    expected = [(d, s) for s, d in brute if s > 0]
    assert list(result.ranked) == expected


def test_zero_score_documents_filtered(small_index):
    index, _ = small_index
    result = retrieve(index, [5], 10)
    assert [d for d, _ in result.ranked] == ["c2"]
    assert result.entities == (5,)


def test_tie_break_ascending_conversation_id():
    # identical documents score identically; order must be lexicographic
    convs = [doc_conv(cid, [7, 8]) for cid in ("z9", "a1", "m5")]
    index = build_index(convs)
    result = retrieve(index, [7], 3)
    assert [d for d, _ in result.ranked] == ["a1", "m5", "z9"]
    scores = [s for _, s in result.ranked]
    assert scores[0] == scores[1] == scores[2]


def test_exclude_id_drops_self(small_index):
    index, _ = small_index
    with_self = retrieve(index, [1], 10)
    without = retrieve(index, [1], 10, exclude_id="c3")
    assert "c3" in [d for d, _ in with_self.ranked]
    assert "c3" not in [d for d, _ in without.ranked]
    # remaining ranks keep their relative order
    kept = [d for d, _ in with_self.ranked if d != "c3"]
    assert [d for d, _ in without.ranked] == kept


def test_empty_query_flagged(small_index):
    index, _ = small_index
    result = retrieve(index, [], 5)
    assert result.ranked == ()
    assert result.entities == ()


def test_top_n_truncates(small_index):
    index, _ = small_index
    full = retrieve(index, [1, 2], 10)
    assert len(full.ranked) >= 2
    one = retrieve(index, [1, 2], 1)
    assert one.ranked == full.ranked[:1]
    with pytest.raises(ValueError):
        retrieve(index, [1], 0)


def test_entities_rank_then_mention_order():
    convs = [
        doc_conv("c0", [3, 1, 3, 2]),   # distinct order: 3, 1, 2
        doc_conv("c1", [2, 9]),
    ]
    index = build_index(convs)
    result = retrieve(index, [3, 9], 2)
    first = result.ranked[0][0]
    if first == "c0":
        assert result.entities == (3, 1, 2, 9)
    else:
        assert result.entities == (2, 9, 3, 1)


def test_build_index_reads_only_training_conversations():
    def conv(cid, turns, split):
        first, *rest = [doc_conv(cid, t, split) for t in turns]
        return first._replace(utterances=sum((c.utterances for c in rest), first.utterances))

    train = [conv("c1", [[1, 2], [], [2, 5]], Split.TRAIN), conv("c3", [[4]], Split.TRAIN),
             conv("c5", [[], [1, 1]], Split.TRAIN)]
    others = [conv("c0", [[7, 1], [9]], Split.VALID), conv("c2", [[8]], Split.TEST),
              conv("c4", [[1], [3, 3]], Split.VALID), conv("c6", [[6]], Split.TEST)]
    mixed, alone = build_index(train + others), build_index(train)
    assert mixed.doc_ids == ["c1", "c3", "c5"]
    assert_same_index(mixed, alone)
    with pytest.raises(ValidationError, match="no training conversation"):
        build_index(others)


def test_build_index_rejects_empty():
    with pytest.raises(ValidationError):
        build_index([])


def test_build_index_rejects_a_repeated_conversation_id():
    # document ids ascend strictly, so one id names one document
    with pytest.raises(ValidationError, match="repeats"):
        build_index([doc_conv("c", [1]), doc_conv("c", [2])])


def test_unknown_doc_id(small_index):
    index, _ = small_index
    with pytest.raises(ValueError, match="unknown document"):
        bm25_score(index, [1], "nope")


def test_save_load_round_trip(small_index, tmp_path):
    index, tokens = small_index
    convs = [doc_conv(d, toks) for d, toks in tokens.items()]
    loaded = build_corpus_index(saved_and_loaded(convs, tmp_path / "corpus.jsonl"))
    assert_same_index(loaded, index)
    # identical behaviour, not just identical fields
    q = [1, 2, 5]
    assert retrieve(loaded, q, 10) == retrieve(index, q, 10)


def assert_same_index(got, want):
    """Every field equal, arrays with their dtypes."""
    assert got.doc_ids == want.doc_ids
    for name in ("doc_lens", "terms", "tfs"):
        assert getattr(got, name).dtype == getattr(want, name).dtype, name
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    for field in ("docs", "doc_entities"):
        for name in ("rows", "offsets"):
            got_part, want_part = (getattr(getattr(x, field), name) for x in (got, want))
            assert got_part.dtype == want_part.dtype == np.intp
            np.testing.assert_array_equal(got_part, want_part)
    assert got.avgdl == want.avgdl


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_random_corpora_match_oracle(data):
    n_docs = data.draw(st.integers(1, 8))
    docs = [
        data.draw(st.lists(st.integers(0, 9), min_size=1, max_size=12))
        for _ in range(n_docs)
    ]
    query = data.draw(st.lists(st.integers(0, 9), min_size=1, max_size=5))
    convs = [doc_conv(f"c{i:02d}", toks) for i, toks in enumerate(docs)]
    index = build_index(convs)
    expected = bm25_reference(docs, query)
    got = [bm25_score(index, query, f"c{i:02d}") for i in range(n_docs)]
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_all_empty_index_retrieves_nothing():
    # avgdl is 0 here; no posting exists, so no length norm divides by it
    index = build_index([doc_conv("a", []), doc_conv("b", [])])
    assert index.avgdl == 0.0
    result = retrieve(index, [1, 2], 3)
    assert result == retrieve(index, [1, 2], 3, exclude_id="a")
    assert result.ranked == ()
    assert result.entities == ()


def test_some_empty_documents_score_like_reference():
    convs = [doc_conv("a", []), doc_conv("b", [1, 2]), doc_conv("c", []), doc_conv("d", [2])]
    index = build_index(convs)
    result = retrieve(index, [2, 1, 2], 4)
    assert [d for d, _ in result.ranked] == ["b", "d"]
    assert list(result.ranked) == [(d, bm25_score(index, [2, 1, 2], d)) for d in ("b", "d")]
    assert result.entities == (1, 2)


def index_with_unsorted_ids(data, docs):
    """``docs`` indexed under drawn ids in drawn order; their corpus sorts them."""
    doc_ids = data.draw(st.lists(st.text("abxyz", min_size=1, max_size=3),
                                 min_size=len(docs), max_size=len(docs), unique=True))
    index = build_index([doc_conv(d, toks) for d, toks in zip(doc_ids, docs)])
    assert index.doc_ids == sorted(doc_ids)
    return index, dict(zip(doc_ids, docs))


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("corpora")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_saved_index_loads_to_the_same_arrays_and_saves_the_same_bytes(corpus_dir, data):
    # 1-5 documents, some empty, under unsorted multi-byte ids
    docs = data.draw(st.lists(st.lists(st.integers(0, 9), max_size=5), min_size=1, max_size=5))
    doc_ids = data.draw(st.lists(st.text("ab\u00e9", min_size=1, max_size=3),
                                 min_size=len(docs), max_size=len(docs), unique=True))
    convs = [doc_conv(d, toks) for d, toks in zip(doc_ids, docs)]
    index = build_index(convs)
    first, second = corpus_dir / "first.jsonl", corpus_dir / "second.jsonl"
    loaded = build_corpus_index(saved_and_loaded(convs, first))
    assert_same_index(loaded, index)
    saved_and_loaded(convs, second)
    assert second.read_bytes() == first.read_bytes()
    queries = Segments.of(data.draw(st.lists(st.lists(st.integers(-1, 11), max_size=4),
                                             min_size=1, max_size=4)))
    exclude = np.array(data.draw(st.lists(st.integers(-1, index.n_docs - 1),
                                          min_size=len(queries), max_size=len(queries))))
    n = data.draw(st.integers(1, 4))
    for got, want in zip(retrieve_batch(loaded, queries, n, exclude),
                         retrieve_batch(index, queries, n, exclude)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_retrieve_equals_exhaustive_bm25_score_ranking(data):
    n_docs = data.draw(st.integers(1, 8))
    docs = [data.draw(st.lists(st.integers(0, 9), max_size=10)) for _ in range(n_docs)]
    index, tokens = index_with_unsorted_ids(data, docs)
    # 10..12 are absent from the index and -1 is negative; small ranges make repeats likely
    query = data.draw(st.lists(st.integers(-1, 12), max_size=8))
    exclude_id = data.draw(st.none() | st.just("absent") | st.sampled_from(index.doc_ids))
    n = data.draw(st.integers(1, 10))

    result = retrieve(index, query, n, exclude_id=exclude_id)
    scored = sorted(((bm25_score(index, query, d), d) for d in tokens if d != exclude_id),
                    key=lambda t: (-t[0], t[1]))
    expected = tuple((d, s) for s, d in scored if s > 0.0)[:n]
    assert result.ranked == expected  # exact: the same float operations in the same order
    assert all(type(s) is float for _, s in result.ranked)
    want_entities = dict.fromkeys(e for d, _ in expected for e in tokens[d])
    assert result.entities == tuple(want_entities)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_retrieve_batch_equals_exhaustive_ranking_and_retrieve(data):
    # few distinct entities make repeated terms and tied scores likely
    docs = data.draw(st.lists(st.lists(st.integers(0, 5), max_size=6), min_size=1, max_size=6))
    # copies of a document under other ids force ties, broken by doc_id
    docs += data.draw(st.lists(st.sampled_from(docs), max_size=2))
    index, _ = index_with_unsorted_ids(data, docs)
    # -3..-1 and 6..8 are ids the index lacks; a query may be empty
    queries = data.draw(st.lists(st.lists(st.integers(-3, 8), max_size=6),
                                 min_size=1, max_size=12))
    exclude = data.draw(st.lists(st.integers(-1, len(docs) - 1),
                                 min_size=len(queries), max_size=len(queries)))
    n = data.draw(st.integers(1, 5))
    # a scratch of 1-3 score rows splits most batches into several chunks
    per_chunk = data.draw(st.none() | st.integers(1, 3))
    scratch = retrieval.SCRATCH_BYTES if per_chunk is None else 8 * (len(docs) + 1) * per_chunk
    with mock.patch.object(retrieval, "SCRATCH_BYTES", scratch):
        got_docs, got_scores, found = retrieve_batch(index, Segments.of(queries), n,
                                                     np.array(exclude))

    assert found[0] == 0 and len(found) == len(queries) + 1
    doc_ids = index.doc_ids
    for b, query in enumerate(queries):
        lo, hi = found[b], found[b + 1]
        got = [(doc_ids[d], s)
               for d, s in zip(got_docs[lo:hi].tolist(), got_scores[lo:hi].tolist())]
        exclude_id = doc_ids[exclude[b]] if exclude[b] >= 0 else None
        scored = sorted(((bm25_score(index, query, d), d) for d in doc_ids if d != exclude_id),
                        key=lambda t: (-t[0], t[1]))
        assert got == [(d, s) for s, d in scored if s > 0.0][:n]  # exact, not approximate
        assert tuple(got) == retrieve(index, query, n, exclude_id=exclude_id).ranked


def test_retrieve_batch_scores_a_chunk_at_a_time(small_index):
    index, _ = small_index
    scratch_sizes = []
    bincount = np.bincount

    def recording(*args):
        scores = bincount(*args)
        scratch_sizes.append(scores.nbytes)
        return scores

    # four documents and the spare column: 40 bytes a query, so two queries a chunk
    with mock.patch.object(retrieval, "SCRATCH_BYTES", 100), \
            mock.patch.object(np, "bincount", recording):
        _, _, found = retrieve_batch(index, Segments.of([[1]] * 9), 1, np.full(9, -1))
    assert scratch_sizes == [80] * 4 + [40]
    assert found.tolist() == list(range(10))


def test_toy_corpus_retrieval_sanity(toy_artifacts, toy_data):
    # c0 and c2 share I0; querying with c2's entities must surface c0
    index = toy_artifacts.index
    c2 = next(c for c in toy_data.conversations if c.conversation_id == "c2")
    result = retrieve(index, conversation_tokens(c2), 3, exclude_id="c2")
    assert result.ranked
    assert result.ranked[0][0] == "c0"
    assert "c2" not in [d for d, _ in result.ranked]
