import dataclasses
import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convrec import retrieval
from convrec.autodiff import Segments
from convrec.corpus import Sentiment, Speaker, Split
from convrec.errors import MissingArtifactError, ParseError, ValidationError
from convrec.optim import read_arrays, save_arrays
from convrec.retrieval import (
    bm25_score,
    load_index,
    retrieve,
    retrieve_batch,
    save_index,
)
from convrec.retrieval import build_index as build_corpus_index

from conftest import disk_full_after_first_write
from oracles import (
    Conversation,
    Mention,
    Utterance,
    bm25_reference,
    container_reference,
    corpus_of,
)


def doc_conv(cid, entity_ids, split=Split.TRAIN, user="u"):
    utts = (Utterance(speaker=Speaker.SEEKER, text="", content_words=(),
                      mentions=tuple(Mention(entity=e, sentiment=Sentiment.NEUTRAL)
                                     for e in entity_ids)),)
    return Conversation(conversation_id=cid, user_id=user, split=split, utterances=utts)


def build_index(conversations):
    """The index of these conversations, through the corpus they make."""
    return build_corpus_index(corpus_of(conversations))


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


def test_build_index_reads_only_training_conversations(tmp_path):
    def conv(cid, turns, split):
        first, *rest = [doc_conv(cid, t, split) for t in turns]
        return first._replace(utterances=sum((c.utterances for c in rest), first.utterances))

    train = [conv("c1", [[1, 2], [], [2, 5]], Split.TRAIN), conv("c3", [[4]], Split.TRAIN),
             conv("c5", [[], [1, 1]], Split.TRAIN)]
    others = [conv("c0", [[7, 1], [9]], Split.VALID), conv("c2", [[8]], Split.TEST),
              conv("c4", [[1], [3, 3]], Split.VALID), conv("c6", [[6]], Split.TEST)]
    mixed, alone = build_index(train + others), build_index(train)
    assert mixed.doc_ids == ["c1", "c3", "c5"]
    save_index(mixed, tmp_path / "mixed.idx")
    save_index(alone, tmp_path / "alone.idx")
    assert (tmp_path / "mixed.idx").read_bytes() == (tmp_path / "alone.idx").read_bytes()
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
    index, _ = small_index
    path = tmp_path / "bm25.idx"
    save_index(index, path)
    loaded = load_index(path)
    assert_same_index(loaded, index)
    # identical behaviour, not just identical fields
    q = [1, 2, 5]
    assert retrieve(loaded, q, 10) == retrieve(index, q, 10)


def assert_same_index(got, want):
    """Every field equal, arrays with their dtypes."""
    assert (got.k1, got.b) == (want.k1, want.b)
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


def test_save_is_byte_stable(small_index, tmp_path):
    index, _ = small_index
    p1, p2 = tmp_path / "a.idx", tmp_path / "b.idx"
    save_index(index, p1)
    save_index(index, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_interrupted_index_write_keeps_the_previous_file(small_index, tmp_path):
    index, _ = small_index
    path = tmp_path / "bm25.idx"
    save_index(index, path)
    before = path.read_bytes()
    changed = dataclasses.replace(index, k1=2.0)
    with disk_full_after_first_write() as written, pytest.raises(OSError, match="disk full"):
        save_index(changed, path)
    assert written and path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["bm25.idx"]


def test_load_errors(tmp_path):
    with pytest.raises(MissingArtifactError):
        load_index(tmp_path / "absent.idx")
    bad = tmp_path / "bad.idx"
    bad.write_bytes(b"XXXX" + b"\x00" * 30)
    with pytest.raises(ParseError, match="not a retrieval index"):
        load_index(bad)
    truncated = tmp_path / "trunc.idx"
    index = build_index([doc_conv("c0", [1, 2])])
    save_index(index, truncated)
    truncated.write_bytes(truncated.read_bytes()[:-6])
    with pytest.raises(ParseError, match="truncated"):
        load_index(truncated)
    trailing = tmp_path / "trailing.idx"
    save_index(index, trailing)
    trailing.write_bytes(trailing.read_bytes() + b"\x00")
    with pytest.raises(ParseError, match="1 trailing bytes"):
        load_index(trailing)


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


def test_all_empty_index_retrieves_nothing(tmp_path):
    # avgdl is 0 here; no posting exists, so no length norm divides by it
    index = build_index([doc_conv("a", []), doc_conv("b", [])])
    assert index.avgdl == 0.0
    save_index(index, tmp_path / "empty.idx")
    for idx in (index, load_index(tmp_path / "empty.idx")):
        result = retrieve(idx, [1, 2], 3)
        assert result == retrieve(idx, [1, 2], 3, exclude_id="a")
        assert result.ranked == ()
        assert result.entities == ()


def test_some_empty_documents_score_like_reference(tmp_path):
    convs = [doc_conv("a", []), doc_conv("b", [1, 2]), doc_conv("c", []), doc_conv("d", [2])]
    index = build_index(convs)
    save_index(index, tmp_path / "mixed.idx")
    for idx in (index, load_index(tmp_path / "mixed.idx")):
        result = retrieve(idx, [2, 1, 2], 4)
        assert [d for d, _ in result.ranked] == ["b", "d"]
        assert list(result.ranked) == [(d, bm25_score(idx, [2, 1, 2], d)) for d in ("b", "d")]
        assert result.entities == (1, 2)


INDEX_MAGIC, INDEX_VERSION = b"CVRI", 2


def index_arrays(docs, terms, k1=1.2, b=0.75):
    """The arrays of an index file: docs as (id, length, entities), terms as
    (term, postings as (document index, tf)), in file order."""
    encoded = [doc_id.encode("utf-8") for doc_id, _, _ in docs]
    postings = [posting for _, group in terms for posting in group]
    return {
        "k1": np.array(k1), "b": np.array(b),
        "doc_lens": np.array([length for _, length, _ in docs], np.int64),
        "doc_id_offsets": np.cumsum([0] + [len(e) for e in encoded]),
        "doc_entities": np.array([e for _, _, ents in docs for e in ents], np.int64),
        "doc_entity_offsets": np.cumsum([0] + [len(ents) for _, _, ents in docs]),
        "terms": np.array([term for term, _ in terms], np.int64),
        "term_offsets": np.cumsum([0] + [len(group) for _, group in terms]),
        "postings": np.array([d for d, _ in postings], np.int64),
        "tfs": np.array([tf for _, tf in postings], np.int64),
        "doc_ids": np.frombuffer(b"".join(encoded), np.uint8),
    }


def write_index(path, docs, terms):
    save_arrays(path, INDEX_MAGIC, INDEX_VERSION, index_arrays(docs, terms))


def rewrite_index(path, **changes):
    """Write the index file at ``path`` back with the named arrays replaced."""
    arrays = read_arrays(path.read_bytes(), INDEX_MAGIC, INDEX_VERSION, "retrieval index")
    save_arrays(path, INDEX_MAGIC, INDEX_VERSION, {**arrays, **changes})


def test_index_bytes_matches_save_index(tmp_path):
    index = build_index([doc_conv("c0", [1, 2, 1]), doc_conv("c1", [2])])
    save_index(index, tmp_path / "a.idx")
    write_index(tmp_path / "b.idx", [("c0", 3, [1, 2]), ("c1", 1, [2])],
                [(1, [(0, 2)]), (2, [(0, 1), (1, 1)])])
    assert (tmp_path / "a.idx").read_bytes() == (tmp_path / "b.idx").read_bytes()


@pytest.mark.parametrize("name, claim", [
    ("doc_ids", 40), ("doc_entities", 2**20), ("postings", 2**20),
], ids=["id", "entities", "postings"])
def test_load_bounds_header_counts_by_file_size(tmp_path, name, claim):
    # an array claims more entries than the bytes after it hold; the load must
    # fail before it sizes anything by the claim, and say what was claimed
    arrays = index_arrays([("c0", 1, [1])], [(1, [(0, 1)])])
    entries = {n: (a.dtype.str, (claim,) if n == name else a.shape) for n, a in arrays.items()}
    raw = container_reference(INDEX_MAGIC, entries, b"".join(a.tobytes() for a in arrays.values()))
    assert len(raw) < 1000
    path = tmp_path / "bad.idx"
    path.write_bytes(raw)
    with pytest.raises(ParseError, match=rf"header claims shape \({claim},\)"):
        load_index(path)


def test_load_refuses_a_version_1_index(tmp_path):
    # one document c0 = [1], in the version-1 layout: a header, then per
    # document and per term their u32 counts and fields
    path = tmp_path / "bm25.idx"
    path.write_bytes(b"CVRI" + struct.pack("<IddI", 1, 1.2, 0.75, 1)
                     + struct.pack("<H2sIII", 2, b"c0", 1, 1, 1)
                     + struct.pack("<IIIIII", 1, 1, 1, 1, 0, 1))
    with pytest.raises(ParseError, match="^unsupported retrieval index version 1$"):
        load_index(path)


@pytest.mark.parametrize("terms, message", [
    ([(1, [(0, 1), (1, -1)])], "a posting has tf -1"),
    ([(1, [(1, 1), (0, 1)])], "not strictly ascending"),
    ([(1, [(0, 1), (0, 1)])], "not strictly ascending"),
    ([(1, [(0, 1), (1, 0)])], "a posting has tf 0"),
])
def test_load_rejects_inconsistent_postings(tmp_path, terms, message):
    path = tmp_path / "bad.idx"
    write_index(path, [("c0", 1, [1]), ("c1", 1, [1])], terms)
    with pytest.raises(ParseError, match=message):
        load_index(path)


@pytest.mark.parametrize("docs, terms, message", [
    ([("c0", 1, [1]), ("c1", 1, [1])], [(1, [(-1, 1), (1, 1)])],
     "posting references document -1 of 2"),
    ([("c0", 1, [1]), ("c1", 1, [1])], [(1, [(0, 1), (2, 1)])],
     "posting references document 2 of 2"),
    ([("c0", 1, [-1])], [(-1, [(0, 1)])], "term -1 is negative"),
], ids=["negative-document", "document-past-the-end", "negative-term"])
def test_load_rejects_postings_outside_their_ranges(tmp_path, docs, terms, message):
    path = tmp_path / "bad.idx"
    write_index(path, docs, terms)
    with pytest.raises(ParseError, match=f"^{message}$"):
        load_index(path)


@pytest.mark.parametrize("terms", [
    [(1, [(0, 1)]), (1, [(1, 1)])],   # term 1 recorded twice
    [(2, [(0, 1)]), (1, [(1, 1)])],   # terms descending
], ids=["duplicate", "descending"])
def test_load_rejects_terms_not_strictly_ascending(tmp_path, terms):
    # every document length matches its postings, so only the term order is wrong
    path = tmp_path / "bad.idx"
    write_index(path, [("c0", 1, [1]), ("c1", 1, [1])], terms)
    with pytest.raises(ParseError, match="not strictly ascending"):
        load_index(path)


def test_load_rejects_document_length_unlike_its_postings(tmp_path):
    path = tmp_path / "bad.idx"
    write_index(path, [("c0", 9, [1]), ("c1", 1, [1])], [(1, [(0, 1), (1, 1)])])
    with pytest.raises(ParseError, match="'c0' has length 9 but its postings' tf sum to 1"):
        load_index(path)


@pytest.mark.parametrize("ids", [("c0", "c0"), ("c1", "c0")], ids=["duplicate", "descending"])
def test_load_rejects_document_ids_not_strictly_ascending(tmp_path, ids):
    # document order is the tie-break order, and exclude_id must name one document
    path = tmp_path / "bad.idx"
    write_index(path, [(ids[0], 1, [1]), (ids[1], 1, [1])], [(1, [(0, 1), (1, 1)])])
    with pytest.raises(ParseError, match="document ids are not strictly ascending"):
        load_index(path)


@pytest.mark.parametrize("name, value, message", [
    ("doc_id_offsets", [0, 2, 1, 6, 8], "segment offsets must rise"),
    ("term_offsets", [0, 2, 3, 4, 5, 6], "segment offsets must rise"),
    ("doc_lens", [4, 2, 1], "disagree in length"),
    ("tfs", [1, 3, 2, 1, 1, 1], "disagree in length"),
], ids=["id-offsets", "term-offsets", "doc-lens", "tfs"])
def test_load_rejects_arrays_that_do_not_fit_together(small_index, tmp_path, name, value,
                                                      message):
    index, _ = small_index
    path = tmp_path / "bm25.idx"
    save_index(index, path)
    rewrite_index(path, **{name: np.array(value, np.int64)})
    with pytest.raises(ParseError, match=message):
        load_index(path)


def test_load_rejects_a_non_utf8_document_id(small_index, tmp_path):
    index, _ = small_index
    path = tmp_path / "bm25.idx"
    save_index(index, path)
    raw = bytearray(path.read_bytes())
    raw[-8] = 0xFF  # the first byte of the first id: the 8 bytes of c0..c3 end the file
    path.write_bytes(bytes(raw))
    with pytest.raises(ParseError, match="document id is not UTF-8"):
        load_index(path)


@pytest.mark.parametrize("k1, b", [
    (math.inf, 0.75), (math.nan, 0.75), (-1.0, 0.75), (-math.inf, 0.75),
    (1.2, 1.5), (1.2, math.nan), (1.2, -0.25), (1.2, math.inf),
], ids=["k1=inf", "k1=nan", "k1=-1", "k1=-inf", "b=1.5", "b=nan", "b=-0.25", "b=inf"])
def test_load_rejects_k1_or_b_out_of_range(small_index, tmp_path, k1, b):
    index, _ = small_index
    path = tmp_path / "bm25.idx"
    save_index(dataclasses.replace(index, k1=k1, b=b), path)
    with pytest.raises(ParseError, match="k1 must be finite and at least 0" if b == 0.75
                       else r"b must be in \[0, 1\]"):
        load_index(path)


def test_load_accepts_k1_and_b_at_their_bounds(small_index, tmp_path):
    index, _ = small_index
    path = tmp_path / "bm25.idx"
    for k1, b in ((0.0, 0.0), (0.0, 1.0), (1e6, 1.0)):
        built = dataclasses.replace(index, k1=k1, b=b)
        save_index(built, path)
        loaded = load_index(path)
        assert (loaded.k1, loaded.b) == (k1, b)
        assert np.isfinite(loaded.postings.weights).all()
        result = retrieve(loaded, [1, 2], 3)
        assert len(result.ranked) == 3 and result == retrieve(built, [1, 2], 3)


@pytest.mark.parametrize("entities", [(7, 2, 3), (1, 2, 2), (3, 2, 1)],
                         ids=["foreign", "repeated", "reordered"])
def test_load_checks_document_entities_against_postings(small_index, tmp_path, entities):
    # c0 = [1, 2, 2, 3] lists entities (1, 2, 3), the first three
    index, _ = small_index
    path = tmp_path / "bm25.idx"
    save_index(index, path)
    rows = index.doc_entities.rows.copy()
    rows[:3] = entities
    rewrite_index(path, doc_entities=rows)
    if entities == (3, 2, 1):  # the same set in another mention order: loads as written
        loaded = load_index(path)
        assert loaded.doc_entities.rows[:3].tolist() == [3, 2, 1]
        return
    with pytest.raises(ParseError, match="'c0' lists entities other than its posting terms"):
        load_index(path)


@pytest.fixture(scope="module")
def index_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("indexes")


@st.composite
def indexes(draw):
    """A built index: 1-5 documents, some empty, under unsorted multi-byte ids."""
    docs = draw(st.lists(st.lists(st.integers(0, 6) | st.just(2**32 - 1), max_size=5),
                         min_size=1, max_size=5))
    doc_ids = draw(st.lists(st.text("ab\u00e9", min_size=1, max_size=3),
                            min_size=len(docs), max_size=len(docs), unique=True))
    return build_index([doc_conv(d, toks) for d, toks in zip(doc_ids, docs)])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(indexes(), st.data())
def test_saved_index_loads_to_the_same_arrays_and_saves_the_same_bytes(index_dir, index, data):
    first, second = index_dir / "first.idx", index_dir / "second.idx"
    save_index(index, first)
    loaded = load_index(first)
    assert_same_index(loaded, index)
    save_index(loaded, second)
    assert second.read_bytes() == first.read_bytes()
    queries = Segments.of(data.draw(st.lists(st.lists(st.integers(-1, 8), max_size=4),
                                             min_size=1, max_size=4)))
    exclude = np.array(data.draw(st.lists(st.integers(-1, index.n_docs - 1),
                                          min_size=len(queries), max_size=len(queries))))
    n = data.draw(st.integers(1, 4))
    for got, want in zip(retrieve_batch(loaded, queries, n, exclude),
                         retrieve_batch(index, queries, n, exclude)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


@st.composite
def mutations(draw, raw):
    """``raw`` truncated, with 1-4 bytes overwritten, or with one byte inserted.

    Positions are uniform over the file: ``st.integers`` would favour the
    first bytes, the magic number."""
    kind = draw(st.sampled_from(["truncate", "overwrite", "insert"]))
    rnd = draw(st.randoms(use_true_random=True))
    if kind == "truncate":
        return raw[:rnd.randrange(len(raw))]
    if kind == "insert":
        at = rnd.randrange(len(raw) + 1)
        return raw[:at] + bytes([rnd.randrange(256)]) + raw[at:]
    out = bytearray(raw)
    for _ in range(draw(st.integers(1, 4))):
        out[rnd.randrange(len(raw))] = rnd.randrange(256)
    return bytes(out)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(indexes(), st.data())
def test_mutated_index_bytes_load_exactly_or_raise_parse_error(index_dir, index, data):
    path, again = index_dir / "mutated.idx", index_dir / "again.idx"
    save_index(index, path)
    raw = data.draw(mutations(path.read_bytes()))
    path.write_bytes(raw)
    try:
        loaded = load_index(path)
    except ParseError:
        return
    # what loads is what the bytes say: saving it writes the same bytes back
    save_index(loaded, again)
    assert again.read_bytes() == raw


def index_with_unsorted_ids(data, docs):
    """``docs`` indexed under drawn ids in drawn order; their corpus sorts them."""
    doc_ids = data.draw(st.lists(st.text("abxyz", min_size=1, max_size=3),
                                 min_size=len(docs), max_size=len(docs), unique=True))
    index = build_index([doc_conv(d, toks) for d, toks in zip(doc_ids, docs)])
    assert index.doc_ids == sorted(doc_ids)
    return index, dict(zip(doc_ids, docs))


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
