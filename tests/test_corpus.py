import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from convrec.corpus import (
    EntityVocab,
    Sentiment,
    Speaker,
    Split,
    corpus_stats,
    default_stopwords,
    derive_examples,
    load_corpus,
    load_entity_vocab,
    load_keyword_lexicon,
    load_stopwords,
    split_view,
    tokenize,
)
from convrec.errors import MissingArtifactError, ParseError, ShapeError, ValidationError

from convrec.synthetic import (
    cluster_corpus,
    popularity_corpus,
    save_corpus,
    save_entity_vocab,
    toy_instance,
)

from oracles import (
    Conversation,
    Mention,
    Utterance,
    corpus_of,
    corpus_records,
    derive_examples_reference,
    example_records,
    examples_of,
    load_corpus_reference,
)


def entity_file(tmp_path, rows):
    path = tmp_path / "entities.tsv"
    path.write_text("".join(f"{t}\t{n}\t{f}\n" for t, n, f in rows), "utf-8")
    return path


def corpus_file(tmp_path, records, name="corpus.jsonl"):
    path = tmp_path / name
    path.write_text("".join(json.dumps(r) + "\n" for r in records), "utf-8")
    return path


def utterance(speaker, text, mentions):
    return {"speaker": speaker, "text": text,
            "mentions": [{"entity": e, "sentiment": s} for e, s in mentions]}


def record(cid, uid, split, utterances):
    return {"conversation_id": cid, "user_id": uid, "split": split,
            "utterances": utterances}


@pytest.fixture()
def vocab(tmp_path):
    return load_entity_vocab(entity_file(tmp_path, [
        ("I0", "alpha", 1), ("I1", "beta", 1), ("I2", "gamma", 1),
        ("A0", "space", 0), ("A1", "beta", 0),
    ]))


# ---------------------------------------------------------------------------
# vocabulary files


def test_entity_vocab_parses_and_resolves(vocab):
    assert len(vocab) == 5
    assert vocab.resolve("I1") == 1
    assert vocab.resolve("alpha") == 0  # unique name fallback
    assert vocab.item_ids() == [0, 1, 2]
    assert "I2" in vocab and "nope" not in vocab


def test_entity_vocab_ambiguous_name(vocab):
    # "beta" names both I1 and A1
    with pytest.raises(ValidationError, match="ambiguous"):
        vocab.resolve("beta")


def test_entity_vocab_unknown(vocab):
    with pytest.raises(ValidationError, match="unknown entity"):
        vocab.resolve("I9")


def test_entity_vocab_duplicate_token(tmp_path):
    path = entity_file(tmp_path, [("I0", "a", 1), ("I0", "b", 0)])
    with pytest.raises(ValidationError, match="duplicate"):
        load_entity_vocab(path)


def test_entity_vocab_bad_rows(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("I0\tname\n", "utf-8")
    with pytest.raises(ParseError, match="line 1"):
        load_entity_vocab(path)
    path.write_text("I0\tname\t2\n", "utf-8")
    with pytest.raises(ParseError, match="0 or 1"):
        load_entity_vocab(path)
    with pytest.raises(MissingArtifactError):
        load_entity_vocab(tmp_path / "absent.tsv")


def test_save_entity_vocab_round_trip(tmp_path, vocab):
    out = tmp_path / "entities_copy.tsv"
    save_entity_vocab(vocab, out)
    reloaded = load_entity_vocab(out)
    assert reloaded.tokens == vocab.tokens
    assert reloaded.names == vocab.names
    assert reloaded.is_item == vocab.is_item


def test_keyword_lexicon(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("love\tlike\nHate\tdislike\n", "utf-8")
    lex = load_keyword_lexicon(path)
    assert lex == {"love": Sentiment.LIKE, "hate": Sentiment.DISLIKE}

    path.write_text("love\tmaybe\n", "utf-8")
    with pytest.raises(ParseError):
        load_keyword_lexicon(path)

    path.write_text("love\tlike\nlove\tdislike\n", "utf-8")
    with pytest.raises(ValidationError, match="both"):
        load_keyword_lexicon(path)


def test_stopwords(tmp_path):
    defaults = default_stopwords()
    assert "the" in defaults and "movie" not in defaults
    path = tmp_path / "stop.txt"
    path.write_text("foo\n\nbar\n", "utf-8")
    assert load_stopwords(path) == frozenset({"foo", "bar"})
    with pytest.raises(MissingArtifactError):
        load_stopwords(tmp_path / "none.txt")


def test_tokenize():
    assert tokenize("I don't CARE, really!") == ["i", "don't", "care", "really"]
    assert tokenize("") == []


# ---------------------------------------------------------------------------
# corpus loading


def test_load_corpus_happy_path(tmp_path, vocab):
    path = corpus_file(tmp_path, [
        record("c1", "u1", "train", [
            utterance("seeker", "i love space movies", [("I0", "like")]),
            utterance("recommender", "try beta", [("I1", "like")]),
        ]),
        record("c0", "u2", "test", [
            utterance("seeker", "hello", []),
        ]),
    ])
    corpus, built = load_corpus(path, vocab)
    # sorted by conversation_id regardless of file order
    assert corpus.conversation_ids == ["c0", "c1"]
    conversations = corpus_records(corpus)
    c1 = conversations[1]
    assert c1.split == Split.TRAIN
    assert c1.utterances[0].mentions[0].entity == 0
    assert c1.utterances[0].mentions[0].sentiment == Sentiment.LIKE
    # stopworded content words: "i" dropped, "love space movies" kept
    kept = [built.words.words[w] for w in c1.utterances[0].content_words]
    assert kept == ["love", "space", "movies"]


def test_load_corpus_word_ids_are_input_order_independent(tmp_path, vocab):
    recs = [
        record("b", "u1", "train", [utterance("seeker", "space opera fun", [])]),
        record("a", "u2", "train", [utterance("seeker", "gritty noir fun", [])]),
    ]
    path1 = corpus_file(tmp_path, recs, "one.jsonl")
    path2 = corpus_file(tmp_path, recs[::-1], "two.jsonl")
    _, v1 = load_corpus(path1, vocab)
    _, v2 = load_corpus(path2, vocab)
    assert v1.words.words == v2.words.words


def test_load_corpus_duplicate_conversation(tmp_path, vocab):
    rec = record("c1", "u1", "train", [utterance("seeker", "hi", [])])
    path = corpus_file(tmp_path, [rec, rec])
    with pytest.raises(ValidationError, match="duplicate conversation_id"):
        load_corpus(path, vocab)


@pytest.mark.parametrize("mutate, message", [
    (lambda r: r.pop("split"), "missing field"),
    (lambda r: r.update(bogus=1), "unknown field"),
    (lambda r: r.update(split="later"), "unknown split"),
    (lambda r: r.update(utterances=[]), "non-empty"),
    (lambda r: r["utterances"][0].update(speaker="narrator"), "unknown speaker"),
    (lambda r: r["utterances"][0]["mentions"][0].update(sentiment="meh"), "unknown sentiment"),
    (lambda r: r["utterances"][0]["mentions"][0].pop("entity"), "missing field"),
])
def test_load_corpus_schema_errors(tmp_path, vocab, mutate, message):
    rec = record("c1", "u1", "train", [
        utterance("seeker", "hi", [("I0", "like")]),
    ])
    mutate(rec)
    path = corpus_file(tmp_path, [rec])
    with pytest.raises(ParseError, match=message):
        load_corpus(path, vocab)


def test_load_corpus_reports_line_numbers(tmp_path, vocab):
    good = json.dumps(record("c1", "u1", "train", [utterance("seeker", "hi", [])]))
    path = tmp_path / "corpus.jsonl"
    path.write_text(good + "\n{broken\n", "utf-8")
    with pytest.raises(ParseError, match="line 2"):
        load_corpus(path, vocab)


def test_load_corpus_unknown_entity(tmp_path, vocab):
    path = corpus_file(tmp_path, [
        record("c1", "u1", "train", [utterance("seeker", "hi", [("I9", "like")])]),
    ])
    with pytest.raises(ValidationError, match="unknown entity"):
        load_corpus(path, vocab)


def test_null_sentiment_requires_lexicon(tmp_path, vocab):
    rec = record("c1", "u1", "train", [
        utterance("seeker", "i love this", [("I0", None)]),
    ])
    path = corpus_file(tmp_path, [rec])
    with pytest.raises(ParseError, match="lexicon"):
        load_corpus(path, vocab)


def test_null_sentiment_derived_from_keywords(tmp_path, vocab):
    lex = {"love": Sentiment.LIKE, "hate": Sentiment.DISLIKE, "awful": Sentiment.DISLIKE}
    path = corpus_file(tmp_path, [
        record("c1", "u1", "train", [
            utterance("seeker", "i love love this but hate that", [("I0", None)]),
            utterance("seeker", "hate it, awful, though i love one bit", [("I1", None)]),
            utterance("seeker", "love and hate equally", [("I2", None)]),
        ]),
    ])
    corpus, _ = load_corpus(path, vocab, lexicon=lex)
    utts = corpus_records(corpus)[0].utterances
    assert utts[0].mentions[0].sentiment == Sentiment.LIKE      # 2 like vs 1 dislike
    assert utts[1].mentions[0].sentiment == Sentiment.DISLIKE   # 2 dislike vs 1 like
    assert utts[2].mentions[0].sentiment == Sentiment.NEUTRAL   # tie


def test_explicit_sentiment_wins_over_lexicon(tmp_path, vocab):
    lex = {"love": Sentiment.LIKE}
    path = corpus_file(tmp_path, [
        record("c1", "u1", "train", [
            utterance("seeker", "i love this", [("I0", "dislike")]),
        ]),
    ])
    corpus, _ = load_corpus(path, vocab, lexicon=lex)
    assert corpus_records(corpus)[0].utterances[0].mentions[0].sentiment == Sentiment.DISLIKE


def test_save_corpus_round_trip_is_stable(tmp_path, vocab):
    lex = {"love": Sentiment.LIKE}
    path = corpus_file(tmp_path, [
        record("c2", "u1", "train", [
            utterance("seeker", "i love this", [("I0", None)]),
        ]),
        record("c1", "u2", "valid", [
            utterance("recommender", "try GAMMA", [("I2", "like")]),
        ]),
    ])
    corpus, _ = load_corpus(path, vocab, lexicon=lex)
    out1 = tmp_path / "normalized.jsonl"
    save_corpus(corpus, vocab, out1)
    # reload without the lexicon: sentiments are now explicit
    corpus2, _ = load_corpus(out1, vocab)
    assert corpus_records(corpus2) == corpus_records(corpus)
    out2 = tmp_path / "normalized2.jsonl"
    save_corpus(corpus2, vocab, out2)
    assert out1.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------------------
# example derivation


def conv(cid, uid, split, turns):
    """turns: list of (speaker, mentions [(entity, sentiment)], words)."""
    utts = tuple(
        Utterance(speaker=s, text="", mentions=tuple(m), content_words=tuple(w))
        for s, m, w in turns
    )
    return Conversation(conversation_id=cid, user_id=uid, split=split, utterances=utts)


def derive(conversations, vocab):
    """derive_examples over these conversations, one object per example."""
    corpus = corpus_of(conversations)
    return example_records(derive_examples(corpus, vocab), corpus)


def make_vocab(n_items, n_attrs):
    v = EntityVocab()
    for i in range(n_items):
        v.add(f"I{i}", f"item {i}", True)
    for a in range(n_attrs):
        v.add(f"A{a}", f"attr {a}", False)
    return v


def M(entity, sentiment=Sentiment.LIKE):
    return Mention(entity=entity, sentiment=sentiment)


def test_derive_examples_contract():
    v = make_vocab(4, 2)
    a0 = 4  # first attribute id
    c = conv("c", "u", Split.TRAIN, [
        (Speaker.SEEKER, [M(0), M(a0, Sentiment.NEUTRAL)], [7, 8]),
        (Speaker.RECOMMENDER, [M(1), M(1), M(0), M(a0)], [9]),
        (Speaker.SEEKER, [M(1, Sentiment.DISLIKE)], [8, 8]),
        (Speaker.RECOMMENDER, [M(2), M(3)], []),
    ])
    examples = derive([c], v)
    assert len(examples) == 2

    first, second = examples
    # first recommender turn: I1 is new gold; repeat mention deduped;
    # I0 already seen; attribute never gold
    assert first.turn_index == 1
    assert first.gold_items == frozenset({1})
    assert first.context_entities == (0, a0)
    assert first.context_words == (7, 8)

    # second: context now includes turn-1 golds and the dislike re-mention;
    # words accumulate in order with duplicates kept
    assert second.turn_index == 3
    assert second.gold_items == frozenset({2, 3})
    assert second.context_entities == (0, a0, 1)
    assert second.context_words == (7, 8, 9, 8, 8)


def test_derive_examples_skips_turns_without_new_items():
    v = make_vocab(2, 1)
    c = conv("c", "u", Split.TEST, [
        (Speaker.SEEKER, [M(0)], []),
        (Speaker.RECOMMENDER, [M(0)], []),       # nothing new
        (Speaker.RECOMMENDER, [M(2, Sentiment.NEUTRAL)], []),  # attribute only
        (Speaker.RECOMMENDER, [M(1)], []),
    ])
    examples = derive([c], v)
    assert len(examples) == 1
    assert examples[0].turn_index == 3
    assert examples[0].gold_items == frozenset({1})


def test_derive_examples_seeker_items_are_not_gold():
    v = make_vocab(2, 0)
    c = conv("c", "u", Split.TRAIN, [
        (Speaker.SEEKER, [M(0), M(1)], []),
    ])
    assert derive([c], v) == []


def test_split_view_filters_and_validates(toy_artifacts):
    examples = toy_artifacts.examples
    train = split_view(examples, "train")
    assert len(train) == len(examples) and (train.splits == 0).all()
    assert len(split_view(examples, Split.TEST)) == 0
    with pytest.raises(ValueError, match="unknown split"):
        split_view(examples, "dev")
    for bad in (-1, len(examples)):
        with pytest.raises(ShapeError, match="out of range"):
            examples.take([0, bad])


def test_corpus_stats_counting_oracle(toy_data):
    # manual count over the toy corpus: 3 users, 4 conversations,
    # 12 utterances, 6 distinct items mentioned
    stats = corpus_stats(toy_data.corpus, toy_data.vocab.entities)
    users = len({c.user_id for c in toy_data.conversations})
    utts = sum(len(c.utterances) for c in toy_data.conversations)
    assert stats == {"users": users, "conversations": len(toy_data.conversations),
                     "utterances": utts, "items": 6}
    assert stats["users"] == 3
    assert stats["conversations"] == 4
    assert stats["utterances"] == 12


# ---------------------------------------------------------------------------
# derive_examples against the per-record reference


def assert_same_examples(got, want):
    """Every field of two Examples records equal, with its dtype."""
    for name in ("conversations", "turns", "splits"):
        got_field, want_field = getattr(got, name), getattr(want, name)
        assert got_field.dtype == want_field.dtype, name
        np.testing.assert_array_equal(got_field, want_field)
    for name in ("entities", "words", "gold"):
        for part in ("rows", "offsets"):
            got_part = getattr(getattr(got, name), part)
            assert got_part.dtype == np.intp, (name, part)
            np.testing.assert_array_equal(got_part, getattr(getattr(want, name), part))


def assert_derives_as_reference(corpus, conversations, entities):
    """derive_examples of ``corpus`` equals the reference's over ``conversations``,
    the same corpus as per-record objects."""
    want = derive_examples_reference(conversations, entities)
    got = derive_examples(corpus, entities)
    assert_same_examples(got, examples_of(want, corpus))
    assert example_records(got, corpus) == want
    return want


@pytest.mark.parametrize("make", [
    toy_instance,
    lambda: popularity_corpus(4, n_users=20, n_items=12, n_conversations=120),
    lambda: cluster_corpus(4, n_users=20, n_items=16, n_conversations=120, n_clusters=4),
], ids=["toy", "popularity", "cluster"])
def test_derive_examples_equals_the_reference_on_generated_corpora(make):
    data = make()
    want = assert_derives_as_reference(data.corpus, corpus_records(data.corpus),
                                       data.vocab.entities)
    assert want


DERIVE_ENTITIES = [("I0", "alpha", 1), ("I1", "beta", 1), ("I2", "gamma", 1),
                   ("A0", "space", 0), ("A1", "noir", 0)]
# the last two texts are stopwords only, or no words at all
DERIVE_TEXTS = ["space opera alpha", "gritty noir again", "alpha beta gamma", "the of and", ""]
derive_mention = st.tuples(st.sampled_from(["I0", "I1", "I2", "I0", "A0", "A1"]),
                           st.sampled_from(["like", "dislike", "neutral"]))
derive_turn = st.tuples(st.sampled_from(["seeker", "recommender", "recommender"]),
                        st.sampled_from(DERIVE_TEXTS), st.lists(derive_mention, max_size=4))


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.sampled_from(["train", "valid", "test"]),
                          st.lists(derive_turn, min_size=1, max_size=5)),
                min_size=1, max_size=4),
       st.permutations(range(4)))
def test_derive_examples_equals_the_reference_on_loaded_corpora(tmp_path, convs, order):
    # repeated mentions in a turn, attribute mentions, recommender turns that add no
    # item and stopword-only texts are all common draws here
    path = corpus_file(tmp_path, [
        record(f"c{order[k]}", "u", split, [utterance(*turn) for turn in turns])
        for k, (split, turns) in enumerate(convs)])
    entities = load_entity_vocab(entity_file(tmp_path, DERIVE_ENTITIES))
    stopwords = default_stopwords()
    corpus, vocab = load_corpus(path, entities, stopwords=stopwords)
    conversations, words = load_corpus_reference(path, entities, stopwords=stopwords)
    assert vocab.words.words == words
    assert_derives_as_reference(corpus, conversations, entities)


def test_derive_examples_reference_cases():
    # each case the hypothesis test draws, pinned: a repeated new item and an attribute
    # in a recommender turn, a recommender turn with no new item, stopword-only words
    v = make_vocab(3, 1)
    convs = [
        conv("a", "u", Split.TRAIN, [
            (Speaker.SEEKER, [M(3)], []),
            (Speaker.RECOMMENDER, [M(0), M(0), M(3), M(1)], []),
            (Speaker.RECOMMENDER, [M(1), M(3)], [5]),
            (Speaker.RECOMMENDER, [M(2), M(0)], []),
        ]),
        conv("b", "u", Split.TEST, [(Speaker.RECOMMENDER, [M(2), M(2)], [])]),
    ]
    corpus = corpus_of(convs)
    want = assert_derives_as_reference(corpus, convs, v)
    assert [(e.conversation_id, e.turn_index, e.context_entities, sorted(e.gold_items))
            for e in want] == [("a", 1, (3,), [0, 1]), ("a", 3, (3, 0, 1), [2]),
                               ("b", 0, (), [2])]
    assert_derives_as_reference(corpus_of([]), [], v)
