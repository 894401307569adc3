"""Synthetic corpora with planted, known-direction signals.

Three generators:

- ``toy_instance``: a fixed 6-item / 3-user / 4-conversation corpus small
  enough for exhaustive gradient checking yet touching every model part.
- ``popularity_corpus``: a handful of items receive a 10x like-mention rate
  and gold recommendations follow the same skew, so the interaction-graph
  encoder has a structural shortcut the ablated model lacks.
- ``cluster_corpus``: users come in taste clusters over disjoint item pools,
  so retrieving a similar conversation injects same-cluster items (often
  near the gold) into the user representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .corpus import (
    SENTIMENTS,
    SPEAKERS,
    SPLITS,
    Corpus,
    EntityVocab,
    Sentiment,
    Speaker,
    Split,
    Vocab,
    WordVocab,
    _build_corpus,
    default_stopwords,
    save_corpus,
    save_entity_vocab,
    tokenize,
)
from .graphs import TypedGraph, WordGraph, build_word_graph, save_kg, save_word_graph


# The generators' authoring records. The package reads only ``SyntheticData.corpus``;
# these stay for callers that count a corpus from its definition, as the bench does.
SyntheticMention = NamedTuple("SyntheticMention", [("entity", int), ("sentiment", Sentiment)])
SyntheticUtterance = NamedTuple("SyntheticUtterance", [
    ("speaker", Speaker), ("text", str), ("mentions", tuple[SyntheticMention, ...])])
SyntheticConversation = NamedTuple("SyntheticConversation", [
    ("conversation_id", str), ("user_id", str), ("split", Split),
    ("utterances", tuple[SyntheticUtterance, ...])])


@dataclass
class SyntheticData:
    conversations: list[SyntheticConversation]  # in authoring order
    corpus: Corpus
    vocab: Vocab
    kg: TypedGraph
    word_graph: WordGraph


RawTurn = tuple[Speaker, str, list[tuple[str, Sentiment]]]


def _assemble(
    entity_rows: list[tuple[str, str, bool]],
    raw_conversations: list[tuple[str, str, Split, list[RawTurn]]],
    kg_triples: list[tuple[str, str, str]],
    word_edges: list[tuple[str, str]],
    *,
    skip_unknown_words: bool = False,
) -> SyntheticData:
    entities = EntityVocab()
    for token, name, is_item in entity_rows:
        entities.add(token, name, is_item)

    conversations = [
        SyntheticConversation(conv_id, user_id, split, tuple(
            SyntheticUtterance(speaker, text, tuple(
                SyntheticMention(entities.resolve(tok), s) for tok, s in mentions))
            for speaker, text, mentions in utts))
        for conv_id, user_id, split, utts in raw_conversations
    ]
    words = WordVocab()
    corpus = _build_corpus([
        (c.conversation_id, c.user_id, SPLITS.index(c.split),
         [(SPEAKERS.index(u.speaker), u.text, tokenize(u.text), [m.entity for m in u.mentions],
           [SENTIMENTS.index(m.sentiment) for m in u.mentions]) for u in c.utterances])
        for c in conversations], default_stopwords(), words)

    relations = sorted({rel for _, rel, _ in kg_triples})
    rel_index = {r: i for i, r in enumerate(relations)}
    edges = [
        (entities.resolve(h), rel_index[r], entities.resolve(t)) for h, r, t in kg_triples
    ]
    kg = TypedGraph(len(entities), relations, edges)

    if skip_unknown_words:
        # template words may be absent from a very small sampled corpus
        word_edges = [(a, b) for a, b in word_edges if a in words and b in words]
    pairs = [(words.resolve(a), words.resolve(b)) for a, b in word_edges]
    word_graph = build_word_graph(pairs)
    return SyntheticData(
        conversations=conversations,
        corpus=corpus,
        vocab=Vocab(entities=entities, words=words),
        kg=kg,
        word_graph=word_graph,
    )


def write_inputs(data: SyntheticData, directory: str | Path) -> dict[str, Path]:
    """Write the raw input files (corpus, vocab, graphs) a CLI run ingests."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "corpus": directory / "corpus.jsonl",
        "entities": directory / "entities.tsv",
        "kg": directory / "kg.tsv",
        "word_graph": directory / "word_graph.tsv",
    }
    save_corpus(data.corpus, data.vocab.entities, paths["corpus"])
    save_entity_vocab(data.vocab.entities, paths["entities"])
    save_kg(data.kg, data.vocab.entities, paths["kg"])
    save_word_graph(data.word_graph, data.vocab.words, paths["word_graph"])
    return paths


def toy_instance() -> SyntheticData:
    """Fixed tiny corpus exercising both graph encoders, retrieval, and words."""
    entity_rows = [
        ("I0", "item zero", True),
        ("I1", "item one", True),
        ("I2", "item two", True),
        ("I3", "item three", True),
        ("I4", "item four", True),
        ("I5", "item five", True),
        ("A0", "space", False),
        ("A1", "comedy", False),
    ]
    kg_triples = [
        ("I0", "genre", "A0"),
        ("I1", "genre", "A0"),
        ("I4", "genre", "A0"),
        ("I2", "genre", "A1"),
        ("I3", "genre", "A1"),
        ("I5", "genre", "A1"),
        ("I0", "similar_to", "I1"),
        ("I2", "similar_to", "I3"),
    ]
    like, dislike, neutral = Sentiment.LIKE, Sentiment.DISLIKE, Sentiment.NEUTRAL
    s, r = Speaker.SEEKER, Speaker.RECOMMENDER
    raw = [
        ("c0", "u0", Split.TRAIN, [
            (s, "i love space adventure films", [("A0", like)]),
            (r, "you should try item zero", [("I0", like)]),
            (s, "that was great what else", [("I0", like)]),
            (r, "item one is a classic too", [("I1", like)]),
        ]),
        ("c1", "u1", Split.TRAIN, [
            (s, "any good comedy films around", [("A1", like)]),
            (r, "item two is hilarious", [("I2", like)]),
            (s, "not my taste at all", [("I2", dislike)]),
            (r, "maybe item three instead", [("I3", like)]),
        ]),
        ("c2", "u2", Split.TRAIN, [
            (s, "watched item zero yesterday and loved it", [("I0", like)]),
            (r, "then item four fits you", [("I4", like)]),
        ]),
        ("c3", "u0", Split.TRAIN, [
            (s, "more space films please", [("A0", like), ("I1", neutral)]),
            (r, "item five might work", [("I5", like)]),
        ]),
    ]
    word_edges = [
        ("space", "adventure"),
        ("space", "films"),
        ("comedy", "films"),
        ("films", "adventure"),
        ("love", "loved"),
        ("item", "films"),
        ("watched", "films"),
    ]
    return _assemble(entity_rows, raw, kg_triples, word_edges)


_GENRE_WORDS = ("action", "comedy", "drama", "thriller")
_SEEKER_TEMPLATES = (
    "looking for {genre} movies tonight",
    "i enjoyed some {genre} films recently",
    "any {genre} picks worth watching",
    "in the mood for something {genre}",
)
_RECOMMENDER_TEMPLATES = (
    "you may enjoy this {genre} pick",
    "here is a solid {genre} choice",
    "people keep praising this {genre} film",
)
_SHARED_WORD_EDGES = [
    ("action", "movies"),
    ("comedy", "movies"),
    ("drama", "movies"),
    ("thriller", "movies"),
    ("movies", "films"),
    ("movies", "watching"),
    ("films", "picks"),
    ("movies", "tonight"),
    ("mood", "tonight"),
    ("enjoyed", "praising"),
    ("pick", "picks"),
    ("choice", "pick"),
    ("film", "films"),
    ("worth", "solid"),
    ("recently", "tonight"),
]


def _split_for(idx: int, n: int) -> Split:
    # 70/10/20: a fifth of the corpus as test keeps per-seed metric noise low
    if idx < int(0.7 * n):
        return Split.TRAIN
    if idx < int(0.8 * n):
        return Split.VALID
    return Split.TEST


def _item_token(i: int) -> str:
    return f"I{i}"


def _weighted_pick(rng: np.random.Generator, weights: np.ndarray, k: int,
                   exclude: set[int]) -> list[int]:
    w = weights.astype(np.float64).copy()
    w[list(exclude)] = 0.0
    if k >= int(np.count_nonzero(w)):
        k = int(np.count_nonzero(w))
    p = w / w.sum()
    return [int(i) for i in rng.choice(w.shape[0], size=k, replace=False, p=p)]


def popularity_corpus(
    seed: int = 0,
    *,
    n_users: int = 200,
    n_items: int = 50,
    n_conversations: int = 1000,
    n_popular: int = 5,
    boost: float = 10.0,
    gold_boost: float = 3.0,
    n_genres: int = 4,
) -> SyntheticData:
    """Corpus where the first ``n_popular`` items soak up ``boost``-times the
    like mentions and test-split gold items follow the same skew.

    Training golds use the milder ``gold_boost`` so popularity lives mainly
    in the like edges rather than in label frequency: a model has to read
    the interaction graph to exploit it fully.
    """
    rng = np.random.default_rng(seed)
    entity_rows = [(_item_token(i), f"film {i}", True) for i in range(n_items)]
    entity_rows += [(f"G{g}", _GENRE_WORDS[g % len(_GENRE_WORDS)], False) for g in range(n_genres)]
    kg_triples = [(_item_token(i), "genre", f"G{i % n_genres}") for i in range(n_items)]

    weights = np.where(np.arange(n_items) < n_popular, boost, 1.0)
    gold_weights = np.where(np.arange(n_items) < n_popular, gold_boost, 1.0)
    raw: list[tuple[str, str, Split, list[RawTurn]]] = []
    for idx in range(n_conversations):
        split = _split_for(idx, n_conversations)
        user = f"u{int(rng.integers(0, n_users))}"
        n_ctx = int(rng.integers(2, 4))
        context = _weighted_pick(rng, weights, n_ctx, set())
        gold_w = weights if split == Split.TEST else gold_weights
        gold = _weighted_pick(rng, gold_w, 1, set(context))
        genre = int(context[0]) % n_genres
        genre_word = _GENRE_WORDS[genre % len(_GENRE_WORDS)]

        seeker_mentions: list[tuple[str, Sentiment]] = [
            (_item_token(i), Sentiment.LIKE) for i in context
        ]
        if rng.random() < 0.15:
            # an occasional dislike keeps the second relation populated
            disliked = _weighted_pick(rng, weights, 1, set(context) | set(gold))
            seeker_mentions.append((_item_token(disliked[0]), Sentiment.DISLIKE))
        if rng.random() < 0.5:
            seeker_mentions.append((f"G{genre}", Sentiment.NEUTRAL))

        seeker_text = str(rng.choice(_SEEKER_TEMPLATES)).format(genre=genre_word)
        rec_text = str(rng.choice(_RECOMMENDER_TEMPLATES)).format(genre=genre_word)
        raw.append((f"c{idx:05d}", user, split, [
            (Speaker.SEEKER, seeker_text, seeker_mentions),
            (Speaker.RECOMMENDER, rec_text, [(_item_token(gold[0]), Sentiment.LIKE)]),
        ]))
    return _assemble(entity_rows, raw, kg_triples, list(_SHARED_WORD_EDGES),
                     skip_unknown_words=True)


def cluster_corpus(
    seed: int = 0,
    *,
    n_users: int = 150,
    n_items: int = 40,
    n_conversations: int = 600,
    n_clusters: int = 4,
    noise: float = 0.05,
) -> SyntheticData:
    """Corpus of taste clusters: each user mentions and receives items from
    one cluster's pool, so similar conversations are highly informative.

    The KG and the conversation text are deliberately uninformative about
    cluster membership (genres stripe across clusters, one shared genre
    word). Only co-mention structure carries the signal, which is exactly
    what conversation retrieval surfaces.
    """
    rng = np.random.default_rng(seed)
    entity_rows = [(_item_token(i), f"film {i}", True) for i in range(n_items)]
    entity_rows += [(f"G{c}", f"taste {c}", False) for c in range(n_clusters)]
    per_cluster = n_items // n_clusters
    item_cluster = np.minimum(np.arange(n_items) // per_cluster, n_clusters - 1)
    kg_triples = [(_item_token(i), "genre", f"G{i % n_clusters}") for i in range(n_items)]

    raw: list[tuple[str, str, Split, list[RawTurn]]] = []
    for idx in range(n_conversations):
        split = _split_for(idx, n_conversations)
        user_num = int(rng.integers(0, n_users))
        cluster = user_num % n_clusters
        pool = np.where(item_cluster == cluster, 1.0, 0.0)
        if rng.random() < noise:
            pool = np.ones(n_items)
        n_ctx = int(rng.integers(2, 4))
        context = _weighted_pick(rng, pool, n_ctx, set())
        gold = _weighted_pick(rng, pool, 1, set(context))
        genre_word = _GENRE_WORDS[0]

        seeker_mentions = [(_item_token(i), Sentiment.LIKE) for i in context]
        if rng.random() < 0.5:
            seeker_mentions.append((f"G{cluster}", Sentiment.NEUTRAL))
        seeker_text = str(rng.choice(_SEEKER_TEMPLATES)).format(genre=genre_word)
        rec_text = str(rng.choice(_RECOMMENDER_TEMPLATES)).format(genre=genre_word)
        raw.append((f"c{idx:05d}", f"u{user_num}", split, [
            (Speaker.SEEKER, seeker_text, seeker_mentions),
            (Speaker.RECOMMENDER, rec_text, [(_item_token(gold[0]), Sentiment.LIKE)]),
        ]))
    return _assemble(entity_rows, raw, kg_triples, list(_SHARED_WORD_EDGES),
                     skip_unknown_words=True)
