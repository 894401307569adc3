"""Independent reference implementations used as test oracles.

Everything here is written straight-line from the defining formulas, on
purpose without reusing any package code, so that agreement between the two
routes is meaningful. The file-format references at the end are the
exception: they build the package's own graphs and errors, but parse one
line and one field at a time, each check its own step, into the per-record
objects below; ``corpus_of`` and ``corpus_records`` convert between those
and the package's columnar records.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np
from scipy import sparse as sp


def dense_rgcn(
    n_nodes: int,
    rel_edges: dict[str, list[tuple[int, int]]],
    embedding: np.ndarray,
    rel_weights: list[dict[str, np.ndarray]],
    self_weights: list[np.ndarray],
    *,
    z: float = 1.0,
    in_degree: bool = False,
) -> np.ndarray:
    """Relational graph convolution via dense adjacency matrices.

    Per layer: H <- relu(H W_self + sum_r N_r A_r H W_r) with undirected
    0/1 adjacency per relation and N_r either 1/z or inverse in-degree.
    """
    adjacency = {}
    for rel, edges in rel_edges.items():
        a = np.zeros((n_nodes, n_nodes))
        for i, j in edges:
            a[i, j] = 1.0
            a[j, i] = 1.0
        adjacency[rel] = a

    h = embedding.copy()
    for w_rels, w_self in zip(rel_weights, self_weights):
        total = h @ w_self
        for rel, a in adjacency.items():
            agg = a @ h
            if in_degree:
                deg = a.sum(axis=1)
                scale = np.where(deg > 0, 1.0 / np.maximum(deg, 1.0), 0.0)
                agg = agg * scale[:, None]
            else:
                agg = agg / z
            total = total + agg @ w_rels[rel]
        h = np.maximum(total, 0.0)
    return h


def neighbor_lists(
    n_nodes: int,
    edges: list[tuple[int, int, int]],
    rel: int,
) -> list[list[int]]:
    """Sorted relation-``rel`` neighbors of every node.

    Each (head, rel, tail) triple makes head and tail neighbors of each
    other; a neighbor counts once however many triples join the pair.
    """
    nbr: list[set[int]] = [set() for _ in range(n_nodes)]
    for head, r, tail in edges:
        if r == rel:
            nbr[head].add(tail)
            nbr[tail].add(head)
    return [sorted(s) for s in nbr]


def dense_gcn(
    n_nodes: int,
    edges: list[tuple[int, int]],
    embedding: np.ndarray,
    weights: list[np.ndarray],
) -> np.ndarray:
    """Symmetric-normalized graph convolution with forced self-loops."""
    a = np.eye(n_nodes)
    for i, j in edges:
        a[i, j] = 1.0
        a[j, i] = 1.0
    deg = a.sum(axis=1)
    d_inv_sqrt = 1.0 / np.sqrt(deg)
    a_hat = a * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]

    h = embedding.copy()
    for w in weights:
        h = np.maximum(a_hat @ h @ w, 0.0)
    return h


def normalized_adjacency_reference(n_nodes: int, edges: list[tuple[int, int]]) -> sp.csr_matrix:
    """D^{-1/2} (A + I) D^{-1/2} built pair by pair through a set of seen messages.

    Every pair adds both directions once; self pairs are skipped and then
    every node gets one forced self-loop.
    """
    rows: list[int] = []
    cols: list[int] = []
    seen: set[tuple[int, int]] = set()
    for a, b in edges:
        for i, j in ((a, b), (b, a)):
            if i == j or (i, j) in seen:
                continue
            seen.add((i, j))
            rows.append(i)
            cols.append(j)
    for i in range(n_nodes):
        rows.append(i)
        cols.append(i)
    data = np.ones(len(rows), dtype=np.float64)
    adj = sp.csr_matrix((data, (rows, cols)), shape=(n_nodes, n_nodes))
    degrees = np.asarray(adj.sum(axis=1)).ravel()
    d_half = sp.diags(1.0 / np.sqrt(degrees))
    return (d_half @ adj @ d_half).tocsr()


def bm25_reference(
    doc_tokens: list[list[int]],
    query: list[int],
    k1: float = 1.2,
    b: float = 0.75,
) -> list[float]:
    """Okapi BM25 scores of one query against every document."""
    n = len(doc_tokens)
    avgdl = sum(len(d) for d in doc_tokens) / n
    scores = []
    for doc in doc_tokens:
        score = 0.0
        for term in query:
            df = sum(1 for d in doc_tokens if term in d)
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            tf = doc.count(term)
            score += idf * (tf * (k1 + 1.0)) / (tf + k1 * (1.0 - b + b * len(doc) / avgdl))
        scores.append(score)
    return scores


def brute_force_metrics(
    ranked_lists: list[list[int]],
    gold_sets: list[set[int]],
    ks: list[int],
) -> tuple[dict[int, float], dict[int, float]]:
    """Recall@k and MRR@k averaged over (list, gold item) pairs."""
    recall = {k: 0.0 for k in ks}
    mrr = {k: 0.0 for k in ks}
    pairs = 0
    for ranked, golds in zip(ranked_lists, gold_sets):
        for gold in golds:
            pairs += 1
            rank = ranked.index(gold) + 1 if gold in ranked else None
            for k in ks:
                if rank is not None and rank <= k:
                    recall[k] += 1.0
                    mrr[k] += 1.0 / rank
    return (
        {k: recall[k] / pairs for k in ks},
        {k: mrr[k] / pairs for k in ks},
    )


def rank_order_reference(probs: np.ndarray) -> np.ndarray:
    """Every position by descending probability, ties by ascending position: one full lexsort."""
    return np.lexsort((np.arange(probs.shape[0]), -probs))


def masked_softmax_scores(
    item_matrix: np.ndarray,
    item_ids: list[int],
    user: np.ndarray,
    masked: list[int] | None = None,
) -> np.ndarray:
    """Softmax over the dot products item_matrix[item_ids] @ user.

    Masked positions get probability exactly 0; the rest are renormalized
    among themselves.
    """
    logits = item_matrix[list(item_ids)] @ user
    keep = np.ones(logits.shape[0], dtype=bool)
    keep[list(masked or [])] = False
    e = np.exp(logits[keep] - logits[keep].max())
    probs = np.zeros(logits.shape[0])
    probs[keep] = e / e.sum()
    return probs


def softmax_cross_entropy_reference(
    logits: np.ndarray,
    labels: list[list[int]],
) -> tuple[float, np.ndarray]:
    """Mean over rows of each row's mean -log softmax at its labels, and the gradient.

    ``logits`` is (B, n) with one label list per row; the gradient of a row
    is its softmax minus 1/len(labels) at each label, over B.
    """
    loss = 0.0
    grad = np.zeros(logits.shape)
    for row, row_labels in enumerate(labels):
        e = np.exp(logits[row] - logits[row].max())
        p = e / e.sum()
        loss -= np.mean(np.log(p[row_labels]))
        grad[row] = p
        for label in row_labels:
            grad[row, label] -= 1.0 / len(row_labels)
    return loss / len(labels), grad / len(labels)


def user_vector_reference(
    item_matrix: np.ndarray,
    word_matrix: np.ndarray | None,
    word_rows: dict[int, int] | None,
    entities: list[int],
    words: list[int],
    weights: dict[str, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, int]:
    """One example's user vector, gate and missing-word count.

    ``entities`` are the item-matrix rows of the mentioned, then the
    retrieved entities; ``words`` are context word ids, looked up through
    ``word_rows``. A word without a row is missing, and with no word matrix
    every word is. Each source is pooled as softmax(tanh(R W) b) . R, an
    empty source to zeros, and the pools are mixed by
    gamma = sigmoid(W_gate [v_e; v_w]): one gamma per dimension, or one in
    all (``w_gate`` with one row).
    """
    dim = item_matrix.shape[1]

    def pool(rows: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
        if len(rows) == 0:
            return np.zeros(dim)
        scores = np.tanh(rows @ w) @ b
        alpha = np.exp(scores - scores.max())
        alpha /= alpha.sum()
        return alpha @ rows

    v_entity = pool(item_matrix[list(entities)].reshape(-1, dim),
                    weights["w_entity"], weights["b_entity"])
    found = [] if word_matrix is None else [word_rows[w] for w in words if w in word_rows]
    v_word = np.zeros(dim) if word_matrix is None else pool(
        word_matrix[found].reshape(-1, dim), weights["w_word"], weights["b_word"])
    gamma = 1.0 / (1.0 + np.exp(-(weights["w_gate"] @ np.concatenate([v_entity, v_word]))))
    return gamma * v_entity + (1.0 - gamma) * v_word, gamma, len(words) - len(found)


def adam_reference(
    values: dict[str, np.ndarray],
    grads: dict[str, np.ndarray | None],
    m: dict[str, np.ndarray],
    v: dict[str, np.ndarray],
    step: int,
    *,
    lr: float,
    beta1: float,
    beta2: float,
    eps: float,
    clip_norm: float,
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray], dict[str, np.ndarray], float]:
    """One clipped, bias-corrected Adam step in expression form, on new arrays.

    ``step`` counts this step from 1; a None gradient is a zero one. The
    gradients are scaled by clip_norm / norm when their global norm (summed
    in ``values`` order) exceeds clip_norm. Returns the new values, first
    and second moments, and the pre-clip norm.
    """
    g = {n: np.zeros(x.shape) if grads[n] is None else grads[n] for n, x in values.items()}
    norm = math.sqrt(sum(float(np.sum(x * x)) for x in g.values()))
    if norm > clip_norm and norm > 0.0:
        g = {n: x * (clip_norm / norm) for n, x in g.items()}
    new_values, new_m, new_v = {}, {}, {}
    for n, x in values.items():
        new_m[n] = m[n] * beta1 + (1.0 - beta1) * g[n]
        new_v[n] = v[n] * beta2 + (1.0 - beta2) * (g[n] * g[n])
        m_hat = new_m[n] / (1.0 - beta1 ** step)
        v_hat = new_v[n] / (1.0 - beta2 ** step)
        new_values[n] = x - lr * m_hat / (np.sqrt(v_hat) + eps)
    return new_values, new_m, new_v, norm


def container_reference(magic: bytes, entries: dict[str, tuple[str, tuple[int, ...]]],
                        data: bytes, version: int = 2) -> bytes:
    """A named-array container, straight from its layout: ``entries`` maps each
    name to its (dtype, shape), in order; ``data`` follows the header as given,
    so it may hold fewer or more bytes than the header claims."""
    header, end = {}, 0
    for name, (dtype, shape) in entries.items():
        size = int(dtype[-1]) * math.prod(shape)
        header[name] = {"dtype": dtype, "shape": list(shape), "range": [end, end + size]}
        end += size
    text = json.dumps(header, separators=(",", ":")).encode("ascii")
    text += b" " * (-len(text) % 8)  # the data starts on an 8-byte boundary
    return magic + version.to_bytes(4, "little") + len(text).to_bytes(8, "little") + text + data


# ---------------------------------------------------------------------------
# file formats: one line, one field, one check at a time


def tsv_rows_reference(path, n_fields: int, what: str):
    """Yield (line number, fields) of every non-blank line, iterating the file."""
    from convrec.errors import MissingArtifactError, ParseError

    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(f"{what} not found: {path}")
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != n_fields:
                raise ParseError(f"expected {n_fields} tab-separated fields, got {len(parts)}",
                                 line=lineno)
            yield lineno, parts


def load_entity_vocab_reference(path):
    from convrec.corpus import EntityVocab
    from convrec.errors import ParseError

    vocab = EntityVocab()
    for lineno, (token, name, flag) in tsv_rows_reference(path, 3, "entity vocabulary"):
        if flag not in ("0", "1"):
            raise ParseError(f"is_item must be 0 or 1, got {flag!r}", line=lineno)
        vocab.add(token, name, flag == "1")
    return vocab


def load_item_kg_reference(path, entities):
    """Resolve each line's head, then its tail, through ``EntityVocab.resolve``."""
    from convrec.errors import ValidationError
    from convrec.graphs import TypedGraph

    raw_triples = []
    for lineno, (head, rel, tail) in tsv_rows_reference(path, 3, "item KG"):
        try:
            head_id = entities.resolve(head)
            tail_id = entities.resolve(tail)
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from None
        raw_triples.append((head_id, rel, tail_id))
    relations = sorted({rel for _, rel, _ in raw_triples})
    rel_index = {r: i for i, r in enumerate(relations)}
    edges = [(h, rel_index[r], t) for h, r, t in raw_triples]
    return TypedGraph(len(entities), relations, edges)


def load_word_graph_reference(path, words):
    from convrec.errors import ValidationError
    from convrec.graphs import build_word_graph

    word_pairs = []
    for lineno, (a, b) in tsv_rows_reference(path, 2, "word graph"):
        try:
            word_pairs.append((words.resolve(a), words.resolve(b)))
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from None
    return build_word_graph(word_pairs)


def _expect_keys_reference(obj, keys, what, lineno):
    from convrec.errors import ParseError

    missing = [k for k in keys if k not in obj]
    if missing:
        raise ParseError(f"{what} missing field {missing[0]!r}", line=lineno)
    extra = [k for k in obj if k not in keys]
    if extra:
        raise ParseError(f"{what} has unknown field {extra[0]!r}", line=lineno)


def _keyword_sentiment_reference(tokens, lexicon):
    from convrec.corpus import Sentiment

    likes = sum(1 for t in tokens if lexicon.get(t) == Sentiment.LIKE)
    dislikes = sum(1 for t in tokens if lexicon.get(t) == Sentiment.DISLIKE)
    if likes > dislikes:
        return Sentiment.LIKE
    if dislikes > likes:
        return Sentiment.DISLIKE
    return Sentiment.NEUTRAL


# ---------------------------------------------------------------------------
# one object per corpus record, and one per example


class Mention(NamedTuple):
    entity: int
    sentiment: Any  # a convrec.corpus.Sentiment


class Utterance(NamedTuple):
    speaker: Any  # a convrec.corpus.Speaker
    text: str
    mentions: tuple[Mention, ...]
    content_words: tuple[int, ...]


class Conversation(NamedTuple):
    conversation_id: str
    user_id: str
    split: Any  # a convrec.corpus.Split
    utterances: tuple[Utterance, ...]


class RecExample(NamedTuple):
    """One recommendation instance: a recommender turn introducing new items.

    ``context_entities`` holds every entity mentioned strictly before
    ``turn_index``, deduplicated in first-mention order. ``context_words``
    keeps the full word sequence of those turns, duplicates included.
    """

    conversation_id: str
    user_id: str
    split: Any
    turn_index: int
    context_entities: tuple[int, ...]
    context_words: tuple[int, ...]
    gold_items: frozenset[int]


def corpus_of(conversations):
    """The package's Corpus of these Conversation objects, sorted by conversation_id."""
    from convrec.autodiff import Segments
    from convrec.corpus import SENTIMENTS, SPEAKERS, SPLITS, Corpus

    convs = sorted(conversations, key=lambda c: c.conversation_id)
    utts = [u for c in convs for u in c.utterances]
    return Corpus(
        [c.conversation_id for c in convs], [c.user_id for c in convs],
        np.array([SPLITS.index(c.split) for c in convs], np.int8),
        Segments(np.arange(len(utts)), np.cumsum([0] + [len(c.utterances) for c in convs])),
        np.array([SPEAKERS.index(u.speaker) for u in utts], np.int8), [u.text for u in utts],
        Segments.of([[m.entity for m in u.mentions] for u in utts]),
        np.array([SENTIMENTS.index(m.sentiment) for u in utts for m in u.mentions], np.int8),
        Segments.of([u.content_words for u in utts]))


def corpus_records(corpus):
    """The Conversation objects of a package Corpus, in its order."""
    from convrec.corpus import SENTIMENTS, SPEAKERS, SPLITS

    def group(segments, i):
        return segments.rows[segments.offsets[i]:segments.offsets[i + 1]].tolist()

    out = []
    for c, conv_id in enumerate(corpus.conversation_ids):
        utts = []
        for u in group(corpus.utterances, c):
            lo = corpus.mentions.offsets[u]
            mentions = tuple(Mention(e, SENTIMENTS[corpus.sentiments[lo + k]])
                             for k, e in enumerate(group(corpus.mentions, u)))
            utts.append(Utterance(SPEAKERS[corpus.speakers[u]], corpus.texts[u], mentions,
                                  tuple(group(corpus.words, u))))
        out.append(Conversation(conv_id, corpus.user_ids[c], SPLITS[corpus.splits[c]],
                                tuple(utts)))
    return out


def examples_of(records, corpus):
    """The package's Examples of these RecExample objects; a conversation id the
    corpus lacks becomes conversation -1."""
    from convrec.autodiff import Segments
    from convrec.corpus import SPLITS, Examples

    ids = corpus.conversation_ids
    return Examples(
        np.array([ids.index(r.conversation_id) if r.conversation_id in ids else -1
                  for r in records], np.intp),
        np.array([r.turn_index for r in records], np.intp),
        np.array([SPLITS.index(r.split) for r in records], np.int8),
        Segments.of([r.context_entities for r in records]),
        Segments.of([r.context_words for r in records]),
        Segments.of([sorted(r.gold_items) for r in records]))


def example_records(examples, corpus):
    """The RecExample objects of a package Examples record over ``corpus``, in its order."""
    from convrec.corpus import SPLITS

    def group(segments, i):
        return tuple(segments.rows[segments.offsets[i]:segments.offsets[i + 1]].tolist())

    return [RecExample(corpus.conversation_ids[c], corpus.user_ids[c], SPLITS[split], turn,
                       group(examples.entities, n), group(examples.words, n),
                       frozenset(group(examples.gold, n)))
            for n, (c, turn, split) in enumerate(zip(examples.conversations.tolist(),
                                                     examples.turns.tolist(),
                                                     examples.splits.tolist()))]


def derive_examples_reference(conversations, entities):
    """One RecExample per recommender turn that introduces at least one new item."""
    from convrec.corpus import Speaker

    examples: list[RecExample] = []
    for conv in conversations:
        seen: set[int] = set()
        context_entities: list[int] = []
        context_words: list[int] = []
        for turn_index, utt in enumerate(conv.utterances):
            if utt.speaker == Speaker.RECOMMENDER:
                gold: list[int] = []
                for m in utt.mentions:
                    if entities.is_item[m.entity] and m.entity not in seen and m.entity not in gold:
                        gold.append(m.entity)
                if gold:
                    examples.append(RecExample(
                        conversation_id=conv.conversation_id,
                        user_id=conv.user_id,
                        split=conv.split,
                        turn_index=turn_index,
                        context_entities=tuple(context_entities),
                        context_words=tuple(context_words),
                        gold_items=frozenset(gold),
                    ))
            for m in utt.mentions:
                if m.entity not in seen:
                    seen.add(m.entity)
                    context_entities.append(m.entity)
            context_words.extend(utt.content_words)
    return examples


def parse_record_reference(raw: str, lineno: int, entities, lexicon):
    """One corpus line: every key set, enum and type checked field by field."""
    from convrec.corpus import Sentiment, Speaker, Split
    from convrec.errors import ParseError

    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=lineno) from None
    if not isinstance(obj, dict):
        raise ParseError("record is not a JSON object", line=lineno)
    _expect_keys_reference(obj, ("conversation_id", "user_id", "split", "utterances"),
                           "record", lineno)
    conv_id = obj["conversation_id"]
    user_id = obj["user_id"]
    if not isinstance(conv_id, str) or not isinstance(user_id, str):
        raise ParseError("conversation_id and user_id must be strings", line=lineno)
    try:
        split = Split(obj["split"])
    except ValueError:
        raise ParseError(f"unknown split {obj['split']!r}", line=lineno) from None
    utterances = obj["utterances"]
    if not isinstance(utterances, list) or not utterances:
        raise ParseError("utterances must be a non-empty array", line=lineno)

    parsed_utts = []
    for utt in utterances:
        if not isinstance(utt, dict):
            raise ParseError("utterance is not a JSON object", line=lineno)
        _expect_keys_reference(utt, ("speaker", "text", "mentions"), "utterance", lineno)
        try:
            speaker = Speaker(utt["speaker"])
        except ValueError:
            raise ParseError(f"unknown speaker {utt['speaker']!r}", line=lineno) from None
        text = utt["text"]
        if not isinstance(text, str):
            raise ParseError("utterance text must be a string", line=lineno)
        mentions_raw = utt["mentions"]
        if not isinstance(mentions_raw, list):
            raise ParseError("mentions must be an array", line=lineno)
        tokens = re.findall(r"[\w']+", text.lower())
        utterance_sentiment = None
        mentions = []
        for m in mentions_raw:
            if not isinstance(m, dict):
                raise ParseError("mention is not a JSON object", line=lineno)
            _expect_keys_reference(m, ("entity", "sentiment"), "mention", lineno)
            if not isinstance(m["entity"], str):
                raise ParseError("mention entity must be a string", line=lineno)
            entity_id = entities.resolve(m["entity"])
            label = m["sentiment"]
            if label is None:
                if lexicon is None:
                    raise ParseError(
                        "mention sentiment is null and no keyword lexicon was given", line=lineno
                    )
                if utterance_sentiment is None:
                    utterance_sentiment = _keyword_sentiment_reference(tokens, lexicon)
                sentiment = utterance_sentiment
            else:
                try:
                    sentiment = Sentiment(label)
                except ValueError:
                    raise ParseError(f"unknown sentiment {label!r}", line=lineno) from None
            mentions.append(Mention(entity=entity_id, sentiment=sentiment))
        parsed_utts.append((speaker, text, tuple(mentions), tokens))
    return conv_id, user_id, split, parsed_utts


def load_corpus_reference(path, entities, *, stopwords, lexicon=None):
    """(conversations sorted by id, word list): ``register`` called on every kept token."""
    from convrec.corpus import WordVocab
    from convrec.errors import MissingArtifactError, ValidationError

    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(f"corpus not found: {path}")
    records = []
    seen_ids = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            record = parse_record_reference(raw, lineno, entities, lexicon)
            if record[0] in seen_ids:
                raise ValidationError(f"duplicate conversation_id {record[0]!r}")
            seen_ids.add(record[0])
            records.append(record)
    words = WordVocab()
    conversations = []
    for conv_id, user_id, split, parsed_utts in sorted(records, key=lambda r: r[0]):
        utts = tuple(
            Utterance(speaker=speaker, text=text, mentions=mentions,
                      content_words=tuple(words.register(t) for t in tokens
                                          if t not in stopwords))
            for speaker, text, mentions, tokens in parsed_utts
        )
        conversations.append(Conversation(conversation_id=conv_id, user_id=user_id,
                                          split=split, utterances=utts))
    return conversations, words.words


def interaction_graph_reference(conversations, entities):
    """The training conversations' interaction graph, one mention at a time, as
    (users, items, node count, sorted distinct (item row, relation, user row) triples).

    Every training user is a node, with or without an edge; a neutral mention
    or a mention of a non-item adds no edge. Items take rows [0, n_items) by
    ascending entity id, and users the rows after them by sorted user id."""
    from convrec.corpus import Sentiment, Split
    from convrec.graphs import INTERACTION_RELATIONS

    users = set()
    triples = set()
    for conv in conversations:
        if conv.split != Split.TRAIN:
            continue
        users.add(conv.user_id)
        for utt in conv.utterances:
            for m in utt.mentions:
                if m.sentiment != Sentiment.NEUTRAL and entities.is_item[m.entity]:
                    triples.add((conv.user_id, INTERACTION_RELATIONS.index(m.sentiment.value),
                                 m.entity))
    user_list = sorted(users)
    item_list = sorted({item for _, _, item in triples})
    item_row = {e: i for i, e in enumerate(item_list)}
    user_row = {u: len(item_list) + i for i, u in enumerate(user_list)}
    edges = sorted([item_row[e], rel, user_row[u]] for u, rel, e in triples)
    return user_list, item_list, len(item_list) + len(user_list), edges
