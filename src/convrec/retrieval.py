"""Okapi BM25 over training conversations encoded as entity-token documents.

Each training conversation is one document whose tokens are the entity ids it
mentions, repetitions included. Retrieval returns whole conversations; their
mentioned entities feed the preference model as extra user-taste evidence.
"""

from __future__ import annotations

import functools
import io
import math
import struct
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import Conversation, Split
from .errors import LeakageError, MissingArtifactError, ParseError, ValidationError

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75

_MAGIC = b"CVRI"
_VERSION = 1


@dataclass
class Bm25Index:
    """Forward and inverted statistics for BM25 scoring.

    ``doc_entities`` keeps each document's distinct entities in first-mention
    order; retrieval unions these to build the retrieved-entity list.

    ``term_weights`` and ``doc_rank`` are derived on first use and cached;
    mutate no field after the first ``retrieve``.
    """

    k1: float
    b: float
    doc_ids: list[str]
    doc_terms: list[Counter]
    doc_lens: list[int]
    doc_entities: list[tuple[int, ...]]
    df: dict[int, int]
    avgdl: float
    index_of: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.index_of:
            self.index_of = {d: i for i, d in enumerate(self.doc_ids)}

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    def idf(self, term: int) -> float:
        df = self.df.get(term, 0)
        return math.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5))

    @functools.cached_property
    def term_weights(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Per term: ascending doc indices and their BM25 weights.

        A weight is one term's addend in ``bm25_score``, computed with the
        same operation order, so summing a query's weights in query order
        reproduces its scores bit for bit. Only postings (tf != 0) get a
        weight, so an index whose documents are all empty divides by no
        zero ``avgdl``.
        """
        terms: list[int] = []
        docs: list[int] = []
        tfs: list[int] = []
        for doc_idx, counts in enumerate(self.doc_terms):
            for term, tf in counts.items():
                if tf != 0:
                    terms.append(term)
                    docs.append(doc_idx)
                    tfs.append(tf)
        term_arr = np.array(terms, dtype=np.int64)
        doc_arr = np.array(docs, dtype=np.int64)
        order = np.lexsort((doc_arr, term_arr))
        term_arr, doc_arr = term_arr[order], doc_arr[order]
        tf_arr = np.array(tfs, dtype=np.float64)[order]
        uniq, starts, which = np.unique(term_arr, return_index=True, return_inverse=True)
        idf = np.array([self.idf(int(t)) for t in uniq], dtype=np.float64)[which]
        dl = np.array(self.doc_lens, dtype=np.float64)[doc_arr]
        length_norm = self.k1 * (1.0 - self.b + self.b * dl / self.avgdl)
        weights = idf * tf_arr * (self.k1 + 1.0) / (tf_arr + length_norm)
        ends = np.append(starts[1:], term_arr.size)
        return {int(t): (doc_arr[lo:hi], weights[lo:hi])
                for t, lo, hi in zip(uniq, starts, ends)}

    @functools.cached_property
    def doc_rank(self) -> np.ndarray:
        """Each document's position in ascending ``doc_id`` order."""
        rank = np.empty(self.n_docs, dtype=np.int64)
        rank[sorted(range(self.n_docs), key=self.doc_ids.__getitem__)] = np.arange(self.n_docs)
        return rank


@dataclass(frozen=True)
class RetrievalResult:
    """Ranked conversations plus the entities they mention.

    ``entities`` preserves rank order, then first-mention order within a
    document, deduplicated. ``empty_query`` marks the undefined-score case.
    """

    ranked: tuple[tuple[str, float], ...]
    entities: tuple[int, ...]
    empty_query: bool = False


def conversation_tokens(conv: Conversation) -> list[int]:
    return [m.entity for utt in conv.utterances for m in utt.mentions]


def build_index(train_conversations: Iterable[Conversation], *,
                k1: float = DEFAULT_K1, b: float = DEFAULT_B) -> Bm25Index:
    """Index training conversations; anything from another split is leakage."""
    ordered = sorted(train_conversations, key=lambda c: c.conversation_id)
    if not ordered:
        raise ValidationError("cannot build a retrieval index over an empty corpus")
    doc_ids: list[str] = []
    doc_terms: list[Counter] = []
    doc_lens: list[int] = []
    doc_entities: list[tuple[int, ...]] = []
    df: dict[int, int] = {}
    for conv in ordered:
        if conv.split != Split.TRAIN:
            raise LeakageError(
                f"conversation {conv.conversation_id!r} is {conv.split.value}, not train"
            )
        tokens = conversation_tokens(conv)
        counts = Counter(tokens)
        doc_ids.append(conv.conversation_id)
        doc_terms.append(counts)
        doc_lens.append(len(tokens))
        doc_entities.append(tuple(dict.fromkeys(tokens)))
        for term in counts:
            df[term] = df.get(term, 0) + 1
    avgdl = sum(doc_lens) / len(doc_lens)
    return Bm25Index(k1=k1, b=b, doc_ids=doc_ids, doc_terms=doc_terms,
                     doc_lens=doc_lens, doc_entities=doc_entities, df=df, avgdl=avgdl)


def bm25_score(index: Bm25Index, query: Sequence[int], doc_id: str) -> float:
    """Okapi score of one document for a query multiset of entity ids."""
    if index.n_docs == 0:
        raise ValidationError("empty index")
    doc_idx = index.index_of.get(doc_id)
    if doc_idx is None:
        raise ValueError(f"unknown document {doc_id!r}")
    counts = index.doc_terms[doc_idx]
    length_norm = index.k1 * (1.0 - index.b + index.b * index.doc_lens[doc_idx] / index.avgdl)
    score = 0.0
    for term in query:
        tf = counts.get(term, 0)
        if tf == 0:
            continue
        score += index.idf(term) * tf * (index.k1 + 1.0) / (tf + length_norm)
    return score


def retrieve(index: Bm25Index, query: Sequence[int], n: int,
             exclude_id: str | None = None) -> RetrievalResult:
    """Top-n conversations by BM25 with deterministic tie-breaking.

    Only documents with positive score (i.e. sharing at least one query
    entity) are returned; the excluded conversation never is. Scoring is
    term-at-a-time: each query occurrence adds its term's precomputed
    weights into one score vector, which equals ``bm25_score`` of every
    document bit for bit.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not query:
        return RetrievalResult(ranked=(), entities=(), empty_query=True)
    weights = index.term_weights
    scores = np.zeros(index.n_docs)
    for term in query:
        posting = weights.get(term)
        if posting is not None:
            scores[posting[0]] += posting[1]
    excluded = index.index_of.get(exclude_id)
    if excluded is not None:
        scores[excluded] = 0.0
    hits = np.flatnonzero(scores > 0.0)
    top = hits[np.lexsort((index.doc_rank[hits], -scores[hits]))[:n]].tolist()
    entities: list[int] = []
    seen: set[int] = set()
    for doc_idx in top:
        for ent in index.doc_entities[doc_idx]:
            if ent not in seen:
                seen.add(ent)
                entities.append(ent)
    return RetrievalResult(
        ranked=tuple((index.doc_ids[i], float(scores[i])) for i in top),
        entities=tuple(entities),
    )


# ---------------------------------------------------------------------------
# index persistence
#
# Layout (little-endian):
#   4s "CVRI", u32 version, f64 k1, f64 b, u32 doc count
#   per document: u16 id length + utf-8 id, u32 token count,
#                 u32 distinct-entity count + u32 per entity (mention order)
#   u32 term count; per term: u32 entity id, u32 df, u32 posting count,
#                              then (u32 doc index, u32 tf) per posting


def _read_exact(fh, n: int) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise ParseError(f"index truncated: wanted {n} bytes, got {len(buf)}")
    return buf


def _read_counted(fh, size: int, count: int, width: int, what: str) -> bytes:
    """Read ``count`` records of ``width`` bytes, refusing before the read a
    header-derived count that the rest of a ``size``-byte file cannot hold."""
    left = size - fh.tell()
    if count * width > left:
        raise ParseError(f"index truncated: header claims {count} {what} "
                         f"({count * width} bytes) but {left} bytes remain")
    return _read_exact(fh, count * width)


def save_index(index: Bm25Index, path: str | Path) -> None:
    postings: dict[int, list[tuple[int, int]]] = {}
    for doc_idx, counts in enumerate(index.doc_terms):
        for term, tf in sorted(counts.items()):
            postings.setdefault(term, []).append((doc_idx, tf))
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Idd", _VERSION, index.k1, index.b))
        fh.write(struct.pack("<I", index.n_docs))
        for doc_idx, doc_id in enumerate(index.doc_ids):
            encoded = doc_id.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", index.doc_lens[doc_idx]))
            ents = index.doc_entities[doc_idx]
            fh.write(struct.pack("<I", len(ents)))
            for ent in ents:
                fh.write(struct.pack("<I", ent))
        fh.write(struct.pack("<I", len(postings)))
        for term in sorted(postings):
            plist = postings[term]
            fh.write(struct.pack("<III", term, index.df[term], len(plist)))
            for doc_idx, tf in plist:
                fh.write(struct.pack("<II", doc_idx, tf))


def load_index(path: str | Path) -> Bm25Index:
    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(f"retrieval index not found: {path}")
    raw = path.read_bytes()
    size = len(raw)
    # parsed in memory: each header count is checked against the bytes left,
    # and tell() on a file object costs a system call
    with io.BytesIO(raw) as fh:
        if _read_exact(fh, 4) != _MAGIC:
            raise ParseError(f"not a retrieval index: {path}")
        version, k1, b = struct.unpack("<Idd", _read_exact(fh, 20))
        if version != _VERSION:
            raise ParseError(f"unsupported index version {version}")
        (n_docs,) = struct.unpack("<I", _read_exact(fh, 4))
        doc_ids: list[str] = []
        doc_lens: list[int] = []
        doc_entities: list[tuple[int, ...]] = []
        for _ in range(n_docs):
            (id_len,) = struct.unpack("<H", _read_exact(fh, 2))
            doc_ids.append(_read_counted(fh, size, id_len, 1, "id bytes").decode("utf-8"))
            length, n_ents = struct.unpack("<II", _read_exact(fh, 8))
            doc_lens.append(length)
            ents = struct.unpack(f"<{n_ents}I", _read_counted(fh, size, n_ents, 4, "entities"))
            doc_entities.append(tuple(int(e) for e in ents))
        doc_terms: list[Counter] = [Counter() for _ in range(n_docs)]
        df: dict[int, int] = {}
        (n_terms,) = struct.unpack("<I", _read_exact(fh, 4))
        prev_term = -1
        for _ in range(n_terms):
            term, term_df, n_postings = struct.unpack("<III", _read_exact(fh, 12))
            if term <= prev_term:
                raise ParseError(f"term {term} follows term {prev_term}: terms are not "
                                 f"strictly ascending")
            prev_term = term
            if term_df != n_postings:
                raise ParseError(f"term {term} has df {term_df} but {n_postings} postings")
            df[term] = term_df
            prev = -1
            for doc_idx, tf in struct.iter_unpack(
                    "<II", _read_counted(fh, size, n_postings, 8, "postings")):
                if doc_idx >= n_docs:
                    raise ParseError(f"posting references document {doc_idx} of {n_docs}")
                if doc_idx <= prev:
                    raise ParseError(f"postings of term {term} are not strictly "
                                     f"ascending in document index")
                prev = doc_idx
                doc_terms[doc_idx][term] = tf
        if n_docs == 0:
            raise ParseError("index contains no documents")
        for doc_id, length, counts in zip(doc_ids, doc_lens, doc_terms):
            if length != sum(counts.values()):
                raise ParseError(f"document {doc_id!r} has length {length} but its "
                                 f"postings' tf sum to {sum(counts.values())}")
        avgdl = sum(doc_lens) / n_docs
        return Bm25Index(k1=k1, b=b, doc_ids=doc_ids, doc_terms=doc_terms,
                         doc_lens=doc_lens, doc_entities=doc_entities, df=df, avgdl=avgdl)
