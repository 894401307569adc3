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
from itertools import chain
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .corpus import Conversation, Split
from .errors import LeakageError, MissingArtifactError, ParseError, ValidationError
from .optim import atomic_write

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75

_MAGIC = b"CVRI"
_VERSION = 1


# Each chunk of retrieve_batch scores its queries into one dense
# (queries, documents) float64 array of at most this many bytes. At 512 KiB a
# chunk's arrays stay in cache, and the heap the package keeps after freeing
# them (see allocator.py) stays below the training footprint; at 2 MiB the
# train-retrieval benchmark's peak RSS rose by about 4 MB.
SCRATCH_BYTES = 1 << 19


class Postings(NamedTuple):
    """Every (term, document) weight, grouped by term: a CSR over the index's terms.

    Term i of the T distinct terms, ascending, is the interval
    ``[edges[2i], edges[2i + 1]) = [t, t + 1)``, so ``edges.searchsorted(q, "right")``
    is the slot 2i + 1 exactly when id q is term i. Any other id, negative or
    beyond the last term included, lands on an even slot, which holds no postings.
    Slot s's postings are ``[starts[s], starts[s] + sizes[s])`` of ``ranks`` and
    ``weights``, in ascending document rank.
    """

    edges: np.ndarray    # (2T,) int64
    starts: np.ndarray   # (2T + 1,) intp
    sizes: np.ndarray    # (2T + 1,) intp
    ranks: np.ndarray    # each posting's document, as its position in doc_id order
    weights: np.ndarray  # each posting's addend in bm25_score


@dataclass
class Bm25Index:
    """Forward and inverted statistics for BM25 scoring.

    ``doc_entities`` keeps each document's distinct entities in first-mention
    order; retrieval unions these to build the retrieved-entity list.

    ``postings`` and ``doc_rank`` are derived on first use and cached; mutate
    no field after the first retrieval.
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
    def postings(self) -> Postings:
        """Each posting's weight, one term's addend in ``bm25_score``.

        The weights use the same operation order as ``bm25_score``, so summing
        a query's weights in query order reproduces its scores bit for bit.
        Only postings (tf != 0) get a weight, so an index whose documents are
        all empty divides by no zero ``avgdl``.
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
        rank_arr = self.doc_rank[np.array(docs, dtype=np.intp)]
        order = np.lexsort((rank_arr, term_arr))
        term_arr, rank_arr = term_arr[order], rank_arr[order]
        tf_arr = np.array(tfs, dtype=np.float64)[order]
        uniq, which, counts = np.unique(term_arr, return_inverse=True, return_counts=True)
        idf = np.array([self.idf(int(t)) for t in uniq], dtype=np.float64)[which]
        dl = np.array(self.doc_lens, dtype=np.float64)[self.by_rank[rank_arr]]
        length_norm = self.k1 * (1.0 - self.b + self.b * dl / self.avgdl)
        weights = idf * tf_arr * (self.k1 + 1.0) / (tf_arr + length_norm)
        edges = uniq.repeat(2)
        edges[1::2] += 1
        starts = np.zeros(2 * uniq.size + 1, dtype=np.intp)
        sizes = np.zeros(2 * uniq.size + 1, dtype=np.intp)
        starts[1::2] = counts.cumsum() - counts
        sizes[1::2] = counts
        return Postings(edges, starts, sizes, rank_arr, weights)

    @functools.cached_property
    def doc_rank(self) -> np.ndarray:
        """Each document's position in ascending ``doc_id`` order, then ``n_docs``.

        The extra last entry is the rank of document -1, none: a spare
        position past every document.
        """
        rank = np.empty(self.n_docs + 1, dtype=np.intp)
        rank[self.by_rank] = np.arange(self.n_docs)
        rank[-1] = self.n_docs
        return rank

    @functools.cached_property
    def by_rank(self) -> np.ndarray:
        """The document indices in ascending ``doc_id`` order; inverts ``doc_rank``."""
        return np.array(sorted(range(self.n_docs), key=self.doc_ids.__getitem__), dtype=np.intp)

    def entities_of(self, docs: Iterable[int]) -> tuple[int, ...]:
        """The documents' distinct entities, in document order, then mention order."""
        return tuple(dict.fromkeys(chain.from_iterable(map(self.doc_entities.__getitem__, docs))))


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


def retrieve_batch(index: Bm25Index, queries: tuple[np.ndarray, np.ndarray], n: int,
                   exclude: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each query's top-n documents by BM25, as the CSR ``(docs, scores, found)``.

    ``queries`` is ``(rows, offsets)``: query b is the multiset of entity ids
    ``rows[offsets[b]:offsets[b + 1]]``; ids the index lacks, negative ones
    included, add nothing. ``exclude[b]`` is a document index that query b
    never returns, or -1. Query b's documents are ``docs[found[b]:found[b + 1]]``:
    only positive scores, the highest first, ties to the lower ``doc_id``.

    Every query position adds its term's postings, and ``np.bincount`` sums
    them in that order from 0.0, so each score equals ``bm25_score`` bit for
    bit. Queries are scored a chunk at a time into a dense array of at most
    ``SCRATCH_BYTES``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    edges, starts, sizes, ranks, weights = index.postings
    rows = np.asarray(queries[0], dtype=np.int64)
    offsets = np.asarray(queries[1], dtype=np.intp)
    bounds = offsets.tolist()
    n_docs = index.n_docs
    n_queries = len(bounds) - 1
    # each query position's postings; an id the index lacks finds an empty slot
    slot = edges.searchsorted(rows, "right")
    begin, count = starts[slot], sizes[slot]
    # a chunk's scores are one flat (queries, stride) array whose last column,
    # rank n_docs, is a spare that no posting reaches and exclude -1 zeroes
    stride = n_docs + 1
    width = min(n, n_docs)
    top_ranks = np.zeros((n_queries, width), np.intp)
    top_scores = np.zeros((n_queries, width))
    step = max(1, SCRATCH_BYTES // (8 * stride))
    for lo in range(0, n_queries, step):
        hi = min(lo + step, n_queries)
        first, last = bounds[lo], bounds[hi]
        size = count[first:last]
        # posting j of position i sits at begin[i] + j in the index arrays
        pos = (begin[first:last] - size.cumsum() + size).repeat(size)
        pos += np.arange(len(pos))
        row_start = np.arange(0, (hi - lo) * stride, stride)
        key = ranks[pos]
        if hi - lo > 1:  # a one-query chunk's keys are its ranks
            key += row_start.repeat(offsets[lo + 1:hi + 1] - offsets[lo:hi]).repeat(size)
        scores = np.bincount(key, weights[pos], (hi - lo) * stride)
        scores[row_start + index.doc_rank[exclude[lo:hi]]] = 0.0
        if n_queries == 1:  # one query (a retrieve, a recommend turn): sort its hits once
            hits = (scores > 0.0).nonzero()[0]
            top = hits[(-scores[hits]).argsort(kind="stable")[:n]]  # ties keep rank order
            return index.by_rank[top], scores[top], np.array([0, len(top)])
        # a row's maximum, the lowest rank among equals, is its next document;
        # zeroing it leaves the rest
        by_row = scores.reshape(hi - lo, stride)
        for j in range(width):
            best = by_row.argmax(axis=1)
            top_ranks[lo:hi, j] = best
            best = best + row_start
            top_scores[lo:hi, j] = top = scores[best]
            if j + 1 == width or not top.max() > 0.0:
                break
            scores[best] = 0.0
    # positive scores lead each row, so a row's hits stay in rank order
    hits = top_scores > 0.0
    found = np.zeros(n_queries + 1, np.intp)
    found[1:] = hits.sum(axis=1).cumsum()
    return index.by_rank[top_ranks[hits]], top_scores[hits], found


def retrieve(index: Bm25Index, query: Sequence[int], n: int,
             exclude_id: str | None = None) -> RetrievalResult:
    """Top-n conversations by BM25 with deterministic tie-breaking.

    Only documents with positive score (i.e. sharing at least one query
    entity) are returned; the excluded conversation never is. This is
    ``retrieve_batch`` of one query.
    """
    docs, scores, _ = retrieve_batch(index, (query, np.array([0, len(query)])), n,
                                     np.array([index.index_of.get(exclude_id, -1)]))
    top = docs.tolist()
    return RetrievalResult(
        ranked=tuple(zip(map(index.doc_ids.__getitem__, top), scores.tolist())),
        entities=index.entities_of(top),
        empty_query=not len(query),
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
    with atomic_write(path) as fh:
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
