"""Okapi BM25 over training conversations encoded as entity-token documents.

Each training conversation is one document whose tokens are the entity ids it
mentions, repetitions included. Retrieval returns whole conversations; their
mentioned entities feed the preference model as extra user-taste evidence.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .autodiff import Segments
from .corpus import Corpus, training_mentions
from .errors import ValidationError

# Okapi BM25's term-frequency saturation and document-length normalization
K1 = 1.2
B = 0.75


# Each chunk of retrieve_batch scores its queries into one dense
# (queries, documents) float64 array of at most this many bytes. At 512 KiB a
# chunk's arrays stay in cache, and the heap the package keeps after freeing
# them (see allocator.py) stays below the training footprint; at 2 MiB the
# train-retrieval benchmark's peak RSS rose by about 4 MB.
SCRATCH_BYTES = 1 << 19


def _idf(n_docs: int, df: int) -> float:
    # math.log, not np.log: the two may differ in the last place
    return math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))


class Postings(NamedTuple):
    """Each posting's weight, and where a query id finds its term's postings.

    Term i of the T terms is the interval ``[edges[2i], edges[2i + 1]) = [t, t + 1)``,
    so ``edges.searchsorted(q, "right")`` is the slot 2i + 1 exactly when id q
    is term i. Any other id, negative or beyond the last term included, lands
    on an even slot, which holds no postings. Slot s's postings are
    ``[starts[s], starts[s] + sizes[s])`` of ``docs.rows`` and ``weights``.
    """

    edges: np.ndarray    # (2T,) int64
    starts: np.ndarray   # (2T + 1,) intp
    sizes: np.ndarray    # (2T + 1,) intp
    weights: np.ndarray  # each posting's addend in bm25_score, aligned with docs.rows


@dataclass
class Bm25Index:
    """BM25 statistics as term-major arrays.

    Documents ascend strictly by ``doc_ids``, so a document's index is its
    tie-break rank. Group d of ``doc_entities`` holds document d's posting
    terms in first-mention order; retrieval unions these to build the
    retrieved-entity list. Group i of ``docs`` holds the ascending indices of
    the documents that contain ``terms[i]``, and ``tfs`` their term
    frequencies, each at least 1; a term's df is its group size.

    ``postings`` is derived on first use and cached; mutate no field after
    the first retrieval. Scores use Okapi's ``K1`` and ``B``.
    """

    doc_ids: list[str]
    doc_lens: np.ndarray                 # (D,) int64: tokens per document
    doc_entities: Segments               # D groups of entity ids
    terms: np.ndarray                    # (T,) int64, ascending
    docs: Segments                       # T groups of document indices
    tfs: np.ndarray                      # (P,) int64, aligned with docs.rows

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    @functools.cached_property
    def index_of(self) -> dict[str, int]:
        return {d: i for i, d in enumerate(self.doc_ids)}

    @functools.cached_property
    def avgdl(self) -> float:
        return int(self.doc_lens.sum()) / self.n_docs

    @functools.cached_property
    def postings(self) -> Postings:
        """Each posting's weight, one term's addend in ``bm25_score``.

        The weights use the same operation order as ``bm25_score``, so summing
        a query's weights in query order reproduces its scores bit for bit.
        Every tf is at least 1, so an index whose documents are all empty has
        no posting, and no weight divides by its zero ``avgdl``.
        """
        offsets = self.docs.offsets
        df = self.docs.sizes
        dfs, which = np.unique(df, return_inverse=True)  # one math.log per distinct df
        idf = np.array([_idf(self.n_docs, d) for d in dfs.tolist()], np.float64)[which].repeat(df)
        tf = self.tfs.astype(np.float64)
        dl = self.doc_lens[self.docs.rows].astype(np.float64)
        length_norm = K1 * (1.0 - B + B * dl / self.avgdl)
        weights = idf * tf * (K1 + 1.0) / (tf + length_norm)
        edges = self.terms.repeat(2)
        edges[1::2] += 1
        bounds = offsets.repeat(2)  # slot s spans [bounds[s], bounds[s + 1])
        return Postings(edges, bounds[:-1], bounds[1:] - bounds[:-1], weights)


@dataclass(frozen=True)
class RetrievalResult:
    """Ranked conversations plus the entities they mention.

    ``entities`` preserves rank order, then first-mention order within a
    document, deduplicated.
    """

    ranked: tuple[tuple[str, float], ...]
    entities: tuple[int, ...]


def build_index(corpus: Corpus) -> Bm25Index:
    """Index the corpus's training conversations with Okapi's K1 and B; no
    other split is read.

    A document is a conversation, its tokens every entity it mentions.
    """
    convs, tokens, _ = training_mentions(corpus)
    if not len(convs):
        raise ValidationError("cannot build a retrieval index: the corpus has no "
                              "training conversation")
    doc_ids = [corpus.conversation_ids[c] for c in convs.tolist()]
    if any(x >= y for x, y in zip(doc_ids, doc_ids[1:])):  # document order must be strict
        raise ValidationError("conversation ids do not ascend: a conversation_id repeats or "
                              "is out of order")
    n_docs = len(doc_ids)
    terms, term_of = np.unique(tokens.rows.astype(np.int64), return_inverse=True)
    # one (term, document) key per token, term-major; a key's count is its tf
    keys, tfs = np.unique(term_of * n_docs + tokens.group_of_rows(), return_counts=True)
    posting_term, rows = np.divmod(keys, n_docs)
    return Bm25Index(doc_ids=doc_ids, doc_lens=tokens.sizes.astype(np.int64),
                     doc_entities=tokens.distinct(), terms=terms,
                     docs=Segments(rows, posting_term.searchsorted(np.arange(len(terms) + 1))),
                     tfs=tfs.astype(np.int64))


def bm25_score(index: Bm25Index, query: Sequence[int], doc_id: str) -> float:
    """Okapi score of one document for a query multiset of entity ids."""
    doc_idx = index.index_of.get(doc_id)
    if doc_idx is None:
        raise ValueError(f"unknown document {doc_id!r}")
    held = (index.docs.rows == doc_idx).nonzero()[0]  # the document's postings
    if not held.size:  # no term to score; avgdl is 0 if every document is empty
        return 0.0
    term_idx = index.docs.group_of_rows()[held]
    df = index.docs.sizes[term_idx]
    tf_df = dict(zip(index.terms[term_idx].tolist(), zip(index.tfs[held].tolist(), df.tolist())))
    doc_len = int(index.doc_lens[doc_idx])
    length_norm = K1 * (1.0 - B + B * doc_len / index.avgdl)
    score = 0.0
    for term in query:
        if term in tf_df:
            tf, df = tf_df[term]
            score += _idf(index.n_docs, df) * tf * (K1 + 1.0) / (tf + length_norm)
    return score


def retrieve_batch(index: Bm25Index, queries: Segments, n: int,
                   exclude: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each query's top-n documents by BM25, as the CSR ``(docs, scores, found)``.

    Query b is the multiset of entity ids in group b of ``queries``; ids the
    index lacks, negative ones included, add nothing. ``exclude[b]`` is a
    document index that query b never returns, or -1. Query b's documents
    are ``docs[found[b]:found[b + 1]]``, as document indices: only positive
    scores, the highest first, ties to the lower index (the lower ``doc_id``).

    Every query position adds its term's postings, and ``np.bincount`` sums
    them in that order from 0.0, so each score equals ``bm25_score`` bit for
    bit. Queries are scored a chunk at a time into a dense array of at most
    ``SCRATCH_BYTES``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    edges, starts, sizes, weights = index.postings
    doc_of = index.docs.rows
    rows, offsets = queries.rows, queries.offsets
    bounds = offsets.tolist()
    n_docs = index.n_docs
    n_queries = len(bounds) - 1
    # each query position's postings; an id the index lacks finds an empty slot
    slot = edges.searchsorted(rows, "right")
    begin, count = starts[slot], sizes[slot]
    # a chunk's scores are one flat (queries, stride) array whose last column,
    # n_docs, is a spare that no posting reaches; exclude -1 lands on the spare
    # column just before its row's start (the last row's, for the first row)
    stride = n_docs + 1
    width = min(n, n_docs)
    top_docs = np.zeros((n_queries, width), np.intp)
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
        key = doc_of[pos]
        if hi - lo > 1:  # a one-query chunk's keys are its documents
            key += row_start.repeat(offsets[lo + 1:hi + 1] - offsets[lo:hi]).repeat(size)
        scores = np.bincount(key, weights[pos], (hi - lo) * stride)
        scores[row_start + exclude[lo:hi]] = 0.0
        if n_queries == 1:  # one query (a retrieve, a recommend turn): sort its hits once
            hits = (scores > 0.0).nonzero()[0]
            top = hits[(-scores[hits]).argsort(kind="stable")[:n]]  # ties keep index order
            return top, scores[top], np.array([0, len(top)])
        # a row's maximum, the lowest index among equals, is its next document;
        # zeroing it leaves the rest
        by_row = scores.reshape(hi - lo, stride)
        for j in range(width):
            best = by_row.argmax(axis=1)
            top_docs[lo:hi, j] = best
            best = best + row_start
            top_scores[lo:hi, j] = top = scores[best]
            if j + 1 == width or not top.max() > 0.0:
                break
            scores[best] = 0.0
    # positive scores lead each row, so a row's hits stay in score order
    hits = top_scores > 0.0
    found = np.zeros(n_queries + 1, np.intp)
    found[1:] = hits.sum(axis=1).cumsum()
    return top_docs[hits], top_scores[hits], found


def retrieve(index: Bm25Index, query: Sequence[int], n: int,
             exclude_id: str | None = None) -> RetrievalResult:
    """Top-n conversations by BM25 with deterministic tie-breaking.

    Only documents with positive score (i.e. sharing at least one query
    entity) are returned; the excluded conversation never is. This is
    ``retrieve_batch`` of one query.
    """
    docs, scores, _ = retrieve_batch(index, Segments.of([query]), n,
                                     np.array([index.index_of.get(exclude_id, -1)]))
    return RetrievalResult(
        ranked=tuple(zip(map(index.doc_ids.__getitem__, docs.tolist()), scores.tolist())),
        entities=tuple(dict.fromkeys(index.doc_entities.take(docs).rows.tolist())),
    )
