"""Graph structures: the typed item KG, the word graph with GCN normalization,
and the interaction graph, a typed graph over items and users."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .autodiff import sorted_distinct
from .corpus import (
    SENTIMENTS,
    Corpus,
    EntityVocab,
    Sentiment,
    WordVocab,
    _lookup_rows,
    _tsv_rows,
    training_mentions,
)
from .errors import ValidationError

if TYPE_CHECKING:  # scipy is imported where an operator is built, never by a module import
    from scipy import sparse as sp

INTERACTION_RELATIONS = ("like", "dislike")


def _edge_array(edges: np.ndarray | Sequence[tuple[int, int, int]]) -> np.ndarray:
    """``edges`` as an (E, 3) intp array of (head, relation, tail) rows, in input order."""
    arr = np.asarray(edges, dtype=np.intp)
    if arr.size == 0:
        return arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValidationError(f"edges must be (head, relation, tail) rows, got shape {arr.shape}")
    return arr


def _distinct_rows(arr: np.ndarray, n_rel: int, n_tail: int) -> np.ndarray:
    """The sorted distinct rows of an (E, 3) array of in-range (head, rel, tail) rows.

    Rows in range map one-to-one, in the same order, onto the 1-D key
    (head * n_rel + rel) * n_tail + tail, so one sorted_distinct of the keys
    sorts and de-duplicates them.
    """
    keys = (arr[:, 0] * n_rel + arr[:, 1]) * n_tail + arr[:, 2]
    rest, tails = np.divmod(sorted_distinct(keys), n_tail)
    return np.stack([*np.divmod(rest, n_rel), tails], axis=1)


def _messages(heads: np.ndarray, tails: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct (dst, src) messages of undirected pairs over ``n`` nodes.

    Both directions of every pair become one key dst * n + src; sorted_distinct
    sorts by destination, then source, and keeps each message once, so a
    self-loop or a pair given both ways is one message.
    """
    return np.divmod(sorted_distinct(np.concatenate([heads * n + tails, tails * n + heads])), n)


class TypedGraph:
    """Undirected typed graph held as one edge array.

    ``edges`` is a sorted (E, 3) intp array of the distinct (head, relation,
    tail) triples exactly as given, but message passing treats them
    symmetrically: an edge makes each endpoint a relation-r neighbor of the
    other.
    """

    def __init__(self, n_nodes: int, relations: Sequence[str],
                 edges: np.ndarray | Sequence[tuple[int, int, int]] = ()):
        if n_nodes < 0:
            raise ValidationError("node count must be non-negative")
        self.n_nodes = n_nodes
        self.relations = tuple(relations)
        if len(set(self.relations)) != len(self.relations):
            raise ValidationError("duplicate relation names")
        arr = _edge_array(edges)
        heads, rels, tails = arr.T
        bad_node = (heads < 0) | (heads >= n_nodes) | (tails < 0) | (tails >= n_nodes)
        bad = bad_node | (rels < 0) | (rels >= len(self.relations))
        if bad.any():
            first = int(np.argmax(bad))
            head, rel, tail = arr[first].tolist()
            if bad_node[first]:
                raise ValidationError(f"edge endpoint out of range: ({head}, {rel}, {tail})")
            raise ValidationError(f"relation index out of range: {rel}")
        self.edges = _distinct_rows(arr, len(self.relations), n_nodes)
        self._layer_operators: dict[tuple[bool, float, int],
                                    tuple[sp.csr_matrix, sp.csc_matrix]] = {}

    def layer_operator(self, *, in_degree: bool, z: float, n_rows: int | None = None
                       ) -> tuple[sp.csr_matrix, sp.csc_matrix]:
        """The layer operator of nodes [0, n_rows) (default: all) and its transpose.

        The full operator is one ((R + 1) n, n) CSR, built from the edges by
        one sorted_distinct of the keys row * n + column. Row ``i * (R + 1) + r``
        holds a 1 / z entry, or with ``in_degree`` a 1 / (row count) one, in
        column j for each distinct relation-r neighbor j of i: a self-loop or
        a pair given both ways is one entry. Row ``i * (R + 1) + R`` is node
        i's identity row. So ``op @ h`` reshaped to (n, (R + 1) d) holds, in
        row i, each relation's message to i followed by ``h[i]``. With
        ``n_rows`` the CSR is its leading (R + 1) n_rows rows. The transpose
        is the ``op.T`` scipy returns, a CSC over the CSR's arrays. Both are
        built once per (normalization, n_rows) and cached, so a training step
        builds no sparse matrix.
        """
        from scipy import sparse as sp

        n, n_blocks = self.n_nodes, len(self.relations) + 1
        n_rows = n if n_rows is None else n_rows
        norm = (True, 1.0) if in_degree else (False, float(z))
        pair = self._layer_operators.get((*norm, n_rows))
        if pair is None:
            if n_rows == n:
                heads, rels, tails = self.edges.T
                nodes = np.arange(n)
                # each edge's message both ways, then each node's identity entry
                rows, cols = np.divmod(sorted_distinct(np.concatenate([
                    (heads * n_blocks + rels) * n + tails, (tails * n_blocks + rels) * n + heads,
                    (nodes * n_blocks + n_blocks - 1) * n + nodes])), n)
                counts = np.bincount(rows, minlength=n_blocks * n)
                data = (1.0 / counts[rows] if in_degree  # an identity row's count is 1
                        else np.where(rows % n_blocks == n_blocks - 1, 1.0, 1.0 / z))
                op = sp.csr_matrix((data, cols, np.concatenate([[0], np.cumsum(counts)])),
                                   shape=(n_blocks * n, n))
            else:
                full, _ = self.layer_operator(in_degree=in_degree, z=z)
                end = full.indptr[n_rows * n_blocks]
                op = sp.csr_matrix((full.data[:end], full.indices[:end],
                                    full.indptr[:n_rows * n_blocks + 1]), shape=(n_rows * n_blocks, n))
            pair = self._layer_operators[(*norm, n_rows)] = (op, op.T)
        return pair


def normalize_adjacency(n_nodes: int,
                        pairs: np.ndarray | Sequence[tuple[int, int]]) -> sp.csr_matrix:
    """D^{-1/2} (A + I) D^{-1/2} of undirected 0/1 row pairs, as CSR.

    Self-loops are forced onto every node; a self pair in the input
    collapses into the same single loop, and so does a repeated pair.
    """
    from scipy import sparse as sp

    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    loops = np.arange(n_nodes)
    dst, src = _messages(np.concatenate([pairs[:, 0], loops]),
                         np.concatenate([pairs[:, 1], loops]), n_nodes)
    degrees = np.bincount(dst, minlength=n_nodes)
    inv_sqrt = 1.0 / np.sqrt(degrees)
    indptr = np.concatenate([[0], np.cumsum(degrees)])
    return sp.csr_matrix((inv_sqrt[dst] * inv_sqrt[src], src, indptr), shape=(n_nodes, n_nodes))


@dataclass
class WordGraph:
    """Word graph restricted to words that appear in the edge file.

    ``pairs`` is a sorted (E, 2) intp array of the distinct undirected row
    pairs (min row, max row), self pairs included. ``word_ids[row]`` is the
    vocabulary id behind graph row ``row``; ``Model.word_row`` is the inverse
    intp table, -1 for no row. ``Model.contexts`` counts such words in
    ``missing_words``.
    """

    pairs: np.ndarray
    word_ids: list[int]

    @functools.cached_property
    def adjacency(self) -> sp.csr_matrix:
        """The pairs' normalized GCN operator, built on first use: a process that
        reads no word-graph encoding builds no operator."""
        return normalize_adjacency(self.n_nodes, self.pairs)

    @functools.cached_property
    def adjacency_t(self) -> sp.csc_matrix:
        """The transpose of :attr:`adjacency`, a CSC over the same arrays."""
        return self.adjacency.T

    @property
    def n_nodes(self) -> int:
        return len(self.word_ids)


class InteractionGraph(TypedGraph):
    """Bipartite user-item graph with like/dislike edges from training data.

    It is one TypedGraph over items at rows [0, len(items)) and users after
    them, so both node sides update through the same relation weights in a
    single message-passing call: the synchronous two-sided update the encoder
    needs. ``users`` holds the sorted user ids; ``items`` holds, as an
    ascending intp array, the entity ids of the items with at least one
    sentiment edge. The graph is fully determined by the set of (user,
    sentiment, item) mentions, so conversation order never matters.
    """

    def __init__(self, users: Sequence[str], items: np.ndarray | Sequence[int],
                 edges: np.ndarray | Sequence[tuple[int, int, int]]):
        self.users = list(users)
        self.items = np.asarray(items, dtype=np.intp)
        super().__init__(len(self.items) + len(self.users), INTERACTION_RELATIONS, edges)


def build_interaction_graph(corpus: Corpus, entities: EntityVocab) -> InteractionGraph:
    """The (item row, like/dislike, user row) edges of the corpus's training
    conversations; no other split is read.

    Every training user is a node, with or without an edge; users and items
    are indexed in sorted order.
    """
    convs, mentions, sentiment = training_mentions(corpus)
    ent = mentions.rows
    kept = np.flatnonzero((sentiment != SENTIMENTS.index(Sentiment.NEUTRAL))
                          & np.array(entities.is_item, bool)[ent])
    users = [corpus.user_ids[c] for c in convs.tolist()]
    user_list = sorted(set(users))
    user_index = {u: i for i, u in enumerate(user_list)}
    conv_user = np.array([user_index[u] for u in users], dtype=np.intp)
    rels = sentiment[kept] == SENTIMENTS.index(Sentiment.DISLIKE)  # like 0, dislike 1
    items, item_rows = np.unique(ent[kept].astype(np.intp), return_inverse=True)
    user_rows = len(items) + conv_user[mentions.group_of_rows()[kept]]
    return InteractionGraph(user_list, items,
                            np.stack([item_rows, rels.astype(np.intp), user_rows], axis=1))


def load_item_kg(path: str | Path, entities: EntityVocab) -> TypedGraph:
    """Load ``head<TAB>relation<TAB>tail`` triples over the entity vocabulary.

    Heads and tails are mapped to entity ids with one dict lookup each;
    ``EntityVocab.resolve`` sees only a ref that is not an id token, and
    the first line it rejects names the error. Relation indices are
    assigned by sorted relation name, so the parameter layout is
    independent of line order in the file.
    """
    linenos, (heads, rels, tails), error = _tsv_rows(path, 3, "item KG")
    ends = _lookup_rows(entities._by_token, entities.resolve, [heads, tails], linenos)
    if error:
        raise error
    relations = sorted(set(rels))
    rel_index = {r: i for i, r in enumerate(relations)}
    rel_ids = np.array([rel_index[r] for r in rels], dtype=np.intp)
    return TypedGraph(len(entities), relations,
                      np.stack([ends[:, 0], rel_ids, ends[:, 1]], axis=1))


def build_word_graph(word_pairs: np.ndarray | Iterable[tuple[int, int]]) -> WordGraph:
    """Assemble a word graph from undirected vocabulary-id edge pairs.

    Graph nodes are exactly the words the pairs mention, rows ordered by
    ascending vocabulary id.
    """
    if not isinstance(word_pairs, np.ndarray):
        word_pairs = list(word_pairs)
    id_pairs = np.asarray(word_pairs, dtype=np.intp).reshape(-1, 2)
    ids, row_of = np.unique(id_pairs, return_inverse=True)
    row_pairs = row_of.reshape(-1, 2)
    n = len(ids)
    keys = sorted_distinct(row_pairs.min(axis=1) * n + row_pairs.max(axis=1))
    pairs = np.stack(np.divmod(keys, n), axis=1)
    return WordGraph(pairs=pairs, word_ids=ids.tolist())


def load_word_graph(path: str | Path, words: WordVocab) -> WordGraph:
    """Load undirected ``word<TAB>word`` edges."""
    linenos, (heads, tails), error = _tsv_rows(path, 2, "word graph")
    pairs = _lookup_rows(words._index, words.resolve, [heads, tails], linenos)
    if error:
        raise error
    return build_word_graph(pairs)
