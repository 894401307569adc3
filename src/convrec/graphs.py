"""Graph structures: item KG, word graph with GCN normalization, interaction graph."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse as sp

from .corpus import Conversation, EntityVocab, Sentiment, Split, WordVocab, _tsv_rows
from .errors import LeakageError, ParseError, ValidationError
from .optim import atomic_write

LIKE = "like"
DISLIKE = "dislike"
INTERACTION_RELATIONS = (LIKE, DISLIKE)


def _edge_array(edges: np.ndarray | Sequence[tuple[int, int, int]]) -> np.ndarray:
    """``edges`` as an (E, 3) intp array of (head, relation, tail) rows, in input order."""
    arr = np.asarray(edges, dtype=np.intp)
    if arr.size == 0:
        return arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValidationError(f"edges must be (head, relation, tail) rows, got shape {arr.shape}")
    return arr


def _messages(heads: np.ndarray, tails: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct (dst, src) messages of undirected pairs over ``n`` nodes.

    Both directions of every pair become one key dst * n + src; np.unique
    sorts by destination, then source, and keeps each message once, so a
    self-loop or a pair given both ways is one message.
    """
    return np.divmod(np.unique(np.concatenate([heads * n + tails, tails * n + heads])), n)


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
        # rows are in range, so the key (head * R + rel) * n + tail sorts and
        # de-duplicates them exactly as the rows themselves would
        n_rel = len(self.relations)
        rest, tails = np.divmod(np.unique((heads * n_rel + rels) * n_nodes + tails), n_nodes)
        self.edges = np.stack([*np.divmod(rest, n_rel), tails], axis=1)
        self._layer_operators: dict[tuple[bool, float], sp.csr_matrix] = {}

    def relation_operator(self, rel: int, *, in_degree: bool = False,
                          z: float = 1.0) -> sp.csr_matrix:
        """Normalized message operator of relation ``rel``; only :meth:`layer_operator` caches.

        ``(op @ h)[i]`` is the sum over relation-``rel`` neighbors j of i of
        ``norm[i] * h[j]``, where ``norm[i]`` is 1 / in-degree of i when
        ``in_degree`` is set (z is then ignored) and 1 / z otherwise. Each
        distinct neighbor counts once, so a self-loop or a pair given both
        ways is one entry.
        """
        n = self.n_nodes
        heads, _, tails = self.edges[self.edges[:, 1] == rel].T
        dst, src = _messages(heads, tails, n)
        in_deg = np.bincount(dst, minlength=n)
        norm = 1.0 / in_deg[dst] if in_degree else np.full(src.size, 1.0 / z)
        indptr = np.concatenate([[0], np.cumsum(in_deg)])
        return sp.csr_matrix((norm, src, indptr), shape=(n, n))

    def layer_operator(self, *, in_degree: bool, z: float) -> sp.csr_matrix:
        """All relation operators and the identity as one ((R + 1) n, n) CSR, built once and cached.

        Row ``i * (R + 1) + r`` is row i of ``relation_operator(r)`` and row
        ``i * (R + 1) + R`` is the identity row of node i, so ``op @ h``
        reshaped to (n, (R + 1) d) holds, in row i, each relation's message
        to i followed by ``h[i]``.
        """
        key = (True, 1.0) if in_degree else (False, float(z))
        op = self._layer_operators.get(key)
        if op is None:
            n, n_blocks = self.n_nodes, len(self.relations) + 1
            blocks = [self.relation_operator(r, in_degree=in_degree, z=z)
                      for r in range(n_blocks - 1)]
            stacked = sp.vstack([*blocks, sp.identity(n, format="csr")], format="csr")
            # block-major rows r * n + i become node-major rows i * (R + 1) + r
            op = stacked[np.arange(n_blocks * n).reshape(n_blocks, n).T.ravel()]
            self._layer_operators[key] = op
        return op


def normalize_adjacency(n_nodes: int,
                        pairs: np.ndarray | Sequence[tuple[int, int]]) -> sp.csr_matrix:
    """D^{-1/2} (A + I) D^{-1/2} of undirected 0/1 row pairs, as CSR.

    Self-loops are forced onto every node; a self pair in the input
    collapses into the same single loop, and so does a repeated pair.
    """
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
    pairs (min row, max row), self pairs included; ``adjacency`` is their
    normalized GCN operator. ``word_ids[row]`` is the vocabulary id behind
    graph row ``row``; ``Model.word_row`` is the inverse intp table, -1 for
    no row. ``Model.contexts`` counts such words in ``missing_words``.
    """

    pairs: np.ndarray
    adjacency: sp.csr_matrix
    word_ids: list[int]

    @property
    def n_nodes(self) -> int:
        return len(self.word_ids)


class InteractionGraph:
    """Bipartite user-item graph with like/dislike edges from training data.

    Users are indexed by sorted user_id; items hold entity-vocabulary ids and
    only items with at least one sentiment edge are nodes. The graph is fully
    determined by the set of (user, sentiment, item) mentions, so conversation
    order never matters.
    """

    def __init__(self, users: Sequence[str], items: Sequence[int],
                 edges: np.ndarray | Sequence[tuple[int, int, int]]):
        self.users = list(users)
        self.items = list(items)
        self.relations = INTERACTION_RELATIONS
        # sorted distinct (user, relation, item) rows, like TypedGraph.edges
        self.edges = np.unique(_edge_array(edges), axis=0)
        self._typed: TypedGraph | None = None
        user_idx, rel, item_idx = self.edges.T
        bad_user = (user_idx < 0) | (user_idx >= len(self.users))
        bad_item = (item_idx < 0) | (item_idx >= len(self.items))
        bad = bad_user | bad_item | (rel < 0) | (rel > 1)
        if bad.any():
            first = int(np.argmax(bad))
            user, relation, item = self.edges[first].tolist()
            if bad_user[first]:
                raise ValidationError(f"user index out of range: {user}")
            if bad_item[first]:
                raise ValidationError(f"item index out of range: {item}")
            raise ValidationError(f"relation index out of range: {relation}")

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_items(self) -> int:
        return len(self.items)

    def as_typed(self) -> TypedGraph:
        """View as one TypedGraph: items at rows [0, n_items), users after.

        Both node sides then update through the same relation weights in a
        single message-passing call, which is exactly the synchronous
        two-sided update the encoder needs.
        """
        if self._typed is None:
            # (user, rel, item) rows become (item row, rel, user row)
            edges = self.edges[:, ::-1] + np.array([0, 0, self.n_items])
            self._typed = TypedGraph(self.n_items + self.n_users, INTERACTION_RELATIONS, edges)
        return self._typed


def _interaction_graph(users: set[str], triples: set[tuple[str, int, int]]) -> InteractionGraph:
    """Index users and items in sorted order and re-index (user, rel, item) triples."""
    user_list = sorted(users)
    item_list = sorted({item for _, _, item in triples})
    user_index = {u: i for i, u in enumerate(user_list)}
    item_index = {e: i for i, e in enumerate(item_list)}
    edges = [(user_index[u], rel, item_index[e]) for u, rel, e in triples]
    return InteractionGraph(user_list, item_list, edges)


def build_interaction_graph(train_conversations: Iterable[Conversation],
                            entities: EntityVocab) -> InteractionGraph:
    """Extract deduplicated (user, like/dislike, item) edges from training data."""
    users: set[str] = set()
    triples: set[tuple[str, int, int]] = set()
    for conv in train_conversations:
        if conv.split != Split.TRAIN:
            raise LeakageError(
                f"conversation {conv.conversation_id!r} is {conv.split.value}, not train"
            )
        users.add(conv.user_id)
        for utt in conv.utterances:
            for m in utt.mentions:
                if m.sentiment == Sentiment.NEUTRAL or not entities.is_item[m.entity]:
                    continue
                rel = 0 if m.sentiment == Sentiment.LIKE else 1
                triples.add((conv.user_id, rel, m.entity))

    return _interaction_graph(users, triples)


def save_interaction_graph(graph: InteractionGraph, entities: EntityVocab,
                           path: str | Path) -> None:
    """Persist as ``user_id<TAB>like|dislike<TAB>entity_token`` lines."""
    with atomic_write(path, text=True) as fh:
        for user_idx, rel, item_idx in graph.edges.tolist():
            token = entities.tokens[graph.items[item_idx]]
            fh.write(f"{graph.users[user_idx]}\t{INTERACTION_RELATIONS[rel]}\t{token}\n")


def load_interaction_graph(path: str | Path, entities: EntityVocab) -> InteractionGraph:
    triples: set[tuple[str, int, int]] = set()
    users: set[str] = set()
    for lineno, (user, rel_name, token) in _tsv_rows(path, 3, "interaction graph"):
        if rel_name not in INTERACTION_RELATIONS:
            raise ParseError(f"unknown relation {rel_name!r}", line=lineno)
        users.add(user)
        triples.add((user, INTERACTION_RELATIONS.index(rel_name), entities.resolve(token)))
    return _interaction_graph(users, triples)


def load_item_kg(path: str | Path, entities: EntityVocab) -> TypedGraph:
    """Load ``head<TAB>relation<TAB>tail`` triples over the entity vocabulary.

    Relation indices are assigned by sorted relation name, so the parameter
    layout is independent of line order in the file.
    """
    raw_triples: list[tuple[int, str, int]] = []
    for lineno, (head, rel, tail) in _tsv_rows(path, 3, "item KG"):
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


def build_word_graph(word_pairs: Iterable[tuple[int, int]]) -> WordGraph:
    """Assemble a word graph from undirected vocabulary-id edge pairs.

    Graph nodes are exactly the words the pairs mention, rows ordered by
    ascending vocabulary id.
    """
    id_pairs = np.asarray(list(word_pairs), dtype=np.intp).reshape(-1, 2)
    ids, row_of = np.unique(id_pairs, return_inverse=True)
    row_pairs = row_of.reshape(-1, 2)
    n = len(ids)
    keys = np.unique(row_pairs.min(axis=1) * n + row_pairs.max(axis=1))
    pairs = np.stack(np.divmod(keys, n), axis=1)
    return WordGraph(pairs=pairs, adjacency=normalize_adjacency(n, pairs), word_ids=ids.tolist())


def load_word_graph(path: str | Path, words: WordVocab) -> WordGraph:
    """Load undirected ``word<TAB>word`` edges and precompute the GCN operator."""
    word_pairs: list[tuple[int, int]] = []
    for lineno, (a, b) in _tsv_rows(path, 2, "word graph"):
        try:
            word_pairs.append((words.resolve(a), words.resolve(b)))
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from None
    return build_word_graph(word_pairs)


def save_word_graph(word_graph: WordGraph, words: WordVocab, path: str | Path) -> None:
    with atomic_write(path, text=True) as fh:
        for head, tail in word_graph.pairs.tolist():
            a = words.words[word_graph.word_ids[head]]
            b = words.words[word_graph.word_ids[tail]]
            fh.write(f"{a}\t{b}\n")


def save_kg(graph: TypedGraph, entities: EntityVocab, path: str | Path) -> None:
    with atomic_write(path, text=True) as fh:
        for head, rel, tail in graph.edges.tolist():
            fh.write(f"{entities.tokens[head]}\t{graph.relations[rel]}\t{entities.tokens[tail]}\n")
