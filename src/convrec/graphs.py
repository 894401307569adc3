"""Graph structures: item KG, word graph with GCN normalization, interaction graph."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse as sp

from .corpus import Conversation, EntityVocab, Sentiment, Split, WordVocab
from .errors import LeakageError, MissingArtifactError, ParseError, ValidationError

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
        self.edges = np.unique(arr, axis=0)
        self._operators: dict[tuple[int, bool, float], sp.csr_matrix] = {}

    def relation_operator(self, rel: int, *, in_degree: bool = False,
                          z: float = 1.0) -> sp.csr_matrix:
        """Normalized message operator of relation ``rel``, built once and cached.

        ``(op @ h)[i]`` is the sum over relation-``rel`` neighbors j of i of
        ``norm[i] * h[j]``, where ``norm[i]`` is 1 / in-degree of i when
        ``in_degree`` is set (z is then ignored) and 1 / z otherwise. Each
        distinct neighbor counts once, so a self-loop or a pair given both
        ways is one entry.
        """
        key = (rel, True, 1.0) if in_degree else (rel, False, float(z))
        op = self._operators.get(key)
        if op is None:
            n = self.n_nodes
            heads, _, tails = self.edges[self.edges[:, 1] == rel].T
            # both directions as one key dst * n + src: np.unique sorts by
            # destination, then source, and keeps each message once
            keys = np.unique(np.concatenate([heads * n + tails, tails * n + heads]))
            dst, src = np.divmod(keys, n)
            in_deg = np.bincount(dst, minlength=n)
            norm = 1.0 / in_deg[dst] if in_degree else np.full(src.size, 1.0 / z)
            indptr = np.concatenate([[0], np.cumsum(in_deg)])
            op = sp.csr_matrix((norm, src, indptr), shape=(n, n))
            self._operators[key] = op
        return op


@dataclass
class NormalizedAdjacency:
    """Symmetric-normalized word adjacency D^{-1/2} (A + I) D^{-1/2}, kept sparse."""

    matrix: sp.csr_matrix
    degrees: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.matrix.shape[0]


def normalize_adjacency(n_nodes: int, edges: Iterable[tuple[int, int]]) -> NormalizedAdjacency:
    """Build D^{-1/2} (A + I) D^{-1/2} from an undirected 0/1 edge list.

    Self-loops are forced onto every node first; explicit self-edges in the
    input collapse into the same single loop.
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
    inv_sqrt = 1.0 / np.sqrt(degrees)
    d_half = sp.diags(inv_sqrt)
    normalized = (d_half @ adj @ d_half).tocsr()
    return NormalizedAdjacency(matrix=normalized, degrees=degrees)


@dataclass
class WordGraph:
    """Word graph restricted to words that appear in the edge file.

    ``word_ids[row]`` is the vocabulary id behind graph row ``row``;
    ``rows`` is the inverse map. Context words outside ``rows`` have no
    representation and are skipped by the preference module.
    """

    graph: TypedGraph
    adjacency: NormalizedAdjacency
    word_ids: list[int]
    rows: dict[int, int]


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
        self.user_index = {u: i for i, u in enumerate(self.users)}
        self.item_index = {e: i for i, e in enumerate(self.items)}
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
    with open(path, "w", encoding="utf-8") as fh:
        for user_idx, rel, item_idx in graph.edges.tolist():
            token = entities.tokens[graph.items[item_idx]]
            fh.write(f"{graph.users[user_idx]}\t{INTERACTION_RELATIONS[rel]}\t{token}\n")


def load_interaction_graph(path: str | Path, entities: EntityVocab) -> InteractionGraph:
    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(f"interaction graph not found: {path}")
    triples: set[tuple[str, int, int]] = set()
    users: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError(f"expected 3 tab-separated fields, got {len(parts)}",
                                 line=lineno)
            user, rel_name, token = parts
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
    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(f"item KG not found: {path}")
    raw_triples: list[tuple[int, str, int]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError(f"expected 3 tab-separated fields, got {len(parts)}",
                                 line=lineno)
            head, rel, tail = parts
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
    pairs = list(word_pairs)
    mentioned = {w for pair in pairs for w in pair}
    word_ids = sorted(mentioned)
    rows = {w: i for i, w in enumerate(word_ids)}
    row_edges = [(rows[a], rows[b]) for a, b in pairs]
    typed_edges = [(min(i, j), 0, max(i, j)) for i, j in row_edges]
    graph = TypedGraph(len(word_ids), ("related",), typed_edges)
    adjacency = normalize_adjacency(len(word_ids), row_edges)
    return WordGraph(graph=graph, adjacency=adjacency, word_ids=word_ids, rows=rows)


def load_word_graph(path: str | Path, words: WordVocab) -> WordGraph:
    """Load undirected ``word<TAB>word`` edges and precompute the GCN operator."""
    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(f"word graph not found: {path}")
    word_pairs: list[tuple[int, int]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ParseError(f"expected 2 tab-separated fields, got {len(parts)}",
                                 line=lineno)
            try:
                a = words.resolve(parts[0])
                b = words.resolve(parts[1])
            except ValidationError as exc:
                raise ValidationError(f"line {lineno}: {exc}") from None
            word_pairs.append((a, b))
    return build_word_graph(word_pairs)


def save_word_graph(word_graph: WordGraph, words: WordVocab, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for head, _, tail in word_graph.graph.edges.tolist():
            a = words.words[word_graph.word_ids[head]]
            b = words.words[word_graph.word_ids[tail]]
            fh.write(f"{a}\t{b}\n")


def save_kg(graph: TypedGraph, entities: EntityVocab, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for head, rel, tail in graph.edges.tolist():
            fh.write(f"{entities.tokens[head]}\t{graph.relations[rel]}\t{entities.tokens[tail]}\n")
