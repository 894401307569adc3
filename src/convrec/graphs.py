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


class TypedGraph:
    """Undirected typed graph with per-(relation, node) neighbor lists.

    Edges are stored as (head, relation, tail) triples exactly as given, but
    message passing treats them symmetrically: an edge makes each endpoint a
    relation-r neighbor of the other.
    """

    def __init__(self, n_nodes: int, relations: Sequence[str],
                 edges: Iterable[tuple[int, int, int]] = ()):
        if n_nodes < 0:
            raise ValidationError("node count must be non-negative")
        self.n_nodes = n_nodes
        self.relations = tuple(relations)
        if len(set(self.relations)) != len(self.relations):
            raise ValidationError("duplicate relation names")
        seen: set[tuple[int, int, int]] = set()
        ordered: list[tuple[int, int, int]] = []
        for head, rel, tail in edges:
            if not (0 <= head < n_nodes and 0 <= tail < n_nodes):
                raise ValidationError(f"edge endpoint out of range: ({head}, {rel}, {tail})")
            if not (0 <= rel < len(self.relations)):
                raise ValidationError(f"relation index out of range: {rel}")
            key = (head, rel, tail)
            if key in seen:
                continue
            seen.add(key)
            ordered.append(key)
        self.edges = sorted(ordered)

        nbr: list[list[set[int]]] = [
            [set() for _ in range(n_nodes)] for _ in self.relations
        ]
        for head, rel, tail in self.edges:
            nbr[rel][head].add(tail)
            nbr[rel][tail].add(head)
        self._neighbors: list[list[tuple[int, ...]]] = [
            [tuple(sorted(s)) for s in per_rel] for per_rel in nbr
        ]
        self._messages: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._operators: dict[tuple[int, bool, float], sp.csr_matrix] = {}

    def neighbors(self, rel: int, node: int) -> tuple[int, ...]:
        return self._neighbors[rel][node]

    def message_arrays(self, rel: int) -> tuple[np.ndarray, np.ndarray]:
        """Parallel (source, destination) index arrays for relation ``rel``.

        Destination order is node id ascending, then neighbor id ascending,
        which keeps scatter-add accumulation deterministic.
        """
        if rel not in self._messages:
            src: list[int] = []
            dst: list[int] = []
            for node in range(self.n_nodes):
                for other in self._neighbors[rel][node]:
                    src.append(other)
                    dst.append(node)
            self._messages[rel] = (
                np.asarray(src, dtype=np.intp),
                np.asarray(dst, dtype=np.intp),
            )
        return self._messages[rel]

    def relation_operator(self, rel: int, *, in_degree: bool = False,
                          z: float = 1.0) -> sp.csr_matrix:
        """Normalized message operator of relation ``rel``, built once and cached.

        ``(op @ h)[i]`` is the sum over relation-``rel`` neighbors j of i of
        ``norm[i] * h[j]``, where ``norm[i]`` is 1 / in-degree of i when
        ``in_degree`` is set (z is then ignored) and 1 / z otherwise.
        """
        key = (rel, True, 1.0) if in_degree else (rel, False, float(z))
        op = self._operators.get(key)
        if op is None:
            src, dst = self.message_arrays(rel)
            if in_degree:
                norm = 1.0 / np.bincount(dst, minlength=self.n_nodes)[dst]
            else:
                norm = np.full(src.size, 1.0 / z)
            op = sp.csr_matrix((norm, (dst, src)), shape=(self.n_nodes, self.n_nodes))
            self._operators[key] = op
        return op

    def degree(self, rel: int) -> np.ndarray:
        return np.asarray([len(self._neighbors[rel][n]) for n in range(self.n_nodes)],
                          dtype=np.float64)

    def n_edges(self) -> int:
        return len(self.edges)


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
                 edges: Iterable[tuple[int, int, int]]):
        self.users = list(users)
        self.items = list(items)
        self.relations = INTERACTION_RELATIONS
        self.user_index = {u: i for i, u in enumerate(self.users)}
        self.item_index = {e: i for i, e in enumerate(self.items)}
        self.edges = sorted(set(edges))
        self._typed: TypedGraph | None = None
        for user_idx, rel, item_idx in self.edges:
            if not (0 <= user_idx < len(self.users)):
                raise ValidationError(f"user index out of range: {user_idx}")
            if not (0 <= item_idx < len(self.items)):
                raise ValidationError(f"item index out of range: {item_idx}")
            if rel not in (0, 1):
                raise ValidationError(f"relation index out of range: {rel}")

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
            offset = self.n_items
            edges = [(item_idx, rel, offset + user_idx)
                     for user_idx, rel, item_idx in self.edges]
            self._typed = TypedGraph(self.n_items + self.n_users, INTERACTION_RELATIONS, edges)
        return self._typed


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

    user_list = sorted(users)
    item_list = sorted({item for _, _, item in triples})
    user_index = {u: i for i, u in enumerate(user_list)}
    item_index = {e: i for i, e in enumerate(item_list)}
    edges = [(user_index[u], rel, item_index[e]) for u, rel, e in triples]
    return InteractionGraph(user_list, item_list, edges)


def save_interaction_graph(graph: InteractionGraph, entities: EntityVocab,
                           path: str | Path) -> None:
    """Persist as ``user_id<TAB>like|dislike<TAB>entity_token`` lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for user_idx, rel, item_idx in graph.edges:
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
    user_list = sorted(users)
    item_list = sorted({item for _, _, item in triples})
    user_index = {u: i for i, u in enumerate(user_list)}
    item_index = {e: i for i, e in enumerate(item_list)}
    edges = [(user_index[u], rel, item_index[e]) for u, rel, e in triples]
    return InteractionGraph(user_list, item_list, edges)


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
        for head, _, tail in word_graph.graph.edges:
            a = words.words[word_graph.word_ids[head]]
            b = words.words[word_graph.word_ids[tail]]
            fh.write(f"{a}\t{b}\n")


def save_kg(graph: TypedGraph, entities: EntityVocab, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for head, rel, tail in graph.edges:
            fh.write(f"{entities.tokens[head]}\t{graph.relations[rel]}\t{entities.tokens[tail]}\n")
