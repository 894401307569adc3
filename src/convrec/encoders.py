"""Graph encoders: relational message passing, word-graph convolution, and
the popularity augmentation that adds interaction-side item encodings onto
knowledge-side ones.

All weight matrices act on row vectors (``rows @ W``), matching the
right-multiplied convolution form used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigurationError
from .graphs import InteractionGraph, TypedGraph, WordGraph
from .optim import ParamStore

NORM_CONSTANT = "constant"
NORM_IN_DEGREE = "in_degree"


def uniform_init(rng: np.random.Generator, shape: tuple[int, ...], dim: int) -> np.ndarray:
    """Uniform values in [-1/sqrt(dim), +1/sqrt(dim)]."""
    bound = 1.0 / np.sqrt(dim)
    return rng.uniform(-bound, bound, size=shape)


@dataclass
class RgcnParams:
    """Embedding table plus per-layer relation and self transforms."""

    dim: int
    relations: tuple[str, ...]
    embedding: Tensor
    rel_weights: list[dict[str, Tensor]]
    self_weights: list[Tensor]
    z: float = 1.0
    normalization: str = NORM_CONSTANT

    @property
    def n_layers(self) -> int:
        return len(self.self_weights)


def init_rgcn_params(
    store: ParamStore,
    prefix: str,
    n_nodes: int,
    relations: tuple[str, ...],
    dim: int,
    rng: np.random.Generator,
    *,
    layers: int = 2,
    z: float = 1.0,
    normalization: str = NORM_CONSTANT,
) -> RgcnParams:
    if normalization not in (NORM_CONSTANT, NORM_IN_DEGREE):
        raise ConfigurationError(f"unknown normalization mode {normalization!r}")
    if layers < 1:
        raise ConfigurationError(f"an encoder needs at least one layer, got {layers}")
    if normalization == NORM_CONSTANT and z <= 0:
        raise ConfigurationError(f"normalization constant must be positive, got {z}")
    embedding = store.add(f"{prefix}.emb", uniform_init(rng, (n_nodes, dim), dim))
    rel_weights: list[dict[str, Tensor]] = []
    self_weights: list[Tensor] = []
    for layer in range(layers):
        per_rel = {
            rel: store.add(f"{prefix}.l{layer}.rel.{rel}", uniform_init(rng, (dim, dim), dim))
            for rel in relations
        }
        rel_weights.append(per_rel)
        self_weights.append(store.add(f"{prefix}.l{layer}.self", uniform_init(rng, (dim, dim), dim)))
    return RgcnParams(dim=dim, relations=tuple(relations), embedding=embedding,
                      rel_weights=rel_weights, self_weights=self_weights,
                      z=z, normalization=normalization)


def rgcn_forward(graph: TypedGraph, params: RgcnParams, n_rows: int | None = None) -> Tensor:
    """Layered relational convolution over all nodes at once; returns rows [0, n_rows).

    Each layer computes ReLU(sum_r (A_r @ H) W_r + H W_self) with A_r the
    normalized operator of relation r, reading only the previous layer, so
    bipartite graphs update both node sides synchronously. The graph's cached
    layer operator stacks every A_r and the identity, so a layer is one
    sparse product, reshaped to (n, (R + 1) d), times the stacked weights
    [W_1; ...; W_R; W_self]. Its rows are node-major, so the last layer
    computes only the ``n_rows`` (default: all) rows the caller reads by
    multiplying a leading row block of it. The graph caches each operator
    with its transpose, which the product's backward multiplies by.
    """
    missing = [r for r in graph.relations if r not in params.rel_weights[0]]
    if missing:
        raise ConfigurationError(f"no weights for relations {missing}")
    if graph.n_nodes != params.embedding.shape[0]:
        raise ConfigurationError(
            f"embedding table has {params.embedding.shape[0]} rows, graph has {graph.n_nodes} nodes"
        )
    n, blocks = graph.n_nodes, len(graph.relations) + 1
    n_rows = n if n_rows is None else n_rows
    if not 0 <= n_rows <= n:
        raise ConfigurationError(f"cannot return {n_rows} rows of a {n}-node graph")
    norm = {"in_degree": params.normalization == NORM_IN_DEGREE, "z": params.z}
    h = params.embedding
    for layer in range(params.n_layers):
        rows = n_rows if layer == params.n_layers - 1 else n
        op, op_t = graph.layer_operator(**norm, n_rows=rows)
        weights = ad.concat([*(params.rel_weights[layer][rel] for rel in graph.relations),
                             params.self_weights[layer]])
        # no local holds the (R + 1)-block product: without a tape it is freed
        # before the next layer builds its own
        h = ad.relu(ad.matmul(ad.reshape(ad.spmm(op, op_t, h), (rows, blocks * params.dim)),
                              weights))
    return h


@dataclass
class GcnParams:
    dim: int
    embedding: Tensor
    weights: list[Tensor]


def init_gcn_params(
    store: ParamStore,
    prefix: str,
    n_nodes: int,
    dim: int,
    rng: np.random.Generator,
    *,
    layers: int = 2,
) -> GcnParams:
    embedding = store.add(f"{prefix}.emb", uniform_init(rng, (n_nodes, dim), dim))
    weights = [
        store.add(f"{prefix}.l{layer}.w", uniform_init(rng, (dim, dim), dim))
        for layer in range(layers)
    ]
    return GcnParams(dim=dim, embedding=embedding, weights=weights)


def gcn_forward(word_graph: WordGraph, params: GcnParams) -> Tensor:
    """Layered ReLU(A_hat @ V @ W) over the word graph's precomputed normalized adjacency."""
    h = params.embedding
    for w in params.weights:
        h = ad.relu(ad.matmul(ad.spmm(word_graph.adjacency, word_graph.adjacency_t, h), w))
    return h


def encode_items(
    kg: TypedGraph,
    interaction: InteractionGraph,
    kg_params: RgcnParams,
    ig_params: RgcnParams | None,
    *,
    without_ig: bool = False,
    without_db: bool = False,
    n_rows: int | None = None,
) -> Tensor:
    """Rows [0, n_rows) (default: every KG node) of the entity representation
    matrix with popularity augmentation.

    Row e holds the KG encoding of entity e plus, for items the interaction
    graph knows, the interaction-side encoding (elementwise). Entities the
    interaction graph never saw get the KG encoding alone. ``without_db``
    swaps the KG encoding for the raw embedding table; ``without_ig`` drops
    the interaction term. Every path returns the same ``n_rows`` rows, which
    must hold every interaction item; the KG encoder's last layer computes
    only those, so a caller that reads only the leading rows passes their
    count and the rows past it cost nothing.
    """
    n = kg.n_nodes if n_rows is None else n_rows
    if without_db:
        emb = kg_params.embedding
        k = emb if n == emb.shape[0] else ad.lookup(emb, np.arange(n))
    else:
        k = rgcn_forward(kg, kg_params, n)
    if without_ig or not interaction.items.size:
        return k
    if ig_params is None:
        raise ConfigurationError("interaction graph given but no interaction parameters")
    if ig_params.dim != kg_params.dim:
        raise ConfigurationError(
            f"encoder dims differ: kg={kg_params.dim}, interaction={ig_params.dim}"
        )
    # items are the interaction graph's leading rows; its user rows are never read
    item_rows = rgcn_forward(interaction, ig_params, interaction.items.size)
    return ad.add(k, ad.scatter_rows(item_rows, interaction.items, n))
