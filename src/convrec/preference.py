"""User preference modeling: pooled entity and word evidence fused by a gate.

The entity side pools representations of mentioned plus retrieved entities;
the word side pools word-graph representations of the conversation's content
words. A learned sigmoid gate mixes the two pooled vectors into the final
user representation.

The input is integer rows, compiled once per split by ``Model.contexts``
into a ``Contexts`` record. A batch is built at once. Each source arrives
as an ``ad.Segments`` field: the rows of all examples concatenated, and
(B + 1) offsets marking where each example's rows start, checked when the
field was built and not again. One lookup per source feeds the scores
b . tanh(R W) of every row; a segment softmax and a segment sum over the
field pool them into (B, d). The gate is one ``ad.blend`` of the two pools.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoders import new_param
from .errors import ShapeError
from .optim import ParamStore

GATE_ELEMENTWISE = "elementwise"
GATE_SCALAR = "scalar"


@dataclass
class AttentionParams:
    """Two pooling heads plus the fusion gate.

    ``w_gate`` maps an example's concatenated (2d,) evidence to d gate
    logits, or to a single logit in scalar mode.
    """

    dim: int
    w_entity: Tensor
    b_entity: Tensor
    w_word: Tensor
    b_word: Tensor
    w_gate: Tensor
    gate_mode: str = GATE_ELEMENTWISE


def init_attention_params(
    store: ParamStore,
    prefix: str,
    dim: int,
    rng: np.random.Generator | None,
    *,
    gate_mode: str = GATE_ELEMENTWISE,
) -> AttentionParams:
    if gate_mode not in (GATE_ELEMENTWISE, GATE_SCALAR):
        raise ValueError(f"unknown gate mode {gate_mode!r}")
    gate_rows = dim if gate_mode == GATE_ELEMENTWISE else 1
    return AttentionParams(
        dim=dim,
        w_entity=new_param(store, f"{prefix}.ent.w", (dim, dim), dim, rng),
        b_entity=new_param(store, f"{prefix}.ent.b", (dim,), dim, rng),
        w_word=new_param(store, f"{prefix}.word.w", (dim, dim), dim, rng),
        b_word=new_param(store, f"{prefix}.word.b", (dim,), dim, rng),
        w_gate=new_param(store, f"{prefix}.gate.w", (gate_rows, 2 * dim), 2 * dim, rng),
        gate_mode=gate_mode,
    )


@dataclass
class UserRep:
    """A batch's user vectors and what produced them, one row per example."""

    vector: Tensor          # (B, d)
    gamma: np.ndarray       # (B, d), or (B, 1) in scalar gate mode
    cold_start: np.ndarray  # (B,) bool: no entity row and no word row


def _pool(matrix: Tensor | None, source: ad.Segments, w: Tensor, b: Tensor) -> Tensor:
    """(B, d) attention pools: a softmax of b . tanh(r W) over each group's rows r."""
    if not len(source.rows):  # every group is empty: zero rows, and nothing to record
        return ad.constant(np.zeros((len(source), w.shape[0])))
    r = ad.lookup(matrix, source.rows)
    alpha = ad.segment_softmax(ad.matmul(ad.tanh(ad.matmul(r, w)), b), source)
    return ad.segment_sum(alpha, r, source)


def build_user_representation(entities: ad.Segments, words: ad.Segments, item_matrix: Tensor,
                              word_matrix: Tensor | None, params: AttentionParams) -> UserRep:
    """User vectors of a batch, from its entity rows and word rows.

    Each source is an ``ad.Segments`` field, such as ``Contexts.entities``:
    example b's rows are group b. Entity rows index ``item_matrix`` and word
    rows index ``word_matrix``. An empty group pools to a zero row; an
    example with no rows at all gets the zero vector and ``cold_start``.
    """
    if len(entities) != len(words):
        raise ShapeError(f"{len(entities)} entity groups for {len(words)} word groups")
    if word_matrix is None and len(words.rows):
        raise ShapeError(f"{len(words.rows)} word rows given without a word matrix")
    v_entity = _pool(item_matrix, entities, params.w_entity, params.b_entity)
    v_word = _pool(word_matrix, words, params.w_word, params.b_word)

    # (g, 2d) @ (2d, B): one gate column per example
    logits = ad.matmul(params.w_gate, ad.transpose(ad.concat([v_entity, v_word], axis=1)))
    gamma = ad.transpose(ad.sigmoid(logits))
    # scalar mode spreads each row's one gamma over d by a matmul with ones
    d = params.dim
    mix = ad.matmul(gamma, ad.constant(np.ones((1, d)))) if params.gate_mode == GATE_SCALAR else gamma
    rows = entities.offsets + words.offsets  # flat where an example has no row at all
    return UserRep(vector=ad.blend(mix, v_entity, v_word), gamma=gamma.values,
                   cold_start=rows[1:] == rows[:-1])
