"""User preference modeling: pooled entity and word evidence fused by a gate.

The entity side pools representations of mentioned plus retrieved entities;
the word side pools word-graph representations of the conversation's content
words. A learned sigmoid gate mixes the two pooled vectors into the final
user representation.

The input is integer rows, compiled once per split by ``Model.contexts``
into a ``Contexts`` record. A batch is built at once. Each source arrives
as a (rows, offsets) CSR pair: the rows of all examples concatenated, and
(B + 1) offsets marking where each example's rows start, checked once per
call into an ``ad.SegmentLayout``. One lookup per source feeds the scores
b . tanh(R W) of every row; a segment softmax and a segment sum, sharing the
layout, pool them into (B, d). The gate is one ``ad.blend`` of the two pools.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoders import uniform_init
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
    rng: np.random.Generator,
    *,
    gate_mode: str = GATE_ELEMENTWISE,
) -> AttentionParams:
    if gate_mode not in (GATE_ELEMENTWISE, GATE_SCALAR):
        raise ValueError(f"unknown gate mode {gate_mode!r}")
    gate_rows = dim if gate_mode == GATE_ELEMENTWISE else 1
    return AttentionParams(
        dim=dim,
        w_entity=store.add(f"{prefix}.ent.w", uniform_init(rng, (dim, dim), dim)),
        b_entity=store.add(f"{prefix}.ent.b", uniform_init(rng, (dim,), dim)),
        w_word=store.add(f"{prefix}.word.w", uniform_init(rng, (dim, dim), dim)),
        b_word=store.add(f"{prefix}.word.b", uniform_init(rng, (dim,), dim)),
        w_gate=store.add(f"{prefix}.gate.w", uniform_init(rng, (gate_rows, 2 * dim), 2 * dim)),
        gate_mode=gate_mode,
    )


@dataclass
class UserRep:
    """A batch's user vectors and what produced them, one row per example."""

    vector: Tensor          # (B, d)
    gamma: np.ndarray       # (B, d), or (B, 1) in scalar gate mode
    cold_start: np.ndarray  # (B,) bool: no entity row and no word row


def _pool(matrix: Tensor | None, rows: np.ndarray, layout: ad.SegmentLayout,
          w: Tensor, b: Tensor) -> Tensor:
    """(B, d) attention pools: a softmax of b . tanh(r W) over each segment's rows r.

    ``layout`` is the checked layout of ``rows``; the segment softmax and the
    segment sum share it.
    """
    if len(rows) != layout.n_rows:
        raise ShapeError(f"{len(rows)} rows for offsets ending at {layout.n_rows}")
    if not layout.n_rows:  # every segment is empty: zero rows, and nothing to record
        return ad.constant(np.zeros((len(layout), w.shape[0])))
    r = ad.lookup(matrix, rows)
    alpha = ad.segment_softmax(ad.matmul(ad.tanh(ad.matmul(r, w)), b), layout)
    return ad.segment_sum(alpha, r, layout)


def build_user_representation(entities: tuple[np.ndarray, np.ndarray],
                              words: tuple[np.ndarray, np.ndarray], item_matrix: Tensor,
                              word_matrix: Tensor | None, params: AttentionParams) -> UserRep:
    """User vectors of a batch, from its entity rows and word rows.

    Each source is a (rows, offsets) CSR pair, such as ``Contexts.entities``:
    example b's rows are ``rows[offsets[b]:offsets[b + 1]]``. Entity rows
    index ``item_matrix`` and word rows index ``word_matrix``. Each source's
    offsets are checked once, into one ``ad.SegmentLayout`` that its pool
    shares. An empty group pools to a zero row; an example with no rows at
    all gets the zero vector and ``cold_start``.
    """
    entity_rows, entity_offsets = entities
    word_rows, word_offsets = words
    entity_layout = ad.SegmentLayout(entity_offsets)
    word_layout = ad.SegmentLayout(word_offsets)
    if len(entity_layout) != len(word_layout):
        raise ShapeError(f"{len(entity_layout)} entity groups for {len(word_layout)} word groups")
    if word_matrix is None and len(word_rows):
        raise ShapeError(f"{len(word_rows)} word rows given without a word matrix")
    v_entity = _pool(item_matrix, entity_rows, entity_layout, params.w_entity, params.b_entity)
    v_word = _pool(word_matrix, word_rows, word_layout, params.w_word, params.b_word)

    # (g, 2d) @ (2d, B): one gate column per example
    logits = ad.matmul(params.w_gate, ad.transpose(ad.concat([v_entity, v_word], axis=1)))
    gamma = ad.transpose(ad.sigmoid(logits))
    # scalar mode spreads each row's one gamma over d by a matmul with ones
    d = params.dim
    mix = ad.matmul(gamma, ad.constant(np.ones((1, d)))) if params.gate_mode == GATE_SCALAR else gamma
    rows = entity_layout.offsets + word_layout.offsets  # flat where an example has no row at all
    return UserRep(vector=ad.blend(mix, v_entity, v_word), gamma=gamma.values,
                   cold_start=rows[1:] == rows[:-1])
