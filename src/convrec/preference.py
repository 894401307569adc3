"""User preference modeling: pooled entity and word evidence fused by a gate.

The entity side pools representations of mentioned plus retrieved entities;
the word side pools word-graph representations of the conversation's content
words. A learned sigmoid gate mixes the two pooled vectors into the final
user representation.

A batch is built at once. Each source's rows are laid out CSR-style: the
rows of all examples concatenated, and (B + 1) offsets marking where each
example's rows start. One lookup per source feeds the scores b . tanh(R W)
of every row; a segment softmax and a segment sum pool them into (B, d).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import RecExample
from .encoders import uniform_init
from .errors import ShapeError
from .optim import ParamStore
from .retrieval import RetrievalResult

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

    vector: Tensor             # (B, d)
    gamma: np.ndarray          # (B, d), or (B, 1) in scalar gate mode
    cold_start: np.ndarray     # (B,) bool: no entity row and no word row
    missing_words: np.ndarray  # (B,) int: context words without a word-graph row


def _layout(groups: Iterable[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """The groups' rows concatenated, and the (B + 1) offsets of each group."""
    groups = list(groups)
    offsets = np.fromiter(accumulate(map(len, groups), initial=0), np.intp, len(groups) + 1)
    return np.fromiter(chain.from_iterable(groups), np.intp, offsets[-1]), offsets


def _pool(matrix: Tensor, rows: np.ndarray, offsets: np.ndarray, w: Tensor, b: Tensor) -> Tensor:
    """(B, d) attention pools: a softmax of b . tanh(r W) over each segment's rows r."""
    if not rows.size:  # every segment is empty: zero rows, and nothing to record
        return ad.constant(np.zeros((len(offsets) - 1, w.shape[0])))
    r = ad.lookup(matrix, rows)
    alpha = ad.segment_softmax(ad.matmul(ad.tanh(ad.matmul(r, w)), b), offsets)
    return ad.segment_sum(alpha, r, offsets)


def build_user_representation(
    examples: Sequence[RecExample],
    item_matrix: Tensor,
    word_matrix: Tensor | None,
    retrievals: Sequence[RetrievalResult | None],
    params: AttentionParams,
    word_rows: Mapping[int, int] | None,
    *,
    without_rt: bool = False,
    without_cn: bool = False,
) -> UserRep:
    """User vectors of a batch, from each example's context ids and retrieval.

    ``retrievals[b]`` belongs to ``examples[b]``. Context words absent from
    the word graph are skipped and counted in ``missing_words``. An empty
    source pools to a zero row; an example with no rows at all gets the zero
    vector and ``cold_start``.
    """
    if len(retrievals) != len(examples):
        raise ShapeError(f"{len(retrievals)} retrievals for {len(examples)} examples")
    n, d = len(examples), params.dim
    entity_rows, entity_offsets = _layout(
        [*ex.context_entities, *(() if without_rt or r is None else r.entities)]
        for ex, r in zip(examples, retrievals))
    v_entity = _pool(item_matrix, entity_rows, entity_offsets, params.w_entity, params.b_entity)

    if without_cn or word_matrix is None or word_rows is None:
        words = np.zeros(n + 1, dtype=np.intp)
        v_word = ad.constant(np.zeros((n, d)))
    else:
        found, words = _layout([word_rows[w] for w in ex.context_words if w in word_rows]
                               for ex in examples)
        v_word = _pool(word_matrix, found, words, params.w_word, params.b_word)

    # (g, 2d) @ (2d, B): one gate column per example
    logits = ad.matmul(params.w_gate, ad.concat([ad.transpose(v_entity), ad.transpose(v_word)]))
    gamma = ad.transpose(ad.sigmoid(logits))
    # scalar mode spreads each row's one gamma over d by a matmul with ones
    mix = ad.matmul(gamma, ad.constant(np.ones((1, d)))) if params.gate_mode == GATE_SCALAR else gamma
    complement = ad.add_const(ad.scale(mix, -1.0), 1.0)
    fused = ad.add(ad.mul(mix, v_entity), ad.mul(complement, v_word))
    n_words = words[1:] - words[:-1]
    n_context_words = np.fromiter((len(ex.context_words) for ex in examples), np.intp, n)
    return UserRep(
        vector=fused,
        gamma=gamma.values,
        cold_start=(entity_offsets[1:] == entity_offsets[:-1]) & (n_words == 0),
        missing_words=n_context_words - n_words,
    )
