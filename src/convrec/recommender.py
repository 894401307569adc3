"""Top-k recommendation: scoring, loss, metrics, training, and ablations."""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import asdict, dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from . import retrieval
from .autodiff import Segments, Tensor
from .corpus import (
    SPLITS,
    Corpus,
    Examples,
    Split,
    Vocab,
    derive_examples,
    split_view,
)
from .encoders import (
    NORM_CONSTANT,
    NORM_IN_DEGREE,
    GcnParams,
    RgcnParams,
    encode_items,
    gcn_forward,
    init_gcn_params,
    init_rgcn_params,
)
from .errors import ConfigurationError, NumericError, ShapeError, ValidationError
from .graphs import (
    InteractionGraph,
    TypedGraph,
    WordGraph,
    build_interaction_graph,
)
from .optim import AdamConfig, AdamState, ParamStore, adam_step
from .preference import (
    GATE_ELEMENTWISE,
    GATE_SCALAR,
    AttentionParams,
    UserRep,
    build_user_representation,
    init_attention_params,
)
from .retrieval import Bm25Index, build_index, retrieve_batch

DEFAULT_KS = (1, 10, 50)

# Finite stand-in for a -inf logit: exp(x - max) underflows to exactly 0,
# so masked items get probability 0 while gradients stay finite.
MASK_LOGIT = -1e9


@dataclass
class TrainConfig:
    """Everything that determines a training run, including ablation switches."""

    dim: int = 128
    layers: int = 2
    epochs: int = 30
    batch_size: int = 256
    lr: float = 0.001
    clip: float = 0.1
    top_n: int = 1
    seed: int = 0
    without_ig: bool = False
    without_rt: bool = False
    without_db: bool = False
    without_cn: bool = False
    candidate_masking: bool = True
    gate_mode: str = GATE_ELEMENTWISE
    normalization: str = NORM_CONSTANT
    z: float = 1.0

    def validate(self) -> None:
        if self.dim <= 0 or self.layers <= 0 or self.batch_size <= 0:
            raise ConfigurationError("dim, layers, and batch_size must be positive")
        if self.epochs < 0:
            raise ConfigurationError("epochs must be non-negative")
        if not (0 <= self.lr < math.inf and 0 < self.clip < math.inf):
            raise ConfigurationError("lr must be finite and non-negative, clip finite and positive")
        if self.top_n < 1:
            raise ConfigurationError("top_n must be at least 1")
        if self.gate_mode not in (GATE_ELEMENTWISE, GATE_SCALAR):
            raise ConfigurationError(f"unknown gate mode {self.gate_mode!r}")
        if self.normalization not in (NORM_CONSTANT, NORM_IN_DEGREE):
            raise ConfigurationError(f"unknown normalization {self.normalization!r}")
        if not 0 < self.z < math.inf:
            raise ConfigurationError("z must be finite and positive")

    def fingerprint(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()[:12]


@dataclass
class MetricsReport:
    """Recall@k / MRR@k averaged over (example, gold item) pairs."""

    split: str
    n_examples: int
    n_pairs: int
    recall: dict[int, float]
    mrr: dict[int, float]
    config_fingerprint: str

    def to_text(self) -> str:
        lines = [
            f"split={self.split}",
            f"examples={self.n_examples}",
            f"pairs={self.n_pairs}",
            f"config={self.config_fingerprint}",
        ]
        for k in sorted(self.recall):
            lines.append(f"recall@{k}={self.recall[k]!r}")
            lines.append(f"mrr@{k}={self.mrr[k]!r}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "split": self.split,
            "examples": self.n_examples,
            "pairs": self.n_pairs,
            "config": self.config_fingerprint,
            "recall": {str(k): self.recall[k] for k in sorted(self.recall)},
            "mrr": {str(k): self.mrr[k] for k in sorted(self.mrr)},
        }
        return json.dumps(payload, sort_keys=True)


@dataclass(frozen=True)
class Contexts:
    """B examples compiled to flat integer arrays, one ``Segments`` field per source.

    No row depends on a parameter. Training batches and evaluation blocks are
    :meth:`take` gathers, and a recommend turn is a record with B = 1. A
    field's offsets are right when it is built, so the user side and the loss
    take the fields as they are; a record only checks that each has B groups.
    """

    entities: Segments         # item-matrix rows: mentioned, then retrieved
    words: Segments            # word-graph rows of the context words that have one
    masked: Segments           # item positions already mentioned; empty without masking
    gold: Segments             # gold item positions, ascending
    missing_words: np.ndarray  # (B,) context words without a word-graph row

    def __post_init__(self) -> None:
        for name in ("entities", "words", "masked", "gold"):
            if (n := len(getattr(self, name))) != len(self):
                raise ShapeError(f"Contexts.{name}: {n} groups for {len(self)} examples")

    def __len__(self) -> int:
        return len(self.missing_words)

    def take(self, idx: Sequence[int] | np.ndarray) -> Contexts:
        """Examples ``idx`` in that order (repeats allowed), every field gathered at once."""
        idx = np.asarray(idx, dtype=np.intp)
        return Contexts(self.entities.take(idx), self.words.take(idx), self.masked.take(idx),
                        self.gold.take(idx), self.missing_words[idx])


@dataclass
class Artifacts:
    """Immutable data-side inputs of a run: corpus, graphs, retrieval index.

    ``examples`` and ``item_ids`` are derived when first read, and kept. An
    interaction graph without items is the one "no interactions" case.
    """

    vocab: Vocab
    corpus: Corpus
    kg: TypedGraph
    word_graph: WordGraph | None
    interaction: InteractionGraph
    index: Bm25Index | None
    # the sha256 of the bundle container the inputs were loaded from; None
    # when they were built in process
    arrays_sha256: str | None = None

    @functools.cached_property
    def item_ids(self) -> np.ndarray:
        """The items' entity ids, ascending: the scoring order, as one intp array
        so scoring never converts a list per call."""
        return np.array(self.vocab.entities.item_ids(), dtype=np.intp)

    @functools.cached_property
    def examples(self) -> Examples:
        return derive_examples(self.corpus, self.vocab.entities)

    @functools.cached_property
    def document_of(self) -> np.ndarray:
        """(C + 1,) intp: each conversation's document in ``index``, -1 where it
        has none; the last slot, -1, serves a query's conversation -1."""
        index_of = self.index.index_of
        return np.array([index_of.get(c, -1) for c in self.corpus.conversation_ids] + [-1],
                        np.intp)


def build_artifacts(
    corpus: Corpus,
    vocab: Vocab,
    kg: TypedGraph,
    word_graph: WordGraph | None = None,
) -> Artifacts:
    """The training-split structures of a loaded corpus: the interaction graph
    and, when the split has a conversation, the retrieval index. Both builders
    read the training conversations alone."""
    has_train = SPLITS.index(Split.TRAIN) in corpus.splits
    return Artifacts(vocab=vocab, corpus=corpus, kg=kg, word_graph=word_graph,
                     interaction=build_interaction_graph(corpus, vocab.entities),
                     index=build_index(corpus) if has_train else None)


class Model:
    """Parameter groups bound to one Artifacts instance.

    All groups are created whenever their structure exists, independent of
    ablation flags; flags only gate the forward pass. With a fixed seed every
    ablation variant therefore starts from identical shared weights.

    ``rng``, by default ``default_rng(config.seed)``, draws every parameter.
    With ``draw`` false no generator is made, and every parameter is a
    read-only zero for :func:`convrec.optim.load_checkpoint` to replace.

    ``stored_outputs`` is what :meth:`encoder_outputs` returned when the model
    was saved, as the checkpoint stores it, or None for a model no checkpoint
    loaded. A loaded model's parameters are read-only views of that same
    checkpoint read, so the stored outputs cannot go stale.
    """

    def __init__(self, artifacts: Artifacts, config: TrainConfig,
                 rng: np.random.Generator | None = None, *, draw: bool = True):
        config.validate()
        if not len(artifacts.item_ids):
            raise ConfigurationError("entity vocabulary contains no items")
        if not draw:
            rng = None
        elif rng is None:
            rng = np.random.default_rng(config.seed)
        self.artifacts = artifacts
        self.config = config
        self.store = ParamStore()
        d = config.dim

        self.kg_params = init_rgcn_params(
            self.store, "kg", artifacts.kg.n_nodes, artifacts.kg.relations, d, rng,
            layers=config.layers, z=config.z, normalization=config.normalization,
        )
        self.ig_params: RgcnParams | None = None
        ig = artifacts.interaction
        if ig.items.size:
            self.ig_params = init_rgcn_params(
                self.store, "ig", ig.n_nodes, ig.relations, d, rng,
                layers=config.layers, z=config.z, normalization=config.normalization,
            )
        self.gcn_params: GcnParams | None = None
        # entity id -> item position, and word id -> word-graph row; -1 where there is none
        self.item_position = np.full(len(artifacts.vocab.entities), -1, np.intp)
        self.item_position[artifacts.item_ids] = np.arange(len(artifacts.item_ids))
        self.word_row = np.full(len(artifacts.vocab.words), -1, np.intp)
        wg = artifacts.word_graph
        if wg is not None and wg.n_nodes > 0:
            self.gcn_params = init_gcn_params(
                self.store, "word", wg.n_nodes, d, rng, layers=config.layers,
            )
            self.word_row[wg.word_ids] = np.arange(wg.n_nodes)
        self.att_params: AttentionParams = init_attention_params(
            self.store, "att", d, rng, gate_mode=config.gate_mode,
        )
        self.stored_outputs: tuple[Tensor, Tensor | None] | None = None

    def encoder_outputs(self, n_rows: int | None = None) -> tuple[Tensor, Tensor | None]:
        """One forward pass over each graph; shared by a whole batch.

        The item matrix holds entity rows [0, n_rows), by default all of them;
        :meth:`rows_read` gives the count a compiled split needs.
        """
        cfg = self.config
        item_matrix = encode_items(
            self.artifacts.kg,
            self.artifacts.interaction,
            self.kg_params,
            self.ig_params,
            without_ig=cfg.without_ig,
            without_db=cfg.without_db,
            n_rows=n_rows,
        )
        word_matrix = None
        if self.encodes_words:
            word_matrix = gcn_forward(self.artifacts.word_graph, self.gcn_params)
        return item_matrix, word_matrix

    def scoring_outputs(self, n_rows: int | None = None) -> tuple[Tensor, Tensor | None]:
        """The encoder outputs to score against: ``stored_outputs`` when a
        checkpoint loaded this model, else :meth:`encoder_outputs` of ``n_rows``."""
        return self.stored_outputs or self.encoder_outputs(n_rows)

    @property
    def encodes_words(self) -> bool:
        """Whether :meth:`encoder_outputs` returns a word matrix."""
        return self.gcn_params is not None and not self.config.without_cn

    def contexts(self, examples: Examples) -> Contexts:
        """The examples' rows under this config; the only place an example becomes rows.

        Retrieval runs once per call, one ``retrieve_batch`` over every example,
        unless ``without_rt`` or no index. An example's retrieved entities
        (its documents' entities, each once) follow its mentioned ones, in one
        array merge for any number of examples.
        """
        cfg = self.config
        n = len(examples)
        index = None if cfg.without_rt else self.artifacts.index
        entities = mentioned = examples.entities
        if index is not None:
            exclude = self.artifacts.document_of[examples.conversations]
            docs, _, found = retrieve_batch(index, mentioned, cfg.top_n, exclude)
            # query b's documents are docs[found[b]:found[b + 1]]
            retrieved = index.doc_entities.take(docs).regroup(found)
            if cfg.top_n > 1:  # one document's entities are distinct already
                retrieved = retrieved.distinct()
            entities = mentioned.concat(retrieved)
        words = Segments.none(n) if cfg.without_cn else examples.words.lookup(self.word_row)
        dropped = examples.words.offsets - words.offsets
        # item positions ascend with entity ids (Artifacts.item_ids ascends), so the
        # ascending gold ids give ascending positions
        return Contexts(entities, words,
                        mentioned.lookup(self.item_position) if cfg.candidate_masking
                        else Segments.none(n),
                        examples.gold.lookup(self.item_position),
                        dropped[1:] - dropped[:-1])

    def rows_read(self, contexts: Contexts) -> int:
        """Item-matrix rows that scoring, the interaction term and ``contexts``
        read: 1 + the largest item id, interaction item or entity row."""
        return 1 + int(max(self.artifacts.item_ids[-1], contexts.entities.rows.max(initial=0),
                           self.artifacts.interaction.items.max(initial=0)))

    def users(self, batch: Contexts, item_matrix: Tensor, word_matrix: Tensor | None) -> UserRep:
        """The batch's user representations, in one build_user_representation call."""
        return build_user_representation(batch.entities, batch.words,
                                         item_matrix, word_matrix, self.att_params)


def item_logits(users: Tensor, item_rows: Tensor, masks: Segments) -> Tensor:
    """(B, n_items) logits U I^T of the user rows U (B, d) against the item rows I.

    ``item_rows`` (n_items, d) holds the item-matrix rows in scoring order,
    ``ad.lookup(item_matrix, item_ids)``, gathered once per encoder pass.
    Group b of ``masks``, a field such as ``Contexts.masked``, holds row b's
    already-mentioned positions. They get a MASK_LOGIT offset, which pins
    their probability to exactly zero.
    """
    if len(masks) != users.shape[0]:
        raise ValidationError(f"{len(masks)} masks for {users.shape[0]} user rows")
    return ad.add_at(ad.matmul(users, ad.transpose(item_rows)), masks, MASK_LOGIT)


def score_all(users: Tensor, item_rows: Tensor, masks: Segments) -> Tensor:
    """(B, n_items) probabilities: the row softmax of :func:`item_logits`."""
    return ad.softmax(item_logits(users, item_rows, masks))


GUARD_EPS = 1e-12


def rec_loss(logits: Tensor, gold: Segments) -> tuple[Tensor, int]:
    """Batch loss from (B, n_items) logits and the gold positions, group b for row b.

    ``gold`` is a field such as ``Contexts.gold``. Each example's loss is the
    mean over its gold items of -log softmax, and the batch loss is the mean
    over examples. Log-softmax stays finite however small a gold probability
    gets, so nothing is floored; the second value counts the examples with a
    gold probability below GUARD_EPS, as a diagnostic.
    """
    _, starts, counts = gold.nonempty
    if not len(gold) or counts.size != len(gold):
        raise ValidationError("rec_loss requires at least one gold item per example")
    loss, gold_probs = ad.cross_entropy(logits, gold)
    # every group is non-empty, so its first row starts each reduction
    tiny = np.logical_or.reduceat(gold_probs < GUARD_EPS, starts)
    return loss, int(np.count_nonzero(tiny))


def rank_order(probs: np.ndarray, k: int) -> np.ndarray:
    """The first min(k, n) item positions by descending probability, ties by ascending position.

    A partition of the negated probabilities finds the k-th largest, and a
    stable sort orders only the positions at or above it. A NaN there (fewer
    than k non-NaN probabilities) raises NumericError.
    """
    if k < 1:
        raise ValidationError(f"rank_order needs k >= 1, got {k}")
    k = min(k, probs.shape[0])
    negated = -probs
    negated.partition(k - 1)
    kth = -negated[k - 1]
    if np.isnan(kth):
        raise NumericError(f"NaN among the top {k} probabilities")
    top = (probs >= kth).nonzero()[0]
    return top[(-probs[top]).argsort(kind="stable")[:k]]


def _gold_ranks(probs: np.ndarray, gold: Segments) -> list[int]:
    """1-based rank in :func:`rank_order` of each gold position of each row, found by counting.

    Group b of ``gold`` holds row b's gold positions. Position g is preceded
    by every item with a higher probability and by every tied item at a
    lower position; the ties are counted only in rows where an item ties g.
    """
    positions = gold.rows
    p = probs[gold.group_of_rows()]  # one row per gold item
    at = p[np.arange(len(positions)), positions][:, None]
    ranks = 1 + np.count_nonzero(p > at, axis=1)
    tied = (np.count_nonzero(p == at, axis=1) > 1).nonzero()[0]
    if tied.size:
        before = np.arange(probs.shape[1]) < positions[tied, None]
        ranks[tied] += np.count_nonzero((p[tied] == at[tied]) & before, axis=1)
    return ranks.tolist()


def aggregate_metrics(rank_lists: Iterable[Sequence[int]],
                      ks: Sequence[int]) -> tuple[dict[int, float], dict[int, float], int]:
    """Average Recall@k and MRR@k over (example, gold item) pairs.

    Each element of ``rank_lists`` holds the 1-based ranks of one example's
    gold items; every rank is one pair.
    """
    ks = sorted(set(ks))
    hits = {k: 0.0 for k in ks}
    rrs = {k: 0.0 for k in ks}
    pairs = 0
    for ranks in rank_lists:
        for rank in ranks:
            pairs += 1
            for k in ks:
                if rank <= k:
                    hits[k] += 1.0
                    rrs[k] += 1.0 / rank
    if pairs == 0:
        raise ValidationError("no (example, gold item) pairs to aggregate")
    return ({k: hits[k] / pairs for k in ks},
            {k: rrs[k] / pairs for k in ks},
            pairs)


def evaluate(model: Model, examples: Examples,
             ks: Sequence[int] = DEFAULT_KS, *, split_label: str | None = None) -> MetricsReport:
    """Recall@k and MRR@k averaged over every (example, gold item) pair."""
    if not len(examples):
        raise ValidationError("cannot evaluate an empty example set")
    if split_label is None:
        splits = ad.sorted_distinct(examples.splits)
        split_label = SPLITS[splits[0]].value if len(splits) == 1 else "mixed"
    return evaluate_contexts(model, model.contexts(examples), ks, split_label)


@ad.no_grad()
def evaluate_contexts(model: Model, contexts: Contexts, ks: Sequence[int],
                      split_label: str) -> MetricsReport:
    """:func:`evaluate` on a compiled split, scored in blocks of max(batch_size,
    ``retrieval.SCRATCH_BYTES`` // (8 n_items)) examples, so that a block's
    (examples, items) scores fit the scratch budget; no row reads another.

    A loaded model scores against its ``stored_outputs`` and runs no encoder:
    its parameters are read-only views of the checkpoint that stores the
    outputs, so those are what an encoder pass would return. Any other model
    (training's validation, ``ablate``) runs one encoder pass over the rows
    the split reads.
    It runs forward-only: nothing records a tape. NaN probabilities raise
    NumericError: against NaN every gold item would count as rank 1.
    """
    item_matrix, word_matrix = model.scoring_outputs(model.rows_read(contexts))
    item_rows = ad.lookup(item_matrix, model.artifacts.item_ids)
    size = max(model.config.batch_size, retrieval.SCRATCH_BYTES // (8 * item_rows.shape[0]))
    rank_lists: list[list[int]] = []  # one flat list per block, in example order
    for start in range(0, len(contexts), size):
        block = contexts.take(np.arange(start, min(start + size, len(contexts))))
        users = model.users(block, item_matrix, word_matrix).vector
        probs = score_all(users, item_rows, block.masked)
        # a softmax row is all NaN or has none: a NaN or +inf logit makes the
        # row's max or its sum NaN, and with it every entry; column 0 tells
        if np.isnan(probs.values[:, 0]).any():
            raise NumericError(f"NaN item probabilities on the {split_label} split")
        rank_lists.append(_gold_ranks(probs.values, block.gold))
    recall, mrr, pairs = aggregate_metrics(rank_lists, ks)
    return MetricsReport(
        split=split_label,
        n_examples=len(contexts),
        n_pairs=pairs,
        recall=recall,
        mrr=mrr,
        config_fingerprint=model.config.fingerprint(),
    )


@dataclass
class TrainResult:
    model: Model
    best_epoch: int
    epoch_reports: list[MetricsReport]
    epoch_losses: list[float]
    guard_events: int = 0


def batch_loss(model: Model, batch: Contexts,
               item_matrix: Tensor, word_matrix: Tensor | None) -> tuple[Tensor, int]:
    """Mean per-example loss over a batch on one shared encoder tape.

    The batch's user vectors U (B, d) are built and scored in one call each.
    """
    users = model.users(batch, item_matrix, word_matrix).vector
    logits = item_logits(users, ad.lookup(item_matrix, model.artifacts.item_ids), batch.masked)
    return rec_loss(logits, batch.gold)


def _param_norms(store: ParamStore) -> dict[str, float]:
    return {name: float(np.linalg.norm(t.values)) for name, t in store.items()}


def train(artifacts: Artifacts, config: TrainConfig,
          ks: Sequence[int] = DEFAULT_KS) -> TrainResult:
    """Full training loop with per-epoch validation and best-R@50 selection.

    Validation metrics drive model selection; when the corpus has no
    validation examples the final epoch wins by default.
    """
    rng = np.random.default_rng(config.seed)
    model = Model(artifacts, config, rng)
    train_contexts = model.contexts(split_view(artifacts.examples, Split.TRAIN))
    valid_contexts = model.contexts(split_view(artifacts.examples, Split.VALID))
    if not train_contexts:
        raise ValidationError("corpus yields no training examples")
    n_rows = model.rows_read(train_contexts)  # one shape for every batch

    adam_cfg = AdamConfig(lr=config.lr, clip_norm=config.clip)
    state = AdamState.for_store(model.store)
    # Selection metric: recall at the largest requested cutoff, preferring 50.
    select_k = 50 if 50 in ks else max(ks)

    best_score = -1.0
    best_epoch = -1
    best_values: np.ndarray | None = None  # a copy of the parameter arena
    epoch_reports: list[MetricsReport] = []
    epoch_losses: list[float] = []
    guard_events = 0

    for epoch in range(config.epochs):
        order = rng.permutation(len(train_contexts))
        running = 0.0
        n_batches = 0
        for start in range(0, len(order), config.batch_size):
            batch = train_contexts.take(order[start:start + config.batch_size])
            item_matrix, word_matrix = model.encoder_outputs(n_rows)
            loss, guards = batch_loss(model, batch, item_matrix, word_matrix)
            guard_events += guards
            loss_value = float(loss.values)
            if not np.isfinite(loss_value):
                raise NumericError(
                    f"non-finite loss {loss_value} at epoch {epoch}, batch {n_batches}; "
                    f"parameter norms: {_param_norms(model.store)}"
                )
            ad.backward(loss)
            adam_step(model.store, state, adam_cfg)
            # the loss and the encoder outputs hold this step's whole tape: drop
            # it before the next step's forward pass builds its own
            del loss, item_matrix, word_matrix
            running += loss_value
            n_batches += 1
        epoch_losses.append(running / max(n_batches, 1))

        if valid_contexts:
            report = evaluate_contexts(model, valid_contexts, ks, Split.VALID.value)
            epoch_reports.append(report)
            score = report.recall.get(select_k, 0.0)
            if score > best_score:
                best_score = score
                best_epoch = epoch
                best_values = model.store.arena.copy()

    if best_values is not None:
        model.store.arena[...] = best_values
    else:
        best_epoch = config.epochs - 1
    return TrainResult(model=model, best_epoch=best_epoch,
                       epoch_reports=epoch_reports, epoch_losses=epoch_losses,
                       guard_events=guard_events)


ABLATION_FLAGS = ("ig", "rt", "db", "cn")


def ablation_config(config: TrainConfig, flags: Iterable[str]) -> TrainConfig:
    updates = {}
    for flag in flags:
        if flag not in ABLATION_FLAGS:
            raise ValueError(f"unknown ablation flag {flag!r}")
        updates[f"without_{flag}"] = True
    return replace(config, **updates)


def ablate(artifacts: Artifacts, config: TrainConfig, flags: Sequence[str],
           *, combined: bool = False, ks: Sequence[int] = DEFAULT_KS,
           split: Split = Split.TEST) -> dict[str, MetricsReport]:
    """Retrain and evaluate the full model and the requested ablation variants.

    By default each flag is knocked out on its own; ``combined`` disables all
    listed components in a single variant instead. Every variant's config is
    built, and its flags checked, before the first one trains.
    """
    variants = {"full": config}
    if combined and flags:
        variants["wo_" + "+".join(flags)] = ablation_config(config, flags)
    else:
        variants.update((f"wo_{flag}", ablation_config(config, [flag])) for flag in flags)
    eval_examples = split_view(artifacts.examples, split)
    reports: dict[str, MetricsReport] = {}
    for name, cfg in variants.items():
        result = train(artifacts, cfg, ks)
        reports[name] = evaluate(result.model, eval_examples, ks, split_label=split.value)
    return reports


def comparison_table(reports: dict[str, MetricsReport], ks: Sequence[int] = DEFAULT_KS) -> str:
    """Fixed-width table of recall/MRR per variant, full model first."""
    ks = sorted(set(ks))
    headers = ["variant"] + [f"R@{k}" for k in ks] + [f"MRR@{k}" for k in ks]
    rows = []
    for name, report in reports.items():
        rows.append([name]
                    + [f"{report.recall[k]:.4f}" for k in ks]
                    + [f"{report.mrr[k]:.4f}" for k in ks])
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    for r in rows:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(r))))
    return "\n".join(lines) + "\n"
