"""Top-k recommendation: scoring, loss, metrics, training, and ablations."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import (
    Conversation,
    RecExample,
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
from .errors import ConfigurationError, NumericError, ValidationError
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
from .retrieval import Bm25Index, build_index, retrieve

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
        if self.lr < 0 or self.clip <= 0:
            raise ConfigurationError("lr must be non-negative and clip positive")
        if self.top_n < 1:
            raise ConfigurationError("top_n must be at least 1")
        if self.gate_mode not in (GATE_ELEMENTWISE, GATE_SCALAR):
            raise ConfigurationError(f"unknown gate mode {self.gate_mode!r}")
        if self.normalization not in (NORM_CONSTANT, NORM_IN_DEGREE):
            raise ConfigurationError(f"unknown normalization {self.normalization!r}")
        if self.z <= 0:
            raise ConfigurationError("z must be positive")

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


class Context(NamedTuple):
    """One example compiled to integer rows; none of them depends on a parameter.

    The rows are tuples of ints, which the cyclic garbage collector stops
    tracking: a compiled split held through a pass leaves it little to scan.
    """

    entities: tuple[int, ...]  # item-matrix rows: mentioned, then retrieved
    words: tuple[int, ...]     # word-graph rows of the context words that have one
    missing_words: int         # context words without a word-graph row
    masked: tuple[int, ...]    # item positions already mentioned; empty without masking
    gold: tuple[int, ...]      # gold item positions, ascending


@dataclass
class Artifacts:
    """Immutable data-side inputs of a run: corpus, graphs, retrieval index."""

    vocab: Vocab
    conversations: list[Conversation]
    examples: list[RecExample]
    kg: TypedGraph
    word_graph: WordGraph | None
    interaction: InteractionGraph | None
    index: Bm25Index | None
    item_ids: np.ndarray  # entity ids of the items, in scoring order

    def __post_init__(self) -> None:
        # one intp array, so scoring never converts a list per call
        self.item_ids = np.asarray(self.item_ids, dtype=np.intp)


def build_artifacts(
    conversations: Sequence[Conversation],
    vocab: Vocab,
    kg: TypedGraph,
    word_graph: WordGraph | None = None,
) -> Artifacts:
    """Derive examples and training-split structures from a loaded corpus."""
    train_convs = [c for c in conversations if c.split == Split.TRAIN]
    interaction = build_interaction_graph(train_convs, vocab.entities) if train_convs else None
    index = build_index(train_convs) if train_convs else None
    examples = derive_examples(conversations, vocab.entities)
    return Artifacts(
        vocab=vocab,
        conversations=list(conversations),
        examples=examples,
        kg=kg,
        word_graph=word_graph,
        interaction=interaction,
        index=index,
        item_ids=vocab.entities.item_ids(),
    )


class Model:
    """Parameter groups bound to one Artifacts instance.

    All groups are created whenever their structure exists, independent of
    ablation flags; flags only gate the forward pass. With a fixed seed every
    ablation variant therefore starts from identical shared weights.
    """

    def __init__(self, artifacts: Artifacts, config: TrainConfig,
                 rng: np.random.Generator | None = None):
        config.validate()
        if not len(artifacts.item_ids):
            raise ConfigurationError("entity vocabulary contains no items")
        if rng is None:
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
        if ig is not None and ig.n_items > 0:
            self.ig_params = init_rgcn_params(
                self.store, "ig", ig.n_items + ig.n_users, ig.relations, d, rng,
                layers=config.layers, z=config.z, normalization=config.normalization,
            )
        self.gcn_params: GcnParams | None = None
        wg = artifacts.word_graph
        if wg is not None and wg.n_nodes > 0:
            self.gcn_params = init_gcn_params(
                self.store, "word", wg.n_nodes, d, rng, layers=config.layers,
            )
        self.att_params: AttentionParams = init_attention_params(
            self.store, "att", d, rng, gate_mode=config.gate_mode,
        )
        self.item_pos = {e: i for i, e in enumerate(artifacts.item_ids.tolist())}

    def encoder_outputs(self) -> tuple[Tensor, Tensor | None]:
        """One forward pass over each graph; shared by a whole batch."""
        cfg = self.config
        item_matrix = encode_items(
            self.artifacts.kg,
            self.artifacts.interaction,
            self.kg_params,
            self.ig_params,
            without_ig=cfg.without_ig,
            without_db=cfg.without_db,
        )
        word_matrix = None
        if self.gcn_params is not None and not cfg.without_cn:
            word_matrix = gcn_forward(self.artifacts.word_graph.adjacency, self.gcn_params)
        return item_matrix, word_matrix

    def contexts(self, examples: Iterable[RecExample]) -> list[Context]:
        """Each example's rows under this config; the only place an example becomes rows.

        Retrieval runs once per example per call, unless ``without_rt`` or no index.
        """
        cfg = self.config
        index = None if cfg.without_rt else self.artifacts.index
        word_rows = ({} if cfg.without_cn or self.gcn_params is None
                     else self.artifacts.word_graph.rows)
        item_pos = self.item_pos
        compiled = []
        # tuple([...]): a list comprehension builds a tuple faster than a generator
        for ex in examples:
            retrieved = () if index is None else retrieve(
                index, list(ex.context_entities), cfg.top_n, exclude_id=ex.conversation_id).entities
            words = tuple([word_rows[w] for w in ex.context_words if w in word_rows])
            masked = (tuple([item_pos[e] for e in ex.context_entities if e in item_pos])
                      if cfg.candidate_masking else ())
            compiled.append(Context((*ex.context_entities, *retrieved), words,
                                    len(ex.context_words) - len(words), masked,
                                    tuple(sorted([item_pos[g] for g in ex.gold_items]))))
        return compiled

    def users(self, batch: Sequence[Context], item_matrix: Tensor,
              word_matrix: Tensor | None) -> UserRep:
        """The batch's user representations, in one build_user_representation call."""
        return build_user_representation([c.entities for c in batch], [c.words for c in batch],
                                         item_matrix, word_matrix, self.att_params)


def item_logits(users: Tensor, item_rows: Tensor,
                masks: Sequence[Sequence[int]] | None = None) -> Tensor:
    """(B, n_items) logits U I^T of the user rows U (B, d) against the item rows I.

    ``item_rows`` (n_items, d) holds the item-matrix rows in scoring order,
    ``ad.lookup(item_matrix, item_ids)``, gathered once per encoder pass.
    ``masks[b]`` lists row b's already-mentioned positions (``Context.masked``);
    they get a MASK_LOGIT offset, which pins their probability to exactly zero.
    """
    if masks is not None and len(masks) != users.shape[0]:
        raise ValidationError(f"{len(masks)} masks for {users.shape[0]} user rows")
    logits = ad.matmul(users, ad.transpose(item_rows))
    offsets = np.zeros(logits.shape)
    for row, masked in enumerate(masks or ()):
        if masked:
            offsets[row, masked] = MASK_LOGIT
    return ad.add_const(logits, offsets)


def score_all(users: Tensor, item_rows: Tensor,
              masks: Sequence[Sequence[int]] | None = None) -> Tensor:
    """(B, n_items) probabilities: the row softmax of :func:`item_logits`."""
    return ad.softmax(item_logits(users, item_rows, masks))


GUARD_EPS = 1e-12


def rec_loss(logits: Tensor, gold_positions: Sequence[Sequence[int]]) -> tuple[Tensor, int]:
    """Batch loss from (B, n_items) logits and one gold-position list per row.

    Each example's loss is the mean over its gold items of -log softmax, and
    the batch loss is the mean over examples. Log-softmax stays finite however
    small a gold probability gets, so nothing is floored; the second value
    counts the examples with a gold probability below GUARD_EPS, as a
    diagnostic.
    """
    if not gold_positions or not all(gold_positions):
        raise ValidationError("rec_loss requires at least one gold item per example")
    loss, probs = ad.cross_entropy(logits, gold_positions)
    rows = np.repeat(np.arange(len(gold_positions)), [len(g) for g in gold_positions])
    tiny = probs[rows, np.concatenate(gold_positions)] < GUARD_EPS
    return loss, int(np.unique(rows[tiny]).size)


def rank_order(probs: np.ndarray, k: int) -> np.ndarray:
    """The first min(k, n) item positions by descending probability, ties by ascending position.

    ``np.partition`` finds the k-th largest probability, and a stable sort
    orders only the positions at or above it. A NaN there (fewer than k
    non-NaN probabilities) raises NumericError.
    """
    if k < 1:
        raise ValidationError(f"rank_order needs k >= 1, got {k}")
    k = min(k, probs.shape[0])
    kth = -np.partition(-probs, k - 1)[k - 1]
    if np.isnan(kth):
        raise NumericError(f"NaN among the top {k} probabilities")
    top = np.flatnonzero(probs >= kth)
    return top[np.argsort(-probs[top], kind="stable")[:k]]


def _gold_ranks(probs: np.ndarray, gold_positions: Iterable[int]) -> list[int]:
    """1-based rank of each gold position in :func:`rank_order`, found by counting.

    Position g is preceded by every item with a higher probability and by
    every tied item at a lower position.
    """
    return [1 + int(np.count_nonzero(probs > probs[g]) + np.count_nonzero(probs[:g] == probs[g]))
            for g in gold_positions]


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


def evaluate(model: Model, examples: Sequence[RecExample],
             ks: Sequence[int] = DEFAULT_KS, *, split_label: str | None = None) -> MetricsReport:
    """Recall@k and MRR@k averaged over every (example, gold item) pair."""
    if not examples:
        raise ValidationError("cannot evaluate an empty example set")
    label = split_label if split_label is not None else (
        examples[0].split.value if len({e.split for e in examples}) == 1 else "mixed"
    )
    return evaluate_contexts(model, model.contexts(examples), ks, label)


def evaluate_contexts(model: Model, contexts: Sequence[Context], ks: Sequence[int],
                      split_label: str) -> MetricsReport:
    """:func:`evaluate` on a compiled split: one encoder pass, scored in batch_size chunks.

    NaN probabilities raise NumericError: against NaN every gold item would count as rank 1.
    """
    item_matrix, word_matrix = model.encoder_outputs()
    item_rows = ad.lookup(item_matrix, model.artifacts.item_ids)
    rank_lists: list[list[int]] = []
    for start in range(0, len(contexts), model.config.batch_size):
        chunk = contexts[start:start + model.config.batch_size]
        users = model.users(chunk, item_matrix, word_matrix).vector
        probs = score_all(users, item_rows, [c.masked for c in chunk])
        if np.isnan(probs.values).any():
            raise NumericError(f"NaN item probabilities on the {split_label} split")
        rank_lists.extend(_gold_ranks(row, c.gold) for c, row in zip(chunk, probs.values))
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


def batch_loss(model: Model, batch: Sequence[Context],
               item_matrix: Tensor, word_matrix: Tensor | None) -> tuple[Tensor, int]:
    """Mean per-example loss over a batch on one shared encoder tape.

    The batch's user vectors U (B, d) are built and scored in one call each.
    """
    users = model.users(batch, item_matrix, word_matrix).vector
    logits = item_logits(users, ad.lookup(item_matrix, model.artifacts.item_ids),
                         [c.masked for c in batch])
    return rec_loss(logits, [c.gold for c in batch])


def _param_norms(store: ParamStore) -> dict[str, float]:
    return {name: float(np.linalg.norm(t.values)) for name, t in store.items()}


def train(artifacts: Artifacts, config: TrainConfig,
          ks: Sequence[int] = DEFAULT_KS) -> TrainResult:
    """Full training loop with per-epoch validation and best-R@50 selection.

    Validation metrics drive model selection; when the corpus has no
    validation examples the final epoch wins by default.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    model = Model(artifacts, config, rng)
    train_contexts = model.contexts(split_view(artifacts.examples, Split.TRAIN))
    valid_contexts = model.contexts(split_view(artifacts.examples, Split.VALID))
    if not train_contexts:
        raise ValidationError("corpus yields no training examples")

    adam_cfg = AdamConfig(lr=config.lr, clip_norm=config.clip)
    state = AdamState.for_store(model.store)
    # Selection metric: recall at the largest requested cutoff, preferring 50.
    select_k = 50 if 50 in ks else max(ks)

    best_score = -1.0
    best_epoch = -1
    best_values: dict[str, np.ndarray] | None = None
    epoch_reports: list[MetricsReport] = []
    epoch_losses: list[float] = []
    guard_events = 0

    for epoch in range(config.epochs):
        order = rng.permutation(len(train_contexts))
        running = 0.0
        n_batches = 0
        for start in range(0, len(order), config.batch_size):
            batch = [train_contexts[i] for i in order[start:start + config.batch_size]]
            item_matrix, word_matrix = model.encoder_outputs()
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
                best_values = {name: t.values.copy() for name, t in model.store.items()}

    if best_values is not None:
        for name, values in best_values.items():
            model.store[name].values[...] = values
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
    listed components in a single variant instead.
    """
    for flag in flags:
        if flag not in ABLATION_FLAGS:
            raise ValueError(f"unknown ablation flag {flag!r}")
    eval_examples = split_view(artifacts.examples, split)

    def run(cfg: TrainConfig) -> MetricsReport:
        result = train(artifacts, cfg, ks)
        return evaluate(result.model, eval_examples, ks, split_label=split.value)

    reports: dict[str, MetricsReport] = {"full": run(config)}
    if combined and flags:
        name = "wo_" + "+".join(flags)
        reports[name] = run(ablation_config(config, flags))
    else:
        for flag in flags:
            reports[f"wo_{flag}"] = run(ablation_config(config, [flag]))
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
