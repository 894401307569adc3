"""Command-line interface: ingest, train, eval, ablate, retrieve, recommend.

Exit codes: 0 success, 2 usage or validation failure, 3 missing artifact,
4 numeric failure. Configuration comes from an optional key=value file plus
command-line flags; flags win.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
from pathlib import Path

import click

from . import autodiff as ad
from .corpus import (
    RecExample,
    Split,
    corpus_stats,
    default_stopwords,
    load_corpus,
    load_entity_vocab,
    load_keyword_lexicon,
    load_stopwords,
    save_corpus,
    save_entity_vocab,
    split_view,
)
from .errors import (
    ConvRecError,
    MissingArtifactError,
    NumericError,
    ParseError,
    ValidationError,
)
from .graphs import (
    build_interaction_graph,
    load_interaction_graph,
    load_item_kg,
    load_word_graph,
    save_interaction_graph,
    save_kg,
    save_word_graph,
)
from .optim import atomic_write, load_checkpoint, save_checkpoint
from .recommender import (
    ABLATION_FLAGS,
    Artifacts,
    Model,
    TrainConfig,
    ablate as run_ablate,
    build_artifacts,
    comparison_table,
    evaluate,
    rank_order,
    score_all,
    train as run_train,
)
from .retrieval import build_index, conversation_tokens, load_index, retrieve, save_index

EXIT_USAGE = 2
EXIT_MISSING = 3
EXIT_NUMERIC = 4

_BUNDLE_FILES = {
    "manifest": "manifest.json",
    "corpus": "corpus.jsonl",
    "entities": "entities.tsv",
    "kg": "kg.tsv",
    "word_graph": "word_graph.tsv",
    "interaction": "interaction.tsv",
    "stopwords": "stopwords.txt",
    "index": "bm25.idx",
}


# every manifest key and the exact type of its JSON value (a JSON true is not an int)
_MANIFEST_TYPES = {"format": int, "has_word_graph": bool, "has_index": bool,
                   "stats": dict, "splits": dict}


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def command_errors(missing_exit: int = EXIT_MISSING):
    """Map package exceptions onto the documented exit codes."""

    def decorator(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except MissingArtifactError as exc:
                _fail(missing_exit, str(exc))
            except NumericError as exc:
                _fail(EXIT_NUMERIC, str(exc))
            except (ConvRecError, ValueError) as exc:
                _fail(EXIT_USAGE, str(exc))

        return wrapper

    return decorator


# ---------------------------------------------------------------------------
# configuration plumbing

_BOOL_VALUES = {"true": True, "false": False, "1": True, "0": False,
                "yes": True, "no": False}

_CONFIG_FIELDS = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
# exact types a sidecar value may have per annotation: a JSON true is not an int
_JSON_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,)}


def parse_config_file(path: str | Path) -> dict[str, str]:
    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(f"config file not found: {path}")
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValidationError(f"config line {lineno} is not key=value: {line!r}")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def build_train_config(config_file: str | None, overrides: dict) -> TrainConfig:
    """Layer file values under explicit flag overrides."""
    merged: dict = {}
    if config_file:
        for key, raw in parse_config_file(config_file).items():
            if key not in _CONFIG_FIELDS:
                raise ValidationError(f"unknown config key {key!r}")
            ftype = _CONFIG_FIELDS[key]
            if ftype == "bool":
                if raw.lower() not in _BOOL_VALUES:
                    raise ValidationError(f"config key {key!r}: expected boolean, got {raw!r}")
                merged[key] = _BOOL_VALUES[raw.lower()]
            elif ftype == "int":
                merged[key] = int(raw)
            elif ftype == "float":
                merged[key] = float(raw)
            else:
                merged[key] = raw
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value
    config = TrainConfig(**merged)
    config.validate()
    return config


def parse_without(value: str | None) -> list[str]:
    if not value:
        return []
    flags = [part.strip() for part in value.split(",") if part.strip()]
    for flag in flags:
        if flag not in ABLATION_FLAGS:
            raise ValueError(f"unknown ablation flag {flag!r}")
    return flags


def parse_ks(value: str) -> list[int]:
    try:
        ks = [int(part) for part in value.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"bad k list {value!r}") from None
    if not ks or any(k < 1 for k in ks):
        raise ValueError(f"bad k list {value!r}")
    return ks


def train_options(fn):
    options = [
        click.option("--config", "config_file", type=click.Path(), default=None,
                     help="key=value config file; flags override it"),
        click.option("--dim", type=int, default=None),
        click.option("--layers", type=int, default=None),
        click.option("--epochs", type=int, default=None),
        click.option("--batch-size", "batch_size", type=int, default=None),
        click.option("--lr", type=float, default=None),
        click.option("--clip", type=float, default=None),
        click.option("--top-n", "top_n", type=int, default=None),
        click.option("--seed", type=int, default=None),
        click.option("--gate-mode", "gate_mode", type=click.Choice(["elementwise", "scalar"]),
                     default=None),
        click.option("--normalization", type=click.Choice(["constant", "in_degree"]),
                     default=None),
        click.option("--z", type=float, default=None),
        click.option("--no-candidate-masking", "no_candidate_masking", is_flag=True,
                     default=False, help="score every item, even already-mentioned ones"),
        click.option("--without", default=None,
                     help="comma-separated ablation flags (ig,rt,db,cn)"),
    ]
    for option in reversed(options):
        fn = option(fn)
    return fn


def config_from_params(params: dict) -> TrainConfig:
    overrides = {
        key: params.get(key)
        for key in ("dim", "layers", "epochs", "batch_size", "lr", "clip",
                    "top_n", "seed", "gate_mode", "normalization", "z")
    }
    if params.get("no_candidate_masking"):
        overrides["candidate_masking"] = False
    for flag in parse_without(params.get("without")):
        overrides[f"without_{flag}"] = True
    return build_train_config(params.get("config_file"), overrides)


# ---------------------------------------------------------------------------
# bundle I/O


def load_bundle(bundle_dir: str | Path, index_path: str | Path | None = None) -> Artifacts:
    bundle = Path(bundle_dir)
    manifest_path = bundle / _BUNDLE_FILES["manifest"]
    if not manifest_path.exists():
        raise MissingArtifactError(f"not an artifact bundle (no manifest): {bundle}")
    manifest = json.loads(manifest_path.read_text("utf-8"))
    if not isinstance(manifest, dict):
        raise ParseError(f"{manifest_path}: expected a JSON object")
    if set(manifest) != set(_MANIFEST_TYPES):
        raise ParseError(f"{manifest_path}: keys {sorted(manifest)}, "
                         f"expected {sorted(_MANIFEST_TYPES)}")
    for key, kind in _MANIFEST_TYPES.items():
        if type(manifest[key]) is not kind:
            raise ParseError(f"{manifest_path}: {key!r} is not a JSON {kind.__name__}: "
                             f"{manifest[key]!r}")
    if manifest["format"] != 1:
        raise ParseError(f"{manifest_path}: unsupported bundle format {manifest['format']}")

    entities = load_entity_vocab(bundle / _BUNDLE_FILES["entities"])
    stopwords = load_stopwords(bundle / _BUNDLE_FILES["stopwords"])
    conversations, vocab = load_corpus(bundle / _BUNDLE_FILES["corpus"], entities,
                                       stopwords=stopwords)
    kg = load_item_kg(bundle / _BUNDLE_FILES["kg"], entities)
    word_graph = None
    if manifest["has_word_graph"]:
        word_graph = load_word_graph(bundle / _BUNDLE_FILES["word_graph"], vocab.words)
    interaction = load_interaction_graph(bundle / _BUNDLE_FILES["interaction"], entities)

    index = None
    idx_path = Path(index_path) if index_path else bundle / _BUNDLE_FILES["index"]
    if manifest["has_index"] or index_path:
        index = load_index(idx_path)
    return build_artifacts(conversations, vocab, kg, word_graph, loaded=(interaction, index))


def _config_sidecar(checkpoint_path: Path) -> Path:
    return checkpoint_path.with_name(checkpoint_path.name + ".config.json")


def save_model_checkpoint(result_model: Model, state, checkpoint_path: Path) -> None:
    save_checkpoint(checkpoint_path, result_model.store, state)
    with atomic_write(_config_sidecar(checkpoint_path)) as fh:
        fh.write((json.dumps(dataclasses.asdict(result_model.config), sort_keys=True)
                  + "\n").encode("utf-8"))


def load_model(bundle_dir: str, checkpoint_path: str,
               index_path: str | None = None) -> Model:
    ckpt = Path(checkpoint_path)
    if not ckpt.exists():
        raise MissingArtifactError(f"checkpoint not found: {ckpt}")
    sidecar = _config_sidecar(ckpt)
    if not sidecar.exists():
        raise MissingArtifactError(f"checkpoint config not found: {sidecar}")
    values = json.loads(sidecar.read_text("utf-8"))
    if not isinstance(values, dict):
        raise ParseError(f"{sidecar}: expected a JSON object")
    for key, value in values.items():
        if key not in _CONFIG_FIELDS:
            raise ParseError(f"{sidecar}: unknown config key {key!r}")
        if type(value) not in _JSON_TYPES[_CONFIG_FIELDS[key]]:
            raise ParseError(f"{sidecar}: config key {key!r} is not a JSON "
                             f"{_CONFIG_FIELDS[key]}: {value!r}")
    config = TrainConfig(**values)
    artifacts = load_bundle(bundle_dir, index_path)
    model = Model(artifacts, config)
    load_checkpoint(ckpt, model.store)
    return model


# ---------------------------------------------------------------------------
# commands


@click.group()
def main() -> None:
    """Conversational item recommender built on graph encoders and retrieval."""


@main.command()
@click.option("--corpus", "corpus_path", required=True, type=click.Path())
@click.option("--entities", "entities_path", required=True, type=click.Path())
@click.option("--kg", "kg_path", required=True, type=click.Path())
@click.option("--word-graph", "word_graph_path", type=click.Path(), default=None)
@click.option("--lexicon", "lexicon_path", type=click.Path(), default=None,
              help="keyword sentiment lexicon for corpora without explicit labels")
@click.option("--stopwords", "stopwords_path", type=click.Path(), default=None)
@click.option("--index-path", "index_path", type=click.Path(), default=None,
              help="where to write the retrieval index (default: inside the bundle)")
@click.option("--out", "out_dir", required=True, type=click.Path())
@command_errors(missing_exit=EXIT_USAGE)
def ingest(corpus_path, entities_path, kg_path, word_graph_path, lexicon_path,
           stopwords_path, index_path, out_dir) -> None:
    """Validate raw inputs and write a normalized artifact bundle."""
    entities = load_entity_vocab(entities_path)
    stopwords = load_stopwords(stopwords_path) if stopwords_path else default_stopwords()
    lexicon = load_keyword_lexicon(lexicon_path) if lexicon_path else None
    conversations, vocab = load_corpus(corpus_path, entities,
                                       stopwords=stopwords, lexicon=lexicon)
    kg = load_item_kg(kg_path, entities)
    word_graph = load_word_graph(word_graph_path, vocab.words) if word_graph_path else None

    train_convs = [c for c in conversations if c.split == Split.TRAIN]
    interaction = build_interaction_graph(train_convs, entities)
    index = build_index(train_convs) if train_convs else None

    bundle = Path(out_dir)
    bundle.mkdir(parents=True, exist_ok=True)
    save_corpus(conversations, entities, bundle / _BUNDLE_FILES["corpus"])
    save_entity_vocab(entities, bundle / _BUNDLE_FILES["entities"])
    save_kg(kg, entities, bundle / _BUNDLE_FILES["kg"])
    if word_graph is not None:
        save_word_graph(word_graph, vocab.words, bundle / _BUNDLE_FILES["word_graph"])
    save_interaction_graph(interaction, entities, bundle / _BUNDLE_FILES["interaction"])
    with atomic_write(bundle / _BUNDLE_FILES["stopwords"], text=True) as fh:
        for word in sorted(stopwords):
            fh.write(word + "\n")
    if index is not None:
        target = Path(index_path) if index_path else bundle / _BUNDLE_FILES["index"]
        save_index(index, target)

    stats = corpus_stats(conversations, entities)
    manifest = {
        "format": 1,
        "has_word_graph": word_graph is not None,
        "has_index": index is not None,
        "stats": stats,
        "splits": {
            s.value: sum(1 for c in conversations if c.split == s) for s in Split
        },
    }
    with atomic_write(bundle / _BUNDLE_FILES["manifest"], text=True) as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    for key in ("users", "conversations", "utterances", "items"):
        click.echo(f"{key}={stats[key]}")


@main.command()
@click.option("--bundle", "bundle_dir", required=True, type=click.Path())
@click.option("--index-path", "index_path", type=click.Path(), default=None)
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--k", "k_list", default="1,10,50", show_default=True)
@train_options
@command_errors()
def train(bundle_dir, index_path, out_dir, k_list, **params) -> None:
    """Train on the bundle's training split and keep the best-validation model."""
    config = config_from_params(params)
    ks = parse_ks(k_list)
    artifacts = load_bundle(bundle_dir, index_path)
    result = run_train(artifacts, config, ks)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for epoch, report in enumerate(result.epoch_reports):
        (out / f"epoch_{epoch:03d}.metrics.txt").write_text(report.to_text(), "utf-8")
        (out / f"epoch_{epoch:03d}.metrics.json").write_text(report.to_json() + "\n", "utf-8")
    save_model_checkpoint(result.model, None, out / "model.ckpt")
    losses = ",".join(repr(x) for x in result.epoch_losses)
    (out / "train_losses.txt").write_text(losses + "\n", "utf-8")
    click.echo(f"best_epoch={result.best_epoch}")
    click.echo(f"guard_events={result.guard_events}")
    if result.epoch_reports:
        click.echo(result.epoch_reports[result.best_epoch].to_text(), nl=False)


@main.command("eval")
@click.option("--bundle", "bundle_dir", required=True, type=click.Path())
@click.option("--checkpoint", "checkpoint_path", required=True, type=click.Path())
@click.option("--index-path", "index_path", type=click.Path(), default=None)
@click.option("--split", type=click.Choice(["train", "valid", "test"]), default="test",
              show_default=True)
@click.option("--k", "k_list", default="1,10,50", show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="also write the report (text plus .json sibling) here")
@command_errors()
def eval_command(bundle_dir, checkpoint_path, index_path, split, k_list, out_path) -> None:
    """Evaluate a checkpoint on one split."""
    ks = parse_ks(k_list)
    model = load_model(bundle_dir, checkpoint_path, index_path)
    examples = split_view(model.artifacts.examples, split)
    report = evaluate(model, examples, ks, split_label=split)
    click.echo(report.to_text(), nl=False)
    if out_path:
        out = Path(out_path)
        out.write_text(report.to_text(), "utf-8")
        out.with_suffix(out.suffix + ".json").write_text(report.to_json() + "\n", "utf-8")


@main.command()
@click.option("--bundle", "bundle_dir", required=True, type=click.Path())
@click.option("--index-path", "index_path", type=click.Path(), default=None)
@click.option("--split", type=click.Choice(["train", "valid", "test"]), default="test",
              show_default=True)
@click.option("--k", "k_list", default="1,10,50", show_default=True)
@click.option("--combined", is_flag=True, default=False,
              help="disable all listed components in one variant instead of one at a time")
@click.option("--out", "out_dir", type=click.Path(), default=None)
@train_options
@command_errors()
def ablate(bundle_dir, index_path, split, k_list, combined, out_dir, **params) -> None:
    """Retrain with components disabled and print the comparison table."""
    flags = parse_without(params.get("without"))
    params = dict(params, without=None)  # flags drive variants, not the base config
    config = config_from_params(params)
    ks = parse_ks(k_list)
    artifacts = load_bundle(bundle_dir, index_path)
    reports = run_ablate(artifacts, config, flags, combined=combined, ks=ks,
                         split=Split(split))
    click.echo(comparison_table(reports, ks), nl=False)
    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, report in reports.items():
            (out / f"{name}.metrics.txt").write_text(report.to_text(), "utf-8")
            (out / f"{name}.metrics.json").write_text(report.to_json() + "\n", "utf-8")


@main.command("retrieve")
@click.option("--bundle", "bundle_dir", required=True, type=click.Path())
@click.option("--index-path", "index_path", type=click.Path(), default=None)
@click.option("--conversation", "conversation_id", required=True)
@click.option("--n", type=int, default=1, show_default=True)
@command_errors()
def retrieve_command(bundle_dir, index_path, conversation_id, n) -> None:
    """Show the conversations most similar to one conversation."""
    artifacts = load_bundle(bundle_dir, index_path)
    if artifacts.index is None:
        raise MissingArtifactError("bundle has no retrieval index")
    by_id = {c.conversation_id: c for c in artifacts.conversations}
    if conversation_id not in by_id:
        raise ValueError(f"unknown conversation {conversation_id!r}")
    query = conversation_tokens(by_id[conversation_id])
    result = retrieve(artifacts.index, query, n, exclude_id=conversation_id)
    for doc_id, score in result.ranked:
        click.echo(f"{doc_id}\t{score!r}")
    tokens = [artifacts.vocab.entities.tokens[e] for e in result.entities]
    click.echo("entities=" + ",".join(tokens))


@main.command()
@click.option("--bundle", "bundle_dir", required=True, type=click.Path())
@click.option("--checkpoint", "checkpoint_path", required=True, type=click.Path())
@click.option("--index-path", "index_path", type=click.Path(), default=None)
@click.option("--k", type=click.IntRange(min=1), default=10, show_default=True,
              help="items per answer; a k above the catalog size prints every item")
@command_errors()
@ad.no_grad()
def recommend(bundle_dir, checkpoint_path, index_path, k) -> None:
    """Read entity mentions from stdin; print top-k items after each line.

    Mentions accumulate across lines within the session. References are
    comma-separated; a part that is not itself an id or a name is split on
    whitespace so bare id lists work without commas. Each answer (k ranked
    lines, then a blank line) is written and flushed at once. The session
    is forward-only: nothing records a tape.
    """
    model = load_model(bundle_dir, checkpoint_path, index_path)
    entities = model.artifacts.vocab.entities
    item_ids = model.artifacts.item_ids
    item_matrix, word_matrix = model.encoder_outputs()
    item_rows = ad.lookup(item_matrix, item_ids)
    context: list[int] = []
    for raw in sys.stdin:
        parts = [p.strip() for p in raw.strip().split(",") if p.strip()]
        refs: list[str] = []
        for part in parts:
            try:
                entities.resolve(part)
                refs.append(part)
            except ValidationError:
                refs.extend(part.split())
        for token in refs:
            try:
                entity = entities.resolve(token)
            except ValidationError as exc:
                click.echo(f"warning: {exc}", err=True)
                continue
            if entity not in context:
                context.append(entity)
        example = RecExample(
            conversation_id="(stdin)", user_id="(stdin)", split=Split.TEST,
            turn_index=len(context), context_entities=tuple(context),
            context_words=(), gold_items=frozenset(),
        )
        contexts = model.contexts([example])
        users = model.users(contexts, item_matrix, word_matrix).vector
        probs = score_all(users, item_rows, contexts.masked).values[0]
        top = rank_order(probs, k)
        click.echo("".join(
            f"{rank}\t{entities.tokens[entity]}\t{entities.names[entity]}\t{p:.6f}\n"
            for rank, (entity, p) in enumerate(zip(item_ids[top].tolist(), probs[top].tolist()),
                                               start=1)))


if __name__ == "__main__":
    main()
