"""Command-line interface: ingest, train, eval, ablate, retrieve, recommend.

Exit codes: 0 success, 2 usage or validation failure, 3 missing artifact,
4 numeric failure. Configuration comes from an optional key=value file plus
command-line flags; flags win.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import operator
import sys
from pathlib import Path

import click
import numpy as np

from . import autodiff as ad
from .corpus import (
    SENTIMENTS,
    SPEAKERS,
    SPLITS,
    Corpus,
    EntityVocab,
    Examples,
    Split,
    Vocab,
    WordVocab,
    _offsets,
    corpus_stats,
    default_stopwords,
    load_corpus,
    load_entity_vocab,
    load_keyword_lexicon,
    load_stopwords,
    split_view,
)
from .errors import (
    ConfigurationError,
    ConvRecError,
    MissingArtifactError,
    NumericError,
    ParseError,
    StateError,
    ValidationError,
)
from .graphs import TypedGraph, WordGraph, build_word_graph, load_item_kg, load_word_graph
from .optim import (
    atomic_write,
    load_checkpoint,
    open_input,
    read_arrays,
    save_arrays,
    save_checkpoint,
)
from .recommender import (
    ABLATION_FLAGS,
    Artifacts,
    MetricsReport,
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
from .retrieval import retrieve

EXIT_USAGE = 2
EXIT_MISSING = 3
EXIT_NUMERIC = 4

# a bundle: the manifest, and one named-array container of the parsed inputs
_BUNDLE_FILES = {"manifest": "manifest.json", "arrays": "arrays.bin"}

# every manifest key and the exact type of its JSON value (a JSON true is not an int)
_MANIFEST_TYPES = {"format": int, "has_word_graph": bool, "stats": dict, "splits": dict,
                   "arrays_sha256": str}
# the one bundle format this version reads, also the container's version; a
# bundle of another is ingested again
_BUNDLE_FORMAT = 3
_ARRAYS_MAGIC = b"CVRB"
# the files of the text formats before it, which ingest removes when it writes over one
_OLD_FORMAT_FILES = {2: ("corpus.jsonl", "entities.tsv", "kg.tsv", "word_graph.tsv",
                         "stopwords.txt")}
_OLD_FORMAT_FILES[1] = _OLD_FORMAT_FILES[2] + ("interaction.tsv", "bm25.idx")
# the string lists of the container; each is two arrays, its UTF-8 bytes
# "<name>.utf8" and their "<name>.offsets"
_STRING_LISTS = ("corpus.conversation_ids", "corpus.user_ids", "corpus.texts",
                 "entities.tokens", "entities.names", "words", "kg.relations")
# every array of the container: its dtype and the shape of one row; a code is |u1
_LAYOUT = {
    **{f"{name}.utf8": ("|u1", ()) for name in _STRING_LISTS},
    **{f"{name}.offsets": ("<i8", ()) for name in _STRING_LISTS},
    **dict.fromkeys(("corpus.splits", "corpus.speakers", "corpus.sentiments",
                     "entities.is_item"), ("|u1", ())),
    **dict.fromkeys(("corpus.utterances.offsets", "corpus.mentions.rows",
                     "corpus.mentions.offsets", "corpus.words.rows", "corpus.words.offsets"),
                    ("<i8", ())),
    "kg.edges": ("<i8", (3,)),
    "word_graph.pairs": ("<i8", (2,)),
}


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
    values: dict[str, str] = {}
    with open_input(path, "config file", text=True) as fh:
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


def _read_json_object(path: Path, what: str) -> dict:
    """The JSON object ``path`` holds; any other content raises ParseError."""
    with open_input(path, what, text=True) as fh:
        try:
            value = json.load(fh)
        except json.JSONDecodeError as err:
            raise ParseError(f"{path}: invalid JSON: {err.msg}", line=err.lineno) from None
    if not isinstance(value, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return value


def _pack_strings(name: str, strings: list[str]) -> dict[str, np.ndarray]:
    encoded = [text.encode("utf-8") for text in strings]
    return {f"{name}.utf8": np.frombuffer(b"".join(encoded), np.uint8),
            f"{name}.offsets": _offsets(list(map(len, encoded)))}


def _bundle_arrays(corpus: Corpus, vocab: Vocab, kg: TypedGraph,
                   word_graph: WordGraph | None) -> dict[str, np.ndarray]:
    """The container's arrays: every ``Corpus`` field, the vocabularies, the KG and
    the word graph's pairs as vocabulary ids."""
    entities = vocab.entities
    arrays = {
        **_pack_strings("corpus.conversation_ids", corpus.conversation_ids),
        **_pack_strings("corpus.user_ids", corpus.user_ids),
        "corpus.splits": corpus.splits.view(np.uint8),
        "corpus.utterances.offsets": corpus.utterances.offsets,
        "corpus.speakers": corpus.speakers.view(np.uint8),
        **_pack_strings("corpus.texts", corpus.texts),
        "corpus.mentions.rows": corpus.mentions.rows,
        "corpus.mentions.offsets": corpus.mentions.offsets,
        "corpus.sentiments": corpus.sentiments.view(np.uint8),
        "corpus.words.rows": corpus.words.rows,
        "corpus.words.offsets": corpus.words.offsets,
        **_pack_strings("entities.tokens", entities.tokens),
        **_pack_strings("entities.names", entities.names),
        "entities.is_item": np.array(entities.is_item, np.uint8),
        **_pack_strings("words", vocab.words.words),
        **_pack_strings("kg.relations", list(kg.relations)),
        "kg.edges": kg.edges,
    }
    if word_graph is not None:
        arrays["word_graph.pairs"] = np.asarray(word_graph.word_ids, np.intp)[word_graph.pairs]
    return arrays


def _unpack_bundle(arrays: dict[str, np.ndarray],
                   path: Path) -> tuple[Corpus, Vocab, TypedGraph, WordGraph | None]:
    """The parsed inputs ``_bundle_arrays`` packed, each array checked whole:
    dtypes and shapes, offsets, ids and codes in range, UTF-8 strings and
    strictly ascending conversation ids. A check that fails raises ParseError;
    a repeated entity id, or a KG edge out of range, ValidationError. Arrays
    come out as copies: a view would keep the whole container's bytes alive."""

    def bad(message: str) -> ParseError:
        return ParseError(f"{path}: {message}")

    for name, a in arrays.items():
        if name not in _LAYOUT or (a.dtype.str, a.shape[1:]) != _LAYOUT[name] or not a.ndim:
            raise bad(f"array {name!r} is not one of the bundle's, or has another dtype or shape")
    missing = [name for name in _LAYOUT if name not in arrays and name != "word_graph.pairs"]
    if missing:
        raise bad(f"no array {missing[0]!r}")

    def offsets(name: str, n_groups: int, n_rows: int) -> np.ndarray:
        a = arrays[name]
        if not (n_groups >= 0 and len(a) == n_groups + 1 and a[0] == 0 and a[-1] == n_rows
                and (a[1:] >= a[:-1]).all()):
            raise bad(f"array {name!r} is not {n_groups + 1} offsets rising from 0 to {n_rows}")
        return a.copy()

    def ids(name: str, n: int) -> np.ndarray:
        a = arrays[name]
        # as unsigned ints, negative ids are huge: one reduction checks both ends
        if a.size and a.view(np.uint64).max() >= n:
            raise bad(f"array {name!r} holds an id outside [0, {n})")
        return a.copy()

    def codes(name: str, n: int, count: int) -> np.ndarray:
        a = arrays[name]
        if len(a) != count or (a.size and a.max() >= n):
            raise bad(f"array {name!r} is not {count} codes below {n}")
        return a.astype(np.int8)

    def strings(name: str, count: int | None = None) -> list[str]:
        blob, n_offsets = arrays[f"{name}.utf8"], len(arrays[f"{name}.offsets"])
        bounds = offsets(f"{name}.offsets", n_offsets - 1 if count is None else count, len(blob))
        raw = blob.tobytes()
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise bad(f"array {name + '.utf8'!r} is not UTF-8") from None
        if len(text) < len(raw):  # multi-byte characters: byte offsets to character offsets
            lead = (blob & 0xC0) != 0x80  # each character's first byte
            if not lead[bounds[bounds < len(blob)]].all():
                raise bad(f"array {name + '.offsets'!r} splits a character")
            bounds = np.concatenate(([0], np.cumsum(lead)))[bounds]
        bounds = bounds.tolist()
        return list(map(text.__getitem__, map(slice, bounds, bounds[1:])))

    tokens = strings("entities.tokens")
    n_entities = len(tokens)
    entities = EntityVocab()
    for token, name, flag in zip(tokens, strings("entities.names", n_entities),
                                 codes("entities.is_item", 2, n_entities).tolist()):
        entities.add(token, name, flag == 1)  # a repeated token raises ValidationError
    words, word_list = WordVocab(), strings("words")
    for word in word_list:
        words.register(word)
    if len(words) < len(word_list):
        raise bad("array 'words.utf8' holds a word twice")
    conversation_ids = strings("corpus.conversation_ids")
    if not all(map(operator.lt, conversation_ids, conversation_ids[1:])):
        raise bad("conversation ids are not strictly ascending")
    n_conv, n_utt = len(conversation_ids), len(arrays["corpus.speakers"])
    mention_rows = ids("corpus.mentions.rows", n_entities)
    word_rows = ids("corpus.words.rows", len(words))
    corpus = Corpus(
        conversation_ids, strings("corpus.user_ids", n_conv),
        codes("corpus.splits", len(SPLITS), n_conv),
        ad.Segments._built(np.arange(n_utt),
                           offsets("corpus.utterances.offsets", n_conv, n_utt)),
        codes("corpus.speakers", len(SPEAKERS), n_utt), strings("corpus.texts", n_utt),
        ad.Segments._built(mention_rows,
                           offsets("corpus.mentions.offsets", n_utt, len(mention_rows))),
        codes("corpus.sentiments", len(SENTIMENTS), len(mention_rows)),
        ad.Segments._built(word_rows, offsets("corpus.words.offsets", n_utt, len(word_rows))))
    kg = TypedGraph(n_entities, strings("kg.relations"), arrays["kg.edges"])
    word_graph = None
    if "word_graph.pairs" in arrays:
        word_graph = build_word_graph(ids("word_graph.pairs", len(words)))
    return corpus, Vocab(entities=entities, words=words), kg, word_graph


def load_bundle(bundle_dir: str | Path) -> Artifacts:
    """The bundle's parsed inputs, and what ``build_artifacts`` derives from them:
    the bundle stores no interaction graph and no retrieval index. No text but
    the manifest is parsed: the container holds the inputs as arrays, read once
    and hashed against the manifest's digest before any is checked."""
    bundle = Path(bundle_dir)
    manifest_path = bundle / _BUNDLE_FILES["manifest"]
    manifest = _read_json_object(manifest_path, "artifact bundle manifest")
    # the format first: another format's manifest may have other keys
    if type(manifest.get("format")) is int and manifest["format"] != _BUNDLE_FORMAT:
        raise ParseError(f"{manifest_path}: unsupported bundle format {manifest['format']}")
    if set(manifest) != set(_MANIFEST_TYPES):
        raise ParseError(f"{manifest_path}: keys {sorted(manifest)}, "
                         f"expected {sorted(_MANIFEST_TYPES)}")
    for key, kind in _MANIFEST_TYPES.items():
        if type(manifest[key]) is not kind:
            raise ParseError(f"{manifest_path}: {key!r} is not a JSON {kind.__name__}: "
                             f"{manifest[key]!r}")

    path = bundle / _BUNDLE_FILES["arrays"]
    with open_input(path, "bundle arrays") as fh:
        raw = fh.read()
    if hashlib.sha256(raw).hexdigest() != manifest["arrays_sha256"]:
        raise ParseError(f"{path}: sha256 does not match the manifest's; the file changed")
    arrays = read_arrays(raw, _ARRAYS_MAGIC, _BUNDLE_FORMAT, f"bundle arrays {path}")
    if ("word_graph.pairs" in arrays) != manifest["has_word_graph"]:
        raise ParseError(f"{path}: holds a word graph: {'word_graph.pairs' in arrays}, "
                         f"the manifest's has_word_graph: {manifest['has_word_graph']}")
    try:
        parsed = _unpack_bundle(arrays, path)
    except ValidationError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return dataclasses.replace(build_artifacts(*parsed), arrays_sha256=manifest["arrays_sha256"])


def _config_sidecar(checkpoint_path: Path) -> Path:
    return checkpoint_path.with_name(checkpoint_path.name + ".config.json")


# the sidecar keys, beside the config fields: the checkpoint's sha256, the
# bundle container's it was trained on, and the config's (_config_sha256)
_DIGEST_KEY = "checkpoint_sha256"
_BUNDLE_KEY = "bundle_arrays_sha256"
_CONFIG_KEY = "config_sha256"
# the checkpoint's arrays beside the parameters: what encoder_outputs() of the
# saved model returns, the item matrix over every entity and the word matrix
_OUTPUT_NAMES = ("outputs.items", "outputs.words")


def _config_sha256(values: dict) -> str:
    """The sha256 of config values' canonical JSON, the sidecar's form of them."""
    return hashlib.sha256(json.dumps(values, sort_keys=True).encode("utf-8")).hexdigest()


def _output_dir(path: str | Path) -> Path:
    """``path`` as a directory, made with its parents if missing; a location
    that cannot be one raises ConfigurationError."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigurationError(f"cannot make directory {out}: {err.strerror}") from None
    return out


def _write_text(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` in one step: a failed write keeps the old file."""
    with atomic_write(path, text=True) as fh:
        fh.write(text)


def _write_report(report: MetricsReport, text_path: Path, json_path: Path) -> None:
    """The report as text and as one line of JSON, each file written by ``_write_text``."""
    _write_text(text_path, report.to_text())
    _write_text(json_path, report.to_json() + "\n")


def save_model_checkpoint(result_model: Model, unused: None, checkpoint_path: Path) -> None:
    """Write the checkpoint, then its sidecar: the config, its sha256, the
    checkpoint's sha256 and the sha256 of the bundle container the model was
    trained on.

    The checkpoint holds the parameters and, after them, what
    ``encoder_outputs()`` returns for them, computed here without a tape:
    ``eval`` and ``recommend`` score against these and run no encoder.
    ``unused`` is always None: the benchmark's worker passes it, by position,
    where an optimizer state once went, until the benchmark changes. A model whose artifacts no
    bundle holds is refused before anything is written.
    """
    bundle_digest = result_model.artifacts.arrays_sha256
    if bundle_digest is None:
        raise StateError("the model's artifacts come from no bundle: its checkpoint "
                         "could never be loaded")
    config = dataclasses.asdict(result_model.config)
    config_digest = _config_sha256(config)
    with ad.no_grad():
        outputs = result_model.encoder_outputs()
    arrays = {name: t.values for name, t in zip(_OUTPUT_NAMES, outputs) if t is not None}
    sidecar = {**config, _CONFIG_KEY: config_digest, _BUNDLE_KEY: bundle_digest,
               _DIGEST_KEY: save_checkpoint(checkpoint_path, result_model.store, arrays)}
    _write_text(_config_sidecar(checkpoint_path), json.dumps(sidecar, sort_keys=True) + "\n")


def load_model(bundle_dir: str, checkpoint_path: str) -> Model:
    """The model a checkpoint and its sidecar describe, over the bundle's artifacts.

    The sidecar's config values must be those its config sha256 records, and
    the bundle's container the one it records, else ParseError. The model
    draws nothing. The checkpoint is read once: its bytes are hashed against
    the sidecar's digest, then its names and shapes are checked, and its
    arrays become the parameters and ``Model.stored_outputs``, as read-only
    views of that read. ``eval`` and ``recommend`` score against the stored
    outputs, so a loaded model runs no encoder and builds no graph operator.
    """
    ckpt = Path(checkpoint_path)
    sidecar = _config_sidecar(ckpt)
    values = _read_json_object(sidecar, "checkpoint config")
    digest = values.pop(_DIGEST_KEY, None)
    bundle_digest = values.pop(_BUNDLE_KEY, None)
    config_digest = values.pop(_CONFIG_KEY, None)
    for key, value in values.items():
        if key not in _CONFIG_FIELDS:
            raise ParseError(f"{sidecar}: unknown config key {key!r}")
        if type(value) not in _JSON_TYPES[_CONFIG_FIELDS[key]]:
            raise ParseError(f"{sidecar}: config key {key!r} is not a JSON "
                             f"{_CONFIG_FIELDS[key]}: {value!r}")
    for key, value, what in ((_DIGEST_KEY, digest, "checkpoint"),
                             (_BUNDLE_KEY, bundle_digest, "bundle"),
                             (_CONFIG_KEY, config_digest, "config")):
        if type(value) is not str:
            raise ParseError(f"{sidecar}: no {what} sha256 ({key!r})")
    config = TrainConfig(**values)
    config.validate()
    if _config_sha256(values) != config_digest:
        raise ParseError(f"{sidecar}: the config differs from the one the checkpoint was "
                         f"saved with: its sha256 differs from its record")
    artifacts = load_bundle(bundle_dir)
    if artifacts.arrays_sha256 != bundle_digest:
        raise ParseError(f"{sidecar}: the checkpoint was trained on another bundle: the sha256 "
                         f"of {Path(bundle_dir) / _BUNDLE_FILES['arrays']} differs from its record")
    model = Model(artifacts, config, draw=False)
    with open_input(ckpt, "checkpoint") as fh:
        raw = fh.read()
    if hashlib.sha256(raw).hexdigest() != digest:
        raise ParseError(f"{ckpt}: sha256 does not match its sidecar's; the checkpoint changed")
    shapes = {_OUTPUT_NAMES[0]: (len(artifacts.vocab.entities), config.dim)}
    if model.encodes_words:
        shapes[_OUTPUT_NAMES[1]] = (artifacts.word_graph.n_nodes, config.dim)
    stored = load_checkpoint(raw, model.store, shapes)
    model.stored_outputs = tuple(ad.constant(stored[name]) if name in stored else None
                                 for name in _OUTPUT_NAMES)
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
@click.option("--out", "out_dir", required=True, type=click.Path())
@command_errors(missing_exit=EXIT_USAGE)
def ingest(corpus_path, entities_path, kg_path, word_graph_path, lexicon_path,
           stopwords_path, out_dir) -> None:
    """Validate raw inputs and write a normalized artifact bundle."""
    entities = load_entity_vocab(entities_path)
    stopwords = load_stopwords(stopwords_path) if stopwords_path else default_stopwords()
    lexicon = load_keyword_lexicon(lexicon_path) if lexicon_path else None
    corpus, vocab = load_corpus(corpus_path, entities, stopwords=stopwords, lexicon=lexicon)
    kg = load_item_kg(kg_path, entities)
    word_graph = load_word_graph(word_graph_path, vocab.words) if word_graph_path else None

    bundle = Path(out_dir)
    try:  # the files of an older bundle this one replaces, known by its format
        old_format = _read_json_object(bundle / _BUNDLE_FILES["manifest"],
                                       "artifact bundle manifest").get("format")
        stale = _OLD_FORMAT_FILES.get(old_format, ()) if type(old_format) is int else ()
    except ConvRecError:
        stale = ()
    _output_dir(bundle)
    # the container, then the manifest that records its sha256
    digest = save_arrays(bundle / _BUNDLE_FILES["arrays"], _ARRAYS_MAGIC, _BUNDLE_FORMAT,
                         _bundle_arrays(corpus, vocab, kg, word_graph))
    stats = corpus_stats(corpus, entities)
    counts = np.bincount(corpus.splits, minlength=len(SPLITS)).tolist()
    manifest = {
        "format": _BUNDLE_FORMAT,
        "has_word_graph": word_graph is not None,
        "stats": stats,
        "splits": {s.value: n for s, n in zip(SPLITS, counts)},
        "arrays_sha256": digest,
    }
    _write_text(bundle / _BUNDLE_FILES["manifest"],
                json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    inputs = {Path(p).resolve() for p in (corpus_path, entities_path, kg_path, word_graph_path,
                                          lexicon_path, stopwords_path) if p}
    for path in (bundle / name for name in stale):
        if path.is_file() and path.resolve() not in inputs:
            path.unlink()
    for key in ("users", "conversations", "utterances", "items"):
        click.echo(f"{key}={stats[key]}")


@main.command()
@click.option("--bundle", "bundle_dir", required=True, type=click.Path())
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--k", "k_list", default="1,10,50", show_default=True)
@train_options
@command_errors()
def train(bundle_dir, out_dir, k_list, **params) -> None:
    """Train on the bundle's training split and keep the best-validation model."""
    config = config_from_params(params)
    ks = parse_ks(k_list)
    artifacts = load_bundle(bundle_dir)
    out = _output_dir(out_dir)  # before training: a bad --out costs no run
    result = run_train(artifacts, config, ks)
    for epoch, report in enumerate(result.epoch_reports):
        _write_report(report, out / f"epoch_{epoch:03d}.metrics.txt",
                     out / f"epoch_{epoch:03d}.metrics.json")
    save_model_checkpoint(result.model, None, out / "model.ckpt")
    losses = ",".join(repr(x) for x in result.epoch_losses)
    _write_text(out / "train_losses.txt", losses + "\n")
    click.echo(f"best_epoch={result.best_epoch}")
    click.echo(f"guard_events={result.guard_events}")
    if result.epoch_reports:
        click.echo(result.epoch_reports[result.best_epoch].to_text(), nl=False)


@main.command("eval")
@click.option("--bundle", "bundle_dir", required=True, type=click.Path())
@click.option("--checkpoint", "checkpoint_path", required=True, type=click.Path())
@click.option("--split", type=click.Choice(["train", "valid", "test"]), default="test",
              show_default=True)
@click.option("--k", "k_list", default="1,10,50", show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="also write the report (text plus .json sibling) here")
@command_errors()
def eval_command(bundle_dir, checkpoint_path, split, k_list, out_path) -> None:
    """Evaluate a checkpoint on one split."""
    ks = parse_ks(k_list)
    model = load_model(bundle_dir, checkpoint_path)
    examples = split_view(model.artifacts.examples, split)
    report = evaluate(model, examples, ks, split_label=split)
    click.echo(report.to_text(), nl=False)
    if out_path:
        out = Path(out_path)
        _write_report(report, out, out.with_suffix(out.suffix + ".json"))


@main.command()
@click.option("--bundle", "bundle_dir", required=True, type=click.Path())
@click.option("--split", type=click.Choice(["train", "valid", "test"]), default="test",
              show_default=True)
@click.option("--k", "k_list", default="1,10,50", show_default=True)
@click.option("--combined", is_flag=True, default=False,
              help="disable all listed components in one variant instead of one at a time")
@click.option("--out", "out_dir", type=click.Path(), default=None)
@train_options
@command_errors()
def ablate(bundle_dir, split, k_list, combined, out_dir, **params) -> None:
    """Retrain with components disabled and print the comparison table."""
    flags = parse_without(params.get("without"))
    params = dict(params, without=None)  # flags drive variants, not the base config
    config = config_from_params(params)
    ks = parse_ks(k_list)
    artifacts = load_bundle(bundle_dir)
    out = _output_dir(out_dir) if out_dir else None  # before training, as in train
    reports = run_ablate(artifacts, config, flags, combined=combined, ks=ks,
                         split=Split(split))
    click.echo(comparison_table(reports, ks), nl=False)
    if out:
        for name, report in reports.items():
            _write_report(report, out / f"{name}.metrics.txt", out / f"{name}.metrics.json")


@main.command("retrieve")
@click.option("--bundle", "bundle_dir", required=True, type=click.Path())
@click.option("--conversation", "conversation_id", required=True)
@click.option("--n", type=int, default=1, show_default=True)
@command_errors()
def retrieve_command(bundle_dir, conversation_id, n) -> None:
    """Show the conversations most similar to one conversation."""
    artifacts = load_bundle(bundle_dir)
    if artifacts.index is None:
        raise MissingArtifactError("bundle has no retrieval index")
    corpus = artifacts.corpus
    if conversation_id not in corpus.conversation_ids:
        raise ValueError(f"unknown conversation {conversation_id!r}")
    c = corpus.conversation_ids.index(conversation_id)
    mentions = corpus.conversation_mentions
    query = mentions.rows[mentions.offsets[c]:mentions.offsets[c + 1]].tolist()
    result = retrieve(artifacts.index, query, n, exclude_id=conversation_id)
    for doc_id, score in result.ranked:
        click.echo(f"{doc_id}\t{score!r}")
    tokens = [artifacts.vocab.entities.tokens[e] for e in result.entities]
    click.echo("entities=" + ",".join(tokens))


@main.command()
@click.option("--bundle", "bundle_dir", required=True, type=click.Path())
@click.option("--checkpoint", "checkpoint_path", required=True, type=click.Path())
@click.option("--k", type=click.IntRange(min=1), default=10, show_default=True,
              help="items per answer; a k above the catalog size prints every item")
@command_errors()
@ad.no_grad()
def recommend(bundle_dir, checkpoint_path, k) -> None:
    """Read entity mentions from stdin; print top-k items after each line.

    Entity mentions accumulate across lines within the session. References are
    comma-separated; a part that is not itself an id or a name is split on
    whitespace so bare id lists work without commas. Each answer (k ranked
    lines, then a blank line) is written and flushed at once. The session
    is forward-only: nothing records a tape. It serves from the encoder
    outputs the checkpoint stores, so no encoder runs and no graph operator is
    built.
    """
    model = load_model(bundle_dir, checkpoint_path)
    entities = model.artifacts.vocab.entities
    item_ids = model.artifacts.item_ids
    item_matrix, word_matrix = model.scoring_outputs()
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
        contexts = model.contexts(Examples.query(context))
        users = model.users(contexts, item_matrix, word_matrix).vector
        probs = score_all(users, item_rows, contexts.masked).values[0]
        top = rank_order(probs, k)
        click.echo("".join(
            f"{rank}\t{entities.tokens[entity]}\t{entities.names[entity]}\t{p:.6f}\n"
            for rank, (entity, p) in enumerate(zip(item_ids[top].tolist(), probs[top].tolist()),
                                               start=1)))


if __name__ == "__main__":
    main()
