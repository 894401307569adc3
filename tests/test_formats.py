"""Raw files through `convrec ingest` and `load_bundle`, against the line-by-line
references in ``oracles``.

The loaders check a file a column or a record at a time, and the bundle
carries what they parsed as arrays; the references check the raw file one
line and one field at a time. On any input the loaded bundle must equal the
references' parse, or ingest must raise the same ConvRecError with the same
message and line number. Nothing else may escape.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from convrec import cli
from convrec.corpus import EntityVocab, Sentiment, WordVocab, default_stopwords
from convrec.errors import ConvRecError
from convrec.synthetic import popularity_corpus, write_inputs

from oracles import (
    corpus_records,
    interaction_graph_reference,
    load_corpus_reference,
    load_entity_vocab_reference,
    load_item_kg_reference,
    load_word_graph_reference,
)

LEXICON = {"enjoy": Sentiment.LIKE, "enjoyed": Sentiment.LIKE, "praising": Sentiment.LIKE,
           "mood": Sentiment.DISLIKE, "solid": Sentiment.DISLIKE}


def outcome(view, load, *args, **kwargs):
    """("ok", view(result)) or ("error", type, message, line); any other exception propagates."""
    try:
        return ("ok", view(load(*args, **kwargs)))
    except ConvRecError as exc:
        return ("error", type(exc), str(exc), getattr(exc, "line", None))


def corpus_view(artifacts):
    return corpus_records(artifacts.corpus), artifacts.vocab.words.words


def kg_view(graph):
    return graph.n_nodes, graph.relations, graph.edges.tolist()


def interaction_view(graph):
    """The graph as ``oracles.interaction_graph_reference`` states it."""
    assert graph.items.dtype == np.intp
    return graph.users, graph.items.tolist(), graph.n_nodes, graph.edges.tolist()


def word_graph_view(graph):
    return graph.pairs.tolist(), graph.word_ids


def vocab_view(vocab):
    return vocab.tokens, vocab.names, vocab.is_item


def ingest_and_load(root, *, corpus=None, entities=None, kg=None, word_graph=None,
                    lexicon=None, stopwords=frozenset()):
    """Raw files -> `convrec ingest` -> `load_bundle`: the loaded artifacts, or the
    ConvRecError ingest raises. A file not given is written: an empty corpus or
    KG, the ENTITY_ROWS vocabulary; so are ``lexicon`` and ``stopwords``."""
    raw = root / "raw"
    raw.mkdir(exist_ok=True)

    def written(name, lines):
        (raw / name).write_text("".join(line + "\n" for line in lines), "utf-8")
        return raw / name

    ingest = cli.ingest.callback.__wrapped__  # the command, its errors not mapped to exits
    ingest(corpus or written("corpus.jsonl", []),
           entities or written("entities.tsv", (f"{t}\t{n}\t{int(f)}" for t, n, f in ENTITY_ROWS)),
           kg or written("kg.tsv", []), word_graph,
           lexicon and written("lexicon.tsv", (f"{w}\t{s.value}" for w, s in lexicon.items())),
           written("stopwords.txt", sorted(stopwords)), root / "bundle")
    return cli.load_bundle(root / "bundle")


# ---------------------------------------------------------------------------
# exact oracles on generated corpora


def null_some_sentiments(path):
    """Rewrite a corpus with every other mention's sentiment null and some refs as names."""
    lines = path.read_text("utf-8").splitlines()
    k = 0
    out = []
    for line in lines:
        record = json.loads(line)
        for utt in record["utterances"]:
            for m in utt["mentions"]:
                if k % 2 == 0:
                    m["sentiment"] = None
                if k % 7 == 3 and m["entity"].startswith("I"):
                    m["entity"] = f"film {m['entity'][1:]}"  # a unique entity name
                k += 1
        out.append(json.dumps(record, ensure_ascii=False))
    path.write_text("\n".join(out) + "\n", "utf-8")


@pytest.mark.parametrize("seed", [0, 3, 17])
@pytest.mark.parametrize("with_lexicon", [False, True], ids=["explicit", "lexicon"])
def test_loaders_equal_the_line_by_line_references(tmp_path, seed, with_lexicon):
    data = popularity_corpus(seed, n_users=30, n_items=40, n_conversations=200)
    paths = write_inputs(data, tmp_path)
    lexicon = None
    if with_lexicon:
        null_some_sentiments(paths["corpus"])
        lexicon = LEXICON
    stopwords = default_stopwords()
    loaded = ingest_and_load(tmp_path, corpus=paths["corpus"], entities=paths["entities"],
                             kg=paths["kg"], word_graph=paths["word_graph"], lexicon=lexicon,
                             stopwords=stopwords)
    entities = load_entity_vocab_reference(paths["entities"])
    assert vocab_view(loaded.vocab.entities) == vocab_view(entities)

    want, want_words = load_corpus_reference(paths["corpus"], entities, stopwords=stopwords,
                                             lexicon=lexicon)
    conversations = corpus_records(loaded.corpus)
    assert conversations == want
    assert loaded.vocab.words.words == want_words
    if with_lexicon:
        sentiments = {m.sentiment for c in conversations for u in c.utterances
                      for m in u.mentions}
        assert sentiments == set(Sentiment)

    assert kg_view(loaded.kg) == kg_view(load_item_kg_reference(paths["kg"], entities))
    assert word_graph_view(loaded.word_graph) == word_graph_view(
        load_word_graph_reference(paths["word_graph"], loaded.vocab.words))
    assert interaction_view(loaded.interaction) == interaction_graph_reference(want, entities)


# ---------------------------------------------------------------------------
# mutated inputs: robustness against the references

ENTITY_ROWS = [("I0", "alpha", True), ("I1", "beta", True), ("A0", "beta", False),
               ("A1", "space", False)]
ODD = [[], {}, True, 1, None, "", "bogus"]
TERMINATORS = ["\n", "\r\n", "\r"]
# inserted into a line: the first six are line breaks to str.splitlines and whitespace
# to str.strip, but end no line of a file read in text mode, as "\r" does
ODD_CHARS = ["\x0c", "\u2028", "\x0b", "\x1c", "\x85", "\u2029", " ", "\t", "\r", "\u00e9"]


def entities_fixture():
    vocab = EntityVocab()
    for token, name, flag in ENTITY_ROWS:
        vocab.add(token, name, flag)
    return vocab


@st.composite
def json_object(draw, fields):
    """A dict of ``fields`` (name -> strategy), keys in either order."""
    obj = {name: draw(strategy) for name, strategy in fields.items()}
    if draw(st.booleans()):  # key order must not matter
        obj = dict(reversed(list(obj.items())))
    return obj


mention = json_object({
    "entity": st.sampled_from(["I0", "I1", "A0", "A1", "alpha", "space"]),
    "sentiment": st.sampled_from(["like", "dislike", "neutral", "like", None]),
})
utterance = json_object({
    "speaker": st.sampled_from(["seeker", "recommender"]),
    "text": st.sampled_from(["i love it", "i hate this", "love\u2028and hate", "meh \x0c ok", ""]),
    "mentions": st.lists(mention, max_size=3),
})
record = json_object({
    "conversation_id": st.sampled_from(["c0", "c1", "c2", "c3", "c4", "c5"]),
    "user_id": st.sampled_from(["u0", "u1"]),
    "split": st.sampled_from(["train", "valid", "test"]),
    "utterances": st.lists(utterance, min_size=1, max_size=3),
})


@st.composite
def mutated_records(draw):
    """Valid records, then up to two mutations, each on a record, utterance or mention:
    an odd value for one field, one key dropped, or an unknown key added."""
    records = draw(st.lists(record, min_size=1, max_size=4))
    objects = records + [u for r in records for u in r["utterances"]]
    objects += [m for r in records for u in r["utterances"] for m in u["mentions"]]
    for _ in range(draw(st.integers(0, 2))):
        obj = draw(st.sampled_from(objects))
        action = draw(st.sampled_from(["value", "value", "drop", "add"]))
        if action == "add":
            obj["bogus"] = 1
        elif obj:
            key = draw(st.sampled_from(sorted(obj)))
            if action == "drop":
                del obj[key]
            else:
                obj[key] = draw(st.sampled_from(ODD + ["beta", "I9", "narrator", "later"]))
    return records


@st.composite
def file_text(draw, lines):
    """``lines`` joined by one terminator style, maybe with blank lines, one odd character
    inserted, and no terminator after the last line."""
    lines = list(lines)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(["", "  ", "\x0c", "\u2028", "\x85"])))
    if lines and draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(0, len(lines) - 1))
        at = draw(st.integers(0, len(lines[k])))
        lines[k] = lines[k][:at] + draw(st.sampled_from(ODD_CHARS)) + lines[k][at:]
    end = draw(st.sampled_from(TERMINATORS))
    text = end.join(lines)
    if lines and draw(st.booleans()):
        text += end
    return text


@st.composite
def corpus_text(draw):
    records = draw(mutated_records())
    return draw(file_text([json.dumps(r, ensure_ascii=False) for r in records]))


@st.composite
def tsv_text(draw, columns):
    """Rows of fields drawn from ``columns``, now and then one field short or long."""
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        fields = [draw(st.sampled_from(values)) for values in columns]
        change = draw(st.sampled_from([0] * 10 + [-1, 1]))
        if change < 0:
            fields.pop()
        elif change > 0:
            fields.append(draw(st.sampled_from(columns[-1])))
        rows.append("\t".join(fields))
    return draw(file_text(rows))


VALID_RECORD = {"conversation_id": "c0", "user_id": "u0", "split": "train", "utterances": [
    {"speaker": "seeker", "text": "i love it", "mentions": [{"entity": "I0", "sentiment": "like"}]},
]}
FIELDS = {
    "conversation_id": lambda r: r, "user_id": lambda r: r, "split": lambda r: r,
    "speaker": lambda r: r["utterances"][0], "text": lambda r: r["utterances"][0],
    "mentions": lambda r: r["utterances"][0],
    "entity": lambda r: r["utterances"][0]["mentions"][0],
    "sentiment": lambda r: r["utterances"][0]["mentions"][0],
}


@pytest.mark.parametrize("value", [[], {}, True, 1], ids=["array", "object", "true", "one"])
@pytest.mark.parametrize("field", list(FIELDS))
def test_odd_json_values_fail_as_the_reference_does(tmp_path, field, value):
    rec = json.loads(json.dumps(VALID_RECORD))
    FIELDS[field](rec)[field] = value
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(rec) + "\n", "utf-8")
    got = outcome(corpus_view, ingest_and_load, tmp_path, corpus=path)
    want = outcome(tuple, load_corpus_reference, path, entities_fixture(), stopwords=frozenset())
    assert got == want
    if (field, value) != ("mentions", []):  # no mentions is a valid utterance
        assert got[0] == "error" and got[3] == 1


REFS = ["I0", "I1", "A0", "A1", "I0", "I1", "alpha", "space", "beta", "I9", "I0\x0c",
        "\u2028I1", "", " I0"]
ROBUST = settings(max_examples=300, deadline=None, derandomize=True,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])


@ROBUST
@given(text=corpus_text(), with_lexicon=st.booleans())
def test_corpus_loader_matches_reference_on_mutated_records(tmp_path, text, with_lexicon):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(text.encode("utf-8"))
    lexicon = {"love": Sentiment.LIKE, "hate": Sentiment.DISLIKE} if with_lexicon else None
    stopwords = frozenset({"i", "it"})
    got = outcome(corpus_view, ingest_and_load, tmp_path, corpus=path, lexicon=lexicon,
                  stopwords=stopwords)
    want = outcome(tuple, load_corpus_reference, path, entities_fixture(), stopwords=stopwords,
                   lexicon=lexicon)
    assert got == want


@ROBUST
@given(text=tsv_text([["I0", "I1", "A0", "I0", "X\x0c", "\u2028"],
                      ["alpha", "beta", "beta", "x\x1cy", ""],
                      ["0", "1", "1", "0", "2", ""]]))
def test_entity_vocab_loader_matches_reference(tmp_path, text):
    path = tmp_path / "entities.tsv"
    path.write_bytes(text.encode("utf-8"))
    got = outcome(lambda loaded: vocab_view(loaded.vocab.entities), ingest_and_load, tmp_path,
                  entities=path)
    want = outcome(vocab_view, load_entity_vocab_reference, path)
    assert got == want


@ROBUST
@given(text=tsv_text([REFS, ["genre", "actor", "genre", "", "g\x0bx"], REFS]))
def test_item_kg_loader_matches_reference(tmp_path, text):
    path = tmp_path / "kg.tsv"
    path.write_bytes(text.encode("utf-8"))
    got = outcome(lambda loaded: kg_view(loaded.kg), ingest_and_load, tmp_path, kg=path)
    want = outcome(kg_view, load_item_kg_reference, path, entities_fixture())
    assert got == want


@ROBUST
@given(text=corpus_text())
def test_interaction_graph_loader_matches_reference(tmp_path, text):
    # a bundle stores no interaction graph: load_bundle builds it from the bundle's corpus
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(text.encode("utf-8"))
    entities = entities_fixture()

    def reference(path):
        conversations, _ = load_corpus_reference(path, entities, stopwords=frozenset())
        return interaction_graph_reference(conversations, entities)

    got = outcome(lambda loaded: interaction_view(loaded.interaction), ingest_and_load,
                  tmp_path, corpus=path)
    want = outcome(lambda expected: expected, reference, path)
    assert got == want


@ROBUST
@given(text=tsv_text([["space", "films", "films", "nope", "sp\u2028ace"],
                      ["space", "films", "love", "", "films\x85"]]))
def test_word_graph_loader_matches_reference(tmp_path, text):
    path = tmp_path / "word_graph.tsv"
    path.write_bytes(text.encode("utf-8"))
    words = WordVocab()
    for word in ("space", "films", "love"):
        words.register(word)
    corpus = tmp_path / "corpus.jsonl"  # one utterance whose content words are those three
    corpus.write_text(json.dumps({**VALID_RECORD, "utterances": [
        {"speaker": "seeker", "text": "space films love", "mentions": []}]}) + "\n", "utf-8")
    got = outcome(lambda loaded: word_graph_view(loaded.word_graph), ingest_and_load, tmp_path,
                  corpus=corpus, word_graph=path)
    want = outcome(word_graph_view, load_word_graph_reference, path, words)
    assert got == want


# ---------------------------------------------------------------------------
# bundle bytes

# sha256 of every file `convrec ingest` writes for pinned_inputs(); a change to a
# writer, or a loader that reads the inputs differently, shows up here
BUNDLE_SHA256 = {
    "arrays.bin": "be291792b1d313f86845c2fdfcba332c1f4ca591a273c8368a2568ed56bff78d",
    "manifest.json": "e9119bb64c98d35771e122b2fe3708aeaf54764fbcdf5407861f613033d82dca",
}


def pinned_inputs(directory):
    """A fixed raw corpus: explicit and null sentiments (decided by a lexicon), entity
    names as refs, non-ASCII text, a KG with CRLF line ends and a blank line."""
    paths = write_inputs(popularity_corpus(11, n_users=15, n_items=20, n_conversations=150),
                         directory)
    null_some_sentiments(paths["corpus"])
    lines = paths["corpus"].read_text("utf-8").splitlines()
    for k in range(0, len(lines), 5):
        record = json.loads(lines[k])
        record["utterances"][0]["text"] += " déjà vu ★"
        lines[k] = json.dumps(record, ensure_ascii=False)
    paths["corpus"].write_text("\n".join(lines) + "\n", "utf-8")
    kg = paths["kg"].read_text("utf-8").splitlines()
    paths["kg"].write_bytes(("\r\n".join(kg[:3] + [""] + kg[3:]) + "\r\n").encode("utf-8"))
    paths["lexicon"] = directory / "lexicon.tsv"
    paths["lexicon"].write_text("".join(f"{w}\t{s.value}\n" for w, s in LEXICON.items()),
                                "utf-8")
    return paths


def test_ingest_writes_the_pinned_bundle_bytes(tmp_path):
    import hashlib

    from click.testing import CliRunner

    from convrec import cli

    paths = pinned_inputs(tmp_path / "raw")
    bundle = tmp_path / "bundle"
    result = CliRunner().invoke(cli.main, [
        "ingest", "--corpus", str(paths["corpus"]), "--entities", str(paths["entities"]),
        "--kg", str(paths["kg"]), "--word-graph", str(paths["word_graph"]),
        "--lexicon", str(paths["lexicon"]), "--out", str(bundle)], catch_exceptions=False)
    assert result.exit_code == 0, result.output
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(bundle.iterdir())}
    assert digests == BUNDLE_SHA256
