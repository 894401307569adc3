"""Conversation corpus: data model, vocabularies, loading, example derivation.

A corpus file is newline-delimited JSON, one conversation per line:

    {"conversation_id": "...", "user_id": "...", "split": "train",
     "utterances": [{"speaker": "seeker", "text": "...",
                     "mentions": [{"entity": "E3", "sentiment": "like"}]}]}

Entities are referenced by the id token of the entity vocabulary file
(``id<TAB>name<TAB>is_item``); names are display-only. A mention's sentiment
may be null when a keyword lexicon is supplied, in which case the utterance
text decides it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Callable, Collection, Iterable, Mapping, Sequence

import numpy as np

from .errors import MissingArtifactError, ParseError, ValidationError
from .optim import atomic_write


class Speaker(str, Enum):
    SEEKER = "seeker"
    RECOMMENDER = "recommender"


class Sentiment(str, Enum):
    LIKE = "like"
    DISLIKE = "dislike"
    NEUTRAL = "neutral"


class Split(str, Enum):
    TRAIN = "train"
    VALID = "valid"
    TEST = "test"


@dataclass(frozen=True)
class Mention:
    entity: int
    sentiment: Sentiment


@dataclass(frozen=True)
class Utterance:
    speaker: Speaker
    text: str
    mentions: tuple[Mention, ...]
    content_words: tuple[int, ...]


@dataclass(frozen=True)
class Conversation:
    conversation_id: str
    user_id: str
    split: Split
    utterances: tuple[Utterance, ...]


@dataclass(frozen=True)
class RecExample:
    """One recommendation instance: a recommender turn introducing new items.

    ``context_entities`` holds every entity mentioned strictly before
    ``turn_index``, deduplicated in first-mention order. ``context_words``
    keeps the full word sequence of those turns, duplicates included.
    """

    conversation_id: str
    user_id: str
    split: Split
    turn_index: int
    context_entities: tuple[int, ...]
    context_words: tuple[int, ...]
    gold_items: frozenset[int]


class EntityVocab:
    """Entity id tokens and names with an is_item flag, densely indexed from 0."""

    def __init__(self) -> None:
        self.tokens: list[str] = []
        self.names: list[str] = []
        self.is_item: list[bool] = []
        self._by_token: dict[str, int] = {}
        self._by_name: dict[str, int] = {}
        self._ambiguous_names: set[str] = set()

    def add(self, token: str, name: str, is_item: bool) -> int:
        if token in self._by_token:
            raise ValidationError(f"duplicate entity id {token!r}")
        idx = len(self.tokens)
        self.tokens.append(token)
        self.names.append(name)
        self.is_item.append(is_item)
        self._by_token[token] = idx
        if name in self._by_name or name in self._ambiguous_names:
            self._by_name.pop(name, None)
            self._ambiguous_names.add(name)
        else:
            self._by_name[name] = idx
        return idx

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._by_token

    def resolve(self, ref: str) -> int:
        """Map an id token (or, failing that, a unique name) to the dense id."""
        if ref in self._by_token:
            return self._by_token[ref]
        if ref in self._by_name:
            return self._by_name[ref]
        if ref in self._ambiguous_names:
            raise ValidationError(f"entity name {ref!r} is ambiguous; use its id")
        raise ValidationError(f"unknown entity {ref!r}")

    def item_ids(self) -> list[int]:
        return [i for i, flag in enumerate(self.is_item) if flag]


class WordVocab:
    """Word surface forms densely indexed from 0, grown in registration order."""

    def __init__(self) -> None:
        self.words: list[str] = []
        self._index: dict[str, int] = {}

    def register(self, word: str) -> int:
        idx = self._index.get(word)
        if idx is None:
            idx = len(self.words)
            self.words.append(word)
            self._index[word] = idx
        return idx

    def resolve(self, word: str) -> int:
        idx = self._index.get(word)
        if idx is None:
            raise ValidationError(f"unknown word {word!r}")
        return idx

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self._index


@dataclass
class Vocab:
    entities: EntityVocab
    words: WordVocab


_TOKEN_RE = re.compile(r"[\w']+")


def tokenize(text: str) -> list[str]:
    """Lowercased whitespace/punctuation token split."""
    return _TOKEN_RE.findall(text.lower())


def default_stopwords() -> frozenset[str]:
    data = resources.files("convrec").joinpath("data/stopwords.txt").read_text("utf-8")
    return frozenset(w for w in (line.strip() for line in data.splitlines()) if w)


def load_stopwords(path: str | Path) -> frozenset[str]:
    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(f"stop-word file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        return frozenset(w for w in (line.strip() for line in fh) if w)


def _tsv_rows(path: str | Path, n_fields: int,
              what: str) -> tuple[list[int], list[list[str]], ParseError | None]:
    """(line numbers, columns, error) of the non-blank lines of a tab-separated file.

    The file is read whole in text mode, so "\r\n" and "\r" become "\n",
    and split on "\n" alone, as iterating over the file would; a blank
    line is one ``str.strip`` empties. ``columns[j][k]`` is field j of the
    k-th kept line, whose number is ``line numbers[k]``. A missing file
    raises MissingArtifactError naming ``what``. The first line with
    another number of fields ends the rows: its ParseError comes back as
    ``error``, for the caller to raise once the lines before it are
    checked, so a file's first bad line is the one reported.
    """
    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(f"{what} not found: {path}")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    linenos = [k for k, line in enumerate(lines, start=1) if line and not line.isspace()]
    kept = [lines[k - 1] for k in linenos]
    # no list per line: the whole file's fields come from one split
    tabs = [line.count("\t") for line in kept]
    error = None
    if tabs.count(n_fields - 1) != len(tabs):
        k = next(k for k, n in enumerate(tabs) if n != n_fields - 1)
        error = ParseError(f"expected {n_fields} tab-separated fields, got {tabs[k] + 1}",
                           line=linenos[k])
        del linenos[k:], kept[k:]
    joined = "\t".join(kept)
    del lines, kept  # free the lines before their fields are made
    fields = joined.split("\t") if linenos else []
    return linenos, [fields[j::n_fields] for j in range(n_fields)], error


def _lookup_rows(index: Mapping[str, int], resolve: Callable[[str], int],
                 columns: Sequence[Sequence[str]],
                 linenos: Sequence[int] | None = None) -> np.ndarray:
    """(rows, len(columns)) intp ids of the refs in ``columns``.

    Each ref costs one ``index`` lookup; ``resolve`` sees only a ref the
    index lacks (an entity name, say) and maps it or raises
    ValidationError. Refs are checked in line order, left to right, so the
    error is the first bad ref's; with ``linenos`` given it is prefixed
    with that ref's line.
    """
    width = len(columns)
    refs = [""] * (width * len(columns[0]))
    for j, column in enumerate(columns):
        refs[j::width] = column
    ids = [index.get(ref) for ref in refs]
    if None in ids:
        for k, ref in enumerate(refs):
            if ids[k] is None:
                try:
                    ids[k] = resolve(ref)
                except ValidationError as exc:
                    if linenos is None:
                        raise
                    raise ValidationError(f"line {linenos[k // width]}: {exc}") from None
    return np.asarray(ids, dtype=np.intp).reshape(-1, width)


def load_entity_vocab(path: str | Path) -> EntityVocab:
    """Parse an ``id<TAB>name<TAB>is_item(0|1)`` file."""
    vocab = EntityVocab()
    linenos, (tokens, names, flags), error = _tsv_rows(path, 3, "entity vocabulary")
    for lineno, token, name, flag in zip(linenos, tokens, names, flags):
        if flag not in ("0", "1"):
            raise ParseError(f"is_item must be 0 or 1, got {flag!r}", line=lineno)
        vocab.add(token, name, flag == "1")
    if error:
        raise error
    return vocab


def load_keyword_lexicon(path: str | Path) -> dict[str, Sentiment]:
    """Parse a ``keyword<TAB>like|dislike`` file; keywords are single tokens."""
    lexicon: dict[str, Sentiment] = {}
    linenos, (keywords, labels), error = _tsv_rows(path, 2, "keyword lexicon")
    for lineno, keyword, label in zip(linenos, keywords, labels):
        if label not in (Sentiment.LIKE.value, Sentiment.DISLIKE.value):
            raise ParseError(f"sentiment must be like or dislike, got {label!r}", line=lineno)
        keyword = keyword.lower()
        sentiment = Sentiment(label)
        if lexicon.get(keyword, sentiment) != sentiment:
            raise ValidationError(f"keyword {keyword!r} mapped to both sentiments")
        lexicon[keyword] = sentiment
    if error:
        raise error
    return lexicon


def _keyword_sentiment(tokens: Sequence[str], lexicon: Mapping[str, Sentiment]) -> Sentiment:
    # Majority vote over keyword hits; ties and no-hits stay neutral.
    likes = sum(1 for t in tokens if lexicon.get(t) == Sentiment.LIKE)
    dislikes = sum(1 for t in tokens if lexicon.get(t) == Sentiment.DISLIKE)
    if likes > dislikes:
        return Sentiment.LIKE
    if dislikes > likes:
        return Sentiment.DISLIKE
    return Sentiment.NEUTRAL


def _expect_keys(obj: dict, keys: Collection[str], what: str, lineno: int) -> None:
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ParseError(f"{what} missing field {missing[0]!r}", line=lineno)
    extra = [k for k in obj if k not in keys]
    if extra:
        raise ParseError(f"{what} has unknown field {extra[0]!r}", line=lineno)


# each object's keys, in the order _expect_keys names a missing one
_RECORD_KEYS = dict.fromkeys(("conversation_id", "user_id", "split", "utterances")).keys()
_UTTERANCE_KEYS = dict.fromkeys(("speaker", "text", "mentions")).keys()
_MENTION_KEYS = dict.fromkeys(("entity", "sentiment")).keys()
# value -> member; a lookup of an unhashable JSON value raises TypeError, not KeyError
_SPLITS = {s.value: s for s in Split}
_SPEAKERS = {s.value: s for s in Speaker}
_SENTIMENTS = {s.value: s for s in Sentiment}


def _parse_record(raw: str, lineno: int, entities: EntityVocab,
                  lexicon: Mapping[str, Sentiment] | None,
                  interned: dict[tuple[str, str], Mention]):
    """(conversation_id, user_id, split, [(speaker, text, mentions, tokens)]) of one line.

    Each check is one C-level operation on the well-formed path: a key-set
    comparison (``_expect_keys`` runs only on a mismatch, to name the field),
    a dict lookup for each enum value, ``interned`` for a mention already
    seen as (entity ref, sentiment) in this load. Mentions are frozen, so
    sharing them is safe; one whose null sentiment the lexicon decides is
    built afresh.
    """
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=lineno) from None
    if not isinstance(obj, dict):
        raise ParseError("record is not a JSON object", line=lineno)
    if obj.keys() != _RECORD_KEYS:
        _expect_keys(obj, _RECORD_KEYS, "record", lineno)
    conv_id = obj["conversation_id"]
    user_id = obj["user_id"]
    if not isinstance(conv_id, str) or not isinstance(user_id, str):
        raise ParseError("conversation_id and user_id must be strings", line=lineno)
    try:
        split = _SPLITS[obj["split"]]
    except (KeyError, TypeError):
        raise ParseError(f"unknown split {obj['split']!r}", line=lineno) from None
    utterances = obj["utterances"]
    if not isinstance(utterances, list) or not utterances:
        raise ParseError("utterances must be a non-empty array", line=lineno)

    findall = _TOKEN_RE.findall
    parsed_utts = []
    for utt in utterances:
        if not isinstance(utt, dict):
            raise ParseError("utterance is not a JSON object", line=lineno)
        if utt.keys() != _UTTERANCE_KEYS:
            _expect_keys(utt, _UTTERANCE_KEYS, "utterance", lineno)
        try:
            speaker = _SPEAKERS[utt["speaker"]]
        except (KeyError, TypeError):
            raise ParseError(f"unknown speaker {utt['speaker']!r}", line=lineno) from None
        text = utt["text"]
        if not isinstance(text, str):
            raise ParseError("utterance text must be a string", line=lineno)
        mentions_raw = utt["mentions"]
        if not isinstance(mentions_raw, list):
            raise ParseError("mentions must be an array", line=lineno)
        tokens = findall(text.lower())
        utterance_sentiment: Sentiment | None = None
        mentions: list[Mention] = []
        for m in mentions_raw:
            if not isinstance(m, dict):
                raise ParseError("mention is not a JSON object", line=lineno)
            if m.keys() != _MENTION_KEYS:
                _expect_keys(m, _MENTION_KEYS, "mention", lineno)
            ref = m["entity"]
            if not isinstance(ref, str):
                raise ParseError("mention entity must be a string", line=lineno)
            label = m["sentiment"]
            try:
                mention = interned.get((ref, label))
            except TypeError:  # an array or object label: unknown below
                mention = None
            if mention is None:
                entity_id = entities.resolve(ref)
                if label is None:
                    if lexicon is None:
                        raise ParseError(
                            "mention sentiment is null and no keyword lexicon was given",
                            line=lineno,
                        )
                    if utterance_sentiment is None:
                        utterance_sentiment = _keyword_sentiment(tokens, lexicon)
                    mention = Mention(entity=entity_id, sentiment=utterance_sentiment)
                else:
                    try:
                        sentiment = _SENTIMENTS[label]
                    except (KeyError, TypeError):
                        raise ParseError(f"unknown sentiment {label!r}", line=lineno) from None
                    mention = interned[ref, label] = Mention(entity=entity_id,
                                                             sentiment=sentiment)
            mentions.append(mention)
        parsed_utts.append((speaker, text, tuple(mentions), tokens))
    return conv_id, user_id, split, parsed_utts


def load_corpus(
    path: str | Path,
    entities: EntityVocab,
    *,
    stopwords: frozenset[str] | None = None,
    lexicon: Mapping[str, Sentiment] | None = None,
    words: WordVocab | None = None,
) -> tuple[list[Conversation], Vocab]:
    """Load and validate a corpus file against an entity vocabulary.

    The file is read line by line in text mode; one parse pass per line
    checks every key set, type and enum value of the record and builds it,
    and the first failure raises ParseError (or ValidationError for an
    unknown entity or a repeated conversation_id) naming its line. Equal
    mentions within one load share one Mention object.

    Conversations come back sorted by conversation_id, and word ids are
    assigned in that order, so identical inputs always produce identical
    vocabularies. A fresh WordVocab is grown unless one is passed in.
    """
    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(f"corpus not found: {path}")
    if stopwords is None:
        stopwords = default_stopwords()
    if words is None:
        words = WordVocab()

    records = []
    seen_ids: set[str] = set()
    interned: dict[tuple[str, str], Mention] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            record = _parse_record(raw, lineno, entities, lexicon, interned)
            if record[0] in seen_ids:
                raise ValidationError(f"duplicate conversation_id {record[0]!r}")
            seen_ids.add(record[0])
            records.append(record)

    conversations = build_conversations(records, stopwords, words)
    return conversations, Vocab(entities=entities, words=words)


def build_conversations(
    records: Sequence[tuple[str, str, Split, Sequence[tuple[Speaker, str, tuple[Mention, ...], Sequence[str]]]]],
    stopwords: frozenset[str],
    words: WordVocab,
) -> list[Conversation]:
    """Assemble Conversation objects from parsed records, registering words.

    Records are processed in conversation_id order regardless of input order,
    which pins word ids for a given corpus.
    """
    ordered = sorted(records, key=lambda r: r[0])
    word_id = words._index.get
    register = words.register
    conversations: list[Conversation] = []
    for conv_id, user_id, split, parsed_utts in ordered:
        utts = []
        for speaker, text, mentions, tokens in parsed_utts:
            content = tuple([i if (i := word_id(t)) is not None else register(t)
                             for t in tokens if t not in stopwords])
            utts.append(Utterance(speaker=speaker, text=text, mentions=mentions,
                                  content_words=content))
        conversations.append(Conversation(conversation_id=conv_id, user_id=user_id,
                                          split=split, utterances=tuple(utts)))
    return conversations


# the bytes of json.dumps(record, ensure_ascii=False), from one encoder; a record
# is a fresh tree of str, list and dict, so it cannot hold a cycle
_ENCODE = json.JSONEncoder(ensure_ascii=False, check_circular=False).encode


def save_corpus(conversations: Iterable[Conversation], entities: EntityVocab,
                path: str | Path) -> None:
    """Write conversations back to the corpus format, sorted by conversation_id.

    Each line is the record's ``json.dumps(record, ensure_ascii=False)``,
    keys in the order :func:`load_corpus` documents. Sentiments are written
    explicitly, so a reload never needs the lexicon.
    """
    ordered = sorted(conversations, key=lambda c: c.conversation_id)
    tokens = entities.tokens
    with atomic_write(path, text=True) as fh:
        for conv in ordered:
            # an enum's ``_value_`` is the plain attribute behind its ``value`` property
            record = {
                "conversation_id": conv.conversation_id,
                "user_id": conv.user_id,
                "split": conv.split._value_,
                "utterances": [
                    {
                        "speaker": u.speaker._value_,
                        "text": u.text,
                        "mentions": [
                            {"entity": tokens[m.entity], "sentiment": m.sentiment._value_}
                            for m in u.mentions
                        ],
                    }
                    for u in conv.utterances
                ],
            }
            fh.write(_ENCODE(record) + "\n")


def save_entity_vocab(entities: EntityVocab, path: str | Path) -> None:
    with atomic_write(path, text=True) as fh:
        for token, name, flag in zip(entities.tokens, entities.names, entities.is_item):
            fh.write(f"{token}\t{name}\t{1 if flag else 0}\n")


def derive_examples(conversations: Iterable[Conversation],
                    entities: EntityVocab) -> list[RecExample]:
    """One RecExample per recommender turn that introduces at least one new item."""
    examples: list[RecExample] = []
    for conv in conversations:
        seen: set[int] = set()
        context_entities: list[int] = []
        context_words: list[int] = []
        for turn_index, utt in enumerate(conv.utterances):
            if utt.speaker == Speaker.RECOMMENDER:
                gold: list[int] = []
                for m in utt.mentions:
                    if entities.is_item[m.entity] and m.entity not in seen and m.entity not in gold:
                        gold.append(m.entity)
                if gold:
                    examples.append(RecExample(
                        conversation_id=conv.conversation_id,
                        user_id=conv.user_id,
                        split=conv.split,
                        turn_index=turn_index,
                        context_entities=tuple(context_entities),
                        context_words=tuple(context_words),
                        gold_items=frozenset(gold),
                    ))
            for m in utt.mentions:
                if m.entity not in seen:
                    seen.add(m.entity)
                    context_entities.append(m.entity)
            context_words.extend(utt.content_words)
    return examples


def split_view(examples: Iterable[RecExample], split: Split | str) -> list[RecExample]:
    try:
        split = Split(split)
    except ValueError:
        raise ValueError(f"unknown split {split!r}") from None
    return [ex for ex in examples if ex.split == split]


def corpus_stats(conversations: Sequence[Conversation], entities: EntityVocab) -> dict[str, int]:
    """Headline corpus counts: users, conversations, utterances, distinct items mentioned."""
    users = {c.user_id for c in conversations}
    utterances = sum(len(c.utterances) for c in conversations)
    items = {
        m.entity
        for c in conversations
        for u in c.utterances
        for m in u.mentions
        if entities.is_item[m.entity]
    }
    return {
        "users": len(users),
        "conversations": len(conversations),
        "utterances": utterances,
        "items": len(items),
    }
