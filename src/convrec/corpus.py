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
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import MissingArtifactError, ParseError, ValidationError


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


def _tsv_rows(path: str | Path, n_fields: int, what: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of every non-blank line of a tab-separated file.

    A missing file raises MissingArtifactError naming ``what``; a line with
    another number of fields raises ParseError.
    """
    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(f"{what} not found: {path}")
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != n_fields:
                raise ParseError(f"expected {n_fields} tab-separated fields, got {len(parts)}",
                                 line=lineno)
            yield lineno, parts


def load_entity_vocab(path: str | Path) -> EntityVocab:
    """Parse an ``id<TAB>name<TAB>is_item(0|1)`` file."""
    vocab = EntityVocab()
    for lineno, (token, name, flag) in _tsv_rows(path, 3, "entity vocabulary"):
        if flag not in ("0", "1"):
            raise ParseError(f"is_item must be 0 or 1, got {flag!r}", line=lineno)
        vocab.add(token, name, flag == "1")
    return vocab


def load_keyword_lexicon(path: str | Path) -> dict[str, Sentiment]:
    """Parse a ``keyword<TAB>like|dislike`` file; keywords are single tokens."""
    lexicon: dict[str, Sentiment] = {}
    for lineno, (keyword, label) in _tsv_rows(path, 2, "keyword lexicon"):
        if label not in (Sentiment.LIKE.value, Sentiment.DISLIKE.value):
            raise ParseError(f"sentiment must be like or dislike, got {label!r}", line=lineno)
        keyword = keyword.lower()
        sentiment = Sentiment(label)
        if lexicon.get(keyword, sentiment) != sentiment:
            raise ValidationError(f"keyword {keyword!r} mapped to both sentiments")
        lexicon[keyword] = sentiment
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


def _expect_keys(obj: dict, keys: tuple[str, ...], what: str, lineno: int) -> None:
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ParseError(f"{what} missing field {missing[0]!r}", line=lineno)
    extra = [k for k in obj if k not in keys]
    if extra:
        raise ParseError(f"{what} has unknown field {extra[0]!r}", line=lineno)


def _parse_record(raw: str, lineno: int, entities: EntityVocab,
                  lexicon: Mapping[str, Sentiment] | None):
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=lineno) from None
    if not isinstance(obj, dict):
        raise ParseError("record is not a JSON object", line=lineno)
    _expect_keys(obj, ("conversation_id", "user_id", "split", "utterances"), "record", lineno)
    conv_id = obj["conversation_id"]
    user_id = obj["user_id"]
    if not isinstance(conv_id, str) or not isinstance(user_id, str):
        raise ParseError("conversation_id and user_id must be strings", line=lineno)
    try:
        split = Split(obj["split"])
    except ValueError:
        raise ParseError(f"unknown split {obj['split']!r}", line=lineno) from None
    utterances = obj["utterances"]
    if not isinstance(utterances, list) or not utterances:
        raise ParseError("utterances must be a non-empty array", line=lineno)

    parsed_utts = []
    for utt in utterances:
        if not isinstance(utt, dict):
            raise ParseError("utterance is not a JSON object", line=lineno)
        _expect_keys(utt, ("speaker", "text", "mentions"), "utterance", lineno)
        try:
            speaker = Speaker(utt["speaker"])
        except ValueError:
            raise ParseError(f"unknown speaker {utt['speaker']!r}", line=lineno) from None
        text = utt["text"]
        if not isinstance(text, str):
            raise ParseError("utterance text must be a string", line=lineno)
        mentions_raw = utt["mentions"]
        if not isinstance(mentions_raw, list):
            raise ParseError("mentions must be an array", line=lineno)
        tokens = tokenize(text)
        utterance_sentiment: Sentiment | None = None
        mentions: list[Mention] = []
        for m in mentions_raw:
            if not isinstance(m, dict):
                raise ParseError("mention is not a JSON object", line=lineno)
            _expect_keys(m, ("entity", "sentiment"), "mention", lineno)
            if not isinstance(m["entity"], str):
                raise ParseError("mention entity must be a string", line=lineno)
            entity_id = entities.resolve(m["entity"])
            label = m["sentiment"]
            if label is None:
                if lexicon is None:
                    raise ParseError(
                        "mention sentiment is null and no keyword lexicon was given", line=lineno
                    )
                if utterance_sentiment is None:
                    utterance_sentiment = _keyword_sentiment(tokens, lexicon)
                sentiment = utterance_sentiment
            else:
                try:
                    sentiment = Sentiment(label)
                except ValueError:
                    raise ParseError(f"unknown sentiment {label!r}", line=lineno) from None
            mentions.append(Mention(entity=entity_id, sentiment=sentiment))
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
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            record = _parse_record(raw, lineno, entities, lexicon)
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
    conversations: list[Conversation] = []
    for conv_id, user_id, split, parsed_utts in ordered:
        utts = []
        for speaker, text, mentions, tokens in parsed_utts:
            content = tuple(words.register(t) for t in tokens if t not in stopwords)
            utts.append(Utterance(speaker=speaker, text=text, mentions=mentions,
                                  content_words=content))
        conversations.append(Conversation(conversation_id=conv_id, user_id=user_id,
                                          split=split, utterances=tuple(utts)))
    return conversations


def save_corpus(conversations: Iterable[Conversation], entities: EntityVocab,
                path: str | Path) -> None:
    """Write conversations back to the corpus format, sorted by conversation_id.

    Sentiments are written explicitly, so a reload never needs the lexicon.
    """
    ordered = sorted(conversations, key=lambda c: c.conversation_id)
    with open(path, "w", encoding="utf-8") as fh:
        for conv in ordered:
            record = {
                "conversation_id": conv.conversation_id,
                "user_id": conv.user_id,
                "split": conv.split.value,
                "utterances": [
                    {
                        "speaker": u.speaker.value,
                        "text": u.text,
                        "mentions": [
                            {"entity": entities.tokens[m.entity], "sentiment": m.sentiment.value}
                            for m in u.mentions
                        ],
                    }
                    for u in conv.utterances
                ],
            }
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def save_entity_vocab(entities: EntityVocab, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
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
