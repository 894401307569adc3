"""Conversation corpus: columnar records, vocabularies, loading, example derivation.

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
from itertools import accumulate, chain
from operator import itemgetter
from pathlib import Path
from typing import Callable, Collection, Mapping, Sequence

import numpy as np

from .autodiff import Segments
from .errors import ParseError, ValidationError
from .optim import atomic_write, open_input


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


# a code array holds each member's position in its enum
SPEAKERS, SENTIMENTS, SPLITS = tuple(Speaker), tuple(Sentiment), tuple(Split)


@dataclass(frozen=True, eq=False)
class Corpus:
    """Conversations as flat arrays, in the layout of Apache Arrow's nested lists.

    Group c of ``utterances`` holds conversation c's utterances, numbered 0,
    1, ... across the corpus, so each conversation's are consecutive. Group u
    of ``mentions`` holds utterance u's entity ids, ``sentiments`` aligned with
    its rows, and group u of ``words`` its content word ids. Codes index
    SPLITS, SPEAKERS and SENTIMENTS. A loaded corpus is sorted by
    conversation_id.
    """

    conversation_ids: list[str]
    user_ids: list[str]
    splits: np.ndarray       # (C,) int8
    utterances: Segments     # C groups of utterance indices
    speakers: np.ndarray     # (U,) int8
    texts: list[str]         # (U,)
    mentions: Segments       # U groups of entity ids
    sentiments: np.ndarray   # (M,) int8, aligned with mentions.rows
    words: Segments          # U groups of word ids

    def __len__(self) -> int:
        return len(self.conversation_ids)

    @property
    def conversation_mentions(self) -> Segments:
        """C groups: every entity id a conversation mentions, in order, repeats kept."""
        return self.mentions.regroup(self.utterances.offsets)


@dataclass(frozen=True, eq=False)
class Examples:
    """N recommendation instances as flat arrays: recommender turns that
    introduce a new item, or queries such as a recommend turn.

    Example n is turn ``turns[n]`` of corpus conversation ``conversations[n]``
    (-1: none). Its ``entities`` are those mentioned before that turn, once
    each, in first-mention order; its ``words`` the content words of those
    turns, repeats kept; its ``gold`` the items the turn introduces, ascending.
    """

    conversations: np.ndarray  # (N,) intp
    turns: np.ndarray          # (N,) intp
    splits: np.ndarray         # (N,) int8
    entities: Segments
    words: Segments
    gold: Segments

    def __len__(self) -> int:
        return len(self.conversations)

    @classmethod
    def query(cls, entities: Sequence[int]) -> Examples:
        """One example of no conversation whose context is ``entities``: a recommend turn."""
        return cls(*_QUERY[:3], Segments.of([entities]), *_QUERY[3:])

    def take(self, idx: Sequence[int] | np.ndarray) -> Examples:
        """Examples ``idx`` in that order (repeats allowed), every field gathered at once."""
        idx = np.asarray(idx, dtype=np.intp)
        entities = self.entities.take(idx)  # refuses ids outside [0, N) with ShapeError
        return Examples(self.conversations[idx], self.turns[idx], self.splits[idx],
                        entities, self.words.take(idx), self.gold.take(idx))


# every field of a one-example query but its entities; no record writes its arrays
_QUERY = (np.full(1, -1, np.intp), np.zeros(1, np.intp),
          np.full(1, SPLITS.index(Split.TEST), np.int8), Segments.none(1), Segments.none(1))


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
    with open_input(path, "stop-word file", text=True) as fh:
        return frozenset(w for w in (line.strip() for line in fh) if w)


def _tsv_rows(path: str | Path, n_fields: int,
              what: str) -> tuple[list[int], list[list[str]], ParseError | None]:
    """(line numbers, columns, error) of the non-blank lines of a tab-separated file.

    The file is read whole in text mode, so "\r\n" and "\r" become "\n",
    and split on "\n" alone, as iterating over the file would; a blank
    line is one ``str.strip`` empties. ``columns[j][k]`` is field j of the
    k-th kept line, whose number is ``line numbers[k]``. The file opens with
    :func:`open_input`, whose errors name ``what``. The first line with
    another number of fields ends the rows: its ParseError comes back as
    ``error``, for the caller to raise once the lines before it are
    checked, so a file's first bad line is the one reported.
    """
    with open_input(path, what, text=True) as fh:
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
# value -> code; a lookup of an unhashable JSON value raises TypeError, not KeyError
_SPLIT_CODES = {s.value: i for i, s in enumerate(SPLITS)}
_SPEAKER_CODES = {s.value: i for i, s in enumerate(SPEAKERS)}
_SENTIMENT_CODES = {s.value: i for i, s in enumerate(SENTIMENTS)}


def _build_corpus(records: list, stopwords: frozenset[str], words: WordVocab) -> Corpus:
    """The corpus of ``records`` in conversation_id order, registering content
    words in that order. A record is (conversation_id, user_id, split code,
    [(speaker code, text, tokens, entity ids, sentiment codes)]), as
    ``_parse_record`` returns it; ``records`` is sorted in place."""
    records.sort(key=itemgetter(0))
    utts = [u for r in records for u in r[3]]
    kept = [[t for t in u[2] if t not in stopwords] for u in utts]
    flat = list(chain.from_iterable(kept))
    for word in dict.fromkeys(flat):  # first uses, in order
        words.register(word)
    mentions = _offsets([len(u[3]) for u in utts])
    return Corpus(
        [r[0] for r in records], [r[1] for r in records],
        np.array([r[2] for r in records], np.int8),
        Segments(np.arange(len(utts)), _offsets([len(r[3]) for r in records])),
        np.array([u[0] for u in utts], np.int8), [u[1] for u in utts],
        Segments(np.fromiter(chain.from_iterable(u[3] for u in utts), np.intp, mentions[-1]),
                 mentions),
        np.fromiter(chain.from_iterable(u[4] for u in utts), np.int8, mentions[-1]),
        Segments(np.fromiter(map(words._index.__getitem__, flat), np.intp, len(flat)),
                 _offsets(list(map(len, kept)))))


def _offsets(counts: Sequence[int]) -> np.ndarray:
    return np.fromiter(accumulate(counts, initial=0), np.intp, len(counts) + 1)


def _parse_record(raw: str, lineno: int, entities: EntityVocab,
                  lexicon: Mapping[str, Sentiment] | None):
    """The record :func:`_build_corpus` takes, of one line.

    Each check is one C-level operation on the well-formed path: a key-set
    comparison (``_expect_keys`` runs only on a mismatch, to name the field),
    a dict lookup for each enum value and for an entity id token.
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
        split = _SPLIT_CODES[obj["split"]]
    except (KeyError, TypeError):
        raise ParseError(f"unknown split {obj['split']!r}", line=lineno) from None
    utterances = obj["utterances"]
    if not isinstance(utterances, list) or not utterances:
        raise ParseError("utterances must be a non-empty array", line=lineno)

    findall = _TOKEN_RE.findall
    by_token = entities._by_token
    parsed = []
    for utt in utterances:
        if not isinstance(utt, dict):
            raise ParseError("utterance is not a JSON object", line=lineno)
        if utt.keys() != _UTTERANCE_KEYS:
            _expect_keys(utt, _UTTERANCE_KEYS, "utterance", lineno)
        try:
            speaker = _SPEAKER_CODES[utt["speaker"]]
        except (KeyError, TypeError):
            raise ParseError(f"unknown speaker {utt['speaker']!r}", line=lineno) from None
        text = utt["text"]
        if not isinstance(text, str):
            raise ParseError("utterance text must be a string", line=lineno)
        mentions = utt["mentions"]
        if not isinstance(mentions, list):
            raise ParseError("mentions must be an array", line=lineno)
        tokens = findall(text.lower())
        decided = None  # the keyword sentiment of the text, once a null label needs it
        ents: list[int] = []
        sentiments: list[int] = []
        for m in mentions:
            if not isinstance(m, dict):
                raise ParseError("mention is not a JSON object", line=lineno)
            if m.keys() != _MENTION_KEYS:
                _expect_keys(m, _MENTION_KEYS, "mention", lineno)
            ref = m["entity"]
            if not isinstance(ref, str):
                raise ParseError("mention entity must be a string", line=lineno)
            entity = by_token.get(ref)
            if entity is None:
                entity = entities.resolve(ref)
            label = m["sentiment"]
            if label is None:
                if lexicon is None:
                    raise ParseError(
                        "mention sentiment is null and no keyword lexicon was given",
                        line=lineno,
                    )
                if decided is None:
                    decided = _SENTIMENT_CODES[_keyword_sentiment(tokens, lexicon).value]
                sentiment = decided
            else:
                try:
                    sentiment = _SENTIMENT_CODES[label]
                except (KeyError, TypeError):
                    raise ParseError(f"unknown sentiment {label!r}", line=lineno) from None
            ents.append(entity)
            sentiments.append(sentiment)
        parsed.append((speaker, text, tokens, ents, sentiments))
    return conv_id, user_id, split, parsed


def load_corpus(
    path: str | Path,
    entities: EntityVocab,
    *,
    stopwords: frozenset[str] | None = None,
    lexicon: Mapping[str, Sentiment] | None = None,
) -> tuple[Corpus, Vocab]:
    """Load and validate a corpus file against an entity vocabulary.

    The file is read line by line in text mode; one parse pass per line
    checks every key set, type and enum value of the record and keeps its
    fields as plain tuples and codes, and the first failure raises
    ParseError (or ValidationError for an unknown entity or a repeated
    conversation_id) naming its line. One pass then fills the
    :class:`Corpus` arrays.

    The corpus comes back sorted by conversation_id, and word ids are
    assigned in that order, so identical inputs always produce identical
    vocabularies.
    """
    if stopwords is None:
        stopwords = default_stopwords()
    words = WordVocab()
    records = []
    seen_ids: set[str] = set()
    with open_input(path, "corpus", text=True) as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            record = _parse_record(raw, lineno, entities, lexicon)
            if record[0] in seen_ids:
                raise ValidationError(f"duplicate conversation_id {record[0]!r}")
            seen_ids.add(record[0])
            records.append(record)
    return _build_corpus(records, stopwords, words), Vocab(entities=entities, words=words)


# the bytes of json.dumps(record, ensure_ascii=False), from one encoder; a record
# is a fresh tree of str, list and dict, so it cannot hold a cycle
_ENCODE = json.JSONEncoder(ensure_ascii=False, check_circular=False).encode


def save_corpus(corpus: Corpus, entities: EntityVocab, path: str | Path) -> None:
    """Write the corpus back to the corpus format, one line per conversation in corpus order.

    Each line is the record's ``json.dumps(record, ensure_ascii=False)``,
    keys in the order :func:`load_corpus` documents. Sentiments are written
    explicitly, so a reload never needs the lexicon.
    """
    speakers = [SPEAKERS[c].value for c in corpus.speakers.tolist()]
    texts = corpus.texts
    tokens = entities.tokens
    sentiments = [s.value for s in SENTIMENTS]
    mentions = [{"entity": tokens[e], "sentiment": sentiments[s]}
                for e, s in zip(corpus.mentions.rows.tolist(), corpus.sentiments.tolist())]
    bounds = corpus.mentions.offsets.tolist()
    first = corpus.utterances.offsets.tolist()
    with atomic_write(path, text=True) as fh:
        for c, (conv_id, user_id, split) in enumerate(zip(
                corpus.conversation_ids, corpus.user_ids, corpus.splits.tolist())):
            fh.write(_ENCODE({
                "conversation_id": conv_id,
                "user_id": user_id,
                "split": SPLITS[split].value,
                "utterances": [{"speaker": speakers[u], "text": texts[u],
                                "mentions": mentions[bounds[u]:bounds[u + 1]]}
                               for u in range(first[c], first[c + 1])],
            }) + "\n")


def save_entity_vocab(entities: EntityVocab, path: str | Path) -> None:
    with atomic_write(path, text=True) as fh:
        for token, name, flag in zip(entities.tokens, entities.names, entities.is_item):
            fh.write(f"{token}\t{name}\t{1 if flag else 0}\n")


def derive_examples(corpus: Corpus, entities: EntityVocab) -> Examples:
    """One example per recommender turn that introduces at least one new item.

    Examples follow corpus order, then turn order. A turn's gold items are the
    items it mentions that no earlier turn of its conversation mentions.
    """
    ent = corpus.mentions.rows
    turn_of = corpus.mentions.group_of_rows()  # each mention's utterance
    # each conversation's first mention of each entity: new, in mention order
    firsts = corpus.conversation_mentions.first_rows()
    is_item = np.array(entities.is_item, bool)
    recommends = corpus.speakers == SPEAKERS.index(Speaker.RECOMMENDER)
    gold_at = firsts[recommends[turn_of[firsts]] & is_item[ent[firsts]]]
    gold_turn, gold_ent = turn_of[gold_at], ent[gold_at]
    order = np.lexsort((gold_ent, gold_turn))  # gold_turn ascends: ids ascend per turn
    starts = np.flatnonzero(np.diff(gold_turn, prepend=-1))  # each example's first gold
    runs = np.append(starts, len(order))
    turns = gold_turn[starts]
    conversations = corpus.utterances.group_of_rows()[turns]
    opening = corpus.utterances.offsets[conversations]
    # the conversation's first mentions before the turn are one run of ``firsts``
    first_turns = turn_of[firsts]
    entities_before = Segments.spans(ent[firsts], first_turns.searchsorted(opening),
                                     first_turns.searchsorted(turns))
    bounds = corpus.words.offsets
    words_before = Segments.spans(corpus.words.rows, bounds[opening], bounds[turns])
    return Examples(conversations, turns - opening, corpus.splits[conversations],
                    entities_before, words_before,
                    Segments.spans(gold_ent[order], runs[:-1], runs[1:]))


def split_view(examples: Examples, split: Split | str) -> Examples:
    """The examples of one split, in order."""
    try:
        code = SPLITS.index(Split(split))
    except ValueError:
        raise ValueError(f"unknown split {split!r}") from None
    return examples.take(np.flatnonzero(examples.splits == code))


def training_mentions(corpus: Corpus) -> tuple[np.ndarray, Segments, np.ndarray]:
    """What the training-only structures read: the training conversations'
    indices, ascending; their entity mentions, one group each, in order; and
    those mentions' sentiment codes, aligned with the groups' rows."""
    convs = np.flatnonzero(corpus.splits == SPLITS.index(Split.TRAIN))
    bounds = corpus.conversation_mentions.offsets
    at = Segments.spans(np.arange(len(corpus.sentiments)), bounds[convs], bounds[convs + 1])
    return convs, Segments(corpus.mentions.rows[at.rows], at.offsets), corpus.sentiments[at.rows]


def corpus_stats(corpus: Corpus, entities: EntityVocab) -> dict[str, int]:
    """Headline corpus counts: users, conversations, utterances, distinct items mentioned."""
    mentioned = np.unique(corpus.mentions.rows)
    return {
        "users": len(set(corpus.user_ids)),
        "conversations": len(corpus),
        "utterances": len(corpus.speakers),
        "items": int(np.array(entities.is_item, bool)[mentioned].sum()),
    }
