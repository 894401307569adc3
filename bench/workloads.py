"""Seeded inputs for the three benchmark workloads.

``convrec.synthetic`` is the load generator: it makes the corpus and the
genre KG, and this module adds what the workloads need on top (a larger KG
for the catalog-bound inputs, the recommend sessions). The program under test
only ever sees the files written here.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_POPULAR = 5      # popularity_corpus default: these items get BOOST x the like rate
BOOST = 10.0
KS = (1, 10, 50)
RECOMMEND_K = 10
SESSION_TURNS = 20
EXTRA_RELATIONS = ("actor", "director", "studio", "writer")
ATTRS_PER_RELATION = 100
EDGES_PER_ITEM_PER_RELATION = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus: dict
    extra_kg: bool
    config: dict          # TrainConfig fields besides the seed
    kind: str             # "train" or "recommend"


RETRIEVAL_CORPUS = dict(n_users=400, n_items=200, n_conversations=2000)
CATALOG_CORPUS = dict(n_users=800, n_items=2000, n_conversations=2000)

WORKLOADS = {
    w.name: w for w in (
        Workload(
            "train-retrieval",
            "BM25 retrieval dominates training; epoch 2, validation and the eval pass repeat "
            "earlier queries",
            RETRIEVAL_CORPUS, False,
            dict(dim=16, batch_size=64, epochs=2, top_n=1), "train"),
        Workload(
            "train-catalog",
            "2,000-item catalog, 18k-edge KG, retrieval off: backward and the R-GCNs "
            "dominate, retrieve is never called",
            CATALOG_CORPUS, True,
            dict(dim=64, batch_size=64, epochs=1, without_rt=True), "train"),
        Workload(
            "recommend-session",
            "live convrec recommend process, one closed-loop client: forward only, every "
            "retrieval query is new",
            CATALOG_CORPUS, True,
            dict(dim=64, batch_size=64, epochs=0, top_n=1), "recommend"),
    )
}


@dataclass
class Inputs:
    paths: dict[str, Path]
    examples: dict[str, int]          # per split; one gold item each, so also pairs
    pairs: dict[str, int]
    sizes: dict[str, int]
    item_tokens: list[str]


def _expected_examples(data) -> tuple[dict[str, int], dict[str, int]]:
    """Count recommender turns that introduce a new item, per split.

    Written from the corpus format's definition, independently of
    ``convrec.corpus.derive_examples``, so the benchmark can check the counts
    the program reports.
    """
    is_item = data.vocab.entities.is_item
    examples = {"train": 0, "valid": 0, "test": 0}
    pairs = dict(examples)
    for conv in data.conversations:
        seen: set[int] = set()
        for utt in conv.utterances:
            if utt.speaker.value == "recommender":
                gold = {m.entity for m in utt.mentions if is_item[m.entity] and m.entity not in seen}
                if gold:
                    examples[conv.split.value] += 1
                    pairs[conv.split.value] += len(gold)
            seen.update(m.entity for m in utt.mentions)
    return examples, pairs


def _add_catalog_kg(paths: dict[str, Path], n_items: int, seed: int) -> None:
    """Append attribute entities and four extra relations to the raw files.

    Each item gets EDGES_PER_ITEM_PER_RELATION distinct attributes per relation,
    drawn from that relation's own pool with a Zipf-like skew.
    """
    rng = np.random.default_rng([seed, 1])
    ranks = np.arange(1, ATTRS_PER_RELATION + 1, dtype=np.float64)
    weights = 1.0 / ranks
    weights /= weights.sum()
    with open(paths["entities"], "a", encoding="utf-8") as ents, \
            open(paths["kg"], "a", encoding="utf-8") as kg:
        for r, rel in enumerate(EXTRA_RELATIONS):
            for a in range(ATTRS_PER_RELATION):
                ents.write(f"A{r}_{a}\t{rel} {a}\t0\n")
            for item in range(n_items):
                picks = rng.choice(ATTRS_PER_RELATION, size=EDGES_PER_ITEM_PER_RELATION,
                                   replace=False, p=weights)
                for a in sorted(int(p) for p in picks):
                    kg.write(f"I{item}\t{rel}\tA{r}_{a}\n")


def count_lines(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


def generate(workload: Workload, seed: int, directory: Path) -> Inputs:
    """Write the workload's raw input files for ``seed`` into ``directory``."""
    from convrec.synthetic import popularity_corpus, write_inputs

    data = popularity_corpus(seed, n_popular=N_POPULAR, boost=BOOST, **workload.corpus)
    paths = write_inputs(data, directory)
    if workload.extra_kg:
        _add_catalog_kg(paths, workload.corpus["n_items"], seed)
    examples, pairs = _expected_examples(data)
    n_items = workload.corpus["n_items"]
    sizes = {
        "items": n_items,
        "kg_nodes": count_lines(paths["entities"]),
        "kg_edges": count_lines(paths["kg"]),
        "conversations": len(data.conversations),
        "bm25_docs": sum(1 for c in data.conversations if c.split.value == "train"),
        **{f"{split}_examples": n for split, n in examples.items()},
    }
    return Inputs(paths=paths, examples=examples, pairs=pairs, sizes=sizes,
                  item_tokens=[f"I{i}" for i in range(n_items)])


def session_turns(seed: int, session: int, n_items: int) -> list[list[str]]:
    """One recommend session: SESSION_TURNS lines of 1-2 item mentions.

    Mentions follow the corpus's popularity skew and never repeat within a
    session, so every turn's context is one the process has not seen.
    """
    rng = np.random.default_rng([seed, 2, session])
    weights = np.where(np.arange(n_items) < N_POPULAR, BOOST, 1.0)
    sizes = rng.integers(1, 3, size=SESSION_TURNS)
    picks = rng.choice(n_items, size=int(sizes.sum()), replace=False, p=weights / weights.sum())
    turns, pos = [], 0
    for size in sizes:
        turns.append([f"I{int(i)}" for i in picks[pos:pos + size]])
        pos += size
    return turns
