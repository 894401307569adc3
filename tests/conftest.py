from contextlib import contextmanager
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import strategies as st

from convrec import autodiff as ad
from convrec import optim
from convrec.recommender import Model, TrainConfig, build_artifacts
from convrec.retrieval import retrieve
from convrec.synthetic import toy_instance, write_inputs

from oracles import user_vector_reference


@pytest.fixture(scope="session")
def toy_data():
    return toy_instance()


@pytest.fixture(scope="session")
def toy_artifacts(toy_data):
    return build_artifacts(toy_data.corpus, toy_data.vocab,
                           toy_data.kg, toy_data.word_graph)


@pytest.fixture()
def toy_model(toy_artifacts):
    return Model(toy_artifacts, TrainConfig(dim=8, seed=0))


@pytest.fixture(scope="session")
def toy_input_dir(tmp_path_factory, toy_data):
    path = tmp_path_factory.mktemp("toy_inputs")
    write_inputs(toy_data, path)
    return path


def pytest_terminal_summary(terminalreporter):
    """Echo acceptance verdict lines after the test run."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)


def sample_coords(store, n, seed=0):
    """n (name, flat index) pairs covering every parameter at least once."""
    rng = np.random.default_rng(seed)
    names = store.names()
    assert n >= len(names)
    coords = [(name, int(rng.integers(0, store[name].values.size))) for name in names]
    while len(coords) < n:
        name = names[int(rng.integers(0, len(names)))]
        pick = (name, int(rng.integers(0, store[name].values.size)))
        if pick not in coords:
            coords.append(pick)
    return coords


def total(t):
    """The sum of a tensor's entries as a scalar tape node: a gradient check's objective."""
    row = ad.reshape(t, (1, t.values.size))
    return ad.reshape(ad.matmul(row, ad.constant(np.ones(t.values.size))), ())


def attention_weights(params):
    """The arrays user_vector_reference takes, from an AttentionParams."""
    return {name: getattr(params, name).values
            for name in ("w_entity", "b_entity", "w_word", "b_word", "w_gate")}


def reference_users(model, examples, item_matrix, word_matrix):
    """(B, d) user vectors of a Model's examples, from the per-example oracle.

    Retrieval runs here, straight through ``retrieve``, not through the model.
    """
    wg = model.artifacts.word_graph
    index = None if model.config.without_rt else model.artifacts.index
    vectors = []
    for ex in examples:
        entities = list(ex.context_entities)
        if index is not None:
            entities += retrieve(index, list(ex.context_entities), model.config.top_n,
                                 exclude_id=ex.conversation_id).entities
        vector, _, _ = user_vector_reference(
            item_matrix.values,
            None if word_matrix is None else word_matrix.values,
            None if wg is None else {w: r for r, w in enumerate(wg.word_ids)},
            entities, list(ex.context_words), attention_weights(model.att_params))
        vectors.append(vector)
    return np.array(vectors)


def masked_positions(item_ids, example):
    """Item positions of the example's mentioned items: its candidate mask."""
    position = {int(e): p for p, e in enumerate(item_ids)}
    return [position[e] for e in example.context_entities if e in position]


@contextmanager
def disk_full_after_first_write():
    """Inside the block an atomic write's second ``write`` raises OSError("disk
    full"), as a full disk would; yields the sizes of the writes that went out."""
    real, written = optim.atomic_write, []

    @contextmanager
    def failing(path, text=False):
        with real(path, text) as fh:
            def write(data):
                if written:
                    raise OSError("disk full")
                written.append(fh.write(data))

            yield SimpleNamespace(write=write)

    with mock.patch.object(optim, "atomic_write", failing):
        yield written


@st.composite
def mutations(draw, raw):
    """``raw`` truncated, with 1-4 bytes overwritten, or with one byte inserted.

    Positions are uniform over the file: ``st.integers`` would favour the
    first bytes, the magic number."""
    kind = draw(st.sampled_from(["truncate", "overwrite", "insert"]))
    rnd = draw(st.randoms(use_true_random=True))
    if kind == "truncate":
        return raw[:rnd.randrange(len(raw))]
    if kind == "insert":
        at = rnd.randrange(len(raw) + 1)
        return raw[:at] + bytes([rnd.randrange(256)]) + raw[at:]
    out = bytearray(raw)
    for _ in range(draw(st.integers(1, 4))):
        out[rnd.randrange(len(raw))] = rnd.randrange(256)
    return bytes(out)
