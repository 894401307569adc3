import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convrec import autodiff as ad
from convrec import optim
from convrec.errors import ConfigurationError, MissingArtifactError, ParseError, StateError
from convrec.optim import (
    BETA1,
    BETA2,
    EPS,
    AdamConfig,
    AdamState,
    ParamStore,
    adam_step,
    load_checkpoint,
    open_input,
    read_arrays,
    read_checkpoint,
    save_arrays,
    save_checkpoint,
)
from convrec.recommender import Model, TrainConfig

from conftest import disk_full_after_first_write, mutations, total
from oracles import adam_reference, container_reference


def make_store():
    store = ParamStore()
    store.add("a", np.asarray([[1.0, -2.0], [3.0, 0.5]]))
    store.add("b", np.asarray([0.25, -0.75, 4.0]))
    return store


# ---------------------------------------------------------------------------
# ParamStore


def test_store_rejects_duplicate_names():
    store = make_store()
    with pytest.raises(ConfigurationError):
        store.add("a", np.zeros(2))


def test_store_lookup_and_sizes():
    store = make_store()
    assert "a" in store and "missing" not in store
    assert len(store) == 2
    assert store.names() == ["a", "b"]
    with pytest.raises(ConfigurationError):
        store["missing"]


def test_store_params_are_float64_with_grad_buffers():
    store = ParamStore()
    t = store.add("w", np.asarray([1, 2, 3], dtype=np.int32))
    assert t.values.dtype == np.float64
    assert t.requires_grad
    np.testing.assert_array_equal(t.grad, np.zeros(3))


def test_grad_global_norm():
    store = make_store()
    store["a"].grad = np.full((2, 2), 2.0)
    store["b"].grad = np.zeros(3)
    assert store.grad_global_norm() == pytest.approx(4.0)
    store["b"].grad = None
    with pytest.raises(StateError):
        store.grad_global_norm()


def test_grad_global_norm_equals_the_expression_form_bit_for_bit():
    # the adam_reference fixture shapes, with C-order, F-order, strided,
    # reversed and 0-d gradients and a zero stand-in ("c")
    rng = np.random.default_rng(3)
    shapes = {"a": (4, 3), "b": (5,), "c": (2, 2), "d": (1000, 40), "e": (40000,), "s": ()}
    store = ParamStore()
    for name, shape in shapes.items():
        store.add(name, np.zeros(shape))
    for step in range(4):
        grads = {name: 10.0 ** (step - 2) * rng.normal(size=shape)
                 for name, shape in shapes.items() if name != "c"}
        grads["d"] = np.asfortranarray(grads["d"])
        grads["b"] = rng.normal(size=10)[::2]
        grads["a"] = grads["a"][::-1]
        for name, g in grads.items():
            store[name].grad = g
        want = float(np.sqrt(sum(float(np.sum(t.grad * t.grad)) for _, t in store.items())))
        assert store.grad_global_norm() == want


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_gradients_leave_parameters_unchanged():
    store = make_store()
    before = {n: t.values.copy() for n, t in store.items()}
    state = AdamState.for_store(store)
    adam_step(store, state, AdamConfig())
    for name, values in before.items():
        np.testing.assert_array_equal(store[name].values, values)


def test_adam_first_step_magnitude():
    # single scalar parameter, g=1 after clipping bound is generous:
    # bias-corrected first step moves by ~lr regardless of g's scale
    store = ParamStore()
    store.add("w", np.asarray(1.0))
    store["w"].grad = np.asarray(1.0)
    state = AdamState.for_store(store)
    adam_step(store, state, AdamConfig(lr=0.001, clip_norm=10.0))
    assert float(store["w"].values) == pytest.approx(1.0 - 0.001, abs=1e-9)
    assert state.step == 1


def test_adam_zeroes_gradients_and_returns_preclip_norm():
    store = ParamStore()
    store.add("w", np.asarray([1.0, 1.0]))
    store["w"].grad = np.asarray([3.0, 4.0])
    state = AdamState.for_store(store)
    norm = adam_step(store, state, AdamConfig())
    assert norm == pytest.approx(5.0)
    np.testing.assert_array_equal(store["w"].grad, np.zeros(2))


def test_adam_missing_state_or_grad_raises():
    store = make_store()
    state = AdamState.for_store(store)
    store["a"].grad = None
    with pytest.raises(StateError):
        adam_step(store, state, AdamConfig())
    store.zero_grads()
    with pytest.raises(StateError):
        adam_step(store, AdamState(state.m, state.v[:-1]), AdamConfig())


def test_adam_descends_convex_quadratic():
    # f(w) = |w|^2 / 2; loss should be non-increasing once moments warm up
    store = ParamStore()
    store.add("w", np.asarray([3.0, -2.0, 1.5]))
    state = AdamState.for_store(store)
    config = AdamConfig(lr=0.05, clip_norm=100.0)
    losses = []
    for _ in range(100):
        w = store["w"]
        loss = ad.mul(total(ad.mul(w, w)), ad.constant(np.asarray(0.5)))
        losses.append(float(loss.values))
        store.zero_grads()
        ad.backward(loss)
        adam_step(store, state, config)
    warm = losses[5:]
    assert all(b <= a + 1e-12 for a, b in zip(warm, warm[1:]))
    assert losses[-1] < losses[0]


@pytest.mark.parametrize("scale, clips", [(5.0, True), (1e-4, False)], ids=["clipped", "unclipped"])
def test_adam_step_matches_the_expression_form_bit_for_bit(scale, clips):
    # "c" never receives a gradient, as a group the loss does not reach; "d" and
    # "e" span several row blocks, and "d" gets a transposed (F-order) gradient
    rng = np.random.default_rng(7)
    shapes = {"a": (4, 3), "b": (5,), "c": (2, 2), "d": (1000, 40), "e": (40000,), "s": ()}
    store = ParamStore()
    for name, shape in shapes.items():
        store.add(name, rng.normal(size=shape))
    config = AdamConfig(lr=0.01, clip_norm=0.1)
    state = AdamState.for_store(store)
    values = {n: t.values.copy() for n, t in store.items()}
    m = {n: np.zeros(t.shape) for n, t in store.items()}
    v = {n: np.zeros(t.shape) for n, t in store.items()}
    for step in range(1, 7):
        grads = {name: scale * np.asarray(rng.normal(size=shape)) for name, shape in shapes.items()}
        grads["c"] = None
        grads["d"] = np.asarray(grads["d"].T.copy().T)
        for name, g in grads.items():
            if g is not None:
                store[name].grad = g.copy(order="K")
        norm = adam_step(store, state, config)
        values, m, v, want_norm = adam_reference(
            values, grads, m, v, step, lr=config.lr, beta1=BETA1, beta2=BETA2, eps=EPS,
            clip_norm=config.clip_norm)
        assert (want_norm > config.clip_norm) == clips
        assert norm == want_norm
        got_m, got_v = store.views(state.m), store.views(state.v)
        for name, t in store.items():
            assert t.values.tobytes() == values[name].tobytes(), (step, name)
            assert got_m[name].tobytes() == m[name].tobytes(), (step, name)
            assert got_v[name].tobytes() == v[name].tobytes(), (step, name)
            np.testing.assert_array_equal(t.grad, np.zeros(t.shape))
    assert not got_m["c"].any() and not got_v["c"].any()


def test_flat_adam_step_matches_the_reference_across_block_boundaries():
    # the arena is cut into _ADAM_BLOCK slices: "u" (never reached) and "b"
    # straddle boundaries, "b" spans more than one block, "z" is empty, "f"
    # gets an F-order gradient and "r" a strided one; steps alternate between
    # clipped and unclipped
    block = optim._ADAM_BLOCK
    rng = np.random.default_rng(11)
    shapes = {"a": (3, 5), "u": (block,), "z": (0,), "b": (block + 7,), "f": (40, 30),
              "r": (9,), "s": ()}
    store = ParamStore()
    for name, shape in shapes.items():
        store.add(name, rng.normal(size=shape))
    config = AdamConfig(lr=0.003, clip_norm=1.0)
    state = AdamState.for_store(store)
    values = {n: t.values.copy() for n, t in store.items()}
    m = {n: np.zeros(t.shape) for n, t in store.items()}
    v = {n: np.zeros(t.shape) for n, t in store.items()}
    clipped = []
    for step in range(1, 7):
        scale = 0.1 if step % 2 else 1e-5
        grads = {name: scale * rng.normal(size=shape) for name, shape in shapes.items()}
        grads["u"] = None
        grads["f"] = np.asfortranarray(grads["f"])
        grads["r"] = scale * rng.normal(size=27)[::3]
        for name, g in grads.items():
            if g is not None:
                store[name].grad = g.copy(order="K") if name != "r" else g
        norm = adam_step(store, state, config)
        values, m, v, want_norm = adam_reference(
            values, grads, m, v, step, lr=config.lr, beta1=BETA1, beta2=BETA2, eps=EPS,
            clip_norm=config.clip_norm)
        assert norm == want_norm
        clipped.append(want_norm > config.clip_norm)
        got_m, got_v = store.views(state.m), store.views(state.v)
        for name, t in store.items():
            assert t.values.tobytes() == values[name].tobytes(), (step, name)
            assert got_m[name].tobytes() == m[name].tobytes(), (step, name)
            assert got_v[name].tobytes() == v[name].tobytes(), (step, name)
    assert clipped == [True, False] * 3
    assert store.arena.size == sum(math.prod(shape) for shape in shapes.values())
    assert store.arena.size > 2 * block


def test_packing_makes_every_parameter_a_view_of_one_arena(tmp_path):
    store = make_store()
    store.add("s", np.asarray(2.5))
    before = {name: t.values.copy() for name, t in store.items()}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store)
    assert store.arena is None  # nothing packs before training starts
    state = AdamState.for_store(store)
    arena = store.arena
    assert store.pack() is arena and arena.dtype == np.float64 and arena.size == 8
    np.testing.assert_array_equal(arena, np.concatenate([x.ravel() for x in before.values()]))
    assert state.m.shape == state.v.shape == arena.shape and not state.m.any()
    for name, t in store.items():
        assert t.values.base is arena and t.values.shape == before[name].shape
        np.testing.assert_array_equal(t.values, before[name])
    # the same checkpoint bytes as before packing
    packed = tmp_path / "packed.ckpt"
    save_checkpoint(packed, store)
    assert packed.read_bytes() == path.read_bytes()
    # a load would make the parameters views of the checkpoint, not of the arena:
    # it is refused, and the arena keeps its values and its views
    other = make_store()
    other.add("s", np.asarray(-1.0))
    save_checkpoint(path, other)
    with pytest.raises(StateError, match="packed"):
        load_checkpoint(path.read_bytes(), store)
    np.testing.assert_array_equal(arena, np.concatenate([x.ravel() for x in before.values()]))
    assert all(t.values.base is arena for _, t in store.items())
    with pytest.raises(StateError, match="packed"):
        store.add("late", np.zeros(2))
    assert "late" not in store


def test_adam_step_needs_a_state_made_for_its_store():
    store = make_store()
    state = AdamState.for_store(store)
    store.zero_grads()
    unpacked = make_store()  # no arena: nothing made a state for it
    with pytest.raises(StateError, match="for_store"):
        adam_step(unpacked, state, AdamConfig())
    bigger = make_store()
    bigger.add("c", np.zeros(2))
    with pytest.raises(StateError, match="for_store"):
        adam_step(store, AdamState.for_store(bigger), AdamConfig())
    adam_step(store, state, AdamConfig())
    assert state.step == 1


def test_zero_gradients_are_read_only_and_allocate_nothing():
    store = make_store()
    for _, t in store.items():
        assert not t.grad.flags.writeable and t.grad.strides == (0,) * t.grad.ndim
    zero_b, b_values = store["b"].grad, store["b"].values.copy()
    grad_a = store["a"].grad = np.full((2, 2), 3.0)
    adam_step(store, AdamState.for_store(store), AdamConfig(clip_norm=0.1))  # the clip fires
    np.testing.assert_array_equal(grad_a, np.full((2, 2), 3.0))  # read, never scaled in place
    assert store["b"].grad is zero_b  # b's stand-in was skipped, not written
    np.testing.assert_array_equal(store["b"].values, b_values)
    for _, t in store.items():  # every parameter holds its stand-in again
        assert not t.grad.flags.writeable and t.grad.strides == (0,) * t.grad.ndim


def test_lr_zero_is_a_noop_even_with_gradients():
    store = make_store()
    before = {n: t.values.copy() for n, t in store.items()}
    store["a"].grad = np.ones((2, 2))
    store["b"].grad = np.ones(3)
    adam_step(store, AdamState.for_store(store), AdamConfig(lr=0.0))
    for name, values in before.items():
        np.testing.assert_array_equal(store[name].values, values)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    store = ParamStore()
    store.add("emb", rng.normal(size=(5, 3)))
    store.add("w", rng.normal(size=(3,)))
    store.add("s", np.asarray(rng.normal()))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store)

    restored = ParamStore()
    restored.add("emb", np.zeros((5, 3)))
    restored.add("w", np.zeros(3))
    restored.add("s", np.asarray(0.0))
    load_checkpoint(path.read_bytes(), restored)
    for name in store.names():
        np.testing.assert_array_equal(restored[name].values, store[name].values)


def test_checkpoint_saves_identical_bytes(tmp_path):
    store = make_store()
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, store)
    save_checkpoint(p2, store)
    assert p1.read_bytes() == p2.read_bytes()


def test_interrupted_checkpoint_write_keeps_the_previous_file(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, make_store())
    before = path.read_bytes()
    changed = make_store()
    changed["a"].values += 1.0
    with disk_full_after_first_write() as written, \
            pytest.raises(ConfigurationError, match=f"cannot write {path}: disk full"):
        save_checkpoint(path, changed)
    assert written and path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_read_checkpoint_without_store(tmp_path):
    store = make_store()
    path = tmp_path / "raw.ckpt"
    save_checkpoint(path, store)
    params = read_checkpoint(path.read_bytes())
    assert set(params) == {"a", "b"}
    np.testing.assert_array_equal(params["a"], store["a"].values)


def test_checkpoint_missing_file():
    # read_checkpoint takes bytes; load_model opens the file through open_input
    with pytest.raises(MissingArtifactError, match="checkpoint not found"):
        with open_input("/nonexistent/model.ckpt", "checkpoint"):
            pass


def test_checkpoint_bad_magic():
    with pytest.raises(ParseError):
        read_checkpoint(b"NOPE" + b"\x00" * 32)


def test_checkpoint_with_a_non_utf8_name(tmp_path):
    store = make_store()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store)
    raw = bytearray(path.read_bytes())
    assert raw[16:19] == b'{"a'
    raw[18] = 0xFF  # the first name's first byte, in the header after the 16-byte prefix
    with pytest.raises(ParseError, match="checkpoint header is not ASCII JSON"):
        read_checkpoint(bytes(raw))


def test_checkpoint_truncation(tmp_path):
    store = make_store()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store)
    raw = path.read_bytes()
    with pytest.raises(ParseError):
        read_checkpoint(raw[: len(raw) // 2])


def test_checkpoint_loads_exactly_its_own_length(tmp_path):
    store = make_store()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store)
    raw = path.read_bytes()
    params = read_checkpoint(raw)
    np.testing.assert_array_equal(params["b"], store["b"].values)
    for extra in (b"\x00", b"\x00" * 8):
        with pytest.raises(ParseError, match=f"{len(extra)} trailing bytes"):
            read_checkpoint(raw + extra)


CKPT_MAGIC, CKPT_VERSION = b"CVRK", 3


@pytest.mark.parametrize("shape", [
    (65536,) * 4,     # 2**64 values: an int64 product wraps to 0
    (2**20, 2**20),   # 8 TiB of values
    (5,),             # 40 bytes, 1 left
], ids=["wraps", "huge", "short"])
def test_read_checkpoint_bounds_shape_by_file_size(shape):
    raw = container_reference(CKPT_MAGIC, {"a": ("<f8", shape)}, b"\x00", CKPT_VERSION)
    assert len(raw) < 128
    with pytest.raises(ParseError, match=r"header claims shape .* but 1 bytes remain"):
        read_checkpoint(raw)


def test_read_checkpoint_refuses_a_rank_numpy_cannot_hold():
    # 70 dimensions whose product, 0, the data holds: a zero, then ones
    raw = container_reference(CKPT_MAGIC, {"a": ("<f8", (0,) + (1,) * 69)}, b"", CKPT_VERSION)
    with pytest.raises(ParseError, match="maximum supported dimension"):
        read_checkpoint(raw)


def test_read_checkpoint_refuses_a_parameter_that_is_not_float64(tmp_path):
    path = tmp_path / "bad.ckpt"
    save_arrays(path, CKPT_MAGIC, CKPT_VERSION, {"a": np.zeros(2), "n": np.arange(3)})
    with pytest.raises(ParseError, match="^checkpoint array 'n' has dtype <i8, not <f8$"):
        read_checkpoint(path.read_bytes())


def test_read_checkpoint_refuses_a_version_2_checkpoint(tmp_path):
    # the parameters-only layout of version 2: refused by its version, not converted
    path = tmp_path / "model.ckpt"
    save_arrays(path, CKPT_MAGIC, 2, {"a": np.zeros(2)})
    with pytest.raises(ParseError, match="^unsupported checkpoint version 2$"):
        read_checkpoint(path.read_bytes())


def test_read_checkpoint_refuses_a_version_1_checkpoint():
    # parameter a = [0.5] in the version-1 layout: a count, then per parameter
    # its name, rank, dimensions and values, then an optimizer flag byte
    raw = b"CVRK" + struct.pack("<IIH1sBId", 1, 1, 1, b"a", 1, 1, 0.5) + b"\x00"
    with pytest.raises(ParseError, match="^unsupported checkpoint version 1$"):
        read_checkpoint(raw)


# ---------------------------------------------------------------------------
# the named-array container under both files


def sample_arrays():
    """One array of every dtype and rank the files hold, an odd-length one included."""
    return {"k1": np.array(1.25), "ids": np.frombuffer("c0\u00e9".encode(), np.uint8),
            "rows": np.array([3, -1, 2**40], np.int64), "empty": np.zeros(0, np.int64),
            "w": np.arange(6.0).reshape(2, 3)}


def test_save_arrays_writes_the_documented_layout(tmp_path):
    arrays = sample_arrays()
    path = tmp_path / "x.bin"
    digest = save_arrays(path, b"TEST", 7, arrays)
    raw = path.read_bytes()
    entries = {n: (a.dtype.str, a.shape) for n, a in arrays.items()}
    assert raw == container_reference(b"TEST", entries,
                                      b"".join(a.tobytes() for a in arrays.values()), version=7)
    assert digest == hashlib.sha256(raw).hexdigest()
    assert int.from_bytes(raw[8:16], "little") % 8 == 0  # the data starts 8-byte aligned
    loaded = read_arrays(raw, b"TEST", 7, "test file")
    assert list(loaded) == list(arrays)
    for name, a in arrays.items():
        assert loaded[name].dtype == a.dtype and not loaded[name].flags.writeable
        np.testing.assert_array_equal(loaded[name], a)


def with_header(raw, edit):
    """``raw`` with its header text passed through ``edit`` and padded again."""
    size = int.from_bytes(raw[8:16], "little")
    text = edit(raw[16:16 + size].rstrip(b" "))
    text += b" " * (-len(text) % 8)
    return raw[:8] + len(text).to_bytes(8, "little") + text + raw[16 + size:]


@pytest.mark.parametrize("edit, message", [
    (lambda h: h.replace(b'"w"', b'"k1"'), "names an array twice"),
    (lambda h: h.replace(b'"k1"', b'"k\\u0031"'), "not the one its arrays are written with"),
    (lambda h: h.replace(b":", b": "), "not the one its arrays are written with"),
    (lambda h: h + b" " * 8, "not the one its arrays are written with"),
    (lambda h: h.replace(b'"range":[0,8]', b'"range":[0,8.0]'),
     "not the one its arrays are written with"),
    (lambda h: h.replace(b'{"dtype":"<f8","shape":[]', b'{"shape":[],"dtype":"<f8"'),
     "not the one its arrays are written with"),
    (lambda h: h.replace(b'"dtype":"<f8","shape":[]', b'"dtype":"<f4","shape":[2]'),
     "array 'k1' has no dtype of"),
    (lambda h: h.replace(b'"dtype":"<f8","shape":[]', b'"dtype":"|O","shape":[]'),
     "array 'k1' has no dtype of"),
    (lambda h: h.replace(b'"shape":[]', b'"shape":[true]'), "array 'k1' has no dtype of"),
    (lambda h: h.replace(b'"shape":[2,3]', b'"shape":[-2,-3]'), "array 'w' has no dtype of"),
    (lambda h: h.replace(b'"shape":[0]', b'"shape":[0,9223372036854775808]'),
     "array 'empty' of shape"),
    (lambda h: b"[" + h + b"]", "header is not a JSON object"),
    (lambda h: h[:-1], "header is not ASCII JSON"),
], ids=["duplicate-name", "escaped-name", "spaces", "padding", "float-range", "key-order",
        "f4", "object", "bool-size", "negative-size", "huge-empty", "not-an-object", "cut"])
def test_read_arrays_refuses_a_header_the_writer_would_not_write(tmp_path, edit, message):
    path = tmp_path / "x.bin"
    save_arrays(path, b"TEST", 7, sample_arrays())
    with pytest.raises(ParseError, match=message):
        read_arrays(with_header(path.read_bytes(), edit), b"TEST", 7, "test file")


def test_read_arrays_bounds_the_header_length_by_the_bytes_left(tmp_path):
    path = tmp_path / "x.bin"
    save_arrays(path, b"TEST", 7, sample_arrays())
    raw = path.read_bytes()
    for size in (len(raw) - 15, 2**63):
        bad = raw[:8] + size.to_bytes(8, "little") + raw[16:]
        with pytest.raises(ParseError, match=f"header claims {size} bytes but {len(raw) - 16}"):
            read_arrays(bad, b"TEST", 7, "test file")
    for cut in range(16):
        with pytest.raises(ParseError, match="^not a test file$"):
            read_arrays(raw[:cut], b"TEST", 7, "test file")


@pytest.fixture(scope="module")
def sample_container(tmp_path_factory):
    path = tmp_path_factory.mktemp("containers") / "x.bin"
    save_arrays(path, b"TEST", 7, sample_arrays())
    return path


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_container_bytes_load_exactly_or_raise_parse_error(sample_container, data):
    raw = data.draw(mutations(sample_container.read_bytes()))
    try:
        arrays = read_arrays(raw, b"TEST", 7, "test file")
    except ParseError:
        return
    # what loads is what the bytes say: writing it gives the same bytes back
    again = sample_container.with_name("again.bin")
    assert save_arrays(again, b"TEST", 7, arrays) == hashlib.sha256(raw).hexdigest()
    assert again.read_bytes() == raw


@pytest.fixture(scope="module")
def ckpt_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("checkpoints")


@pytest.fixture(scope="module")
def toy_checkpoint_bytes(ckpt_dir, toy_artifacts):
    """The checkpoint of a toy model with its stored encoder outputs (5,240 bytes)."""
    path = ckpt_dir / "toy.ckpt"
    model = Model(toy_artifacts, TrainConfig(dim=4, seed=0))
    items, words = model.encoder_outputs()
    save_checkpoint(path, model.store, {"outputs.items": items.values,
                                        "outputs.words": words.values})
    return path.read_bytes()


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_checkpoint_bytes_load_exactly_or_raise_parse_error(ckpt_dir, toy_artifacts,
                                                                    toy_checkpoint_bytes, data):
    again = ckpt_dir / "again.ckpt"
    raw = data.draw(mutations(toy_checkpoint_bytes))
    try:
        params = read_checkpoint(raw)
    except ParseError:
        return
    # what loads is what the bytes say: a store of it saves the same bytes back,
    # the stored outputs, the trailing arrays, included
    store = ParamStore()
    for name, values in params.items():
        store.add(name, values)
    save_checkpoint(again, store)
    assert again.read_bytes() == raw
    # and loading checks the outputs' names and shapes as exactly as the parameters'
    model = Model(toy_artifacts, TrainConfig(dim=4, seed=0))
    shapes = {"outputs.items": (len(toy_artifacts.vocab.entities), 4),
              "outputs.words": (toy_artifacts.word_graph.n_nodes, 4)}
    try:
        outputs = load_checkpoint(raw, model.store, shapes)
    except ConfigurationError:
        return
    assert {name: a.shape for name, a in outputs.items()} == shapes
    # no copy: the parameters and the outputs are read-only views of one read
    arrays = [*(t.values for _, t in model.store.items()), *outputs.values()]
    assert len({id(a.base) for a in arrays}) == 1
    assert not any(a.flags.writeable for a in arrays)


def test_load_checkpoint_name_mismatch(tmp_path):
    store = make_store()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store)
    other = ParamStore()
    other.add("a", np.zeros((2, 2)))
    other.add("c", np.zeros(3))
    with pytest.raises(ConfigurationError, match="missing"):
        load_checkpoint(path.read_bytes(), other)


def test_load_checkpoint_shape_mismatch(tmp_path):
    store = make_store()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store)
    other = ParamStore()
    other.add("a", np.zeros((2, 2)))
    other.add("b", np.zeros(4))
    with pytest.raises(ConfigurationError, match="shape"):
        load_checkpoint(path.read_bytes(), other)
