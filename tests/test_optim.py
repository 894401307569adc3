import struct

import numpy as np
import pytest

from convrec import autodiff as ad
from convrec import optim
from convrec.errors import ConfigurationError, MissingArtifactError, ParseError, StateError
from convrec.optim import (
    AdamConfig,
    AdamState,
    ParamStore,
    adam_step,
    clip_gradients,
    load_checkpoint,
    read_checkpoint,
    save_checkpoint,
)

from conftest import total


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


# ---------------------------------------------------------------------------
# clipping


def test_clip_noop_when_under_bound():
    store = make_store()
    store["a"].grad = np.full((2, 2), 0.01)
    store["b"].grad = np.full(3, 0.01)
    norm = clip_gradients(store, 0.1)
    assert norm == pytest.approx(np.sqrt(7 * 0.01**2))
    np.testing.assert_array_equal(store["a"].grad, np.full((2, 2), 0.01))


def test_clip_scales_to_bound_preserving_direction():
    store = make_store()
    store["a"].grad = np.full((2, 2), 3.0)
    store["b"].grad = np.asarray([4.0, 0.0, 0.0])
    pre = clip_gradients(store, 0.1)
    expected_pre = np.sqrt(4 * 9.0 + 16.0)
    assert pre == pytest.approx(expected_pre)
    assert store.grad_global_norm() == pytest.approx(0.1)
    # direction preserved: components keep their ratios
    ratio = store["a"].grad[0, 0] / store["b"].grad[0]
    assert ratio == pytest.approx(3.0 / 4.0)


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
    state.m.pop("b")
    with pytest.raises(StateError):
        adam_step(store, state, AdamConfig())


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
    state = load_checkpoint(path, restored)
    assert state is None
    for name in store.names():
        np.testing.assert_array_equal(restored[name].values, store[name].values)


def test_checkpoint_saves_identical_bytes(tmp_path):
    store = make_store()
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, store)
    save_checkpoint(p2, store)
    assert p1.read_bytes() == p2.read_bytes()


def test_interrupted_checkpoint_write_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, make_store())
    before = path.read_bytes()
    changed = make_store()
    changed["a"].values += 1.0
    written = []

    def fail_on_second(fh, arr):
        if written:
            raise OSError("disk full")
        written.append(fh.write(arr.tobytes()))

    monkeypatch.setattr(optim, "_write_array", fail_on_second)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, changed)
    assert written and path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_checkpoint_with_adam_state_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    store = ParamStore()
    store.add("w", rng.normal(size=(2, 2)))
    state = AdamState.for_store(store)
    state.step = 17
    state.m["w"] = rng.normal(size=(2, 2))
    state.v["w"] = rng.random((2, 2))
    path = tmp_path / "opt.ckpt"
    save_checkpoint(path, store, state)

    restored_store = ParamStore()
    restored_store.add("w", np.zeros((2, 2)))
    restored = load_checkpoint(path, restored_store)
    assert restored is not None and restored.step == 17
    np.testing.assert_array_equal(restored.m["w"], state.m["w"])
    np.testing.assert_array_equal(restored.v["w"], state.v["w"])


def test_read_checkpoint_without_store(tmp_path):
    store = make_store()
    path = tmp_path / "raw.ckpt"
    save_checkpoint(path, store)
    params, state = read_checkpoint(path)
    assert set(params) == {"a", "b"}
    assert state is None
    np.testing.assert_array_equal(params["a"], store["a"].values)


def test_checkpoint_missing_file():
    with pytest.raises(MissingArtifactError):
        read_checkpoint("/nonexistent/model.ckpt")


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ParseError):
        read_checkpoint(path)


def test_checkpoint_truncation(tmp_path):
    store = make_store()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(ParseError):
        read_checkpoint(path)


@pytest.fixture
def small_reads(monkeypatch):
    """Fail a test, instead of allocating, if the reader asks for a large read."""
    real = optim._read_exact

    def bounded(fh, n):
        assert n <= 4096, f"read of {n} bytes requested"
        return real(fh, n)

    monkeypatch.setattr(optim, "_read_exact", bounded)


def _one_param_header(shape):
    return (b"CVRK" + struct.pack("<IIH", 1, 1, 1) + b"a" + struct.pack("<B", len(shape))
            + struct.pack(f"<{len(shape)}I", *shape))


@pytest.mark.parametrize("shape", [
    (65536,) * 4,     # 2**64 values: an int64 product wraps to 0
    (2**20, 2**20),   # 8 TiB of values
    (5,),             # 40 bytes, 1 left
], ids=["wraps", "huge", "short"])
def test_read_checkpoint_bounds_shape_by_file_size(tmp_path, small_reads, shape):
    raw = _one_param_header(shape) + b"\x00"
    assert len(raw) < 64
    path = tmp_path / "bad.ckpt"
    path.write_bytes(raw)
    with pytest.raises(ParseError, match=r"header claims shape .* but 1 bytes remain"):
        read_checkpoint(path)


def test_read_checkpoint_bounds_adam_state_by_file_size(tmp_path, small_reads):
    store = make_store()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store, AdamState.for_store(store))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])  # the last v array loses one value
    with pytest.raises(ParseError, match="header claims shape"):
        read_checkpoint(path)


def test_load_checkpoint_name_mismatch(tmp_path):
    store = make_store()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store)
    other = ParamStore()
    other.add("a", np.zeros((2, 2)))
    other.add("c", np.zeros(3))
    with pytest.raises(ConfigurationError, match="missing"):
        load_checkpoint(path, other)


def test_load_checkpoint_shape_mismatch(tmp_path):
    store = make_store()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store)
    other = ParamStore()
    other.add("a", np.zeros((2, 2)))
    other.add("b", np.zeros(4))
    with pytest.raises(ConfigurationError, match="shape"):
        load_checkpoint(path, other)
