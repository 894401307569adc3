"""Trainable parameter store, Adam, gradient clipping, and checkpoints."""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterator, TextIO

import numpy as np

from .autodiff import Tensor
from .errors import ConfigurationError, MissingArtifactError, ParseError, StateError

_MAGIC = b"CVRK"
_VERSION = 1


class ParamStore:
    """Named trainable tensors with persistent, pre-allocated gradient buffers.

    Iteration order is insertion order everywhere (updates, checkpoints,
    gradient norms), which keeps every downstream computation deterministic.
    """

    def __init__(self) -> None:
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, values: np.ndarray) -> Tensor:
        if name in self._params:
            raise ConfigurationError(f"duplicate parameter name: {name!r}")
        t = Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)
        t.grad = np.zeros_like(t.values)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        if name not in self._params:
            raise ConfigurationError(f"unknown parameter: {name!r}")
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._params.items())

    def zero_grads(self) -> None:
        for t in self._params.values():
            t.grad = np.zeros_like(t.values)

    def grad_global_norm(self) -> float:
        total = 0.0
        for t in self._params.values():
            if t.grad is None:
                raise StateError("gradient buffer missing; run backward first")
            total += float(np.sum(t.grad * t.grad))
        return float(np.sqrt(total))


@dataclass
class AdamConfig:
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float = 0.1


@dataclass
class AdamState:
    """First/second moment estimates per parameter plus the shared step count."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0

    @classmethod
    def for_store(cls, store: ParamStore) -> "AdamState":
        state = cls()
        for name, t in store.items():
            state.m[name] = np.zeros_like(t.values)
            state.v[name] = np.zeros_like(t.values)
        return state


def clip_gradients(store: ParamStore, max_norm: float) -> float:
    """Scale all gradients in place so their global norm is at most ``max_norm``.

    Returns the pre-clip global norm.
    """
    norm = store.grad_global_norm()
    if norm > max_norm and norm > 0.0:
        factor = max_norm / norm
        for _, t in store.items():
            t.grad *= factor
    return norm


def adam_step(store: ParamStore, state: AdamState, config: AdamConfig) -> float:
    """One clipped, bias-corrected Adam update. Gradients are zeroed afterwards.

    Returns the pre-clip gradient norm, handy for logging.
    """
    for name, t in store.items():
        if t.grad is None:
            raise StateError(f"parameter {name!r} has no gradient; run backward first")
        if name not in state.m:
            raise StateError(f"optimizer state missing for parameter {name!r}")

    norm = clip_gradients(store, config.clip_norm)
    state.step += 1
    bc1 = 1.0 - config.beta1 ** state.step
    bc2 = 1.0 - config.beta2 ** state.step
    for name, t in store.items():
        g = t.grad
        m = state.m[name]
        v = state.v[name]
        m *= config.beta1
        m += (1.0 - config.beta1) * g
        v *= config.beta2
        v += (1.0 - config.beta2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        t.values -= config.lr * m_hat / (np.sqrt(v_hat) + config.eps)
    store.zero_grads()
    return norm


# ---------------------------------------------------------------------------
# checkpoint serialization
#
# Layout (all integers little-endian):
#   4s   magic "CVRK"
#   u32  format version
#   u32  parameter count
#   per parameter, in store order:
#     u16 name length, utf-8 name bytes
#     u8  rank, then u32 per dimension
#     float64 little-endian raw values, C order
#   u8   optimizer flag (0 absent, 1 Adam)
#   if Adam: u64 step, then per parameter (same order): m values, v values


def _write_array(fh, arr: np.ndarray) -> None:
    fh.write(arr.astype("<f8", copy=False).tobytes(order="C"))


def _read_exact(fh, n: int) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise ParseError(f"checkpoint truncated: wanted {n} bytes, got {len(buf)}")
    return buf


def _read_array(fh, size: int, shape: tuple[int, ...]) -> np.ndarray:
    """Read float64 values of ``shape``, refusing before the read a shape that
    the rest of a ``size``-byte file cannot hold."""
    count = math.prod(shape)  # Python ints: no wrap-around
    left = size - fh.tell()
    if 8 * count > left:
        raise ParseError(f"checkpoint truncated: header claims shape {shape} "
                         f"({8 * count} bytes) but {left} bytes remain")
    raw = _read_exact(fh, 8 * count)
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


@contextmanager
def atomic_write(path: str | Path, text: bool = False) -> Iterator[BinaryIO | TextIO]:
    """A binary file, or with ``text`` a UTF-8 text file, that replaces ``path``
    only once the block completes.

    Its bytes go to ``<path>.tmp`` in the same directory, which ``os.replace``
    then swaps in, so ``path`` holds the old bytes or the new ones, never a
    part. On an error the temp file is removed and ``path`` is untouched.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") if text else open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(path: str | Path, store: ParamStore, state: AdamState | None = None) -> None:
    with atomic_write(path) as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(store)))
        for name, t in store.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", t.values.ndim))
            for dim in t.values.shape:
                fh.write(struct.pack("<I", dim))
            _write_array(fh, t.values)
        if state is None:
            fh.write(struct.pack("<B", 0))
        else:
            fh.write(struct.pack("<B", 1))
            fh.write(struct.pack("<Q", state.step))
            for name, t in store.items():
                _write_array(fh, state.m[name])
                _write_array(fh, state.v[name])


def read_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], AdamState | None]:
    """Read a checkpoint into plain arrays without needing a pre-built store."""
    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(f"checkpoint not found: {path}")
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if _read_exact(fh, 4) != _MAGIC:
            raise ParseError(f"not a checkpoint file: {path}")
        version, count = struct.unpack("<II", _read_exact(fh, 8))
        if version != _VERSION:
            raise ParseError(f"unsupported checkpoint version {version}")
        params: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2))
            name = _read_exact(fh, name_len).decode("utf-8")
            (rank,) = struct.unpack("<B", _read_exact(fh, 1))
            shape = tuple(
                struct.unpack("<I", _read_exact(fh, 4))[0] for _ in range(rank)
            )
            if name in params:
                raise ParseError(f"duplicate parameter in checkpoint: {name!r}")
            params[name] = _read_array(fh, size, shape)
        (opt_flag,) = struct.unpack("<B", _read_exact(fh, 1))
        state: AdamState | None = None
        if opt_flag == 1:
            (step,) = struct.unpack("<Q", _read_exact(fh, 8))
            state = AdamState(step=step)
            for name, arr in params.items():
                state.m[name] = _read_array(fh, size, arr.shape)
                state.v[name] = _read_array(fh, size, arr.shape)
        elif opt_flag != 0:
            raise ParseError(f"unknown optimizer flag {opt_flag}")
        return params, state


def load_checkpoint(path: str | Path, store: ParamStore) -> AdamState | None:
    """Load values into an existing store; names and shapes must match exactly."""
    params, state = read_checkpoint(path)
    if set(params) != set(store.names()):
        missing = sorted(set(store.names()) - set(params))
        extra = sorted(set(params) - set(store.names()))
        raise ConfigurationError(
            f"checkpoint does not match model: missing {missing}, unexpected {extra}"
        )
    for name, arr in params.items():
        t = store[name]
        if arr.shape != t.values.shape:
            raise ConfigurationError(
                f"parameter {name!r}: checkpoint shape {arr.shape} != model shape {t.values.shape}"
            )
        t.values[...] = arr
        t.grad = np.zeros_like(t.values)
    return state
