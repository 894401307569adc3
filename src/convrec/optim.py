"""Trainable parameter store, Adam, gradient clipping, and checkpoints."""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator, TextIO

import numpy as np

from .autodiff import Tensor
from .errors import ConfigurationError, MissingArtifactError, ParseError, StateError

_MAGIC = b"CVRK"
_VERSION = 1
# entries per Adam block: the block's six arrays (768 KiB) stay in a core's L2 cache
_ADAM_BLOCK = 16384


class ParamStore:
    """Named trainable tensors, each holding a gradient of its own shape.

    A parameter starts with, and returns to after every :func:`adam_step`,
    its zero stand-in: a read-only broadcast zero that holds no buffer.
    ``backward`` replaces the gradient of every parameter it reaches with
    the array the tape hands it, so a parameter the loss does not reach
    keeps an exact zero gradient and no step allocates zeros.

    :meth:`pack`, which :meth:`AdamState.for_store` calls when training
    starts, moves every parameter's values into one flat float64 arena;
    each ``values`` is then a view of its slice, so writes into a
    parameter (a checkpoint load, say) land in the arena, and no parameter
    can be added.

    Iteration order is insertion order everywhere (updates, checkpoints,
    gradient norms, the arena's layout), which keeps every downstream
    computation deterministic.
    """

    def __init__(self) -> None:
        self._params: dict[str, Tensor] = {}
        self._zeros: dict[str, np.ndarray] = {}
        self.arena: np.ndarray | None = None

    def add(self, name: str, values: np.ndarray) -> Tensor:
        if self.arena is not None:
            raise StateError(f"cannot add parameter {name!r}: the store is packed")
        if name in self._params:
            raise ConfigurationError(f"duplicate parameter name: {name!r}")
        t = Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)
        self._params[name] = t
        self._zeros[name] = t.grad = np.broadcast_to(np.zeros(()), t.values.shape)
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

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each parameter's slice of ``flat``, laid out as the arena, in its shape."""
        views, lo = {}, 0
        for name, t in self._params.items():
            views[name] = flat[lo:lo + t.values.size].reshape(t.values.shape)
            lo += t.values.size
        return views

    def pack(self) -> np.ndarray:
        """Copy every parameter's values into one flat arena, in store order, and
        make each ``values`` a view of its slice; returns the arena. Packing a
        packed store returns its arena."""
        if self.arena is None:
            arena = np.empty(sum(t.values.size for t in self._params.values()))
            for t, view in zip(self._params.values(), self.views(arena).values()):
                view[...] = t.values
                t.values = view
            self.arena = arena
        return self.arena

    def zero_grads(self) -> None:
        """Give every parameter its zero stand-in; nothing is allocated."""
        for name, t in self._params.items():
            t.grad = self._zeros[name]

    def grad_global_norm(self) -> float:
        """sqrt of the sum, in parameter order, of ``np.sum(g * g)`` over the gradients.

        Every gradient is squared into one scratch buffer per call, sized
        for the largest, in its memory order (``ravel(order="K")``, a view
        for a contiguous gradient), which is the layout ``g * g`` would get,
        so every sum has the expression form's bits. A zero stand-in adds
        exactly 0.0 and is skipped.
        """
        scratch = np.empty(max((t.values.size for t in self._params.values()), default=0))
        total = 0.0
        for name, t in self._params.items():
            g = t.grad
            if g is None:
                raise StateError("gradient buffer missing; run backward first")
            if g is self._zeros[name]:
                continue
            flat = g.ravel(order="K")
            total += float(np.sum(np.multiply(flat, flat, out=scratch[:g.size])))
        return float(np.sqrt(total))


# Adam's moment decay rates and the floor added to the root of the second moment
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamConfig:
    lr: float = 0.001
    clip_norm: float = 0.1


@dataclass
class AdamState:
    """First/second moment estimates, two flat arrays laid out as the store's
    arena, plus the shared step count."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def for_store(cls, store: ParamStore) -> "AdamState":
        """Zero moments for ``store``, which this packs (:meth:`ParamStore.pack`)."""
        m = np.zeros_like(store.pack())
        return cls(m, np.zeros_like(m))


def adam_step(store: ParamStore, state: AdamState, config: AdamConfig) -> float:
    """One clipped, bias-corrected Adam update of the whole arena, run in place.

    ``state`` comes from :meth:`AdamState.for_store` of ``store``. The arena
    and the moments are updated in ``_ADAM_BLOCK``-sized slices, so
    every op reads a block its predecessor left in cache. Each block first
    gathers its gradients into one block-sized scratch, times the clip
    factor when the clip fires, and zeros for the zero stand-ins; two more
    scratch buffers hold the intermediates. The operations are those of the
    expression form, in the same order, so every update is the same to the
    bit. Afterwards every parameter holds its zero stand-in
    (:meth:`ParamStore.zero_grads`). Returns the pre-clip gradient norm,
    handy for logging.
    """
    for name, t in store.items():
        if t.grad is None:
            raise StateError(f"parameter {name!r} has no gradient; run backward first")
    arena = store.arena
    if arena is None or not state.m.size == state.v.size == arena.size:
        raise StateError("optimizer state was not made for this store by AdamState.for_store")

    norm = store.grad_global_norm()
    clip = config.clip_norm / norm if norm > config.clip_norm and norm > 0.0 else None
    state.step += 1
    bc1 = 1.0 - BETA1 ** state.step
    bc2 = 1.0 - BETA2 ** state.step
    # (first arena entry, C-order entries) of every gradient the tape reached
    spans, lo = [], 0
    for name, t in store.items():
        if t.grad is not store._zeros[name]:
            spans.append((lo, t.grad.reshape(-1)))
        lo += t.values.size
    spans.append((arena.size, arena[:0]))  # a sentinel past every block
    m_all, v_all = state.m, state.v
    g_buf, a_buf, b_buf = (np.empty(min(_ADAM_BLOCK, arena.size)) for _ in range(3))
    k = 0
    for lo in range(0, arena.size, _ADAM_BLOCK):
        hi = min(lo + _ADAM_BLOCK, arena.size)
        g, a, b = g_buf[:hi - lo], a_buf[:hi - lo], b_buf[:hi - lo]
        filled = lo
        while spans[k][0] < hi:
            start, flat = spans[k]
            s, e = max(start, lo), min(start + flat.size, hi)
            g[filled - lo:s - lo] = 0.0
            if clip is None:
                g[s - lo:e - lo] = flat[s - start:e - start]
            else:
                np.multiply(flat[s - start:e - start], clip, out=g[s - lo:e - lo])
            filled = e
            if start + flat.size > hi:  # it goes on in the next block
                break
            k += 1
        g[filled - lo:] = 0.0
        x, m, v = arena[lo:hi], m_all[lo:hi], v_all[lo:hi]
        m *= BETA1
        m += np.multiply(g, 1.0 - BETA1, out=a)
        v *= BETA2
        np.multiply(g, g, out=a)
        v += np.multiply(a, 1.0 - BETA2, out=a)
        np.divide(m, bc1, out=b)
        np.divide(v, bc2, out=a)
        np.sqrt(a, out=a)
        a += EPS
        np.multiply(b, config.lr, out=b)
        x -= np.divide(b, a, out=b)
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
#   u8   optimizer flag, always 0: a checkpoint holds parameters only


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
    try:
        return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    except ValueError as err:  # a rank above numpy's limit
        raise ParseError(f"checkpoint shape of rank {len(shape)}: {err}") from None


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


@contextmanager
def open_input(path: str | Path, what: str, text: bool = False) -> Iterator[BinaryIO | TextIO]:
    """``path`` open to read, binary or with ``text`` UTF-8 text; every input
    file the package reads opens here. A file that cannot be opened (missing, a
    directory) raises MissingArtifactError, and text that is not UTF-8
    raises ParseError when the block reads it.
    """
    path = Path(path)
    try:
        fh = open(path, encoding="utf-8") if text else open(path, "rb")
    except FileNotFoundError:
        raise MissingArtifactError(f"{what} not found: {path}") from None
    except OSError as err:
        raise MissingArtifactError(f"{what} cannot be read: {path}: {err.strerror}") from None
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as err:
            raise ParseError(f"{what} is not UTF-8 text: {path}: {err}") from None


def save_checkpoint(path: str | Path, store: ParamStore) -> None:
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
        fh.write(struct.pack("<B", 0))


def read_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    """Read a checkpoint into plain arrays without needing a pre-built store."""
    with open_input(path, "checkpoint") as fh:
        size = os.fstat(fh.fileno()).st_size
        if _read_exact(fh, 4) != _MAGIC:
            raise ParseError(f"not a checkpoint file: {path}")
        version, count = struct.unpack("<II", _read_exact(fh, 8))
        if version != _VERSION:
            raise ParseError(f"unsupported checkpoint version {version}")
        params: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2))
            try:
                name = _read_exact(fh, name_len).decode("utf-8")
            except UnicodeDecodeError as err:
                raise ParseError(f"a parameter name is not UTF-8: {err}") from None
            (rank,) = struct.unpack("<B", _read_exact(fh, 1))
            shape = tuple(
                struct.unpack("<I", _read_exact(fh, 4))[0] for _ in range(rank)
            )
            if name in params:
                raise ParseError(f"duplicate parameter in checkpoint: {name!r}")
            params[name] = _read_array(fh, size, shape)
        (opt_flag,) = struct.unpack("<B", _read_exact(fh, 1))
        if opt_flag != 0:
            raise ParseError(f"unknown optimizer flag {opt_flag}")
        if fh.tell() != size:
            raise ParseError(f"checkpoint has {size - fh.tell()} trailing bytes: {path}")
        return params


def load_checkpoint(path: str | Path, store: ParamStore) -> None:
    """Load values into an existing store; names and shapes must match exactly."""
    params = read_checkpoint(path)
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
    store.zero_grads()
