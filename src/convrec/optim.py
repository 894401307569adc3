"""Trainable parameter store, Adam, gradient clipping, checkpoints, and file I/O."""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, TextIO

import numpy as np

from .autodiff import Tensor
from .errors import ConfigurationError, MissingArtifactError, ParseError, StateError

_MAGIC = b"CVRK"
_VERSION = 3
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
    parameter land in the arena, and no parameter can be added.

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


@contextmanager
def atomic_write(path: str | Path, text: bool = False) -> Iterator[BinaryIO | TextIO]:
    """A binary file, or with ``text`` a UTF-8 text file, that replaces ``path``
    only once the block completes.

    Its bytes go to ``<path>.tmp`` in the same directory, which ``os.replace``
    then swaps in, so ``path`` holds the old bytes or the new ones, never a
    part. On an error the temp file is removed and ``path`` is untouched. A
    location that cannot take the file (no directory to hold it, or ``path``
    a directory) or a write that fails (a full disk) raises ConfigurationError.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        fh = open(tmp, "w", encoding="utf-8") if text else open(tmp, "wb")
    except OSError as err:
        raise ConfigurationError(f"cannot write {path}: {err.strerror}") from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as err:
        tmp.unlink(missing_ok=True)
        if isinstance(err, OSError):
            raise ConfigurationError(f"cannot write {path}: {err.strerror or err}") from None
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




# ---------------------------------------------------------------------------
# named-array containers (model.ckpt), after the safetensors layout:
# 4-byte magic, u32 version, u64 header length, then the header, compact ASCII
# JSON {name: {"dtype", "shape", "range"}} in write order, padded with spaces to
# an 8-byte boundary, then each array's little-endian C-order bytes; "range" is
# its [start, end) in the data, and the ranges tile the data in order

_PREFIX = struct.Struct("<4sIQ")
# the only dtypes an array may have: no object dtype, so nothing is unpickled
_DTYPES = ("<f8", "<i8", "|u1")


def _header_bytes(arrays: Iterable[tuple[str, np.ndarray]]) -> bytes:
    """The one header a container of the named ``arrays`` may hold."""
    header, end = {}, 0
    for name, a in arrays:
        if a.dtype.str not in _DTYPES:
            raise ValueError(f"array {name!r} has dtype {a.dtype.str}, not one of {_DTYPES}")
        header[name] = {"dtype": a.dtype.str, "shape": a.shape, "range": [end, end + a.nbytes]}
        end += a.nbytes
    text = json.dumps(header, separators=(",", ":")).encode("ascii")
    return text + b" " * (-len(text) % 8)


def _unique_names(pairs: list[tuple[str, object]]) -> dict:
    if len(names := dict(pairs)) < len(pairs):
        raise ParseError("container header names an array twice")
    return names


def save_arrays(path: str | Path, magic: bytes, version: int,
                arrays: dict[str, np.ndarray]) -> str:
    """Write ``arrays``, in order, as a container (through :func:`atomic_write`);
    returns the sha256 of the bytes written."""
    arrays = {name: np.asarray(a, order="C") for name, a in arrays.items()}
    head = _header_bytes(arrays.items())
    digest = hashlib.sha256()
    with atomic_write(path) as fh:
        for part in (_PREFIX.pack(magic, version, len(head)) + head, *arrays.values()):
            fh.write(part)
            digest.update(part)
    return digest.hexdigest()


def read_arrays(raw: bytes, magic: bytes, version: int, what: str) -> dict[str, np.ndarray]:
    """The arrays of container bytes ``raw``, in order, each a read-only view of
    one byte array over ``raw``, their common ``base``.

    Bytes that :func:`save_arrays` would not write for the arrays they hold
    raise ParseError, so what loads saves back to ``raw``. No array is made
    before its bytes are known to be there.
    """
    if len(raw) < _PREFIX.size or raw[:4] != magic:
        raise ParseError(f"not a {what}")
    _, got, size = _PREFIX.unpack_from(raw)
    if got != version:
        raise ParseError(f"unsupported {what} version {got}")
    left = len(raw) - _PREFIX.size
    if size > left:
        raise ParseError(f"{what} truncated: header claims {size} bytes but {left} bytes remain")
    start = _PREFIX.size + size
    head = raw[_PREFIX.size:start]
    try:
        header = json.loads(head.decode("ascii"), object_pairs_hook=_unique_names)
    except (ValueError, RecursionError) as err:
        raise ParseError(f"{what} header is not ASCII JSON: {err}") from None
    if not isinstance(header, dict):
        raise ParseError(f"{what} header is not a JSON object")
    arrays, end, left = {}, 0, len(raw) - start
    data = np.frombuffer(raw, np.uint8)
    for name, entry in header.items():
        if not (isinstance(entry, dict) and entry.get("dtype") in _DTYPES
                and type(shape := entry.get("shape")) is list
                and all(type(d) is int and d >= 0 for d in shape)):
            raise ParseError(f"{what} array {name!r} has no dtype of {_DTYPES} and shape "
                             f"of sizes >= 0: {entry!r}")
        dtype, count = np.dtype(entry["dtype"]), math.prod(shape)  # Python ints: no wrap
        if dtype.itemsize * count > left - end:
            raise ParseError(f"{what} truncated: header claims shape {tuple(shape)} "
                             f"({dtype.itemsize * count} bytes) but {left - end} bytes remain")
        try:
            at = start + end
            arrays[name] = data[at:at + dtype.itemsize * count].view(dtype).reshape(shape)
        except ValueError as err:  # a rank above numpy's limit
            raise ParseError(f"{what} array {name!r} of shape {tuple(shape)}: {err}") from None
        end += dtype.itemsize * count
    if end != left:
        raise ParseError(f"{what} has {left - end} trailing bytes")
    # the byte ranges, key order, spacing and escapes: all as the writer puts them
    if _header_bytes(arrays.items()) != head:
        raise ParseError(f"{what} header is not the one its arrays are written with")
    return arrays


def save_checkpoint(path: str | Path, store: ParamStore,
                    extra: dict[str, np.ndarray] | None = None) -> str:
    """Write every parameter, in store order, then the ``extra`` arrays; returns
    the sha256 of the bytes written."""
    return save_arrays(path, _MAGIC, _VERSION,
                       {**{name: t.values for name, t in store.items()}, **(extra or {})})


def read_checkpoint(raw: bytes) -> dict[str, np.ndarray]:
    """The arrays of checkpoint bytes ``raw``, each a read-only float64 view."""
    params = read_arrays(raw, _MAGIC, _VERSION, "checkpoint")
    for name, arr in params.items():
        if arr.dtype.str != "<f8":
            raise ParseError(f"checkpoint array {name!r} has dtype {arr.dtype.str}, not <f8")
    return params


def load_checkpoint(raw: bytes, store: ParamStore,
                    extra: dict[str, tuple[int, ...]] | None = None) -> dict[str, np.ndarray]:
    """Make each parameter of an unpacked store its array in checkpoint bytes ``raw``
    and return the ``extra`` arrays, named with their shapes. The checkpoint
    holds exactly the store's parameters and those arrays, each in its shape,
    else ConfigurationError before any parameter changes. Nothing is copied:
    each array is a read-only view of ``raw`` (:func:`read_arrays`)."""
    if store.arena is not None:
        raise StateError("cannot load a checkpoint into a packed store")
    params = read_checkpoint(raw)
    shapes = {**{name: t.values.shape for name, t in store.items()}, **(extra or {})}
    if set(params) != set(shapes):
        missing = sorted(set(shapes) - set(params))
        unexpected = sorted(set(params) - set(shapes))
        raise ConfigurationError(
            f"checkpoint does not match model: missing {missing}, unexpected {unexpected}"
        )
    for name, arr in params.items():
        if arr.shape != shapes[name]:
            raise ConfigurationError(
                f"array {name!r}: checkpoint shape {arr.shape} != model shape {shapes[name]}"
            )
    for name, t in store.items():
        t.values = params[name]
    store.zero_grads()
    return {name: params[name] for name in extra or ()}
