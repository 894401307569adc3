"""Dense-tensor reverse-mode automatic differentiation.

Every operation that touches a gradient-requiring input records a backward
closure on the produced tensor; ``backward`` replays the closures in reverse
topological order. Inference runs without a tape: inside a :func:`no_grad`
scope no operation records, so every intermediate is freed as soon as nothing
holds it. Shapes are explicit: there is no broadcasting, and shape
mismatches raise :class:`~convrec.errors.ShapeError` naming both operands.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from itertools import accumulate, chain
from typing import Callable, Collection, Iterable, Iterator, Sequence

import numpy as np
from scipy import sparse as sp

from .errors import NumericError, ShapeError, StateError


class Tensor:
    """A dense array plus an optional gradient and tape node.

    ``grad`` is set by :func:`backward`, which hands each reached node the
    array its consumers built, and always matches ``values`` in shape. A
    trainable parameter the tape does not reach keeps the read-only zero
    stand-in of :class:`convrec.optim.ParamStore`.
    """

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"


def constant(values) -> Tensor:
    """A tensor that never receives gradients."""
    return Tensor(values, requires_grad=False)


_recording = True


@contextmanager
def no_grad() -> Iterator[None]:
    """A scope in which no operation records: outputs have no parents, no
    closure and ``requires_grad=False``, even when their inputs are
    parameters. The previous state comes back on exit, also when the body
    raises. As ``@no_grad()`` it runs a whole function in the scope.
    """
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


def _record(out: Tensor, parents: tuple[Tensor, ...], fn: Callable[[np.ndarray], None]) -> Tensor:
    if _recording and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = fn
    return out


def _accum(t: Tensor, g: np.ndarray, owned: bool) -> None:
    """Add ``g`` into ``t.grad``.

    ``owned`` says nothing else holds ``g``: a closure built it, or it is (a
    view of, or a disjoint slice of) the consumed gradient of the node being
    replayed, handed to this one parent. Only then may ``g`` become
    ``t.grad`` without a copy.
    """
    if t.grad is None:
        t.grad = g if owned and g.dtype == t.values.dtype else np.array(g, dtype=t.values.dtype)
    else:
        t.grad += g


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.values.shape != b.values.shape:
        raise ShapeError(f"{op}: shapes {a.values.shape} and {b.values.shape} differ")


def backward(root: Tensor) -> None:
    """Populate gradients of everything reachable from a scalar ``root``.

    Reached nodes restart from ``None``, so repeated calls on the same tape
    are bitwise reproducible. Each interior node's gradient is taken off the
    node and consumed by its closure, which hands it (or arrays it builds)
    on to the parents without copying; interior nodes read ``None``
    afterwards. Leaves (parameters and any tensor made with
    ``requires_grad=True``) keep their gradients, and no two of them share a
    buffer.

    Raises StateError inside a :func:`no_grad` scope, where no tape exists
    to replay.
    """
    if not _recording:
        raise StateError("backward called inside a no_grad scope")
    if root.values.ndim != 0:
        raise ShapeError(f"backward root must be scalar, got shape {root.values.shape}")

    # Iterative topological sort; recursion would overflow on deep tapes.
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))

    for node in topo:
        node.grad = None
    root.grad = np.ones_like(root.values)
    for node in reversed(topo):
        if node._backward_fn is not None and node.grad is not None:
            g, node.grad = node.grad, None
            node._backward_fn(g)


# ---------------------------------------------------------------------------
# elementwise and affine primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    out = Tensor(a.values + b.values)

    def bw(g: np.ndarray) -> None:
        # g goes to one parent; the other gets a copy (or, when a is b,
        # adds g onto itself in place: 2g)
        if a.requires_grad:
            _accum(a, g, True)
        if b.requires_grad:
            _accum(b, g, not a.requires_grad)

    return _record(out, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape tensors."""
    _same_shape(a, b, "mul")
    out = Tensor(a.values * b.values)

    def bw(g: np.ndarray) -> None:
        if a.requires_grad:
            _accum(a, g * b.values, True)
        if b.requires_grad:
            _accum(b, g * a.values, True)

    return _record(out, (a, b), bw)


def blend(gate: Tensor, a: Tensor, b: Tensor) -> Tensor:
    """gate * a + (1 - gate) * b, elementwise over same-shape tensors."""
    _same_shape(gate, a, "blend")
    _same_shape(gate, b, "blend")
    keep = 1.0 - gate.values
    out = Tensor(gate.values * a.values + keep * b.values)

    def bw(g: np.ndarray) -> None:
        if gate.requires_grad:
            _accum(gate, g * a.values - g * b.values, True)
        if a.requires_grad:
            _accum(a, g * gate.values, True)
        if b.requires_grad:
            _accum(b, g * keep, True)

    return _record(out, (gate, a, b), bw)


def add_const(a: Tensor, c) -> Tensor:
    """Add a non-differentiable constant (scalar or same-shape array)."""
    c_arr = np.asarray(c)
    if c_arr.ndim != 0 and c_arr.shape != a.values.shape:
        raise ShapeError(f"add_const: shapes {a.values.shape} and {c_arr.shape} differ")
    out = Tensor(a.values + c_arr)

    def bw(g: np.ndarray) -> None:
        _accum(a, g, True)

    return _record(out, (a,), bw)


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.values, 0))

    def bw(g: np.ndarray) -> None:
        g *= a.values > 0  # g is consumed here: masked in place, then handed on
        _accum(a, g, True)

    return _record(out, (a,), bw)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.values)
    out = Tensor(y)

    def bw(g: np.ndarray) -> None:
        _accum(a, g * (1.0 - y * y), True)

    return _record(out, (a,), bw)


def sigmoid(a: Tensor) -> Tensor:
    """1 / (1 + exp(-a)) for a >= 0 and exp(a) / (1 + exp(a)) below, from one exp.

    e = exp(-|a|) never overflows, and min(a, -a) keeps a NaN's sign, so each
    entry is the two-branch formula's bit for bit.
    """
    e = np.exp(np.minimum(a.values, -a.values))
    y = np.where(a.values >= 0, 1.0, e) / (1.0 + e)
    out = Tensor(y)

    def bw(g: np.ndarray) -> None:
        _accum(a, g * y * (1.0 - y), True)

    return _record(out, (a,), bw)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product: (n,k)@(k,m) -> (n,m) or matrix-vector (n,k)@(k,) -> (n,)."""
    if a.values.ndim != 2 or b.values.ndim not in (1, 2):
        raise ShapeError(f"matmul: unsupported ranks {a.values.shape} @ {b.values.shape}")
    if a.values.shape[1] != b.values.shape[0]:
        raise ShapeError(f"matmul: inner dims of {a.values.shape} and {b.values.shape} differ")
    out = Tensor(a.values @ b.values)

    def bw(g: np.ndarray) -> None:
        if b.values.ndim == 2:
            if a.requires_grad:
                _accum(a, g @ b.values.T, True)
            if b.requires_grad:
                _accum(b, a.values.T @ g, True)
        else:
            if a.requires_grad:
                _accum(a, np.outer(g, b.values), True)
            if b.requires_grad:
                _accum(b, a.values.T @ g, True)

    return _record(out, (a, b), bw)


def transpose(a: Tensor) -> Tensor:
    if a.values.ndim != 2:
        raise ShapeError(f"transpose: expected a matrix, got shape {a.values.shape}")
    # a view: tape values are never written in place, only parameters are
    out = Tensor(a.values.T)

    def bw(g: np.ndarray) -> None:
        _accum(a, g.T, True)

    return _record(out, (a,), bw)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    """A view of ``a`` with a new shape holding the same number of entries."""
    if any(s < 0 for s in shape) or math.prod(shape) != a.values.size:
        raise ShapeError(f"reshape: cannot view shape {a.values.shape} as {tuple(shape)}")
    out = Tensor(a.values.reshape(shape))

    def bw(g: np.ndarray) -> None:
        _accum(a, g.reshape(a.values.shape), True)

    return _record(out, (a,), bw)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along ``axis``. All parts must share rank and every other dim."""
    if not parts:
        raise ShapeError("concat: no inputs")
    try:
        out = Tensor(np.concatenate([p.values for p in parts], axis=axis))
    except ValueError:  # numpy's own check of ranks, dims and axis
        raise ShapeError(f"concat: incompatible shapes {[p.values.shape for p in parts]} "
                         f"along axis {axis}") from None

    def bw(g: np.ndarray) -> None:
        at = [slice(None)] * g.ndim
        off = 0
        for p in parts:
            n = p.values.shape[axis]
            if p.requires_grad:
                at[axis] = slice(off, off + n)
                _accum(p, g[tuple(at)], True)
            off += n

    return _record(out, tuple(parts), bw)


def lookup(table: Tensor, indices: Sequence[int]) -> Tensor:
    """Gather rows of a matrix; backward scatter-adds into the table.

    The scatter is one buffered ``grad[idx] += g`` when the rows are distinct
    and ``np.add.at`` when one repeats; both add each entry exactly once.
    """
    if table.values.ndim != 2:
        raise ShapeError(f"lookup: expected a matrix, got shape {table.values.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    # as unsigned ints, negative indices are huge: one reduction checks both ends
    if idx.size and idx.view(np.uintp).max() >= table.values.shape[0]:
        raise ShapeError(
            f"lookup: index out of range for table with {table.values.shape[0]} rows"
        )
    out = Tensor(table.values[idx])

    def bw(g: np.ndarray) -> None:
        if table.grad is None:
            table.grad = np.zeros_like(table.values)
        if np.bincount(idx).max(initial=0) <= 1:  # distinct rows: a buffered add is exact
            table.grad[idx] += g
        else:
            np.add.at(table.grad, idx, g)

    return _record(out, (table,), bw)


def scatter_rows(src: Tensor, indices: Sequence[int], n_rows: int) -> Tensor:
    """Place rows of ``src`` at ``indices`` of an otherwise-zero (n_rows, d) matrix.

    Indices must be distinct rows in [0, n_rows); this is placement, not
    accumulation.
    """
    if src.values.ndim != 2:
        raise ShapeError(f"scatter_rows: expected a matrix, got shape {src.values.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size and idx.view(np.uintp).max() >= n_rows:
        raise ShapeError(f"scatter_rows: target row out of range for {n_rows} rows")
    if (np.bincount(idx, minlength=n_rows) > 1).any():
        raise ShapeError("scatter_rows: duplicate target rows")
    vals = np.zeros((n_rows, src.values.shape[1]), dtype=src.values.dtype)
    vals[idx] = src.values
    out = Tensor(vals)

    def bw(g: np.ndarray) -> None:
        _accum(src, g[idx], True)

    return _record(out, (src,), bw)


def spmm(a: sp.spmatrix, a_t: sp.spmatrix, x: Tensor) -> Tensor:
    """Multiply by a constant sparse matrix: out = a @ x.

    ``a_t`` is ``a``'s transpose, which the backward multiplies by. The
    caller builds it once, with ``a`` (``a.T``, a CSC over a CSR's arrays),
    so no call builds a sparse matrix.
    """
    if x.values.ndim != 2 or a.shape[1] != x.values.shape[0]:
        raise ShapeError(f"spmm: shapes {a.shape} and {x.values.shape} incompatible")
    if a_t.shape != a.shape[::-1]:
        raise ShapeError(f"spmm: transpose shape {a_t.shape} does not fit {a.shape}")
    out = Tensor(np.asarray(a @ x.values))

    def bw(g: np.ndarray) -> None:
        _accum(x, np.asarray(a_t @ g), True)

    return _record(out, (x,), bw)


# ---------------------------------------------------------------------------
# reductions and normalizations


def softmax(a: Tensor) -> Tensor:
    """Softmax of each row of a matrix (max-shifted for stability)."""
    if a.values.ndim != 2:
        raise ShapeError(f"softmax: expected a matrix, got shape {a.values.shape}")
    e = np.exp(a.values - a.values.max(axis=1, keepdims=True))
    y = e / e.sum(axis=1, keepdims=True)
    out = Tensor(y)

    def bw(g: np.ndarray) -> None:
        _accum(a, y * (g - np.einsum("ij,ij->i", g, y)[:, None]), True)

    return _record(out, (a,), bw)


class Segments:
    """B groups of ints laid out CSR-style: group b is ``rows[offsets[b]:offsets[b + 1]]``.

    A group may be empty. ``Segments(rows, offsets)`` is the one check of
    offsets: a vector rising from 0 to ``len(rows)``, else ShapeError. The
    other constructors and methods build offsets that are right by
    construction and skip it.
    """

    __slots__ = ("rows", "offsets", "_nonempty")

    def __init__(self, rows, offsets):
        rows = np.asarray(rows, dtype=np.intp)
        offsets = np.asarray(offsets, dtype=np.intp)
        bounds = offsets.tolist()  # plain ints: cheaper to check than numpy reductions
        if (rows.ndim != 1 or offsets.ndim != 1 or not bounds or bounds[0] != 0
                or bounds[-1] != len(rows) or bounds != sorted(bounds)):
            raise ShapeError(f"segment offsets must rise from 0 to {len(rows)} in a vector")
        self.rows, self.offsets, self._nonempty = rows, offsets, None

    @classmethod
    def _built(cls, rows: np.ndarray, offsets: np.ndarray) -> Segments:
        """Intp ``rows`` and ``offsets`` that are right by construction, unchecked."""
        out = cls.__new__(cls)
        out.rows, out.offsets, out._nonempty = rows, offsets, None
        return out

    @classmethod
    def of(cls, groups: Sequence[Collection[int]]) -> Segments:
        offsets = np.fromiter(accumulate(map(len, groups), initial=0), np.intp, len(groups) + 1)
        return cls._built(np.fromiter(chain.from_iterable(groups), np.intp, offsets[-1]), offsets)

    @classmethod
    def none(cls, n: int) -> Segments:
        """n empty groups."""
        return cls._built(np.zeros(0, np.intp), np.zeros(n + 1, np.intp))

    @classmethod
    def spans(cls, values: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> Segments:
        """Group k is ``values[starts[k]:stops[k]]`` of the intp ``values``; spans may overlap."""
        counts = stops - starts
        offsets = np.zeros(len(counts) + 1, np.intp)
        np.add.accumulate(counts, out=offsets[1:])  # np.cumsum costs 3x as much on a few groups
        # row j of group k is values[starts[k] + j - offsets[k]]
        at = (starts - offsets[:-1]).repeat(counts)
        at += np.arange(len(at))
        return cls._built(values[at], offsets)

    def take(self, idx: np.ndarray) -> Segments:
        """Groups ``idx`` (intp in [0, B), repeats allowed) in that order, gathered at once."""
        # as unsigned ints, negative ids are huge: one reduction checks both ends
        if idx.size and idx.view(np.uintp).max() >= len(self):
            raise ShapeError(f"take: group id out of range for {len(self)} groups")
        return self.spans(self.rows, self.offsets[idx], self.offsets[idx + 1])

    def regroup(self, bounds: np.ndarray) -> Segments:
        """Group k joins groups ``bounds[k]:bounds[k + 1]``; ``bounds`` rises from 0 to B."""
        return self._built(self.rows, self.offsets[bounds])

    def concat(self, other: Segments) -> Segments:
        """Group b is this group b followed by ``other``'s group b."""
        offsets = self.offsets + other.offsets
        if len(offsets) == 2:  # one group, as in a recommend turn: a fifth of the cost
            return self._built(np.concatenate((self.rows, other.rows)), offsets)
        rows = np.empty(offsets[-1], np.intp)
        # each row moves up by the other record's rows in the groups before and, for
        # ``other``, by this record's rows in its own group too
        rows[np.arange(len(self.rows)) + other.offsets[:-1].repeat(self.sizes)] = self.rows
        rows[np.arange(len(other.rows)) + self.offsets[1:].repeat(other.sizes)] = other.rows
        return self._built(rows, offsets)

    def first_rows(self) -> np.ndarray:
        """Ascending positions of the rows whose value is new to their group."""
        group = self.group_of_rows()
        order = np.lexsort((self.rows, group))  # stable: a value's first row leads its run
        value, group = self.rows[order], group[order]
        new = np.ones(len(order), bool)
        new[1:] = (value[1:] != value[:-1]) | (group[1:] != group[:-1])
        return np.sort(order[new])

    def distinct(self) -> Segments:
        """Each group without repeats: the first row of each value, in row order."""
        at = self.first_rows()
        return self._built(self.rows[at], at.searchsorted(self.offsets))

    @property
    def sizes(self) -> np.ndarray:
        """(B,) rows per group."""
        return self.offsets[1:] - self.offsets[:-1]

    def lookup(self, table: np.ndarray) -> Segments:
        """Each row mapped through the intp ``table``, dropping rows it maps to -1."""
        if not len(self.rows):  # nothing to map: the same empty groups
            return self
        mapped = table[self.rows]
        kept = (mapped >= 0).nonzero()[0]
        # a group's new offset counts the kept rows before its old one
        return self._built(mapped[kept], kept.searchsorted(self.offsets))

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def group_of_rows(self) -> np.ndarray:
        """The group of each row, in row order."""
        return np.arange(len(self)).repeat(self.sizes)

    @property
    def nonempty(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The non-empty groups' ids, first rows and sizes, computed when first
        read: ``ufunc.reduceat(x, starts)`` reduces exactly those groups."""
        if self._nonempty is None:
            sizes = self.sizes
            ids = sizes.nonzero()[0]
            self._nonempty = ids, self.offsets[ids], sizes[ids]
        return self._nonempty


def _check_rows(segments: Segments, n_rows: int, op: str) -> None:
    if len(segments.rows) != n_rows:
        raise ShapeError(f"{op}: offsets end at row {len(segments.rows)} of {n_rows} rows")


def segment_softmax(scores: Tensor, segments: Segments) -> Tensor:
    """Softmax of an (n,) score vector within each of the segments' groups
    (max-shifted for stability): entry i scores row i."""
    if scores.values.ndim != 1:
        raise ShapeError(f"segment_softmax: expected a vector, got shape {scores.values.shape}")
    _check_rows(segments, scores.values.shape[0], "segment_softmax")
    _, starts, counts = segments.nonempty
    s = scores.values
    e = np.exp(s - np.maximum.reduceat(s, starts).repeat(counts))
    y = e / np.add.reduceat(e, starts).repeat(counts)
    out = Tensor(y)

    def bw(g: np.ndarray) -> None:
        _accum(scores, y * (g - np.add.reduceat(g * y, starts).repeat(counts)), True)

    return _record(out, (scores,), bw)


def segment_sum(weights: Tensor, rows: Tensor, segments: Segments) -> Tensor:
    """(B, d) weighted row sums: row b sums weights[i] * rows[i] over group b of ``segments``.

    An empty group gives a zero row.
    """
    if (weights.values.ndim != 1 or rows.values.ndim != 2
            or weights.values.shape[0] != rows.values.shape[0]):
        raise ShapeError(
            f"segment_sum: expected (n,) and (n, d), got {weights.values.shape} and {rows.values.shape}"
        )
    _check_rows(segments, rows.values.shape[0], "segment_sum")
    ids, starts, counts = segments.nonempty
    w = weights.values[:, None]
    vals = np.zeros((len(segments), rows.values.shape[1]), dtype=rows.values.dtype)
    vals[ids] = np.add.reduceat(w * rows.values, starts, axis=0)
    out = Tensor(vals)

    def bw(g: np.ndarray) -> None:
        g_rows = g[ids].repeat(counts, axis=0)
        if weights.requires_grad:
            _accum(weights, np.einsum("nd,nd->n", g_rows, rows.values), True)
        if rows.requires_grad:
            _accum(rows, g_rows * w, True)

    return _record(out, (weights, rows), bw)


def cross_entropy(logits: Tensor, labels: Segments) -> tuple[Tensor, np.ndarray]:
    """Mean over the rows of a (B, n) logit matrix of each row's mean -log softmax at its labels.

    Row b's labels are group b of ``labels``; no row's group may be empty,
    and a repeated label counts each time. The second value is the softmax
    probability at each label, aligned with ``labels.rows``; it is not on
    the tape. The backward subtracts the label weights with one buffered
    subtract when no row repeats a label, as gold positions never do, and
    with ``np.add.at`` when one does.
    """
    z = logits.values
    if z.ndim != 2:
        raise ShapeError(f"cross_entropy: expected a matrix, got shape {z.shape}")
    n_rows = z.shape[0]
    col_idx = labels.rows
    _, _, sizes = labels.nonempty
    if sizes.size != n_rows or len(labels) != n_rows:
        raise ShapeError(f"cross_entropy: {sizes.size} non-empty label lists for {n_rows} rows")
    row_idx = labels.group_of_rows()
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    total = e.sum(axis=1, keepdims=True)
    lse = m + np.log(total)
    gold_mean = np.bincount(row_idx, weights=z[row_idx, col_idx], minlength=n_rows) / sizes
    out = Tensor(np.asarray((lse[:, 0] - gold_mean).mean()))
    p = e / total

    def bw(g: np.ndarray) -> None:
        d = p.copy()
        cells = row_idx * z.shape[1] + col_idx
        if np.unique(cells).size == cells.size:  # no (row, label) repeats: a buffered subtract
            d[row_idx, col_idx] -= 1.0 / sizes[row_idx]  # is exact, as x - w == x + (-w)
        else:
            np.add.at(d, (row_idx, col_idx), -1.0 / sizes[row_idx])
        _accum(logits, (g / n_rows) * d, True)

    return _record(out, (logits,), bw), p[row_idx, col_idx]


# ---------------------------------------------------------------------------
# gradient checking


def finite_diff_check(
    f: Callable[..., Tensor],
    store,
    *,
    eps: float = 1e-4,
    coords: Iterable[tuple[str, int]] | None = None,
    samples_per_param: int = 2,
    seed: int = 0,
) -> float:
    """Compare analytic gradients of ``f(store)`` against central differences.

    Returns the max over checked coordinates of
    ``|analytic - numeric| / (|numeric| + 1e-12)``. ``coords`` is an iterable
    of (parameter name, flat index) pairs; when omitted, ``samples_per_param``
    coordinates are sampled per parameter with the given seed.

    The default step balances truncation against roundoff for loss values of
    order one in double precision; coordinates with near-zero gradients are
    the binding case.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")

    def run() -> float:
        with no_grad():  # only the value is read
            y = f(store)
        v = float(y.values)
        if not np.isfinite(v):
            raise NumericError(f"objective is not finite: {v}")
        return v

    store.zero_grads()
    y = f(store)
    if not np.isfinite(float(y.values)):
        raise NumericError(f"objective is not finite: {float(y.values)}")
    backward(y)
    analytic = {name: t.grad.copy() for name, t in store.items()}

    if coords is None:
        rng = np.random.default_rng(seed)
        picked: list[tuple[str, int]] = []
        for name, t in store.items():
            size = t.values.size
            k = min(samples_per_param, size)
            for i in rng.choice(size, size=k, replace=False):
                picked.append((name, int(i)))
        coords = picked

    worst = 0.0
    for name, flat_idx in coords:
        t = store[name]
        pos = np.unravel_index(flat_idx, t.values.shape)
        orig = t.values[pos]
        t.values[pos] = orig + eps
        f_plus = run()
        t.values[pos] = orig - eps
        f_minus = run()
        t.values[pos] = orig
        numeric = (f_plus - f_minus) / (2.0 * eps)
        a = float(analytic[name][pos])
        rel = abs(a - numeric) / (abs(numeric) + 1e-12)
        worst = max(worst, rel)
    return worst
