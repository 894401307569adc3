import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse as sp

from convrec import autodiff as ad
from convrec.autodiff import Tensor, backward, constant, finite_diff_check
from convrec.errors import NumericError, ShapeError, StateError
from convrec.graphs import TypedGraph
from convrec.optim import ParamStore

from conftest import total
from oracles import softmax_cross_entropy_reference


def fd_store(**arrays):
    store = ParamStore()
    for name, values in arrays.items():
        store.add(name, np.asarray(values, dtype=np.float64))
    return store


def check(f, store, tol=1e-6, **kwargs):
    err = finite_diff_check(f, store, **kwargs)
    assert err < tol, f"finite-difference mismatch: {err}"


def groups(offsets):
    """Segments over rows 0..n-1 grouped by ``offsets``: the segment ops read only the groups."""
    return ad.Segments(np.arange(offsets[-1]), offsets)


# ---------------------------------------------------------------------------
# basics


def test_sum_gradient_is_ones():
    w = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3), requires_grad=True)
    backward(total(w))
    np.testing.assert_array_equal(w.grad, np.ones((2, 3)))


def test_sigmoid_is_the_two_branch_formula_bit_for_bit_without_warnings():
    a = np.array([0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 700.0, -700.0, 800.0, -800.0,
                  np.inf, -np.inf, np.nan, -np.nan])
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.where(a >= 0, 1.0 / (1.0 + np.exp(-a)), np.exp(a) / (1.0 + np.exp(a)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ad.sigmoid(constant(a)).values
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_sigmoid_zero_times_x_gradient():
    x = Tensor(np.asarray(3.0), requires_grad=True)
    y = ad.mul(ad.sigmoid(constant(np.asarray(0.0))), x)
    backward(y)
    assert x.grad == pytest.approx(0.5, abs=1e-15)


def test_quadratic_form_fd_error_below_1e8():
    rng = np.random.default_rng(3)
    a = constant(rng.normal(size=(5, 5)))
    store = fd_store(w=rng.normal(size=5))

    def f(s):
        w = s["w"]
        return total(ad.mul(w, ad.matmul(a, w)))

    err = finite_diff_check(f, store, samples_per_param=5)
    assert err < 1e-8
    # analytic cross-check: gradient of w'Aw is (A + A')w
    store.zero_grads()
    backward(f(store))
    expected = (a.values + a.values.T) @ store["w"].values
    np.testing.assert_allclose(store["w"].grad, expected, atol=1e-12)


def test_constant_objective_gradcheck_returns_zero():
    store = fd_store(w=np.ones(4))

    def f(s):
        return constant(np.asarray(2.5))

    assert finite_diff_check(f, store) == 0.0


def test_two_layer_composite_fd_below_1e6():
    rng = np.random.default_rng(11)
    store = fd_store(w1=rng.normal(size=(4, 3)) * 0.5, w2=rng.normal(size=3) * 0.5,
                     x=rng.normal(size=(2, 4)))

    def f(s):
        h = ad.tanh(ad.matmul(s["x"], s["w1"]))
        return total(ad.sigmoid(ad.matmul(h, s["w2"])))

    check(f, store, tol=1e-6, eps=1e-5, samples_per_param=6)


def test_backward_requires_scalar_root():
    t = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):
        backward(t)


def test_backward_is_repeatable_bitwise():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    y = total(ad.relu(ad.matmul(x, ad.transpose(x))))
    backward(y)
    first = x.grad.copy()
    backward(y)
    assert np.array_equal(first, x.grad)


def test_shared_node_gradients_accumulate():
    x = Tensor(np.asarray(4.0), requires_grad=True)
    backward(ad.add(x, x))
    assert x.grad == pytest.approx(2.0)


def test_deep_chain_does_not_recurse():
    x = Tensor(np.asarray(1.0), requires_grad=True)
    y = x
    for _ in range(5000):
        y = ad.add(y, x)
    backward(y)
    assert x.grad == pytest.approx(5001.0)


def tape_nodes(root):
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def h_into_matmul_and_add(s):
    h = ad.tanh(s["x"])
    return ad.add(h, ad.matmul(h, s["m"]))


# Tapes on which a leaf's gradient arrives by two routes, the first of them a
# handed-over buffer or a view of one. x and w are (2, 3), v is (3, 2), m is (3, 3).
SHARED_ROUTES = {
    "add(x, x)": lambda s: ad.add(s["x"], s["x"]),
    "add(reshape(x), reshape(x))": lambda s: ad.add(ad.reshape(s["x"], (3, 2)),
                                                    ad.reshape(s["x"], (3, 2))),
    "add(transpose(w), v)": lambda s: ad.add(ad.transpose(s["w"]), s["v"]),
    "concat([x, x])": lambda s: ad.concat([s["x"], s["x"]]),
    "mul(x, x)": lambda s: ad.mul(s["x"], s["x"]),
    "h into matmul and add": h_into_matmul_and_add,
}


@pytest.mark.parametrize("route", list(SHARED_ROUTES))
def test_handed_over_gradients_share_no_buffer(route):
    rng = np.random.default_rng(5)
    store = fd_store(x=rng.normal(size=(2, 3)), w=rng.normal(size=(2, 3)),
                     v=rng.normal(size=(3, 2)), m=rng.normal(size=(3, 3)))

    def f(s):
        return total(ad.tanh(SHARED_ROUTES[route](s)))  # tanh: an uneven upstream gradient

    every = [(name, i) for name, t in store.items() for i in range(t.values.size)]
    check(f, store, coords=every)

    store.zero_grads()
    root = f(store)
    backward(root)
    leaves = [t for _, t in store.items()]
    interior = [t for t in tape_nodes(root) if t._backward_fn is not None]
    assert interior and all(t.grad is None for t in interior)
    for i, a in enumerate(leaves):
        for b in leaves[i + 1:]:
            assert not np.shares_memory(a.grad, b.grad)
        for node in tape_nodes(root):
            assert not np.shares_memory(a.grad, node.values)


# ---------------------------------------------------------------------------
# per-op gradients and shape errors


def test_elementwise_ops_gradcheck():
    rng = np.random.default_rng(1)
    store = fd_store(a=rng.normal(size=(3, 4)), b=rng.normal(size=(3, 4)) + 3.0)

    def f(s):
        x = ad.add(s["a"], s["b"])
        x = ad.mul(x, ad.blend(ad.tanh(s["b"]), s["a"], s["b"]))
        x = ad.add_const(x, 1.5)
        x = ad.tanh(x)
        return total(ad.mul(ad.sigmoid(x), x))

    check(f, store, samples_per_param=4)


def test_mismatched_shapes_raise():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones((3, 2)))
    for op in (ad.add, ad.mul):
        with pytest.raises(ShapeError):
            op(a, b)
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ShapeError):
        ad.add_const(a, np.ones((2, 2)))
    with pytest.raises(ShapeError):
        ad.softmax(Tensor(np.ones((2, 2, 2))))
    with pytest.raises(ShapeError, match="expected a matrix"):
        ad.softmax(Tensor(np.ones(3)))  # a vector is a one-row matrix, shape (1, n)
    with pytest.raises(ShapeError):
        ad.segment_sum(Tensor(np.ones(3)), Tensor(np.ones((2, 3))), groups([0, 2]))
    with pytest.raises(ShapeError, match="offsets end at row 1 of 2 rows"):
        ad.segment_sum(Tensor(np.ones(2)), Tensor(np.ones((2, 3))), groups([0, 1]))
    with pytest.raises(ShapeError, match="offsets must rise"):  # offsets that fall
        ad.segment_softmax(Tensor(np.ones(3)), ad.Segments(np.zeros(3), [0, 2, 1, 3]))
    with pytest.raises(ShapeError):
        ad.segment_softmax(Tensor(np.ones((3, 1))), groups([0, 3]))
    with pytest.raises(ShapeError):
        ad.concat([])


@pytest.mark.parametrize("rows, offsets", [
    ([0, 1, 2], [0, 2, 1, 3]),  # offsets that fall
    ([0, 1], [1, 2]),           # not from 0
    ([0, 1], [0, 1]),           # ending before the last row
    ([0], [0, 2]),              # ending past it
    ([], []),                   # no offsets at all
    ([0, 1], [[0, 2]]),         # offsets as a matrix
    ([[0], [1]], [0, 2]),       # rows as a matrix
])
def test_segments_constructor_rejects_malformed_offsets(rows, offsets):
    with pytest.raises(ShapeError, match="offsets must rise"):
        ad.Segments(np.asarray(rows, dtype=np.intp), offsets)


def test_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(3, 2\)"):
        ad.add(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))


def test_matmul_matrix_vector_gradcheck():
    rng = np.random.default_rng(2)
    store = fd_store(m=rng.normal(size=(4, 3)), v=rng.normal(size=3))

    def f(s):
        return total(ad.tanh(ad.matmul(s["m"], s["v"])))

    check(f, store, samples_per_param=5)


def test_transpose_concat_gradcheck():
    rng = np.random.default_rng(4)
    store = fd_store(a=rng.normal(size=(2, 3)), b=rng.normal(size=(4, 3)))

    def f(s):
        stacked = ad.concat([s["a"], s["b"], ad.transpose(ad.transpose(s["a"]))])
        return total(ad.mul(stacked, stacked))

    check(f, store, samples_per_param=4)


def test_reshape_is_a_view_and_gradchecks():
    rng = np.random.default_rng(5)
    store = fd_store(a=rng.normal(size=(6, 2)), w=rng.normal(size=(4, 3)))
    view = ad.reshape(store["a"], (3, 4))
    np.testing.assert_array_equal(view.values, store["a"].values.reshape(3, 4))
    assert np.shares_memory(view.values, store["a"].values)

    def f(s):
        return total(ad.tanh(ad.matmul(ad.reshape(s["a"], (3, 4)), s["w"])))

    check(f, store, samples_per_param=6)


def test_reshape_rejects_a_size_mismatch():
    a = Tensor(np.ones((2, 3)))
    for shape in [(4, 2), (7,), (-1, 6), (-2, -3)]:
        with pytest.raises(ShapeError, match="reshape"):
            ad.reshape(a, shape)


def test_lookup_gathers_and_accumulates_repeats():
    table = Tensor(np.arange(12, dtype=np.float64).reshape(4, 3), requires_grad=True)
    out = ad.lookup(table, [1, 1, 3])
    np.testing.assert_array_equal(out.values, table.values[[1, 1, 3]])
    backward(total(out))
    expected = np.zeros((4, 3))
    expected[1] = 2.0  # row 1 gathered twice
    expected[3] = 1.0
    np.testing.assert_array_equal(table.grad, expected)


def test_lookup_index_out_of_range():
    with pytest.raises(ShapeError):
        ad.lookup(Tensor(np.ones((2, 2))), [2])


def test_scatter_rows_places_and_backprops():
    src = Tensor(np.asarray([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
    out = ad.scatter_rows(src, [2, 0], 4)
    expected = np.zeros((4, 2))
    expected[2] = [1.0, 2.0]
    expected[0] = [3.0, 4.0]
    np.testing.assert_array_equal(out.values, expected)
    backward(total(ad.mul(out, out)))
    np.testing.assert_allclose(src.grad, 2 * src.values)


def test_scatter_rows_rejects_duplicates():
    with pytest.raises(ShapeError):
        ad.scatter_rows(Tensor(np.ones((2, 2))), [1, 1], 3)
    with pytest.raises(ShapeError, match="duplicate"):
        ad.scatter_rows(Tensor(np.ones((3, 2))), np.array([4, 0, 4]), 5)


@pytest.mark.parametrize("idx", [[4, 0, 2], [1, 3, 1, 1]])
def test_lookup_backward_matches_add_at_bit_for_bit(idx):
    # distinct rows take the buffered add, repeated ones np.add.at; both onto a gradient
    # already holding signed zeros, as a second lookup of the same table finds it
    rng = np.random.default_rng(21)
    table = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    out = ad.lookup(table, idx)
    g = rng.normal(size=(len(idx), 3))
    g[0, 0], g[-1, 2] = -0.0, 0.0
    start = np.where(rng.random((5, 3)) < 0.5, -0.0, rng.normal(size=(5, 3)))
    want = start.copy()
    np.add.at(want, idx, g)
    table.grad = start.copy()
    out._backward_fn(g.copy())
    np.testing.assert_array_equal(table.grad.view(np.uint64), want.view(np.uint64))


def test_weighted_sum_gradcheck():
    # one segment over all rows is the plain weighted sum w @ rows
    rng = np.random.default_rng(6)
    store = fd_store(w=rng.normal(size=4), rows=rng.normal(size=(4, 3)))
    out = ad.segment_sum(store["w"], store["rows"], groups([0, 4]))
    np.testing.assert_allclose(out.values[0], store["w"].values @ store["rows"].values,
                               rtol=1e-14)

    def f(s):
        return total(ad.tanh(ad.segment_sum(s["w"], s["rows"], groups([0, 4]))))

    check(f, store, samples_per_param=4)


# segments of 2, 0, 1 and 3 rows: an empty segment and a one-row segment
SEGMENTS = [0, 2, 2, 3, 6]
EMPTY = ad.Segments.none(2)  # two empty segments


def test_segment_softmax_normalizes_each_segment_and_gradchecks():
    rng = np.random.default_rng(17)
    store = fd_store(s=rng.normal(size=6))
    y = ad.segment_softmax(store["s"], groups(SEGMENTS)).values
    for lo, hi in zip(SEGMENTS, SEGMENTS[1:]):
        want = np.exp(store["s"].values[lo:hi]) / np.exp(store["s"].values[lo:hi]).sum()
        np.testing.assert_allclose(y[lo:hi], want, rtol=1e-14)
    assert y[2] == 1.0  # a one-row segment gets all the weight
    weights = constant(rng.normal(size=6))

    def f(s):
        return total(ad.mul(ad.segment_softmax(s["s"], groups(SEGMENTS)), weights))

    check(f, store, samples_per_param=6)


def test_segment_sum_gradcheck_with_empty_and_one_row_segments():
    rng = np.random.default_rng(18)
    store = fd_store(w=rng.normal(size=6), rows=rng.normal(size=(6, 3)))
    out = ad.segment_sum(store["w"], store["rows"], groups(SEGMENTS)).values
    w, rows = store["w"].values, store["rows"].values
    want = np.stack([w[lo:hi] @ rows[lo:hi] for lo, hi in zip(SEGMENTS, SEGMENTS[1:])])
    np.testing.assert_allclose(out, want, rtol=1e-14)
    np.testing.assert_array_equal(out[1], np.zeros(3))

    def f(s):
        return total(ad.tanh(ad.segment_sum(s["w"], s["rows"], groups(SEGMENTS))))

    check(f, store, samples_per_param=18)


def test_segment_ops_on_an_all_empty_batch():
    store = fd_store(s=np.zeros(0), rows=np.zeros((0, 3)))

    def f(s):
        alpha = ad.segment_softmax(s["s"], EMPTY)
        return total(ad.segment_sum(alpha, s["rows"], EMPTY))

    out = ad.segment_sum(ad.segment_softmax(store["s"], EMPTY), store["rows"], EMPTY)
    np.testing.assert_array_equal(out.values, np.zeros((2, 3)))
    assert finite_diff_check(f, store) == 0.0
    assert store["s"].grad.shape == (0,) and store["rows"].grad.shape == (0, 3)


def assert_field(field, want):
    """``field`` is a well-formed CSR of the int lists ``want``, derived arrays included."""
    rows, offsets = field.rows, field.offsets
    assert rows.dtype == offsets.dtype == np.intp and rows.ndim == offsets.ndim == 1
    bounds = offsets.tolist()
    assert len(field) == len(want) and bounds[0] == 0 and bounds[-1] == len(rows)
    assert bounds == sorted(bounds)
    assert [rows[lo:hi].tolist() for lo, hi in zip(bounds, bounds[1:])] == want
    ids = [b for b, group in enumerate(want) if group]
    got_ids, starts, counts = field.nonempty
    assert got_ids.tolist() == ids
    assert starts.tolist() == [bounds[b] for b in ids]
    assert counts.tolist() == [len(want[b]) for b in ids]
    ad.Segments(rows, offsets)  # the constructor's check agrees


@st.composite
def groups_idx_table(draw):
    """Groups of rows in [0, 8), group ids into them, and an 8-row table into [-1, 10)."""
    groups = draw(st.lists(st.lists(st.integers(0, 7), max_size=4), max_size=6))
    idx = draw(st.lists(st.integers(0, len(groups) - 1), max_size=8) if groups else st.just([]))
    return groups, idx, draw(st.lists(st.integers(-1, 9), min_size=8, max_size=8))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(groups_idx_table())
@example(([[1, 2], [], [3]], [2, 0, 2, 1, 1], [-1] * 8))  # repeats; every row dropped
@example(([[], [4]], [], list(range(8))))  # no group taken
@example(([], [], [-1] * 8))
def test_segments_take_and_lookup_match_per_group_lists(case):
    groups, idx, table = case
    field = ad.Segments.of(groups)
    assert_field(field, groups)
    taken = field.take(np.asarray(idx, dtype=np.intp))
    assert_field(taken, [groups[i] for i in idx])
    mapped = field.lookup(np.asarray(table, dtype=np.intp))
    want = [[table[r] for r in group if table[r] >= 0] for group in groups]
    assert_field(mapped, want)
    assert_field(taken.lookup(np.asarray(table, dtype=np.intp)), [want[i] for i in idx])
    assert_field(ad.Segments.none(len(groups)), [[]] * len(groups))


@pytest.mark.parametrize("bad", [-1, -2, 3])
def test_segments_take_refuses_ids_outside_the_groups(bad):
    field = ad.Segments.of([[1], [2, 2], [3, 3, 3]])
    with pytest.raises(ShapeError, match="take: group id out of range for 3 groups"):
        field.take(np.array([0, bad], dtype=np.intp))


def _relation_graph():
    # relation 0 has a self-loop (3, 3) and the pair {0, 1} given in both directions
    edges = [(0, 0, 1), (2, 0, 1), (3, 0, 3), (4, 0, 0), (1, 0, 0), (1, 1, 4)]
    dense = np.zeros((5, 5))
    for head, rel, tail in edges:
        if rel == 0:
            dense[head, tail] = dense[tail, head] = 1.0
    return TypedGraph(5, ("r", "s"), edges), dense


def test_relation_operator_matches_dense_adjacency():
    graph, dense = _relation_graph()
    h = np.random.default_rng(7).normal(size=(5, 3))
    deg = dense.sum(axis=1)
    cases = [((False, 1.0), np.ones(5)), ((False, 2.5), np.full(5, 1.0 / 2.5)),
             ((True, 1.0), np.where(deg > 0, 1.0 / np.maximum(deg, 1.0), 0.0))]
    for (in_degree, z), norm in cases:
        # relation 0's row block of the layer operator: rows i * (R + 1)
        op = graph.layer_operator(in_degree=in_degree, z=z)[0][0::3]
        np.testing.assert_allclose(op.toarray(), dense * norm[:, None], atol=1e-15)
        out = ad.spmm(op, op.T, Tensor(h))
        np.testing.assert_allclose(out.values, (dense @ h) * norm[:, None], atol=1e-14)


def test_relation_operator_gradcheck():
    graph, _ = _relation_graph()
    # in-degree values make the operator asymmetric, so the backward must use its transpose
    op = graph.layer_operator(in_degree=True, z=1.0)[0][0::3]  # relation 0's row block
    assert not np.allclose(op.toarray(), op.toarray().T)
    store = fd_store(h=np.random.default_rng(8).normal(size=(5, 3)))

    def f(s):
        return total(ad.tanh(ad.spmm(op, op.T, s["h"])))

    check(f, store, samples_per_param=6)


def test_spmm_matches_dense_and_gradchecks():
    rng = np.random.default_rng(9)
    dense = rng.random((4, 5))
    dense[dense < 0.5] = 0.0
    a = sp.csr_matrix(dense)
    store = fd_store(x=rng.normal(size=(5, 2)))

    out = ad.spmm(a, a.T, Tensor(store["x"].values))
    np.testing.assert_allclose(out.values, dense @ store["x"].values, atol=1e-14)
    with pytest.raises(ShapeError, match="transpose"):
        ad.spmm(a, a, store["x"])

    def f(s):
        return total(ad.relu(ad.spmm(a, a.T, s["x"])))

    check(f, store, samples_per_param=6)


def test_softmax_normalizes_and_gradchecks():
    rng = np.random.default_rng(10)
    store = fd_store(z=rng.normal(size=(1, 7)))

    y = ad.softmax(Tensor(store["z"].values))
    assert y.values.sum() == pytest.approx(1.0, abs=1e-12)
    assert (y.values > 0).all()

    def f(s):
        return total(ad.mul(ad.softmax(s["z"]), constant(np.arange(7.0)[None, :])))

    check(f, store, samples_per_param=7)


def test_softmax_rows_normalize_and_gradcheck():
    rng = np.random.default_rng(14)
    store = fd_store(z=rng.normal(size=(3, 5)))

    y = ad.softmax(Tensor(store["z"].values))
    np.testing.assert_allclose(y.values.sum(axis=1), 1.0, atol=1e-12)
    for row, z in zip(y.values, store["z"].values):
        np.testing.assert_array_equal(row, ad.softmax(Tensor(z[None, :])).values[0])

    weights = constant(rng.normal(size=(3, 5)))

    def f(s):
        return total(ad.mul(ad.softmax(s["z"]), weights))

    check(f, store, samples_per_param=15)


def test_softmax_row_arithmetic_is_pinned():
    # score_all's rows: exact forward and backward, one row and several
    rng = np.random.default_rng(15)
    for shape in ((1, 1), (1, 2), (1, 7), (3, 64), (2, 513)):
        z = rng.normal(size=shape) * 10.0
        g = rng.normal(size=shape)
        x = Tensor(z, requires_grad=True)
        y = ad.softmax(x)
        e = np.exp(z - z.max(axis=1, keepdims=True))
        want = e / e.sum(axis=1, keepdims=True)
        np.testing.assert_array_equal(y.values, want)
        backward(total(ad.mul(y, constant(g))))  # hands g to the softmax exactly
        np.testing.assert_array_equal(
            x.grad, want * (g - np.einsum("ij,ij->i", g, want)[:, None]))


def test_softmax_handles_large_logits():
    y = ad.softmax(Tensor(np.asarray([[1e9, 0.0, -1e9]])))
    assert y.values.sum() == pytest.approx(1.0)
    assert y.values[0, 0] == pytest.approx(1.0)
    assert y.values[0, 2] == 0.0


def test_cross_entropy_matches_log_softmax_route():
    # dual route: fused op vs the numpy -log(softmax) reference, value and gradient
    rng = np.random.default_rng(12)
    z = rng.normal(size=(1, 9))
    labels = [2, 5, 5]

    logits = Tensor(z, requires_grad=True)
    fused, p = ad.cross_entropy(logits, ad.Segments(labels, [0, 3]))
    want, want_grad = softmax_cross_entropy_reference(z, [labels])
    assert fused.values == pytest.approx(want, abs=1e-12)
    backward(fused)
    np.testing.assert_allclose(logits.grad, want_grad, rtol=0, atol=1e-14)
    # the handed-back probabilities are the softmax at each label, in label order
    np.testing.assert_allclose(p, ad.softmax(Tensor(z)).values[0, labels], rtol=1e-14, atol=0)


@pytest.mark.parametrize("labels, offsets", [
    ([3, 0, 5, 1, 2, 4], [0, 1, 3, 6]),     # distinct (row, label) cells: the buffered subtract
    ([3, 3, 0, 5, 5, 5], [0, 2, 3, 6]),     # repeated labels: np.add.at
], ids=["distinct", "repeated"])
def test_cross_entropy_backward_matches_add_at_bit_for_bit(labels, offsets):
    rng = np.random.default_rng(31)
    z = rng.normal(size=(3, 7)) * 5.0
    logits = Tensor(z, requires_grad=True)
    segments = ad.Segments(labels, offsets)
    loss, _ = ad.cross_entropy(logits, segments)
    g = np.asarray(rng.normal())
    loss._backward_fn(g)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    want = e / e.sum(axis=1, keepdims=True)
    rows = np.repeat(np.arange(3), np.diff(offsets))
    np.add.at(want, (rows, np.asarray(labels)), -1.0 / segments.nonempty[2][rows])
    want = (g / 3) * want
    assert logits.grad.tobytes() == want.tobytes()


def test_cross_entropy_gradcheck():
    rng = np.random.default_rng(13)
    store = fd_store(z=rng.normal(size=(1, 6)))

    def f(s):
        return ad.cross_entropy(s["z"], ad.Segments([1, 4], [0, 2]))[0]

    check(f, store, samples_per_param=6)


def test_cross_entropy_rows_are_mean_of_vector_losses():
    # a (3, n) batch is the mean of its rows, each taken as a one-row matrix
    rng = np.random.default_rng(14)
    z = rng.normal(size=(3, 7))
    labels = [[2, 5, 5], [0], [6, 1]]
    fused, p = ad.cross_entropy(Tensor(z), ad.Segments.of(labels))
    rows = [float(ad.cross_entropy(Tensor(z[i:i + 1]), ad.Segments.of(labels[i:i + 1]))[0].values)
            for i in range(3)]
    assert fused.values == pytest.approx(np.mean(rows), abs=1e-12)
    softmax = ad.softmax(Tensor(z)).values
    want = [softmax[i, label] for i, row in enumerate(labels) for label in row]
    np.testing.assert_allclose(p, want, rtol=1e-14, atol=0)


def test_cross_entropy_gradcheck_masked_multi_gold_rows():
    rng = np.random.default_rng(15)
    store = fd_store(z=rng.normal(size=(3, 6)))
    mask = np.zeros((3, 6))
    mask[0, [0, 3]] = -1e9
    mask[2, 5] = -1e9

    def f(s):
        # rows [1, 4], [0] and [2, 2, 4]: a repeated label counts twice
        return ad.cross_entropy(ad.add_const(s["z"], mask),
                                ad.Segments([1, 4, 0, 2, 2, 4], [0, 2, 3, 6]))[0]

    check(f, store, samples_per_param=18)


def test_cross_entropy_rejects_bad_labels():
    z = Tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError, match="2 rows"):
        ad.cross_entropy(z, ad.Segments([0], [0, 1]))
    with pytest.raises(ShapeError, match="empty"):
        ad.cross_entropy(z, ad.Segments([0], [0, 1, 1]))
    with pytest.raises(ShapeError, match="offsets must rise"):
        ad.cross_entropy(z, ad.Segments([0, 1], [0, 2, 1]))
    with pytest.raises(ShapeError, match="expected a matrix"):
        ad.cross_entropy(Tensor(np.zeros(3)), ad.Segments([0], [0, 1]))
    with pytest.raises(ShapeError, match="expected a matrix"):
        ad.cross_entropy(Tensor(np.zeros((1, 2, 3))), ad.Segments([0], [0, 1]))


def test_add_then_mul_gradients():
    a = Tensor(np.asarray([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.asarray([3.0, 4.0]), requires_grad=True)
    backward(total(ad.mul(ad.add(a, b), b)))
    np.testing.assert_allclose(a.grad, b.values)
    np.testing.assert_allclose(b.grad, a.values + 2 * b.values)


def test_relu_backward_masks_to_the_same_bits_signed_zeros_included():
    x = Tensor(np.asarray([[1.5, -2.0, 0.0], [0.25, -0.0, 3.0]]), requires_grad=True)
    c = np.asarray([[-1.0, -2.0, -3.0], [4.0, 5.0, -6.0]])
    backward(total(ad.mul(ad.relu(x), constant(c))))
    want = c * (x.values > 0)
    assert x.grad.tobytes() == want.tobytes()
    assert np.signbit(x.grad[0, 1:]).all()  # a negative upstream gradient masks to -0.0


def test_constant_receives_no_gradient():
    c = constant(np.ones(3))
    x = Tensor(np.ones(3), requires_grad=True)
    backward(total(ad.mul(c, x)))
    assert c.grad is None or not c.requires_grad
    np.testing.assert_array_equal(x.grad, np.ones(3))


# ---------------------------------------------------------------------------
# finite_diff_check contract


def test_finite_diff_check_rejects_bad_eps():
    store = fd_store(w=np.ones(2))
    with pytest.raises(ValueError):
        finite_diff_check(lambda s: total(s["w"]), store, eps=0.0)


def test_finite_diff_check_nonfinite_objective():
    store = fd_store(w=np.asarray([0.0]))

    def f(s):
        return total(ad.add_const(s["w"], np.inf))

    with pytest.raises(NumericError):
        finite_diff_check(f, store)


def test_finite_diff_check_explicit_coords():
    store = fd_store(w=np.asarray([[1.0, 2.0], [3.0, 4.0]]))

    def f(s):
        return total(ad.mul(s["w"], s["w"]))

    err = finite_diff_check(f, store, coords=[("w", 0), ("w", 3)])
    assert err < 1e-8


def test_finite_diff_check_records_a_tape_only_for_the_analytic_pass():
    store = fd_store(w=np.asarray([1.0, -2.0]))
    recorded = []

    def f(s):
        y = ad.relu(s["w"])
        recorded.append(y.requires_grad)
        return total(y)

    assert finite_diff_check(f, store, coords=[("w", 0), ("w", 1)]) < 1e-8
    assert recorded == [True] + [False] * 4


# ---------------------------------------------------------------------------
# no_grad


def every_op(w, v):
    """One output of each primitive on a (2, 3) matrix w and a (3,) vector v."""
    return [
        ad.add(w, w), ad.mul(w, w), ad.blend(w, w, w), ad.add_const(w, 1.0),
        ad.relu(w), ad.tanh(w), ad.sigmoid(w), ad.matmul(w, v), ad.transpose(w),
        ad.reshape(w, (3, 2)), ad.concat([w, w]), ad.lookup(w, [1, 0, 1]),
        ad.scatter_rows(w, [2, 0], 4),
        ad.spmm(sp.identity(2, format="csr"), sp.identity(2, format="csc"), w),
        ad.softmax(w), ad.segment_softmax(v, groups([0, 1, 1, 3])),
        ad.segment_sum(v, ad.transpose(w), groups([0, 2, 2, 3])),
        ad.cross_entropy(w, ad.Segments([0, 2, 1], [0, 1, 3]))[0],
    ]


def test_no_grad_records_nothing_even_from_parameters():
    rng = np.random.default_rng(0)
    store = fd_store(w=rng.normal(size=(2, 3)), v=rng.normal(size=3))
    recorded = every_op(store["w"], store["v"])
    with ad.no_grad():
        free = every_op(store["w"], store["v"])
    assert len(recorded) == len(free) == 18
    for r, t in zip(recorded, free):
        assert r.requires_grad and r._parents and r._backward_fn is not None
        assert not t.requires_grad and t._parents == () and t._backward_fn is None
        assert np.array_equal(r.values, t.values)
    assert store["w"].requires_grad and store["v"].requires_grad


def test_no_grad_nests_and_restores_the_outer_state():
    x = Tensor(np.ones(2), requires_grad=True)
    with ad.no_grad():
        with ad.no_grad():
            assert not ad.relu(x).requires_grad
        assert not ad.relu(x).requires_grad  # the inner exit restores the outer scope
    assert ad.relu(x).requires_grad


def test_no_grad_restores_recording_when_the_body_raises():
    x = Tensor(np.asarray([1.0, 2.0]), requires_grad=True)
    with pytest.raises(ShapeError):
        with ad.no_grad():
            ad.add(x, Tensor(np.ones(3)))
    backward(total(ad.mul(x, x)))
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_backward_inside_no_grad_raises():
    # a leaked scope must not let a training step run on untouched gradient buffers
    x = Tensor(np.asarray([1.0, 2.0]), requires_grad=True)
    y = total(ad.mul(x, x))
    with ad.no_grad():
        with pytest.raises(StateError, match="no_grad"):
            backward(y)
        with pytest.raises(StateError, match="no_grad"):
            backward(constant(np.asarray(1.0)))
    assert x.grad is None
    backward(y)
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


# ---------------------------------------------------------------------------
# property tests


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**31 - 1))
def test_matmul_gradcheck_property(n, m, seed):
    rng = np.random.default_rng(seed)
    store = fd_store(a=rng.normal(size=(n, m)), b=rng.normal(size=(m, n)))

    def f(s):
        return total(ad.matmul(s["a"], s["b"]))

    check(f, store, samples_per_param=2, seed=seed % 1000)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=12), st.integers(0, 2**31 - 1))
def test_softmax_is_distribution_property(logits, seed):
    y = ad.softmax(Tensor(np.asarray([logits])))
    assert y.values.sum() == pytest.approx(1.0, abs=1e-9)
    assert (y.values >= 0).all()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(2, 8), st.integers(0, 2**31 - 1))
@example(6, 527460465)  # an entry of x @ x within 1.3e-4 of the kink, under the old draw
def test_relu_composition_gradcheck_property(n, seed):
    rng = np.random.default_rng(seed)
    # redraw until every entry of x @ x is clear of the ReLU kink, so central
    # differences stay two-sided: a step of eps = 1e-4 in one entry of x moves
    # an entry of x @ x by at most 2 eps max|x| + eps^2, far below 0.01
    x = rng.normal(size=(n, n))
    while np.abs(x @ x).min() < 0.01:
        x = rng.normal(size=(n, n))
    store = fd_store(x=x)

    def f(s):
        return total(ad.relu(ad.matmul(s["x"], s["x"])))

    check(f, store, tol=1e-5, samples_per_param=2, seed=seed % 1000)
