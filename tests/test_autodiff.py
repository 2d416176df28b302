"""Per-operation gradient checks and tape semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langtrack.autodiff import (
    Incidence,
    Tensor,
    as_tensor,
    gathered_linear,
    linear,
    mean_kl_rows,
    scattered_linear,
)
from langtrack.ops import log_softmax
from gradcheck import check_gradients
from reference_tape import (
    clamp,
    concat_cols,
    gather_rows,
    log,
    log_softmax_rows,
    matmul,
    powf,
    scatter_rows,
    segment_sum,
    softmax_rows,
    unfused_mean_kl,
)


def leaf(rng, rows, cols, scale=1.0, shift=0.0):
    return Tensor(rng.standard_normal((rows, cols)) * scale + shift, requires_grad=True)


def test_shapes_normalized():
    assert Tensor(3.0).shape == (1, 1)
    assert Tensor([1.0, 2.0, 3.0]).shape == (1, 3)
    with pytest.raises(ValueError):
        Tensor(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        Tensor([np.nan])


def test_backward_requires_scalar():
    t = Tensor(np.ones((2, 3)), requires_grad=True)
    with pytest.raises(ValueError):
        (t * 2.0).backward()


def test_add_mul_matmul_grads():
    rng = np.random.default_rng(0)
    a = leaf(rng, 3, 4)
    b = leaf(rng, 4, 2)
    c = leaf(rng, 3, 2)
    check_gradients(lambda ts: ((matmul(ts[0], ts[1]) + ts[2]) * ts[2]).sum(), [a, b, c])


def test_broadcast_add_bias_and_column_mask():
    rng = np.random.default_rng(1)
    x = leaf(rng, 5, 3)
    bias = leaf(rng, 1, 3)
    col = leaf(rng, 5, 1)
    check_gradients(lambda ts: ((ts[0] + ts[1]) * ts[2]).sum(), [x, bias, col])


def test_sub_neg_scalar_arith():
    rng = np.random.default_rng(2)
    a = leaf(rng, 2, 3)
    check_gradients(lambda ts: (1.0 - ts[0] * 2.0 - 0.5).sum(), [a])
    check_gradients(lambda ts: ((-ts[0]) * (ts[0] - 3.0)).sum(), [a])


def test_relu_grad_away_from_kink():
    rng = np.random.default_rng(3)
    a = leaf(rng, 4, 4)
    a.data[np.abs(a.data) < 1e-3] += 0.1  # keep clear of the nondifferentiable point
    check_gradients(lambda ts: ts[0].relu().sum(), [a])


def test_sigmoid_log_grads():
    rng = np.random.default_rng(4)
    a = leaf(rng, 3, 3)
    check_gradients(lambda ts: ts[0].sigmoid().sum(), [a])
    pos = leaf(rng, 3, 3, scale=0.5, shift=2.0)
    check_gradients(lambda ts: log(ts[0]).sum(), [pos])


def test_sigmoid_extreme_inputs_stay_finite():
    t = Tensor([[-800.0, 800.0]])
    s = t.sigmoid().data
    assert np.all(np.isfinite(s))
    assert s[0, 0] >= 0.0 and s[0, 1] <= 1.0


def test_powf_grads_and_zero_exponent():
    rng = np.random.default_rng(5)
    base = leaf(rng, 3, 2, scale=0.2, shift=1.0)
    check_gradients(lambda ts: powf(ts[0], 1.7).sum(), [base])
    # gamma = 0 must behave as the constant 1 with zero gradient
    base.zero_grad()
    out = powf(base, 0.0)
    assert np.array_equal(out.data, np.ones_like(base.data))
    s = out.sum()
    s.backward()
    assert base.grad is None or np.all(base.grad == 0.0)


def test_clamp_grad_masks_outside():
    t = Tensor([[-1.0, 0.2, 0.8, 2.0]], requires_grad=True)
    out = clamp(t, 0.0, 1.0)
    assert np.allclose(out.data, [[0.0, 0.2, 0.8, 1.0]])
    out.sum().backward()
    assert np.array_equal(t.grad, [[0.0, 1.0, 1.0, 0.0]])


def test_sum_mean_axes():
    rng = np.random.default_rng(6)
    a = leaf(rng, 4, 3)
    check_gradients(lambda ts: ts[0].sum(axis=0).mean(), [a])
    check_gradients(lambda ts: ts[0].mean(axis=1).sum(), [a])
    check_gradients(lambda ts: ts[0].mean(), [a])
    assert a.sum().shape == (1, 1)
    assert a.mean(axis=0).shape == (1, 3)
    assert a.mean(axis=1).shape == (4, 1)


def test_softmax_rows_matches_ops_and_grads():
    from reference_ops import softmax

    rng = np.random.default_rng(7)
    a = leaf(rng, 4, 5, scale=3.0)
    assert np.allclose(softmax_rows(a).data, softmax(a.data), atol=1e-15)
    assert np.allclose(log_softmax_rows(a).data, log_softmax(a.data), atol=1e-15)
    w = Tensor(rng.standard_normal((4, 5)))
    check_gradients(lambda ts: (softmax_rows(ts[0]) * w).sum(), [a])
    check_gradients(lambda ts: (log_softmax_rows(ts[0]) * w).sum(), [a])


def test_concat_and_gather_grads():
    rng = np.random.default_rng(8)
    a = leaf(rng, 3, 2)
    b = leaf(rng, 3, 4)
    check_gradients(lambda ts: concat_cols([ts[0], ts[1]]).sum(), [a, b])
    idx = [0, 2, 2, 1, 0]
    w = Tensor(rng.standard_normal((5, 2)))
    check_gradients(lambda ts: (gather_rows(ts[0], idx) * w).sum(), [a])


def test_segment_sum_grads_and_empty_segments():
    rng = np.random.default_rng(9)
    a = leaf(rng, 6, 3)
    seg = [0, 0, 2, 2, 2, 4]
    out = segment_sum(a, Incidence(seg, 5))
    assert out.shape == (5, 3)
    assert np.all(out.data[1] == 0.0) and np.all(out.data[3] == 0.0)
    w = Tensor(rng.standard_normal((5, 3)))
    check_gradients(lambda ts: (segment_sum(ts[0], Incidence(seg, 5)) * w).sum(), [a])
    # one incidence serves both sums, as message passing shares its endpoints
    inc = Incidence(seg, 5)
    check_gradients(
        lambda ts: (segment_sum(ts[0], inc) * w + segment_sum(ts[0] * ts[0], inc)).sum(),
        [a],
    )


def test_incidence_rejects_bad_ids_and_row_counts():
    for bad in ([0, 5], [-1, 0]):
        with pytest.raises(IndexError):
            Incidence(bad, 5)
    with pytest.raises(ValueError, match="1-D"):
        Incidence([[0, 1]], 5)
    inc = Incidence([0, 1, 1], 5)
    w, b = Tensor(np.ones((2, 1))), Tensor(np.zeros((1, 1)))
    with pytest.raises(ValueError, match="rows of its part"):
        gathered_linear([(Tensor(np.ones((4, 2))), inc)], w, b)
    with pytest.raises(ValueError, match="cover"):
        segment_sum(Tensor(np.ones((2, 2))), inc)


@st.composite
def scatter_cases(draw):
    """Segment ids (repeats, empty segments, possibly no rows, and at times
    one segment of 500 or more rows) and row values with zero rows, -0.0
    entries and magnitudes from 1e-5 to 1e5, at times a column slice of a
    wider array, so not contiguous."""
    num_segments = draw(st.integers(1, 12))
    ids = draw(st.lists(st.integers(0, num_segments - 1), max_size=30))
    ids += [draw(st.integers(0, num_segments - 1))] * draw(st.sampled_from([0, 0, 500, 777]))
    draw(st.randoms()).shuffle(ids)
    dim = draw(st.sampled_from([1, 16, 64, 129]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal((len(ids), dim + 3)) * 10.0 ** draw(st.floats(-5.0, 5.0))
    values[rng.random(len(ids)) < 0.2] = 0.0
    values[rng.random(values.shape) < 0.1] = -0.0
    values = values[:, 1 : dim + 1] if draw(st.booleans()) else values[:, :dim].copy()
    return np.array(ids, dtype=np.intp), values, num_segments


@given(scatter_cases())
@settings(max_examples=300, deadline=None)
def test_incidence_sums_are_the_bincount_sums_bitwise(case):
    ids, values, num_segments = case
    expected = scatter_rows(ids, values, num_segments)
    inc = Incidence(ids, num_segments)
    for _ in range(2):  # the matrix is built once and then reused
        got = inc.scatter(values)
        assert got.dtype == np.float64 and got.tobytes() == expected.tobytes()
    assert segment_sum(Tensor(values), inc).data.tobytes() == expected.tobytes()
    # backward scatters, by a fresh incidence and by the shared one: gather_rows'
    # gradient, and gathered_linear's through an identity block
    dim = values.shape[1]
    w = Tensor(np.vstack([np.eye(dim), np.ones((1, dim))]))
    b = Tensor(np.zeros((1, dim)))
    want = (np.zeros((num_segments, dim)) + expected).tobytes()
    for index in (Incidence(ids, num_segments), inc):
        h = Tensor(np.ones((num_segments, dim)), requires_grad=True)
        (gather_rows(h, index) * Tensor(values)).sum().backward()
        assert (np.zeros_like(h.data) if h.grad is None else h.grad).tobytes() == want
        h.zero_grad()
        e = Tensor(np.ones((len(ids), 1)))
        (gathered_linear([(h, index), (e, None)], w, b) * Tensor(values)).sum().backward()
        assert (np.zeros_like(h.data) if h.grad is None else h.grad).tobytes() == want


@given(scatter_cases())
@settings(max_examples=200, deadline=None)
def test_segment_ops_scatter_bitwise_as_add_at(case):
    ids, values, num_segments = case
    expected = np.zeros((num_segments, values.shape[1]))
    np.add.at(expected, ids, values)
    assert segment_sum(Tensor(values), Incidence(ids, num_segments)).data.tobytes() == (
        expected.tobytes())
    # gather_rows' backward gets a column slice of the gradient, as concat_cols
    # passes back: upstream (values | ones) multiplies the concatenated rows
    h = Tensor(np.ones((num_segments, values.shape[1])), requires_grad=True)
    rest = Tensor(np.ones((len(ids), 2)))
    upstream = Tensor(np.concatenate([values, np.ones((len(ids), 2))], axis=1))
    (concat_cols([gather_rows(h, ids), rest]) * upstream).sum().backward()
    grad = np.zeros_like(h.data) if h.grad is None else h.grad
    assert grad.tobytes() == (np.zeros_like(h.data) + expected).tobytes()


def test_gather_rows_out_of_range():
    t = Tensor(np.ones((3, 2)))
    with pytest.raises(IndexError):
        gather_rows(t, [0, 3])


def test_grad_accumulates_across_reuse():
    x = Tensor([[2.0]], requires_grad=True)
    y = x * x + x * 3.0  # dy/dx = 2x + 3 = 7
    y.backward()
    assert np.allclose(x.grad, [[7.0]])


def test_first_gradient_is_a_fresh_array_as_if_added_to_zeros():
    # -0.0 becomes 0.0, as 0.0 + g gives, and a row gradient broadcasts
    x = Tensor(np.ones((3, 2)), requires_grad=True)
    g = np.array([[-0.0, 2.0]])
    x._accumulate(g)
    assert x.grad.tobytes() == (np.zeros((3, 2)) + g).tobytes()
    assert not np.signbit(x.grad).any()
    g[0, 1] = 5.0  # the first gradient is not aliased
    assert x.grad[0, 1] == 2.0
    x._accumulate(np.ones((3, 2)))
    assert (x.grad == [[1.0, 3.0]] * 3).all()


def test_no_tape_recording_for_constants():
    a = Tensor(np.ones((2, 2)))
    b = Tensor(np.ones((2, 2)))
    out = matmul(a, b).relu().sum()
    assert not out.requires_grad
    assert out._backward_fn is None


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_deep_graph_backward_no_recursion_limit():
    x = Tensor([[1.0]], requires_grad=True)
    y = x
    for _ in range(5000):
        y = y + 0.0
    y.backward()
    assert np.allclose(x.grad, [[1.0]])


def test_composite_mlp_like_gradcheck():
    rng = np.random.default_rng(10)
    x = Tensor(rng.standard_normal((6, 4)))
    w1 = leaf(rng, 4, 8, scale=0.5)
    b1 = leaf(rng, 1, 8, scale=0.1)
    w2 = leaf(rng, 8, 3, scale=0.5)

    def f(ts):
        h = matmul((matmul(x, ts[0]) + ts[1]).relu(), ts[2])
        return (log_softmax_rows(h) * -1.0).mean()

    check_gradients(f, [w1, b1, w2])


@pytest.mark.parametrize("activation", ["relu", "sigmoid", "identity"])
def test_fused_linear_matches_unfused_ops(activation):
    rng = np.random.default_rng(11)
    x = leaf(rng, 6, 4)
    w = leaf(rng, 4, 3)
    b = leaf(rng, 1, 3)
    unfused = matmul(x, w) + b
    if activation == "relu":
        unfused = unfused.relu()
    elif activation == "sigmoid":
        unfused = unfused.sigmoid()
    assert np.array_equal(linear(x, w, b, activation).data, unfused.data)
    c = Tensor(rng.standard_normal((6, 3)))
    check_gradients(lambda ts: (linear(*ts, activation) * c).sum(), [x, w, b])


def _gathered_reference(parts, w, b, activation):
    """The unfused layer: gather each part, stack the columns, one linear."""
    cols = [t if idx is None else gather_rows(t, idx) for t, idx in parts]
    return linear(concat_cols(cols), w, b, activation)


@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("activation", ["relu", "identity"])
def test_gathered_linear_grads(activation, shared):
    rng = np.random.default_rng(12)
    h = leaf(rng, 5, 3)
    e = leaf(rng, 6, 2)
    w = leaf(rng, 8, 4)
    b = leaf(rng, 1, 4)
    u_ids = [0, 0, 2, 1, 2, 0]  # repeats; node 3 and 4 never named
    v_ids = [1, 2, 1, 2, 1, 1]
    u, v = Incidence(u_ids, 5), Incidence(v_ids, 5)
    c = Tensor(rng.standard_normal((6, 4)))

    def f(ts):
        node, edge, weight, bias = ts
        # shared: built once, used by both layers below and by their backward
        pu, pv = (u, v) if shared else (Incidence(u_ids, 5), Incidence(v_ids, 5))
        out = (gathered_linear([(node, pu), (node, pv), (edge, None)], weight, bias, activation)
               * c).sum()
        if shared:
            again = gathered_linear([(node, pv), (node, pu), (edge, None)], weight, bias)
            out = out + (again * c).sum()
        return out

    assert np.all(np.abs(gathered_linear([(h, u), (h, v), (e, None)], w, b).data) > 1e-3)
    check_gradients(f, [h, e, w, b])  # clear of relu's kink, as asserted
    assert np.all(h.grad[3:] == 0.0)


@st.composite
def random_graphs(draw):
    """Node and edge rows with random endpoints, repeats and untouched nodes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nodes, edges = draw(st.integers(1, 9)), draw(st.integers(0, 20))
    m, k, out = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 5))
    h = Tensor(rng.standard_normal((nodes, m)), requires_grad=True)
    e = Tensor(rng.standard_normal((edges, k)), requires_grad=True)
    u, v = (Incidence(ids, nodes) for ids in rng.integers(0, nodes, size=(2, edges)))
    w = Tensor(rng.standard_normal((2 * m + k, out)), requires_grad=True)
    b = Tensor(rng.standard_normal((1, out)), requires_grad=True)
    upstream = rng.standard_normal((edges, out))
    return [(h, u), (h, v), (e, None)], w, b, upstream


@given(random_graphs(), st.sampled_from(["relu", "sigmoid", "identity"]))
@settings(max_examples=60, deadline=None)
def test_gathered_linear_matches_concatenated_linear(case, activation):
    parts, w, b, upstream = case
    tensors = [parts[0][0], parts[2][0], w, b]
    results = []
    for layer in (gathered_linear, _gathered_reference):
        for t in tensors:
            t.zero_grad()
        out = layer(parts, w, b, activation)
        (out * Tensor(upstream)).sum().backward()
        grads = [np.zeros_like(t.data) if t.grad is None else t.grad for t in tensors]
        results.append([out.data] + grads)
    for got, want in zip(*results):
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)


def _activated(z: Tensor, activation: str) -> Tensor:
    """``z`` through the unfused activation."""
    return {"relu": z.relu, "sigmoid": z.sigmoid, "identity": lambda: z}[activation]()


def _unfused_linear(x, w, b, activation):
    return _activated(matmul(x, w) + b, activation)


def _projected_reference(parts, blocks, b, activation):
    """``gathered_linear`` as unfused ops, in its order: each part times its
    block of the weight, then gathered, the parts added in order, then the
    bias and the activation."""
    z = None
    for (t, inc), wk in zip(parts, blocks):
        p = matmul(t, wk) if inc is None else gather_rows(matmul(t, wk), inc)
        z = p if z is None else z + p
    return _activated(z + b, activation)


def _signed_zeros(rng, shape):
    """Normal entries with some -0.0, so that a sign of zero that leaked
    through would show in the bytes."""
    data = rng.standard_normal(shape)
    data[rng.random(shape) < 0.15] = -0.0
    return data


def _backward_bytes(out, upstream, leaves, grads=None):
    """The output's bytes and each leaf's gradient bytes after a backward
    pass from ``(out * upstream).sum()``; no leaf's ``.data`` changes."""
    before = [t.data.tobytes() for t in leaves]
    (out * Tensor(upstream)).sum().backward()
    assert [t.data.tobytes() for t in leaves] == before
    grads = [t.grad for t in leaves] if grads is None else grads(leaves)
    return [out.data.tobytes()] + [g.tobytes() for g in grads]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("activation", ["relu", "sigmoid", "identity"])
def test_linear_is_the_unfused_ops_bitwise_and_keeps_its_inputs(activation, seed):
    # x, w and b each feed two layers, so each first gradient is a product
    # the layer made, and the second is added to it
    rng = np.random.default_rng(seed)
    data = [_signed_zeros(rng, shape) for shape in ((7, 5), (5, 5), (1, 5), (5, 5), (1, 5))]
    upstream = _signed_zeros(rng, (7, 5))
    results = []
    for layer in (linear, _unfused_linear):
        x, w, b, v, c = (Tensor(d.copy(), requires_grad=True) for d in data)
        out = layer(layer(x, w, b, activation), w, b, activation) + layer(x, v, c, activation)
        results.append(_backward_bytes(out, upstream, [x, w, b, v, c]))
    assert results[0] == results[1]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("activation", ["relu", "sigmoid", "identity"])
def test_gathered_linear_is_the_unfused_ops_bitwise_and_keeps_its_inputs(activation, seed):
    # h is gathered twice, so its first gradient is a product the layer made
    # and the second is added to it
    rng = np.random.default_rng(seed)
    h_data, e_data = _signed_zeros(rng, (6, 3)), _signed_zeros(rng, (9, 2))
    w_data, b_data = _signed_zeros(rng, (8, 4)), _signed_zeros(rng, (1, 4))
    u_ids, v_ids = rng.integers(0, 6, (2, 9))  # repeats, and nodes never named
    upstream = _signed_zeros(rng, (9, 4))
    results = []
    for fused in (True, False):
        h, e, b = (Tensor(d.copy(), requires_grad=True) for d in (h_data, e_data, b_data))
        parts = [(h, Incidence(u_ids, 6)), (h, Incidence(v_ids, 6)), (e, None)]
        if fused:
            w = Tensor(w_data.copy(), requires_grad=True)
            out = gathered_linear(parts, w, b, activation)
            leaves, grads = [h, e, b, w], None
        else:
            blocks = [Tensor(w_data[lo:hi].copy(), requires_grad=True)
                      for lo, hi in ((0, 3), (3, 6), (6, 8))]
            out = _projected_reference(parts, blocks, b, activation)
            leaves = [h, e, b, *blocks]
            grads = lambda ts: [t.grad for t in ts[:3]] + [np.vstack([t.grad for t in ts[3:]])]
        results.append(_backward_bytes(out, upstream, leaves, grads))
    assert results[0] == results[1]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("fused", ["linear", "gathered_linear"])
def test_relu_read_twice_masks_its_summed_gradient_in_place_bitwise(fused, seed):
    # the relu layer's output y feeds a relu layer and an add: its first
    # gradient is the product the layer made (owned), the add's copy is
    # added to it, and only then is the sum masked, in place.  The
    # reference masks with Tensor.relu's g * mask, a new array.
    rng = np.random.default_rng(seed)
    x_data, u_ids = _signed_zeros(rng, (6, 3)), rng.integers(0, 6, 9)
    w_data, b_data = _signed_zeros(rng, (3, 4)), _signed_zeros(rng, (1, 4))
    v_data, c_data = _signed_zeros(rng, (4, 4)), _signed_zeros(rng, (1, 4))
    rows = 9 if fused == "gathered_linear" else 6
    upstream = _signed_zeros(rng, (rows, 4))
    results = []
    for reference in (False, True):
        x, w, b, v, c = (Tensor(d.copy(), requires_grad=True)
                         for d in (x_data, w_data, b_data, v_data, c_data))
        if fused == "linear":
            y = _unfused_linear(x, w, b, "relu") if reference else linear(x, w, b, "relu")
        elif reference:
            y = _projected_reference([(x, Incidence(u_ids, 6))], [w], b, "relu")
        else:
            y = gathered_linear([(x, Incidence(u_ids, 6))], w, b, "relu")
        second = _unfused_linear if reference else linear
        out = second(y, v, c, "relu") + y
        results.append(_backward_bytes(out, upstream, [x, w, b, v, c]))
        if not reference:  # the fused layer left its own gradient masked
            assert np.array_equal(y.grad, y.grad * (y.data > 0.0))
    assert results[0] == results[1]


def _per_row_then_scattered(terms):
    """``scattered_linear`` as the layer on every input row, then a scatter."""
    out = None
    for x, inc, w, b in terms:
        part = segment_sum(linear(x, w, b), inc)
        out = part if out is None else out + part
    return out


def _scatter_terms(rng, rows, counts, width=3, out=4):
    """One term per count of input rows, with random repeated row ids that
    leave some output rows out, and their weights and biases."""
    terms = []
    for n in counts:
        x = Tensor(rng.standard_normal((n, width)), requires_grad=True)
        ids = rng.integers(0, rows, n)
        w = Tensor(rng.standard_normal((width, out)), requires_grad=True)
        b = Tensor(rng.standard_normal((1, out)) + 2.0, requires_grad=True)  # b != 0
        terms.append((x, Incidence(ids, rows), w, b))
    return terms


@pytest.mark.parametrize("seed", range(20))
def test_scattered_linear_is_the_per_row_layer_then_scattered(seed):
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(1, 8))
    terms = _scatter_terms(rng, rows, rng.integers(0, 12, size=int(rng.integers(1, 4))))
    leaves = [t for x, _, w, b in terms for t in (x, w, b)]
    upstream = Tensor(rng.standard_normal((rows, 4)))
    results = []
    for layer in (scattered_linear, _per_row_then_scattered):
        for t in leaves:
            t.zero_grad()
        out = layer(terms)
        (out * upstream).sum().backward()
        grads = [np.zeros_like(t.data) if t.grad is None else t.grad for t in leaves]
        results.append([out.data] + grads)
    for got, want in zip(*results):
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_scattered_linear_grads_and_rows_with_no_input():
    rng = np.random.default_rng(14)
    # output row 0 has no input in the first term, row 3 none in the second,
    # row 4 none in either; rows 1 and 2 repeat
    (x1, _, w1, b1), (x2, _, w2, b2) = _scatter_terms(rng, 5, (5, 4))
    inc1, inc2 = Incidence([1, 1, 2, 3, 2], 5), Incidence([0, 2, 2, 1], 5)
    terms = [(x1, inc1, w1, b1), (x2, inc2, w2, b2)]
    c = Tensor(rng.standard_normal((5, 4)))
    check_gradients(lambda ts: (scattered_linear(terms) * c).sum(), [x1, w1, b1, x2, w2, b2])
    assert np.array_equal(inc1.degrees(), [[0.0, 2.0, 2.0, 1.0, 0.0]])
    first, second = scattered_linear(terms[:1]).data, scattered_linear(terms[1:]).data
    assert np.all(first[[0, 4]] == 0.0) and np.all(second[[3, 4]] == 0.0)  # not the bias
    assert np.all(scattered_linear(terms).data[4] == 0.0)
    want = x2.data[[0]] @ w2.data + b2.data  # one input row, so the bias once
    assert np.allclose(scattered_linear(terms).data[[0]], want, rtol=0.0, atol=1e-12)


def test_scattered_linear_rejects_mismatched_terms():
    rng = np.random.default_rng(15)
    (x, inc, w, b), = _scatter_terms(rng, 4, (3,))
    with pytest.raises(ValueError, match="same rows"):
        scattered_linear([(x, inc, w, b), (x, Incidence([0, 1, 2], 5), w, b)])
    with pytest.raises(ValueError, match="index the rows"):
        scattered_linear([(x, Incidence([0, 1], 4), w, b)])
    with pytest.raises(ValueError, match="fit its rows"):
        scattered_linear([(x, inc, Tensor(np.ones((2, 4))), b)])
    with pytest.raises(ValueError, match="fit its rows"):
        scattered_linear([(x, inc, w, Tensor(np.ones((1, 3))))])


def test_gathered_linear_rejects_bad_indices_and_widths():
    h = Tensor(np.ones((3, 2)))
    e = Tensor(np.ones((2, 1)))
    w, b = Tensor(np.ones((5, 4))), Tensor(np.zeros((1, 4)))
    pair, triple = Incidence([0, 1], 3), Incidence([0, 1, 2], 3)
    with pytest.raises(ValueError, match="columns"):
        gathered_linear([(h, pair), (e, None)], w, b)
    with pytest.raises(ValueError, match="same number of rows"):
        gathered_linear([(h, triple), (h, triple), (e, None)], w, b)
    with pytest.raises(ValueError, match="rows of its part"):
        gathered_linear([(h, Incidence([0, 1], 4)), (h, pair), (e, None)], w, b)


def assert_rel_close(got: np.ndarray, want: np.ndarray, rtol: float = 1e-12) -> None:
    """Largest difference within ``rtol`` of the largest reference entry."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


KL_CASES = {
    "instance targets": (6, 5, 6, 3.0),
    "scene target": (7, 4, 1, 3.0),
    "single row": (1, 5, 1, 2.0),
}


@pytest.mark.parametrize("case", sorted(KL_CASES))
def test_fused_kl_matches_the_unfused_chain(case):
    rows, t, target_rows, scale = KL_CASES[case]
    rng = np.random.default_rng(len(case))
    data = rng.standard_normal((rows, t)) * scale
    log_q = log_softmax(rng.standard_normal((target_rows, t)) * scale)
    other = Tensor(rng.standard_normal((rows, t)))
    results = []
    for kl in (mean_kl_rows, unfused_mean_kl):
        x = Tensor(data.copy(), requires_grad=True)
        value = kl(x, log_q)
        # an upstream gradient other than 1, and a second reader of x
        (value * 2.5 + (x * other).sum()).backward()
        results.append((value.data, x.grad))
    (fused, fused_grad), (chain, chain_grad) = results
    assert fused.tobytes() == chain.tobytes()
    assert_rel_close(fused_grad, chain_grad)
    check_gradients(lambda ts: mean_kl_rows(ts[0], log_q), [Tensor(data, requires_grad=True)])


def test_fused_kl_at_logits_of_700():
    data = np.array([[700.0, -700.0, 0.0, 3.0], [-700.0, -700.0, 700.0, 699.0]])
    log_q = log_softmax(np.array([[1.0, -2.0, 0.5, 0.0]]))
    grads = []
    for kl in (mean_kl_rows, unfused_mean_kl):
        x = Tensor(data.copy(), requires_grad=True)
        value = kl(x, log_q)
        value.backward()
        assert np.isfinite(value.item())
        grads.append((value.data, x.grad))
    (fused, fused_grad), (chain, chain_grad) = grads
    assert fused.tobytes() == chain.tobytes()
    assert np.all(np.isfinite(fused_grad))
    assert_rel_close(fused_grad, chain_grad)
    check_gradients(lambda ts: mean_kl_rows(ts[0], log_q), [Tensor(data, requires_grad=True)])


def test_fused_kl_rejects_misaligned_targets():
    x = Tensor(np.zeros((3, 4)))
    for log_q in (np.zeros((2, 4)), np.zeros((3, 5)), np.zeros(4)):
        with pytest.raises(ValueError):
            mean_kl_rows(x, log_q)
    with pytest.raises(ValueError):
        mean_kl_rows(Tensor(np.zeros((0, 4))), np.zeros((1, 4)))
