import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynamo.numgrad import (
    BackwardBeforeForward,
    Graph,
    NonScalarOutput,
    NumericError,
    ShapeMismatch,
    UnboundLeaf,
    grad_check,
)


def test_forward_and_backward_reject_nonfinite():
    g = Graph()
    x = g.leaf("x", (1, 2))
    g.output(g.reduce_sum(g.mul(x, x)))
    with pytest.raises(NumericError):
        g.forward({"x": np.array([[1.0, np.nan]])})
    with pytest.raises(NumericError):
        g.forward({"x": np.array([[np.inf, 0.0]])})
    assert g.forward({"x": np.array([[1.0, 2.0]])}) == pytest.approx(5.0)
    # a finite output whose gradient overflows
    g2 = Graph()
    y = g2.leaf("y", (1, 2))
    g2.output(g2.reduce_sum(g2.affine(y, 1e300)))
    g2.forward({"y": np.zeros((1, 2))})
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        g2.backward(seed=1e10)


def test_forward_identity_matmul():
    g = Graph()
    a = g.leaf("A", (2, 2))
    x = g.leaf("x", (2, 1), param=False)
    g.output(g.matmul(a, x))
    out = g.forward({"A": np.eye(2), "x": np.array([[3.0], [4.0]])})
    assert np.allclose(out, [[3.0], [4.0]])


def test_forward_sigmoid_at_zero():
    g = Graph()
    x = g.leaf("x", (1, 2))
    s = g.mark("sig", g.sigmoid(x))
    g.output(g.reduce_sum(s))
    g.forward({"x": np.zeros((1, 2))})
    assert np.allclose(g.value("sig"), [[0.5, 0.5]])


def test_forward_squared_l2_hand_value():
    # ||(1,2) - (0,0)||^2 = 5
    g = Graph()
    a = g.leaf("a", (1, 2))
    b = g.leaf("b", (1, 2), param=False)
    g.output(g.squared_l2(g.sub(a, b)))
    out = g.forward({"a": np.array([[1.0, 2.0]]), "b": np.zeros((1, 2))})
    assert out == pytest.approx(5.0)


def test_forward_deterministic():
    rng = np.random.default_rng(0)
    g = Graph()
    w = g.leaf("w", (3, 3))
    x = g.leaf("x", (2, 3), param=False)
    h = g.tanh(g.matmul(x, w))
    g.output(g.reduce_mean(g.mul(h, h)))
    binds = {"w": rng.standard_normal((3, 3)), "x": rng.standard_normal((2, 3))}
    a = g.forward(binds).copy()
    b = g.forward(binds).copy()
    assert np.array_equal(a, b)


def test_unbound_leaf_and_shape_errors():
    g = Graph()
    g.leaf("w", (2, 2))
    g.output(g.reduce_sum(g._leaf_id["w"]))
    with pytest.raises(UnboundLeaf):
        g.forward({})
    with pytest.raises(ShapeMismatch):
        g.forward({"w": np.zeros((3, 2))})
    with pytest.raises(ShapeMismatch):
        g2 = Graph()
        a = g2.leaf("a", (2, 3))
        b = g2.leaf("b", (2, 2))
        g2.matmul(a, b)


def test_backward_square_and_constant():
    # f(x) = x*x at x=3 -> grad 6
    g = Graph()
    x = g.leaf("x", ())
    g.output(g.mul(x, x))
    g.forward({"x": 3.0})
    grads = g.backward()
    assert grads["x"] == pytest.approx(6.0)

    # f(x) = c -> grad 0
    g2 = Graph()
    g2.leaf("x", (2,))
    g2.output(g2.reduce_sum(g2.const(np.array(7.0))))
    g2.forward({"x": np.zeros(2)})
    grads2 = g2.backward()
    assert np.allclose(grads2["x"], 0.0)


def test_backward_requires_forward_and_scalar_output():
    g = Graph()
    x = g.leaf("x", (2, 2))
    g.output(g.tanh(x))
    with pytest.raises(BackwardBeforeForward):
        g.backward()
    g.forward({"x": np.zeros((2, 2))})
    with pytest.raises(NonScalarOutput):
        g.backward()


def test_backward_linear_least_squares_vs_fd():
    # f(W) = ||Wx - y||^2, small fixed instance, central differences step 1e-5
    rng = np.random.default_rng(42)
    g = Graph()
    w = g.leaf("W", (3, 2))
    x = g.leaf("x", (1, 3), param=False)
    y = g.leaf("y", (1, 2), param=False)
    g.output(g.squared_l2(g.sub(g.matmul(x, w), y)))
    point = {
        "W": rng.standard_normal((3, 2)),
        "x": rng.standard_normal((1, 3)),
        "y": rng.standard_normal((1, 2)),
    }
    assert grad_check(g, point, step=1e-5) < 1e-6


def test_grad_check_quadratic_and_zero():
    g = Graph()
    x = g.leaf("x", (1, 4))
    g.output(g.squared_l2(x))
    rng = np.random.default_rng(1)
    assert grad_check(g, {"x": rng.standard_normal((1, 4))}, 1e-5) < 1e-6

    gz = Graph()
    x = gz.leaf("x", (1, 3))
    gz.output(gz.reduce_sum(gz.affine(x, 0.0)))
    assert grad_check(gz, {"x": rng.standard_normal((1, 3))}, 1e-5) == 0.0


def _single_op_graphs():
    """One tiny scalar-output graph per primitive op, for FD sweeps."""
    specs = []

    def wrap(name, build):
        specs.append((name, build))

    wrap("add", lambda g, a, b: g.add(a, b))
    wrap("sub", lambda g, a, b: g.sub(a, b))
    wrap("mul", lambda g, a, b: g.mul(a, b))
    wrap("matmul", lambda g, a, b: g.matmul(a, b))
    wrap("concat", lambda g, a, b: g.concat(a, b))
    return specs


UNARY_OPS = ["sigmoid", "tanh", "relu", "abs", "affine",
             "reduce_sum_all", "reduce_sum_rows", "reduce_mean_all",
             "reduce_mean_rows", "log_softmax"]


@pytest.mark.parametrize("opname", UNARY_OPS)
def test_unary_op_gradients_match_fd(opname):
    rng = np.random.default_rng(hash(opname) % 2**32)
    for _ in range(10):
        g = Graph()
        a = g.leaf("a", (2, 3))
        mix = g.leaf("m", (2, 3), param=False)
        if opname == "sigmoid":
            y = g.sigmoid(a)
        elif opname == "tanh":
            y = g.tanh(a)
        elif opname == "relu":
            y = g.relu(a)
        elif opname == "abs":
            y = g.abs(a)
        elif opname == "affine":
            y = g.affine(a, -1.7, 0.3)
        elif opname == "reduce_sum_all":
            y = g.reduce_sum(a)
        elif opname == "reduce_sum_rows":
            y = g.reduce_sum(a, axis=1)
        elif opname == "reduce_mean_all":
            y = g.reduce_mean(a)
        elif opname == "reduce_mean_rows":
            y = g.reduce_mean(a, axis=1)
        elif opname == "log_softmax":
            y = g.log_softmax(a)
        if g.shape(y) != ():
            if g.shape(y) == (2, 3):
                y = g.reduce_sum(g.mul(y, mix))
            else:
                y = g.reduce_sum(g.mul(y, g.reduce_sum(mix, axis=1)))
        g.output(y)
        point = {"a": rng.standard_normal((2, 3)) + 0.05,
                 "m": rng.standard_normal((2, 3))}
        assert grad_check(g, point, 1e-5) < 1e-4, opname


@pytest.mark.parametrize("opname,build", _single_op_graphs())
def test_binary_op_gradients_match_fd(opname, build):
    rng = np.random.default_rng(hash(opname) % 2**32)
    for _ in range(10):
        g = Graph()
        if opname == "matmul":
            a = g.leaf("a", (2, 3))
            b = g.leaf("b", (3, 2))
            mshape = (2, 2)
        elif opname == "concat":
            a = g.leaf("a", (2, 3))
            b = g.leaf("b", (2, 2))
            mshape = (2, 5)
        else:
            a = g.leaf("a", (2, 3))
            b = g.leaf("b", (2, 3))
            mshape = (2, 3)
        m = g.leaf("m", mshape, param=False)
        g.output(g.reduce_sum(g.mul(build(g, a, b), m)))
        point = {
            "a": rng.standard_normal(g.shape(a)),
            "b": rng.standard_normal(g.shape(b)),
            "m": rng.standard_normal(mshape),
        }
        assert grad_check(g, point, 1e-5) < 1e-4, opname


def test_broadcast_add_bias_gradient():
    rng = np.random.default_rng(7)
    g = Graph()
    x = g.leaf("x", (4, 3), param=False)
    w = g.leaf("w", (3, 2))
    b = g.leaf("b", (2,))
    g.output(g.squared_l2(g.add(g.matmul(x, w), b)))
    point = {"x": rng.standard_normal((4, 3)), "w": rng.standard_normal((3, 2)),
             "b": rng.standard_normal(2)}
    assert grad_check(g, point, 1e-5) < 1e-6


def test_softmax_log_loss_values_and_grad():
    # uniform logits over C classes -> ln C
    g = Graph()
    logits = g.leaf("z", (1, 4))
    onehot = g.leaf("y", (1, 4), param=False)
    g.output(g.reduce_mean(g.softmax_log_loss(logits, onehot)))
    y = np.zeros((1, 4))
    y[0, 2] = 1.0
    out = g.forward({"z": np.zeros((1, 4)), "y": y})
    assert out == pytest.approx(np.log(4.0))
    # saturated case: big logit on the true class
    z = np.zeros((1, 4))
    z[0, 2] = 100.0
    assert g.forward({"z": z, "y": y}) == pytest.approx(0.0, abs=1e-12)
    # (1,0) vs label 0 -> ln(1 + e^-1)
    g2 = Graph()
    logits2 = g2.leaf("z", (1, 2))
    onehot2 = g2.leaf("y", (1, 2), param=False)
    g2.output(g2.reduce_mean(g2.softmax_log_loss(logits2, onehot2)))
    val = g2.forward({"z": np.array([[1.0, 0.0]]), "y": np.array([[1.0, 0.0]])})
    assert val == pytest.approx(np.log(1 + np.exp(-1)))
    rng = np.random.default_rng(3)
    assert grad_check(g2, {"z": rng.standard_normal((1, 2)),
                           "y": np.array([[0.0, 1.0]])}, 1e-5) < 1e-6


def test_backward_linearity_of_sum():
    # grad of f+g equals grad f + grad g on random instances
    rng = np.random.default_rng(11)
    for _ in range(5):
        w0 = rng.standard_normal((3, 3))
        x0 = rng.standard_normal((2, 3))

        def graph_one():
            g = Graph()
            w = g.leaf("w", (3, 3))
            x = g.leaf("x", (2, 3), param=False)
            return g, g.squared_l2(g.tanh(g.matmul(x, w))), w, x

        def graph_two():
            g = Graph()
            w = g.leaf("w", (3, 3))
            x = g.leaf("x", (2, 3), param=False)
            return g, g.reduce_mean(g.sigmoid(g.matmul(x, w))), w, x

        g1, o1, _, _ = graph_one()
        g1.output(o1)
        g1.forward({"w": w0, "x": x0})
        ga = g1.backward()["w"]

        g2, o2, _, _ = graph_two()
        g2.output(o2)
        g2.forward({"w": w0, "x": x0})
        gb = g2.backward()["w"]

        gs = Graph()
        w = gs.leaf("w", (3, 3))
        x = gs.leaf("x", (2, 3), param=False)
        s = gs.add(gs.squared_l2(gs.tanh(gs.matmul(x, w))),
                   gs.reduce_mean(gs.sigmoid(gs.matmul(x, w))))
        gs.output(s)
        gs.forward({"w": w0, "x": x0})
        gsum = gs.backward()["w"]
        assert np.allclose(gsum, ga + gb, atol=1e-12)


def test_value_probe_and_marks():
    g = Graph()
    x = g.leaf("x", (1, 2))
    h = g.mark("hidden", g.tanh(x))
    g.output(g.reduce_sum(h))
    g.forward({"x": np.array([[0.5, -0.5]])})
    assert np.allclose(g.value("hidden"), np.tanh([[0.5, -0.5]]))


# -- fused primitives ---------------------------------------------------------------

_GRU_PARAMS = ("w_z", "b_z", "w_r", "b_r", "w_h", "b_h")


def _cell_point(rng, kind, B, nx, H):
    """Random cell inputs, parameters and an output mix, keyed by leaf name."""
    shapes = {"x": (B, nx), "h": (B, H), "m": (B, H)}
    if kind == "gru":
        shapes.update({n: (nx + H, H) if n[0] == "w" else (H,) for n in _GRU_PARAMS})
    else:
        shapes.update(w_x=(nx, H), w_h=(H, H), b=(H,))
    return {n: rng.standard_normal(s) for n, s in shapes.items()}


def _fused_cell(g, kind, r):
    if kind == "gru":
        return g.gru_cell(r["x"], r["h"], *(r[n] for n in _GRU_PARAMS))
    return g.rnn_cell(r["x"], r["h"], r["w_x"], r["w_h"], r["b"])


def _composite_cell(g, kind, r):
    """The same cell from matmul/concat/sigmoid/tanh nodes: the oracle."""
    x, h = r["x"], r["h"]
    if kind == "rnn":
        return g.tanh(g.add(g.add(g.matmul(x, r["w_x"]), g.matmul(h, r["w_h"])), r["b"]))
    xh = g.concat(x, h)
    z = g.sigmoid(g.add(g.matmul(xh, r["w_z"]), r["b_z"]))
    rg = g.sigmoid(g.add(g.matmul(xh, r["w_r"]), r["b_r"]))
    hc = g.tanh(g.add(g.matmul(g.concat(x, g.mul(rg, h)), r["w_h"]), r["b_h"]))
    return g.add(g.mul(g.affine(z, -1.0, 1.0), hc), g.mul(z, h))


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["gru", "rnn"]), B=st.integers(1, 3),
       nx=st.integers(1, 3), H=st.integers(1, 3), seed=st.integers(0, 2 ** 16))
def test_fused_cells_match_composite_and_fd(kind, B, nx, H, seed):
    point = _cell_point(np.random.default_rng(seed), kind, B, nx, H)
    values, grads = [], []
    for build in (_fused_cell, _composite_cell):
        g = Graph()
        refs = {n: g.leaf(n, v.shape, param=n != "m") for n, v in point.items()}
        cell = g.mark("cell", build(g, kind, refs))
        g.output(g.reduce_sum(g.mul(cell, refs["m"])))
        if build is _fused_cell:
            assert grad_check(g, point, 1e-5) < 1e-6
        g.forward(point)
        values.append(g.value("cell"))
        grads.append(g.backward())
    fused, composite = values
    assert np.all(np.abs(fused - composite) <= 1e-12 * np.abs(composite))
    for name, want in grads[1].items():
        np.testing.assert_allclose(grads[0][name], want, rtol=1e-12, atol=1e-15)


@settings(max_examples=30, deadline=None)
@given(V=st.integers(2, 6), K=st.integers(1, 3), seed=st.integers(0, 2 ** 16),
       data=st.data())
def test_gather_rows_scatter_adds_repeated_ids(V, K, seed, data):
    rng = np.random.default_rng(seed)
    ids = data.draw(st.lists(st.integers(0, V - 2), min_size=1, max_size=6))
    ids = np.array(ids + ids[:1])  # one id repeats; row V - 1 is never selected
    g = Graph()
    table = g.leaf("table", (V, K))
    rows = g.mark("rows", g.gather_rows(table, g.leaf("ids", (len(ids),), param=False)))
    g.output(g.reduce_sum(g.mul(g.tanh(rows), g.leaf("m", (len(ids), K), param=False))))
    point = {"table": rng.standard_normal((V, K)), "ids": ids,
             "m": rng.standard_normal((len(ids), K))}
    assert grad_check(g, point, 1e-5) < 1e-6
    g.forward(point)
    assert np.array_equal(g.value("rows"), point["table"][ids])
    grad = g.backward()["table"]
    assert np.all(grad[V - 1] == 0.0)
    onehot = np.eye(V)[ids]
    upstream = point["m"] * (1.0 - np.tanh(point["table"][ids]) ** 2)
    np.testing.assert_allclose(grad, onehot.T @ upstream, rtol=1e-12, atol=1e-15)


@settings(max_examples=30, deadline=None)
@given(T=st.integers(1, 4), B=st.integers(1, 3), K=st.integers(1, 3),
       seed=st.integers(0, 2 ** 16))
def test_stack_concatenates_rows_and_splits_gradient(T, B, K, seed):
    rng = np.random.default_rng(seed)
    g = Graph()
    parts = [g.leaf(f"p{t}", (B, K)) for t in range(T)]
    stacked = g.mark("stack", g.stack(parts))
    g.output(g.reduce_sum(g.mul(g.tanh(stacked), g.leaf("m", (T * B, K), param=False))))
    point = {f"p{t}": rng.standard_normal((B, K)) for t in range(T)}
    point["m"] = rng.standard_normal((T * B, K))
    assert grad_check(g, point, 1e-5) < 1e-6
    g.forward(point)
    assert np.array_equal(g.value("stack"),
                          np.concatenate([point[f"p{t}"] for t in range(T)]))


def test_fused_ops_reject_bad_shapes():
    g = Graph()
    x, h = g.leaf("x", (2, 3)), g.leaf("h", (2, 4))
    w, b = g.leaf("w", (7, 4)), g.leaf("b", (4,))
    g.gru_cell(x, h, w, b, w, b, w, b)
    with pytest.raises(ShapeMismatch):
        g.gru_cell(x, h, w, b, w, b, b, b)
    with pytest.raises(ShapeMismatch):
        g.gru_cell(x, g.leaf("h3", (3, 4)), w, b, w, b, w, b)
    with pytest.raises(ShapeMismatch):
        g.rnn_cell(x, h, g.leaf("wx", (3, 4)), w, b)
    with pytest.raises(ShapeMismatch):
        g.stack([x, h])
    with pytest.raises(ShapeMismatch):
        g.gather_rows(x, g.leaf("ids", (2, 1), param=False))
