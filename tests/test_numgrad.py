import zlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynamo.models import CELL_PARAMS, cell_step
from dynamo.numgrad import (
    CELL_SPLITS,
    CELL_VJPS,
    CELLS,
    BackwardBeforeForward,
    Graph,
    NonScalarOutput,
    NumericError,
    NumgradError,
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


def test_backward_consumes_the_forward_pass():
    g = Graph()
    x = g.leaf("x", (2, 2))
    h = g.mark("h", g.tanh(x))
    g.output(g.reduce_sum(g.mul(h, h)))
    point = {"x": np.array([[0.1, -0.2], [0.3, 0.4]])}
    g.forward(point)
    first = g.backward()["x"]
    assert g._values is None and g._saved == {}
    with pytest.raises(BackwardBeforeForward):
        g.backward()
    with pytest.raises(BackwardBeforeForward):
        g.value("h")
    g.forward(point)
    assert g.backward()["x"].tobytes() == first.tobytes()



def test_backward_frees_values_and_gradients_as_it_sweeps(traced_peak):
    # a chain of k tanh nodes: the forward holds k values; a sweep that kept
    # every value and every gradient to its end would peak near 2k of them
    k, shape = 10, (256, 256)
    g = Graph()
    node = g.leaf("x", shape)
    for _ in range(k):
        node = g.tanh(node)
    g.output(g.reduce_sum(node))
    x = np.random.default_rng(0).uniform(-1.0, 1.0, shape)
    grads = {}
    peak = traced_peak(lambda: (g.forward({"x": x}), grads.update(g.backward())))
    assert peak < 1.5 * k * x.nbytes, peak / (k * x.nbytes)
    ys = [x]
    for _ in range(k):
        ys.append(np.tanh(ys[-1]))
    want = np.broadcast_to(np.float64(1.0), shape)
    for y in ys[:0:-1]:
        want = want * (1.0 - y * y)
    assert grads["x"].tobytes() == want.tobytes()


def _assert_own_memory(grads: dict, bound: dict) -> None:
    """Each returned gradient is a writeable array that owns its memory and
    shares none with another gradient or a bound leaf."""
    named = sorted(grads.items())
    for k, (name, grad) in enumerate(named):
        assert grad.flags.owndata and grad.flags.writeable, name
        others = named[k + 1:] + [(f"bound {n}", v) for n, v in bound.items()]
        for other, arr in others:
            assert not np.shares_memory(grad, arr), (name, other)


def test_add_hands_each_parameter_its_own_gradient():
    # `add` passes one upstream array to both inputs, here two parameters
    g = Graph()
    a, b = g.leaf("a", (2, 3)), g.leaf("b", (2, 3))
    c = g.leaf("c", (2, 3), param=False)
    g.output(g.reduce_sum(g.mul(g.add(a, b), c)))
    rng = np.random.default_rng(0)
    point = {n: rng.standard_normal((2, 3)) for n in "abc"}
    g.forward(point)
    grads = g.backward()
    assert np.array_equal(grads["a"], point["c"])
    assert np.array_equal(grads["b"], point["c"])
    _assert_own_memory(grads, point)


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
KINKED_AT_0 = ("relu", "abs")


@pytest.mark.parametrize("opname", UNARY_OPS)
def test_unary_op_gradients_match_fd(opname):
    rng = np.random.default_rng(zlib.crc32(opname.encode()))
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
        a_val = rng.standard_normal((2, 3))
        if opname in KINKED_AT_0:
            # a central difference across the kink estimates no derivative:
            # keep |a| far above the 1e-5 step, on both sides of 0
            a_val += np.copysign(0.1, a_val)
        else:
            a_val += 0.05
        point = {"a": a_val, "m": rng.standard_normal((2, 3))}
        assert grad_check(g, point, 1e-5) < 1e-4, opname


@pytest.mark.parametrize("opname,build", _single_op_graphs())
def test_binary_op_gradients_match_fd(opname, build):
    rng = np.random.default_rng(zlib.crc32(opname.encode()))
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


def _recurrence_point(rng, kind, T, B, d, nin, H):
    """Random inputs of a `recurrence` over [theta rows; data] columns, keyed
    by leaf name: `theta` (1, d), `xin` (T*B, nin), `h0`, the cell weights
    and the output mix `m`."""
    nx = d + nin
    shapes = {"theta": (1, d), "xin": (T * B, nin), "h0": (B, H), "m": (T * B, H)}
    if kind == "gru":
        shapes.update({n: (nx + H, H) if n[0] == "w" else (H,) for n in CELL_PARAMS[kind]})
    else:
        shapes.update(w_x=(nx, H), w_h=(H, H), b=(H,))
    return {n: rng.standard_normal(s) for n, s in shapes.items()}


def _composite_step(g, kind, r, x, h):
    """One cell step from matmul/concat/sigmoid/tanh nodes: the oracle."""
    if kind == "vanilla_rnn":
        return g.tanh(g.add(g.add(g.matmul(x, r["w_x"]), g.matmul(h, r["w_h"])), r["b"]))
    xh = g.concat(x, h)
    z = g.sigmoid(g.add(g.matmul(xh, r["w_z"]), r["b_z"]))
    rg = g.sigmoid(g.add(g.matmul(xh, r["w_r"]), r["b_r"]))
    hc = g.tanh(g.add(g.matmul(g.concat(x, g.mul(rg, h)), r["w_h"]), r["b_h"]))
    return g.add(g.mul(g.affine(z, -1.0, 1.0), hc), g.mul(z, h))


def _recurrence_graph(kind, point, T, B, composite):
    """sum(m * states) of T steps over x = [theta rows; xin], from one
    `recurrence` node or, with `composite`, from per-step oracle nodes that
    read the rows of step t through `gather_rows`."""
    g = Graph()
    r = {n: g.leaf(n, v.shape, param=n != "m") for n, v in point.items()}
    x = g.concat(g.matmul(g.const(np.ones((T * B, 1))), r["theta"]), r["xin"])
    if not composite:
        weights = [r[n] for n in CELL_PARAMS[kind]]
        hs = g.mark("states", g.recurrence(kind, x, r["h0"], weights))
        g.output(g.reduce_sum(g.mul(hs, r["m"])))
        return g
    h, terms = r["h0"], []
    for t in range(T):
        rows = g.const(np.arange(t * B, (t + 1) * B))
        h = _composite_step(g, kind, r, g.gather_rows(x, rows), h)
        terms.append(g.reduce_sum(g.mul(h, g.gather_rows(r["m"], rows))))
    total = terms[0]
    for term in terms[1:]:
        total = g.add(total, term)
    g.output(total)
    return g


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["gru", "vanilla_rnn"]), T=st.integers(1, 6),
       B=st.integers(1, 4), d=st.integers(1, 2), nin=st.integers(1, 3),
       H=st.integers(1, 3), seed=st.integers(0, 2 ** 16))
def test_fused_cells_match_composite_and_fd(kind, T, B, d, nin, H, seed):
    point = _recurrence_point(np.random.default_rng(seed), kind, T, B, d, nin, H)
    fused = _recurrence_graph(kind, point, T, B, composite=False)
    assert grad_check(fused, point, 1e-5) < 1e-6
    fused.forward(point)
    states = fused.value("states")
    # forward: bit for bit a numpy loop that projects all T * B rows once and
    # steps the cell on the state alone
    x = np.concatenate((np.repeat(point["theta"], T * B, axis=0), point["xin"]), axis=1)
    w_in, b_in, state = CELL_SPLITS[kind](d + nin, *(point[n] for n in CELL_PARAMS[kind]))
    xp = np.matmul(x, w_in) + b_in
    h, want = point["h0"], []
    for t in range(T):
        h = CELLS[kind](xp[:, t * B:(t + 1) * B], h, *state)[0]
        want.append(h)
    assert states.tobytes() == np.concatenate(want).tobytes()
    # and to rounding, per-step `cell_step`: a projection over other row
    # blocks rounds differently
    cell = SimpleNamespace(cell_kind=kind, params=point)
    h, per_step = point["h0"], []
    for t in range(T):
        h = cell_step(cell, x[t * B:(t + 1) * B], h)
        per_step.append(h)
    per_step = np.concatenate(per_step)
    assert np.all(np.abs(states - per_step) <= 1e-12 * np.maximum(1.0, np.abs(per_step)))
    # gradients of theta, x, h0 and every weight: the per-step composite graph
    composite = _recurrence_graph(kind, point, T, B, composite=True)
    composite.forward(point)
    oracle = composite.backward()
    for name, grad in fused.backward().items():
        np.testing.assert_allclose(grad, oracle[name], rtol=1e-10, atol=1e-12,
                                   err_msg=name)


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
    scattered = np.zeros((V, K))
    np.add.at(scattered, ids, upstream)
    assert grad.tobytes() == scattered.tobytes()  # summed in row order, as np.add.at
    # one table per model: each model's rows and gradient are its own table's
    gs = Graph()
    tables = gs.leaf("table", (2, V, K))
    rows = gs.gather_rows(tables, gs.leaf("ids", (2, len(ids)), param=False))
    gs.output(gs.reduce_sum(gs.mul(gs.tanh(rows), gs.leaf("m", (2, len(ids), K), param=False))))
    stacked = {"table": np.stack([point["table"], -point["table"]]),
               "ids": np.stack([ids, ids[::-1]]), "m": np.stack([point["m"], point["m"]])}
    assert grad_check(gs, stacked, 1e-5) < 1e-6
    gs.forward(stacked)
    grads = gs.backward()["table"]
    assert grads[0].tobytes() == grad.tobytes()
    scattered = np.zeros((V, K))
    np.add.at(scattered, ids[::-1], point["m"] * (1.0 - np.tanh(-point["table"][ids[::-1]]) ** 2))
    assert grads[1].tobytes() == scattered.tobytes()


def _step(kind, point):
    """`CELLS[kind]` on the state `h` after projecting `x` through
    `CELL_SPLITS`; returns (h_new, saved) and the state weights."""
    weights = (point[n] for n in CELL_PARAMS[kind])
    w_in, b_in, state = CELL_SPLITS[kind](point["x"].shape[1], *weights)
    return CELLS[kind](np.matmul(point["x"], w_in) + b_in, point["h"], *state), state


def _step_grads(kind, point, saved, da):
    """Input and weight gradients from a step VJP's pre-activation gradients
    `da` (G, B, H), formed as `recurrence`'s backward forms them over its
    stacked steps: the input and state row blocks of each stored weight."""
    x, h = point["x"], point["h"]
    w_in = CELL_SPLITS[kind](x.shape[1], *(point[n] for n in CELL_PARAMS[kind]))[0]
    grads = {"x": np.matmul(da, w_in.transpose(0, 2, 1)).sum(axis=0)}
    if kind == "vanilla_rnn":
        return grads | {"w_x": x.T @ da[0], "w_h": h.T @ da[0], "b": da[0].sum(axis=0)}
    for k, (gate, rows) in enumerate((("z", h), ("r", h), ("h", saved[1]))):  # saved[1] = r*h
        grads[f"w_{gate}"] = np.concatenate((x.T @ da[k], rows.T @ da[k]))
        grads[f"b_{gate}"] = da[k].sum(axis=0)
    return grads


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["gru", "vanilla_rnn"]), B=st.integers(1, 4),
       nx=st.integers(1, 3), H=st.integers(1, 4), seed=st.integers(0, 2 ** 16))
def test_step_vjps_match_fd(kind, B, nx, H, seed):
    # inputs drawn from [-1, 1] keep every gate off saturation, where central
    # differences lose their digits
    rng = np.random.default_rng(seed)
    shapes = {"x": (B, nx), "h": (B, H)}
    if kind == "gru":
        shapes.update({n: (nx + H, H) if n[0] == "w" else (H,) for n in CELL_PARAMS[kind]})
    else:
        shapes.update(w_x=(nx, H), w_h=(H, H), b=(H,))
    point = {n: rng.uniform(-1.0, 1.0, s) for n, s in shapes.items()}
    cotangent = rng.uniform(-1.0, 1.0, (B, H))
    (h_new, saved), state = _step(kind, point)
    dh, da = CELL_VJPS[kind](cotangent, point["h"], h_new, saved, *state)
    assert da.shape == (3 if kind == "gru" else 1, B, H)  # one block per gate
    analytic = {"h": dh, **_step_grads(kind, point, saved, da)}
    assert sorted(analytic) == sorted(point)
    for name, grad in analytic.items():
        flat, num = point[name].reshape(-1), np.zeros(point[name].size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + 1e-6
            hi = (_step(kind, point)[0][0] * cotangent).sum()
            flat[i] = orig - 1e-6
            lo = (_step(kind, point)[0][0] * cotangent).sum()
            flat[i] = orig
            num[i] = (hi - lo) / 2e-6
        np.testing.assert_allclose(grad.reshape(-1), num, rtol=1e-6, atol=1e-8,
                                   err_msg=name)


def test_fused_ops_reject_bad_shapes():
    g = Graph()
    x, h = g.leaf("x", (6, 3)), g.leaf("h", (2, 4))
    w, b = g.leaf("w", (7, 4)), g.leaf("b", (4,))
    g.recurrence("gru", x, h, [w, b, w, b, w, b])
    with pytest.raises(ShapeMismatch):  # a bias where a weight belongs
        g.recurrence("gru", x, h, [w, b, w, b, b, b])
    with pytest.raises(ShapeMismatch):  # 6 input rows are not T steps of 4
        g.recurrence("gru", x, g.leaf("h4", (4, 4)), [w, b, w, b, w, b])
    with pytest.raises(ShapeMismatch):  # fewer input rows than one step
        g.recurrence("gru", g.leaf("x1", (1, 3)), h, [w, b, w, b, w, b])
    with pytest.raises(ShapeMismatch):
        g.recurrence("vanilla_rnn", x, h, [g.leaf("wx", (3, 4)), w, b])
    with pytest.raises(NumgradError):
        g.recurrence("lstm", x, h, [w, b])
    with pytest.raises(ShapeMismatch):
        g.gather_rows(x, g.leaf("ids", (2, 1), param=False))


# -- pruned backward -----------------------------------------------------------------

_PRUNE_OPS = ("add", "sub", "mul", "bias", "matmul", "affine", "sigmoid", "tanh",
              "relu", "abs", "concat", "gather", "gru", "rnn", "log_softmax")


def _prune_leaves(B, H, V):
    """Float leaves of `_random_graph` and their shapes; `ids`, `ids2`,
    `steps` and the output mix `m` are bound data."""
    shapes = {"a": (B, H), "b": (B, H), "k": (B, H), "bias": (H,), "w": (H, H),
              "w2": (2 * H, H), "table": (V, H), "rx": (H, H), "rh": (H, H),
              "rb": (H,)}
    shapes.update({n: (2 * H, H) if n[0] == "w" else (H,) for n in CELL_PARAMS["gru"]})
    return shapes


def _random_graph(ops, pick, frozen, B, H, V):
    """Grows a pool of (B, H) nodes from leaves `a` and `b`, one node per op
    with operands chosen by `pick(n)` in [0, n); leaves in `frozen` are
    declared with param=False. `relu` and `abs` read only `k`, which is bound
    away from their kinks."""
    g = Graph()
    r = {n: g.leaf(n, s, param=n not in frozen)
         for n, s in _prune_leaves(B, H, V).items()}
    ids, ids2 = g.leaf("ids", (B,), param=False), g.leaf("ids2", (B,), param=False)
    steps = g.leaf("steps", (2 * B,), param=False)
    m = g.leaf("m", (B, H), param=False)
    pool = [r["a"], r["b"]]
    for op in ops:
        x, y = pool[pick(len(pool))], pool[pick(len(pool))]
        if op == "add":
            node = g.add(x, y)
        elif op == "sub":
            node = g.sub(x, g.mul(y, g.const(np.full((B, H), 0.25))))
        elif op == "mul":
            node = g.mul(x, g.sigmoid(y))
        elif op == "bias":
            node = g.add(x, r["bias"])
        elif op == "matmul":
            node = g.matmul(x, r["w"])
        elif op == "affine":
            node = g.affine(x, -1.7, 0.3)
        elif op == "sigmoid":
            node = g.sigmoid(x)
        elif op == "tanh":
            node = g.tanh(x)
        elif op == "relu":
            node = g.add(x, g.relu(r["k"]))
        elif op == "abs":
            node = g.mul(x, g.abs(r["k"]))
        elif op == "concat":
            node = g.matmul(g.concat(x, y), r["w2"])
        elif op == "gather":
            node = g.add(x, g.gather_rows(r["table"], ids))
        elif op in ("gru", "rnn"):
            # two steps over rows of x from state y, then B of the 2B states
            w = ([r[n] for n in CELL_PARAMS["gru"]] if op == "gru"
                 else [r["rx"], r["rh"], r["rb"]])
            kind = "gru" if op == "gru" else "vanilla_rnn"
            node = g.gather_rows(g.recurrence(kind, g.gather_rows(x, steps), y, w), ids2)
        else:
            node = g.log_softmax(x)
        pool.append(node)
    last, other = pool[-1], pool[pick(len(pool) - 1)]
    g.output(g.add(g.reduce_sum(g.mul(g.log_softmax(last), m)),
                   g.reduce_sum(g.reduce_mean(g.mul(other, other), axis=1))))
    return g


def _prune_point(rng, B, H, V):
    """A binding of every leaf of `_random_graph`."""
    point = {n: 0.5 * rng.standard_normal(s) for n, s in _prune_leaves(B, H, V).items()}
    point["k"] = rng.choice([-1.0, 1.0], (B, H)) * rng.uniform(0.5, 1.5, (B, H))
    point.update(ids=rng.integers(0, V, B).astype(float),
                 ids2=rng.integers(0, 2 * B, B).astype(float),
                 steps=rng.integers(0, B, 2 * B).astype(float),
                 m=rng.standard_normal((B, H)))
    return point


@settings(max_examples=25, deadline=None)
@given(ops=st.permutations(_PRUNE_OPS), B=st.integers(1, 3), H=st.integers(1, 3),
       seed=st.integers(0, 2 ** 16), data=st.data())
def test_frozen_leaves_leave_other_gradients_bitwise_unchanged(ops, B, H, seed, data):
    V = 4
    point = _prune_point(np.random.default_rng(seed), B, H, V)
    picks = data.draw(st.lists(st.integers(0, 2 ** 16), min_size=2 * len(ops) + 1,
                               max_size=2 * len(ops) + 1))
    names = set(_prune_leaves(1, 1, 1))
    frozen = data.draw(st.sets(st.sampled_from(sorted(names))))

    def build(declared_frozen):
        it = iter(picks)
        g = _random_graph(ops, lambda n: next(it) % n, declared_frozen, B, H, V)
        g.forward(point)
        grads = g.backward()
        _assert_own_memory(grads, point)
        return g, grads

    full = build(set())[1]
    # the drawn subset, then each leaf as the only parameter
    for declared in [frozen] + [names - {n} for n in sorted(names)]:
        pruned = build(declared)[1]
        assert set(pruned) == names - declared
        for name, grad in pruned.items():
            assert grad.tobytes() == full[name].tobytes(), name
    assert grad_check(build(frozen)[0], point, 1e-5) < 1e-6


@settings(max_examples=25, deadline=None)
@given(ops=st.permutations(_PRUNE_OPS), B=st.integers(1, 3), H=st.integers(1, 3),
       seed=st.integers(0, 2 ** 16), data=st.data())
def test_dropped_values_leave_gradients_bitwise_unchanged(ops, B, H, seed, data):
    # marking every node keeps every value: the reference for what forward drops
    V = 4
    point = _prune_point(np.random.default_rng(seed), B, H, V)
    picks = data.draw(st.lists(st.integers(0, 2 ** 16), min_size=2 * len(ops) + 1,
                               max_size=2 * len(ops) + 1))
    frozen = data.draw(st.sets(st.sampled_from(sorted(_prune_leaves(1, 1, 1)))))

    def run(mark_all):
        it = iter(picks)
        g = _random_graph(ops, lambda n: next(it) % n, frozen, B, H, V)
        for nid in range(len(g._kinds)) if mark_all else ():
            g.mark(f"n{nid}", nid)
        out = g.forward(point)
        dropped = sum(v is None for v in g._values)
        return out, g.backward(), dropped

    out, grads, dropped = run(False)
    want_out, want, none = run(True)
    assert dropped > 0 and none == 0
    assert out.tobytes() == want_out.tobytes()
    assert grads.keys() == want.keys()
    for name, grad in grads.items():
        assert grad.tobytes() == want[name].tobytes(), name


def test_forward_drops_each_value_after_its_last_reader(traced_peak):
    # `affine`'s backward reads no value: each link of the chain dies once
    # the next has run, so forward holds at most 3 values at once (a link,
    # its successor and a temporary), where keeping them all would hold k
    k, shape = 10, (256, 256)
    g = Graph()
    node = g.leaf("x", shape)
    for _ in range(k):
        node = g.affine(node, 0.5, 1.0)
    g.output(g.reduce_sum(node))
    x = np.random.default_rng(0).uniform(-1.0, 1.0, shape)
    peak = traced_peak(lambda: g.forward({"x": x}))
    assert peak < 4 * x.nbytes, peak / x.nbytes
    assert np.all(g.backward()["x"] == 0.5 ** k)


def test_value_of_a_dropped_node_is_an_error():
    g = Graph()
    x = g.leaf("x", (2, 2))
    a = g.affine(x, 2.0)
    g.output(g.reduce_sum(g.tanh(a)))  # tanh's backward reads its output, not `a`
    point = {"x": np.array([[0.1, -0.2], [0.3, 0.4]])}
    g.forward(point)
    with pytest.raises(NumgradError, match=f"node {a} \\(affine\\)"):
        g.value(a)
    g.mark("a", a)  # a mark keeps the value from the next forward on
    g.forward(point)
    assert np.array_equal(g.value("a"), 2.0 * point["x"])
