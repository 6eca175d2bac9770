"""Reverse-mode autodiff over fixed computation graphs of dense float64 arrays.

Graphs are built once from a fixed primitive vocabulary and then bound with
fresh leaf values on every forward call, so the same unrolled model can be
reused across training steps. The vocabulary:

- leaves and constants;
- add/sub/mul (numpy broadcasting), affine, matmul;
- sigmoid, tanh, relu, abs;
- column concat of two nodes, `gather_rows` (rows of a table picked by an
  id leaf, whose backward scatter-adds into the table);
- sum/mean reductions and row-wise log-softmax;
- `recurrence`: all T steps of a GRU or vanilla RNN over time-major
  (T * B, .) rows as one node. Forward calls `gru_step`/`rnn_step`, as the
  numpy rollouts in `models` do; backward carries the state gradient back
  through `gru_step_vjp`/`rnn_step_vjp` (`CELL_VJPS`, which the fixed-point
  descent in `dynamics` calls too), then forms each weight gradient with
  one product over all T * B rows.

Python dispatch per node, not arithmetic, dominates small graphs. Backward
visits only nodes on a path to a parameter leaf, and computes no gradient
term for an input off such a path, so a frozen model costs no weight
products. Backward consumes the forward pass it differentiates: it frees
the node values and recurrence steps, so a cached graph holds no batch
between steps. Both passes run with overflow warnings off; a forward output
or a gradient that is not finite raises NumericError.
"""
from __future__ import annotations

import numpy as np


class NumgradError(Exception):
    """Base error for graph construction and execution."""


class ShapeMismatch(NumgradError):
    pass


class UnboundLeaf(NumgradError):
    pass


class NonScalarOutput(NumgradError):
    pass


class BackwardBeforeForward(NumgradError):
    pass


class NumericError(NumgradError):
    """A graph output or gradient stopped being finite."""


def _finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NumericError(f"{what} is not finite")
    return arr


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to `shape` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _broadcast_shape(sa, sb, node_label):
    try:
        return np.broadcast_shapes(sa, sb)
    except ValueError:
        raise ShapeMismatch(f"{node_label}: cannot broadcast {sa} with {sb}") from None


def _rows(parts: list) -> np.ndarray:
    """Row-wise concatenation; a single part is returned as it is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def gru_step(x, h, w_z, b_z, w_r, b_r, w_h, b_h):
    """One GRU step, h' = (1-z)*hc + z*h with z, r = sigmoid([x; h] w + b) and
    hc = tanh([x; r*h] w_h + b_h); returns h' and [x; h], z, r, [x; r*h], hc."""
    xh = np.concatenate((x, h), axis=-1)
    z = _sigmoid(xh @ w_z + b_z)
    r = _sigmoid(xh @ w_r + b_r)
    xrh = np.concatenate((x, r * h), axis=-1)
    hc = np.tanh(xrh @ w_h + b_h)
    return (1.0 - z) * hc + z * h, (xh, z, r, xrh, hc)


def rnn_step(x, h, w_x, w_h, b):
    """One vanilla RNN step, h' = tanh(x w_x + h w_h + b); it saves nothing."""
    return np.tanh(x @ w_x + h @ w_h + b), ()


def gru_step_vjp(g, h, h_new, saved, w_z, b_z, w_r, b_r, w_h, b_h):
    """Gradient of h for the gradient `g` of h_new = `gru_step`(x, h), and those
    of the z, r and hc pre-activations, [x; r*h] and [x; h], which the weight
    and input gradients are formed from."""
    _, z, r, _, hc = saved
    nx = len(w_h) - h.shape[1]
    da_h = g * (1.0 - z) * (1.0 - hc * hc)
    dxrh = da_h @ w_h.T
    drh = dxrh[:, nx:]
    da_r = drh * h * r * (1.0 - r)
    da_z = (g * h - g * hc) * z * (1.0 - z)
    dxh = da_r @ w_r.T + da_z @ w_z.T
    return g * z + drh * r + dxh[:, nx:], (da_z, da_r, da_h, dxrh, dxh)


def rnn_step_vjp(g, h, h_new, saved, w_x, w_h, b):
    """Gradient of h for the gradient `g` of h_new = `rnn_step`(x, h), and that
    of the pre-activation."""
    da = g * (1.0 - h_new * h_new)
    return da @ w_h.T, (da,)


CELLS = {"gru": gru_step, "vanilla_rnn": rnn_step}
CELL_VJPS = {"gru": gru_step_vjp, "vanilla_rnn": rnn_step_vjp}


class Graph:
    """Static computation graph over named leaves.

    Nodes are appended in construction order, which is already a topological
    order; `backward` walks it once in reverse. Only leaves created with
    ``param=True`` appear in the gradient dict.
    """

    def __init__(self):
        self._kinds: list[str] = []
        self._inputs: list[tuple[int, ...]] = []
        self._aux: list = []
        self._shapes: list[tuple[int, ...]] = []
        self._leaf_id: dict[str, int] = {}
        self._leaf_of: dict[int, str] = {}
        self._param_names: list[str] = []
        self._marks: dict[str, int] = {}
        self._out: int | None = None
        self._values: list | None = None
        self._saved: dict = {}
        self._plan: tuple[list[bool], list[int]] | None = None

    # -- construction ---------------------------------------------------

    def _push(self, kind, inputs, aux, shape) -> int:
        self._plan = None
        self._kinds.append(kind)
        self._inputs.append(inputs)
        self._aux.append(aux)
        self._shapes.append(tuple(int(s) for s in shape))
        return len(self._kinds) - 1

    def shape(self, node: int) -> tuple[int, ...]:
        return self._shapes[node]

    def leaf(self, name: str, shape, param: bool = True) -> int:
        if name in self._leaf_id:
            raise NumgradError(f"duplicate leaf {name!r}")
        nid = self._push("leaf", (), None, tuple(shape))
        self._leaf_id[name] = nid
        self._leaf_of[nid] = name
        if param:
            self._param_names.append(name)
        return nid

    def const(self, value) -> int:
        arr = _as_array(value)
        return self._push("const", (), arr, arr.shape)

    def add(self, a: int, b: int) -> int:
        shape = _broadcast_shape(self._shapes[a], self._shapes[b], "add")
        return self._push("add", (a, b), None, shape)

    def sub(self, a: int, b: int) -> int:
        shape = _broadcast_shape(self._shapes[a], self._shapes[b], "sub")
        return self._push("sub", (a, b), None, shape)

    def mul(self, a: int, b: int) -> int:
        shape = _broadcast_shape(self._shapes[a], self._shapes[b], "mul")
        return self._push("mul", (a, b), None, shape)

    def affine(self, a: int, scale: float, shift: float = 0.0) -> int:
        return self._push("affine", (a,), (float(scale), float(shift)), self._shapes[a])

    def matmul(self, a: int, b: int) -> int:
        sa, sb = self._shapes[a], self._shapes[b]
        if len(sa) != 2 or len(sb) != 2 or sa[1] != sb[0]:
            raise ShapeMismatch(f"matmul: {sa} @ {sb}")
        return self._push("matmul", (a, b), None, (sa[0], sb[1]))

    def sigmoid(self, a: int) -> int:
        return self._push("sigmoid", (a,), None, self._shapes[a])

    def tanh(self, a: int) -> int:
        return self._push("tanh", (a,), None, self._shapes[a])

    def relu(self, a: int) -> int:
        return self._push("relu", (a,), None, self._shapes[a])

    def abs(self, a: int) -> int:
        return self._push("abs", (a,), None, self._shapes[a])

    def concat(self, a: int, b: int) -> int:
        sa, sb = self._shapes[a], self._shapes[b]
        if len(sa) != 2 or len(sb) != 2 or sa[0] != sb[0]:
            raise ShapeMismatch(f"concat: {sa} | {sb}")
        return self._push("concat", (a, b), sa[1], (sa[0], sa[1] + sb[1]))

    def reduce_sum(self, a: int, axis: int | None = None) -> int:
        return self._reduce("reduce_sum", a, axis)

    def reduce_mean(self, a: int, axis: int | None = None) -> int:
        return self._reduce("reduce_mean", a, axis)

    def _reduce(self, kind, a, axis):
        sa = self._shapes[a]
        if axis is None:
            shape = ()
        else:
            if axis < 0:
                axis += len(sa)
            if not 0 <= axis < len(sa):
                raise ShapeMismatch(f"{kind}: axis {axis} of {sa}")
            shape = sa[:axis] + sa[axis + 1 :]
        return self._push(kind, (a,), axis, shape)

    def log_softmax(self, a: int) -> int:
        sa = self._shapes[a]
        if len(sa) != 2:
            raise ShapeMismatch(f"log_softmax expects 2-D, got {sa}")
        return self._push("log_softmax", (a,), None, sa)

    def gather_rows(self, table: int, ids: int) -> int:
        """Rows `table[ids]` of a 2-D node, `ids` a (N,) node of row indices
        (bound as numbers, read as integers; it gets no gradient)."""
        st, si = self._shapes[table], self._shapes[ids]
        if len(st) != 2 or len(si) != 1:
            raise ShapeMismatch(f"gather_rows: table {st}, ids {si}")
        return self._push("gather_rows", (table, ids), None, (si[0], st[1]))

    def recurrence(self, kind: str, x: int, h0: int, params) -> int:
        """T steps of the cell `kind` ("gru" or "vanilla_rnn") from h0 (B, H).
        `x` is (T * B, nx), row t * B + b the input of sequence b at step t;
        the output stacks the T states in that layout, (T * B, H). `params`
        are (w_z, b_z, w_r, b_r, w_h, b_h) for a GRU, (w_x, w_h, b) for an RNN."""
        sx, sh, params = self._shapes[x], self._shapes[h0], tuple(params)
        if (kind not in CELLS or len(sx) != 2 or len(sh) != 2
                or not 0 < sh[0] <= sx[0] or sx[0] % sh[0]):
            raise ShapeMismatch(f"recurrence {kind}: x {sx}, h0 {sh}")
        nx, H = sx[1], sh[1]
        want = [(nx + H, H), (H,)] * 3 if kind == "gru" else [(nx, H), (H, H), (H,)]
        got = [self._shapes[p] for p in params]
        if got != want:
            raise ShapeMismatch(f"recurrence {kind}: weights {got}, expected {want}")
        return self._push("recurrence", (x, h0) + params, kind, (sx[0], sh[1]))

    # -- composites -------------------------------------------------------

    def squared_l2(self, a: int, axis: int | None = None) -> int:
        return self.reduce_sum(self.mul(a, a), axis)

    def l1(self, a: int, axis: int | None = None) -> int:
        return self.reduce_sum(self.abs(a), axis)

    def softmax_log_loss(self, logits: int, onehot: int) -> int:
        """Per-row cross entropy -sum(onehot * log_softmax(logits))."""
        ce = self.reduce_sum(self.mul(self.log_softmax(logits), onehot), axis=1)
        return self.affine(ce, -1.0)

    # -- execution --------------------------------------------------------

    def mark(self, name: str, node: int) -> int:
        self._marks[name] = node
        return node

    def output(self, node: int) -> None:
        self._out = node

    @np.errstate(over="ignore", invalid="ignore")
    def forward(self, bindings: dict) -> np.ndarray:
        """Evaluate every node; returns the output node's value.

        Raises NumericError if the output is not finite."""
        if self._out is None:
            raise NumgradError("graph has no output node")
        vals: list = [None] * len(self._kinds)
        saved: dict = {}
        for nid, kind in enumerate(self._kinds):
            ins = self._inputs[nid]
            aux = self._aux[nid]
            if kind == "leaf":
                name = self._leaf_of[nid]
                if name not in bindings:
                    raise UnboundLeaf(f"leaf {name!r} not bound")
                v = _as_array(bindings[name])
                if v.shape != self._shapes[nid]:
                    raise ShapeMismatch(
                        f"leaf {name!r}: bound {v.shape}, declared {self._shapes[nid]}"
                    )
                vals[nid] = v
            elif kind == "const":
                vals[nid] = aux
            elif kind == "add":
                vals[nid] = vals[ins[0]] + vals[ins[1]]
            elif kind == "sub":
                vals[nid] = vals[ins[0]] - vals[ins[1]]
            elif kind == "mul":
                vals[nid] = vals[ins[0]] * vals[ins[1]]
            elif kind == "affine":
                k, c = aux
                vals[nid] = vals[ins[0]] * k + c
            elif kind == "matmul":
                vals[nid] = vals[ins[0]] @ vals[ins[1]]
            elif kind == "sigmoid":
                vals[nid] = _sigmoid(vals[ins[0]])
            elif kind == "tanh":
                vals[nid] = np.tanh(vals[ins[0]])
            elif kind == "relu":
                vals[nid] = np.maximum(vals[ins[0]], 0.0)
            elif kind == "abs":
                vals[nid] = np.abs(vals[ins[0]])
            elif kind == "concat":
                vals[nid] = np.concatenate((vals[ins[0]], vals[ins[1]]), axis=1)
            elif kind == "reduce_sum":
                vals[nid] = vals[ins[0]].sum(axis=aux)
            elif kind == "reduce_mean":
                vals[nid] = vals[ins[0]].mean(axis=aux)
            elif kind == "log_softmax":
                x = vals[ins[0]]
                m = x.max(axis=1, keepdims=True)
                z = x - m
                vals[nid] = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
            elif kind == "gather_rows":
                vals[nid] = vals[ins[0]][vals[ins[1]].astype(np.intp)]
            elif kind == "recurrence":
                x, h, *params = (vals[i] for i in ins)
                B, hs, saved[nid] = len(h), [], []
                for s in range(0, len(x), B):
                    h, inter = CELLS[aux](x[s:s + B], h, *params)
                    hs.append(h)
                    saved[nid].append(inter)
                vals[nid] = _rows(hs)
            else:  # pragma: no cover
                raise NumgradError(f"unknown op {kind}")
        self._values = vals
        self._saved = saved
        return _finite(np.array(vals[self._out], dtype=np.float64), "graph output")

    def value(self, ref) -> np.ndarray:
        """Value of a node (or mark name) from the latest forward pass, until
        backward consumes it."""
        if self._values is None:
            raise BackwardBeforeForward("no forward pass to read: none has run "
                                        "since the last backward")
        nid = self._marks[ref] if isinstance(ref, str) else ref
        return self._values[nid]

    def _backward_plan(self) -> tuple[list[bool], list[int]]:
        """`needs[n]`: a parameter leaf is node n or one of its ancestors;
        and the nodes backward visits, in reverse order. Kept until the
        graph grows."""
        if self._plan is None:
            params = {self._leaf_id[name] for name in self._param_names}
            needs = [False] * len(self._kinds)
            for nid, ins in enumerate(self._inputs):
                needs[nid] = nid in params or any(needs[i] for i in ins)
            order = [nid for nid in range(len(self._kinds) - 1, -1, -1)
                     if needs[nid] and self._inputs[nid]]
            self._plan = (needs, order)
        return self._plan

    @np.errstate(over="ignore", invalid="ignore")
    def backward(self, seed: float = 1.0) -> dict[str, np.ndarray]:
        """Gradients of the output with respect to every parameter leaf.

        Only terms that reach a parameter leaf are computed; each kept sum
        runs in the same order as over the full graph. Backward consumes the
        forward pass: it drops the node values and the recurrence steps, so
        the graph holds no batch between steps, and `value` or a second
        backward needs a new forward. Each returned gradient is an array of
        its own, sharing memory with no other gradient and no bound leaf.
        Raises NumericError if a gradient is not finite."""
        if self._values is None:
            raise BackwardBeforeForward("backward needs a forward pass of its own")
        out = self._out
        if self._shapes[out] != ():
            raise NonScalarOutput(f"output shape {self._shapes[out]} is not scalar")
        needs, order = self._backward_plan()
        vals = self._values
        grads: list = [None] * len(self._kinds)
        grads[out] = np.float64(seed)

        def acc(nid, g):
            if grads[nid] is None:
                grads[nid] = g
            else:
                grads[nid] = grads[nid] + g

        for nid in order:
            g = grads[nid]
            if g is None:
                continue
            kind = self._kinds[nid]
            ins = self._inputs[nid]
            aux = self._aux[nid]
            if kind in ("add", "sub"):
                a, b = ins
                if needs[a]:
                    acc(a, _unbroadcast(g, self._shapes[a]))
                if needs[b]:
                    acc(b, _unbroadcast(-g if kind == "sub" else g, self._shapes[b]))
            elif kind == "mul":
                a, b = ins
                if needs[a]:
                    acc(a, _unbroadcast(g * vals[b], self._shapes[a]))
                if needs[b]:
                    acc(b, _unbroadcast(g * vals[a], self._shapes[b]))
            elif kind == "affine":
                acc(ins[0], g * aux[0])
            elif kind == "matmul":
                a, b = ins
                if needs[a]:
                    acc(a, g @ vals[b].T)
                if needs[b]:
                    acc(b, vals[a].T @ g)
            elif kind == "sigmoid":
                y = vals[nid]
                acc(ins[0], g * y * (1.0 - y))
            elif kind == "tanh":
                y = vals[nid]
                acc(ins[0], g * (1.0 - y * y))
            elif kind == "relu":
                acc(ins[0], g * (vals[ins[0]] > 0.0))
            elif kind == "abs":
                acc(ins[0], g * np.sign(vals[ins[0]]))
            elif kind == "concat":
                a, b = ins
                if needs[a]:
                    acc(a, g[:, :aux])
                if needs[b]:
                    acc(b, g[:, aux:])
            elif kind == "reduce_sum":
                if aux is None:
                    acc(ins[0], np.broadcast_to(g, self._shapes[ins[0]]))
                else:
                    acc(ins[0], np.expand_dims(g, aux) * np.ones(self._shapes[ins[0]]))
            elif kind == "reduce_mean":
                src = self._shapes[ins[0]]
                if aux is None:
                    n = int(np.prod(src)) if src else 1
                    acc(ins[0], np.broadcast_to(g / n, src))
                else:
                    acc(ins[0], np.expand_dims(g, aux) * np.ones(src) / src[aux])
            elif kind == "log_softmax":
                y = vals[nid]
                sm = np.exp(y)
                acc(ins[0], g - sm * g.sum(axis=1, keepdims=True))
            elif kind == "gather_rows":
                if needs[ins[0]]:
                    table = np.zeros(self._shapes[ins[0]])
                    np.add.at(table, vals[ins[1]].astype(np.intp), g)
                    acc(ins[0], table)
            elif kind == "recurrence":
                self._recurrence_backward(nid, g, acc, [needs[i] for i in ins])
            else:  # pragma: no cover
                raise NumgradError(f"unknown op {kind}")

        self._values, self._saved = None, {}
        out_grads: dict[str, np.ndarray] = {}
        handed = set()  # ids of the arrays already returned
        for name in self._param_names:
            nid = self._leaf_id[name]
            g, shape = grads[nid], self._shapes[nid]
            if g is None:
                g = np.zeros(shape)
            elif (not isinstance(g, np.ndarray) or g.base is not None
                  or g.shape != shape or id(g) in handed):
                # a view, a numpy scalar, a broadcast, or `add` handing one
                # array to two leaves: the caller gets an array of its own
                g = np.broadcast_to(g, shape).copy()
            handed.add(id(g))
            out_grads[name] = _finite(g, f"gradient of {name!r}")
        return out_grads

    def _recurrence_backward(self, nid: int, g: np.ndarray, acc,
                             need: list[bool]) -> None:
        """BPTT through one `recurrence` node: each step back carries the state
        gradient through the cell's step VJP; each weight, bias and input
        gradient is then one product or sum over all T * B rows."""
        ins = self._inputs[nid]
        x, h0, *params = (self._values[i] for i in ins)
        steps, y = self._saved[nid], self._values[nid]
        B, nx, gru = len(h0), x.shape[1], self._aux[nid] == "gru"
        vjp = CELL_VJPS[self._aux[nid]]
        keep = need[0] or any(need[2:])  # the steps' gradients reach more than h0
        carry, grads, h_new = None, [], y[len(y) - B:]
        for t in range(len(steps) - 1, -1, -1):
            gt, h = g[t * B:(t + 1) * B], y[(t - 1) * B:t * B] if t else h0
            carry, parts = vjp(gt if carry is None else gt + carry, h, h_new, steps[t], *params)
            grads.append(parts if keep else ())
            h_new = h
        stacked = lambda j: _rows([gr[j] for gr in reversed(grads)])  # noqa: E731
        if gru:
            for k, i, j in ((2, 0, 0), (4, 0, 1), (6, 3, 2)):
                da = stacked(j) if need[k] or need[k + 1] else None
                if need[k]:  # rows of the weight's input, [x; h] or [x; r*h]
                    acc(ins[k], _rows([st[i] for st in steps]).T @ da)
                if need[k + 1]:
                    acc(ins[k + 1], da.sum(axis=0))
            if need[0]:
                acc(ins[0], stacked(3)[:, :nx] + stacked(4)[:, :nx])
        elif keep:
            da, w_x = stacked(0), params[0]
            if need[2]:
                acc(ins[2], x.T @ da)
            if need[3]:
                acc(ins[3], np.concatenate((h0, y[:-B])).T @ da)
            if need[4]:
                acc(ins[4], da.sum(axis=0))
            if need[0]:
                acc(ins[0], da @ w_x.T)
        if need[1]:
            acc(ins[1], carry)


def grad_check(graph: Graph, point: dict, step: float) -> float:
    """Max relative error between analytic and central-difference gradients.

    The numeric side only ever calls `forward`, so it stays independent of the
    backward implementation it is checking.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    point = {k: _as_array(v).copy() for k, v in point.items()}
    graph.forward(point)
    analytic = graph.backward()
    worst = 0.0
    for name in graph._param_names:
        base = point[name]
        an = analytic[name]
        num = np.zeros_like(base)
        flat = base.reshape(-1)
        nflat = num.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = float(graph.forward(point))
            flat[i] = orig - step
            lo = float(graph.forward(point))
            flat[i] = orig
            nflat[i] = (hi - lo) / (2.0 * step)
        err = np.abs(an - num) / np.maximum(1.0, np.abs(an))
        if err.size:
            worst = max(worst, float(err.max()))
    return worst
