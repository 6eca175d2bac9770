"""Reverse-mode autodiff over fixed computation graphs of dense float64 arrays.

Graphs are built once from a fixed primitive vocabulary and then bound with
fresh leaf values on every forward call, so the same unrolled cell can be
reused across training steps. The vocabulary:

- leaves and constants;
- add/sub/mul (numpy broadcasting), affine, matmul;
- sigmoid, tanh, relu, abs;
- column concat of two nodes, `stack` (row-wise concat of many equally
  shaped nodes), `gather_rows` (rows of a table picked by an id leaf, whose
  backward scatter-adds into the table);
- sum/mean reductions and row-wise log-softmax;
- the fused recurrent steps `gru_cell` and `rnn_cell`, one node per
  unrolled step with a hand-written BPTT backward.

Python dispatch per node, not arithmetic, dominates small graphs, which is
why the cells are single nodes. Forward keeps every node's value for
backward; `gru_cell` also saves [x; h], z, r, [x; r*h] and the candidate
state hc. A forward output or a gradient that is not finite raises
NumericError.
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
    if not np.all(np.isfinite(arr)):
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

    # -- construction ---------------------------------------------------

    def _push(self, kind, inputs, aux, shape) -> int:
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

    def stack(self, refs) -> int:
        """Row-wise concatenation of equally shaped (B, K) nodes into one
        (len(refs) * B, K) node; row t * B + b is row b of refs[t]."""
        refs = tuple(refs)
        shape = self._shapes[refs[0]]
        if len(shape) != 2 or any(self._shapes[r] != shape for r in refs):
            raise ShapeMismatch(f"stack: {[self._shapes[r] for r in refs]}")
        return self._push("stack", refs, shape[0], (len(refs) * shape[0], shape[1]))

    def gru_cell(self, x: int, h: int, w_z: int, b_z: int, w_r: int, b_r: int,
                 w_h: int, b_h: int) -> int:
        """One GRU step, h' = (1-z)*hc + z*h with z, r = sigmoid([x; h] w + b)
        and hc = tanh([x; r*h] w_h + b_h), computed as `models.gru_step` does."""
        return self._cell("gru_cell", x, h, (w_z, b_z, w_r, b_r, w_h, b_h))

    def rnn_cell(self, x: int, h: int, w_x: int, w_h: int, b: int) -> int:
        """One vanilla RNN step, h' = tanh(x w_x + h w_h + b)."""
        return self._cell("rnn_cell", x, h, (w_x, w_h, b))

    def _cell(self, kind, x, h, params):
        sx, sh = self._shapes[x], self._shapes[h]
        if len(sx) != 2 or len(sh) != 2 or sx[0] != sh[0]:
            raise ShapeMismatch(f"{kind}: x {sx}, h {sh}")
        nx, H = sx[1], sh[1]
        want = ([(nx + H, H), (H,)] * 3 if kind == "gru_cell"
                else [(nx, H), (H, H), (H,)])
        got = [self._shapes[p] for p in params]
        if got != want:
            raise ShapeMismatch(f"{kind}: parameter shapes {got}, expected {want}")
        return self._push(kind, (x, h) + tuple(params), nx, sh)

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
                x = vals[ins[0]]
                vals[nid] = 1.0 / (1.0 + np.exp(-x))
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
            elif kind == "stack":
                vals[nid] = np.concatenate([vals[i] for i in ins], axis=0)
            elif kind == "gru_cell":
                x, h, w_z, b_z, w_r, b_r, w_h, b_h = (vals[i] for i in ins)
                xh = np.concatenate((x, h), axis=1)
                z = 1.0 / (1.0 + np.exp(-(xh @ w_z + b_z)))
                r = 1.0 / (1.0 + np.exp(-(xh @ w_r + b_r)))
                xrh = np.concatenate((x, r * h), axis=1)
                hc = np.tanh(xrh @ w_h + b_h)
                vals[nid] = (1.0 - z) * hc + z * h
                saved[nid] = (xh, z, r, xrh, hc)
            elif kind == "rnn_cell":
                x, h, w_x, w_h, b = (vals[i] for i in ins)
                vals[nid] = np.tanh(x @ w_x + h @ w_h + b)
            else:  # pragma: no cover
                raise NumgradError(f"unknown op {kind}")
        self._values = vals
        self._saved = saved
        return _finite(np.array(vals[self._out], dtype=np.float64), "graph output")

    def value(self, ref) -> np.ndarray:
        """Value of a node (or mark name) from the latest forward pass."""
        if self._values is None:
            raise BackwardBeforeForward("no forward pass has been run")
        nid = self._marks[ref] if isinstance(ref, str) else ref
        return self._values[nid]

    def backward(self, seed: float = 1.0) -> dict[str, np.ndarray]:
        """Gradients of the output with respect to every parameter leaf.

        Raises NumericError if a gradient is not finite."""
        if self._values is None:
            raise BackwardBeforeForward("backward called before forward")
        out = self._out
        if self._shapes[out] != ():
            raise NonScalarOutput(f"output shape {self._shapes[out]} is not scalar")
        vals = self._values
        grads: list = [None] * len(self._kinds)
        grads[out] = np.float64(seed)

        def acc(nid, g):
            if grads[nid] is None:
                grads[nid] = g
            else:
                grads[nid] = grads[nid] + g

        for nid in range(len(self._kinds) - 1, -1, -1):
            g = grads[nid]
            if g is None:
                continue
            kind = self._kinds[nid]
            ins = self._inputs[nid]
            aux = self._aux[nid]
            if kind in ("leaf", "const"):
                continue
            if kind == "add":
                acc(ins[0], _unbroadcast(g, self._shapes[ins[0]]))
                acc(ins[1], _unbroadcast(g, self._shapes[ins[1]]))
            elif kind == "sub":
                acc(ins[0], _unbroadcast(g, self._shapes[ins[0]]))
                acc(ins[1], _unbroadcast(-g, self._shapes[ins[1]]))
            elif kind == "mul":
                acc(ins[0], _unbroadcast(g * vals[ins[1]], self._shapes[ins[0]]))
                acc(ins[1], _unbroadcast(g * vals[ins[0]], self._shapes[ins[1]]))
            elif kind == "affine":
                acc(ins[0], g * aux[0])
            elif kind == "matmul":
                acc(ins[0], g @ vals[ins[1]].T)
                acc(ins[1], vals[ins[0]].T @ g)
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
                acc(ins[0], g[:, :aux])
                acc(ins[1], g[:, aux:])
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
                table = np.zeros(self._shapes[ins[0]])
                np.add.at(table, vals[ins[1]].astype(np.intp), g)
                acc(ins[0], table)
            elif kind == "stack":
                for k, i in enumerate(ins):
                    acc(i, g[k * aux:(k + 1) * aux])
            elif kind == "gru_cell":
                self._gru_backward(nid, g, acc)
            elif kind == "rnn_cell":
                x, h, w_x, w_h, _ = (vals[i] for i in ins)
                y = vals[nid]
                ga = g * (1.0 - y * y)
                acc(ins[4], ga.sum(axis=0))
                acc(ins[1], ga @ w_h.T)
                acc(ins[3], h.T @ ga)
                acc(ins[0], ga @ w_x.T)
                acc(ins[2], x.T @ ga)
            else:  # pragma: no cover
                raise NumgradError(f"unknown op {kind}")

        out_grads = {}
        for name in self._param_names:
            nid = self._leaf_id[name]
            g = grads[nid]
            if g is None:
                g = np.zeros(self._shapes[nid])
            out_grads[name] = _finite(np.broadcast_to(g, self._shapes[nid]).copy(),
                                      f"gradient of {name!r}")
        return out_grads

    def _gru_backward(self, nid: int, g: np.ndarray, acc) -> None:
        """BPTT through one `gru_cell` from the [x; h], z, r, [x; r*h] and hc
        that forward saved. The sums run in the order of the equivalent
        matmul/sigmoid/tanh graph, so both give the same gradients."""
        ins = self._inputs[nid]
        nx = self._aux[nid]
        h, w_z, w_r, w_h = (self._values[ins[i]] for i in (1, 2, 4, 6))
        xh, z, r, xrh, hc = self._saved[nid]
        dz = g * h - g * hc
        da_h = g * (1.0 - z) * (1.0 - hc * hc)
        acc(ins[7], da_h.sum(axis=0))
        acc(ins[6], xrh.T @ da_h)
        dxrh = da_h @ w_h.T
        drh = dxrh[:, nx:]
        dh = g * z + drh * r
        da_r = drh * h * r * (1.0 - r)
        acc(ins[5], da_r.sum(axis=0))
        acc(ins[4], xh.T @ da_r)
        da_z = dz * z * (1.0 - z)
        acc(ins[3], da_z.sum(axis=0))
        acc(ins[2], xh.T @ da_z)
        dxh = da_r @ w_r.T + da_z @ w_z.T
        acc(ins[0], dxrh[:, :nx] + dxh[:, :nx])
        acc(ins[1], dh + dxh[:, nx:])


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
