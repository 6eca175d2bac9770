"""Reverse-mode autodiff over fixed computation graphs of dense float64 arrays.

Graphs are built once from a fixed primitive vocabulary and then bound with
fresh leaf values on every forward call, so the same unrolled model can be
reused across training steps. The vocabulary:

- leaves and constants;
- add/sub/mul (numpy broadcasting), affine, matmul;
- sigmoid, tanh, relu, abs;
- column concat of two nodes, `gather_rows` (rows of a table picked by an
  id leaf, whose backward sums each row into the table in row order with
  one `np.bincount`, bit for bit `np.add.at`);
- sum/mean reductions and log-softmax along the last axis;
- `recurrence`: all T steps of a GRU or vanilla RNN over time-major
  (T * B, .) rows as one node. `CELL_SPLITS` splits the stored [x; h]-row
  weights into gate-major input weights (G, nx, H), biases (G, 1, H) and
  state weights, G being 3 gates for a GRU and 1 for an RNN. Forward
  projects all T * B input rows once, and each step (`gru_step`/`rnn_step`,
  as the numpy rollouts in `models` call them) multiplies only the state.
  Backward carries only the state gradient back through `gru_step_vjp`/
  `rnn_step_vjp` (`CELL_VJPS`, which the fixed-point descent in `dynamics`
  calls too), then forms the input gradient and each weight's input and
  state row blocks with one product over all T * B rows.

The model axis: the ops a base model's task graph uses (`matmul`,
`gather_rows`, `log_softmax`, the reductions, the elementwise ops, and
`recurrence`) also take nodes stacked over nb models on a leading axis, so
the models of one population entry train as one graph. `matmul` multiplies
model by model, `gather_rows` reads one table per model, and `recurrence`
takes each model's own step count; in the cell kernels the model axis
follows the gate axis, so one kernel steps one model or a stack. Stacking
alone changes no bits of any model's values or gradients, but products and
reductions over more rows can round differently, so the exact-rows rule
holds: every product or reduction over a model's time-major rows (the input
projection, the input and weight gradients, the bias sums) runs per model
over exactly its own steps * B rows. Only elementwise step work and the
per-step state products, B rows for every model, run stacked. A model's
padding steps get zero input shares and a zero gradient, so backward
through them carries exact zeros and leaves its real steps unchanged.

Python dispatch per node, not arithmetic, dominates small graphs. Backward
visits only nodes on a path to a parameter leaf, and computes no gradient
term for an input off such a path, so a frozen model costs no weight
products. Memory follows the live set: forward drops each value right after
its last forward reader, unless it is marked, is the output, or a backward
rule reads it (the other operand of `mul`/`matmul` whose first operand needs
a gradient, the input of `relu`/`abs`, the output of `sigmoid`/`tanh`/
`log_softmax`, the ids of `gather_rows`, a `recurrence`'s `x`, `h0` and
output). Backward consumes the forward pass it differentiates and frees it
as the reverse sweep passes: each visited node's value and gradient once
its rule has run, a recurrence's saved step as BPTT passes it. So it never
holds every value and every gradient at once, and a cached graph holds no
batch between steps. Both passes run with overflow warnings off; a forward
output or a gradient that is not finite raises NumericError.
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
    """Concatenation along the row axis (-2); a single part is returned as it is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-2)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _scatter_rows(shape: tuple[int, ...], ids: np.ndarray, g: np.ndarray) -> np.ndarray:
    """`gather_rows`' backward: each row of `g` summed into the `shape` table
    row its id picks. One `np.bincount` over bins (model * V + id) * n +
    column adds each bin's rows in row order from +0, as `np.add.at` does."""
    V, n = shape[-2:]
    ids = ids.astype(np.intp)
    if ids.ndim == 2:  # one table per model
        ids = ids + V * np.arange(len(ids))[:, None]
    bins = (ids[..., None] * n + np.arange(n)).reshape(-1)
    return np.bincount(bins, g.reshape(-1), minlength=int(np.prod(shape))).reshape(shape)


# A cell's arrays may carry a model axis after the gate axis (states and
# state weights lead with it): the same kernel steps one model or a stack.


def gru_split(nx, w_z, b_z, w_r, b_r, w_h, b_h):
    """The stored [x; h]-row GRU weights as input weights (3, nx, H) and
    biases (3, 1, H) of the z, r and hc gates, and state weights: z and r
    as (2, H, H), hc as (H, H). A model axis follows the gate axis."""
    return (np.stack((w_z[..., :nx, :], w_r[..., :nx, :], w_h[..., :nx, :])),
            np.stack((b_z, b_r, b_h))[..., None, :],
            (np.stack((w_z[..., nx:, :], w_r[..., nx:, :])), w_h[..., nx:, :]))


def rnn_split(nx, w_x, w_h, b):
    """The RNN weights as input weights (1, nx, H), bias (1, 1, H) and the
    state weight."""
    return w_x[None], b[None, ..., None, :], (w_h,)


def gru_step(xp, h, u_zr, u_h):
    """One GRU step from the input share `xp` (3, B, H) of the z, r and hc
    pre-activations: z, r = sigmoid(xp[:2] + h u_zr), hc = tanh(xp[2] +
    (r*h) u_h) and h' = hc + z*(h - hc); returns h' and (z and r as one
    (2, B, H) array, r*h, hc, h - hc)."""
    zr = np.matmul(h, u_zr)
    zr += xp[:2]
    np.exp(np.negative(zr, out=zr), out=zr)  # sigmoid in place, bit for bit `_sigmoid`
    np.reciprocal(np.add(zr, 1.0, out=zr), out=zr)
    rh = zr[1] * h
    hc = rh @ u_h
    np.tanh(np.add(hc, xp[2], out=hc), out=hc)
    d = h - hc
    return zr[0] * d + hc, (zr, rh, hc, d)


def rnn_step(xp, h, w_h):
    """One vanilla RNN step from the input share `xp` (1, B, H),
    h' = tanh(xp + h w_h); it saves nothing."""
    a = h @ w_h
    return np.tanh(np.add(a, xp[0], out=a), out=a), ()


def gru_step_vjp(g, h, h_new, saved, u_zr, u_h):
    """Gradient of h for the gradient `g` of h_new = `gru_step`(xp, h), and
    those of the z, r and hc pre-activations as one (3, B, H) array."""
    zr, _, hc, d = saved
    da = np.empty((3,) + g.shape)
    gz = g * zr[0]
    np.multiply(g - gz, 1.0 - hc * hc, out=da[2])
    drh = da[2] @ u_h.swapaxes(-1, -2)
    np.multiply(g, d, out=da[0])
    np.multiply(drh, h, out=da[1])
    da[:2] *= zr
    da[:2] *= 1.0 - zr  # z(1-z) and r(1-r)
    dzr = np.matmul(da[:2], u_zr.swapaxes(-1, -2))
    return gz + drh * zr[1] + dzr[0] + dzr[1], da


def rnn_step_vjp(g, h, h_new, saved, w_h):
    """Gradient of h for the gradient `g` of h_new = `rnn_step`(xp, h), and
    that of the pre-activation as a (1, B, H) array."""
    da = g * (1.0 - h_new * h_new)
    return da @ w_h.swapaxes(-1, -2), da[None]


CELL_SPLITS = {"gru": gru_split, "vanilla_rnn": rnn_split}
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
        self._plan: tuple[list[bool], list[int], list[list[int]]] | None = None

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
        """Matrix product of 2-D nodes, or one per model of (nb, ., .) nodes."""
        sa, sb = self._shapes[a], self._shapes[b]
        if (len(sa) != len(sb) or len(sa) not in (2, 3) or sa[:-2] != sb[:-2]
                or sa[-1] != sb[-2]):
            raise ShapeMismatch(f"matmul: {sa} @ {sb}")
        return self._push("matmul", (a, b), None, sa[:-1] + sb[-1:])

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
        """Log-softmax along the last axis of a 2-D or (nb, ., .) node."""
        sa = self._shapes[a]
        if len(sa) not in (2, 3):
            raise ShapeMismatch(f"log_softmax expects rows, got {sa}")
        return self._push("log_softmax", (a,), None, sa)

    def gather_rows(self, table: int, ids: int) -> int:
        """Rows `table[ids]` of a 2-D node, `ids` a (N,) node of row indices
        (bound as numbers, read as integers; it gets no gradient). With a
        model axis, table (nb, V, n) and ids (nb, N): one table per model."""
        st, si = self._shapes[table], self._shapes[ids]
        if len(st) not in (2, 3) or len(si) != len(st) - 1 or st[:-2] != si[:-1]:
            raise ShapeMismatch(f"gather_rows: table {st}, ids {si}")
        return self._push("gather_rows", (table, ids), None, si + st[-1:])

    def recurrence(self, kind: str, x: int, h0: int, params,
                   steps: int | None = None) -> int:
        """T steps of the cell `kind` ("gru" or "vanilla_rnn") from h0 (B, H).
        `x` is (T * B, nx), row t * B + b the input of sequence b at step t;
        the output stacks the T states in that layout, (T * B, H). `params`
        are (w_z, b_z, w_r, b_r, w_h, b_h) for a GRU, (w_x, w_h, b) for an RNN.

        With a leading model axis (x, h0 and every weight stacked over nb
        models), `steps` is a (nb,) node of each model's own step count,
        bound as numbers: model m's rows past steps[m] * B are padding."""
        sx, sh, params = self._shapes[x], self._shapes[h0], tuple(params)
        lead = sx[:-2]
        if (kind not in CELLS or len(sx) not in (2, 3) or len(sh) != len(sx)
                or sh[:-2] != lead or not 0 < sh[-2] <= sx[-2] or sx[-2] % sh[-2]
                or (steps is None) == bool(lead)
                or lead and self._shapes[steps] != lead):
            raise ShapeMismatch(f"recurrence {kind}: x {sx}, h0 {sh}")
        nx, H = sx[-1], sh[-1]
        want = [(nx + H, H), (H,)] * 3 if kind == "gru" else [(nx, H), (H, H), (H,)]
        want = [lead + w for w in want]
        got = [self._shapes[p] for p in params]
        if got != want:
            raise ShapeMismatch(f"recurrence {kind}: weights {got}, expected {want}")
        extra = (steps,) if lead else ()
        return self._push("recurrence", (x, h0) + params + extra, kind, sx[:-1] + (H,))

    # -- composites -------------------------------------------------------

    def squared_l2(self, a: int, axis: int | None = None) -> int:
        return self.reduce_sum(self.mul(a, a), axis)

    def l1(self, a: int, axis: int | None = None) -> int:
        return self.reduce_sum(self.abs(a), axis)

    def softmax_log_loss(self, logits: int, onehot: int) -> int:
        """Per-row cross entropy -sum(onehot * log_softmax(logits)) along the
        last axis."""
        ce = self.reduce_sum(self.mul(self.log_softmax(logits), onehot), axis=-1)
        return self.affine(ce, -1.0)

    # -- execution --------------------------------------------------------

    def mark(self, name: str, node: int) -> int:
        self._plan = None
        self._marks[name] = node
        return node

    def output(self, node: int) -> None:
        self._plan = None
        self._out = node

    @np.errstate(over="ignore", invalid="ignore")
    def forward(self, bindings: dict) -> np.ndarray:
        """Evaluate every node; returns the output node's value.

        Raises NumericError if the output is not finite."""
        if self._out is None:
            raise NumgradError("graph has no output node")
        drops = self._plan_passes()[2]
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
                m = x.max(axis=-1, keepdims=True)
                z = x - m
                vals[nid] = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
            elif kind == "gather_rows":
                table, ids = vals[ins[0]], vals[ins[1]].astype(np.intp)
                vals[nid] = (table[ids] if ids.ndim == 1
                             else table[np.arange(len(ids))[:, None], ids])
            elif kind == "recurrence":
                x, h, *params = (vals[i] for i in ins)
                B, rows = h.shape[-2], None
                if x.ndim == 3:  # a model stack: the last input is each one's step count
                    rows = params.pop().astype(np.intp) * B
                w_in, b_in, state = CELL_SPLITS[aux](x.shape[-1], *params)
                xp = _project(x, w_in, b_in, rows)
                y, steps = np.empty(x.shape[:-1] + h.shape[-1:]), []
                for s in range(0, x.shape[-2], B):
                    h, inter = CELLS[aux](xp[..., s:s + B, :], h, *state)
                    y[..., s:s + B, :] = h
                    steps.append(inter)
                vals[nid], saved[nid] = y, (w_in, state, steps, rows)
            else:  # pragma: no cover
                raise NumgradError(f"unknown op {kind}")
            for dead in drops[nid]:
                vals[dead] = None
        self._values = vals
        self._saved = saved
        return _finite(np.array(vals[self._out], dtype=np.float64), "graph output")

    def value(self, ref) -> np.ndarray:
        """Value of a node (or mark name) from the latest forward pass, until
        backward consumes it. Raises NumgradError for a node whose value
        forward dropped: mark a node before forward to read it."""
        if self._values is None:
            raise BackwardBeforeForward("no forward pass to read: none has run "
                                        "since the last backward")
        nid = self._marks[ref] if isinstance(ref, str) else ref
        if self._values[nid] is None:
            raise NumgradError(f"node {nid} ({self._kinds[nid]}) was dropped after its "
                               "last forward reader; mark it before forward to read it")
        return self._values[nid]

    def _plan_passes(self) -> tuple[list[bool], list[int], list[list[int]]]:
        """`needs[n]`: a parameter leaf is node n or one of its ancestors;
        the nodes backward visits, in reverse order; and `drops[n]`: the
        values forward drops once node n has run (the module docstring's
        rule). Kept until the graph grows or a mark or the output changes."""
        if self._plan is None:
            params = {self._leaf_id[name] for name in self._param_names}
            needs = [False] * len(self._kinds)
            for nid, ins in enumerate(self._inputs):
                needs[nid] = nid in params or any(needs[i] for i in ins)
            order = [nid for nid in range(len(self._kinds) - 1, -1, -1)
                     if needs[nid] and self._inputs[nid]]
            kept = {self._out, *self._marks.values()}
            for nid in order:  # the values the rules of `backward` read
                kind, ins = self._kinds[nid], self._inputs[nid]
                if kind in ("mul", "matmul"):
                    kept.update(ins[1 - k] for k in (0, 1) if needs[ins[k]])
                elif kind in ("relu", "abs"):
                    kept.add(ins[0])
                elif kind in ("sigmoid", "tanh", "log_softmax"):
                    kept.add(nid)
                elif kind == "gather_rows" and needs[ins[0]]:
                    kept.add(ins[1])
                elif kind == "recurrence":
                    kept.update((ins[0], ins[1], nid))
            last = list(range(len(self._kinds)))  # a value nothing reads dies at once
            for nid, ins in enumerate(self._inputs):
                for i in ins:
                    last[i] = nid
            drops: list[list[int]] = [[] for _ in self._kinds]
            for nid, at in enumerate(last):
                if nid not in kept:
                    drops[at].append(nid)
            self._plan = (needs, order, drops)
        return self._plan

    @np.errstate(over="ignore", invalid="ignore")
    def backward(self, seed: float = 1.0) -> dict[str, np.ndarray]:
        """Gradients of the output with respect to every parameter leaf.

        Only terms that reach a parameter leaf are computed; each kept sum
        runs in the same order as over the full graph. It consumes the forward
        pass it differentiates (see the module docstring), so `value` or a
        second backward needs a new forward. Leaf gradients are not visited:
        they are returned, each an array of its own, sharing memory with no
        other gradient and no bound leaf. Raises NumericError if a gradient
        is not finite."""
        if self._values is None:
            raise BackwardBeforeForward("backward needs a forward pass of its own")
        out = self._out
        if self._shapes[out] != ():
            raise NonScalarOutput(f"output shape {self._shapes[out]} is not scalar")
        needs, order, _ = self._plan_passes()
        vals, saved = self._values, self._saved
        self._values, self._saved = None, {}
        grads: list = [None] * len(self._kinds)
        grads[out] = np.float64(seed)

        def acc(nid, g):
            if grads[nid] is None:
                grads[nid] = g
            else:
                grads[nid] = grads[nid] + g

        for nid in order:
            # every consumer of nid has a higher id and was swept already, so
            # nid's value and gradient live only while its rule runs
            g, y = grads[nid], vals[nid]
            vals[nid] = grads[nid] = None
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
                    acc(a, g @ vals[b].swapaxes(-1, -2))
                if needs[b]:
                    acc(b, vals[a].swapaxes(-1, -2) @ g)
            elif kind == "sigmoid":
                acc(ins[0], g * y * (1.0 - y))
            elif kind == "tanh":
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
                    acc(ins[0], np.broadcast_to(np.expand_dims(g, aux), self._shapes[ins[0]]))
            elif kind == "reduce_mean":
                src = self._shapes[ins[0]]
                if aux is None:
                    n = int(np.prod(src)) if src else 1
                    acc(ins[0], np.broadcast_to(g / n, src))
                else:
                    acc(ins[0], np.broadcast_to(np.expand_dims(g, aux) / src[aux], src))
            elif kind == "log_softmax":
                sm = np.exp(y)
                acc(ins[0], g - sm * g.sum(axis=-1, keepdims=True))
            elif kind == "gather_rows":
                if needs[ins[0]]:
                    acc(ins[0], _scatter_rows(self._shapes[ins[0]], vals[ins[1]], g))
            elif kind == "recurrence":
                self._recurrence_backward(nid, g, acc, [needs[i] for i in ins],
                                          vals, y, saved.pop(nid))
            else:  # pragma: no cover
                raise NumgradError(f"unknown op {kind}")

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

    def _recurrence_backward(self, nid: int, g: np.ndarray, acc, need: list[bool],
                             vals: list, y: np.ndarray, saved: tuple) -> None:
        """BPTT through one `recurrence` node, given the node values, its
        output `y` and what its forward saved: each step back carries only the
        state gradient through the cell's step VJP, for every model at once.
        Then each model's input gradient and the input and state row blocks
        of each weight are one product each over exactly that model's rows,
        put back in the stored [x; h] row layout."""
        ins = self._inputs[nid]
        kind = self._aux[nid]
        x, h0 = vals[ins[0]], vals[ins[1]]
        w_in, state, steps, rows = saved
        B, vjp = h0.shape[-2], CELL_VJPS[kind]
        carry, da, h_new = None, None, y[..., -B:, :]
        for t in range(len(steps) - 1, -1, -1):
            gt = g[..., t * B:(t + 1) * B, :]
            h = y[..., (t - 1) * B:t * B, :] if t else h0
            carry, da_t = vjp(gt if carry is None else gt + carry, h, h_new, steps[t], *state)
            if da is None:  # (G, T * B, H), a model axis after G
                da = np.empty(da_t.shape[:-2] + g.shape[-2:])
            da[..., t * B:(t + 1) * B, :] = da_t
            steps[t] = steps[t][1:2]  # the step is done: keep only a GRU's r*h
            h_new = h
        if need[1]:
            acc(ins[1], carry)
        if not need[0] and not any(need[2:]):
            return
        rh = _rows([st[0] for st in steps]) if kind == "gru" and any(need[2:]) else None
        if rows is None:
            parts = [(x, h0, y, da, w_in, rh)]
        else:  # padded rows never enter a product: they would change its rounding
            parts = [(x[m, :n], h0[m], y[m, :n], da[:, m, :n], w_in[:, m],
                      None if rh is None else rh[m, :n]) for m, n in enumerate(rows)]
        dxs, weights = zip(*(_cell_grads(kind, need, *part) for part in parts))
        if rows is None:
            dx, grads = dxs[0], weights[0]
        else:
            dx = np.zeros(x.shape) if need[0] else None
            for m, n in enumerate(rows if need[0] else ()):
                dx[m, :n] = dxs[m]
            grads = [np.stack(ws) for ws in zip(*weights)]
        if need[0]:
            acc(ins[0], dx)
        for k, grad in enumerate(grads, 2):
            if need[k]:
                acc(ins[k], grad)


def _project(x: np.ndarray, w_in: np.ndarray, b_in: np.ndarray, rows) -> np.ndarray:
    """The input shares (G, T * B, H) of all rows of `x` in one product; with
    a model axis (after G), one product per model over exactly its first
    rows[m] rows, the shares of its padding left zero."""
    if rows is None:
        return np.matmul(x, w_in) + b_in
    xp = np.empty(w_in.shape[:-2] + (x.shape[-2], w_in.shape[-1]))
    for m, n in enumerate(rows):
        np.add(np.matmul(x[m, :n], w_in[:, m]), b_in[:, m], out=xp[:, m, :n])
        xp[:, m, n:] = 0.0
    return xp


def _cell_grads(kind: str, need: list[bool], x, h0, y, da, w_in, rh):
    """One model's input gradient (None unless needed) and weight gradients
    from its pre-activation gradients `da` (G, n, H) over its n rows of
    inputs `x` and states `y` (`rh` the GRU's r*h rows)."""
    dx = np.matmul(da, w_in.swapaxes(-1, -2)).sum(axis=0) if need[0] else None
    if not any(need[2:]):
        return dx, []
    dw_in, db = np.matmul(x.T, da), da.sum(axis=1)
    h_prev = np.concatenate((h0, y[:-len(h0)]))
    if kind == "gru":  # state rows: h for z and r, r*h for hc
        dw_st = [*np.matmul(h_prev.T, da[:2]), rh.T @ da[2]]
        return dx, [p for k in range(3) for p in (_rows([dw_in[k], dw_st[k]]), db[k])]
    return dx, [dw_in[0], h_prev.T @ da[0], db[0]]


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
