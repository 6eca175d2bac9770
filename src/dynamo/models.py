"""Base-model and meta-model cells, rollouts, and hidden-state maps.

Three cell families are supported: GRU, vanilla RNN, and a residual MLP
whose block index plays the role of time. The meta-model is the same cell
with the model embedding vector prepended to the input at every step (GRU /
vanilla RNN) or injected as a learned bias inside each block (residual MLP),
plus one readout head per task group.

A recurrent cell's arithmetic is written once, as `numgrad.gru_step` and
`numgrad.rnn_step` (`numgrad.CELLS`), which step the state from inputs
projected once through the cell's input weights (`project_inputs`).
`cell_step`, `rollout_batch` and numgrad's `recurrence` node all call them;
each projects its own block of rows, so graph and numpy forward values
agree to rounding.
`rollout_batch` is the only numpy rollout loop: it runs either
family, ragged token batches by length, one embedding per row, and selects
the readout head; every other numpy evaluation calls it. `unroll_graph`
builds every training and embedding-search graph: one `recurrence` node over
a time-major `tokens` leaf, or residual blocks through `cell_step_graph`;
`input_bindings` alone binds its input leaves.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numgrad
from .numgrad import Graph
from .tasks import SequenceDataset, bag_of_tokens

CELL_KINDS = ("gru", "vanilla_rnn", "residual_mlp")
# weight names of each recurrent cell, in the order numgrad's steps take them
CELL_PARAMS = {"gru": ("w_z", "b_z", "w_r", "b_r", "w_h", "b_h"),
               "vanilla_rnn": ("w_x", "w_h", "b")}


class ModelError(Exception):
    pass


@dataclass
class BaseModel:
    """A trained network to be emulated. `input_dim` is the cell input width
    (token-embedding dim for recurrent cells, feature dim for residual)."""

    cell_kind: str
    vocab_size: int
    input_dim: int
    hidden_dim: int
    output_dim: int
    task_group: int
    params: dict[str, np.ndarray]
    num_blocks: int = 0
    info: dict = field(default_factory=dict)


@dataclass
class MetaModel:
    """Embedding-conditioned cell with one readout head per task group."""

    cell_kind: str
    vocab_size: int
    input_dim: int
    hidden_dim: int
    embed_dim: int
    head_dims: dict[int, int]
    params: dict[str, np.ndarray]
    num_blocks: int = 0


# -- single-step cell maps ---------------------------------------------------


def residual_block_step(block_params: dict, features: np.ndarray,
                        theta: np.ndarray | None = None,
                        w_theta: np.ndarray | None = None) -> np.ndarray:
    """z = relu(A1 f + b1 [+ W theta]); out = relu(f + A2 z + b2)."""
    pre = features @ block_params["a1"] + block_params["b1"]
    if theta is not None:
        pre = pre + theta @ w_theta
    z = np.maximum(pre, 0.0)
    return np.maximum(features + z @ block_params["a2"] + block_params["b2"], 0.0)


def project_inputs(model, x: np.ndarray) -> tuple[np.ndarray, tuple]:
    """The recurrent cell's input share of the rows `x` (G, n, H), projected
    as the `recurrence` node projects them, and its state weights."""
    weights = (model.params[n] for n in CELL_PARAMS[model.cell_kind])
    w_in, b_in, state = numgrad.CELL_SPLITS[model.cell_kind](x.shape[-1], *weights)
    return np.matmul(x, w_in) + b_in, state


def cell_step(model, x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """One step of a recurrent model's transition map (`residual_block_step`
    is the residual family's). For meta models, `x` must already include the
    embedding."""
    h = np.asarray(h, dtype=np.float64)
    xp, state = project_inputs(model, np.atleast_2d(np.asarray(x, dtype=np.float64)))
    return numgrad.CELLS[model.cell_kind](xp, np.atleast_2d(h), *state)[0].reshape(h.shape)


# -- rollouts ----------------------------------------------------------------


def readout_names(model, task_group: int | None = None) -> tuple[str, str]:
    """Parameter names of the readout: `w_out`/`b_out` for a base model, the
    head of `task_group` for a meta model (optional only with one head)."""
    if not isinstance(model, MetaModel):
        return "w_out", "b_out"
    if task_group is None:
        if len(model.head_dims) != 1:
            raise ModelError("task_group required with multiple heads")
        task_group = next(iter(model.head_dims))
    if task_group not in model.head_dims:
        raise ModelError(f"no readout head for task group {task_group}")
    return f"head{task_group}_w", f"head{task_group}_b"


def pad_tokens(sequences: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Pad a ragged token batch with token 0; returns (B, T) ids and lengths."""
    lengths = np.array([len(s) for s in sequences], dtype=np.int64)
    mat = np.zeros((len(sequences), int(lengths.max())), dtype=np.int64)
    for b, s in enumerate(sequences):
        mat[b, :len(s)] = s
    return mat, lengths


def model_inputs(model, ds: SequenceDataset, idxs) -> tuple[np.ndarray, np.ndarray | None]:
    """Dataset rows as `rollout_batch` inputs: padded token ids and lengths
    for recurrent cells, bag-of-token features (lengths None) for residual."""
    if model.cell_kind == "residual_mlp":
        return bag_of_tokens(ds, idxs), None
    return pad_tokens([ds.sequences[i] for i in idxs])


def rollout_batch(model, inputs: np.ndarray, theta: np.ndarray | None = None,
                  task_group: int | None = None, lengths: np.ndarray | None = None):
    """Batched rollout, the one numpy rollout loop: a recurrent step adds the
    projected token row to the row's projected theta and steps only the state.

    Recurrent cells read (B, T) token ids. With `lengths`, row b steps only
    through its first lengths[b] tokens and then holds its state, so the last
    entry is every row's final state. Residual cells read (B, F) features and
    step once per block. Returns hiddens (T, B, H) and readout logits
    (T, B, C) at every step, T being the block count for residual cells.

    Meta models require `theta`, one embedding or a (B, d) matrix with one
    embedding per row, and a valid `task_group`.
    """
    w_name, b_name = readout_names(model, task_group)
    p = model.params
    if not isinstance(model, MetaModel):
        theta = None
    elif theta is None:
        raise ModelError("meta rollout requires theta")
    else:
        theta = np.asarray(theta, dtype=np.float64)
    if model.cell_kind == "residual_mlp":
        h = np.asarray(inputs, dtype=np.float64) @ p["stem_w"] + p["stem_b"]
        hiddens = np.empty((model.num_blocks,) + h.shape)
        for t in range(model.num_blocks):
            h = residual_block_step({k: p[f"blk{t}_{k}"] for k in ("a1", "b1", "a2", "b2")},
                                    h, theta, p.get("w_theta"))
            hiddens[t] = h
        return hiddens, hiddens @ p[w_name] + p[b_name]

    tokens = np.asarray(inputs)
    B, T = tokens.shape
    if T == 0:
        raise ModelError("empty input sequence")
    if theta is not None and theta.ndim == 1:
        theta = np.broadcast_to(theta, (B, len(theta)))
    active = np.full(T, B)
    order = None
    if lengths is not None:
        lengths = np.asarray(lengths)
        if lengths.min() < 1:
            raise ModelError("empty input sequence")
        # longest rows first, so each step updates a leading block of rows
        order = np.argsort(-lengths, kind="stable")
        if np.array_equal(order, np.arange(B)):
            order = None
        else:
            tokens, lengths = tokens[order], lengths[order]
            theta = None if theta is None else theta[order]
        active = (lengths[None, :] > np.arange(T)[:, None]).sum(axis=1)
    # the cell input is [theta; token embedding]: rows :d of the input weights read theta
    d = 0 if theta is None else theta.shape[1]
    w_in, b_in, state = numgrad.CELL_SPLITS[model.cell_kind](
        d + p["embed"].shape[1], *(p[n] for n in CELL_PARAMS[model.cell_kind]))
    emb = np.matmul(p["embed"], w_in[:, d:]) + b_in  # (G, vocab, H)
    th = None if theta is None else np.matmul(theta, w_in[:, :d])
    h = np.zeros((B, model.hidden_dim))
    hiddens = np.empty((T, B, model.hidden_dim))
    for t in range(T):
        k = active[t]
        xp = np.take(emb, tokens[:k, t], axis=1)
        if th is not None:
            xp += th[:, :k]
        h[:k] = numgrad.CELLS[model.cell_kind](xp, h[:k], *state)[0]
        hiddens[t] = h
    if order is not None:
        hiddens = hiddens[:, np.argsort(order)]
    return hiddens, hiddens @ p[w_name] + p[b_name]


def rollout(model, inputs, theta: np.ndarray | None = None,
            task_group: int | None = None):
    """Run a model over one input.

    Recurrent cells: `inputs` is a token-id sequence; returns
    (hiddens (T, H), logits (T, C)) with the readout applied at every step.
    Residual cells: `inputs` is a feature vector; block index plays the role
    of time and the returned outputs are the per-block features with the
    head logits in place of the final block's entry.
    """
    if model.cell_kind == "residual_mlp":
        feats = np.asarray(inputs, dtype=np.float64)[None, :]
        hiddens, logits = rollout_batch(model, feats, theta, task_group)
        return hiddens[:, 0], list(hiddens[:-1, 0]) + [logits[-1, 0]]
    hiddens, logits = rollout_batch(model, np.asarray(inputs, dtype=np.int64)[None, :],
                                    theta, task_group)
    return hiddens[:, 0], logits[:, 0]


def final_logits(model, inputs: np.ndarray, theta=None, task_group=None,
                 lengths=None) -> np.ndarray:
    """Every row's last-step logits from `rollout_batch`."""
    return rollout_batch(model, inputs, theta, task_group, lengths)[1][-1]


# -- initialization ----------------------------------------------------------


def _dense(rng, fan_in, fan_out):
    return rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in)


def _init_trunk(rng, cell_kind, vocab_size, input_dim, hidden_dim, num_blocks,
                embed_dim: int | None = None) -> dict[str, np.ndarray]:
    """A model's parameters but its readout: the residual stem or the token
    embedding, then the cell, drawn in that order. A meta model passes its
    `embed_dim`: a recurrent cell reads the embedding before the token, and
    residual blocks read it through `w_theta`, drawn after the stem."""
    if cell_kind == "residual_mlp":
        if num_blocks < 1:
            raise ModelError("residual_mlp needs num_blocks >= 1")
        p = {"stem_w": _dense(rng, input_dim, hidden_dim), "stem_b": np.zeros(hidden_dim)}
        if embed_dim is not None:
            p["w_theta"] = _dense(rng, embed_dim, hidden_dim)
        for t in range(num_blocks):
            p |= {f"blk{t}_a1": _dense(rng, hidden_dim, hidden_dim),
                  f"blk{t}_b1": np.zeros(hidden_dim),
                  f"blk{t}_a2": _dense(rng, hidden_dim, hidden_dim),
                  f"blk{t}_b2": np.zeros(hidden_dim)}
        return p
    p = {"embed": 0.5 * rng.standard_normal((vocab_size, input_dim))}
    cell_in = input_dim + (embed_dim or 0)
    if cell_kind == "gru":
        for gate in ("z", "r", "h"):
            p[f"w_{gate}"] = _dense(rng, cell_in + hidden_dim, hidden_dim)
            p[f"b_{gate}"] = np.zeros(hidden_dim)
    elif cell_kind == "vanilla_rnn":
        p |= {"w_x": _dense(rng, cell_in, hidden_dim),
              "w_h": _dense(rng, hidden_dim, hidden_dim), "b": np.zeros(hidden_dim)}
    else:
        raise ModelError(f"unknown cell kind {cell_kind}")
    return p


def init_base_model(cell_kind: str, vocab_size: int, input_dim: int,
                    hidden_dim: int, output_dim: int, task_group: int,
                    seed: int, num_blocks: int = 0, info: dict | None = None) -> BaseModel:
    rng = np.random.default_rng(seed)
    params = _init_trunk(rng, cell_kind, vocab_size, input_dim, hidden_dim, num_blocks)
    params["w_out"] = _dense(rng, hidden_dim, output_dim)
    params["b_out"] = np.zeros(output_dim)
    return BaseModel(cell_kind, vocab_size, input_dim, hidden_dim, output_dim,
                     task_group, params, num_blocks=num_blocks, info=dict(info or {}))


def init_meta_model(cell_kind: str, vocab_size: int, input_dim: int,
                    hidden_dim: int, embed_dim: int, head_dims: dict[int, int],
                    seed: int, num_blocks: int = 0) -> MetaModel:
    rng = np.random.default_rng(seed)
    params = _init_trunk(rng, cell_kind, vocab_size, input_dim, hidden_dim, num_blocks,
                         embed_dim)
    for group in sorted(head_dims):
        params[f"head{group}_w"] = _dense(rng, hidden_dim, head_dims[group])
        params[f"head{group}_b"] = np.zeros(head_dims[group])
    return MetaModel(cell_kind, vocab_size, input_dim, hidden_dim, embed_dim,
                     dict(head_dims), params, num_blocks=num_blocks)


def init_state_map(meta_hidden: int, base_hidden: int, num_blocks: int,
                   seed: int) -> dict[str, np.ndarray]:
    """Affine map from meta hidden space into one base model's hidden space:
    a weight `w{t}` and bias `b{t}` per block t (one block for recurrent
    cells), the weights first."""
    rng = np.random.default_rng(seed)
    blocks, shape = range(max(1, num_blocks)), (meta_hidden, base_hidden)
    return ({f"w{t}": rng.standard_normal(shape) / np.sqrt(meta_hidden) for t in blocks}
            | {f"b{t}": np.zeros(base_hidden) for t in blocks})


# -- graph builders (mirrors of the numpy steps) -------------------------------


def declare_params(g: Graph, params: dict[str, np.ndarray],
                   trainable: bool = True) -> dict[str, int]:
    """Declare one graph leaf per named parameter; returns name -> node ref."""
    return {name: g.leaf(name, arr.shape, param=trainable)
            for name, arr in params.items()}


def stacked_leaves(cell_kind: str, stacked: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Graph leaves of parameters stacked on a leading model axis, as views:
    a bias that meets `add` (every 1-D one but a recurrent cell's) gets a
    broadcast axis, (nb, 1, n)."""
    cell = CELL_PARAMS.get(cell_kind, ())
    return {k: v[:, None] if v.ndim == 2 and k not in cell else v
            for k, v in stacked.items()}


def graph_params(model, task_group: int | None = None) -> dict[str, np.ndarray]:
    """The parameters a graph of `model` reads: all but unused readout heads."""
    head = readout_names(model, task_group)
    return {k: v for k, v in model.params.items()
            if not k.startswith("head") or k in head}


def unroll_graph(g: Graph, model, refs: dict[str, int], T: int, B: int,
                 theta: int | None = None, nb: int = 0):
    """Graph twin of `rollout_batch`: declares the model's input leaf and
    yields hidden-state refs; a meta model passes its (1, d) embedding `theta`.

    Recurrent cells read one time-major token-id leaf `tokens` (T * B,), put
    the embedding rows before its `embed` rows, and run all T steps as one
    `recurrence` node; the one yielded ref is its (T * B, H) states, row
    t * B + b for step t of sequence b. Residual cells read the feature leaf
    `feat` (B, F) through the stem and yield once per block (T is ignored),
    so callers add a block's loss nodes before the next block.

    With `nb`, `refs` are the leaves of nb base models stacked on a leading
    model axis (`stacked_leaves`), and so are the input leaves and states;
    a recurrent stack also reads each model's step count from `steps` (nb,).
    """
    residual = model.cell_kind == "residual_mlp"
    lead = (nb,) if nb else ()
    theta_rows = (None if theta is None
                  else g.matmul(g.const(np.ones((B if residual else T * B, 1))), theta))
    if residual:
        feat = g.leaf("feat", lead + (B, model.input_dim), param=False)
        h = g.add(g.matmul(feat, refs["stem_w"]), refs["stem_b"])
        for t in range(model.num_blocks):
            h = cell_step_graph(g, model.cell_kind, refs, None, h, block=t,
                                theta_rows=theta_rows)
            yield h
        return
    x = g.gather_rows(refs["embed"], g.leaf("tokens", lead + (T * B,), param=False))
    if theta_rows is not None:
        x = g.concat(theta_rows, x)
    steps = g.leaf("steps", lead, param=False) if nb else None
    yield cell_step_graph(g, model.cell_kind, refs, x,
                          g.const(np.zeros(lead + (B, model.hidden_dim))), steps=steps)


def input_bindings(inputs: np.ndarray, lengths: np.ndarray | None) -> dict[str, np.ndarray]:
    """Bindings of the input leaves `unroll_graph` declares, for one
    `model_inputs` batch or for one batch per model stacked on a leading
    axis: the residual `feat`, or the recurrent time-major `tokens` and, for
    a stack, each model's step count `steps`, its longest row."""
    if lengths is None:
        return {"feat": inputs}
    tokens = inputs.swapaxes(-1, -2)
    bound = {"tokens": tokens.reshape(tokens.shape[:-2] + (-1,)).astype(np.float64)}
    if lengths.ndim == 2:
        bound["steps"] = lengths.max(axis=-1)
    return bound


def cell_step_graph(g: Graph, cell_kind: str, refs: dict[str, int], x: int, h: int,
                    block: int = 0, theta_rows: int | None = None,
                    steps: int | None = None) -> int:
    """Graph twin of `cell_step` and `residual_block_step`. Recurrent cells
    run one `recurrence` node over all T steps of time-major `x`
    (T * B, cell_in) from `h` (B, H), or of a model stack with its `steps`
    (`numgrad.Graph.recurrence`).

    For residual cells, pass the block features as `h` and the broadcast
    embedding rows as `theta_rows` (meta only); `x` is ignored.
    """
    if cell_kind in CELL_PARAMS:
        return g.recurrence(cell_kind, x, h, [refs[n] for n in CELL_PARAMS[cell_kind]],
                            steps)
    if cell_kind == "residual_mlp":
        pre = g.add(g.matmul(h, refs[f"blk{block}_a1"]), refs[f"blk{block}_b1"])
        if theta_rows is not None:
            pre = g.add(pre, g.matmul(theta_rows, refs["w_theta"]))
        z = g.relu(pre)
        return g.relu(g.add(h, g.add(g.matmul(z, refs[f"blk{block}_a2"]),
                                     refs[f"blk{block}_b2"])))
    raise ModelError(f"unknown cell kind {cell_kind}")
