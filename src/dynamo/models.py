"""Base-model and meta-model cells, rollouts, and hidden-state maps.

Three cell families are supported: GRU, vanilla RNN, and a residual MLP
whose block index plays the role of time. The meta-model is the same cell
with the model embedding vector prepended to the input at every step (GRU /
vanilla RNN) or injected as a learned bias inside each block (residual MLP),
plus one readout head per task group.

A recurrent cell's arithmetic is written once, as `numgrad.gru_step` and
`numgrad.rnn_step` (`numgrad.CELLS`); `cell_step` here and numgrad's
`recurrence` node both call it, so graph and numpy forward values agree bit
for bit.
`rollout_batch` is the only numpy loop over `cell_step`: it runs either
family, ragged token batches by length, one embedding per row, and selects
the readout head; every other numpy evaluation calls it. `unroll_graph`
builds every training and embedding-search graph: one `recurrence` node over
a time-major `tokens` leaf, or residual blocks through `cell_step_graph`.
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


@dataclass
class StateMap:
    """Affine map from meta hidden space into one base model's hidden space;
    one (weight, bias) pair per block for the residual family."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]


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


def apply_state_map(vmap: StateMap, h_meta: np.ndarray) -> np.ndarray:
    return h_meta @ vmap.weights[0] + vmap.biases[0]


def _block_params(params: dict, t: int) -> dict:
    return {"a1": params[f"blk{t}_a1"], "b1": params[f"blk{t}_b1"],
            "a2": params[f"blk{t}_a2"], "b2": params[f"blk{t}_b2"]}


def cell_step(model, x: np.ndarray, h: np.ndarray, block: int = 0,
              theta: np.ndarray | None = None) -> np.ndarray:
    """One application of the model's transition map. For meta models, `x`
    must already include the embedding (recurrent) or `theta` is passed
    through to the block bias (residual)."""
    if model.cell_kind in CELL_PARAMS:
        weights = (model.params[n] for n in CELL_PARAMS[model.cell_kind])
        return numgrad.CELLS[model.cell_kind](x, h, *weights)[0]
    if model.cell_kind == "residual_mlp":
        w_theta = model.params.get("w_theta") if theta is not None else None
        return residual_block_step(_block_params(model.params, block), h,
                                   theta=theta, w_theta=w_theta)
    raise ModelError(f"unknown cell kind {model.cell_kind}")


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
    """Batched rollout; the one numpy loop over `cell_step`.

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
            h = cell_step(model, None, h, block=t, theta=theta)
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
    h = np.zeros((B, model.hidden_dim))
    hiddens = np.empty((T, B, model.hidden_dim))
    for t in range(T):
        k = active[t]
        x = p["embed"][tokens[:k, t]]
        if theta is not None:
            x = np.concatenate([theta[:k], x], axis=-1)
        h[:k] = cell_step(model, x, h[:k])
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


def _init_cell_params(rng, cell_kind, input_dim, hidden_dim, num_blocks):
    p = {}
    if cell_kind == "gru":
        k = input_dim + hidden_dim
        for gate in ("z", "r", "h"):
            p[f"w_{gate}"] = _dense(rng, k, hidden_dim)
            p[f"b_{gate}"] = np.zeros(hidden_dim)
    elif cell_kind == "vanilla_rnn":
        p["w_x"] = _dense(rng, input_dim, hidden_dim)
        p["w_h"] = _dense(rng, hidden_dim, hidden_dim)
        p["b"] = np.zeros(hidden_dim)
    elif cell_kind == "residual_mlp":
        for t in range(num_blocks):
            p[f"blk{t}_a1"] = _dense(rng, hidden_dim, hidden_dim)
            p[f"blk{t}_b1"] = np.zeros(hidden_dim)
            p[f"blk{t}_a2"] = _dense(rng, hidden_dim, hidden_dim)
            p[f"blk{t}_b2"] = np.zeros(hidden_dim)
    else:
        raise ModelError(f"unknown cell kind {cell_kind}")
    return p


def init_base_model(cell_kind: str, vocab_size: int, input_dim: int,
                    hidden_dim: int, output_dim: int, task_group: int,
                    seed: int, num_blocks: int = 0, info: dict | None = None) -> BaseModel:
    rng = np.random.default_rng(seed)
    if cell_kind == "residual_mlp" and num_blocks < 1:
        raise ModelError("residual_mlp needs num_blocks >= 1")
    params = {}
    if cell_kind == "residual_mlp":
        params["stem_w"] = _dense(rng, input_dim, hidden_dim)
        params["stem_b"] = np.zeros(hidden_dim)
    else:
        params["embed"] = 0.5 * rng.standard_normal((vocab_size, input_dim))
    params.update(_init_cell_params(rng, cell_kind, input_dim, hidden_dim, num_blocks))
    params["w_out"] = _dense(rng, hidden_dim, output_dim)
    params["b_out"] = np.zeros(output_dim)
    return BaseModel(cell_kind, vocab_size, input_dim, hidden_dim, output_dim,
                     task_group, params, num_blocks=num_blocks, info=dict(info or {}))


def init_meta_model(cell_kind: str, vocab_size: int, input_dim: int,
                    hidden_dim: int, embed_dim: int, head_dims: dict[int, int],
                    seed: int, num_blocks: int = 0) -> MetaModel:
    rng = np.random.default_rng(seed)
    params = {}
    if cell_kind == "residual_mlp":
        params["stem_w"] = _dense(rng, input_dim, hidden_dim)
        params["stem_b"] = np.zeros(hidden_dim)
        params["w_theta"] = _dense(rng, embed_dim, hidden_dim)
        cell_in = input_dim
    else:
        params["embed"] = 0.5 * rng.standard_normal((vocab_size, input_dim))
        cell_in = input_dim + embed_dim
    params.update(_init_cell_params(rng, cell_kind, cell_in, hidden_dim, num_blocks))
    for group in sorted(head_dims):
        params[f"head{group}_w"] = _dense(rng, hidden_dim, head_dims[group])
        params[f"head{group}_b"] = np.zeros(head_dims[group])
    return MetaModel(cell_kind, vocab_size, input_dim, hidden_dim, embed_dim,
                     dict(head_dims), params, num_blocks=num_blocks)


def init_state_map(meta_hidden: int, base_hidden: int, num_blocks: int,
                   seed: int) -> StateMap:
    rng = np.random.default_rng(seed)
    n = max(1, num_blocks)
    weights = [rng.standard_normal((meta_hidden, base_hidden)) / np.sqrt(meta_hidden)
               for _ in range(n)]
    biases = [np.zeros(base_hidden) for _ in range(n)]
    return StateMap(weights, biases)


# -- graph builders (mirrors of the numpy steps) -------------------------------


def declare_params(g: Graph, params: dict[str, np.ndarray],
                   trainable: bool = True) -> dict[str, int]:
    """Declare one graph leaf per named parameter; returns name -> node ref."""
    return {name: g.leaf(name, arr.shape, param=trainable)
            for name, arr in params.items()}


def graph_params(model, task_group: int | None = None) -> dict[str, np.ndarray]:
    """The parameters a graph of `model` reads: all but unused readout heads."""
    head = readout_names(model, task_group)
    return {k: v for k, v in model.params.items()
            if not k.startswith("head") or k in head}


def unroll_graph(g: Graph, model, refs: dict[str, int], T: int, B: int,
                 theta: int | None = None):
    """Graph twin of `rollout_batch`: declares the model's input leaf and
    yields hidden-state refs; a meta model passes its (1, d) embedding `theta`.

    Recurrent cells read one time-major token-id leaf `tokens` (T * B,), put
    the embedding rows before its `embed` rows, and run all T steps as one
    `recurrence` node; the one yielded ref is its (T * B, H) states, row
    t * B + b for step t of sequence b. Residual cells read the feature leaf
    `feat` (B, F) through the stem and yield once per block (T is ignored),
    so callers add a block's loss nodes before the next block.
    """
    residual = model.cell_kind == "residual_mlp"
    theta_rows = (None if theta is None
                  else g.matmul(g.const(np.ones((B if residual else T * B, 1))), theta))
    if residual:
        feat = g.leaf("feat", (B, model.input_dim), param=False)
        h = g.add(g.matmul(feat, refs["stem_w"]), refs["stem_b"])
        for t in range(model.num_blocks):
            h = cell_step_graph(g, model.cell_kind, refs, None, h, block=t,
                                theta_rows=theta_rows)
            yield h
        return
    x = g.gather_rows(refs["embed"], g.leaf("tokens", (T * B,), param=False))
    if theta_rows is not None:
        x = g.concat(theta_rows, x)
    yield cell_step_graph(g, model.cell_kind, refs, x,
                          g.const(np.zeros((B, model.hidden_dim))))


def cell_step_graph(g: Graph, cell_kind: str, refs: dict[str, int], x: int, h: int,
                    block: int = 0, theta_rows: int | None = None) -> int:
    """Graph twin of `cell_step`. Recurrent cells run one `recurrence` node
    over all T steps of time-major `x` (T * B, cell_in) from `h` (B, H).

    For residual cells, pass the block features as `h` and the broadcast
    embedding rows as `theta_rows` (meta only); `x` is ignored.
    """
    if cell_kind in CELL_PARAMS:
        return g.recurrence(cell_kind, x, h, [refs[n] for n in CELL_PARAMS[cell_kind]])
    if cell_kind == "residual_mlp":
        pre = g.add(g.matmul(h, refs[f"blk{block}_a1"]), refs[f"blk{block}_b1"])
        if theta_rows is not None:
            pre = g.add(pre, g.matmul(theta_rows, refs["w_theta"]))
        z = g.relu(pre)
        return g.relu(g.add(h, g.add(g.matmul(z, refs[f"blk{block}_a2"]),
                                     refs[f"blk{block}_b2"])))
    raise ModelError(f"unknown cell kind {cell_kind}")
