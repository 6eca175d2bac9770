"""Base-model task training and the joint meta-model / state-map / embedding
optimization.

Base training (`train_base`) runs the models of one population entry in
lockstep: each step binds every model's own batch to one task-loss graph over
the models stacked on a leading axis (numgrad's model axis), and one
optimizer step updates them all. Each model's parameters end bit for bit
where training it alone leaves them.

The joint loop (`MetaTrainer`) follows the sampled-model scheme: each step
draws one base model uniformly and a minibatch from that model's unlabeled
split, rolls the meta-model out at that model's embedding, and takes one
optimizer step on (meta params, that model's state map, that model's
embedding) against one emulation objective: the squared L2 distance of the
mapped hidden states over the base's hidden width plus `lam` times KL on
softmax. The bases are frozen, so their targets are rolled out without
gradients ahead of the steps that use them (`MetaTrainer._rolled`). Both
loops step Adam with decoupled weight decay (`Optimizer`).

Every graph here unrolls the model through `models.unroll_graph`, whose input
leaves `models.input_bindings` binds, and every numpy rollout (the base
trajectories, accuracies) goes through `models.rollout_batch`. Two graphs
exist: the final-step task loss (`task_loss_graph`, shared by base training
and the embedding search in `atlas.ssl_optimize`) and the joint emulation
loss (`_emulation_loss_graph`, the only implementation of the emulation
objective). Each run builds a graph once per batch shape (`functools.cache`,
whose `cache_info()` counts hits and misses). A non-finite loss or gradient
raises `NumericError` from numgrad's forward or backward pass, and so does a
parameter update that leaves the float32 range (`Optimizer.step`).
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import models
from .models import (
    BaseModel,
    MetaModel,
    declare_params,
    final_logits,
    graph_params,
    init_meta_model,
    init_state_map,
    readout_names,
    rollout_batch,
    unroll_graph,
)
from .numgrad import Graph, NumericError, Workspace
from .tasks import SequenceDataset

# float64 magnitudes from this one up (FLT_MAX plus half its last-place unit)
# round to infinity in float32, the precision checkpoints store
_F32_OVERFLOW = float(np.finfo(np.float32).max) + 2.0 ** 103
# Rows of one frozen-base rollout in `MetaTrainer.run`: a base's next
# scheduled batches are rolled together up to this many rows, at least one
# batch. On train-ragged, 52 rollouts of 64 rows took 56-60 ms against
# 105-149 ms for 200 of 16; wider is not safely faster (a 256-row residual
# rollout took 73 ms once, 64 rows 0.2-0.6 ms). It bounds what a base holds
# between its steps: the targets of at most this many rows (one batch if
# larger), less the batches already used.
BASE_ROLL_ROWS = 64
ADAM_BETAS, ADAM_EPS = (0.9, 0.999), 1e-8  # fixed: no config key sets them
# Decoupled weight decay in base and meta training, the first implementation's
WEIGHT_DECAY = 1e-4
# Fraction of a cosine cycle the learning rate sweeps over a run, the first
# implementation's: the last step runs at about 0.60 of the base rate, not at 0.
COSINE_FREQ = 7.0 / 32.0
# Buffer columns `Optimizer.step` updates at once, the width of its scratch
# (see `Optimizer`): every meta group is one block, a stacked entry several.
STEP_COLUMNS = 65536


class TrainerError(Exception):
    pass


@dataclass
class TrainConfig:
    """Rate, length and batch size of one training run. The optimizer is
    always `Optimizer`'s Adam with decoupled weight decay (`WEIGHT_DECAY`),
    and the schedule `lr_multiplier`'s cosine (`COSINE_FREQ`). Base training
    reads `epochs` and takes each model's seed apart (`train_base`'s
    `seeds`); meta training reads `max_steps`, `seed` and `lam`, the output
    loss's weight in the one emulation objective (`_emulation_loss_graph`);
    both read the rest. `cli.train_config_from` fills it from the config's
    `base_training` or `meta_training` section, whose keys are these fields
    (`lambda` for `lam`)."""

    lr: float = 1e-3
    epochs: int = 0            # base-model training
    max_steps: int = 0         # meta training
    batch_size: int = 16
    lam: float = 1.0           # output-loss weight
    seed: int = 0

    def validate(self):
        if self.lr <= 0:
            raise TrainerError("learning rate must be positive")
        if self.lam < 0:
            raise TrainerError("output-loss weight must be >= 0")
        if self.batch_size < 1:
            raise TrainerError("batch_size must be >= 1")


def lr_multiplier(step: int, total: int) -> float:
    """Cosine annealing sweeping `COSINE_FREQ` of a full cycle over the
    `total` steps of a run."""
    if total <= 0:
        return 1.0
    return 0.5 * (1.0 + np.cos(2.0 * np.pi * COSINE_FREQ * step / total))


# -- optimizer -----------------------------------------------------------------


@dataclass(eq=False)
class _Group:
    """One update group: the buffer columns [lo, hi) and its parameters'
    (name, lo, hi) there, in buffer order."""

    lo: int
    hi: int
    params: list[tuple[str, int, int]]
    decay: bool
    t: int = 0  # steps taken, the bias-correction count
    # its `STEP_COLUMNS`-wide blocks [a, b), each with the scratch and the
    # gradient slices of every parameter that overlaps it
    blocks: list[tuple[int, int, list[tuple[str, slice, slice]]]] = field(default_factory=list)


class Optimizer:
    """Adam with decoupled weight decay (Loshchilov & Hutter, ICLR 2019) over
    update groups.

    A group is a run of named parameters that are always stepped together:
    the stacked parameters of a population entry's base models, or in meta
    training the meta core, one readout head, one base's state map or one
    base's embedding.
    `groups` maps each group's name to its parameters (name -> initial
    array). The optimizer copies them, in order, into row 0 of one float64
    buffer whose rows 1 and 2 hold the first and second moments, so each
    group is one contiguous run of columns; `params` maps each name to its
    view there (of the array's shape), which every step updates in place, and
    `flat` is row 0 itself.

    Each step updates the groups that `grads` touches (it must name every
    parameter of a touched group) at one learning rate, and keeps one
    bias-correction count per group, so sparsely updated groups (state maps,
    embeddings) see consistent statistics. Groups named in `no_decay` get no
    weight decay, the others `WEIGHT_DECAY`. A group is updated `STEP_COLUMNS`
    columns at a time: each block's gradients are copied into a scratch row
    at most that wide, and every element goes through the same operations in
    the same order, so the block width changes no bit. A step that leaves a
    parameter not finite in float32, the precision checkpoints store, raises
    `NumericError` naming it, so a diverging run stops at its first bad step.

    The block width bounds the scratch, which set the process peak when it
    was as wide as a stacked population entry, at no cost in time: one Adam
    step over
    141,592 columns (a stacked residual entry) took 1,248 us in one pass,
    1,088 us in 32,768-column blocks and 1,120 us in 65,536-column blocks;
    over 35,400 columns (one residual base), 248, 271 and 247 us (medians of
    40 interleaved rounds, 2-core Xeon, 2 MiB of L2 per core). So every meta
    group (the widest, a residual core, has 35,520 columns) stays one block.
    """

    def __init__(self, groups: dict[str, dict[str, np.ndarray]],
                 no_decay: set[str] = frozenset()):
        n = sum(np.size(a) for params in groups.values() for a in params.values())
        self._buf = np.zeros((3, n))
        self.flat = self._buf[0]
        self.params: dict[str, np.ndarray] = {}
        self._group_of: dict[str, _Group] = {}
        lo = 0
        for gname, params in groups.items():
            group = _Group(lo, lo, [], gname not in no_decay)
            for name, arr in params.items():
                arr = np.asarray(arr, dtype=np.float64)
                view = self.flat[lo:lo + arr.size].reshape(arr.shape)
                view[...] = arr
                self.params[name] = view
                group.params.append((name, lo, lo + arr.size))
                self._group_of[name] = group
                lo += arr.size
            group.hi = lo
            for a in range(group.lo, group.hi, STEP_COLUMNS):
                b = min(a + STEP_COLUMNS, group.hi)
                group.blocks.append((a, b, [
                    (name, slice(max(p, a) - a, min(q, b) - a), slice(max(p, a) - p, min(q, b) - p))
                    for name, p, q in group.params if p < b and a < q]))
        widest = max(g.hi - g.lo for g in self._group_of.values())
        self._scratch = np.empty((2, min(STEP_COLUMNS, widest)))

    def step(self, grads: dict[str, np.ndarray], lr: float) -> None:
        b1, b2 = ADAM_BETAS
        for group in dict.fromkeys(self._group_of[name] for name in grads):
            group.t += 1
            for a, b, parts in group.blocks:
                g, s = self._scratch[:, :b - a]
                for name, to, of in parts:
                    g[to] = grads[name].reshape(-1)[of]
                p, m, v = self._buf[:, a:b]
                m *= b1
                m += np.multiply(g, 1 - b1, out=s)
                v *= b2
                v += np.multiply(np.multiply(g, g, out=g), 1 - b2, out=g)
                np.multiply(np.divide(m, 1 - b1 ** group.t, out=s), lr, out=s)
                np.sqrt(np.divide(v, 1 - b2 ** group.t, out=g), out=g)
                g += ADAM_EPS
                p -= np.divide(s, g, out=s)
                if group.decay:
                    p -= np.multiply(p, lr * WEIGHT_DECAY, out=s)
                if not np.abs(p, out=s).max() < _F32_OVERFLOW:
                    # earlier blocks passed: the first bad parameter is in this one
                    name = next(name for name, lo, hi in group.params
                                if not np.abs(self.flat[lo:hi]).max() < _F32_OVERFLOW)
                    raise NumericError(f"parameter {name!r} is not finite in float32 "
                                       "after an optimizer step; training diverged")


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# -- loss graphs and their batches ------------------------------------------------


def _sum(g: Graph, terms: list[int]) -> int:
    total = terms[0]
    for term in terms[1:]:
        total = g.add(total, term)
    return total


def task_loss_graph(model, T: int, B: int, task_group: int | None = None,
                    leaves: dict[str, np.ndarray] | None = None,
                    workspace: Workspace | None = None) -> Graph:
    """Mean cross entropy of the final-step readout against one-hot `labels`.

    A base model's parameters are the trainable leaves (base training). A
    meta model's parameters are frozen and only the embedding leaf `theta`
    is trainable (the semi-supervised embedding search). Recurrent rows end
    at their own length: the readout reads row `last[b]` of the stacked
    states, (lengths[b] - 1) * B + b.

    With `leaves`, the `stacked_leaves` of an entry of base models shaped as
    `model`, every leaf and node takes their leading model axis, and the
    output is the sum of the models' mean losses, so each model's
    parameters get exactly the gradient of its own loss. The graph takes
    its recurrence's arrays from `workspace`, if given (`numgrad.Graph`).
    """
    g = Graph(workspace)
    is_meta = isinstance(model, MetaModel)
    w_name, b_name = readout_names(model, task_group)
    nb = 0 if leaves is None else len(leaves[w_name])
    lead = (nb,) if nb else ()
    refs = declare_params(g, graph_params(model, task_group) if leaves is None else leaves,
                          trainable=not is_meta)
    theta = g.leaf("theta", (1, model.embed_dim)) if is_meta else None
    h_last = list(unroll_graph(g, model, refs, T, B, theta, nb))[-1]
    if model.cell_kind != "residual_mlp":
        h_last = g.gather_rows(h_last, g.leaf("last", lead + (B,), param=False))
    logits = g.add(g.matmul(h_last, refs[w_name]), refs[b_name])
    onehot = g.leaf("labels", g.shape(logits), param=False)
    loss = g.reduce_mean(g.xent(logits, onehot, axis=-1), axis=-1)
    g.output(g.reduce_sum(loss) if nb else loss)
    return g


def task_batch(build, model, inputs: np.ndarray,
               lengths: np.ndarray | None, labels: np.ndarray,
               task_group: int | None = None,
               leaves: dict[str, np.ndarray] | None = None) -> tuple[Graph, dict]:
    """The task-loss graph `build(T, B)` for one labelled batch and its
    bindings; a meta model's `theta` is left for the caller to bind. With
    the `leaves` of a model stack, every batch array has a leading model
    axis."""
    T = 0 if lengths is None else inputs.shape[-1]
    B = inputs.shape[-2]
    g = build(T, B)
    bindings = graph_params(model, task_group) if leaves is None else dict(leaves)
    bindings.update(models.input_bindings(inputs, lengths))
    if T:
        bindings["last"] = (lengths - 1) * B + np.arange(B)
    _, b_name = readout_names(model, task_group)
    width = (model.params if leaves is None else leaves)[b_name].shape[-1]
    bindings["labels"] = _onehot(labels, width)
    return g, bindings


def _take(inputs: np.ndarray, lengths: np.ndarray | None, rows):
    """Rows of a `model_inputs` batch, padding trimmed to the longest row;
    `rows` (nb, B) takes one batch per model, all padded to the longest."""
    if lengths is None:
        return inputs[rows], None
    lengths = lengths[rows]
    return inputs[rows, :lengths.max()], lengths


def _emulation_loss_graph(meta: MetaModel, cfg: TrainConfig, T: int, B: int,
                          base_hidden: int, task_group: int) -> Graph:
    """Joint loss of the meta model at one embedding against one base batch:
    the squared L2 distance of the mapped hidden states to the base's, plus
    `lam` times the KL divergence of the meta softmax from the base's.

    Both families build the same terms over n rows that the binder weights:
    a recurrent base's T * B stacked states (row t * B + b is step t of
    sequence b) or a residual base's B rows of each block. Each state that
    `unroll_graph` yields meets its state map and the target `hb{t}` under
    the row weights `wh` in one `sqdist` node; the last one's logits meet
    the row-weighted base softmax `pb` in one `xent` node, which the constant
    `kl_const` (the weighted sum of p log p) turns into the KL divergence.
    Only the residual feature stream (unmapped, before the last block) is a
    per-coordinate mean instead.
    """
    residual = meta.cell_kind == "residual_mlp"
    if residual and base_hidden != meta.hidden_dim:
        raise TrainerError("residual family requires meta hidden dim == base hidden dim")
    g = Graph()
    w_name, b_name = readout_names(meta, task_group)
    # `lam` 0 weighs the output loss by nothing: the head is frozen, never stepped
    refs = {k: g.leaf(k, a.shape, param=cfg.lam > 0 or k not in (w_name, b_name))
            for k, a in graph_params(meta, task_group).items()}
    maps = [(g.leaf(f"vmap_w{k}", (meta.hidden_dim, base_hidden)),
             g.leaf(f"vmap_b{k}", (base_hidden,))) for k in range(max(1, meta.num_blocks))]
    theta = g.leaf("theta", (1, meta.embed_dim))
    n = B if residual else T * B
    wh = g.leaf("wh", (n,), param=False)
    hidden_terms, out_terms = [], []
    for t, h in enumerate(unroll_graph(g, meta, refs, T, B, theta)):
        hb = g.leaf(f"hb{t}", (n, base_hidden), param=False)
        v_w, v_b = maps[t]
        hidden_terms.append(g.sqdist(g.add(g.matmul(h, v_w), v_b), hb, wh))
        if t < meta.num_blocks - 1:
            out_terms.append(g.affine(g.sqdist(h, hb),
                                      1.0 / (B * meta.num_blocks * base_hidden)))
    logits = g.add(g.matmul(h, refs[w_name]), refs[b_name])
    pb = g.leaf("pb", (n, meta.head_dims[task_group]), param=False)
    out_terms.append(g.add(g.xent(logits, pb), g.leaf("kl_const", (), param=False)))
    hidden_total = g.mark("hidden_loss", _sum(g, hidden_terms))
    out_total = g.mark("output_loss", _sum(g, out_terms))
    g.output(g.add(hidden_total, g.affine(out_total, cfg.lam)))
    return g


def _onehot(ids: np.ndarray, width: int) -> np.ndarray:
    return np.eye(width)[ids]


# -- base-model training ---------------------------------------------------------


def model_accuracy(model: BaseModel, ds: SequenceDataset) -> float:
    idxs = ds.indices("test")
    if not idxs:
        raise TrainerError("empty split 'test'")
    inputs, lengths = models.model_inputs(model, ds, idxs)
    logits = final_logits(model, inputs, lengths=lengths)
    return float((logits.argmax(axis=1) == ds.labels[idxs]).mean())


def train_base(bases: list[BaseModel], ds: SequenceDataset, cfg: TrainConfig,
               seeds: list[int], subfraction: float = 1.0) -> list[BaseModel]:
    """Minibatch training, in lockstep, of one population entry's base models:
    same shapes, data share (optionally a leading sub-fraction of base_train)
    and schedule, each drawing its batches in the order of its own seed
    (`seeds`; `cfg.seed` is not read). Every step runs one task-loss graph
    over the models stacked on a leading axis, each on its own batch padded
    to the step's longest row, so each model's parameters take bit for bit
    the steps it would take alone. The whole entry is one update group. Each
    model's `params` are emptied once stacked into the optimizer's buffer and
    end as copies of its rows of it, so the initial arrays die at the start
    and the buffer dies with the optimizer, not with the last of the models.
    Every graph of the call shares one `numgrad.Workspace`, so a step reuses
    the recurrence arrays of the last instead of paging them in again; it
    holds the largest step's until the call returns, and the returned
    parameters share no memory with it."""
    cfg.validate()
    idxs = ds.base_train_subset(subfraction)
    if len(ds.indices("base_train")) == 0:
        raise TrainerError("dataset has no base_train split")
    if not idxs:
        raise TrainerError("base_train sub-fraction selected zero examples")
    first = bases[0]
    opt = Optimizer({"base": {k: np.stack([b.params[k] for b in bases])
                              for k in first.params}})
    for base in bases:  # the stack holds them now; the initial arrays die
        base.params.clear()
    leaves = models.stacked_leaves(first.cell_kind, opt.params)
    workspace = Workspace()
    build = cache(lambda T, B: task_loss_graph(first, T, B, leaves=leaves,
                                               workspace=workspace))
    inputs, lengths = models.model_inputs(first, ds, idxs)
    labels = ds.labels[idxs]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    n_batches = int(np.ceil(len(idxs) / cfg.batch_size))
    total_steps = max(1, cfg.epochs * n_batches)
    step = 0
    for _ in range(cfg.epochs):
        orders = np.stack([rng.permutation(len(idxs)) for rng in rngs])
        for k in range(n_batches):
            rows = orders[:, k * cfg.batch_size:(k + 1) * cfg.batch_size]
            g, bindings = task_batch(build, first, *_take(inputs, lengths, rows),
                                     labels[rows], leaves=leaves)
            g.forward(bindings)
            opt.step(g.backward(), cfg.lr * lr_multiplier(step, total_steps))
            step += 1
    for i, base in enumerate(bases):
        base.params.update({k: v[i].copy() for k, v in opt.params.items()})
    return bases


# -- meta training (the joint loop) ----------------------------------------------


@dataclass
class MetaTrainState:
    meta: MetaModel
    state_maps: list[dict[str, np.ndarray]]  # `models.init_state_map`'s, one per base
    embeddings: np.ndarray  # (N, d), row n is theta_n
    step: int = 0
    # (step, base index, hidden, output, total loss) per step: meta_loss.csv rows
    history: list[tuple[int, int, float, float, float]] = field(default_factory=list)


def init_meta_state(bases: list[BaseModel], meta_cfg: dict, seed: int) -> MetaTrainState:
    """Build the meta model, one state map per base, and zero embeddings.

    meta_cfg keys: cell_kind, hidden_dim, input_dim, embed_dim (optional
    overrides). `cell_kind` must be of the bases' family. A recurrent meta
    model's hidden dim defaults to twice the largest base hidden dim; a
    residual one takes its bases' hidden and input dims, which the keys may
    only repeat.
    """
    if not bases:
        raise TrainerError("need at least one base model")
    kinds = {b.cell_kind for b in bases}
    residual = "residual_mlp" in kinds
    if residual and kinds != {"residual_mlp"}:
        raise TrainerError("cannot mix residual and recurrent base models")
    vocab = bases[0].vocab_size
    if any(b.vocab_size != vocab for b in bases):
        raise TrainerError("base models must share the input vocabulary")
    cell = meta_cfg.get("cell_kind", "residual_mlp" if residual else "gru")
    if (cell == "residual_mlp") != residual:
        raise TrainerError(f"meta.cell_kind {cell!r} is not of the base models' family "
                           "(recurrent or residual)")
    if residual:
        shapes = {(b.hidden_dim, b.input_dim, b.num_blocks) for b in bases}
        if len(shapes) != 1:
            raise TrainerError("residual bases must share widths and block count")
        (hidden_dim, input_dim, num_blocks), = shapes
        for key, val in (("hidden_dim", hidden_dim), ("input_dim", input_dim)):
            if meta_cfg.get(key, val) != val:
                raise TrainerError(f"a residual meta model's {key} is its bases' ({val})")
    else:
        hidden_dim = meta_cfg.get("hidden_dim", 2 * max(b.hidden_dim for b in bases))
        input_dim = meta_cfg.get("input_dim", max(b.input_dim for b in bases))
        num_blocks = 0
    embed_dim = meta_cfg.get("embed_dim", 16)
    head_dims: dict[int, int] = {}
    for b in bases:
        if head_dims.setdefault(b.task_group, b.output_dim) != b.output_dim:
            raise TrainerError(f"task group {b.task_group} has conflicting output dims")
    meta = init_meta_model(cell, vocab, input_dim, hidden_dim, embed_dim,
                           head_dims, seed=seed, num_blocks=num_blocks)
    maps = [init_state_map(hidden_dim, b.hidden_dim,
                           num_blocks if residual else 0, seed=seed + 1 + i)
            for i, b in enumerate(bases)]
    thetas = np.zeros((len(bases), embed_dim))
    return MetaTrainState(meta, maps, thetas)


class MetaTrainer:
    """Holds the cached graph builder, the input pools and the optimizer of
    one joint run. The meta parameters, state maps and embeddings of `state`
    are rebound to views into the optimizer's buffer."""

    def __init__(self, state: MetaTrainState, bases: list[BaseModel],
                 datasets: list[SequenceDataset], cfg: TrainConfig):
        cfg.validate()
        if len(datasets) != len(bases):
            raise TrainerError("need one dataset per base model")
        for ds in datasets:
            if not ds.indices("meta_unlabeled"):
                raise TrainerError("dataset has no meta_unlabeled split")
        self.state = state
        self.bases = bases
        self.datasets = datasets
        self.cfg = cfg
        self.graph = cache(lambda T, B, hidden, group: _emulation_loss_graph(
            state.meta, cfg, T, B, hidden, group))
        self.rng = np.random.default_rng(cfg.seed)
        # one input pool per (dataset, input family), shared by its bases
        families = [(id(ds), b.cell_kind == "residual_mlp") for b, ds in zip(bases, datasets)]
        pools = {}
        for fam, b, ds in zip(families, bases, datasets):
            if fam not in pools:
                pools[fam] = models.model_inputs(b, ds, ds.indices("meta_unlabeled"))
        self.pools = [pools[fam] for fam in families]
        meta = state.meta.params
        groups = {"core": {k: v for k, v in meta.items() if not k.startswith("head")}}
        for tg in state.meta.head_dims:
            groups[f"head{tg}"] = {f"head{tg}_{x}": meta[f"head{tg}_{x}"] for x in "wb"}
        for i, vm in enumerate(state.state_maps):
            groups[f"v{i}"] = {f"v{i}_{k}": a for k, a in vm.items()}
        # per base: graph leaf -> optimizer name of its embedding and state-map leaves
        self.grad_names = [{"theta": f"theta{i}", **{f"vmap_{k}": f"v{i}_{k}" for k in vm}}
                           for i, vm in enumerate(state.state_maps)]
        # the embeddings come last, so their rows are the buffer's tail
        thetas = {f"theta{i}": {f"theta{i}": row} for i, row in enumerate(state.embeddings)}
        self.opt = Optimizer(groups | thetas, no_decay=set(thetas))
        meta.update({k: self.opt.params[k] for k in meta})
        for i, vm in enumerate(state.state_maps):
            vm.update({k: self.opt.params[f"v{i}_{k}"] for k in vm})
        n = state.embeddings.size
        state.embeddings = self.opt.flat[len(self.opt.flat) - n:].reshape(state.embeddings.shape)

    def bindings(self, i: int, inputs: np.ndarray, lengths: np.ndarray | None,
                 rolled: tuple[np.ndarray, np.ndarray]) -> tuple[Graph, dict]:
        """The joint-loss graph for base i on one `model_inputs` batch, bound
        to the current parameters and to `rolled`, the base's hiddens and
        logits on that batch as `rollout_batch` returns them. Only the family
        sets the rows, their weights `w` and targets: masked per-sequence time
        means over T * B recurrent states, 1 / (B * blocks) per residual row.
        The hidden distance weighs each row by `w` over the base's hidden
        width, and the base softmax `pb` by `w`."""
        base = self.bases[i]
        meta = self.state.meta
        tg = base.task_group
        B = len(inputs)
        T = 0 if lengths is None else inputs.shape[1]
        g = self.graph(T, B, base.hidden_dim, tg)
        hs_b, logits_b = rolled
        bindings = graph_params(meta, tg)
        bindings.update(models.input_bindings(inputs, lengths))
        bindings["theta"] = self.state.embeddings[i][None, :]
        bindings.update({f"vmap_{k}": a for k, a in self.state.state_maps[i].items()})
        if lengths is None:
            w = np.full(B, 1.0 / (B * base.num_blocks))
            targets, last = hs_b, logits_b[-1]
        else:
            w = ((np.arange(T)[:, None] < lengths[None, :]) * (1.0 / (lengths * B))).reshape(-1)
            targets = [hs_b.reshape(T * B, base.hidden_dim)]
            last = logits_b.reshape(T * B, -1)
        for t, hb in enumerate(targets):
            bindings[f"hb{t}"] = hb
        bindings["wh"] = w * (1.0 / base.hidden_dim)
        p = _softmax(last)
        bindings["pb"] = p * w[:, None]
        plogp = np.where(p > 0, p * np.log(np.clip(p, 1e-300, None)), 0.0)
        bindings["kl_const"] = float((plogp.sum(axis=1) * w).sum())
        return g, bindings

    def _rolled(self, i: int, batches: list[np.ndarray]):
        """Base i's (hiddens, logits) on each of its scheduled `batches` in
        turn, from one rollout per `BASE_ROLL_ROWS` rows of them, made when
        the previous rollout's batches are used up. The rollout is copied
        into per-batch targets and dropped at once, and each target is let go
        when it is handed out: the base holds only the batches of its current
        rollout it has not used, and nothing after its last."""
        inputs, lengths = self.pools[i]
        per_roll = max(1, BASE_ROLL_ROWS // len(batches[0]))
        for c in range(0, len(batches), per_roll):
            chunk = batches[c:c + per_roll]
            hs, logits = rollout_batch(self.bases[i],
                                       _take(inputs, lengths, np.concatenate(chunk))[0])
            targets, a = deque(), 0
            for rows in chunk:
                T = len(hs) if lengths is None else lengths[rows].max()
                cols = slice(a, a + len(rows))
                targets.append((hs[:T, cols].copy(), logits[:T, cols].copy()))
                a += len(rows)
            del hs, logits
            while targets:
                yield targets.popleft()

    def run(self) -> MetaTrainState:
        cfg = self.cfg
        N = len(self.bases)
        schedule = []
        for _ in range(cfg.max_steps):
            i = int(self.rng.integers(0, N))
            n = len(self.pools[i][0])
            schedule.append((i, self.rng.choice(n, size=min(cfg.batch_size, n),
                                                replace=n < cfg.batch_size)))
        rolled = [self._rolled(i, [rows for j, rows in schedule if j == i])
                  for i in range(N)]
        for i, rows in schedule:
            inputs, lengths = self.pools[i]
            g, bindings = self.bindings(i, *_take(inputs, lengths, rows), next(rolled[i]))
            total_loss_val = float(g.forward(bindings))
            hid = float(g.value("hidden_loss"))
            out = float(g.value("output_loss"))
            names = self.grad_names[i]
            grads = {names.get(leaf, leaf): grad for leaf, grad in g.backward().items()}
            mult = lr_multiplier(self.state.step, cfg.max_steps)
            self.opt.step(grads, cfg.lr * mult)
            self.state.history.append((self.state.step, i, hid, out, total_loss_val))
            self.state.step += 1
        return self.state


def train_meta(bases: list[BaseModel], datasets: list[SequenceDataset],
               cfg: TrainConfig, meta_cfg: dict | None = None) -> MetaTrainState:
    """Joint training of the meta model, state maps, and embeddings."""
    state = init_meta_state(bases, meta_cfg or {}, seed=cfg.seed)
    trainer = MetaTrainer(state, bases, datasets, cfg)
    return trainer.run()
