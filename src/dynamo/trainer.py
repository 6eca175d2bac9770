"""Base-model task training and the joint meta-model / state-map / embedding
optimization.

The joint loop follows the sampled-model scheme: each step draws one base
model uniformly and a minibatch from that model's unlabeled split, rolls the
meta-model out at that model's embedding, and takes one optimizer step on
(meta params, that model's state map, that model's embedding) against
hidden-trajectory + weighted output losses. The bases are frozen, so their
targets are a fixed function of the batch: the run draws its whole schedule
first and rolls each base out without gradients once per `BASE_ROLL_ROWS`
rows of its upcoming batches, each step binding its own slice. Ragged
sequence lengths are handled by per-row weights inside a cached unrolled
graph, so per-sequence time averages stay exact.

Every graph here unrolls the model through `models.unroll_graph`, and every
numpy rollout (the base trajectories, accuracies) goes through
`models.rollout_batch`. Two graphs exist: the final-step task loss
(`task_loss_graph`, shared by base training and the embedding search in
`atlas.ssl_optimize`) and the joint emulation loss (`_emulation_loss_graph`,
the only implementation of the emulation objective). A recurrent model is
one numgrad `recurrence` node over a time-major `tokens` leaf, and the loss
terms are built once over its T * B states, so no node count grows with T.
Both graphs are kept in a `GraphCache` keyed by batch shape and bound batch
by batch through one binder (`_input_bindings`). A non-finite loss or
gradient raises `NumericError` from numgrad's forward or backward pass, and
so does a parameter update that leaves the float32 range (`Optimizer.step`).

The optimizer steps update groups, not single arrays: a base model is one
group; in meta training the meta core, each readout head, each state map and
each embedding are. Each group keeps one set of statistics and one
bias-correction count, and the parameters of every group live in the
optimizer's buffer: the models' parameter arrays are views into it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import models
from .models import (
    BaseModel,
    MetaModel,
    StateMap,
    apply_state_map,
    declare_params,
    final_logits,
    graph_params,
    init_meta_model,
    init_state_map,
    readout_names,
    rollout_batch,
    unroll_graph,
)
from .numgrad import Graph, NumericError
from .tasks import SequenceDataset

OPTIMIZERS = ("adam_decoupled_wd", "sgd_nesterov")
HIDDEN_METRICS = ("L2_squared", "L1")
OUTPUT_DIVERGENCES = ("squared_L2_on_logits", "KL_on_softmax")
# float64 magnitudes from this one up (FLT_MAX plus half its last-place unit)
# round to infinity in float32, the precision checkpoints store
_F32_OVERFLOW = float(np.finfo(np.float32).max) + 2.0 ** 103
# Rows of one frozen-base rollout in `MetaTrainer.run`: a base's next
# scheduled batches are rolled together up to this many rows, at least one
# batch. On train-ragged, 52 rollouts of 64 rows took 56-60 ms against
# 105-149 ms for 200 of 16; wider is not safely faster (a 256-row residual
# rollout took 73 ms once, 64 rows 0.2-0.6 ms) and holds more rows per base.
BASE_ROLL_ROWS = 64
# Buffer columns `Optimizer.step` updates at once, through two scratch
# arrays of this many float64s shared by every group. Adam steps of a
# train-residual base (one 35,394-column group) took a median 383 us at
# 8192, 322 at 16384, 305 at 32768 and 288 at 65536, against 467 us for a
# per-parameter loop (12 interleaved rounds on a 2-core Xeon with 2 MiB of
# L2 per core). 16384 keeps a block's five operand rows (640 KiB) in L2 and
# the scratch at 256 KiB whatever the model's size.
STEP_BLOCK = 16384
ADAM_BETAS, ADAM_EPS = (0.9, 0.999), 1e-8  # fixed: no config key sets them


class TrainerError(Exception):
    pass


@dataclass
class TrainConfig:
    """Optimizer and schedule of one training run. Base training reads
    `epochs` and meta training reads `max_steps` plus the emulation-loss
    fields (`lam` to `normalize_hidden_by_dim`); both read the rest.
    `cli.train_config_from` fills it from the config's `base_training` or
    `meta_training` section, whose keys are these fields (`lambda` for
    `lam`)."""

    optimizer: str = "adam_decoupled_wd"
    lr: float = 1e-3
    cosine_freq: float = 7.0 / 32.0
    momentum: float = 0.9
    weight_decay: float = 1e-4
    epochs: int = 0            # base-model training
    max_steps: int = 0         # meta training
    batch_size: int = 16
    lam: float = 1.0           # output-loss weight
    hidden_metric: str = "L2_squared"
    output_divergence: str = "KL_on_softmax"
    normalize_hidden_by_dim: bool = True
    seed: int = 0

    def validate(self):
        if self.optimizer not in OPTIMIZERS:
            raise TrainerError(f"unknown optimizer {self.optimizer!r}")
        if self.hidden_metric not in HIDDEN_METRICS:
            raise TrainerError(f"unknown hidden metric {self.hidden_metric!r}")
        if self.output_divergence not in OUTPUT_DIVERGENCES:
            raise TrainerError(f"unknown divergence {self.output_divergence!r}")
        if self.lr <= 0:
            raise TrainerError("learning rate must be positive")
        if self.lam < 0:
            raise TrainerError("output-loss weight must be >= 0")
        if self.batch_size < 1:
            raise TrainerError("batch_size must be >= 1")


def lr_multiplier(cfg: TrainConfig, step: int, total: int) -> float:
    """Cosine annealing sweeping `cosine_freq` of a full cycle over the run;
    `cosine_freq` 0 keeps the multiplier at exactly 1."""
    if total <= 0:
        return 1.0
    return 0.5 * (1.0 + np.cos(2.0 * np.pi * cfg.cosine_freq * step / total))


# -- optimizers ----------------------------------------------------------------


@dataclass(eq=False)
class _Group:
    """One update group: the buffer columns [lo, hi) and its parameters'
    (name, lo, hi) there, in buffer order."""

    lo: int
    hi: int
    params: list[tuple[str, int, int]]
    decay: bool
    t: int = 0  # steps taken, the bias-correction count


class Optimizer:
    """Adam with decoupled weight decay, or Nesterov SGD, over update groups.

    A group is a run of named parameters that are always stepped together:
    all of a base model's parameters, or in meta training the meta core,
    one readout head, one base's state map or one base's embedding.
    `groups` maps each group's name to its parameters (name -> initial
    array). The optimizer copies them, in order, into row 0 of one float64
    buffer whose rows 1 and 2 hold the first and second moments, so each
    group is one contiguous run of columns; `params` maps each name to its
    view there (of the array's shape) and `flat` is row 0 itself. Callers
    rebind their models to these views, which every step updates in place.

    Each step updates the groups that `grads` touches (it must name every
    parameter of a touched group) at one learning rate, and keeps one
    bias-correction count per group, so sparsely updated groups (state maps,
    embeddings) see consistent statistics. Groups named in `no_decay` get no
    weight decay. A group is updated `STEP_BLOCK` columns at a time, every
    element through the same operations in the same order. A step that
    leaves a parameter not finite in float32, the precision checkpoints
    store, raises `NumericError` naming it, so a diverging run stops at its
    first bad step.
    """

    def __init__(self, groups: dict[str, dict[str, np.ndarray]], cfg: TrainConfig,
                 no_decay: set[str] = frozenset()):
        self.cfg = cfg
        n = sum(np.size(a) for params in groups.values() for a in params.values())
        self._buf = np.zeros((3 if cfg.optimizer == "adam_decoupled_wd" else 2, n))
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
        self._scratch = np.empty((2, min(STEP_BLOCK, n)))

    def step(self, grads: dict[str, np.ndarray], lr: float) -> None:
        for group in dict.fromkeys(self._group_of[name] for name in grads):
            group.t += 1
            flat_grads = [grads[name].reshape(-1) for name, _, _ in group.params]
            for a in range(group.lo, group.hi, STEP_BLOCK):
                self._step_block(group, flat_grads, a, min(a + STEP_BLOCK, group.hi), lr)

    def _step_block(self, group: _Group, flat_grads: list[np.ndarray],
                    a: int, b: int, lr: float) -> None:
        """Update columns [a, b) of `group`, whose gradients `flat_grads` are
        in the group's parameter order."""
        cfg = self.cfg
        g, s = self._scratch[0, :b - a], self._scratch[1, :b - a]
        for (_, lo, hi), grad in zip(group.params, flat_grads):
            if lo < b and a < hi:
                g[max(lo, a) - a:min(hi, b) - a] = grad[max(lo, a) - lo:min(hi, b) - lo]
        p, m = self._buf[0, a:b], self._buf[1, a:b]
        if cfg.optimizer == "adam_decoupled_wd":
            b1, b2 = ADAM_BETAS
            v = self._buf[2, a:b]
            m *= b1
            m += np.multiply(g, 1 - b1, out=s)
            v *= b2
            v += np.multiply(np.multiply(g, g, out=g), 1 - b2, out=g)
            np.multiply(np.divide(m, 1 - b1 ** group.t, out=s), lr, out=s)
            np.sqrt(np.divide(v, 1 - b2 ** group.t, out=g), out=g)
            g += ADAM_EPS
            p -= np.divide(s, g, out=s)
        else:
            mu = cfg.momentum
            m *= mu
            m += g
            s = np.add(np.multiply(m, mu, out=s), g, out=s)
            p -= np.multiply(s, lr, out=s)
        if cfg.weight_decay and group.decay:
            p -= np.multiply(p, lr * cfg.weight_decay, out=s)
        if not np.abs(p, out=s).max() < _F32_OVERFLOW:
            name = next(name for name, lo, hi in group.params if lo < b and a < hi
                        and not np.abs(self.flat[max(lo, a):min(hi, b)]).max()
                        < _F32_OVERFLOW)
            raise NumericError(f"parameter {name!r} is not finite in float32 "
                               "after an optimizer step; training diverged")


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# -- loss graphs, their cache and their batches -----------------------------------


class GraphCache:
    """Loss graphs built once per structural key (padded length, batch
    width, ...) and reused by every later batch with the same key."""

    def __init__(self, build):
        self._build = build
        self._graphs: dict[tuple, Graph] = {}

    def get(self, *key) -> Graph:
        g = self._graphs.get(key)
        if g is None:
            g = self._graphs[key] = self._build(*key)
        return g


def _sum(g: Graph, terms: list[int]) -> int:
    total = terms[0]
    for term in terms[1:]:
        total = g.add(total, term)
    return total


def task_loss_graph(model, T: int, B: int, task_group: int | None = None) -> Graph:
    """Mean cross entropy of the final-step readout against one-hot `labels`.

    A base model's parameters are the trainable leaves (base training). A
    meta model's parameters are frozen and only the embedding leaf `theta`
    is trainable (the semi-supervised embedding search). Recurrent rows end
    at their own length: the readout reads row `last[b]` of the stacked
    states, (lengths[b] - 1) * B + b.
    """
    g = Graph()
    is_meta = isinstance(model, MetaModel)
    w_name, b_name = readout_names(model, task_group)
    refs = declare_params(g, graph_params(model, task_group), trainable=not is_meta)
    theta = g.leaf("theta", (1, model.embed_dim)) if is_meta else None
    h_last = list(unroll_graph(g, model, refs, T, B, theta))[-1]
    if model.cell_kind != "residual_mlp":
        h_last = g.gather_rows(h_last, g.leaf("last", (B,), param=False))
    logits = g.add(g.matmul(h_last, refs[w_name]), refs[b_name])
    onehot = g.leaf("labels", g.shape(logits), param=False)
    g.output(g.reduce_mean(g.softmax_log_loss(logits, onehot)))
    return g


def _input_bindings(inputs: np.ndarray, lengths: np.ndarray | None) -> dict:
    """Bindings of `unroll_graph`'s input leaves for one `model_inputs` batch."""
    if lengths is None:
        return {"feat": inputs}
    return {"tokens": inputs.T.reshape(-1).astype(np.float64)}


def task_batch(cache: GraphCache, model, inputs: np.ndarray,
               lengths: np.ndarray | None, labels: np.ndarray,
               task_group: int | None = None) -> tuple[Graph, dict]:
    """The cached task-loss graph for one labelled batch and its bindings;
    a meta model's `theta` is left for the caller to bind."""
    T = 0 if lengths is None else inputs.shape[1]
    B = len(inputs)
    g = cache.get(T, B)
    bindings = graph_params(model, task_group)
    bindings.update(_input_bindings(inputs, lengths))
    if T:
        bindings["last"] = (lengths - 1) * B + np.arange(B)
    _, b_name = readout_names(model, task_group)
    bindings["labels"] = _onehot(labels, model.params[b_name].size)
    return g, bindings


def _take(inputs: np.ndarray, lengths: np.ndarray | None, rows):
    """Rows of a `model_inputs` batch, padding trimmed to the longest row."""
    if lengths is None:
        return inputs[rows], None
    lengths = lengths[rows]
    return inputs[rows, :lengths.max()], lengths


def _hidden_rows(g: Graph, cfg: TrainConfig, h: int, vmap: tuple[int, int],
                 target: int) -> int:
    """Per-row hidden metric between the mapped states `h` and the node `target`."""
    v_w, v_b = vmap
    diff = g.sub(g.add(g.matmul(h, v_w), v_b), target)
    return g.l1(diff, axis=1) if cfg.hidden_metric == "L1" else g.squared_l2(diff, axis=1)


def _emulation_loss_graph(meta: MetaModel, cfg: TrainConfig, T: int, B: int,
                          base_hidden: int, task_group: int) -> Graph:
    """Joint loss of the meta model at one embedding against one base batch:
    mapped hidden-state distance plus `lam` times the output divergence.

    Recurrent bases: both terms are built once over the T * B stacked states
    (row t * B + b is step t of sequence b) and weighted per row by the
    leaves `wh`/`wo` (masked per-sequence time means), against the base's
    stacked states `hb` and softmax `pb` (KL) or logits `ob`. Residual bases
    use one state map per block, compare block features with the base's
    `hb{t}` both mapped and (before the last block) unmapped, then outputs.
    """
    residual = meta.cell_kind == "residual_mlp"
    if residual and base_hidden != meta.hidden_dim:
        raise TrainerError("residual family requires meta hidden dim == base hidden dim")
    g = Graph()
    w_name, b_name = readout_names(meta, task_group)
    refs = declare_params(g, graph_params(meta, task_group))
    maps = [(g.leaf(f"vmap_w{k}", (meta.hidden_dim, base_hidden)),
             g.leaf(f"vmap_b{k}", (base_hidden,))) for k in range(max(1, meta.num_blocks))]
    theta = g.leaf("theta", (1, meta.embed_dim))
    states = unroll_graph(g, meta, refs, T, B, theta)
    C = meta.head_dims[task_group]
    kl = cfg.output_divergence == "KL_on_softmax"
    if residual:
        nb = meta.num_blocks
        whid = 1.0 / (B * nb * base_hidden)
        hidden_terms, out_terms = [], []
        for t, h in enumerate(states):
            hb = g.leaf(f"hb{t}", (B, base_hidden), param=False)
            rows = _hidden_rows(g, cfg, h, maps[t], hb)
            hidden_terms.append(g.affine(g.reduce_sum(rows), whid))
            if t < nb - 1:
                # feature stream: unmapped per-coordinate squared distance
                fd = g.sub(h, hb)
                out_terms.append(g.affine(g.reduce_sum(g.mul(fd, fd)), whid))
        logits = g.add(g.matmul(h, refs[w_name]), refs[b_name])
        if kl:
            pb = g.leaf("pb", (B, C), param=False)
            ce = g.affine(g.reduce_sum(g.mul(g.log_softmax(logits), pb)), -1.0 / (B * nb))
            out_terms.append(g.add(ce, g.leaf("kl_const", (), param=False)))
        else:
            ob = g.leaf("ob", (B, C), param=False)
            out_terms.append(g.affine(g.squared_l2(g.sub(logits, ob)), 1.0 / (B * nb)))
        hidden_total = _sum(g, hidden_terms)
        out_total = _sum(g, out_terms)
    else:
        hs = next(states)
        TB = T * B
        rows = _hidden_rows(g, cfg, hs, maps[0],
                            g.leaf("hb", (TB, base_hidden), param=False))
        hidden_total = g.reduce_sum(g.mul(rows, g.leaf("wh", (TB,), param=False)))
        logits = g.add(g.matmul(hs, refs[w_name]), refs[b_name])
        wo = g.leaf("wo", (TB,), param=False)
        if kl:
            pb = g.leaf("pb", (TB, C), param=False)
            ce = g.softmax_log_loss(logits, pb)
            out_total = g.add(g.reduce_sum(g.mul(ce, wo)), g.leaf("kl_const", (), param=False))
        else:
            ob = g.leaf("ob", (TB, C), param=False)
            out_total = g.reduce_sum(g.mul(g.squared_l2(g.sub(logits, ob), axis=1), wo))
    g.mark("hidden_loss", hidden_total)
    g.mark("output_loss", out_total)
    g.output(g.add(hidden_total, g.affine(out_total, cfg.lam)))
    return g


def _onehot(ids: np.ndarray, width: int) -> np.ndarray:
    out = np.zeros((len(ids), width))
    out[np.arange(len(ids)), ids] = 1.0
    return out


# -- base-model training ---------------------------------------------------------


def model_accuracy(model: BaseModel, ds: SequenceDataset) -> float:
    idxs = ds.indices("test")
    if not idxs:
        raise TrainerError("empty split 'test'")
    inputs, lengths = models.model_inputs(model, ds, idxs)
    logits = final_logits(model, inputs, lengths=lengths)
    return float((logits.argmax(axis=1) == ds.subset(idxs)[1]).mean())


def train_base(model: BaseModel, ds: SequenceDataset, cfg: TrainConfig,
               subfraction: float = 1.0) -> BaseModel:
    """Minibatch training of one base model on its base_train share (optionally
    a leading sub-fraction of it). All its parameters are one update group,
    and `model.params` are rebound to their views in the optimizer's buffer."""
    cfg.validate()
    idxs = ds.base_train_subset(subfraction)
    if len(ds.indices("base_train")) == 0:
        raise TrainerError("dataset has no base_train split")
    if not idxs:
        raise TrainerError("base_train sub-fraction selected zero examples")
    rng = np.random.default_rng(cfg.seed)
    opt = Optimizer({"base": model.params}, cfg)
    model.params.update(opt.params)
    cache = GraphCache(lambda T, B: task_loss_graph(model, T, B))
    inputs, lengths = models.model_inputs(model, ds, idxs)
    labels = ds.subset(idxs)[1]
    n_batches = int(np.ceil(len(idxs) / cfg.batch_size))
    total_steps = max(1, cfg.epochs * n_batches)
    step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(len(idxs))
        for k in range(n_batches):
            rows = order[k * cfg.batch_size:(k + 1) * cfg.batch_size]
            g, bindings = task_batch(cache, model, *_take(inputs, lengths, rows),
                                     labels[rows])
            g.forward(bindings)
            opt.step(g.backward(), cfg.lr * lr_multiplier(cfg, step, total_steps))
            step += 1
    return model


# -- meta training (the joint loop) ----------------------------------------------


@dataclass
class MetaTrainState:
    meta: MetaModel
    state_maps: list[StateMap]
    embeddings: np.ndarray  # (N, d), row n is theta_n
    step: int = 0
    # (step, base index, hidden, output, total loss) per step: meta_loss.csv rows
    history: list[tuple[int, int, float, float, float]] = field(default_factory=list)


def init_meta_state(bases: list[BaseModel], meta_cfg: dict, seed: int) -> MetaTrainState:
    """Build the meta model, one state map per base, and zero embeddings.

    meta_cfg keys: hidden_dim, input_dim, embed_dim (optional overrides);
    hidden defaults to twice the largest base hidden dim for recurrent
    families and to the shared base hidden dim for the residual family.
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
    if residual:
        hiddens = {b.hidden_dim for b in bases}
        blocks = {b.num_blocks for b in bases}
        feats = {b.input_dim for b in bases}
        if len(hiddens) != 1 or len(blocks) != 1 or len(feats) != 1:
            raise TrainerError("residual bases must share widths and block count")
        hidden_dim = meta_cfg.get("hidden_dim", bases[0].hidden_dim)
        if hidden_dim != bases[0].hidden_dim:
            raise TrainerError("residual family requires matching meta hidden dim")
        input_dim = bases[0].input_dim
        cell = "residual_mlp"
        num_blocks = bases[0].num_blocks
    else:
        cell = meta_cfg.get("cell_kind", "gru")
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
    """Holds the graph cache, the input pools and the optimizer of one joint
    run. The meta parameters, state maps and embeddings of `state` are
    rebound to views into the optimizer's buffer."""

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
        self.cache = GraphCache(lambda T, B, hidden, group: _emulation_loss_graph(
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
            groups[f"v{i}"] = {**{f"v{i}_w{t}": w for t, w in enumerate(vm.weights)},
                               **{f"v{i}_b{t}": b for t, b in enumerate(vm.biases)}}
        # the embeddings come last, so their rows are the buffer's tail
        thetas = {f"theta{i}": {f"theta{i}": row} for i, row in enumerate(state.embeddings)}
        self.opt = Optimizer(groups | thetas, cfg, no_decay=set(thetas))
        meta.update({k: self.opt.params[k] for k in meta})
        for i, vm in enumerate(state.state_maps):
            vm.weights[:] = [self.opt.params[f"v{i}_w{t}"] for t in range(len(vm.weights))]
            vm.biases[:] = [self.opt.params[f"v{i}_b{t}"] for t in range(len(vm.biases))]
        n = state.embeddings.size
        state.embeddings = self.opt.flat[len(self.opt.flat) - n:].reshape(state.embeddings.shape)

    def bindings(self, i: int, inputs: np.ndarray, lengths: np.ndarray | None,
                 rolled: tuple[np.ndarray, np.ndarray]) -> tuple[Graph, dict]:
        """The joint-loss graph for base i on one `model_inputs` batch, bound
        to the current parameters and to `rolled`, the base's hiddens and
        logits on that batch as `rollout_batch` returns them."""
        base = self.bases[i]
        cfg = self.cfg
        meta = self.state.meta
        tg = base.task_group
        B = len(inputs)
        T = 0 if lengths is None else inputs.shape[1]
        g = self.cache.get(T, B, base.hidden_dim, tg)
        hs_b, logits_b = rolled
        bindings = graph_params(meta, tg)
        bindings.update(_input_bindings(inputs, lengths))
        bindings["theta"] = self.state.embeddings[i][None, :]
        vmap = self.state.state_maps[i]
        for t in range(len(vmap.weights)):
            bindings[f"vmap_w{t}"] = vmap.weights[t]
            bindings[f"vmap_b{t}"] = vmap.biases[t]
        kl = cfg.output_divergence == "KL_on_softmax"
        if lengths is None:
            nb = base.num_blocks
            for t in range(nb):
                bindings[f"hb{t}"] = hs_b[t]
            if kl:
                p = _softmax(logits_b[-1])
                bindings["pb"] = p
                plogp = (p * np.log(np.clip(p, 1e-300, None))).sum()
                bindings["kl_const"] = float(plogp) / (B * nb)
            else:
                bindings["ob"] = logits_b[-1]
            return g, bindings
        TB = T * B
        w = (np.arange(T)[:, None] < lengths[None, :]) * (1.0 / (lengths * B))
        w = w.reshape(TB)
        hscale = 1.0 / base.hidden_dim if cfg.normalize_hidden_by_dim else 1.0
        bindings["hb"] = hs_b.reshape(TB, base.hidden_dim)
        bindings["wh"] = w * hscale
        bindings["wo"] = w
        logits_b = logits_b.reshape(TB, -1)
        if kl:
            p = _softmax(logits_b)
            bindings["pb"] = p
            plogp = np.where(p > 0, p * np.log(np.clip(p, 1e-300, None)), 0.0)
            bindings["kl_const"] = float((plogp.sum(axis=1) * w).sum())
        else:
            bindings["ob"] = logits_b
        return g, bindings

    def _grad_names(self, i: int, task_group: int) -> dict[str, str]:
        """Graph leaf name -> optimizer handle name for the sampled cohort."""
        names = {}
        for k in self.state.meta.params:
            if k.startswith("head"):
                continue
            names[k] = k
        if self.cfg.lam > 0:
            names[f"head{task_group}_w"] = f"head{task_group}_w"
            names[f"head{task_group}_b"] = f"head{task_group}_b"
        for t in range(len(self.state.state_maps[i].weights)):
            names[f"vmap_w{t}"] = f"v{i}_w{t}"
            names[f"vmap_b{t}"] = f"v{i}_b{t}"
        names["theta"] = f"theta{i}"
        return names

    def _rolled(self, i: int, batches: list[np.ndarray]):
        """Base i's (hiddens, logits) on each of its scheduled `batches` in
        turn, from one rollout per `BASE_ROLL_ROWS` rows of them, made when
        the previous rollout's batches are used up."""
        inputs, lengths = self.pools[i]
        per_roll = max(1, BASE_ROLL_ROWS // len(batches[0]))
        for c in range(0, len(batches), per_roll):
            chunk = batches[c:c + per_roll]
            hs, logits = rollout_batch(self.bases[i],
                                       _take(inputs, lengths, np.concatenate(chunk))[0])
            a = 0
            for rows in chunk:
                T = len(hs) if lengths is None else lengths[rows].max()
                yield hs[:T, a:a + len(rows)], logits[:T, a:a + len(rows)]
                a += len(rows)

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
            grads_graph = g.backward()
            name_map = self._grad_names(i, self.bases[i].task_group)
            grads = {handle: grads_graph[leaf] for leaf, handle in name_map.items()}
            mult = lr_multiplier(cfg, self.state.step, cfg.max_steps)
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


# -- diagnostics ------------------------------------------------------------------


def conjugacy_defect(meta, base: BaseModel, vmap: StateMap,
                     theta: np.ndarray, sequences: list[list[int]]) -> dict:
    """Distribution of the one-step conjugacy defect over a batch.

    For each step t the defect compares pushing the meta state forward and
    then mapping, against mapping first and stepping through the base cell.
    """
    tokens, lengths = models.pad_tokens(sequences)
    hs_m, _ = rollout_batch(meta, tokens, theta=theta, task_group=base.task_group,
                            lengths=lengths)
    valid = np.arange(tokens.shape[1])[:, None] < lengths[None, :]
    prev = np.concatenate([np.zeros_like(hs_m[:1]), hs_m[:-1]])
    lhs = apply_state_map(vmap, hs_m[valid])
    rhs = models.cell_step(base, base.params["embed"][tokens.T[valid]],
                           apply_state_map(vmap, prev[valid]))
    vals = np.linalg.norm(lhs - rhs, axis=1)
    return {"mean": float(vals.mean()), "max": float(vals.max()), "count": len(vals)}
