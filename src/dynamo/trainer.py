"""Base-model task training and the joint meta-model / state-map / embedding
optimization.

The joint loop follows the sampled-model scheme: each step draws one base
model uniformly, draws a minibatch from that model's unlabeled split, rolls
the base out without gradients, rolls the meta-model out at that model's
embedding, and takes one optimizer step on (meta params, that model's state
map, that model's embedding) against hidden-trajectory + weighted output
losses. Ragged sequence lengths are handled by per-row weights inside a
cached unrolled graph, so per-sequence time averages stay exact.

Every graph here unrolls the model through `models.unroll_graph`, whose
inputs are token-id leaves `x{t}`, and every numpy rollout (the base
trajectories, accuracies, reference losses) goes through
`models.rollout_batch`. Two graphs exist: the final-step task loss
(`task_loss_graph`, shared by base training and the embedding search in
`atlas.ssl_optimize`) and the joint emulation loss. For recurrent models
both build their loss terms once over the T * B stacked states rather than
step by step. Both are kept in a `GraphCache` keyed by batch shape and bound
batch by batch through one binder (`_input_bindings`). A non-finite loss or
gradient raises `NumericError` from numgrad's forward or backward pass.
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
from .numgrad import Graph, NumericError  # noqa: F401  (re-exported for callers)
from .tasks import SequenceDataset, write_csv

OPTIMIZERS = ("adam_decoupled_wd", "sgd_nesterov")
HIDDEN_METRICS = ("L2_squared", "L1")
OUTPUT_DIVERGENCES = ("squared_L2_on_logits", "KL_on_softmax")


class TrainerError(Exception):
    pass


@dataclass
class TrainConfig:
    optimizer: str = "adam_decoupled_wd"
    lr: float = 1e-3
    cosine: bool = True
    cosine_freq: float = 7.0 / 32.0
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    momentum: float = 0.9
    weight_decay: float = 1e-4
    epochs: int = 0            # base-model training
    max_steps: int = 0         # meta training
    batch_size: int = 16
    lam: float = 1.0           # output-loss weight
    hidden_metric: str = "L2_squared"
    output_divergence: str = "KL_on_softmax"
    normalize_hidden_by_dim: bool = True
    theta_lr: float | None = None  # defaults to the shared lr
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
    """Cosine annealing sweeping `cosine_freq` of a full cycle over the run."""
    if not cfg.cosine or total <= 0:
        return 1.0
    return 0.5 * (1.0 + np.cos(2.0 * np.pi * cfg.cosine_freq * step / total))


# -- optimizers ----------------------------------------------------------------


class Optimizer:
    """Adam with decoupled weight decay, or Nesterov SGD, over named arrays.

    Each step updates only the supplied subset of parameters; moment buffers
    and bias-correction counters are tracked per parameter so that sparsely
    updated parameters (state maps, embeddings) see consistent statistics.
    """

    def __init__(self, handles: dict[str, np.ndarray], cfg: TrainConfig,
                 no_decay: set[str] = frozenset()):
        self.handles = handles
        self.cfg = cfg
        self.no_decay = set(no_decay)
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t: dict[str, int] = {}

    def step(self, grads: dict[str, np.ndarray], lr: float,
             theta_lr: float | None = None) -> None:
        cfg = self.cfg
        for name, g in grads.items():
            p = self.handles[name]
            if g.shape != p.shape:
                g = g.reshape(p.shape)
            eff_lr = lr
            if theta_lr is not None and name.startswith("theta"):
                eff_lr = theta_lr
            if cfg.optimizer == "adam_decoupled_wd":
                b1, b2 = cfg.betas
                m = self._m.setdefault(name, np.zeros_like(p))
                v = self._v.setdefault(name, np.zeros_like(p))
                t = self._t.get(name, 0) + 1
                self._t[name] = t
                m *= b1
                m += (1 - b1) * g
                v *= b2
                v += (1 - b2) * (g * g)
                mhat = m / (1 - b1 ** t)
                vhat = v / (1 - b2 ** t)
                p -= eff_lr * mhat / (np.sqrt(vhat) + cfg.eps)
                if cfg.weight_decay and name not in self.no_decay:
                    p -= eff_lr * cfg.weight_decay * p
            else:
                mu = cfg.momentum
                buf = self._m.setdefault(name, np.zeros_like(p))
                buf *= mu
                buf += g
                p -= eff_lr * (g + mu * buf)
                if cfg.weight_decay and name not in self.no_decay:
                    p -= eff_lr * cfg.weight_decay * p


# -- reference (numpy) losses ---------------------------------------------------


def _metric_rows(diff: np.ndarray, metric: str) -> np.ndarray:
    if metric == "L1":
        return np.abs(diff).sum(axis=-1)
    return (diff * diff).sum(axis=-1)


def hidden_loss(meta_traj: np.ndarray, base_traj: np.ndarray, vmap: StateMap,
                metric: str = "L2_squared", normalize_by_dim: bool = False,
                residual: bool = False) -> float:
    """Time-mean distance between mapped meta hidden states and base hidden
    states. The residual family uses one map per block and averages over
    feature coordinates as well."""
    T = len(meta_traj)
    if len(base_traj) != T:
        raise TrainerError(f"trajectory length mismatch {T} vs {len(base_traj)}")
    if T < 1:
        raise TrainerError("empty trajectory")
    total = 0.0
    dim = base_traj[0].shape[-1]
    for t in range(T):
        block = t if residual else 0
        mapped = apply_state_map(vmap, meta_traj[t], block=block)
        total += _metric_rows(mapped - base_traj[t], metric)
    total /= T
    if residual or normalize_by_dim:
        total /= dim
    return float(total)


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def kl_from_logits(base_logits: np.ndarray, meta_logits: np.ndarray) -> np.ndarray:
    """Row-wise KL(softmax(base) || softmax(meta))."""
    p = _softmax(base_logits)
    zb = base_logits - base_logits.max(axis=-1, keepdims=True)
    lp = zb - np.log(np.exp(zb).sum(axis=-1, keepdims=True))
    zm = meta_logits - meta_logits.max(axis=-1, keepdims=True)
    lq = zm - np.log(np.exp(zm).sum(axis=-1, keepdims=True))
    return (p * (lp - lq)).sum(axis=-1)


def output_loss(meta_outputs: np.ndarray, base_outputs: np.ndarray,
                divergence: str = "KL_on_softmax") -> float:
    """Time-mean divergence between per-step meta and base outputs."""
    T = len(meta_outputs)
    if len(base_outputs) != T:
        raise TrainerError("output trajectory length mismatch")
    mo, bo = np.asarray(meta_outputs), np.asarray(base_outputs)
    if mo.shape != bo.shape:
        raise TrainerError(
            f"output shape mismatch {mo.shape} vs {bo.shape}; check that the "
            "meta readout head matches the base model's task group")
    if divergence == "KL_on_softmax":
        return float(kl_from_logits(bo, mo).mean())
    return float(((mo - bo) ** 2).sum(axis=-1).mean())


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
    theta_rows = None
    if is_meta:
        theta = g.leaf("theta", (1, model.embed_dim))
        theta_rows = g.matmul(g.const(np.ones((B, 1))), theta)
    hs = list(unroll_graph(g, model, refs, T, B, theta_rows))
    if model.cell_kind == "residual_mlp":
        h_last = hs[-1]
    else:
        h_last = g.gather_rows(g.stack(hs), g.leaf("last", (B,), param=False))
    logits = g.add(g.matmul(h_last, refs[w_name]), refs[b_name])
    onehot = g.leaf("labels", g.shape(logits), param=False)
    g.output(g.reduce_mean(g.softmax_log_loss(logits, onehot)))
    return g


def _input_bindings(inputs: np.ndarray, lengths: np.ndarray | None) -> dict:
    """Bindings of `unroll_graph`'s input leaves for one `model_inputs` batch."""
    if lengths is None:
        return {"feat": inputs}
    return {f"x{t}": ids for t, ids in enumerate(inputs.T.astype(np.float64))}


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
                 target: str, shape: tuple[int, int]) -> int:
    """Per-row hidden metric between the mapped states `h` and the leaf `target`."""
    v_w, v_b = vmap
    diff = g.sub(g.add(g.matmul(h, v_w), v_b), g.leaf(target, shape, param=False))
    return g.l1(diff, axis=1) if cfg.hidden_metric == "L1" else g.squared_l2(diff, axis=1)


def _emulation_loss_graph(meta: MetaModel, cfg: TrainConfig, T: int, B: int,
                          base_hidden: int, task_group: int) -> Graph:
    """Joint loss of the meta model at one embedding against one base batch:
    mapped hidden-state distance plus `lam` times the output divergence.

    Recurrent bases: both terms are built once over the T * B stacked states
    (row t * B + b is step t of sequence b) and weighted per row by the
    leaves `wh`/`wo` (masked per-sequence time means), against the base's
    stacked states `hb` and softmax `pb` (KL) or logits `ob`. Residual bases
    use one state map per block, compare unmapped block features before the
    last block, and compare head outputs after it.
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
    theta_rows = g.matmul(g.const(np.ones((B, 1))), theta)
    states = unroll_graph(g, meta, refs, T, B, theta_rows)
    C = meta.head_dims[task_group]
    kl = cfg.output_divergence == "KL_on_softmax"
    if residual:
        nb = meta.num_blocks
        whid = 1.0 / (B * nb * base_hidden)
        hidden_terms, out_terms = [], []
        for t, h in enumerate(states):
            rows = _hidden_rows(g, cfg, h, maps[t], f"hb{t}", (B, base_hidden))
            hidden_terms.append(g.affine(g.reduce_sum(rows), whid))
            if t < nb - 1:
                # feature stream: unmapped per-coordinate squared distance
                fd = g.sub(h, g.leaf(f"fb{t}", (B, base_hidden), param=False))
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
        hs = g.stack(states)
        TB = T * B
        rows = _hidden_rows(g, cfg, hs, maps[0], "hb", (TB, base_hidden))
        hidden_total = g.reduce_sum(g.mul(rows, g.leaf("wh", (TB,), param=False)))
        logits = g.add(g.matmul(hs, refs[w_name]), refs[b_name])
        wo = g.leaf("wo", (TB,), param=False)
        if kl:
            pb = g.leaf("pb", (TB, C), param=False)
            ce = g.affine(g.reduce_sum(g.mul(g.log_softmax(logits), pb), axis=1), -1.0)
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


def meta_emulation_losses(meta: MetaModel, base: BaseModel, vmap: StateMap,
                          theta: np.ndarray, inputs, cfg: TrainConfig
                          ) -> tuple[float, float, float]:
    """Reference evaluation of (hidden, output, total) losses for one batch of
    token sequences (or residual feature rows), computed with plain rollouts
    rather than the training graph."""
    residual = base.cell_kind == "residual_mlp"
    if residual:
        x, lengths = np.asarray(inputs, dtype=np.float64), None
    else:
        x, lengths = models.pad_tokens(inputs)
    hs_b, out_b = rollout_batch(base, x, lengths=lengths)
    hs_m, out_m = rollout_batch(meta, x, theta=theta, task_group=base.task_group,
                                lengths=lengths)
    htot = otot = 0.0
    for b in range(len(x)):
        T = base.num_blocks if residual else lengths[b]
        htot += hidden_loss(hs_m[:T, b], hs_b[:T, b], vmap, cfg.hidden_metric,
                            normalize_by_dim=cfg.normalize_hidden_by_dim,
                            residual=residual)
        if residual:
            d = hs_m[:-1, b] - hs_b[:-1, b]
            last = output_loss(out_m[-1:, b], out_b[-1:, b], cfg.output_divergence)
            otot += (float((d * d).sum()) / base.hidden_dim + last) / T
        else:
            otot += output_loss(out_m[:T, b], out_b[:T, b], cfg.output_divergence)
    htot /= len(x)
    otot /= len(x)
    return htot, otot, htot + cfg.lam * otot


# -- base-model training ---------------------------------------------------------


def model_accuracy(model: BaseModel, ds: SequenceDataset, split: str = "test") -> float:
    idxs = ds.indices(split)
    if not idxs:
        raise TrainerError(f"empty split {split!r}")
    inputs, lengths = models.model_inputs(model, ds, idxs)
    logits = final_logits(model, inputs, lengths=lengths)
    return float((logits.argmax(axis=1) == ds.subset(idxs)[1]).mean())


def train_base(model: BaseModel, ds: SequenceDataset, cfg: TrainConfig,
               subfraction: float = 1.0) -> tuple[BaseModel, list[float]]:
    """Minibatch training of one base model on its base_train share (optionally
    a leading sub-fraction of it). Returns the model and per-epoch test accuracy."""
    cfg.validate()
    idxs = ds.base_train_subset(subfraction)
    if len(ds.indices("base_train")) == 0:
        raise TrainerError("dataset has no base_train split")
    if not idxs:
        raise TrainerError("base_train sub-fraction selected zero examples")
    rng = np.random.default_rng(cfg.seed)
    opt = Optimizer(dict(model.params), cfg)
    cache = GraphCache(lambda T, B: task_loss_graph(model, T, B))
    inputs, lengths = models.model_inputs(model, ds, idxs)
    labels = ds.subset(idxs)[1]
    n_batches = int(np.ceil(len(idxs) / cfg.batch_size))
    total_steps = max(1, cfg.epochs * n_batches)
    acc_curve: list[float] = []
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
        acc_curve.append(model_accuracy(model, ds))
    return model, acc_curve


# -- meta training (the joint loop) ----------------------------------------------


@dataclass
class MetaTrainState:
    meta: MetaModel
    state_maps: list[StateMap]
    embeddings: np.ndarray  # (N, d), row n is theta_n
    step: int = 0
    history: list[tuple[int, int, float, float, float]] = field(default_factory=list)
    base_ids: list[str] = field(default_factory=list)


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
    ids = [b.info.get("model_id", f"base_{i}") for i, b in enumerate(bases)]
    return MetaTrainState(meta, maps, thetas, base_ids=ids)


class MetaTrainer:
    """Holds the graph cache and parameter handles for one joint run."""

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
        self.pools = [models.model_inputs(b, ds, ds.indices("meta_unlabeled"))
                      for b, ds in zip(bases, datasets)]
        handles: dict[str, np.ndarray] = dict(state.meta.params)
        no_decay = set()
        for i, vm in enumerate(state.state_maps):
            for t in range(len(vm.weights)):
                handles[f"v{i}_w{t}"] = vm.weights[t]
                handles[f"v{i}_b{t}"] = vm.biases[t]
        for i in range(len(bases)):
            handles[f"theta{i}"] = state.embeddings[i]
            no_decay.add(f"theta{i}")
        self.opt = Optimizer(handles, cfg, no_decay=no_decay)

    def bindings(self, i: int, inputs: np.ndarray,
                 lengths: np.ndarray | None) -> tuple[Graph, dict]:
        """The joint-loss graph for base i on one `model_inputs` batch, bound
        to the current parameters and to the base's own rollout."""
        base = self.bases[i]
        cfg = self.cfg
        meta = self.state.meta
        tg = base.task_group
        B = len(inputs)
        T = 0 if lengths is None else inputs.shape[1]
        g = self.cache.get(T, B, base.hidden_dim, tg)
        hs_b, logits_b = rollout_batch(base, inputs)
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
                if t < nb - 1:
                    bindings[f"fb{t}"] = hs_b[t]
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

    def run(self, steps: int | None = None) -> MetaTrainState:
        cfg = self.cfg
        total = cfg.max_steps if steps is None else steps
        N = len(self.bases)
        for tau in range(total):
            i = int(self.rng.integers(0, N))
            inputs, lengths = self.pools[i]
            n = len(inputs)
            rows = self.rng.choice(n, size=min(cfg.batch_size, n),
                                   replace=n < cfg.batch_size)
            g, bindings = self.bindings(i, *_take(inputs, lengths, rows))
            total_loss_val = float(g.forward(bindings))
            hid = float(g.value("hidden_loss"))
            out = float(g.value("output_loss"))
            grads_graph = g.backward()
            name_map = self._grad_names(i, self.bases[i].task_group)
            grads = {handle: grads_graph[leaf] for leaf, handle in name_map.items()}
            lr = cfg.lr * lr_multiplier(cfg, self.state.step, cfg.max_steps or total)
            theta_lr = None
            if cfg.theta_lr is not None:
                theta_lr = cfg.theta_lr * lr_multiplier(cfg, self.state.step,
                                                        cfg.max_steps or total)
            self.opt.step(grads, lr, theta_lr=theta_lr)
            self.state.history.append((self.state.step, i, hid, out, total_loss_val))
            self.state.step += 1
        return self.state


def train_meta(bases: list[BaseModel], datasets: list[SequenceDataset],
               cfg: TrainConfig, meta_cfg: dict | None = None) -> MetaTrainState:
    """Joint training of the meta model, state maps, and embeddings."""
    state = init_meta_state(bases, meta_cfg or {}, seed=cfg.seed)
    trainer = MetaTrainer(state, bases, datasets, cfg)
    return trainer.run()


def export_loss_history(history, path, comment: str | None = None) -> None:
    rows = [[str(step), str(mid), f"{hid:.10g}", f"{out:.10g}", f"{tot:.10g}"]
            for step, mid, hid, out, tot in history]
    write_csv(path, ["step", "model_id", "hidden_loss", "output_loss", "total_loss"],
              rows, comment)


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
