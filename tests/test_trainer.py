import itertools
import weakref
from collections import Counter
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynamo import models
from dynamo import trainer as trainer_module
from dynamo.models import (
    init_base_model,
    init_meta_model,
    model_inputs,
    pad_tokens,
)
from dynamo.numgrad import NumericError, grad_check
from dynamo.tasks import TaskSpec, gen_valence_task, split_dataset
from dynamo.trainer import (
    HIDDEN_METRICS,
    OPTIMIZERS,
    OUTPUT_DIVERGENCES,
    MetaTrainer,
    Optimizer,
    TrainConfig,
    TrainerError,
    init_meta_state,
    lr_multiplier,
    model_accuracy,
    task_batch,
    task_loss_graph,
    _emulation_loss_graph,
    _softmax,
    train_base,
    train_meta,
)


# -- numpy reference of the emulation loss --------------------------------------
#
# The oracle the training graph (`trainer._emulation_loss_graph`) is checked
# against: the same objective written with plain per-sequence rollouts.


def _metric_rows(diff: np.ndarray, metric: str) -> np.ndarray:
    if metric == "L1":
        return np.abs(diff).sum(axis=-1)
    return (diff * diff).sum(axis=-1)


def hidden_loss(meta_traj: np.ndarray, base_traj: np.ndarray, vmap: dict,
                metric: str = "L2_squared", normalize_by_dim: bool = False,
                residual: bool = False) -> float:
    """Time-mean distance between mapped meta hidden states and base hidden
    states. The residual family uses one map per block."""
    T = len(meta_traj)
    if len(base_traj) != T:
        raise TrainerError(f"trajectory length mismatch {T} vs {len(base_traj)}")
    total = 0.0
    dim = base_traj[0].shape[-1]
    for t in range(T):
        block = t if residual else 0
        mapped = meta_traj[t] @ vmap[f"w{block}"] + vmap[f"b{block}"]
        total += _metric_rows(mapped - base_traj[t], metric)
    total /= T
    if normalize_by_dim:
        total /= dim
    return float(total)


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
    mo, bo = np.asarray(meta_outputs), np.asarray(base_outputs)
    if mo.shape != bo.shape:
        raise TrainerError(f"output shape mismatch {mo.shape} vs {bo.shape}")
    if divergence == "KL_on_softmax":
        return float(kl_from_logits(bo, mo).mean())
    return float(((mo - bo) ** 2).sum(axis=-1).mean())


def meta_emulation_losses(meta, base, vmap: dict, theta: np.ndarray, inputs,
                          cfg: TrainConfig) -> tuple[float, float, float]:
    """(hidden, output, total) losses for one batch of token sequences (or
    residual feature rows), from plain rollouts rather than the graph."""
    residual = base.cell_kind == "residual_mlp"
    if residual:
        x, lengths = np.asarray(inputs, dtype=np.float64), None
    else:
        x, lengths = pad_tokens(inputs)
    hs_b, out_b = models.rollout_batch(base, x, lengths=lengths)
    hs_m, out_m = models.rollout_batch(meta, x, theta=theta, task_group=base.task_group,
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


# -- per-parameter reference of the optimizer ---------------------------------------
#
# The oracle `trainer.Optimizer` is checked against bitwise: Adam with decoupled
# weight decay and Nesterov SGD written one array at a time, each array with
# its own moments and bias-correction count.


class ReferenceOptimizer:
    def __init__(self, handles: dict[str, np.ndarray], cfg: TrainConfig,
                 no_decay: set[str] = frozenset()):
        self.handles = handles
        self.cfg = cfg
        self.no_decay = set(no_decay)
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t: dict[str, int] = {}

    def step(self, grads: dict[str, np.ndarray], lr: float) -> None:
        cfg = self.cfg
        for name, g in grads.items():
            p = self.handles[name]
            g = g.reshape(p.shape)
            if cfg.optimizer == "adam_decoupled_wd":
                b1, b2 = trainer_module.ADAM_BETAS
                if name not in self._m:
                    self._m[name] = np.zeros_like(p)
                    self._v[name] = np.zeros_like(p)
                m, v = self._m[name], self._v[name]
                t = self._t.get(name, 0) + 1
                self._t[name] = t
                m *= b1
                m += (1 - b1) * g
                v *= b2
                v += (1 - b2) * (g * g)
                mhat = m / (1 - b1 ** t)
                vhat = v / (1 - b2 ** t)
                p -= lr * mhat / (np.sqrt(vhat) + trainer_module.ADAM_EPS)
            else:
                mu = cfg.momentum
                if name not in self._m:
                    self._m[name] = np.zeros_like(p)
                buf = self._m[name]
                buf *= mu
                buf += g
                p -= lr * (g + mu * buf)
            if cfg.weight_decay and name not in self.no_decay:
                p -= lr * cfg.weight_decay * p


def _tiny_dataset(n=60, seed=3, noise=0.0):
    spec = TaskSpec("valence_sentiment", vocab_size=12, num_classes=2,
                    t_min=3, t_max=6, noise_rate=noise, seed=seed, num_sequences=n)
    ds = gen_valence_task(spec)
    return split_dataset(ds, (0.4, 0.4, 0.05), seed=seed)


def _tiny_setup(lam=1.0, divergence="KL_on_softmax", metric="L2_squared",
                n_bases=1, seed=0):
    ds = _tiny_dataset()
    bases = [init_base_model("gru", 12, 3, 3, 2, 0, seed=10 + i)
             for i in range(n_bases)]
    cfg = TrainConfig(lr=1e-3, max_steps=0, batch_size=2, lam=lam,
                      hidden_metric=metric, output_divergence=divergence,
                      weight_decay=0.0, seed=seed)
    state = init_meta_state(bases, {"hidden_dim": 4, "embed_dim": 2, "input_dim": 3},
                            seed=seed)
    trainer = MetaTrainer(state, bases, [ds] * n_bases, cfg)
    return trainer, ds, bases


def _bind(trainer, inputs, lengths):
    """Base 0's joint-loss graph and bindings on one batch, rolled out alone."""
    return trainer.bindings(0, inputs, lengths,
                            models.rollout_batch(trainer.bases[0], inputs))


# -- losses -----------------------------------------------------------------


def test_hidden_loss_identity_map_identical_trajectories():
    traj = np.random.default_rng(0).standard_normal((4, 3))
    v = {"w0": np.eye(3), "b0": np.zeros(3)}
    assert hidden_loss(traj, traj, v) == pytest.approx(0.0)


def test_hidden_loss_hand_values():
    v = {"w0": 2.0 * np.eye(2), "b0": np.zeros(2)}
    meta_traj = np.array([[1.0, 0.0]])
    base_traj = np.array([[1.0, 1.0]])
    assert hidden_loss(meta_traj, base_traj, v, "L2_squared") == pytest.approx(2.0)
    assert hidden_loss(meta_traj, base_traj, v, "L1") == pytest.approx(2.0)


def test_hidden_loss_length_mismatch():
    v = {"w0": np.eye(2), "b0": np.zeros(2)}
    with pytest.raises(TrainerError):
        hidden_loss(np.zeros((3, 2)), np.zeros((2, 2)), v)


def test_output_loss_identical_streams():
    logits = np.random.default_rng(1).standard_normal((5, 3))
    assert output_loss(logits, logits, "KL_on_softmax") == pytest.approx(0.0)
    assert output_loss(logits, logits, "squared_L2_on_logits") == pytest.approx(0.0)


def test_output_loss_kl_hand_value():
    meta = np.array([[0.0, 0.0]])
    base = np.array([[np.log(3.0), 0.0]])
    got = output_loss(meta, base, "KL_on_softmax")
    want = 0.75 * np.log(1.5) + 0.25 * np.log(0.5)
    assert got == pytest.approx(want)
    assert abs(got - 0.1308) < 1e-4


def test_output_loss_l2_mean_over_time():
    meta = np.array([[1.0, 0.0], [np.sqrt(3.0), 0.0]])
    base = np.zeros((2, 2))
    assert output_loss(meta, base, "squared_L2_on_logits") == pytest.approx(2.0)


def test_output_loss_head_mismatch_error():
    with pytest.raises(TrainerError):
        output_loss(np.zeros((2, 3)), np.zeros((2, 4)))


def test_total_loss_composition():
    trainer, ds, bases = _tiny_setup(lam=1.0)
    seqs = [ds.sequences[i] for i in ds.indices("meta_unlabeled")[:3]]
    h, o, tot = meta_emulation_losses(trainer.state.meta, bases[0],
                                      trainer.state.state_maps[0],
                                      trainer.state.embeddings[0], seqs, trainer.cfg)
    assert tot == pytest.approx(h + o)
    cfg0 = TrainConfig(lam=0.0, weight_decay=0.0)
    h0, o0, tot0 = meta_emulation_losses(trainer.state.meta, bases[0],
                                         trainer.state.state_maps[0],
                                         trainer.state.embeddings[0], seqs, cfg0)
    assert tot0 == pytest.approx(h0)


def test_perfect_emulation_gives_zero_loss():
    ds = _tiny_dataset()
    base = init_base_model("gru", 12, 3, 4, 2, 0, seed=5)
    meta = init_meta_model("gru", 12, 3, 4, 2, {0: 2}, seed=6)
    # same cell with zero rows for the embedding block of each gate matrix
    meta.params["embed"] = base.params["embed"].copy()
    for gate in "zrh":
        w = np.zeros((2 + 3 + 4, 4))
        w[2:] = base.params[f"w_{gate}"]
        meta.params[f"w_{gate}"] = w
        meta.params[f"b_{gate}"] = base.params[f"b_{gate}"].copy()
    meta.params["head0_w"] = base.params["w_out"].copy()
    meta.params["head0_b"] = base.params["b_out"].copy()
    v = {"w0": np.eye(4), "b0": np.zeros(4)}
    seqs = [ds.sequences[i] for i in ds.indices("meta_unlabeled")[:4]]
    cfg = TrainConfig(weight_decay=0.0, normalize_hidden_by_dim=False)
    h, o, tot = meta_emulation_losses(meta, base, v, np.zeros(2), seqs, cfg)
    assert tot == pytest.approx(0.0, abs=1e-12)
    # the training graph, the only emulation loss in the package, agrees
    state = init_meta_state([base], {"hidden_dim": 4, "embed_dim": 2, "input_dim": 3},
                            seed=0)
    state.meta, state.state_maps[0] = meta, v
    trainer = MetaTrainer(state, [base], [ds], cfg)
    g, bindings = _bind(trainer, *pad_tokens(seqs))
    assert float(g.forward(bindings)) == pytest.approx(0.0, abs=1e-12)


# -- graph against reference --------------------------------------------------


@pytest.mark.parametrize("divergence", ["KL_on_softmax", "squared_L2_on_logits"])
@pytest.mark.parametrize("metric", ["L2_squared", "L1"])
def test_graph_loss_matches_reference(divergence, metric):
    trainer, ds, bases = _tiny_setup(divergence=divergence, metric=metric)
    pool = ds.indices("meta_unlabeled")
    seqs = [ds.sequences[i] for i in pool[:3]]
    g, bindings = _bind(trainer, *pad_tokens(seqs))
    tot_graph = float(g.forward(bindings))
    h_graph = float(g.value("hidden_loss"))
    o_graph = float(g.value("output_loss"))
    h, o, tot = meta_emulation_losses(trainer.state.meta, bases[0],
                                      trainer.state.state_maps[0],
                                      trainer.state.embeddings[0], seqs, trainer.cfg)
    assert h_graph == pytest.approx(h, abs=1e-10)
    assert o_graph == pytest.approx(o, abs=1e-10)
    assert tot_graph == pytest.approx(tot, abs=1e-10)


@pytest.mark.parametrize("metric", ["L2_squared", "L1"])
def test_joint_loss_gradients_pass_grad_check(metric):
    trainer, ds, _ = _tiny_setup(metric=metric)
    seqs = [ds.sequences[i] for i in ds.indices("meta_unlabeled")[:2]]
    g, bindings = _bind(trainer, *pad_tokens(seqs))
    assert grad_check(g, bindings, 1e-5) < 1e-4


@pytest.mark.parametrize("metric,divergence,normalize", list(itertools.product(
    HIDDEN_METRICS, OUTPUT_DIVERGENCES, (True, False))))
def test_residual_graph_loss_matches_reference(metric, divergence, normalize):
    ds = _tiny_dataset()
    bases = [init_base_model("residual_mlp", 12, 12, 5, 2, 0, seed=3, num_blocks=3)]
    cfg = TrainConfig(batch_size=3, weight_decay=0.0, seed=0, hidden_metric=metric,
                      output_divergence=divergence, normalize_hidden_by_dim=normalize)
    state = init_meta_state(bases, {"embed_dim": 2}, seed=1)
    trainer = MetaTrainer(state, bases, [ds], cfg)
    feats = trainer.pools[0][0][:3]
    g, bindings = _bind(trainer, feats, None)
    tot_graph = float(g.forward(bindings))
    h, o, tot = meta_emulation_losses(state.meta, bases[0], state.state_maps[0],
                                      state.embeddings[0], list(feats), cfg)
    assert float(g.value("hidden_loss")) == pytest.approx(h, abs=1e-10)
    assert float(g.value("output_loss")) == pytest.approx(o, abs=1e-10)
    assert tot_graph == pytest.approx(tot, abs=1e-10)
    assert grad_check(g, bindings, 1e-5) < 1e-4


def test_emulation_graph_node_budget_per_step():
    # the whole unroll is one recurrence node over one token leaf, and the
    # loss terms are built once over its stacked states: no node per step
    meta = init_meta_model("gru", 30, 8, 32, 4, {0: 2}, seed=0)
    base = init_base_model("gru", 30, 8, 16, 2, 0, seed=1)
    emulation = {T: len(_emulation_loss_graph(meta, TrainConfig(), T, 16, 16, 0)._kinds)
                 for T in (8, 24)}
    task = {T: len(task_loss_graph(base, T, 32)._kinds) for T in (8, 24)}
    # base training's stack adds the step-count leaf and the sum over models
    leaves = models.stacked_leaves("gru", {k: np.stack([v] * 4)
                                           for k, v in base.params.items()})
    stacked = {T: len(task_loss_graph(base, T, 32, leaves=leaves)._kinds) for T in (8, 24)}
    assert emulation[8] == emulation[24] == 39
    assert task[8] == task[24] == 23
    assert stacked[8] == stacked[24] == 25


@pytest.mark.parametrize("kind", ["gru", "vanilla_rnn", "residual_mlp"])
def test_task_loss_graph_passes_grad_check(kind):
    ds = _tiny_dataset()
    idxs = ds.indices("base_train")[:3]
    labels = ds.subset(idxs)[1]
    width = 12 if kind == "residual_mlp" else 3
    # base training: every parameter is trainable
    base = init_base_model(kind, 12, width, 4, 2, 0, seed=1, num_blocks=2)
    g, bindings = task_batch(lambda T, B: task_loss_graph(base, T, B), base,
                             *model_inputs(base, ds, idxs), labels)
    assert grad_check(g, bindings, 1e-5) < 1e-4
    g.forward(bindings)
    assert set(g.backward()) == set(base.params)
    # embedding search: the meta parameters are frozen, theta alone is trainable
    meta = init_meta_model(kind, 12, width, 4, 2, {0: 3, 1: 2}, seed=2, num_blocks=2)
    g, bindings = task_batch(lambda T, B: task_loss_graph(meta, T, B, 1), meta,
                             *model_inputs(meta, ds, idxs), labels, 1)
    bindings["theta"] = np.random.default_rng(3).standard_normal((1, 2))
    assert grad_check(g, bindings, 1e-5) < 1e-4
    g.forward(bindings)
    assert set(g.backward()) == {"theta"}


# -- optimizer behaviour -------------------------------------------------------


def test_one_step_decreases_frozen_batch_loss():
    for seed in range(5):
        trainer, ds, _ = _tiny_setup(seed=seed)
        trainer.cfg.lr = 1e-5
        seqs = [ds.sequences[i] for i in ds.indices("meta_unlabeled")[:4]]
        g, bindings = _bind(trainer, *pad_tokens(seqs))
        before = float(g.forward(bindings))
        names = trainer.grad_names[0]
        grads = {names.get(leaf, leaf): grad for leaf, grad in g.backward().items()}
        trainer.opt.step(grads, 1e-5)
        g2, bindings2 = _bind(trainer, *pad_tokens(seqs))
        after = float(g2.forward(bindings2))
        assert after < before


def test_zero_steps_leaves_state_at_init():
    ds = _tiny_dataset()
    bases = [init_base_model("gru", 12, 3, 3, 2, 0, seed=10)]
    cfg = TrainConfig(max_steps=0, seed=0)
    state = train_meta(bases, [ds], cfg, {"hidden_dim": 4, "embed_dim": 2})
    ref = init_meta_state(bases, {"hidden_dim": 4, "embed_dim": 2}, seed=0)
    assert np.array_equal(state.embeddings, np.zeros_like(state.embeddings))
    for k in ref.meta.params:
        assert np.array_equal(state.meta.params[k], ref.meta.params[k])
    assert state.history == []


def test_update_locality_unsampled_models_untouched():
    # weight decay would move any map or embedding a step touched
    ds = _tiny_dataset()
    bases = [init_base_model("gru", 12, 3, 3, 2, 0, seed=10 + i) for i in range(6)]
    cfg = TrainConfig(max_steps=3, batch_size=2, weight_decay=0.1, seed=4)
    state = init_meta_state(bases, {"hidden_dim": 4, "embed_dim": 2}, seed=0)
    maps = [[a.copy() for a in vm.values()] for vm in state.state_maps]
    MetaTrainer(state, bases, [ds] * 6, cfg).run()
    sampled = {rec[1] for rec in state.history}
    assert len(sampled) < 6
    for i, vm in enumerate(state.state_maps):
        kept = [np.array_equal(a, b) for a, b in zip(vm.values(), maps[i])]
        if i in sampled:
            assert not kept[0] and np.any(state.embeddings[i] != 0)
        else:
            assert all(kept) and np.all(state.embeddings[i] == 0), i


def test_each_base_rolls_once_per_four_16_row_batches(monkeypatch):
    ds = _tiny_dataset(n=100)  # 40 meta_unlabeled sequences
    bases = [init_base_model(kind, 12, 3, 3, 2, 0, seed=10 + i)
             for i, kind in enumerate(["gru", "vanilla_rnn", "gru"])]
    cfg = TrainConfig(max_steps=40, batch_size=16, weight_decay=0.0, seed=2)
    state = init_meta_state(bases, {"hidden_dim": 4, "embed_dim": 2}, seed=0)
    built, emulation_loss_graph = [], trainer_module._emulation_loss_graph
    monkeypatch.setattr(trainer_module, "_emulation_loss_graph",
                        lambda *a: built.append(emulation_loss_graph(*a)) or built[-1])
    trainer = MetaTrainer(state, bases, [ds] * 3, cfg)
    calls, rollout_batch = [], trainer_module.rollout_batch

    def counted(model, inputs):
        calls.append((model, len(inputs)))
        return rollout_batch(model, inputs)

    monkeypatch.setattr(trainer_module, "rollout_batch", counted)
    trainer.run()
    steps = Counter(rec[1] for rec in state.history)
    for i, base in enumerate(bases):
        rows = [n for model, n in calls if model is base]
        assert len(rows) == -(-steps[i] // 4), i
        assert rows == [64] * (len(rows) - 1) + [16 * (steps[i] - 4 * (len(rows) - 1))]
    # every graph the run cached has given up its last forward pass
    assert built and trainer.graph.cache_info().currsize == len(built)
    for g in built:
        assert g._values is None and g._saved == {}


def test_rolled_lets_go_of_consumed_targets(monkeypatch):
    ds = _tiny_dataset(n=100)  # 40 meta_unlabeled sequences
    bases = [init_base_model("gru", 12, 3, 3, 2, 0, seed=10)]
    state = init_meta_state(bases, {"hidden_dim": 4, "embed_dim": 2}, seed=0)
    trainer = MetaTrainer(state, bases, [ds], TrainConfig(batch_size=16))
    rolled, rollout_batch = [], trainer_module.rollout_batch

    def recorded(model, inputs):
        out = rollout_batch(model, inputs)
        rolled.append([weakref.ref(a) for a in out])
        return out

    monkeypatch.setattr(trainer_module, "rollout_batch", recorded)
    rng = np.random.default_rng(0)
    targets = trainer._rolled(0, [rng.choice(40, 16, replace=False) for _ in range(6)])
    used = [weakref.ref(a) for _ in range(3) for a in next(targets)]
    # one 64-row rollout, split into four batches and dropped; three are used
    assert len(rolled) == 1 and all(r() is None for r in rolled[0] + used)
    last = next(targets)  # the rollout's last batch
    assert all(r() is None for r in rolled[0])
    del last
    for _ in range(2):  # the second rollout: two batches
        used = [weakref.ref(a) for a in next(targets)]
        assert all(r() is None for r in used)
    assert len(rolled) == 2 and all(r() is None for r in rolled[1])


def test_meta_training_memory_grows_only_by_per_base_state(traced_peak):
    # 64-row batches: each rollout is one batch, used by the step that draws
    # it, so a base adds only its state: its parameters, its state map and
    # embedding, and the optimizer's three rows of those (values, moments)
    spec = TaskSpec("valence_sentiment", vocab_size=12, num_classes=2, t_min=20,
                    t_max=30, noise_rate=0.0, seed=3, num_sequences=200)
    ds = split_dataset(gen_valence_task(spec), (0.4, 0.4, 0.05), seed=3)
    cfg = TrainConfig(max_steps=60, batch_size=64, weight_decay=0.0, seed=2)

    def peak(n):
        bases = [init_base_model("gru", 12, 3, 16, 2, 0, seed=10 + i) for i in range(n)]
        out = {}
        used = traced_peak(lambda: out.update(state=train_meta(
            bases, [ds] * n, cfg, {"hidden_dim": 16, "embed_dim": 2})))
        state = out["state"]
        assert {rec[1] for rec in state.history} == set(range(n))
        vm = state.state_maps[-1]
        fitted = sum(a.nbytes for a in vm.values()) + state.embeddings[-1].nbytes
        return used, sum(a.nbytes for a in bases[-1].params.values()) + 4 * fitted

    small, _ = peak(2)
    large, per_base = peak(10)
    assert large - small <= 8 * per_base, (large - small, per_base)


def test_lambda_zero_heads_get_zero_gradient():
    trainer, ds, _ = _tiny_setup(lam=0.0)
    seqs = [ds.sequences[i] for i in ds.indices("meta_unlabeled")[:3]]
    g, bindings = _bind(trainer, *pad_tokens(seqs))
    g.forward(bindings)
    grads = g.backward()
    assert "head0_w" not in grads and "head0_b" not in grads
    assert "w_z" in grads and "theta" in grads
    # weight decay would move any head a step touched
    trainer.cfg.max_steps, trainer.cfg.weight_decay = 4, 0.1
    params = trainer.state.meta.params
    before = {k: v.copy() for k, v in params.items()}
    trainer.run()
    for k, v in params.items():
        if k.startswith("head"):
            assert v.tobytes() == before[k].tobytes(), k
    assert not np.array_equal(params["w_z"], before["w_z"])


def test_two_task_groups_use_matching_heads():
    ds = _tiny_dataset()
    b0 = init_base_model("gru", 12, 3, 3, 2, 0, seed=1)
    b1 = init_base_model("gru", 12, 3, 3, 4, 1, seed=2)
    cfg = TrainConfig(max_steps=6, batch_size=2, seed=0)
    state = train_meta([b0, b1], [ds, ds], cfg, {"hidden_dim": 4, "embed_dim": 2})
    assert set(state.meta.head_dims) == {0, 1}
    assert state.meta.params["head0_w"].shape == (4, 2)
    assert state.meta.params["head1_w"].shape == (4, 4)
    groups = {rec[1] for rec in state.history}
    assert groups <= {0, 1}


def test_meta_requires_unlabeled_split():
    ds = _tiny_dataset()
    ds.splits["meta_unlabeled"] = []
    bases = [init_base_model("gru", 12, 3, 3, 2, 0, seed=1)]
    with pytest.raises(TrainerError):
        train_meta(bases, [ds], TrainConfig(max_steps=1))


def test_meta_rejects_mismatched_vocab():
    ds = _tiny_dataset()
    b0 = init_base_model("gru", 12, 3, 3, 2, 0, seed=1)
    b1 = init_base_model("gru", 13, 3, 3, 2, 0, seed=2)
    with pytest.raises(TrainerError):
        train_meta([b0, b1], [ds, ds], TrainConfig(max_steps=1))


def test_meta_training_is_deterministic():
    ds = _tiny_dataset()
    bases = [init_base_model("gru", 12, 3, 3, 2, 0, seed=10)]
    cfg = dict(max_steps=8, batch_size=2, seed=9)
    s1 = train_meta(bases, [ds], TrainConfig(**cfg), {"hidden_dim": 4, "embed_dim": 2})
    bases2 = [init_base_model("gru", 12, 3, 3, 2, 0, seed=10)]
    s2 = train_meta(bases2, [ds], TrainConfig(**cfg), {"hidden_dim": 4, "embed_dim": 2})
    assert np.array_equal(s1.embeddings, s2.embeddings)
    assert s1.history == s2.history
    for k in s1.meta.params:
        assert np.array_equal(s1.meta.params[k], s2.meta.params[k])


# -- base training ---------------------------------------------------------------


def test_train_base_zero_epochs_is_noop():
    ds = _tiny_dataset()
    model = init_base_model("gru", 12, 3, 4, 2, 0, seed=2)
    before = {k: v.copy() for k, v in model.params.items()}
    train_base([model], ds, TrainConfig(epochs=0), [0])
    for k, v in before.items():
        assert np.array_equal(model.params[k], v)


def test_train_base_learns_tiny_valence():
    ds = _tiny_dataset(n=200, seed=8)
    model = init_base_model("gru", 12, 4, 8, 2, 0, seed=2)
    train_base([model], ds, TrainConfig(epochs=8, lr=5e-3, batch_size=8,
                                        weight_decay=0.0), [0])
    assert model_accuracy(model, ds) > 0.7


def test_train_base_empty_split_errors():
    ds = _tiny_dataset()
    ds.splits["base_train"] = []
    model = init_base_model("gru", 12, 3, 4, 2, 0, seed=2)
    with pytest.raises(TrainerError):
        train_base([model], ds, TrainConfig(epochs=1), [0])


def test_train_base_residual_runs():
    ds = _tiny_dataset(n=120, seed=9)
    model = init_base_model("residual_mlp", 12, 12, 6, 2, 0, seed=2, num_blocks=2)
    train_base([model], ds, TrainConfig(epochs=6, lr=5e-3, batch_size=8,
                                        weight_decay=0.0), [0])
    assert model_accuracy(model, ds) > 0.6


def test_train_base_deterministic():
    ds = _tiny_dataset(n=100, seed=4)
    cfg = dict(epochs=2, lr=1e-3, batch_size=8)
    m1 = init_base_model("gru", 12, 3, 4, 2, 0, seed=2)
    m2 = init_base_model("gru", 12, 3, 4, 2, 0, seed=2)
    train_base([m1], ds, TrainConfig(**cfg), [3])
    train_base([m2], ds, TrainConfig(**cfg), [3])
    for k in m1.params:
        assert np.array_equal(m1.params[k], m2.params[k])


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
@pytest.mark.parametrize("kind", ["gru", "vanilla_rnn", "residual_mlp"])
def test_lockstep_training_equals_training_alone(kind, optimizer, monkeypatch):
    # an entry of 3 bases trained in lockstep leaves every parameter of every
    # base bitwise where training it alone leaves it, while the models'
    # batches end at different longest rows. The sizes make padding visible:
    # past about 768 rows (T * B here reaches 1,120) BLAS splits a product's
    # sum by its row count, so a product over padded rows would round apart.
    spec = TaskSpec("valence_sentiment", vocab_size=30, num_classes=2, t_min=30,
                    t_max=70, noise_rate=0.05, seed=3, num_sequences=120)
    ds = split_dataset(gen_valence_task(spec), (0.4, 0.4, 0.05), seed=3)
    width = 30 if kind == "residual_mlp" else 40
    cfg = TrainConfig(optimizer=optimizer, epochs=2, lr=0.03, batch_size=16,
                      weight_decay=1e-3)
    seeds = [11, 12, 13]

    def entry():
        return [init_base_model(kind, 30, width, 32, 2, 0, seed=s, num_blocks=2)
                for s in seeds]

    steps = []
    task_batch = trainer_module.task_batch

    def spy(*args, **kwargs):
        g, bindings = task_batch(*args, **kwargs)
        steps.append(tuple(bindings.get("steps", ())))
        return g, bindings

    monkeypatch.setattr(trainer_module, "task_batch", spy)
    together = train_base(entry(), ds, cfg, seeds)
    if kind != "residual_mlp":
        assert sum(len(set(t)) > 1 for t in steps) > len(steps) // 2  # most steps pad
    for i, alone in enumerate(entry()):
        train_base([alone], ds, cfg, [seeds[i]])
        for name, value in alone.params.items():
            assert together[i].params[name].tobytes() == value.tobytes(), (i, name)


@pytest.mark.parametrize("kind", ["gru", "vanilla_rnn", "residual_mlp"])
def test_stacked_task_loss_graph_passes_grad_check(kind):
    ds = _tiny_dataset()
    idxs = np.array(ds.indices("base_train")[:6])
    width = 12 if kind == "residual_mlp" else 3
    bases = [init_base_model(kind, 12, width, 3, 2, 0, seed=s, num_blocks=2)
             for s in (1, 2)]
    stacked = {k: np.stack([b.params[k] + 0.1 for b in bases]) for k in bases[0].params}
    leaves = models.stacked_leaves(kind, stacked)
    inputs, lengths = model_inputs(bases[0], ds, idxs)
    rows = np.array([[0, 1, 2], [3, 4, 5]])
    g, bindings = task_batch(lambda T, B: task_loss_graph(bases[0], T, B, leaves=leaves),
                             bases[0], *trainer_module._take(inputs, lengths, rows),
                             ds.subset(idxs)[1][rows], leaves=leaves)
    if kind != "residual_mlp":
        assert bindings["steps"][0] != bindings["steps"][1]
    assert grad_check(g, bindings, 1e-5) < 1e-4
    g.forward(bindings)
    assert {k: v.shape for k, v in g.backward().items()} == {k: v.shape
                                                             for k, v in leaves.items()}


# -- misc -------------------------------------------------------------------------


def test_lr_multiplier_schedule():
    cfg = TrainConfig(cosine_freq=7 / 32)
    assert lr_multiplier(cfg, 0, 100) == pytest.approx(1.0)
    end = lr_multiplier(cfg, 100, 100)
    assert 0.0 < end < 1.0
    # cosine_freq 0 is a constant learning rate, exactly
    cfg_off = TrainConfig(cosine_freq=0.0)
    assert all(lr_multiplier(cfg_off, step, 100) == 1.0 for step in range(101))


_SHAPES = st.lists(st.integers(1, 5), max_size=2).map(tuple)


@settings(max_examples=60, deadline=None)
@given(optimizer=st.sampled_from(OPTIMIZERS), weight_decay=st.sampled_from([0.0, 0.05]),
       layout=st.lists(st.lists(_SHAPES, min_size=1, max_size=3), min_size=1, max_size=4),
       width=st.sampled_from([1, 3, 7, trainer_module.STEP_COLUMNS]), data=st.data())
def test_grouped_optimizer_matches_per_parameter_reference_bitwise(
        optimizer, weight_decay, layout, width, data):
    # narrow blocks split parameters and groups; the block width changes no bit
    with mock.patch.object(trainer_module, "STEP_COLUMNS", width):
        _check_grouped_optimizer(optimizer, weight_decay, layout, width, data)


def _check_grouped_optimizer(optimizer, weight_decay, layout, width, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16), label="seed"))
    groups = {f"g{k}": {f"g{k}p{j}": rng.standard_normal(shape)
                        for j, shape in enumerate(shapes)}
              for k, shapes in enumerate(layout)}
    no_decay = set(data.draw(st.lists(st.sampled_from(sorted(groups)), unique=True),
                             label="no_decay"))
    cfg = TrainConfig(optimizer=optimizer, weight_decay=weight_decay)
    ref = ReferenceOptimizer(
        {name: arr.copy() for params in groups.values() for name, arr in params.items()},
        cfg, {name for k in no_decay for name in groups[k]})
    opt = Optimizer(groups, cfg, no_decay=no_decay)
    assert opt._scratch.shape[1] <= width
    schedule = data.draw(st.lists(st.lists(st.sampled_from(sorted(groups)), min_size=1,
                                           unique=True), min_size=1, max_size=6),
                         label="schedule")
    for stepped in schedule:
        grads = {name: rng.standard_normal(arr.shape)
                 for k in stepped for name, arr in groups[k].items()}
        lr = float(rng.uniform(1e-3, 0.5))
        opt.step(grads, lr)
        ref.step(grads, lr)
        for name, want in ref.handles.items():
            assert opt.params[name].tobytes() == want.tobytes(), name


def test_meta_trainer_binds_state_to_the_optimizer_buffer():
    trainer, ds, _ = _tiny_setup(n_bases=3)
    state, flat = trainer.state, trainer.opt.flat
    maps = [a for vm in state.state_maps for a in vm.values()]
    arrays = [*state.meta.params.values(), *maps, state.embeddings]
    assert all(np.shares_memory(a, flat) for a in arrays)
    assert state.embeddings.base is flat.base
    before = [a.copy() for a in arrays]
    trainer.cfg.max_steps = 1
    trainer.run()
    i = state.history[0][1]
    moved = [not np.array_equal(a, b) for a, b in zip(arrays, before)]
    assert moved[-1] and np.any(state.embeddings[i] != 0)
    assert all(moved[:len(state.meta.params)])  # the core and the head of group 0
    assert moved[len(state.meta.params) + 2 * i]  # base i's map weight


def test_bases_of_one_dataset_and_input_family_share_one_pool():
    ds, other = _tiny_dataset(), _tiny_dataset(seed=4)
    bases = [init_base_model(kind, 12, 3, 3, 2, 0, seed=10 + i)
             for i, kind in enumerate(["gru", "vanilla_rnn", "gru"])]
    state = init_meta_state(bases, {"hidden_dim": 4, "embed_dim": 2}, seed=0)
    trainer = MetaTrainer(state, bases, [ds, ds, other], TrainConfig())
    assert trainer.pools[0] is trainer.pools[1]
    assert trainer.pools[2] is not trainer.pools[0]
    want = model_inputs(bases[2], other, other.indices("meta_unlabeled"))
    assert all(np.array_equal(a, b) for a, b in zip(trainer.pools[2], want))


@pytest.mark.parametrize("value,storable", [  # the last float64 float32 holds, the next
    (3.4028235677973362e38, True), (3.4028235677973366e38, False), (np.nan, False)])
def test_optimizer_step_refuses_values_float32_cannot_hold(value, storable, monkeypatch):
    # at width 4, the group's bad value (column 6) is in its second block of
    # four, and `b` starts in the first
    for optimizer, width in itertools.product(OPTIMIZERS, [trainer_module.STEP_COLUMNS, 4]):
        monkeypatch.setattr(trainer_module, "STEP_COLUMNS", width)
        cfg = TrainConfig(optimizer=optimizer, weight_decay=0.0)
        opt = Optimizer({"w": {"w": np.array([value])}}, cfg)
        with nullcontext() if storable else pytest.raises(NumericError, match="'w'"):
            opt.step({"w": np.zeros(1)}, 1.0)
        # the bad value in the middle parameter of a three-parameter group
        params = {"a": np.ones((1, 3)), "b": np.array([1.0, 1.0, 1.0, value, 1.0]),
                  "c": np.ones(5)}
        opt = Optimizer({"g": params}, cfg)
        with nullcontext() if storable else pytest.raises(NumericError, match="'b'"):
            opt.step({k: np.zeros_like(v) for k, v in params.items()}, 1.0)


def test_diverging_meta_run_stops_at_first_bad_step():
    ds = _tiny_dataset()
    bases = [init_base_model("gru", 12, 3, 3, 2, 0, seed=10)]
    cfg = TrainConfig(optimizer="sgd_nesterov", lr=1e6, max_steps=30, batch_size=4,
                      weight_decay=0.0, seed=1)
    state = init_meta_state(bases, {"hidden_dim": 4, "embed_dim": 2}, seed=0)
    trainer = MetaTrainer(state, bases, [ds], cfg)
    with pytest.raises(NumericError, match="not finite in float32"):
        trainer.run()
    assert state.step < cfg.max_steps - 1
    with pytest.raises(NumericError):
        train_meta(bases, [ds], cfg, {"hidden_dim": 4, "embed_dim": 2})


def test_config_validation():
    with pytest.raises(TrainerError):
        TrainConfig(optimizer="rmsprop").validate()
    with pytest.raises(TrainerError):
        TrainConfig(lr=0.0).validate()
    with pytest.raises(TrainerError):
        TrainConfig(lam=-0.1).validate()
    TrainConfig().validate()
