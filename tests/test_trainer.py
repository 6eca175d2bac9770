import numpy as np
import pytest

from dynamo import models
from dynamo.models import (
    StateMap,
    init_base_model,
    init_meta_model,
    model_inputs,
    pad_tokens,
)
from dynamo.numgrad import grad_check
from dynamo.tasks import TaskSpec, gen_valence_task, split_dataset
from dynamo.trainer import (
    GraphCache,
    MetaTrainer,
    TrainConfig,
    TrainerError,
    conjugacy_defect,
    export_loss_history,
    hidden_loss,
    init_meta_state,
    kl_from_logits,
    lr_multiplier,
    meta_emulation_losses,
    model_accuracy,
    output_loss,
    task_batch,
    task_loss_graph,
    _emulation_loss_graph,
    train_base,
    train_meta,
)


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


# -- losses -----------------------------------------------------------------


def test_hidden_loss_identity_map_identical_trajectories():
    traj = np.random.default_rng(0).standard_normal((4, 3))
    v = StateMap([np.eye(3)], [np.zeros(3)])
    assert hidden_loss(traj, traj, v) == pytest.approx(0.0)


def test_hidden_loss_hand_values():
    v = StateMap([2.0 * np.eye(2)], [np.zeros(2)])
    meta_traj = np.array([[1.0, 0.0]])
    base_traj = np.array([[1.0, 1.0]])
    assert hidden_loss(meta_traj, base_traj, v, "L2_squared") == pytest.approx(2.0)
    assert hidden_loss(meta_traj, base_traj, v, "L1") == pytest.approx(2.0)


def test_hidden_loss_length_mismatch():
    v = StateMap([np.eye(2)], [np.zeros(2)])
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
    v = StateMap([np.eye(4)], [np.zeros(4)])
    seqs = [ds.sequences[i] for i in ds.indices("meta_unlabeled")[:4]]
    cfg = TrainConfig(weight_decay=0.0, normalize_hidden_by_dim=False)
    h, o, tot = meta_emulation_losses(meta, base, v, np.zeros(2), seqs, cfg)
    assert tot == pytest.approx(0.0, abs=1e-12)


# -- graph against reference --------------------------------------------------


@pytest.mark.parametrize("divergence", ["KL_on_softmax", "squared_L2_on_logits"])
@pytest.mark.parametrize("metric", ["L2_squared", "L1"])
def test_graph_loss_matches_reference(divergence, metric):
    trainer, ds, bases = _tiny_setup(divergence=divergence, metric=metric)
    pool = ds.indices("meta_unlabeled")
    seqs = [ds.sequences[i] for i in pool[:3]]
    g, bindings = trainer.bindings(0, *pad_tokens(seqs))
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
    g, bindings = trainer.bindings(0, *pad_tokens(seqs))
    assert grad_check(g, bindings, 1e-5) < 1e-4


def test_residual_graph_loss_matches_reference():
    ds = _tiny_dataset()
    bases = [init_base_model("residual_mlp", 12, 12, 5, 2, 0, seed=3, num_blocks=3)]
    cfg = TrainConfig(batch_size=3, weight_decay=0.0, seed=0)
    state = init_meta_state(bases, {"embed_dim": 2}, seed=1)
    trainer = MetaTrainer(state, bases, [ds], cfg)
    feats = trainer.pools[0][0][:3]
    g, bindings = trainer.bindings(0, feats, None)
    tot_graph = float(g.forward(bindings))
    h, o, tot = meta_emulation_losses(state.meta, bases[0], state.state_maps[0],
                                      state.embeddings[0], list(feats), cfg)
    assert tot_graph == pytest.approx(tot, abs=1e-10)
    assert grad_check(g, bindings, 1e-5) < 1e-4


def test_emulation_graph_node_budget_per_step():
    # each unrolled step is the token leaf, its embedding rows, the theta
    # concat and one fused cell; the loss terms are built once over all steps
    meta = init_meta_model("gru", 30, 8, 32, 4, {0: 2}, seed=0)
    nodes = {T: len(_emulation_loss_graph(meta, TrainConfig(), T, 16, 16, 0)._kinds)
             for T in (8, 24)}
    assert nodes[24] - nodes[8] <= 5 * 16


@pytest.mark.parametrize("kind", ["gru", "vanilla_rnn", "residual_mlp"])
def test_task_loss_graph_passes_grad_check(kind):
    ds = _tiny_dataset()
    idxs = ds.indices("base_train")[:3]
    labels = ds.subset(idxs)[1]
    width = 12 if kind == "residual_mlp" else 3
    # base training: every parameter is trainable
    base = init_base_model(kind, 12, width, 4, 2, 0, seed=1, num_blocks=2)
    cache = GraphCache(lambda T, B: task_loss_graph(base, T, B))
    g, bindings = task_batch(cache, base, *model_inputs(base, ds, idxs), labels)
    assert grad_check(g, bindings, 1e-5) < 1e-4
    g.forward(bindings)
    assert set(g.backward()) == set(base.params)
    # embedding search: the meta parameters are frozen, theta alone is trainable
    meta = init_meta_model(kind, 12, width, 4, 2, {0: 3, 1: 2}, seed=2, num_blocks=2)
    cache = GraphCache(lambda T, B: task_loss_graph(meta, T, B, 1))
    g, bindings = task_batch(cache, meta, *model_inputs(meta, ds, idxs), labels, 1)
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
        g, bindings = trainer.bindings(0, *pad_tokens(seqs))
        before = float(g.forward(bindings))
        grads_graph = g.backward()
        name_map = trainer._grad_names(0, 0)
        grads = {h: grads_graph[leaf] for leaf, h in name_map.items()}
        trainer.opt.step(grads, 1e-5)
        g2, bindings2 = trainer.bindings(0, *pad_tokens(seqs))
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
    ds = _tiny_dataset()
    bases = [init_base_model("gru", 12, 3, 3, 2, 0, seed=10 + i) for i in range(3)]
    cfg = TrainConfig(max_steps=1, batch_size=2, weight_decay=0.0, seed=4)
    state = init_meta_state(bases, {"hidden_dim": 4, "embed_dim": 2}, seed=0)
    v_before = [[w.copy() for w in vm.weights] for vm in state.state_maps]
    trainer = MetaTrainer(state, bases, [ds] * 3, cfg)
    trainer.run()
    sampled = state.history[0][1]
    for i in range(3):
        if i == sampled:
            assert not np.array_equal(state.embeddings[i], np.zeros(2))
        else:
            assert np.array_equal(state.embeddings[i], np.zeros(2))
            assert np.array_equal(state.state_maps[i].weights[0], v_before[i][0])


def test_lambda_zero_heads_get_zero_gradient():
    trainer, ds, _ = _tiny_setup(lam=0.0)
    seqs = [ds.sequences[i] for i in ds.indices("meta_unlabeled")[:3]]
    g, bindings = trainer.bindings(0, *pad_tokens(seqs))
    g.forward(bindings)
    grads = g.backward()
    assert np.allclose(grads["head0_w"], 0.0)
    assert np.allclose(grads["head0_b"], 0.0)
    # and the head is excluded from the update cohort
    assert "head0_w" not in trainer._grad_names(0, 0)


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
    _, curve = train_base(model, ds, TrainConfig(epochs=0, seed=0))
    assert curve == []
    for k, v in before.items():
        assert np.array_equal(model.params[k], v)


def test_train_base_learns_tiny_valence():
    ds = _tiny_dataset(n=200, seed=8)
    model = init_base_model("gru", 12, 4, 8, 2, 0, seed=2)
    _, curve = train_base(model, ds, TrainConfig(epochs=8, lr=5e-3, batch_size=8,
                                                 weight_decay=0.0, seed=0))
    assert curve[-1] > 0.7
    assert curve[-1] == model_accuracy(model, ds)


def test_train_base_empty_split_errors():
    ds = _tiny_dataset()
    ds.splits["base_train"] = []
    model = init_base_model("gru", 12, 3, 4, 2, 0, seed=2)
    with pytest.raises(TrainerError):
        train_base(model, ds, TrainConfig(epochs=1))


def test_train_base_residual_runs():
    ds = _tiny_dataset(n=120, seed=9)
    model = init_base_model("residual_mlp", 12, 12, 6, 2, 0, seed=2, num_blocks=2)
    _, curve = train_base(model, ds, TrainConfig(epochs=6, lr=5e-3, batch_size=8,
                                                 weight_decay=0.0, seed=0))
    assert curve[-1] > 0.6


def test_train_base_deterministic():
    ds = _tiny_dataset(n=100, seed=4)
    cfg = dict(epochs=2, lr=1e-3, batch_size=8, seed=3)
    m1 = init_base_model("gru", 12, 3, 4, 2, 0, seed=2)
    m2 = init_base_model("gru", 12, 3, 4, 2, 0, seed=2)
    train_base(m1, ds, TrainConfig(**cfg))
    train_base(m2, ds, TrainConfig(**cfg))
    for k in m1.params:
        assert np.array_equal(m1.params[k], m2.params[k])


# -- conjugacy diagnostic ---------------------------------------------------------


def _signed_permutation(rng, n):
    p = np.zeros((n, n))
    cols = rng.permutation(n)
    signs = rng.choice([-1.0, 1.0], size=n)
    for r in range(n):
        p[r, cols[r]] = signs[r]
    return p


def test_conjugacy_zero_for_constructed_linear_pair():
    rng = np.random.default_rng(12)
    H, I, d = 5, 3, 2
    base = init_base_model("vanilla_rnn", 10, I, H, 2, 0, seed=1)
    meta = init_meta_model("vanilla_rnn", 10, I, H, d, {0: 2}, seed=2)
    P = _signed_permutation(rng, H)
    meta.params["embed"] = base.params["embed"].copy()
    wx = np.zeros((d + I, H))
    wx[d:] = base.params["w_x"] @ P.T
    meta.params["w_x"] = wx
    meta.params["w_h"] = P @ base.params["w_h"] @ P.T
    meta.params["b"] = base.params["b"] @ P.T
    vmap = StateMap([P], [np.zeros(H)])
    seqs = [[1, 4, 2, 7], [3, 3, 9]]
    stats = conjugacy_defect(meta, base, vmap, np.zeros(d), seqs)
    assert stats["max"] < 1e-10


def test_conjugacy_zero_map_collapse_statistics():
    base = init_base_model("gru", 10, 3, 4, 2, 0, seed=3)
    meta = init_meta_model("gru", 10, 3, 6, 2, {0: 2}, seed=4)
    vmap = StateMap([np.zeros((6, 4))], [np.zeros(4)])
    seqs = [[1, 2, 3]]
    stats = conjugacy_defect(meta, base, vmap, np.zeros(2), seqs)
    emb = base.params["embed"][np.array(seqs[0])]
    wants = [np.linalg.norm(models.gru_step(base.params, emb[t], np.zeros(4)))
             for t in range(3)]
    assert stats["max"] == pytest.approx(max(wants))
    assert stats["mean"] == pytest.approx(np.mean(wants))


# -- misc -------------------------------------------------------------------------


def test_lr_multiplier_schedule():
    cfg = TrainConfig(cosine=True, cosine_freq=7 / 32)
    assert lr_multiplier(cfg, 0, 100) == pytest.approx(1.0)
    end = lr_multiplier(cfg, 100, 100)
    assert 0.0 < end < 1.0
    cfg_off = TrainConfig(cosine=False)
    assert lr_multiplier(cfg_off, 50, 100) == 1.0


def test_export_loss_history(tmp_path):
    hist = [(0, 1, 0.5, 0.25, 0.75), (1, 0, 0.4, 0.2, 0.6)]
    path = tmp_path / "loss.csv"
    export_loss_history(hist, path, comment="config_hash=abc")
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_hash=abc"
    assert lines[1] == "step,model_id,hidden_loss,output_loss,total_loss"
    assert lines[2].startswith("0,1,0.5,")


def test_config_validation():
    with pytest.raises(TrainerError):
        TrainConfig(optimizer="rmsprop").validate()
    with pytest.raises(TrainerError):
        TrainConfig(lr=0.0).validate()
    with pytest.raises(TrainerError):
        TrainConfig(lam=-0.1).validate()
    TrainConfig().validate()
