import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynamo.models import (
    BaseModel,
    MetaModel,
    ModelError,
    cell_step,
    cell_step_graph,
    declare_params,
    final_logits,
    init_base_model,
    init_meta_model,
    init_state_map,
    input_bindings,
    pad_tokens,
    residual_block_step,
    rollout,
    rollout_batch,
    stacked_leaves,
    unroll_graph,
)
from dynamo.numgrad import Graph


def _cell(kind, params):
    """A model around bare cell weights, as `cell_step` reads it."""
    return BaseModel(kind, 0, 0, 0, 0, 0, params)


def _zero_gru_params(i, h):
    k = i + h
    return {f"w_{g}": np.zeros((k, h)) for g in "zrh"} | {f"b_{g}": np.zeros(h) for g in "zrh"}


def _rand_gru_params(rng, i, h):
    k = i + h
    return ({f"w_{g}": rng.standard_normal((k, h)) for g in "zrh"}
            | {f"b_{g}": rng.standard_normal(h) for g in "zrh"})


def _gru_step_scalar(params, x, h):
    """Independent loop-based evaluation of the three gate equations."""
    i, hd = len(x), len(h)

    def gate(w, b, left, right, squash):
        out = np.zeros(hd)
        for j in range(hd):
            s = b[j]
            for a in range(i):
                s += w[a, j] * left[a]
            for a in range(hd):
                s += w[i + a, j] * right[a]
            out[j] = squash(s)
        return out

    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    z = gate(params["w_z"], params["b_z"], x, h, sig)
    r = gate(params["w_r"], params["b_r"], x, h, sig)
    hc = gate(params["w_h"], params["b_h"], x, r * h, np.tanh)
    return (1.0 - z) * hc + z * h


def test_gru_step_zero_params_halves_hidden():
    h = np.array([2.0, -4.0, 6.0])
    out = cell_step(_cell("gru", _zero_gru_params(2, 3)), np.zeros(2), h)
    assert np.allclose(out, 0.5 * h)


def test_gru_step_zero_everything():
    out = cell_step(_cell("gru", _zero_gru_params(2, 3)), np.zeros(2), np.zeros(3))
    assert np.allclose(out, 0.0)


def test_gru_step_matches_scalar_loop_oracle():
    rng = np.random.default_rng(5)
    for _ in range(5):
        params = _rand_gru_params(rng, 3, 3)
        x, h = rng.standard_normal(3), rng.standard_normal(3)
        assert np.allclose(cell_step(_cell("gru", params), x, h),
                           _gru_step_scalar(params, x, h), atol=1e-12)


def test_vanilla_rnn_step():
    p = {"w_x": np.zeros((1, 1)), "w_h": np.zeros((1, 1)), "b": np.zeros(1)}
    rnn = _cell("vanilla_rnn", p)
    assert np.allclose(cell_step(rnn, np.array([1.0]), np.array([2.0])), 0.0)

    p["w_x"] = np.eye(1)
    out = cell_step(rnn, np.array([0.5]), np.array([3.0]))
    assert out[0] == pytest.approx(np.tanh(0.5))
    assert abs(out[0] - 0.4621) < 1e-3

    rng = np.random.default_rng(0)
    rnn = _cell("vanilla_rnn", {"w_x": rng.standard_normal((4, 6)),
                                "w_h": rng.standard_normal((6, 6)),
                                "b": rng.standard_normal(6)})
    for _ in range(10):
        out = cell_step(rnn, rng.standard_normal(4), rng.standard_normal(6))
        assert np.all(out > -1.0) and np.all(out < 1.0)


def test_residual_block_zero_params_is_relu():
    f = np.array([1.0, -2.0, 3.0])
    blk = {"a1": np.zeros((3, 3)), "b1": np.zeros(3),
           "a2": np.zeros((3, 3)), "b2": np.zeros(3)}
    assert np.allclose(residual_block_step(blk, f), np.maximum(f, 0.0))


def test_residual_block_zero_theta_matches_unconditioned():
    rng = np.random.default_rng(1)
    blk = {"a1": rng.standard_normal((3, 3)), "b1": rng.standard_normal(3),
           "a2": rng.standard_normal((3, 3)), "b2": rng.standard_normal(3)}
    w_theta = rng.standard_normal((4, 3))
    f = rng.standard_normal(3)
    with_theta = residual_block_step(blk, f, theta=np.zeros(4), w_theta=w_theta)
    without = residual_block_step(blk, f)
    assert np.array_equal(with_theta, without)


def test_residual_block_matches_scalar_loop_oracle():
    rng = np.random.default_rng(2)
    blk = {"a1": rng.standard_normal((3, 3)), "b1": rng.standard_normal(3),
           "a2": rng.standard_normal((3, 3)), "b2": rng.standard_normal(3)}
    w_theta = rng.standard_normal((2, 3))
    theta = rng.standard_normal(2)
    f = rng.standard_normal(3)

    z = np.zeros(3)
    for j in range(3):
        s = blk["b1"][j]
        for a in range(3):
            s += blk["a1"][a, j] * f[a]
        for a in range(2):
            s += w_theta[a, j] * theta[a]
        z[j] = max(s, 0.0)
    out = np.zeros(3)
    for j in range(3):
        s = f[j] + blk["b2"][j]
        for a in range(3):
            s += blk["a2"][a, j] * z[a]
        out[j] = max(s, 0.0)

    got = residual_block_step(blk, f, theta=theta, w_theta=w_theta)
    assert np.allclose(got, out, atol=1e-12)


def test_rollout_zero_gru_stays_at_zero():
    m = init_base_model("gru", vocab_size=5, input_dim=3, hidden_dim=4,
                        output_dim=2, task_group=0, seed=0)
    for k in m.params:
        if k != "embed":
            m.params[k] = np.zeros_like(m.params[k])
    hs, logits = rollout(m, [1, 2, 3])
    assert np.allclose(hs, 0.0)
    assert logits.shape == (3, 2)


def test_rollout_rejects_empty_sequence():
    m = init_base_model("gru", 5, 3, 4, 2, 0, seed=0)
    with pytest.raises(ModelError):
        rollout(m, [])


def test_rollout_matches_composed_steps():
    m = init_base_model("gru", 6, 3, 4, 2, 0, seed=3)
    tokens = [2, 5]
    hs, _ = rollout(m, tokens)
    x = m.params["embed"][tokens]
    h1 = cell_step(m, x[0], np.zeros(4))
    h2 = cell_step(m, x[1], h1)
    assert np.allclose(hs[0], h1, atol=1e-14)
    assert np.allclose(hs[1], h2, atol=1e-14)


def test_meta_rollout_at_zero_theta_matches_zero_padded_input():
    meta = init_meta_model("gru", vocab_size=6, input_dim=3, hidden_dim=5,
                           embed_dim=2, head_dims={0: 2}, seed=4)
    tokens = [1, 4, 2]
    hs_meta, logits_meta = rollout(meta, tokens, theta=np.zeros(2), task_group=0)

    # same weights viewed as an unconditioned cell fed [0; x_t]
    plain = BaseModel("gru", 6, 5, 5, 2, 0,
                      params={k: v for k, v in meta.params.items()})
    plain.params["w_out"] = meta.params["head0_w"]
    plain.params["b_out"] = meta.params["head0_b"]
    emb = meta.params["embed"][tokens]
    padded = np.concatenate([np.zeros((3, 2)), emb], axis=-1)
    h = np.zeros(5)
    for t in range(3):
        h = cell_step(plain, padded[t], h)
    assert np.allclose(hs_meta[-1], h, atol=1e-14)


def test_meta_rollout_requires_head_and_theta():
    meta = init_meta_model("gru", 6, 3, 5, 2, {0: 2, 1: 4}, seed=4)
    with pytest.raises(ModelError):
        rollout(meta, [1, 2])  # theta missing
    with pytest.raises(ModelError):
        rollout(meta, [1, 2], theta=np.zeros(2))  # ambiguous head
    with pytest.raises(ModelError):
        rollout(meta, [1, 2], theta=np.zeros(2), task_group=7)


def test_meta_rollout_continuity_smoke():
    meta = init_meta_model("gru", 6, 3, 5, 2, {0: 2}, seed=9)
    theta = np.array([0.3, -0.2])
    hs1, _ = rollout(meta, [1, 2, 3, 4], theta=theta, task_group=0)
    hs2, _ = rollout(meta, [1, 2, 3, 4], theta=theta + 1e-14, task_group=0)
    assert np.max(np.abs(hs1 - hs2)) < 1e-12


def test_rollout_batch_matches_single():
    m = init_base_model("gru", 8, 3, 4, 2, 0, seed=6)
    mat = np.array([[1, 2, 3], [4, 5, 6]])
    hs, logits = rollout_batch(m, mat)
    for b in range(2):
        hs1, logits1 = rollout(m, mat[b])
        assert np.allclose(hs[:, b], hs1, atol=1e-14)
        assert np.allclose(logits[:, b], logits1, atol=1e-14)


def test_final_logits_ragged():
    m = init_base_model("gru", 8, 3, 4, 2, 0, seed=6)
    seqs = [[1, 2, 3], [4, 5], [6, 1, 2]]
    tokens, lengths = pad_tokens(seqs)
    out = final_logits(m, tokens, lengths=lengths)
    for i, s in enumerate(seqs):
        _, logits = rollout(m, s)
        assert np.allclose(out[i], logits[-1], atol=1e-14)


def test_residual_rollout_outputs_and_theta_zero_family():
    base = init_base_model("residual_mlp", 0, 6, 6, 3, 0, seed=7, num_blocks=3)
    feats = np.random.default_rng(0).standard_normal(6)
    hs, outs = rollout(base, feats)
    assert hs.shape == (3, 6)
    assert np.allclose(outs[0], hs[0]) and np.allclose(outs[1], hs[1])
    assert outs[-1].shape == (3,)

    meta = init_meta_model("residual_mlp", 0, 6, 6, 4, {0: 3}, seed=7, num_blocks=3)
    # same non-theta parameters -> theta=0 must coincide exactly
    for k, v in meta.params.items():
        if k not in ("w_theta", "head0_w", "head0_b"):
            base.params[k] = v
    base.params["w_out"] = meta.params["head0_w"]
    base.params["b_out"] = meta.params["head0_b"]
    hs_m, outs_m = rollout(meta, feats, theta=np.zeros(4), task_group=0)
    hs_b, outs_b = rollout(base, feats)
    assert np.array_equal(hs_m, hs_b)
    assert np.array_equal(outs_m[-1], outs_b[-1])


def test_init_state_map_shapes():
    v = init_state_map(6, 4, num_blocks=0, seed=0)
    assert v["w0"].shape == (6, 4) and v["b0"].shape == (4,)
    v3 = init_state_map(6, 4, num_blocks=3, seed=0)
    assert len([k for k in v3 if k.startswith("w")]) == 3
    # weights first, drawn block by block from the map's seed
    assert list(v3) == ["w0", "w1", "w2", "b0", "b1", "b2"]
    rng = np.random.default_rng(0)
    for t in range(3):
        assert np.array_equal(v3[f"w{t}"], rng.standard_normal((6, 4)) / np.sqrt(6))
        assert np.array_equal(v3[f"b{t}"], np.zeros(4))


@pytest.mark.parametrize("kind", ["gru", "vanilla_rnn"])
def test_cell_step_graph_matches_numpy(kind):
    rng = np.random.default_rng(10)
    m = init_base_model(kind, 6, 3, 4, 2, 0, seed=11)
    g = Graph()
    refs = declare_params(g, m.params)
    x = g.leaf("x_in", (2, 3), param=False)
    h = g.leaf("h_in", (2, 4), param=False)
    out = cell_step_graph(g, kind, refs, x, h)
    g.output(g.reduce_sum(out))
    g.mark("h_next", out)
    xv, hv = rng.standard_normal((2, 3)), rng.standard_normal((2, 4))
    g.forward(dict(m.params) | {"x_in": xv, "h_in": hv})
    want = cell_step(m, xv, hv)
    assert np.allclose(g.value("h_next"), want, atol=1e-14)


def test_residual_graph_matches_numpy():
    rng = np.random.default_rng(12)
    meta = init_meta_model("residual_mlp", 0, 4, 4, 2, {0: 3}, seed=13, num_blocks=2)
    g = Graph()
    refs = declare_params(g, meta.params)
    h = g.leaf("f_in", (3, 4), param=False)
    th = g.leaf("theta_rows", (3, 2), param=False)
    out = cell_step_graph(g, "residual_mlp", refs, None, h, block=1, theta_rows=th)
    g.output(g.reduce_sum(out))
    g.mark("f_next", out)
    fv = rng.standard_normal((3, 4))
    thv = np.tile(rng.standard_normal(2), (3, 1))
    g.forward(dict(meta.params) | {"f_in": fv, "theta_rows": thv})
    want = residual_block_step(
        {"a1": meta.params["blk1_a1"], "b1": meta.params["blk1_b1"],
         "a2": meta.params["blk1_a2"], "b2": meta.params["blk1_b2"]},
        fv, theta=thv, w_theta=meta.params["w_theta"])
    assert np.allclose(g.value("f_next"), want, atol=1e-14)


def _row_oracle(model, row, length, theta_row, head):
    """One row stepped through `cell_step` or `residual_block_step` with 1-D
    vectors."""
    p = model.params
    steps = []
    if model.cell_kind == "residual_mlp":
        h = row @ p["stem_w"] + p["stem_b"]
        for t in range(model.num_blocks):
            blk = {k: p[f"blk{t}_{k}"] for k in ("a1", "b1", "a2", "b2")}
            h = residual_block_step(blk, h, theta_row, p.get("w_theta"))
            steps.append(h)
    else:
        h = np.zeros(model.hidden_dim)
        for tok in row[:length]:
            x = p["embed"][tok]
            if theta_row is not None:
                x = np.concatenate([theta_row, x])
            h = cell_step(model, x, h)
            steps.append(h)
    hs = np.stack(steps)
    return hs, hs @ p[head[0]] + p[head[1]]


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(["gru", "vanilla_rnn", "meta_gru", "residual_mlp",
                             "meta_residual_mlp"]),
       seed=st.integers(0, 2 ** 16), data=st.data())
def test_rollout_batch_matches_row_by_row_oracle(case, seed, data):
    rng = np.random.default_rng(seed)
    kind = case.removeprefix("meta_")
    residual = kind == "residual_mlp"
    B = data.draw(st.integers(1, 5))
    if case.startswith("meta_"):
        model = init_meta_model(kind, 7, 5 if residual else 3, 4, 2, {0: 2, 1: 3},
                                seed=seed, num_blocks=3)
        theta, group, head = rng.standard_normal((B, 2)), 1, ("head1_w", "head1_b")
    else:
        model = init_base_model(kind, 7, 5 if residual else 3, 4, 2, 0, seed=seed,
                                num_blocks=3)
        theta, group, head = None, None, ("w_out", "b_out")
    if residual:
        inputs, lengths = rng.standard_normal((B, 5)), None
    else:
        lengths = np.array(data.draw(st.lists(st.integers(1, 6), min_size=B,
                                              max_size=B)))
        # padding past each length holds arbitrary tokens and must not matter
        inputs = rng.integers(0, 7, size=(B, lengths.max()))
    hiddens, logits = rollout_batch(model, inputs, theta=theta, task_group=group,
                                    lengths=lengths)
    for b in range(B):
        n = model.num_blocks if residual else lengths[b]
        hs, lg = _row_oracle(model, inputs[b], n, None if theta is None else theta[b],
                             head)
        for got, want in ((hiddens[:n, b], hs), (logits[:n, b], lg)):
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
        # finished rows hold their final state
        assert np.array_equal(hiddens[n:, b], np.broadcast_to(hiddens[n - 1, b],
                                                              hiddens[n:, b].shape))


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["gru", "vanilla_rnn"]), meta=st.booleans(),
       seed=st.integers(0, 2 ** 16), data=st.data())
def test_rollout_batch_matches_the_recurrence_states(kind, meta, seed, data):
    # rollout_batch projects the embedding table and the theta rows apart,
    # the recurrence node each [theta; embedding] row: equal to rounding
    rng = np.random.default_rng(seed)
    B = data.draw(st.integers(1, 5))
    lengths = np.array(data.draw(st.lists(st.integers(1, 6), min_size=B, max_size=B)))
    T, d = int(lengths.max()), 2 if meta else 0
    model = (init_meta_model(kind, 7, 3, 4, d, {0: 2}, seed=seed) if meta
             else init_base_model(kind, 7, 3, 4, 2, 0, seed=seed))
    tokens = rng.integers(0, 7, size=(B, T))
    theta = rng.standard_normal((B, d)) if meta else None
    g = Graph()
    refs = declare_params(g, model.params)
    bind = dict(model.params, tokens=tokens.T.reshape(-1))  # time-major rows
    x = g.gather_rows(refs["embed"], g.leaf("tokens", (T * B,), param=False))
    if meta:
        bind["theta_rows"] = np.tile(theta, (T, 1))
        x = g.concat(g.leaf("theta_rows", (T * B, d), param=False), x)
    states = cell_step_graph(g, kind, refs, x, g.const(np.zeros((B, 4))))
    g.output(g.reduce_sum(states))
    g.forward(bind)
    want = g.value(states).reshape(T, B, 4)
    hiddens, _ = rollout_batch(model, tokens, theta=theta, task_group=0, lengths=lengths)
    valid = np.arange(T)[:, None] < lengths[None, :]  # the node steps through padding
    got, want = hiddens[valid], want[valid]
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("stacked", [False, True], ids=["alone", "stacked"])
@pytest.mark.parametrize("kind", ["gru", "vanilla_rnn", "residual_mlp"])
def test_input_bindings_bind_exactly_the_input_leaves_unroll_graph_declares(kind, stacked):
    vocab, B = 12, 3
    bases = [init_base_model(kind, vocab, vocab if kind == "residual_mlp" else 4, 5, 2, 0,
                             seed=s, num_blocks=2) for s in (1, 2)]
    rng = np.random.default_rng(0)
    if kind == "residual_mlp":
        inputs, lengths = rng.random((2, B, vocab)), None
    else:  # one (B, T) token batch per model, each model's rows ending apart
        inputs, lengths = rng.integers(0, vocab, (2, B, 4)), np.array([[4, 2, 3], [1, 2, 2]])
    if stacked:
        params = stacked_leaves(kind, {k: np.stack([b.params[k] for b in bases])
                                       for k in bases[0].params})
    else:
        params, inputs = bases[0].params, inputs[0]
        lengths = None if lengths is None else lengths[0]
    g = Graph()
    refs = declare_params(g, params)
    T = 0 if lengths is None else inputs.shape[-1]
    h = list(unroll_graph(g, bases[0], refs, T, B, nb=2 if stacked else 0))[-1]
    bound = input_bindings(inputs, lengths)
    assert bound.keys() == g._leaf_id.keys() - set(g._param_names)
    g.output(g.reduce_sum(h))
    assert np.isfinite(g.forward(dict(params) | bound))  # each at its declared shape
