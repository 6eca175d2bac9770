from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynamo import numgrad
from dynamo.dynamics import (
    DESCENT_RATE,
    DynamicsError,
    FixedPointSet,
    _descend,
    _q_and_grad,
    collect_candidates,
    find_fixed_points,
    fixed_points_table,
    neutral_fixed_point,
    readout_margin,
    score_map,
    spearman,
    summarize_attractor,
    word_score,
)
from dynamo.atlas import grid_table, plane_grid
from dynamo.models import (
    CELL_PARAMS,
    cell_step,
    cell_step_graph,
    declare_params,
    init_base_model,
    init_meta_model,
    project_inputs,
)
from dynamo.numgrad import Graph, NumericError
from dynamo.tasks import write_csv


def _contraction_meta(seed=0, hidden=4):
    """Zero-parameter GRU: h' = 0.5 h, unique fixed point at the origin."""
    meta = init_meta_model("gru", 8, 3, hidden, 2, {0: 2}, seed=seed)
    for k in meta.params:
        if k.startswith(("w_", "b_")):
            meta.params[k] = np.zeros_like(meta.params[k])
    return meta


def _near_identity_meta(seed=0, hidden=3):
    """GRU with a huge update-gate bias: h' = sigma(40) * h, identity to 1e-17."""
    meta = _contraction_meta(seed=seed, hidden=hidden)
    meta.params["b_z"] = np.full(hidden, 40.0)
    return meta


def test_contraction_map_unique_fixed_point():
    meta = _contraction_meta()
    rng = np.random.default_rng(0)
    for n_cand in (3, 25):
        cands = rng.standard_normal((n_cand, 4))
        fps = find_fixed_points(meta, np.zeros(2), cands, tol=1e-6, max_steps=5000,
                                dedup_radius=1e-2)
        assert len(fps) == 1
        assert np.linalg.norm(fps.points[0]) < 1e-6
        assert fps.residuals[0] <= 1e-6


def test_identity_map_every_candidate_is_fixed():
    meta = _near_identity_meta()
    cands = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.001, 1.0, 0.0]])
    fps = find_fixed_points(meta, np.zeros(2), cands, tol=1e-4, max_steps=5000,
                            dedup_radius=1e-2)
    # the two far-apart candidates survive; the near-duplicate collapses
    assert len(fps) == 2


def test_fixed_point_residuals_reevaluate_independently():
    meta = _contraction_meta(seed=3)
    cands = np.random.default_rng(1).standard_normal((10, 4))
    fps = find_fixed_points(meta, np.zeros(2), cands, tol=1e-5, max_steps=5000,
                            dedup_radius=1e-2)
    u = np.concatenate([np.zeros(2), np.zeros(3)])
    for h, r in zip(fps.points, fps.residuals):
        again = np.linalg.norm(cell_step(meta, u, h) - h)
        assert again == pytest.approx(r, abs=1e-15)
        assert again <= 1e-5


def test_find_fixed_points_validates_inputs():
    meta = _contraction_meta()
    with pytest.raises(DynamicsError):
        find_fixed_points(meta, np.zeros(2), np.zeros((2, 4)), tol=0.0, max_steps=5000,
                          dedup_radius=1e-2)
    res = init_base_model("residual_mlp", 0, 4, 4, 2, 0, seed=0, num_blocks=2)
    with pytest.raises(DynamicsError):
        find_fixed_points(res, None, np.zeros((2, 4)), tol=1e-4, max_steps=5000,
                          dedup_radius=1e-2)


def test_descent_from_a_state_that_is_not_finite_is_a_numeric_error():
    # the descent checks q and its gradient, and warns about nothing on the way
    cands = np.array([[np.inf, 0.0, 0.0, 0.0], [0.1, 0.2, 0.3, 0.4]])
    with pytest.raises(NumericError):
        find_fixed_points(_contraction_meta(), np.zeros(2), cands, tol=1e-4, max_steps=5000,
                          dedup_radius=1e-2)


def test_empty_result_is_valid():
    # repelling-ish start far away with zero descent budget
    meta = _contraction_meta()
    fps = find_fixed_points(meta, np.zeros(2), 100 * np.ones((3, 4)),
                            tol=1e-12, max_steps=0, dedup_radius=1e-2)
    assert len(fps) == 0


def test_collect_candidates_counts_and_determinism():
    meta = init_meta_model("gru", 8, 3, 4, 2, {0: 2}, seed=5)
    rows = np.array([[1, 2, 3, 4], [5, 6, 7, 0]] * 5), np.array([4, 3] * 5)
    c1 = collect_candidates(meta, np.zeros(2), *rows, 1, task_group=0, seed=4)
    assert c1.shape == (10, 4)
    c2 = collect_candidates(meta, np.zeros(2), *rows, 1, task_group=0, seed=4)
    assert np.array_equal(c1, c2)
    with pytest.raises(DynamicsError):
        collect_candidates(meta, np.zeros(2), np.zeros((0, 0), dtype=np.int64),
                           np.zeros(0, dtype=np.int64), 1, task_group=0, seed=0)


def test_collect_candidates_degenerate_zero_dynamics():
    meta = _contraction_meta()
    cands = collect_candidates(meta, np.zeros(2), np.array([[1, 2, 3]]), np.array([3]), 5,
                               task_group=0, seed=0)
    assert np.allclose(cands, 0.0)


def test_summarize_attractor_segment_has_zero_thickness():
    meta = init_meta_model("gru", 8, 3, 3, 2, {0: 2}, seed=1)
    ts = np.linspace(-1.0, 1.0, 9)
    pts = np.outer(ts, np.array([1.0, 0.0, 0.0]))
    fps = FixedPointSet(pts, np.zeros(9), np.zeros(9, int))
    summ = summarize_attractor(fps, meta, 0)
    assert summ.thickness == pytest.approx(0.0, abs=1e-12)
    assert summ.extent == pytest.approx(2.0)
    assert np.all(np.diff(summ.positions) >= 0)


def test_summarize_attractor_permutation_invariant():
    meta = init_meta_model("gru", 8, 3, 3, 2, {0: 2}, seed=1)
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((12, 3)) * np.array([5.0, 0.3, 0.3])
    perm = rng.permutation(12)
    f1 = FixedPointSet(pts, np.zeros(12), np.zeros(12, int))
    f2 = FixedPointSet(pts[perm], np.zeros(12), np.zeros(12, int))
    s1 = summarize_attractor(f1, meta, 0)
    s2 = summarize_attractor(f2, meta, 0)
    assert s1.extent == pytest.approx(s2.extent)
    assert s1.thickness == pytest.approx(s2.thickness)
    assert np.allclose(s1.positions, s2.positions, atol=1e-10)


def test_summarize_attractor_gaussian_cloud_ratio():
    # isotropic cloud: extent/thickness stays in a narrow, pinned band
    rng = np.random.default_rng(3)
    meta = init_meta_model("gru", 8, 3, 6, 2, {0: 2}, seed=1)
    ratios = []
    for _ in range(5):
        pts = rng.standard_normal((200, 6))
        fps = FixedPointSet(pts, np.zeros(200), np.zeros(200, int))
        s = summarize_attractor(fps, meta, 0)
        ratios.append(s.extent / s.thickness)
    mean_ratio = np.mean(ratios)
    assert 4.0 < mean_ratio < 10.0


def test_extent_thickness_ratio_needs_a_measurable_thickness():
    meta = init_meta_model("gru", 8, 3, 3, 2, {0: 2}, seed=1)

    def summary(pts):
        k = len(pts)
        return summarize_attractor(FixedPointSet(pts, np.zeros(k), np.zeros(k, int)),
                                   meta, 0)

    # two points span one direction: the off-axis spread is rounding noise
    pair = summary(np.array([[0.3, -0.2, 0.1], [0.31, -0.19, 0.12]]))
    assert pair.extent > 0 and pair.extent_thickness_ratio is None
    # collinear points off the coordinate axes: thickness is rounding noise
    line = summary(np.outer(np.linspace(-1.0, 1.0, 7), [0.6, -0.3, 0.2]) + 0.1)
    assert line.thickness <= 1e-9 * line.extent
    assert line.extent_thickness_ratio is None
    tri = summary(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.2, 0.0]]))
    assert tri.extent_thickness_ratio == tri.extent / tri.thickness


def test_summarize_attractor_needs_two_points():
    meta = init_meta_model("gru", 8, 3, 3, 2, {0: 2}, seed=1)
    fps = FixedPointSet(np.zeros((1, 3)), np.zeros(1), np.zeros(1, int))
    with pytest.raises(DynamicsError):
        summarize_attractor(fps, meta, 0)


def _neutral_setup(margins, residuals):
    """Meta whose head maps h = (m, anything) to logits (0, m)."""
    meta = init_meta_model("gru", 8, 3, 2, 2, {0: 2}, seed=0)
    meta.params["head0_w"] = np.array([[0.0, 1.0], [0.0, 0.0]])
    meta.params["head0_b"] = np.zeros(2)
    pts = np.array([[m, 0.0] for m in margins])
    return meta, FixedPointSet(pts, np.asarray(residuals, float),
                               np.zeros(len(margins), int))


def test_neutral_fixed_point_selection_and_ties():
    meta, fps = _neutral_setup([-0.5, 0.1], [0.0, 0.0])
    assert np.allclose(neutral_fixed_point(fps, meta, 0), [0.1, 0.0])

    meta1, fps1 = _neutral_setup([0.7], [0.0])
    assert np.allclose(neutral_fixed_point(fps1, meta1, 0), [0.7, 0.0])

    meta2, fps2 = _neutral_setup([0.3, -0.3], [0.5, 0.1])
    assert np.allclose(neutral_fixed_point(fps2, meta2, 0), [-0.3, 0.0])

    with pytest.raises(DynamicsError):
        neutral_fixed_point(FixedPointSet(np.zeros((0, 2)), np.zeros(0),
                                          np.zeros(0, int)), meta, 0)


def _signs(vocab, pos=(), neg=()):
    """A valence vector: +1 at `pos`, -1 at `neg`, every other token neutral."""
    valence = np.zeros(vocab)
    valence[list(pos)], valence[list(neg)] = 1.0, -1.0
    return valence


def _one_step_margins(meta, theta, h_star):
    """Every token's one-step readout margin from h_star, by hand."""
    n = meta.vocab_size
    x = np.concatenate([np.tile(theta, (n, 1)), meta.params["embed"]], axis=1)
    h = cell_step(meta, x, np.tile(h_star, (n, 1)))
    logits = h @ meta.params["head0_w"] + meta.params["head0_b"]
    return logits[:, 1] - logits[:, 0]


def test_word_score_trivial_cases():
    meta = _contraction_meta()  # zero head -> all margins zero
    h_star = np.zeros(4)
    assert word_score(meta, np.zeros(2), h_star, _signs(8, [0, 1], [2, 3]), 0) == 0.0

    meta2 = init_meta_model("gru", 8, 3, 4, 2, {0: 2}, seed=2)
    s = word_score(meta2, np.zeros(2), np.zeros(4), _signs(8, [1]), 0)
    # one positive token: its one-step margin, less the absolute margins of
    # the seven neutral ones
    margins = _one_step_margins(meta2, np.zeros(2), np.zeros(4))
    assert s == pytest.approx(margins[1] - np.abs(np.delete(margins, 1)).sum())


def test_word_score_additivity_over_disjoint_sets():
    meta = init_meta_model("gru", 12, 3, 4, 2, {0: 2}, seed=3)
    h_star = np.random.default_rng(0).standard_normal(4)
    th = np.array([0.1, -0.2])

    def score(pos=(), neg=()):
        return word_score(meta, th, h_star, _signs(12, pos, neg), 0)

    # measured from the all-neutral score, the terms of disjoint sets add up
    base = score()
    a = score([0, 1]) - base
    b = score([2]) - base
    ab = score([0, 1, 2]) - base
    assert ab == pytest.approx(a + b)
    # a set counted negative instead of positive flips its margins' sign
    margins = _one_step_margins(meta, th, h_star)
    assert score([0, 1]) - score([], [0, 1]) == pytest.approx(2 * margins[:2].sum())


def test_word_score_token_out_of_vocab():
    # a valence vector longer than the vocabulary names a token past it
    meta = init_meta_model("gru", 8, 3, 4, 2, {0: 2}, seed=3)
    with pytest.raises(DynamicsError):
        word_score(meta, np.zeros(2), np.zeros(4), _signs(100, [99]), 0)
    with pytest.raises(DynamicsError):
        word_score(meta, np.zeros(2), np.zeros(4), _signs(7, [1]), 0)


def test_word_score_needs_a_binary_head():
    meta = init_meta_model("gru", 8, 3, 4, 2, {0: 3}, seed=3)
    with pytest.raises(DynamicsError):
        word_score(meta, np.zeros(2), np.zeros(4), _signs(8, [1]), 0)


def test_score_map_single_node_matches_direct_call(tmp_path):
    meta = _contraction_meta(seed=4)
    base_thetas = np.array([[0.2, 0.0], [-0.2, 0.0]])
    rows = np.array([[1, 2, 3], [4, 5, 6]]), np.array([3, 3])
    valence = _signs(8, [0], [2])
    grid = score_map(meta, 0, plane_grid(base_thetas, (1, 1)), *rows, valence,
                     samples_per_seq=2, tol=1e-5, max_steps=5000,
                     dedup_radius=1e-2, seed=1)
    theta = grid.theta_at(grid.us[0], grid.vs[0])
    cands = collect_candidates(meta, theta, *rows, 2, task_group=0, seed=1)
    fps = find_fixed_points(meta, theta, cands, tol=1e-5, max_steps=5000,
                            dedup_radius=1e-2)
    h_star = neutral_fixed_point(fps, meta, 0)
    want = word_score(meta, theta, h_star, valence, 0)
    assert grid.values["score"][0, 0] == pytest.approx(want)

    grid2 = score_map(meta, 0, plane_grid(base_thetas, (1, 1)), *rows, valence,
                      samples_per_seq=2, tol=1e-5, max_steps=5000,
                      dedup_radius=1e-2, seed=1)
    assert np.array_equal(grid.values["score"], grid2.values["score"])


def test_score_map_grid_matches_per_node_calls():
    # every node's candidates descend in one batch; each node must still get,
    # bitwise, what its own find_fixed_points call gives
    meta = init_meta_model("gru", 8, 3, 4, 2, {0: 2}, seed=7)
    base_thetas = np.array([[0.6, 0.1], [-0.5, 0.2], [0.1, -0.7]])
    rows = (np.array([[1, 2, 3, 4, 0], [5, 6, 7, 0, 0], [2, 2, 0, 1, 3]]),
            np.array([4, 3, 5]))
    valence = _signs(8, [0, 1], [2])
    kw = dict(tol=1e-4, max_steps=60, dedup_radius=1e-3)
    grid = score_map(meta, 0, plane_grid(base_thetas, (3, 3)), *rows, valence,
                     samples_per_seq=2, seed=2, **kw)
    want = np.full((3, 3), np.nan)
    steps = set()
    for i, u in enumerate(grid.us):
        for j, v in enumerate(grid.vs):
            theta = grid.theta_at(u, v)
            cands = collect_candidates(meta, theta, *rows, 2, task_group=0, seed=2)
            fps = find_fixed_points(meta, theta, cands, **kw)
            steps.update(fps.descent_steps.tolist())
            if len(fps):
                h_star = neutral_fixed_point(fps, meta, 0)
                want[i, j] = word_score(meta, theta, h_star, valence, 0)
    assert len(steps) > 1  # the nodes converge after different step counts
    assert not np.isnan(want).all()
    assert grid.values["score"].tobytes() == want.tobytes()


def _build_q_graph(model, n: int, width: int) -> Graph:
    """The descent's q for n states under cell inputs `u` of the given width,
    as a numgrad graph: the oracle of `dynamics._q_and_grad`."""
    g = Graph()
    cell = {name: model.params[name] for name in CELL_PARAMS[model.cell_kind]}
    refs = declare_params(g, cell, trainable=False)
    h = g.leaf("h", (n, model.hidden_dim))
    cell_in = g.leaf("u", (n, width), param=False)
    h2 = cell_step_graph(g, model.cell_kind, refs, cell_in, h)
    step = g.sub(h2, h)
    q = g.reduce_sum(g.mul(step, step), axis=1)
    g.mark("q", q)
    g.output(g.reduce_sum(q))
    return g


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["gru", "vanilla_rnn"]), n=st.integers(1, 40),
       H=st.integers(1, 6), d=st.integers(1, 3), seed=st.integers(0, 2 ** 16))
def test_q_and_grad_match_the_graph_bitwise(kind, n, H, d, seed):
    rng = np.random.default_rng(seed)
    meta = init_meta_model(kind, 8, 3, H, d, {0: 2}, seed=seed)
    u = np.concatenate([rng.standard_normal((n, d)),  # one embedding per row
                        meta.params["embed"][rng.integers(0, 8, n)]], axis=1)
    h = 2.0 * rng.standard_normal((n, H))
    g = _build_q_graph(meta, n, u.shape[1])
    g.forward({**{k: meta.params[k] for k in CELL_PARAMS[kind]}, "u": u, "h": h})
    q_graph = g.value("q").copy()
    grad_graph = g.backward()["h"]
    q, grad = _q_and_grad(kind, *project_inputs(meta, u), h)  # u projected as the graph does
    assert q.tobytes() == q_graph.tobytes()
    assert grad.tobytes() == grad_graph.tobytes()


def _reference_descend(model, u_rows, candidates, tol, max_steps):
    """`dynamics._descend` as it was written with fancy-index row updates and
    the gradient summed as -(d + d) + vjp(d + d); also returns the final step
    sizes, so a test can show which rows stopped at the step-size floor."""
    kind, (xp, state) = model.cell_kind, project_inputs(model, u_rows)

    def q_and_grad(h):
        h_new, saved = numgrad.CELLS[kind](xp, h, *state)
        d = h_new - h
        dd = d + d
        return (d * d).sum(axis=1), -dd + numgrad.CELL_VJPS[kind](dd, h, h_new, saved, *state)[0]

    n = len(candidates)
    h = candidates.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        q, grad = q_and_grad(h)
        stop2 = (0.9 * tol) ** 2
        step_sizes = np.full(n, DESCENT_RATE)
        steps_used = np.zeros(n, dtype=int)
        active = (q > stop2)
        for _ in range(max_steps):
            if not active.any():
                break
            cand = h - step_sizes[:, None] * grad
            q_new, grad_new = q_and_grad(cand)
            improved = active & (q_new < q)
            h[improved] = cand[improved]
            q[improved] = q_new[improved]
            grad[improved] = grad_new[improved]
            steps_used[active] += 1
            step_sizes[improved] *= 1.1
            stuck = active & ~improved
            step_sizes[stuck] *= 0.5
            active = (q > stop2) & (step_sizes > 1e-16)
    return h, steps_used, step_sizes


@pytest.mark.parametrize("kind", ["gru", "vanilla_rnn"])
@pytest.mark.parametrize("meta", [True, False])
def test_descend_equals_the_reference_bitwise(kind, meta):
    H, n = 5, 24
    rng = np.random.default_rng(7)
    if meta:
        model = init_meta_model(kind, 8, 3, H, 2, {0: 2}, seed=3)
        u = np.concatenate([rng.standard_normal((n, 2)), np.zeros((n, 3))], axis=1)
    else:
        model = init_base_model(kind, 8, 3, H, 2, 0, seed=3)
        u = rng.standard_normal((n, 3))
    for k in ("w_h", "w_z", "w_r"):  # contracting enough to have fixed points
        if k in model.params:
            model.params[k] *= 0.5
    cands = 2.0 * rng.standard_normal((n, H))
    # rows already at their fixed point, found by iterating the map
    for _ in range(1000):
        cands[:4] = cell_step(model, u[:4], cands[:4])
    cases = [(1e-6, 0), (1e-6, 1), (1e-6, 7), (1e-4, 400), (1e-300, 3000)]
    floor_rows = 0
    for tol, max_steps in cases:
        h, used = _descend(model, u, cands, tol, max_steps)
        want_h, want_used, sizes = _reference_descend(model, u, cands, tol, max_steps)
        assert h.tobytes() == want_h.tobytes(), (tol, max_steps)
        assert used.dtype == want_used.dtype
        assert used.tobytes() == want_used.tobytes(), (tol, max_steps)
        if max_steps == 0:
            assert h.tobytes() == cands.tobytes() and not used.any()
        if tol == 1e-6:
            assert not used[:4].any()  # converged before the first step
        floor_rows += int(((sizes <= 1e-16) & (used < max_steps)).sum())
    assert floor_rows > 0  # some rows stopped at the step-size floor


def test_find_fixed_points_runs_one_cell_step_and_vjp_per_iteration(monkeypatch,
                                                                     pass_counts):
    counts = Counter()
    for name, table in (("step", numgrad.CELLS), ("vjp", numgrad.CELL_VJPS)):
        def counted(*args, _fn=table["gru"], _name=name):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setitem(table, "gru", counted)
    meta = _contraction_meta()
    cands = np.random.default_rng(2).standard_normal((6, 4))
    # a tolerance no row reaches in 5 steps: the descent runs 5 iterations,
    # each one cell step and one VJP, plus those at the candidates and the
    # retained residuals' re-check through one more cell step
    fps = find_fixed_points(meta, np.zeros(2), cands, tol=1e-12, max_steps=5, dedup_radius=1e-2)
    assert len(fps) == 0
    assert counts == {"step": 5 + 1 + 1, "vjp": 5 + 1}
    # candidates already at the fixed point: no iteration
    counts.clear()
    find_fixed_points(meta, np.zeros(2), np.zeros((3, 4)), tol=1e-6, max_steps=5,
                      dedup_radius=1e-2)
    assert counts == {"step": 1 + 1, "vjp": 1}
    assert pass_counts == {"forward": [], "backward": 0}  # no graph runs


def test_score_map_missing_marker_round_trips(tmp_path):
    meta = init_meta_model("gru", 8, 3, 4, 2, {0: 2}, seed=4)
    base_thetas = np.array([[0.2, 0.0], [-0.2, 0.0]])
    grid = score_map(meta, 0, plane_grid(base_thetas, (2, 2)), np.array([[1, 2]]),
                     np.array([2]), _signs(8, [0], [2]), samples_per_seq=1, tol=1e-15, max_steps=0,
                     dedup_radius=1e-2, seed=1)
    assert list(grid.values) == ["score"]
    assert np.all(np.isnan(grid.values["score"]))
    path = tmp_path / "scores.csv"
    write_csv(path, *grid_table(grid), comment="config_hash=z")
    lines = path.read_text().splitlines()
    assert lines[:2] == ["# config_hash=z", "u,v,theta_0,theta_1,score"]
    assert len(lines) == 2 + 4
    for line, theta in zip(lines[2:], grid.thetas):
        cells = line.split(",")
        assert [float(x) for x in cells[2:4]] == pytest.approx(theta)
        assert cells[-1] == ""


def test_export_fixed_points_csv(tmp_path):
    meta = _contraction_meta()
    cands = np.random.default_rng(0).standard_normal((6, 4))
    fps = find_fixed_points(meta, np.zeros(2), cands, tol=1e-5, max_steps=5000,
                            dedup_radius=1e-2)
    path = tmp_path / "fps.csv"
    write_csv(path, *fixed_points_table(fps, meta, task_group=0), comment="config_hash=w")
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_hash=w"
    assert lines[1] == "index,residual,margin"  # one point spans no direction
    assert len(lines) == 2 + len(fps)
    # three points span at most two directions: no pc_2 column of rounding noise
    pts = np.random.default_rng(1).standard_normal((3, 4))
    three = FixedPointSet(pts, np.zeros(3), np.zeros(3, int))
    write_csv(path, *fixed_points_table(three, meta, task_group=0))
    lines = path.read_text().splitlines()
    assert lines[0] == "index,residual,pc_0,pc_1,margin"
    assert len(lines) == 1 + 3


def test_readout_margin_and_spearman():
    logits = np.array([[0.0, 2.0], [1.0, 0.0]])
    assert np.allclose(readout_margin(logits), [2.0, -1.0])
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert spearman(x, 2 * x + 1) == pytest.approx(1.0)
    assert spearman(x, -x) == pytest.approx(-1.0)
    assert abs(spearman(x, np.array([1.0, -2.0, 1.5, 0.0]))) < 1.0
