import numpy as np
import pytest

from dynamo.atlas import (
    AtlasError,
    accuracy_landscape,
    classical_mds,
    components_for_variance,
    grid_table,
    fit_pca,
    grid_accuracies,
    hidden_state_matrix,
    plane_grid,
    silhouette,
    ssl_optimize,
    svcca_distance,
    svcca_distances,
)
from dynamo import atlas
from dynamo.models import init_base_model, init_meta_model
from dynamo.numgrad import Graph
from dynamo.tasks import TaskSpec, gen_valence_task, split_dataset, write_csv


def _random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _tiny_meta(seed=0):
    return init_meta_model("gru", 12, 3, 4, 2, {0: 2}, seed=seed)


def _tiny_ds(n=80, seed=3):
    spec = TaskSpec("valence_sentiment", vocab_size=12, num_classes=2,
                    t_min=3, t_max=6, noise_rate=0.0, seed=seed, num_sequences=n)
    return split_dataset(gen_valence_task(spec), (0.3, 0.3, 0.05), seed=seed)


# -- PCA ------------------------------------------------------------------------


def test_fit_pca_two_point_instance():
    atlas = fit_pca(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    assert np.allclose(atlas.spectrum, [1.0, 0.0])
    assert np.allclose(atlas.axes[0], [1.0, 0.0])
    assert np.allclose(atlas.mean, [0.0, 0.0])


def test_fit_pca_identical_embeddings_zero_spectrum():
    atlas = fit_pca(np.tile([2.0, -1.0, 3.0], (5, 1)))
    assert np.allclose(atlas.spectrum, 0.0)


def test_fit_pca_rotation_covariance():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((12, 4)) * np.array([3.0, 2.0, 1.0, 0.5])
    q = _random_orthogonal(rng, 4)
    a1 = fit_pca(X)
    a2 = fit_pca(X @ q)
    assert np.allclose(a1.spectrum, a2.spectrum, atol=1e-10)
    for i in range(4):
        rotated = a1.axes[i] @ q
        assert (np.allclose(a2.axes[i], rotated, atol=1e-8)
                or np.allclose(a2.axes[i], -rotated, atol=1e-8))


def test_fit_pca_invariants_and_reconstruction():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((7, 5))
    atlas = fit_pca(X)
    assert np.allclose(atlas.axes @ atlas.axes.T, np.eye(5), atol=1e-8)
    total_var = ((X - X.mean(axis=0)) ** 2).sum() / len(X)
    assert atlas.spectrum.sum() == pytest.approx(total_var, abs=1e-8)
    assert np.all(np.diff(atlas.spectrum) <= 1e-12)
    coords = atlas.project(X, X.shape[1])
    assert np.allclose(atlas.mean + coords @ atlas.axes, X, atol=1e-8)


def test_fit_pca_needs_two_rows():
    with pytest.raises(AtlasError):
        fit_pca(np.zeros((1, 3)))


def test_components_for_variance():
    assert components_for_variance(np.array([9.0, 1.0]), 0.95) == 2
    assert components_for_variance(np.array([19.0, 1.0]), 0.95) == 1
    assert components_for_variance(np.array([3.0, 2.0, 1.0, 0.0]), 1.0) == 3
    assert components_for_variance(np.zeros(4), 0.95) == 0
    with pytest.raises(AtlasError):
        components_for_variance(np.array([1.0]), 0.0)


# -- evaluation -------------------------------------------------------------------


def test_grid_accuracies_deterministic_and_batch_independent():
    meta = _tiny_meta()
    ds = _tiny_ds()
    theta = np.array([0.2, -0.1])
    a = grid_accuracies(meta, theta, 0, ds)
    assert a.shape == (1,) and grid_accuracies(meta, theta, 0, ds)[0] == a[0]
    # a theta's accuracy does not depend on the others in its call or chunk
    thetas = np.array([[0, 0], [1, -2], theta, [-0.5, 0.3], [2, 2], [0.1, 0.1]])
    accs = grid_accuracies(meta, thetas, 0, ds)
    assert list(accs) == [grid_accuracies(meta, th, 0, ds)[0] for th in thetas]


def test_grid_accuracies_single_example_split():
    meta = _tiny_meta()
    ds = _tiny_ds()
    ds.splits["test"] = ds.splits["test"][:1]
    acc = grid_accuracies(meta, np.zeros(2), 0, ds)[0]
    assert acc in (0.0, 1.0)


def test_grid_accuracies_empty_split_errors():
    meta = _tiny_meta()
    ds = _tiny_ds()
    ds.splits["test"] = []
    with pytest.raises(AtlasError):
        grid_accuracies(meta, np.zeros(2), 0, ds)


def test_landscape_contains_exact_node_values(tmp_path):
    meta = _tiny_meta()
    ds = _tiny_ds()
    base_thetas = np.array([[0.5, 0.0], [-0.5, 0.0], [0.0, 0.4], [0.0, -0.4]])
    plane = plane_grid(base_thetas, (3, 3), extent_scale=1.0)
    grid = accuracy_landscape(meta, 0, ds, plane, best_base_accuracy=0.8)
    assert grid is plane
    acc = grid.values["accuracy"]
    assert acc.shape == (3, 3)
    assert np.all(acc >= 0.0) and np.all(acc <= 1.0)
    # grid node values equal direct evaluation at the same theta
    th = grid.theta_at(grid.us[1], grid.vs[2])
    assert np.array_equal(grid.thetas[1 * 3 + 2], th)
    assert acc[1, 2] == grid_accuracies(meta, th, 0, ds)[0]
    (u, v), best = grid.argmax("accuracy")
    assert best == acc.max()
    assert acc[list(grid.us).index(u), list(grid.vs).index(v)] == best
    assert np.array_equal(grid.values["relative_accuracy"], acc / 0.8)
    write_csv(tmp_path / "land.csv", *grid_table(grid), comment="config_hash=x")
    lines = (tmp_path / "land.csv").read_text().splitlines()
    assert lines[0] == "# config_hash=x"
    assert lines[1] == "u,v,theta_0,theta_1,accuracy,relative_accuracy"
    assert len(lines) == 2 + 9
    cells = [float(x) for x in lines[2 + 1 * 3 + 2].split(",")]
    want = [grid.us[1], grid.vs[2], *th, acc[1, 2], acc[1, 2] / 0.8]
    assert cells == pytest.approx(want)


def test_landscape_1x1_grid_is_single_evaluation():
    meta = _tiny_meta()
    ds = _tiny_ds()
    base_thetas = np.array([[0.3, 0.1], [-0.3, -0.1]])
    grid = accuracy_landscape(meta, 0, ds, plane_grid(base_thetas, (1, 1), extent_scale=1.0))
    th = grid.theta_at(grid.us[0], grid.vs[0])
    assert grid.values["accuracy"][0, 0] == grid_accuracies(meta, th, 0, ds)[0]
    assert "relative_accuracy" not in grid.values


def test_plane_grid_of_two_bases_spans_v_as_far_as_u():
    # two bases span one direction: the second axis's spread is rounding
    # noise, so v takes u's half-width rather than a grid over +-1e-19
    plane = plane_grid(np.array([[0.3, 0.1, -0.2], [-0.25, 0.05, 0.4]]), (3, 3), 1.5)
    assert np.ptp(plane.us) > 0.5
    assert np.ptp(plane.vs) == pytest.approx(np.ptp(plane.us), rel=1e-12)
    # no spread on either axis: each keeps a half-width of 1
    same = plane_grid(np.zeros((2, 3)), (3, 3), 1.5)
    assert list(same.us) == list(same.vs) == [-1.0, 0.0, 1.0]


# -- SSL --------------------------------------------------------------------------


def test_ssl_zero_steps_returns_init():
    meta = _tiny_meta()
    ds = _tiny_ds()
    theta, thetas, losses = ssl_optimize(meta, 0, ds, steps=0, lr=1.0)
    assert np.array_equal(theta, np.zeros(2))
    assert thetas.shape == (1, 2) and losses.shape == (1,)


def test_ssl_freezes_meta_and_loss_never_increases():
    meta = _tiny_meta()
    ds = _tiny_ds()
    before = {k: v.copy() for k, v in meta.params.items()}
    theta, thetas, losses = ssl_optimize(meta, 0, ds, steps=25, lr=0.5)
    for k, v in before.items():
        assert np.array_equal(meta.params[k], v)
    assert np.all(np.diff(losses) <= 1e-12)
    assert losses[-1] <= losses[0]
    assert thetas.shape == (26, 2)
    assert np.array_equal(thetas[-1], theta)


@pytest.mark.parametrize("kind", ["gru", "vanilla_rnn", "residual_mlp"])
def test_ssl_leaves_every_meta_parameter_unchanged(kind):
    # the embedding search moves theta alone: every meta array, the heads of
    # both task groups included, keeps its object and its bytes
    width = 12 if kind == "residual_mlp" else 3
    meta = init_meta_model(kind, 12, width, 4, 2, {0: 2, 1: 3}, seed=1, num_blocks=2)
    arrays = dict(meta.params)
    before = {k: v.tobytes() for k, v in arrays.items()}
    theta, _, _ = ssl_optimize(meta, 0, _tiny_ds(), steps=5, lr=0.5)
    assert np.any(theta != 0)
    assert meta.params.keys() == arrays.keys()
    for k, v in arrays.items():
        assert meta.params[k] is v and v.tobytes() == before[k], k


def test_ssl_runs_one_forward_per_trial_point(pass_counts):
    # each forward pass is the initial one, a step's accepted trial, or a
    # refused trial (one step halving); the accepted point's pass is reused
    meta = _tiny_meta()
    ds = _tiny_ds()
    steps = 6
    _, _, losses = ssl_optimize(meta, 0, ds, steps=steps, lr=200.0)
    cur, accepted, backoffs = pass_counts["forward"][0], 0, 0
    for loss in pass_counts["forward"][1:]:
        if loss <= cur:
            cur, accepted = loss, accepted + 1
        else:
            backoffs += 1
    assert backoffs > 0 and accepted == steps
    assert len(pass_counts["forward"]) == steps + 1 + backoffs
    assert pass_counts["backward"] == steps
    assert losses[-1] == cur


def test_ssl_refused_step_keeps_theta_and_reforwards(monkeypatch, pass_counts):
    # a real meta model's loss saturates rather than refusing a step, so the
    # labeled loss is replaced by sum |theta - c|, c just past two lr-steps
    # from 0: steps 1 and 2 land on 0.5, then every trial overshoots the kink
    # down to the step-size floor and is refused, and so is every later step
    c = 0.5 + 1e-12

    def kinked(*args):
        g = Graph()
        g.output(g.l1(g.sub(g.leaf("theta", (1, 2)), g.const(np.full((1, 2), c)))))
        return g, {}
    monkeypatch.setattr(atlas, "task_batch", kinked)
    steps, lr = 5, 0.25
    theta, thetas, losses = ssl_optimize(_tiny_meta(), 0, _tiny_ds(), steps=steps, lr=lr)
    assert np.array_equal(thetas[2], [0.5, 0.5])
    assert np.array_equal(theta, thetas[2]) and (thetas[2:] == theta).all()
    assert np.all(np.diff(losses) <= 0)
    # the first refused step halves from lr to its floor, lr * 1e-9; each
    # step after a refused one re-forwards at theta first
    halvings = int(np.ceil(np.log2(1e9)))
    after_refused = steps - 3
    assert len(pass_counts["forward"]) == steps + 1 + halvings + after_refused
    assert pass_counts["backward"] == steps


def test_ssl_empty_split_errors():
    meta = _tiny_meta()
    ds = _tiny_ds()
    ds.splits["ssl_labeled"] = []
    with pytest.raises(AtlasError):
        ssl_optimize(meta, 0, ds, steps=1, lr=1.0)


# -- SVCCA / MDS / silhouette -------------------------------------------------------


def test_svcca_identity_is_zero():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((200, 8))
    assert svcca_distance(A, A, dims_kept=8) < 1e-8


def test_svcca_orthogonal_invariance():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((300, 10))
    q = _random_orthogonal(rng, 10)
    assert svcca_distance(A, A @ q, dims_kept=10) < 1e-6


def test_svcca_independent_matrices_near_sqrt2():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((5000, 6))
    B = rng.standard_normal((5000, 6))
    d = svcca_distance(A, B, dims_kept=6)
    assert abs(d - np.sqrt(2.0)) < 0.1


def test_svcca_symmetry_and_validation():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((100, 5))
    B = rng.standard_normal((100, 7))
    assert svcca_distance(A, B, 5) == pytest.approx(svcca_distance(B, A, 5), abs=1e-10)
    with pytest.raises(AtlasError):
        svcca_distance(A, rng.standard_normal((50, 5)))
    with pytest.raises(AtlasError):
        svcca_distance(A, B, dims_kept=6)


def test_svcca_rank_deficiency_warns():
    rng = np.random.default_rng(6)
    base = rng.standard_normal((100, 2))
    A = np.concatenate([base, base], axis=1)  # rank 2 in 4 columns
    B = rng.standard_normal((100, 4))
    with pytest.warns(UserWarning):
        svcca_distance(A, B, dims_kept=4)


def test_svcca_distances_reduce_each_matrix_once(monkeypatch):
    rng = np.random.default_rng(7)
    base = rng.standard_normal((60, 2))
    acts = [rng.standard_normal((60, w)) for w in (5, 8, 3)]
    acts.append(np.concatenate([base, base, base], axis=1))  # rank 2 in 6 units
    calls = []
    basis = atlas._svd_basis
    monkeypatch.setattr(atlas, "_svd_basis", lambda a: calls.append(1) or basis(a))
    with pytest.warns(UserWarning):
        D = svcca_distances(acts, dims_kept=6)
    assert len(calls) == len(acts)
    with pytest.warns(UserWarning):  # the pairs with the rank-2 matrix
        for i in range(len(acts)):
            assert D[i, i] == 0.0
            for j in range(len(acts)):
                if i != j:
                    dims = min(6, acts[i].shape[1], acts[j].shape[1])
                    assert D[i, j] == svcca_distance(acts[i], acts[j], dims)
    with pytest.raises(AtlasError):
        svcca_distances([acts[0], acts[1][:50]], dims_kept=3)


def test_classical_mds_collinear_exact():
    pts = np.array([0.0, 1.0, 3.0])
    D = np.abs(pts[:, None] - pts[None, :])
    coords = classical_mds(D, out_dim=2)
    rec = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=-1)
    assert np.allclose(rec, D, atol=1e-8)


def test_classical_mds_zero_matrix():
    coords = classical_mds(np.zeros((4, 4)), out_dim=2)
    assert np.allclose(coords, 0.0)


def test_classical_mds_permutation_equivariance():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((6, 3))
    D = np.linalg.norm(X[:, None] - X[None, :], axis=-1)
    perm = rng.permutation(6)
    c1 = classical_mds(D, 2)
    c2 = classical_mds(D[np.ix_(perm, perm)], 2)
    d1 = np.linalg.norm(c1[:, None] - c1[None, :], axis=-1)
    d2 = np.linalg.norm(c2[:, None] - c2[None, :], axis=-1)
    assert np.allclose(d1[np.ix_(perm, perm)], d2, atol=1e-8)


def test_classical_mds_rejects_asymmetric():
    D = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(AtlasError):
        classical_mds(D, 1)


def test_silhouette_separated_clusters():
    rng = np.random.default_rng(8)
    a = rng.normal(0.0, 0.05, size=(10, 2))
    b = rng.normal(10.0, 0.05, size=(10, 2))
    X = np.concatenate([a, b])
    labels = [0] * 10 + [1] * 10
    assert silhouette(X, labels) > 0.9


def test_silhouette_degenerate_and_relabel():
    X = np.zeros((6, 2))
    labels = [0, 0, 0, 1, 1, 1]
    assert silhouette(X, labels) == 0.0
    rng = np.random.default_rng(9)
    Y = rng.standard_normal((8, 3))
    lab = [0, 1, 0, 1, 0, 1, 0, 1]
    swapped = [1 - v for v in lab]
    assert silhouette(Y, lab) == pytest.approx(silhouette(Y, swapped))
    with pytest.raises(AtlasError):
        silhouette(Y, [0] * 8)


def test_silhouette_refuses_singleton_clusters():
    # every point its own cluster scores 0 whatever the points: no statistic
    X = np.random.default_rng(10).standard_normal((3, 2))
    with pytest.raises(AtlasError):
        silhouette(X, ["gru", "vanilla_rnn", "x"])
    assert silhouette(X, ["gru", "gru", "vanilla_rnn"]) == silhouette(X, [0, 0, 1])


def test_hidden_state_matrix_shapes():
    m = init_base_model("gru", 12, 3, 5, 2, 0, seed=1)
    seqs = [[1, 2, 3], [4, 5]]
    acts = hidden_state_matrix(m, seqs)
    assert acts.shape == (5, 5)


def test_spectrum_csv_export(tmp_path):
    atlas = fit_pca(np.array([[1.0, 0.0], [-1.0, 0.0], [0.5, 0.2]]))
    write_csv(tmp_path / "spec.csv", *atlas.spectrum_table(), comment="config_hash=y")
    lines = (tmp_path / "spec.csv").read_text().splitlines()
    assert lines[1] == "component,eigenvalue,cumulative_fraction"
    assert len(lines) == 2 + 2
    assert lines[-1].split(",")[::2] == ["1", "1"]  # the last component closes the sum
    _, rows = fit_pca(np.ones((3, 2))).spectrum_table()
    assert [list(r) for r in rows] == [[0, 0.0, 0.0], [1, 0.0, 0.0]]  # all-zero spectrum
