"""Analyses over the learned embedding space: PCA and spectra, accuracies
and accuracy landscapes, semi-supervised embedding optimization, the SVCCA +
classical-MDS pairwise baseline, and cluster-quality scoring.

Every grid over a plane in embedding space is a `PlaneGrid` from
`plane_grid`, the only code that turns grid coordinates into embeddings; the
accuracy landscape here and `dynamics.score_map` fill value columns on one.
`atlas_table` and `grid_table` return `(header, rows)` tables of numbers,
which the CLI hands to its run writer; `tasks.write_csv` formats every cell."""
from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .models import MetaModel, final_logits, model_inputs, pad_tokens, rollout_batch
from .tasks import SequenceDataset
from .trainer import task_batch, task_loss_graph


class AtlasError(Exception):
    pass


# -- PCA over embeddings ---------------------------------------------------------


@dataclass
class EmbeddingAtlas:
    mean: np.ndarray                # (d,)
    axes: np.ndarray                # (d, d), rows are principal axes
    spectrum: np.ndarray            # (d,) covariance eigenvalues, descending

    def project(self, thetas: np.ndarray, k: int) -> np.ndarray:
        return (np.atleast_2d(thetas) - self.mean) @ self.axes[:k].T

    def spectrum_table(self) -> tuple[list[str], list[tuple]]:
        """Header and rows of spectrum.csv: each component's eigenvalue and the
        cumulative fraction of variance (0 throughout when the spectrum is all 0)."""
        cumulative = np.cumsum(self.spectrum) / (self.spectrum.sum() or 1.0)
        header = ["component", "eigenvalue", "cumulative_fraction"]
        return header, list(zip(range(len(cumulative)), self.spectrum, cumulative))


def fit_pca(embeddings: np.ndarray) -> EmbeddingAtlas:
    """Center, SVD, axes sorted by descending eigenvalue (covariance divisor N).
    Sign convention: each axis's largest-magnitude coordinate is positive."""
    X = np.asarray(embeddings, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise AtlasError("need at least two embeddings")
    n, d = X.shape
    mean = X.mean(axis=0)
    Xc = X - mean
    _, s, vt = np.linalg.svd(Xc, full_matrices=True)
    spectrum = np.zeros(d)
    spectrum[:len(s)] = (s * s) / n
    axes = vt
    for i in range(d):
        j = int(np.argmax(np.abs(axes[i])))
        if axes[i, j] < 0:
            axes[i] = -axes[i]
    return EmbeddingAtlas(mean, axes, spectrum)


def components_for_variance(spectrum: np.ndarray, threshold: float) -> int:
    """Smallest k whose leading eigenvalues explain `threshold` of the variance."""
    if not 0.0 < threshold <= 1.0:
        raise AtlasError("threshold must be in (0, 1]")
    spectrum = np.asarray(spectrum, dtype=np.float64)
    total = spectrum.sum()
    if total <= 0.0:
        return 0
    if threshold >= 1.0:
        return int((spectrum > 0).sum())
    cum = np.cumsum(spectrum) / total
    return int(np.searchsorted(cum, threshold - 1e-15) + 1)


# -- accuracy evaluation -----------------------------------------------------------

# Embeddings per `grid_accuracies` rollout: `rollout_batch` keeps the (T, B, H)
# trajectory, and chunks of 32 took atlas-dynamics peak RSS from 64 to 92 MB.
# Nor would larger chunks be faster: in a steady-state microbenchmark
# `gru_step` took 583, 461, 545 and 709 ns per row at 96, 384 (4 θ on
# atlas-dynamics' 96 test sequences), 1,536 and 21,600 rows.
GRID_CHUNK = 4


def grid_accuracies(meta: MetaModel, thetas: np.ndarray, task_group: int,
                    ds: SequenceDataset) -> np.ndarray:
    """Test accuracy of the meta-model at each of the given embeddings.

    Embeddings are evaluated GRID_CHUNK at a time, every input row repeated
    once per embedding, so a whole landscape costs a handful of rollouts.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=np.float64))
    idxs = ds.indices("test")
    if not idxs:
        raise AtlasError("empty split 'test'")
    inputs, lengths = model_inputs(meta, ds, idxs)
    labels = ds.subset(idxs)[1]
    if lengths is not None:
        # rows longest first, so rollout_batch has no permutation to undo
        order = np.argsort(-lengths, kind="stable")
        inputs, lengths, labels = inputs[order], lengths[order], labels[order]
    B, M = len(labels), thetas.shape[0]
    correct = np.zeros(M)
    for lo in range(0, M, GRID_CHUNK):
        th = thetas[lo:lo + GRID_CHUNK]
        m = th.shape[0]
        rows = np.repeat(np.arange(B), m)
        logits = final_logits(meta, inputs[rows], theta=np.tile(th, (B, 1)),
                              task_group=task_group,
                              lengths=None if lengths is None else lengths[rows])
        pred = logits.argmax(axis=1).reshape(B, m)
        correct[lo:lo + m] = (pred == labels[:, None]).sum(axis=0)
    return correct / B


# -- grids over a plane in embedding space -----------------------------------------


# Span of the landscape's and the score map's grid, in widths of the box that
# bounds the bases' projections: the first implementation's value.
PLANE_EXTENT = 1.5


@dataclass
class PlaneGrid:
    """Nodes (us[i], vs[j]) over the plane origin + u * u_axis + v * v_axis,
    and the named value columns an analysis fills in, each (nu, nv); NaN
    marks a node without a value."""

    origin: np.ndarray
    u_axis: np.ndarray
    v_axis: np.ndarray
    us: np.ndarray
    vs: np.ndarray
    values: dict[str, np.ndarray] = field(default_factory=dict)

    def theta_at(self, u: float, v: float) -> np.ndarray:
        return self.origin + u * self.u_axis + v * self.v_axis

    @property
    def thetas(self) -> np.ndarray:
        """(nu * nv, d) embedding of every node, row-major over (u, v)."""
        return np.array([self.theta_at(u, v) for u in self.us for v in self.vs])

    def argmax(self, column: str) -> tuple[tuple[float, float], float]:
        """(u, v) and value of the first node holding the largest `column`."""
        vals = self.values[column]
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        return (float(self.us[i]), float(self.vs[j])), float(vals[i, j])


def plane_grid(base_thetas: np.ndarray, grid: tuple[int, int]) -> PlaneGrid:
    """A grid over a plane in embedding space, with no value columns yet.

    The plane (origin, u_axis, v_axis) is the top-2 PCA plane through the
    base embeddings' mean; the grid spans `PLANE_EXTENT` times the bounding
    box of their projections. An axis whose spread is at most 1e-9 of the
    other's (the second axis of two bases) holds only rounding noise and
    takes the other's half-width; with no spread on either, each half-width
    is 1."""
    base_thetas = np.asarray(base_thetas, dtype=np.float64)
    pca = fit_pca(base_thetas)
    if pca.axes.shape[0] < 2:
        raise AtlasError("need at least a 2-D embedding space for a plane")
    origin, u_axis, v_axis = pca.mean, pca.axes[0], pca.axes[1]
    rel = base_thetas - origin
    uv = np.stack([rel @ u_axis / (u_axis @ u_axis),
                   rel @ v_axis / (v_axis @ v_axis)], axis=1)
    lo, hi = uv.min(axis=0), uv.max(axis=0)
    center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    half = np.where(half <= 1e-9 * half[::-1], half[::-1], half)
    half = np.where(half > 0, half * PLANE_EXTENT, 1.0)
    return PlaneGrid(origin, u_axis, v_axis,
                     *(np.linspace(center[a] - half[a], center[a] + half[a], grid[a])
                       for a in (0, 1)))


def accuracy_landscape(meta: MetaModel, task_group: int, ds: SequenceDataset,
                       plane: PlaneGrid, best_base_accuracy: float | None = None
                       ) -> PlaneGrid:
    """Fill the `accuracy` column of `plane` (see `plane_grid`), and
    `relative_accuracy` against the best base model when its accuracy is
    given and nonzero, and return `plane`."""
    accs = grid_accuracies(meta, plane.thetas, task_group, ds).reshape(len(plane.us), -1)
    plane.values["accuracy"] = accs
    if best_base_accuracy:
        plane.values["relative_accuracy"] = accs / best_base_accuracy
    return plane


# -- semi-supervised optimization of the embedding --------------------------------


def ssl_optimize(meta: MetaModel, task_group: int, ds: SequenceDataset,
                 steps: int, lr: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Gradient descent from theta = 0 on the ssl_labeled loss in theta only,
    with step-halving backoff so the recorded loss never increases.

    A step costs one backward pass and one forward pass per trial point: the
    gradient is taken from the forward pass that accepted the current theta,
    which the graph still holds. The first step refused at the step-size
    floor is the last one tried: theta, its gradient and the step size (never
    raised again) would stay as they are, so every later step would be
    refused too, and the remaining rows repeat the last theta and loss. Over
    k <= `steps` steps tried with `b` halvings that makes k + 1 + b forward
    passes and k backward passes.

    Returns (theta_final, thetas (steps+1, d), losses (steps+1,), accepted),
    where rows 1 to `accepted` hold the accepted steps.
    """
    idxs = ds.indices("ssl_labeled")
    if not idxs:
        raise AtlasError("empty split 'ssl_labeled'")
    inputs, lengths = model_inputs(meta, ds, idxs)
    g, bindings = task_batch(lambda T, B: task_loss_graph(meta, T, B, task_group),
                             meta, inputs, lengths, ds.subset(idxs)[1], task_group)

    def loss_at(th):
        bindings["theta"] = th[None, :]
        return float(g.forward(bindings))

    theta = np.zeros(meta.embed_dim)
    thetas = [theta.copy()]
    cur = loss_at(theta)
    losses = [cur]
    lr_cur = lr
    lr_floor = lr * 1e-9
    for _ in range(steps):
        grad = g.backward()["theta"].reshape(-1)
        while True:
            cand = theta - lr_cur * grad
            cand_loss = loss_at(cand)
            if cand_loss <= cur or lr_cur <= lr_floor:
                break
            lr_cur *= 0.5
        if cand_loss > cur:  # refused at the floor
            break
        theta, cur = cand, cand_loss
        thetas.append(theta.copy())
        losses.append(cur)
    taken = len(thetas) - 1
    rest = steps - taken
    return theta, np.stack(thetas + [theta] * rest), np.array(losses + [cur] * rest), taken


# -- pairwise representation baseline (SVCCA + classical MDS) ---------------------


def hidden_state_matrix(model, sequences: list[list[int]]) -> np.ndarray:
    """A base model's hidden states over a common sequence set, rows ordered
    by (seq, t)."""
    if model.cell_kind == "residual_mlp":
        raise AtlasError("the SVCCA baseline compares recurrent hidden states")
    tokens, lengths = pad_tokens(sequences)
    hs, _ = rollout_batch(model, tokens, lengths=lengths)
    return hs.swapaxes(0, 1)[np.arange(tokens.shape[1]) < lengths[:, None]]


def _svd_basis(acts: np.ndarray, var_kept: float = 0.99):
    """Left singular vectors of the centred activations, their rank, the
    count of them that keeps `var_kept` of the variance, and the unit count."""
    u, s, _ = np.linalg.svd(acts - acts.mean(axis=0), full_matrices=False)
    nz = s > max(1e-10 * s[0], 1e-300) if s.size else np.zeros(0, dtype=bool)
    rank = int(nz.sum())
    if rank == 0:
        raise AtlasError("activation matrix has zero variance")
    return u, rank, components_for_variance(s[:rank] ** 2, var_kept), acts.shape[1]


# Directions SVCCA keeps of a pair at most, the first implementation's value;
# a pair with fewer units or samples keeps fewer (`svcca_distances`).
SVCCA_DIMS = 20


def svcca_distance(acts_a: np.ndarray, acts_b: np.ndarray,
                   dims_kept: int = SVCCA_DIMS) -> float:
    """CCA-based dissimilarity between two activation matrices over the same
    samples: sqrt(mean over canonical pairs of 2*(1 - rho))."""
    A, B = np.asarray(acts_a, float), np.asarray(acts_b, float)
    if len(A) == len(B) and dims_kept > min(A.shape[1], B.shape[1], len(A)):
        raise AtlasError("dims_kept exceeds the usable dimension count")
    return float(svcca_distances([A, B], dims_kept)[0, 1])


def svcca_distances(acts: list[np.ndarray], dims_kept: int) -> np.ndarray:
    """`svcca_distance` of every pair of activation matrices over the same
    samples, keeping at most `dims_kept` directions (fewer when a pair has
    fewer units or samples). Each matrix is decomposed once."""
    acts = [np.asarray(a, float) for a in acts]
    if len({len(a) for a in acts}) > 1:
        raise AtlasError("activation matrices need the same sample count")
    bases = [_svd_basis(a) for a in acts]
    D = np.zeros((len(acts), len(acts)))
    for i, j in itertools.combinations(range(len(acts)), 2):
        dims = min(dims_kept, bases[i][3], bases[j][3], len(acts[i]))
        q = []
        for u, rank, k99, width in (bases[i], bases[j]):
            k = min(k99, dims, rank)
            if k < min(dims, width) and rank < min(dims, width):
                warnings.warn(f"rank-deficient activations: keeping {k} directions")
            q.append(u[:, :k])
        rho = np.clip(np.linalg.svd(q[0].T @ q[1], compute_uv=False), 0.0, 1.0)
        # correlations cannot exceed 1; values this close are numerically 1
        rho[rho > 1.0 - 1e-12] = 1.0
        D[i, j] = D[j, i] = np.sqrt(np.mean(2.0 * (1.0 - rho)))
    return D


def classical_mds(distances: np.ndarray, out_dim: int) -> np.ndarray:
    """Torgerson MDS: double-center -D^2/2, eigendecompose, scale by sqrt of
    the top eigenvalues (negative eigenvalues clamp to zero with a warning)."""
    D = np.asarray(distances, dtype=np.float64)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise AtlasError("distance matrix must be square")
    if not np.allclose(D, D.T, atol=1e-10):
        raise AtlasError("distance matrix must be symmetric")
    if np.any(D < 0) or not np.allclose(np.diag(D), 0.0, atol=1e-12):
        raise AtlasError("distances must be nonnegative with a zero diagonal")
    n = D.shape[0]
    J = np.eye(n) - np.ones((n, n)) / n
    Bmat = -0.5 * J @ (D * D) @ J
    evals, evecs = np.linalg.eigh(Bmat)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    top = evals[:out_dim]
    if np.any(top < -1e-8 * max(1.0, abs(evals[0]))):
        warnings.warn("distance matrix is not Euclidean-realizable; "
                      "clamping negative eigenvalues")
    top = np.clip(top, 0.0, None)
    return evecs[:, :out_dim] * np.sqrt(top)


def clustered(labels) -> bool:
    """Whether `labels` form clusters a silhouette can score: at least two,
    and not one point each (2 <= clusters <= N - 1). With every point its
    own cluster the score is 0 whatever the points are."""
    return 2 <= len(set(labels)) < len(labels)


def silhouette(embeddings: np.ndarray, labels) -> float:
    """Mean silhouette score with Euclidean distances; singletons score 0.
    Raises AtlasError unless the labels are `clustered`."""
    if not clustered(labels):
        raise AtlasError("silhouette needs 2 <= clusters <= N - 1")
    X = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    uniq = np.unique(labels)
    diff = X[:, None, :] - X[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    scores = np.zeros(len(X))
    for i in range(len(X)):
        own = labels == labels[i]
        n_own = own.sum()
        if n_own == 1:
            scores[i] = 0.0
            continue
        a = dist[i][own].sum() / (n_own - 1)
        b = min(dist[i][labels == c].mean() for c in uniq if c != labels[i])
        m = max(a, b)
        scores[i] = 0.0 if m == 0 else (b - a) / m
    return float(scores.mean())


# -- tables ------------------------------------------------------------------------

ATLAS_PCS = 3  # PCA coordinates of each atlas.csv row: the first implementation's value


def atlas_table(atlas: EmbeddingAtlas, embeddings: np.ndarray,
                metadata: list[dict]) -> tuple[list[str], list[list]]:
    """One row per embedding: its metadata record, theta_* and `ATLAS_PCS`
    PCA coordinates (all of them, when the embedding is narrower)."""
    d = embeddings.shape[1]
    k = min(ATLAS_PCS, d)
    meta_keys = sorted({key for m in metadata for key in m} - {"model_id"})
    header = (["model_id"] + meta_keys + [f"theta_{j}" for j in range(d)]
              + [f"pc_{j}" for j in range(k)])
    proj = atlas.project(embeddings, k)
    # metadata cells are Python's str of the manifest value, so train_fraction
    # reads 1.0 here as in base/metrics.csv, not the cell rule's 1
    rows = [[str(md.get("model_id", f"base_{i}"))]
            + [str(md.get(key, "")) for key in meta_keys] + [*theta, *proj[i]]
            for i, (theta, md) in enumerate(zip(embeddings, metadata))]
    return header, rows


def grid_table(grid: PlaneGrid) -> tuple[list[str], list[list]]:
    """One row per node, row-major over (u, v): u, v, theta_*, then each
    value column; a NaN value is an empty cell."""
    names = list(grid.values)
    header = ["u", "v"] + [f"theta_{j}" for j in range(len(grid.origin))] + names
    rows = []
    for k, theta in enumerate(grid.thetas):
        i, j = divmod(k, len(grid.vs))
        rows.append([grid.us[i], grid.vs[j], *theta,
                     *(grid.values[n][i, j] for n in names)])
    return header, rows
