"""Fixed-point analysis of embedding-conditioned recurrent maps, line-attractor
summaries, and token-valence scoring of one-step transitions.

Approximate fixed points of h -> F(x*, h) at the zero input x* = 0 are found
by gradient descent with per-candidate step halving on q(h) = ||F(x*, h) - h||^2
from a batch of candidate states, then deduplicated by a radius filter.
Retained residuals are always re-evaluated through `models.cell_step`,
independently of the descent.

The summed q is a sum of per-row terms and the cell acts on each row alone,
so the gradient for row i depends only on row i. The cell inputs are
projected once per descent (`models.project_inputs`); each iteration is then
one state-only cell step and one step VJP (`numgrad.CELLS`/`CELL_VJPS`) at
the trial states, with no graph: they give q for the acceptance test and the
next gradient of every accepted row, while a rejected row keeps the gradient
of its unchanged state. So `fixed_point_sets`, the one batched entry, descends
the candidates of many embeddings together, each row under its own embedding,
and retains and deduplicates per embedding; `find_fixed_points` is its
one-embedding case and `score_map` its grid. The map is the `score` column of
an `atlas.PlaneGrid`, tabled by `atlas.grid_table` as is `fixed_points_table`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import atlas as atlas_mod
from .models import MetaModel, cell_step, pad_tokens, project_inputs, readout_names, rollout_batch
from .numgrad import CELL_VJPS, CELLS, NumericError


DESCENT_RATE = 0.2  # each candidate's first step size in every fixed-point descent


class DynamicsError(Exception):
    pass


@dataclass
class FixedPointSet:
    points: np.ndarray          # (K, H)
    residuals: np.ndarray       # (K,) independently re-evaluated ||F(x*,h)-h||
    descent_steps: np.ndarray   # (K,)

    def __len__(self) -> int:
        return len(self.points)


@dataclass
class AttractorSummary:
    extent: float               # spread of projections along the principal axis
    thickness: float            # sqrt(mean variance over off-axis components)
    positions: np.ndarray       # (K,) sorted projections, oriented by readout margin
    margins: np.ndarray         # (K,) scalar margins, same order

    @property
    def extent_thickness_ratio(self) -> float | None:
        """extent / thickness, or None when the cloud has no measurable
        thickness: fewer than 3 points, or thickness within rounding of 0
        relative to the extent (a ratio there would only scale the noise)."""
        if len(self.positions) < 3 or self.thickness <= 1e-9 * self.extent:
            return None
        return self.extent / self.thickness


def readout_margin(logits: np.ndarray) -> np.ndarray:
    """Scalar decision margin per row: positive minus negative logit for
    binary heads, distance from the uniform logit vector otherwise."""
    logits = np.atleast_2d(logits)
    if logits.shape[-1] == 2:
        return logits[:, 1] - logits[:, 0]
    return np.linalg.norm(logits - logits.mean(axis=-1, keepdims=True), axis=-1)


def _cell_input(model, theta: np.ndarray | None) -> np.ndarray:
    """The cell input at x* = 0: [theta; 0] for a meta model, 0 for a base."""
    x_star = np.zeros(model.input_dim)
    if isinstance(model, MetaModel):
        if theta is None:
            raise DynamicsError("meta models need an embedding vector")
        return np.concatenate([np.asarray(theta, float), x_star])
    return x_star


def _require_recurrent(model) -> None:
    if model.cell_kind == "residual_mlp":
        raise DynamicsError("fixed-point analysis applies to recurrent cells")


def collect_candidates(model, theta, sequences: list[list[int]],
                       samples_per_seq: int, task_group: int | None, seed: int) -> np.ndarray:
    """Hidden states subsampled uniformly across time from rollouts."""
    _require_recurrent(model)
    if not sequences:
        raise DynamicsError("empty candidate batch")
    rng = np.random.default_rng(seed)
    tokens, lengths = pad_tokens(sequences)
    hs, _ = rollout_batch(model, tokens, theta, task_group, lengths=lengths)
    return np.concatenate([hs[rng.integers(0, n, size=samples_per_seq), b]
                           for b, n in enumerate(lengths)], axis=0)


@np.errstate(over="ignore", invalid="ignore")
def _q_and_grad(kind: str, xp: np.ndarray, state: tuple,
                h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row q at states `h` under the projected cell inputs `xp`, and its
    gradient in h: one state-only cell step and one step VJP. With d = F - h
    the gradient is -(d + d) + vjp(d + d), summed in that order. Raises
    NumericError if the sum of q or the gradient is not finite."""
    h_new, saved = CELLS[kind](xp, h, *state)
    d = h_new - h
    q = (d * d).sum(axis=1)
    dd = d + d
    grad = -dd + CELL_VJPS[kind](dd, h, h_new, saved, *state)[0]
    if not (np.isfinite(q.sum()) and np.isfinite(grad).all()):
        raise NumericError("fixed-point descent left the finite range")
    return q, grad


def fixed_point_sets(model, thetas, candidates, tol: float, max_steps: int,
                     dedup_radius: float) -> list[FixedPointSet]:
    """The fixed points at each embedding of `thetas`, descended in one batch
    from its own (N_k, H) block of `candidates` under [theta; 0]. Per
    embedding, points with re-evaluated residual <= tol are retained and
    deduplicated greedily, keeping the lowest residual in each ball of
    `dedup_radius`: each set is the one its candidates give alone."""
    if tol <= 0:
        raise DynamicsError("tol must be positive")
    _require_recurrent(model)
    cands = [np.atleast_2d(np.asarray(c, float)) for c in candidates]
    u_rows = np.concatenate([np.tile(_cell_input(model, theta), (len(c), 1))
                             for theta, c in zip(thetas, cands)])
    h, steps_used = _descend(model, u_rows, np.concatenate(cands), tol, max_steps)
    bounds = np.cumsum([len(c) for c in cands])[:-1]
    return [_retain(model, *rows, tol, dedup_radius)
            for rows in zip(*(np.split(a, bounds) for a in (u_rows, h, steps_used)))]


def find_fixed_points(model, theta, candidates: np.ndarray, tol: float,
                      max_steps: int, dedup_radius: float) -> FixedPointSet:
    """`fixed_point_sets` at one embedding (None for a base model)."""
    return fixed_point_sets(model, [theta], [candidates], tol, max_steps, dedup_radius)[0]


def _descend(model, u_rows: np.ndarray, candidates: np.ndarray, tol: float,
             max_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row descent of q from `candidates`, row i under cell input
    `u_rows[i]`; returns the final states and the steps each row took.
    The inputs are projected once; each iteration is one state-only cell
    step and one step VJP at the trial states (see the module docstring)."""
    n = len(candidates)
    h = candidates.copy()
    kind, (xp, state) = model.cell_kind, project_inputs(model, u_rows)
    q, grad = _q_and_grad(kind, xp, state, h)
    # stop comfortably inside the tolerance: descending further would slide
    # candidates along slow manifolds and collapse their diversity
    stop2 = (0.9 * tol) ** 2
    step_sizes = np.full(n, DESCENT_RATE)
    steps_used = np.zeros(n, dtype=int)
    active = (q > stop2)
    for _ in range(max_steps):
        if not active.any():
            break
        cand = h - step_sizes[:, None] * grad
        q_new, grad_new = _q_and_grad(kind, xp, state, cand)
        improved = active & (q_new < q)
        h[improved] = cand[improved]
        q[improved] = q_new[improved]
        grad[improved] = grad_new[improved]
        steps_used[active] += 1
        step_sizes[improved] *= 1.1
        stuck = active & ~improved
        step_sizes[stuck] *= 0.5
        active = (q > stop2) & (step_sizes > 1e-16)
    return h, steps_used


def _retain(model, u_rows: np.ndarray, h: np.ndarray, steps_used: np.ndarray,
            tol: float, dedup_radius: float) -> FixedPointSet:
    """Keep the descended states whose residual, re-evaluated by one more
    `models.cell_step`, is <= tol, then deduplicate them by `dedup_radius`.
    The re-check reads the stored state, not the descent's last q, so a
    fault in the descent cannot pass it."""
    residuals = np.linalg.norm(cell_step(model, u_rows, h) - h, axis=1)
    keep = residuals <= tol
    pts, res, used = h[keep], residuals[keep], steps_used[keep]

    order = np.argsort(res, kind="stable")
    kept_rows: list[int] = []
    for r in order:
        if all(np.linalg.norm(pts[r] - pts[k]) > dedup_radius for k in kept_rows):
            kept_rows.append(r)
    kept_rows = np.array(kept_rows, dtype=int)
    return FixedPointSet(pts[kept_rows], res[kept_rows], used[kept_rows])


def _head_logits(model, points: np.ndarray, task_group: int | None) -> np.ndarray:
    w_name, b_name = readout_names(model, task_group)
    return np.atleast_2d(points) @ model.params[w_name] + model.params[b_name]


def summarize_attractor(fps: FixedPointSet, model,
                        task_group: int | None = None) -> AttractorSummary:
    """PCA summary of the fixed-point cloud: extent along the first component
    axis, RMS off-axis thickness, and readout margins ordered along the axis.
    The axis is oriented so the readout margin tends to increase with
    position."""
    if len(fps) < 2:
        raise DynamicsError("need at least two fixed points to summarize")
    pca = atlas_mod.fit_pca(fps.points)
    positions = (fps.points - pca.mean) @ pca.axes[0]
    off = pca.spectrum[1:]
    thickness = float(np.sqrt(off.mean())) if len(off) else 0.0
    extent = float(positions.max() - positions.min())
    margins = readout_margin(_head_logits(model, fps.points, task_group))
    if positions.std() > 0 and margins.std() > 0:
        if np.corrcoef(positions, margins)[0, 1] < 0:
            positions = -positions
    order = np.argsort(positions, kind="stable")
    return AttractorSummary(extent, thickness, positions[order], margins[order])


def neutral_fixed_point(fps: FixedPointSet, model,
                        task_group: int | None = None) -> np.ndarray:
    """The retained fixed point whose readout is closest to decision-neutral;
    ties break toward the lower residual."""
    if len(fps) == 0:
        raise DynamicsError("empty fixed-point set")
    margins = np.abs(readout_margin(_head_logits(model, fps.points, task_group)))
    best = np.lexsort((fps.residuals, margins))[0]
    return fps.points[best]


def word_score(meta: MetaModel, theta: np.ndarray, h_star: np.ndarray,
               valence: np.ndarray, task_group: int) -> float:
    """Sum of one-step readout margins from h* over the tokens of positive
    `valence` (one sign per vocabulary token), minus the negative ones, minus
    absolute margins over the neutral (zero) ones."""
    if meta.head_dims[task_group] != 2:
        raise DynamicsError("word scores need a binary readout head")
    valence = np.asarray(valence)
    if valence.shape != (meta.vocab_size,):
        raise DynamicsError("valence needs one sign per vocabulary token")
    theta = np.asarray(theta, float)

    def margins(toks):
        if not len(toks):
            return np.zeros(0)
        emb = meta.params["embed"][toks]
        x = np.concatenate([np.broadcast_to(theta, (len(toks), len(theta))), emb],
                           axis=1)
        h = cell_step(meta, x, np.broadcast_to(h_star, (len(toks), len(h_star))))
        return readout_margin(_head_logits(meta, h, task_group))

    pos, neg, neu = (np.flatnonzero(m) for m in (valence > 0, valence < 0, valence == 0))
    return float(margins(pos).sum() - margins(neg).sum() - np.abs(margins(neu)).sum())


def score_map(meta: MetaModel, task_group: int, plane: atlas_mod.PlaneGrid,
              sequences: list[list[int]], valence: np.ndarray,
              samples_per_seq: int, tol: float, max_steps: int, dedup_radius: float,
              seed: int) -> atlas_mod.PlaneGrid:
    """Fill the `score` column of `plane` (`atlas.plane_grid`) with the word
    score of each node, and return `plane`: per node, find fixed points of
    the node's conditioned map, take the neutral one, and score one-step
    transitions under `valence`. Nodes where no fixed point survives are
    marked NaN. Every node's candidates descend in one `fixed_point_sets`
    batch."""
    thetas = plane.thetas
    cands = [collect_candidates(meta, theta, sequences, samples_per_seq,
                                task_group=task_group, seed=seed) for theta in thetas]
    sets = fixed_point_sets(meta, thetas, cands, tol, max_steps, dedup_radius)
    scores = np.full((len(plane.us), len(plane.vs)), np.nan)
    for k, (theta, fps) in enumerate(zip(thetas, sets)):
        if len(fps):
            h_star = neutral_fixed_point(fps, meta, task_group)
            scores[divmod(k, len(plane.vs))] = word_score(meta, theta, h_star, valence,
                                                          task_group)
    plane.values["score"] = scores
    return plane


def spearman(x, y) -> float:
    """Spearman rank correlation (average ranks are not needed here; values
    from continuous descent are almost surely distinct)."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    rx = np.argsort(np.argsort(x)).astype(float)
    ry = np.argsort(np.argsort(y)).astype(float)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt((rx * rx).sum() * (ry * ry).sum())
    return float((rx * ry).sum() / denom) if denom > 0 else 0.0


# -- tables ------------------------------------------------------------------------


def fixed_points_table(fps: FixedPointSet, model,
                       task_group: int | None = None) -> tuple[list[str], list[list]]:
    """Rows: index, residual, PCA projections of the cloud, margin.

    A cloud of K points spans at most K-1 directions, so it gets
    min(3, H, K-1) projection columns; further ones would hold rounding noise.
    """
    k = max(0, min(3, fps.points.shape[1], len(fps) - 1))
    proj = (atlas_mod.fit_pca(fps.points).project(fps.points, k) if k
            else np.zeros((len(fps), 0)))
    margins = readout_margin(_head_logits(model, fps.points, task_group))
    rows = [[i, res, *p, m]
            for i, (res, p, m) in enumerate(zip(fps.residuals, proj, margins))]
    return ["index", "residual"] + [f"pc_{j}" for j in range(k)] + ["margin"], rows
