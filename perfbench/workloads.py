"""The benchmark's workloads: a `dynamo` config per seed, plus the CLI stages
run once per set-up and the stages timed on every operation.

Each workload stresses a different layer (see README.md):

- train-ragged: numgrad's per-node dispatch over unrolled recurrent graphs;
  ragged lengths fill the graph cache, two cell kinds and two heads run.
- atlas-dynamics: numpy rollouts, grid accuracies, SSL theta descent and
  fixed-point descent, on a population trained during set-up.
- train-residual: few wide numgrad nodes, one graph-cache key; trainer
  binding and the optimizer weigh more than dispatch.
"""
from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: tuple[tuple[str, ...], ...]   # CLI argv heads run during set-up
    ops: tuple[tuple[str, ...], ...]     # CLI argv heads timed per operation
    population: tuple[dict, ...]
    tasks: tuple[str, ...]
    num_sequences: int
    base_training: dict
    meta: dict
    meta_training: dict
    ssl_labeled: float = 0.01
    extra: dict | None = None

    def config(self, seed: int) -> dict:
        """The `dynamo` config for one workload seed. Every seed the config
        holds (data, splits, model init, minibatch order) derives from it."""
        rng = random.Random(f"{self.name}:{seed}")
        draw = lambda: rng.randrange(2 ** 31)  # noqa: E731
        tasks = []
        for name in self.tasks:
            kind, classes = _TASK_KINDS[name]
            tasks.append({"name": name, "kind": kind, "vocab_size": 30,
                          "num_classes": classes, "t_min": 8, "t_max": 24,
                          "noise_rate": 0.05,
                          "num_sequences": self.num_sequences, "seed": draw()})
        cfg = {
            "seed": draw(),
            "tasks": tasks,
            "splits": {"base_train": 0.44, "meta_unlabeled": 0.45,
                       "ssl_labeled": self.ssl_labeled, "seed": draw()},
            "population": [dict(p) for p in self.population],
            "base_training": dict(self.base_training),
            "meta": dict(self.meta),
            "meta_training": dict(self.meta_training),
        }
        for key, val in (self.extra or {}).items():
            cfg[key] = dict(val)
        return cfg


_TASK_KINDS = {"valence": ("valence_sentiment", 2),
               "topic": ("topic_classification", 3)}

_GRU = {"cell_kind": "gru", "hidden_dim": 16, "input_dim": 8}
_RESIDUAL = {"cell_kind": "residual_mlp", "hidden_dim": 64, "input_dim": 30,
             "num_blocks": 4}

TRAIN_RAGGED = Workload(
    name="train-ragged",
    why="training-heavy recurrent run: numgrad dispatch over unrolled graphs, "
        "ragged T fills the graph cache, GRU and vanilla RNN cells, two heads",
    setup=(("gen-data",),),
    ops=(("train-base",), ("train-meta",)),
    population=(
        dict(_GRU, task="valence", count=4, task_group=0),
        dict(_GRU, task="valence", count=2, task_group=0, cell_kind="vanilla_rnn"),
        dict(_GRU, task="topic", count=2, task_group=1),
    ),
    tasks=("valence", "topic"),
    num_sequences=1200,
    base_training={"epochs": 1, "lr": 0.03, "batch_size": 32},
    meta={"cell_kind": "gru", "hidden_dim": 32, "input_dim": 8, "embed_dim": 4},
    meta_training={"max_steps": 200, "batch_size": 16, "lr": 0.003},
)

ATLAS_DYNAMICS = Workload(
    name="atlas-dynamics",
    why="analysis-heavy: numpy rollouts, landscape grid accuracies, SSL theta "
        "descent and many small fixed-point descents on a trained population",
    setup=(("gen-data",), ("train-base",), ("train-meta",)),
    ops=(("analyze", "--svcca"), ("ssl",),
         ("fixed-points", "--theta", "base_000", "--score-map")),
    population=(
        dict(_GRU, task="valence", count=3, task_group=0, train_fraction=1.0),
        dict(_GRU, task="valence", count=3, task_group=0, train_fraction=0.25),
    ),
    tasks=("valence",),
    num_sequences=1200,
    base_training={"epochs": 4, "lr": 0.03, "batch_size": 32},
    meta={"cell_kind": "gru", "hidden_dim": 32, "input_dim": 8, "embed_dim": 4},
    meta_training={"max_steps": 300, "batch_size": 16, "lr": 0.003},
    ssl_labeled=0.03,
    extra={"analysis": {"grid": 15, "svcca_sequences": 100},
           "ssl": {"steps": 100, "lr": 1.0},
           "fixed_points": {"tol": 1e-3, "max_steps": 250, "candidates": 256,
                            "score_grid": 3}},
)

TRAIN_RESIDUAL = Workload(
    name="train-residual",
    why="residual MLP bases: few wide numgrad nodes and one graph-cache key, so "
        "arithmetic, binding and the optimizer dominate, not dispatch",
    setup=(("gen-data",),),
    ops=(("train-base",), ("train-meta",)),
    population=(
        dict(_RESIDUAL, task="valence", count=4, task_group=0),
        dict(_RESIDUAL, task="topic", count=4, task_group=1),
    ),
    tasks=("valence", "topic"),
    num_sequences=2400,
    base_training={"epochs": 2, "lr": 0.003, "batch_size": 64},
    meta={"hidden_dim": 64, "embed_dim": 4},
    meta_training={"max_steps": 400, "batch_size": 64, "lr": 0.003},
)

WORKLOADS = {w.name: w for w in (TRAIN_RAGGED, ATLAS_DYNAMICS, TRAIN_RESIDUAL)}
