"""Command-line pipeline: data generation, base-population training, joint
meta training, embedding-space analyses, semi-supervised embedding
optimization, fixed-point analysis, and model averaging.

One flat JSON config drives every stage. The schema under "configuration"
below (`_CONFIG` and its sections) is the config reference: every key, its
type and its default. The config, with `--seed` in place of its seed, is a
run's only input: `--seed` enters the config hash, and no other flag sets a
value that the config sets. Commands are composable and write into a shared
run directory, `--out` or else `run_<config hash>`; the remaining flags name
what a command reads or adds (`--theta`, `--ids`, `--svcca`, `--score-map`).
Checkpoints are a JSON manifest next to a blob of little-endian float32
tensors (float64 in memory, float32 on disk). Every command is deterministic
given its config: re-runs produce byte-identical CSVs and checkpoints. Exit
codes: 0 ok, 2 config error (including an unknown cell kind, an analysis that
does not apply to the model family, or a task no base model was trained on),
3 I/O error (including a corrupt or non-finite checkpoint, a corrupt dataset,
or an output that cannot be written), 4 numeric failure (a non-finite loss or
gradient, or trained state that is not finite in float32, in which case no
checkpoint is written).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import atlas as atlas_mod
from . import dynamics as dyn
from . import tasks as tasks_mod
from .models import CELL_KINDS, BaseModel, MetaModel, ModelError, StateMap, init_base_model
from .tasks import SequenceDataset, TaskSpec
from .trainer import (
    HIDDEN_METRICS,
    OPTIMIZERS,
    OUTPUT_DIVERGENCES,
    MetaTrainState,
    NumericError,
    TrainConfig,
    TrainerError,
    model_accuracy,
    train_base,
    train_meta,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


class ConfigError(Exception):
    pass


class IOFailure(Exception):
    pass


# -- configuration ---------------------------------------------------------------
#
# The schema: each section maps a key to (type, default). A type is a Python
# type or a tuple of types, a tuple of allowed strings, a nested section, or a
# one-element list holding the section of each list entry. _REQUIRED marks a
# key the config must give. A default of None leaves the key out of the
# resolved config, so that TrainConfig and trainer.init_meta_state supply it.

_REQUIRED = object()
_NUM = (int, float)

_TASK = {"name": (str, _REQUIRED), "kind": (str, _REQUIRED),
         "vocab_size": (int, _REQUIRED), "num_classes": (int, _REQUIRED),
         "t_min": (int, _REQUIRED), "t_max": (int, _REQUIRED),
         "noise_rate": (_NUM, 0.05), "num_sequences": (int, _REQUIRED),
         "seed": (int, 0)}
_SPLITS = {"base_train": (_NUM, 0.44), "meta_unlabeled": (_NUM, 0.45),
           "ssl_labeled": (_NUM, 0.01), "seed": (int, 0)}
_POPULATION = {"task": (str, _REQUIRED), "count": (int, _REQUIRED),
               "cell_kind": (CELL_KINDS, "gru"), "hidden_dim": (int, 24),
               "input_dim": (int, 12), "train_fraction": (_NUM, 1.0),
               "task_group": (int, 0), "num_blocks": (int, 0),
               # per-entry overrides of base_training
               "lr": (_NUM, None), "epochs": (int, None)}
# the keys both training sections take
_TRAINING = {"optimizer": OPTIMIZERS, "lr": _NUM, "batch_size": int,
             "weight_decay": _NUM, "cosine_freq": _NUM, "momentum": _NUM}
_BASE_TRAINING = {key: (kind, None) for key, kind in {
    **_TRAINING, "epochs": int}.items()}
_META_TRAINING = {key: (kind, None) for key, kind in {
    **_TRAINING, "max_steps": int, "lambda": _NUM, "hidden_metric": HIDDEN_METRICS,
    "output_divergence": OUTPUT_DIVERGENCES, "normalize_hidden_by_dim": bool}.items()}
_META = {"cell_kind": (CELL_KINDS, None), "hidden_dim": (int, None),
         "input_dim": (int, None), "embed_dim": (int, None)}
_ANALYSIS = {"grid": (int, 15), "extent_scale": (_NUM, 1.5),
             "variance_threshold": (_NUM, 0.95), "top_k": (int, 3),
             "svcca_dims": (int, 20), "svcca_sequences": (int, 50),
             "mds_dim": (int, 2),
             "landscape_task": (str, None)}  # resolved to the first task
_SSL = {"steps": (int, 100), "lr": (_NUM, 1.0),
        "task": (str, None)}  # resolved to the first task; fixed-points uses it too
_FIXED_POINTS = {"tol": (_NUM, 1e-4), "dedup_radius": (_NUM, 1e-2),
                 "max_steps": (int, 5000), "candidates": (int, 512),
                 "samples_per_seq": (int, 2), "batch_sequences": (int, 64),
                 "score_grid": (int, 7)}
_CONFIG = {"seed": (int, 0), "tasks": ([_TASK], []),
           "splits": (_SPLITS, {}), "population": ([_POPULATION], []),
           "base_training": (_BASE_TRAINING, {}), "meta": (_META, {}),
           "meta_training": (_META_TRAINING, {}), "analysis": (_ANALYSIS, {}),
           "ssl": (_SSL, {}), "fixed_points": (_FIXED_POINTS, {})}


def _resolve(obj, section: dict, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    for key in obj:
        if key not in section:
            raise ConfigError(f"unknown key {key!r} in {where}")
    resolved = {}
    for key, (kind, default) in section.items():
        if key in obj:
            resolved[key] = _resolve_value(obj[key], kind, f"{where}.{key}")
        elif default is _REQUIRED:
            raise ConfigError(f"{where} missing {key!r}")
        elif default is not None:
            resolved[key] = _resolve_value(default, kind, f"{where}.{key}")
    return resolved


def _resolve_value(val, kind, where: str):
    if isinstance(kind, dict):
        return _resolve(val, kind, where)
    if isinstance(kind, list):
        if not isinstance(val, list):
            raise ConfigError(f"{where} must be a list")
        return [_resolve(v, kind[0], f"{where}[{i}]") for i, v in enumerate(val)]
    if isinstance(kind, tuple) and isinstance(kind[0], str):
        if val not in kind:
            raise ConfigError(f"{where} must be one of {', '.join(kind)}")
    elif not isinstance(val, kind) or isinstance(val, bool) and kind is not bool:
        raise ConfigError(f"{where} has the wrong type")
    return val


def _split_fractions(splits: dict) -> tuple[float, float, float]:
    return splits["base_train"], splits["meta_unlabeled"], splits["ssl_labeled"]


def validate_config(cfg: dict) -> dict:
    """Check `cfg` against the schema and return a resolved copy with every
    section and every default filled in. Raises ConfigError."""
    cfg = _resolve(cfg, _CONFIG, "config")
    names = [task["name"] for task in cfg["tasks"]]
    if not names:
        raise ConfigError("config.tasks must list at least one task")
    for i, name in enumerate(names):
        if not re.fullmatch(r"[A-Za-z0-9_-]+", name):  # a file stem and a CSV cell
            raise ConfigError(f"task name {name!r} must match [A-Za-z0-9_-]+")
        if name in names[:i]:
            raise ConfigError(f"duplicate task name {name!r}")
    fractions = _split_fractions(cfg["splits"])
    if min(fractions) < 0 or sum(fractions) > 1.0 + 1e-12:
        raise ConfigError("split fractions must be nonnegative and sum to <= 1")
    heads = {}
    for i, entry in enumerate(cfg["population"]):
        if entry["task"] not in names:
            raise ConfigError(f"population[{i}] references unknown task "
                              f"{entry['task']!r}")
        if entry["count"] < 1:
            raise ConfigError(f"population[{i}].count must be positive")
        if heads.setdefault(entry["task"], entry["task_group"]) != entry["task_group"]:
            raise ConfigError(f"population[{i}] gives task {entry['task']!r} a second "
                              "task_group; each task has one readout head")
    for section, key in (("ssl", "task"), ("analysis", "landscape_task")):
        name = cfg[section].setdefault(key, names[0])
        if name not in names:
            raise ConfigError(f"{section}.{key} references unknown task {name!r}")
    return cfg


def load_config(path, seed: int | None = None) -> tuple[dict, str]:
    """Read the JSON config at `path`, apply a `--seed` override, and return
    the resolved config with the hash of the config as written (seed applied)."""
    try:
        raw = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    resolved = validate_config(cfg)
    if seed is not None:
        cfg = dict(cfg, seed=seed)
        resolved["seed"] = seed
    return resolved, config_hash(cfg)


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def train_config_from(section: dict, seed: int) -> TrainConfig:
    kwargs = {}
    for key, val in section.items():
        if key == "lambda":
            kwargs["lam"] = float(val)
        elif key in ("lr", "weight_decay", "cosine_freq", "momentum"):
            kwargs[key] = float(val)
        else:
            kwargs[key] = val
    cfg = TrainConfig(seed=seed, **kwargs)
    cfg.validate()
    return cfg


# -- checkpoint format -------------------------------------------------------------


def save_checkpoint(prefix, tensors: dict[str, np.ndarray], manifest_extra: dict) -> None:
    """Write `<prefix>.json` (manifest with a tensor index) and `<prefix>.bin`
    (concatenated row-major little-endian float32). Raises NumericError, and
    writes neither file, if a tensor is not finite or overflows float32."""
    prefix = Path(prefix)
    index = []
    blobs = []
    offset = 0
    for name in sorted(tensors):
        with np.errstate(over="ignore"):
            arr = np.asarray(tensors[name], dtype=np.float64).astype("<f4")
        if not np.all(np.isfinite(arr)):
            raise NumericError(f"tensor {name!r} is not finite in float32; "
                               f"checkpoint {prefix} not written")
        raw = arr.tobytes()
        index.append({"name": name, "shape": list(arr.shape), "offset": offset,
                      "length": len(raw)})
        blobs.append(raw)
        offset += len(raw)
    manifest = {"format_version": 1, "tensors": index}
    manifest.update(manifest_extra)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    prefix.with_suffix(".json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True))
    prefix.with_suffix(".bin").write_bytes(b"".join(blobs))


def load_checkpoint(prefix) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint written by `save_checkpoint`. Raises IOFailure on a
    missing file, bad JSON, a missing index key, a tensor whose byte range
    does not fit its shape or the blob, or a value that is not finite."""
    prefix = Path(prefix)
    try:
        raw = prefix.with_suffix(".json").read_bytes()
        blob = prefix.with_suffix(".bin").read_bytes()
    except OSError as e:
        raise IOFailure(f"cannot read checkpoint {prefix}: {e}") from e
    try:
        manifest = json.loads(raw)
        index = [(e["name"], tuple(int(n) for n in e["shape"]), int(e["offset"]),
                  int(e["length"])) for e in manifest["tensors"]]
    except (ValueError, KeyError, TypeError) as e:
        raise IOFailure(f"corrupt checkpoint manifest {prefix}.json: {e!r}") from e
    tensors = {}
    seen_ranges = []
    for name, shape, lo, length in index:
        hi = lo + length
        if (min(shape, default=0) < 0 or length != 4 * math.prod(shape) or lo < 0
                or hi > len(blob) or any(lo < h and o < hi for o, h in seen_ranges)):
            raise IOFailure(f"corrupt tensor index in {prefix}")
        seen_ranges.append((lo, hi))
        flat = np.frombuffer(blob[lo:hi], dtype="<f4").astype(np.float64)
        if not np.all(np.isfinite(flat)):
            raise IOFailure(f"tensor {name!r} in checkpoint {prefix} is not finite")
        tensors[name] = flat.reshape(shape)
    return tensors, manifest


@contextmanager
def _manifest_fields(prefix):
    """Turn a missing or malformed manifest field into IOFailure."""
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise IOFailure(f"corrupt checkpoint manifest {prefix}.json: {e!r}") from e


def save_base_checkpoint(prefix, model: BaseModel) -> None:
    extra = {"kind": "base_model", "cell_kind": model.cell_kind,
             "vocab_size": model.vocab_size, "input_dim": model.input_dim,
             "hidden_dim": model.hidden_dim, "output_dim": model.output_dim,
             "task_group": model.task_group, "num_blocks": model.num_blocks,
             "info": model.info}
    save_checkpoint(prefix, model.params, extra)


def load_base_checkpoint(prefix) -> BaseModel:
    tensors, mf = load_checkpoint(prefix)
    with _manifest_fields(prefix):
        return BaseModel(mf["cell_kind"], mf["vocab_size"], mf["input_dim"],
                         mf["hidden_dim"], mf["output_dim"], mf["task_group"],
                         tensors, num_blocks=mf["num_blocks"], info=mf.get("info", {}))


def save_meta_checkpoint(prefix, state: MetaTrainState, base_infos: list[dict],
                         extra: dict | None = None) -> None:
    meta = state.meta
    tensors = {f"meta/{k}": v for k, v in meta.params.items()}
    for i, vm in enumerate(state.state_maps):
        for t in range(len(vm.weights)):
            tensors[f"vmap{i}/w{t}"] = vm.weights[t]
            tensors[f"vmap{i}/b{t}"] = vm.biases[t]
    tensors["embeddings"] = state.embeddings
    with np.errstate(over="ignore"):  # save_checkpoint refuses what overflows
        by_model = {info["model_id"]: [float(np.float32(x)) for x in state.embeddings[i]]
                    for i, info in enumerate(base_infos)}
    manifest = {
        "kind": "meta_model",
        "cell_kind": meta.cell_kind,
        "vocab_size": meta.vocab_size,
        "input_dim": meta.input_dim,
        "hidden_dim": meta.hidden_dim,
        "embed_dim": meta.embed_dim,
        "num_blocks": meta.num_blocks,
        "head_dims": {str(k): v for k, v in meta.head_dims.items()},
        "bases": base_infos,
        "embeddings_by_model": by_model,
        "steps_trained": state.step,
    }
    manifest.update(extra or {})
    save_checkpoint(prefix, tensors, manifest)


def load_meta_checkpoint(prefix) -> tuple[MetaTrainState, dict]:
    tensors, mf = load_checkpoint(prefix)
    with _manifest_fields(prefix):
        head_dims = {int(k): v for k, v in mf["head_dims"].items()}
        params = {k[len("meta/"):]: v for k, v in tensors.items()
                  if k.startswith("meta/")}
        meta = MetaModel(mf["cell_kind"], mf["vocab_size"], mf["input_dim"],
                         mf["hidden_dim"], mf["embed_dim"], head_dims, params,
                         num_blocks=mf["num_blocks"])
        n = len(mf["bases"])
        maps = []
        for i in range(n):
            weights, biases, t = [], [], 0
            while f"vmap{i}/w{t}" in tensors:
                weights.append(tensors[f"vmap{i}/w{t}"])
                biases.append(tensors[f"vmap{i}/b{t}"])
                t += 1
            maps.append(StateMap(weights, biases))
        state = MetaTrainState(meta, maps, tensors["embeddings"],
                               step=mf.get("steps_trained", 0))
        return state, mf


# -- shared command plumbing --------------------------------------------------------


class Run(NamedTuple):
    """What a command reads: the resolved config, the run directory, the
    config hash, the task datasets and, when asked for, the meta checkpoint."""

    cfg: dict
    out: Path
    chash: str
    datasets: dict[str, SequenceDataset]
    state: MetaTrainState | None
    mf: dict | None

    @property
    def comment(self) -> str:
        return f"config_hash={self.chash}"

    def task_group(self, task_name: str) -> int:
        """The readout head of the base models trained on `task_name`."""
        for base in self.mf["bases"]:
            if base.get("task") == task_name:
                return base.get("task_group", 0)
        raise ConfigError(f"no base model was trained on task {task_name!r}, "
                          "so no readout head serves it")


def _open_run(args, datasets: bool = True, meta: bool = False) -> Run:
    cfg, chash = load_config(args.config, args.seed)
    out = Path(args.out or f"run_{chash}")
    loaded = {}
    for task in cfg["tasks"] if datasets else ():
        path = out / "data" / task["name"]
        try:
            loaded[task["name"]] = tasks_mod.load_dataset(path)
        except tasks_mod.TaskError as e:
            raise IOFailure(f"{e} (gen-data writes the datasets)") from e
    state, mf = load_meta_checkpoint(out / "meta") if meta else (None, None)
    return Run(cfg, out, chash, loaded, state, mf)


def _gen_task_dataset(task: dict, splits: dict) -> SequenceDataset:
    spec = TaskSpec(**{k: v for k, v in task.items() if k != "name"})
    return tasks_mod.split_dataset(tasks_mod.generate(spec), _split_fractions(splits),
                                   seed=splits["seed"])


def _population_models(cfg: dict) -> list[dict]:
    """Expand population entries to one record per base model."""
    records = []
    for entry in cfg["population"]:
        for _ in range(entry["count"]):
            idx = len(records)
            records.append(dict(entry, model_id=f"base_{idx:03d}",
                                seed=derived_seed(cfg["seed"], 1, idx)))
    if not records:
        raise ConfigError("config.population is empty")
    return records


# -- commands ------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    run = _open_run(args, datasets=False)
    (run.out / "data").mkdir(parents=True, exist_ok=True)
    for task in run.cfg["tasks"]:
        ds = _gen_task_dataset(task, run.cfg["splits"])
        tasks_mod.save_dataset(ds, run.out / "data" / task["name"])
        print(f"gen-data: wrote {task['name']} "
              f"({len(ds)} sequences, vocab {ds.vocab_size})")
    return EXIT_OK


def cmd_train_base(args) -> int:
    run = _open_run(args)
    records = _population_models(run.cfg)
    tasks = {task["name"]: task for task in run.cfg["tasks"]}
    (run.out / "base").mkdir(parents=True, exist_ok=True)
    rows = []
    for rec in records:
        task = tasks[rec["task"]]
        model = init_base_model(
            rec["cell_kind"], task["vocab_size"], rec["input_dim"], rec["hidden_dim"],
            task["num_classes"], rec["task_group"], seed=rec["seed"],
            num_blocks=rec["num_blocks"],
            info={"model_id": rec["model_id"], "task": rec["task"],
                  "train_fraction": rec["train_fraction"], "seed": rec["seed"],
                  "cell_kind": rec["cell_kind"], "task_group": rec["task_group"]})
        overrides = {k: rec[k] for k in ("lr", "epochs") if k in rec}
        tcfg = train_config_from(dict(run.cfg["base_training"], **overrides),
                                 seed=rec["seed"])
        ds = run.datasets[rec["task"]]
        train_base(model, ds, tcfg, subfraction=rec["train_fraction"])
        acc = model_accuracy(model, ds)
        model.info["test_accuracy"] = acc
        save_base_checkpoint(run.out / "base" / rec["model_id"], model)
        # train_fraction is Python's str of the float (1.0, not the cell rule's 1)
        rows.append([rec["model_id"], rec["task"], rec["cell_kind"], rec["hidden_dim"],
                     str(rec["train_fraction"]), rec["seed"], acc])
        print(f"train-base: {rec['model_id']} acc={acc:.3f} (epochs={tcfg.epochs})")
    header = ["model_id", "task", "cell_kind", "hidden_dim", "train_fraction", "seed",
              "test_accuracy"]
    tasks_mod.write_csv(run.out / "base" / "metrics.csv", header, rows, run.comment)
    return EXIT_OK


def _load_population(out: Path) -> list[BaseModel]:
    base_dir = out / "base"
    paths = sorted(base_dir.glob("base_*.json"))
    if not paths:
        raise IOFailure(f"no base checkpoints under {base_dir}")
    return [load_base_checkpoint(p.with_suffix("")) for p in paths]


def cmd_train_meta(args) -> int:
    run = _open_run(args)
    bases = _load_population(run.out)
    tcfg = train_config_from(run.cfg["meta_training"],
                             seed=derived_seed(run.cfg["seed"], 2))
    ds_list = [run.datasets[b.info["task"]] for b in bases]
    state = train_meta(bases, ds_list, tcfg, dict(run.cfg["meta"]))
    base_infos = [dict(b.info) for b in bases]
    save_meta_checkpoint(run.out / "meta", state, base_infos,
                         extra={"config_hash": run.chash, "lambda": tcfg.lam,
                                "hidden_metric": tcfg.hidden_metric})
    tasks_mod.write_csv(run.out / "meta_loss.csv",
                        ["step", "model_id", "hidden_loss", "output_loss", "total_loss"],
                        state.history, run.comment)
    final = state.history[-1] if state.history else (0, 0, 0.0, 0.0, 0.0)
    print(f"train-meta: {len(bases)} bases, {state.step} steps, "
          f"final total loss {final[4]:.4f}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    run = _open_run(args, meta=True)
    out, an, state, comment = run.out, run.cfg["analysis"], run.state, run.comment
    if args.svcca and state.meta.cell_kind == "residual_mlp":
        # checked before any output is written, so a refused run leaves none
        raise ConfigError("--svcca compares recurrent hidden states; "
                          "this run's population is residual_mlp")
    metadata = [dict(b) for b in run.mf["bases"]]
    atlas = atlas_mod.fit_pca(state.embeddings, metadata)
    atlas_mod.export_atlas_csv(atlas, out / "atlas.csv", comment, top_k=an["top_k"])
    tasks_mod.write_csv(out / "spectrum.csv", *atlas.spectrum_table(), comment)
    k95 = atlas_mod.components_for_variance(atlas.spectrum, an["variance_threshold"])
    summary = {"components_for_variance": k95,
               "variance_threshold": an["variance_threshold"]}
    coords = atlas.project(state.embeddings, 2)
    for key in ("train_fraction", "task", "cell_kind"):
        vals = [m.get(key) for m in metadata]
        if len(set(vals)) >= 2:
            summary[f"silhouette_{key}"] = atlas_mod.silhouette(coords, vals)

    task_name = an["landscape_task"]
    ds = run.datasets[task_name]
    group_rows = [i for i, m in enumerate(metadata) if m.get("task") == task_name]
    if group_rows:
        best_base = max(metadata[i].get("test_accuracy", 0.0) for i in group_rows)
        grid = atlas_mod.accuracy_landscape(
            state.meta, run.task_group(task_name), ds, state.embeddings[group_rows],
            grid=(an["grid"], an["grid"]), extent_scale=an["extent_scale"],
            best_base_accuracy=best_base or None)
        atlas_mod.export_grid_csv(grid, out / "landscape.csv", comment)
        argmax_uv, summary["landscape_argmax_accuracy"] = grid.argmax("accuracy")
        summary["landscape_argmax_uv"] = list(argmax_uv)
        summary["best_base_accuracy"] = best_base

    if args.svcca and group_rows:
        bases = _load_population(out)
        rows = [i for i, b in enumerate(bases) if b.info.get("task") == task_name]
        seqs, _ = ds.subset(ds.indices("test")[:an["svcca_sequences"]])
        D = atlas_mod.svcca_distances(
            [atlas_mod.hidden_state_matrix(bases[i], seqs) for i in rows],
            an["svcca_dims"])
        coords_mds = atlas_mod.classical_mds(D, an["mds_dim"])
        tasks_mod.write_csv(
            out / "svcca_mds.csv",
            ["model_id"] + [f"mds_{k}" for k in range(coords_mds.shape[1])],
            [[bases[i].info["model_id"], *coords_mds[r]] for r, i in enumerate(rows)],
            comment)
        svcca_labels = [bases[i].info.get("train_fraction") for i in rows]
        if len(set(svcca_labels)) >= 2:
            summary["silhouette_svcca_mds"] = atlas_mod.silhouette(
                coords_mds, svcca_labels)

    (out / "analysis_summary.json").write_text(
        json.dumps(summary, indent=1, sort_keys=True))
    print(f"analyze: components for 95% variance = {k95}; "
          + "; ".join(f"{k}={v:.3f}" for k, v in summary.items()
                      if k.startswith("silhouette")))
    return EXIT_OK


def cmd_ssl(args) -> int:
    run = _open_run(args, meta=True)
    ssl_cfg, state = run.cfg["ssl"], run.state
    task_name = ssl_cfg["task"]
    group = run.task_group(task_name)
    ds = run.datasets[task_name]
    theta, thetas, losses = atlas_mod.ssl_optimize(
        state.meta, group, ds, steps=ssl_cfg["steps"], lr=ssl_cfg["lr"])
    accs = atlas_mod.grid_accuracies(state.meta, thetas, group, ds)
    header = ["step", *(f"theta_{j}" for j in range(len(theta))), "labeled_loss",
              "test_accuracy"]
    rows = [[k, *th, loss, acc]
            for k, (th, loss, acc) in enumerate(zip(thetas, losses, accs))]
    tasks_mod.write_csv(run.out / "ssl_trajectory.csv", header, rows, run.comment)
    best_base = max(b.get("test_accuracy", 0.0) for b in run.mf["bases"]
                    if b.get("task") == task_name)
    delta = float(accs[-1]) - best_base
    result = {"theta_final": [float(x) for x in theta],
              "test_accuracy": float(accs[-1]),
              "best_base_accuracy": best_base,
              "improvement_over_best_base": delta,
              "steps": ssl_cfg["steps"]}
    (run.out / "ssl_result.json").write_text(json.dumps(result, indent=1,
                                                        sort_keys=True))
    print(f"ssl: final acc {accs[-1]:.4f} vs best base {best_base:.4f} "
          f"(delta {delta:+.4f})")
    return EXIT_OK


def _resolve_theta(source: str, state: MetaTrainState, mf: dict) -> tuple[str, np.ndarray]:
    by_id = {b["model_id"]: i for i, b in enumerate(mf["bases"])}
    if source in by_id:
        return source, state.embeddings[by_id[source]].copy()
    if source.startswith("centroid:"):
        key, _, val = source[len("centroid:"):].partition("=")
        rows = [i for i, b in enumerate(mf["bases"]) if str(b.get(key)) == val]
        if not rows:
            raise ConfigError(f"no base models match {source!r}")
        label = f"centroid_{key}_{val}".replace(".", "p")
        return label, state.embeddings[rows].mean(axis=0)
    try:
        vec = np.array([float(x) for x in source.split(",")], dtype=np.float64)
    except ValueError:
        raise ConfigError(f"cannot parse theta source {source!r}")
    if len(vec) != state.meta.embed_dim:
        raise ConfigError(f"theta source has dim {len(vec)}, "
                          f"expected {state.meta.embed_dim}")
    return "explicit", vec


def cmd_fixed_points(args) -> int:
    run = _open_run(args, meta=True)
    fp, state, seed = run.cfg["fixed_points"], run.state, run.cfg["seed"]
    task_name = run.cfg["ssl"]["task"]
    group = run.task_group(task_name)
    ds = run.datasets[task_name]
    label, theta = _resolve_theta(args.theta, state, run.mf)
    pool = ds.indices("meta_unlabeled")[:fp["batch_sequences"]]
    seqs, _ = ds.subset(pool)
    n_cand = fp["candidates"]
    per_seq = max(1, int(np.ceil(n_cand / max(1, len(seqs)))))
    cands = dyn.collect_candidates(state.meta, theta, seqs, per_seq,
                                   task_group=group, seed=derived_seed(seed, 3))
    cands = cands[:n_cand]
    fps = dyn.find_fixed_points(state.meta, theta, candidates=cands, tol=fp["tol"],
                                max_steps=fp["max_steps"], dedup_radius=fp["dedup_radius"])
    dyn.export_fixed_points_csv(fps, state.meta, run.out / f"fixed_points_{label}.csv",
                                comment=run.comment, task_group=group)
    report = {"theta_source": args.theta, "label": label,
              "num_fixed_points": len(fps),
              "max_residual": float(fps.residuals.max()) if len(fps) else None}
    if len(fps) >= 2:
        summ = dyn.summarize_attractor(fps, state.meta, group)
        rho = dyn.spearman(summ.positions, summ.margins)
        report.update({"extent": summ.extent, "thickness": summ.thickness,
                       "extent_thickness_ratio": summ.extent_thickness_ratio,
                       "margin_spearman": rho})
    if args.score_map and ds.valence:
        vals = ds.token_values()
        sets = ([t for t in range(ds.vocab_size) if vals[t] > 0],
                [t for t in range(ds.vocab_size) if vals[t] < 0],
                [t for t in range(ds.vocab_size) if vals[t] == 0])
        gsz = fp["score_grid"]
        grid = dyn.score_map(state.meta, group, state.embeddings, seqs[:16], sets,
                             grid=(gsz, gsz), samples_per_seq=fp["samples_per_seq"],
                             tol=fp["tol"], max_steps=min(fp["max_steps"], 2000),
                             dedup_radius=fp["dedup_radius"], seed=derived_seed(seed, 4))
        atlas_mod.export_grid_csv(grid, run.out / f"score_map_{label}.csv",
                                  comment=run.comment)
    (run.out / f"fixed_points_{label}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True))
    print(f"fixed-points[{label}]: {len(fps)} points"
          + (f", extent/thickness={report.get('extent_thickness_ratio'):.2f}"
             if report.get("extent_thickness_ratio") else ""))
    return EXIT_OK


def cmd_average(args) -> int:
    run = _open_run(args, meta=True)
    ids = args.ids.split(",")
    by_id = {b["model_id"]: (i, b) for i, b in enumerate(run.mf["bases"])}
    for mid in ids:
        if mid not in by_id:
            raise ConfigError(f"unknown base model id {mid!r}")
    tasks_used = {by_id[m][1].get("task") for m in ids}
    if len(tasks_used) != 1:
        raise ConfigError("averaging requires models from a single task")
    task_name = tasks_used.pop()
    ds = run.datasets[task_name]
    group = run.task_group(task_name)
    thetas = [run.state.embeddings[by_id[m][0]] for m in ids]
    thetas.append(atlas_mod.average_embeddings(thetas))
    accs = atlas_mod.grid_accuracies(run.state.meta, np.stack(thetas), group, ds)
    rows = [[mid, acc, by_id[mid][1].get("test_accuracy")] for mid, acc in zip(ids, accs)]
    rows.append(["average", accs[-1], None])
    tasks_mod.write_csv(run.out / "average_report.csv",
                        ["model_id", "meta_accuracy", "base_accuracy"], rows, run.comment)
    print(f"average: {'+'.join(ids)} -> acc {accs[-1]:.4f}")
    return EXIT_OK


# -- entry point ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynamo",
        description="meta-model population pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="run directory")
        p.add_argument("--seed", type=int, default=None, help="seed override")

    p = sub.add_parser("gen-data", help="generate and split the task datasets")
    common(p)
    p = sub.add_parser("train-base", help="train the base-model population")
    common(p)
    p = sub.add_parser("train-meta", help="joint meta/state-map/embedding training")
    common(p)
    p = sub.add_parser("analyze", help="embedding-space analyses and exports")
    common(p)
    p.add_argument("--svcca", action="store_true",
                   help="also run the pairwise SVCCA+MDS baseline (quadratic cost); "
                        "it compares recurrent hidden states, so a residual_mlp "
                        "run is refused with exit 2; skipped, like the landscape, "
                        "when no base model was trained on analysis.landscape_task")
    p = sub.add_parser("ssl", help="optimize an embedding on the labeled split")
    common(p)
    p = sub.add_parser("fixed-points", help="fixed-point / attractor analysis")
    common(p)
    p.add_argument("--theta", required=True,
                   help="base id, centroid:<key>=<value>, or comma-separated floats")
    p.add_argument("--score-map", action="store_true")
    p = sub.add_parser("average", help="evaluate the mean of base embeddings")
    common(p)
    p.add_argument("--ids", required=True, help="comma-separated base model ids")
    return parser


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "train-base": cmd_train_base,
    "train-meta": cmd_train_meta,
    "analyze": cmd_analyze,
    "ssl": cmd_ssl,
    "fixed-points": cmd_fixed_points,
    "average": cmd_average,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, ModelError, tasks_mod.TaskError, TrainerError,
            atlas_mod.AtlasError, dyn.DynamicsError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (IOFailure, OSError) as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
