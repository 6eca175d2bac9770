"""Command-line pipeline: data generation, base-population training, joint
meta training, embedding-space analyses, semi-supervised embedding
optimization, fixed-point analysis, and model averaging.

One flat JSON config drives every stage; commands are composable and write
into a shared run directory. Checkpoints are a JSON manifest next to a blob
of little-endian float32 tensors (float64 in memory, float32 on disk). Every
command is deterministic given its config: re-runs produce byte-identical
CSVs and checkpoints. Exit codes: 0 ok, 2 config error (including an
analysis that does not apply to the model family), 3 I/O error (including a
corrupt or non-finite checkpoint), 4 numeric failure (a non-finite loss or
gradient, or trained state that is not finite in float32, in which case no
checkpoint is written).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import atlas as atlas_mod
from . import dynamics as dyn
from . import tasks as tasks_mod
from .models import BaseModel, MetaModel, StateMap, init_base_model
from .tasks import SequenceDataset, TaskSpec
from .trainer import (
    MetaTrainState,
    NumericError,
    TrainConfig,
    TrainerError,
    export_loss_history,
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

_TASK_KEYS = {"name": str, "kind": str, "vocab_size": int, "num_classes": int,
              "t_min": int, "t_max": int, "noise_rate": (int, float),
              "num_sequences": int, "seed": int}
_SPLIT_KEYS = {"base_train": (int, float), "meta_unlabeled": (int, float),
               "ssl_labeled": (int, float), "seed": int}
_POP_KEYS = {"task": str, "count": int, "cell_kind": str, "hidden_dim": int,
             "input_dim": int, "train_fraction": (int, float),
             "task_group": int, "num_blocks": int, "lr": (int, float),
             "epochs": int}
_TRAIN_KEYS = {"optimizer": str, "lr": (int, float), "epochs": int,
               "max_steps": int, "batch_size": int,
               "weight_decay": (int, float), "cosine": bool,
               "cosine_freq": (int, float), "lambda": (int, float),
               "hidden_metric": str, "output_divergence": str,
               "normalize_hidden_by_dim": bool, "theta_lr": (int, float),
               "momentum": (int, float)}
_META_KEYS = {"cell_kind": str, "hidden_dim": int, "input_dim": int,
              "embed_dim": int}
_ANALYSIS_KEYS = {"grid": int, "extent_scale": (int, float),
                  "variance_threshold": (int, float), "top_k": int,
                  "svcca_dims": int, "svcca_sequences": int, "mds_dim": int,
                  "landscape_task": str}
_SSL_KEYS = {"steps": int, "lr": (int, float), "task": str}
_FP_KEYS = {"tol": (int, float), "dedup_radius": (int, float),
            "max_steps": int, "candidates": int, "samples_per_seq": int,
            "batch_sequences": int, "score_grid": int}
_TOP_KEYS = {"seed": int, "out_dir": str, "tasks": list, "splits": dict,
             "population": list, "base_training": dict, "meta": dict,
             "meta_training": dict, "analysis": dict, "ssl": dict,
             "fixed_points": dict}


def _check_keys(obj: dict, allowed: dict, where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    for key, val in obj.items():
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")
        want = allowed[key]
        if want is list and not isinstance(val, list):
            raise ConfigError(f"{where}.{key} must be a list")
        if want is dict and not isinstance(val, dict):
            raise ConfigError(f"{where}.{key} must be an object")
        if want not in (list, dict) and not isinstance(val, want):
            if not (isinstance(want, tuple) and isinstance(val, want)):
                raise ConfigError(f"{where}.{key} has the wrong type")


def validate_config(cfg: dict) -> dict:
    _check_keys(cfg, _TOP_KEYS, "config")
    if not cfg.get("tasks"):
        raise ConfigError("config.tasks must list at least one task")
    names = set()
    for i, task in enumerate(cfg["tasks"]):
        _check_keys(task, _TASK_KEYS, f"tasks[{i}]")
        for key in ("name", "kind", "vocab_size", "num_classes", "t_min",
                    "t_max", "num_sequences"):
            if key not in task:
                raise ConfigError(f"tasks[{i}] missing {key!r}")
        if task["name"] in names:
            raise ConfigError(f"duplicate task name {task['name']!r}")
        names.add(task["name"])
    splits = cfg.get("splits", {})
    _check_keys(splits, _SPLIT_KEYS, "splits")
    fractions = (splits.get("base_train", 0.44), splits.get("meta_unlabeled", 0.45),
                 splits.get("ssl_labeled", 0.01))
    if min(fractions) < 0 or sum(fractions) > 1.0 + 1e-12:
        raise ConfigError("split fractions must be nonnegative and sum to <= 1")
    for i, entry in enumerate(cfg.get("population", [])):
        _check_keys(entry, _POP_KEYS, f"population[{i}]")
        for key in ("task", "count"):
            if key not in entry:
                raise ConfigError(f"population[{i}] missing {key!r}")
        if entry["task"] not in names:
            raise ConfigError(f"population[{i}] references unknown task "
                              f"{entry['task']!r}")
        if entry["count"] < 1:
            raise ConfigError(f"population[{i}].count must be positive")
    _check_keys(cfg.get("base_training", {}), _TRAIN_KEYS, "base_training")
    _check_keys(cfg.get("meta", {}), _META_KEYS, "meta")
    _check_keys(cfg.get("meta_training", {}), _TRAIN_KEYS, "meta_training")
    _check_keys(cfg.get("analysis", {}), _ANALYSIS_KEYS, "analysis")
    _check_keys(cfg.get("ssl", {}), _SSL_KEYS, "ssl")
    _check_keys(cfg.get("fixed_points", {}), _FP_KEYS, "fixed_points")
    return cfg


def load_config(path) -> dict:
    try:
        raw = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    return validate_config(cfg)


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def train_config_from(section: dict, seed: int, defaults: dict | None = None) -> TrainConfig:
    merged = dict(defaults or {})
    merged.update(section)
    kwargs = {}
    for key, val in merged.items():
        if key == "lambda":
            kwargs["lam"] = float(val)
        elif key in ("lr", "weight_decay", "cosine_freq", "theta_lr", "momentum"):
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
        "embeddings_by_model": {
            info["model_id"]: [float(np.float32(x)) for x in state.embeddings[i]]
            for i, info in enumerate(base_infos)},
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
                               step=mf.get("steps_trained", 0),
                               base_ids=[b["model_id"] for b in mf["bases"]])
        return state, mf


# -- shared command plumbing --------------------------------------------------------


def _out_dir(args, cfg) -> Path:
    if args.out:
        return Path(args.out)
    return Path(cfg.get("out_dir", f"run_{config_hash(cfg)}"))


def _gen_task_dataset(task: dict, splits: dict) -> SequenceDataset:
    spec = TaskSpec(kind=task["kind"], vocab_size=task["vocab_size"],
                    num_classes=task["num_classes"], t_min=task["t_min"],
                    t_max=task["t_max"], noise_rate=task.get("noise_rate", 0.05),
                    seed=task.get("seed", 0), num_sequences=task["num_sequences"])
    ds = tasks_mod.generate(spec)
    fractions = (splits.get("base_train", 0.44), splits.get("meta_unlabeled", 0.45),
                 splits.get("ssl_labeled", 0.01))
    return tasks_mod.split_dataset(ds, fractions, seed=splits.get("seed", 0))


def _load_datasets(cfg: dict, out: Path) -> dict[str, SequenceDataset]:
    datasets = {}
    for task in cfg["tasks"]:
        path = out / "data" / task["name"]
        try:
            datasets[task["name"]] = tasks_mod.load_dataset(path)
        except tasks_mod.TaskError as e:
            raise IOFailure(f"missing dataset {path} (run gen-data first): {e}")
    return datasets


def _population_models(cfg: dict) -> list[dict]:
    """Expand population entries to one record per base model."""
    records = []
    idx = 0
    for entry in cfg.get("population", []):
        for k in range(entry["count"]):
            rec = dict(entry)
            rec["model_id"] = f"base_{idx:03d}"
            rec["member"] = k
            rec["seed"] = derived_seed(cfg.get("seed", 0), 1, idx)
            records.append(rec)
            idx += 1
    if not records:
        raise ConfigError("config.population is empty")
    return records


def _task_cfg(cfg: dict, name: str) -> dict:
    for task in cfg["tasks"]:
        if task["name"] == name:
            return task
    raise ConfigError(f"unknown task {name!r}")


# -- commands ------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args, cfg)
    (out / "data").mkdir(parents=True, exist_ok=True)
    for task in cfg["tasks"]:
        ds = _gen_task_dataset(task, cfg.get("splits", {}))
        tasks_mod.save_dataset(ds, out / "data" / task["name"])
        print(f"gen-data: wrote {task['name']} "
              f"({len(ds)} sequences, vocab {ds.vocab_size})")
    return EXIT_OK


def cmd_train_base(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    out = _out_dir(args, cfg)
    datasets = _load_datasets(cfg, out)
    chash = config_hash(cfg)
    records = _population_models(cfg)
    (out / "base").mkdir(parents=True, exist_ok=True)
    rows = []
    for rec in records:
        ds = datasets[rec["task"]]
        task = _task_cfg(cfg, rec["task"])
        model = init_base_model(
            rec.get("cell_kind", "gru"), task["vocab_size"],
            rec.get("input_dim", 12), rec.get("hidden_dim", 24),
            task["num_classes"], rec.get("task_group", 0), seed=rec["seed"],
            num_blocks=rec.get("num_blocks", 0),
            info={"model_id": rec["model_id"], "task": rec["task"],
                  "train_fraction": rec.get("train_fraction", 1.0),
                  "seed": rec["seed"], "cell_kind": rec.get("cell_kind", "gru"),
                  "task_group": rec.get("task_group", 0)})
        overrides = {k: rec[k] for k in ("lr", "epochs") if k in rec}
        tcfg = train_config_from(dict(cfg.get("base_training", {}), **overrides),
                                 seed=rec["seed"])
        _, curve = train_base(model, ds, tcfg,
                              subfraction=rec.get("train_fraction", 1.0))
        acc = model_accuracy(model, ds)
        model.info["test_accuracy"] = acc
        save_base_checkpoint(out / "base" / rec["model_id"], model)
        rows.append([rec["model_id"], rec["task"], rec.get("cell_kind", "gru"),
                     str(rec.get("hidden_dim", 24)), str(rec.get("train_fraction", 1.0)),
                     str(rec["seed"]), f"{acc:.10g}"])
        print(f"train-base: {rec['model_id']} acc={acc:.3f} "
              f"(epochs={tcfg.epochs}, curve last={curve[-1] if curve else None})")
    header = ["model_id", "task", "cell_kind", "hidden_dim", "train_fraction", "seed",
              "test_accuracy"]
    tasks_mod.write_csv(out / "base" / "metrics.csv", header, rows, f"config_hash={chash}")
    return EXIT_OK


def _load_population(out: Path) -> list[BaseModel]:
    base_dir = out / "base"
    paths = sorted(base_dir.glob("base_*.json"))
    if not paths:
        raise IOFailure(f"no base checkpoints under {base_dir}")
    return [load_base_checkpoint(p.with_suffix("")) for p in paths]


def cmd_train_meta(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    out = _out_dir(args, cfg)
    datasets = _load_datasets(cfg, out)
    bases = _load_population(out)
    chash = config_hash(cfg)
    section = dict(cfg.get("meta_training", {}))
    if args.lam is not None:
        section["lambda"] = args.lam
    if args.metric is not None:
        section["hidden_metric"] = {"l1": "L1", "l2": "L2_squared"}[args.metric]
    if args.steps is not None:
        section["max_steps"] = args.steps
    tcfg = train_config_from(section, seed=derived_seed(cfg.get("seed", 0), 2))
    ds_list = [datasets[b.info["task"]] for b in bases]
    state = train_meta(bases, ds_list, tcfg, dict(cfg.get("meta", {})))
    base_infos = [dict(b.info) for b in bases]
    save_meta_checkpoint(out / "meta", state, base_infos,
                         extra={"config_hash": chash, "lambda": tcfg.lam,
                                "hidden_metric": tcfg.hidden_metric})
    export_loss_history(state.history, out / "meta_loss.csv",
                        comment=f"config_hash={chash}")
    final = state.history[-1] if state.history else (0, 0, 0.0, 0.0, 0.0)
    print(f"train-meta: {len(bases)} bases, {state.step} steps, "
          f"final total loss {final[4]:.4f}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args, cfg)
    datasets = _load_datasets(cfg, out)
    state, mf = load_meta_checkpoint(out / "meta")
    if args.svcca and state.meta.cell_kind == "residual_mlp":
        # checked before any output is written, so a refused run leaves none
        raise ConfigError("--svcca compares recurrent hidden states; "
                          "this run's population is residual_mlp")
    chash = config_hash(cfg)
    comment = f"config_hash={chash}"
    an = cfg.get("analysis", {})
    metadata = [dict(b) for b in mf["bases"]]
    atlas = atlas_mod.fit_pca(state.embeddings, metadata)
    atlas_mod.export_atlas_csv(atlas, out / "atlas.csv", comment,
                               top_k=an.get("top_k", 3))
    atlas_mod.export_spectrum_csv(atlas, out / "spectrum.csv", comment)
    k95 = atlas_mod.components_for_variance(atlas.spectrum,
                                            an.get("variance_threshold", 0.95))
    summary = {"components_for_variance": k95,
               "variance_threshold": an.get("variance_threshold", 0.95)}
    coords = atlas.project(state.embeddings, 2)
    for key in ("train_fraction", "task", "cell_kind"):
        vals = [m.get(key) for m in metadata]
        if len(set(vals)) >= 2:
            summary[f"silhouette_{key}"] = atlas_mod.silhouette(coords, vals)

    task_name = an.get("landscape_task", cfg["tasks"][0]["name"])
    ds = datasets[task_name]
    group_rows = [i for i, m in enumerate(metadata) if m.get("task") == task_name]
    if group_rows:
        group = metadata[group_rows[0]].get("task_group", 0)
        best_base = max(m.get("test_accuracy", 0.0) for m in metadata
                        if m.get("task") == task_name)
        grid_n = an.get("grid", 15)
        grid = atlas_mod.accuracy_landscape(
            state.meta, group, ds, state.embeddings[group_rows],
            grid=(grid_n, grid_n), extent_scale=an.get("extent_scale", 1.5),
            best_base_accuracy=best_base or None)
        atlas_mod.export_landscape_csv(grid, out / "landscape.csv", comment)
        summary["landscape_argmax_accuracy"] = grid.argmax_accuracy
        summary["landscape_argmax_uv"] = list(grid.argmax_uv)
        summary["best_base_accuracy"] = best_base

    if args.svcca:
        bases = _load_population(out)
        rows = [i for i, b in enumerate(bases) if b.info.get("task") == task_name]
        seqs, _ = ds.subset(ds.indices("test")[:an.get("svcca_sequences", 50)])
        acts = [atlas_mod.hidden_state_matrix(bases[i], seqs) for i in rows]
        n = len(acts)
        D = np.zeros((n, n))
        dims = an.get("svcca_dims", 20)
        for i in range(n):
            for j in range(i + 1, n):
                dkept = min(dims, acts[i].shape[1], acts[j].shape[1],
                            acts[i].shape[0])
                D[i, j] = D[j, i] = atlas_mod.svcca_distance(acts[i], acts[j],
                                                             dims_kept=dkept)
        coords_mds = atlas_mod.classical_mds(D, an.get("mds_dim", 2))
        tasks_mod.write_csv(
            out / "svcca_mds.csv",
            ["model_id"] + [f"mds_{k}" for k in range(coords_mds.shape[1])],
            [[bases[i].info["model_id"]] + [f"{x:.10g}" for x in coords_mds[r]]
             for r, i in enumerate(rows)], comment)
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
    cfg = load_config(args.config)
    out = _out_dir(args, cfg)
    datasets = _load_datasets(cfg, out)
    state, mf = load_meta_checkpoint(out / "meta")
    chash = config_hash(cfg)
    ssl_cfg = cfg.get("ssl", {})
    task_name = ssl_cfg.get("task", cfg["tasks"][0]["name"])
    ds = datasets[task_name]
    group = next((b.get("task_group", 0) for b in mf["bases"]
                  if b.get("task") == task_name),
                 int(sorted(mf["head_dims"])[0]))
    steps = args.steps if args.steps is not None else ssl_cfg.get("steps", 100)
    before = {k: v.copy() for k, v in state.meta.params.items()}
    theta, thetas, losses = atlas_mod.ssl_optimize(
        state.meta, group, ds, steps=steps, lr=ssl_cfg.get("lr", 1.0))
    frozen = all(np.array_equal(state.meta.params[k], v) for k, v in before.items())
    print(f"ssl: frozen-meta assertion {'ok' if frozen else 'VIOLATED'}")
    accs = atlas_mod.grid_accuracies(state.meta, thetas, group, ds)
    atlas_mod.export_ssl_csv(thetas, losses, accs, out / "ssl_trajectory.csv",
                             comment=f"config_hash={chash}")
    best_base = max((b.get("test_accuracy", 0.0) for b in mf["bases"]
                     if b.get("task") == task_name), default=0.0)
    delta = float(accs[-1]) - best_base
    result = {"theta_final": [float(x) for x in theta],
              "test_accuracy": float(accs[-1]),
              "best_base_accuracy": best_base,
              "improvement_over_best_base": delta,
              "steps": steps}
    (out / "ssl_result.json").write_text(json.dumps(result, indent=1,
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
    cfg = load_config(args.config)
    out = _out_dir(args, cfg)
    datasets = _load_datasets(cfg, out)
    state, mf = load_meta_checkpoint(out / "meta")
    chash = config_hash(cfg)
    fp = cfg.get("fixed_points", {})
    task_name = cfg.get("ssl", {}).get("task", cfg["tasks"][0]["name"])
    ds = datasets[task_name]
    group = next((b.get("task_group", 0) for b in mf["bases"]
                  if b.get("task") == task_name), 0)
    label, theta = _resolve_theta(args.theta, state, mf)
    pool = ds.indices("meta_unlabeled")[:fp.get("batch_sequences", 64)]
    seqs, _ = ds.subset(pool)
    n_cand = fp.get("candidates", 512)
    per_seq = max(1, int(np.ceil(n_cand / max(1, len(seqs)))))
    cands = dyn.collect_candidates(state.meta, theta, seqs, per_seq,
                                   task_group=group,
                                   seed=derived_seed(cfg.get("seed", 0), 3))
    cands = cands[:n_cand]
    max_steps = args.steps if args.steps is not None else fp.get("max_steps", 5000)
    fps = dyn.find_fixed_points(state.meta, theta, None, cands,
                                tol=fp.get("tol", 1e-4),
                                max_steps=max_steps,
                                dedup_radius=fp.get("dedup_radius", 1e-2))
    dyn.export_fixed_points_csv(fps, state.meta, out / f"fixed_points_{label}.csv",
                                comment=f"config_hash={chash}", task_group=group)
    report = {"theta_source": args.theta, "label": label,
              "num_fixed_points": len(fps),
              "max_residual": float(fps.residuals.max()) if len(fps) else None}
    if len(fps) >= 2:
        summ = dyn.summarize_attractor(fps, state.meta, group)
        rho = dyn.spearman(summ.positions, summ.margins)
        report.update({"extent": summ.extent, "thickness": summ.thickness,
                       "extent_thickness_ratio": (summ.extent / summ.thickness
                                                  if summ.thickness > 0 else None),
                       "margin_spearman": rho})
    if args.score_map and ds.valence:
        vals = ds.token_values()
        sets = ([t for t in range(ds.vocab_size) if vals[t] > 0],
                [t for t in range(ds.vocab_size) if vals[t] < 0],
                [t for t in range(ds.vocab_size) if vals[t] == 0])
        gsz = fp.get("score_grid", 7)
        grid = dyn.score_map(state.meta, group, state.embeddings, seqs[:16], sets,
                             grid=(gsz, gsz), samples_per_seq=2,
                             tol=fp.get("tol", 1e-4),
                             max_steps=min(max_steps, 2000),
                             dedup_radius=fp.get("dedup_radius", 1e-2),
                             seed=derived_seed(cfg.get("seed", 0), 4))
        dyn.export_score_map_csv(grid, out / f"score_map_{label}.csv",
                                 comment=f"config_hash={chash}")
    (out / f"fixed_points_{label}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True))
    print(f"fixed-points[{label}]: {len(fps)} points"
          + (f", extent/thickness={report.get('extent_thickness_ratio'):.2f}"
             if report.get("extent_thickness_ratio") else ""))
    return EXIT_OK


def cmd_average(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args, cfg)
    datasets = _load_datasets(cfg, out)
    state, mf = load_meta_checkpoint(out / "meta")
    chash = config_hash(cfg)
    ids = args.ids.split(",")
    by_id = {b["model_id"]: (i, b) for i, b in enumerate(mf["bases"])}
    for mid in ids:
        if mid not in by_id:
            raise ConfigError(f"unknown base model id {mid!r}")
    tasks_used = {by_id[m][1].get("task") for m in ids}
    if len(tasks_used) != 1:
        raise ConfigError("averaging requires models from a single task")
    task_name = tasks_used.pop()
    ds = datasets[task_name]
    group = by_id[ids[0]][1].get("task_group", 0)
    rows = []
    thetas = [state.embeddings[by_id[m][0]] for m in ids]
    for mid, th in zip(ids, thetas):
        acc = atlas_mod.evaluate_at(state.meta, th, group, ds)
        base_acc = by_id[mid][1].get("test_accuracy")
        base_cell = f"{base_acc:.10g}" if base_acc is not None else ""
        rows.append([mid, f"{acc:.10g}", base_cell])
    avg_theta = atlas_mod.average_embeddings(thetas)
    avg_acc = atlas_mod.evaluate_at(state.meta, avg_theta, group, ds)
    rows.append(["average", f"{avg_acc:.10g}", ""])
    tasks_mod.write_csv(out / "average_report.csv",
                        ["model_id", "meta_accuracy", "base_accuracy"], rows,
                        f"config_hash={chash}")
    print(f"average: {'+'.join(ids)} -> acc {avg_acc:.4f}")
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
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="output-loss weight override")
    p.add_argument("--metric", choices=["l1", "l2"], default=None,
                   help="hidden-distance override")
    p.add_argument("--steps", type=int, default=None, help="step-count override")
    p = sub.add_parser("analyze", help="embedding-space analyses and exports")
    common(p)
    p.add_argument("--svcca", action="store_true",
                   help="also run the pairwise SVCCA+MDS baseline (quadratic cost)")
    p = sub.add_parser("ssl", help="optimize an embedding on the labeled split")
    common(p)
    p.add_argument("--steps", type=int, default=None)
    p = sub.add_parser("fixed-points", help="fixed-point / attractor analysis")
    common(p)
    p.add_argument("--theta", required=True,
                   help="base id, centroid:<key>=<value>, or comma-separated floats")
    p.add_argument("--steps", type=int, default=None)
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
    except (ConfigError, tasks_mod.TaskError, TrainerError,
            atlas_mod.AtlasError, dyn.DynamicsError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except IOFailure as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
