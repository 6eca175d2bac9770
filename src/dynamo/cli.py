"""Command-line pipeline: data generation, base-population training, joint
meta training, embedding-space analyses, semi-supervised embedding
optimization, fixed-point analysis, and model averaging.

One flat JSON config drives every stage. The schema under "configuration"
below (`_CONFIG` and its sections) is the config reference: every key, its
type and its default. The config is a run's only input, and each of its values
has one key: no flag sets a value, and `analysis.task` names the task that
`analyze`, `ssl` and `fixed-points` read. Commands are composable and write
into a shared run directory, `--out` or else `run_<hash of the config as
written>`; the remaining flags name what a command reads or adds (`--theta`,
`--ids`, `--svcca`, `--score-map`).
Every command checks the whole config as it loads it: each value against the
schema, and each task and training section as its module builds it. The range
checks include a finite value for every number (`_NUM`: no NaN or Infinity), a
size of at least 1 (`_SIZE`, `fixed_points.candidates` and `score_grid` among
them), a positive `ssl.lr` and `fixed_points.tol`, a
`population[].train_fraction` in (0, 1], no `num_blocks` on a recurrent entry
and a nonnegative `fixed_points.dedup_radius`. An empty `ssl_labeled` split
passes the load: only `ssl` reads it, so only `ssl` refuses it (exit 2, writing
nothing), and a run that never calls `ssl` works.
Checkpoints are a JSON manifest next to a blob of little-endian float32
tensors (float64 in memory, float32 on disk). Every command is deterministic
given its config: re-runs produce byte-identical CSVs and checkpoints. Exit
codes: 0 ok, 2 config error (including an unknown cell kind, an analysis that
does not apply to the model family or task, or a task no base model was
trained on), 3 I/O error (including a corrupt or non-finite checkpoint, a
checkpoint whose tensors are not those of the model its manifest describes, a
corrupt dataset, or an output that cannot be written), 4 numeric failure (a
non-finite loss or gradient, or trained state that is not finite in float32,
in which case no checkpoint is written).

Only `Run.write` puts a file in the run directory. It writes every payload it
is handed into a staging directory there, and only then renames each file into
place, moving the file it replaces aside into the staging directory first. If
a rename fails, it puts every file it replaced back and removes every file and
directory it added. Each command hands it all its outputs at once, but gen-data
hands each task's dataset, and train-base each population entry's checkpoints
(its models train in lockstep) and then `base/metrics.csv`. So a command that
refuses its run (exit 2), diverges (exit 4) or cannot write an output (exit 3,
also when a directory or file is in an output path's way or a rename fails)
leaves the run directory as it was, apart from the datasets or entries written
earlier.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import fields
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import atlas as atlas_mod
from . import dynamics as dyn
from . import tasks as tasks_mod
from .models import (CELL_KINDS, BaseModel, MetaModel, ModelError, init_base_model,
                     init_meta_model, init_state_map)
from .tasks import SequenceDataset, TaskError, TaskSpec
from .trainer import (
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
# An int is at least 0; a _SIZE, an int that sizes an array, a grid or a
# population entry, is at least 1; a _NUM is finite. No key takes a bool, and a
# bool is refused where a number goes, though it subclasses int. A setting with
# one value in use is a constant where it is read (`trainer.WEIGHT_DECAY`).

_REQUIRED = object()
_STEM = re.compile(r"[A-Za-z0-9_-]+")  # a task name or a theta label: a file stem
_SIZE = (int,)  # told apart from int by identity
_NUM = (int, float)

_TASK = {"name": (str, _REQUIRED), "kind": (str, _REQUIRED),
         "vocab_size": (int, _REQUIRED), "num_classes": (int, _REQUIRED),
         "t_min": (int, _REQUIRED), "t_max": (int, _REQUIRED),
         "noise_rate": (_NUM, 0.05), "num_sequences": (int, _REQUIRED),
         "seed": (int, 0)}
_SPLITS = {"base_train": (_NUM, 0.44), "meta_unlabeled": (_NUM, 0.45),
           "ssl_labeled": (_NUM, 0.01), "seed": (int, 0)}
_POPULATION = {"task": (str, _REQUIRED), "count": (_SIZE, _REQUIRED),
               "cell_kind": (CELL_KINDS, "gru"), "hidden_dim": (_SIZE, 24),
               "input_dim": (_SIZE, 12), "train_fraction": (_NUM, 1.0),
               "task_group": (int, 0), "num_blocks": (int, 0)}
_TRAINING = {"lr": (_NUM, None), "batch_size": (int, None)}  # both sections take them
_BASE_TRAINING = {**_TRAINING, "epochs": (int, None)}
_META_TRAINING = {**_TRAINING, "max_steps": (int, None), "lambda": (_NUM, None)}
_META = {"cell_kind": (CELL_KINDS, None), "hidden_dim": (_SIZE, None),
         "input_dim": (_SIZE, None), "embed_dim": (_SIZE, None)}
_ANALYSIS = {"grid": (_SIZE, 15), "svcca_sequences": (_SIZE, 50),
             "task": (str, None)}  # resolved to the first task; ssl and fixed-points read it
_SSL = {"steps": (int, 100), "lr": (_NUM, 1.0)}
_FIXED_POINTS = {"tol": (_NUM, 1e-4), "dedup_radius": (_NUM, 1e-2),
                 "max_steps": (int, 5000), "candidates": (_SIZE, 512),
                 "score_grid": (_SIZE, 7)}
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
    elif not isinstance(val, kind) or isinstance(val, bool):
        raise ConfigError(f"{where} has the wrong type")
    elif kind is _NUM and not abs(val) <= sys.float_info.max:  # NaN, +-Infinity
        raise ConfigError(f"{where} must be a finite number")
    elif kind is int or kind is _SIZE:
        low = int(kind is _SIZE)
        if val < low:
            raise ConfigError(f"{where} must be >= {low}")
    return val


def _split_fractions(splits: dict) -> tuple[float, float, float]:
    return splits["base_train"], splits["meta_unlabeled"], splits["ssl_labeled"]


@contextmanager
def _reraised(error: type, where: str, *caught: type):
    """Re-raise a `caught` exception as `error`, after `where`."""
    try:
        yield
    except caught as e:
        raise error(f"{where}: {e!r}") from e


def validate_config(cfg: dict) -> dict:
    """Check `cfg`, each task and each training section as the commands build
    them, and return a resolved copy with every default filled in. Raises ConfigError."""
    cfg = _resolve(cfg, _CONFIG, "config")
    names = [task["name"] for task in cfg["tasks"]]
    if not names:
        raise ConfigError("config.tasks must list at least one task")
    for i, name in enumerate(names):
        if not _STEM.fullmatch(name):
            raise ConfigError(f"task name {name!r} must match {_STEM.pattern}")
        if name in names[:i]:
            raise ConfigError(f"duplicate task name {name!r}")
        with _reraised(ConfigError, f"config.tasks[{i}]", TaskError):
            TaskSpec(**cfg["tasks"][i]).validate()
    fractions = _split_fractions(cfg["splits"])
    if min(fractions) < 0 or sum(fractions) > 1.0 + 1e-12:
        raise ConfigError("split fractions must be nonnegative and sum to <= 1")
    n_base = {}  # each task's base_train examples
    for task in cfg["tasks"]:
        n = task["num_sequences"]
        sizes = [tasks_mod.share(f, n) for f in fractions]
        n_base[task["name"]] = sizes[0]
        for split, size in zip(("base_train", "meta_unlabeled", "test"),
                               (*sizes[:2], n - sum(sizes))):
            if not size:
                raise ConfigError(f"splits leave task {task['name']!r} an empty {split} split")
    heads, vocabs = {}, {task["name"]: task["vocab_size"] for task in cfg["tasks"]}
    for i, entry in enumerate(cfg["population"]):
        if entry["task"] not in names:
            raise ConfigError(f"population[{i}] references unknown task "
                              f"{entry['task']!r}")
        if not 0 < entry["train_fraction"] <= 1:
            raise ConfigError(f"population[{i}].train_fraction must be in (0, 1]")
        if tasks_mod.share(entry["train_fraction"], n_base[entry["task"]]) < 1:
            raise ConfigError(f"population[{i}].train_fraction selects no base_train "
                              f"example of task {entry['task']!r}")
        if entry["cell_kind"] == "residual_mlp" and entry["input_dim"] != vocabs[entry["task"]]:
            # residual features are bag-of-tokens vectors as wide as the vocabulary
            raise ConfigError(f"population[{i}].input_dim must equal the vocab_size "
                              f"of task {entry['task']!r} for a residual_mlp entry")
        if (entry["cell_kind"] == "residual_mlp") != (entry["num_blocks"] > 0):
            raise ConfigError(f"population[{i}].num_blocks must be >= 1 for residual_mlp "
                              "and 0 for a recurrent cell")
        if heads.setdefault(entry["task"], entry["task_group"]) != entry["task_group"]:
            raise ConfigError(f"population[{i}] gives task {entry['task']!r} a second "
                              "task_group; each task has one readout head")
    if cfg["analysis"].setdefault("task", names[0]) not in names:
        raise ConfigError(f"analysis.task references unknown task {cfg['analysis']['task']!r}")
    for section in ("base_training", "meta_training"):
        with _reraised(ConfigError, section, TrainerError):
            train_config_from(cfg[section])
    for section, key in (("ssl", "lr"), ("fixed_points", "tol")):
        if not cfg[section][key] > 0:
            raise ConfigError(f"{section}.{key} must be > 0")
    if cfg["fixed_points"]["dedup_radius"] < 0:  # 0 still merges exact duplicates
        raise ConfigError("fixed_points.dedup_radius must be >= 0")
    return cfg


def load_config(path) -> tuple[dict, str]:
    """Read the JSON config at `path` and return the resolved config with the
    hash of the config as written."""
    try:
        raw = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    return validate_config(cfg), config_hash(cfg)


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def train_config_from(section: dict, seed: int = 0) -> TrainConfig:
    """The TrainConfig of a training section, each key the schema marks `_NUM`
    cast to float and `lambda` given as `lam`."""
    kinds = _BASE_TRAINING | _META_TRAINING
    cfg = TrainConfig(seed=seed, **{"lam" if key == "lambda" else key:
                                    float(val) if kinds[key][0] is _NUM else val
                                    for key, val in section.items()})
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
    tasks_mod.write_json(prefix.with_suffix(".json"), manifest)
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


def _manifest_fields(prefix):
    """Turn a missing, malformed or unknown-model manifest field into IOFailure."""
    return _reraised(IOFailure, f"corrupt checkpoint manifest {prefix}.json",
                     KeyError, TypeError, ValueError, AttributeError, ModelError)


def _match_manifest(prefix, tensors: dict, described: dict) -> None:
    """Raise IOFailure unless the loaded `tensors` have exactly the names and
    shapes of `described`, the tensors of the model the manifest describes."""
    found, want = ({k: v.shape for k, v in d.items()} for d in (tensors, described))
    bad = [f"{k} {found.get(k, 'absent')}, manifest {want.get(k, 'absent')}"
           for k in sorted(found.keys() | want.keys()) if found.get(k) != want.get(k)]
    if bad:
        raise IOFailure(f"checkpoint {prefix} does not match its manifest: {'; '.join(bad)}")


def _described(model_type) -> list[str]:
    """The manifest fields of a model: its dataclass fields but `params`."""
    return [f.name for f in fields(model_type) if f.name != "params"]


def base_checkpoint(model: BaseModel) -> tuple[dict, dict]:
    """A base model's checkpoint payload: its tensors and manifest."""
    return model.params, {"kind": "base_model",
                          **{k: getattr(model, k) for k in _described(model)}}


def load_base_checkpoint(prefix) -> BaseModel:
    tensors, mf = load_checkpoint(prefix)
    with _manifest_fields(prefix):
        model = init_base_model(**{k: mf[k] for k in _described(BaseModel)}, seed=0)
    if not {"model_id", "task"} <= model.info.keys():  # train-meta reads them
        raise IOFailure(f"base checkpoint {prefix} has no info.model_id or info.task")
    _match_manifest(prefix, tensors, model.params)
    model.params = tensors
    return model


def _meta_tensors(state: MetaTrainState) -> dict[str, np.ndarray]:
    """A meta checkpoint's tensors by name: meta parameters, state maps, embeddings."""
    tensors = {f"meta/{k}": v for k, v in state.meta.params.items()}
    for i, vm in enumerate(state.state_maps):
        tensors.update({f"vmap{i}/{k}": a for k, a in vm.items()})
    tensors["embeddings"] = state.embeddings
    return tensors


def meta_checkpoint(state: MetaTrainState, base_infos: list[dict],
                    extra: dict) -> tuple[dict, dict]:
    """A meta-training state's checkpoint payload: its tensors and manifest."""
    meta = state.meta
    with np.errstate(over="ignore"):  # save_checkpoint refuses what overflows
        by_model = {info["model_id"]: [float(np.float32(x)) for x in state.embeddings[i]]
                    for i, info in enumerate(base_infos)}
    manifest = {
        "kind": "meta_model",
        **{k: getattr(meta, k) for k in _described(meta)},
        "head_dims": {str(k): v for k, v in meta.head_dims.items()},
        "bases": base_infos,
        "embeddings_by_model": by_model,
        "steps_trained": state.step,
    }
    manifest.update(extra)
    return _meta_tensors(state), manifest


def load_meta_checkpoint(prefix) -> tuple[MetaTrainState, dict]:
    tensors, mf = load_checkpoint(prefix)
    with _manifest_fields(prefix):
        kwargs = {k: mf[k] for k in _described(MetaModel)}
        kwargs["head_dims"] = {int(k): v for k, v in kwargs["head_dims"].items()}
        meta = init_meta_model(**kwargs, seed=0)
        ids = [base["model_id"] for base in mf["bases"]]  # analyze --svcca reads them
        # the manifest gives no base's hidden width; its state map's bias does
        maps = [init_state_map(meta.hidden_dim, np.size(tensors.get(f"vmap{i}/b0", 0)),
                               meta.num_blocks, seed=0) for i in range(len(ids))]
        state = MetaTrainState(meta, maps, np.zeros((len(maps), meta.embed_dim)),
                               step=mf.get("steps_trained", 0))
    described = _meta_tensors(state)
    _match_manifest(prefix, tensors, described)
    for k, a in described.items():
        a[...] = tensors[k]
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

    def write(self, outputs: dict) -> None:
        """Write `outputs`, each a path relative to the run directory mapped to
        its payload: a SequenceDataset (`tasks.save_dataset`), `(header, rows)`
        for a `.csv` path (`tasks.write_csv`, under the config hash), an object
        for a `.json` path (`tasks.write_json`), and `(tensors, manifest)` for
        any other path, a checkpoint prefix (`save_checkpoint`). If a rename
        fails, it undoes each rename and new directory, last first."""
        self.out.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=self.out))
        try:
            for name, payload in outputs.items():
                path = staging / name
                path.parent.mkdir(parents=True, exist_ok=True)
                if isinstance(payload, SequenceDataset):
                    tasks_mod.save_dataset(payload, path)
                elif path.suffix == ".csv":
                    tasks_mod.write_csv(path, *payload, f"config_hash={self.chash}")
                elif path.suffix == ".json":
                    tasks_mod.write_json(path, payload)
                else:
                    save_checkpoint(path, *payload)
            moves = {p: self.out / p.relative_to(staging)
                     for p in sorted(staging.rglob("*")) if p.is_file()}
            for target in moves.values():
                if target.is_dir() or any(d.is_file() for d in target.parents):
                    raise IOFailure(f"cannot write {target}: a directory or file is in the way")
            undo = []  # the steps that put the run directory back
            try:
                for i, (staged, target) in enumerate(moves.items()):
                    for d in reversed(target.parents):
                        if not d.exists():
                            d.mkdir()
                            undo.append(d.rmdir)
                    if target.exists():  # moved aside, out of the outputs' names
                        os.replace(target, staging / f".replaced{i}")
                        undo.append(partial(os.replace, staging / f".replaced{i}", target))
                    else:
                        undo.append(partial(target.unlink, missing_ok=True))
                    os.replace(staged, target)
            except OSError:
                for step in reversed(undo):
                    step()
                raise
        finally:
            shutil.rmtree(staging)

    def task_rows(self, task_name: str) -> list[int]:
        """Indices of the base models trained on `task_name`: their rows of
        the embeddings span the plane of that task's landscape and score map."""
        return [i for i, base in enumerate(self.mf["bases"])
                if base.get("task") == task_name]

    def task_group(self, task_name: str) -> int:
        """The readout head of the base models trained on `task_name`."""
        rows = self.task_rows(task_name)
        if not rows:
            raise ConfigError(f"no base model was trained on task {task_name!r}, "
                              "so no readout head serves it")
        return self.mf["bases"][rows[0]].get("task_group", 0)

    def best_base_accuracy(self, task_name: str) -> float:
        """The best test accuracy of the base models trained on `task_name`."""
        return max(self.mf["bases"][i].get("test_accuracy", 0.0)
                   for i in self.task_rows(task_name))


def _open_run(args, datasets: bool = True, meta: bool = False) -> Run:
    cfg, chash = load_config(args.config)
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


def _population_models(cfg: dict) -> list[list[dict]]:
    """Expand each population entry to one record per base model."""
    entries, idx = [], 0
    for entry in cfg["population"]:
        entries.append([dict(entry, model_id=f"base_{i:03d}",
                             seed=derived_seed(cfg["seed"], 1, i))
                        for i in range(idx, idx + entry["count"])])
        idx += entry["count"]
    if not entries:
        raise ConfigError("config.population is empty")
    return entries


# -- commands ------------------------------------------------------------------------

# Settings of the analyses, each the first implementation's value: the share of
# the embeddings' variance `analyze` counts PCA components for, the classical-MDS
# dimensions of the SVCCA baseline, the `meta_unlabeled` sequences whose
# rollouts give `fixed-points` its candidates, and the score map's per sequence.
VARIANCE_THRESHOLD, MDS_DIM = 0.95, 2
CANDIDATE_SEQUENCES, SCORE_MAP_SAMPLES = 64, 2


def cmd_gen_data(args) -> int:
    run = _open_run(args, datasets=False)
    splits = run.cfg["splits"]
    for task in run.cfg["tasks"]:
        ds = tasks_mod.split_dataset(tasks_mod.generate(TaskSpec(**task)),
                                     _split_fractions(splits), seed=splits["seed"])
        run.write({f"data/{task['name']}": ds})
        print(f"gen-data: wrote {task['name']} "
              f"({len(ds)} sequences, vocab {ds.vocab_size})")
    return EXIT_OK


def cmd_train_base(args) -> int:
    run = _open_run(args)
    tasks = {task["name"]: task for task in run.cfg["tasks"]}
    population = _population_models(run.cfg)
    tcfg = train_config_from(run.cfg["base_training"])
    rows = []
    for records in population:
        entry = records[0]
        task = tasks[entry["task"]]
        bases = [init_base_model(
            rec["cell_kind"], task["vocab_size"], rec["input_dim"], rec["hidden_dim"],
            task["num_classes"], rec["task_group"], seed=rec["seed"],
            num_blocks=rec["num_blocks"],
            info={"model_id": rec["model_id"], "task": rec["task"],
                  "train_fraction": rec["train_fraction"], "seed": rec["seed"],
                  "cell_kind": rec["cell_kind"], "task_group": rec["task_group"]})
            for rec in records]
        ds = run.datasets[entry["task"]]
        train_base(bases, ds, tcfg, [rec["seed"] for rec in records],
                   subfraction=entry["train_fraction"])
        for rec, model in zip(records, bases):
            acc = model_accuracy(model, ds)
            model.info["test_accuracy"] = acc
            # train_fraction is Python's str of the float (1.0, not the cell rule's 1)
            rows.append([rec["model_id"], rec["task"], rec["cell_kind"], rec["hidden_dim"],
                         str(rec["train_fraction"]), rec["seed"], acc])
            print(f"train-base: {rec['model_id']} acc={acc:.3f} (epochs={tcfg.epochs})")
        run.write({f"base/{rec['model_id']}": base_checkpoint(model)
                   for rec, model in zip(records, bases)})
    header = ["model_id", "task", "cell_kind", "hidden_dim", "train_fraction", "seed",
              "test_accuracy"]
    run.write({"base/metrics.csv": (header, rows)})
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
    extra = {"config_hash": run.chash, "lambda": tcfg.lam}
    run.write({"meta": meta_checkpoint(state, [dict(b.info) for b in bases], extra),
               "meta_loss.csv": (["step", "model_id", "hidden_loss", "output_loss",
                                  "total_loss"], state.history)})
    final = state.history[-1] if state.history else (0, 0, 0.0, 0.0, 0.0)
    print(f"train-meta: {len(bases)} bases, {state.step} steps, "
          f"final total loss {final[4]:.4f}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    run = _open_run(args, meta=True)
    an, state = run.cfg["analysis"], run.state
    if args.svcca and state.meta.cell_kind == "residual_mlp":
        raise ConfigError("--svcca compares recurrent hidden states; "
                          "this run's population is residual_mlp")
    metadata = run.mf["bases"]
    task_name = an["task"]
    group_rows = run.task_rows(task_name)
    svcca_bases = [load_base_checkpoint(run.out / "base" / metadata[i]["model_id"])
                   for i in group_rows] if args.svcca else []
    atlas = atlas_mod.fit_pca(state.embeddings)
    k95 = atlas_mod.components_for_variance(atlas.spectrum, VARIANCE_THRESHOLD)
    outputs = {"atlas.csv": atlas_mod.atlas_table(atlas, state.embeddings, metadata),
               "spectrum.csv": atlas.spectrum_table()}
    summary = {"components_for_variance": k95, "variance_threshold": VARIANCE_THRESHOLD}
    coords = atlas.project(state.embeddings, 2)
    for key in ("train_fraction", "task", "cell_kind"):
        vals = [m.get(key) for m in metadata]
        if atlas_mod.clustered(vals):
            summary[f"silhouette_{key}"] = atlas_mod.silhouette(coords, vals)

    ds = run.datasets[task_name]
    if group_rows:
        best_base = run.best_base_accuracy(task_name)
        plane = atlas_mod.plane_grid(state.embeddings[group_rows], (an["grid"], an["grid"]))
        grid = atlas_mod.accuracy_landscape(state.meta, run.task_group(task_name), ds, plane,
                                            best_base_accuracy=best_base or None)
        argmax_uv, summary["landscape_argmax_accuracy"] = grid.argmax("accuracy")
        summary["landscape_argmax_uv"] = list(argmax_uv)
        summary["best_base_accuracy"] = best_base
        outputs["landscape.csv"] = atlas_mod.grid_table(grid)

    if svcca_bases:
        seqs, _ = ds.subset(ds.indices("test")[:an["svcca_sequences"]])
        D = atlas_mod.svcca_distances([atlas_mod.hidden_state_matrix(b, seqs)
                                       for b in svcca_bases], atlas_mod.SVCCA_DIMS)
        coords_mds = atlas_mod.classical_mds(D, MDS_DIM)
        svcca_labels = [b.info.get("train_fraction") for b in svcca_bases]
        if atlas_mod.clustered(svcca_labels):
            summary["silhouette_svcca_mds"] = atlas_mod.silhouette(
                coords_mds, svcca_labels)
        outputs["svcca_mds.csv"] = (
            ["model_id"] + [f"mds_{k}" for k in range(coords_mds.shape[1])],
            [[b.info["model_id"], *coords_mds[r]] for r, b in enumerate(svcca_bases)])

    outputs["analysis_summary.json"] = summary
    run.write(outputs)
    print(f"analyze: components for 95% variance = {k95}; "
          + "; ".join(f"{k}={v:.3f}" for k, v in summary.items()
                      if k.startswith("silhouette")))
    return EXIT_OK


def cmd_ssl(args) -> int:
    run = _open_run(args, meta=True)
    ssl_cfg, state = run.cfg["ssl"], run.state
    task_name = run.cfg["analysis"]["task"]
    group = run.task_group(task_name)
    ds = run.datasets[task_name]
    theta, thetas, losses, taken = atlas_mod.ssl_optimize(
        state.meta, group, ds, steps=ssl_cfg["steps"], lr=ssl_cfg["lr"])
    accs = atlas_mod.grid_accuracies(state.meta, thetas, group, ds)
    header = ["step", *(f"theta_{j}" for j in range(len(theta))), "labeled_loss",
              "test_accuracy"]
    rows = [[k, *th, loss, acc]
            for k, (th, loss, acc) in enumerate(zip(thetas, losses, accs))]
    best_base = run.best_base_accuracy(task_name)
    delta = float(accs[-1]) - best_base
    result = {"theta_final": [float(x) for x in theta],
              "test_accuracy": float(accs[-1]),
              "best_base_accuracy": best_base,
              "improvement_over_best_base": delta,
              "steps": ssl_cfg["steps"],
              "steps_taken": taken}
    run.write({"ssl_trajectory.csv": (header, rows), "ssl_result.json": result})
    print(f"ssl: final acc {accs[-1]:.4f} vs best base {best_base:.4f} "
          f"(delta {delta:+.4f})")
    return EXIT_OK


def _resolve_theta(source: str, state: MetaTrainState, mf: dict) -> tuple[str, np.ndarray]:
    by_id = {b["model_id"]: i for i, b in enumerate(mf["bases"])}
    if source in by_id:
        return source, state.embeddings[by_id[source]].copy()
    if source.startswith("centroid:"):
        key, _, val = source[len("centroid:"):].partition("=")
        label = f"centroid_{key}_{val}".replace(".", "p")
        if not _STEM.fullmatch(label):
            raise ConfigError(f"theta source {source!r} gives the file label {label!r}, "
                              f"which must match {_STEM.pattern}")
        if not any(key in b for b in mf["bases"]):
            raise ConfigError(f"no base model record has the key {key!r}")
        rows = [i for i, b in enumerate(mf["bases"]) if str(b.get(key)) == val]
        if not rows:
            raise ConfigError(f"no base models match {source!r}")
        return label, state.embeddings[rows].mean(axis=0)
    try:
        vec = np.array([float(x) for x in source.split(",")], dtype=np.float64)
    except ValueError:
        raise ConfigError(f"cannot parse theta source {source!r}")
    if len(vec) != state.meta.embed_dim:
        raise ConfigError(f"theta source has dim {len(vec)}, "
                          f"expected {state.meta.embed_dim}")
    if not np.isfinite(vec).all():
        raise ConfigError(f"theta source {source!r} is not finite")
    return "explicit", vec


def cmd_fixed_points(args) -> int:
    run = _open_run(args, meta=True)
    fp, state, seed = run.cfg["fixed_points"], run.state, run.cfg["seed"]
    task_name = run.cfg["analysis"]["task"]
    group = run.task_group(task_name)
    ds = run.datasets[task_name]
    if args.score_map and ds.valence is None:
        raise ConfigError(f"--score-map scores token valences; analysis.task {task_name!r} "
                          "has none")
    label, theta = _resolve_theta(args.theta, state, run.mf)
    pool = ds.indices("meta_unlabeled")[:CANDIDATE_SEQUENCES]
    seqs, _ = ds.subset(pool)
    n_cand = fp["candidates"]
    # a dataset on disk may hold no meta_unlabeled sequence, whatever the config
    # says: then `collect_candidates` refuses the empty batch
    per_seq = int(np.ceil(n_cand / max(1, len(seqs))))
    cands = dyn.collect_candidates(state.meta, theta, seqs, per_seq,
                                   task_group=group, seed=derived_seed(seed, 3))
    cands = cands[:n_cand]
    fps = dyn.find_fixed_points(state.meta, theta, candidates=cands, tol=fp["tol"],
                                max_steps=fp["max_steps"], dedup_radius=fp["dedup_radius"])
    report = {"theta_source": args.theta, "label": label,
              "num_fixed_points": len(fps),
              "max_residual": float(fps.residuals.max()) if len(fps) else None}
    if len(fps) >= 2:
        summ = dyn.summarize_attractor(fps, state.meta, group)
        rho = dyn.spearman(summ.positions, summ.margins)
        report.update({"extent": summ.extent, "thickness": summ.thickness,
                       "extent_thickness_ratio": summ.extent_thickness_ratio,
                       "margin_spearman": rho})
    outputs = {}
    if args.score_map:
        gsz = fp["score_grid"]
        plane = atlas_mod.plane_grid(state.embeddings[run.task_rows(task_name)], (gsz, gsz))
        grid = dyn.score_map(state.meta, group, plane, seqs[:16], ds.valence,
                             samples_per_seq=SCORE_MAP_SAMPLES, tol=fp["tol"],
                             max_steps=min(fp["max_steps"], 2000),
                             dedup_radius=fp["dedup_radius"], seed=derived_seed(seed, 4))
        outputs[f"score_map_{label}.csv"] = atlas_mod.grid_table(grid)
    outputs[f"fixed_points_{label}.csv"] = dyn.fixed_points_table(fps, state.meta, group)
    outputs[f"fixed_points_{label}.json"] = report
    run.write(outputs)
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
    thetas.append(np.mean(thetas, axis=0))
    accs = atlas_mod.grid_accuracies(run.state.meta, np.stack(thetas), group, ds)
    rows = [[mid, acc, by_id[mid][1].get("test_accuracy")] for mid, acc in zip(ids, accs)]
    rows.append(["average", accs[-1], None])
    run.write({"average_report.csv": (["model_id", "meta_accuracy", "base_accuracy"], rows)})
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

    p = sub.add_parser("gen-data", help="generate and split the task datasets")
    common(p)
    p = sub.add_parser("train-base", help="train the base-model population")
    common(p)
    p = sub.add_parser("train-meta", help="joint meta/state-map/embedding training")
    common(p)
    p = sub.add_parser("analyze", help="embedding-space analyses and exports")
    common(p)
    p.add_argument("--svcca", action="store_true",
                   help="also run the pairwise SVCCA+MDS baseline (quadratic cost) "
                        "over the bases of analysis.task; it compares recurrent hidden "
                        "states, so a residual_mlp run is refused with exit 2; skipped, "
                        "like the landscape, when no base model was trained on that task")
    p = sub.add_parser("ssl", help="optimize an embedding on the labeled split")
    common(p)
    p = sub.add_parser("fixed-points", help="fixed-point / attractor analysis")
    common(p)
    p.add_argument("--theta", required=True,
                   help="base id, centroid:<key>=<value>, or comma-separated floats")
    p.add_argument("--score-map", action="store_true",
                   help="also map fixed-point valence scores over the analysis.task bases' "
                        "embedding plane; exit 2 if that task has no token valences")
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
