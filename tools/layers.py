"""Per-layer timing of two source trees, alternated in one process.

    python3 tools/layers.py <parent-tree> <change-tree> [--seed 1]

Loads each tree's `src/dynamo` under its own package name, builds perfbench's
atlas-dynamics `config(seed)` run once (gen-data, train-base and train-meta
from the first tree), and runs `train-base`, `train-meta`, `analyze --svcca`
and `fixed-points --theta base_000 --score-map` once per tree on its own
copies of that run, recording the arguments of the first `trainer.train_base`
call (the first population entry, before training), of the first
`MetaTrainer.bindings` call (with a copy of the trainer as it was then), of
the landscape's `atlas.grid_accuracies` call and of the two
`dynamics._descend` calls (the fixed points at base_000 and the score map's
grid). It records the first `MetaTrainer.bindings` call of perfbench's
train-residual `config(seed)` the same way, after gen-data and train-base
from the first tree. Then, for `ROUNDS` rounds, it times each layer on both
trees back to back, the tree that goes first alternating from round to
round:

- `CELLS` and `CELL_VJPS` of both cell kinds at each row count of `ROWS`, on
  the meta model's GRU weights and on random vanilla-RNN weights of its
  width, `CALLS` calls per timing (the time of one call is reported);
- `train_base` on the first entry, from fresh copies of its initial bases
  (the lockstep training of 3 stacked GRUs), its output the trained
  parameters;
- one meta step's graph work, `MetaTrainer.bindings`, `forward` and
  `backward`, on the recorded batch of the GRU meta model (atlas-dynamics)
  and of the residual one (train-residual), `CALLS // 10` calls per timing,
  its output the loss and every gradient;
- `grid_accuracies` on the landscape;
- the two descents of the score-map command;
- `tasks.generate` on each task entry of the train-residual config (2,400
  sequences each), its output compared as the bytes each tree's
  `save_dataset` writes for it (not timed), so trees that hold a dataset in
  different layouts compare equal when they would write the same files.

Prints, per layer, each tree's median with its quartiles, each tree's median
minor page faults per call (`ru_minflt` around the timed calls: in this
long-lived process the allocator's thresholds have risen, so a change that
saves allocations may show in the faults before it shows in the times), the
median over the rounds of the change's time over the parent's in the same
round (the host's speed drifts between rounds more than within one), and in
how many rounds the change was faster.
Every layer's outputs are computed once per tree and compared bitwise; the
tool exits 1 if any layer's outputs differ between the trees, and 2 if a
command fails.
"""
from __future__ import annotations

import argparse
import copy
import gc
import importlib
import importlib.util
import itertools
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from rundiff import WORKLOADS, run_stage, write_config  # noqa: E402

# from a 16-row meta minibatch to the 384 rows of a 4-θ landscape chunk;
# 256 and 288 are the rows of the score-map command's two descents
ROWS = (16, 36, 64, 128, 256, 288, 384)
CALLS = 300   # kernel calls per timing
ROUNDS = 15   # timings per layer and tree
SETUP = (("gen-data",), ("train-base",), ("train-meta",))
TRAIN_BASE = ("train-base",)
TRAIN_META = ("train-meta",)
ANALYZE = ("analyze", "--svcca")
SCORE_MAP = ("fixed-points", "--theta", "base_000", "--score-map")
_loaded = itertools.count()


@dataclass
class Layer:
    name: str
    runs: tuple            # per tree: (function, args, calls per timing)
    times: tuple = ()      # per tree: seconds per call, one per round
    faults: tuple = ()     # per tree: minor page faults per call, one per round
    same: bool = True      # the trees' outputs are bitwise equal
    compared: tuple = ()   # per tree: what of an output is compared, if not all of it


def load_tree(tree: Path) -> SimpleNamespace:
    """`tree`/src/dynamo imported as a package of its own name, so two trees
    live in one process; returns its modules."""
    src = Path(tree) / "src" / "dynamo"
    name = f"_layers_tree{next(_loaded)}"
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py",
                                                  submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}")
                              for m in ("atlas", "cli", "dynamics", "models", "numgrad",
                                        "tasks", "trainer")})


def recorded_calls(tree: SimpleNamespace, argv: tuple[str, ...], config: Path, out: Path,
                   module, name: str) -> list[tuple]:
    """The positional arguments of each call of `module.name` while `argv`
    runs on `tree`."""
    fn, calls = getattr(module, name), []

    def spy(*args):
        calls.append(args)
        return fn(*args)

    setattr(module, name, spy)
    try:
        run_stage(tree.cli, argv, config, out)
    finally:
        setattr(module, name, fn)
    return calls


def lockstep_call(tree: SimpleNamespace, config: Path, out: Path) -> tuple:
    """The arguments of the first `train_base` call of `train-base` on
    `tree`, its bases copied before they train."""
    fn, calls = tree.cli.train_base, []

    def spy(bases, *args, **kwargs):
        calls.append((copy.deepcopy(bases), args, kwargs))
        return fn(bases, *args, **kwargs)

    tree.cli.train_base = spy
    try:
        run_stage(tree.cli, TRAIN_BASE, config, out)
    finally:
        tree.cli.train_base = fn
    return (fn, *calls[0])


def emulation_call(tree: SimpleNamespace, config: Path, out: Path) -> tuple:
    """A copy of the trainer and of the arguments of the first
    `MetaTrainer.bindings` call of `train-meta` on `tree`, taken before that
    step runs."""
    cls, calls = tree.trainer.MetaTrainer, []
    fn = cls.bindings

    def spy(self, *args):
        if not calls:
            calls.append(copy.deepcopy((self, *args)))
        return fn(self, *args)

    cls.bindings = spy
    try:
        run_stage(tree.cli, TRAIN_META, config, out)
    finally:
        cls.bindings = fn
    return calls[0]


def emulation_step(trainer, *args) -> list:
    """One meta step's graph work on `trainer.bindings(*args)`: the loss and
    the gradients in name order."""
    g, bindings = trainer.bindings(*args)
    loss = g.forward(bindings)
    grads = g.backward()
    return [loss] + [grads[k] for k in sorted(grads)]


def train_entry(train_base, bases, args, kwargs) -> list:
    """`train_base` on copies of `bases`; the trained parameters, by name."""
    return [[b.params[k] for k in sorted(b.params)]
            for b in train_base(copy.deepcopy(bases), *args, **kwargs)]


def saved(save_dataset, ds) -> tuple[bytes, bytes]:
    """The bytes `save_dataset` writes for `ds`: its .txt and .json files.
    They are the same for two trees that hold a dataset in different layouts."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ds"
        save_dataset(ds, path)
        return path.with_suffix(".txt").read_bytes(), path.with_suffix(".json").read_bytes()


def kernel_layers(trees: list[SimpleNamespace], runs: list[Path], rows, calls: int) -> list[Layer]:
    """Step and step-VJP layers of both cell kinds at each row count, fed the
    same inputs on every tree."""
    layers = []
    metas = [tree.cli.load_meta_checkpoint(run / "meta")[0].meta for tree, run in zip(trees, runs)]
    for kind, n in itertools.product(("gru", "vanilla_rnn"), rows):
        step_runs, vjp_runs = [], []
        for tree, meta in zip(trees, metas):
            width, H = meta.embed_dim + meta.input_dim, meta.hidden_dim
            model = meta
            if kind == "vanilla_rnn":
                w = np.random.default_rng(0).standard_normal((width + H + 1, H)) / np.sqrt(H)
                model = SimpleNamespace(cell_kind=kind, params={
                    "w_x": w[:width], "w_h": w[width:-1], "b": w[-1]})
            rng = np.random.default_rng(n)
            xp, state = tree.models.project_inputs(model, rng.standard_normal((n, width)))
            h, g = rng.uniform(-1.0, 1.0, (n, H)), rng.standard_normal((n, H))
            step, vjp = tree.numgrad.CELLS[kind], tree.numgrad.CELL_VJPS[kind]
            h_new, saved = step(xp, h, *state)
            step_runs.append((step, (xp, h, *state), calls))
            vjp_runs.append((vjp, (g, h, h_new, saved, *state), calls))
        short = "gru" if kind == "gru" else "rnn"
        layers += [Layer(f"{short}_step[{n}]", tuple(step_runs)),
                   Layer(f"{short}_step_vjp[{n}]", tuple(vjp_runs))]
    return layers


def meta_steps(trees: list[SimpleNamespace], path: Path, setup: Path) -> list[tuple]:
    """Per tree, the first meta step (`emulation_call`) of `train-meta` on
    its own copy of the run in `setup`, whose config is at `path`."""
    steps = []
    for i, tree in enumerate(trees):
        run = setup.with_name(f"{setup.name}-meta{i}")
        shutil.copytree(setup, run)
        steps.append(emulation_call(tree, path, run))
    return steps


def prepare(trees: list[SimpleNamespace], config: dict, residual: dict, work: Path,
            rows=ROWS, calls: int = CALLS) -> list[Layer]:
    """Build the runs for `config` (recurrent) and `residual` into `work` and
    every layer of both trees."""
    path = write_config(config, work)
    base = work / "setup"
    for argv in SETUP:
        run_stage(trees[0].cli, argv, path, base)
    (work / "residual").mkdir()
    residual_path = write_config(residual, work / "residual")
    for argv in SETUP[:2]:
        run_stage(trees[0].cli, argv, residual_path, work / "residual" / "setup")
    steps = {"gru": meta_steps(trees, path, base),
             "residual": meta_steps(trees, residual_path, work / "residual" / "setup")}
    runs, entries, landscape, descents = [], [], [], []
    for i, tree in enumerate(trees):
        run = work / f"tree{i}"
        shutil.copytree(base, run)
        runs.append(run)
        shutil.copytree(base, work / f"lockstep{i}")  # train-base rewrites base/
        entries.append(lockstep_call(tree, path, work / f"lockstep{i}"))
        landscape.append(recorded_calls(tree, ANALYZE, path, run, tree.atlas,
                                        "grid_accuracies")[0])
        descents.append(recorded_calls(tree, SCORE_MAP, path, run, tree.dynamics, "_descend"))
    layers = kernel_layers(trees, runs, rows, calls)
    layers.append(Layer("train_base[entry 0]", tuple((train_entry, args, 1) for args in entries)))
    for family, recorded in steps.items():
        layers.append(Layer(f"emulation_step[{family}]", tuple(
            (emulation_step, args, max(1, calls // 10)) for args in recorded)))
    layers.append(Layer("grid_accuracies", tuple(
        (tree.atlas.grid_accuracies, args, 1) for tree, args in zip(trees, landscape))))
    for k, label in enumerate(("descent[fixed-points]", "descent[score-map]")):
        layers.append(Layer(label, tuple(
            (tree.dynamics._descend, calls_[k], 1) for tree, calls_ in zip(trees, descents))))
    for task in residual["tasks"]:
        layers.append(Layer(f"generate[{task['name']}]", tuple(
            (tree.tasks.generate, (tree.tasks.TaskSpec(**task),), 1) for tree in trees),
            compared=tuple(partial(saved, tree.tasks.save_dataset) for tree in trees)))
    return layers


def same(a, b) -> bool:
    """Bitwise equality of two outputs: arrays, numbers or nested tuples."""
    if isinstance(a, (tuple, list)):
        return (isinstance(b, (tuple, list)) and len(a) == len(b)
                and all(same(x, y) for x, y in zip(a, b)))
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def timed(fn, args, calls: int) -> tuple[float, float]:
    """Seconds and minor page faults per call of `fn(*args)` over `calls`
    calls, gc off (as timeit)."""
    gc.collect()
    gc.disable()
    try:
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        for _ in range(calls):
            fn(*args)
        seconds = time.perf_counter() - start
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        return seconds / calls, faults / calls
    finally:
        gc.enable()


def measure(layers: list[Layer], rounds: int = ROUNDS) -> list[Layer]:
    """Compare each layer's outputs across the trees, then time it `rounds`
    times per tree, alternating which tree goes first."""
    for layer in layers:
        outputs = [fn(*args) for fn, args, _ in layer.runs]
        if layer.compared:
            outputs = [part(out) for part, out in zip(layer.compared, outputs)]
        layer.same = same(*outputs)
        layer.times, layer.faults = ([], []), ([], [])
    for r in range(rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        for layer in layers:
            for i in order:
                seconds, faults = timed(*layer.runs[i])
                layer.times[i].append(seconds)
                layer.faults[i].append(faults)
    return layers


def table(layers: list[Layer]) -> list[str]:
    def cell(times):
        q1, med, q3 = np.percentile(times, [25, 50, 75])
        unit, scale = ("us", 1e6) if med < 1e-3 else ("ms", 1e3)
        return f"{med * scale:.1f} {unit} ({q1 * scale:.1f}-{q3 * scale:.1f})"

    lines = [f"{'layer':24} {'parent (q1-q3)':28} {'change (q1-q3)':28} "
             f"{'faults/call':>15} {'ratio':>6} {'wins':>6}  outputs"]
    for layer in layers:
        a, b = (np.asarray(t) for t in layer.times)
        ratio = np.median(b / a)
        faults = "/".join(f"{np.median(f):.1f}" for f in layer.faults)
        lines.append(f"{layer.name:24} {cell(a):28} {cell(b):28} {faults:>15} {ratio:6.3f} "
                     f"{int((b < a).sum()):>3}/{len(a):<2}  "
                     f"{'same' if layer.same else 'DIFFER'}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="first source tree")
    parser.add_argument("change", type=Path, help="second source tree")
    parser.add_argument("--seed", type=int, default=1, help="atlas-dynamics config seed")
    args = parser.parse_args(argv)
    for tree in (args.parent, args.change):
        if not (tree / "src" / "dynamo" / "cli.py").is_file():
            parser.error(f"no dynamo sources under {tree}")
    trees = [load_tree(args.parent), load_tree(args.change)]
    config = WORKLOADS["atlas-dynamics"].config(args.seed)
    residual = WORKLOADS["train-residual"].config(args.seed)
    with tempfile.TemporaryDirectory(prefix="layers-") as tmp:
        try:
            layers = prepare(trees, config, residual, Path(tmp))
        except RuntimeError as e:
            print(e, file=sys.stderr)
            return 2
        measure(layers)
    print("\n".join(table(layers)))
    differ = [layer.name for layer in layers if not layer.same]
    if differ:
        print(f"outputs differ: {', '.join(differ)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
