"""Per-layer timing of two source trees, alternated in one process.

    python3 tools/layers.py <parent-tree> <change-tree> [--seed 1]

Loads each tree's `src/dynamo` under its own package name, builds perfbench's
atlas-dynamics `config(seed)` run once (gen-data, train-base and train-meta
from the first tree), and runs `analyze --svcca` and `fixed-points --theta
base_000 --score-map` once per tree on its own copy of that run, recording
the arguments of the landscape's `atlas.grid_accuracies` call and of the two
`dynamics._descend` calls (the fixed points at base_000 and the score map's
grid). Then, for `ROUNDS` rounds, it times each layer on both trees back to
back, the tree that goes first alternating from round to round:

- `CELLS` and `CELL_VJPS` of both cell kinds at each row count of `ROWS`, on
  the meta model's GRU weights and on random vanilla-RNN weights of its
  width, `CALLS` calls per timing (the time of one call is reported);
- `grid_accuracies` on the landscape;
- the two descents of the score-map command.

Prints, per layer, each tree's median with its quartiles, the median over
the rounds of the change's time over the parent's in the same round (the
host's speed drifts between rounds more than within one), and in how many
rounds the change was faster.
Every layer's outputs are computed once per tree and compared bitwise; the
tool exits 1 if any layer's outputs differ between the trees, and 2 if a
command fails.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import itertools
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
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
ANALYZE = ("analyze", "--svcca")
SCORE_MAP = ("fixed-points", "--theta", "base_000", "--score-map")
_loaded = itertools.count()


@dataclass
class Layer:
    name: str
    runs: tuple            # per tree: (function, args, calls per timing)
    times: tuple = ()      # per tree: seconds per call, one per round
    same: bool = True      # the trees' outputs are bitwise equal


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
                              for m in ("atlas", "cli", "dynamics", "models", "numgrad")})


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


def prepare(trees: list[SimpleNamespace], config: dict, work: Path, rows=ROWS,
            calls: int = CALLS) -> list[Layer]:
    """Build the run for `config` into `work` and every layer of both trees."""
    path = write_config(config, work)
    base = work / "setup"
    for argv in SETUP:
        run_stage(trees[0].cli, argv, path, base)
    runs, landscape, descents = [], [], []
    for i, tree in enumerate(trees):
        run = work / f"tree{i}"
        shutil.copytree(base, run)
        runs.append(run)
        landscape.append(recorded_calls(tree, ANALYZE, path, run, tree.atlas,
                                        "grid_accuracies")[0])
        descents.append(recorded_calls(tree, SCORE_MAP, path, run, tree.dynamics, "_descend"))
    layers = kernel_layers(trees, runs, rows, calls)
    layers.append(Layer("grid_accuracies", tuple(
        (tree.atlas.grid_accuracies, args, 1) for tree, args in zip(trees, landscape))))
    for k, label in enumerate(("descent[fixed-points]", "descent[score-map]")):
        layers.append(Layer(label, tuple(
            (tree.dynamics._descend, calls_[k], 1) for tree, calls_ in zip(trees, descents))))
    return layers


def same(a, b) -> bool:
    """Bitwise equality of two outputs: arrays, numbers or nested tuples."""
    if isinstance(a, (tuple, list)):
        return (isinstance(b, (tuple, list)) and len(a) == len(b)
                and all(same(x, y) for x, y in zip(a, b)))
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def timed(fn, args, calls: int) -> float:
    """Seconds per call of `fn(*args)` over `calls` calls, gc off (as timeit)."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(calls):
            fn(*args)
        return (time.perf_counter() - start) / calls
    finally:
        gc.enable()


def measure(layers: list[Layer], rounds: int = ROUNDS) -> list[Layer]:
    """Compare each layer's outputs across the trees, then time it `rounds`
    times per tree, alternating which tree goes first."""
    for layer in layers:
        (fa, aa, _), (fb, ab, _) = layer.runs
        layer.same = same(fa(*aa), fb(*ab))
        layer.times = ([], [])
    for r in range(rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        for layer in layers:
            for i in order:
                layer.times[i].append(timed(*layer.runs[i]))
    return layers


def table(layers: list[Layer]) -> list[str]:
    def cell(times):
        q1, med, q3 = np.percentile(times, [25, 50, 75])
        unit, scale = ("us", 1e6) if med < 1e-3 else ("ms", 1e3)
        return f"{med * scale:.1f} {unit} ({q1 * scale:.1f}-{q3 * scale:.1f})"

    lines = [f"{'layer':24} {'parent (q1-q3)':28} {'change (q1-q3)':28} "
             f"{'ratio':>6} {'wins':>6}  outputs"]
    for layer in layers:
        a, b = (np.asarray(t) for t in layer.times)
        ratio = np.median(b / a)
        lines.append(f"{layer.name:24} {cell(a):28} {cell(b):28} {ratio:6.3f} "
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
    with tempfile.TemporaryDirectory(prefix="layers-") as tmp:
        try:
            layers = prepare(trees, config, Path(tmp))
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
