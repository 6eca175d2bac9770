"""Byte-identity check of two source trees on the benchmark's configs.

    python3 tools/rundiff.py <parent-tree> <change-tree> [--seed 1 --seed 2 ...]
                             [--work DIR]

Runs the same `dynamo` pipeline from each tree's `src/` on the config of
every workload in perfbench/workloads.py (`Workload.config(seed)`) for each
`--seed` (default 1), then compares the two run directories of each workload
and seed file by file. The stages are gen-data, train-base, train-meta,
analyze (with `--svcca` on recurrent populations), ssl, `average --ids
base_000,base_001` and, on recurrent populations, `fixed-points --theta
base_000 --score-map`. Every stage runs in a fresh Python process with only
its tree's `src` on `PYTHONPATH`.

Prints, per seed and workload, each file that differs or exists on one side
only, then how many files differ under each seed. Exits 0 when every
run directory is byte-identical, 1 when a file differs, and 2 when a stage
fails or a run directory already exists. The run directories go to `--work`
(kept) or to a temporary directory (removed at exit).
"""
from __future__ import annotations

import argparse
import filecmp
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import WORKLOADS  # noqa: E402


def stages(workload) -> list[tuple[str, ...]]:
    recurrent = all(p["cell_kind"] != "residual_mlp" for p in workload.population)
    argv = [("gen-data",), ("train-base",), ("train-meta",),
            ("analyze", "--svcca") if recurrent else ("analyze",), ("ssl",),
            ("average", "--ids", "base_000,base_001")]
    if recurrent:
        argv.append(("fixed-points", "--theta", "base_000", "--score-map"))
    return argv


def run_tree(tree: Path, config: Path, out: Path, argv: list[tuple[str, ...]]) -> None:
    """Run every stage of `argv` from `tree`'s sources into `out`; raise
    RuntimeError naming the first stage that does not exit 0."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
    for stage in argv:
        proc = subprocess.run([sys.executable, "-m", "dynamo.cli", *stage,
                               "--config", str(config), "--out", str(out)],
                              env=env, cwd=out.parent, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{tree}: {' '.join(stage)} exited {proc.returncode}\n"
                               f"{proc.stderr}")


def files(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def differing(a: Path, b: Path) -> list[str]:
    """Paths under `a` and `b` that are not byte-identical on both sides."""
    left, right = files(a), files(b)
    out = [f"{p} (only in the first tree)" for p in sorted(left - right)]
    out += [f"{p} (only in the second tree)" for p in sorted(right - left)]
    out += [str(p) for p in sorted(left & right)
            if not filecmp.cmp(a / p, b / p, shallow=False)]
    return out


def compare(trees: tuple[Path, Path], workload, seed: int,
            root: Path) -> tuple[list[str], int]:
    """Run `workload.config(seed)` from both `trees` into `root`; return the
    files that differ (see `differing`) and the first run's file count. Raise
    RuntimeError when a stage fails or a run directory already exists."""
    root.mkdir(parents=True, exist_ok=True)
    config = root / "config.json"
    config.write_text(json.dumps(workload.config(seed), indent=1))
    runs = []
    for side, tree in zip(("parent", "change"), trees):
        out = root / side
        if out.exists():
            raise RuntimeError(f"{out} exists; choose an empty --work")
        run_tree(tree, config, out, stages(workload))
        runs.append(out)
    return differing(*runs), len(files(runs[0]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="first source tree")
    parser.add_argument("change", type=Path, help="second source tree")
    parser.add_argument("--seed", type=int, action="append",
                        help="workload config seed; repeat it for more seeds (default 1)")
    parser.add_argument("--work", type=Path, default=None,
                        help="directory for the configs and run directories (kept)")
    args = parser.parse_args(argv)
    for tree in (args.parent, args.change):
        if not (tree / "src" / "dynamo" / "cli.py").is_file():
            parser.error(f"no dynamo sources under {tree}")
    seeds = list(dict.fromkeys(args.seed or [1]))
    bad = dict.fromkeys(seeds, 0)
    with tempfile.TemporaryDirectory(prefix="rundiff-") as tmp:
        work = args.work or Path(tmp)
        for seed in seeds:
            for name, workload in WORKLOADS.items():
                try:
                    diff, total = compare((args.parent, args.change), workload, seed,
                                          work / f"seed{seed}" / name)
                except RuntimeError as e:
                    print(e, file=sys.stderr)
                    return 2
                print(f"seed {seed}, {name}: {len(diff)} of {total} files differ")
                for line in diff:
                    print(f"  {line}")
                bad[seed] += len(diff)
    for seed, n in bad.items():
        print(f"seed {seed}: {n} files differ")
    return 1 if any(bad.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
