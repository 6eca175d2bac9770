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

Prints, per seed and workload, each file that differs and each file or
directory (an empty one too) that exists on one side only; then each tree's
line count of `src/dynamo` without `__init__.py` (the size measure of
ROADMAP aim 2) and how many files differ under each seed. A
differing CSV (its `#` lines skipped) or JSON file also gets the largest
|a - b| / max(1, |a|) over its numeric cells, or "non-numeric" when a text
cell or the shape differs, so a change that only reorders floating-point
work can be held to a relative-error bound. Exits 0 when every
run directory is byte-identical, 1 when a file differs, and 2 when a stage
fails or a run directory already exists. The run directories go to `--work`
(kept) or to a temporary directory (removed at exit).
"""
from __future__ import annotations

import argparse
import filecmp
import json
import math
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


def line_count(tree: Path) -> int:
    """Lines of `tree`'s `src/dynamo` modules, `__init__.py` left out."""
    return sum(p.read_bytes().count(b"\n") for p in (tree / "src" / "dynamo").glob("*.py")
               if p.name != "__init__.py")


def files(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def _cells(path: Path) -> list[list]:
    """A CSV's rows of cells after its `#` lines, or a JSON file's leaves as
    [key path, value] rows in document order."""
    text = path.read_text()
    if path.suffix == ".csv":
        return [ln.split(",") for ln in text.splitlines() if not ln.startswith("#")]
    rows = []

    def walk(key, val):
        if isinstance(val, (dict, list)):
            for k, v in val.items() if isinstance(val, dict) else enumerate(val):
                walk(f"{key}/{k}", v)
        else:
            rows.append([key, val])
    walk("", json.loads(text))
    return rows


def largest_difference(a: Path, b: Path) -> float | None:
    """The largest |x - y| / max(1, |x|) over the numeric cells of two CSV
    or JSON files, x from `a`; None when a text cell, a key or the shape
    differs."""
    rows_a, rows_b = _cells(a), _cells(b)
    if len(rows_a) != len(rows_b):
        return None
    worst = 0.0
    for ra, rb in zip(rows_a, rows_b):
        if len(ra) != len(rb):
            return None
        for x, y in zip(ra, rb):
            if x == y:
                continue
            try:
                x, y = float(x), float(y)
            except (TypeError, ValueError):
                return None
            if not (math.isfinite(x) and math.isfinite(y)):
                return None
            worst = max(worst, abs(x - y) / max(1.0, abs(x)))
    return worst


def differing(a: Path, b: Path) -> list[str]:
    """Paths under `a` and `b` that are not byte-identical on both sides, or
    that exist on one side only, directories too; a CSV or JSON file's line
    names its largest relative difference."""
    left, right = ({p.relative_to(root) for p in root.rglob("*")} for root in (a, b))
    out = [f"{p} (only in the first tree)" for p in sorted(left - right)]
    out += [f"{p} (only in the second tree)" for p in sorted(right - left)]
    for p in sorted(left & right):
        if (a / p).is_dir() and (b / p).is_dir() or filecmp.cmp(a / p, b / p, shallow=False):
            continue
        if p.suffix in (".csv", ".json"):
            d = largest_difference(a / p, b / p)
            out.append(f"{p} ({'non-numeric' if d is None else f'relative {d:.3g}'})")
        else:
            out.append(str(p))
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
    for tree in (args.parent, args.change):
        print(f"{tree}: {line_count(tree)} lines in src/dynamo (without __init__.py)")
    for seed, n in bad.items():
        print(f"seed {seed}: {n} files differ")
    return 1 if any(bad.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
