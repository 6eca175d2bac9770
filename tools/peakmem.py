"""Traced memory peak of every stage of the benchmark's workloads.

    python3 tools/peakmem.py [--seed 1] [--workload NAME ...]

Runs the stages that tools/rundiff.py runs (gen-data, train-base,
train-meta, analyze, ssl, average and, on recurrent populations,
fixed-points --score-map; analyze with --svcca on those) on perfbench
`Workload.config(seed)` of each workload in perfbench/workloads.py (all of
them by default), one after another in this process through
`dynamo.cli.main`, from this tree's `src/`. A stage's peak is tracemalloc's
peak while it runs, in MB (10^6 bytes) above what was allocated when it
started; tracemalloc sees Python and numpy allocations, not the allocator's
own overhead. Prints a Markdown table with one row per command and one
column per workload ("—" where a workload does not run the command). Exits
1 if a stage does not exit 0. The run directories go to a temporary
directory, removed at exit.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tools"))
from dynamo import cli  # noqa: E402
from rundiff import WORKLOADS, stages  # noqa: E402


def write_config(config: dict, root: Path) -> Path:
    path = root / "config.json"
    path.write_text(json.dumps(config, indent=1))
    return path


def run_stage(stage: tuple[str, ...], path: Path, root: Path) -> None:
    """Run one stage on the config at `path` into `root`/run through
    `dynamo.cli.main`, its stdout discarded. Raises RuntimeError naming the
    stage if it does not exit 0."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code = cli.main([*stage, "--config", str(path), "--out", str(root / "run")])
    if code != 0:
        raise RuntimeError(f"{' '.join(stage)} exited {code}")


def stage_peaks(config: dict, argv: list[tuple[str, ...]], root: Path) -> dict[str, float]:
    """Run each stage of `argv` on `config` into `root`/run under tracemalloc
    and return each command's peak in MB above its start. Raises
    RuntimeError naming the first stage that does not exit 0."""
    path = write_config(config, root)
    peaks = {}
    tracemalloc.start()
    try:
        for stage in argv:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run_stage(stage, path, root)
            peaks[stage[0]] = (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        tracemalloc.stop()
    return peaks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="workload config seed")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="a workload to run; repeat it for more (default all)")
    args = parser.parse_args(argv)
    names = list(dict.fromkeys(args.workload or WORKLOADS))
    table = {}
    with tempfile.TemporaryDirectory(prefix="peakmem-") as tmp:
        for name in names:
            root = Path(tmp) / name
            root.mkdir()
            workload = WORKLOADS[name]
            try:
                table[name] = stage_peaks(workload.config(args.seed), stages(workload), root)
            except RuntimeError as e:
                print(f"{name}: {e}", file=sys.stderr)
                return 1
    commands = dict.fromkeys(command for peaks in table.values() for command in peaks)
    print(f"| Stage | {' | '.join(names)} |")
    print("|---" * (len(names) + 1) + "|")
    for command in commands:
        cells = [f"{table[n][command]:.2f}" if command in table[n] else "—" for n in names]
        print(f"| {command} | {' | '.join(cells)} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
