"""Lines of `src/dynamo` functions that no stage of the benchmark's workloads runs.

    python3 tools/traffic.py [--seed 1] [--workload NAME ...]

Runs the stages that tools/rundiff.py runs on perfbench `Workload.config(seed)`
of each workload in perfbench/workloads.py (all of them by default), one after
another in this process through `dynamo.cli.main`, from this tree's `src/`, as
tools/peakmem.py does, under `sys.settrace`. Then prints, for each module of
`src/dynamo`, how many of its function lines no stage executed and, for each
function with such lines, their line numbers as ranges of consecutive
executable lines. A function's lines are those its code object's line table
names, its comprehensions' and lambdas' included, without the `def` (or first
decorator) line; a nested function is listed under its own qualified name.
Module and class bodies count as executed, because they run at import. Exits 1
if a stage does not exit 0. The run directories go to a temporary directory,
removed at exit.
"""
from __future__ import annotations

import argparse
import inspect
import sys
import tempfile
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tools"))
from dynamo import cli  # noqa: E402
from peakmem import run_stage, write_config  # noqa: E402
from rundiff import WORKLOADS, stages  # noqa: E402

SOURCES = sorted(p for p in Path(cli.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _lines(code: types.CodeType) -> set[int]:
    return {line for _, _, line in code.co_lines() if line is not None}


def function_lines(path: Path) -> dict[str, set[int]]:
    """Each function's executable lines in the module at `path`, by
    qualified name (see the module docstring)."""
    out: dict[str, set[int]] = {}

    def walk(code: types.CodeType, owner: str | None) -> None:
        for const in code.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            if not const.co_flags & inspect.CO_NEWLOCALS:  # a class body
                walk(const, None)
            elif const.co_name.startswith("<") and owner:  # comprehension, lambda
                out[owner] |= _lines(const)
                walk(const, owner)
            else:
                out[const.co_qualname] = _lines(const) - {const.co_firstlineno}
                walk(const, const.co_qualname)

    walk(compile(path.read_text(), str(path), "exec"), None)
    return out


def executed_lines(config: dict, argv: list[tuple[str, ...]], root: Path) -> dict[str, set[int]]:
    """Run each stage of `argv` on `config` into `root`/run under
    `sys.settrace` and return the lines executed in each `src/dynamo` file,
    by file name. Raises RuntimeError naming the first stage that does not
    exit 0."""
    path = write_config(config, root)
    hits: dict[str, set[int]] = defaultdict(set)
    files = {str(p) for p in SOURCES}

    def on_call(frame, event, arg):
        if frame.f_code.co_filename not in files:
            return None
        seen = hits[frame.f_code.co_filename]

        def on_line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return on_line
        return on_line

    sys.settrace(on_call)
    try:
        for stage in argv:
            run_stage(stage, path, root)
    finally:
        sys.settrace(None)
    return hits


def _ranges(lines: list[int], within: list[int]) -> str:
    """`lines` as ranges of entries consecutive in `within`, e.g. "3-7, 12"."""
    pos = {line: i for i, line in enumerate(within)}
    runs: list[list[int]] = []
    for line in lines:
        if runs and pos[line] == pos[runs[-1][-1]] + 1:
            runs[-1].append(line)
        else:
            runs.append([line])
    return ", ".join(str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}" for r in runs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="workload config seed")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="a workload to run; repeat it for more (default all)")
    args = parser.parse_args(argv)
    hits: dict[str, set[int]] = defaultdict(set)
    with tempfile.TemporaryDirectory(prefix="traffic-") as tmp:
        for name in dict.fromkeys(args.workload or WORKLOADS):
            root = Path(tmp) / name
            root.mkdir()
            workload = WORKLOADS[name]
            try:
                run = executed_lines(workload.config(args.seed), stages(workload), root)
            except RuntimeError as e:
                print(f"{name}: {e}", file=sys.stderr)
                return 1
            for file, lines in run.items():
                hits[file] |= lines
    for path in SOURCES:
        funcs = function_lines(path)
        unrun = {name: sorted(lines - hits[str(path)]) for name, lines in funcs.items()}
        total = sum(len(lines) for lines in funcs.values())
        print(f"{path.name}: {sum(map(len, unrun.values()))} of {total} function lines not run")
        for name, lines in unrun.items():
            if lines:
                print(f"  {name}: {_ranges(lines, sorted(funcs[name]))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
