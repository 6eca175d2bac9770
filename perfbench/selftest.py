"""Self-test of the benchmark harness on tiny versions of the workloads.

    python3 perfbench/selftest.py

It lives outside `tests/` and is not named `test_*.py`, so the repository's
pytest run does not collect it. It checks that:

- every metric BENCHMARK.json names appears with its unit in the result line
  of each workload, untraced and traced, and the output checks pass;
- spans of `rollout_batch` called through `trainer`'s own binding of the
  name are captured;
- within each stage, the spans' self times sum to the stage's wall time;
- a traced name missing from the code is reported as absent.
"""
from __future__ import annotations

import dataclasses
import json
import sys

import run
from tracer import Tracer, self_times
from workloads import WORKLOADS


def tiny(wl):
    extra = {k: dict(v) for k, v in (wl.extra or {}).items()}
    if "analysis" in extra:
        extra["analysis"].update(grid=3, svcca_sequences=10)
        extra["ssl"].update(steps=3)
        extra["fixed_points"].update(candidates=16, max_steps=40, score_grid=2)
    return dataclasses.replace(
        wl, num_sequences=150,
        population=tuple(dict(p, count=1) for p in wl.population),
        base_training=dict(wl.base_training, epochs=1),
        meta_training=dict(wl.meta_training, max_steps=12), extra=extra)


def check_result(result: dict, spec: dict) -> list[str]:
    problems = list(result["failures"])
    line = run.final_line(result, spec)
    names = spec["per_layer"] if result["trace"] else spec["end_to_end"]
    for m in names:
        got = line["metrics"].get(m["name"])
        if got is None or not isinstance(got["value"], (int, float)):
            problems.append(f"metric {m['name']} missing")
        elif got["unit"] != m["unit"]:
            problems.append(f"metric {m['name']} has unit {got['unit']}")
    if not line["correct"]:
        problems.append("result line is not correct")
    return problems


def check_spans(bench) -> list[str]:
    problems = []
    spans = bench.tracer.spans
    own = self_times(spans)
    subtree = [0.0] * len(spans)
    for sid in range(len(spans) - 1, -1, -1):
        subtree[sid] += own[sid]
        if spans[sid][3] >= 0:
            subtree[spans[sid][3]] += subtree[sid]
    stage_spans = [sid for sid, s in enumerate(spans)
                   if s[3] < 0 and s[0].startswith("stage:")]
    traced = [r for r in bench.records if r["phase"] == "setup"
              or r["index"] % 2 == 1]
    if len(stage_spans) != len(traced):
        problems.append(f"{len(stage_spans)} stage spans for {len(traced)} "
                        "traced stage invocations")
    for sid, rec in zip(stage_spans, traced):
        wall = spans[sid][2] - spans[sid][1]
        if abs(subtree[sid] - wall) > 1e-9 * max(1.0, wall):
            problems.append(f"{rec['stage']}: self times sum to {subtree[sid]}, "
                            f"span lasted {wall}")
        measured = rec["wall_s"] + rec["sampled_s"]
        if not wall <= measured <= wall + 0.01 + 0.01 * wall:
            problems.append(f"{rec['stage']}: span {wall} s, stage wall {measured} s")
    return problems


def check_trainer_rollout(bench) -> list[str]:
    spans = bench.tracer.spans
    hits = [s for s in spans if s[0] == "models.rollout_batch" and s[3] >= 0
            and spans[s[3]][0] == "trainer.train_meta"]
    return [] if hits else ["no rollout_batch span under trainer.train_meta"]


def check_absent(cli) -> list[str]:
    atlas = sys.modules["dynamo.atlas"]
    saved = atlas.hidden_state_matrix
    del atlas.hidden_state_matrix
    try:
        tracer = Tracer().install()
        tracer.uninstall()
    finally:
        atlas.hidden_state_matrix = saved
    return ([] if tracer.absent == ["atlas.hidden_state_matrix"]
            else [f"absent names: {tracer.absent}"])


def main() -> int:
    cli = run.import_dynamo(run.ROOT)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    out = run.ROOT / ".perfbench_runs" / "selftest"
    problems = check_absent(cli)
    for name, wl in sorted(WORKLOADS.items()):
        for trace in (False, True):
            bench = run.Bench(run.ROOT, cli, tiny(wl), seed=1, seconds=0, trace=trace,
                              out=out / f"{name}-trace{int(trace)}")
            result = bench.run()
            found = check_result(result, spec)
            if trace:
                found += check_spans(bench)
                if name == "train-ragged":
                    found += check_trainer_rollout(bench)
            problems += [f"{name} trace={int(trace)}: {p}" for p in found]
            print(f"{name} trace={int(trace)}: {'ok' if not found else 'FAILED'}")
    for p in problems:
        print(p)
    print("selftest", "passed" if not problems else f"failed ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
