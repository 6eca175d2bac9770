"""Benchmark for the `dynamo` pipeline.

    python3 perfbench/run.py --workload train-ragged --seed 1 --seconds 20 --trace 0

Runs one workload of workloads.py in this process through `dynamo.cli.main`,
built from the checkout's `src/`: set-up stages a few times, then whole
operations (the workload's timed stages, in order) until `--seconds` have
passed. Every stage invocation is checked (checks.py). With `--trace 0` it
prints the end-to-end metrics of BENCHMARK.json; with `--trace 1` it traces
the layers (tracer.py) and prints the per-layer metrics. The last stdout line
is one JSON object: correct, attempted, failed, metrics. The full result,
with provenance, goes to `.perfbench_runs/<workload>-seed<n>/`.
"""
import time

_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext, redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
from hostspeed import REFERENCE_S, SpeedSampler  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
# Set-up repetitions after the first stop once set-up has taken this long,
# so one run stays well inside its time limit.
SETUP_BUDGET_S = 60.0


def import_dynamo(root: Path):
    """Import `dynamo.cli` from `<root>/src`, never from anywhere else."""
    pkg = root / "src" / "dynamo"
    if not (pkg / "cli.py").is_file():
        raise ImportError(f"no dynamo sources at {pkg}")
    sys.path.insert(0, str(root / "src"))
    import dynamo.cli
    if Path(dynamo.cli.__file__).resolve().parent != pkg.resolve():
        raise ImportError(f"dynamo was imported from {dynamo.cli.__file__}")
    return dynamo.cli


# -- provenance --------------------------------------------------------------------


def _git_sha(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads() -> int | None:
    import numpy as np
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def provenance(root: Path) -> dict:
    import numpy as np
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0")
        src.update(path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(root),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


# -- the run ---------------------------------------------------------------------------


def median(vals):
    return statistics.median(vals) if vals else None


class Bench:
    """One benchmark run of one workload and seed."""

    def __init__(self, root: Path, cli, workload, seed: int, seconds: float,
                 trace: bool, import_s: float = 0.0, out: Path | None = None):
        self.cli = cli
        self.import_s = import_s
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.out = out or root / ".perfbench_runs" / f"{workload.name}-seed{seed}"
        self.run_dir = self.out / "run"
        self.cfg = workload.config(seed)
        self.records: list[dict] = []   # one per stage invocation
        self.refs: dict[tuple, str] = {}
        self.tracer = Tracer() if trace else None
        self.sampler = SpeedSampler(on_sample=self._sample_span)

    def _sample_span(self):
        if self.tracer and self.tracer.installed:
            return self.tracer.span("perfbench.host_speed")
        return nullcontext()

    # one stage invocation plus its output checks
    def stage(self, argv: tuple[str, ...], phase: str, index: int) -> dict:
        name = argv[0]
        full = list(argv) + ["--config", str(self.out / "config.json"),
                             "--out", str(self.run_dir)]
        meta_before = (checks.digest(self.run_dir, checks.META_CHECKPOINT)
                       if name == "ssl" else None)
        buf = io.StringIO()
        fails = []

        def invoke():
            try:
                with redirect_stdout(buf), redirect_stderr(buf):
                    if self.tracer and self.tracer.installed:
                        with self.tracer.span(f"stage:{name}", stage=name,
                                              phase=phase, op=index):
                            return self.cli.main(full)
                    return self.cli.main(full)
            except (Exception, SystemExit):
                fails.append(f"{name}: raised\n{traceback.format_exc()}")
                return None

        rc, wall, sampled, speed = self.sampler.measure(invoke)
        wall -= sampled
        if rc != 0:
            fails.append(f"{name}: exit code {rc}\n{buf.getvalue()[-2000:]}")
        else:
            try:
                fails += checks.check_stage(name, self.run_dir, self.cfg, buf.getvalue())
            except (OSError, ValueError, KeyError, IndexError) as e:
                fails.append(f"{name}: outputs unreadable: {e!r}")
            outputs = checks.digest(self.run_dir, checks.OUTPUTS.get(name, ()))
            ref = self.refs.setdefault((phase, argv), outputs)
            if outputs is None:
                fails.append(f"{name}: wrote none of its outputs")
            elif outputs != ref:
                fails.append(f"{name}: outputs differ from the first {phase} "
                             "invocation with the same seed")
            if meta_before is not None and meta_before != checks.digest(
                    self.run_dir, checks.META_CHECKPOINT):
                fails.append("ssl: meta checkpoint changed")
        rec = {"stage": name, "phase": phase, "index": index, "wall_s": wall,
               "sampled_s": sampled, "speed": speed, "norm_s": wall * speed,
               "rc": rc, "failures": fails}
        self.records.append(rec)
        return rec

    def run_phase(self, stages, phase: str, index: int) -> bool:
        """One set-up or operation: its stages in order. True if all passed."""
        recs = [self.stage(argv, phase, index) for argv in stages]
        return not any(r["failures"] for r in recs)

    def run(self) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        (self.out / "config.json").write_text(json.dumps(self.cfg, indent=1))
        self.import_speed = sum(REFERENCE_S / self.sampler.sample() for _ in range(5)) / 5
        wl = self.workload
        t_setup = time.perf_counter()
        ok = True
        if self.tracer:
            self.tracer.install()
        for rep in range(1 if self.trace else SETUP_REPS):
            if rep and time.perf_counter() - t_setup > SETUP_BUDGET_S:
                break
            shutil.rmtree(self.run_dir, ignore_errors=True)
            ok = self.run_phase(wl.setup, "setup", rep)
            if not ok:
                break
        quality = checks.quality(self.run_dir) if ok else {}
        t_ops = time.perf_counter()
        index = 0
        while ok and (index < (2 if self.trace else 1)
                      or time.perf_counter() - t_ops < self.seconds):
            if self.tracer:
                # odd operations are traced, even ones measure the untraced cost
                (self.tracer.install if index % 2 else self.tracer.uninstall)()
            ok = self.run_phase(wl.ops, "op", index)
            if index == 0 and ok:
                quality.update(checks.quality(self.run_dir))
            index += 1
        if self.tracer:
            self.tracer.uninstall()
        return self.summarise(quality)

    def _totals(self, phase: str, key: str, select=lambda index: True) -> list[float]:
        """Per set-up repetition or operation: the sum of `key` over its stages."""
        sums: dict[int, float] = {}
        for r in self.records:
            if r["phase"] == phase and select(r["index"]):
                sums[r["index"]] = sums.get(r["index"], 0.0) + r[key]
        return [sums[i] for i in sorted(sums)]

    def summarise(self, quality: dict) -> dict:
        wl = self.workload
        failed = [r for r in self.records if r["failures"]]
        timed = {argv[0] for argv in wl.ops}
        metrics = {}
        for name in dict.fromkeys(r["stage"] for r in self.records):
            phase = "op" if name in timed else "setup"
            metrics[name.replace("-", "_") + "_s"] = median(
                [r["norm_s"] for r in self.records
                 if r["stage"] == name and r["phase"] == phase])
        setups = self._totals("setup", "norm_s")
        metrics.update({
            "setup_s": self.import_s * self.import_speed + median(setups)
            if setups else None,
            "pipeline_s": median(self._totals("op", "norm_s")),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "host_speed": median([r["speed"] for r in self.records]),
        })
        metrics.update(quality)
        result = {
            "workload": wl.name, "config": self.cfg,
            "seconds": self.seconds, "trace": self.trace,
            "attempted": len(self.records), "failed": len(failed),
            "failures": [f for r in failed for f in r["failures"]],
            "import_s": self.import_s, "import_speed": self.import_speed,
            "setup_raw_s": self._totals("setup", "wall_s"),
            "op_raw_s": self._totals("op", "wall_s"),
            "stages": self.records, "metrics": metrics,
            "output_sha256": {f"{phase}:{' '.join(argv)}": d
                              for (phase, argv), d in self.refs.items()},
            "meta_checkpoint_sha256": checks.digest(self.run_dir, checks.META_CHECKPOINT),
        }
        if self.tracer:
            # the traced set-up plus the first traced operation: counts then
            # repeat exactly for a seed
            per_stage, totals = layer_metrics(
                self.tracer, lambda span: span[4]["phase"] == "setup" or span[4]["op"] == 1)
            traced = self._totals("op", "norm_s", lambda i: i % 2 == 1)
            untraced = self._totals("op", "norm_s", lambda i: i % 2 == 0)
            totals["trace.overhead_s"] = median(traced) - median(untraced)
            totals["trace.spans"] = len(self.tracer.spans)
            result.update({"per_stage": per_stage, "per_layer": totals,
                           "absent": self.tracer.absent})
            self.tracer.write(self.out / "spans.jsonl")
        return result


# units of the figures that BENCHMARK.json does not name, by name suffix
_SUFFIX_UNITS = (("_us", "us"), ("_s", "s"), ("_mb", "MB"), ("_pct", "%"),
                 ("_acc", "fraction"), ("bytes", "bytes"), ("share", "ratio"),
                 ("_per_step", "ratio"), ("_per_iter", "ratio"),
                 ("meta_loss", "loss"), ("host_speed", "x"))


def unit_of(name: str, spec: dict) -> str:
    for m in spec["end_to_end"] + spec["per_layer"]:
        if m["name"] == name:
            return m["unit"]
    return next((unit for suffix, unit in _SUFFIX_UNITS if name.endswith(suffix)),
                "count")


def final_line(result: dict, spec: dict) -> dict:
    """The contract line: BENCHMARK.json's metrics for this trace mode."""
    values = result["per_layer"] if result["trace"] else result["metrics"]
    names = spec["per_layer"] if result["trace"] else spec["end_to_end"]
    metrics, missing = {}, []
    for m in names:
        val = values.get(m["name"])
        if val is None:
            missing.append(m["name"])
        metrics[m["name"]] = {"value": val, "unit": m["unit"]}
    return {"correct": result["failed"] == 0 and not missing,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli = import_dynamo(ROOT)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (ImportError, OSError, ValueError) as e:
        print(f"perfbench: cannot start: {e}", file=sys.stderr)
        return 2
    bench = Bench(ROOT, cli, WORKLOADS[args.workload], args.seed, args.seconds,
                  bool(args.trace), import_s=time.perf_counter() - _START)
    result = bench.run()
    result["provenance"] = provenance(ROOT)
    line = final_line(result, spec)
    (bench.out / f"result-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, default=str))
    for fail in result["failures"]:
        print(f"FAILED {fail}")
    shown = dict(result["metrics"])
    if args.trace:
        shown.update({k: v for k, v in result["per_stage"].items()
                      if k.endswith(("wall_s", "numgrad.share"))})
        shown.update(result["per_layer"])
    for name, val in sorted(shown.items()):
        print(f"{name} = {val} {unit_of(name, spec)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
