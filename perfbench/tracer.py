"""In-memory span tracer for `dynamo`, installed from outside the package.

The tracer replaces public functions and methods of the seven `dynamo`
modules with wrappers that record a span (name, start, end, parent, attrs).
A function imported by name into another module (``rollout_batch`` inside
``trainer`` and ``atlas``, ``cell_step_graph`` inside ``dynamics``) is
replaced in every module namespace that binds it, so those calls are traced
too. A target that the code no longer has is recorded as absent and skipped.

Graph construction is timed apart from the span tree: from ``Graph()`` to
``Graph.output``, with the node count of the output node.
"""
from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

MODULES = ("numgrad", "models", "tasks", "trainer", "atlas", "dynamics", "cli")

TARGETS = {
    "numgrad": ("Graph.forward", "Graph.backward"),
    "models": ("rollout", "rollout_batch", "final_logits", "cell_step_graph"),
    "tasks": ("generate", "split_dataset", "save_dataset", "load_dataset"),
    "trainer": ("train_base", "train_meta", "model_accuracy", "Optimizer.step"),
    "atlas": ("grid_accuracies", "accuracy_landscape", "ssl_optimize",
              "hidden_state_matrix", "svcca_distance", "classical_mds"),
    "dynamics": ("collect_candidates", "find_fixed_points", "score_map",
                 "summarize_attractor"),
    "cli": ("save_checkpoint", "load_checkpoint"),
}


def _file_bytes(prefix) -> int:
    prefix = Path(prefix)
    total = 0
    for suffix in (".json", ".bin"):
        try:
            total += prefix.with_suffix(suffix).stat().st_size
        except OSError:
            pass
    return total


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return len(x)
    return int(shape[0]) if len(shape) > 1 else 1


# Attributes recorded on a span, computed after the call returns:
# (args, kwargs, result) -> dict.
def _attrs_train_base(a, k, r):
    return {"tag": getattr(a[0] if a else k.get("model"), "cell_kind", "?")}


def _attrs_find_fixed_points(a, k, r):
    cands = a[3] if len(a) > 3 else k["candidates"]
    return {"candidates": _rows(cands), "kept": len(r)}


def _attrs_grid_accuracies(a, k, r):
    return {"thetas": _rows(a[1] if len(a) > 1 else k["thetas"])}


def _attrs_ssl(a, k, r):
    return {"steps": len(r[2]) - 1}


def _attrs_checkpoint(a, k, r):
    return {"bytes": _file_bytes(a[0] if a else k["prefix"])}


ATTRS = {
    "trainer.train_base": _attrs_train_base,
    "dynamics.find_fixed_points": _attrs_find_fixed_points,
    "dynamics.score_map": lambda a, k, r: {"tag": "score_map"},
    "atlas.grid_accuracies": _attrs_grid_accuracies,
    "atlas.ssl_optimize": _attrs_ssl,
    "cli.save_checkpoint": _attrs_checkpoint,
    "cli.load_checkpoint": _attrs_checkpoint,
}


class Tracer:
    """Records spans while installed; `uninstall` restores every original."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []      # [name, start, end, parent, attrs]
        self.builds: list[list] = []     # [start, end, nodes, parent]
        self.absent: list[str] = []
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self._open_builds: dict[int, tuple[float, int]] = {}

    # -- spans ------------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        rec = [name, self.clock(), None, self._stack[-1], attrs or None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec[2] = self.clock()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        spans, stack, clock, absent = self.spans, self._stack, self.clock, self.absent
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            rec = [name, clock(), None, stack[-1], None]
            spans.append(rec)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if attrs_of is not None:
                try:
                    rec[4] = attrs_of(args, kwargs, result)
                except (LookupError, AttributeError, TypeError, ValueError):
                    # a changed signature loses the attributes, not the run
                    if f"{name}.attrs" not in absent:
                        absent.append(f"{name}.attrs")
            return result
        return traced

    # -- installation -----------------------------------------------------

    def install(self, package: str = "dynamo") -> "Tracer":
        mods = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        namespaces = [mod for key, mod in sorted(sys.modules.items())
                      if key == package or key.startswith(package + ".")]
        for mod_name, paths in TARGETS.items():
            mod = mods[mod_name]
            for path in paths:
                name = f"{mod_name}.{path}"
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                orig = None if owner is None else owner.__dict__.get(attr)
                if not callable(orig):
                    self.absent.append(name)
                    continue
                wrapped = self._wrap(name, orig)
                if owner_name:
                    self._set(owner, attr, wrapped)
                    continue
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is orig:
                            self._set(ns, key, wrapped)
        self._install_build_hooks(mods["numgrad"])
        return self

    def _install_build_hooks(self, numgrad) -> None:
        graph = getattr(numgrad, "Graph", None)
        init = None if graph is None else graph.__dict__.get("__init__")
        output = None if graph is None else graph.__dict__.get("output")
        if not (callable(init) and callable(output)):
            self.absent.append("numgrad.build")
            return
        opened, builds, stack, clock = self._open_builds, self.builds, self._stack, self.clock

        @functools.wraps(init)
        def traced_init(g, *args, **kwargs):
            opened[id(g)] = (clock(), stack[-1])
            init(g, *args, **kwargs)

        @functools.wraps(output)
        def traced_output(g, node, *args, **kwargs):
            result = output(g, node, *args, **kwargs)
            started = opened.pop(id(g), None)
            if started is not None:
                builds.append([started[0], clock(), int(node) + 1, started[1]])
            return result

        self._set(graph, "__init__", traced_init)
        self._set(graph, "output", traced_output)

    @property
    def installed(self) -> bool:
        return bool(self._restore)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        """Spans as JSON lines: id, name, start/end (s), parent id, attrs."""
        with open(path, "w") as f:
            for sid, (name, t0, t1, parent, attrs) in enumerate(self.spans):
                f.write(json.dumps({"id": sid, "name": name, "start": t0,
                                    "end": t1, "parent": parent,
                                    "attrs": attrs}) + "\n")


# -- analysis -------------------------------------------------------------------

# Span attributes summed into counts; reported as 0 when nothing was called.
ATTR_KEYS = {"dynamics.find_fixed_points": ("candidates", "kept"),
             "atlas.grid_accuracies": ("thetas",), "atlas.ssl_optimize": ("steps",),
             "cli.save_checkpoint": ("bytes",), "cli.load_checkpoint": ("bytes",)}
# Functions that own the numgrad calls made beneath them, for per-call ratios.
OWNERS = ("dynamics.find_fixed_points", "atlas.ssl_optimize")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            own[parent] -= t1 - t0
    return own


def _inherit(spans: list[list], own_value) -> list:
    """Per span: `own_value(span)`, or else its parent's result (parents
    precede their children in the list)."""
    out: list = []
    for span in spans:
        val = own_value(span)
        out.append(out[span[3]] if val is None and span[3] >= 0 else val)
    return out


def _roots(spans: list[list]) -> list[int]:
    """Index of each span's top-level (stage) ancestor."""
    out: list[int] = []
    for sid, span in enumerate(spans):
        out.append(sid if span[3] < 0 else out[span[3]])
    return out


def percentile_stats(durations: list[float]) -> dict:
    """Call count, median, and the highest percentile that still has at
    least ten samples beyond it (the 11th largest value), with that
    percentile. Durations in seconds, percentiles in microseconds."""
    vals = sorted(durations)
    n = len(vals)
    out = {"calls": n}
    if n:
        out["p50_us"] = 1e6 * statistics.median(vals)
    if n >= 11:
        out["phi_us"] = 1e6 * vals[n - 11]
        out["phi_pct"] = 100.0 * (n - 10) / n
    return out


def layer_metrics(tracer: Tracer, keep_root) -> tuple[dict, dict]:
    """Per-layer figures over the top-level stage spans (named
    ``stage:<name>``, with attrs stage, phase and op) that satisfy
    `keep_root(span)`: per stage, named ``<stage>.<module>.<function>.<stat>``
    (the stage refined by the train_base cell kind or by score_map), and
    totals over those stages, named ``<module>.<function>.<stat>``."""
    spans = tracer.spans
    own = self_times(spans)
    root_of = _roots(spans)
    tag_of = _inherit(spans, lambda s: (s[4] or {}).get("tag"))
    owner_of = _inherit(spans, lambda s: s[0] if s[0] in OWNERS else None)
    kept = {sid for sid, s in enumerate(spans)
            if s[3] < 0 and s[0].startswith("stage:") and keep_root(s)}

    def group_of(sid):
        label = spans[root_of[sid]][4]["stage"]
        return label if tag_of[sid] is None else f"{label}[{tag_of[sid]}]"

    by_group: dict[tuple[str, str], list[int]] = defaultdict(list)
    by_name: dict[str, list[int]] = defaultdict(list)
    for sid, span in enumerate(spans):
        if root_of[sid] in kept and root_of[sid] != sid:
            by_group[(group_of(sid), span[0])].append(sid)
            by_name[span[0]].append(sid)

    def stats(prefix, sids):
        out = {f"{prefix}.{k}": v for k, v in percentile_stats(
            [spans[s][2] - spans[s][1] for s in sids]).items()}
        out[f"{prefix}.self_s"] = sum((own[s] for s in sids), 0.0)
        for s in sids:
            for key, val in (spans[s][4] or {}).items():
                if key != "tag":
                    out[f"{prefix}.{key}"] = out.get(f"{prefix}.{key}", 0) + val
        return out

    stage: dict = {}
    for (group, name), sids in sorted(by_group.items()):
        stage.update(stats(f"{group}.{name}", sids))
    total: dict = {}
    for mod, paths in TARGETS.items():
        for path in paths:
            name = f"{mod}.{path}"
            total.update(stats(name, by_name.get(name, [])))
            for key in ATTR_KEYS.get(name, ()):
                total.setdefault(f"{name}.{key}", 0)
    total["models.self_s"] = sum(v for k, v in total.items()
                                 if k.startswith("models.") and k.endswith(".self_s"))

    def build_stats(prefix, items):
        return {f"{prefix}.build_s": sum(d for d, _ in items),
                f"{prefix}.graphs": len(items),
                f"{prefix}.nodes_max": max((n for _, n in items), default=0)}

    builds: dict[str, list] = defaultdict(list)
    for t0, t1, nodes, parent in tracer.builds:
        if parent >= 0 and root_of[parent] in kept:
            builds[group_of(parent)].append((t1 - t0, nodes))
    for group, items in builds.items():
        stage.update(build_stats(f"{group}.numgrad", items))
    total.update(build_stats("numgrad", [x for v in builds.values() for x in v]))

    # optimizer step intervals, within each train_base / train_meta call
    ends: dict[int, list[float]] = defaultdict(list)
    for sid in by_name.get("trainer.Optimizer.step", []):
        ends[spans[sid][3]].append(spans[sid][2])
    intervals: dict[str, list[float]] = defaultdict(list)
    for parent, times in ends.items():
        intervals[group_of(parent)] += [b - a for a, b in zip(times, times[1:])]
    for group, vals in sorted(intervals.items()) + [
            ("", [v for vals in intervals.values() for v in vals])]:
        prefix = f"{group}.trainer.step" if group else "trainer.step"
        target = stage if group else total
        target.update({f"{prefix}.{k}": v for k, v in percentile_stats(vals).items()
                       if k != "calls"})

    # numgrad calls per fixed-point descent iteration and per SSL step
    calls: dict[tuple, int] = defaultdict(int)
    for name in ("numgrad.Graph.forward", "numgrad.Graph.backward"):
        for sid in by_name.get(name, []):
            if owner_of[sid]:
                calls[(name, owner_of[sid], spans[root_of[sid]][4]["stage"])] += 1
                calls[(name, owner_of[sid], "")] += 1
    for label in sorted({k[2] for k in calls}):
        target = stage if label else total
        prefix = f"{label}." if label else ""
        fwd = calls[("numgrad.Graph.forward", OWNERS[0], label)]
        bwd = calls[("numgrad.Graph.backward", OWNERS[0], label)]
        if bwd:
            target[f"{prefix}dynamics.descent_iters"] = bwd
            target[f"{prefix}dynamics.forward_per_iter"] = fwd / bwd
        steps = sum((spans[s][4] or {}).get("steps", 0) for s in by_name.get(OWNERS[1], [])
                    if not label or spans[root_of[s]][4]["stage"] == label)
        fwd = calls[("numgrad.Graph.forward", OWNERS[1], label)]
        if steps:
            target[f"{prefix}atlas.ssl_optimize.forward_per_step"] = fwd / steps
    total.setdefault("dynamics.descent_iters", 0)
    total.setdefault("dynamics.forward_per_iter", 0.0)
    total.setdefault("atlas.ssl_optimize.forward_per_step", 0.0)

    # stage wall time, less spans the benchmark itself adds (``perfbench.*``),
    # and the share of it spent in numgrad forward + backward
    walls: dict[str, float] = defaultdict(float)
    for sid, span in enumerate(spans):
        if root_of[sid] in kept and (sid in kept or span[0].startswith("perfbench.")):
            sign = 1.0 if sid in kept else -1.0
            walls[spans[root_of[sid]][4]["stage"]] += sign * (span[2] - span[1])
    for label, wall in walls.items():
        numgrad = sum(v for k, v in stage.items()
                      if k.split(".", 1)[0].split("[")[0] == label
                      and k.endswith(("Graph.forward.self_s", "Graph.backward.self_s")))
        stage[f"{label}.wall_s"] = wall
        stage[f"{label}.numgrad.share"] = numgrad / wall
    total["numgrad.share"] = ((total["numgrad.Graph.forward.self_s"]
                               + total["numgrad.Graph.backward.self_s"])
                              / sum(walls.values()))
    return stage, total
