import importlib.util
import tracemalloc
from pathlib import Path

import pytest

from dynamo.numgrad import Graph


@pytest.fixture(scope="session")
def perfbench_tracer():
    """perfbench/tracer.py (the benchmark's span tracer), loaded by path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def pass_counts(monkeypatch):
    """Counts `Graph.forward`/`backward` calls; `forward` holds each forward
    pass's output in call order, `backward` the number of backward passes."""
    counts = {"forward": [], "backward": 0}
    forward, backward = Graph.forward, Graph.backward

    def counted_forward(self, bindings):
        out = forward(self, bindings)
        counts["forward"].append(float(out))
        return out

    def counted_backward(self, seed=1.0):
        counts["backward"] += 1
        return backward(self, seed)

    monkeypatch.setattr(Graph, "forward", counted_forward)
    monkeypatch.setattr(Graph, "backward", counted_backward)
    return counts


@pytest.fixture
def traced_peak():
    """`traced_peak(fn)` calls `fn()` under tracemalloc and returns the peak
    bytes it had allocated above what was allocated when it started."""
    def run(fn) -> int:
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fn()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
    return run
