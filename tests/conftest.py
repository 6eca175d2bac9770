import importlib.util
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
