"""Finite-difference gradient check for numgrad graphs, shared by the tests."""
import numpy as np

from dynamo.numgrad import Graph, _as_array


def grad_check(graph: Graph, point: dict, step: float) -> float:
    """Max relative error between analytic and central-difference gradients.

    The numeric side only ever calls `forward`, so it stays independent of the
    backward implementation it is checking.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    point = {k: _as_array(v).copy() for k, v in point.items()}
    graph.forward(point)
    analytic = graph.backward()
    worst = 0.0
    for name in graph._param_names:
        base = point[name]
        an = analytic[name]
        num = np.zeros_like(base)
        flat = base.reshape(-1)
        nflat = num.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = float(graph.forward(point))
            flat[i] = orig - step
            lo = float(graph.forward(point))
            flat[i] = orig
            nflat[i] = (hi - lo) / (2.0 * step)
        err = np.abs(an - num) / np.maximum(1.0, np.abs(an))
        if err.size:
            worst = max(worst, float(err.max()))
    return worst
