"""Host-speed sampling, so that stage times do not follow the host's speed.

On a shared host the processor switches, every fraction of a second to a
few seconds, between a fast state and states 1.6x to 2.5x slower (CPU time
equals wall time throughout, so it is the processor, not scheduling). Stage
wall times therefore spread by +-25% between runs of identical work.

While a stage runs, SIGALRM fires every PERIOD_S in the main thread, which
times a fixed kernel that uses no `dynamo` code: small matmuls dispatched from
Python, like numgrad's per-node work, on operands drawn from a pool larger
than the processor's L2 cache, so that the kernel also slows when other
tenants contend for cache and memory. One more sample is taken before and
after the stage. A stage's normalised time is its wall time, less the time
spent in the samples, times the mean of REFERENCE_S / sample time: its time
at the reference speed.
"""
from __future__ import annotations

import signal
import time
from contextlib import nullcontext

import numpy as np

PERIOD_S = 0.05
ITERATIONS = 150
POOL = 2048  # operands of 4 KiB: 8 MiB in all
REFERENCE_S = ITERATIONS * 4.5e-6  # about the kernel time in the host's fast state


class SpeedSampler:
    """Samples the host's speed while a stage runs; one instance per run."""

    def __init__(self, on_sample=None):
        rng = np.random.default_rng(0)
        self._pool = [rng.standard_normal((16, 32)) for _ in range(POOL)]
        self._next = 0
        self._w = rng.standard_normal((32, 32)) / np.sqrt(32)
        self._samples: list[float] = []
        self._on_sample = on_sample or nullcontext  # wraps each timed sample

    def sample(self) -> float:
        """Time one run of the kernel, in seconds."""
        pool, w, start = self._pool, self._w, self._next
        t0 = time.perf_counter()
        for i in range(ITERATIONS):
            np.tanh(pool[(start + 7 * i) % POOL] @ w)
        elapsed = time.perf_counter() - t0
        self._next = (start + 1051) % POOL
        return elapsed

    def _record(self, *_):
        with self._on_sample():
            self._samples.append(self.sample())

    def measure(self, fn):
        """Run `fn()` with sampling on. Returns (result, wall time, time spent
        in the samples taken during it, speed relative to the reference)."""
        self._samples = [self.sample()]
        previous = signal.signal(signal.SIGALRM, self._record)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        sampled = sum(self._samples[1:])
        self._samples.append(self.sample())
        speed = sum(REFERENCE_S / s for s in self._samples) / len(self._samples)
        return result, wall, sampled, speed
