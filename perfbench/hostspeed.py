"""A fixed probe of how fast the host runs right now.

On a shared host, other tenants slow every process in phases of seconds, by
up to half. The probe runs a miniature of the scorer's training step (small
numpy products through a three-layer network, a tape of Python objects
walked backwards) and never calls sirank, so no change to the program can
move it. Timing the probe between operations and scaling each operation by
``REFERENCE_S / probe`` takes most of the host's drift out of the result.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median probe time at reference speed: about the probe's time on an idle
# 2-vCPU x86-64 host (Python 3.11, numpy 2.4, OpenBLAS 0.3.31, one thread).
REFERENCE_S = 0.0035
REPEATS = 5


class _Node:
    __slots__ = ("value", "parent", "grad")

    def __init__(self, value, parent=None):
        self.value, self.parent, self.grad = value, parent, None


class HostProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._w = [rng.standard_normal(shape) * 0.1 for shape in ((40, 64), (64, 16), (16, 1))]
        self._lists = [rng.standard_normal((int(n), 40)) for n in rng.integers(5, 26, size=120)]

    def _once(self) -> float:
        start = time.perf_counter()
        for x in self._lists:
            tape = [_Node(x)]
            for w in self._w:
                tape.append(_Node(np.maximum(tape[-1].value @ w, 0.0), tape[-1]))
            grad = np.ones_like(tape[-1].value)
            for node in reversed(tape):
                node.grad = grad
                grad = grad.sum() * np.ones(3)
        return time.perf_counter() - start

    def measure(self) -> float:
        """Median of a few probe runs, in seconds."""
        return statistics.median(self._once() for _ in range(REPEATS))


def scales(probes: list[float]) -> list[float]:
    """Scale factor for each interval between consecutive probes."""
    return [REFERENCE_S / ((a + b) / 2) for a, b in zip(probes, probes[1:])]
