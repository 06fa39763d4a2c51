"""The reference kernel: fixed work that runs no stormer_kit code.

Its time measures the speed of the host at the moment it runs.  On a shared
machine that speed drifts by a quarter or more over tens of seconds, and the
workloads' timings drift with it.  A run probes the kernel between its timed
calls and gives each call's time in units of the kernel's time around it,
so the drift cancels while any change in stormer_kit shows in full.

The kernel is made of the calls the library makes most: products and
adjoints of small complex matrices, Kronecker products, small Hermitian
eigenproblems and SVDs, and fresh small arrays.  Its time follows the
workloads' time under host contention (slope 0.9-1.1 on log-log against
necessity trials, canonical decompositions and choi3 evaluations), where a
loop of plain Python bytecode barely slowed at all.
"""

import statistics
import time

import numpy as np

_RNG = np.random.default_rng(20080603)
_MATRICES = [
    (lambda g: g @ g.conj().T)(_RNG.standard_normal((6, 6)) + 1j * _RNG.standard_normal((6, 6)))
    for _ in range(24)
]


def kernel() -> float:
    total = 0.0
    for m in _MATRICES:
        s = m[:4, :4]
        b = np.kron(s[:2, :2], s[:3, :3])
        total += float(np.linalg.eigvalsh(m.conj().T @ m)[0]) + float(np.abs(b).max())
        total += float(np.linalg.svd(s, compute_uv=False)[0])
        c = np.zeros((6, 6), dtype=complex)
        c[:3, :3] = s[:3, :3]
        c += c.conj().T
        total += float(np.trace(c).real)
    return total


def probe() -> float:
    """Median seconds of three kernel runs."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
