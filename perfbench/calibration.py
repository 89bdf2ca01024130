"""Host-speed calibration for timings taken on a shared machine.

The machine the benchmark was built on changes speed by up to 2x within
seconds to minutes, because other tenants share its cores. Every program
slows together, so a fixed reference kernel that runs between operations
tracks the slowdown. A timing is then reported at nominal speed:

    calibrated = raw * REFERENCE_S / reference time around it

The kernel does the kind of small-matrix numpy work that wfsim's per-call
layers do (kron, reshape, transpose, matrix-vector product, ``eigvalsh``)
and calls no wfsim code, so a change to wfsim never moves it. On the
2-core test machine, calibration cut the coefficient of variation of
``collapse_chain``'s median operation time over 3 s windows from 25% to
3%.  A shorter call (two iterations) tracked the slowdown worse.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 1.0e-3  # nominal time of one kernel call; 0.8-1.6 ms on the test machine
SHARE = 0.05  # reference time after each operation, as a share of the operation's time

_A = (np.arange(4096).reshape(64, 64) % 7 + 1j).astype(complex)
_P = np.array([[1, 0], [0, 0]], dtype=complex)
_H = _A[:16, :16] + _A[:16, :16].conj().T


def _kernel() -> None:
    for _ in range(10):
        full = np.kron(_P, np.eye(32)).reshape(2, 32, 2, 32).transpose(1, 0, 3, 2).reshape(64, 64)
        v = full @ _A[:, 0]
        np.vdot(v, v)
        np.linalg.eigvalsh(_H)


def reference_window(busy_s: float) -> float:
    """Median kernel time over calls filling ``SHARE`` of ``busy_s``, at least one call."""
    times = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        times.append(t1 - t0)
        if t1 - start >= SHARE * busy_s:
            return statistics.median(times)


def calibrate(times, windows) -> list[float]:
    """Timing i at nominal speed, from the windows before (i) and after (i + 1) it."""
    return [
        t * REFERENCE_S / ((windows[i] + windows[i + 1]) / 2.0) for i, t in enumerate(times)
    ]
