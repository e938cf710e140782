"""Host-speed calibration for the end-to-end timings.

The benchmark was defined on a shared 2-core KVM guest whose speed drifts by
up to ~1.6x for minutes at a time. On such a host the same work takes 15-20%
longer or shorter from one run to the next, which swamps the differences the
benchmark exists to show. To take that drift out, an untraced run
interleaves a fixed calibration unit with the workload, keeping it to
SHARE of the elapsed time, and reports every end-to-end time scaled to a
host on which one unit takes REFERENCE_S:

    reported time = measured time * REFERENCE_S / median unit time in its window

A window is WINDOW_S of the run. The host's speed shifts within a run, so
each operation is scaled by the units timed around it, not by the run as a
whole. Rates are computed from the scaled times.

The unit uses only numpy, hashlib and the interpreter, the same mix of work
as sparsedil, and none of sparsedil's code. A change to the program
therefore moves the reported figures in full, while a slower or faster host
moves the unit with them. On the machine where the benchmark was defined
one unit took about REFERENCE_S, so there the reported figures are close to
wall-clock time.
"""

import hashlib
import statistics
import time
from collections import defaultdict

import numpy as np

REFERENCE_S = 0.25e-3
SHARE = 0.05
WINDOW_S = 2.0

_Q = 8380417
_START = (np.arange(4 * 256, dtype=np.int64).reshape(4, 256) * 7919) % _Q


def unit() -> int:
    """Fixed work: butterfly layers on small int64 arrays, SHAKE, a byte loop."""
    a = _START
    for _ in range(8):
        lo, hi = a[:, :128], a[:, 128:]
        t = (hi * 1753) % _Q
        a = np.concatenate(((lo + t) % _Q, (lo - t) % _Q), axis=1)
    acc = 0
    for b in hashlib.shake_128(a.tobytes()).digest(400):
        acc = (acc * 31 + b) % _Q
    return acc


class Calibration:
    """Runs calibration units between operations and gives the scale at each moment."""

    def __init__(self):
        unit()
        self.samples = []          # (start, seconds) per unit
        self.spent = 0.0
        self.start = time.perf_counter()

    def between_ops(self) -> None:
        """Run one unit if calibration has had less than SHARE of the time so far."""
        t0 = time.perf_counter()
        if self.spent < SHARE * (t0 - self.start):
            unit()
            dt = time.perf_counter() - t0
            self.samples.append((t0, dt))
            self.spent += dt

    def scale_at(self):
        """A function from a perf_counter time to the scale of its window.

        The scale is REFERENCE_S over the window's median unit time, below 1
        on a slower host. A window without units takes the whole run's scale.
        """
        windows = defaultdict(list)
        for t, dt in self.samples:
            windows[int((t - self.start) // WINDOW_S)].append(dt)
        scales = {w: REFERENCE_S / statistics.median(v) for w, v in windows.items()}
        whole = REFERENCE_S / statistics.median(dt for _, dt in self.samples)
        return lambda t: scales.get(int((t - self.start) // WINDOW_S), whole)
