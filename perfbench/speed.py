"""Machine-speed gauge: a fixed reference loop timed all through a run.

The speed of a shared container drifts: on a 2-core x86 container it runs in
two states about 1.5x apart and switches between them on scales from seconds
to minutes, with CPU time tracking wall time. Raw timings of two sets of runs
then differ by the share of time each set spent in the slow state, not by the
program.

`SpeedGauge` times `reference_loop`, which does not depend on the program,
every few operations of a timed pass. A timed figure is then reported scaled
to the reference speed: a duration measured when the loop took `r` seconds is
multiplied by `REF_NOMINAL_S / r`. The scale is smoothed over neighbouring
samples and interpolated to the moment each operation ran.
"""
from __future__ import annotations

import time

import numpy as np

REF_ITERS = 8           # one sample: about 1-2 ms
# The reference loop's time at the reference speed: the fast state of a
# 2-core x86 container. Scaled timings read as wall times on such a machine.
REF_NOMINAL_S = 1.0e-3
SMOOTH = 5              # samples in the running median of the gauge

_rng = np.random.default_rng(0)
_ROWS = _rng.normal(size=(2000, 3))
_MATS = _rng.normal(size=(2000, 3, 3))
_V0 = _rng.normal(size=3)


def reference_loop(iters: int = REF_ITERS) -> float:
    """Wall seconds of a fixed pure-numpy loop with the program's mix of
    2000-row array arithmetic and interpreter-bound 3-vector operations."""
    v = _V0
    t0 = time.perf_counter()
    for _ in range(iters):
        e = _ROWS - v
        ae = np.einsum("mij,mj->mi", _MATS, e)
        h = np.einsum("mi,mi->m", e, ae)
        k = int(np.argmin(h))
        for j in range(24):
            x = float(_ROWS[(k + j) % 2000] @ v)
            v = v + 1e-12 * x * np.maximum(v, 0.0)
    return time.perf_counter() - t0


class SpeedGauge:
    """Samples `reference_loop` every `every` ticks during a timed pass."""

    def __init__(self, every: int):
        self.every = every
        self.count = 0
        self.t: list[float] = []    # sample midpoints, perf_counter seconds
        self.ref: list[float] = []  # reference loop durations
        self.spent_s = 0.0          # wall time spent sampling

    def tick(self) -> None:
        """Count one operation; sample after every `every` of them."""
        self.count += 1
        if self.count % self.every == 0:
            self.sample()

    def sample(self) -> None:
        t0 = time.perf_counter()
        d = reference_loop()
        self.t.append(t0 + 0.5 * d)
        self.ref.append(d)
        self.spent_s += time.perf_counter() - t0

    def scale(self, at) -> np.ndarray:
        """Factor from raw to reference-speed time at perf_counter times `at`."""
        ref = np.asarray(self.ref)
        h = SMOOTH // 2
        smooth = [np.median(ref[max(0, i - h):i + h + 1]) for i in range(ref.size)]
        return REF_NOMINAL_S / np.interp(at, self.t, smooth)
