"""Reference kernel and the clock that normalises op times by it.

The host this benchmark runs on changes speed under load from other tenants
by tens of percent, and process CPU time tracks wall time, so neither raw
wall time nor CPU time repeats. ``wall_ref`` therefore counts an op's time in
units of a fixed reference kernel sampled around and during the op.

The kernel is fixed code: it never imports the package under test, and any
edit to it (array values, iteration count, operations) redefines
``wall_ref`` and is a benchmark change. It mirrors the solver's inner loop on
a 4x2 array: a masked per-column min, a shifted ``exp``, a mass-weighted
column normalisation and an l1 residual, 100 times per sample (a few ms).
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

KERNEL_ITERATIONS = 100
EDGE_SAMPLES = 3
# seconds per kernel sample at which setup_s is quoted (a typical sample on
# the 2-core x86 host the baseline was taken on)
NOMINAL_SAMPLE_S = 0.003
MIN_INTERVAL_S = 0.025
MAX_INTERVAL_S = 0.25
INTERVAL_SHARE = 0.02

_MASK = np.array([[True, True], [True, True], [True, False], [False, True]])
_C0 = np.array([[1.0, 2.0], [1.5, 0.5], [0.7, 0.0], [0.0, 1.2]])
_SLOPE = np.array([[2.0, 1.0], [1.0, 3.0], [0.5, 0.0], [0.0, 0.5]])
_MASSES = np.array([1.0, 3.0])
_ETA = 0.5


def kernel_sample() -> float:
    """Run the reference kernel once; return its wall time in seconds."""
    t0 = time.perf_counter()
    x = np.where(_MASK, _MASSES / _MASK.sum(axis=0), 0.0)
    residual = 0.0
    for _ in range(KERNEL_ITERATIONS):
        c = _C0 + _SLOPE * x
        cmin = np.min(np.where(_MASK, c, np.inf), axis=0)
        e = np.exp(np.where(_MASK, (cmin - c) / _ETA, -np.inf))
        F = _MASSES * e / e.sum(axis=0)
        residual = float(np.abs(F - x).sum())
        x = 0.5 * (x + F)
    if not np.isfinite(residual):
        raise RuntimeError("reference kernel produced a non-finite residual")
    return time.perf_counter() - t0


class RefClock:
    """Times ops on the main thread in reference-kernel units.

    The kernel runs ``EDGE_SAMPLES`` times before and after each op, and
    during the op from a one-shot ``SIGALRM`` timer that re-arms itself:
    densely at first, then at a fixed share of the op time so far, so short
    ops get enough samples and long ops are not slowed much. Each stretch of
    op time is converted to kernel units at the speed of the sample that
    ends it (the stretch after the last one at the after-samples' speed);
    the op's ``wall_ref`` is the sum, and time spent in samples is not op
    time. ``on_sample`` (if set) is told the length of every in-op sample,
    so a tracer can keep it out of the self time of the span it interrupted.
    """

    def __init__(self):
        self.on_sample = None
        self._armed = False

    def _tick(self, signum, frame) -> None:
        if not self._armed:
            return
        start = time.perf_counter()
        kernel_sample()
        end = time.perf_counter()
        self._stretches.append((start - self._last_end, end - start))
        self._last_end = end
        self._sampled += end - start
        if self.on_sample is not None:
            self.on_sample(end - start)
        op_time = end - self._t0 - self._sampled
        signal.setitimer(signal.ITIMER_REAL,
                         min(MAX_INTERVAL_S, max(MIN_INTERVAL_S, INTERVAL_SHARE * op_time)))

    def measure(self, fn):
        """Run ``fn()``; return (result, wall_ref, net_wall_s, raw_wall_s)."""
        before = [kernel_sample() for _ in range(EDGE_SAMPLES)]
        self._stretches: list[tuple[float, float]] = []
        self._sampled = 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        self._t0 = self._last_end = time.perf_counter()
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, MIN_INTERVAL_S)
        try:
            result = fn()
        finally:
            # disarm before reading the clock, so every counted sample lies
            # inside [t0, t1]
            self._armed = False
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        after = [kernel_sample() for _ in range(EDGE_SAMPLES)]
        raw = t1 - self._t0
        net = raw - self._sampled
        tail = t1 - self._last_end
        if self._stretches:
            wall_ref = (sum(op / d for op, d in self._stretches)
                        + tail / statistics.harmonic_mean(after))
        else:
            wall_ref = tail / statistics.harmonic_mean(before + after)
        return result, wall_ref, net, raw
