"""A host-speed reference for timing on a shared machine.

On a small shared host the CPU speed seen by one process drifts by 20% or
more over seconds to minutes, which no affordable run length averages away.
``RefClock`` samples that speed while the program runs: a SIGALRM handler,
in the benchmark's own thread, runs a small fixed numpy kernel four times a
second.  Each probe runs the kernel once untimed, to reload the data that
the program evicted since the last probe, and then times a second run, so
the program's working set does not leak into the speed.  ``now()`` is a
clock net of the probes, and ``factor()`` rescales a net duration to the
speed at which the timed kernel takes REF_PROBE_S.  The kernel is benchmark
code, so a change to the program cannot speed it up.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.25
REF_PROBE_S = 1.0e-3  # timed-kernel time that defines the reference speed; see README.md

_rng = np.random.default_rng(0)
_IMG = _rng.random((120, 640))
_FLAT = _IMG.ravel()
_IDX = ((_rng.random((50, 225)) * 118).astype(np.intp) * 640
        + (_rng.random((50, 225)) * 638).astype(np.intp))
_SMALL = _rng.random((8, 9))


def kernel() -> float:
    """Gathers and sorts on a 600 KB array, then small SVDs: the array-bound
    and the interpreter-bound work the program's layers are made of."""
    acc = 0.0
    for _ in range(4):
        acc += _FLAT[_IDX].sum()
        acc += np.sort(_IMG[:20], axis=1)[:, 0].sum()
    for _ in range(25):
        acc += np.linalg.svd(_SMALL)[1][0]
    return acc


class RefClock:
    """Use as a context manager around the timed region."""

    def __init__(self):
        self.samples: list[float] = []
        self.probe_s = 0.0

    def _probe(self, signum, frame):
        start = time.perf_counter()
        kernel()  # reloads the kernel's data, whatever the program evicted
        warm = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append(end - warm)
        self.probe_s += end - start

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def now(self) -> float:
        """perf_counter() minus the time spent in probes so far."""
        return time.perf_counter() - self.probe_s

    def factor(self, first: int = 0) -> float:
        """REF_PROBE_S over the mean probe time of samples[first:]; 1 when
        no probe fired."""
        window = self.samples[first:]
        return REF_PROBE_S / statistics.fmean(window) if window else 1.0
