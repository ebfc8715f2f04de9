"""Host speed reference for the benchmark's times.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 30% over seconds to minutes; CPU time drifts with wall time, so it is the
cores that run slower, not the process that waits.  A fixed job that calls no
lkpolar code, timed in the same process just before and just after each piece
of measured work, follows that drift.  A time is reported as

    wall seconds * REFERENCE_S / (mean of the two job times),

that is, in seconds on a host where the job takes REFERENCE_S.  A change to
lkpolar moves the wall seconds and leaves the job alone, so it shows in full.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.03  # about the job's time on a 2-core x86-64 VM
PROBE_SHARE = 0.05  # probing time over the time of the work it scales
MAX_RUNS = 8

_MATRIX = np.array([[2.0, 0.3, -0.1], [0.3, 1.5, 0.2], [-0.1, 0.2, 1.0]])


def _job(n_loop: int, n_linalg: int) -> float:
    """Interpreted arithmetic and small-matrix numpy calls, the mix lkpolar
    spends its time in, in a few kB of memory so that it adds nothing to the
    peak resident memory that the benchmark reports."""
    acc = 0
    for i in range(n_loop):
        acc += (i * i) % 7
    a = _MATRIX
    for _ in range(n_linalg):
        q, r = np.linalg.qr(a)
        u, s, _vt = np.linalg.svd(r)
        a = a + 1e-12 * (q @ u) * float(np.linalg.norm(s))
    return acc + float(a.sum())


def warm_up() -> None:
    """One untimed short pass, so that the first probe of a process pays no
    first-call costs."""
    _job(1000, 10)


def probe(work_s: float = 0.0) -> float:
    """Mean wall seconds of the fixed job, run about PROBE_SHARE * work_s /
    REFERENCE_S times (1 to MAX_RUNS): the host's speed changes on a scale of
    about a second, so one short run says little about a long piece of work."""
    runs = min(MAX_RUNS, max(1, round(PROBE_SHARE * work_s / REFERENCE_S)))
    t0 = time.perf_counter()
    for _ in range(runs):
        _job(100000, 400)
    return (time.perf_counter() - t0) / runs


def scaled(wall_s: float, before: float, after: float) -> float:
    """``wall_s`` in seconds at reference speed, from the probes around it."""
    return wall_s * REFERENCE_S / (0.5 * (before + after))
