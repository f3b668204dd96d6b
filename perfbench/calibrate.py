"""Host-speed calibration: fixed reference work timed between jobs.

On a shared virtual machine the speed of the host drifts by 15-30% over
seconds to minutes (other tenants on the same cores, caches and memory
bus), and that drift is the same for every job that runs meanwhile.  A
calibration round is a fixed piece of work that uses none of the program's
code: a pure-Python loop with dict inserts, large elementwise numpy, a
dense ``eigh`` and many small complex matrix-vector products, the four
kinds of work the workloads spend their time in.  The benchmark times one
round before the first job and one after every job, and scales each job's
wall time by ``C_REF_S`` over the median of the rounds nearest to it.  A
scaled time is the wall time the job would have taken on a host on which
one round takes ``C_REF_S`` seconds, so it keeps its unit and moves only
when the program's own work changes.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Seconds of one calibration round on the reference host (an Intel Xeon
# vCPU at 2.0 GHz, 2 BLAS threads); scaled times are quoted at this speed.
C_REF_S = 0.025

# rounds on each side of a job that estimate the host speed during it
NEAR = 3


class Calibration:
    """One fixed calibration round, with inputs built once from seed 0."""

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((192, 192))
        self.sym = a + a.T
        self.wave = rng.standard_normal(200_000)
        z = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
        self.V = np.linalg.qr(z)[0]
        self.w = rng.standard_normal(24)
        self.psi = np.full(24, 24 ** -0.5, dtype=complex)
        for _ in range(2):
            self.round()

    def _work(self):
        s = 0
        for i in range(60_000):
            s += i * i % 7
        table = {}
        for i in range(5_000):
            table[(i, i & 7)] = i
        for _ in range(2):
            s += float(np.cos(self.wave * 1.1).sum())
        s += float(np.linalg.eigh(self.sym)[0][0])
        psi, Vh, phase = self.psi, self.V.conj().T, np.exp(-0.01j * self.w)
        for _ in range(300):
            psi = self.V @ (phase * (Vh @ psi))
        return s + float(abs(psi[0]))

    def round(self) -> float:
        """Seconds one calibration round takes now."""
        t0 = time.perf_counter()
        self._work()
        return time.perf_counter() - t0


def scale_factors(rounds, count):
    """Per-job factors C_REF_S / (host speed near job k), k < count.

    ``rounds[0]`` ran before job 0 and ``rounds[k + 1]`` right after job k;
    job k is scaled by the median of the NEAR rounds before it and the NEAR
    rounds after it, fewer at the ends of the run.
    """
    if len(rounds) != count + 1:
        raise ValueError(f"{len(rounds)} calibration rounds for {count} jobs")
    return [C_REF_S / statistics.median(rounds[max(0, k + 1 - NEAR):k + 1 + NEAR])
            for k in range(count)]
