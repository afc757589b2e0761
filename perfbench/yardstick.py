"""A fixed piece of work that measures how fast the machine runs right now.

The benchmark's VM changes speed by up to 1.8x for seconds to minutes with
load outside it, and the CPU time of a process slows with it, so neither
wall nor CPU time of a pass repeats from run to run. The yardstick runs in
the same process between the calls into blocklaser, for a fixed share of
their time (``pace``); a pass's wall time is then scaled by
``REFERENCE_S / yardstick``, which turns it into seconds at one fixed
machine speed.

The yardstick never calls blocklaser, so a change to the program cannot
move it. It does a little of each kind of work the program does: a
Python loop filling a dict (sector enumeration and assembly), sparse LU
factorisations and solves (the steady state), sparse matrix-vector
products (Krylov propagation), many numpy calls on tiny arrays (the
cumulant ODE) and a complex exponential (the spectrum). Its inputs are
fixed, not drawn from the benchmark seed, and small (about 2 MB), so it
barely lifts a workload's peak memory.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

#: median yardstick time on the machine of the first baseline (README.md);
#: scaled pass times are seconds at that machine's typical speed
REFERENCE_S = 0.05
#: share of the measured work's time the yardstick runs alongside it
SHARE = 0.1


def _laplacian_2d(n: int) -> sp.csr_matrix:
    line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    return sp.kronsum(line, line).tocsr()


class Yardstick:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.lu_matrix = (_laplacian_2d(30) + 0.1 * sp.identity(900)).tocsc()
        self.lu_rhs = rng.standard_normal(900)
        self.mv_matrix = _laplacian_2d(100)
        self.mv_vector = rng.standard_normal(10000)
        self.tiny = rng.uniform(0.5, 1.0, 4)
        self.phases = rng.standard_normal(50000)
        self.samples = []
        self.spent_s = 0.0
        self._debt_s = 0.0
        self()  # first-call costs (allocation, lazy imports) are not speed
        self.samples.clear()
        self.spent_s = 0.0

    def __call__(self) -> float:
        """Run the work once, keep and return its wall time."""
        t0 = time.perf_counter()
        # int keys only: the cyclic GC, whose cost grows with the
        # workload's heap, never runs here
        for _ in range(3):
            table = {}
            for i in range(10000):
                table[i * 7919 % 100003] = len(table)
        for _ in range(4):
            spla.splu(self.lu_matrix).solve(self.lu_rhs)
        v = self.mv_vector
        for _ in range(200):
            v = self.mv_matrix @ v * 0.125
        y = self.tiny
        for _ in range(1500):
            y = np.minimum(np.abs(y * 0.5 + self.tiny), 2.0)
        for _ in range(4):
            np.exp(1j * self.phases).sum()
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        self.spent_s += elapsed
        return elapsed

    def pace(self, work_s: float) -> None:
        """Run after ``work_s`` seconds of measured work, until the yardstick
        has had SHARE of all the work's time so far; short calls add up."""
        self._debt_s += SHARE * work_s
        while self._debt_s > 0:
            self._debt_s -= self()
