"""Reference code that only the tests use: a slow coboundary oracle, theta in
a residue class, and the metric on the tower."""

import numpy as np

from primeflow.flow import FlowPoint
from primeflow.primes import PrimeTable
from primeflow.reparam import _BLOCK, ReparamFlow
from primeflow.rotation import circle_distance


class CoboundaryPair:
    """psi = h - h o T_1 with h = -(1/N) sum_{n<=N} S_n(g), so that psi is an
    exact coboundary of the time-one map and psi = -g + (1/N) sum g o T_1^n.

    Every integer time is solved cold through evaluate_many, so this is the
    slow oracle for coboundary_prime_discrepancy, whose integer orbit
    ReparamFlow.walk reads from the rigidity period once it reaches it."""

    def __init__(self, flow: ReparamFlow, g, N: int):
        if N < 1:
            raise ValueError("N must be >= 1")
        self.flow = flow
        self.g = g
        self.N = N

    def _orbit_sums(self, x1, x2):
        """(sum_{n=1..N} g o T^n, sum_{n=0..N-1} (N - n) g o T^n) from the
        positions T_n x at n = 0..N.  Each evaluate_many call takes a chunk
        of times broadcast against the start points, of at most _BLOCK
        points (one time per call once there are more start points)."""
        x1, x2 = np.broadcast_arrays(np.asarray(x1, dtype=np.float64),
                                     np.asarray(x2, dtype=np.float64))
        psum = np.zeros(x1.shape)
        hsum = np.zeros(x1.shape)
        rows = max(1, _BLOCK // max(1, x1.size))
        for lo in range(0, self.N + 1, rows):
            n = np.arange(lo, min(lo + rows, self.N + 1), dtype=np.float64)
            times = n.reshape(n.shape + (1,) * x1.ndim)
            vals = np.asarray(self.g(*self.flow.evaluate_many(times, x1, x2)),
                              dtype=np.float64)
            psum += vals[n >= 1].sum(axis=0)
            hsum += np.tensordot(self.N - n, vals, axes=1)
        return psum, hsum

    def psi(self, x1, x2):
        psum, _ = self._orbit_sums(x1, x2)
        return -self.g(np.asarray(x1), np.asarray(x2)) + psum / self.N

    def h(self, x1, x2):
        _, hsum = self._orbit_sums(x1, x2)
        return -hsum / self.N


def theta_ap(table: PrimeTable, x: int, q: int, a: int) -> float:
    """Sum of log p over p <= x with p = a (mod q)."""
    if q < 1 or not (0 <= a < q):
        raise ValueError("need q >= 1 and 0 <= a < q")
    ps = table.primes_between(1, x)
    sel = ps[ps % q == a]
    return float(np.sum(np.log(sel.astype(np.longdouble)))) if len(sel) else 0.0


def tower_metric(p: FlowPoint, q: FlowPoint) -> float:
    return circle_distance(p.x - q.x) + abs(p.s - q.s)
