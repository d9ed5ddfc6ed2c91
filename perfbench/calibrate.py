"""Host-speed calibration: a fixed kernel that runs no primeflow code.

On a shared host the speed of the same code drifts by tens of percent over
tens of seconds, much more than a benchmark bound allows.  The benchmark
times this kernel just before and just after every experiment call and
rescales the call's time by ``REF_S / (mean kernel time)``.  The result is
the time the call would take on a host where the kernel takes ``REF_S``
seconds: the drift cancels, a change to primeflow does not.

The kernel mixes the kinds of work the experiments do: a Python loop over
exact integer residues (like the orbit offsets), numpy arithmetic on blocks
of orbit points (like the roof sums), and scalar float math in a Python loop
(like the per-fiber flow code).  It must never change, or the rescaled times
of two commits stop being comparable.
"""

import math
import time

import numpy as np

# median kernel time on the reference host (2-core Xeon, Python 3.11.7,
# numpy 2.4.6), over 154 runs spread across ten benchmark runs
REF_S = 0.33
_RESIDUES = 250_000
_BASE_POINTS = 24
_BLOCK = 50_000
_SCALAR = 100_000


def _residues(n):
    P, Q = 1234567891011, 9876543210987
    out = np.empty(n)
    r = 0
    for i in range(n):
        out[i] = r / Q
        r += P
        if r >= Q:
            r -= Q
    return out


def _blocks(offs):
    xs = np.linspace(0.0, 1.0, _BASE_POINTS)
    acc = 0.0
    for lo in range(0, offs.size, _BLOCK):
        block = (xs[:, None] + offs[lo:lo + _BLOCK]) % 1.0
        acc += float((np.abs(block - 0.5) ** -0.3).sum())
    return acc


def _scalar(n):
    x, acc = 0.1, 0.0
    for _ in range(n):
        x = (x + 0.6180339887498949) % 1.0
        acc += math.log(abs(x - 0.5) + 1e-3) * math.sqrt(x) + x ** -0.5
    return acc


def kernel_s() -> float:
    """Seconds one run of the kernel takes now."""
    t0 = time.perf_counter()
    _blocks(_residues(_RESIDUES))
    _scalar(_SCALAR)
    return time.perf_counter() - t0
