"""The special flow over a circle rotation under a roof function.

Points live on the tower {(x, s): 0 <= s < f(x)}.  The flow moves up the
fiber at unit speed and jumps (x, f(x)-) -> (x + alpha, 0).  Evaluation
works through the counting function N(x, s, t) defined by
s + t - S_N(f)(x) in [0, f(x + N alpha)), with the negative-time Birkhoff
convention making N well defined for t < 0.

Besides evaluation this module hosts the tower metric, the A / A_0 / B
decomposition of a time horizon into visit sets of the singular tower, and
time integrals of tower observables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .roofs import PowerRoof, SingularityError
from .rotation import RotationNumber, _finite, frac

__all__ = [
    "FlowPoint",
    "FlowStep",
    "PrecisionError",
    "ABReport",
    "evaluate",
    "evaluate_naive",
    "evaluate_times",
    "ab_decomposition",
    "time_integral",
]


class PrecisionError(RuntimeError):
    """Accumulated rounding broke the defining inclusion of the flow."""


@dataclass(frozen=True)
class FlowPoint:
    x: float
    s: float

    def validate(self, roof) -> "FlowPoint":
        if not 0.0 <= self.s < roof(self.x):
            raise ValueError(f"height {self.s} outside [0, f({self.x}))")
        return self


@dataclass(frozen=True)
class FlowStep:
    endpoint: FlowPoint
    hits: int
    consumed: float


_SUM_BLOCK = 32  # terms per plain float64 block of _prefix_sums
_NAIVE_BLOCK = 256  # evaluate_naive's first block of fibers


def _offsets(alpha: RotationNumber, n: int, backward: bool = False) -> np.ndarray:
    """Float images of {sign * i * alpha mod 1} for 0 <= i < n."""
    return alpha.orbit(n, backward)


def _roof_values(roof, alpha, x, lo, hi, backward=False):
    """Bases x +- i alpha of the fibers lo <= i < hi and the roofs on them,
    cut before the first fiber whose roof raises SingularityError."""
    pts = frac(x + _offsets(alpha, hi, backward)[lo:hi])
    try:
        return pts, np.asarray(roof(pts), dtype=np.float64)
    except SingularityError:
        vals = []
        for y in pts.tolist():
            try:
                vals.append(roof(y))
            except SingularityError:
                break
        return pts[:len(vals)], np.array(vals, dtype=np.float64)


def evaluate(roof, alpha: RotationNumber, p: FlowPoint, t: float) -> FlowStep:
    """T_t(p): find N with S_N(f)(x) <= s + t < S_{N+1}(f)(x).  The one-time
    view of _walk, so it equals evaluate_times' entry bit for bit."""
    xs, ss, Ns, _, S = _walk(roof, alpha, p, [t])
    return FlowStep(FlowPoint(float(xs[0]), float(ss[0])), int(Ns[0]),
                    float(S[0]))


def _included(end_s, top):
    """The height array end_s, clamped in place into [0, top) once each
    height s' in it lies in [-1e-7, f(x') + 1e-7), f(x') its entry of the
    array top; else PrecisionError."""
    ok = (end_s >= -1e-7) & (end_s < top + 1e-7)
    if not np.all(ok):
        bad = ~ok
        raise PrecisionError("defining inclusion violated: "
                             f"s' = {end_s[bad][0]}, f(x') = {top[bad][0]}")
    np.maximum(end_s, 0.0, out=end_s)
    over = np.flatnonzero(end_s >= top)
    end_s[over] = np.nextafter(top[over], 0.0)
    return end_s


def _finish(end_x, f, s, t, N, consumed) -> FlowStep:
    """evaluate_naive's step to height s + t - consumed on the fiber over
    end_x with roof f."""
    end_s = _included(np.array([s + t - consumed]), np.array([f]))
    return FlowStep(FlowPoint(end_x, float(end_s[0])), N, consumed)


def _fibers(roof, alpha, x, backward):
    """(base, roof) of the fibers 0, 1, 2, ... of x (x + i alpha, or x - i
    alpha backward) one at a time, read in blocks of _NAIVE_BLOCK fibers
    and then 4 times more each block.  A block that meets the singularity
    of a PowerRoof is evaluated fiber by fiber, so only a fiber reached
    raises SingularityError."""
    lo, hi = 0, _NAIVE_BLOCK
    while True:
        pts = frac(x + _offsets(alpha, hi, backward)[lo:hi])
        try:
            fs = np.asarray(roof(pts), dtype=np.float64).tolist()
        except SingularityError:
            fs = map(roof, pts.tolist())
        yield from zip(pts.tolist(), fs)
        lo, hi = hi, hi + 4 * (hi - lo)


def evaluate_naive(roof, alpha: RotationNumber, p: FlowPoint, t: float) -> FlowStep:
    """Fiber-by-fiber stepping oracle for evaluate: the roofs are read in
    growing blocks (_fibers), and the fibers are stepped through one at a
    time in long double."""
    _finite("t", t)
    s = p.s
    fibers = _fibers(roof, alpha, p.x, t < 0.0)
    if t >= 0.0:
        remaining = np.longdouble(t)
        height = np.longdouble(s)
        consumed = np.longdouble(0.0)
        for i, (xi, fi) in enumerate(fibers):
            room = np.longdouble(fi) - height
            if remaining < room:
                return _finish(xi, fi, s, t, i, float(consumed))
            remaining -= room
            consumed += height + room
            height = np.longdouble(0.0)
    remaining = np.longdouble(-t)
    x0, f0 = next(fibers)
    if remaining <= s:
        return _finish(x0, f0, s, t, 0, 0.0)
    remaining -= np.longdouble(s)
    consumed = np.longdouble(0.0)
    for n, (xi, fi) in enumerate(fibers, 1):
        fx = np.longdouble(fi)
        consumed -= fx
        if remaining <= fx:
            return _finish(xi, fi, s, t, -n, float(consumed))
        remaining -= fx


def _union(lo, hi):
    """The intervals [lo, hi), sorted by lo, merged into (a, b) tuples: empty
    pieces drop out, and a piece that starts at or before the largest end
    before it joins that interval.  Adjacent fibers share their S entries
    exactly, so touching pieces need no rounding tolerance to merge."""
    keep = hi > lo
    lo, hi = lo[keep], hi[keep]
    if not len(lo):
        return []
    end = np.maximum.accumulate(hi)
    first = np.flatnonzero(np.append(True, lo[1:] > end[:-1]))
    last = np.append(first[1:], len(lo)) - 1
    return list(zip(lo[first].tolist(), end[last].tolist()))


@dataclass
class ABReport:
    A: list
    A0: list
    B: list
    p1: bool
    p2: bool
    p3: bool
    a_measure: float
    a0_measure: float
    excess_measure: float
    excess_ratio: float


def ab_decomposition(roof, alpha: RotationNumber, p: FlowPoint, horizon: float,
                     n: int, delta: float, height_cutoff: float | None = None,
                     a0_radius: float | None = None) -> ABReport:
    """Split [0, horizon] into the visit set A of the singular tower, its
    deep-tower core A_0, and the complement B, and check the interval
    structure (P1: A one interval; P2: A_0 one interval; P3: A minus A_0 at
    most two intervals, with its measure reported)."""
    if not horizon > 0.0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    if not isinstance(roof, PowerRoof):
        raise TypeError("ab_decomposition requires a power-singularity roof, "
                        f"got {type(roof).__name__}")
    if not -roof.gamma * (1.0 + delta) < 1.0:
        raise ValueError("need -gamma * (1 + delta) < 1")
    qn = alpha.q(n)
    if height_cutoff is None:
        height_cutoff = math.log(horizon)
    if a0_radius is None:
        a0_radius = 0.25 / alpha.q(n + 1) if n + 1 <= alpha.depth else 0.25 / alpha._virtual_q
    ia_radius = qn ** (-1.0 - delta)
    xs, _, S, _ = _crossings(roof, alpha, p, [horizon])
    in_ia, dist0 = _window_hits(alpha, p.x, xs, qn, ia_radius)
    core = dist0 <= a0_radius
    # only the fibers in I_A or in the core: fiber k holds t in
    # [S[k] - s, S[k + 1] - s)
    k = np.flatnonzero(in_ia | core)
    in_ia, core = in_ia[k], core[k]
    tau = S[k] - p.s
    lo, hi = np.maximum(tau, 0.0), np.minimum(S[k + 1] - p.s, horizon)
    # height >= cutoff means t >= tau + cutoff
    start0 = np.clip(tau + height_cutoff, lo, hi)
    A0 = _union(start0[core], hi[core])
    A = _union(lo[in_ia], hi[in_ia])
    # fibers hold disjoint times: B is the gaps of A, A minus A_0 each I_A
    # fiber up to its core height (its top if it is not in the core)
    B = [(a, b) for a, b in zip([0.0] + [b for _, b in A],
                                [a for a, _ in A] + [horizon]) if b - a > 1e-12]
    cut = np.where(core, start0, hi)[in_ia]
    excess = [(a, b) for a, b in _union(lo[in_ia], cut) if b - a > 1e-12]
    a_measure = sum(b - a for a, b in A)
    a0_measure = sum(b - a for a, b in A0)
    excess_measure = sum(b - a for a, b in excess)
    return ABReport(
        A=A, A0=A0, B=B,
        p1=len(A) <= 1,
        p2=len(A0) <= 1,
        p3=len(excess) <= 2,
        a_measure=a_measure,
        a0_measure=a0_measure,
        excess_measure=excess_measure,
        excess_ratio=excess_measure / horizon,
    )


def _window_hits(alpha, x, xs, qn, radius):
    """For the forward bases xs[k] = x + k alpha: whether some center
    -i alpha, 0 <= i < qn, lies within radius of xs[k], and the distance of
    xs[k] to 0.

    The distance from x + k alpha to -i alpha is the distance d_{k+i} of
    x + (k+i) alpha to 0, so fiber k is in I_A when the window
    d_k, ..., d_{k+qn-1} holds a hit d_j <= radius: one cumulative count of
    the hits over the bases and qn - 1 more orbit points."""
    K = len(xs)
    ys = np.concatenate((xs, frac(x + _offsets(alpha, K + qn - 1)[K:])))
    d = np.minimum(ys, 1.0 - ys)
    c = np.zeros(len(d) + 1, dtype=np.int64)
    np.cumsum(d <= radius, out=c[1:])
    return c[qn:qn + K] > c[:K], d[:K]


def time_integral(roof, alpha: RotationNumber, psi, p: FlowPoint, T):
    """Signed int_0^T psi(T_t(p)) dt for a scalar or an array of T: the
    time-integral view of _walk.  psi supplies the fiber integrals from the
    fiber bottom through fiber_integral_many(x, h), int_0^h psi(x, s) ds
    elementwise, and whole_fiber_integral_many(x, f), the same up to the roof
    values f = f(x) the walk already holds, as observables.TowerObservable
    does; a psi that carries a roof must carry this one."""
    out = _walk(roof, alpha, p, (), psi, T)[3]
    return float(out) if out.ndim == 0 else out


def evaluate_times(roof, alpha: RotationNumber, p: FlowPoint, times):
    """Vectorized T_t(p) for an array of times: returns (x, s, N) arrays.

    The position view of _walk: one cumulative roof-sum pass serves every
    requested time, so the total work is O(max |t|) regardless of how many
    times are asked for.
    """
    return _walk(roof, alpha, p, times)[:3]


def _walk(roof, alpha, p: FlowPoint, times, psi=None, T=()):
    """Positions (x, s, N) of T_t(p) at every t in times, the signed
    integrals int_0^T psi(T_t(p)) dt at every T in T, and the signed roof
    sums S_N(f)(x) crossed to the times, from one _crossings per sign over
    the union of the times and the T of that sign.
    Fiber n, reached at a time, has base bases[n] and roof fs[n] in either
    direction; its height s' = s + t - S_N is checked and clamped into
    [0, fs[n]) by _included, so every position lies in the tower.

    The integral at T is a cumulative sum of whole-fiber integrals over the
    fibers passed bottom to top (0..n-1 forward, 1..n backward), plus the
    fiber reached at T up to its height there, minus the start fiber up to
    height s.
    """
    p.validate(roof)
    _same_roof(psi, roof)
    times = np.asarray(times, dtype=np.float64)
    T = np.asarray(T, dtype=np.float64)
    xs, ss, Ss = (np.empty(times.shape) for _ in range(3))
    Ns = np.zeros(times.shape, dtype=np.int64)
    out = np.zeros(T.shape)
    for backward in (False, True):
        # nan goes forward, where _crossings rejects it; T = 0 needs no fiber
        at = times < 0.0 if backward else ~(times < 0.0)
        up = T < 0.0 if backward else ~(T <= 0.0)
        t, u = times[at], T[up]
        if not (t.size or u.size):
            continue
        bases, fs, S, n = _crossings(roof, alpha, p, np.concatenate((t, u)),
                                     backward)
        n, nT = n[:t.size], n[t.size:]
        sign = -1 if backward else 1
        xs[at], Ns[at] = bases[n], sign * n
        SN = S[n]  # sign S_N
        if backward:
            np.negative(SN, out=SN)
        Ss[at] = SN
        t += p.s  # s' = s + t - sign S_N, in t's own copy
        t -= SN
        ss[at] = _included(t, fs[n])
        if not u.size:
            continue
        top = int(np.max(nT))
        # the fibers passed: 0..top-1 forward, 1..top backward
        passed = slice(1, top + 1) if backward else slice(top)
        full = psi.whole_fiber_integral_many(bases[passed], fs[passed])
        part = psi.fiber_integral_many(np.append(bases[nT], p.x),
                                       np.append(p.s + u - sign * S[nT], p.s))
        out[up] = sign * _prefix_sums(full)[nT] + part[:-1] - part[-1]
    return xs, ss, Ns, out, Ss


def _same_roof(psi, roof):
    """Reject a psi built on another roof: its fiber integrals would follow
    its own roof while the walk crosses the fibers of this one."""
    if getattr(psi, "roof", roof) is not roof:
        raise ValueError("psi is built on another roof than the flow's")


def _crossings(roof, alpha, p: FlowPoint, times, backward=False):
    """The fiber table of the orbit of p up to every time in times (all >= 0,
    or all < 0 when backward), from one roof evaluation per fiber.

    Fiber k, k crossings away, has base x + k alpha (x - k alpha backward);
    fiber 0 is x either way.  Returns the bases xs and the roofs fs of fibers
    0..n_max, the farthest one reached; S, the _prefix_sums of the roofs
    crossed, S[0] = 0; and n, the fiber holding each time.  Forward S sums
    from fiber 0 and fiber k holds s + t in [S[k], S[k+1]); backward S sums
    from fiber 1 and fiber k holds s + t in [-S[k], -S[k-1]).  The fiber
    is the one of the exact s + t: where its float rounding lands on an S
    entry, the rounding error (Knuth's TwoSum) says which side it lies on.
    A non-finite time raises ValueError, and SingularityError names the
    first of the times whose s + t reaches a fiber whose roof raises it."""
    p.validate(roof)
    times = _finite("t", times)
    raw = p.s + times
    if backward:
        np.negative(raw, out=raw)
    targets = np.maximum(raw, 0.0)
    bases, vals = _covering_values(roof, alpha, p.x, float(np.max(targets)),
                                   backward)
    S = _prefix_sums(vals[int(backward):])
    n = (np.searchsorted(S, targets, side="left") if backward
         else np.searchsorted(S, targets, side="right") - 1)
    # backward, a time past the table has n = len(S), one past the last entry
    edge = np.flatnonzero(S[np.minimum(n, len(S) - 1)] == raw)
    if edge.size:
        t = times[edge]
        u = p.s + t
        low = u - t
        err = (p.s - low) + (t - (u - low))  # s + t = u + err exactly
        # err < 0: s + t lies below S[n] forward, past -S[n] backward
        n[edge] += (1 if backward else -1) * (err < 0.0)
    past = np.flatnonzero(n >= len(vals))
    if past.size:
        fiber = -len(vals) if backward else len(vals)
        raise SingularityError(f"the orbit reaches the singular fiber N = "
                               f"{fiber} at time {float(times[past[0]])}")
    top = int(np.max(n))
    return bases[:top + 1], vals[:top + 1], S[:top + 2], n


def _covering_values(roof, alpha, x, span, backward=False):
    """Fiber bases and roof values on the orbit of x, fibers 0, 1, ... in
    either direction, over enough fibers that the roofs crossed (backward
    from fiber 1) sum to >= span without the last two, or up to the cut
    _roof_values makes.  The count starts at span over the roof's mean, and
    each growth adds the shortfall over the mean."""
    b, mean = int(backward), roof.integral()
    hi = b + int(span / mean) + 18
    bases, vals = _roof_values(roof, alpha, x, 0, hi, backward)
    while len(vals) == hi and (total := float(np.sum(vals[b:-2]))) < span:
        hi = len(vals) + int((span - total) / mean) + 18
        more, v = _roof_values(roof, alpha, x, len(vals), hi, backward)
        bases, vals = np.append(bases, more), np.append(vals, v)
    return bases, vals


def _prefix_sums(v):
    """[0, v0, v0 + v1, ...] in float64 with no long double: plain
    cumulative sums inside blocks of B = _SUM_BLOCK terms, each block then
    shifted by its start, the sum of the block totals before it (blocked
    summation, Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., sec. 4.2).  The starts are correctly rounded running totals of the
    block totals: each total splits exactly into hi on a 2^-k grid, coarse
    enough that every running total of the hi is exact, and lo = total - hi,
    whose running totals are all that rounds (Ogita, Rump and Oishi,
    "Accurate sum and dot product", SISC 26, 2005).

    Entry i is within (B - 1) eps A_i + eps (A_i + |S_i|) / 2 of the exact
    S_i = v0 + ... + v_{i-1}, with A_i = |v0| + ... + |v_{i-1}| and
    eps = 2^-52: the local sums contribute at most (B - 1) eps A_i, and the
    start (at most A_i in size) and the final addition one rounding each."""
    v = np.asarray(v, dtype=np.float64)
    n, B = len(v), _SUM_BLOCK
    out = np.empty(n + 1)
    out[0] = 0.0
    m = n - n % B
    blocks = out[1:m + 1].reshape(-1, B)
    np.cumsum(v[:m].reshape(-1, B), axis=1, out=blocks)
    np.cumsum(v[m:], out=out[m + 1:])
    totals = out[B::B].copy()
    size = float(np.sum(np.abs(totals)))
    if math.isfinite(size):
        # the running totals of the hi stay below 2^52 grid steps
        k = 51 - math.frexp(size)[1]
        hi = np.ldexp(np.rint(np.ldexp(totals, k)), -k)
        starts = np.cumsum(hi) + np.cumsum(totals - hi)
    else:
        starts = np.cumsum(totals)
    blocks[1:] += starts[:-1, None]
    if m < n and m:
        out[m + 1:] += starts[-1]
    return out
