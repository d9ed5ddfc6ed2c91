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

from .roofs import PowerRoof
from .rotation import RotationNumber, circle_distance, frac

__all__ = [
    "FlowPoint",
    "FlowStep",
    "PrecisionError",
    "ABReport",
    "evaluate",
    "evaluate_naive",
    "tower_metric",
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


def _offsets(alpha: RotationNumber, n: int, backward: bool = False) -> np.ndarray:
    """Float images of {sign * i * alpha mod 1} for 0 <= i < n."""
    return alpha.orbit(0, n, backward)


def _roof_values(roof, alpha, x, lo, hi, backward=False):
    """Bases x +- i alpha of the fibers lo <= i < hi and the roofs on them."""
    pts = frac(x + _offsets(alpha, hi, backward)[lo:hi])
    return pts, np.asarray(roof(pts), dtype=np.float64)


def evaluate(roof, alpha: RotationNumber, p: FlowPoint, t: float) -> FlowStep:
    """T_t(p): find N with S_N(f)(x) <= s + t < S_{N+1}(f)(x) on the crossing
    schedule of evaluate_times."""
    backward = t < 0.0
    xs, _, S, n = _crossings(roof, alpha, p, [t], backward)
    n, sign = int(n[0]), -1 if backward else 1
    return _finish(roof, float(xs[n]), p.s, t, sign * n, sign * float(S[n]))


def _finish(roof, end_x, s, t, N, consumed) -> FlowStep:
    end_s = s + t - consumed
    top = roof(end_x)
    if not -1e-7 <= end_s < top + 1e-7:
        raise PrecisionError(
            f"defining inclusion violated: s' = {end_s}, f(x') = {top}"
        )
    end_s = min(max(end_s, 0.0), math.nextafter(top, 0.0))
    return FlowStep(FlowPoint(end_x, end_s), N, consumed)


def evaluate_naive(roof, alpha: RotationNumber, p: FlowPoint, t: float) -> FlowStep:
    """Fiber-by-fiber stepping oracle for evaluate."""
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    x, s = p.x, p.s
    if t >= 0.0:
        remaining = np.longdouble(t)
        height = np.longdouble(s)
        i = 0
        consumed = np.longdouble(0.0)
        while True:
            xi = (x + float(_offsets(alpha, i + 1)[i])) % 1.0
            room = np.longdouble(roof(xi)) - height
            if remaining < room:
                return _finish(roof, xi, s, t, i, float(consumed))
            remaining -= room
            consumed += height + room
            height = np.longdouble(0.0)
            i += 1
    remaining = np.longdouble(-t)
    if remaining <= s:
        return _finish(roof, x % 1.0, s, t, 0, 0.0)
    remaining -= np.longdouble(s)
    consumed = np.longdouble(0.0)
    n = 1
    while True:
        xi = (x + float(_offsets(alpha, n + 1, backward=True)[n])) % 1.0
        fx = np.longdouble(roof(xi))
        consumed -= fx
        if remaining <= fx:
            return _finish(roof, xi, s, t, -n, float(consumed))
        remaining -= fx
        n += 1


def tower_metric(p: FlowPoint, q: FlowPoint) -> float:
    return circle_distance(p.x - q.x) + abs(p.s - q.s)


def _union(lo, hi):
    """The intervals [lo, hi), sorted by lo, merged into (a, b) tuples: empty
    pieces drop out, and a piece starting within 1e-9 of the largest end
    before it joins that interval."""
    keep = hi > lo
    lo, hi = lo[keep], hi[keep]
    if not len(lo):
        return []
    end = np.maximum.accumulate(hi)
    first = np.flatnonzero(np.append(True, lo[1:] > end[:-1] + 1e-9))
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
    tau = S - p.s  # fiber i holds t in [tau[i], tau[i + 1])
    lo, hi = np.maximum(tau[:-1], 0.0), np.minimum(tau[1:], horizon)
    in_ia, dist0 = _window_hits(alpha, p.x, xs, qn, ia_radius)
    core = dist0 <= a0_radius
    A = _union(lo[in_ia], hi[in_ia])
    # height >= cutoff means t >= tau_i + cutoff
    A0 = _union(np.maximum(tau[:-1][core] + height_cutoff, lo[core]), hi[core])
    # B and the excess A \ A_0 by interval subtraction
    B = _subtract([(0.0, horizon)], A)
    excess = _subtract(A, A0)
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


def _subtract(base, holes):
    out = []
    for a, b in base:
        pieces = [(a, b)]
        for ha, hb in holes:
            nxt = []
            for pa, pb in pieces:
                if hb <= pa or ha >= pb:
                    nxt.append((pa, pb))
                    continue
                if ha > pa:
                    nxt.append((pa, ha))
                if hb < pb:
                    nxt.append((hb, pb))
            pieces = nxt
        out.extend(pieces)
    return [(a, b) for a, b in out if b - a > 1e-12]


def time_integral(roof, alpha: RotationNumber, psi, p: FlowPoint, T):
    """Signed int_0^T psi(T_t(p)) dt for a scalar or an array of T: the
    time-integral view of _walk.  psi supplies the fiber integrals through
    fiber_integral_many(x, lo, hi), int_lo^hi psi(x, s) ds elementwise, and
    whole_fiber_integral_many(x, f), the same from 0 to the roof values
    f = f(x) the walk already holds, as observables.TowerObservable does."""
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
    """Positions (x, s, N) of T_t(p) at every t in times and the signed
    integrals int_0^T psi(T_t(p)) dt at every T in T, from one _crossings
    per sign over the union of the times and the T of that sign.

    The integral at T is a cumulative sum of whole-fiber integrals over the
    fibers passed bottom to top, plus the fiber reached at T up to its
    height there, minus the start fiber up to height s.
    """
    p.validate(roof)
    times = np.asarray(times, dtype=np.float64)
    T = np.asarray(T, dtype=np.float64)
    xs, ss = np.empty(times.shape), np.empty(times.shape)
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
        xs[at] = bases[n]
        ss[at] = p.s + t - sign * S[n]
        Ns[at] = sign * n
        if not u.size:
            continue
        top = int(np.max(nT))
        # fiber k's base is bases[k]; backward its roof is fs[k - 1]
        full = psi.whole_fiber_integral_many(
            bases[1:top + 1] if backward else bases[:top], fs[:top])
        part = psi.fiber_integral_many(np.append(bases[nT], p.x), 0.0,
                                       np.append(p.s + u - sign * S[nT], p.s))
        G = np.zeros(top + 1)
        G[1:] = np.cumsum(full, dtype=np.longdouble)
        out[up] = sign * G[nT] + part[:-1] - part[-1]
    return xs, ss, Ns, out


def _crossings(roof, alpha, p: FlowPoint, times, backward=False):
    """The fibers the orbit of p visits up to every time in times (all >= 0,
    or all < 0 when backward), from one roof evaluation per fiber.

    Fiber k, k crossings away, has base x + k alpha (x - k alpha backward).
    Returns the bases xs of fibers 0..n_max, the farthest one reached; fs,
    the roofs crossed in order (fibers 0..n_max, backward 1..n_max+1); S,
    their long-double partial sums rounded to float, S[0] = 0; and n, the
    fiber holding each time.  Fiber k holds s + t in [S[k], S[k+1]), or
    backward in [-S[k], -S[k-1]).  A non-finite time raises ValueError.
    """
    p.validate(roof)
    times = np.asarray(times, dtype=np.float64)
    if not np.isfinite(times).all():
        raise ValueError(f"t must be finite, got {times[~np.isfinite(times)][0]}")
    targets = p.s + times
    if backward:
        targets = np.maximum(-targets, 0.0)
    bases, vals = _covering_values(roof, alpha, p.x, float(np.max(targets)),
                                   backward)
    S = np.zeros(len(vals) + 1)
    S[1:] = np.cumsum(vals, dtype=np.longdouble)
    n = (np.searchsorted(S, targets, side="left") if backward
         else np.searchsorted(S, targets, side="right") - 1)
    top = int(np.max(n))
    # backward, the bases start at fiber 1; fiber 0 is x - 0 alpha
    xs = (np.concatenate(([(p.x + 0.0) % 1.0], bases[:top])) if backward
          else bases[:top + 1])
    return xs, vals[:top + 1], S[:top + 2], n


def _covering_values(roof, alpha, x, span, backward=False):
    """Fiber bases and roof values on the orbit of x (fibers 0, 1, ...
    forward, 1, 2, ... backward), over enough fibers that all but the last
    two roof values sum to >= span.  The count starts at span over the
    roof's mean and grows geometrically."""
    lo = 1 if backward else 0
    bases, vals = _roof_values(roof, alpha, x, lo,
                               lo + int(span / roof.integral()) + 18, backward)
    while float(np.sum(vals[:-2])) < span:
        end = lo + len(vals)
        b, v = _roof_values(roof, alpha, x, end, end + len(vals) // 8 + 16, backward)
        bases, vals = np.append(bases, b), np.append(vals, v)
    return bases, vals
