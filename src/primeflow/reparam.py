"""Time-changed linear flows on the 2-torus.

The linear flow L_t moves x to x + (t*alpha, t); the time change v > 0
reparametrizes it through the cocycle V(t, x) = int_0^t v(L_s x) ds and its
inverse u(t, x), giving T_t(x) = L_{u(t,x)}(x).  Because time changes are
finite trigonometric polynomials the cocycle has a closed form: along the
linear flow each mode e(q x1 + m x2) oscillates at frequency q*alpha + m.

Also here: the coboundary observables built from Birkhoff averages of the
time-one map, rigidity diagnostics at times k*q_n (with exactly reduced
phases, since the interesting distances sit far below float cancellation
at t ~ q_n), and the Katok weak-mixing ratio diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .roofs import FourierRoof, TimeChange, _finite, roof_from_timechange
from .rotation import RotationNumber, circle_distance, frac

__all__ = [
    "TorusPoint",
    "ReparamFlow",
    "CoboundaryPair",
    "KatokRatios",
    "RigidityReport",
    "make_timechange",
    "katok_ratios",
    "roof_sum_deviation",
    "rigidity_distance",
]

_TWO_PI = 2.0 * math.pi
# ReparamFlow.time_inverse_many: times per block, Halley steps per point
# before the bisection fallback, and the turns of the fastest mode past which
# a converged point's last step is checked before it is kept
_BLOCK = 1 << 15
_MAX_STEPS = 40
_CHECK_TURNS = 1e-3


def _unit(x):
    """x mod 1 in [0, 1): for a tiny negative x, frac(x) rounds up to 1.0."""
    x = frac(x)
    return x * (x < 1.0)


@dataclass(frozen=True)
class TorusPoint:
    x1: float
    x2: float

    def __post_init__(self):
        object.__setattr__(self, "x1", _unit(self.x1))
        object.__setattr__(self, "x2", _unit(self.x2))


class ReparamFlow:
    """T_t^{alpha, v} for a trig-polynomial time change v."""

    def __init__(self, alpha: RotationNumber, v: TimeChange):
        self.alpha = alpha
        self.v = v
        a = alpha.float_value
        self._terms = [
            (q, m, coeff, q * a + m) for q, m, coeff in v.terms
        ]
        for q, m, _, omega in self._terms:
            if abs(omega) < 1e-12:
                raise ValueError(f"mode ({q}, {m}) is resonant with the flow")
        # |V(t) - t| never exceeds this
        self._osc_bound = sum(
            abs(c) / (math.pi * abs(w)) for _, _, c, w in self._terms
        )
        self._max_freq = max((abs(w) for *_, w in self._terms), default=0.0)

    # -- cocycle ------------------------------------------------------------

    def _start_factors(self, x1, x2) -> list:
        """b_k = c_k e(q x1 + m x2) / (2 pi w_k) for every mode: scalars for
        a scalar start point, arrays for an array one."""
        out = []
        for q, m, c, w in self._terms:
            p = q * x1 + m * x2
            p = _TWO_PI * (p - np.rint(p))
            out.append(c * (np.cos(p) + 1j * np.sin(p)) / (_TWO_PI * w))
        return out

    def _cocycle(self, u, b, derivatives: bool = False):
        """V(u) for start factors b, and with derivatives also v = V' and V''.

        V = u + sum Re(b) sin(2 pi w u) + Im(b) (cos(2 pi w u) - 1).  The
        phase w u is reduced to p in [-1/2, 1/2] turns first: at w ~ 4e4 and
        u ~ 1e6 the radian argument would reach ~2.5e11, where libm takes a
        slow argument-reduction path.  Then one tan per mode gives the sine
        and cosine by the half-angle identities: with t = tan(pi p) and
        d = 2 / (1 + t^2), sin 2 pi p = t d and cos 2 pi p - 1 = -t^2 d (at
        p = +-1/2, t ~ 1.6e16 and t^2 stays far from overflow).  Against
        libm, over 2M random phases and p = 0, +-1/4, +-1/2 with their
        neighbouring floats, the sine is within 2.2e-16 absolute, and the
        cosine and -t^2 d (against cos - 1) within 4.4e-16.  Each mode's
        terms are formed whole in per-call buffers and added once, as in the
        closed form, so u from time_inverse_many is bit-identical to the one
        libm sin and cos give on the pnt_reparam times.
        """
        V = u.copy()
        if derivatives:
            v = np.ones_like(u)
            V2 = np.zeros_like(u)
        s, cm1, tmp, tmp2 = (np.empty_like(u) for _ in range(4))
        for (_, _, _, w), bk in zip(self._terms, b):
            np.multiply(u, w, out=s)
            s -= np.rint(s, out=tmp)
            s *= math.pi
            np.tan(s, out=s)
            np.multiply(s, s, out=cm1)
            np.add(cm1, 1.0, out=tmp)
            np.divide(2.0, tmp, out=tmp)
            s *= tmp  # sin 2 pi p
            cm1 *= tmp
            np.negative(cm1, out=cm1)  # cos 2 pi p - 1
            br, bi = bk.real, bk.imag
            np.multiply(br, s, out=tmp)
            tmp += np.multiply(bi, cm1, out=tmp2)
            V += tmp
            if derivatives:
                k = _TWO_PI * w
                cm1 += 1.0  # cos 2 pi p
                np.multiply(br, cm1, out=tmp)
                tmp -= np.multiply(bi, s, out=tmp2)
                tmp *= k
                v += tmp
                np.multiply(br, s, out=tmp)
                tmp += np.multiply(bi, cm1, out=tmp2)
                tmp *= k * k
                V2 -= tmp
        return (V, v, V2) if derivatives else V

    def _blocks(self, fn, t, x1, x2):
        """fn(t_block, b_block) over blocks of the broadcast of (t, x1, x2),
        reshaped to it; the start factors of a scalar start point are computed
        once and stay scalars.  A non-finite t, x1 or x2 raises ValueError."""
        t, x1, x2 = _finite("t", t), _finite("x1", x1), _finite("x2", x2)
        shape = np.broadcast_shapes(t.shape, x1.shape, x2.shape)
        ts = np.broadcast_to(t, shape).ravel()
        out = np.empty(ts.size)
        scalar = x1.ndim == 0 and x2.ndim == 0
        if scalar:
            b = self._start_factors(float(x1), float(x2))
        else:
            x1s = np.broadcast_to(x1, shape).ravel()
            x2s = np.broadcast_to(x2, shape).ravel()
        for lo in range(0, ts.size, _BLOCK):
            sl = slice(lo, lo + _BLOCK)
            if not scalar:
                b = self._start_factors(x1s[sl], x2s[sl])
            out[sl] = fn(ts[sl], b)
        return out.reshape(shape)

    def cocycle_many(self, t, x1, x2):
        """V(t, x) = t + Re sum a e(q x1 + m x2) (e(w t) - 1) / (2 pi i w)."""
        return self._blocks(self._cocycle, t, x1, x2)

    # -- inverse ------------------------------------------------------------

    def time_inverse_many(self, t, x1, x2, tol: float = 1e-12):
        """Solve V(u, x) = t for every broadcast point of (t, x1, x2).

        Each point meets |V(u_i) - t_i| <= tol (1 + |t_i|), and its u_i
        depends only on (t_i, x_i), never on the rest of the batch: Halley
        steps from u = t run per point until that point's residual meets
        the tolerance (the step computed at that evaluation is still taken,
        which brings u to rounding level, unless it turns the fastest mode by
        more than _CHECK_TURNS and raises the residual), and only the points
        that have not converged after _MAX_STEPS are bisected.  tol must be
        finite and > 0.
        """
        if not (math.isfinite(tol) and tol > 0.0):
            raise ValueError(f"tol must be finite and > 0, got {tol!r}")
        return self._blocks(lambda tb, b: self._halley(tb, b, tol), t, x1, x2)

    def _halley(self, t, b, tol):
        u = t.copy()
        todo = np.arange(t.size)
        for _ in range(_MAX_STEPS):
            uk = u[todo]
            V, v, V2 = self._cocycle(uk, b, derivatives=True)
            r = V - t
            step = 2.0 * r * v / (2.0 * v * v - r * V2)
            u[todo] = uk - step
            left = np.abs(r) > tol * (1.0 + np.abs(t))
            big = np.flatnonzero(
                ~left & (np.abs(step) * self._max_freq > _CHECK_TURNS))
            if big.size:
                bb = [bk[big] if np.ndim(bk) else bk for bk in b]
                moved = self._cocycle(u[todo[big]], bb)
                worse = big[np.abs(moved - t[big]) > np.abs(r[big])]
                u[todo[worse]] = uk[worse]
            if not left.any():
                return u
            todo, t = todo[left], t[left]
            b = [bk[left] if np.ndim(bk) else bk for bk in b]
        u[todo] = self._bisect(t, b)
        return u

    def _bisect(self, t, b):
        width = self._osc_bound + 1.0
        lo, hi = t - width, t + width
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            under = self._cocycle(mid, b) < t
            lo = np.where(under, mid, lo)
            hi = np.where(under, hi, mid)
        return 0.5 * (lo + hi)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, t, x: TorusPoint) -> TorusPoint:
        return TorusPoint(*map(float, self.evaluate_many(t, x.x1, x.x2)))

    def evaluate_many(self, t, x1, x2):
        u = self.time_inverse_many(t, x1, x2)
        a = self.alpha.float_value
        return _unit(x1 + u * a), _unit(x2 + u)

    def roof(self) -> FourierRoof:
        return roof_from_timechange(self.v)

    # -- flow protocol, shared with observables.KocherginFlow ---------------

    def positions(self, start: TorusPoint, times):
        """Coordinate arrays (x1, x2) of T_t(start) for every t in times."""
        return self.evaluate_many(times, start.x1, start.x2)

    def mean(self, psi) -> float:
        """Mean of the torus observable psi against the invariant density v."""
        return psi.mean(self.v)

    def time_integral(self, psi, x: TorusPoint, T):
        """int_0^T psi(T_t x) dt, for a scalar or an array of T, in closed
        form: substituting t = V(s) turns the integral into int_0^{U} psi(L_s
        x) v(L_s x) ds with U the inverted time, and the integrand is a finite
        sum of exponentials in s."""
        U = self.time_inverse_many(T, x.x1, x.x2)
        a = self.alpha.float_value
        # complex-exponential expansions of psi and v along the linear orbit
        def expand(constant, terms):
            out = [(0, 0, complex(constant))]
            for q, m, c in terms:
                out += [(q, m, 0.5 * c), (-q, -m, 0.5 * c.conjugate())]
            return out

        psi_terms = expand(psi.constant, psi.terms)
        v_terms = expand(1.0, self.v.terms)
        total = 0.0 + 0.0j
        for q1, m1, c1 in psi_terms:
            for q2, m2, c2 in v_terms:
                q, m = q1 + q2, m1 + m2
                amp = c1 * c2 * np.exp(2j * math.pi * (q * x.x1 + m * x.x2))
                omega = q * a + m
                if q == 0 and m == 0:
                    total += amp * U
                else:
                    total += amp * (np.exp(2j * math.pi * omega * U) - 1.0) / (
                        2j * math.pi * omega)
        return float(total.real) if np.ndim(total) == 0 else total.real

    def walk(self, psi, start: TorusPoint, times, T):
        """positions(start, times) and time_integral(psi, start, T), the
        protocol call that KocherginFlow answers from one orbit pass."""
        return self.positions(start, times), self.time_integral(psi, start, T)

    def box_masses(self, boxes: int):
        """Masses v dLeb of the cells [i/boxes, (i+1)/boxes) x [j/boxes,
        (j+1)/boxes), the mass outside them (0) and their height (1)."""
        ref = np.zeros((boxes, boxes))
        grid = np.arange(boxes) / boxes
        for q, m, c in self.v.terms:
            def seg(freq, lo):
                if freq == 0:
                    return np.full(boxes, 1.0 / boxes, dtype=complex)
                e = np.exp(2j * math.pi * freq * lo)
                return e * (np.exp(2j * math.pi * freq / boxes) - 1.0) / (
                    2j * math.pi * freq)
            ref = ref + np.real(c * np.outer(seg(q, grid), seg(m, grid)))
        return ref + 1.0 / boxes ** 2, 0.0, 1.0


def make_timechange(alpha: RotationNumber) -> TimeChange:
    """Default time change on the flagged levels: |a_{q_n,0}| = q_{n+1}^-0.6
    inside the admissible band, plus an equal-modulus (q_n, 1) mode to make
    the change genuinely two-dimensional."""
    terms = []
    for n in alpha.flags:
        if n + 1 > alpha.depth:
            continue
        amp = alpha.q(n + 1) ** -0.6
        terms += [(alpha.q(n), 0, amp), (alpha.q(n), 1, amp)]
    if not terms:
        raise ValueError("alpha has no flagged levels to build a time change")
    return TimeChange(terms, alpha)


class CoboundaryPair:
    """psi = h - h o T_1 with h = -(1/N) sum_{n<=N} S_n(g), so that psi is an
    exact coboundary of the time-one map and psi = -g + (1/N) sum g o T_1^n."""

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


@dataclass(frozen=True)
class KatokRatios:
    level: int
    q: int
    ratio1: float
    ratio2: float
    ratio2_tail: float


def katok_ratios(flow: ReparamFlow) -> list[KatokRatios]:
    """Weak-mixing diagnostics per flagged level: ratio1 = |q_n alpha - p_n|
    * q_n / |fhat(q_n)| and ratio2 = |fhat(q_n)| / sum_{k>=1} |fhat(k q_n)|
    (ratio2_tail uses the k >= 2 tail in the denominator instead)."""
    alpha = flow.alpha
    roof = flow.roof()
    out = []
    for n in alpha.flags:
        q = alpha.q(n)
        fhat = abs(roof.fhat(q))
        if fhat == 0.0:
            raise ValueError(f"flagged frequency q_{n} = {q} has zero coefficient")
        beta = abs(float(alpha.residual(n)))
        full = sum(abs(roof.fhat(k * q)) for k in range(1, _max_multiple(roof, q) + 1))
        tail = full - fhat
        out.append(KatokRatios(
            level=n, q=q,
            ratio1=beta * q / fhat,
            ratio2=fhat / full,
            ratio2_tail=(fhat / tail) if tail > 0.0 else math.inf,
        ))
    return out


def _max_multiple(roof: FourierRoof, q: int) -> int:
    top = max(qq for qq, _ in roof.pairs)
    return max(1, top // q)


def roof_sum_deviation(roof: FourierRoof, alpha: RotationNumber, M: int,
                       x: float) -> float:
    """|S_M(f)(x) - M| via the geometric-series closed form
    S_M(e(qx)) = e(qx) (e(M q alpha) - 1) / (e(q alpha) - 1), with all
    phases reduced exactly before exponentiation."""
    total = 0.0
    for q, b in roof.pairs:
        if b == 0:
            continue
        num = np.exp(2j * math.pi * alpha.signed_frac(M * q)) - 1.0
        den = np.exp(2j * math.pi * alpha.signed_frac(q)) - 1.0
        total += (b * np.exp(2j * math.pi * q * x) * num / den).real
    return abs(total)


@dataclass(frozen=True)
class RigidityReport:
    time: int
    epsilon: float
    distance: float
    roof_deviation: float


def rigidity_distance(flow: ReparamFlow, k: int, n: int,
                      x: TorusPoint) -> RigidityReport:
    """d(T_{k q_n}(x), x) at the rigidity time t0 = k q_n.

    Writing u(t0, x) = t0 + eps, the defect eps solves the fixed-point
    equation eps = -W(t0 + eps) where W = V - id; W is evaluated with the
    integer part of every phase reduced exactly, which keeps eps meaningful
    down to ~1e-15 even though t0 itself is large.
    """
    alpha = flow.alpha
    t0 = k * alpha.q(n)
    modes = [(alpha.signed_frac(t0 * q), w, b) for (q, _, _, w), b in
             zip(flow._terms, flow._start_factors(x.x1, x.x2))]
    eps = 0.0
    for _ in range(60):
        W = 0.0
        for frac_t0, w, b in modes:
            p = _TWO_PI * (frac_t0 + w * eps)
            W += b.real * math.sin(p) + b.imag * (math.cos(p) - 1.0)
        new = -W
        if abs(new - eps) < 1e-17 * (1.0 + abs(eps)):
            eps = new
            break
        eps = new
    a = alpha.float_value
    d1 = abs(alpha.signed_frac(t0) + eps * a)
    d2 = abs(eps) if abs(eps) < 0.5 else circle_distance(eps)
    dev = roof_sum_deviation(flow.roof(), alpha, t0, x.x1)
    return RigidityReport(time=t0, epsilon=eps, distance=d1 + d2,
                          roof_deviation=dev)
