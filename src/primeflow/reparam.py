"""Time-changed linear flows on the 2-torus.

The linear flow L_t moves x to x + (t*alpha, t); the time change v > 0
reparametrizes it through the cocycle V(t, x) = int_0^t v(L_s x) ds and its
inverse u(t, x), giving T_t(x) = L_{u(t,x)}(x).  Because time changes are
finite trigonometric polynomials the cocycle and the time integrals of trig
polynomials share one closed form: along the linear flow each mode e(q x1 +
m x2) oscillates at frequency q*alpha + m.

Also here: the coboundary observables built from Birkhoff averages of the
time-one map, rigidity diagnostics at times k*q_n (with exactly reduced
phases, since the interesting distances sit far below float cancellation
at t ~ q_n), and the Katok weak-mixing ratio diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .roofs import FourierRoof, TimeChange, _half_angle, roof_from_timechange
from .rotation import (RotationNumber, _finite, _index, _integral,
                       circle_distance, frac)

__all__ = [
    "TorusPoint",
    "ReparamFlow",
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
_TOL = 1e-12  # time_inverse_many's tolerance
_MAX_STEPS = 40
_CHECK_TURNS = 1e-3


def _unit(x):
    """x mod 1 in [0, 1): for a tiny negative x, frac(x) rounds up to 1.0."""
    x = frac(x)
    return x * (x < 1.0)


def _period_split(n, P: int):
    """(k, i) = np.divmod(n + P // 2, P), bit for bit, for an int64 array n
    with |n| < 2^62 and an int 0 < P < 2^62: numpy floor-divides int64 by
    one scalar divisor with a multiplication (libdivide), where np.divmod
    divides element by element, and i = m - k P is exact."""
    m = n + P // 2
    k = m // P
    return k, m - k * P


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
        # the rigidity period of _orbit_positions: the smallest q_n whose
        # drift meets the certificate of _period_table, or None
        self._period = next((q for q in alpha.denominators
                             if self._drift(q) <= _TOL * (1.0 + q / 2)), None)
        # |V - V_f| <= _eval_slope |u| + _eval_floor, V the cocycle of the
        # exact alpha and V_f _cocycle's: per mode of size |b_k| = |c_k| /
        # (2 pi |w_k|), 2 pi |u| (eps |w_k| / 2 + dw_k) from the phase (u w_k
        # rounds, dw_k = |w_k - q_k alpha - m_k|), 16 eps from the sine and
        # cosine (roofs._half_angle's documented 2.1 eps and 2.9 eps at the
        # float phase, weighted by sqrt 2, and the mode's products and sum,
        # with room to spare), and twice the relative error of b_k,
        # 2 (2 pi eps (|q_k| + |m_k|) + 8 eps + dw_k / |w_k|);
        # then eps / 2 of |u| + 2 sum |b_k| per addition into V.
        eps, K = np.finfo(np.float64).eps, len(self._terms)
        self._eval_slope, self._eval_floor = K * eps / 2, 0.0
        for q, m, c, w in self._terms:
            size = abs(c) / (_TWO_PI * abs(w))
            dw = float(abs(Fraction(w) - q * alpha.value - m))
            self._eval_slope += size * _TWO_PI * (eps * abs(w) / 2 + dw)
            self._eval_floor += size * (2 * dw / abs(w) + eps * (
                32 + K + 2 * _TWO_PI * (abs(q) + abs(m))))
        self._memo = None  # _period_table's last start point and table

    def _drift(self, P: int) -> float:
        """delta(P) >= |W(u + P) - W(u)| for every u, W = V - id.

        Mode k adds Re b_k (e(w_k u) - 1) / i to W, so it moves by |b_k| |e(w_k
        P) - 1| <= |c_k| |w_k P mod 1| / |w_k| over P, and w_k P = q_k P alpha
        mod 1 is reduced exactly by signed_frac."""
        return sum(abs(c) * abs(self.alpha.signed_frac(P * q)) / abs(w)
                   for q, _, c, w in self._terms)

    # -- cocycle ------------------------------------------------------------

    def _start_factors(self, terms, x1, x2) -> list:
        """b_k = c_k e(q x1 + m x2) / (2 pi w_k) for every mode (q, m, c, w)
        of terms: scalars for a scalar start point, arrays for an array one."""
        out = []
        for q, m, c, w in terms:
            p = q * x1 + m * x2
            p = _TWO_PI * (p - np.rint(p))
            out.append(c * (np.cos(p) + 1j * np.sin(p)) / (_TWO_PI * w))
        return out

    def _integral(self, u, c0, terms, b, derivatives: bool = False):
        """G(u) = int_0^u g(L_s x) ds for g = c0 + Re sum c e(q x1 + m x2)
        with modes terms (q, m, c, w) and their start factors b at x, and with
        derivatives also G' = g(L_u x) and G''.

        G = c0 u + sum Re(b) sin(2 pi w u) + Im(b) (cos(2 pi w u) - 1), as
        each mode oscillates at w = q alpha + m along the linear flow.  The
        phase w u goes to roofs._half_angle in turns, which reduces it to
        [-1/2, 1/2] exactly first: at w ~ 4e4 and u ~ 1e6 a radian argument
        would reach ~2.5e11, where libm takes a slow argument-reduction path.
        From one tan per mode the kernel gives the sine and cos - 1, within
        4.6e-16 and 6.6e-16 absolute of their values at the float phase.  Each
        mode's terms are formed whole in per-call buffers and added once, as
        in the closed form, so u from time_inverse_many is bit-identical to
        the one libm sin and cos give on the pnt_reparam times.
        """
        G = np.multiply(u, c0, out=np.empty_like(u))
        if derivatives:
            g = np.full_like(u, c0)
            G2 = np.zeros_like(u)
        s, cm1, tmp, tmp2 = (np.empty_like(u) for _ in range(4))
        for (_, _, _, w), bk in zip(terms, b):
            np.multiply(u, w, out=s)
            _half_angle(s, cm1, tmp)  # sin 2 pi p, cos 2 pi p - 1
            br, bi = bk.real, bk.imag
            np.multiply(br, s, out=tmp)
            tmp += np.multiply(bi, cm1, out=tmp2)
            G += tmp
            if derivatives:
                k = _TWO_PI * w
                cm1 += 1.0  # cos 2 pi p
                np.multiply(br, cm1, out=tmp)
                tmp -= np.multiply(bi, s, out=tmp2)
                tmp *= k
                g += tmp
                np.multiply(br, s, out=tmp)
                tmp += np.multiply(bi, cm1, out=tmp2)
                tmp *= k * k
                G2 -= tmp
        return (G, g, G2) if derivatives else G

    def _cocycle(self, u, b, derivatives: bool = False):
        """V(u) = G_v(u) for v's start factors b, and with derivatives also
        v = V' and V''; v's constant is 1, so V starts at u itself."""
        return self._integral(u, self.v.constant, self._terms, b, derivatives)

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
            b = self._start_factors(self._terms, float(x1), float(x2))
        else:
            x1s = np.broadcast_to(x1, shape).ravel()
            x2s = np.broadcast_to(x2, shape).ravel()
        for lo in range(0, ts.size, _BLOCK):
            sl = slice(lo, lo + _BLOCK)
            if not scalar:
                b = self._start_factors(self._terms, x1s[sl], x2s[sl])
            out[sl] = fn(ts[sl], b)
        return out.reshape(shape)

    def cocycle_many(self, t, x1, x2):
        """V(t, x) = t + Re sum a e(q x1 + m x2) (e(w t) - 1) / (2 pi i w)."""
        return self._blocks(self._cocycle, t, x1, x2)

    # -- inverse ------------------------------------------------------------

    def time_inverse_many(self, t, x1, x2):
        """Solve V(u, x) = t for every broadcast point of (t, x1, x2).

        Each point meets |V(u_i) - t_i| <= _TOL (1 + |t_i|), and its u_i
        depends only on (t_i, x_i), never on the rest of the batch: Halley
        steps from u = t run per point until that point's residual meets
        the tolerance (the step computed at that evaluation is still taken,
        which brings u to rounding level, unless it turns the fastest mode by
        more than _CHECK_TURNS and raises the residual), and only the points
        that have not converged after _MAX_STEPS are bisected.
        """
        return self._blocks(self._halley, t, x1, x2)

    def _halley(self, t, b):
        """Halley steps on V(u) = t for start factors b, from u = t."""
        u = t.copy()
        todo = np.arange(t.size)
        for _ in range(_MAX_STEPS):
            uk = u[todo]
            V, v, V2 = self._cocycle(uk, b, derivatives=True)
            r = V - t
            step = 2.0 * r * v / (2.0 * v * v - r * V2)
            u[todo] = uk - step
            left = np.abs(r) > _TOL * (1.0 + np.abs(t))
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

    def _orbit_positions(self, t, x1, x2):
        """L_{u(t)}(x), x a scalar, as coordinate arrays.  An integral t = n
        of any dtype, |n| < 2^62, is n = r + k P with r = i - P // 2 and
        i = (n + P // 2) mod P, and is read off _period_table at the exact
        position (p1_i + k (P alpha mod 1), p2_i) mod 1 of u(r) + k P.
        Non-integral times are solved cold, as is every time of a call with
        no period, no certified table or its largest |t| below P - P // 2.  At
        k = 0 the table entry is n's own cold solve, so no position depends
        on the call; other n read u(r), |r| <= P/2: rounding ~ min(|n|, P/2)."""
        t, P = np.asarray(t), self._period
        top = max(t.max(initial=0), -float(t.min(initial=0)))
        if (P is None or P - P // 2 > top
                or (table := self._period_table(x1, x2)) is None):
            return self.evaluate_many(t, x1, x2)
        (p1, p2), shift = table, self.alpha.signed_frac(P)
        whole = t.dtype.kind in "iu" and top < 2 ** 62  # integral as given
        flat = t.ravel()
        (y1, y2), cold = np.empty((2, flat.size)), np.zeros(flat.size, bool)
        for lo in range(0, flat.size, _BLOCK):
            sl = slice(lo, lo + _BLOCK)
            f = flat[sl]
            ok = whole or (f == np.rint(f)) & (np.abs(f) < 2 ** 62)
            n = (f if whole else np.where(ok, f, 0)).astype(np.int64, copy=False)
            k, i = _period_split(n, P)
            y1[sl] = _unit(p1[i] + k * shift)
            y2[sl] = p2[i]
            cold[sl] = np.logical_not(ok)
        if cold.any():
            y1[cold], y2[cold] = self.evaluate_many(flat[cold], x1, x2)
        return y1.reshape(t.shape), y2.reshape(t.shape)

    def _period_table(self, x1, x2):
        """(p1, p2) at the start point x, p_i = L_{u(r)}(x) for the cold u(r),
        r = i - P // 2, or None unless rho + delta(P) <= _TOL (1 + P/2) and
        delta(P) <= _TOL P, rho >= max |V(u(r)) - r| (the float residual and
        the _eval_slope |u| + _eval_floor allowance).  That certifies every
        read n = r + k P: with k != 0, |n| >= (|k| - 1/2) P and W = V - id
        drifts by <= delta(P) per period, so |V(u(r) + k P) - n| <= rho + |k|
        delta(P) <= _TOL (1 + P/2) + (|k| - 1) _TOL P = _TOL (1 + (|k| - 1/2)
        P) <= _TOL (1 + |n|); with k = 0 it is the cold solve.  A one-entry
        memo keyed by the exact start point lets every orbit from one start
        share one period."""
        key = (float(_finite("x1", x1)), float(_finite("x2", x2)))
        if self._memo is None or self._memo[0] != key:
            P = self._period
            t = np.arange(P, dtype=np.float64) - P // 2
            u = self.time_inverse_many(t, *key)
            rho = float(np.max(np.abs(self.cocycle_many(u, *key) - t)
                               + self._eval_slope * np.abs(u))) + self._eval_floor
            delta = self._drift(P)
            ok = rho + delta <= _TOL * (1.0 + P / 2) and delta <= _TOL * P
            self._memo = (key, self._positions(u, *key) if ok else None)
        return self._memo[1]

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

    def evaluate_many(self, t, x1, x2):
        return self._positions(self.time_inverse_many(t, x1, x2), x1, x2)

    def _positions(self, u, x1, x2):
        """L_u(x) = (x1 + u alpha, x2 + u) mod 1 as coordinate arrays."""
        return _unit(x1 + u * self.alpha.float_value), _unit(x2 + u)

    def roof(self) -> FourierRoof:
        return roof_from_timechange(self.v)

    # -- flow protocol, shared with observables.KocherginFlow ---------------

    def mean(self, psi) -> float:
        """Mean of psi against the invariant density v: psi v's constant."""
        return self._product(psi)[0]

    def _product(self, psi):
        """psi v = c0 + Re sum c e(q x1 + m x2) as c0 and its modes (q, m, c,
        w), one per +-(q, m): with the constants as (0, 0) modes, Re A Re B
        = (Re AB + Re A conj(B)) / 2 for each pair of modes, and a product
        at -(q, m) is folded into (q, m) as its conjugate."""
        coeffs = {}
        for q1, m1, c1 in ((0, 0, complex(psi.constant)), *psi.terms):
            for q2, m2, c2 in ((0, 0, complex(self.v.constant)), *self.v.terms):
                for q, m, c in ((q1 + q2, m1 + m2, c1 * c2),
                                (q1 - q2, m1 - m2, c1 * c2.conjugate())):
                    if (q, m) < (0, 0):
                        q, m, c = -q, -m, c.conjugate()
                    coeffs[q, m] = coeffs.get((q, m), 0.0) + 0.5 * c
        c0 = coeffs.pop((0, 0), 0.0).real
        a = self.alpha.float_value
        return c0, [(q, m, c, q * a + m) for (q, m), c in coeffs.items() if c]

    def time_integral(self, psi, x: TorusPoint, T):
        """int_0^T psi(T_t x) dt, for a scalar or an array of T, in closed
        form: substituting t = V(s) turns it into int_0^U (psi v)(L_s x) ds,
        U the inverted time, which is _integral for psi v as V is for v."""
        U = self.time_inverse_many(T, x.x1, x.x2)
        c0, terms = self._product(psi)
        out = self._integral(U, c0, terms,
                             self._start_factors(terms, x.x1, x.x2))
        return out if out.ndim else float(out)

    def walk(self, psi, start: TorusPoint, times, T):
        """The coordinate arrays (x1, x2) of T_t(start) at every t in times
        and time_integral(psi, start, T), the protocol call that
        KocherginFlow answers from one orbit pass; the positions are
        _orbit_positions'."""
        return (self._orbit_positions(times, start.x1, start.x2),
                self.time_integral(psi, start, T))

    def box_masses(self, boxes: int):
        """Masses v dLeb of the cells [i/boxes, (i+1)/boxes) x [j/boxes,
        (j+1)/boxes), the mass outside them (0) and their height (1)."""
        boxes = _integral("boxes", boxes, 1)
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
        amp = alpha.q(n + 1) ** -0.6
        terms += [(alpha.q(n), 0, amp), (alpha.q(n), 1, amp)]
    if not terms:
        raise ValueError("alpha has no flagged levels to build a time change")
    return TimeChange(terms, alpha)


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
        full = sum(abs(b / 2.0) for qq, b in roof.pairs if qq % q == 0)
        tail = full - fhat
        out.append(KatokRatios(
            level=n, q=q,
            ratio1=beta * q / fhat,
            ratio2=fhat / full,
            ratio2_tail=(fhat / tail) if tail > 0.0 else math.inf,
        ))
    return out


def roof_sum_deviation(roof: FourierRoof, alpha: RotationNumber, M: int,
                       x: float) -> float:
    """|S_M(f)(x) - M| via the geometric-series closed form
    S_M(e(qx)) = e(qx) (e(M q alpha) - 1) / (e(q alpha) - 1), with all
    phases reduced exactly before exponentiation."""
    total, M = 0.0, _index(M, "M")
    for q, b in roof.pairs:
        num = np.exp(2j * math.pi * alpha.signed_frac(M * q)) - 1.0
        den = np.exp(2j * math.pi * alpha.signed_frac(q)) - 1.0
        total += (b * np.exp(2j * math.pi * q * x) * num / den).real
    return abs(total)


@dataclass(frozen=True)
class RigidityReport:
    time: int
    epsilon: float
    distance: float


def rigidity_distance(flow: ReparamFlow, k: int, n: int,
                      x: TorusPoint) -> RigidityReport:
    """d(T_{k q_n}(x), x) at the rigidity time t0 = k q_n.

    Writing u(t0, x) = t0 + eps, the mode j of W = V - id at t0 + eps is Im
    b_j (e(w_j t0) e(w_j eps) - 1), and w_j t0 = q_j t0 alpha mod 1 is
    reduced exactly by signed_frac.  With the turned start factors b'_j =
    b_j e(q_j t0 alpha), V(t0 + eps) = t0 reads V_{b'}(eps) = -sum Im(b'_j
    - b_j), which the flow's own Halley solve answers; this keeps eps
    meaningful down to ~1e-15 even though t0 itself is large.
    """
    alpha = flow.alpha
    t0 = _index(k, "k") * alpha.q(n)
    b = flow._start_factors(flow._terms, x.x1, x.x2)
    turned = [bk * np.exp(2j * math.pi * alpha.signed_frac(t0 * q))
              for (q, *_), bk in zip(flow._terms, b)]
    shift = sum((bt - bk).imag for bt, bk in zip(turned, b))
    eps = float(flow._halley(np.array([-shift]), turned)[0])
    a = alpha.float_value
    d1 = abs(alpha.signed_frac(t0) + eps * a)
    d2 = abs(eps) if abs(eps) < 0.5 else circle_distance(eps)
    return RigidityReport(time=t0, epsilon=eps, distance=d1 + d2)
