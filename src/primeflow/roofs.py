"""Roof functions over the circle and their Birkhoff-sum machinery.

Two roof families: power-singularity roofs f(x) = kappa*(x^g + (1-x)^g) + c0
with g in (-1, 0), and trigonometric-polynomial roofs built from resonant
frequencies of a rotation number.  On top of them: Birkhoff sums (with the
negative-time convention S_{-n}(g)(x) = -S_n(g)(x - n*alpha)), the quadratic
expansion of long sums over a rotation block, and the zero set of the
derivative sum with its small-derivative neighborhood.  Also the torus trig
polynomials; a time change is the positive one with constant 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .primes import CircleInterval
from .rotation import RotationNumber, _finite, _index, _integral, frac

__all__ = [
    "SingularityError",
    "HypothesisError",
    "ContainmentError",
    "PowerRoof",
    "FourierRoof",
    "TorusObservable",
    "TimeChange",
    "PiecewiseLinear",
    "QuadraticExpansion",
    "birkhoff_sum",
    "birkhoff_sum_many",
    "roof_from_timechange",
    "quadratic_expansion_check",
    "derivative_zero_locator",
    "small_derivative_set",
]


class SingularityError(ValueError):
    """An evaluation or orbit hit the roof singularity."""


class HypothesisError(RuntimeError):
    """A checked lemma hypothesis fails for the supplied data."""


class ContainmentError(RuntimeError):
    """A set-containment verification found a witness outside the set."""


# _trig_sum: points per block, and so per scratch buffer (32 KiB each)
_TRIG_BLOCK = 1 << 12


def _half_angle(s, c, d):
    """The one sine and cosine kernel of the package, in place on phases in
    turns: with p the phases s holds on entry, t = tan(pi (p - rint p)) and
    d = 2 / (1 + t^2), it leaves sin 2 pi p = t d in s, cos 2 pi p - 1 =
    -t^2 d in c and d = 1 + cos 2 pi p in d, three float arrays of one shape.

    Reducing p in turns is exact, so the error does not grow with |p| as a
    radian argument's does (the idea of IEEE 754-2019's sinPi and cosPi),
    and one tan costs a tenth of numpy's float64 sin or cos.  At p = +-1/2,
    t ~ 1.6e16 and t^2 stays far from overflow.  Against the exact values at
    the float phase, over 2 10^7 random phases in [-1/2, 1), the sine errs
    by at most 4.6e-16 and the cosine d - 1 by 4.8e-16 (2.1 eps), cos - 1
    by 6.6e-16 (2.9 eps) and -c / 2 = sin^2 pi p by 3.3e-16, where libm's
    cos(2 pi y) at y in [0, 1) errs by up to 6.5e-16; tests/test_roofs.py
    checks 40-digit values at 0, +-1/8, +-1/4, +-3/8, +-1/2, their
    neighbouring floats and random phases."""
    s -= np.rint(s, out=d)
    s *= math.pi
    np.tan(s, out=s)
    np.multiply(s, s, out=c)
    np.add(c, 1.0, out=d)
    np.divide(2.0, d, out=d)
    s *= d
    c *= d
    np.negative(c, out=c)


def _trig_sum(out, coords, terms):
    """out + sum over terms (c, ks) of Re c e(p) = c.real cos 2 pi p -
    c.imag sin 2 pi p, p = sum_j k_j y_j in turns, with one integer k_j per
    coordinate array y_j of coords (broadcast to out's shape).

    Every term takes one _half_angle, over blocks of _TRIG_BLOCK points that
    reuse three scratch buffers, and adds into the float array out in place;
    a zero part of c is not computed, nor a product by a real part of 1, nor
    a zero frequency's product past the first coordinate's.  A 0-d out is
    one block of one point.  So no phase array of out's size is made, and
    each term errs from Re c e(p) at the float phase p by a few ulps of |c|:
    the kernel's 4.8e-16 for the sine and the cosine d - 1, and the
    roundings of the sum."""
    terms = [(c, ks) for c, ks in terms if c]
    buf = np.empty((3, min(out.size, _TRIG_BLOCK)))
    with np.nditer((out, *coords), ("external_loop", "buffered", "zerosize_ok"),
                   [["readwrite"]] + [["readonly"]] * len(coords),
                   buffersize=_TRIG_BLOCK) as blocks:
        for o, *ys in blocks:
            s, cm1, d = buf[:, :o.size]
            for c, ks in terms:
                np.multiply(ys[0], ks[0], out=s)
                for k, y in zip(ks[1:], ys[1:]):
                    if k:
                        s += np.multiply(y, k, out=cm1)
                _half_angle(s, cm1, d)
                if c.real:
                    np.subtract(d, 1.0, out=cm1)  # cos 2 pi p
                    if c.real != 1.0:
                        cm1 *= c.real
                    o += cm1
                if c.imag:
                    s *= c.imag
                    o -= s
    return out


# _certify_positive: most grid points it evaluates before giving up
_CERTIFY_POINTS = 1 << 20


def _certify_positive(v, freqs, coeffs, what: str) -> None:
    """Raise ValueError unless v = 1 + Re sum_j c_j e(k_j . x), with integer
    frequency rows k_j (one column per axis), is positive on the torus.

    On a grid of n points per axis, n > 2 max |k|, every point lies within
    1/(2n) of a grid point on each axis, and v is 2 pi sum_j |k_j||c_j|
    Lipschitz along it; so a grid minimum above the summed slacks
    pi sum_j |k_j||c_j| / n plus a rounding allowance proves positivity.
    The grid doubles along the axis of largest slack while that is
    inconclusive, up to _CERTIFY_POINTS points."""
    mods = np.abs(np.asarray(coeffs, dtype=np.complex128))
    if mods.sum() < 1.0:
        return  # v >= 1 - sum |c_j| > 0
    k = np.abs(np.asarray(freqs, dtype=np.float64))
    lip = math.pi * (mods @ k)
    # each evaluated term errs by a few ulps of |c_j| times its phase 2 pi k_j . x
    tol = 16.0 * np.finfo(np.float64).eps * (1.0 + mods.sum() + 2.0 * lip.sum())
    n = [1 << int(2 * m).bit_length() for m in k.max(axis=0)]
    where = "circle" if len(n) == 1 else "torus"
    while math.prod(n) <= _CERTIFY_POINTS:
        low = float(np.min(v(*np.ix_(*(np.arange(m) / m for m in n)))))
        if low <= 0.0:
            raise ValueError(f"{what} is not positive on the {where}")
        slack = lip / n
        if low > slack.sum() + tol:
            return
        n[int(np.argmax(slack))] *= 2
    raise ValueError(f"positivity of the {what} could not be certified on "
                     f"{_CERTIFY_POINTS} grid points")


class PowerRoof:
    """f(x) = kappa * (x^gamma + (1-x)^gamma) + c0 on (0, 1).

    gamma in (-1, 0) so the singularity at 0 is integrable.  The default
    kappa normalizes the integral 2*kappa/(gamma+1) + c0 to 1.
    """

    def __init__(self, gamma: float = -0.5, c0: float = 0.2, kappa: float | None = None):
        if not -1.0 < gamma < 0.0:
            raise ValueError("gamma must be in (-1, 0)")
        _finite("c0", c0)
        if c0 <= 0.0:
            raise ValueError("c0 must be positive")
        if kappa is None:
            kappa = (1.0 - c0) * (gamma + 1.0) / 2.0
        _finite("kappa", kappa)
        if kappa <= 0.0:
            raise ValueError("kappa must be positive")
        self.gamma = gamma
        self.c0 = c0
        self.kappa = kappa

    def __call__(self, x, order: int = 0):
        g, k = self.gamma, self.kappa
        x = frac(np.asarray(x, dtype=np.float64))
        y = 1.0 - x
        # frac reduces a tiny negative x to 1.0, so the singularity is x or y == 0
        if np.any(np.minimum(x, y) == 0.0):
            raise SingularityError("PowerRoof evaluated at the singularity x = 0")
        if order == 0:
            out = k * (x ** g + y ** g) + self.c0
        elif order == 1:
            out = k * g * (x ** (g - 1.0) - y ** (g - 1.0))
        else:
            raise ValueError("order must be 0 or 1")
        return out if out.ndim else float(out)

    def integral(self) -> float:
        return 2.0 * self.kappa / (self.gamma + 1.0) + self.c0


class FourierRoof:
    """f(x) = 1 + Re(sum_j b_j e(q_j x)) for a finite frequency list.

    Given a rotation number alpha, the frequencies must be denominators q_n
    with n < depth and each coefficient modulus must sit in the band
    [q_{n+1}^(-2/3), q_{n+1}^(-1/2)]; without one the band is not checked.
    """

    def __init__(self, pairs, alpha: RotationNumber | None = None):
        self.pairs = tuple((_integral("q", q, 1), complex(b)) for q, b in pairs)
        if not self.pairs:
            raise ValueError("need at least one (frequency, coefficient) pair")
        _finite("b", [b for _, b in self.pairs])
        if alpha is not None:
            qmap = {alpha.q(n): n for n in range(alpha.depth + 1)}
            for q, b in self.pairs:
                n = qmap.get(q)
                if n is None or n + 1 > alpha.depth:
                    raise ValueError(f"frequency {q} is not a usable denominator")
                qn1 = alpha.q(n + 1)
                lo, hi = qn1 ** (-2.0 / 3.0), qn1 ** (-0.5)
                if not lo <= abs(b) <= hi:
                    raise ValueError(
                        f"|b_{q}| = {abs(b):.3e} outside [{lo:.3e}, {hi:.3e}]"
                    )
        _certify_positive(self, [[q] for q, _ in self.pairs],
                          [b for _, b in self.pairs], "roof")

    def __call__(self, x, order: int = 0):
        x = np.asarray(x, dtype=np.float64)
        out = _trig_sum(np.ones_like(x) if order == 0 else np.zeros_like(x),
                        (x,), ((b * (2j * math.pi * q) ** order, (q,))
                               for q, b in self.pairs))
        return out if out.ndim else float(out)

    def integral(self) -> float:
        return 1.0

    def fhat(self, q: int) -> complex:
        """Fourier coefficient at positive frequency q (b/2 convention)."""
        for qq, b in self.pairs:
            if qq == q:
                return b / 2.0
        return 0j


class TorusObservable:
    """Real trig polynomial c0 + Re sum c e(q x1 + m x2) on the torus."""

    _coeff = "c"  # the coefficients' name in a non-finite error

    def __init__(self, constant=0.0, terms=()):
        self.constant = float(_finite("constant", constant))
        self.terms = tuple((_integral("q", q), _integral("m", m), complex(c))
                           for q, m, c in terms)
        _finite(self._coeff, [c for _, _, c in self.terms])
        for q, m, _ in self.terms:
            if q == 0 and m == 0:
                raise ValueError("fold the (0, 0) mode into the constant")

    def __call__(self, x1, x2):
        x1 = np.asarray(x1, dtype=np.float64)
        x2 = np.asarray(x2, dtype=np.float64)
        out = _trig_sum(np.full(np.broadcast(x1, x2).shape, self.constant),
                        (x1, x2), ((c, (q, m)) for q, m, c in self.terms))
        return out if out.ndim else float(out)


class TimeChange(TorusObservable):
    """v(x, y) = 1 + Re(sum a_{q,m} e(q x + m y)), certified positive on the
    torus.  Given alpha, its m = 0 modes must pass FourierRoof's band check."""

    _coeff = "a"

    def __init__(self, terms, alpha: RotationNumber | None = None):
        super().__init__(1.0, terms)
        if alpha is not None and any(m == 0 for _, m, _ in self.terms):
            FourierRoof([(q, a) for q, m, a in self.terms if m == 0], alpha)
        _certify_positive(self, [[q, m] for q, m, _ in self.terms],
                          [a for _, _, a in self.terms], "time change")


class PiecewiseLinear:
    """g(x) = a + b*y + sum_k h_k [y >= c_k] with y = x mod 1, for jump
    points 0 <= c_1 < c_2 < ... < 1: the bounded-variation test functions of
    the Denjoy-Koksma checks.  The indicator of [0, 1/2) minus its mean is
    PiecewiseLinear(0.5, 0.0, [(0.5, -1.0)]); the sawtooth y - 1/2 is
    PiecewiseLinear(-0.5, 1.0).  `birkhoff_sum_many` sums it from one sorted
    orbit instead of evaluating it at every orbit point."""

    def __init__(self, a: float = 0.0, b: float = 0.0, jumps=()):
        self.a, self.b = float(a), float(b)
        self.jumps = tuple((float(c), float(h)) for c, h in jumps)
        cs = [c for c, _ in self.jumps]
        if not all(0.0 <= c < 1.0 for c in cs):
            raise ValueError(f"jump points must lie in [0, 1), got {cs}")
        if any(c >= d for c, d in zip(cs, cs[1:])):
            raise ValueError(f"jump points must be strictly increasing, got {cs}")

    def __call__(self, x):
        y = frac(np.asarray(x))
        out = self.a + self.b * y
        for c, h in self.jumps:
            out = out + h * (y >= c)
        return out


def _orbit_offsets(alpha: RotationNumber, n: int) -> np.ndarray:
    """Float images of {i*alpha mod 1} for 0 <= i < n, from exact residues."""
    return alpha.orbit(n)


def _check_orbit_clear(roof, x: float, n: int, alpha: RotationNumber) -> None:
    """Raise SingularityError if x + i alpha = 0 mod 1 for some 0 <= i < n:
    with x = a/D and alpha = P/Q exactly, solve a Q + i P D = 0 (mod D Q)."""
    if not isinstance(roof, PowerRoof):
        return
    X = Fraction(x) % 1
    P, Q, D = alpha.value.numerator, alpha.value.denominator, X.denominator
    r, step, M = X.numerator * Q, P * D, D * Q
    g = math.gcd(step, M)
    if r % g:
        return
    i = -(r // g) * pow(step // g, -1, M // g) % (M // g)
    if i < n:
        raise SingularityError(f"orbit point index {i} hits the singularity")


def birkhoff_sum(g, n: int, x: float, alpha: RotationNumber, order: int = 0) -> float:
    """S_n(g)(x) = sum_{0 <= i < n} g(x + i*alpha); for n < 0 the convention
    S_n(g)(x) = -S_{|n|}(g)(x + n*alpha), so that S is a cocycle over Z."""
    n = _index(n)
    _check_order(g, order)
    _finite("x", x)
    if n == 0:
        return 0.0
    if n < 0:
        base = (Fraction(x) - (-n) * alpha.value) % 1
        return -birkhoff_sum(g, -n, float(base), alpha, order)
    _check_orbit_clear(g, x, n, alpha)
    offs = _orbit_offsets(alpha, n)
    pts = frac(x + offs)
    vals = g(pts, order) if order else g(pts)
    return float(math.fsum(np.asarray(vals, dtype=np.float64)))


def _check_order(g, order) -> None:
    """A derivative order is only taken by the roof types; any other g would
    silently be summed at order 0."""
    if order != 0 and not isinstance(g, (PowerRoof, FourierRoof)):
        raise ValueError(f"order={order} needs a roof that takes an order, "
                         f"not {type(g).__name__}")


def _piecewise_sums(g: PiecewiseLinear, o: np.ndarray,
                    x: np.ndarray) -> np.ndarray:
    """S_n(g)(x) for each x from the sorted orbit o.

    The block path sums g at y_i = frac(frac(x + o_i)): it reduces x + o_i
    with frac and g reduces again.  With k = floor(x) and
    s_i = floor(x + o_i) - k, plus one where the first frac rounds a tiny
    negative up to 1.0, the pairs (s_i, y_i) are lexicographically
    nondecreasing in o_i, because x + o_i rounds monotonically.  So every
    count #{i : (s_i, y_i) >= (m, c)} is one searchsorted position, checked
    against the exact float expression at its two neighbours (and bisected
    on that expression where an orbit point sits within rounding of the
    threshold).  Jump counts are therefore those of the block path; the
    linear part sum y_i = n (x - k) + sum o_i - sum s_i is exact up to the
    rounding of each x + o_i."""
    n = len(o)
    k = np.floor(x)
    xr = x - k

    def past(i, m, c):
        z = x + o[i]
        w = frac(z)
        s = np.floor(z) - k + (w == 1.0)
        return (s > m) | ((s == m) & (frac(w) >= c))

    def count(m, c):
        i = np.searchsorted(o, (m + c) - xr)
        bad = (i > 0) & past(np.maximum(i - 1, 0), m, c)
        bad |= (i < n) & ~past(np.minimum(i, n - 1), m, c)
        lo, hi = np.where(bad, 0, i), np.where(bad, n, i)
        while (live := lo < hi).any():
            mid = (lo + hi) // 2
            ok = past(np.minimum(mid, n - 1), m, c)
            hi = np.where(live & ok, mid, hi)
            lo = np.where(live & ~ok, mid + 1, lo)
        return n - lo

    wraps = count(1, 0.0), count(2, 0.0)  # s_i <= 2, as x + o_i < k + 2
    out = g.a * n + g.b * (n * xr + float(np.sum(o)) - (wraps[0] + wraps[1]))
    for c, h in g.jumps:
        out = out + h * (count(0, c) - wraps[0] + count(1, c) - wraps[1]
                         + count(2, c))
    return out


def birkhoff_sum_many(g, n: int, xs: np.ndarray, alpha: RotationNumber,
                      order: int = 0) -> np.ndarray:
    """Vectorized S_n(g) over an array of base points (n >= 1).

    A `PiecewiseLinear` g is summed from one sorted orbit in
    O((n + xs.size) log n): its indicator terms equal the block path's and
    its linear part agrees to the rounding of each x + o_i."""
    n = _index(n, low=1)
    _check_order(g, order)
    xs = _finite("x", xs)
    if isinstance(g, PiecewiseLinear):
        return _piecewise_sums(g, alpha.sorted_orbit(n),
                               xs.ravel()).reshape(xs.shape)
    offs = _orbit_offsets(alpha, n)
    out = np.zeros(xs.shape)
    step = max(1, (1 << 22) // max(1, xs.size))
    for lo in range(0, n, step):
        block = frac(xs[..., None] + offs[lo : lo + step])
        vals = g(block, order) if order else g(block)
        out += np.asarray(vals, dtype=np.float64).sum(axis=-1)
    return out


def roof_from_timechange(v: TimeChange) -> FourierRoof:
    """Fiber average f(x) = int_0^1 v(x, s) ds: int_0^1 e(m s) ds vanishes
    for m != 0, so exactly the m = 0 modes survive."""
    return FourierRoof([(q, a) for q, m, a in v.terms if m == 0] or [(1, 0.0)])


@dataclass(frozen=True)
class QuadraticExpansion:
    actual: float
    predicted: float
    predicted_triangular: float
    budget: float


def quadratic_expansion_check(roof, x: float, k: int, n: int,
                              alpha: RotationNumber, L: float) -> QuadraticExpansion:
    """Compare S_{kq_n}(f)(x) against the main-plus-quadratic prediction
    k*S_{q_n}(f)(x) + coeff * S_{q_n}(f')(x) * (q_n alpha - p_n), with both
    coefficient readings coeff = k^2 and coeff = k(k-1)/2, under the orbit
    avoidance hypothesis {x + i alpha}_{i < k q_n} disjoint from [-1/L, 1/L].
    """
    k = _index(k, "k")
    if n + 1 > alpha.depth:
        raise ValueError("need n + 1 within the quotient depth")
    qn, qn1 = alpha.q(n), alpha.q(n + 1)
    if not 2 <= k <= qn1 ** 0.75 / qn:
        raise ValueError(f"k = {k} outside [2, q_(n+1)^(3/4)/q_n]")
    if not L < qn1 / 4:
        raise ValueError("need L < q_(n+1)/4")
    m = k * qn
    if alpha.orbit_min_distance(x, m - 1) <= 1.0 / L:
        pts = frac(x + _orbit_offsets(alpha, m))
        i = int(np.argmin(np.minimum(pts, 1.0 - pts)))
        raise HypothesisError(f"orbit index {i} enters [-1/L, 1/L]")
    actual = birkhoff_sum(roof, m, x, alpha)
    S = birkhoff_sum(roof, qn, x, alpha)
    Sp = birkhoff_sum(roof, qn, x, alpha, order=1)
    beta = float(alpha.residual(n))
    budget = L ** 3 * qn ** 3 * k ** 3 / qn1 ** 2 + k * L ** 2 * qn ** 2 / qn1
    return QuadraticExpansion(
        actual=actual,
        predicted=k * S + k * k * Sp * beta,
        predicted_triangular=k * S + 0.5 * k * (k - 1) * Sp * beta,
        budget=budget,
    )


def derivative_zero_locator(roof: PowerRoof, n: int, alpha: RotationNumber):
    """One zero of S_{q_n}(f') per interval of the {-i alpha}_{i<q_n}
    partition, by simultaneous bisection.  On each interval the sum is
    increasing from -inf to +inf, so the bracket is the interval itself.

    Returns a list of ((a, b), x_I) pairs in circle order.
    """
    if not isinstance(roof, PowerRoof):
        raise TypeError("zero locator requires a power-singularity roof")
    qn = alpha.q(n)
    pts = alpha.sorted_orbit(qn, backward=True)
    a = pts
    b = np.r_[pts[1:], pts[0] + 1.0]
    lo, hi = a.copy(), b.copy()
    for _ in range(60):
        if np.max(hi - lo) <= 1e-14:
            break
        mid = 0.5 * (lo + hi)
        vals = birkhoff_sum_many(roof, qn, frac(mid), alpha, order=1)
        up = vals < 0.0
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    zeros = frac(0.5 * (lo + hi))
    resid = birkhoff_sum_many(roof, qn, zeros, alpha, order=1)
    bad = np.abs(resid) > 1e-8 * qn ** 3
    if bad.any():
        i = int(np.argmax(bad))
        raise RuntimeError(
            f"bisection residual {resid[i]:.3e} on interval [{a[i]}, {b[i]})"
        )
    return [((float(a[i]), float(b[i])), float(zeros[i])) for i in range(qn)]


def small_derivative_set(roof: PowerRoof, n: int, alpha: RotationNumber,
                         threshold: float, grid: int = 10 ** 5):
    """Union of radius-2*threshold arcs around the orbit {x_n + i alpha} of a
    derivative-sum zero, verified to contain the grid points where
    |S_{q_n}(f')| < threshold."""
    grid = _integral("grid", grid, 1)
    if threshold <= 0.0:
        return []
    zeros = derivative_zero_locator(roof, n, alpha)
    x_n = zeros[0][1]
    qn = alpha.q(n)
    offs = _orbit_offsets(alpha, qn)
    arcs = [CircleInterval((x_n + o - 2.0 * threshold) % 1.0, 4.0 * threshold)
            for o in offs]
    xs = (np.arange(grid) + 0.5) / grid
    vals = np.abs(birkhoff_sum_many(roof, qn, xs, alpha, order=1))
    small = xs[vals < threshold]
    if len(small):
        covered = np.zeros(len(small), dtype=bool)
        for arc in arcs:
            covered |= arc.contains(small)
        if not covered.all():
            w = float(small[~covered][0])
            raise ContainmentError(f"small-derivative point {w} outside the union")
    return arcs

