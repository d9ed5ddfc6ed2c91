"""Segmented prime sieving and the prime-sum functionals used throughout:
Chebyshev theta sums over intervals and residue classes, the maximal
arithmetic-progression error E(x, q), quadratic-phase exponential sums,
indicator-box sums, and the pigeonhole interval partition of the circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rotation import _finite, _integral, frac

__all__ = [
    "ResourceError",
    "PrimeTable",
    "PhaseCoefficients",
    "CircleInterval",
    "build_table",
    "theta_interval",
    "ap_error",
    "ap_error_many",
    "select_S_qr",
    "quad_phase_sum",
    "diophantine_gamma2_check",
    "box_indicator_sum",
    "build_interval_partition",
    "short_interval_ap_average",
]

_SEGMENT = 1 << 22
_MAX_LIMIT = 1 << 31
# moduli x primes held at once by ap_error_many (one modulus at least):
# 128 KiB float64 buffers stay in cache and are reused between chunks
_AP_CHUNK = 1 << 14


class ResourceError(RuntimeError):
    """Sieve limit or memory budget exceeded."""


def _simple_sieve(limit: int) -> np.ndarray:
    is_p = np.ones(limit + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, int(limit ** 0.5) + 1):
        if is_p[p]:
            is_p[p * p :: p] = False
    return np.flatnonzero(is_p).astype(np.int64)


def _log_sum(ps) -> float:
    """Sum of log p over the primes ps: math.fsum of their float64 logs,
    exactly rounded on every platform."""
    return math.fsum(np.log(ps.astype(np.float64)))


class PrimeTable:
    """The primes up to a limit as one sorted int64 array, which every query
    reads."""

    def __init__(self, limit: int, primes: np.ndarray):
        self.limit = _integral("limit", limit)
        self.primes = primes

    def is_prime(self, n) -> np.ndarray:
        """Primality of each integer n in [0, limit]; a non-integral n
        raises ValueError, one outside the range ResourceError."""
        k = _integral("is_prime's n", n)
        if np.any(k > self.limit) or np.any(k < 0):
            raise ResourceError("query outside sieve range")
        i = np.minimum(np.searchsorted(self.primes, k), len(self.primes) - 1)
        return self.primes[i] == k

    def theta(self, x) -> float:
        """Sum of log p over primes p <= x."""
        if x > self.limit:
            raise ResourceError(f"theta({x}) beyond sieve limit {self.limit}")
        return _log_sum(self.primes_between(0, x))

    def primes_between(self, lo, hi) -> np.ndarray:
        """Primes p with lo < p <= hi; a nan bound raises ValueError."""
        for name, bound in (("lo", lo), ("hi", hi)):
            if bound != bound:
                raise ValueError(f"{name} must not be nan, got {bound}")
        if hi > self.limit:
            raise ResourceError(f"range ({lo}, {hi}] beyond sieve limit {self.limit}")
        i = np.searchsorted(self.primes, lo, side="right")
        j = np.searchsorted(self.primes, hi, side="right")
        return self.primes[i:j]


def build_table(limit: int) -> PrimeTable:
    """Sieve of Eratosthenes up to limit in windows of _SEGMENT integers; a
    limit above _MAX_LIMIT raises ResourceError before anything is built."""
    limit = _integral("limit", limit)
    if limit < 2:
        raise ValueError("limit must be >= 2")
    if limit > _MAX_LIMIT:
        raise ResourceError(f"limit {limit} exceeds budget {_MAX_LIMIT}")
    base = _simple_sieve(int(limit ** 0.5) + 1)
    chunks = []
    for lo in range(0, limit + 1, _SEGMENT):
        hi = min(lo + _SEGMENT, limit + 1)
        mask = np.ones(hi - lo, dtype=bool)
        mask[: max(0, 2 - lo)] = False  # 0 and 1
        for p in base:
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start < hi:
                mask[start - lo :: p] = False
        chunks.append(np.flatnonzero(mask) + lo)
    return PrimeTable(limit, np.concatenate(chunks))


def theta_interval(table: PrimeTable, N: int, H: int) -> float:
    """Sum of log p over primes in (N, N+H], for H >= 0."""
    if H < 0:
        raise ValueError(f"H must be >= 0, got {H}")
    return _log_sum(table.primes_between(N, N + H))


def _totient(q: int) -> int:
    phi, n, p = q, q, 2
    while p * p <= n:
        if n % p == 0:
            phi -= phi // p
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        phi -= phi // n
    return phi


def _check_x(x) -> None:
    _finite("x", x)
    if not x >= 1:
        raise ValueError(f"x must be >= 1, got {x}")


def ap_error(table: PrimeTable, x: int, q: int) -> float:
    """E(x, q): max over coprime classes a of sup_{y < x} of
    |sum_{p <= y, p = a (q)} log p - y / phi(q)|.

    Inside a class the deviation falls linearly between prime jumps, so the
    sup is the largest of |theta - p/phi| just before and just after each
    prime p < x of the class and |theta - x/phi| as y -> x; a class with no
    prime below x contributes x/phi.
    """
    q = _integral("q", q)
    if q < 1:
        raise ValueError("q must be >= 1")
    _check_x(x)
    # every select_S_qr candidate is prime: read it off the sieve
    phi = q - 1 if q <= table.limit and table.is_prime(q) else _totient(q)
    ps = table.primes_between(1, math.ceil(x) - 1)  # primes p < x
    ps = ps[q % ps != 0]  # a prime is coprime to q unless it divides q
    if len(ps) == 0:
        return x / phi
    res = ps % q
    order = np.argsort(res, kind="stable")  # by class, ascending inside each
    ps, res = ps[order].astype(np.float64), res[order]
    cs = np.r_[0.0, np.cumsum(np.log(ps))]
    # theta of the class just before and just after each of its primes
    base = cs[np.searchsorted(res, res)]
    before, after = cs[:-1] - base, cs[1:] - base
    last = np.r_[res[1:] != res[:-1], True]
    empty = x / phi if np.count_nonzero(last) < phi else 0.0
    return float(max(empty, np.abs(before - ps / phi).max(),
                     np.abs(after - ps / phi).max(),
                     np.abs(after[last] - x / phi).max()))


def ap_error_many(table: PrimeTable, x, qs) -> np.ndarray:
    """E(x, q) of `ap_error` for every modulus q in qs at one x, bit-identical
    to [ap_error(table, x, q) for q in qs] (for q < 2^53).

    The primes below x, their logs and phi(q) are found once per call.  Each
    chunk of moduli sorts its residue matrix with one stable row-wise sort;
    a prime dividing q sits alone in its class and gets weight 0, so the
    row cumulative sums over the others are the scalar ones.
    """
    _check_x(x)
    qs = np.asarray(_integral("q", qs))
    flat = qs.reshape(-1)
    if flat.size and flat.min() < 1:
        raise ValueError(f"q must be >= 1, got {int(flat.min())}")
    phi = flat - 1
    # trial division only for moduli the sieve does not mark prime
    other = flat > table.limit
    other[~other] = ~table.is_prime(flat[~other])
    for i in np.flatnonzero(other):
        phi[i] = _totient(int(flat[i]))
    out = x / phi
    ps = table.primes_between(1, math.ceil(x) - 1)  # primes p < x
    if len(ps) and flat.size:
        logs = np.log(ps.astype(np.float64))
        rows = max(1, _AP_CHUNK // len(ps))
        for lo in range(0, flat.size, rows):
            part = slice(lo, lo + rows)
            out[part] = _ap_error_rows(ps, logs, flat[part], phi[part],
                                       out[part])
    return out.reshape(qs.shape)


def _ap_error_rows(ps, logs, qs, phi, x_phi) -> np.ndarray:
    """ap_error's jump form with one row per modulus; see ap_error_many."""
    m, n = len(qs), len(ps)
    res = ps % qs[:, None]
    order = np.argsort(res, axis=1, kind="stable")
    p, w = ps[order], logs[order]
    res = np.take_along_axis(res, order, axis=1)
    start = np.ones((m, n), dtype=bool)  # first prime of its class
    np.not_equal(res[:, 1:], res[:, :-1], out=start[:, 1:])
    last = np.ones_like(start)  # last prime of its class
    last[:, :-1] = start[:, 1:]
    # phi(q) = q - 1 only for a prime q, which no prime but q divides
    keep = p != qs[:, None]
    other = phi != qs - 1
    if other.any():
        keep[other] = qs[other, None] % p[other] != 0
    np.multiply(w, keep, out=w)  # times a bool: exact for finite values
    cs = np.zeros((m, n + 1))
    np.cumsum(w, axis=1, out=cs[:, 1:])
    # theta of the class just before its first prime: the row sums never
    # decrease, so a running max of the values at class starts reads it off
    base = np.multiply(cs[:, :-1], start, out=w)
    np.maximum.accumulate(base, axis=1, out=base)
    after = cs[:, 1:] - base
    before = np.subtract(cs[:, :-1], base, out=base)
    p = np.divide(p, phi[:, None])
    dev = np.abs(np.subtract(before, p, out=before), out=before)
    tail = np.abs(np.subtract(after, p, out=p), out=p)
    np.maximum(dev, tail, out=dev)
    tail = np.abs(np.subtract(after, x_phi[:, None], out=tail), out=tail)
    np.maximum(dev, np.multiply(tail, last, out=tail), out=dev)
    np.multiply(dev, keep, out=dev)
    classes = np.count_nonzero(last & keep, axis=1)
    return np.maximum(dev.max(axis=1), np.where(classes < phi, x_phi, 0.0))


def select_S_qr(table: PrimeTable, q: int, r: int, N: int, C: float,
                A: float) -> list[int]:
    """Primes l in [N/2, N] with l = r (mod q) passing the dyadic E-filter
    E(x_n, l) <= C * x_n / (N * log(x_n)^(2A)) for x_1 = N^(1/2 + 1/100),
    x_{n+1} = 2 x_n, up to the sieve limit."""
    q, r, N = _integral("q", q), _integral("r", r), _integral("N", N)
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    x1 = N ** (0.5 + 0.01)
    if x1 > table.limit:
        raise ResourceError(
            f"insufficient sieve range: need x_1 = {x1:.0f} <= {table.limit}"
        )
    xs = []
    x = x1
    while x <= table.limit:
        xs.append(int(math.ceil(x)))
        x *= 2
    lo = -(-N // 2) - 1  # primes l with l > ceil(N/2) - 1, i.e. l >= N/2
    cands = table.primes_between(lo, N)
    cands = cands[cands % q == r % q]
    # one round per x_n on the candidates that passed every earlier x_n
    for xn in xs:
        if len(cands) == 0:
            break
        bound = C * xn / (N * math.log(xn) ** (2 * A))
        cands = cands[ap_error_many(table, xn, cands) <= bound]
    return [int(ell) for ell in cands]


@dataclass(frozen=True)
class PhaseCoefficients:
    """Linear and quadratic phase slopes over the window (N, N+H]."""

    gamma1: float
    gamma2: float
    N: int
    H: int

    def __post_init__(self):
        if not (0.0 <= self.gamma1 < 1.0 and 0.0 <= self.gamma2 < 1.0):
            raise ValueError("gamma1, gamma2 must lie in [0, 1)")
        object.__setattr__(self, "N", _integral("N", self.N))
        object.__setattr__(self, "H", _integral("H", self.H))


def _phase_pairs(table: PrimeTable, coeffs: PhaseCoefficients):
    ps = table.primes_between(coeffs.N, coeffs.N + coeffs.H)
    m = (ps - coeffs.N).astype(np.float64)
    u = frac(coeffs.gamma1 * m)
    w = frac(coeffs.gamma2 * m * m)
    return ps, u, w


def quad_phase_sum(table: PrimeTable, coeffs: PhaseCoefficients) -> complex:
    """Sum of e(gamma1 (p-N) + gamma2 (p-N)^2) log p over primes in (N, N+H]."""
    ps, u, w = _phase_pairs(table, coeffs)
    if len(ps) == 0:
        return 0j
    logs = np.log(ps.astype(np.float64))
    phase = 2.0 * np.pi * frac(u + w)
    re = math.fsum(logs * np.cos(phase))
    im = math.fsum(logs * np.sin(phase))
    return complex(re, im)


def diophantine_gamma2_check(gamma2: float, N: int, H: int, B: float) -> bool:
    """True iff |r * gamma2| >= (log N)^B / H^2 for every 0 < r <= (log N)^B."""
    if H < 1:
        raise ValueError("H must be >= 1")
    bound = math.log(N) ** B
    thresh = bound / (H * H)
    r = 1
    while r <= bound:
        f = (r * gamma2) % 1.0
        if min(f, 1.0 - f) < thresh:
            return False
        r += 1
    return True


@dataclass(frozen=True)
class CircleInterval:
    """Half-open arc [start, start + length) on the circle."""

    start: float
    length: float

    def __post_init__(self):
        object.__setattr__(self, "start", self.start % 1.0)

    @property
    def empty(self) -> bool:
        return self.length <= 0.0

    @property
    def full(self) -> bool:
        return self.length >= 1.0

    def contains(self, x):
        x = np.asarray(x, dtype=np.float64)
        if self.empty:
            return np.zeros(x.shape, dtype=bool)
        if self.full:
            return np.ones(x.shape, dtype=bool)
        return frac(x - self.start) < self.length

    @classmethod
    def full_circle(cls) -> "CircleInterval":
        return cls(0.0, 1.0)


def box_indicator_sum(table: PrimeTable, coeffs: PhaseCoefficients,
                      I: CircleInterval, J: CircleInterval) -> float:
    """Log-weighted count of primes in (N, N+H] whose phase pair
    (gamma1 (p-N), gamma2 (p-N)^2) mod 1 lands in I x J."""
    ps, u, w = _phase_pairs(table, coeffs)
    if len(ps) == 0:
        return 0.0
    return _log_sum(ps[I.contains(u) & J.contains(w)])


def build_interval_partition(table: PrimeTable, q: int, gamma1: float,
                             N: int, H: int) -> list[CircleInterval]:
    """Equal-length partition of the circle into q^2 arcs whose endpoints are
    midpoints of the least-hit offset family of width-2/q^9 cells.

    The offset l0 minimizes the log-weighted count of primes in (N, N+H]
    whose gamma1-phase falls in the union of cells
    [j/q^2 + l0 * 2/q^9, j/q^2 + (l0+1) * 2/q^9), j < q^2.
    """
    q, N, H = _integral("q", q), _integral("N", N), _integral("H", H)
    if q < 2:
        raise ValueError("q must be >= 2")
    ps = table.primes_between(N, N + H)
    m = (ps - N).astype(np.float64)
    y = frac(gamma1 * m)
    cell = 1.0 / (q * q)
    binw = 2.0 * q ** -9.0
    nbins = q ** 7 // 2  # complete bins only
    if nbins < 1:
        nbins = 1
    offs = (y % cell) / binw
    idx = np.minimum(offs.astype(np.int64), nbins - 1)
    weights = np.log(ps.astype(np.float64)) if len(ps) else np.zeros(0)
    hist = np.bincount(idx, weights=weights, minlength=nbins)
    ell0 = int(np.argmin(hist))
    c0 = (2 * ell0 + 1) * q ** -9.0
    return [CircleInterval(j * cell + c0, cell) for j in range(q * q)]


def short_interval_ap_average(table: PrimeTable, N: int, H: int,
                              v: int) -> tuple[float, int]:
    """Average over windows [z+jH, z+(j+1)H] of the sup-over-class deviation
    |theta-window - H/phi(v)|, minimized over the window offset z < H."""
    N, H, v = _integral("N", N), _integral("H", H), _integral("v", v)
    if H < 2 or v < 1 or N > table.limit:
        raise ValueError("need H >= 2, v >= 1, N <= limit")
    phi = _totient(v)
    target = H / phi
    ps = table.primes_between(1, N + H)
    logs = np.log(ps.astype(np.float64))
    classes = [a for a in range(v) if math.gcd(a, v) == 1]
    err = None
    for a in classes:
        arr = np.zeros(N + H + 1)
        sel = ps % v == a
        arr[ps[sel]] = logs[sel]
        cum = np.cumsum(arr)
        dev = np.abs(cum[H:] - cum[:-H] - target)  # window (t, t+H]
        err = dev if err is None else np.maximum(err, dev)
    J = N // H
    score = err[: J * H].reshape(J, H).sum(axis=0)
    z = int(np.argmin(score))
    return float(score[z] / J), z
