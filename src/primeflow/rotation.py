"""Exact continued-fraction arithmetic for rotation numbers.

A rotation number is held as its sequence of partial quotients together with
the convergent numerators/denominators and the exact signed residuals
q_n*alpha - p_n.  All invariant-critical quantities are computed with
arbitrary-precision rationals; binary64 is only used at the boundary where
callers ask for circle points.
"""

from __future__ import annotations

import json
import math
import operator
import threading
from fractions import Fraction

import numpy as np

__all__ = [
    "RotationNumber",
    "ConstructionError",
    "from_partial_quotients",
    "construct_alpha",
    "circle_distance",
    "frac",
]

# Number of virtual partial quotients (all ones) appended internally so that a
# finite quotient list pins down a concrete rational value of alpha whose
# convergent bracketing holds strictly at every exposed index.
_TAIL_DEPTH = 48

# RotationNumber.orbit: residue blocks of _BLOCK indices, _CHUNK per numpy pass
_BLOCK = 1 << 12
_CHUNK = 1 << 16

# _is_prime: Miller-Rabin on these bases is exact below _MR_BOUND, their least
# common strong pseudoprime (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


class ConstructionError(ValueError, RuntimeError):
    """Raised when the constructor of an alpha cannot satisfy its
    constraints; caught by ``except ValueError`` and by ``except
    RuntimeError`` alike."""


def circle_distance(x: float) -> float:
    """Distance of x to the nearest integer."""
    f = x - math.floor(x)
    return min(f, 1.0 - f)


def frac(x):
    """x mod 1 in float64, bit for bit equal to numpy's x % 1.0 (signed
    zero, nan and inf included) at about a fifth of its cost: fmod(x, 1) is
    exact and numpy adds 1 to a negative remainder with one rounding, while
    x - floor(x) is the same real number rounded once.  A tiny negative x
    rounds up to 1.0 either way.  An array input gets one new array, as
    with %; a 0-d input returns a numpy scalar."""
    f = np.floor(x)
    if f.ndim == 0:
        return x - f
    return np.subtract(x, f, out=f)


def _index(value, name: str = "n", low=None) -> int:
    """value as a Python int, for an int or a numpy integer; anything else,
    an integral float included, raises ValueError naming the argument, as
    does a value below low when low is given."""
    try:
        n = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if low is not None and n < low:
        raise ValueError(f"{name} must be >= {low}, got {n}")
    return n


def _integral(name, value, low=None):
    """value as a Python int for a scalar (a big int included) and as an
    int64 array for an array; an integral float such as 1e4 counts as its
    integer.  Anything else, nan and inf included, raises ValueError naming
    the argument instead of being truncated by int() or a cast, as does a
    value below low when low is given (for an array, its first such entry)."""
    if np.ndim(value) == 0:
        v = value.item() if isinstance(value, (np.generic, np.ndarray)) else value
        if isinstance(v, int) or isinstance(v, float) and v.is_integer():
            return _index(int(v), name, low)
    else:
        v = np.asarray(value)
        with np.errstate(invalid="ignore"):  # nan and inf are caught below
            k = v.astype(np.int64)
        bad = k != v
        if not bad.any():
            if low is not None and (k < low).any():
                _index(k[k < low].flat[0], name, low)  # raises for that entry
            return k
        v = v[bad].flat[0].item()
    raise ValueError(f"{name} must be an integer, got {v!r}")


def _finite(name, x):
    """x as a float64 array (complex128 if x is complex); ValueError naming
    it if any entry is not finite."""
    x = np.asarray(x, dtype=np.complex128 if np.iscomplexobj(x) else np.float64)
    if not np.isfinite(x).all():
        raise ValueError(
            f"{name} must be finite, got {x[~np.isfinite(x)].flat[0]}")
    return x


class RotationNumber:
    """An irrational rotation number given by its partial quotients.

    Denominators follow the standard convention q_0 = 1, q_1 = a_1,
    q_{n+1} = a_{n+1} q_n + q_{n-1}; numerators p_0 = 0, p_1 = 1.  The exact
    value of alpha is the continued fraction of the given quotients completed
    with a fixed all-ones tail, so every exposed residual beta_n = q_n*alpha
    - p_n is an exact rational and the bracketing
    1/(q_{n+1} + q_n) < |beta_n| <= 1/q_{n+1} holds strictly for n <= depth.
    """

    def __init__(self, quotients, flags=()):
        self.quotients = quotients = tuple(
            _integral("partial quotient", a, 1) for a in quotients)
        if not quotients:
            raise ValueError("need at least one partial quotient")
        flags = tuple(_integral("flag", n) for n in flags)
        for n in flags:
            if not 0 <= n < len(quotients):
                raise ValueError(f"flags must be integers in [0, depth = "
                                 f"{len(quotients)}), got {n}")
        self.flags = tuple(sorted(flags))

        full = quotients + (1,) * _TAIL_DEPTH
        p = [0, 1]
        q = [1, full[0]]
        # p_1/q_1 = 1/a_1, so p_1 = 1 with the p-recurrence seeded by p_0=0, p_{-1}=1
        for a in full[1:]:
            p.append(a * p[-1] + p[-2])
            q.append(a * q[-1] + q[-2])
        self.depth = len(quotients)
        self._p = p[: self.depth + 1]
        self._q = q[: self.depth + 1]
        self._value = Fraction(p[len(full)], q[len(full)])
        self._virtual_q = q[len(full)]
        self._residuals = [
            self._q[n] * self._value - self._p[n] for n in range(self.depth + 1)
        ]
        self._orbit_lock = threading.Lock()
        self._orbit_cache = {False: np.empty(0), True: np.empty(0)}
        self._sorted = None  # sorted_orbit's last (n, backward) and array

    # -- basic accessors ----------------------------------------------------

    @property
    def denominators(self):
        """q_1, ..., q_depth."""
        return tuple(self._q[1:])

    def _level(self, n: int) -> int:
        n = _index(n)
        if not 0 <= n <= self.depth:
            raise ValueError(f"index n = {n} outside [0, depth = {self.depth}]")
        return n

    def q(self, n: int) -> int:
        return self._q[self._level(n)]

    def residual(self, n: int) -> Fraction:
        """beta_n = q_n * alpha - p_n, exact."""
        return self._residuals[self._level(n)]

    @property
    def value(self) -> Fraction:
        """Exact rational standing for alpha (tail-completed)."""
        return self._value

    @property
    def float_value(self) -> float:
        return float(self._value)

    # -- circle arithmetic --------------------------------------------------

    def signed_frac(self, i: int) -> float:
        """i * alpha mod 1 as a signed value in [-1/2, 1/2): r / Q for the
        exact r = i*P mod Q (less Q when 2r >= Q), reduced in bigints, so
        phases far below 1 ulp of 1.0 stay fully resolved."""
        P, Q = self._value.numerator, self._value.denominator
        r = (_index(i, "i") * P) % Q
        if 2 * r >= Q:
            r -= Q
        return r / Q

    def orbit(self, n: int, backward: bool = False) -> np.ndarray:
        """Float images of i*alpha mod 1 (-i*alpha if backward), 0 <= i < n,
        each r / Q for the exact r = +-i*P mod Q: bit-identical to `_orbit_loop`.
        Read-only; a prefix longer than the cached one grows the cache."""
        n = _index(n, low=0)
        with self._orbit_lock:
            return self._orbit(n, backward)

    def sorted_orbit(self, n: int, backward: bool = False) -> np.ndarray:
        """np.sort(orbit(n, backward)), read-only.  A one-entry memo keeps
        the last one, so callers that sort the same orbit in turn, as the
        test functions of one Denjoy-Koksma level do, share one sort."""
        key = (_index(n, low=0), bool(backward))
        with self._orbit_lock:
            if self._sorted is None or self._sorted[0] != key:
                self._sorted = None  # the old array goes before the new one
                out = np.sort(self._orbit(*key))
                out.flags.writeable = False
                self._sorted = (key, out)
            return self._sorted[1]

    def _orbit(self, n: int, backward: bool) -> np.ndarray:
        """orbit(n, backward) with the orbit lock held."""
        P, Q = self._value.numerator, self._value.denominator
        cached = self._orbit_cache[backward]
        if n > len(cached):
            grown = np.empty(max(n, 1024, 2 * len(cached)))
            grown[: len(cached)] = cached
            _orbit_fill(P, Q, len(cached), grown[len(cached):], backward)
            grown.flags.writeable = False
            self._orbit_cache[backward] = cached = grown
        return cached[:n]

    def orbit_min_distance(self, x: float, n: int) -> float:
        """min over 0 <= i <= n of the distance of x + i*alpha to Z."""
        n = _index(n, low=0)
        X = Fraction(x) % 1
        P, Q = self._value.numerator, self._value.denominator
        D = X.denominator
        M = D * Q
        r = X.numerator * Q
        step = P * D
        best = min(r, M - r)
        for _ in range(n):
            r = (r + step) % M
            d = min(r, M - r)
            if d < best:
                best = d
        return best / M

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({"quotients": list(self.quotients), "flags": list(self.flags)})

    @classmethod
    def from_json(cls, text: str) -> "RotationNumber":
        data = json.loads(text)
        return cls(data["quotients"], data.get("flags", ()))

    def __repr__(self):
        return f"RotationNumber(quotients={self.quotients}, flags={self.flags})"


def from_partial_quotients(quotients, flags=()) -> RotationNumber:
    return RotationNumber(quotients, flags)


def _orbit_loop(P: int, Q: int, lo: int, hi: int, backward: bool = False) -> np.ndarray:
    """Bigint recurrence for RotationNumber.orbit: its fallback and test oracle."""
    step = Q - P if backward else P
    r = lo * step % Q
    out = np.empty(hi - lo)
    for k in range(hi - lo):
        out[k] = r / Q
        r += step
        if r >= Q:
            r -= Q
    return out


def _orbit_fill(P: int, Q: int, lo: int, out: np.ndarray, backward: bool) -> np.ndarray:
    """Write the orbit entries lo <= i < lo + len(out) of RotationNumber.orbit
    into out: int64 residues in blocks, divided in float64 (Q <= 2^53) or in
    long double with the binary64 midpoints redone exactly (Q < 2^62)."""
    if Q >= 1 << 62 or (Q > 1 << 53 and np.finfo(np.longdouble).nmant < 63):
        out[:] = _orbit_loop(P, Q, lo, lo + len(out), backward)
        return out
    table = np.zeros(_BLOCK, dtype=np.int64)  # j*P mod Q, built by doubling
    s = 1
    while s < _BLOCK:
        table[s : 2 * s] = table[:s] + s * P % Q
        table[s : 2 * s] -= Q * (table[s : 2 * s] >= Q)
        s *= 2
    Qld = np.array(Q).astype(np.longdouble)
    for a in range(0, len(out), _CHUNK):
        n = min(_CHUNK, len(out) - a)
        starts = np.array([(lo + a + b) * P % Q for b in range(0, n, _BLOCK)])
        r = (starts[:, None] + table).ravel()[:n]
        r -= Q * (r >= Q)
        if backward:
            r = (Q - r) * (r != 0)
        if Q <= 1 << 53:
            out[a : a + n] = r / float(Q)
            continue
        # long double holds r and Q exactly; rounding its quotient to binary64
        # errs only where it lands exactly on a binary64 midpoint
        ld = r.astype(np.longdouble) / Qld
        d = ld.astype(np.float64)
        tie = _midpoints(ld, d)
        d[tie] = [int(r[k]) / Q for k in tie]
        out[a : a + n] = d
    return out


def _midpoints(ld: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The indices where the long double ld lies exactly halfway between
    d = ld rounded to binary64 and its neighbour on ld's side.

    There e = |ld - d| is half the gap to that neighbour: spacing(d) / 2,
    or spacing(d) / 4 where ld lies below a power of two d.  With a 64-bit
    significand e has at most 11 bits and is exact in binary64 (a wider one
    can round e onto a midpoint's, which only adds an entry to redo), so 4 e
    == spacing(d) or 2 spacing(d) screens every element in float64; the few
    it passes are kept only where 2 e is the gap on ld's side exactly."""
    e = (ld - d).astype(np.float64)
    np.abs(e, out=e)
    e *= 4.0
    gap = np.spacing(d)
    hit = e == gap
    gap += gap
    hit |= e == gap
    k = np.flatnonzero(hit)
    dk = d[k]
    below = dk - np.nextafter(dk, 0.0)
    return k[e[k] == 2.0 * np.where(ld[k] > dk, np.spacing(dk), below)]


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality of n < _MR_BOUND; a larger n
    raises ConstructionError."""
    if n >= _MR_BOUND:
        raise ConstructionError(
            f"{n} is past the exact primality bound {_MR_BOUND}")
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    d, s = n - 1, 0  # n - 1 = d 2^s with d odd
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):  # n - 1 among a^(d 2^j), j < s
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def _prime_in_window(target, q_prev: int, q_cur: int, level: int) -> int:
    """The least prime q_next > q_cur in [target / 2, target] with q_next =
    q_prev (mod q_cur); ConstructionError if the window holds none."""
    lo = int(math.ceil(target * 0.5))
    hi = int(math.floor(float(target)))
    residue = q_prev % q_cur
    # candidates from the smallest one >= lo congruent to q_prev mod q_cur
    for c in range(lo + (residue - lo) % q_cur, hi + 1, q_cur):
        if c > q_cur and _is_prime(c):
            return c
    raise ConstructionError(f"no prime congruent to {residue} mod {q_cur} in "
                            f"[{lo}, {hi}] at level {level}")


def construct_alpha(mode: str, *, growth=None, depth: int = 4,
                    seed: int = 2) -> RotationNumber:
    """Build a rotation number whose flagged denominators grow by a given rule.

    mode "scaled_D": each flagged level satisfies q_{n+1} >= growth(q_n).
    mode "scaled_C_A": additionally every q_n (n >= 1) is prime and
    q_{n+1} = q_{n-1} (mod q_n) with q_{n+1} chosen prime inside the window
    [growth(q_n) / 2, growth(q_n)].
    """
    if mode not in ("scaled_D", "scaled_C_A"):
        raise ValueError(f"unknown mode {mode!r}")
    depth, seed = _integral("depth", depth, 1), _integral("seed", seed)
    prime = mode == "scaled_C_A"
    if prime and not _is_prime(seed):
        raise ConstructionError(f"seed quotient {seed} must be prime")
    if growth is None:
        growth = lambda q: q * q
    quotients = [seed]
    q_prev, q_cur = 1, seed
    for level in range(1, depth):
        if prime:
            q_next = _prime_in_window(growth(q_cur), q_prev, q_cur, level)
        else:
            target = int(math.ceil(growth(q_cur)))
            q_next = max(1, -(-(target - q_prev) // q_cur)) * q_cur + q_prev
        quotients.append((q_next - q_prev) // q_cur)
        q_prev, q_cur = q_cur, q_next
    return RotationNumber(quotients, range(1, depth))
