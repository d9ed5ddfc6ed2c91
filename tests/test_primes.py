import math
import re

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primeflow import primes
from primeflow.primes import (
    CircleInterval,
    PhaseCoefficients,
    ResourceError,
    ap_error,
    ap_error_many,
    box_indicator_sum,
    build_interval_partition,
    build_table,
    diophantine_gamma2_check,
    quad_phase_sum,
    select_S_qr,
    short_interval_ap_average,
    theta_interval,
)
from primeflow.rotation import construct_alpha

from helpers import theta_ap


@pytest.fixture(scope="module")
def table():
    return build_table(10 ** 6)


def test_small_primes(table):
    assert list(table.primes[:10]) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(table.primes_between(0, 100)) == 25
    assert len(table.primes_between(0, 10 ** 6)) == 78498


def test_is_prime_vectorized(table):
    got = table.is_prime([0, 1, 2, 3, 4, 97, 100, 7919])
    assert list(got) == [False, False, True, True, False, True, False, True]
    # integral floats read as the integers, up to the limit
    got = table.is_prime(np.array([7.0, 8.0, 999983.0, 10.0 ** 6]))
    assert list(got) == [True, False, True, False]


def test_is_prime_out_of_range(table):
    with pytest.raises(ResourceError):
        table.is_prime(10 ** 6 + 1)
    with pytest.raises(ResourceError, match=r"^theta\(1000001\) beyond"):
        table.theta(10 ** 6 + 1)
    with pytest.raises(ResourceError, match=r"^range \(0, 1000001\] beyond"):
        table.primes_between(0, 10 ** 6 + 1)


@pytest.mark.parametrize("n", [2.5, [7.9, 4.0], float("nan"), [3, float("inf")]])
def test_is_prime_rejects_non_integral(n):
    # the int64 cast would truncate 2.5 to the prime 2
    with pytest.raises(ValueError, match="^is_prime's n must be an integer"):
        build_table(100).is_prime(n)


def test_theta_frozen_values(table):
    # theta(20) = log(2*3*5*7*11*13*17*19) = log 9699690
    assert abs(table.theta(20) - math.log(9699690)) < 1e-12
    assert abs(table.theta(100) - 83.72839039906393) < 1e-9
    assert abs(table.theta(10 ** 6) - 998484.1750256342) < 1e-6
    assert table.theta(1) == 0.0


def test_theta_interval_frozen(table):
    # primes in (10, 20]: 11, 13, 17, 19
    assert abs(theta_interval(table, 10, 10) - 10.740496953482564) < 1e-12
    assert theta_interval(table, 24, 4) == 0.0


def test_theta_interval_rejects_negative_length(table):
    assert theta_interval(table, 10, 0) == 0.0
    with pytest.raises(ValueError, match="H must be >= 0, got -1"):
        theta_interval(table, 10, -1)


def test_nan_bounds_rejected():
    # searchsorted puts nan past every prime: (10, nan] read as (10, limit]
    small = build_table(1000)
    for call, msg in (
            (lambda: small.primes_between(10, math.nan), "hi must not be nan"),
            (lambda: small.primes_between(math.nan, 100), "lo must not be nan"),
            (lambda: small.theta(math.nan), "hi must not be nan"),
            (lambda: theta_interval(small, 10, math.nan),
             "H must be an integer, got nan")):
        with pytest.raises(ValueError, match=f"^{msg}"):
            call()


def test_theta_interval_additive(table):
    a = theta_interval(table, 1000, 500)
    b = theta_interval(table, 1500, 500)
    assert abs(a + b - theta_interval(table, 1000, 1000)) < 1e-9


def test_theta_ap_frozen(table):
    # p <= 50 with p = 1 (mod 4): 5, 13, 17, 29, 37, 41
    assert abs(theta_ap(table, 50, 4, 1) - 17.69938642328686) < 1e-12
    assert abs(theta_ap(table, 50, 4, 3) - 22.56768582750615) < 1e-12


def test_theta_ap_partitions_theta(table):
    x = 10 ** 4
    total = sum(theta_ap(table, x, 7, a) for a in range(7))
    assert abs(total - table.theta(x)) < 1e-8


def test_ap_error_frozen(table):
    assert abs(ap_error(table, 30, 3) - 7.54470151431671) < 1e-9
    assert abs(ap_error(table, 100, 4) - 14.428988357839316) < 1e-9
    assert abs(ap_error(table, 1000, 7) - 26.621020223931964) < 1e-9


def _ap_error_scan(table, x, q):
    """E(x, q) by walking each coprime class prime by prime: |theta - y/phi|
    just before and just after every jump, and as y -> x."""
    classes = [a for a in range(q) if math.gcd(a, q) == 1]
    phi = len(classes)
    primes = [int(p) for p in table.primes_between(1, 5000) if p < x]
    best = 0.0
    for a in classes:
        cum = 0.0
        for p in primes:
            if p % q == a:
                best = max(best, abs(cum - p / phi))
                cum += math.log(p)
                best = max(best, abs(cum - p / phi))
        best = max(best, abs(cum - x / phi))
    return best


@example(x=400, q=5)
@example(x=500, q=1)  # a single class
@example(x=30, q=97)  # q > x: most classes have no prime
@example(x=1000, q=30)  # composite q, primes 2, 3, 5 left out
@example(x=4, q=4)  # no prime p < 4 with p = 1 (mod 4)
@example(x=1, q=3)  # no prime below x at all
@example(x=11.5, q=1)  # 11 < x counts
@settings(max_examples=150, deadline=None)
@given(x=st.integers(1, 5000) | st.floats(1.0, 5000.0), q=st.integers(1, 500))
def test_ap_error_matches_scan(table, x, q):
    ref = _ap_error_scan(table, x, q)
    assert abs(ap_error(table, x, q) - ref) <= 1e-12 * max(1.0, ref)


@pytest.mark.parametrize("x, q", [(500, 1009), (900, 997), (30, 97), (10, 11)])
def test_ap_error_prime_modulus_reads_the_sieve(x, q):
    # phi(q) = q - 1 from the sieve when q is within it, trial division
    # when it is not: bit-identical values
    inside, outside = build_table(2000), build_table(x)
    assert q > outside.limit
    assert ap_error(inside, x, q) == ap_error(outside, x, q)


@pytest.mark.parametrize("x", [0, -5, 0.5])
def test_ap_error_rejects_x_below_one(table, x):
    with pytest.raises(ValueError, match=f"x must be >= 1, got {x}"):
        ap_error(table, x, 3)


def test_ap_error_empty_class(table):
    # no prime p < 6 with p = 1 (mod 4) except 5; p = 3 (mod 4) gives just 3
    # tiny x where one coprime class is empty: x = 4, q = 4 has no p = 1 (4)
    assert ap_error(table, 4, 4) >= 4 / 2


@pytest.mark.parametrize("x", [math.inf, math.nan, -math.inf])
def test_ap_error_rejects_non_finite_x(table, x):
    with pytest.raises(ValueError, match="x must be"):
        ap_error(table, x, 3)
    with pytest.raises(ValueError, match="x must be"):
        ap_error_many(table, x, [3])


@pytest.mark.parametrize("qs", [[0], [3, -2], [5, 0, 7]])
def test_ap_error_many_rejects_q_below_one(table, qs):
    with pytest.raises(ValueError, match=f"q must be >= 1, got {min(qs)}"):
        ap_error_many(table, 100, qs)


@pytest.mark.parametrize("q", [2.5, math.nan, 7.000001])
def test_ap_error_rejects_non_integral_modulus(table, q):
    # the int64 cast alone would read 2.5 as the modulus 2
    msg = f"^q must be an integer, got {q}$"
    with pytest.raises(ValueError, match=msg):
        ap_error_many(table, 100, [3, q])
    with pytest.raises(ValueError, match=msg):
        ap_error(table, 100, q)


_HALF = CircleInterval(0.0, 0.5)


def _alpha(depth=4, seed=2):
    return construct_alpha("scaled_D", growth=lambda q: q ** 2, depth=depth,
                           seed=seed).quotients


@pytest.mark.parametrize("name, call, good", [
    ("q", lambda t, v: select_S_qr(t, v, 2, 2000, 1e7, 2.0), 3),
    ("r", lambda t, v: select_S_qr(t, 3, v, 2000, 1e7, 2.0), 2),
    ("N", lambda t, v: select_S_qr(t, 3, 2, v, 1e7, 2.0), 2000),
    ("depth", lambda t, v: _alpha(depth=v), 4),
    ("seed", lambda t, v: _alpha(seed=v), 2),
    ("limit", lambda t, v: build_table(v).primes.tolist(), 1000),
    ("N", lambda t, v: short_interval_ap_average(t, v, 100, 3), 2000),
    ("H", lambda t, v: short_interval_ap_average(t, 2000, v, 3), 100),
    ("v", lambda t, v: short_interval_ap_average(t, 2000, 100, v), 3),
    ("N", lambda t, v: box_indicator_sum(
        t, PhaseCoefficients(0.1, 0.2, v, 100), _HALF, _HALF), 1000),
    ("H", lambda t, v: box_indicator_sum(
        t, PhaseCoefficients(0.1, 0.2, 1000, v), _HALF, _HALF), 100),
    ("q", lambda t, v: build_interval_partition(t, v, 0.1, 5000, 100), 2),
    ("N", lambda t, v: build_interval_partition(t, 2, 0.1, v, 100), 5000),
    ("H", lambda t, v: build_interval_partition(t, 2, 0.1, 5000, v), 100),
    ("N", lambda t, v: theta_interval(t, v, 100), 1000),
    ("H", lambda t, v: theta_interval(t, 1000, v), 100),
    ("N", lambda t, v: diophantine_gamma2_check(0.4142, v, 1000, 2.0), 10 ** 6),
    ("H", lambda t, v: diophantine_gamma2_check(0.4142, 10 ** 6, v, 2.0), 1000),
], ids=["select_S_qr-q", "select_S_qr-r", "select_S_qr-N",
        "construct_alpha-depth", "construct_alpha-seed", "build_table-limit",
        "short_interval-N", "short_interval-H", "short_interval-v",
        "phase_coefficients-N", "phase_coefficients-H", "interval_partition-q",
        "interval_partition-N", "interval_partition-H", "theta_interval-N",
        "theta_interval-H", "gamma2_check-N", "gamma2_check-H"])
def test_integral_arguments(name, call, good):
    # a cast or int() would read good + 0.5 as good (q = 3.5 as a float
    # modulus), and range() or np.zeros would fail on it with a raw
    # TypeError; an integral float such as 2e3 gives the int answer
    small = build_table(10 ** 4)
    for bad in (good + 0.5, math.nan, str(good)):
        msg = f"^{name} must be an integer, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=msg):
            call(small, bad)
    assert call(small, float(good)) == call(small, good)


@pytest.mark.parametrize("call, msg", [
    (lambda t: build_table(1), "limit must be >= 2, got 1"),
    (lambda t: ap_error(t, 100, 0), "q must be >= 1, got 0"),
    (lambda t: build_interval_partition(t, 1, 0.1, 5000, 100),
     "q must be >= 2, got 1"),
    (lambda t: short_interval_ap_average(t, 2000, 1, 3), "H must be >= 2, got 1"),
    (lambda t: short_interval_ap_average(t, 2000, 100, 0), "v must be >= 1, got 0"),
    # J = N // H = 0 windows once averaged to nan
    (lambda t: short_interval_ap_average(t, 100, 1000, 3),
     "N must be >= 1000, got 100"),
    (lambda t: short_interval_ap_average(t, 10 ** 6 + 1, 100, 3),
     "N must be <= limit = 1000000, got 1000001"),
    (lambda t: diophantine_gamma2_check(0.4142, 10 ** 6, 0, 2.0),
     "H must be >= 1, got 0"),
    (lambda t: _alpha(depth=0), "depth must be >= 1, got 0"),
], ids=["build_table-limit", "ap_error-q", "interval_partition-q",
        "short_interval-H", "short_interval-v", "short_interval-N",
        "short_interval-N-limit", "gamma2_check-H", "construct_alpha-depth"])
def test_integer_bounds_name_the_argument(table, call, msg):
    # each bound is checked where the integer is read, and named with it
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        call(table)


_MULTI_CHUNK = (5000, list(range(1, 201)))


def test_multi_chunk_example_spans_chunks(table):
    x, qs = _MULTI_CHUNK
    assert len(qs) * len(table.primes_between(1, x - 1)) > primes._AP_CHUNK


@example(x=_MULTI_CHUNK[0], qs=_MULTI_CHUNK[1])  # more than one chunk
@example(x=1000, qs=list(range(1, 60)))  # q = 1 and composite q
@example(x=30, qs=[97, 31, 1009])  # q > x: classes with no prime
@example(x=11.5, qs=[1, 2, 3, 4, 6])  # float x, 11 < x counts
@example(x=500, qs=[1_000_003, 2_000_006, 7])  # above the sieve: _totient
@example(x=100_000, qs=[65_535, 65_536, 70_001, 3])  # residues above 2^16
@example(x=3, qs=[2, 6])  # the only prime below x divides q
@example(x=1, qs=[3, 1])  # no prime below x at all
@example(x=100, qs=[])
@settings(max_examples=100, deadline=None)
@given(x=st.integers(1, 20_000) | st.floats(1.0, 20_000.0)
       | st.integers(60_000, 100_000),
       qs=st.lists(st.integers(1, 500) | st.integers(60_000, 70_000)
                   | st.sampled_from([1_000_003, 2_000_006]), max_size=30))
def test_ap_error_many_matches_scalar(table, x, qs):
    got = ap_error_many(table, x, qs)
    assert got.shape == (len(qs),)
    assert got.tolist() == [ap_error(table, x, q) for q in qs]


def test_ap_error_many_select_rounds_match_scalar(table):
    # every x_n the N = 1e4 filter visits, on all 279 candidates
    cands = table.primes_between(-(-10 ** 4 // 2) - 1, 10 ** 4)
    cands = cands[cands % 3 == 2]
    for x in (220, 7_040, 112_640):
        got = ap_error_many(table, x, cands)
        assert got.tolist() == [ap_error(table, x, int(q)) for q in cands]


def test_quad_phase_zero_coeffs_is_theta(table):
    c = PhaseCoefficients(0.0, 0.0, 10 ** 5, 10 ** 4)
    s = quad_phase_sum(table, c)
    assert s.imag == 0.0
    assert abs(s.real - theta_interval(table, 10 ** 5, 10 ** 4)) < 1e-9


def test_quad_phase_alternating(table):
    # gamma1 = 1/2 flips sign on odd offsets; primes > 2 have odd p - N for even N
    c = PhaseCoefficients(0.5, 0.0, 10, 10)
    s = quad_phase_sum(table, c)
    assert abs(s.real + 10.740496953482564) < 1e-9
    assert abs(s.imag) < 1e-9


def test_quad_phase_cancellation(table):
    # generic irrational slopes should beat the trivial bound by a lot
    c = PhaseCoefficients(0.6180339887498949, 0.41421356237309515, 10 ** 5, 10 ** 4)
    s = quad_phase_sum(table, c)
    triv = theta_interval(table, 10 ** 5, 10 ** 4)
    assert abs(s) < 0.1 * triv


def test_phase_coefficients_validation():
    with pytest.raises(ValueError):
        PhaseCoefficients(1.5, 0.0, 10, 10)


def test_diophantine_gamma2():
    assert diophantine_gamma2_check(math.sqrt(0.5) % 1.0, 10 ** 6, 10 ** 3, 2.0)
    assert not diophantine_gamma2_check(1e-9, 10 ** 6, 10 ** 3, 2.0)
    assert not diophantine_gamma2_check(0.5, 10 ** 6, 10 ** 3, 2.0)


def test_circle_interval_wraparound():
    arc = CircleInterval(0.9, 0.2)
    assert arc.contains(0.95)
    assert arc.contains(0.05)
    assert not arc.contains(0.5)
    assert CircleInterval.full_circle().contains(0.123)


def test_empty_windows_and_arcs(table):
    # (24, 28] holds no prime: the sums are the empty fsum, and the
    # partition falls back to offset 0
    c = PhaseCoefficients(0.618, 0.414, 24, 4)
    full = CircleInterval.full_circle()
    assert quad_phase_sum(table, c) == 0j
    assert box_indicator_sum(table, c, full, full) == 0.0
    parts = build_interval_partition(table, 2, 0.618, 24, 4)
    assert [p.start for p in parts] == [j / 4 + 2 ** -9 for j in range(4)]
    # an arc of length <= 0 or nan holds no point, not even its start; a
    # full arc holds a point just below its start, whose offset rounds to 1
    xs = np.array([0.3, np.nextafter(0.3, 0.0), 0.7])
    for length in (0.0, -0.2, math.nan):
        assert not CircleInterval(0.3, length).contains(xs).any()
    assert CircleInterval(0.3, 1.0).contains(xs).all()


def test_box_sum_full_box_is_theta(table):
    c = PhaseCoefficients(0.618, 0.414, 10 ** 5, 10 ** 4)
    full = CircleInterval.full_circle()
    got = box_indicator_sum(table, c, full, full)
    assert abs(got - theta_interval(table, 10 ** 5, 10 ** 4)) < 1e-9


def test_box_sum_splits(table):
    c = PhaseCoefficients(0.618, 0.414, 10 ** 5, 10 ** 4)
    full = CircleInterval.full_circle()
    left = box_indicator_sum(table, c, CircleInterval(0.0, 0.5), full)
    right = box_indicator_sum(table, c, CircleInterval(0.5, 0.5), full)
    assert abs(left + right - box_indicator_sum(table, c, full, full)) < 1e-9


def test_interval_partition_structure(table):
    q = 3
    parts = build_interval_partition(table, q, 0.6180339887498949, 10 ** 5, 10 ** 5)
    assert len(parts) == q * q
    for p in parts:
        assert abs(p.length - 1.0 / (q * q)) < 1e-15
    xs = np.linspace(0.0, 1.0, 10007, endpoint=False)
    cover = sum(p.contains(xs).astype(int) for p in parts)
    assert cover.min() == 1 and cover.max() == 1


def test_interval_partition_offset_is_least_hit(table):
    q = 3
    N, H = 10 ** 5, 10 ** 5
    gamma1 = 0.6180339887498949
    parts = build_interval_partition(table, q, gamma1, N, H)
    ps = table.primes_between(N, N + H)
    y = (gamma1 * (ps - N).astype(float)) % 1.0
    cell = 1.0 / (q * q)
    binw = 2.0 * q ** -9.0
    nbins = q ** 7 // 2
    idx = np.minimum(((y % cell) / binw).astype(np.int64), nbins - 1)
    hist = np.bincount(idx, weights=np.log(ps.astype(float)), minlength=nbins)
    ell0 = round((parts[0].start % cell - q ** -9.0) / binw)
    assert hist[ell0] == hist.min()


def test_short_interval_ap_average(table):
    avg, z = short_interval_ap_average(table, 10 ** 5, 1000, 4)
    assert 0 <= z < 1000
    assert avg < 1000 / 2  # deviation well below the main term
    # the chosen offset is no worse than offset zero
    ps = table.primes_between(1, 10 ** 5 + 1000)
    logs = np.log(ps.astype(float))
    worst = []
    for j in range(10 ** 5 // 1000):
        t = j * 1000
        devs = []
        for a in (1, 3):
            sel = (ps % 4 == a) & (ps > t) & (ps <= t + 1000)
            devs.append(abs(logs[sel].sum() - 500.0))
        worst.append(max(devs))
    assert avg <= np.mean(worst) + 1e-9


def _ladder(table, N):
    """The filter's x_n: x_1 = N^(1/2 + 1/100), x_{n+1} = 2 x_n up to the
    sieve limit, each rounded up."""
    xs, x = [], N ** (0.5 + 0.01)
    while x <= table.limit:
        xs.append(int(math.ceil(x)))
        x *= 2
    return xs


def _select_S_qr_loop(table, q, r, N, C, A):
    """select_S_qr as one scalar ap_error call per (candidate, x_n) pair,
    all() stopping at the first x_n a candidate fails."""
    xs = _ladder(table, N)
    cands = table.primes_between(-(-N // 2) - 1, N)
    cands = cands[cands % q == r % q]
    bounds = [C * xn / (N * math.log(xn) ** (2 * A)) for xn in xs]
    return [int(ell) for ell in cands
            if all(ap_error(table, xn, int(ell)) <= bound
                   for xn, bound in zip(xs, bounds))]


# 22 candidates, each with E(x_n, l) below 1/500 of the bound at every x_n
_ALL_PASS = (500, 1e7, 2.0)


@pytest.mark.parametrize("N, C, A", [
    (10 ** 4, 10.0, 2.0),  # every candidate fails at x_1
    _ALL_PASS,  # every candidate passes every x_n
    (2 * 10 ** 5, 10.0, 2.0),
    (1000, 2e6, 3.0),  # 38 candidates, 11 left after the last x_n
])
def test_select_s_qr_matches_loop(table, N, C, A):
    sel = select_S_qr(table, 3, 2, N, C, A)
    assert sel == _select_S_qr_loop(table, 3, 2, N, C, A)
    if (N, C, A) == _ALL_PASS:
        cands = table.primes_between(-(-N // 2) - 1, N)
        assert sel == [int(ell) for ell in cands if ell % 3 == 2]


@pytest.mark.parametrize("N, C, A, rounds", [
    (10 ** 4, 10.0, 2.0, 1),
    (200, 1e5, 3.0, 6),  # none left after the 6th of 17 x_n
    (1000, 2e6, 3.0, 15),  # survivors at every x_n
])
def test_select_s_qr_one_call_per_round(table, monkeypatch, N, C, A, rounds):
    calls = []

    def spy(table, x, qs):
        calls.append((x, len(qs)))
        return ap_error_many(table, x, qs)

    def scalar(*args):
        raise AssertionError("select_S_qr called the scalar ap_error")

    monkeypatch.setattr(primes, "ap_error_many", spy)
    monkeypatch.setattr(primes, "ap_error", scalar)
    sel = select_S_qr(table, 3, 2, N, C, A)
    assert [x for x, _ in calls] == _ladder(table, N)[:rounds]
    assert all(n > 0 for _, n in calls)
    assert (len(sel) > 0) == (rounds == len(_ladder(table, N)))


@pytest.mark.parametrize("q, N, msg", [
    (0, 10 ** 4, "q must be >= 1, got 0"), (-3, 10 ** 4, "q must be >= 1, got -3"),
    # x_1 = 0 would double forever; (-5)^0.51 is complex
    (3, 0, "N must be >= 1, got 0"), (3, -5, "N must be >= 1, got -5")],
    ids=["0", "-3", "N=0", "N=-5"])
def test_select_s_qr_rejects_q_below_one(table, q, N, msg):
    with pytest.raises(ValueError, match=f"^{msg}$"):
        select_S_qr(table, q, 2, N, 10.0, 2.0)


def test_select_s_qr_desk_scale(table):
    # at this scale the dyadic E-filter rejects every candidate
    sel = select_S_qr(table, 3, 2, 10 ** 4, 10.0, 2.0)
    assert sel == []


def test_select_s_qr_insufficient_range():
    small = build_table(100)
    with pytest.raises(ResourceError):
        select_S_qr(small, 3, 2, 10 ** 4, 10.0, 2.0)


def test_select_s_qr_loose_filter(table):
    # with an enormous constant the filter passes, so the congruence and
    # range constraints are what remains
    sel = select_S_qr(table, 3, 2, 200, 1e9, 0.0)
    assert sel
    for ell in sel:
        assert ell % 3 == 2
        assert 100 <= ell <= 200
        assert table.is_prime(ell)


@pytest.mark.parametrize("segment", [1, 7, 8, 1001, 4096, 12345])
def test_sieve_segments_match_sympy(segment, monkeypatch):
    monkeypatch.setattr(primes, "_SEGMENT", segment)
    limit = 20000
    t = build_table(limit)
    n = np.arange(limit + 1)
    want = np.array([sympy.isprime(int(k)) for k in n])
    assert np.array_equal(t.is_prime(n), want)
    assert np.array_equal(t.primes, np.flatnonzero(want))


def test_build_limit_guard():
    # one past the budget raises before anything is allocated
    with pytest.raises(ResourceError):
        build_table((1 << 31) + 1)
