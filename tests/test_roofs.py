import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primeflow.rotation import construct_alpha, from_partial_quotients
from primeflow.roofs import (
    FourierRoof,
    HypothesisError,
    PiecewiseLinear,
    PowerRoof,
    SingularityError,
    TimeChange,
    TorusObservable,
    _check_orbit_clear,
    birkhoff_sum,
    birkhoff_sum_many,
    derivative_zero_locator,
    quadratic_expansion_check,
    roof_from_timechange,
    small_derivative_set,
)

GOLDEN = from_partial_quotients([1] * 12)
SCALED = construct_alpha("scaled_D", depth=4, seed=3)


def test_power_roof_values():
    f = PowerRoof(gamma=-0.5, c0=1e-12, kappa=1.0)
    # x^{-1/2} + (1-x)^{-1/2} at x = 1/4 is 2 + (3/4)^{-1/2}
    assert abs(f(0.25) - (2.0 + (0.75) ** -0.5)) < 1e-9
    assert abs(f(0.25) - 3.1547005) < 1e-6


def test_power_roof_singularity_from_the_left():
    f = PowerRoof()
    # -1e-17 % 1.0 rounds to 1.0, the singularity seen from the left
    for x in (0.0, 1.0, -1e-17, [0.3, -1e-17]):
        with pytest.raises(SingularityError):
            f(x)
    assert np.isfinite(f(1e-17)) and np.isfinite(f(1.0 - 2.0 ** -53))


def test_power_roof_symmetry():
    f = PowerRoof()
    for x in (0.1, 0.31, 0.47):
        assert abs(f(x) - f(1.0 - x)) < 1e-12
    assert f(0.5, 1) == 0.0


def test_power_roof_normalization():
    assert abs(PowerRoof().integral() - 1.0) < 1e-15
    assert abs(PowerRoof(gamma=-0.5, c0=0.2, kappa=1.0).integral() - 4.2) < 1e-15
    # quadrature cross-check with singularity-avoiding midpoint rule
    f = PowerRoof(gamma=-0.3, c0=0.5)
    xs = (np.arange(1 << 20) + 0.5) / (1 << 20)
    assert abs(np.mean(f(xs)) - f.integral()) < 1e-4


def test_power_roof_singularity_guard():
    f = PowerRoof()
    with pytest.raises(SingularityError):
        f(0.0)
    with pytest.raises(SingularityError):
        f(np.array([0.5, 1.0]))


@pytest.mark.parametrize("build, msg", [
    (lambda: PowerRoof(gamma=0.0), r"gamma must be in \(-1, 0\)"),
    (lambda: PowerRoof(gamma=-1.0), r"gamma must be in \(-1, 0\)"),
    (lambda: PowerRoof(gamma=math.nan), r"gamma must be in \(-1, 0\)"),
    (lambda: PowerRoof(c0=0.0), "c0 must be positive"),
    (lambda: PowerRoof(kappa=0.0), "kappa must be positive"),
    (lambda: PowerRoof(kappa=-1.0), "kappa must be positive"),
    (lambda: FourierRoof([]), r"need at least one \(frequency, coefficient\)"),
], ids=["gamma_0", "gamma_-1", "gamma_nan", "c0_0", "kappa_0", "kappa_-1",
        "no_pairs"])
def test_roofs_reject_bad_parameters(build, msg):
    with pytest.raises(ValueError, match=f"^{msg}"):
        build()


def test_power_roof_limit_coefficients():
    # d^i f(x) ~ A_i x^(gamma-i) near 0+ and d^i f(1-u) ~ B_i u^(gamma-i),
    # for the two orders a PowerRoof takes
    f = PowerRoof(gamma=-0.5, c0=0.2, kappa=1.0)
    A = (1.0, -0.5)
    B = (1.0, 0.5)
    for i in range(2):
        ratios = [f(x, i) / x ** (f.gamma - i) for x in (1e-5, 1e-6, 1e-8)]
        for r_prev, r_next in zip(ratios, ratios[1:]):
            assert abs(r_next / r_prev - 1.0) < 0.01
        assert abs(ratios[-1] - A[i]) < 0.01 * abs(A[i])
    # 1- side with the sign flip on odd derivatives
    for i in range(2):
        u = 1e-8
        assert abs(f(1.0 - u, i) / u ** (f.gamma - i) - B[i]) < 0.01 * abs(B[i])
    with pytest.raises(ValueError, match="order must be 0 or 1"):
        f(0.3, 2)


def test_fourier_roof_point_values():
    f = FourierRoof([(3, 0.25 + 0.1j)])
    assert abs(f(0.0) - 1.25) < 1e-15
    assert f.integral() == 1.0
    assert f.fhat(3) == (0.25 + 0.1j) / 2.0
    assert f.fhat(7) == 0j


def test_fourier_roof_positivity_rejected():
    with pytest.raises(ValueError):
        FourierRoof([(1, 1.2)])


@pytest.mark.parametrize("build", [
    # 1 + 1.5 cos(2 pi q x) = -0.5 at x = 0.5/q, between the points of a
    # fixed grid of q points
    lambda: FourierRoof([(4096, 1.5)]),
    lambda: TimeChange([(256, 0, 1.5)]),
])
def test_positivity_is_certified_off_the_grid(build):
    with pytest.raises(ValueError, match="not positive"):
        build()


@pytest.mark.parametrize("build", [
    lambda: FourierRoof([(1000, 0.8), (2000, 0.3)]),
    lambda: FourierRoof([(5, 0.8j), (10, -0.3)]),
    lambda: TimeChange([(100, 0, 0.8), (200, 0, 0.3), (3, 50, 0.05)]),
])
def test_positive_roofs_above_total_one_construct(build):
    # 1 + 0.8 c + 0.3 (2c^2 - 1) >= 0.7 - 0.8^2/(4 * 0.6) = 0.433... for c a
    # cosine (or a sine, with the signs flipped)
    f = build()
    x = np.arange(1 << 14) / (1 << 14)
    vals = f(x) if isinstance(f, FourierRoof) else f(x[:, None], x[::128])
    assert vals.min() > 0.38


def test_positivity_not_certified_raises():
    # min 1e-9 at x = 1/2: positive, but the slack pi/n never drops below it
    with pytest.raises(ValueError, match="could not be certified"):
        FourierRoof([(1, 1.0), (2, 1e-9)])


def test_fourier_roof_band_validation():
    alpha = SCALED
    n = 2
    q, q1 = alpha.q(n), alpha.q(n + 1)
    ok = FourierRoof([(q, q1 ** -0.6)], alpha)
    assert 2 * ok.fhat(q) == q1 ** -0.6
    with pytest.raises(ValueError):
        FourierRoof([(q, 0.9)], alpha)
    with pytest.raises(ValueError):
        FourierRoof([(q + 1, q1 ** -0.6)], alpha)
    with pytest.raises(ValueError, match="^q must be >= 1, got 0$"):
        FourierRoof([(0, 0.1)])


@pytest.mark.parametrize("build", [
    lambda terms, alpha: FourierRoof([(q, a) for q, _, a in terms], alpha),
    TimeChange,
], ids=["fourier", "timechange"])
def test_band_is_checked_exactly_when_alpha_is_given(build):
    n = 2
    q, q1 = SCALED.q(n), SCALED.q(n + 1)
    in_band = [(q, 0, q1 ** -0.6)]
    out_of_band = [(q, 0, 0.9)]
    not_a_denominator = [(q + 1, 0, q1 ** -0.6)]
    build(in_band, SCALED)
    with pytest.raises(ValueError, match=r"outside \["):
        build(out_of_band, SCALED)
    with pytest.raises(ValueError, match=f"frequency {q + 1} is not a usable"):
        build(not_a_denominator, SCALED)
    for terms in (in_band, out_of_band, not_a_denominator):
        build(terms, None)
    assert not hasattr(build(in_band, SCALED), "alpha")


def test_timechange_band_skips_modes_with_m():
    # only the m = 0 modes are the fiber average the band rule is about
    q = SCALED.q(2)
    TimeChange([(q + 1, 1, 0.45), (q, -1, 0.45)], SCALED)
    with pytest.raises(ValueError, match="not a usable"):
        TimeChange([(q + 1, 1, 0.9), (q + 1, 0, 0.01)], SCALED)


def test_timechange_is_the_torus_observable_with_constant_one():
    terms = [(2, 0, 0.2 + 0.1j), (1, -3, 0.3), (0, 2, -0.15j), (5, 1, 0.0)]
    v = TimeChange(terms)
    assert isinstance(v, TorusObservable) and v.constant == 1.0
    rng = np.random.default_rng(3)
    x, y = rng.random(500), rng.random((7, 1))
    want = np.ones((7, 500))
    for q, m, a in terms:  # libm at the exactly reduced float phase
        p = q * x + m * y
        ang = 2.0 * math.pi * (p - np.rint(p))
        want = want + (a.real * np.cos(ang) - a.imag * np.sin(ang))
    got = v(x, y)
    eps = np.finfo(float).eps
    assert np.all(np.abs(got - want)
                  <= 4.0 * eps * (1.0 + sum(abs(a) for *_, a in terms)))
    assert np.array_equal(TorusObservable(1.0, terms)(x, y), got)
    assert v(x[3], y[2, 0]) == got[2, 3] and type(v(0.1, 0.2)) is float
    with pytest.raises(ValueError, match="fold the \\(0, 0\\) mode"):
        TimeChange([(0, 0, 0.1)])


def _kernel_phases(rng):
    """0, +-1/8, +-1/4, +-3/8, +-1/2 with their neighbouring floats, random
    phases in [-1/2, 1) and a few far from 0."""
    out = []
    for p in (0.0, 0.125, 0.25, 0.375, 0.5):
        for v in (p, -p):
            out += [np.nextafter(v, -1.0), v, np.nextafter(v, 1.0)]
    return np.concatenate((out, rng.uniform(-0.5, 1.0, 400),
                           rng.uniform(-1e6, 1e6, 100)))


def test_half_angle_kernel_against_40_digits():
    # sin 2 pi p, cos 2 pi p - 1 and the cosine d - 1 at the float phase p,
    # against 40-digit values; the documented bounds are 2.1 eps and 2.9 eps
    mpmath = pytest.importorskip("mpmath")
    from primeflow.roofs import _half_angle

    p = _kernel_phases(np.random.default_rng(12))
    s, c, d = p.copy(), np.empty_like(p), np.empty_like(p)
    _half_angle(s, c, d)
    eps = np.finfo(float).eps
    with mpmath.workdps(40):
        for pi, si, ci, di in zip(p.tolist(), s.tolist(), c.tolist(),
                                  (d - 1.0).tolist()):
            a = 2 * mpmath.pi * mpmath.mpf(pi)
            sin, cos = mpmath.sin(a), mpmath.cos(a)
            assert abs(si - sin) <= 2.5 * eps, pi
            assert abs(di - cos) <= 2.5 * eps, pi
            assert abs(ci - (cos - 1)) <= 3.0 * eps, pi


def test_trig_sums_do_not_depend_on_the_blocks():
    # a point's value is the same in a long array, a short one, a 0-d one
    # and a scalar call, and broadcasting is blocked like a full array
    from primeflow.roofs import _TRIG_BLOCK

    roof = FourierRoof([(1, 0.3 - 0.2j), (6, 0.1)])
    x = np.random.default_rng(14).random(3 * _TRIG_BLOCK + 5)
    full = roof(x)
    assert np.array_equal(np.concatenate([roof(x[i:i + 777])
                                          for i in range(0, x.size, 777)]),
                          full)
    assert [roof(v) for v in x[-40:].tolist()] == full[-40:].tolist()
    assert roof(np.asarray(x[7])) == full[7]
    v = TorusObservable(0.5, [(2, -1, 0.2j), (0, 3, 0.1)])
    a, b = x[:300], x[-50:]
    assert np.array_equal(v(a[None, :], b[:, None]),
                          v(np.tile(a, (50, 1)), np.repeat(b[:, None], 300, 1)))


def test_timechange_mean_and_eval():
    v = TimeChange([(2, 0, 0.2), (2, 1, 0.3j)])
    assert abs(v(0.0, 0.0) - (1.0 + 0.2)) < 1e-15
    xs = np.linspace(0, 1, 64, endpoint=False)
    X, Y = np.meshgrid(xs, xs)
    assert abs(np.mean(v(X, Y)) - 1.0) < 1e-12


def test_roof_from_timechange_modes():
    v = TimeChange([(2, 0, 0.2 + 0.1j), (2, 1, 0.3), (3, 3, 0.1)])
    f = roof_from_timechange(v)
    assert f.pairs == ((2, 0.2 + 0.1j),)
    # pure m != 0 mode averages out to the constant roof
    g = roof_from_timechange(TimeChange([(2, 1, 0.4)]))
    xs = np.linspace(0, 1, 50)
    assert np.allclose(g(xs), 1.0)


@pytest.mark.parametrize("m", [1, 31, 100])
def test_roof_from_timechange_matches_fiber_rule(m):
    # the 256-point equispaced rule in y integrates e(k y) exactly for
    # |k| < 256, so it is an exact oracle for the fiber average
    v = TimeChange([(2, 0, 0.2 + 0.1j), (3, m, 0.1), (1, -m, 0.05j)])
    f = roof_from_timechange(v)
    xs = np.arange(97) / 97
    ys = np.arange(256) / 256
    rule = v(xs[:, None], ys[None, :]).mean(axis=1)
    assert np.max(np.abs(f(xs) - rule)) < 1e-14


def test_birkhoff_sum_base_cases():
    f = FourierRoof([(2, 0.3)])
    assert birkhoff_sum(f, 0, 0.3, GOLDEN) == 0.0
    assert abs(birkhoff_sum(f, 1, 0.3, GOLDEN) - f(0.3)) < 1e-15
    a = GOLDEN.float_value
    two = f(0.3) + f((0.3 + a) % 1.0)
    assert abs(birkhoff_sum(f, 2, 0.3, GOLDEN) - two) < 1e-12


def test_birkhoff_cocycle_identity():
    f = FourierRoof([(2, 0.3 + 0.1j), (5, 0.2j)])
    rng = random.Random(5)
    for _ in range(300):
        m = rng.randrange(-40, 40)
        n = rng.randrange(-40, 40)
        x = rng.random()
        lhs = birkhoff_sum(f, m + n, x, GOLDEN)
        shifted = (x + m * GOLDEN.float_value) % 1.0
        rhs = birkhoff_sum(f, m, x, GOLDEN) + birkhoff_sum(f, n, shifted, GOLDEN)
        assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(lhs))


def test_birkhoff_negative_convention():
    f = FourierRoof([(3, 0.4)])
    a = GOLDEN.float_value
    for n in (1, 2, 7):
        direct = -sum(f((0.3 - k * a) % 1.0) for k in range(1, n + 1))
        assert abs(birkhoff_sum(f, -n, 0.3, GOLDEN) - direct) < 1e-10


def test_birkhoff_singularity_guard():
    f = PowerRoof()
    with pytest.raises(SingularityError, match="index 0"):
        birkhoff_sum(f, 5, 0.0, GOLDEN)


class _Alpha:
    """Stand-in rotation number: the orbit check reads only alpha.value."""

    def __init__(self, value):
        self.value = value


def _orbit_hit_loop(x, n, alpha):
    """First i < n with x + i alpha = 0 mod 1, by the bigint orbit loop."""
    X = Fraction(x) % 1
    P, Q = alpha.value.numerator, alpha.value.denominator
    D = X.denominator
    M = D * Q
    r = X.numerator * Q
    step = P * D
    for i in range(n):
        if r == 0:
            return i
        r = (r + step) % M
    return None


@settings(max_examples=300, deadline=None)
@given(p=st.integers(0, 400), two=st.integers(0, 7),
       odd=st.sampled_from([1, 3, 5, 9, 15]), i=st.integers(0, 200),
       n=st.integers(0, 250), nudge=st.sampled_from([0.0, 1e-3, 0.37]))
@example(p=3, two=3, odd=1, i=5, n=6, nudge=0.0)
@example(p=3, two=3, odd=1, i=5, n=5, nudge=0.0)
def test_check_orbit_clear_matches_loop(p, two, odd, i, n, nudge):
    # alpha = p / (2^two * odd) with x = -i alpha mod 1 puts orbit point i on
    # the singularity whenever that x is a dyadic float
    alpha = _Alpha(Fraction(p, 2 ** two * odd))
    x = (float(-i * alpha.value % 1) + nudge) % 1.0
    hit = _orbit_hit_loop(x, n, alpha)
    if hit is None:
        _check_orbit_clear(PowerRoof(), x, n, alpha)
    else:
        with pytest.raises(SingularityError, match=rf"index {hit} "):
            _check_orbit_clear(PowerRoof(), x, n, alpha)


def test_birkhoff_many_matches_scalar():
    f = PowerRoof()
    xs = np.array([0.123, 0.456, 0.789])
    got = birkhoff_sum_many(f, 13, xs, GOLDEN)
    want = [birkhoff_sum(f, 13, float(x), GOLDEN) for x in xs]
    assert np.allclose(got, want, atol=1e-9)


def test_denjoy_koksma_bv():
    # |S_{q_n}(g) - q_n int g| <= Var(g) for BV test functions
    indicator = lambda x: (np.asarray(x) % 1.0 < 0.5).astype(float) - 0.5
    sawtooth = lambda x: (np.asarray(x) % 1.0) - 0.5
    rng = np.random.default_rng(11)
    xs = rng.random(40)
    for alpha in (GOLDEN, SCALED):
        for n in range(1, alpha.depth + 1):
            qn = alpha.q(n)
            for g, var in ((indicator, 2.0), (sawtooth, 1.0)):
                dev = np.abs(birkhoff_sum_many(g, qn, xs, alpha))
                assert dev.max() <= var + 1e-6


INDICATOR = PiecewiseLinear(0.5, 0.0, [(0.5, -1.0)])
SAWTOOTH = PiecewiseLinear(-0.5, 1.0)
PELL = from_partial_quotients([2] * 12)


def _block(g):
    """The same observable as a plain callable: birkhoff_sum_many then
    takes the block path, the oracle of the sorted one."""
    return lambda x: g(x)


def test_piecewise_linear_matches_dk_lambdas():
    indicator = lambda x: (np.asarray(x) % 1.0 < 0.5).astype(float) - 0.5
    sawtooth = lambda x: (np.asarray(x) % 1.0) - 0.5
    xs = np.r_[np.random.default_rng(2).uniform(-3, 3, 500),
               0.0, 0.5, -0.5, 1.0, -1e-17, np.nextafter(0.5, 0), 2.5]
    assert np.array_equal(INDICATOR(xs), indicator(xs))
    assert np.array_equal(SAWTOOTH(xs), sawtooth(xs))
    assert INDICATOR(0.7) == indicator(0.7) and SAWTOOTH(0.7) == sawtooth(0.7)


@pytest.mark.parametrize("jumps", [[(1.0, 1.0)], [(-0.1, 1.0)],
                                   [(0.5, 1.0), (0.2, 1.0)],
                                   [(0.3, 1.0), (0.3, -1.0)]])
def test_piecewise_linear_rejects_bad_jumps(jumps):
    with pytest.raises(ValueError, match="jump points"):
        PiecewiseLinear(0.0, 0.0, jumps)


def _assert_sorted_path_exact(n, xs, alpha, c):
    """Indicator sums and jump counts bit-identical to the block path,
    the sawtooth within 1e-12 per term of it and of the fsum scalar path."""
    step = PiecewiseLinear(0.0, 0.0, [(c, 1.0)])  # S_n is the jump count
    for g in (INDICATOR, step):
        got = birkhoff_sum_many(g, n, xs, alpha)
        assert got.shape == np.shape(xs)
        assert np.array_equal(got, birkhoff_sum_many(_block(g), n, xs, alpha))
    got = birkhoff_sum_many(SAWTOOTH, n, xs, alpha)
    want = birkhoff_sum_many(_block(SAWTOOTH), n, xs, alpha)
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * n
    for x, s in zip(np.ravel(xs), np.ravel(got)):
        assert abs(s - birkhoff_sum(SAWTOOTH, n, float(x), alpha)) <= 1e-12 * n


@settings(max_examples=60, deadline=None)
@given(which=st.sampled_from(["golden", "pell", "scaled"]),
       level=st.integers(1, 11), shift=st.sampled_from([-1, 0, 1, None]),
       extra=st.integers(1, 3000), dims=st.integers(0, 2),
       xs=st.lists(st.floats(-3.0, 3.0), min_size=12, max_size=12),
       c=st.floats(0.0, 1.0, exclude_max=True))
def test_sorted_birkhoff_matches_block_path(which, level, shift, extra, dims,
                                            xs, c):
    alpha = {"golden": GOLDEN, "pell": PELL, "scaled": SCALED}[which]
    q = alpha.q(min(level, alpha.depth))
    n = extra if shift is None else max(1, q + shift)
    xs = np.array(xs)[: [1, 7, 12][dims]].reshape([(), (7,), (3, 4)][dims])
    _assert_sorted_path_exact(n, xs, alpha, c)


@pytest.mark.parametrize("alpha", [GOLDEN, PELL, SCALED], ids=["golden", "pell",
                                                               "scaled"])
def test_sorted_birkhoff_at_float_preimages(alpha):
    # x on the float preimage of a jump or of a wrap point, and its two
    # neighbouring floats: an orbit point lands within an ulp of the
    # threshold, so the searchsorted guess needs its exact fix-up
    n = alpha.q(4)
    offs = alpha.orbit(n)
    xs = []
    for i in (0, 1, n // 2, n - 1):
        for theta in (0.5, 0.3, 1.0, 0.0, -1.0, 2.0, -2.5):
            t = theta - offs[i]
            xs += [np.nextafter(t, -np.inf), t, np.nextafter(t, np.inf)]
    _assert_sorted_path_exact(n, np.array(xs), alpha, 0.3)
    # x + o_0 = x: a tiny negative x makes the block path's % round up to 1.0
    tiny = np.array([-1e-17, -2.0 ** -60, -5e-324, 0.0])
    assert (tiny[:3] % 1.0 == 1.0).all()
    _assert_sorted_path_exact(n, tiny, alpha, 0.0)


@pytest.mark.parametrize("n", [2.5, np.float64(3.0), "3"])
def test_birkhoff_rejects_non_integer_n(n):
    for g in (SAWTOOTH, _block(SAWTOOTH)):
        with pytest.raises(ValueError, match="n must be an integer"):
            birkhoff_sum_many(g, n, np.array([0.3]), GOLDEN)
        with pytest.raises(ValueError, match="n must be an integer"):
            birkhoff_sum(g, n, 0.3, GOLDEN)
    got = birkhoff_sum_many(SAWTOOTH, np.int64(3), np.array([0.3]), GOLDEN)
    assert got.shape == (1,)
    with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
        birkhoff_sum_many(SAWTOOTH, 0, np.array([0.3]), GOLDEN)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_birkhoff_rejects_non_finite_x(bad):
    for g in (INDICATOR, _block(INDICATOR)):
        with pytest.raises(ValueError, match=f"x must be finite, got {bad}"):
            birkhoff_sum_many(g, 5, np.array([0.3, bad]), GOLDEN)
        with pytest.raises(ValueError, match="x must be finite"):
            birkhoff_sum(g, 5, bad, GOLDEN)


@pytest.mark.parametrize("g", [SAWTOOTH, lambda x: x % 1.0 - 0.5],
                         ids=["PiecewiseLinear", "lambda"])
def test_birkhoff_rejects_order_the_observable_ignores(g):
    name = type(g).__name__
    with pytest.raises(ValueError, match=f"order=1 .*{name}"):
        birkhoff_sum_many(g, 5, np.array([0.3]), GOLDEN, order=1)
    with pytest.raises(ValueError, match=f"order=1 .*{name}"):
        birkhoff_sum(g, 5, 0.3, GOLDEN, order=1)
    roof = PowerRoof(gamma=-0.5, c0=1e-12, kappa=1.0)
    assert np.isfinite(birkhoff_sum_many(roof, 5, np.array([0.3]), GOLDEN,
                                         order=1)).all()


def test_dk_bound_report_matches_block_path(monkeypatch):
    from primeflow import experiments
    from primeflow.config import ExperimentConfig

    cfg = ExperimentConfig("dk_bound", params={"samples": 10})
    fast = experiments.run_experiment(cfg)
    monkeypatch.setattr(
        experiments, "birkhoff_sum_many",
        lambda g, n, xs, alpha: birkhoff_sum_many(_block(g), n, xs, alpha))
    slow = experiments.run_experiment(cfg)
    assert fast.verdicts == slow.verdicts
    for a, b in zip(fast.metrics, slow.metrics, strict=True):
        assert a.name == b.name
        if "indicator" in a.name:
            assert a.value == b.value
        else:
            assert abs(a.value - b.value) <= 1e-12 * abs(b.value)


def test_lemma_birkhoff_singular_bound():
    # |S_{q_n}(f) - q_n int f| <= C' * x_min^gamma with a stable fitted C'
    f = PowerRoof()
    rng = np.random.default_rng(3)
    xs = rng.random(60)
    consts = []
    for n in (2, 3):
        qn = SCALED.q(n)
        cs = []
        for x in xs:
            xmin = SCALED.orbit_min_distance(float(x), qn - 1)
            dev = abs(birkhoff_sum(f, qn, float(x), SCALED) - qn * f.integral())
            cs.append(dev / xmin ** f.gamma)
        consts.append(max(cs))
    assert consts[1] <= 2.0 * consts[0] + 1e-9 or consts[0] <= 2.0 * consts[1]


def test_derivative_sum_tracks_closest_point():
    # S_{q_n}(f') is dominated by the orbit point closest to the singularity
    f = PowerRoof()
    n = 3
    qn = SCALED.q(n)
    rng = np.random.default_rng(4)
    resid = []
    for x in rng.random(40):
        offs = (x + np.array(
            [SCALED.signed_frac(i) for i in range(qn)])) % 1.0
        i_min = int(np.argmin(np.minimum(offs, 1.0 - offs)))
        closest = offs[i_min]
        dev = abs(birkhoff_sum(f, qn, float(x), SCALED, order=1) - f(closest, 1))
        resid.append(dev)
    # the residual stays far below the singular values themselves
    assert max(resid) < qn ** (1.0 - f.gamma)


def test_quadratic_expansion_constant_roof():
    const = FourierRoof([(1, 0.0)])
    n, k = 2, 2
    L = SCALED.q(n + 1) / 4 * 0.99
    x = _clear_point(k * SCALED.q(n), L)
    res = quadratic_expansion_check(const, x, k, n, SCALED, L=L)
    assert res.actual == pytest.approx(res.predicted, abs=1e-12)
    assert res.actual == pytest.approx(res.predicted_triangular, abs=1e-12)


def _clear_point(m, L):
    for x in np.linspace(0.013, 0.99, 400):
        if SCALED.orbit_min_distance(float(x), m - 1) > 1.0 / L:
            return float(x)
    raise AssertionError("no clear base point found")


def test_quadratic_expansion_power_roof():
    f = PowerRoof()
    n, k = 2, 3
    L = SCALED.q(n + 1) / 4 * 0.99
    x = _clear_point(k * SCALED.q(n), L)
    res = quadratic_expansion_check(f, x, k, n, SCALED, L=L)
    assert abs(res.actual - res.predicted) <= 10.0 * res.budget
    assert abs(res.actual - res.predicted_triangular) <= 10.0 * res.budget
    assert res.budget > 0.0


def test_quadratic_expansion_hypothesis_error():
    f = PowerRoof()
    n, k = 2, 3
    L = SCALED.q(n + 1) / 4 * 0.99
    # x = 1/L/2 puts the zeroth orbit point inside the excluded window
    with pytest.raises(HypothesisError, match="orbit index"):
        quadratic_expansion_check(f, 0.5 / L, k, n, SCALED, L=L)


def test_quadratic_expansion_k_range_guard():
    f = PowerRoof()
    with pytest.raises(ValueError):
        quadratic_expansion_check(f, 0.3, 1, 2, SCALED, L=10.0)
    with pytest.raises(ValueError):
        quadratic_expansion_check(f, 0.3, 10 ** 6, 2, SCALED, L=10.0)
    # k is an exact index, as rigidity_distance's k: range() would fail on
    # 2.5 with a raw TypeError
    for k in (2.5, 3.0):
        with pytest.raises(ValueError, match=f"^k must be an integer, got {k}$"):
            quadratic_expansion_check(f, 0.3, k, 2, SCALED, L=1.0)
    # the level must leave q_{n+1} inside the depth, and L < q_{n+1}/4
    with pytest.raises(ValueError, match="^need n \\+ 1 within the quotient"):
        quadratic_expansion_check(f, 0.3, 2, SCALED.depth, SCALED, L=1.0)
    with pytest.raises(ValueError, match=r"^need L < q_\(n\+1\)/4$"):
        quadratic_expansion_check(f, 0.3, 2, 2, SCALED, L=SCALED.q(3))


def test_zero_locator_counts_and_residuals():
    f = PowerRoof()
    n = 3
    qn = SCALED.q(n)
    zeros = derivative_zero_locator(f, n, SCALED)
    assert len(zeros) == qn
    for (a, b), z in zeros:
        assert a <= z <= b or (b < a and (z >= a or z <= b))
        assert abs(birkhoff_sum(f, qn, z, SCALED, order=1)) <= 1e-8 * qn ** 3


def test_zero_locator_sign_change_oracle():
    f = PowerRoof()
    n = 3
    qn = SCALED.q(n)
    zeros = derivative_zero_locator(f, n, SCALED)
    eps = 1e-10
    for _, z in zeros:
        lo = birkhoff_sum(f, qn, (z - eps) % 1.0, SCALED, order=1)
        hi = birkhoff_sum(f, qn, (z + eps) % 1.0, SCALED, order=1)
        assert lo < 0.0 < hi


def test_zero_locator_requires_a_power_roof():
    with pytest.raises(TypeError, match="power-singularity roof"):
        derivative_zero_locator(FourierRoof([(1, 0.1)]), 1, SCALED)


def test_zero_locator_trivial_level():
    f = PowerRoof()
    zeros = derivative_zero_locator(f, 0, SCALED)
    assert len(zeros) == 1
    assert abs(zeros[0][1] - 0.5) < 1e-10


def test_zero_endpoint_margin():
    # each zero keeps a ~ 1/q_n margin from the partition endpoints
    f = PowerRoof()
    n = 3
    qn = SCALED.q(n)
    zeros = derivative_zero_locator(f, n, SCALED)
    margins = [min((z - a) % 1.0, (b - z) % 1.0) for (a, b), z in zeros]
    fitted = min(margins) * qn
    assert fitted > 0.05


def test_small_derivative_set_containment():
    f = PowerRoof()
    arcs = small_derivative_set(f, 3, SCALED, 0.001, grid=10 ** 5)
    assert len(arcs) == SCALED.q(3)
    for arc in arcs:
        assert abs(arc.length - 0.004) < 1e-12
    assert small_derivative_set(f, 3, SCALED, 0.0) == []
    # a cast would end a grid of 1000.5 points at 1.0, the singularity;
    # an integral float counts as its integer
    with pytest.raises(ValueError, match=r"^grid must be an integer, got 1000\.5$"):
        small_derivative_set(f, 3, SCALED, 0.001, grid=1000.5)
    assert small_derivative_set(f, 3, SCALED, 0.001, grid=1e5) == arcs
    # an empty grid would pass without testing a point
    with pytest.raises(ValueError, match="^grid must be >= 1, got 0$"):
        small_derivative_set(f, 3, SCALED, 0.001, grid=0)

