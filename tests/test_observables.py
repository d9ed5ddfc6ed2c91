import math
import random
import re
import subprocess
import sys

import numpy as np
import pytest

from primeflow.config import ExperimentConfig
from primeflow.experiments import run_experiment
from primeflow.flow import (
    FlowPoint,
    evaluate,
    evaluate_naive,
    evaluate_times,
    time_integral,
)
from primeflow.observables import (
    KocherginFlow,
    TorusObservable,
    TowerObservable,
    box_discrepancy,
    coboundary_prime_discrepancy,
    pnt_report,
    space_average,
)
from primeflow.primes import build_table
from primeflow.reparam import ReparamFlow, TorusPoint, make_timechange
from primeflow.roofs import FourierRoof, PowerRoof, SingularityError, TimeChange
from primeflow.rotation import construct_alpha, from_partial_quotients

from helpers import CoboundaryPair

GOLDEN = from_partial_quotients([1] * 12)
POWER = PowerRoof()
SCALED = construct_alpha("scaled_D", growth=lambda q: q ** 4, depth=4, seed=2)
COS_X1 = TorusObservable(0.0, [(1, 0, 1.0)])  # cos(2 pi x1), pnt_reparam's g

# independent high-precision quadrature (30-digit) of the normalized space
# average of the default observable with psi_inf = 0.3 over the default roof
SPACE_AVG_DEFAULT = 0.367175320309594505


@pytest.fixture(scope="module")
def psi():
    return TowerObservable(POWER, psi_inf=0.3)


@pytest.fixture(scope="module")
def table():
    return build_table(10 ** 5)


def test_construction_conditions(psi):
    # roof matching: both glued values equal psi_inf exactly
    ys = np.linspace(0.001, 0.999, 1000)
    fys = POWER(ys)
    assert np.max(np.abs(psi(ys, fys) - 0.3)) < 1e-12
    assert np.max(np.abs(psi(ys, np.zeros_like(ys)) - 0.3)) < 1e-12


def test_construction_decay(psi):
    # values settle to psi_inf high up the tower, within the rho bound
    ys = np.array([1e-7, 1e-9, 1e-11])
    for r in (10.0, 100.0):
        vals = psi(ys, np.full(3, r))
        assert np.max(np.abs(vals - 0.3)) <= math.exp(-r / 5.0) + 1e-15


def test_construction_error_is_shared():
    # caught by except ValueError and except RuntimeError alike
    from primeflow.rotation import ConstructionError

    assert issubclass(ConstructionError, ValueError)
    assert issubclass(ConstructionError, RuntimeError)


@pytest.mark.parametrize("amp", [1.0, 1e3])
@pytest.mark.parametrize("roof", [PowerRoof(-0.5), PowerRoof(-0.9),
                                  FourierRoof([(2, 0.3), (5, 0.2j)])],
                         ids=["power-0.5", "power-0.9", "fourier"])
def test_tower_identities(roof, amp):
    # the identities the form of psi guarantees for any u, as oracles
    psi = TowerObservable(roof, 0.3, ((1, amp, 0.0), (3, 0.0, -0.5 * amp)))
    coeff = 1.5 * amp  # sum of |coefficients|
    tiny = 10.0 ** -np.arange(4.0, 13.0)
    ys = np.concatenate(((np.arange(1000) + 0.5) / 1000, tiny, 1.0 - tiny))
    fys = roof(ys)
    # roof matching: both glued values equal psi_inf
    for s in (np.zeros_like(ys), fys):
        assert np.max(np.abs(psi(ys, s) - 0.3)) <= 1e-12
    # decay: |psi - psi_inf| <= exp(-s/5) sum |coefficients| up the fiber
    for frac in (0.1, 0.37, 0.5, 0.9):
        ss = frac * fys
        drift = np.abs(psi(ys, ss) - 0.3)
        assert np.all(drift <= np.exp(-ss / 5.0) * coeff + 1e-12)
    if isinstance(roof, PowerRoof):
        # approaching the singular fiber at fixed height from either side,
        # psi settles to psi_inf, within sin^2 x <= x^2
        for s in (0.5, 2.0, 5.0):
            for side in (tiny, 1.0 - tiny):
                drift = np.abs(psi(side, np.full_like(side, s)) - 0.3)
                bound = (math.exp(-s / 5.0) * coeff
                         * (math.pi * s / roof(side)) ** 2)
                assert np.all(np.diff(drift) <= 0.0)
                assert np.all(drift <= bound + 1e-15)
                assert drift[0] > 1e3 * drift[-1]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("name, build", [
    ("psi_inf", lambda x: TowerObservable(POWER, x)),
    ("psi_inf", lambda x: TowerObservable(FourierRoof([(2, 0.3)]), x)),
    ("u_terms coefficient",
     lambda x: TowerObservable(POWER, 0.3, ((1, 1.0, 0.0), (2, 0.0, x)))),
    ("constant", lambda x: TorusObservable(x, [(1, 0, 1.0)])),
    ("c", lambda x: TorusObservable(0.0, [(1, 0, 1.0), (0, 1, x)])),
    ("b", lambda x: FourierRoof([(2, 0.3), (3, complex(0.1, x))])),
    ("a", lambda x: TimeChange([(2, 0, 0.3), (1, 1, x)])),
    ("c0", lambda x: PowerRoof(c0=x)),
    ("kappa", lambda x: PowerRoof(kappa=x)),
], ids=["psi_inf-power", "psi_inf-fourier", "u_terms", "constant", "c", "b",
        "a", "c0", "kappa"])
def test_non_finite_parameters_rejected(name, build, bad):
    with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
        build(bad)


# a frequency is an integer or an integral float; anything else is named in
# the error instead of truncated by int()
FREQUENCIES = [2.5, np.float64(1.5), math.nan, "2", 2.0, np.int64(2)]


def _integral_or_named(name, value, build):
    # a numpy value is named as the Python number it holds
    shown = value.item() if isinstance(value, np.generic) else value
    if value == 2:
        got = build(value)
        assert got == 2 and type(got) is int
    else:
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "
                           + re.escape(repr(shown)) + "$"):
            build(value)


@pytest.mark.parametrize("value", FREQUENCIES)
def test_torus_observable_frequencies_are_integers(value):
    _integral_or_named("q", value,
                       lambda k: TorusObservable(0, [(k, 1, 1.0)]).terms[0][0])
    _integral_or_named("m", value,
                       lambda k: TorusObservable(0, [(1, k, 1.0)]).terms[0][1])


@pytest.mark.parametrize("value", FREQUENCIES)
def test_tower_observable_frequencies_are_integers(value):
    _integral_or_named(
        "u_terms k", value,
        lambda k: TowerObservable(POWER, u_terms=((k, 1, 0),)).u_terms[0][0])


@pytest.mark.parametrize("value", FREQUENCIES)
def test_fourier_roof_frequencies_are_integers(value):
    _integral_or_named(
        "q", value,
        lambda k: FourierRoof([(k, 0.1)]).pairs[0][0])


@pytest.mark.parametrize("value", FREQUENCIES)
def test_time_change_frequencies_are_integers(value):
    _integral_or_named("q", value,
                       lambda k: TimeChange([(k, 1, 0.1)]).terms[0][0])
    _integral_or_named("m", value,
                       lambda k: TimeChange([(1, k, 0.1)]).terms[0][1])


def test_trivial_observables():
    flat = TowerObservable(POWER, 0.7, u_terms=((1, 0.0, 0.0),))
    assert flat(0.3, 0.2) == 0.7
    assert abs(space_average(flat, POWER) - 0.7) < 1e-9


def _libm_trig_sum(constant, coords, terms):
    """constant + sum Re c e(p) over terms (c, ks), p = sum k_j y_j, by libm
    cos and sin of the exactly reduced float phase: the oracle of
    roofs._trig_sum, which takes both from one tan."""
    out = np.full(np.broadcast(*coords).shape, float(constant))
    for c, ks in terms:
        p = sum(k * y for k, y in zip(ks, coords))
        ang = 2.0 * math.pi * (p - np.rint(p))
        out = out + (c.real * np.cos(ang) - c.imag * np.sin(ang))
    return out


def _trig_scale(constant, terms):
    """4 eps (|constant| + sum |c|): the bound of the cocycle kernel test."""
    return 4.0 * np.finfo(float).eps * (abs(constant)
                                         + sum(abs(c) for c, _ in terms))


def test_trig_eval_skips_zero_coefficients(monkeypatch):
    # the shared kernel adds Re c e(k y) = c.real cos 2 pi k y - c.imag sin
    # 2 pi k y term by term from one tan per nonzero term, and none for a
    # zero coefficient; no sin or cos is called
    from primeflow.roofs import _TRIG_BLOCK, _trig_sum

    y = np.random.default_rng(8).random(1000)
    terms = ((1, 0.7, -0.2), (3, 0.0, 0.4), (5, -0.3, 0.0), (2, 0.0, 0.0))
    pairs = [(complex(a, -b), (k,)) for k, a, b in terms]
    got = _trig_sum(np.zeros_like(y), (y,), pairs)
    assert np.all(np.abs(got - _libm_trig_sum(0.0, (y,), pairs))
                  <= _trig_scale(0.0, pairs))
    u, roof = TowerObservable(POWER), FourierRoof([(2, 0.3), (3, 0.1)])
    v = TimeChange([(2, 0, 0.3), (1, 1, 0.2)])
    tans = []
    tan = np.tan

    def spy(*args, **kwargs):
        tans.append(1)
        return tan(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("a trig sum called sin or cos")

    monkeypatch.setattr(np, "tan", spy)
    monkeypatch.setattr(np, "sin", refuse)
    monkeypatch.setattr(np, "cos", refuse)
    for call, nonzero in ((lambda: u.u(y), 1), (lambda: roof(y), 2),
                          (lambda: v(y, y), 2), (lambda: roof(0.3), 2),
                          (lambda: _trig_sum(np.zeros_like(y), (y,), pairs), 3)):
        tans.clear()
        call()
        assert len(tans) == nonzero
    # one tan per term and block: 2.5 blocks are 3
    tans.clear()
    roof(np.random.default_rng(9).random(5 * _TRIG_BLOCK // 2))
    assert len(tans) == 2 * 3


def test_fiber_integral_closed_form(psi):
    # a whole fiber and a partial one against the trapezoid rule; the
    # integral over [lo, hi] is the difference of the two from the bottom
    for y, lo, hi in ((0.23, 0.0, POWER(0.23)), (0.6, 0.2, 0.9)):
        ss = np.linspace(lo, hi, 200001)
        riemann = float(np.trapezoid(psi(np.full_like(ss, y), ss), ss))
        got = psi.fiber_integral_many(y, hi) - psi.fiber_integral_many(y, lo)
        assert abs(float(got) - riemann) < 1e-9


@pytest.mark.parametrize("roof", [POWER, FourierRoof([(1, 0.4), (3, 0.2j)])],
                         ids=["power", "fourier"])
def test_whole_fiber_integral_matches_fiber_integral(roof):
    # the closed form on the roof values against fiber_integral_many(y,
    # f(y)), on a y grid graded toward both ends, up to 1e-12 from either
    psi = TowerObservable(roof, psi_inf=-0.7,
                          u_terms=((1, 1.0, 0.5), (3, -0.2, 0.7)))
    left = np.geomspace(1e-12, 0.5, 400)
    ys = np.concatenate((left, 1.0 - left, np.linspace(0.0, 1.0, 101)[1:-1]))
    assert ys.min() == 1e-12 and 1.0 - ys.max() < 1.1e-12
    fs = np.asarray(roof(ys), dtype=np.float64)
    got = psi.whole_fiber_integral_many(ys, fs)
    want = psi.fiber_integral_many(ys, fs)
    assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, fs))


def test_space_average_oracle(psi):
    assert abs(space_average(psi, POWER) - SPACE_AVG_DEFAULT) <= 1e-12


# 20-digit quadrature of the same mean over PowerRoof(gamma, c0=0.2)
@pytest.mark.parametrize("gamma, want", [
    (-0.75, 0.39496331205565658842),
    (-0.9, 0.37737068233257802555),
    (-0.97, 0.33969815397565069277),
])
def test_space_average_oracle_across_gamma(gamma, want):
    roof = PowerRoof(gamma, c0=0.2)
    psi = TowerObservable(roof, psi_inf=0.3)
    assert abs(space_average(psi, roof) - want) <= 1e-12


def test_gauss_rules_are_cached_leggauss():
    # space_average asks for 16, 32 and 64 nodes and box_masses for 24 on
    # every call; each rule is built once, bit for bit leggauss's, read-only
    from primeflow.observables import _gauss_rule

    for nodes in (16, 24, 32, 64, 5):
        y, w = _gauss_rule(nodes)
        ref_y, ref_w = np.polynomial.legendre.leggauss(nodes)
        assert np.array_equal(y, ref_y) and np.array_equal(w, ref_w)
        assert not (y.flags.writeable or w.flags.writeable)
        again = _gauss_rule(nodes)
        assert again[0] is y and again[1] is w


def test_w_is_sin_squared_to_40_digits():
    # w(r) = sin^2(pi r) = 1/2 - cos(2 pi r) / 2 from one trig sum, whose
    # cosine errs by 2.1 eps, so w by about 1 eps; over both ends of a
    # fiber, their neighbours, a few blocks of random r and r past the
    # fiber; a 0-d r gives a float
    mpmath = pytest.importorskip("mpmath")
    from primeflow.observables import _w
    from primeflow.roofs import _TRIG_BLOCK

    rng = np.random.default_rng(15)
    r = np.concatenate(([0.0, 5e-324, 1e-300, 0.5, 1.0, np.nextafter(1.0, 0.0),
                         np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)],
                        rng.random(2 * _TRIG_BLOCK + 3), rng.uniform(1, 9, 9)))
    got = _w(r)
    eps = np.finfo(float).eps
    with mpmath.workdps(40):
        for ri, gi in zip(r[::7].tolist(), got[::7].tolist()):
            assert abs(gi - mpmath.sin(mpmath.pi * ri) ** 2) <= 2.0 * eps, ri
    assert np.array_equal(_w(r.reshape(-1, 1)).ravel(), got)
    assert _w(np.float64(r[11])) == got[11] and type(_w(0.25)) is float


class _Ragged:
    """A fiber integral that oscillates fast on [1/4, 1/2] only."""
    psi_inf = 0.0

    def whole_fiber_integral_many(self, y, f):
        return np.where((y > 0.25) & (y < 0.5), np.cos(1e4 * y), 0.0)


def test_space_average_names_the_worst_cell():
    with pytest.raises(RuntimeError,
                       match=r"worst cell \[2\.500e-01, 5\.000e-01\]"):
        space_average(_Ragged(), POWER)


@pytest.mark.parametrize("roof", [PowerRoof(-0.5), PowerRoof(-0.9),
                                  PowerRoof(-0.97), FourierRoof([(3, 0.5)])],
                         ids=["power-0.5", "power-0.9", "power-0.97",
                              "fourier"])
def test_box_masses_sum_to_one(roof):
    masses, tail, height = KocherginFlow(roof, GOLDEN).box_masses(32)
    assert height == 5.0
    assert abs(masses.sum() + tail - 1.0) <= 1e-14
    if isinstance(roof, FourierRoof):
        # 1 + cos never reaches 5: the tail is the two end slivers alone
        assert 0.0 <= tail <= 1e-12


def test_box_masses_tail_error():
    # the mass above 5 against the closed form int (f - 5)_+ / int f for the
    # default roof: the Gauss cells straddle the crossings f = j 5/32, which
    # costs about 1.8e-6 relative; pinned so a change in either shows
    _, tail, _ = KocherginFlow(POWER, GOLDEN).box_masses(32)
    exact = 0.017391662061217288
    assert 1e-6 <= abs(tail - exact) / exact <= 3e-6


def test_evaluate_times_matches_evaluate():
    rng = random.Random(3)
    p = FlowPoint(0.37, 0.05)
    ts = np.array([rng.uniform(-300.0, 300.0) for _ in range(200)])
    xs, ss, Ns = evaluate_times(POWER, GOLDEN, p, ts)
    for i, t in enumerate(ts):
        step = evaluate(POWER, GOLDEN, p, float(t))
        assert step.hits == Ns[i]
        assert step.endpoint.x == xs[i]
        assert step.endpoint.s == ss[i]


def test_prime_sum_of_one_is_theta(table):
    # psi = 1: the prime sum is theta(N) and the time integral N, so D1 =
    # |theta(N) - N| / N
    kf = KocherginFlow(POWER, GOLDEN)
    one = TowerObservable(POWER, psi_inf=1.0, u_terms=())
    N = 10 ** 5
    rep = pnt_report(one, kf, FlowPoint(0.37, 0.05), (N,), table=table)
    assert abs(rep.metric("D1", N, "+") * N - abs(table.theta(N) - N)) < 1e-7


def _flow_case(kind):
    """(flow class, flow, observable, start) of a pnt_report test case."""
    if kind == "kochergin":
        return (KocherginFlow, KocherginFlow(POWER, GOLDEN),
                TowerObservable(POWER, 0.3), FlowPoint(0.55, 0.05))
    return (ReparamFlow, ReparamFlow(SCALED, make_timechange(SCALED)),
            TorusObservable(0.0, [(1, 0, 1.0), (0, 1, 0.5)]),
            TorusPoint(0.31, 0.64))


@pytest.mark.parametrize("boxes", [0, -3])
@pytest.mark.parametrize("torus", [False, True])
def test_box_count_must_be_positive(boxes, torus):
    # an integral float counts as its integer; a fractional count or nan is
    # named, where a cast would read 2.5 as 2 and nan has no arange length
    flow = (ReparamFlow(SCALED, make_timechange(SCALED)) if torus
            else KocherginFlow(POWER, GOLDEN))
    for b in (boxes, float(boxes)):
        with pytest.raises(ValueError, match=f"^boxes must be >= 1, got {boxes}$"):
            flow.box_masses(b)
    for b in (boxes + 0.5, math.nan):
        with pytest.raises(ValueError, match=f"^boxes must be an integer, got {b}$"):
            flow.box_masses(b)


# fiber 21 of this start, its base x + 21 alpha, is the singular point 0,
# and the roofs below it sum to S_21 in (19, 20]
SINGULAR_START = FlowPoint(1.0 - GOLDEN.orbit(22)[21], 0.0)


def test_prime_sum_singular_hit(table):
    kf = KocherginFlow(POWER, GOLDEN)
    one = TowerObservable(POWER, psi_inf=1.0, u_terms=())
    # the "+" pass reaches the singular fiber first at the prime 23
    with pytest.raises(SingularityError, match=r"N = 21 at time 23\.0$"):
        pnt_report(one, kf, SINGULAR_START, (100,), table=table)


def test_positions_name_the_singular_time(psi):
    kf = KocherginFlow(POWER, GOLDEN)
    for times in (np.array([1.0, 25.0, 3.0, 30.0]), np.array([1, 25, 3, 30])):
        with pytest.raises(SingularityError, match=r"at time 25\.0$"):
            kf.walk(psi, SINGULAR_START, times, ())
    # an integral horizon past the fiber raises as a position does
    with pytest.raises(SingularityError, match=r"at time 20\.0$"):
        kf.walk(psi, SINGULAR_START, (), np.array([20.0]))
    # a walk that stops short of the fiber answers as the oracle does
    times = np.array([4.0, 8.0, 15.0, 19.0, -4.0, -100.0])
    (xs, ss), _ = kf.walk(psi, SINGULAR_START, times, ())
    for t, x, s in zip(times, xs, ss):
        end = evaluate_naive(POWER, GOLDEN, SINGULAR_START, t).endpoint
        assert abs(x - end.x) < 1e-12 and abs(s - end.s) < 1e-12


def test_kochergin_time_integral_is_signed(psi):
    # int_{-T}^{T} along the orbit of p is the forward integral from T_{-T} p
    kf = KocherginFlow(POWER, GOLDEN)
    p, T = FlowPoint(0.41, 0.2), 37.5
    back = evaluate(POWER, GOLDEN, p, -T).endpoint
    whole = time_integral(POWER, GOLDEN, psi, back, 2.0 * T)
    _, (ahead, behind) = kf.walk(psi, p, (), np.array([T, -T]))
    split = ahead - behind
    assert abs(whole - split) < 1e-8 * (1.0 + abs(whole))


def test_torus_coordinates_lie_in_unit_interval():
    # -1e-17 % 1.0 rounds to 1.0; the point is (0, 0) and must count there
    fl = ReparamFlow(GOLDEN, TimeChange([(2, 0, 0.3), (1, 1, 0.2j)]))
    assert TorusPoint(-1e-17, 0.5).x1 == 0.0
    x1, x2 = fl.evaluate_many(np.array([-1e-17]), 0.0, 0.0)
    assert 0.0 <= x1[0] < 1.0 and 0.0 <= x2[0] < 1.0
    masses = fl.box_masses(32)
    at_origin = box_discrepancy((np.zeros(1), np.zeros(1)), [1.0], masses)
    assert box_discrepancy((x1, x2), [1.0], masses) == at_origin


def test_torus_observable_matches_complex_exponential(monkeypatch):
    # Re c e(q x1 + m x2) from one tan per term, against the complex
    # exponential of the exactly reduced float phase: within 4 eps (|c0| +
    # sum |c|), with no sin or cos called
    rng = np.random.default_rng(5)
    x1, x2 = rng.random(2000), rng.random(2000)

    def reference(psi):
        out = np.full(x1.shape, psi.constant)
        for q, m, c in psi.terms:
            p = q * x1 + m * x2
            out = out + np.real(c * np.exp(2j * math.pi * (p - np.rint(p))))
        return out
    real = TorusObservable(0.0, [(1, 0, 1.0), (0, 1, 0.5)])
    mixed = TorusObservable(0.25, [(2, -3, 0.4 - 0.7j), (1, 1, 0.3j),
                                   (-7, 40, 0.05 + 0.02j)])
    for psi in (real, mixed):
        bound = _trig_scale(psi.constant, [(c, ()) for *_, c in psi.terms])
        monkeypatch.setattr(np, "sin", lambda *a, **k: pytest.fail("sin"))
        monkeypatch.setattr(np, "cos", lambda *a, **k: pytest.fail("cos"))
        got = psi(x1, x2)
        monkeypatch.undo()
        assert np.all(np.abs(got - reference(psi)) <= bound)
        assert [psi(a, b) for a, b in zip(x1[:50], x2[:50])] == got[:50].tolist()


def test_torus_observable_means():
    # the Lebesgue mean is the constant, the invariant mean the constant
    # part of psi v, read by ReparamFlow.mean
    v = TimeChange([(2, 0, 0.3), (1, 1, 0.2j)])
    psi = TorusObservable(0.25, [(2, 0, 0.4 + 0.1j), (-1, -1, 0.6)])
    fine = 64
    xs = (np.arange(fine) + 0.5) / fine
    X1, X2 = np.meshgrid(xs, xs)
    vv = 1.0
    for q, m, c in v.terms:
        vv = vv + np.real(c * np.exp(2j * np.pi * (q * X1 + m * X2)))
    assert abs(float(np.mean(psi(X1, X2))) - psi.constant) < 1e-12
    grid_mean = float(np.mean(psi(X1, X2) * vv))
    assert abs(ReparamFlow(GOLDEN, v).mean(psi) - grid_mean) < 1e-10
    with pytest.raises(ValueError):
        TorusObservable(0.0, [(0, 0, 1.0)])


def test_reparam_time_integral_closed_form():
    fl = ReparamFlow(SCALED, make_timechange(SCALED))
    psi = TorusObservable(0.2, [(1, 0, 0.5), (0, 1, 0.3 + 0.2j)])
    x = TorusPoint(0.31, 0.64)
    for T in (7.3, -7.3):
        ts = np.sign(T) * (np.arange(200000) + 0.5) * (abs(T) / 200000)
        y1, y2 = fl.evaluate_many(ts, np.full_like(ts, x.x1),
                                  np.full_like(ts, x.x2))
        riemann = float(np.mean(psi(y1, y2))) * T
        assert abs(fl.time_integral(psi, x, T) - riemann) < 1e-6


@pytest.mark.parametrize("T", [1e4, -1e4, 1e5, -1e5, 1e6, -1e6])
def test_reparam_time_integral_against_30_digits(T):
    # pnt_reparam's flow, psi and start: the closed form at the solver's U
    # against psi v's integral along the linear flow (float alpha) summed
    # in 30 digits over every pair of exponentials, with b = c e(q x1 + m
    # x2) / (2 pi w) per pair.  Rounding w, then w U, moves a mode's phase
    # by eps |w U| turns, so its term by 2 pi |b| eps |w U|; the reduction
    # of q x1 + m x2 adds eps (|q| + |m|) turns, the kernel and the sums
    # 8 eps |b|, and c0 U rounds by eps |c0 U|
    mpmath = pytest.importorskip("mpmath")
    fl = ReparamFlow(SCALED, make_timechange(SCALED))
    psi = TorusObservable(0.0, [(1, 0, 1.0), (0, 1, 0.5)])
    x = TorusPoint(0.31, 0.64)
    U = float(fl.time_inverse_many(T, x.x1, x.x2))
    eps = np.finfo(float).eps
    with mpmath.workdps(30):
        def exponentials(f):
            out = [(0, 0, mpmath.mpc(f.constant))]
            for q, m, c in f.terms:
                c = mpmath.mpc(c.real, c.imag) / 2
                out += [(q, m, c), (-q, -m, mpmath.conj(c))]
            return out

        a, x1, x2 = (mpmath.mpf(v) for v in (SCALED.float_value, x.x1, x.x2))
        want, bound = mpmath.mpf(0), 0.0
        for q1, m1, c1 in exponentials(psi):
            for q2, m2, c2 in exponentials(fl.v):
                q, m = q1 + q2, m1 + m2
                amp = c1 * c2 * mpmath.expjpi(2 * (q * x1 + m * x2))
                if q == m == 0:
                    want += amp * U
                    bound += eps * abs(float(amp.real) * U)
                    continue
                w = q * a + m
                want += amp * (mpmath.expjpi(2 * w * U) - 1) / (
                    2j * mpmath.pi * w)
                b = float(abs(amp) / (2 * mpmath.pi * abs(w)))
                bound += b * (2 * math.pi * eps * (abs(float(w) * U) + abs(q)
                                                   + abs(m)) + 8 * eps)
        assert abs(fl.time_integral(psi, x, T) - float(want.real)) <= bound


def _direct_coboundary_discrepancy(fl, g, depth, x, N, table):
    """The slow oracle: psi from CoboundaryPair at every prime position,
    each time solved cold through time_inverse_many."""
    pair = CoboundaryPair(fl, g, depth)
    ps = table.primes_between(1, N)
    u = fl.time_inverse_many(ps.astype(float), x.x1, x.x2)
    a = SCALED.float_value
    vals = pair.psi((x.x1 + u * a) % 1.0, (x.x2 + u) % 1.0)
    return abs(float(np.dot(np.log(ps.astype(float)), vals))) / N


def test_coboundary_discrepancy_matches_direct(table):
    fl = ReparamFlow(SCALED, make_timechange(SCALED))
    g = COS_X1
    depth = 50
    x = TorusPoint(0.31, 0.64)
    N = 10 ** 4
    fast = coboundary_prime_discrepancy(fl, g, depth, x, N, table)
    slow = _direct_coboundary_discrepancy(fl, g, depth, x, N, table)
    assert abs(fast - slow) < 1e-10


def test_coboundary_discrepancy_matches_direct_past_the_period(table):
    # the times past the rigidity period q_3 = 83523 read the period table
    fl = ReparamFlow(SCALED, make_timechange(SCALED))
    g = COS_X1
    depth = 50
    x = TorusPoint(0.31, 0.64)
    N = 10 ** 5
    assert N > fl._period + 10 ** 4
    fast = coboundary_prime_discrepancy(fl, g, depth, x, N, table)
    slow = _direct_coboundary_discrepancy(fl, g, depth, x, N, table)
    assert abs(fast - slow) < 1e-10


def test_coboundary_discrepancy_bound_shape(table):
    # |sum log p psi(T_p x)| <= 2 sup|h| theta(N) by Abel summation, with
    # sup|h| <= (depth + 1)/2 sup|g|
    fl = ReparamFlow(SCALED, make_timechange(SCALED))
    g = COS_X1
    depth = 20
    N = 10 ** 4
    d3 = coboundary_prime_discrepancy(fl, g, depth, TorusPoint(0.17, 0.44),
                                      N, table)
    assert d3 <= 2.0 * (depth + 1) / 2.0 * table.theta(N) / N


def test_box_discrepancy_reparam_reference():
    fl = ReparamFlow(SCALED, make_timechange(SCALED))
    fine = 2048
    xs = (np.arange(fine) + 0.5) / fine
    X1, X2 = np.meshgrid(xs, xs)
    w = fl.v(X1.ravel(), X2.ravel())
    assert box_discrepancy((X1.ravel(), X2.ravel()), w,
                           fl.box_masses(32)) < 1e-8


_PTS = ([0.2, 0.7], [0.1, 0.4])


@pytest.mark.parametrize("points, weights, msg", [
    (_PTS, [0.0, 0.0], "total weight must be finite and > 0, got 0.0"),
    (_PTS, [1.0, math.nan], "weights must be finite and >= 0, got nan"),
    (_PTS, [math.inf, 1.0], "weights must be finite and >= 0, got inf"),
    (_PTS, [1.0, -1.0], "weights must be finite and >= 0, got -1.0"),
    pytest.param(_PTS, [1e308, 1e308],
                 "total weight must be finite and > 0, got inf",
                 marks=pytest.mark.filterwarnings("ignore:overflow")),
    (_PTS, [1.0], "points and weights must match in length, got 2 x, 2 y "
                  "and 1 weights"),
    (([0.2, 0.7], [0.1]), [1.0, 1.0], "got 2 x, 1 y and 2 weights"),
    (([-0.2, 0.7], [0.1, 0.4]), [1.0, 1.0], r"got \(-0.2, 0.1\)"),
    (([0.2, 1.6], [0.1, 0.4]), [1.0, 1.0], r"got \(1.6, 0.4\)"),
    (([0.2, 1.0], [0.1, 0.4]), [1.0, 1.0], r"got \(1.0, 0.4\)"),
    (([0.2, 0.7], [0.1, -0.4]), [1.0, 1.0], r"got \(0.7, -0.4\)"),
    (([0.2, 0.7], [math.nan, 0.4]), [1.0, 1.0], r"got \(0.2, nan\)"),
], ids=["zero_total", "nan_weight", "inf_weight", "negative_weight",
        "total_overflows", "short_weights", "short_y", "x_below_0",
        "x_above_1", "x_at_1", "y_below_0", "nan_y"])
@pytest.mark.parametrize("torus", [False, True])
def test_box_discrepancy_rejects_bad_input(points, weights, msg, torus):
    # each of these once returned nan, a wrong count or a bare IndexError
    flow = (ReparamFlow(SCALED, make_timechange(SCALED)) if torus
            else KocherginFlow(POWER, GOLDEN))
    with pytest.raises(ValueError, match=msg):
        box_discrepancy(points, weights, flow.box_masses(32))


def test_box_discrepancy_tower_reference():
    rng = np.random.default_rng(5)
    n = 10 ** 6
    ys = rng.random(n)
    fy = POWER(ys)
    ss = rng.random(n) * fy
    kf = KocherginFlow(POWER, GOLDEN)
    # (y, s) uniform under each fiber with weight f(y) samples Leb^f
    assert box_discrepancy((ys, ss), fy, kf.box_masses(32)) < 5e-3


def test_pnt_report_constant_reduces_to_theta(table):
    kf = KocherginFlow(POWER, GOLDEN)
    flat = TowerObservable(POWER, 0.3, u_terms=((1, 0.0, 0.0),))
    rep = pnt_report(flat, kf, FlowPoint(0.3, 0.1), (10 ** 3, 10 ** 4),
                     table=table)
    for N in (10 ** 3, 10 ** 4):
        want = 0.3 * abs(table.theta(N) / N - 1.0)
        assert abs(rep.metric("D1", N, "+") - want) < 1e-8
        assert rep.metric("D2", N, "+") < 1e-8
    assert set(rep.verdicts) >= {"D1_trend", "D2_trend_+", "box_halving"}
    # a direct call names its report generically and, without log_power,
    # records no D3_logA
    assert rep.experiment == "pnt_report"
    assert "D3_logA" not in {m.name for m in rep.metrics}


class _OneCellFlow:
    """A stub flow whose prime orbit sits in one box cell and whose time
    integral grows like N^2, so no discrepancy decreases along the grid."""

    def walk(self, psi, start, times, T):
        times = np.asarray(times)
        pts = (np.full(times.shape, 0.5), np.full(times.shape, 0.5))
        return pts, np.sign(T) * np.asarray(T) ** 2

    def mean(self, psi):
        return 1.0

    def box_masses(self, boxes):
        return np.full((boxes, boxes), 1.0 / boxes ** 2), 0.0, 1.0


def test_pnt_report_verdicts_can_fail(table):
    # D1 = |theta(N) - N^2| / N and D2 = |N^2 - N| / N grow with N in both
    # directions, and the box discrepancy stays at 1 - 1/32^2 on every N
    rep = pnt_report(lambda x, y: np.ones_like(x), _OneCellFlow(), None,
                     (10 ** 3, 10 ** 4), table=table)
    assert rep.verdicts == {"D1_trend": "fail", "D2_trend_+": "fail",
                            "D2_trend_-": "fail", "box_halving": "fail"}
    for N in (10 ** 3, 10 ** 4):
        assert rep.metric("D2", N, "-") == N - 1.0
        box = rep.metric("box_discrepancy", N, "+")
        assert abs(box - (1.0 - 1.0 / 32 ** 2)) < 1e-12


def test_pnt_report_records_log_power(table):
    fl = ReparamFlow(SCALED, make_timechange(SCALED))
    psi = TorusObservable(0.0, [(1, 0, 1.0)])
    rep = pnt_report(psi, fl, TorusPoint(0.31, 0.64), (10 ** 3, 10 ** 4),
                     table=table, log_power=2.0)
    d3 = rep.metric("D3", 10 ** 4, "+")
    want = d3 * math.log(10 ** 4) ** 2
    assert abs(rep.metric("D3_logA", 10 ** 4, "+") - want) < 1e-12


@pytest.mark.parametrize("kind", ["kochergin", "reparam"])
def test_pnt_report_one_pass_per_direction(kind, table, monkeypatch):
    # every N of the grid reads prefixes of one pass per direction: one walk
    # call for the prime positions and the time integrals at z N together,
    # which on the special flow is one crossing schedule per sign and on the
    # torus one _orbit_positions and one time_integral call; the primes
    # stay below the rigidity period, so each direction's are one cold
    # time_inverse_many call, besides the time integrals' calls at the z N
    import primeflow.flow as flow_module

    cls, flow, psi, start = _flow_case(kind)
    calls, schedules, cold = [], [], []
    # where each spied method takes the times it walks to
    spied = {"walk": 2, "_orbit_positions": 0, "time_integral": 2}
    if kind == "kochergin":
        spied = {"walk": 2}

    def spy(name, orig):
        def call(self, *args):
            times = np.asarray(args[spied[name]])
            calls.append((name, "+" if np.all(times >= 0) else "-"))
            return orig(self, *args)
        return call
    for name in spied:
        monkeypatch.setattr(cls, name, spy(name, getattr(cls, name)))
    if kind == "reparam":
        inverse = cls.time_inverse_many
        monkeypatch.setattr(cls, "time_inverse_many", lambda self, t, *args:
                            cold.append(np.size(t)) or inverse(self, t, *args))
    crossings = flow_module._crossings
    monkeypatch.setattr(
        flow_module, "_crossings", lambda *args: schedules.append(args[-1])
        or crossings(*args))
    pnt_report(psi, flow, start, (10 ** 3, 3 * 10 ** 3, 10 ** 4), table=table)
    assert sorted(calls) == sorted((name, z) for name in spied
                                   for z in ("+", "-"))
    assert sorted(schedules) == ([False, True] if kind == "kochergin" else [])
    if kind == "reparam":
        assert sorted(cold) == [3, 3, 1229, 1229]


def test_pnt_report_past_the_period_reads_one_table(table, monkeypatch):
    # primes past the rigidity period P: both directions read one cold
    # period of the time change, one time_inverse_many call of P times
    # centered at 0, and every prime of either sign reads it: besides it
    # only the time integrals at the z N are solved cold
    _, flow, psi, start = _flow_case("reparam")
    cold, inverse = [], ReparamFlow.time_inverse_many
    monkeypatch.setattr(ReparamFlow, "time_inverse_many",
                        lambda self, t, *args: cold.append(np.size(t))
                        or inverse(self, t, *args))
    pnt_report(psi, flow, start, (10 ** 4, 10 ** 5), table=table)
    assert 10 ** 4 < flow._period < 10 ** 5
    assert sorted(cold) == [2, 2, flow._period]


def _reference_walk(flow, psi, start, times, T):
    """The positions and time integrals of flow.walk from the module
    evaluate_times and time_integral (special flow) or the cold
    evaluate_many and the closed-form time_integral (torus)."""
    if isinstance(flow, KocherginFlow):
        pts = evaluate_times(flow.roof, flow.alpha, start, times)[:2]
        return pts, time_integral(flow.roof, flow.alpha, psi, start, T)
    return (flow.evaluate_many(times, start.x1, start.x2),
            flow.time_integral(psi, start, T))


@pytest.mark.parametrize("case", ["m0", "m3_mixed_signs", "fractional"])
@pytest.mark.parametrize("kind", ["kochergin", "reparam"])
def test_walk_matches_positions_and_time_integral(kind, case, table,
                                                  monkeypatch):
    # m0: each walk pnt_report makes; m3_mixed_signs: one walk at the int64
    # times p - 3, from -1 at p = 2 up past the rigidity period, and at T of
    # both signs; fractional: the same at the times p - 2.5.  Against the
    # separate position and integral views at the same times: integrals
    # within 1e-13 relative, and bit-identical positions except on the torus
    # at integral times in a call that reaches the period, which are read
    # from the period table; the cold u errs by a few ulps of max |t|, so the
    # cold coordinates x + u (alpha, 1) mod 1 lie within 4 ulps of max |t|
    # times 1 + alpha < 2 of the table's, plus the rounding of the sums
    cls, flow, psi, start = _flow_case(kind)
    seen = []
    walk = cls.walk

    def spy(self, *args):
        seen.append((args, walk(self, *args)))
        return seen[-1][1]
    monkeypatch.setattr(cls, "walk", spy)
    if case == "m0":
        pnt_report(psi, flow, start, (10 ** 3, 3 * 10 ** 3, 10 ** 4),
                   table=table)
        assert len(seen) == 2
    else:
        ps = table.primes_between(1, 10 ** 5)
        times = ps - 3 if case == "m3_mixed_signs" else ps - 2.5
        flow.walk(psi, start, times, np.array([-3e3, 10.0, 0.0, -0.5, 1e4]))
    monkeypatch.undo()
    for (_, _, times, T), (pts, Is) in seen:
        if case != "m0":
            assert np.any(times < 0) and np.any(times > 0)
        want_pts, want = _reference_walk(flow, psi, start, times, T)
        exact = (kind == "kochergin" or case == "fractional"
                 or np.max(np.abs(times)) < flow._period)
        assert exact != (kind == "reparam" and case == "m3_mixed_signs")
        bound = 8.0 * np.spacing(np.max(np.abs(times))) + 2.0 * np.spacing(1.0)
        for got, ref in zip(pts, want_pts):
            if exact:
                assert got.tobytes() == ref.tobytes()
            else:
                dist = np.abs(got - ref)
                assert np.all(np.minimum(dist, 1.0 - dist) <= bound)
        assert Is.shape == T.shape == (len(T),) and len(T) >= 3
        assert np.all(np.abs(Is - want) <= 1e-13 * np.abs(want))


def test_reparam_time_integral_array_matches_scalar_calls():
    fl = ReparamFlow(SCALED, make_timechange(SCALED))
    psi = TorusObservable(0.2, [(1, 0, 0.5), (0, 1, 0.3 + 0.2j)])
    x = TorusPoint(0.31, 0.64)
    Ts = np.array([0.0, 0.3, -7.3, 7.3, 1234.5, -10 ** 5])
    many = fl.time_integral(psi, x, Ts)
    assert many.shape == Ts.shape and many[0] == 0.0
    for T, got in zip(Ts, many):
        one = fl.time_integral(psi, x, float(T))
        assert isinstance(one, float)
        assert abs(got - one) <= 1e-12 * max(1.0, abs(one))


def test_coboundary_discrepancy_array_matches_scalar_calls(table):
    fl = ReparamFlow(SCALED, make_timechange(SCALED))
    g = COS_X1
    x = TorusPoint(0.31, 0.64)
    Ns = np.array([10 ** 3, 5 * 10 ** 3, 2 * 10 ** 4])
    many = coboundary_prime_discrepancy(fl, g, 40, x, Ns, table)
    one = [coboundary_prime_discrepancy(fl, g, 40, x, int(N), table)
           for N in Ns]
    assert all(isinstance(d, float) for d in one)
    assert many.tolist() == one


@pytest.mark.parametrize("depth", [1, 7, 300])
def test_coboundary_moving_sum_matches_convolution(depth, table):
    # oracle: h from the weighted convolution, psi = h - h o T_1
    fl = ReparamFlow(SCALED, make_timechange(SCALED))
    g = COS_X1
    x = TorusPoint(0.31, 0.64)
    Ns = np.array([10 ** 3, 10 ** 4, 3 * 10 ** 4])
    top = int(Ns[-1])
    gv = g(*fl.walk(g, x, np.arange(top + depth + 2), ())[0])
    kernel = np.arange(depth, 0, -1, dtype=np.float64) / depth
    h = -np.convolve(gv, kernel[::-1], mode="full")[depth - 1: depth + top + 1]
    ps = table.primes_between(1, top)
    terms = np.log(ps.astype(np.float64)) * (h[:-1] - h[1:])[ps]
    want = [abs(float(np.sum(terms[ps <= N]))) / N for N in Ns]
    got = coboundary_prime_discrepancy(fl, g, depth, x, Ns, table)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("depth", [1, 6])
def test_coboundary_discrepancy_on_the_special_flow(depth, table):
    # the statistic walks the special flow's integer orbit too; oracle: g at
    # every integer time from evaluate_times, and psi(T_p x) = -g(T_p x) +
    # (1/depth) sum_{i=1..depth} g(T_{p+i} x) summed term by term
    kf = KocherginFlow(POWER, GOLDEN)
    g = TowerObservable(POWER, 0.3, ((1, 1.0, 0.0), (2, 0.0, 0.5)))
    start, Ns = FlowPoint(0.55, 0.05), np.array([500, 1200, 2000])
    times = np.arange(Ns[-1] + depth + 1, dtype=np.float64)
    gv = g(*evaluate_times(POWER, GOLDEN, start, times)[:2])
    want = []
    for N in Ns:
        ps = table.primes_between(1, N)
        psi = [-gv[p] + math.fsum(gv[p + 1:p + depth + 1]) / depth for p in ps]
        want.append(abs(math.fsum(math.log(p) * v for p, v in zip(ps, psi)))
                    / N)
    got = coboundary_prime_discrepancy(kf, g, depth, start, Ns, table)
    assert np.allclose(got, want, rtol=1e-11, atol=1e-15)


def test_observables_import_leaves_reparam_out():
    # the statistics reach either flow through its methods alone, so a
    # fresh interpreter importing them does not import the torus flow
    script = ("import sys, primeflow.observables; "
              "print('primeflow.reparam' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("depth, N, name", [(0, 10 ** 3, "depth"),
                                            (-2, 10 ** 3, "depth"),
                                            (40, [10 ** 3, 0], "N"),
                                            (40, 0, "N")])
def test_coboundary_discrepancy_rejects_bad_input(depth, N, name, table):
    fl = ReparamFlow(SCALED, make_timechange(SCALED))
    g = COS_X1
    with pytest.raises(ValueError, match=f"^{name} must be >= 1"):
        coboundary_prime_discrepancy(fl, g, depth, TorusPoint(0.31, 0.64), N,
                                     table)


@pytest.mark.parametrize("depth, N, msg", [
    (2.5, 10 ** 3, "depth must be an integer, got 2.5"),
    (40, 100.9, "N must be an integer, got 100.9"),
    (40, [10 ** 3, 100.9], "N must be an integer, got 100.9")])
def test_coboundary_discrepancy_rejects_fractional_input(depth, N, msg,
                                                         table):
    # a cast would truncate N to 100, and a float depth is no index;
    # integral floats still pass
    fl = ReparamFlow(SCALED, make_timechange(SCALED))
    start = TorusPoint(0.31, 0.64)
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        coboundary_prime_discrepancy(fl, COS_X1, depth, start, N, table)
    assert (coboundary_prime_discrepancy(fl, COS_X1, 40.0, start, 1e3, table)
            == coboundary_prime_discrepancy(fl, COS_X1, 40, start, 1000,
                                            table))


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", ["kochergin", "reparam"])
def test_non_finite_times_rejected(kind, t):
    _, flow, psi, start = _flow_case(kind)
    msg = f"t must be finite, got {t}"
    with pytest.raises(ValueError, match=msg):
        flow.walk(psi, start, np.array([1.0, t]), ())
    with pytest.raises(ValueError, match=msg):
        _reference_walk(flow, psi, start, (), t)
    with pytest.raises(ValueError, match=msg):
        _reference_walk(flow, psi, start, (), np.array([2.0, t]))
    for times, T in (([1.0, t], [2.0]), ([1.0], [2.0, t])):
        with pytest.raises(ValueError, match=msg):
            flow.walk(psi, start, np.array(times), np.array(T))


@pytest.mark.parametrize("name", ["pnt_kochergin", "pnt_reparam"])
def test_one_point_grid_records_no_trend(name):
    # a trend of one point is vacuous, so no verdict is recorded
    rep = run_experiment(ExperimentConfig(name, sieve_limit=10 ** 4,
                                          n_grid=(10 ** 4,)))
    assert rep.params["n_grid"] == [10 ** 4]
    assert rep.verdicts == {}
    assert {m.name for m in rep.metrics if m.N == 10 ** 4} >= {"D1", "D2", "D3"}


@pytest.mark.parametrize("n_grid, msg", [
    ((), "n_grid must hold at least one N, got none"),
    ((0, 10 ** 3), "n_grid must be >= 2, got 0"),
    ((1, 10 ** 3), "n_grid must be >= 2, got 1"),
    ((10 ** 3, -5), "n_grid must be >= 2, got -5"),
    ((10 ** 3, 10 ** 2, 10 ** 3), "n_grid repeats N = 1000"),
    ((1000.7, 5000.2), "n_grid must be an integer, got 1000.7"),
], ids=["empty", "zero", "one", "negative", "repeated", "fractional"])
@pytest.mark.parametrize("kind", ["kochergin", "reparam"])
def test_pnt_report_rejects_bad_n_grid(kind, n_grid, msg, table, monkeypatch):
    # an N-grid with no prime below some N, or with an N twice, is named
    # before any orbit pass
    cls, flow, psi, start = _flow_case(kind)
    calls = []
    walk = cls.walk
    monkeypatch.setattr(cls, "walk", lambda self, *args: calls.append(args)
                        or walk(self, *args))
    with pytest.raises(ValueError, match=msg):
        pnt_report(psi, flow, start, n_grid, table=table)
    assert calls == []


def test_pnt_report_takes_integral_float_grids(table):
    # 1e3 and 2e3 are the ints 1000 and 2000 (a fractional N raises above)
    _, flow, psi, start = _flow_case("reparam")
    floats = pnt_report(psi, flow, start, (2e3, 1e3), table=table)
    ints = pnt_report(psi, flow, start, (1000, 2000), table=table)
    assert floats.params == ints.params
    assert floats.params["n_grid"] == [1000, 2000]
    assert [(m.name, m.N, m.z, m.value) for m in floats.metrics] == [
        (m.name, m.N, m.z, m.value) for m in ints.metrics]
    # a scalar N is a one-point grid, as coboundary_prime_discrepancy reads
    # it, and a one-point grid records no verdicts
    scalar = pnt_report(psi, flow, start, 1e3, table=table)
    one = pnt_report(psi, flow, start, (1000,), table=table)
    assert scalar.params == one.params and scalar.verdicts == one.verdicts == {}
    assert [(m.name, m.N, m.z, m.value) for m in scalar.metrics] == [
        (m.name, m.N, m.z, m.value) for m in one.metrics]


@pytest.mark.parametrize("n_grid", [(10 ** 3, 10 ** 4, 2 * 10 ** 4),
                                    (2 * 10 ** 4, 5 * 10 ** 4)],
                         ids=["past_the_limit", "all_past_the_limit"])
@pytest.mark.parametrize("name", ["pnt_kochergin", "pnt_reparam"])
def test_pnt_grid_past_the_sieve_limit_is_kept(name, n_grid):
    # the sieve grows to the largest N: every N of the grid keeps its rows
    small = build_table(10 ** 4)
    rep = run_experiment(ExperimentConfig(name, sieve_limit=10 ** 4,
                                          n_grid=n_grid), small)
    assert rep.params["n_grid"] == list(n_grid)
    for N in n_grid:
        assert {m.name for m in rep.metrics if m.N == N} >= {
            "D1", "D2", "D3", "box_discrepancy"}
    assert {"D1_trend", "D2_trend_+", "D2_trend_-", "box_halving"} <= set(
        rep.verdicts)


def test_tower_observable_on_another_roof_rejected(table):
    # psi's roof would shape its partial fibers while the walk crosses the
    # flow's fibers
    kf = KocherginFlow(POWER, GOLDEN)
    psi = TowerObservable(PowerRoof(-0.9), 0.3)
    start, msg = FlowPoint(0.55, 0.05), "another roof than the flow's"
    with pytest.raises(ValueError, match=msg):
        space_average(psi, POWER)
    with pytest.raises(ValueError, match=msg):
        kf.walk(psi, start, np.array([1.0, 2.0]), np.array([3.0]))
    with pytest.raises(ValueError, match=msg):
        time_integral(POWER, GOLDEN, psi, start, -3.0)
    with pytest.raises(ValueError, match=msg):
        pnt_report(psi, kf, start, (10 ** 3, 10 ** 4), table=table)
    # an equal roof is not enough: the observable must share the flow's
    with pytest.raises(ValueError, match=msg):
        space_average(TowerObservable(PowerRoof(), 0.3), POWER)
