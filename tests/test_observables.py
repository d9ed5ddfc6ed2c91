import json
import math
import random

import numpy as np
import pytest

from primeflow.config import ExperimentConfig
from primeflow.experiments import run_experiment
from primeflow.flow import FlowPoint, evaluate, evaluate_times
from primeflow.observables import (
    KocherginFlow,
    SingularOrbitError,
    TorusObservable,
    TowerObservable,
    box_discrepancy,
    coboundary_prime_discrepancy,
    pnt_report,
    space_average,
)
from primeflow.primes import build_table
from primeflow.reparam import ReparamFlow, TorusPoint, make_timechange
from primeflow.roofs import FourierRoof, PowerRoof, TimeChange
from primeflow.rotation import construct_alpha, from_partial_quotients

GOLDEN = from_partial_quotients([1] * 12)
POWER = PowerRoof()
SCALED = construct_alpha("scaled_D", growth=lambda q: q ** 4, depth=4, seed=2)

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


def test_trivial_observables():
    flat = TowerObservable(POWER, 0.7, u_terms=((1, 0.0, 0.0),))
    assert flat(0.3, 0.2) == 0.7
    assert abs(space_average(flat, POWER) - 0.7) < 1e-9


def test_fiber_integral_closed_form(psi):
    # a whole fiber and a partial one against the trapezoid rule
    for y, lo, hi in ((0.23, 0.0, POWER(0.23)), (0.6, 0.2, 0.9)):
        ss = np.linspace(lo, hi, 200001)
        riemann = float(np.trapezoid(psi(np.full_like(ss, y), ss), ss))
        assert abs(float(psi.fiber_integral_many(y, lo, hi)) - riemann) < 1e-9


@pytest.mark.parametrize("roof", [POWER, FourierRoof([(1, 0.4), (3, 0.2j)])],
                         ids=["power", "fourier"])
def test_whole_fiber_integral_matches_fiber_integral(roof):
    # the closed form on the roof values against fiber_integral_many(y, 0,
    # f(y)), on a y grid graded toward both ends, up to 1e-12 from either
    psi = TowerObservable(roof, psi_inf=-0.7,
                          u_terms=((1, 1.0, 0.5), (3, -0.2, 0.7)))
    left = np.geomspace(1e-12, 0.5, 400)
    ys = np.concatenate((left, 1.0 - left, np.linspace(0.0, 1.0, 101)[1:-1]))
    assert ys.min() == 1e-12 and 1.0 - ys.max() < 1.1e-12
    fs = np.asarray(roof(ys), dtype=np.float64)
    got = psi.whole_fiber_integral_many(ys, fs)
    want = psi.fiber_integral_many(ys, 0.0, fs)
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


class _Ragged:
    """A fiber integral that oscillates fast on [1/4, 1/2] only."""
    psi_inf = 0.0

    def fiber_integral_many(self, y, lo, hi):
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
    rep = pnt_report(one, kf, FlowPoint(0.37, 0.05), (N,), directions=("+",),
                     table=table)
    assert abs(rep.metric("D1", N, "+") * N - abs(table.theta(N) - N)) < 1e-7


def test_prime_sum_shift_relabels(table):
    # a constant observable cannot see the shift m at all
    kf = KocherginFlow(POWER, GOLDEN)
    const = TowerObservable(POWER, psi_inf=0.4, u_terms=())
    p = FlowPoint(0.3, 0.1)
    a, b = (pnt_report(const, kf, p, (10 ** 4,), m=m, table=table)
            for m in (0, 1))
    for z in ("+", "-"):
        assert abs(a.metric("D3", 10 ** 4, z) - b.metric("D3", 10 ** 4, z)) < 1e-12


@pytest.mark.parametrize("m", [-1, -5])
def test_negative_shift_rejected(table, m):
    # at m < 0 the orbit would be read at the times p + |m|, after the prime
    kf = KocherginFlow(POWER, GOLDEN)
    psi = TowerObservable(POWER, 0.3)
    with pytest.raises(ValueError, match=f"shift m must be >= 0, got {m}"):
        pnt_report(psi, kf, FlowPoint(0.55, 0.05), (10 ** 3, 10 ** 4), m=m,
                   table=table)


@pytest.mark.parametrize("directions", [(), ("+", "+")])
def test_directions_must_be_distinct(table, directions):
    # () used to fail in max() on a grid of two points, ("+", "+") wrote
    # every D1/D2/D3 row twice
    kf = KocherginFlow(POWER, GOLDEN)
    with pytest.raises(ValueError, match="directions"):
        pnt_report(TowerObservable(POWER, 0.3), kf, FlowPoint(0.55, 0.05),
                   (10 ** 3, 10 ** 4), directions=directions, table=table)


def _flow_case(kind):
    """(flow class, flow, observable, start) of a pnt_report test case."""
    if kind == "kochergin":
        return (KocherginFlow, KocherginFlow(POWER, GOLDEN),
                TowerObservable(POWER, 0.3), FlowPoint(0.55, 0.05))
    return (ReparamFlow, ReparamFlow(SCALED, make_timechange(SCALED)),
            TorusObservable(0.0, [(1, 0, 1.0), (0, 1, 0.5)]),
            TorusPoint(0.31, 0.64))


@pytest.mark.parametrize("kind", ["kochergin", "reparam", "equidist_boxes"])
def test_box_count_checked_before_the_orbit(kind, table, monkeypatch):
    # a bad box count is named before any orbit pass is paid for
    cls, flow, psi, start = _flow_case(
        "reparam" if kind == "reparam" else "kochergin")
    calls = []
    for name in ("positions", "walk"):
        monkeypatch.setattr(
            cls, name, lambda self, *args, _orig=getattr(cls, name):
            calls.append(args) or _orig(self, *args))
    with pytest.raises(ValueError, match="boxes must be >= 1, got 0"):
        if kind == "equidist_boxes":
            run_experiment(ExperimentConfig(
                kind, sieve_limit=10 ** 4, n_grid=(10 ** 3, 10 ** 4),
                params={"boxes": "0"}), table)
        else:
            pnt_report(psi, flow, start, (10 ** 3, 10 ** 4), table=table,
                       boxes=0)
    assert calls == []


@pytest.mark.parametrize("boxes", [0, -3])
@pytest.mark.parametrize("torus", [False, True])
def test_box_count_must_be_positive(boxes, torus):
    flow = (ReparamFlow(SCALED, make_timechange(SCALED)) if torus
            else KocherginFlow(POWER, GOLDEN))
    pts = (np.array([0.2, 0.7]), np.array([0.1, 0.4]))
    with pytest.raises(ValueError, match=f"boxes must be >= 1, got {boxes}"):
        box_discrepancy(pts, np.ones(2), flow, boxes=boxes)


class _BadRoof:
    """A flat roof that claims a singularity at 0."""
    gamma = -0.5

    def __call__(self, x, order=0):
        return np.ones_like(np.asarray(x, dtype=float))

    def integral(self):
        return 1.0


def test_prime_sum_singular_hit(table):
    alpha = GOLDEN
    start = FlowPoint((-2 * alpha.float_value) % 1.0, 0.1)
    kf = KocherginFlow(_BadRoof(), alpha)
    one = TowerObservable(_BadRoof(), psi_inf=1.0, u_terms=())
    with pytest.raises(SingularOrbitError, match="prime 2"):
        pnt_report(one, kf, start, (100,), table=table)


def test_positions_name_the_singular_time():
    start = FlowPoint((-2 * GOLDEN.float_value) % 1.0, 0.1)
    kf = KocherginFlow(_BadRoof(), GOLDEN)
    with pytest.raises(SingularOrbitError, match=r"times\[1\]") as err:
        kf.positions(start, np.array([1.0, 2.0, 3.0]))
    assert err.value.index == 1


def test_kochergin_time_integral_is_signed(psi):
    # int_{-T}^{T} along the orbit of p is the forward integral from T_{-T} p
    kf = KocherginFlow(POWER, GOLDEN)
    p, T = FlowPoint(0.41, 0.2), 37.5
    back = evaluate(POWER, GOLDEN, p, -T).endpoint
    whole = kf.time_integral(psi, back, 2.0 * T)
    split = kf.time_integral(psi, p, T) - kf.time_integral(psi, p, -T)
    assert abs(whole - split) < 1e-8 * (1.0 + abs(whole))


def test_torus_coordinates_lie_in_unit_interval():
    # -1e-17 % 1.0 rounds to 1.0; the point is (0, 0) and must count there
    fl = ReparamFlow(GOLDEN, TimeChange([(2, 0, 0.3), (1, 1, 0.2j)]))
    assert TorusPoint(-1e-17, 0.5).x1 == 0.0
    x1, x2 = fl.evaluate_many(np.array([-1e-17]), 0.0, 0.0)
    assert 0.0 <= x1[0] < 1.0 and 0.0 <= x2[0] < 1.0
    at_origin = box_discrepancy((np.zeros(1), np.zeros(1)), [1.0], fl)
    assert box_discrepancy((x1, x2), [1.0], fl) == at_origin


def test_torus_observable_means():
    v = TimeChange([(2, 0, 0.3), (1, 1, 0.2j)])
    psi = TorusObservable(0.25, [(2, 0, 0.4 + 0.1j), (-1, -1, 0.6)])
    fine = 64
    xs = (np.arange(fine) + 0.5) / fine
    X1, X2 = np.meshgrid(xs, xs)
    vv = 1.0
    for q, m, c in v.terms:
        vv = vv + np.real(c * np.exp(2j * np.pi * (q * X1 + m * X2)))
    grid_mean = float(np.mean(psi(X1, X2) * vv))
    assert abs(psi.mean() - 0.25) < 1e-12
    assert abs(psi.mean(v) - grid_mean) < 1e-10
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


def test_coboundary_discrepancy_matches_direct(table):
    fl = ReparamFlow(SCALED, make_timechange(SCALED))
    from primeflow.reparam import CoboundaryPair

    g = lambda x1, x2: np.cos(2 * np.pi * np.asarray(x1))
    depth = 50
    x = TorusPoint(0.31, 0.64)
    N = 10 ** 4
    fast = coboundary_prime_discrepancy(fl, g, depth, x, N, table)
    pair = CoboundaryPair(fl, g, depth)
    ps = table.primes_between(1, N)
    u = fl.time_inverse_many(ps.astype(float), x.x1, x.x2)
    a = SCALED.float_value
    vals = pair.psi((x.x1 + u * a) % 1.0, (x.x2 + u) % 1.0)
    slow = abs(float(np.dot(np.log(ps.astype(float)), vals))) / N
    assert abs(fast - slow) < 1e-10


def test_coboundary_discrepancy_bound_shape(table):
    # |sum log p psi(T_p x)| <= 2 sup|h| theta(N) by Abel summation, with
    # sup|h| <= (depth + 1)/2 sup|g|
    fl = ReparamFlow(SCALED, make_timechange(SCALED))
    g = lambda x1, x2: np.cos(2 * np.pi * np.asarray(x1))
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
    assert box_discrepancy((X1.ravel(), X2.ravel()), w, fl, boxes=32) < 1e-8


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
        box_discrepancy(points, weights, flow)


def test_box_discrepancy_tower_reference():
    rng = np.random.default_rng(5)
    n = 10 ** 6
    ys = rng.random(n)
    fy = POWER(ys)
    ss = rng.random(n) * fy
    kf = KocherginFlow(POWER, GOLDEN)
    # (y, s) uniform under each fiber with weight f(y) samples Leb^f
    assert box_discrepancy((ys, ss), fy, kf, boxes=32) < 5e-3


def test_pnt_report_constant_reduces_to_theta(table):
    kf = KocherginFlow(POWER, GOLDEN)
    flat = TowerObservable(POWER, 0.3, u_terms=((1, 0.0, 0.0),))
    rep = pnt_report(flat, kf, FlowPoint(0.3, 0.1), (10 ** 3, 10 ** 4),
                     directions=("+",), table=table)
    for N in (10 ** 3, 10 ** 4):
        want = 0.3 * abs(table.theta(N) / N - 1.0)
        assert abs(rep.metric("D1", N, "+") - want) < 1e-8
        assert rep.metric("D2", N, "+") < 1e-8
    assert set(rep.verdicts) >= {"D1_trend", "D2_trend_+", "box_halving"}


def test_pnt_report_threads_match_serial(psi, table):
    # fresh rotation numbers, so the threaded cells grow the orbit cache
    # concurrently from empty
    docs = []
    for workers in (1, 2):
        kf = KocherginFlow(POWER, from_partial_quotients([1] * 12))
        rep = pnt_report(psi, kf, FlowPoint(0.55, 0.05), (10 ** 3, 10 ** 4),
                         table=table, workers=workers)
        doc = json.loads(rep.to_json())
        docs.append((doc["metrics"], doc["verdicts"]))
    assert docs[0] == docs[1]


def test_pnt_report_records_log_power(table):
    fl = ReparamFlow(SCALED, make_timechange(SCALED))
    psi = TorusObservable(0.0, [(1, 0, 1.0)])
    rep = pnt_report(psi, fl, TorusPoint(0.31, 0.64), (10 ** 3, 10 ** 4),
                     directions=("+",), table=table, log_power=2.0)
    d3 = rep.metric("D3", 10 ** 4, "+")
    want = d3 * math.log(10 ** 4) ** 2
    assert abs(rep.metric("D3_logA", 10 ** 4, "+") - want) < 1e-12


def test_pnt_report_reparam_threads_match_serial(table):
    docs = []
    for workers in (1, 2):
        fl = ReparamFlow(SCALED, make_timechange(SCALED))
        psi = TorusObservable(0.0, [(1, 0, 1.0), (0, 1, 0.5)])
        rep = pnt_report(psi, fl, TorusPoint(0.31, 0.64), (10 ** 3, 10 ** 4),
                         table=table, workers=workers)
        doc = json.loads(rep.to_json())
        docs.append((doc["experiment"], doc["metrics"], doc["verdicts"]))
    assert docs[0] == docs[1]
    # a direct call names its report generically and, without log_power,
    # records no D3_logA
    assert docs[0][0] == "pnt_report"
    assert "D3_logA" not in {m["name"] for m in docs[0][1]}


def test_box_rows_shared_by_equidist_and_pnt(table):
    rows = []
    for name in ("equidist_boxes", "pnt_kochergin"):
        cfg = ExperimentConfig(name, sieve_limit=10 ** 4,
                               n_grid=(10 ** 3, 10 ** 4))
        rep = run_experiment(cfg, table)
        rows.append([(m.N, m.value) for m in rep.metrics
                     if m.name == "box_discrepancy"])
    assert len(rows[0]) == 2
    assert rows[0] == rows[1]


@pytest.mark.parametrize("kind", ["kochergin", "reparam"])
def test_pnt_report_one_pass_per_direction(kind, table, monkeypatch):
    # every N of the grid reads prefixes of one pass per direction: one walk
    # call for the prime positions and the time integrals at z N together,
    # which on the special flow is one crossing schedule per sign and on the
    # torus one positions and one time_integral call
    import primeflow.flow as flow_module

    cls, flow, psi, start = _flow_case(kind)
    calls, schedules = [], []

    def spied(name, orig):
        def spy(self, *args):
            times = np.asarray(args[2] if name == "walk" else args[-1])
            calls.append((name, "+" if np.all(times >= 0) else "-"))
            return orig(self, *args)
        return spy
    for name in ("positions", "time_integral", "walk"):
        monkeypatch.setattr(cls, name, spied(name, getattr(cls, name)))
    crossings = flow_module._crossings
    monkeypatch.setattr(
        flow_module, "_crossings", lambda *args: schedules.append(args[-1])
        or crossings(*args))
    pnt_report(psi, flow, start, (10 ** 3, 3 * 10 ** 3, 10 ** 4), table=table)
    walks = [("walk", "+"), ("walk", "-")]
    if kind == "kochergin":
        assert sorted(calls) == walks
        assert sorted(schedules) == [False, True]
    else:
        assert sorted(calls) == sorted(walks + [
            ("positions", "+"), ("positions", "-"),
            ("time_integral", "+"), ("time_integral", "-")])
        assert schedules == []


@pytest.mark.parametrize("m, directions", [(0, ("+", "-")), (3, ("+", "-")),
                                           (0, ("-",))],
                         ids=["m0", "m3_mixed_signs", "boxes_only_plus"])
@pytest.mark.parametrize("kind", ["kochergin", "reparam"])
def test_walk_matches_positions_and_time_integral(kind, m, directions, table,
                                                  monkeypatch):
    # each walk pnt_report makes against separate positions and
    # time_integral calls at the same times: bit-identical positions and
    # the same integrals; with m = 3 the "+" pass reads t = 2 - 3 < 0 and the
    # "-" pass t = 3 - 2 > 0, and with directions ("-",) the "+" pass asks
    # for no integral
    cls, flow, psi, start = _flow_case(kind)
    seen = []
    walk = cls.walk

    def spy(self, *args):
        seen.append((args, walk(self, *args)))
        return seen[-1][1]
    monkeypatch.setattr(cls, "walk", spy)
    pnt_report(psi, flow, start, (10 ** 3, 3 * 10 ** 3, 10 ** 4),
               directions=directions, m=m, table=table)
    monkeypatch.undo()
    assert sorted(args[3].size for args, _ in seen) == (
        [0, 3] if directions == ("-",) else [3, 3])
    for (_, _, times, T), (pts, Is) in seen:
        if m:
            assert np.any(times < 0) and np.any(times > 0)
        for got, want in zip(pts, flow.positions(start, times)):
            assert got.tobytes() == want.tobytes()
        want = flow.time_integral(psi, start, T)
        assert Is.shape == T.shape
        assert np.all(np.abs(Is - want) <= 1e-13 * np.abs(want))


def test_unknown_direction_is_named(psi, table):
    kf = KocherginFlow(POWER, GOLDEN)
    start = FlowPoint(0.55, 0.05)
    with pytest.raises(ValueError, match="'x'"):
        pnt_report(psi, kf, start, (10 ** 3,), directions=("+", "x"),
                   table=table)


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
    g = lambda x1, x2: np.cos(2 * np.pi * np.asarray(x1))
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
    from primeflow.observables import _integer_orbit_values

    fl = ReparamFlow(SCALED, make_timechange(SCALED))
    g = lambda x1, x2: np.cos(2 * np.pi * np.asarray(x1))
    x = TorusPoint(0.31, 0.64)
    Ns = np.array([10 ** 3, 10 ** 4, 3 * 10 ** 4])
    top = int(Ns[-1])
    gv = _integer_orbit_values(fl, g, x, top + depth + 1)
    kernel = np.arange(depth, 0, -1, dtype=np.float64) / depth
    h = -np.convolve(gv, kernel[::-1], mode="full")[depth - 1: depth + top + 1]
    ps = table.primes_between(1, top)
    terms = np.log(ps.astype(np.float64)) * (h[:-1] - h[1:])[ps]
    want = [abs(float(np.sum(terms[ps <= N]))) / N for N in Ns]
    got = coboundary_prime_discrepancy(fl, g, depth, x, Ns, table)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("depth, N, name", [(0, 10 ** 3, "depth"),
                                            (-2, 10 ** 3, "depth"),
                                            (40, [10 ** 3, 0], "N"),
                                            (40, 0, "N")])
def test_coboundary_discrepancy_rejects_bad_input(depth, N, name, table):
    fl = ReparamFlow(SCALED, make_timechange(SCALED))
    g = lambda x1, x2: np.cos(2 * np.pi * np.asarray(x1))
    with pytest.raises(ValueError, match=f"^{name} must be >= 1"):
        coboundary_prime_discrepancy(fl, g, depth, TorusPoint(0.31, 0.64), N,
                                     table)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", ["kochergin", "reparam"])
def test_non_finite_times_rejected(kind, t):
    _, flow, psi, start = _flow_case(kind)
    msg = f"t must be finite, got {t}"
    with pytest.raises(ValueError, match=msg):
        flow.positions(start, np.array([1.0, t]))
    with pytest.raises(ValueError, match=msg):
        flow.time_integral(psi, start, t)
    with pytest.raises(ValueError, match=msg):
        flow.time_integral(psi, start, np.array([2.0, t]))
    for times, T in (([1.0, t], [2.0]), ([1.0], [2.0, t])):
        with pytest.raises(ValueError, match=msg):
            flow.walk(psi, start, np.array(times), np.array(T))


@pytest.mark.parametrize("name", ["pnt_kochergin", "pnt_reparam"])
def test_one_point_grid_records_no_trend(name):
    # a sieve limit of 1e4 leaves one point of the default grid; a trend of
    # one point is vacuous, so no verdict is recorded
    rep = run_experiment(ExperimentConfig(name, sieve_limit=10 ** 4))
    assert rep.params["n_grid"] == [10 ** 4]
    assert rep.verdicts == {}
    assert {m.name for m in rep.metrics if m.N == 10 ** 4} >= {"D1", "D2", "D3"}
