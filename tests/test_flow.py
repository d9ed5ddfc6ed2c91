import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from primeflow.flow import (
    ABReport,
    FlowPoint,
    _covering_values,
    _crossings,
    _offsets,
    _subtract,
    _union,
    _window_hits,
    ab_decomposition,
    evaluate,
    evaluate_naive,
    evaluate_times,
    time_integral,
    tower_metric,
)
from primeflow.roofs import FourierRoof, PowerRoof
from primeflow.rotation import construct_alpha, frac, from_partial_quotients

GOLDEN = from_partial_quotients([1] * 12)
SCALED = construct_alpha("scaled_D", growth=lambda q: q * q, depth=5, seed=2)
UNIT = FourierRoof([(1, 0.0)])  # constant roof f == 1
POWER = PowerRoof()


def test_unit_roof_is_suspension():
    step = evaluate(UNIT, GOLDEN, FlowPoint(0.1, 0.0), 2.5)
    assert step.hits == 2
    assert abs(step.endpoint.x - (0.1 + 2 * GOLDEN.float_value) % 1.0) < 1e-12
    assert abs(step.endpoint.s - 0.5) < 1e-12


def test_no_crossing_short_time():
    x = 0.3
    step = evaluate(POWER, GOLDEN, FlowPoint(x, 0.0), 0.1)
    assert step.hits == 0
    assert step.endpoint == FlowPoint(x, 0.1)


def test_backward_within_fiber():
    step = evaluate(UNIT, GOLDEN, FlowPoint(0.3, 0.5), -0.3)
    assert step.hits == 0
    assert abs(step.endpoint.s - 0.2) < 1e-12
    assert step.endpoint.x == 0.3


def test_backward_crossing():
    step = evaluate(UNIT, GOLDEN, FlowPoint(0.3, 0.5), -0.7)
    assert step.hits == -1
    assert abs(step.endpoint.s - 0.8) < 1e-12
    assert abs(step.endpoint.x - (0.3 - GOLDEN.float_value) % 1.0) < 1e-12


def test_flow_point_validation():
    with pytest.raises(ValueError):
        FlowPoint(0.3, 10.0).validate(UNIT)
    FlowPoint(0.3, 0.5).validate(UNIT)


def test_oracle_equivalence():
    rng = random.Random(9)
    for _ in range(300):
        x = rng.random()
        s = rng.uniform(0.0, POWER(x) * 0.99)
        t = rng.uniform(-200.0, 200.0)
        a = evaluate(POWER, GOLDEN, FlowPoint(x, s), t)
        b = evaluate_naive(POWER, GOLDEN, FlowPoint(x, s), t)
        assert a.hits == b.hits
        assert tower_metric(a.endpoint, b.endpoint) <= 1e-9


def test_flow_property_and_inverse():
    rng = random.Random(10)
    for _ in range(300):
        x = rng.random()
        s = rng.uniform(0.0, POWER(x) * 0.99)
        t1 = rng.uniform(-50.0, 50.0)
        t2 = rng.uniform(-50.0, 50.0)
        p = FlowPoint(x, s)
        one = evaluate(POWER, GOLDEN, p, t1 + t2).endpoint
        mid = evaluate(POWER, GOLDEN, p, t1).endpoint
        two = evaluate(POWER, GOLDEN, mid, t2).endpoint
        assert tower_metric(one, two) <= 1e-7
        back = evaluate(POWER, GOLDEN, mid, -t1).endpoint
        assert tower_metric(back, p) <= 1e-7


@st.composite
def _random_flow(draw):
    """A random PowerRoof or FourierRoof over a random partial-quotient
    alpha, with a start point whose x is no exact orbit point of 0."""
    if draw(st.booleans()):
        roof = PowerRoof(gamma=draw(st.floats(-0.95, -0.05)),
                         c0=draw(st.floats(0.05, 0.95)))
    else:
        n = draw(st.integers(1, 3))
        mods = draw(st.lists(st.floats(0.0, 0.9 / n), min_size=n, max_size=n))
        args = draw(st.lists(st.floats(0.0, 2.0 * math.pi), min_size=n,
                             max_size=n))
        qs = draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
        roof = FourierRoof([(q, r * complex(math.cos(a), math.sin(a)))
                            for q, r, a in zip(qs, mods, args)],
                           check_band=False)
    alpha = from_partial_quotients(
        draw(st.lists(st.integers(1, 6), min_size=8, max_size=14)))
    x = draw(st.floats(0.001, 0.999))
    # a dyadic x with denominator above Q is never congruent to -i alpha
    assume(Fraction(x).denominator > alpha.value.denominator)
    # heights away from 0 and f(x): (x, 0) and (x - alpha, f(x - alpha)) are
    # one point of the flow but far apart in the tower metric
    s = draw(st.floats(0.01, 0.99)) * roof(x)
    return roof, alpha, FlowPoint(x, s)


@settings(max_examples=30, deadline=None)
@given(case=_random_flow(), t=st.floats(-50.0, 50.0))
def test_evaluate_matches_naive_random_roofs(case, t):
    roof, alpha, p = case
    a = evaluate(roof, alpha, p, t)
    b = evaluate_naive(roof, alpha, p, t)
    assert a.hits == b.hits
    assert tower_metric(a.endpoint, b.endpoint) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(case=_random_flow(), t1=st.floats(-50.0, 50.0),
       t2=st.floats(-50.0, 50.0))
def test_flow_property_random_roofs(case, t1, t2):
    roof, alpha, p = case
    mid = evaluate(roof, alpha, p, t1).endpoint
    one = evaluate(roof, alpha, p, t1 + t2).endpoint
    two = evaluate(roof, alpha, mid, t2).endpoint
    assert tower_metric(one, two) <= 1e-7
    assert tower_metric(evaluate(roof, alpha, mid, -t1).endpoint, p) <= 1e-7


def test_defining_inclusion():
    rng = random.Random(11)
    for _ in range(100):
        x = rng.random()
        s = rng.uniform(0.0, POWER(x) * 0.99)
        t = rng.uniform(-100.0, 100.0)
        step = evaluate(POWER, GOLDEN, FlowPoint(x, s), t)
        resid = s + t - step.consumed
        assert -1e-9 <= resid < POWER(step.endpoint.x) + 1e-9
        assert abs(resid - step.endpoint.s) < 1e-9


def test_covering_values_backward():
    # the backward walk is sized on {x - i alpha}, not the forward orbit
    x, span = 0.37, 5000.0
    bases, vals = _covering_values(POWER, SCALED, x, span, backward=True)
    pts = [float((Fraction(x) - i * SCALED.value) % 1)
           for i in range(1, len(vals) + 1)]
    assert np.allclose(bases, pts, rtol=0.0, atol=1e-12)
    assert np.allclose(vals, POWER(np.array(pts)), rtol=1e-9, atol=0.0)
    assert np.array_equal(vals, POWER(bases))
    assert np.sum(vals[:-2]) >= span


@pytest.mark.parametrize("backward", [False, True])
def test_crossing_bases_are_the_offset_bases(backward):
    # the bases the roof values were taken on are those of (x + offsets) % 1
    p, t = FlowPoint(0.37, 0.05), -3000.0 if backward else 3000.0
    xs, _, _, n = _crossings(POWER, SCALED, p, [t], backward)
    offs = _offsets(SCALED, int(n[0]) + 1, backward)
    assert np.array_equal(xs, (p.x + offs) % 1.0)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_naive_rejects_non_finite_time(t):
    # the stepping loop never ends for a time no fiber can hold
    with pytest.raises(ValueError, match=f"t must be finite, got {t}"):
        evaluate_naive(POWER, GOLDEN, FlowPoint(0.7, 0.3), t)


def test_start_height_checked():
    for s in (-0.1, POWER(0.3), 10.0):
        with pytest.raises(ValueError):
            evaluate(POWER, GOLDEN, FlowPoint(0.3, s), 1.0)
        with pytest.raises(ValueError):
            evaluate_times(POWER, GOLDEN, FlowPoint(0.3, s), [1.0, -1.0])


def test_tower_metric():
    assert tower_metric(FlowPoint(0.3, 0.1), FlowPoint(0.3, 0.1)) == 0.0
    assert abs(tower_metric(FlowPoint(0.3, 0.1), FlowPoint(0.3, 0.4)) - 0.3) < 1e-15
    assert abs(tower_metric(FlowPoint(0.9, 0.2), FlowPoint(0.1, 0.2)) - 0.2) < 1e-15


def test_visit_times_consistent_with_flow():
    # with height cutoff 0, A_0 is the set of visit times to the rho-ball
    # around 0: the midpoint of each interval really is inside the ball
    p = FlowPoint(0.41, 0.02)
    rho = 0.015
    rep = ab_decomposition(POWER, GOLDEN, p, 30.0, 3, 0.9, height_cutoff=0.0,
                           a0_radius=rho)
    assert rep.A0
    for a, b in rep.A0:
        mid = evaluate(POWER, GOLDEN, p, 0.5 * (a + b)).endpoint
        assert min(mid.x, 1.0 - mid.x) <= rho


def test_lemma_visit_interval_structure_scaled():
    # visits to the quarter-1/q_{n+1} neighborhood (A_0 at height cutoff 0)
    # form one interval within a c*q_{n+1} horizon
    n = 3
    horizon = 0.05 * SCALED.q(n + 1)
    rng = np.random.default_rng(12)
    for x in rng.random(20):
        s = 0.5 * POWER(float(x))
        rep = ab_decomposition(POWER, SCALED, FlowPoint(float(x), s), horizon,
                               n, 0.9, height_cutoff=0.0)
        assert len(rep.A0) <= 1


def test_ab_decomposition_claims():
    n = 4
    qn1 = SCALED.q(n + 1) if n + 1 <= SCALED.depth else None
    horizon = qn1 / math.log(10)
    rng = np.random.default_rng(7)
    saw_nonempty = False
    for x in rng.random(6):
        rep = ab_decomposition(POWER, SCALED, FlowPoint(float(x), 0.1),
                               horizon, n, 0.9)
        assert rep.p1 and rep.p2 and rep.p3
        assert rep.excess_ratio < 0.2
        total = sum(b - a for a, b in rep.A) + sum(b - a for a, b in rep.B)
        assert abs(total - horizon) < 1e-6
        saw_nonempty = saw_nonempty or rep.a_measure > 0.0
    assert saw_nonempty


def test_ab_decomposition_empty_orbit():
    # tiny horizon from a base far from the singular union: A stays empty
    rep = ab_decomposition(POWER, SCALED, FlowPoint(0.4060606, 0.1), 3.0, 4, 0.9)
    assert rep.A == [] and rep.a_measure == 0
    assert rep.B == [(0.0, 3.0)]


def test_ab_decomposition_delta_guard():
    with pytest.raises(ValueError):
        ab_decomposition(POWER, SCALED, FlowPoint(0.3, 0.1), 100.0, 2, 1.5)


@pytest.mark.parametrize("cutoff", [None, 1.0])
@pytest.mark.parametrize("horizon", [0.0, -3.0])
def test_ab_decomposition_rejects_nonpositive_horizon(horizon, cutoff):
    msg = re.escape(f"horizon must be > 0, got {horizon}")
    with pytest.raises(ValueError, match=msg):
        ab_decomposition(POWER, SCALED, FlowPoint(0.3, 0.1), horizon, 3, 0.9,
                         height_cutoff=cutoff)


def test_ab_decomposition_rejects_roof_without_singularity():
    with pytest.raises(TypeError, match="got FourierRoof"):
        ab_decomposition(FourierRoof([(2, 0.3)]), SCALED, FlowPoint(0.3, 0.1),
                         10.0, 3, 0.9)


# Reference: the per-fiber loop the visit sets were first written with.


def _merge_intervals_loop(pieces, tol=1e-9):
    merged = []
    for a, b in pieces:
        if b <= a:
            continue
        if merged and a <= merged[-1][1] + tol:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return [(a, b) for a, b in merged]


def _min_dist_to_centers(xs, centers) -> np.ndarray:
    """Circle distance from each x to the nearest of the given centers."""
    cs = np.sort(np.asarray(centers, dtype=np.float64))
    idx = np.searchsorted(cs, xs)
    lo = cs[(idx - 1) % len(cs)]
    hi = cs[idx % len(cs)]
    d1 = np.abs(frac((xs - lo) + 0.5) - 0.5)
    d2 = np.abs(frac((xs - hi) + 0.5) - 0.5)
    return np.minimum(d1, d2)


def _ab_decomposition_loop(roof, alpha, p, horizon, n, delta,
                           height_cutoff=None, a0_radius=None):
    qn = alpha.q(n)
    if height_cutoff is None:
        height_cutoff = math.log(horizon)
    if a0_radius is None:
        a0_radius = 0.25 / alpha.q(n + 1) if n + 1 <= alpha.depth else 0.25 / alpha._virtual_q
    ia_radius = qn ** (-1.0 - delta)
    xs, _, S, _ = _crossings(roof, alpha, p, [horizon])
    tau = S - p.s
    centers = _offsets(alpha, qn, backward=True)
    in_ia = _min_dist_to_centers(xs, centers) <= ia_radius
    dist0 = np.minimum(xs, 1.0 - xs)
    a_pieces = []
    a0_pieces = []
    for i in range(len(xs)):
        lo, hi = max(tau[i], 0.0), min(tau[i + 1], horizon)
        if hi <= lo:
            continue
        if in_ia[i]:
            a_pieces.append((lo, hi))
        if dist0[i] <= a0_radius:
            lo0 = max(tau[i] + height_cutoff, lo)
            if hi > lo0:
                a0_pieces.append((lo0, hi))
    A = _merge_intervals_loop(a_pieces)
    A0 = _merge_intervals_loop(a0_pieces)
    B = _subtract([(0.0, horizon)], A)
    excess = _subtract(A, A0)
    excess_measure = sum(b - a for a, b in excess)
    return ABReport(A=A, A0=A0, B=B, p1=len(A) <= 1, p2=len(A0) <= 1,
                    p3=len(excess) <= 2, a_measure=sum(b - a for a, b in A),
                    a0_measure=sum(b - a for a, b in A0),
                    excess_measure=excess_measure,
                    excess_ratio=excess_measure / horizon)


def _bits(intervals):
    """The endpoints as raw float64 bytes, so -0.0 and 0.0 differ."""
    return np.asarray(intervals, dtype=np.float64).tobytes()


@st.composite
def _sorted_pieces(draw):
    """Pieces sorted by start, some empty, some starting within a few 1e-9
    of the end before them."""
    near = st.sampled_from([-0.5, 0.0, 5e-10, 1e-9, 1.5e-9, 2e-9])
    steps = draw(st.lists(st.tuples(near | st.floats(-1.0, 1.0),
                                    st.sampled_from([-1.0, 0.0, 1e-10])
                                    | st.floats(-1.0, 3.0)), max_size=30))
    lo, hi, out = 0.0, 0.0, []
    for gap, length in steps:
        lo = max(lo, hi + gap)
        hi = lo + length
        out.append((lo, hi))
    return out


@settings(max_examples=200, deadline=None)
@given(pieces=_sorted_pieces())
def test_union_matches_merge_loop(pieces):
    lo = np.array([a for a, _ in pieces], dtype=np.float64)
    hi = np.array([b for _, b in pieces], dtype=np.float64)
    got = _union(lo, hi)
    ref = _merge_intervals_loop(pieces)
    assert got == ref
    assert _bits(got) == _bits(ref)


VISIT_ALPHAS = {"scaled": SCALED, "golden": GOLDEN}


# starts inside the core radius 0.25 / q_{n+1} (golden: 0.05, scaled: 3.4e-4)
@example(name="golden", n=3, x=0.0125, frac=0.5, horizon=40.0, delta=0.9,
         cutoff=None, core=None)
@example(name="scaled", n=3, x=1e-4, frac=0.3, horizon=300.0, delta=0.9,
         cutoff=None, core=None)
# horizons that end inside the first fiber, below and above height 1
@example(name="golden", n=3, x=0.5, frac=0.2, horizon=0.05, delta=0.9,
         cutoff=None, core=0.6)
@example(name="scaled", n=4, x=0.003, frac=0.0, horizon=2.0, delta=0.5,
         cutoff=0.5, core=0.01)
@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(VISIT_ALPHAS)), n=st.sampled_from([3, 4]),
       x=st.floats(1e-6, 1.0 - 1e-6), frac=st.floats(0.0, 0.99),
       horizon=st.floats(1e-3, 2000.0), delta=st.floats(0.05, 0.9),
       cutoff=st.none() | st.floats(0.0, 10.0),
       core=st.none() | st.floats(1e-4, 0.6))
def test_ab_decomposition_matches_fiber_loop(name, n, x, frac, horizon, delta,
                                             cutoff, core):
    alpha = VISIT_ALPHAS[name]
    p = FlowPoint(x, frac * POWER(x))
    got = ab_decomposition(POWER, alpha, p, horizon, n, delta, cutoff, core)
    ref = _ab_decomposition_loop(POWER, alpha, p, horizon, n, delta, cutoff, core)
    assert got == ref
    for field in ("A", "A0", "B"):
        assert _bits(getattr(got, field)) == _bits(getattr(ref, field))


# fewer fibers than q_n: a horizon inside the first fiber (golden q_4 = 5)
# and about 5 fibers against the scaled q_4 = 734
@example(name="golden", n=4, x=0.3, frac=0.1, horizon=0.01, delta=0.5)
@example(name="scaled", n=4, x=0.7, frac=0.0, horizon=5.0, delta=0.05)
@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(VISIT_ALPHAS)), n=st.integers(1, 4),
       x=st.floats(1e-6, 1.0 - 1e-6), frac=st.floats(0.0, 0.99),
       horizon=st.floats(1e-3, 3000.0), delta=st.floats(0.05, 0.9))
def test_window_hits_match_nearest_center(name, n, x, frac, horizon, delta):
    # fiber k is in I_A when some center -i alpha, i < q_n, is within
    # q_n^(-1-delta) of its base: the window count against the nearest
    # center of the sorted centers
    alpha = VISIT_ALPHAS[name]
    p = FlowPoint(x, frac * POWER(x))
    qn, radius = alpha.q(n), alpha.q(n) ** (-1.0 - delta)
    xs = _crossings(POWER, alpha, p, [horizon])[0]
    got, dist0 = _window_hits(alpha, p.x, xs, qn, radius)
    centers = _offsets(alpha, qn, backward=True)
    assert np.array_equal(got, _min_dist_to_centers(xs, centers) <= radius)
    assert np.array_equal(dist0, np.minimum(xs, 1.0 - xs))


class _Affine:
    """psi(x, s) = c cos(2 pi x) + a + b s, whose fiber integrals
    (c cos 2 pi x + a)(hi - lo) + b (hi^2 - lo^2) / 2 are exact."""

    def __init__(self, c, a, b):
        self.c, self.a, self.b = c, a, b

    def __call__(self, x, s):
        return (self.c * np.cos(2 * np.pi * np.asarray(x)) + self.a
                + self.b * np.asarray(s, dtype=float))

    def fiber_integral_many(self, x, lo, hi):
        x, lo, hi = (np.asarray(v, dtype=float) for v in (x, lo, hi))
        return ((self.c * np.cos(2 * np.pi * x) + self.a) * (hi - lo)
                + self.b * (hi ** 2 - lo ** 2) / 2)

    def whole_fiber_integral_many(self, x, f):
        return self.fiber_integral_many(x, 0.0, f)


def test_time_integral_constant():
    psi = _Affine(0.0, 2.0, 0.0)
    got = time_integral(POWER, GOLDEN, psi, FlowPoint(0.3, 0.1), 37.0)
    assert abs(got - 74.0) < 1e-6


def test_time_integral_single_fiber():
    psi = _Affine(0.0, 0.0, 1.0)
    got = time_integral(UNIT, GOLDEN, psi, FlowPoint(0.3, 0.0), 0.6)
    assert abs(got - 0.18) < 1e-10


def test_time_integral_matches_riemann():
    psi = _Affine(1.0, 0.0, 1.0)
    p = FlowPoint(0.27, 0.05)
    T = 12.0
    got = time_integral(POWER, GOLDEN, psi, p, T)
    ts = (np.arange(120000) + 0.5) * (T / 120000)
    vals = [psi(q.endpoint.x, q.endpoint.s)
            for q in (evaluate(POWER, GOLDEN, p, float(t)) for t in ts[::60])]
    riemann = float(np.mean(vals)) * T
    assert abs(got - riemann) < 0.05 * (1.0 + abs(got))


def test_time_integral_array_matches_scalar_calls():
    from primeflow.observables import TowerObservable

    psi = TowerObservable(POWER, psi_inf=0.3)
    p = FlowPoint(0.41, 0.2)
    # T = 0, T inside the first fiber either way, and many fibers both ways
    Ts = np.array([0.0, 0.05, -0.1, 3.7, -3.7, 41.0, -41.0, 250.5, -250.5])
    many = time_integral(POWER, GOLDEN, psi, p, Ts)
    assert many.shape == Ts.shape and many[0] == 0.0
    for T, got in zip(Ts, many):
        one = time_integral(POWER, GOLDEN, psi, p, float(T))
        assert isinstance(one, float)
        assert abs(got - one) <= 1e-12 * max(1.0, abs(one))
    # inside the first fiber the integral is one fiber integral
    for T in (0.05, -0.1):
        lo, hi = sorted((p.s, p.s + T))
        direct = float(psi.fiber_integral_many(p.x, lo, hi)) * np.sign(T)
        assert abs(time_integral(POWER, GOLDEN, psi, p, T) - direct) < 1e-14
    # signed: int_{-T}^{T} is the forward integral from T_{-T} p
    for T in (3.7, 41.0, 250.5):
        back = evaluate(POWER, GOLDEN, p, -T).endpoint
        whole = time_integral(POWER, GOLDEN, psi, back, 2.0 * T)
        split = many[Ts == T][0] - many[Ts == -T][0]
        assert abs(whole - split) < 1e-8 * (1.0 + abs(whole))


def test_time_integral_quadrature_matches_closed_form():
    # the closed-form fiber integrals against a midpoint rule along the orbit
    from primeflow.observables import TowerObservable

    psi = TowerObservable(POWER, psi_inf=0.3)
    p = FlowPoint(0.27, 0.05)
    Ts = np.array([-30.0, -0.01, 0.01, 12.0, 30.0])
    exact = time_integral(POWER, GOLDEN, psi, p, Ts)
    M = 400000
    for T, got in zip(Ts, exact):
        ts = (np.arange(M) + 0.5) * (T / M)
        xs, ss, _ = evaluate_times(POWER, GOLDEN, p, ts)
        assert abs(got - float(np.mean(psi(xs, ss))) * T) < 1e-9
