import math
import random
import re
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from primeflow.flow import (
    ABReport,
    FlowPoint,
    PrecisionError,
    _SUM_BLOCK,
    _covering_values,
    _crossings,
    _offsets,
    _prefix_sums,
    _roof_values,
    _union,
    _window_hits,
    ab_decomposition,
    evaluate,
    evaluate_naive,
    evaluate_times,
    time_integral,
)
from primeflow.config import ExperimentConfig
from primeflow.experiments import run_experiment
from primeflow.roofs import FourierRoof, PowerRoof, SingularityError
from primeflow.rotation import construct_alpha, frac, from_partial_quotients

from helpers import tower_metric

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
                            for q, r, a in zip(qs, mods, args)])
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
# s + t rounds onto a fiber boundary that the exact sum falls short of
@example(case=(UNIT, GOLDEN, FlowPoint(0.01, 0.01)), t=0.99)
@example(case=(UNIT, GOLDEN, FlowPoint(0.01, 0.01)), t=-1.01)
def test_evaluate_matches_naive_random_roofs(case, t):
    roof, alpha, p = case
    a = evaluate(roof, alpha, p, t)
    b = evaluate_naive(roof, alpha, p, t)
    assert a.hits == b.hits
    assert tower_metric(a.endpoint, b.endpoint) <= 1e-9


def test_rounded_target_on_a_fiber_boundary():
    # 0.01 + 0.99 and 0.01 - 1.01 round to the roof sums 1 and -1 of the
    # unit roof, but the exact sums lie just short of them: the flow stays
    # below the top of fiber 0, or goes on to the top of fiber -2
    p = FlowPoint(0.01, 0.01)
    up = evaluate(UNIT, GOLDEN, p, 0.99)
    top = math.nextafter(1.0, 0.0)
    assert (up.hits, up.endpoint) == (0, FlowPoint(0.01, top))
    down = evaluate(UNIT, GOLDEN, p, -1.01)
    assert down.hits == -2
    assert down.endpoint.s == top
    times = evaluate_times(UNIT, GOLDEN, p, [0.99, -1.01])
    assert list(times[2]) == [0, -2]


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


@pytest.mark.parametrize("shift", [1.0, -1.0])
@pytest.mark.parametrize("backward", [False, True])
def test_walk_checks_the_defining_inclusion(backward, shift, monkeypatch):
    # partial sums S off by a unit put the heights s + t - S_N(f) about a
    # unit outside [0, f(x')): evaluate_times raises instead of returning
    # them
    import primeflow.flow as flow_module

    crossings = flow_module._crossings

    def shifted(*args):
        xs, fs, S, n = crossings(*args)
        return xs, fs, S + shift * (np.arange(S.size) > 0), n

    p = FlowPoint(0.37, 0.05)
    times = np.linspace(1.0, 3000.0, 50) * (-1.0 if backward else 1.0)
    evaluate_times(POWER, GOLDEN, p, times)
    monkeypatch.setattr(flow_module, "_crossings", shifted)
    with pytest.raises(PrecisionError, match="defining inclusion violated"):
        evaluate_times(POWER, GOLDEN, p, times)


@pytest.mark.parametrize("backward", [False, True])
@pytest.mark.parametrize("start", [FlowPoint(0.37, 0.05), FlowPoint(0.81, 0.3)])
def test_heights_at_fiber_tops_stay_in_the_tower(start, backward):
    # the times t = S_k - s that reach fiber k's bottom (-S_k - s backward)
    # and their float neighbours, k = 1..2000: s + t - S_N rounds to f(x')
    # at some of them, and the walk clamps that height into [0, f(x')); the
    # scalar evaluate is the same walk, so it equals evaluate_times bit for
    # bit
    _, _, S, _ = _crossings(POWER, GOLDEN, start,
                            [-3000.0 if backward else 3000.0], backward)
    base = (-S[1:2001] if backward else S[1:2001]) - start.s
    times = np.concatenate((base, np.nextafter(base, -np.inf),
                            np.nextafter(base, np.inf)))
    xs, ss, Ns = evaluate_times(POWER, GOLDEN, start, times)
    assert np.all((ss >= 0.0) & (ss < POWER(xs)))
    for t, x, s, N in zip(times.tolist(), xs, ss, Ns):
        step = evaluate(POWER, GOLDEN, start, t)
        assert (step.endpoint.x, step.endpoint.s, step.hits) == (x, s, N)


def test_covering_values_backward():
    # the backward walk is sized on {x - i alpha}, not the forward orbit:
    # fibers start at 0, x itself, and the roofs crossed from fiber 1 on
    x, span = 0.37, 5000.0
    bases, vals = _covering_values(POWER, SCALED, x, span, backward=True)
    pts = [float((Fraction(x) - i * SCALED.value) % 1)
           for i in range(len(vals))]
    assert bases[0] == x
    assert np.allclose(bases, pts, rtol=0.0, atol=1e-12)
    assert np.allclose(vals, POWER(np.array(pts)), rtol=1e-9, atol=0.0)
    assert np.array_equal(vals, POWER(bases))
    assert np.sum(vals[1:-2]) >= span


@pytest.mark.parametrize("backward", [False, True])
def test_crossing_bases_are_the_offset_bases(backward):
    # the bases the roof values were taken on are those of (x + offsets) % 1
    p, t = FlowPoint(0.37, 0.05), -3000.0 if backward else 3000.0
    xs, _, _, n = _crossings(POWER, SCALED, p, [t], backward)
    offs = _offsets(SCALED, int(n[0]) + 1, backward)
    assert np.array_equal(xs, (p.x + offs) % 1.0)


def _exact_prefix_sums(v):
    """The prefix sums of v, each correctly rounded from the exact sum: every
    float is an integer over 2^E, summed as Python ints."""
    ratios = [x.as_integer_ratio() for x in v.tolist()]
    E = max((d.bit_length() - 1 for _, d in ratios), default=0)
    ints = [m << (E - d.bit_length() + 1) for m, d in ratios]
    return np.array([a / (1 << E) for a in accumulate(ints, initial=0)])


def _check_prefix_sums(v):
    # the docstring's bound: (B - 1) eps A_i from the local sums, one
    # rounding for the start (at most A_i) and one for the final addition
    got, exact = _prefix_sums(v), _exact_prefix_sums(v)
    A = _exact_prefix_sums(np.abs(v))
    eps = np.finfo(np.float64).eps
    bound = (_SUM_BLOCK - 1) * eps * A + eps * (A + np.abs(exact)) / 2
    assert got.shape == (len(v) + 1,) and got[0] == 0.0
    assert np.all(np.abs(got - exact) <= bound)
    return got, exact


def test_prefix_sums_of_a_long_roof_orbit():
    # the power roof on section_claims' alpha over ~2.6e5 fibers, about a
    # section_claims walk: a plain float64 cumsum is 124 ulps off here and
    # breaks the bound; the blocked sum stays within 2 ulps (a long-double
    # cumsum: 1)
    v = _roof_values(POWER, SCALED, 0.3, 0, 2 ** 18 + 3)[1]
    got, exact = _check_prefix_sums(v)
    assert np.max(np.abs(got - exact)[1:] / np.spacing(exact[1:])) <= 2.0


@pytest.mark.parametrize("n", [0, 1, _SUM_BLOCK - 1, _SUM_BLOCK,
                               _SUM_BLOCK + 1, 40 * _SUM_BLOCK + 7, 100_000])
def test_prefix_sums_of_signed_values(n):
    rng = np.random.default_rng(n)
    v = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
    _check_prefix_sums(v)
    _check_prefix_sums(np.abs(v))


def test_prefix_sums_keep_non_finite_values():
    v = np.ones(3 * _SUM_BLOCK)
    v[_SUM_BLOCK + 2] = np.inf
    got = _prefix_sums(v)
    assert np.array_equal(got[:_SUM_BLOCK + 3], np.arange(_SUM_BLOCK + 3.0))
    assert np.all(got[_SUM_BLOCK + 3:] == np.inf)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_naive_rejects_non_finite_time(t):
    # the stepping loop never ends for a time no fiber can hold
    with pytest.raises(ValueError, match=f"t must be finite, got {t}"):
        evaluate_naive(POWER, GOLDEN, FlowPoint(0.7, 0.3), t)


class _CountedRoof:
    """A roof that records the size of every evaluation."""

    def __init__(self, roof):
        self.roof, self.sizes = roof, []

    def __call__(self, x):
        self.sizes.append(np.size(x))
        return self.roof(x)


@pytest.mark.parametrize("t", [1500.0, -1500.0])
def test_naive_reads_the_roofs_in_growing_blocks(t):
    # about 1500 fibers: blocks of 256, 1024 and 4096, and no scalar call
    roof = _CountedRoof(POWER)
    p = FlowPoint(0.3, 0.1)
    got = evaluate_naive(roof, GOLDEN, p, t)
    assert roof.sizes == [256, 1024, 4096]
    want = evaluate(POWER, GOLDEN, p, t)
    assert got.hits == want.hits
    assert tower_metric(got.endpoint, want.endpoint) <= 1e-9


def test_naive_raises_only_at_a_singular_fiber_it_reaches():
    # fiber j of x = 1 - (j alpha mod 1) sits on the singularity, inside the
    # first block: a walk that stops before it returns, one past it raises.
    # The fast paths decide as the oracle does, though the roofs they read
    # cover fibers past j.
    o = GOLDEN.orbit(200)
    j = int(np.flatnonzero(o[20:] >= 0.5)[0]) + 20
    x = 1.0 - float(o[j])
    assert frac(x + o[j]) == 0.0
    p = FlowPoint(x, 0.0)
    step = evaluate_naive(POWER, GOLDEN, p, 3.0)
    assert 0 < step.hits < j
    with pytest.raises(SingularityError):
        evaluate_naive(POWER, GOLDEN, p, 10.0 * j)
    times = [4.0, 8.0, 15.0, -4.0, -8.0, -15.0]
    xs, ss, Ns = evaluate_times(POWER, GOLDEN, p, times)
    for t, x, s, N in zip(times, xs, ss, Ns):
        want = evaluate_naive(POWER, GOLDEN, p, t)
        got = evaluate(POWER, GOLDEN, p, t)
        assert got.hits == N == want.hits
        assert (got.endpoint.x, got.endpoint.s) == (x, s)
        assert abs(x - want.endpoint.x) < 1e-12
        assert abs(s - want.endpoint.s) < 1e-12
    msg = f"N = {j} at time {10.0 * j}$"
    with pytest.raises(SingularityError, match=msg):
        evaluate(POWER, GOLDEN, p, 10.0 * j)
    with pytest.raises(SingularityError, match=msg):
        evaluate_times(POWER, GOLDEN, p, [4.0, 10.0 * j, -4.0])


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


# Reference: the per-fiber loop the visit sets were first written with, and
# the pairwise interval subtraction it takes B and A minus A_0 from.


def _subtract(base, holes):
    out = []
    for a, b in base:
        pieces = [(a, b)]
        for ha, hb in holes:
            nxt = []
            for pa, pb in pieces:
                if hb <= pa or ha >= pb:
                    nxt.append((pa, pb))
                    continue
                if ha > pa:
                    nxt.append((pa, ha))
                if hb < pb:
                    nxt.append((hb, pb))
            pieces = nxt
        out.extend(pieces)
    return [(a, b) for a, b in out if b - a > 1e-12]


def _merge_intervals_loop(pieces):
    merged = []
    for a, b in pieces:
        if b <= a:
            continue
        if merged and a <= merged[-1][1]:
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


def _visit_parameters(alpha, horizon, n, delta, height_cutoff, a0_radius):
    """q_n, the I_A radius, and the cutoff and core radius with
    ab_decomposition's defaults filled in."""
    qn = alpha.q(n)
    if height_cutoff is None:
        height_cutoff = math.log(horizon)
    if a0_radius is None:
        a0_radius = 0.25 / alpha.q(n + 1) if n + 1 <= alpha.depth else 0.25 / alpha._virtual_q
    return qn, qn ** (-1.0 - delta), height_cutoff, a0_radius


def _ab_decomposition_loop(roof, alpha, p, horizon, n, delta,
                           height_cutoff=None, a0_radius=None):
    qn, ia_radius, height_cutoff, a0_radius = _visit_parameters(
        alpha, horizon, n, delta, height_cutoff, a0_radius)
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


def _random_decompositions(name, gamma, count):
    """count random ab_decomposition arguments on VISIT_ALPHAS[name] and
    PowerRoof(gamma): cutoffs of every scale down to 1e-14, and starts just
    below the roof, which put fiber 1 an ulp after t = 0."""
    alpha, roof = VISIT_ALPHAS[name], PowerRoof(gamma)
    rng = np.random.default_rng([ord(name[0]), int(-10 * gamma)])
    for _ in range(count):
        x = rng.uniform(1e-6, 1.0 - 1e-6)
        s = [rng.uniform(0.0, 0.99) * roof(x),
             np.nextafter(roof(x), 0.0)][rng.integers(2)]
        horizon = 10.0 ** rng.uniform(-3.0, 3.3)
        cutoff = [None, 0.0, rng.uniform(0.0, 10.0),
                  10.0 ** rng.uniform(-14.0, -8.0)][rng.integers(4)]
        core = [None, rng.uniform(1e-4, 0.6),
                10.0 ** rng.uniform(-4.0, -1.0)][rng.integers(3)]
        yield (roof, alpha, FlowPoint(x, float(s)), horizon,
               int(rng.integers(2, 5)), rng.uniform(0.05, 0.9), cutoff, core)


@pytest.mark.parametrize("gamma", [-0.5, -0.3])
@pytest.mark.parametrize("name", sorted(VISIT_ALPHAS))
def test_visit_sets_match_interval_subtraction(name, gamma):
    # B and A minus A_0, read off the fibers, against the pairwise
    # subtraction of the reported A and A_0; a gap of B an ulp short is
    # dropped
    for args in _random_decompositions(name, gamma, 400):
        rep = ab_decomposition(*args)
        horizon = args[3]
        B, excess = _subtract([(0.0, horizon)], rep.A), _subtract(rep.A, rep.A0)
        assert rep.B == B and _bits(rep.B) == _bits(B)
        assert rep.excess_measure == sum(b - a for a, b in excess)
        assert rep.p3 == (len(excess) <= 2)


def _ab_decomposition_all_fibers(roof, alpha, p, horizon, n, delta,
                                 height_cutoff=None, a0_radius=None):
    # ab_decomposition as it read before it selected fibers: tau, lo and hi
    # over every fiber reached, and A minus A_0 cut where A_0 starts
    qn, ia_radius, height_cutoff, a0_radius = _visit_parameters(
        alpha, horizon, n, delta, height_cutoff, a0_radius)
    xs, _, S, _ = _crossings(roof, alpha, p, [horizon])
    tau = S - p.s
    lo, hi = np.maximum(tau[:-1], 0.0), np.minimum(tau[1:], horizon)
    in_ia, dist0 = _window_hits(alpha, p.x, xs, qn, ia_radius)
    core = dist0 <= a0_radius
    A0 = _union(np.maximum(tau[:-1][core] + height_cutoff, lo[core]), hi[core])
    lo, hi = lo[in_ia], hi[in_ia]
    A = _union(lo, hi)
    B = [(a, b) for a, b in zip([0.0] + [b for _, b in A],
                                [a for a, _ in A] + [horizon]) if b - a > 1e-12]
    a0 = np.array(A0 + [(horizon, np.inf)])
    cut = np.clip(a0[np.searchsorted(a0[:, 1], lo, side="right"), 0], lo, hi)
    excess = [(a, b) for a, b in _union(lo, cut) if b - a > 1e-12]
    excess_measure = sum(b - a for a, b in excess)
    return ABReport(A=A, A0=A0, B=B, p1=len(A) <= 1, p2=len(A0) <= 1,
                    p3=len(excess) <= 2, a_measure=sum(b - a for a, b in A),
                    a0_measure=sum(b - a for a, b in A0),
                    excess_measure=excess_measure,
                    excess_ratio=excess_measure / horizon)


@pytest.mark.parametrize("gamma", [-0.5, -0.3])
@pytest.mark.parametrize("name", sorted(VISIT_ALPHAS))
def test_ab_decomposition_on_selected_fibers_matches_all_fibers(name, gamma):
    # reading tau, lo and hi at the I_A and core fibers only, and cutting
    # each I_A fiber at its core height, gives the all-fiber answers bit for
    # bit
    for args in _random_decompositions(name, gamma, 200):
        got, ref = ab_decomposition(*args), _ab_decomposition_all_fibers(*args)
        assert got == ref
        for field in ("A", "A0", "B"):
            assert _bits(getattr(got, field)) == _bits(getattr(ref, field))
        assert _bits([got.a_measure, got.a0_measure, got.excess_measure]) \
            == _bits([ref.a_measure, ref.a0_measure, ref.excess_measure])


def test_core_set_does_not_depend_on_a_merge_tolerance():
    # a cutoff of 1e-10 leaves a sliver at the bottom of each core fiber as
    # real as one of 2e-9: both report A_0 as the same 42 intervals
    p = FlowPoint(0.41, 0.02)
    fine, coarse = (ab_decomposition(POWER, GOLDEN, p, 40.0, 3, 0.9, cutoff, 0.6)
                    for cutoff in (1e-10, 2e-9))
    assert len(fine.A0) == len(coarse.A0) == 42
    assert fine.p2 == coarse.p2 is False
    assert [b for _, b in fine.A0] == [b for _, b in coarse.A0]
    assert all(0.0 <= b - a <= 2e-9 for (a, _), (b, _) in zip(fine.A0, coarse.A0))


def test_section_claims_walk_sized_by_its_shortfall(monkeypatch):
    # the covering walk grows by the missing span over the roof's mean, not
    # by an eighth of the walk: section_claims (samples 4) reaches the same
    # fibers with under 945,000 roof values (1,023,834 before)
    import primeflow.flow as flow_module

    roof_values, crossings = flow_module._roof_values, flow_module._crossings
    evaluated, reached = [], []

    def counted_roofs(roof, alpha, x, lo, hi, backward=False):
        evaluated.append(hi - lo)
        return roof_values(roof, alpha, x, lo, hi, backward)

    def counted_fibers(*args):
        out = crossings(*args)
        reached.append(len(out[0]))
        return out

    monkeypatch.setattr(flow_module, "_roof_values", counted_roofs)
    monkeypatch.setattr(flow_module, "_crossings", counted_fibers)
    run_experiment(ExperimentConfig("section_claims", params={"samples": 4}))
    assert reached == [234_931, 235_340, 232_178, 235_945]
    assert sum(evaluated) <= 945_000


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
    """psi(x, s) = c cos(2 pi x) + a + b s, whose fiber integrals from the
    bottom, (c cos 2 pi x + a) h + b h^2 / 2, are exact."""

    def __init__(self, c, a, b):
        self.c, self.a, self.b = c, a, b

    def __call__(self, x, s):
        return (self.c * np.cos(2 * np.pi * np.asarray(x)) + self.a
                + self.b * np.asarray(s, dtype=float))

    def fiber_integral_many(self, x, h):
        x, h = (np.asarray(v, dtype=float) for v in (x, h))
        return (self.c * np.cos(2 * np.pi * x) + self.a) * h + self.b * h ** 2 / 2

    def whole_fiber_integral_many(self, x, f):
        return self.fiber_integral_many(x, f)


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
        direct = float(psi.fiber_integral_many(p.x, p.s + T)
                       - psi.fiber_integral_many(p.x, p.s))
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
