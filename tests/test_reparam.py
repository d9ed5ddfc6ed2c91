import math
import random
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from primeflow import reparam
from primeflow.observables import TorusObservable
from primeflow.reparam import (
    ReparamFlow,
    TorusPoint,
    katok_ratios,
    make_timechange,
    rigidity_distance,
    roof_sum_deviation,
)
from primeflow.roofs import FourierRoof, TimeChange
from primeflow.rotation import (
    circle_distance,
    construct_alpha,
    from_partial_quotients,
)

from helpers import CoboundaryPair

GOLDEN = from_partial_quotients([1] * 12)
SCALED = construct_alpha("scaled_D", growth=lambda q: q ** 4, depth=4, seed=2)


@pytest.fixture(scope="module")
def flow():
    return ReparamFlow(SCALED, make_timechange(SCALED))


def test_cocycle_trivial():
    fl = ReparamFlow(GOLDEN, TimeChange([(1, 0, 0.0)]))
    x = TorusPoint(0.2, 0.7)
    assert fl.cocycle_many(0.0, x.x1, x.x2) == 0.0
    assert abs(fl.cocycle_many(3.7, x.x1, x.x2) - 3.7) < 1e-12


def test_cocycle_closed_form():
    # v = 1 + (1/2) cos(2 pi x2)
    fl = ReparamFlow(GOLDEN, TimeChange([(0, 1, 0.5)]))
    x = TorusPoint(0.2, 0.7)
    t = 1.3
    expect = t + (1.0 / (4.0 * math.pi)) * (
        math.sin(2 * math.pi * (0.7 + t)) - math.sin(2 * math.pi * 0.7)
    )
    assert abs(fl.cocycle_many(t, x.x1, x.x2) - expect) < 1e-12


def test_cocycle_matches_quadrature(flow):
    x = TorusPoint(0.31, 0.64)
    t = 2.4
    ss = (np.arange(200000) + 0.5) * (t / 200000)
    a = SCALED.float_value
    vals = flow.v((x.x1 + ss * a) % 1.0, (x.x2 + ss) % 1.0)
    riemann = float(np.mean(vals)) * t
    assert abs(flow.cocycle_many(t, x.x1, x.x2) - riemann) < 1e-6


def test_time_inverse_identity(flow):
    rng = random.Random(4)
    for _ in range(1000):
        x = TorusPoint(rng.random(), rng.random())
        t = rng.uniform(-200.0, 200.0)
        u = flow.time_inverse_many(t, x.x1, x.x2)
        assert abs(flow.cocycle_many(u, x.x1, x.x2) - t) <= 1e-9 * (1.0 + abs(t))


def test_time_inverse_trivia(flow):
    x = TorusPoint(0.4, 0.9)
    assert flow.time_inverse_many(0.0, x.x1, x.x2) == 0.0
    fl = ReparamFlow(GOLDEN, TimeChange([(1, 0, 0.0)]))
    assert abs(fl.time_inverse_many(2.3, x.x1, x.x2) - 2.3) < 1e-12


def test_evaluate_linear_flow_limit():
    fl = ReparamFlow(GOLDEN, TimeChange([(1, 0, 0.0)]))
    x = TorusPoint(0.2, 0.5)
    t = 3.3
    x1, x2 = fl.evaluate_many(t, x.x1, x.x2)
    assert abs(x1 - (0.2 + t * GOLDEN.float_value) % 1.0) < 1e-10
    assert abs(x2 - (0.5 + t) % 1.0) < 1e-10


def test_evaluate_group_property(flow):
    rng = random.Random(5)
    for _ in range(300):
        x = TorusPoint(rng.random(), rng.random())
        t1 = rng.uniform(-30.0, 30.0)
        t2 = rng.uniform(-30.0, 30.0)
        one = flow.evaluate_many(t1 + t2, x.x1, x.x2)
        two = flow.evaluate_many(t2, *flow.evaluate_many(t1, x.x1, x.x2))
        assert (circle_distance(one[0] - two[0])
                + circle_distance(one[1] - two[1])) <= 1e-8


def test_evaluate_stays_on_linear_orbit(flow):
    # (x1' - x1)/alpha = x2' - x2 mod 1 up to the same u
    x = TorusPoint(0.37, 0.11)
    t = 7.7
    u = flow.time_inverse_many(t, x.x1, x.x2)
    x1, x2 = flow.evaluate_many(t, x.x1, x.x2)
    a = SCALED.float_value
    assert abs((x1 - (x.x1 + u * a)) % 1.0) < 1e-9
    assert abs((x2 - (x.x2 + u)) % 1.0) < 1e-9


def _bilinear_bin(x1, x2, w, grid):
    g1 = x1 * grid - 0.5
    g2 = x2 * grid - 0.5
    i1 = np.floor(g1).astype(int)
    i2 = np.floor(g2).astype(int)
    f1 = g1 - i1
    f2 = g2 - i2
    H = np.zeros((grid, grid))
    for a, wa in ((0, 1.0 - f1), (1, f1)):
        for b, wb in ((0, 1.0 - f2), (1, f2)):
            np.add.at(H, ((i1 + a) % grid, (i2 + b) % grid), w * wa * wb)
    return H


def test_invariant_measure_pushforward(flow):
    # push mu = v dLeb through T_1 on a fine sample; cell weights on a
    # 128^2 partition should be preserved within 1% total variation
    grid = 128
    fine = 1024
    xs = (np.arange(fine) + 0.5) / fine
    X1, X2 = np.meshgrid(xs, xs)
    x1, x2 = X1.ravel(), X2.ravel()
    w = flow.v(x1, x2)
    w = w / w.sum()
    direct = _bilinear_bin(x1, x2, w, grid)
    y1, y2 = flow.evaluate_many(1.0, x1, x2)
    pushed = _bilinear_bin(y1, y2, w, grid)
    tv = 0.5 * np.abs(direct - pushed).sum()
    assert tv < 0.01


def test_coboundary_single_term(flow):
    g = lambda x1, x2: np.cos(2 * np.pi * np.asarray(x1))
    pair = CoboundaryPair(flow, g, 1)
    x1 = np.array([0.1, 0.5, 0.73])
    x2 = np.array([0.2, 0.9, 0.31])
    y1, y2 = flow.evaluate_many(1.0, x1, x2)
    assert np.allclose(pair.psi(x1, x2), g(y1, y2) - g(x1, x2), atol=1e-10)
    assert np.allclose(pair.h(x1, x2), -g(x1, x2), atol=1e-12)


def test_coboundary_zero_function(flow):
    g = lambda x1, x2: np.zeros_like(np.asarray(x1, dtype=float))
    pair = CoboundaryPair(flow, g, 5)
    assert np.allclose(pair.psi(np.array([0.3]), np.array([0.4])), 0.0)


def test_coboundary_telescoping(flow):
    # S_M(psi) = h - h o T_1^M exactly, so it is bounded by 2 sup|h|
    g = lambda x1, x2: np.cos(2 * np.pi * np.asarray(x1))
    N = 20
    pair = CoboundaryPair(flow, g, N)
    x1 = np.array([0.17, 0.62])
    x2 = np.array([0.44, 0.05])
    h0 = pair.h(x1, x2)
    S = np.zeros_like(x1)
    c1, c2 = x1, x2
    for _ in range(400):
        S += pair.psi(c1, c2)
        c1, c2 = flow.evaluate_many(1.0, c1, c2)
    hM = pair.h(c1, c2)
    assert np.allclose(S, h0 - hM, atol=1e-6)
    # sup|h| <= N-weighted sup|g| = (N+1)/2 sup|g|
    assert np.max(np.abs(S)) <= 2.0 * (N + 1) / 2.0 + 1e-9


def test_coboundary_certificate_improves(flow):
    # sup over a grid of |psi + g| = |(1/N) sum g o T^n|: unique ergodicity
    # drives it to 0 as N grows
    g = lambda x1, x2: np.cos(2 * np.pi * np.asarray(x1))
    xs = (np.arange(32) + 0.5) / 32
    X1, X2 = (X.ravel() for X in np.meshgrid(xs, xs))
    small, large = (np.max(np.abs(CoboundaryPair(flow, g, N).psi(X1, X2)
                                  + g(X1, X2))) for N in (10, 100))
    assert large < small


def test_katok_single_harmonic_ratio2(flow):
    for r in katok_ratios(flow):
        assert r.ratio2 == 1.0
        assert r.ratio2_tail == math.inf


def test_katok_ratio1_band_floor():
    # with |b_{q_n}| at the band floor q_{n+1}^{-2/3}:
    # ratio1 = 2 |beta_n| q_n q_{n+1}^{2/3} <= 2 q_n q_{n+1}^{-1/3}
    alpha = SCALED
    tc_terms = []
    for n in alpha.flags:
        tc_terms.append((alpha.q(n), 0, alpha.q(n + 1) ** (-2.0 / 3.0)))
    fl = ReparamFlow(alpha, TimeChange(tc_terms, alpha))
    for r in katok_ratios(fl):
        n = r.level
        assert r.ratio1 <= 2.0 * alpha.q(n) * alpha.q(n + 1) ** (-1.0 / 3.0) + 1e-12


def test_katok_rejects_a_flagged_level_without_its_mode():
    # the time change has no m = 0 mode, so its roof is the constant 1 and
    # fhat(q_1) = 0 at the first flagged level
    alpha = construct_alpha("scaled_C_A", growth=lambda q: q ** 4.0, depth=4,
                            seed=2)
    flow = ReparamFlow(alpha, TimeChange([(2, 1, 0.1)]))
    with pytest.raises(ValueError, match="^flagged frequency q_1 = 2 has "
                       "zero coefficient$"):
        katok_ratios(flow)


def test_katok_multi_harmonic_ratio2():
    alpha = SCALED
    n = 2
    q, q1 = alpha.q(n), alpha.q(n + 1)
    b = q1 ** -0.6
    terms = [(q, 0, b), (2 * q, 0, 0.5 * b), (3 * q, 0, 0.25 * b)]
    fl = ReparamFlow(RotationSingleFlag(alpha, n), TimeChange(terms, None))
    (r,) = katok_ratios(fl)
    assert abs(r.ratio2 - 1.0 / 1.75) < 1e-12
    assert abs(r.ratio2_tail - 1.0 / 0.75) < 1e-12


def RotationSingleFlag(alpha, n):
    from primeflow.rotation import RotationNumber

    return RotationNumber(alpha.quotients, flags=(n,))


def test_rigidity_distance_decay(flow):
    dists = [rigidity_distance(flow, 2, n, TorusPoint(0.3, 0.7)).distance
             for n in (1, 2, 3)]
    roof, alpha = flow.roof(), flow.alpha
    devs = [roof_sum_deviation(roof, alpha, 2 * alpha.q(n), 0.3)
            for n in (1, 2, 3)]
    for a, b in zip(dists, dists[1:]):
        assert b <= a / 3.0
    for a, b in zip(devs, devs[1:]):
        assert b <= a / 3.0


def test_rigidity_time_and_epsilon(flow):
    rep = rigidity_distance(flow, 2, 2, TorusPoint(0.3, 0.7))
    assert rep.time == 2 * SCALED.q(2)
    # u = t + eps really solves V(u) = t
    x = TorusPoint(0.3, 0.7)
    u = flow.time_inverse_many(float(rep.time), x.x1, x.x2)
    assert abs((u - rep.time) - rep.epsilon) < 1e-7


def test_rigidity_epsilon_matches_a_50_digit_solve():
    # eps at t0 = 2 q_n, n = 1..3, on birkhoff_rigidity's flow, against
    # V(t0 + eps) = t0 solved to 50 digits with the exact alpha.  Halley's
    # last step starts from a residual <= 1e-12 and converges cubically, so
    # the float value of V(t0 + eps) - t0 = V_b'(eps) + sum Im(b'_j - b_j)
    # sets the error: the flow's allowance _eval_slope |eps| + _eval_floor
    # covers the start factors, the frequencies and the kernel, each b'_j =
    # b_j e(q_j t0 alpha) adds 8 eps |b_j| (the phase, its 2 pi, the exp and
    # the product) and the sum 1 eps |b_j|; as V' = v >= 1 - sum |c_j|, eps
    # errs by at most that over 1 - sum |c_j|: 2.0e-15 here, against at most
    # 5.8e-18 measured
    mp = pytest.importorskip("mpmath").mp
    alpha = construct_alpha("scaled_C_A", growth=lambda q: q ** 4.0, depth=4,
                            seed=2)
    flow, x = ReparamFlow(alpha, make_timechange(alpha)), TorusPoint(0.3, 0.7)
    sizes = sum(abs(b) for b in flow._start_factors(flow._terms, x.x1, x.x2))
    v_min = 1.0 - sum(abs(c) for _, _, c, _ in flow._terms)
    reps = [rigidity_distance(flow, 2, n, x) for n in (1, 2, 3)]
    with mp.workdps(50):
        _, us = _mp_inverse(mp, flow, x.x1, x.x2, [r.time for r in reps])
        for rep, u in zip(reps, us):
            tol = (flow._eval_slope * abs(rep.epsilon) + flow._eval_floor
                   + 9 * np.finfo(np.float64).eps * sizes) / v_min
            assert float(abs(rep.epsilon - (u - rep.time))) <= tol, rep


def test_rigidity_indices_must_be_integers():
    # on katok_wm's alpha an integral float k or M used to read a phase
    # reduced in float: 8.6e-13 against 2.4e-15, and 1.83e-3 against 9.15e-6
    alpha = construct_alpha("scaled_C_A", growth=lambda q: q ** 4.0, depth=4,
                            seed=2)
    flow = ReparamFlow(alpha, make_timechange(alpha))
    roof, x, M = flow.roof(), TorusPoint(0.3, 0.7), 2 * alpha.q(3)
    with pytest.raises(ValueError, match=r"^k must be an integer, got 2\.0$"):
        rigidity_distance(flow, 2.0, 3, x)
    with pytest.raises(ValueError, match=f"^M must be an integer, got {M}\\.0$"):
        roof_sum_deviation(roof, alpha, float(M), 0.3)
    rep = rigidity_distance(flow, 2, 3, x)
    assert abs(rep.distance - 2.44e-15) < 1e-17
    assert rigidity_distance(flow, np.int64(2), 3, x) == rep
    dev = roof_sum_deviation(roof, alpha, M, 0.3)
    assert abs(dev - 9.152e-6) < 1e-9
    assert roof_sum_deviation(roof, alpha, np.int64(M), 0.3) == dev


def test_roof_sum_deviation_matches_direct():
    alpha = SCALED
    n = 2
    b = alpha.q(n + 1) ** -0.6
    roof = FourierRoof([(alpha.q(n), b)], alpha)
    M = 3 * alpha.q(n)
    x = 0.29
    direct = abs(sum(roof((x + alpha.signed_frac(i)) % 1.0)
                     for i in range(M)) - M)
    assert abs(roof_sum_deviation(roof, alpha, M, x) - direct) < 1e-8
    # roof_from_timechange's roof for a time change with no m = 0 mode: its
    # zero coefficient adds exactly 0
    assert roof_sum_deviation(FourierRoof([(1, 0.0)]), alpha, M, x) == 0.0


def test_resonant_mode_rejected():
    # q_3 alpha - p_3 = -2.05e-20 rounds to 0 in float (a (0, 0) mode is
    # already refused by TimeChange, test_roofs.py)
    q3 = SCALED.q(3)
    mode = (q3, -round(q3 * SCALED.value))
    with pytest.raises(ValueError,
                       match=re.escape(f"mode {mode} is resonant")):
        ReparamFlow(SCALED, TimeChange([(*mode, 0.1)]))


def test_make_timechange_is_a_torus_observable(flow):
    assert isinstance(flow.v, TorusObservable) and flow.v.constant == 1.0


def test_make_timechange_needs_a_flagged_level():
    alpha = from_partial_quotients([1, 1, 1])
    assert alpha.flags == ()
    with pytest.raises(ValueError, match="no flagged levels"):
        make_timechange(alpha)


# -- the cocycle evaluator against the complex-exponential formula ---------

def _reference_cocycle(flow, t, x1, x2):
    """V(t, x) = t + Re sum c e(q x1 + m x2) (e(w t) - 1) / (2 pi i w)."""
    t = np.asarray(t, dtype=np.float64)
    out = t.copy()
    for q, m, c, w in flow._terms:
        base = np.exp(2j * math.pi * (q * np.asarray(x1) + m * np.asarray(x2)))
        E = (np.exp(2j * math.pi * w * t) - 1.0) / (2j * math.pi * w)
        out = out + np.real(c * base * E)
    return out


def _reference_v(flow, u, x1, x2):
    """v along the linear orbit: 1 + Re sum c e(q x1 + m x2 + w u)."""
    out = np.ones_like(np.asarray(u, dtype=np.float64))
    for q, m, c, w in flow._terms:
        out = out + np.real(c * np.exp(2j * math.pi * (q * x1 + m * x2 + w * u)))
    return out


def _relative_residual(flow, u, t, x1, x2):
    return np.abs(_reference_cocycle(flow, u, x1, x2) - t) / (1.0 + np.abs(t))


@st.composite
def random_flows(draw):
    """A ReparamFlow with 1-4 modes, sum |c| <= 0.9 and every |w| >= 0.05."""
    alpha = draw(st.sampled_from([GOLDEN, SCALED]))
    a = alpha.float_value
    terms = []
    budget = 0.9
    for _ in range(draw(st.integers(1, 4))):
        q = draw(st.one_of(st.integers(0, 40), st.integers(0, 90000)))
        m = draw(st.integers(-3, 3))
        assume(abs(q * a + m) >= 0.05)
        r = draw(st.floats(0.0, budget))
        budget -= r
        theta = draw(st.floats(0.0, 2.0 * math.pi))
        terms.append((q, m, r * complex(math.cos(theta), math.sin(theta))))
    return ReparamFlow(alpha, TimeChange(terms))


@st.composite
def times_and_start(draw):
    n = draw(st.integers(1, 40))
    t = np.array(draw(st.lists(
        st.one_of(st.floats(-1e6, 1e6), st.floats(-50.0, 50.0)),
        min_size=n, max_size=n)))
    if draw(st.booleans()):
        x1, x2 = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    else:
        x1, x2 = (np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n,
                                         max_size=n))) for _ in range(2))
    return t, x1, x2


@settings(max_examples=60, deadline=None)
@given(flow=random_flows(), case=times_and_start())
def test_cocycle_many_matches_reference(flow, case):
    t, x1, x2 = case
    got = flow.cocycle_many(t, x1, x2)
    assert got.shape == t.shape
    ref = _reference_cocycle(flow, t, x1, x2)
    assert np.all(np.abs(got - ref) <= 1e-12 * (1.0 + np.abs(t)))
    b = flow._start_factors(flow._terms, x1, x2)
    V, v, _ = flow._cocycle(t, b, derivatives=True)
    assert np.array_equal(V, got)
    # v = V' carries the phase rounding of V times 2 pi w
    k = 2.0 * math.pi * max(abs(w) for *_, w in flow._terms)
    assert np.all(np.abs(v - _reference_v(flow, t, x1, x2))
                  <= 1e-12 * (1.0 + np.abs(t)) * max(1.0, k))


@settings(max_examples=60, deadline=None)
@given(flow=random_flows(), case=times_and_start())
def test_time_inverse_meets_reference_per_point(flow, case):
    t, x1, x2 = case
    u = flow.time_inverse_many(t, x1, x2)
    assert np.all(_relative_residual(flow, u, t, x1, x2) <= 1e-12)


@settings(max_examples=20, deadline=None)
@given(flow=random_flows(),
       xs=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                   min_size=1, max_size=6))
def test_coboundary_array_start_matches_scalar(flow, xs):
    g = lambda x1, x2: np.cos(2 * np.pi * np.asarray(x1)) + np.sin(
        2 * np.pi * np.asarray(x2))
    pair = CoboundaryPair(flow, g, 4)
    x1, x2 = np.array(xs).T
    together = pair.psi(x1, x2)
    alone = [pair.psi(a, b) for a, b in xs]
    assert np.allclose(together, alone, rtol=0.0, atol=1e-12)


# -- time_inverse_many: per-point contract and the bisection fallback -------

def test_time_inverse_checks_a_converged_overshoot():
    # the residual at u = t (5.9e-7) already meets the tolerance, but the
    # Halley step computed there turns the w = 33307 mode by about 1.24 rad
    # and would land at a relative residual of 1.27e-12
    flow = ReparamFlow(SCALED, TimeChange(
        [(70774, 2, 0.48120674116381196 + 0.7494350958445328j), (0, 1, 0j)]))
    t, x1, x2 = np.array([988423.26026158]), 0.64760175, 0.0
    u = flow.time_inverse_many(t, x1, x2)
    assert _relative_residual(flow, u, t, x1, x2)[0] <= 1e-12


def test_time_inverse_per_point_tolerance(flow):
    # one large time in the batch must not loosen the small times' tolerance
    x1, x2 = 0.31, 0.64
    t = np.r_[np.arange(64.0), 1e6]
    u = flow.time_inverse_many(t, x1, x2)
    assert np.all(_relative_residual(flow, u, t, x1, x2) <= 1e-12)
    alone = [flow.time_inverse_many(ti, x1, x2) for ti in t[:64]]
    assert np.array_equal(u[:64], alone)


def test_time_inverse_bisects_only_unconverged(flow, monkeypatch):
    # with one Halley step and a loose tolerance, exactly the times whose
    # starting residual |V(t) - t| misses it fall back to bisection
    x1, x2, tol = 0.31, 0.64, 1e-3
    t = np.linspace(-200.0, 200.0, 161)
    missed = np.abs(flow.cocycle_many(t, x1, x2) - t) > tol * (1.0 + np.abs(t))
    assert 0 < missed.sum() < t.size
    monkeypatch.setattr(reparam, "_TOL", tol)
    full = flow.time_inverse_many(t, x1, x2)
    bisected = []
    bisect = ReparamFlow._bisect

    def spy(self, tb, b):
        bisected.append(tb.copy())
        return bisect(self, tb, b)

    monkeypatch.setattr(reparam, "_MAX_STEPS", 1)
    monkeypatch.setattr(ReparamFlow, "_bisect", spy)
    u = flow.time_inverse_many(t, x1, x2)
    assert np.array_equal(np.concatenate(bisected), t[missed])
    assert np.array_equal(u[~missed], full[~missed])
    assert np.all(_relative_residual(flow, u, t, x1, x2)[missed] <= 1e-9)


# -- the half-angle kernel against libm sin and cos --------------------------

def _libm_cocycle(self, u, b, derivatives=False):
    """The cocycle kernel with one libm sin and one cos per mode: the oracle
    for ReparamFlow._cocycle, which takes both from one tan."""
    V = u.copy()
    if derivatives:
        v = np.ones_like(u)
        V2 = np.zeros_like(u)
    for (_, _, _, w), bk in zip(self._terms, b):
        p = w * u
        p -= np.rint(p)
        p *= 2.0 * math.pi
        s, c = np.sin(p), np.cos(p)
        br, bi = bk.real, bk.imag
        V += br * s + bi * (c - 1.0)
        if derivatives:
            k = 2.0 * math.pi * w
            v += k * (br * c - bi * s)
            V2 -= (k * k) * (br * s + bi * c)
    return (V, v, V2) if derivatives else V


def _exact_phase_times(flow, phases=(0.0, 0.25, -0.25, 0.5, -0.5),
                       turns=(0, 1, 977, 123456)):
    """Times u at which w u is exactly n + p for some mode w, with their
    neighbouring floats."""
    out = []
    for *_, w in flow._terms:
        for n in turns:
            for p in phases:
                u = (n + p) / w
                for _ in range(8):
                    if w * u == n + p:
                        out += [np.nextafter(u, -np.inf), u,
                                np.nextafter(u, np.inf)]
                        break
                    u = np.nextafter(u, np.inf if w * u < n + p else -np.inf)
    return np.array(out)


@pytest.mark.parametrize("scalar_start", [True, False])
def test_cocycle_kernel_matches_libm(flow, scalar_start):
    rng = np.random.default_rng(11)
    exact = _exact_phase_times(flow)
    assert exact.size >= 3 * 5 * len(flow._terms)
    u = np.concatenate((rng.uniform(-1e7, 1e7, 4000), rng.uniform(-5, 5, 500),
                        exact, [0.0]))
    if scalar_start:
        b = flow._start_factors(flow._terms, 0.31, 0.64)
    else:
        b = flow._start_factors(flow._terms, rng.random(u.size),
                                rng.random(u.size))
    got = flow._cocycle(u, b, derivatives=True)
    ref = _libm_cocycle(flow, u, b, derivatives=True)
    assert np.array_equal(flow._cocycle(u, b), got[0])
    eps = np.finfo(float).eps
    for j, (g, r) in enumerate(zip(got, ref)):
        # a few ulps of the identity part (u, 1, 0) plus of each mode's size
        scale = sum(np.abs(bk) * (2.0 * math.pi * abs(w)) ** j
                    for (*_, w), bk in zip(flow._terms, b))
        scale = scale + (np.abs(u), 1.0, 0.0)[j]
        assert np.all(np.abs(g - r) <= 4.0 * eps * scale), j


def test_time_inverse_matches_libm_kernel(flow, monkeypatch):
    from primeflow.primes import build_table

    ps = build_table(10 ** 5).primes.astype(np.float64)
    t = np.concatenate((np.arange(10.0 ** 5 + 1), ps, -ps))
    x1, x2 = 0.31, 0.64  # pnt_reparam's start point, on its flow
    u = flow.time_inverse_many(t, x1, x2)
    monkeypatch.setattr(ReparamFlow, "_cocycle", _libm_cocycle)
    ref = flow.time_inverse_many(t, x1, x2)
    assert np.all(np.abs(u - ref) <= np.spacing(np.abs(ref)))
    V = flow.cocycle_many(u, x1, x2)  # the libm kernel
    assert np.all(np.abs(V - t) <= 1e-12 * (1.0 + np.abs(t)))


def test_time_inverse_takes_tan_not_sin_or_cos(flow, monkeypatch):
    # one Halley step, then bisection: both branches of the solve run
    t = np.linspace(-200.0, 200.0, 161)
    b = flow._start_factors(flow._terms, 0.31, 0.64)
    calls = []
    tan = np.tan

    def spy_tan(*args, **kwargs):
        calls.append("tan")
        return tan(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("the solve called sin or cos")

    monkeypatch.setattr(reparam, "_MAX_STEPS", 1)
    monkeypatch.setattr(np, "tan", spy_tan)
    monkeypatch.setattr(np, "sin", refuse)
    monkeypatch.setattr(np, "cos", refuse)
    bisected = []
    bisect = ReparamFlow._bisect

    def spy_bisect(self, tb, bb):
        bisected.append(tb.size)
        return bisect(self, tb, bb)

    monkeypatch.setattr(ReparamFlow, "_bisect", spy_bisect)
    u = flow._halley(t, b)
    assert calls and bisected
    monkeypatch.undo()
    assert np.all(_relative_residual(flow, u, t, 0.31, 0.64) <= 1e-9)


# -- integer times, from one cold rigidity period per start point -----------

ORBIT_M = 2 * 10 ** 5


def _meets_contract(flow, u, n=None):
    """|V(u_i) - n_i| <= 1e-12 (1 + |n_i|) at every i, n = 0, 1, ... unless
    given, with V from the libm kernel at the start point (0.31, 0.64)."""
    n = np.arange(u.size) if n is None else n
    n = np.asarray(n, dtype=np.float64)
    V = _libm_cocycle(flow, u, flow._start_factors(flow._terms, 0.31, 0.64))
    return bool(np.all(np.abs(V - n) <= 1e-12 * (1.0 + np.abs(n))))


def _near_cold(flow, pts, n):
    """Whether the positions pts at the integer times n lie, on the circle,
    within 8 ulps of max |n| plus 2 ulps of 1 of evaluate_many's at the
    start point (0.31, 0.64): its u errs by a few ulps of |n|, and 1 + alpha
    < 2 carries that to the coordinates."""
    cold = flow.evaluate_many(np.asarray(n, dtype=np.float64), 0.31, 0.64)
    bound = 8.0 * np.spacing(float(np.max(np.abs(n)))) + 2.0 * np.spacing(1.0)
    dist = [np.abs(got - want) for got, want in zip(pts, cold)]
    return all(np.all(np.minimum(d, 1.0 - d) <= bound) for d in dist)


def _spy_cold(monkeypatch):
    """The sizes of the time_inverse_many calls made from here on."""
    sizes, cold = [], ReparamFlow.time_inverse_many
    monkeypatch.setattr(ReparamFlow, "time_inverse_many",
                        lambda self, t, *args: sizes.append(np.size(t))
                        or cold(self, t, *args))
    return sizes


def _centered(flow, n):
    """(k, i) with n = (i - P // 2) + k P and i in [0, P): the whole periods
    and the period table index that the integer time n reads."""
    P = flow._period
    return np.divmod(np.asarray(n, dtype=np.int64) + P // 2, P)


def _shifted_u(flow, n):
    """u(r) + k P, n = r + k P with r = i - P // 2, from a cold solve of the
    centered period at the start point (0.31, 0.64): the u whose position
    the period table gives."""
    P = flow._period
    k, i = _centered(flow, n)
    r = np.arange(P, dtype=np.float64) - P // 2
    return flow.time_inverse_many(r, 0.31, 0.64)[i] + k * P


@pytest.mark.parametrize("P", [2, 3, 83523])
def test_period_split_is_divmod(P):
    # (k, i) = divmod(n + P // 2, P) bit for bit: random n, n = +-P//2 and
    # their neighbours, multiples of P and theirs, and |n| near 2^62
    rng = np.random.default_rng(P)
    h = P // 2
    edges = [v + d for v in (h, -h, 2 ** 62 - 2, -(2 ** 62) + 2)
             for d in (-1, 0, 1)]
    n = np.concatenate((rng.integers(-10 ** 7, 10 ** 7, 10 ** 5),
                        rng.integers(-(2 ** 62) + 1, 2 ** 62, 10 ** 5),
                        np.outer(np.arange(-5, 6), [P]).ravel() + [[-1], [0], [1]],
                        (2 ** 62 - 1) // P * P + np.arange(-3, 3),
                        edges), axis=None).astype(np.int64)
    k, i = reparam._period_split(n, P)
    want_k, want_i = np.divmod(n + h, P)
    assert k.dtype == i.dtype == np.int64
    assert np.array_equal(k, want_k) and np.array_equal(i, want_i)


def test_integer_orbit_period_is_the_first_rigid_denominator(flow):
    # delta(q_n) is 3.4e-2, 7.0e-6 and 1.2e-20 at q_1 = 2, q_2 = 17 and q_3
    assert flow._period == SCALED.q(3) == 83523
    assert flow._drift(SCALED.q(2)) > 1e-12 * (1 + SCALED.q(2) / 2)
    assert flow._drift(SCALED.q(3)) < 1e-19


def test_integer_positions_shift_by_whole_periods(monkeypatch):
    # a faint time change on the golden rotation.  q_10 = 89 fails the
    # period rule, delta = 8.1e-11 > 1e-12 (1 + 89/2), so its table could
    # not be certified; P = q_11 = 144 meets it, delta = 5.0e-11, with P
    # alpha mod 1 = -0.0031, so k periods move x1 by a visible k (P alpha
    # mod 1).  The table is certified and every time -20 P..20 P is read
    # from it at u(r) + k P, which meets the residual contract: its
    # positions lie within the rounding of x + u (alpha, 1) at |u| <= 20 P
    # of the float view at that u
    fl = ReparamFlow(GOLDEN, TimeChange([(1, 0, 1e-8)]))
    P = fl._period
    assert P == GOLDEN.q(11) == 144
    assert fl._drift(GOLDEN.q(10)) > 1e-12 * (1 + GOLDEN.q(10) / 2)
    n = np.arange(-20 * P, 20 * P + 1)
    sizes = _spy_cold(monkeypatch)
    pts = fl._orbit_positions(n, 0.31, 0.64)
    assert sizes == [P]
    monkeypatch.undo()
    u = _shifted_u(fl, n)
    assert _meets_contract(fl, u, n)
    for got, at_u in zip(pts, fl._positions(u, 0.31, 0.64)):
        d = np.abs(got - at_u)
        assert np.all(np.minimum(d, 1.0 - d) <= 8.0 * np.spacing(20.0 * P))
    # x1 moves by k (P alpha mod 1) off the k = 0 entry, x2 not at all
    k, i = _centered(fl, n)
    shift = GOLDEN.signed_frac(P)
    assert -0.0032 < shift < -0.0031
    p1, p2 = fl._period_table(0.31, 0.64)
    d = (pts[0] - p1[i] - k * shift) % 1.0
    assert np.all(np.minimum(d, 1.0 - d) <= 4.0 * np.spacing(20.0))
    assert pts[1].tobytes() == p2[i].tobytes()


def test_integer_orbit_warm_start(monkeypatch):
    # the times from P - P // 2 on read the table at i = (n + P // 2) mod P,
    # k = (n + P // 2) div P periods on: their u(r) + k P meets the residual
    # contract, their positions lie within the cold solve's rounding of
    # evaluate_many's, the times below P - P // 2 are evaluate_many itself,
    # and nothing but the period is solved cold
    fl = ReparamFlow(SCALED, make_timechange(SCALED))
    P = fl._period
    n = np.arange(ORBIT_M + 1)
    sizes = _spy_cold(monkeypatch)
    pts = fl._orbit_positions(n, 0.31, 0.64)
    assert sizes == [P]
    monkeypatch.undo()
    assert _meets_contract(fl, _shifted_u(fl, n))
    assert _near_cold(fl, pts, n)
    h = P - P // 2
    below = fl.evaluate_many(np.arange(h, dtype=np.float64), 0.31, 0.64)
    for got, want in zip(pts, below):
        assert got[:h].tobytes() == want.tobytes()


def test_integer_times_of_either_sign_match_the_cold_solve(monkeypatch):
    # the +- primes up to ORBIT_M: the certified table sends none of them
    # cold, so both calls together solve only the period; each is read at
    # a u that meets the residual contract, and the primes up to P // 2 are
    # the cold solve itself
    from primeflow.primes import build_table

    fl = ReparamFlow(SCALED, make_timechange(SCALED))
    ps = build_table(ORBIT_M).primes.astype(np.int64)
    sizes = _spy_cold(monkeypatch)
    walks = [fl._orbit_positions(n, 0.31, 0.64) for n in (ps, -ps)]
    assert sizes == [fl._period]
    monkeypatch.undo()
    low = ps <= fl._period // 2
    for n, pts in zip((ps, -ps), walks):
        assert _near_cold(fl, pts, n)
        assert _meets_contract(fl, _shifted_u(fl, n), n)
        cold = fl.evaluate_many(n[low].astype(np.float64), 0.31, 0.64)
        for got, want in zip(pts, cold):
            assert got[low].tobytes() == want.tobytes()


def test_integer_times_share_one_period_per_start_point(flow, monkeypatch):
    sizes = _spy_cold(monkeypatch)
    fl = ReparamFlow(SCALED, make_timechange(SCALED))
    n = np.array([5, -7, 10 ** 6, -(10 ** 6)])
    first = fl._orbit_positions(n, 0.31, 0.64)
    again = fl._orbit_positions(n[::-1], 0.31, 0.64)
    for got, want in zip(again, first):
        assert np.array_equal(got, want[::-1])
    # one period, and every time of both calls read from it
    assert sizes == [fl._period]
    fl._orbit_positions(n, 0.31, 0.65)  # another start point: a new period
    assert sizes == [fl._period, fl._period]


def test_integer_orbit_prefixes_are_stable(flow):
    whole = flow._orbit_positions(np.arange(ORBIT_M + 1), 0.31, 0.64)
    for M in (1000, flow._period + 5000):
        prefix = flow._orbit_positions(np.arange(M + 1), 0.31, 0.64)
        for got, want in zip(prefix, whole):
            assert np.array_equal(got, want[:M + 1])
    # a call that reaches P - P // 2 reads the table as a longer one does,
    # and a shorter one is solved cold, which is the table's k = 0 entry:
    # no position depends on the call
    P = flow._period
    h = P - P // 2
    for M in (h - 1, h, P - 1):
        below = flow._orbit_positions(np.arange(M + 1), 0.31, 0.64)
        for got, want in zip(below, whole):
            assert got.tobytes() == want[:M + 1].tobytes()


def test_integer_orbit_without_a_period_is_solved_cold():
    # no q_n meets the period rule on the first flow; on the second P = q_1
    # = 1 meets it, delta = 1.24e-12 <= 1e-12 (1 + 1/2), but its table fails
    # the certificate's delta(P) <= 1e-12 P, so it has no usable period
    none = ReparamFlow(GOLDEN, TimeChange([(2, 1, 0.1)]))
    faint = ReparamFlow(GOLDEN, TimeChange([(1, 0, 2e-12)]))
    assert none._period is None
    assert faint._period == 1 and faint._period_table(0.31, 0.64) is None
    M = 5 * 10 ** 4  # two blocks
    psi, start = TorusObservable(0.0, [(1, 0, 1.0)]), TorusPoint(0.31, 0.64)
    for fl in (none, faint):
        cold = fl.evaluate_many(np.arange(-M, M + 1.0), 0.31, 0.64)
        got = fl._orbit_positions(np.arange(-M, M + 1), 0.31, 0.64)
        # so the walk at integer times gives evaluate_many's positions
        pts, _ = fl.walk(psi, start, np.arange(-M, M + 1), np.array([1.0]))
        for a, b, want in zip(got, pts, cold):
            assert a.tobytes() == b.tobytes() == want.tobytes()


def test_integer_times_below_the_period_are_solved_cold(monkeypatch):
    # P = q_3 = 823,546 here: a call whose max |n| stays below P - P // 2 =
    # 411,773, of either sign, is the cold solve itself and builds no
    # period table; a call that reaches it builds one
    alpha = construct_alpha("scaled_D", growth=lambda q: q ** 3.5, depth=3,
                            seed=3)
    fl = ReparamFlow(alpha, make_timechange(alpha))
    P = fl._period
    assert P == alpha.q(3) == 823546
    h = P - P // 2

    def no_table(self, *args):
        raise AssertionError("a period table was built")
    monkeypatch.setattr(ReparamFlow, "_period_table", no_table)
    for n in (np.arange(1001), np.arange(-1000, 1001),
              np.array([h - 1, 1 - h])):
        cold = fl.evaluate_many(n.astype(np.float64), 0.31, 0.64)
        for got, want in zip(fl._orbit_positions(n, 0.31, 0.64), cold):
            assert got.tobytes() == want.tobytes()
    for n in (h, -h):
        with pytest.raises(AssertionError, match="a period table was built"):
            fl._orbit_positions(np.array([5, n]), 0.31, 0.64)


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint64,
                                   np.float64])
def test_walk_positions_do_not_depend_on_the_time_dtype(flow, dtype):
    # one position rule for every dtype: integral times read the period
    # table once a call reaches the period, whatever their dtype, so int64,
    # int32, uint64 and integral float64 times give the same bits; below P
    # - P // 2 those are evaluate_many's
    P = flow._period
    n = np.concatenate((np.arange(1, 50), np.arange(P - 50, P + 50),
                        [3 * P + 7, 10 ** 6]))
    psi, start = TorusObservable(0.0, [(1, 0, 1.0)]), TorusPoint(0.31, 0.64)
    pts, _ = flow.walk(psi, start, n.astype(dtype), ())
    want, _ = flow.walk(psi, start, n, ())
    assert _near_cold(flow, want, n)
    cold = flow.evaluate_many(np.arange(1.0, 50.0), 0.31, 0.64)
    for got, ref, below in zip(pts, want, cold):
        assert got.tobytes() == ref.tobytes()
        assert got[:49].tobytes() == below.tobytes()


def test_integer_orbit_contract_catches_a_wrong_warm_start(monkeypatch):
    # u off by half a unit at every 100th table index: rho sees it, the
    # table fails its certificate and is never read, so every position is
    # evaluate_many's ...
    fl = ReparamFlow(SCALED, make_timechange(SCALED))
    P = fl._period
    r = np.arange(P, dtype=np.float64) - P // 2
    u = fl.time_inverse_many(r, 0.31, 0.64) + 0.5 * (np.arange(P) % 100 == 0)
    monkeypatch.setattr(ReparamFlow, "time_inverse_many", lambda *args: u)
    assert fl._period_table(0.31, 0.64) is None
    monkeypatch.undo()
    n = np.concatenate((np.arange(P, P + 20000),
                        -np.arange(P + 1, P + 20001)))
    pts = fl._orbit_positions(n, 0.31, 0.64)
    cold = fl.evaluate_many(n.astype(np.float64), 0.31, 0.64)
    for got, want in zip(pts, cold):
        assert got.tobytes() == want.tobytes()
    # ... but with the certificate disabled the table is read, and the times
    # at those indices, and only those, come out wrong
    fl._memo = None
    monkeypatch.setattr(ReparamFlow, "time_inverse_many", lambda *args: u)
    monkeypatch.setattr(reparam, "_TOL", math.inf)
    assert fl._period_table(0.31, 0.64) is not None
    monkeypatch.undo()
    pts = fl._orbit_positions(n, 0.31, 0.64)
    wrong = _centered(fl, n)[1] % 100 == 0
    assert _near_cold(fl, [p[~wrong] for p in pts], n[~wrong])
    far = np.abs(pts[1][wrong] - cold[1][wrong])
    assert np.all(np.minimum(far, 1.0 - far) > 0.1)


def _mp_inverse(mp, flow, x1, x2, ts):
    """The exact alpha and the u solving V(u) = t at the start point (x1,
    x2) for each t of ts, by Newton steps from u = t at mp's precision:
    call it inside mp.workdps."""
    alpha = mp.mpf(flow.alpha.value.numerator) / flow.alpha.value.denominator
    modes = []
    for q, m, c, _ in flow._terms:
        w = q * alpha + m
        phase = q * mp.mpf(x1) + m * mp.mpf(x2)
        modes.append((w, c * mp.expjpi(2 * phase) / (2 * mp.pi * w)))
    us = []
    for t in ts:
        u = mp.mpf(t)
        for _ in range(50):
            V, dV = u - t, mp.mpf(1)
            for w, b in modes:
                s, c = mp.sinpi(2 * w * u), mp.cospi(2 * w * u)
                V += b.real * s + b.imag * (c - 1)
                dV += 2 * mp.pi * w * (b.real * c - b.imag * s)
            u -= V / dV
            if abs(V / dV) < mp.mpf(10) ** -40:
                break
        us.append(u)
    return alpha, us


def test_integer_walk_matches_a_50_digit_solve(flow):
    # V(u) = n solved to 50 digits with the exact alpha at integer times of
    # both signs up to 1e6, [P/2, P) and [-P, -P/2) included: the walk's
    # positions lie within 4 ulps of min(|n|, P/2) plus 4 of 1 on the
    # circle, as a time reads a u of modulus at most P/2 from the centered
    # table, or is solved cold below P/2 in modulus (the cold solve, whose
    # u alpha rounds at |u| ~ 1e6, errs by up to 1.2e-10 at such times)
    mp = pytest.importorskip("mpmath").mp
    P = flow._period
    n = np.array([1, 97, P // 2, P // 2 + 1, (3 * P) // 4, P - 1, P,
                  2 * P + 5, 250001, 999983, -3, -61, -1000, -(P // 2),
                  -(P // 2) - 1, -(3 * P) // 4, -P + 100, -P, -P - 1,
                  -500009, -999999])
    x1, x2 = 0.31, 0.64
    (g1, g2), _ = flow.walk(TorusObservable(0.0, [(1, 0, 1.0)]),
                            TorusPoint(x1, x2), n, ())
    with mp.workdps(50):
        alpha, us = _mp_inverse(mp, flow, x1, x2, n.tolist())
        for i, (t, u) in enumerate(zip(n.tolist(), us)):
            bound = (4.0 * np.spacing(float(min(abs(t), P / 2)))
                     + 4.0 * np.spacing(1.0))
            for got, want in ((g1[i], x1 + u * alpha), (g2[i], x2 + u)):
                d = mp.frac(mp.mpf(float(got)) - want)
                assert float(min(d, 1 - d)) <= bound, (t, float(d))


# -- bad input to the cocycle and its inverse --------------------------------

@pytest.mark.parametrize("name", ["t", "x1", "x2"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cocycle_and_inverse_reject_non_finite(flow, name, bad):
    args = {"t": np.array([5.0, 7.0]), "x1": 0.31, "x2": np.array([0.64, 0.1])}
    args[name] = np.where(np.arange(2) == 1, bad, args[name])
    for fn in (flow.time_inverse_many, flow.cocycle_many):
        with pytest.raises(ValueError, match=f"{name} must be finite, got {bad}"):
            fn(**args)
