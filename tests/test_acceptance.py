"""End-to-end acceptance checks.

Each test pins the tolerance it promises.  Exact identities get exact or
near-machine assertions, desk-scale numerics get fixed bounds, and the
grid-trend checks assert monotone decay across the N-grid.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from primeflow import experiments
from primeflow.config import ExperimentConfig
from primeflow.experiments import run_experiment
from primeflow.flow import FlowPoint, evaluate, evaluate_naive
from primeflow.observables import (
    TorusObservable,
    coboundary_prime_discrepancy,
)
from primeflow.primes import ap_error, build_table, select_S_qr
from primeflow.reparam import ReparamFlow, TorusPoint
from primeflow.roofs import FourierRoof, PowerRoof, birkhoff_sum_many
from primeflow.rotation import construct_alpha, from_partial_quotients

from helpers import theta_ap, tower_metric

X6 = 10 ** 6


@pytest.fixture(scope="module")
def table():
    # wide enough for every (N, H) window used below, so it is shared
    return build_table(X6 + 10 ** 4)


def _run(name, table=None, **params):
    cfg = ExperimentConfig(name, params={k: str(v) for k, v in params.items()})
    return run_experiment(cfg, table)


# -- 1: sieve exactness ------------------------------------------------------

def test_c01_sieve_exactness(table):
    t0 = time.monotonic()
    big = build_table(10 ** 8)
    small = big.primes_between(1, 10 ** 4)
    rng = np.random.Generator(np.random.PCG64(1))
    ns = rng.integers(2, 10 ** 8, size=10 ** 4)
    for n in ns:
        n = int(n)
        divs = small[(small.astype(np.int64) ** 2 <= n) & (small != n)]
        by_trial = n > 1 and not np.any(n % divs == 0)
        assert bool(big.is_prime(n)) == by_trial

    import sympy

    oracle = math.fsum(math.log(p) for p in sympy.primerange(2, X6 + 1))
    assert abs(table.theta(X6) - oracle) <= 1e-6
    assert abs(table.theta(X6) / X6 - 1.0) < 0.01
    assert time.monotonic() - t0 < 30.0


# -- 2: residue-class partition ---------------------------------------------

def test_c02_residue_partition(table):
    total = table.theta(X6)
    for q in (2, 3, 5, 30, 101):
        parts = math.fsum(theta_ap(table, X6, q, a) for a in range(q))
        assert abs(parts - total) <= 1e-9, f"q = {q}"


# -- 3: special-flow oracle equivalence -------------------------------------

def test_c03_flow_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.Generator(np.random.PCG64(3))
    alphas = [
        from_partial_quotients([1] * 13),
        from_partial_quotients([2] * 11),
        construct_alpha("scaled_D", growth=lambda q: q ** 2, depth=4, seed=3),
    ]
    for case in range(1000):
        if case % 2:
            roof = PowerRoof(gamma=float(rng.uniform(-0.7, -0.3)),
                             c0=float(rng.uniform(0.1, 0.5)))
        else:
            b1 = 0.4 * rng.random() * np.exp(2j * np.pi * rng.random())
            b2 = 0.3 * rng.random() * np.exp(2j * np.pi * rng.random())
            roof = FourierRoof([(1, b1), (2, b2)])
        alpha = alphas[case % 3]
        x = float(rng.random())
        p = FlowPoint(x, float(rng.uniform(0.0, 0.9)) * float(roof(x)))
        t = float(np.sign(rng.random() - 0.5)) * 10.0 ** float(
            rng.uniform(0.0, 4.0))
        fast = evaluate(roof, alpha, p, t)
        slow = evaluate_naive(roof, alpha, p, t)
        assert tower_metric(fast.endpoint, slow.endpoint) <= 1e-9
        # group property, same case
        t1 = t * float(rng.random())
        mid = evaluate(roof, alpha, p, t1).endpoint
        two = evaluate(roof, alpha, mid, t - t1).endpoint
        assert tower_metric(two, fast.endpoint) <= 1e-7
    assert time.monotonic() - t0 < 60.0


# -- 4: Denjoy-Koksma at denominator times ----------------------------------

def test_c04_denominator_time_bound():
    rep = _run("dk_bound")
    assert rep.verdicts["within_variation"] == "pass"
    for aname in ("golden", "pell"):
        assert rep.metric(f"max_dev_{aname}_indicator") <= 2.0 + 1e-6
        assert rep.metric(f"max_dev_{aname}_sawtooth") <= 1.0 + 1e-6


# -- 5: rigidity trend -------------------------------------------------------

def test_c05_rigidity_trend():
    rep = _run("birkhoff_rigidity")
    assert rep.verdicts["birkhoff_decay"] == "pass"
    assert rep.verdicts["rigidity_decay"] == "pass"
    devs = [m.value for m in rep.metrics if m.name == "birkhoff_dev"]
    dists = [m.value for m in rep.metrics if m.name == "rigidity_dist"]
    assert len(devs) >= 3
    for seq in (devs, dists):
        for a, b in zip(seq, seq[1:]):
            assert b <= a / 3.0


def test_singular_constant_stable_can_fail(monkeypatch):
    # the verdict passes at the defaults (0.187 vs 0.168) and fails once
    # the deviations at the second level, q_3 = 103, are inflated tenfold
    assert _run("singular_birkhoff").verdicts["constant_stable"] == "pass"
    q3 = construct_alpha("scaled_D", growth=lambda q: q ** 2,
                         depth=4, seed=3).q(3)
    real = experiments.birkhoff_sum

    def inflated(f, n, x, alpha, order=0):
        s = real(f, n, x, alpha, order=order)
        if order == 0 and n == q3:
            return n * f.integral() + 10.0 * (s - n * f.integral())
        return s

    monkeypatch.setattr(experiments, "birkhoff_sum", inflated)
    rep = _run("singular_birkhoff")
    assert rep.metric("fitted_constant", N=3) > 5.0 * rep.metric(
        "fitted_constant", N=2)
    assert rep.verdicts["constant_stable"] == "fail"


# -- 6: main-plus-quadratic expansion ---------------------------------------

def test_c06_quadratic_expansion_budget():
    rep = _run("quad_expansion")
    assert rep.metric("frac_within_budget") >= 0.95
    assert rep.metric("frac_within_best") == 1.0


def test_quad_expansion_verdicts_can_fail(monkeypatch):
    # an actual sum 11 budgets past both predictions fails both readings
    real = experiments.quadratic_expansion_check

    def missed(*args, **kwargs):
        res = real(*args, **kwargs)
        gap = abs(res.predicted_triangular - res.predicted) + 11.0 * res.budget
        return dataclasses.replace(res, actual=res.predicted + gap)

    monkeypatch.setattr(experiments, "quadratic_expansion_check", missed)
    rep = _run("quad_expansion", cases=20)
    assert rep.metric("frac_within_budget") == 0.0
    assert rep.metric("frac_within_best") == 0.0
    assert rep.verdicts == {"budget_95": "fail", "best_100": "fail"}


# -- 7: derivative zeros and containment ------------------------------------

def test_c07_derivative_zeros():
    rep = _run("deriv_zeros")
    alpha = construct_alpha("scaled_D", growth=lambda q: q ** 2,
                            depth=4, seed=3)
    for n in (1, 2, 3):
        assert rep.metric("zero_count", N=n) == alpha.q(n)
    assert rep.verdicts["one_zero_per_interval"] == "pass"
    assert rep.verdicts["containment"] == "pass"


def test_c07_containment_margin():
    # why the containment verdict above checks nothing at its defaults: on
    # the 1e5-point grid the smallest |S_{q_3}(f')| is about 0.041, some 40
    # times the threshold 1e-3, so no grid point needs an arc to contain it
    alpha = construct_alpha("scaled_D", growth=lambda q: q ** 2,
                            depth=4, seed=3)
    xs = (np.arange(10 ** 5) + 0.5) / 10 ** 5
    smallest = float(np.min(np.abs(
        birkhoff_sum_many(PowerRoof(), alpha.q(3), xs, alpha, order=1))))
    assert alpha.q(3) == 103
    assert 0.01 <= smallest <= 0.1


def test_c07_containment_can_fail():
    # on pnt_kochergin's alpha a grid point of the small-derivative set at
    # N = 3 lies outside every arc, so the verdict that checks nothing at
    # its defaults fails here
    rep = _run("deriv_zeros", alpha_exponent=2.5, alpha_depth=5, alpha_seed=1)
    assert rep.metric("containment_witnesses", N=3) == 1
    assert rep.verdicts["containment"] == "fail"


# -- 8: visit-set interval structure ----------------------------------------

def test_c08_visit_set_claims():
    rep = _run("section_claims")
    assert rep.metric("pass_fraction") == 1.0
    assert rep.metric("max_excess_ratio") < 0.2
    assert rep.metric("nonempty_visits") > 0


# -- 9: box-count factorization ---------------------------------------------

def test_c09_interval_factorization(table):
    rep = _run("interval_factorization", table)
    assert rep.verdicts["gamma2_admissible"] == "pass"
    assert rep.verdicts["cell_bound"] == "pass"
    for q in (3, 5, 7):
        assert rep.metric("max_residual", N=q) <= 1.0 / q
    assert rep.metric("max_residual", N=7) < rep.metric("max_residual", N=3)


# -- 10: quadratic phase contrast -------------------------------------------

def test_c10_phase_contrast(table):
    rep = _run("phase_contrast", table)
    assert rep.metric("contrast_ratio") <= 0.25
    assert rep.metric("resonant_error") < 1e-9


@pytest.mark.parametrize("limit", [10 ** 4, 5 * 10 ** 3])
def test_c10_phase_contrast_sieves_to_n_plus_h(limit):
    # a sieve limit below N + H (H = 1e4) builds the table to N + H, so the
    # report reads the configured N
    rep = run_experiment(ExperimentConfig("phase_contrast", sieve_limit=limit))
    assert rep.params["N"] == X6
    assert rep.verdicts == {"cancellation": "pass", "resonant_exact": "pass"}


# -- 11: short-interval progressions ----------------------------------------

def test_c11_short_interval_averages(table):
    rep = _run("ap_short_avg", table)
    assert rep.metric("window_average") <= 0.05 * 10 ** 4 / 2  # phi(3) = 2
    bt = _run("bt_ratio", table)
    assert bt.metric("max_ratio") <= 4.0


def test_c11_bt_ratio_sieves_to_n():
    # N above the sieve limit builds the table to N, so every window
    # [x, x + y] below N is counted
    cfg = ExperimentConfig("bt_ratio", sieve_limit=X6,
                           params={"N": str(2 * X6)})
    rep = run_experiment(cfg)
    assert rep.params["N"] == 2 * X6
    assert rep.verdicts == {"ratio_bounded": "pass"}


# -- 12: dyadic progression-error filter ------------------------------------

def test_c12_good_prime_set_nonempty(table):
    # the dyadic error filter at these desk-scale parameters is far below
    # the realized progression errors, so this selection comes back empty;
    # the assertion is kept as written rather than loosened
    sel = select_S_qr(table, q=3, r=2, N=10 ** 4, C=10.0, A=2.0)
    assert len(sel) > 0


def test_c12_s_qr_build_report(table):
    # the experiment records the selection that select_S_qr makes, and its
    # verdicts agree with it
    rep = _run("s_qr_build", table)
    count = len(select_S_qr(table, 3, 2, 10 ** 4, 10.0, 2.0))
    assert rep.metric("selected_count") == count
    assert rep.verdicts["members_valid"] == "pass"
    assert rep.verdicts["nonempty"] == ("pass" if count > 0 else "fail")


def test_c12_good_prime_members_valid(table):
    # with the constant relaxed the same machinery does select, and every
    # member satisfies the congruence, range, and primality requirements
    N = 10 ** 4
    sel = select_S_qr(table, q=3, r=2, N=N, C=10.0 ** 7, A=2.0)
    assert len(sel) > 0
    for ell in sel:
        assert N / 2 <= ell <= N
        assert ell % 3 == 2
        assert bool(table.is_prime(ell))


def test_c12_filter_margin(table):
    # why the selection above is empty: at N = 1e4, C = 10, A = 2 every one
    # of the 279 candidates already fails at x_1 = 110, where the smallest
    # ratio E(x_1, l) / bound is about 2.07e4, some 4.3 orders of magnitude
    N, C, A = 10 ** 4, 10.0, 2.0
    x1 = int(math.ceil(N ** 0.51))
    cands = table.primes_between(-(-N // 2) - 1, N)
    cands = cands[cands % 3 == 2]
    bound = C * x1 / (N * math.log(x1) ** (2 * A))
    worst = min(ap_error(table, x1, int(ell)) for ell in cands) / bound
    assert (x1, len(cands)) == (110, 279)
    assert 1e4 <= worst <= 1e5


# -- 13: weak-mixing ratios --------------------------------------------------

def test_c13_katok_ratios():
    rep = _run("katok_wm")
    deepest = max(m.N for m in rep.metrics if m.name == "ratio1")
    assert rep.metric("ratio1", N=deepest) <= 0.1
    assert rep.metric("ratio2", N=deepest) >= 0.5


# -- 14: coboundary observable on the reparametrized flow --------------------

def test_c14_coboundary_discrepancy_and_bound(table):
    alpha = construct_alpha("scaled_D", growth=lambda q: q ** 4,
                            depth=4, seed=2)
    from primeflow.reparam import make_timechange

    flow = ReparamFlow(alpha, make_timechange(alpha))
    g = TorusObservable(0.0, [(1, 0, 1.0)])  # cos(2 pi x1)
    depth = 10 ** 3
    x = TorusPoint(0.31, 0.64)
    d3_small = coboundary_prime_discrepancy(flow, g, depth, x, 10 ** 4, table)
    d3_large = coboundary_prime_discrepancy(flow, g, depth, x, 10 ** 6, table)
    assert d3_large <= 0.5 * d3_small

    # exact coboundary property: S_M(psi) telescopes to h(x) - h(T_M x),
    # so every partial sum up to M = 10^4 is bounded by 2 sup|h|
    M = 10 ** 4
    gv = g(*flow.walk(g, x, np.arange(M + depth + 2), ())[0])
    kernel = np.arange(depth, 0, -1, dtype=np.float64) / depth
    h = -np.convolve(gv, kernel[::-1], mode="full")[depth - 1: depth + M + 1]
    psi_vals = h[:-1] - h[1:]
    partials = np.cumsum(psi_vals)
    assert np.max(np.abs(partials)) <= 2.0 * np.max(np.abs(h)) + 1e-9



def test_pnt_reparam_coboundary_halving_can_fail(table, monkeypatch):
    # the coboundary D3 more than halves from N = 1e4 to 1e6 at the
    # defaults, and a D3 that does not decay fails the verdict
    assert _run("pnt_reparam", table).verdicts["coboundary_halving"] == "pass"
    monkeypatch.setattr(experiments, "coboundary_prime_discrepancy",
                        lambda flow, g, depth, x, N, table: np.full(len(N), 0.1))
    rep = _run("pnt_reparam", table)
    assert [m.value for m in rep.metrics if m.name == "coboundary_D3"] == [0.1] * 3
    assert rep.verdicts["coboundary_halving"] == "fail"


@pytest.mark.parametrize("grid, lo, hi", [
    ((10 ** 3, 10 ** 4), (0.004, 0.005), (0.031, 0.032)),
    ((10 ** 4, 10 ** 5), (0.031, 0.032), (0.038, 0.040)),
])
def test_pnt_reparam_coboundary_halving_reads_only_the_grid_ends(
        table, grid, lo, hi):
    # the verdict compares the first and the last D3, and at depth 1000 the
    # coboundary D3 rises from N = 1e3 to 1e5 before it falls at 1e6 (README)
    rep = run_experiment(ExperimentConfig("pnt_reparam", n_grid=grid), table)
    first, last = [m.value for m in rep.metrics if m.name == "coboundary_D3"]
    assert lo[0] <= first <= lo[1] and hi[0] <= last <= hi[1]
    assert rep.verdicts["coboundary_halving"] == "fail"

# -- 15: prime-orbit discrepancy pipeline -----------------------------------

def test_c15_prime_orbit_pipeline(table):
    t0 = time.monotonic()
    rep = _run("pnt_kochergin", table)
    grid = (10 ** 4, 10 ** 5, 10 ** 6)
    for z in ("+", "-"):
        d2 = [rep.metric("D2", N=N, z=z) for N in grid]
        assert d2[0] > d2[1] > d2[2], f"D2 not decreasing for z = {z}"
    d1_max = [max(rep.metric("D1", N=N, z=z) for z in ("+", "-"))
              for N in grid]
    assert d1_max[0] > d1_max[1] > d1_max[2]
    boxes = [rep.metric("box_discrepancy", N=N, z="+") for N in grid]
    assert boxes[2] <= 0.5 * boxes[0]
    assert time.monotonic() - t0 < 600.0


# -- 16: exponential-sum baseline -------------------------------------------

def test_c16_vinogradov_baseline(table):
    golden = from_partial_quotients([1] * 31).float_value
    ps = table.primes_between(1, X6)
    logs = np.log(ps.astype(np.float64))
    phase = 2.0 * np.pi * ((ps.astype(np.float64) * golden) % 1.0)
    total = complex(math.fsum(logs * np.cos(phase)),
                    math.fsum(logs * np.sin(phase)))
    assert abs(total) / table.theta(X6) <= 0.1
