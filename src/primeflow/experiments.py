"""Named experiments binding the library modules into one registry.

Every entry takes an ExperimentConfig, runs deterministically under the
config seed, and returns an ExperimentReport whose verdicts record pass or
fail; a failed trend is a recorded verdict, never a crash.
"""

import math
import time as _time

import numpy as np

from .config import ExperimentConfig, ExperimentReport
from .flow import FlowPoint, ab_decomposition
from .observables import (
    KocherginFlow,
    TorusObservable,
    TowerObservable,
    _box_discrepancy,
    _check_boxes,
    _prime_points,
    coboundary_prime_discrepancy,
    pnt_report,
)
from .primes import (
    CircleInterval,
    PhaseCoefficients,
    PrimeTable,
    _totient,
    box_indicator_sum,
    build_interval_partition,
    build_table,
    diophantine_gamma2_check,
    quad_phase_sum,
    select_S_qr,
    short_interval_ap_average,
    theta_interval,
)
from .reparam import (
    ReparamFlow,
    TorusPoint,
    katok_ratios,
    make_timechange,
    rigidity_distance,
    roof_sum_deviation,
)
from .roofs import (
    ContainmentError,
    PiecewiseLinear,
    PowerRoof,
    birkhoff_sum,
    birkhoff_sum_many,
    derivative_zero_locator,
    quadratic_expansion_check,
    small_derivative_set,
)
from .rotation import construct_alpha, frac, from_partial_quotients

__all__ = ["REGISTRY", "UnknownExperimentError", "run_experiment"]


class UnknownExperimentError(ValueError):
    pass


def _alpha_from(cfg: ExperimentConfig, mode, exponent, depth, seed):
    mode = cfg.get("alpha_mode", mode)
    exponent = cfg.get_float("alpha_exponent", exponent)
    depth = cfg.get_int("alpha_depth", depth)
    seed = cfg.get_int("alpha_seed", seed)
    return construct_alpha(mode, growth=lambda q: q ** exponent,
                           depth=depth, seed=seed)


def _table(cfg: ExperimentConfig, table):
    return table if table is not None else build_table(cfg.sieve_limit)


def _verdict(report, name, ok):
    report.verdicts[name] = "pass" if ok else "fail"


# ---------------------------------------------------------------------------


def _exp_dk_bound(cfg, table):
    """Bounded-variation Birkhoff sums at denominator times stay within the
    variation of the test function."""
    depth = cfg.get_int("depth", 15)
    samples = cfg.get_int("samples", 1000)
    report = ExperimentReport("dk_bound", {"depth": depth, "samples": samples})
    rng = cfg.rng()
    xs = rng.random(samples)
    banks = {
        "indicator": (PiecewiseLinear(0.5, 0.0, [(0.5, -1.0)]), 2.0),
        "sawtooth": (PiecewiseLinear(-0.5, 1.0), 1.0),
    }
    ok = True
    for aname, quots in (("golden", [1] * (depth + 1)),
                         ("pell", [2] * (depth + 1))):
        alpha = from_partial_quotients(quots)
        for gname, (g, var) in banks.items():
            worst = 0.0
            for n in range(1, depth + 1):
                dev = float(np.max(np.abs(
                    birkhoff_sum_many(g, alpha.q(n), xs, alpha))))
                worst = max(worst, dev)
            report.add(f"max_dev_{aname}_{gname}", worst)
            ok = ok and worst <= var + 1e-6
    _verdict(report, "within_variation", ok)
    return report


def _exp_birkhoff_rigidity(cfg, table):
    """Denominator-time Birkhoff sums of the band-limited roof and the
    reparametrized rigidity distance both collapse level by level."""
    alpha = _alpha_from(cfg, "scaled_C_A", 4.0, 4, 2)
    k = cfg.get_int("k", 2)
    samples = cfg.get_int("samples", 100)
    flow = ReparamFlow(alpha, make_timechange(alpha))
    roof = flow.roof()
    rng = cfg.rng()
    xs = rng.random(samples)
    x0 = TorusPoint(0.3, 0.7)
    levels = [n for n in alpha.flags if n + 1 <= alpha.depth]
    report = ExperimentReport("birkhoff_rigidity",
                              {"k": k, "levels": levels,
                               "quotients": list(alpha.quotients)})
    devs, dists = [], []
    for n in levels:
        dev = max(roof_sum_deviation(roof, alpha, k * alpha.q(n), float(x))
                  for x in xs)
        dist = rigidity_distance(flow, k, n, x0).distance
        report.add("birkhoff_dev", dev, N=n)
        report.add("rigidity_dist", dist, N=n)
        devs.append(dev)
        dists.append(dist)
    _verdict(report, "birkhoff_decay",
             all(b <= a / 3.0 for a, b in zip(devs, devs[1:])))
    _verdict(report, "rigidity_decay",
             all(b <= a / 3.0 for a, b in zip(dists, dists[1:])))
    return report


def _exp_singular_birkhoff(cfg, table):
    """Singularity-dominated Birkhoff bounds: the deviation scales like the
    closest-approach power, and the derivative sum tracks the closest
    orbit point."""
    alpha = _alpha_from(cfg, "scaled_D", 2.0, 4, 3)
    f = PowerRoof()
    rng = cfg.rng()
    xs = rng.random(cfg.get_int("samples", 60))
    report = ExperimentReport("singular_birkhoff",
                              {"quotients": list(alpha.quotients)})
    consts = []
    for n in (2, 3):
        qn = alpha.q(n)
        cs = []
        for x in xs:
            xmin = alpha.orbit_min_distance(float(x), qn - 1)
            dev = abs(birkhoff_sum(f, qn, float(x), alpha) - qn * f.integral())
            cs.append(dev / xmin ** f.gamma)
        consts.append(max(cs))
        report.add("fitted_constant", consts[-1], N=n)
    _verdict(report, "constant_stable", max(consts) <= 2.0 * min(consts))
    n = 3
    qn = alpha.q(n)
    resid = []
    for x in xs[:40]:
        offs = frac(x + alpha.orbit(0, qn))
        closest = offs[int(np.argmin(np.minimum(offs, 1.0 - offs)))]
        resid.append(abs(birkhoff_sum(f, qn, float(x), alpha, order=1)
                         - f(closest, 1)))
    report.add("deriv_residual", max(resid), N=n)
    _verdict(report, "residual_small", max(resid) < qn ** (1.0 - f.gamma))
    return report


def _exp_quad_expansion(cfg, table):
    """Main-plus-quadratic expansion of S_{k q_n}(f) against its budget."""
    alpha = _alpha_from(cfg, "scaled_D", 2.0, 4, 3)
    f = PowerRoof()
    n = cfg.get_int("level", 3)
    cases = cfg.get_int("cases", 100)
    L = alpha.q(n + 1) / 4 * 0.99
    rng = cfg.rng()
    within, within_max, tried = 0, 0, 0
    ks = (2, 3, 4, 5)
    candidates = iter(rng.random(100000))
    while tried < cases:
        k = ks[tried % len(ks)]
        try:
            x = float(next(candidates))
        except StopIteration:
            raise RuntimeError(
                f"could not find {cases} admissible base points at level {n}")
        if alpha.orbit_min_distance(x, k * alpha.q(n) - 1) <= 1.0 / L:
            continue
        res = quadratic_expansion_check(f, x, k, n, alpha, L=L)
        tried += 1
        err = abs(res.actual - res.predicted)
        err_tri = abs(res.actual - res.predicted_triangular)
        if err <= 10.0 * res.budget:
            within += 1
        if min(err, err_tri) <= 10.0 * res.budget:
            within_max += 1
    report = ExperimentReport("quad_expansion",
                              {"level": n, "cases": cases,
                               "quotients": list(alpha.quotients)})
    report.add("frac_within_budget", within / cases)
    report.add("frac_within_best", within_max / cases)
    _verdict(report, "budget_95", within / cases >= 0.95)
    _verdict(report, "best_100", within_max == cases)
    return report


def _exp_deriv_zeros(cfg, table):
    """One derivative zero per partition interval, and grid containment of
    the small-derivative set."""
    alpha = _alpha_from(cfg, "scaled_D", 2.0, 4, 3)
    f = PowerRoof()
    top = cfg.get_int("max_level", 3)
    grid = cfg.get_int("grid", 10 ** 5)
    report = ExperimentReport("deriv_zeros",
                              {"max_level": top,
                               "quotients": list(alpha.quotients)})
    counts_ok = True
    for n in range(1, top + 1):
        zeros = derivative_zero_locator(f, n, alpha)
        report.add("zero_count", len(zeros), N=n)
        counts_ok = counts_ok and len(zeros) == alpha.q(n)
    _verdict(report, "one_zero_per_interval", counts_ok)
    n = min(top, 3)
    threshold = cfg.get_float("threshold", 1e-3)
    try:
        small_derivative_set(f, n, alpha, threshold, grid=grid)
        witnesses = 0
    except ContainmentError:
        witnesses = 1
    report.add("containment_witnesses", witnesses, N=n)
    _verdict(report, "containment", witnesses == 0)
    return report


def _exp_section_claims(cfg, table):
    """Interval structure of the deep-tower visit set: A is one interval,
    the core is one interval, the excess is at most two and small."""
    alpha = _alpha_from(cfg, "scaled_D", 2.0, 5, 2)
    f = PowerRoof()
    n = cfg.get_int("level", 4)
    samples = cfg.get_int("samples", 100)
    delta = cfg.get_float("delta", 0.9)
    horizon = alpha.q(n + 1) / math.log(10)
    rng = cfg.rng()
    report = ExperimentReport("section_claims",
                              {"level": n, "samples": samples,
                               "quotients": list(alpha.quotients)})
    passed, max_excess, nonempty = 0, 0.0, 0
    for _ in range(samples):
        x = float(rng.random())
        s = float(rng.random()) * 0.9 * f(x) if f(x) < 10 else 0.1
        rep = ab_decomposition(f, alpha, FlowPoint(x, s), horizon, n, delta)
        if rep.p1 and rep.p2 and rep.p3:
            passed += 1
        max_excess = max(max_excess, rep.excess_ratio)
        nonempty += bool(rep.a_measure > 0.0)
    report.add("pass_fraction", passed / samples)
    report.add("max_excess_ratio", max_excess)
    report.add("nonempty_visits", nonempty)
    _verdict(report, "interval_claims", passed == samples)
    _verdict(report, "excess_small", max_excess < 0.2)
    return report


def _exp_interval_factorization(cfg, table):
    """Prime phase box counts factor into marginal times length across the
    partition, with the residual shrinking as q grows."""
    N = cfg.get_int("N", 10 ** 6)
    H = cfg.get_int("H", 10 ** 4)
    table = _table(cfg, table)
    if table.limit < N + H:
        table = build_table(N + H)
    gamma2 = cfg.get_float("gamma2", math.sqrt(0.5) % 1.0)
    gamma1 = cfg.get_float("gamma1", 0.6180339887498949)
    B = cfg.get_float("B", 2.0)
    qs = [int(t) for t in str(cfg.get("qs", "3,5,7")).split(",")]
    rng = cfg.rng()
    report = ExperimentReport("interval_factorization",
                              {"N": N, "H": H, "qs": qs})
    if not diophantine_gamma2_check(gamma2, N, H, B):
        _verdict(report, "gamma2_admissible", False)
        return report
    _verdict(report, "gamma2_admissible", True)
    coeffs = PhaseCoefficients(gamma1, gamma2, N, H)
    whole = CircleInterval.full_circle()
    maxes = []
    ok = True
    for q in qs:
        parts = build_interval_partition(table, q, gamma1, N, H)
        js = [CircleInterval(float(rng.random()), float(rng.uniform(0.1, 0.4)))
              for _ in range(3)]
        marg = [box_indicator_sum(table, coeffs, I, whole) for I in parts]
        worst = 0.0
        for J in js:
            for I, mI in zip(parts, marg):
                got = box_indicator_sum(table, coeffs, I, J)
                resid = abs(got - J.length * mI) / H
                worst = max(worst, resid)
                ok = ok and resid <= 1.0 / q
        report.add("max_residual", worst, N=q)
        maxes.append(worst)
    _verdict(report, "cell_bound", ok)
    _verdict(report, "decay_trend", maxes[-1] < maxes[0])
    return report


def _exp_phase_contrast(cfg, table):
    """Quadratic phase sums: generic slopes cancel, resonant slopes reduce
    to the plain interval theta sum."""
    table = _table(cfg, table)
    N = cfg.get_int("N", 10 ** 6)
    H = cfg.get_int("H", 10 ** 4)
    g1 = cfg.get_float("gamma1", (1.0 / math.sqrt(3.0)) % 1.0)
    g2 = cfg.get_float("gamma2", (1.0 / math.sqrt(2.0)) % 1.0)
    if N + H > table.limit:
        N = table.limit - H
    generic = abs(quad_phase_sum(table, PhaseCoefficients(g1, g2, N, H)))
    trivial = abs(quad_phase_sum(table, PhaseCoefficients(0.0, 0.0, N, H)))
    resonant_err = abs(trivial - theta_interval(table, N, H))
    report = ExperimentReport("phase_contrast", {"N": N, "H": H})
    report.add("generic_sum", generic)
    report.add("trivial_sum", trivial)
    report.add("contrast_ratio", generic / trivial)
    report.add("resonant_error", resonant_err)
    _verdict(report, "cancellation", generic <= 0.25 * trivial)
    _verdict(report, "resonant_exact", resonant_err < 1e-9)
    return report


def _exp_ap_short_avg(cfg, table):
    """Short-interval residue-class deviations, averaged over windows."""
    table = _table(cfg, table)
    N = cfg.get_int("N", 10 ** 6)
    H = cfg.get_int("H", 10 ** 4)
    v = cfg.get_int("v", 3)
    if table.limit < N + H:
        table = build_table(N + H)
    avg, z = short_interval_ap_average(table, N, H, v)
    bound = 0.05 * H / _totient(v)
    report = ExperimentReport("ap_short_avg",
                              {"N": N, "H": H, "v": v, "offset": z})
    report.add("window_average", avg)
    report.add("bound", bound)
    _verdict(report, "average_small", avg <= bound)
    return report


def _exp_bt_ratio(cfg, table):
    """Sieve-style upper bound on primes in short progressions: the counted
    mass never exceeds a few times 2y / (phi(q) log(y/q))."""
    table = _table(cfg, table)
    N = cfg.get_int("N", 10 ** 6)
    q = cfg.get_int("q", 3)
    trials = cfg.get_int("trials", 1000)
    rng = cfg.rng()
    ymin = int(math.ceil(N ** 0.1))
    phi = _totient(q)
    worst = 0.0
    for _ in range(trials):
        y = int(rng.integers(ymin, 10 ** 4))
        x = int(rng.integers(1, N - y))
        a = int(rng.choice([r for r in range(1, q) if math.gcd(r, q) == 1]))
        ps = table.primes_between(x, x + y)
        count = int(np.sum(ps % q == a))
        bound = 2.0 * y / (phi * math.log(y / q))
        worst = max(worst, count / bound)
    report = ExperimentReport("bt_ratio",
                              {"N": N, "q": q, "trials": trials})
    report.add("max_ratio", worst)
    _verdict(report, "ratio_bounded", worst <= 4.0)
    return report


def _exp_s_qr_build(cfg, table):
    """Dyadic progression-error filter for the good-prime set S_{q,r}."""
    table = _table(cfg, table)
    q = cfg.get_int("q", 3)
    r = cfg.get_int("r", 2)
    N = cfg.get_int("N", 10 ** 4)
    C = cfg.get_float("C", 10.0)
    A = cfg.get_float("A", 2.0)
    sel = select_S_qr(table, q, r, N, C, A)
    report = ExperimentReport("s_qr_build",
                              {"q": q, "r": r, "N": N, "C": C, "A": A})
    report.add("selected_count", len(sel))
    members_ok = all(
        int(table.is_prime(ell)) and ell % q == r and N // 2 <= ell <= N
        for ell in sel)
    _verdict(report, "members_valid", members_ok)
    _verdict(report, "nonempty", len(sel) > 0)
    return report


def _exp_katok_wm(cfg, table):
    """Fourier-coefficient ratio diagnostics for weak mixing."""
    alpha = _alpha_from(cfg, "scaled_C_A", 4.0, 4, 2)
    flow = ReparamFlow(alpha, make_timechange(alpha))
    ratios = katok_ratios(flow)
    report = ExperimentReport("katok_wm",
                              {"quotients": list(alpha.quotients)})
    for r in ratios:
        report.add("ratio1", r.ratio1, N=r.level)
        report.add("ratio2", r.ratio2, N=r.level)
    deepest = max(ratios, key=lambda r: r.level)
    _verdict(report, "ratio1_small", deepest.ratio1 <= 0.1)
    _verdict(report, "ratio2_large", deepest.ratio2 >= 0.5)
    return report


def _kochergin_setup(cfg):
    alpha = _alpha_from(cfg, "scaled_D", 2.5, 5, 1)
    roof = PowerRoof()
    psi = TowerObservable(roof, psi_inf=cfg.get_float("psi_inf", 0.3))
    start = FlowPoint(cfg.get_float("x0", 0.55), cfg.get_float("s0", 0.05))
    return KocherginFlow(roof, alpha), psi, start


def _exp_pnt_kochergin(cfg, table):
    """Prime-orbit discrepancy trends for the singular special flow."""
    table = _table(cfg, table)
    flow, psi, start = _kochergin_setup(cfg)
    grid = tuple(n for n in cfg.n_grid if n <= table.limit)
    rep = pnt_report(psi, flow, start, grid, table=table,
                     workers=cfg.get_int("threads", 1))
    rep.experiment = "pnt_kochergin"
    rep.params["quotients"] = list(flow.alpha.quotients)
    return rep


def _exp_pnt_reparam(cfg, table):
    """Prime-orbit discrepancy for the reparametrized linear flow, with the
    coboundary observable's decaying discrepancy on top."""
    table = _table(cfg, table)
    alpha = _alpha_from(cfg, "scaled_D", 4.0, 4, 2)
    flow = ReparamFlow(alpha, make_timechange(alpha))
    psi = TorusObservable(0.0, [(1, 0, 1.0), (0, 1, 0.5)])
    start = TorusPoint(cfg.get_float("x1", 0.31), cfg.get_float("x2", 0.64))
    grid = tuple(n for n in cfg.n_grid if n <= table.limit)
    rep = pnt_report(psi, flow, start, grid, table=table, log_power=2.0,
                     workers=cfg.get_int("threads", 1))
    rep.experiment = "pnt_reparam"
    rep.params["quotients"] = list(alpha.quotients)
    depth = cfg.get_int("coboundary_depth", 10 ** 3)
    g = lambda x1, x2: np.cos(2 * np.pi * np.asarray(x1))
    d3s = coboundary_prime_discrepancy(flow, g, depth, start, grid, table)
    for N, d3 in zip(grid, d3s):
        rep.add("coboundary_D3", d3, N=N)
    if len(d3s) >= 2:
        _verdict(rep, "coboundary_halving", d3s[-1] <= 0.5 * d3s[0])
    return rep


def _exp_equidist_boxes(cfg, table):
    """Box-counting equidistribution of the weighted prime orbit."""
    table = _table(cfg, table)
    flow, psi, start = _kochergin_setup(cfg)
    boxes = cfg.get_int("boxes", 32)
    _check_boxes(boxes)
    grid = tuple(n for n in cfg.n_grid if n <= table.limit)
    report = ExperimentReport("equidist_boxes",
                              {"n_grid": list(grid),
                               "quotients": list(flow.alpha.quotients)})
    ((xs, ss), _), weights = _prime_points(flow, psi, start, table,
                                           max(grid, default=0), "+", 0)
    masses = flow.box_masses(boxes)
    vals = []
    for N, k in zip(grid, np.searchsorted(table.primes, grid, side="right")):
        d = _box_discrepancy((xs[:k], ss[:k]), weights[:k], masses, boxes)
        report.add("box_discrepancy", d, N=N)
        vals.append(d)
    if len(vals) >= 2:
        _verdict(report, "box_halving", vals[-1] <= 0.5 * vals[0])
    return report


REGISTRY = {
    "dk_bound": _exp_dk_bound,
    "birkhoff_rigidity": _exp_birkhoff_rigidity,
    "singular_birkhoff": _exp_singular_birkhoff,
    "quad_expansion": _exp_quad_expansion,
    "deriv_zeros": _exp_deriv_zeros,
    "section_claims": _exp_section_claims,
    "interval_factorization": _exp_interval_factorization,
    "phase_contrast": _exp_phase_contrast,
    "ap_short_avg": _exp_ap_short_avg,
    "bt_ratio": _exp_bt_ratio,
    "s_qr_build": _exp_s_qr_build,
    "katok_wm": _exp_katok_wm,
    "pnt_kochergin": _exp_pnt_kochergin,
    "pnt_reparam": _exp_pnt_reparam,
    "equidist_boxes": _exp_equidist_boxes,
}


def run_experiment(cfg: ExperimentConfig, table: PrimeTable = None
                   ) -> ExperimentReport:
    if cfg.experiment not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise UnknownExperimentError(
            f"unknown experiment {cfg.experiment!r}; registry: {known}")
    t0 = _time.monotonic()
    report = REGISTRY[cfg.experiment](cfg, table)
    if not report.wall_clock:
        report.wall_clock = _time.monotonic() - t0
    report.params.setdefault("seed", cfg.seed)
    return report
