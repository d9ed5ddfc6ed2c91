"""Oracle spot checks, run outside the timed passes.

Each check compares a fast path against a slow reference at inputs drawn
from the benchmark seed, and returns ``(ok, detail)``.  The time-inverse
check also returns its per-point residual diagnostics.
"""

import math

import numpy as np

from workloads import SIEVE_LIMIT


def _kochergin_flow():
    from primeflow.roofs import PowerRoof
    from primeflow.rotation import construct_alpha

    return PowerRoof(), construct_alpha("scaled_D", growth=lambda q: q ** 2.5,
                                        depth=5, seed=1)


def check_evaluate_times(rng):
    """evaluate_times against the fiber-stepping evaluate_naive at a few
    short times on the pnt_kochergin flow."""
    from primeflow.flow import FlowPoint, evaluate_naive, evaluate_times

    roof, alpha = _kochergin_flow()
    start = FlowPoint(0.55, 0.05)
    times = np.concatenate((rng.uniform(-40.0, 40.0, 6), [0.0, 1.5]))
    xs, ss, Ns = evaluate_times(roof, alpha, start, times)
    worst = 0.0
    for t, x, s, N in zip(times, xs, ss, Ns):
        ref = evaluate_naive(roof, alpha, start, float(t))
        if ref.hits != N:
            return False, f"t={t}: N={N}, naive {ref.hits}"
        dx = abs((x - ref.endpoint.x + 0.5) % 1.0 - 0.5)
        worst = max(worst, dx, abs(s - ref.endpoint.s))
    return worst <= 1e-9, f"max deviation {worst:.3e} at {len(times)} times"


def check_evaluate(rng):
    """evaluate against evaluate_naive on the section_claims flow."""
    from primeflow.flow import FlowPoint, evaluate, evaluate_naive
    from primeflow.roofs import PowerRoof
    from primeflow.rotation import construct_alpha

    roof = PowerRoof()
    alpha = construct_alpha("scaled_D", growth=lambda q: q ** 2.0, depth=5,
                            seed=2)
    worst = 0.0
    for x, t in zip(rng.random(4), rng.uniform(-40.0, 40.0, 4)):
        p = FlowPoint(float(x), 0.5 * float(roof(float(x))))
        got, ref = evaluate(roof, alpha, p, float(t)), evaluate_naive(
            roof, alpha, p, float(t))
        if got.hits != ref.hits:
            return False, f"t={t}: N={got.hits}, naive {ref.hits}"
        dx = abs((got.endpoint.x - ref.endpoint.x + 0.5) % 1.0 - 0.5)
        worst = max(worst, dx, abs(got.endpoint.s - ref.endpoint.s))
    return worst <= 1e-9, f"max deviation {worst:.3e}"


def check_birkhoff(rng):
    """birkhoff_sum_many against per-point birkhoff_sum (math.fsum) at
    denominator times of the golden and Pell rotations."""
    from primeflow.roofs import birkhoff_sum, birkhoff_sum_many
    from primeflow.rotation import from_partial_quotients

    g = lambda x: (np.asarray(x) % 1.0) - 0.5  # noqa: E731  dk_bound sawtooth
    xs = rng.random(3)
    worst = 0.0
    for a, level in ((1, 15), (2, 12)):
        alpha = from_partial_quotients([a] * 16)
        n = alpha.q(level)
        many = birkhoff_sum_many(g, n, xs, alpha)
        for x, got in zip(xs, many):
            ref = birkhoff_sum(g, n, float(x), alpha)
            # pairwise vs exactly rounded summation of n terms in [-1/2, 1/2)
            worst = max(worst, abs(got - ref) / n)
    return worst <= 1e-12, f"max deviation per term {worst:.3e}"


def _brute_ap_error(primes, x, q):
    """sup over y < x of |theta(y; q, a) - y/phi(q)|, maximized over the
    classes a coprime to q, by walking every prime below x in each class and
    evaluating just before and just after each jump and at y -> x."""
    phi = sum(1 for a in range(1, q + 1) if math.gcd(a, q) == 1)
    best = 0.0
    for a in range(q):
        if math.gcd(a, q) != 1:
            continue
        theta = 0.0
        for p in primes:
            if p >= x:
                break
            if p % q != a:
                continue
            best = max(best, abs(theta - p / phi))
            theta += math.log(p)
            best = max(best, abs(theta - p / phi))
        best = max(best, abs(theta - x / phi))
    return best


def check_ap_error(rng, table):
    """ap_error against the brute-force sup for small x, including moduli
    with empty residue classes."""
    from primeflow.primes import ap_error

    primes = [int(p) for p in table.primes_between(1, 2000)]
    cases = [(int(x), int(q)) for x, q in zip(rng.integers(30, 2000, 4),
                                               rng.integers(2, 40, 4))]
    cases.append((int(rng.integers(30, 90)), 97))
    worst = 0.0
    for x, q in cases:
        got, ref = ap_error(table, x, q), _brute_ap_error(primes, x, q)
        worst = max(worst, abs(got - ref) / max(1.0, ref))
    return worst <= 1e-9, f"max relative deviation {worst:.3e} over {cases}"


def check_time_inverse(rng, table):
    """One time_inverse_many batch on the pnt_reparam flow that mixes
    prime times up to 1e6 with small times.  The gate is the solver's own
    contract: max |V(u_i) - t_i| <= 1e-12 (1 + max |t|) over the batch.

    The per-point residual is returned as diagnostics, not gated.  The
    solver stops when the batch maximum meets its tolerance, which can
    leave a small-|t| point far above its own 1e-12 (1 + |t_i|): at
    ``--seed 4`` the point t = -614.5 keeps |V(u) - t| = 1.2e-9 (2 of the
    seeds 0-99 have such a point)."""
    from primeflow.reparam import ReparamFlow, make_timechange
    from primeflow.rotation import construct_alpha

    alpha = construct_alpha("scaled_D", growth=lambda q: q ** 4.0, depth=4,
                            seed=2)
    flow = ReparamFlow(alpha, make_timechange(alpha))
    x1, x2 = 0.31, 0.64  # pnt_reparam's start point
    ps = rng.choice(table.primes, 64).astype(np.float64)
    times = np.concatenate((ps, -ps, np.arange(32.0),
                            rng.uniform(-SIEVE_LIMIT, SIEVE_LIMIT, 32)))
    u = flow.time_inverse_many(times, x1, x2)
    resid = np.abs(flow.cocycle_many(u, x1, x2) - times)
    rel = resid / (1.0 + np.abs(times))
    ok = resid.max() <= 1e-12 * (1.0 + np.abs(times).max())
    diagnostics = {"reparam.max_residual": float(resid.max()),
                   "reparam.max_point_residual": float(rel.max()),
                   "reparam.point_misses": int(np.sum(rel > 1e-12))}
    return ok, (f"max |V(u)-t| {resid.max():.3e}, per point relative "
                f"{rel.max():.3e}"), diagnostics


def sqr_margin(table, params) -> float:
    """min over select_S_qr candidates l of E(x_1, l) / threshold(x_1): how
    far the first dyadic filter step is from admitting any prime (> 1 means
    every candidate is rejected there).  params are an s_qr_build call's,
    with that experiment's defaults."""
    from primeflow.primes import ap_error

    q, r = int(params.get("q", 3)), int(params.get("r", 2))
    N = int(params.get("N", 10 ** 4))
    C, A = float(params.get("C", 10.0)), float(params.get("A", 2.0))
    x1 = int(math.ceil(N ** (0.5 + 0.01)))
    bound = C * x1 / (N * math.log(x1) ** (2 * A))
    cands = table.primes_between(-(-N // 2) - 1, N)
    cands = cands[cands % q == r % q]
    return min(ap_error(table, x1, int(ell)) for ell in cands) / bound


def run_all(seed, table):
    """All spot checks; returns ([(name, ok, detail)], diagnostics)."""
    rng = np.random.default_rng(seed)
    results = []
    diagnostics = {}
    for name, check in (("evaluate_times", check_evaluate_times),
                        ("evaluate", check_evaluate),
                        ("birkhoff_sum_many", check_birkhoff),
                        ("ap_error", lambda g: check_ap_error(g, table)),
                        ("time_inverse_many",
                         lambda g: check_time_inverse(g, table))):
        try:
            ok, detail, *extra = check(rng)
        except Exception as exc:  # a raising check is a failed check
            ok, detail, extra = False, f"raised {exc!r}", []
        if extra:
            diagnostics.update(extra[0])
        results.append((name, bool(ok), detail))
    return results, diagnostics
