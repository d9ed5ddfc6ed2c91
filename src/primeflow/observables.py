"""Observable banks for the tower and the torus, and prime-orbit statistics.

A tower observable has the shape psi(y, s) = psi_inf + rho(s) u(y) w(s/f(y))
with rho(s) = exp(-s/5) and w = sin^2(pi .): the vanishing of w at both ends
of the fiber makes the value match across the roof identification exactly,
the decay of rho forces convergence to psi_inf high up the tower, and the
pair admits closed-form fiber integrals, so time integrals along the
special flow stay cheap.

Prime-orbit sums walk the whole orbit once per direction: one walk call
returns the positions at every prime time and the time integrals at every N
of the grid together, from a single crossing schedule over the rotation
orbit (special flow: one cumulative roof sum per sign, whose roof values
also give the whole-fiber integrals in closed form) or from one vectorized
cocycle inversion and the closed-form integral (reparametrized flow).  So
total work is linear in the time horizon, and a statistic over an N-grid
reads every N off the prefixes of one pass at the largest N.  The
statistics take either flow, KocherginFlow or reparam.ReparamFlow, through
the five methods both define.
"""

import math
import time as _time
from dataclasses import dataclass

import numpy as np

from .config import ExperimentReport
from .flow import FlowPoint, _walk, evaluate_times, time_integral
from .primes import build_table
from .reparam import ReparamFlow, TorusPoint
from .roofs import _finite

__all__ = [
    "SingularOrbitError",
    "TowerObservable",
    "TorusObservable",
    "KocherginFlow",
    "space_average",
    "coboundary_prime_discrepancy",
    "box_discrepancy",
    "pnt_report",
]

_SIGMA = 5.0  # the decay scale of rho(s) = exp(-s/5)
_H_MAX = 5.0  # the height of the special flow's box grid


class SingularOrbitError(RuntimeError):
    """An orbit point landed on the singular base point (times[index])."""

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class KocherginFlow:
    """The special flow under roof over the rotation by alpha; like ReparamFlow
    it defines positions, time_integral, walk, mean and box_masses."""

    roof: object
    alpha: object

    def positions(self, start: FlowPoint, times):
        """Coordinate arrays (x, s) of T_t(start) for every t in times;
        SingularOrbitError if one lands on the fiber over a singular 0."""
        xs, ss, _ = evaluate_times(self.roof, self.alpha, start, times)
        return self._off_singular(xs), ss

    def walk(self, psi, start: FlowPoint, times, T):
        """positions(start, times) and time_integral(psi, start, T) together,
        from one crossing schedule per sign over the times and T."""
        xs, ss, _, I = _walk(self.roof, self.alpha, start, times, psi, T)
        return (self._off_singular(xs), ss), I

    def _off_singular(self, xs):
        dist = np.minimum(xs, 1.0 - xs)
        if getattr(self.roof, "gamma", 0.0) < 0.0 and np.any(dist < 1e-12):
            i = int(np.argmin(dist))
            raise SingularOrbitError(
                f"orbit lands on the singular point at times[{i}]", i)
        return xs

    def mean(self, psi) -> float:
        """Mean of psi under the normalized invariant measure Leb^f / int f."""
        return space_average(psi, self.roof)

    def time_integral(self, psi, start: FlowPoint, T):
        """Signed int_0^T psi(T_t start) dt for a scalar or an array of T."""
        return time_integral(self.roof, self.alpha, psi, start, T)

    def box_masses(self, boxes: int):
        """Masses of the boxes [i/boxes, (i+1)/boxes) x [j dh, (j+1) dh) under
        Leb^f / int f, the mass above them and their height 5 = boxes * dh.

        The area is roof.integral() and the mass above is the rest of it,
        so the mass of both end slivers [0, delta] and [1 - delta, 1]
        (delta = 2^-45), which no node reaches, lands above: all of it
        belongs there under a singular roof, and under a bounded one it
        adds at most 2 delta sup f (5.7e-14 sup f) that belongs below."""
        cuts = np.unique(np.clip(
            np.concatenate((_graded_edges(), np.arange(boxes + 1) / boxes)),
            _DELTA, 1.0 - _DELTA))
        pts, wts = _gauss_nodes(cuts, 24)
        fv = np.minimum(np.asarray(self.roof(pts), dtype=np.float64), _H_MAX)
        cols = np.minimum((pts * boxes).astype(int), boxes - 1)
        dh = _H_MAX / boxes
        masses = np.zeros((boxes, boxes))
        for j in range(boxes):
            covered = np.clip(fv - j * dh, 0.0, dh)
            np.add.at(masses[:, j], cols, wts * covered)
        area = self.roof.integral()
        return masses / area, (area - float(np.dot(wts, fv))) / area, _H_MAX


def _trig_eval(terms, y):
    y = np.asarray(y, dtype=np.float64)
    out = np.zeros_like(y)
    for k, a, b in terms:
        ang = 2.0 * math.pi * k * y
        out = out + a * np.cos(ang) + b * np.sin(ang)
    return out


def _rho(s):
    return np.exp(-np.asarray(s, dtype=np.float64) / _SIGMA)


def _w(r):
    return np.sin(math.pi * np.asarray(r, dtype=np.float64)) ** 2


class TowerObservable:
    """psi(y, s) = psi_inf + rho(s) u(y) w(s / f(y)) on the tower over f,
    with rho(s) = exp(-s/5) and w = sin^2(pi .).

    u is a trig polynomial given as (frequency, cos coeff, sin coeff)
    triples.  For any u, w(0) = w(1) = 0 makes psi match across the roof
    and tend to psi_inf at fixed s where f blows up, and |psi - psi_inf| <=
    exp(-s/5) sum |coeff|; so only psi_inf and the coefficients are checked,
    for being finite.

    Time integrals along the special flow take the fibers the orbit crosses
    whole from whole_fiber_integral_many, on the roof values the walk
    already holds, and the partial fibers at both ends from
    fiber_integral_many.
    """

    def __init__(self, roof, psi_inf=0.0, u_terms=((1, 1.0, 0.0),)):
        self.psi_inf = float(_finite("psi_inf", psi_inf))
        self.roof = roof
        self.u_terms = tuple((int(k), float(a), float(b)) for k, a, b in u_terms)
        _finite("u_terms coefficient", [t[1:] for t in self.u_terms])

    def u(self, y):
        return _trig_eval(self.u_terms, y)

    def __call__(self, y, s):
        y = np.asarray(y, dtype=np.float64)
        s = np.asarray(s, dtype=np.float64)
        fy = np.asarray(self.roof(y), dtype=np.float64)
        return self.psi_inf + _rho(s) * self.u(y) * _w(s / fy)

    # -- fiber integrals ----------------------------------------------------

    def fiber_integral_many(self, y, lo, hi):
        """int_lo^hi psi(y, s) ds in closed form, elementwise over the
        broadcast of y, lo and hi."""
        y = np.asarray(y, dtype=np.float64)
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        fy = np.asarray(self.roof(y), dtype=np.float64)
        a = 1.0 / _SIGMA
        omega = 2.0 * math.pi / fy
        # int e^{-as} sin^2(pi s / f) = (1/2) int e^{-as} (1 - cos(omega s))
        plain = (np.exp(-a * lo) - np.exp(-a * hi)) / a
        z = -a + 1j * omega
        cospart = np.real((np.exp(z * hi) - np.exp(z * lo)) / z)
        decay = 0.5 * (plain - cospart)
        return self.psi_inf * (hi - lo) + self.u(y) * decay

    def whole_fiber_integral_many(self, y, f):
        """int_0^f psi(y, s) ds for the roof values f = f(y), elementwise.

        With e^{i omega f} = 1 the oscillating part of fiber_integral_many
        is real, and the decay integral is (1 - e^{-af}) (1/a - a / (a^2 +
        omega^2)) / 2, a = 1/5, omega = 2 pi / f: one expm1 per fiber and no
        roof evaluation."""
        f = np.asarray(f, dtype=np.float64)
        a = 1.0 / _SIGMA
        w2 = (2.0 * math.pi / f) ** 2
        decay = -0.5 * np.expm1(-a * f) * (_SIGMA - a / (a * a + w2))
        return self.psi_inf * f + self.u(y) * decay


class TorusObservable:
    """Real trig polynomial c0 + Re sum c e(q x1 + m x2) on the torus."""

    def __init__(self, constant=0.0, terms=()):
        self.constant = float(_finite("constant", constant))
        self.terms = tuple((int(q), int(m), complex(c)) for q, m, c in terms)
        _finite("c", [c for _, _, c in self.terms])
        for q, m, _ in self.terms:
            if q == 0 and m == 0:
                raise ValueError("fold the (0, 0) mode into the constant")

    def __call__(self, x1, x2):
        x1 = np.asarray(x1, dtype=np.float64)
        x2 = np.asarray(x2, dtype=np.float64)
        out = np.full(np.broadcast(x1, x2).shape, self.constant)
        for q, m, c in self.terms:
            out = out + np.real(c * np.exp(2j * math.pi * (q * x1 + m * x2)))
        return out

    def mean(self, v=None) -> float:
        """Exact mean: against Lebesgue when v is None, else against the
        invariant density v of a time change (mean of v is 1)."""
        if v is None:
            return self.constant
        total = self.constant
        for q, m, c in self.terms:
            for qv, mv, a in v.terms:
                if (q, m) == (qv, mv):
                    total += 0.5 * (c * a.conjugate()).real
                elif (q, m) == (-qv, -mv):
                    total += 0.5 * (c * a).real
        return total


# ---------------------------------------------------------------------------
# space averages


_DELTA = 2.0 ** -45


def _graded_edges():
    """Geometric mesh on [delta, 1 - delta], refined toward both ends.  The
    two end slivers of width delta are left out, so no quadrature node ever
    rounds onto the singular point."""
    left = _DELTA * 2.0 ** np.arange(45)
    left = np.concatenate((left[left < 0.5], [0.5]))
    return np.unique(np.concatenate((left, 1.0 - left[::-1])))


def _gauss_nodes(edges, nodes):
    """Points and weights of the nodes-point Gauss-Legendre rule on each
    cell of the mesh edges, cell after cell."""
    y, w = np.polynomial.legendre.leggauss(nodes)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    return ((mid[:, None] + half[:, None] * y).ravel(),
            (half[:, None] * w).ravel())


def space_average(psi: TowerObservable, roof) -> float:
    """Mean of psi over the tower, int_0^1 int_0^f(y) psi ds dy divided by
    the area roof.integral(), to relative tolerance 1e-6.

    The mean is psi_inf plus the integral of F(y) - psi_inf f(y), F the
    fiber integral, over the area.  That integrand is u(y) times a fiber
    integral of the decay, bounded and vanishing where the roof blows up,
    so the end slivers the y-mesh leaves out carry nothing of note; the
    mesh still refines toward both ends, where the roof varies fastest."""
    edges = _graded_edges()
    cells = None
    for nodes in (16, 32, 64):
        prev = cells
        ys, wts = _gauss_nodes(edges, nodes)
        fys = np.asarray(roof(ys), dtype=np.float64)
        excess = psi.fiber_integral_many(ys, 0.0, fys) - psi.psi_inf * fys
        cells = (wts * excess).reshape(-1, nodes).sum(axis=1)
        num = float(cells.sum())
        if prev is not None and abs(num - prev.sum()) <= 1e-6 * (1.0 + abs(num)):
            return psi.psi_inf + num / roof.integral()
    worst = int(np.argmax(np.abs(cells - prev)))
    raise RuntimeError(
        "space average quadrature failed to converge; worst cell "
        f"[{edges[worst]:.3e}, {edges[worst + 1]:.3e}]")


# ---------------------------------------------------------------------------
# prime-orbit sums


def _sign(direction) -> float:
    if direction not in ("+", "-"):
        raise ValueError(f"direction must be '+' or '-', got {direction!r}")
    return 1.0 if direction == "+" else -1.0


def _prime_points(flow, psi, start, table, N, z, m, T=()):
    """flow.walk at the times z(p - m), p <= N, and T: the positions at those
    times and the signed time integrals of psi at T; and the weights log p."""
    ps = table.primes_between(1, N)
    times = _sign(z) * (ps.astype(np.float64) - float(m))
    try:
        out = flow.walk(psi, start, times, T)
    except SingularOrbitError as err:
        raise SingularOrbitError(
            f"orbit lands on the singular point at prime {int(ps[err.index])}",
            err.index) from None
    return out, np.log(ps.astype(np.float64))


def _integer_orbit_values(flow, g, x, M: int):
    """g evaluated along x, T_1 x, ..., T_M x in one positions call."""
    steps = np.arange(M + 1, dtype=np.float64)
    return np.asarray(g(*flow.positions(x, steps)), dtype=np.float64)


def coboundary_prime_discrepancy(flow: ReparamFlow, g, depth: int,
                                 x: TorusPoint, N, table=None):
    """|sum_{p <= N} psi(T_p x) log p| / N for the coboundary observable
    psi = h - h o T_1 built from g by depth-fold averaging, for an int N or
    each N of a sequence.

    psi at every integer orbit time up to the largest N is one moving sum
    over precomputed orbit values of g, the difference of one cumulative
    sum, so every N reads a prefix of a single vectorized pass.  The invariant
    mean of psi is zero, so this is the full space-vs-prime discrepancy.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    Ns = np.atleast_1d(np.asarray(N, dtype=np.int64))
    if np.any(Ns < 1):
        raise ValueError(f"N must be >= 1, got {int(np.min(Ns))}")
    top = int(np.max(Ns, initial=0))
    if table is None:
        table = build_table(top)
    gv = _integer_orbit_values(flow, g, x, top + depth)
    # h(T_j x) = -(1/depth) sum_{i=0..depth-1} (depth - i) g(T_{j+i} x), so
    # psi(T_j x) = h(T_j x) - h(T_{j+1} x) = -g_j + (1/depth) sum_{i=1..depth} g_{j+i}
    cs = np.cumsum(gv)
    psi = (cs[depth:] - cs[: top + 1]) / depth - gv[: top + 1]
    ps = table.primes_between(1, top)
    weights = np.log(ps.astype(np.float64))
    vals = psi[ps]  # psi at the prime times
    out = np.array([abs(float(np.dot(weights[:k], vals[:k]))) / int(n)
                    for n, k in zip(Ns, np.searchsorted(ps, Ns, side="right"))])
    return float(out[0]) if np.ndim(N) == 0 else out


# ---------------------------------------------------------------------------
# equidistribution box counts


def _check_boxes(boxes):
    if boxes < 1:
        raise ValueError(f"boxes must be >= 1, got {boxes}")


def box_discrepancy(points, weights, flow, boxes=32) -> float:
    """Max deviation, over a boxes^2 partition, between the weighted
    empirical measure of the orbit points and the invariant measure.

    The cells are those of flow.box_masses.  For the special flow they cover
    the tower up to height 5 and the mass above it enters as one extra cell,
    with its reference value computed analytically from the roof.  The
    points (x, y) must lie in [0, 1) x [0, inf), one finite weight >= 0 to
    each, with a total weight > 0.
    """
    _check_boxes(boxes)
    return _box_discrepancy(points, weights, flow.box_masses(boxes), boxes)


def _box_discrepancy(points, weights, masses, boxes):
    """box_discrepancy against masses = flow.box_masses(boxes)."""
    xs, ys = (np.asarray(c, dtype=np.float64) for c in points)
    weights = np.asarray(weights, dtype=np.float64)
    if not np.shape(xs) == np.shape(ys) == np.shape(weights):
        raise ValueError(
            f"points and weights must match in length, got {np.size(xs)} x, "
            f"{np.size(ys)} y and {np.size(weights)} weights")
    bad = ~(np.isfinite(weights) & (weights >= 0.0))
    if np.any(bad):
        raise ValueError(
            f"weights must be finite and >= 0, got {weights[bad][0]}")
    bad = ~((xs >= 0.0) & (xs < 1.0) & (ys >= 0.0) & (ys < math.inf))
    if np.any(bad):
        raise ValueError("points must lie in [0, 1) x [0, inf), got "
                         f"({xs[bad][0]}, {ys[bad][0]})")
    total = weights.sum()
    if not 0.0 < total < math.inf:
        raise ValueError(f"total weight must be finite and > 0, got {total}")
    weights = weights / total
    ref, ref_tail, height = masses
    emp = np.zeros((boxes, boxes))
    inside = ys < height
    i = np.minimum((xs[inside] * boxes).astype(int), boxes - 1)
    j = np.minimum((ys[inside] / (height / boxes)).astype(int), boxes - 1)
    np.add.at(emp, (i, j), weights[inside])
    emp_tail = float(weights[~inside].sum())
    return float(max(np.max(np.abs(emp - ref)), abs(emp_tail - ref_tail)))


# ---------------------------------------------------------------------------
# the full report


def pnt_report(psi, flow, start, n_grid=(10 ** 4, 10 ** 5, 10 ** 6),
               directions=("+", "-"), m=0, table=None, boxes=32,
               log_power=None, workers=1) -> ExperimentReport:
    """Discrepancy statistics of the prime-orbit sums across an N-grid.

    The orbit is read at the times z (p - m) for a shift m >= 0.  For each
    N and each of the distinct directions z the report records D1 (prime
    sum vs time integral), D2 (time integral vs space average), D3 (prime
    sum vs space average), all divided by N, plus the box-counting
    discrepancy of the weighted "+" prime orbit against the invariant
    measure.  When log_power A is given, D3 log^A N is recorded as well.
    On a grid of two points or more, verdicts assert the monotone trends
    along it.  Each direction,
    and "+" always for the boxes, makes one pass at the largest N (one
    flow.walk call, for the prime positions and the time integrals at z N
    together) whose prefixes answer every N; with workers > 1 the two
    direction passes run on a thread pool.  The box masses are computed once.
    The report is named "pnt_report"; the registered experiments rename
    theirs.
    """
    t0 = _time.monotonic()
    if m < 0:
        raise ValueError(f"shift m must be >= 0, got {m}")
    if not directions or len(set(directions)) < len(directions):
        raise ValueError(
            f"directions must be non-empty and distinct, got {directions!r}")
    _check_boxes(boxes)
    n_grid = tuple(sorted(int(n) for n in n_grid))
    signs = {z: _sign(z) for z in ("+",) + tuple(directions)}
    top = max(n_grid, default=0)
    if table is None:
        table = build_table(top)
    mean = flow.mean(psi)
    report = ExperimentReport(
        experiment="pnt_report",
        params={"n_grid": list(n_grid), "directions": list(directions),
                "m": m, "boxes": boxes})
    report.add("space_average", mean)
    counts = np.searchsorted(table.primes, n_grid, side="right")

    def run_pass(z):
        """The prime positions up to the largest N and, for a requested
        direction, (D1, D2, D3) at every N."""
        T = signs[z] * np.array(n_grid if z in directions else (), float)
        (pts, Is), weights = _prime_points(flow, psi, start, table, top, z, m,
                                           T)
        if z not in directions:
            return pts, weights, None
        vals = np.asarray(psi(*pts), dtype=np.float64)
        Is = signs[z] * Is
        cells = []
        for N, k, I in zip(n_grid, counts, Is.tolist()):
            P = float(np.dot(weights[:k], vals[:k]))
            cells.append((abs(P - I) / N, abs(I - N * mean) / N,
                          abs(P - N * mean) / N))
        return pts, weights, cells

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            passes = dict(zip(signs, pool.map(run_pass, signs)))
    else:
        passes = {z: run_pass(z) for z in signs}

    cells = {z: passes[z][2] for z in directions}
    for i, N in enumerate(n_grid):
        for z in directions:
            d1, d2, d3 = cells[z][i]
            report.add("D1", d1, N, z)
            report.add("D2", d2, N, z)
            report.add("D3", d3, N, z)
            if log_power is not None:
                report.add("D3_logA", d3 * math.log(N) ** log_power, N, z)
    (xs, ys), weights, _ = passes["+"]
    masses = flow.box_masses(boxes)
    box_out = [_box_discrepancy((xs[:k], ys[:k]), weights[:k], masses, boxes)
               for k in counts]
    for N, box in zip(n_grid, box_out):
        report.add("box_discrepancy", box, N, "+")
    def decreasing(seq):
        return all(b < a for a, b in zip(seq, seq[1:]))
    if len(n_grid) >= 2:
        d1_max = [max(cells[z][i][0] for z in directions)
                  for i in range(len(n_grid))]
        report.verdicts["D1_trend"] = "pass" if decreasing(d1_max) else "fail"
        for z in directions:
            report.verdicts[f"D2_trend_{z}"] = (
                "pass" if decreasing([c[1] for c in cells[z]]) else "fail")
        report.verdicts["box_halving"] = (
            "pass" if box_out[-1] <= 0.5 * box_out[0] else "fail")
    report.wall_clock = _time.monotonic() - t0
    return report
