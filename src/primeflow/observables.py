"""Observable banks for the tower and the torus, and prime-orbit statistics.

A tower observable has the shape psi(y, s) = psi_inf + rho(s) u(y) w(s/f(y))
with rho(s) = exp(-s/5) and w = sin^2(pi .): the vanishing of w at both ends
of the fiber makes the value match across the roof identification exactly,
the decay of rho forces convergence to psi_inf high up the tower, and the
pair admits closed-form fiber integrals, so time integrals along the
special flow stay cheap.

Prime-orbit sums walk the whole orbit once per direction: one walk call
returns the positions at every prime time and the time integrals at every N
of the grid together, from one crossing schedule per sign over the rotation
orbit (special flow; its roof values also give the whole-fiber integrals in
closed form) or from one rigidity period table per start point, read at
every integral time, and closed-form integrals (reparametrized flow).  So
work is linear in the time horizon, and a statistic over an N-grid reads
every N off the prefixes of one pass at the largest N.  The statistics take
either flow, KocherginFlow or reparam.ReparamFlow, through the three
methods both define: walk, mean and box_masses.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import ExperimentReport
from .flow import FlowPoint, _same_roof, _walk
from .roofs import TorusObservable, _trig_sum
from .rotation import _finite, _integral

__all__ = [
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
_BOXES = 32  # pnt_report counts the prime orbit on a _BOXES x _BOXES grid


@dataclass(frozen=True)
class KocherginFlow:
    """The special flow under roof over the rotation by alpha; like ReparamFlow
    it defines walk, mean and box_masses."""

    roof: object
    alpha: object

    def walk(self, psi, start: FlowPoint, times, T):
        """The coordinate arrays (x, s) of T_t(start) at every t in times and
        the signed int_0^T psi(T_t start) dt at every T in T, from one
        crossing schedule per sign over the times and T; SingularityError,
        naming the time, if the orbit reaches a fiber whose roof raises it."""
        xs, ss, _, I, _ = _walk(self.roof, self.alpha, start, times, psi, T)
        return (xs, ss), I

    def mean(self, psi) -> float:
        """Mean of psi under the normalized invariant measure Leb^f / int f."""
        return space_average(psi, self.roof)

    def box_masses(self, boxes: int):
        """Masses of the boxes [i/boxes, (i+1)/boxes) x [j dh, (j+1) dh) under
        Leb^f / int f, the mass above them and their height 5 = boxes * dh.

        The area is roof.integral() and the mass above is the rest of it,
        so the mass of both end slivers [0, delta] and [1 - delta, 1]
        (delta = 2^-45), which no node reaches, lands above: all of it
        belongs there under a singular roof, and under a bounded one it
        adds at most 2 delta sup f (5.7e-14 sup f) that belongs below."""
        boxes = _integral("boxes", boxes, 1)
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


def _rho(s):
    return np.exp(-np.asarray(s, dtype=np.float64) / _SIGMA)


def _w(r):
    """w(r) = sin^2(pi r) = 1/2 - cos(2 pi r) / 2, from one _trig_sum: over
    24,000 points it errs from the exact value at the float r by at most
    2.5e-16 (1.12 eps)."""
    r = np.asarray(r, dtype=np.float64)
    out = _trig_sum(np.full_like(r, 0.5), (r,), ((-0.5, (1,)),))
    return out if out.ndim else float(out)


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
        self.u_terms = tuple((_integral("u_terms k", k), float(a), float(b))
                             for k, a, b in u_terms)
        _finite("u_terms coefficient", [t[1:] for t in self.u_terms])

    def u(self, y):
        y = np.asarray(y, dtype=np.float64)
        return _trig_sum(np.zeros_like(y), (y,), ((complex(a, -b), (k,))
                                                  for k, a, b in self.u_terms))

    def __call__(self, y, s):
        y = np.asarray(y, dtype=np.float64)
        s = np.asarray(s, dtype=np.float64)
        fy = np.asarray(self.roof(y), dtype=np.float64)
        return self.psi_inf + _rho(s) * self.u(y) * _w(s / fy)

    # -- fiber integrals ----------------------------------------------------

    def fiber_integral_many(self, y, h):
        """int_0^h psi(y, s) ds in closed form, elementwise over the
        broadcast of y and h."""
        y = np.asarray(y, dtype=np.float64)
        h = np.asarray(h, dtype=np.float64)
        fy = np.asarray(self.roof(y), dtype=np.float64)
        a = 1.0 / _SIGMA
        omega = 2.0 * math.pi / fy
        # int e^{-as} sin^2(pi s / f) = (1/2) int e^{-as} (1 - cos(omega s))
        plain = (1.0 - np.exp(-a * h)) / a
        z = -a + 1j * omega
        cospart = np.real((np.exp(z * h) - 1.0) / z)
        decay = 0.5 * (plain - cospart)
        return self.psi_inf * h + self.u(y) * decay

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


@functools.cache
def _gauss_rule(nodes: int):
    """np.polynomial.legendre.leggauss(nodes), computed once per node count
    and kept as read-only arrays."""
    y, w = np.polynomial.legendre.leggauss(nodes)
    y.flags.writeable = w.flags.writeable = False
    return y, w


def _gauss_nodes(edges, nodes):
    """Points and weights of the nodes-point Gauss-Legendre rule on each
    cell of the mesh edges, cell after cell."""
    y, w = _gauss_rule(nodes)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    return ((mid[:, None] + half[:, None] * y).ravel(),
            (half[:, None] * w).ravel())


def space_average(psi: TowerObservable, roof) -> float:
    """Mean of psi over the tower, int_0^1 int_0^f(y) psi ds dy divided by
    the area roof.integral(), to relative tolerance 1e-6.

    The mean is psi_inf plus the integral of F(y) - psi_inf f(y), F the
    whole-fiber integral, over the area.  That integrand is u(y) times a
    fiber integral of the decay, bounded and vanishing where the roof blows
    up, so the end slivers the y-mesh leaves out carry nothing of note; the
    mesh still refines toward both ends, where the roof varies fastest.
    psi must be built on this roof."""
    _same_roof(psi, roof)
    edges = _graded_edges()
    cells = None
    for nodes in (16, 32, 64):
        prev = cells
        ys, wts = _gauss_nodes(edges, nodes)
        fys = np.asarray(roof(ys), dtype=np.float64)
        excess = psi.whole_fiber_integral_many(ys, fys) - psi.psi_inf * fys
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


def coboundary_prime_discrepancy(flow, g, depth: int, x, N, table):
    """|sum_{p <= N} psi(T_p x) log p| / N for the coboundary observable
    psi = h - h o T_1 built from g by depth-fold averaging, for an int N or
    each N of a sequence.  g is an observable of the flow, which walks its
    integer orbit.

    g at every integer orbit time up to the largest N plus depth comes from
    one flow.walk at the integer times, and psi there is one moving sum over
    those values, the difference of one cumulative sum, so every N reads a
    prefix of a single vectorized pass.  The invariant mean of psi is zero,
    so this is the full space-vs-prime discrepancy.
    """
    depth = _integral("depth", depth, 1)
    Ns = np.atleast_1d(_integral("N", N, 1))
    top = int(np.max(Ns, initial=0))
    gv = g(*flow.walk(g, x, np.arange(top + depth + 1), ())[0])
    # h(T_j x) = -(1/depth) sum_{i=0..depth-1} (depth - i) g(T_{j+i} x), so
    # psi(T_j x) = h(T_j x) - h(T_{j+1} x) = -g_j + (1/depth) sum_{i=1..depth} g_{j+i}
    cs = np.cumsum(gv)
    ps = table.primes_between(1, top)
    weights = np.log(ps.astype(np.float64))
    vals = (cs[ps + depth] - cs[ps]) / depth - gv[ps]  # psi at the primes
    out = np.array([abs(float(np.dot(weights[:k], vals[:k]))) / int(n)
                    for n, k in zip(Ns, np.searchsorted(ps, Ns, side="right"))])
    return float(out[0]) if np.ndim(N) == 0 else out


# ---------------------------------------------------------------------------
# equidistribution box counts


def box_discrepancy(points, weights, masses) -> float:
    """Max deviation, over a boxes^2 partition, between the weighted
    empirical measure of the orbit points and the invariant measure.

    masses is the (cell masses, mass above, height) triple that
    flow.box_masses(boxes) returns, and boxes is read from its shape.  For
    the special flow the cells cover the tower up to height 5 and the mass
    above it enters as one extra cell, with its reference value computed
    analytically from the roof.  The points (x, y) must lie in [0, 1) x
    [0, inf), one finite weight >= 0 to each, with a total weight > 0.
    """
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
    boxes = len(ref)
    emp = np.zeros((boxes, boxes))
    inside = ys < height
    i = np.minimum((xs[inside] * boxes).astype(int), boxes - 1)
    j = np.minimum((ys[inside] / (height / boxes)).astype(int), boxes - 1)
    np.add.at(emp, (i, j), weights[inside])
    emp_tail = float(weights[~inside].sum())
    return float(max(np.max(np.abs(emp - ref)), abs(emp_tail - ref_tail)))


# ---------------------------------------------------------------------------
# the full report


def pnt_report(psi, flow, start, n_grid, table,
               log_power=None) -> ExperimentReport:
    """Discrepancy statistics of the prime-orbit sums across an N-grid.

    The orbit is read at the times +p and -p.  For each N and each direction
    z the report records D1 (prime sum vs time integral), D2 (time integral
    vs space average), D3 (prime sum vs space average), all divided by N,
    plus the box-counting discrepancy of the weighted "+" prime orbit on the
    32 x 32 grid of flow.box_masses.  When log_power A is given, D3 log^A N
    is recorded as well.  On a grid of two points or more, verdicts assert
    the monotone trends along it.  The grid must hold distinct integers N >=
    2, and the prime table must reach the largest.  Each direction makes one
    pass at the largest N (one flow.walk call, for the prime positions and
    the time integrals at z N together) whose prefixes answer every N.  The
    report is named "pnt_report"; the registered experiments rename theirs.
    """
    n_grid = tuple(sorted(np.atleast_1d(_integral("n_grid", n_grid, 2)).tolist()))
    if not n_grid:
        raise ValueError("n_grid must hold at least one N, got none")
    for a, b in zip(n_grid, n_grid[1:]):
        if a == b:
            raise ValueError(f"n_grid repeats N = {a}")
    signs = {"+": 1, "-": -1}
    top = n_grid[-1]
    mean = flow.mean(psi)
    report = ExperimentReport(
        experiment="pnt_report",
        params={"n_grid": list(n_grid), "directions": list(signs), "m": 0,
                "boxes": _BOXES})
    report.add("space_average", mean)
    ps = table.primes_between(1, top)
    weights = np.log(ps)
    counts = np.searchsorted(ps, n_grid, side="right")
    cells = {}
    for z, sign in signs.items():
        pts, Is = flow.walk(psi, start, sign * ps,
                            sign * np.array(n_grid, float))
        if z == "+":
            xs, ys = pts
        vals = np.asarray(psi(*pts), dtype=np.float64)
        cells[z] = []
        for N, k, I in zip(n_grid, counts, (sign * Is).tolist()):
            P = float(np.dot(weights[:k], vals[:k]))
            cells[z].append((abs(P - I) / N, abs(I - N * mean) / N,
                             abs(P - N * mean) / N))
    for i, N in enumerate(n_grid):
        for z in signs:
            d1, d2, d3 = cells[z][i]
            report.add("D1", d1, N, z)
            report.add("D2", d2, N, z)
            report.add("D3", d3, N, z)
            if log_power is not None:
                report.add("D3_logA", d3 * math.log(N) ** log_power, N, z)
    masses = flow.box_masses(_BOXES)
    box_out = [box_discrepancy((xs[:k], ys[:k]), weights[:k], masses)
               for k in counts]
    for N, box in zip(n_grid, box_out):
        report.add("box_discrepancy", box, N, "+")
    def decreasing(seq):
        return all(b < a for a, b in zip(seq, seq[1:]))
    if len(n_grid) >= 2:
        d1_max = [max(cells[z][i][0] for z in signs)
                  for i in range(len(n_grid))]
        report.verdict("D1_trend", decreasing(d1_max))
        for z in signs:
            report.verdict(f"D2_trend_{z}",
                           decreasing([c[1] for c in cells[z]]))
        report.verdict("box_halving", box_out[-1] <= 0.5 * box_out[0])
    return report
