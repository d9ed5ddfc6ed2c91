"""Spans and work counters around primeflow's layer entry points.

The tracer patches the package from outside: a module-level function is
replaced at every binding site (``from .flow import evaluate_times`` in
another module makes a second binding), a method on its class.  ``remove``
restores the originals, so untraced passes run the unmodified code.  A
target the package no longer has is recorded as absent, not an error.

A span is ``[name, start, end, parent index]``; a layer's self time is its
spans' durations minus the time their direct children cover.
"""

import functools
import sys
import time
from collections import defaultdict

import numpy as np


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def _count_offsets(tracer, args, kwargs, out, cached_before):
    # flow._offsets caches its array on the rotation number and regrows it
    # from index 0 on a miss; count the points the loop actually generated.
    cached = getattr(args[0], _offsets_key(args, kwargs), None)
    if cached is None:
        tracer.count("rotation.orbit_points", len(out))
    elif cached is not cached_before:
        tracer.count("rotation.orbit_points", len(cached))


def _offsets_key(args, kwargs):
    back = _arg(args, kwargs, 2, "backward", False)
    return "_pf_offsets_back" if back else "_pf_offsets_fwd"


def _before_offsets(args, kwargs):
    return getattr(args[0], _offsets_key(args, kwargs), None)


def _count_roof(tracer, args, kwargs, out, _):
    n = np.size(args[1])
    tracer.count("roofs.eval_points", n)
    if tracer.open_count("flow.evaluate_times"):
        tracer.count("flow.evaluate_times_roof_points", n)


def _count_birkhoff(tracer, args, kwargs, out, _):
    n = _arg(args, kwargs, 1, "n")
    if n > 0:  # n < 0 recurses once with -n, which counts the terms
        tracer.count("roofs.birkhoff_terms", n)


def _count_birkhoff_many(tracer, args, kwargs, out, _):
    n = _arg(args, kwargs, 1, "n")
    tracer.count("roofs.birkhoff_terms", n * np.size(_arg(args, kwargs, 2, "xs")))


def _count_fibers(tracer, args, kwargs, out, _):
    Ns = out[2]
    if np.size(Ns):
        tracer.count("flow.fibers_reached", int(np.max(np.abs(Ns))) + 1)


def _counter(key, size_arg=None):
    def count(tracer, args, kwargs, out, _):
        tracer.count(key, 1 if size_arg is None else np.size(args[size_arg]))
    return count


def _count_time_inverse(tracer, args, kwargs, out, _):
    tracer.count("reparam.time_inverse_points", np.size(out))


# (span name or None for a counter only, module, attribute, counter, pre-hook)
TARGETS = (
    ("rotation.orbit", "primeflow.flow", "_offsets", _count_offsets,
     _before_offsets),
    ("rotation.orbit", "primeflow.roofs", "_orbit_offsets",
     lambda tr, a, k, out, _: tr.count("rotation.orbit_points", len(out)),
     None),
    ("rotation.construct", "primeflow.rotation", "construct_alpha", None, None),
    ("rotation.construct", "primeflow.rotation", "from_partial_quotients",
     None, None),
    ("primes.sieve", "primeflow.primes", "build_table", None, None),
    ("primes.gather", "primeflow.primes", "PrimeTable.primes_between",
     _counter("primes.gather_calls"), None),
    ("primes.ap_error", "primeflow.primes", "ap_error",
     _counter("primes.ap_error_calls"), None),
    ("roofs.eval", "primeflow.roofs", "PowerRoof.__call__", _count_roof, None),
    ("roofs.eval", "primeflow.roofs", "FourierRoof.__call__", _count_roof, None),
    ("roofs.birkhoff", "primeflow.roofs", "birkhoff_sum", _count_birkhoff, None),
    ("roofs.birkhoff", "primeflow.roofs", "birkhoff_sum_many",
     _count_birkhoff_many, None),
    ("flow.evaluate_times", "primeflow.flow", "evaluate_times", _count_fibers,
     None),
    ("flow.evaluate", "primeflow.flow", "evaluate", None, None),
    ("flow.time_integral", "primeflow.flow", "time_integral", None, None),
    ("flow.ab_decomposition", "primeflow.flow", "ab_decomposition", None, None),
    ("reparam.time_inverse", "primeflow.reparam",
     "ReparamFlow.time_inverse_many", _count_time_inverse, None),
    (None, "primeflow.reparam", "ReparamFlow.cocycle_many",
     _counter("reparam.cocycle_calls"), None),
    ("observables.space_average", "primeflow.observables", "space_average",
     None, None),
    ("observables.fiber_integral", "primeflow.observables",
     "TowerObservable.fiber_integral_many",
     _counter("observables.fiber_integral_points", 1), None),
    ("observables.box", "primeflow.observables", "box_discrepancy", None, None),
    ("observables.prime_orbit_sum", "primeflow.observables", "prime_orbit_sum",
     None, None),
    ("observables.coboundary", "primeflow.observables",
     "coboundary_prime_discrepancy", None, None),
    ("config.report", "primeflow.config", "ExperimentReport.add", None, None),
    ("config.report", "primeflow.config", "ExperimentReport.to_json", None,
     None),
)

ROOT = "experiments"
LAYERS = sorted({t[0] for t in TARGETS if t[0]} | {ROOT})


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.absent = []
        self._stack = []
        self._open = defaultdict(int)
        self._patches = []

    # -- recording ----------------------------------------------------------

    def count(self, key, n=1):
        self.counts[key] += int(n)

    def open_count(self, name) -> int:
        return self._open[name]

    def begin(self, name) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        i = len(self.spans) - 1
        self._stack.append(i)
        self._open[name] += 1
        return i

    def end(self, i):
        self.spans[i][2] = time.perf_counter()
        self._stack.pop()
        self._open[self.spans[i][0]] -= 1

    # -- patching -----------------------------------------------------------

    def install(self):
        self.absent = []
        for name, module, attr, count, pre in TARGETS:
            mod = sys.modules.get(module)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = vars(owner).get(leaf) if owner is not None else None
            if original is None:
                self.absent.append(f"{module}.{attr}")
                continue
            wrapped = self._wrap(name, original, count, pre)
            if owner_name:
                self._patch(owner, leaf, wrapped)
                continue
            for m in list(sys.modules.values()):
                if getattr(m, "__name__", "").split(".")[0] != "primeflow":
                    continue
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapped)

    def remove(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    def _patch(self, owner, key, value):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _wrap(self, name, fn, count, pre):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = pre(args, kwargs) if pre else None
            i = tracer.begin(name) if name else None
            try:
                out = fn(*args, **kwargs)
            finally:
                if i is not None:
                    tracer.end(i)
            if count:
                count(tracer, args, kwargs, out, state)
            return out

        return traced


def self_times(spans, lo, hi) -> dict:
    """Self time per span name over spans[lo:hi], a range that holds the
    parents of its spans."""
    covered = defaultdict(float)
    for name, t0, t1, parent in spans[lo:hi]:
        if parent is not None:
            covered[parent] += t1 - t0
    out = defaultdict(float)
    for i in range(lo, hi):
        name, t0, t1, _ = spans[i]
        out[name] += (t1 - t0) - covered[i]
    return out
