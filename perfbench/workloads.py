"""Workload definitions, set-up, timed passes and the golden-report check.

A workload is a fixed list of registered-experiment calls made through the
public entry point ``run_experiment``.  One pass runs every call once and
serializes each report the way ``primeflow run`` does.  The calls use the
fixed experiment seed 0, so every pass sees the same inputs and can be
checked against the stored golden reports.

Nothing here imports primeflow at module import time: ``run.py`` puts the
checkout's ``src`` on ``sys.path`` first and times the import as set-up.
"""

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
SIEVE_LIMIT = 10 ** 6

# Report metrics must match the golden values to this relative tolerance
# (with an absolute floor for metrics that are exactly zero).  Reordering a
# float64 sum over the <= 1e6 orbit terms these workloads use moves a result
# by about 1e6 * 2**-52 ~ 2e-10 relatively; the discrepancy metrics are
# differences of such sums scaled by 1/N, which can amplify that by ~1e3.
# 1e-6 leaves headroom for refactors that reorder arithmetic, while a single
# prime landing on a different fiber moves D1/D3 by more than 1e-6.
RTOL = 1e-6
ATOL = 1e-12


@dataclass(frozen=True)
class Call:
    experiment: str
    params: dict = field(default_factory=dict)
    n_grid: tuple = (10 ** 4, 10 ** 5, 10 ** 6)

    def config(self):
        from primeflow.config import ExperimentConfig

        params = dict(self.params)
        params["threads"] = 1
        return ExperimentConfig(self.experiment, seed=0,
                                sieve_limit=SIEVE_LIMIT, n_grid=self.n_grid,
                                params=params)


@dataclass(frozen=True)
class Workload:
    calls: tuple
    # rotation numbers the calls build: ("scaled_D", exponent, depth, seed)
    # or ("quotients", partial quotient, depth)
    alphas: tuple


WORKLOADS = {
    # The Kochergin flow both ways: pnt_kochergin walks one long orbit with
    # the vectorized evaluate_times; section_claims runs the scalar
    # per-fiber loops (ab_decomposition) over short horizons.
    "kochergin_flow": Workload(
        calls=(Call("pnt_kochergin", n_grid=(10 ** 4, 10 ** 5, 2 * 10 ** 5)),
               Call("section_claims", params={"samples": 4})),
        alphas=(("scaled_D", 2.5, 5, 1), ("scaled_D", 2.0, 5, 2))),
    # No flow: Birkhoff sums at denominator times (dk_bound), then the
    # time-changed torus flow's cocycle inversion and the small ap_error
    # calls of the S_qr filter.
    "birkhoff_reparam": Workload(
        calls=(Call("dk_bound", params={"samples": 10}),
               Call("pnt_reparam"),
               Call("s_qr_build", params={"N": 2 * 10 ** 5})),
        alphas=(("quotients", 1, 16), ("quotients", 2, 16),
                ("scaled_D", 4.0, 4, 2))),
}


def import_package():
    """First half of set-up: the CLI's import graph, numpy and sympy with
    it.  Returns the imported package."""
    import primeflow.cli  # noqa: F401

    return sys.modules["primeflow"]


def build_inputs(workload: Workload):
    """Second half of set-up: the sieve and the workload's rotation numbers.
    Returns the prime table."""
    from primeflow.primes import build_table
    from primeflow.rotation import construct_alpha, from_partial_quotients

    table = build_table(SIEVE_LIMIT)
    for kind, *spec in workload.alphas:
        if kind == "quotients":
            a, depth = spec
            from_partial_quotients([a] * depth)
        else:
            exponent, depth, seed = spec
            construct_alpha(kind, growth=lambda q: q ** exponent, depth=depth,
                            seed=seed)
    return table


def run_call(call: Call, table) -> str:
    """One call through run_experiment, its report serialized as the CLI
    does.  Returns the report JSON text."""
    from primeflow.experiments import run_experiment

    return run_experiment(call.config(), table).to_json()


def run_pass(workload: Workload, table) -> list:
    """One pass: every call once.  Returns the report JSON texts."""
    return [run_call(call, table) for call in workload.calls]


def report_doc(text: str) -> dict:
    """The deterministic part of a report: no wall clock, no versions."""
    doc = json.loads(text)
    return {k: doc[k] for k in ("experiment", "params", "metrics", "verdicts")}


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def compare(docs: list, golden: list) -> list:
    """Differences between a pass's report docs and the golden ones."""
    if len(docs) != len(golden):
        return [f"{len(docs)} reports, golden has {len(golden)}"]
    problems = []
    for doc, ref in zip(docs, golden):
        tag = ref["experiment"]
        for key in ("experiment", "params", "verdicts"):
            if doc[key] != ref[key]:
                problems.append(f"{tag}: {key} {doc[key]} != golden {ref[key]}")
        got = {(m["name"], m["N"], m["z"]): m["value"] for m in doc["metrics"]}
        want = {(m["name"], m["N"], m["z"]): m["value"] for m in ref["metrics"]}
        if got.keys() != want.keys():
            problems.append(f"{tag}: metric rows {sorted(got, key=str)} != "
                            f"golden {sorted(want, key=str)}")
            continue
        for key, value in want.items():
            if not math.isclose(got[key], value, rel_tol=RTOL, abs_tol=ATOL):
                problems.append(f"{tag}: metric {key} = {got[key]!r}, golden "
                                f"{value!r}")
    return problems
