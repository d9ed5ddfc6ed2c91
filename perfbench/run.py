"""primeflow benchmark: one workload per fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --write-golden

Run from the root of a source checkout; the package is imported from its
``src`` directory.  With ``--trace 0`` the run measures set-up in fresh
processes, then repeats passes of the workload for S seconds and reports the
end-to-end metrics, rescaled to the reference host speed by the calibration
kernel in calibrate.py.  With ``--trace 1`` it alternates untraced and traced
passes and reports per-layer metrics.  Every pass is checked against the
golden reports and oracle spot checks run after the timed part.  The last
line of standard output is one JSON object; see README.md.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
MIN_PASSES = 3
MIN_TRACED = 2
CHILD_TIMEOUT = 120
# identical across traced passes of the same code, or the run fails
REPEAT_COUNTERS = ("rotation.orbit_points", "roofs.eval_points",
                   "roofs.birkhoff_terms", "primes.ap_error_calls",
                   "reparam.cocycle_calls")
COUNTERS = REPEAT_COUNTERS + ("primes.gather_calls", "flow.fibers_reached",
                              "reparam.time_inverse_points",
                              "observables.fiber_integral_points")
# layers whose work belongs to set-up; their in-pass spans report as *_pass_s
SETUP_LAYERS = ("primes.sieve", "rotation.construct")


class BenchError(Exception):
    pass


def use_source():
    """Import primeflow from this checkout's src, or fail."""
    if not (SRC / "primeflow" / "__init__.py").is_file():
        raise BenchError(f"no primeflow sources under {SRC}")
    sys.path.insert(0, str(SRC))


def check_imported(package):
    if Path(package.__file__).resolve().parent != SRC / "primeflow":
        raise BenchError(f"primeflow imported from {package.__file__}, "
                         f"not from {SRC}")


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    import numpy
    import sympy

    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "sympy": sympy.__version__, "commit": commit}


def probe_setup(name) -> float:
    """Seconds from spawning a fresh interpreter to set-up done."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", name], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=CHILD_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def measure_setup(name):
    """Set-up probes, each rescaled by the calibration kernel around it.
    Returns the probe times, the kernel times and the rescaled times."""
    import calibrate

    kernels = [calibrate.kernel_s()]
    probes, scaled = [], []
    for _ in range(SETUP_PROBES):
        probes.append(probe_setup(name))
        kernels.append(calibrate.kernel_s())
        scaled.append(probes[-1] * calibrate.REF_S
                      / statistics.fmean(kernels[-2:]))
    return probes, kernels, scaled


def setup_probe(name):
    use_source()
    check_imported(workloads.import_package())
    workloads.build_inputs(WORKLOADS[name])
    print("ready", flush=True)


def run_workload(args) -> dict:
    wl = WORKLOADS[args.workload]
    use_source()
    probes, setup_kernels, setup_scaled = (
        ([], [], []) if args.trace else measure_setup(args.workload))
    t0 = time.perf_counter()
    check_imported(workloads.import_package())
    import_s = time.perf_counter() - t0

    import calibrate
    import oracles
    from tracing import LAYERS, ROOT as ROOT_SPAN, Tracer, self_times

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    table = workloads.build_inputs(wl)
    if tracer:
        tracer.remove()
        setup_self = self_times(tracer.spans, 0, len(tracer.spans))
    golden = workloads.load_golden()[args.workload]

    problems = []
    attempted = failed = 0
    # untraced runs rescale every call by the calibration kernel around it
    kernels = [] if tracer else [calibrate.kernel_s()]

    def one_pass(traced):
        nonlocal attempted, failed
        attempted += 1
        before = len(problems)
        if traced:
            tracer.counts.clear()
            tracer.install()
            lo = len(tracer.spans)
            root = tracer.begin(ROOT_SPAN)
        texts, wall, ref = [], 0.0, 0.0
        try:
            for call in wl.calls:
                t0 = time.perf_counter()
                texts.append(workloads.run_call(call, table))
                t = time.perf_counter() - t0
                wall += t
                if kernels:
                    kernels.append(calibrate.kernel_s())
                    ref += t * calibrate.REF_S / statistics.fmean(kernels[-2:])
        except Exception:
            texts = None
            problems.append(traceback.format_exc())
        if traced:
            tracer.end(root)
            tracer.remove()
            wall = tracer.spans[root][2] - tracer.spans[root][1]
        if texts is not None:
            diff = workloads.compare([workloads.report_doc(t) for t in texts],
                                     golden)
            problems.extend(diff)
        failed += len(problems) > before
        if traced:
            return {"wall": wall, "spans": (lo, len(tracer.spans)),
                    "counts": dict(tracer.counts)}
        return wall, ref

    walls, refs, traced = [], [], []
    start = time.perf_counter()
    # warm-up: checked like every pass, but its time is not reported
    one_pass(False)
    loop_start = time.perf_counter()
    while True:
        wall, ref = one_pass(False)
        walls.append(wall)
        refs.append(ref)
        if tracer:
            traced.append(one_pass(True))
        now = time.perf_counter()
        cycle = (now - loop_start) / len(walls)
        enough = (len(traced) >= MIN_TRACED if tracer
                  else len(walls) >= MIN_PASSES)
        if enough and now - start + cycle > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks, diagnostics = oracles.run_all(args.seed, table)
    attempted += len(checks)
    for name, ok, detail in checks:
        if not ok:
            failed += 1
            problems.append(f"oracle {name}: {detail}")

    result = {"workload": args.workload, "seed": args.seed,
              "environment": environment(), "checks": checks,
              "pass_walls_s": walls, "pass_ref_s": refs,
              "kernels_s": kernels, "kernel_ref_s": calibrate.REF_S,
              "setup_probes_s": probes, "setup_kernels_s": setup_kernels,
              "setup_scaled_s": setup_scaled,
              "import_s": import_s}
    if not tracer:
        metrics = {
            "wall_s": (statistics.median(refs), "s"),
            "setup_s": (statistics.median(setup_scaled), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        attempted += 1
        repeats = {k: sorted({p["counts"].get(k, 0) for p in traced})
                   for k in REPEAT_COUNTERS}
        if any(len(v) > 1 for v in repeats.values()):
            failed += 1
            problems.append(f"work counters differ across traced passes: "
                            f"{repeats}")
        med = sorted(traced, key=lambda p: p["wall"])[(len(traced) - 1) // 2]
        pass_self = self_times(tracer.spans, *med["spans"])
        metrics = {}
        for layer in LAYERS:
            if layer == ROOT_SPAN:
                key = "experiments.self_s"
            else:
                key = layer + ("_pass_s" if layer in SETUP_LAYERS else "_s")
            metrics[key] = (pass_self.get(layer, 0.0), "s")
        for layer in SETUP_LAYERS:
            metrics[layer + "_s"] = (setup_self.get(layer, 0.0), "s")
        metrics["setup.import_s"] = (import_s, "s")
        counts = med["counts"]
        for key in COUNTERS:
            metrics[key] = (counts.get(key, 0), "count")
        roof_points = counts.get("flow.evaluate_times_roof_points", 0)
        metrics["flow.fiber_yield"] = (
            counts.get("flow.fibers_reached", 0) / roof_points
            if roof_points else 0.0, "ratio")
        metrics["trace.wall_s"] = (med["wall"], "s")
        metrics["trace.overhead_s"] = (
            statistics.median(p["wall"] for p in traced)
            - statistics.median(walls), "s")
        metrics["trace.absent_targets"] = (len(tracer.absent), "count")
        for key, unit in (("reparam.max_residual", "1"),
                          ("reparam.max_point_residual", "ratio"),
                          ("reparam.point_misses", "count")):
            # -1 when the time-inverse check raised before measuring
            metrics[key] = (diagnostics.get(key, -1), unit)
        sqr_call = next(c for c in WORKLOADS["birkhoff_reparam"].calls
                        if c.experiment == "s_qr_build")
        metrics["primes.sqr_margin"] = (
            oracles.sqr_margin(table, sqr_call.params), "ratio")
        result["absent_targets"] = tracer.absent
        result["repeat_counters"] = repeats
        write_json(OUT / f"spans-{args.workload}-seed{args.seed}.json",
                   {"fields": ["name", "start", "end", "parent"],
                    "setup": tracer.spans[:traced[0]["spans"][0]],
                    "median_pass": tracer.spans[slice(*med["spans"])]})
    if not tracer:
        metrics["success_rate"] = (1.0 - failed / attempted, "fraction")
    result.update(problems=problems, attempted=attempted, failed=failed,
                  metrics={k: {"value": v, "unit": u}
                           for k, (v, u) in metrics.items()})
    write_json(OUT / f"result-{args.workload}-seed{args.seed}"
                     f"-trace{int(args.trace)}.json", result)
    return result


def write_json(path, doc):
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def print_result(result):
    env = result["environment"]
    print(f"# {result['workload']} seed={result['seed']} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, ok, detail in result["checks"]:
        print(f"# check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    for problem in result["problems"]:
        print(f"# problem: {problem}", file=sys.stderr)
    walls = result["pass_walls_s"]
    print(f"# {len(walls)} untraced passes: median "
          f"{statistics.median(walls):.4f} s, min {min(walls):.4f} s, "
          f"max {max(walls):.4f} s")
    kernels = result["kernels_s"]
    if kernels:
        print(f"# calibration kernel: median {statistics.median(kernels):.4f}"
              f" s, min {min(kernels):.4f} s, max {max(kernels):.4f} s "
              f"over {len(kernels)} runs (reference {result['kernel_ref_s']} s)")
    print(f"# {result['failed']} of {result['attempted']} attempts failed")
    print(f"measured_wall_s {statistics.median(walls):.6g} s")
    probes = result["setup_probes_s"]
    if probes:
        print(f"measured_setup_s {statistics.median(probes):.6g} s")
    print(f"error_rate {result['failed'] / result['attempted']:.6g} fraction")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))


TABLE = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
         ("error_rate", "fraction"), ("measured_wall_s", "s"),
         ("measured_setup_s", "s"))


def run_all(args):
    """Every workload in its own process; one table of end-to-end metrics."""
    rows = []
    for i, name in enumerate(WORKLOADS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT + 10 * args.seconds)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise BenchError(f"workload {name} exited {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        if i == 0:
            print(lines[0])
        values = {}
        for line in lines[:-1]:
            parts = line.split()
            if len(parts) == 3 and not line.startswith("#"):
                values[parts[0]] = float(parts[1])
        rows.append([name] + [values[k] for k, _ in TABLE])
    print(f"{'workload':20s}" + "".join(f"{f'{k} ({u})':>22s}"
                                        for k, u in TABLE))
    for name, *vals in rows:
        print(f"{name:20s}" + "".join(f"{v:22.4f}" for v in vals))


def write_golden():
    use_source()
    check_imported(workloads.import_package())
    doc = {}
    for name, wl in WORKLOADS.items():
        texts = workloads.run_pass(wl, workloads.build_inputs(wl))
        doc[name] = [workloads.report_doc(t) for t in texts]
        print(name, [d["verdicts"] for d in doc[name]])
    write_json(workloads.GOLDEN_PATH, doc)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true",
                      help="run every workload, print one table")
    mode.add_argument("--write-golden", action="store_true",
                      help="record the golden reports of every workload")
    mode.add_argument("--setup-probe", action="store_true",
                      help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.write_golden:
            write_golden()
        elif args.all:
            use_source()
            run_all(args)
        elif args.workload is None:
            ap.error("--workload, --all or --write-golden is required")
        elif args.setup_probe:
            setup_probe(args.workload)
        else:
            print_result(run_workload(args))
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
