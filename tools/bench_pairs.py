"""Alternated before/after runs of one perfbench workload.

Usage: python3 tools/bench_pairs.py REF --workload W --pairs N --seconds S

Extracts `git archive` copies of the commit REF and of HEAD into two
temporary directories of equal path length and runs the unchanged
`perfbench/run.py --workload W --seed i --seconds S --trace 0` N times in
each, in pairs i = 1..N whose two runs share seed i.  Both sides run from
fresh copies, so where a tree sits cannot favour one side.  REF runs first
in the odd pairs and second in the even ones, so a steady drift of the
host's speed favours neither side.  Appends to the `history` list of
BENCH_<W>.json at the root of the checkout one record with every pair's
wall_s, setup_s, peak_rss_mb, success_rate and correctness, the median
and quartiles of each metric on both sides and of its per-pair ratio
HEAD/REF, the number of pairs in which HEAD was lower, the host and
versions, and both commits; a file from before the list becomes its first
record.  The two runs of a pair are close in time, so the ratios do not
mix a drift of the host's speed across the session into the comparison,
as the side medians and quartiles do.  Uncommitted changes are not
measured.  The copies are removed at the end.
"""

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("wall_s", "setup_s", "peak_rss_mb")  # all lower-is-better


def git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(ref: str, dest: Path) -> None:
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar",
                          ref], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as fh:
        fh.extractall(dest, filter="data")


def run(tree: Path, workload: str, seed: int, seconds: float):
    """One perfbench run in tree: its end-to-end metrics and correctness,
    and the host record, from the result file it writes."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=600 + 4 * seconds)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench exited {proc.returncode} in {tree}")
    with open(tree / "perfbench" / "out"
              / f"result-{workload}-seed{seed}-trace0.json") as fh:
        doc = json.load(fh)
    out = {k: doc["metrics"][k]["value"] for k in METRICS + ("success_rate",)}
    out["correct"] = doc["failed"] == 0
    return out, doc["environment"]


def summary(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("ref", help="the commit to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")
    commits = {side: git("rev-parse", "--verify", name + "^{commit}")
               for side, name in (("ref", args.ref), ("change", "HEAD"))}
    trees = {side: Path(tempfile.mkdtemp(prefix="bench_pairs-"))
             for side in commits}
    pairs = []
    try:
        for side, tree in trees.items():
            extract(commits[side], tree)
        for seed in range(1, args.pairs + 1):
            sides = ["ref", "change"][::1 if seed % 2 else -1]
            pair = {"seed": seed, "first": sides[0]}
            for side in sides:
                pair[side], env = run(trees[side], args.workload, seed,
                                      args.seconds)
            pairs.append(pair)
            print(f"pair {seed}: " + ", ".join(
                f"{k} {pair['ref'][k]:.4g} -> {pair['change'][k]:.4g}"
                for k in METRICS), flush=True)
    finally:
        for tree in trees.values():
            shutil.rmtree(tree, ignore_errors=True)
    doc = {
        "workload": args.workload,
        "command": (f"python3 perfbench/run.py --workload {args.workload} "
                    f"--seed <pair> --seconds {args.seconds:g} --trace 0"),
        "host": {k: v for k, v in env.items() if k != "commit"},
        "ref": {"commit": commits["ref"]},
        "change": {"commit": commits["change"]},
        "pairs": pairs,
        "summary": {k: {side: summary([p[side][k] for p in pairs])
                        for side in ("ref", "change")} for k in METRICS},
        "ratio": {k: summary([p["change"][k] / p["ref"][k] for p in pairs])
                  for k in METRICS},
        "change_lower": {k: sum(p["change"][k] < p["ref"][k] for p in pairs)
                         for k in METRICS},
        "all_correct": all(p[s]["correct"] and p[s]["success_rate"] == 1.0
                           for p in pairs for s in ("ref", "change")),
    }
    path = ROOT / f"BENCH_{args.workload}.json"
    history = []
    if path.exists():
        with open(path) as fh:
            old = json.load(fh)
        history = old.get("history", [old])
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "history": history + [doc]}, fh,
                  indent=1)
        fh.write("\n")
    for k in METRICS:
        r, c = doc["summary"][k]["ref"], doc["summary"][k]["change"]
        q = doc["ratio"][k]
        print(f"{k}: median {r['median']:.4g} -> {c['median']:.4g}, change "
              f"lower in {doc['change_lower'][k]} of {len(pairs)}; per-pair "
              f"ratio median {q['median']:.4f} (quartiles {q['q1']:.4f}, "
              f"{q['q3']:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
