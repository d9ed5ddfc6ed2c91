"""Compare every registered experiment's report between a commit and HEAD.

Usage: python3 tools/report_diff.py REF

Extracts `git archive` copies of the commit REF and of HEAD into two
temporary directories, as tools/bench_pairs.py does, runs
`tools/report_docs.py` in each, and compares the two sets of reports row
by row.  A row is one metric, keyed by its experiment, name, N, z and
its place among the rows of that key.  Prints, for each experiment with a
moved row, the number of moved rows and the largest relative move |new -
old| / |old| with its row; then each moved row with its relative move,
then each experiment, row, params entry or verdict present on one side
only or changed.  Below the per-experiment lines it prints the line count
of src/primeflow and of tests at REF and at HEAD, in total and for each
file whose text differs.  Exits 1 if a verdict, a params entry or the set
of rows changed, else 0; moved values alone and line counts do not fail.
Uncommitted changes are not compared.  The copies are removed at the end.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import extract, git

DIRS = ("src/primeflow", "tests")  # whose line counts are printed


def reports(tree: Path, out: Path) -> dict:
    """{experiment: report document} from report_docs.py run in tree."""
    subprocess.run([sys.executable, "tools/report_docs.py", str(out)],
                   cwd=tree, check=True, stdout=subprocess.DEVNULL)
    return {p.stem: json.loads(p.read_text()) for p in out.glob("*.json")}


def rows(doc: dict) -> dict:
    """{(name, N, z, i): value}, i counting the earlier rows of that key."""
    out, seen = {}, {}
    for m in doc["metrics"]:
        key = (m["name"], m["N"], m["z"])
        seen[key] = seen.get(key, -1) + 1
        out[key + (seen[key],)] = m["value"]
    return out


def sources(tree: Path) -> dict:
    """{directory: {file name: text}} of the .py files of each of DIRS in
    tree."""
    return {d: {p.name: p.read_text() for p in (tree / d).glob("*.py")}
            for d in DIRS}


def line_counts(old: dict, new: dict) -> list:
    """The line count (as wc -l) of each of DIRS in old and new, in total
    and for each file whose text differs, as lines."""
    def count(texts):
        return sum(text.count("\n") for text in texts)
    out = []
    for d in DIRS:
        a, b = old[d], new[d]
        out.append(f"{d}: {count(a.values())} -> {count(b.values())} lines")
        for name in sorted(a.keys() | b.keys()):
            x, y = a.get(name, ""), b.get(name, "")
            if x != y:
                out.append(f"  {name}: {count([x])} -> {count([y])}")
    return out


def same(a, b) -> bool:
    return a == b or (isinstance(a, float) and isinstance(b, float)
                      and math.isnan(a) and math.isnan(b))


def compare(old: dict, new: dict) -> tuple[list, list, list]:
    """The moved rows, the changes that fail the comparison and one summary
    per experiment with a moved row, as lines."""
    moved, changed, most = [], [], {}
    for name in sorted(old.keys() | new.keys()):
        if name not in old or name not in new:
            side = "HEAD" if name in new else "REF"
            changed.append(f"{name}: only in {side}")
            continue
        a, b = old[name], new[name]
        for part in ("params", "verdicts"):
            for k in sorted(a[part].keys() | b[part].keys()):
                va, vb = a[part].get(k), b[part].get(k)
                if not same(va, vb):
                    changed.append(f"{name} {part} {k}: {va} -> {vb}")
        ra, rb = rows(a), rows(b)
        for key in sorted(ra.keys() | rb.keys(), key=repr):
            row = f"{key[0]} N={key[1]} z={key[2]}" + (
                f" #{key[3]}" if key[3] else "")
            label = f"{name} {row}"
            if key not in ra or key not in rb:
                changed.append(f"{label}: only in "
                               f"{'HEAD' if key in rb else 'REF'}")
            elif not same(ra[key], rb[key]):
                va, vb = ra[key], rb[key]
                rel = abs(vb - va) / abs(va) if va else math.inf
                moved.append(f"{label}: {va!r} -> {vb!r} ({rel:.2g} rel)")
                count, top, at = most.get(name, (0, -1.0, ""))
                most[name] = (count + 1, *max((top, at), (rel, row)))
    summary = [f"{name}: {count} rows moved, largest {top:.2g} rel at {at}"
               for name, (count, top, at) in most.items()]
    return moved, changed, summary


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/report_diff.py REF", file=sys.stderr)
        return 2
    commits = [git("rev-parse", "--verify", ref + "^{commit}")
               for ref in (argv[1], "HEAD")]
    tmp = Path(tempfile.mkdtemp(prefix="report_diff-"))
    try:
        docs, texts = [], []
        for side, commit in zip(("ref", "head"), commits):
            extract(commit, tmp / side)
            texts.append(sources(tmp / side))
            docs.append(reports(tmp / side, tmp / f"{side}-out"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    moved, changed, summary = compare(*docs)
    print(f"{commits[0][:12]} -> {commits[1][:12]}: {len(moved)} rows moved, "
          f"{len(changed)} changes")
    for line in summary + line_counts(*texts) + moved + changed:
        print(line)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
