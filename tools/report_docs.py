"""Write the deterministic part of every registered experiment's report.

Usage: python3 tools/report_docs.py OUTDIR

Runs each experiment of primeflow.experiments.REGISTRY at its default
config from the checkout this script sits in, and writes OUTDIR/<name>.json
holding the report's experiment, params, metrics and verdicts (the
run-dependent wall_clock and versions are left out).  Two checkouts agree on
every report when `diff -r` of their OUTDIRs is empty.  Standard output has
one line per experiment: its name and its wall_clock in seconds.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from primeflow.config import ExperimentConfig  # noqa: E402
from primeflow.experiments import REGISTRY, run_experiment  # noqa: E402
from primeflow.primes import build_table  # noqa: E402

_KEPT = ("experiment", "params", "metrics", "verdicts")


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/report_docs.py OUTDIR", file=sys.stderr)
        return 2
    out = Path(argv[1])
    out.mkdir(parents=True, exist_ok=True)
    table = build_table(ExperimentConfig("").sieve_limit)
    for name in sorted(REGISTRY):
        doc = json.loads(run_experiment(ExperimentConfig(name), table).to_json())
        text = json.dumps({k: doc[k] for k in _KEPT}, indent=2)
        (out / f"{name}.json").write_text(text + "\n")
        print(f"{name} {doc['wall_clock']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
