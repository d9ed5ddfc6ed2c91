"""Command-line entry point: sieve, alpha construction, and the experiment
registry."""

import argparse
import sys

from .config import ConfigError, ExperimentConfig, emit_report, parse_config
from .experiments import REGISTRY, UnknownExperimentError, run_experiment
from .primes import build_table
from .rotation import construct_alpha

__all__ = ["main"]


def _cmd_sieve(args):
    table = build_table(args.limit)
    print(f"sieve to {table.limit}: {len(table.primes)} primes, "
          f"theta = {table.theta(table.limit):.6f}")
    return 0


def _cmd_build_alpha(args):
    alpha = construct_alpha(args.mode, growth=lambda q: q ** args.exponent,
                            depth=args.depth, seed=args.seed)
    text = alpha.to_json()
    if args.out_json:
        with open(args.out_json, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def _cmd_list(args):
    for name in sorted(REGISTRY):
        doc = (REGISTRY[name].__doc__ or "").strip().splitlines()[0]
        print(f"{name:24s} {doc}")
    return 0


def _cmd_run(args):
    if args.config:
        cfg = parse_config(args.config)
        if args.experiment and args.experiment != cfg.experiment:
            cfg.experiment = args.experiment
    else:
        if not args.experiment:
            print("run: need an experiment name or --config", file=sys.stderr)
            return 2
        cfg = ExperimentConfig(args.experiment)
    if args.seed is not None:
        cfg.seed = args.seed
    report = run_experiment(cfg)
    out_json = args.out_json or cfg.out_json or None
    out_csv = args.out_csv or cfg.out_csv or None
    emit_report(report, json_path=out_json, csv_path=out_csv)
    for m in report.metrics:
        tag = "".join(f" {k}={v}" for k, v in (("N", m.N), ("z", m.z))
                      if v is not None)
        print(f"{m.name}{tag}: {m.value:.6g}")
    for name, verdict in sorted(report.verdicts.items()):
        print(f"[{verdict}] {name}")
    print(f"wall clock: {report.wall_clock:.2f}s")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="primeflow",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", help="build a prime table and print its count")
    p.add_argument("--limit", type=int, default=10 ** 6)
    p.set_defaults(func=_cmd_sieve)

    p = sub.add_parser("build-alpha", help="construct a rotation number")
    p.add_argument("--mode", default="scaled_D",
                   choices=["scaled_D", "scaled_C_A"])
    p.add_argument("--exponent", type=float, default=2.0,
                   help="growth exponent: q_{n+1} scales like q_n^e")
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--seed", type=int, default=2)
    p.add_argument("--out-json")
    p.set_defaults(func=_cmd_build_alpha)

    p = sub.add_parser("run", help="run a registered experiment")
    p.add_argument("experiment", nargs="?", help="registry name")
    p.add_argument("--config", help="key = value manifest file")
    p.add_argument("--out-json")
    p.add_argument("--out-csv")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("list", help="list registered experiments")
    p.set_defaults(func=_cmd_list)

    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, UnknownExperimentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
