"""Experiment configuration and report plumbing.

Configs are plain-text key = value files read with configparser, so
manifests stay diff-able.  Reports carry metric rows and verdicts and
serialize to a versioned JSON schema and a flat CSV.
"""

import configparser
import csv
import io
import json
import platform
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SCHEMA_VERSION",
    "CSV_COLUMNS",
    "ConfigError",
    "ExperimentConfig",
    "Metric",
    "ExperimentReport",
    "parse_config",
    "emit_report",
]

SCHEMA_VERSION = 1
CSV_COLUMNS = ("experiment", "metric", "N", "z", "value")

_KNOWN_KEYS = {"name", "seed", "sieve_limit", "n_grid", "out_json", "out_csv"}


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """A parsed experiment manifest.

    Structured fields cover the harness knobs; everything an individual
    experiment needs beyond that lives in the free-form params mapping.
    """

    experiment: str
    seed: int = 0
    sieve_limit: int = 10 ** 6
    n_grid: tuple = (10 ** 4, 10 ** 5, 10 ** 6)
    out_json: str = ""
    out_csv: str = ""
    params: dict = field(default_factory=dict)

    def get(self, key, default=None):
        return self.params.get(key, default)

    def get_int(self, key, default):
        return self._get(int, key, default)

    def get_float(self, key, default):
        return self._get(float, key, default)

    def get_ints(self, key, default):
        """A comma-separated list of ints, as "3,5,7"."""
        return self._get(lambda v: [int(t) for t in str(v).split(",")],
                         key, default)

    def _get(self, kind, key, default):
        value = self.params.get(key, default)
        try:
            return kind(value)
        except ValueError:
            raise ConfigError(f"bad value in [params]: {key} = {value!r}")

    def rng(self):
        return np.random.Generator(np.random.PCG64(self.seed))

    def write(self, path):
        cp = configparser.ConfigParser()
        cp["experiment"] = {
            "name": self.experiment,
            "seed": str(self.seed),
            "sieve_limit": str(self.sieve_limit),
            "n_grid": ",".join(str(n) for n in self.n_grid),
            "out_json": self.out_json,
            "out_csv": self.out_csv,
        }
        cp["params"] = {k: str(v) for k, v in self.params.items()}
        with open(path, "w") as fh:
            cp.write(fh)


def parse_config(path) -> ExperimentConfig:
    cp = configparser.ConfigParser()
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    if "experiment" not in cp:
        raise ConfigError("missing [experiment] section")
    sec = cp["experiment"]
    for key in sec:
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown key in [experiment]: {key!r}")
    if "name" not in sec:
        raise ConfigError("missing key 'name' in [experiment]")
    try:
        grid = tuple(
            int(tok) for tok in sec.get("n_grid", "10000,100000,1000000").split(",")
            if tok.strip()
        )
        cfg = ExperimentConfig(
            experiment=sec["name"],
            seed=sec.getint("seed", 0),
            sieve_limit=sec.getint("sieve_limit", 10 ** 6),
            n_grid=grid,
            out_json=sec.get("out_json", ""),
            out_csv=sec.get("out_csv", ""),
            params=dict(cp["params"]) if "params" in cp else {},
        )
    except ValueError as exc:
        raise ConfigError(f"bad value in [experiment]: {exc}") from exc
    return cfg


@dataclass
class Metric:
    """One scalar result row.  N and z stay None when not applicable."""

    name: str
    value: float
    N: int = None
    z: str = None


@dataclass
class ExperimentReport:
    experiment: str
    params: dict = field(default_factory=dict)
    metrics: list = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)
    wall_clock: float = 0.0

    def add(self, name, value, N=None, z=None):
        self.metrics.append(Metric(name, float(value), N, z))

    def verdict(self, name, ok):
        """Record the verdict name: "pass" if ok, else "fail"."""
        self.verdicts[name] = "pass" if ok else "fail"

    def metric(self, name, N=None, z=None) -> float:
        for m in self.metrics:
            if m.name == name and m.N == N and m.z == z:
                return m.value
        raise KeyError(f"no metric {name!r} with N={N}, z={z}")

    def to_json(self) -> str:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "experiment": self.experiment,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
            "metrics": [
                {"name": m.name, "N": m.N, "z": m.z, "value": m.value}
                for m in self.metrics
            ],
            "verdicts": dict(sorted(self.verdicts.items())),
            "wall_clock": round(self.wall_clock, 3),
            "versions": {
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
        }
        return json.dumps(doc, indent=2, sort_keys=False)

    def to_csv(self) -> str:
        buf = io.StringIO()
        wr = csv.writer(buf, lineterminator="\n")
        wr.writerow(CSV_COLUMNS)
        for m in self.metrics:
            wr.writerow([self.experiment, m.name,
                         "" if m.N is None else m.N,
                         "" if m.z is None else m.z,
                         repr(m.value)])
        return buf.getvalue()


def emit_report(report: ExperimentReport, json_path=None, csv_path=None):
    if json_path:
        with open(json_path, "w") as fh:
            fh.write(report.to_json())
            fh.write("\n")
    if csv_path:
        with open(csv_path, "w") as fh:
            fh.write(report.to_csv())
