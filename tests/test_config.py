"""Config parsing, report serialization, and CLI plumbing."""

import json
import subprocess
import sys

import pytest

from primeflow import cli
from primeflow.config import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    parse_config,
)
from primeflow.experiments import REGISTRY, UnknownExperimentError, run_experiment
from primeflow.primes import build_table


def test_config_round_trip(tmp_path):
    cfg = ExperimentConfig("dk_bound", seed=7, sieve_limit=5000,
                           n_grid=(100, 200), out_json="r.json",
                           params={"depth": "9", "x_samples": "50"})
    path = tmp_path / "manifest.cfg"
    cfg.write(path)
    back = parse_config(path)
    assert back.experiment == "dk_bound"
    assert back.seed == 7
    assert back.sieve_limit == 5000
    assert back.n_grid == (100, 200)
    assert back.out_json == "r.json"
    assert back.get_int("depth", 0) == 9
    assert back.get_float("x_samples", 0) == 50.0


def test_config_minimal(tmp_path):
    path = tmp_path / "m.cfg"
    path.write_text("[experiment]\nname = katok_wm\n")
    cfg = parse_config(path)
    assert cfg.experiment == "katok_wm"
    assert cfg.seed == 0
    assert cfg.n_grid == (10 ** 4, 10 ** 5, 10 ** 6)
    assert cfg.params == {}


def test_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "absent.cfg")
    bad = tmp_path / "bad.cfg"
    bad.write_text("[experiment]\nname = x\nbogus_key = 1\n")
    with pytest.raises(ConfigError, match="bogus_key"):
        parse_config(bad)
    bad.write_text("[params]\na = 1\n")
    with pytest.raises(ConfigError, match=r"\[experiment\]"):
        parse_config(bad)
    bad.write_text("[experiment]\nname = x\nseed = not_an_int\n")
    with pytest.raises(ConfigError):
        parse_config(bad)
    bad.write_text("name = x\n")
    with pytest.raises(ConfigError, match="no section headers"):
        parse_config(bad)
    bad.write_text("[experiment]\nseed = 1\n")
    with pytest.raises(ConfigError, match="^missing key 'name' in"):
        parse_config(bad)


def test_config_rng_deterministic():
    a = ExperimentConfig("x", seed=11).rng().random(4)
    b = ExperimentConfig("x", seed=11).rng().random(4)
    assert (a == b).all()


def test_report_json_schema():
    rep = ExperimentReport("demo", params={"k": 3})
    rep.add("stat", 1.5)
    rep.add("D1", 0.25, N=100, z="+")
    rep.verdict("ok", True)
    rep.verdict("trend", 0.5 < 0.25)
    doc = json.loads(rep.to_json())
    assert doc["schema_version"] == 1
    assert doc["experiment"] == "demo"
    assert doc["metrics"][1] == {"name": "D1", "N": 100, "z": "+",
                                 "value": 0.25}
    assert doc["verdicts"] == {"ok": "pass", "trend": "fail"}
    assert "timestamp" not in doc


def test_report_json_deterministic():
    def make():
        rep = ExperimentReport("demo", params={"b": 2, "a": 1})
        rep.add("stat", 0.125, N=10)
        rep.verdict("v", False)
        rep.wall_clock = 1.23456
        return rep.to_json()

    assert make() == make()


def test_report_csv_layout():
    rep = ExperimentReport("demo")
    rep.add("stat", 0.5)
    rep.add("D2", 0.0625, N=10, z="-")
    lines = rep.to_csv().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1] == "demo,stat,,,0.5"
    assert lines[2] == "demo,D2,10,-,0.0625"


def test_report_metric_lookup():
    rep = ExperimentReport("demo")
    rep.add("D1", 0.5, N=10, z="+")
    assert rep.metric("D1", N=10, z="+") == 0.5
    with pytest.raises(KeyError):
        rep.metric("D1", N=20, z="+")


def test_unknown_experiment_lists_registry():
    with pytest.raises(UnknownExperimentError, match="dk_bound"):
        run_experiment(ExperimentConfig("nope"))


def test_registry_complete():
    expected = {
        "dk_bound", "birkhoff_rigidity", "singular_birkhoff",
        "quad_expansion", "deriv_zeros", "section_claims",
        "interval_factorization", "phase_contrast", "ap_short_avg",
        "bt_ratio", "s_qr_build", "katok_wm", "pnt_kochergin",
        "pnt_reparam",
    }
    assert set(REGISTRY) == expected


def test_run_experiment_smoke():
    cfg = ExperimentConfig("katok_wm", sieve_limit=10 ** 4,
                           n_grid=(10 ** 4,))
    rep = run_experiment(cfg, build_table(10 ** 4))
    assert rep.experiment == "katok_wm"
    assert rep.verdicts
    assert rep.wall_clock > 0


def test_interval_factorization_stops_at_an_inadmissible_gamma2():
    # 2 gamma2 = 1 is 0 mod 1, so the Diophantine check on gamma2 fails and
    # no box count is made
    cfg = ExperimentConfig("interval_factorization", sieve_limit=10 ** 4,
                           params={"N": "1000", "H": "100", "gamma2": "0.5"})
    rep = run_experiment(cfg, build_table(10 ** 4))
    assert rep.verdicts == {"gamma2_admissible": "fail"}
    assert rep.metrics == []


@pytest.mark.parametrize("name, key, value, low", [
    ("dk_bound", "samples", 0, 1), ("section_claims", "samples", 0, 1),
    ("singular_birkhoff", "samples", 0, 1),
    ("birkhoff_rigidity", "samples", 0, 1), ("quad_expansion", "cases", 0, 1),
    ("bt_ratio", "trials", 0, 1), ("deriv_zeros", "grid", 0, 1),
    ("bt_ratio", "N", 10 ** 4, 10 ** 4 + 1), ("bt_ratio", "q", 1, 2),
    ("dk_bound", "depth", 0, 1), ("deriv_zeros", "max_level", 0, 1),
    ("birkhoff_rigidity", "k", 0, 1)])
def test_run_experiment_rejects_params_below_their_bound(name, key, value,
                                                          low):
    # below its bound a [params] value once raised a raw ValueError or
    # ZeroDivisionError, or passed a verdict that tested nothing
    cfg = ExperimentConfig(name, sieve_limit=10 ** 4, params={key: str(value)})
    msg = rf"^bad value in \[params\]: {key} must be >= {low}, got {value}$"
    with pytest.raises(ConfigError, match=msg):
        run_experiment(cfg)


def test_wall_clock_covers_the_whole_experiment(monkeypatch):
    # the report's wall_clock takes in the coboundary sums that pnt_reparam
    # computes after pnt_report
    import time

    from primeflow import experiments

    coboundary = experiments.coboundary_prime_discrepancy

    def slow(*args):
        time.sleep(0.3)
        return coboundary(*args)

    monkeypatch.setattr(experiments, "coboundary_prime_discrepancy", slow)
    cfg = ExperimentConfig("pnt_reparam", sieve_limit=10 ** 4,
                           n_grid=(10 ** 3, 10 ** 4))
    assert run_experiment(cfg, build_table(10 ** 4)).wall_clock >= 0.3


def test_cli_list(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    for name in REGISTRY:
        assert name in out


def test_cli_sieve(capsys):
    assert cli.main(["sieve", "--limit", "1000"]) == 0
    assert "168 primes" in capsys.readouterr().out


def test_cli_build_alpha(tmp_path, capsys):
    out = str(tmp_path / "alpha.json")
    rc = cli.main(["build-alpha", "--mode", "scaled_D", "--depth", "3",
                   "--seed", "1", "--out-json", out])
    assert rc == 0
    doc = json.loads((tmp_path / "alpha.json").read_text())
    assert "quotients" in doc
    capsys.readouterr()


def test_cli_run_with_config(tmp_path, capsys):
    cfgpath = tmp_path / "run.cfg"
    cfgpath.write_text(
        "[experiment]\nname = katok_wm\nsieve_limit = 10000\n"
        "n_grid = 10000\n")
    out_json = tmp_path / "rep.json"
    out_csv = tmp_path / "rep.csv"
    rc = cli.main(["run", "--config", str(cfgpath),
                   "--out-json", str(out_json), "--out-csv", str(out_csv)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "wall clock" in printed
    doc = json.loads(out_json.read_text())
    assert doc["experiment"] == "katok_wm"
    header = out_csv.read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)


@pytest.mark.parametrize("name, key, value", [
    ("dk_bound", "samples", "1e3"), ("katok_wm", "alpha_exponent", "four"),
    ("interval_factorization", "qs", "3,x")])
def test_cli_run_reports_a_bad_params_value(tmp_path, capsys, name, key,
                                            value):
    # get_int and get_float name the key of a [params] value they cannot
    # read, and the command reports it as it reports a bad [experiment] value
    cfgpath = tmp_path / "run.cfg"
    cfgpath.write_text(f"[experiment]\nname = {name}\nsieve_limit = 1000\n"
                       f"[params]\n{key} = {value}\n")
    assert cli.main(["run", "--config", str(cfgpath)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: bad value in [params]: {key} = {value!r}\n"


def test_cli_run_needs_a_name_or_config(capsys):
    assert cli.main(["run"]) == 2
    assert capsys.readouterr().err == (
        "run: need an experiment name or --config\n")


def test_cli_run_flags_override_the_config(tmp_path, capsys):
    # the positional name and --seed win over the manifest's name and seed
    cfgpath = tmp_path / "run.cfg"
    cfgpath.write_text("[experiment]\nname = no_such_thing\nseed = 5\n")
    out_json = tmp_path / "rep.json"
    rc = cli.main(["run", "katok_wm", "--config", str(cfgpath),
                   "--seed", "9", "--out-json", str(out_json)])
    assert rc == 0
    capsys.readouterr()
    doc = json.loads(out_json.read_text())
    assert (doc["experiment"], doc["params"]["seed"]) == ("katok_wm", "9")


def test_cli_unknown_experiment_exit_code(capsys):
    assert cli.main(["run", "no_such_thing"]) == 2
    err = capsys.readouterr().err
    assert "registry" in err


def test_cli_run_rejects_threads(capsys):
    # the run command takes no --threads: the two prime walks of the pnt
    # experiments always run in one loop
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "pnt_kochergin", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_cli_entry_point():
    proc = subprocess.run([sys.executable, "-m", "primeflow.cli", "list"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "pnt_kochergin" in proc.stdout
