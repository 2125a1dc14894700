import dataclasses
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import dhnopt.cli
from conftest import write_feeder_files
from dhnopt.cli import (_DEFAULTS, EXIT_INPUT, EXIT_NUMERICAL, EXIT_OK,
                        compute_quantiles, main)
from dhnopt.fixtures import demand_set_for, desk_network, write_desk_fixture
from dhnopt.network import read_csv, subdivide_pipes
from dhnopt.objective import ConstraintSet
from dhnopt.optimizer import OptimizerConfig
from dhnopt.scenario import (DEFAULT_CUTOFF_HZ, DEFAULT_NOISE_BAND_HZ,
                             DEFAULT_NOISE_SIGMA, build_scenario, lowpass,
                             read_load_series, write_demand_set)
from dhnopt.thermal import PhysicalConstants, StateTrajectory, TimeGrid


def _run(*args):
    return main([str(a) for a in args])


def _read_lines(path):
    return path.read_text().splitlines()


def _with(cfg_path, name, **sections):
    """Copy of a config file with some sections replaced."""
    data = json.loads(cfg_path.read_text())
    data.update(sections)
    path = cfg_path.parent / name
    path.write_text(json.dumps(data))
    return path


@pytest.fixture()
def desk_files(tmp_path):
    return write_desk_fixture(tmp_path)


@pytest.fixture()
def small_files(tmp_path):
    # one-day, three-consumer variant keeps the optimizer runs quick
    return write_desk_fixture(tmp_path, n_consumers=3, n_days=1)


@pytest.fixture()
def small_dynamic_files(tmp_path):
    return write_desk_fixture(tmp_path, dynamic=True, n_consumers=3, n_days=1)


class TestSimulate:
    def test_writes_series_and_clean_balance(self, desk_files):
        rc = _run("simulate", "--config", desk_files, "--quiet")
        assert rc == EXIT_OK
        out = desk_files.parent / "out"
        report = json.loads((out / "report.json").read_text())
        assert report["max_energy_balance_residual_rel"] < 1e-6
        assert report["n_steps"] == 288
        columns = {}
        for name in ("summary.csv", "energy_balance.csv", "stored_energy.csv"):
            lines = _read_lines(out / name)
            assert len(lines) == 1 + 288, name
            columns |= zip(lines[0].split(","),
                           zip(*(line.split(",") for line in lines[1:])))
        assert (out / "steady_state.csv").is_file()
        # the summary's injection is the energy balance's, to the byte
        assert columns["plant_injection_w"] == columns["injection_w"]

    def test_missing_flow_file_exits_2(self, desk_files, capsys):
        (desk_files.parent / "flows.csv").unlink()
        rc = _run("simulate", "--config", desk_files, "--quiet")
        assert rc == EXIT_INPUT
        assert "flows.csv" in capsys.readouterr().err

    def test_demand_rows_for_an_unknown_consumer_exit_2(self, small_files,
                                                        capsys):
        path = small_files.parent / "demands.csv"
        lines = _read_lines(path)
        first = lines[1].split(",")[1]
        extra = [line.replace(f",{first},", ",no_such_consumer,")
                 for line in lines[1:] if line.split(",")[1] == first]
        assert len(extra) == 97
        path.write_text("\n".join(lines + extra) + "\n")
        assert _run("simulate", "--config", small_files, "--quiet") == EXIT_INPUT
        assert f"{path}: unknown consumer 'no_such_consumer'" in \
            capsys.readouterr().err

    def test_invalid_config_json_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text("{not json")
        assert _run("simulate", "--config", cfg) == EXIT_INPUT

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text('{"no_such_key": 1}')
        assert _run("simulate", "--config", cfg) == EXIT_INPUT
        assert "no_such_key" in capsys.readouterr().err

    def test_deterministic_outputs(self, desk_files):
        base = desk_files.parent
        rc1 = _run("simulate", "--config", desk_files, "--quiet",
                   "--out-dir", base / "out_a")
        rc2 = _run("simulate", "--config", desk_files, "--quiet",
                   "--out-dir", base / "out_b")
        assert rc1 == rc2 == EXIT_OK
        for name in ("report.json", "summary.csv", "energy_balance.csv",
                     "stored_energy.csv", "steady_state.csv"):
            assert (base / "out_a" / name).read_bytes() == \
                (base / "out_b" / name).read_bytes(), name

    def test_horizon_s_gives_the_same_n_steps(self, small_files):
        base = small_files.parent
        data = json.loads(small_files.read_text())
        scenario = dict(data["scenario"])
        n = scenario.pop("n_steps")
        scenario["horizon_s"] = n * scenario["dt_s"]
        cfg = _with(small_files, "horizon.json", scenario=scenario)
        for path, out in ((small_files, "by_steps"), (cfg, "by_horizon")):
            assert _run("simulate", "--config", path, "--quiet",
                        "--out-dir", base / out) == EXIT_OK
        reports = [json.loads((base / out / "report.json").read_text())
                   for out in ("by_steps", "by_horizon")]
        assert reports[0]["n_steps"] == reports[1]["n_steps"] == n

    @pytest.mark.parametrize("horizon_steps", [96, 95, 97, 95.5])
    def test_n_steps_and_horizon_s_must_agree(self, small_files, capsys,
                                              horizon_steps):
        base = small_files.parent
        scenario = dict(json.loads(small_files.read_text())["scenario"])
        n, dt = scenario["n_steps"], scenario["dt_s"]
        assert n == 96
        scenario["horizon_s"] = horizon_steps * dt
        cfg = _with(small_files, "both.json", scenario=scenario)
        rc = _run("simulate", "--config", cfg, "--quiet", "--out-dir",
                  base / "both")
        if horizon_steps == n:
            assert rc == EXIT_OK
            report = json.loads((base / "both" / "report.json").read_text())
            assert report["n_steps"] == n
        else:
            assert rc == EXIT_INPUT
            assert (f"scenario.n_steps=96 steps of dt_s={dt} disagree with "
                    f"scenario.horizon_s={horizon_steps * dt}"
                    in capsys.readouterr().err)

    def test_beta_above_alpha_exits_2(self, small_dynamic_files, capsys):
        scenario = json.loads(small_dynamic_files.read_text())["scenario"]
        cfg = _with(small_dynamic_files, "concave.json",
                    scenario=dict(scenario, alpha=1.0, beta=2.0))
        assert _run("simulate", "--config", cfg, "--quiet") == EXIT_INPUT
        assert "beta" in capsys.readouterr().err

    def test_horizon_s_not_divided_by_dt_s_exits_2(self, small_files, capsys):
        scenario = dict(json.loads(small_files.read_text())["scenario"])
        n = scenario.pop("n_steps")
        scenario["horizon_s"] = (n + 0.5) * scenario["dt_s"]
        cfg = _with(small_files, "horizon.json", scenario=scenario)
        assert _run("simulate", "--config", cfg, "--quiet") == EXIT_INPUT
        assert "does not divide horizon_s" in capsys.readouterr().err


@pytest.mark.parametrize("command, section, values, key", [
    ("simulate", "scenario", {"dt_s": "abc"}, "scenario.dt_s"),
    # a horizon_s over a dt_s of 0 divided by zero
    ("simulate", "scenario", {"dt_s": 0.0, "n_steps": None,
                              "horizon_s": 86400.0}, "scenario.dt_s"),
    ("simulate", "scenario", {"alpha": None}, "scenario.alpha"),
    ("simulate", "scenario", {"n_steps": 2.5}, "scenario.n_steps"),
    ("simulate", "scenario", {"ambient_c": [10.0, "cold"]}, "scenario.ambient_c"),
    ("simulate", None, {"seed": True}, "seed"),
    ("optimize", "optimizer", {"memory": "ten"}, "optimizer.memory"),
    ("optimize", "optimizer", {"penalty_stop": float("inf")},
     "optimizer.penalty_stop"),
    ("optimize", None, {"quantile_levels": [1, 150]}, "quantile_levels"),
    ("optimize", None, {"quantile_levels": [1, "median"]}, "quantile_levels"),
    ("synth-demand", "synthesis", {"order": 4.5}, "synthesis.order"),
    ("synth-demand", "synthesis", {"band_hz": 5e-5}, "synthesis.band_hz"),
    ("synth-demand", "synthesis", {"band_hz": [5e-5]}, "synthesis.band_hz"),
    # blocks and values that the command itself does not read
    ("simulate", None, {"scenario": 5}, "scenario"),
    ("simulate", None, {"verify": None}, "verify"),
    ("simulate", "network", {"nodes": ["x"]}, "network.nodes"),
    ("simulate", None, {"demand_file": 5}, "demand_file"),
    # a removed key (a run is dynamic exactly when it names a price_file),
    # given a value of its old type: rejected as an unknown key
    ("simulate", "scenario", {"static_price": False}, "scenario.static_price"),
    ("simulate", None, {"threads": 4}, "threads"),
    ("simulate", "optimizer", {"memory": "ten"}, "optimizer.memory"),
    ("synth-demand", "scenario", {"dt_s": "abc"}, "scenario.dt_s"),
    ("verify", "verify", {"dense_tolerance_c": "x"},
     "verify.dense_tolerance_c"),
    # one value per grid point: the fixture's 96 steps need 97
    ("simulate", "scenario", {"ambient_c": [10.0] * 96}, "scenario.ambient_c"),
    # a seed must be >= 0, checked before any stream is drawn
    ("synth-demand", None, {"seed": -1}, "seed"),
    ("simulate", None, {"seed": -1}, "seed"),
    ("optimize", None, {"seed": -1}, "seed"),
])
def test_config_value_of_the_wrong_type_exits_2(small_files, monkeypatch,
                                                capsys, command, section,
                                                values, key):
    data = json.loads(small_files.read_text())
    if section is None:
        data.update(values)
    else:
        data[section] = {**data.get(section, {}), **values}
    small_files.write_text(json.dumps(data))

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran on an invalid config")
    monkeypatch.setattr("dhnopt.cli.optimize", no_solve)
    monkeypatch.setattr("numpy.linalg.solve", no_solve)
    assert _run(command, "--config", small_files, "--quiet") == EXIT_INPUT
    assert f"'{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("order", [-1, 0])
def test_filter_order_below_one_exits_2(small_files, capsys, order):
    data = json.loads(small_files.read_text())
    data["synthesis"] = {**data.get("synthesis", {}), "order": order}
    small_files.write_text(json.dumps(data))
    assert _run("synth-demand", "--config", small_files, "--quiet") == EXIT_INPUT
    assert (f"filter order must be an integer >= 1, got {order}"
            in capsys.readouterr().err)


_FOOTPRINT = """
import sys
import dhnopt, dhnopt.cli, dhnopt.fixtures
dhnopt.fixtures.desk_scenario()
cfg = dhnopt.fixtures.write_desk_fixture(sys.argv[1], n_consumers=3, n_days=1)
assert dhnopt.cli.main(["simulate", "--config", str(cfg), "--quiet"]) == 0
print(sorted(m for m in ("scipy.signal", "scipy.optimize") if m in sys.modules))
"""


def test_import_and_simulate_load_neither_signal_nor_optimize(tmp_path):
    # a fresh process: this suite's own imports load both
    src = str(Path(dhnopt.cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT, str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_config_that_is_not_an_object_exits_2(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text('[{"seed": 0}]')
    assert _run("simulate", "--config", cfg) == EXIT_INPUT
    assert "must be a JSON object" in capsys.readouterr().err


def test_one_parser_serves_every_call():
    parser = dhnopt.cli._build_parser()
    assert dhnopt.cli._build_parser() is parser
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == EXIT_INPUT
    first = parser.parse_args(["simulate", "--config", "a.json", "--seed", "3",
                               "--quiet"])
    assert (first.config, first.seed, first.quiet) == ("a.json", 3, True)
    # nothing of one parse carries over to the next
    again = parser.parse_args(["report", "--out-dir", "out"])
    assert (again.config, again.seed, again.quiet) == (None, None, False)
    assert again.func is dhnopt.cli.cmd_report


def test_model_defaults_come_from_their_owners():
    def arg(func, name):
        return inspect.signature(func).parameters[name].default

    sc, syn = _DEFAULTS["scenario"], _DEFAULTS["synthesis"]
    constants = PhysicalConstants()
    assert (sc["cp_j_per_kg_c"], sc["rho_kg_m3"], sc["ambient_c"]) == (
        constants.cp_j_per_kg_c, constants.rho_kg_m3, constants.ambient_c)
    for key in ("alpha", "beta", "tikhonov_weight", "initial_control_c"):
        assert sc[key] == arg(build_scenario, key), key
    assert sc["max_cell_length_m"] == arg(subdivide_pipes, "max_cell_length_m")
    assert sc["constraints"] == dataclasses.asdict(ConstraintSet())
    assert _DEFAULTS["optimizer"] == dataclasses.asdict(OptimizerConfig())
    assert syn["order"] == arg(lowpass, "order")
    assert (syn["cutoff_hz"], tuple(syn["band_hz"]), syn["sigma"]) == (
        DEFAULT_CUTOFF_HZ, DEFAULT_NOISE_BAND_HZ, DEFAULT_NOISE_SIGMA)
    assert tuple(_DEFAULTS["quantile_levels"]) == arg(compute_quantiles,
                                                      "levels")


class TestVerify:
    def test_dense_oracle_and_identity_reference(self, desk_files):
        assert _run("simulate", "--config", desk_files, "--quiet") == EXIT_OK
        out = desk_files.parent / "out"
        report = json.loads((out / "report.json").read_text())

        cfg = json.loads(desk_files.read_text())
        cfg["verify"] = {"reference_file": "out/steady_state.csv",
                         "mean_mismatch_threshold_c": 1e-9}
        cfg_path = desk_files.parent / "verify.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = _run("verify", "--config", cfg_path, "--quiet",
                  "--out-dir", desk_files.parent / "vout")
        assert rc == EXIT_OK
        vreport = json.loads(
            (desk_files.parent / "vout" / "verify_report.json").read_text())
        assert vreport["dense_mismatch_c"] < 1e-8
        assert vreport["reference_mean_abs_mismatch_c"] == 0.0
        assert (desk_files.parent / "vout" / "mismatch_histogram.csv").is_file()

    def test_reference_threshold_violation_exits_1(self, desk_files):
        assert _run("simulate", "--config", desk_files, "--quiet") == EXIT_OK
        steady = desk_files.parent / "out" / "steady_state.csv"
        lines = _read_lines(steady)
        node, temp = lines[1].split(",")
        lines[1] = f"{node},{float(temp) + 5.0!r}"
        steady.write_text("\n".join(lines) + "\n")
        cfg = json.loads(desk_files.read_text())
        cfg["verify"] = {"reference_file": "out/steady_state.csv",
                         "mean_mismatch_threshold_c": 0.01}
        cfg_path = desk_files.parent / "verify.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = _run("verify", "--config", cfg_path, "--quiet",
                  "--out-dir", desk_files.parent / "vout")
        assert rc == EXIT_NUMERICAL


class TestSynthDemand:
    def test_deterministic_bytes_and_target_means(self, desk_files):
        base = desk_files.parent
        rc1 = _run("synth-demand", "--config", desk_files, "--quiet",
                   "--out-dir", base / "d1")
        rc2 = _run("synth-demand", "--config", desk_files, "--quiet",
                   "--out-dir", base / "d2")
        assert rc1 == rc2 == EXIT_OK
        assert (base / "d1" / "demands.csv").read_bytes() == \
            (base / "d2" / "demands.csv").read_bytes()
        summary = _read_lines(base / "d1" / "demand_summary.csv")[1:]
        means = np.array([float(line.split(",")[1]) for line in summary])
        np.testing.assert_allclose(means, means[0], rtol=1e-9)

    def test_writes_the_fixture_synthesis(self, desk_files, tmp_path):
        base = desk_files.parent
        cfg = _with(desk_files, "synth.json", synthesis={
            "sigma": 0.15, "mean_w_per_consumer": 50e3})
        assert _run("synth-demand", "--config", cfg, "--quiet", "--seed", "3",
                    "--out-dir", base / "d1") == EXIT_OK
        graph, _ = desk_network()
        load = read_load_series(base / "base_load.csv")
        write_demand_set(demand_set_for(graph, load, seed=3,
                                        mean_w_per_consumer=50e3),
                         tmp_path / "expected.csv")
        assert (base / "d1" / "demands.csv").read_bytes() == \
            (tmp_path / "expected.csv").read_bytes()

    @pytest.mark.parametrize("synthesis, message", [
        ({"sigma": -0.1}, "noise sigma must be finite and >= 0, got -0.1"),
        ({"mean_w_per_consumer": -5.0},
         "consumer 'con0_1': target mean -5.0 W must be finite and >= 0"),
    ], ids=["negative sigma", "negative target mean"])
    def test_invalid_synthesis_exits_2(self, small_files, capsys, synthesis,
                                       message):
        cfg = _with(small_files, "bad.json", synthesis=synthesis)
        out = small_files.parent / "bad"
        assert _run("synth-demand", "--config", cfg, "--quiet",
                    "--out-dir", out) == EXIT_INPUT
        assert message in capsys.readouterr().err
        assert not (out / "demands.csv").exists()

    def test_different_seed_changes_output(self, desk_files):
        base = desk_files.parent
        _run("synth-demand", "--config", desk_files, "--quiet",
             "--out-dir", base / "d1")
        _run("synth-demand", "--config", desk_files, "--quiet",
             "--out-dir", base / "d3", "--seed", "123")
        assert (base / "d1" / "demands.csv").read_bytes() != \
            (base / "d3" / "demands.csv").read_bytes()


class TestOptimize:
    def test_end_to_end_small(self, small_files):
        rc = _run("optimize", "--config", small_files, "--quiet")
        assert rc == EXIT_OK
        out = small_files.parent / "out"
        report = json.loads((out / "report.json").read_text())
        assert report["savings"] > 0.0
        assert report["final_max_violation_c"] < 0.1
        assert not report["aborted"]
        n = report["n_steps"]
        for name in ("controls.csv", "consumer_temps.csv",
                     "stored_energy.csv", "price.csv", "plant_power.csv",
                     "quantiles_baseline.csv", "quantiles_optimized.csv"):
            assert len(_read_lines(out / name)) == 1 + n, name
        assert len(_read_lines(out / "trace.csv")) == 1 + len(report["rounds"])
        for r in report["rounds"]:
            assert r["n_evals"] >= r["n_gradients"] >= r["inner_iterations"]

        # savings must be recomputable from the emitted series
        steps = np.loadtxt(out / "plant_power.csv", delimiter=",",
                           skiprows=1, usecols=(3, 4))
        recomputed = (steps[:, 0].sum() - steps[:, 1].sum()) / steps[:, 0].sum()
        assert recomputed == pytest.approx(report["savings"], rel=1e-12)

    def test_static_run_ignores_beta_above_alpha(self, small_files):
        # a static run weighs every step by 1 and reads neither factor
        base = small_files.parent
        scenario = json.loads(small_files.read_text())["scenario"]
        cfg = _with(small_files, "concave.json",
                    scenario=dict(scenario, alpha=1.0, beta=2.0))
        for path, out in ((small_files, "beta0"), (cfg, "beta2")):
            assert _run("optimize", "--config", path, "--quiet",
                        "--out-dir", base / out) == EXIT_OK
        written = sorted(p.name for p in (base / "beta0").glob("*.csv"))
        assert written == sorted(p.name for p in (base / "beta2").glob("*.csv"))
        for name in written:
            assert (base / "beta0" / name).read_bytes() == \
                (base / "beta2" / name).read_bytes(), name

    def test_report_subcommand_checks_series(self, small_files, capsys):
        assert _run("optimize", "--config", small_files, "--quiet") == EXIT_OK
        out = small_files.parent / "out"
        assert _run("report", "--out-dir", out) == EXIT_OK
        assert "savings" in capsys.readouterr().out

        data = json.loads((out / "report.json").read_text())
        data["savings"] = 0.5
        (out / "report.json").write_text(json.dumps(data))
        assert _run("report", "--out-dir", out, "--quiet") == EXIT_NUMERICAL

    def test_optimized_control_reads_back_bit_exactly(self, small_files):
        base = small_files.parent
        assert _run("optimize", "--config", small_files, "--quiet") == EXIT_OK
        # the second run's baseline is the control file read back
        cfg = _with(small_files, "again.json",
                    control={"file": "out/optimized_control.csv"},
                    optimizer={"max_inner_iterations": 1})
        assert _run("optimize", "--config", cfg, "--quiet",
                    "--out-dir", base / "again") == EXIT_OK
        first, again = (_controls(out / "controls.csv")
                        for out in (base / "out", base / "again"))
        plants = [h[len("optimized_"):] for h in first
                  if h.startswith("optimized_")]
        assert plants
        for plant in plants:
            assert again[f"baseline_{plant}"].tobytes() == \
                first[f"optimized_{plant}"].tobytes()


def _controls(path):
    header = _read_lines(path)[0].split(",")
    return read_csv(path, header, header)[1]


def test_every_written_csv_reads_back(small_files):
    """Each CSV output reads back with its own header; non-ids are floats."""
    base = small_files.parent
    assert _run("simulate", "--config", small_files, "--quiet",
                "--out-dir", base / "simulate") == EXIT_OK
    cfg = _with(small_files, "verify.json",
                verify={"reference_file": "simulate/steady_state.csv"})
    assert _run("verify", "--config", cfg, "--quiet",
                "--out-dir", base / "verify") == EXIT_OK
    assert _run("optimize", "--config", small_files, "--quiet",
                "--out-dir", base / "optimize") == EXIT_OK
    written = sorted(base.glob("*/*.csv"))
    assert {p.name for p in written} == {
        "steady_state.csv", "summary.csv", "energy_balance.csv",
        "stored_energy.csv", "mismatch_histogram.csv", "controls.csv",
        "optimized_control.csv", "consumer_temps.csv", "price.csv",
        "plant_power.csv", "quantiles_baseline.csv",
        "quantiles_optimized.csv", "trace.csv"}
    for path in written:
        header = _read_lines(path)[0].split(",")
        floats = [h for h in header if not h.endswith("_id")]
        lines, _ = read_csv(path, header, floats)
        assert lines.size, path


class TestQuantiles:
    def test_identical_consumers_collapse(self):
        graph, _ = desk_network(n_consumers=4)
        grid = TimeGrid(dt_s=900.0, n_steps=3)
        y = np.full((graph.n_nodes, 4), 91.0)
        traj = StateTrajectory(values_c=y, grid=grid)
        q = compute_quantiles(traj, graph, levels=(10, 50, 90, 99))
        for key, series in q.items():
            np.testing.assert_array_equal(series, 91.0)

    def test_quantiles_are_ordered(self):
        graph, _ = desk_network(n_consumers=6)
        grid = TimeGrid(dt_s=900.0, n_steps=5)
        rng = np.random.default_rng(0)
        y = 80.0 + 20.0 * rng.random((graph.n_nodes, 6))
        traj = StateTrajectory(values_c=y, grid=grid)
        q = compute_quantiles(traj, graph, levels=(1, 10, 50, 90, 99))
        assert np.all(q["min"] <= q["p1"] + 1e-12)
        assert np.all(q["p1"] <= q["p50"])
        assert np.all(q["p50"] <= q["p99"])
        np.testing.assert_array_equal(q["median"], q["p50"])


# ---------------------------------------------------------------------------
# input faults found before the run, and report files that are not reports
# ---------------------------------------------------------------------------

def _refuse_to_run(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the run started on invalid input")
    for name in ("simulate_system", "optimize", "synthesize_demand_set",
                 "_scenario"):
        monkeypatch.setattr(f"dhnopt.cli.{name}", no_run)


@pytest.mark.parametrize("command", ["synth-demand", "simulate", "optimize"])
def test_negative_seed_flag_exits_2(small_files, monkeypatch, capsys, command):
    _refuse_to_run(monkeypatch)
    assert _run(command, "--config", small_files, "--quiet",
                "--seed", -1) == EXIT_INPUT
    assert "--seed must be >= 0, got -1" in capsys.readouterr().err


def test_seed_flag_overrides_a_negative_key(small_files):
    cfg = _with(small_files, "seed.json", seed=-1)
    assert _run("simulate", "--config", cfg, "--quiet", "--seed", 3) == EXIT_OK
    out = small_files.parent / "out"
    assert json.loads((out / "report.json").read_text())["seed"] == 3


@pytest.mark.parametrize("command", ["simulate", "optimize", "verify",
                                     "synth-demand"])
@pytest.mark.parametrize("where", ["file", "under a file"])
def test_out_dir_flag_on_a_file_exits_2(small_files, monkeypatch, capsys,
                                        command, where):
    _refuse_to_run(monkeypatch)
    blocker = small_files.parent / "taken"
    blocker.write_text("")
    out = blocker if where == "file" else blocker / "out"
    assert _run(command, "--config", small_files, "--quiet",
                "--out-dir", out) == EXIT_INPUT
    assert (f"--out-dir {out}: {blocker} is not a directory"
            in capsys.readouterr().err)


def test_out_dir_key_on_a_file_exits_2(small_files, monkeypatch, capsys):
    _refuse_to_run(monkeypatch)
    (small_files.parent / "taken").write_text("")
    cfg = _with(small_files, "out.json", out_dir="taken")
    assert _run("simulate", "--config", cfg, "--quiet") == EXIT_INPUT
    assert "config 'out_dir'" in capsys.readouterr().err


def _finished_run(out, report_text):
    """An output directory holding ``report_text`` as its report and the
    series ``report`` recomputes the savings from."""
    out.mkdir()
    (out / "report.json").write_text(report_text)
    dhnopt.cli.write_csv(out / "plant_power.csv", {
        name: np.arange(1.0, 4.0) for name in dhnopt.cli._PLANT_POWER_HEADER})


def test_report_on_a_report_that_is_not_json_exits_2(tmp_path, capsys):
    _finished_run(tmp_path / "out", '{"command": "optimize",')
    assert _run("report", "--out-dir", tmp_path / "out") == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"{tmp_path / 'out' / 'report.json'}: invalid JSON" in err


def test_report_on_a_report_that_is_not_an_object_exits_2(tmp_path, capsys):
    _finished_run(tmp_path / "out", '["optimize"]')
    assert _run("report", "--out-dir", tmp_path / "out") == EXIT_INPUT
    err = capsys.readouterr().err
    assert (f"{tmp_path / 'out' / 'report.json'}: must be a JSON object"
            in err)


@pytest.mark.parametrize("savings", [None, "0.5", True])
def test_report_on_an_optimize_report_without_savings_exits_2(
        tmp_path, capsys, savings):
    report = {"command": "optimize"}
    if savings is not None:
        report["savings"] = savings
    _finished_run(tmp_path / "out", json.dumps(report))
    assert _run("report", "--out-dir", tmp_path / "out") == EXIT_INPUT
    err = capsys.readouterr().err
    assert (f"{tmp_path / 'out' / 'report.json'}: optimize report needs a "
            f"number 'savings'" in err)


# ---------------------------------------------------------------------------
# what the commands hold while they run
# ---------------------------------------------------------------------------

def test_simulate_holds_one_trajectory(tmp_path, monkeypatch):
    # above what the scenario leaves live, the command's traced peak is
    # its trajectory plus small series, not a second trajectory-sized
    # temporary of the energy audit or the stored energy
    cfg = write_feeder_files(tmp_path)
    args = dhnopt.cli._build_parser().parse_args(
        ["simulate", "--config", str(cfg), "--quiet"])
    run_cfg = dhnopt.cli.RunConfig.load(args)
    after_scenario, trajectories = [], []
    scenario, simulate_system = (dhnopt.cli._scenario,
                                 dhnopt.cli.simulate_system)

    def traced_scenario(cfg):
        sc = scenario(cfg)
        after_scenario.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return sc

    def kept_simulate_system(*args):
        traj = simulate_system(*args)
        trajectories.append(traj.values_c.nbytes)
        return traj

    monkeypatch.setattr("dhnopt.cli._scenario", traced_scenario)
    monkeypatch.setattr("dhnopt.cli.simulate_system", kept_simulate_system)
    tracemalloc.start()
    try:
        assert dhnopt.cli.cmd_simulate(run_cfg) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trajectories == [1432 * 289 * 8]
    assert peak - after_scenario[0] <= 1.5 * trajectories[0]


def test_optimize_drops_its_baseline_before_solving(small_files, monkeypatch):
    trajectories, alive = [], []
    simulate_system, optimize = dhnopt.cli.simulate_system, dhnopt.cli.optimize

    def watched_simulate_system(*args):
        traj = simulate_system(*args)
        trajectories.append(weakref.ref(traj.values_c))
        return traj

    def watched_optimize(*args):
        alive.append(trajectories[0]() is not None)
        return optimize(*args)

    monkeypatch.setattr("dhnopt.cli.simulate_system", watched_simulate_system)
    monkeypatch.setattr("dhnopt.cli.optimize", watched_optimize)
    cfg = _with(small_files, "short.json",
                optimizer={"max_inner_iterations": 1})
    assert _run("optimize", "--config", cfg, "--quiet") == EXIT_OK
    assert alive == [False]
