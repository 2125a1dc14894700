"""End-to-end acceptance suite.

One test per release criterion, each printing a PASS/FAIL line with the
measured figure (run with ``pytest -s tests/test_acceptance.py`` to see
them). Reference values marked as frozen were recorded from the first
verified run of this suite and guard against regressions.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dhnopt

from conftest import make_loop_scenario
from dhnopt.fixtures import (daily_load_profile, desk_scenario,
                             feeder_network, feeder_scenario, minimal_loop,
                             pipe_chain, write_desk_fixture)
from dhnopt.network import control_volumes
from dhnopt.objective import loss_energy
from dhnopt.optimizer import ObjectiveEvaluator, optimize
from dhnopt.scenario import LoadSeries, lowpass, synthesize_variations
from dhnopt.thermal import (PhysicalConstants, assemble, energy_balance,
                            simulate, solve_steady, stored_energy)

CP = 4186.0

# frozen on the first verified run of the desk fixture (seed 0)
FROZEN_STATIC_BASELINE_J = 161506461756.81976
FROZEN_STATIC_OPTIMIZED_J = 153004668027.79752
FROZEN_STATIC_SAVINGS = 0.05264057943281177


def _criterion(num, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def static_run():
    """Shared desk-fixture optimization (criteria 4 and 5)."""
    scenario = desk_scenario()
    u0 = np.full((1, scenario.grid.n_steps), 110.0)
    baseline = simulate(scenario.graph, scenario.flow, scenario, u0)
    u_opt, report = optimize(scenario, u0)
    optimized = simulate(scenario.graph, scenario.flow, scenario, u_opt)
    return {
        "scenario": scenario,
        "baseline_loss": loss_energy(baseline, scenario.graph, scenario.flow,
                                     scenario.price),
        "optimized_loss": loss_energy(optimized, scenario.graph,
                                      scenario.flow, scenario.price),
        "u_opt": u_opt,
        "report": report,
        "optimized": optimized,
    }


class TestCriterion1SteadyState:
    def test_chain_convergence_order(self):
        mdot, length = 0.05, 1000.0
        k = CP * mdot / length
        y_exact = 10.0 + 70.0 * math.exp(-1.0)
        ns = [1, 2, 4, 8, 16, 32, 64, 128, 256]
        errors = []
        for n in ns:
            graph, flow = pipe_chain(n, total_length_m=length, mdot_kg_s=mdot,
                                     htc_w_per_m_c=k)
            system = assemble(graph, flow, control_volumes(graph),
                              PhysicalConstants())
            y = solve_steady(system, [80.0], [0.0], 10.0)
            errors.append(abs(y[graph.node_index[f"S{n}"]] - y_exact))
        order = -np.polyfit(np.log(ns[-5:]), np.log(errors[-5:]), 1)[0]
        _criterion(1, abs(order - 1.0) <= 0.2,
                   f"observed steady convergence order {order:.3f} (want 1.0 ± 0.2)")

    def test_dense_oracle_on_small_fixtures(self):
        from dhnopt.fixtures import desk_network
        worst = 0.0
        for graph, flow in (minimal_loop(), desk_network(),
                            pipe_chain(16, 800.0, 0.05, 0.3)):
            assert graph.n_nodes <= 50
            system = assemble(graph, flow, control_volumes(graph),
                              PhysicalConstants())
            deltas = np.full(system.bc.n_consumers, 20.0)
            y = solve_steady(system, [100.0], deltas, 10.0)
            b = system.rhs_steady([100.0], deltas, 10.0)
            dense = np.linalg.solve(system.steady_matrix().toarray(), b)
            worst = max(worst, float(np.max(np.abs(y - dense))))
        _criterion(1, worst < 1e-8,
                   f"dense-oracle mismatch {worst:.2e} °C (want < 1e-8)")


class TestCriterion2EnergyBalance:
    @pytest.mark.parametrize("build", [
        lambda: desk_scenario(),
        lambda: desk_scenario(static=False),
        lambda: feeder_scenario(),
    ], ids=["desk-static", "desk-dynamic", "feeder"])
    def test_per_step_residual(self, build):
        scenario = build()
        t = scenario.grid.times()[1:]
        u = 110.0 + 8.0 * np.sin(2 * np.pi * t / 86400.0)[None, :]
        u = np.repeat(u, scenario.system.bc.n_plants, axis=0)
        traj = simulate(scenario.graph, scenario.flow, scenario, u)
        bal = energy_balance(scenario.system, traj, scenario.deltas,
                             scenario.ambient)
        worst = float(bal["residual_rel"].max())
        _criterion(2, worst < 1e-6,
                   f"max energy balance residual {worst:.2e} (want < 1e-6)")


class TestCriterion3GradientExactness:
    @pytest.mark.parametrize("build", [
        lambda: make_loop_scenario(n_steps=96, swing=0.3),
        lambda: desk_scenario(),
        lambda: feeder_scenario(n_feeders=1, consumers_per_feeder=9),
    ], ids=["loop", "desk", "hundred-node"])
    def test_adjoint_vs_central_differences(self, build):
        scenario = build()
        rng = np.random.default_rng(17)
        n_p, n_t = scenario.system.bc.n_plants, scenario.grid.n_steps
        u = 95.0 + 15.0 * rng.random((n_p, n_t))
        ev = ObjectiveEvaluator(scenario, lambda_p=100.0)
        _, grad = ev.value_and_gradient(u)
        worst = 0.0
        for _ in range(20):
            i = int(rng.integers(0, n_p))
            j = int(rng.integers(0, n_t))
            up, um = u.copy(), u.copy()
            up[i, j] += 1e-3
            um[i, j] -= 1e-3
            fd = (ev.value(up) - ev.value(um)) / 2e-3
            err = abs(grad[i, j] - fd) / max(abs(fd), abs(grad[i, j]), 1e-12)
            worst = max(worst, err)
        _criterion(3, worst < 1e-5,
                   f"adjoint vs FD relative error {worst:.2e} on 20 coords "
                   f"({scenario.graph.n_nodes} nodes; want < 1e-5)")

    def test_hundred_node_network_size(self):
        graph, _ = feeder_network(n_feeders=1, consumers_per_feeder=9)
        assert 90 <= graph.n_nodes <= 150


class TestCriterion4PenaltyContinuation:
    def test_final_violation_and_monotonicity(self, static_run):
        report = static_run["report"]
        viols = [r.max_violation_c for r in report.rounds]
        monotone = all(b <= a + 1e-9 for a, b in zip(viols, viols[1:]))
        final = report.final_max_violation_c
        _criterion(4, final < 0.1 and monotone and not report.aborted,
                   f"final max violation {final:.2e} °C, rounds "
                   f"{['%.1e' % v for v in viols]} (want < 0.1, non-increasing)")


class TestCriterion5LowTemperatureOperation:
    def test_savings_and_binding_constraints(self, static_run):
        scenario = static_run["scenario"]
        savings = (static_run["baseline_loss"] - static_run["optimized_loss"]) \
            / static_run["baseline_loss"]
        y = static_run["optimized"].values_c
        bc = scenario.system.bc
        min_supply = y[bc.consumer_supply_nodes, 1:].min(axis=0)
        min_return = y[bc.consumer_return_nodes, 1:].min(axis=0)
        binding = ((np.abs(min_supply - 80.0) <= 0.5)
                   | (np.abs(min_return - 30.0) <= 0.5))
        ok = (static_run["optimized_loss"] < static_run["baseline_loss"]
              and savings >= 0.02 and binding.mean() >= 0.5)
        _criterion(5, ok,
                   f"savings {100 * savings:.2f} % (want >= 2 %), binding "
                   f"fraction {binding.mean():.2f} (want >= 0.5)")

    def test_frozen_regression_values(self, static_run):
        savings = (static_run["baseline_loss"] - static_run["optimized_loss"]) \
            / static_run["baseline_loss"]
        assert static_run["baseline_loss"] == pytest.approx(
            FROZEN_STATIC_BASELINE_J, rel=1e-6)
        assert static_run["optimized_loss"] == pytest.approx(
            FROZEN_STATIC_OPTIMIZED_J, rel=1e-3)
        assert savings == pytest.approx(FROZEN_STATIC_SAVINGS, abs=2e-3)


class TestCriterion6DynamicPricing:
    def test_storage_exploitation(self, static_run):
        u_static = static_run["u_opt"]
        level = round(float(np.mean(u_static[:, -96:])), 1)
        scenario = desk_scenario(static=False, initial_control_c=level)

        static_traj = simulate(scenario.graph, scenario.flow, scenario,
                               u_static)
        cost_static = loss_energy(static_traj, scenario.graph, scenario.flow,
                                  scenario.price)
        u0 = np.full((1, scenario.grid.n_steps), level)
        u_dyn, report = optimize(scenario, u0)
        dyn_traj = simulate(scenario.graph, scenario.flow, scenario, u_dyn)
        cost_dyn = loss_energy(dyn_traj, scenario.graph, scenario.flow,
                               scenario.price)
        _criterion(6, cost_dyn < cost_static,
                   f"(a) dynamic-optimal cost {cost_dyn:.2f} EUR < "
                   f"static-optimal cost {cost_static:.2f} EUR")

        bal = energy_balance(scenario.system, dyn_traj, scenario.deltas,
                             scenario.ambient)
        price = scenario.price.step_prices
        corr = float(np.corrcoef(bal["injection_w"], price)[0, 1])
        _criterion(6, corr < 0.0,
                   f"(b) corr(injection, price) = {corr:.3f} (want < 0)")

        ref = float(np.mean(scenario.ambient))
        energy = stored_energy(dyn_traj.values_c, scenario.volumes,
                               scenario.constants, ref)
        # charging happens while energy is cheap: the strongest storage
        # build-up step must fall into a cheap-price interval
        charge_step = int(np.argmax(np.diff(energy)))
        assert price[charge_step] < np.median(price)
        assert energy.max() > 1.2 * energy[0]

        deviation = abs(energy[-1] - energy[0]) / energy[0]
        _criterion(6, deviation <= 0.05,
                   f"(c) stored energy depleted to within "
                   f"{100 * deviation:.2f} % of initial (want <= 5 %)")
        assert report.final_max_violation_c < 0.1


@pytest.mark.slow
class TestCriterion7ScaleRuntime:
    def test_full_optimize_under_five_minutes(self):
        scenario = feeder_scenario()
        n_nodes = scenario.graph.n_nodes
        assert n_nodes >= 1300
        assert scenario.grid.n_steps == 288
        u0 = np.full((1, 288), 110.0)
        _, report = optimize(scenario, u0)
        ok = report.wall_time_s < 300.0 and not report.aborted
        _criterion(7, ok,
                   f"{n_nodes}-node optimize took {report.wall_time_s:.0f} s "
                   f"(want < 300 s), final violation "
                   f"{report.final_max_violation_c:.1e} °C")


class TestCriterion8ScenarioSynthesis:
    def test_filter_and_variation_properties(self, tmp_path):
        flat = LoadSeries(values_w=np.full(512, 777.0), dt_s=900.0)
        dc_dev = np.max(np.abs(lowpass(flat, 69.4e-6).values_w - 777.0)) / 777.0
        _criterion(8, dc_dev < 1e-9,
                   f"Butterworth DC gain deviation {dc_dev:.1e} (want < 1e-9)")

        t = np.arange(4096) * 900.0
        tone = LoadSeries(values_w=10.0 + np.sin(2 * np.pi * 10 * 69.4e-6 * t),
                          dt_s=900.0)
        ripple = np.max(np.abs(lowpass(tone, 69.4e-6).values_w[1024:3072]
                               - 10.0))
        _criterion(8, ripple <= 1e-3,
                   f"10x-cutoff tone attenuated to {ripple:.1e} "
                   f"(want >= 60 dB, i.e. <= 1e-3)")

        base = daily_load_profile()
        flatline = synthesize_variations(base, 2, sigma=0.0, seed=4)
        shape_ok = all(
            np.allclose(s.values_w, s.mean() / base.mean() * base.values_w,
                        rtol=1e-12) for s in flatline)
        _criterion(8, shape_ok, "sigma=0 variations reproduce the base shape")

        cfg = write_desk_fixture(tmp_path)
        from dhnopt.cli import main
        assert main(["synth-demand", "--config", str(cfg), "--quiet",
                     "--out-dir", str(tmp_path / "da")]) == 0
        assert main(["synth-demand", "--config", str(cfg), "--quiet",
                     "--out-dir", str(tmp_path / "db")]) == 0
        same = (tmp_path / "da" / "demands.csv").read_bytes() == \
            (tmp_path / "db" / "demands.csv").read_bytes()
        _criterion(8, same, "fixed seed reproduces bit-identical demand files")


class TestCriterion9Determinism:
    def _cli(self, args, threads):
        src = str(Path(dhnopt.__file__).parents[1])
        env = dict(os.environ, OMP_NUM_THREADS=str(threads),
                   OPENBLAS_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join(
                       filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run(
            [sys.executable, "-m", "dhnopt", *map(str, args), "--quiet"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc

    def test_bit_identical_across_thread_counts(self, tmp_path):
        cfg = write_desk_fixture(tmp_path, n_consumers=3, n_days=1)
        self._cli(["simulate", "--config", cfg,
                   "--out-dir", tmp_path / "s1"], 1)
        self._cli(["simulate", "--config", cfg,
                   "--out-dir", tmp_path / "s4"], 4)
        sim_same = all(
            (tmp_path / "s1" / n).read_bytes() ==
            (tmp_path / "s4" / n).read_bytes()
            for n in ("report.json", "summary.csv", "energy_balance.csv",
                      "stored_energy.csv", "steady_state.csv"))
        _criterion(9, sim_same,
                   "simulate outputs bit-identical for 1 vs 4 BLAS threads")

        self._cli(["optimize", "--config", cfg,
                   "--out-dir", tmp_path / "o1"], 1)
        self._cli(["optimize", "--config", cfg,
                   "--out-dir", tmp_path / "o4"], 4)
        opt_same = all(
            (tmp_path / "o1" / n).read_bytes() ==
            (tmp_path / "o4" / n).read_bytes()
            for n in ("report.json", "controls.csv", "optimized_control.csv",
                      "plant_power.csv", "trace.csv"))
        _criterion(9, opt_same,
                   "optimize outputs bit-identical for 1 vs 4 BLAS threads")
