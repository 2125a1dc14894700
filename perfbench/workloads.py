"""The four benchmark workloads.

Each workload generates its inputs from the seed before anything is
timed (:meth:`prepare`), runs the package's public path up to the first
solve (:meth:`setup`), then repeats one timed operation (:meth:`op`).
The result of every operation is checked outside the timed section
(:meth:`inspect`), and :meth:`run_checks` adds checks that look at the
whole run. ``README.md`` in this directory says why each workload
exists.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import time
from pathlib import Path

import numpy as np

from dhnopt import cli, fixtures, network, optimizer, scenario, thermal
from dhnopt.objective import ConstraintSet, loss_energy

#: Frozen desk regression values and their tolerances; these mirror
#: ``FROZEN_STATIC_*`` and criterion 5 in ``tests/test_acceptance.py``.
FROZEN_STATIC_BASELINE_J = 161506461756.81976
FROZEN_STATIC_OPTIMIZED_J = 153004668027.79752
FROZEN_STATIC_SAVINGS = 0.05264057943281177
_BASELINE_RTOL = 1e-6
_OPTIMIZED_RTOL = 1e-3
_SAVINGS_ATOL = 2e-3

_MAX_VIOLATION_C = 0.1
_MIN_SEEDED_SAVINGS = 0.02
_RESIDUAL_REL = 1e-6
_FD_RTOL = 1e-5
_FD_STEP_C = 1e-3

_N_DAYS = 3
_DT_S = 900.0
_N_STEPS = 288
_MAX_CELL_M = 100.0
_CONSUMER_MEAN_W = 50e3


def ingest(inputs):
    """The CLI's public ingest path up to the first solve.

    Parses the network and flows, refines the pipes, reads the demand
    and price files, builds the scenario and factorizes the transient
    matrix, with the same settings the generated config asks for.
    """
    graph = network.parse_network(inputs / "nodes.csv", inputs / "edges.csv")
    flow = network.load_flow_field(inputs / "flows.csv", graph)
    graph, flow = network.subdivide_pipes(graph, flow, _MAX_CELL_M)
    demands = scenario.read_demand_set(inputs / "demands.csv")
    prices = scenario.read_price_series(inputs / "prices.csv")
    sc = scenario.build_scenario(
        graph, flow, demands, prices, ConstraintSet(),
        thermal.TimeGrid(dt_s=_DT_S, n_steps=_N_STEPS),
        thermal.PhysicalConstants())
    sc.system.lu_transient
    return sc


def _dir_bytes(path):
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


class Workload:
    """One benchmark workload; subclasses fill in the hooks."""

    name = ""
    #: Timed operations a run makes at least.
    min_ops = 1

    def __init__(self, seed, work_dir):
        self.seed = int(seed)
        self.work_dir = Path(work_dir)

    def prepare(self):
        """Generate the inputs; not timed."""

    def setup(self):
        """Public path up to the first solve; returns the op state."""
        raise NotImplementedError

    def op(self, state):
        """One timed operation."""
        raise NotImplementedError

    def inspect(self, state, result):
        """Check one operation; returns ``(record, failures)``."""
        return {}, []

    def run_checks(self, state):
        """Whole-run checks; returns a list of ``(name, failure or None)``."""
        return []

    def op_seconds(self, op_times, records):
        """``op_s``: the run's fastest operation.

        Interference from other work on a shared machine only ever adds
        time, and its quiet moments are short, so the fastest operation
        of a run is far steadier from run to run than the median.
        """
        return min(op_times)


class DeskStatic(Workload):
    """``optimize()`` on the static-price desk scenario from 110 °C."""

    name = "desk-static"

    def setup(self):
        sc = fixtures.desk_scenario(static=True, seed=self.seed)
        sc.system.lu_transient
        return {"scenario": sc}

    def op(self, state):
        return optimizer.optimize(state["scenario"])

    def _loss(self, sc, u):
        traj = thermal.simulate(sc.graph, sc.flow, sc, u)
        return loss_energy(traj, sc.graph, sc.flow, sc.price)

    def inspect(self, state, result):
        sc = state["scenario"]
        u_opt, report = result
        if "baseline_loss" not in state:
            u0 = np.tile(sc.u_init[:, None], (1, sc.grid.n_steps))
            state["baseline_loss"] = self._loss(sc, u0)
        base = state["baseline_loss"]
        opt = self._loss(sc, u_opt)
        savings = (base - opt) / base
        failures = []
        if report.aborted:
            failures.append(f"optimizer aborted: {report.abort_reason}")
        if not report.final_max_violation_c < _MAX_VIOLATION_C:
            failures.append(f"final violation {report.final_max_violation_c:.3e} °C")
        if self.seed == 0:
            if not math.isclose(base, FROZEN_STATIC_BASELINE_J,
                                rel_tol=_BASELINE_RTOL):
                failures.append(f"baseline loss {base!r} != frozen")
            if not math.isclose(opt, FROZEN_STATIC_OPTIMIZED_J,
                                rel_tol=_OPTIMIZED_RTOL):
                failures.append(f"optimized loss {opt!r} != frozen")
            if not abs(savings - FROZEN_STATIC_SAVINGS) <= _SAVINGS_ATOL:
                failures.append(f"savings {savings!r} != frozen")
        elif not savings >= _MIN_SEEDED_SAVINGS:
            failures.append(f"savings {savings:.4f} below {_MIN_SEEDED_SAVINGS}")
        return {"savings": savings}, failures


class _CliWorkload(Workload):
    """Repeated ``cli.main`` commands on files written before timing."""

    command = ""
    #: Byte identity of ``report.json`` needs two commands per run.
    min_ops = 2
    first_report = None

    @property
    def inputs(self):
        return self.work_dir / "inputs"

    @property
    def out(self):
        return self.work_dir / "out"

    def setup(self):
        return {"scenario": ingest(self.inputs)}

    def op(self, state):
        return cli.main([self.command, "--config", str(self.inputs / "config.json"),
                         "--out-dir", str(self.out), "--quiet"])

    def inspect(self, state, rc):
        failures = []
        report_bytes = b""
        report = {}
        if rc != cli.EXIT_OK:
            failures.append(f"exit code {rc}")
        if (self.out / "report.json").is_file():
            report_bytes = (self.out / "report.json").read_bytes()
            report = json.loads(report_bytes)
        else:
            failures.append("no report.json")
        if self.first_report is None:
            self.first_report = report_bytes
        if report_bytes != self.first_report:
            failures.append("report.json differs from the run's first command")
        failures += self.check_report(report)
        record = {"bytes_written": _dir_bytes(self.out) if self.out.is_dir() else 0,
                  "savings": report.get("savings") or 0.0}
        shutil.rmtree(self.out, ignore_errors=True)
        return record, failures

    def check_report(self, report):
        raise NotImplementedError


class DeskDynamicCli(_CliWorkload):
    """``dhnopt optimize`` on the dynamic-price desk fixture."""

    name = "desk-dynamic-cli"
    command = "optimize"

    def prepare(self):
        fixtures.write_desk_fixture(self.inputs, dynamic=True, seed=self.seed)

    def check_report(self, r):
        failures = []
        if r.get("aborted") is not False:
            failures.append("aborted is not false")
        if not (r.get("final_max_violation_c", math.inf) < _MAX_VIOLATION_C):
            failures.append(f"final violation {r.get('final_max_violation_c')}")
        corr = r.get("injection_price_correlation")
        if corr is None or not corr < 0:
            failures.append(f"injection/price correlation {corr}")
        if not (r.get("savings") or 0.0) > 0:
            failures.append(f"savings {r.get('savings')}")
        return failures


class FeederSimulateCli(_CliWorkload):
    """``dhnopt simulate`` on the feeder written as CSV files."""

    name = "feeder-simulate-cli"
    command = "simulate"

    def prepare(self):
        d = self.inputs
        d.mkdir(parents=True, exist_ok=True)
        # one cell per pipe: the CLI refines the 392 file nodes to 1432
        graph, flow = fixtures.feeder_network(max_cell_length_m=math.inf)
        network.write_network(graph, d / "nodes.csv", d / "edges.csv")
        network.write_flow_field(flow, graph, d / "flows.csv")
        n_cons = len(graph.consumer_edges)
        base = fixtures.daily_load_profile(mean_w=_CONSUMER_MEAN_W * n_cons,
                                           n_days=_N_DAYS, dt_s=_DT_S)
        demands = fixtures.demand_set_for(graph, base, seed=self.seed,
                                          mean_w_per_consumer=_CONSUMER_MEAN_W)
        scenario.write_demand_set(demands, d / "demands.csv")
        scenario.write_price_series(fixtures.two_level_price(n_days=_N_DAYS),
                                    d / "prices.csv")
        rng = np.random.default_rng(self.seed)
        times = np.arange(1, _N_STEPS + 1) * _DT_S
        phase = rng.uniform(0.0, 2.0 * np.pi)
        temps = (102.5 + 6.0 * np.sin(2.0 * np.pi * times / 86400.0 + phase)
                 + rng.uniform(-1.0, 1.0, times.size))
        with open(d / "control.csv", "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["time_s", "plant_edge_id", "supply_temp_c"])
            for t, temp in zip(times, temps):
                w.writerow([repr(float(t)), "producer", repr(float(temp))])
        config = {
            "network": {"nodes": "nodes.csv", "edges": "edges.csv",
                        "flows": "flows.csv"},
            "demand_file": "demands.csv",
            "price_file": "prices.csv",
            "control": {"file": "control.csv"},
            "scenario": {"dt_s": _DT_S, "n_steps": _N_STEPS,
                         "max_cell_length_m": _MAX_CELL_M},
            "seed": self.seed,
            "out_dir": "out",
        }
        with open(d / "config.json", "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=2, sort_keys=True)

    def check_report(self, r):
        failures = []
        if r.get("n_nodes") != 1432:
            failures.append(f"n_nodes {r.get('n_nodes')} != 1432")
        res = r.get("max_energy_balance_residual_rel", math.inf)
        if not res < _RESIDUAL_REL:
            failures.append(f"energy balance residual {res}")
        return failures


class FeederSweep(Workload):
    """Objective evaluator calls on the feeder at seeded controls.

    One operation is a block of 18 calls: 13 value-only evaluations in
    groups of 3, 3, 3, 2 and 2, each group followed by a gradient at its
    last point, as the line search requests it. That is the 2.6 : 1 mix
    of the feeder's own ``optimize()``. Every call is timed, and ``op_s``
    is one call at that mix with each kind of call at its fastest.
    """

    name = "feeder-sweep"
    groups = (3, 3, 3, 2, 2)
    _POOL = 64
    _LAMBDA = 100.0

    def prepare(self):
        rng = np.random.default_rng(self.seed)
        n_points = sum(self.groups)
        self.controls = rng.uniform(95.0, 110.0,
                                    (self._POOL, n_points, 1, _N_STEPS))
        self.check_control = rng.uniform(95.0, 110.0, (1, _N_STEPS))
        self.fd_steps = rng.choice(_N_STEPS, size=3, replace=False)
        self.block = 0

    def setup(self):
        sc = fixtures.feeder_scenario(seed=self.seed)
        sc.system.lu_transient
        return {"scenario": sc,
                "evaluator": optimizer.ObjectiveEvaluator(sc, self._LAMBDA)}

    def op(self, state):
        ev = state["evaluator"]
        points = iter(self.controls[self.block % self._POOL])
        self.block += 1
        values, grads, value_s, gradient_s = [], [], [], []
        for size in self.groups:
            for _ in range(size):
                u = next(points)
                t0 = time.perf_counter()
                values.append(ev.value(u))
                value_s.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            grads.append(ev.value_and_gradient(u)[1])
            gradient_s.append(time.perf_counter() - t0)
        return values, grads, value_s, gradient_s

    def inspect(self, state, result):
        values, grads, value_s, gradient_s = result
        failures = []
        if not (np.all(np.isfinite(values))
                and all(np.all(np.isfinite(g)) for g in grads)):
            failures.append("non-finite value or gradient")
        return {"value_s": value_s, "gradient_s": gradient_s}, failures

    def op_seconds(self, op_times, records):
        n_values = sum(self.groups)
        n_gradients = len(self.groups)
        fastest_value = min(t for r in records for t in r.get("value_s", ()))
        fastest_gradient = min(t for r in records for t in r.get("gradient_s", ()))
        return ((n_values * fastest_value + n_gradients * fastest_gradient)
                / (n_values + n_gradients))

    def run_checks(self, state):
        sc = state["scenario"]
        u = self.check_control
        ev = optimizer.ObjectiveEvaluator(sc, self._LAMBDA)
        grad = ev.value_and_gradient(u)[1]
        worst = 0.0
        for j in self.fd_steps:
            up, um = u.copy(), u.copy()
            up[0, j] += _FD_STEP_C
            um[0, j] -= _FD_STEP_C
            fd = (ev.value(up) - ev.value(um)) / (2 * _FD_STEP_C)
            g = grad[0, j]
            worst = max(worst, abs(g - fd) / max(abs(fd), abs(g), 1e-12))
        traj = thermal.simulate(sc.graph, sc.flow, sc, u)
        bal = thermal.energy_balance(sc.system, traj, sc.deltas, sc.ambient)
        residual = float(bal["residual_rel"].max())
        return [
            ("gradient vs central differences",
             None if worst < _FD_RTOL else f"relative error {worst:.2e}"),
            ("energy balance",
             None if residual < _RESIDUAL_REL else f"residual {residual:.2e}"),
        ]


WORKLOADS = {w.name: w for w in (DeskStatic, DeskDynamicCli, FeederSweep,
                                  FeederSimulateCli)}
