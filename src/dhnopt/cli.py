"""Command-line driver: simulate, optimize, synth-demand, verify, report.

One JSON config file describes a run; flags override the output
directory, seed and verbosity. Scalar results land in
``report.json`` (deterministic bytes for a fixed config and seed; wall
times go to ``timing.json``), time series in flat CSV files with one
row per solved step.

Exit codes: 0 success, 1 numerical failure, 2 input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .errors import ParseError, SolverError, ValidationError
from .network import (check_finite, load_flow_field, parse_network,
                      read_csv, rows_by_id, subdivide_pipes, write_csv)
from .objective import (J_PER_MWH, ConstraintSet, constraint_violations,
                        loss_energy, loss_energy_steps, max_violation)
from .optimizer import OptimizerConfig, optimize
from .scenario import (DEFAULT_CUTOFF_HZ, DEFAULT_NOISE_BAND_HZ,
                       DEFAULT_NOISE_SIGMA, DemandSet, build_scenario,
                       interpolate, lowpass, read_demand_set,
                       read_load_series, read_price_series,
                       synthesize_variations, write_demand_set)
from .thermal import (DEFAULT_AMBIENT, DEFAULT_CP, DEFAULT_RHO,
                      PhysicalConstants, TimeGrid, energy_balance,
                      plant_injection_w, simulate_system, solve_steady,
                      stored_energy)

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_INPUT = 2

_SAVINGS_RECOMPUTE_RTOL = 1e-12
_BINDING_TOL_C = 0.5


def compute_quantiles(traj, graph, levels=(1, 10, 50, 90, 99)):
    """Per-step quantile bands of the consumer supply temperatures.

    Empirical quantiles with linear interpolation between order
    statistics, plus the per-step minimum and median.
    """
    temps = traj.values_c[graph.boundary.consumer_supply_nodes, 1:]
    out = {"min": temps.min(axis=0), "median": np.median(temps, axis=0)}
    for q in levels:
        out[f"p{q:g}"] = np.quantile(temps, q / 100.0, axis=0)
    return out


def _field_defaults(cls):
    return {f.name: f.default for f in dataclasses.fields(cls)}


def _arg_default(func, name):
    return inspect.signature(func).parameters[name].default


# Every config key with its default. A value must have the kind of its
# default: a number, a list of numbers (of the same length if the
# default is a tuple), a bool or a string. ``_NONE_KINDS`` gives the
# kind of the values that default to ``None``; the other ``None``
# defaults are file paths.
_DEFAULTS = {
    "network": {"nodes": None, "edges": None, "flows": None},
    "demand_file": None,
    "price_file": None,
    "base_load_file": None,
    "control": {"constant_c": None, "file": None},
    "scenario": {
        "dt_s": 900.0,
        "n_steps": None,
        "horizon_s": None,
        "ambient_c": DEFAULT_AMBIENT,  # or a per-step list
        "cp_j_per_kg_c": DEFAULT_CP,
        "rho_kg_m3": DEFAULT_RHO,
        "max_cell_length_m": _arg_default(subdivide_pipes, "max_cell_length_m"),
        **{key: _arg_default(build_scenario, key) for key in
           ("alpha", "beta", "tikhonov_weight", "initial_control_c")},
        "constraints": _field_defaults(ConstraintSet),
    },
    "optimizer": _field_defaults(OptimizerConfig),
    "synthesis": {
        "cutoff_hz": DEFAULT_CUTOFF_HZ,
        "order": _arg_default(lowpass, "order"),
        "band_hz": DEFAULT_NOISE_BAND_HZ,
        "sigma": DEFAULT_NOISE_SIGMA,
        "mean_w_per_consumer": None,
    },
    "verify": {
        "reference_file": None,
        "dense_tolerance_c": 1e-8,
        "mean_mismatch_threshold_c": None,
    },
    "quantile_levels": list(_arg_default(compute_quantiles, "levels")),
    "seed": 0,
    "out_dir": "out",
}

_NONE_KINDS = {
    "scenario.n_steps": int, "scenario.horizon_s": float,
    "control.constant_c": float, "synthesis.mean_w_per_consumer": float,
    "verify.mean_mismatch_threshold_c": float,
}


def _merge(defaults, given, prefix=""):
    """``given`` over ``defaults``, every value checked against its default."""
    if not isinstance(given, dict):
        where = f"config {prefix[:-1]!r}" if prefix else "config"
        raise ValidationError(f"{where} must be a JSON object, got {given!r}")
    for key in given:
        if key not in defaults:
            raise ValidationError(f"unknown config key {prefix + key!r}")
    return {key: (_merge(default, given.get(key, {}), f"{prefix}{key}.")
                  if isinstance(default, dict)
                  else _value(given.get(key, default), prefix + key, default))
            for key, default in defaults.items()}


def _value(value, name, default):
    """One config value, converted to the kind of its default."""
    if default is None and value is None:
        return None
    kind = _NONE_KINDS.get(name, str) if default is None else type(default)
    if name == "scenario.ambient_c" and isinstance(value, list):
        kind = list  # a per-step series
    if kind in (int, float):
        return _number(value, name, kind)
    if kind in (list, tuple):
        size = len(default) if kind is tuple else None
        if (not isinstance(value, (list, tuple))
                or size not in (None, len(value))):
            what = "a list of" if size is None else f"a list of {size}"
            raise ValidationError(
                f"config {name!r} must be {what} numbers, got {value!r}")
        for v in value:  # kept as given: an integer level prints as one
            _number(v, name)
        if name == "quantile_levels" and not all(0 <= q <= 100 for q in value):
            raise ValidationError(
                f"config {name!r} must lie in [0, 100], got {value}")
        return list(value)
    if not isinstance(value, kind):
        what = "true or false" if kind is bool else "a string"
        raise ValidationError(f"config {name!r} must be {what}, got {value!r}")
    return value


def _number(value, name, kind=float):
    """A config value as a finite ``kind`` (``float`` or ``int``).

    A string, ``null``, boolean, NaN or infinity, or a fraction where an
    integer is expected, is a ``ValidationError`` naming the key.
    """
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)
            or (kind is int and value != int(value))):
        what = "an integer" if kind is int else "a finite number"
        raise ValidationError(f"config {name!r} must be {what}, got {value!r}")
    return kind(value)


class RunConfig:
    """Parsed config file plus flag overrides."""

    def __init__(self, data, base_dir, out_dir, seed, quiet):
        self.data = data
        self.base_dir = Path(base_dir)
        self.out_dir = Path(out_dir)
        self.seed = seed
        self.quiet = quiet

    @classmethod
    def load(cls, args):
        path = Path(args.config)
        if not path.is_file():
            raise ValidationError(f"config file not found: {path}")
        with open(path, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}: invalid JSON: {exc}") from None
        data = _merge(_DEFAULTS, raw)
        seed = args.seed if args.seed is not None else data["seed"]
        base = path.parent
        # a flag resolves against the working directory, the config
        # value against the config file's own directory
        if args.out_dir:
            out = Path(args.out_dir).absolute()
        else:
            out = Path(data["out_dir"])
            if not out.is_absolute():
                out = base / out
        return cls(data, base, out, seed, args.quiet)

    def path(self, key, *, required=True, section=None):
        value = (self.data[section] if section else self.data).get(key)
        name = f"{section}.{key}" if section else key
        if not value:
            if required:
                raise ValidationError(f"config is missing {name!r}")
            return None
        p = Path(value)
        if not p.is_absolute():
            p = self.base_dir / p
        if not p.is_file():
            raise ValidationError(f"{name}: file not found: {p}")
        return p

    def log(self, msg):
        if not self.quiet:
            print(msg)


# ---------------------------------------------------------------------------
# config -> model objects
# ---------------------------------------------------------------------------

def _load_network(cfg):
    nodes, edges, flows = (cfg.path(key, section="network")
                           for key in ("nodes", "edges", "flows"))
    graph = parse_network(nodes, edges)
    flow = load_flow_field(flows, graph)
    return subdivide_pipes(graph, flow,
                           cfg.data["scenario"]["max_cell_length_m"])


def _time_grid(sc):
    dt, horizon = sc["dt_s"], sc["horizon_s"]
    if sc["n_steps"] is not None:
        return TimeGrid(dt_s=dt, n_steps=sc["n_steps"])
    if horizon is None:
        raise ValidationError("config needs scenario.n_steps or scenario.horizon_s")
    n = horizon / dt
    if abs(n - round(n)) > 1e-9:
        raise ValidationError(
            f"dt_s={dt} does not divide horizon_s={horizon}"
        )
    return TimeGrid(dt_s=dt, n_steps=int(round(n)))


def _scenario(cfg):
    sc = cfg.data["scenario"]
    grid = _time_grid(sc)
    ambient = sc["ambient_c"]
    if isinstance(ambient, list) and len(ambient) != grid.n_steps + 1:
        raise ValidationError(f"config 'scenario.ambient_c' needs n_steps + 1 "
                              f"= {grid.n_steps + 1} values, got {len(ambient)}")
    graph, flow = _load_network(cfg)
    demand_path = cfg.path("demand_file")
    demands = read_demand_set(demand_path)
    known = {graph.edge_ids[e] for e in graph.consumer_edges}
    unknown = [cid for cid in demands.consumer_ids if cid not in known]
    if unknown:
        raise ValidationError(f"{demand_path}: unknown consumer {unknown[0]!r}")
    price_path = cfg.path("price_file", required=False)
    prices = None if price_path is None else read_price_series(price_path)
    constants = PhysicalConstants(cp_j_per_kg_c=sc["cp_j_per_kg_c"],
                                  rho_kg_m3=sc["rho_kg_m3"],
                                  ambient_c=ambient)
    return build_scenario(
        graph, flow, demands, prices, ConstraintSet(**sc["constraints"]),
        grid, constants, alpha=sc["alpha"], beta=sc["beta"],
        tikhonov_weight=sc["tikhonov_weight"],
        initial_control_c=sc["initial_control_c"],
    )


def _control(cfg, scenario):
    """Baseline control trajectory, shape (n_plants, n_steps)."""
    grid = scenario.grid
    path = cfg.path("file", required=False, section="control")
    if path is not None:
        return _read_control_file(path, scenario.graph, grid)
    const = cfg.data["control"]["constant_c"]
    if const is None:
        const = cfg.data["scenario"]["initial_control_c"]
    return np.full((scenario.system.bc.n_plants, grid.n_steps), const)


_CONTROL_HEADER = ["time_s", "plant_edge_id", "supply_temp_c"]
_STEADY_HEADER = ["node_id", "temperature_c"]
_PLANT_POWER_HEADER = ["time_s", "baseline_injection_w", "optimized_injection_w",
                       "baseline_loss_step", "optimized_loss_step"]


def _read_control_file(path, graph, grid):
    plant_ids = [graph.edge_ids[e] for e in graph.boundary.producer_edges]
    by_id = {pid: {} for pid in plant_ids}
    lines, cols = read_csv(path, _CONTROL_HEADER, ("time_s", "supply_temp_c"))
    check_finite(path, lines, cols, ("time_s", "supply_temp_c"))
    for lineno, t, pid, temp in zip(lines.tolist(), cols["time_s"].tolist(),
                                    cols["plant_edge_id"],
                                    cols["supply_temp_c"].tolist()):
        if pid not in by_id:
            raise ValidationError(f"{path}:{lineno}: unknown plant {pid!r}")
        if t in by_id[pid]:
            raise ValidationError(
                f"{path}:{lineno}: duplicate row for plant {pid!r} at {t!r} s")
        by_id[pid][t] = temp
    u = np.empty((len(plant_ids), grid.n_steps))
    for i, pid in enumerate(plant_ids):
        if not by_id[pid]:
            raise ValidationError(f"{path}: no rows for plant {pid!r}")
        times = np.array(sorted(by_id[pid]))
        vals = np.array([by_id[pid][t] for t in times])
        u[i] = interpolate(grid.times()[1:], times, vals,
                           f"{path}: control for {pid!r}")
    return u


# ---------------------------------------------------------------------------
# metrics and series output
# ---------------------------------------------------------------------------

def _min_consumer_temps(traj, bc):
    y = traj.values_c
    return (y[bc.consumer_supply_nodes, 1:].min(axis=0),
            y[bc.consumer_return_nodes, 1:].min(axis=0))


def _stored_series(scenario, traj):
    """Stored energy per step vs ambient mean and vs the initial state."""
    ref = float(np.mean(scenario.ambient))
    e = stored_energy(traj.values_c, scenario.volumes, scenario.constants,
                      reference_c=ref)
    return e[1:], e[1:] - e[0], e[0]


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        # numpy floats are floats to json; arrays and the other numpy
        # scalars become lists and Python numbers
        json.dump(obj, fh, indent=2, sort_keys=True,
                  default=lambda v: v.tolist())
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(cfg):
    """Run the solution operator and write trajectory diagnostics."""
    scenario = _scenario(cfg)
    graph = scenario.graph
    u = _control(cfg, scenario)
    system = scenario.system
    t0 = time.perf_counter()
    # the initial steady state follows the supplied trajectory's start
    traj = simulate_system(system, scenario.grid, u, scenario.deltas,
                           scenario.ambient, u[:, 0])
    wall = time.perf_counter() - t0

    balance = energy_balance(system, traj, scenario.deltas, scenario.ambient)
    times = scenario.grid.times()[1:]
    cfg.out_dir.mkdir(parents=True, exist_ok=True)

    write_csv(cfg.out_dir / "steady_state.csv",
              {"node_id": graph.node_ids, "temperature_c": traj.values_c[:, 0]})
    min_supply, min_return = _min_consumer_temps(traj, system.bc)
    e_amb, e_init, e0 = _stored_series(scenario, traj)
    temps = traj.values_c[:, 1:]
    write_csv(cfg.out_dir / "summary.csv", {
        "time_s": times, "min_temp_c": temps.min(axis=0),
        "mean_temp_c": temps.mean(axis=0), "max_temp_c": temps.max(axis=0),
        "min_consumer_supply_c": min_supply,
        "min_consumer_return_c": min_return,
        "plant_injection_w": plant_injection_w(system, traj)})
    write_csv(cfg.out_dir / "energy_balance.csv", {"time_s": times, **balance})
    write_csv(cfg.out_dir / "stored_energy.csv",
              {"time_s": times, "stored_vs_ambient_j": e_amb,
               "stored_vs_initial_j": e_init})

    c = constraint_violations(traj, graph, scenario.constraints)
    report = {
        "command": "simulate",
        "n_nodes": graph.n_nodes,
        "n_edges": graph.n_edges,
        "n_steps": scenario.grid.n_steps,
        "dt_s": scenario.grid.dt_s,
        "loss": loss_energy(traj, graph, scenario.flow, scenario.price,
                            scenario.constants.cp_j_per_kg_c),
        "loss_unit": scenario.price.loss_unit,
        "max_energy_balance_residual_rel": float(balance["residual_rel"].max()),
        "max_constraint_violation_c": max_violation(c),
        "initial_stored_vs_ambient_j": e0,
        "seed": cfg.seed,
        "config": cfg.data,
    }
    _write_json(cfg.out_dir / "report.json", report)
    _write_json(cfg.out_dir / "timing.json", {"wall_time_s": wall})
    cfg.log(f"simulated {scenario.grid.n_steps} steps on {graph.n_nodes} nodes; "
            f"max balance residual {report['max_energy_balance_residual_rel']:.2e}")
    return EXIT_OK


def cmd_optimize(cfg):
    """Optimize the plant controls and report baseline vs optimized."""
    opt_cfg = OptimizerConfig(**cfg.data["optimizer"])
    scenario = _scenario(cfg)
    graph, flow = scenario.graph, scenario.flow
    u0 = _control(cfg, scenario)
    system = scenario.system
    bc = system.bc

    t0 = time.perf_counter()
    baseline = simulate_system(system, scenario.grid, u0, scenario.deltas,
                               scenario.ambient, scenario.u_init)
    u_opt, opt_report = optimize(scenario, u0, opt_cfg)
    optimized = simulate_system(system, scenario.grid, u_opt, scenario.deltas,
                                scenario.ambient, scenario.u_init)
    wall = time.perf_counter() - t0

    cp, price = scenario.constants.cp_j_per_kg_c, scenario.price
    loss_base = loss_energy(baseline, graph, flow, price, cp)
    loss_opt = loss_energy(optimized, graph, flow, price, cp)
    savings = (loss_base - loss_opt) / loss_base

    times = scenario.grid.times()[1:]
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    plant_ids = [graph.edge_ids[e] for e in bc.producer_edges]

    # run-major files fill in the loop; quantity-major ones read ``runs``
    controls, temps, runs = {"time_s": times}, {"time_s": times}, {}
    for name, u, traj in (("baseline", u0, baseline),
                          ("optimized", u_opt, optimized)):
        controls |= {f"{name}_{p}": row for p, row in zip(plant_ids, u)}
        supply, ret = _min_consumer_temps(traj, bc)
        temps |= {f"{name}_min_supply_c": supply, f"{name}_min_return_c": ret}
        vs_ambient, vs_initial, initial = _stored_series(scenario, traj)
        runs[name] = {
            "vs_ambient_j": vs_ambient, "vs_initial_j": vs_initial,
            "initial_j": initial,
            "injection_w": plant_injection_w(system, traj),
            "loss_step": loss_energy_steps(traj, graph, flow, price, cp),
        }
        write_csv(out / f"quantiles_{name}.csv",
                  {"time_s": times, **compute_quantiles(
                      traj, graph, cfg.data["quantile_levels"])})

    write_csv(out / "controls.csv", controls)
    write_csv(out / "optimized_control.csv", {
        "time_s": np.tile(times, len(plant_ids)),
        "plant_edge_id": [p for p in plant_ids for _ in times],
        "supply_temp_c": u_opt.ravel()})
    write_csv(out / "consumer_temps.csv", temps)
    write_csv(out / "stored_energy.csv", {"time_s": times} | {
        f"{run}_{key}": runs[run][key]
        for key in ("vs_ambient_j", "vs_initial_j") for run in runs})
    price_curve = np.ones_like(times) if price.static else price.step_prices
    write_csv(out / "price.csv", {"time_s": times, "price_eur_mwh": price_curve})
    write_csv(out / "plant_power.csv", {"time_s": times} | {
        f"{run}_{key}": runs[run][key]
        for key in ("injection_w", "loss_step") for run in runs})

    rounds = opt_report.rounds
    write_csv(out / "trace.csv", {"round": np.arange(len(rounds))} | {
        key: np.array([getattr(r, key) for r in rounds], dtype=dtype)
        for key, dtype in (("lambda_p", float), ("inner_iterations", int),
                           ("objective", float), ("true_loss", float),
                           ("max_violation_c", float), ("grad_norm", float))})

    opt = runs["optimized"]
    smin = scenario.constraints.consumer_supply_min_c
    rmin = scenario.constraints.consumer_return_min_c
    binding = (
        (np.abs(temps["optimized_min_supply_c"] - smin) <= _BINDING_TOL_C)
        | (np.abs(temps["optimized_min_return_c"] - rmin) <= _BINDING_TOL_C))
    report = {
        "command": "optimize",
        "n_nodes": graph.n_nodes,
        "n_edges": graph.n_edges,
        "n_steps": scenario.grid.n_steps,
        "baseline_loss": loss_base,
        "optimized_loss": loss_opt,
        "savings": savings,
        "loss_unit": price.loss_unit,
        "baseline_loss_mwh": loss_base / J_PER_MWH if price.static else None,
        "optimized_loss_mwh": loss_opt / J_PER_MWH if price.static else None,
        "final_max_violation_c": opt_report.final_max_violation_c,
        "binding_fraction": float(binding.mean()),
        "stored_energy_initial_j": opt["initial_j"],
        "stored_energy_final_j": float(opt["vs_ambient_j"][-1]),
        "injection_price_correlation": (
            float(np.corrcoef(opt["injection_w"], price_curve)[0, 1])
            if not price.static else None),
        "aborted": opt_report.aborted,
        "abort_reason": opt_report.abort_reason,
        "rounds": [dataclasses.asdict(r) for r in opt_report.rounds],
        "seed": cfg.seed,
        "config": cfg.data,
    }
    _write_json(out / "report.json", report)
    _write_json(out / "timing.json",
                {"wall_time_s": wall,
                 "optimize_wall_time_s": opt_report.wall_time_s})

    cfg.log(f"baseline {loss_base:.6e} -> optimized {loss_opt:.6e} "
            f"({price.loss_unit}); "
            f"savings {100 * savings:.2f} %; "
            f"max violation {opt_report.final_max_violation_c:.3f} °C")
    if opt_report.aborted:
        cfg.log(f"optimizer aborted: {opt_report.abort_reason}")
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_verify(cfg):
    """Steady solve cross-checked against a dense oracle and a reference."""
    scenario = _scenario(cfg)
    graph = scenario.graph
    u = _control(cfg, scenario)
    system = scenario.system
    y = solve_steady(system, u[:, 0], scenario.deltas[:, 0],
                     scenario.ambient[0])

    dense = np.linalg.solve(
        system.steady_matrix().toarray(),
        system.rhs_steady(u[:, 0], scenario.deltas[:, 0], scenario.ambient[0]))
    dense_mismatch = float(np.max(np.abs(y - dense)))

    ver = cfg.data["verify"]
    tol = ver["dense_tolerance_c"]
    report = {
        "command": "verify",
        "n_nodes": graph.n_nodes,
        "dense_mismatch_c": dense_mismatch,
        "dense_tolerance_c": tol,
        "dense_ok": dense_mismatch <= tol,
        "seed": cfg.seed,
        "config": cfg.data,
    }

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    failed = dense_mismatch > tol

    ref_path = cfg.path("reference_file", required=False, section="verify")
    if ref_path is not None:
        ref = _read_reference(ref_path, graph)
        mismatch = y - ref
        mean_abs = float(np.mean(np.abs(mismatch)))
        counts, bins = np.histogram(mismatch, bins=50)
        write_csv(cfg.out_dir / "mismatch_histogram.csv",
                  {"bin_left_c": bins[:-1], "bin_right_c": bins[1:],
                   "count": counts})
        report["reference_mean_abs_mismatch_c"] = mean_abs
        report["reference_max_abs_mismatch_c"] = float(np.max(np.abs(mismatch)))
        threshold = ver["mean_mismatch_threshold_c"]
        if threshold is not None and mean_abs > threshold:
            report["reference_ok"] = False
            failed = True
        else:
            report["reference_ok"] = True

    write_csv(cfg.out_dir / "steady_state.csv",
              {"node_id": graph.node_ids, "temperature_c": y})
    _write_json(cfg.out_dir / "verify_report.json", report)
    cfg.log(f"dense-oracle mismatch {dense_mismatch:.3e} °C on "
            f"{graph.n_nodes} nodes")
    if ref_path is not None:
        cfg.log(f"reference mean abs mismatch "
                f"{report['reference_mean_abs_mismatch_c']:.4f} °C")
    return EXIT_NUMERICAL if failed else EXIT_OK


def _read_reference(path, graph):
    """Reference temperature per node, one row for each node of ``graph``."""
    lines, cols = read_csv(path, _STEADY_HEADER, ("temperature_c",))
    check_finite(path, lines, cols, ("temperature_c",))
    rows = rows_by_id(path, lines, cols["node_id"], graph.node_index, "node")
    return cols["temperature_c"][rows]


def cmd_synth_demand(cfg):
    """Low-pass the base load and write per-consumer demand variations."""
    graph, _ = _load_network(cfg)
    base = read_load_series(cfg.path("base_load_file"))
    syn = cfg.data["synthesis"]
    smooth = lowpass(base, syn["cutoff_hz"], order=syn["order"])
    consumer_ids = [graph.edge_ids[e] for e in graph.consumer_edges]
    n = len(consumer_ids)
    mean_target = syn["mean_w_per_consumer"]
    series = synthesize_variations(
        smooth, n, band_hz=syn["band_hz"], sigma=syn["sigma"], seed=cfg.seed,
        target_means=None if mean_target is None else np.full(n, mean_target),
        keys=consumer_ids)
    demands = DemandSet(consumer_ids=tuple(consumer_ids), series=tuple(series))

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    write_demand_set(demands, cfg.out_dir / "demands.csv")
    values = [s.values_w for s in series]
    write_csv(cfg.out_dir / "demand_summary.csv", {
        "consumer_edge_id": consumer_ids,
        "mean_w": np.array([v.mean() for v in values]),
        "min_w": np.array([v.min() for v in values]),
        "max_w": np.array([v.max() for v in values])})
    cfg.log(f"synthesized {n} demand series "
            f"(mean {values[0].mean():.1f} W each)")
    return EXIT_OK


def cmd_report(args):
    """Recompute and print the summary of a finished optimize run."""
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir is None and args.config:
        cfg = RunConfig.load(args)
        out_dir = cfg.out_dir
    if out_dir is None:
        raise ValidationError("report needs --out-dir or --config")
    report_path = out_dir / "report.json"
    if not report_path.is_file():
        raise ValidationError(f"no report found: {report_path}")
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)

    lines = [f"{k}: {report[k]}" for k in
             ("command", "n_nodes", "n_steps", "baseline_loss",
              "optimized_loss", "savings", "loss_unit",
              "final_max_violation_c", "binding_fraction")
             if k in report]
    if not args.quiet:
        print("\n".join(lines))

    power_path = out_dir / "plant_power.csv"
    if report.get("command") == "optimize" and power_path.is_file():
        _, cols = read_csv(power_path, _PLANT_POWER_HEADER,
                           _PLANT_POWER_HEADER)
        loss_base = float(np.sum(cols["baseline_loss_step"]))
        loss_opt = float(np.sum(cols["optimized_loss_step"]))
        recomputed = (loss_base - loss_opt) / loss_base
        if not np.isclose(recomputed, report["savings"],
                          rtol=_SAVINGS_RECOMPUTE_RTOL, atol=0.0):
            print(f"error: savings in report ({report['savings']!r}) do not "
                  f"match the series ({recomputed!r})", file=sys.stderr)
            return EXIT_NUMERICAL
        if not args.quiet:
            print(f"savings recomputed from series: {recomputed}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dhnopt",
        description="District heating network simulation and optimal control",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to the JSON run config")
    common.add_argument("--out-dir", help="output directory (overrides config)")
    common.add_argument("--seed", type=int, help="master seed (overrides config)")
    common.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_):
        sub.add_parser(name, parents=[common], help=help_).set_defaults(func=func)

    add("simulate", cmd_simulate, "run the solution operator on a control")
    add("optimize", cmd_optimize, "optimize the plant supply temperatures")
    add("synth-demand", cmd_synth_demand, "synthesize consumer demand profiles")
    add("verify", cmd_verify, "steady solve vs dense oracle and reference")
    add("report", cmd_report, "summarize a finished run")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.func is cmd_report:
            return cmd_report(args)
        if not args.config:
            print("error: --config is required", file=sys.stderr)
            return EXIT_INPUT
        cfg = RunConfig.load(args)
        return args.func(cfg)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return EXIT_INPUT
    except SolverError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
