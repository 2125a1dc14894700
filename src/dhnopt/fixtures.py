"""Synthetic networks, load profiles and scenarios for tests and demos.

All fixtures are fully deterministic given their arguments. The desk
network is the feeder network cut to one unrefined feeder of ten
consumers, small enough to solve in milliseconds; the full feeder
network has a realistic node count for runtime benchmarks.

Module constants fix what no caller varies: the exchanger, service
pipe and minimal-loop pipe sizes, the 900 s step, the 50 kW mean
demand per consumer, the load swings, the price levels and cheap
hours, and the 110 °C initial control of the scenarios.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .network import (FlowField, NetworkGraph, subdivide_pipes,
                      write_flow_field, write_network)
from .objective import ConstraintSet
from .scenario import (DEFAULT_CUTOFF_HZ, DemandSet, LoadSeries, PriceSeries,
                       build_scenario, lowpass, synthesize_variations,
                       write_demand_set, write_load_series, write_price_series)
from .thermal import PhysicalConstants, TimeGrid

#: Consumer and producer edges, and each substation's service pipe.
_EXCHANGER_LENGTH_M = 5.0
_EXCHANGER_DIAMETER_M = 0.05
_LOOP_LENGTH_M = 80.0
_LOOP_DIAMETER_M = 0.05
_DT_S = 900.0
_MEAN_W_PER_CONSUMER = 50e3
_DAILY_SWING = 0.25
_SECONDARY_SWING = 0.12
#: EUR/MWh inside and outside the cheap hours ``[2, 8)`` of each day.
_CHEAP_EUR_MWH = 20.0
_EXPENSIVE_EUR_MWH = 100.0
_CHEAP_HOURS = (2, 8)
_INITIAL_CONTROL_C = 110.0


def _graph(nodes, edges):
    """nodes: (id, side, x, y); edges: (id, tail, head, kind, l, d, k)."""
    node_ids, sides, xs, ys = zip(*nodes)
    edge_ids, tails, heads, kinds, lengths, diams, htcs = zip(*edges)
    index = {nid: i for i, nid in enumerate(node_ids)}
    return NetworkGraph(node_ids, sides, np.column_stack([xs, ys]), edge_ids,
                        kinds, [index[t] for t in tails],
                        [index[h] for h in heads], lengths, diams, htcs)


def minimal_loop(mdot_kg_s=0.5, htc_w_per_m_c=0.5):
    """Smallest closed network: one consumer fed by one plant."""
    length, diameter = _LOOP_LENGTH_M, _LOOP_DIAMETER_M
    nodes = [
        ("SP", "supply", 0.0, 0.0),
        ("SC", "supply", length, 0.0),
        ("RC", "return", length, -1.0),
        ("RP", "return", 0.0, -1.0),
    ]
    edges = [
        ("supply_pipe", "SP", "SC", "supply", length, diameter, htc_w_per_m_c),
        ("consumer", "SC", "RC", "consumer", _EXCHANGER_LENGTH_M,
         _EXCHANGER_DIAMETER_M, 0.0),
        ("return_pipe", "RC", "RP", "return", length, diameter, htc_w_per_m_c),
        ("producer", "RP", "SP", "producer", _EXCHANGER_LENGTH_M,
         _EXCHANGER_DIAMETER_M, 0.0),
    ]
    graph = _graph(nodes, edges)
    flow = FlowField(np.full(4, mdot_kg_s)).validate_against(graph)
    return graph, flow


def pipe_chain(n_cells, total_length_m=1000.0, mdot_kg_s=0.05,
               diameter_m=0.05, htc_w_per_m_c=0.2093):
    """Closed loop whose supply run is a chain of ``n_cells`` equal cells.

    The return run mirrors the supply run; one consumer edge joins the
    chain ends and one producer edge closes the loop. Useful for
    comparing the discrete steady profile against the analytic
    advection-loss solution along a single pipe.
    """
    cell = total_length_m / n_cells
    nodes = [("S0", "supply", 0.0, 0.0)]
    for j in range(1, n_cells + 1):
        nodes.append((f"S{j}", "supply", j * cell, 0.0))
    for j in range(n_cells, -1, -1):
        nodes.append((f"R{j}", "return", j * cell, -1.0))
    edges = []
    for j in range(n_cells):
        edges.append((f"sup{j}", f"S{j}", f"S{j+1}", "supply", cell,
                      diameter_m, htc_w_per_m_c))
    edges.append(("consumer", f"S{n_cells}", f"R{n_cells}", "consumer",
                  _EXCHANGER_LENGTH_M, _EXCHANGER_DIAMETER_M, 0.0))
    for j in range(n_cells, 0, -1):
        edges.append((f"ret{j}", f"R{j}", f"R{j-1}", "return", cell,
                      diameter_m, htc_w_per_m_c))
    edges.append(("producer", "R0", "S0", "producer", _EXCHANGER_LENGTH_M,
                  _EXCHANGER_DIAMETER_M, 0.0))
    graph = _graph(nodes, edges)
    flow = FlowField(np.full(graph.n_edges, mdot_kg_s)).validate_against(graph)
    return graph, flow


def _feeder(nodes, edges, flows, plant_supply, plant_return, feeder_id,
            n_consumers, segment_length_m, mdot_consumer, htc, velocity_m_s):
    """Append one feeder (supply trunk, consumers, return trunk).

    Every substation gets a dedicated return port node: the consumer
    edge ends there and a short service pipe joins the port to the
    return-trunk junction, where its flow mixes with the trunk's.
    """
    rho = 1000.0
    prev_s, prev_r = plant_supply, plant_return
    for j in range(1, n_consumers + 1):
        mdot_seg = (n_consumers - j + 1) * mdot_consumer
        area = mdot_seg / (rho * velocity_m_s)
        diameter = math.sqrt(4.0 * area / math.pi)
        s, r = f"S{feeder_id}_{j}", f"R{feeder_id}_{j}"
        port = f"RC{feeder_id}_{j}"
        x = float(j * segment_length_m)
        nodes.append((s, "supply", x, float(feeder_id)))
        nodes.append((port, "return", x, float(feeder_id) - 0.25))
        nodes.append((r, "return", x, float(feeder_id) - 0.5))
        edges.append((f"sup{feeder_id}_{j}", prev_s, s, "supply",
                      segment_length_m, diameter, htc))
        flows.append(mdot_seg)
        edges.append((f"con{feeder_id}_{j}", s, port, "consumer",
                      _EXCHANGER_LENGTH_M, _EXCHANGER_DIAMETER_M, 0.0))
        flows.append(mdot_consumer)
        edges.append((f"svc{feeder_id}_{j}", port, r, "return",
                      _EXCHANGER_LENGTH_M, _EXCHANGER_DIAMETER_M, htc))
        flows.append(mdot_consumer)
        edges.append((f"ret{feeder_id}_{j}", r, prev_r, "return",
                      segment_length_m, diameter, htc))
        flows.append(mdot_seg)
        prev_s, prev_r = s, r


def desk_network(n_consumers=10, segment_length_m=80.0, htc_w_per_m_c=1.0):
    """Single-feeder network: one plant, ``n_consumers`` substations."""
    return feeder_network(1, n_consumers, segment_length_m,
                          htc_w_per_m_c=htc_w_per_m_c,
                          max_cell_length_m=math.inf)


def feeder_network(n_feeders=13, consumers_per_feeder=10,
                   segment_length_m=450.0, mdot_consumer=0.4,
                   htc_w_per_m_c=0.1, velocity_m_s=0.8,
                   max_cell_length_m=100.0):
    """Star of feeders around one plant, refined to short cells.

    The default configuration yields about 1400 computational nodes and
    1500 pipe segments, the scale of a small town's network.
    """
    nodes = [("SP", "supply", 0.0, 0.0), ("RP", "return", 0.0, -0.5)]
    edges, flows = [], []
    for f in range(n_feeders):
        _feeder(nodes, edges, flows, "SP", "RP", f, consumers_per_feeder,
                segment_length_m, mdot_consumer, htc_w_per_m_c, velocity_m_s)
    total = n_feeders * consumers_per_feeder * mdot_consumer
    edges.append(("producer", "RP", "SP", "producer", _EXCHANGER_LENGTH_M,
                  _EXCHANGER_DIAMETER_M, 0.0))
    flows.append(total)
    graph = _graph(nodes, edges)
    flow = FlowField(np.array(flows)).validate_against(graph)
    return subdivide_pipes(graph, flow, max_cell_length_m)


def daily_load_profile(mean_w=500e3, n_days=3, dt_s=_DT_S):
    """Smooth district-total heating load over a few days.

    Daily cycle peaking in the morning (heating plus hot-water draw)
    with a smaller evening shoulder from a half-day harmonic.
    """
    n = int(round(n_days * 86400.0 / dt_s)) + 1
    t = np.arange(n) * dt_s
    day = t / 86400.0
    shape = (1.0
             + _DAILY_SWING * np.sin(2.0 * np.pi * day - 0.125 * np.pi)
             + _SECONDARY_SWING * np.sin(4.0 * np.pi * day + 1.0))
    return LoadSeries(values_w=mean_w * shape, dt_s=dt_s)


def two_level_price(n_days=3):
    """Hourly two-level day-ahead curve: cheap nights, expensive days."""
    hours = np.arange(n_days * 24 + 1)
    in_window = (hours % 24 >= _CHEAP_HOURS[0]) & (hours % 24 < _CHEAP_HOURS[1])
    prices = np.where(in_window, _CHEAP_EUR_MWH, _EXPENSIVE_EUR_MWH)
    return PriceSeries(times_s=hours * 3600.0, prices_eur_mwh=prices.astype(float))


def demand_set_for(graph, base, seed=0, sigma=0.15, mean_w_per_consumer=None):
    """One demand series per consumer edge of a graph, each with mean
    ``mean_w_per_consumer`` (default: an equal share of the base)."""
    consumer_ids = [graph.edge_ids[e] for e in graph.consumer_edges]
    n = len(consumer_ids)
    targets = (None if mean_w_per_consumer is None
               else np.full(n, mean_w_per_consumer))
    series = synthesize_variations(lowpass(base, DEFAULT_CUTOFF_HZ), n,
                                   sigma=sigma, seed=seed,
                                   target_means=targets, keys=consumer_ids)
    return DemandSet(consumer_ids=tuple(consumer_ids), series=tuple(series))


def _inputs(graph, static, seed, n_days):
    """Time grid, base load, demands and prices (``None`` if static)."""
    n_steps = int(round(n_days * 86400.0 / _DT_S))
    base = daily_load_profile(
        mean_w=_MEAN_W_PER_CONSUMER * len(graph.consumer_edges),
        n_days=n_days)
    demands = demand_set_for(graph, base, seed=seed,
                             mean_w_per_consumer=_MEAN_W_PER_CONSUMER)
    prices = None if static else two_level_price(n_days=n_days)
    return TimeGrid(dt_s=_DT_S, n_steps=n_steps), base, demands, prices


def desk_scenario(static=True, seed=0, n_consumers=10, n_days=3,
                  initial_control_c=_INITIAL_CONTROL_C, beta=0.0):
    """Ten-consumer, three-day scenario used throughout the tests."""
    graph, flow = desk_network(n_consumers=n_consumers)
    grid, _, demands, prices = _inputs(graph, static, seed, n_days)
    return build_scenario(graph, flow, demands, prices, ConstraintSet(), grid,
                          PhysicalConstants(), beta=beta,
                          initial_control_c=initial_control_c)


def feeder_scenario(static=True, seed=0, **network_kwargs):
    """Three-day scenario on the ~1500-node feeder network."""
    graph, flow = feeder_network(**network_kwargs)
    grid, _, demands, prices = _inputs(graph, static, seed, n_days=3)
    return build_scenario(graph, flow, demands, prices, ConstraintSet(), grid,
                          PhysicalConstants(),
                          initial_control_c=_INITIAL_CONTROL_C)


def write_desk_fixture(out_dir, dynamic=False, seed=0, n_consumers=10,
                       n_days=3, **config_overrides):
    """Write the desk fixture as CSV files plus a run config.

    Produces ``nodes.csv``, ``edges.csv``, ``flows.csv``,
    ``base_load.csv``, ``demands.csv``, optionally ``prices.csv`` and a
    ready-to-run ``config.json``; returns the config path.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    graph, flow = desk_network(n_consumers=n_consumers)
    grid, base, demands, prices = _inputs(graph, not dynamic, seed, n_days)
    write_network(graph, out / "nodes.csv", out / "edges.csv")
    write_flow_field(flow, graph, out / "flows.csv")
    write_load_series(base, out / "base_load.csv")
    write_demand_set(demands, out / "demands.csv")

    config = {
        "network": {"nodes": "nodes.csv", "edges": "edges.csv",
                    "flows": "flows.csv"},
        "demand_file": "demands.csv",
        "base_load_file": "base_load.csv",
        "control": {"constant_c": _INITIAL_CONTROL_C},
        "scenario": {
            "dt_s": grid.dt_s,
            "n_steps": grid.n_steps,
            "initial_control_c": _INITIAL_CONTROL_C,
        },
        "seed": seed,
        "out_dir": "out",
    }
    if dynamic:
        write_price_series(prices, out / "prices.csv")
        config["price_file"] = "prices.csv"
    for key, value in config_overrides.items():
        if isinstance(value, dict):
            config.setdefault(key, {}).update(value)
        else:
            config[key] = value
    config_path = out / "config.json"
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return config_path
