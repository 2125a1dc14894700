import json
import math

import numpy as np
import pytest

from dhnopt.fixtures import (daily_load_profile, demand_set_for,
                             feeder_network, minimal_loop, two_level_price)
from dhnopt.network import write_csv, write_flow_field, write_network
from dhnopt.objective import ConstraintSet
from dhnopt.scenario import (LoadSeries, build_scenario, write_demand_set,
                             write_price_series)
from dhnopt.thermal import PhysicalConstants, TimeGrid


def make_loop_scenario(n_steps=48, dt_s=900.0, demand_w=40e3, swing=0.0,
                       prices=None, initial_control_c=105.0, ambient_c=10.0,
                       tikhonov_weight=None, alpha=1.0, beta=0.0,
                       htc_w_per_m_c=0.5, mdot_kg_s=0.5):
    """Scenario on the four-node loop; demand may be constant or daily."""
    graph, flow = minimal_loop(mdot_kg_s=mdot_kg_s,
                               htc_w_per_m_c=htc_w_per_m_c)
    grid = TimeGrid(dt_s=dt_s, n_steps=n_steps)
    t = grid.times()
    values = demand_w * (1.0 + swing * np.sin(2 * np.pi * t / 86400.0))
    demands = {"consumer": LoadSeries(values_w=values, dt_s=dt_s)}
    kwargs = {}
    if tikhonov_weight is not None:
        kwargs["tikhonov_weight"] = tikhonov_weight
    return build_scenario(
        graph, flow, demands, prices, ConstraintSet(), grid,
        PhysicalConstants(ambient_c=ambient_c), alpha=alpha, beta=beta,
        initial_control_c=initial_control_c, **kwargs)


@pytest.fixture(scope="session")
def desk_static_scenario():
    from dhnopt.fixtures import desk_scenario
    return desk_scenario()


def write_feeder_files(out_dir):
    """The feeder as CSV files for ``dhnopt simulate``; returns the config.

    One cell per pipe in the files, which the CLI refines to 1432 nodes
    at 100 m cells; three days of demands at 50 kW a consumer, two-level
    prices and a 95-110 °C control ramp, 288 steps of 15 min.
    """
    graph, flow = feeder_network(max_cell_length_m=math.inf)
    write_network(graph, out_dir / "nodes.csv", out_dir / "edges.csv")
    write_flow_field(flow, graph, out_dir / "flows.csv")
    n = len(graph.consumer_edges)
    base = daily_load_profile(mean_w=50e3 * n, n_days=3)
    write_demand_set(demand_set_for(graph, base, mean_w_per_consumer=50e3),
                     out_dir / "demands.csv")
    write_price_series(two_level_price(n_days=3), out_dir / "prices.csv")
    write_csv(out_dir / "control.csv", {
        "time_s": 900.0 * np.arange(1, 289),
        "plant_edge_id": [graph.edge_ids[graph.producer_edges[0]]] * 288,
        "supply_temp_c": np.linspace(95.0, 110.0, 288)})
    config = out_dir / "config.json"
    config.write_text(json.dumps({
        "network": {"nodes": "nodes.csv", "edges": "edges.csv",
                    "flows": "flows.csv"},
        "demand_file": "demands.csv", "price_file": "prices.csv",
        "control": {"file": "control.csv"},
        "scenario": {"dt_s": 900.0, "n_steps": 288,
                     "max_cell_length_m": 100.0}}))
    return config
