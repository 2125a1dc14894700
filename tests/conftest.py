import numpy as np
import pytest

from dhnopt.fixtures import minimal_loop
from dhnopt.objective import ConstraintSet
from dhnopt.scenario import LoadSeries, build_scenario
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
