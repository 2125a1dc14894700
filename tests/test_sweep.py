"""The blocked multi-right-hand-side sweep against the per-step loop.

``simulate_system`` and ``condense`` advance their sweeps ``_BLOCK``
steps at a time, every right-hand side together. They keep each step's
roundings, so both must reproduce bit for bit the plain loop below, one
forcing, one product and one solve per step, on horizons shorter than a
block, one short of and one past a block, and of a whole day.
"""

import functools

import numpy as np
import pytest

from dhnopt.fixtures import desk_network, desk_scenario, minimal_loop
from dhnopt.network import control_volumes, subdivide_pipes
from dhnopt.thermal import (PhysicalConstants, _forcing, assemble, condense,
                            simulate_system, solve_steady)
from test_condensed import (_renumbered, _two_plant_scenario, cyclic_network,
                            two_plant_network)


def _reference_sweep(system, u, deltas, ambient, u_init):
    """Node temperatures ``(n_nodes, n_steps + 1)`` from one solve per step."""
    n_steps = u.shape[1]
    y = np.empty((system.graph.n_nodes, n_steps + 1))
    y[:, 0] = solve_steady(system, u_init, deltas[:, 0], ambient[0])
    lu, order = system.lu_transient, system.order
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    plants = rank[system.bc.plant_nodes]
    returns = rank[system.bc.consumer_return_nodes]
    loss, storage = system.S_diag[order], system.B_diag[order]
    x = y[order, 0]
    for k in range(1, n_steps + 1):
        b = _forcing(loss, plants, returns, u[:, k - 1], deltas[:, k],
                     ambient[k])
        b += storage * x
        x = lu.solve(b)
        y[order, k] = x
    return y


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


_NETWORKS = {
    "loop": minimal_loop,
    "desk": desk_network,
    "two-plant": lambda: _renumbered(*two_plant_network()),
    "cyclic": lambda: _renumbered(*cyclic_network()),
    # the cycle in 2 m cells: 551 nodes, one row reading a later node
    "cycle-551": lambda: subdivide_pipes(*cyclic_network(), 2.0),
}


@functools.cache
def _system(name):
    graph, flow = _NETWORKS[name]()
    return assemble(graph, flow, control_volumes(graph), PhysicalConstants(),
                    dt_s=900.0)


@pytest.mark.parametrize("n_steps", [1, 31, 33, 288])
@pytest.mark.parametrize("name", sorted(_NETWORKS))
def test_simulate_equals_the_per_step_sweep(name, n_steps):
    system = _system(name)
    bc = system.bc
    rng = np.random.default_rng(n_steps)
    u = rng.uniform(80.0, 110.0, (bc.n_plants, n_steps))
    deltas = rng.uniform(5.0, 20.0, (bc.n_consumers, n_steps + 1))
    ambient = rng.uniform(-5.0, 15.0, n_steps + 1)
    u_init = rng.uniform(80.0, 110.0, bc.n_plants)
    traj = simulate_system(system, u, deltas, ambient, u_init)
    assert _same_bits(traj.values_c,
                      _reference_sweep(system, u, deltas, ambient, u_init))


_SCENARIOS = {
    "desk": desk_scenario,
    "two-plant": lambda: _two_plant_scenario(*two_plant_network(), 48),
}


@pytest.mark.parametrize("name", sorted(_SCENARIOS))
def test_condense_reads_the_per_step_sweeps(name):
    sc = _SCENARIOS[name]()
    system = sc.system
    n_p, n = system.bc.n_plants, sc.grid.n_steps
    m = condense(system, sc.deltas, sc.ambient, sc.u_init)
    u = np.zeros((n_p, n))
    free = _reference_sweep(system, u, sc.deltas, sc.ambient, sc.u_init)
    assert _same_bits(m.y_free, free[m.nodes, 1:])
    for p in range(n_p):
        u[p, 0] = 1.0
        pulse = _reference_sweep(system, u, np.zeros_like(sc.deltas),
                                 np.zeros(n + 1), np.zeros(n_p))
        u[p, 0] = 0.0
        assert _same_bits(m.impulse[:, p], pulse[m.nodes, 1:])
