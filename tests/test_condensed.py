"""The condensed control-to-output map against the per-step sweep.

``Scenario.condensed`` replaces the forward and adjoint sweeps inside
``ObjectiveEvaluator``; ``simulate_system`` stays the oracle it must
reproduce at every node of the map.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import toeplitz
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import dhnopt.scenario
from conftest import make_loop_scenario
from dhnopt.errors import SolverError, ValidationError
from dhnopt.fixtures import (desk_scenario, feeder_network, feeder_scenario,
                             two_level_price)
from dhnopt.network import NetworkGraph, check_flow, subdivide_pipes
from dhnopt.objective import (ConstraintSet, constraint_violations,
                              injection_cost_rates, loss_energy,
                              max_violation, objective_loss, penalty,
                              tikhonov, tikhonov_gradient)
from dhnopt.optimizer import ObjectiveEvaluator, OptimizerConfig, optimize
from dhnopt.scenario import LoadSeries, build_scenario
from dhnopt.thermal import (DEFAULT_CP, ObservedTrajectory, PhysicalConstants,
                            TimeGrid, condense, energy_balance,
                            simulate_system)

_SCENARIOS = {
    "loop": lambda: make_loop_scenario(n_steps=96, swing=0.3),
    "desk-static": lambda: desk_scenario(),
    "desk-dynamic": lambda: desk_scenario(static=False),
}


def _sweep_outputs(scenario, u):
    """The map's rows from the per-step sweep."""
    traj = simulate_system(scenario.system, u, scenario.deltas,
                           scenario.ambient, scenario.u_init)
    return traj.values_c[scenario.condensed.nodes, 1:]


def _outputs(m, u):
    """The map's rows under the control ``u``: ``y_free + H * u``."""
    return m.outputs(u, np.empty(m.y_free.shape))


@pytest.fixture(scope="module", params=sorted(_SCENARIOS))
def scenario(request):
    return _SCENARIOS[request.param]()


def _controls(scenario):
    lo, hi = scenario.constraints.control_bounds
    return arrays(np.float64, (scenario.system.bc.n_plants, scenario.grid.n_steps),
                  elements=st.floats(lo, hi))


class TestAgainstSweep:
    def test_outputs_equal_sweep_at_every_observed_node(self, scenario):
        @settings(max_examples=20, deadline=None)
        @given(u=_controls(scenario))
        def check(u):
            y = _outputs(scenario.condensed, u)
            assert np.max(np.abs(y - _sweep_outputs(scenario, u))) <= 1e-9

        check()

    def test_observed_rows_are_the_boundary_nodes(self, scenario):
        bc = scenario.system.bc
        m = scenario.condensed
        np.testing.assert_array_equal(m.nodes, np.concatenate([
            bc.plant_return_nodes, bc.consumer_supply_nodes]))
        n_rows = bc.n_plants + bc.n_consumers
        assert m.y_free.shape == (n_rows, scenario.grid.n_steps)
        assert m.impulse.shape == (n_rows, bc.n_plants, scenario.grid.n_steps)


class TestLifecycle:
    def test_built_once_per_scenario_across_rounds(self, monkeypatch):
        calls = []
        real = dhnopt.scenario.condense

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(dhnopt.scenario, "condense", counting)
        scenario = make_loop_scenario(n_steps=24, swing=0.3)
        ev = ObjectiveEvaluator(scenario, 10.0)
        assert calls == []  # neither build_scenario nor the evaluator builds it
        _, report = optimize(scenario, np.full((1, 24), 110.0),
                             OptimizerConfig(max_inner_iterations=20))
        assert len(report.rounds) >= 3
        assert len(calls) == 1
        ev.value(np.full((1, 24), 100.0))
        assert len(calls) == 1

    def test_round_counts_match_the_evaluators(self):
        scenario = make_loop_scenario(n_steps=24, swing=0.3)
        _, report = optimize(scenario, np.full((1, 24), 110.0),
                             OptimizerConfig(max_inner_iterations=20))
        for r in report.rounds:
            # one gradient at the start point, one per accepted iterate
            assert r.n_gradients >= r.inner_iterations
            assert r.n_evals >= r.n_gradients

    @pytest.mark.parametrize("shape", [(1, 23), (1, 25), (2, 24), (24,)])
    def test_wrong_control_shape_raises(self, shape):
        ev = ObjectiveEvaluator(make_loop_scenario(n_steps=24), 10.0)
        ev.value(np.full((1, 24), 100.0))
        with pytest.raises(ValidationError):
            ev.value(np.full(shape, 100.0))
        with pytest.raises(ValidationError):
            ev.value_and_gradient(np.full(shape, 100.0))

    @pytest.mark.parametrize("name", ["u_init", "deltas", "ambient"])
    def test_map_inputs_are_read_only(self, name):
        scenario = make_loop_scenario(n_steps=24)
        with pytest.raises(ValueError):
            getattr(scenario, name)[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(scenario, name, np.zeros(1))

    def test_build_scenario_copies_the_initial_control(self):
        graph, flow = two_plant_network()
        u_init = np.array([105.0, 100.0])
        scenario = _two_plant_scenario(graph, flow, 8, u_init=u_init)
        u_init[0] = 0.0
        assert scenario.u_init[0] == 105.0


# ---------------------------------------------------------------------------
# two plants
# ---------------------------------------------------------------------------

def two_plant_network():
    """Two plants feeding one supply junction that serves two consumers."""
    nodes = [("SP1", "supply"), ("SP2", "supply"), ("SJ", "supply"),
             ("SC1", "supply"), ("SC2", "supply"),
             ("RC1", "return"), ("RC2", "return"), ("RJ", "return"),
             ("RP1", "return"), ("RP2", "return")]
    m1, m2, mc1, mc2 = 0.3, 0.5, 0.35, 0.45
    # id, tail, head, kind, length_m, htc, mass flow
    edges = [("producer1", "RP1", "SP1", "producer", 5.0, 0.0, m1),
             ("producer2", "RP2", "SP2", "producer", 5.0, 0.0, m2),
             ("sup1", "SP1", "SJ", "supply", 300.0, 0.4, m1),
             ("sup2", "SP2", "SJ", "supply", 150.0, 0.4, m2),
             ("sup3", "SJ", "SC1", "supply", 200.0, 0.4, mc1),
             ("sup4", "SJ", "SC2", "supply", 400.0, 0.4, mc2),
             ("consumer1", "SC1", "RC1", "consumer", 5.0, 0.0, mc1),
             ("consumer2", "SC2", "RC2", "consumer", 5.0, 0.0, mc2),
             ("ret1", "RC1", "RJ", "return", 200.0, 0.4, mc1),
             ("ret2", "RC2", "RJ", "return", 400.0, 0.4, mc2),
             ("ret3", "RJ", "RP1", "return", 300.0, 0.4, m1),
             ("ret4", "RJ", "RP2", "return", 150.0, 0.4, m2)]
    index = {n[0]: i for i, n in enumerate(nodes)}
    diameter = 0.05
    graph = NetworkGraph(
        node_ids=[n[0] for n in nodes],
        node_side=[n[1] for n in nodes],
        node_xy=np.full((len(nodes), 2), np.nan),
        edge_ids=[e[0] for e in edges],
        edge_kind=[e[3] for e in edges],
        edge_tail=[index[e[1]] for e in edges],
        edge_head=[index[e[2]] for e in edges],
        length_m=[e[4] for e in edges],
        diameter_m=[diameter] * len(edges),
        htc_w_per_m_c=[e[5] for e in edges],
    )
    flow = check_flow(graph, [e[6] for e in edges])
    return graph, flow


def _two_plant_scenario(graph, flow, n_steps, prices=None,
                        u_init=(105.0, 100.0)):
    grid = TimeGrid(dt_s=900.0, n_steps=n_steps)
    t = grid.times()
    demands = {
        "consumer1": LoadSeries(
            values_w=30e3 * (1.0 + 0.3 * np.sin(2 * np.pi * t / 86400.0)),
            dt_s=900.0),
        "consumer2": LoadSeries(values_w=np.full(t.size, 45e3), dt_s=900.0)}
    return build_scenario(graph, flow, demands, prices, ConstraintSet(), grid,
                          PhysicalConstants(), initial_control_c=u_init)


@pytest.fixture(scope="module", params=["static", "dynamic"])
def two_plant(request):
    graph, flow = two_plant_network()
    prices = two_level_price(n_days=1) if request.param == "dynamic" else None
    return _two_plant_scenario(graph, flow, 48, prices)


class TestTwoPlants:
    def test_outputs_equal_sweep(self, two_plant):
        assert two_plant.system.bc.n_plants == 2
        rng = np.random.default_rng(5)
        u = rng.uniform(80.0, 110.0, (2, 48))
        y = _outputs(two_plant.condensed, u)
        assert np.max(np.abs(y - _sweep_outputs(two_plant, u))) <= 1e-9

    def test_each_plant_has_its_own_impulse_response(self, two_plant):
        h = two_plant.condensed.impulse
        assert h.shape == (two_plant.condensed.nodes.size, 2, 48)
        # the consumer supply rows respond to each plant's pulse apart
        assert not np.allclose(h[2:, 0], h[2:, 1])

    def test_gradient_matches_central_differences(self, two_plant):
        rng = np.random.default_rng(7)
        # low enough that some consumer constraints are active
        u = rng.uniform(70.0, 95.0, (2, 48))
        ev = ObjectiveEvaluator(two_plant, 100.0)
        _, grad = ev.value_and_gradient(u)
        assert ev.parts(u)["violations"].max() > 0.0
        for plant in (0, 1):
            worst = 0.0
            for j in rng.choice(48, size=8, replace=False):
                up, um = u.copy(), u.copy()
                up[plant, j] += 1e-3
                um[plant, j] -= 1e-3
                fd = (ev.value(up) - ev.value(um)) / 2e-3
                g = grad[plant, j]
                worst = max(worst, abs(g - fd) / max(abs(fd), abs(g), 1e-12))
            assert worst < 1e-5, f"plant {plant}: relative error {worst:.2e}"

    @pytest.mark.parametrize("shape", [(1, 48), (2, 47)])
    def test_a_control_of_the_wrong_shape_raises(self, two_plant, shape):
        # a (1, 48) control would broadcast to both plants
        with pytest.raises(ValidationError, match="shape"):
            _outputs(two_plant.condensed, np.full(shape, 100.0))


# ---------------------------------------------------------------------------
# a directed flow cycle on the supply side
# ---------------------------------------------------------------------------

def cyclic_network(circulating_kg_s=0.3):
    """One plant and one consumer on 0.8 kg/s; the circulating flow goes
    around S1 -> S2 -> S3 on top of it."""
    c = circulating_kg_s
    nodes = [("SP", "supply"), ("S1", "supply"), ("S2", "supply"),
             ("S3", "supply"), ("RC", "return"), ("RP", "return")]
    # id, tail, head, kind, length_m, htc, mass flow
    edges = [("producer", "RP", "SP", "producer", 5.0, 0.0, 0.8),
             ("sup1", "SP", "S1", "supply", 200.0, 0.4, 0.8),
             ("sup2", "S1", "S2", "supply", 150.0, 0.4, 0.8 + c),
             ("sup3", "S2", "S3", "supply", 150.0, 0.4, 0.8 + c),
             ("loop", "S3", "S1", "supply", 100.0, 0.4, c),
             ("consumer", "S3", "RC", "consumer", 5.0, 0.0, 0.8),
             ("ret", "RC", "RP", "return", 500.0, 0.4, 0.8)]
    index = {n[0]: i for i, n in enumerate(nodes)}
    graph = NetworkGraph(
        node_ids=[n[0] for n in nodes],
        node_side=[n[1] for n in nodes],
        node_xy=np.full((len(nodes), 2), np.nan),
        edge_ids=[e[0] for e in edges],
        edge_kind=[e[3] for e in edges],
        edge_tail=[index[e[1]] for e in edges],
        edge_head=[index[e[2]] for e in edges],
        length_m=[e[4] for e in edges],
        diameter_m=[0.05] * len(edges),
        htc_w_per_m_c=[e[5] for e in edges],
    )
    flow = check_flow(graph, [e[6] for e in edges])
    return graph, flow


@pytest.fixture(scope="module")
def cyclic():
    graph, flow = cyclic_network()
    grid = TimeGrid(dt_s=900.0, n_steps=48)
    t = grid.times()
    demands = {"consumer": LoadSeries(
        values_w=40e3 * (1.0 + 0.3 * np.sin(2 * np.pi * t / 86400.0)),
        dt_s=900.0)}
    scenario = build_scenario(graph, flow, demands, None, ConstraintSet(),
                              grid, PhysicalConstants(),
                              initial_control_c=105.0)
    # low enough that some consumer constraints are active
    u = np.random.default_rng(3).uniform(70.0, 95.0, (1, 48))
    return scenario, u


class TestCyclicFlow:
    def test_energy_balance_closes(self, cyclic):
        scenario, u = cyclic
        traj = simulate_system(scenario.system, u, scenario.deltas,
                               scenario.ambient, scenario.u_init)
        bal = energy_balance(scenario.system, traj, scenario.deltas,
                             scenario.ambient)
        assert bal["residual_rel"].max() < 1e-12

    def test_outputs_equal_sweep(self, cyclic):
        scenario, u = cyclic
        y = _outputs(scenario.condensed, u)
        assert np.max(np.abs(y - _sweep_outputs(scenario, u))) <= 1e-11

    def test_gradient_matches_central_differences(self, cyclic):
        scenario, u = cyclic
        ev = ObjectiveEvaluator(scenario, 100.0)
        _, grad = ev.value_and_gradient(u)
        assert ev.parts(u)["violations"].max() > 0.0
        worst = 0.0
        for j in range(0, 48, 6):
            up, um = u.copy(), u.copy()
            up[0, j] += 1e-3
            um[0, j] -= 1e-3
            fd = (ev.value(up) - ev.value(um)) / 2e-3
            worst = max(worst, abs(grad[0, j] - fd)
                        / max(abs(fd), abs(grad[0, j]), 1e-12))
        assert worst < 1e-5, f"relative error {worst:.2e}"


# ---------------------------------------------------------------------------
# the flow-order sweeps against a dense per-step oracle
# ---------------------------------------------------------------------------

def _renumbered(graph, flow, old=None):
    """The same network with node ``old[i]`` numbered ``i``; backwards by
    default, so that its flow order is not its node order."""
    old = np.arange(graph.n_nodes)[::-1] if old is None else old
    new = np.empty_like(old)
    new[old] = np.arange(old.size)
    renumbered = NetworkGraph(
        node_ids=[graph.node_ids[i] for i in old],
        node_side=graph.node_side[old], node_xy=graph.node_xy[old],
        edge_ids=graph.edge_ids, edge_kind=graph.edge_kind,
        edge_tail=new[graph.edge_tail], edge_head=new[graph.edge_head],
        length_m=graph.length_m, diameter_m=graph.diameter_m,
        htc_w_per_m_c=graph.htc_w_per_m_c)
    return renumbered, check_flow(renumbered, flow)


# network and whether its flow order makes the matrix triangular
_DENSE = {
    "cyclic": (lambda: _renumbered(*cyclic_network()), False),
    "two-plant": (lambda: _renumbered(*two_plant_network()), True),
}


@pytest.fixture(scope="module", params=sorted(_DENSE))
def dense(request):
    build, triangular = _DENSE[request.param]
    scenario = _drawn_scenario(*build())
    system = scenario.system
    transient = (system.steady_matrix() + sp.diags(system.B_diag)).toarray()
    return scenario, transient, triangular


class TestDenseSweeps:
    def test_order_is_triangular_only_for_acyclic_flow(self, dense):
        scenario, transient, triangular = dense
        order = scenario.system.order
        assert np.any(order != np.arange(order.size))
        upper = np.triu(transient[np.ix_(order, order)], 1)
        assert np.any(upper) != triangular

    def test_simulate_matches_dense_per_step_solves(self, dense):
        scenario, transient, _ = dense
        system, grid = scenario.system, scenario.grid
        u = np.random.default_rng(2).uniform(
            95.0, 110.0, (system.bc.n_plants, grid.n_steps))
        traj = simulate_system(system, u, scenario.deltas, scenario.ambient,
                               scenario.u_init)
        y = np.linalg.solve(system.steady_matrix().toarray(), system.rhs_steady(
            scenario.u_init, scenario.deltas[:, 0], scenario.ambient[0]))
        assert np.max(np.abs(traj.values_c[:, 0] - y)) <= 1e-9
        for k in range(1, grid.n_steps + 1):
            b = system.rhs_steady(u[:, k - 1], scenario.deltas[:, k],
                                  scenario.ambient[k]) + system.B_diag * y
            y = np.linalg.solve(transient, b)
            assert np.max(np.abs(traj.values_c[:, k] - y)) <= 1e-9

    def test_adjoint_sweep_matches_dense_per_step_solves(self, dense):
        scenario, transient, _ = dense
        system = scenario.system
        g = np.random.default_rng(4).normal(
            size=(system.graph.n_nodes, scenario.grid.n_steps))
        lam = dense_lam = np.zeros(system.graph.n_nodes)
        for k in reversed(range(g.shape[1])):
            lam = system.solve_adjoint(g[:, k] + system.B_diag * lam)
            dense_lam = np.linalg.solve(transient.T,
                                        g[:, k] + system.B_diag * dense_lam)
            assert np.max(np.abs(lam - dense_lam)) <= 1e-9

    @pytest.mark.parametrize("seed", [None, 1, 2, 3])
    def test_only_the_row_closing_the_cycle_reads_a_later_node(self, seed):
        # the 400 m cycle in 2 m cells, the 1100 pipe metres in 551 nodes
        graph, flow = subdivide_pipes(*cyclic_network(), 2.0)
        if seed is not None:
            graph, flow = _renumbered(graph, flow, np.random.default_rng(
                seed).permutation(graph.n_nodes))
        system = _drawn_scenario(graph, flow).system
        order = system.order
        transient = (system.steady_matrix() + sp.diags(system.B_diag)).tocsr()
        upper = sp.triu(transient[order][:, order], 1).tocoo()
        assert upper.nnz == 1
        # the fill is the factor column of the node the cycle's closing
        # row reads: at most the nodes placed between the two
        span = upper.col[0] - upper.row[0]
        lu = system.lu_transient
        assert lu.L.nnz + lu.U.nnz <= transient.nnz + graph.n_nodes + span


# ---------------------------------------------------------------------------
# drawn networks: feeders of any size and refinement, and the cycle
# ---------------------------------------------------------------------------

_NETWORKS = st.one_of(
    st.builds(feeder_network, n_feeders=st.integers(1, 3),
              consumers_per_feeder=st.integers(1, 4),
              segment_length_m=st.floats(20.0, 500.0),
              htc_w_per_m_c=st.floats(0.0, 2.0),
              max_cell_length_m=st.floats(25.0, 600.0)),
    st.builds(cyclic_network, st.floats(0.05, 2.0)))


def _drawn_scenario(graph, flow):
    """24 steps from 105 °C; each consumer cools its flow by 12-18 °C."""
    grid = TimeGrid(dt_s=900.0, n_steps=24)
    shape = 1.0 + 0.2 * np.sin(2 * np.pi * grid.times() / 86400.0)
    edges = graph.consumer_edges
    demands = {graph.edge_ids[e]: LoadSeries(
        values_w=15.0 * DEFAULT_CP * flow[e] * shape, dt_s=900.0)
        for e in edges}
    return build_scenario(graph, flow, demands, None, ConstraintSet(), grid,
                          PhysicalConstants(), initial_control_c=105.0)


class TestDrawnNetworks:
    @settings(max_examples=25, deadline=None)
    @given(network=_NETWORKS, seed=st.integers(0, 2**32 - 1))
    def test_map_equals_sweep_and_energy_balances(self, network, seed):
        scenario = _drawn_scenario(*network)
        # the plant lift stays at least 7 °C, so injection is far from 0
        u = np.random.default_rng(seed).uniform(
            105.0, 110.0, (scenario.system.bc.n_plants, 24))
        traj = simulate_system(scenario.system, u, scenario.deltas,
                               scenario.ambient, scenario.u_init)
        y = _outputs(scenario.condensed, u)
        assert np.max(np.abs(
            y - traj.values_c[scenario.condensed.nodes, 1:])) <= 1e-9
        bal = energy_balance(scenario.system, traj, scenario.deltas,
                             scenario.ambient)
        assert bal["residual_rel"].max() < 1e-9

    @settings(max_examples=25, deadline=None)
    @given(network=_NETWORKS)
    def test_maximum_principle(self, network):
        _assert_maximum_principle(_drawn_scenario(*network))

    @settings(max_examples=25, deadline=None)
    @given(network=_NETWORKS, max_cell_length_m=st.floats(10.0, 600.0))
    def test_refined_flow_passes_validation(self, network, max_cell_length_m):
        # feeder_network refines its pipes without checking the result;
        # refining again at a drawn length splits the cycle's pipes too
        graph, flow = network
        check_flow(graph, flow)
        fine, fine_flow = subdivide_pipes(graph, flow, max_cell_length_m)
        check_flow(fine, fine_flow)


# ---------------------------------------------------------------------------
# the map: only plant return and consumer supply rows are convolved
# ---------------------------------------------------------------------------

_FOLDED = {
    "loop": lambda: make_loop_scenario(n_steps=96, swing=0.3),
    "desk": lambda: desk_scenario(),
    "two-plant": lambda: _two_plant_scenario(*two_plant_network(), 48),
}


def _assert_maximum_principle(scenario):
    """Upwinding with backward Euler makes the system an M-matrix: no
    impulse entry is negative, and a unit step on every control raises
    no consumer supply node by more than one degree."""
    h = scenario.condensed.impulse
    assert h.min() >= -1e-12
    gains = h[scenario.system.bc.n_plants:].sum(axis=(1, 2))
    assert gains.max() <= 1.0 + 1e-12


@pytest.mark.parametrize("name", sorted(_FOLDED) + ["feeder"])
def test_maximum_principle_on_the_fixtures(name):
    _assert_maximum_principle(_FOLDED.get(name, feeder_scenario)())


def _drawn_control(scenario):
    lo, hi = scenario.constraints.control_bounds
    rng = np.random.default_rng(11)
    return rng.uniform(lo, hi, (scenario.system.bc.n_plants,
                                scenario.grid.n_steps))


@pytest.fixture(scope="module", params=sorted(_FOLDED))
def folded(request):
    scenario = _FOLDED[request.param]()
    u = _drawn_control(scenario)
    return scenario, u, _outputs(scenario.condensed, u)


@pytest.fixture(scope="module", params=sorted(_FOLDED) + ["feeder"])
def swept(request):
    """A scenario, a drawn control and the full state it drives."""
    scenario = _FOLDED.get(request.param, feeder_scenario)()
    u = _drawn_control(scenario)
    return scenario, u, simulate_system(scenario.system, u, scenario.deltas,
                                        scenario.ambient, scenario.u_init)


def _dense_transpose(m, g):
    """The control gradient of ``sum(g * (H * u))``: ``H^T`` of every
    row of the map, zero rows included, from dense lower-triangular
    Toeplitz blocks of the whole impulse. The reference the row-sparse
    transpose must match; it reads none of the map's taps or buffers."""
    n = m.grid.n_steps
    grad = np.zeros((m.impulse.shape[1], n))
    for row, g_row in zip(m.impulse, g):
        for p, impulse in enumerate(row):
            grad[p] += toeplitz(impulse, np.zeros(n)).T @ g_row
    return grad


def _sparse_transpose(m, g):
    """The map's transpose given only the nonzero rows of ``g``."""
    live = np.flatnonzero(g.any(axis=1))
    return m.apply_transpose(g[live], live)


def _patterns(scenario, rng):
    """Output gradients zero outside a few rows, by name."""
    n_p = scenario.system.bc.n_plants
    shape = scenario.condensed.y_free.shape

    def only(rows):
        g = np.zeros(shape)
        g[rows] = rng.standard_normal((rows.stop - rows.start, shape[1]))
        return g
    return {
        "plant return rows only": only(slice(0, n_p)),
        "one consumer supply row": only(slice(n_p, n_p + 1)),
        "last consumer supply row only": only(slice(shape[0] - 1, shape[0])),
        "every row": rng.standard_normal(shape),
        "all zero": np.zeros(shape),
    }


class TestFoldedMap:
    """The map whose consumer return rows the objective folds into the
    supply bound: its transpose takes the live rows only, and the rows it
    leaves out are fixed by the boundary rows of the system matrix."""

    def test_sparse_transpose_equals_dense(self, folded):
        scenario, _, _ = folded
        m = scenario.condensed
        for name, g in _patterns(scenario, np.random.default_rng(17)).items():
            want = _dense_transpose(m, g)
            got = _sparse_transpose(m, g)
            scale = max(np.max(np.abs(want)), 1e-300)
            assert np.max(np.abs(got - want)) <= 1e-13 * scale, name

    def test_no_live_row_gives_exact_zeros(self, folded):
        scenario, _, _ = folded
        m = scenario.condensed
        zeros = np.zeros((scenario.system.bc.n_plants, scenario.grid.n_steps))
        none = m.apply_transpose(np.empty((0, zeros.shape[1])), np.arange(0))
        assert none.tobytes() == zeros.tobytes()
        assert _dense_transpose(m, np.zeros(m.y_free.shape)).tobytes() \
            == zeros.tobytes()

    def test_transpose_is_the_adjoint(self, folded):
        scenario, u, y = folded
        m = scenario.condensed
        rng = np.random.default_rng(13)
        for _ in range(3):
            g = rng.standard_normal(y.shape)
            lhs = float(np.vdot(y - m.y_free, g))
            rhs = float(np.vdot(u, m.apply_transpose(g, np.arange(len(g)))))
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))

    def test_plant_supply_rows_are_the_control(self, swept):
        scenario, u, traj = swept
        assert traj.rows(scenario.system.bc.plant_nodes).tobytes() \
            == u.tobytes()

    def test_consumer_return_rows_are_supply_minus_drop(self, swept):
        scenario, _, traj = swept
        bc = scenario.system.bc
        drop = (traj.rows(bc.consumer_supply_nodes)
                - traj.rows(bc.consumer_return_nodes))
        assert np.max(np.abs(drop - scenario.deltas[:, 1:])) <= 1e-12

    def test_block_rows_are_views(self, folded):
        # the evaluator's plant rows: the control, then the map's plant
        # return rows, which the loss reads by node array
        scenario, u, y = folded
        bc = scenario.system.bc
        n_p = bc.n_plants
        ev = ObjectiveEvaluator(scenario, 10.0)
        ev.value(u)
        plants = ev._plants
        for nodes, want in ((bc.plant_nodes, u), (bc.plant_return_nodes,
                                                  y[:n_p])):
            block = plants.rows(nodes)
            assert np.shares_memory(block, plants.values_c)
            assert block.tobytes() == want.tobytes()
            # an equal array that is not the boundary spec's own
            assert np.shares_memory(plants.rows(nodes.copy()),
                                    plants.values_c)

    def test_rows_outside_the_blocks_raise(self, folded):
        scenario, _, _ = folded
        bc = scenario.system.bc
        plants = ObjectiveEvaluator(scenario, 10.0)._plants
        with pytest.raises(ValidationError, match="outside the observed"):
            plants.rows(np.concatenate([bc.plant_nodes,
                                        bc.consumer_supply_nodes]))


@pytest.fixture(scope="module")
def feeder():
    return feeder_scenario()


@pytest.mark.parametrize("kind", [
    "plant return rows only", "one consumer supply row",
    "last consumer supply row only", "every row", "all zero"])
def test_feeder_sparse_transpose_equals_dense(feeder, kind):
    # 131 rows, more than any map in the folded fixture
    m = feeder.condensed
    g = _patterns(feeder, np.random.default_rng(19))[kind]
    want = _dense_transpose(m, g)
    got = _sparse_transpose(m, g)
    scale = max(np.max(np.abs(want)), 1e-300)
    assert np.max(np.abs(got - want)) <= 1e-13 * scale


# ---------------------------------------------------------------------------
# the forward: one product over the impulse's numerical support
# ---------------------------------------------------------------------------

def _short_desk_map():
    """The desk's map over 4 steps, fewer than its transit takes."""
    desk = desk_scenario()
    return condense(desk.system, desk.deltas[:, :5], desk.ambient[:5],
                    desk.u_init)


_FORWARD = {
    "loop": lambda: make_loop_scenario(n_steps=96, swing=0.3).condensed,
    "desk": lambda: desk_scenario().condensed,
    "desk-4-steps": _short_desk_map,
    "two-plant": lambda: _two_plant_scenario(*two_plant_network(),
                                             48).condensed,
    "feeder": lambda: feeder_scenario().condensed,
}


@pytest.fixture(scope="module", params=sorted(_FORWARD) + ["cyclic"])
def forward(request):
    if request.param == "cyclic":
        return request.param, request.getfixturevalue("cyclic")[0].condensed
    return request.param, _FORWARD[request.param]()


def _support(m):
    return m._taps.shape[1] // m.impulse.shape[1]


class TestForwardIsExact:
    def test_equals_the_convolution_with_the_whole_impulse(self, forward):
        _, m = forward
        h = m.impulse
        n_p, n = h.shape[1], m.grid.n_steps
        u = np.random.default_rng(41).uniform(60.0, 120.0, (n_p, n))
        want = np.array([sum(np.convolve(row[p], u[p])[:n] for p in range(n_p))
                         for row in h])
        out = np.empty(m.y_free.shape)
        got = m.outputs(u, out)
        assert got is out
        assert (np.max(np.abs(got - (m.y_free + want)))
                <= 1e-13 * np.max(np.abs(want)))

    def test_the_support_is_the_fewest_lags_with_a_negligible_tail(
            self, forward):
        _, m = forward
        h = np.abs(m.impulse)
        s = _support(m)
        mass = h.sum(axis=2)
        assert np.all(h[..., s:].sum(axis=2) <= 1e-20 * mass)
        assert np.any(h[..., s - 1:].sum(axis=2) > 1e-20 * mass)
        # the taps are the impulse reversed in lag, one block per plant
        taps = m._taps.reshape(h.shape[0], h.shape[1], s)
        assert np.array_equal(taps[..., ::-1],
                              m.impulse[..., :s])


@pytest.mark.parametrize("name, support", [("desk", 31), ("feeder", 62),
                                           ("desk-4-steps", 4)])
def test_the_support_on_the_fixtures(name, support):
    # 288 steps on the desk and the feeder; over 4 steps, fewer than the
    # desk's transit takes, every lag is kept
    assert _support(_FORWARD[name]()) == support


def _family_supports(m):
    """The support each family is multiplied at: plant return rows, then
    consumer supply rows."""
    return [taps.shape[1] // m.impulse.shape[1] for taps, _, _ in m._families]


def test_each_family_has_the_fewest_lags_with_a_negligible_tail(forward):
    _, m = forward
    h = np.abs(m.impulse)
    n_p = h.shape[1]
    for rows, f in zip((slice(0, n_p), slice(n_p, None)), _family_supports(m)):
        mass = h[rows].sum(axis=2)
        assert np.all(h[rows, :, f:].sum(axis=2) <= 1e-20 * mass)
        assert np.any(h[rows, :, f - 1:].sum(axis=2) > 1e-20 * mass)


@pytest.mark.parametrize("name, supports", [("desk", [31, 27]),
                                            ("feeder", [62, 48]),
                                            ("desk-4-steps", [4, 4])])
def test_the_family_supports_on_the_fixtures(name, supports):
    assert _family_supports(_FORWARD[name]()) == supports


@pytest.mark.parametrize("name", ["loop", "two-plant", "feeder"])
def test_successive_calls_read_the_current_control(name):
    # the windows are a view built once over the padded control: each
    # call must read its own control, not the last one's
    m = _FORWARD[name]()
    h = m.impulse
    n_p, n = h.shape[1], m.grid.n_steps
    rng = np.random.default_rng(47)
    for lo, hi in ((60.0, 120.0), (100.0, 101.0), (30.0, 140.0)):
        u = rng.uniform(lo, hi, (n_p, n))
        want = np.array([sum(np.convolve(row[p], u[p])[:n] for p in range(n_p))
                         for row in h])
        got = _outputs(m, u)
        assert (np.max(np.abs(got - (m.y_free + want)))
                <= 1e-13 * np.max(np.abs(want)))


def test_successive_transposes_read_the_current_rows(forward):
    # the padded output gradient and the diagonal view are buffers built
    # once: each call must read its own live rows, the pad columns must
    # stay zero, and a call with fewer rows must not read the stale ones
    # the call before it left behind
    _, m = forward
    n_rows, n_p, n = m.impulse.shape
    rng = np.random.default_rng(53)
    for k in (n_rows, min(27, n_rows), 1, 0):
        live = np.sort(rng.choice(n_rows, k, replace=False))
        g = np.zeros((n_rows, n))
        g[live] = rng.standard_normal((k, n))
        want = _dense_transpose(m, g)
        got = m.apply_transpose(g[live], live)
        assert got.shape == (n_p, n)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale, k


_THREADED_FORWARD = """
import hashlib
import numpy as np
from dhnopt.fixtures import feeder_scenario
m = feeder_scenario().condensed
rng = np.random.default_rng(43)
digest = hashlib.sha256()
out = np.empty(m.y_free.shape)
for _ in range(8):
    u = rng.uniform(60.0, 120.0, (1, m.grid.n_steps))
    digest.update(m.outputs(u, out).tobytes())
print(digest.hexdigest())
"""


_THREADED_TRANSPOSE = """
import hashlib
import numpy as np
from dhnopt.fixtures import feeder_scenario
m = feeder_scenario().condensed
rng = np.random.default_rng(59)
digest = hashlib.sha256()
for k in (1, 2, 27, 66, 131):
    live = np.sort(rng.choice(131, k, replace=False))
    g = rng.standard_normal((k, m.grid.n_steps))
    digest.update(m.apply_transpose(g, live).tobytes())
print(digest.hexdigest())
"""


def _digests_at_blas_threads(script):
    """The outputs of ``script`` run at 1 and at 4 OpenBLAS threads."""
    src = str(Path(dhnopt.scenario.__file__).parents[1])
    digests = set()
    for threads in (1, 4):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   OMP_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join(
                       filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout)
    return digests


def test_feeder_forward_bytes_do_not_depend_on_blas_threads():
    # the feeder's product is large enough for OpenBLAS to thread it
    assert len(_digests_at_blas_threads(_THREADED_FORWARD)) == 1


def test_feeder_transpose_bytes_do_not_depend_on_blas_threads():
    # from one live row to every one of the feeder's 131
    assert len(_digests_at_blas_threads(_THREADED_TRANSPOSE)) == 1


# ---------------------------------------------------------------------------
# the evaluator reads the convolved rows: exactly the public terms
# ---------------------------------------------------------------------------

_EXACT = {
    "desk-static": lambda: desk_scenario(),
    "desk-dynamic": lambda: desk_scenario(static=False),
    "feeder-static": lambda: feeder_scenario(),
    "feeder-dynamic": lambda: feeder_scenario(static=False),
    "two-plant-static": lambda: _two_plant_scenario(*two_plant_network(), 48),
    "two-plant-dynamic": lambda: _two_plant_scenario(
        *two_plant_network(), 48, two_level_price(n_days=1)),
}
# no violated row; fewer than half the rows violated on the desk and the
# feeder; about half of them
_RANGES = ((110.0, 125.0), (83.0, 87.0), (70.0, 95.0))


def _exact_controls(shape):
    rng = np.random.default_rng(29)
    for lo, hi in _RANGES:
        yield lo, hi, rng.uniform(lo, hi, shape)
    # a drop from 125 to 40 °C halfway: the plant return runs hotter than
    # its supply for a while, where dynamic prices switch to beta
    drop = np.full(shape, 125.0)
    drop[:, shape[1] // 2:] = 40.0
    yield 40.0, 125.0, drop


@pytest.fixture(scope="module", params=sorted(_EXACT))
def exact(request):
    return _EXACT[request.param]()


def _public_terms(s, lambda_p, u):
    """Value, loss, penalty, constraint rows and gradient of the penalized
    objective, from the public terms on the map's rows ``y_free + H * u``.

    The constraint rows are :func:`constraint_violations` of each
    consumer's supply row against ``s.supply_bound``. The gradient
    transposes the rows of ``dJ/dy`` that are nonzero, the rows the
    evaluator passes, and adds the cost rates of the plant supply rows,
    which are the control.
    """
    m, bc = s.condensed, s.system.bc
    n_p = bc.n_plants
    y = _outputs(m, u)
    plants = ObservedTrajectory(
        np.concatenate((bc.plant_nodes, bc.plant_return_nodes)),
        np.concatenate((u, y[:n_p])), s.grid,
        ((bc.plant_nodes, slice(0, n_p)),
         (bc.plant_return_nodes, slice(n_p, 2 * n_p))))
    c = constraint_violations(y[n_p:], s.supply_bound)
    cp = s.constants.cp_j_per_kg_c
    loss = loss_energy(plants, s.graph, s.flow, s.price, cp)
    pen = penalty(c, lambda_p)
    value = (objective_loss(loss, s.price)
             + s.tikhonov_weight * tikhonov(u, s.grid) + pen)
    rates, _ = injection_cost_rates(plants, s.graph, s.flow, s.price, cp)
    rates = rates * objective_loss(1.0, s.price)
    dj_dy = np.empty(y.shape)
    dj_dy[:n_p] = -rates
    dj_dy[n_p:] = -lambda_p * np.maximum(0.0, c)
    grad = _sparse_transpose(m, dj_dy) + rates
    grad += s.tikhonov_weight * tikhonov_gradient(u, s.grid)
    return value, loss, pen, c, grad


class TestEvaluatorIsExact:
    def test_equals_the_public_terms_on_the_map(self, exact):
        shape = (exact.system.bc.n_plants, exact.grid.n_steps)
        # one evaluator for every control: the static loss rates it
        # keeps from its first gradient must hold at the others too
        ev = ObjectiveEvaluator(exact, 100.0)
        for lo, hi, u in _exact_controls(shape):
            value, loss, pen, c, grad = _public_terms(exact, 100.0, u)
            if lo > 100.0:
                assert c.max() <= 0.0
            if hi < 100.0:
                assert c.max() > 0.0
            assert ev.value(u) == value
            # the outputs the gradient reads: the control, then the map's
            # rows, and the violations formed from them
            y = _outputs(exact.condensed, u)
            assert np.array_equal(ev._y, np.concatenate((u, y)))
            assert np.array_equal(ev.parts(u)["violations"], c)
            got_value, got_grad = ev.value_and_gradient(u)
            assert got_value == value
            assert np.array_equal(got_grad, grad)
            parts = ev.parts(u)
            assert parts["value"] == value
            assert parts["loss"] == loss
            assert parts["penalty"] == pen
            # the report's rows, in an array of their own
            assert np.array_equal(parts["violations"], c)
            assert not np.shares_memory(parts["violations"], ev._y)
            assert not np.shares_memory(parts["violations"], ev._c)
            # a gradient with no value call before it
            _, fresh = ObjectiveEvaluator(exact, 100.0).value_and_gradient(u)
            assert np.array_equal(fresh, grad)

    def test_equals_the_two_families_where_no_return_row_holds_a_violation(
            self, exact):
        # the supply rows against smin and the return rows against rmin,
        # on the full state: where the folded bound is smin and no return
        # row is violated, the folded rows give every bit of their max
        # violation and penalty
        assert np.all(exact.supply_bound
                      == exact.constraints.consumer_supply_min_c)
        bc, cons = exact.system.bc, exact.constraints
        shape = (bc.n_plants, exact.grid.n_steps)
        for lo, hi, u in _exact_controls(shape):
            if (lo, hi) not in _RANGES:
                continue
            traj = simulate_system(exact.system, u, exact.deltas,
                                   exact.ambient, exact.u_init)
            supply = traj.rows(bc.consumer_supply_nodes)
            ret = cons.consumer_return_min_c - traj.rows(
                bc.consumer_return_nodes)
            assert ret.max() <= 0.0
            two = np.concatenate((cons.consumer_supply_min_c - supply, ret))
            c = constraint_violations(supply, exact.supply_bound)
            assert max_violation(c) == max_violation(two)
            assert penalty(c, 100.0) == penalty(two, 100.0)


def test_a_gradient_is_not_overwritten_by_the_next_call(exact):
    # the map's transpose writes into a buffer it owns; the evaluator
    # must hand out a gradient of its own
    shape = (exact.system.bc.n_plants, exact.grid.n_steps)
    ev = ObjectiveEvaluator(exact, 100.0)
    (_, _, first), (_, _, second) = list(_exact_controls(shape))[1:3]
    _, grad = ev.value_and_gradient(first)
    kept = grad.copy()
    ev.value_and_gradient(second)
    assert np.array_equal(grad, kept)


def test_evaluators_sharing_a_map_keep_their_own_outputs(exact):
    # the evaluators of one scenario share its map, whose forward writes
    # into the caller's buffer: A's cached outputs must survive B's call
    shape = (exact.system.bc.n_plants, exact.grid.n_steps)
    (_, _, u2), (_, _, u1) = list(_exact_controls(shape))[1:3]
    a, b = ObjectiveEvaluator(exact, 100.0), ObjectiveEvaluator(exact, 100.0)
    a.value(u1)
    b.value_and_gradient(u2)
    got, (_, grad) = a.parts(u1), a.value_and_gradient(u1)
    assert a.n_evals == 1  # both read A's cached outputs
    fresh = ObjectiveEvaluator(exact, 100.0)
    want, (_, want_grad) = fresh.parts(u1), fresh.value_and_gradient(u1)
    assert got.keys() == want.keys()
    for key in got:
        assert np.array_equal(got[key], want[key]), key
    assert np.array_equal(grad, want_grad)


class TestViolationAtTheBound:
    """A consumer supply temperature is violated where it is below its
    bound, ``y < b``: at the bound it is not, one ulp below it is."""

    def _scenario_and_lowest_output(self):
        scenario = make_loop_scenario(n_steps=24, swing=0.3)
        t = np.arange(1, 25) * scenario.grid.dt_s
        u = (100.0 + 5.0 * np.sin(2 * np.pi * t / 86400.0))[None, :]
        n_p = scenario.system.bc.n_plants
        supply = _outputs(scenario.condensed, u)[n_p:]
        return scenario, u, supply.min()

    def _with_smin(self, scenario, smin):
        s = dataclasses.replace(scenario, constraints=dataclasses.replace(
            scenario.constraints, consumer_supply_min_c=smin))
        # the return limit plus the drop stays below smin: the bound is smin
        assert np.all(s.supply_bound == smin)
        return s

    def test_an_output_at_its_bound_is_not_violated(self):
        scenario, u, lowest = self._scenario_and_lowest_output()
        at, below = (ObjectiveEvaluator(self._with_smin(scenario, smin), 1e6)
                     for smin in (lowest, 60.0))
        parts = at.parts(u)
        assert parts["violations"].max() == 0.0
        assert max_violation(parts["violations"]) == 0.0
        assert parts["penalty"] == 0.0
        # nothing added to the value or the gradient: they are those of
        # a bound far below every output
        assert parts["value"] == below.parts(u)["value"]
        assert np.array_equal(at.value_and_gradient(u)[1],
                              below.value_and_gradient(u)[1])

    def test_an_output_one_ulp_below_its_bound_is_violated(self):
        scenario, u, lowest = self._scenario_and_lowest_output()
        smin = np.nextafter(lowest, np.inf)
        s = self._with_smin(scenario, smin)
        ev = ObjectiveEvaluator(s, 1e6)
        parts = ev.parts(u)
        assert max_violation(parts["violations"]) == smin - lowest > 0.0
        assert parts["penalty"] > 0.0
        # the row is live in the gradient: the public terms' one
        value, _, pen, c, grad = _public_terms(s, 1e6, u)
        assert parts["penalty"] == pen
        got_value, got_grad = ev.value_and_gradient(u)
        assert got_value == value
        assert np.array_equal(got_grad, grad)


# ---------------------------------------------------------------------------
# a return limit above the supply limit: the folded bound is rmin + delta
# ---------------------------------------------------------------------------

_RMIN_C = 50.0


@pytest.fixture(scope="module")
def return_bound():
    """The desk with ``rmin + delta > smin`` at most steps, optimized from
    a flat 110 °C."""
    desk = desk_scenario()
    scenario = dataclasses.replace(desk, constraints=dataclasses.replace(
        desk.constraints, consumer_return_min_c=_RMIN_C))
    u_opt, report = optimize(scenario,
                             np.full((1, scenario.grid.n_steps), 110.0))
    return scenario, u_opt, report


class TestReturnLimitBinds:
    def test_limits_are_ordered_and_the_bound_is_rmin_plus_drop(
            self, return_bound):
        scenario, _, _ = return_bound
        cons = scenario.constraints
        assert (cons.plant_max_c > cons.consumer_supply_min_c
                > cons.consumer_return_min_c)
        drop = scenario.deltas[:, 1:]
        above = _RMIN_C + drop > cons.consumer_supply_min_c
        assert 0 < above.sum() < above.size
        bound = scenario.supply_bound
        np.testing.assert_array_equal(bound[above], _RMIN_C + drop[above])
        assert np.all(bound[~above] == cons.consumer_supply_min_c)

    def test_gradient_matches_central_differences(self, return_bound):
        scenario, _, _ = return_bound
        t = np.arange(1, scenario.grid.n_steps + 1) * scenario.grid.dt_s
        u = (92.0 + 3.0 * np.sin(2 * np.pi * t / 86400.0))[None, :]
        ev = ObjectiveEvaluator(scenario, 100.0)
        _, grad = ev.value_and_gradient(u)
        # violated entries where the return limit sets the bound, none
        # where smin does
        above = scenario.supply_bound > scenario.constraints.consumer_supply_min_c
        violations = ev.parts(u)["violations"]
        assert np.any((violations > 0) & above)
        assert not np.any((violations > 0) & ~above)
        # directional: the penalty is large here, so a one-entry
        # difference loses the entry to the value's round-off
        rng = np.random.default_rng(37)
        for _ in range(3):
            d = rng.standard_normal(u.shape)
            fd = (ev.value(u + 1e-3 * d) - ev.value(u - 1e-3 * d)) / 2e-3
            gd = float(np.vdot(grad, d))
            assert abs(gd - fd) <= 1e-6 * max(abs(fd), abs(gd))

    def test_a_return_limit_violation_is_a_positive_folded_row(
            self, return_bound):
        scenario, _, _ = return_bound
        bc = scenario.system.bc
        t = np.arange(1, scenario.grid.n_steps + 1) * scenario.grid.dt_s
        u = (92.0 + 3.0 * np.sin(2 * np.pi * t / 86400.0))[None, :]
        traj = simulate_system(scenario.system, u, scenario.deltas,
                               scenario.ambient, scenario.u_init)
        c = constraint_violations(traj.rows(bc.consumer_supply_nodes),
                                  scenario.supply_bound)
        below = _RMIN_C - traj.rows(bc.consumer_return_nodes)
        violated = below > 1e-9
        assert np.any(violated)
        assert np.all(c[violated] > 0.0)
        # the folded row is the return row's violation: a return node
        # sits delta below its supply node
        assert np.max(np.abs(c[violated] - below[violated])) <= 1e-12

    def test_optimize_holds_the_return_limit(self, return_bound):
        scenario, u_opt, report = return_bound
        bc = scenario.system.bc
        ret = simulate_system(scenario.system, u_opt, scenario.deltas,
                              scenario.ambient, scenario.u_init).rows(
                                  bc.consumer_return_nodes)
        # criterion 4's tolerance; the limit binds, so the test shows it held
        assert report.final_max_violation_c < 0.1
        assert _RMIN_C - ret.min() < 0.1
        assert np.any(ret - _RMIN_C < 0.01)


class TestControlCheck:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e307, -1e307])
    def test_a_bad_control_entry_raises(self, bad):
        scenario = make_loop_scenario(n_steps=24)
        u = np.full((1, 24), 100.0)
        u[0, 7] = bad
        for call in (ObjectiveEvaluator(scenario, 10.0).value,
                     ObjectiveEvaluator(scenario, 10.0).value_and_gradient,
                     lambda u: _outputs(scenario.condensed, u)):
            with pytest.raises(SolverError, match="control"):
                call(u)

    def test_a_rejected_control_writes_no_output(self):
        m = make_loop_scenario(n_steps=24).condensed
        u = np.full((1, 24), 100.0)
        u[0, 3] = np.nan
        out = np.full(m.y_free.shape, 7.0)
        with pytest.raises(SolverError, match="control"):
            m.outputs(u, out)
        assert np.all(out == 7.0)

    def test_an_evaluator_recovers_after_a_rejected_control(self):
        scenario = make_loop_scenario(n_steps=24, swing=0.3)
        good, bad = np.full((1, 24), 85.0), np.full((1, 24), 85.0)
        bad[0, 5] = np.inf
        ev = ObjectiveEvaluator(scenario, 10.0)
        ev.value(good)
        with pytest.raises(SolverError):
            ev.value_and_gradient(bad)
        fresh = ObjectiveEvaluator(scenario, 10.0)
        got, want = ev.parts(good), fresh.parts(good)
        assert np.array_equal(got["violations"], want["violations"])
        assert got["value"] == want["value"]
        assert np.array_equal(ev.value_and_gradient(good)[1],
                              fresh.value_and_gradient(good)[1])

    def test_the_limit_overflows_nothing(self, exact):
        # every entry at the limit, signs drawn: the largest sums the
        # forward's products can form from a control the check lets through
        m = exact.condensed
        shape = (exact.system.bc.n_plants, exact.grid.n_steps)
        sign = np.random.default_rng(31).choice((-1.0, 1.0), shape)
        for u in (np.full(shape, m.control_limit), sign * m.control_limit):
            assert np.all(np.isfinite(_outputs(m, u)))
        with pytest.raises(SolverError):
            _outputs(m, np.full(shape, 2.0 * m.control_limit))
