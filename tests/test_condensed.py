"""The condensed control-to-output map against the per-step sweep.

``Scenario.condensed`` replaces the forward and adjoint sweeps inside
``ObjectiveEvaluator``; ``simulate_system`` stays the oracle it must
reproduce at every observed node.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import dhnopt.scenario
from conftest import make_loop_scenario
from dhnopt.errors import SolverError, ValidationError
from dhnopt.fixtures import (desk_scenario, feeder_network, feeder_scenario,
                             two_level_price)
from dhnopt.network import FlowField, NetworkGraph, subdivide_pipes
from dhnopt.objective import (ConstraintSet, constraint_violations,
                              injection_cost_rates, loss_energy,
                              objective_loss, penalty, tikhonov,
                              tikhonov_gradient)
from dhnopt.optimizer import ObjectiveEvaluator, OptimizerConfig, optimize
from dhnopt.scenario import DemandSet, LoadSeries, build_scenario
from dhnopt.thermal import (DEFAULT_CP, PhysicalConstants, TimeGrid, condense,
                            energy_balance, simulate_system)

_SCENARIOS = {
    "loop": lambda: make_loop_scenario(n_steps=96, swing=0.3),
    "desk-static": lambda: desk_scenario(),
    "desk-dynamic": lambda: desk_scenario(static=False),
}


def _sweep_outputs(scenario, u):
    """Observed temperatures from the per-step sweep."""
    traj = simulate_system(scenario.system, scenario.grid, u,
                           scenario.deltas, scenario.ambient,
                           scenario.u_init)
    return traj.values_c[scenario.condensed.nodes, 1:]


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
            y = scenario.condensed.apply(u).values_c
            assert np.max(np.abs(y - _sweep_outputs(scenario, u))) <= 1e-9

        check()

    def test_observed_rows_are_the_boundary_nodes(self, scenario):
        bc = scenario.system.bc
        np.testing.assert_array_equal(scenario.condensed.nodes, np.concatenate([
            bc.plant_nodes, bc.plant_return_nodes,
            bc.consumer_supply_nodes, bc.consumer_return_nodes]))


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
    flow = FlowField([e[6] for e in edges]).validate_against(graph)
    return graph, flow


def _two_plant_scenario(graph, flow, n_steps, prices=None,
                        u_init=(105.0, 100.0)):
    grid = TimeGrid(dt_s=900.0, n_steps=n_steps)
    t = grid.times()
    demands = DemandSet(("consumer1", "consumer2"), (
        LoadSeries(values_w=30e3 * (1.0 + 0.3 * np.sin(2 * np.pi * t / 86400.0)),
                   dt_s=900.0),
        LoadSeries(values_w=np.full(t.size, 45e3), dt_s=900.0)))
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
        y = two_plant.condensed.apply(u).values_c
        assert np.max(np.abs(y - _sweep_outputs(two_plant, u))) <= 1e-9

    def test_each_plant_has_its_own_impulse_response(self, two_plant):
        h = two_plant.condensed.impulse
        assert h.shape == (two_plant.condensed.nodes.size, 2, 48)
        # each plant's supply row responds to its own pulse only
        np.testing.assert_allclose(h[0, :, 0], [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(h[1, :, 0], [0.0, 1.0], atol=1e-12)
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
        m = two_plant.condensed
        for call in (m.convolve, m.apply):
            with pytest.raises(ValidationError, match="shape"):
                call(np.full(shape, 100.0))


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
    flow = FlowField([e[6] for e in edges]).validate_against(graph)
    return graph, flow


@pytest.fixture(scope="module")
def cyclic():
    graph, flow = cyclic_network()
    grid = TimeGrid(dt_s=900.0, n_steps=48)
    t = grid.times()
    demands = DemandSet(("consumer",), (LoadSeries(
        values_w=40e3 * (1.0 + 0.3 * np.sin(2 * np.pi * t / 86400.0)),
        dt_s=900.0),))
    scenario = build_scenario(graph, flow, demands, None, ConstraintSet(),
                              grid, PhysicalConstants(),
                              initial_control_c=105.0)
    # low enough that some consumer constraints are active
    u = np.random.default_rng(3).uniform(70.0, 95.0, (1, 48))
    return scenario, u


class TestCyclicFlow:
    def test_energy_balance_closes(self, cyclic):
        scenario, u = cyclic
        traj = simulate_system(scenario.system, scenario.grid, u,
                               scenario.deltas, scenario.ambient,
                               scenario.u_init)
        bal = energy_balance(scenario.system, traj, scenario.deltas,
                             scenario.ambient)
        assert bal["residual_rel"].max() < 1e-12

    def test_outputs_equal_sweep(self, cyclic):
        scenario, u = cyclic
        y = scenario.condensed.apply(u).values_c
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
    return renumbered, flow.validate_against(renumbered)


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
        traj = simulate_system(system, grid, u, scenario.deltas,
                               scenario.ambient, scenario.u_init)
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
    demands = DemandSet(
        tuple(graph.edge_ids[e] for e in edges),
        tuple(LoadSeries(values_w=15.0 * DEFAULT_CP * m * shape, dt_s=900.0)
              for m in flow.massflow_kg_s[edges]))
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
        traj = simulate_system(scenario.system, scenario.grid, u,
                               scenario.deltas, scenario.ambient,
                               scenario.u_init)
        y = scenario.condensed.apply(u).values_c
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
        flow.validate_against(graph)
        fine, fine_flow = subdivide_pipes(graph, flow, max_cell_length_m)
        fine_flow.validate_against(fine)


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
    gains = h[_block_rows(scenario)[2]].sum(axis=(1, 2))
    assert gains.max() <= 1.0 + 1e-12


@pytest.mark.parametrize("name", sorted(_FOLDED) + ["feeder"])
def test_maximum_principle_on_the_fixtures(name):
    _assert_maximum_principle(_FOLDED.get(name, feeder_scenario)())


@pytest.fixture(scope="module", params=sorted(_FOLDED))
def folded(request):
    scenario = _FOLDED[request.param]()
    lo, hi = scenario.constraints.control_bounds
    rng = np.random.default_rng(11)
    u = rng.uniform(lo, hi, (scenario.system.bc.n_plants, scenario.grid.n_steps))
    return scenario, u, scenario.condensed.apply(u)


def _block_rows(scenario):
    bc = scenario.system.bc
    bounds = np.cumsum([0, bc.n_plants, bc.n_plants, bc.n_consumers,
                        bc.n_consumers])
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _dense_transpose(m, g):
    """The control gradient of ``sum(g * y)`` over the plant supply,
    plant return and consumer supply rows: ``H^T`` of every convolved
    row, zero rows included, plus the plant supply rows, which are the
    control. The reference the row-sparse transpose must match."""
    n = m.grid.n_steps
    signal = np.zeros((m._impulse_f.shape[0], m._n_fft))
    signal[:, :n] = g[m._convolved]
    g_f = np.conj(np.fft.rfft(signal))
    u_f = np.array([(g_f * m._impulse_f[:, p]).sum(axis=0)
                    for p in range(m._impulse_f.shape[1])])
    return np.fft.irfft(np.conj(u_f), m._n_fft)[:, :n] + g[m._plants]


def _sparse_transpose(m, g):
    """The map's transpose given only the nonzero convolved rows of
    ``g``, plus the plant supply rows, which pass through."""
    convolved = g[m._convolved]
    live = np.flatnonzero(convolved.any(axis=1))
    return m.apply_transpose(convolved[live], live) + g[m._plants]


def _patterns(scenario, rng):
    """Output gradients zero outside a few rows, by name."""
    plants, returns_p, supply, _ = _block_rows(scenario)
    shape = (supply.stop, scenario.grid.n_steps)

    def only(*blocks):
        g = np.zeros(shape)
        for rows in blocks:
            g[rows] = rng.standard_normal((rows.stop - rows.start, shape[1]))
        return g
    first = supply.start
    return {
        "plant rows only": only(plants, returns_p),
        "one consumer supply row": only(slice(first, first + 1)),
        "last consumer supply row only": only(slice(supply.stop - 1,
                                                    supply.stop)),
        "every row": rng.standard_normal(shape),
        "all zero": np.zeros(shape),
    }


class TestFoldedMap:
    """The map whose consumer return rows the objective folds into the
    supply bound: its transpose takes convolved rows only."""

    def test_sparse_transpose_equals_dense(self, folded):
        scenario, _, _ = folded
        m = scenario.condensed
        for name, g in _patterns(scenario, np.random.default_rng(17)).items():
            want = _dense_transpose(m, g)
            got = _sparse_transpose(m, g)
            scale = max(np.max(np.abs(want)), 1e-300)
            assert np.max(np.abs(got - want)) <= 1e-13 * scale, name

    def test_plant_supply_rows_alone_pass_through(self, folded):
        scenario, _, _ = folded
        m = scenario.condensed
        plants = _block_rows(scenario)[0]
        n = scenario.grid.n_steps
        g = np.zeros((_block_rows(scenario)[2].stop, n))
        g[plants] = np.random.default_rng(23).standard_normal((plants.stop, n))
        # no convolved row is live: the map's share is exact zeros
        none = m.apply_transpose(np.empty((0, n)), np.arange(0))
        assert none.tobytes() == np.zeros((plants.stop, n)).tobytes()
        assert _sparse_transpose(m, g).tobytes() == g[plants].tobytes()
        assert _dense_transpose(m, g).tobytes() == g[plants].tobytes()

    def test_transpose_is_the_adjoint(self, folded):
        scenario, u, y = folded
        m = scenario.condensed
        rng = np.random.default_rng(13)
        convolved = m._convolved
        n_rows = convolved.stop - convolved.start
        for _ in range(3):
            g = rng.standard_normal((n_rows, scenario.grid.n_steps))
            lhs = float(np.vdot((y.values_c - m.y_free)[convolved], g))
            rhs = float(np.vdot(u, m.apply_transpose(g, np.arange(n_rows))))
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))

    def test_plant_supply_rows_are_the_control(self, folded):
        scenario, u, y = folded
        plants = _block_rows(scenario)[0]
        assert y.values_c[plants].tobytes() == u.tobytes()

    def test_consumer_return_rows_are_supply_minus_drop(self, folded):
        scenario, _, y = folded
        _, _, supply, returns = _block_rows(scenario)
        drop = y.values_c[supply] - y.values_c[returns]
        assert np.max(np.abs(drop - scenario.deltas[:, 1:])) <= 1e-12

    def test_block_rows_are_views(self, folded):
        scenario, _, y = folded
        bc = scenario.system.bc
        for nodes, rows in zip((bc.plant_nodes, bc.plant_return_nodes,
                                bc.consumer_supply_nodes,
                                bc.consumer_return_nodes),
                               _block_rows(scenario)):
            block = y.rows(nodes)
            assert np.shares_memory(block, y.values_c)
            np.testing.assert_array_equal(block, y.values_c[rows])
            # an equal array that is not the boundary spec's own
            assert np.shares_memory(y.rows(nodes.copy()), y.values_c)

    def test_rows_outside_the_blocks_raise(self, folded):
        scenario, _, y = folded
        bc = scenario.system.bc
        with pytest.raises(ValidationError, match="outside the observed"):
            y.rows(np.concatenate([bc.plant_nodes, bc.consumer_supply_nodes]))


# ---------------------------------------------------------------------------
# the forward: one product over the impulse's numerical support
# ---------------------------------------------------------------------------

def _short_desk_map():
    """The desk's map over 4 steps, fewer than its transit takes."""
    desk = desk_scenario()
    grid = TimeGrid(dt_s=desk.grid.dt_s, n_steps=4)
    return condense(desk.system, grid, desk.deltas[:, :5], desk.ambient[:5],
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
        h = m.impulse[m._convolved]
        n_p, n = h.shape[1], m.grid.n_steps
        u = np.random.default_rng(41).uniform(60.0, 120.0, (n_p, n))
        want = np.array([sum(np.convolve(row[p], u[p])[:n] for p in range(n_p))
                         for row in h])
        got = m.convolve(u)
        assert got.flags.c_contiguous
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_the_support_is_the_fewest_lags_with_a_negligible_tail(
            self, forward):
        _, m = forward
        h = np.abs(m.impulse[m._convolved])
        s = _support(m)
        mass = h.sum(axis=2)
        assert np.all(h[..., s:].sum(axis=2) <= 1e-20 * mass)
        assert np.any(h[..., s - 1:].sum(axis=2) > 1e-20 * mass)
        # the taps are the impulse reversed in lag, one block per plant
        taps = m._taps.reshape(h.shape[0], h.shape[1], s)
        assert np.array_equal(taps[..., ::-1],
                              m.impulse[m._convolved][..., :s])


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
    h = np.abs(m.impulse[m._convolved])
    n_p = h.shape[1]
    for rows, f in zip((slice(0, n_p), m._supply), _family_supports(m)):
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
    h = m.impulse[m._convolved]
    n_p, n = h.shape[1], m.grid.n_steps
    rng = np.random.default_rng(47)
    for lo, hi in ((60.0, 120.0), (100.0, 101.0), (30.0, 140.0)):
        u = rng.uniform(lo, hi, (n_p, n))
        want = np.array([sum(np.convolve(row[p], u[p])[:n] for p in range(n_p))
                         for row in h])
        got = m.convolve(u)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


_THREADED_FORWARD = """
import hashlib
import numpy as np
from dhnopt.fixtures import feeder_scenario
m = feeder_scenario().condensed
rng = np.random.default_rng(43)
digest = hashlib.sha256()
for _ in range(8):
    u = rng.uniform(60.0, 120.0, (1, m.grid.n_steps))
    digest.update(m.convolve(u).tobytes())
print(digest.hexdigest())
"""


def test_feeder_forward_bytes_do_not_depend_on_blas_threads():
    # the feeder's product is large enough for OpenBLAS to thread it
    src = str(Path(dhnopt.scenario.__file__).parents[1])
    digests = set()
    for threads in (1, 4):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   OMP_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join(
                       filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", _THREADED_FORWARD],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout)
    assert len(digests) == 1


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


def _public_terms(s, lambda_p, u, violations=None):
    """Value, loss, penalty, constraint rows and gradient of the penalized
    objective, from the public terms on ``condensed.apply(u)``.

    The constraint rows are ``violations(y)`` when given, else the folded
    bound ``s.supply_bound`` minus each consumer's supply row; the
    gradient's hinge reads the first ``n_consumers`` of them, the
    consumer supply rows.
    """
    y = s.condensed.apply(u)
    bc = s.system.bc
    c = (s.supply_bound - y.rows(bc.consumer_supply_nodes)
         if violations is None else violations(y))
    cp = s.constants.cp_j_per_kg_c
    loss = loss_energy(y, s.graph, s.flow, s.price, cp)
    pen = penalty(c, lambda_p)
    value = (objective_loss(loss, s.price)
             + s.tikhonov_weight * tikhonov(u, s.grid) + pen)
    rates, _ = injection_cost_rates(y, s.graph, s.flow, s.price, cp,
                                    working=True)
    n_p = bc.n_plants
    dj_dy = np.empty((2 * n_p + bc.n_consumers, s.grid.n_steps))
    dj_dy[:n_p] = rates
    dj_dy[n_p:2 * n_p] = -rates
    dj_dy[2 * n_p:] = -lambda_p * np.maximum(0.0, c[:bc.n_consumers])
    grad = _dense_transpose(s.condensed, dj_dy)
    grad += s.tikhonov_weight * tikhonov_gradient(u, s.grid)
    return value, loss, pen, c, grad


class TestEvaluatorIsExact:
    def test_equals_the_public_terms_on_apply(self, exact):
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
            # the violations the gradient reads
            assert np.array_equal(ev._c, c)
            got_value, got_grad = ev.value_and_gradient(u)
            assert got_value == value
            assert np.array_equal(got_grad, grad)
            parts = ev.parts(u)
            assert parts["value"] == value
            assert parts["loss"] == loss
            assert parts["penalty"] == pen
            # the report's rows: both families, on every observed row
            assert np.array_equal(parts["violations"], constraint_violations(
                exact.condensed.apply(u), exact.graph, exact.constraints))
            # a gradient with no value call before it
            _, fresh = ObjectiveEvaluator(exact, 100.0).value_and_gradient(u)
            assert np.array_equal(fresh, grad)

    def test_equals_the_two_families_where_no_return_row_holds_a_violation(
            self, exact):
        # the supply and return rows of constraint_violations, each with
        # its own limit: where no return row is violated and the folded
        # bound is smin, the folded rows give every bit of their terms
        assert np.all(exact.supply_bound
                      == exact.constraints.consumer_supply_min_c)
        n_c = exact.system.bc.n_consumers
        shape = (exact.system.bc.n_plants, exact.grid.n_steps)
        ev = ObjectiveEvaluator(exact, 100.0)
        for lo, hi, u in _exact_controls(shape):
            if (lo, hi) not in _RANGES:
                continue
            value, _, pen, c, grad = _public_terms(
                exact, 100.0, u, lambda y: constraint_violations(
                    y, exact.graph, exact.constraints))
            assert c[n_c:].max() <= 0.0
            got_value, got_grad = ev.value_and_gradient(u)
            assert got_value == value
            assert ev.parts(u)["penalty"] == pen
            assert np.array_equal(got_grad, grad)


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
        assert np.any((ev._c > 0) & above)
        assert not np.any((ev._c > 0) & ~above)
        # directional: the penalty is large here, so a one-entry
        # difference loses the entry to the value's round-off
        rng = np.random.default_rng(37)
        for _ in range(3):
            d = rng.standard_normal(u.shape)
            fd = (ev.value(u + 1e-3 * d) - ev.value(u - 1e-3 * d)) / 2e-3
            gd = float(np.vdot(grad, d))
            assert abs(gd - fd) <= 1e-6 * max(abs(fd), abs(gd))

    def test_optimize_holds_the_return_limit(self, return_bound):
        scenario, u_opt, report = return_bound
        bc = scenario.system.bc
        ret = scenario.condensed.apply(u_opt).rows(bc.consumer_return_nodes)
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
                     scenario.condensed.apply):
            with pytest.raises(SolverError, match="control"):
                call(u)

    def test_the_limit_overflows_nothing(self, exact):
        # every entry at the limit, signs drawn: the largest sums the
        # transforms can form from a control the check lets through
        m = exact.condensed
        shape = (exact.system.bc.n_plants, exact.grid.n_steps)
        sign = np.random.default_rng(31).choice((-1.0, 1.0), shape)
        for u in (np.full(shape, m.control_limit), sign * m.control_limit):
            assert np.all(np.isfinite(m.apply(u).values_c))
        with pytest.raises(SolverError):
            m.apply(np.full(shape, 2.0 * m.control_limit))
