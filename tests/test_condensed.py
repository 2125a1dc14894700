"""The condensed control-to-output map against the per-step sweep.

``Scenario.condensed`` replaces the forward and adjoint sweeps inside
``ObjectiveEvaluator``; ``simulate_system`` stays the oracle it must
reproduce at every observed node.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import dhnopt.scenario
from conftest import make_loop_scenario
from dhnopt.errors import ValidationError
from dhnopt.fixtures import desk_scenario, feeder_network, two_level_price
from dhnopt.network import FlowField, NetworkGraph, subdivide_pipes
from dhnopt.objective import ConstraintSet
from dhnopt.optimizer import ObjectiveEvaluator, OptimizerConfig, optimize
from dhnopt.scenario import DemandSet, LoadSeries, build_scenario
from dhnopt.thermal import (DEFAULT_CP, PhysicalConstants, TimeGrid,
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
    @given(network=_NETWORKS, max_cell_length_m=st.floats(10.0, 600.0))
    def test_refined_flow_passes_validation(self, network, max_cell_length_m):
        # feeder_network refines its pipes without checking the result;
        # refining again at a drawn length splits the cycle's pipes too
        graph, flow = network
        flow.validate_against(graph)
        fine, fine_flow = subdivide_pipes(graph, flow, max_cell_length_m)
        fine_flow.validate_against(fine)


# ---------------------------------------------------------------------------
# the folded map: only plant return and consumer supply rows are convolved
# ---------------------------------------------------------------------------

_FOLDED = {
    "loop": lambda: make_loop_scenario(n_steps=96, swing=0.3),
    "desk": lambda: desk_scenario(),
    "two-plant": lambda: _two_plant_scenario(*two_plant_network(), 48),
}


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
    """``H^T g`` with every folded row transformed, zero rows included:
    the reference the row-sparse transpose must match."""
    n = m.grid.n_steps
    folded = np.zeros((m._impulse_f.shape[0], m._n_fft))
    folded[:, :n] = g[m._convolved]
    folded[m._supply, :n] += g[m._returns]
    g_f = np.conj(np.fft.rfft(folded))
    u_f = np.array([(g_f * m._impulse_f[:, p]).sum(axis=0)
                    for p in range(m._impulse_f.shape[1])])
    return np.fft.irfft(np.conj(u_f), m._n_fft)[:, :n] + g[m._plants]


def _sparse_transpose(m, g):
    """The map's transpose given only the nonzero rows of ``g``."""
    rows = np.flatnonzero(g.any(axis=1))
    return m.apply_transpose(g[rows], rows)


def _patterns(scenario, rng):
    """Output gradients zero outside a few rows, by name."""
    plants, returns_p, supply, returns = _block_rows(scenario)
    shape = (returns.stop, scenario.grid.n_steps)

    def only(*blocks):
        g = np.zeros(shape)
        for rows in blocks:
            g[rows] = rng.standard_normal((rows.stop - rows.start, shape[1]))
        return g
    first = supply.start
    return {
        "plant rows only": only(plants, returns_p),
        "one consumer supply row": only(slice(first, first + 1)),
        "one consumer return row only": only(slice(returns.stop - 1,
                                                   returns.stop)),
        "every row": rng.standard_normal(shape),
        "all zero": np.zeros(shape),
    }


class TestFoldedMap:
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
        g = np.zeros((m.nodes.size, scenario.grid.n_steps))
        g[plants] = np.random.default_rng(23).standard_normal(
            (plants.stop, scenario.grid.n_steps))
        assert _sparse_transpose(m, g).tobytes() == g[plants].tobytes()

    def test_transpose_is_the_adjoint(self, folded):
        scenario, u, y = folded
        m = scenario.condensed
        rng = np.random.default_rng(13)
        for _ in range(3):
            g = rng.standard_normal(y.values_c.shape)
            lhs = float(np.vdot(y.values_c - m.y_free, g))
            rows = np.arange(g.shape[0])
            rhs = float(np.vdot(u, m.apply_transpose(g, rows)))
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
