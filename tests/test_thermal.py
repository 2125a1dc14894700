import math
import re

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import make_loop_scenario
from dhnopt.errors import SolverError, ValidationError
from dhnopt.fixtures import (desk_network, feeder_network, minimal_loop,
                             pipe_chain)
from dhnopt.network import control_volumes
from dhnopt.optimizer import optimize
from dhnopt.thermal import (PhysicalConstants, SystemMatrices, TimeGrid,
                            _advection_matrix,
                            assemble, condense, demand_to_delta,
                            energy_balance, simulate, simulate_system,
                            solve_steady, stored_energy)

CP = 4186.0
RHO = 1000.0


def _from_steady(system, u_init, u, deltas, ambient_c, n_steps=1):
    """``simulate_system`` from the steady state under ``u_init``.

    Constant control ``u``, consumer drops ``deltas`` and ambient
    temperature; returns the initial and the final state.
    """
    deltas = np.tile(np.asarray(deltas, dtype=float)[:, None], (1, n_steps + 1))
    traj = simulate_system(system, np.full((1, n_steps), u), deltas,
                           np.full(n_steps + 1, ambient_c), u_init=[u_init])
    return traj.values_c[:, 0], traj.values_c[:, -1]


def _chain_system(n_cells, total_length, mdot, k, dt=None, diameter=0.05):
    graph, flow = pipe_chain(n_cells, total_length_m=total_length,
                             mdot_kg_s=mdot, diameter_m=diameter,
                             htc_w_per_m_c=k)
    system = assemble(graph, flow, control_volumes(graph),
                      PhysicalConstants(), dt_s=dt)
    return graph, system


class TestSteadySolve:
    def test_single_cell_balance_oracle(self):
        # hand oracle: cp*mdot*(y - y_in) + K*(y - y_a) = 0 at the node
        # between two cells, where K = k*l_cell; with K = cp*mdot and
        # y_a = 0 the node settles at y_in / 2.
        mdot = 0.01
        k = CP * mdot / 100.0  # K = k * 100 m = cp * mdot
        graph, system = _chain_system(2, 200.0, mdot, k)
        constants = PhysicalConstants(ambient_c=0.0)
        system = assemble(graph, system.flow, control_volumes(graph), constants)
        y = solve_steady(system, [80.0], [0.0], 0.0)
        mid = graph.node_index["S1"]
        assert y[mid] == pytest.approx(40.0, abs=1e-10)

    def test_lossless_transport_keeps_plant_temperature(self):
        graph, system = _chain_system(8, 400.0, 0.05, 0.0)
        y = solve_steady(system, [80.0], [0.0], 10.0)
        supply_nodes = [graph.node_index[f"S{j}"] for j in range(9)]
        np.testing.assert_allclose(y[supply_nodes], 80.0, atol=1e-10)

    def test_chain_refinement_converges_first_order(self):
        # analytic steady profile along a lossy pipe:
        #   y(L) = y_a + (y_in - y_a) * exp(-k*L/(cp*mdot))
        mdot, length = 0.05, 1000.0
        k = CP * mdot / length  # one attenuation length over the pipe
        y_exact = 10.0 + 70.0 * math.exp(-1.0)
        errors, ns = [], [1, 2, 4, 8, 16, 32, 64, 128, 256]
        for n in ns:
            graph, system = _chain_system(n, length, mdot, k)
            y = solve_steady(system, [80.0], [0.0], 10.0)
            errors.append(abs(y[graph.node_index[f"S{n}"]] - y_exact))
        slope = np.polyfit(np.log(ns[-5:]), np.log(errors[-5:]), 1)[0]
        assert -slope == pytest.approx(1.0, abs=0.2)
        assert errors[-1] < errors[0] / 100

    def test_boundary_rows_satisfied_exactly(self):
        graph, flow = desk_network()
        system = assemble(graph, flow, control_volumes(graph),
                          PhysicalConstants())
        deltas = np.linspace(10.0, 30.0, system.bc.n_consumers)
        y = solve_steady(system, [95.0], deltas, 10.0)
        assert y[system.bc.plant_nodes[0]] == pytest.approx(95.0, abs=1e-12)
        drop = (y[system.bc.consumer_supply_nodes]
                - y[system.bc.consumer_return_nodes])
        np.testing.assert_allclose(drop, deltas, atol=1e-10)

    def test_stagnant_trunk_segment_is_singular(self):
        # a lossless junction with zero throughflow has an empty row:
        # nothing determines its temperature
        graph, flow = desk_network(htc_w_per_m_c=0.0)
        dead = flow.copy()
        dead[graph.edge_index["ret0_5"]] = 0.0  # bypasses validation
        system = assemble(graph, dead, control_volumes(graph),
                          PhysicalConstants())
        deltas = np.zeros(system.bc.n_consumers)
        with pytest.raises(SolverError, match="singular"):
            solve_steady(system, [80.0], deltas, 10.0)


class TestTransient:
    def test_steady_state_is_a_fixed_point(self):
        graph, flow = desk_network()
        system = assemble(graph, flow, control_volumes(graph),
                          PhysicalConstants(), dt_s=900.0)
        deltas = np.full(system.bc.n_consumers, 25.0)
        y0, y1 = _from_steady(system, 100.0, 100.0, deltas, 10.0)
        np.testing.assert_array_equal(
            y0, solve_steady(system, [100.0], deltas, 10.0))
        np.testing.assert_allclose(y1, y0, atol=1e-10)

    def test_huge_time_step_reproduces_steady(self):
        graph, flow = desk_network()
        constants = PhysicalConstants()
        vol = control_volumes(graph)
        slow = assemble(graph, flow, vol, constants, dt_s=1e15)
        ref = assemble(graph, flow, vol, constants)
        deltas = np.full(slow.bc.n_consumers, 20.0)
        y0, y_inf = _from_steady(slow, 60.0, 105.0, deltas, 10.0)
        assert np.max(np.abs(y0 - y_inf)) > 10.0
        y_ss = solve_steady(ref, [105.0], deltas, 10.0)
        np.testing.assert_allclose(y_inf, y_ss, atol=1e-6)

    def test_single_cell_step_response_oracle(self):
        # scalar backward-Euler recurrence at a node fed by the plant:
        #   y1 = y_ss + (y0 - y_ss) / (1 + dt/tau),
        #   tau = rho*V*cp / (cp*mdot + K)
        mdot, length, k, dt = 0.01, 200.0, 0.3, 600.0
        graph, flow = pipe_chain(2, total_length_m=length, mdot_kg_s=mdot,
                                 htc_w_per_m_c=k)
        constants = PhysicalConstants(ambient_c=0.0)
        vol = control_volumes(graph)
        system = assemble(graph, flow, vol, constants, dt_s=dt)
        y0, y1 = _from_steady(system, 80.0, 100.0, [0.0], 0.0)
        mid = graph.node_index["S1"]
        K = k * 100.0
        v_mid = vol[mid]
        tau = RHO * v_mid * CP / (CP * mdot + K)
        y_ss = (CP * mdot * 100.0) / (CP * mdot + K)
        expected = y_ss + (y0[mid] - y_ss) / (1.0 + dt / tau)
        assert y1[mid] == pytest.approx(expected, rel=1e-12)

    def test_repeated_stepping_reaches_steady_state(self):
        graph, flow = desk_network()
        constants = PhysicalConstants()
        vol = control_volumes(graph)
        system = assemble(graph, flow, vol, constants, dt_s=900.0)
        deltas = np.full(system.bc.n_consumers, 25.0)
        _, y = _from_steady(system, 120.0, 95.0, deltas, 10.0, n_steps=5000)
        ref = assemble(graph, flow, vol, constants)
        y_ss = solve_steady(ref, [95.0], deltas, 10.0)
        np.testing.assert_allclose(y, y_ss, atol=1e-6)


class TestSimulate:
    def test_constant_control_at_initial_steady_state(self):
        scenario = make_loop_scenario(n_steps=24, swing=0.0)
        u = np.full((1, 24), 105.0)
        traj = simulate(scenario.graph, scenario.flow, scenario, u)
        drift = traj.values_c - traj.values_c[:, :1]
        assert np.max(np.abs(drift)) < 1e-9

    def test_lossless_network_converges_to_plant_temperature(self):
        scenario = make_loop_scenario(n_steps=120, demand_w=0.0,
                                      htc_w_per_m_c=0.0,
                                      initial_control_c=60.0)
        u = np.full((1, 120), 95.0)
        traj = simulate(scenario.graph, scenario.flow, scenario, u)
        np.testing.assert_allclose(traj.values_c[:, -1], 95.0, atol=1e-6)

    def test_discrete_maximum_principle(self):
        scenario = make_loop_scenario(n_steps=60, demand_w=0.0,
                                      htc_w_per_m_c=0.0,
                                      initial_control_c=90.0)
        rng = np.random.default_rng(3)
        u = 70.0 + 50.0 * rng.random((1, 60))
        traj = simulate(scenario.graph, scenario.flow, scenario, u)
        lo = min(90.0, u.min())
        hi = max(90.0, u.max())
        assert traj.values_c.min() >= lo - 1e-9
        assert traj.values_c.max() <= hi + 1e-9

    def test_energy_balance_identity(self, desk_static_scenario):
        sc = desk_static_scenario
        t = sc.grid.times()[1:]
        u = 110.0 + 8.0 * np.sin(2 * np.pi * t / 86400.0)[None, :]
        traj = simulate(sc.graph, sc.flow, sc, u)
        bal = energy_balance(sc.system, traj, sc.deltas, sc.ambient)
        assert bal["residual_rel"].max() < 1e-10
        # sanity on the audited quantities themselves
        assert np.all(bal["injection_w"] > 0)
        assert np.all(bal["extraction_w"] > 0)
        assert np.all(bal["ambient_w"] > 0)

    def test_energy_terms_equal_the_per_node_sums(self, desk_static_scenario):
        # reference: each interior node's term summed over the nodes
        sc = desk_static_scenario
        t = sc.grid.times()[1:]
        u = 110.0 + 8.0 * np.sin(2 * np.pi * t / 86400.0)[None, :]
        traj = simulate(sc.graph, sc.flow, sc, u)
        bal = energy_balance(sc.system, traj, sc.deltas, sc.ambient)
        y, inner = traj.values_c, sc.system.interior
        s = sc.system.S_diag[inner][:, None]
        ambient = (s * (y[inner, 1:] - sc.ambient[None, 1:])).sum(axis=0)
        c = sc.constants
        w = c.rho_kg_m3 * c.cp_j_per_kg_c * sc.system.V_diag[inner][:, None]
        storage = (w * (y[inner, 1:] - y[inner, :-1])).sum(axis=0) / sc.grid.dt_s
        np.testing.assert_allclose(bal["ambient_w"], ambient, rtol=1e-12)
        scale = np.abs(bal["injection_w"]).max()
        np.testing.assert_allclose(bal["storage_w"], storage, rtol=0,
                                   atol=1e-12 * scale)

    def test_zero_demand_lossless_plant_power_decays(self):
        scenario = make_loop_scenario(n_steps=120, demand_w=0.0,
                                      htc_w_per_m_c=0.0,
                                      initial_control_c=60.0)
        u = np.full((1, 120), 95.0)
        traj = simulate(scenario.graph, scenario.flow, scenario, u)
        bal = energy_balance(scenario.system, traj, scenario.deltas,
                             scenario.ambient)
        # once the loop reaches the plant temperature nothing is injected
        assert abs(bal["injection_w"][-1]) < 1e-3
        assert bal["injection_w"][0] > 1e3

    def test_control_shape_validated(self, desk_static_scenario):
        sc = desk_static_scenario
        with pytest.raises(ValidationError, match="shape"):
            simulate(sc.graph, sc.flow, sc, np.full((1, 7), 110.0))

    @pytest.mark.parametrize("shape", [(288,), (2, 288), (1, 1, 288)])
    def test_control_needs_one_row_per_plant(self, desk_static_scenario,
                                             shape):
        sc = desk_static_scenario
        with pytest.raises(ValidationError, match=r"control must have shape "
                           r"\(1, n_steps\), got " + re.escape(str(shape))):
            simulate_system(sc.system, np.full(shape, 110.0), sc.deltas,
                            sc.ambient)

    def test_grid_is_the_systems_step_over_the_inputs_horizon(
            self, desk_static_scenario):
        sc = desk_static_scenario
        u = np.full((1, 4), 110.0)
        traj = simulate_system(sc.system, u, sc.deltas[:, :5], sc.ambient[:5])
        m = condense(sc.system, sc.deltas[:, :5], sc.ambient[:5], sc.u_init)
        assert traj.grid == m.grid == TimeGrid(dt_s=sc.system.dt_s, n_steps=4)
        assert simulate(sc.graph, sc.flow, sc, np.full((1, 288), 110.0)).grid \
            == sc.grid

    @pytest.mark.parametrize("shape", [(), (288,), (290,), (1, 289)])
    def test_ambient_shape_validated(self, desk_static_scenario, shape):
        sc = desk_static_scenario
        assert sc.grid.n_steps == 288
        with pytest.raises(ValidationError, match=r"ambient must have shape \(289,\)"):
            simulate_system(sc.system, np.full((1, 288), 110.0), sc.deltas,
                            np.full(shape, 10.0))
        # condense reads its horizon off the ambient series, so one of the
        # wrong length sets a horizon the deltas do not fit
        n_c = sc.system.bc.n_consumers
        match = (rf"deltas must have shape \({n_c}, {shape[0]}\)"
                 if len(shape) == 1
                 else r"ambient must have shape \(n_steps \+ 1,\)")
        with pytest.raises(ValidationError, match=match):
            condense(sc.system, sc.deltas, np.full(shape, 10.0), sc.u_init)

    def test_steady_only_system_cannot_be_swept(self):
        graph, flow = minimal_loop()
        system = assemble(graph, flow, control_volumes(graph),
                          PhysicalConstants(), dt_s=None)
        with pytest.raises(SolverError, match="without a time step"):
            simulate_system(system, np.full((1, 4), 90.0),
                            np.full((1, 5), 20.0), np.full(5, 10.0))
        with pytest.raises(SolverError, match="without a time step"):
            condense(system, np.full((1, 5), 20.0), np.full(5, 10.0), [90.0])


class TestDenseOracle:
    @pytest.mark.parametrize("builder", [
        lambda: minimal_loop(),
        lambda: desk_network(),
        lambda: pipe_chain(16, 800.0, 0.05, 0.3),
    ])
    def test_sparse_matches_dense(self, builder):
        graph, flow = builder()
        assert graph.n_nodes <= 50
        constants = PhysicalConstants()
        vol = control_volumes(graph)
        system = assemble(graph, flow, vol, constants, dt_s=900.0)
        deltas = np.full(system.bc.n_consumers, 20.0)

        y_sparse = solve_steady(system, [100.0], deltas, 10.0)
        b = system.rhs_steady([100.0], deltas, 10.0)
        y_dense = np.linalg.solve(system.steady_matrix().toarray(), b)
        assert np.max(np.abs(y_sparse - y_dense)) < 1e-8

        _, y1 = _from_steady(system, 100.0, 90.0, deltas, 10.0)
        bt = system.rhs_steady([90.0], deltas, 10.0) + system.B_diag * y_sparse
        transient = system.steady_matrix() + sp.diags(system.B_diag)
        y1_dense = np.linalg.solve(transient.toarray(), bt)
        assert np.max(np.abs(y1 - y1_dense)) < 1e-8


class TestFactorizations:
    def test_each_matrix_is_factorized_once_per_system(self, monkeypatch):
        labels = []
        real = SystemMatrices._factorize

        def counting(self, matrix, label):
            labels.append(label)
            return real(self, matrix, label)

        monkeypatch.setattr(SystemMatrices, "_factorize", counting)
        sc = make_loop_scenario(n_steps=24, swing=0.3)
        simulate(sc.graph, sc.flow, sc, np.full((1, 24), 105.0))
        sc.condensed
        optimize(sc, np.full((1, 24), 110.0))
        assert sorted(labels) == ["steady", "transient"]

    @pytest.mark.parametrize("builder", [desk_network, feeder_network],
                             ids=["desk", "feeder"])
    def test_flow_order_factorization_has_no_fill(self, builder):
        graph, flow = builder()
        system = assemble(graph, flow, control_volumes(graph),
                          PhysicalConstants(), dt_s=900.0)
        rank = np.empty_like(system.order)
        rank[system.order] = np.arange(graph.n_nodes)
        # every node follows the nodes its row reads
        a = system.steady_matrix().tocoo()
        off = a.row != a.col
        assert np.all(rank[a.col[off]] < rank[a.row[off]])
        transient = system.steady_matrix() + sp.diags(system.B_diag)
        lu = system.lu_transient
        assert lu.L.nnz + lu.U.nnz == transient.nnz + graph.n_nodes

    def test_steady_only_system_has_no_transient_factorization(self):
        graph, flow = minimal_loop()
        system = assemble(graph, flow, control_volumes(graph),
                          PhysicalConstants(), dt_s=None)
        assert system.B_diag is None
        y = solve_steady(system, [90.0], [20.0], 10.0)
        assert np.all(np.isfinite(y))
        for _ in range(2):  # a failed access is not cached
            with pytest.raises(SolverError, match="without a time step"):
                system.lu_transient


class TestAdvectionOperator:
    def test_row_sums_vanish(self):
        graph, flow = desk_network()
        g = _advection_matrix(graph, flow)
        np.testing.assert_allclose(np.asarray(g.sum(axis=1)).ravel(), 0.0,
                                   atol=1e-12)

    def test_flow_reversal_transposes_offdiagonal_pattern(self):
        graph, flow = desk_network()
        fwd = _advection_matrix(graph, flow).toarray()
        rev = _advection_matrix(graph, -flow).toarray()
        off_f = fwd - np.diag(np.diag(fwd))
        off_r = rev - np.diag(np.diag(rev))
        np.testing.assert_allclose(off_r, off_f.T, atol=1e-12)


class TestHelpers:
    def test_demand_to_delta_oracle(self):
        assert demand_to_delta(125580.0, 1.0, CP) == pytest.approx(30.0)
        assert demand_to_delta(0.0, 1.0, CP) == 0.0
        assert demand_to_delta(50e3, 0.5, CP) == pytest.approx(
            2.0 * demand_to_delta(50e3, 1.0, CP))
        with pytest.raises(ValidationError):
            demand_to_delta(-1.0, 1.0, CP)

    def test_stored_energy(self):
        graph, _ = minimal_loop()
        vol = control_volumes(graph)
        constants = PhysicalConstants()
        y_ref = np.full(graph.n_nodes, 55.0)
        assert stored_energy(y_ref, vol, constants, 55.0) == 0.0
        # +1 °C uniformly: rho*cp joules per m^3 of water
        e = stored_energy(y_ref + 1.0, vol, constants, 55.0)
        total = vol.sum()
        assert e == pytest.approx(RHO * CP * total, rel=1e-12)
        assert e / total == pytest.approx(4.186e6, rel=1e-12)

    def test_boundary_spec_requires_dedicated_return(self):
        # consumer head also fed by the return trunk: rejected
        from dhnopt.network import NetworkGraph
        nodes = ["SP", "S1", "S2", "RC", "RP"]
        sides = ["supply", "supply", "supply", "return", "return"]
        edges = [("t1", "SP", "S1", "supply"),
                 ("t2", "S1", "S2", "supply"),
                 ("c1", "S1", "RC", "consumer"),
                 ("c2", "S2", "RC", "consumer"),
                 ("back", "RC", "RP", "return"),
                 ("prod", "RP", "SP", "producer")]
        with pytest.raises(ValidationError, match="share a return node"):
            graph = NetworkGraph(
                nodes, sides, [[0.0, 0.0]] * 5,
                [e[0] for e in edges], [e[3] for e in edges],
                [nodes.index(e[1]) for e in edges],
                [nodes.index(e[2]) for e in edges],
                [10.0] * 6, [0.05] * 6, [0.0] * 6)
            graph.boundary

    def test_time_grid_validation(self):
        with pytest.raises(ValidationError):
            TimeGrid(dt_s=0.0, n_steps=10)
        with pytest.raises(ValidationError):
            TimeGrid(dt_s=900.0, n_steps=0)
        grid = TimeGrid(dt_s=900.0, n_steps=288)
        assert grid.times()[0] == 0.0 and grid.times()[-1] == 259200.0

    def test_ambient_series_shapes(self):
        constants = PhysicalConstants(ambient_c=10.0)
        np.testing.assert_array_equal(constants.ambient_series(3),
                                      np.full(4, 10.0))
        series = PhysicalConstants(ambient_c=np.arange(5.0))
        np.testing.assert_array_equal(series.ambient_series(4),
                                      np.arange(5.0))
        with pytest.raises(ValidationError):
            series.ambient_series(7)
