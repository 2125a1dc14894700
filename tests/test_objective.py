import numpy as np
import pytest

from conftest import make_loop_scenario
from dhnopt.errors import ValidationError
from dhnopt.fixtures import minimal_loop
from dhnopt.objective import (ConstraintSet, J_PER_MWH, PriceModel,
                              constraint_violations, loss_energy,
                              loss_energy_steps, max_violation,
                              objective_loss, penalty, project_control,
                              tikhonov, tikhonov_gradient)
from dhnopt.optimizer import ObjectiveEvaluator
from dhnopt.scenario import PriceSeries
from dhnopt.thermal import StateTrajectory, TimeGrid, simulate

CP = 4186.0


def _loop_traj(plant_c, plant_return_c, consumer_supply_c=90.0,
               consumer_return_c=60.0, n_steps=4, dt_s=900.0):
    """Hand-built trajectory on the four-node loop (SP, SC, RC, RP)."""
    graph, flow = minimal_loop(mdot_kg_s=1.0)
    grid = TimeGrid(dt_s=dt_s, n_steps=n_steps)
    y = np.empty((4, n_steps + 1))
    y[0] = plant_c
    y[1] = consumer_supply_c
    y[2] = consumer_return_c
    y[3] = plant_return_c
    return graph, flow, StateTrajectory(values_c=y, grid=grid)


class TestLossEnergy:
    def test_hand_integrated_value(self):
        # cp * mdot * dT * time = 4186 * 1 * 40 * 3600 J = 602.784 MJ
        graph, flow, traj = _loop_traj(80.0, 40.0)
        loss = loss_energy(traj, graph, flow, PriceModel())
        assert loss == pytest.approx(602.784e6, rel=1e-12)
        assert loss / 3.6e6 == pytest.approx(167.44, rel=1e-12)  # kWh

    def test_zero_when_supply_equals_return(self):
        graph, flow, traj = _loop_traj(60.0, 60.0)
        assert loss_energy(traj, graph, flow, PriceModel()) == 0.0

    def test_rectangle_rule_step_consistency(self):
        g1, f1, coarse = _loop_traj(80.0, 40.0, n_steps=2, dt_s=1800.0)
        g2, f2, fine = _loop_traj(80.0, 40.0, n_steps=4, dt_s=900.0)
        price = PriceModel()
        assert loss_energy(coarse, g1, f1, price) == pytest.approx(
            loss_energy(fine, g2, f2, price), rel=1e-14)

    def test_static_loss_invariant_under_time_shift(self):
        graph, flow, traj = _loop_traj(80.0, 40.0, n_steps=8)
        traj.values_c[0, 1:] = 80.0 + np.arange(8)
        rolled = StateTrajectory(
            values_c=np.concatenate(
                [traj.values_c[:, :1], np.roll(traj.values_c[:, 1:], 3, axis=1)],
                axis=1),
            grid=traj.grid)
        price = PriceModel()
        assert loss_energy(rolled, graph, flow, price) == pytest.approx(
            loss_energy(traj, graph, flow, price), rel=1e-14)

    def test_dynamic_loss_is_in_euros(self):
        graph, flow, traj = _loop_traj(80.0, 40.0)  # one hour, 167.44 kWh
        price = PriceModel(step_prices=np.full(4, 50.0))
        loss = loss_energy(traj, graph, flow, price)
        assert loss == pytest.approx(0.16744 * 50.0, rel=1e-12)


class TestPriceWeight:
    """Per-step price weights, read off ``loss_energy_steps``.

    The curve is read onto the loop trajectory's grid (four 900 s steps)
    as a scenario reads it. A weight ``w`` gives a step loss of
    ``cp * 900 * (y_supply - y_return) * w``; step index 1 ends at
    t = 1800 s, where the curve below costs 15 EUR/MWh.
    """

    CURVE = PriceSeries([0.0, 3600.0], [10.0, 20.0])
    GRID = TimeGrid(dt_s=900.0, n_steps=4)

    def _dynamic(self, alpha=1.0, beta=0.0, curve=CURVE):
        return PriceModel(alpha=alpha, beta=beta,
                          step_prices=curve.on_grid(self.GRID))

    @staticmethod
    def _weight_at_1800(plant_c, plant_return_c, model):
        graph, flow, traj = _loop_traj(plant_c, plant_return_c)
        steps = loss_energy_steps(traj, graph, flow, model)
        return steps[1] / (CP * 900.0 * (plant_c - plant_return_c))

    def test_static_is_one(self):
        model = PriceModel(alpha=3.0)
        assert self._weight_at_1800(90.0, 50.0, model) == 1.0

    def test_generation_case(self):
        model = self._dynamic(alpha=2.0, beta=0.5)
        assert self._weight_at_1800(90.0, 50.0, model) * J_PER_MWH == \
            pytest.approx(30.0)

    def test_recovery_case_and_free_recovery(self):
        model = self._dynamic(alpha=2.0, beta=0.5)
        assert self._weight_at_1800(50.0, 90.0, model) * J_PER_MWH == \
            pytest.approx(7.5)
        free = self._dynamic(beta=0.0)
        assert self._weight_at_1800(50.0, 90.0, free) == 0.0

    def test_curve_must_cover_query(self):
        with pytest.raises(ValidationError, match="covers"):
            self.CURVE.on_grid(TimeGrid(dt_s=900.0, n_steps=8))

    def test_step_count_must_match_the_trajectory(self):
        graph, flow, traj = _loop_traj(90.0, 50.0)  # four steps
        model = PriceModel(step_prices=self.CURVE.on_grid(
            TimeGrid(dt_s=1200.0, n_steps=3)))
        with pytest.raises(ValidationError,
                           match="3 step prices for a trajectory of 4 steps"):
            loss_energy(traj, graph, flow, model)

    def test_recovery_may_not_outweigh_generation(self):
        # beta > alpha makes the cost concave in the lift: rejected;
        # beta == alpha and negative prices stay accepted
        with pytest.raises(ValidationError, match="beta"):
            self._dynamic(alpha=1.0, beta=2.0)
        self._dynamic(alpha=1.0, beta=1.0)
        self._dynamic(curve=PriceSeries([0.0, 3600.0], [-10.0, 20.0]))

    def test_static_model_reads_no_factors(self):
        # a static model weighs every step by 1 and never reads alpha
        # or beta, so it does not check them either
        for model in (PriceModel(alpha=1.0, beta=1.5), PriceModel(alpha=0.0)):
            assert self._weight_at_1800(90.0, 50.0, model) == 1.0
            assert self._weight_at_1800(50.0, 90.0, model) == 1.0


class TestTikhonov:
    GRID = TimeGrid(dt_s=900.0, n_steps=3)

    def test_constant_control_is_zero(self):
        assert tikhonov(np.full((2, 3), 95.0), self.GRID) == 0.0

    def test_single_jump(self):
        u = np.array([[90.0, 93.0, 93.0]])
        assert tikhonov(u, self.GRID) == pytest.approx((3.0 / 900.0) ** 2)

    def test_quadratic_scaling_about_constant_shift(self):
        rng = np.random.default_rng(7)
        u = 90.0 + rng.random((1, 16))
        grid = TimeGrid(dt_s=900.0, n_steps=16)
        base = tikhonov(u, grid)
        scaled = tikhonov(50.0 + 3.0 * (u - 50.0), grid)
        assert scaled == pytest.approx(9.0 * base, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        u = 90.0 + rng.random((2, 12))
        grid = TimeGrid(dt_s=900.0, n_steps=12)
        g = tikhonov_gradient(u, grid)
        h = 1e-6
        for i, j in [(0, 0), (0, 5), (1, 11), (1, 6)]:
            up, um = u.copy(), u.copy()
            up[i, j] += h
            um[i, j] -= h
            fd = (tikhonov(up, grid) - tikhonov(um, grid)) / (2 * h)
            assert g[i, j] == pytest.approx(fd, rel=1e-6, abs=1e-12)

    @pytest.mark.parametrize("n_plants", [1, 2])
    def test_gradient_equals_the_two_sided_formula(self, n_plants):
        # the formula written out with its temporaries; the in-place
        # evaluation must give the same bits
        rng = np.random.default_rng(n_plants)
        u = 80.0 + 40.0 * rng.random((n_plants, 96))
        grid = TimeGrid(dt_s=900.0, n_steps=96)
        d = np.diff(u, axis=1) / grid.dt_s
        want = np.zeros_like(u)
        want[:, :-1] -= 2.0 * d / grid.dt_s
        want[:, 1:] += 2.0 * d / grid.dt_s
        np.testing.assert_array_equal(tikhonov_gradient(u, grid), want)

    def test_needs_two_steps(self):
        with pytest.raises(ValidationError):
            tikhonov(np.array([[90.0]]), TimeGrid(dt_s=900.0, n_steps=1))


class TestConstraints:
    def test_violation_signs(self):
        # supply 85 against 80: satisfied by 5; at the bound: 0
        c = constraint_violations(np.array([[85.0, 80.0]]), 80.0)
        np.testing.assert_array_equal(c, [[-5.0, 0.0]])

    def test_violation_magnitude(self):
        graph, flow, traj = _loop_traj(110.0, 40.0, consumer_supply_c=78.0,
                                       n_steps=1)
        supply = traj.rows(graph.boundary.consumer_supply_nodes)
        c = constraint_violations(supply, ConstraintSet().consumer_supply_min_c)
        assert c[0, 0] == pytest.approx(2.0)
        assert max_violation(c) == pytest.approx(2.0)

    def test_max_violation_propagates_nan_and_reads_0_when_empty(self):
        assert np.isnan(max_violation(np.array([[1.0, np.nan], [2.0, -1.0]])))
        assert np.isnan(max_violation(np.array([np.nan, -3.0])))
        assert max_violation(np.empty((0, 4))) == 0.0
        assert max_violation(np.array([])) == 0.0

    def test_max_violation_of_holding_constraints_is_plus_zero(self):
        for c in (np.array([-2.0, -1.0]), np.array([-0.0, -1.0]),
                  np.array([[0.0, -0.0]])):
            got = max_violation(c)
            assert got == 0.0 and np.copysign(1.0, got) == 1.0
        assert max_violation(np.array([-1.0, 2.5, 0.5])) == 2.5

    def test_bound_per_entry_and_into_out(self):
        supply = np.array([[85.0, 70.0], [60.0, 90.0]])
        bound = np.array([[80.0, 75.0], [80.0, 95.0]])
        out = np.empty_like(supply)
        assert constraint_violations(supply, bound, out=out) is out
        np.testing.assert_array_equal(out, [[-5.0, 5.0], [20.0, 5.0]])
        # in place
        constraint_violations(supply, bound, out=supply)
        np.testing.assert_array_equal(supply, out)

    def test_ordering_invariant(self):
        with pytest.raises(ValidationError):
            ConstraintSet(consumer_supply_min_c=20.0)


class TestPenalty:
    def test_feasible_is_zero(self):
        assert penalty(np.array([-1.0, 0.0, -5.0]), 100.0) == 0.0

    def test_hand_value(self):
        assert penalty(np.array([2.0]), 100.0) == pytest.approx(200.0)

    def test_scale_invariance(self):
        c = np.array([0.5, -1.0, 2.0])
        assert penalty(c, 10.0) / 10.0 == pytest.approx(
            penalty(c, 1e6) / 1e6, rel=1e-14)

    def test_requires_positive_weight(self):
        with pytest.raises(ValidationError):
            penalty(np.array([1.0]), 0.0)

    def test_matches_the_hinge_formula(self):
        rng = np.random.default_rng(2)
        for shape in [(260, 288), (3, 5), (0, 4)]:
            c = rng.normal(0.0, 2.0, shape)
            h = np.maximum(0.0, c)
            assert penalty(c, 7.0) == pytest.approx(
                0.5 * 7.0 * (h * h).sum(), rel=1e-13, abs=0.0)

    def test_nan_propagates(self):
        assert np.isnan(penalty(np.array([[-1.0, np.nan], [2.0, 0.0]]), 1.0))


class TestProjection:
    BOUNDS = (30.0, 140.0)

    def test_clamps_above(self):
        assert project_control(np.array([150.0]), self.BOUNDS)[0] == 140.0

    def test_identity_inside(self):
        u = np.array([31.0, 100.0, 139.9])
        np.testing.assert_array_equal(project_control(u, self.BOUNDS), u)

    def test_idempotent(self):
        u = np.array([-50.0, 100.0, 500.0])
        once = project_control(u, self.BOUNDS)
        np.testing.assert_array_equal(project_control(once, self.BOUNDS), once)


class TestTotalObjective:
    """Loss + regularizer + penalty, as ``ObjectiveEvaluator.parts``."""

    def test_feasible_static_reduces_to_loss_term(self):
        scenario = make_loop_scenario(n_steps=12, tikhonov_weight=0.0)
        u = np.full((1, 12), 105.0)
        parts = ObjectiveEvaluator(scenario, 100.0).parts(u)
        assert parts["penalty"] == 0.0
        traj = simulate(scenario.graph, scenario.flow, scenario, u)
        loss_j = loss_energy(traj, scenario.graph, scenario.flow,
                             scenario.price)
        assert parts["value"] == pytest.approx(
            objective_loss(loss_j, scenario.price), rel=1e-14)
        assert parts["value"] == pytest.approx(loss_j / J_PER_MWH, rel=1e-14)

    def test_monotone_in_penalty_weight_when_infeasible(self):
        scenario = make_loop_scenario(n_steps=12)
        u = np.full((1, 12), 70.0)  # consumer supply forced below 80
        values = [ObjectiveEvaluator(scenario, lam).parts(u)["value"]
                  for lam in (10.0, 1e3, 1e5)]
        assert values[0] < values[1] < values[2]


class TestObjectiveConfig:
    """The objective's weights: the scenario's and the evaluator's."""

    def test_bundles_validated_weights(self):
        scenario = make_loop_scenario(n_steps=12, tikhonov_weight=300.0)
        ev = ObjectiveEvaluator(scenario, 10.0)
        assert (scenario.tikhonov_weight, ev.lambda_p) == (300.0, 10.0)
        with pytest.raises(ValidationError):
            make_loop_scenario(n_steps=12, tikhonov_weight=-1.0)
        with pytest.raises(ValidationError):
            ObjectiveEvaluator(scenario, 0.0)
