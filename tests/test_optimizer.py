import numpy as np
import pytest

from conftest import make_loop_scenario
from dhnopt import optimizer as optimizer_module
from dhnopt import scenario as scenario_module
from dhnopt.errors import ValidationError
from dhnopt.fixtures import desk_scenario, feeder_scenario
from dhnopt.objective import J_PER_MWH
from dhnopt.network import BoundarySpec
from dhnopt.optimizer import (LbfgsResult, ObjectiveEvaluator,
                              OptimizerConfig, lbfgs_minimize, optimize)

CP = 4186.0


def _fd_check(scenario, u, lambda_p, coords, h=1e-3, seed=0):
    ev = ObjectiveEvaluator(scenario, lambda_p)
    _, grad = ev.value_and_gradient(u)
    worst = 0.0
    for i, j in coords:
        up, um = u.copy(), u.copy()
        up[i, j] += h
        um[i, j] -= h
        fd = (ev.value(up) - ev.value(um)) / (2.0 * h)
        err = abs(grad[i, j] - fd) / max(abs(fd), abs(grad[i, j]), 1e-12)
        worst = max(worst, err)
    return worst


class TestGradient:
    def test_matches_finite_differences_static(self):
        scenario = make_loop_scenario(n_steps=48, swing=0.3)
        rng = np.random.default_rng(1)
        u = 95.0 + 15.0 * rng.random((1, 48))
        coords = [(0, int(j)) for j in rng.integers(0, 48, size=10)]
        assert _fd_check(scenario, u, 100.0, coords) < 1e-5

    def test_matches_finite_differences_dynamic_price(self):
        from dhnopt.fixtures import two_level_price
        scenario = make_loop_scenario(n_steps=48, swing=0.3,
                                      prices=two_level_price(n_days=1))
        rng = np.random.default_rng(2)
        u = 95.0 + 15.0 * rng.random((1, 48))
        coords = [(0, int(j)) for j in rng.integers(0, 48, size=10)]
        assert _fd_check(scenario, u, 100.0, coords) < 1e-5

    def test_constant_in_time_for_time_invariant_steady_scenario(self):
        scenario = make_loop_scenario(n_steps=96, swing=0.0,
                                      tikhonov_weight=0.0)
        u = np.full((1, 96), 105.0)  # equals the initial steady state
        g = ObjectiveEvaluator(scenario, 10.0).value_and_gradient(u)[1]
        interior = g[0, 5:-20]
        assert np.ptp(interior) <= 1e-6 * max(abs(interior).max(), 1e-12)

    def test_lossless_zero_demand_gradient_vanishes(self):
        scenario = make_loop_scenario(n_steps=64, demand_w=0.0,
                                      htc_w_per_m_c=0.0,
                                      tikhonov_weight=0.0)
        u = np.full((1, 64), 105.0)
        g = ObjectiveEvaluator(scenario, 10.0).value_and_gradient(u)[1]
        # marginal heat is returned in full, so mid-horizon controls are
        # free; only coordinates near the horizon end keep a pull
        scale = CP * 0.5 * 900.0 / J_PER_MWH
        assert np.max(np.abs(g[0, :-10])) < 1e-3 * scale

    @pytest.mark.parametrize("build", [
        lambda: feeder_scenario(n_feeders=1, consumers_per_feeder=9),
        lambda: desk_scenario(),
    ], ids=["hundred-node", "desk"])
    def test_matches_finite_differences_partly_violated(self, build):
        # the map transforms the violated consumer rows only: a control
        # that violates some consumers but not all mixes both kinds
        scenario = build()
        n_c = scenario.system.bc.n_consumers
        rng = np.random.default_rng(17)
        u = 82.0 + 5.0 * rng.random((1, scenario.grid.n_steps))
        c = ObjectiveEvaluator(scenario, 100.0).parts(u)["violations"]
        violated = int(np.count_nonzero(c.max(axis=1) > 0.0))
        assert 0 < violated < n_c
        coords = [(0, int(j)) for j in rng.integers(0, scenario.grid.n_steps,
                                                    size=20)]
        assert _fd_check(scenario, u, 100.0, coords) < 1e-5


class TestEvaluatorCalls:
    def test_price_curve_read_once(self, monkeypatch):
        calls = []
        read = scenario_module.interpolate

        def counting(*args):
            calls.append(args[-1])
            return read(*args)
        monkeypatch.setattr(scenario_module, "interpolate", counting)
        scenario = desk_scenario(static=False)
        assert calls.count("price curve") == 1
        built = len(calls)
        ev = ObjectiveEvaluator(scenario, 100.0)
        rng = np.random.default_rng(3)
        for _ in range(50):
            ev.value_and_gradient(rng.uniform(95.0, 110.0,
                                              (1, scenario.grid.n_steps)))
        assert len(calls) == built

    def test_no_boundary_derivation_after_the_first_call(self, monkeypatch):
        scenario = make_loop_scenario(n_steps=24, swing=0.3)
        ev = ObjectiveEvaluator(scenario, 100.0)
        ev.value_and_gradient(np.full((1, 24), 100.0))
        calls = []
        derive = BoundarySpec.from_graph

        def counting(graph):
            calls.append(graph)
            return derive(graph)
        monkeypatch.setattr(BoundarySpec, "from_graph", staticmethod(counting))
        for c in (101.0, 102.0, 103.0):
            ev.value(np.full((1, 24), c))
            ev.value_and_gradient(np.full((1, 24), c + 0.5))
        ObjectiveEvaluator(scenario, 10.0).parts(np.full((1, 24), 99.0))
        assert calls == []


class TestLbfgs:
    def test_quadratic_bowl(self):
        c = np.array([1.0, -2.0, 3.5, 0.0, 7.0])

        def fg(u):
            d = u - c
            return float(d @ d), 2.0 * d

        res = lbfgs_minimize(fg, np.zeros(5), (-np.inf, np.inf))
        assert res.converged
        assert res.iterations <= 30
        assert np.max(np.abs(res.u - c)) < 1e-8

    def test_penalty_stationary_point(self):
        lam = 1e6

        def fg(u):
            hinge = max(0.0, 1.0 - u[0])
            f = u[0] ** 2 + 0.5 * lam * hinge**2
            g = 2.0 * u[0] - lam * hinge
            return f, np.array([g])

        res = lbfgs_minimize(fg, np.array([0.5]), (-np.inf, np.inf))
        assert res.u[0] == pytest.approx(lam / (2.0 + lam), abs=1e-7)

    def test_active_upper_bound(self):
        def fg(u):
            d = u - 150.0
            return float(d @ d), 2.0 * d

        res = lbfgs_minimize(fg, np.array([100.0]), (30.0, 140.0))
        assert res.converged
        assert res.u[0] == pytest.approx(140.0, abs=1e-12)

    def test_line_search_failure_returns_best_with_flag(self):
        def fg(u):
            return 0.0, np.ones_like(u)  # flat value, phantom slope

        res = lbfgs_minimize(fg, np.zeros(3), (-np.inf, np.inf))
        assert res.line_search_failed
        assert not res.converged
        np.testing.assert_array_equal(res.u, np.zeros(3))

    def test_line_search_failure_keeps_the_accepted_value(self):
        def fg(u):
            # the value rises along the phantom slope, so every trial
            # point is rejected and differs from the start's value
            return float(np.sum(u)), -np.ones_like(u)

        res = lbfgs_minimize(fg, np.zeros(3), (-np.inf, np.inf))
        assert res.line_search_failed
        np.testing.assert_array_equal(res.u, np.zeros(3))
        assert res.f == fg(res.u)[0]

    def test_objective_non_increasing_over_accepted_iterates(self):
        scenario = make_loop_scenario(n_steps=48, swing=0.3)
        ev = ObjectiveEvaluator(scenario, 100.0)
        res = lbfgs_minimize(ev.value_and_gradient,
                             np.full((1, 48), 110.0),
                             scenario.constraints.control_bounds,
                             OptimizerConfig(max_inner_iterations=60))
        fs = [t["f"] for t in res.trace]
        assert all(b <= a + 1e-12 for a, b in zip(fs, fs[1:]))

    @staticmethod
    def _outcomes(res, config):
        capped = (not res.converged and not res.line_search_failed
                  and res.iterations == config.max_inner_iterations)
        return [res.converged, res.line_search_failed, capped]

    def test_stop_outcomes_are_exclusive(self):
        c = np.array([1.0, -2.0, 3.5])

        def bowl(u):
            d = u - c
            return float(d @ d), 2.0 * d

        def flat_slope(u):
            return 0.0, np.ones_like(u)

        def rosenbrock(u):
            a, b = u
            f = (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2
            g = np.array([-2.0 * (1.0 - a) - 400.0 * a * (b - a * a),
                          200.0 * (b - a * a)])
            return f, g

        capped = OptimizerConfig(max_inner_iterations=3)
        cases = [(bowl, np.zeros(3), OptimizerConfig(), 0),
                 (flat_slope, np.zeros(3), OptimizerConfig(), 1),
                 (rosenbrock, np.array([-1.2, 1.0]), capped, 2)]
        for fg, u0, config, expected in cases:
            res = lbfgs_minimize(fg, u0, (-np.inf, np.inf), config)
            outcomes = self._outcomes(res, config)
            assert sum(outcomes) == 1
            assert outcomes[expected]

    def test_trace_has_one_record_per_iteration(self):
        scenario = make_loop_scenario(n_steps=24, swing=0.3)
        ev = ObjectiveEvaluator(scenario, 100.0)
        config = OptimizerConfig(max_inner_iterations=25)
        res = lbfgs_minimize(ev.value_and_gradient, np.full((1, 24), 110.0),
                             scenario.constraints.control_bounds, config)
        assert len(res.trace) == res.iterations > 0
        assert [t["iteration"] for t in res.trace] == \
            list(range(1, res.iterations + 1))
        assert res.trace[-1]["f"] == res.f

    def test_converged_result_meets_the_gradient_test(self):
        c = np.array([1.0, -2.0, 3.5, 0.0, 7.0])

        def fg(u):
            d = u - c
            return float(d @ d), 2.0 * d

        config = OptimizerConfig(gradient_tolerance=1e-6)
        for bounds in ((-np.inf, np.inf), (0.0, 5.0)):
            res = lbfgs_minimize(fg, np.full(5, 2.0), bounds, config)
            assert res.converged
            tol = config.gradient_tolerance * (1.0 + abs(res.f))
            assert res.trace[-1]["pg_norm"] <= tol
            lo, hi = bounds
            step = np.clip(res.u - res.g, lo, hi) - res.u
            assert np.max(np.abs(step)) <= tol

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            OptimizerConfig(memory=0)
        with pytest.raises(ValidationError):
            OptimizerConfig(penalty_factor=1.0)


class TestOptimize:
    def test_continuation_schedule(self):
        scenario = make_loop_scenario(n_steps=16)
        _, report = optimize(scenario)
        lams = [r.lambda_p for r in report.rounds]
        assert lams == [10.0, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7]
        assert lams == sorted(lams)

    def test_violations_decay_and_end_small(self):
        scenario = make_loop_scenario(n_steps=48, swing=0.3)
        u0 = np.full((1, 48), 110.0)
        u, report = optimize(scenario, u0)
        viols = [r.max_violation_c for r in report.rounds]
        # once the iterates reach the constraint wall the violations
        # decay with the growing penalty weight
        positive = [v for v in viols if v > 0]
        assert viols[-1] <= 1e-6
        assert viols[-1] <= positive[0]
        assert max(viols) < 0.01
        assert report.final_max_violation_c < 0.1
        assert not report.aborted

    def test_feasible_optimum_is_kept(self):
        # lossless network with constant demand: holding the consumer
        # bound with equality is optimal, the optimizer must stay put
        scenario = make_loop_scenario(n_steps=48, demand_w=0.0,
                                      htc_w_per_m_c=0.0,
                                      initial_control_c=80.0)
        u0 = np.full((1, 48), 80.0)
        u, report = optimize(scenario, u0)
        assert np.max(np.abs(u - 80.0)) < 0.05
        viols = [r.max_violation_c for r in report.rounds]
        assert all(b <= a + 1e-9 for a, b in zip(viols, viols[1:]))
        assert report.final_max_violation_c <= 1e-8

    def test_a_diverged_round_aborts_with_the_last_kept_control(
            self, monkeypatch):
        scenario = make_loop_scenario(n_steps=48, swing=0.3)
        kept = []

        def diverging(fg, u0, bounds, config=None):
            if kept:
                # round 2: hotter for the first half (more loss), far
                # below the supply limit for the last quarter (a larger
                # violation)
                u = kept[0].u.copy()
                u[:, :24] = 140.0
                u[:, 36:] = 60.0
                f, g = fg(u)
                return LbfgsResult(u=u, f=f, g=g, iterations=1,
                                   converged=False, line_search_failed=False)
            kept.append(lbfgs_minimize(fg, u0, bounds, config))
            return kept[0]

        monkeypatch.setattr(optimizer_module, "lbfgs_minimize", diverging)
        u, report = optimize(scenario, np.full((1, 48), 110.0))
        first, second = report.rounds
        assert report.aborted
        assert "lambda_p=100 " in report.abort_reason
        assert second.true_loss > first.true_loss
        assert second.max_violation_c > first.max_violation_c
        assert report.final_max_violation_c == first.max_violation_c
        assert np.array_equal(u, kept[0].u)

    def test_determinism(self):
        scenario = make_loop_scenario(n_steps=24, swing=0.3)
        u0 = np.full((1, 24), 108.0)
        u1, rep1 = optimize(scenario, u0)
        u2, rep2 = optimize(scenario, u0)
        np.testing.assert_array_equal(u1, u2)
        assert [r.objective for r in rep1.rounds] == \
            [r.objective for r in rep2.rounds]

    def test_default_start_uses_initial_control(self):
        scenario = make_loop_scenario(n_steps=16, initial_control_c=112.0)
        u, report = optimize(scenario)
        assert u.shape == (1, 16)
        assert not report.aborted

    @pytest.mark.parametrize("shape", [(), (1, 23), (2, 24), (24,), (1, 0)])
    def test_start_of_the_wrong_shape_is_rejected(self, shape):
        scenario = make_loop_scenario(n_steps=24)
        with pytest.raises(ValidationError) as exc:
            optimize(scenario, np.full(shape, 100.0))
        assert str(exc.value) == (
            f"control must have shape (1, 24), got {shape}")
