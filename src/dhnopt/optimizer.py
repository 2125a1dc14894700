"""Penalized objective on the condensed control map, and L-BFGS-B.

For fixed flows and step size the temperatures the objective reads
(plant supply and return, consumer supply and return) are affine in
the control, ``y = y_free + H * u`` with ``*`` a causal convolution in
time ("condensing", Bock & Plitt 1984). The scenario builds this map
once (:func:`dhnopt.thermal.condense`) from ``1 + n_plants`` runs of the
per-step sweep :func:`~dhnopt.thermal.simulate_system`, which remains
the oracle for these outputs and the full-state path of the CLI. Only
the plant return and consumer supply rows are convolved: the boundary
rows of the system matrix hold a plant supply node at its control and a
consumer return node at its supply temperature minus the drop
``delta``. So the return limit ``rmin`` is the supply limit
``rmin + delta``, and the objective has one constraint row per consumer
and step, its supply temperature against ``b = max(smin, rmin + delta)``
(``Scenario.supply_bound``). A value is the map's forward
(:meth:`~dhnopt.thermal.CondensedMap.convolve`), two matrix products
over the impulse's numerical support, one per row family. It reads the
loss from the plant rows and the constraint values from the consumer
supply rows, rounded as the public terms round them wherever ``b`` is
``smin``; the full outputs (:meth:`~dhnopt.thermal.CondensedMap.apply`)
are built once per round, for its report, which still shows the supply
and return violations apart. The exact gradient is the transpose, an
FFT correlation of the whole ``H`` with ``dJ/dy`` over the rows where
that is nonzero: the plant rows, which carry the injection cost, and the
consumer supply rows with a violated bound (the hinge has zero slope
where a bound holds), which is exact. A plant supply row is the
control, so the evaluator adds its cost rates to the transpose itself.

Minimization within the plant temperature box is scipy's L-BFGS-B
(Byrd, Lu, Nocedal & Zhu 1995), one value-and-gradient call per trial
point. ``OptimizerConfig.memory`` is its number of curvature pairs,
``max_inner_iterations`` its iteration cap, and ``gradient_tolerance``
the relative projected-gradient test a round must pass to count as
converged. State constraints are enforced by quadratic-penalty
continuation with a geometrically increasing weight.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import Bounds, minimize

from .errors import SolverError, ValidationError
from .objective import (constraint_violations, injection_cost_rates,
                        loss_energy, max_violation, objective_loss, penalty,
                        project_control, tikhonov, tikhonov_gradient)
# simulate_system is not called here; perfbench's tracer wraps it under
# every module name
from .thermal import ObservedTrajectory, simulate_system  # noqa: F401

# scipy's defaults (20 trials, 2.2e-9) end the penalty rounds early: a
# 1-D hinge at weight 1e6 needs more than 20 trials, and the looser
# decrease test stops rounds before the violations fall monotonically
_MAXLS = 40
_FTOL = 1e-10


@dataclass(frozen=True)
class OptimizerConfig:
    """Inner L-BFGS-B and outer continuation settings.

    ``memory`` is the number of curvature pairs L-BFGS-B keeps and
    ``max_inner_iterations`` its iteration cap per round. A round
    converges once the projected-gradient infinity norm
    ``|clip(u - g, lo, hi) - u|`` is at most
    ``gradient_tolerance * (1 + |f|)``.
    """

    memory: int = 10
    max_inner_iterations: int = 200
    gradient_tolerance: float = 1e-6
    initial_penalty: float = 10.0
    penalty_factor: float = 10.0
    penalty_stop: float = 1e6

    def __post_init__(self):
        if self.memory < 1 or self.max_inner_iterations < 1:
            raise ValidationError("memory and iteration cap must be >= 1")
        if not (self.gradient_tolerance > 0 and self.initial_penalty > 0
                and self.penalty_stop > 0):
            raise ValidationError("tolerances and penalties must be > 0")
        if not self.penalty_factor > 1:
            raise ValidationError("continuation factor must be > 1")


class ObjectiveEvaluator:
    """Value and gradient of the penalized objective at a control.

    Both run on the scenario's condensed map (see the module docstring),
    built on the first request, and write into buffers the evaluator
    owns: the two plant rows the loss reads, and one constraint row per
    consumer, its supply bound minus its supply temperature. The map's
    control check raises :class:`~dhnopt.errors.SolverError` before a
    non-finite temperature can arise, so no output is scanned. The
    outputs are cached keyed on the control bytes, so the parts of a
    round's result, last evaluated by its line search, cost no second
    product, and a gradient at the cached control reads the violations
    its value wrote: every gradient follows a forward at the same
    control. Only :meth:`parts`, once per round, applies the full map and
    both constraint families.
    """

    def __init__(self, scenario, lambda_p):
        if not lambda_p > 0:
            raise ValidationError("penalty weight must be > 0")
        self.scenario = scenario
        self.lambda_p = float(lambda_p)
        self.bc = bc = scenario.system.bc
        # the violations at the cached control, rewritten on every cache
        # miss; a fresh array of this size per call costs page faults
        self._c = np.empty((bc.n_consumers, scenario.grid.n_steps))
        self._row_starts = np.arange(0, self._c.size, scenario.grid.n_steps)
        # the two plant blocks of the observed rows, all the loss reads
        n_p = bc.n_plants
        self._plants = ObservedTrajectory(
            np.concatenate((bc.plant_nodes, bc.plant_return_nodes)),
            np.zeros((2 * n_p, scenario.grid.n_steps)), scenario.grid,
            ((bc.plant_nodes, slice(0, n_p)),
             (bc.plant_return_nodes, slice(n_p, 2 * n_p))))
        # the convolved rows a gradient transforms, plant return then
        # violated consumer supply rows, and their output gradient
        self._live = np.arange(n_p + bc.n_consumers)
        self._dj_dy = np.empty((self._live.size, scenario.grid.n_steps))
        # static loss rates, the same at every control: the first gradient's
        self._rates = None
        self.n_evals = 0
        self.n_gradients = 0
        self._cache_key = None
        self._cache = None

    # -- forward ---------------------------------------------------------

    def _forward(self, u):
        s = self.scenario
        n_p, n_c = self.bc.n_plants, self.bc.n_consumers
        shape = (n_p, s.grid.n_steps)
        if u.shape != shape:
            raise ValidationError(f"control must have shape {shape}, got {u.shape}")
        key = u.tobytes()
        if key == self._cache_key:
            return self._cache
        y_free = s.condensed.y_free
        h_u = s.condensed.convolve(u)
        # a plant supply row is the control, a plant return row its free
        # response plus H * u
        plants, y = self._plants, self._plants.values_c
        y[:n_p] = u
        np.add(y_free[n_p:2 * n_p], h_u[:n_p], out=y[n_p:])
        loss = loss_energy(plants, s.graph, s.flow, s.price,
                           s.constants.cp_j_per_kg_c)
        loss_working = objective_loss(loss, s.price)
        reg = tikhonov(u, s.grid)
        # each consumer's supply temperature, then its bound minus it:
        # where the bound is smin, the two roundings constraint_violations
        # makes on apply(u)
        c = self._c
        np.add(y_free[2 * n_p:2 * n_p + n_c], h_u[n_p:], out=c)
        np.subtract(s.supply_bound, c, out=c)
        # the rows with a violation (NaN counts), by one reduction over
        # the flat scratch: a row-wise max pays a per-row overhead that
        # is most of its cost. A row without one adds no entry to the
        # penalty, so the penalty of these rows has every bit of the
        # penalty of all rows; copying them out pays while they are
        # fewer than half. The gradient reads the same rows.
        row_max = np.maximum.reduceat(c.ravel(), self._row_starts)
        violated = np.flatnonzero(~(row_max <= 0.0))
        pen = penalty(c[violated] if 2 * violated.size < len(c) else c,
                      self.lambda_p)
        value = loss_working + s.tikhonov_weight * reg + pen
        self._cache_key = key
        self._cache = {"violated": violated, "loss": loss,
                       "tikhonov": reg, "penalty": pen, "value": value}
        self.n_evals += 1
        return self._cache

    def value(self, u):
        u = np.ascontiguousarray(u, dtype=float)
        return self._forward(u)["value"]

    def parts(self, u):
        """Dict with outputs, loss, regularizer, penalty, violations, value.

        ``outputs`` holds every observed row and ``violations`` is
        :func:`~dhnopt.objective.constraint_violations` on them: the
        supply and the return rows, each against its own limit.
        """
        u = np.ascontiguousarray(u, dtype=float)
        fwd = self._forward(u)
        s = self.scenario
        outputs = s.condensed.apply(u)
        return {"outputs": outputs, "loss": fwd["loss"],
                "tikhonov": fwd["tikhonov"], "penalty": fwd["penalty"],
                "violations": constraint_violations(outputs, s.graph,
                                                    s.constraints),
                "value": fwd["value"]}

    # -- gradient --------------------------------------------------------

    def value_and_gradient(self, u):
        u = np.ascontiguousarray(u, dtype=float)
        fwd = self._forward(u)
        s = self.scenario
        rates = self._rates
        if rates is None:
            rates, _ = injection_cost_rates(self._plants, s.graph, s.flow,
                                            s.price, s.constants.cp_j_per_kg_c,
                                            working=True)
            if s.price.static:
                self._rates = rates
        # d/dy of lambda/2 * max(0, bound - y)^2 is -lambda * hinge, zero
        # on every row whose bound holds, so the map gets the plant return
        # rows and the violated consumer supply rows only
        n_p = self.bc.n_plants
        c, violated = self._c, fwd["violated"]
        live = self._live[:n_p + violated.size]
        np.add(violated, n_p, out=live[n_p:])
        dj_dy = self._dj_dy[:live.size]
        np.negative(rates, out=dj_dy[:n_p])
        hinge = dj_dy[n_p:]
        np.maximum(0.0, c[violated], out=hinge)
        hinge *= -self.lambda_p
        # a plant supply row is the control: its rates pass through
        grad = s.condensed.apply_transpose(dj_dy, live) + rates
        grad += s.tikhonov_weight * tikhonov_gradient(u, s.grid)
        if not np.all(np.isfinite(grad)):
            raise SolverError("condensed map produced a non-finite gradient")
        self.n_gradients += 1
        return fwd["value"], grad


# ---------------------------------------------------------------------------
# L-BFGS-B
# ---------------------------------------------------------------------------

@dataclass
class LbfgsResult:
    u: np.ndarray
    f: float
    g: np.ndarray
    iterations: int
    converged: bool
    line_search_failed: bool
    trace: list = field(default_factory=list)


def _pg_norm(x, g, lo, hi):
    """Infinity norm of the projected-gradient step ``clip(x - g) - x``.

    Zero exactly at a box-constrained stationary point: a component
    pushing against an active bound is cut off by the clip.
    """
    return float(np.max(np.abs(np.clip(x - g, lo, hi) - x)))


def lbfgs_minimize(fg, u0, bounds, config=None):
    """Minimize within a box with L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995).

    Parameters
    ----------
    fg : callable
        Returns ``(value, gradient)`` at a control array.
    u0 : ndarray
        Start point; projected into the box first.
    bounds : tuple
        ``(lo, hi)`` scalars or arrays broadcastable to the control.
    config : OptimizerConfig
        ``memory`` is the number of curvature pairs kept (``maxcor``),
        ``max_inner_iterations`` the iteration cap (``maxiter``).

    One call to scipy's L-BFGS-B. Converged means the projected-gradient
    infinity norm ``|clip(u - g, lo, hi) - u|`` fell to
    ``gradient_tolerance * (1 + |f|)`` at an accepted iterate; the run
    also stops on the iteration cap, on a relative decrease of ``f``
    below ``1e-10`` in one iteration (a stall), or on a failed line
    search, which returns the last accepted iterate with a flag instead
    of raising. ``trace`` holds one ``{"iteration", "f", "pg_norm"}``
    record per iteration.
    """
    if config is None:
        config = OptimizerConfig()
    x0 = project_control(np.asarray(u0, dtype=float), bounds)
    shape = x0.shape
    lo, hi = (np.broadcast_to(b, shape).ravel() for b in bounds)
    tol = config.gradient_tolerance
    latest = {}
    accepted = {}
    trace = []

    def fun(x):
        f, g = fg(x.reshape(shape))
        f, latest["g"] = float(f), np.ravel(g)
        accepted.setdefault("f", f)  # the start point
        return f, latest["g"]

    def callback(intermediate_result):
        # called at each accepted iterate, right after the line search
        # evaluated it, so ``latest`` holds its gradient
        x, f = intermediate_result.x, float(intermediate_result.fun)
        accepted["f"] = f
        pg = _pg_norm(x, latest["g"], lo, hi)
        trace.append({"iteration": len(trace) + 1, "f": f, "pg_norm": pg})
        if pg <= tol * (1.0 + abs(f)):
            raise StopIteration

    res = minimize(fun, x0.ravel(), jac=True, method="L-BFGS-B",
                   bounds=Bounds(lo, hi), callback=callback,
                   options={"maxcor": config.memory,
                            "maxiter": config.max_inner_iterations,
                            "gtol": 0.0, "ftol": _FTOL, "maxls": _MAXLS})
    # a failed line search restores x and g but not f, so the value is
    # the one recorded at the last accepted iterate
    f = accepted["f"]
    return LbfgsResult(
        u=res.x.reshape(shape), f=f, g=res.jac.reshape(shape),
        iterations=res.nit,
        converged=_pg_norm(res.x, res.jac, lo, hi) <= tol * (1.0 + abs(f)),
        line_search_failed=res.status == 2, trace=trace)


# ---------------------------------------------------------------------------
# penalty continuation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RoundStats:
    """Summary of one outer continuation round."""

    lambda_p: float
    inner_iterations: int
    objective: float
    true_loss: float
    max_violation_c: float
    grad_norm: float
    converged: bool
    n_evals: int
    n_gradients: int


@dataclass
class OptimizationReport:
    rounds: list
    final_control: np.ndarray
    final_max_violation_c: float
    wall_time_s: float
    aborted: bool = False
    abort_reason: str = ""


def optimize(scenario, u0=None, config=None):
    """Penalty-continuation loop around L-BFGS-B.

    Each round minimizes the objective at the current penalty weight,
    warm-starts the next round from its result, and multiplies the
    weight by the continuation factor; the loop stops after the first
    round whose weight exceeds the stop threshold. A round that raises
    the unpenalized loss while the violations grow indicates a diverged
    continuation; the report is flagged and returned with the best
    control found so far.
    """
    if config is None:
        config = OptimizerConfig()
    bounds = scenario.constraints.control_bounds
    n_p = scenario.system.bc.n_plants
    if u0 is None:
        u0 = np.tile(scenario.u_init[:, None], (1, scenario.grid.n_steps))
    u = project_control(np.asarray(u0, dtype=float), bounds)
    if u.shape != (n_p, scenario.grid.n_steps):
        raise ValidationError(
            f"control must have shape ({n_p}, {scenario.grid.n_steps}), got {u.shape}"
        )

    start = time.perf_counter()
    rounds = []
    aborted = False
    reason = ""
    lam = config.initial_penalty
    prev = None
    while True:
        ev = ObjectiveEvaluator(scenario, lam)
        res = lbfgs_minimize(ev.value_and_gradient, u, bounds, config)
        parts = ev.parts(res.u)
        viol = max_violation(parts["violations"])
        rounds.append(RoundStats(
            lambda_p=lam,
            inner_iterations=res.iterations,
            objective=res.f,
            true_loss=parts["loss"],
            max_violation_c=viol,
            grad_norm=float(np.max(np.abs(res.g))),
            converged=res.converged,
            n_evals=ev.n_evals,
            n_gradients=ev.n_gradients,
        ))
        if prev is not None:
            loss_up = parts["loss"] > prev.true_loss * (1 + 1e-12) + 1e-9
            viol_up = viol > prev.max_violation_c + 1e-9
            if loss_up and viol_up:
                aborted = True
                reason = (
                    f"round at lambda_p={lam:g} raised the loss "
                    f"({prev.true_loss:.6e} -> {parts['loss']:.6e}) while the "
                    f"max violation grew ({prev.max_violation_c:.3e} -> {viol:.3e} °C)"
                )
                break
        u = res.u
        prev = rounds[-1]
        if lam > config.penalty_stop:
            break
        lam *= config.penalty_factor

    report = OptimizationReport(
        rounds=rounds,
        final_control=u,
        final_max_violation_c=(prev if aborted else rounds[-1]).max_violation_c,
        wall_time_s=time.perf_counter() - start,
        aborted=aborted,
        abort_reason=reason,
    )
    return u, report
