"""Penalized objective on the condensed control map, and projected L-BFGS.

For fixed flows and step size the temperatures the objective reads
(plant supply and return, consumer supply and return) are affine in
the control, ``y = y_free + H * u`` with ``*`` a causal convolution in
time ("condensing", Bock & Plitt 1984). The scenario builds this map
once (:func:`dhnopt.thermal.condense`); a value is then one FFT
convolution with ``H``, and the exact gradient its transpose, one FFT
correlation of ``H`` with ``dJ/dy``. Both transform only the
``n_plants + n_consumers`` plant return and consumer supply rows: the
boundary rows of the system matrix hold a plant supply node at its
control and a consumer return node at its supply temperature minus the
drop, so those outputs need no transform. The per-step sweep
:func:`~dhnopt.thermal.simulate_system` remains the oracle for these
outputs and the full-state path of the CLI.

Minimization is a gradient-projection flavoured L-BFGS: trial points
are clamped into the control box, and the curvature memory is reset
whenever the active bound set changes. State constraints are enforced
by quadratic-penalty continuation with a geometrically increasing
weight.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError, ValidationError
from .objective import (constraint_violations, injection_cost_rates,
                        loss_energy, max_violation, objective_loss, penalty,
                        project_control, tikhonov, tikhonov_gradient)
# not called here; perfbench's tracer wraps it under every module name
from .thermal import simulate_system  # noqa: F401

_ARMIJO_C1 = 1e-4
_MAX_BACKTRACKS = 40
_CURVATURE_EPS = 1e-10
_BOUND_ATOL = 1e-12
_STALL_WINDOW = 15
_STALL_RTOL = 1e-10


@dataclass(frozen=True)
class OptimizerConfig:
    """Inner L-BFGS and outer continuation settings."""

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
    built on the first request: a value is one FFT convolution, a
    gradient one FFT correlation with the impulse response. The outputs
    are cached keyed on the control bytes, so a line search evaluating
    the value at a trial point pays nothing again when the gradient is
    requested at the accepted point.
    """

    def __init__(self, scenario, lambda_p):
        if not lambda_p > 0:
            raise ValidationError("penalty weight must be > 0")
        self.scenario = scenario
        self.lambda_p = float(lambda_p)
        self.bc = bc = scenario.system.bc
        # scratch for the violations and the output gradient; a second
        # fresh array of this size per call costs page faults
        self._dj_dy = np.empty((2 * (bc.n_plants + bc.n_consumers),
                                scenario.grid.n_steps))
        self.n_evals = 0
        self.n_gradients = 0
        self._cache_key = None
        self._cache = None

    # -- forward ---------------------------------------------------------

    def _forward(self, u):
        s = self.scenario
        shape = (self.bc.n_plants, s.grid.n_steps)
        if u.shape != shape:
            raise ValidationError(f"control must have shape {shape}, got {u.shape}")
        key = u.tobytes()
        if key == self._cache_key:
            return self._cache
        outputs = s.condensed.apply(u)
        loss = loss_energy(outputs, s.graph, s.flow, s.price,
                           s.constants.cp_j_per_kg_c)
        loss_working = objective_loss(loss, s.price)
        reg = tikhonov(u, s.grid)
        c = self._violations(outputs)
        pen = penalty(c, self.lambda_p)
        value = loss_working + s.tikhonov_weight * reg + pen
        self._cache_key = key
        self._cache = {"outputs": outputs, "loss": loss, "tikhonov": reg,
                       "penalty": pen, "value": value}
        self.n_evals += 1
        return self._cache

    def value(self, u):
        u = np.ascontiguousarray(u, dtype=float)
        return self._forward(u)["value"]

    def parts(self, u):
        """Dict with outputs, loss, regularizer, penalty, violations, value."""
        u = np.ascontiguousarray(u, dtype=float)
        parts = dict(self._forward(u))
        parts["violations"] = constraint_violations(
            parts["outputs"], self.scenario.graph, self.scenario.constraints)
        return parts

    def _violations(self, outputs):
        """Constraint values in the scratch rows below the plant rows."""
        s = self.scenario
        return constraint_violations(outputs, s.graph, s.constraints,
                                     out=self._dj_dy[2 * self.bc.n_plants:])

    # -- gradient --------------------------------------------------------

    def value_and_gradient(self, u):
        u = np.ascontiguousarray(u, dtype=float)
        fwd = self._forward(u)
        s = self.scenario
        outputs = fwd["outputs"]

        rates, _ = injection_cost_rates(outputs, s.graph, s.flow, s.price,
                                        s.constants.cp_j_per_kg_c,
                                        working=True)
        # d/dy of lambda/2 * max(0, bound - y)^2 is -lambda * hinge; rows
        # follow the map's order: plant supply, plant return, consumer
        # supply, consumer return (the order of the violation rows)
        n_p = self.bc.n_plants
        dj_dy = self._dj_dy
        dj_dy[:n_p] = rates
        np.negative(rates, out=dj_dy[n_p:2 * n_p])
        hinge = self._violations(outputs)
        np.maximum(0.0, hinge, out=hinge)
        hinge *= -self.lambda_p

        grad = s.condensed.apply_transpose(dj_dy)
        grad += s.tikhonov_weight * tikhonov_gradient(u, s.grid)
        if not np.all(np.isfinite(grad)):
            raise SolverError("condensed map produced a non-finite gradient")
        self.n_gradients += 1
        return fwd["value"], grad


# ---------------------------------------------------------------------------
# projected L-BFGS
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


def _projected_gradient(x, g, lo, hi):
    """Gradient with components pushing against an active bound zeroed.

    At the lower bound only a negative component can still decrease the
    objective, at the upper bound only a positive one; everywhere else
    the plain gradient applies. The infinity norm of this vector is the
    box-constrained stationarity measure.
    """
    pg = g.copy()
    at_lo = x <= lo + _BOUND_ATOL
    at_hi = x >= hi - _BOUND_ATOL
    pg[at_lo] = np.minimum(g[at_lo], 0.0)
    pg[at_hi] = np.maximum(g[at_hi], 0.0)
    return pg


def _two_loop(g, s_list, y_list):
    q = g.copy()
    alphas = []
    rhos = [1.0 / float(np.vdot(y, s)) for s, y in zip(s_list, y_list)]
    for s, y, rho in zip(reversed(s_list), reversed(y_list), reversed(rhos)):
        a = rho * float(np.vdot(s, q))
        alphas.append(a)
        q -= a * y
    s, y = s_list[-1], y_list[-1]
    q *= float(np.vdot(s, y) / np.vdot(y, y))
    for (s, y, rho), a in zip(zip(s_list, y_list, rhos), reversed(alphas)):
        b = rho * float(np.vdot(y, q))
        q += (a - b) * s
    return q


def lbfgs_minimize(fg, u0, bounds, config=None, f_only=None):
    """Minimize within a box via limited-memory BFGS with projection.

    Parameters
    ----------
    fg : callable
        Returns ``(value, gradient)`` at a control array.
    u0 : ndarray
        Start point; projected into the box first.
    bounds : tuple
        ``(lo, hi)`` scalars or arrays broadcastable to the control.
    config : OptimizerConfig
    f_only : callable, optional
        Cheaper value-only evaluation used for line-search trials;
        defaults to ``fg(u)[0]``.

    Trial points are clamped into the box; sufficient decrease is
    measured against the projected step, and the curvature memory is
    dropped whenever the set of active bounds changes. A failed line
    search returns the best iterate with a flag instead of raising.

    Converged means the projected-gradient infinity norm (components
    pushing against an active bound zeroed) fell below
    ``tolerance * (1 + |f|)``.
    """
    if config is None:
        config = OptimizerConfig()
    if f_only is None:
        f_only = lambda u: fg(u)[0]
    lo, hi = bounds

    x = project_control(np.asarray(u0, dtype=float), bounds)
    f, g = fg(x)
    s_mem, y_mem = [], []
    trace = []
    converged = False
    ls_failed = False
    active = (x <= lo + _BOUND_ATOL) | (x >= hi - _BOUND_ATOL)
    it = 0
    window_f = f

    for it in range(1, config.max_inner_iterations + 1):
        pg = _projected_gradient(x, g, lo, hi)
        pg_norm = float(np.max(np.abs(pg)))
        trace.append({"iteration": it - 1, "f": f, "pg_norm": pg_norm})
        if pg_norm <= config.gradient_tolerance * (1.0 + abs(f)):
            converged = True
            break

        if s_mem:
            d = -_two_loop(g, s_mem, y_mem)
            alpha0 = 1.0
            if float(np.vdot(d, g)) >= 0.0:
                s_mem.clear()
                y_mem.clear()
                d = -g
                alpha0 = 1.0 / pg_norm  # first trial moves about 1 °C
        else:
            d = -g
            alpha0 = 1.0 / pg_norm

        alpha = alpha0
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            xt = project_control(x + alpha * d, bounds)
            step = xt - x
            if not np.any(step):
                break
            ft = f_only(xt)
            slope = min(0.0, float(np.vdot(g, step)))
            if ft <= f + _ARMIJO_C1 * slope:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            ls_failed = True
            break

        f_new, g_new = fg(xt)
        s_vec = xt - x
        y_vec = g_new - g
        active_new = (xt <= lo + _BOUND_ATOL) | (xt >= hi - _BOUND_ATOL)
        if np.any(active_new != active):
            s_mem.clear()
            y_mem.clear()
        else:
            sy = float(np.vdot(s_vec, y_vec))
            if sy > _CURVATURE_EPS * float(np.linalg.norm(s_vec)
                                           * np.linalg.norm(y_vec)):
                s_mem.append(s_vec)
                y_mem.append(y_vec)
                if len(s_mem) > config.memory:
                    s_mem.pop(0)
                    y_mem.pop(0)
        x, f, g, active = xt, f_new, g_new, active_new

        # near the hinge walls the objective flattens below float
        # resolution; stop once a whole window makes no progress
        if it % _STALL_WINDOW == 0:
            if window_f - f <= _STALL_RTOL * (1.0 + abs(f)):
                break
            window_f = f

    return LbfgsResult(u=x, f=f, g=g, iterations=it, converged=converged,
                       line_search_failed=ls_failed, trace=trace)


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
    """Penalty-continuation loop around the projected L-BFGS.

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
        res = lbfgs_minimize(ev.value_and_gradient, u, bounds, config,
                             f_only=ev.value)
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
        final_max_violation_c=rounds[-1].max_violation_c if not aborted
        else prev.max_violation_c if prev else float("nan"),
        wall_time_s=time.perf_counter() - start,
        aborted=aborted,
        abort_reason=reason,
    )
    return u, report
