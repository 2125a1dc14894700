"""Operating-cost objective, regularization, constraints and penalties.

The scalar objective combines the energy (or monetary) cost of plant
injection, a first-order smoothness regularizer on the control, and a
quadratic hinge penalty on the consumer temperature constraints: one
row per consumer, its supply temperature against the larger of the
supply limit and the return limit plus its drop
(:func:`constraint_violations`). All functions here are pure and
operate on immutable inputs.

Units: :func:`loss_energy` reports joules (static prices) or euros
(dynamic prices). The objective converts the static loss to megawatt
hours (:func:`objective_loss`) so that the °C-scale hinge penalty can
dominate it within the default continuation schedule; a joule-scale
loss would keep °C-sized violations stationary at any affordable
penalty weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .thermal import DEFAULT_CP

#: Joules per megawatt hour; converts energy to the price curve's unit.
J_PER_MWH = 3.6e9


@dataclass(frozen=True)
class PriceModel:
    """Energy price weighting for the injection cost.

    ``step_prices`` is ``None`` for a static model, which weights every
    step by 1, so the loss is a plain energy. A dynamic model carries
    the price in EUR/MWh at each solved step 1..n (a read-only 1-d
    array, see :meth:`~dhnopt.scenario.PriceSeries.on_grid`) plus a
    generation efficiency factor ``alpha`` (applied while the plant
    injects heat) and a recovery factor ``beta`` (applied when the
    plant return runs hotter than its supply, i.e. the network gives
    heat back). ``0 <= beta <= alpha`` keeps the cost convex in the
    injection; a static model reads neither factor.
    """

    alpha: float = 1.0
    beta: float = 0.0
    step_prices: np.ndarray | None = None

    def __post_init__(self):
        if self.static:
            return
        if not self.alpha > 0:
            raise ValidationError("alpha must be > 0")
        if self.beta < 0:
            raise ValidationError("beta must be >= 0")
        if self.beta > self.alpha:
            raise ValidationError(
                f"beta ({self.beta:g}) must not exceed alpha ({self.alpha:g}): "
                f"the injection cost would be concave")

    @property
    def static(self):
        return self.step_prices is None

    @property
    def loss_unit(self):
        """Unit of a :func:`loss_energy` value under this model."""
        return "J" if self.static else "EUR"


@dataclass(frozen=True)
class ConstraintSet:
    """Temperature bounds at consumers and plants (°C)."""

    consumer_supply_min_c: float = 80.0
    consumer_return_min_c: float = 30.0
    plant_max_c: float = 140.0
    plant_min_c: float = 30.0

    def __post_init__(self):
        if not (self.plant_max_c > self.consumer_supply_min_c
                > self.consumer_return_min_c):
            raise ValidationError(
                "need plant max > consumer supply min > consumer return min"
            )
        if not self.plant_min_c < self.plant_max_c:
            raise ValidationError("plant bounds are empty")

    @property
    def control_bounds(self):
        return (self.plant_min_c, self.plant_max_c)


def injection_cost_rates(traj, graph, flow, price, cp_j_per_kg_c=DEFAULT_CP):
    """``(rates, lift)`` per plant and step: loss is ``sum(rates * lift)``.

    ``rates = cp * dt * mdot_p * w_k`` is also the loss derivative by
    plant supply temperature, and ``lift = y_supply - y_return``. For a
    static model the weight is 1, the loss is in joules and ``rates``
    is one column per plant that broadcasts against ``lift``. For a
    dynamic model ``w_k`` converts the EUR/MWh step price to EUR/J,
    times ``alpha`` where the plant injects heat and ``beta`` where it
    takes heat back, so the loss is in euros.
    """
    bc = graph.boundary
    supply = traj.rows(bc.plant_nodes)
    ret = traj.rows(bc.plant_return_nodes)
    mdot = np.abs(flow[bc.producer_edges])
    w = 1.0
    if not price.static:
        p = price.step_prices
        if p.shape != supply.shape[1:]:
            raise ValidationError(f"price model has {p.size} step prices for a "
                                  f"trajectory of {supply.shape[1]} steps")
        factor = np.where(supply >= ret, price.alpha, price.beta)
        w = p[None, :] * factor / J_PER_MWH
    return cp_j_per_kg_c * traj.grid.dt_s * mdot[:, None] * w, supply - ret


def loss_energy_steps(traj, graph, flow, price, cp_j_per_kg_c=DEFAULT_CP):
    """Per-step contributions to the operating cost, shape ``(n_steps,)``.

    Step ``k`` contributes ``cp * dt * sum_plants mdot_p * (y_supply -
    y_return) * w_k`` with the weight from the price model; joules for a
    static model, euros for a dynamic one.
    """
    rates, lift = injection_cost_rates(traj, graph, flow, price, cp_j_per_kg_c)
    return (rates * lift).sum(axis=0)


def loss_energy(traj, graph, flow, price, cp_j_per_kg_c=DEFAULT_CP):
    """Cost of operating the plants over the horizon.

    Rectangle rule over the solved steps: the sum of
    :func:`loss_energy_steps`. The value is in joules for a static
    price model and in euros for a dynamic one (the EUR/MWh curve is
    applied per joule).
    """
    return float(loss_energy_steps(traj, graph, flow, price,
                                   cp_j_per_kg_c).sum())


def tikhonov(u, grid):
    """Quadratic variation of the control: ``sum ((u_k - u_{k-1})/dt)^2``.

    Summed over all plants; needs at least two steps.
    """
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if u.shape[1] < 2:
        raise ValidationError("tikhonov needs a control with at least 2 steps")
    d = u[:, 1:] - u[:, :-1]
    d /= grid.dt_s
    return float((d * d).sum())


def tikhonov_gradient(u, grid):
    """Exact gradient of :func:`tikhonov`, same shape as ``u``."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    q = u[:, 1:] - u[:, :-1]
    q /= grid.dt_s
    q *= 2.0
    q /= grid.dt_s  # 2 * d / dt with d = diff / dt, rounded as such
    g = np.zeros_like(u)
    g[:, :-1] -= q
    g[:, 1:] += q
    return g


def constraint_violations(supply, bound, out=None):
    """Consumer constraint values ``bound - supply`` in °C, the package's
    one constraint formula; positive entries are violations.

    ``supply`` holds consumer supply temperatures (a row per consumer, a
    column per solved step) and ``bound`` their lower bound,
    :attr:`~dhnopt.scenario.Scenario.supply_bound` ``max(smin, rmin +
    delta)``: a consumer return node sits ``delta`` below its supply
    node, so the return limit is a supply limit. Written into ``out``
    when it is given.
    """
    return np.subtract(bound, supply, out=out)


def max_violation(c_values):
    """Largest violation in °C: 0 when all constraints hold or there are
    none, NaN when an entry is NaN."""
    # adding 0.0 turns a -0.0 maximum into 0.0
    return float(np.max(c_values, initial=0.0)) + 0.0


def penalty(c_values, lambda_p):
    """Quadratic hinge penalty ``lambda/2 * sum max(0, c)^2``."""
    if not lambda_p > 0:
        raise ValidationError("penalty weight must be > 0")
    c = np.asarray(c_values, dtype=float)
    # only the violated entries, and NaN ones so that a NaN reaches the
    # sum: no array of the full shape
    h = c[~(c <= 0.0)]
    h *= h
    return float(0.5 * lambda_p * h.sum())


def project_control(u, bounds):
    """Componentwise clamp of the control into ``[lo, hi]``."""
    lo, hi = bounds
    return np.clip(np.asarray(u, dtype=float), lo, hi)


def objective_loss(loss, price):
    """A :func:`loss_energy` value in the objective's working unit.

    MWh for a static price model (the loss is in joules), unchanged
    euros for a dynamic one; works elementwise on arrays.
    """
    return loss / J_PER_MWH if price.static else loss
