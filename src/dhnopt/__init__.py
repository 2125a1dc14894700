"""Optimal supply-temperature control for district heating networks.

The package simulates thermal transport on a supply/return pipe graph
with fixed mass flows (sparse backward Euler, first-order upwinding)
and optimizes the plant supply-temperature trajectories against static
or time-varying energy prices under consumer temperature constraints,
using quadratic-penalty continuation around scipy's L-BFGS-B
(``OptimizerConfig``: ``memory`` curvature pairs, ``max_inner_iterations``
per round, converged once the projected gradient is within
``gradient_tolerance * (1 + |f|)``). Objective values and exact
gradients run on a condensed control-to-output map (free plus impulse
response) built once per scenario: the forward is a matrix product over
the impulse's numerical support, the gradient the same product
transposed.
"""

from .errors import DhnError, ParseError, SolverError, ValidationError
from .network import (BoundarySpec, NetworkGraph, check_flow, control_volumes,
                      load_flow_field, parse_network, subdivide_pipes,
                      write_flow_field, write_network)
from .objective import (ConstraintSet, PriceModel, constraint_violations,
                        loss_energy, loss_energy_steps, max_violation,
                        penalty, project_control, tikhonov)
from .optimizer import (LbfgsResult, ObjectiveEvaluator, OptimizationReport,
                        OptimizerConfig, RoundStats, lbfgs_minimize, optimize)
from .scenario import (LoadSeries, PriceSeries, Scenario, build_scenario,
                       lowpass, read_demand_set, read_load_series,
                       read_price_series, synthesize_variations,
                       write_demand_set, write_load_series,
                       write_price_series)
from .thermal import (CondensedMap, PhysicalConstants, StateTrajectory,
                      SystemMatrices, TimeGrid, assemble, condense,
                      demand_to_delta, energy_balance, simulate, solve_steady,
                      stored_energy)

__version__ = "0.1.0"
