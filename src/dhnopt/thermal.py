"""Sparse thermal transport model and its solution operator.

The network temperature field is governed by advection along the fixed
mass flows plus heat loss to ambient. Per node ``i`` (water volume
``V_i``, ambient-loss coefficient ``S_ii``) the semi-discrete balance is

    rho*cp*V_i * dy_i/dt + cp * sum_e mdot_e * (y_i - y_up(e))
        + S_ii * (y_i - y_a) = 0,

where the advection sum runs over the edges bringing flow into ``i``
and ``y_up(e)`` is the upstream neighbour (first-order upwinding; axial
diffusion is negligible in these convection-dominated flows). Backward
Euler in time gives one sparse linear system

    (rho*cp/dt * V + cp * G + S) y_t = rho*cp/dt * V y_{t-1} + S y_a

whose matrix does not change over time for fixed flows and step size,
so it is factorized once for the whole horizon. Boundary conditions
replace rows: plant supply nodes are held at the control temperature,
and each consumer edge enforces a prescribed supply-to-return
temperature drop representing the extracted heat. A node's row reads
only its upstream neighbours, and a plant supply row reads nothing, so
for acyclic flows the matrix is lower triangular in flow order (each
node after every node its row reads): factorized in that order, its LU
factors are its own lower part and its diagonal, with no fill.

The temperatures are therefore an affine, time-invariant function of
the control, ``y = y_free + H * u``. :func:`condense` reads that map
off one sweep for the only rows it needs to convolve, the plant return
and consumer supply nodes; the boundary rows fix the plant supply and
consumer return nodes. The map's one forward,
:meth:`CondensedMap.outputs`, writes ``y`` into a buffer its caller
owns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import SolverError, ValidationError

#: Default physical constants for hot water.
DEFAULT_CP = 4186.0      # J/(kg °C)
DEFAULT_RHO = 1000.0     # kg/m^3
DEFAULT_AMBIENT = 10.0   # °C

#: The impulse tail a condensed map drops, relative to each row's l1 mass.
_SUPPORT_TOL = 1e-20
#: Steps a sweep advances per block: the block, ``_BLOCK * n_nodes``
#: floats per right-hand side (370 kB on the 1432-node feeder), stays in
#: cache while it is filled, solved and scattered.
_BLOCK = 32


@dataclass(frozen=True)
class PhysicalConstants:
    """Water properties and the ambient temperature.

    ``ambient_c`` may be a scalar or a per-time-step series.
    """

    cp_j_per_kg_c: float = DEFAULT_CP
    rho_kg_m3: float = DEFAULT_RHO
    ambient_c: float | np.ndarray = DEFAULT_AMBIENT

    def __post_init__(self):
        if not self.cp_j_per_kg_c > 0:
            raise ValidationError("cp must be > 0")
        if not self.rho_kg_m3 > 0:
            raise ValidationError("rho must be > 0")

    def ambient_series(self, n_steps):
        """Ambient temperature on the grid, shape ``(n_steps + 1,)``."""
        amb = np.asarray(self.ambient_c, dtype=float)
        if amb.ndim == 0:
            return np.full(n_steps + 1, float(amb))
        if amb.shape != (n_steps + 1,):
            raise ValidationError(
                f"ambient series has length {amb.shape[0]}, expected {n_steps + 1}"
            )
        return amb


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid ``t_k = k * dt`` for ``k = 0 .. n_steps``."""

    dt_s: float
    n_steps: int

    def __post_init__(self):
        if not self.dt_s > 0:
            raise ValidationError("dt must be > 0")
        if self.n_steps < 1:
            raise ValidationError("need at least one time step")

    def times(self):
        return np.arange(self.n_steps + 1) * self.dt_s


def _advection_matrix(graph, flow):
    """Upwinded advection operator G (kg/s entries).

    Row ``i`` has the total outgoing flow on the diagonal and
    ``-|mdot_e|`` at the upstream neighbour of every incoming edge, so
    ``cp * (G y)_i`` is the net advected enthalpy leaving node ``i``.
    Row sums vanish by mass conservation.
    """
    up = np.where(flow > 0, graph.edge_tail, graph.edge_head)
    down = np.where(flow > 0, graph.edge_head, graph.edge_tail)
    mag = np.abs(flow)
    rows = np.concatenate([up, down])
    cols = np.concatenate([up, up])
    vals = np.concatenate([mag, -mag])
    return sp.csr_matrix((vals, (rows, cols)),
                         shape=(graph.n_nodes, graph.n_nodes))


def _ambient_loss_diagonal(graph):
    """Per-node loss coefficient: half of each incident pipe's k*l.

    Consumer and producer edges are heat-exchanger interfaces and
    contribute no ambient loss regardless of their file parameters.
    """
    s = np.zeros(graph.n_nodes)
    pipes = graph.pipe_edges
    half = graph.htc_w_per_m_c[pipes] * graph.length_m[pipes] / 2.0
    np.add.at(s, graph.edge_tail[pipes], half)
    np.add.at(s, graph.edge_head[pipes], half)
    return s


def _flow_order(matrix):
    """The nodes in flow order: each after every node its row of ``matrix`` reads.

    Kahn's algorithm on the off-diagonal pattern. When a flow cycle
    leaves no node ready, the cycle is broken at one of its nodes
    (:func:`_cycle_node`), which is placed next; so only the rows that
    close a cycle read a later node.
    """
    a = sp.csc_matrix(matrix)  # column j holds the rows that read node j
    n = a.shape[0]
    cols = np.repeat(np.arange(n), np.diff(a.indptr))
    pending = np.bincount(a.indices[a.indices != cols], minlength=n)
    order = np.flatnonzero(pending == 0).tolist()
    placed = (pending == 0).tolist()
    pending = pending.tolist()
    indptr, indices = a.indptr.tolist(), a.indices.tolist()
    reads = None
    for head in range(n):
        if head == len(order):  # each unplaced node reads an unplaced node
            if reads is None:
                reads = sp.csr_matrix(matrix)
            order.append(_cycle_node(reads, placed))
            placed[order[-1]] = True
        j = order[head]
        for i in indices[indptr[j]:indptr[j + 1]]:
            if not placed[i]:
                pending[i] -= 1
                if pending[i] == 0:
                    placed[i] = True
                    order.append(i)
    return np.array(order, dtype=np.intp)


def _cycle_node(reads, placed):
    """A node on a cycle of unplaced nodes when each reads an unplaced one:
    walking upstream from the lowest of them must come back to a node."""
    j, seen = placed.index(False), set()
    while j not in seen:
        seen.add(j)
        row = reads.indices[reads.indptr[j]:reads.indptr[j + 1]]
        j = next(int(i) for i in row if i != j and not placed[i])
    return j


class SystemMatrices:
    """Assembled sparse operators plus cached LU factorizations.

    The steady matrix ``cp*G + S`` with its boundary rows replaced is
    assembled once. The transient matrix ``A = rho*cp/dt * V + cp*G + S``
    is ``steady + diag(B_diag)``: the previous-state diagonal ``B_diag``
    vanishes on the boundary rows, so both share them and share ``order``,
    the flow order of the nodes. Each matrix is factorized at most once,
    on first use, permuted to ``order`` (``lu_steady``, ``lu_transient``);
    only this module calls ``.solve`` on them, and it permutes right-hand
    sides into ``order`` and solutions back, so every caller sees node
    order. :meth:`solve_adjoint` gives the transposed solves of adjoint
    computations.
    """

    def __init__(self, graph, flow, volumes, constants, dt_s):
        self.graph = graph
        self.flow = flow
        self.bc = bc = graph.boundary
        self.constants = constants
        self.dt_s = float(dt_s) if dt_s is not None else None
        n = graph.n_nodes

        self.S_diag = _ambient_loss_diagonal(graph)
        self.V_diag = volumes.copy()
        self.plant_massflow = np.abs(flow[bc.producer_edges])
        self.consumer_massflow = np.abs(flow[bc.consumer_edges])

        self.interior = interior = np.ones(n, dtype=bool)
        interior[bc.plant_nodes] = False
        interior[bc.consumer_return_nodes] = False

        cp = constants.cp_j_per_kg_c
        rho = constants.rho_kg_m3
        self.B_diag = (np.where(interior, rho * cp / self.dt_s * self.V_diag, 0.0)
                       if self.dt_s is not None else None)

        # physical rows of the interior nodes, then the boundary rows:
        # a plant supply node equals its control, a consumer return node
        # its supply node minus the drop
        G = _advection_matrix(graph, flow).tocoo()
        keep = interior[G.row]
        nodes = np.flatnonzero(interior)
        rows = np.concatenate([G.row[keep], nodes, bc.plant_nodes,
                               bc.consumer_return_nodes, bc.consumer_return_nodes])
        cols = np.concatenate([G.col[keep], nodes, bc.plant_nodes,
                               bc.consumer_return_nodes, bc.consumer_supply_nodes])
        vals = np.concatenate([cp * G.data[keep], self.S_diag[nodes],
                               np.ones(bc.n_plants), np.ones(bc.n_consumers),
                               -np.ones(bc.n_consumers)])
        self._steady = sp.csc_matrix((vals, (rows, cols)), shape=(n, n))
        self.order = _flow_order(self._steady)

    def steady_matrix(self):
        return self._steady

    def _factorize(self, matrix, label):
        """SuperLU of ``matrix`` permuted to ``order``, pivoting on its
        diagonal: an acyclic flow's factors are its lower part and its
        diagonal."""
        order = self.order
        try:
            lu = spla.splu(matrix[order][:, order],
                           permc_spec="NATURAL", diag_pivot_thresh=0.0)
        except RuntimeError as exc:
            raise SolverError(f"{label} system matrix is singular: {exc}") from None
        return lu

    @cached_property
    def lu_transient(self):
        if self.dt_s is None:
            raise SolverError("system was assembled without a time step")
        return self._factorize(self._steady + sp.diags(self.B_diag), "transient")

    @cached_property
    def lu_steady(self):
        return self._factorize(self._steady, "steady")

    def rhs_steady(self, plant_temps, deltas, ambient_c):
        """Steady right-hand side; checks the boundary values."""
        plant_temps = np.asarray(plant_temps, dtype=float)
        deltas = np.asarray(deltas, dtype=float)
        if plant_temps.shape != (self.bc.n_plants,):
            raise ValidationError(
                f"expected {self.bc.n_plants} plant temperatures, got {plant_temps.shape}"
            )
        if deltas.shape != (self.bc.n_consumers,):
            raise ValidationError(
                f"expected {self.bc.n_consumers} consumer deltas, got {deltas.shape}"
            )
        if np.any(deltas < 0):
            raise ValidationError("consumer temperature deltas must be >= 0")
        return _forcing(self.S_diag, self.bc.plant_nodes,
                        self.bc.consumer_return_nodes, plant_temps, deltas,
                        ambient_c)

    def solve_adjoint(self, b):
        """Solve ``A^T x = b`` with the transient factorization."""
        b = np.asarray(b, dtype=float)
        x = np.empty_like(b)
        x[self.order] = self.lu_transient.solve(b[self.order], trans="T")
        return x


def _forcing(loss, plants, returns, plant_temps, deltas, ambient_c, out=None):
    """Ambient loss on the interior rows, boundary values on the rest:
    the plant temperatures on ``plants``, the negated drops on
    ``returns``. ``loss`` (``S_diag``) and the rows share one node order,
    the last axis; ``ambient_c`` may broadcast leading axes of more
    right-hand sides. Written into ``out`` when it is given."""
    b = np.multiply(ambient_c, loss, out=out)
    b[..., plants] = plant_temps
    b[..., returns] = -deltas
    return b


def assemble(graph, flow, volumes, constants, dt_s=None):
    """Assemble the sparse system for a network with fixed flows.

    ``volumes`` is the per-node array of
    :func:`~dhnopt.network.control_volumes`. ``dt_s=None`` builds a
    steady-only system. The boundary rows are the graph's
    :attr:`~dhnopt.network.NetworkGraph.boundary`.
    """
    return SystemMatrices(graph, flow, volumes, constants, dt_s)


def solve_steady(system, plant_temps, deltas, ambient_c):
    """Steady temperatures under fixed boundary values."""
    b = system.rhs_steady(plant_temps, deltas, ambient_c)
    y = np.empty_like(b)
    y[system.order] = system.lu_steady.solve(b[system.order])
    if not np.all(np.isfinite(y)):
        raise SolverError("linear solve produced non-finite temperatures")
    return y


@dataclass
class StateTrajectory:
    """Node temperatures over the grid, shape ``(n_nodes, n_steps + 1)``.

    Column 0 is the initial state.
    """

    values_c: np.ndarray
    grid: TimeGrid

    def __post_init__(self):
        if not np.all(np.isfinite(self.values_c)):
            raise SolverError("trajectory contains non-finite temperatures")

    def rows(self, nodes):
        """Temperatures of ``nodes`` at the solved steps ``1 .. n_steps``."""
        return self.values_c[nodes, 1:]


@dataclass
class ObservedTrajectory:
    """Temperatures of ``nodes`` at the solved steps, ``(len(nodes), n_steps)``:
    the objective evaluator's plant rows, which the loss reads.

    ``blocks`` pairs the node array of each observed block with the
    slice of rows that holds it.
    """

    nodes: np.ndarray
    values_c: np.ndarray
    grid: TimeGrid
    blocks: tuple

    def __post_init__(self):
        if not np.all(np.isfinite(self.values_c)):
            raise SolverError("condensed map produced non-finite temperatures")

    def rows(self, nodes):
        """:meth:`StateTrajectory.rows` for an observed block, as a view.
        Identity is tried on every block before any ``array_equal``."""
        found = ([r for b, r in self.blocks if nodes is b]
                 or [r for b, r in self.blocks if np.array_equal(nodes, b)])
        if found:
            return self.values_c[found[0]]
        raise ValidationError("temperature requested outside the observed blocks")


def _boundary_data(system, n, deltas, ambient):
    """The grid of ``n`` steps of ``system.dt_s``, and ``deltas`` and
    ``ambient`` as float arrays checked against it. A steady-only system
    raises :class:`SolverError` here, before its grid is built."""
    system.lu_transient
    grid, n_c = TimeGrid(system.dt_s, n), system.bc.n_consumers
    deltas = np.asarray(deltas, dtype=float)
    if deltas.shape != (n_c, n + 1):
        raise ValidationError(
            f"deltas must have shape ({n_c}, {n + 1}), got {deltas.shape}"
        )
    ambient = np.asarray(ambient, dtype=float)
    if ambient.shape != (n + 1,):
        raise ValidationError(
            f"ambient must have shape ({n + 1},), got {ambient.shape}"
        )
    if np.any(deltas < 0):
        raise ValidationError("consumer temperature deltas must be >= 0")
    return grid, deltas, ambient


def _sweep(system, x0, u, deltas, ambient):
    """Advance ``m`` backward-Euler sweeps together, ``_BLOCK`` steps at a time.

    Sweep ``i`` starts from ``x0[i]``, a state in flow order
    (``x0`` is ``(m, n_nodes)``), and reads the boundary data ``u[i]``
    ``(n_plants, n_steps)``, ``deltas[i]`` ``(n_consumers, n_steps + 1)``
    and ``ambient[i]`` ``(n_steps + 1,)``. Yields ``(k, block)`` per
    block: ``block[j, i]`` is sweep ``i``'s state at step ``k + j`` in
    flow order, in a buffer the next block overwrites. A block's forcing
    is built time-major by one :func:`_forcing` call, and each step is
    one solve of ``storage * x + f`` for all ``m`` right-hand sides,
    with the roundings of a single sweep.
    """
    lu, order = system.lu_transient, system.order
    rank = np.argsort(order)
    plants = rank[system.bc.plant_nodes]
    returns = rank[system.bc.consumer_return_nodes]
    loss, storage = system.S_diag[order], system.B_diag[order]
    n_steps = u.shape[2]
    buffer = np.empty((min(_BLOCK, n_steps), *x0.shape))
    x = x0
    for k in range(1, n_steps + 1, _BLOCK):
        f = buffer[:min(_BLOCK, n_steps + 1 - k)]
        steps = slice(k, k + len(f))
        _forcing(loss, plants, returns,
                 u[:, :, k - 1:steps.stop - 1].transpose(2, 0, 1),
                 deltas[:, :, steps].transpose(2, 0, 1),
                 ambient[:, steps].T[:, :, None], out=f)
        for b in f:
            b += storage * x
            x = lu.solve(b.T).T
            b[...] = x
        yield k, f


def simulate_system(system, u, deltas, ambient, u_init=None):
    """Run the solution operator: control trajectory -> state trajectory.

    Parameters
    ----------
    system : SystemMatrices
        Assembled with a time step, ``dt_s``.
    u : ndarray, shape (n_plants, n_steps)
        Plant supply temperature at steps ``1 .. n_steps``; the
        trajectory's grid is ``TimeGrid(system.dt_s, n_steps)``.
    deltas : ndarray, shape (n_consumers, n_steps + 1)
        Consumer temperature drops on the grid (column 0 feeds the
        initial steady state).
    ambient : ndarray, shape (n_steps + 1,)
    u_init : ndarray, shape (n_plants,), optional
        Plant temperatures defining the initial steady state; defaults
        to the first control column.

    The initial state is the steady solution under ``u_init`` and the
    first boundary values. The transient matrix is factorized once, in
    the system's flow order, and reused for every step; each step is a
    forward substitution for acyclic flows. The sweep keeps
    the state in flow order and runs in blocks of ``_BLOCK`` steps
    (:func:`_sweep`), each written back to node order in the returned
    trajectory with one scatter.
    """
    u = np.asarray(u, dtype=float)
    n_p = system.bc.n_plants
    if u.ndim != 2 or u.shape[0] != n_p:
        raise ValidationError(
            f"control must have shape ({n_p}, n_steps), got {u.shape}"
        )
    grid, deltas, ambient = _boundary_data(system, u.shape[1], deltas, ambient)
    if u_init is None:
        u_init = u[:, 0]
    y = np.empty((system.graph.n_nodes, grid.n_steps + 1))
    y[:, 0] = solve_steady(system, u_init, deltas[:, 0], ambient[0])
    order = system.order
    for k, block in _sweep(system, y[order, :1].T, u[None], deltas[None],
                           ambient[None]):
        y[order, k:k + len(block)] = block[:, 0].T
    del block  # the sweep's buffer, not kept through the trajectory's scan
    return StateTrajectory(values_c=y, grid=grid)


class CondensedMap:
    """Affine control-to-output map ``y = y_free + H * u`` (see :func:`condense`).

    For fixed flows and step size the backward-Euler recursion is linear
    and time-invariant, so the temperatures of ``nodes``, the plant
    return nodes then the consumer supply nodes, are the free response
    ``y_free`` ``(n_plants + n_consumers, n_steps)`` plus the causal
    convolution of the impulse response ``impulse``
    ``(n_plants + n_consumers, n_plants, n_steps)`` with the control.
    The other boundary nodes need no rows: the boundary rows of the
    system matrix hold a plant supply node at the control and a consumer
    return node ``delta`` below its supply node.

    :meth:`outputs` is the forward, ``y_free + H * u`` written into a
    buffer the caller owns: one matrix product per row family (plant
    return, consumer supply), each over the family's numerical support,
    the fewest lags whose dropped tail is at most ``1e-20`` of the l1
    mass of each of its rows, far below the round-off of the sums it
    would join. Over 288 steps that is 62 and 48 lags on the feeder, 31
    and 27 on the desk; every step when the horizon is shorter than the
    transit. :meth:`apply_transpose` is the same operator transposed:
    one matrix product of the taps over the overall support (the most of
    the two families') with the output gradient, over the rows whose
    output gradient may be nonzero: an objective gradient is zero on
    every consumer row whose bound holds. Both directions reuse scratch
    buffers the map owns, the sliding-window view of the padded control
    among them: a fresh megabyte-sized array per call costs about as
    much as the product.
    """

    def __init__(self, nodes, y_free, impulse, grid):
        self.nodes = nodes
        self.y_free = y_free
        self.impulse = impulse
        self.grid = grid
        n_rows, n_p, n = impulse.shape
        # a row's support: the fewest lags whose dropped tail, summed
        # from the last lag back, is at most _SUPPORT_TOL of the l1 mass
        # of the row and each plant; a family's, the most of its rows'
        tails = np.cumsum(np.abs(impulse[..., ::-1]), axis=2)[..., ::-1]
        lags = (tails > _SUPPORT_TOL * tails[..., :1]).sum(axis=2).max(axis=1)
        s = int(lags.max(initial=1))
        # taps[:, p*s + i] is plant p's impulse at lag s - 1 - i: a
        # window of the control padded with s - 1 leading zeros, read
        # against it, is the causal convolution at the window's last step
        self._taps = np.ascontiguousarray(
            impulse[..., :s][..., ::-1].reshape(n_rows, n_p * s))
        self._padded = np.zeros((n_p, s - 1 + n))
        # the windows lag-major, windows[i, p] = view[p, i], so that each
        # family, plant return then consumer supply rows, multiplies its
        # taps at its own support f with one block, the last f lags
        self._view = np.moveaxis(sliding_window_view(self._padded, n, axis=1), 0, 1)
        self._windows = np.empty((s, n_p, n))
        taps = self._taps.reshape(n_rows, n_p, s).transpose(0, 2, 1)
        windows = self._windows.reshape(s * n_p, n)
        self._families = []
        for rows in (slice(0, n_p), slice(n_p, n_rows)):
            f = int(lags[rows].max(initial=1))
            self._families.append((
                np.ascontiguousarray(taps[rows, s - f:].reshape(-1, f * n_p)),
                windows[(s - f) * n_p:], rows))
        # the transpose: Q = taps[live]^T G, G the output gradient padded
        # with s - 1 zero columns, so plant p's gradient at step j sums
        # Q[p*s + i, j + s - 1 - i] over the lags i, a diagonal of plant
        # p's block of Q, which a strided view reads in place
        w = n + s - 1
        self._g = np.zeros((n_rows, w))
        self._q = np.empty((n_p * s, w))
        item = self._q.itemsize
        self._diagonals = as_strided(self._q[:, s - 1:], (n_p, s, n),
                                     (s * w * item, (w - 1) * item, item),
                                     writeable=False)
        self._h_t = np.empty((n_p, n))
        # The forward's sums are at most gain times the largest control
        # entry, gain being the largest l1 norm of a row's impulse. A
        # control within this limit, 16 leaving room for the free
        # response and round-off, overflows none of them.
        gain = np.abs(impulse).sum(axis=(1, 2)).max()
        self.control_limit = np.finfo(float).max / (16 * (1 + gain))

    def outputs(self, u, out):
        """``y_free + H * u`` into ``out``: the plant return rows, then
        the consumer supply rows.

        ``out`` is a float array shaped like ``y_free`` that the caller
        owns, so a map shared by several callers keeps no outputs of its
        own; it is returned. Each family's product is written into its
        rows of ``out`` and ``y_free`` added there, the same sums, and
        the same bits, as a product into a scratch array followed by
        the addition. A control not shaped ``(n_plants, n_steps)``
        raises :class:`ValidationError`, and one with an entry that is
        not finite or exceeds ``control_limit`` in magnitude
        :class:`SolverError`, before ``out`` is written; every other
        control gives finite outputs, so no output is scanned.
        """
        s, n_p, n = self._windows.shape
        if np.shape(u) != (n_p, n):
            raise ValidationError(
                f"control must have shape ({n_p}, {n}), got {np.shape(u)}")
        if not np.abs(u).max() <= self.control_limit:
            raise SolverError("control is not finite or too large for the "
                              "condensed map")
        self._padded[:, s - 1:] = u
        np.copyto(self._windows, self._view)
        for taps, windows, rows in self._families:
            y = out[rows]
            np.matmul(taps, windows, out=y)
            y += self.y_free[rows]
        return out

    def apply_transpose(self, g, live):
        """``H^T`` of the output gradient that is ``g`` on the rows
        ``live`` and zero on the others: the control gradient of
        ``sum(g * y[live])``, ``y`` the :meth:`outputs` at the control.

        ``live`` is an increasing index into the rows, plant return then
        consumer supply, one entry per row of ``g``. Leaving
        the other rows out is exact: a zero row adds only exact zeros
        to the product's sums. The result is a buffer the map owns: the
        next call overwrites it.
        """
        self._g[:live.size, :self.grid.n_steps] = g
        np.dot(self._taps[live].T, self._g[:live.size], out=self._q)
        return self._diagonals.sum(axis=1, out=self._h_t)


def condense(system, deltas, ambient, u_init):
    """Build the :class:`CondensedMap` of the plant return and consumer
    supply nodes, each block in boundary-spec order.

    ``ambient`` ``(n_steps + 1,)`` sets the map's grid,
    ``TimeGrid(system.dt_s, n_steps)``.

    The map is read off one sweep of ``1 + n_plants`` right-hand sides
    (:func:`_sweep`, the sweep of :func:`simulate_system`), of which
    only the map's rows are kept: ``y_free`` is the response to zero
    control from the steady state under ``u_init``, and plant ``p``'s
    column of ``impulse`` the response to a unit pulse of that plant at
    step 1 from zero state, with zero consumer drops and zero ambient.
    Each is bit for bit the rows of that :func:`simulate_system` run.
    """
    bc = system.bc
    nodes = np.concatenate((bc.plant_return_nodes, bc.consumer_supply_nodes))
    ambient = np.asarray(ambient, dtype=float)
    if ambient.ndim != 1:
        raise ValidationError(
            f"ambient must have shape (n_steps + 1,), got {ambient.shape}")
    grid, deltas, ambient = _boundary_data(system, ambient.size - 1, deltas,
                                           ambient)
    n_p, n = bc.n_plants, grid.n_steps
    # sweep 0 is the free response, sweep 1 + p plant p's pulse
    u = np.zeros((1 + n_p, n_p, n))
    u[1:, :, 0] = np.eye(n_p)
    drops = np.zeros((1 + n_p, *deltas.shape))
    drops[0] = deltas
    temps = np.zeros((1 + n_p, n + 1))
    temps[0] = ambient
    order = system.order
    x0 = np.zeros((1 + n_p, order.size))
    x0[0] = solve_steady(system, u_init, deltas[:, 0], ambient[0])[order]
    observed = np.argsort(order)[nodes]
    y_free = np.empty((nodes.size, n))
    impulse = np.empty((nodes.size, n_p, n))
    for k, block in _sweep(system, x0, u, drops, temps):
        rows = block[:, :, observed]
        steps = slice(k - 1, k - 1 + len(block))
        y_free[:, steps] = rows[:, 0].T
        impulse[:, :, steps] = rows[:, 1:].transpose(2, 1, 0)
    if not (np.all(np.isfinite(y_free)) and np.all(np.isfinite(impulse))):
        raise SolverError("condensed map contains non-finite temperatures")
    return CondensedMap(nodes, y_free, impulse, grid)


def simulate(graph, flow, scenario, u):
    """Solution operator on a scenario's grid, boundary data and system.

    ``graph`` and ``flow`` must be the scenario's own instances; the
    scenario's cached factorization is reused.
    """
    if graph is not scenario.graph or flow is not scenario.flow:
        raise ValidationError("simulate needs the scenario's own graph and flow")
    return simulate_system(scenario.system, u, scenario.deltas,
                           scenario.ambient, scenario.u_init)


def demand_to_delta(power_w, massflow_kg_s, cp_j_per_kg_c):
    """Temperature drop representing an extracted power.

    ``y_d = phi / (cp * mdot)``; works elementwise on arrays.
    """
    power_w = np.asarray(power_w, dtype=float)
    if np.any(power_w < 0):
        raise ValidationError("consumed power must be >= 0")
    if np.any(np.asarray(massflow_kg_s) <= 0):
        raise ValidationError("consumer mass flow must be > 0")
    return power_w / (cp_j_per_kg_c * massflow_kg_s)


def stored_energy(y, volumes, constants, reference_c=0.0):
    """Thermal energy stored in the water volume, relative to a reference.

    ``E = rho * cp * sum_i V_i * (y_i - reference)``. Accepts a single
    state vector or a full trajectory array (nodes x steps); ``volumes``
    is the per-node array of :func:`~dhnopt.network.control_volumes`.
    """
    y = np.asarray(y, dtype=float)
    weights = constants.rho_kg_m3 * constants.cp_j_per_kg_c * volumes
    if y.ndim == 1:
        return float(weights @ (y - reference_c))
    return weights @ (y - reference_c)


def plant_injection_w(system, traj):
    """Heat the plants inject per solved step, ``cp * mdot * (y_s - y_r)``, W."""
    bc = system.bc
    y = traj.values_c
    lift = y[bc.plant_nodes, 1:] - y[bc.plant_return_nodes, 1:]
    return (system.constants.cp_j_per_kg_c
            * (system.plant_massflow[:, None] * lift).sum(axis=0))


def energy_balance(system, traj, deltas, ambient):
    """Per-step energy audit of a simulated trajectory.

    Each term is assembled directly from the state, flows and operator
    diagonals, independent of the linear solver. For the governed
    (non-boundary) nodes the backward-Euler rows sum to the exact
    identity

        plant injection = consumer extraction + ambient loss
                          + storage rate,

    so the residual measures only solver round-off. Boundary rows
    (plant nodes, consumer return nodes) are accounting interfaces and
    carry no storage/loss of their own.

    Returns a dict of arrays of length ``n_steps``: ``injection_w``,
    ``extraction_w``, ``ambient_w``, ``storage_w``, ``residual_w`` and
    ``residual_rel`` (relative to plant injection).
    """
    cp = system.constants.cp_j_per_kg_c
    y = traj.values_c

    injection = plant_injection_w(system, traj)
    extraction = cp * (system.consumer_massflow[:, None] * deltas[:, 1:]).sum(axis=0)

    # node weights, zero on the boundary rows (B_diag already is); the
    # storage term weights the step differences, since a difference of
    # two stored-energy sums would cancel catastrophically
    s = np.where(system.interior, system.S_diag, 0.0)
    ambient_loss = s @ y[:, 1:] - s.sum() * ambient[1:]
    storage = system.B_diag @ np.diff(y, axis=1)

    residual = injection - extraction - ambient_loss - storage
    scale = np.maximum(np.abs(injection), 1e-30)
    return {
        "injection_w": injection,
        "extraction_w": extraction,
        "ambient_w": ambient_loss,
        "storage_w": storage,
        "residual_w": residual,
        "residual_rel": np.abs(residual) / scale,
    }
