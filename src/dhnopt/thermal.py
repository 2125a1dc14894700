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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft as sfft
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.lib.stride_tricks import sliding_window_view

from .errors import SolverError, ValidationError

#: Default physical constants for hot water.
DEFAULT_CP = 4186.0      # J/(kg °C)
DEFAULT_RHO = 1000.0     # kg/m^3
DEFAULT_AMBIENT = 10.0   # °C

#: The impulse tail a condensed map drops, relative to each row's l1 mass.
_SUPPORT_TOL = 1e-20


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

    @property
    def horizon_s(self):
        return self.dt_s * self.n_steps

    def times(self):
        return np.arange(self.n_steps + 1) * self.dt_s


def _advection_matrix(graph, flow):
    """Upwinded advection operator G (kg/s entries).

    Row ``i`` has the total outgoing flow on the diagonal and
    ``-|mdot_e|`` at the upstream neighbour of every incoming edge, so
    ``cp * (G y)_i`` is the net advected enthalpy leaving node ``i``.
    Row sums vanish by mass conservation.
    """
    m = np.asarray(flow.massflow_kg_s, dtype=float)
    up = np.where(m > 0, graph.edge_tail, graph.edge_head)
    down = np.where(m > 0, graph.edge_head, graph.edge_tail)
    mag = np.abs(m)
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

        self.G = _advection_matrix(graph, flow)
        self.S_diag = _ambient_loss_diagonal(graph)
        self.V_diag = volumes.volumes_m3.copy()
        self.plant_massflow = np.abs(flow.massflow_kg_s[bc.producer_edges])
        self.consumer_massflow = np.abs(flow.massflow_kg_s[bc.consumer_edges])

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
        G = self.G.tocoo()
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


def _forcing(loss, plants, returns, plant_temps, deltas, ambient_c):
    """Ambient loss on the interior rows, boundary values on the rest:
    the plant temperatures on ``plants``, the negated drops on
    ``returns``. ``loss`` (``S_diag``) and the rows share one node order."""
    b = loss * ambient_c
    b[plants] = plant_temps
    b[returns] = -deltas
    return b


def assemble(graph, flow, volumes, constants, dt_s=None):
    """Assemble the sparse system for a network with fixed flows.

    ``dt_s=None`` builds a steady-only system. The boundary rows are the
    graph's :attr:`~dhnopt.network.NetworkGraph.boundary`.
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
    """Temperatures of ``nodes`` at the solved steps, ``(len(nodes), n_steps)``.

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


def simulate_system(system, grid, u, deltas, ambient, u_init=None):
    """Run the solution operator: control trajectory -> state trajectory.

    Parameters
    ----------
    system : SystemMatrices
        Assembled with ``dt_s == grid.dt_s``.
    grid : TimeGrid
    u : ndarray, shape (n_plants, n_steps)
        Plant supply temperature at steps ``1 .. n_steps``.
    deltas : ndarray, shape (n_consumers, n_steps + 1)
        Consumer temperature drops on the grid (column 0 feeds the
        initial steady state).
    ambient : ndarray, shape (n_steps + 1,)
    u_init : ndarray, shape (n_plants,), optional
        Plant temperatures defining the initial steady state; defaults
        to the first control column.

    The initial state is the steady solution under ``u_init`` and the
    grid's first boundary values. The transient matrix is factorized
    once, in the system's flow order, and reused for every step; the
    state is kept in flow order between steps, each step is a forward
    substitution for acyclic flows, and each is written back to node
    order in the returned trajectory.
    """
    u = np.asarray(u, dtype=float)
    n_p, n_c = system.bc.n_plants, system.bc.n_consumers
    if u.shape != (n_p, grid.n_steps):
        raise ValidationError(
            f"control must have shape ({n_p}, {grid.n_steps}), got {u.shape}"
        )
    deltas = np.asarray(deltas, dtype=float)
    if deltas.shape != (n_c, grid.n_steps + 1):
        raise ValidationError(
            f"deltas must have shape ({n_c}, {grid.n_steps + 1}), got {deltas.shape}"
        )
    ambient = np.asarray(ambient, dtype=float)
    if u_init is None:
        u_init = u[:, 0]

    if np.any(deltas < 0):
        raise ValidationError("consumer temperature deltas must be >= 0")
    y = np.empty((system.graph.n_nodes, grid.n_steps + 1))
    y[:, 0] = solve_steady(system, u_init, deltas[:, 0], ambient[0])
    lu = system.lu_transient
    # the forcing rows and the previous-state diagonal in flow order
    order = system.order
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    plants = rank[system.bc.plant_nodes]
    returns = rank[system.bc.consumer_return_nodes]
    loss, storage = system.S_diag[order], system.B_diag[order]
    x = y[order, 0]
    for k in range(1, grid.n_steps + 1):
        b = _forcing(loss, plants, returns, u[:, k - 1], deltas[:, k],
                     ambient[k])
        b += storage * x
        x = lu.solve(b)
        y[order, k] = x
    return StateTrajectory(values_c=y, grid=grid)


class CondensedMap:
    """Affine control-to-output map ``y = y_free + H * u`` (see :func:`condense`).

    For fixed flows and step size the backward-Euler recursion is linear
    and time-invariant, so the observed temperatures are the free
    response ``y_free`` ``(n_obs, n_steps)`` plus the causal convolution
    of the impulse response ``impulse`` ``(n_obs, n_plants, n_steps)``
    with the control. ``blocks`` holds the node arrays of the four row
    blocks: plant supply, plant return, consumer supply and consumer
    return. Only the ``n_plants + n_consumers`` rows of the middle two
    are convolved. The boundary rows of the system matrix fix the
    others: a plant supply node is held at the control, so its rows are
    ``u``, and a consumer return node sits ``delta`` below its supply
    node, so its rows are its free response plus the supply node's
    convolution.

    :meth:`convolve` is the forward, ``H * u`` on the convolved rows:
    two matrix products, one per row family (plant return, consumer
    supply), each over the family's numerical support, the fewest lags
    whose dropped tail is at most ``1e-20`` of the l1 mass of each of
    its rows, far below the round-off of the sums it would join. Over
    288 steps that is 62 and 48 lags on the feeder, 31 and 27 on the
    desk; every step when the horizon is shorter than the transit.
    :meth:`apply` adds the free response and fills in the other two
    blocks. :meth:`apply_transpose` is an FFT correlation with the whole
    impulse, zero-padded past ``2 * n_steps - 1`` so nothing wraps
    around, over the convolved rows whose output gradient may be
    nonzero: an objective gradient is zero on every consumer row whose
    bound holds, and none reads a consumer return row, whose limit is a
    supply bound (:attr:`~dhnopt.scenario.Scenario.supply_bound`). A
    plant supply row's gradient is a control gradient as it stands, so
    the caller adds it. Both directions reuse buffers the map owns, the
    sliding-window view of the padded control among them: a fresh
    megabyte-sized array per call costs about as much as the product or
    the transforms.
    """

    def __init__(self, blocks, y_free, impulse, grid):
        self.nodes = np.concatenate(blocks)
        self.y_free = y_free
        self.impulse = impulse
        self.grid = grid
        bounds = np.cumsum([0] + [b.size for b in blocks])
        rows = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        self._blocks = tuple(zip(blocks, rows))
        self._plants, self._returns = rows[0], rows[3]
        # the convolved rows (plant return, consumer supply) and, in
        # them, the consumer supply rows the consumer return rows repeat
        self._convolved = slice(bounds[1], bounds[3])
        self._supply = slice(bounds[2] - bounds[1], bounds[3] - bounds[1])
        n_conv, n = bounds[3] - bounds[1], grid.n_steps
        h = impulse[self._convolved]
        n_p = h.shape[1]
        # a row's support: the fewest lags whose dropped tail, summed
        # from the last lag back, is at most _SUPPORT_TOL of the l1 mass
        # of the row and each plant; a family's, the most of its rows'
        tails = np.cumsum(np.abs(h[..., ::-1]), axis=2)[..., ::-1]
        lags = (tails > _SUPPORT_TOL * tails[..., :1]).sum(axis=2).max(axis=1)
        s = int(lags.max(initial=1))
        # taps[:, p*s + i] is plant p's impulse at lag s - 1 - i: a
        # window of the control padded with s - 1 leading zeros, read
        # against it, is the causal convolution at the window's last step
        self._taps = np.ascontiguousarray(
            h[..., :s][..., ::-1].reshape(n_conv, n_p * s))
        self._padded = np.zeros((n_p, s - 1 + n))
        # the windows lag-major, windows[i, p] = view[p, i], so that each
        # family, plant return then consumer supply rows, multiplies its
        # taps at its own support f with one block, the last f lags
        self._view = np.moveaxis(sliding_window_view(self._padded, n, axis=1), 0, 1)
        self._windows = np.empty((s, n_p, n))
        self._h_u = np.empty((n_conv, n))
        taps = self._taps.reshape(n_conv, n_p, s).transpose(0, 2, 1)
        windows = self._windows.reshape(s * n_p, n)
        self._families = []
        for rows in (slice(0, n_p), slice(n_p, n_conv)):
            f = int(lags[rows].max(initial=1))
            self._families.append((
                np.ascontiguousarray(taps[rows, s - f:].reshape(-1, f * n_p)),
                windows[(s - f) * n_p:], self._h_u[rows]))
        self._n_fft = n_fft = sfft.next_fast_len(2 * n - 1, real=True)
        self._impulse_f = np.fft.rfft(h, n_fft)
        self._spectrum = np.empty((n_conv, n_fft // 2 + 1), dtype=complex)
        self._product = np.empty_like(self._spectrum)
        self._signal = np.empty((n_conv, n_fft))
        self._u_f = np.empty((n_p, n_fft // 2 + 1), dtype=complex)
        self._h_t = np.empty((n_p, n_fft))
        # The forward's sums are at most gain * max|u|, gain being the
        # largest l1 norm of a convolved row's impulse; the transpose's
        # FFTs stay below a small multiple of n_fft**2 * (1 + gain) times
        # their input. A control within this limit, 16 being that
        # multiple with room to spare, overflows neither.
        gain = np.abs(h).sum(axis=(1, 2)).max()
        self.control_limit = np.finfo(float).max / (16 * n_fft**2 * (1 + gain))

    def convolve(self, u):
        """``H * u`` on the plant return rows, then the consumer supply rows.

        Into a contiguous buffer the map owns: the next call overwrites
        it. A control not shaped ``(n_plants, n_steps)`` raises
        :class:`ValidationError`, and one with an entry that is not
        finite or exceeds ``control_limit`` in magnitude
        :class:`SolverError`; every other control gives finite outputs,
        so no output is scanned.
        """
        s, n_p, n = self._windows.shape
        if np.shape(u) != (n_p, n):
            raise ValidationError(
                f"control must have shape ({n_p}, {n}), got {np.shape(u)}")
        if not np.max(np.abs(u)) <= self.control_limit:
            raise SolverError("control is not finite or too large for the "
                              "condensed map")
        self._padded[:, s - 1:] = u
        np.copyto(self._windows, self._view)
        for taps, windows, out in self._families:
            np.matmul(taps, windows, out=out)
        return self._h_u

    def apply(self, u):
        """Observed temperatures under the control ``u``, every row."""
        h_u = self.convolve(u)
        y = np.empty_like(self.y_free)
        y[self._plants] = u
        np.add(self.y_free[self._convolved], h_u, out=y[self._convolved])
        np.add(self.y_free[self._returns], h_u[self._supply],
               out=y[self._returns])
        return ObservedTrajectory(self.nodes, y, self.grid, self._blocks)

    def apply_transpose(self, g, live):
        """``H^T`` of the output gradient that is ``g`` on the convolved
        rows ``live`` and zero on the others: the control gradient of
        ``sum(g * convolve(u)[live])``.

        ``live`` is an increasing index into the convolved rows, plant
        return then consumer supply, one entry per row of ``g``. Leaving
        the other rows out is exact: a zero row transforms to exact
        zeros, and adding exact zeros to the sum over rows changes no
        bit of it. The result is a view of a buffer the map owns: the
        next call overwrites it.
        """
        n = self.grid.n_steps
        signal = self._signal[:live.size]
        signal[:, :n] = g
        signal[:, n:] = 0.0
        g_f = np.fft.rfft(signal, out=self._spectrum[:live.size])
        # correlation: sum_o conj(H_f) g_f = conj(sum_o H_f conj(g_f)), so
        # g_f is conjugated in place instead of copying conj(H_f)
        np.conj(g_f, out=g_f)
        u_f, product = self._u_f, self._product[:live.size]
        for p, out in enumerate(u_f):
            np.multiply(g_f, self._impulse_f[live, p], out=product)
            product.sum(axis=0, out=out)
        np.conj(u_f, out=u_f)
        return np.fft.irfft(u_f, self._n_fft, out=self._h_t)[:, :n]


def condense(system, grid, deltas, ambient, u_init):
    """Build the :class:`CondensedMap` of the plant and consumer nodes.

    The observed rows are the plant supply, plant return, consumer
    supply and consumer return nodes, each block in boundary-spec order.
    The map is read off ``1 + n_plants`` runs of :func:`simulate_system`:
    ``y_free`` is the response to zero control from the steady state
    under ``u_init``, and plant ``p``'s column of ``impulse`` the
    response to a unit pulse of that plant at step 1 from zero state,
    with zero consumer drops and zero ambient. ``impulse`` keeps every
    observed row, but the map convolves only the
    ``n_plants + n_consumers`` plant return and consumer supply rows;
    the boundary rows of the system matrix fix the other two blocks.
    """
    bc = system.bc
    blocks = (bc.plant_nodes, bc.plant_return_nodes,
              bc.consumer_supply_nodes, bc.consumer_return_nodes)
    nodes = np.concatenate(blocks)
    n_p, n = bc.n_plants, grid.n_steps
    u = np.zeros((n_p, n))
    y_free = simulate_system(system, grid, u, deltas, ambient, u_init).rows(nodes)
    impulse = np.empty((nodes.size, n_p, n))
    no_drops, no_ambient = np.zeros_like(deltas), np.zeros(n + 1)
    for p in range(n_p):
        u[p, 0] = 1.0
        impulse[:, p] = simulate_system(system, grid, u, no_drops, no_ambient,
                                        np.zeros(n_p)).rows(nodes)
        u[p, 0] = 0.0
    return CondensedMap(blocks, y_free, impulse, grid)


def simulate(graph, flow, scenario, u):
    """Solution operator on a scenario's grid, boundary data and system.

    ``graph`` and ``flow`` must be the scenario's own instances; the
    scenario's cached factorization is reused.
    """
    if graph is not scenario.graph or flow is not scenario.flow:
        raise ValidationError("simulate needs the scenario's own graph and flow")
    return simulate_system(scenario.system, scenario.grid, u, scenario.deltas,
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
    state vector or a full trajectory array (nodes x steps).
    """
    y = np.asarray(y, dtype=float)
    v = volumes.volumes_m3
    weights = constants.rho_kg_m3 * constants.cp_j_per_kg_c * v
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
