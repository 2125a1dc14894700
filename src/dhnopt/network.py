"""Graph data model and file ingestion for district heating networks.

A network is a connected directed graph with a duplicated structure:
every location appears once on the hot supply side and once on the
cooled return side. Supply and return pipes stay within one side; a
consumer edge crosses from a supply node to a return node (heat
extraction at a substation) and a producer edge crosses back from
return to supply (the plant reheats the returning water).

Mass flows are a fixed external input, computed by a hydraulic tool and
ingested from file. They are validated for conservation and for the
exchanger layout, but never re-balanced here; bad input fails fast.

:func:`read_csv` and :func:`write_csv` are the package's one CSV reader
and one CSV writer: every CSV file the package reads or writes goes
through them, so the file format has a single owner.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import ParseError, ValidationError

NODE_SIDES = ("supply", "return")
EDGE_KINDS = ("supply", "return", "consumer", "producer")
PIPE_KINDS = ("supply", "return")
#: (tail side, head side) that each edge kind connects.
_EDGE_SIDES = {
    "supply": ("supply", "supply"),
    "return": ("return", "return"),
    "consumer": ("supply", "return"),
    "producer": ("return", "supply"),
}

#: Absolute tolerance on the per-node mass balance, kg/s.
MASS_BALANCE_TOL = 1e-9


class NetworkGraph:
    """Validated, immutable network graph.

    Nodes and edges keep their file order; the integer index of a node
    or edge is its position in that order, which makes runs
    reproducible. All per-edge quantities are stored as flat arrays
    aligned with the edge order.

    Parameters
    ----------
    node_ids, node_side, node_xy
        Node identifiers (unique strings), side labels
        ('supply'/'return'), and optional planar coordinates
        (shape ``(n, 2)``, NaN where absent).
    edge_ids, edge_kind, edge_tail, edge_head
        Edge identifiers, kind labels, and endpoint node indices.
    length_m, diameter_m, htc_w_per_m_c
        Per-edge pipe parameters; the cross section ``area_m2`` is
        derived from the diameter.
    """

    def __init__(self, node_ids, node_side, node_xy, edge_ids, edge_kind,
                 edge_tail, edge_head, length_m, diameter_m, htc_w_per_m_c):
        self.node_ids = list(node_ids)
        self.node_side = np.asarray(node_side, dtype=object)
        self.node_xy = np.asarray(node_xy, dtype=float)
        self.edge_ids = list(edge_ids)
        self.edge_kind = np.asarray(edge_kind, dtype=object)
        self.edge_tail = np.asarray(edge_tail, dtype=np.int64)
        self.edge_head = np.asarray(edge_head, dtype=np.int64)
        self.length_m = np.asarray(length_m, dtype=float)
        self.diameter_m = np.asarray(diameter_m, dtype=float)
        # per element in Python floats: numpy squares by multiplication,
        # which differs from float pow in the last bit for some diameters
        self.area_m2 = np.array([math.pi * d**2 / 4.0
                                 for d in self.diameter_m.tolist()])
        self.htc_w_per_m_c = np.asarray(htc_w_per_m_c, dtype=float)
        self.node_index = {nid: i for i, nid in enumerate(self.node_ids)}
        self.edge_index = {eid: i for i, eid in enumerate(self.edge_ids)}
        self._validate()

    # -- basic shape --------------------------------------------------

    @property
    def n_nodes(self):
        return len(self.node_ids)

    @property
    def n_edges(self):
        return len(self.edge_ids)

    def edges_of_kind(self, kind):
        """Indices of all edges of one kind, in file order."""
        return np.flatnonzero(self.edge_kind == kind)

    @property
    def consumer_edges(self):
        return self.edges_of_kind("consumer")

    @property
    def producer_edges(self):
        return self.edges_of_kind("producer")

    @property
    def pipe_edges(self):
        return np.flatnonzero(np.isin(self.edge_kind, PIPE_KINDS))

    @cached_property
    def boundary(self):
        """The graph's :class:`BoundarySpec`, derived on first use."""
        return BoundarySpec.from_graph(self)

    def incidence(self):
        """Sparse node-edge incidence matrix (-1 tail, +1 head)."""
        n_e = self.n_edges
        rows = np.concatenate([self.edge_tail, self.edge_head])
        cols = np.concatenate([np.arange(n_e), np.arange(n_e)])
        vals = np.concatenate([-np.ones(n_e), np.ones(n_e)])
        return sp.csc_matrix((vals, (rows, cols)), shape=(self.n_nodes, n_e))

    # -- validation ----------------------------------------------------

    def _validate(self):
        if len(set(self.node_ids)) != len(self.node_ids):
            raise ValidationError("duplicate node ids")
        if len(set(self.edge_ids)) != len(self.edge_ids):
            raise ValidationError("duplicate edge ids")
        if self.node_xy.shape != (self.n_nodes, 2):
            raise ValidationError("node coordinates must have shape (n_nodes, 2)")
        for arr, name in ((self.edge_tail, "edge_tail"), (self.edge_head, "edge_head")):
            if arr.shape != (self.n_edges,):
                raise ValidationError(f"{name} has wrong length")
            if arr.size and (arr.min() < 0 or arr.max() >= self.n_nodes):
                raise ValidationError(f"{name} references a node out of range")
        for side, nid in zip(self.node_side, self.node_ids):
            if side not in NODE_SIDES:
                raise ValidationError(f"node {nid!r}: unknown side {side!r}")

        sides = self.node_side.tolist()
        for eid, kind, t, h, length, diameter, htc in zip(
                self.edge_ids, self.edge_kind.tolist(), self.edge_tail.tolist(),
                self.edge_head.tolist(), self.length_m.tolist(),
                self.diameter_m.tolist(), self.htc_w_per_m_c.tolist(),
                strict=True):
            if kind not in EDGE_KINDS:
                raise ValidationError(f"edge {eid!r}: unknown kind {kind!r}")
            if t == h:
                raise ValidationError(f"edge {eid!r}: self loop")
            ts, hs = sides[t], sides[h]
            want = _EDGE_SIDES[kind]
            if (ts, hs) != want:
                raise ValidationError(
                    f"edge {eid!r}: kind {kind!r} must connect "
                    f"{want[0]} -> {want[1]} nodes, got {ts} -> {hs}"
                )
            if not length > 0:
                raise ValidationError(f"edge {eid!r}: length must be > 0")
            if not diameter > 0:
                raise ValidationError(f"edge {eid!r}: diameter must be > 0")
            if not htc >= 0:
                raise ValidationError(f"edge {eid!r}: heat transfer must be >= 0")

        if self.n_nodes > 1:
            adjacency = sp.coo_matrix(
                (np.ones(self.n_edges), (self.edge_tail, self.edge_head)),
                shape=(self.n_nodes, self.n_nodes))
            if connected_components(adjacency, directed=False)[0] != 1:
                raise ValidationError("graph is not connected")


@dataclass(frozen=True)
class BoundarySpec:
    """Index bookkeeping for the boundary rows.

    ``plant_nodes`` are the supply-side heads of the producer edges and
    carry Dirichlet rows (the control). ``consumer_return_nodes`` are
    the return-side heads of the consumer edges and carry the
    temperature-drop rows. Edge orientation equals flow direction for
    both kinds (enforced at flow validation).
    """

    producer_edges: np.ndarray
    plant_nodes: np.ndarray
    plant_return_nodes: np.ndarray
    consumer_edges: np.ndarray
    consumer_supply_nodes: np.ndarray
    consumer_return_nodes: np.ndarray

    @classmethod
    def from_graph(cls, graph):
        prod = graph.producer_edges
        cons = graph.consumer_edges
        if prod.size == 0:
            raise ValidationError("network has no producer edge")
        if cons.size == 0:
            raise ValidationError("network has no consumer edge")
        plant_nodes = graph.edge_head[prod]
        if len(np.unique(plant_nodes)) != len(plant_nodes):
            raise ValidationError("two producer edges share a plant supply node")
        creturn = graph.edge_head[cons]
        if len(np.unique(creturn)) != len(creturn):
            raise ValidationError("two consumer edges share a return node")
        overlap = np.intersect1d(plant_nodes, creturn)
        if overlap.size:
            raise ValidationError("plant node also a consumer return node")
        return cls(
            producer_edges=prod,
            plant_nodes=plant_nodes,
            plant_return_nodes=graph.edge_tail[prod],
            consumer_edges=cons,
            consumer_supply_nodes=graph.edge_tail[cons],
            consumer_return_nodes=creturn,
        )

    @property
    def n_plants(self):
        return len(self.producer_edges)

    @property
    def n_consumers(self):
        return len(self.consumer_edges)


@dataclass(frozen=True)
class ControlVolumes:
    """Water volume attributed to each node for thermal inertia."""

    volumes_m3: np.ndarray


class FlowField:
    """Signed mass flow per edge, kg/s, positive along edge orientation."""

    def __init__(self, massflow_kg_s):
        self.massflow_kg_s = np.asarray(massflow_kg_s, dtype=float)

    def validate_against(self, graph):
        """Check stagnation, conservation and the exchanger layout.

        Consumer and producer edges must carry flow along the edge
        direction (supply -> return and return -> supply respectively),
        and their heads may receive no other flow: the thermal model
        replaces those nodes' balance rows, so any further inflow there
        would be silently lost. Give each substation a dedicated return
        port that joins the trunk at a separate junction node.
        """
        m = self.massflow_kg_s
        if m.shape != (graph.n_edges,):
            raise ValidationError(
                f"flow field has {m.shape[0]} values for {graph.n_edges} edges"
            )
        if not np.all(np.isfinite(m)):
            raise ValidationError("flow field contains non-finite values")
        zero = np.flatnonzero(m == 0.0)
        if zero.size:
            raise ValidationError(
                f"edge {graph.edge_ids[zero[0]]!r}: zero mass flow (stagnation)"
            )
        imbalance = graph.incidence() @ m
        bad = np.flatnonzero(np.abs(imbalance) > MASS_BALANCE_TOL)
        if bad.size:
            i = bad[0]
            raise ValidationError(
                f"node {graph.node_ids[i]!r}: mass imbalance "
                f"{imbalance[i]:.3e} kg/s exceeds {MASS_BALANCE_TOL} kg/s"
            )
        consumers, producers = graph.consumer_edges, graph.producer_edges
        exchangers = np.concatenate([consumers, producers])
        backward = exchangers[m[exchangers] <= 0]
        if backward.size:
            e = backward[0]
            raise ValidationError(
                f"edge {graph.edge_ids[e]!r}: {graph.edge_kind[e]} edges "
                f"must carry flow along their orientation (got {m[e]} kg/s)"
            )
        inflows = np.bincount(np.where(m > 0, graph.edge_head, graph.edge_tail),
                              minlength=graph.n_nodes)
        for edges, message in (
                (consumers, "consumer return node {!r} receives flow besides "
                 "its consumer edge; use a dedicated return port per "
                 "substation"),
                (producers, "plant supply node {!r} receives flow besides its "
                 "producer edge")):
            heads = graph.edge_head[edges]
            bad = heads[inflows[heads] > 1]
            if bad.size:
                raise ValidationError(message.format(graph.node_ids[bad[0]]))
        return self


def control_volumes(graph):
    """Per-node control volumes: half of each incident pipe's volume.

    Every edge's water volume ``A * l`` is split evenly between its two
    endpoints, so the volumes sum to the network's total water content.
    """
    vol = np.zeros(graph.n_nodes)
    half = graph.area_m2 * graph.length_m / 2.0
    np.add.at(vol, graph.edge_tail, half)
    np.add.at(vol, graph.edge_head, half)
    isolated = np.flatnonzero(vol <= 0.0)
    if isolated.size:
        raise ValidationError(
            f"node {graph.node_ids[isolated[0]]!r} has no incident edges"
        )
    return ControlVolumes(volumes_m3=vol)


# ---------------------------------------------------------------------------
# file ingestion
# ---------------------------------------------------------------------------

_NODE_HEADER = ["node_id", "side", "x", "y"]
_EDGE_HEADER = ["edge_id", "from_node", "to_node", "kind",
                "length_m", "diameter_m", "htc_w_per_m_c"]
_FLOW_HEADER = ["edge_id", "massflow_kg_s"]


#: Records read and transposed into the columns at a time. A chunk's row
#: lists are freed once the next chunk is read, so at most two chunks of
#: them are alive: fewer than the 700 net container allocations that
#: start a cyclic garbage collection in CPython by default. Keeping every
#: row alive instead makes the collector re-walk them again and again.
_CHUNK_ROWS = 256


def read_csv(path, header, floats=(), blank_nan=()):
    """Columns of a CSV file with a fixed header.

    Returns ``(lines, columns)``: ``lines`` lists the record number of
    every data row in file order (the header is record 1; blank records
    are skipped but counted), and ``columns`` maps each header name to
    its column. Columns named in ``floats`` are float arrays; those also
    in ``blank_nan`` read an empty field as NaN. Every other column is a
    list of strings. Fields are read with the :mod:`csv` dialect, so they
    may be quoted, and surrounding whitespace is stripped.

    Raises
    ------
    ParseError
        Empty file, wrong header, wrong field count or bad number; the
        message names the file and the first faulty record, and within
        a record the first faulty column of ``floats``.
    """
    n = len(header)
    lines, columns = [], {name: [] for name in header}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None:
            raise ParseError(f"{path}:1: empty file")
        if [h.strip() for h in first] != header:
            raise ParseError(f"{path}:1: expected header {','.join(header)!r}, "
                             f"got {','.join(first)!r}")
        lineno = 2
        while chunk := list(islice(reader, _CHUNK_ROWS)):
            numbers = range(lineno, lineno + len(chunk))
            lineno += len(chunk)
            if not all(chunk):
                numbers = [k for k, row in zip(numbers, chunk) if row]
                chunk = [row for row in chunk if row]
            if set(map(len, chunk)) - {n}:
                j = next(j for j, row in enumerate(chunk) if len(row) != n)
                _append_rows(lines, columns, numbers[:j], chunk[:j])
                # a bad number in an earlier record is the first fault
                _float_columns(path, lines, columns, floats, blank_nan)
                raise ParseError(f"{path}:{numbers[j]}: expected {n} "
                                 f"fields, got {len(chunk[j])}")
            _append_rows(lines, columns, numbers, chunk)
    columns.update(_float_columns(path, lines, columns, floats, blank_nan))
    return lines, columns


def _append_rows(lines, columns, numbers, rows):
    lines.extend(numbers)
    for column, fields in zip(columns.values(), zip(*rows)):
        column.extend(map(str.strip, fields))


def _float_or_nan(field):
    return float(field) if field else math.nan


def _float_columns(path, lines, columns, floats, blank_nan):
    """Parse the ``floats`` columns; a bad number raises for its record."""
    convert = {name: _float_or_nan if name in blank_nan else float
               for name in floats}
    try:
        return {name: np.array(list(map(convert[name], columns[name])),
                               dtype=float) for name in floats}
    except ValueError:
        for i, lineno in enumerate(lines):
            for name in floats:
                field = columns[name][i]
                try:
                    convert[name](field)
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: bad {name} value "
                                     f"{field!r}") from None
        raise


class _RecordFile:
    r"""File for ``csv.writer``, which hands each record with its ``\r\n``
    to one ``write`` call; the record is written ending in ``\n``.

    csv quotes a field when it holds a character of the line terminator.
    With a ``\n`` terminator a bare ``\r`` would go unquoted and split
    the record on reading, so records are formatted with ``\r\n`` and
    written with ``\n``; fields without ``\r`` come out as with ``\n``.
    """

    def __init__(self, fh):
        self._fh = fh

    def write(self, record):
        return self._fh.write(record[:-2] + "\n")


def write_csv(path, columns, blank_nan=()):
    """Write ``{header name: column}`` as a CSV file read by :func:`read_csv`.

    A column is a numpy array or a sequence of strings, all of one
    length. Float arrays are written as the ``repr`` of each value, so
    they read back bit-exactly, and a NaN in a column named in
    ``blank_nan`` is written as an empty field. Other arrays (integers,
    labels) are written with ``str``, strings as they are; a field is
    quoted where the :mod:`csv` dialect needs it.
    """
    fields = [_format_column(column, name in blank_nan)
              for name, column in columns.items()]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(_RecordFile(fh), lineterminator="\r\n")
        writer.writerow(columns)
        writer.writerows(zip(*fields, strict=True))


def _format_column(column, blank_nan):
    """Lazy fields of one column."""
    if not isinstance(column, np.ndarray):
        return column
    values = column.tolist()
    if column.dtype.kind != "f":
        return map(str, values)
    if blank_nan:
        return ("" if math.isnan(v) else repr(v) for v in values)
    return map(repr, values)


def parse_network(node_file, edge_file):
    """Load and validate a network from node and edge CSV files.

    Raises
    ------
    ParseError
        Malformed row; the message names the file and line.
    ValidationError
        Structural invariant violated; the message names the node/edge.
    """
    _, nodes = read_csv(node_file, _NODE_HEADER, ("x", "y"),
                        blank_nan=("x", "y"))
    node_index = {nid: i for i, nid in enumerate(nodes["node_id"])}
    lines, edges = read_csv(edge_file, _EDGE_HEADER,
                            ("length_m", "diameter_m", "htc_w_per_m_c"))
    for lineno, eid, frm, to in zip(lines, edges["edge_id"],
                                    edges["from_node"], edges["to_node"]):
        for nid in (frm, to):
            if nid not in node_index:
                raise ValidationError(
                    f"edge {eid!r} ({edge_file}:{lineno}) references unknown node {nid!r}"
                )
    return NetworkGraph(nodes["node_id"], nodes["side"],
                        np.column_stack([nodes["x"], nodes["y"]]),
                        edges["edge_id"], edges["kind"],
                        [node_index[nid] for nid in edges["from_node"]],
                        [node_index[nid] for nid in edges["to_node"]],
                        edges["length_m"], edges["diameter_m"],
                        edges["htc_w_per_m_c"])


def write_network(graph, node_file, edge_file):
    """Write a graph back to the CSV schemas read by :func:`parse_network`."""
    ids = np.array(graph.node_ids, dtype=object)
    write_csv(node_file, {"node_id": graph.node_ids, "side": graph.node_side,
                          "x": graph.node_xy[:, 0], "y": graph.node_xy[:, 1]},
              blank_nan=("x", "y"))
    write_csv(edge_file, {"edge_id": graph.edge_ids,
                          "from_node": ids[graph.edge_tail],
                          "to_node": ids[graph.edge_head],
                          "kind": graph.edge_kind,
                          "length_m": graph.length_m,
                          "diameter_m": graph.diameter_m,
                          "htc_w_per_m_c": graph.htc_w_per_m_c})


def load_flow_field(flow_file, graph):
    """Load mass flows and validate them against the graph."""
    lines, cols = read_csv(flow_file, _FLOW_HEADER, ("massflow_kg_s",))
    values = {}
    for lineno, eid, val in zip(lines, cols["edge_id"],
                                cols["massflow_kg_s"].tolist()):
        if eid not in graph.edge_index:
            raise ValidationError(
                f"flow file {flow_file}:{lineno}: unknown edge {eid!r}"
            )
        if eid in values:
            raise ValidationError(
                f"flow file {flow_file}:{lineno}: duplicate edge {eid!r}"
            )
        values[eid] = val
    missing = [eid for eid in graph.edge_ids if eid not in values]
    if missing:
        raise ValidationError(f"flow file {flow_file}: missing edge {missing[0]!r}")
    m = np.array([values[eid] for eid in graph.edge_ids])
    return FlowField(m).validate_against(graph)


def write_flow_field(flow, graph, flow_file):
    """Write a flow field to the CSV schema read by :func:`load_flow_field`."""
    write_csv(flow_file, {"edge_id": graph.edge_ids,
                          "massflow_kg_s": flow.massflow_kg_s})


# ---------------------------------------------------------------------------
# discretization helper
# ---------------------------------------------------------------------------

def subdivide_pipes(graph, flow, max_cell_length_m=100.0):
    """Split supply/return pipes into cells of at most the given length.

    Each pipe of length ``l`` becomes ``ceil(l / max_cell_length_m)``
    equal segments, with interior nodes inserted on the pipe's side.
    Consumer and producer edges are heat-exchanger interfaces, not
    pipes, and are never split. Interior node coordinates are
    interpolated when both endpoints have coordinates.

    Returns the refined graph and the flow field expanded to the new
    edge list (every segment of a pipe carries the parent pipe's flow).
    ``flow`` must already be validated against ``graph``: splitting a
    pipe adds no junction and no exchanger edge, so the expanded field
    is valid on the refined graph without a second check.
    """
    if not max_cell_length_m > 0:
        raise ValidationError("max_cell_length_m must be > 0")
    cells = [max(1, math.ceil(length / max_cell_length_m - 1e-12))
             if kind in PIPE_KINDS else 1
             for kind, length in zip(graph.edge_kind, graph.length_m.tolist())]
    node_ids = list(graph.node_ids)
    sides = list(graph.node_side)
    xy = [graph.node_xy]
    edge_ids, tails, heads = [], [], []
    for eid, kind, n_cells, t, h in zip(
            graph.edge_ids, graph.edge_kind, cells,
            graph.edge_tail.tolist(), graph.edge_head.tolist()):
        if n_cells == 1:
            edge_ids.append(eid)
            tails.append(t)
            heads.append(h)
            continue
        first = len(node_ids)
        chain = [t, *range(first, first + n_cells - 1), h]
        node_ids.extend(f"{eid}#n{j}" for j in range(1, n_cells))
        sides.extend([kind] * (n_cells - 1))
        frac = np.arange(1, n_cells)[:, None] / n_cells
        p0, p1 = graph.node_xy[t], graph.node_xy[h]
        xy.append(p0 + frac * (p1 - p0))
        edge_ids.extend(f"{eid}#s{j}" for j in range(n_cells))
        tails.extend(chain[:-1])
        heads.extend(chain[1:])

    refined = NetworkGraph(node_ids, sides, np.vstack(xy), edge_ids,
                           np.repeat(graph.edge_kind, cells), tails, heads,
                           np.repeat(graph.length_m / cells, cells),
                           np.repeat(graph.diameter_m, cells),
                           np.repeat(graph.htc_w_per_m_c, cells))
    return refined, FlowField(np.repeat(flow.massflow_kg_s, cells))
