r"""Graph data model and file ingestion for district heating networks.

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
through them, so the file format has a single owner. The reader has two
record paths. It splits a block of text on ``\n`` and commas with
``str.split``, and parses the block's float columns at once, only where
that gives the fields ``csv.reader`` gives: the file has more than one
column, and the block holds no double quote, no ``\r``, no field over
the :mod:`csv` size limit and no record with a wrong field count. From
the first block that fails, ``csv.reader`` reads the rest of the file,
so a CR or CRLF, quoted, one-column or faulty file reads as :mod:`csv`
reads it; :mod:`csv` stays the one authority on the dialect.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

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
        self.htc_w_per_m_c = np.asarray(htc_w_per_m_c, dtype=float)
        self.node_index = dict(zip(self.node_ids, range(len(self.node_ids))))
        self.edge_index = dict(zip(self.edge_ids, range(len(self.edge_ids))))
        self._validate()
        # float_power calls C pow, as a Python float's d**2 does; numpy's
        # squaring multiplies, which differs in the last bit for some
        # diameters
        self.area_m2 = math.pi * np.float_power(self.diameter_m, 2) / 4.0

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
        if len(self.node_index) != self.n_nodes:
            raise ValidationError("duplicate node ids")
        if len(self.edge_index) != self.n_edges:
            raise ValidationError("duplicate edge ids")
        if self.node_xy.shape != (self.n_nodes, 2):
            raise ValidationError("node coordinates must have shape (n_nodes, 2)")
        for arr, name in ((self.edge_tail, "edge_tail"), (self.edge_head, "edge_head")):
            if arr.shape != (self.n_edges,):
                raise ValidationError(f"{name} has wrong length")
            if arr.size and (arr.min() < 0 or arr.max() >= self.n_nodes):
                raise ValidationError(f"{name} references a node out of range")
        for name, size in (("node_side", self.n_nodes), ("edge_kind", self.n_edges),
                           ("length_m", self.n_edges), ("diameter_m", self.n_edges),
                           ("htc_w_per_m_c", self.n_edges)):
            if getattr(self, name).shape != (size,):
                raise ValidationError(f"{name} has wrong length")
        bad = np.flatnonzero(~np.isin(self.node_side, NODE_SIDES))
        if bad.size:
            i = bad[0]
            raise ValidationError(f"node {self.node_ids[i]!r}: unknown side "
                                  f"{self.node_side[i]!r}")
        self._validate_edges()

        if self.n_nodes > 1:
            adjacency = sp.coo_matrix(
                (np.ones(self.n_edges), (self.edge_tail, self.edge_head)),
                shape=(self.n_nodes, self.n_nodes))
            if connected_components(adjacency, directed=False)[0] != 1:
                raise ValidationError("graph is not connected")

    def _validate_edges(self):
        """Each per-edge check as one array test; the first edge that
        fails any check is named, with the first check it fails."""
        kind, t, h = self.edge_kind, self.edge_tail, self.edge_head
        length, d, htc = self.length_m, self.diameter_m, self.htc_w_per_m_c
        on_return = self.node_side == "return"
        # per edge whether its tail and its head must be on the return
        # side; -1 for an unknown kind
        want = np.full((2, self.n_edges), -1)
        for k, sides in _EDGE_SIDES.items():
            want[:, kind == k] = [[side == "return"] for side in sides]
        with np.errstate(over="ignore"):
            area_overflows = ~(math.pi * d * d < math.inf)
        # (failing edges, message) in the order the checks apply to an edge
        checks = (
            (want[0] < 0, "unknown kind {kind!r}"),
            (t == h, "self loop"),
            ((on_return[t] != want[0]) | (on_return[h] != want[1]),
             "kind {kind!r} must connect {want[0]} -> {want[1]} nodes, "
             "got {ts} -> {hs}"),
            (~((length > 0) & (length < math.inf)),
             "length must be > 0 and finite"),
            # the cross section pi d^2 / 4 must be finite too
            (~(d > 0) | area_overflows,
             "diameter must be > 0 and give a finite cross section"),
            (~((htc >= 0) & (htc < math.inf)),
             "heat transfer must be >= 0 and finite"),
        )
        failing = np.column_stack([fails for fails, _ in checks])
        bad = np.flatnonzero(failing.any(axis=1))
        if bad.size:
            e = bad[0]
            message = checks[np.argmax(failing[e])][1]
            raise ValidationError(f"edge {self.edge_ids[e]!r}: " + message.format(
                kind=kind[e], want=_EDGE_SIDES.get(kind[e]),
                ts=self.node_side[t[e]], hs=self.node_side[h[e]]))


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


def check_flow(graph, massflow_kg_s):
    """The edge mass flows as a float array, once checked against ``graph``.

    The flow is signed, kg/s, positive along the edge orientation, one
    value per edge in edge order: the form every model function takes.
    The checks are stagnation, conservation and the exchanger layout.
    Consumer and producer edges must carry flow along the edge
    direction (supply -> return and return -> supply respectively), and
    their heads may receive no other flow: the thermal model replaces
    those nodes' balance rows, so any further inflow there would be
    silently lost. Give each substation a dedicated return port that
    joins the trunk at a separate junction node.
    """
    m = np.asarray(massflow_kg_s, dtype=float)
    if m.shape != (graph.n_edges,):
        raise ValidationError(
            f"flow field has shape {m.shape} for {graph.n_edges} edges"
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
    return m


def control_volumes(graph):
    """Per-node control volumes in m^3: half of each incident pipe's volume.

    Returns a float array in node order, the water volume attributed to
    each node for thermal inertia. Every edge's water volume ``A * l`` is
    split evenly between its two endpoints, so the volumes sum to the
    network's total water content.
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
    return vol


# ---------------------------------------------------------------------------
# file ingestion
# ---------------------------------------------------------------------------

_NODE_HEADER = ["node_id", "side", "x", "y"]
_EDGE_HEADER = ["edge_id", "from_node", "to_node", "kind",
                "length_m", "diameter_m", "htc_w_per_m_c"]
_FLOW_HEADER = ["edge_id", "massflow_kg_s"]


#: Bytes read and decoded at a time. A block that :meth:`_Table.add_split`
#: takes is split into fields with ``str.split`` and its float columns are
#: parsed before the next block is read, so the float fields of the whole
#: file are never alive as strings at once.
_BLOCK_BYTES = 1 << 16
#: Every byte but the comma and the newline: deleted from a block of
#: UTF-8 text, they leave its field and record separators in order.
_NOT_SEPARATORS = bytes(sorted(set(range(256)) - set(b",\n")))
#: Records the :mod:`csv` path reads and transposes at a time. A chunk's
#: row lists are freed once the next chunk is read, so at most two chunks
#: of them are alive: fewer than the 700 net container allocations that
#: start a cyclic garbage collection in CPython by default. Keeping every
#: row alive instead makes the collector re-walk them again and again.
_CHUNK_ROWS = 256


def read_csv(path, header, floats=(), blank_nan=()):
    r"""Columns of a CSV file with a fixed header.

    Returns ``(lines, columns)``: ``lines`` is an int64 array of the
    record numbers of the data rows in file order (the header is record
    1; blank records are skipped but counted), and ``columns`` maps each
    header name to its column. Columns named in ``floats`` are float
    arrays; those also in ``blank_nan`` read an empty field as NaN. Every
    other column is a list of strings. Fields are read with the
    :mod:`csv` dialect, so they may be quoted, and surrounding whitespace
    is stripped. A record ends at ``\n``, ``\r\n`` or ``\r``. A
    byte-order mark at the start of the file is skipped.

    The file is read in blocks of text. Each block, with the part record
    left over from the block before, is split with ``str.split`` if
    :meth:`_Table.add_split` can read it exactly. From the first block
    it cannot, the rest of the file goes through ``csv.reader``.

    Raises
    ------
    ParseError
        Empty file, wrong header, wrong field count, bad number, a field
        longer than ``csv.field_size_limit()`` or bytes that are not
        UTF-8; the message names the file and the first faulty record,
        and within a record the first faulty column of ``floats``.
    """
    table = _Table(path, header, floats, blank_nan)
    with open(path, "rb") as fh:
        blocks = _text_blocks(fh)
        carry = ""  # the text read after the last whole record
        try:
            for block in blocks:
                text = carry + block
                if table.lines is None and not carry:  # the start of the file
                    text = text.removeprefix("\ufeff")
                carry = table.add_split(text)
                if carry is None:
                    table.add_csv(_lines(chain([text], blocks)))
                    break
            else:
                if carry:
                    table.add_csv([carry])
        except _BadBytes as exc:
            table.fault(exc)
    return table.result()


class _BadBytes(Exception):
    """The file holds bytes that are not UTF-8; the text before them is read."""


def _text_blocks(fh):
    """The text of a binary file, decoded as UTF-8 in blocks.

    Before a byte that is not UTF-8 raises :class:`_BadBytes`, the text
    up to it is yielded as one more block.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    while True:
        raw = fh.read(_BLOCK_BYTES)
        try:
            text = decoder.decode(raw, final=not raw)
        except UnicodeDecodeError as exc:
            yield exc.object[:exc.start].decode("utf-8")
            raise _BadBytes(f"not UTF-8: {exc.reason}") from None
        yield text
        if not raw:
            return


def _lines(blocks):
    """The lines of the text ``blocks``, each with its terminator, as a
    file opened with ``newline=""`` gives them."""
    text = ""
    try:
        for block in blocks:
            lines = io.StringIO(text + block, newline="").readlines()
            # the last line may go on in the next block
            text = lines.pop() if lines and not lines[-1].endswith("\n") else ""
            yield from lines
    except _BadBytes:
        if text.endswith("\r"):
            yield text
        raise
    if text:
        yield text


class _Table:
    """The columns of one CSV file, built from its records in file order.

    ``lineno`` is the number of the next record, and ``lines`` holds the
    record numbers of the data rows read, one integer array per block.
    Every ``add_*`` method takes the next records of the file; a fault
    raises for the first faulty record, once every earlier record is
    added.
    """

    def __init__(self, path, header, floats, blank_nan):
        self.path, self.header = path, header
        self.floats, self.blank_nan = floats, blank_nan
        self.lineno = 1
        self.lines = None  # None until the header is read
        self.strings = {name: [] for name in header if name not in floats}
        self.arrays = {name: [] for name in floats}

    def result(self):
        if self.lines is None:
            raise ParseError(f"{self.path}:1: empty file")
        columns = {}
        for name in self.header:
            if name in self.arrays:
                columns[name] = np.concatenate([np.empty(0), *self.arrays[name]])
            else:
                columns[name] = self.strings[name]
        return np.concatenate([np.empty(0, np.int64), *self.lines]), columns

    def fault(self, message):
        """Raise ``message`` for the record being read."""
        raise ParseError(f"{self.path}:{self.lineno}: {message}")

    def add_split(self, text):
        r"""The whole records of ``text``, split with ``str.split``; returns
        the text after them.

        Reads nothing and returns None unless ``str.split`` gives the
        fields :mod:`csv` gives: the header has ``n > 1`` columns, ``text``
        holds no ``"`` and no ``\r`` and is no longer than
        ``csv.field_size_limit()``, and every whole record holds exactly
        ``n - 1`` commas, which a blank record does not.
        """
        n = len(self.header)
        if (n == 1 or '"' in text or "\r" in text
                or len(text) > csv.field_size_limit()):
            return None
        end = text.rfind("\n") + 1
        records = text[:end]
        separators = records.encode("utf-8").translate(None, _NOT_SEPARATORS)
        count = separators.count(b"\n")
        if separators != (b"," * (n - 1) + b"\n") * count:
            return None
        if self.lines is None and count:
            first, records = records.split("\n", 1)
            self._add_rows([first.split(",")])
            count -= 1
        numbers = np.arange(self.lineno, self.lineno + count)
        self.lineno += count
        fields = records[:-1].replace("\n", ",").split(",")
        self._add_columns(numbers, [fields[j::n] for j in range(n)])
        return text[end:]

    def add_csv(self, lines):
        """The records of ``lines``, read with ``csv.reader``."""
        rows = []
        try:
            for row in csv.reader(lines):
                rows.append(row)
                if len(rows) == _CHUNK_ROWS:
                    self._add_rows(rows)
                    rows = []
        except (csv.Error, _BadBytes) as exc:
            self._add_rows(rows)
            self.fault(exc)
        self._add_rows(rows)

    def _add_rows(self, rows):
        """Records as field lists; a blank record is an empty list."""
        numbers = np.arange(self.lineno, self.lineno + len(rows))
        self.lineno += len(rows)
        if self.lines is None and rows:
            first, rows, numbers = rows[0], rows[1:], numbers[1:]
            if [h.strip() for h in first] != self.header:
                raise ParseError(f"{self.path}:1: expected header "
                                 f"{','.join(self.header)!r}, got {','.join(first)!r}")
            self.lines = []
        if not all(rows):
            numbers = numbers[list(map(bool, rows))]
            rows = [row for row in rows if row]
        n = len(self.header)
        if set(map(len, rows)) - {n}:
            j = next(j for j, row in enumerate(rows) if len(row) != n)
            # a bad number in an earlier record is the first fault
            self._add_columns(numbers[:j], list(zip(*rows[:j])))
            raise ParseError(f"{self.path}:{numbers[j]}: expected {n} "
                             f"fields, got {len(rows[j])}")
        self._add_columns(numbers, list(zip(*rows)))

    def _add_columns(self, numbers, fields):
        """Records ``numbers`` given as one field sequence per column."""
        if not numbers.size:
            return
        columns = dict(zip(self.header, fields))
        try:
            arrays = [np.fromiter(map(float, columns[name]), float, len(numbers))
                      for name in self.floats]
        except ValueError:
            arrays = self._parse_floats(numbers, columns)
        self.lines.append(numbers)
        for name, values in zip(self.floats, arrays):
            self.arrays[name].append(values)
        for name, column in self.strings.items():
            column.extend(map(str.strip, columns[name]))

    def _parse_floats(self, numbers, columns):
        """The ``floats`` columns from stripped fields, ``blank_nan`` ones
        reading a blank as NaN; a bad number raises for its record."""
        convert = {name: _float_or_nan if name in self.blank_nan else float
                   for name in self.floats}
        fields = {name: list(map(str.strip, columns[name])) for name in self.floats}
        try:
            return [np.array(list(map(convert[name], fields[name])), dtype=float)
                    for name in self.floats]
        except ValueError:
            for i, lineno in enumerate(numbers):
                for name in self.floats:
                    try:
                        convert[name](fields[name][i])
                    except ValueError:
                        raise ParseError(f"{self.path}:{lineno}: bad {name} "
                                         f"value {fields[name][i]!r}") from None
            raise


def _float_or_nan(field):
    return float(field) if field else math.nan


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


#: Records :func:`write_csv` formats and writes at a time, so the fields of
#: a long table are never alive as strings at once.
_WRITE_ROWS = 256


def write_csv(path, columns, blank_nan=()):
    """Write ``{header name: column}`` as a CSV file read by :func:`read_csv`.

    A column is a numpy array or a sequence of strings, all of one
    length. Float arrays are written as the ``repr`` of each value, so
    they read back bit-exactly, and a NaN in a column named in
    ``blank_nan`` is written as an empty field. Other arrays (integers,
    labels) are written with ``str``, strings as they are; a field is
    quoted where the :mod:`csv` dialect needs it.

    The records are formatted and written :data:`_WRITE_ROWS` at a time;
    :func:`_write_block` joins a block with commas where that gives the
    bytes ``csv.writer`` gives, and hands it to ``csv.writer`` otherwise.
    Columns of unequal length raise ``ValueError``.
    """
    sizes = {len(column) for column in columns.values()}
    if len(sizes) > 1:
        raise ValueError(f"columns of unequal length {sorted(sizes)}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        # read_csv skips a byte-order mark at the start of the file, so a
        # first name that starts with one is written after one more
        if next(iter(columns), "").startswith("\ufeff"):
            fh.write("\ufeff")
        writer = csv.writer(_RecordFile(fh), lineterminator="\r\n")
        writer.writerow(columns)
        for start in range(0, max(sizes, default=0), _WRITE_ROWS):
            _write_block(fh, writer, [
                _format_column(column[start:start + _WRITE_ROWS], name in blank_nan)
                for name, column in columns.items()])


def _write_block(fh, writer, fields):
    r"""Records given as one field sequence per column.

    They are joined with commas where :mod:`csv` would quote no field:
    the table has more than one column (csv quotes the one empty field
    of a one-column record), and every field is a string free of ``,``,
    ``"``, ``\r`` and ``\n``. Otherwise ``writer`` writes them.
    """
    try:
        plain = len(fields) > 1 and not any(
            c in text for text in map("".join, fields) for c in ',"\r\n')
    except TypeError:  # a field that is not a string: csv writes its str
        plain = False
    if plain:
        fh.write("\n".join(map(",".join, zip(*fields))) + "\n")
    else:
        writer.writerows(zip(*fields))


def _format_column(column, blank_nan):
    """The fields of one column."""
    if not isinstance(column, np.ndarray):
        return column
    values = column.tolist()
    if column.dtype.kind != "f":
        return list(map(str, values))
    if blank_nan:
        return ["" if math.isnan(v) else repr(v) for v in values]
    return list(map(repr, values))


def check_finite(path, lines, columns, names, ids=None):
    """Reject a NaN or infinite value in the ``names`` columns of a file
    read by :func:`read_csv` as ``(lines, columns)``.

    The first faulty record is named, and within it the first faulty
    column; ``ids``, if given, names each row's consumer. A NaN sample
    time would sort last and pass the uniform-spacing test.
    """
    finite = np.column_stack([np.isfinite(columns[name]) for name in names])
    bad = np.flatnonzero(~finite.all(axis=1))
    if bad.size:
        i = bad[0]
        name = names[np.argmin(finite[i])]
        who = "" if ids is None else f"consumer {ids[i]!r}: "
        raise ValidationError(f"{path}:{lines[i]}: {who}{name} is not finite")


def rows_by_id(path, lines, ids, index, what):
    """The row of each id of ``index`` in the id column ``ids``.

    ``index`` maps every expected id to its position, ``0, 1, ...`` in
    iteration order, and the result lists the rows in that order. Row
    ``k`` is record ``lines[k]`` of ``path``.

    Raises
    ------
    ValidationError
        An id that ``index`` lacks or that comes twice, naming the file
        and record; an id of ``index`` with no row, naming the file.
        ``what`` names the kind of id.
    """
    rows = [-1] * len(index)
    for row, (lineno, key) in enumerate(zip(lines.tolist(), ids)):
        i = index.get(key)
        if i is None:
            raise ValidationError(f"{path}:{lineno}: unknown {what} {key!r}")
        if rows[i] >= 0:
            raise ValidationError(f"{path}:{lineno}: duplicate {what} {key!r}")
        rows[i] = row
    if -1 in rows:
        missing = list(index)[rows.index(-1)]
        raise ValidationError(f"{path}: missing {what} {missing!r}")
    return rows


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
    for lineno, eid, frm, to in zip(lines.tolist(), edges["edge_id"],
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
    """Load the edge mass flows, the array :func:`check_flow` returns."""
    lines, cols = read_csv(flow_file, _FLOW_HEADER, ("massflow_kg_s",))
    rows = rows_by_id(flow_file, lines, cols["edge_id"], graph.edge_index, "edge")
    return check_flow(graph, cols["massflow_kg_s"][rows])


def write_flow_field(flow, graph, flow_file):
    """Write edge mass flows in the CSV schema :func:`load_flow_field` reads."""
    write_csv(flow_file, {"edge_id": graph.edge_ids,
                          "massflow_kg_s": flow})


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

    Returns the refined graph and the mass flows expanded to the new
    edge list (every segment of a pipe carries the parent pipe's flow).
    ``flow`` must already be :func:`check_flow`'s array for ``graph``:
    splitting a pipe adds no junction and no exchanger edge, so the
    expanded flows are valid on the refined graph without a second check.
    """
    if not max_cell_length_m > 0:
        raise ValidationError("max_cell_length_m must be > 0")
    pipe = np.isin(graph.edge_kind, PIPE_KINDS)
    with np.errstate(over="ignore"):
        ceil = np.ceil(graph.length_m[pipe] / max_cell_length_m - 1e-12)
    # cell counts and their offsets are int64
    if not ceil.sum() < 2**62:
        raise ValidationError(f"max_cell_length_m={max_cell_length_m} splits "
                              f"the pipes into too many cells")
    cells = np.ones(graph.n_edges, np.int64)
    cells[pipe] = np.maximum(ceil, 1.0)
    # edge k of the refined graph is segment j[k] of file edge parent[k];
    # a split edge's interior nodes 1..cells-1 follow the file nodes
    parent, j = _runs(cells)
    inner, jn = _runs(cells - 1)
    jn += 1
    first = graph.n_nodes + np.cumsum(cells - 1) - (cells - 1)
    tails = np.where(j == 0, graph.edge_tail[parent], first[parent] + j - 1)
    heads = np.where(j == cells[parent] - 1, graph.edge_head[parent],
                     first[parent] + j)
    p0 = graph.node_xy[graph.edge_tail[inner]]
    p1 = graph.node_xy[graph.edge_head[inner]]
    frac = (jn / cells[inner])[:, None]
    xy = np.vstack([graph.node_xy, p0 + frac * (p1 - p0)])
    counts = cells.tolist()
    edge_ids = [f"{eid}#s{k}" if n > 1 else eid
                for eid, n in zip(graph.edge_ids, counts) for k in range(n)]
    node_ids = graph.node_ids + [f"{eid}#n{k}"
                                 for eid, n in zip(graph.edge_ids, counts)
                                 for k in range(1, n)]
    refined = NetworkGraph(node_ids,
                           np.concatenate([graph.node_side, graph.edge_kind[inner]]),
                           xy, edge_ids, graph.edge_kind[parent], tails, heads,
                           np.repeat(graph.length_m / cells, cells),
                           np.repeat(graph.diameter_m, cells),
                           np.repeat(graph.htc_w_per_m_c, cells))
    return refined, np.repeat(flow, cells)


def _runs(counts):
    """The owner ``i`` and the position ``0 .. counts[i] - 1`` of each item
    when item runs of ``counts`` are laid end to end."""
    owner = np.repeat(np.arange(counts.size), counts)
    return owner, np.arange(owner.size) - (np.cumsum(counts) - counts)[owner]
