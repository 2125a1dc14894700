"""The CSV reader and writer contract, checked through the public readers.

Every CSV input rejects a bad header, field count or number by
file:line: each case corrupts one file of a valid dynamic-price desk
input set and runs the CLI command that reads it, and the run must exit
with the input error code and name the file and line in its message.
The first faulty record in file order is the one reported; fields may
be quoted and are stripped; demand rows may come in any order. What
``write_csv`` writes, ``read_csv`` reads back bit-exactly.
"""

import codecs
import csv
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhnopt import network
from dhnopt.cli import EXIT_INPUT, EXIT_OK, main
from dhnopt.errors import ParseError, ValidationError
from dhnopt.fixtures import (daily_load_profile, demand_set_for, desk_network,
                             feeder_network, two_level_price,
                             write_desk_fixture)
from dhnopt.network import (load_flow_field, parse_network, read_csv,
                            write_csv, write_flow_field, write_network)
from dhnopt.scenario import (LoadSeries, read_demand_set,
                             read_load_series, read_price_series,
                             write_demand_set, write_price_series)

_DEMAND_HEADER = "time_s,consumer_edge_id,power_w\n"

#: file -> (command that reads it, index of a float column)
READERS = {
    "nodes.csv": ("simulate", 2),
    "edges.csv": ("simulate", 4),
    "flows.csv": ("simulate", 1),
    "demands.csv": ("simulate", 2),
    "prices.csv": ("simulate", 1),
    "base_load.csv": ("synth-demand", 1),
    "control.csv": ("simulate", 2),
    "reference.csv": ("verify", 1),
    "plant_power.csv": ("report", 3),
}


@pytest.fixture()
def inputs(tmp_path):
    cfg = write_desk_fixture(tmp_path, dynamic=True, n_consumers=3, n_days=1,
                             control={"file": "control.csv"},
                             verify={"reference_file": "reference.csv"})
    graph, _ = desk_network(n_consumers=3)
    (tmp_path / "control.csv").write_text(
        "time_s,plant_edge_id,supply_temp_c\n"
        + "".join(f"{900.0 * k},producer,105.0\n" for k in range(1, 97)))
    (tmp_path / "reference.csv").write_text(
        "node_id,temperature_c\n"
        + "".join(f"{nid},100.0\n" for nid in graph.node_ids))
    out = tmp_path / "out"
    out.mkdir()
    (out / "report.json").write_text(json.dumps({"command": "optimize",
                                                 "savings": 0.5}))
    (out / "plant_power.csv").write_text(
        "time_s,baseline_injection_w,optimized_injection_w,"
        "baseline_loss_step,optimized_loss_step\n"
        "900.0,1.0,1.0,2.0,1.0\n1800.0,1.0,1.0,2.0,1.0\n")
    return cfg


def _run(command, cfg):
    args = ["--out-dir", str(cfg.parent / "out")]
    if command != "report":
        args = ["--config", str(cfg)] + args
    return main([command, "--quiet"] + args)


def test_clean_inputs_pass(inputs):
    for command in ("simulate", "verify", "synth-demand", "report"):
        assert _run(command, inputs) == EXIT_OK, command


@pytest.mark.parametrize("fault", ["header", "field_count", "float"])
@pytest.mark.parametrize("name", list(READERS))
def test_bad_row_names_file_and_line(inputs, name, fault, capsys):
    command, float_col = READERS[name]
    path = inputs.parent / ("out" if name == "plant_power.csv" else "") / name
    lines = path.read_text().splitlines()
    if fault == "header":
        lines[0], line = "wrong,header", 1
    elif fault == "field_count":
        lines[1], line = lines[1].rsplit(",", 1)[0], 2
    else:
        row = lines[1].split(",")
        row[float_col] = "oops"
        lines[1], line = ",".join(row), 2
    path.write_text("\n".join(lines) + "\n")
    assert _run(command, inputs) == EXIT_INPUT
    assert f"{name}:{line}:" in capsys.readouterr().err


@pytest.mark.parametrize("name", list(READERS))
def test_non_utf8_byte_names_file_and_line(inputs, name, capsys):
    command, _ = READERS[name]
    path = inputs.parent / ("out" if name == "plant_power.csv" else "") / name
    lines = path.read_text().splitlines()
    lines[2] = "\xe9" + lines[2]
    path.write_text("\n".join(lines) + "\n", encoding="latin-1")
    assert _run(command, inputs) == EXIT_INPUT
    assert f"{name}:3: not UTF-8: invalid continuation byte" in \
        capsys.readouterr().err


@pytest.mark.parametrize("quote", ["", '"'])
def test_oversized_field_names_file_and_line(inputs, quote, capsys):
    # csv refuses a field over csv.field_size_limit(); unquoted files,
    # which csv does not read, must refuse it the same way
    path = inputs.parent / "demands.csv"
    lines = path.read_text().splitlines()
    row = lines[2].split(",")
    row[1] = quote + "x" * 140_000 + quote
    lines[2] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    assert _run("simulate", inputs) == EXIT_INPUT
    assert ("demands.csv:3: field larger than field limit (131072)"
            in capsys.readouterr().err)


@pytest.mark.parametrize("rows, line, message", [
    # a bad number before a short row
    (["0,c,1", "900,c,oops", "1800,c,1", "2700,c"], 3, "bad power_w"),
    # the earlier record wins over the first float column
    (["0,c,1", "900,c,oops", "bad,c,1"], 3, "bad power_w"),
    # within a record, the first float column wins
    (["0,c,1", "bad,c,oops"], 3, "bad time_s"),
    # a blank record is skipped but counted
    (["0,c,1", "", "900,c,oops"], 4, "bad power_w"),
    (["0,c,1", "", "900,c"], 4, "expected 3 fields, got 2"),
])
def test_first_faulty_record_is_reported(tmp_path, rows, line, message):
    path = tmp_path / "demands.csv"
    path.write_text(_DEMAND_HEADER + "\n".join(rows) + "\n")
    with pytest.raises(ParseError, match=f"demands.csv:{line}: {message}"):
        read_demand_set(path)


def test_first_faulty_record_far_from_a_later_fault(tmp_path):
    rows = [f"{900.0 * k},c{k % 7},1.0" for k in range(3000)]
    rows[40] = "36000.0,c5,oops"
    rows[2500] = "0.0,c1"
    path = tmp_path / "demands.csv"
    path.write_text(_DEMAND_HEADER + "\n".join(rows) + "\n")
    with pytest.raises(ParseError, match="demands.csv:42: bad power_w"):
        read_demand_set(path)


def test_fields_are_stripped(tmp_path):
    path = tmp_path / "demands.csv"
    path.write_text(" time_s , consumer_edge_id ,power_w\n" + "".join(
        f" {900.0 * k}\t,  c 1 , {k}.5 \n" for k in range(8)))
    demands = read_demand_set(path)
    assert list(demands) == ["c 1"]
    series = demands["c 1"]
    assert (series.dt_s, series.start_s) == (900.0, 0.0)
    np.testing.assert_array_equal(series.values_w, np.arange(8) + 0.5)


def test_quoted_consumer_id_round_trips(tmp_path):
    cid = 'sub "A", north'
    values = np.linspace(1.0, 2.0, 8)
    demands = {cid: LoadSeries(values_w=values, dt_s=900.0)}
    write_demand_set(demands, tmp_path / "demands.csv")
    back = read_demand_set(tmp_path / "demands.csv")
    assert list(back) == [cid]
    assert back[cid].values_w.tobytes() == values.tobytes()


def test_single_sample_consumer_is_named(tmp_path):
    path = tmp_path / "demands.csv"
    path.write_text(_DEMAND_HEADER + "".join(
        f"{900.0 * k},a,1.0\n" for k in range(8)) + "0.0,lonely,1.0\n")
    with pytest.raises(ValidationError,
                       match="consumer 'lonely' needs at least two samples"):
        read_demand_set(path)


def test_short_consumer_is_named(tmp_path):
    path = tmp_path / "demands.csv"
    path.write_text(_DEMAND_HEADER + "".join(
        f"{900.0 * k},a,1.0\n" for k in range(8)) + "".join(
        f"{900.0 * k},short,1.0\n" for k in range(3)))
    with pytest.raises(ValidationError, match="demands.csv: consumer 'short': "
                       "load series needs >= 8 samples, got 3"):
        read_demand_set(path)


def test_non_finite_demand_power_is_named(tmp_path):
    path = tmp_path / "demands.csv"
    path.write_text(_DEMAND_HEADER + "".join(
        f"{900.0 * k},a,{'nan' if k == 3 else 1.0}\n" for k in range(8)))
    with pytest.raises(ValidationError, match="demands.csv: consumer 'a': "
                       "load series contains non-finite values"):
        read_demand_set(path)


def _consumer_rows(cid, times, power="1.0"):
    return "".join(f"{t},{cid},{power}\n" for t in times)


_EVEN = [900.0 * k for k in range(8)]


@pytest.mark.parametrize("rows, message", [
    (_consumer_rows("a", _EVEN) + _consumer_rows("b", _EVEN[:7] + [7000.0])
     + _consumer_rows("c", _EVEN[:3]),
     "consumer 'b' spacing not uniform"),
    (_consumer_rows("a", _EVEN) + _consumer_rows("b", _EVEN[:3])
     + _consumer_rows("c", _EVEN[:7] + [7000.0]),
     "consumer 'b': load series needs >= 8 samples, got 3"),
    (_consumer_rows("a", _EVEN) + _consumer_rows("b", [900.0] * 8),
     "consumer 'b': sample interval must be > 0"),
    (_consumer_rows("a", _EVEN) + _consumer_rows("b", _EVEN, "-1.0")
     + _consumer_rows("c", [0.0]),
     "consumer 'b': load series contains negative power"),
    (_consumer_rows("a", _EVEN) + _consumer_rows("b", _EVEN, "inf"),
     "consumer 'b': load series contains non-finite values"),
    # a consumer's rows are sorted before its spacing is checked
    (_consumer_rows("a", _EVEN[::-1]) + _consumer_rows("b", _EVEN[::2] + [1.0]),
     "consumer 'b' spacing not uniform"),
])
def test_first_rejected_consumer_is_named(tmp_path, rows, message):
    path = tmp_path / "demands.csv"
    path.write_text(_DEMAND_HEADER + rows)
    with pytest.raises(ValidationError, match=f"demands.csv: {message}"):
        read_demand_set(path)


@pytest.mark.parametrize("interleaved", [False, True])
def test_short_early_consumer_named_before_uneven_later_one(tmp_path,
                                                            interleaved):
    early = [f"{t},early,1.0\n" for t in _EVEN[:3]]
    later = [f"{t},later,1.0\n" for t in _EVEN[:7] + [7000.0]]
    rows = early + later
    if interleaved:
        # the early consumer's first row comes first, its others last
        rows = early[:1] + later[::-1] + early[1:]
    path = tmp_path / "demands.csv"
    path.write_text(_DEMAND_HEADER + "".join(rows))
    with pytest.raises(ValidationError) as err:
        read_demand_set(path)
    assert str(err.value) == (f"{path}: consumer 'early': load series needs "
                              f">= 8 samples, got 3")


def test_short_load_series_is_named(tmp_path):
    path = tmp_path / "base_load.csv"
    path.write_text("time_s,power_w\n" + "".join(
        f"{900.0 * k},1.0\n" for k in range(3)))
    with pytest.raises(ValidationError, match="base_load.csv: "
                       "load series needs >= 8 samples, got 3"):
        read_load_series(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_demand_time_is_rejected(tmp_path, bad):
    path = tmp_path / "demands.csv"
    path.write_text(_DEMAND_HEADER + "".join(
        f"{900.0 * k},a,1.0\n" for k in range(7)) + f"{bad},a,1.0\n")
    with pytest.raises(ValidationError,
                       match="demands.csv:9: consumer 'a': time_s is not finite"):
        read_demand_set(path)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_load_time_is_rejected(tmp_path, bad):
    path = tmp_path / "base_load.csv"
    path.write_text("time_s,power_w\n" + "".join(
        f"{900.0 * k},1.0\n" for k in range(7)) + f"{bad},1.0\n")
    with pytest.raises(ValidationError,
                       match="base_load.csv:9: time_s is not finite"):
        read_load_series(path)


@pytest.mark.parametrize("column, bad", [(0, "nan"), (1, "nan"),
                                         (0, "-inf"), (1, "inf")])
def test_non_finite_price_names_file_and_line(inputs, column, bad, capsys):
    path = inputs.parent / "prices.csv"
    lines = path.read_text().splitlines()
    row = lines[2].split(",")
    row[column] = bad
    lines[2] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    assert _run("simulate", inputs) == EXIT_INPUT
    name = ("time_s", "price_eur_mwh")[column]
    assert f"prices.csv:3: {name} is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("column, bad", [(2, "nan"), (2, "inf"), (0, "nan")])
def test_non_finite_control_names_file_and_line(inputs, column, bad, capsys):
    path = inputs.parent / "control.csv"
    lines = path.read_text().splitlines()
    row = lines[5].split(",")
    row[column] = bad
    lines[5] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    assert _run("simulate", inputs) == EXIT_INPUT
    name = {0: "time_s", 2: "supply_temp_c"}[column]
    assert f"control.csv:6: {name} is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_reference_names_file_and_line(inputs, bad, capsys):
    path = inputs.parent / "reference.csv"
    lines = path.read_text().splitlines()
    lines[4] = lines[4].split(",")[0] + "," + bad
    path.write_text("\n".join(lines) + "\n")
    assert _run("verify", inputs) == EXIT_INPUT
    assert "reference.csv:5: temperature_c is not finite" in \
        capsys.readouterr().err


@pytest.mark.parametrize("fault, message", [
    ("unknown", "reference.csv:5: unknown node 'no_such_node'"),
    ("duplicate", "reference.csv:5: duplicate node 'SP'"),
    ("missing", "reference.csv: missing node 'RP'"),
])
def test_bad_reference_node_names_file_and_record(inputs, fault, message,
                                                  capsys):
    path = inputs.parent / "reference.csv"
    lines = path.read_text().splitlines()
    assert lines[1:3] == ["SP,100.0", "RP,100.0"]
    if fault == "unknown":
        lines.insert(4, "no_such_node,100.0")
    elif fault == "duplicate":
        lines.insert(4, "SP,999.0")
    else:
        del lines[2]
    path.write_text("\n".join(lines) + "\n")
    assert _run("verify", inputs) == EXIT_INPUT
    assert message in capsys.readouterr().err


def test_duplicate_control_row_names_file_and_line(inputs, capsys):
    path = inputs.parent / "control.csv"
    lines = path.read_text().splitlines()
    assert lines[5] == "4500.0,producer,105.0"
    lines.insert(6, "4500.0,producer,60.0")
    path.write_text("\n".join(lines) + "\n")
    assert _run("simulate", inputs) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "control.csv:7: duplicate row for plant 'producer'" in err


def test_repeated_price_knot_names_file(inputs, capsys):
    path = inputs.parent / "prices.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:3] + lines[2:]) + "\n")
    assert _run("simulate", inputs) == EXIT_INPUT
    assert "prices.csv: price knots must be strictly increasing" in \
        capsys.readouterr().err


@pytest.mark.parametrize("cid", ["\r", "a\rb", "\r\n", "c\r,d"])
def test_carriage_return_in_id_round_trips(tmp_path, cid):
    values = np.linspace(1.0, 2.0, 8)
    demands = {cid: LoadSeries(values_w=values, dt_s=900.0)}
    write_demand_set(demands, tmp_path / "demands.csv")
    back = read_demand_set(tmp_path / "demands.csv")
    assert list(back) == [cid.strip()]
    assert back[cid.strip()].values_w.tobytes() == values.tobytes()


_NO_CR = st.text(st.characters(blacklist_categories=("Cs",),
                               blacklist_characters="\x00\r"), max_size=5)


def _drawn_list(elements, dtype=None):
    """n values of ``elements``, as an array of ``dtype`` unless None."""
    def values(n):
        drawn = st.lists(elements, min_size=n, max_size=n)
        return drawn if dtype is None else drawn.map(
            lambda v: np.array(v, dtype=dtype))
    return values


#: column kind -> (values drawn for n rows, or None for the drawn
#: strings; the fields csv.writer is given for a column)
_WRITTEN_KINDS = {
    "str": (None, list),
    "quoted": (_drawn_list(st.text(st.sampled_from(',"\n a'), max_size=3)),
               list),
    "float": (_drawn_list(st.floats(), float),
              lambda c: [repr(v) for v in c.tolist()]),
    "blank_nan": (_drawn_list(st.floats(), float),
                  lambda c: ["" if math.isnan(v) else repr(v) for v in c.tolist()]),
    "int": (_drawn_list(st.integers(-2**63, 2**63 - 1), np.int64),
            lambda c: [str(v) for v in c.tolist()]),
}


@settings(max_examples=200, deadline=None)
@given(header=st.lists(_NO_CR, min_size=1, max_size=4, unique=True),
       data=st.data())
def test_writer_bytes_without_carriage_return_unchanged(tmp_path_factory,
                                                        header, data):
    # a column mapping holds a rectangular table with distinct names
    rows = data.draw(st.lists(st.lists(_NO_CR, min_size=len(header),
                                       max_size=len(header)), max_size=4))
    # a column may also hold numbers, which the writer formats, or
    # strings that csv quotes
    kinds = data.draw(st.lists(st.sampled_from(sorted(_WRITTEN_KINDS)),
                               min_size=len(header), max_size=len(header)))
    columns, fields = {}, []
    for j, (name, kind) in enumerate(zip(header, kinds)):
        values, formatted = _WRITTEN_KINDS[kind]
        column = [row[j] for row in rows] if values is None else \
            data.draw(values(len(rows)))
        columns[name] = column
        fields.append(formatted(column))
    rows = [list(row) for row in zip(*fields)]
    path = tmp_path_factory.mktemp("plain") / "table.csv"
    write_csv(path, columns, blank_nan=[name for name, kind in zip(header, kinds)
                                        if kind == "blank_nan"])
    plain = io.StringIO()
    # a first name that starts with a byte-order mark is written after one
    # more, which the reader skips
    if header[0].startswith("\ufeff"):
        plain.write("\ufeff")
    csv.writer(plain, lineterminator="\n").writerows([header] + rows)
    assert path.read_bytes() == plain.getvalue().encode("utf-8")


def test_writer_blocks_match_csv(tmp_path):
    # long enough for several blocks; only one block has a field to quote
    n = 2500
    ids = [f"c{k}" for k in range(n)]
    ids[1500] = 'c "1500", quoted'
    values = np.linspace(-1.0, 1.0, n)
    write_csv(tmp_path / "table.csv", {"id": ids, "x": values})
    plain = io.StringIO()
    csv.writer(plain, lineterminator="\n").writerows(
        [["id", "x"]] + [[i, repr(v)] for i, v in zip(ids, values.tolist())])
    assert (tmp_path / "table.csv").read_text() == plain.getvalue()


def test_writer_formats_each_column_kind(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, {"id": ["a", "b,c"], "n": np.array([3, -4]),
                     "x": np.array([math.nan, 0.1]),
                     "y": np.array([math.nan, -0.0])}, blank_nan=("x",))
    assert path.read_text() == 'id,n,x,y\na,3,,nan\n"b,c",-4,0.1,-0.0\n'


#: Stripped strings, since the reader strips; the csv specials come often.
_STRIPPED = st.text(st.one_of(
    st.sampled_from(',"\r\n '),
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00")),
    max_size=6).map(str.strip)
_FLOATS = st.one_of(st.sampled_from([-0.0, math.inf, -math.inf, 5e-324,
                                     2.2250738585072e-308, math.nan]),
                    st.floats())


@settings(max_examples=150, deadline=None)
@given(names=st.lists(_STRIPPED, min_size=1, max_size=4, unique=True),
       data=st.data())
def test_written_columns_read_back_bit_exactly(tmp_path_factory, names, data):
    n = data.draw(st.integers(0, 6))
    kinds = data.draw(st.lists(st.sampled_from(["str", "float", "blank_nan"]),
                               min_size=len(names), max_size=len(names)))
    columns = {}
    for name, kind in zip(names, kinds):
        values = data.draw(st.lists(_STRIPPED if kind == "str" else _FLOATS,
                                    min_size=n, max_size=n))
        columns[name] = values if kind == "str" else np.array(values)
    floats = [name for name, kind in zip(names, kinds) if kind != "str"]
    blank = [name for name, kind in zip(names, kinds) if kind == "blank_nan"]
    path = tmp_path_factory.mktemp("table") / "table.csv"
    write_csv(path, columns, blank_nan=blank)
    lines, back = read_csv(path, names, floats, blank_nan=blank)
    assert lines.tolist() == list(range(2, n + 2))
    for name in names:
        if name in floats:
            # every NaN reads back as the one NaN that float("nan") gives
            want = np.where(np.isnan(columns[name]), math.nan, columns[name])
            assert back[name].tobytes() == want.tobytes(), name
        else:
            assert back[name] == columns[name], name


def test_blank_coordinates_read_as_nan(tmp_path):
    graph, _ = desk_network(n_consumers=3)
    nodes, edges = tmp_path / "nodes.csv", tmp_path / "edges.csv"
    write_network(graph, nodes, edges)
    lines = nodes.read_text().splitlines()
    for i, blank in ((1, ","), (2, " ,  ")):
        node_id, side = lines[i].split(",")[:2]
        lines[i] = f"{node_id},{side},{blank}"
    nodes.write_text("\n".join(lines) + "\n")
    back = parse_network(nodes, edges)
    assert np.isnan(back.node_xy[:2]).all()
    np.testing.assert_array_equal(back.node_xy[2:], graph.node_xy[2:])


def _oracle_demands(path):
    """Group a long-format demand file with ``csv`` and ``float`` alone."""
    groups = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for t, cid, p in list(csv.reader(fh))[1:]:
            groups.setdefault(cid.strip(), []).append((float(t), float(p)))
    return {cid: sorted(rows, key=lambda row: row[0])
            for cid, rows in groups.items()}


_IDS = st.text(st.characters(blacklist_categories=("Cs",),
                             blacklist_characters="\x00"), max_size=6)


@settings(max_examples=40, deadline=None)
@given(ids=st.lists(_IDS, min_size=1, max_size=5, unique_by=str.strip),
       data=st.data())
def test_shuffled_rows_read_back_grouped(tmp_path_factory, ids, data):
    rows = []
    for cid in ids:
        n = data.draw(st.integers(8, 20))
        dt = data.draw(st.integers(1, 3600))
        start = data.draw(st.integers(-86400, 86400))
        powers = data.draw(st.lists(
            st.floats(0.0, 1e9, allow_nan=False), min_size=n, max_size=n))
        rows += [[repr(float(start + k * dt)), cid, repr(p)]
                 for k, p in enumerate(powers)]
    rows = data.draw(st.permutations(rows))
    path = tmp_path_factory.mktemp("demands") / "demands.csv"
    write_csv(path, dict(zip(_DEMAND_HEADER.strip().split(","), zip(*rows))))

    expected = _oracle_demands(path)
    demands = read_demand_set(path)
    assert list(demands) == list(expected)
    for series, pairs in zip(demands.values(), expected.values()):
        times = [t for t, _ in pairs]
        assert series.values_w.tobytes() == np.array(
            [p for _, p in pairs]).tobytes()
        assert series.start_s == times[0]
        assert series.dt_s == times[1] - times[0]
    write_demand_set(demands, path)
    again = read_demand_set(path)
    assert list(again) == list(demands)
    assert [s.values_w.tobytes() for s in again.values()] == [
        s.values_w.tobytes() for s in demands.values()]


def _oracle_read(path, header, floats=(), blank_nan=()):
    """``read_csv`` spelled out with ``csv.reader`` and ``float``, one
    record at a time."""
    records, fault = [], None
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        while True:
            try:
                records.append(next(reader))
            except StopIteration:
                break
            except csv.Error as exc:
                fault = f"{path}:{len(records) + 1}: {exc}"
                break
    if not records and fault is None:
        raise ParseError(f"{path}:1: empty file")
    if records and [h.strip() for h in records[0]] != header:
        raise ParseError(f"{path}:1: expected header {','.join(header)!r}, "
                         f"got {','.join(records[0])!r}")
    lines, rows = [], []
    for lineno, row in enumerate(records[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(f"{path}:{lineno}: expected {len(header)} "
                             f"fields, got {len(row)}")
        row = [field.strip() for field in row]
        for name in floats:
            field = row[header.index(name)]
            if field or name not in blank_nan:
                try:
                    float(field)
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: bad {name} value "
                                     f"{field!r}") from None
        lines.append(lineno)
        rows.append(row)
    if fault:
        raise ParseError(fault)
    columns = {name: [row[j] for row in rows] for j, name in enumerate(header)}
    for name in floats:
        columns[name] = np.array([float(f) if f else math.nan
                                  for f in columns[name]])
    return lines, columns


def _read_both(path, header, floats, blank_nan=()):
    """``read_csv`` and the oracle: both results, or both messages."""
    out = []
    for read in (read_csv, _oracle_read):
        try:
            lines, columns = read(path, header, floats, blank_nan)
        except ParseError as exc:
            out.append(str(exc))
        else:
            out.append((np.asarray(lines).tolist(),
                        {name: column.tobytes() if name in floats
                         else column for name, column in columns.items()}))
    return out


_ROWS = "".join(f"{k}.5,c{k},{k}e3\n" for k in range(12))

#: Files of ``t,id,p`` records; every block size splits each somewhere else.
_BLOCK_CASES = {
    "quote_in_a_late_block": "t,id,p\n" + _ROWS + '12,"q,\nr",1\n13,s,2\n',
    "quoted_newline": 't,id,p\n0,"x\r\ny",1\n1,"a""b",2\n\n2, c ,3\r\n',
    "every_line_ending": "t,id,p\r\n0,a,1\r\n\r\n1,b,2\r\r2,c,3\n\n3,é€,4\r\n",
    "blank_records": "t,id,p\n\n0,a,1\n\n\n1,b,2\n\r\n",
    "no_final_newline": "t,id,p\n" + _ROWS + "12,a,1",
    "cr_at_the_end": "t,id,p\n" + _ROWS + "12,a,1\r",
    "stripped_fields": "t,id,p\n 0 ,\ta b\x1c, 1\n\x1c1,b,\u20032\n",
    "bad_number_then_short_row": "t,id,p\n0,a,oops\n" + _ROWS + "2,c\n",
    "short_row_then_bad_number": "t,id,p\n" + _ROWS + "2,c\n3,d,oops\n",
    "quoted_short_row": "t,id,p\n" + _ROWS + '2,"c"\n3,d,oops\n',
    "bad_header": "t,id\n0,a,1\n",
    "blank_header": "\n0,a,1\n",
    "empty": "",
}


@pytest.mark.parametrize("case", list(_BLOCK_CASES))
def test_blocks_read_as_csv_reads(tmp_path, monkeypatch, case):
    text = _BLOCK_CASES[case]
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = None
    for size in range(1, len(path.read_bytes()) + 2):
        monkeypatch.setattr(network, "_BLOCK_BYTES", size)
        got, want = _read_both(path, ["t", "id", "p"], ("t", "p"))
        assert got == want, size
        assert expected in (None, want)
        expected = want


def test_block_sizes_put_the_faults_in_blocks_one_and_three(tmp_path,
                                                           monkeypatch):
    data = _BLOCK_CASES["bad_number_then_short_row"].encode("utf-8")
    size = 64
    assert data.index(b"oops") < size and 2 * size <= data.index(b"2,c\n") < 3 * size
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    monkeypatch.setattr(network, "_BLOCK_BYTES", size)
    with pytest.raises(ParseError, match="t.csv:2: bad p value 'oops'"):
        read_csv(path, ["t", "id", "p"], ("t", "p"))


@pytest.mark.parametrize("quote", ["", '"'])
def test_blocks_read_a_field_over_the_limit_as_csv_does(tmp_path, monkeypatch,
                                                       quote):
    old = csv.field_size_limit(6)
    try:
        for rows, line in ((["0,abcdef,1", f"1,{quote}abcdefg{quote},2"], 3),
                           ([f"1,{quote}abcdefg{quote},2", "0,a,oops"], 2),
                           (["0,a,oops", f"1,{quote}abcdefg{quote},2"], 2)):
            path = tmp_path / "t.csv"
            path.write_text("t,id,p\n" + "\n".join(rows) + "\n")
            for size in range(1, 40):
                monkeypatch.setattr(network, "_BLOCK_BYTES", size)
                got, want = _read_both(path, ["t", "id", "p"], ("t", "p"))
                assert got == want and want.startswith(f"{path}:{line}: ")
    finally:
        csv.field_size_limit(old)


@pytest.mark.parametrize("data, message", [
    (b"t,id,p\n0,a,1\r1,\xe9,2\n", "3: not UTF-8: invalid continuation byte"),
    (b"t,id,p\n0,a,1\r\xff\n", "3: not UTF-8: invalid start byte"),
    (b't,id,p\n0,"a\nb",1\n1,b\xe9,2\n', "3: not UTF-8: invalid continuation"),
    (b't,id,p\n0,"a\n\xe9b",1\n', "2: not UTF-8: invalid continuation"),
    (b't,id,p\n0,"a",1\r\xff\n', "3: not UTF-8: invalid start byte"),
    (b"t,id,p\n0,a,x\n1,\xe9,2\n", "2: bad p value 'x'"),
    (b"t,id,p\n0,a,1\n1,\xe2\x82", "3: not UTF-8: unexpected end of data"),
    (b"\xef\xbb", "1: not UTF-8: unexpected end of data"),
])
def test_bytes_that_are_not_utf8_name_their_record(tmp_path, monkeypatch,
                                                   data, message):
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    for size in range(1, len(data) + 2):
        monkeypatch.setattr(network, "_BLOCK_BYTES", size)
        with pytest.raises(ParseError, match=f"t.csv:{message}"):
            read_csv(path, ["t", "id", "p"], ("t", "p"))


def test_blank_nan_columns_read_across_blocks(tmp_path, monkeypatch):
    path = tmp_path / "t.csv"
    path.write_text("id,x,y\n" + "".join(
        f"n{k},{'' if k % 3 else k},{' ' if k % 4 else -k}\n" for k in range(20)))
    for size in (1, 7, 30, 1 << 16):
        monkeypatch.setattr(network, "_BLOCK_BYTES", size)
        got, want = _read_both(path, ["id", "x", "y"], ("x", "y"),
                               blank_nan=("x", "y"))
        assert got == want, size


def test_one_column_blank_records_across_blocks(tmp_path, monkeypatch):
    # with one column a blank record has as many commas as any other
    path = tmp_path / "t.csv"
    path.write_text("id\na\n\n b \r\n\r\nc\r\rd\n")
    for size in range(1, 20):
        monkeypatch.setattr(network, "_BLOCK_BYTES", size)
        got, want = _read_both(path, ["id"], ())
        assert got == want == ([2, 4, 6, 8], {"id": ["a", "b", "c", "d"]})


_PRICE_HEADER = ["time_s", "price_eur_mwh"]


@pytest.mark.parametrize("end", ["\n", "\r\n"])
def test_byte_order_mark_is_skipped(tmp_path, monkeypatch, end):
    # spreadsheet "CSV UTF-8" exports start the file with one
    text = end.join([",".join(_PRICE_HEADER)]
                    + [f"{900.0 * k},{k}.5" for k in range(12)]) + end
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
    lines, columns = read_csv(plain, _PRICE_HEADER, _PRICE_HEADER)
    for size in range(1, marked.stat().st_size + 2):
        monkeypatch.setattr(network, "_BLOCK_BYTES", size)
        back_lines, back = read_csv(marked, _PRICE_HEADER, _PRICE_HEADER)
        assert back_lines.tolist() == lines.tolist(), size
        for name in _PRICE_HEADER:
            assert back[name].tobytes() == columns[name].tobytes(), size


@pytest.mark.parametrize("end", [b"\n", b"\r\n"])
def test_byte_order_mark_keeps_record_numbers(tmp_path, monkeypatch, end):
    data = codecs.BOM_UTF8 + end.join([b"t,id,p", b"0,a,1", b"1,\xe9,2", b""])
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    for size in range(1, len(data) + 2):
        monkeypatch.setattr(network, "_BLOCK_BYTES", size)
        with pytest.raises(ParseError,
                           match="t.csv:3: not UTF-8: invalid continuation"):
            read_csv(path, ["t", "id", "p"], ("t", "p"))


@pytest.mark.parametrize("text, numbers", [
    ("t,id,p\n0,a,1\n\n1,b,2\n\r\n\n2,c,3", [2, 4, 7]),
    ("t,id,p\n\n", []),
])
def test_record_numbers_are_an_integer_array(tmp_path, text, numbers):
    # blank records are skipped but counted
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    lines, _ = read_csv(path, ["t", "id", "p"], ("t", "p"))
    assert lines.dtype == np.int64
    assert lines.tolist() == numbers


@pytest.mark.parametrize("first", ["\ufeff", "\ufeffx"])
def test_a_first_name_starting_with_a_byte_order_mark_reads_back(tmp_path,
                                                                 first):
    # the reader skips one mark at the start of the file
    path = tmp_path / "t.csv"
    write_csv(path, {first: ["a", "b"], "n": np.array([1.0, 2.0])})
    lines, back = read_csv(path, [first, "n"], ("n",))
    assert lines.tolist() == [2, 3]
    assert back[first] == ["a", "b"]


def test_feeder_files_are_split_without_csv_reader(tmp_path, monkeypatch):
    # LF-terminated, unquoted, multi-column files stay on the split path,
    # which reads them faster than csv.reader does
    graph, flow = feeder_network(max_cell_length_m=math.inf)
    nodes, edges, flows = (tmp_path / f"{name}.csv"
                           for name in ("nodes", "edges", "flows"))
    write_network(graph, nodes, edges)
    write_flow_field(flow, graph, flows)
    n = len(graph.consumer_edges)
    base = daily_load_profile(mean_w=50e3 * n, n_days=3)
    write_demand_set(demand_set_for(graph, base, mean_w_per_consumer=50e3),
                     tmp_path / "demands.csv")
    write_price_series(two_level_price(n_days=3), tmp_path / "prices.csv")
    control_header = ["time_s", "plant_edge_id", "supply_temp_c"]
    write_csv(tmp_path / "control.csv", {
        "time_s": 900.0 * np.arange(1, 289),
        "plant_edge_id": [graph.edge_ids[graph.producer_edges[0]]] * 288,
        "supply_temp_c": np.linspace(95.0, 110.0, 288)})

    def refuse(table, lines):
        raise AssertionError(f"{table.path} went to csv.reader")

    monkeypatch.setattr(network._Table, "add_csv", refuse)
    for size in (network._BLOCK_BYTES, 4099):
        monkeypatch.setattr(network, "_BLOCK_BYTES", size)
        load_flow_field(flows, parse_network(nodes, edges))
        assert len(read_demand_set(tmp_path / "demands.csv")) == n
        read_price_series(tmp_path / "prices.csv")
        read_csv(tmp_path / "control.csv", control_header,
                 ("time_s", "supply_temp_c"))


#: Fields the split path reads: numbers, and words that are not numbers;
#: a blank field is a blank record in a one-column table.
_NUMBERS = st.sampled_from(["1", " -2.5e3 ", "nan", "1e999", "-0.0"])
_WORDS = st.sampled_from(["", " ", "oops", " é x "])
#: Fields with the characters that only ``csv.reader`` reads right.
_SPECIAL_FIELDS = st.text(st.sampled_from(',"\r\n 0.5eé'), max_size=4)


@settings(max_examples=120, deadline=None)
@given(n=st.integers(1, 4), kind=st.sampled_from(["plain", "quoted", "any"]),
       end=st.sampled_from(["\n", "\r\n", "\r", None]), bad=st.booleans(),
       data=st.data())
def test_drawn_tables_read_as_csv_reads(tmp_path_factory, n, kind, end, bad,
                                        data):
    # plain fields, unquoted or maybe quoted, or any fields maybe quoted,
    # and blank records; every record ends in ``end``, or if it is None in
    # any line end or none. Only a ``bad`` table has words in its float
    # columns. Plain fields with LF line ends are split.
    header = list("abcd"[:n])
    floats = data.draw(st.lists(st.sampled_from(header), unique=True))
    blank_nan = [name for name in data.draw(st.sets(st.sampled_from(header)))
                 if name in floats]
    columns = [_NUMBERS | _WORDS if bad or name not in floats
               else (_NUMBERS | st.just("")) if name in blank_nan
               else _NUMBERS for name in header]
    if kind == "any":
        columns = [column | _SPECIAL_FIELDS for column in columns]
    rows = data.draw(st.lists(st.tuples(*columns) | st.just(()), max_size=5))
    records = [",".join(header)]
    for row in rows:
        quoted = data.draw(st.lists(st.booleans() if kind != "plain" else
                                    st.just(False), min_size=len(row),
                                    max_size=len(row)))
        records.append(",".join('"' + field.replace('"', '""') + '"' if q
                                else field for field, q in zip(row, quoted)))
    ends = data.draw(st.lists(st.sampled_from(["\n", "\r\n", "\r", ""])
                              if end is None else st.just(end),
                              min_size=len(records), max_size=len(records)))
    path = tmp_path_factory.mktemp("drawn") / "t.csv"
    # a record that ends in "" runs on into the next one
    path.write_bytes("".join(map(str.__add__, records, ends)).encode("utf-8"))
    with pytest.MonkeyPatch.context() as patch:
        for size in range(1, path.stat().st_size + 2):
            patch.setattr(network, "_BLOCK_BYTES", size)
            got, want = _read_both(path, header, floats, blank_nan)
            assert got == want, size


#: ``read_demand_set`` may hold this many bytes per byte of the file at
#: its peak. It held 8.6 when every float field was kept as a string
#: until the end of the file, and holds 4.0 since each block's floats
#: are parsed as the block is read.
_DEMAND_READ_PEAK_PER_BYTE = 4.8


def test_demand_read_peak_memory(tmp_path):
    graph, _ = feeder_network(max_cell_length_m=math.inf)
    n = len(graph.consumer_edges)
    demands = demand_set_for(graph, daily_load_profile(mean_w=50e3 * n, n_days=3),
                             mean_w_per_consumer=50e3)
    path = tmp_path / "demands.csv"
    write_demand_set(demands, path)
    tracemalloc.start()
    try:
        read_demand_set(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _DEMAND_READ_PEAK_PER_BYTE * path.stat().st_size
