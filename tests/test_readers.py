"""Every CSV input rejects a bad header, field count or number by file:line.

Each case corrupts one file of a valid dynamic-price desk input set and
runs the CLI command that reads it: the run must exit with the input
error code and name the file and line in its message.
"""

import json

import pytest

from dhnopt.cli import EXIT_INPUT, EXIT_OK, main
from dhnopt.fixtures import desk_network, write_desk_fixture

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
