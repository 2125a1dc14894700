import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhnopt.cli import EXIT_INPUT, main
from dhnopt.errors import ParseError, ValidationError
from dhnopt.fixtures import (desk_network, feeder_network, minimal_loop,
                             pipe_chain, write_desk_fixture)
from dhnopt.network import (PIPE_KINDS, FlowField, NetworkGraph, control_volumes,
                            load_flow_field, parse_network, subdivide_pipes,
                            write_flow_field, write_network)
from test_condensed import _NETWORKS, cyclic_network


def _two_node_pipe(length=100.0, diameter=0.1, htc=0.5, kind="supply"):
    side = "supply" if kind == "supply" else "return"
    return NetworkGraph(
        node_ids=["a", "b"], node_side=[side, side],
        node_xy=[[0.0, 0.0], [length, 0.0]],
        edge_ids=["p"], edge_kind=[kind], edge_tail=[0], edge_head=[1],
        length_m=[length], diameter_m=[diameter], htc_w_per_m_c=[htc])


class TestPipeParams:
    """Per-edge pipe parameters of a NetworkGraph."""

    def test_area_consistency_enforced(self):
        # the cross section is derived from the diameter, never given
        graph, flow = desk_network(segment_length_m=230.0)
        for g in (graph, subdivide_pipes(graph, flow, 100.0)[0]):
            np.testing.assert_array_equal(
                g.area_m2, [math.pi * d**2 / 4.0 for d in g.diameter_m.tolist()])

    def test_from_diameter(self):
        graph = _two_node_pipe(length=10.0, diameter=0.1, htc=0.5)
        assert graph.area_m2[0] == pytest.approx(math.pi * 0.0025, rel=1e-15)

    @pytest.mark.parametrize("kwargs", [
        dict(length=0.0, diameter=0.1),
        dict(length=-5.0, diameter=0.1),
        dict(length=10.0, diameter=0.0),
    ])
    def test_bad_geometry_rejected(self, kwargs):
        with pytest.raises(ValidationError, match="must be > 0"):
            _two_node_pipe(htc=0.5, **kwargs)

    @pytest.mark.parametrize("column, value, message", [
        ("length_m", "inf", "length must be > 0 and finite"),
        ("length_m", "nan", "length must be > 0 and finite"),
        ("diameter_m", "inf", "diameter must be > 0 and give a finite"),
        # finite, but its cross section overflows
        ("diameter_m", "1e308", "diameter must be > 0 and give a finite"),
        ("htc_w_per_m_c", "inf", "heat transfer must be >= 0 and finite"),
    ])
    def test_cli_rejects_a_non_finite_pipe_parameter(self, tmp_path, capsys,
                                                    column, value, message):
        cfg = write_desk_fixture(tmp_path, n_consumers=3, n_days=1)
        path = tmp_path / "edges.csv"
        lines = path.read_text().splitlines()
        row = lines[1].split(",")
        row[lines[0].split(",").index(column)] = value
        lines[1] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        assert main(["simulate", "--config", str(cfg), "--quiet"]) == EXIT_INPUT
        assert f"edge {row[0]!r}: {message}" in capsys.readouterr().err


def _graph_args(graph):
    """The constructor arguments of ``graph``, as lists."""
    return dict(node_ids=list(graph.node_ids), node_side=graph.node_side.tolist(),
                node_xy=graph.node_xy.copy(), edge_ids=list(graph.edge_ids),
                edge_kind=graph.edge_kind.tolist(),
                edge_tail=graph.edge_tail.tolist(),
                edge_head=graph.edge_head.tolist(),
                length_m=graph.length_m.tolist(),
                diameter_m=graph.diameter_m.tolist(),
                htc_w_per_m_c=graph.htc_w_per_m_c.tolist())


class TestEdgeValidation:
    """Each edge check names the first faulty edge, with the first check
    it fails, whatever later edges hold."""

    @pytest.mark.parametrize("fault, message", [
        ({"edge_kind": "bypass"}, "unknown kind 'bypass'"),
        ({"edge_head": 2}, "self loop"),
        ({"edge_kind": "return"},
         "kind 'return' must connect return -> return nodes, got supply -> supply"),
        ({"edge_tail": 3}, "kind 'supply' must connect supply -> supply nodes, "
                           "got return -> supply"),
        ({"length_m": 0.0}, "length must be > 0 and finite"),
        ({"length_m": math.nan}, "length must be > 0 and finite"),
        ({"diameter_m": 1e200},
         "diameter must be > 0 and give a finite cross section"),
        ({"diameter_m": -0.1},
         "diameter must be > 0 and give a finite cross section"),
        ({"htc_w_per_m_c": -1.0}, "heat transfer must be >= 0 and finite"),
        ({"htc_w_per_m_c": math.inf}, "heat transfer must be >= 0 and finite"),
    ])
    def test_first_faulty_edge_is_named(self, fault, message):
        graph, _ = desk_network()
        args = _graph_args(graph)
        # edge 4 is the supply pipe 'sup0_2' from node 2 to node 5; edge 9,
        # a later one, is faulty in the same way and of a kind checked first
        assert args["edge_ids"][4] == "sup0_2" and args["edge_tail"][4] == 2
        for name, value in fault.items():
            args[name][4] = value
            args[name][9] = value
        args["edge_kind"][9] = "bypass"
        with pytest.raises(ValidationError) as err:
            NetworkGraph(**args)
        assert str(err.value) == f"edge 'sup0_2': {message}"


class TestGraphStructure:
    def test_minimal_loop_counts(self):
        graph, _ = minimal_loop()
        assert graph.n_nodes == 4
        assert graph.n_edges == 4

    def test_incidence_columns(self):
        graph, _ = minimal_loop()
        m = graph.incidence().toarray()
        assert m.shape == (4, 4)
        np.testing.assert_array_equal(m.sum(axis=0), np.zeros(4))
        for e in range(graph.n_edges):
            col = m[:, e]
            assert (col == -1).sum() == 1 and (col == 1).sum() == 1
            assert col[graph.edge_tail[e]] == -1
            assert col[graph.edge_head[e]] == 1

    def test_incidence_rows_match_incident_edges(self):
        graph, _ = desk_network()
        m = graph.incidence().toarray()
        for i in range(graph.n_nodes):
            incident = set(np.flatnonzero((graph.edge_tail == i)
                                          | (graph.edge_head == i)))
            assert set(np.flatnonzero(m[i])) == incident

    def test_consumer_edge_between_supply_nodes_rejected(self):
        with pytest.raises(ValidationError, match="must connect"):
            NetworkGraph(
                node_ids=["a", "b"], node_side=["supply", "supply"],
                node_xy=[[0, 0], [1, 0]],
                edge_ids=["c"], edge_kind=["consumer"],
                edge_tail=[0], edge_head=[1],
                length_m=[5.0], diameter_m=[0.05], htc_w_per_m_c=[0.0])

    def test_disconnected_graph_rejected(self):
        with pytest.raises(ValidationError, match="connected"):
            NetworkGraph(
                node_ids=["a", "b", "c", "d"],
                node_side=["supply"] * 4,
                node_xy=[[0, 0]] * 4,
                edge_ids=["p1", "p2"], edge_kind=["supply", "supply"],
                edge_tail=[0, 2], edge_head=[1, 3],
                length_m=[10.0, 10.0], diameter_m=[0.1, 0.1],
                htc_w_per_m_c=[0.5, 0.5])


class TestParsing:
    def test_round_trip_is_bit_exact(self, tmp_path):
        graph, _ = desk_network()
        write_network(graph, tmp_path / "nodes.csv", tmp_path / "edges.csv")
        back = parse_network(tmp_path / "nodes.csv", tmp_path / "edges.csv")
        assert back.node_ids == graph.node_ids
        assert back.edge_ids == graph.edge_ids
        assert list(back.edge_kind) == list(graph.edge_kind)
        np.testing.assert_array_equal(back.edge_tail, graph.edge_tail)
        np.testing.assert_array_equal(back.edge_head, graph.edge_head)
        np.testing.assert_array_equal(back.length_m, graph.length_m)
        np.testing.assert_array_equal(back.diameter_m, graph.diameter_m)
        np.testing.assert_array_equal(back.htc_w_per_m_c, graph.htc_w_per_m_c)

    def test_unknown_node_reference(self, tmp_path):
        (tmp_path / "nodes.csv").write_text(
            "node_id,side,x,y\na,supply,0,0\nb,supply,1,0\n")
        (tmp_path / "edges.csv").write_text(
            "edge_id,from_node,to_node,kind,length_m,diameter_m,htc_w_per_m_c\n"
            "p,a,missing,supply,10,0.1,0.5\n")
        with pytest.raises(ValidationError, match="missing"):
            parse_network(tmp_path / "nodes.csv", tmp_path / "edges.csv")

    def test_malformed_row_names_line(self, tmp_path):
        (tmp_path / "nodes.csv").write_text(
            "node_id,side,x,y\na,supply,0,0\nb,supply,oops,0\n")
        (tmp_path / "edges.csv").write_text(
            "edge_id,from_node,to_node,kind,length_m,diameter_m,htc_w_per_m_c\n")
        with pytest.raises(ParseError, match="nodes.csv:3"):
            parse_network(tmp_path / "nodes.csv", tmp_path / "edges.csv")

    def test_wrong_header_rejected(self, tmp_path):
        (tmp_path / "nodes.csv").write_text("id,side\n")
        with pytest.raises(ParseError, match="header"):
            parse_network(tmp_path / "nodes.csv", tmp_path / "nodes.csv")


class TestControlVolumes:
    def test_single_pipe_half_volume(self):
        # half of A*l per endpoint: pi/4 * 0.1^2 * 100 / 2
        graph = _two_node_pipe(length=100.0, diameter=0.1)
        vol = control_volumes(graph)
        expected = math.pi * 0.0025 * 100.0 / 2.0
        assert vol[0] == pytest.approx(expected, rel=1e-12)
        assert vol[1] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.3927, abs=5e-5)

    def test_two_identical_pipes_double_volume(self):
        one = _two_node_pipe()
        two = NetworkGraph(
            node_ids=["a", "b"], node_side=["supply", "supply"],
            node_xy=[[0, 0], [1, 0]],
            edge_ids=["p1", "p2"], edge_kind=["supply", "supply"],
            edge_tail=[0, 0], edge_head=[1, 1],
            length_m=[100.0, 100.0], diameter_m=[0.1, 0.1],
            htc_w_per_m_c=[0.5, 0.5])
        v1 = control_volumes(one)
        v2 = control_volumes(two)
        np.testing.assert_allclose(v2, 2.0 * v1, rtol=1e-14)

    def test_total_volume_counts_each_edge_once(self):
        graph, _ = desk_network()
        total = control_volumes(graph).sum()
        expected = float((graph.area_m2 * graph.length_m).sum())
        assert total == pytest.approx(expected, rel=1e-13)


def _y_network(flow_out1, flow_out2):
    """Plant feeding two parallel consumers through a supply junction."""
    total = flow_out1 + flow_out2
    nodes = [("SP", "supply", 0, 0), ("J", "supply", 1, 0),
             ("S1", "supply", 2, 1), ("S2", "supply", 2, -1),
             ("R1", "return", 3, 1), ("R2", "return", 3, -1),
             ("RM", "return", 4, 0), ("RP", "return", 5, 0)]
    edges = [("trunk", "SP", "J", "supply"),
             ("br1", "J", "S1", "supply"),
             ("br2", "J", "S2", "supply"),
             ("c1", "S1", "R1", "consumer"),
             ("c2", "S2", "R2", "consumer"),
             ("m1", "R1", "RM", "return"),
             ("m2", "R2", "RM", "return"),
             ("back", "RM", "RP", "return"),
             ("prod", "RP", "SP", "producer")]
    graph = NetworkGraph(
        node_ids=[n[0] for n in nodes],
        node_side=[n[1] for n in nodes],
        node_xy=[[n[2], n[3]] for n in nodes],
        edge_ids=[e[0] for e in edges],
        edge_kind=[e[3] for e in edges],
        edge_tail=[[n[0] for n in nodes].index(e[1]) for e in edges],
        edge_head=[[n[0] for n in nodes].index(e[2]) for e in edges],
        length_m=[10.0] * 9, diameter_m=[0.05] * 9, htc_w_per_m_c=[0.5] * 9)
    flows = np.array([total, flow_out1, flow_out2, flow_out1, flow_out2,
                      flow_out1, flow_out2, total, total])
    return graph, flows


class TestFlowField:
    def test_series_chain_accepts_tiny_substation_flow(self):
        graph, flow = pipe_chain(4, mdot_kg_s=0.03)
        assert np.all(flow.massflow_kg_s == 0.03)

    def test_junction_split_conserves(self):
        graph, flows = _y_network(1.2, 0.8)
        FlowField(flows).validate_against(graph)

    def test_junction_imbalance_names_node(self):
        graph, flows = _y_network(1.2, 0.8)
        flows[1] = 1.3  # branch draws more than the trunk delivers
        with pytest.raises(ValidationError, match="'J'"):
            FlowField(flows).validate_against(graph)

    def test_zero_flow_rejected(self):
        graph, flow = minimal_loop()
        bad = flow.massflow_kg_s.copy()
        bad[0] = 0.0
        with pytest.raises(ValidationError, match="stagnation"):
            FlowField(bad).validate_against(graph)

    def test_reversed_consumer_flow_rejected(self):
        graph, flow = minimal_loop()
        bad = flow.massflow_kg_s.copy()
        bad[1] = -bad[1]
        with pytest.raises(ValidationError):
            FlowField(bad).validate_against(graph)

    def test_orientation_flip_with_sign_flip_accepted(self):
        graph, flow = minimal_loop()
        e = 0  # supply pipe
        tails = graph.edge_tail.copy()
        heads = graph.edge_head.copy()
        tails[e], heads[e] = heads[e], tails[e]
        flipped = NetworkGraph(
            graph.node_ids, graph.node_side, graph.node_xy, graph.edge_ids,
            graph.edge_kind, tails, heads, graph.length_m, graph.diameter_m,
            graph.htc_w_per_m_c)
        m = flow.massflow_kg_s.copy()
        m[e] = -m[e]
        FlowField(m).validate_against(flipped)

    def test_file_round_trip(self, tmp_path):
        graph, flow = desk_network()
        write_flow_field(flow, graph, tmp_path / "flows.csv")
        back = load_flow_field(tmp_path / "flows.csv", graph)
        np.testing.assert_array_equal(back.massflow_kg_s, flow.massflow_kg_s)

    def test_missing_edge_in_file(self, tmp_path):
        graph, flow = minimal_loop()
        lines = ["edge_id,massflow_kg_s"]
        for eid, m in list(zip(graph.edge_ids, flow.massflow_kg_s))[:-1]:
            lines.append(f"{eid},{float(m)!r}")
        (tmp_path / "flows.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match="missing edge"):
            load_flow_field(tmp_path / "flows.csv", graph)


def _with_bypass(tail, head, pipe):
    """The minimal loop plus a pipe ``tail -> head`` that returns 0.2 kg/s
    around ``pipe``, which then carries 0.7 kg/s."""
    graph, flow = minimal_loop()
    tails = [*graph.edge_tail, graph.node_index[tail]]
    heads = [*graph.edge_head, graph.node_index[head]]
    kind = graph.node_side[graph.node_index[tail]]
    bypassed = NetworkGraph(
        graph.node_ids, graph.node_side, graph.node_xy,
        [*graph.edge_ids, "bypass"], [*graph.edge_kind, kind], tails, heads,
        [*graph.length_m, 10.0], [*graph.diameter_m, 0.05],
        [*graph.htc_w_per_m_c, 0.5])
    m = np.append(flow.massflow_kg_s, 0.2)
    m[graph.edge_index[pipe]] += 0.2
    return bypassed, FlowField(m)


class TestExchangerLayout:
    """A consumer return port or plant supply node is fed only by its
    own exchanger edge; the flow field is checked for it on load."""

    def test_return_pipe_into_consumer_port_rejected(self):
        graph, flow = _with_bypass("RP", "RC", "return_pipe")
        with pytest.raises(ValidationError,
                           match="consumer return node 'RC' receives flow"):
            flow.validate_against(graph)

    def test_second_inflow_into_plant_supply_node_rejected(self):
        graph, flow = _with_bypass("SC", "SP", "supply_pipe")
        with pytest.raises(ValidationError,
                           match="plant supply node 'SP' receives flow"):
            flow.validate_against(graph)

    def test_cli_rejects_the_layout_before_reading_demands(self, tmp_path,
                                                           capsys):
        cfg = write_desk_fixture(tmp_path, n_consumers=3, n_days=1)
        graph, flow = _with_bypass("RP", "RC", "return_pipe")
        write_network(graph, tmp_path / "nodes.csv", tmp_path / "edges.csv")
        write_flow_field(flow, graph, tmp_path / "flows.csv")
        data = json.loads(cfg.read_text())
        data["demand_file"] = "missing.csv"
        cfg.write_text(json.dumps(data))
        assert main(["simulate", "--config", str(cfg), "--quiet"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "consumer return node 'RC'" in err
        assert "missing.csv" not in err


class TestSubdivision:
    def test_cell_count_rule(self):
        graph, flow = pipe_chain(1, total_length_m=250.0)
        fine, _ = subdivide_pipes(graph, flow, 100.0)
        # 250 m pipe -> 3 cells on each side
        supply = [e for e in range(fine.n_edges)
                  if fine.edge_kind[e] == "supply"]
        assert len(supply) == 3
        np.testing.assert_allclose(fine.length_m[supply], 250.0 / 3)

    @pytest.mark.parametrize("max_cell_length_m", [1e-310, 1e-300])
    def test_a_cell_length_that_gives_too_many_cells(self, max_cell_length_m):
        graph, flow = pipe_chain(1, total_length_m=250.0)
        with pytest.raises(ValidationError, match="too many cells"):
            subdivide_pipes(graph, flow, max_cell_length_m)

    def test_exact_multiple_not_oversplit(self):
        graph, flow = pipe_chain(1, total_length_m=200.0)
        fine, _ = subdivide_pipes(graph, flow, 100.0)
        assert sum(fine.edge_kind == "supply") == 2

    def test_flows_and_volume_preserved(self):
        graph, flow = desk_network(segment_length_m=230.0)
        fine, fine_flow = subdivide_pipes(graph, flow, 100.0)
        assert fine.n_nodes > graph.n_nodes
        assert control_volumes(fine).sum() == pytest.approx(
            control_volumes(graph).sum(), rel=1e-12)
        # every refined segment carries its parent's flow
        fine_flow.validate_against(fine)

    def test_refined_feeder_flow_passes_validation(self):
        # the refinement does not check its output: segments carry their
        # parent pipe's validated flow and no junction is added (the desk
        # case is in test_flows_and_volume_preserved)
        graph, flow = feeder_network(max_cell_length_m=math.inf)
        fine, fine_flow = subdivide_pipes(graph, flow, 100.0)
        assert fine.n_edges > graph.n_edges
        fine_flow.validate_against(fine)

    def test_exchanger_edges_never_split(self):
        graph, flow = desk_network(segment_length_m=230.0)
        fine, _ = subdivide_pipes(graph, flow, 100.0)
        assert sum(fine.edge_kind == "consumer") == sum(
            graph.edge_kind == "consumer")
        assert sum(fine.edge_kind == "producer") == 1


def _subdivide_per_pipe(graph, flow, max_cell_length_m):
    """The refinement as a loop over the edges, one pipe at a time: the
    reference for :func:`subdivide_pipes`."""
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


def _assert_same_refinement(graph, flow, max_cell_length_m):
    fine, fine_flow = subdivide_pipes(graph, flow, max_cell_length_m)
    want, want_flow = _subdivide_per_pipe(graph, flow, max_cell_length_m)
    assert fine.node_ids == want.node_ids
    assert fine.node_side.tolist() == want.node_side.tolist()
    assert fine.node_xy.tobytes() == want.node_xy.tobytes()
    assert fine.edge_ids == want.edge_ids
    assert fine.edge_kind.tolist() == want.edge_kind.tolist()
    assert fine.edge_tail.tolist() == want.edge_tail.tolist()
    assert fine.edge_head.tolist() == want.edge_head.tolist()
    for name in ("length_m", "diameter_m", "htc_w_per_m_c", "area_m2"):
        assert getattr(fine, name).tobytes() == getattr(want, name).tobytes()
    assert fine_flow.massflow_kg_s.tobytes() == want_flow.massflow_kg_s.tobytes()


def _partly_placed_desk():
    """The desk network with every third node's x and every fifth node's
    y coordinate unknown."""
    graph, flow = desk_network(segment_length_m=230.0)
    args = _graph_args(graph)
    args["node_xy"][::3, 0] = math.nan
    args["node_xy"][::5, 1] = math.nan
    return NetworkGraph(**args), flow


class TestRefinementReference:
    """subdivide_pipes gives the per-pipe loop's graph bit for bit."""

    @pytest.mark.parametrize("network", [
        lambda: desk_network(segment_length_m=230.0),
        _partly_placed_desk,
        lambda: feeder_network(max_cell_length_m=math.inf),
        cyclic_network,
    ])
    @pytest.mark.parametrize("max_cell_length_m", [100.0, 37.5, 1e9, math.inf])
    def test_fixture_networks(self, network, max_cell_length_m):
        _assert_same_refinement(*network(), max_cell_length_m)

    @settings(max_examples=25, deadline=None)
    @given(network=_NETWORKS, max_cell_length_m=st.floats(10.0, 600.0))
    def test_drawn_networks(self, network, max_cell_length_m):
        _assert_same_refinement(*network, max_cell_length_m)
