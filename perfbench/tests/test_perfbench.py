"""Tests of the benchmark itself.

Run from the repository root with ``python -m pytest perfbench/tests``.
The workload runs use the shortest allowed length, so each makes its
minimum number of operations; the desk workloads still take one or two
full optimizations each (about two minutes in all on two cores).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

from dhnopt import fixtures, optimizer  # noqa: E402
from tracer import Tracer, classify_stop  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, seed, trace, seconds=1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def test_declared_workloads_exist():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)


@pytest.fixture(scope="module")
def results():
    """Every workload once untraced (seed 0) and once traced (seed 1)."""
    out = {}
    for workload in WORKLOADS:
        for trace, seed in ((0, 0), (1, 1)):
            proc = _run(ROOT, workload, seed, trace)
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = json.loads(proc.stdout.splitlines()[-1])
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_passes_its_checks(results, workload, trace):
    r = results[workload, trace]
    assert set(r) == {"correct", "attempted", "failed", "metrics"}
    assert r["correct"] is True
    assert r["failed"] == 0
    assert r["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(results, workload, trace):
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    printed = results[workload, trace]["metrics"]
    assert set(printed) == set(units)
    for name, m in printed.items():
        assert m["unit"] == units[name], name
        assert isinstance(m["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_positive(results, workload):
    for name, m in results[workload, 0]["metrics"].items():
        assert m["value"] > 0, name


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run(tmp_path, "feeder-sweep", 0, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("fields, reason", [
    ({"converged": True, "line_search_failed": False, "iterations": 7}, "converged"),
    ({"converged": False, "line_search_failed": True, "iterations": 9},
     "line_search_failed"),
    ({"converged": False, "line_search_failed": False, "iterations": 30},
     "iteration_cap"),
    ({"converged": False, "line_search_failed": False, "iterations": 12}, "stall"),
])
def test_classify_stop(fields, reason):
    config = optimizer.OptimizerConfig(max_inner_iterations=30)
    assert classify_stop(SimpleNamespace(**fields), config) == reason


def test_stop_reasons_agree_with_round_stats():
    # this tolerance and cap give both converged and capped rounds
    sc = fixtures.desk_scenario(n_consumers=3, n_days=1)
    config = optimizer.OptimizerConfig(max_inner_iterations=15,
                                       gradient_tolerance=7e-5)
    tracer = Tracer()
    tracer.phase = "op"
    with tracer:
        _, report = optimizer.optimize(sc, config=config)
    stops = {k.split(".", 1)[1]: v for k, v in tracer.counts.items()
             if k.startswith("op:stop.")}
    assert {"converged", "iteration_cap"} <= set(stops)
    assert sum(stops.values()) == len(report.rounds)
    assert stops.get("converged", 0) == sum(r.converged for r in report.rounds)
    assert tracer.counts["op:rounds_converged"] == stops.get("converged", 0)
    assert tracer.counts["op:iterations"] == sum(
        r.inner_iterations for r in report.rounds)


def test_tracer_restores_the_package():
    from dhnopt import cli, thermal
    before = (optimizer.lbfgs_minimize, optimizer.simulate_system,
              optimizer.loss_energy, cli.optimize, cli.main,
              thermal.SystemMatrices.solve_adjoint)
    with Tracer():
        assert optimizer.simulate_system is not before[1]
        assert cli.optimize is not before[3]
    after = (optimizer.lbfgs_minimize, optimizer.simulate_system,
             optimizer.loss_energy, cli.optimize, cli.main,
             thermal.SystemMatrices.solve_adjoint)
    assert after == before


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans = [["cli.main", 0.0, 10.0, -1, "op"],
                    ["thermal.forward", 1.0, 4.0, 0, "op"],
                    ["objective.penalty", 2.0, 3.0, 1, "op"],
                    ["optimizer.value", 5.0, 6.0, 0, "op"]]
    self_times = tracer.self_times("op")
    assert self_times["cli.main"] == pytest.approx(6.0)
    assert self_times["thermal.forward"] == pytest.approx(2.0)
    assert self_times["objective.penalty"] == pytest.approx(1.0)
