"""The benchmark's workloads still run on the package as it is.

``perfbench/workloads.py`` calls the readers and the evaluator directly,
so a change that broke the benchmark would pass every other test here.
One short untraced run of each of the four workloads must finish, pass
its checks and fail no operation. The feeder sweep's checks compare the
gradient with central differences and audit the energy balance on the
1432-node feeder. A short traced run of the sweep must do the same and report
every per-layer metric that ``BENCHMARK.json`` declares.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_clean(workload, trace=0):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
    assert result["failed"] == 0, result
    return result


def test_desk_static_runs_clean():
    _run_clean("desk-static")


def test_desk_dynamic_cli_runs_clean():
    _run_clean("desk-dynamic-cli")


def test_feeder_simulate_cli_runs_clean():
    _run_clean("feeder-simulate-cli")


def test_feeder_sweep_runs_clean():
    _run_clean("feeder-sweep")


def test_feeder_sweep_traced_reports_every_layer():
    result = _run_clean("feeder-sweep", trace=1)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    missing = {m["name"] for m in declared} - result["metrics"].keys()
    assert not missing, missing
