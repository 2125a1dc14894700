"""The benchmark's CSV ingest still runs on the package as it is.

``perfbench/workloads.py`` calls the readers directly, so a reader
change that broke the benchmark would pass every other test here. One
short untraced run of the CSV workload must finish, pass its checks and
fail no operation.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_feeder_simulate_cli_runs_clean():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "feeder-simulate-cli", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
    assert result["failed"] == 0, result
