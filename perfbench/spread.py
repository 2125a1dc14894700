"""Run workloads over several seeds and summarise each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --seeds 0-9 --trace 0 --out perfbench/.work/spread.json

Each run is a fresh ``perfbench/run.py`` process, one after another.
For every workload and metric this prints the median, the quartiles
from ``statistics.quantiles(values, n=4)`` and the spread, the distance
between the quartiles as a share of the median, next to the metric's
bound from ``BENCHMARK.json``. ``--out`` writes the same summary plus
every run's result and environment as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    env = json.loads(lines[-2][len("env "):]) if len(lines) > 1 else None
    return json.loads(lines[-1]), env


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", default=names,
                   help="default: the workloads in BENCHMARK.json")
    p.add_argument("--seeds", type=_seeds, default=_seeds("0-9"),
                   help="inclusive range such as 0-9")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {"seconds": args.seconds, "trace": args.trace,
               "seeds": args.seeds, "workloads": {}}
    for wl in args.workloads:
        runs = []
        for seed in args.seeds:
            result, env = run(wl, seed, args.seconds, args.trace)
            runs.append({"seed": seed, "result": result})
            summary["env"] = env
            print(f"{wl} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  flush=True)
        metrics = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            metrics[name] = summarise(values)
            metrics[name]["unit"] = runs[0]["result"]["metrics"][name]["unit"]
            s = metrics[name]
            bound = bounds.get(name)
            print(f"  {name:34s} median {s['median']:.6g} {s['unit']:8s} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.3f}"
                  + (f" (bound {bound})" if bound is not None else ""),
                  flush=True)
        summary["workloads"][wl] = {
            "metrics": metrics, "runs": runs,
            "all_correct": all(r["result"]["correct"] for r in runs)}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
