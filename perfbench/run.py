"""Run one benchmark workload and print its metrics as JSON.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk-static --seed 0 --seconds 20 --trace 0

The workload runs in this process as a closed loop with one caller:
each operation starts when the previous one has returned. ``--trace 0``
measures the end-to-end metrics with nothing wrapped. ``--trace 1``
traces the set-ups and every second operation, and reports the
per-layer metrics plus the tracing overhead (traced against untraced
operations of the same run). The last line of standard output is the
result object; the line before it records the environment. Spans,
operation times and check failures are written under
``perfbench/.work/``.
"""

import os

# Pinned before numpy is imported: BLAS and OpenMP read these once at load.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
#: A run repeats the set-up at least this often and for at least this
#: long before its operations, and an untraced run once more between
#: operations every ``SETUP_EVERY_S``; ``setup_s`` is the fastest
#: repetition, for the reason given in ``Workload.op_seconds``.
SETUP_MIN_REPEATS = 9
SETUP_MIN_SECONDS = 1.0
SETUP_EVERY_S = 2.0


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


def _import_package():
    """Import ``dhnopt`` from this checkout's ``src``, or exit with 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import dhnopt
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import dhnopt from {src}: {exc}")
    if not Path(dhnopt.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"perfbench: dhnopt was imported from {dhnopt.__file__}, "
                 f"not from {src}")


def _git_commit():
    """Commit of the checkout read from ``.git``; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": _git_commit(),
    }


def run_ops(wl, state, seconds, tracer=None, setup_times=None):
    """Repeat the workload's operation for about ``seconds``.

    Another operation starts only when the last one's duration still
    fits before the deadline, and at least ``wl.min_ops`` run. With a
    tracer, every second operation runs traced, so traced and untraced
    operations share the same stretch of machine noise. With
    ``setup_times``, a set-up is timed between operations every
    ``SETUP_EVERY_S`` and appended. Returns the untraced and traced
    operation times, the per-operation records and the number of failed
    operations.
    """
    plain, traced, records, failed = [], [], [], 0
    min_ops = wl.min_ops if tracer is None else max(wl.min_ops, 2)
    last_setup = time.perf_counter()
    deadline = last_setup + seconds
    while True:
        trace_this = tracer is not None and len(plain) > len(traced)
        if trace_this:
            tracer.install()
        t0 = time.perf_counter()
        try:
            result = wl.op(state)
        except Exception:
            result = None
            traceback.print_exc()
        dt = time.perf_counter() - t0
        if trace_this:
            tracer.remove()
        (traced if trace_this else plain).append(dt)
        if result is None:
            record, failures = {}, ["operation raised"]
        else:
            record, failures = wl.inspect(state, result)
        records.append(record)
        if failures:
            failed += 1
            print(f"perfbench: {wl.name} op {len(records)}: {'; '.join(failures)}",
                  file=sys.stderr)
        if (setup_times is not None
                and time.perf_counter() - last_setup >= SETUP_EVERY_S):
            t0 = time.perf_counter()
            wl.setup()
            last_setup = time.perf_counter()
            setup_times.append(last_setup - t0)
        if len(records) >= min_ops and time.perf_counter() + dt > deadline:
            return plain, traced, records, failed


def _setups(wl):
    times = []
    start = time.perf_counter()
    while (len(times) < SETUP_MIN_REPEATS
           or time.perf_counter() - start < SETUP_MIN_SECONDS):
        t0 = time.perf_counter()
        state = wl.setup()
        times.append(time.perf_counter() - t0)
    return times, state


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def main(argv=None):
    args = _parse_args(argv)
    _import_package()
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    run_dir = WORK / args.workload / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    wl = WORKLOADS[args.workload](args.seed, run_dir)
    wl.prepare()

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        with tracer:
            setup_times, state = _setups(wl)
        tracer.phase = "op"
    else:
        setup_times, state = _setups(wl)
    op_times, traced_times, records, failed = run_ops(
        wl, state, args.seconds, tracer, None if tracer else setup_times)
    attempted = len(records)
    for name, failure in wl.run_checks(state):
        attempted += 1
        if failure is not None:
            failed += 1
            print(f"perfbench: {wl.name} check {name}: {failure}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "op_s": _metric(wl.op_seconds(op_times, records), "s"),
            "setup_s": _metric(min(setup_times), "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        traced = records[1::2]
        metrics = {name: _metric(v, unit) for name, (v, unit)
                   in tracer.metrics(len(setup_times), len(traced_times)).items()}
        metrics["trace.overhead"] = _metric(
            min(traced_times) / min(op_times) - 1.0, "fraction")
        metrics["cli.bytes_written"] = _metric(statistics.median(
            r.get("bytes_written", 0) for r in traced), "bytes")
        metrics["optimizer.savings"] = _metric(statistics.median(
            r.get("savings", 0.0) for r in traced), "fraction")
        tracer.write(run_dir / "spans.csv")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    env = environment()
    with open(run_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "workload": wl.name, "seed": args.seed,
                   "seconds": args.seconds, "op_times_s": op_times,
                   "traced_op_times_s": traced_times,
                   "setup_times_s": setup_times, "result": result}, fh, indent=2)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
