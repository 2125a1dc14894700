"""Spans and counters recorded around the package's public functions.

The tracer patches functions and methods of the installed ``dhnopt``
modules from outside; the package source is not touched. A function is
replaced under every module-level name that refers to it, so a call
through ``from .thermal import simulate_system`` in ``optimizer`` is
caught as well as one through ``thermal.simulate_system``. Objective
terms are the exception: they are wrapped only under the names
``optimizer`` imports them by, so the objective layer measures the
terms the optimizer evaluates and calls made by ``cli`` stay in the
``cli`` layer's self time.

Spans are ``(name, start, end, parent, phase)`` rows kept in memory and
written out by :meth:`Tracer.write` when the benchmark ends.
"""

from __future__ import annotations

import csv
import functools
import statistics
import sys
import time
from collections import Counter

_OBJECTIVE_TERMS = ("loss_energy", "objective_loss", "tikhonov",
                    "constraint_violations", "penalty")
_STOP_REASONS = ("converged", "line_search_failed", "iteration_cap", "stall")


def classify_stop(result, config):
    """Why one projected L-BFGS run stopped.

    Converged first, then a failed line search, then the iteration cap;
    anything else is the stall heuristic.
    """
    if result.converged:
        return "converged"
    if result.line_search_failed:
        return "line_search_failed"
    if result.iterations == config.max_inner_iterations:
        return "iteration_cap"
    return "stall"


class Tracer:
    """Records spans and counters while installed; restores on removal."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.phase = "setup"
        self.lu_nnz = []
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0,
                          stack[-1] if stack else -1, self.phase])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, wrapper):
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("dhnopt"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self):
        """Wrap the public functions of every layer."""
        from dhnopt import cli, network, optimizer, scenario, thermal

        for fn, name in ((network.parse_network, "network.parse"),
                         (network.load_flow_field, "network.parse"),
                         (network.subdivide_pipes, "network.subdivide"),
                         (scenario.read_demand_set, "scenario.read"),
                         (scenario.read_price_series, "scenario.read"),
                         (scenario.read_load_series, "scenario.read"),
                         (scenario.build_scenario, "scenario.build"),
                         (thermal.assemble, "thermal.assemble"),
                         (thermal.simulate_system, "thermal.forward"),
                         (thermal.energy_balance, "thermal.energy_balance"),
                         (cli.main, "cli.main")):
            self._patch_everywhere(fn, self._wrap(name, fn))
        self._patch_everywhere(optimizer.optimize, self._wrap(
            "optimizer.optimize", optimizer.optimize, self._after_optimize))
        self._set(optimizer, "lbfgs_minimize", self._wrap(
            "optimizer.lbfgs", optimizer.lbfgs_minimize, self._after_lbfgs))
        for term in _OBJECTIVE_TERMS:
            self._set(optimizer, term, self._wrap(
                f"objective.{term}", getattr(optimizer, term)))

        sm = thermal.SystemMatrices
        self._set(sm, "_factorize", self._wrap(
            "thermal.factorize", sm._factorize, self._after_factorize))
        self._set(sm, "solve_adjoint", self._counter(
            "thermal.adjoint_solves", sm.solve_adjoint))
        ev = optimizer.ObjectiveEvaluator
        self._set(ev, "value", self._wrap("optimizer.value", ev.value))
        self._set(ev, "value_and_gradient", self._wrap(
            "optimizer.gradient", ev.value_and_gradient))
        forward = ev._forward
        counts = self.counts

        def counted_forward(evaluator, u):
            before = evaluator.n_evals
            result = forward(evaluator, u)
            counts[f"{self.phase}:forward_calls"] += 1
            counts[f"{self.phase}:forward_hits"] += evaluator.n_evals == before
            return result
        self._set(ev, "_forward", counted_forward)

    def remove(self):
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    # -- result hooks ------------------------------------------------------

    def _after_factorize(self, args, kwargs, lu):
        self.lu_nnz.append((self.phase, lu.L.nnz + lu.U.nnz))

    def _after_lbfgs(self, args, kwargs, result):
        from dhnopt.optimizer import OptimizerConfig
        config = args[3] if len(args) > 3 else kwargs.get("config")
        reason = classify_stop(result, config or OptimizerConfig())
        self.counts[f"{self.phase}:stop.{reason}"] += 1
        self.counts[f"{self.phase}:iterations"] += result.iterations

    def _after_optimize(self, args, kwargs, result):
        report = result[1]
        self.counts[f"{self.phase}:rounds"] += len(report.rounds)
        self.counts[f"{self.phase}:rounds_converged"] += sum(
            r.converged for r in report.rounds)

    # -- reduction ---------------------------------------------------------

    def self_times(self, phase):
        """Total self time per span name in one phase, seconds.

        A span's self time is its duration minus the durations of its
        direct children; spans nest strictly, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for i, (name, start, end, _, ph) in enumerate(self.spans):
            if ph == phase:
                out[name] += end - start - child[i]
        return out

    def metrics(self, n_setups, n_ops):
        """Per-layer metrics: set-up ones per set-up, the rest per op."""
        su = self.self_times("setup")
        op = self.self_times("op")
        c = self.counts

        def per_setup(name):
            return su[name] / max(n_setups, 1)

        def per_op(value):
            return value / max(n_ops, 1)

        def layer_self(layer, exclude=()):
            return per_op(sum(v for k, v in op.items()
                              if k.startswith(layer + ".") and k not in exclude))

        sweeps = [1e3 * (end - start) for name, start, end, _, ph in self.spans
                  if name == "thermal.forward" and ph == "op"]
        q = statistics.quantiles(sweeps, n=10) if len(sweeps) > 1 else None
        calls = c["op:forward_calls"]
        value_calls = sum(1 for s in self.spans
                          if s[0] == "optimizer.value" and s[4] == "op")
        gradient_calls = sum(1 for s in self.spans
                             if s[0] == "optimizer.gradient" and s[4] == "op")
        iterations = c["op:iterations"]
        terms = [f"objective.{t}" for t in _OBJECTIVE_TERMS]
        nnz = [n for ph, n in self.lu_nnz if ph == "setup"]
        out = {
            "network.parse_s": (per_setup("network.parse"), "s"),
            "network.subdivide_s": (per_setup("network.subdivide"), "s"),
            "scenario.read_s": (per_setup("scenario.read"), "s"),
            "scenario.build_s": (per_setup("scenario.build"), "s"),
            "thermal.assemble_s": (per_setup("thermal.assemble"), "s"),
            "thermal.factorize_s": (per_setup("thermal.factorize"), "s"),
            "thermal.lu_nnz": (nnz[-1] if nnz else 0, "count"),
            "network.self_s": (layer_self("network"), "s"),
            "scenario.self_s": (layer_self("scenario"), "s"),
            "thermal.self_s": (layer_self("thermal"), "s"),
            "thermal.forward_sweeps": (per_op(len(sweeps)), "count"),
            "thermal.forward_sweep_ms.p50": (
                statistics.median(sweeps) if sweeps else 0.0, "ms"),
            "thermal.forward_sweep_ms.p90": (q[-1] if q else 0.0, "ms"),
            "thermal.adjoint_solves": (per_op(c["thermal.adjoint_solves"]), "count"),
            "thermal.energy_balance_s": (per_op(op["thermal.energy_balance"]), "s"),
            "objective.terms_s": (per_op(sum(op[t] for t in terms)), "s"),
            "objective.calls": (per_op(sum(
                1 for s in self.spans if s[0] in terms and s[4] == "op")), "count"),
            "optimizer.gradient_s": (per_op(op["optimizer.gradient"]), "s"),
            "optimizer.self_s": (layer_self(
                "optimizer", exclude=("optimizer.gradient",)), "s"),
            "optimizer.rounds": (per_op(c["op:rounds"]), "count"),
            "optimizer.rounds_converged": (per_op(c["op:rounds_converged"]), "count"),
            "optimizer.iterations": (per_op(iterations), "count"),
            "optimizer.value_calls": (per_op(value_calls), "count"),
            "optimizer.gradient_calls": (per_op(gradient_calls), "count"),
            "optimizer.ls_accept_ratio": (
                iterations / value_calls if value_calls else 0.0, "fraction"),
            "optimizer.cache_hit_ratio": (
                c["op:forward_hits"] / calls if calls else 0.0, "fraction"),
            "cli.self_s": (layer_self("cli"), "s"),
            "trace.spans": (per_op(sum(1 for s in self.spans if s[4] == "op")),
                            "count"),
        }
        for reason in _STOP_REASONS:
            out[f"optimizer.stop.{reason}"] = (per_op(c[f"op:stop.{reason}"]),
                                               "count")
        return out

    def write(self, path):
        """Write the recorded spans as CSV (times relative to the first)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["index", "name", "start_s", "end_s", "parent", "phase"])
            for i, (name, start, end, parent, phase) in enumerate(self.spans):
                w.writerow([i, name, f"{start - t0:.9f}", f"{end - t0:.9f}",
                            parent, phase])
