"""The benchmark's tracer installs on, and comes off, this package.

``perfbench/tracer.py`` patches package names it looks up by string
(a ``KeyError`` if one is gone). Its own tests are not part of this
suite, so this one catches a rename or deletion of a traced name here.
"""

import importlib.util
from pathlib import Path

import numpy as np

from conftest import make_loop_scenario
from dhnopt import cli, network, optimizer, scenario, thermal
from dhnopt.optimizer import OptimizerConfig

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_PATCHED = (cli, network, optimizer, scenario, thermal,
            thermal.SystemMatrices, optimizer.ObjectiveEvaluator)


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    return [dict(vars(owner)) for owner in _PATCHED]


def test_install_traces_an_optimize_run_and_remove_restores():
    before = _namespaces()
    sc = make_loop_scenario(n_steps=24, swing=0.3)
    with _tracer_module().Tracer() as tracer:
        optimizer.optimize(sc, config=OptimizerConfig(max_inner_iterations=5,
                                                      penalty_stop=100.0))
        # optimize makes no value-only calls, so make one here
        ev = optimizer.ObjectiveEvaluator(sc, 10.0)
        ev.value(np.full((1, 24), 101.0))
        ev.value_and_gradient(np.full((1, 24), 100.0))
    names = {span[0] for span in tracer.spans}
    assert {"optimizer.optimize", "optimizer.lbfgs", "optimizer.value",
            "optimizer.gradient", "thermal.factorize", "objective.loss_energy",
            "objective.objective_loss", "objective.tikhonov",
            "objective.constraint_violations", "objective.penalty"} <= names
    for old, new in zip(before, _namespaces()):
        assert old.keys() == new.keys()
        assert all(old[k] is new[k] for k in old)


def test_a_value_call_alone_traces_its_objective_terms():
    tracer_module = _tracer_module()
    # the install looks each term up on optimizer by name
    assert all(hasattr(optimizer, term) for term in tracer_module._OBJECTIVE_TERMS)
    sc = make_loop_scenario(n_steps=24, swing=0.3)
    ev = optimizer.ObjectiveEvaluator(sc, 10.0)
    with tracer_module.Tracer() as tracer:
        ev.value(np.full((1, 24), 101.0))
    names = [span[0] for span in tracer.spans]
    value = names.index("optimizer.value")
    for term in ("objective.loss_energy", "objective.tikhonov",
                 "objective.penalty"):
        assert tracer.spans[names.index(term)][3] == value, term


def test_names_the_benchmark_tests_read_are_the_package_functions():
    # the benchmark's own tests read both names; that suite is not part
    # of this one, so this catches a deletion or rebinding here
    assert optimizer.simulate_system is thermal.simulate_system
    assert cli.optimize is optimizer.optimize
