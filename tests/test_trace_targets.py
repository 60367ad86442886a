"""The benchmark drives linepaint through a few public names: its traced run
rebinds them by (owner, attribute), and its workloads call them with
positional arguments.  A rename or a changed call shape in the package must
fail here, not as a KeyError or a failed run in `perfbench/run.py`."""

import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from linepaint import evaluation, ga, lower_sim, repair
from linepaint.genotype import decode, random_solution
from linepaint.scene import with_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_trace_targets_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    targets = workloads.trace_targets()
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in targets
        if attr not in owner.__dict__
    ]
    assert targets and not missing


@pytest.mark.parametrize(
    "fn, args",
    [
        (ga.run, ("scene", "cfg", "ga_cfg")),
        (ga.PopulationEvaluator, ("scene", "cfg", "workers")),
        (repair.repair_all, ("x", "scene", "cfg")),
        (evaluation.evaluate_assignment, ("assign", "scene", "cfg")),
        (lower_sim.reach_windows, ("scene", "cfg")),
    ],
)
def test_benchmark_positional_calls_bind(fn, args):
    inspect.signature(fn).bind(*args)


def test_simulate_result_has_what_the_benchmark_reads(desk):
    # the traced run counts ticks from traj.positions and sums
    # metrics.horizon_exhausted
    scene = with_config(desk, t_max=500)
    x = random_solution(scene.n_dim, np.random.default_rng(0))
    traj, metrics = lower_sim.simulate(decode(x, scene), scene)
    assert traj.positions.shape[:2] == (2 * len(scene.left_arms()), 501)
    assert metrics.horizon_exhausted is True
