"""Plans are scored a group at a time, and a plan's metrics are the same
bits in any group, in any order, and with any number of pool workers."""

import tracemalloc

import numpy as np
import pytest

from linepaint import lower_sim
from linepaint.evaluation import evaluate, evaluate_assignment
from linepaint.ga import PopulationEvaluator
from linepaint.genotype import decode, random_solution
from linepaint.lower_sim import _block_metrics, _plan, simulate_all, tape_arms
from linepaint.presets import preset_scene
from linepaint.repair import repair_all
from linepaint.scene import _World


def _repaired(scene, seed, count):
    rngs = [np.random.default_rng([seed, k]) for k in range(count)]
    return [repair_all(random_solution(scene.n_dim, rng), scene) for rng in rngs]


def _hex(scores):
    return [({a: v.hex() for a, v in t_out.items()}, t_col.hex()) for t_out, t_col in scores]


@pytest.mark.parametrize("name", ["desk", "v1", "v3"])
def test_a_plan_scores_the_same_in_any_group(name):
    scene = preset_scene(name)
    world, arms = _World(scene), tape_arms(scene)
    plans = [_plan(decode(x, scene), scene, world)[0] for x in _repaired(scene, 51, 9)]
    alone = [_hex(_block_metrics([tapes], arms, scene.config))[0] for tapes in plans]
    order = np.random.default_rng(0).permutation(len(plans))
    for size in (2, 3, 4, 9):
        for chosen in (range(len(plans)), order, order[::-1]):
            chosen = list(chosen)
            for start in range(0, len(chosen), size):
                group = chosen[start : start + size]
                scores = _hex(_block_metrics([plans[k] for k in group], arms, scene.config))
                assert scores == [alone[k] for k in group]


def test_simulate_all_scores_groups_within_the_budget(monkeypatch, desk):
    groups = []

    def spy(plans, arms, cfg):
        groups.append(len(plans))
        return _block_metrics(plans, arms, cfg)

    assigns = [decode(x, desk) for x in _repaired(desk, 52, 20)]
    monkeypatch.setattr(lower_sim, "_block_metrics", spy)
    grouped = list(simulate_all(assigns, desk))
    assert sum(groups) == 20 and max(groups) > 1  # several desk plans per pass
    for assign, (_, metrics) in zip(assigns, grouped):
        _, alone = evaluate_assignment(assign, desk)
        assert metrics == alone


@pytest.mark.parametrize("name", ["desk", "v1", "v3"])
def test_population_evaluator_matches_one_at_a_time(name):
    scene = preset_scene(name)
    pop = _repaired(scene, 53, 14)
    expected = [evaluate_assignment(decode(x, scene), scene)[0] for x in pop]
    assert evaluate(pop, scene) == expected
    for workers in (1, 2):
        evaluator = PopulationEvaluator(scene, workers=workers)
        try:
            assert evaluator.evaluate_all(pop) == expected
        finally:
            evaluator.close()


def test_scored_group_allocation_peak(monkeypatch):
    # the traced allocation peak of each scoring pass over what it held at
    # its start: 2.2, 2.6 and 2.3 MB at most on desk, v1 and v3, in groups
    # bounded by GROUP_PAIR_PIECES; one pass over 24 v1 plans takes 54 MB
    peaks = {}

    def traced(plans, arms, cfg):
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        scores = _block_metrics(plans, arms, cfg)
        peaks[name] = max(peaks.get(name, 0), tracemalloc.get_traced_memory()[1] - held)
        return scores

    for name in ("desk", "v1", "v3"):
        scene = preset_scene(name)
        assigns = [decode(x, scene) for x in _repaired(scene, 54, 12)]
        list(simulate_all(assigns[:1], scene))  # the scene's lookups, computed on first use
        monkeypatch.setattr(lower_sim, "_block_metrics", traced)
        tracemalloc.start()
        try:
            list(simulate_all(assigns, scene))
        finally:
            tracemalloc.stop()
            monkeypatch.undo()
    assert max(peaks.values()) < 3.5 * 2**20, peaks
