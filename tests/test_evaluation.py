from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linepaint.evaluation import (
    collision_penalty,
    evaluate,
    evaluate_assignment,
    order_penalty,
    range_penalty,
    report_from_metrics,
)
from linepaint.genotype import decode
from linepaint.lower_sim import SimMetrics
from linepaint.scene import ScenarioConfig, with_config
from linepaint.seeding import base_boundaries, solution_from_boundaries

from _oracles import oracle_collision_penalty, oracle_range_penalty

CFG = ScenarioConfig()


def test_range_penalty_frozen_examples():
    # one arm: t_out=1.5 s, 2 unvisited -> 500*1.5 + 2*10^4 = 20750.0
    m = SimMetrics(t_out={1: 1.5}, n_unvisits={1: 2})
    assert range_penalty(m, CFG) == 20750.0
    # two arms each t_out=1.0 -> 1000.0
    m = SimMetrics(t_out={1: 1.0, 2: 1.0}, n_unvisits={1: 0, 2: 0})
    assert range_penalty(m, CFG) == 1000.0


def test_collision_penalty_frozen_examples():
    assert collision_penalty(SimMetrics(t_col=0.30), CFG) == 300.0
    assert collision_penalty(SimMetrics(t_col=1.0), CFG) == 1000.0


def test_order_penalty_counts_only_excess():
    cfg = ScenarioConfig(epsilon=1)
    assert order_penalty({1: 1, 2: 0}, cfg) == 0.0
    assert order_penalty({1: 2}, cfg) == cfg.rho_unvisits
    assert order_penalty({1: 3, 2: 2}, cfg) == 3 * cfg.rho_unvisits


@given(
    st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=6),
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=6),
    st.floats(min_value=0.0, max_value=10.0),
)
@settings(max_examples=100, deadline=None)
def test_penalty_arithmetic_matches_oracle(t_outs, unvisits, t_col):
    n = max(len(t_outs), len(unvisits))
    t_out = {a + 1: (t_outs[a] if a < len(t_outs) else 0.0) for a in range(n)}
    n_unv = {a + 1: (unvisits[a] if a < len(unvisits) else 0) for a in range(n)}
    m = SimMetrics(t_out=t_out, n_unvisits=n_unv, t_col=t_col)
    assert range_penalty(m, CFG) == oracle_range_penalty(
        t_out, n_unv, CFG.rho_out, CFG.rho_unvisits
    )
    assert collision_penalty(m, CFG) == oracle_collision_penalty(t_col, CFG.rho_col)


def _feasible_solution(desk):
    return solution_from_boundaries((5, 10), desk)


def test_zero_penalty_objective_equals_max_work_time(desk):
    rep = evaluate(_feasible_solution(desk), desk)
    assert rep.penalty_range == rep.penalty_collision == rep.penalty_order == 0.0
    assert rep.objective == rep.work_time_max == max(rep.t_a.values())


def test_determinism(desk):
    x = solution_from_boundaries(base_boundaries(desk), desk)
    assert evaluate(x, desk) == evaluate(x, desk)


def test_unreachable_segment_costs_at_least_rho_unvisits(desk):
    x = _feasible_solution(desk)
    # shrink every arm's sphere so assigned segments fall out of reach
    arms = tuple(
        type(a)(a.id, a.center, 1100.0, a.row, a.side, a.mirror_partner) for a in desk.arms
    )
    import dataclasses

    small = dataclasses.replace(desk, arms=arms)
    base = evaluate(x, desk)
    hit = evaluate(x, small)
    assert sum(hit.n_unvisits.values()) >= 1
    assert hit.objective - base.objective >= desk.config.rho_unvisits


def test_monotone_under_injected_violations(desk):
    assign = decode(_feasible_solution(desk), desk)
    report, metrics = evaluate_assignment(assign, desk)
    import copy

    worse = copy.deepcopy(metrics)
    worse.t_out[1] = worse.t_out.get(1, 0.0) + 0.5
    worse.t_col += 0.2
    worse.n_unvisits[1] = worse.n_unvisits.get(1, 0) + 1
    bumped = report_from_metrics(worse, assign, desk)
    assert bumped.objective > report.objective
    assert not bumped.strong_feasible


def test_empty_assignment_objective_dominated_by_unvisits(desk):
    empty = tuple(() for _ in desk.left_arms())
    report, _ = evaluate_assignment(empty, desk)
    assert sum(report.n_unvisits.values()) == desk.n_segs
    assert report.objective >= desk.n_segs * desk.config.rho_unvisits
    assert not report.strong_feasible


def test_weak_notes_report_shared_panels(desk):
    x = solution_from_boundaries(base_boundaries(desk), desk)
    rep = evaluate(x, desk)
    assert any("more than one arm" in n for n in rep.weak_notes)


def test_report_round_trips_to_dict(desk):
    rep = evaluate(_feasible_solution(desk), desk)
    d = asdict(rep)
    assert d["objective"] == rep.objective
    assert d["strong_feasible"] is True


@pytest.mark.parametrize(
    "where, extra",
    [(0, "first"), (1, "first"), (0, 0), (0, "past_last")],
    ids=["repeated_in_row", "repeated_across_rows", "zero", "past_last"],
)
def test_invalid_segment_ids_raise(desk, where, extra):
    assign = [list(row) for row in decode(_feasible_solution(desk), desk)]
    sid = {"first": assign[0][0], "past_last": desk.n_segs + 1}.get(extra, extra)
    assign[where].append(sid)
    with pytest.raises(ValueError, match="more than once" if extra == "first" else "unknown"):
        evaluate_assignment(tuple(map(tuple, assign)), desk)
