"""simulate scores a plan from its tapes' phase blocks; the tick-level scans
of the rendered table are the oracles it must match bit for bit."""

import numpy as np
import pytest

from linepaint import lower_sim
from linepaint.evaluation import evaluate_assignment
from linepaint.ga import PopulationEvaluator
from linepaint.genotype import decode, random_solution
from linepaint.lower_sim import (
    MOVE,
    PAINT,
    WAIT,
    _block_metrics,
    _render,
    _Tape,
    collision_time,
    simulate,
)
from linepaint.presets import preset_scene
from linepaint.repair import repair_all
from linepaint.scene import ArmConfig, ScenarioConfig, SyntheticSpec, generate_synthetic_scene

from _oracles import (
    oracle_out_of_range,
    random_assignment,
    random_contract_scene,
    random_tiny_scene,
)


def _hex(t_out):
    return {arm_id: v.hex() for arm_id, v in t_out.items()}


def _assert_matches_oracles(scene, assign):
    traj, metrics = simulate(assign, scene)
    assert _hex(metrics.t_out) == _hex(oracle_out_of_range(traj, scene.arms))
    assert list(metrics.t_out) == list(traj.arm_ids)  # range_penalty sums in this order
    assert metrics.t_col.hex() == collision_time(traj, scene.config.gamma_col).hex()
    return metrics


def test_matches_oracles_on_contract_and_tiny_scenes():
    for i in range(50):
        scene = random_contract_scene(1000 + i, mirror_only=i % 2 == 0)
        _assert_matches_oracles(scene, random_assignment(scene, 2000 + i))
    for i in range(100):
        scene = random_tiny_scene(5000 + i)
        _assert_matches_oracles(scene, random_assignment(scene, 6000 + i))


def test_matches_oracles_with_one_arm_per_side():
    spec = SyntheticSpec(seed=4, n_arms_side=1, side_panel_segments=(5, 5), hood_segments=3)
    scene = generate_synthetic_scene(spec, ScenarioConfig(n_d=7, t_max=20000, back_door_rule=False))
    for k in range(20):
        _assert_matches_oracles(scene, random_assignment(scene, k))


@pytest.mark.parametrize("name", ["desk", "v1", "v3"])
def test_matches_oracles_on_repaired_preset_genotypes(name):
    scene = preset_scene(name)
    n_dim = scene.n_segs + scene.config.n_d
    colliding = out_of_range = 0
    for k in range(200):
        x = repair_all(random_solution(n_dim, np.random.default_rng([31, k])), scene)
        metrics = _assert_matches_oracles(scene, decode(x, scene))
        colliding += metrics.t_col > 0
        out_of_range += any(metrics.t_out.values())
    assert colliding and out_of_range  # both metrics are exercised


# ---------------------------------------------------------------------------
# hand-built tapes

_ARMS = (
    ArmConfig(1, (0.0, 0.0, -2000.0), 3000.0, 1, "left", 2),
    ArmConfig(2, (0.0, 0.0, 2000.0), 3000.0, 1, "right", 1),
)


def _tape(home, *blocks):
    tape = _Tape(home)
    for action, pos in blocks:
        tape.append(action, 1 if action == PAINT else -1, np.asarray(pos, dtype=float))
    return tape


def _line(a, b, n):
    """n ticks from a (exclusive) to b (inclusive)."""
    frac = (np.arange(1, n + 1, dtype=float) / n)[:, None]
    return np.asarray(a) + (np.asarray(b, dtype=float) - np.asarray(a)) * frac


def _edge_distance_exactly_gamma():
    # 100 ticks in lockstep exactly gamma_col apart, which the boxes drop;
    # two ticks exactly gamma_col apart in overlapping boxes, which the
    # strict test rejects; then one tick 1 mm closer
    xs = np.arange(1, 101, dtype=float)[:, None]
    a = np.hstack([xs, np.zeros((100, 1)), np.full((100, 1), -150.0)])
    b = a + [0.0, 0.0, 300.0]
    end = a[-1]
    tape_a = _tape((0.0, 0.0, -150.0), (MOVE, a), (WAIT, [end, end, end]))
    tape_b = _tape(
        (0.0, 0.0, 150.0),
        (MOVE, b),
        (MOVE, [end + [300.0, 0.0, 0.0], end + [0.0, 0.0, 300.0]]),
        (WAIT, [end + [0.0, 0.0, 299.0]]),
    )
    return [tape_a, tape_b], 1


def _edge_one_tick_inside_long_block():
    # a 2001-tick stroke along x passes a parked head 299.9 mm off its line;
    # only x == 0 is closer than 300 mm
    stroke = np.zeros((2001, 3))
    stroke[:, 0] = np.linspace(-10000.0, 10000.0, 2001)
    tape_a = _tape((-10000.0, 0.0, 0.0), (PAINT, stroke))
    tape_b = _tape((0.0, 0.0, 299.9), (WAIT, np.tile([0.0, 0.0, 299.9], (2001, 1))))
    return [tape_a, tape_b], 1


def _edge_held_past_tape_end():
    # arm 1 stops at tick 10; arm 2 sweeps past the held head afterwards
    tape_a = _tape((0.0, 0.0, -1000.0), (MOVE, _line((0.0, 0.0, -1000.0), (0.0, 0.0, 0.0), 10)))
    tape_b = _tape(
        (5000.0, 0.0, 100.0),
        (WAIT, np.tile([5000.0, 0.0, 100.0], (20, 1))),
        (MOVE, _line((5000.0, 0.0, 100.0), (-5000.0, 0.0, 100.0), 100)),
    )
    return [tape_a, tape_b], 5  # x in {-200, ..., 200}


def _edge_block_cut_at_t_max():
    # t_max = 150 cuts both strokes; the heads only meet, and arm 1 only
    # leaves its sphere, after the cut
    stroke = _line((0.0, 0.0, -2000.0), (0.0, 0.0, 4000.0), 300)
    tape_a = _tape((0.0, 0.0, -2000.0), (PAINT, stroke))
    tape_b = _tape((0.0, 0.0, 4000.0), (WAIT, np.tile([0.0, 0.0, 4000.0], (300, 1))))
    return [tape_a, tape_b], 0


@pytest.mark.parametrize(
    "edge",
    [
        _edge_distance_exactly_gamma,
        _edge_one_tick_inside_long_block,
        _edge_held_past_tape_end,
        _edge_block_cut_at_t_max,
    ],
)
def test_matches_oracles_on_hand_built_tapes(edge):
    tapes, colliding_ticks = edge()
    cfg = ScenarioConfig(gamma_col=300.0, t_max=150 if edge is _edge_block_cut_at_t_max else 15000)
    t_out, t_col = _block_metrics(tapes, _ARMS, cfg)
    traj = _render(tapes, [a.id for a in _ARMS], cfg)
    assert _hex(t_out) == _hex(oracle_out_of_range(traj, _ARMS))
    assert t_col.hex() == collision_time(traj, cfg.gamma_col).hex()
    assert t_col == colliding_ticks * cfg.mu
    if edge is _edge_one_tick_inside_long_block:
        assert t_out[1] > 0.0
    if edge is _edge_block_cut_at_t_max:
        assert traj.positions.shape[1] == 151 and t_out[1] == 0.0


# ---------------------------------------------------------------------------
# the table is rendered on demand only


def test_fitness_path_does_not_render(monkeypatch):
    def refuse(*args):
        raise AssertionError("the fitness path rendered the trajectory table")

    scene = preset_scene("v3")
    rng = np.random.default_rng(0)
    pop = [repair_all(random_solution(scene.n_segs + scene.config.n_d, rng), scene) for _ in range(3)]
    monkeypatch.setattr(lower_sim, "_render", refuse)
    report, _ = evaluate_assignment(decode(pop[0], scene), scene)
    evaluator = PopulationEvaluator(scene, workers=1)
    try:
        reports = evaluator.evaluate_all(pop)
    finally:
        evaluator.close()
    assert reports[0] == report


def test_table_is_rendered_once_from_the_plan(monkeypatch, desk):
    rendered = []

    def spy(*args):
        rendered.append((args, _render(*args)))
        return rendered[-1][1]

    monkeypatch.setattr(lower_sim, "_render", spy)
    assign = random_assignment(desk, 1)
    traj, _ = simulate(assign, desk)
    assert not rendered
    positions, actions, seg_ids = traj.positions, traj.actions, traj.seg_ids
    assert len(rendered) == 1
    direct = _render(*rendered[0][0])
    assert np.array_equal(positions, direct.positions)
    assert np.array_equal(actions, direct.actions)
    assert np.array_equal(seg_ids, direct.seg_ids)
    assert np.array_equal(traj.homes, direct.homes)
    assert len(rendered) == 1
