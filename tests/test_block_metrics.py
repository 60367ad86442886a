"""simulate scores a plan from its tapes' phase blocks; the tick-level scans
of the rendered table are the oracles it must match bit for bit."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from linepaint import lower_sim
from linepaint.evaluation import evaluate_assignment
from linepaint.ga import PopulationEvaluator
from linepaint.genotype import decode, random_solution
from linepaint.lower_sim import (
    PAINT,
    Trajectory,
    _block_metrics,
    _render,
    _rows,
    _Tape,
    collision_time,
    simulate,
)
from linepaint.presets import preset_scene
from linepaint.repair import repair_all
from linepaint.scene import (
    ArmConfig,
    ScenarioConfig,
    SyntheticSpec,
    _World,
    generate_synthetic_scene,
)

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


def _world(k: float = 0.0, off0: float = 0.0) -> _World:
    """A line that drifts k mm per tick from x offset off0 at tick 0."""
    line = SimpleNamespace(velocity=k, reference_position=off0)
    return _World(SimpleNamespace(line=line, front_x=0.0, config=SimpleNamespace(mu=1.0)))


def _paint(tape, n, d, world=None):
    """An n-tick stroke from the tape's position along d."""
    tape.drifting(PAINT, 1, n, tape.pos.copy(), np.asarray(d, dtype=float), world or _world())


def _parked(home, n):
    tape = _Tape(home)
    tape.hold(n)
    return tape


def _edge_distance_exactly_gamma():
    # 100 ticks in lockstep exactly gamma_col apart and two ticks exactly
    # gamma_col apart, which the strict test rejects; then one tick 1 mm
    # closer.  The jumps are one-tick moves.
    tape_a, tape_b = _Tape((0.0, 0.0, -150.0)), _Tape((0.0, 0.0, 150.0))
    tape_a.move(100, np.array([100.0, 0.0, 0.0]))
    tape_a.hold(3)
    tape_b.move(100, np.array([100.0, 0.0, 0.0]))
    for d in ([300.0, 0.0, -300.0], [-300.0, 0.0, 300.0], [0.0, 0.0, -1.0]):
        tape_b.move(1, np.array(d))
    return [tape_a, tape_b], _ARMS, 15000, 1


def _edge_one_tick_inside_long_block():
    # a 2000-tick stroke along x passes a parked head 299.9 mm off its line;
    # only x == 0 is closer than 300 mm
    tape_a = _Tape((-10000.0, 0.0, 0.0))
    _paint(tape_a, 2000, [20000.0, 0.0, 0.0])
    return [tape_a, _parked((0.0, 0.0, 299.9), 2000)], _ARMS, 15000, 1


def _edge_held_past_tape_end():
    # arm 1 stops at tick 10; arm 2 sweeps past the held head afterwards
    tape_a = _Tape((0.0, 0.0, -1000.0))
    tape_a.move(10, np.array([0.0, 0.0, 1000.0]))
    tape_b = _parked((5000.0, 0.0, 100.0), 20)
    tape_b.move(100, np.array([-10000.0, 0.0, 0.0]))
    return [tape_a, tape_b], _ARMS, 15000, 5  # x in {-200, ..., 200}


def _edge_block_cut_at_t_max():
    # t_max = 150 cuts both blocks; the heads only meet, and arm 1 only
    # leaves its sphere, after the cut
    tape_a = _Tape((0.0, 0.0, -2000.0))
    _paint(tape_a, 300, [0.0, 0.0, 6000.0])
    return [tape_a, _parked((0.0, 0.0, 4000.0), 300)], _ARMS, 150, 0


def _edge_stroke_against_the_line():
    # a stroke that runs along -x at the line's speed: its drifting x rows
    # are not monotone, and some interior rows lie an ulp beyond the end
    # rows.  Arm 1's sphere touches the farthest of them, so a box spanned
    # by the end rows alone would count the whole stroke out of range.
    tape_a = _Tape((1500.7, 0.0, 0.0))
    _paint(tape_a, 50, [-49.0, 0.0, 0.0], _world(0.98, -4321.123))
    tapes = [tape_a, _parked((0.0, 5000.0, 0.0), 50)]
    x = Trajectory(tapes, [1, 2], ScenarioConfig()).positions[0, 1:, 0]
    assert x.max() > max(x[0], x[-1])
    arms = (
        ArmConfig(1, (x.max() + 1024.0, 0.0, 0.0), 1024.0, 1, "left", 2),
        ArmConfig(2, (0.0, 5000.0, 0.0), 1000.0, 1, "right", 1),
    )
    return tapes, arms, 15000, 0


def _edge_wholly_decided():
    # a stroke wholly outside arm 1's sphere, 100-112 mm from a parked head
    # throughout: both counts come from the boxes alone
    tape_a = _Tape((0.0, 0.0, 1500.0))
    _paint(tape_a, 200, [50.0, 0.0, 0.0])
    return [tape_a, _parked((0.0, 0.0, 1600.0), 200)], _ARMS, 15000, 201


@pytest.mark.parametrize(
    "edge",
    [
        _edge_distance_exactly_gamma,
        _edge_one_tick_inside_long_block,
        _edge_held_past_tape_end,
        _edge_block_cut_at_t_max,
        _edge_stroke_against_the_line,
        _edge_wholly_decided,
    ],
)
def test_matches_oracles_on_hand_built_tapes(edge, monkeypatch):
    tapes, arms, t_max, colliding_ticks = edge()
    cfg = ScenarioConfig(gamma_col=300.0, t_max=t_max)
    evaluated = []

    def counted(par, j, i):
        evaluated.append(len(i))
        return _rows(par, j, i)

    monkeypatch.setattr(lower_sim, "_rows", counted)
    t_out, t_col = _block_metrics(tapes, arms, cfg)
    monkeypatch.undo()
    traj = Trajectory(tapes, [a.id for a in arms], cfg)
    assert _hex(t_out) == _hex(oracle_out_of_range(traj, arms))
    assert t_col.hex() == collision_time(traj, cfg.gamma_col).hex()
    assert t_col == colliding_ticks * cfg.mu
    if edge is _edge_one_tick_inside_long_block:
        assert t_out[1] > 0.0
    if edge is _edge_block_cut_at_t_max:
        assert traj.positions.shape[1] == 151 and t_out[1] == 0.0
    if edge is _edge_stroke_against_the_line:
        assert 0.0 < t_out[1] < 50 * cfg.mu
    if edge is _edge_wholly_decided:
        assert t_out[1] == 200 * cfg.mu
        # only the two end rows of each arm on ticks 0 and 1..200
        assert evaluated == [8, 0]


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
    assert np.array_equal(positions, direct[0])
    assert np.array_equal(actions, direct[1])
    assert np.array_equal(seg_ids, direct[2])
    assert len(rendered) == 1


# ---------------------------------------------------------------------------
# memory


def test_fitness_path_allocation_peak():
    # the traced allocation peak of one evaluation: 4.3-4.4 MB on v3 while
    # the fitness path laid the plan out tick by tick, under 2.5 MB from the
    # phase blocks; per-tick arrays coming back would cross 3 MB
    scene = preset_scene("v3")
    rngs = [np.random.default_rng([43, k]) for k in range(30)]
    assigns = [decode(repair_all(random_solution(scene.n_dim, rng), scene), scene) for rng in rngs]
    evaluate_assignment(assigns[0], scene)  # the scene's lookups, computed on first use
    peaks = []
    for assign in assigns:
        tracemalloc.start()
        try:
            evaluate_assignment(assign, scene)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 3 * 2**20
