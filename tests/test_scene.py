import math
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
import yaml

from linepaint.evaluation import evaluate_assignment
from linepaint.genotype import UpperSolution, decode
from linepaint.lower_sim import PAINT, simulate
from linepaint.scene import (
    ArmConfig,
    LineKinematics,
    PaintSegment,
    Panel,
    ScenarioConfig,
    ScenarioError,
    SyntheticSpec,
    VehicleScene,
    generate_synthetic_scene,
    load_scene,
    save_scene,
    scene_from_dict,
    scene_to_dict,
    with_config,
    _FITS,
    _World,
)
from linepaint.repair import repair_all
from linepaint.seeding import base_boundaries, solution_from_boundaries

from _oracles import default_dummy_count


def _minimal_scene(**overrides):
    kw = dict(
        name="toy",
        front_x=1000.0,
        panels=(Panel(1, "vertical_side", "mirror"),),
        segments=(
            PaintSegment(1, 1, (0.0, 400.0, -900.0), (900.0, 400.0, -900.0), 1),
            PaintSegment(2, 1, (0.0, 600.0, -900.0), (900.0, 600.0, -900.0), 2),
        ),
        arms=(
            ArmConfig(1, (500.0, 500.0, -1900.0), 2800.0, 1, "left", 2),
            ArmConfig(2, (500.0, 500.0, 1900.0), 2800.0, 1, "right", 1),
        ),
        line=LineKinematics(velocity=98.0),
        config=ScenarioConfig(n_d=2),
    )
    kw.update(overrides)
    return VehicleScene(**kw)


def test_world_translation_exact():
    # velocity 147 mm/s, tick 0.01 s, 100 ticks -> exactly 147 mm of drift
    scene = _minimal_scene(front_x=0.0, line=LineKinematics(velocity=147.0))
    world = _World(scene)
    p = scene.segment(1).endpoint_a
    a0 = world.at(p, 0)
    a100 = world.at(p, 100)
    assert a100[0] - a0[0] == 147.0
    assert a100[1] == a0[1] and a100[2] == a0[2]


def test_world_at_adds_the_drift_bit_for_bit():
    # the helper builds the point from floats; it must equal the vector sum
    # p + (1, 0, 0) * drift, signed zeros included, on either side of x = 0
    for ref in (-5000.0, 5000.0):
        scene = _minimal_scene(line=LineKinematics(velocity=98.0, reference_position=ref))
        world = _World(scene)
        for p in ((1.5, -0.0, 0.0), (-0.0, 0.0, -0.0), (123.25, -7.0, 1e-300)):
            for t in (0, 7, 10**4):
                drift = np.array([1.0, 0.0, 0.0]) * (world.off0 + world.k * t)
                assert world.at(p, t).tobytes() == (np.asarray(p) + drift).tobytes()


def test_world_helper_matches_planner_translation(desk):
    # every painted segment's last paint tick sits on one of its endpoints,
    # drifted to that tick
    x = solution_from_boundaries(base_boundaries(desk), desk)
    traj, _ = simulate(decode(x, desk), desk)
    world = _World(desk)
    checked = 0
    for arm in desk.left_arms():
        row = traj.arm_ids.index(arm.id)
        for sid in np.unique(traj.seg_ids[row]):
            if sid < 1:
                continue
            t = int(np.nonzero((traj.seg_ids[row] == sid) & (traj.actions[row] == PAINT))[0][-1])
            seg = desk.segment(int(sid))
            ends = [world.at(p, t) for p in (seg.endpoint_a, seg.endpoint_b)]
            pos = traj.positions[row, t]
            assert min(np.abs(pos - e).max() for e in ends) < 1e-6
            checked += 1
    assert checked == desk.n_segs


def test_yaml_round_trip(tmp_path, desk):
    path = tmp_path / "scene.yaml"
    save_scene(desk, path)
    back = load_scene(path)
    assert back == desk


def test_dict_round_trip(desk):
    assert scene_from_dict(scene_to_dict(desk)) == desk


def test_omitted_keys_take_the_dataclass_defaults(desk):
    doc = scene_to_dict(desk)
    del doc["config"], doc["line"]["reference_position"]
    for p in doc["scene"]["panels"]:
        del p["name"], p["parallel_offset"], p["delay"]
    for s in doc["scene"]["segments"]:
        del s["side"]
    panels = tuple(replace(p, name="") for p in desk.panels)
    assert scene_from_dict(doc) == replace(desk, panels=panels, config=ScenarioConfig())


def _integral_floats_as_ints(doc):
    if isinstance(doc, dict):
        return {k: _integral_floats_as_ints(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_integral_floats_as_ints(v) for v in doc]
    return int(doc) if isinstance(doc, float) and doc.is_integer() else doc


def _hex(value):
    """A report's numbers as exact float bits."""
    if isinstance(value, dict):
        return {k: _hex(v) for k, v in value.items()}
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value).hex()
    return value


def test_yaml_ints_load_as_ints_and_score_like_floats(tmp_path, desk):
    # 4500 where desk has 4500.0: the loader keeps the int, and it must score the same
    path = tmp_path / "ints.yaml"
    path.write_text(yaml.safe_dump(_integral_floats_as_ints(scene_to_dict(desk)), sort_keys=False))
    ints = load_scene(path)
    assert type(ints.front_x) is int and type(ints.arms[0].center[0]) is int
    rng = np.random.default_rng(0)
    genotypes = [solution_from_boundaries(base_boundaries(desk), desk)]
    for _ in range(3):
        x = UpperSolution(tuple(int(g) for g in rng.permutation(desk.n_dim) + 1))
        genotypes.append(repair_all(x, desk))
    for x in genotypes:
        assert repair_all(x, ints) == repair_all(x, desk)
        a, b = (asdict(evaluate_assignment(decode(x, s), s)[0]) for s in (desk, ints))
        assert _hex(a) == _hex(b)


def test_segment_ids_contiguous(desk):
    assert sorted(s.id for s in desk.segments) == list(range(1, desk.n_segs + 1))
    for panel in desk.panels:
        ids = desk.panel_segment_ids(panel.id)
        heights = [desk.segment(s).height_index for s in ids]
        assert heights == sorted(heights)


def test_generator_deterministic():
    spec = SyntheticSpec(seed=7, side_panel_segments=(5, 5, 5))
    a = generate_synthetic_scene(spec)
    b = generate_synthetic_scene(spec)
    assert a == b
    c = generate_synthetic_scene(SyntheticSpec(seed=8, side_panel_segments=(5, 5, 5)))
    assert a != c


def test_validation_duplicate_segment_id():
    seg = PaintSegment(1, 1, (0.0, 400.0, -900.0), (900.0, 400.0, -900.0), 1)
    with pytest.raises(ScenarioError):
        _minimal_scene(segments=(seg, seg))


def test_validation_segments_out_of_id_order():
    # segment(i) indexes by position, so a reversed tuple would swap segments
    segs = _minimal_scene().segments
    with pytest.raises(ScenarioError):
        _minimal_scene(segments=segs[::-1])


def test_validation_runs_on_with_config():
    with pytest.raises(ScenarioError):
        with_config(_minimal_scene(), v_sp=0.0)


@pytest.mark.parametrize(
    "key, value",
    [
        ("v_sp", math.inf),
        ("v_mv", math.nan),
        ("v_mv", math.inf),
        ("gamma_col", math.nan),
        ("t_p", math.inf),
        ("mu", math.nan),
        ("head_turn_wait", math.nan),
        ("rho_col", math.nan),
        ("rho_out", math.inf),
        ("back_door_rule", "no"),
        ("back_door_rule", 1),
        ("v_sp", "fast"),
        ("t_max", True),
        ("n_d", 2.0),
    ],
)
def test_validation_rejects_non_finite_or_non_bool_config(key, value):
    with pytest.raises(ScenarioError):
        with_config(_minimal_scene(), **{key: value})


def test_validation_zero_length_segment():
    segs = (
        PaintSegment(1, 1, (0.0, 400.0, -900.0), (0.0, 400.0, -900.0), 1),
        PaintSegment(2, 1, (0.0, 600.0, -900.0), (900.0, 600.0, -900.0), 2),
    )
    with pytest.raises(ScenarioError):
        _minimal_scene(segments=segs)


def test_validation_noncontiguous_heights():
    segs = (
        PaintSegment(1, 1, (0.0, 400.0, -900.0), (900.0, 400.0, -900.0), 1),
        PaintSegment(2, 1, (0.0, 600.0, -900.0), (900.0, 600.0, -900.0), 3),
    )
    with pytest.raises(ScenarioError):
        _minimal_scene(segments=segs)


def test_validation_mirror_pairing():
    arms = (
        ArmConfig(1, (500.0, 500.0, -1900.0), 2800.0, 1, "left", 1),
        ArmConfig(2, (500.0, 500.0, 1900.0), 2800.0, 1, "right", 2),
    )
    with pytest.raises(ScenarioError):
        _minimal_scene(arms=arms)


def test_validation_side_panel_must_mirror():
    with pytest.raises(ScenarioError):
        _minimal_scene(panels=(Panel(1, "vertical_side", "parallel"),))


def test_validation_rejects_nonpositive_radius():
    arms = (
        ArmConfig(1, (500.0, 500.0, -1900.0), 0.0, 1, "left", 2),
        ArmConfig(2, (500.0, 500.0, 1900.0), 0.0, 1, "right", 1),
    )
    with pytest.raises(ScenarioError):
        _minimal_scene(arms=arms)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_validation_rejects_non_finite_radius_and_line_velocity(value):
    arms = (
        ArmConfig(1, (500.0, 500.0, -1900.0), value, 1, "left", 2),
        ArmConfig(2, (500.0, 500.0, 1900.0), value, 1, "right", 1),
    )
    with pytest.raises(ScenarioError):
        _minimal_scene(arms=arms)
    with pytest.raises(ScenarioError):
        _minimal_scene(line=LineKinematics(velocity=value))


def _first_replaced(items, **changes):
    return (replace(items[0], **changes), *items[1:])


# per geometry field, named as its message names it: a scene with that field set to v
NON_FINITE_GEOMETRY = {
    "endpoints": lambda s, v: replace(
        s, segments=_first_replaced(s.segments, endpoint_b=(0.0, v, -900.0))
    ),
    "center": lambda s, v: replace(s, arms=_first_replaced(s.arms, center=(v, 1000.0, -1900.0))),
    "front_x": lambda s, v: replace(s, front_x=v),
    "reference_position": lambda s, v: replace(s, line=replace(s.line, reference_position=v)),
    "parallel_offset": lambda s, v: replace(s, panels=_first_replaced(s.panels, parallel_offset=v)),
    "delay": lambda s, v: replace(s, panels=_first_replaced(s.panels, delay=v)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", sorted(NON_FINITE_GEOMETRY))
def test_validation_rejects_non_finite_geometry(desk, field, value):
    with pytest.raises(ScenarioError, match=field):
        NON_FINITE_GEOMETRY[field](desk, value)


def test_every_field_annotation_has_a_type_check():
    # a field whose annotation had no entry would skip the check at construction
    records = (Panel, PaintSegment, ArmConfig, LineKinematics, ScenarioConfig)
    types = {f.type for cls in records for f in fields(cls)}
    types |= {f.type for f in fields(VehicleScene) if f.name in ("name", "front_x")}
    assert types <= _FITS.keys()


# per mistyped field: a scene with that field set to a value of the wrong type
MISTYPED = {
    "name": lambda s: replace(s, name=None),
    "front_x": lambda s: replace(s, front_x="1000"),
    "id": lambda s: replace(s, panels=_first_replaced(s.panels, id=1.0)),
    "height_index": lambda s: replace(
        s, segments=_first_replaced(s.segments, height_index=True)
    ),
    "endpoint_a": lambda s: replace(
        s, segments=_first_replaced(s.segments, endpoint_a=(0.0, 400.0))
    ),
    "radius": lambda s: replace(s, arms=_first_replaced(s.arms, radius=True)),
    "center": lambda s: replace(s, arms=_first_replaced(s.arms, center=[500.0, 500.0, -1900.0])),
    "velocity": lambda s: replace(s, line=replace(s.line, velocity="98")),
}


@pytest.mark.parametrize("field", sorted(MISTYPED))
def test_validation_rejects_mistyped_fields(field):
    with pytest.raises(ScenarioError, match=f"{field} must be"):
        MISTYPED[field](_minimal_scene())


def test_layout_sizes(desk):
    assert (desk.n_dim, desk.slot_width) == (90, 30)  # 60 segments + 30 dummies, 3 arms
    assert with_config(desk, n_d=33).slot_width == 31


def test_load_rejects_bad_version(tmp_path, desk):
    doc = scene_to_dict(desk)
    doc["format_version"] = 999
    with pytest.raises(ScenarioError):
        scene_from_dict(doc)


def test_default_dummy_count():
    assert default_dummy_count(60, 3) == 30
    for n_segs in (7, 30, 61, 268):
        for n_arms in (1, 2, 3, 4):
            n_d = default_dummy_count(n_segs, n_arms)
            assert (n_segs + n_d) % n_arms == 0
            assert n_d >= math.ceil(n_segs / 2)


def test_left_arms_sorted_by_row(desk):
    rows = [a.row for a in desk.left_arms()]
    assert rows == sorted(rows)
    assert all(a.side == "left" for a in desk.left_arms())
