import dataclasses
import hashlib

import numpy as np
import pytest

from linepaint.genotype import UpperSolution, decode, random_solution, validate
from linepaint.lower_sim import never_reachable
from linepaint.presets import preset_scene
from linepaint.repair import (
    repair_all,
    repair_back_door,
    repair_bottom_up,
    repair_few_arms,
    repair_reachability,
)
from linepaint.scene import (
    ArmConfig,
    LineKinematics,
    PaintSegment,
    Panel,
    ScenarioConfig,
    SyntheticSpec,
    VehicleScene,
    generate_synthetic_scene,
    with_config,
)

from _oracles import default_dummy_count


@pytest.fixture(scope="module")
def block_scene():
    """Two side panels (16 + 5 segments) and three arms: panel 2 holds
    segments 17..21 bottom to top."""
    spec = SyntheticSpec(
        seed=2,
        n_arms_side=3,
        side_panel_segments=(16, 5),
        height_min=300.0,
        height_max=1750.0,
    )
    return generate_synthetic_scene(spec, ScenarioConfig(n_d=9, back_door_rule=False))


def _genes_with(scene, slot_heads):
    """Genotype whose slots start with the given id lists; remaining real and
    dummy ids fill the tails in ascending order."""
    used = {g for head in slot_heads for g in head}
    rest = iter(g for g in range(1, scene.n_dim + 1) if g not in used)
    genes = []
    for head in slot_heads:
        genes.extend(head)
        genes.extend(next(rest) for _ in range(scene.slot_width - len(head)))
    return UpperSolution(tuple(genes))


def test_block_reassignment_exact(block_scene):
    # arm1 {17,19,21}, arm2 {20}, arm3 {18} -> arm1 {17,18,19}, arm2 {20}, arm3 {21}
    x = _genes_with(block_scene, [[17, 19, 21], [20], [18]])
    repaired = repair_bottom_up(x, block_scene)
    assert validate(repaired) is None
    assign = decode(repaired, block_scene)
    panel2 = set(block_scene.panel_segment_ids(2))
    per_arm = [[s for s in row if s in panel2] for row in assign]
    assert per_arm == [[17, 18, 19], [20], [21]]


def test_bottom_up_idempotent(block_scene):
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = random_solution(block_scene.n_segs + block_scene.config.n_d, rng)
        once = repair_bottom_up(x, block_scene)
        assert repair_bottom_up(once, block_scene) == once


def test_bottom_up_fixed_point_on_sorted_blocks(block_scene):
    x = _genes_with(block_scene, [[17, 18], [19, 20], [21]])
    assert repair_bottom_up(x, block_scene) == x


def test_bottom_up_sorts_single_owner(block_scene):
    x = _genes_with(block_scene, [[21, 17, 19, 18, 20], [], []])
    assign = decode(repair_bottom_up(x, block_scene), block_scene)
    panel2 = set(block_scene.panel_segment_ids(2))
    assert [s for s in assign[0] if s in panel2] == [17, 18, 19, 20, 21]


def _partition_scene():
    """Two arms whose spheres partition the segments: segment 1 reachable only
    by arm 1, segment 2 only by arm 2 (distant x positions, line barely moves)."""
    segs = (
        PaintSegment(1, 1, (0.0, 500.0, -900.0), (200.0, 500.0, -900.0), 1),
        PaintSegment(2, 1, (30000.0, 700.0, -900.0), (30200.0, 700.0, -900.0), 2),
    )
    arms = (
        ArmConfig(1, (100.0, 600.0, -1500.0), 1500.0, 1, "left", 3),
        ArmConfig(2, (30100.0, 600.0, -1500.0), 1500.0, 2, "left", 4),
        ArmConfig(3, (100.0, 600.0, 1500.0), 1500.0, 1, "right", 1),
        ArmConfig(4, (30100.0, 600.0, 1500.0), 1500.0, 2, "right", 2),
    )
    return VehicleScene(
        name="partition",
        front_x=0.0,
        panels=(Panel(1, "vertical_side", "mirror"),),
        segments=segs,
        arms=arms,
        line=LineKinematics(velocity=98.0),
        config=ScenarioConfig(n_d=2, t_max=100, back_door_rule=False),
    )


def test_reachability_swap():
    scene = _partition_scene()
    bad = never_reachable(scene)
    assert (1, 2) in bad and (2, 1) in bad
    assert (1, 1) not in bad and (2, 2) not in bad
    # segment 2 in arm 1's slot, segment 1 in arm 2's slot -> swapped
    x = UpperSolution((2, 3, 1, 4))
    repaired = repair_reachability(x, scene)
    assert decode(repaired, scene) == ((1,), (2,))


def test_reachability_noop_when_clean():
    scene = _partition_scene()
    x = UpperSolution((1, 3, 2, 4))
    assert repair_reachability(x, scene) == x


def test_reachability_leaves_hopeless_segment():
    scene = _partition_scene()
    import dataclasses

    arms = tuple(
        dataclasses.replace(a, radius=10.0) for a in scene.arms
    )
    hopeless = dataclasses.replace(scene, arms=arms)
    x = UpperSolution((1, 3, 2, 4))
    repaired = repair_reachability(x, hopeless)
    assert validate(repaired) is None  # still a permutation, nothing broken


def test_reachability_never_increases_violations(block_scene):
    import dataclasses

    arms = tuple(dataclasses.replace(a, radius=1400.0) for a in block_scene.arms)
    tight = dataclasses.replace(block_scene, arms=arms)
    bad = never_reachable(tight)
    rng = np.random.default_rng(4)

    def count(x):
        assign = decode(x, tight)
        arm_ids = [a.id for a in tight.left_arms()]
        return sum(
            1
            for arm_id, row in zip(arm_ids, assign)
            for s in row
            if (arm_id, s) in bad
        )

    for _ in range(20):
        x = random_solution(tight.n_segs + tight.config.n_d, rng)
        assert count(repair_reachability(x, tight)) <= count(x)


@pytest.fixture(scope="module")
def two_panel_scene():
    spec = SyntheticSpec(
        seed=5,
        n_arms_side=2,
        side_panel_segments=(3, 3),
        height_min=300.0,
        height_max=1750.0,
    )
    return generate_synthetic_scene(spec, ScenarioConfig(n_d=2, back_door_rule=False))


def test_few_arms_consolidates_panels(two_panel_scene):
    scene = two_panel_scene
    # panel A = {1,2,3}, panel B = {4,5,6}
    # arm1 paints {A:1,2  B:4}, arm2 paints {A:3  B:5,6}; the count-compatible
    # cross swap (arm1's B segment <-> arm2's A segment) makes both single-panel
    x = UpperSolution((1, 2, 4, 7, 3, 5, 6, 8))
    repaired = repair_few_arms(x, scene)
    assign = decode(repaired, scene)
    assert sorted(assign[0]) == [1, 2, 3]
    assert sorted(assign[1]) == [4, 5, 6]


def test_few_arms_fixed_point_when_single_owner(two_panel_scene):
    x = UpperSolution((1, 2, 3, 7, 4, 5, 6, 8))
    assert repair_few_arms(x, two_panel_scene) == x


def _arm_panels(genes, scene):
    """Segment ids held per (arm slot, panel), dummies skipped."""
    width = len(genes) // scene.n_arms_side
    held: dict[tuple[int, int], list[int]] = {}
    for pos, g in enumerate(genes):
        if g <= scene.n_segs:
            held.setdefault((pos // width, scene.segment(g).panel_id), []).append(g)
    return held


def _arms_per_panel(genes, scene):
    held = _arm_panels(genes, scene)
    return {p.id: sum(1 for _, pid in held if pid == p.id) for p in scene.panels}


def _open_few_arms_swaps(genes, scene):
    """Swaps of arm a1's panel-b1 segments with arm a2's panel-b2 segments
    (equal counts, both arms on both panels) that break no reachability."""
    held = _arm_panels(genes, scene)
    bad = never_reachable(scene)
    ids = [a.id for a in scene.left_arms()]
    return [
        (a1, b1, a2, b2)
        for (a1, b1), s1 in held.items()
        for (a2, b2), s2 in held.items()
        if a1 != a2
        and b1 != b2
        and len(s1) == len(s2)
        and (a1, b2) in held
        and (a2, b1) in held
        and not any((ids[a2], s) in bad for s in s1)
        and not any((ids[a1], s) in bad for s in s2)
    ]


def _unreachable_count(genes, scene):
    bad = never_reachable(scene)
    ids = [a.id for a in scene.left_arms()]
    held = _arm_panels(genes, scene)
    return sum(1 for (a, _), segs in held.items() for s in segs if (ids[a], s) in bad)


@pytest.mark.parametrize(
    "preset, short_reach", [("desk", False), ("v1", False), ("v3", False), ("v1", True), ("v3", True)]
)
def test_few_arms_never_raises_counts_and_stops_at_fixpoint(preset, short_reach):
    scene = preset_scene(preset, seed=1)
    if short_reach:  # reach grows with the row, so some segments suit only some arms
        arms = tuple(dataclasses.replace(a, radius=1400.0 + 200.0 * a.row) for a in scene.arms)
        scene = dataclasses.replace(scene, arms=arms)
        assert never_reachable(scene)
    rng = np.random.default_rng(31)
    changed = 0
    for _ in range(100):
        # a child as the GA hands it to few_arms: repairs 1, 4 and 2 applied
        x = random_solution(scene.n_segs + scene.config.n_d, rng)
        x = repair_bottom_up(repair_back_door(repair_reachability(x, scene), scene), scene)
        y = repair_few_arms(x, scene)
        assert validate(y) is None and sorted(y.genes) == sorted(x.genes)
        before, after = _arms_per_panel(x.genes, scene), _arms_per_panel(y.genes, scene)
        assert all(after[p] <= before[p] for p in before)
        assert _unreachable_count(y.genes, scene) <= _unreachable_count(x.genes, scene)
        assert not _open_few_arms_swaps(y.genes, scene)
        changed += y != x
    assert changed > 0


def _back_door_scene():
    spec = SyntheticSpec(
        seed=6,
        n_arms_side=2,
        side_panel_segments=(3, 3),
        back_door_segments=2,
        height_min=300.0,
        height_max=1750.0,
    )
    return generate_synthetic_scene(spec, ScenarioConfig(n_d=4, t_max=20000))


def test_back_door_removed_from_last_arm():
    scene = _back_door_scene()
    back = {s.id for s in scene.segments if scene.panel(s.panel_id).kind == "back_door"}
    assert back == {7, 8}
    x = UpperSolution((1, 2, 3, 4, 9, 10, 5, 6, 7, 8, 11, 12))
    repaired = repair_back_door(x, scene)
    assign = decode(repaired, scene)
    assert not back & set(assign[-1])
    assert validate(repaired) is None


def test_back_door_noop_when_disabled():
    scene = _back_door_scene()
    import dataclasses

    off = dataclasses.replace(scene, config=dataclasses.replace(scene.config, back_door_rule=False))
    x = UpperSolution((1, 2, 3, 4, 9, 10, 5, 6, 7, 8, 11, 12))
    assert repair_back_door(x, off) == x


def test_back_door_noop_when_clean():
    scene = _back_door_scene()
    x = UpperSolution((7, 8, 1, 2, 3, 4, 5, 6, 9, 10, 11, 12))
    assert repair_back_door(x, scene) == x


def test_repair_all_preserves_permutation(desk):
    rng = np.random.default_rng(9)
    n_dim = desk.n_segs + desk.config.n_d
    for _ in range(50):
        x = random_solution(n_dim, rng)
        y = repair_all(x, desk)
        assert validate(y) is None
        assert len(y.genes) == n_dim


def _repair_digest(n_children: int) -> str:
    """sha256 over every operator's and repair_all's output on seeded random
    children of desk, v1 and v3, each as shipped, with the back-door rule
    flipped and with a reach (1000 + 200 * row mm) that leaves some
    segments to some arms only."""
    digest = hashlib.sha256()
    for name in ("desk", "v1", "v3"):
        shipped = preset_scene(name, seed=1)
        short = tuple(dataclasses.replace(a, radius=1000.0 + 200.0 * a.row) for a in shipped.arms)
        for scene in (
            shipped,
            with_config(shipped, back_door_rule=not shipped.config.back_door_rule),
            dataclasses.replace(shipped, arms=short),
        ):
            rng = np.random.default_rng(12345)
            for _ in range(n_children):
                x = random_solution(scene.n_dim, rng)
                # a child as the GA hands it to few_arms: repairs 1, 4 and 2 applied
                fed = repair_reachability(x, scene)
                fed = repair_bottom_up(repair_back_door(fed, scene), scene)
                for y in (
                    repair_reachability(x, scene),
                    repair_back_door(x, scene),
                    repair_bottom_up(x, scene),
                    repair_few_arms(x, scene),
                    repair_few_arms(fed, scene),
                    repair_all(x, scene),
                    repair_all(x, scene, use_bottom_up=False),
                ):
                    digest.update(repr(y.genes).encode())
    return digest.hexdigest()


def test_repair_outputs_are_pinned():
    # a changed tie-break or scan order changes the GA's children and fails
    # here; update the digest only with a change that means to change them
    assert _repair_digest(30) == "aaf6cce1baa8acba6bcf4b8250e4c2e123c09984437bb2380977497d9183cad8"


def _relabelled(scene):
    """The scene with arm ids that no longer follow the rows (left arms
    count down from 100 + arms per side, partners from 201) and an empty
    vertical panel appended."""
    n = scene.n_arms_side
    new = {a.id: (100 + n + 1 - a.row if a.side == "left" else 200 + a.row) for a in scene.arms}
    arms = tuple(
        dataclasses.replace(a, id=new[a.id], mirror_partner=new[a.mirror_partner])
        for a in scene.arms
    )
    empty = Panel(max(p.id for p in scene.panels) + 1, "vertical_side", "mirror")
    return dataclasses.replace(scene, arms=arms, panels=(*scene.panels, empty))


@pytest.mark.parametrize("name", ["desk", "v1", "v3"])
def test_repair_ignores_arm_ids_and_empty_panels(name):
    # the operators key arms by slot, never by id, and skip panels with no
    # segments: neither change may alter a child
    shipped = preset_scene(name, seed=1)
    short = tuple(dataclasses.replace(a, radius=1000.0 + 200.0 * a.row) for a in shipped.arms)
    for scene in (
        shipped,
        with_config(shipped, back_door_rule=not shipped.config.back_door_rule),
        dataclasses.replace(shipped, arms=short),
    ):
        twin = _relabelled(scene)
        assert [a.id for a in twin.left_arms()] == list(range(100 + scene.n_arms_side, 100, -1))
        assert len(never_reachable(twin)) == len(never_reachable(scene))
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = random_solution(scene.n_dim, rng)
            for op in (
                repair_reachability,
                repair_back_door,
                repair_bottom_up,
                repair_few_arms,
                repair_all,
            ):
                assert op(x, twin) == op(x, scene), op.__name__


@pytest.mark.parametrize(
    "genes, problem",
    [
        (tuple(range(1, 10)), "9 genes"),
        (tuple(range(1, 95)), "94 genes"),
        ((1,) * 90, "duplicated"),
        (tuple(range(90)), "outside 1..90"),
    ],
    ids=["9_genes", "94_genes", "gene_1_90_times", "ids_0_to_89"],
)
def test_repair_all_rejects_a_malformed_genotype(desk, genes, problem):
    # repair would hand these back unchanged and evaluation fail later
    assert desk.n_dim == 90
    with pytest.raises(ValueError, match=problem):
        repair_all(UpperSolution(genes), desk)
