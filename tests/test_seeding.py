import numpy as np
import pytest

from linepaint.genotype import decode, validate
from linepaint.presets import preset_scene
from linepaint.scene import ScenarioConfig, SyntheticSpec, generate_synthetic_scene, with_config
from linepaint.seeding import (
    base_boundaries,
    build_seed_population,
    enumerate_boundary_sets,
    select_reference_panel,
    solution_from_boundaries,
)


def _scene(counts, n_arms=3, roof=0, delta=5, n_d=None):
    spec = SyntheticSpec(
        seed=1,
        n_arms_side=n_arms,
        side_panel_segments=counts,
        roof_segments=roof,
        height_min=300.0,
        height_max=1750.0,
    )
    n_segs = sum(counts) + roof
    if n_d is None:
        n_d = -n_segs % n_arms + n_arms
    return generate_synthetic_scene(
        spec, ScenarioConfig(n_d=n_d, delta=delta, back_door_rule=False)
    )


def test_reference_panel_is_argmax():
    scene = _scene((12, 14, 10), n_arms=2)
    ref = select_reference_panel(scene)
    assert len(scene.panel_segment_ids(ref)) == 14


def test_reference_panel_tie_breaks_to_lowest_id():
    scene = _scene((12, 12, 10), n_arms=2)
    ref = select_reference_panel(scene)
    candidates = [
        p.id for p in scene.panels if len(scene.panel_segment_ids(p.id)) == 12
    ]
    assert ref == min(candidates)


def test_equal_split_base_boundaries(desk):
    assert base_boundaries(desk) == (4, 8)


def test_delta_zero_yields_single_seed(desk):
    assert enumerate_boundary_sets(with_config(desk, delta=0), 99) == [base_boundaries(desk)]


def test_delta_one_three_arms_yields_one_plus_four(desk):
    sets = enumerate_boundary_sets(with_config(desk, delta=1), 99)
    # base + full +-1 enumeration over the 2 boundaries
    assert len(sets) == 1 + 4
    assert sets[0] == base_boundaries(desk)
    base = base_boundaries(desk)
    shifted = set(sets[1:])
    assert shifted == {
        (base[0] + 1, base[1] + 1),
        (base[0] + 1, base[1] - 1),
        (base[0] - 1, base[1] + 1),
        (base[0] - 1, base[1] - 1),
    }


def test_seeds_are_valid_and_boundary_aligned(desk):
    for bounds in enumerate_boundary_sets(desk, 30):
        x = solution_from_boundaries(bounds, desk)
        if x is None:
            continue
        assert validate(x) is None
        assign = decode(x, desk)
        # per panel: every arm's block is contiguous bottom-to-top in row order
        for panel in desk.panels:
            ids = desk.panel_segment_ids(panel.id)
            owner = {}
            for a, row in enumerate(assign):
                for s in row:
                    if s in ids:
                        owner[s] = a
            owners_bottom_up = [owner[s] for s in ids if s in owner]
            assert owners_bottom_up == sorted(owners_bottom_up)
            # same boundary heights on every panel
            for a, row in enumerate(assign):
                mine = [desk.segment(s).height_index for s in row if s in ids]
                assert mine == sorted(mine)
                lo = bounds[a - 1] if a > 0 else 0
                hi = bounds[a] if a < len(bounds) else len(ids)
                expected = [h for h in range(1, len(ids) + 1) if lo < h <= hi]
                assert mine == expected


def test_population_filled_to_size(desk):
    rng = np.random.default_rng(0)
    pop, n_boundary = build_seed_population(desk, 100, rng)
    assert len(pop) == 100 and 0 < n_boundary < 100
    assert all(validate(x) is None for x in pop)
    assert pop[0] == solution_from_boundaries(base_boundaries(desk), desk)


def test_roof_merges_into_reference_stack():
    scene = _scene((6, 6), n_arms=2, roof=4, delta=2, n_d=4)
    # reference stack = 6 side levels + 4 roof levels = 10; equal split at 5
    bounds = base_boundaries(scene)
    assert bounds == (5,)
    x = solution_from_boundaries(bounds, scene)
    assert x is not None
    assign = decode(x, scene)
    roof_ids = scene.panel_segment_ids(
        next(p.id for p in scene.panels if p.kind == "roof")
    )
    # boundary at stack height 5: all roof strokes (levels 7..10) go to arm 2
    assert not set(roof_ids) & set(assign[0])
    assert set(roof_ids) <= set(assign[1])


def test_overflowing_boundaries_rejected(desk):
    # all 12 levels of every panel to arm 1 overflows its slot width
    assert solution_from_boundaries((12, 12), desk) is None
    # non-increasing cuts are invalid
    assert solution_from_boundaries((8, 4), desk) is None


def test_boundary_seed_count_is_reported():
    # v3's cuts, taken on the reference stack and applied to every panel,
    # overflow a slot for every boundary set, so its initial population is
    # all random; desk fits some of its sets
    rng = np.random.default_rng(0)
    assert build_seed_population(preset_scene("v3"), 100, rng)[1] == 0
    assert build_seed_population(preset_scene("desk"), 100, rng)[1] > 0
