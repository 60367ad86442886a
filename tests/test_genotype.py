import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linepaint.genotype import UpperSolution, decode, encode, random_solution, validate
from linepaint.presets import preset_scene
from linepaint.seeding import enumerate_boundary_sets, solution_from_boundaries


def test_decode_strips_dummies(desk):
    n_segs, n_d = desk.n_segs, desk.config.n_d
    genes = tuple(range(1, n_segs + n_d + 1))
    assign = decode(UpperSolution(genes), desk)
    assert len(assign) == desk.n_arms_side
    flat = [s for row in assign for s in row]
    assert sorted(flat) == list(range(1, n_segs + 1))
    # dummies sit at the tail of the id space, so the last slot loses them all
    width = (n_segs + n_d) // desk.n_arms_side
    assert len(assign[-1]) == width - n_d


def test_decode_preserves_slot_order(desk):
    rng = np.random.default_rng(5)
    x = random_solution(desk.n_segs + desk.config.n_d, rng)
    assign = decode(x, desk)
    width = len(x.genes) // desk.n_arms_side
    for a, row in enumerate(assign):
        slot = x.genes[a * width : (a + 1) * width]
        assert list(row) == [g for g in slot if g <= desk.n_segs]


# v3 is left out: every one of its boundary sets overflows a slot
@pytest.mark.parametrize("preset", ["desk", "v1", "v2"])
def test_encode_inverts_decode_on_seeded_assignments(preset):
    scene = preset_scene(preset, seed=1)
    checked = 0
    for bounds in enumerate_boundary_sets(scene, 20):
        x = solution_from_boundaries(bounds, scene)
        if x is None:
            continue
        assign = decode(x, scene)
        assert encode(assign, scene) == x
        assert decode(encode(assign, scene), scene) == assign
        checked += 1
    assert checked > 0


def test_encode_returns_none_on_overflow(desk):
    # desk: 60 segments, slots of 30 genes
    assert encode((tuple(range(1, 61)), (), ()), desk) is None
    full = encode((tuple(range(1, 31)), tuple(range(31, 61)), ()), desk)
    assert validate(full) is None and len(full.genes) == desk.n_dim


def test_decode_rejects_wrong_length(desk):
    with pytest.raises(ValueError):
        decode(UpperSolution(tuple(range(1, desk.n_dim))), desk)
    with pytest.raises(ValueError):
        decode(UpperSolution(tuple(range(1, desk.n_dim + 2))), desk)


def test_validate_accepts_permutation():
    assert validate(UpperSolution((3, 1, 2))) is None


def test_validate_names_duplicates_and_missing():
    msg = validate(UpperSolution((1, 1, 3)))
    assert msg is not None
    assert "1" in msg and "2" in msg  # duplicated id and missing id


def test_validate_out_of_range():
    msg = validate(UpperSolution((1, 2, 9)))
    assert msg is not None and "9" in msg


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=60))
@settings(max_examples=50, deadline=None)
def test_random_solution_is_permutation(seed, n_dim):
    rng = np.random.default_rng(seed)
    x = random_solution(n_dim, rng)
    assert validate(x) is None
    assert len(x.genes) == n_dim

