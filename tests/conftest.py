from dataclasses import replace

import pytest

from linepaint.presets import preset_scene
from linepaint.scene import ScenarioConfig, SyntheticSpec, generate_synthetic_scene


@pytest.fixture(scope="session")
def desk():
    return preset_scene("desk", 1)


@pytest.fixture(scope="session")
def hood_only():
    """A valid scene whose one panel is a hood: seeding has no side panel to cut."""
    spec = SyntheticSpec(seed=1, side_panel_segments=(4,), hood_segments=6)
    full = generate_synthetic_scene(spec, ScenarioConfig(n_d=2))
    # the hood is drawn first, so it is panel 1 with segments 1..6
    return replace(
        full,
        panels=full.panels[:1],
        segments=full.segments[:6],
        config=ScenarioConfig(n_d=3, back_door_rule=False),
    )
