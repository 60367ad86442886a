"""Shipped scenario presets.

v1/v2/v3 mirror the published production configurations (speeds, ranges,
prescribed times, dummy counts, order slack, boundary shift range) bound to
synthetic geometry with matching one-side segment counts; `desk` is the small
instance used throughout the test suite.
"""

from __future__ import annotations

from .scene import (
    ScenarioConfig,
    SyntheticSpec,
    VehicleScene,
    generate_synthetic_scene,
)

# v1 and v2 share their run parameters and differ in geometry only
_PRODUCTION = dict(v_sp=1250.0, v_mv=1250.0, t_p=47.5, epsilon=1, delta=3, n_d=68, t_max=12000)

# name -> (SyntheticSpec fields, ScenarioConfig fields that differ from its defaults)
_PRESETS = {
    "v1": (
        dict(n_arms_side=4, side_panel_segments=(50,) * 4, hood_segments=40,
             back_door_segments=28, line_velocity=147.0),
        _PRODUCTION,
    ),
    "v2": (
        dict(n_arms_side=4, side_panel_segments=(48,) * 4, hood_segments=40,
             back_door_segments=28, line_velocity=147.0),
        _PRODUCTION,
    ),
    "v3": (
        dict(n_arms_side=3, side_panel_segments=(38,) * 4, hood_segments=26, roof_segments=22,
             back_door_segments=18, line_velocity=98.0, hood_delay=True),
        dict(n_d=58, back_door_rule=False),
    ),
    "desk": (
        dict(n_arms_side=3, side_panel_segments=(12,) * 5, height_min=300.0, height_max=1750.0),
        dict(t_max=12000, back_door_rule=False),
    ),
}

PRESET_NAMES = tuple(_PRESETS)


def preset_scene(name: str, seed: int = 1) -> VehicleScene:
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r} (expected v1, v2, v3 or desk)")
    spec, config = _PRESETS[name]
    return generate_synthetic_scene(
        SyntheticSpec(seed=seed, name=name, **spec), ScenarioConfig(**config)
    )


def desk_scene(seed: int = 1) -> VehicleScene:
    return preset_scene("desk", seed)
