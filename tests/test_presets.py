"""Every preset's geometry pinned by digest.  The plan digests reach the
presets only at scene seed 1 and only through plans; these pin the scenes
themselves, v2 included.  Update a digest only with a change that means to
regenerate that preset."""

import hashlib
import json

import pytest

from linepaint.presets import PRESET_NAMES, preset_scene
from linepaint.scene import scene_to_dict

_DIGESTS = {
    ("v1", 1): "9e8a917ef42338063ca12efb0dc055a0a813ed370d9da05f0f6b65fba081e514",
    ("v1", 2): "baf1e20302cf17ef8cf767994c89085900ffc808ee7df4d8f21b3d5ff3564d52",
    ("v2", 1): "84f32215cf7fcd4f0cc9b203c1bad411b4f7df83771b8510854ee44fcd2dbfcf",
    ("v2", 2): "fc642e00e35bb19424f03dce163114e0b981caf269390cdfe9ccf38b2a2b84a9",
    ("v3", 1): "24c45ef68827221a5f97458849d3fa09694a9139bb1a9cc271d6d882b98ab13c",
    ("v3", 2): "0d117c2a7fa3155c8a8af5d04f584595e3c2abde70f166586d8a5555b08a38e9",
    ("desk", 1): "604826a65d92aa41091a6823cd2d85eee803ea38ebe34b19267208c764b2c8e4",
    ("desk", 2): "b1d0dd169e8abd0256ca383d34454691ecbab75c504cf3841a043f3a8e5b6973",
}


def _digest(scene) -> str:
    return hashlib.sha256(json.dumps(scene_to_dict(scene), sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name, seed", sorted(_DIGESTS))
def test_preset_geometry_is_pinned(name, seed):
    assert _digest(preset_scene(name, seed)) == _DIGESTS[name, seed]


def test_preset_names_and_desk():
    # the CLI offers the presets in this order
    assert PRESET_NAMES == ("v1", "v2", "v3", "desk")
    with pytest.raises(ValueError, match="unknown preset 'v4'"):
        preset_scene("v4")
