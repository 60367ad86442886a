"""The route plot pinned by digest on seeded desk and v3 plans."""

import hashlib

import numpy as np
import pytest

from linepaint.genotype import decode, random_solution
from linepaint.lower_sim import simulate
from linepaint.presets import preset_scene
from linepaint.render import render_svg
from linepaint.repair import repair_all

_DIGESTS = {
    ("desk", 0): "f323e809501eb2204b394e5f6d8bf6d27ac2cf4c5d907ee959e29a9ea971f80a",
    ("desk", 1): "27693a2e91f58bd78932db9645b5da01a6b99e90e75ddc7d12ff980b5d036e2e",
    ("v3", 0): "83f3d43b2eca708a576ee5ecb1756ae3b9bd974075dd5b1684995b2815a21392",
    ("v3", 1): "46b316b6e2ff307dd58cd162e89ee1ba46c9c4cfee55300bee8e7d880a8d67e1",
}


@pytest.mark.parametrize("name, k", sorted(_DIGESTS))
def test_routes_svg_is_pinned(name, k):
    # the plot of a repaired seeded genotype: its polylines, their paint
    # runs and every number's formatting
    scene = preset_scene(name, seed=1)
    x = repair_all(random_solution(scene.n_dim, np.random.default_rng([77, k])), scene)
    traj, _ = simulate(decode(x, scene), scene)
    svg = render_svg(traj, scene)
    assert hashlib.sha256(svg.encode()).hexdigest() == _DIGESTS[(name, k)]
