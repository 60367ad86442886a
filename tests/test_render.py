"""The route plot pinned by digest on seeded desk and v3 plans, and drawn
through the plan's block ends."""

import hashlib
import re

import numpy as np
import pytest

from linepaint.genotype import decode, random_solution
from linepaint.lower_sim import simulate
from linepaint.presets import preset_scene
from linepaint.render import render_svg
from linepaint.repair import repair_all
from linepaint.scene import _World

_DIGESTS = {
    ("desk", 0): "76db81b50d1fec7779e1b7519573bcf85efbc952711aa664dd1c5dbdc15e08d3",
    ("desk", 1): "e95f60720003d69e1550dcec7ce9c231ad9e6643d86504660d39d1dd53598720",
    ("v3", 0): "c40cf23d1a7f74a1263b720def664321e037c40f27727f69186fe9837518b246",
    ("v3", 1): "04494020c82329dbf2a388ccd90957d24641070e4793682359603cb649a7b542",
}


def _seeded_plan(name, k):
    scene = preset_scene(name, seed=1)
    x = repair_all(random_solution(scene.n_dim, np.random.default_rng([77, k])), scene)
    traj, _ = simulate(decode(x, scene), scene)
    return scene, traj


@pytest.mark.parametrize("name, k", sorted(_DIGESTS))
def test_routes_svg_is_pinned(name, k):
    # the plot of a repaired seeded genotype: its polylines, their paint
    # runs and every number's formatting
    scene, traj = _seeded_plan(name, k)
    svg = render_svg(traj, scene)
    assert hashlib.sha256(svg.encode()).hexdigest() == _DIGESTS[(name, k)]


@pytest.mark.parametrize("name", ["desk", "v3"])
def test_every_table_row_lies_on_the_drawn_path(name):
    # the path is drawn through the block ends only; every tick's row, with
    # the drift removed, lies on it within 1e-9 of the plot's extent in mm,
    # and the drawn points are those ends mapped by one fitted scale and
    # offset, within 0.15 px: the SVG rounds to 0.05 px, and a fit by least
    # squares spreads that rounding
    scene, traj = _seeded_plan(name, 0)
    svg = render_svg(traj, scene)
    drawn = re.findall(r'stroke-dasharray="2,2" points="([^"]*)"', svg)
    n_arms, n_ticks = traj.positions.shape[:2]
    assert len(drawn) == 2 * n_arms
    table = traj.positions.copy()
    table[:, :, 0] -= _World(scene).offset(np.arange(n_ticks))
    ticks = np.arange(n_ticks)
    for view, (u, v) in enumerate(((0, 2), (0, 1))):  # top: x and z, side: x and y
        ends, pixels = [], []
        for a in range(n_arms):
            at = traj.block_ends()[a][0]
            assert at[0] == 0 and at[-1] == n_ticks - 1 and len(at) < n_ticks / 10
            # each tick's row from the two ends around it
            k = np.maximum(np.searchsorted(at, ticks), 1)
            frac = ((ticks - at[k - 1]) / (at[k] - at[k - 1]))[:, None]
            line = table[a, at[k - 1]] + (table[a, at[k]] - table[a, at[k - 1]]) * frac
            extent = np.ptp(table[a], axis=0).max()
            assert np.abs(line - table[a]).max() <= 1e-9 * extent
            ends.append(table[a, at][:, [u, v]])
            pixels.append(np.array([p.split(",") for p in drawn[view * n_arms + a].split()], float))
        # the plot maps (u, v) to (x0 + s·u, y0 - s·v)
        ends, pixels = np.concatenate(ends), np.concatenate(pixels)
        design = np.zeros((2 * len(ends), 3))
        design[0::2, 0], design[0::2, 1] = ends[:, 0], 1.0
        design[1::2, 0], design[1::2, 2] = -ends[:, 1], 1.0
        fit, *_ = np.linalg.lstsq(design, pixels.ravel(), rcond=None)
        assert np.abs(design @ fit - pixels.ravel()).max() <= 0.15
