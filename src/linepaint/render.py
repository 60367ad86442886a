"""Plain-SVG route plots: top (x/z) and side (x/y) orthographic views of the
planned head trajectories in the vehicle frame, one color per arm.  Paint
strokes are drawn bold, transits thin."""

from __future__ import annotations

import numpy as np

from .lower_sim import PAINT, Trajectory
from .scene import VehicleScene, _World

ARM_COLORS = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#e377c2",
)


def _polyline(xs, ys, color: str, width: float, dash: str = "") -> str:
    pts = " ".join(f"{x:.1f},{y:.1f}" for x, y in zip(xs, ys))
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="{width}"'
        f'{extra} points="{pts}" />'
    )


class _View:
    """Maps a planar slice of vehicle-frame mm onto an SVG pixel box."""

    def __init__(self, pts_2d: np.ndarray, x0: float, y0: float, w: float, h: float):
        lo = pts_2d.reshape(-1, 2).min(axis=0)
        hi = pts_2d.reshape(-1, 2).max(axis=0)
        span = np.maximum(hi - lo, 1.0)
        self.scale = min(w / span[0], h / span[1])
        self.lo, self.x0, self.y0, self.h = lo, x0, y0, h

    def map(self, u, v):
        x = self.x0 + (u - self.lo[0]) * self.scale
        y = self.y0 + self.h - (v - self.lo[1]) * self.scale
        return x, y


def _draw_view(parts, view: _View, paths, scene, axis_label: str):
    # segment endpoints as faint guide lines
    for s in scene.segments:
        ua, va = _project(np.asarray(s.endpoint_a), axis_label)
        ub, vb = _project(np.asarray(s.endpoint_b), axis_label)
        xa, ya = view.map(ua, va)
        xb, yb = view.map(ub, vb)
        parts.append(
            f'<line x1="{xa:.1f}" y1="{ya:.1f}" x2="{xb:.1f}" y2="{yb:.1f}" '
            'stroke="#cccccc" stroke-width="0.6" />'
        )
    for i, (pts, actions) in enumerate(paths):
        color = ARM_COLORS[i % len(ARM_COLORS)]
        xs, ys = view.map(*_project(pts, axis_label))
        parts.append(_polyline(xs, ys, color, 0.5, dash="2,2"))
        # bold overdraw of each run of strokes [a, b), from the end of the
        # block before it
        edges = np.flatnonzero(np.diff(actions == PAINT, prepend=False, append=False))
        for a, b in zip(edges[::2], edges[1::2]):
            sl = slice(max(a - 1, 0), b)
            parts.append(_polyline(xs[sl], ys[sl], color, 2.0))


def _project(p, axis_label: str):
    if axis_label == "top":  # x along, z across
        return p[..., 0], p[..., 2]
    return p[..., 0], p[..., 1]  # side view: x along, y up


def render_svg(traj: Trajectory, scene: VehicleScene) -> str:
    # each arm's path through its block ends, with the line drift removed
    world = _World(scene)
    paths = []
    for ticks, rows, actions, _ in traj.block_ends():
        rows[0] -= world.offset(ticks)
        paths.append((rows.T, actions))
    width, height, pad = 900.0, 340.0, 30.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{2 * height + 3 * pad:.0f}" '
        f'viewBox="0 0 {width:.0f} {2 * height + 3 * pad:.0f}">',
        '<rect width="100%" height="100%" fill="white" />',
    ]
    for row, label in enumerate(("top", "side")):
        pts_2d = np.concatenate([np.stack(_project(pts, label), axis=-1) for pts, _ in paths])
        y0 = pad + row * (height + pad)
        view = _View(pts_2d, pad, y0, width - 2 * pad, height)
        parts.append(
            f'<text x="{pad:.0f}" y="{y0 - 8:.0f}" font-family="sans-serif" '
            f'font-size="13">{label} view ({scene.name})</text>'
        )
        _draw_view(parts, view, paths, scene, label)
    # legend
    for i, arm_id in enumerate(traj.arm_ids):
        color = ARM_COLORS[i % len(ARM_COLORS)]
        x = pad + 110.0 * i
        y = 2 * height + 3 * pad - 8
        parts.append(
            f'<rect x="{x:.0f}" y="{y - 9:.0f}" width="10" height="10" fill="{color}" />'
            f'<text x="{x + 14:.0f}" y="{y:.0f}" font-family="sans-serif" '
            f'font-size="12">arm {arm_id}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def save_svg(traj: Trajectory, scene: VehicleScene, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_svg(traj, scene))
