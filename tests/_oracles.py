"""Independent oracles used by the test suite.

Everything here recomputes expected results from first principles (straight
arithmetic, brute-force scans of the trajectory table) without calling the
code paths under test, so agreement is meaningful.
"""

from __future__ import annotations

import numpy as np

from linepaint.genotype import random_solution
from linepaint.lower_sim import HOME, PAINT
from linepaint.scene import (
    ScenarioConfig,
    SyntheticSpec,
    VERTICAL_KINDS,
    generate_synthetic_scene,
)


# ---------------------------------------------------------------------------
# arithmetic oracles


def oracle_range_penalty(t_out: dict, n_unvisits: dict, rho_out: float, rho_unvisits: float):
    arms = set(t_out) | set(n_unvisits)
    return sum(
        rho_out * t_out.get(a, 0.0) + rho_unvisits * n_unvisits.get(a, 0) for a in arms
    )


def oracle_collision_penalty(t_col: float, rho_col: float) -> float:
    return rho_col * t_col


def oracle_order_count(start_times: list) -> int:
    """Adjacent bottom-to-top pairs painted out of order (None = unpainted)."""
    count = 0
    for lo, up in zip(start_times, start_times[1:]):
        if lo is None or up is None or lo >= up:
            count += 1
    return count


# ---------------------------------------------------------------------------
# trajectory-table audits


def oracle_out_of_range(traj, arms) -> dict[int, float]:
    """Per arm id: seconds spent painting outside the arm's sphere, scanned
    over every tick of the table (``arms``: the ArmConfigs, any order)."""
    by_id = {a.id: a for a in arms}
    out = {}
    for i, arm_id in enumerate(traj.arm_ids):
        arm = by_id[arm_id]
        mask = traj.actions[i] == PAINT
        d2 = ((traj.positions[i] - np.asarray(arm.center)) ** 2).sum(axis=1)
        out[arm_id] = float((d2[mask] > arm.radius**2).sum()) * traj.mu
    return out


def speed_bound_ok(traj, scene, cfg) -> bool:
    bound = max(cfg.v_sp, cfg.v_mv) * cfg.mu + scene.line.velocity * cfg.mu + 1e-9
    steps = np.linalg.norm(np.diff(traj.positions, axis=1), axis=2)
    return bool((steps <= bound).all())


def paint_atomicity_ok(traj) -> bool:
    """Once a segment's paint run starts it continues until done: each (arm,
    segment) pair paints in exactly one contiguous tick run."""
    for i in range(traj.seg_ids.shape[0]):
        ids = np.where(traj.seg_ids[i] >= 1, traj.seg_ids[i], 0)
        changes = np.diff(ids)
        # a "start" is any tick that begins painting a (new) segment
        starts = int(((changes != 0) & (ids[1:] != 0)).sum()) + int(ids[0] != 0)
        distinct = len(np.unique(ids[ids != 0]))
        if starts != distinct:
            return False
    return True


def returns_home_ok(traj) -> bool:
    return bool(np.allclose(traj.positions[:, -1], traj.positions[:, 0], atol=1e-6))


def mirror_exact(traj, scene) -> bool:
    """For all-mirror scenes: right trajectory = left with z negated, bitwise."""
    left_rows = [traj.arm_ids.index(a.id) for a in scene.left_arms()]
    right_rows = [traj.arm_ids.index(scene.arm(a.id).mirror_partner) for a in scene.left_arms()]
    flip = np.array([1.0, 1.0, -1.0])
    return bool(
        np.array_equal(traj.positions[left_rows] * flip, traj.positions[right_rows])
    )


def audit_strong_feasible(traj, scene, cfg, assign) -> bool:
    """Brute-force feasibility verdict recomputed from the trajectory table."""
    pos, act, seg = traj.positions, traj.actions, traj.seg_ids
    n_arms, n_t1, _ = pos.shape

    work = 0.0
    out_of_range = False
    for i, arm_id in enumerate(traj.arm_ids):
        arm = scene.arm(arm_id)
        nonhome = np.where(act[i] != HOME)[0]
        work = max(work, (int(nonhome.max()) if len(nonhome) else 0) * cfg.mu)
        mask = act[i] == PAINT
        d2 = ((pos[i] - np.asarray(arm.center)) ** 2).sum(axis=1)
        if (d2[mask] > arm.radius**2).any():
            out_of_range = True

    painted = {int(s) for s in np.unique(seg) if s >= 1}
    assigned = {s for row in assign for s in row}
    unvisited = assigned - painted

    g2 = cfg.gamma_col**2
    collide = False
    for i in range(n_arms):
        for j in range(i + 1, n_arms):
            if (((pos[i] - pos[j]) ** 2).sum(axis=1) < g2).any():
                collide = True

    left_ids = {a.id for a in scene.left_arms()}
    start: dict[int, int] = {}
    for i, arm_id in enumerate(traj.arm_ids):
        if arm_id not in left_ids:
            continue
        for sid in np.unique(seg[i]):
            if sid >= 1:
                start[int(sid)] = int(np.where(seg[i] == sid)[0][0])
    order_ok = True
    for panel in scene.panels:
        if panel.kind not in VERTICAL_KINDS:
            continue
        ids = scene.panel_segment_ids(panel.id)
        times = [start.get(s) for s in ids]
        if oracle_order_count(times) > cfg.epsilon:
            order_ok = False

    back_ok = True
    if cfg.back_door_rule:
        back = {p.id for p in scene.panels if p.kind == "back_door"}
        back_ok = not any(scene.segment(s).panel_id in back for s in assign[-1])

    return (
        not out_of_range
        and not unvisited
        and not collide
        and order_ok
        and back_ok
        and work <= cfg.t_p
        and returns_home_ok(traj)
    )


# ---------------------------------------------------------------------------
# random instance generators


def default_dummy_count(n_segs: int, n_arms_side: int) -> int:
    """Smallest n_d >= n_segs/2 making n_segs + n_d divisible by n_arms_side."""
    n_d = (n_segs + 1) // 2
    while (n_segs + n_d) % n_arms_side:
        n_d += 1
    return n_d


def random_contract_scene(seed: int, mirror_only: bool = False):
    """Small random scene for simulator contract checks."""
    rng = np.random.default_rng(seed)
    n_arms = int(rng.integers(2, 4))
    counts = tuple(int(rng.integers(4, 13)) for _ in range(int(rng.integers(3, 6))))
    hood = 0 if mirror_only else int(rng.integers(0, 5))
    spec = SyntheticSpec(
        seed=seed,
        n_arms_side=n_arms,
        side_panel_segments=counts,
        hood_segments=hood,
        hood_delay=bool(hood and rng.random() < 0.5),
        height_min=300.0,
        height_max=1750.0,
        jitter=float(rng.uniform(0.0, 6.0)),
    )
    n_segs = sum(counts) + hood
    cfg = ScenarioConfig(
        n_d=default_dummy_count(n_segs, n_arms), t_max=30000, back_door_rule=False
    )
    return generate_synthetic_scene(spec, cfg)


def random_tiny_scene(seed: int):
    """At most 6 segments, 1-2 arms per side, generous horizon."""
    rng = np.random.default_rng(seed)
    n_arms = int(rng.integers(1, 3))
    n_panels = int(rng.integers(1, 3))
    total = int(rng.integers(n_panels, 7))
    counts = [1] * n_panels
    for _ in range(total - n_panels):
        counts[int(rng.integers(0, n_panels))] += 1
    spec = SyntheticSpec(
        seed=seed,
        n_arms_side=n_arms,
        side_panel_segments=tuple(counts),
        height_min=300.0,
        height_max=1750.0,
        jitter=float(rng.uniform(0.0, 6.0)),
    )
    n_segs = sum(counts)
    cfg = ScenarioConfig(
        n_d=default_dummy_count(n_segs, n_arms), t_max=40000, back_door_rule=False
    )
    return generate_synthetic_scene(spec, cfg)


def random_assignment(scene, seed: int):
    from linepaint.genotype import decode

    rng = np.random.default_rng(seed)
    return decode(random_solution(scene.n_segs + scene.config.n_d, rng), scene)
