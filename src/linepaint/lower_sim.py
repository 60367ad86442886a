"""Greedy lower-layer planner.

Expands an arm assignment into per-tick head trajectories.  Each one-side arm
walks its segment list in order: wait until the whole segment is inside the
operating sphere (the vehicle drifts, so in-range is a time window), move to
the nearer endpoint, sweep the segment at the paint speed, and finally return
home.  The opposite side is produced per panel by one of three bilateral
rules: mirror (z-negated copy), parallel (lateral-offset copy) or parallel
with a start delay on the expanded side; paired arms synchronize at every
panel start.

Painting tracks the moving segment: the head interpolates linearly between
the drifting world-frame endpoints, so the sweep speed is the paint speed
relative to the body surface.  Transit moves are bounded by the transit speed
in world coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .genotype import ArmAssignment
from .scene import ScenarioConfig, VehicleScene, VERTICAL_KINDS, _World, _scene_under

WAIT, MOVE, PAINT, REORIENT, HOME = 0, 1, 2, 3, 4
ACTION_NAMES = ("wait", "move", "paint", "reorient", "home")

_MIRROR_Z = np.array([1.0, 1.0, -1.0])


@dataclass
class SimMetrics:
    t_a: dict[int, float] = field(default_factory=dict)
    t_out: dict[int, float] = field(default_factory=dict)
    n_unvisits: dict[int, int] = field(default_factory=dict)
    t_col: float = 0.0
    paint_start_times: dict[int, float] = field(default_factory=dict)
    order_violations: dict[int, int] = field(default_factory=dict)
    horizon_exhausted: bool = False

    @property
    def work_time_max(self) -> float:
        return max(self.t_a.values(), default=0.0)


class Trajectory:
    """Per-tick table of every arm's head: ``positions`` (n_arms, n_ticks + 1,
    3) in the world frame, mm; ``actions`` (n_arms, n_ticks + 1) of action
    codes; ``seg_ids`` (n_arms, n_ticks + 1), -1 when not painting; ``homes``
    (n_arms, 3).

    ``simulate`` returns one that keeps the plan's tapes and renders the table
    with ``_render`` on first access, so scoring a plan never builds it."""

    def __init__(self, arm_ids, positions, actions, seg_ids, homes, mu: float):
        self.arm_ids: tuple[int, ...] = tuple(arm_ids)
        self.mu = mu
        self._plan = None
        self._table = (positions, actions, seg_ids, homes)

    @classmethod
    def _of_plan(cls, tapes: list[_Tape], arm_ids, cfg: ScenarioConfig) -> Trajectory:
        traj = cls(arm_ids, None, None, None, None, cfg.mu)
        traj._plan = (tapes, cfg)
        return traj

    def _rendered(self) -> tuple:
        if self._plan is not None:
            tapes, cfg = self._plan
            t = _render(tapes, self.arm_ids, cfg)
            self._table = (t.positions, t.actions, t.seg_ids, t.homes)
            self._plan = None
        return self._table

    @property
    def positions(self) -> np.ndarray:
        return self._rendered()[0]

    @property
    def actions(self) -> np.ndarray:
        return self._rendered()[1]

    @property
    def seg_ids(self) -> np.ndarray:
        return self._rendered()[2]

    @property
    def homes(self) -> np.ndarray:
        return self._rendered()[3]

    def arm_index(self, arm_id: int) -> int:
        return self.arm_ids.index(arm_id)


# ---------------------------------------------------------------------------
# reachability windows


def reach_windows(scene: VehicleScene, cfg: ScenarioConfig | None = None):
    """Per (one-side arm id, segment id): tick interval during which both
    world-frame endpoints sit inside the arm's sphere, or None if never."""
    return _scene_under(scene, cfg).windows


def never_reachable(scene: VehicleScene):
    """Set of (arm id, segment id) pairs out of range over the whole horizon."""
    return scene.never_reachable


# ---------------------------------------------------------------------------
# tape: per-arm phase recorder


class _Tape:
    __slots__ = ("home", "blocks", "t", "pos")

    def __init__(self, home):
        self.home = np.asarray(home, dtype=float)
        self.blocks: list[tuple[int, int, np.ndarray]] = []
        self.t = 0
        self.pos = self.home.copy()

    def append(self, action: int, seg: int, pos: np.ndarray) -> None:
        if len(pos) == 0:
            return
        self.blocks.append((action, seg, pos))
        self.t += len(pos)
        self.pos = pos[-1]

    def hold(self, n: int, action: int = WAIT) -> None:
        if n > 0:
            # n read-only rows that all view self.pos (row stride 0): no copy
            block = np.ndarray((n, 3), float, self.pos, 0, (0, self.pos.itemsize))
            block.flags.writeable = False
            self.append(action, -1, block)


def _intercept_ticks(pos, target_vehicle, t0, world: _World, step: float) -> int:
    """Fewest whole ticks to reach the drifting target at <= step mm/tick."""
    d = world.at(target_vehicle, t0) - pos
    dd = float(d @ d)
    if dd == 0.0:
        return 0
    k = world.k
    a = k * k - step * step
    b = 2.0 * d[0] * k
    disc = b * b - 4.0 * a * dd
    root = (-b - math.sqrt(disc)) / (2.0 * a)
    n = max(1, math.ceil(root - 1e-12))
    while True:
        arr = world.at(target_vehicle, t0 + n) - pos
        if float(arr @ arr) <= (step * n) ** 2 * (1.0 + 1e-12):
            return n
        n += 1


def _move_block(tape: _Tape, target_vehicle, world: _World, step: float) -> None:
    n = _intercept_ticks(tape.pos, target_vehicle, tape.t, world, step)
    if n == 0:
        return
    end = world.at(target_vehicle, tape.t + n)
    frac = (np.arange(1, n + 1, dtype=float) / n)[:, None]
    tape.append(MOVE, -1, tape.pos + (end - tape.pos) * frac)


def _paint_block(tape: _Tape, seg_id, p_start, p_end, world: _World, cfg) -> None:
    length = float(np.linalg.norm(np.asarray(p_end) - np.asarray(p_start)))
    n = max(1, math.ceil(length / (cfg.v_sp * cfg.mu) - 1e-9))
    u = (np.arange(1, n + 1, dtype=float) / n)[:, None]
    pts = np.asarray(p_start, dtype=float) + (np.asarray(p_end) - np.asarray(p_start)) * u
    pts[:, 0] += world.offset(np.arange(tape.t + 1, tape.t + n + 1, dtype=float))
    tape.append(PAINT, seg_id, pts)


_KIND_CLASS = {"vertical_side": "side", "hood": "top", "roof": "top", "back_door": "rear"}


# ---------------------------------------------------------------------------
# the planner


def _plan_pair(scene, left, right, seg_ids, metrics, world):
    """Plan one left arm and its mirror partner; fills tapes and metrics."""
    cfg = scene.config
    windows = scene.windows
    tape_l = _Tape(left.center)
    tape_r = _Tape(right.center)
    unvisited = 0
    prev_class = None
    step = cfg.v_mv * cfg.mu
    # while in lockstep the partner's state is the exact z-mirror of the
    # planned arm's, so whole episodes can be replayed bit-for-bit
    lockstep = True

    # group consecutive segments by panel
    episodes: list[tuple[int, list[int]]] = []
    for sid in seg_ids:
        pid = scene.segment(sid).panel_id
        if episodes and episodes[-1][0] == pid:
            episodes[-1][1].append(sid)
        else:
            episodes.append((pid, [sid]))

    exhausted = False
    for pid, sids in episodes:
        if exhausted or tape_l.t >= cfg.t_max:
            unvisited += len(sids)
            exhausted = True
            continue
        panel = scene.panel(pid)
        paintable = [s for s in sids if windows[(left.id, s)] is not None]
        unvisited += len(sids) - len(paintable)
        if not paintable:
            continue

        klass = _KIND_CLASS[panel.kind]
        turn = 0
        if prev_class is not None and klass != prev_class:
            turn = math.ceil(cfg.head_turn_wait / cfg.mu)
        prev_class = klass

        entry_from = len(tape_l.blocks)
        tape_l.hold(turn, REORIENT)

        first = scene.segment(paintable[0])
        win = windows[(left.id, first.id)]
        if tape_l.t < win[0]:
            wait = math.ceil(win[0]) - tape_l.t
            if tape_l.t + wait >= cfg.t_max:
                unvisited += len(paintable)
                exhausted = True
                continue
            tape_l.hold(wait, WAIT)

        # episode transform for the expanded side
        mirror = panel.expansion_rule == "mirror"
        offset = panel.parallel_offset
        start, end = _choose_endpoints(tape_l.pos, first, tape_l.t, world)

        def transform_point(p):
            if mirror:
                return (p[0], p[1], -p[2])
            return (p[0], p[1], p[2] + offset)

        _move_block(tape_l, start, world, step)

        delay = 0
        if panel.expansion_rule == "parallel_with_delay":
            stroke_ticks = max(
                1, math.ceil(first.length() / (cfg.v_sp * cfg.mu) - 1e-9)
            )
            delay = (
                math.ceil(panel.delay / cfg.mu) if panel.delay > 0 else 2 * stroke_ticks
            )

        if mirror and lockstep:
            # partner mirrors the whole entry (reorient, window wait, transit)
            for action, sid, pos in tape_l.blocks[entry_from:]:
                tape_r.append(action, sid, pos * _MIRROR_Z)
        else:
            # depart as late as possible: camping on the moving surface while
            # a neighbor is still painting nearby invites collisions
            tape_r.hold(turn, REORIENT)
            target_r = transform_point(start)
            n0 = _intercept_ticks(tape_r.pos, target_r, tape_r.t, world, step)
            t_start = max(tape_l.t, tape_r.t + n0 - delay)
            t_arr = t_start + delay
            w = t_arr - tape_r.t - n0
            while w > 0:
                n1 = _intercept_ticks(tape_r.pos, target_r, tape_r.t + w, world, step)
                if tape_r.t + w + n1 <= t_arr:
                    break
                w -= 1
            tape_r.hold(max(0, w), WAIT)
            _move_block(tape_r, target_r, world, step)
            t_start = max(t_start, tape_r.t - delay)
            if tape_l.t < t_start:  # track the drifting start until sync
                tape_l.append(MOVE, -1, world.track(start, tape_l.t, t_start - tape_l.t))
            if tape_r.t < t_start + delay:
                tape_r.append(
                    MOVE, -1, world.track(target_r, tape_r.t, t_start + delay - tape_r.t)
                )
            lockstep = mirror  # synced mirror episode restores lockstep

        # left arm paints the episode; remember its blocks for the replay
        replay_from = len(tape_l.blocks)
        for idx, sid in enumerate(paintable):
            if tape_l.t >= cfg.t_max:
                unvisited += len(paintable) - idx
                exhausted = True
                break
            seg = scene.segment(sid)
            if idx > 0:
                win = windows[(left.id, sid)]
                if tape_l.t < win[0]:
                    tape_l.hold(math.ceil(win[0]) - tape_l.t, WAIT)
                start, end = _choose_endpoints(tape_l.pos, seg, tape_l.t, world)
                _move_block(tape_l, start, world, cfg.v_mv * cfg.mu)
            metrics.paint_start_times[sid] = (tape_l.t + 1) * cfg.mu
            _paint_block(tape_l, sid, start, end, world, cfg)

        # expanded side replays the episode under the panel transform
        shift = np.array([world.k * delay, 0.0, offset])
        for action, sid, pos in tape_l.blocks[replay_from:]:
            tape_r.append(action, sid, pos * _MIRROR_Z if mirror else pos + shift)

    metrics.n_unvisits[left.id] = unvisited
    metrics.n_unvisits[right.id] = 0
    metrics.horizon_exhausted = metrics.horizon_exhausted or exhausted

    for arm, tape in ((left, tape_l), (right, tape_r)):
        if tape.blocks:
            _move_block_fixed(tape, tape.home, cfg.v_mv * cfg.mu)
        metrics.t_a[arm.id] = min(tape.t, cfg.t_max) * cfg.mu
    return tape_l, tape_r


def _move_block_fixed(tape: _Tape, target, step: float) -> None:
    d = np.asarray(target, dtype=float) - tape.pos
    dist = float(np.linalg.norm(d))
    if dist == 0.0:
        return
    n = max(1, math.ceil(dist / step - 1e-12))
    frac = (np.arange(1, n + 1, dtype=float) / n)[:, None]
    tape.append(MOVE, -1, tape.pos + d * frac)


def _choose_endpoints(pos, seg, t, world: _World):
    da = world.at(seg.endpoint_a, t) - pos
    db = world.at(seg.endpoint_b, t) - pos
    if float(da @ da) <= float(db @ db):
        return seg.endpoint_a, seg.endpoint_b
    return seg.endpoint_b, seg.endpoint_a


def _render(tapes: list[_Tape], arm_ids, cfg) -> Trajectory:
    t_end = min(cfg.t_max, max((tape.t for tape in tapes), default=0))
    n = len(tapes)
    pos = np.empty((n, t_end + 1, 3))
    act = np.full((n, t_end + 1), HOME, dtype=np.int8)
    seg = np.full((n, t_end + 1), -1, dtype=np.int32)
    homes = np.stack([tape.home for tape in tapes])
    for i, tape in enumerate(tapes):
        pos[i, 0] = tape.home
        if tape.blocks:
            act[i, 0] = WAIT
        t = 1
        for action, sid, block in tape.blocks:
            if t > t_end:
                break
            m = min(len(block), t_end + 1 - t)
            pos[i, t : t + m] = block[:m]
            act[i, t : t + m] = action
            seg[i, t : t + m] = sid
            t += m
        if t <= t_end:
            pos[i, t:] = pos[i, t - 1]
    return Trajectory(
        arm_ids=tuple(arm_ids), positions=pos, actions=act, seg_ids=seg, homes=homes, mu=cfg.mu
    )


def simulate(assign: ArmAssignment, scene: VehicleScene) -> tuple[Trajectory, SimMetrics]:
    """Plan trajectories for all arms (both sides) under ``scene.config`` and
    collect audit metrics."""
    cfg = scene.config
    left_arms = scene.left_arms()
    if len(assign) != len(left_arms):
        raise ValueError(f"expected {len(left_arms)} assignment lists, got {len(assign)}")
    world = _World(scene, cfg.mu)
    metrics = SimMetrics()

    # segments missing from every assignment list are unvisited by definition
    # (decoded genotypes always cover all ids; audited assignments may not)
    assigned = {s for row in assign for s in row}
    missing = scene.n_segs - len(assigned & set(range(1, scene.n_segs + 1)))

    tapes_l, tapes_r, arms_r = [], [], []
    for arm, seg_ids in zip(left_arms, assign):
        partner = scene.arm(arm.mirror_partner)
        tl, tr = _plan_pair(scene, arm, partner, seg_ids, metrics, world)
        tapes_l.append(tl)
        tapes_r.append(tr)
        arms_r.append(partner)

    if missing:
        first = left_arms[0].id
        metrics.n_unvisits[first] = metrics.n_unvisits.get(first, 0) + missing

    tapes, arms = tapes_l + tapes_r, [*left_arms, *arms_r]
    metrics.t_out, metrics.t_col = _block_metrics(tapes, arms, cfg)
    metrics.order_violations = order_violation_counts(metrics.paint_start_times, scene)
    return Trajectory._of_plan(tapes, [a.id for a in arms], cfg), metrics


def _block_metrics(tapes: list[_Tape], arms, cfg: ScenarioConfig):
    """Out-of-range time per arm id and collision time of the table
    ``_render`` would build from the tapes (``arms``: their ArmConfigs),
    read from the tapes' blocks: the same floats, tested with the same
    formulas, on the ticks that bounding boxes cannot rule out.

    Between consecutive block starts of all arms, every arm stays in one
    block; its box there is taken over the floats the table holds.  Float
    subtraction, squaring and a sum in the same order are monotone, so no
    tick's squared distance to the sphere center exceeds that of its box's
    farthest corner, and no two heads' squared distance is below that of
    their boxes' gap."""
    t_end = min(cfg.t_max, max(tape.t for tape in tapes))
    path = np.empty((len(tapes), t_end + 1, 3))
    layouts = []
    for i, tape in enumerate(tapes):
        pieces, firsts, actions = _laid_out(tape, t_end)
        np.concatenate(pieces, out=path[i])
        layouts.append((firsts, actions))
    # deduplicated by hand: np.unique imports numpy.ma on first use (~1 MB)
    starts = np.sort(np.concatenate([firsts for firsts, _ in layouts]))
    starts = starts[np.diff(starts, prepend=-1) > 0]
    lo = np.minimum.reduceat(path, starts, axis=1)
    hi = np.maximum.reduceat(path, starts, axis=1)
    bounds = np.append(starts, t_end + 1)

    t_out = {}
    for i, (arm, (firsts, actions)) in enumerate(zip(arms, layouts)):
        center = np.asarray(arm.center)
        r2 = arm.radius**2
        k = np.flatnonzero(actions[np.searchsorted(firsts, starts, side="right") - 1] == PAINT)
        far = np.maximum(np.abs(lo[i, k] - center), np.abs(hi[i, k] - center))
        ticks = _interval_ticks(bounds, k[(far**2).sum(axis=1) > r2])
        d = path[i, ticks]
        d -= center
        t_out[arm.id] = float(((d**2).sum(axis=1) > r2).sum()) * cfg.mu

    g2 = cfg.gamma_col * cfg.gamma_col
    colliding = np.zeros(t_end + 1, dtype=bool)
    for i in range(len(tapes)):
        for j in range(i + 1, len(tapes)):
            gap = np.maximum(np.maximum(lo[i] - hi[j], lo[j] - hi[i]), 0.0)
            ticks = _interval_ticks(bounds, np.flatnonzero((gap**2).sum(axis=1) < g2))
            # in place: a second gathered copy raised the peak RSS
            d = path[i, ticks]
            d -= path[j, ticks]
            colliding[ticks[(d**2).sum(axis=1) < g2]] = True
    return t_out, float(colliding.sum()) * cfg.mu


def _laid_out(tape: _Tape, t_end: int):
    """The tape over ticks 0..t_end as ``_render`` lays it out: home at tick
    0, the blocks cut at t_end, then the last position held.  Returns those
    pieces, the tick each starts at and the action of each."""
    pieces, firsts, actions = [tape.home[None]], [0], [WAIT]
    t = 1
    for action, _, block in tape.blocks:
        if t > t_end:
            break
        block = block[: t_end + 1 - t]
        pieces.append(block)
        firsts.append(t)
        actions.append(action)
        t += len(block)
    if t <= t_end:
        pieces.append(np.broadcast_to(pieces[-1][-1], (t_end + 1 - t, 3)))
        firsts.append(t)
        actions.append(HOME)
    return pieces, np.array(firsts), np.array(actions)


def _interval_ticks(bounds: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The ticks of intervals ``[bounds[k], bounds[k + 1])``, one interval
    after another."""
    first = bounds[k]
    length = bounds[k + 1] - first
    return np.arange(length.sum()) - np.repeat(np.cumsum(length) - length - first, length)


def collision_time(traj: Trajectory, gamma_col: float) -> float:
    """Seconds during which some arm-head pair is closer than gamma_col,
    scanned over every tick of the rendered table: the reference the tests
    hold ``simulate``'s t_col to."""
    pos = traj.positions
    n = pos.shape[0]
    if n < 2:
        return 0.0
    bad = np.zeros(pos.shape[1], dtype=bool)
    g2 = gamma_col * gamma_col
    for i in range(n):
        for j in range(i + 1, n):
            bad |= ((pos[i] - pos[j]) ** 2).sum(axis=1) < g2
    return float(bad.sum()) * traj.mu


def order_violation_counts(
    paint_start_times: dict[int, float], scene: VehicleScene
) -> dict[int, int]:
    """Per vertical panel: adjacent height pairs painted out of order (a
    missing segment breaks every pair it touches)."""
    out: dict[int, int] = {}
    for panel in scene.panels:
        if panel.kind not in VERTICAL_KINDS:
            continue
        ids = scene.panel_segment_ids(panel.id)
        count = 0
        for lower, upper in zip(ids, ids[1:]):
            e_lo = paint_start_times.get(lower)
            e_up = paint_start_times.get(upper)
            if e_lo is None or e_up is None or e_lo >= e_up:
                count += 1
        out[panel.id] = count
    return out
