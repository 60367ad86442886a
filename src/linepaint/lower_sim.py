"""Greedy lower-layer planner.

Expands an arm assignment into a plan for every arm head.  Each one-side arm
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

A plan is a tape of phase blocks per arm, each affine in its tick index and
kept as its parameters, never as per-tick rows: ``simulate`` scores
out-of-range and collision time from them, and the per-tick table
(``Trajectory``) is rendered from them only when it is read.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, groupby
from typing import NamedTuple

import numpy as np

from .genotype import ArmAssignment
from .scene import ScenarioConfig, VehicleScene, VERTICAL_KINDS, _World, _scene_under

WAIT, MOVE, PAINT, REORIENT, HOME = 0, 1, 2, 3, 4
ACTION_NAMES = ("wait", "move", "paint", "reorient", "home")


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
    codes; ``seg_ids`` (n_arms, n_ticks + 1), -1 when not painting.

    Only ``simulate`` builds one.  It keeps the plan's tapes and renders the
    table with ``_render`` on first read, so scoring a plan never builds it."""

    def __init__(self, tapes: list[_Tape], arm_ids, cfg: ScenarioConfig):
        self._tapes = tapes
        self._t_max = cfg.t_max
        self.arm_ids: tuple[int, ...] = tuple(arm_ids)
        self.mu = cfg.mu

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _render(self._tapes, self._t_max)

    @property
    def positions(self) -> np.ndarray:
        return self._table[0]

    @property
    def actions(self) -> np.ndarray:
        return self._table[1]

    @property
    def seg_ids(self) -> np.ndarray:
        return self._table[2]


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
#
# Block rows, i = 1..n:  p0 + d * (i / n), then x += off + k * (t0 + i),
# z *= mz, and += add.  x + -0.0 == x and x * 1.0 == x for every float, so
# holds (d = -0), blocks that do not drift (off = k = -0) and blocks the
# partner does not replay (mz = 1, add = -0) need no case of their own.

_NEG0 = (-0.0, -0.0, -0.0)
_MIRROR_Z = (1.0, 1.0, -1.0)
_NO_DRIFT = (-0.0, -0.0, 0.0)  # off, k, t0
_NO_POST = (1.0, *_NEG0)  # mz, add
_N_PARAMS = 14


class _Tape:
    """One arm's blocks: action, segment id and 14 parameters each; ``t``
    ticks so far and ``pos``, the last row, as ``_rows`` gives it."""

    __slots__ = ("home", "actions", "seg_ids", "params", "t", "pos")

    def __init__(self, home):
        self.home = np.asarray(home, dtype=float)
        self.actions = array("b")
        self.seg_ids = array("i")
        self.params = array("d")
        self.t = 0
        self.pos = self.home.copy()

    def _push(self, action, seg, n, p0, d, drift, last) -> None:
        self.actions.append(action)
        self.seg_ids.append(seg)
        self.params.extend((*p0, *d, n, *drift, *_NO_POST))
        self.t += n
        self.pos = last

    def hold(self, n: int, action: int = WAIT) -> None:
        if n > 0:
            self._push(action, -1, n, self.pos.tolist(), _NEG0, _NO_DRIFT, self.pos)

    def move(self, n: int, d: np.ndarray) -> None:
        """n ticks from ``pos`` along d (nothing when n is 0)."""
        if n > 0:
            self._push(MOVE, -1, n, self.pos.tolist(), d.tolist(), _NO_DRIFT, self.pos + d)

    def drifting(self, action, seg, n, p0: np.ndarray, d, world: _World) -> None:
        """n ticks from p0 along d (None: at p0) on the drifting body."""
        last = p0.copy() if d is None else p0 + d
        last[0] += world.offset(self.t + n)
        d = _NEG0 if d is None else d.tolist()
        self._push(action, seg, n, p0.tolist(), d, (world.off0, world.k, self.t), last)

    def replay(self, src: _Tape, first: int, shift=None) -> None:
        """src's blocks from index ``first`` on, z-mirrored (shift None) or
        shifted."""
        if first == len(src.actions):
            return
        tail = src.params[_N_PARAMS * first :]
        post = array("d", (-1.0, *_NEG0) if shift is None else (1.0, *shift))
        for j in range(0, len(tail), _N_PARAMS):
            self.params += tail[j : j + 10]
            self.params += post
        self.actions += src.actions[first:]
        self.seg_ids += src.seg_ids[first:]
        self.t += int(sum(tail[6::_N_PARAMS]))
        self.pos = src.pos * _MIRROR_Z if shift is None else src.pos + shift


class _Pieces(NamedTuple):
    bounds: np.ndarray  # the tick each piece starts at, then t_end + 1
    actions: np.ndarray
    seg_ids: np.ndarray
    par: np.ndarray  # (14, pieces)


def _rows(par: np.ndarray, j, i: np.ndarray) -> np.ndarray:
    """Rows (r, 3) of pieces ``j`` of ``par`` (14, pieces) at their local
    ticks ``i``: ``j`` gathers one piece per row, or is ``slice(None)`` over
    parameters already repeated per row.

    The table and the metrics both come from here.  Elementwise float ops
    give the same bits at any subset of ticks as over the whole block."""
    out = np.empty((len(i), 3))
    rows = out.T
    np.multiply(par[3:6, j], i / par[6, j], out=rows)
    rows += par[0:3, j]  # p0 + d * (i / n): float addition commutes
    rows[0] += par[7, j] + par[8, j] * (par[9, j] + i)
    rows[2] *= par[10, j]
    rows += par[11:14, j]
    return out


def _intercept(pos, target_vehicle, t0, world: _World, step: float, d=None):
    """Fewest whole ticks n to reach the drifting target at <= step mm/tick
    from tick t0, and the move's extent: the displacement tested at t0 + n.
    d is the displacement at t0, if the caller has it."""
    if d is None:
        d = world.at(target_vehicle, t0) - pos
    dd = float(d @ d)
    if dd == 0.0:
        return 0, d
    k = world.k
    a = k * k - step * step
    b = 2.0 * d[0] * k
    disc = b * b - 4.0 * a * dd
    root = (-b - math.sqrt(disc)) / (2.0 * a)
    n = max(1, math.ceil(root - 1e-12))
    while True:
        d = world.at(target_vehicle, t0 + n) - pos
        if float(d @ d) <= (step * n) ** 2 * (1.0 + 1e-12):
            return n, d
        n += 1


def _approach(tape: _Tape, seg, world: _World, step: float):
    """Move the head to the segment's nearer endpoint (endpoint_a on a tie):
    the stroke's (start, end)."""
    da = world.at(seg.endpoint_a, tape.t) - tape.pos
    db = world.at(seg.endpoint_b, tape.t) - tape.pos
    if float(da @ da) <= float(db @ db):
        start, end, d = seg.endpoint_a, seg.endpoint_b, da
    else:
        start, end, d = seg.endpoint_b, seg.endpoint_a, db
    tape.move(*_intercept(tape.pos, start, tape.t, world, step, d))
    return start, end


def _stroke_ticks(d: np.ndarray, cfg) -> int:
    """Ticks to paint a stroke of extent d at the paint speed."""
    return max(1, math.ceil(float(np.linalg.norm(d)) / (cfg.v_sp * cfg.mu) - 1e-9))


_KIND_CLASS = {"vertical_side": "side", "hood": "top", "roof": "top", "back_door": "rear"}


# ---------------------------------------------------------------------------
# the planner


def _plan_pair(scene, left, right, seg_ids, world):
    """Plan one left arm and its mirror partner, each ending with its move
    home: their tapes, and whether the horizon cut the plan short.  A
    segment with no PAINT block on the left tape is unvisited."""
    cfg = scene.config
    windows = scene.windows
    tape_l = _Tape(left.center)
    tape_r = _Tape(right.center)
    prev_class = None
    step = cfg.v_mv * cfg.mu
    # while in lockstep the partner's state is the exact z-mirror of the
    # planned arm's, so whole episodes can be replayed bit-for-bit
    lockstep = True

    exhausted = False
    # one episode per run of consecutive segments on the same panel
    for pid, sids in groupby(seg_ids, lambda sid: scene.segment(sid).panel_id):
        if tape_l.t >= cfg.t_max:
            exhausted = True
            break
        panel = scene.panel(pid)
        paintable = [s for s in sids if windows[(left.id, s)] is not None]
        if not paintable:
            continue

        klass = _KIND_CLASS[panel.kind]
        turn = 0
        if prev_class is not None and klass != prev_class:
            turn = math.ceil(cfg.head_turn_wait / cfg.mu)
        prev_class = klass

        entry_from = len(tape_l.actions)
        tape_l.hold(turn, REORIENT)

        first = scene.segment(paintable[0])
        win = windows[(left.id, first.id)]
        if tape_l.t < win[0]:
            wait = math.ceil(win[0]) - tape_l.t
            if tape_l.t + wait >= cfg.t_max:
                exhausted = True
                break
            tape_l.hold(wait, WAIT)

        # episode transform for the expanded side
        mirror = panel.expansion_rule == "mirror"
        offset = panel.parallel_offset
        start, end = _approach(tape_l, first, world, step)

        delay = 0
        if panel.expansion_rule == "parallel_with_delay":
            if panel.delay > 0:
                delay = math.ceil(panel.delay / cfg.mu)
            else:
                delay = 2 * _stroke_ticks(np.subtract(end, start), cfg)

        if mirror and lockstep:
            # the partner replays the whole episode, entry (reorient, window
            # wait, transit) included, with the strokes below
            replay_from = entry_from
        else:
            # depart as late as possible: camping on the moving surface while
            # a neighbor is still painting nearby invites collisions
            tape_r.hold(turn, REORIENT)
            target_r = (start[0], start[1], -start[2] if mirror else start[2] + offset)
            n, d = _intercept(tape_r.pos, target_r, tape_r.t, world, step)
            t_start = max(tape_l.t, tape_r.t + n - delay)
            t_arr = t_start + delay
            # the latest departure w whose move (n, d) still arrives by t_arr;
            # w = 0 does, by the choice of t_start
            w = t_arr - tape_r.t - n
            while w > 0:
                n_w, d_w = _intercept(tape_r.pos, target_r, tape_r.t + w, world, step)
                if tape_r.t + w + n_w <= t_arr:
                    n, d = n_w, d_w
                    break
                w -= 1
            tape_r.hold(w, WAIT)
            tape_r.move(n, d)
            # track the drifting start until sync
            for tape, p, t_sync in ((tape_l, start, t_start), (tape_r, target_r, t_arr)):
                if tape.t < t_sync:
                    p0 = np.asarray(p, dtype=float)
                    tape.drifting(MOVE, -1, t_sync - tape.t, p0, None, world)
            lockstep = mirror  # synced mirror episode restores lockstep
            replay_from = len(tape_l.actions)

        # left arm paints the episode
        for idx, sid in enumerate(paintable):
            if tape_l.t >= cfg.t_max:
                exhausted = True
                break
            seg = scene.segment(sid)
            if idx > 0:
                win = windows[(left.id, sid)]
                if tape_l.t < win[0]:
                    tape_l.hold(math.ceil(win[0]) - tape_l.t, WAIT)
                start, end = _approach(tape_l, seg, world, step)
            p0 = np.asarray(start, dtype=float)
            d = np.asarray(end, dtype=float) - p0
            tape_l.drifting(PAINT, sid, _stroke_ticks(d, cfg), p0, d, world)

        # expanded side replays the episode under the panel transform
        tape_r.replay(tape_l, replay_from, None if mirror else (world.k * delay, 0.0, offset))

    for tape in (tape_l, tape_r):
        d = tape.home - tape.pos
        dist = float(np.linalg.norm(d))
        if dist > 0.0:
            tape.move(max(1, math.ceil(dist / step - 1e-12)), d)
    return tape_l, tape_r, exhausted


def _render(tapes: list[_Tape], t_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The table ``Trajectory`` reads: positions, actions and seg_ids."""
    t_end = min(t_max, max((tape.t for tape in tapes), default=0))
    n = len(tapes)
    pos = np.empty((n, t_end + 1, 3))
    act = np.empty((n, t_end + 1), dtype=np.int8)
    seg = np.empty((n, t_end + 1), dtype=np.int32)
    ticks = np.arange(t_end + 1)
    for a, tape in enumerate(tapes):
        pieces = _pieces(tape, t_end)
        length = np.diff(pieces.bounds)
        act[a] = np.repeat(pieces.actions, length)
        seg[a] = np.repeat(pieces.seg_ids, length)
        i_local = ticks - np.repeat(pieces.bounds[:-1] - 1, length)
        pos[a] = _rows(np.repeat(pieces.par, length, axis=1), slice(None), i_local)
    return pos, act, seg


def _pieces(tape: _Tape, t_end: int) -> _Pieces:
    """The tape over ticks 0..t_end as the table lays it out: home at tick 0
    (action WAIT, or HOME for an idle arm), the blocks cut at t_end, then the
    last row held (HOME)."""
    n_blocks = len(tape.actions)
    par = np.empty((n_blocks + 2, _N_PARAMS))
    par[0] = _hold_params(tape.home)
    par[1:-1] = np.frombuffer(tape.params).reshape(n_blocks, _N_PARAMS)
    par[-1] = _hold_params(tape.pos)
    starts = np.zeros(n_blocks + 2, dtype=np.int64)
    starts[1:] = np.cumsum(par[:-1, 6])
    m = int(np.searchsorted(starts, t_end, side="right"))
    actions = np.full(n_blocks + 2, HOME, dtype=np.int8)
    actions[1:-1] = tape.actions
    actions[0] = WAIT if n_blocks else HOME
    seg_ids = np.full(n_blocks + 2, -1, dtype=np.int32)
    seg_ids[1:-1] = tape.seg_ids
    bounds = np.append(starts[:m], t_end + 1)
    return _Pieces(bounds, actions[:m], seg_ids[:m], par[:m].T.copy())


def _hold_params(p: np.ndarray) -> list:
    return [*p.tolist(), *_NEG0, 1, *_NO_DRIFT, *_NO_POST]


def simulate(assign: ArmAssignment, scene: VehicleScene) -> tuple[Trajectory, SimMetrics]:
    """Plan trajectories for all arms (both sides) under ``scene.config`` and
    read the audit metrics off the plan's tapes.  Raises ValueError if a
    segment id is listed twice or lies outside 1..n_segs."""
    cfg = scene.config
    left_arms = scene.left_arms()
    if len(assign) != len(left_arms):
        raise ValueError(f"expected {len(left_arms)} assignment lists, got {len(assign)}")
    assigned = {s for row in assign for s in row}
    if len(assigned) != sum(map(len, assign)):
        raise ValueError("segment assigned more than once")
    unknown = assigned - set(range(1, scene.n_segs + 1))
    if unknown:
        raise ValueError(f"unknown segment ids {sorted(unknown)}")
    # segments missing from every assignment list are unvisited by definition
    # (decoded genotypes always cover all ids; audited assignments may not)
    missing = scene.n_segs - len(assigned)
    world = _World(scene)
    metrics = SimMetrics()

    tapes_l, tapes_r, arms_r = [], [], []
    for arm, seg_ids in zip(left_arms, assign):
        partner = scene.arm(arm.mirror_partner)
        tl, tr, exhausted = _plan_pair(scene, arm, partner, seg_ids, world)
        metrics.t_a[arm.id] = min(tl.t, cfg.t_max) * cfg.mu
        metrics.t_a[partner.id] = min(tr.t, cfg.t_max) * cfg.mu
        starts = accumulate(tl.params[6::_N_PARAMS], initial=0.0)
        for action, sid, start in zip(tl.actions, tl.seg_ids, starts):
            if action == PAINT:
                metrics.paint_start_times[sid] = (start + 1) * cfg.mu
        metrics.n_unvisits[arm.id] = len(seg_ids) - tl.actions.count(PAINT)
        metrics.n_unvisits[partner.id] = 0
        metrics.horizon_exhausted |= exhausted
        tapes_l.append(tl)
        tapes_r.append(tr)
        arms_r.append(partner)

    if missing:
        first = left_arms[0].id
        metrics.n_unvisits[first] = metrics.n_unvisits.get(first, 0) + missing

    tapes, arms = tapes_l + tapes_r, [*left_arms, *arms_r]
    metrics.t_out, metrics.t_col = _block_metrics(tapes, arms, cfg)
    metrics.order_violations = order_violation_counts(metrics.paint_start_times, scene)
    return Trajectory(tapes, [a.id for a in arms], cfg), metrics


def _block_metrics(tapes: list[_Tape], arms, cfg: ScenarioConfig):
    """Out-of-range time per arm id and collision time of the table
    ``_render`` would build, tested with the same formulas on the same
    floats, but only on the ticks that interval boxes cannot decide.

    Between consecutive piece starts of all arms each arm stays in one
    piece; its box there spans its rows at the interval's two ends.  Every
    step of ``_rows`` is monotone in the tick, so each row component is,
    except the x of a drifting stroke that runs against the line (a rising
    plus a falling sequence).  Those rows stay within 4u·S of the exact
    affine values (u = 2**-53, S the parameters' scale, ``_scale``), so
    none lies more than 8u·S outside the end rows' box: the margin
    2**-48·S = 32u·S covers that and the widening's own rounding.  Float
    subtraction, squaring and a sum in one order are monotone too, so a box
    whose nearest point is outside the sphere is wholly out of range, one
    whose farthest corner is inside is wholly in, and two boxes decide a
    pair's collision the same way."""
    t_end = min(cfg.t_max, max(tape.t for tape in tapes))
    laid = [_pieces(tape, t_end) for tape in tapes]
    # deduplicated by hand: np.unique imports numpy.ma on first use (~1 MB)
    starts = np.sort(np.concatenate([pieces.bounds[:-1] for pieces in laid]))
    starts = starts[np.diff(starts, prepend=-1) > 0]
    bounds = np.append(starts, t_end + 1)
    length = np.diff(bounds)
    n_arms, n_iv = len(tapes), len(starts)

    # all tapes' pieces side by side; on[a, q] is arm a's piece on interval q
    par = np.concatenate([pieces.par for pieces in laid], axis=1)
    first = np.concatenate([pieces.bounds[:-1] for pieces in laid])
    actions = np.concatenate([pieces.actions for pieces in laid])
    on = np.stack([np.searchsorted(pieces.bounds, starts, side="right") - 1 for pieces in laid])
    on += np.cumsum([0, *(len(pieces.actions) for pieces in laid[:-1])])[:, None]

    def rows(j, ticks):  # the rows of pieces j at ticks
        return _rows(par, j, ticks - first[j] + 1)

    ends = rows(np.tile(on.ravel(), 2), np.repeat([starts, bounds[1:] - 1], n_arms, axis=0).ravel())
    ends = ends.reshape(2, n_arms, n_iv, 3)
    margin = 2.0**-48 * _scale(par, t_end)
    lo = np.minimum(ends[0], ends[1]) - margin
    hi = np.maximum(ends[0], ends[1]) + margin

    center = np.array([arm.center for arm in arms], dtype=float)
    r2 = np.array([arm.radius**2 for arm in arms])
    c = center[:, None]
    paint = actions[on] == PAINT
    near = np.clip(c, lo, hi) - c
    far = np.maximum(np.abs(lo - c), np.abs(hi - c))
    out = paint & ((near**2).sum(axis=2) > r2[:, None])
    straddle = paint & ~out & ((far**2).sum(axis=2) > r2[:, None])

    g2 = cfg.gamma_col * cfg.gamma_col
    pa, pb = np.triu_indices(n_arms, 1)
    gap = np.maximum(np.maximum(lo[pa] - hi[pb], lo[pb] - hi[pa]), 0.0)
    span = np.maximum(hi[pa] - lo[pb], hi[pb] - lo[pa])
    whole = ((span**2).sum(axis=2) < g2).any(axis=0)  # every tick collides
    close = ((gap**2).sum(axis=2) < g2) & ~whole

    # each arm's rows on the intervals it is tested on, computed once
    need = straddle.copy()
    for a in range(n_arms):
        need[a] |= close[(pa == a) | (pb == a)].any(axis=0)
    na, nq = np.nonzero(need)
    at = np.zeros((n_arms, n_iv), dtype=np.int64)  # where they start in ``got``
    at[na, nq] = np.cumsum(length[nq]) - length[nq]
    got = rows(np.repeat(on[na, nq], length[nq]), _runs(bounds[nq], length[nq]))

    sa, sq = np.nonzero(straddle)
    owner = np.repeat(sa, length[sq])
    d = got[_runs(at[sa, sq], length[sq])]
    d -= center[owner]
    outside = owner[(d**2).sum(axis=1) > r2[owner]]
    count = (out * length).sum(axis=1) + np.bincount(outside, minlength=n_arms)
    t_out = {arm.id: float(n) * cfg.mu for arm, n in zip(arms, count)}

    colliding = np.zeros(t_end + 1, dtype=bool)
    colliding[_runs(starts[whole], length[whole])] = True
    cp, cq = np.nonzero(close)
    ticks = _runs(bounds[cq], length[cq])
    d = got[_runs(at[pa[cp], cq], length[cq])]
    d -= got[_runs(at[pb[cp], cq], length[cq])]
    colliding[ticks[(d**2).sum(axis=1) < g2]] = True
    return t_out, float(colliding.sum()) * cfg.mu


def _scale(par: np.ndarray, t_end: int) -> float:
    """A bound on |p0| + |d| + |off| + |k|·(t0 + i) + |add| of every row."""
    m = np.abs(par).max(axis=1)
    return float(m[0:3].max() + m[3:6].max() + m[7] + m[8] * (m[9] + t_end) + m[11:14].max())


def _runs(first: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The integers of runs ``[first, first + length)``, one run after
    another."""
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
