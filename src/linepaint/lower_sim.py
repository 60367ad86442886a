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
kept as its parameters, never as per-tick rows: ``simulate_all`` scores
out-of-range and collision time from them, a group of plans at a time, and
the per-tick table (``Trajectory``) is rendered from them only when it is
read.

The planner computes in Python floats; the table and the metrics use numpy.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, groupby
from typing import Iterator, NamedTuple

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

    def block_ends(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per arm, the table's rows where its pieces end, without the table:
        the ticks (tick 0 first), the rows there (3, m) and the pieces'
        actions.  A piece is affine in the tick, so its rows lie on the
        line from the previous piece's end row to its own."""
        pieces = _pieces([self._tapes], self._t_max)
        rows = _rows(pieces.par, pieces.length)
        cut = np.searchsorted(pieces.tape, np.arange(1, len(self._tapes)))
        ticks = pieces.first + pieces.length - 1
        split = np.split(ticks, cut), np.split(rows, cut, axis=1), np.split(pieces.actions, cut)
        return list(zip(*split))


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
_NO_DRIFT = (-0.0, -0.0, 0.0)  # off, k, t0
_NO_POST = (1.0, *_NEG0)  # mz, add
_N_PARAMS = 14


def _sub(a, b) -> tuple[float, float, float]:
    return a[0] - b[0], a[1] - b[1], a[2] - b[2]


def _sq(d):
    """|d|² of a point, or over the leading axis of length 3 of an array."""
    return d[0] * d[0] + d[1] * d[1] + d[2] * d[2]  # fixed order, unlike a BLAS kernel


class _Tape:
    """One arm's blocks: action, segment id and 14 parameters each; ``t``
    ticks so far and ``pos``, the last row, as ``_rows`` gives it."""

    __slots__ = ("home", "actions", "seg_ids", "params", "t", "pos")

    def __init__(self, home):
        self.home = tuple(map(float, home))
        self.actions = array("b")
        self.seg_ids = array("i")
        self.params = array("d")
        self.t = 0
        self.pos = self.home

    def _push(self, action, seg, n, p0, d, drift=_NO_DRIFT) -> None:
        """Append a block; ``pos`` is its row i = n, since d * (n / n) is d."""
        off, k, t0 = drift
        self.actions.append(action)
        self.seg_ids.append(seg)
        self.params.extend((*p0, *d, n, *drift, *_NO_POST))
        self.t += n
        self.pos = (p0[0] + d[0] + (off + k * (t0 + n)), p0[1] + d[1], p0[2] + d[2])

    def hold(self, n: int, action: int = WAIT) -> None:
        if n > 0:
            self._push(action, -1, n, self.pos, _NEG0)

    def move(self, n: int, d) -> None:
        """n ticks from ``pos`` along d (nothing when n is 0)."""
        if n > 0:
            self._push(MOVE, -1, n, self.pos, d)

    def drifting(self, action, seg, n, p0, d, world: _World) -> None:
        """n ticks from p0 along d on the drifting body."""
        self._push(action, seg, n, p0, d, (world.off0, world.k, self.t))

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
        x, y, z = src.pos
        self.pos = (x, y, -z) if shift is None else (x + shift[0], y + shift[1], z + shift[2])


class _Pieces(NamedTuple):
    """Plans laid out tape after tape, each over its plan's ticks 0..t_end."""

    par: np.ndarray  # (14, pieces)
    first: np.ndarray  # the tick each piece starts at
    length: np.ndarray  # its ticks up to t_end
    tape: np.ndarray  # the index of its tape, counted over all plans
    actions: np.ndarray
    seg_ids: np.ndarray
    t_end: np.ndarray  # per plan, the last tick of its table


def _rows(par: np.ndarray, i) -> np.ndarray:
    """Rows (3, r) of pieces ``par`` (14, r), gathered one per row, at their
    local ticks ``i``.

    The table, the plot and the metrics all come from here.  Elementwise
    float ops give the same bits at any subset of ticks as over the whole
    block."""
    rows = par[3:6] * (i / par[6])
    rows += par[0:3]  # p0 + d * (i / n): float addition commutes
    rows[0] += par[7] + par[8] * (par[9] + i)
    rows[2] *= par[10]
    rows += par[11:14]
    return rows


def _intercept(pos, target_vehicle, t0, world: _World, step: float, d=None):
    """Fewest whole ticks n to reach the drifting target at <= step mm/tick
    from tick t0, and the move's extent: the displacement tested at t0 + n.
    d is the displacement at t0, if the caller has it."""
    if d is None:
        d = _sub(world.at(target_vehicle, t0), pos)
    dd = _sq(d)
    if dd == 0.0:
        return 0, d
    k = world.k
    a = k * k - step * step
    b = 2.0 * d[0] * k
    disc = b * b - 4.0 * a * dd
    root = (-b - math.sqrt(disc)) / (2.0 * a)
    n = max(1, math.ceil(root - 1e-12))
    while True:
        d = _sub(world.at(target_vehicle, t0 + n), pos)
        if _sq(d) <= (step * n) ** 2 * (1.0 + 1e-12):
            return n, d
        n += 1


def _approach(tape: _Tape, seg, world: _World, step: float):
    """Move the head to the segment's nearer endpoint (endpoint_a on a tie):
    the stroke's (start, end) as floats."""
    da = _sub(world.at(seg.endpoint_a, tape.t), tape.pos)
    db = _sub(world.at(seg.endpoint_b, tape.t), tape.pos)
    if _sq(da) <= _sq(db):
        start, end, d = seg.endpoint_a, seg.endpoint_b, da
    else:
        start, end, d = seg.endpoint_b, seg.endpoint_a, db
    tape.move(*_intercept(tape.pos, start, tape.t, world, step, d))
    return tuple(map(float, start)), tuple(map(float, end))


def _stroke_ticks(d, cfg) -> int:
    """Ticks to paint a stroke of extent d at the paint speed."""
    return max(1, math.ceil(math.sqrt(_sq(d)) / (cfg.v_sp * cfg.mu) - 1e-9))


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
        if panel.delay:  # the scene admits one on parallel_with_delay panels only
            delay = math.ceil(panel.delay / cfg.mu)
        elif panel.expansion_rule == "parallel_with_delay":
            delay = 2 * _stroke_ticks(_sub(end, start), cfg)

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
                    tape.drifting(MOVE, -1, t_sync - tape.t, p, _NEG0, world)
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
            d = _sub(end, start)
            tape_l.drifting(PAINT, sid, _stroke_ticks(d, cfg), start, d, world)

        # expanded side replays the episode under the panel transform
        tape_r.replay(tape_l, replay_from, None if mirror else (world.k * delay, 0.0, offset))

    for tape in (tape_l, tape_r):
        d = _sub(tape.home, tape.pos)
        dist = math.sqrt(_sq(d))
        if dist > 0.0:
            tape.move(max(1, math.ceil(dist / step - 1e-12)), d)
    return tape_l, tape_r, exhausted


def _render(tapes: list[_Tape], t_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The table ``Trajectory`` reads: positions, actions and seg_ids."""
    n = len(tapes)
    pieces = _pieces([tapes], t_max)
    t_end, length = pieces.t_end[0], pieces.length
    act = np.repeat(pieces.actions, length).reshape(n, t_end + 1)
    seg = np.repeat(pieces.seg_ids, length).reshape(n, t_end + 1)
    pos = np.empty((n, t_end + 1, 3))
    ticks = np.arange(t_end + 1)
    cut = np.searchsorted(pieces.tape, np.arange(n + 1))
    for a in range(n):  # an arm at a time: the repeated parameters are 14 floats a tick
        mine = slice(cut[a], cut[a + 1])
        i_local = ticks - np.repeat(pieces.first[mine] - 1, length[mine])
        pos[a] = _rows(np.repeat(pieces.par[:, mine], length[mine], axis=1), i_local).T
    return pos, act, seg


def _pieces(plans: list[list[_Tape]], t_max: int) -> _Pieces:
    """The plans' tapes as their tables lay them out: a plan's table ends at
    t_end = min(t_max, its longest tape), and each tape holds home at tick 0
    (action WAIT, or HOME for an idle arm), its blocks cut at t_end, then
    its last row (HOME)."""
    t_ends = np.array([min(t_max, max((tape.t for tape in plan), default=0)) for plan in plans])
    tapes = [tape for plan in plans for tape in plan]
    buf, actions, seg_ids, count = array("d"), array("b"), array("i"), []
    for tape in tapes:
        buf.extend(_hold_params(tape.home))
        buf += tape.params
        buf.extend(_hold_params(tape.pos))
        actions.append(WAIT if tape.actions else HOME)
        actions += tape.actions
        actions.append(HOME)
        seg_ids.append(-1)
        seg_ids += tape.seg_ids
        seg_ids.append(-1)
        count.append(len(tape.actions) + 2)
    par = np.frombuffer(buf).reshape(-1, _N_PARAMS)
    tape = np.repeat(np.arange(len(tapes)), count)
    start = (np.cumsum(par[:, 6]) - par[:, 6]).astype(np.int64)  # whole tick counts: exact
    first = start - start[np.cumsum(count) - count][tape]  # from each tape's home piece
    t_end = np.repeat(t_ends, list(map(len, plans)))[tape]
    keep = first <= t_end
    first, t_end, tape = first[keep], t_end[keep], tape[keep]
    last = np.append(tape[1:] != tape[:-1], True)  # of its tape
    stop = np.where(last, t_end + 1, np.append(first[1:], 0))
    return _Pieces(
        par[keep].T.copy(),
        first,
        stop - first,
        tape,
        np.frombuffer(actions, dtype=np.int8)[keep],
        np.frombuffer(seg_ids, dtype=np.int32)[keep],
        t_ends,
    )


def _hold_params(p) -> list:
    return [*p, *_NEG0, 1, *_NO_DRIFT, *_NO_POST]


def tape_arms(scene: VehicleScene) -> list:
    """The arms in the order of a plan's tapes: the left arms, then their
    partners."""
    left = scene.left_arms()
    return [*left, *(scene.arm(arm.mirror_partner) for arm in left)]


def simulate(assign: ArmAssignment, scene: VehicleScene) -> tuple[Trajectory, SimMetrics]:
    """Plan trajectories for all arms (both sides) under ``scene.config`` and
    read the audit metrics off the plan's tapes.  Raises ValueError if a
    segment id is listed twice or lies outside 1..n_segs."""
    [(tapes, metrics)] = simulate_all([assign], scene)
    return Trajectory(tapes, [arm.id for arm in tape_arms(scene)], scene.config), metrics


# a group is scored once its arm pairs times pieces reach this: about 5 desk
# plans, 2 v3 plans or 1 v1 plan; groups twice as large ran no faster on
# desk and slower on v1
GROUP_PAIR_PIECES = 16384


def simulate_all(assigns, scene: VehicleScene) -> Iterator[tuple[list[_Tape], SimMetrics]]:
    """``simulate`` for each assignment, without the tables: every plan's
    tapes and metrics, in order.  The plans are made one after another and
    scored a group at a time, with one ``_block_metrics`` pass per group; a
    plan's metrics do not depend on its group.  Only one group's tapes are
    held at a time."""
    arms = tape_arms(scene)
    pairs = len(arms) * (len(arms) - 1) // 2
    world = _World(scene)
    group, size = [], 0
    for k, assign in enumerate(assigns):
        group.append(_plan(assign, scene, world))
        size += pairs * sum(len(tape.actions) + 2 for tape in group[-1][0])
        if size >= GROUP_PAIR_PIECES or k == len(assigns) - 1:
            scores = _block_metrics([tapes for tapes, _ in group], arms, scene.config)
            for (tapes, metrics), (t_out, t_col) in zip(group, scores):
                metrics.t_out, metrics.t_col = t_out, t_col
                yield tapes, metrics
            group, size = [], 0


def _plan(assign: ArmAssignment, scene: VehicleScene, world: _World):
    """Every arm's tape, in ``tape_arms`` order, and every metric but t_out
    and t_col."""
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
    metrics = SimMetrics()

    tapes_l, tapes_r = [], []
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

    if missing:
        first = left_arms[0].id
        metrics.n_unvisits[first] = metrics.n_unvisits.get(first, 0) + missing
    metrics.order_violations = order_violation_counts(metrics.paint_start_times, scene)
    return tapes_l + tapes_r, metrics


def _block_metrics(plans: list[list[_Tape]], arms, cfg: ScenarioConfig):
    """For each plan: out-of-range time per arm id and collision time of the
    table ``_render`` would build, counted in closed form, and tested with
    its formulas on its floats only at the ticks left undecided.  The plans
    lie side by side on one flat tick axis and share one scale S per pass
    (``_scale``); the counts are exact under any valid S, so a plan's
    metrics do not depend on the others in its group.

    Between consecutive piece starts of all arms each arm stays in one
    piece; its box there spans its rows at the interval's two ends.  Every
    step of ``_rows`` is monotone in the tick, so each row component is,
    except the x of a drifting stroke that runs against the line (a rising
    plus a falling sequence).  Those rows stay within 4u·S of the exact
    affine values (u = 2**-53), so none lies more than 8u·S outside the
    end rows' box, and the margin 2**-48·S covers that and the widening's
    rounding.  Float subtraction, squaring and a sum in one order are
    monotone too, so the boxes clear exactly: an arm pair whose boxes are
    at least gamma_col apart collides at no tick of the interval.

    Every other pair test and every paint interval of an arm has a
    difference (row minus row, or row minus center) that is affine in the
    local tick τ = 0..L-1: e0 + v·τ, with e0 the difference of the start
    rows and v that of the pieces' steps (d/n, plus k in x, times mz in z).
    So the test is the convex quadratic
    f(τ) = |e0 + v·τ|² - thr = a·τ² + b·τ + c against 0.  Let
    W = 2·max(S, |center|) bound every component of a difference and
    E = 2·(|e0| + |v|·L) bound |e0 + v·τ|.  e0 + v·τ is within δ = 16u·W
    per component of the test's float difference (rows, v's rounding times
    τ, one subtraction), which moves its square by under 2√3·δ·E + 3δ²; the
    float squares, sums and evaluation of f add under 16u·(E² + thr).  So
    the float f(τ) is within σ = 2**-43·(E·W + E² + thr) + 2**-90·W² of the
    tested d2 - thr: where f > σ the test passes, where f < -σ it fails.
    The roots of f = ±σ cut [0, L) into at most five runs: above σ,
    undecided, below -σ, undecided, above σ.  No run rests on a float root
    alone: the run below -σ holds if f < -σ at its two end ticks (f is
    convex), a run above σ if f > σ at its inner end tick and the slope
    there, with its rounding bound, falls towards that tick.  A lone tick
    between runs above σ is decided by f > σ there.  A test whose runs do
    not all hold is undecided throughout.  Only undecided ticks are
    evaluated with ``_rows`` and tested one by one."""
    n_arms, n_plans = len(arms), len(plans)
    pieces = _pieces(plans, cfg.t_max)
    flat = np.append(0, np.cumsum(pieces.t_end + 1))  # each plan's tick 0, then the end
    par, arm = pieces.par, pieces.tape % n_arms
    first = pieces.first + flat[pieces.tape // n_arms]
    # deduplicated by hand: np.unique imports numpy.ma on first use (~1 MB)
    starts = np.sort(first)
    starts = starts[np.diff(starts, prepend=-1) > 0]
    bounds = np.append(starts, flat[-1])
    length = np.diff(bounds)
    plan = np.searchsorted(flat, starts, side="right") - 1  # of each interval

    # on[a, q] is arm a's piece on interval q, found among pieces by (arm, tick)
    by_arm = np.argsort(arm, kind="stable")
    key = (arm * flat[-1] + first)[by_arm]
    on = by_arm[np.searchsorted(key, np.arange(n_arms)[:, None] * flat[-1] + starts, "right") - 1]

    def rows(j, ticks):  # the rows of pieces j at ticks
        return _rows(par[:, j], ticks - first[j] + 1)

    ends = rows(np.concatenate([on, on], axis=1), np.concatenate([starts, bounds[1:] - 1]))
    ends = ends.reshape(3, n_arms, 2, -1)  # at each interval's first and last tick
    scale = _scale(par, pieces.t_end)
    margin = 2.0**-48 * scale
    lo = np.minimum(ends[:, :, 0], ends[:, :, 1]) - margin
    hi = np.maximum(ends[:, :, 0], ends[:, :, 1]) + margin

    g2 = cfg.gamma_col * cfg.gamma_col
    pa, pb = np.triu_indices(n_arms, 1)
    gap = np.maximum(np.maximum(lo[:, pa] - hi[:, pb], lo[:, pb] - hi[:, pa]), 0.0)
    close = _sq(gap) < g2

    # the tests left open, arms first: pieces ja (and jb), e0, v
    center = np.array([a.center for a in arms], dtype=float).T
    r2 = np.array([a.radius**2 for a in arms])
    sa, sq = np.nonzero(pieces.actions[on] == PAINT)
    cp, cq = np.nonzero(close)
    ns, q = len(sa), np.concatenate([sq, cq])
    ja = np.concatenate([on[sa, sq], on[pa[cp], cq]])
    jb = on[pb[cp], cq]
    e0 = np.concatenate(
        [ends[:, sa, 0, sq] - center[:, sa], ends[:, pa[cp], 0, cq] - ends[:, pb[cp], 0, cq]],
        axis=1,
    )
    step = par[3:6] / par[6]
    step[0] += par[8]
    step[2] *= par[10]
    v = step[:, ja]
    v[:, ns:] -= step[:, jb]
    thr = np.concatenate([r2[sa], np.full(len(cp), g2)])
    w = 2.0 * max(scale, np.abs(center).max())
    A, B, C, D = _cut(e0, v, thr, w, length[q])

    # the undecided ticks [A, B) and [C, D) of each test, test after test
    run_first = np.stack([A, C], axis=1).ravel()
    run_len = np.stack([B - A, D - C], axis=1).ravel()
    test = np.repeat(np.arange(len(q)).repeat(2), run_len)
    ticks = starts[q[test]] + _runs(run_first, run_len)
    nt = np.searchsorted(test, ns)  # ticks of arm tests
    got = rows(np.concatenate([ja[test], jb[test[nt:] - ns]]), np.concatenate([ticks, ticks[nt:]]))
    ts = test[:nt]
    outside = ts[_sq(got[:, :nt] - center[:, sa[ts]]) > r2[sa[ts]]]
    hits = ticks[nt:][_sq(got[:, nt : len(ticks)] - got[:, len(ticks) :]) < g2]

    # ticks out of range per (plan, arm): runs above σ and tested ticks
    count = np.bincount(
        plan[np.concatenate([sq, sq[outside]])] * n_arms + np.concatenate([sa, sa[outside]]),
        np.concatenate([A[:ns] + length[sq] - D[:ns], np.ones(len(outside))]),
        minlength=n_plans * n_arms,
    ).reshape(n_plans, n_arms)

    # colliding ticks: runs below -σ and tested hits
    run_first = np.concatenate([starts[cq] + B[ns:], hits])
    run_end = np.concatenate([starts[cq] + C[ns:], hits + 1])
    depth = np.bincount(run_first, minlength=flat[-1] + 1)
    depth -= np.bincount(run_end, minlength=flat[-1] + 1)
    colliding = np.add.reduceat(np.cumsum(depth[:-1]) > 0, flat[:-1], dtype=np.int64)
    return [
        ({a.id: float(n) * cfg.mu for a, n in zip(arms, count[p])}, float(colliding[p]) * cfg.mu)
        for p in range(n_plans)
    ]


def _cut(e0, v, thr, w, n):
    """Per test, the ticks [A, B) and [C, D) of 0..n-1 that the quadratic
    f(τ) = |e0 + v·τ|² - thr leaves undecided: f > σ on [0, A) and [D, n),
    f < -σ on [B, C), each run confirmed as ``_block_metrics`` says, with
    the slack σ sized there from the test's E and the pass's W, given as
    w."""
    a = _sq(v)
    b = 2.0 * (e0[0] * v[0] + e0[1] * v[1] + e0[2] * v[2])
    e2 = _sq(e0)
    c = e2 - thr
    n = n.astype(float)
    e = 2.0 * (np.sqrt(e2) + np.sqrt(a) * n)  # bounds |e0 + v·τ| on the interval
    sigma = 2.0**-43 * (e * w + e * e + thr) + 2.0**-90 * w * w
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        hi1, hi2 = _roots(a, b, c - sigma)
        lo1, lo2 = _roots(a, b, c + sigma)
        # with no root above σ, only the tick nearest the vertex is left open
        vertex = np.where(a > 0, -b / (2.0 * a), np.where(b < 0, n - 1, 0.0))
        m = np.clip(np.rint(vertex), 0, n - 1)
        has = ~np.isnan(hi1)
        A = np.where(has, np.clip(np.ceil(hi1), 0, n), m)
        D = np.where(has, np.clip(np.floor(hi2) + 1, A, n), m + 1)
        has = ~np.isnan(lo1)
        B = np.where(has, np.clip(np.floor(lo1) + 1, A, D), A)
        C = np.where(has, np.clip(np.ceil(lo2), B, D), A)
        # a constant f below -σ is one run
        flat = (a == 0) & (b == 0) & (c < -sigma)
        A, B = np.where(flat, 0, A), np.where(flat, 0, B)
        C, D = np.where(flat, n, C), np.where(flat, n, D)

        def f(t):
            return (a * t + b) * t + c

        def slope(t):  # 2a·t + b, and a bound on its rounding
            return 2.0 * a * t + b, 2.0**-50 * (2.0 * a * np.abs(t) + np.abs(b))

        ds, tol = slope(A - 1)
        ok = (A == 0) | ((f(A - 1) > sigma) & (ds <= -tol))
        ds, tol = slope(D)
        ok &= (D == n) | ((f(D) > sigma) & (ds >= tol))
        ok &= (B == C) | ((f(B) < -sigma) & (f(C - 1) < -sigma))
        # a lone open tick with f above σ is decided too
        lone = ok & (D - A == 1) & (f(A) > sigma)
        B, C, D = (np.where(lone, A, x) for x in (B, C, D))
    cuts = np.where(ok, A, 0), np.where(ok, B, 0), np.where(ok, C, 0), np.where(ok, D, n)
    return [x.astype(np.int64) for x in cuts]


def _roots(a, b, c):
    """The real roots r1 <= r2 of a·τ² + b·τ + c where a > 0, else NaN."""
    disc = b * b - 4.0 * a * c
    root = np.sqrt(np.where((a > 0) & (disc >= 0), disc, np.nan))
    q = -0.5 * (b + np.copysign(root, b))
    return np.fmin(q / a, c / q), np.fmax(q / a, c / q)


def _scale(par: np.ndarray, t_end: np.ndarray) -> float:
    """S, one bound on |p0| + |d| + |off| + |k|·(t0 + i) + |add| of every
    row of the pass."""
    m = np.abs(par).max(axis=1)
    return m[0:3].max() + m[3:6].max() + m[7] + m[8] * (m[9] + t_end.max()) + m[11:14].max()


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
