"""Constraint-repair operators applied to offspring genotypes.

All four operators are permutation- and slot-preserving value transforms:

1. reachability  - swap never-reachable (arm, segment) assignments away
2. bottom_up     - per vertical panel, keep each arm's segment count but
                   reassign contiguous bottom-to-top blocks in arm-row order
                   and sort each arm's within-panel visit order by height
3. few_arms      - exchange equally-sized panel assignments between two arms
                   when that strictly reduces arms-per-panel
4. back_door     - move back-door segments out of the last arm's slot

Application order in the GA loop: 1, 4, 2, 3.  Only two views map gene
positions to arm slots: the test ``_reaches`` (may this gene sit at this
position?) and the index ``_panel_incidence`` (positions per slot and panel);
``repair_back_door`` also reads where the last slot starts.
"""

from __future__ import annotations

from .genotype import UpperSolution, validate
from .lower_sim import never_reachable
from .scene import ScenarioConfig, VehicleScene, VERTICAL_KINDS, _scene_under


def _reaches(scene: VehicleScene):
    """ok(pos, gene): a dummy fits anywhere, a segment unless the arm owning
    pos's slot, ``scene.left_arms()[pos // slot_width]``, can never reach it."""
    bad = never_reachable(scene)
    ids = [a.id for a in scene.left_arms()]
    n_segs = scene.n_segs
    return lambda pos, gene: gene > n_segs or (ids[pos // scene.slot_width], gene) not in bad


def _panel_incidence(genes, scene: VehicleScene) -> dict[tuple[int, int], list[int]]:
    """Gene positions, ascending, per (arm slot, panel) pair that has any."""
    n_segs = scene.n_segs
    positions: dict[tuple[int, int], list[int]] = {}
    for pos, g in enumerate(genes):
        if g <= n_segs:
            key = (pos // scene.slot_width, scene.segment(g).panel_id)
            positions.setdefault(key, []).append(pos)
    return positions


def repair_reachability(x: UpperSolution, scene: VehicleScene) -> UpperSolution:
    """Repair operator 1: for each segment its arm can never reach, make the
    frontmost swap that removes the violation without creating one (a partner
    out of reach itself waits for its own pass); if none, leave it penalized."""
    if not never_reachable(scene):
        return x
    ok = _reaches(scene)
    genes = list(x.genes)
    for pos in range(scene.n_dim):
        if ok(pos, genes[pos]):
            continue
        for alt in range(scene.n_dim):
            if alt != pos and ok(pos, genes[alt]) and ok(alt, genes[pos]) and ok(alt, genes[alt]):
                genes[pos], genes[alt] = genes[alt], genes[pos]
                break
    return UpperSolution(tuple(genes))


def repair_bottom_up(x: UpperSolution, scene: VehicleScene) -> UpperSolution:
    """Repair operator 2 (bottom-to-top / front-arm-first): each vertical
    panel's positions, slot by slot from the front arm and ascending within
    a slot, take that panel's ids bottom to top.  Refilling a panel with its
    own ids moves no other panel's positions, so one index serves them all."""
    genes = list(x.genes)
    positions = _panel_incidence(genes, scene)
    slots = range(scene.n_arms_side)
    for panel in scene.panels:
        if panel.kind not in VERTICAL_KINDS:
            continue
        held = [pos for slot in slots for pos in positions.get((slot, panel.id), ())]
        for pos, sid in zip(held, scene.panel_segment_ids(panel.id)):
            genes[pos] = sid
    return UpperSolution(tuple(genes))


def repair_few_arms(x: UpperSolution, scene: VehicleScene) -> UpperSolution:
    """Repair operator 3: swap arm a1's panel-b1 segments with arm a2's
    panel-b2 segments (equal counts) while that strictly reduces the number
    of arms painting some panel without raising it anywhere.

    Both arms already touch both panels and every panel-b1 gene of a1 and
    panel-b2 gene of a2 moves, so each swap lowers the arm counts of b1 and
    b2 by one and changes no other: the loop ends within sum(counts)/2
    rounds."""
    ok = _reaches(scene)
    genes = list(x.genes)
    while True:
        positions = _panel_incidence(genes, scene)
        # smallest improving swap first (then lexicographic panel/slot order)
        candidates = sorted(
            (len(p1), b1, b2, a1, a2)
            for (a1, b1), p1 in positions.items()
            for (a2, b2), p2 in positions.items()
            if b1 != b2
            and a1 != a2
            and len(p1) == len(p2)
            and (a1, b2) in positions
            and (a2, b1) in positions  # both arms must touch both panels
        )
        for _, b1, b2, a1, a2 in candidates:
            swaps = list(zip(positions[(a1, b1)], positions[(a2, b2)]))
            if all(ok(q2, genes[q1]) and ok(q1, genes[q2]) for q1, q2 in swaps):
                for q1, q2 in swaps:
                    genes[q1], genes[q2] = genes[q2], genes[q1]
                break
        else:
            return UpperSolution(tuple(genes))


def repair_back_door(x: UpperSolution, scene: VehicleScene) -> UpperSolution:
    """Repair operator 4: the rearmost arm must not paint the back door.  Each
    such gene swaps with the frontmost non-back-door segment both arms reach."""
    back = scene.back_door_ids
    if not (scene.config.back_door_rule and back):
        return x
    ok = _reaches(scene)
    genes = list(x.genes)
    last_from = scene.n_dim - scene.slot_width  # the rearmost arm's slot starts here
    for pos in range(last_from, scene.n_dim):
        g = genes[pos]
        if g not in back:
            continue
        for alt in range(last_from):
            h = genes[alt]
            if h <= scene.n_segs and h not in back and ok(alt, g) and ok(pos, h):
                genes[pos], genes[alt] = genes[alt], genes[pos]
                break
    return UpperSolution(tuple(genes))


def repair_all(
    x: UpperSolution,
    scene: VehicleScene,
    cfg: ScenarioConfig | None = None,
    use_bottom_up: bool = True,
    use_few_arms: bool = True,
) -> UpperSolution:
    scene = _scene_under(scene, cfg)
    problem = validate(x, scene.n_dim)
    if problem:
        raise ValueError(f"malformed genotype: {problem}")
    x = repair_reachability(x, scene)
    x = repair_back_door(x, scene)
    if use_bottom_up:
        x = repair_bottom_up(x, scene)
    if use_few_arms:
        x = repair_few_arms(x, scene)
    return x
