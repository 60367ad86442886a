"""Constraint-repair operators applied to offspring genotypes.

All four operators are permutation- and slot-preserving value transforms:

1. reachability  - swap never-reachable (arm, segment) assignments away
2. bottom_up     - per vertical panel, keep each arm's segment count but
                   reassign contiguous bottom-to-top blocks in arm-row order
                   and sort each arm's within-panel visit order by height
3. few_arms      - exchange equally-sized panel assignments between two arms
                   when that strictly reduces arms-per-panel
4. back_door     - move back-door segments out of the last arm's slot

Application order in the GA loop: 1, 4, 2, 3.  Gene position p belongs to
the one-side arm ``scene.left_arms()[p // scene.slot_width]``.
"""

from __future__ import annotations

from .genotype import UpperSolution
from .lower_sim import never_reachable
from .scene import ScenarioConfig, VehicleScene, VERTICAL_KINDS, _scene_under


def repair_reachability(x: UpperSolution, scene: VehicleScene) -> UpperSolution:
    """Repair operator 1: for each segment its arm can never reach, scan from
    the front of the genotype for the first swap that removes the violation
    without creating a new one; leave it (penalty territory) if none exists."""
    bad = never_reachable(scene)
    if not bad:
        return x
    genes = list(x.genes)
    arms = scene.left_arms()
    n_segs = scene.n_segs

    def unreachable(pos: int, gene: int) -> bool:
        if gene > n_segs:  # dummy
            return False
        return (arms[pos // scene.slot_width].id, gene) in bad

    for pos in range(scene.n_dim):
        if not unreachable(pos, genes[pos]):
            continue
        for alt in range(scene.n_dim):
            if alt == pos or unreachable(pos, genes[alt]) or unreachable(alt, genes[pos]):
                continue
            if unreachable(alt, genes[alt]):
                continue  # that position needs its own repair pass
            genes[pos], genes[alt] = genes[alt], genes[pos]
            break
    return UpperSolution(tuple(genes))


def repair_bottom_up(x: UpperSolution, scene: VehicleScene) -> UpperSolution:
    """Repair operator 2 (bottom-to-top / front-arm-first)."""
    genes = list(x.genes)
    for panel in scene.panels:
        if panel.kind not in VERTICAL_KINDS:
            continue
        ordered = scene.panel_segment_ids(panel.id)  # bottom to top
        if not ordered:
            continue
        members = set(ordered)
        # gene positions of this panel's segments, grouped by arm slot
        per_arm: list[list[int]] = [[] for _ in range(scene.n_arms_side)]
        for pos, g in enumerate(genes):
            if g in members:
                per_arm[pos // scene.slot_width].append(pos)
        i = 0
        for positions in per_arm:  # frontmost arm gets the lowest block
            block = ordered[i : i + len(positions)]
            i += len(positions)
            for pos, sid in zip(sorted(positions), block):
                genes[pos] = sid
    return UpperSolution(tuple(genes))


def _panel_incidence(genes, scene: VehicleScene) -> dict[tuple[int, int], list[int]]:
    """Gene positions per (arm slot, panel) pair that has any."""
    n_segs = scene.n_segs
    positions: dict[tuple[int, int], list[int]] = {}
    for pos, g in enumerate(genes):
        if g <= n_segs:
            key = (pos // scene.slot_width, scene.segment(g).panel_id)
            positions.setdefault(key, []).append(pos)
    return positions


def repair_few_arms(x: UpperSolution, scene: VehicleScene) -> UpperSolution:
    """Repair operator 3: swap arm a1's panel-b1 segments with arm a2's
    panel-b2 segments (equal counts) while that strictly reduces the number
    of arms painting some panel without raising it anywhere.

    Both arms already touch both panels and every panel-b1 gene of a1 and
    panel-b2 gene of a2 moves, so each swap lowers the arm counts of b1 and
    b2 by one and changes no other: the loop ends within sum(counts)/2
    rounds."""
    bad = never_reachable(scene)
    genes = list(x.genes)
    arms = scene.left_arms()
    while True:
        positions = _panel_incidence(genes, scene)
        # smallest improving swap first (then lexicographic panel/arm order)
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
            p1 = positions[(a1, b1)]
            p2 = positions[(a2, b2)]
            if any((arms[a2].id, genes[p]) in bad for p in p1):
                continue
            if any((arms[a1].id, genes[p]) in bad for p in p2):
                continue
            for q1, q2 in zip(p1, p2):
                genes[q1], genes[q2] = genes[q2], genes[q1]
            break
        else:
            return UpperSolution(tuple(genes))


def repair_back_door(x: UpperSolution, scene: VehicleScene) -> UpperSolution:
    """Repair operator 4: the rearmost arm must not paint the back door."""
    if not scene.config.back_door_rule:
        return x
    back = scene.back_door_ids
    if not back:
        return x
    genes = list(x.genes)
    n_segs = scene.n_segs
    arms = scene.left_arms()
    bad = never_reachable(scene)
    last_from = scene.n_dim - scene.slot_width  # the rearmost arm's slot starts here
    last_id = arms[-1].id
    for pos in range(last_from, scene.n_dim):
        g = genes[pos]
        if g not in back:
            continue
        for alt in range(last_from):
            h = genes[alt]
            if h > n_segs or h in back:
                continue
            if (arms[alt // scene.slot_width].id, g) in bad or (last_id, h) in bad:
                continue
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
    x = repair_reachability(x, scene)
    x = repair_back_door(x, scene)
    if use_bottom_up:
        x = repair_bottom_up(x, scene)
    if use_few_arms:
        x = repair_few_arms(x, scene)
    return x
