"""Boundary-aligned initial population.

The side panel with the most segments becomes the reference; its height range
is split evenly between the one-side arms (lowest block to the frontmost
arm), and the split heights are replicated on every other panel.  Further
seeds enumerate +-1..+-delta shifts of each boundary (depth-first, raise
before lower); the rest of the population is filled with random permutations.
When the scene has a roof its strokes are treated as a continuation of the
reference panel's height stack, and boundaries project onto it the same way.
"""

from __future__ import annotations

from itertools import islice, product

from .genotype import UpperSolution, encode, random_solution
from .scene import ScenarioError, VehicleScene


def select_reference_panel(scene: VehicleScene) -> int:
    sides = [p for p in scene.panels if p.kind == "vertical_side"]
    if not sides:
        raise ScenarioError("no vertical side panel to use as seeding reference")
    return max(sides, key=lambda p: (len(scene.panel_segment_ids(p.id)), -p.id)).id


def _reference_stack_size(scene: VehicleScene) -> tuple[int, int]:
    """The reference panel's level count, and the stack height with the roof."""
    ref_count = len(scene.panel_segment_ids(select_reference_panel(scene)))
    roof = next((p for p in scene.panels if p.kind == "roof"), None)
    return ref_count, ref_count + (len(scene.panel_segment_ids(roof.id)) if roof else 0)


def base_boundaries(scene: VehicleScene) -> tuple[int, ...]:
    """The equal split: cumulative cut heights on the reference stack, one
    per arm but the last."""
    _, stack = _reference_stack_size(scene)
    n = scene.n_arms_side
    return tuple(round(i * stack / n) for i in range(1, n))


def solution_from_boundaries(bounds: tuple[int, ...], scene: VehicleScene) -> UpperSolution | None:
    """Build the genotype whose per-panel blocks follow the boundary heights;
    None when a block overflows its slot."""
    n_arms = scene.n_arms_side
    ref_count, stack = _reference_stack_size(scene)
    cuts = (0, *bounds, stack)
    if list(cuts) != sorted(set(cuts)):
        return None
    if any(h < 1 or h > stack - 1 for h in bounds):
        return None

    per_arm: list[list[int]] = [[] for _ in range(n_arms)]
    for panel in scene.panels:
        ids = scene.panel_segment_ids(panel.id)  # bottom to top
        n_p = len(ids)
        if panel.kind == "roof":
            # roof heights continue the reference stack above ref_count
            level = [ref_count + h for h in range(1, n_p + 1)]
        else:
            level = list(range(1, n_p + 1))
        top = level[-1] if level else 0
        for a in range(n_arms):
            lo = min(cuts[a], top)  # short panels: clamp to nearest valid cut
            hi = min(cuts[a + 1], top)
            per_arm[a].extend(sid for sid, lv in zip(ids, level) if lo < lv <= hi)
    return encode(per_arm, scene)


def enumerate_boundary_sets(scene: VehicleScene, limit: int) -> list[tuple[int, ...]]:
    """Base set first, then the depth-first +-1..+-delta shift enumeration."""
    delta = scene.config.delta
    base = base_boundaries(scene)
    _, stack = _reference_stack_size(scene)
    choices = [
        [h for j in range(1, delta + 1) for h in (b + j, b - j) if 1 <= h <= stack - 1]
        for b in base
    ]
    # every shift moves each boundary, so only the one-arm product, (), is base
    shifted = (s for s in product(*choices) if s != base)
    return [base, *islice(shifted, max(limit - 1, 0))]


def build_seed_population(
    scene: VehicleScene, n_pop: int, rng
) -> tuple[list[UpperSolution], int]:
    """Boundary-aligned seeds (equal split first) topped up with random
    permutations to n_pop individuals, and how many are boundary-aligned."""
    pop: list[UpperSolution] = []
    for bounds in enumerate_boundary_sets(scene, n_pop - 1):
        sol = solution_from_boundaries(bounds, scene)
        if sol is not None:
            pop.append(sol)
        if len(pop) >= n_pop - 1:
            break
    n_boundary = len(pop)
    while len(pop) < n_pop:
        pop.append(random_solution(scene.n_dim, rng))
    return pop, n_boundary


def random_population(scene: VehicleScene, n_pop: int, rng):
    return [random_solution(scene.n_dim, rng) for _ in range(n_pop)]
