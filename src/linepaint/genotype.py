"""Upper-layer solution representation.

A genotype is a permutation of segment ids 1..n_segs plus dummy ids
n_segs+1..n_dim, split into equal-length contiguous slots, one per one-side
arm (slot 1 belongs to the frontmost arm).  Painting-exactly-once holds by
construction; decoding strips the dummies.  The scene gives the layout's
sizes (``VehicleScene.n_dim`` and ``slot_width``); this module alone maps
between genotypes and arm assignments.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scene import VehicleScene


@dataclass(frozen=True)
class UpperSolution:
    genes: tuple[int, ...]


# per one-side arm (frontmost first): real segment ids in visit order
ArmAssignment = tuple[tuple[int, ...], ...]


def decode(x: UpperSolution, scene: VehicleScene) -> ArmAssignment:
    """Each arm's slot without its dummies; ValueError unless n_dim genes."""
    if len(x.genes) != scene.n_dim:
        raise ValueError(f"genotype has {len(x.genes)} genes, the scene needs {scene.n_dim}")
    width = scene.slot_width
    n_segs = scene.n_segs
    return tuple(
        tuple(g for g in x.genes[a * width : (a + 1) * width] if g <= n_segs)
        for a in range(scene.n_arms_side)
    )


def encode(assign: ArmAssignment, scene: VehicleScene) -> UpperSolution | None:
    """The genotype whose slots hold each arm's list (the lists together
    holding every segment once) padded with the next unused dummy ids; None
    when a list overflows its slot."""
    width = scene.slot_width
    if any(len(row) > width for row in assign):
        return None
    genes, dummy = [], scene.n_segs + 1
    for row in assign:
        pad = width - len(row)
        genes += [*row, *range(dummy, dummy + pad)]
        dummy += pad
    return UpperSolution(tuple(genes))


def validate(x: UpperSolution, n_dim: int | None = None) -> str | None:
    """None when x is a permutation of 1..n_dim (by default of 1..its
    length), else a description."""
    n = len(x.genes)
    if n_dim is not None and n != n_dim:
        return f"genotype has {n} genes, the scene needs {n_dim}"
    if sorted(x.genes) == list(range(1, n + 1)):
        return None
    seen: dict[int, int] = {}
    problems = []
    for pos, g in enumerate(x.genes):
        if g in seen:
            problems.append(f"id {g} duplicated at positions {seen[g]} and {pos}")
        else:
            seen[g] = pos
        if not 1 <= g <= n:
            problems.append(f"id {g} at position {pos} outside 1..{n}")
    missing = [g for g in range(1, n + 1) if g not in seen]
    if missing:
        problems.append(f"missing ids {missing}")
    return "; ".join(problems) if problems else None


def random_solution(n_dim: int, rng) -> UpperSolution:
    perm = rng.permutation(n_dim) + 1
    return UpperSolution(tuple(int(g) for g in perm))
